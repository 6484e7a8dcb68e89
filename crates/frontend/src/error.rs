//! Typed frontend errors.
//!
//! Every malformed input — truncated JSON, a dangling portref, a
//! width-mismatched connection, an unknown cell — lands in one of these
//! variants; the parsers never panic on foreign bytes (the malformed
//! corpus in `tests/frontend.rs` pins this).

use std::fmt;

use asicgap_netlist::NetlistError;
use asicgap_synth::SynthError;

/// What went wrong while parsing or lowering a foreign design.
#[derive(Debug, Clone, PartialEq)]
pub enum FrontendError {
    /// The bytes do not lex/parse as the claimed format (truncated
    /// input, unbalanced parens, bad JSON, ...).
    Syntax {
        /// What the parser saw.
        what: String,
    },
    /// A cell kind that binds to nothing: not a library cell, not a
    /// library function at another drive, not a Yosys generic gate, not a
    /// module in the file.
    UnknownCell {
        /// The unresolvable cell type.
        what: String,
    },
    /// A connection's bit width disagrees with the pin it drives.
    WidthMismatch {
        /// Cell kind (or module) being connected.
        cell: String,
        /// The offending pin/port.
        pin: String,
        /// Width the pin declares.
        expected: usize,
        /// Width the connection supplies.
        got: usize,
    },
    /// A reference to something that does not exist: a portref naming
    /// an unknown instance or port, a design pointing at a missing
    /// cell, a connection onto an undeclared module port.
    DanglingRef {
        /// The unresolvable reference.
        what: String,
    },
    /// A net consumed by a gate or output with no driver anywhere.
    UndrivenNet {
        /// The net's flattened name.
        net: String,
    },
    /// Structurally valid input using a feature outside the supported
    /// subset.
    Unsupported {
        /// The unsupported construct.
        what: String,
    },
    /// The lowered design violated a netlist invariant (multiple
    /// drivers, combinational cycle, ...).
    Netlist(NetlistError),
    /// Technology mapping of the generic-gate path failed.
    Synth(SynthError),
    /// The design file could not be read.
    Io {
        /// Path that failed.
        path: String,
        /// The I/O error text.
        what: String,
    },
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Syntax { what } => write!(f, "syntax error: {what}"),
            FrontendError::UnknownCell { what } => write!(f, "unknown cell {what:?}"),
            FrontendError::WidthMismatch {
                cell,
                pin,
                expected,
                got,
            } => write!(
                f,
                "width mismatch on {cell}.{pin}: pin is {expected} bit(s), connection has {got}"
            ),
            FrontendError::DanglingRef { what } => write!(f, "dangling reference: {what}"),
            FrontendError::UndrivenNet { net } => write!(f, "net {net:?} has no driver"),
            FrontendError::Unsupported { what } => write!(f, "unsupported construct: {what}"),
            FrontendError::Netlist(e) => write!(f, "lowered design invalid: {e}"),
            FrontendError::Synth(e) => write!(f, "generic-gate mapping failed: {e}"),
            FrontendError::Io { path, what } => write!(f, "cannot read {path:?}: {what}"),
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<NetlistError> for FrontendError {
    fn from(e: NetlistError) -> FrontendError {
        FrontendError::Netlist(e)
    }
}

impl From<SynthError> for FrontendError {
    fn from(e: SynthError) -> FrontendError {
        FrontendError::Synth(e)
    }
}

pub(crate) fn syntax(what: impl Into<String>) -> FrontendError {
    FrontendError::Syntax { what: what.into() }
}

pub(crate) fn dangling(what: impl Into<String>) -> FrontendError {
    FrontendError::DanglingRef { what: what.into() }
}
