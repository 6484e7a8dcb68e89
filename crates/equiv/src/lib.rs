//! # asicgap-equiv
//!
//! Combinational equivalence checking for the workspace: the formal
//! backstop behind every netlist transformation.
//!
//! The paper's gap decomposition only means something if each
//! optimisation stage — mapping, buffering, drive selection, retiming,
//! sweeping — changes *timing* while preserving *function*. This crate
//! replaces "agreed on N random vectors" with a proof:
//!
//! 1. **Miter construction** ([`Graph`], [`build_function`]): both
//!    designs are imported into one structurally hashed And-Inverter
//!    Graph with name-shared inputs. Registers are either *cut* (Q →
//!    pseudo-input, D → pseudo-output, keyed across remaps via the
//!    `__q_<key>` net-name convention) or made *transparent* (for
//!    pipeline verification).
//! 2. **Structural discharge**: output pairs whose cones hash to the same
//!    literal are proven equal for free — this closes every
//!    drive-/buffer-only stage without touching SAT.
//! 3. **CDCL SAT** (`sat.rs`): the residue is Tseitin-encoded and
//!    decided by a small deterministic solver (two-watched literals,
//!    first-UIP learning, Luby restarts).
//! 4. **Counterexample replay**: an `Inequivalent` verdict is only
//!    reported after the diverging vector reproduces under
//!    [`asicgap_netlist::Simulator`] ([`Counterexample::confirmed`]).
//!
//! Effort counters ([`EquivEffort`]) — cones discharged structurally vs.
//! by SAT, clauses, conflicts — are deterministic and golden-pinned.
//!
//! # Example
//!
//! ```
//! use asicgap_tech::Technology;
//! use asicgap_cells::LibrarySpec;
//! use asicgap_netlist::generators;
//! use asicgap_equiv::{check_equiv, EquivResult};
//!
//! let lib = LibrarySpec::rich().build(&Technology::cmos025_asic());
//! let n = generators::carry_lookahead_adder(&lib, 8)?;
//! let report = check_equiv(&n, &lib, &n, &lib)?;
//! assert_eq!(report.result, EquivResult::Equivalent);
//! // A self-miter is discharged entirely by structural hashing.
//! assert_eq!(report.effort.sat_cones, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod check;
mod error;
mod graph;
mod miter;
mod sat;

pub use check::{
    check_equiv, check_equiv_with, checked_sweep, random_sim_equiv, random_vector, Counterexample,
    EquivEffort, EquivReport, EquivResult,
};
pub use error::EquivError;
pub use graph::{AigOps, Graph, Lit};
pub use miter::{build_function, SeqMode};

/// How much verification a flow performs at each transform boundary.
///
/// The contract:
///
/// - [`VerifyLevel::Off`]: no checking — the production-speed path.
/// - [`VerifyLevel::Sim`]: a fast random-vector smoke comparison
///   ([`random_sim_equiv`]) after each stage; divergence fails the flow
///   but agreement proves nothing.
/// - [`VerifyLevel::Full`]: a formal check ([`check_equiv`]) after each
///   stage; the flow returns per-stage [`EquivEffort`] counters, and any
///   `Inequivalent` verdict aborts with a sim-confirmed counterexample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// No verification.
    #[default]
    Off,
    /// Random-simulation smoke tier.
    Sim,
    /// Formal equivalence proof per stage.
    Full,
}

impl VerifyLevel {
    /// The level's spelling on the wire and in every canonical key.
    pub fn name(self) -> &'static str {
        match self {
            VerifyLevel::Off => "off",
            VerifyLevel::Sim => "sim",
            VerifyLevel::Full => "full",
        }
    }

    /// Parses a [`VerifyLevel::name`] spelling.
    pub fn parse(s: &str) -> Option<VerifyLevel> {
        [VerifyLevel::Off, VerifyLevel::Sim, VerifyLevel::Full]
            .into_iter()
            .find(|v| v.name() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_level_defaults_off() {
        assert_eq!(VerifyLevel::default(), VerifyLevel::Off);
    }

    #[test]
    fn verify_level_names_round_trip() {
        for v in [VerifyLevel::Off, VerifyLevel::Sim, VerifyLevel::Full] {
            assert_eq!(VerifyLevel::parse(v.name()), Some(v));
        }
        assert_eq!(VerifyLevel::parse("Full"), None);
    }
}
