//! `asicgap-frontend`: real designs into the arena IR.
//!
//! Two dependency-free readers — Yosys JSON (`write_json`) and EDIF
//! 2.0.0 — parse into one shared hierarchical [`Design`], which
//! [`lower`] flattens (instance-path names), bit-blasts, and binds
//! against a [`Library`]: exact cell-name match first, then the same
//! function at the nearest drive, with Yosys generic gates (`$and`,
//! `$mux`, `$dff`, ...) expanded through an AIG and technology-mapped. The result is an ordinary validated
//! [`Netlist`] that the full verified flow
//! (synthesis, placement, routing, STA, equivalence) consumes exactly
//! like a generator's output.
//!
//! ```
//! use asicgap_tech::Technology;
//! use asicgap_cells::LibrarySpec;
//! use asicgap_netlist::{generators, yosys_json::to_yosys_json};
//! use asicgap_frontend::{load_design, DesignFormat};
//!
//! let tech = Technology::cmos025_asic();
//! let lib = LibrarySpec::rich().build(&tech);
//! let golden = generators::counter(&lib, 4)?;
//! let text = to_yosys_json(&golden, &lib);
//! let back = load_design(DesignFormat::YosysJson, &text, &lib)?;
//! assert_eq!(back.instance_count(), golden.instance_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod edif;
mod error;
pub mod json;
mod lower;
pub mod yosys;

use std::fmt;
use std::path::Path;

use asicgap_cells::Library;
use asicgap_netlist::Netlist;

pub use error::FrontendError;
pub use lower::{lower, Design, Inst, LocalBit, LowerOptions, Module, Port, PortDir};

/// Deepest nesting the frontend follows: JSON containers, EDIF forms,
/// and module-inside-module hierarchy alike. Yosys JSON nests 8 levels
/// and EDIF netlist views about a dozen; anything deeper is a typed
/// error, so a hostile file cannot choose how deep the call stack goes.
pub const MAX_DEPTH: usize = 64;

/// The design interchange formats the frontend reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DesignFormat {
    /// Yosys `write_json` output.
    YosysJson,
    /// EDIF 2.0.0 netlist views.
    Edif,
}

impl DesignFormat {
    /// The canonical spelling, stable across releases (it participates
    /// in workload canonical keys).
    pub fn canonical(self) -> &'static str {
        match self {
            DesignFormat::YosysJson => "yosys-json",
            DesignFormat::Edif => "edif",
        }
    }

    /// Parses a format name; accepts the canonical spellings plus the
    /// obvious shorthands (`json`, `edf`).
    pub fn parse(s: &str) -> Option<DesignFormat> {
        match s {
            "yosys-json" | "yosys_json" | "json" => Some(DesignFormat::YosysJson),
            "edif" | "edf" => Some(DesignFormat::Edif),
            _ => None,
        }
    }

    /// Infers the format from a file extension (`.json`, `.edif`,
    /// `.edf`).
    pub fn from_path(path: &Path) -> Option<DesignFormat> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "json" => Some(DesignFormat::YosysJson),
            "edif" | "edf" => Some(DesignFormat::Edif),
            _ => None,
        }
    }
}

impl fmt::Display for DesignFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.canonical())
    }
}

/// Parses `text` in the given format into the shared [`Design`] IR
/// without lowering it. The design borrows `text`.
///
/// # Errors
///
/// The format reader's [`FrontendError`]s; see [`yosys::parse`] and
/// [`edif::parse`].
pub fn parse_design(format: DesignFormat, text: &str) -> Result<Design<'_>, FrontendError> {
    match format {
        DesignFormat::YosysJson => yosys::parse(text),
        DesignFormat::Edif => edif::parse(text),
    }
}

/// Parses and lowers `text` into a validated, packed netlist.
///
/// # Errors
///
/// Parse errors from the format reader, binding/width/driver errors
/// from [`lower`].
pub fn load_design(
    format: DesignFormat,
    text: &str,
    lib: &Library,
) -> Result<Netlist, FrontendError> {
    let design = parse_design(format, text)?;
    lower(&design, lib, &LowerOptions::default())
}

/// Reads a design file, inferring the format from its extension.
///
/// # Errors
///
/// [`FrontendError::Unsupported`] for an unrecognised extension,
/// [`FrontendError::Io`] if the file cannot be read, then as
/// [`load_design`].
pub fn load_file(path: &Path, lib: &Library) -> Result<Netlist, FrontendError> {
    let format = DesignFormat::from_path(path).ok_or_else(|| FrontendError::Unsupported {
        what: format!(
            "cannot infer design format from path {:?} (expected .json, .edif, or .edf)",
            path
        ),
    })?;
    let text = std::fs::read_to_string(path).map_err(|e| FrontendError::Io {
        path: path.display().to_string(),
        what: e.to_string(),
    })?;
    load_design(format, &text, lib)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_round_trip() {
        for f in [DesignFormat::YosysJson, DesignFormat::Edif] {
            assert_eq!(DesignFormat::parse(f.canonical()), Some(f));
        }
        assert_eq!(DesignFormat::parse("json"), Some(DesignFormat::YosysJson));
        assert_eq!(DesignFormat::parse("verilog"), None);
        assert_eq!(
            DesignFormat::from_path(Path::new("x/riscv_alu.json")),
            Some(DesignFormat::YosysJson)
        );
        assert_eq!(
            DesignFormat::from_path(Path::new("x/datapath.EDF")),
            Some(DesignFormat::Edif)
        );
        assert_eq!(DesignFormat::from_path(Path::new("x/a.v")), None);
    }

    #[test]
    fn load_file_reports_unknown_extensions_and_missing_files() {
        let tech = asicgap_tech::Technology::cmos025_asic();
        let lib = asicgap_cells::LibrarySpec::rich().build(&tech);
        assert!(matches!(
            load_file(Path::new("design.vhdl"), &lib),
            Err(FrontendError::Unsupported { .. })
        ));
        assert!(matches!(
            load_file(Path::new("/nonexistent/x.json"), &lib),
            Err(FrontendError::Io { .. })
        ));
    }
}
