//! Transistor sizing: the §6 toolbox.
//!
//! "In an ideal design, each circuit is optimally crafted from transistors
//! and each transistor is individually sized to meet the drive
//! requirements of the capacitive load it faces … Only in a custom design
//! methodology can this ideal be realized. Any current ASIC methodology
//! requires cell selection from a fixed library."
//!
//! This crate implements both sides of that comparison:
//!
//! - [`tilos_size`] — greedy sensitivity-driven **continuous** sizing in
//!   the spirit of TILOS (Fishburn & Dunlop, ICCAD '85, the paper's \[7\]):
//!   repeatedly bump the size of the critical-path gate with the best
//!   delay-reduction-per-area;
//! - [`snap_to_library`] — discretise the continuous solution onto a
//!   library's drive menu and measure the penalty (the paper's \[13\]\[11\]:
//!   "with a rich library of sizes the performance impact of discrete
//!   sizes may be 2% to 7% or less"; with two drives, ~25%).
//!
//! # Example
//!
//! ```
//! use asicgap_tech::Technology;
//! use asicgap_cells::LibrarySpec;
//! use asicgap_netlist::generators;
//! use asicgap_sizing::{tilos_size, TilosOptions};
//!
//! let tech = Technology::cmos025_asic();
//! let lib = LibrarySpec::rich().build(&tech);
//! let mult = generators::array_multiplier(&lib, 8)?;
//! let result = tilos_size(&mult, &lib, &TilosOptions::default());
//! assert!(result.speedup() > 1.05, "sizing should buy real speed");
//! # Ok::<(), asicgap_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod continuous;
mod discrete;
mod incremental;
mod tilos;

pub use discrete::{snap_to_library, SnapResult};
pub use tilos::{tilos_size, SizingResult, TilosOptions};
