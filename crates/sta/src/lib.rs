//! Static timing analysis for `asicgap` netlists.
//!
//! "The speed of a circuit is determined by the delay of its longest
//! critical path, and the length of the critical path is a function of gate
//! delays, wiring delays, set-up and hold-times, clock-to-Q, and clock
//! skew" (§3 of the paper). This crate computes exactly those quantities
//! over a mapped [`Netlist`](asicgap_netlist::Netlist):
//!
//! - [`analyze`] — arrival times, per-path-group worst delays, the minimum
//!   feasible clock period, and the traced critical path;
//! - [`ClockSpec`] — period, skew (the ASIC-vs-custom 10%-vs-5% axis of
//!   §4.1), and jitter;
//! - [`NetParasitics`] — per-net wire capacitance and delay back-annotated
//!   by placement (§5);
//! - [`check_domino_phases`] — the §7 monotonicity discipline that explains
//!   why synthesis cannot drop domino cells into arbitrary logic.
//!
//! # Example
//!
//! ```
//! use asicgap_tech::Technology;
//! use asicgap_cells::LibrarySpec;
//! use asicgap_netlist::generators;
//! use asicgap_sta::{analyze, ClockSpec};
//!
//! let tech = Technology::cmos025_asic();
//! let lib = LibrarySpec::rich().build(&tech);
//! let adder = generators::ripple_carry_adder(&lib, 32)?;
//! let report = analyze(&adder, &lib, &ClockSpec::unconstrained(), None);
//! // An unpipelined 32-bit ripple adder is tens of FO4 deep.
//! let fo4 = report.critical_path_fo4(&tech);
//! assert!(fo4 > 30.0, "critical path {fo4} FO4");
//! # Ok::<(), asicgap_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analyze;
mod clock;
mod domino;
mod graph;
mod hold;
mod incremental;
mod parasitics;
mod report;
mod topk;

pub use analyze::{analyze, EndpointKind, PathGroup, TimingReport, OUTPUT_LOAD_UNITS};
pub use clock::ClockSpec;
pub use domino::{check_domino_phases, DominoViolation};
pub use graph::TimingGraph;
pub use hold::{check_hold, fix_hold_violations, HoldReport};
pub use incremental::{ArrivalEngine, DelayModel, IncrementalStats};
pub use parasitics::NetParasitics;
pub use report::{PathStep, TimingPath};
pub use topk::{report_timing, EndpointReport};
