//! Interconnect delay modelling: distributed RC, repeaters, wire sizing.
//!
//! Section 5 of the paper: "Wire-delays associated with 'global' wires
//! between physical modules can be a dominant portion of the total path
//! delay. The delay associated with wires depends on the length of the
//! wire, the width and aspect ratios of the wire, and on proper driving of
//! the wire. Proper driving of a wire depends on sizing of drivers and
//! insertion of repeaters, but the primary factor in wire delay is wire
//! length."
//!
//! The paper's own wire numbers came from **BACPAC**, Sylvester's
//! Berkeley Advanced Chip Performance Calculator — an analytical RC /
//! repeater model. That tool is long gone; this crate re-implements the
//! same physics:
//!
//! - [`Wire`]: a wire segment with per-layer R/C from the
//!   [`Technology`](asicgap_tech::Technology) and an optional width
//!   multiplier (§6's wire sizing);
//! - the Elmore delay of driver + distributed wire + load, and the best
//!   of it over driver sizing (`elmore.rs`);
//! - [`RepeaterPlan`]: closed-form optimal repeater count/size and the
//!   resulting delay.
//!
//! # Example
//!
//! ```
//! use asicgap_tech::{Technology, Um, WireLayer};
//! use asicgap_wire::{RepeaterPlan, Wire};
//!
//! let tech = Technology::cmos025_asic();
//! // A 10 mm chip-crossing global wire.
//! let wire = Wire::new(Um::from_mm(10.0), WireLayer::Global);
//! let plan = RepeaterPlan::optimal(&tech, &wire);
//! // Repeaters keep the crossing to a handful of FO4s instead of hundreds.
//! assert!(plan.total_delay / tech.fo4() < 15.0);
//! assert!(plan.count >= 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod elmore;
mod htree;
mod repeater;
mod segment;
mod study;

pub use htree::{ClockTree, CtsQuality};
pub use repeater::RepeaterPlan;
pub use segment::{layer_for_length, Wire};
pub use study::{wire_delay_curve, wire_scaling_study, ScalingRow, WireStudyRow};

/// Ω · fF → ps conversion (1 Ω·fF = 10⁻³ ps).
pub(crate) const OHM_FF_TO_PS: f64 = 1.0e-3;
