//! Floorplanning, placement, and wire back-annotation.
//!
//! Section 5 of the paper: "Wire length is obviously dependent on
//! placement, which in turn depends on floorplanning … using careful
//! floorplanning and placement to minimize wire lengths may increase
//! circuit speed by up to 25%." The paper derived that figure by comparing
//! a critical path **localized to within a module** against one
//! **distributed across a 100 mm² chip** (BACPAC simulation).
//!
//! This crate provides the machinery to rerun that comparison on real
//! netlists:
//!
//! - [`Placement`] — cell coordinates on a die, with ports on the boundary;
//! - [`anneal_placement`] — simulated-annealing HPWL minimisation;
//! - [`Floorplan`] — rectangular regions, with a
//!   [`FloorplanStrategy::Localized`] layout (all logic in one compact
//!   module) and a [`FloorplanStrategy::Spread`] layout (the design
//!   scattered over a large die, forcing chip-global hops);
//! - [`annotate`] — per-net wire cap/delay for the STA, with automatic
//!   repeater insertion on long nets;
//! - [`FloorplanStudy`] — experiment E6.
//!
//! # Example
//!
//! ```
//! use asicgap_tech::Technology;
//! use asicgap_cells::LibrarySpec;
//! use asicgap_netlist::generators;
//! use asicgap_place::FloorplanStudy;
//!
//! let tech = Technology::cmos025_asic();
//! let lib = LibrarySpec::rich().build(&tech);
//! let alu = generators::alu(&lib, 16)?;
//! let study = FloorplanStudy::run(&alu, &lib, 4, 42);
//! // Bad floorplanning costs speed; good floorplanning recovers it.
//! assert!(study.speedup() > 1.0);
//! # Ok::<(), asicgap_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anneal;
mod annotate;
mod experiment;
mod floorplan;
mod placement;
mod resize;

pub use anneal::{anneal_placement, AnnealOptions};
pub use annotate::{annotate, wire_parasitics};
pub use experiment::FloorplanStudy;
pub use floorplan::{Floorplan, FloorplanStrategy, Region};
pub use placement::Placement;
pub use resize::post_layout_resize;
