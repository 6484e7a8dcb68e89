//! Gate-level netlists: data structures, builders, generators, simulation.
//!
//! The paper's analysis operates on mapped gate-level designs — "typical
//! ASIC designs may have no pipelining and significantly longer critical
//! paths" (§4). To measure anything we need netlists that look like what a
//! synthesis tool emits: cells from a [`Library`](asicgap_cells::Library)
//! wired by nets, with primary inputs/outputs and a single clock domain.
//!
//! This crate provides:
//!
//! - [`Netlist`] with its [`NetRef`]/[`InstRef`] views — the mapped-design
//!   representation used by the STA, placement, sizing, and pipelining
//!   crates, stored as a compact arena (32-byte instance records with
//!   inline fan-in, interned names, CSR-style sink lists) so hot
//!   traversals walk contiguous memory;
//! - [`NetlistBuilder`] — safe construction with **library-aware fallbacks**
//!   (an XOR becomes one `xor2` cell in a rich library and four NAND2s in a
//!   poor one, so library richness changes logic depth exactly as §6 argues);
//! - [`generators`] — the datapath workloads of the paper's world: ripple /
//!   carry-lookahead / carry-select / Kogge-Stone adders, an array
//!   multiplier, barrel shifter, ALU, comparators, random logic;
//! - [`Simulator`] — functional simulation used to verify generators and to
//!   check that transformations (mapping, sizing, pipelining) preserve
//!   behaviour.
//!
//! # Example
//!
//! ```
//! use asicgap_tech::Technology;
//! use asicgap_cells::LibrarySpec;
//! use asicgap_netlist::{generators, Simulator};
//!
//! let tech = Technology::cmos025_asic();
//! let lib = LibrarySpec::rich().build(&tech);
//! let adder = generators::ripple_carry_adder(&lib, 8)?;
//!
//! let mut sim = Simulator::new(&adder, &lib);
//! let sum = generators::adder_io::apply(&mut sim, 8, 100, 27, false);
//! assert_eq!(sum, 127);
//! # Ok::<(), asicgap_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
pub mod canon;
pub mod cuts;
mod error;
pub mod generators;
mod ids;
mod intern;
mod netlist;
mod power;
mod sim;
mod stats;
mod sweep;
mod validate;
pub mod verilog;
pub mod yosys_json;

pub use builder::NetlistBuilder;
pub use error::NetlistError;
pub use ids::{InstId, NetId};
pub use netlist::{InstRef, NetDriver, NetRef, Netlist, Sink, INLINE_FANIN};
pub use power::{estimate_power, PowerEstimate};
pub use sim::Simulator;
pub use sim::{from_bits, to_bits};
pub use stats::{
    depth_histogram, format_depth_histogram, net_levels, MemoryFootprint, NetlistStats,
};
pub use sweep::{sweep_dead_logic, SweepStats};
pub use validate::{validate, Issue};
