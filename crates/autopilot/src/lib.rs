//! Closed-loop timing closure for `asicgap` designs.
//!
//! The gap paper's factors — microarchitecture, sizing, floorplanning,
//! wires — are each attacked *open-loop* by the flow crates: one pass,
//! one answer. Real closure is a feedback loop: look at the worst paths,
//! try targeted fixes against a live timing view, keep what helps,
//! repeat until the clock is met or the target is *proven* out of reach.
//! This crate is that loop:
//!
//! - [`ClosureTarget`] — the goal: a frequency plus a move budget;
//! - [`close_on`] — the fix loop over a warm
//!   [`TimingGraph`](asicgap_sta::TimingGraph): the 4 worst critical
//!   endpoints → candidate ECOs (resize, buffer insertion, single-net
//!   reroute; rewrite and retime as depth-reducing escalations) →
//!   undo-log dry trials → commit the best strict improvement, each
//!   committed move proven function-preserving under
//!   [`VerifyLevel::Full`](asicgap_equiv::VerifyLevel::Full);
//! - [`Verdict`] — how it ended: closed, budget-exhausted, stuck,
//!   cancelled, or [`Verdict::ProvenInfeasible`] — the depth lower bound
//!   ([`depth_lower_bound`]) exceeds the target period and no
//!   depth-reducing move helps, so infeasibility is an argument, not a
//!   timeout;
//! - [`ConvergenceTrace`] — a canonical, byte-stable, replayable record
//!   of every iteration ([`replay`] rebuilds the final netlist and
//!   checks it against [`ConvergenceTrace::netlist_hash`]).
//!
//! The loop itself is strictly sequential, so its trace is bitwise
//! identical at any `ASICGAP_THREADS`; target-frequency sweeps
//! parallelize one closure run per grid point above it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod target;
mod trace;

pub use engine::{close_on, depth_lower_bound, replay, AutopilotError, RouteContext};
pub use target::{ClosureTarget, MoveKind, Verdict};
pub use trace::{netlist_fingerprint, ConvergenceTrace, IterationRecord, MoveRecord};
