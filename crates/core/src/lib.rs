//! # asicgap
//!
//! A full reproduction of **Chinnery & Keutzer, *Closing the Gap Between
//! ASIC and Custom: An ASIC Perspective* (DAC 2000)** — including the EDA
//! substrate the paper presumes: standard-cell libraries, netlists,
//! static timing analysis, logic synthesis, placement, wire/repeater
//! models, transistor sizing, pipelining, and process-variation Monte
//! Carlo, all built from scratch in Rust.
//!
//! The paper decomposes the 6–8× clock-speed gap between custom ICs and
//! ASICs in the same 0.25 µm process into five multiplicative factors:
//!
//! | factor | maximum |
//! |---|---|
//! | micro-architecture / pipelining | ×4.00 |
//! | floorplanning & placement | ×1.25 |
//! | sizing & circuit design | ×1.25 |
//! | dynamic logic | ×1.50 |
//! | process variation & accessibility | ×1.90 |
//!
//! This crate ties the substrates together:
//!
//! - [`GapFactor`] / [`FactorTable`] — the paper's decomposition and its
//!   §9 residual arithmetic;
//! - [`chips`] — the published chip data the paper anchors on (Alpha
//!   21264A, IBM 1 GHz PowerPC, Tensilica Xtensa, "typical" ASICs);
//! - [`DesignScenario`] / [`run_scenario`] — end-to-end *measured* flows:
//!   the same RTL workload pushed through an ASIC methodology and a
//!   custom methodology, so the gap emerges from the tools rather than
//!   being assumed;
//! - re-exports of every substrate crate under short names
//!   ([`tech`], [`cells`], [`netlist`], [`sta`], [`wire`], [`place`],
//!   [`route`], [`synth`], [`sizing`], [`pipeline`], [`process`]).
//!
//! # Quickstart
//!
//! ```
//! use asicgap::chips;
//! use asicgap::gap::FactorTable;
//!
//! // The paper's own factor table multiplies out to ~18x.
//! let table = FactorTable::paper_maxima();
//! assert!((table.combined() - 17.8).abs() < 0.2);
//!
//! // And the observed silicon gap is 6-8x.
//! let gap = chips::observed_gap();
//! assert!(gap.min_ratio > 5.0 && gap.max_ratio < 9.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod canon;
pub mod chips;
mod close;
mod error;
mod factors;
mod flow;
pub mod gap;
pub mod report;
mod stage;

pub use asicgap_autopilot::{ClosureTarget, ConvergenceTrace, Verdict};
pub use asicgap_equiv::{EquivEffort, EquivReport, EquivResult, VerifyLevel};
pub use close::{close_canonical_key, close_timing_grid, ClosureOutcome};
pub use error::GapError;
pub use factors::GapFactor;
pub use flow::{
    canonical_key, content_hash, domino_speed_ratio, run_scenario, run_scenario_observed,
    run_scenario_verified, run_scenarios, run_scenarios_verified, DesignScenario, FloorplanQuality,
    FlowObserver, FlowStage, LogicStyle, NoObserver, ProcessAccess, ScenarioOutcome, SizingQuality,
    WireModel, WorkloadSpec,
};
pub use gap::FactorTable;
pub use stage::{
    close_timing_staged, close_timing_staged_cancellable, run_scenario_staged,
    run_scenario_staged_observed, ArtifactStore, MemStore, PipelineArtifact, PlaceArtifact,
    RouteArtifact, StageReuse, SynthArtifact,
};

/// Technology models, units, FO4 rule (re-export of `asicgap-tech`).
pub use asicgap_tech as tech;

/// Deterministic parallel execution engine (re-export of `asicgap-exec`).
pub use asicgap_exec as exec;

/// Standard-cell libraries (re-export of `asicgap-cells`).
pub use asicgap_cells as cells;

/// Netlists, builders, generators, simulation (re-export of
/// `asicgap-netlist`).
pub use asicgap_netlist as netlist;

/// Static timing analysis (re-export of `asicgap-sta`).
pub use asicgap_sta as sta;

/// Combinational equivalence checking (re-export of `asicgap-equiv`).
pub use asicgap_equiv as equiv;

/// Wire RC / repeater models (re-export of `asicgap-wire`).
pub use asicgap_wire as wire;

/// Floorplanning and placement (re-export of `asicgap-place`).
pub use asicgap_place as place;

/// Congestion-aware global routing and RC extraction (re-export of
/// `asicgap-route`).
pub use asicgap_route as route;

/// Logic synthesis and technology mapping (re-export of `asicgap-synth`).
pub use asicgap_synth as synth;

/// Yosys-JSON / EDIF ingestion into the arena IR (re-export of
/// `asicgap-frontend`).
pub use asicgap_frontend as frontend;

/// Transistor sizing (re-export of `asicgap-sizing`).
pub use asicgap_sizing as sizing;

/// Pipelining (re-export of `asicgap-pipeline`).
pub use asicgap_pipeline as pipeline;

/// Process variation and binning (re-export of `asicgap-process`).
pub use asicgap_process as process;

/// Closed-loop timing-closure ECO engine (re-export of
/// `asicgap-autopilot`).
pub use asicgap_autopilot as autopilot;
