//! Pipelining: the ×4.00 factor, the largest in the paper's decomposition.
//!
//! §4: "Pipelines place additional latches or registers in long chains of
//! logic, reducing the length of the critical path … the Tensilica
//! pipelined ASIC processor with five stages is about 3.8 times faster due
//! to pipelining … the IBM PowerPC processor with four pipeline stages is
//! about 3.4 times faster."
//!
//! Four views of the same mechanism:
//!
//! - [`PipelineModel`] — the closed-form cycle-time model that reproduces
//!   the paper's 3.8×/3.4× arithmetic exactly;
//! - [`pipeline_netlist`] — a real register-insertion pass over gate
//!   netlists (delay-balanced cuts), verified by simulation;
//! - [`borrowed_cycle`] — latch-based multi-phase time borrowing, the
//!   §4.1 technique "ASIC tools have problems with";
//! - [`PipelineTradeoff`] — the §4.1 depth-vs-hazards trade-off ("there is
//!   a trade-off between issuing more instructions simultaneously and the
//!   penalties for branch misprediction and data hazards").
//!
//! # Example
//!
//! ```
//! use asicgap_tech::Fo4;
//! use asicgap_pipeline::PipelineModel;
//!
//! // Xtensa-like: 5 stages, ~30% per-cycle overhead.
//! let m = PipelineModel::from_overhead_fraction(Fo4::new(154.0), 5, 0.30);
//! let s = m.speedup_vs_unpipelined();
//! assert!((s - 3.8).abs() < 0.1, "paper quotes ~3.8x, got {s:.2}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod borrow;
mod model;
mod retime;
mod tradeoff;

pub use analysis::borrowing_gain;
pub use borrow::{borrowed_cycle, BorrowReport};
pub use model::PipelineModel;
pub use retime::{pipeline_netlist, pipeline_netlist_with, verify_pipeline, PipelinedNetlist};
pub use tradeoff::{PipelineTradeoff, TradeoffPoint};
