//! Logic synthesis: AIG optimisation and technology mapping.
//!
//! §4.2 of the paper: fast datapath structures "are not automatically
//! invoked in register-transfer level logic synthesis of ASICs", and §6:
//! the mapper can only pick from what the library offers. This crate
//! implements that toolchain step:
//!
//! - [`Aig`] — an And-Inverter Graph whose nodes live in the equivalence
//!   checker's [`asicgap_equiv::Graph`] (structural hashing, constant
//!   folding, one evaluator); the AIG adds AND depths, one-level
//!   rewriting and tree balancing (the technology-independent
//!   optimisation step);
//! - [`netlist_to_aig`] — re-entry: decompose an existing mapped netlist
//!   back into an AIG so it can be *remapped* against a different library
//!   (how the E7 library-richness comparisons keep the logic identical),
//!   expanding each cell through the checker's [`build_function`];
//! - [`map_aig`] — dynamic-programming technology mapping with phase
//!   assignment and pattern matching (NAND/NOR/AND/OR/AOI/OAI/XOR/MUX);
//! - [`select_drives_with`] — load-driven drive-strength selection at
//!   the logical-effort stage gain of 4, on ideal wires or against
//!   annotated wire caps (a live timer hands its netlist over through
//!   `TimingGraph::resize_in_bulk`);
//! - [`buffer_high_fanout`] — buffer-tree insertion on heavily loaded
//!   nets;
//! - [`rewrite_pass`] — cut-based rewriting against an NPN-canonical
//!   [`ReplacementLibrary`]; with associative-chain rebalancing, composed
//!   through [`PassPipeline`] with per-pass equivalence proofs (the §4
//!   microarchitecture/logic-depth attack);
//! - [`SynthFlow`] — the end-to-end recipe with ablation switches; it
//!   enters from a mapped netlist ([`SynthFlow::remap_from`]).
//!
//! # Example
//!
//! ```
//! use asicgap_tech::Technology;
//! use asicgap_cells::LibrarySpec;
//! use asicgap_netlist::generators;
//! use asicgap_synth::SynthFlow;
//!
//! let tech = Technology::cmos025_asic();
//! let rich = LibrarySpec::rich().build(&tech);
//! let poor = LibrarySpec::poor().build(&tech);
//! // The same adder, remapped against each library.
//! let golden = generators::ripple_carry_adder(&rich, 8)?;
//! let flow = SynthFlow::default();
//! let on_rich = flow.remap_from(&golden, &rich, &rich)?;
//! let on_poor = flow.remap_from(&golden, &rich, &poor)?;
//! assert!(on_poor.instance_count() > on_rich.instance_count());
//! # Ok::<(), asicgap_synth::SynthError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aig;
mod buffer;
mod domino_map;
mod drive;
mod error;
mod flow;
mod map;
mod pass;
mod reentry;
mod rewrite;

pub use aig::Aig;
pub use asicgap_equiv::{build_function, AigOps, Lit};
pub use buffer::buffer_high_fanout;
pub use domino_map::map_dual_rail_domino;
pub use drive::select_drives_with;
pub use error::SynthError;
pub use flow::{StageProof, SynthFlow};
pub use map::{map_aig, map_aig_seq, MapOptions};
pub use pass::{PassDelta, PassKind, PassPipeline};
pub use reentry::{netlist_to_aig, SeqBinding};
pub use rewrite::{rewrite_pass, ReplacementLibrary, RewriteOptions, RewriteStats};
