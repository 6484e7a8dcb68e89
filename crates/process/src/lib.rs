//! Process variation and accessibility: the ×1.90 factor (§8).
//!
//! The paper's §8 argues that much of the ASIC-custom gap is not design at
//! all, but *statistics and market access*: fabs produce a distribution of
//! die speeds; ASIC libraries quote the worst case of the slowest
//! qualified line, while custom vendors characterise their own silicon,
//! bin it, and ship the fast parts. This crate regenerates those numbers:
//!
//! - [`VariationComponents`] — lot/wafer/die/within-die lognormal
//!   components, with presets for new and mature processes;
//! - [`ChipPopulation`] — a seeded Monte-Carlo population of die speeds
//!   with quantile queries;
//! - [`BinningPolicy`] — worst-case quoting, speed grading, bin yields;
//! - [`Foundry`] / [`foundry_lineup`] — inter-company fab offsets (§8.1.2:
//!   20–25% spread);
//! - [`MaturityModel`] — improvement across a technology generation
//!   (Intel's 5% shrink ⇒ 18% speed, §8.1.1);
//! - [`VariationStudy`] — experiment E9, reproducing every §8 claim.
//!
//! # Example
//!
//! ```
//! use asicgap_process::VariationStudy;
//!
//! let study = VariationStudy::run(0xA51C);
//! // §8: typical silicon is 60-70% faster than the ASIC worst-case quote.
//! assert!(study.typical_over_worst_case > 1.55 && study.typical_over_worst_case < 1.75);
//! // §8: overall custom access advantage ~1.9x.
//! assert!(study.custom_access_over_asic > 1.7 && study.custom_access_over_asic < 2.1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod binning;
mod components;
mod foundry;
mod maturity;
mod montecarlo;
mod study;
mod within_die;

pub use binning::{BinningPolicy, SpeedBins};
pub use components::VariationComponents;
pub use foundry::{foundry_lineup, Foundry};
pub use maturity::MaturityModel;
pub use montecarlo::ChipPopulation;
pub use study::VariationStudy;
pub use within_die::WithinDieModel;
