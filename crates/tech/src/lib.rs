//! Process technology models, physical units, and the FO4 delay rule.
//!
//! This crate is the foundation of the `asicgap` workspace, a reproduction of
//! Chinnery & Keutzer, *Closing the Gap Between ASIC and Custom: An ASIC
//! Perspective* (DAC 2000). Everything in the paper's analysis is anchored to
//! a **process technology**: a fabrication process with given design rules,
//! effective transistor channel length (Leff), supply voltage, and
//! interconnect stack. The paper's delay currency is the **fanout-of-four
//! (FO4) inverter delay**, estimated by the rule of thumb
//!
//! > FO4 delay ≈ 0.5 · Leff ns (Leff in µm)
//!
//! (footnote 1 of the paper). This crate provides:
//!
//! - strongly typed physical units ([`Ps`], [`Ff`], [`Um`], [`Mhz`], …),
//! - the [`Technology`] description with the FO4 rule and the logical-effort
//!   time constant τ = FO4/5,
//! - process corners and their delay derates ([`ProcessCorner`]),
//! - wire parasitics per metal layer ([`WireParams`], [`WireLayer`]),
//! - the one strict reader of the workspace's canonical texts ([`text`]).
//!
//! # Example
//!
//! ```
//! use asicgap_tech::{Technology, WireLayer};
//!
//! // The 0.25 µm custom process of the Alpha 21264A / IBM PowerPC era.
//! let custom = Technology::cmos025_custom();
//! assert!((custom.fo4().as_ps() - 75.0).abs() < 1e-9); // Leff = 0.15 µm -> 75 ps
//!
//! // A typical 0.25 µm ASIC process has a longer Leff (0.18 µm -> 90 ps).
//! let asic = Technology::cmos025_asic();
//! assert!(asic.fo4() > custom.fo4());
//!
//! let r = asic.wire.r_per_um(WireLayer::Global);
//! assert!(r > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod corner;
mod error;
mod fo4;
mod hash;
pub mod rng;
mod technology;
pub mod text;
mod units;

pub use corner::ProcessCorner;
pub use error::TechError;
pub use fo4::Fo4;
pub use hash::fnv1a;
pub use rng::{Rng64, SplitMix64};
pub use technology::{Technology, WireLayer, WireParams};
pub use units::{Ff, Mhz, Mm2, Ps, Um, Volt, Watt};
