//! Synthetic library generators.
//!
//! The §6 experiments compare the *same netlist* mapped against libraries of
//! different richness: "A cell library with only two drive strengths may be
//! 25% slower than an ASIC library with a rich selection of drive strengths
//! and buffer sizes, as well as dual polarities for functions". A
//! [`LibrarySpec`] captures exactly those axes — drive menu, polarity,
//! complex-gate availability, logic families, and sequential guard-banding —
//! and [`LibrarySpec::build`] expands it into a characterised [`Library`].

use asicgap_tech::Technology;

use crate::cell::LibCell;
use crate::family::LogicFamily;
use crate::function::CellFunction;
use crate::library::{Library, LibraryBuilder};
use crate::seq::SeqTiming;

/// How the sequential elements of a library are characterised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqStyle {
    /// Guard-banded ASIC flip-flops and latches.
    Asic,
    /// Hand-crafted custom flip-flops and latches.
    Custom,
}

/// A parameterised description of a standard-cell library.
#[derive(Debug, Clone, PartialEq)]
pub struct LibrarySpec {
    /// Library name.
    pub name: String,
    /// Available drive strengths, in unit-inverter multiples.
    pub drives: Vec<f64>,
    /// Offer both polarities of each paired function (NAND2 *and* AND2…).
    pub dual_polarity: bool,
    /// Offer complex gates (AOI/OAI, MUX, XOR3, MAJ3).
    pub complex_gates: bool,
    /// Maximum static-gate fan-in (2–4).
    pub max_fanin: u8,
    /// Include a domino family for monotone functions.
    pub domino: bool,
    /// Sequential characterisation style.
    pub seq_style: SeqStyle,
}

impl LibrarySpec {
    /// A rich commercial-quality ASIC library: nine drive strengths, dual
    /// polarities, complex gates, fan-in up to 4, ASIC sequential timing.
    pub fn rich() -> LibrarySpec {
        LibrarySpec {
            name: "rich-asic".to_string(),
            drives: vec![0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0],
            dual_polarity: true,
            complex_gates: true,
            max_fanin: 4,
            domino: false,
            seq_style: SeqStyle::Asic,
        }
    }

    /// A poor early-generation library: two drive strengths, single
    /// polarity (inverting gates only), no complex gates (the §6 "25%
    /// slower" comparand).
    pub fn poor() -> LibrarySpec {
        LibrarySpec {
            name: "poor-asic".to_string(),
            drives: vec![1.0, 4.0],
            dual_polarity: false,
            complex_gates: false,
            max_fanin: 3,
            domino: false,
            seq_style: SeqStyle::Asic,
        }
    }

    /// Rich library restricted to two drive strengths — isolates the drive
    /// axis from the polarity/complex-gate axes.
    pub fn two_drive() -> LibrarySpec {
        LibrarySpec {
            drives: vec![1.0, 4.0],
            name: "two-drive".to_string(),
            ..LibrarySpec::rich()
        }
    }

    /// What a custom team effectively has: a near-continuous drive menu,
    /// every gate shape, domino family, custom sequential elements.
    pub fn custom() -> LibrarySpec {
        LibrarySpec {
            name: "custom".to_string(),
            drives: geometric_drives(0.5, 24.0, 24),
            dual_polarity: true,
            complex_gates: true,
            max_fanin: 4,
            domino: true,
            seq_style: SeqStyle::Custom,
        }
    }

    /// Expands the spec into a characterised library for `tech`.
    ///
    /// # Panics
    ///
    /// Panics if the drive menu is empty or contains non-positive drives
    /// (spec bugs, not data errors).
    pub fn build(&self, tech: &Technology) -> Library {
        assert!(!self.drives.is_empty(), "library spec has no drives");
        assert!(
            self.drives.iter().all(|&d| d > 0.0),
            "drives must be positive"
        );
        let mut b = LibraryBuilder::new(self.name.clone(), tech);

        let functions = CellFunction::combinational_set(self.max_fanin, self.complex_gates);
        for f in functions {
            if !self.dual_polarity && self.skip_for_polarity(f) {
                continue;
            }
            for &x in &self.drives {
                let cell = LibCell::combinational(f, LogicFamily::StaticCmos, x, tech);
                b.add(cell).expect("generated names are unique");
            }
        }

        if self.domino {
            for f in CellFunction::combinational_set(self.max_fanin, self.complex_gates) {
                if !f.is_monotone() {
                    continue;
                }
                for &x in &self.drives {
                    let cell = LibCell::combinational(f, LogicFamily::Domino, x, tech);
                    b.add(cell).expect("generated names are unique");
                }
            }
        }

        let (ff_timing, latch_timing) = match self.seq_style {
            SeqStyle::Asic => (SeqTiming::asic_dff(tech), SeqTiming::asic_latch(tech)),
            SeqStyle::Custom => (SeqTiming::custom_dff(tech), SeqTiming::custom_latch(tech)),
        };
        for &x in &self.drives {
            b.add(LibCell::sequential(CellFunction::Dff, ff_timing, x, tech))
                .expect("generated names are unique");
            b.add(LibCell::sequential(
                CellFunction::Latch,
                latch_timing,
                x,
                tech,
            ))
            .expect("generated names are unique");
        }

        b.build()
    }

    /// A single-polarity library is the NAND/NOR-era minimum: inverter,
    /// NANDs, and NORs only. Everything else must be decomposed by the
    /// netlist builder — the structural cost §6 attributes to poor
    /// libraries.
    fn skip_for_polarity(&self, f: CellFunction) -> bool {
        !matches!(
            f,
            CellFunction::Inv | CellFunction::Nand(_) | CellFunction::Nor(_)
        )
    }
}

/// `n` geometrically spaced drives from `lo` to `hi` inclusive.
fn geometric_drives(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && lo > 0.0 && hi > lo);
    // black_box keeps LLVM from const-folding the powf chain: the
    // compile-time apfloat result differs from libm's runtime result in
    // the last ulp, which would make the drive menu — and every
    // canonical scenario key that serializes it — differ between debug
    // and release builds.
    let ratio = std::hint::black_box(hi / lo).powf(1.0 / (n as f64 - 1.0));
    (0..n).map(|i| lo * ratio.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::cmos025_asic()
    }

    #[test]
    fn rich_has_dual_polarity_poor_does_not() {
        assert!(LibrarySpec::rich().build(&tech()).has_dual_polarity());
        assert!(!LibrarySpec::poor().build(&tech()).has_dual_polarity());
    }

    #[test]
    fn poor_library_is_much_smaller() {
        let rich = LibrarySpec::rich().build(&tech());
        let poor = LibrarySpec::poor().build(&tech());
        assert!(rich.len() > 3 * poor.len());
    }

    #[test]
    fn custom_library_has_domino_and_cells() {
        let lib = LibrarySpec::custom().build(&tech());
        assert!(lib.has_function(CellFunction::And(2), LogicFamily::Domino));
        assert!(lib.has_function(CellFunction::Or(3), LogicFamily::Domino));
        // Domino never offers non-monotone functions.
        assert!(!lib.has_function(CellFunction::Nand(2), LogicFamily::Domino));
        assert!(!lib.has_function(CellFunction::Xor2, LogicFamily::Domino));
    }

    #[test]
    fn two_drive_keeps_functions_but_limits_drives() {
        let lib = LibrarySpec::two_drive().build(&tech());
        assert!(lib.has_function(CellFunction::Aoi21, LogicFamily::StaticCmos));
        assert_eq!(
            lib.drives_for(CellFunction::Nand(2), LogicFamily::StaticCmos)
                .len(),
            2
        );
    }

    #[test]
    fn geometric_drives_cover_range() {
        let d = geometric_drives(0.5, 24.0, 24);
        assert_eq!(d.len(), 24);
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[23] - 24.0).abs() < 1e-9);
        for w in d.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn all_libraries_have_sequential_cells() {
        for spec in [
            LibrarySpec::rich(),
            LibrarySpec::poor(),
            LibrarySpec::custom(),
        ] {
            let lib = spec.build(&tech());
            assert!(lib.smallest(CellFunction::Dff).is_some(), "{}", lib.name);
            assert!(lib.smallest(CellFunction::Latch).is_some(), "{}", lib.name);
        }
    }

    #[test]
    fn custom_sequentials_are_faster() {
        let custom = LibrarySpec::custom().build(&tech());
        let asic = LibrarySpec::rich().build(&tech());
        let t = |lib: &Library| {
            let id = lib.smallest(CellFunction::Dff).expect("dff exists");
            lib.cell(id)
                .kind
                .seq_timing()
                .expect("dff has timing")
                .cycle_overhead()
        };
        assert!(t(&custom) < t(&asic) * 0.5);
    }
}
