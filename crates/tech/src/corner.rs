//! Process corners and their delay derates.
//!
//! Section 8 of the paper hinges on the difference between what a fab
//! *produces* (a distribution of die speeds) and what an ASIC library
//! *quotes* (the worst-case corner of the slowest qualified line). ASIC
//! designers sign off at [`ProcessCorner::SlowSlow`] with low voltage and
//! high temperature; custom designers characterise their own silicon and
//! ship parts binned near the typical or fast corner.

/// A process corner: where within the manufacturing distribution the
/// transistor parameters are assumed to sit for sign-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessCorner {
    /// Slow NMOS, slow PMOS: the worst-case corner ASIC libraries quote.
    SlowSlow,
    /// Nominal process parameters.
    #[default]
    Typical,
    /// Fast NMOS, fast PMOS: the best silicon a line produces.
    FastFast,
}

impl ProcessCorner {
    /// Multiplier applied to nominal gate delay at this corner.
    ///
    /// Calibrated to the paper's §8 numbers: typical silicon is "60% to 70%
    /// faster than the worst case speeds quoted by ASIC library estimates",
    /// i.e. worst-case delay ≈ 1.65× typical; and the fastest parts are
    /// "20% to 40% faster" than typical parts of a mature line, i.e.
    /// fast-corner delay ≈ 1/1.3 of typical.
    pub fn delay_derate(self) -> f64 {
        match self {
            ProcessCorner::SlowSlow => 1.65,
            ProcessCorner::Typical => 1.0,
            ProcessCorner::FastFast => 1.0 / 1.30,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_derates_ordered() {
        assert!(ProcessCorner::FastFast.delay_derate() < ProcessCorner::Typical.delay_derate());
        assert!(ProcessCorner::Typical.delay_derate() < ProcessCorner::SlowSlow.delay_derate());
    }

    #[test]
    fn slow_corner_matches_paper_range() {
        // Worst-case quote 60-70% below typical speed: derate in [1.6, 1.7].
        let d = ProcessCorner::SlowSlow.delay_derate();
        assert!((1.6..=1.7).contains(&d));
    }
}
