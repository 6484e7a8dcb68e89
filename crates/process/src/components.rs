//! Hierarchical variation components.
//!
//! §8.1.1: "There are several types of process variations that can occur
//! within a plant: line-to-line; wafer-to-wafer; die-to-die, and
//! intra-die." Each component is a multiplicative lognormal factor on chip
//! speed; the within-die component only ever *slows* a chip (the slowest
//! critical path governs).

/// Relative sigmas of the variation hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationComponents {
    /// Lot-to-lot (line-to-line) sigma.
    pub lot_sigma: f64,
    /// Wafer-to-wafer sigma.
    pub wafer_sigma: f64,
    /// Die-to-die sigma.
    pub die_sigma: f64,
    /// Within-die sigma (applied as a one-sided slowdown).
    pub within_die_sigma: f64,
}

impl VariationComponents {
    /// A freshly ramped process: the paper's footnote 6 infers a 30–40%
    /// speed range from Intel's initial 0.18 µm bins (533–733 MHz).
    pub fn new_process() -> VariationComponents {
        VariationComponents {
            lot_sigma: 0.055,
            wafer_sigma: 0.045,
            die_sigma: 0.06,
            within_die_sigma: 0.03,
        }
    }

    /// Root-sum-square of the die-level (two-sided) components.
    pub fn total_sigma(&self) -> f64 {
        (self.lot_sigma.powi(2) + self.wafer_sigma.powi(2) + self.die_sigma.powi(2)).sqrt()
    }

    /// Scales every component by `factor` (maturity interpolation).
    pub fn scaled(&self, factor: f64) -> VariationComponents {
        VariationComponents {
            lot_sigma: self.lot_sigma * factor,
            wafer_sigma: self.wafer_sigma * factor,
            die_sigma: self.die_sigma * factor,
            within_die_sigma: self.within_die_sigma * factor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maturity::MaturityModel;

    #[test]
    fn new_process_has_more_variation() {
        // Variation "decreases as the process matures".
        let new = VariationComponents::new_process();
        let mature = MaturityModel::default().components_at(&new, f64::INFINITY);
        assert!(new.total_sigma() > 1.5 * mature.total_sigma());
    }

    #[test]
    fn new_process_spread_matches_intel_bins() {
        // p95/p05 ratio ~ exp(2 * 1.645 * sigma): should land in the
        // 30-40% band the paper infers from the 533-733 MHz lineup.
        let sigma = VariationComponents::new_process().total_sigma();
        let spread = (2.0 * 1.645 * sigma).exp();
        assert!(
            (1.30..=1.45).contains(&spread),
            "new-process p95/p05 spread {spread:.3}"
        );
    }

    #[test]
    fn scaling_is_linear() {
        let c = VariationComponents::new_process().scaled(0.5);
        let full = VariationComponents::new_process();
        assert!((c.total_sigma() - full.total_sigma() * 0.5).abs() < 1e-12);
    }
}
