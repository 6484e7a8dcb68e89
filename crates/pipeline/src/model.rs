//! The closed-form pipeline cycle-time model.

use asicgap_tech::{Fo4, Mhz, Technology};

/// A pipelined machine in the abstract: total logic depth split over `n`
/// stages, with a per-stage sequencing-plus-skew overhead.
///
/// Cycle time: `T = logic/n · (1 + imbalance) + overhead`.
/// The unpipelined comparison point pays the overhead once:
/// `T₁ = logic + overhead` — this convention is what makes the paper's
/// numbers come out (3.8× for 5 stages at 30% overhead, 3.4× for 4 stages
/// at 20%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineModel {
    /// Total combinational depth, FO4.
    pub logic: Fo4,
    /// Number of pipeline stages.
    pub stages: usize,
    /// Absolute per-stage overhead (clk→Q + setup + skew), FO4.
    pub overhead: Fo4,
    /// Fractional stage imbalance (0 = perfectly balanced).
    pub imbalance: f64,
}

impl PipelineModel {
    /// Builds a model from absolute overheads.
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0` or `imbalance < 0`.
    pub fn new(logic: Fo4, stages: usize, overhead: Fo4, imbalance: f64) -> PipelineModel {
        assert!(stages > 0, "a pipeline needs at least one stage");
        assert!(imbalance >= 0.0, "imbalance cannot be negative");
        PipelineModel {
            logic,
            stages,
            overhead,
            imbalance,
        }
    }

    /// Builds a model from the paper's style of spec: overhead as a
    /// fraction of the final cycle ("about 30% for an ASIC design").
    ///
    /// Solves `T = logic/n + f·T` for T, then stores the absolute
    /// overhead `f·T`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1)` or `stages == 0`.
    pub fn from_overhead_fraction(logic: Fo4, stages: usize, fraction: f64) -> PipelineModel {
        assert!(
            (0.0..1.0).contains(&fraction),
            "overhead fraction {fraction} out of [0, 1)"
        );
        assert!(stages > 0, "a pipeline needs at least one stage");
        let cycle = (logic / stages as f64) / (1.0 - fraction);
        PipelineModel {
            logic,
            stages,
            overhead: cycle * fraction,
            imbalance: 0.0,
        }
    }

    /// Cycle time in FO4.
    pub fn cycle(&self) -> Fo4 {
        self.logic / self.stages as f64 * (1.0 + self.imbalance) + self.overhead
    }

    /// The unpipelined machine's cycle (logic + one overhead).
    pub fn unpipelined_cycle(&self) -> Fo4 {
        self.logic + self.overhead
    }

    /// Clock-frequency speedup over the unpipelined machine.
    pub fn speedup_vs_unpipelined(&self) -> f64 {
        self.unpipelined_cycle() / self.cycle()
    }

    /// Clock frequency in `tech`.
    pub fn frequency(&self, tech: &Technology) -> Mhz {
        self.cycle().to_frequency(tech)
    }

    /// Same machine with a different stage count.
    pub fn with_stages(&self, stages: usize) -> PipelineModel {
        PipelineModel::new(self.logic, stages, self.overhead, self.imbalance)
    }
}

#[cfg(test)]
#[allow(clippy::infinite_iter)] // PipelineModel::cycle()/Fo4::count() are not iterators
mod tests {
    use super::*;

    #[test]
    fn xtensa_arithmetic_reproduced() {
        // Xtensa: 44 FO4 cycle, 5 stages, ~30% overhead -> logic = 5 * 44
        // * 0.7 = 154 FO4; paper says "about 3.8 times faster".
        let m = PipelineModel::from_overhead_fraction(Fo4::new(154.0), 5, 0.30);
        assert!((m.cycle().count() - 44.0).abs() < 1e-9);
        let s = m.speedup_vs_unpipelined();
        assert!((s - 3.8).abs() < 0.05, "got {s}");
    }

    #[test]
    fn powerpc_arithmetic_reproduced() {
        // PowerPC: 13 FO4 cycle, 4 stages, ~20% overhead -> logic = 4 * 13
        // * 0.8 = 41.6 FO4; paper says "about 3.4 times faster".
        let m = PipelineModel::from_overhead_fraction(Fo4::new(41.6), 4, 0.20);
        assert!((m.cycle().count() - 13.0).abs() < 1e-9);
        let s = m.speedup_vs_unpipelined();
        assert!((s - 3.4).abs() < 0.05, "got {s}");
    }

    #[test]
    fn deeper_pipeline_runs_into_overhead_wall() {
        let base = PipelineModel::new(Fo4::new(100.0), 1, Fo4::new(5.0), 0.0);
        let mut prev_cycle = f64::INFINITY;
        for n in 1..=20 {
            let c = base.with_stages(n).cycle().count();
            assert!(c < prev_cycle, "cycle shrinks with depth");
            prev_cycle = c;
            // But never below the overhead floor.
            assert!(c > 5.0);
        }
        // Marginal gains collapse: 20 stages is nowhere near 20x.
        let s = base.with_stages(20).speedup_vs_unpipelined();
        assert!(s < 11.0, "overhead caps speedup at {s:.1}");
    }

    #[test]
    fn imbalance_stretches_the_cycle() {
        let balanced = PipelineModel::new(Fo4::new(120.0), 4, Fo4::new(6.0), 0.0);
        let lumpy = PipelineModel::new(Fo4::new(120.0), 4, Fo4::new(6.0), 0.25);
        assert!(lumpy.cycle() > balanced.cycle());
        // 25% imbalance on the logic term.
        let expect = 120.0 / 4.0 * 1.25 + 6.0;
        assert!((lumpy.cycle().count() - expect).abs() < 1e-9);
    }

    #[test]
    fn overhead_fraction_round_trips() {
        let m = PipelineModel::from_overhead_fraction(Fo4::new(154.0), 5, 0.30);
        assert!((m.overhead / m.cycle() - 0.30).abs() < 1e-9);
    }
}
