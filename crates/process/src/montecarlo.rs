//! Monte-Carlo chip-speed populations.
//!
//! Sampling is lot-parallel: manufacturing lots are statistically
//! independent, so each lot draws its stream from a seed split off the
//! population seed by lot index ([`asicgap_exec::split_seed`]) and the
//! lots are generated concurrently on the workspace pool. Because every
//! lot's draws depend only on `(seed, lot index)` and lots are
//! concatenated in index order before the final sort (or, for a single
//! [`ChipPopulation::sampled_quantile`], the selection), the population
//! is bit-for-bit identical at any `ASICGAP_THREADS` setting.

use asicgap_exec::{split_seed, Pool};
use asicgap_tech::Rng64;

use crate::components::VariationComponents;
use crate::within_die::WithinDieModel;

/// Wafers per manufacturing lot.
const WAFERS_PER_LOT: usize = 25;
/// Dies per wafer.
const DIES_PER_WAFER: usize = 200;
/// Dies per lot — the parallel work unit of [`ChipPopulation::sample`].
const DIES_PER_LOT: usize = WAFERS_PER_LOT * DIES_PER_WAFER;

/// A sampled population of chip speeds (relative to nominal = 1.0),
/// stored sorted ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipPopulation {
    speeds: Vec<f64>,
}

impl ChipPopulation {
    /// Samples `n` chips. Lots of 25 wafers, 200 die per wafer, share
    /// their lot/wafer draws — so the hierarchy is real, not just a wider
    /// normal. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn sample(components: &VariationComponents, n: usize, seed: u64) -> ChipPopulation {
        Self::sorted(Self::draw(components, n, seed))
    }

    /// `sample(components, n, seed).quantile(q)` to the bit, without the
    /// population: the same chips are drawn in the same lot order and the
    /// one order statistic is selected under the same comparison, so only
    /// the full sort is skipped.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `q` is outside `[0, 1]`.
    pub fn sampled_quantile(components: &VariationComponents, n: usize, seed: u64, q: f64) -> f64 {
        let mut speeds = Self::draw(components, n, seed);
        let idx = quantile_index(speeds.len(), q);
        *speeds.select_nth_unstable_by(idx, by_speed).1
    }

    /// `n` chips of the default within-die model, in lot order (unsorted).
    fn draw(components: &VariationComponents, n: usize, seed: u64) -> Vec<f64> {
        Self::draw_lots(n, seed, components, |rng, lot_wafer| {
            let die = rng.gauss() * components.die_sigma;
            // Within-die: the worst of several path draws only slows
            // the chip.
            let wid = rng.gauss().abs() * components.within_die_sigma;
            (lot_wafer + die - wid).exp()
        })
    }

    /// Samples `n` chips with an explicit many-critical-paths within-die
    /// model (big dies pay the extreme-value penalty of their path count;
    /// see [`WithinDieModel`]). The hierarchy's own `within_die_sigma` is
    /// ignored in favour of the model.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn sample_with_paths(
        components: &VariationComponents,
        within_die: &WithinDieModel,
        n: usize,
        seed: u64,
    ) -> ChipPopulation {
        Self::sorted(Self::draw_lots(n, seed, components, |rng, lot_wafer| {
            let die = rng.gauss() * components.die_sigma;
            let wid = within_die.sample(rng);
            (lot_wafer + die).exp() * wid
        }))
    }

    /// The shared lot-parallel drawing skeleton: `n` speeds in lot order.
    /// `die_speed` draws one die given the summed lot+wafer offset; it
    /// must use only the passed RNG, so each lot's stream is a pure
    /// function of its split seed and the draw is schedule-independent.
    fn draw_lots(
        n: usize,
        seed: u64,
        components: &VariationComponents,
        die_speed: impl Fn(&mut Rng64, f64) -> f64 + Sync,
    ) -> Vec<f64> {
        assert!(n > 0, "population must be non-empty");
        let lots = n.div_ceil(DIES_PER_LOT);
        let per_lot = Pool::from_env().run(lots, |lot_index| {
            let mut rng = Rng64::new(split_seed(seed, lot_index as u64));
            let mut lot_speeds = Vec::with_capacity(DIES_PER_LOT);
            let lot = rng.gauss() * components.lot_sigma;
            for _wafer in 0..WAFERS_PER_LOT {
                let wafer = rng.gauss() * components.wafer_sigma;
                for _die in 0..DIES_PER_WAFER {
                    lot_speeds.push(die_speed(&mut rng, lot + wafer));
                }
            }
            lot_speeds
        });
        // Ordered reduction: lots concatenate in index order before the
        // truncation, so the draw never depends on which worker finished
        // first.
        per_lot.into_iter().flatten().take(n).collect()
    }

    /// The population of drawn `speeds`: sorted ascending.
    fn sorted(mut speeds: Vec<f64>) -> ChipPopulation {
        speeds.sort_by(by_speed);
        ChipPopulation { speeds }
    }

    /// Number of chips.
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// `true` if empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.speeds.is_empty()
    }

    /// The `q`-quantile speed (0 = slowest chip, 1 = fastest).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        self.speeds[quantile_index(self.speeds.len(), q)]
    }

    /// Median speed.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of chips at least as fast as `speed` (the yield of a bin
    /// with that floor).
    pub fn yield_at(&self, speed: f64) -> f64 {
        let below = self.speeds.partition_point(|&s| s < speed);
        (self.speeds.len() - below) as f64 / self.speeds.len() as f64
    }

    /// Multiplies every speed by `factor` (foundry offset, maturity gain).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> ChipPopulation {
        ChipPopulation {
            speeds: self.speeds.iter().map(|s| s * factor).collect(),
        }
    }
}

/// The one order on chip speeds (all finite), slowest first.
fn by_speed(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("speeds are finite")
}

/// Index of the `q`-quantile among `len` ascending speeds.
fn quantile_index(len: usize, q: f64) -> usize {
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
    ((len - 1) as f64 * q).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The new process fully matured.
    fn mature() -> VariationComponents {
        let new = VariationComponents::new_process();
        crate::MaturityModel::default().components_at(&new, f64::INFINITY)
    }

    fn pop() -> ChipPopulation {
        ChipPopulation::sample(&VariationComponents::new_process(), 20_000, 6)
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = ChipPopulation::sample(&VariationComponents::new_process(), 1000, 42);
        let b = ChipPopulation::sample(&VariationComponents::new_process(), 1000, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn sampled_quantile_is_the_population_quantile_to_the_bit() {
        // A multiple of the 5000-die lot, not a multiple, and under one lot.
        for n in [10_000, 20_000, 12_345, 777, 1] {
            for seed in [0, 6, 42, 0xdead_beef] {
                for components in [VariationComponents::new_process(), mature()] {
                    let population = ChipPopulation::sample(&components, n, seed);
                    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
                        let sampled = ChipPopulation::sampled_quantile(&components, n, seed, q);
                        assert_eq!(
                            sampled.to_bits(),
                            population.quantile(q).to_bits(),
                            "n {n} seed {seed} q {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn sampled_quantile_rejects_q_outside_unit_interval() {
        ChipPopulation::sampled_quantile(&VariationComponents::new_process(), 100, 1, 1.5);
    }

    #[test]
    fn median_near_nominal() {
        let p = pop();
        let m = p.median();
        // Within-die skews slightly slow; median lands just below 1.0.
        assert!((0.93..=1.01).contains(&m), "median {m}");
    }

    #[test]
    fn quantiles_are_monotone() {
        let p = pop();
        let qs: Vec<f64> = [0.0, 0.1, 0.5, 0.9, 1.0]
            .iter()
            .map(|&q| p.quantile(q))
            .collect();
        for w in qs.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn yield_matches_quantiles() {
        let p = pop();
        let q80 = p.quantile(0.80);
        let y = p.yield_at(q80);
        assert!((y - 0.20).abs() < 0.01, "yield at q80 is ~20%, got {y}");
    }

    #[test]
    fn big_dies_are_slower_on_average_than_small_dies() {
        // An Alpha-class die has orders of magnitude more near-critical
        // paths than a 4 mm^2 ASIC block: its median chip is slower
        // relative to nominal.
        use crate::within_die::WithinDieModel;
        let comps = VariationComponents::new_process();
        let small =
            ChipPopulation::sample_with_paths(&comps, &WithinDieModel::new(50, 0.03), 10_000, 4);
        let big = ChipPopulation::sample_with_paths(
            &comps,
            &WithinDieModel::new(50_000, 0.03),
            10_000,
            4,
        );
        assert!(big.median() < small.median());
        // And the big die's distribution is tighter in relative terms.
        let spread = |p: &ChipPopulation| p.quantile(0.95) / p.quantile(0.05);
        assert!(spread(&big) <= spread(&small) * 1.02);
    }

    #[test]
    fn mature_population_is_tighter() {
        let new = pop();
        let mature = ChipPopulation::sample(&mature(), 20_000, 7);
        let spread = |p: &ChipPopulation| p.quantile(0.95) / p.quantile(0.05);
        assert!(spread(&mature) < spread(&new));
    }
}
