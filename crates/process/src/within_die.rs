//! Within-die variation as a many-paths extreme-value effect.
//!
//! §8.1.1 lists "intra-die" variation last but it is the one that scales
//! with design size: a chip's frequency is set by the *slowest* of its
//! near-critical paths, so a design with thousands of them (a big custom
//! die) pays the expected maximum of thousands of draws — the classic
//! `σ·sqrt(2·ln N)` penalty — while a small ASIC block pays much less.

use asicgap_tech::Rng64;

/// Within-die variation over `paths` near-critical paths, each with
/// relative delay sigma `path_sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WithinDieModel {
    /// Number of near-critical paths that can set the chip's speed.
    pub paths: usize,
    /// Per-path relative delay sigma.
    pub path_sigma: f64,
}

impl WithinDieModel {
    /// Creates a model.
    ///
    /// # Panics
    ///
    /// Panics if `paths == 0` or `path_sigma < 0`.
    pub fn new(paths: usize, path_sigma: f64) -> WithinDieModel {
        assert!(paths > 0, "at least one critical path");
        assert!(path_sigma >= 0.0, "sigma cannot be negative");
        WithinDieModel { paths, path_sigma }
    }

    /// Expected speed penalty (multiplier < 1): `exp(−σ·sqrt(2·ln N))`
    /// for N > 1, `exp(−σ·E|z|)` for N = 1.
    pub fn expected_penalty(&self) -> f64 {
        let z = if self.paths == 1 {
            (2.0 / std::f64::consts::PI).sqrt() // E|N(0,1)|
        } else {
            (2.0 * (self.paths as f64).ln()).sqrt()
        };
        (-self.path_sigma * z).exp()
    }

    /// Samples one chip's within-die speed multiplier: the slowest of
    /// `paths` lognormal path draws. For large path counts the exact max
    /// is replaced by its extreme-value (Gumbel) limit,
    /// `max ≈ a_N + G/a_N` with `a_N = sqrt(2·ln N)` — indistinguishable
    /// in distribution and O(1) instead of O(N).
    pub fn sample(&self, rng: &mut Rng64) -> f64 {
        const EXACT_LIMIT: usize = 512;
        let worst = if self.paths <= EXACT_LIMIT {
            let mut worst = 0.0f64;
            for _ in 0..self.paths {
                worst = worst.max(rng.gauss().abs());
            }
            worst
        } else {
            let a = (2.0 * (self.paths as f64).ln()).sqrt();
            let u: f64 = rng.uniform_in(f64::EPSILON, 1.0);
            let gumbel = -(-u.ln()).ln();
            (a + gumbel / a).max(0.0)
        };
        (-self.path_sigma * worst).exp()
    }

    /// Samples `n` chips deterministically.
    pub fn population(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng64::new(seed);
        (0..n).map(|_| self.sample(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_paths_mean_slower_chips() {
        let small = WithinDieModel::new(10, 0.03);
        let big = WithinDieModel::new(10_000, 0.03);
        assert!(big.expected_penalty() < small.expected_penalty());
        // Both below 1 but not catastrophic.
        assert!(big.expected_penalty() > 0.8);
    }

    #[test]
    fn sampled_mean_tracks_the_closed_form() {
        let m = WithinDieModel::new(1000, 0.03);
        let pop = m.population(4000, 17);
        let mean: f64 = pop.iter().sum::<f64>() / pop.len() as f64;
        let expect = m.expected_penalty();
        assert!(
            (mean / expect - 1.0).abs() < 0.03,
            "sampled {mean:.4} vs closed-form {expect:.4}"
        );
    }

    #[test]
    fn more_paths_also_tighten_the_distribution() {
        // Extreme values concentrate: relative spread shrinks with N.
        let spread = |paths: usize| {
            let mut pop = WithinDieModel::new(paths, 0.03).population(4000, 5);
            pop.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            pop[3800] / pop[200] // p95 / p05
        };
        assert!(spread(10_000) < spread(10));
    }

    #[test]
    fn zero_sigma_is_exactly_one() {
        let m = WithinDieModel::new(500, 0.0);
        assert_eq!(m.expected_penalty(), 1.0);
        assert!(m.population(100, 1).iter().all(|&v| v == 1.0));
    }
}
