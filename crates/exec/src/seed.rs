//! Splittable RNG seeds.
//!
//! Parallel determinism requires that the stochastic stream of a task
//! depends only on *which* task it is, never on which thread runs it or
//! when. The scheme here is the standard counter-mode split: mix the
//! base seed and the task index through SplitMix64 (the same finalizer
//! [`asicgap_tech::Rng64`] seeds itself with), which decorrelates even
//! adjacent indices into independent-looking streams.

use asicgap_tech::SplitMix64;

/// Derives the seed for task `index` of a job seeded with `base`.
///
/// Properties the workspace relies on:
/// - deterministic: a pure function of `(base, index)`;
/// - stable: part of the reproducibility contract, never to be changed
///   without regenerating every golden number;
/// - well-mixed: `split_seed(s, 0)` and `split_seed(s, 1)` share no
///   visible correlation (SplitMix64 is a bijective avalanche mix).
pub fn split_seed(base: u64, index: u64) -> u64 {
    // Advance a SplitMix64 stream to position `index + 1`. Jumping is
    // O(1): state after k steps is `base + k * GOLDEN`, and the output
    // finalizer does the mixing.
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut sm = SplitMix64::new(base.wrapping_add(GOLDEN.wrapping_mul(index)));
    sm.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_deterministic_and_index_sensitive() {
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
        assert_ne!(split_seed(42, 7), split_seed(42, 8));
        assert_ne!(split_seed(42, 7), split_seed(43, 7));
    }

    #[test]
    fn adjacent_indices_decorrelate() {
        // Streams seeded from adjacent task indices must not collide.
        use asicgap_tech::Rng64;
        let mut a = Rng64::new(split_seed(1, 0));
        let mut b = Rng64::new(split_seed(1, 1));
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }
}
