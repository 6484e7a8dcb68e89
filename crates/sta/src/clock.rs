//! Clock constraints: period, skew, jitter.

use asicgap_tech::{Mhz, Ps};

/// A single-domain clock constraint.
///
/// §4.1: "There is typically 10% clock skew or more for ASICs, compared
/// with about 5% clock skew for a high quality custom design of clocking
/// trees. The 600 MHz Alpha 21264 has 75 ps global clock skew, or about
/// 5%."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockSpec {
    /// Clock period.
    pub period: Ps,
    /// Worst-case launch-vs-capture skew, subtracted from the cycle.
    pub skew: Ps,
    /// Cycle-to-cycle jitter / extra uncertainty, also subtracted.
    pub jitter: Ps,
}

impl ClockSpec {
    /// A very long period with zero skew — used to *measure* delays rather
    /// than check them.
    pub fn unconstrained() -> ClockSpec {
        ClockSpec {
            period: Ps::from_ns(1000.0),
            skew: Ps::ZERO,
            jitter: Ps::ZERO,
        }
    }

    /// A clock at `period` with skew expressed as a fraction of the period
    /// (0.10 for a typical ASIC tree, 0.05 for a custom tree).
    ///
    /// # Panics
    ///
    /// Panics if `skew_fraction` is not in `[0, 0.5)`.
    pub fn with_skew_fraction(period: Ps, skew_fraction: f64) -> ClockSpec {
        assert!(
            (0.0..0.5).contains(&skew_fraction),
            "skew fraction {skew_fraction} out of range"
        );
        ClockSpec {
            period,
            skew: period * skew_fraction,
            jitter: Ps::ZERO,
        }
    }

    /// ASIC-quality clocking at `freq`: 10% skew.
    pub fn asic(freq: Mhz) -> ClockSpec {
        ClockSpec::with_skew_fraction(freq.period(), 0.10)
    }

    /// Custom-quality clocking at `freq`: 5% skew (Alpha-class tree).
    pub fn custom(freq: Mhz) -> ClockSpec {
        ClockSpec::with_skew_fraction(freq.period(), 0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_skew_is_about_five_percent() {
        // 600 MHz, 75 ps skew -> 4.5%.
        let period = Mhz::new(600.0).period();
        let spec = ClockSpec::custom(Mhz::new(600.0));
        let frac = spec.skew / period;
        assert!((frac - 0.05).abs() < 1e-9);
        // The paper's datum: 75 ps at 600 MHz is ~5%.
        assert!((Ps::new(75.0) / period - 0.045).abs() < 0.001);
    }

    #[test]
    fn asic_skew_double_custom() {
        let f = Mhz::new(250.0);
        assert!((ClockSpec::asic(f).skew / ClockSpec::custom(f).skew - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn absurd_skew_rejected() {
        let _ = ClockSpec::with_skew_fraction(Ps::new(1000.0), 0.6);
    }
}
