//! Exact order statistics over raw samples — no buckets.
//!
//! `serve::metrics::Histogram` rounds to powers of two (every latency
//! between 65 and 131 ms reads `131071 us`), which cannot resolve a
//! 10 % bound; the harness keeps every sample and sorts.

/// Sorts samples ascending. Latencies are never NaN.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of ascending `sorted`: the middle sample, or the mean of the
/// two middle samples. 0 for no samples.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `q` of the samples at or below it. 0 for no samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `q` percentile — the number
/// the reader needs to judge how far a tail figure can be trusted (ten
/// or more is the usual floor).
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let p = percentile(sorted, q);
    sorted.iter().filter(|&&x| x > p).count()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs two samples or more.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let ld = sorted.len();
    assert!(ld >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the bounds in `BENCHMARK.json` are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let (q1, q3) = quartiles(&s);
    let m = median(&s);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(beyond(&v, 0.99), 1);

        let odd = sorted(vec![9.0, 1.0, 5.0]);
        assert_eq!(odd, [1.0, 5.0, 9.0]);
        assert_eq!(median(&odd), 5.0);
        assert_eq!(percentile(&odd, 0.9), 9.0);
        assert_eq!(percentile(&odd, 0.01), 1.0);

        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
        // Ties: nothing lies beyond a percentile that equals the maximum.
        assert_eq!(beyond(&[2.0, 2.0, 2.0], 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4)[0::2] == [1.25, 5.75]
        let s = sorted(vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]);
        assert_eq!(quartiles(&s), (1.25, 5.75));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
