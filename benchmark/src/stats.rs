//! Order statistics over latency samples.
//!
//! A failed or refused operation is recorded as `f64::INFINITY`: it counts
//! as missing every latency percentile instead of silently shrinking the
//! sample.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Smallest cell a p95 may be reported from: 5% of 200 is `MIN_BEYOND`.
pub const MIN_P95_SAMPLES: usize = 200;

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank over an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its `q`-quantile.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// Median of a small set of per-trial statistics.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Whether a sample of `n` supports the `q`-quantile: at least
/// [`MIN_BEYOND`] samples must lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    let rank = (q * n as f64).ceil() as usize;
    n >= rank + MIN_BEYOND
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.95), 95.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 needs 200 samples: rank 190, ten beyond.
        assert!(supports(MIN_P95_SAMPLES, 0.95));
        assert!(!supports(MIN_P95_SAMPLES - 1, 0.95));
        // p99 needs 1000, p50 needs 20.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        // 150 samples carry a p50 and nothing above; 250 carry a p95.
        assert!(supports(150, 0.5) && !supports(150, 0.95));
        assert!(supports(250, 0.95) && !supports(250, 0.99));
    }

    #[test]
    fn a_failed_op_misses_every_percentile() {
        let mut v = vec![1.0; 99];
        v.push(f64::INFINITY);
        assert_eq!(quantile(&mut v, 0.5), 1.0);
        assert!(quantile(&mut v, 1.0).is_infinite());
        let mut half = vec![1.0, f64::INFINITY, f64::INFINITY];
        assert!(quantile(&mut half, 0.5).is_infinite());
    }
}
