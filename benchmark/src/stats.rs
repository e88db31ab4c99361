//! Exact order statistics over raw samples. Nothing here buckets: a
//! result must never be decided by a histogram's bucket width.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of an ascending slice: the smallest
/// sample with at least `q` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps a product that is a whole number up to float
    // rounding (0.999 × 10 000) from being pushed to the next rank.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether the `q`-quantile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it, the condition for reporting it.
pub fn reportable(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// Median of unsorted values (mean of the middle two when even).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    values.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_an_exact_order_statistic() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&s, 0.5), 50);
        assert_eq!(quantile(&s, 0.99), 99);
        assert_eq!(quantile(&s, 0.999), 100);
        assert_eq!(quantile(&s, 1.0), 100);
        assert_eq!(quantile(&s, 0.001), 1);
        // Always a sample that was observed, never an interpolation.
        let t = [3u64, 7, 1000];
        assert_eq!(quantile(&t, 0.5), 7);
        assert_eq!(quantile(&t, 0.67), 1000);
        assert_eq!(quantile(&[42u64], 0.99), 42);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // P99 of 1000 samples is rank 990: exactly 10 beyond.
        assert!(reportable(1000, 0.99));
        assert!(!reportable(999, 0.99));
        // P99.9 needs 10 000.
        assert!(reportable(10_000, 0.999));
        assert!(!reportable(9_999, 0.999));
        assert!(reportable(20, 0.5));
        assert!(!reportable(19, 0.5));
        assert!(!reportable(0, 0.5));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
