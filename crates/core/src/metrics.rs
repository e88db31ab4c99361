//! Latency metrics: exact and streaming quantiles, the paper's
//! remediation rate, and service-time histograms.

/// Exact nearest-rank `p`-quantile of a sample (copies and sorts).
///
/// # Panics
/// Panics if `xs` is empty or `p ∉ [0, 1]`.
pub fn quantile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty sample");
    assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    crate::ecdf::nearest_rank(&v, p)
}

/// The paper's *remediation rate* (§5.1, Figure 3b): among queries that
/// actually reissued, the fraction whose primary would have missed the
/// tail-latency target `t` but whose reissue responded in time, i.e.
/// `Pr(X > t ∧ Y < t − d)` estimated over issued reissues.
///
/// `pairs` holds `(primary, reissue)` response times of reissued
/// queries (reissue measured from its own dispatch at `d`).
/// Returns 0 for an empty sample.
pub fn remediation_rate(pairs: &[(f64, f64)], t: f64, d: f64) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let remedied = pairs.iter().filter(|&&(x, y)| x > t && y < t - d).count();
    remedied as f64 / pairs.len() as f64
}

/// A log-bucketed streaming histogram with a guaranteed *relative*
/// quantile error — the shared latency recorder for the scale-out
/// harness and the fan-out's per-leg recorder (which previously each
/// kept a full `Vec` of samples and sorted it per quantile probe).
///
/// Bucket boundaries grow geometrically: bucket `i` covers
/// `(m·γ^(i−1), m·γ^i]` with `γ = (1+α)/(1−α)`, and a recorded value
/// is estimated by `2γ·L/(1+γ)` of its bucket's lower edge `L`, which
/// bounds the relative error of any quantile estimate by `α`
/// (the DDSketch argument: both bucket endpoints land within
/// `(γ−1)/(γ+1) = α` of the estimate). Memory is `O(log(max/m)/α)` —
/// a few hundred `u64`s for millisecond-scale latencies at α = 1% —
/// independent of how many samples stream through.
///
/// Exact first and second moments (`mean`, `std`), the exact observed
/// `min`/`max`, and a total count ride along, so summary tables need
/// no second pass over raw samples. Two histograms with identical
/// parameters [`merge`](Self::merge) losslessly (bucket-wise sum),
/// which makes per-worker recording trivially combinable.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    alpha: f64,
    gamma: f64,
    ln_gamma: f64,
    /// Lower edge of bucket 1 (values ≤ `min_value` share bucket 0).
    min_value: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    sum_sq: f64,
    min_seen: f64,
    max_seen: f64,
}

impl LogHistogram {
    /// Creates a histogram with relative quantile accuracy `alpha`,
    /// resolving values down to `min_value` (everything at or below it
    /// shares the first bucket). For millisecond latencies the
    /// convenience constructor [`LogHistogram::latency_ms`] uses
    /// α = 1% and 1 µs resolution.
    ///
    /// # Panics
    /// Panics unless `0 < alpha < 1` and `min_value > 0`.
    pub fn new(alpha: f64, min_value: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        assert!(
            min_value > 0.0 && min_value.is_finite(),
            "min_value must be positive"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        LogHistogram {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            min_value,
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }

    /// The standard latency recorder: 1% relative quantile error, 1 µs
    /// resolution (values in milliseconds).
    pub fn latency_ms() -> Self {
        LogHistogram::new(0.01, 1e-3)
    }

    /// The configured relative quantile accuracy.
    pub fn relative_accuracy(&self) -> f64 {
        self.alpha
    }

    /// The multiplicative width of one bucket (`γ = (1+α)/(1−α)`): any
    /// estimate returned for a sample is within one such factor of it.
    pub fn bucket_ratio(&self) -> f64 {
        self.gamma
    }

    fn bucket_index(&self, v: f64) -> usize {
        if v <= self.min_value {
            return 0;
        }
        // Bucket i ≥ 1 covers (m·γ^(i−1), m·γ^i].
        ((v / self.min_value).ln() / self.ln_gamma).ceil().max(1.0) as usize
    }

    /// The value this histogram would report for a sample equal to
    /// `v` — `v` rounded to its bucket's representative point. Useful
    /// for bounding downstream effects of the bucketing (e.g. how far
    /// an optimizer fed bucket values can drift from one fed raw
    /// samples).
    pub fn round_value(&self, v: f64) -> f64 {
        let idx = self.bucket_index(v.max(0.0));
        self.estimate_for(idx)
    }

    /// Representative value of bucket `idx`: the point minimizing the
    /// worst-case relative error over the bucket's range.
    fn estimate_for(&self, idx: usize) -> f64 {
        if idx == 0 {
            return self.min_value;
        }
        let lower = self.min_value * self.gamma.powi(idx as i32 - 1);
        lower * 2.0 * self.gamma / (1.0 + self.gamma)
    }

    /// Records a value (negative values clamp into the first bucket).
    ///
    /// # Panics
    /// Panics on non-finite values.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "histogram values must be finite");
        let v = v.max(0.0);
        let idx = self.bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v;
        self.sum_sq += v * v;
        self.min_seen = self.min_seen.min(v);
        self.max_seen = self.max_seen.max(v);
    }

    /// Merges another histogram into this one (bucket-wise sum; exact
    /// and associative).
    ///
    /// # Panics
    /// Panics if the two histograms were built with different `alpha`
    /// or `min_value` (their buckets would not align).
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.alpha == other.alpha && self.min_value == other.min_value,
            "cannot merge histograms with different bucketing"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min_seen = self.min_seen.min(other.min_seen);
        self.max_seen = self.max_seen.max(other.max_seen);
    }

    /// Total recorded values.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.total > 0).then(|| self.sum / self.total as f64)
    }

    /// Exact population standard deviation (`None` when empty).
    pub fn std(&self) -> Option<f64> {
        let mean = self.mean()?;
        Some(
            (self.sum_sq / self.total as f64 - mean * mean)
                .max(0.0)
                .sqrt(),
        )
    }

    /// Exact maximum recorded value (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.total > 0).then_some(self.max_seen)
    }

    /// Exact minimum recorded value (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.total > 0).then_some(self.min_seen)
    }

    /// Nearest-rank `p`-quantile estimate: within relative error `α`
    /// of the exact sorted-sample quantile (for samples above
    /// `min_value`), clamped to the exact observed min/max. `None`
    /// when empty.
    ///
    /// # Panics
    /// Panics if `p ∉ [0, 1]`.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
        if self.total == 0 {
            return None;
        }
        let rank = ((p * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.estimate_for(idx).clamp(self.min_seen, self.max_seen));
            }
        }
        Some(self.max_seen)
    }

    /// Number of recorded values above `threshold`, at bucket
    /// resolution: exact when `threshold` is at or below `min_value`
    /// or on a bucket boundary, otherwise counts whole buckets whose
    /// range lies above the threshold's bucket.
    pub fn count_over(&self, threshold: f64) -> u64 {
        if self.total == 0 || threshold >= self.max_seen {
            return 0;
        }
        if threshold < self.min_seen {
            return self.total;
        }
        let cut = self.bucket_index(threshold.max(0.0));
        self.counts.iter().skip(cut + 1).sum()
    }
}

/// A fixed-width histogram for service-time distributions (Figure 9
/// uses 20 ms bins with a log-scale count axis).
#[derive(Clone, Debug)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` bins of `bin_width` each; values
    /// beyond `bins * bin_width` land in an overflow bucket.
    ///
    /// # Panics
    /// Panics if `bin_width ≤ 0` or `bins == 0`.
    pub fn new(bin_width: f64, bins: usize) -> Self {
        assert!(bin_width > 0.0 && bins > 0);
        Histogram {
            bin_width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
        }
    }

    /// Records a value (negative values clamp into the first bin).
    pub fn record(&mut self, v: f64) {
        self.total += 1;
        let idx = (v.max(0.0) / self.bin_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in the overflow bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Iterates `(bin_midpoint, count)` for every regular bin.
    pub fn bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| ((i as f64 + 0.5) * self.bin_width, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn quantile_basic() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&xs, 0.95), 95.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_empty_panics() {
        let _ = quantile(&[], 0.5);
    }

    #[test]
    fn remediation_counts_saves_only() {
        let t = 10.0;
        let d = 2.0;
        let pairs = [
            (12.0, 5.0), // x > t, y < 8  -> remedied
            (12.0, 9.0), // x > t, y ≥ 8  -> reissue too slow
            (7.0, 1.0),  // x ≤ t          -> reissue unnecessary
            (15.0, 7.9), // remedied
        ];
        assert!((remediation_rate(&pairs, t, d) - 0.5).abs() < 1e-12);
        assert_eq!(remediation_rate(&[], t, d), 0.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(20.0, 5); // covers [0,100)
        for v in [0.0, 19.9, 20.0, 55.0, 99.9, 100.0, 1000.0, -3.0] {
            h.record(v);
        }
        let counts: Vec<u64> = h.bins().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![3, 1, 1, 0, 1]); // -3 clamps into bin 0
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 8);
        let mids: Vec<f64> = h.bins().map(|(m, _)| m).collect();
        assert_eq!(mids, vec![10.0, 30.0, 50.0, 70.0, 90.0]);
    }

    #[test]
    fn log_histogram_empty_and_basic() {
        let mut h = LogHistogram::latency_ms();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.count_over(0.0), 0);
        for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert!((h.mean().unwrap() - 22.0).abs() < 1e-9, "exact mean");
        assert_eq!(h.max(), Some(100.0));
        assert_eq!(h.min(), Some(1.0));
        // Exact std of [1,2,3,4,100]: mean 22, var (441+400+361+324+6084)/5.
        let var = (441.0 + 400.0 + 361.0 + 324.0 + 6084.0) / 5.0f64;
        assert!((h.std().unwrap() - var.sqrt()).abs() < 1e-9);
        // Quantiles land within 1% of the exact nearest-rank values.
        for (p, exact) in [(0.2, 1.0), (0.4, 2.0), (0.6, 3.0), (0.8, 4.0), (1.0, 100.0)] {
            let est = h.quantile(p).unwrap();
            assert!(
                (est - exact).abs() <= 0.01 * exact + 1e-12,
                "p={p}: est {est} vs exact {exact}"
            );
        }
        // count_over at bucket resolution: thresholds well between
        // samples are exact.
        assert_eq!(h.count_over(0.0), 5);
        assert_eq!(h.count_over(50.0), 1);
        assert_eq!(h.count_over(100.0), 0);
        assert_eq!(h.count_over(1e9), 0);
    }

    #[test]
    fn log_histogram_round_value_is_recording_estimate() {
        let mut h = LogHistogram::latency_ms();
        for v in [0.37, 5.2, 811.0] {
            let rounded = h.round_value(v);
            assert!(
                (rounded - v).abs() <= 0.01 * v,
                "round_value({v}) = {rounded} off by more than alpha"
            );
            h.record(v);
            // A single-sample histogram's median is exactly that
            // sample: the bucket estimate clamps to the observed
            // min/max.
            let mut single = LogHistogram::latency_ms();
            single.record(v);
            assert_eq!(single.quantile(0.5).unwrap(), v);
        }
    }

    #[test]
    #[should_panic(expected = "different bucketing")]
    fn log_histogram_merge_rejects_mismatched_buckets() {
        let mut a = LogHistogram::new(0.01, 1e-3);
        let b = LogHistogram::new(0.02, 1e-3);
        a.merge(&b);
    }

    /// Satellite regression: feeding an [`OnlineAdapter`] bucket-
    /// rounded samples instead of raw ones must not move the adapted
    /// `d*` by more than one bucket width (the histogram's γ ratio) —
    /// i.e. recording latencies through the shared histogram is safe
    /// for the online re-optimization loop, not just for reporting.
    #[test]
    fn log_histogram_quantiles_feed_online_adapter_within_one_bucket() {
        use crate::online::{OnlineAdapter, OnlineConfig};
        use distributions::rng::seeded;
        use distributions::{Exponential, Sample};

        let cfg = OnlineConfig {
            k: 0.95,
            budget: 0.1,
            window: 2_000,
            reoptimize_every: 500,
            learning_rate: 0.5,
            min_pairs: usize::MAX,
            load: None,
        };
        let mut exact = OnlineAdapter::new(cfg);
        let mut bucketed = OnlineAdapter::new(cfg);
        let hist = LogHistogram::latency_ms();
        let mut rng = seeded(42);
        let d = Exponential::new(0.2); // mean 5 ms
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            exact.observe_primary(v);
            bucketed.observe_primary(hist.round_value(v));
        }
        let d_exact = exact.policy().delay;
        let d_bucketed = bucketed.policy().delay;
        assert!(d_exact > 0.0);
        let one_bucket = d_exact * (hist.bucket_ratio() - 1.0);
        assert!(
            (d_exact - d_bucketed).abs() <= one_bucket + 1e-9,
            "bucketing moved d* by more than one bucket width: \
             exact {d_exact} vs bucketed {d_bucketed} (bucket {one_bucket})"
        );
    }

    proptest! {
        #[test]
        fn log_histogram_quantile_error_bounded(
            vals in proptest::collection::vec(0.001f64..1e4, 1..400),
            p in 0.0f64..1.0,
        ) {
            let mut h = LogHistogram::latency_ms();
            for &v in &vals {
                h.record(v);
            }
            let exact = quantile(&vals, p);
            let est = h.quantile(p).unwrap();
            prop_assert!(
                (est - exact).abs() <= h.relative_accuracy() * exact + 1e-12,
                "p={} est={} exact={}", p, est, exact
            );
        }

        #[test]
        fn log_histogram_merge_associative(
            a in proptest::collection::vec(0.001f64..1e4, 0..100),
            b in proptest::collection::vec(0.001f64..1e4, 0..100),
            c in proptest::collection::vec(0.001f64..1e4, 0..100),
        ) {
            let of = |vals: &[f64]| {
                let mut h = LogHistogram::latency_ms();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            // (a ⊕ b) ⊕ c
            let mut left = of(&a);
            left.merge(&of(&b));
            left.merge(&of(&c));
            // a ⊕ (b ⊕ c)
            let mut right_tail = of(&b);
            right_tail.merge(&of(&c));
            let mut right = of(&a);
            right.merge(&right_tail);
            prop_assert_eq!(left.len(), right.len());
            prop_assert_eq!(left.counts.clone(), right.counts.clone());
            prop_assert_eq!(left.max(), right.max());
            prop_assert_eq!(left.min(), right.min());
            for i in 0..=10u32 {
                let p = f64::from(i) / 10.0;
                prop_assert_eq!(left.quantile(p), right.quantile(p));
            }
            // And the merged view matches recording everything into one
            // histogram directly.
            let all: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
            let direct = of(&all);
            prop_assert_eq!(left.counts, direct.counts);
        }

        #[test]
        fn log_histogram_conserves_mass_and_moments(
            vals in proptest::collection::vec(0.0f64..1e4, 1..300),
        ) {
            let mut h = LogHistogram::latency_ms();
            for &v in &vals {
                h.record(v);
            }
            prop_assert_eq!(h.len(), vals.len() as u64);
            prop_assert_eq!(h.counts.iter().sum::<u64>(), vals.len() as u64);
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            prop_assert!((h.mean().unwrap() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(h.max(), Some(hi));
            // count_over is monotone non-increasing and hits the exact
            // endpoints.
            prop_assert_eq!(h.count_over(hi), 0);
            let mut prev = h.len();
            for i in 0..20u32 {
                let t = f64::from(i) * 500.0;
                let c = h.count_over(t);
                prop_assert!(c <= prev);
                prev = c;
            }
        }
    }

    proptest! {
        #[test]
        fn histogram_conserves_mass(vals in proptest::collection::vec(-10.0f64..500.0, 0..300)) {
            let mut h = Histogram::new(20.0, 12);
            for &v in &vals {
                h.record(v);
            }
            let binned: u64 = h.bins().map(|(_, c)| c).sum();
            prop_assert_eq!(binned + h.overflow(), vals.len() as u64);
        }
    }
}
