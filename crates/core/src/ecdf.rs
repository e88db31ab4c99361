//! The paper's `DiscreteCDF`: a strict-`<` empirical CDF over samples.

use distributions::Cdf;

/// `|{x ∈ sorted : x < t}| / |sorted|`: the paper's `DiscreteCDF` over
/// a non-empty ascending slice.
pub(crate) fn strict_cdf(sorted: &[f64], t: f64) -> f64 {
    sorted.partition_point(|&x| x < t) as f64 / sorted.len() as f64
}

/// Nearest-rank `p`-quantile of a non-empty ascending slice,
/// `p ∈ [0, 1]`.
pub(crate) fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// An empirical CDF over response-time samples.
///
/// Implements the paper's `DiscreteCDF(R, t) = |{x ∈ R : x < t}| / |R|`
/// (Figure 1, line 21) — note the *strict* inequality, which the whole
/// `ComputeOptimalSingleR` pseudocode is written against. The
/// complementary helpers keep the same convention:
///
/// * [`Ecdf::cdf_strict`]   = `Pr(X < t)`  (the paper's `DiscreteCDF`)
/// * [`Ecdf::sf_weak`]      = `Pr(X ≥ t)`  (`1 − DiscreteCDF`)
/// * [`Cdf::cdf`] (trait)   = `Pr(X ≤ t)`  (conventional weak CDF, for
///   interop with analytic distributions)
///
/// For continuous data the two conventions agree almost surely; for
/// logs with coarse timestamps they differ at tie points and the strict
/// convention must be used inside the optimizer to reproduce the paper.
#[derive(Clone, Debug)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF; sorts the samples.
    ///
    /// # Panics
    /// Panics if `samples` is empty or contains NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "Ecdf needs at least one sample");
        assert!(
            samples.iter().all(|v| !v.is_nan()),
            "Ecdf samples must not contain NaN"
        );
        samples.sort_by(f64::total_cmp);
        Ecdf { sorted: samples }
    }

    /// Builds from already-sorted samples without re-sorting.
    ///
    /// # Panics
    /// Panics if the input is empty or not sorted.
    pub fn from_sorted(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "Ecdf needs at least one sample");
        assert!(
            samples.windows(2).all(|w| w[0] <= w[1]),
            "from_sorted input must be non-decreasing"
        );
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction requires ≥ 1 sample).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// `Pr(X < t)` — the paper's `DiscreteCDF`.
    pub fn cdf_strict(&self, t: f64) -> f64 {
        strict_cdf(&self.sorted, t)
    }

    /// `Pr(X ≥ t) = 1 − DiscreteCDF(t)`.
    pub fn sf_weak(&self, t: f64) -> f64 {
        1.0 - self.cdf_strict(t)
    }

    /// Nearest-rank `p`-quantile.
    ///
    /// # Panics
    /// Panics if `p ∉ [0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        nearest_rank(&self.sorted, p)
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

impl Cdf for Ecdf {
    /// Weak-inequality CDF `Pr(X ≤ t)` for interop with analytic
    /// distributions; the optimizer uses [`Ecdf::cdf_strict`] instead.
    fn cdf(&self, t: f64) -> f64 {
        self.sorted.partition_point(|&x| x <= t) as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn strict_vs_weak_on_ties() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.cdf_strict(2.0), 0.25); // only 1.0 is < 2.0
        assert_eq!(e.cdf(2.0), 0.75); // 1.0 and both 2.0s are ≤ 2.0
        assert_eq!(e.sf_weak(2.0), 0.75); // 2.0, 2.0, 3.0 are ≥ 2.0
    }

    #[test]
    fn from_sorted_accepts_sorted() {
        let e = Ecdf::from_sorted(vec![1.0, 1.0, 4.0]);
        assert_eq!(e.len(), 3);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn from_sorted_rejects_unsorted() {
        let _ = Ecdf::from_sorted(vec![2.0, 1.0]);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(e.quantile(0.95), 95.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert!((e.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn extremes() {
        let e = Ecdf::new(vec![5.0]);
        assert_eq!(e.cdf_strict(f64::NEG_INFINITY), 0.0);
        assert_eq!(e.cdf_strict(f64::INFINITY), 1.0);
        assert_eq!(e.cdf_strict(5.0), 0.0);
        assert_eq!(e.cdf_strict(5.0 + 1e-9), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_panics() {
        let _ = Ecdf::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_panics() {
        let _ = Ecdf::new(vec![1.0, f64::NAN]);
    }

    proptest! {
        #[test]
        fn cdf_monotone(
            vals in proptest::collection::vec(-1e3f64..1e3, 1..200),
            a in -1.1e3f64..1.1e3,
            b in -1.1e3f64..1.1e3,
        ) {
            let e = Ecdf::new(vals);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(e.cdf_strict(lo) <= e.cdf_strict(hi));
            prop_assert!(e.cdf(lo) <= e.cdf(hi));
            prop_assert!(e.cdf_strict(lo) <= e.cdf(lo));
        }

        #[test]
        fn quantile_is_inverse(
            vals in proptest::collection::vec(-1e3f64..1e3, 1..200),
            p in 0.01f64..1.0,
        ) {
            let e = Ecdf::new(vals);
            let q = e.quantile(p);
            // At least p of mass at or below q, per nearest-rank.
            prop_assert!(e.cdf(q) + 1e-12 >= p);
            // And removing q's tie-run drops below p.
            prop_assert!(e.cdf_strict(q) < p + 1e-12);
        }
    }
}
