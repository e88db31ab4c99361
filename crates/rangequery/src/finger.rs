//! Finger cursors over sorted slices: amortized-O(1) monotone rank queries.

/// A movable finger into a sorted `f64` slice.
///
/// [`FingerCursor::count_less`] returns `|{ x ∈ R : x < v }|` like a
/// binary search would, but the cursor remembers its last position and
/// walks from there. When successive query values move monotonically
/// (in either direction) the total walk across `m` queries is bounded by
/// the distance travelled, so each query costs amortized `O(1)`.
///
/// `ComputeOptimalSingleR` evaluates its three CDFs at values that are
/// individually monotone across the whole sweep (`d` non-decreasing, `t`
/// non-increasing, `t−d` non-increasing), which is exactly the access
/// pattern this cursor — standing in for the paper's finger search
/// tree — turns into `Θ(N)` total work.
///
/// # Examples
/// ```
/// let xs = [1.0, 3.0, 3.0, 7.0, 9.0];
/// let mut c = rangequery::FingerCursor::new(&xs);
/// assert_eq!(c.count_less(3.0), 1);
/// assert_eq!(c.count_less(8.0), 4);  // moved right
/// assert_eq!(c.count_less(0.5), 0);  // moved left
/// ```
#[derive(Clone, Debug)]
pub struct FingerCursor<'a> {
    sorted: &'a [f64],
    /// Number of elements strictly less than the last queried value;
    /// doubles as the finger position.
    pos: usize,
    /// Total number of elements walked over, for amortization tests.
    steps: u64,
}

impl<'a> FingerCursor<'a> {
    /// Creates a cursor positioned at the start of `sorted`.
    ///
    /// `sorted` must be in non-decreasing order; this is debug-asserted.
    pub fn new(sorted: &'a [f64]) -> Self {
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "FingerCursor input must be sorted"
        );
        FingerCursor {
            sorted,
            pos: 0,
            steps: 0,
        }
    }

    /// Number of elements strictly less than `v`, moving the finger.
    pub fn count_less(&mut self, v: f64) -> usize {
        // Walk right while the element under the finger is still < v.
        while self.pos < self.sorted.len() && self.sorted[self.pos] < v {
            self.pos += 1;
            self.steps += 1;
        }
        // Walk left while the element before the finger is >= v.
        while self.pos > 0 && self.sorted[self.pos - 1] >= v {
            self.pos -= 1;
            self.steps += 1;
        }
        self.pos
    }

    /// Empirical CDF `Pr(X < v)` over the underlying samples
    /// (the paper's `DiscreteCDF`, Figure 1 line 21).
    ///
    /// Returns 0 for an empty sample set.
    pub fn cdf(&mut self, v: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.count_less(v) as f64 / self.sorted.len() as f64
    }

    /// Total elements walked since construction — exposed so tests can
    /// assert the amortized-O(1) bound (`steps ≤ distance travelled`).
    pub fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_slice() {
        let mut c = FingerCursor::new(&[]);
        assert_eq!(c.count_less(5.0), 0);
        assert_eq!(c.cdf(5.0), 0.0);
    }

    #[test]
    fn ties_are_strict() {
        let xs = [2.0, 2.0, 2.0, 2.0];
        let mut c = FingerCursor::new(&xs);
        assert_eq!(c.count_less(2.0), 0);
        assert_eq!(c.count_less(2.0 + f64::EPSILON * 4.0), 4);
        assert_eq!(c.count_less(2.0), 0);
    }

    #[test]
    fn monotone_sweep_is_linear() {
        let xs: Vec<f64> = (0..10_000).map(|i| i as f64).collect();
        let mut c = FingerCursor::new(&xs);
        // Ascending sweep: total steps bounded by n.
        for q in 0..10_000 {
            c.count_less(q as f64 + 0.5);
        }
        assert!(c.steps() <= 10_000, "steps = {}", c.steps());
        // Descending sweep back: at most n more.
        for q in (0..10_000).rev() {
            c.count_less(q as f64 + 0.5);
        }
        assert!(c.steps() <= 20_000, "steps = {}", c.steps());
    }

    #[test]
    fn matches_binary_search_oracle_fixed() {
        let xs = [1.0, 1.5, 1.5, 2.0, 8.0, 8.0, 13.5];
        let mut c = FingerCursor::new(&xs);
        for &q in &[0.0, 1.0, 1.5, 1.7, 2.0, 8.0, 9.0, 13.5, 99.0, 1.5, 0.0] {
            assert_eq!(c.count_less(q), xs.partition_point(|&x| x < q), "q={q}");
        }
    }

    proptest! {
        #[test]
        fn matches_binary_search_oracle(
            mut xs in proptest::collection::vec(-1e3f64..1e3, 0..300),
            qs in proptest::collection::vec(-1.5e3f64..1.5e3, 0..300),
        ) {
            xs.sort_by(f64::total_cmp);
            let mut c = FingerCursor::new(&xs);
            for q in qs {
                prop_assert_eq!(c.count_less(q), xs.partition_point(|&x| x < q));
            }
        }

        #[test]
        fn cdf_in_unit_interval(
            mut xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
            q in -2e3f64..2e3,
        ) {
            xs.sort_by(f64::total_cmp);
            let mut c = FingerCursor::new(&xs);
            let p = c.cdf(q);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
