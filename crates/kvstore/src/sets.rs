//! Sorted integer sets with cost-instrumented intersection.

/// A set of `u32` values stored as a sorted vector.
///
/// Intersection is the workhorse of the paper's Redis workload. It uses
/// a size-adaptive algorithm: a linear two-pointer merge when the
/// operands are comparable and galloping (exponential probing into the
/// larger set) when one side is much smaller — the same strategy
/// production engines use. Every operation returns an *operation count*
/// alongside its result; the workload layer converts counts to
/// milliseconds with a calibrated constant, giving a deterministic,
/// hardware-independent service-time model.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IntSet {
    items: Vec<u32>,
}

/// Ratio of lengths beyond which intersection switches to galloping.
const GALLOP_RATIO: usize = 16;

impl IntSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IntSet { items: Vec::new() }
    }

    /// Builds from arbitrary values (sorts and deduplicates).
    pub fn from_unsorted(mut values: Vec<u32>) -> Self {
        values.sort_unstable();
        values.dedup();
        IntSet { items: values }
    }

    /// Builds from a sorted, deduplicated vector.
    ///
    /// # Panics
    /// Panics if the input is not strictly increasing.
    pub fn from_sorted(values: Vec<u32>) -> Self {
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "from_sorted input must be strictly increasing"
        );
        IntSet { items: values }
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Membership test, `O(log n)`.
    pub fn contains(&self, v: u32) -> bool {
        self.items.binary_search(&v).is_ok()
    }

    /// Inserts a value; returns whether it was newly added. `O(n)`
    /// worst case (vector shift) — fine for build-time mutation, the
    /// workload is read-only after loading.
    pub fn insert(&mut self, v: u32) -> bool {
        match self.items.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, v);
                true
            }
        }
    }

    /// The sorted contents.
    pub fn as_slice(&self) -> &[u32] {
        &self.items
    }

    /// Intersection with cost accounting: returns the intersection and
    /// the number of elementary operations (comparisons/probes)
    /// performed.
    pub fn intersect(&self, other: &IntSet) -> (IntSet, u64) {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if small.is_empty() {
            return (IntSet::new(), 1);
        }
        if large.len() / small.len().max(1) >= GALLOP_RATIO {
            Self::intersect_gallop(small, large)
        } else {
            Self::intersect_merge(small, large)
        }
    }

    /// Intersection with *Redis's* cost profile: iterate the smaller
    /// set and probe the larger one (Redis stores integer sets as
    /// sorted "intsets" probed by binary search, or as hash tables),
    /// then materialize the reply. Cost = one `log₂|large|` probe per
    /// small element plus one unit per result element.
    ///
    /// This is deliberately *worse* than [`IntSet::intersect`]'s
    /// adaptive merge for similar-sized operands — by `Θ(log n)` — and
    /// that gap is what turns the dataset's rare large×large pairs into
    /// the paper's "queries of death": relative to the mean query, a
    /// probe-based monster costs ~100× more than a merge-based one
    /// would. The workload layer therefore uses this cost model; the
    /// merge remains available (and benchmarked) as the modern
    /// alternative.
    pub fn intersect_probe(&self, other: &IntSet) -> (IntSet, u64) {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        if small.is_empty() || large.is_empty() {
            return (IntSet::new(), 1);
        }
        let probe_cost = (usize::BITS - (large.len() - 1).max(1).leading_zeros()) as u64;
        let mut out = Vec::new();
        let mut ops = 0u64;
        for &v in &small.items {
            ops += probe_cost;
            if large.contains(v) {
                out.push(v);
                ops += 1;
            }
        }
        (IntSet { items: out }, ops.max(1))
    }

    /// Two-pointer merge intersection, `O(n + m)`.
    fn intersect_merge(a: &IntSet, b: &IntSet) -> (IntSet, u64) {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        let mut ops = 0u64;
        while i < a.items.len() && j < b.items.len() {
            ops += 1;
            match a.items[i].cmp(&b.items[j]) {
                std::cmp::Ordering::Equal => {
                    out.push(a.items[i]);
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
            }
        }
        (IntSet { items: out }, ops.max(1))
    }

    /// Galloping intersection: for each element of the small set,
    /// exponential search into the remaining suffix of the large set.
    /// `O(s · log(l/s))`.
    fn intersect_gallop(small: &IntSet, large: &IntSet) -> (IntSet, u64) {
        let mut out = Vec::new();
        let mut base = 0usize;
        let mut ops = 0u64;
        for &v in &small.items {
            // Exponential probe for the first index ≥ v.
            let mut step = 1usize;
            let mut hi = base;
            while hi < large.items.len() && large.items[hi] < v {
                ops += 1;
                hi = base + step;
                step *= 2;
            }
            let lo = (hi / 2).max(base).min(large.items.len());
            let hi = hi.min(large.items.len());
            let offset = large.items[lo..hi].partition_point(|&x| x < v);
            ops += ((hi - lo).max(1) as f64).log2().ceil() as u64 + 1;
            base = lo + offset;
            if base < large.items.len() && large.items[base] == v {
                out.push(v);
                base += 1;
            }
            if base >= large.items.len() {
                break;
            }
        }
        (IntSet { items: out }, ops.max(1))
    }
}

impl FromIterator<u32> for IntSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        IntSet::from_unsorted(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn brute_intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        sa.intersection(&sb).copied().collect()
    }

    #[test]
    fn basic_construction() {
        let s = IntSet::from_unsorted(vec![5, 1, 3, 3, 1]);
        assert_eq!(s.as_slice(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(3));
        assert!(!s.contains(2));
    }

    #[test]
    fn insert_maintains_order() {
        let mut s = IntSet::new();
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(!s.insert(5));
        assert_eq!(s.as_slice(), &[1, 5]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_sorted_rejects_duplicates() {
        let _ = IntSet::from_sorted(vec![1, 1, 2]);
    }

    #[test]
    fn intersect_merge_path() {
        let a = IntSet::from_unsorted((0..100).collect());
        let b = IntSet::from_unsorted((50..150).collect());
        let (r, ops) = a.intersect(&b);
        assert_eq!(r.as_slice(), (50..100).collect::<Vec<u32>>().as_slice());
        assert!(ops > 0);
    }

    #[test]
    fn intersect_gallop_path() {
        // Small (5 elements) vs large (10k): must use galloping.
        let a = IntSet::from_unsorted(vec![3, 5000, 9999, 15000, 20001]);
        let b = IntSet::from_unsorted((0..10_000).map(|i| i * 2).collect());
        let (r, ops_gallop) = a.intersect(&b);
        let want = brute_intersect(a.as_slice(), b.as_slice());
        assert_eq!(want, vec![5000, 15000]);
        assert_eq!(r.as_slice(), want.as_slice());
        // Galloping should cost far less than a full merge scan.
        assert!(ops_gallop < 10_000, "ops={ops_gallop}");
    }

    #[test]
    fn empty_intersections() {
        let e = IntSet::new();
        let s = IntSet::from_unsorted(vec![1, 2, 3]);
        assert_eq!(e.intersect(&s).0.len(), 0);
        assert_eq!(s.intersect(&e).0.len(), 0);
        assert_eq!(e.intersect(&e).0.len(), 0);
    }

    #[test]
    fn probe_cost_penalizes_balanced_large_pairs() {
        // For two large similar-sized sets the probe model must cost
        // ~log(n)× more than the merge — the "query of death" driver.
        let a = IntSet::from_unsorted((0..200_000u32).map(|i| i * 2).collect());
        let b = IntSet::from_unsorted((0..200_000u32).map(|i| i * 3).collect());
        let (_, merge_cost) = IntSet::intersect_merge(&a, &b);
        let (_, probe_cost) = a.intersect_probe(&b);
        assert!(
            probe_cost > 5 * merge_cost,
            "probe={probe_cost} merge={merge_cost}"
        );
    }

    proptest! {
        #[test]
        fn probe_matches_merge_result(
            a in proptest::collection::vec(0u32..3000, 0..400),
            b in proptest::collection::vec(0u32..3000, 0..400),
        ) {
            let sa = IntSet::from_unsorted(a);
            let sb = IntSet::from_unsorted(b);
            prop_assert_eq!(sa.intersect_probe(&sb).0, sa.intersect(&sb).0);
        }

        #[test]
        fn intersection_matches_btreeset(
            a in proptest::collection::vec(0u32..5000, 0..600),
            b in proptest::collection::vec(0u32..5000, 0..600),
        ) {
            let sa = IntSet::from_unsorted(a.clone());
            let sb = IntSet::from_unsorted(b.clone());
            let (r, ops) = sa.intersect(&sb);
            let want = brute_intersect(&a, &b);
            prop_assert_eq!(r.as_slice(), want.as_slice());
            prop_assert!(ops >= 1);
        }

        #[test]
        fn gallop_matches_merge(
            small in proptest::collection::vec(0u32..100_000, 0..40),
            large_seed in 0u32..1000,
        ) {
            // Construct a large set deterministically from the seed.
            let large: Vec<u32> =
                (0..20_000u32).map(|i| i * 7 + large_seed % 7).collect();
            let ss = IntSet::from_unsorted(small.clone());
            let sl = IntSet::from_unsorted(large.clone());
            let (g, _) = IntSet::intersect_gallop(&ss, &sl);
            let (m, _) = IntSet::intersect_merge(&ss, &sl);
            prop_assert_eq!(g.as_slice(), m.as_slice());
        }

        #[test]
        fn intersection_commutes(
            a in proptest::collection::vec(0u32..2000, 0..300),
            b in proptest::collection::vec(0u32..2000, 0..300),
        ) {
            let sa = IntSet::from_unsorted(a);
            let sb = IntSet::from_unsorted(b);
            prop_assert_eq!(sa.intersect(&sb).0, sb.intersect(&sa).0);
        }
    }
}
