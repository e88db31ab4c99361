//! Binary indexed (Fenwick) tree over `u64` counts.

/// A Fenwick tree (binary indexed tree) maintaining an array of
/// non-negative counts with `O(log n)` point updates and prefix sums.
///
/// Indices are `0..n`. The tree is the optimizer's sweep-line
/// structure: response-time pairs are inserted by descending primary
/// time and prefix sums over reissue-time ranks yield
/// `|{ i : xᵢ > t ∧ yᵢ < v }|`.
///
/// # Examples
/// ```
/// let mut ft = rangequery::FenwickTree::new(8);
/// ft.add(3, 2);
/// ft.add(5, 1);
/// assert_eq!(ft.prefix_sum(3), 0); // indices 0..3
/// assert_eq!(ft.prefix_sum(4), 2); // indices 0..4
/// assert_eq!(ft.prefix_sum(8), 3); // every slot
/// ```
#[derive(Clone, Debug)]
pub struct FenwickTree {
    tree: Vec<u64>,
}

impl FenwickTree {
    /// Creates a tree over `n` zero-initialized slots.
    pub fn new(n: usize) -> Self {
        FenwickTree {
            tree: vec![0; n + 1],
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Whether the tree has zero slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `delta` to slot `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn add(&mut self, i: usize, delta: u64) {
        assert!(i < self.len(), "index {i} out of bounds {}", self.len());
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of slots `0..i` (exclusive upper bound). `i` may equal `len()`.
    pub fn prefix_sum(&self, i: usize) -> u64 {
        let mut i = i.min(self.len());
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_tree() {
        let ft = FenwickTree::new(0);
        assert!(ft.is_empty());
        assert_eq!(ft.prefix_sum(0), 0);
    }

    #[test]
    fn single_slot() {
        let mut ft = FenwickTree::new(1);
        assert_eq!(ft.prefix_sum(1), 0);
        ft.add(0, 5);
        assert_eq!(ft.prefix_sum(0), 0);
        assert_eq!(ft.prefix_sum(1), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_out_of_bounds_panics() {
        let mut ft = FenwickTree::new(4);
        ft.add(4, 1);
    }

    proptest! {
        #[test]
        fn prefix_sums_match_oracle(counts in proptest::collection::vec(0u64..20, 0..200)) {
            let mut ft = FenwickTree::new(counts.len());
            for (i, &c) in counts.iter().enumerate() {
                ft.add(i, c);
            }
            let mut acc = 0u64;
            for i in 0..=counts.len() {
                prop_assert_eq!(ft.prefix_sum(i), acc);
                if i < counts.len() {
                    acc += counts[i];
                }
            }
        }
    }
}
