//! Order-statistic and orthogonal range-query data structures.
//!
//! This crate provides the query substrates used by the
//! `ComputeOptimalSingleR` optimizer of Kaler, He and Elnikety,
//! *Optimal Reissue Policies for Reducing Tail Latency* (SPAA 2017):
//!
//! * [`FingerCursor`] — a movable finger into a sorted slice that answers
//!   rank (`count < v`) queries in amortized `O(1)` when the query values
//!   move monotonically, standing in for the finger search trees
//!   (Brown–Tarjan / Guibas et al.) cited by the paper. This is what makes
//!   the optimizer `Θ(N + sort(N))` rather than `Θ(N log N)`.
//! * [`FenwickTree`] — a binary indexed tree over value ranks, used for the
//!   sweep-line estimation of the conditional CDF
//!   `Pr(Y ≤ t−d | X > t)` inside the correlation-aware optimizer.
//! * [`MergeSortTree`] — a static structure answering arbitrary (non-
//!   monotone) 2-D dominance counts `|{ i : xᵢ > qx ∧ yᵢ ≤ qy }|` in
//!   `O(log² n)`, the general-purpose orthogonal range query structure
//!   referenced in §4.2 of the paper.
//!
//! All structures are deterministic given their inputs and are validated
//! against brute-force oracles by unit and property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fenwick;
mod finger;
mod merge_sort_tree;

pub use fenwick::FenwickTree;
pub use finger::FingerCursor;
pub use merge_sort_tree::MergeSortTree;

/// Counts elements of a sorted slice strictly less than `v`.
///
/// This is the brute-force oracle for [`FingerCursor`]; it is `O(log n)`
/// (binary search) and is exposed because several callers need one-shot,
/// non-monotone rank queries where building a cursor is not worthwhile.
///
/// # Examples
/// ```
/// let xs = [1.0, 2.0, 2.0, 5.0];
/// assert_eq!(rangequery::count_less(&xs, 2.0), 1);
/// assert_eq!(rangequery::count_less(&xs, 2.5), 3);
/// ```
pub fn count_less(sorted: &[f64], v: f64) -> usize {
    sorted.partition_point(|&x| x < v)
}

/// Counts elements of a sorted slice less than or equal to `v`.
pub fn count_le(sorted: &[f64], v: f64) -> usize {
    sorted.partition_point(|&x| x <= v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_less_empty() {
        assert_eq!(count_less(&[], 1.0), 0);
        assert_eq!(count_le(&[], 1.0), 0);
    }

    #[test]
    fn count_less_vs_le_on_ties() {
        let xs = [3.0, 3.0, 3.0];
        assert_eq!(count_less(&xs, 3.0), 0);
        assert_eq!(count_le(&xs, 3.0), 3);
    }

    #[test]
    fn count_less_extremes() {
        let xs = [1.0, 4.0, 9.0];
        assert_eq!(count_less(&xs, f64::NEG_INFINITY), 0);
        assert_eq!(count_less(&xs, f64::INFINITY), 3);
    }
}
