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
//!   `Pr(Y < t−d | X > t)` inside the correlation-aware optimizer and
//!   `predict_latency`. Pairs enter it as their primary crosses a
//!   falling `t`, which answers the paper's §4.2 range counts without
//!   a static 2-D structure.
//!
//! All structures are deterministic given their inputs and are validated
//! against brute-force oracles by unit and property tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fenwick;
mod finger;

pub use fenwick::FenwickTree;
pub use finger::FingerCursor;
