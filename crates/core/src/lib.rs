//! Core algorithms from *Optimal Reissue Policies for Reducing Tail
//! Latency* (Kaler, He, Elnikety — SPAA 2017).
//!
//! An interactive service can cut its tail latency by *reissuing*
//! (duplicating) requests that have not completed. This crate implements
//! the paper's policy families and every algorithm it presents:
//!
//! * [`policy`] — the [`policy::ReissuePolicy`] families: **SingleD**
//!   (reissue after a deterministic delay `d`, "Tail at Scale" hedging),
//!   **SingleR** (reissue after delay `d` *with probability `q`*, the
//!   paper's contribution) and **MultipleR** (multiple stages; provably
//!   no better than SingleR).
//! * [`model`] — the analytical model of §2–§3: success probabilities
//!   (Equations 1, 3, 8) and expected reissue budgets (Equations 2, 4,
//!   15) over abstract response-time distributions.
//! * [`ecdf`] — the paper's `DiscreteCDF` (Figure 1, line 21): a strict
//!   `<` empirical CDF over sorted response-time samples.
//! * [`optimizer`] — `ComputeOptimalSingleR` (Figure 1): the
//!   `Θ(N + sort N)` data-driven parameter search, the
//!   `Θ(N log N)` correlation-aware variant of §4.2, and the predicted
//!   tail latency of a given `(d, q)`, all on one success-rate sweep.
//! * [`adaptive`] — iterative adaptation for load-dependent queueing
//!   delays (§4.3): refine the reissue delay with a learning rate until
//!   predicted and observed tail latencies converge.
//! * [`censored`] — Kaplan–Meier completion of censored
//!   `(primary, reissue)` race pairs, feeding the §4.2 correlated
//!   optimizer from serving systems that cancel tied requests.
//! * [`budget`] — reissue-budget selection (§4.4): the expanding/halving
//!   binary search and SLA-constrained budget minimization.
//! * [`load`] — client-side load sensing for utilization-aware
//!   hedging: an offered-rate / in-flight / service-time estimator
//!   ([`load::LoadSignal`]) and the damping rule
//!   ([`load::LoadShaper`]) that shrinks the effective reissue budget
//!   as estimated utilization rises, so online adaptation survives
//!   redundancy's load-dependent sign flip.
//! * [`metrics`] — exact and log-bucketed streaming quantiles, the
//!   paper's *remediation rate*, and service-time histograms.
//! * [`discipline`] — the server-side queue disciplines (FIFO,
//!   primary-priority FIFO and LIFO, round-robin, aged shortest-burn)
//!   shared by the cluster simulator and the TCP
//!   serving path, so reissue policy × scheduling interactions are
//!   measured on identical semantics.
//!
//! The discrete-event simulator and the Redis/Lucene-like engines that
//! exercise these algorithms live in sibling crates (`simulator`,
//! `kvstore`, `searchengine`, `workloads`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod budget;
pub mod censored;
pub mod discipline;
pub mod ecdf;
pub mod kofn;
pub mod load;
pub mod metrics;
pub mod model;
pub mod online;
pub mod optimizer;
pub mod policy;

pub use ecdf::Ecdf;
pub use optimizer::{
    compute_optimal_single_r, compute_optimal_single_r_correlated, predict_latency, OptimalSingleR,
};
pub use policy::ReissuePolicy;
