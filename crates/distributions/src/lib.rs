//! Service-time distributions and deterministic RNG streams for the
//! reissue-policy reproduction.
//!
//! The paper's workloads draw service times from Pareto(1.1, 2.0),
//! LogNormal(1, 1) and Exponential(0.1) distributions and correlate the
//! reissue service time with the primary via `Y = r·x + Z`. This crate
//! implements those as small, deterministic, allocation-free samplers:
//!
//! * [`Pareto`], [`LogNormal`], [`Exponential`], [`Deterministic`] —
//!   analytic distributions implementing both [`Sample`] and [`Cdf`];
//! * [`CorrelatedPair`] — the paper's `Y = r·x + Z` generator (§5.1);
//! * [`rng`] — seeded [`rand::rngs::SmallRng`] streams with splitmix-based
//!   sub-stream derivation so every simulation component gets an
//!   independent, reproducible stream.
//!
//! The empirical CDF of a response-time log is `reissue_core::Ecdf`,
//! and the simulator replays measured engine costs through its own
//! `TraceService`; neither is a sampler of this crate.
//!
//! Everything is pure computation: given the same seed, every sampler
//! yields the same sequence on every platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod math;
pub mod rng;

mod analytic;
mod correlated;

pub use analytic::{Deterministic, Exponential, LogNormal, Pareto};
pub use correlated::{pearson, CorrelatedPair};

use rand::rngs::SmallRng;

/// Types that can draw samples given an RNG.
pub trait Sample {
    /// Draws one sample.
    fn sample(&self, rng: &mut SmallRng) -> f64;

    /// Draws `n` samples into a fresh vector.
    fn sample_n(&self, rng: &mut SmallRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Types with a cumulative distribution function.
pub trait Cdf {
    /// `Pr(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// `Pr(X > x)`, the survival function.
    fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }
}

/// Full analytic distributions: sampleable with known CDF, quantile
/// function and mean.
pub trait Dist: Sample + Cdf {
    /// The quantile function (inverse CDF) evaluated at `p ∈ [0, 1]`.
    fn quantile(&self, p: f64) -> f64;

    /// The distribution mean (may be `f64::INFINITY`, e.g. Pareto with
    /// shape ≤ 1).
    fn mean(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn sample_n_length() {
        let mut r = seeded(2);
        assert_eq!(Exponential::new(1.0).sample_n(&mut r, 17).len(), 17);
    }
}
