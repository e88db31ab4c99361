//! The paper's correlated primary/reissue service-time generator.

use crate::Sample;
use rand::rngs::SmallRng;

/// Generates correlated (primary, reissue) service-time pairs using the
/// paper's model (§5.1):
///
/// ```text
/// X ~ D                 (primary service time)
/// Y = r·x + Z,  Z ~ D   (reissue service time, Z independent)
/// ```
///
/// `r = 0` gives independent service times; larger `r` strengthens the
/// positive correlation. Note `E[Y] = (1 + r)·E[X]`, matching the
/// paper's construction (the reissue is *slower* on average when `r > 0`,
/// which is exactly why reissuing earlier pays off on correlated
/// workloads).
#[derive(Clone, Copy, Debug)]
pub struct CorrelatedPair<D> {
    base: D,
    r: f64,
}

impl<D: Sample> CorrelatedPair<D> {
    /// Creates a generator with base distribution `base` and linear
    /// correlation ratio `r ∈ [0, ∞)`.
    ///
    /// # Panics
    /// Panics if `r` is negative or non-finite.
    pub fn new(base: D, r: f64) -> Self {
        assert!(r >= 0.0 && r.is_finite(), "correlation ratio must be ≥ 0");
        CorrelatedPair { base, r }
    }

    /// The correlation ratio `r`.
    pub fn ratio(&self) -> f64 {
        self.r
    }

    /// The base distribution.
    pub fn base(&self) -> &D {
        &self.base
    }

    /// Draws a primary service time `x`.
    pub fn sample_primary(&self, rng: &mut SmallRng) -> f64 {
        self.base.sample(rng)
    }

    /// Draws a reissue service time conditioned on the primary's `x`.
    pub fn sample_reissue(&self, primary: f64, rng: &mut SmallRng) -> f64 {
        self.r * primary + self.base.sample(rng)
    }

    /// Draws a correlated `(x, y)` pair.
    pub fn sample_pair(&self, rng: &mut SmallRng) -> (f64, f64) {
        let x = self.sample_primary(rng);
        let y = self.sample_reissue(x, rng);
        (x, y)
    }
}

/// Pearson correlation coefficient of a sample of pairs; `None` when
/// either marginal is degenerate (zero variance) or fewer than 2 pairs.
pub fn pearson(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pairs.iter().map(|p| p.1).sum::<f64>() / n;
    let (mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0);
    for &(x, y) in pairs {
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
        sxy += (x - mx) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        None
    } else {
        Some(sxy / (sxx * syy).sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;
    use crate::{Exponential, LogNormal};

    #[test]
    fn zero_ratio_is_independent() {
        let g = CorrelatedPair::new(Exponential::new(1.0), 0.0);
        let mut rng = seeded(5);
        let pairs: Vec<(f64, f64)> = (0..30_000).map(|_| g.sample_pair(&mut rng)).collect();
        let rho = pearson(&pairs).unwrap();
        assert!(rho.abs() < 0.03, "rho={rho}");
    }

    #[test]
    fn positive_ratio_positively_correlates() {
        // Use a light-tailed base so the Pearson estimate is stable.
        let g = CorrelatedPair::new(LogNormal::new(0.0, 0.5), 0.5);
        let mut rng = seeded(6);
        let pairs: Vec<(f64, f64)> = (0..30_000).map(|_| g.sample_pair(&mut rng)).collect();
        let rho = pearson(&pairs).unwrap();
        assert!(rho > 0.3, "rho={rho}");

        // Stronger ratio → stronger correlation.
        let g2 = CorrelatedPair::new(LogNormal::new(0.0, 0.5), 2.0);
        let mut rng = seeded(6);
        let pairs2: Vec<(f64, f64)> = (0..30_000).map(|_| g2.sample_pair(&mut rng)).collect();
        assert!(pearson(&pairs2).unwrap() > rho);
    }

    #[test]
    fn reissue_mean_scales_with_ratio() {
        let g = CorrelatedPair::new(Exponential::new(1.0), 0.5);
        let mut rng = seeded(7);
        let mut sum = 0.0;
        let n = 50_000;
        for _ in 0..n {
            let (_, y) = g.sample_pair(&mut rng);
            sum += y;
        }
        let mean_y = sum / n as f64;
        // E[Y] = (1 + r) * E[X] = 1.5
        assert!((mean_y - 1.5).abs() < 0.05, "mean_y={mean_y}");
    }

    #[test]
    fn sample_reissue_uses_given_primary() {
        let g = CorrelatedPair::new(crate::Deterministic::new(3.0), 1.0);
        let mut rng = seeded(8);
        // y = 1.0 * 10.0 + 3.0
        assert_eq!(g.sample_reissue(10.0, &mut rng), 13.0);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[]), None);
        assert_eq!(pearson(&[(1.0, 2.0)]), None);
        assert_eq!(pearson(&[(1.0, 2.0), (1.0, 3.0)]), None); // zero x-variance
        let perfect = [(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)];
        assert!((pearson(&perfect).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn negative_ratio_panics() {
        let _ = CorrelatedPair::new(Exponential::new(1.0), -0.1);
    }
}
