//! Analytic distributions: Pareto, LogNormal, Exponential and
//! Deterministic.

use crate::math::{norm_cdf, norm_quantile};
use crate::{Cdf, Dist, Sample};
use rand::rngs::SmallRng;
use rand::Rng;

/// Draws `u ~ Uniform(0, 1)` avoiding exactly 0 and 1 so inverse-CDF
/// sampling never produces infinities.
fn open_unit(rng: &mut SmallRng) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

// ---------------------------------------------------------------------
// Pareto
// ---------------------------------------------------------------------

/// Pareto distribution with shape `alpha` and mode (scale) `x_m`.
///
/// The paper's simulated workloads use `Pareto(shape = 1.1, mode = 2.0)`
/// (§5.1) — an extremely heavy tail (infinite variance) that makes tail
/// latency dominated by rare huge service times.
///
/// `Pr(X ≤ x) = 1 − (x_m / x)^α` for `x ≥ x_m`.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    shape: f64,
    mode: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    /// Panics unless `shape > 0` and `mode > 0`.
    pub fn new(shape: f64, mode: f64) -> Self {
        assert!(shape > 0.0 && mode > 0.0, "Pareto needs shape>0, mode>0");
        Pareto { shape, mode }
    }

    /// The paper's default service-time distribution, Pareto(1.1, 2.0).
    pub fn paper_default() -> Self {
        Pareto::new(1.1, 2.0)
    }

    /// Shape parameter α.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Mode (minimum value / scale).
    pub fn mode(&self) -> f64 {
        self.mode
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut SmallRng) -> f64 {
        self.quantile(open_unit(rng))
    }
}

impl Cdf for Pareto {
    fn cdf(&self, x: f64) -> f64 {
        if x < self.mode {
            0.0
        } else {
            1.0 - (self.mode / x).powf(self.shape)
        }
    }
}

impl Dist for Pareto {
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        if p >= 1.0 {
            return f64::INFINITY;
        }
        self.mode * (1.0 - p).powf(-1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        if self.shape <= 1.0 {
            f64::INFINITY
        } else {
            self.shape * self.mode / (self.shape - 1.0)
        }
    }
}

// ---------------------------------------------------------------------
// LogNormal
// ---------------------------------------------------------------------

/// Log-normal distribution: `ln X ~ Normal(mu, sigma²)`.
///
/// The paper's sensitivity study uses `LogNormal(1, 1)` (§5.4).
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution with log-mean `mu` and
    /// log-standard-deviation `sigma`.
    ///
    /// # Panics
    /// Panics unless `sigma > 0` and both parameters are finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma > 0.0 && mu.is_finite() && sigma.is_finite(),
            "LogNormal needs finite mu, sigma>0"
        );
        LogNormal { mu, sigma }
    }

    /// Log-mean parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-standard-deviation parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// A log-normal with the given (linear) mean and standard deviation —
    /// handy for calibrating synthetic workloads to measured moments.
    ///
    /// # Panics
    /// Panics unless `mean > 0` and `std > 0`.
    pub fn from_mean_std(mean: f64, std: f64) -> Self {
        assert!(mean > 0.0 && std > 0.0);
        let cv2 = (std / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        LogNormal::new(mean.ln() - sigma2 / 2.0, sigma2.sqrt())
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SmallRng) -> f64 {
        // Box–Muller; one normal deviate per sample keeps the stream
        // deterministic regardless of call pattern.
        let u1 = open_unit(rng);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

impl Cdf for LogNormal {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            norm_cdf((x.ln() - self.mu) / self.sigma)
        }
    }
}

impl Dist for LogNormal {
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        (self.mu + self.sigma * norm_quantile(p)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

// ---------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// The paper's sensitivity study uses `Exp(0.1)` — mean 10 (§5.4).
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Panics
    /// Panics unless `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "Exponential needs rate>0");
        Exponential { rate }
    }

    /// Rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SmallRng) -> f64 {
        -open_unit(rng).ln() / self.rate
    }
}

impl Cdf for Exponential {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }
}

impl Dist for Exponential {
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p out of range: {p}");
        if p >= 1.0 {
            return f64::INFINITY;
        }
        -(1.0 - p).ln() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

// ---------------------------------------------------------------------
// Deterministic
// ---------------------------------------------------------------------

/// A point mass at `value`; useful for tests and calibration probes.
#[derive(Clone, Copy, Debug)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates a point mass at `value`.
    pub fn new(value: f64) -> Self {
        Deterministic { value }
    }
}

impl Sample for Deterministic {
    fn sample(&self, _rng: &mut SmallRng) -> f64 {
        self.value
    }
}

impl Cdf for Deterministic {
    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }
}

impl Dist for Deterministic {
    fn quantile(&self, _p: f64) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn sample_mean<D: Sample>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = seeded(seed);
        d.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64
    }

    /// Empirical CDF at analytic quantiles should be close to p.
    fn check_quantile_agreement<D: Dist>(d: &D, seed: u64) {
        let mut rng = seeded(seed);
        let mut xs = d.sample_n(&mut rng, 50_000);
        xs.sort_by(f64::total_cmp);
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let q = d.quantile(p);
            let emp = xs.partition_point(|&x| x <= q) as f64 / xs.len() as f64;
            assert!((emp - p).abs() < 0.01, "p={p} q={q} emp={emp}");
        }
    }

    #[test]
    fn pareto_basic() {
        let d = Pareto::paper_default();
        assert_eq!(d.cdf(1.0), 0.0); // below mode
        assert_eq!(d.cdf(2.0), 0.0); // at the mode, P(X <= mode) = 0 for continuous
        assert!((d.mean() - 22.0).abs() < 1e-9); // 1.1*2/0.1
        assert!((d.cdf(d.quantile(0.95)) - 0.95).abs() < 1e-12);
        assert_eq!(d.quantile(1.0), f64::INFINITY);
        check_quantile_agreement(&d, 101);
    }

    #[test]
    fn pareto_infinite_mean_when_shape_le_1() {
        assert_eq!(Pareto::new(1.0, 2.0).mean(), f64::INFINITY);
        assert_eq!(Pareto::new(0.5, 2.0).mean(), f64::INFINITY);
    }

    #[test]
    #[should_panic]
    fn pareto_bad_params() {
        let _ = Pareto::new(0.0, 1.0);
    }

    #[test]
    fn lognormal_basic() {
        let d = LogNormal::new(1.0, 1.0);
        let analytic_mean = (1.0f64 + 0.5).exp();
        assert!((d.mean() - analytic_mean).abs() < 1e-9);
        assert!((d.cdf(d.quantile(0.5)) - 0.5).abs() < 1e-7);
        // Median of lognormal is exp(mu).
        assert!((d.quantile(0.5) - 1.0f64.exp()).abs() < 1e-6);
        check_quantile_agreement(&d, 102);
        let m = sample_mean(&d, 200_000, 103);
        assert!((m - analytic_mean).abs() / analytic_mean < 0.05, "m={m}");
    }

    #[test]
    fn lognormal_from_mean_std() {
        let d = LogNormal::from_mean_std(39.73, 21.88);
        assert!((d.mean() - 39.73).abs() < 1e-6);
        // Verify the implied std via moments: var = (e^{σ²}−1)e^{2μ+σ²}.
        let var =
            ((d.sigma() * d.sigma()).exp() - 1.0) * (2.0 * d.mu() + d.sigma() * d.sigma()).exp();
        assert!((var.sqrt() - 21.88).abs() < 1e-6);
    }

    #[test]
    fn exponential_basic() {
        let d = Exponential::new(0.1);
        assert!((d.mean() - 10.0).abs() < 1e-12);
        assert!((d.cdf(10.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        assert!((d.quantile(0.95) - 10.0 * (20.0f64).ln()).abs() < 1e-9);
        check_quantile_agreement(&d, 104);
        let m = sample_mean(&d, 100_000, 105);
        assert!((m - 10.0).abs() < 0.3, "m={m}");
    }

    #[test]
    fn deterministic_basic() {
        let d = Deterministic::new(3.5);
        let mut rng = seeded(1);
        assert_eq!(d.sample(&mut rng), 3.5);
        assert_eq!(d.cdf(3.4), 0.0);
        assert_eq!(d.cdf(3.5), 1.0);
        assert_eq!(d.mean(), 3.5);
        assert_eq!(d.quantile(0.37), 3.5);
    }

    #[test]
    fn samples_are_positive() {
        let mut rng = seeded(9);
        for v in Pareto::paper_default().sample_n(&mut rng, 1000) {
            assert!(v >= 2.0);
        }
        for v in LogNormal::new(1.0, 1.0).sample_n(&mut rng, 1000) {
            assert!(v > 0.0);
        }
        for v in Exponential::new(0.1).sample_n(&mut rng, 1000) {
            assert!(v > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_out_of_range_panics() {
        let _ = Exponential::new(1.0).quantile(1.5);
    }
}
