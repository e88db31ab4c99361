//! Iterative adaptation for load-dependent queueing delays (§4.3).
//!
//! Reissue requests add load, which perturbs the very response-time
//! distributions the optimizer was computed from. The paper's fix is a
//! feedback loop: run the system under the current policy, re-optimize
//! on the *observed* distributions, and move the reissue delay a
//! fraction `λ` of the way toward the new optimum:
//!
//! ```text
//! d' = d + λ · (d_local − d)
//! ```
//!
//! iterating until the optimizer's predicted tail latency matches the
//! observed one and the measured reissue rate matches the budget.

use crate::ecdf::Ecdf;
use crate::optimizer::{
    compute_optimal_single_r, compute_optimal_single_r_correlated, predict_latency,
    reissue_probability,
};
use crate::policy::ReissuePolicy;

/// Observations from one execution of a system under a reissue policy.
///
/// `primary` must cover *all* queries (response time of the primary
/// request alone); `pairs` holds `(primary, reissue)` response times for
/// the subset of queries that actually reissued, with the reissue
/// response measured from its own dispatch.
#[derive(Clone, Debug, Default)]
pub struct RunSample {
    /// Primary-request response time of every query.
    pub primary: Vec<f64>,
    /// `(primary, reissue)` response-time pairs of reissued queries.
    pub pairs: Vec<(f64, f64)>,
    /// Realized end-to-end latency of every query
    /// (`min(primary, d + reissue)`).
    pub latency: Vec<f64>,
    /// Measured reissue rate `M/N`.
    pub reissue_rate: f64,
}

/// A system that can be executed under a policy and observed — the
/// interface between the adaptive optimizer and a real service,
/// simulator or testbed.
pub trait System {
    /// Runs the workload under `policy` and reports observations.
    fn run(&mut self, policy: &ReissuePolicy) -> RunSample;
}

impl<F: FnMut(&ReissuePolicy) -> RunSample> System for F {
    fn run(&mut self, policy: &ReissuePolicy) -> RunSample {
        self(policy)
    }
}

/// One step of the adaptive loop, for inspection and plotting
/// (Figure 2b plots `predicted` vs `observed` per trial).
#[derive(Clone, Copy, Debug)]
pub struct Trial {
    /// Policy used for this trial.
    pub delay: f64,
    /// Reissue probability used for this trial.
    pub probability: f64,
    /// Tail latency predicted for *this trial's policy*. For trial 0 it
    /// is the in-sample prediction (estimated from trial 0's own data —
    /// an estimator sanity check); for later trials the prediction was
    /// made from the previous trial's observations, so
    /// `predicted ≈ observed` is the paper's convergence criterion.
    pub predicted: f64,
    /// Tail latency observed in this trial.
    pub observed: f64,
    /// What the optimizer believed the best achievable tail latency was,
    /// given this trial's observations (its own policy
    /// recommendation — not necessarily the policy run next).
    pub optimizer_target: f64,
    /// Measured reissue rate in this trial.
    pub reissue_rate: f64,
}

/// Result of the adaptive optimization.
#[derive(Clone, Debug)]
pub struct AdaptiveResult {
    /// The final SingleR policy.
    pub policy: ReissuePolicy,
    /// Per-trial telemetry, in order.
    pub trials: Vec<Trial>,
    /// Whether the convergence criterion was met before `max_trials`.
    pub converged: bool,
}

/// Configuration of the adaptive loop.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveConfig {
    /// Target tail percentile `k` (e.g. 0.99).
    pub k: f64,
    /// Reissue budget `B`.
    pub budget: f64,
    /// Learning rate `λ ∈ (0, 1]` for the delay update.
    pub learning_rate: f64,
    /// Maximum number of trials (system executions).
    pub max_trials: usize,
    /// Relative tolerance for declaring convergence of predicted vs
    /// observed tail latency, and absolute tolerance for the reissue
    /// rate vs the budget.
    pub tolerance: f64,
}

/// Runs the adaptive SingleR policy refinement of §4.3.
///
/// Starts from the immediate-reissue probe `SingleR(d = 0, q = B)`
/// (which consumes exactly the budget and explores the reissue
/// response-time distribution), then repeatedly re-optimizes on the
/// observed distributions and moves `d` by the learning rate. The
/// reissue probability is recomputed each step so the *expected* rate
/// stays on budget as the distribution shifts.
///
/// # Panics
/// Panics if the configuration is out of range or the system returns an
/// empty sample.
pub fn adapt<S: System + ?Sized>(system: &mut S, cfg: &AdaptiveConfig) -> AdaptiveResult {
    assert!((0.0..1.0).contains(&cfg.k), "k must be in [0,1)");
    assert!((0.0..=1.0).contains(&cfg.budget), "budget must be in [0,1]");
    assert!(
        cfg.learning_rate > 0.0 && cfg.learning_rate <= 1.0,
        "learning rate must be in (0,1]"
    );
    assert!(cfg.max_trials > 0, "need at least one trial");

    let mut delay = 0.0f64;
    let mut prob = cfg.budget.min(1.0);
    let mut trials: Vec<Trial> = Vec::with_capacity(cfg.max_trials);
    let mut converged = false;
    // Prediction for the upcoming trial's policy; NaN means "none yet"
    // (trial 0 substitutes its in-sample prediction).
    let mut pending_prediction = f64::NAN;

    for _ in 0..cfg.max_trials {
        let policy = ReissuePolicy::single_r(delay, prob);
        let sample = system.run(&policy);
        assert!(
            !sample.latency.is_empty() && !sample.primary.is_empty(),
            "system returned an empty sample"
        );
        let observed = Ecdf::new(sample.latency.clone()).quantile(cfg.k);

        // Re-optimize on observed distributions. Prefer the
        // correlation-aware optimizer whenever we have joint samples.
        let local = if sample.pairs.len() >= 2 {
            compute_optimal_single_r_correlated(&sample.primary, &sample.pairs, cfg.k, cfg.budget)
        } else {
            // Nothing was reissued (e.g. q=0 or tiny run): fall back to
            // treating reissues as exchangeable with primaries.
            compute_optimal_single_r(&sample.primary, &sample.primary, cfg.k, cfg.budget)
        };

        let predicted = if pending_prediction.is_finite() {
            pending_prediction
        } else {
            // Trial 0: in-sample prediction of the probe policy.
            predict_latency(&sample.primary, &sample.pairs, cfg.k, delay, prob)
        };
        trials.push(Trial {
            delay,
            probability: prob,
            predicted,
            observed,
            optimizer_target: local.predicted_latency,
            reissue_rate: sample.reissue_rate,
        });

        // Convergence needs three things: predictions track reality,
        // the measured rate is on budget, and the optimizer has stopped
        // asking to move the delay (otherwise an accurate in-sample
        // prediction would halt the climb long before the fixed point).
        let pred_ok =
            (predicted - observed).abs() <= cfg.tolerance * observed.max(f64::MIN_POSITIVE);
        let rate_ok = (sample.reissue_rate - cfg.budget).abs() <= cfg.tolerance.max(0.01);
        let delay_ok = (local.delay - delay).abs()
            <= cfg.tolerance * local.delay.max(delay).max(f64::MIN_POSITIVE);

        // d' = d + λ(d_local − d); q re-targeted to the budget under the
        // newly observed primary distribution.
        delay += cfg.learning_rate * (local.delay - delay);
        let outstanding = Ecdf::new(sample.primary.clone()).sf_weak(delay);
        prob = reissue_probability(cfg.budget, outstanding);
        pending_prediction = predict_latency(&sample.primary, &sample.pairs, cfg.k, delay, prob);

        if pred_ok && rate_ok && delay_ok && trials.len() > 1 {
            converged = true;
            break;
        }
    }

    AdaptiveResult {
        policy: ReissuePolicy::single_r(delay, prob),
        trials,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distributions::rng::seeded;
    use distributions::{Exponential, Sample};

    /// A static synthetic system: no queueing feedback, response times
    /// iid Exp(1); reissue latency independent Exp(1).
    fn static_system(seed: u64) -> impl FnMut(&ReissuePolicy) -> RunSample {
        let mut rng = seeded(seed);
        move |policy: &ReissuePolicy| {
            let d = Exponential::new(1.0);
            let n = 20_000;
            let mut primary = Vec::with_capacity(n);
            let mut pairs = Vec::new();
            let mut latency = Vec::with_capacity(n);
            let mut reissued = 0usize;
            for _ in 0..n {
                let x = d.sample(&mut rng);
                let sched = policy.sample_schedule(&mut rng);
                let mut lat = x;
                for &delay in &sched {
                    if x > delay {
                        reissued += 1;
                        let y = d.sample(&mut rng);
                        pairs.push((x, y));
                        lat = lat.min(delay + y);
                    }
                }
                primary.push(x);
                latency.push(lat);
            }
            RunSample {
                primary,
                pairs,
                latency,
                reissue_rate: reissued as f64 / n as f64,
            }
        }
    }

    #[test]
    fn adapt_improves_over_no_reissue() {
        let mut sys = static_system(42);
        let cfg = AdaptiveConfig {
            k: 0.95,
            budget: 0.1,
            learning_rate: 0.5,
            max_trials: 8,
            tolerance: 0.05,
        };
        let result = adapt(&mut sys, &cfg);
        let base_p95 = -(0.05f64).ln(); // Exp(1) P95
        let last = result.trials.last().unwrap();
        assert!(
            last.observed < base_p95,
            "observed {} should beat baseline {base_p95}",
            last.observed
        );
        // The policy must be on budget.
        assert!(
            (last.reissue_rate - 0.1).abs() < 0.03,
            "rate={}",
            last.reissue_rate
        );
    }

    #[test]
    fn adapt_converges_on_static_system() {
        let mut sys = static_system(7);
        let cfg = AdaptiveConfig {
            k: 0.95,
            budget: 0.2,
            learning_rate: 0.5,
            max_trials: 10,
            tolerance: 0.1,
        };
        let result = adapt(&mut sys, &cfg);
        assert!(result.converged, "should converge on a static system");
        // Prediction error shrinks over trials.
        let first_err = {
            let t = &result.trials[0];
            (t.predicted - t.observed).abs() / t.observed
        };
        let last_err = {
            let t = result.trials.last().unwrap();
            (t.predicted - t.observed).abs() / t.observed
        };
        assert!(
            last_err <= first_err + 0.05,
            "error grew: {first_err} -> {last_err}"
        );
    }

    #[test]
    fn trials_record_policy_used() {
        let mut sys = static_system(9);
        let cfg = AdaptiveConfig {
            k: 0.9,
            budget: 0.15,
            learning_rate: 0.3,
            max_trials: 4,
            tolerance: 1e-9, // never converge -> all trials run
        };
        let result = adapt(&mut sys, &cfg);
        assert_eq!(result.trials.len(), 4);
        // First trial is the probe policy (d=0, q=B).
        assert_eq!(result.trials[0].delay, 0.0);
        assert!((result.trials[0].probability - 0.15).abs() < 1e-12);
        // Delays move monotonically toward the optimum at this λ.
        assert!(result.trials[1].delay >= result.trials[0].delay);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn bad_learning_rate_panics() {
        let mut sys = static_system(1);
        let cfg = AdaptiveConfig {
            k: 0.9,
            budget: 0.1,
            learning_rate: 0.0,
            max_trials: 2,
            tolerance: 0.05,
        };
        let _ = adapt(&mut sys, &cfg);
    }

    #[test]
    fn zero_budget_stays_no_reissue() {
        let mut sys = static_system(3);
        let cfg = AdaptiveConfig {
            k: 0.95,
            budget: 0.0,
            learning_rate: 0.5,
            max_trials: 3,
            tolerance: 0.05,
        };
        let result = adapt(&mut sys, &cfg);
        for t in &result.trials {
            assert_eq!(t.reissue_rate, 0.0);
        }
    }
}
