//! Glue between workload specs and the paper's optimizers.

use crate::spec::WorkloadSpec;
use reissue_core::adaptive::{adapt, AdaptiveConfig, AdaptiveResult, RunSample, System};
use reissue_core::optimizer::{compute_optimal_single_r_correlated, OptimalSingleR};
use reissue_core::ReissuePolicy;
use simulator::RunConfig;

/// Adapts a [`WorkloadSpec`] to the adaptive optimizer's
/// [`System`] interface.
///
/// Trials are *paired*: every trial reuses the same seed, so the
/// arrival and service draws are common random numbers and the only
/// thing that changes between trials is the policy (and the load it
/// induces). This is the standard DES variance-reduction technique and
/// matters enormously under Pareto(1.1) service times, whose
/// single-run P95 estimates are noisy.
pub struct SimSystem<'a> {
    spec: &'a WorkloadSpec,
    run: RunConfig,
}

impl<'a> SimSystem<'a> {
    /// Wraps a spec with the run configuration every trial repeats.
    pub fn new(spec: &'a WorkloadSpec, run: RunConfig) -> Self {
        SimSystem { spec, run }
    }
}

impl System for SimSystem<'_> {
    fn run(&mut self, policy: &ReissuePolicy) -> RunSample {
        self.spec.run(&self.run, policy).to_run_sample()
    }
}

/// Runs the §4.3 adaptive optimizer against a workload: probe with
/// `SingleR(0, B)`, re-optimize from observations, move the delay by
/// the learning rate, repeat.
///
/// Returns the adaptive trace (policies, predicted and observed tail
/// latencies per trial) and the final policy.
pub fn adapt_policy(
    spec: &WorkloadSpec,
    run: &RunConfig,
    k: f64,
    budget: f64,
    learning_rate: f64,
    max_trials: usize,
) -> AdaptiveResult {
    let mut system = SimSystem::new(spec, *run);
    adapt(
        &mut system,
        &AdaptiveConfig {
            k,
            budget,
            learning_rate,
            max_trials,
            tolerance: 0.05,
        },
    )
}

/// Computes the optimal SingleR policy for a *static* workload
/// (Independent/Correlated: no queueing feedback) by sampling joint
/// service-time pairs from the model and running the correlation-aware
/// `ComputeOptimalSingleR` once — the §4.1/§4.2 path, no adaptation
/// needed.
pub fn optimal_policy_static(
    spec: &WorkloadSpec,
    samples: usize,
    k: f64,
    budget: f64,
    seed: u64,
) -> OptimalSingleR {
    let pairs = spec.sample_pairs(samples, seed);
    let rx: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    compute_optimal_single_r_correlated(&rx, &pairs, k, budget)
}

/// The SingleD policy with budget `B` for a static workload: reissue at
/// the empirical `(1 − B)`-quantile of the primary response times
/// (Equation 2).
pub fn single_d_static(
    spec: &WorkloadSpec,
    samples: usize,
    budget: f64,
    seed: u64,
) -> ReissuePolicy {
    let mut xs = spec.sample_primaries(samples, seed);
    xs.sort_by(f64::total_cmp);
    let q = reissue_core::metrics::quantile(&xs, (1.0 - budget).clamp(0.0, 1.0));
    ReissuePolicy::single_d(q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{correlated, independent, queueing};

    #[test]
    fn sim_system_paired_seeds_repeat_realizations() {
        let spec = queueing(0.3, 0.0, 1);
        let mut sys = SimSystem::new(&spec, RunConfig::new(2_000));
        let a = sys.run(&ReissuePolicy::None);
        let b = sys.run(&ReissuePolicy::None);
        // Paired (common random numbers): identical realizations.
        assert_eq!(a.latency, b.latency);
    }

    #[test]
    fn static_optimizer_respects_budget() {
        let spec = independent(2);
        for budget in [0.02, 0.1, 0.3] {
            let opt = optimal_policy_static(&spec, 20_000, 0.95, budget, 7);
            assert!(opt.budget_used <= budget + 1e-9);
        }
    }

    #[test]
    fn static_optimizer_correlation_shifts_delay_earlier() {
        let ind = optimal_policy_static(&independent(3), 30_000, 0.95, 0.1, 9);
        let cor = optimal_policy_static(&correlated(0.9, 3), 30_000, 0.95, 0.1, 9);
        assert!(
            cor.outstanding_at_delay >= ind.outstanding_at_delay,
            "correlated should reissue earlier: cor={} ind={}",
            cor.outstanding_at_delay,
            ind.outstanding_at_delay
        );
    }

    #[test]
    fn single_d_budget_matches() {
        let spec = independent(4);
        let p = single_d_static(&spec, 20_000, 0.1, 11);
        match p {
            ReissuePolicy::SingleD { delay } => {
                // Pr(X > d) should be ≈ 0.1 under the model.
                let xs = spec.sample_primaries(20_000, 12);
                let above = xs.iter().filter(|&&x| x > delay).count() as f64 / xs.len() as f64;
                assert!((above - 0.1).abs() < 0.02, "above={above}");
            }
            _ => panic!("expected SingleD"),
        }
    }

    #[test]
    fn adaptive_on_queueing_improves_tail() {
        let spec = queueing(0.3, 0.5, 5);
        let run = RunConfig::new(15_000);
        let result = adapt_policy(&spec, &run, 0.95, 0.2, 0.5, 5);
        let base = spec.run(&run, &ReissuePolicy::None);
        let tuned = spec.run(&run, &result.policy);
        assert!(
            tuned.quantile(0.95) < base.quantile(0.95),
            "tuned {} !< base {}",
            tuned.quantile(0.95),
            base.quantile(0.95)
        );
        // Budget approximately respected in execution.
        assert!(
            tuned.reissue_rate() <= 0.25,
            "rate={}",
            tuned.reissue_rate()
        );
    }
}
