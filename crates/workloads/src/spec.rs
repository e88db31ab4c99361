//! Workload specifications: a serializable recipe for a simulation.

use distributions::rng::stream;
use distributions::{Dist, Exponential, LogNormal, Pareto};
use reissue_core::ReissuePolicy;
use simulator::{
    simulate, ArrivalProcess, ClusterConfig, CorrelatedService, IidService, RunConfig,
    ServiceModel, SimResult, TraceService,
};

/// An analytic service-time distribution choice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DistSpec {
    /// Pareto with shape and mode.
    Pareto {
        /// Shape α.
        shape: f64,
        /// Mode (minimum value).
        mode: f64,
    },
    /// Log-normal with log-mean and log-sigma.
    LogNormal {
        /// Log-scale mean µ.
        mu: f64,
        /// Log-scale standard deviation σ.
        sigma: f64,
    },
    /// Exponential with rate.
    Exponential {
        /// Rate λ.
        rate: f64,
    },
}

impl DistSpec {
    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        match *self {
            DistSpec::Pareto { shape, mode } => Pareto::new(shape, mode).mean(),
            DistSpec::LogNormal { mu, sigma } => LogNormal::new(mu, sigma).mean(),
            DistSpec::Exponential { rate } => Exponential::new(rate).mean(),
        }
    }
}

/// How a workload generates service times.
#[derive(Clone, Debug)]
pub enum ServiceSpec {
    /// Primary and reissue iid from one distribution.
    Iid(DistSpec),
    /// Correlated: `Y = r·x + Z`.
    Correlated {
        /// Base distribution of `X` and `Z`.
        dist: DistSpec,
        /// Linear correlation ratio.
        r: f64,
    },
    /// Trace-driven (measured engine costs, ms).
    Trace {
        /// Per-query costs in milliseconds.
        costs_ms: Vec<f64>,
        /// Relative reissue-cost jitter.
        jitter: f64,
    },
}

impl ServiceSpec {
    /// Mean primary service time.
    pub fn mean(&self) -> f64 {
        match self {
            ServiceSpec::Iid(d) => d.mean(),
            ServiceSpec::Correlated { dist, .. } => dist.mean(),
            ServiceSpec::Trace { costs_ms, .. } => {
                costs_ms.iter().sum::<f64>() / costs_ms.len() as f64
            }
        }
    }

    /// Builds a fresh mutable service model for one run.
    pub fn make_model(&self) -> Box<dyn ServiceModel> {
        match self {
            ServiceSpec::Iid(d) => match *d {
                DistSpec::Pareto { shape, mode } => {
                    Box::new(IidService::new(Pareto::new(shape, mode)))
                }
                DistSpec::LogNormal { mu, sigma } => {
                    Box::new(IidService::new(LogNormal::new(mu, sigma)))
                }
                DistSpec::Exponential { rate } => Box::new(IidService::new(Exponential::new(rate))),
            },
            ServiceSpec::Correlated { dist, r } => match *dist {
                DistSpec::Pareto { shape, mode } => {
                    Box::new(CorrelatedService::new(Pareto::new(shape, mode), *r))
                }
                DistSpec::LogNormal { mu, sigma } => {
                    Box::new(CorrelatedService::new(LogNormal::new(mu, sigma), *r))
                }
                DistSpec::Exponential { rate } => {
                    Box::new(CorrelatedService::new(Exponential::new(rate), *r))
                }
            },
            ServiceSpec::Trace { costs_ms, jitter } => {
                Box::new(TraceService::new(costs_ms.clone(), *jitter))
            }
        }
    }
}

/// A complete, reusable description of a workload: cluster topology,
/// service model and load level. Running it under different policies
/// (or seeds) is how every figure's series is produced.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Human-readable name for logs and CSV output.
    pub name: String,
    /// Cluster topology and scheduling.
    pub cluster: ClusterConfig,
    /// Service-time model.
    pub service: ServiceSpec,
    /// Target utilization; `None` for infinite-server workloads.
    pub utilization: Option<f64>,
    /// Base seed mixed into each run's seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The arrival process implied by the target utilization.
    pub fn arrival(&self) -> ArrivalProcess {
        match self.utilization {
            Some(u) => ArrivalProcess::poisson_for_utilization(
                u,
                self.cluster.servers,
                self.service.mean(),
            ),
            // Infinite servers: rate only sets event spacing, any value
            // works. Keep it near 1/mean so virtual times stay sane.
            None => ArrivalProcess::Poisson {
                rate: 1.0 / self.service.mean().max(1e-9),
            },
        }
    }

    /// Runs the workload under `policy`.
    ///
    /// The run's `arrival` field is overridden by the spec; its seed is
    /// mixed with the spec's so distinct specs decorrelate.
    pub fn run(&self, run: &RunConfig, policy: &ReissuePolicy) -> SimResult {
        let mut model = self.service.make_model();
        let cfg = RunConfig {
            arrival: self.arrival(),
            seed: run.seed ^ self.seed.rotate_left(32).wrapping_mul(0x9E3779B97F4A7C15),
            ..*run
        };
        simulate(&self.cluster, &cfg, &mut *model, policy)
    }

    /// Draws joint `(x, y)` service-time pairs directly from the
    /// service model — the response-time distribution of the
    /// *no-queueing* workloads, used to feed the optimizer without a
    /// simulation run (§4.1/§4.2 inputs for Independent/Correlated).
    pub fn sample_pairs(&self, n: usize, seed: u64) -> Vec<(f64, f64)> {
        let mut model = self.service.make_model();
        let mut rng = stream(self.seed ^ seed, 0x9A1F);
        (0..n)
            .map(|i| {
                let x = model.primary(i, &mut rng);
                let y = model.reissue(i, x, &mut rng);
                (x, y)
            })
            .collect()
    }

    /// Samples `(x, y)` via [`ServiceSpec`] distributions only; panics
    /// for trace workloads if the index range is empty. Convenience for
    /// analytic sanity checks.
    pub fn sample_primaries(&self, n: usize, seed: u64) -> Vec<f64> {
        self.sample_pairs(n, seed)
            .into_iter()
            .map(|p| p.0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simulator::Balancer;

    #[test]
    fn dist_spec_means() {
        assert!(
            (DistSpec::Pareto {
                shape: 1.1,
                mode: 2.0
            }
            .mean()
                - 22.0)
                .abs()
                < 1e-9
        );
        assert!((DistSpec::Exponential { rate: 0.1 }.mean() - 10.0).abs() < 1e-12);
        let ln = DistSpec::LogNormal {
            mu: 1.0,
            sigma: 1.0,
        };
        assert!((ln.mean() - (1.5f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn arrival_rate_scales_with_utilization() {
        let mk = |u| WorkloadSpec {
            name: "t".into(),
            cluster: ClusterConfig {
                servers: 10,
                balancer: Balancer::Random,
                ..ClusterConfig::default()
            },
            service: ServiceSpec::Iid(DistSpec::Exponential { rate: 0.5 }),
            utilization: Some(u),
            seed: 0,
        };
        let (a_lo, a_hi) = (mk(0.2).arrival(), mk(0.4).arrival());
        match (a_lo, a_hi) {
            (ArrivalProcess::Poisson { rate: lo }, ArrivalProcess::Poisson { rate: hi }) => {
                assert!((hi / lo - 2.0).abs() < 1e-9);
            }
            _ => panic!("expected Poisson"),
        }
    }

    #[test]
    fn sample_pairs_trace_replays() {
        let spec = WorkloadSpec {
            name: "trace".into(),
            cluster: ClusterConfig::default(),
            service: ServiceSpec::Trace {
                costs_ms: vec![5.0, 7.0],
                jitter: 0.0,
            },
            utilization: Some(0.3),
            seed: 1,
        };
        let pairs = spec.sample_pairs(4, 0);
        assert_eq!(pairs, vec![(5.0, 5.0), (7.0, 7.0), (5.0, 5.0), (7.0, 7.0)]);
    }
}
