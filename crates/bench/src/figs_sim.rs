//! Generators for the simulation figures (§5): Figures 2–6.

use crate::{
    eval_fixed, eval_tuned_single_d, eval_tuned_single_r, median, parallel_map, tune_single_r,
    EvalStats, Scale, Table,
};
use reissue_core::metrics::quantile;
use reissue_core::ReissuePolicy;
use simulator::{Balancer, Discipline};
use workloads::runner::{optimal_policy_static, single_d_static};
use workloads::{
    correlated, independent, queueing, queueing_custom, DistSpec, RunConfig, WorkloadSpec,
};

/// Tail percentile targeted by the §5 simulation figures.
const K: f64 = 0.95;

/// Budgets swept in Figure 3 (x-axis "Reissue Rate", 0–0.3).
const FIG3_BUDGETS: [f64; 9] = [0.01, 0.02, 0.05, 0.08, 0.10, 0.15, 0.20, 0.25, 0.30];

/// Reissue-rate sweep for Figures 5b/5c (0–0.5).
const FIG5_BUDGETS: [f64; 6] = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5];

/// Figure 2a: inverse CDFs of the Original response-time distribution
/// vs the Primary / Reissue / SingleR distributions under a 30 % budget
/// on the correlated Queueing workload.
pub fn fig2a(scale: Scale) -> Vec<Table> {
    let spec = queueing(0.3, 0.5, 21);
    let queries = scale.queries(50_000);
    let seed = 77;

    let base = spec.run(
        &RunConfig {
            seed,
            ..RunConfig::new(queries)
        },
        &ReissuePolicy::None,
    );
    let adapted = tune_single_r(&spec, queries, seed, K, 0.30, scale.trials(6), 0.2);
    let tuned = spec.run(
        &RunConfig {
            seed: seed + 1,
            ..RunConfig::new(queries)
        },
        &adapted.policy,
    );

    let original = base.latencies();
    let singler = tuned.latencies();
    let primary = tuned.primaries();
    let reissue: Vec<f64> = tuned.pairs().iter().map(|p| p.1).collect();

    let mut t = Table::new(
        "fig2a_inverse_cdf",
        &["cdf", "original", "singler", "reissue", "primary"],
    );
    let mut level = 0.60;
    while level < 0.985 {
        t.push(vec![
            level,
            quantile(&original, level),
            quantile(&singler, level),
            if reissue.is_empty() {
                f64::NAN
            } else {
                quantile(&reissue, level)
            },
            quantile(&primary, level),
        ]);
        level += 0.02;
    }
    vec![t]
}

/// Figure 2b: convergence of the adaptive algorithm — predicted vs
/// actual P95 per adaptive trial (λ = 0.2, B = 30 %).
pub fn fig2b(scale: Scale) -> Vec<Table> {
    let spec = queueing(0.3, 0.5, 22);
    let queries = scale.queries(30_000);
    let result = tune_single_r(&spec, queries, 131, K, 0.30, scale.trials(10), 0.2);
    let mut t = Table::new(
        "fig2b_adaptive_convergence",
        &["trial", "predicted", "actual", "delay", "prob", "rate"],
    );
    for (i, trial) in result.trials.iter().enumerate() {
        t.push(vec![
            i as f64,
            trial.predicted,
            trial.observed,
            trial.delay,
            trial.probability,
            trial.reissue_rate,
        ]);
    }
    vec![t]
}

/// Which §5.1 workload a Figure-3 series belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum W {
    Independent,
    Correlated,
    Queueing,
}

impl W {
    fn spec(self, seed: u64) -> WorkloadSpec {
        match self {
            W::Independent => independent(seed),
            W::Correlated => correlated(0.5, seed),
            W::Queueing => queueing(0.3, 0.5, seed),
        }
    }

    fn label(self) -> &'static str {
        match self {
            W::Independent => "independent",
            W::Correlated => "correlated",
            W::Queueing => "queueing",
        }
    }
}

/// One Figure-3 measurement point.
struct Fig3Point {
    workload: W,
    budget: f64,
    /// Reduction ratio for SingleR / SingleD.
    reduction_r: f64,
    reduction_d: f64,
    single_r: EvalStats,
    single_d: EvalStats,
}

/// Figures 3a/3b/3c: tail-latency reduction ratio, remediation rate and
/// the optimal `(d, q)` per budget, for the three §5.1 workloads under
/// both SingleR and SingleD.
pub fn fig3(scale: Scale) -> Vec<Table> {
    let queries = scale.queries(50_000);
    let seeds = scale.seeds(3);
    let sample_n = scale.queries(100_000);

    // Baselines per workload (median across seeds).
    let baseline = |w: W| -> f64 {
        let vals: Vec<f64> = seeds
            .iter()
            .map(|&s| {
                let spec = w.spec(1);
                eval_fixed(&spec, queries, &[s], K, &ReissuePolicy::None).latency
            })
            .collect();
        median(&vals)
    };
    let base_ind = baseline(W::Independent);
    let base_cor = baseline(W::Correlated);
    let base_que = baseline(W::Queueing);
    let base_of = |w: W| match w {
        W::Independent => base_ind,
        W::Correlated => base_cor,
        W::Queueing => base_que,
    };

    let mut jobs = Vec::new();
    for w in [W::Independent, W::Correlated, W::Queueing] {
        for &b in &FIG3_BUDGETS {
            jobs.push((w, b));
        }
    }

    let seeds_ref = &seeds;
    let points: Vec<Fig3Point> = parallel_map(jobs, |(w, budget)| {
        let spec = w.spec(1);
        let (single_r, single_d) = match w {
            W::Queueing => (
                eval_tuned_single_r(&spec, queries, seeds_ref, K, budget, scale.trials(6), 0.5),
                eval_tuned_single_d(&spec, queries, seeds_ref, K, budget, scale.trials(6)),
            ),
            _ => {
                // Static workloads: one distribution-derived policy,
                // evaluated per seed.
                let opt = optimal_policy_static(&spec, sample_n, K, budget, 9);
                let sd = single_d_static(&spec, sample_n, budget, 9);
                (
                    eval_fixed(&spec, queries, seeds_ref, K, &opt.policy()),
                    eval_fixed(&spec, queries, seeds_ref, K, &sd),
                )
            }
        };
        Fig3Point {
            workload: w,
            budget,
            reduction_r: base_of(w) / single_r.latency,
            reduction_d: base_of(w) / single_d.latency,
            single_r,
            single_d,
        }
    });

    let mut tables = Vec::new();
    for w in [W::Independent, W::Correlated, W::Queueing] {
        let mut a = Table::new(
            format!("fig3a_{}", w.label()),
            &[
                "budget",
                "singler_rate",
                "singler_reduction",
                "singled_rate",
                "singled_reduction",
            ],
        );
        let mut b = Table::new(
            format!("fig3b_{}", w.label()),
            &["budget", "singler_remediation", "singled_remediation"],
        );
        let mut c = Table::new(
            format!("fig3c_{}", w.label()),
            &["budget", "outstanding_at_d", "reissue_prob"],
        );
        for p in points.iter().filter(|p| p.workload == w) {
            a.push(vec![
                p.budget,
                p.single_r.rate,
                p.reduction_r,
                p.single_d.rate,
                p.reduction_d,
            ]);
            b.push(vec![
                p.budget,
                p.single_r.remediation,
                p.single_d.remediation,
            ]);
            c.push(vec![
                p.budget,
                p.single_r.outstanding,
                p.single_r.probability,
            ]);
        }
        tables.push(a);
        tables.push(b);
        tables.push(c);
    }
    tables
}

/// Figure 4: primary-vs-reissue response-time scatter for the
/// Correlated and Queueing workloads (plus Pearson correlations).
pub fn fig4(scale: Scale) -> Vec<Table> {
    let n_points = 2_000usize;
    let queries = scale.queries(20_000);

    // Correlated: response time = service time; sample pairs directly.
    let cor_pairs = correlated(0.5, 31).sample_pairs(n_points, 11);

    // Queueing: run under an immediate probe policy so every query has
    // a (primary, reissue) response pair.
    let que = queueing(0.3, 0.5, 32);
    let run = que.run(
        &RunConfig {
            seed: 33,
            ..RunConfig::new(queries)
        },
        &ReissuePolicy::single_r(0.0, 0.3),
    );
    let que_pairs: Vec<(f64, f64)> = run.pairs().into_iter().take(n_points).collect();

    let mut t_cor = Table::new("fig4_correlated_scatter", &["primary", "reissue"]);
    for (x, y) in &cor_pairs {
        t_cor.push(vec![*x, *y]);
    }
    let mut t_que = Table::new("fig4_queueing_scatter", &["primary", "reissue"]);
    for (x, y) in &que_pairs {
        t_que.push(vec![*x, *y]);
    }
    let mut t_sum = Table::new("fig4_pearson", &["correlated", "queueing"]);
    t_sum.push(vec![
        distributions::pearson(&cor_pairs).unwrap_or(f64::NAN),
        distributions::pearson(&que_pairs).unwrap_or(f64::NAN),
    ]);
    vec![t_cor, t_que, t_sum]
}

/// Figure 5a: P95 vs the service-time correlation ratio `r` at a fixed
/// 25 % reissue budget (Queueing workload), with the no-reissue
/// baseline.
pub fn fig5a(scale: Scale) -> Vec<Table> {
    let queries = scale.queries(40_000);
    // Heavy-tail single-realization P95s are especially wild for this
    // sweep; median over more seeds than the other figures.
    let seeds = scale.seeds(5);
    let ratios: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();

    let seeds_ref = &seeds;
    let rows: Vec<Vec<f64>> = parallel_map(ratios, |r| {
        let spec = queueing(0.3, r, 41);
        let base = eval_fixed(&spec, queries, seeds_ref, K, &ReissuePolicy::None).latency;
        let tuned = eval_tuned_single_r(&spec, queries, seeds_ref, K, 0.25, scale.trials(6), 0.5);
        vec![r, tuned.latency, base, tuned.rate]
    });

    let mut t = Table::new(
        "fig5a_correlation",
        &["ratio", "p95_singler", "p95_noreissue", "rate"],
    );
    for row in rows {
        t.push(row);
    }
    vec![t]
}

/// Figure 5b: P95 vs reissue rate under the three load-balancing
/// strategies (Random / Min-of-Two / Min-of-All).
pub fn fig5b(scale: Scale) -> Vec<Table> {
    sweep_cluster_variants(
        scale,
        "fig5b_lb",
        &[
            ("random", Balancer::Random, Discipline::Fifo),
            ("min_of_two", Balancer::MinOfTwo, Discipline::Fifo),
            ("min_of_all", Balancer::MinOfAll, Discipline::Fifo),
        ],
    )
}

/// Figure 5c: P95 vs reissue rate under the three queue disciplines
/// (Baseline FIFO / Prioritized FIFO / Prioritized LIFO).
pub fn fig5c(scale: Scale) -> Vec<Table> {
    sweep_cluster_variants(
        scale,
        "fig5c_priority",
        &[
            ("baseline_fifo", Balancer::Random, Discipline::Fifo),
            (
                "prioritized_fifo",
                Balancer::Random,
                Discipline::PrioritizedFifo,
            ),
            (
                "prioritized_lifo",
                Balancer::Random,
                Discipline::PrioritizedLifo,
            ),
        ],
    )
}

fn sweep_cluster_variants(
    scale: Scale,
    prefix: &str,
    variants: &[(&str, Balancer, Discipline)],
) -> Vec<Table> {
    let queries = scale.queries(40_000);
    let seeds = scale.seeds(3);
    let dist = DistSpec::Pareto {
        shape: workloads::PAPER_PARETO_SHAPE,
        mode: workloads::PAPER_PARETO_MODE,
    };

    let mut jobs = Vec::new();
    for (vi, v) in variants.iter().enumerate() {
        for &b in &FIG5_BUDGETS {
            jobs.push((vi, *v, b));
        }
    }
    let seeds_ref = &seeds;
    let rows: Vec<(usize, f64, f64, f64)> = parallel_map(jobs, |(vi, (_, lb, disc), budget)| {
        // Figure 5 uses the Queueing workload *without* correlation.
        let spec = queueing_custom(dist, 0.0, 0.3, lb, disc, 51);
        if budget == 0.0 {
            let lat = eval_fixed(&spec, queries, seeds_ref, K, &ReissuePolicy::None).latency;
            (vi, budget, lat, 0.0)
        } else {
            let tuned =
                eval_tuned_single_r(&spec, queries, seeds_ref, K, budget, scale.trials(6), 0.5);
            (vi, budget, tuned.latency, tuned.rate)
        }
    });

    variants
        .iter()
        .enumerate()
        .map(|(vi, (name, _, _))| {
            let mut t = Table::new(
                format!("{prefix}_{name}"),
                &["budget", "p95", "measured_rate"],
            );
            for r in rows.iter().filter(|r| r.0 == vi) {
                t.push(vec![r.1, r.2, r.3]);
            }
            t
        })
        .collect()
}

/// Figure 6: P95 and P99 reduction ratios vs reissue rate for
/// LogNormal(1,1) and Exp(0.1) service times at 20/30/50 % utilization.
pub fn fig6(scale: Scale) -> Vec<Table> {
    let queries = scale.queries(40_000);
    let seeds = scale.seeds(2);
    let dists = [
        (
            "lognormal_1_1",
            DistSpec::LogNormal {
                mu: 1.0,
                sigma: 1.0,
            },
        ),
        ("exp_0_1", DistSpec::Exponential { rate: 0.1 }),
    ];
    let utils = [0.2, 0.3, 0.5];
    let budgets = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5];
    let percentiles = [0.95, 0.99];

    let mut jobs = Vec::new();
    for (di, d) in dists.iter().enumerate() {
        for &u in &utils {
            for &k in &percentiles {
                for &b in &budgets {
                    jobs.push((di, d.1, u, k, b));
                }
            }
        }
    }

    let seeds_ref = &seeds;
    let rows: Vec<(usize, f64, f64, f64, f64, f64)> =
        parallel_map(jobs, |(di, dist, util, k, budget)| {
            let spec = queueing_custom(dist, 0.0, util, Balancer::Random, Discipline::Fifo, 61);
            let base = eval_fixed(&spec, queries, seeds_ref, k, &ReissuePolicy::None).latency;
            let tuned =
                eval_tuned_single_r(&spec, queries, seeds_ref, k, budget, scale.trials(6), 0.5);
            (di, util, k, budget, base / tuned.latency, tuned.rate)
        });

    dists
        .iter()
        .enumerate()
        .flat_map(|(di, (name, _))| percentiles.iter().map(move |&k| (di, *name, k)))
        .map(|(di, name, k)| {
            let mut t = Table::new(
                format!("fig6_{}_p{}", name, (k * 100.0) as u32),
                &["budget", "util20", "util30", "util50"],
            );
            for &b in &budgets {
                let mut row = vec![b];
                for &u in &utils {
                    let v = rows
                        .iter()
                        .find(|r| r.0 == di && r.1 == u && r.2 == k && r.3 == b)
                        .map(|r| r.4)
                        .unwrap_or(f64::NAN);
                    row.push(v);
                }
                t.push(row);
            }
            t
        })
        .collect()
}
