//! Generators for the system-experiment figures (§6): Figures 7–9.
//!
//! The paper runs Redis and Lucene on a 10-server testbed; here the
//! engines are this repository's `kvstore` and `searchengine` crates,
//! whose *measured* per-query costs drive the cluster simulator. Every
//! figure reads its costs from [`traces`], which runs the engines once
//! per process and scale.

use crate::{
    eval_fixed, eval_tuned_single_d, eval_tuned_single_r, parallel_map, tune_single_r, Scale, Table,
};
use reissue_core::budget::optimize_budget;
use reissue_core::metrics::{Histogram, LogHistogram};
use reissue_core::ReissuePolicy;
use std::sync::OnceLock;
use workloads::{lucene_cluster, lucene_trace, redis_cluster, redis_trace, WorkloadSpec};

/// The §6 experiments target P99.
const K: f64 = 0.99;

/// The two systems under test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sys {
    Redis,
    Lucene,
}

impl Sys {
    fn label(self) -> &'static str {
        match self {
            Sys::Redis => "redis",
            Sys::Lucene => "lucene",
        }
    }
}

/// Both engine traces at `scale`, `(redis_costs, lucene_costs)`. They
/// are expensive (real engine executions), so each scale's pair is
/// generated on first use and shared by every later figure.
pub fn traces(scale: Scale) -> &'static (Vec<f64>, Vec<f64>) {
    static FULL: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
    static FAST: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
    match scale {
        Scale::Full => FULL.get_or_init(|| generate_traces(scale)),
        Scale::Fast => FAST.get_or_init(|| generate_traces(scale)),
    }
}

fn generate_traces(scale: Scale) -> (Vec<f64>, Vec<f64>) {
    match scale {
        Scale::Full => (redis_trace(1), lucene_trace(1)),
        Scale::Fast => {
            // Scaled-down engines for smoke runs.
            let dataset = kvstore::Dataset::generate(kvstore::DatasetConfig {
                num_sets: 300,
                ..kvstore::DatasetConfig::default()
            });
            let mut t = kvstore::Trace::generate(
                &dataset,
                kvstore::WorkloadConfig {
                    num_queries: 4_000,
                    ..kvstore::WorkloadConfig::default()
                },
            );
            t.calibrate_to_mean(2.366);
            let corpus = searchengine::Corpus::generate(searchengine::CorpusConfig {
                num_docs: 4_000,
                vocab: 8_000,
                ..searchengine::CorpusConfig::default()
            });
            let index = corpus.build_index();
            let mut q = searchengine::QueryTrace::generate(
                &index,
                searchengine::QueryWorkloadConfig {
                    num_queries: 2_000,
                    ..searchengine::QueryWorkloadConfig::default()
                },
                100.0,
            );
            q.calibrate_to_mean(39.73);
            (t.costs_ms, q.costs_ms)
        }
    }
}

fn cluster_for(sys: Sys, costs: &[f64], util: f64, seed: u64) -> WorkloadSpec {
    match sys {
        Sys::Redis => redis_cluster(costs.to_vec(), util, seed),
        Sys::Lucene => lucene_cluster(costs.to_vec(), util, seed),
    }
}

/// Figure 7a: P99 vs reissue rate (0–6 %), SingleR vs SingleD, both
/// systems at 40 % utilization.
pub fn fig7a(scale: Scale) -> Vec<Table> {
    let (redis_costs, lucene_costs) = traces(scale);
    let queries = scale.queries(40_000);
    let seeds = scale.seeds(3);
    let rates = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06];

    let mut jobs = Vec::new();
    for sys in [Sys::Redis, Sys::Lucene] {
        for &b in &rates {
            jobs.push((sys, b));
        }
    }
    let seeds_ref = &seeds;
    let rows: Vec<(Sys, f64, f64, f64, f64, f64)> = parallel_map(jobs, |(sys, budget)| {
        let costs = match sys {
            Sys::Redis => redis_costs,
            Sys::Lucene => lucene_costs,
        };
        let spec = cluster_for(sys, costs, 0.40, 71);
        if budget == 0.0 {
            let lat = eval_fixed(&spec, queries, seeds_ref, K, &ReissuePolicy::None).latency;
            (sys, budget, lat, 0.0, lat, 0.0)
        } else {
            let r = eval_tuned_single_r(&spec, queries, seeds_ref, K, budget, scale.trials(8), 0.5);
            let d = eval_tuned_single_d(&spec, queries, seeds_ref, K, budget, scale.trials(8));
            (sys, budget, r.latency, r.rate, d.latency, d.rate)
        }
    });

    [Sys::Redis, Sys::Lucene]
        .iter()
        .map(|&sys| {
            let mut t = Table::new(
                format!("fig7a_{}", sys.label()),
                &[
                    "budget",
                    "singler_p99",
                    "singler_rate",
                    "singled_p99",
                    "singled_rate",
                ],
            );
            for r in rows.iter().filter(|r| r.0 == sys) {
                t.push(vec![r.1, r.2, r.3, r.4, r.5]);
            }
            t
        })
        .collect()
}

/// Figure 7b: P99 vs reissue rate at 20/40/60 % utilization (SingleR).
pub fn fig7b(scale: Scale) -> Vec<Table> {
    let (redis_costs, lucene_costs) = traces(scale);
    let queries = scale.queries(40_000);
    let seeds = scale.seeds(2);
    let utils = [0.2, 0.4, 0.6];
    let rates = [0.0, 0.01, 0.02, 0.03, 0.05, 0.08];

    let mut jobs = Vec::new();
    for sys in [Sys::Redis, Sys::Lucene] {
        for &u in &utils {
            for &b in &rates {
                jobs.push((sys, u, b));
            }
        }
    }
    let seeds_ref = &seeds;
    let rows: Vec<(Sys, f64, f64, f64, f64)> = parallel_map(jobs, |(sys, util, budget)| {
        let costs = match sys {
            Sys::Redis => redis_costs,
            Sys::Lucene => lucene_costs,
        };
        let spec = cluster_for(sys, costs, util, 72);
        if budget == 0.0 {
            let lat = eval_fixed(&spec, queries, seeds_ref, K, &ReissuePolicy::None).latency;
            (sys, util, budget, lat, 0.0)
        } else {
            let tuned =
                eval_tuned_single_r(&spec, queries, seeds_ref, K, budget, scale.trials(8), 0.5);
            (sys, util, budget, tuned.latency, tuned.rate)
        }
    });

    [Sys::Redis, Sys::Lucene]
        .iter()
        .map(|&sys| {
            let mut t = Table::new(
                format!("fig7b_{}", sys.label()),
                &["budget", "p99_util20", "p99_util40", "p99_util60"],
            );
            for &b in &rates {
                let mut row = vec![b];
                for &u in &utils {
                    let v = rows
                        .iter()
                        .find(|r| r.0 == sys && r.1 == u && r.2 == b)
                        .map(|r| r.3)
                        .unwrap_or(f64::NAN);
                    row.push(v);
                }
                t.push(row);
            }
            t
        })
        .collect()
}

/// Figure 7c: best-budget P99 vs utilization (20–60 %), against the
/// no-reissue baseline. The best budget per utilization comes from the
/// §4.4 expanding binary search.
pub fn fig7c(scale: Scale) -> Vec<Table> {
    let (redis_costs, lucene_costs) = traces(scale);
    let queries = scale.queries(25_000);
    let utils = [0.2, 0.3, 0.4, 0.5, 0.6];
    let search_trials = scale.trials(10);

    let mut jobs = Vec::new();
    for sys in [Sys::Redis, Sys::Lucene] {
        for &u in &utils {
            jobs.push((sys, u));
        }
    }
    let rows: Vec<(Sys, f64, f64, f64, f64)> = parallel_map(jobs, |(sys, util)| {
        let costs = match sys {
            Sys::Redis => redis_costs,
            Sys::Lucene => lucene_costs,
        };
        let spec = cluster_for(sys, costs, util, 73);
        // Common random numbers: every budget probe tunes and measures
        // on the same realization, so probes are comparable.
        let seed = 2000;
        let base = eval_fixed(&spec, queries, &[seed], K, &ReissuePolicy::None).latency;
        let result = optimize_budget(
            |budget| {
                if budget == 0.0 {
                    return base;
                }
                let tuned = tune_single_r(&spec, queries, seed, K, budget, scale.trials(6), 0.5);
                eval_fixed(&spec, queries, &[seed], K, &tuned.policy).latency
            },
            0.01,
            0.3,
            search_trials,
        );
        (sys, util, result.best_budget, result.best_latency, base)
    });

    [Sys::Redis, Sys::Lucene]
        .iter()
        .map(|&sys| {
            let mut t = Table::new(
                format!("fig7c_{}", sys.label()),
                &["util", "best_budget", "best_p99", "noreissue_p99"],
            );
            for r in rows.iter().filter(|r| r.0 == sys) {
                t.push(vec![r.1, r.2, r.3, r.4]);
            }
            t
        })
        .collect()
}

/// Figure 8: the budget binary-search trace on the Redis workload at
/// 20 % utilization — probed budget and P99 per trial.
pub fn fig8(scale: Scale) -> Vec<Table> {
    let (redis_costs, _) = traces(scale);
    let queries = scale.queries(25_000);
    let spec = redis_cluster(redis_costs.to_vec(), 0.20, 73);
    // Same realization as fig7c's 20%-util point, so the two figures
    // tell one consistent story (the expand/halve walk is sensitive to
    // whether its very first +1% probe lands well; the paper's Figure 8
    // likewise shows a single representative search).
    let seed = 2000;
    let result = optimize_budget(
        |budget| {
            if budget == 0.0 {
                return eval_fixed(&spec, queries, &[seed], K, &ReissuePolicy::None).latency;
            }
            let tuned = tune_single_r(&spec, queries, seed, K, budget, scale.trials(8), 0.5);
            eval_fixed(&spec, queries, &[seed], K, &tuned.policy).latency
        },
        0.01,
        0.3,
        scale.trials(14),
    );

    let mut t = Table::new(
        "fig8_budget_search",
        &["trial", "budget", "p99", "best_budget", "best_p99"],
    );
    for (i, trial) in result.trials.iter().enumerate() {
        t.push(vec![
            i as f64,
            trial.budget,
            trial.latency,
            trial.best_budget,
            trial.best_latency,
        ]);
    }
    vec![t]
}

/// Figure 9: service-time histograms (20 ms bins) of the Redis and
/// Lucene traces, plus summary moments matched against the paper's
/// measurements (µ_R = 2.366 ms, σ_R = 8.64; µ_L = 39.73 ms,
/// σ_L = 21.88).
pub fn fig9(scale: Scale) -> Vec<Table> {
    let (redis_costs, lucene_costs) = traces(scale);
    let mut tables = Vec::new();
    for (name, costs) in [("redis", redis_costs), ("lucene", lucene_costs)] {
        let mut h = Histogram::new(20.0, 12); // 20 ms bins to 240 ms
                                              // The shared streaming recorder carries the summary moments
                                              // exactly (and the >100 ms mass at its bucket resolution) —
                                              // this used to be a second hand-rolled pass over the costs.
        let mut stream = LogHistogram::latency_ms();
        for &c in costs {
            h.record(c);
            stream.record(c);
        }
        let mut t = Table::new(format!("fig9_{name}_hist"), &["bin_mid_ms", "count"]);
        for (mid, count) in h.bins() {
            t.push(vec![mid, count as f64]);
        }
        t.push(vec![f64::INFINITY, h.overflow() as f64]);
        tables.push(t);

        let mut s = Table::new(
            format!("fig9_{name}_stats"),
            &["mean_ms", "std_ms", "frac_above_100ms", "max_ms"],
        );
        s.push(vec![
            stream.mean().unwrap_or(f64::NAN),
            stream.std().unwrap_or(f64::NAN),
            // Exact, not `stream.count_over(100.0)`: 100 ms is not a
            // bucket boundary, and this is a published paper statistic
            // while the costs are in hand anyway.
            costs.iter().filter(|&&c| c > 100.0).count() as f64 / costs.len().max(1) as f64,
            stream.max().unwrap_or(f64::NAN),
        ]);
        tables.push(s);
    }
    tables
}
