//! Extension experiments beyond the paper's figures — the ablations
//! DESIGN.md calls out for design choices the paper leaves implicit.
//!
//! * `ext1` — **cancellation**: the paper lets every issued copy run
//!   to completion; production systems (and Lee et al., cited by the
//!   paper) often cancel the loser. How much tail and load does lazy
//!   in-queue cancellation recover, and how much more does stopping
//!   the loser in service (what `hedge::TcpServer` does)?
//! * `ext2` — **reissue routing**: the paper's simulator routes
//!   reissues uniformly at random (possibly back onto the primary's
//!   server); classic hedging avoids the primary's replica. How much
//!   does `AvoidPrimary` matter at various budgets?
//! * `ext3` — **MultipleR in a queueing system**: Theorem 3.2 is proved
//!   in the static model; does one-shot SingleR still match a 3-stage
//!   MultipleR with the same measured budget under queueing feedback?
//! * `ext4` — **correlation-aware online adaptation from censored
//!   pairs**: the `OnlineAdapter` fed raced-hedge pairs (losers
//!   censored at their elapsed-at-cancel bound) vs the same adapter
//!   pinned to the §4.1 independence model, on a noise-band + stall
//!   workload where a correlated redraw wins nothing inside the band.

use crate::{eval_fixed, median, parallel_map, tune_single_r, Scale, Table};
use reissue_core::ReissuePolicy;
use simulator::{Cancellation, ReissueRouting};
use workloads::{queueing, WorkloadSpec};

/// Tail percentile for the extension experiments.
const K: f64 = 0.95;

/// Per-seed paired comparison: tune one policy on `reference` for each
/// seed, evaluate it on the reference and on every variant under the
/// same seed, median the per-seed results. Returns `(p95, rate)` for
/// the reference, then for each variant in order.
fn paired(
    reference: &WorkloadSpec,
    variants: &[&WorkloadSpec],
    queries: usize,
    seeds: &[u64],
    budget: f64,
    trials: usize,
) -> Vec<(f64, f64)> {
    let mut per_spec = vec![(Vec::new(), Vec::new()); 1 + variants.len()];
    for &seed in seeds {
        let tuned = tune_single_r(reference, queries, seed, K, budget, trials, 0.5);
        let specs = std::iter::once(reference).chain(variants.iter().copied());
        for (spec, (latencies, rates)) in specs.zip(&mut per_spec) {
            let eval = eval_fixed(spec, queries, &[seed], K, &tuned.policy);
            latencies.push(eval.latency);
            rates.push(eval.rate);
        }
    }
    per_spec
        .iter()
        .map(|(latencies, rates)| (median(latencies), median(rates)))
        .collect()
}

/// ext1: no cancellation, lazy in-queue cancellation, and in-service
/// cancellation (the TCP server's), across budgets.
pub fn ext1_cancellation(scale: Scale) -> Vec<Table> {
    let queries = scale.queries(40_000);
    let seeds = scale.seeds(3);
    let budgets = [0.05, 0.1, 0.2, 0.3, 0.5];

    let seeds_ref = &seeds;
    let rows: Vec<Vec<f64>> = parallel_map(budgets.to_vec(), |budget| {
        let plain = queueing(0.3, 0.5, 61);
        let mut queued = plain.clone();
        queued.cluster.cancellation = Cancellation::Queued;
        let mut in_service = plain.clone();
        in_service.cluster.cancellation = Cancellation::InService;

        // Tune on the paper's (no-cancel) system per seed, evaluate the
        // same policy under all variants — isolating the cancellation
        // mechanism from tuning differences. (Tuning *on* a cancelling
        // system is also confounded: dropped copies censor the primary
        // response log the optimizer consumes.)
        let r = paired(
            &plain,
            &[&queued, &in_service],
            queries,
            seeds_ref,
            budget,
            scale.trials(6),
        );
        vec![budget, r[0].0, r[1].0, r[2].0, r[0].1, r[1].1, r[2].1]
    });

    let mut t = Table::new(
        "ext1_cancellation",
        &[
            "budget",
            "p95_no_cancel",
            "p95_cancel",
            "p95_in_service",
            "rate_no_cancel",
            "rate_cancel",
            "rate_in_service",
        ],
    );
    for r in rows {
        t.push(r);
    }
    vec![t]
}

/// ext2: reissue routing — Any vs AvoidPrimary.
pub fn ext2_routing(scale: Scale) -> Vec<Table> {
    let queries = scale.queries(40_000);
    let seeds = scale.seeds(3);
    let budgets = [0.05, 0.1, 0.2, 0.3];

    let seeds_ref = &seeds;
    let rows: Vec<Vec<f64>> = parallel_map(budgets.to_vec(), |budget| {
        let any = queueing(0.3, 0.5, 62);
        let mut avoid = any.clone();
        avoid.cluster.reissue_routing = ReissueRouting::AvoidPrimary;

        // One policy per seed, two routing rules (see ext1 on why).
        let r = paired(&any, &[&avoid], queries, seeds_ref, budget, scale.trials(6));
        vec![budget, r[0].0, r[1].0]
    });

    let mut t = Table::new("ext2_routing", &["budget", "p95_any", "p95_avoid_primary"]);
    for r in rows {
        t.push(r);
    }
    vec![t]
}

/// ext3: SingleR vs a 3-stage MultipleR with the same total measured
/// rate, under queueing feedback. Theorem 3.2 says the static-model
/// optimum needs only one stage; this measures whether splitting a
/// tuned policy's budget across stages helps or hurts in a live queue.
pub fn ext3_multiple_r(scale: Scale) -> Vec<Table> {
    let queries = scale.queries(40_000);
    let seeds = scale.seeds(3);
    let budgets = [0.1, 0.2, 0.3];

    let seeds_ref = &seeds;
    let rows: Vec<Vec<f64>> = parallel_map(budgets.to_vec(), |budget| {
        let spec = queueing(0.3, 0.5, 63);
        let mut ls = Vec::new();
        let mut lm = Vec::new();
        let mut rs = Vec::new();
        let mut rm = Vec::new();
        for &seed in seeds_ref {
            let tuned = tune_single_r(&spec, queries, seed, K, budget, scale.trials(6), 0.5);
            let (d, q) = match tuned.policy {
                ReissuePolicy::SingleR { delay, prob } => (delay.max(1e-6), prob),
                _ => (1e-6, 0.0),
            };
            // Split the tuned policy into three stages straddling its
            // delay, each with a third of the probability: same expected
            // number of coin wins, spread in time.
            let multi = ReissuePolicy::multiple_r(vec![
                (0.5 * d, q / 3.0),
                (d, q / 3.0),
                (1.5 * d, q / 3.0),
            ]);
            let single = ReissuePolicy::single_r(d, q);
            let s = eval_fixed(&spec, queries, &[seed], K, &single);
            let m = eval_fixed(&spec, queries, &[seed], K, &multi);
            ls.push(s.latency);
            lm.push(m.latency);
            rs.push(s.rate);
            rm.push(m.rate);
        }
        vec![budget, median(&ls), median(&lm), median(&rs), median(&rm)]
    });

    let mut t = Table::new(
        "ext3_multiple_r",
        &[
            "budget",
            "p95_singler",
            "p95_multipler3",
            "rate_singler",
            "rate_multipler3",
        ],
    );
    for r in rows {
        t.push(r);
    }
    vec![t]
}

/// ext4: correlation-aware online adaptation from censored race pairs.
///
/// Workload: a query's cost is a shared "noise band" component (a fast
/// mode of cheap lookups or a slow mode of heavy queries, jittered)
/// plus a rare *dispatch-specific* stall. A redraw re-samples only the
/// stall and jitter, so hedging inside the band wins nothing — but the
/// marginal reissue distribution is full of fast-mode samples, which
/// fools the independence model into parking `d` inside the band. Both
/// adapters see the identical censored race stream (the loser of each
/// race is censored at its elapsed-at-cancel bound, as the live
/// `hedge::HedgedClient` produces); only the optimizer differs. The
/// realized P95 under each learned policy, replayed on a fresh stream,
/// quantifies the gap the §4.2 correlated path closes.
pub fn ext4_online_correlated(scale: Scale) -> Vec<Table> {
    use distributions::rng::seeded;
    use distributions::{LogNormal, Sample};
    use rand::rngs::SmallRng;
    use rand::Rng;
    use reissue_core::metrics::quantile;
    use reissue_core::online::{OnlineAdapter, OnlineConfig, ReissueOutcome};

    let n = scale.queries(40_000);
    let stall_ps = [0.01, 0.03, 0.05];
    let rows: Vec<Vec<f64>> = parallel_map(stall_ps.to_vec(), |stall_p| {
        let jitter = LogNormal::new(0.0, 0.15);
        let sample_pair = |rng: &mut SmallRng| {
            let c = if rng.gen::<f64>() < 0.55 { 0.1 } else { 3.0 };
            let leg = |rng: &mut SmallRng| {
                c * jitter.sample(rng)
                    + if rng.gen::<f64>() < stall_p {
                        50.0
                    } else {
                        0.0
                    }
            };
            (leg(rng), leg(rng))
        };
        let base = OnlineConfig {
            k: K,
            budget: 0.1,
            window: 8_000,
            reoptimize_every: 2_000,
            learning_rate: 1.0,
            min_pairs: 200,
            load: None,
        };
        let mut corr = OnlineAdapter::new(base);
        let mut ind = OnlineAdapter::new(OnlineConfig {
            min_pairs: usize::MAX,
            ..base
        });
        let mut rng = seeded(0xE4 + (stall_p * 1e3) as u64);
        let d0 = 0.3; // the hypothetical race delay generating pairs
        for _ in 0..n {
            let (x, y) = sample_pair(&mut rng);
            for a in [&mut corr, &mut ind] {
                if x <= d0 {
                    a.observe_primary(x);
                } else if d0 + y < x {
                    a.observe_pair(x, ReissueOutcome::Completed(y));
                } else {
                    a.observe_pair(x, ReissueOutcome::Censored(x - d0));
                }
            }
        }
        // Replay a fresh stream under each learned policy.
        let (pc, pi) = (corr.policy(), ind.policy());
        let replay = |d: f64, q: f64, x: f64, y: f64, rng: &mut SmallRng| {
            if x > d && rng.gen::<f64>() < q {
                x.min(d + y)
            } else {
                x
            }
        };
        let (mut lat_un, mut lat_ind, mut lat_corr) = (
            Vec::with_capacity(n),
            Vec::with_capacity(n),
            Vec::with_capacity(n),
        );
        for _ in 0..n {
            let (x, y) = sample_pair(&mut rng);
            lat_un.push(x);
            lat_ind.push(replay(pi.delay, pi.probability, x, y, &mut rng));
            lat_corr.push(replay(pc.delay, pc.probability, x, y, &mut rng));
        }
        vec![
            stall_p,
            pi.delay,
            pc.delay,
            quantile(&lat_un, K),
            quantile(&lat_ind, K),
            quantile(&lat_corr, K),
        ]
    });

    let mut t = Table::new(
        "ext4_online_correlated",
        &[
            "stall_p",
            "d_independent",
            "d_correlated",
            "p95_unhedged",
            "p95_independent",
            "p95_correlated",
        ],
    );
    for r in rows {
        t.push(r);
    }
    vec![t]
}

/// All extension tables.
pub fn all(scale: Scale) -> Vec<Table> {
    let mut tables = ext1_cancellation(scale);
    tables.extend(ext2_routing(scale));
    tables.extend(ext3_multiple_r(scale));
    tables.extend(ext4_online_correlated(scale));
    tables
}
