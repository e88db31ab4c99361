//! The sharded fan-out figure: aggregate-P99 compounding over fan-out
//! width, and per-shard hedging under a shared budget recovering it —
//! all through the real TCP scatter-gather path.
//!
//! A request that fans out to `N` shards completes when its slowest
//! leg does, so independent per-leg noise compounds: with a fraction
//! `p` of legs transiently slow, `1 − (1−p)^N` of fan-outs are slow
//! (§ "The Tail at Scale" regime the paper's single-group experiments
//! factor out). The *independent* noise in a scatter-gather is
//! per-machine, not per-query — every fan-out hits all groups at once,
//! so queueing is correlated across shards — and the figure models it
//! the way the harness always has: scripted transient slowness,
//! staggered across replicas so that ~5% of legs land on a currently
//! degraded replica at any moment regardless of width (see
//! `sickness_script`). [`figtcp_fanout`] sweeps fan-out width
//! {1, 10, 100} × reissue budget {2, 5, 8}%, each width served by a
//! `shard::ShardedCluster` of BM25 index shards (the shared
//! [`ShardedQueryWorkload`], identical traffic to the example and the
//! integration tests), comparing
//!
//! * **unhedged** — the compounding baseline;
//! * **online-correlated** — each leg runs the §4.2 censored-pair
//!   adapter, all legs drawing from one shared cross-shard
//!   `BudgetGovernor`;
//! * **static SingleR** — `(d*, q*)` frozen from the adapted run and
//!   replayed at equal governed budget.
//!
//! The base fan-out count per phase is 6 000 at full scale and 200 at
//! `--fast`, boosted at the narrow widths (see `fanout_queries`).
//! Output also lands in `BENCH_fanout.json` (see the `figures`
//! binary).
//!
//! Reading the output honestly: the recovery comparison is sharpest at
//! widths 1 and 10. Width 100 really serves 200 TCP servers from one
//! process and — at smoke counts — estimates each P99 from a handful
//! of samples, so its hedged columns are noisy; it is in the sweep
//! primarily to exercise (and keep honest) the scatter-gather plumbing
//! and the shared governor at scale, and its unhedged leg-vs-aggregate
//! gap still shows the compounding.

use crate::{median, Scale, Table};

use hedge::{Arrivals, HedgeConfig, LoadConfig, LoadReport, SicknessEvent};
use reissue_core::metrics::LogHistogram;
use reissue_core::online::OnlineConfig;
use reissue_core::policy::ReissuePolicy;
use searchengine::workload::QueryWorkloadConfig;
use searchengine::{CorpusConfig, ShardedQueryWorkload};
use shard::{FanoutClient, ShardedCluster};

/// The fan-out experiments target P99, like the other §6 figures.
const K: f64 = 0.99;
/// Wall-clock service burn per postings-scan unit at width 1 (the
/// other TCP figures' per-op burn). Scaled by the width — see
/// [`nanos_per_op`].
const BASE_NANOS_PER_OP: u64 = 150;

/// Per-op burn for a given fan-out width. Every arrival costs the
/// *client* `width` leg dispatches, so width-independent service times
/// would saturate the single client process long before the servers at
/// width 100 (the harness shares one machine). Scaling the burn —
/// it's a wall-clock sleep, not CPU — slows the arrival rate linearly
/// while holding per-group utilization at [`UTIL`], so client work per
/// second is width-independent and the measured tails reflect the
/// serving path. Absolute P99s therefore differ across widths; the
/// cross-width story is in the *ratios* (aggregate vs leg, hedged vs
/// unhedged).
fn nanos_per_op(width: usize) -> u64 {
    BASE_NANOS_PER_OP * width as u64
}
/// Replicas per shard group — the minimum that lets a leg hedge.
const REPLICAS_PER_SHARD: usize = 2;
/// Per-group offered utilization (arrival rate × mean leg service /
/// replicas). Constant across widths: each arrival sends one query to
/// every group, so group load is width-independent by construction.
const UTIL: f64 = 0.40;
/// Bounded admission on concurrently outstanding *fan-outs*.
const MAX_IN_FLIGHT: usize = 64;

/// Every phase's client config starts here: two connections per
/// replica, not the default four, which at width 100 would open 800
/// client connections (an I/O thread each) beside the 200 servers on
/// the same box.
fn leg_config() -> HedgeConfig {
    HedgeConfig {
        pool_per_replica: 2,
        ..HedgeConfig::default()
    }
}

/// Fan-out widths swept (the (0.99)^N compounding axis).
const WIDTHS: [usize; 3] = [1, 10, 100];
/// Reissue budgets swept (per-leg fraction, shared across shards).
const BUDGETS: [f64; 3] = [0.02, 0.05, 0.08];

/// The shared sharded-search workload at bench scale: per-shard corpus
/// size is constant in the width, so the per-leg service distribution
/// has a width-independent *shape*; only its time scale stretches with
/// [`nanos_per_op`] (see there for why).
fn workload(scale: Scale, shards: usize) -> ShardedQueryWorkload {
    let (num_docs, vocab, mean_doc_len, base_ops, trace_len) = match scale {
        Scale::Full => (1_500, 20_000, 80.0, 6_000, 500),
        Scale::Fast => (400, 8_000, 50.0, 3_000, 300),
    };
    ShardedQueryWorkload::generate(
        shards,
        CorpusConfig {
            num_docs,
            vocab,
            mean_doc_len,
            seed: 0xFA27,
            ..CorpusConfig::default()
        },
        QueryWorkloadConfig {
            num_queries: trace_len,
            base_ops,
            top_k: 10,
            seed: 0xFA28,
            ..QueryWorkloadConfig::default()
        },
        nanos_per_op(shards) as f64,
    )
}

fn load_config(wl: &ShardedQueryWorkload, queries: usize, width: usize) -> LoadConfig {
    let mean_us = (wl.mean_leg_ms() * 1e3 / (REPLICAS_PER_SHARD as f64 * UTIL)).max(1.0) as u64;
    LoadConfig {
        queries,
        arrivals: Arrivals::Poisson { mean_us },
        max_in_flight: MAX_IN_FLIGHT,
        seed: 0x10AD ^ (width as u64) << 8,
        ..LoadConfig::default()
    }
}

/// Discarded fan-outs per phase before measurement starts: fills
/// connection pools, thread stacks, and replica-health EWMAs so
/// cold-start transients don't pollute a P99 that smoke counts
/// estimate from a handful of samples.
const WARMUP_QUERIES: usize = 60;

/// Measured fan-outs per phase at a given width.
///
/// Narrow widths get proportionally more samples: a width-1 phase at
/// the smoke count estimates its P99 from a handful of order
/// statistics, which is exactly the warmup-scale noise that produced
/// non-monotonic budget rows (a *larger* budget showing a *worse*
/// static P99 at width 1). A width-1 arrival costs the client one leg
/// dispatch where width-100 costs a hundred, so boosting the narrow
/// widths is roughly total-work-neutral and leaves the expensive
/// width-100 phases at the base count. Each table records its own
/// `queries_per_phase` so the JSON says how many samples stand behind
/// each width's rows. The base count is 6 000 at full scale and 200 at
/// `--fast`: width 100 really serves 200 servers.
fn fanout_queries(scale: Scale, width: usize) -> usize {
    let base = match scale {
        Scale::Full => 6_000,
        Scale::Fast => 200,
    };
    match width {
        0..=1 => base * 16,
        2..=10 => base * 2,
        _ => base,
    }
}

/// The transient per-machine slowness that makes the tail-at-scale
/// regime: 4× slow windows per replica (one at wide fan-outs, several
/// shorter ones at narrow — see the episode split below), staggered
/// across the middle half of the run so that at any instant
/// `width / 10` replicas are degraded — a constant ~5% of a fan-out's legs land on a currently
/// slow replica *regardless of width*, and the aggregate hit rate
/// compounds as `1 − 0.95^width` ({5%, 40%, 99%} at widths
/// {1, 10, 100}). This is the independent leg noise of "The Tail at
/// Scale": per-query cost is identical for primary and reissue (it is
/// the same query) and queueing is synchronized across groups (every
/// fan-out hits all of them), so *machine state* is what a reissue to
/// the sibling replica can actually dodge. A primary goes to the
/// replica with the fewest of its leg's requests outstanding, which a
/// slow-but-answering replica seldom has at a fan-out's arrival rate;
/// reissue targeting is health-EWMA-aware, so the hedged phases route
/// rescues to the healthy sibling while the unhedged baseline eats
/// most of every window.
fn sickness_script(width: usize, queries: usize) -> Vec<SicknessEvent> {
    let healthy = nanos_per_op(width);
    // Narrow fan-outs split their slow time into several shorter,
    // staggered episodes. At width 1 a single contiguous window means
    // every tail sample comes from one queue-buildup episode, so the
    // P99 estimate carries episode-level variance that no per-phase
    // sample count can average away (the other half of the
    // non-monotonic-budget-rows bug fixed by [`fanout_queries`]). The
    // split preserves both the total degraded time and the
    // instantaneous degraded fraction; wide fan-outs already get many
    // independent windows from the per-replica stagger.
    let episodes = (8 / width).max(1);
    let window = (queries / (20 * episodes)).max(4);
    let span = queries / 2;
    let slots = width * episodes;
    (0..slots)
        .flat_map(|i| {
            let s = i / episodes;
            let start = queries / 4 + i * span / slots;
            // `ShardedCluster::run_load`'s flat replica index.
            let replica = s * REPLICAS_PER_SHARD + s % REPLICAS_PER_SHARD;
            [
                SicknessEvent {
                    at_query: start,
                    replica,
                    nanos_per_op: 4 * healthy,
                },
                SicknessEvent {
                    at_query: (start + window).min(queries.saturating_sub(1)),
                    replica,
                    nanos_per_op: healthy,
                },
            ]
        })
        .collect()
}

/// One phase: fresh fan-out client on the (reused) cluster, a
/// discarded warmup, then the measured open-loop run under the
/// staggered sickness script, whose leg latencies are returned beside
/// its report (the warmup's are not in them). Dropping the previous
/// phase's client first frees its runtime and connections; the cluster
/// is healed before handing the report back.
fn run_phase(
    cluster: &ShardedCluster<searchengine::SearchBackend>,
    wl: &ShardedQueryWorkload,
    queries: usize,
    cfg: HedgeConfig,
) -> (LoadReport, LogHistogram, FanoutClient) {
    let client = FanoutClient::connect(cluster, cfg).expect("connect fan-out client");
    let warm = load_config(wl, WARMUP_QUERIES, cluster.shards());
    let _ = cluster.run_load(&client, &warm, wl.command_fn());
    let mut load = load_config(wl, queries, cluster.shards());
    load.script = sickness_script(cluster.shards(), queries);
    let legs = client.record_legs();
    let report = cluster.run_load(&legs, &load, wl.command_fn());
    cluster.heal_all();
    (report, legs.latencies().all, client)
}

fn agg_p99(report: &LoadReport) -> f64 {
    report.quantile(K).unwrap_or(f64::NAN)
}

/// The adapted `(d*, q*)` to freeze for the static comparator: the
/// median over legs of each leg's online record (legs adapt
/// independently; the median is robust to a leg that never warmed up).
fn median_adapted_policy(client: &FanoutClient) -> (f64, f64) {
    let mut delays = Vec::new();
    let mut probs = Vec::new();
    for s in 0..client.shards() {
        if let Some(rec) = client.leg(s).online_policy() {
            delays.push(rec.delay);
            probs.push(rec.probability);
        }
    }
    if delays.is_empty() {
        return (1.0, 0.0);
    }
    (median(&delays), median(&probs))
}

/// Fan-out width × budget sweep over real TCP: aggregate-P99
/// compounding (unhedged) and its recovery by per-shard hedging under
/// one shared cross-shard budget.
pub fn figtcp_fanout(scale: Scale) -> Vec<Table> {
    let mut tables = Vec::new();

    for &width in &WIDTHS {
        let queries = fanout_queries(scale, width);
        let mut t = Table::new(
            format!("figtcp_fanout_w{width}"),
            &[
                "width",
                "budget",
                "unhedged_leg_p99",
                "unhedged_agg_p99",
                "online_agg_p99",
                "online_rate",
                "static_agg_p99",
                "static_rate",
                "drop_frac",
            ],
        );
        t.queries_per_phase = Some(queries);
        let wl = workload(scale, width);
        let cluster = ShardedCluster::spawn(wl.backends(), REPLICAS_PER_SHARD, nanos_per_op(width))
            .expect("bind shard groups");

        // Unhedged baseline, once per width: both the per-leg and the
        // aggregate tail, so the table shows the compounding directly.
        let (base, base_leg_ms, base_client) = run_phase(&cluster, &wl, queries, leg_config());
        let unhedged_leg_p99 = base_leg_ms.quantile(K).unwrap_or(f64::NAN);
        let unhedged_agg_p99 = agg_p99(&base);
        drop(base_client);

        for &budget in &BUDGETS {
            // Per-leg online-correlated adaptation under the shared
            // cross-shard governor.
            let (online, _, online_client) = run_phase(
                &cluster,
                &wl,
                queries,
                HedgeConfig {
                    // A short window tracks the transient-slowness
                    // regime shifts; re-optimization is throttled at
                    // width 100, where 100 per-leg adapters would
                    // otherwise re-optimize about once per fan-out and
                    // that CPU lands on the serving core.
                    online: Some(OnlineConfig {
                        k: K,
                        budget,
                        window: 300,
                        reoptimize_every: if width >= 100 { 250 } else { 100 },
                        learning_rate: 0.5,
                        min_pairs: 32,
                        load: None,
                    }),
                    ..leg_config()
                },
            );
            let online_p99 = agg_p99(&online);
            let online_rate = online_client.realized_reissue_rate();
            let (d_star, q_star) = median_adapted_policy(&online_client);
            drop(online_client);

            // Static SingleR frozen from the adapted artifacts, same
            // shared governed budget.
            let (stat, _, static_client) = run_phase(
                &cluster,
                &wl,
                queries,
                HedgeConfig {
                    policy: ReissuePolicy::single_r(d_star.max(0.1), q_star.clamp(0.001, 1.0)),
                    budget_cap: Some(1.25 * budget),
                    ..leg_config()
                },
            );
            let static_p99 = agg_p99(&stat);
            let static_rate = static_client.realized_reissue_rate();
            drop(static_client);

            t.push(vec![
                width as f64,
                budget,
                unhedged_leg_p99,
                unhedged_agg_p99,
                online_p99,
                online_rate,
                static_p99,
                static_rate,
                online.drop_rate(),
            ]);
        }
        tables.push(t);
    }
    tables
}
