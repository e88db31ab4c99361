//! Sharded scatter-gather search over real TCP: the tail-at-scale
//! compounding effect, and per-shard hedging under one shared
//! cross-shard budget recovering it.
//!
//! A query fanned out to `N` document-partitioned index shards
//! completes when its *slowest* leg does, so a 1% per-leg tail becomes
//! a `1 − 0.99^N` aggregate tail. This demo spins up 16 BM25 shard
//! groups × 2 replicas behind real sockets with transient per-replica
//! slow windows (the independent machine noise a fan-out compounds),
//! measures the unhedged aggregate tail, then hedges per shard under
//! one shared cross-shard reissue budget: a static deep-delay SingleR
//! (which self-targets the stragglers and recovers the tail) and the
//! per-leg online adapter (which demonstrates governed budget sharing;
//! allocating a shared budget *across* legs by need is open work —
//! each leg adapts to its own traffic only).
//!
//! ```text
//! cargo run --release --example sharded_search_fanout
//! ```

use reissue::hedge::{Arrivals, HedgeConfig, LoadConfig, SicknessEvent};
use reissue::online::OnlineConfig;
use reissue::policy::ReissuePolicy;
use reissue::search::{CorpusConfig, QueryWorkloadConfig, ShardedQueryWorkload};
use reissue::shard::{FanoutClient, ShardedCluster};

const SHARDS: usize = 16;
const REPLICAS: usize = 2;
/// Per-op burn, scaled with the fan-out width: every arrival costs the
/// client SHARDS leg dispatches, and this demo shares one machine with
/// its 32 servers — slower (sleep-based) service keeps the client off
/// the critical path while per-group utilization stays fixed.
const NANOS_PER_OP: u64 = 150 * SHARDS as u64;
const QUERIES: usize = 600;
const BUDGET: f64 = 0.05;
/// Offered per-group utilization (arrival rate x mean leg service /
/// replicas).
const UTIL: f64 = 0.40;

fn main() {
    // One corpus + index per shard, one shared query log: the same
    // workload the fan-out bench figure and integration tests use.
    let wl = ShardedQueryWorkload::generate(
        SHARDS,
        CorpusConfig {
            num_docs: 400,
            vocab: 8_000,
            mean_doc_len: 50.0,
            seed: 0xFA27,
            ..CorpusConfig::default()
        },
        QueryWorkloadConfig {
            num_queries: 300,
            base_ops: 3_000,
            top_k: 10,
            seed: 0xFA28,
            ..QueryWorkloadConfig::default()
        },
        NANOS_PER_OP as f64,
    );
    let cluster =
        ShardedCluster::spawn(wl.backends(), REPLICAS, NANOS_PER_OP).expect("bind shard groups");
    println!(
        "cluster: {SHARDS} shard groups x {REPLICAS} replicas, mean leg {:.2} ms",
        wl.mean_leg_ms()
    );

    // Open-loop Poisson pacing at 40% per-group utilization, with the
    // tail-at-scale ingredient: transient 4x slow windows staggered
    // across replicas (the independent per-machine noise a fan-out
    // compounds — with ~2.5% of legs degraded at any moment, a third
    // of 16-wide fan-outs touch a slow replica). A primary goes to the
    // replica with the fewest outstanding, which only sees a slow
    // replica while a request is stuck on it; reissues are
    // health-aware, so the hedged phase can route around what the
    // baseline must still eat.
    let mean_us = (wl.mean_leg_ms() * 1e3 / (REPLICAS as f64 * UTIL)).max(1.0) as u64;
    let window = QUERIES / 10;
    let script: Vec<SicknessEvent> = (0..4)
        .flat_map(|i| {
            // Replica `i % REPLICAS` of shard `2 + 4 i`, by the flat
            // index `ShardedCluster::run_load` scripts sickness with.
            let replica = (2 + 4 * i) * REPLICAS + i % REPLICAS;
            let start = QUERIES / 4 + i * QUERIES / 8;
            [
                SicknessEvent {
                    at_query: start,
                    replica,
                    nanos_per_op: 4 * NANOS_PER_OP,
                },
                SicknessEvent {
                    at_query: start + window,
                    replica,
                    nanos_per_op: NANOS_PER_OP,
                },
            ]
        })
        .collect();
    let warmup = LoadConfig {
        queries: 60,
        arrivals: Arrivals::Poisson { mean_us },
        max_in_flight: 32,
        ..LoadConfig::default()
    };
    let load = LoadConfig {
        queries: QUERIES,
        script,
        ..warmup.clone()
    };

    // Every phase's client starts from two connections per replica, not
    // the default four: 16 legs x 2 replicas x 2 is already 64 client
    // connections beside the 32 servers on this box.
    let leg = HedgeConfig {
        pool_per_replica: 2,
        ..HedgeConfig::default()
    };

    // Phase 1 — unhedged: watch the per-leg tail compound.
    let base_client = FanoutClient::connect(&cluster, leg.clone()).expect("connect fan-out client");
    let _ = cluster.run_load(&base_client, &warmup, wl.command_fn());
    let base_legs = base_client.record_legs();
    let base = cluster.run_load(&base_legs, &load, wl.command_fn());
    cluster.heal_all();
    let leg_p99 = base_legs.latencies().all.quantile(0.99).unwrap_or(f64::NAN);
    let agg_p99 = base.quantile(0.99).unwrap_or(f64::NAN);
    println!(
        "\nunhedged: leg P99 = {:.1} ms, aggregate P99 = {:.1} ms \
         (max over {SHARDS} legs; 1 - 0.99^{SHARDS} = {:.0}% of fan-outs \
         see at least one leg past its P99)",
        leg_p99,
        agg_p99,
        100.0 * (1.0 - 0.99f64.powi(SHARDS as i32))
    );
    drop((base_legs, base_client));

    // Phase 2 — per-shard static SingleR under one shared cross-shard
    // budget. A deep delay self-targets the stragglers: on a healthy
    // leg almost nothing is still outstanding at 3x the mean, so the
    // shared budget concentrates on exactly the legs stuck behind a
    // slow machine, and the health-EWMA routes each rescue to the
    // healthy sibling.
    let deep_d = 3.0 * wl.mean_leg_ms();
    let hedged_client = FanoutClient::connect(
        &cluster,
        HedgeConfig {
            policy: ReissuePolicy::single_r(deep_d, 1.0),
            budget_cap: Some(1.25 * BUDGET),
            ..leg.clone()
        },
    )
    .expect("connect hedged fan-out client");
    let _ = cluster.run_load(&hedged_client, &warmup, wl.command_fn());
    let hedged = cluster.run_load(&hedged_client, &load, wl.command_fn());
    cluster.heal_all();
    println!(
        "hedged (reissue past d = {:.0} ms) @ {:.0}% shared budget: \
         aggregate P99 = {:.1} ms ({:.0}% lower), reissue rate {:.1}%",
        deep_d,
        100.0 * BUDGET,
        hedged.quantile(0.99).unwrap_or(f64::NAN),
        100.0 * (1.0 - hedged.quantile(0.99).unwrap_or(f64::NAN) / agg_p99),
        100.0 * hedged_client.realized_reissue_rate()
    );
    drop(hedged_client);

    // Phase 3 — per-leg online adaptation, same shared governor: each
    // leg learns its own (d, q) from live traffic while the governor
    // holds global reissue spend at the budget no matter the width.
    let online_client = FanoutClient::connect(
        &cluster,
        HedgeConfig {
            online: Some(OnlineConfig {
                k: 0.99,
                budget: BUDGET,
                window: 500,
                reoptimize_every: 100,
                learning_rate: 0.5,
                min_pairs: 24,
                load: None,
            }),
            ..leg
        },
    )
    .expect("connect online fan-out client");
    let _ = cluster.run_load(&online_client, &warmup, wl.command_fn());
    let online = cluster.run_load(&online_client, &load, wl.command_fn());
    cluster.heal_all();
    println!(
        "online-adapted @ {:.0}% shared budget: aggregate P99 = {:.1} ms, \
         reissue rate {:.1}% (governed across all {SHARDS} legs)",
        100.0 * BUDGET,
        online.quantile(0.99).unwrap_or(f64::NAN),
        100.0 * online_client.realized_reissue_rate()
    );

    // One real scatter-gather, merged: top-k across every shard.
    let reply = online_client.execute_all_blocking(&wl.command(0));
    let merged = reply.merge_top_k(wl.top_k);
    println!(
        "\nsample fan-out: {} legs ok, slowest leg {:.2} ms, merged top-{}:",
        reply.ok_legs(),
        reply.max_leg_ms(),
        wl.top_k
    );
    for h in merged.iter().take(5) {
        println!("  doc {:>6}  score {:.3}", h.doc, h.score());
    }
}
