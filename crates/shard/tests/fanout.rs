//! End-to-end scatter-gather tests over real TCP shard groups:
//! aggregate-vs-leg latency, top-k merging, and the shared cross-shard
//! reissue budget, its one rule and under a scripted sick shard.

use kvstore::{Command, KvStore};
use reissue_core::online::OnlineConfig;
use searchengine::workload::QueryWorkloadConfig;
use searchengine::{CorpusConfig, ShardedQueryWorkload};
use shard::{FanoutClient, LegLatencies, ShardedCluster};

use hedge::{Arrivals, HedgeConfig, LoadConfig, SicknessEvent};

fn small_workload(shards: usize) -> ShardedQueryWorkload {
    ShardedQueryWorkload::generate(
        shards,
        CorpusConfig::small(42),
        QueryWorkloadConfig {
            num_queries: 200,
            terms_min: 1,
            terms_max: 3,
            rank_lo: 5,
            rank_hi: 1_500,
            base_ops: 2_000,
            top_k: 5,
            seed: 7,
        },
        150.0,
    )
}

/// One governor rule, one governor: with an online budget `b` the
/// fan-out's governor caps at `1.25 b` and every leg's queries count in
/// it; with neither a budget nor an online config there is none.
#[test]
fn one_governor_follows_the_budget_rule_and_serves_every_leg() {
    let shards = 3;
    let cluster = ShardedCluster::spawn(vec![KvStore::new(); shards], 1, 0).unwrap();
    let budget = 0.04;
    let online = OnlineConfig {
        budget,
        ..OnlineConfig::default()
    };
    let client = FanoutClient::connect(
        &cluster,
        HedgeConfig {
            online: Some(online),
            ..HedgeConfig::default()
        },
    )
    .unwrap();
    let governor = client.governor().expect("online budget");
    assert_eq!(governor.cap(), 1.25 * budget);
    let calls = 7;
    for _ in 0..calls {
        let reply = client.execute_all_blocking(&Command::Ping);
        assert_eq!(reply.ok_legs(), shards);
    }
    assert_eq!(governor.queries(), (calls * shards) as u64);

    let ungoverned = FanoutClient::connect(&cluster, HedgeConfig::default()).unwrap();
    assert!(ungoverned.governor().is_none());
}

#[test]
fn fanout_gathers_all_legs_and_merges_top_k() {
    let wl = small_workload(3);
    let cluster = ShardedCluster::spawn(wl.backends(), 2, 150).unwrap();
    let client = FanoutClient::connect(&cluster, HedgeConfig::default()).unwrap();

    for i in 0..20 {
        let reply = client.execute_all_blocking(&wl.command(i));
        assert_eq!(reply.ok_legs(), 3, "every leg answers on a quiet cluster");
        assert_eq!(reply.failed_legs(), 0);
        // Aggregate latency is the slowest leg plus gather overhead:
        // never below the max, and (on a quiet cluster) not far above.
        assert!(reply.total_ms >= reply.max_leg_ms());
        assert!(
            reply.total_ms - reply.max_leg_ms() < 50.0,
            "gather overhead {:.2} ms",
            reply.total_ms - reply.max_leg_ms()
        );

        let top = reply.merge_top_k(wl.top_k);
        assert!(top.len() <= wl.top_k);
        for pair in top.windows(2) {
            assert!(
                pair[0].score() >= pair[1].score(),
                "merged hits must be score-sorted"
            );
        }
        let mut docs: Vec<u64> = top.iter().map(|h| h.doc).collect();
        docs.dedup();
        assert_eq!(docs.len(), top.len(), "global doc ids never collide");
    }
}

#[test]
fn sick_shard_degrades_gracefully_within_shared_budget() {
    let wl = small_workload(4);
    let cluster = ShardedCluster::spawn(wl.backends(), 3, 150).unwrap();
    let budget = 0.05;
    let client = FanoutClient::connect(
        &cluster,
        HedgeConfig {
            online: Some(OnlineConfig {
                k: 0.99,
                budget,
                window: 500,
                reoptimize_every: 100,
                learning_rate: 0.5,
                min_pairs: 24,
                load: None,
            }),
            ..HedgeConfig::default()
        },
    )
    .unwrap();

    let queries = 400;
    // Replica 0 of shard 2, by `run_load`'s flat index.
    let sick = 2 * cluster.replicas_per_shard();
    let legs = client.record_legs();
    let report = cluster.run_load(
        &legs,
        &LoadConfig {
            queries,
            arrivals: Arrivals::Fixed { interval_us: 2_000 },
            max_in_flight: 64,
            script: vec![
                // One replica of shard 2 goes 40x slow mid-run...
                SicknessEvent {
                    at_query: 100,
                    replica: sick,
                    nanos_per_op: 6_000,
                },
                // ...and heals before the end.
                SicknessEvent {
                    at_query: 300,
                    replica: sick,
                    nanos_per_op: 150,
                },
            ],
            ..LoadConfig::default()
        },
        wl.command_fn(),
    );
    let LegLatencies {
        all: leg_ms,
        by_shard: leg_ms_by_shard,
    } = legs.latencies();

    // Exact accounting: nothing lost, nothing failed outright — a
    // slow replica degrades a leg, hedging and retries absorb it.
    assert_eq!(report.dispatched + report.dropped, queries as u64);
    assert_eq!(report.lost(), 0, "every fan-out must be accounted for");
    assert_eq!(report.failed, 0, "a sick replica must not fail fan-outs");
    assert!(report.completed > 0);

    // Aggregate latency compounds per-leg latency: the all-legs P99
    // cannot be better than the single-leg P99.
    let agg_p99 = report.quantile(0.99).unwrap();
    let leg_p99 = leg_ms.quantile(0.99).unwrap();
    assert!(
        agg_p99 >= leg_p99 * 0.99,
        "aggregate P99 {agg_p99:.2} ms below leg P99 {leg_p99:.2} ms"
    );

    // The shared governor keeps the cluster-wide realized reissue
    // rate within the budget (1.25x headroom) plus its burst
    // allowance, amortized over per-leg queries.
    let governor = client.governor().expect("budget configured");
    let leg_queries = governor.queries().max(1);
    let bound = governor.cap() + governor.burst() / leg_queries as f64 + 0.01;
    assert!(
        governor.realized_rate() <= bound,
        "realized reissue rate {:.4} exceeds bound {:.4}",
        governor.realized_rate(),
        bound
    );

    // The per-shard leg recorders merge losslessly back into the
    // directly recorded leg histogram: identical counts and quantiles.
    let mut merged = reissue_core::metrics::LogHistogram::latency_ms();
    for h in &leg_ms_by_shard {
        merged.merge(h);
    }
    assert_eq!(merged.len(), leg_ms.len());
    for p in [0.5, 0.9, 0.99, 1.0] {
        assert_eq!(
            merged.quantile(p),
            leg_ms.quantile(p),
            "merged per-shard quantile p={p} diverges from direct recording"
        );
    }
    // Bucket counts merge exactly; the mean's sum accumulator adds the
    // same values in a different order, so allow float associativity.
    let (m, d) = (merged.mean().unwrap(), leg_ms.mean().unwrap());
    assert!(
        (m - d).abs() <= 1e-9 * d.abs().max(1.0),
        "merged per-shard mean {m} diverges from direct recording {d}"
    );
}

/// The harness sees one `Result` per fan-out: `Ok` while any leg
/// answers (the dead shard's legs fail and are not timed), `Err` once
/// none does. Accounting only.
#[test]
fn load_counts_a_fanout_failed_only_when_every_leg_did() {
    let cluster = ShardedCluster::spawn(vec![KvStore::new(); 3], 2, 0).unwrap();
    let client = FanoutClient::connect(&cluster, HedgeConfig::default()).unwrap();
    let queries = 120;
    let load = LoadConfig {
        queries,
        arrivals: Arrivals::Fixed { interval_us: 500 },
        max_in_flight: 32,
        ..LoadConfig::default()
    };
    // A shut-down replica's port is free again, and a server of a
    // test running beside this one may be given it and answer: take it
    // back and close whatever connects.
    let shut_down = |shard: usize| {
        for (r, addr) in cluster.group_addrs(shard).into_iter().enumerate() {
            cluster.server(shard, r).shutdown();
            let dead = std::net::TcpListener::bind(addr).unwrap();
            std::thread::spawn(move || dead.incoming().for_each(drop));
        }
    };

    shut_down(1);
    let legs = client.record_legs();
    let report = cluster.run_load(&legs, &load, |_| Command::Ping);
    assert_eq!(report.dispatched + report.dropped, queries as u64);
    assert_eq!(report.failed, 0, "two of three shards still answer");
    assert_eq!(report.completed, report.dispatched);
    assert!(report.completed > 0);
    let LegLatencies { all, by_shard } = legs.latencies();
    assert_eq!(by_shard[0].len(), report.completed);
    assert!(by_shard[1].is_empty(), "a failed leg is not timed");
    assert_eq!(by_shard[2].len(), report.completed);
    assert_eq!(all.len(), 2 * report.completed);

    shut_down(0);
    shut_down(2);
    let legs = client.record_legs();
    let report = cluster.run_load(&legs, &load, |_| Command::Ping);
    assert_eq!(report.dispatched + report.dropped, queries as u64);
    assert_eq!(report.failed, report.dispatched, "no leg answers");
    assert_eq!(report.completed, 0);
    assert!(report.dispatched > 0);
    assert!(legs.latencies().all.is_empty());
}
