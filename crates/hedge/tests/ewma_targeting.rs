//! Regression test for per-replica health EWMA reissue targeting:
//! with one replica forced slow, the client's reissue target
//! distribution must shift away from it within a bounded number of
//! requests — and must return once the replica heals. Raw in-flight
//! counts cannot pass this test: the slow replica answers its (few)
//! executing commands and holds no client-visible queue, so by load
//! alone it looks as idle as the healthy ones.

use hedge::{HedgeConfig, HedgedClient, TcpServer, TcpServerConfig};
use kvstore::{Command, IntSet, KvStore, Reply};
use reissue_core::policy::ReissuePolicy;

use std::time::Duration;

/// Service burn while healthy: ~100 probe ops × 8 µs ≈ 1 ms.
const HEALTHY_NANOS_PER_OP: u64 = 8_000;
/// Service burn while sick: ~100 probe ops × 800 µs ≈ 80 ms.
const SICK_NANOS_PER_OP: u64 = 800_000;
const SICK_REPLICA: usize = 2;

fn store() -> KvStore {
    let mut store = KvStore::new();
    store.load_set(
        "evens",
        IntSet::from_unsorted((0..100u32).map(|i| i * 2).collect()),
    );
    store.load_set(
        "threes",
        IntSet::from_unsorted((0..100u32).map(|i| i * 3).collect()),
    );
    store
}

fn run_queries(client: &HedgedClient, n: usize) {
    for _ in 0..n {
        let r = client
            .execute_blocking(Command::SInterCard("evens".into(), "threes".into()))
            .unwrap();
        assert_eq!(r, Reply::Int(34));
    }
}

/// Reissue-target share of each replica between two count snapshots.
fn target_shares(before: &[u64], after: &[u64]) -> Vec<f64> {
    let total: u64 = after
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .sum::<u64>()
        .max(1);
    after
        .iter()
        .zip(before)
        .map(|(a, b)| (a - b) as f64 / total as f64)
        .collect()
}

#[test]
fn reissue_targets_shift_away_from_sick_replica_and_return() {
    let cfg = TcpServerConfig {
        nanos_per_op: HEALTHY_NANOS_PER_OP,
        ..TcpServerConfig::default()
    };
    let servers: Vec<TcpServer> = (0..3)
        .map(|_| TcpServer::bind("127.0.0.1:0", store(), cfg).unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.local_addr()).collect();

    // Hedge every query immediately (SingleD, d = 0): each query
    // dispatches one reissue, so the target counters accumulate one
    // sample per query and the shares below are over exactly N draws.
    let client = HedgedClient::connect(
        &addrs,
        HedgeConfig {
            policy: ReissuePolicy::single_d(0.0),
            ..HedgeConfig::default()
        },
    )
    .unwrap();

    // Warm-up: all replicas healthy, health EWMAs seeded with real
    // samples so the sick phase starts from an honest baseline.
    run_queries(&client, 200);

    // ── Sick phase ─────────────────────────────────────────────────
    servers[SICK_REPLICA].set_nanos_per_op(SICK_NANOS_PER_OP);
    let before_sick = client.reissue_target_counts();
    run_queries(&client, 600);
    let after_sick = client.reissue_target_counts();
    let sick_shares = target_shares(&before_sick, &after_sick);

    // The bound: 600 requests must be enough for the shift. The EWMA
    // needs only a handful of ~80 ms completions (α = 0.1: one sample
    // already lifts the EWMA ~8x above a 1 ms baseline) before every
    // score comparison demotes the sick replica; the ceiling of 0.15
    // allows the pre-detection draws (the sick replica's first slow
    // command has to *complete* before the EWMA can see it) plus
    // stragglers, while the healthy-phase share of a 3-replica set is
    // ~0.33.
    assert!(
        sick_shares[SICK_REPLICA] < 0.15,
        "sick replica still receives {:.1}% of reissues: {sick_shares:?}",
        100.0 * sick_shares[SICK_REPLICA]
    );
    let (lat_sick, _) = client.replica_health(SICK_REPLICA);
    let healthy_max = (0..3)
        .filter(|&i| i != SICK_REPLICA)
        .map(|i| client.replica_health(i).0)
        .fold(0.0f64, f64::max);
    assert!(
        lat_sick > 3.0 * healthy_max,
        "sick replica's latency EWMA {lat_sick:.2} ms must stand out \
         from healthy {healthy_max:.2} ms"
    );

    // ── Heal phase ─────────────────────────────────────────────────
    servers[SICK_REPLICA].set_nanos_per_op(HEALTHY_NANOS_PER_OP);
    // Let the sick replica's in-flight tail (≤ one ~80 ms command per
    // pooled connection) drain before measuring recovery.
    std::thread::sleep(Duration::from_millis(400));
    let before_heal = client.reissue_target_counts();
    run_queries(&client, 900);
    let after_heal = client.reissue_target_counts();
    let heal_shares = target_shares(&before_heal, &after_heal);

    // Recovery path: the healed replica keeps receiving primaries
    // (it answers, so nothing of this sequential client is outstanding
    // on it at pick time and it keeps its turn in the rotation), whose
    // fast completions decay the EWMA back toward the baseline;
    // reissue targeting follows. The floor of 0.12 is far above the ~0 share a
    // never-recovering score would produce, yet comfortably below the
    // ~1/3 steady state, so it tolerates the early healed-phase draws
    // that still avoid the replica.
    assert!(
        heal_shares[SICK_REPLICA] > 0.12,
        "healed replica regains reissue traffic: {heal_shares:?}"
    );
    assert!(
        heal_shares[SICK_REPLICA] > 2.0 * sick_shares[SICK_REPLICA].max(0.01),
        "healed share {:.2} must clearly exceed sick share {:.2}",
        heal_shares[SICK_REPLICA],
        sick_shares[SICK_REPLICA]
    );
    let (lat_healed, _) = client.replica_health(SICK_REPLICA);
    assert!(
        lat_healed < lat_sick / 2.0,
        "latency EWMA must decay after healing: {lat_sick:.2} -> {lat_healed:.2} ms"
    );
}
