//! Hedged requests against a live 3-replica TCP kvstore cluster.
//!
//! This is the paper's §6.2 Redis experiment as a *running system*,
//! built on the scale-out harness (`hedge::harness`): a [`Cluster`]
//! of TCP replicas serves the set-intersection dataset with rare
//! "queries of death" behind round-robin connection sweeps, an
//! open-loop generator offers the trace on a fixed clock, and the
//! shared log-bucketed histogram records every wall-clock latency.
//! A primary goes to the replica with the fewest of this client's
//! requests outstanding, so a replica blocked by a monster gets no
//! more work until it answers; what hedging has left to remove is the
//! body's own queueing, so the phases below now differ by tenths of a
//! millisecond where they used to differ by tens. The run compares:
//!
//! 1. **Unhedged** — every query to one replica, no reissues.
//! 2. **Hedged, independence model** — `hedge::HedgedClient` with the
//!    `OnlineAdapter` pinned to the §4.1 independent optimizer
//!    (`min_pairs: usize::MAX`): the adapter never sees joint samples,
//!    so it prices band hedges off the marginal reissue distribution.
//! 3. **Hedged, correlated** — the same adapter fed censored
//!    `(primary, reissue)` pairs from raced hedges, switching to the
//!    §4.2 correlated optimizer once enough pairs accumulate. This is
//!    the configuration that lets the adapter serve the *true* target
//!    quantile (`k: 0.99`) instead of compensating with an artificially
//!    deep one.
//!
//! Run with: `cargo run --release --example hedged_kv_cluster`
//!
//! `HEDGE_CLUSTER_QUERIES=<n>` shrinks the trace (CI smoke runs); the
//! P99 assertions only apply at full scale, where the tail statistics
//! are stable.

use hedge::harness::{Arrivals, Cluster, LoadConfig, LoadReport};
use hedge::{HedgeConfig, HedgedClient};
use kvstore::dataset::{Dataset, DatasetConfig};
use kvstore::workload::{store_with_monsters, Trace, WorkloadConfig};
use reissue_core::online::OnlineConfig;
use reissue_core::policy::ReissuePolicy;

const REPLICAS: usize = 3;
const WORKERS: usize = 4;
const QUERIES: usize = 6_000;
const BUDGET: f64 = 0.08;
/// The true target quantile. The correlated adapter holds it directly;
/// earlier revisions had to compensate for the independence model's
/// noise-band overvaluation with an artificially deep `k = 0.995`.
const TARGET_K: f64 = 0.99;
const NANOS_PER_OP: u64 = 150;
/// One in `MONSTER_EVERY` queries intersects the two huge sets below —
/// §6.2's rare "query of death" (~500k probe ops ≈ 70 ms of service
/// time vs ~0.5 ms typical). At 0.2% of the trace the monsters sit
/// *below* the P99 rank. Under blind dispatch the P99 measured their
/// head-of-line victims (a third of the ≈87 arrivals of each 70 ms,
/// 49–68 ms). Queue-aware dispatch leaves next to none (13 queries
/// above 10 ms for 12 monsters: an arrival that finds every replica
/// with one request outstanding cannot tell the monster from a regular
/// query), so the unhedged P99 is the body's own queueing, 0.9–1.6 ms,
/// and the hedged phases have a tenth of a millisecond to win or lose.
const MONSTER_EVERY: usize = 500;
/// Open-loop dispatch interval: ~0.8 ms between queries keeps baseline
/// utilization near 25% of the 3-replica cluster's capacity.
const INTERVAL_US: u64 = 800;

fn online_config(min_pairs: usize) -> OnlineConfig {
    OnlineConfig {
        k: TARGET_K,
        budget: BUDGET,
        window: 1_000,
        reoptimize_every: 250,
        learning_rate: 0.5,
        min_pairs,
        load: None,
    }
}

/// Drives the shared trace through the client **open-loop** via the
/// harness: queries are dispatched on a fixed clock regardless of
/// completions, as in the paper's §6 system experiments. (A closed
/// loop would let every stalled query suppress the load that measures
/// the stall.) The harness bounds admission and accounts every
/// arrival; a healthy run loses nothing and fails nothing. Commands
/// come from the shared §6.2 generator
/// (`Trace::monster_command_fn`), queries of death included.
fn run_phase(
    cluster: &Cluster,
    client: &HedgedClient,
    trace: &Trace,
    queries: usize,
) -> LoadReport {
    let report = cluster.run_load(
        client,
        &LoadConfig {
            queries,
            arrivals: Arrivals::Fixed {
                interval_us: INTERVAL_US,
            },
            max_in_flight: 1_024,
            ..LoadConfig::default()
        },
        trace.monster_command_fn(MONSTER_EVERY),
    );
    assert_eq!(report.failed, 0, "no query may fail: {report:?}");
    assert_eq!(report.lost(), 0, "every query must be accounted for");
    report
}

fn report(label: &str, run: &LoadReport, client: &HedgedClient) -> f64 {
    let q = |p| run.quantile(p).unwrap_or(f64::NAN);
    let (p50, p90, p99) = (q(0.50), q(0.90), q(0.99));
    let stats = client.stats();
    let rate = stats.reissues as f64 / stats.queries.max(1) as f64;
    let slow = run.latency_ms.count_over(10.0);
    println!(
        "  {label:<26} P50 {p50:8.2} ms   P90 {p90:8.2} ms   P99 {p99:8.2} ms   \
         >10ms {slow}   reissue rate {:5.1}%   reissue wins {}   cancelled in time {}   \
         pairs {}+{}c   dropped {}",
        100.0 * rate,
        stats.reissue_wins,
        stats.cancelled_in_time,
        stats.pairs_exact,
        stats.pairs_censored,
        run.dropped,
    );
    p99
}

/// Runs one phase over a fresh cluster and returns `(client, p99)`.
fn phase(
    label: &str,
    dataset: &Dataset,
    trace: &Trace,
    queries: usize,
    cfg: HedgeConfig,
) -> (HedgedClient, f64) {
    let cluster =
        Cluster::spawn(REPLICAS, &store_with_monsters(dataset), NANOS_PER_OP).expect("bind");
    let client = HedgedClient::connect(&cluster.addrs(), cfg).expect("connect client");
    let run = run_phase(&cluster, &client, trace, queries);
    let p99 = report(label, &run, &client);
    (client, p99)
}

/// An online-adaptive phase (the `min_pairs` gate selects the §4.1 vs
/// §4.2 optimizer).
fn hedged_phase(
    label: &str,
    dataset: &Dataset,
    trace: &Trace,
    queries: usize,
    min_pairs: usize,
) -> (HedgedClient, f64) {
    phase(
        label,
        dataset,
        trace,
        queries,
        HedgeConfig {
            policy: ReissuePolicy::None, // adapter takes over once warm
            online: Some(online_config(min_pairs)),
            workers: WORKERS,
            ..HedgeConfig::default()
        },
    )
}

fn main() {
    let queries: usize = std::env::var("HEDGE_CLUSTER_QUERIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(QUERIES);
    let full_scale = queries >= QUERIES;

    // A mid-scale instance of the paper's dataset with a mild
    // cardinality spread; the heavy tail comes from the explicitly
    // injected queries of death (see `MONSTER_EVERY`).
    let dataset = Dataset::generate(DatasetConfig {
        num_sets: 300,
        universe: 100_000,
        card_mu: (300.0f64).ln(),
        card_sigma: 0.3,
        seed: 0x5e75,
    });
    let trace = Trace::generate(
        &dataset,
        WorkloadConfig {
            num_queries: queries,
            ns_per_op: NANOS_PER_OP as f64,
            seed: 0xbeef,
        },
    );
    println!(
        "dataset: {} sets + 2 monster sets, trace: {} queries \
         ({} queries of death), target P{:.0} within a {:.0}% budget",
        dataset.sets.len(),
        trace.pairs.len(),
        queries / MONSTER_EVERY,
        100.0 * TARGET_K,
        100.0 * BUDGET,
    );

    // ── Phase 1: no hedging ────────────────────────────────────────
    let (_, p99_unhedged) = phase(
        "unhedged",
        &dataset,
        &trace,
        queries,
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: None,
            workers: WORKERS,
            ..HedgeConfig::default()
        },
    );

    // ── Phase 2: hedged, independence-model SingleR (A) ────────────
    let (ind, p99_ind) = hedged_phase(
        "hedged (independent)",
        &dataset,
        &trace,
        queries,
        usize::MAX, // pin to the §4.1 optimizer: never enough pairs
    );
    let d_ind = ind.online_policy().expect("online adapter active").delay;
    assert_eq!(ind.online_correlated(), Some(false));
    drop(ind);

    // ── Phase 3: hedged, correlated SingleR from censored pairs (B) ─
    let (hedged, p99_hedged) = hedged_phase("hedged (correlated)", &dataset, &trace, queries, 48);
    let final_policy = hedged.policy();
    let record = hedged.online_policy().expect("online adapter active");
    println!(
        "  final correlated policy {final_policy}  (expected budget use {:.3} ≤ {BUDGET}); \
         independent A/B chose d = {d_ind:.2} ms vs correlated d = {:.2} ms",
        record.budget_used, record.delay,
    );

    // Budget adherence, on both layers: the adapter's own `(d, q)`
    // accounting must sit within the configured budget, and the
    // realized reissue rate must stay under the governor's safety
    // valve (1.25× the budget — see `HedgeConfig::budget_cap`).
    let stats = hedged.stats();
    let realized = stats.reissues as f64 / stats.queries.max(1) as f64;
    assert!(
        record.budget_used <= BUDGET + 0.01,
        "adapter policy exceeded the reissue budget: {:.3} > {BUDGET} + 1%",
        record.budget_used
    );
    assert!(
        realized <= 1.25 * BUDGET + 0.01,
        "realized reissue rate {realized:.3} exceeded the governor cap"
    );
    assert!(
        stats.pairs_exact + stats.pairs_censored > 0,
        "raced hedges must produce (primary, reissue) pairs"
    );

    if full_scale {
        assert_eq!(
            hedged.online_correlated(),
            Some(true),
            "correlated optimizer should engage at full scale"
        );
        // Not a strict `<`: primaries dodge a blocked replica by
        // themselves, so there are no head-of-line victims left for a
        // reissue to rescue (13 queries above 10 ms for 12 monsters).
        // Both P99s are the body's own queueing (unhedged 0.89–1.62,
        // hedged 0.91–1.09 ms over six runs) and their order is noise
        // (it flipped in 3 of the 6, by at most 0.2 ms). What the run
        // can still say is that hedging within its budget does not
        // *cost* the tail: 1% relative plus 0.5 ms absolute, since both
        // P99s sit in the low-single-digit body, where half a
        // millisecond of scheduler jitter dwarfs any percentage.
        assert!(
            p99_hedged <= p99_unhedged * 1.01 + 0.5,
            "hedged P99 {p99_hedged:.2} ms must not cost the unhedged \
             {p99_unhedged:.2} ms more than jitter (±1% + 0.5 ms)"
        );
        println!(
            "hedged P99 against unhedged at the true target P{:.0}: \
             {p99_hedged:.2} ms vs {p99_unhedged:.2} ms ({:.2}x; \
             independent-model phase: {p99_ind:.2} ms)",
            100.0 * TARGET_K,
            p99_unhedged / p99_hedged
        );
    } else {
        println!(
            "smoke run ({queries} queries): skipping tail assertions \
             (unhedged {p99_unhedged:.2} ms, independent {p99_ind:.2} ms, \
             correlated {p99_hedged:.2} ms)"
        );
    }
}
