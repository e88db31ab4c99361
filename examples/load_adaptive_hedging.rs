//! Utilization-aware hedging riding out a load surge, live over TCP.
//!
//! Redundancy's benefit flips sign with load: while the cluster has
//! slack a reissue races a fresh replica and trims the tail, but near
//! saturation the duplicate *is* the extra load and hedging feeds the
//! very queues it is trying to escape. A latency-only adapter cannot
//! tell which side of that flip it is on. This example runs the fix
//! end to end:
//!
//! * a 3-replica TCP cluster serves ~1 ms set intersections with a
//!   rare ~9 ms straggler command (the tail worth hedging);
//! * an open-loop generator offers a scripted arrival-rate step —
//!   a calm plateau at ~30% utilization, then a surge to ~95%;
//! * one [`HedgedClient`] runs the online `(d, q)` adapter with a
//!   [`LoadShaper`]: every dispatch and completion feeds the
//!   [`LoadSignal`] estimator, and the estimated utilization ρ̂ damps
//!   the reissue budget toward zero as the cluster saturates.
//!
//! The per-segment report shows the whole story: on the calm plateau
//! the client hedges at its full budget and beats the unhedged tail;
//! during the surge ρ̂ climbs, the damping shuts hedging off, and the
//! aware client degrades no worse than an unhedged one — instead of
//! reissuing the overloaded cluster into collapse.
//!
//! Run with: `cargo run --release --example load_adaptive_hedging`
//!
//! [`LoadSignal`]: reissue_core::load::LoadSignal
//! [`LoadShaper`]: reissue_core::load::LoadShaper

use hedge::harness::{Arrivals, Cluster, LoadConfig, LoadReport, RateEvent};
use hedge::{HedgeConfig, HedgedClient};
use kvstore::{Command, IntSet, KvStore};
use reissue_core::load::LoadShaper;
use reissue_core::online::OnlineConfig;
use reissue_core::policy::ReissuePolicy;

const REPLICAS: usize = 3;
const NANOS_PER_OP: u64 = 250;
/// Bulk query: ~3 800 probe-model ops ≈ 1 ms of service burn.
const SERVICE_MS: f64 = 1.0;
/// One query in this many is the ~9 ms straggler command.
const SLOW_EVERY: usize = 150;
const BUDGET: f64 = 0.08;
/// The scripted plateaus: calm, then a surge to near saturation.
const UTILS: [f64; 2] = [0.3, 0.95];

fn store() -> KvStore {
    let mut s = KvStore::new();
    s.load_set("work", IntSet::from_unsorted((0..400u32).collect()));
    s.load_set("work2", IntSet::from_unsorted((200..600u32).collect()));
    s.load_set("slow", IntSet::from_unsorted((0..3_000u32).collect()));
    s.load_set("slow2", IntSet::from_unsorted((1_500..4_500u32).collect()));
    s
}

fn command(i: usize) -> Command {
    if i % SLOW_EVERY == SLOW_EVERY / 2 {
        Command::SInterCard("slow".into(), "slow2".into())
    } else {
        Command::SInterCard("work".into(), "work2".into())
    }
}

fn arrivals_at(util: f64) -> Arrivals {
    Arrivals::Poisson {
        mean_us: ((SERVICE_MS * 1e3) / (REPLICAS as f64 * util)).max(1.0) as u64,
    }
}

/// Arrivals per plateau.
const QUERIES_PER_PHASE: usize = 1_500;

fn surge_config(q: usize) -> LoadConfig {
    LoadConfig {
        queries: q * UTILS.len(),
        arrivals: arrivals_at(UTILS[0]),
        max_in_flight: 512,
        seed: 0x5D_0AD,
        script: Vec::new(),
        rate_script: vec![RateEvent {
            at_query: q,
            arrivals: arrivals_at(UTILS[1]),
        }],
    }
}

fn run(label: &str, cfg: HedgeConfig, q: usize) -> (LoadReport, HedgedClient) {
    let cluster = Cluster::spawn(REPLICAS, &store(), NANOS_PER_OP).expect("bind replicas");
    let client = HedgedClient::connect(&cluster.addrs(), cfg).expect("connect client");
    let report = cluster.run_load(&client, &surge_config(q), command);
    assert_eq!(report.lost(), 0, "{label}: queries lost");
    (report, client)
}

fn main() {
    let q = QUERIES_PER_PHASE;
    println!(
        "load surge over TCP: {REPLICAS} replicas, {q} arrivals/plateau, \
         utilization {:.0}% -> {:.0}%\n",
        100.0 * UTILS[0],
        100.0 * UTILS[1]
    );

    let (unhedged, _) = run(
        "unhedged",
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: None,
            ..HedgeConfig::default()
        },
        q,
    );
    let (aware, client) = run(
        "aware",
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: Some(OnlineConfig {
                k: 0.99,
                budget: BUDGET,
                window: 1_000,
                reoptimize_every: 200,
                learning_rate: 0.5,
                min_pairs: 32,
                load: Some(LoadShaper::default()),
            }),
            ..HedgeConfig::default()
        },
        q,
    );

    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12}",
        "plateau", "unhedged", "aware P99", "reissue", "rho_hat"
    );
    for (k, &util) in UTILS.iter().enumerate() {
        println!(
            "{:>9.0}% {:>9.2} ms {:>9.2} ms {:>12.4} {:>12.3}",
            100.0 * util,
            unhedged.segments[k].quantile(0.99).unwrap_or(f64::NAN),
            aware.segments[k].quantile(0.99).unwrap_or(f64::NAN),
            aware.segments[k].reissue_rate(),
            aware.segments[k].utilization_mean,
        );
    }

    let snap = client.load_snapshot().expect("load signal active");
    let shaper = LoadShaper::default();
    println!(
        "\nfinal estimator state: rho_hat {:.3} (damping {:.3}), \
         W_bar {:.2} ms, S_bar {:.2} ms, offered {:.0} qps",
        snap.utilization,
        shaper.damping(snap.utilization),
        snap.latency_ewma_ms,
        snap.service_est_ms,
        snap.offered_qps
    );

    // The surge plateau is where load-blind hedging collapses: the
    // aware client must shed no more load than the unhedged baseline
    // and must have throttled its reissue spend.
    let last = UTILS.len() - 1;
    assert!(
        aware.segments[last].drop_rate() <= unhedged.segments[last].drop_rate() + 1e-9,
        "aware hedging shed more load than unhedged under the surge"
    );
    assert!(
        aware.segments[last].reissue_rate() < aware.segments[0].reissue_rate(),
        "the reissue rate must fall as the cluster saturates"
    );
    println!("\nok: hedging paid for itself when calm and got out of the way under the surge");
}
