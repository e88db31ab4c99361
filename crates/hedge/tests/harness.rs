//! Integration tests for the scale-out harness (`hedge::harness`):
//! a six-replica cluster under open-loop load with scripted mid-run
//! sickness, and the backpressure guarantees of bounded admission.

use hedge::harness::{run_open_loop, Arrivals, Cluster, LoadConfig, SicknessEvent};
use hedge::{HedgeConfig, HedgedClient};
use kvstore::{Command, IntSet, KvStore};
use reissue_core::policy::ReissuePolicy;

use std::sync::atomic::{AtomicUsize, Ordering};

/// A store whose `SINTERCARD work work2` probes 4 000 members into a
/// 4 000-member set: 50 000 cost units under the probe cost model
/// (`IntSet::intersect_probe`: 12 binary-search steps per probe and one
/// unit per common member), which is what a replica burns; the
/// pre-execution `estimate_cost` reads 4 002.
fn work_store() -> KvStore {
    let mut store = KvStore::new();
    store.load_set("work", IntSet::from_unsorted((0..4_000u32).collect()));
    store.load_set("work2", IntSet::from_unsorted((2_000..6_000u32).collect()));
    store
}

/// Service time of one `work_cmd` on a healthy and on a sick replica.
const HEALTHY_MS: f64 = 1.0;
const SICK_MS: f64 = 20.0;

/// The burn rate at which one `work_cmd` takes `ms` milliseconds, from
/// the cost the store itself charges for the command: a rate written
/// down as a number goes stale when the cost model moves, and the
/// tests then run at a load their comments do not state.
fn nanos_per_op_for(ms: f64) -> u64 {
    let (_, units) = work_store().execute(&work_cmd(0));
    (ms * 1e6 / units as f64).round() as u64
}

fn work_cmd(_i: usize) -> Command {
    Command::SInterCard("work".into(), "work2".into())
}

/// Satellite: 6-replica cluster, open-loop Poisson load, two replicas
/// sickened mid-run (and healed later). The hedged run's P99 must beat
/// the unhedged run's, the realized reissue rate must stay within the
/// governor's budget, and accounting must be exact — every arrival is
/// dispatched or dropped, every dispatched query completes or fails,
/// nothing is lost.
#[test]
fn six_replicas_scripted_sickness_hedged_beats_unhedged() {
    let queries = 900;
    // Sicken replicas 0 and 1 from arrival 250 to arrival 500: a
    // third of the cluster serves 20 ms/query instead of 1 ms. Healthy,
    // 1 000 arrivals/s of 1 ms each on 6 replicas is ρ ≈ 0.17.
    let (healthy, sick) = (nanos_per_op_for(HEALTHY_MS), nanos_per_op_for(SICK_MS));
    let script = vec![
        SicknessEvent {
            at_query: 250,
            replica: 0,
            nanos_per_op: sick,
        },
        SicknessEvent {
            at_query: 250,
            replica: 1,
            nanos_per_op: sick,
        },
        SicknessEvent {
            at_query: 500,
            replica: 0,
            nanos_per_op: healthy,
        },
        SicknessEvent {
            at_query: 500,
            replica: 1,
            nanos_per_op: healthy,
        },
    ];
    let load = LoadConfig {
        queries,
        arrivals: Arrivals::Poisson { mean_us: 1_000 },
        max_in_flight: 512,
        seed: 0xD15EA5E,
        script,
        rate_script: Vec::new(),
    };

    let run = |policy: ReissuePolicy, budget_cap: Option<f64>| {
        let cluster = Cluster::spawn(6, &work_store(), healthy).unwrap();
        let client = HedgedClient::connect(
            &cluster.addrs(),
            HedgeConfig {
                policy,
                budget_cap,
                ..HedgeConfig::default()
            },
        )
        .unwrap();
        let report = cluster.run_load(&client, &load, work_cmd);
        let stats = client.stats();
        (report, stats)
    };

    // ── Unhedged baseline ──────────────────────────────────────────
    let (base, base_stats) = run(ReissuePolicy::None, None);
    assert_eq!(base.dispatched + base.dropped, queries as u64);
    assert_eq!(base.dropped, 0, "unhedged arm saturated");
    assert_eq!(base.lost(), 0, "unhedged run lost queries: {base:?}");
    assert_eq!(base.failed, 0);
    assert_eq!(base_stats.reissues, 0);
    let p99_unhedged = base.quantile(0.99).unwrap();

    // ── Hedged: reissue stragglers at 4 ms, governed at 40% ────────
    let cap = 0.40;
    let (hedged, stats) = run(ReissuePolicy::single_r(4.0, 1.0), Some(cap));
    assert_eq!(hedged.dispatched + hedged.dropped, queries as u64);
    assert_eq!(hedged.dropped, 0, "hedged arm saturated");
    assert_eq!(hedged.lost(), 0, "hedged run lost queries: {hedged:?}");
    assert_eq!(hedged.failed, 0);
    let p99_hedged = hedged.quantile(0.99).unwrap();

    // A sick-replica victim takes ≥ 20 ms unhedged; a hedge to any of
    // the four healthy replicas answers in a few ms. The margin is an
    // order of magnitude, so comparing the two P99s directly is
    // robust to scheduler noise.
    assert!(
        p99_hedged < p99_unhedged,
        "hedged P99 {p99_hedged:.2} ms must beat unhedged {p99_unhedged:.2} ms"
    );
    assert!(
        p99_unhedged > 15.0,
        "sickness script had no effect on the unhedged tail: {p99_unhedged:.2} ms"
    );

    // Realized reissue rate within the governor's budget (+ its burst
    // allowance of ≤ 16 dispatches, a vanishing fraction here).
    let rate = stats.reissues as f64 / stats.queries.max(1) as f64;
    assert!(
        rate <= cap + 16.0 / queries as f64 + 0.005,
        "realized reissue rate {rate:.3} exceeded the {cap} budget"
    );
    assert!(stats.reissues > 0, "the sick window must trigger hedges");

    // Zero lost/unaccounted queries on the client's books too.
    assert_eq!(stats.queries + stats.errors, hedged.dispatched);
}

/// Satellite: at offered load beyond cluster capacity the generator
/// must report drops (not absorb them), keep in-flight bounded, and
/// the run must drain without deadlock.
#[test]
fn overload_reports_drops_and_stays_bounded() {
    // 3 replicas × ~2 ms/query ≈ 1 500 qps capacity; offer 5 000 qps.
    let cluster = Cluster::spawn(3, &work_store(), nanos_per_op_for(2.0)).unwrap();
    let client = HedgedClient::connect(&cluster.addrs(), HedgeConfig::default()).unwrap();
    let queries = 1_500;
    let cap = 32;
    let report = cluster.run_load(
        &client,
        &LoadConfig {
            queries,
            arrivals: Arrivals::Fixed { interval_us: 200 },
            max_in_flight: cap,
            ..LoadConfig::default()
        },
        work_cmd,
    );

    // Every arrival accounted for: dispatched or dropped, never
    // silently absorbed; every dispatch completed or failed.
    assert_eq!(report.dispatched + report.dropped, queries as u64);
    assert_eq!(report.lost(), 0, "overloaded run lost queries: {report:?}");
    assert!(
        report.dropped > 0,
        "utilization > 1 must surface drops: {report:?}"
    );
    assert!(
        report.drop_rate() > 0.2,
        "at >3x capacity the drop rate should be substantial: {:.3}",
        report.drop_rate()
    );
    // The admission bound really bounds the queue (no unbounded
    // in-flight growth, which is the OOM mode this guards against).
    assert!(
        report.peak_in_flight <= cap,
        "in-flight {} exceeded the {cap} bound",
        report.peak_in_flight
    );
    // The histogram recorder holds completed-query latencies only.
    assert_eq!(report.latency_ms.len(), report.completed);
}

/// A scripted arrival-rate ramp must pace AND report per segment:
/// every arrival lands in exactly one segment, segment counters sum
/// to the run totals, each segment reports the process that paced it,
/// and the client-counter deltas tile the client's final totals.
#[test]
fn rate_script_segments_account_exactly() {
    use hedge::harness::RateEvent;

    let cluster = Cluster::spawn(3, &work_store(), nanos_per_op_for(HEALTHY_MS)).unwrap();
    let client = HedgedClient::connect(&cluster.addrs(), HedgeConfig::default()).unwrap();
    let queries = 600;
    let slow = Arrivals::Poisson { mean_us: 2_000 };
    let mid = Arrivals::Poisson { mean_us: 1_000 };
    let fast = Arrivals::Poisson { mean_us: 500 };
    let report = cluster.run_load(
        &client,
        &LoadConfig {
            queries,
            arrivals: slow,
            max_in_flight: 256,
            rate_script: vec![
                // Deliberately unsorted: run_load must sort.
                RateEvent {
                    at_query: 400,
                    arrivals: fast,
                },
                RateEvent {
                    at_query: 200,
                    arrivals: mid,
                },
            ],
            ..LoadConfig::default()
        },
        work_cmd,
    );

    assert_eq!(report.lost(), 0);
    assert_eq!(report.segments.len(), 3, "two events => three segments");
    let bounds: Vec<(usize, usize)> = report.segments.iter().map(|s| (s.start, s.end)).collect();
    assert_eq!(bounds, vec![(0, 200), (200, 400), (400, 600)]);
    // Each segment reports the arrival process that paced it.
    let rates: Vec<f64> = report
        .segments
        .iter()
        .map(|s| s.arrivals.rate_qps())
        .collect();
    assert!(rates[0] < rates[1] && rates[1] < rates[2], "{rates:?}");

    // Segment counters tile the run totals exactly.
    let seg_offered: u64 = report
        .segments
        .iter()
        .map(|s| s.dispatched + s.dropped)
        .sum();
    assert_eq!(seg_offered, queries as u64);
    for s in &report.segments {
        assert_eq!(
            s.dispatched + s.dropped,
            (s.end - s.start) as u64,
            "segment [{}, {}) must account for its own arrivals",
            s.start,
            s.end
        );
        // Histograms record the segment's completed queries only.
        assert_eq!(s.latency_ms.len(), s.completed);
        assert!(s.quantile(0.5).is_some());
        // Not utilization-aware: the client reports no estimate.
        assert!(s.utilization_mean.is_nan());
    }
    let seg_completed: u64 = report.segments.iter().map(|s| s.completed).sum();
    let seg_failed: u64 = report.segments.iter().map(|s| s.failed).sum();
    assert_eq!(seg_completed, report.completed);
    assert_eq!(seg_failed, report.failed);

    // Client-counter deltas tile the client's final totals (snapshots
    // at boundaries, final one after drain).
    let delta_sum: u64 = report.segments.iter().map(|s| s.queries_delta).sum();
    assert_eq!(delta_sum, client.stats().queries);
}

/// A sickness event applies just before the arrival it names: exactly
/// `at_query` commands have been made when it lands, at 20 µs gaps too.
#[test]
fn sickness_events_apply_at_the_arrival_they_name() {
    static MADE: AtomicUsize = AtomicUsize::new(0);
    let cluster = Cluster::spawn(2, &KvStore::new(), 0).unwrap();
    let client = HedgedClient::connect(&cluster.addrs(), HedgeConfig::default()).unwrap();
    let at = [0, 1, 7, 100, 101, 555, 999, 1_000];
    // `replica` numbers the event, so `sicken` can say which one landed.
    let script = at
        .iter()
        .enumerate()
        .map(|(replica, &at_query)| SicknessEvent {
            at_query,
            replica,
            nanos_per_op: 0,
        });
    let mut seen = Vec::new();
    let report = run_open_loop(
        &client,
        &LoadConfig {
            queries: 1_000,
            arrivals: Arrivals::Fixed { interval_us: 20 },
            max_in_flight: 1_000,
            script: script.collect(),
            ..LoadConfig::default()
        },
        |_| {
            MADE.fetch_add(1, Ordering::Relaxed);
            Command::Ping
        },
        |event, _| seen.push((event, MADE.load(Ordering::Relaxed))),
    );
    assert_eq!((report.dropped, report.lost()), (0, 0), "{report:?}");
    let expected: Vec<(usize, usize)> = at.into_iter().enumerate().collect();
    assert_eq!(seen, expected, "(event, commands made when it landed)");
}
