//! Scale-out cluster harness: programmatic N-replica TCP clusters,
//! open-loop load generation with bounded admission, and streaming
//! latency recording.
//!
//! Every scale experiment in this repository needs the same three
//! pieces:
//!
//! * a **[`Cluster`]** — `n` [`TcpServer`] replicas of one dataset
//!   snapshot on ephemeral local ports, with live per-replica
//!   [`Cluster::set_nanos_per_op`] so a running replica can be
//!   sickened or healed mid-experiment;
//! * an **open-loop load generator** ([`Cluster::run_load`]) — queries
//!   arrive on a clock ([`Arrivals`]: fixed-interval or Poisson)
//!   *regardless of completions*, as in the paper's §6 system
//!   experiments. Admission is bounded: at most
//!   [`LoadConfig::max_in_flight`] queries may be outstanding, and an
//!   arrival that finds the window full is **dropped and counted** —
//!   never silently absorbed, and never allowed to queue unboundedly
//!   inside the client (`arrivals == dispatched + dropped` always
//!   holds, which is what keeps an over-capacity run from deadlocking
//!   or eating the heap);
//! * a **streaming latency recorder** — per-query wall-clock latencies
//!   land in their segment's [`LogHistogram`] (log-bucketed, 1%
//!   relative quantile error, constant memory, merged into the run's
//!   at the end), so a million-query sweep costs a few hundred
//!   counters instead of a sorted `Vec` per quantile.
//!
//! Completion accounting is exact: every dispatched query resolves as
//! either `completed` or `failed`, and [`LoadReport::lost`] — the
//! difference — must be zero for a healthy run (the harness
//! integration tests assert it).
//!
//! A run is one future on the calling thread ([`run_open_loop`]): it
//! applies each [`SicknessEvent`] and [`RateEvent`] just before the
//! arrival it names, and waits only on the client runtime's timers:
//! one per arrival gap, then 1 ms ones until the last query resolves.
//!
//! ```no_run
//! use hedge::harness::{Arrivals, Cluster, LoadConfig};
//! use hedge::{HedgeConfig, HedgedClient};
//! use kvstore::{Command, KvStore};
//!
//! let cluster = Cluster::spawn(6, &KvStore::new(), 200).unwrap();
//! let client = HedgedClient::connect(&cluster.addrs(), HedgeConfig::default()).unwrap();
//! let report = cluster.run_load(
//!     &client,
//!     &LoadConfig {
//!         queries: 10_000,
//!         arrivals: Arrivals::Poisson { mean_us: 500 },
//!         ..LoadConfig::default()
//!     },
//!     |_i| Command::Ping,
//! );
//! println!("P99 {:?} ms, dropped {}", report.quantile(0.99), report.dropped);
//! ```

use crate::client::HedgedClient;
use crate::rt::Runtime;
use crate::server::{spawn_replicas, TcpServer, TcpServerConfig};
use crate::transport::TransportError;

use kvstore::{Backend, Command, KvStore, Reply};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reissue_core::metrics::LogHistogram;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What [`Cluster::run_load`] needs from a client: the open-loop
/// generator is agnostic to *how* a query is served (one hedged
/// replica read, a k-of-n fragment fan-out, …) as long as it can spawn
/// `'static` execute futures on the client's runtime and snapshot two
/// counters for per-segment reissue-rate deltas. [`HedgedClient`],
/// `erasure::StripedClient` and `shard::FanoutClient` (a whole
/// scatter-gather per arrival) implement it, so every load experiment
/// shares one pacer, admission bound, and drain loop.
pub trait LoadClient {
    /// The runtime whose timers pace the run and whose workers run the
    /// completion tasks.
    fn load_runtime(&self) -> &Runtime;

    /// Issues one command. The future must be `'static`: it is spawned
    /// onto the runtime and may outlive the caller's borrow.
    fn load_execute(
        &self,
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static;

    /// `(completed queries, dispatched reissues)` counter snapshot —
    /// segment boundaries report deltas of these.
    fn load_counters(&self) -> (u64, u64);

    /// The client's live utilization estimate ρ̂, if it keeps one.
    fn load_utilization(&self) -> Option<f64> {
        None
    }
}

impl LoadClient for HedgedClient {
    fn load_runtime(&self) -> &Runtime {
        self.runtime()
    }

    fn load_execute(
        &self,
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        self.execute(cmd)
    }

    fn load_counters(&self) -> (u64, u64) {
        let s = self.stats();
        (s.queries, s.reissues)
    }

    fn load_utilization(&self) -> Option<f64> {
        self.utilization()
    }
}

/// Inter-arrival process of the open-loop generator.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Fixed inter-arrival gap (a deterministic pacer).
    Fixed {
        /// Microseconds between consecutive arrivals.
        interval_us: u64,
    },
    /// Poisson arrivals: exponential inter-arrival times with the
    /// given mean (the memoryless open-loop load of the paper's §6
    /// experiments; drawn from [`LoadConfig::seed`]).
    Poisson {
        /// Mean inter-arrival time, microseconds.
        mean_us: u64,
    },
}

impl Arrivals {
    /// Mean arrival rate in queries per second.
    pub fn rate_qps(&self) -> f64 {
        match *self {
            Arrivals::Fixed { interval_us } => 1e6 / interval_us.max(1) as f64,
            Arrivals::Poisson { mean_us } => 1e6 / mean_us.max(1) as f64,
        }
    }

    /// The gap to sleep after an arrival.
    fn gap_after(&self, rng: &mut SmallRng) -> Duration {
        match *self {
            Arrivals::Fixed { interval_us } => Duration::from_micros(interval_us),
            Arrivals::Poisson { mean_us } => {
                // Inverse-CDF exponential draw, kept below the µs (a
                // whole-µs floor would shorten the mean gap by half a
                // µs); clamp the log away from 0 so a pathological RNG
                // value cannot produce ∞.
                let u: f64 = rng.gen::<f64>().max(1e-12);
                Duration::from_secs_f64(-u.ln() * mean_us as f64 * 1e-6)
            }
        }
    }
}

/// One scripted mid-run change to a replica's service speed: applied
/// before arrival `at_query` is offered, so exactly `at_query`
/// arrivals (dispatched or dropped) precede it. Sicken a replica by
/// raising `nanos_per_op`, heal it by restoring the baseline.
#[derive(Clone, Copy, Debug)]
pub struct SicknessEvent {
    /// Arrival index at which to apply the change.
    pub at_query: usize,
    /// Target replica index.
    pub replica: usize,
    /// New wall-clock nanoseconds per unit of store cost.
    pub nanos_per_op: u64,
}

/// One scripted mid-run change to the *arrival process*: from arrival
/// `at_query` onward the generator paces with `arrivals`. The
/// load-ramp analogue of [`SicknessEvent`] — sweeping utilization
/// mid-run (e.g. 0.3 → 0.9) is a sequence of `RateEvent`s raising the
/// offered rate while the same client keeps serving.
///
/// Every `RateEvent` also marks a **segment boundary**: the run's
/// [`LoadReport::segments`] carry per-phase latency histograms, drop
/// counts and client reissue-rate deltas, so a ramp run reports each
/// utilization plateau separately instead of one blended histogram.
#[derive(Clone, Copy, Debug)]
pub struct RateEvent {
    /// Arrival index from which the new process paces the generator.
    pub at_query: usize,
    /// The arrival process in force from that point on.
    pub arrivals: Arrivals,
}

/// Configuration for one open-loop load run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Number of arrivals to offer.
    pub queries: usize,
    /// The inter-arrival process.
    pub arrivals: Arrivals,
    /// Bound on concurrently outstanding queries. An arrival beyond
    /// the bound is dropped (and reported), which is what keeps an
    /// over-capacity run from accumulating unbounded in-flight state.
    pub max_in_flight: usize,
    /// Seed for the arrival process (Poisson draws).
    pub seed: u64,
    /// Scripted per-replica sickness/heal events, applied by arrival
    /// index. Need not be sorted.
    pub script: Vec<SicknessEvent>,
    /// Scripted arrival-process changes, applied by arrival index
    /// (need not be sorted). Each event both switches the pacer's
    /// process and opens a new reporting segment (see
    /// [`LoadReport::segments`]). Empty = one process, one segment.
    pub rate_script: Vec<RateEvent>,
}

impl Default for LoadConfig {
    /// 10 000 queries, 1 ms fixed pacing, 1 024 in-flight cap.
    fn default() -> Self {
        LoadConfig {
            queries: 10_000,
            arrivals: Arrivals::Fixed { interval_us: 1_000 },
            max_in_flight: 1_024,
            seed: 0x10AD,
            script: Vec::new(),
            rate_script: Vec::new(),
        }
    }
}

/// What one open-loop run did, with exact arrival and completion
/// accounting: `queries == dispatched + dropped` and
/// `dispatched == completed + failed` (the latter once the run has
/// drained, which [`Cluster::run_load`] waits for).
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Arrivals admitted and sent to the client.
    pub dispatched: u64,
    /// Arrivals refused because `max_in_flight` queries were already
    /// outstanding (backpressure, reported rather than absorbed).
    pub dropped: u64,
    /// Dispatched queries that resolved with a reply.
    pub completed: u64,
    /// Dispatched queries that resolved with a transport error.
    pub failed: u64,
    /// Highest number of concurrently outstanding queries observed.
    pub peak_in_flight: usize,
    /// Wall-clock duration of the run (first arrival to last drain).
    pub elapsed: Duration,
    /// End-to-end latency of every completed query, ms.
    pub latency_ms: LogHistogram,
    /// Per-segment accounting: one segment per stretch between
    /// [`RateEvent`] boundaries (a single segment covering the whole
    /// run when `rate_script` is empty). Latencies are binned by
    /// *arrival index*, so a query dispatched in segment `k` lands in
    /// segment `k` even if it completes after the boundary.
    pub segments: Vec<SegmentReport>,
}

impl LoadReport {
    /// Dispatched queries unaccounted for — must be zero after a
    /// drained run (every query resolves as completed or failed).
    pub fn lost(&self) -> i64 {
        self.dispatched as i64 - self.completed as i64 - self.failed as i64
    }

    /// Latency quantile (ms) over completed queries.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        self.latency_ms.quantile(p)
    }

    /// Fraction of arrivals dropped by admission control.
    pub fn drop_rate(&self) -> f64 {
        self.dropped as f64 / (self.dispatched + self.dropped).max(1) as f64
    }
}

/// One [`RateEvent`]-delimited stretch of a load run (see
/// [`LoadReport::segments`]). Latency and admission counters are
/// attributed by arrival index; the client-counter deltas
/// (`queries_delta` / `reissues_delta`) are wall-clock snapshots taken
/// as the generator crossed the segment's boundaries, so a straggler
/// completing after the boundary is counted in the next segment's
/// delta — a bounded, documented skew of at most the in-flight window.
#[derive(Clone, Debug)]
pub struct SegmentReport {
    /// First arrival index of the segment (inclusive).
    pub start: usize,
    /// One past the last arrival index of the segment.
    pub end: usize,
    /// The arrival process in force during the segment.
    pub arrivals: Arrivals,
    /// Arrivals of this segment admitted and dispatched.
    pub dispatched: u64,
    /// Arrivals of this segment dropped by admission control.
    pub dropped: u64,
    /// Dispatched queries of this segment that completed.
    pub completed: u64,
    /// Dispatched queries of this segment that failed.
    pub failed: u64,
    /// End-to-end latency of the segment's completed queries, ms.
    pub latency_ms: LogHistogram,
    /// Client-completed queries while the segment's arrivals were
    /// being offered (boundary-snapshot delta).
    pub queries_delta: u64,
    /// Client-dispatched reissues while the segment's arrivals were
    /// being offered (boundary-snapshot delta).
    pub reissues_delta: u64,
    /// Mean of the client's ρ̂, sampled as each of the segment's
    /// arrivals was offered (`NaN` when the client is not
    /// utilization-aware): the segment's load estimate, robust to the
    /// sawtooth a point sample shows around each slow-query episode.
    pub utilization_mean: f64,
}

impl SegmentReport {
    /// Latency quantile (ms) over the segment's completed queries.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        self.latency_ms.quantile(p)
    }

    /// Fraction of the segment's arrivals dropped by admission
    /// control.
    pub fn drop_rate(&self) -> f64 {
        self.dropped as f64 / (self.dispatched + self.dropped).max(1) as f64
    }

    /// Realized reissue rate over the segment (reissues per completed
    /// query, from the client-counter deltas).
    pub fn reissue_rate(&self) -> f64 {
        self.reissues_delta as f64 / self.queries_delta.max(1) as f64
    }
}

/// An `n`-replica TCP cluster under programmatic control.
///
/// Replicas serve identical snapshots of one [`Backend`] (a kvstore by
/// default; any backend works — `crates/shard` spawns one cluster per
/// index shard) on ephemeral local ports; dropping the cluster shuts
/// every replica down (joining its threads).
pub struct Cluster<B: Backend = KvStore> {
    servers: Vec<TcpServer<B>>,
    baseline_nanos_per_op: u64,
}

impl<B: Backend> Cluster<B> {
    /// Spins up `n` replicas of `store`, each burning
    /// `nanos_per_op` wall-clock nanoseconds per unit of store cost.
    pub fn spawn(n: usize, store: &B, nanos_per_op: u64) -> std::io::Result<Cluster<B>>
    where
        B: Clone,
    {
        Self::spawn_with(
            n,
            store,
            TcpServerConfig {
                nanos_per_op,
                ..TcpServerConfig::default()
            },
        )
    }

    /// Like [`Cluster::spawn`] but with full control over the replica
    /// configuration (queue discipline, burn rate).
    pub fn spawn_with(n: usize, store: &B, cfg: TcpServerConfig) -> std::io::Result<Cluster<B>>
    where
        B: Clone,
    {
        assert!(n > 0, "a cluster needs at least one replica");
        Ok(Cluster {
            servers: spawn_replicas(n, store, cfg)?,
            baseline_nanos_per_op: cfg.nanos_per_op,
        })
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the cluster has no replicas (never true: `spawn`
    /// rejects `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Every replica's socket address, in replica-index order.
    pub fn addrs(&self) -> Vec<std::net::SocketAddr> {
        self.servers.iter().map(|s| s.local_addr()).collect()
    }

    /// Direct access to replica `idx`'s server.
    pub fn server(&self, idx: usize) -> &TcpServer<B> {
        &self.servers[idx]
    }

    /// Changes replica `idx`'s service burn while it serves (sicken /
    /// heal).
    pub fn set_nanos_per_op(&self, idx: usize, nanos_per_op: u64) {
        self.servers[idx].set_nanos_per_op(nanos_per_op);
    }

    /// Restores every replica to the spawn-time service burn.
    pub fn heal_all(&self) {
        for s in &self.servers {
            s.set_nanos_per_op(self.baseline_nanos_per_op);
        }
    }

    /// Drives `cfg.queries` arrivals through `client` open-loop and
    /// waits for every dispatched query to drain. `make_cmd` produces
    /// the command for arrival `i`.
    ///
    /// Delegates to [`run_open_loop`] with this cluster's replicas as
    /// the sickness-script target; see there for the pacing and
    /// accounting contract.
    pub fn run_load<C: LoadClient>(
        &self,
        client: &C,
        cfg: &LoadConfig,
        make_cmd: impl FnMut(usize) -> Command + Send + 'static,
    ) -> LoadReport {
        run_open_loop(client, cfg, make_cmd, |replica, nanos_per_op| {
            self.set_nanos_per_op(replica, nanos_per_op)
        })
    }
}

/// Drives `cfg.queries` arrivals through `client` open-loop and waits
/// for every dispatched query to drain. `make_cmd` produces the
/// command for arrival `i`; `sicken(replica, nanos_per_op)` applies
/// each scripted [`SicknessEvent`] to whatever is serving — a
/// [`Cluster`] replica, a striped fragment group's slot, anything with
/// a service burn to turn.
///
/// Queries are dispatched on the arrival clock regardless of
/// completions (a closed loop would let every stalled query suppress
/// exactly the load that measures the stall). Arrivals that find
/// `max_in_flight` queries outstanding are dropped and counted.
///
/// The whole run is one future the calling thread drives with
/// [`Runtime::block_on`]: before offering arrival `i` it applies the
/// rate and sickness events whose `at_query ≤ i`, snapshots the client
/// counters if `i` opens a segment, and samples ρ̂. Each query's
/// completion is a spawned task; every wait, the gaps and the drain
/// alike, is a runtime timer, and the calling thread sleeps in between.
pub fn run_open_loop<C: LoadClient>(
    client: &C,
    cfg: &LoadConfig,
    mut make_cmd: impl FnMut(usize) -> Command + Send + 'static,
    mut sicken: impl FnMut(usize, u64),
) -> LoadReport {
    let mut rate_script: Vec<RateEvent> = cfg.rate_script.clone();
    rate_script.sort_by_key(|e| e.at_query);
    let mut script: Vec<SicknessEvent> = cfg.script.clone();
    script.sort_by_key(|e| e.at_query);
    // Segment boundaries: every rate-script index strictly inside
    // the run opens a new segment (one segment when the script is
    // empty).
    let mut bounds = vec![0];
    let at = rate_script.iter().map(|e| e.at_query);
    bounds.extend(at.filter(|a| (1..cfg.queries).contains(a)));
    bounds.dedup();
    bounds.push(cfg.queries);
    let nseg = bounds.len() - 1;
    // Per segment, what its completion tasks record: the completed
    // queries' latencies and the failures. Indexed by the dispatch-time
    // segment, so stragglers land in the segment that offered them.
    let done: Arc<[Mutex<(LogHistogram, u64)>]> = (0..nseg)
        .map(|_| Mutex::new((LogHistogram::latency_ms(), 0)))
        .collect();
    let in_flight = Arc::new(AtomicUsize::new(0));
    let rt = client.load_runtime();
    let started = Instant::now();

    let mut script = script.into_iter().peekable();
    let mut apply_script = |offered: usize| {
        while let Some(e) = script.next_if(|e| e.at_query <= offered) {
            sicken(e.replica, e.nanos_per_op);
        }
    };
    // Per segment: the arrival process that paced it, arrivals
    // dispatched and dropped, the sum of the ρ̂ samples (NaN for a
    // client that keeps no ρ̂), and the client counters as it opened.
    let mut paced_by = vec![cfg.arrivals; nseg];
    let mut dispatched = vec![0u64; nseg];
    let mut dropped = vec![0u64; nseg];
    let mut rho_sum = vec![0.0; nseg];
    let mut snaps = vec![client.load_counters()];
    let mut peak_in_flight = 0;
    rt.block_on(async {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut arrivals = cfg.arrivals;
        let mut rates = rate_script.iter().peekable();
        let mut seg = 0;
        // Absolute arrival schedule: each deadline advances by the
        // sampled gap from the *previous deadline*, never from "now" —
        // relative sleeps would add the loop's own per-arrival work and
        // wakeup latency on top of every gap, silently lowering the
        // offered rate (and the error compounds exactly at the
        // tight-gap sweep points the rate is supposed to stress). If
        // the loop falls behind, expired deadlines resolve immediately
        // and it catches up.
        let mut next_arrival = Instant::now();
        for i in 0..cfg.queries {
            while let Some(e) = rates.next_if(|e| e.at_query <= i) {
                arrivals = e.arrivals;
            }
            apply_script(i);
            if seg + 1 < nseg && i == bounds[seg + 1] {
                seg += 1;
                snaps.push(client.load_counters());
            }
            paced_by[seg] = arrivals;
            rho_sum[seg] += client.load_utilization().unwrap_or(f64::NAN);
            // Admission: the arrival happens on the clock either way;
            // only the dispatch is conditional.
            let outstanding = in_flight.load(Ordering::Relaxed);
            if outstanding >= cfg.max_in_flight.max(1) {
                dropped[seg] += 1;
            } else {
                in_flight.fetch_add(1, Ordering::Relaxed);
                peak_in_flight = peak_in_flight.max(outstanding + 1);
                dispatched[seg] += 1;
                // Latency clock starts at admission, not at the
                // completion task's first poll: the time a dispatched
                // query spends waiting for the executor to schedule it
                // is part of its latency (dropping it would
                // under-report the tail exactly at congested sweep
                // points — coordinated omission).
                let t0 = Instant::now();
                let fut = client.load_execute(make_cmd(i));
                let (done, in_flight) = (done.clone(), in_flight.clone());
                rt.spawn(async move {
                    let ok = fut.await.is_ok();
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    let mut done = done[seg].lock().expect("a completion panicked");
                    let (latency_ms, failed) = &mut *done;
                    if ok {
                        latency_ms.record(ms);
                    } else {
                        *failed += 1;
                    }
                    // Pairs with the drain's Acquire load: a run that
                    // reads 0 in flight sees every result recorded.
                    in_flight.fetch_sub(1, Ordering::Release);
                });
            }
            next_arrival += arrivals.gap_after(&mut rng);
            rt.sleep_until(next_arrival).await;
        }
        apply_script(cfg.queries);
        // Drain: every dispatched query resolves as completed or
        // failed (the transport guarantees each request a reply or an
        // error), so this terminates once the slowest straggler —
        // monster service times included — finishes.
        while in_flight.load(Ordering::Acquire) > 0 {
            rt.sleep(Duration::from_millis(1)).await;
        }
    });
    // Final snapshot after drain so the last segment's delta
    // includes its stragglers.
    snaps.push(client.load_counters());

    let segments: Vec<SegmentReport> = (0..nseg)
        .map(|k| {
            let (latency_ms, failed) = done[k].lock().expect("a completion panicked").clone();
            SegmentReport {
                start: bounds[k],
                end: bounds[k + 1],
                arrivals: paced_by[k],
                dispatched: dispatched[k],
                dropped: dropped[k],
                completed: latency_ms.len(),
                failed,
                latency_ms,
                queries_delta: snaps[k + 1].0.saturating_sub(snaps[k].0),
                reissues_delta: snaps[k + 1].1.saturating_sub(snaps[k].1),
                utilization_mean: rho_sum[k] / (bounds[k + 1] - bounds[k]) as f64,
            }
        })
        .collect();

    // The run's counters and latencies are its segments', summed.
    let mut latency_ms = LogHistogram::latency_ms();
    for s in &segments {
        latency_ms.merge(&s.latency_ms);
    }
    let sum = |count: fn(&SegmentReport) -> u64| segments.iter().map(count).sum();
    LoadReport {
        dispatched: sum(|s| s.dispatched),
        dropped: sum(|s| s.dropped),
        completed: sum(|s| s.completed),
        failed: sum(|s| s.failed),
        peak_in_flight,
        elapsed: started.elapsed(),
        latency_ms,
        segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HedgeConfig;

    #[test]
    fn arrivals_rates() {
        assert!((Arrivals::Fixed { interval_us: 500 }.rate_qps() - 2_000.0).abs() < 1e-9);
        assert!((Arrivals::Poisson { mean_us: 2_000 }.rate_qps() - 500.0).abs() < 1e-9);
        let mut rng = SmallRng::seed_from_u64(1);
        // Poisson gaps average their mean. At 20 µs a whole-µs floor
        // offered 2.5% more load than `rate_qps` reports (19.50 µs).
        let p = Arrivals::Poisson { mean_us: 20 };
        let n = 200_000;
        let total: Duration = (0..n).map(|_| p.gap_after(&mut rng)).sum();
        let mean_us = total.as_secs_f64() * 1e6 / n as f64;
        assert!((mean_us - 20.0).abs() < 0.2, "poisson mean {mean_us} µs");
    }

    #[test]
    fn cluster_spawns_and_serves_basic_load() {
        let mut store = KvStore::new();
        let (reply, _) = store.execute(&Command::Set("k".into(), "v".into()));
        assert_eq!(reply, kvstore::Reply::Ok);
        let cluster = Cluster::spawn(3, &store, 0).unwrap();
        assert_eq!(cluster.len(), 3);
        assert_eq!(cluster.addrs().len(), 3);
        let client = HedgedClient::connect(&cluster.addrs(), HedgeConfig::default()).unwrap();
        let report = cluster.run_load(
            &client,
            &LoadConfig {
                queries: 300,
                arrivals: Arrivals::Fixed { interval_us: 50 },
                max_in_flight: 64,
                ..LoadConfig::default()
            },
            |_| Command::Get("k".into()),
        );
        assert_eq!(report.dispatched + report.dropped, 300);
        assert_eq!(report.lost(), 0, "every query must be accounted for");
        assert_eq!(report.failed, 0);
        assert!(report.completed > 0);
        assert!(report.quantile(0.5).is_some());
        assert!(report.peak_in_flight <= 64);
        assert!(report.drop_rate() < 1.0);
    }
}
