//! The hedged client: speculative execution driven by a
//! [`ReissuePolicy`], with live (`OnlineAdapter`) re-optimization.
//!
//! Per query the client:
//!
//! 1. dispatches the **primary** to the next replica (round-robin);
//! 2. samples the policy's full reissue schedule — every stage of a
//!    `MultipleR` policy flips its probability coin *now*
//!    (distributionally identical to flipping at fire time, see
//!    [`ReissuePolicy::sample_schedule_indexed`]), yielding the
//!    non-decreasing stage deadlines `(d₁,q₁), …, (dₙ,qₙ)` this query
//!    will arm;
//! 3. races every in-flight attempt against the next stage's deadline
//!    timer ([`crate::rt::select_all`], over attempts kept inline in
//!    the query's own future — arming a schedule allocates nothing);
//!    a stage that is already due is dispatched *before* the attempts
//!    are polled; each time a timer fires (and
//!    the budget governor grants quota) one more **reissue** is
//!    dispatched, targeted at the healthiest replica not yet carrying
//!    this query (per-replica latency/error EWMA — see
//!    [`crate::transport::ReplicaHealth`]);
//! 4. returns the first reply and cancels every loser via its
//!    [`CancelToken`] — the transport pushes `CANCEL <seq>` to the
//!    backend, which retracts the queued frame if it has not executed
//!    (tied requests);
//! 5. feeds observations into the [`OnlineAdapter`], which
//!    re-optimizes `(d, q)` every `reoptimize_every` completions while
//!    the system serves. Un-raced queries feed the primary stream;
//!    **raced hedges feed joint `(primary, first-stage reissue)`
//!    pairs** — exact when the loser completed, censored at the
//!    loser's elapsed-at-retraction lower bound when the cancel landed
//!    in time — so the adapter can run the §4.2 *correlated* optimizer
//!    instead of the independence model (see `reissue_core::online`).
//!    Later-stage losers feed the marginal reissue stream when they
//!    complete.

use crate::rt::{race, select_all, Either, Runtime};
use crate::sync::CancelToken;
use crate::transport::{InFlight, ReplicaSet, TieSpec, TransportError};

use kvstore::{Command, Reply};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use reissue_core::censored::Obs;
use reissue_core::load::{LoadSignal, LoadSnapshot};
use reissue_core::online::{OnlineAdapter, OnlineConfig, ReissueOutcome};
use reissue_core::policy::{ReissuePolicy, Schedule};

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use reissue_core::policy::MAX_STAGES;

/// Wire attempts one query can have: the primary and one reissue per
/// stage.
const MAX_ATTEMPTS: usize = MAX_STAGES + 1;

/// How a raced query's losing attempts get retracted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CancellationStyle {
    /// Client-driven: the race winner's completion triggers `CANCEL`
    /// frames from this client to each loser's replica — retraction
    /// costs a full client→replica hop *after* the winner finished.
    /// It retracts a loser before or during service: a copy still
    /// queued never runs, a copy in service is stopped there.
    #[default]
    Client,
    /// Server-side tied requests ("The Tail at Scale"): the primary
    /// and the first reissue register a tie, and whichever replica
    /// *dequeues* its copy first retracts the other directly over a
    /// server-to-server channel — bounding the duplicated work by the
    /// replica-to-replica one-way delay instead of the winner's full
    /// service time. The peer's cancel only ever retracts a *queued*
    /// copy (two copies that both started must not stop each other).
    /// Client-driven `CANCEL` stays armed for what the tie does not
    /// cover: later stages, lost frames, and a loser already in
    /// service, which only the client may stop.
    Tied,
}

/// Process-global tie id source. Replicas key tie state by id alone,
/// so ids must be unique across every client in the process.
static NEXT_TIE_ID: AtomicU64 = AtomicU64::new(1);

/// Draws a fresh process-unique tie id. Public so other client layers
/// (the erasure-coded fragment client) can register tied requests in
/// the same id space without colliding with this module's hedges.
pub fn next_tie_id() -> u64 {
    NEXT_TIE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Configuration for [`HedgedClient`].
#[derive(Clone, Debug)]
pub struct HedgeConfig {
    /// The starting policy (used as-is when `online` is `None`). All
    /// families execute natively: `None`, `SingleD`, `SingleR`, and
    /// multi-stage `MultipleR` schedules — stage `i` arms a timer at
    /// `dᵢ` (measured from the primary dispatch) that, if the query is
    /// still outstanding, dispatches one reissue with probability `qᵢ`.
    pub policy: ReissuePolicy,
    /// When set, an [`OnlineAdapter`] re-optimizes `(d, q)` from
    /// observed latencies while serving, overriding `policy` once
    /// warmed up.
    pub online: Option<OnlineConfig>,
    /// Cap on the *realized* reissue rate (reissues / queries),
    /// enforced by a running-counter governor independent of the
    /// policy's own `(d, q)` accounting. This is a safety valve, not a
    /// tight limiter: the policy keeps the *expected* rate at the
    /// budget, and the governor bounds the realized rate when the
    /// adapter is mid-correction (serving feeds back into the latency
    /// distribution, so `P(T > d)` moves between re-optimizations).
    /// Defaults to 1.25× the online budget when online adaptation is
    /// on — a governor pinned exactly at the steady-state demand
    /// denies hedges first-come-first-served, which starves precisely
    /// the stragglers that arrive in bursts behind a query of death.
    ///
    /// **Interaction with `MultipleR`:** the cap counts *total*
    /// reissues across all stages — a 3-stage schedule can spend up to
    /// 3 units of quota on one query, so the governor compares
    /// `Σᵢ (stage-i dispatches)` against `cap × queries`. The policy's
    /// own expected spend is `Σᵢ qᵢ·P(T > dᵢ)` (Equation 4: a stage
    /// whose deadline the query never reaches consumes nothing), which
    /// is what the optimizer holds at the budget; the governor only
    /// clips realized bursts. When a stage's timer fires without
    /// quota, that stage *re-asks* one stage-delay later rather than
    /// silently dropping — a query still outstanding after several
    /// delays is precisely the straggler hedging exists for — and
    /// later stages queue behind it, preserving the schedule's
    /// dispatch order.
    pub budget_cap: Option<f64>,
    /// An externally shared governor. When set it takes precedence
    /// over `budget_cap`: several clients handed clones of one
    /// [`BudgetGovernor`] draw reissue quota from a single pool — the
    /// scatter-gather fan-out aggregator gives every per-shard client
    /// the same governor so hedging is per-shard but the *budget* is
    /// cross-shard.
    pub governor: Option<Arc<BudgetGovernor>>,
    /// TCP connections per replica.
    pub pool_per_replica: usize,
    /// Requests each pooled connection keeps on the wire at once.
    ///
    /// `1` (the default) is strict request/reply: a connection writes
    /// one frame and blocks for its reply, with per-attempt retries on
    /// fresh sockets. Values above 1 pipeline: a connection batches up
    /// to `pipeline` queued frames into single socket writes and
    /// matches replies FIFO — amortizing syscalls and wakeups across
    /// requests, which is where closed-loop throughput goes once the
    /// per-request CPU cost is the bottleneck. Pipelined connections
    /// trade away mid-stream retries (a dead socket fails everything
    /// on the wire rather than replaying it), so hedged/tail-latency
    /// serving should keep the default.
    pub pipeline: usize,
    /// Executor worker threads.
    pub workers: usize,
    /// Seed for the reissue coin flips.
    pub seed: u64,
    /// How losing attempts are retracted (see [`CancellationStyle`]).
    /// `Tied` registers the primary and the first reissue as a
    /// server-side tied pair so the serving replica cancels the peer
    /// at dequeue time; `Client` (default) relies on this client's
    /// `CANCEL` after the race resolves.
    pub cancellation: CancellationStyle,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: None,
            budget_cap: None,
            governor: None,
            pool_per_replica: 4,
            pipeline: 1,
            workers: 4,
            seed: 0x5EED,
            cancellation: CancellationStyle::Client,
        }
    }
}

/// A running-counter reissue-rate governor, shareable across clients.
///
/// Tracks completed queries and dispatched reissues and answers "may
/// one more reissue go out right now?": the realized rate including it
/// must stay at or under the cap, plus a small burst allowance. The
/// burst term is essential, not cosmetic: queries advance on
/// *completions*, and the moments that need hedging most — every
/// in-flight query stuck behind a query of death — are exactly the
/// moments completions stall. A zero-burst governor deadlocks there.
///
/// Wrap it in an [`Arc`] and hand clones to several [`HedgedClient`]s
/// (via [`HedgeConfig::governor`]) to enforce one budget across all of
/// them; `queries` then counts per-leg queries across every client, so
/// the cap stays a per-leg reissue fraction.
#[derive(Debug)]
pub struct BudgetGovernor {
    cap: f64,
    queries: AtomicU64,
    reissues: AtomicU64,
}

impl BudgetGovernor {
    /// Creates a governor enforcing `cap` (reissues per query).
    pub fn new(cap: f64) -> Self {
        assert!(cap >= 0.0 && cap.is_finite(), "cap must be finite and >= 0");
        BudgetGovernor {
            cap,
            queries: AtomicU64::new(0),
            reissues: AtomicU64::new(0),
        }
    }

    /// The configured cap (reissues per query).
    pub fn cap(&self) -> f64 {
        self.cap
    }

    /// The burst allowance above `cap × queries` (see type docs).
    pub fn burst(&self) -> f64 {
        (self.cap * 200.0).clamp(2.0, 16.0)
    }

    /// Whether one more reissue may be dispatched right now.
    pub fn allows(&self) -> bool {
        let queries = self.queries.load(Ordering::Relaxed) + 1;
        let reissues = self.reissues.load(Ordering::Relaxed) + 1;
        reissues as f64 <= self.cap * queries as f64 + self.burst()
    }

    /// Records one completed query.
    pub fn note_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one dispatched reissue.
    pub fn note_reissue(&self) {
        self.reissues.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed queries recorded so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Dispatched reissues recorded so far.
    pub fn reissues(&self) -> u64 {
        self.reissues.load(Ordering::Relaxed)
    }

    /// Realized reissue rate so far (0 when nothing completed yet).
    pub fn realized_rate(&self) -> f64 {
        self.reissues() as f64 / self.queries().max(1) as f64
    }
}

/// Counters published by the client (monotonic).
#[derive(Clone, Copy, Debug, Default)]
pub struct HedgeStats {
    /// Queries completed.
    pub queries: u64,
    /// Reissues actually dispatched across all stages (a timer fired,
    /// the stage's coin had come up heads, and the governor granted
    /// quota).
    pub reissues: u64,
    /// Dispatched reissues broken down by policy stage index. Sums to
    /// `reissues`.
    pub reissues_by_stage: [u64; MAX_STAGES],
    /// Queries won by a reissue (any stage) rather than the primary.
    pub reissue_wins: u64,
    /// Loser requests whose cancellation reached the backend in time:
    /// retracted before or during service, and answered with the
    /// cancelled marker instead of a reply.
    pub cancelled_in_time: u64,
    /// Raced hedges that produced an exact `(primary, reissue)` pair
    /// for the adapter (both sides completed).
    pub pairs_exact: u64,
    /// Raced hedges that produced a censored pair (one side was
    /// retracted in time; only its elapsed-at-cancel lower bound is
    /// known).
    pub pairs_censored: u64,
    /// Queries that failed outright — every attempt (primary and all
    /// dispatched reissues) resolved with a transport error and no
    /// stage quota remained. A single attempt's failure never counts
    /// here while another attempt can still save the query.
    pub errors: u64,
}

struct PolicyState {
    policy: ReissuePolicy,
    adapter: Option<OnlineAdapter>,
    rng: SmallRng,
}

struct Counters {
    queries: AtomicU64,
    reissues: AtomicU64,
    reissues_by_stage: [AtomicU64; MAX_STAGES],
    reissue_wins: AtomicU64,
    cancelled_in_time: AtomicU64,
    pairs_exact: AtomicU64,
    pairs_censored: AtomicU64,
    errors: AtomicU64,
    /// Reissue dispatches per replica index — the targeting
    /// distribution the EWMA-health regression tests watch.
    reissue_targets: Vec<AtomicU64>,
}

struct HcInner {
    rt: Runtime,
    replicas: ReplicaSet,
    state: Mutex<PolicyState>,
    counters: Counters,
    /// Streaming latency recorder: the shared log-bucketed histogram
    /// (1% relative quantile error, constant memory) instead of the
    /// sorted-`Vec`-per-probe this client used to keep.
    latencies_ms: Mutex<reissue_core::metrics::LogHistogram>,
    governor: Option<Arc<BudgetGovernor>>,
    cancellation: CancellationStyle,
    /// Aggregate load estimator, present iff the online config opts
    /// into utilization-aware damping ([`OnlineConfig::load`]). Fed on
    /// every dispatch (primary and reissue) and every query
    /// resolution; its estimate is pushed into the adapter at each
    /// observation (see [`HcInner::observe`]).
    load: Option<LoadSignal>,
    /// `HEDGE_DEBUG` was set at connect time: trace every query slower
    /// than 10 ms. Read once — an env lookup takes the process-wide
    /// environment lock, far too expensive per query.
    debug: bool,
}

/// A hedging client over a set of kvstore replicas. Cheap to clone
/// (all clones share connections, policy state and statistics).
#[derive(Clone)]
pub struct HedgedClient {
    inner: Arc<HcInner>,
}

impl HedgedClient {
    /// Connects to the replicas and starts a fresh runtime with
    /// [`HedgeConfig::workers`] threads.
    pub fn connect(addrs: &[SocketAddr], cfg: HedgeConfig) -> std::io::Result<HedgedClient> {
        let rt = Runtime::new(cfg.workers);
        Self::connect_with_runtime(rt, addrs, cfg)
    }

    /// Connects to the replicas on an existing runtime. Lets many
    /// clients — e.g. one per shard group in a fan-out — share one
    /// executor instead of spawning `workers` threads each.
    pub fn connect_with_runtime(
        rt: Runtime,
        addrs: &[SocketAddr],
        cfg: HedgeConfig,
    ) -> std::io::Result<HedgedClient> {
        let replicas = ReplicaSet::connect_pipelined(addrs, cfg.pool_per_replica, cfg.pipeline)?;
        let governor = cfg.governor.clone().or_else(|| {
            cfg.budget_cap
                .or(cfg.online.map(|o| 1.25 * o.budget))
                .map(|cap| Arc::new(BudgetGovernor::new(cap)))
        });
        let adapter = cfg.online.map(OnlineAdapter::new);
        let load = cfg
            .online
            .and_then(|o| o.load.map(|_| LoadSignal::new(addrs.len().max(1))));
        Ok(HedgedClient {
            inner: Arc::new(HcInner {
                rt,
                replicas,
                state: Mutex::new(PolicyState {
                    policy: cfg.policy,
                    adapter,
                    rng: SmallRng::seed_from_u64(cfg.seed),
                }),
                counters: Counters {
                    queries: AtomicU64::new(0),
                    reissues: AtomicU64::new(0),
                    reissues_by_stage: std::array::from_fn(|_| AtomicU64::new(0)),
                    reissue_wins: AtomicU64::new(0),
                    cancelled_in_time: AtomicU64::new(0),
                    pairs_exact: AtomicU64::new(0),
                    pairs_censored: AtomicU64::new(0),
                    errors: AtomicU64::new(0),
                    reissue_targets: (0..addrs.len()).map(|_| AtomicU64::new(0)).collect(),
                },
                latencies_ms: Mutex::new(reissue_core::metrics::LogHistogram::latency_ms()),
                governor,
                cancellation: cfg.cancellation,
                load,
                debug: std::env::var_os("HEDGE_DEBUG").is_some(),
            }),
        })
    }

    /// The executor, for spawning concurrent load generators.
    pub fn runtime(&self) -> &Runtime {
        &self.inner.rt
    }

    /// The budget governor in force, if any (owned or shared).
    pub fn governor(&self) -> Option<&Arc<BudgetGovernor>> {
        self.inner.governor.as_ref()
    }

    /// The current policy (live view; moves as the adapter re-optimizes).
    pub fn policy(&self) -> ReissuePolicy {
        self.inner.state.lock().unwrap().policy.clone()
    }

    /// The online adapter's current `(d, q)` record with its budget
    /// accounting, if online adaptation is enabled.
    pub fn online_policy(&self) -> Option<reissue_core::optimizer::OptimalSingleR> {
        let st = self.inner.state.lock().unwrap();
        st.adapter.as_ref().map(|a| a.policy())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HedgeStats {
        let c = &self.inner.counters;
        HedgeStats {
            queries: c.queries.load(Ordering::Relaxed),
            reissues: c.reissues.load(Ordering::Relaxed),
            reissues_by_stage: std::array::from_fn(|i| {
                c.reissues_by_stage[i].load(Ordering::Relaxed)
            }),
            reissue_wins: c.reissue_wins.load(Ordering::Relaxed),
            cancelled_in_time: c.cancelled_in_time.load(Ordering::Relaxed),
            pairs_exact: c.pairs_exact.load(Ordering::Relaxed),
            pairs_censored: c.pairs_censored.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
        }
    }

    /// Reissue dispatches per replica index — the live targeting
    /// distribution (see `ReplicaSet::pick_reissue_excluding`).
    pub fn reissue_target_counts(&self) -> Vec<u64> {
        self.inner
            .counters
            .reissue_targets
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The health EWMAs for replica `idx`: `(latency_ewma_ms,
    /// error_ewma)`.
    pub fn replica_health(&self, idx: usize) -> (f64, f64) {
        let h = self.inner.replicas.replica(idx).health();
        (h.latency_ewma_ms(), h.error_ewma())
    }

    /// Whether the online adapter's most recent re-optimization used
    /// the §4.2 correlated optimizer (`None` when online adaptation is
    /// off).
    pub fn online_correlated(&self) -> Option<bool> {
        let st = self.inner.state.lock().unwrap();
        st.adapter.as_ref().map(|a| a.using_correlated())
    }

    /// The client's current utilization estimate ρ̂ ∈ `[0, 1]`, when
    /// utilization-aware hedging is on (`OnlineConfig::load`); `None`
    /// otherwise. Zero until the load signal warms up.
    pub fn utilization(&self) -> Option<f64> {
        self.inner.load.as_ref().map(|l| l.utilization())
    }

    /// A snapshot of every load-signal estimator (offered rate,
    /// in-flight, service estimate, ρ̂), when utilization-aware
    /// hedging is on.
    pub fn load_snapshot(&self) -> Option<LoadSnapshot> {
        self.inner.load.as_ref().map(|l| l.snapshot())
    }

    /// The adapter's current *effective* (load-damped) reissue budget,
    /// when online adaptation is on.
    pub fn online_effective_budget(&self) -> Option<f64> {
        let st = self.inner.state.lock().unwrap();
        st.adapter.as_ref().map(|a| a.effective_budget())
    }

    /// Number of completed queries slower than `threshold_ms`, at the
    /// latency histogram's bucket resolution.
    pub fn latencies_over(&self, threshold_ms: f64) -> usize {
        self.inner
            .latencies_ms
            .lock()
            .unwrap()
            .count_over(threshold_ms) as usize
    }

    /// Quantile of end-to-end query latencies (ms) over all
    /// completions, within the histogram's 1% relative error.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.inner
            .latencies_ms
            .lock()
            .unwrap()
            .quantile(q.clamp(0.0, 1.0))
    }

    /// A snapshot of the full latency histogram (log-bucketed; see
    /// [`reissue_core::metrics::LogHistogram`]).
    pub fn latency_histogram(&self) -> reissue_core::metrics::LogHistogram {
        self.inner.latencies_ms.lock().unwrap().clone()
    }

    /// Executes one command with hedging; resolves to the winning
    /// reply. The returned future is `'static`: spawn any number
    /// concurrently.
    pub fn execute(
        &self,
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        let inner = self.inner.clone();
        async move {
            // Sample the primary and the full reissue schedule
            // up-front (every stage coin is independent of completion
            // status, so flipping now is distributionally identical);
            // each stage's *target* is chosen at fire time, when
            // health information is current.
            let primary_idx = inner.replicas.pick_primary();
            let schedule = {
                let mut st = inner.state.lock().unwrap();
                let st = &mut *st;
                st.policy.sample_schedule_indexed(&mut st.rng)
            };

            let started = Instant::now();
            if let Some(load) = &inner.load {
                load.query_start();
                load.note_dispatch();
            }
            let primary_token = CancelToken::new();
            // Tied cancellation: register the primary under a fresh
            // tie id whenever a reissue *may* follow (non-empty
            // schedule), so a first reissue can name it as the peer to
            // retract at dequeue time.
            let primary_tie = (inner.cancellation == CancellationStyle::Tied
                && !schedule.is_empty())
            .then(|| TieSpec {
                id: next_tie_id(),
                peer: None,
            });
            let primary = inner.replicas.replica(primary_idx).request_tied(
                cmd.clone(),
                primary_token.clone(),
                primary_tie,
            );

            let outcome = if schedule.is_empty() {
                primary.await.map(|r| (r, false))
            } else {
                inner
                    .staged_race(
                        &cmd,
                        primary,
                        primary_token,
                        primary_idx,
                        primary_tie,
                        started,
                        &schedule,
                    )
                    .await
            };

            let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            // Lightweight tail tracing: HEDGE_DEBUG=1 reports every
            // query slower than 10 ms and whether it had hedged.
            if inner.debug && elapsed_ms > 10.0 {
                eprintln!(
                    "[hedge] slow {elapsed_ms:.2}ms armed={:?} cmd={cmd:?}",
                    &schedule[..]
                );
            }
            inner.counters.queries.fetch_add(1, Ordering::Relaxed);
            if let Some(g) = &inner.governor {
                g.note_query();
            }
            if let Some(load) = &inner.load {
                load.query_end(outcome.is_ok().then_some(elapsed_ms));
            }
            match outcome {
                Ok((reply, raced)) => {
                    inner.latencies_ms.lock().unwrap().record(elapsed_ms);
                    // Un-raced completions feed the primary stream
                    // directly. Raced hedges are *not* observed here:
                    // their joint (primary, reissue) outcome — exact or
                    // censored — is assembled by the `RaceBook` once
                    // both participants resolve, so the adapter sees
                    // correlated pairs instead of two unpaired streams.
                    // Retracted losers arrive as censored bounds rather
                    // than being dropped, so the straggler mass that
                    // cancellation used to hide from the optimizer now
                    // reaches it through the Kaplan–Meier completion.
                    if !raced {
                        inner.observe(Observation::Primary(elapsed_ms));
                    }
                    Ok(reply)
                }
                Err(e) => {
                    inner.counters.errors.fetch_add(1, Ordering::Relaxed);
                    Err(e)
                }
            }
        }
    }

    /// Blocking convenience wrapper around [`HedgedClient::execute`].
    pub fn execute_blocking(&self, cmd: Command) -> Result<Reply, TransportError> {
        let fut = self.execute(cmd);
        self.inner.rt.block_on(fut)
    }
}

enum Observation {
    Primary(f64),
    Reissue(f64),
    /// A raced hedge's joint outcome; either side may be censored
    /// (lower bound only) when the loser's retraction landed in time.
    Pair {
        primary: Obs,
        reissue: Obs,
    },
}

/// How one attempt of a staged race stands.
#[derive(Clone, Copy)]
enum AttemptFate {
    /// Still in flight (or the winner).
    Racing,
    /// Resolved with a transport error mid-race.
    Failed,
    /// Retracted by the *server* mid-race — a tied peer's dequeue-time
    /// cancel resolves the loser with `Cancelled` before this client
    /// ever cancels it. Carries the elapsed-at-retraction censoring
    /// bound (ms) for the pair book.
    Retracted(f64),
}

/// One speculative arm of a staged race.
struct AttemptMeta {
    token: CancelToken,
    dispatched: Instant,
    fate: AttemptFate,
}

/// Every attempt of one query, indexed by dispatch order and never
/// reshuffled: slot 0 is the primary, slot `i` the `i`-th reissue
/// *actually sent* (coins and the governor may skip stages, so this is
/// independent of the policy stage index). The adapter's pair is
/// always slots `(0, 1)`. All inline: the arrays live in the query's
/// future.
struct Attempts {
    /// `None` once an attempt resolved; what [`select_all`] polls.
    futs: [Option<InFlight>; MAX_ATTEMPTS],
    meta: [Option<AttemptMeta>; MAX_ATTEMPTS],
    /// Replica index each attempt went to.
    targets: [usize; MAX_ATTEMPTS],
    len: usize,
}

impl Attempts {
    fn push(&mut self, fut: InFlight, token: CancelToken, target: usize, dispatched: Instant) {
        self.futs[self.len] = Some(fut);
        self.meta[self.len] = Some(AttemptMeta {
            token,
            dispatched,
            fate: AttemptFate::Racing,
        });
        self.targets[self.len] = target;
        self.len += 1;
    }

    fn in_flight(&self) -> usize {
        self.futs.iter().flatten().count()
    }

    fn meta(&mut self, i: usize) -> &mut AttemptMeta {
        self.meta[i].as_mut().expect("attempt was dispatched")
    }

    fn reissues(&self) -> usize {
        self.len - 1
    }
}

/// Which side of the adapter's `(primary, first reissue)` pair attempt
/// `i` is: `Some(true)` the primary, `Some(false)` the first reissue
/// sent, `None` a later reissue (outside the pair).
fn pair_side(i: usize) -> Option<bool> {
    match i {
        0 => Some(true),
        1 => Some(false),
        _ => None,
    }
}

fn stage_deadline(started: Instant, delay_ms: f64) -> Instant {
    started + Duration::from_secs_f64(delay_ms.max(0.0) / 1e3)
}

/// Fate of one pair participant, as it becomes known.
#[derive(Clone, Copy)]
enum SideState {
    Pending,
    Known(Obs),
    /// Transport failure: no usable observation from this side.
    Failed,
}

/// Assembles the adapter's joint `(primary, first reissue)`
/// observation from sides that resolve at different times — the winner
/// synchronously, each loser whenever its drain completes. Whichever
/// report fills the second slot emits the observation.
struct RaceBook {
    primary: SideState,
    reissue: SideState,
}

impl HcInner {
    /// Whether the budget governor permits one more reissue right now
    /// (see [`BudgetGovernor::allows`]; always true without one).
    fn governor_allows(&self) -> bool {
        self.governor.as_ref().is_none_or(|g| g.allows())
    }

    /// Feeds one latency observation to the adapter and refreshes the
    /// live policy from it — the serving-time re-optimization loop.
    fn observe(&self, obs: Observation) {
        let mut st = self.state.lock().unwrap();
        let Some(adapter) = st.adapter.as_mut() else {
            return;
        };
        // Push the freshest load estimate first: with
        // `OnlineConfig::load` set this rescales the live reissue
        // probability immediately, so the policy tracks a load ramp
        // between re-optimizations.
        if let Some(load) = &self.load {
            adapter.set_utilization(load.utilization());
        }
        match obs {
            Observation::Primary(ms) => adapter.observe_primary(ms),
            Observation::Reissue(ms) => adapter.observe_reissue(ms),
            Observation::Pair { primary, reissue } => match (primary, reissue) {
                (Obs::Exact(x), Obs::Exact(y)) => {
                    adapter.observe_pair(x, ReissueOutcome::Completed(y));
                }
                (Obs::Exact(x), Obs::Censored(lb)) => {
                    adapter.observe_pair(x, ReissueOutcome::Censored(lb));
                }
                (Obs::Censored(lb), Obs::Exact(y)) => {
                    adapter.observe_pair_censored_primary(lb, y);
                }
                // Both sides censored (a later-stage reissue won the
                // race, so the primary *and* the first reissue were
                // both retracted): two lower bounds with no completed
                // side to anchor them carry nothing the KM completion
                // can use, so the pair is dropped (see `report_side`,
                // which doesn't count it either).
                (Obs::Censored(_), Obs::Censored(_)) => {}
            },
        }
        let live = adapter.policy();
        if live.probability > 0.0 && live.delay.is_finite() && live.delay >= 0.0 {
            st.policy = ReissuePolicy::single_r(live.delay, live.probability.clamp(0.0, 1.0));
        }
    }

    /// Races the primary against a full MultipleR schedule: each stage
    /// deadline (measured from the primary dispatch) that passes while
    /// the query is outstanding dispatches one more reissue — governor
    /// permitting — and every attempt races every other through one
    /// [`select_all`]. The first *successful* completion wins; all
    /// still-pending losers are cancelled and drained asynchronously.
    ///
    /// A stage that is **already due** is dispatched before the
    /// attempts are polled. The paper's `d = 0` policy sends both
    /// copies at once; polling first would skip the stage whenever the
    /// primary's reply was already in, so the realized reissue rate
    /// fell short of `q` by the share of primaries that fast.
    ///
    /// An attempt that resolves with a transport error does **not**
    /// decide the race — hedging must never fail a query another
    /// in-flight (or still-armed) attempt could save, and a crashed
    /// replica fails *fast*, which would otherwise make it the
    /// likeliest "winner". The failed attempt just drops out; its
    /// error surfaces only once every attempt and every remaining
    /// stage is exhausted.
    ///
    /// Returns `(reply, raced)` where `raced` records whether any
    /// reissue was actually dispatched.
    #[allow(clippy::too_many_arguments)]
    async fn staged_race(
        self: &Arc<Self>,
        cmd: &Command,
        primary: InFlight,
        primary_token: CancelToken,
        primary_idx: usize,
        primary_tie: Option<TieSpec>,
        started: Instant,
        schedule: &Schedule,
    ) -> Result<(Reply, bool), TransportError> {
        let mut attempts = Attempts {
            futs: std::array::from_fn(|_| None),
            meta: std::array::from_fn(|_| None),
            targets: [0; MAX_ATTEMPTS],
            len: 0,
        };
        attempts.push(primary, primary_token, primary_idx, started);
        // The schedule is served front to back: a stage denied by the
        // governor re-asks later (moving `deadline`, the front stage's
        // current one) and blocks the stages behind it, so dispatch
        // order always follows stage order.
        let mut next = 0usize;
        let mut deadline = stage_deadline(started, schedule[0].1);
        let mut last_err = TransportError::ConnectionClosed;

        let (win, reply) = loop {
            let front = schedule.get(next).copied();
            let in_flight = attempts.in_flight();
            // `None`: the front stage is to be dispatched now.
            let resolved = match front {
                // Every dispatched attempt has failed. Rescue from the
                // remaining schedule *now* — waiting out a stage
                // deadline only adds latency to a query that already
                // has nothing in flight — or give up when the stages
                // (or the governor's quota) run out.
                _ if in_flight == 0 => {
                    if front.is_none() || !self.governor_allows() {
                        return Err(last_err);
                    }
                    None
                }
                // Schedule exhausted: plain race of what is in flight.
                None => Some(select_all(&mut attempts.futs).await),
                Some(_) if deadline <= Instant::now() => None,
                Some(_) => {
                    match race(
                        select_all(&mut attempts.futs),
                        self.rt.sleep_until(deadline),
                    )
                    .await
                    {
                        Either::Left((resolved, _timer)) => Some(resolved),
                        Either::Right(_) => None,
                    }
                }
            };
            let Some((i, out)) = resolved else {
                let (stage, delay_ms) = front.expect("a stage is due");
                if in_flight > 0 && !self.governor_allows() {
                    // No quota: re-ask one stage-delay later (with a
                    // small floor so a d=0 stage cannot hot-spin). A
                    // query still outstanding after several delays is
                    // precisely the straggler hedging exists for, and
                    // re-asking gives it priority over the steady
                    // trickle of marginal just-past-d hedges that
                    // would otherwise consume the quota
                    // first-come-first-served.
                    deadline = Instant::now() + Duration::from_secs_f64(delay_ms.max(0.1) / 1e3);
                    continue;
                }
                next += 1;
                if let Some(&(_, d)) = schedule.get(next) {
                    deadline = stage_deadline(started, d);
                }
                self.dispatch_stage(cmd, stage, primary_tie, &mut attempts);
                continue;
            };
            match out {
                Ok(reply) => break (i, reply),
                Err(TransportError::Cancelled) => {
                    // A tied peer retracted this attempt server-side:
                    // a clean in-time cancel, not a failure. Record
                    // the censoring bound now (the attempt had been
                    // outstanding exactly this long when the
                    // retraction confirmed) and keep racing the rest.
                    self.counters
                        .cancelled_in_time
                        .fetch_add(1, Ordering::Relaxed);
                    let m = attempts.meta(i);
                    m.fate = AttemptFate::Retracted(m.dispatched.elapsed().as_secs_f64() * 1e3);
                    last_err = TransportError::Cancelled;
                }
                Err(e) => {
                    // The failed attempt drops out; the survivors (and
                    // the schedule) keep going.
                    attempts.meta(i).fate = AttemptFate::Failed;
                    last_err = e;
                }
            }
        };

        if win > 0 {
            self.counters.reissue_wins.fetch_add(1, Ordering::Relaxed);
        }
        for (fut, m) in attempts.futs.iter().zip(&attempts.meta) {
            if let (Some(_), Some(m)) = (fut, m) {
                m.token.cancel();
            }
        }
        let raced = attempts.reissues() > 0;
        if raced {
            let book = Arc::new(Mutex::new(RaceBook {
                primary: SideState::Pending,
                reissue: SideState::Pending,
            }));
            // The winner's side is known right now, mid-race failures
            // and server-side retractions too; losers still in flight
            // report as their drains resolve. A winner that is a
            // *later-stage* reissue is outside the pair — both pair
            // sides then arrive via the other routes.
            for i in 0..attempts.len {
                let m = attempts.meta(i);
                let (dispatched, fate) = (m.dispatched, m.fate);
                let known = if i == win {
                    SideState::Known(Obs::Exact(dispatched.elapsed().as_secs_f64() * 1e3))
                } else {
                    match (fate, attempts.futs[i].take()) {
                        (AttemptFate::Failed, _) => SideState::Failed,
                        (AttemptFate::Retracted(ms), _) => SideState::Known(Obs::Censored(ms)),
                        (AttemptFate::Racing, Some(loser)) => {
                            match pair_side(i) {
                                Some(is_primary) => self.drain_into_book(
                                    loser,
                                    dispatched,
                                    book.clone(),
                                    is_primary,
                                ),
                                None => self.drain_marginal(loser, dispatched),
                            }
                            continue;
                        }
                        (AttemptFate::Racing, None) => continue,
                    }
                };
                if let Some(is_primary) = pair_side(i) {
                    self.report_side(&book, is_primary, known);
                }
            }
        }
        Ok((reply, raced))
    }

    /// Dispatches one stage's reissue into an ongoing race: counts it
    /// (total, per-stage, per-target), targets the healthiest replica
    /// not already carrying this query, and registers the attempt. The
    /// *first* dispatched reissue of a tied query carries a fresh tie
    /// id naming the primary's `(replica address, tie id)` as the peer
    /// to retract at dequeue time; later stages (and untied queries)
    /// go untied.
    fn dispatch_stage(
        &self,
        cmd: &Command,
        stage: usize,
        primary_tie: Option<TieSpec>,
        attempts: &mut Attempts,
    ) {
        self.counters.reissues.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = &self.governor {
            g.note_reissue();
        }
        // Every attempt put on the wire feeds the offered-rate
        // estimate — hedging's own load contribution is part of the
        // utilization it must react to.
        if let Some(load) = &self.load {
            load.note_dispatch();
        }
        self.counters.reissues_by_stage[stage.min(MAX_STAGES - 1)].fetch_add(1, Ordering::Relaxed);
        let tie = primary_tie
            .filter(|_| attempts.reissues() == 0)
            .map(|pt| TieSpec {
                id: next_tie_id(),
                peer: Some((self.replicas.replica(attempts.targets[0]).addr(), pt.id)),
            });
        let idx = self
            .replicas
            .pick_reissue_excluding(&attempts.targets[..attempts.len]);
        if let Some(c) = self.counters.reissue_targets.get(idx) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        let token = CancelToken::new();
        let fut = self
            .replicas
            .replica(idx)
            .request_tied(cmd.clone(), token.clone(), tie);
        attempts.push(fut, token, idx, Instant::now());
    }

    /// Asynchronously drains a pair participant that lost its race and
    /// reports its fate to the [`RaceBook`]:
    ///
    /// * loser **completed** → exact observation (its response time is
    ///   a valid sample of its stream, now paired with the other
    ///   side's);
    /// * loser **retracted in time** → censored: all we know is it had
    ///   been outstanding for `dispatched.elapsed()` when the
    ///   retraction confirmed, a lower bound on the response time it
    ///   would have had;
    /// * loser failed at the transport → no usable observation; the
    ///   other side feeds its marginal stream alone.
    fn drain_into_book(
        self: &Arc<Self>,
        loser: InFlight,
        dispatched: Instant,
        book: Arc<Mutex<RaceBook>>,
        is_primary: bool,
    ) {
        let this = self.clone();
        self.rt.spawn(async move {
            let ms = |d: Instant| d.elapsed().as_secs_f64() * 1e3;
            let side = match loser.await {
                Ok(_) => SideState::Known(Obs::Exact(ms(dispatched))),
                Err(TransportError::Cancelled) => {
                    this.counters
                        .cancelled_in_time
                        .fetch_add(1, Ordering::Relaxed);
                    SideState::Known(Obs::Censored(ms(dispatched)))
                }
                Err(_) => SideState::Failed,
            };
            this.report_side(&book, is_primary, side);
        });
    }

    /// Asynchronously drains a later-stage loser (outside the pair):
    /// completions feed the marginal reissue stream; retractions count
    /// the cancel but yield no marginal sample (a censored bound is
    /// only usable jointly, and the pair already carries this query's
    /// joint outcome).
    fn drain_marginal(self: &Arc<Self>, loser: InFlight, dispatched: Instant) {
        let this = self.clone();
        self.rt.spawn(async move {
            match loser.await {
                Ok(_) => {
                    let ms = dispatched.elapsed().as_secs_f64() * 1e3;
                    this.observe(Observation::Reissue(ms));
                }
                Err(TransportError::Cancelled) => {
                    this.counters
                        .cancelled_in_time
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {}
            }
        });
    }

    /// Records one side of the raced pair; the report that completes
    /// the book emits the joint observation (and the pair counters).
    fn report_side(&self, book: &Mutex<RaceBook>, is_primary: bool, side: SideState) {
        let (primary, reissue) = {
            let mut b = book.lock().unwrap();
            if is_primary {
                b.primary = side;
            } else {
                b.reissue = side;
            }
            match (b.primary, b.reissue) {
                (SideState::Pending, _) | (_, SideState::Pending) => return,
                (p, r) => (p, r),
            }
        };
        match (primary, reissue) {
            (SideState::Known(p), SideState::Known(r)) => {
                // Both censored (a later-stage reissue won the race)
                // carries no completable information; the adapter
                // drops it, so don't count it as a pair either.
                match (p.is_censored(), r.is_censored()) {
                    (false, false) => {
                        self.counters.pairs_exact.fetch_add(1, Ordering::Relaxed);
                    }
                    (true, true) => {}
                    _ => {
                        self.counters.pairs_censored.fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.observe(Observation::Pair {
                    primary: p,
                    reissue: r,
                });
            }
            (SideState::Known(Obs::Exact(p)), SideState::Failed) => {
                self.observe(Observation::Primary(p));
            }
            (SideState::Failed, SideState::Known(Obs::Exact(r))) => {
                self.observe(Observation::Reissue(r));
            }
            _ => {}
        }
    }
}
