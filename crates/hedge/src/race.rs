//! The race engine: one query with copies in flight, at most one
//! reissue stage `(d, q)` measured from the first dispatch, and a
//! budget on the copies sent.
//!
//! Replica hedging and k-of-n fragment hedging are the same race
//! (Shah et al. analyse both as one `(n, k)` fork-join with
//! cancellation; replication is the `k = 1` code), so there is one
//! loop, [`Core::run`], and a [`Job`] that answers the six questions
//! on which the two differ: how many attempts open the race, which
//! command goes to which replica for attempt `i`, what a reply means,
//! how many attempts the job can still make, whether a reissue sent
//! now could complete it, and how the result is built.
//! [`crate::HedgedClient`] runs the replica job; the `erasure` crate's
//! striped client runs the fragment job.
//!
//! The engine arms a SingleR policy or nothing. At an equal budget a
//! SingleR policy is as good as any MultipleR one (the paper's
//! Theorems 3.1 and 3.2), so [`Core::connect`] refuses a `MultipleR`.
//!
//! Per query the engine:
//!
//! 1. flips the stage's coin *now* ([`Stage::flip`]; distributionally
//!    identical to flipping at fire time), arming at most one
//!    deadline;
//! 2. dispatches the job's **first wave** ([`Job::primaries`]
//!    attempts). With one primary and nothing armed there is no race:
//!    the one attempt is awaited directly;
//! 3. races every in-flight attempt against the deadline timer
//!    ([`crate::rt::select_all`], over attempts kept inline in the
//!    query's own future, so arming allocates nothing). A deadline
//!    that is already due is dispatched *before* the attempts are
//!    polled; when the timer fires (and the budget governor grants
//!    quota) the **reissue** is dispatched, *tied* to the straggler:
//!    the straggler's server retracts it while it is still queued once
//!    it dequeues the straggler (see [`crate::server`]). A job may *hold* the
//!    reissue while attempts are in flight and no single reissue could
//!    complete it ([`Job::holds`]): it then waits for the reply that
//!    makes it useful and, if past due by then, goes out with it;
//! 4. hands each reply to [`Job::accept`]. The first [`Verdict::Done`]
//!    ends the race; every attempt still outstanding is cancelled via
//!    its [`CancelToken`]: the transport pushes `CANCEL <seq>` to the
//!    backend, which retracts the copy queued or in service;
//! 5. feeds observations into the [`OnlineAdapter`] when there is one.
//!    Un-raced queries feed the primary stream; **raced queries feed
//!    joint `(straggler, reissue)` pairs**, exact when the loser
//!    completed, censored at the loser's elapsed-at-retraction lower
//!    bound when the cancel landed in time, so the adapter can run the
//!    §4.2 *correlated* optimizer instead of the independence model
//!    (see `reissue_core::online`). The straggler is the lowest-index
//!    first-wave attempt still unresolved when the reissue goes out:
//!    the primary itself for a one-primary job.
//!
//! `HEDGE_DEBUG=1` (read once, at connect time) traces every query
//! slower than 10 ms: the delay it armed, whether the reissue went out
//! and the slot that won. The transport traces the slow attempts
//! themselves, with their commands.

use crate::client::{BudgetGovernor, HedgeConfig, HedgeStats};
use crate::rt::{race, select_all, Either, Runtime};
use crate::sync::CancelToken;
use crate::transport::{InFlight, ReplicaSet, TransportError};

use kvstore::{Command, Reply};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use reissue_core::censored::Obs;
use reissue_core::load::LoadSignal;
use reissue_core::metrics::LogHistogram;
use reissue_core::online::{OnlineAdapter, ReissueOutcome};
use reissue_core::policy::{ReissuePolicy, Stage};

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wire attempts one query can have, and so the widest stripe: a
/// striped read asks each of its `n` fragments at most once, first
/// wave and reissue together. The attempt table is inline at this
/// size, and nine covers every `(k, n)` the codec is tested on.
pub const MAX_ATTEMPTS: usize = 9;

/// Process-global tie id source. Replicas key tie state by id alone,
/// so ids must be unique across every client in the process.
static NEXT_TIE_ID: AtomicU64 = AtomicU64::new(1);

fn next_tie_id() -> u64 {
    NEXT_TIE_ID.fetch_add(1, Ordering::Relaxed)
}

/// What one reply means to a [`Job`].
#[derive(Debug)]
pub enum Verdict {
    /// The job has its answer: the race is over and this attempt won.
    Done,
    /// The reply was banked and more are needed.
    Progress,
    /// The reply can never contribute. The attempt drops out like a
    /// failed one; the error, if any, is what the query surfaces
    /// should every other attempt and stage run out too.
    Useless(Option<TransportError>),
}

/// The six decisions on which one kind of race differs from another.
/// Attempts are numbered by dispatch order: slots `0..primaries` are
/// the first wave, slot `primaries` the reissue, if one is sent. What
/// an attempt number *means* to the job (which fragment it fetched,
/// say) is the job's own table to keep.
pub trait Job: Send {
    /// Attempts dispatched at `t = 0`, at least 1.
    fn primaries(&self) -> usize;

    /// Attempts the job can make in all, the first wave included; the
    /// engine caps it at [`MAX_ATTEMPTS`]. A job whose first wave
    /// already makes them all has nothing to reissue (a striped read
    /// with `k = n`).
    fn capacity(&self) -> usize;

    /// Whether the reissue should wait although it may be due: no
    /// single further attempt could complete the job, so a reissue
    /// sent now would occupy a server without being able to end the
    /// race. Asked only while an attempt is in flight (the rescue of a
    /// query with nothing outstanding is never held), and asked again
    /// after every reply, so a held reissue that is past due goes out
    /// as soon as the reply that makes it useful is banked. A striped
    /// read holds until `k − 1` fragments, whichever, are in hand (any
    /// `k` decode). A job done at its first useful reply never holds,
    /// which is the default.
    fn holds(&self) -> bool {
        false
    }

    /// The command of attempt `slot` and the index of the replica it
    /// goes to.
    fn attempt(&mut self, slot: usize, replicas: &ReplicaSet) -> (Command, usize);

    /// Takes attempt `slot`'s reply, banking what the job needs of it.
    fn accept(&mut self, slot: usize, reply: Reply) -> Verdict;

    /// Builds the result once the race is over: after [`Verdict::Done`],
    /// or when every attempt ran out with no error to report.
    fn finish(self) -> Result<Reply, TransportError>;
}

pub(crate) struct PolicyState {
    /// The live reissue stage; `None` never reissues.
    pub(crate) stage: Option<Stage>,
    pub(crate) adapter: Option<OnlineAdapter>,
    rng: SmallRng,
}

#[derive(Default)]
struct Counters {
    queries: AtomicU64,
    reissues: AtomicU64,
    reissue_wins: AtomicU64,
    cancelled_in_time: AtomicU64,
    pairs_exact: AtomicU64,
    pairs_censored: AtomicU64,
    errors: AtomicU64,
    /// Reissue dispatches per replica index: the targeting
    /// distribution the EWMA-health regression tests watch.
    reissue_targets: Vec<AtomicU64>,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// What every race of one client shares: connections, policy state,
/// counters, governor. [`Core::run`] is the engine.
pub struct Core {
    rt: Runtime,
    replicas: ReplicaSet,
    pub(crate) state: Mutex<PolicyState>,
    counters: Counters,
    /// Streaming latency recorder: the shared log-bucketed histogram
    /// (1% relative quantile error, constant memory).
    pub(crate) latencies_ms: Mutex<LogHistogram>,
    governor: Option<Arc<BudgetGovernor>>,
    /// Aggregate load estimator, present iff the online config opts
    /// into utilization-aware damping (`OnlineConfig::load`). Fed on
    /// every dispatch (first wave and reissue) and every query
    /// resolution; its estimate is pushed into the adapter at each
    /// observation (see [`Core::observe`]).
    pub(crate) load: Option<LoadSignal>,
    /// `HEDGE_DEBUG` was set at connect time. Read once: an env lookup
    /// takes the process-wide environment lock, far too expensive per
    /// query.
    debug: bool,
}

impl Core {
    /// Connects to the replicas on `rt`. The governor is
    /// `cfg.governor` if set, else one capped at `cfg.budget_cap`,
    /// else at 1.25× the online budget when online adaptation is on.
    /// Shared from the start: the losers a race leaves behind drain on
    /// tasks that hold the core.
    ///
    /// A `MultipleR` policy is refused with
    /// [`std::io::ErrorKind::InvalidInput`] before any socket is
    /// opened: the engine arms one reissue stage.
    pub fn connect(
        rt: Runtime,
        addrs: &[SocketAddr],
        cfg: HedgeConfig,
    ) -> std::io::Result<Arc<Core>> {
        let stage = match &cfg.policy {
            ReissuePolicy::MultipleR { .. } => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "the race engine arms one reissue stage: use SingleR, not MultipleR",
                ))
            }
            policy => policy.stages().first().copied(),
        };
        let replicas = ReplicaSet::connect(addrs, cfg.pool_per_replica)?;
        let governor = cfg.governor.clone().or_else(|| {
            cfg.budget_cap
                .or(cfg.online.map(|o| 1.25 * o.budget))
                .map(|cap| Arc::new(BudgetGovernor::new(cap)))
        });
        let load = cfg
            .online
            .and_then(|o| o.load.map(|_| LoadSignal::new(addrs.len().max(1))));
        Ok(Arc::new(Core {
            rt,
            replicas,
            state: Mutex::new(PolicyState {
                stage,
                adapter: cfg.online.map(OnlineAdapter::new),
                rng: SmallRng::seed_from_u64(cfg.seed),
            }),
            counters: Counters {
                reissue_targets: (0..addrs.len()).map(|_| AtomicU64::new(0)).collect(),
                ..Counters::default()
            },
            latencies_ms: Mutex::new(LogHistogram::latency_ms()),
            governor,
            load,
            debug: std::env::var_os("HEDGE_DEBUG").is_some(),
        }))
    }

    /// The executor the races run on.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// The replicas, for traffic that does not race.
    pub fn replicas(&self) -> &ReplicaSet {
        &self.replicas
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HedgeStats {
        let c = &self.counters;
        let get = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        HedgeStats {
            queries: get(&c.queries),
            reissues: get(&c.reissues),
            reissue_wins: get(&c.reissue_wins),
            cancelled_in_time: get(&c.cancelled_in_time),
            pairs_exact: get(&c.pairs_exact),
            pairs_censored: get(&c.pairs_censored),
            errors: get(&c.errors),
        }
    }

    /// Reissue dispatches per replica index.
    pub(crate) fn reissue_target_counts(&self) -> Vec<u64> {
        let targets = self.counters.reissue_targets.iter();
        targets.map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Runs one query to its result: the race described in the module
    /// docs, over whatever `job` dispatches.
    ///
    /// An attempt that resolves with a transport error does **not**
    /// decide the race: hedging must never fail a query another
    /// in-flight (or still-armed) attempt could save, and a crashed
    /// replica fails *fast*, which would otherwise make it the
    /// likeliest "winner". The failed attempt just drops out; its
    /// error surfaces only once every attempt, and the reissue if it
    /// is still to go, is exhausted.
    ///
    /// Every query counts in `queries` (and in the governor's
    /// denominator). One that was won and built its result records its
    /// latency; any other counts in `errors`.
    pub async fn run<J: Job>(self: &Arc<Self>, mut job: J) -> Result<Reply, TransportError> {
        // Only the coin is flipped up front; each attempt's *target* is
        // chosen at dispatch time, when health information is current.
        let armed = {
            let mut st = self.state.lock().unwrap();
            let st = &mut *st;
            st.stage.filter(|s| s.flip(&mut st.rng)).map(|s| s.delay)
        };
        let started = Instant::now();
        if let Some(load) = &self.load {
            load.query_start();
        }
        let raced = if job.primaries() == 1 && armed.is_none() {
            self.unraced(&mut job).await
        } else {
            self.staged_race(&mut job, armed, started).await
        };

        let won = raced.won.is_some();
        let result = match raced.last_err {
            Some(e) if !won => Err(e),
            _ => job.finish(),
        };
        let elapsed_ms = ms_since(started);
        if self.debug && elapsed_ms > 10.0 {
            eprintln!(
                "[hedge] slow {elapsed_ms:.2}ms armed={armed:?} reissued={} won={:?}",
                raced.reissued, raced.won
            );
        }
        bump(&self.counters.queries);
        if let Some(g) = &self.governor {
            g.note_query();
        }
        let ok = won && result.is_ok();
        if let Some(load) = &self.load {
            load.query_end(ok.then_some(elapsed_ms));
        }
        if ok {
            self.latencies_ms.lock().unwrap().record(elapsed_ms);
            // Un-raced completions feed the primary stream directly.
            // Raced queries are *not* observed here: their joint
            // (straggler, reissue) outcome, exact or censored, is
            // assembled by the `RaceBook` once both participants
            // resolve, so the adapter sees correlated pairs instead of
            // two unpaired streams, and the straggler mass that
            // cancellation hides reaches it through the Kaplan–Meier
            // completion.
            if !raced.reissued {
                self.observe(Observation::Primary(elapsed_ms));
            }
        } else {
            bump(&self.counters.errors);
        }
        result
    }

    /// One primary, nothing armed: nothing to race, so no attempt
    /// table, no token kept and no timer. The request path of an
    /// unhedged client, and of the share of a hedged client's queries
    /// whose coin came up tails.
    async fn unraced<J: Job>(&self, job: &mut J) -> Raced {
        let (cmd, target) = job.attempt(0, &self.replicas);
        if let Some(load) = &self.load {
            load.note_dispatch();
        }
        let replica = self.replicas.replica(target);
        let out = replica.request(cmd, CancelToken::new()).await;
        let (won, last_err) = match out.map(|reply| job.accept(0, reply)) {
            Ok(Verdict::Done) => (Some(0), None),
            Ok(Verdict::Progress) => (None, None),
            Ok(Verdict::Useless(e)) => (None, e),
            Err(e) => (None, Some(e)),
        };
        Raced {
            won,
            reissued: false,
            last_err,
        }
    }

    /// Races the job's first wave against the deadline `armed` ms after
    /// `started`, if any: if it passes while the query is
    /// unresolved, the reissue goes out, governor permitting, and
    /// every attempt races every other through one [`select_all`].
    /// Once the race is over, all still-pending losers are cancelled
    /// and drained asynchronously.
    ///
    /// A reissue that is **already due** is dispatched before the
    /// attempts are polled. The paper's `d = 0` policy sends both
    /// copies at once; polling first would skip the reissue whenever
    /// the primary's reply was already in, so the realized reissue rate
    /// fell short of `q` by the share of primaries that fast. A reissue
    /// the job [holds](Job::holds) is the exception: it waits while the
    /// attempts in flight are raced without a timer.
    async fn staged_race<J: Job>(
        self: &Arc<Self>,
        job: &mut J,
        armed: Option<f64>,
        started: Instant,
    ) -> Raced {
        let mut attempts = Attempts::new(job.primaries());
        assert!(
            (1..=job.capacity().min(MAX_ATTEMPTS)).contains(&attempts.primaries),
            "a job opens with 1..=capacity attempts"
        );
        for _ in 0..attempts.primaries {
            self.dispatch(job, None, started, &mut attempts);
        }
        // The reissue still to be sent: its delay, and the deadline it
        // is due at, which a governor denial moves.
        let mut reissue = armed.map(|d| (d, ms_after(started, d)));
        let mut last_err = None;

        let won = loop {
            let in_flight = attempts.futs.iter().flatten().count();
            // A job out of attempts has nothing left to reissue. A held
            // reissue is not due for this turn of the loop either: what
            // is in flight is raced without a timer, and the next reply
            // brings the question back.
            let due = reissue.filter(|_| {
                attempts.len < job.capacity().min(MAX_ATTEMPTS) && !(in_flight > 0 && job.holds())
            });
            // `None`: the reissue is to be dispatched now.
            let resolved = match due {
                // Nothing in flight and no answer: rescue with the
                // reissue *now* (waiting out its deadline only adds
                // latency to a query that has nothing to wait for), or
                // give up when there is none.
                None if in_flight == 0 => break None,
                Some(_) if in_flight == 0 => None,
                // No reissue to send, or held: plain race of what is in
                // flight.
                None => Some(select_all(&mut attempts.futs).await),
                Some((_, deadline)) if deadline <= Instant::now() => None,
                Some((_, deadline)) => {
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
            let Some((slot, out)) = resolved else {
                let (delay_ms, _) = due.expect("the reissue is due");
                if !self.governor.as_ref().is_none_or(|g| g.try_acquire()) {
                    // No quota, and nothing in flight to wait for: the
                    // query fails with what it has.
                    if in_flight == 0 {
                        break None;
                    }
                    // Re-ask one delay later (with a small floor so a
                    // d=0 stage cannot hot-spin). A query still
                    // outstanding after several delays is precisely
                    // the straggler hedging exists for, and re-asking
                    // gives it priority over the steady trickle of
                    // marginal just-past-d hedges that would otherwise
                    // consume the quota first-come-first-served.
                    reissue = Some((delay_ms, ms_after(Instant::now(), delay_ms.max(0.1))));
                    continue;
                }
                reissue = None;
                self.dispatch_reissue(job, &mut attempts);
                continue;
            };
            let elapsed_ms = ms_since(attempts.meta(slot).dispatched);
            let fate = match out.map(|reply| job.accept(slot, reply)) {
                Ok(Verdict::Done) => {
                    attempts.meta(slot).fate = SideState::Known(Obs::Exact(elapsed_ms));
                    break Some(slot);
                }
                Ok(Verdict::Progress) => SideState::Known(Obs::Exact(elapsed_ms)),
                // The attempt drops out; the survivors (and the
                // schedule) keep going.
                Ok(Verdict::Useless(e)) => {
                    last_err = e.or(last_err);
                    SideState::Failed
                }
                Err(TransportError::Cancelled) => {
                    // The primary's server retracted this reissue: a
                    // clean in-time cancel, not a failure. The
                    // attempt had been outstanding exactly this long
                    // when the retraction confirmed: its censoring
                    // bound.
                    bump(&self.counters.cancelled_in_time);
                    last_err = Some(TransportError::Cancelled);
                    SideState::Known(Obs::Censored(elapsed_ms))
                }
                Err(e) => {
                    last_err = Some(e);
                    SideState::Failed
                }
            };
            attempts.meta(slot).fate = fate;
        };

        if won.is_some_and(|slot| slot >= attempts.primaries) {
            bump(&self.counters.reissue_wins);
        }
        for (fut, m) in attempts.futs.iter().zip(&attempts.meta) {
            if let (Some(_), Some(m)) = (fut, m) {
                m.token.cancel();
            }
        }
        // The pair's sides resolve at different times: an attempt that
        // resolved mid-race (the winner, a failure, a server-side
        // retraction) is known right now; one still in flight reports
        // when its drain resolves.
        let reissued = attempts.len > attempts.primaries;
        let book = reissued.then(|| Arc::new(Mutex::new(RaceBook::default())));
        if let (Some(book), None) = (&book, attempts.straggler) {
            // Every first-wave attempt had already resolved when the
            // reissue went out: close that side so the reissue's report
            // is not orphaned.
            self.report_side(book, true, SideState::Failed);
        }
        for slot in 0..attempts.len {
            let side = attempts.pair_side(slot).zip(book.as_ref());
            let (dispatched, fate) = {
                let m = attempts.meta(slot);
                (m.dispatched, m.fate)
            };
            match (attempts.futs[slot].take(), side) {
                (Some(loser), side) => {
                    let side = side.map(|(is_primary, book)| (is_primary, book.clone()));
                    self.drain(loser, dispatched, side);
                }
                (None, Some((is_primary, book))) => self.report_side(book, is_primary, fate),
                (None, None) => {}
            }
        }
        Raced {
            won,
            reissued,
            last_err,
        }
    }

    /// Puts attempt `attempts.len` on the wire and registers it.
    /// Returns the replica index it went to.
    fn dispatch<J: Job>(
        &self,
        job: &mut J,
        tie: Option<u64>,
        at: Instant,
        attempts: &mut Attempts,
    ) -> usize {
        let slot = attempts.len;
        let (cmd, target) = job.attempt(slot, &self.replicas);
        // Every attempt put on the wire feeds the offered-rate
        // estimate: hedging's own load contribution is part of the
        // utilization it must react to.
        if let Some(load) = &self.load {
            load.note_dispatch();
        }
        let token = CancelToken::new();
        let replica = self.replicas.replica(target);
        attempts.futs[slot] = Some(replica.request_tied(cmd, token.clone(), tie));
        attempts.meta[slot] = Some(AttemptMeta {
            token,
            dispatched: at,
            fate: SideState::Pending,
        });
        attempts.len += 1;
        target
    }

    /// Dispatches the reissue into an ongoing race and counts it (total
    /// and per target). It names the straggler, the lowest-index
    /// first-wave attempt still unresolved, as the other side of the
    /// adapter's pair, and ties the two: the reissue registers at its
    /// server under a fresh tie id, and the straggler's cell names it
    /// to the straggler's server, which retracts it when it dequeues
    /// the straggler (see [`crate::server`]). A rescue, sent with no
    /// straggler left, goes untied.
    fn dispatch_reissue<J: Job>(&self, job: &mut J, attempts: &mut Attempts) {
        bump(&self.counters.reissues);
        attempts.straggler = (0..attempts.primaries).find(|&s| attempts.futs[s].is_some());
        let tie = attempts.straggler.map(|_| next_tie_id());
        let target = self.dispatch(job, tie, Instant::now(), attempts);
        if let (Some(s), Some(id)) = (attempts.straggler, tie) {
            let addr = self.replicas.replica(target).addr();
            attempts.meta(s).token.tie((addr, id));
        }
        if let Some(c) = self.counters.reissue_targets.get(target) {
            bump(c);
        }
    }

    /// Asynchronously drains an attempt that was still outstanding
    /// when its race ended.
    ///
    /// A pair participant reports its fate to the [`RaceBook`]:
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
    ///
    /// A loser outside the pair (a first-wave fragment other than the
    /// straggler) only counts its cancel.
    fn drain(
        self: &Arc<Self>,
        loser: InFlight,
        dispatched: Instant,
        side: Option<(bool, Arc<Mutex<RaceBook>>)>,
    ) {
        let this = self.clone();
        self.rt.spawn(async move {
            let out = loser.await;
            let ms = ms_since(dispatched);
            let fate = match out {
                Ok(_) => SideState::Known(Obs::Exact(ms)),
                Err(TransportError::Cancelled) => {
                    bump(&this.counters.cancelled_in_time);
                    SideState::Known(Obs::Censored(ms))
                }
                Err(_) => SideState::Failed,
            };
            if let Some((is_primary, book)) = side {
                this.report_side(&book, is_primary, fate);
            }
        });
    }

    /// Records one side of the raced pair; the report that completes
    /// the book emits the joint observation (and the pair counters).
    /// Both sides are never censored: with one reissue a won race
    /// leaves at most one copy unanswered, and a tie retracts only the
    /// reissue.
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
        use SideState::Known;
        let obs = match (primary, reissue) {
            (Known(Obs::Exact(x)), Known(Obs::Exact(y))) => {
                bump(&self.counters.pairs_exact);
                Observation::Pair(x, ReissueOutcome::Completed(y))
            }
            (Known(Obs::Exact(x)), Known(Obs::Censored(lb))) => {
                bump(&self.counters.pairs_censored);
                Observation::Pair(x, ReissueOutcome::Censored(lb))
            }
            (Known(Obs::Censored(lb)), Known(Obs::Exact(y))) => {
                bump(&self.counters.pairs_censored);
                Observation::CensoredPrimary(lb, y)
            }
            (Known(Obs::Exact(x)), _) => Observation::Primary(x),
            (_, Known(Obs::Exact(y))) => Observation::Reissue(y),
            // A failed side leaves nothing to complete a censored one.
            _ => return,
        };
        self.observe(obs);
    }

    /// Feeds one latency observation to the adapter and refreshes the
    /// live policy from it: the serving-time re-optimization loop.
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
            Observation::Pair(x, reissue) => adapter.observe_pair(x, reissue),
            Observation::CensoredPrimary(lb, y) => adapter.observe_pair_censored_primary(lb, y),
        }
        let live = adapter.policy();
        let reoptimized = adapter.reoptimizations() > 0;
        if live.probability > 0.0 && live.delay.is_finite() && live.delay >= 0.0 {
            st.stage = Some(Stage::new(live.delay, live.probability.min(1.0)));
        } else if live.probability == 0.0 && reoptimized {
            // Damped fully off (ρ̂ at or past `LoadShaper::rho_max`).
            // Before the first re-optimization the adapter's `q` is a
            // placeholder 0, and the configured policy holds.
            st.stage = None;
        }
    }
}

/// How one query's race ended.
struct Raced {
    /// The slot whose reply the job called [`Verdict::Done`].
    won: Option<usize>,
    /// Whether the reissue was dispatched.
    reissued: bool,
    /// The last error an attempt resolved with; what the query fails
    /// with when nothing won.
    last_err: Option<TransportError>,
}

enum Observation {
    Primary(f64),
    Reissue(f64),
    /// A raced query's joint outcome: the straggler's response time
    /// and the reissue's, which is a lower bound when its retraction
    /// landed in time.
    Pair(f64, ReissueOutcome),
    /// The straggler was retracted in time (its lower bound) and the
    /// reissue completed.
    CensoredPrimary(f64, f64),
}

/// Fate of one attempt, as it becomes known; for a pair participant,
/// what it reports to the [`RaceBook`].
#[derive(Clone, Copy, Default)]
enum SideState {
    /// Still in flight.
    #[default]
    Pending,
    /// Completed (exact response time) or retracted (the
    /// elapsed-at-retraction lower bound), in ms.
    Known(Obs),
    /// Transport failure or a useless reply: no usable observation.
    Failed,
}

/// Assembles the adapter's joint `(straggler, reissue)` observation
/// from sides that resolve at different times: the winner
/// synchronously, each loser whenever its drain completes. Whichever
/// report fills the second slot emits the observation.
#[derive(Default)]
struct RaceBook {
    primary: SideState,
    reissue: SideState,
}

/// One speculative arm of a race.
struct AttemptMeta {
    token: CancelToken,
    dispatched: Instant,
    fate: SideState,
}

/// Every attempt of one query, indexed by slot (see [`Job`]). All
/// inline: the arrays live in the query's future.
struct Attempts {
    /// `None` once an attempt resolved; what [`select_all`] polls.
    futs: [Option<InFlight>; MAX_ATTEMPTS],
    meta: [Option<AttemptMeta>; MAX_ATTEMPTS],
    len: usize,
    /// Size of the first wave.
    primaries: usize,
    /// The first-wave slot the reissue was paired with.
    straggler: Option<usize>,
}

impl Attempts {
    fn new(primaries: usize) -> Self {
        Attempts {
            futs: std::array::from_fn(|_| None),
            meta: std::array::from_fn(|_| None),
            len: 0,
            primaries,
            straggler: None,
        }
    }

    fn meta(&mut self, slot: usize) -> &mut AttemptMeta {
        self.meta[slot].as_mut().expect("attempt was dispatched")
    }

    /// Which side of the adapter's `(straggler, reissue)` pair attempt
    /// `slot` is: `Some(true)` the straggler, `Some(false)` the
    /// reissue, `None` outside the pair.
    fn pair_side(&self, slot: usize) -> Option<bool> {
        if slot == self.primaries {
            Some(false)
        } else if Some(slot) == self.straggler {
            Some(true)
        } else {
            None
        }
    }
}

fn ms_after(t: Instant, ms: f64) -> Instant {
    t + Duration::from_secs_f64(ms.max(0.0) / 1e3)
}
