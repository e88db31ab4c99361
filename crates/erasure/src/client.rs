//! The k-of-n fragment-hedging client.
//!
//! A striped read dispatches the `k` *data*-fragment requests as its
//! primary wave (slot `s` lives on replica `(s + o) % n` for the key's
//! rotation offset `o`, see [`crate::placement_offset`]) and completes
//! as soon
//! as the fragments in hand decode — all `k` data fragments, or `k−1`
//! of them plus a parity clone. The reissue policy's `(d, q)` timer is
//! armed over the *straggling* fragment exactly as the replica-hedging
//! client arms it over a whole query: when a stage deadline passes
//! with the stripe still undecodable (and the coin came up heads and
//! the budget governor grants quota), the client dispatches fragment
//! `k + r` — a parity clone on a replica not yet involved — instead of
//! a second full copy. That is the erasure-coding trade at the heart
//! of this subsystem: the hedge costs `1/k` of a full read, so at an
//! equal *byte* budget the fragment client can afford `k×` the reissue
//! probability of the replica client
//! ([`reissue_core::kofn::fragment_budget`]).
//!
//! Loser retraction reuses the serving stack's tied-request machinery:
//! under [`CancellationStyle::Tied`] every data fragment registers a
//! tie id and the *first* reissue names the straggler (the
//! lowest-index still-outstanding data slot) as its peer, so whichever
//! server dequeues first retracts the other server-to-server;
//! client-driven `CANCEL` remains the fallback for everything the tie
//! does not cover. Retractions that land in time book **censored**
//! `(straggler, reissue)` pairs — the same two-sided race book the
//! hedged client keeps, minus the online adapter.

use crate::codec::{self, decodable, CodecError};
use hedge::rt::{race, select_all, Either, Runtime};
use hedge::{next_tie_id, BudgetGovernor, CancelToken, CancellationStyle};
use hedge::{InFlight, ReplicaSet, TieSpec, TransportError};
use kvstore::{Command, Reply};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use reissue_core::policy::ReissuePolicy;

use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for [`StripedClient`].
#[derive(Clone, Debug)]
pub struct StripedConfig {
    /// Data fragments per stripe. The replica count `n` is taken from
    /// the address list; for each key, `k` replicas hold its data
    /// fragments and the other `n − k` hold parity clones (which
    /// replica holds which slot rotates per key, see
    /// [`crate::placement_offset`]).
    pub k: usize,
    /// The reissue policy armed over the straggling fragment. Stage
    /// delays are measured from the primary wave's dispatch, exactly
    /// like the replica-hedging client measures them from its primary.
    pub policy: ReissuePolicy,
    /// Cap on the realized fragment-reissue rate (reissues / striped
    /// reads); see [`BudgetGovernor`]. Remember the equal-byte
    /// exchange rate: a fragment budget of `q` costs the bytes of a
    /// replica budget of `q / k`.
    pub budget_cap: Option<f64>,
    /// An externally shared governor (takes precedence over
    /// `budget_cap`).
    pub governor: Option<Arc<BudgetGovernor>>,
    /// TCP connections per replica.
    pub pool_per_replica: usize,
    /// Executor worker threads (ignored by
    /// [`StripedClient::connect_with_runtime`]).
    pub workers: usize,
    /// Seed for the reissue coin flips.
    pub seed: u64,
    /// How the straggler is retracted once the stripe decodes without
    /// it (see [`CancellationStyle`]).
    pub cancellation: CancellationStyle,
}

impl Default for StripedConfig {
    fn default() -> Self {
        StripedConfig {
            k: 2,
            policy: ReissuePolicy::None,
            budget_cap: None,
            governor: None,
            pool_per_replica: 4,
            workers: 4,
            seed: 0x5EED,
            cancellation: CancellationStyle::Client,
        }
    }
}

/// Counters published by [`StripedClient`] (monotonic).
#[derive(Clone, Copy, Debug, Default)]
pub struct StripedStats {
    /// Striped reads completed (decoded, found absent, or failed).
    pub queries: u64,
    /// Fragment reissues actually dispatched.
    pub reissues: u64,
    /// Striped reads whose decode was unlocked by a reissued fragment
    /// (the last fragment to arrive before decodability was a parity
    /// reissue).
    pub reissue_wins: u64,
    /// Striped reads decoded with the parity equation standing in for
    /// a missing data fragment.
    pub decodes_with_parity: u64,
    /// Fragment attempts whose retraction landed in time: retracted
    /// before service (tied or client-driven) or during it
    /// (client-driven only).
    pub cancelled_in_time: u64,
    /// Hedged stripes that produced an exact `(straggler, reissue)`
    /// pair (both sides completed).
    pub pairs_exact: u64,
    /// Hedged stripes that produced a censored pair (one side
    /// retracted in time).
    pub pairs_censored: u64,
    /// Striped reads that failed outright (transport errors or an
    /// undecodable stripe after every slot resolved).
    pub errors: u64,
}

struct Counters {
    queries: AtomicU64,
    reissues: AtomicU64,
    reissue_wins: AtomicU64,
    decodes_with_parity: AtomicU64,
    cancelled_in_time: AtomicU64,
    pairs_exact: AtomicU64,
    pairs_censored: AtomicU64,
    errors: AtomicU64,
}

struct PolicyState {
    policy: ReissuePolicy,
    rng: SmallRng,
}

struct ScInner {
    rt: Runtime,
    replicas: ReplicaSet,
    k: usize,
    n: usize,
    state: Mutex<PolicyState>,
    counters: Counters,
    latencies_ms: Mutex<reissue_core::metrics::LogHistogram>,
    governor: Option<Arc<BudgetGovernor>>,
    cancellation: CancellationStyle,
}

/// A fragment-hedging client over `n` replicas holding one stripe slot
/// each. Cheap to clone (clones share connections and statistics).
#[derive(Clone)]
pub struct StripedClient {
    inner: Arc<ScInner>,
}

impl StripedClient {
    /// Connects to the `n` fragment replicas (`addrs[i]` serves slot
    /// `i`) and starts a fresh runtime.
    pub fn connect(addrs: &[SocketAddr], cfg: StripedConfig) -> std::io::Result<StripedClient> {
        let rt = Runtime::new(cfg.workers);
        Self::connect_with_runtime(rt, addrs, cfg)
    }

    /// Connects on an existing runtime.
    pub fn connect_with_runtime(
        rt: Runtime,
        addrs: &[SocketAddr],
        cfg: StripedConfig,
    ) -> std::io::Result<StripedClient> {
        if cfg.k == 0 || addrs.len() < cfg.k {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("need at least k={} replicas, got {}", cfg.k, addrs.len()),
            ));
        }
        let replicas = ReplicaSet::connect(addrs, cfg.pool_per_replica)?;
        let governor = cfg
            .governor
            .clone()
            .or_else(|| cfg.budget_cap.map(|cap| Arc::new(BudgetGovernor::new(cap))));
        Ok(StripedClient {
            inner: Arc::new(ScInner {
                rt,
                replicas,
                k: cfg.k,
                n: addrs.len(),
                state: Mutex::new(PolicyState {
                    policy: cfg.policy,
                    rng: SmallRng::seed_from_u64(cfg.seed),
                }),
                counters: Counters {
                    queries: AtomicU64::new(0),
                    reissues: AtomicU64::new(0),
                    reissue_wins: AtomicU64::new(0),
                    decodes_with_parity: AtomicU64::new(0),
                    cancelled_in_time: AtomicU64::new(0),
                    pairs_exact: AtomicU64::new(0),
                    pairs_censored: AtomicU64::new(0),
                    errors: AtomicU64::new(0),
                },
                latencies_ms: Mutex::new(reissue_core::metrics::LogHistogram::latency_ms()),
                governor,
                cancellation: cfg.cancellation,
            }),
        })
    }

    /// The executor, for spawning concurrent load generators.
    pub fn runtime(&self) -> &Runtime {
        &self.inner.rt
    }

    /// Stripe geometry `(k, n)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.inner.k, self.inner.n)
    }

    /// The budget governor in force, if any.
    pub fn governor(&self) -> Option<&Arc<BudgetGovernor>> {
        self.inner.governor.as_ref()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StripedStats {
        let c = &self.inner.counters;
        StripedStats {
            queries: c.queries.load(Ordering::Relaxed),
            reissues: c.reissues.load(Ordering::Relaxed),
            reissue_wins: c.reissue_wins.load(Ordering::Relaxed),
            decodes_with_parity: c.decodes_with_parity.load(Ordering::Relaxed),
            cancelled_in_time: c.cancelled_in_time.load(Ordering::Relaxed),
            pairs_exact: c.pairs_exact.load(Ordering::Relaxed),
            pairs_censored: c.pairs_censored.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
        }
    }

    /// Quantile of end-to-end striped-read latencies (ms).
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.inner
            .latencies_ms
            .lock()
            .unwrap()
            .quantile(q.clamp(0.0, 1.0))
    }

    /// Writes `value` as a `(k, n)` stripe: slot `s`'s fragment to the
    /// key's rotated replica `(s + offset) % n`. Blocking convenience
    /// for seeding; awaits every `FSET` acknowledgement.
    pub fn put_blocking(&self, key: &[u8], value: &[u8]) -> Result<(), TransportError> {
        let inner = self.inner.clone();
        let frags = codec::encode_stripe(value, inner.k, inner.n)
            .map_err(|e| TransportError::Protocol(e.to_string()))?;
        let key = Bytes::copy_from_slice(key);
        let offset = crate::placement_offset(&key, inner.n);
        self.inner.rt.block_on(async move {
            for (slot, frag) in frags.into_iter().enumerate() {
                let cmd = Command::FSet(key.clone(), slot as u32, frag);
                let reply = inner
                    .replicas
                    .replica((slot + offset) % inner.n)
                    .request_tied(cmd, CancelToken::new(), None)
                    .await?;
                if !matches!(reply, Reply::Ok) {
                    return Err(TransportError::Protocol(format!(
                        "FSET slot {slot} replied {reply:?}"
                    )));
                }
            }
            Ok(())
        })
    }

    /// Executes one command. `GET` runs the k-of-n fragment race;
    /// `SET` writes a stripe; everything else passes through to a
    /// round-robin replica untouched. The returned future is
    /// `'static`: spawn any number concurrently.
    pub fn execute(
        &self,
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        let inner = self.inner.clone();
        async move {
            match cmd {
                Command::Get(key) => ScInner::striped_get(inner, key).await,
                Command::Set(key, value) => {
                    let frags = codec::encode_stripe(&value, inner.k, inner.n)
                        .map_err(|e| TransportError::Protocol(e.to_string()))?;
                    let offset = crate::placement_offset(&key, inner.n);
                    for (slot, frag) in frags.into_iter().enumerate() {
                        let cmd = Command::FSet(key.clone(), slot as u32, frag);
                        inner
                            .replicas
                            .replica((slot + offset) % inner.n)
                            .request_tied(cmd, CancelToken::new(), None)
                            .await?;
                    }
                    Ok(Reply::Ok)
                }
                other => {
                    let idx = inner.replicas.pick_primary() % inner.n;
                    inner
                        .replicas
                        .replica(idx)
                        .request_tied(other, CancelToken::new(), None)
                        .await
                }
            }
        }
    }

    /// Blocking convenience wrapper around [`StripedClient::execute`].
    pub fn execute_blocking(&self, cmd: Command) -> Result<Reply, TransportError> {
        let fut = self.execute(cmd);
        self.inner.rt.block_on(fut)
    }
}

impl hedge::LoadClient for StripedClient {
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
}

/// How one fragment attempt ended, for pair booking. The censoring
/// *bound* (elapsed at retraction) is not retained — this client keeps
/// pair counters, not an online adapter; wiring the bounds into
/// `reissue_core::online` is future work.
#[derive(Clone, Copy)]
enum Fate {
    Exact,
    Censored,
    Failed,
}

/// Stripe widths served from inline storage; every geometry this repo
/// runs (n ≤ 5) fits. Wider stripes fall back to one `Vec` per table.
const INLINE_SLOTS: usize = 8;

/// One `Option<T>` per stripe slot, for the tables a striped read
/// keeps (attempt, token, tie id, payload, fate — a slot has at most
/// one attempt, so everything is indexed by slot and nothing is ever
/// moved). The length is the stripe width, fixed at construction;
/// storage is inline up to [`INLINE_SLOTS`].
enum Slots<T> {
    Inline([Option<T>; INLINE_SLOTS], usize),
    Heap(Vec<Option<T>>),
}

impl<T> Slots<T> {
    fn new(n: usize) -> Self {
        if n <= INLINE_SLOTS {
            Slots::Inline(std::array::from_fn(|_| None), n)
        } else {
            Slots::Heap((0..n).map(|_| None).collect())
        }
    }
}

impl<T> std::ops::Deref for Slots<T> {
    type Target = [Option<T>];
    fn deref(&self) -> &[Option<T>] {
        match self {
            Slots::Inline(a, n) => &a[..*n],
            Slots::Heap(v) => v,
        }
    }
}

impl<T> std::ops::DerefMut for Slots<T> {
    fn deref_mut(&mut self) -> &mut [Option<T>] {
        match self {
            Slots::Inline(a, n) => &mut a[..*n],
            Slots::Heap(v) => v,
        }
    }
}

/// The per-slot state of one striped read. Data slots `0..k` are the
/// primary wave; parity slot `k + r` is the `r`-th reissue dispatched.
struct Stripe {
    /// In-flight attempt per slot; `None` before dispatch and once
    /// resolved. What [`select_all`] polls.
    futs: Slots<InFlight>,
    tokens: Slots<CancelToken>,
    /// Tie id each data slot registered (tied cancellation only).
    tie_ids: Slots<u64>,
    /// Payload per slot that answered with one.
    fragments: Slots<Bytes>,
    /// How each resolved slot ended.
    fates: Slots<Fate>,
}

impl ScInner {
    fn governor_allows(&self) -> bool {
        self.governor.as_ref().is_none_or(|g| g.allows())
    }

    /// The k-of-n fragment race (see module docs).
    async fn striped_get(self: Arc<Self>, key: Bytes) -> Result<Reply, TransportError> {
        let schedule = {
            let mut st = self.state.lock().unwrap();
            let st = &mut *st;
            st.policy.sample_schedule_indexed(&mut st.rng)
        };
        let started = Instant::now();
        let tied = self.cancellation == CancellationStyle::Tied && !schedule.is_empty();
        let offset = crate::placement_offset(&key, self.n);
        let (k, n) = (self.k, self.n);
        let mut stripe = Stripe {
            futs: Slots::new(n),
            tokens: Slots::new(n),
            tie_ids: Slots::new(n),
            fragments: Slots::new(n),
            fates: Slots::new(n),
        };

        // Primary wave: the k data fragments, slot s on the key's
        // rotated replica (s + offset) % n. Under tied cancellation
        // each registers a tie id so the first reissue can later name
        // whichever of them is still straggling.
        for slot in 0..k {
            let tie = tied.then(|| TieSpec {
                id: next_tie_id(),
                peer: None,
            });
            stripe.tie_ids[slot] = tie.map(|t| t.id);
            self.dispatch_fragment(&key, offset, slot, tie, &mut stripe);
        }

        // The schedule is served front to back; `deadline` is the front
        // stage's current one (a governor denial moves it).
        let stage_deadline =
            |delay_ms: f64| started + Duration::from_secs_f64(delay_ms.max(0.0) / 1e3);
        let mut next = 0usize;
        let mut deadline = schedule
            .first()
            .map_or(started, |&(_, d)| stage_deadline(d));
        let mut nil_slots = 0usize;
        let mut dispatched_reissues = 0usize;
        let mut straggler_slot: Option<usize> = None;
        let mut last_err: Option<TransportError> = None;
        let mut winner_was_reissue = false;

        let outcome = loop {
            let present = (0..n).filter(|&s| stripe.fragments[s].is_some());
            if decodable(k, present) {
                break Ok(());
            }
            // Every data slot resolved Nil: the key has no stripe.
            if nil_slots >= k {
                break Err(None);
            }
            let next_slot = k + dispatched_reissues;
            // Out of parity slots: nothing left to reissue, the rest
            // of the schedule is moot.
            let front = schedule.get(next).filter(|_| next_slot < n);
            let in_flight = stripe.futs.iter().flatten().count();
            // `None`: the front stage is to be dispatched now.
            let resolved = match front {
                // Nothing in flight and not yet decodable: rescue from
                // the remaining schedule immediately, or give up.
                _ if in_flight == 0 => {
                    if front.is_none() || !self.governor_allows() {
                        break Err(last_err.take());
                    }
                    None
                }
                None => Some(select_all(&mut stripe.futs).await),
                // A stage already due goes out before the attempts are
                // polled, as in the replica-hedging client.
                Some(_) if deadline <= Instant::now() => None,
                Some(_) => {
                    match race(select_all(&mut stripe.futs), self.rt.sleep_until(deadline)).await {
                        Either::Left((resolved, _timer)) => Some(resolved),
                        Either::Right(_) => None,
                    }
                }
            };
            let Some((slot, out)) = resolved else {
                let &(_stage, delay_ms) = front.expect("a stage is due");
                if in_flight > 0 && !self.governor_allows() {
                    // Re-ask one stage-delay later (floored so a d=0
                    // stage cannot hot-spin), same as the
                    // replica-hedging client.
                    deadline = Instant::now() + Duration::from_secs_f64(delay_ms.max(0.1) / 1e3);
                    continue;
                }
                next += 1;
                if let Some(&(_, d)) = schedule.get(next) {
                    deadline = stage_deadline(d);
                }
                self.dispatch_fragment_reissue(
                    &key,
                    offset,
                    next_slot,
                    dispatched_reissues == 0,
                    &mut straggler_slot,
                    &mut stripe,
                );
                dispatched_reissues += 1;
                continue;
            };
            stripe.fates[slot] = Some(match out {
                Ok(Reply::Str(payload)) => {
                    stripe.fragments[slot] = Some(payload);
                    winner_was_reissue = slot >= k;
                    Fate::Exact
                }
                Ok(Reply::Nil) => {
                    // Absent fragment: not an error in transit, but it
                    // can never contribute to the decode.
                    if slot < k {
                        nil_slots += 1;
                    }
                    Fate::Failed
                }
                Ok(other) => {
                    last_err = Some(TransportError::Protocol(format!(
                        "FGET slot {slot} replied {other:?}"
                    )));
                    Fate::Failed
                }
                Err(TransportError::Cancelled) => {
                    // A tied peer retracted this fragment server-side.
                    self.counters
                        .cancelled_in_time
                        .fetch_add(1, Ordering::Relaxed);
                    last_err = Some(TransportError::Cancelled);
                    Fate::Censored
                }
                Err(e) => {
                    last_err = Some(e);
                    Fate::Failed
                }
            });
        };

        // Race resolved: retract every still-outstanding attempt and
        // drain it asynchronously. Pair participants (the straggler
        // data slot the first reissue named, and that first reissue)
        // report into the two-sided book; everything else just counts
        // its cancel.
        for (fut, token) in stripe.futs.iter().zip(stripe.tokens.iter()) {
            if let (Some(_), Some(token)) = (fut, token) {
                token.cancel();
            }
        }
        let book = (dispatched_reissues > 0).then(|| {
            Arc::new(Mutex::new(PairBook {
                straggler: None,
                reissue: None,
            }))
        });
        if let Some(book) = &book {
            for (slot, fate) in stripe.fates.iter().enumerate() {
                if let (Some(fate), Some(side)) = (fate, pair_side(slot, k, straggler_slot)) {
                    self.report_pair_side(book, side, *fate);
                }
            }
            // No straggler was ever named (every data slot had already
            // resolved when the first reissue went out): close that
            // side so the reissue's report is not orphaned.
            if straggler_slot.is_none() {
                self.report_pair_side(book, PairSide::Straggler, Fate::Failed);
            }
        }
        for (slot, fut) in stripe.futs.iter_mut().enumerate() {
            let Some(fut) = fut.take() else { continue };
            match (pair_side(slot, k, straggler_slot), &book) {
                (Some(side), Some(book)) => self.drain_into_book(fut, book.clone(), side),
                _ => self.drain_counting(fut),
            }
        }

        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = &self.governor {
            g.note_query();
        }

        match outcome {
            Ok(()) => {
                let have_data = stripe.fragments[..k].iter().flatten().count();
                if have_data < k {
                    self.counters
                        .decodes_with_parity
                        .fetch_add(1, Ordering::Relaxed);
                }
                if winner_was_reissue {
                    self.counters.reissue_wins.fetch_add(1, Ordering::Relaxed);
                }
                let present: Vec<&Bytes> = stripe.fragments.iter().flatten().collect();
                match codec::decode_stripe(&present) {
                    Ok(value) => {
                        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                        self.latencies_ms.lock().unwrap().record(elapsed_ms);
                        Ok(Reply::Str(value))
                    }
                    Err(e @ CodecError::Insufficient { .. }) => {
                        // decodable() and decode_stripe() agree on the
                        // slot arithmetic; reaching this arm means a
                        // malformed stored fragment, not a logic race.
                        self.counters.errors.fetch_add(1, Ordering::Relaxed);
                        Ok(Reply::Error(format!("ERASURE {e}")))
                    }
                    Err(e) => {
                        self.counters.errors.fetch_add(1, Ordering::Relaxed);
                        Ok(Reply::Error(format!("ERASURE {e}")))
                    }
                }
            }
            // All data slots answered Nil: the key simply isn't there.
            Err(None) if nil_slots >= k => Ok(Reply::Nil),
            Err(maybe_err) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                match maybe_err {
                    Some(e) => Err(e),
                    None => Ok(Reply::Error(
                        "ERASURE undecodable: too few fragments".into(),
                    )),
                }
            }
        }
    }

    /// Puts the read of fragment `slot` on the wire.
    fn dispatch_fragment(
        &self,
        key: &Bytes,
        offset: usize,
        slot: usize,
        tie: Option<TieSpec>,
        stripe: &mut Stripe,
    ) {
        let token = CancelToken::new();
        stripe.futs[slot] = Some(
            self.replicas
                .replica((slot + offset) % self.n)
                .request_tied(Command::FGet(key.clone(), slot as u32), token.clone(), tie),
        );
        stripe.tokens[slot] = Some(token);
    }

    /// Dispatches parity slot `next_slot` as a fragment reissue. The
    /// first reissue of a stripe names the straggler — the lowest-index
    /// data slot still outstanding — and, when tied, makes it its tie
    /// peer, so the servers race each other to retract the loser.
    fn dispatch_fragment_reissue(
        &self,
        key: &Bytes,
        offset: usize,
        next_slot: usize,
        first: bool,
        straggler_slot: &mut Option<usize>,
        stripe: &mut Stripe,
    ) {
        self.counters.reissues.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = &self.governor {
            g.note_reissue();
        }
        let tie = if first {
            let straggler = (0..self.k).find(|&s| stripe.fates[s].is_none());
            *straggler_slot = straggler;
            straggler.and_then(|s| {
                stripe.tie_ids[s].map(|peer_id| TieSpec {
                    id: next_tie_id(),
                    peer: Some((self.replicas.replica((s + offset) % self.n).addr(), peer_id)),
                })
            })
        } else {
            None
        };
        self.dispatch_fragment(key, offset, next_slot, tie, stripe);
    }

    /// Drains a non-pair loser: completions are discarded, in-time
    /// retractions counted.
    fn drain_counting(self: &Arc<Self>, fut: InFlight) {
        let this = self.clone();
        self.rt.spawn(async move {
            if let Err(TransportError::Cancelled) = fut.await {
                this.counters
                    .cancelled_in_time
                    .fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Records one side of the `(straggler, first reissue)` pair;
    /// whichever report fills the second slot emits the pair counters.
    fn report_pair_side(&self, book: &Arc<Mutex<PairBook>>, side: PairSide, fate: Fate) {
        let (s, r) = {
            let mut b = book.lock().unwrap();
            match side {
                PairSide::Straggler => b.straggler = Some(fate),
                PairSide::Reissue => b.reissue = Some(fate),
            }
            match (b.straggler, b.reissue) {
                (Some(s), Some(r)) => (s, r),
                _ => return,
            }
        };
        match (s, r) {
            (Fate::Exact, Fate::Exact) => {
                self.counters.pairs_exact.fetch_add(1, Ordering::Relaxed);
            }
            // Both sides censored, or either side failed: nothing a
            // joint observation could anchor on.
            (Fate::Censored, Fate::Censored) => {}
            (Fate::Censored, Fate::Exact) | (Fate::Exact, Fate::Censored) => {
                self.counters.pairs_censored.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    /// Drains a pair participant that was still outstanding when the
    /// race resolved, reporting its fate to the book.
    fn drain_into_book(
        self: &Arc<Self>,
        fut: InFlight,
        book: Arc<Mutex<PairBook>>,
        side: PairSide,
    ) {
        let this = self.clone();
        self.rt.spawn(async move {
            let fate = match fut.await {
                Ok(_) => Fate::Exact,
                Err(TransportError::Cancelled) => {
                    this.counters
                        .cancelled_in_time
                        .fetch_add(1, Ordering::Relaxed);
                    Fate::Censored
                }
                Err(_) => Fate::Failed,
            };
            this.report_pair_side(&book, side, fate);
        });
    }
}

/// Which pair side an attempt belongs to, if any.
#[derive(Clone, Copy)]
enum PairSide {
    Straggler,
    Reissue,
}

fn pair_side(slot: usize, k: usize, straggler_slot: Option<usize>) -> Option<PairSide> {
    if slot == k {
        Some(PairSide::Reissue) // the first reissue dispatched
    } else if Some(slot) == straggler_slot {
        Some(PairSide::Straggler)
    } else {
        None
    }
}

/// Two-sided `(straggler, first reissue)` booking; `None` = pending.
struct PairBook {
    straggler: Option<Fate>,
    reissue: Option<Fate>,
}
