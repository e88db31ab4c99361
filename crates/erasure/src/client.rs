//! The k-of-n fragment-hedging client.
//!
//! A striped read is one [`Job`] of the race engine ([`mod@hedge::race`]),
//! which owns the reissue timer, the governor ask, loser retraction and
//! the `(straggler, reissue)` pair book for every kind of race.
//! What makes the race a *stripe* is the job's six answers:
//!
//! 1. the first wave is `k` fragment reads, and any `k` fragments
//!    decode ([`crate::codec`] is an MDS code), so it is simply the
//!    `k` least-loaded of the key's `n` placed fragments, ranked as
//!    [`ReplicaSet::pick_primary`] ranks replicas
//!    ([`ReplicaSet::dispatch_rank`]: a
//!    [failing](hedge::transport::ReplicaHealth::failing) replica
//!    last, then fewest requests of this client outstanding), ties to
//!    the lowest slot. A read goes around every server a monster
//!    fragment is blocking, up to `n − k` of them, and an idle group
//!    reads the data slots and decodes by concatenation;
//! 2. the reissue is `FGET` of the least-loaded slot not yet asked,
//!    never a second full copy. Where a slot lives is still the key's
//!    rotation ([`crate::placement_offset`]: slot `s` on replica
//!    `(s + o) % n`); *which* slots are read is decided per read. The
//!    engine numbers attempts by dispatch order, so the job keeps the
//!    attempt → slot table;
//! 3. a payload is banked, and the read is done as soon as `k`
//!    fragments are in hand or `k` of the slots asked answered `Nil`
//!    (the key has no stripe);
//! 4. there are `n` attempts to make, one per fragment;
//! 5. the reissue is held while fewer than `k − 1` fragments are in
//!    hand: until then it could not be the decoding fragment, and a
//!    monster read whose `k` fragments are all slow would only block
//!    one more server with a read that cannot end the race. A held
//!    reissue that is past due goes out with the `(k − 1)`-th
//!    fragment. `k = 1` never holds;
//! 6. the result is the decoded value.
//!
//! A failing replica ranks last, so with `n > k` it would never be
//! read again by an unhedged, read-only client, and never get the
//! successes that bring its error EWMA back under one half. Reads take
//! their turn from the counter `pick_primary` uses
//! ([`ReplicaSet::probe_turn`]): while some replica is failing, one
//! read in sixteen ranks the failing ones *first* in its wave. That is
//! also what an outage costs an unhedged stripe, a sixteenth of its
//! reads; a hedged one rescues the probe through its reissue.
//!
//! That is the erasure-coding trade at the heart of this subsystem:
//! the hedge costs `1/k` of a full read, so at an equal *byte* budget
//! the fragment client can afford `k×` the reissue probability of the
//! replica client ([`reissue_core::kofn::fragment_budget`]).
//!
//! The engine ties the reissue to the straggler (the
//! earliest-dispatched first-wave attempt still outstanding): the
//! straggler's server retracts the queued reissue server-to-server
//! when it dequeues the straggler, and the client's `CANCEL` retracts
//! whatever loses the race, queued or in service. Retractions that
//! land in time book **censored** `(straggler, reissue)` pairs.

use crate::codec;
use hedge::race::{Core, Job, Verdict, MAX_ATTEMPTS};
use hedge::rt::Runtime;
use hedge::transport::InFlight;
use hedge::{CancelToken, HedgeConfig};
use hedge::{ReplicaSet, TransportError};
use kvstore::{Command, Reply};
use reissue_core::policy::ReissuePolicy;

use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration for [`StripedClient`].
#[derive(Clone, Debug)]
pub struct StripedConfig {
    /// Data fragments per stripe. The replica count `n` is taken from
    /// the address list; for each key, `k` replicas hold its data
    /// fragments and the other `n − k` hold its parity rows (which
    /// replica holds which slot rotates per key, see
    /// [`crate::placement_offset`]).
    pub k: usize,
    /// The reissue policy armed over the straggling fragment: `None`,
    /// `SingleD` or `SingleR`, with `d` measured from the first wave's
    /// dispatch, as the replica-hedging client measures it from its
    /// primary. A `MultipleR` is refused at connect (`InvalidInput`).
    pub policy: ReissuePolicy,
    /// Cap on the realized fragment-reissue rate (reissues / striped
    /// reads); see [`hedge::BudgetGovernor`]. Remember the equal-byte
    /// exchange rate: a fragment budget of `q` costs the bytes of a
    /// replica budget of `q / k`.
    pub budget_cap: Option<f64>,
    /// TCP connections per replica.
    pub pool_per_replica: usize,
    /// Worker threads of the runtime [`StripedClient::connect`] starts.
    pub workers: usize,
    /// Seed for the reissue coin flips.
    pub seed: u64,
}

impl Default for StripedConfig {
    fn default() -> Self {
        StripedConfig {
            k: 2,
            policy: ReissuePolicy::None,
            budget_cap: None,
            pool_per_replica: 4,
            workers: 4,
            seed: 0x5EED,
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
    /// Striped reads decoded with at least one parity fragment
    /// standing in for a data fragment.
    pub decodes_with_parity: u64,
    /// Fragment attempts whose retraction landed in time: retracted
    /// before service (by the client's `CANCEL`, or a reissue by its
    /// straggler's server) or during it (by the client's `CANCEL`).
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

struct ScInner {
    core: Arc<Core>,
    k: usize,
    n: usize,
    decodes_with_parity: AtomicU64,
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
        let n = addrs.len();
        let invalid = |why: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, why);
        if cfg.k == 0 || n < cfg.k {
            return Err(invalid(format!(
                "need at least k={} replicas, got {n}",
                cfg.k
            )));
        }
        // The race engine keeps a read's attempts, one per fragment, in
        // an inline table of this size.
        if n > MAX_ATTEMPTS {
            return Err(invalid(format!(
                "a stripe spans at most {MAX_ATTEMPTS} replicas, got {n}"
            )));
        }
        let hedge_cfg = HedgeConfig {
            policy: cfg.policy,
            online: None,
            budget_cap: cfg.budget_cap,
            governor: None,
            pool_per_replica: cfg.pool_per_replica,
            workers: cfg.workers,
            seed: cfg.seed,
        };
        Ok(StripedClient {
            inner: Arc::new(ScInner {
                core: Core::connect(Runtime::new(cfg.workers), addrs, hedge_cfg)?,
                k: cfg.k,
                n,
                decodes_with_parity: AtomicU64::new(0),
            }),
        })
    }

    /// The executor, for spawning concurrent load generators.
    pub fn runtime(&self) -> &Runtime {
        self.inner.core.runtime()
    }

    /// Counter snapshot: the engine's counters, plus this client's own
    /// count of parity decodes.
    pub fn stats(&self) -> StripedStats {
        let s = self.inner.core.stats();
        StripedStats {
            queries: s.queries,
            reissues: s.reissues,
            reissue_wins: s.reissue_wins,
            decodes_with_parity: self.inner.decodes_with_parity.load(Ordering::Relaxed),
            cancelled_in_time: s.cancelled_in_time,
            pairs_exact: s.pairs_exact,
            pairs_censored: s.pairs_censored,
            errors: s.errors,
        }
    }

    /// Writes `value` as a `(k, n)` stripe. Blocking convenience for
    /// seeding: [`StripedClient::execute`] of a `SET`.
    pub fn put_blocking(&self, key: &[u8], value: &[u8]) -> Result<(), TransportError> {
        let set = Command::Set(Bytes::copy_from_slice(key), Bytes::copy_from_slice(value));
        self.execute_blocking(set).map(|_| ())
    }

    /// Executes one command. `GET` runs the k-of-n fragment race over
    /// the `k` least-loaded fragments (see the module docs); `SET`
    /// writes a stripe as one wave (slot `s`'s fragment to the key's
    /// rotated replica `(s + offset) % n`, all `n` `FSET`s dispatched
    /// before the first acknowledgement is awaited; the first error in
    /// slot order is the one returned); everything else passes through
    /// untouched to the replica with the fewest outstanding. The
    /// returned future is `'static`: spawn any number concurrently.
    pub fn execute(
        &self,
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        let inner = self.inner.clone();
        async move {
            let replicas = inner.core.replicas();
            match cmd {
                Command::Get(key) => inner.core.run(StripeJob::new(&inner, key)).await,
                Command::Set(key, value) => {
                    let frags = codec::encode_stripe(&value, inner.k, inner.n)
                        .map_err(|e| TransportError::Protocol(e.to_string()))?;
                    let offset = crate::placement_offset(&key, inner.n);
                    let mut acks: [Option<InFlight>; MAX_ATTEMPTS] = std::array::from_fn(|_| None);
                    for (slot, frag) in frags.into_iter().enumerate() {
                        let cmd = Command::FSet(key.clone(), slot as u32, frag);
                        let replica = replicas.replica((slot + offset) % inner.n);
                        acks[slot] = Some(replica.request(cmd, CancelToken::new()));
                    }
                    for (slot, ack) in acks.into_iter().flatten().enumerate() {
                        let reply = ack.await?;
                        if !matches!(reply, Reply::Ok) {
                            return Err(TransportError::Protocol(format!(
                                "FSET slot {slot} replied {reply:?}"
                            )));
                        }
                    }
                    Ok(Reply::Ok)
                }
                other => {
                    replicas
                        .replica(replicas.pick_primary())
                        .request(other, CancelToken::new())
                        .await
                }
            }
        }
    }

    /// Blocking convenience wrapper around [`StripedClient::execute`].
    pub fn execute_blocking(&self, cmd: Command) -> Result<Reply, TransportError> {
        let fut = self.execute(cmd);
        self.runtime().block_on(fut)
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

/// Which slots of one stripe a read has asked, in what order, and how
/// many answered with a payload: everything the choice of the next
/// slot depends on apart from the replicas' load. Slot sets are bit
/// masks (bit `s` is slot `s`; a stripe spans at most [`MAX_ATTEMPTS`]
/// replicas).
#[derive(Clone, Copy)]
struct Slots {
    n: usize,
    /// Slot fetched by attempt `i`. The engine numbers attempts by
    /// dispatch order; which fragment each one asked for is kept here.
    of_attempt: [u8; MAX_ATTEMPTS],
    attempts: usize,
    asked: u16,
    banked: u16,
}

impl Slots {
    fn new(n: usize) -> Self {
        Slots {
            n,
            of_attempt: [0; MAX_ATTEMPTS],
            attempts: 0,
            asked: 0,
            banked: 0,
        }
    }

    /// Takes the slot not yet asked that `rank` puts first, ties to the
    /// lowest slot, so a data slot goes before a parity slot no better
    /// placed and an idle group decodes by concatenation.
    fn take<R: Ord>(&mut self, rank: impl Fn(usize) -> R) -> usize {
        let slot = (0..self.n)
            .filter(|s| self.asked >> s & 1 == 0)
            .min_by_key(|&s| rank(s))
            .expect("the engine dispatches within capacity()");
        self.of_attempt[self.attempts] = slot as u8;
        self.attempts += 1;
        self.asked |= 1 << slot;
        slot
    }

    /// Fragments in hand. Any `k` of them decode.
    fn in_hand(&self) -> usize {
        self.banked.count_ones() as usize
    }
}

/// One striped read as a race (see the module docs for its six
/// answers).
struct StripeJob<'a> {
    client: &'a ScInner,
    key: Bytes,
    /// The key's placement rotation.
    offset: usize,
    /// This read's wave ranks the failing replicas first.
    probe: bool,
    slots: Slots,
    /// The payloads in hand, in arrival order (a fragment names its
    /// own slot); the first `slots.in_hand()` entries.
    fragments: [Bytes; MAX_ATTEMPTS],
    /// Slots that answered `Nil`.
    nil_slots: usize,
}

impl<'a> StripeJob<'a> {
    fn new(client: &'a ScInner, key: Bytes) -> Self {
        StripeJob {
            offset: crate::placement_offset(&key, client.n),
            probe: client.core.replicas().probe_turn(),
            client,
            key,
            slots: Slots::new(client.n),
            fragments: std::array::from_fn(|_| Bytes::new()),
            nil_slots: 0,
        }
    }

    fn decodable(&self) -> bool {
        self.slots.in_hand() >= self.client.k
    }
}

impl Job for StripeJob<'_> {
    fn primaries(&self) -> usize {
        self.client.k
    }

    fn capacity(&self) -> usize {
        self.client.n
    }

    /// A reissue can be the decoding fragment only once `k − 1` are in
    /// hand.
    fn holds(&self) -> bool {
        self.slots.in_hand() + 1 < self.client.k
    }

    fn attempt(&mut self, attempt: usize, replicas: &ReplicaSet) -> (Command, usize) {
        let (k, n, offset) = (self.client.k, self.client.n, self.offset);
        // `pick_primary`'s rank, over the replicas holding this key. A
        // probe is the wave's business: a reissue is sent to end the
        // race.
        let probe = self.probe && attempt < k;
        let slot = self
            .slots
            .take(|s| replicas.dispatch_rank((s + offset) % n, probe));
        let cmd = Command::FGet(self.key.clone(), slot as u32);
        (cmd, (slot + offset) % n)
    }

    fn accept(&mut self, attempt: usize, reply: Reply) -> Verdict {
        let slot = usize::from(self.slots.of_attempt[attempt]);
        match reply {
            Reply::Str(payload) => {
                self.fragments[self.slots.in_hand()] = payload;
                self.slots.banked |= 1 << slot;
                if self.decodable() {
                    Verdict::Done
                } else {
                    Verdict::Progress
                }
            }
            // Absent fragment: not an error in transit, but it can
            // never contribute to the decode. A stripe is written
            // whole, so once `k` of its slots (each attempt asks a
            // different one, data or parity) have answered so, the key
            // has no stripe, which is an answer.
            Reply::Nil => {
                self.nil_slots += 1;
                if self.nil_slots >= self.client.k {
                    Verdict::Done
                } else {
                    Verdict::Useless(None)
                }
            }
            other => Verdict::Useless(Some(TransportError::Protocol(format!(
                "FGET slot {slot} replied {other:?}"
            )))),
        }
    }

    fn finish(self) -> Result<Reply, TransportError> {
        let k = self.client.k;
        if !self.decodable() {
            return Ok(if self.nil_slots >= k {
                Reply::Nil
            } else {
                Reply::Error("ERASURE undecodable: too few fragments".into())
            });
        }
        if self.slots.banked.trailing_ones() < k as u32 {
            self.client
                .decodes_with_parity
                .fetch_add(1, Ordering::Relaxed);
        }
        // `k` distinct slots are in hand; an error here means a
        // malformed stored fragment, not a logic race.
        codec::decode_stripe(&self.fragments[..self.slots.in_hand()])
            .map(Reply::Str)
            .map_err(|e| TransportError::Protocol(format!("ERASURE {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decodable;

    /// Every geometry up to `(4, 6)` under every pattern of failing
    /// flags and outstanding counts (two levels each: four ranks per
    /// slot, ties included).
    #[test]
    fn every_wave_decodes_and_every_reissue_can_contribute() {
        for n in 1..=6usize {
            for k in 1..=n.min(4) {
                for pattern in 0..4usize.pow(n as u32) {
                    let rank = |s: usize| {
                        let r = pattern >> (2 * s) & 3;
                        (r >= 2, r % 2)
                    };
                    let mut slots = Slots::new(n);
                    let wave: Vec<usize> = (0..k).map(|_| slots.take(rank)).collect();

                    // Exactly the k lowest-ranked slots, best first,
                    // ties to the lowest index: no slot is special.
                    let mut expected: Vec<usize> = (0..n).collect();
                    expected.sort_by_key(|&s| (rank(s), s));
                    expected.truncate(k);
                    let case = format!("k={k} n={n} pattern={pattern:#x} wave={wave:?}");
                    assert_eq!(wave, expected, "{case}");
                    assert_eq!(slots.asked.count_ones() as usize, k, "{case}");
                    assert!(decodable(k, wave.iter().copied()), "{case}");

                    // Reissues, from every subset of the wave banked,
                    // with and without their own payloads arriving:
                    // always the best slot not yet asked, whatever is
                    // in hand, until all `n` have been.
                    for banked in 0..1u16 << k {
                        for reissues_answer in [false, true] {
                            let mut slots = slots;
                            for (i, &s) in wave.iter().enumerate() {
                                slots.banked |= (banked >> i & 1) << s;
                            }
                            while slots.attempts < n {
                                let before = slots;
                                let s = slots.take(rank);
                                assert_eq!(before.asked >> s & 1, 0, "{case}: {s} asked twice");
                                let best_unasked = (0..n)
                                    .filter(|s| before.asked >> s & 1 == 0)
                                    .min_by_key(|&s| (rank(s), s));
                                assert_eq!(Some(s), best_unasked, "{case}");
                                if reissues_answer {
                                    slots.banked |= 1 << s;
                                    assert_eq!(slots.in_hand(), before.in_hand() + 1, "{case}");
                                }
                            }
                            assert_eq!(slots.asked, (1 << n) - 1, "{case}");
                        }
                    }
                }
            }
        }
    }
}
