//! The k-of-n fragment-hedging client.
//!
//! A striped read is one [`Job`] of the race engine ([`mod@hedge::race`]),
//! which owns the stage timers, the governor ask, loser retraction and
//! the `(straggler, first reissue)` pair book for every kind of race.
//! What makes the race a *stripe* is the job's five answers:
//!
//! 1. the first wave is the `k` *data*-fragment reads;
//! 2. attempt `s` is `FGET key s` to replica `(s + o) % n` for the
//!    key's rotation offset `o` (see [`crate::placement_offset`]), so
//!    the `r`-th reissue fetches fragment `k + r`, a parity clone on a
//!    replica not yet involved, instead of a second full copy;
//! 3. a payload is banked, and the read is done as soon as the
//!    fragments in hand decode (all `k` data fragments, or `k − 1` of
//!    them plus a parity clone) or all `k` data slots answered `Nil`
//!    (the key has no stripe);
//! 4. there are `n` attempts to make, one per fragment;
//! 5. the result is the decoded value.
//!
//! That is the erasure-coding trade at the heart of this subsystem:
//! the hedge costs `1/k` of a full read, so at an equal *byte* budget
//! the fragment client can afford `k×` the reissue probability of the
//! replica client ([`reissue_core::kofn::fragment_budget`]).
//!
//! Under [`CancellationStyle::Tied`] the engine has every data
//! fragment register a tie id and the *first* reissue name the
//! straggler (the lowest-index data slot still outstanding) as its
//! peer, so whichever server dequeues first retracts the other
//! server-to-server; client-driven `CANCEL` remains the fallback for
//! everything the tie does not cover. Retractions that land in time
//! book **censored** `(straggler, reissue)` pairs.

use crate::codec::{self, decodable};
use hedge::race::{Core, Job, Verdict, MAX_ATTEMPTS};
use hedge::rt::Runtime;
use hedge::{BudgetGovernor, CancelToken, CancellationStyle, HedgeConfig};
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
        let rt = Runtime::new(cfg.workers);
        Self::connect_with_runtime(rt, addrs, cfg)
    }

    /// Connects on an existing runtime.
    pub fn connect_with_runtime(
        rt: Runtime,
        addrs: &[SocketAddr],
        cfg: StripedConfig,
    ) -> std::io::Result<StripedClient> {
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
            governor: cfg.governor,
            pool_per_replica: cfg.pool_per_replica,
            workers: cfg.workers,
            seed: cfg.seed,
            cancellation: cfg.cancellation,
        };
        Ok(StripedClient {
            inner: Arc::new(ScInner {
                core: Core::connect(rt, addrs, hedge_cfg)?,
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

    /// Stripe geometry `(k, n)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.inner.k, self.inner.n)
    }

    /// The budget governor in force, if any.
    pub fn governor(&self) -> Option<&Arc<BudgetGovernor>> {
        self.inner.core.governor()
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

    /// Quantile of end-to-end striped-read latencies (ms).
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.inner.core.latency_quantile(q)
    }

    /// Writes `value` as a `(k, n)` stripe. Blocking convenience for
    /// seeding: [`StripedClient::execute`] of a `SET`.
    pub fn put_blocking(&self, key: &[u8], value: &[u8]) -> Result<(), TransportError> {
        let set = Command::Set(Bytes::copy_from_slice(key), Bytes::copy_from_slice(value));
        self.execute_blocking(set).map(|_| ())
    }

    /// Executes one command. `GET` runs the k-of-n fragment race;
    /// `SET` writes a stripe (slot `s`'s fragment to the key's rotated
    /// replica `(s + offset) % n`, awaiting every `FSET`
    /// acknowledgement); everything else passes through untouched to
    /// the replica with the fewest outstanding. The returned future is
    /// `'static`: spawn any number concurrently.
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
                    for (slot, frag) in frags.into_iter().enumerate() {
                        let cmd = Command::FSet(key.clone(), slot as u32, frag);
                        let reply = replicas
                            .replica((slot + offset) % inner.n)
                            .request_tied(cmd, CancelToken::new(), None)
                            .await?;
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
                        .request_tied(other, CancelToken::new(), None)
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

/// One striped read as a race (see the module docs for its five
/// answers).
struct StripeJob<'a> {
    client: &'a ScInner,
    key: Bytes,
    /// The key's placement rotation.
    offset: usize,
    /// Payload per slot that answered with one.
    fragments: [Option<Bytes>; MAX_ATTEMPTS],
    /// Data slots that answered `Nil`.
    nil_data_slots: usize,
}

impl<'a> StripeJob<'a> {
    fn new(client: &'a ScInner, key: Bytes) -> Self {
        StripeJob {
            offset: crate::placement_offset(&key, client.n),
            client,
            key,
            fragments: std::array::from_fn(|_| None),
            nil_data_slots: 0,
        }
    }

    fn decodable(&self) -> bool {
        let present = (0..self.client.n).filter(|&s| self.fragments[s].is_some());
        decodable(self.client.k, present)
    }
}

impl Job for StripeJob<'_> {
    fn primaries(&self) -> usize {
        self.client.k
    }

    fn capacity(&self) -> usize {
        self.client.n
    }

    fn attempt(&mut self, slot: usize, _: &ReplicaSet, _: &[usize]) -> (Command, usize) {
        let cmd = Command::FGet(self.key.clone(), slot as u32);
        (cmd, (slot + self.offset) % self.client.n)
    }

    fn accept(&mut self, slot: usize, reply: Reply) -> Verdict {
        match reply {
            Reply::Str(payload) => {
                self.fragments[slot] = Some(payload);
                if self.decodable() {
                    Verdict::Done
                } else {
                    Verdict::Progress
                }
            }
            // Absent fragment: not an error in transit, but it can
            // never contribute to the decode. Once every data slot
            // has answered so, the key has no stripe, which is an
            // answer.
            Reply::Nil => {
                if slot < self.client.k {
                    self.nil_data_slots += 1;
                }
                if self.nil_data_slots >= self.client.k {
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
            return Ok(if self.nil_data_slots >= k {
                Reply::Nil
            } else {
                Reply::Error("ERASURE undecodable: too few fragments".into())
            });
        }
        if self.fragments[..k].iter().flatten().count() < k {
            self.client
                .decodes_with_parity
                .fetch_add(1, Ordering::Relaxed);
        }
        let present: Vec<&Bytes> = self.fragments.iter().flatten().collect();
        // decodable() and decode_stripe() agree on the slot arithmetic;
        // an error here means a malformed stored fragment, not a logic
        // race.
        codec::decode_stripe(&present)
            .map(Reply::Str)
            .map_err(|e| TransportError::Protocol(format!("ERASURE {e}")))
    }
}
