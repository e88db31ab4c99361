//! The hedged client: speculative execution driven by a
//! [`ReissuePolicy`], with live (`OnlineAdapter`) re-optimization.
//!
//! [`HedgedClient`] is the replica-hedging [`Job`] of the race engine
//! ([`mod@crate::race`], which documents the race itself): one primary to
//! the replica with the fewest requests of this client outstanding
//! ([`ReplicaSet::pick_primary`]), the reissue the *same command* to
//! the healthiest other replica (per-replica latency/error EWMA, see
//! [`crate::transport::ReplicaHealth`]), and
//! the first reply wins. This module holds what configures and bounds
//! that race: [`HedgeConfig`] and the [`BudgetGovernor`].

use crate::race::{Core, Job, Verdict};
use crate::rt::Runtime;
use crate::transport::{ReplicaSet, TransportError};

use kvstore::{Command, Reply};
use reissue_core::load::LoadSnapshot;
use reissue_core::online::OnlineConfig;
use reissue_core::policy::ReissuePolicy;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration for [`HedgedClient`].
#[derive(Clone, Debug)]
pub struct HedgeConfig {
    /// The starting policy (used as-is when `online` is `None`):
    /// `None`, `SingleD` or `SingleR`. With probability `q` a query
    /// arms a timer at `d` (measured from the primary dispatch) that,
    /// if the query is still outstanding, dispatches one reissue. A
    /// `MultipleR` is refused at connect (`InvalidInput`): at an equal
    /// budget a SingleR policy is as good (the paper's Theorem 3.2).
    pub policy: ReissuePolicy,
    /// When set, a [`reissue_core::online::OnlineAdapter`] re-optimizes
    /// `(d, q)` from observed latencies while serving, overriding
    /// `policy` once warmed up.
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
    /// A reissue denied quota *re-asks* one delay later rather than
    /// being dropped: a query still outstanding after several delays
    /// is precisely the straggler hedging exists for.
    pub budget_cap: Option<f64>,
    /// An externally shared governor. When set it takes precedence
    /// over `budget_cap`: several clients handed clones of one
    /// [`BudgetGovernor`] draw reissue quota from a single pool — the
    /// scatter-gather fan-out aggregator gives every per-shard client
    /// the same governor so hedging is per-shard but the *budget* is
    /// cross-shard.
    pub governor: Option<Arc<BudgetGovernor>>,
    /// TCP connections per replica. Each carries one request at a time
    /// (see [`crate::transport`]), so this is also the most requests of
    /// this client a replica can hold on the wire.
    pub pool_per_replica: usize,
    /// Executor worker threads.
    pub workers: usize,
    /// Seed for the reissue coin flips.
    pub seed: u64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            policy: ReissuePolicy::None,
            online: None,
            budget_cap: None,
            governor: None,
            pool_per_replica: 4,
            workers: 4,
            seed: 0x5EED,
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

    /// Asks for one reissue and, if granted, records it, in one atomic
    /// step: granted only while `reissues + 1 ≤ cap × (queries + 1) +
    /// burst`, so however many queries ask at once, the grants never
    /// exceed the allowance they were checked against.
    pub fn try_acquire(&self) -> bool {
        let queries = self.queries.load(Ordering::Relaxed) + 1;
        let allowance = self.cap * queries as f64 + self.burst();
        // Relaxed: the compare-exchange makes check-and-count one
        // step on `reissues`; neither counter publishes other data.
        self.reissues
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |granted| {
                ((granted + 1) as f64 <= allowance).then_some(granted + 1)
            })
            .is_ok()
    }

    /// Records one completed query.
    pub fn note_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed queries recorded so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Reissues granted so far.
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
    /// Reissues actually dispatched (the query's coin came up heads,
    /// its timer fired, and the governor granted quota).
    pub reissues: u64,
    /// Queries won by the reissue rather than the primary.
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
    /// Queries that failed outright — every attempt (the primary and
    /// the reissue, if one went out) resolved with a transport error.
    /// A single attempt's failure never counts here while another
    /// attempt can still save the query.
    pub errors: u64,
}

/// A hedging client over a set of kvstore replicas. Cheap to clone
/// (all clones share connections, policy state and statistics).
#[derive(Clone)]
pub struct HedgedClient {
    core: Arc<Core>,
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
        let core = Core::connect(rt, addrs, cfg)?;
        Ok(HedgedClient { core })
    }

    /// The executor, for spawning concurrent load generators.
    pub fn runtime(&self) -> &Runtime {
        self.core.runtime()
    }

    /// The current policy (live view; moves as the adapter re-optimizes).
    pub fn policy(&self) -> ReissuePolicy {
        match self.core.state.lock().unwrap().stage {
            Some(s) => ReissuePolicy::single_r(s.delay, s.prob),
            None => ReissuePolicy::None,
        }
    }

    /// The online adapter's current `(d, q)` record with its budget
    /// accounting, if online adaptation is enabled.
    pub fn online_policy(&self) -> Option<reissue_core::optimizer::OptimalSingleR> {
        let st = self.core.state.lock().unwrap();
        st.adapter.as_ref().map(|a| a.policy())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> HedgeStats {
        self.core.stats()
    }

    /// Reissue dispatches per replica index — the live targeting
    /// distribution (see `ReplicaSet::pick_reissue`).
    pub fn reissue_target_counts(&self) -> Vec<u64> {
        self.core.reissue_target_counts()
    }

    /// The health EWMAs for replica `idx`: `(latency_ewma_ms,
    /// error_ewma)`.
    pub fn replica_health(&self, idx: usize) -> (f64, f64) {
        let h = self.core.replicas().replica(idx).health();
        (h.latency_ewma_ms(), h.error_ewma())
    }

    /// Whether the online adapter's most recent re-optimization used
    /// the §4.2 correlated optimizer (`None` when online adaptation is
    /// off).
    pub fn online_correlated(&self) -> Option<bool> {
        let st = self.core.state.lock().unwrap();
        st.adapter.as_ref().map(|a| a.using_correlated())
    }

    /// The client's current utilization estimate ρ̂ ∈ `[0, 1]`, when
    /// utilization-aware hedging is on (`OnlineConfig::load`); `None`
    /// otherwise. Zero until the load signal warms up.
    pub fn utilization(&self) -> Option<f64> {
        self.core.load.as_ref().map(|l| l.utilization())
    }

    /// A snapshot of every load-signal estimator (offered rate,
    /// in-flight, service estimate, ρ̂), when utilization-aware
    /// hedging is on.
    pub fn load_snapshot(&self) -> Option<LoadSnapshot> {
        self.core.load.as_ref().map(|l| l.snapshot())
    }

    /// Executes one command with hedging; resolves to the winning
    /// reply. The returned future is `'static`: spawn any number
    /// concurrently.
    pub fn execute(
        &self,
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        let core = self.core.clone();
        let job = ReplicaJob {
            cmd,
            primary: 0,
            reply: None,
        };
        async move { core.run(job).await }
    }

    /// Blocking convenience wrapper around [`HedgedClient::execute`].
    pub fn execute_blocking(&self, cmd: Command) -> Result<Reply, TransportError> {
        let fut = self.execute(cmd);
        self.core.runtime().block_on(fut)
    }
}

/// Replica hedging as a race: every attempt is a full copy of one
/// command, and the first reply of any kind is the answer.
struct ReplicaJob {
    cmd: Command,
    /// The replica the primary went to.
    primary: usize,
    reply: Option<Reply>,
}

impl Job for ReplicaJob {
    fn primaries(&self) -> usize {
        1
    }

    /// The primary and the reissue.
    fn capacity(&self) -> usize {
        2
    }

    /// The primary goes to the replica with the fewest outstanding; the
    /// reissue to the healthiest other replica.
    fn attempt(&mut self, slot: usize, replicas: &ReplicaSet) -> (Command, usize) {
        if slot == 0 {
            self.primary = replicas.pick_primary();
            return (self.cmd.clone(), self.primary);
        }
        (self.cmd.clone(), replicas.pick_reissue(self.primary))
    }

    fn accept(&mut self, _slot: usize, reply: Reply) -> Verdict {
        self.reply = Some(reply);
        Verdict::Done
    }

    fn finish(self) -> Result<Reply, TransportError> {
        self.reply.ok_or(TransportError::ConnectionClosed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// The cap is an invariant under concurrent asks: 8 threads asking
    /// 10 000 times each against a fixed `queries` are granted the
    /// allowance exactly, never one more.
    #[test]
    fn concurrent_asks_never_exceed_the_allowance() {
        let governor = BudgetGovernor::new(0.05);
        for _ in 0..999 {
            governor.note_query();
        }
        let allowance = (0.05 * 1000.0 + governor.burst()).floor() as u64;
        let start = Barrier::new(8);
        let granted: u64 = std::thread::scope(|s| {
            let asking: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..10_000).filter(|_| governor.try_acquire()).count() as u64
                    })
                })
                .collect();
            asking.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(granted, allowance);
        assert_eq!(governor.reissues(), allowance);
    }
}
