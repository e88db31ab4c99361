//! The scatter-gather fan-out aggregator: one [`HedgedClient`] per
//! shard group, hedging **per shard** under one **shared cross-shard
//! reissue budget**.
//!
//! This is the tail-at-scale regime the paper's single-group
//! experiments deliberately factor out: a request that fans out to `N`
//! shards completes only when its *slowest* leg does, so a per-leg
//! P99 compounds to an aggregate tail of `1 − 0.99^N` — at `N = 100`,
//! **63%** of requests see at least one leg's worst 1%. Hedging must
//! therefore act where the straggling happens (each shard's replica
//! group has its own health, its own queue of death), while the
//! *budget* — the extra-load knob the whole cluster pays for — must be
//! governed globally: `N` legs each locally entitled to `b` reissues
//! per query would burst to `N·b` exactly when a slow epoch hits every
//! shard at once. The aggregator gives every leg a clone of one
//! [`BudgetGovernor`], so quota spends where stragglers actually are
//! (a sick shard can draw more than its 1/N share) without the
//! cluster-wide rate exceeding the budget.
//!
//! Single-key commands route by [`Keyspace`] hash instead of fanning
//! out ([`FanoutClient::execute_routed`]).
//!
//! Under open-loop load a fan-out is one arrival: [`FanoutClient`] is
//! a [`hedge::LoadClient`] of [`ShardedCluster::run_load`]. What that
//! loop has no notion of, the latency of each leg, is recorded by the
//! client handle a run is given ([`LegRecorder`]).

use crate::cluster::ShardedCluster;
use crate::partition::Keyspace;

use hedge::rt::Runtime;
use hedge::transport::TransportError;
use hedge::{BudgetGovernor, HedgeConfig, HedgedClient, LoadClient};
use kvstore::{Backend, Command, Hit, Reply};
use reissue_core::metrics::LogHistogram;
use reissue_core::online::OnlineConfig;
use reissue_core::policy::ReissuePolicy;

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration for [`FanoutClient`].
#[derive(Clone, Debug)]
pub struct FanoutConfig {
    /// Starting reissue policy, applied per shard leg (each leg's
    /// hedging runs against its own replica group).
    pub policy: ReissuePolicy,
    /// When set, every leg runs its own `OnlineAdapter` (per-shard
    /// latency distributions re-optimize independently) — but all legs
    /// still draw from the one shared budget below.
    pub online: Option<OnlineConfig>,
    /// Target per-leg reissue budget (reissues / leg-queries),
    /// enforced *across* legs by one shared [`BudgetGovernor`] at
    /// 1.25× headroom (matching [`HedgeConfig::budget_cap`]'s default
    /// relationship to the online budget). Defaults to the online
    /// budget when unset; `None` with `online: None` means ungoverned.
    pub budget: Option<f64>,
    /// TCP connections per replica, per leg.
    pub pool_per_replica: usize,
    /// Executor worker threads — one runtime shared by every leg.
    pub workers: usize,
    /// Seed for the legs' reissue coin flips (varied per leg). Each
    /// leg retracts its losers as every hedged race does: the reissue
    /// tied to the straggler, and the client's `CANCEL` for the rest.
    pub seed: u64,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        FanoutConfig {
            policy: ReissuePolicy::None,
            online: None,
            budget: None,
            pool_per_replica: 2,
            workers: 4,
            seed: 0xFA20,
        }
    }
}

/// One leg of a scatter-gather request.
#[derive(Clone, Debug)]
pub struct LegReply {
    /// The shard this leg queried.
    pub shard: usize,
    /// The leg's reply (hedging already resolved: this is the winning
    /// attempt, or the error after every attempt failed).
    pub result: Result<Reply, TransportError>,
    /// Leg latency, ms, measured from the fan-out dispatch.
    pub ms: f64,
}

/// The gathered result of one fan-out: every leg, plus the wall-clock
/// total (which is `max` over legs plus gather overhead — the
/// compounding the aggregate histograms measure).
#[derive(Clone, Debug)]
pub struct FanoutReply {
    /// Per-shard legs, in shard order.
    pub legs: Vec<LegReply>,
    /// End-to-end latency, ms (all legs gathered).
    pub total_ms: f64,
}

impl FanoutReply {
    /// Slowest leg's latency, ms.
    pub fn max_leg_ms(&self) -> f64 {
        self.legs.iter().map(|l| l.ms).fold(0.0, f64::max)
    }

    /// Legs that returned a reply.
    pub fn ok_legs(&self) -> usize {
        self.legs.iter().filter(|l| l.result.is_ok()).count()
    }

    /// Legs whose every attempt failed at the transport.
    pub fn failed_legs(&self) -> usize {
        self.legs.len() - self.ok_legs()
    }

    /// Merges per-shard top-k hit lists into the global top-k (score
    /// descending, doc id ascending on ties — deterministic given the
    /// legs). Failed legs are skipped (degraded results); an empty
    /// RESP array decodes as `Reply::Members([])`, which counts as
    /// zero hits here.
    pub fn merge_top_k(&self, k: usize) -> Vec<Hit> {
        let mut merged: Vec<Hit> = Vec::new();
        for leg in &self.legs {
            // Failed legs and non-hit replies are skipped: the wire
            // cannot distinguish an empty hit list from an empty
            // member set, and both mean "no hits" in a fan-out.
            if let Ok(Reply::Hits(hits)) = &leg.result {
                merged.extend_from_slice(hits);
            }
        }
        merged.sort_by(|a, b| {
            b.score()
                .partial_cmp(&a.score())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        merged.truncate(k);
        merged
    }
}

/// The scatter-gather client: one hedged leg per shard, one shared
/// runtime, one shared budget. Cheap to clone (clones share legs,
/// governor and runtime).
#[derive(Clone)]
pub struct FanoutClient {
    rt: Runtime,
    legs: Vec<HedgedClient>,
    governor: Option<Arc<BudgetGovernor>>,
    keyspace: Keyspace,
}

impl FanoutClient {
    /// Connects one [`HedgedClient`] to each shard group of `cluster`,
    /// all sharing one runtime and (when a budget is configured) one
    /// [`BudgetGovernor`].
    pub fn connect<B: Backend>(
        cluster: &ShardedCluster<B>,
        cfg: FanoutConfig,
    ) -> std::io::Result<FanoutClient> {
        let rt = Runtime::new(cfg.workers);
        let governor = cfg
            .budget
            .or(cfg.online.map(|o| o.budget))
            .map(|cap| Arc::new(BudgetGovernor::new(1.25 * cap)));
        let legs = (0..cluster.shards())
            .map(|s| {
                let leg_cfg = HedgeConfig {
                    policy: cfg.policy.clone(),
                    online: cfg.online,
                    budget_cap: None,
                    governor: governor.clone(),
                    pool_per_replica: cfg.pool_per_replica,
                    workers: cfg.workers,
                    seed: cfg
                        .seed
                        .wrapping_add(0x9E37_79B9_97F4_A7C1u64.wrapping_mul(s as u64)),
                };
                HedgedClient::connect_with_runtime(rt.clone(), &cluster.group_addrs(s), leg_cfg)
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(FanoutClient {
            rt,
            legs,
            governor,
            keyspace: Keyspace::new(cluster.shards()),
        })
    }

    /// Number of shard legs.
    pub fn shards(&self) -> usize {
        self.legs.len()
    }

    /// The shared executor.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Shard `s`'s hedged client.
    pub fn leg(&self, s: usize) -> &HedgedClient {
        &self.legs[s]
    }

    /// The shared cross-shard budget governor, if one is configured.
    pub fn governor(&self) -> Option<&Arc<BudgetGovernor>> {
        self.governor.as_ref()
    }

    /// The hash partitioner used by [`FanoutClient::execute_routed`].
    pub fn keyspace(&self) -> &Keyspace {
        &self.keyspace
    }

    /// Cluster-wide realized reissue rate: total reissues over total
    /// per-leg queries, i.e. the per-leg fraction the shared budget
    /// caps.
    pub fn realized_reissue_rate(&self) -> f64 {
        let (queries, reissues) = self.load_counters();
        reissues as f64 / queries.max(1) as f64
    }

    /// Scatter-gathers one request: `make(s)` builds shard `s`'s
    /// command, every leg is dispatched **eagerly** (spawned on the
    /// shared runtime at call time — [`HedgedClient::execute`] futures
    /// are lazy, and sequentially awaited lazy legs would serialize
    /// the fan-out), and the returned future resolves once all legs
    /// have gathered.
    pub fn execute_all(
        &self,
        mut make: impl FnMut(usize) -> Command,
    ) -> impl std::future::Future<Output = FanoutReply> + Send + 'static {
        let started = Instant::now();
        let handles: Vec<_> = self
            .legs
            .iter()
            .enumerate()
            .map(|(s, leg)| {
                let fut = leg.execute(make(s));
                self.rt.spawn(async move {
                    let result = fut.await;
                    (result, started.elapsed().as_secs_f64() * 1e3)
                })
            })
            .collect();
        async move {
            let mut legs = Vec::with_capacity(handles.len());
            for (s, h) in handles.into_iter().enumerate() {
                let (result, ms) = h.await;
                legs.push(LegReply {
                    shard: s,
                    result,
                    ms,
                });
            }
            FanoutReply {
                legs,
                total_ms: started.elapsed().as_secs_f64() * 1e3,
            }
        }
    }

    /// Blocking wrapper around [`FanoutClient::execute_all`],
    /// broadcasting one command to every shard.
    pub fn execute_all_blocking(&self, cmd: &Command) -> FanoutReply {
        let fut = self.execute_all(|_| cmd.clone());
        self.rt.block_on(fut)
    }

    /// Routes a single-key command to the shard owning `key` (no
    /// fan-out; the one leg still hedges across its replicas).
    pub fn execute_routed(
        &self,
        key: &[u8],
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        self.legs[self.keyspace.shard_of(key)].execute(cmd)
    }

    /// Blocking wrapper around [`FanoutClient::execute_routed`].
    pub fn execute_routed_blocking(
        &self,
        key: &[u8],
        cmd: Command,
    ) -> Result<Reply, TransportError> {
        let fut = self.execute_routed(key, cmd);
        self.rt.block_on(fut)
    }

    /// A handle on this client that records the latency of every leg
    /// it serves: give a fresh one to each measured
    /// [`ShardedCluster::run_load`] (a warm-up driven through the plain
    /// client is then not in its histograms).
    pub fn record_legs(&self) -> LegRecorder {
        LegRecorder {
            client: self.clone(),
            legs: Arc::new(Mutex::new(LegLatencies {
                all: LogHistogram::latency_ms(),
                by_shard: vec![LogHistogram::latency_ms(); self.shards()],
            })),
        }
    }

    /// One open-loop arrival: `cmd` broadcast to every shard. A fan-out
    /// that some leg answered is `Ok` (the first such leg's reply: it
    /// serves partial results), one that no leg answered is the last
    /// leg's error. Successful legs are timed into `record`.
    fn broadcast(
        &self,
        cmd: Command,
        record: Option<Arc<Mutex<LegLatencies>>>,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        let fut = self.execute_all(move |_| cmd.clone());
        async move {
            let reply = fut.await;
            if let Some(record) = record {
                let mut legs = record.lock().expect("leg histograms poisoned");
                for leg in reply.legs.iter().filter(|l| l.result.is_ok()) {
                    legs.all.record(leg.ms);
                    legs.by_shard[leg.shard].record(leg.ms);
                }
            }
            let results = reply.legs.into_iter().map(|leg| leg.result);
            results.reduce(Result::or).expect("at least one shard")
        }
    }
}

/// A fan-out is the unit of load: one arrival queries every shard and
/// completes when its slowest leg has, so [`hedge::LoadReport`]'s
/// latencies are the aggregate ones.
impl LoadClient for FanoutClient {
    fn load_runtime(&self) -> &Runtime {
        &self.rt
    }

    fn load_execute(
        &self,
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        self.broadcast(cmd, None)
    }

    /// Summed over the legs, so a segment's reissue rate is per leg
    /// query: the fraction the shared budget caps.
    fn load_counters(&self) -> (u64, u64) {
        let stats = self.legs.iter().map(|leg| leg.stats());
        stats.fold((0, 0), |(q, r), s| (q + s.queries, r + s.reissues))
    }
}

/// Successful legs' latencies of one load run, ms, each clocked from
/// its fan-out's dispatch.
#[derive(Clone)]
pub struct LegLatencies {
    /// Every leg in one histogram: the per-shard tail the aggregate
    /// compounds.
    pub all: LogHistogram,
    /// The same legs, one histogram per shard; merging them reproduces
    /// `all` exactly (the log-histogram merge is lossless).
    pub by_shard: Vec<LogHistogram>,
}

/// A [`FanoutClient`] that also records per-leg latency, which the
/// open-loop harness (one latency per arrival) has no place for. Made
/// by [`FanoutClient::record_legs`]; clones share the histograms.
#[derive(Clone)]
pub struct LegRecorder {
    client: FanoutClient,
    legs: Arc<Mutex<LegLatencies>>,
}

impl LegRecorder {
    /// What has been recorded so far.
    pub fn latencies(&self) -> LegLatencies {
        self.legs.lock().expect("leg histograms poisoned").clone()
    }
}

impl LoadClient for LegRecorder {
    fn load_runtime(&self) -> &Runtime {
        self.client.load_runtime()
    }

    fn load_execute(
        &self,
        cmd: Command,
    ) -> impl std::future::Future<Output = Result<Reply, TransportError>> + Send + 'static {
        self.client.broadcast(cmd, Some(self.legs.clone()))
    }

    fn load_counters(&self) -> (u64, u64) {
        self.client.load_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_hits(shard: usize, hits: Vec<Hit>) -> LegReply {
        LegReply {
            shard,
            result: Ok(Reply::Hits(hits)),
            ms: 1.0,
        }
    }

    #[test]
    fn merge_top_k_orders_truncates_and_skips_failures() {
        let reply = FanoutReply {
            legs: vec![
                ok_hits(0, vec![Hit::new(0, 3.0), Hit::new(4, 1.0)]),
                ok_hits(1, vec![Hit::new(1, 9.0), Hit::new(5, 3.0)]),
                // Empty hit lists arrive off the wire as Members([]).
                LegReply {
                    shard: 2,
                    result: Ok(Reply::Members(vec![])),
                    ms: 1.0,
                },
                LegReply {
                    shard: 3,
                    result: Err(TransportError::ConnectionClosed),
                    ms: 1.0,
                },
            ],
            total_ms: 2.0,
        };
        let top = reply.merge_top_k(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].doc, 1); // score 9.0
                                   // Tied at 3.0: doc id ascending breaks the tie.
        assert_eq!(top[1].doc, 0);
        assert_eq!(top[2].doc, 5);
        assert_eq!(reply.ok_legs(), 3);
        assert_eq!(reply.failed_legs(), 1);
    }

    #[test]
    fn max_leg_ms_is_the_slowest_leg() {
        let mut reply = FanoutReply {
            legs: vec![ok_hits(0, vec![]), ok_hits(1, vec![])],
            total_ms: 8.0,
        };
        reply.legs[0].ms = 2.5;
        reply.legs[1].ms = 7.5;
        assert_eq!(reply.max_leg_ms(), 7.5);
    }
}
