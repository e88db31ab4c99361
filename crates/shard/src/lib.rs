//! Sharded keyspace + scatter-gather fan-out with per-shard hedging —
//! the tail-at-scale layer of the reproduction.
//!
//! The paper's system experiments (§6) hedge against a *single*
//! replica group. Real services shard: a request fans out to `N`
//! partitions and completes when the slowest leg does, so a per-leg
//! P99 compounds to an aggregate tail of `1 − 0.99^N` (63% of requests
//! at `N = 100`). This crate supplies the pieces that regime needs:
//!
//! * [`Keyspace`] — deterministic FNV-1a hash partitioning of keys
//!   over `N` shards;
//! * [`ShardedCluster`] — `N` shard groups × `R` replicas, each group
//!   a [`hedge::harness::Cluster`] of one shard backend (a
//!   `kvstore::KvStore` partition, a `searchengine` BM25 index shard —
//!   anything implementing `kvstore::Backend`);
//! * [`FanoutClient`] — the scatter-gather aggregator: one
//!   `HedgedClient` per shard group, dispatched eagerly and gathered
//!   with a top-k merge for search traffic. Hedging runs **per shard**
//!   (stragglers are local: each group has its own health and its own
//!   queries of death) under one **shared cross-shard
//!   [`hedge::BudgetGovernor`]** (extra load is global: `N` locally
//!   entitled legs would burst to `N×` the budget exactly when every
//!   shard slows at once);
//! * [`ShardedCluster::run_load`] — open-loop load with a fan-out as
//!   the unit of arrival, over the one harness every load experiment
//!   shares ([`hedge::run_open_loop`]: bounded admission, exact
//!   completion accounting, sickness scripting by flat replica index);
//!   the aggregate latencies are its report's, the per-leg ones are
//!   kept by the client handle of the run ([`LegRecorder`]);
//! * [`StripedGroup`] — the erasure-coded variant of one shard's
//!   replica group: `n` servers holding one stripe slot each (`k`
//!   data fragments + `n − k` parity rows) instead of `n` full copies, read
//!   through `erasure::StripedClient`'s k-of-n fragment race.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod fanout;
pub mod partition;
pub mod striped;

pub use cluster::ShardedCluster;
pub use fanout::{FanoutClient, FanoutConfig, FanoutReply, LegLatencies, LegRecorder, LegReply};
pub use partition::{fnv1a, Keyspace};
pub use striped::StripedGroup;
