//! A sharded cluster: one replica group ([`hedge::harness::Cluster`])
//! per shard, under one handle.
//!
//! Shard `s` is served by `replicas_per_shard` identical replicas of
//! `backends[s]` — so the unit of hedging stays the replica group
//! (reissue a *replica*, never a different shard: shards hold different
//! data) while the unit of request fan-out is the whole cluster.

use hedge::harness::Cluster;
use hedge::{run_open_loop, LoadClient, LoadConfig, LoadReport, TcpServer};
use kvstore::{Backend, Command, KvStore};

use std::net::SocketAddr;

/// `N` shard groups × `R` replicas, each group a [`Cluster`] of
/// identical snapshots of that shard's backend. Dropping the handle
/// shuts every replica of every shard down.
pub struct ShardedCluster<B: Backend = KvStore> {
    groups: Vec<Cluster<B>>,
    replicas_per_shard: usize,
}

impl<B: Backend> ShardedCluster<B> {
    /// Spins up one `replicas_per_shard`-replica group per backend in
    /// `backends`, every replica burning `nanos_per_op` wall-clock
    /// nanoseconds per unit of store cost.
    ///
    /// # Panics
    /// Panics when `backends` is empty or `replicas_per_shard == 0`.
    pub fn spawn(
        backends: Vec<B>,
        replicas_per_shard: usize,
        nanos_per_op: u64,
    ) -> std::io::Result<ShardedCluster<B>>
    where
        B: Clone,
    {
        assert!(!backends.is_empty(), "a sharded cluster needs >= 1 shard");
        assert!(replicas_per_shard > 0, "each shard needs >= 1 replica");
        let groups = backends
            .iter()
            .map(|b| Cluster::spawn(replicas_per_shard, b, nanos_per_op))
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(ShardedCluster {
            groups,
            replicas_per_shard,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.groups.len()
    }

    /// Replicas serving each shard.
    pub fn replicas_per_shard(&self) -> usize {
        self.replicas_per_shard
    }

    /// Shard `s`'s replica group.
    pub fn group(&self, s: usize) -> &Cluster<B> {
        &self.groups[s]
    }

    /// Shard `s`'s replica addresses, in replica-index order.
    pub fn group_addrs(&self, s: usize) -> Vec<SocketAddr> {
        self.groups[s].addrs()
    }

    /// Direct access to one replica's server.
    pub fn server(&self, shard: usize, replica: usize) -> &TcpServer<B> {
        self.groups[shard].server(replica)
    }

    /// Changes one replica's service burn while it serves (sicken /
    /// heal) — the fan-out experiments slow a single replica of a
    /// single shard and watch per-shard hedging absorb it.
    pub fn set_nanos_per_op(&self, shard: usize, replica: usize, nanos_per_op: u64) {
        self.groups[shard].set_nanos_per_op(replica, nanos_per_op);
    }

    /// Restores every replica of every shard to its spawn-time burn.
    pub fn heal_all(&self) {
        for g in &self.groups {
            g.heal_all();
        }
    }

    /// Total commands executed across all replicas of all shards.
    pub fn total_commands(&self) -> u64 {
        self.groups.iter().map(|g| g.total_commands()).sum()
    }

    /// Drives `cfg.queries` arrivals through `client` open-loop: one
    /// fan-out per arrival for a [`crate::FanoutClient`] (or its
    /// [`crate::LegRecorder`]). A [`hedge::SicknessEvent`] names its
    /// target by the flat index `shard * replicas_per_shard + replica`.
    /// See [`hedge::run_open_loop`] for the pacing and accounting
    /// contract.
    pub fn run_load<C: LoadClient>(
        &self,
        client: &C,
        cfg: &LoadConfig,
        make_cmd: impl FnMut(usize) -> Command + Send + 'static,
    ) -> LoadReport {
        let per_shard = self.replicas_per_shard;
        run_open_loop(client, cfg, make_cmd, |flat, nanos_per_op| {
            self.set_nanos_per_op(flat / per_shard, flat % per_shard, nanos_per_op)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawns_distinct_groups_with_distinct_data() {
        let backends: Vec<KvStore> = (0..3)
            .map(|s| {
                let mut store = KvStore::new();
                store.execute(&Command::Set("shard".into(), format!("s{s}").into()));
                store
            })
            .collect();
        let cluster = ShardedCluster::spawn(backends, 2, 0).unwrap();
        assert_eq!(cluster.shards(), 3);
        assert_eq!(cluster.replicas_per_shard(), 2);
        for s in 0..3 {
            assert_eq!(cluster.group_addrs(s).len(), 2);
            let got = cluster.server(s, 0).with_store(|store| {
                let (reply, _) = store.execute(&Command::Get("shard".into()));
                reply
            });
            assert_eq!(got, kvstore::Reply::Str(format!("s{s}").into()));
        }
    }
}
