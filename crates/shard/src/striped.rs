//! Erasure-coded striped replica groups for the sharded layer.
//!
//! A [`StripedGroup`] is the striped counterpart of one shard's
//! [`hedge::harness::Cluster`]: `n` TCP servers that each hold **one
//! stripe slot** of every key — data fragments on `k` of them, one
//! parity row each on the rest, rotated per key so every server
//! carries an even mix — instead of `n` identical full copies. Reads go
//! through [`erasure::StripedClient`]'s k-of-n race, so the group's
//! hedge unit is a `1/k`-sized fragment rather than a whole request.
//!
//! Shard-level composition is unchanged: build one group per shard and
//! scatter across them exactly as [`crate::ShardedCluster`] scatters
//! across replica groups — shards still hold different data, striping
//! only changes how *one* shard's bytes spread over its replicas.

use erasure::{encode_stripe, CodecError, StripedBackend};
use hedge::harness::Cluster;
use hedge::{LoadClient, LoadConfig, LoadReport, TcpServer};
use kvstore::{Command, KvStore};

use bytes::Bytes;
use std::net::SocketAddr;

/// One shard's striped replica group: a [`Cluster`] of `n` fragment
/// servers, one stripe slot each, plus the geometry's `k`. Dropping
/// the handle shuts every server down.
pub struct StripedGroup {
    servers: Cluster<StripedBackend>,
    k: usize,
}

impl StripedGroup {
    /// Spins up `n` fragment servers for a `(k, n)` stripe geometry,
    /// each charging byte-proportional cost at `bytes_per_unit` and
    /// burning `nanos_per_op` wall-clock nanoseconds per cost unit.
    ///
    /// # Panics
    /// Panics when `k == 0` or `n < k`.
    pub fn spawn(
        k: usize,
        n: usize,
        bytes_per_unit: u64,
        nanos_per_op: u64,
    ) -> std::io::Result<StripedGroup> {
        assert!(k > 0, "a stripe needs at least one data fragment");
        assert!(n >= k, "need at least k slots");
        let empty = StripedBackend::new(KvStore::new(), bytes_per_unit);
        Ok(StripedGroup {
            servers: Cluster::spawn(n, &empty, nanos_per_op)?,
            k,
        })
    }

    /// Stripe geometry `(k, n)`.
    pub fn geometry(&self) -> (usize, usize) {
        (self.k, self.servers.len())
    }

    /// Every server's address, in replica order — feed directly to
    /// [`erasure::StripedClient`], which maps each key's slot `s` to
    /// replica `(s + erasure::placement_offset(key, n)) % n`.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.addrs()
    }

    /// Direct access to slot `idx`'s server.
    pub fn server(&self, idx: usize) -> &TcpServer<StripedBackend> {
        self.servers.server(idx)
    }

    /// Seeds one key's stripe directly into the stores (no network):
    /// slot `s`'s fragment lands on the key's rotated replica
    /// `(s + placement_offset) % n`, matching where
    /// [`erasure::StripedClient`] will look for it. The fast path for
    /// bench setup; live writes go through
    /// [`erasure::StripedClient::put_blocking`].
    pub fn seed(&self, key: &[u8], value: &[u8]) -> Result<(), CodecError> {
        let n = self.servers.len();
        let frags = encode_stripe(value, self.k, n)?;
        let offset = erasure::placement_offset(key, n);
        for (slot, frag) in frags.into_iter().enumerate() {
            self.servers.server((slot + offset) % n).with_store(|s| {
                s.store_mut().execute(&Command::FSet(
                    Bytes::copy_from_slice(key),
                    slot as u32,
                    frag.clone(),
                ))
            });
        }
        Ok(())
    }

    /// Drives `cfg.queries` arrivals through `client` open-loop
    /// against this group: [`Cluster::run_load`], the sickness script
    /// applied to this group's fragment servers. See
    /// [`hedge::run_open_loop`] for the pacing and accounting
    /// contract.
    pub fn run_load<C: LoadClient>(
        &self,
        client: &C,
        cfg: &LoadConfig,
        make_cmd: impl FnMut(usize) -> Command + Send + 'static,
    ) -> LoadReport {
        self.servers.run_load(client, cfg, make_cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasure::{StripedClient, StripedConfig};
    use kvstore::Reply;

    /// Two striped shard groups holding different data: per-group
    /// clients read their own shard's stripes back byte-identically —
    /// the scatter topology [`crate::ShardedCluster`] uses, with
    /// striped groups swapped in for replica groups.
    #[test]
    fn striped_groups_shard_like_replica_groups() {
        let groups: Vec<StripedGroup> = (0..2)
            .map(|_| StripedGroup::spawn(2, 3, 64, 0).unwrap())
            .collect();
        let values: Vec<Vec<u8>> = (0..2u8)
            .map(|s| (0..5_000u32).map(|i| (i % 200) as u8 ^ s).collect())
            .collect();
        for (g, v) in groups.iter().zip(&values) {
            g.seed(b"shard:key", v).unwrap();
        }
        for (g, v) in groups.iter().zip(&values) {
            let client = StripedClient::connect(
                &g.addrs(),
                StripedConfig {
                    k: 2,
                    workers: 2,
                    ..StripedConfig::default()
                },
            )
            .unwrap();
            let got = client
                .execute_blocking(Command::Get(Bytes::from_static(b"shard:key")))
                .unwrap();
            assert_eq!(got, Reply::Str(Bytes::from(v.clone())));
        }
    }
}
