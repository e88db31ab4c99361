//! The benchmark-facing surface of the system under test.
//!
//! Every public item of `hedge`, `erasure`, `shard`, `kvstore`,
//! `reissue_core` and `simulator` that the benchmark touches is named
//! in this file and nowhere else; the other modules import from
//! `crate::sut`. A refactor of those crates has to keep this one file
//! compiling (or change it in a PR of its own that claims no gain).

use std::future::Future;
use std::net::SocketAddr;

pub use bytes::{Bytes, BytesMut};
pub use erasure::{
    decode_stripe, encode_stripe, StripedBackend, StripedClient, StripedConfig, StripedStats,
};
pub use hedge::{
    CancelToken, HedgeConfig, HedgeStats, HedgedClient, Replica, Runtime, TcpServer,
    TcpServerConfig, TransportError,
};
pub use kvstore::dataset::{Dataset, DatasetConfig};
pub use kvstore::resp::{decode_command, decode_reply, encode_command, encode_reply};
pub use kvstore::workload::{store_with_monsters, MONSTER_KEY_A, MONSTER_KEY_B};
pub use kvstore::{Backend, Command, KvStore, Reply};
pub use reissue_core::censored::{KaplanMeier, Obs};
pub use reissue_core::discipline::{Discipline, QueueItem, WaitQueue};
pub use reissue_core::kofn::fragment_budget;
pub use reissue_core::metrics::LogHistogram;
pub use reissue_core::online::{OnlineAdapter, OnlineConfig};
pub use reissue_core::optimizer::{compute_optimal_single_r, compute_optimal_single_r_correlated};
pub use reissue_core::policy::ReissuePolicy;
pub use shard::StripedGroup;
pub use simulator::{simulate, ArrivalProcess, ClusterConfig, RunConfig, TraceService};

/// How long `shutdown` waits for the client's own tasks to end.
const TASK_DRAIN_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// What the load generator needs from a client: start one request,
/// and a runtime to await it on.
pub trait Exec: Clone + Send + Sync + 'static {
    fn exec(
        &self,
        cmd: Command,
    ) -> impl Future<Output = Result<Reply, TransportError>> + Send + 'static;
    fn rt(&self) -> &Runtime;
}

impl Exec for HedgedClient {
    fn exec(
        &self,
        cmd: Command,
    ) -> impl Future<Output = Result<Reply, TransportError>> + Send + 'static {
        self.execute(cmd)
    }
    fn rt(&self) -> &Runtime {
        self.runtime()
    }
}

impl Exec for StripedClient {
    fn exec(
        &self,
        cmd: Command,
    ) -> impl Future<Output = Result<Reply, TransportError>> + Send + 'static {
        self.execute(cmd)
    }
    fn rt(&self) -> &Runtime {
        self.runtime()
    }
}

/// The in-process servers of one workload. Loopback, colocated with
/// the client: both share the box's cores.
pub enum Servers {
    Replicas(Vec<TcpServer<KvStore>>),
    Striped(StripedGroup),
}

pub enum Client {
    Hedged(HedgedClient),
    Striped(StripedClient),
}

/// Servers plus a connected client.
pub struct System {
    pub servers: Servers,
    pub client: Client,
    /// Server commands one request needs when nothing is duplicated:
    /// 1 for a replica read, `k` for a striped read.
    pub commands_per_request: u64,
}

/// Monotonic counters of every layer that publishes some, read from
/// outside through the public stats calls.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub queries: u64,
    pub reissues: u64,
    pub reissue_wins: u64,
    pub cancelled_in_time: u64,
    pub pairs_exact: u64,
    pub pairs_censored: u64,
    pub client_errors: u64,
    pub decodes_with_parity: u64,
    pub commands_by_server: Vec<u64>,
    pub server_cost_units: u64,
    pub protocol_errors: u64,
    pub tie_retractions: u64,
}

impl System {
    /// `replicas` identical copies of `store` behind TCP, and a
    /// hedging client connected to all of them.
    pub fn replicated(
        store: &KvStore,
        replicas: usize,
        nanos_per_op: u64,
        cfg: HedgeConfig,
    ) -> std::io::Result<System> {
        let servers = hedge::spawn_replicas(
            replicas,
            store,
            TcpServerConfig {
                nanos_per_op,
                ..TcpServerConfig::default()
            },
        )?;
        let addrs: Vec<SocketAddr> = servers.iter().map(TcpServer::local_addr).collect();
        let client = HedgedClient::connect(&addrs, cfg)?;
        Ok(System {
            servers: Servers::Replicas(servers),
            client: Client::Hedged(client),
            commands_per_request: 1,
        })
    }

    /// A `(k, n)` striped group holding `values`, and a
    /// fragment-hedging client.
    pub fn striped(
        n: usize,
        bytes_per_unit: u64,
        nanos_per_op: u64,
        values: &[(Bytes, Bytes)],
        cfg: StripedConfig,
    ) -> std::io::Result<System> {
        let group = StripedGroup::spawn(cfg.k, n, bytes_per_unit, nanos_per_op)?;
        for (key, value) in values {
            group
                .seed(key, value)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        let k = cfg.k as u64;
        let client = StripedClient::connect(&group.addrs(), cfg)?;
        Ok(System {
            servers: Servers::Striped(group),
            client: Client::Striped(client),
            commands_per_request: k,
        })
    }

    pub fn server_count(&self) -> usize {
        match &self.servers {
            Servers::Replicas(s) => s.len(),
            Servers::Striped(g) => g.geometry().1,
        }
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        match &self.client {
            Client::Hedged(h) => {
                let s: HedgeStats = h.stats();
                c.queries = s.queries;
                c.reissues = s.reissues;
                c.reissue_wins = s.reissue_wins;
                c.cancelled_in_time = s.cancelled_in_time;
                c.pairs_exact = s.pairs_exact;
                c.pairs_censored = s.pairs_censored;
                c.client_errors = s.errors;
            }
            Client::Striped(sc) => {
                let s: StripedStats = sc.stats();
                c.queries = s.queries;
                c.reissues = s.reissues;
                c.reissue_wins = s.reissue_wins;
                c.cancelled_in_time = s.cancelled_in_time;
                c.pairs_exact = s.pairs_exact;
                c.pairs_censored = s.pairs_censored;
                c.client_errors = s.errors;
                c.decodes_with_parity = s.decodes_with_parity;
            }
        }
        let mut add = |stats: kvstore::ServerStats, ties: hedge::TieStats| {
            c.commands_by_server.push(stats.commands);
            c.server_cost_units += stats.total_cost;
            c.protocol_errors += stats.protocol_errors;
            c.tie_retractions += ties.retractions;
        };
        match &self.servers {
            Servers::Replicas(servers) => {
                for s in servers {
                    add(s.stats(), s.tie_stats());
                }
            }
            Servers::Striped(g) => {
                for i in 0..g.geometry().1 {
                    add(g.server(i).stats(), g.server(i).tie_stats());
                }
            }
        }
        c
    }

    /// The online adapter's current `(d ms, q, correlated)`, when the
    /// client adapts.
    pub fn online_policy(&self) -> Option<(f64, f64, bool)> {
        match &self.client {
            Client::Hedged(h) => {
                let p = h.online_policy()?;
                Some((p.delay, p.probability, h.online_correlated()?))
            }
            Client::Striped(_) => None,
        }
    }

    /// Stops every server and client thread and waits for them.
    pub fn shutdown(self) {
        // The client first, so no request is on the wire when its
        // server goes. Its runtime must be idle before the last handle
        // drops: a task still alive then (a cancelled loser draining,
        // say) would drop the runtime from a worker thread, which
        // joins itself and panics.
        let rt = match &self.client {
            Client::Hedged(c) => c.runtime().clone(),
            Client::Striped(c) => c.runtime().clone(),
        };
        let waiting = std::time::Instant::now();
        while rt.live_tasks() > 0 && waiting.elapsed() < TASK_DRAIN_TIMEOUT {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(self.client);
        drop(rt);
        // Dropping a server shuts it down and joins its threads.
        drop(self.servers);
    }
}
