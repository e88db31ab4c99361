//! Speculative-execution runtime: hedged (reissued) requests against
//! real TCP kvstore replicas, driven by the paper's one-stage policy
//! families, SingleD and SingleR.
//!
//! The sibling crates *choose* reissue policies; this crate *executes*
//! them. It turns the reproduction from a calculator into a serving
//! system:
//!
//! * [`rt`] — a minimal multi-threaded async executor with timers and
//!   a [`rt::race`] combinator, built on `std` alone in place of
//!   tokio.
//! * [`sync`] — the attempt cell: one allocation per wire attempt
//!   holding its reply slot, waker, cancelled flag and wire target,
//!   with the [`sync::CancelToken`] propagated from a hedged query to
//!   the backend as a handle onto it.
//! * [`server`] — [`server::TcpServer`]: the kvstore behind real
//!   sockets with wall-clock service times, a pluggable queue
//!   discipline ([`server::Discipline`], shared with the simulator),
//!   client-driven retraction (`CANCEL <seq>`), and server-side tied
//!   requests: the primary's server retracts the queued reissue when it
//!   dequeues the primary, over a replica-to-replica channel.
//! * [`transport`] — [`transport::ReplicaSet`]: pooled async RESP
//!   connections per replica, each replica carrying a
//!   [`transport::ReplicaHealth`] latency/error EWMA that drives
//!   reissue targeting (and demotes sick replicas until they heal).
//! * [`mod@race`] — the race engine, [`race::Core::run`]: flip the
//!   SingleR coin `q`, dispatch the first wave, race all in-flight
//!   attempts against the timer at `d`, ask the governor before the
//!   reissue (tied to the straggler it races), cancel every loser, and
//!   feed observations to
//!   `reissue_core::online::OnlineAdapter` so the policy re-optimizes
//!   while serving. Raced queries are fed as joint
//!   `(straggler, reissue)` pairs, censored at the loser's
//!   elapsed-at-retraction bound when the cancel landed in time,
//!   which lets the adapter run the §4.2 *correlated* optimizer once
//!   `OnlineConfig::min_pairs` pairs accumulate, instead of the
//!   independence model that overvalues hedging the just-past-`d`
//!   noise band. What is being raced is a [`race::Job`]: replica
//!   hedging here, k-of-n fragment reads in the `erasure` crate.
//! * [`client`] — [`client::HedgedClient`], the replica-hedging job
//!   (one primary, the reissue a full copy to the healthiest other
//!   replica, first reply wins), with its
//!   [`client::HedgeConfig`] and the [`client::BudgetGovernor`] that
//!   bounds the realized reissue rate.
//! * [`harness`] — the scale-out experiment harness:
//!   [`harness::Cluster`] (programmatic N-replica TCP clusters with
//!   live per-replica sickness scripting) and an open-loop
//!   fixed-interval or Poisson load generator with bounded admission,
//!   backpressure accounting, and streaming latency histograms — the
//!   machinery behind the TCP figure sweeps and the cluster example.
//!
//! ## Quickstart
//!
//! ```no_run
//! use hedge::{HedgeConfig, HedgedClient, TcpServer, TcpServerConfig};
//! use kvstore::Command;
//! use kvstore::KvStore;
//! use reissue_core::online::OnlineConfig;
//! use reissue_core::policy::ReissuePolicy;
//!
//! // Three replicas of the same dataset, on real sockets.
//! let store = KvStore::new();
//! let replicas = hedge::spawn_replicas(
//!     3,
//!     &store,
//!     TcpServerConfig { nanos_per_op: 200, ..TcpServerConfig::default() },
//! ).unwrap();
//! let addrs: Vec<_> = replicas.iter().map(|r| r.local_addr()).collect();
//!
//! // A client that starts unhedged and lets the online adapter find
//! // (d, q) for a 5% reissue budget targeting P99, switching to the
//! // correlated optimizer once 64 raced pairs accumulate.
//! let client = HedgedClient::connect(&addrs, HedgeConfig {
//!     policy: ReissuePolicy::None,
//!     online: Some(OnlineConfig {
//!         k: 0.99,
//!         budget: 0.05,
//!         window: 2_000,
//!         reoptimize_every: 500,
//!         learning_rate: 0.5,
//!         min_pairs: 64,
//!         load: None,
//!     }),
//!     ..HedgeConfig::default()
//! }).unwrap();
//!
//! let reply = client.execute_blocking(Command::Ping).unwrap();
//! println!("{reply:?}, policy now {}", client.policy());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod harness;
pub mod race;
pub mod rt;
pub mod server;
pub mod sync;
pub mod transport;

pub use client::{BudgetGovernor, HedgeConfig, HedgeStats, HedgedClient};
pub use harness::{
    run_open_loop, Arrivals, Cluster, LoadClient, LoadConfig, LoadReport, SicknessEvent,
};
pub use rt::{race, select_all, Either, JoinHandle, Runtime, SelectAll, Sleep};
pub use server::{spawn_replicas, Discipline, TcpServer, TcpServerConfig, TieStats};
pub use sync::CancelToken;
pub use transport::{InFlight, Replica, ReplicaHealth, ReplicaSet, TransportError};
