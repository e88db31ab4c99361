//! # reissue — optimal reissue policies for reducing tail latency
//!
//! A faithful, production-quality reproduction of
//! **Kaler, He, Elnikety — "Optimal Reissue Policies for Reducing Tail
//! Latency" (SPAA 2017)**.
//!
//! Interactive services hedge against stragglers by sending *reissue*
//! (duplicate) requests to replicas. This crate implements the paper's
//! **SingleR** policy family — reissue after delay `d` with probability
//! `q` — together with:
//!
//! * the data-driven optimizer `ComputeOptimalSingleR` that extracts the
//!   optimal `(d, q)` from response-time logs in `Θ(N + sort N)`
//!   ([`optimizer`]),
//! * a correlation-aware variant using orthogonal range queries,
//! * iterative adaptation for load-dependent queueing delays
//!   ([`adaptive`]), and budget search ([`budget`]),
//! * a discrete-event cluster simulator ([`sim`]), a Redis-like key-value
//!   store ([`kv`]) and a Lucene-like search engine ([`search`]) used to
//!   regenerate every figure of the paper's evaluation,
//! * and — beyond offline analysis — the [`hedge`] **speculative-execution
//!   runtime**: a `std`-only async executor, a TCP transport that puts the
//!   kvstore's round-robin loop behind real sockets, and a
//!   [`hedge::HedgedClient`] that dispatches the primary, arms the SingleR
//!   `(d, q)` timer, races a reissue against it, retracts the loser on the
//!   wire (the client's `CANCEL <seq>` for every loser, and before that,
//!   for a reissue still queued, a `CANCELTIE` from the server that
//!   dequeued its primary), and feeds observed latencies into
//!   [`online::OnlineAdapter`] so the policy re-optimizes *while serving
//!   traffic*,
//! * plus the [`shard`] tail-at-scale layer: a hash-partitioned
//!   keyspace, `N` shard groups × `R` replicas, and a scatter-gather
//!   [`shard::FanoutClient`] that hedges per shard under one shared
//!   cross-shard reissue budget (aggregate latency = max over legs).
//!
//! ## Quickstart
//!
//! Find the optimal SingleR policy for a latency log:
//!
//! ```
//! use reissue::optimizer::compute_optimal_single_r;
//!
//! // Response-time samples for primary and reissue requests (ms).
//! let primaries: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
//! let reissues = primaries.clone();
//!
//! // Minimize P99 while reissuing at most 5% of requests.
//! let policy = compute_optimal_single_r(&primaries, &reissues, 0.99, 0.05);
//! assert!(policy.budget_used <= 0.05 + 1e-9);
//! assert!(policy.predicted_latency <= 990.0);
//! println!(
//!     "reissue after {:.1} ms with probability {:.2}: predicted P99 {:.0} ms",
//!     policy.delay, policy.probability, policy.predicted_latency
//! );
//! ```
//!
//! Simulate a 10-server cluster and compare against no hedging:
//!
//! ```
//! use reissue::policy::ReissuePolicy;
//! use reissue::workloads::{queueing, RunConfig};
//!
//! let spec = queueing(0.3, 0.5, 7); // 30% utilization, r=0.5, seed
//! let base = spec.run(&RunConfig::new(20_000), &ReissuePolicy::None);
//! let hedged = spec.run(
//!     &RunConfig::new(20_000),
//!     &ReissuePolicy::single_r(30.0, 0.5),
//! );
//! let (p95_base, p95_hedged) = (base.quantile(0.95), hedged.quantile(0.95));
//! assert!(p95_hedged < p95_base);
//! ```
//!
//! ## Serve hedged traffic over TCP
//!
//! Spin up replicas and hedge against them (see
//! `examples/hedged_kv_cluster.rs` for the full three-replica
//! comparison):
//!
//! ```no_run
//! use reissue::hedge::{HedgeConfig, HedgedClient, TcpServerConfig};
//! use reissue::kv::{Command, KvStore};
//! use reissue::policy::ReissuePolicy;
//!
//! let replicas =
//!     reissue::hedge::spawn_replicas(3, &KvStore::new(), TcpServerConfig::default()).unwrap();
//! let addrs: Vec<_> = replicas.iter().map(|r| r.local_addr()).collect();
//! let client = HedgedClient::connect(&addrs, HedgeConfig {
//!     policy: ReissuePolicy::single_r(5.0, 0.2), // hedge after 5 ms, q = 0.2
//!     ..HedgeConfig::default()
//! }).unwrap();
//! let reply = client.execute_blocking(Command::Ping).unwrap();
//! println!("{reply:?} — stats: {:?}", client.stats());
//! ```
//!
//! See `examples/` for end-to-end walkthroughs and `crates/bench` for the
//! harness that regenerates each figure in the paper.

#![forbid(unsafe_code)]

pub use distributions as dist;
pub use hedge;
pub use kvstore as kv;
pub use rangequery;
pub use searchengine as search;
pub use shard;
pub use simulator as sim;
pub use workloads;

pub use reissue_core::adaptive;
pub use reissue_core::budget;
pub use reissue_core::ecdf;
pub use reissue_core::metrics;
pub use reissue_core::model;
pub use reissue_core::online;
pub use reissue_core::optimizer;
pub use reissue_core::policy;
