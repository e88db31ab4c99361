//! A Redis-like in-memory key-value store with set operations.
//!
//! This crate is the reproduction's stand-in for the Redis server used
//! in §6.2 of *Optimal Reissue Policies for Reducing Tail Latency*. It
//! implements the pieces of Redis that the paper's evaluation actually
//! exercises:
//!
//! * a string/set keyspace with `GET`/`SET`/`DEL`/`SADD`/`SCARD`/
//!   `SINTER`/`SINTERCARD` ([`KvStore`], [`Command`], [`Reply`]);
//! * integer sets stored sorted with adaptive two-pointer/galloping
//!   intersection, instrumented with an operation count used as a
//!   deterministic service-cost model ([`IntSet`]);
//! * a minimal RESP2 wire protocol ([`resp`]) so the store can be used
//!   as an actual server (see `examples/kv_set_intersection.rs`);
//! * the paper's synthetic dataset — 1 000 sets of integers from
//!   `1..=10⁶` with log-normal cardinalities — and its query trace of
//!   40 000 random pair intersections ([`dataset`], [`workload`]).
//!
//! The paper's tail-latency story for Redis hinges on two mechanisms,
//! both reproduced here: rare intersections of two abnormally large
//! sets ("queries of death"), and Redis's round-robin servicing of
//! client connections, which lets one slow command delay every other
//! connection (modelled by `simulator::Discipline::RoundRobin`: the
//! simulator's and `hedge::TcpServer`'s wait queue serves the smallest
//! waiting connection id past the last one served, wrapping).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod resp;
pub mod server;
pub mod workload;

mod sets;
mod store;

pub use dataset::{Dataset, DatasetConfig};
pub use server::ServerStats;
pub use sets::IntSet;
pub use store::{Backend, Command, Hit, KvStore, Reply};
pub use workload::{Trace, WorkloadConfig};
