//! A Lucene-like in-memory full-text search engine.
//!
//! The reproduction's stand-in for the Lucene server of §6.3 of
//! *Optimal Reissue Policies for Reducing Tail Latency*:
//!
//! * [`InvertedIndex`] — term → postings (doc id, term frequency) with
//!   document lengths, built incrementally by an [`IndexBuilder`];
//! * [`bm25`] — BM25-ranked top-k retrieval, instrumented with the
//!   number of postings scanned (the deterministic service-cost model);
//! * [`corpus`] — a synthetic Zipf-vocabulary corpus standing in for
//!   the 33 M-article English Wikipedia dump the paper indexes;
//! * [`workload`] — a query log generator calibrated to the paper's
//!   measured service-time distribution (µ_L ≈ 39.7 ms, σ_L ≈ 21.9 ms,
//!   ~1 % of queries above 100 ms), plus the shared sharded fan-out
//!   workload ([`ShardedQueryWorkload`]);
//! * [`backend`] — the engine as a servable [`kvstore::Backend`]
//!   ([`SearchBackend`]), so `hedge::TcpServer` fronts BM25 index
//!   shards for the scatter-gather fan-out experiments.
//!
//! The paper's Lucene observation is that a single global FIFO over a
//! moderate-mean, light-tailed service distribution already yields good
//! tails, so reissue gains are smaller than for Redis but still
//! 15–25 % at P99. The corpus/query generators target exactly that
//! distributional regime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bm25;
pub mod corpus;
pub mod workload;

mod index;

pub use backend::SearchBackend;
pub use bm25::{search, SearchHit};
pub use corpus::{Corpus, CorpusConfig};
pub use index::{IndexBuilder, InvertedIndex, Posting};
pub use workload::{QueryTrace, QueryWorkloadConfig, ShardedQueryWorkload};
