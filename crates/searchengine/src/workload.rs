//! The Lucene query workload (§6.3): a query log executed against the
//! index to obtain deterministic service costs.

use crate::bm25::search;
use crate::corpus::Zipf;
use crate::index::InvertedIndex;
use distributions::rng::stream;
use rand::Rng;

/// How query terms are drawn from the vocabulary rank space.
#[derive(Clone, Copy, Debug)]
pub enum TermRankDist {
    /// Zipf(s) over all ranks — matches corpus statistics but yields a
    /// very heavy query-cost tail (head terms have huge postings).
    Zipf(f64),
    /// Log-uniform over `[lo, hi)` — the regime real query logs live
    /// in: popular-but-not-stopword vocabulary. Produces the moderate
    /// spread (σ/µ ≈ 0.55) the paper measures for Lucene.
    LogUniform {
        /// Lowest (most popular) rank, inclusive.
        lo: usize,
        /// Highest rank, exclusive.
        hi: usize,
    },
}

/// Query workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct QueryWorkloadConfig {
    /// Number of queries in the log (the paper samples from a 10 000-
    /// query set).
    pub num_queries: usize,
    /// Terms per query, inclusive range (web queries: mostly 1–4).
    pub terms_min: usize,
    /// Maximum terms per query.
    pub terms_max: usize,
    /// Query term selection distribution.
    pub term_ranks: TermRankDist,
    /// Fixed per-query overhead in postings-scan units (query parsing,
    /// rewriting, result assembly — Lucene work that doesn't scale with
    /// postings). Compresses the cost coefficient of variation toward
    /// the paper's measured σ/µ ≈ 0.55.
    pub base_ops: u64,
    /// Results to retrieve per query.
    pub top_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryWorkloadConfig {
    fn default() -> Self {
        QueryWorkloadConfig {
            num_queries: 10_000,
            terms_min: 1,
            terms_max: 4,
            // Calibrated against the paper's measured Lucene stats:
            // σ_L ≈ 22 ms, ~1 % of queries above 100 ms, ~90 % of
            // queries between 1 and 70 ms.
            term_ranks: TermRankDist::LogUniform { lo: 10, hi: 25_000 },
            base_ops: 13_000,
            top_k: 10,
            seed: 0x10ce,
        }
    }
}

/// A generated query log with measured (deterministic) costs.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Queries as term-id lists.
    pub queries: Vec<Vec<u32>>,
    /// Service time of each query in milliseconds: the instrumented
    /// postings-scan count of a real BM25 execution, converted at a
    /// calibrated ns-per-posting rate.
    pub costs_ms: Vec<f64>,
}

impl QueryTrace {
    /// Generates queries and executes each against `index` to measure
    /// costs. `ns_per_posting` converts scanned postings to time.
    ///
    /// # Panics
    /// Panics on empty/invalid configuration.
    pub fn generate(
        index: &InvertedIndex,
        config: QueryWorkloadConfig,
        ns_per_posting: f64,
    ) -> Self {
        assert!(config.num_queries > 0);
        assert!(config.terms_min >= 1 && config.terms_min <= config.terms_max);
        assert!(ns_per_posting > 0.0);
        assert!(index.num_terms() > 0, "index must be non-empty");

        let n_terms = index.num_terms();
        let zipf = match config.term_ranks {
            TermRankDist::Zipf(s) => Some(Zipf::new(n_terms, s)),
            TermRankDist::LogUniform { .. } => None,
        };
        let mut rng = stream(config.seed, 20);
        let draw_rank = |rng: &mut rand::rngs::SmallRng| -> usize {
            match (&zipf, config.term_ranks) {
                (Some(z), _) => z.sample(rng),
                (None, TermRankDist::LogUniform { lo, hi }) => {
                    let lo = lo.min(n_terms.saturating_sub(1));
                    let hi = hi.clamp(lo + 1, n_terms.max(lo + 1));
                    let (a, b) = ((lo.max(1) as f64).ln(), (hi as f64).ln());
                    let r = (a + (b - a) * rng.gen::<f64>()).exp() as usize;
                    r.clamp(lo, hi - 1)
                }
                _ => unreachable!(),
            }
        };
        let mut queries = Vec::with_capacity(config.num_queries);
        let mut costs_ms = Vec::with_capacity(config.num_queries);
        for _ in 0..config.num_queries {
            let nt = rng.gen_range(config.terms_min..=config.terms_max);
            let q: Vec<u32> = (0..nt).map(|_| draw_rank(&mut rng) as u32).collect();
            let (_, cost) = search(index, &q, config.top_k);
            queries.push(q);
            costs_ms.push((cost + config.base_ops) as f64 * ns_per_posting / 1e6);
        }
        QueryTrace { queries, costs_ms }
    }

    /// Mean service time (ms).
    pub fn mean_ms(&self) -> f64 {
        self.costs_ms.iter().sum::<f64>() / self.costs_ms.len() as f64
    }

    /// Standard deviation of service time (ms).
    pub fn std_ms(&self) -> f64 {
        let m = self.mean_ms();
        (self.costs_ms.iter().map(|c| (c - m) * (c - m)).sum::<f64>() / self.costs_ms.len() as f64)
            .sqrt()
    }

    /// Rescales costs so the mean matches `target_mean_ms` — used to
    /// calibrate the synthetic engine to the paper's measured
    /// µ_L = 39.73 ms.
    pub fn calibrate_to_mean(&mut self, target_mean_ms: f64) {
        assert!(target_mean_ms > 0.0);
        let f = target_mean_ms / self.mean_ms();
        for c in &mut self.costs_ms {
            *c *= f;
        }
    }

    /// Fraction of queries with cost above `threshold_ms`.
    pub fn frac_above(&self, threshold_ms: f64) -> f64 {
        self.costs_ms.iter().filter(|&&c| c > threshold_ms).count() as f64
            / self.costs_ms.len() as f64
    }
}

/// The shared sharded-search workload: per-shard corpora, the query
/// log, and the command generator, in one place (mirroring
/// `kvstore::workload::store_with_monsters`) so the fan-out example,
/// the integration tests, and `figures -- fanout` all drive
/// **identical** shard traffic.
///
/// Document-partitioned: every shard gets its own `docs`-sized corpus
/// (same statistics, distinct seed), so the per-shard service-time
/// distribution is *constant in the fan-out width* — exactly the
/// premise of the (0.99)^N compounding argument. The query trace is
/// measured against shard 0; with identically distributed shards it
/// stands in for any leg.
#[derive(Clone, Debug)]
pub struct ShardedQueryWorkload {
    /// One inverted index per shard.
    pub indices: Vec<InvertedIndex>,
    /// The query log with per-query costs measured against shard 0.
    pub trace: QueryTrace,
    /// Fixed per-query overhead in postings-scan units (kept for
    /// building backends with the same constant the trace used).
    pub base_ops: u64,
    /// Results requested per query.
    pub top_k: usize,
}

impl ShardedQueryWorkload {
    /// Generates `shards` identically distributed corpora from
    /// `corpus` (reseeded per shard) and the query log from
    /// `queries`; `ns_per_posting` converts measured postings to time.
    pub fn generate(
        shards: usize,
        corpus: crate::corpus::CorpusConfig,
        queries: QueryWorkloadConfig,
        ns_per_posting: f64,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let indices: Vec<InvertedIndex> = (0..shards)
            .map(|s| {
                let mut cfg = corpus;
                cfg.seed = corpus.seed.wrapping_add(0x9E37_79B9 * s as u64);
                crate::corpus::Corpus::generate(cfg).build_index()
            })
            .collect();
        let trace = QueryTrace::generate(&indices[0], queries, ns_per_posting);
        ShardedQueryWorkload {
            indices,
            trace,
            base_ops: queries.base_ops,
            top_k: queries.top_k,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.indices.len()
    }

    /// Mean per-shard (single-leg) service time, ms.
    pub fn mean_leg_ms(&self) -> f64 {
        self.trace.mean_ms()
    }

    /// One [`crate::backend::SearchBackend`] per shard, with the same
    /// `base_ops` the trace was measured with.
    pub fn backends(&self) -> Vec<crate::backend::SearchBackend> {
        let n = self.indices.len();
        self.indices
            .iter()
            .enumerate()
            .map(|(s, idx)| crate::backend::SearchBackend::new(idx.clone(), s, n, self.base_ops))
            .collect()
    }

    /// The broadcast command for arrival `i` (the query log cycles).
    pub fn command(&self, i: usize) -> kvstore::Command {
        kvstore::Command::Search {
            terms: self.trace.queries[i % self.trace.queries.len()].clone(),
            k: self.top_k as u32,
        }
    }

    /// An owning `'static` command generator, the kind the load
    /// runners (`Cluster::run_load`) take.
    pub fn command_fn(&self) -> impl FnMut(usize) -> kvstore::Command + Send + 'static {
        let queries = self.trace.queries.clone();
        let k = self.top_k as u32;
        move |i| kvstore::Command::Search {
            terms: queries[i % queries.len()].clone(),
            k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusConfig};

    fn small_index() -> InvertedIndex {
        Corpus::generate(CorpusConfig::small(1)).build_index()
    }

    fn trace(index: &InvertedIndex, seed: u64, n: usize) -> QueryTrace {
        QueryTrace::generate(
            index,
            QueryWorkloadConfig {
                num_queries: n,
                seed,
                ..QueryWorkloadConfig::default()
            },
            100.0,
        )
    }

    #[test]
    fn trace_shape() {
        let idx = small_index();
        let t = trace(&idx, 2, 300);
        assert_eq!(t.queries.len(), 300);
        assert_eq!(t.costs_ms.len(), 300);
        assert!(t.costs_ms.iter().all(|&c| c > 0.0));
        for q in &t.queries {
            assert!((1..=4).contains(&q.len()));
        }
    }

    #[test]
    fn deterministic() {
        let idx = small_index();
        let a = trace(&idx, 3, 100);
        let b = trace(&idx, 3, 100);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.costs_ms, b.costs_ms);
    }

    #[test]
    fn popular_terms_cost_more() {
        let idx = small_index();
        // A query of the most popular term vs an unpopular one.
        let (_, head_cost) = search(&idx, &[0], 10);
        let tail_term = (idx.num_terms() - 1) as u32;
        let (_, tail_cost) = search(&idx, &[tail_term], 10);
        assert!(head_cost > tail_cost, "head={head_cost} tail={tail_cost}");
    }

    #[test]
    fn calibration() {
        let idx = small_index();
        let mut t = trace(&idx, 4, 200);
        t.calibrate_to_mean(39.73);
        assert!((t.mean_ms() - 39.73).abs() < 1e-9);
        assert!(t.std_ms() > 0.0);
    }

    #[test]
    fn frac_above_monotone() {
        let idx = small_index();
        let t = trace(&idx, 5, 200);
        let m = t.mean_ms();
        assert!(t.frac_above(0.0) >= t.frac_above(m));
        assert!(t.frac_above(m) >= t.frac_above(100.0 * m));
    }

    #[test]
    fn sharded_workload_is_deterministic_and_distinct_per_shard() {
        let mk = || {
            ShardedQueryWorkload::generate(
                3,
                CorpusConfig::small(9),
                QueryWorkloadConfig {
                    num_queries: 50,
                    ..QueryWorkloadConfig::default()
                },
                100.0,
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.shards(), 3);
        assert_eq!(a.trace.queries, b.trace.queries);
        assert_eq!(a.trace.costs_ms, b.trace.costs_ms);
        // Shards share statistics but not content: distinct seeds give
        // distinct document frequencies for at least some term.
        assert!(
            (0..100u32).any(|t| a.indices[0].df(t) != a.indices[1].df(t)),
            "shard corpora should differ"
        );
        // Commands cycle through the log.
        assert_eq!(a.command(0), a.command(50));
        let mut f = a.command_fn();
        assert_eq!(f(7), a.command(7));
        // Backends carry the trace's base_ops: a served search costs
        // exactly what the trace measured for the same query.
        let mut backends = a.backends();
        let (_, served) = kvstore::Backend::execute(&mut backends[0], &a.command(0));
        let expected_ms = served as f64 * 100.0 / 1e6;
        assert!((expected_ms - a.trace.costs_ms[0]).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_index_panics() {
        let idx = crate::index::IndexBuilder::new().build();
        let _ = QueryTrace::generate(&idx, QueryWorkloadConfig::default(), 100.0);
    }
}
