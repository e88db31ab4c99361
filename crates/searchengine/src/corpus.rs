//! Synthetic Zipf-vocabulary corpus generation.
//!
//! The paper indexes 33 M English Wikipedia articles — data we do not
//! ship. What its evaluation actually depends on is the *shape* of the
//! query service-time distribution that index induces (µ ≈ 40 ms,
//! σ ≈ 22 ms, ~1 % of queries above 100 ms, light tail). Natural
//! language term frequencies are famously Zipfian, and BM25 query cost
//! is dominated by postings-list lengths ∝ term frequency, so a
//! Zipf-vocabulary corpus reproduces that shape with any desired scale.

use distributions::rng::stream;
use distributions::{LogNormal, Sample};
use rand::rngs::SmallRng;
use rand::Rng;

/// A Zipf(s) sampler over ranks `0..n` via inverse-CDF table lookup.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler; `O(n)` table.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs n > 0");
        assert!(s >= 0.0, "Zipf exponent must be ≥ 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the rank space is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a rank in `0..n` (0 = most frequent).
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// The probability mass of `rank`.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

/// Corpus generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct CorpusConfig {
    /// Number of documents.
    pub num_docs: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Zipf exponent of term frequencies (English text ≈ 1.05–1.1).
    pub zipf_s: f64,
    /// Mean document length in tokens (log-normal lengths).
    pub mean_doc_len: f64,
    /// Log-normal sigma of document length.
    pub doc_len_sigma: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            num_docs: 40_000,
            vocab: 50_000,
            zipf_s: 1.07,
            mean_doc_len: 120.0,
            doc_len_sigma: 0.6,
            seed: 0x1cefe,
        }
    }
}

impl CorpusConfig {
    /// A tiny configuration for tests.
    pub fn small(seed: u64) -> Self {
        CorpusConfig {
            num_docs: 500,
            vocab: 2_000,
            zipf_s: 1.07,
            mean_doc_len: 40.0,
            doc_len_sigma: 0.5,
            seed,
        }
    }
}

/// A generated corpus: documents as term-id sequences.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// Documents; term ids are dense in `0..config.vocab`, with id
    /// order = frequency rank (0 most common).
    pub docs: Vec<Vec<u32>>,
    config: CorpusConfig,
}

impl Corpus {
    /// Generates a corpus deterministically.
    pub fn generate(config: CorpusConfig) -> Self {
        assert!(config.num_docs > 0 && config.vocab > 0);
        let zipf = Zipf::new(config.vocab, config.zipf_s);
        let len_dist = LogNormal::from_mean_std(
            config.mean_doc_len,
            config.mean_doc_len * config.doc_len_sigma,
        );
        let mut rng_len = stream(config.seed, 10);
        let mut rng_term = stream(config.seed, 11);
        let docs = (0..config.num_docs)
            .map(|_| {
                let len = (len_dist.sample(&mut rng_len) as usize).clamp(1, 10_000);
                (0..len)
                    .map(|_| zipf.sample(&mut rng_term) as u32)
                    .collect()
            })
            .collect();
        Corpus { docs, config }
    }

    /// The generation parameters.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Builds the inverted index over all documents.
    pub fn build_index(&self) -> crate::index::InvertedIndex {
        let mut b = crate::index::IndexBuilder::new();
        for d in &self.docs {
            b.add_doc(d);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distributions::rng::seeded;

    #[test]
    fn zipf_head_dominates() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = seeded(1);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With s=1.1 the top-10 ranks carry a large share of the mass.
        let frac = head as f64 / n as f64;
        assert!(frac > 0.3, "frac={frac}");
        // PMF is decreasing in rank.
        assert!(z.pmf(0) > z.pmf(10));
        assert!(z.pmf(10) > z.pmf(500));
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(100, 0.0);
        for r in [0, 50, 99] {
            assert!((z.pmf(r) - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_in_range() {
        let z = Zipf::new(7, 1.0);
        let mut rng = seeded(2);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::generate(CorpusConfig::small(3));
        let b = Corpus::generate(CorpusConfig::small(3));
        assert_eq!(a.docs, b.docs);
    }

    #[test]
    fn corpus_term_ids_in_vocab() {
        let c = Corpus::generate(CorpusConfig::small(4));
        for d in &c.docs {
            assert!(!d.is_empty());
            for &t in d {
                assert!((t as usize) < 2_000);
            }
        }
    }

    #[test]
    fn corpus_index_has_zipfian_df() {
        let c = Corpus::generate(CorpusConfig::small(5));
        let idx = c.build_index();
        // Term 0 (most frequent rank) appears in far more docs than a
        // mid-rank term.
        assert!(
            idx.df(0) > idx.df(500).max(1) * 3,
            "df0={} df500={}",
            idx.df(0),
            idx.df(500)
        );
    }

    #[test]
    fn doc_lengths_near_mean() {
        let c = Corpus::generate(CorpusConfig::small(6));
        let tokens: usize = c.docs.iter().map(Vec::len).sum();
        let mean = tokens as f64 / c.docs.len() as f64;
        assert!((mean - 40.0).abs() < 8.0, "mean={mean}");
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn zipf_zero_n_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
