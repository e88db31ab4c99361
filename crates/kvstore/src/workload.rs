//! The paper's Redis set-intersection query trace (§6.2): 40 000
//! intersections of random set pairs, with measured (deterministic)
//! service costs.

use crate::dataset::Dataset;
use crate::sets::IntSet;
use crate::store::{Command, KvStore};
use bytes::Bytes;
use distributions::rng::stream;
use rand::Rng;

/// Key of the first §6.2 monster set (see [`store_with_monsters`]).
pub const MONSTER_KEY_A: &str = "qod:a";
/// Key of the second §6.2 monster set.
pub const MONSTER_KEY_B: &str = "qod:b";

/// Loads `dataset` plus the two monster sets behind the §6.2 "queries
/// of death" into a fresh store: intersecting [`MONSTER_KEY_A`] with
/// [`MONSTER_KEY_B`] costs ~500k probe operations (tens of
/// milliseconds at realistic per-op burns) against ~0.5 ms for a
/// typical traced pair. One definition serves every §6.2 experiment —
/// the TCP cluster example and the `figtcp` figure sweeps replay the
/// *same* workload by construction.
pub fn store_with_monsters(dataset: &Dataset) -> KvStore {
    let mut store = KvStore::new();
    dataset.load_into(&mut store);
    store.load_set(MONSTER_KEY_A, IntSet::from_unsorted((0..30_000).collect()));
    store.load_set(
        MONSTER_KEY_B,
        IntSet::from_unsorted((15_000..45_000).collect()),
    );
    store
}

/// Workload generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Number of intersection queries (the paper uses 40 000).
    pub num_queries: usize,
    /// Nanoseconds of service time per elementary set operation —
    /// the cost-to-time calibration constant. The default (80 ns) is
    /// representative of cache-unfriendly merge work on the paper's
    /// 2.4 GHz Xeon and puts the trace mean near the paper's measured
    /// µ_R = 2.366 ms.
    pub ns_per_op: f64,
    /// RNG seed for pair selection.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_queries: 40_000,
            ns_per_op: 80.0,
            seed: 0xbeef,
        }
    }
}

/// A generated query trace: the queries and their measured costs.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The query list as `(set_a, set_b)` indices.
    pub pairs: Vec<(usize, usize)>,
    /// Deterministic service time of each query, in milliseconds,
    /// obtained by executing the intersection and converting its
    /// operation count at `ns_per_op`.
    pub costs_ms: Vec<f64>,
}

impl Trace {
    /// Executes `config.num_queries` random pair intersections against
    /// the dataset and records their costs.
    ///
    /// The engine really runs: every cost is the instrumented operation
    /// count of an actual intersection over the generated sets, so the
    /// trace inherits the dataset's heavy cardinality tail (the rare
    /// large×large "queries of death" the paper describes).
    pub fn generate(dataset: &Dataset, config: WorkloadConfig) -> Self {
        assert!(config.num_queries > 0 && config.ns_per_op > 0.0);
        let n = dataset.sets.len();
        assert!(n >= 2, "need at least two sets");
        let mut rng = stream(config.seed, 3);
        let mut pairs = Vec::with_capacity(config.num_queries);
        let mut costs_ms = Vec::with_capacity(config.num_queries);
        for _ in 0..config.num_queries {
            let a = rng.gen_range(0..n);
            let b = loop {
                let b = rng.gen_range(0..n);
                if b != a {
                    break b;
                }
            };
            // Redis cost semantics: iterate-small / probe-large.
            let (_, ops) = dataset.sets[a].intersect_probe(&dataset.sets[b]);
            pairs.push((a, b));
            costs_ms.push(ops as f64 * config.ns_per_op / 1e6);
        }
        Trace { pairs, costs_ms }
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

    /// Rescales every cost so the mean becomes `target_mean_ms`
    /// (calibration helper).
    pub fn calibrate_to_mean(&mut self, target_mean_ms: f64) {
        assert!(target_mean_ms > 0.0);
        let f = target_mean_ms / self.mean_ms();
        for c in &mut self.costs_ms {
            *c *= f;
        }
    }

    /// Number of queries with cost above `threshold_ms`.
    pub fn count_above(&self, threshold_ms: f64) -> usize {
        self.costs_ms.iter().filter(|&&c| c > threshold_ms).count()
    }

    /// A `'static` command generator over this trace for open-loop
    /// serving experiments: the traced `SINTERCARD` for arrival `i`
    /// (wrapping past the trace length), with a query of death —
    /// [`MONSTER_KEY_A`] ∩ [`MONSTER_KEY_B`], see
    /// [`store_with_monsters`] — every `every` arrivals.
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn monster_command_fn(
        &self,
        every: usize,
    ) -> impl FnMut(usize) -> Command + Send + 'static {
        assert!(every > 0, "monster frequency must be positive");
        let pairs = self.pairs.clone();
        move |i| {
            if i % every == every / 2 {
                Command::SInterCard(MONSTER_KEY_A.into(), MONSTER_KEY_B.into())
            } else {
                let (a, b) = pairs[i % pairs.len()];
                Command::SInterCard(
                    Bytes::from(Dataset::key(a).into_bytes()),
                    Bytes::from(Dataset::key(b).into_bytes()),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::store::Reply;

    fn small_trace(seed: u64) -> (Dataset, Trace) {
        let d = Dataset::generate(DatasetConfig::small(seed));
        let t = Trace::generate(
            &d,
            WorkloadConfig {
                num_queries: 500,
                ns_per_op: 80.0,
                seed,
            },
        );
        (d, t)
    }

    #[test]
    fn trace_shape() {
        let (_, t) = small_trace(1);
        assert_eq!(t.pairs.len(), 500);
        assert_eq!(t.costs_ms.len(), 500);
        assert!(t.costs_ms.iter().all(|&c| c > 0.0));
        assert!(t.pairs.iter().all(|&(a, b)| a != b));
    }

    #[test]
    fn deterministic() {
        let (_, t1) = small_trace(2);
        let (_, t2) = small_trace(2);
        assert_eq!(t1.pairs, t2.pairs);
        assert_eq!(t1.costs_ms, t2.costs_ms);
    }

    #[test]
    fn cost_correlates_with_set_sizes() {
        let (d, t) = small_trace(3);
        // The most expensive query should involve sets whose combined
        // size is above the trace median.
        let (argmax, _) = t
            .costs_ms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        let (a, b) = t.pairs[argmax];
        let big = d.sets[a].len() + d.sets[b].len();
        let mut sums: Vec<usize> = t
            .pairs
            .iter()
            .map(|&(a, b)| d.sets[a].len() + d.sets[b].len())
            .collect();
        sums.sort_unstable();
        assert!(big >= sums[sums.len() / 2], "big={big}");
    }

    #[test]
    fn execute_against_store_matches_sets() {
        let (d, t) = small_trace(4);
        let mut kv = KvStore::new();
        d.load_into(&mut kv);
        let (a, b) = t.pairs[0];
        let want = d.sets[a].intersect(&d.sets[b]).0;
        let cmd = Command::SInter(
            Bytes::from(Dataset::key(a).into_bytes()),
            Bytes::from(Dataset::key(b).into_bytes()),
        );
        match kv.execute(&cmd).0 {
            Reply::Members(ms) => assert_eq!(ms, want.as_slice()),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn calibration_scales_mean() {
        let (_, mut t) = small_trace(5);
        t.calibrate_to_mean(2.366);
        assert!((t.mean_ms() - 2.366).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_trace_has_queries_of_death() {
        // Full-size dataset: verify the heavy tail exists (some queries
        // ≫ mean) without asserting exact paper numbers.
        let d = Dataset::generate(DatasetConfig::default());
        let t = Trace::generate(
            &d,
            WorkloadConfig {
                num_queries: 4_000, // 10% of paper volume for test speed
                ..WorkloadConfig::default()
            },
        );
        let mean = t.mean_ms();
        assert!(t.count_above(mean * 20.0) > 0, "no queries of death");
        // Over 90% of queries are fast (below 4x mean).
        let fast = t.costs_ms.iter().filter(|&&c| c < 4.0 * mean).count();
        assert!(fast as f64 / t.costs_ms.len() as f64 > 0.9);
    }
}
