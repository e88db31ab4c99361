//! Figure-regeneration harness for the SPAA'17 reissue-policy paper.
//!
//! Every figure in the paper's evaluation (§5 simulation, §6 system
//! experiments) has a generator here that reproduces its data series
//! with this repository's substrates. Invoke via the `figures` binary:
//!
//! ```text
//! cargo run -p reissue-bench --release --bin figures -- all
//! cargo run -p reissue-bench --release --bin figures -- fig3a fig7a
//! cargo run -p reissue-bench --release --bin figures -- --fast all
//! ```
//!
//! Output: an aligned table per series on stdout and a CSV per table in
//! `target/figures/`. `--fast` ([`Scale::Fast`]) is the only size
//! setting: simulator runs ~10× shorter, TCP figures at 400 queries per
//! phase instead of 6 000.

#![forbid(unsafe_code)]

pub mod figs_discipline;
pub mod figs_erasure;
pub mod figs_ext;
pub mod figs_fanout;
pub mod figs_ramp;
pub mod figs_sim;
pub mod figs_sys;
pub mod figs_tcp;

use reissue_core::adaptive::AdaptiveResult;
use reissue_core::ReissuePolicy;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use workloads::{RunConfig, WorkloadSpec};

/// One output table (≈ one curve/series of a paper figure).
#[derive(Clone, Debug)]
pub struct Table {
    /// Identifier, e.g. `fig3a_queueing_singler`.
    pub name: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
    /// Measured queries per phase for *this* table, when it differs
    /// from (or refines) the figure-level count — e.g. the fan-out
    /// sweep boosts smoke counts at narrow widths, so a single global
    /// number would misdescribe its rows. Serialized per table in the
    /// BENCH JSON when set.
    pub queries_per_phase: Option<usize>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            name: name.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            queries_per_phase: None,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity doesn't match the header.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.name));
        let width = 14;
        for c in &self.columns {
            out.push_str(&format!("{c:>width$}"));
        }
        out.push('\n');
        for row in &self.rows {
            for v in row {
                if v.abs() >= 1000.0 || (*v != 0.0 && v.abs() < 0.001) {
                    out.push_str(&format!("{v:>width$.4e}"));
                } else {
                    out.push_str(&format!("{v:>width$.4}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV into `dir`.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.name));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.columns.join(","))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            writeln!(f, "{}", cells.join(","))?;
        }
        Ok(path)
    }
}

/// The default output directory, `target/figures`.
pub fn out_dir() -> PathBuf {
    PathBuf::from("target/figures")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_num(v: f64) -> String {
    // JSON has no NaN/Infinity; absent measurements become null.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Serializes figure tables as a machine-readable JSON document:
/// `{"figure": ..., "queries_per_phase": ..., "tables": [{"name",
/// "columns", "rows"}, ...]}`. Non-finite cells become `null`.
pub fn tables_to_json(figure: &str, queries_per_phase: usize, tables: &[Table]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"figure\": \"{}\",\n  \"queries_per_phase\": {queries_per_phase},\n  \"tables\": [",
        json_escape(figure)
    ));
    for (ti, t) in tables.iter().enumerate() {
        if ti > 0 {
            out.push(',');
        }
        let cols: Vec<String> = t
            .columns
            .iter()
            .map(|c| format!("\"{}\"", json_escape(c)))
            .collect();
        let per_table_queries = t
            .queries_per_phase
            .map(|q| format!("\n      \"queries_per_phase\": {q},"))
            .unwrap_or_default();
        out.push_str(&format!(
            "\n    {{\n      \"name\": \"{}\",{per_table_queries}\n      \"columns\": [{}],\n      \"rows\": [",
            json_escape(&t.name),
            cols.join(", ")
        ));
        for (ri, row) in t.rows.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            let cells: Vec<String> = row.iter().map(|&v| json_num(v)).collect();
            out.push_str(&format!("\n        [{}]", cells.join(", ")));
        }
        out.push_str("\n      ]\n    }");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes figure tables as JSON to `path` (e.g. `BENCH_fanout.json` at
/// the repo root) — the machine-readable record the figure runs emit
/// alongside the CSVs.
pub fn write_bench_json(
    path: &std::path::Path,
    figure: &str,
    queries_per_phase: usize,
    tables: &[Table],
) -> std::io::Result<()> {
    std::fs::write(path, tables_to_json(figure, queries_per_phase, tables))
}

/// Median of a non-empty slice (sorts a copy): the middle element, or
/// the mean of the two middle elements for an even length.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty slice");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 0 {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Maps `f` over `items` on all available cores, preserving order.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
        .min(n.max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("item taken twice");
                let r = f(item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("missing result"))
        .collect()
}

/// Evaluation scale: full (paper-grade) or fast (smoke test).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Full-length runs.
    Full,
    /// ~10× smaller runs for quick iteration and tests.
    Fast,
}

impl Scale {
    /// Scales a query count.
    pub fn queries(&self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Fast => (full / 10).max(2_000),
        }
    }

    /// Seeds to median over.
    pub fn seeds(&self, full: usize) -> Vec<u64> {
        let n = match self {
            Scale::Full => full,
            Scale::Fast => 1,
        };
        (0..n as u64).map(|i| 1000 + 7 * i).collect()
    }

    /// Adaptive trials.
    pub fn trials(&self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Fast => (full / 2).max(2),
        }
    }
}

/// Runs `spec` under `policy` for each seed; returns
/// (median k-quantile, median reissue rate).
pub fn eval_policy(
    spec: &WorkloadSpec,
    queries: usize,
    seeds: &[u64],
    k: f64,
    policy: &ReissuePolicy,
) -> (f64, f64) {
    let results: Vec<(f64, f64)> = seeds
        .iter()
        .map(|&seed| {
            let run = RunConfig {
                seed,
                ..RunConfig::new(queries)
            };
            let r = spec.run(&run, policy);
            (r.quantile(k), r.reissue_rate())
        })
        .collect();
    (
        median(&results.iter().map(|r| r.0).collect::<Vec<_>>()),
        median(&results.iter().map(|r| r.1).collect::<Vec<_>>()),
    )
}

/// Everything a figure needs from one policy × workload measurement,
/// medianed across seeds.
#[derive(Clone, Copy, Debug)]
pub struct EvalStats {
    /// Median k-quantile of realized latency.
    pub latency: f64,
    /// Median measured reissue rate.
    pub rate: f64,
    /// Median remediation rate (Pr(X > t ∧ Y < t − d) over reissues,
    /// with t = the achieved latency of that run).
    pub remediation: f64,
    /// Median fraction of primaries outstanding at the reissue delay.
    pub outstanding: f64,
    /// Median reissue probability of the tuned policy.
    pub probability: f64,
    /// Median reissue delay of the tuned policy.
    pub delay: f64,
}

fn eval_stats_one(
    spec: &WorkloadSpec,
    queries: usize,
    seed: u64,
    k: f64,
    policy: &ReissuePolicy,
) -> EvalStats {
    let run = RunConfig {
        seed,
        ..RunConfig::new(queries)
    };
    let r = spec.run(&run, policy);
    let latency = r.quantile(k);
    let (delay, probability) = policy
        .stages()
        .first()
        .map_or((f64::NAN, 0.0), |s| (s.delay, s.prob));
    let primaries = r.primaries();
    let outstanding = if delay.is_finite() && !primaries.is_empty() {
        primaries.iter().filter(|&&x| x >= delay).count() as f64 / primaries.len() as f64
    } else {
        0.0
    };
    EvalStats {
        latency,
        rate: r.reissue_rate(),
        remediation: reissue_core::metrics::remediation_rate(
            &r.pairs(),
            latency,
            if delay.is_finite() { delay } else { 0.0 },
        ),
        outstanding,
        probability,
        delay: if delay.is_finite() { delay } else { 0.0 },
    }
}

fn median_stats(per_seed: &[EvalStats]) -> EvalStats {
    let m = |f: fn(&EvalStats) -> f64| median(&per_seed.iter().map(f).collect::<Vec<_>>());
    EvalStats {
        latency: m(|s| s.latency),
        rate: m(|s| s.rate),
        remediation: m(|s| s.remediation),
        outstanding: m(|s| s.outstanding),
        probability: m(|s| s.probability),
        delay: m(|s| s.delay),
    }
}

/// Evaluates a *fixed* policy across seeds (median of per-seed stats).
pub fn eval_fixed(
    spec: &WorkloadSpec,
    queries: usize,
    seeds: &[u64],
    k: f64,
    policy: &ReissuePolicy,
) -> EvalStats {
    let per_seed: Vec<EvalStats> = seeds
        .iter()
        .map(|&s| eval_stats_one(spec, queries, s, k, policy))
        .collect();
    median_stats(&per_seed)
}

/// Tunes SingleR *per seed* (the adaptive §4.3 loop with common random
/// numbers) and evaluates each tuned policy on its own realization,
/// then medians — mirroring how the paper tunes and measures on the
/// same testbed. Under heavy-tailed service times a delay tuned on one
/// realization does not transfer to another (upper quantiles are
/// realization-dominated), so per-seed tuning is essential.
pub fn eval_tuned_single_r(
    spec: &WorkloadSpec,
    queries: usize,
    seeds: &[u64],
    k: f64,
    budget: f64,
    trials: usize,
    learning_rate: f64,
) -> EvalStats {
    let per_seed: Vec<EvalStats> = seeds
        .iter()
        .map(|&s| {
            let run = RunConfig {
                seed: s,
                ..RunConfig::new(queries)
            };
            let tuned = workloads::adapt_policy(spec, &run, k, budget, learning_rate, trials);
            eval_stats_one(spec, queries, s, k, &tuned.policy)
        })
        .collect();
    median_stats(&per_seed)
}

/// Tunes SingleD per seed (delay fitted to the budget under load) and
/// evaluates on the same realization; medians across seeds.
pub fn eval_tuned_single_d(
    spec: &WorkloadSpec,
    queries: usize,
    seeds: &[u64],
    k: f64,
    budget: f64,
    trials: usize,
) -> EvalStats {
    let per_seed: Vec<EvalStats> = seeds
        .iter()
        .map(|&s| {
            let policy = tune_single_d(spec, queries, s, budget, trials);
            eval_stats_one(spec, queries, s, k, &policy)
        })
        .collect();
    median_stats(&per_seed)
}

/// Adaptively refines a SingleR policy on `spec` (the §4.3 loop) and
/// returns the final policy plus the trial telemetry.
pub fn tune_single_r(
    spec: &WorkloadSpec,
    queries: usize,
    seed: u64,
    k: f64,
    budget: f64,
    trials: usize,
    learning_rate: f64,
) -> AdaptiveResult {
    let run = RunConfig {
        seed,
        ..RunConfig::new(queries)
    };
    workloads::adapt_policy(spec, &run, k, budget, learning_rate, trials)
}

/// Adaptively fits a SingleD policy to a budget on a load-coupled
/// workload: repeatedly set `d` to the observed `(1−B)`-quantile of
/// primary response times under the current policy (the paper applies
/// the same refinement to SingleD so its measured rate meets the
/// budget, §5.1).
pub fn tune_single_d(
    spec: &WorkloadSpec,
    queries: usize,
    seed: u64,
    budget: f64,
    trials: usize,
) -> ReissuePolicy {
    if budget <= 0.0 {
        return ReissuePolicy::None;
    }
    let mut policy = ReissuePolicy::None;
    let mut d = f64::NAN;
    for _ in 0..trials.max(1) {
        // Common random numbers across refinement trials (see
        // `eval_tuned_single_r`).
        let run = RunConfig {
            seed,
            ..RunConfig::new(queries)
        };
        let r = spec.run(&run, &policy);
        let primaries = r.primaries();
        let target = reissue_core::metrics::quantile(&primaries, (1.0 - budget).clamp(0.0, 1.0));
        d = if d.is_finite() {
            d + 0.5 * (target - d)
        } else {
            target
        };
        policy = ReissuePolicy::single_d(d.max(0.0));
    }
    policy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_and_csv() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push(vec![1.0, 2.0]);
        t.push(vec![3.0, 4.5]);
        let s = t.render();
        assert!(s.contains("demo") && s.contains("4.5"));
        let dir = std::env::temp_dir().join("reissue_bench_test");
        let path = t.write_csv(&dir).unwrap();
        let data = std::fs::read_to_string(path).unwrap();
        assert_eq!(data.lines().count(), 3);
        assert!(data.starts_with("x,y"));
    }

    #[test]
    fn tables_serialize_to_json_with_null_for_nan() {
        let mut t = Table::new("demo", &["x", "p99"]);
        t.push(vec![1.0, 2.5]);
        t.push(vec![2.0, f64::NAN]);
        let json = tables_to_json("fanout", 400, &[t]);
        assert!(json.contains("\"figure\": \"fanout\""));
        assert!(json.contains("\"queries_per_phase\": 400"));
        assert!(json.contains("\"columns\": [\"x\", \"p99\"]"));
        assert!(json.contains("[1, 2.5]"));
        assert!(json.contains("[2, null]"), "NaN must serialize as null");
        // Balanced braces/brackets — cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_arity_checked() {
        let mut t = Table::new("demo", &["x", "y"]);
        t.push(vec![1.0]);
    }

    #[test]
    fn median_and_parallel_map() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[2.0, 1.0]), 1.5);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        let out = parallel_map((0..100).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
    }

    #[test]
    fn scale_knobs() {
        assert_eq!(Scale::Full.queries(50_000), 50_000);
        assert_eq!(Scale::Fast.queries(50_000), 5_000);
        assert_eq!(Scale::Full.seeds(3).len(), 3);
        assert_eq!(Scale::Fast.seeds(3).len(), 1);
        assert!(Scale::Fast.trials(6) >= 2);
    }

    #[test]
    fn tune_single_d_converges_to_budget() {
        let spec = workloads::queueing(0.2, 0.0, 42);
        let policy = tune_single_d(&spec, 10_000, 1, 0.1, 4);
        let (_, rate) = eval_policy(&spec, 10_000, &[9], 0.95, &policy);
        assert!((rate - 0.1).abs() < 0.05, "rate={rate}");
    }
}
