//! The hot-path throughput figure: single-replica max QPS and heap
//! allocations per request through the full serving stack.
//!
//! This is the measurement the hot-path refactor (thread-per-core
//! runtime, zero-copy RESP, pooled buffers) is judged by. One TCP
//! replica serves a preloaded kvstore with **zero** artificial service
//! burn, and a closed loop of concurrent issuers drives `GET`s through
//! the real [`hedge::HedgedClient`] path — executor, transport pool,
//! RESP codec, server sweep — as fast as the stack allows. With no
//! scripted sickness and no reissue policy, what the wall clock
//! measures is pure per-request overhead: the quantity that fan-out ×
//! shards × replicas multiplies.
//!
//! Allocations are counted by the `figures` binary's counting global
//! allocator (see [`crate::alloc_count`]); the reported figure is the
//! process-wide allocation delta across the measured window divided by
//! completed requests — client *and* server side, since both live in
//! this process, which is exactly the cost a colocated benchmark pays.
//! When the counting allocator is not installed (e.g. unit tests), the
//! column is NaN and serializes as `null`.
//!
//! `figures -- throughput` writes `BENCH_throughput.json`. The
//! committed copy at the repo root is a trajectory: the pre-refactor
//! rows (`post_refactor = 0`), then one pair of rows per PR that moved
//! the figure, oldest first (PR 7: 11.0 allocations/request; PR 12:
//! 5.0, on a different box — compare QPS only within a pair). The
//! allocation guard reads the last row. A fresh run emits only
//! current-tree rows; append them by hand when committing.
//! `HEDGE_THROUGHPUT_QUERIES=<n>` shrinks the run for CI smoke, and
//! `HEDGE_ALLOC_BASELINE=<path>` makes the run fail if
//! allocations/request regress past the committed baseline (the CI
//! guard).

use crate::{alloc_count, Scale, Table};

use hedge::harness::Cluster;
use hedge::{HedgeConfig, HedgedClient};
use kvstore::{Command, KvStore, Reply};
use reissue_core::policy::ReissuePolicy;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Distinct keys preloaded into the store (cycled round-robin by the
/// issuers). Small enough to stay cache-resident: the figure measures
/// the serving stack, not the hash map.
const KEYS: usize = 512;
/// Value payload per key — a typical small-object RESP bulk body.
const VALUE_LEN: usize = 64;
/// Measured sweep points: `(conns, issuers, pipeline)`.
///
/// The first is strict request/reply with one issuer per connection —
/// latency-bound (QPS ≈ conns/RTT), reading the per-request wall
/// path. The second oversubscribes the pool and lets each connection
/// keep eight requests on the wire ([`HedgeConfig::pipeline`]), which
/// saturates the serving stack: frames coalesce into shared syscalls
/// on both sides, and per-request *CPU* — the thing the hot-path
/// refactor cuts — sets the ceiling.
const SWEEP: [(usize, usize, usize); 2] = [(8, 8, 1), (8, 64, 8)];
/// Executor workers on the client runtime.
const WORKERS: usize = 4;

/// Per-run query count: full runs measure a stable QPS; smoke runs
/// (`HEDGE_THROUGHPUT_QUERIES`) just exercise the path.
pub fn throughput_queries(scale: Scale) -> usize {
    if let Ok(v) = std::env::var("HEDGE_THROUGHPUT_QUERIES") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(100);
        }
    }
    match scale {
        Scale::Full => 200_000,
        Scale::Fast => 40_000,
    }
}

fn key(i: usize) -> String {
    format!("bench:k{i:04}")
}

fn preloaded_store() -> KvStore {
    let mut store = KvStore::new();
    let value = vec![b'v'; VALUE_LEN];
    for i in 0..KEYS {
        let (reply, _) = store.execute(&Command::Set(
            key(i).into_bytes().into(),
            value.clone().into(),
        ));
        assert!(matches!(reply, Reply::Ok));
    }
    store
}

/// Drives `queries` GETs through `client` closed-loop from `conns`
/// concurrent issuers; returns elapsed seconds.
fn closed_loop(client: &HedgedClient, conns: usize, queries: usize) -> f64 {
    let issued = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..conns)
        .map(|_| {
            let client = client.clone();
            let issued = issued.clone();
            client.runtime().clone().spawn(async move {
                loop {
                    let i = issued.fetch_add(1, Ordering::Relaxed);
                    if i >= queries as u64 {
                        break;
                    }
                    let k = key(i as usize % KEYS);
                    let reply = client
                        .execute(Command::Get(k.into_bytes().into()))
                        .await
                        .expect("throughput GET failed");
                    assert!(
                        matches!(reply, Reply::Str(_)),
                        "preloaded key must resolve to a value"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        client.runtime().block_on(h);
    }
    start.elapsed().as_secs_f64()
}

/// Single-replica max-QPS + allocations/request measurement.
///
/// Columns: `post_refactor` (0 = committed pre-refactor baseline, 1 =
/// current tree), `conns`, `issuers`, `pipeline`, `queries`, `qps`,
/// `allocs_per_req`, `p50_us`, `p99_us`.
pub fn figtcp_throughput(scale: Scale) -> Vec<Table> {
    let queries = throughput_queries(scale);
    let mut t = Table::new(
        "throughput_single_replica",
        &[
            "post_refactor",
            "conns",
            "issuers",
            "pipeline",
            "queries",
            "qps",
            "allocs_per_req",
            "p50_us",
            "p99_us",
        ],
    );
    t.queries_per_phase = Some(queries);

    let store = preloaded_store();
    let cluster = Cluster::spawn(1, &store, 0).expect("bind throughput replica");
    let mut worst_allocs_per_req = f64::NAN;
    for &(conns, issuers, pipeline) in &SWEEP {
        let client = HedgedClient::connect(
            &cluster.addrs(),
            HedgeConfig {
                policy: ReissuePolicy::None,
                online: None,
                pool_per_replica: conns,
                pipeline,
                workers: WORKERS,
                ..HedgeConfig::default()
            },
        )
        .expect("connect throughput client");

        // Warmup: fill connection pools, fault in code paths, settle
        // the sweeper, then snapshot the allocation counter so
        // steady-state cost — not setup — is what gets divided by
        // `queries`.
        closed_loop(&client, issuers, (queries / 10).clamp(50, 5_000));
        let allocs_before = alloc_count::allocations();
        let elapsed = closed_loop(&client, issuers, queries);
        let allocs = alloc_count::allocations() - allocs_before;

        let qps = queries as f64 / elapsed;
        let allocs_per_req = if alloc_count::installed() {
            allocs as f64 / queries as f64
        } else {
            f64::NAN
        };
        // `f64::max` ignores NaN on either side, so the first finite
        // measurement replaces the NaN seed.
        worst_allocs_per_req = worst_allocs_per_req.max(allocs_per_req);
        let hist = client.latency_histogram();
        let p50_us = hist.quantile(0.50).map_or(f64::NAN, |ms| ms * 1e3);
        let p99_us = hist.quantile(0.99).map_or(f64::NAN, |ms| ms * 1e3);
        t.push(vec![
            1.0,
            conns as f64,
            issuers as f64,
            pipeline as f64,
            queries as f64,
            qps,
            allocs_per_req,
            p50_us,
            p99_us,
        ]);

        eprintln!(
            "[throughput] {qps:.0} qps, {allocs_per_req:.1} allocs/req, \
             p50 {p50_us:.0}us p99 {p99_us:.0}us ({queries} queries, {conns} conns, \
             {issuers} issuers, pipeline {pipeline})"
        );
    }

    if let Ok(baseline) = std::env::var("HEDGE_ALLOC_BASELINE") {
        // Guard with the worst sweep point: allocations/request must
        // hold across the whole concurrency range, not just the
        // friendliest row.
        check_alloc_regression(worst_allocs_per_req, std::path::Path::new(&baseline));
    }
    vec![t]
}

/// The CI allocation-regression guard: compares a fresh
/// allocations/request measurement against the committed
/// `BENCH_throughput.json` baseline and aborts the process when the
/// fresh number exceeds the committed post-refactor row by more than
/// [`ALLOC_SLACK`].
///
/// # Panics
/// Panics (failing the CI step) on regression or an unreadable /
/// unparseable baseline file.
pub fn check_alloc_regression(fresh_allocs_per_req: f64, baseline_path: &std::path::Path) {
    if !fresh_allocs_per_req.is_finite() {
        eprintln!(
            "[throughput] counting allocator not installed; skipping allocation guard \
             (run via the `figures` binary to enforce it)"
        );
        return;
    }
    let baseline = baseline_allocs_per_req(baseline_path).unwrap_or_else(|e| {
        panic!(
            "allocation guard: cannot read baseline from {}: {e}",
            baseline_path.display()
        )
    });
    let ceiling = baseline * ALLOC_SLACK;
    assert!(
        fresh_allocs_per_req <= ceiling,
        "allocation regression: {fresh_allocs_per_req:.1} allocs/request exceeds committed \
         baseline {baseline:.1} × {ALLOC_SLACK} = {ceiling:.1} (from {})",
        baseline_path.display()
    );
    eprintln!(
        "[throughput] allocation guard ok: {fresh_allocs_per_req:.1} <= {baseline:.1} × \
         {ALLOC_SLACK}"
    );
}

/// Headroom multiplier on the committed baseline before the guard
/// fires: allocation counts are deterministic per request on the hot
/// path but warmup truncation and pool growth add small run-to-run
/// noise at smoke query counts.
pub const ALLOC_SLACK: f64 = 1.30;

/// Extracts the `allocs_per_req` cell of the most recent
/// `post_refactor = 1` row (falling back to the last row) from a
/// `BENCH_throughput.json` written by [`crate::write_bench_json`].
/// Minimal scan for the writer's own fixed layout, not a general JSON
/// parser.
pub fn baseline_allocs_per_req(path: &std::path::Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let cols_start = text.find("\"columns\": [").ok_or("missing columns array")?;
    let cols_text = &text[cols_start + "\"columns\": [".len()..];
    let cols_end = cols_text.find(']').ok_or("unterminated columns array")?;
    let columns: Vec<String> = cols_text[..cols_end]
        .split(',')
        .map(|c| c.trim().trim_matches('"').to_string())
        .collect();
    let alloc_idx = columns
        .iter()
        .position(|c| c == "allocs_per_req")
        .ok_or("no allocs_per_req column")?;
    let phase_idx = columns.iter().position(|c| c == "post_refactor");

    let mut best: Option<f64> = None;
    let mut last: Option<f64> = None;
    for line in text.lines() {
        let line = line.trim();
        if !line.starts_with('[') {
            continue;
        }
        let cells: Vec<&str> = line
            .trim_start_matches('[')
            .trim_end_matches(',')
            .trim_end_matches(']')
            .split(',')
            .map(str::trim)
            .collect();
        if cells.len() != columns.len() {
            continue;
        }
        let val: f64 = match cells[alloc_idx].parse() {
            Ok(v) => v,
            Err(_) => continue,
        };
        last = Some(val);
        if let Some(pi) = phase_idx {
            if cells[pi].parse::<f64>() == Ok(1.0) {
                best = Some(val);
            }
        }
    }
    best.or(last).ok_or_else(|| "no data rows".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn baseline_extraction_prefers_post_refactor_row() {
        let mut t = Table::new(
            "throughput_single_replica",
            &[
                "post_refactor",
                "conns",
                "issuers",
                "pipeline",
                "queries",
                "qps",
                "allocs_per_req",
                "p50_us",
                "p99_us",
            ],
        );
        t.push(vec![
            0.0, 8.0, 8.0, 1.0, 1000.0, 50_000.0, 90.0, 100.0, 400.0,
        ]);
        t.push(vec![
            1.0, 8.0, 8.0, 1.0, 1000.0, 90_000.0, 30.0, 60.0, 250.0,
        ]);
        let json = crate::tables_to_json("throughput", 1000, &[t]);
        let path = std::env::temp_dir().join("reissue_bench_throughput_baseline_test.json");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(json.as_bytes()).unwrap();
        let v = baseline_allocs_per_req(&path).unwrap();
        assert!((v - 30.0).abs() < 1e-9, "want post-refactor row, got {v}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn guard_passes_under_and_panics_over_ceiling() {
        let mut t = Table::new("t", &["post_refactor", "allocs_per_req"]);
        t.push(vec![1.0, 40.0]);
        let json = crate::tables_to_json("throughput", 10, &[t]);
        let path = std::env::temp_dir().join("reissue_bench_throughput_guard_test.json");
        std::fs::write(&path, json).unwrap();
        check_alloc_regression(40.0 * ALLOC_SLACK - 1.0, &path);
        let over =
            std::panic::catch_unwind(|| check_alloc_regression(40.0 * ALLOC_SLACK + 1.0, &path));
        assert!(over.is_err(), "guard must fail past the ceiling");
        std::fs::remove_file(&path).ok();
    }
}
