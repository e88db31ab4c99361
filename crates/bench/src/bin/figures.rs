//! Regenerates the paper's figures. See `reissue_bench` crate docs.
//!
//! ```text
//! figures [--fast] [--no-csv] <fig2a|fig2b|fig3|fig4|fig5a|fig5b|fig5c|fig6|fig7a|fig7b|fig7c|fig8|fig9|figtcp_62|figtcp_scaleout|tcp|fanout|ramp|discipline|erasure|throughput|all>...
//! ```
//!
//! `tcp` regenerates the §6.2 figures through the real TCP serving
//! path (see `figs_tcp`); `figtcp_62` and `figtcp_scaleout` select
//! one of the two TCP figures, `fanout` runs the sharded
//! scatter-gather width × budget sweep (see `figs_fanout`), and
//! `ramp` A/Bs utilization-aware hedging over a scripted 0.3 → 0.9
//! load ramp (see `figs_ramp`; persists `BENCH_ramp.json`;
//! `HEDGE_RAMP_ASSERT=1` adds the CI sanity assertion), and
//! `discipline` A/Bs cancellation style × server queue discipline
//! (see `figs_discipline`; persists `BENCH_discipline.json`;
//! `HEDGE_DISCIPLINE_ASSERT=1` adds the CI shape assertions), and
//! `erasure` A/Bs replica hedging vs fragment hedging at equal byte
//! budget (see `figs_erasure`; persists `BENCH_erasure.json`;
//! `HEDGE_ERASURE_ASSERT=1` adds the CI shape assertions).
//! `HEDGE_TCP_QUERIES=<n>` shrinks those runs for smoke testing.
//! The TCP/fan-out figures additionally persist machine-readable
//! results to `BENCH_tcp.json` / `BENCH_fanout.json`: a full-scale run
//! in the working directory (the committed files at the repo root), a
//! `--fast` run under `target/bench/`, so a smoke run never overwrites
//! full-scale numbers. `all` covers the simulator figures only — the
//! TCP and fan-out sweeps are wall-clock-bound (they really serve the
//! load), so they are requested explicitly.

use reissue_bench::{
    figs_discipline, figs_erasure, figs_ext, figs_fanout, figs_ramp, figs_sim, figs_sys, figs_tcp,
    figs_throughput, out_dir, write_bench_json, Scale, Table,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Counting global allocator for the allocations/request column of the
/// `throughput` figure (`reissue_bench::alloc_count` holds the counter;
/// the lib crate forbids `unsafe`, so the `GlobalAlloc` impl lives
/// here). Pure pass-through to [`System`] plus one relaxed increment
/// per allocation event — cheap enough to leave installed for every
/// figure.
struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the only
// addition is a relaxed atomic increment, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        reissue_bench::alloc_count::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        reissue_bench::alloc_count::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        reissue_bench::alloc_count::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let no_csv = args.iter().any(|a| a == "--no-csv");
    let scale = if fast { Scale::Fast } else { Scale::Full };
    let mut figs: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .collect();
    if figs.is_empty() {
        eprintln!(
            "usage: figures [--fast] [--no-csv] <fig2a|fig2b|fig3|fig4|fig5a|fig5b|fig5c|fig6|fig7a|fig7b|fig7c|fig8|fig9|figtcp_62|figtcp_scaleout|tcp|fanout|ramp|discipline|erasure|throughput|all>..."
        );
        std::process::exit(2);
    }
    if figs.iter().any(|f| f == "all") {
        figs = vec![
            "fig2a".into(),
            "fig2b".into(),
            "fig3".into(),
            "fig4".into(),
            "fig5a".into(),
            "fig5b".into(),
            "fig5c".into(),
            "fig6".into(),
            "fig7to9".into(),
            "ext".into(),
        ];
    }

    let dir = out_dir();
    for fig in figs {
        let start = Instant::now();
        let tables: Vec<Table> = match fig.as_str() {
            "fig2a" => figs_sim::fig2a(scale),
            "fig2b" => figs_sim::fig2b(scale),
            "fig3" | "fig3a" | "fig3b" | "fig3c" => figs_sim::fig3(scale),
            "fig4" => figs_sim::fig4(scale),
            "fig5a" => figs_sim::fig5a(scale),
            "fig5b" => figs_sim::fig5b(scale),
            "fig5c" => figs_sim::fig5c(scale),
            "fig6" => figs_sim::fig6(scale),
            "fig7a" => figs_sys::fig7a(scale),
            "fig7b" => figs_sys::fig7b(scale),
            "fig7c" => figs_sys::fig7c(scale),
            "fig8" => figs_sys::fig8(scale),
            "fig9" => figs_sys::fig9(scale),
            "fig7to9" => figs_sys::fig7_to_9(scale),
            "ext1" => figs_ext::ext1_cancellation(scale),
            "ext2" => figs_ext::ext2_routing(scale),
            "ext3" => figs_ext::ext3_multiple_r(scale),
            "ext4" => figs_ext::ext4_online_correlated(scale),
            "ext" => figs_ext::all(scale),
            "figtcp_62" => figs_tcp::figtcp_62(scale),
            "figtcp_scaleout" => figs_tcp::figtcp_scaleout(scale),
            "tcp" => figs_tcp::all(scale),
            "fanout" | "figtcp_fanout" => figs_fanout::figtcp_fanout(scale),
            "ramp" | "figtcp_ramp" => figs_ramp::figtcp_ramp(scale),
            "discipline" | "figtcp_discipline" => figs_discipline::figtcp_discipline_matrix(scale),
            "erasure" | "figtcp_erasure" => figs_erasure::figtcp_erasure(scale),
            "throughput" => figs_throughput::figtcp_throughput(scale),
            other => {
                eprintln!("unknown figure id: {other}");
                std::process::exit(2);
            }
        };
        let elapsed = start.elapsed();
        // The serving-path figures also persist machine-readable JSON
        // (P99s, realized budgets, drop fractions): at the repo root at
        // full scale, under `target/bench/` at smoke scale.
        let json_name = match fig.as_str() {
            "figtcp_62" | "figtcp_scaleout" | "tcp" => Some("BENCH_tcp.json"),
            "fanout" | "figtcp_fanout" => Some("BENCH_fanout.json"),
            "ramp" | "figtcp_ramp" => Some("BENCH_ramp.json"),
            "discipline" | "figtcp_discipline" => Some("BENCH_discipline.json"),
            "erasure" | "figtcp_erasure" => Some("BENCH_erasure.json"),
            "throughput" => Some("BENCH_throughput.json"),
            _ => None,
        };
        if let Some(name) = json_name {
            let queries = if fig == "throughput" {
                figs_throughput::throughput_queries(scale)
            } else {
                figs_tcp::tcp_queries(scale)
            };
            let path = if fast {
                std::path::Path::new("target/bench").join(name)
            } else {
                name.into()
            };
            let written = std::fs::create_dir_all(path.parent().expect("a file path"))
                .and_then(|()| write_bench_json(&path, &fig, queries, &tables));
            match written {
                Ok(()) => eprintln!("[{fig}: wrote {}]", path.display()),
                Err(e) => eprintln!("warning: failed to write {}: {e}", path.display()),
            }
        }
        for t in &tables {
            // Scatter tables are large; print only a summary line.
            if t.rows.len() > 60 {
                println!(
                    "== {} == ({} rows, see {}/{}.csv)",
                    t.name,
                    t.rows.len(),
                    dir.display(),
                    t.name
                );
            } else {
                println!("{}", t.render());
            }
            if !no_csv {
                if let Err(e) = t.write_csv(&dir) {
                    eprintln!("warning: failed to write {}: {e}", t.name);
                }
            }
        }
        eprintln!("[{} done in {:.1?}]", fig, elapsed);
    }
}
