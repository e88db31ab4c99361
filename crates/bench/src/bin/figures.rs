//! Regenerates the paper's figures. See `reissue_bench` crate docs.
//!
//! ```text
//! figures [--fast] [--no-csv] <id>...
//! ```
//!
//! Run with no id, it prints every id it accepts (the `FIGURES` table
//! below, which is also what dispatches them) and exits 2; so does any
//! `--` flag other than these two, before it runs anything.
//!
//! `tcp` regenerates the §6.2 figures through the real TCP serving
//! path (see `figs_tcp`); `figtcp_62` and `figtcp_scaleout` select
//! one of the two TCP figures, `fanout` runs the sharded
//! scatter-gather width × budget sweep (see `figs_fanout`), and
//! `ramp` A/Bs utilization-aware hedging over a scripted 0.3 → 0.9
//! load ramp (see `figs_ramp`), `discipline` A/Bs the server queue
//! discipline at an equal reissue budget (see `figs_discipline`), and `erasure` A/Bs
//! replica hedging vs fragment hedging at equal byte budget (see
//! `figs_erasure`). `ramp` and `discipline` assert their acceptance
//! shape on every run.
//!
//! `Scale` is the only size setting: `--fast` runs 400 queries per
//! phase through the TCP figures (a 200-fan-out base for `fanout`)
//! where a full-scale run serves 6 000. Every serving-path figure
//! persists machine-readable results to its `BENCH_<id>.json`: a
//! full-scale run in the working directory (the committed files at the
//! repo root), a `--fast` run under `target/bench/`, so a smoke run
//! never overwrites full-scale numbers. `all` covers the simulator
//! figures only — the TCP and fan-out sweeps are wall-clock-bound (they
//! really serve the load), so they are requested explicitly.

use reissue_bench::{
    figs_discipline, figs_erasure, figs_ext, figs_fanout, figs_ramp, figs_sim, figs_sys, figs_tcp,
    out_dir, write_bench_json, Scale, Table,
};
use std::time::Instant;

/// One figure: the ids that select it, its generator, and for the
/// serving-path figures the JSON file its results persist to. The
/// usage line and the dispatch both read this table.
type Figure = (
    &'static [&'static str],
    fn(Scale) -> Vec<Table>,
    Option<&'static str>,
);

const FIGURES: &[Figure] = &[
    (&["fig2a"], figs_sim::fig2a, None),
    (&["fig2b"], figs_sim::fig2b, None),
    (&["fig3", "fig3a", "fig3b", "fig3c"], figs_sim::fig3, None),
    (&["fig4"], figs_sim::fig4, None),
    (&["fig5a"], figs_sim::fig5a, None),
    (&["fig5b"], figs_sim::fig5b, None),
    (&["fig5c"], figs_sim::fig5c, None),
    (&["fig6"], figs_sim::fig6, None),
    (&["fig7a"], figs_sys::fig7a, None),
    (&["fig7b"], figs_sys::fig7b, None),
    (&["fig7c"], figs_sys::fig7c, None),
    (&["fig8"], figs_sys::fig8, None),
    (&["fig9"], figs_sys::fig9, None),
    (&["ext1"], figs_ext::ext1_cancellation, None),
    (&["ext2"], figs_ext::ext2_routing, None),
    (&["ext3"], figs_ext::ext3_multiple_r, None),
    (&["ext4"], figs_ext::ext4_online_correlated, None),
    (&["ext"], figs_ext::all, None),
    (&["figtcp_62"], figs_tcp::figtcp_62, Some("BENCH_tcp.json")),
    (
        &["figtcp_scaleout"],
        figs_tcp::figtcp_scaleout,
        Some("BENCH_tcp.json"),
    ),
    (&["tcp"], figs_tcp::all, Some("BENCH_tcp.json")),
    (
        &["fanout", "figtcp_fanout"],
        figs_fanout::figtcp_fanout,
        Some("BENCH_fanout.json"),
    ),
    (
        &["ramp", "figtcp_ramp"],
        figs_ramp::figtcp_ramp,
        Some("BENCH_ramp.json"),
    ),
    (
        &["discipline", "figtcp_discipline"],
        figs_discipline::figtcp_discipline_matrix,
        Some("BENCH_discipline.json"),
    ),
    (
        &["erasure", "figtcp_erasure"],
        figs_erasure::figtcp_erasure,
        Some("BENCH_erasure.json"),
    ),
];

/// What `all` expands to: the simulator figures.
const ALL: &[&str] = &[
    "fig2a", "fig2b", "fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig6", "fig7a", "fig7b", "fig7c",
    "fig8", "fig9", "ext",
];

/// What the command line asks for.
#[derive(Debug, PartialEq)]
struct Args {
    fast: bool,
    no_csv: bool,
    figs: Vec<String>,
}

/// Parses `[--fast] [--no-csv] <id>...`, flags and ids in any order.
/// Any other `--` flag is an error: a mistyped `--fast` must not run
/// the full-scale sweep, which overwrites the committed `BENCH_*.json`.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        fast: false,
        no_csv: false,
        figs: Vec::new(),
    };
    for arg in args {
        match arg.as_str() {
            "--fast" => parsed.fast = true,
            "--no-csv" => parsed.no_csv = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            id => parsed.figs.push(id.to_string()),
        }
    }
    Ok(parsed)
}

fn usage() -> ! {
    let ids: Vec<&str> = FIGURES
        .iter()
        .flat_map(|(ids, ..)| ids.iter().copied())
        .collect();
    eprintln!(
        "usage: figures [--fast] [--no-csv] <{}|all>...",
        ids.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        fast,
        no_csv,
        mut figs,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    let scale = if fast { Scale::Fast } else { Scale::Full };
    if figs.is_empty() {
        usage();
    }
    if figs.iter().any(|f| f == "all") {
        figs = ALL.iter().map(|id| id.to_string()).collect();
    }

    let dir = out_dir();
    for fig in figs {
        let start = Instant::now();
        let Some(&(_, generate, json_name)) =
            FIGURES.iter().find(|(ids, ..)| ids.contains(&fig.as_str()))
        else {
            eprintln!("unknown figure id: {fig}");
            std::process::exit(2);
        };
        let tables = generate(scale);
        let elapsed = start.elapsed();
        // The serving-path figures also persist machine-readable JSON
        // (P99s, realized budgets, drop fractions): at the repo root at
        // full scale, under `target/bench/` at smoke scale.
        if let Some(name) = json_name {
            // A figure whose tables carry their own counts (fan-out's
            // widths) records the smallest, its base count.
            let queries = tables
                .iter()
                .filter_map(|t| t.queries_per_phase)
                .min()
                .unwrap_or(figs_tcp::tcp_queries(scale));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn a_mistyped_flag_is_refused() {
        assert!(parse_args(&args(&["--fats", "tcp"])).is_err());
        assert!(parse_args(&args(&["tcp", "--no-csv", "--fast=1"])).is_err());
    }

    #[test]
    fn ids_and_flags_parse_in_any_order() {
        let expected = Args {
            fast: true,
            no_csv: true,
            figs: args(&["tcp", "fig3"]),
        };
        for words in [
            ["--fast", "--no-csv", "tcp", "fig3"],
            ["tcp", "--fast", "fig3", "--no-csv"],
            ["tcp", "fig3", "--no-csv", "--fast"],
        ] {
            assert_eq!(parse_args(&args(&words)).as_ref(), Ok(&expected));
        }
        let plain = parse_args(&args(&["all"])).unwrap();
        assert!(!plain.fast && !plain.no_csv);
        assert_eq!(plain.figs, args(&["all"]));
    }
}
