//! The repo's one benchmark: four workloads against the real serving
//! stack (in-process servers over loopback TCP), every reply checked,
//! end-to-end and per-layer numbers taken from outside the program.
//! See `README.md` beside this package.

mod compare;
mod gen;
mod json;
mod layers;
mod measure;
mod rng;
mod run;
mod stats;
mod sut;
mod trace;
mod workload;

use json::Json;
use run::{run_workload, Options};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use workload::Kind;

/// Counts allocation events (not bytes) for `allocs_per_req`. Local to
/// this binary: client and servers both live in this process, so the
/// count covers both.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter increment, which allocates nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        measure::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        measure::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        measure::ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as above; `ptr` came from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Length of the measured part when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 22.0;
const WARMUP_SECONDS: f64 = 1.5;
const SETUP_REPS: usize = 3;
const SMOKE_SECONDS: f64 = 2.0;
const SMOKE_WARMUP_SECONDS: f64 = 0.5;

const USAGE: &str = "usage:
  benchmark run [--workload <name>|all] [--seed <n>] [--seconds <s>] [--trace [0|1]] [--smoke] [--out <file>]
  benchmark compare <a.json> <b.json>
workloads: kv-death-unhedged kv-death-hedged stripe-hedged hot-closed";

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The commit the numbers belong to, read from `.git` without running
/// git (the driver's checkout has neither).
fn git_sha() -> String {
    let git = package_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// The run's result line must carry exactly the metrics
/// `BENCHMARK.json` lists for its mode; a list that drifted from the
/// code is caught here, not by whoever reads the numbers later.
fn check_against_spec(outcome: &run::Report, trace: bool) -> Result<(), String> {
    let path = package_dir().join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(());
    };
    let spec = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = if trace { "per_layer" } else { "end_to_end" };
    let mut want: Vec<&str> = spec
        .get(list)
        .and_then(Json::as_arr)
        .ok_or(format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .filter_map(|m| m.get("name")?.as_str())
        .collect();
    let metrics = if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let mut got: Vec<&str> = metrics
        .iter()
        .filter(|m| m.value.is_some())
        .map(|m| m.name)
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    if want == got {
        return Ok(());
    }
    let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
    let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
    Err(format!(
        "{}: metrics differ from BENCHMARK.json {list}: missing {missing:?}, not listed {extra:?}",
        outcome.kind.name()
    ))
}

struct RunArgs {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Kind::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let kind = Kind::parse(&name).ok_or(format!("unknown workload {name}"))?;
                    parsed.workloads = vec![kind];
                }
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be between 1 and 600".into());
                }
                parsed.seconds = Some(s);
            }
            // `--trace` alone switches tracing on; the driver spells
            // it `--trace 0` or `--trace 1`.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value("a file name")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        warmup_seconds: if args.smoke {
            SMOKE_WARMUP_SECONDS
        } else {
            WARMUP_SECONDS
        },
        setup_reps: if args.smoke { 1 } else { SETUP_REPS },
        trace: args.trace,
        smoke: args.smoke,
    };
    let out_dir = package_dir().join("out");
    println!(
        "# seed {} | {} s measured after {} s warm-up | servers in-process over loopback, colocated with the client | nproc {}",
        opts.seed,
        opts.seconds,
        opts.warmup_seconds,
        measure::nproc()
    );
    let mut all_good = true;
    let mut spec_check = Ok(());
    let mut workloads = Vec::new();
    let mut lines = Vec::new();
    for &kind in &args.workloads {
        let outcome =
            run_workload(kind, &opts, &out_dir).map_err(|e| format!("{}: {e}", kind.name()))?;
        outcome.print();
        if !opts.smoke {
            spec_check = spec_check.and(check_against_spec(&outcome, opts.trace));
        }
        all_good &= outcome.valid && outcome.correct;
        lines.push(outcome.result_line(opts.trace));
        workloads.push((kind.name(), outcome.to_json()));
    }
    let results = Json::obj([
        ("smoke", Json::Bool(opts.smoke)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("warmup_seconds", Json::Num(opts.warmup_seconds)),
        ("setup_reps", Json::Num(opts.setup_reps as f64)),
        ("traced", Json::Bool(opts.trace)),
        ("nproc", Json::Num(measure::nproc() as f64)),
        ("git_sha", Json::str(git_sha())),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("placement", Json::str("loopback, colocated")),
        ("workloads", Json::obj(workloads)),
    ]);
    let out = args.out.unwrap_or_else(|| {
        out_dir.join(if opts.smoke {
            "smoke.json"
        } else {
            "results.json"
        })
    });
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, results.render_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# wrote {}", out.display());
    spec_check?;
    // One result object per workload; the last line of output is the
    // last workload's (the driver runs one workload at a time).
    for line in lines {
        println!("{line}");
    }
    Ok(all_good)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => compare::compare(
            &package_dir().join("../BENCHMARK.json"),
            Path::new(&rest[0]),
            Path::new(&rest[1]),
        )
        .map(|regressed| !regressed),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
