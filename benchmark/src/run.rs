//! One workload, start to finish: set up (several times, for a steady
//! `setup_s`), warm up, measure, tear down, time the single layers,
//! and say whether the run can be trusted.

use crate::gen::{closed_loop, open_loop, Collected, Outcome, Sample, Shape};
use crate::json::Json;
use crate::layers;
use crate::measure::{
    end_to_end, from_counters, from_generator, from_spans, late_us, segment, Metric, Snap, Tally,
};
use crate::stats::median;
use crate::sut::{Client, System};
use crate::trace;
use crate::workload::{set_up, Kind, Plan, HOT_ISSUERS};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A run whose generator was this late on its median call could not
/// keep its schedule: it measured the box, not the program. The gate
/// is on the median and not on P99 because the box the bounds were
/// fixed on freezes for tens of ms about twice a minute (a bare sleep
/// loop on it, otherwise idle, overshoots by 0.3 to 33 ms at P99), so
/// a P99 gate rejects runs at random. `gen.late_us_p99` is reported.
const MAX_LATE_US_P50: f64 = 1_000.0;
/// An open-loop run above this CPU share has no headroom left: the
/// schedule, not the servers, decides its latencies.
const MAX_OPEN_LOOP_CPU: f64 = 0.85;
/// Room for closed-loop samples, as a request rate no run here nears.
const CLOSED_LOOP_MAX_QPS: f64 = 150_000.0;

pub struct Options {
    pub seed: u64,
    /// Length of the measured part.
    pub seconds: f64,
    pub warmup_seconds: f64,
    /// How many times the set-up runs; `setup_s` is their median.
    pub setup_reps: usize,
    pub trace: bool,
    pub smoke: bool,
}

pub struct Report {
    pub kind: Kind,
    pub valid: bool,
    pub invalid_because: Vec<String>,
    /// No reply differed from the expected one.
    pub correct: bool,
    pub tally: Tally,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

fn drive(
    kind: Kind,
    system: &System,
    plan: &Arc<Plan>,
    shape: &Shape,
    epoch: Instant,
    on_bound: &mut dyn FnMut(usize),
) -> Collected {
    match &system.client {
        Client::Striped(c) => open_loop(c, plan, shape, epoch, on_bound),
        Client::Hedged(c) if kind.open_loop() => open_loop(c, plan, shape, epoch, on_bound),
        Client::Hedged(c) => {
            let seconds = *shape.bounds_ns.last().expect("bound") as f64 / 1e9;
            let capacity = (CLOSED_LOOP_MAX_QPS * seconds) as usize / HOT_ISSUERS;
            closed_loop(c, plan, shape, epoch, HOT_ISSUERS, capacity, on_bound)
        }
    }
}

/// Runs `kind` and reports. `trace_dir` receives
/// `<workload>.trace.jsonl` on a traced run.
pub fn run_workload(kind: Kind, opts: &Options, trace_dir: &Path) -> std::io::Result<Report> {
    let warm = ns(opts.warmup_seconds);
    let end = warm + ns(opts.seconds);
    // A traced run spends the first half untraced: that half feeds the
    // end-to-end numbers and is what the traced half is compared to.
    let full = Shape {
        bounds_ns: if opts.trace {
            vec![warm, warm + ns(opts.seconds) / 2, end]
        } else {
            vec![warm, end]
        },
        trace_last: opts.trace,
    };
    let warm_only = Shape {
        bounds_ns: vec![warm],
        trace_last: false,
    };

    let mut setup_s = Vec::new();
    let mut measured = None;
    for rep in 0..opts.setup_reps {
        let started = Instant::now();
        let (plan, system) = set_up(kind, opts.seed, end)?;
        let plan = Arc::new(plan);
        let shape = if rep + 1 == opts.setup_reps {
            &full
        } else {
            &warm_only
        };
        let mut snaps: Vec<Snap> = Vec::new();
        let epoch = Instant::now();
        let collected = drive(kind, &system, &plan, shape, epoch, &mut |j| {
            if j == 0 {
                setup_s.push(started.elapsed().as_secs_f64());
            }
            snaps.push(Snap::take(&system, shape.bounds_ns[j]));
        });
        if rep + 1 == opts.setup_reps {
            measured = Some((plan, system, snaps, collected));
        } else {
            system.shutdown();
        }
    }
    let (plan, system, snaps, collected) = measured.expect("at least one set-up");
    let setup_s = median(&mut setup_s);

    let first = &snaps[0];
    let last = &snaps[snaps.len() - 1];
    let untraced = segment(&collected.samples, first, &snaps[1]);
    let e2e = end_to_end(kind, &system, untraced, first, &snaps[1], setup_s);
    let all_measured = segment(&collected.samples, first, last);
    let tally = Tally::of(untraced);

    let mut per_layer = from_generator(&plan, untraced, first, &snaps[1]);
    per_layer.extend(from_counters(kind, &system, plan.nanos_per_op, first, last));
    if opts.trace {
        let traced = segment(&collected.samples, &snaps[1], last);
        let spans: Vec<Sample> = collected
            .spans
            .iter()
            .filter(|s| s.due_ns >= snaps[1].at_ns && s.due_ns < last.at_ns)
            .copied()
            .collect();
        // The overhead compares the two halves' headline number.
        let headline = |segment: &[Sample], from: &Snap, to: &Snap| {
            if kind.open_loop() {
                value_of(&from_generator(&plan, segment, from, to), "gen.p99_ms")
            } else {
                value_of(
                    &end_to_end(kind, &system, segment, from, to, setup_s),
                    "qps",
                )
            }
        };
        per_layer.extend(from_spans(
            kind,
            &plan,
            &spans,
            headline(untraced, first, &snaps[1]),
            headline(traced, &snaps[1], last),
        ));
        std::fs::create_dir_all(trace_dir)?;
        let path = trace_dir.join(format!("{}.trace.jsonl", kind.name()));
        trace::write_jsonl(&path, &plan, &spans)?;
    }
    let lat_ms: Vec<f64> = all_measured
        .iter()
        .filter(|s| s.outcome == Outcome::Ok)
        .map(|s| s.latency_ns() as f64 / 1e6)
        .collect();
    system.shutdown();
    if opts.trace && !lat_ms.is_empty() {
        per_layer.extend(layers::isolated(&plan, &lat_ms));
    }

    let all = Tally::of(all_measured);
    let mut invalid_because = Vec::new();
    if all.pending > 0 {
        invalid_because.push(format!(
            "{} of {} arrivals never resolved: arrivals != completed + failed + refused",
            all.pending, all.attempted
        ));
    }
    if collected.resolved_twice > 0 {
        invalid_because.push(format!(
            "{} requests resolved more than once",
            collected.resolved_twice
        ));
    }
    let cpu = value_of(&per_layer, "gen.cpu_util");
    if kind.open_loop() {
        let late_us_p50 = late_us(all_measured, 0.5);
        if late_us_p50 > MAX_LATE_US_P50 {
            invalid_because.push(format!(
                "the generator's median call was {late_us_p50:.0} us late (limit {MAX_LATE_US_P50:.0})"
            ));
        }
        if cpu.is_some_and(|c| c > MAX_OPEN_LOOP_CPU) {
            invalid_because.push(format!(
                "cpu_util {:.2} above {MAX_OPEN_LOOP_CPU} on an open loop",
                cpu.unwrap_or(0.0)
            ));
        }
    }
    if !opts.smoke {
        for m in e2e.iter().filter(|m| m.value.is_none()) {
            invalid_because.push(format!("too few samples to report {}", m.name));
        }
    }
    Ok(Report {
        kind,
        valid: invalid_because.is_empty(),
        invalid_because,
        correct: all.wrong == 0,
        tally,
        end_to_end: e2e,
        per_layer,
    })
}

fn value_of(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics
        .iter()
        .find(|m| m.name == name)
        .and_then(|m| m.value)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().filter_map(|m| {
        let value = m.value?;
        Some((
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        ))
    }))
}

impl Report {
    /// `workload metric value unit`, one line per metric.
    pub fn print(&self) {
        let w = self.kind.name();
        println!("{w} samples {} count", self.tally.ok);
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            match m.value {
                Some(v) => println!("{w} {} {v:.6} {}", m.name, m.unit),
                None => println!(
                    "{w} {} n/a {} (fewer than 10 samples beyond)",
                    m.name, m.unit
                ),
            }
        }
        let t = &self.tally;
        if t.not_ok() > 0 {
            println!(
                "{w} NOT OK: {} of {} arrivals: {} wrong, {} failed, {} refused, {} unresolved",
                t.not_ok(),
                t.attempted,
                t.wrong,
                t.failed,
                t.refused,
                t.pending
            );
        }
        for reason in &self.invalid_because {
            println!("{w} INVALID: {reason}");
        }
        if !self.correct {
            println!(
                "{w} INCORRECT: {} replies differed from the expected",
                self.tally.wrong
            );
        }
    }

    /// The driver's result line: with `trace` the per-layer metrics,
    /// without it the end-to-end ones.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.not_ok() as f64)),
            ("metrics", metrics_json(metrics)),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("valid", Json::Bool(self.valid)),
            (
                "invalid_because",
                Json::Arr(self.invalid_because.iter().map(Json::str).collect()),
            ),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("ok", Json::Num(self.tally.ok as f64)),
            ("wrong", Json::Num(self.tally.wrong as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("refused", Json::Num(self.tally.refused as f64)),
            ("pending", Json::Num(self.tally.pending as f64)),
            ("end_to_end", metrics_json(&self.end_to_end)),
            ("per_layer", metrics_json(&self.per_layer)),
        ])
    }
}
