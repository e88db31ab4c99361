//! From raw samples and counter snapshots to named metrics.

use crate::gen::{Outcome, Sample};
use crate::stats::{mean, median, quantile, reportable};
use crate::sut::{Counters, System};
use crate::workload::{Kind, Plan};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocation events since process start, fed by the counting
/// allocator in `main.rs`.
pub static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// `/proc/self/stat` counts CPU time in these per second; Linux has
/// fixed the user-visible value at 100 on every architecture.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// A named value. `None` means the run could not support the number
/// (too few samples beyond a percentile); it is never printed as 0.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: Some(value),
        unit,
    }
}

/// Names and units of the end-to-end metrics, in printing order. The
/// direction and bound of each are fixed in `BENCHMARK.json`; a test
/// keeps the two lists equal.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("mean_ms", "ms"),
    ("slo_ok_share", "share"),
    ("ok_share", "share"),
    ("sends_per_req", "1/req"),
    ("qps", "1/s"),
    ("allocs_per_req", "1/req"),
];

/// Process CPU time (user + system) so far, in clock ticks.
pub fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted from the
    // parenthesis that closes it. utime and stime are the 14th and
    // 15th fields of the line, the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    tick() + tick()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything read at a segment boundary.
pub struct Snap {
    pub at_ns: u64,
    pub allocs: u64,
    pub cpu_ticks: u64,
    pub counters: Counters,
}

impl Snap {
    pub fn take(system: &System, at_ns: u64) -> Snap {
        Snap {
            at_ns,
            allocs: ALLOCATIONS.load(Ordering::Relaxed),
            cpu_ticks: cpu_ticks(),
            counters: system.counters(),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// What one measured segment saw, counted.
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub wrong: u64,
    pub failed: u64,
    pub refused: u64,
    pub pending: u64,
}

impl Tally {
    pub fn of(samples: &[Sample]) -> Tally {
        let count = |o: Outcome| samples.iter().filter(|s| s.outcome == o).count() as u64;
        Tally {
            attempted: samples.len() as u64,
            ok: count(Outcome::Ok),
            wrong: count(Outcome::Wrong),
            failed: count(Outcome::Failed),
            refused: count(Outcome::Refused),
            pending: count(Outcome::Pending),
        }
    }

    /// Arrivals that did not get the correct reply.
    pub fn not_ok(&self) -> u64 {
        self.attempted - self.ok
    }
}

/// The samples due in `[from.at_ns, to.at_ns)` of an ascending list.
pub fn segment<'a>(samples: &'a [Sample], from: &Snap, to: &Snap) -> &'a [Sample] {
    let lo = samples.partition_point(|s| s.due_ns < from.at_ns);
    let hi = samples.partition_point(|s| s.due_ns < to.at_ns);
    &samples[lo..hi]
}

/// Correct replies per second: the median over whole 1-second windows
/// of the segment, by resolution time.
fn qps(samples: &[Sample], from_ns: u64, to_ns: u64) -> f64 {
    let windows = ((to_ns - from_ns) / 1_000_000_000) as usize;
    if windows == 0 {
        return f64::NAN;
    }
    let mut counts = vec![0.0f64; windows];
    for s in samples.iter().filter(|s| s.outcome == Outcome::Ok) {
        if s.resolved_ns >= from_ns {
            let w = ((s.resolved_ns - from_ns) / 1_000_000_000) as usize;
            if w < windows {
                counts[w] += 1.0;
            }
        }
    }
    median(&mut counts)
}

/// Most slices a latency statistic is taken over.
const MAX_SLICES: u64 = 10;

/// A latency statistic (ms) that one stall of the box cannot set: the
/// segment is cut into up to [`MAX_SLICES`] slices of equal length by
/// due time, `stat` is taken over the ascending latencies of the
/// correct replies of each slice, and the **median over slices** is
/// reported. The number of slices is the largest for which every slice
/// holds `enough` samples; `None` when not even the whole segment does.
fn sliced_ms(
    samples: &[Sample],
    from_ns: u64,
    to_ns: u64,
    enough: impl Fn(usize) -> bool,
    stat: impl Fn(&[u64]) -> f64,
) -> Option<f64> {
    (1..=MAX_SLICES).rev().find_map(|slices| {
        let width = (to_ns - from_ns).div_ceil(slices).max(1);
        let mut per_slice = vec![Vec::new(); slices as usize];
        for s in samples.iter().filter(|s| s.outcome == Outcome::Ok) {
            let slice = (s.due_ns.saturating_sub(from_ns) / width).min(slices - 1);
            per_slice[slice as usize].push(s.latency_ns());
        }
        if !per_slice.iter().all(|lat| enough(lat.len())) {
            return None;
        }
        let mut stats: Vec<f64> = per_slice
            .iter_mut()
            .map(|lat| {
                lat.sort_unstable();
                stat(lat) / 1e6
            })
            .collect();
        Some(median(&mut stats))
    })
}

/// The sliced exact `q`-quantile: every slice has at least ten
/// samples beyond it, or the percentile is not reported.
pub fn sliced_quantile_ms(samples: &[Sample], from_ns: u64, to_ns: u64, q: f64) -> Option<f64> {
    sliced_ms(
        samples,
        from_ns,
        to_ns,
        |n| reportable(n, q),
        |lat| quantile(lat, q) as f64,
    )
}

fn sliced_mean_ms(samples: &[Sample], from_ns: u64, to_ns: u64) -> Option<f64> {
    sliced_ms(
        samples,
        from_ns,
        to_ns,
        |n| n > 0,
        |lat| lat.iter().sum::<u64>() as f64 / lat.len() as f64,
    )
}

fn cpu_util(from: &Snap, to: &Snap) -> f64 {
    let wall_s = (to.at_ns - from.at_ns) as f64 / 1e9;
    let cpu_s = (to.cpu_ticks - from.cpu_ticks) as f64 / CLOCK_TICKS_PER_S;
    cpu_s / (wall_s * nproc() as f64)
}

/// The end-to-end metrics of the segment between two snapshots, in
/// [`END_TO_END`] order.
pub fn end_to_end(
    kind: Kind,
    system: &System,
    samples: &[Sample],
    from: &Snap,
    to: &Snap,
    setup_s: f64,
) -> Vec<Metric> {
    let tally = Tally::of(samples);
    let slo_ns = (kind.slo_ms() * 1e6) as u64;
    let within_slo = samples
        .iter()
        .filter(|s| s.outcome == Outcome::Ok && s.latency_ns() <= slo_ns)
        .count() as u64;
    let queries = to.counters.queries - from.counters.queries;
    let reissues = to.counters.reissues - from.counters.reissues;
    let values = [
        Some(setup_s),
        sliced_mean_ms(samples, from.at_ns, to.at_ns),
        Some(ratio(within_slo, tally.attempted)),
        Some(ratio(tally.ok, tally.attempted)),
        Some(system.commands_per_request as f64 + ratio(reissues, queries)),
        Some(qps(samples, from.at_ns, to.at_ns)).filter(|v| v.is_finite()),
        Some(ratio(to.allocs - from.allocs, tally.attempted)),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// How late the generator called, `q`-quantile in µs, over the requests
/// it dispatched.
pub fn late_us(samples: &[Sample], q: f64) -> f64 {
    let mut late: Vec<u64> = samples
        .iter()
        .filter(|s| s.outcome != Outcome::Refused)
        .map(|s| s.called_ns.saturating_sub(s.due_ns))
        .collect();
    if late.is_empty() {
        return 0.0;
    }
    late.sort_unstable();
    quantile(&late, q) as f64 / 1e3
}

/// What the generator itself saw of one segment: the offered rate,
/// the latency percentiles, the process's CPU share, and how late it
/// ran. These are a user's numbers too, but they do not repeat from
/// run to run within a bound the driver accepts on every workload (see
/// the README), so they are reported here, unbounded.
pub fn from_generator(plan: &Plan, samples: &[Sample], from: &Snap, to: &Snap) -> Vec<Metric> {
    let q = |name, p| Metric {
        name,
        value: sliced_quantile_ms(samples, from.at_ns, to.at_ns, p),
        unit: "ms",
    };
    vec![
        metric("gen.offered_qps", plan.rate_qps, "1/s"),
        q("gen.p50_ms", 0.5),
        q("gen.p99_ms", 0.99),
        q("gen.p999_ms", 0.999),
        metric("gen.cpu_util", cpu_util(from, to), "share"),
        metric("gen.late_us_p50", late_us(samples, 0.5), "us"),
        metric("gen.late_us_p99", late_us(samples, 0.99), "us"),
    ]
}

/// Per-layer numbers that are counters of the running system, read
/// from outside over the whole measured part of the run.
pub fn from_counters(
    kind: Kind,
    system: &System,
    nanos_per_op: u64,
    from: &Snap,
    to: &Snap,
) -> Vec<Metric> {
    let (a, b) = (&from.counters, &to.counters);
    let d = |f: fn(&Counters) -> u64| f(b) - f(a);
    let queries = d(|c| c.queries);
    let reissues = d(|c| c.reissues);
    let pairs = d(|c| c.pairs_exact) + d(|c| c.pairs_censored);
    let by_server: Vec<u64> = b
        .commands_by_server
        .iter()
        .zip(&a.commands_by_server)
        .map(|(b, a)| b - a)
        .collect();
    let commands: u64 = by_server.iter().sum();
    let needed = queries * system.commands_per_request;
    let wall_ns = (to.at_ns - from.at_ns) as f64;
    let burn_ns = d(|c| c.server_cost_units) as f64 * nanos_per_op as f64;
    let busiest = by_server.iter().copied().max().unwrap_or(0);
    let reissue_rate = ratio(reissues, queries);
    let (d_ms, q, correlated) = system.online_policy().unwrap_or((0.0, 0.0, false));
    // One client type or the other ran; the one that did not reports 0.
    let striped = kind == Kind::StripeHedged;
    let pick = |is_striped: bool, v: f64| if striped == is_striped { v } else { 0.0 };
    let win_share = ratio(d(|c| c.reissue_wins), reissues);
    let cancel_share = ratio(d(|c| c.cancelled_in_time), reissues);
    vec![
        metric(
            "hedge.client.reissue_win_share",
            pick(false, win_share),
            "share",
        ),
        metric(
            "hedge.client.cancel_in_time_share",
            pick(false, cancel_share),
            "share",
        ),
        metric(
            "hedge.client.pairs_censored_share",
            pick(false, ratio(d(|c| c.pairs_censored), pairs)),
            "share",
        ),
        metric(
            "hedge.client.errors",
            pick(false, d(|c| c.client_errors) as f64),
            "count",
        ),
        metric(
            "hedge.client.budget_overshoot",
            if kind.budget() > 0.0 {
                reissue_rate / kind.budget()
            } else {
                0.0
            },
            "ratio",
        ),
        metric("hedge.client.reissue_rate", reissue_rate, "1/req"),
        metric("core.online.d_ms", d_ms, "ms"),
        metric("core.online.q", q, "prob"),
        metric(
            "core.online.correlated",
            f64::from(u8::from(correlated)),
            "bool",
        ),
        metric("hedge.server.commands", commands as f64, "count"),
        metric(
            "hedge.server.dup_exec_share",
            ratio(commands.saturating_sub(needed), commands),
            "share",
        ),
        metric(
            "hedge.server.busy_share",
            burn_ns / (wall_ns * system.server_count() as f64),
            "share",
        ),
        metric(
            "hedge.server.imbalance",
            busiest as f64 * by_server.len() as f64 / commands.max(1) as f64,
            "ratio",
        ),
        metric(
            "hedge.server.tie_retractions",
            d(|c| c.tie_retractions) as f64,
            "count",
        ),
        metric(
            "hedge.server.protocol_errors",
            d(|c| c.protocol_errors) as f64,
            "count",
        ),
        metric(
            "erasure.client.reissue_win_share",
            pick(true, win_share),
            "share",
        ),
        metric(
            "erasure.client.parity_decode_share",
            pick(true, ratio(d(|c| c.decodes_with_parity), queries)),
            "share",
        ),
        metric(
            "erasure.client.cancel_in_time_share",
            pick(true, cancel_share),
            "share",
        ),
        metric(
            "erasure.client.errors",
            pick(true, d(|c| c.client_errors) as f64),
            "count",
        ),
    ]
}

/// Per-layer numbers derived from the spans of the traced segment.
/// `untraced` and `traced` are the two segments' headline numbers
/// (P99 ms for the open loop, qps for the closed one) for the
/// overhead.
pub fn from_spans(
    kind: Kind,
    plan: &Plan,
    spans: &[Sample],
    untraced: Option<f64>,
    traced: Option<f64>,
) -> Vec<Metric> {
    let ok: Vec<&Sample> = spans.iter().filter(|s| s.outcome == Outcome::Ok).collect();
    let sorted = |f: &dyn Fn(&Sample) -> u64| {
        let mut v: Vec<u64> = ok.iter().map(|s| f(s)).collect();
        v.sort_unstable();
        v
    };
    let execute = sorted(&|s| s.resolved_ns.saturating_sub(s.called_ns));
    // Self time of `client.execute`: what is left of it once the
    // request's own service is taken out, i.e. queueing behind other
    // requests plus every layer's overhead.
    let wait = sorted(&|s| {
        s.resolved_ns
            .saturating_sub(s.called_ns)
            .saturating_sub(plan.service_ns(s.idx as usize))
    });
    let service_ms: Vec<f64> = ok
        .iter()
        .map(|s| plan.service_ns(s.idx as usize) as f64 / 1e6)
        .collect();
    let q = |v: &[u64], p: f64, per: f64| {
        if v.is_empty() {
            0.0
        } else {
            quantile(v, p) as f64 / per
        }
    };
    let mean_of =
        |v: &[u64], per: f64| mean(&v.iter().map(|&x| x as f64 / per).collect::<Vec<_>>());
    // Worse is higher P99 on the open loop, lower qps on the closed.
    let overhead = match (untraced, traced) {
        (Some(u), Some(t)) if u > 0.0 && kind.open_loop() => t / u - 1.0,
        (Some(u), Some(t)) if u > 0.0 => 1.0 - t / u,
        _ => 0.0,
    };
    vec![
        metric("hedge.client.execute_ms_p50", q(&execute, 0.5, 1e6), "ms"),
        metric("hedge.client.execute_ms_p99", q(&execute, 0.99, 1e6), "ms"),
        metric("hedge.server.service_ms_mean", mean(&service_ms), "ms"),
        metric("hedge.client.wait_ms_mean", mean_of(&wait, 1e6), "ms"),
        metric("hedge.client.wait_ms_p99", q(&wait, 0.99, 1e6), "ms"),
        metric("trace.spans", spans.len() as f64, "count"),
        metric("trace.overhead_share", overhead, "share"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(due_ms: u64, lat_us: u64, outcome: Outcome) -> Sample {
        Sample {
            idx: 0,
            due_ns: due_ms * 1_000_000,
            called_ns: due_ms * 1_000_000 + 50_000,
            resolved_ns: due_ms * 1_000_000 + lat_us * 1_000,
            outcome,
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_and_only_correct_replies_count() {
        let samples = [
            sample(0, 900, Outcome::Ok),
            sample(1, 300, Outcome::Ok),
            sample(2, 100, Outcome::Wrong),
            sample(3, 0, Outcome::Refused),
        ];
        assert_eq!(samples[0].latency_ns(), 900_000);
        let end = 4_000_000;
        assert_eq!(sliced_mean_ms(&samples, 0, end), Some(0.6));
        let t = Tally::of(&samples);
        assert_eq!((t.attempted, t.ok, t.wrong, t.refused), (4, 2, 1, 1));
        assert_eq!(t.not_ok(), 2);
    }

    #[test]
    fn a_sliced_percentile_is_not_set_by_one_stall() {
        // 10 s at 1000/s, 1 ms each; a 300 ms stall in the fourth
        // second delays 3% of all requests.
        let mut samples: Vec<Sample> = (0..10_000).map(|i| sample(i, 1_000, Outcome::Ok)).collect();
        for s in &mut samples[3_100..3_400] {
            s.resolved_ns += 300_000_000;
        }
        let mut whole: Vec<u64> = samples.iter().map(Sample::latency_ns).collect();
        whole.sort_unstable();
        assert!(
            quantile(&whole, 0.99) > 300_000_000,
            "the plain P99 is the stall"
        );
        let end = 10_000_000_000;
        assert_eq!(sliced_quantile_ms(&samples, 0, end, 0.99), Some(1.0));
        // Ten slices of 1000 leave exactly ten beyond P99; P99.9 needs
        // 10 000 per slice, so it falls back to one slice, the whole.
        assert_eq!(sliced_quantile_ms(&samples, 0, end, 0.999), Some(301.0));
        assert_eq!(sliced_quantile_ms(&samples[..9_999], 0, end, 0.999), None);
        // The mean of the median slice is untouched too.
        assert_eq!(sliced_mean_ms(&samples, 0, end), Some(1.0));
        assert_eq!(sliced_mean_ms(&[], 0, end), None);
    }

    #[test]
    fn benchmark_json_lists_the_end_to_end_metrics_of_the_code() {
        use crate::json::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(String, String)> = spec
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let coded: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, coded);
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, Kind::ALL.map(Kind::name));
    }

    #[test]
    fn qps_is_the_median_whole_second() {
        // 3, 1 and 2 correct replies in seconds 0, 1 and 2; a wrong
        // reply and one past the end do not count.
        let mut samples = Vec::new();
        for (sec, n) in [(0u64, 3u64), (1, 1), (2, 2)] {
            for i in 0..n {
                samples.push(sample(sec * 1000 + i, 10, Outcome::Ok));
            }
        }
        samples.push(sample(1500, 10, Outcome::Wrong));
        samples.push(sample(2999, 5_000, Outcome::Ok));
        assert_eq!(qps(&samples, 0, 3_000_000_000), 2.0);
    }

    #[test]
    fn cpu_ticks_reads_this_process() {
        let before = cpu_ticks();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_ticks() > before, "60 ms of spinning is at least a tick");
    }
}
