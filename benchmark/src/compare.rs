//! `benchmark compare <a.json> <b.json>`: is `b` worse than `a` by
//! more than the benchmark allows?
//!
//! The relative bounds and directions come from `BENCHMARK.json`.
//! Beside each there is an absolute floor, because a tenth of a
//! near-zero number is less than the clock can resolve; the allowance
//! is whichever is larger.

use crate::json::Json;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// One side has no such number, or its run was not valid.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "OK",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// The absolute slack below which a difference is not a regression,
/// in the metric's own unit.
pub fn floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.5,
        "mean_ms" => 0.02,
        "slo_ok_share" | "sends_per_req" => 0.002,
        "ok_share" => 0.001,
        "allocs_per_req" => 0.5,
        _ => 0.0,
    }
}

/// How much worse than `base` a value may be: the relative bound or
/// the floor, whichever is larger.
pub fn allowance(base: f64, bound: f64, floor: f64) -> f64 {
    (bound * base.abs()).max(floor)
}

pub fn judge(
    a: Option<f64>,
    b: Option<f64>,
    higher_is_better: bool,
    bound: f64,
    floor: f64,
) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Unresolved;
    };
    let worse_by = if higher_is_better { a - b } else { b - a };
    if worse_by > allowance(a, bound, floor) {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Why two result files cannot be compared, if they cannot: a smoke
/// run's numbers are not results, and runs of different inputs, window
/// or core count do not measure the same thing.
fn refusal(a: &Json, b: &Json) -> Option<String> {
    for (side, name) in [(a, "first"), (b, "second")] {
        if side.get("smoke").and_then(Json::as_bool) != Some(false) {
            return Some(format!(
                "the {name} file is a smoke run (or not a result file): its numbers are not results"
            ));
        }
    }
    ["seed", "seconds", "warmup_seconds", "nproc"]
        .into_iter()
        .find_map(|key| {
            let (va, vb) = (a.get(key), b.get(key));
            (va.is_none() || va != vb)
                .then(|| format!("the files differ in {key}: {va:?} vs {vb:?}"))
        })
}

/// Prints one row per (workload, metric) and returns whether any
/// regressed.
pub fn compare(benchmark_json: &Path, a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let spec = load(benchmark_json)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    if let Some(why) = refusal(&a, &b) {
        return Err(why);
    }
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads_of = |side: &Json| {
        side.get("workloads")
            .and_then(Json::as_obj)
            .map(<[_]>::to_vec)
            .unwrap_or_default()
    };
    let mut regressed = false;
    println!(
        "{:<18} {:<15} {:>12} {:>12} {:>8} {:>10}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "allowed"
    );
    for (workload, wa) in workloads_of(&a) {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(&workload)) else {
            println!("{workload:<18} only in {}", a_path.display());
            continue;
        };
        let valid = |w: &Json| w.get("valid").and_then(Json::as_bool) == Some(true);
        let value = |w: &Json, name: &str| w.get("end_to_end")?.get(name)?.get("value")?.as_f64();
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = (value(&wa, name), value(wb, name));
            let verdict = if valid(&wa) && valid(wb) {
                judge(va, vb, higher, bound, floor(name))
            } else {
                Verdict::Unresolved
            };
            regressed |= verdict == Verdict::Regressed;
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
            let ratio = match (va, vb) {
                (Some(a), Some(b)) if a != 0.0 => format!("{:.3}", b / a),
                _ => "-".into(),
            };
            let allowed = va.map(|a| allowance(a, bound, floor(name)));
            println!(
                "{workload:<18} {name:<15} {:>12} {:>12} {ratio:>8} {:>10}  {}",
                show(va),
                show(vb),
                show(allowed),
                verdict.name()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_applies_in_the_direction_that_is_worse() {
        // Lower is better: 10% over the base passes, more does not.
        assert_eq!(judge(Some(10.0), Some(10.99), false, 0.1, 0.0), Verdict::Ok);
        assert_eq!(
            judge(Some(10.0), Some(11.01), false, 0.1, 0.0),
            Verdict::Regressed
        );
        assert_eq!(judge(Some(10.0), Some(1.0), false, 0.1, 0.0), Verdict::Ok);
        // Higher is better: the same, mirrored.
        assert_eq!(
            judge(Some(1000.0), Some(901.0), true, 0.1, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            judge(Some(1000.0), Some(899.0), true, 0.1, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Some(1000.0), Some(5000.0), true, 0.1, 0.0),
            Verdict::Ok
        );
    }

    #[test]
    fn floor_wins_where_a_tenth_is_too_small_to_measure() {
        // A tenth of 0.08 ms is 0.008 ms; the 0.02 ms floor allows more.
        let f = floor("mean_ms");
        assert_eq!(allowance(0.08, 0.1, f), 0.02);
        assert_eq!(judge(Some(0.08), Some(0.099), false, 0.1, f), Verdict::Ok);
        assert_eq!(
            judge(Some(0.08), Some(0.101), false, 0.1, f),
            Verdict::Regressed
        );
        // At 68 ms the tenth is the larger and the floor does nothing.
        assert!((allowance(68.0, 0.1, f) - 6.8).abs() < 1e-12);
        // Shares near 1 are held by the floor alone when the bound is 0.
        assert_eq!(
            judge(Some(1.0), Some(0.9995), true, 0.0, floor("ok_share")),
            Verdict::Ok
        );
        assert_eq!(
            judge(Some(1.0), Some(0.998), true, 0.0, floor("ok_share")),
            Verdict::Regressed
        );
        assert_eq!(floor("qps"), 0.0);
    }

    #[test]
    fn smoke_files_and_different_runs_are_refused() {
        let file = |smoke: bool, seed: f64, seconds: f64| {
            Json::obj([
                ("smoke", Json::Bool(smoke)),
                ("seed", Json::Num(seed)),
                ("seconds", Json::Num(seconds)),
                ("warmup_seconds", Json::Num(1.5)),
                ("nproc", Json::Num(2.0)),
            ])
        };
        assert_eq!(
            refusal(&file(false, 1.0, 25.0), &file(false, 1.0, 25.0)),
            None
        );
        assert!(refusal(&file(true, 1.0, 25.0), &file(false, 1.0, 25.0))
            .unwrap()
            .contains("smoke"));
        assert!(refusal(&file(false, 1.0, 25.0), &file(true, 1.0, 25.0)).is_some());
        assert!(refusal(&file(false, 1.0, 25.0), &file(false, 2.0, 25.0))
            .unwrap()
            .contains("seed"));
        assert!(refusal(&file(false, 1.0, 25.0), &file(false, 1.0, 2.0))
            .unwrap()
            .contains("seconds"));
        assert!(refusal(&Json::obj([("x", Json::Null)]), &file(false, 1.0, 25.0)).is_some());
    }

    #[test]
    fn a_missing_number_is_unresolved_not_unchanged() {
        assert_eq!(judge(None, Some(1.0), false, 0.1, 0.0), Verdict::Unresolved);
        assert_eq!(judge(Some(1.0), None, false, 0.1, 0.0), Verdict::Unresolved);
    }
}
