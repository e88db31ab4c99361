//! Reissue-budget selection (§4.4): expanding/halving search for the
//! latency-optimal budget, and SLA-constrained budget minimization.
//!
//! Tail latency as a function of the reissue budget is typically
//! bowl-shaped ("a parabola", §4.4): small budgets leave latency on the
//! table, large budgets add enough load to hurt. The paper's procedure
//! walks the budget with a step `δ` that *grows* (`δ ← 3δ/2`) while the
//! latency keeps improving and *halves and reverses* (`δ ← −δ/2`) when
//! it regresses — an expanding binary search that homes in on the
//! extremum with few (expensive) system evaluations.

/// One probe of the budget search (Figure 8 plots these).
#[derive(Clone, Copy, Debug)]
pub struct BudgetTrial {
    /// Budget evaluated in this trial.
    pub budget: f64,
    /// Tail latency measured at that budget.
    pub latency: f64,
    /// Best budget known after this trial.
    pub best_budget: f64,
    /// Best latency known after this trial.
    pub best_latency: f64,
}

/// Result of a budget search.
#[derive(Clone, Debug)]
pub struct BudgetSearchResult {
    /// The best budget found.
    pub best_budget: f64,
    /// The tail latency at `best_budget`.
    pub best_latency: f64,
    /// Every probe, in order.
    pub trials: Vec<BudgetTrial>,
}

/// Finds the reissue budget minimizing tail latency, using the paper's
/// §4.4 procedure.
///
/// `eval(budget)` must run the system (typically: adapt a SingleR
/// policy at that budget, §4.3) and return the achieved tail latency.
/// The search starts at budget 0 with step `initial_delta` (the paper
/// uses 1%), probes `best + δ`, and updates `δ ← 3δ/2` on improvement
/// or `δ ← −δ/2` on regression. Budgets are clamped to `[0, max_budget]`.
///
/// # Panics
/// Panics if `initial_delta ≤ 0`, `max_budget ≤ 0` or `trials == 0`.
pub fn optimize_budget(
    mut eval: impl FnMut(f64) -> f64,
    initial_delta: f64,
    max_budget: f64,
    trials: usize,
) -> BudgetSearchResult {
    assert!(initial_delta > 0.0, "initial_delta must be positive");
    assert!(max_budget > 0.0, "max_budget must be positive");
    assert!(trials > 0, "need at least one trial");

    let mut best_budget = 0.0f64;
    let mut best_latency = eval(0.0);
    let mut delta = initial_delta;
    let mut log = vec![BudgetTrial {
        budget: 0.0,
        latency: best_latency,
        best_budget,
        best_latency,
    }];

    for _ in 1..trials {
        let candidate = (best_budget + delta).clamp(0.0, max_budget);
        let latency = eval(candidate);
        if latency < best_latency {
            best_budget = candidate;
            best_latency = latency;
            delta *= 1.5;
        } else {
            delta = -delta / 2.0;
        }
        log.push(BudgetTrial {
            budget: candidate,
            latency,
            best_budget,
            best_latency,
        });
        if delta.abs() < 1e-4 {
            break; // step has collapsed; further probes are noise
        }
    }

    BudgetSearchResult {
        best_budget,
        best_latency,
        trials: log,
    }
}

/// Minimizes the reissue budget subject to a tail-latency SLA
/// (`latency ≤ target`), per §4.4's "meeting tail-latency with minimal
/// resources": sweeps budgets upward from 0 in increments of `step` and
/// returns the first meeting the SLA, exactly what §4.4 describes as "a
/// brute force search, starting at small reissue rates".
/// `O(max_budget / step)` evaluations worst case; `None` if no budget
/// up to `max_budget` meets the SLA.
pub fn minimize_budget_for_sla_sweep(
    mut eval: impl FnMut(f64) -> f64,
    target: f64,
    step: f64,
    max_budget: f64,
) -> Option<(f64, f64)> {
    assert!(step > 0.0 && max_budget > 0.0);
    let mut b = 0.0;
    while b <= max_budget + 1e-12 {
        let latency = eval(b);
        if latency <= target {
            return Some((b, latency));
        }
        b += step;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth bowl with minimum at 8% budget.
    fn bowl(b: f64) -> f64 {
        100.0 + 4000.0 * (b - 0.08) * (b - 0.08)
    }

    #[test]
    fn finds_bowl_minimum() {
        let r = optimize_budget(bowl, 0.01, 0.5, 20);
        assert!(
            (r.best_budget - 0.08).abs() < 0.02,
            "best={}",
            r.best_budget
        );
        assert!(r.best_latency <= bowl(0.0));
        // The trial log starts at budget 0.
        assert_eq!(r.trials[0].budget, 0.0);
    }

    #[test]
    fn monotone_decreasing_pushes_to_cap() {
        // If more budget always helps, the search should drift upward.
        let r = optimize_budget(|b| 100.0 - 50.0 * b, 0.01, 0.2, 25);
        assert!(r.best_budget > 0.1, "best={}", r.best_budget);
    }

    #[test]
    fn monotone_increasing_stays_at_zero() {
        // If any reissue hurts (overload), best stays 0.
        let r = optimize_budget(|b| 100.0 + 500.0 * b, 0.01, 0.5, 15);
        assert_eq!(r.best_budget, 0.0);
        assert_eq!(r.best_latency, 100.0);
    }

    #[test]
    fn trials_are_recorded_and_best_is_prefix_min() {
        let r = optimize_budget(bowl, 0.01, 0.5, 12);
        let mut best = f64::INFINITY;
        for t in &r.trials {
            best = best.min(t.latency);
            assert!((t.best_latency - best).abs() < 1e-12);
        }
    }

    #[test]
    fn budget_never_leaves_bounds() {
        let r = optimize_budget(bowl, 0.05, 0.1, 30);
        for t in &r.trials {
            assert!((0.0..=0.1).contains(&t.budget), "budget={}", t.budget);
        }
    }

    #[test]
    fn sla_minimization_finds_small_budget() {
        // Latency 200 at b=0 dropping linearly; SLA 150 needs b ≥ 0.05.
        let eval = |b: f64| (200.0 - 1000.0 * b).max(50.0);
        let (b, l) = minimize_budget_for_sla_sweep(eval, 150.0, 0.01, 0.5).unwrap();
        assert!(l <= 150.0);
        assert!((b - 0.05).abs() < 0.011, "b={b}");
    }

    #[test]
    fn sla_unreachable_returns_none() {
        let eval = |_b: f64| 500.0;
        assert!(minimize_budget_for_sla_sweep(eval, 100.0, 0.05, 0.3).is_none());
    }

    #[test]
    #[should_panic(expected = "initial_delta")]
    fn bad_delta_panics() {
        let _ = optimize_budget(|_| 1.0, 0.0, 0.5, 5);
    }
}
