//! `ComputeOptimalSingleR` — the paper's data-driven parameter search
//! (Figure 1), in both the independent (§4.1) and correlation-aware
//! (§4.2) variants.
//!
//! Given response-time logs, the optimizer finds the SingleR policy
//! `(d, q)` minimizing the `k`-th percentile tail latency subject to a
//! reissue budget `B`. The search sweeps candidate reissue delays `d`
//! upward through the primary samples while the achievable tail latency
//! `t` sweeps downward — a two-pointer scan whose CDF evaluations are
//! all monotone, so finger cursors make the whole search
//! `Θ(N + sort(N))` (independent) or `Θ(N log N)` (correlated, via a
//! Fenwick sweep over reissue-time ranks).
//!
//! [`predict_latency`], the §4.3 loop's predictor for a *given* `(d,
//! q)`, walks `t` down the same way. All three estimators evaluate one
//! success rate, `Pr(X < t) + q · Pr(X ≥ t) · Pr(Y < t−d | X > t)`, and
//! one budget rule, `q = min(1, B / Pr(X ≥ d))`.

use crate::ecdf::strict_cdf;
use rangequery::{FenwickTree, FingerCursor};

/// The result of `ComputeOptimalSingleR`: the optimal SingleR policy
/// parameters along with the optimizer's own view of the policy.
#[derive(Clone, Copy, Debug)]
pub struct OptimalSingleR {
    /// Optimal reissue delay `d*`.
    pub delay: f64,
    /// Optimal reissue probability `q = min(1, B / Pr(X ≥ d*))`.
    ///
    /// Note: Figure 1 line 13 of the paper prints `q ← 1 −
    /// DiscreteCDF(RX, d*)`, i.e. `Pr(X ≥ d*)` — the *outstanding
    /// fraction*, not a probability satisfying the budget Equation (4).
    /// That line is a typo (the budget equation and
    /// `SingleRSuccessRate` line 18 both use `B / Pr(X > d)`); we return
    /// the Equation-(4) value.
    pub probability: f64,
    /// Fraction of primary requests still outstanding at `d*`
    /// (`Pr(X ≥ d*)`) — the quantity plotted in Figure 3c.
    pub outstanding_at_delay: f64,
    /// The predicted `k`-th percentile tail latency under the policy.
    pub predicted_latency: f64,
    /// Expected reissue rate `q · Pr(X ≥ d*)`, always ≤ the requested
    /// budget (up to floating-point rounding).
    pub budget_used: f64,
    /// The predicted success rate at `predicted_latency` (≥ `k` unless
    /// the budget is too small to reach `k` at all).
    pub predicted_success: f64,
}

impl OptimalSingleR {
    /// The policy as a [`crate::policy::ReissuePolicy`].
    pub fn policy(&self) -> crate::policy::ReissuePolicy {
        crate::policy::ReissuePolicy::single_r(self.delay, self.probability)
    }
}

/// The budget rule `q = min(1, B / Pr(X ≥ d))`: the reissue
/// probability that spends the budget `B` at a delay where a fraction
/// `outstanding = Pr(X ≥ d)` of primaries is still out. No budget never
/// reissues; a delay nothing reaches may reissue every query.
pub(crate) fn reissue_probability(budget: f64, outstanding: f64) -> f64 {
    if budget <= 0.0 {
        0.0
    } else if outstanding > 0.0 {
        (budget / outstanding).min(1.0)
    } else {
        1.0
    }
}

fn validate_inputs(rx: &[f64], k: f64, budget: f64) {
    assert!(!rx.is_empty(), "need at least one primary sample");
    assert!((0.0..1.0).contains(&k), "percentile k must be in [0,1)");
    assert!(
        (0.0..=1.0).contains(&budget),
        "budget must be in [0,1], got {budget}"
    );
    assert!(rx.iter().all(|v| v.is_finite()), "samples must be finite");
}

/// `ComputeOptimalSingleR(RX, RY, k, B)` — Figure 1 of the paper.
///
/// * `rx` — response-time samples of primary requests;
/// * `ry` — response-time samples of reissue requests (measured from the
///   reissue dispatch); pass `rx` again if reissues behave identically;
/// * `k`  — target percentile in `[0, 1)`, e.g. `0.99`;
/// * `budget` — maximum expected reissue rate `B ∈ [0, 1]`.
///
/// Returns the optimal `(d*, q)` and the predicted tail latency. The
/// primary/reissue response times are treated as independent; see
/// [`compute_optimal_single_r_correlated`] for the §4.2 variant.
///
/// Runs in `Θ(N + sort(N))`: both sweeps are monotone, so every
/// `DiscreteCDF` evaluation is a finger-cursor step.
///
/// # Panics
/// Panics on empty/non-finite samples or out-of-range `k`/`budget`.
pub fn compute_optimal_single_r(rx: &[f64], ry: &[f64], k: f64, budget: f64) -> OptimalSingleR {
    validate_inputs(rx, k, budget);
    assert!(!ry.is_empty(), "need at least one reissue sample");
    assert!(ry.iter().all(|v| v.is_finite()), "samples must be finite");
    let ys = sorted(ry);
    sweep(
        &sorted(rx),
        k,
        budget,
        ReissueCdf::Marginal(FingerCursor::new(&ys)),
    )
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The search both optimizer variants share (Figure 1, lines 1–13)
/// over the sorted primaries `xs`: sweep the delay `d` upward while the
/// tail latency `t` sweeps downward as long as the success rate stays
/// above `k`, then report the policy at the final `(d*, t)`. The
/// variants differ only in `reissue`, whose cursors rely on `t` never
/// rising and `d` never falling during the sweep.
fn sweep(xs: &[f64], k: f64, budget: f64, mut reissue: ReissueCdf) -> OptimalSingleR {
    let mut cx_t = FingerCursor::new(xs); // Pr(X < t): t non-increasing
    let mut cx_d = FingerCursor::new(xs); // Pr(X < d): d non-decreasing

    // SingleRSuccessRate (Figure 1, lines 15–20), with q clamped to 1:
    // for d beyond the B-quantile the un-clamped q = B/Pr(X ≥ d) exceeds
    // 1, which would credit the policy with more reissues than exist.
    let mut success = |t: f64, d: f64| {
        let q = reissue_probability(budget, 1.0 - cx_d.cdf(d));
        reissue.success(cx_t.cdf(t), q, t, d)
    };

    let n = xs.len();
    // Lines 1–3: trivial starting policy.
    let mut lo = 0usize; // index of min{Q}
    let mut hi = n - 1; // index of max{Q} / current t
    let mut d_star = xs[0];
    let mut t = xs[n - 1];

    // Lines 4–12: sweep d upward, shrinking t while the success rate
    // stays above k.
    while lo <= hi {
        let d = xs[lo];
        lo += 1;
        if d > t {
            break;
        }
        let mut alpha = success(t, d);
        while alpha > k && t > d && hi > 0 {
            hi -= 1;
            t = xs[hi];
            d_star = d;
            alpha = success(t, d);
        }
        if lo > hi {
            break;
        }
    }

    // Line 13 and the returned record.
    let outstanding = 1.0 - strict_cdf(xs, d_star);
    let probability = reissue_probability(budget, outstanding);
    OptimalSingleR {
        delay: d_star,
        probability,
        outstanding_at_delay: outstanding,
        predicted_latency: t,
        budget_used: probability * outstanding,
        predicted_success: success(t, d_star),
    }
}

/// The reissue term of Figure 1's success rate, `Pr(Y < t − d | X > t)`,
/// for `t` and `t − d` that never rise from one call to the next.
enum ReissueCdf<'a> {
    /// Reissues independent of their primary (§4.1): the marginal
    /// `Pr(Y < t − d)` over the sorted reissue samples.
    Marginal(FingerCursor<'a>),
    /// Joint `(primary, reissue)` samples (§4.2). As `t` falls, each
    /// pair enters a Fenwick tree over reissue-time ranks once its
    /// primary exceeds `t`, so the conditional is a prefix sum over the
    /// pairs entered so far: `Θ(N log N)` over a whole sweep.
    Joint {
        /// The pairs by primary time, descending.
        by_x: Vec<(f64, f64)>,
        /// The reissue times, ascending: the tree's rank space.
        ys: Vec<f64>,
        tree: FenwickTree,
        /// `by_x[..entered]` are in the tree: the pairs with `x > t`.
        entered: usize,
    },
}

impl ReissueCdf<'_> {
    fn joint(pairs: &[(f64, f64)]) -> Self {
        let mut by_x = pairs.to_vec();
        by_x.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        ys.sort_by(f64::total_cmp);
        ReissueCdf::Joint {
            tree: FenwickTree::new(ys.len()),
            by_x,
            ys,
            entered: 0,
        }
    }

    /// `Pr(Y < t − d | X > t)`, or 0 when no pair has `x > t`: a reissue
    /// cannot be credited with helping a tail no sample reaches.
    fn cdf(&mut self, t: f64, d: f64) -> f64 {
        match self {
            ReissueCdf::Marginal(ys) => ys.cdf(t - d),
            ReissueCdf::Joint {
                by_x,
                ys,
                tree,
                entered,
            } => {
                while *entered < by_x.len() && by_x[*entered].0 > t {
                    let y = by_x[*entered].1;
                    tree.add(ys.partition_point(|&v| v < y), 1);
                    *entered += 1;
                }
                if *entered == 0 {
                    return 0.0;
                }
                let below = ys.partition_point(|&y| y < t - d);
                tree.prefix_sum(below) as f64 / *entered as f64
            }
        }
    }

    /// Figure 1's `SingleRSuccessRate` (lines 15–20): a query meets `t`
    /// when its primary does (`p_x_lt_t = Pr(X < t)`), or when the coin
    /// `q` sends a reissue at `d` that does.
    fn success(&mut self, p_x_lt_t: f64, q: f64, t: f64, d: f64) -> f64 {
        p_x_lt_t + q * (1.0 - p_x_lt_t) * self.cdf(t, d)
    }
}

/// The correlation-aware `ComputeOptimalSingleR` of §4.2.
///
/// Takes the marginal primary samples `rx` plus joint samples `pairs =
/// (tx, ty)` — the response times of a query's primary and reissue
/// requests — and replaces `Pr(Y < t−d)` with the conditional
/// `Pr(Y < t−d | X > t)` in the success-rate computation, so positively
/// correlated slowness (slow primaries predict slow reissues) is priced
/// into the policy.
///
/// As `t` sweeps downward the active set `{i : txᵢ > t}` only grows, so
/// the pairs enter a Fenwick tree over reissue-time ranks as their
/// primaries cross `t`; each conditional CDF evaluation is then a prefix
/// sum. Total `Θ(N log N)`, the paper's bound for the 2-D range-query
/// formulation.
///
/// When no pair has `tx > t` the conditional is undefined; the success
/// term then falls back to 0 (a reissue cannot be credited with helping
/// a tail no sample reaches).
///
/// # Panics
/// Panics on empty/non-finite inputs or out-of-range `k`/`budget`.
pub fn compute_optimal_single_r_correlated(
    rx: &[f64],
    pairs: &[(f64, f64)],
    k: f64,
    budget: f64,
) -> OptimalSingleR {
    validate_inputs(rx, k, budget);
    assert!(
        !pairs.is_empty(),
        "need at least one (primary, reissue) pair"
    );
    assert!(
        pairs.iter().all(|p| p.0.is_finite() && p.1.is_finite()),
        "pairs must be finite"
    );
    sweep(&sorted(rx), k, budget, ReissueCdf::joint(pairs))
}

/// Predicts the `k`-th percentile tail latency of a *given* SingleR
/// policy `(d, q)` against observed response-time data: the smallest
/// sample value `t` whose success rate
///
/// ```text
/// α(t) = Pr(X < t) + q · Pr(X ≥ t) · Pr(Y < t−d | X > t)
/// ```
///
/// reaches `k`. The conditional term uses the joint `pairs` through the
/// optimizer's own Fenwick sweep (falling back to the marginal of `rx`
/// when fewer than two pairs exist). This is the apples-to-apples
/// predictor the adaptive loop compares against the next trial's
/// observation — unlike [`compute_optimal_single_r`]'s output, which
/// predicts the *optimizer's* policy rather than the λ-blended one
/// actually run.
///
/// `O(N log N)`.
///
/// # Panics
/// Panics on empty `rx`, non-finite samples or `q ∉ [0, 1]`.
pub fn predict_latency(rx: &[f64], pairs: &[(f64, f64)], k: f64, d: f64, q: f64) -> f64 {
    assert!(!rx.is_empty(), "need at least one primary sample");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
    assert!((0.0..1.0).contains(&k), "percentile k must be in [0,1)");
    let xs = sorted(rx);
    let mut reissue = if pairs.len() >= 2 {
        ReissueCdf::joint(pairs)
    } else {
        ReissueCdf::Marginal(FingerCursor::new(&xs))
    };
    // The sweep needs `t` falling: walk down from the largest sample and
    // keep the smallest `t` whose success rate reaches `k`. The rank
    // `i / n` is the strict Pr(X < t) at the first of a run of ties.
    let n = xs.len() as f64;
    let mut t_k = xs[xs.len() - 1];
    for (i, &t) in xs.iter().enumerate().rev() {
        if reissue.success(i as f64 / n, q, t, d) >= k {
            t_k = t;
        }
    }
    t_k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecdf::Ecdf;
    use crate::model::{expected_budget, policy_quantile, success_probability};
    use crate::policy::ReissuePolicy;
    use distributions::rng::seeded;
    use distributions::{CorrelatedPair, Dist, Exponential, Pareto, Sample};
    use proptest::prelude::*;
    use rand::Rng;

    fn exp_samples(n: usize, rate: f64, seed: u64) -> Vec<f64> {
        let mut rng = seeded(seed);
        Exponential::new(rate).sample_n(&mut rng, n)
    }

    #[test]
    fn reissue_probability_edges() {
        assert_eq!(reissue_probability(0.0, 0.5), 0.0, "no budget, no reissue");
        assert_eq!(reissue_probability(0.0, 0.0), 0.0, "no budget, no reissue");
        assert_eq!(reissue_probability(0.1, 0.0), 1.0, "nothing outstanding");
        assert_eq!(reissue_probability(0.3, 0.2), 1.0, "clamped at 1");
        assert_eq!(reissue_probability(0.1, 0.5), 0.2);
    }

    #[test]
    fn budget_is_respected() {
        let rx = exp_samples(20_000, 1.0, 1);
        let ry = exp_samples(20_000, 1.0, 2);
        for budget in [0.005, 0.02, 0.05, 0.2, 0.5] {
            let r = compute_optimal_single_r(&rx, &ry, 0.95, budget);
            assert!(
                r.budget_used <= budget + 1e-9,
                "budget={budget} used={}",
                r.budget_used
            );
            assert!((0.0..=1.0).contains(&r.probability));
        }
    }

    #[test]
    fn zero_budget_degenerates_to_no_reissue() {
        let rx = exp_samples(5_000, 1.0, 3);
        let ry = rx.clone();
        let r = compute_optimal_single_r(&rx, &ry, 0.95, 0.0);
        assert_eq!(r.probability, 0.0);
        assert_eq!(r.budget_used, 0.0);
        // Predicted latency should be (about) the no-reissue P95.
        let e = Ecdf::new(rx.clone());
        assert!(
            (r.predicted_latency - e.quantile(0.95)).abs() <= e.quantile(0.96) - e.quantile(0.94),
            "predicted={} p95={}",
            r.predicted_latency,
            e.quantile(0.95)
        );
    }

    #[test]
    fn full_budget_reissues_immediately() {
        // With B = 1 the optimizer can afford q = 1 at d = min, i.e.
        // hedge every request immediately — the known optimum for iid
        // exponential tails.
        let rx = exp_samples(10_000, 1.0, 4);
        let ry = exp_samples(10_000, 1.0, 5);
        let r = compute_optimal_single_r(&rx, &ry, 0.95, 1.0);
        let e = Ecdf::new(rx.clone());
        assert!(r.delay <= e.quantile(0.05), "delay={}", r.delay);
        assert!(r.probability > 0.95);
        assert!(r.predicted_latency < e.quantile(0.95) * 0.7);
    }

    #[test]
    fn predicted_latency_is_achievable() {
        // Check the optimizer's predicted latency against the analytic
        // model evaluated at the returned policy.
        let rx = exp_samples(40_000, 1.0, 6);
        let ry = exp_samples(40_000, 1.0, 7);
        let k = 0.95;
        for budget in [0.02, 0.05, 0.1, 0.3] {
            let r = compute_optimal_single_r(&rx, &ry, k, budget);
            let x = Exponential::new(1.0);
            let y = Exponential::new(1.0);
            let model_t = policy_quantile(&r.policy(), &x, &y, k, x.quantile(0.9999), 1e-6);
            let rel = (r.predicted_latency - model_t).abs() / model_t;
            assert!(
                rel < 0.1,
                "budget={budget}: predicted={} model={model_t}",
                r.predicted_latency
            );
        }
    }

    #[test]
    fn beats_or_matches_single_d_at_equal_budget() {
        // SingleD with budget B must reissue at the (1-B) quantile.
        let rx = exp_samples(30_000, 1.0, 8);
        let ry = exp_samples(30_000, 1.0, 9);
        let k = 0.95;
        let x = Exponential::new(1.0);
        let y = Exponential::new(1.0);
        for budget in [0.02, 0.05, 0.1, 0.2] {
            let r = compute_optimal_single_r(&rx, &ry, k, budget);
            let e = Ecdf::new(rx.clone());
            let d_single_d = e.quantile(1.0 - budget);
            let single_d = ReissuePolicy::single_d(d_single_d);
            let t_d = policy_quantile(&single_d, &x, &y, k, x.quantile(0.9999), 1e-6);
            let t_r = policy_quantile(&r.policy(), &x, &y, k, x.quantile(0.9999), 1e-6);
            assert!(
                t_r <= t_d * 1.02,
                "budget={budget}: SingleR {t_r} worse than SingleD {t_d}"
            );
        }
    }

    #[test]
    fn matches_grid_search_optimum() {
        let x = Pareto::paper_default();
        let y = Pareto::paper_default();
        let mut rng = seeded(10);
        let rx = x.sample_n(&mut rng, 30_000);
        let ry = y.sample_n(&mut rng, 30_000);
        let k = 0.95;
        let budget = 0.1;
        let r = compute_optimal_single_r(&rx, &ry, k, budget);
        let (_, t_grid) =
            crate::model::optimal_single_r_grid(&x, &y, k, budget, x.quantile(0.99), 200);
        let t_opt = policy_quantile(&r.policy(), &x, &y, k, x.quantile(0.99999), 1e-4);
        assert!(t_opt <= t_grid * 1.1, "optimizer {t_opt} vs grid {t_grid}");
    }

    #[test]
    fn single_sample_inputs() {
        let r = compute_optimal_single_r(&[5.0], &[3.0], 0.5, 0.5);
        assert_eq!(r.delay, 5.0);
        assert!(r.predicted_latency >= 5.0);
    }

    #[test]
    fn identical_samples() {
        let rx = vec![7.0; 100];
        let r = compute_optimal_single_r(&rx, &rx, 0.95, 0.1);
        assert_eq!(r.delay, 7.0);
        assert_eq!(r.predicted_latency, 7.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_rx_panics() {
        let _ = compute_optimal_single_r(&[], &[1.0], 0.95, 0.1);
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn bad_budget_panics() {
        let _ = compute_optimal_single_r(&[1.0], &[1.0], 0.95, 1.5);
    }

    #[test]
    fn correlated_penalizes_correlation() {
        // With strong positive correlation the conditional Pr(Y|X>t) in
        // the tail is worse than the marginal, so the optimizer should
        // reissue earlier (smaller d) than the independent variant, as
        // the paper observes in Figure 3c.
        let base = Pareto::paper_default();
        let gen = CorrelatedPair::new(base, 0.9);
        let mut rng = seeded(11);
        let pairs: Vec<(f64, f64)> = (0..30_000).map(|_| gen.sample_pair(&mut rng)).collect();
        let rx: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ry: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let k = 0.95;
        let budget = 0.1;
        let ind = compute_optimal_single_r(&rx, &ry, k, budget);
        let cor = compute_optimal_single_r_correlated(&rx, &pairs, k, budget);
        assert!(
            cor.delay <= ind.delay,
            "correlated d={} independent d={}",
            cor.delay,
            ind.delay
        );
    }

    #[test]
    fn correlated_agrees_with_independent_when_independent() {
        // If the pairs really are independent the two variants should
        // produce similar predictions.
        let mut rng = seeded(12);
        let d = Exponential::new(1.0);
        let pairs: Vec<(f64, f64)> = (0..40_000)
            .map(|_| (d.sample(&mut rng), d.sample(&mut rng)))
            .collect();
        let rx: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ry: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let k = 0.95;
        let budget = 0.1;
        let ind = compute_optimal_single_r(&rx, &ry, k, budget);
        let cor = compute_optimal_single_r_correlated(&rx, &pairs, k, budget);
        let rel = (ind.predicted_latency - cor.predicted_latency).abs() / ind.predicted_latency;
        assert!(
            rel < 0.15,
            "ind={} cor={}",
            ind.predicted_latency,
            cor.predicted_latency
        );
    }

    #[test]
    fn fenwick_sweep_matches_brute_force() {
        // The joint reissue CDF along a falling t, denominator and
        // conditional alike, against a direct count over the pairs.
        let mut rng = seeded(13);
        let d = Exponential::new(1.0);
        let pairs: Vec<(f64, f64)> = (0..2_000)
            .map(|_| {
                let x = d.sample(&mut rng);
                (x, 0.5 * x + d.sample(&mut rng))
            })
            .collect();
        let mut reissue = ReissueCdf::joint(&pairs);
        let mut ts: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        ts.sort_by(|a, b| b.total_cmp(a));
        for &t in ts.iter().take(500) {
            let got = reissue.cdf(t, 0.5 * t);
            let ReissueCdf::Joint { entered, .. } = reissue else {
                unreachable!()
            };
            let above = pairs.iter().filter(|p| p.0 > t).count();
            assert_eq!(entered, above, "denominator at t={t}");
            let below = pairs.iter().filter(|p| p.0 > t && p.1 < 0.5 * t).count();
            let want = if above == 0 {
                0.0
            } else {
                below as f64 / above as f64
            };
            assert_eq!(got, want, "conditional at t={t}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn optimizer_invariants(
            rx in proptest::collection::vec(0.01f64..1e3, 2..400),
            ry in proptest::collection::vec(0.01f64..1e3, 2..400),
            k in 0.5f64..0.995,
            budget in 0.0f64..=1.0,
        ) {
            let r = compute_optimal_single_r(&rx, &ry, k, budget);
            prop_assert!(r.budget_used <= budget + 1e-9);
            prop_assert!((0.0..=1.0).contains(&r.probability));
            prop_assert!((0.0..=1.0).contains(&r.outstanding_at_delay));
            let e = Ecdf::new(rx.clone());
            prop_assert!(r.delay >= e.min() && r.delay <= e.max());
            // Predicted latency never exceeds the no-reissue quantile...
            prop_assert!(r.predicted_latency <= e.max());
            // ...and lies within the sample range.
            prop_assert!(r.predicted_latency >= e.min());
        }

        #[test]
        fn correlated_invariants(
            pairs in proptest::collection::vec((0.01f64..1e3, 0.01f64..1e3), 2..300),
            k in 0.5f64..0.995,
            budget in 0.0f64..=1.0,
        ) {
            let rx: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let r = compute_optimal_single_r_correlated(&rx, &pairs, k, budget);
            prop_assert!(r.budget_used <= budget + 1e-9);
            prop_assert!((0.0..=1.0).contains(&r.probability));
            let e = Ecdf::new(rx);
            prop_assert!(r.delay >= e.min() && r.delay <= e.max());
            prop_assert!(r.predicted_latency <= e.max());
        }

        #[test]
        fn policy_from_result_has_reported_budget(
            rx in proptest::collection::vec(0.01f64..100.0, 10..200),
            budget in 0.01f64..0.5,
        ) {
            let r = compute_optimal_single_r(&rx, &rx, 0.9, budget);
            let e = Ecdf::new(rx.clone());
            // Recompute the budget from the policy parameters against the
            // empirical distribution: q * Pr(X ≥ d).
            let b = r.probability * e.sf_weak(r.delay);
            prop_assert!((b - r.budget_used).abs() < 1e-9);
            // The analytic-model budget uses the strict survival
            // Pr(X > d) ≤ Pr(X ≥ d), so it can only be smaller.
            let x = Ecdf::new(rx.clone());
            let model_b = expected_budget(&r.policy(), &x, &x);
            prop_assert!(model_b <= r.budget_used + 1e-9);
        }
    }

    #[test]
    fn predict_latency_matches_realized_min_latency() {
        // Simulate a static SingleR system and check that the predictor
        // reproduces the realized P95 of min(x, d + y) for reissued
        // queries.
        let mut rng = seeded(30);
        let d_dist = Exponential::new(1.0);
        let (d, q, k) = (0.8, 0.6, 0.95);
        let n = 50_000;
        let mut rx = Vec::with_capacity(n);
        let mut pairs = Vec::new();
        let mut latencies = Vec::with_capacity(n);
        for _ in 0..n {
            let x = d_dist.sample(&mut rng);
            let mut lat = x;
            if x > d && rng.gen::<f64>() < q {
                let y = d_dist.sample(&mut rng);
                pairs.push((x, y));
                lat = lat.min(d + y);
            }
            rx.push(x);
            latencies.push(lat);
        }
        let predicted = predict_latency(&rx, &pairs, k, d, q);
        let realized = crate::metrics::quantile(&latencies, k);
        let rel = (predicted - realized).abs() / realized;
        assert!(rel < 0.05, "predicted={predicted} realized={realized}");
    }

    #[test]
    fn predict_latency_conditional_is_strict() {
        // At t = 1 both pairs have x > t, and neither reissue beats
        // t − d = 1 strictly: Pr(Y < 1 | X > 1) = 0, so α(1) = 0 and the
        // prediction is the next sample, 4 (α(4) = 0.5).
        let p = predict_latency(&[1.0, 4.0], &[(4.0, 1.0), (4.0, 5.0)], 0.5, 0.0, 1.0);
        assert_eq!(p, 4.0);
    }

    /// `predict_latency` by definition: `α(t)` counted directly over
    /// the samples at every sorted `t`, `O(N²)`.
    fn predict_latency_brute_force(
        rx: &[f64],
        pairs: &[(f64, f64)],
        k: f64,
        d: f64,
        q: f64,
    ) -> f64 {
        let mut xs = rx.to_vec();
        xs.sort_by(f64::total_cmp);
        let n = xs.len() as f64;
        for (i, &t) in xs.iter().enumerate() {
            let p_y = if pairs.len() >= 2 {
                let above = pairs.iter().filter(|p| p.0 > t).count();
                let below = pairs.iter().filter(|p| p.0 > t && p.1 < t - d).count();
                if above == 0 {
                    0.0
                } else {
                    below as f64 / above as f64
                }
            } else {
                xs.iter().filter(|&&y| y < t - d).count() as f64 / n
            };
            let p = i as f64 / n;
            if p + q * (1.0 - p) * p_y >= k {
                return t;
            }
        }
        xs[xs.len() - 1]
    }

    proptest! {
        #[test]
        fn predict_latency_matches_brute_force(
            rx in proptest::collection::vec(0u8..16, 1..41),
            pairs in proptest::collection::vec((0u8..16, 0u8..16), 0..41),
            d in 0u8..12,
            q in 0.0f64..=1.0,
            k in 0.0f64..1.0,
        ) {
            // Integer samples and delays, so that ties fall on t, on
            // t − d and between primaries.
            let rx: Vec<f64> = rx.into_iter().map(f64::from).collect();
            let pairs: Vec<(f64, f64)> =
                pairs.into_iter().map(|(x, y)| (f64::from(x), f64::from(y))).collect();
            let d = f64::from(d);
            // The pairs branch, then the marginal one.
            for pairs in [&pairs[..], &pairs[..pairs.len().min(1)]] {
                prop_assert_eq!(
                    predict_latency(&rx, pairs, k, d, q),
                    predict_latency_brute_force(&rx, pairs, k, d, q)
                );
            }
        }
    }

    #[test]
    fn predict_latency_zero_q_is_marginal_quantile() {
        let rx = exp_samples(10_000, 1.0, 31);
        let p = predict_latency(&rx, &[], 0.95, 1.0, 0.0);
        let e = Ecdf::new(rx);
        assert!((p - e.quantile(0.95)).abs() < 0.1, "p={p}");
    }

    #[test]
    fn predict_latency_immediate_full_hedge() {
        // d=0, q=1 over iid Exp(1): min of two exponentials ~ Exp(2).
        let mut rng = seeded(32);
        let d_dist = Exponential::new(1.0);
        let pairs: Vec<(f64, f64)> = (0..40_000)
            .map(|_| (d_dist.sample(&mut rng), d_dist.sample(&mut rng)))
            .collect();
        let rx: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let p = predict_latency(&rx, &pairs, 0.95, 0.0, 1.0);
        let want = Exponential::new(2.0).quantile(0.95);
        assert!((p - want).abs() / want < 0.1, "p={p} want={want}");
    }

    #[test]
    fn success_probability_sanity_on_result() {
        // The optimizer's predicted success at (t, d*) should roughly
        // match the analytic formula with ECDFs plugged in.
        let rx = exp_samples(20_000, 1.0, 20);
        let ry = exp_samples(20_000, 1.0, 21);
        let r = compute_optimal_single_r(&rx, &ry, 0.95, 0.1);
        let x = Ecdf::new(rx);
        let y = Ecdf::new(ry);
        let s = success_probability(&r.policy(), &x, &y, r.predicted_latency);
        assert!(
            (s - r.predicted_success).abs() < 0.02,
            "model {s} vs optimizer {}",
            r.predicted_success
        );
    }
}
