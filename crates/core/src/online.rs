//! On-line policy adaptation for drifting workloads (§4.4, "varying
//! load / response-time distributions").
//!
//! Production response-time distributions move on hourly/daily cycles.
//! §4.3's batch loop re-optimizes between full runs; this module keeps
//! the policy fresh *while the system serves traffic*: response times
//! stream in, a sliding window holds the last `window` observations
//! both in arrival order and sorted (so a CDF evaluation is one binary
//! search and a quantile one index), and every `reoptimize_every` completed
//! observations the SingleR parameters are recomputed from the window
//! with the same learning-rate damping as the batch loop.
//!
//! ## Correlation-aware adaptation from censored pairs
//!
//! Two observation streams ([`OnlineAdapter::observe_primary`] /
//! [`OnlineAdapter::observe_reissue`]) can only drive the §4.1
//! *independence-model* optimizer, which overvalues hedging the
//! just-past-`d` noise band — where a correlated redraw wins nothing —
//! and spends the budget there instead of on deep stragglers. The §4.2
//! correlated optimizer needs *joint* `(primary, reissue)` samples,
//! which a serving system that retracts losers censors: a loser
//! retracted in time (by the client's `CANCEL` or a tied request's
//! peer) has a response time known only as a lower bound.
//!
//! [`OnlineAdapter::observe_pair`] therefore accepts raced-hedge
//! outcomes with either side possibly censored; the window of pairs is
//! completed Kaplan–Meier-style (see [`crate::censored`]) at each
//! re-optimization, and once [`OnlineConfig::min_pairs`] pairs have
//! accumulated the adapter switches from
//! [`compute_optimal_single_r`] to
//! [`compute_optimal_single_r_correlated`] — falling back to the
//! independent path while the pair window is still thin.
//!
//! ## Utilization-aware damping
//!
//! Latency samples alone cannot tell a slow service from a saturated
//! one, and hedging a saturated cluster *adds* load — redundancy's
//! benefit flips sign with utilization. When [`OnlineConfig::load`] is
//! set, the adapter accepts an external utilization estimate
//! ([`OnlineAdapter::set_utilization`], typically fed from a
//! [`crate::load::LoadSignal`]) and runs the optimizer at an
//! *effective* budget `B · damping(ρ̂)` (see
//! [`crate::load::LoadShaper`]): as ρ̂ rises the reissue probability
//! shrinks and the optimal delay deepens, recovering unhedged behavior
//! at saturation. The damping is applied **twice**: once to the spend
//! target handed to the optimizer (which deepens the delay), and once
//! multiplicatively to the live probability — budget damping alone
//! cannot suppress deep-delay duplication, because past the bulk of
//! the distribution `budget / outstanding` saturates at 1 however
//! small the budget, and the rare-but-huge query a deep policy still
//! duplicates is precisely the one whose *capacity* cost (unpriced by
//! the count-based budget metric) tips a saturated cluster over.
//! Between re-optimizations `set_utilization` rescales the live
//! probability immediately, so the realized reissue rate tracks a
//! ramp without waiting out `reoptimize_every`.
//!
//! ## Regime-shift window reset
//!
//! A fixed-size window lags a step change by up to a full window of
//! mixed pre-/post-shift samples. Each re-optimization therefore runs
//! a distribution-free shift detector: if at least half of the most
//! recent 64 primary samples fall above the window's P75 (or below its
//! P25 — under a stationary stream each tail event has probability
//! 1/4, so ≥ 32 of 64 is a ≈`3e-5` false-positive), the pre-shift
//! window is discarded, the optimizer runs on the retained recent
//! samples, and the delay snaps to the recommendation (bypassing
//! learning-rate damping) — re-convergence is bounded by a couple of
//! re-optimization periods instead of a window length.
//!
//! ```
//! use reissue_core::online::{OnlineAdapter, OnlineConfig, ReissueOutcome};
//!
//! let mut adapter = OnlineAdapter::new(OnlineConfig {
//!     k: 0.95,
//!     budget: 0.1,
//!     window: 1_000,
//!     reoptimize_every: 500,
//!     learning_rate: 0.5,
//!     min_pairs: 64,
//!     load: None,
//! });
//! // Feed observations as queries complete; consult the policy any time.
//! for i in 0..2_000u32 {
//!     adapter.observe_primary(f64::from(i % 100 + 1));
//! }
//! // Raced hedges arrive as pairs; a loser cancelled in time is a
//! // censored observation (lower bound = elapsed when retracted).
//! adapter.observe_pair(42.0, ReissueOutcome::Completed(11.0));
//! adapter.observe_pair(55.0, ReissueOutcome::Censored(12.5));
//! let policy = adapter.policy();
//! assert!(policy.budget_used <= 0.1 + 1e-9);
//! ```

use crate::censored::{complete_pairs_with, KaplanMeier, Obs};
use crate::ecdf::{nearest_rank, strict_cdf};
use crate::load::LoadShaper;
use crate::optimizer::{
    compute_optimal_single_r, compute_optimal_single_r_correlated, OptimalSingleR,
};
use std::collections::VecDeque;

/// Recent-sample count the regime-shift detector inspects (and the
/// number of samples each marginal window retains after a reset).
const SHIFT_RECENT: usize = 64;

/// Configuration for [`OnlineAdapter`].
#[derive(Clone, Copy, Debug)]
pub struct OnlineConfig {
    /// Target tail percentile.
    pub k: f64,
    /// Reissue budget.
    pub budget: f64,
    /// Sliding-window size (observations retained per stream, and
    /// raced pairs retained in the pair window).
    pub window: usize,
    /// Re-optimize after this many new observations (primaries,
    /// reissues and pairs all count).
    pub reoptimize_every: usize,
    /// Damping for delay updates, as in the §4.3 loop.
    pub learning_rate: f64,
    /// Minimum raced pairs in the window before re-optimization
    /// switches to the §4.2 correlated optimizer. The pair window is
    /// capped at [`window`](Self::window), so any value above `window`
    /// — conventionally `usize::MAX` — pins the adapter to the
    /// independence model permanently (e.g. for A/B runs).
    pub min_pairs: usize,
    /// When set, the adapter damps its effective reissue budget by
    /// [`LoadShaper::damping`] of the utilization fed through
    /// [`OnlineAdapter::set_utilization`] — `None` (the default)
    /// keeps the adapter load-blind and bit-for-bit compatible with
    /// earlier behavior.
    pub load: Option<LoadShaper>,
}

impl Default for OnlineConfig {
    /// P99 target, 5 % budget, 2 048-observation window re-optimized
    /// every 512 observations with the §4.3 half-step, switching to the
    /// correlated optimizer after 64 raced pairs.
    fn default() -> Self {
        OnlineConfig {
            k: 0.99,
            budget: 0.05,
            window: 2_048,
            reoptimize_every: 512,
            learning_rate: 0.5,
            min_pairs: 64,
            load: None,
        }
    }
}

/// Outcome of the reissue side of a raced hedge, as fed to
/// [`OnlineAdapter::observe_pair`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReissueOutcome {
    /// The reissue completed; its exact response time (ms, measured
    /// from its own dispatch).
    Completed(f64),
    /// The reissue was retracted in time (a client `CANCEL` or a
    /// tied-request peer cancel); its response time is only known to
    /// exceed this lower bound — the time it had been outstanding when
    /// the retraction confirmed.
    Censored(f64),
}

/// One marginal window: its samples in arrival order (for eviction)
/// and the same samples ascending (for the CDF and quantile probes).
#[derive(Clone, Debug, Default)]
struct Window {
    order: VecDeque<f64>,
    sorted: Vec<f64>,
}

impl Window {
    fn len(&self) -> usize {
        self.order.len()
    }

    /// Appends `v` and evicts the oldest samples past `cap`.
    fn push(&mut self, v: f64, cap: usize) {
        let at = self.sorted.partition_point(|&x| x < v);
        self.sorted.insert(at, v);
        self.order.push_back(v);
        self.truncate(cap);
    }

    /// Evicts the oldest samples until at most `cap` remain.
    fn truncate(&mut self, cap: usize) {
        while self.order.len() > cap {
            let old = self.order.pop_front().unwrap();
            let at = self.sorted.partition_point(|&x| x < old);
            self.sorted.remove(at);
        }
    }
}

/// Streaming SingleR policy maintenance over a sliding window.
///
/// The primary and reissue response times each live in a window kept
/// in arrival order and sorted: an insert or eviction is a binary
/// search plus a shift of the sorted vector, the optimizer's CDF probe
/// is a binary search and a quantile is an index. Raced hedges
/// additionally land in a bounded pair window with per-side censoring.
/// Re-optimization reads the sorted windows directly and
/// runs `ComputeOptimalSingleR` — the §4.2 correlated variant once
/// [`OnlineConfig::min_pairs`] censored-completed pairs are available,
/// the §4.1 independent variant before that — then moves the live delay
/// a `learning_rate` step toward the recommendation.
#[derive(Clone, Debug)]
pub struct OnlineAdapter {
    cfg: OnlineConfig,
    primary: Window,
    reissue: Window,
    pairs: VecDeque<(Obs, Obs)>,
    censored_in_window: usize,
    seen_since_opt: usize,
    delay: f64,
    probability: f64,
    last_opt: Option<OptimalSingleR>,
    reoptimizations: u64,
    correlated_reoptimizations: u64,
    used_correlated: bool,
    /// Externally supplied utilization estimate ρ̂ (0 until fed).
    utilization: f64,
    shift_resets: u64,
}

impl OnlineAdapter {
    /// Creates an adapter with an inactive policy (no reissues until
    /// enough data arrives).
    ///
    /// # Panics
    /// Panics on out-of-range configuration.
    pub fn new(cfg: OnlineConfig) -> Self {
        assert!((0.0..1.0).contains(&cfg.k), "k must be in [0,1)");
        assert!((0.0..=1.0).contains(&cfg.budget), "budget in [0,1]");
        assert!(cfg.window >= 16, "window too small to estimate tails");
        assert!(cfg.reoptimize_every >= 1);
        assert!(
            cfg.learning_rate > 0.0 && cfg.learning_rate <= 1.0,
            "learning rate in (0,1]"
        );
        if let Some(shaper) = cfg.load {
            // Surface a misconfigured shaper at construction, not at
            // the first re-optimization.
            let _ = shaper.damping(0.0);
        }
        OnlineAdapter {
            cfg,
            primary: Window::default(),
            reissue: Window::default(),
            pairs: VecDeque::new(),
            censored_in_window: 0,
            seen_since_opt: 0,
            delay: 0.0,
            probability: 0.0,
            last_opt: None,
            reoptimizations: 0,
            correlated_reoptimizations: 0,
            used_correlated: false,
            utilization: 0.0,
            shift_resets: 0,
        }
    }

    /// Records a completed primary request's response time.
    pub fn observe_primary(&mut self, response: f64) {
        assert!(response.is_finite(), "response must be finite");
        self.primary.push(response, self.cfg.window);
        self.note_observation();
    }

    /// Records a completed reissue request's response time (measured
    /// from its own dispatch).
    pub fn observe_reissue(&mut self, response: f64) {
        assert!(response.is_finite(), "response must be finite");
        self.reissue.push(response, self.cfg.window);
        self.note_observation();
    }

    /// Records a raced hedge: the primary's exact response time plus
    /// the reissue's outcome — exact when the loser completed, censored
    /// at its elapsed-at-retraction lower bound when its retraction
    /// landed in time.
    ///
    /// The exact sides also feed the marginal windows, so a pair counts
    /// as one completed query toward the re-optimization trigger.
    ///
    /// # Panics
    /// Panics on non-finite values.
    pub fn observe_pair(&mut self, primary_ms: f64, reissue: ReissueOutcome) {
        assert!(primary_ms.is_finite(), "response must be finite");
        let y = match reissue {
            ReissueOutcome::Completed(v) => {
                assert!(v.is_finite(), "response must be finite");
                self.reissue.push(v, self.cfg.window);
                Obs::Exact(v)
            }
            ReissueOutcome::Censored(lb) => {
                assert!(lb.is_finite(), "bound must be finite");
                Obs::Censored(lb.max(0.0))
            }
        };
        self.primary.push(primary_ms, self.cfg.window);
        self.push_pair(Obs::Exact(primary_ms), y);
        self.note_observation();
    }

    /// Records a raced hedge the *reissue* won while the primary's
    /// retraction landed in time: the primary is censored at
    /// its elapsed-at-retraction lower bound, the reissue is exact.
    ///
    /// The censored primary does **not** enter the marginal primary
    /// window directly; its Kaplan–Meier completion is merged into the
    /// optimizer's primary samples at re-optimization time, so the
    /// straggler mass that cancellation hides from the marginal stream
    /// still reaches the delay sweep.
    ///
    /// # Panics
    /// Panics on non-finite values.
    pub fn observe_pair_censored_primary(&mut self, primary_lower_bound_ms: f64, reissue_ms: f64) {
        assert!(
            primary_lower_bound_ms.is_finite() && reissue_ms.is_finite(),
            "response must be finite"
        );
        self.reissue.push(reissue_ms, self.cfg.window);
        self.push_pair(
            Obs::Censored(primary_lower_bound_ms.max(0.0)),
            Obs::Exact(reissue_ms),
        );
        self.note_observation();
    }

    fn push_pair(&mut self, x: Obs, y: Obs) {
        if x.is_censored() || y.is_censored() {
            self.censored_in_window += 1;
        }
        self.pairs.push_back((x, y));
        if self.pairs.len() > self.cfg.window {
            let (ox, oy) = self.pairs.pop_front().unwrap();
            if ox.is_censored() || oy.is_censored() {
                self.censored_in_window -= 1;
            }
        }
    }

    /// Completes the pair window's censored sides against KM curves
    /// fit on the pooled pair-side + marginal-window observations (see
    /// the comment in [`reoptimize`](Self::reoptimize) for why the
    /// marginals must be pooled in).
    fn complete_with_marginals(&self, pairs: &[(Obs, Obs)], rx: &[f64]) -> Vec<(f64, f64)> {
        let mut x_obs: Vec<Obs> = rx.iter().map(|&v| Obs::Exact(v)).collect();
        x_obs.extend(pairs.iter().map(|p| p.0).filter(|o| o.is_censored()));
        let km_x = KaplanMeier::fit(&x_obs);
        let mut y_obs: Vec<Obs> = self.reissue.order.iter().map(|&v| Obs::Exact(v)).collect();
        y_obs.extend(pairs.iter().map(|p| p.1).filter(|o| o.is_censored()));
        let km_y = KaplanMeier::fit(&y_obs);
        complete_pairs_with(&km_x, &km_y, pairs)
    }

    /// Counts one completed observation and re-optimizes when due.
    fn note_observation(&mut self) {
        self.seen_since_opt += 1;
        if self.seen_since_opt >= self.cfg.reoptimize_every
            && self.primary.len() >= self.cfg.window.min(64)
        {
            self.reoptimize();
            self.seen_since_opt = 0;
        }
    }

    /// Distribution-free regime-shift detector: trips when at least
    /// [`SHIFT_RECENT`]`/2` of the most recent primary samples sit
    /// above the whole window's P75 (upward shift) or below its P25
    /// (downward). Under a stationary stream each tail event has
    /// probability 1/4, so half of 64 is a ≈`3e-5` false positive per
    /// check per side — robust even to strongly bimodal workloads,
    /// where a location-based (median-ratio) detector false-trips.
    fn detect_shift(&self) -> bool {
        if self.primary.len() < 2 * SHIFT_RECENT {
            return false;
        }
        let hi = nearest_rank(&self.primary.sorted, 0.75);
        let lo = nearest_rank(&self.primary.sorted, 0.25);
        let mut above = 0usize;
        let mut below = 0usize;
        for &v in self.primary.order.iter().rev().take(SHIFT_RECENT) {
            if v > hi {
                above += 1;
            } else if v < lo {
                below += 1;
            }
        }
        above >= SHIFT_RECENT / 2 || below >= SHIFT_RECENT / 2
    }

    /// Drops every pre-shift sample: both marginal windows keep only
    /// their most recent [`SHIFT_RECENT`] observations, and the pair
    /// window is cleared outright (Kaplan–Meier completion against
    /// stale marginals would impute the old regime back in).
    fn reset_window_to_recent(&mut self) {
        self.primary.truncate(SHIFT_RECENT);
        self.reissue.truncate(SHIFT_RECENT);
        self.pairs.clear();
        self.censored_in_window = 0;
        self.shift_resets += 1;
    }

    fn reoptimize(&mut self) {
        let shifted = self.detect_shift();
        if shifted {
            self.reset_window_to_recent();
        }
        let opt = if self.pairs.len() >= self.cfg.min_pairs.max(2) {
            // §4.2 path: complete the censored pairs Kaplan–Meier-style
            // and price the joint structure into the policy.
            //
            // The KM fits pool the pair sides with the *marginal*
            // windows. This matters for the primary side: a straggler
            // that raced is nearly always retracted in time (it was
            // stuck in a queue — that is why it lost), so the pair
            // window alone contains almost no deep primary *events*
            // and its KM would impute censored stragglers back into
            // the body. The marginal window still sees the full
            // latency of stragglers that were never hedged (the
            // q-coin spares most of them), so pooling restores the
            // deep tail the imputation needs.
            let mut rx = self.primary.sorted.clone();
            let pairs: Vec<(Obs, Obs)> = self.pairs.iter().copied().collect();
            let completed = self.complete_with_marginals(&pairs, &rx);
            // Censored primaries (reissue-won races whose primary was
            // retracted) are absent from the marginal window; merge
            // their completions so the delay sweep sees the straggler
            // mass that cancellation hid.
            let mut grew = false;
            for ((x, _), &(cx, _)) in pairs.iter().zip(&completed) {
                if x.is_censored() {
                    rx.push(cx);
                    grew = true;
                }
            }
            if grew {
                rx.sort_by(f64::total_cmp);
            }
            self.used_correlated = true;
            self.correlated_reoptimizations += 1;
            compute_optimal_single_r_correlated(
                &rx,
                &completed,
                self.cfg.k,
                self.effective_budget(),
            )
        } else {
            // §4.1 fallback: with no reissue observations yet, treat
            // reissues as exchangeable with primaries (the batch loop's
            // fallback).
            let rx = &self.primary.sorted;
            let ry = if self.reissue.len() >= 16 {
                &self.reissue.sorted
            } else {
                rx
            };
            self.used_correlated = false;
            compute_optimal_single_r(rx, ry, self.cfg.k, self.effective_budget())
        };
        // Damped update, as in §4.3 — except after a shift reset,
        // where damping toward the *old* regime's delay is exactly the
        // staleness the reset removed: snap instead.
        if shifted {
            self.delay = opt.delay;
        } else {
            self.delay += self.cfg.learning_rate * (opt.delay - self.delay);
        }
        self.refresh_probability();
        self.last_opt = Some(opt);
        self.reoptimizations += 1;
    }

    /// Recomputes the live probability so the expected reissue rate
    /// `q · Pr(X ≥ d)` equals the *effective* (damped) budget at the
    /// current window and delay.
    fn refresh_probability(&mut self) {
        let budget = self.effective_budget();
        let outstanding = 1.0 - strict_cdf(&self.primary.sorted, self.delay);
        let q_budget = if budget <= 0.0 {
            0.0
        } else if outstanding > 0.0 {
            (budget / outstanding).min(1.0)
        } else {
            1.0
        };
        // The damping multiplies the probability a second time (the
        // budget above is already damped). Budget damping alone
        // cannot suppress deep-delay reissues: at a delay past the
        // bulk of the distribution `outstanding` is tiny and
        // `budget / outstanding` saturates at 1 no matter how small
        // the damped budget — so the policy would still duplicate
        // every rare monster query. The budget metric prices a
        // reissue by *count*; its capacity cost is the duplicated
        // work, and at high ρ̂ the rare-but-huge duplicate is exactly
        // the one that tips a saturated cluster over. Multiplying q
        // by the damping bounds that directly.
        self.probability = q_budget * self.damping();
    }

    /// The shaper's budget multiplier at the current utilization
    /// estimate (1 when load awareness is off).
    fn damping(&self) -> f64 {
        match self.cfg.load {
            Some(shaper) => shaper.damping(self.utilization),
            None => 1.0,
        }
    }

    /// The configured budget damped by the load shaper at the current
    /// utilization estimate — equal to [`OnlineConfig::budget`] when
    /// load awareness is off.
    pub fn effective_budget(&self) -> f64 {
        self.cfg.budget * self.damping()
    }

    /// Feeds an external utilization estimate ρ̂ (clamped to `[0, 1]`;
    /// NaN reads as 0). With [`OnlineConfig::load`] set this rescales
    /// the live reissue probability *immediately* — the delay moves
    /// only at re-optimizations, but budget damping must track a load
    /// ramp without waiting out `reoptimize_every`. A no-op signal
    /// store when load awareness is off.
    pub fn set_utilization(&mut self, rho: f64) {
        self.utilization = if rho.is_nan() {
            0.0
        } else {
            rho.clamp(0.0, 1.0)
        };
        if self.cfg.load.is_some() && self.reoptimizations > 0 {
            self.refresh_probability();
        }
    }

    /// The most recent utilization estimate fed via
    /// [`set_utilization`](Self::set_utilization).
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Regime-shift window resets performed so far.
    pub fn shift_resets(&self) -> u64 {
        self.shift_resets
    }

    /// The current policy parameters as an [`OptimalSingleR`] record
    /// (delay/probability are the *live, damped* values; predictions
    /// come from the last re-optimization).
    pub fn policy(&self) -> OptimalSingleR {
        let outstanding = if self.primary.sorted.is_empty() {
            0.0
        } else {
            1.0 - strict_cdf(&self.primary.sorted, self.delay)
        };
        OptimalSingleR {
            delay: self.delay,
            probability: self.probability,
            outstanding_at_delay: outstanding,
            predicted_latency: self.last_opt.map_or(f64::NAN, |o| o.predicted_latency),
            budget_used: self.probability * outstanding,
            predicted_success: self.last_opt.map_or(f64::NAN, |o| o.predicted_success),
        }
    }

    /// Current window quantile of primary response times (nearest
    /// rank), `O(1)`; `None` for an empty window or `p ∉ [0, 1]`.
    pub fn window_quantile(&self, p: f64) -> Option<f64> {
        let sorted = &self.primary.sorted;
        (!sorted.is_empty() && (0.0..=1.0).contains(&p)).then(|| nearest_rank(sorted, p))
    }

    /// Number of re-optimizations performed.
    pub fn reoptimizations(&self) -> u64 {
        self.reoptimizations
    }

    /// Number of re-optimizations that ran the §4.2 correlated
    /// optimizer (vs the §4.1 independence fallback).
    pub fn correlated_reoptimizations(&self) -> u64 {
        self.correlated_reoptimizations
    }

    /// Whether the most recent re-optimization used the correlated
    /// optimizer (`false` before any re-optimization).
    pub fn using_correlated(&self) -> bool {
        self.used_correlated
    }

    /// Observations currently held in the primary window.
    pub fn window_len(&self) -> usize {
        self.primary.len()
    }

    /// Raced pairs currently held in the pair window.
    pub fn pairs_len(&self) -> usize {
        self.pairs.len()
    }

    /// Pairs in the window with at least one censored side.
    pub fn censored_pairs_len(&self) -> usize {
        self.censored_in_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::quantile;
    use distributions::rng::seeded;
    use distributions::{Exponential, LogNormal, Sample};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::Rng;

    fn cfg() -> OnlineConfig {
        OnlineConfig {
            k: 0.95,
            budget: 0.1,
            window: 2_000,
            reoptimize_every: 500,
            learning_rate: 0.5,
            min_pairs: 64,
            load: None,
        }
    }

    #[test]
    fn policy_respects_budget_on_stationary_stream() {
        let mut a = OnlineAdapter::new(cfg());
        let mut rng = seeded(1);
        let d = Exponential::new(1.0);
        for _ in 0..10_000 {
            a.observe_primary(d.sample(&mut rng));
        }
        let p = a.policy();
        assert!(a.reoptimizations() >= 4);
        assert!(p.budget_used <= 0.1 + 1e-9, "budget {}", p.budget_used);
        assert!(p.delay > 0.0);
        // Exp(1) at B=0.1: optimal delay sits in the body, well below
        // the P95 (≈3) — the SingleR advantage.
        assert!(p.delay < 3.0, "delay {}", p.delay);
    }

    #[test]
    fn adapts_to_distribution_shift() {
        let mut a = OnlineAdapter::new(cfg());
        let mut rng = seeded(2);
        // Phase 1: fast service.
        let fast = Exponential::new(1.0);
        for _ in 0..4_000 {
            a.observe_primary(fast.sample(&mut rng));
        }
        let d_fast = a.policy().delay;
        // Phase 2: the service slows 10x; the delay must follow.
        let slow = Exponential::new(0.1);
        for _ in 0..6_000 {
            a.observe_primary(slow.sample(&mut rng));
        }
        let d_slow = a.policy().delay;
        assert!(
            d_slow > 4.0 * d_fast,
            "delay failed to track drift: {d_fast} -> {d_slow}"
        );
        // And the budget still holds under the new distribution.
        assert!(a.policy().budget_used <= 0.1 + 1e-9);
    }

    #[test]
    fn window_eviction_bounds_memory() {
        let mut a = OnlineAdapter::new(OnlineConfig {
            window: 100,
            reoptimize_every: 50,
            ..cfg()
        });
        let mut rng = seeded(3);
        let d = Exponential::new(1.0);
        for _ in 0..1_000 {
            a.observe_primary(d.sample(&mut rng));
            a.observe_pair(d.sample(&mut rng), ReissueOutcome::Censored(0.5));
        }
        assert_eq!(a.window_len(), 100);
        assert_eq!(a.pairs_len(), 100, "pair window must evict too");
        assert_eq!(a.censored_pairs_len(), 100);
        assert!(a.window_quantile(0.5).is_some());
    }

    #[test]
    fn reissue_observations_feed_optimizer() {
        let mut a = OnlineAdapter::new(cfg());
        let mut rng = seeded(4);
        let d = Exponential::new(1.0);
        // Reissues are much slower than primaries here: the optimizer
        // should discount them (smaller predicted benefit).
        for _ in 0..5_000 {
            a.observe_primary(d.sample(&mut rng));
            a.observe_reissue(10.0 * d.sample(&mut rng));
        }
        let p = a.policy();
        assert!(p.budget_used <= 0.1 + 1e-9);
        assert!(p.predicted_latency.is_finite());
    }

    #[test]
    fn reissue_observations_advance_reoptimization_trigger() {
        // Regression: a reissue-heavy stretch must not leave the policy
        // stale past `reoptimize_every` (the counter used to advance on
        // primaries only).
        let mut a = OnlineAdapter::new(OnlineConfig {
            window: 64,
            reoptimize_every: 100,
            ..cfg()
        });
        let mut rng = seeded(5);
        let d = Exponential::new(1.0);
        for _ in 0..64 {
            a.observe_primary(d.sample(&mut rng));
        }
        assert_eq!(a.reoptimizations(), 0);
        for _ in 0..36 {
            a.observe_reissue(d.sample(&mut rng));
        }
        assert_eq!(
            a.reoptimizations(),
            1,
            "100 mixed observations must trigger a re-optimization"
        );
    }

    #[test]
    fn no_reissues_until_warmed_up() {
        let a = OnlineAdapter::new(cfg());
        let p = a.policy();
        assert_eq!(p.probability, 0.0);
        assert_eq!(a.window_len(), 0);
        assert_eq!(a.pairs_len(), 0);
        assert!(!a.using_correlated());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn tiny_window_rejected() {
        let _ = OnlineAdapter::new(OnlineConfig { window: 4, ..cfg() });
    }

    #[test]
    fn pair_window_gates_correlated_path() {
        let mut a = OnlineAdapter::new(OnlineConfig {
            window: 256,
            reoptimize_every: 64,
            min_pairs: 128,
            ..cfg()
        });
        let mut rng = seeded(6);
        let d = Exponential::new(1.0);
        // Below min_pairs: independent path.
        for _ in 0..100 {
            a.observe_pair(
                d.sample(&mut rng),
                ReissueOutcome::Completed(d.sample(&mut rng)),
            );
        }
        assert!(a.reoptimizations() >= 1);
        assert!(!a.using_correlated());
        assert_eq!(a.correlated_reoptimizations(), 0);
        // Past min_pairs: correlated path engages.
        for _ in 0..100 {
            a.observe_pair(
                d.sample(&mut rng),
                ReissueOutcome::Completed(d.sample(&mut rng)),
            );
        }
        assert!(a.using_correlated());
        assert!(a.correlated_reoptimizations() >= 1);
        // Pinned to the independence model, the gate never opens.
        let mut pinned = OnlineAdapter::new(OnlineConfig {
            window: 256,
            reoptimize_every: 64,
            min_pairs: usize::MAX,
            ..cfg()
        });
        for _ in 0..500 {
            pinned.observe_pair(
                d.sample(&mut rng),
                ReissueOutcome::Completed(d.sample(&mut rng)),
            );
        }
        assert!(pinned.reoptimizations() >= 4);
        assert!(!pinned.using_correlated());
    }

    #[test]
    fn censored_primary_pairs_accepted() {
        let mut a = OnlineAdapter::new(OnlineConfig {
            window: 128,
            reoptimize_every: 64,
            min_pairs: 16,
            ..cfg()
        });
        let mut rng = seeded(7);
        let d = Exponential::new(1.0);
        for _ in 0..64 {
            a.observe_primary(d.sample(&mut rng));
        }
        for _ in 0..64 {
            // Reissue won at y; primary retracted after y + 1 elapsed.
            let y = d.sample(&mut rng);
            a.observe_pair_censored_primary(y + 1.0, y);
        }
        assert!(a.using_correlated());
        let p = a.policy();
        assert!(p.delay.is_finite() && p.delay >= 0.0);
        assert!(p.budget_used <= 0.1 + 1e-9);
        assert_eq!(a.censored_pairs_len(), 64);
    }

    /// The noise-band workload of the correlated-adaptation story: a
    /// query's latency is a shared per-query cost `C` (the "noise
    /// band": a fast mode of cheap lookups and a slow mode of heavy
    /// queries, jittered) plus a rare *dispatch-specific* stall. A
    /// redraw re-samples only the stall and the jitter, so hedging
    /// inside the band wins nothing — but the *marginal* reissue
    /// distribution is full of fast-mode samples, which fools the
    /// independence model into pricing band hedges as if a slow-mode
    /// query could redraw into the fast mode.
    ///
    /// Returns `(x, y)`: primary and reissue service times.
    fn band_stall_pair(rng: &mut SmallRng) -> (f64, f64) {
        let jitter = LogNormal::new(0.0, 0.15);
        let c = if rng.gen::<f64>() < 0.55 { 0.1 } else { 3.0 };
        let stall = |rng: &mut SmallRng| {
            if rng.gen::<f64>() < 0.03 {
                50.0 + Exponential::new(0.2).sample(rng)
            } else {
                0.0
            }
        };
        let x = c * jitter.sample(rng) + stall(rng);
        let y = c * jitter.sample(rng) + stall(rng);
        (x, y)
    }

    /// Feeds one band-stall query to the adapter the way a hedging
    /// client with tied-request cancellation would, racing a
    /// hypothetical reissue at delay `d0`: no race below `d0`; a lost
    /// reissue is censored at its elapsed-at-cancel bound.
    fn feed_raced(a: &mut OnlineAdapter, x: f64, y: f64, d0: f64) {
        if x <= d0 {
            a.observe_primary(x);
        } else if d0 + y < x {
            // Reissue wins; the losing primary completes (exact pair).
            a.observe_pair(x, ReissueOutcome::Completed(y));
        } else {
            // Primary wins; the reissue is retracted in time.
            a.observe_pair(x, ReissueOutcome::Censored(x - d0));
        }
    }

    #[test]
    fn correlated_adapter_clears_noise_band_where_independent_does_not() {
        let base = OnlineConfig {
            k: 0.95,
            budget: 0.1,
            window: 8_000,
            reoptimize_every: 2_000,
            learning_rate: 1.0,
            min_pairs: 200,
            load: None,
        };
        let mut corr = OnlineAdapter::new(base);
        let mut ind = OnlineAdapter::new(OnlineConfig {
            min_pairs: usize::MAX,
            ..base
        });
        let mut rng = seeded(8);
        let d0 = 0.3;
        for _ in 0..40_000 {
            let (x, y) = band_stall_pair(&mut rng);
            feed_raced(&mut corr, x, y, d0);
            feed_raced(&mut ind, x, y, d0);
        }
        assert!(corr.using_correlated());
        assert!(!ind.using_correlated());
        assert!(
            corr.censored_pairs_len() > corr.pairs_len() / 2,
            "want heavy censoring"
        );
        // "Past the noise band" = past the slow mode's median (3.0):
        // a delay below it spends budget re-drawing band queries whose
        // correlated redraw wins nothing.
        let band_edge = 3.0;
        let d_corr = corr.policy().delay;
        let d_ind = ind.policy().delay;
        assert!(
            d_corr > band_edge,
            "correlated delay {d_corr} should clear the band edge {band_edge}"
        );
        assert!(
            d_ind < band_edge,
            "independence-model delay {d_ind} should sit inside the band (edge {band_edge})"
        );
        assert!(d_corr > d_ind);
        // Both stay within budget on their own accounting.
        assert!(corr.policy().budget_used <= 0.1 + 1e-9);
        assert!(ind.policy().budget_used <= 0.1 + 1e-9);
    }

    #[test]
    fn heavy_censoring_still_converges_near_oracle() {
        // The adapter sees only censored race outcomes; the oracle sees
        // the full uncensored joint sample. Their chosen delays must
        // land in the same regime (both past the noise band, within a
        // factor of each other).
        let mut a = OnlineAdapter::new(OnlineConfig {
            k: 0.95,
            budget: 0.1,
            window: 8_000,
            reoptimize_every: 2_000,
            learning_rate: 1.0,
            min_pairs: 200,
            load: None,
        });
        let mut rng = seeded(9);
        let d0 = 0.3;
        let mut oracle_rx = Vec::new();
        let mut oracle_pairs = Vec::new();
        for _ in 0..40_000 {
            let (x, y) = band_stall_pair(&mut rng);
            oracle_rx.push(x);
            if x > d0 {
                oracle_pairs.push((x, y));
            }
            feed_raced(&mut a, x, y, d0);
        }
        let oracle = compute_optimal_single_r_correlated(&oracle_rx, &oracle_pairs, 0.95, 0.1);
        let d_adapter = a.policy().delay;
        let band_edge = 3.0;
        assert!(
            oracle.delay > band_edge,
            "oracle delay {} should clear the band",
            oracle.delay
        );
        assert!(
            d_adapter > band_edge,
            "adapter delay {d_adapter} should clear the band like the oracle"
        );
        let ratio = d_adapter / oracle.delay;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "adapter delay {d_adapter} vs oracle {} (ratio {ratio})",
            oracle.delay
        );
        assert!(a.policy().budget_used <= 0.1 + 1e-9);
    }

    #[test]
    fn utilization_damps_budget_and_deepens_delay() {
        use crate::load::LoadShaper;
        let shaper = LoadShaper::default();
        let mut blind = OnlineAdapter::new(cfg());
        let mut aware = OnlineAdapter::new(OnlineConfig {
            load: Some(shaper),
            ..cfg()
        });
        aware.set_utilization(0.85);
        let mut rng = seeded(11);
        let d = Exponential::new(1.0);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            blind.observe_primary(v);
            aware.observe_primary(v);
        }
        let damp = shaper.damping(0.85);
        assert!(damp < 0.1, "at ρ̂=0.85 the budget should be heavily cut");
        assert!((aware.effective_budget() - 0.1 * damp).abs() < 1e-12);
        assert_eq!(blind.effective_budget(), 0.1);
        let (pb, pa) = (blind.policy(), aware.policy());
        // Same samples, damped budget: spend at most the damped
        // budget, and buy a deeper (never shallower) delay with it.
        assert!(
            pa.budget_used <= 0.1 * damp + 1e-9,
            "used {}",
            pa.budget_used
        );
        assert!(pa.probability < pb.probability);
        assert!(
            pa.delay >= pb.delay - 1e-9,
            "damped budget must deepen the delay: blind {} aware {}",
            pb.delay,
            pa.delay
        );
        // At saturation the policy is fully off.
        aware.set_utilization(1.0);
        assert_eq!(aware.effective_budget(), 0.0);
        assert_eq!(aware.policy().probability, 0.0);
    }

    #[test]
    fn set_utilization_rescales_probability_between_reoptimizations() {
        use crate::load::LoadShaper;
        let mut a = OnlineAdapter::new(OnlineConfig {
            load: Some(LoadShaper::default()),
            ..cfg()
        });
        let mut rng = seeded(12);
        let d = Exponential::new(1.0);
        for _ in 0..3_000 {
            a.observe_primary(d.sample(&mut rng));
        }
        let q_unloaded = a.policy().probability;
        assert!(q_unloaded > 0.0);
        // No new observations — the rescale must not wait for a
        // re-optimization.
        let reopts = a.reoptimizations();
        a.set_utilization(0.8);
        assert_eq!(a.reoptimizations(), reopts);
        let q_loaded = a.policy().probability;
        assert!(
            q_loaded < 0.5 * q_unloaded,
            "q must fall immediately with ρ̂: {q_unloaded} -> {q_loaded}"
        );
        a.set_utilization(0.2);
        let q_back = a.policy().probability;
        assert!(
            (q_back - q_unloaded).abs() < 1e-9,
            "full budget must restore q: {q_unloaded} vs {q_back}"
        );
        // A load-blind adapter ignores the signal entirely.
        let mut blind = OnlineAdapter::new(cfg());
        let mut rng = seeded(12);
        for _ in 0..3_000 {
            blind.observe_primary(d.sample(&mut rng));
        }
        let q0 = blind.policy().probability;
        blind.set_utilization(0.9);
        assert_eq!(blind.policy().probability, q0);
        assert_eq!(blind.effective_budget(), 0.1);
    }

    /// Satellite regression test: after a 10× step change in service
    /// time the shift detector must discard the stale window and d*
    /// must re-converge within a bounded number of re-optimizations —
    /// not lag a full window of mixed samples.
    #[test]
    fn shift_reset_reconverges_within_bounded_reoptimizations() {
        let shift_cfg = OnlineConfig {
            window: 2_000,
            reoptimize_every: 250,
            ..cfg()
        };
        // Reference: the steady-state delay on the slow regime alone.
        let mut reference = OnlineAdapter::new(shift_cfg);
        let mut rng = seeded(13);
        let slow = Exponential::new(0.1);
        for _ in 0..8_000 {
            reference.observe_primary(slow.sample(&mut rng));
        }
        let d_ref = reference.policy().delay;
        assert!(d_ref > 0.0);

        // Adapter under test: converge on the fast regime, then step.
        let mut a = OnlineAdapter::new(shift_cfg);
        let fast = Exponential::new(1.0);
        for _ in 0..4_000 {
            a.observe_primary(fast.sample(&mut rng));
        }
        assert_eq!(a.shift_resets(), 0, "stationary stream must not trip");
        let d_fast = a.policy().delay;
        assert!(d_fast < 0.5 * d_ref);
        // Post-shift: within 3 re-optimization periods the delay must
        // reach the slow regime's neighborhood. Without the reset the
        // window is still ≥ 60% stale fast-regime samples at that
        // point and the damped update has moved at most 7/8 of the way
        // toward optima computed on the *mixture* — far short.
        let bound = 3 * shift_cfg.reoptimize_every;
        let mut seen = 0;
        while seen < bound && a.policy().delay < 0.6 * d_ref {
            a.observe_primary(slow.sample(&mut rng));
            seen += 1;
        }
        assert!(
            a.policy().delay >= 0.6 * d_ref,
            "delay {} failed to reach 0.6×{d_ref} within {bound} post-shift samples",
            a.policy().delay
        );
        assert!(a.shift_resets() >= 1, "the step change must trip a reset");
        assert!(a.policy().budget_used <= 0.1 + 1e-9);

        // Downward step re-converges too (the P25 side of the
        // detector).
        for _ in 0..4_000 {
            a.observe_primary(slow.sample(&mut rng));
        }
        let resets_before = a.shift_resets();
        let mut seen = 0;
        while seen < bound && a.policy().delay > 2.0 * d_fast {
            a.observe_primary(fast.sample(&mut rng));
            seen += 1;
        }
        assert!(
            a.policy().delay <= 2.0 * d_fast,
            "downward shift: delay {} stuck above 2×{d_fast}",
            a.policy().delay
        );
        assert!(a.shift_resets() > resets_before);
    }

    #[test]
    fn stationary_streams_do_not_trip_shift_resets() {
        // The bimodal band-stall workload is the adversarial case for
        // location-based detectors; the quartile sign test must hold.
        let mut a = OnlineAdapter::new(OnlineConfig {
            window: 2_000,
            reoptimize_every: 250,
            ..cfg()
        });
        let mut rng = seeded(14);
        for _ in 0..20_000 {
            let (x, _) = band_stall_pair(&mut rng);
            a.observe_primary(x);
        }
        assert_eq!(a.shift_resets(), 0, "stationary bimodal stream tripped");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The windows against a from-scratch oracle, the last `window`
        /// primaries (the last [`SHIFT_RECENT`] right after a reset):
        /// after every step of a mixed stream with ties and one upward
        /// regime shift, `window_quantile` is `metrics::quantile` of
        /// the oracle and the live policy's `outstanding_at_delay` is
        /// its `1 − Pr(X < d)`.
        #[test]
        fn windows_match_a_from_scratch_oracle(
            steps in proptest::collection::vec((0u8..5, 0u32..40, 0u32..40), 600..900),
            shift_at in 200usize..400,
        ) {
            let window = 128;
            let mut a = OnlineAdapter::new(OnlineConfig {
                window,
                reoptimize_every: 16,
                min_pairs: 32,
                ..cfg()
            });
            let mut oracle: VecDeque<f64> = VecDeque::new();
            let mut resets = 0;
            for (i, (kind, x, y)) in steps.into_iter().enumerate() {
                // Coarse values before the shift force ties; after it,
                // nearly distinct ones let the detector's quartile count
                // reach its threshold.
                let (x, y) = if i < shift_at {
                    (f64::from(x), f64::from(y) * 0.5)
                } else {
                    (1e3 + 50.0 * f64::from(x) + f64::from(y) / 40.0, f64::from(y) * 0.5)
                };
                match kind {
                    0 => a.observe_primary(x),
                    1 => a.observe_reissue(y),
                    2 => a.observe_pair(x, ReissueOutcome::Completed(y)),
                    3 => a.observe_pair(x, ReissueOutcome::Censored(y)),
                    _ => a.observe_pair_censored_primary(x, y),
                }
                // Kinds 1 and 4 carry no exact primary.
                if kind != 1 && kind != 4 {
                    oracle.push_back(x);
                    if oracle.len() > window {
                        oracle.pop_front();
                    }
                }
                if a.shift_resets() > resets {
                    resets = a.shift_resets();
                    while oracle.len() > SHIFT_RECENT {
                        oracle.pop_front();
                    }
                }
                let win: Vec<f64> = oracle.iter().copied().collect();
                prop_assert_eq!(a.window_len(), win.len());
                for p in [0.0, 0.25, 0.5, 0.75, 0.99, 1.0] {
                    let want = (!win.is_empty()).then(|| quantile(&win, p));
                    prop_assert_eq!(a.window_quantile(p), want);
                }
                let policy = a.policy();
                let want = if win.is_empty() {
                    0.0
                } else {
                    let below = win.iter().filter(|&&v| v < policy.delay).count();
                    1.0 - below as f64 / win.len() as f64
                };
                prop_assert_eq!(policy.outstanding_at_delay, want);
            }
            prop_assert!(resets >= 1, "the stream must cross a regime-shift reset");
            prop_assert_eq!(a.window_quantile(1.5), None);
        }
    }
}
