//! Client-side load sensing for utilization-aware hedging.
//!
//! Redundancy's benefit flips sign with load: hedging rescues
//! stragglers while the cluster has slack, and *creates* stragglers
//! once it is saturated (Shah et al., "When Do Redundant Requests
//! Reduce Latency?"). The [`crate::online::OnlineAdapter`] optimizes
//! `(d, q)` from latency samples alone, so without a load signal it
//! keeps reissuing into the very queues that produce the latencies it
//! observes — positive feedback that can hedge a saturated cluster
//! into collapse.
//!
//! This module closes that loop from the *client side only* — no
//! server cooperation, no configured capacity number:
//!
//! * [`LoadSignal`] — an aggregate estimator the serving client feeds
//!   on every dispatch and completion. It maintains an offered-rate
//!   EWMA `λ̂` over inter-dispatch gaps (counting **every attempt**,
//!   reissues included, so hedging's own load contribution is priced
//!   in), an in-flight EWMA, a latency EWMA `W̄`, and a mean-service
//!   estimate `S̄` calibrated while the cluster is visibly unqueued.
//!   [`LoadSignal::utilization`] combines them into an estimate
//!   `ρ̂ = max(λ̂·S̄/n, 1 − S̄/W̄)` — a throughput-side and a
//!   queueing-delay-side estimator whose biases point in opposite
//!   directions (for an M/M/1, `1 − S/W` *equals* ρ).
//! * [`LoadShaper`] — the damping rule that turns `ρ̂` into an
//!   effective reissue budget multiplier: full budget below
//!   [`LoadShaper::rho_knee`], zero at [`LoadShaper::rho_max`], a
//!   power-law ramp in between. Running the optimizer at the damped
//!   budget both shrinks `q` and deepens `d` (a smaller budget buys a
//!   deeper optimal delay), recovering static-optimal behavior at both
//!   ends of a load sweep.
//!
//! ## Estimator details and failure modes
//!
//! The latency EWMA `W̄` is fed the **median of the last three raw
//! samples**, not the samples themselves: interactive workloads are
//! heavy-tailed (the §6.2 trace carries a 1-in-500 "query of death"
//! ~60× the mean), and a single monster completion fed straight into a
//! mean-style EWMA inflates `W̄` — and through it both `S̄` and `ρ̂` —
//! for dozens of subsequent samples, reading a mostly-idle cluster as
//! saturated. The median-of-3 rejects any isolated spike outright,
//! while genuine queueing (which raises *every* sample) passes through
//! with at most two samples of lag. The filtered `W̄` slightly
//! under-weights true heavy-tail service mass, biasing `ρ̂` low — the
//! keep-hedging side, which is exactly where heavy tails want hedging.
//!
//! The mean service time `S̄` is the one quantity a client cannot read
//! off a saturated cluster: observed latency is service *plus*
//! queueing. `S̄` therefore tracks the latency EWMA only while the
//! in-flight EWMA says queues are essentially empty (fewer than
//! `UNQUEUED_PER_REPLICA` outstanding queries per replica), and is
//! otherwise frozen except for downward snaps (`S̄` may never exceed an
//! observed `W̄`). Consequences, both in the safe direction:
//!
//! * a run that *starts* saturated calibrates `S̄` from queued
//!   latencies, over-estimates ρ̂ and over-damps — hedging stays off
//!   until the overload clears, which is the correct failure mode;
//! * a genuine service-time slowdown under load reads as queueing
//!   until load drops enough to recalibrate.
//!
//! All methods take `&self` and are thread-safe; the estimator state
//! sits behind one short-critical-section mutex (the serving client
//! already serializes per-completion on its policy lock) with the
//! current ρ̂ cached in an atomic so readers never block.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// EWMA weight for completion latency (`W̄`).
const LATENCY_ALPHA: f64 = 0.05;
/// EWMA weight for inter-dispatch gaps (the offered-rate estimate).
const RATE_ALPHA: f64 = 0.02;
/// EWMA weight for the in-flight level, sampled at dispatch and
/// completion events.
const INFLIGHT_ALPHA: f64 = 0.05;
/// EWMA weight for the mean-service estimate `S̄` while calibrating
/// (tracking `W̄` during unqueued stretches).
const SERVICE_ALPHA: f64 = 0.1;
/// In-flight queries per replica below which the cluster is treated as
/// unqueued, so observed latency ≈ service time and `S̄` may track
/// `W̄`. Above it `S̄` freezes (downward snaps excepted).
const UNQUEUED_PER_REPLICA: f64 = 0.45;
/// Completions before [`LoadSignal::utilization`] reports a non-zero
/// estimate (an uncalibrated `S̄` would damp on noise).
const WARMUP_COMPLETIONS: u64 = 32;

/// Damping rule mapping estimated utilization ρ̂ to a multiplier on
/// the reissue budget (see [`LoadShaper::damping`]).
///
/// `damping(ρ̂)` is `1` at or below `rho_knee`, `0` at or above
/// `rho_max`, and `((rho_max − ρ̂) / (rho_max − rho_knee))^gamma` in
/// between — continuous, monotone non-increasing, and fully off before
/// the estimate reaches saturation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadShaper {
    /// Utilization at or below which the full budget applies.
    pub rho_knee: f64,
    /// Utilization at or above which hedging is fully damped (budget
    /// multiplier 0).
    pub rho_max: f64,
    /// Curvature of the ramp between the two (≥ 1 damps early).
    pub gamma: f64,
}

impl Default for LoadShaper {
    /// Full budget through ρ̂ ≤ 0.55, off at ρ̂ ≥ 0.95, quadratic ramp
    /// between — at ρ̂ = 0.75 the budget is quartered.
    fn default() -> Self {
        LoadShaper {
            rho_knee: 0.55,
            rho_max: 0.95,
            gamma: 2.0,
        }
    }
}

impl LoadShaper {
    /// The budget multiplier at estimated utilization `rho` (clamped
    /// to `[0, 1]` first). Monotone non-increasing in `rho`.
    ///
    /// # Panics
    /// Panics if the shaper is misconfigured (`rho_knee ≥ rho_max`,
    /// out-of-range bounds, or non-positive `gamma`).
    pub fn damping(&self, rho: f64) -> f64 {
        self.validate();
        let rho = if rho.is_nan() {
            0.0
        } else {
            rho.clamp(0.0, 1.0)
        };
        if rho <= self.rho_knee {
            1.0
        } else if rho >= self.rho_max {
            0.0
        } else {
            ((self.rho_max - rho) / (self.rho_max - self.rho_knee)).powf(self.gamma)
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.rho_knee)
                && self.rho_max <= 1.0
                && self.rho_knee < self.rho_max,
            "need 0 <= rho_knee < rho_max <= 1, got knee {} max {}",
            self.rho_knee,
            self.rho_max
        );
        assert!(
            self.gamma > 0.0 && self.gamma.is_finite(),
            "gamma must be positive and finite, got {}",
            self.gamma
        );
    }
}

/// A point-in-time view of every estimator inside a [`LoadSignal`]
/// (see [`LoadSignal::snapshot`]). Uncalibrated estimators read as
/// `NaN`.
#[derive(Clone, Copy, Debug)]
pub struct LoadSnapshot {
    /// Estimated offered attempt rate (dispatches/s, reissues
    /// included).
    pub offered_qps: f64,
    /// Queries currently outstanding.
    pub in_flight: usize,
    /// EWMA of the in-flight level.
    pub in_flight_ewma: f64,
    /// EWMA of completion latency `W̄`, ms.
    pub latency_ewma_ms: f64,
    /// Calibrated mean-service estimate `S̄`, ms.
    pub service_est_ms: f64,
    /// The combined utilization estimate ρ̂ in `[0, 1]` (0 during
    /// warm-up).
    pub utilization: f64,
    /// Completions observed so far.
    pub completions: u64,
    /// Dispatches observed so far (attempts: primaries + reissues).
    pub dispatches: u64,
}

#[derive(Debug)]
struct SignalState {
    /// Nanos-since-anchor of the previous dispatch, if any.
    last_dispatch_nanos: Option<u64>,
    /// EWMA of inter-dispatch gaps, µs (`NaN` until two dispatches).
    gap_ewma_us: f64,
    /// EWMA of completion latency, ms (`NaN` until one completion).
    latency_ewma_ms: f64,
    /// Ring of the last up-to-3 raw latency samples, ms: the EWMA is
    /// fed the *median* of this window, so one heavy-tailed outlier (a
    /// "query of death" 60× the mean) never reaches `W̄` — while
    /// sustained elevation (real queueing raises *every* sample)
    /// passes through with at most two samples of lag.
    recent_ms: [f64; 3],
    /// Calibrated mean-service estimate, ms (`NaN` until one
    /// completion).
    service_est_ms: f64,
    /// EWMA of the in-flight level at dispatch/completion events.
    in_flight_ewma: f64,
    completions: u64,
    dispatches: u64,
}

/// Aggregate client-side load estimator (see the module docs for the
/// estimator design). Feed it [`note_dispatch`](Self::note_dispatch)
/// for every attempt put on the wire, and bracket each *query* with
/// [`query_start`](Self::query_start) /
/// [`query_end`](Self::query_end); read
/// [`utilization`](Self::utilization) any time.
#[derive(Debug)]
pub struct LoadSignal {
    /// Capacity units the offered rate is normalized by (replica
    /// count).
    replicas: usize,
    /// Wall-clock anchor for the dispatch clock.
    anchor: Instant,
    /// Queries outstanding right now (started, not yet ended).
    in_flight: AtomicUsize,
    /// Cached ρ̂ (f64 bits) so readers never take the state lock.
    rho_bits: AtomicU64,
    state: Mutex<SignalState>,
}

impl LoadSignal {
    /// Creates a signal normalizing offered load by `replicas`
    /// capacity units.
    ///
    /// # Panics
    /// Panics if `replicas == 0`.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas > 0, "need at least one replica");
        LoadSignal {
            replicas,
            anchor: Instant::now(),
            in_flight: AtomicUsize::new(0),
            rho_bits: AtomicU64::new(0.0f64.to_bits()),
            state: Mutex::new(SignalState {
                last_dispatch_nanos: None,
                gap_ewma_us: f64::NAN,
                latency_ewma_ms: f64::NAN,
                recent_ms: [f64::NAN; 3],
                service_est_ms: f64::NAN,
                in_flight_ewma: 0.0,
                completions: 0,
                dispatches: 0,
            }),
        }
    }

    /// Records one attempt put on the wire — call for the primary
    /// *and* every reissue, so the rate estimate prices in hedging's
    /// own load contribution.
    pub fn note_dispatch(&self) {
        let nanos = self.anchor.elapsed().as_nanos() as u64;
        self.note_dispatch_at(nanos);
    }

    fn note_dispatch_at(&self, nanos: u64) {
        let mut st = self.state.lock().unwrap();
        if let Some(prev) = st.last_dispatch_nanos {
            let gap_us = nanos.saturating_sub(prev) as f64 / 1e3;
            st.gap_ewma_us = ewma(st.gap_ewma_us, gap_us, RATE_ALPHA);
        }
        st.last_dispatch_nanos = Some(nanos);
        st.dispatches += 1;
        let inflight = self.in_flight.load(Ordering::Relaxed) as f64;
        st.in_flight_ewma = ewma_init0(st.in_flight_ewma, inflight, INFLIGHT_ALPHA);
        self.publish_rho(&st);
    }

    /// Marks one query outstanding (call once per `execute`, before
    /// the primary dispatch).
    pub fn query_start(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one query resolved. Pass its end-to-end latency for a
    /// completion, `None` for a transport failure (which still
    /// releases the in-flight slot but carries no latency sample).
    ///
    /// # Panics
    /// Panics on a non-finite or negative latency.
    pub fn query_end(&self, latency_ms: Option<f64>) {
        // Saturating: a stray end without a start must not wrap.
        let _ = self
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        let mut st = self.state.lock().unwrap();
        let inflight = self.in_flight.load(Ordering::Relaxed) as f64;
        st.in_flight_ewma = ewma_init0(st.in_flight_ewma, inflight, INFLIGHT_ALPHA);
        if let Some(ms) = latency_ms {
            assert!(ms.is_finite() && ms >= 0.0, "latency must be finite, >= 0");
            st.completions += 1;
            // Median-of-3 pre-filter: an isolated spike (heavy-tailed
            // service, not load) is rejected outright; genuine
            // queueing raises every sample and passes the median.
            // With one sample the median is the sample; with two it is
            // their min (biasing low — the safe, keep-hedging side).
            let slot = (st.completions as usize - 1) % 3;
            st.recent_ms[slot] = ms;
            let med = median3(st.recent_ms);
            st.latency_ewma_ms = ewma(st.latency_ewma_ms, med, LATENCY_ALPHA);
            // Calibrate S̄ only while queues are visibly empty;
            // otherwise W̄ includes queueing delay and tracking it
            // would launder congestion into the capacity estimate.
            // Downward snaps are always allowed: mean service can
            // never exceed mean observed latency.
            let unqueued = st.in_flight_ewma <= UNQUEUED_PER_REPLICA * self.replicas as f64;
            if st.service_est_ms.is_nan() || unqueued {
                st.service_est_ms = ewma(st.service_est_ms, st.latency_ewma_ms, SERVICE_ALPHA);
            } else if st.latency_ewma_ms < st.service_est_ms {
                st.service_est_ms = st.latency_ewma_ms;
            }
        }
        self.publish_rho(&st);
    }

    /// The current utilization estimate ρ̂ ∈ `[0, 1]` — `0` until
    /// `WARMUP_COMPLETIONS` completions have calibrated the
    /// estimators. Lock-free read of the cached value.
    pub fn utilization(&self) -> f64 {
        f64::from_bits(self.rho_bits.load(Ordering::Relaxed))
    }

    /// A consistent snapshot of every estimator, for reporting.
    pub fn snapshot(&self) -> LoadSnapshot {
        let st = self.state.lock().unwrap();
        LoadSnapshot {
            offered_qps: if st.gap_ewma_us.is_nan() {
                f64::NAN
            } else {
                1e6 / st.gap_ewma_us.max(1e-3)
            },
            in_flight: self.in_flight.load(Ordering::Relaxed),
            in_flight_ewma: st.in_flight_ewma,
            latency_ewma_ms: st.latency_ewma_ms,
            service_est_ms: st.service_est_ms,
            utilization: self.utilization(),
            completions: st.completions,
            dispatches: st.dispatches,
        }
    }

    /// Recomputes ρ̂ from the locked state and publishes it.
    fn publish_rho(&self, st: &SignalState) {
        let rho = self.estimate_rho(st);
        self.rho_bits.store(rho.to_bits(), Ordering::Relaxed);
    }

    fn estimate_rho(&self, st: &SignalState) -> f64 {
        if st.completions < WARMUP_COMPLETIONS
            || st.gap_ewma_us.is_nan()
            || st.service_est_ms.is_nan()
        {
            return 0.0;
        }
        let qps = 1e6 / st.gap_ewma_us.max(1e-3);
        // Throughput side: offered attempt-rate × mean service over
        // capacity. Exact when S̄ is calibrated; over-estimates (safe)
        // when S̄ absorbed queueing delay.
        let rho_rate = qps * (st.service_est_ms / 1e3) / self.replicas as f64;
        // Queueing-delay side: for an M/M/1, W = S/(1−ρ), so
        // 1 − S/W = ρ exactly; under-estimates when S̄ is inflated —
        // the two biases point in opposite directions, so take the
        // max.
        let rho_wait = if st.latency_ewma_ms > 0.0 {
            1.0 - st.service_est_ms / st.latency_ewma_ms
        } else {
            0.0
        };
        rho_rate.max(rho_wait).clamp(0.0, 1.0)
    }
}

/// EWMA step seeding from the first sample.
fn ewma(cur: f64, sample: f64, alpha: f64) -> f64 {
    if cur.is_nan() {
        sample
    } else {
        cur + alpha * (sample - cur)
    }
}

/// EWMA step for estimators that start at a meaningful zero.
fn ewma_init0(cur: f64, sample: f64, alpha: f64) -> f64 {
    cur + alpha * (sample - cur)
}

/// Median of the filled (non-`NaN`) portion of the 3-slot latency
/// ring: one sample is itself, two is their min (biasing low — the
/// keep-hedging side), three is the true median.
fn median3(w: [f64; 3]) -> f64 {
    let mut v: Vec<f64> = w.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    match v.len() {
        1 => v[0],
        2 => v[0],
        _ => v[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `n` synthetic queries through the signal: one dispatch
    /// every `gap_us`, each completing `latency_ms` later, never more
    /// than one in flight (so the signal calibrates as unqueued).
    fn drive_sequential(sig: &LoadSignal, n: usize, gap_us: u64, latency_ms: f64) {
        let mut nanos = 0u64;
        for _ in 0..n {
            sig.query_start();
            sig.note_dispatch_at(nanos);
            sig.query_end(Some(latency_ms));
            nanos += gap_us * 1_000;
        }
    }

    #[test]
    fn warmup_reports_zero() {
        let sig = LoadSignal::new(3);
        assert_eq!(sig.utilization(), 0.0);
        drive_sequential(&sig, (WARMUP_COMPLETIONS - 2) as usize, 1_000, 1.0);
        assert_eq!(sig.utilization(), 0.0, "still warming up");
    }

    #[test]
    fn low_load_estimates_near_true_utilization() {
        // 3 replicas, 1 ms service, one dispatch per ms → ρ = 1/3.
        let sig = LoadSignal::new(3);
        drive_sequential(&sig, 500, 1_000, 1.0);
        let rho = sig.utilization();
        assert!(
            (rho - 1.0 / 3.0).abs() < 0.08,
            "expected ρ̂ ≈ 0.33, got {rho}"
        );
        let snap = sig.snapshot();
        assert!((snap.offered_qps - 1_000.0).abs() < 50.0);
        assert!((snap.service_est_ms - 1.0).abs() < 0.1);
        assert_eq!(snap.in_flight, 0);
    }

    #[test]
    fn saturation_drives_estimate_up_without_recalibrating_service() {
        let sig = LoadSignal::new(3);
        // Calibrate at low load: S̄ ≈ 1 ms.
        drive_sequential(&sig, 300, 1_000, 1.0);
        // Saturate: dispatches every 350 µs (offered ρ ≈ 0.95) with
        // queued latencies of 8 ms and a deep in-flight backlog.
        let mut nanos = 300 * 1_000_000u64;
        for _ in 0..16 {
            sig.query_start();
        }
        for _ in 0..600 {
            sig.query_start();
            sig.note_dispatch_at(nanos);
            sig.query_end(Some(8.0));
            nanos += 350 * 1_000;
        }
        let rho = sig.utilization();
        assert!(rho > 0.8, "saturated estimate should be high, got {rho}");
        let snap = sig.snapshot();
        assert!(
            snap.service_est_ms < 2.0,
            "S̄ must not absorb queueing delay, got {} ms",
            snap.service_est_ms
        );
        // Load falls again: the estimate must come back down.
        for _ in 0..616 {
            sig.query_end(None);
        }
        let mut nanos = nanos + 1_000_000;
        for _ in 0..600 {
            sig.query_start();
            sig.note_dispatch_at(nanos);
            sig.query_end(Some(1.0));
            nanos += 1_000 * 1_000;
        }
        let rho = sig.utilization();
        assert!(rho < 0.55, "estimate must recover after the peak: {rho}");
    }

    #[test]
    fn isolated_spikes_do_not_inflate_the_estimate() {
        // 1-in-50 monster completions 60× the mean, cluster otherwise
        // at ρ = 1/3: the median-of-3 filter must keep ρ̂ near truth
        // instead of reading the heavy tail as saturation.
        let sig = LoadSignal::new(3);
        let mut nanos = 0u64;
        for i in 0..1_000 {
            sig.query_start();
            sig.note_dispatch_at(nanos);
            let ms = if i % 50 == 0 { 60.0 } else { 1.0 };
            sig.query_end(Some(ms));
            nanos += 1_000 * 1_000;
        }
        let rho = sig.utilization();
        assert!(
            (rho - 1.0 / 3.0).abs() < 0.1,
            "heavy-tailed spikes must not inflate ρ̂: got {rho}"
        );
        let snap = sig.snapshot();
        assert!(
            snap.latency_ewma_ms < 2.0,
            "W̄ must reject isolated spikes, got {} ms",
            snap.latency_ewma_ms
        );
    }

    #[test]
    fn failures_release_in_flight_without_latency_samples() {
        let sig = LoadSignal::new(2);
        sig.query_start();
        sig.query_start();
        assert_eq!(sig.snapshot().in_flight, 2);
        sig.query_end(None);
        sig.query_end(None);
        sig.query_end(None); // stray end must not wrap
        assert_eq!(sig.snapshot().in_flight, 0);
        assert_eq!(sig.snapshot().completions, 0);
    }

    #[test]
    fn shaper_damping_shape() {
        let s = LoadShaper::default();
        assert_eq!(s.damping(0.0), 1.0);
        assert_eq!(s.damping(s.rho_knee), 1.0);
        assert_eq!(s.damping(s.rho_max), 0.0);
        assert_eq!(s.damping(1.0), 0.0);
        assert_eq!(s.damping(f64::NAN), 1.0, "NaN reads as unloaded");
        // Quadratic ramp: at the midpoint the multiplier is 1/4.
        let mid = (s.rho_knee + s.rho_max) / 2.0;
        assert!((s.damping(mid) - 0.25).abs() < 1e-12);
        // Monotone non-increasing across the whole range.
        let mut prev = 1.0;
        for i in 0..=100 {
            let d = s.damping(i as f64 / 100.0);
            assert!(d <= prev + 1e-12, "damping must be monotone");
            prev = d;
        }
    }

    #[test]
    #[should_panic(expected = "rho_knee < rho_max")]
    fn shaper_rejects_inverted_bounds() {
        let _ = LoadShaper {
            rho_knee: 0.9,
            rho_max: 0.5,
            gamma: 2.0,
        }
        .damping(0.5);
    }
}
