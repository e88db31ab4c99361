//! Reissue policy families: SingleD, SingleR, DoubleR and MultipleR.

use rand::rngs::SmallRng;
use rand::Rng;

/// One reissue stage of a [`ReissuePolicy`]: at time `delay` after the
/// primary dispatch, if the query has not completed, send one reissue
/// request with probability `prob`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stage {
    /// Reissue delay `d ≥ 0` measured from the primary dispatch.
    pub delay: f64,
    /// Reissue probability `q ∈ [0, 1]`.
    pub prob: f64,
}

impl Stage {
    /// Creates a stage, validating its parameters.
    ///
    /// # Panics
    /// Panics if `delay` is negative/NaN or `prob ∉ [0, 1]`.
    pub fn new(delay: f64, prob: f64) -> Self {
        assert!(delay >= 0.0 && delay.is_finite(), "stage delay must be ≥ 0");
        assert!((0.0..=1.0).contains(&prob), "stage prob must be in [0,1]");
        Stage { delay, prob }
    }

    /// Flips this stage's coin for one query: heads with probability
    /// `prob`. Draws one uniform from `rng` if and only if
    /// `0 < prob < 1`, so a deterministic stage leaves the stream
    /// untouched. The runtime and the simulator both flip through here.
    pub fn flip(&self, rng: &mut SmallRng) -> bool {
        self.prob >= 1.0 || (self.prob > 0.0 && rng.gen::<f64>() < self.prob)
    }
}

/// A reissue policy, as defined in §2–§3 of the paper.
///
/// All variants are special cases of MultipleR:
///
/// | Family    | Stages | Constraint            | Paper section |
/// |-----------|--------|-----------------------|---------------|
/// | `None`    | 0      | —                     | baseline      |
/// | `SingleD` | 1      | `q = 1`               | §2.2          |
/// | `SingleR` | 1      | —                     | §2.3          |
/// | `MultipleR` | n    | delays non-decreasing | §3.1          |
///
/// The paper's headline theorem (Thm 3.2) shows the optimal `MultipleR`
/// policy is matched by a `SingleR` policy with the same budget, so
/// production systems only ever need `SingleR`; the other families exist
/// for baselines and for validating the theorem numerically.
#[derive(Clone, Debug, PartialEq)]
pub enum ReissuePolicy {
    /// Never reissue.
    None,
    /// Reissue once, deterministically, after `delay` — the "delayed
    /// reissue" / hedged-request strategy of Dean & Barroso.
    SingleD {
        /// Reissue delay.
        delay: f64,
    },
    /// Reissue once after `delay` with probability `prob` — the paper's
    /// SingleR family.
    SingleR {
        /// Reissue delay.
        delay: f64,
        /// Reissue probability.
        prob: f64,
    },
    /// Reissue up to `stages.len()` times; stage `i` fires at its delay
    /// (if the query is still incomplete) with its own probability.
    MultipleR {
        /// The reissue stages, ordered by non-decreasing delay.
        stages: Vec<Stage>,
    },
}

impl ReissuePolicy {
    /// Immediate reissue of all requests (`d = 0`, `q = 1`) — the
    /// "immediate reissue" strategy of prior work, for low-load systems.
    pub fn immediate() -> Self {
        ReissuePolicy::SingleR {
            delay: 0.0,
            prob: 1.0,
        }
    }

    /// Convenience constructor for [`ReissuePolicy::SingleR`].
    ///
    /// # Panics
    /// Panics on invalid parameters (see [`Stage::new`]).
    pub fn single_r(delay: f64, prob: f64) -> Self {
        let s = Stage::new(delay, prob);
        ReissuePolicy::SingleR {
            delay: s.delay,
            prob: s.prob,
        }
    }

    /// Convenience constructor for [`ReissuePolicy::SingleD`].
    ///
    /// # Panics
    /// Panics on a negative or NaN delay.
    pub fn single_d(delay: f64) -> Self {
        let s = Stage::new(delay, 1.0);
        ReissuePolicy::SingleD { delay: s.delay }
    }

    /// Convenience constructor for a two-stage policy (the paper's
    /// DoubleR family).
    ///
    /// # Panics
    /// Panics on invalid stages or `d2 < d1`.
    pub fn double_r(d1: f64, q1: f64, d2: f64, q2: f64) -> Self {
        assert!(d2 >= d1, "DoubleR requires d2 ≥ d1");
        ReissuePolicy::MultipleR {
            stages: vec![Stage::new(d1, q1), Stage::new(d2, q2)],
        }
    }

    /// Builds a MultipleR policy from stages, validating ordering.
    ///
    /// # Panics
    /// Panics if delays are not non-decreasing or any stage is
    /// invalid.
    pub fn multiple_r(stages: Vec<(f64, f64)>) -> Self {
        let stages: Vec<Stage> = stages.iter().map(|&(d, q)| Stage::new(d, q)).collect();
        assert!(
            stages.windows(2).all(|w| w[0].delay <= w[1].delay),
            "MultipleR stage delays must be non-decreasing"
        );
        ReissuePolicy::MultipleR { stages }
    }

    /// The policy's stages as a uniform slice-backed view.
    pub fn stages(&self) -> Vec<Stage> {
        match self {
            ReissuePolicy::None => Vec::new(),
            ReissuePolicy::SingleD { delay } => vec![Stage::new(*delay, 1.0)],
            ReissuePolicy::SingleR { delay, prob } => vec![Stage::new(*delay, *prob)],
            ReissuePolicy::MultipleR { stages } => stages.clone(),
        }
    }

    /// Samples a reissue *schedule* for one query: the delays of the
    /// stages whose probability coin came up heads, in non-decreasing
    /// order. The executor must still check, when each delay elapses,
    /// whether the query is already complete (a won coin toss does not
    /// by itself consume budget — see Equation 4).
    ///
    /// Flipping all coins up-front is distributionally identical to
    /// flipping at fire time, because the coins are independent of the
    /// completion status, and it lets the simulator schedule timer
    /// events at arrival. Each stage flips through [`Stage::flip`].
    pub fn sample_schedule(&self, rng: &mut SmallRng) -> Vec<f64> {
        let mut flip = |s: Stage| s.flip(rng).then_some(s.delay);
        match *self {
            ReissuePolicy::None => Vec::new(),
            ReissuePolicy::SingleD { delay } => Vec::from_iter(flip(Stage { delay, prob: 1.0 })),
            ReissuePolicy::SingleR { delay, prob } => Vec::from_iter(flip(Stage { delay, prob })),
            ReissuePolicy::MultipleR { ref stages } => {
                stages.iter().filter_map(|&s| flip(s)).collect()
            }
        }
    }
}

impl std::fmt::Display for ReissuePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReissuePolicy::None => write!(f, "None"),
            ReissuePolicy::SingleD { delay } => write!(f, "SingleD(d={delay:.3})"),
            ReissuePolicy::SingleR { delay, prob } => {
                write!(f, "SingleR(d={delay:.3}, q={prob:.3})")
            }
            ReissuePolicy::MultipleR { stages } => {
                write!(f, "MultipleR[")?;
                for (i, s) in stages.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(d={:.3}, q={:.3})", s.delay, s.prob)?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    #[test]
    fn stages_normalization() {
        assert!(ReissuePolicy::None.stages().is_empty());
        assert_eq!(
            ReissuePolicy::single_d(5.0).stages(),
            vec![Stage::new(5.0, 1.0)]
        );
        assert_eq!(
            ReissuePolicy::single_r(5.0, 0.3).stages(),
            vec![Stage::new(5.0, 0.3)]
        );
        let m = ReissuePolicy::multiple_r(vec![(1.0, 0.5), (2.0, 0.25)]);
        assert_eq!(m.stages().len(), 2);
    }

    #[test]
    fn immediate_policy() {
        let p = ReissuePolicy::immediate();
        assert_eq!(p, ReissuePolicy::single_r(0.0, 1.0));
        assert!(p.stages().iter().any(|s| s.prob > 0.0));
    }

    #[test]
    fn schedule_deterministic_extremes() {
        let mut r = rng();
        // q = 1 always schedules, q = 0 never.
        for _ in 0..100 {
            assert_eq!(
                ReissuePolicy::single_r(3.0, 1.0).sample_schedule(&mut r),
                vec![3.0]
            );
            assert!(ReissuePolicy::single_r(3.0, 0.0)
                .sample_schedule(&mut r)
                .is_empty());
        }
    }

    #[test]
    fn schedule_rate_approximates_q() {
        let p = ReissuePolicy::single_r(2.0, 0.3);
        let mut r = rng();
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| !p.sample_schedule(&mut r).is_empty())
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn multiple_r_schedule_sorted() {
        let p = ReissuePolicy::multiple_r(vec![(1.0, 1.0), (2.0, 1.0), (5.0, 1.0)]);
        let mut r = rng();
        let sched = p.sample_schedule(&mut r);
        assert_eq!(sched, vec![1.0, 2.0, 5.0]);
    }

    #[test]
    fn indexed_schedule_tags_surviving_stages() {
        // Middle stage can never fire (q = 0): the schedule must hold
        // the delays of stages 0 and 2 only.
        let p = ReissuePolicy::multiple_r(vec![(1.0, 1.0), (2.0, 0.0), (5.0, 1.0)]);
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(p.sample_schedule(&mut r), vec![1.0, 5.0]);
        }
    }

    #[test]
    fn indexed_schedule_per_stage_rates() {
        // Each stage flips its own independent coin: empirical fire
        // rates must match q per stage (the distinct delays name the
        // stages). 50k trials give a binomial σ ≈ 0.002 at q = 0.7, so
        // ±0.015 is a ~7σ band — tight enough to catch a swapped or
        // shared coin, loose enough to never flake on the pinned seed.
        let p = ReissuePolicy::multiple_r(vec![(1.0, 0.3), (4.0, 0.7)]);
        let mut r = rng();
        let n = 50_000;
        let mut hits = [0usize; 2];
        for _ in 0..n {
            for delay in p.sample_schedule(&mut r) {
                hits[usize::from(delay == 4.0)] += 1;
            }
        }
        for (idx, q) in [(0usize, 0.3), (1, 0.7)] {
            let rate = hits[idx] as f64 / n as f64;
            assert!(
                (rate - q).abs() < 0.015,
                "stage {idx}: rate {rate} vs q {q}"
            );
        }
    }

    /// Builds a valid MultipleR stage vector from raw draws: each
    /// delay is the previous one plus `0.01 +` its draw, so delays
    /// strictly increase and a sampled delay names its stage.
    /// Probabilities are clamped into [0, 1]: draws above 1 saturate,
    /// exercising the deterministic q = 1 path in ~1 in 6 stages.
    fn stages_from_draws(raw: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut delay = 0.0;
        raw.iter()
            .map(|&(step, q)| {
                delay += 0.01 + step;
                (delay, q.min(1.0))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Sampled schedules are order-preserving sub-vectors of the
        /// stage list: delays strictly increasing, each one a stage's.
        #[test]
        fn sampled_schedules_preserve_stage_order(
            raw in proptest::collection::vec((0.0f64..5.0, 0.0f64..1.2), 1..5),
            seed in any::<u64>(),
        ) {
            let stages = stages_from_draws(&raw);
            let policy = ReissuePolicy::multiple_r(stages.clone());
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..64 {
                let sched = policy.sample_schedule(&mut rng);
                for w in sched.windows(2) {
                    prop_assert!(w[0] < w[1], "stages must keep their order");
                }
                for &delay in &sched {
                    prop_assert!(stages.iter().any(|&(d, _)| d == delay), "{delay} is no stage's");
                }
            }
        }

        /// Each stage fires its own independent coin: empirical rates
        /// match q per stage. Tolerance: 2 000 draws give binomial
        /// σ ≤ 0.011, so 4σ + 0.01 slack never flakes on the pinned
        /// per-test RNG but catches a shared or swapped coin (whose
        /// error is O(q)).
        #[test]
        fn sampled_schedules_fire_each_coin_at_its_rate(
            raw in proptest::collection::vec((0.0f64..5.0, 0.0f64..1.2), 1..5),
            seed in any::<u64>(),
        ) {
            let stages = stages_from_draws(&raw);
            let policy = ReissuePolicy::multiple_r(stages.clone());
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 2_000;
            let mut hits = vec![0usize; stages.len()];
            for _ in 0..n {
                for delay in policy.sample_schedule(&mut rng) {
                    hits[stages.iter().position(|&(d, _)| d == delay).unwrap()] += 1;
                }
            }
            for (idx, &(_, q)) in stages.iter().enumerate() {
                let rate = hits[idx] as f64 / f64::from(n);
                let sigma = (q * (1.0 - q) / f64::from(n)).sqrt();
                prop_assert!(
                    (rate - q).abs() <= 4.0 * sigma + 0.01,
                    "stage {idx}: rate {rate} vs q {q}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn multiple_r_unsorted_panics() {
        let _ = ReissuePolicy::multiple_r(vec![(3.0, 0.5), (1.0, 0.5)]);
    }

    #[test]
    #[should_panic(expected = "prob")]
    fn bad_prob_panics() {
        let _ = ReissuePolicy::single_r(1.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "delay")]
    fn bad_delay_panics() {
        let _ = ReissuePolicy::single_r(-1.0, 0.5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ReissuePolicy::None), "None");
        assert_eq!(
            format!("{}", ReissuePolicy::single_r(1.0, 0.25)),
            "SingleR(d=1.000, q=0.250)"
        );
        assert!(
            format!("{}", ReissuePolicy::double_r(1.0, 0.5, 2.0, 0.25)).starts_with("MultipleR[")
        );
    }
}
