//! Vendored, `std`-only shim for the subset of `proptest` this
//! workspace uses (see `crates/compat/README.md`).
//!
//! Supports the `proptest! { #[test] fn name(x in strategy, ..) {..} }`
//! macro with range, tuple, `any::<bool>()` and `collection::vec`
//! strategies, plus `prop_assert!`/`prop_assert_eq!`. Inputs are drawn
//! from a deterministic per-test RNG (seeded from the test name), so
//! runs are reproducible. **No shrinking**: a failing case panics with
//! the case index; re-running reproduces it exactly.

#![forbid(unsafe_code)]

/// Number of cases to run per property (the real crate's default is
/// 256; this shim defaults to the same).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Cases per property test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The RNG driving input generation (xorshift64*; deterministic).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from an arbitrary string (e.g. the test path).
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng { state: h | 1 }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// A generator of test inputs.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one input.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128 % span) as i128;
                (self.start as i128 + v) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128 % span) as i128;
                (lo as i128 + v) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty strategy range");
        let max = (1u64 << 53) - 1;
        let u = (rng.next_u64() >> 11) as f64 / max as f64;
        lo + u * (hi - lo)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Marker strategy for [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// The full-domain strategy for `T` (provided for the types the
/// workspace draws).
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        // Finite, sign-balanced, spanning many magnitudes.
        let mag = (-300.0 + 600.0 * rng.unit_f64()) / 10.0;
        let v = 10f64.powf(mag);
        if rng.next_u64() & 1 == 1 {
            -v
        } else {
            v
        }
    }
}

impl Strategy for Any<u64> {
    type Value = u64;
    fn generate(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Strategy for Any<u32> {
    type Value = u32;
    fn generate(&self, rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

pub mod collection {
    //! Collection strategies.

    use super::{Strategy, TestRng};

    /// Strategy producing `Vec`s of `element` with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`fn@vec`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            assert!(self.size.start < self.size.end, "empty vec size range");
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Single-glob import surface, mirroring `proptest::prelude`.
    pub use crate::collection;
    pub use crate::{any, Any, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Property-test macro: runs the body for `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::from_name(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for case in 0..config.cases {
                    let run = || {
                        $(let $pat = $crate::Strategy::generate(&$strat, &mut rng);)+
                        $body
                    };
                    if let Err(panic) = std::panic::catch_unwind(
                        std::panic::AssertUnwindSafe(run),
                    ) {
                        eprintln!(
                            "proptest case {case}/{} failed in {}",
                            config.cases,
                            stringify!($name)
                        );
                        std::panic::resume_unwind(panic);
                    }
                }
            }
        )+
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        )+
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($pat in $strat),+) $body
            )+
        }
    };
}

/// Skips the current case when the assumption does not hold. (The real
/// crate re-draws; this shim simply returns from the case body, which
/// is equivalent for statistical assertions.)
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !$cond {
            return;
        }
    };
}

/// `assert!` under a property (no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_respect_bounds(
            x in 1u32..10,
            y in -5i32..=5,
            f in 0.25f64..0.75,
        ) {
            prop_assert!((1..10).contains(&x));
            prop_assert!((-5..=5).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vecs_and_tuples(
            v in collection::vec((any::<bool>(), 0u64..100), 0..20),
            mut w in collection::vec(0.0f64..1.0, 1..5),
        ) {
            prop_assert!(v.len() < 20);
            for (_, n) in &v {
                prop_assert!(*n < 100);
            }
            w.push(0.5);
            prop_assert!(!w.is_empty());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::from_name("x");
        let mut b = TestRng::from_name("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
