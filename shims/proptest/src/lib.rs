//! Offline shim for the subset of `proptest` used by this workspace.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors a deterministic mini property-testing harness with the same
//! surface syntax: the [`proptest!`] macro, range/`Just`/[`prop_oneof!`]
//! /`prop::collection::vec` strategies, `prop_assert*` and
//! [`prop_assume!`]. Each `#[test]` runs its body over
//! `ProptestConfig::cases` pseudo-random samples drawn from a stream
//! seeded by the test's name, so failures reproduce exactly across runs.
//! Shrinking is not implemented — on failure the panic message carries
//! the case number and the harness re-panics with the offending inputs
//! left to the assertion message.

#![forbid(unsafe_code)]

/// Deterministic generator backing all strategies (xorshift64*).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from an arbitrary string (the generated tests pass their
    /// own function name, so every test owns a stable stream).
    pub fn deterministic(tag: &str) -> Self {
        // FNV-1a over the tag, mixed so short tags still spread.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tag.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        Self {
            state: h | 1, // xorshift state must be nonzero
        }
    }

    /// Next raw 64-bit word.
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
}

/// A source of pseudo-random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

/// Strategy producing a constant.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "strategy: empty range");
                let span = (self.end - self.start) as u128;
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "strategy: empty range");
                let span = (hi - lo) as u128 + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}
impl_int_strategy!(usize, u64, u32, u16, u8, i64, i32);

macro_rules! impl_float_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "strategy: empty range");
                self.start + (rng.unit_f64() as $t) * (self.end - self.start)
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (rng.unit_f64() as $t) * (hi - lo)
            }
        }
    )*};
}
impl_float_strategy!(f64, f32);

/// Object-safe sampling, so [`prop_oneof!`] can mix strategy types that
/// share a value type.
pub trait DynStrategy<V> {
    /// Draws one value.
    fn sample_dyn(&self, rng: &mut TestRng) -> V;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn sample_dyn(&self, rng: &mut TestRng) -> S::Value {
        self.sample(rng)
    }
}

/// Uniform choice among boxed strategies (the [`prop_oneof!`] backend).
pub struct Union<V> {
    arms: Vec<Box<dyn DynStrategy<V>>>,
}

impl<V> Union<V> {
    /// Builds from the macro-collected arms.
    pub fn new(arms: Vec<Box<dyn DynStrategy<V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof!: no arms");
        Self { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let pick = (rng.next_u64() as usize) % self.arms.len();
        self.arms[pick].sample_dyn(rng)
    }
}

/// Collection strategies (`prop::collection`).
/// Mirrors `proptest::sample`: strategies drawing from a fixed list.
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy yielding uniformly-chosen elements of the backing list.
    #[derive(Clone, Debug)]
    pub struct Select<T: Clone>(Vec<T>);

    /// Uniform choice from `values`. Panics on an empty list, as
    /// upstream does.
    pub fn select<T: Clone + core::fmt::Debug>(values: Vec<T>) -> Select<T> {
        assert!(!values.is_empty(), "sample::select: empty list");
        Select(values)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0[(rng.next_u64() as usize) % self.0.len()].clone()
        }
    }
}

pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy for `Vec`s with element strategy `S` and a length drawn
    /// from `len` each case.
    pub struct VecStrategy<S> {
        element: S,
        len: core::ops::Range<usize>,
    }

    /// `prop::collection::vec(element, 1..80)`.
    pub fn vec<S: Strategy>(element: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = Strategy::sample(&self.len, rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The `prop::` namespace alias used by `prop::collection::vec`.
pub mod prop {
    pub use crate::collection;
}

/// Per-test configuration (only `cases` is honored by the shim).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of sampled cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` samples.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }

    /// The case count actually run: `cases`, capped by the
    /// `PROPTEST_CASES` environment variable when it is set to a valid
    /// number. Mirrors upstream's env override closely enough for CI to
    /// shrink property runs (e.g. `PROPTEST_CASES=8` under Miri, where
    /// each case costs seconds instead of microseconds).
    pub fn effective_cases(&self) -> u32 {
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => match v.trim().parse::<u32>() {
                Ok(cap) => self.cases.min(cap.max(1)),
                Err(_) => self.cases,
            },
            Err(_) => self.cases,
        }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::{
        prop, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Just, ProptestConfig,
        Strategy,
    };
}

/// Asserts inside a property body (no shrinking; panics immediately).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assert inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Skips the current case when its sampled inputs are inapplicable.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            continue;
        }
    };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(Box::new($arm) as Box<dyn $crate::DynStrategy<_>>),+])
    };
}

/// Declares property tests: each generated `#[test]` samples its
/// argument strategies `cases` times and runs the body per sample.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); ) => {};
    (cfg = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident( $($arg:ident in $strat:expr),* $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.effective_cases() {
                // Announced only if this iteration panics (deterministic
                // streams make the case number enough to reproduce).
                let __note = $crate::CaseNote(__case);
                $(let $arg = $crate::Strategy::sample(&{ $strat }, &mut __rng);)*
                // The body is inlined here (not in a closure) so that
                // `prop_assume!`'s `continue` targets this loop.
                $body
                core::mem::forget(__note);
            }
        }
        $crate::__proptest_impl!{ cfg = ($cfg); $($rest)* }
    };
}

/// Drop guard announcing the failing case number on panic.
#[doc(hidden)]
pub struct CaseNote(pub u32);

impl Drop for CaseNote {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("proptest shim: failing case #{}", self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Coin {
        Heads,
        Tails,
    }

    fn coin() -> impl Strategy<Value = Coin> {
        prop_oneof![Just(Coin::Heads), Just(Coin::Tails)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_land_in_bounds(n in 1usize..12, x in -2.0f64..2.0, s in 0u64..1_000) {
            prop_assert!((1..12).contains(&n));
            prop_assert!((-2.0..2.0).contains(&x));
            prop_assert!(s < 1_000);
        }

        #[test]
        fn oneof_and_assume(c in coin(), n in 0usize..10) {
            prop_assume!(n > 0);
            prop_assert!(n > 0);
            prop_assert!(c == Coin::Heads || c == Coin::Tails);
        }

        #[test]
        fn collection_vec(v in prop::collection::vec(1.0f64..2.0, 1..30)) {
            prop_assert!(!v.is_empty() && v.len() < 30);
            for x in &v {
                prop_assert!((1.0..2.0).contains(x));
            }
        }
    }

    #[test]
    fn env_caps_cases() {
        let cfg = ProptestConfig::with_cases(64);
        // No env var (or garbage): configured count wins. The set/remove
        // window only ever *lowers* concurrent property runs, which
        // keeps them valid.
        std::env::remove_var("PROPTEST_CASES");
        assert_eq!(cfg.effective_cases(), 64);
        std::env::set_var("PROPTEST_CASES", "8");
        assert_eq!(cfg.effective_cases(), 8);
        std::env::set_var("PROPTEST_CASES", "1000");
        assert_eq!(cfg.effective_cases(), 64, "env can only cap, not raise");
        std::env::set_var("PROPTEST_CASES", "0");
        assert_eq!(cfg.effective_cases(), 1, "floor of one case");
        std::env::set_var("PROPTEST_CASES", "not-a-number");
        assert_eq!(cfg.effective_cases(), 64);
        std::env::remove_var("PROPTEST_CASES");
    }

    #[test]
    fn deterministic_streams() {
        let mut a = super::TestRng::deterministic("tag");
        let mut b = super::TestRng::deterministic("tag");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
