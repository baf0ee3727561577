//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no access to crates.io, so this workspace ships a
//! small, dependency-free property-testing harness that is source-compatible
//! with the `proptest` surface the test suites use:
//!
//! - the [`proptest!`] macro (`fn name(arg in strategy, ...) { body }`),
//! - the [`Strategy`] trait with [`Strategy::prop_map`] and
//!   [`Strategy::prop_filter`],
//! - range strategies (`0.0f64..1.0`, `0u32..6`, …), tuple strategies,
//!   [`collection::vec`], [`num::f64::ANY`], and `&str` regex-ish string
//!   strategies (any pattern produces adversarial unicode strings),
//! - [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Differences from real proptest: no shrinking (failing inputs are printed
//! verbatim), and the case count defaults to 96 (override with the
//! `PROPTEST_CASES` environment variable; seed with `PROPTEST_SEED`).

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::ops::Range;

/// The per-test random source handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// A deterministic generator derived from the test name (and the
    /// `PROPTEST_SEED` environment variable, when set).
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        if let Some(seed) = std::env::var("PROPTEST_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            h ^= seed;
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// Number of cases each property runs (default 96; `PROPTEST_CASES` to
/// override).
pub fn cases() -> usize {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(96)
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Retains only values satisfying `pred`, retrying generation (gives up
    /// with a panic after 1000 consecutive rejections, like proptest's
    /// rejection limit).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(
        self,
        whence: impl Into<String>,
        pred: F,
    ) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            whence: whence.into(),
            pred,
        }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: String,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter rejected 1000 consecutive values: {}",
            self.whence
        );
    }
}

/// A strategy that always yields a clone of the given value.
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        #[allow(non_snake_case)]
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
    (A, B, C, D, E, F)
}

/// Characters chosen to stress string handling: quotes, escapes, controls,
/// multi-byte unicode, and plain ASCII.
const NASTY_CHARS: &[char] = &[
    '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{7}', '\u{1b}', '/', '<', '>', '&', '\'', '{', '}',
    'π', 'ß', '漢', '🗺', '\u{fffd}', 'a', 'b', 'z', 'A', 'Z', '0', '9', ' ', '.', ',', '-', '_',
];

/// Any `&str` is accepted as a pattern; the shim ignores the regex and
/// produces adversarial unicode strings (the suites only use `".*"`).
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let len = (rng.next_u64() % 24) as usize;
        (0..len)
            .map(|_| NASTY_CHARS[(rng.next_u64() as usize) % NASTY_CHARS.len()])
            .collect()
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    /// A `Vec` of values from `elem`, with a length drawn from `len`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Numeric edge-case strategies.
pub mod num {
    /// `f64` strategies.
    pub mod f64 {
        use crate::{Strategy, TestRng};

        /// Every `f64` bit pattern, biased toward special values
        /// (NaN, infinities, zeros, subnormals).
        pub struct Any;

        /// Matches `proptest::num::f64::ANY`.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = f64;
            fn generate(&self, rng: &mut TestRng) -> f64 {
                const SPECIAL: &[f64] = &[
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    0.0,
                    -0.0,
                    f64::MIN,
                    f64::MAX,
                    f64::MIN_POSITIVE,
                    f64::EPSILON,
                    1.0,
                    -1.0,
                ];
                let roll = rng.next_u64();
                if roll.is_multiple_of(4) {
                    SPECIAL[(roll / 4) as usize % SPECIAL.len()]
                } else {
                    f64::from_bits(rng.next_u64())
                }
            }
        }
    }
}

/// The common imports of a proptest file.
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, Strategy};
}

/// Asserts a condition inside a property, reporting the failing expression.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond, "property failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(, $($fmt:tt)*)?) => {
        assert_eq!($a, $b $(, $($fmt)*)?)
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(, $($fmt:tt)*)?) => {
        assert_ne!($a, $b $(, $($fmt)*)?)
    };
}

/// Declares property tests: each function runs [`cases()`](cases) times with
/// fresh random inputs drawn from the given strategies. On failure the
/// generated inputs are printed (no shrinking).
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$attr:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$attr])*
        fn $name() {
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..$crate::cases() {
                $(let $arg = $crate::Strategy::generate(&$strat, &mut rng);)*
                let repr = format!(
                    concat!("case {} of {}:", $(" ", stringify!($arg), " = {:?}",)*),
                    case, $crate::cases(), $(&$arg,)*
                );
                let result = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                    $(let $arg = $arg;)*
                    $body
                }));
                if let Err(panic) = result {
                    eprintln!("proptest failure in {}: {}", stringify!($name), repr);
                    ::std::panic::resume_unwind(panic);
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_tuples(x in 0.0f64..1.0, pair in (0u32..5, 1usize..4)) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!(pair.0 < 5 && pair.1 >= 1 && pair.1 < 4);
        }

        #[test]
        fn vec_and_map(v in crate::collection::vec(0u32..10, 2..6).prop_map(|mut v| { v.sort_unstable(); v })) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }

        #[test]
        fn filter_holds(n in (0u32..100).prop_filter("even", |n| n % 2 == 0)) {
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn any_f64_hits_specials() {
        let mut rng = crate::TestRng::deterministic("specials");
        let mut nan = false;
        for _ in 0..200 {
            if Strategy::generate(&crate::num::f64::ANY, &mut rng).is_nan() {
                nan = true;
            }
        }
        assert!(nan, "ANY should produce NaN within 200 draws");
    }
}
