//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset of the proptest 1.x API the workspace's property
//! tests use: the [`proptest!`] macro over `arg in strategy` parameter
//! lists, integer-range strategies, [`collection::vec`], and the
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros.
//!
//! Each property runs [`CASES`] deterministically-seeded random cases
//! (seeded from the test name, so failures reproduce across runs). There
//! is no shrinking: a failing case reports the sampled inputs via the
//! assertion message instead. See `crates/compat/README.md`.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Number of random cases each property is checked against.
pub const CASES: u32 = 128;

/// The per-test deterministic random source.
pub struct TestRng(StdRng);

impl TestRng {
    /// Creates the generator for the named test; the same name always
    /// yields the same case sequence.
    pub fn for_test(name: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for byte in name.bytes() {
            seed ^= u64::from(byte);
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        Self(StdRng::seed_from_u64(seed))
    }

    /// Draws a raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Draws a uniform value from a non-empty `u64` span starting at
    /// `start` with `span` values.
    fn uniform(&mut self, start: i128, span: u128) -> i128 {
        debug_assert!(span > 0);
        let draw = if span == 1 {
            0
        } else {
            (u128::from(self.0.next_u64()) % span) as i128
        };
        start + draw
    }
}

/// A source of random values of one type (stand-in for
/// `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The type of value produced.
    type Value;
    /// Samples one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_for_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                rng.uniform(self.start as i128, span) as $t
            }
        }
    )*};
}

impl_strategy_for_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Collection strategies (stand-in for `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length bounds for [`vec()`] (stand-in for
    /// `proptest::collection::SizeRange`).
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                min: r.start,
                max_exclusive: r.end,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(len: usize) -> Self {
            Self {
                min: len,
                max_exclusive: len + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of `element` values with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u128;
            let len = rng.uniform(self.size.min as i128, span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// The common imports (stand-in for `proptest::prelude`).
pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest, Strategy};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`CASES`](crate::CASES) sampled cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let mut __rng = $crate::TestRng::for_test(stringify!($name));
                for __case in 0..$crate::CASES {
                    $(let $arg = $crate::Strategy::sample(&($strategy), &mut __rng);)+
                    $body
                }
            }
        )+
    };
}

/// Asserts a condition inside a property (stand-in for
/// `proptest::prop_assert!`; plain panic, no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property (stand-in for
/// `proptest::prop_assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Skips the current case when its sampled inputs fall outside the
/// property's operating region (stand-in for `proptest::prop_assume!`;
/// must be used directly in the property body, not inside a nested loop).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    proptest! {
        #[test]
        fn ranges_are_respected(x in 10u64..20, y in -5i32..5) {
            prop_assert!((10..20).contains(&x));
            prop_assert!((-5..5).contains(&y));
        }

        #[test]
        fn vec_lengths_are_bounded(v in crate::collection::vec(0u64..100, 2..50)) {
            prop_assert!(v.len() >= 2 && v.len() < 50);
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn assume_skips_cases(x in 0u32..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn same_test_name_reproduces_cases() {
        let mut a = crate::TestRng::for_test("t");
        let mut b = crate::TestRng::for_test("t");
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
