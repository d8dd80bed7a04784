//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this vendors the
//! subset of proptest used by the workspace's property tests: the
//! [`proptest!`] macro (with `#![proptest_config(..)]`), integer/float
//! range strategies, tuple strategies, [`collection::vec`],
//! `proptest::num::f64::NORMAL`, and the `prop_assert*` /
//! `prop_assume!` macros. Cases are generated from a deterministic
//! seed; there is **no shrinking** — a failing case (a failed
//! `prop_assert*` or a panic) reports its number and the `Debug` form
//! of every sampled input, and the fixed seed makes every run
//! reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// A source of random test cases.
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Sample one case.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut StdRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*};
}
impl_strategy_int_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut StdRng) -> f64 {
        rng.random_range(self.clone())
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($n:ident $i:tt),+))*) => {$(
        impl<$($n: Strategy),+> Strategy for ($($n,)+) {
            type Value = ($($n::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A 0)
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Range, StdRng, Strategy};
    use rand::Rng;

    /// Strategy producing `Vec`s with lengths drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `proptest::collection::vec`: vectors of `element` with a length
    /// in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.is_empty() {
                self.size.start
            } else {
                rng.random_range(self.size.clone())
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Numeric strategies (`proptest::num`).
pub mod num {
    /// `f64` strategies.
    pub mod f64 {
        use crate::{StdRng, Strategy};
        use rand::Rng;

        /// Samples normal (finite, non-zero-exponent) `f64`s.
        pub struct Normal;

        /// Stand-in for `proptest::num::f64::NORMAL`.
        pub const NORMAL: Normal = Normal;

        impl Strategy for Normal {
            type Value = f64;
            fn sample(&self, rng: &mut StdRng) -> f64 {
                // Magnitudes spread over many binades, both signs.
                let mantissa: f64 = rng.random_range(-1.0..1.0);
                let exp: i32 = rng.random_range(-300..300);
                let v = mantissa * 2f64.powi(exp);
                if v.is_normal() {
                    v
                } else {
                    1.5 * 2f64.powi(exp.max(-1000))
                }
            }
        }
    }
}

/// Runner configuration (`ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Outcome of one sampled case: `Err` aborts, `Ok(false)` skips
/// (assumption failed), `Ok(true)` passes.
pub type CaseResult = Result<bool, String>;

/// Runs `cfg.cases` cases of the property `name`. Each case samples
/// its inputs, writes their `Debug` forms into the `String` it is
/// handed, then runs the body; a failure or a panic reports them.
#[doc(hidden)]
pub fn __run_cases(
    cfg: &ProptestConfig,
    name: &str,
    mut case: impl FnMut(&mut StdRng, &mut String) -> CaseResult,
) {
    // Deterministic per-property seed: stable across runs.
    let seed = name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    });
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..cfg.cases {
        let mut inputs = String::new();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut rng, &mut inputs)));
        match outcome {
            Ok(Ok(_)) => {}
            Ok(Err(msg)) => panic!("property `{name}` failed on case {i}: {msg}\ninputs:{inputs}"),
            Err(payload) => {
                eprintln!("property `{name}` panicked on case {i}\ninputs:{inputs}");
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Records one sampled input as `pattern = value` for the failure
/// report, then hands the value back.
#[doc(hidden)]
pub fn __record<T: std::fmt::Debug>(inputs: &mut String, pattern: &str, value: T) -> T {
    use std::fmt::Write as _;
    let _ = write!(inputs, "\n    {pattern} = {value:?}");
    value
}

/// The prelude, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy,
    };
}

/// Property-test entry point; see the crate docs for the supported
/// grammar (a strict subset of real proptest's).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            $crate::__run_cases(&cfg, stringify!($name), |__rng, __inputs| {
                $(let $pat = $crate::__record(
                    __inputs,
                    stringify!($pat),
                    $crate::Strategy::sample(&($strat), __rng),
                );)+
                let mut __case = || -> $crate::CaseResult { $body Ok(true) };
                __case()
            });
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// `prop_assert!`: fail the current case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!("assertion failed: {}: {}", stringify!($cond), format!($($fmt)*)));
        }
    };
}

/// `prop_assert_eq!`: fail the case if the sides differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err(format!("{:?} != {:?}", a, b));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err(format!("{:?} != {:?}: {}", a, b, format!($($fmt)*)));
        }
    }};
}

/// `prop_assert_ne!`: fail the case if the sides are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(, $($fmt:tt)*)?) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!("{:?} == {:?}", a, b));
        }
    }};
}

/// `prop_assume!`: silently skip the case when the assumption fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(false);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        #[test]
        fn ranges_hold(x in -10i64..10, y in 0usize..5) {
            prop_assert!((-10..10).contains(&x));
            prop_assert!(y < 5);
        }

        #[test]
        fn vec_lengths_hold(v in crate::collection::vec(0i64..100, 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&x| (0..100).contains(&x)));
        }

        #[test]
        fn tuples_and_assume((a, b) in (0i64..50, 0i64..50)) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }
    }

    #[test]
    fn a_failing_case_reports_its_inputs() {
        let report = std::panic::catch_unwind(|| {
            crate::__run_cases(&ProptestConfig::with_cases(1), "p", |rng, inputs| {
                let v = crate::__record(inputs, "v", (0u8..1).sample(rng));
                prop_assert_eq!(v, 1);
                Ok(true)
            })
        })
        .unwrap_err();
        let msg = report.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("failed on case 0") && msg.contains("v = 0"),
            "{msg}"
        );
    }

    #[test]
    fn normal_floats_are_normal() {
        use crate::Strategy;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        use rand::SeedableRng;
        for _ in 0..500 {
            assert!(crate::num::f64::NORMAL.sample(&mut rng).is_normal());
        }
    }
}
