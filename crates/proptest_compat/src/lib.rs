//! Dependency-free stand-in for the subset of the `proptest` 1.x API this
//! workspace uses: the [`proptest!`] test macro, [`prop_assert!`] /
//! [`prop_assert_eq!`], range/tuple/`vec`/[`any`] strategies, `prop_map`,
//! weighted [`prop_oneof!`] unions, and [`ProptestConfig::with_cases`].
//!
//! The build environment has no crates.io access, so the workspace aliases
//! the `proptest` dependency name to this crate. Semantics: each test runs
//! `cases` deterministic pseudo-random inputs (seeded from the test's
//! module path, so runs are reproducible); a failing case panics with the
//! standard assertion message, and a [`CaseGuard`] then names the test and
//! the case index, from which [`test_rng`] rebuilds the same inputs. There
//! is **no shrinking** — the first failing input is reported as-is.

#![forbid(unsafe_code)]

use rand_compat::rngs::StdRng;
use rand_compat::SeedableRng;

pub mod strategy;

pub mod collection;

/// Per-test configuration. Only `cases` is supported.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic RNG for one test case: seeded from the test name and the
/// case index so every run of the suite sees the same inputs.
pub fn test_rng(test_name: &str, case: u32) -> StdRng {
    // FNV-1a over the name, mixed with the case index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h ^ ((case as u64) << 32 | case as u64))
}

/// Names a running test case on stderr if the case panics: the test's name
/// and the case index are all [`test_rng`] needs to regenerate its inputs.
/// Checks [`std::thread::panicking`] on drop, so the inputs need no `Debug`.
pub struct CaseGuard {
    pub test_name: &'static str,
    pub case: u32,
}

impl CaseGuard {
    /// The line printed for a failed case.
    fn message(&self) -> String {
        format!(
            "proptest: {} failed at case {}; its inputs come from test_rng({:?}, {})",
            self.test_name, self.case, self.test_name, self.case
        )
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("{}", self.message());
        }
    }
}

/// Types with a canonical "arbitrary" strategy, reachable via [`any`].
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                use rand_compat::RngCore;
                rng.next_u64() as $t
            }
        }
    )*};
}

arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> Self {
        use rand_compat::RngCore;
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> Self {
        use rand_compat::Rng;
        // Finite, sign-symmetric, spanning many magnitudes.
        let mag = rng.gen::<f64>() * 2.0 - 1.0;
        let exp = rng.gen_range(-8i32..9) as f64;
        mag * 10f64.powf(exp)
    }
}

/// The canonical strategy for `T`: `any::<u64>()` etc.
pub fn any<T: Arbitrary>() -> strategy::AnyStrategy<T> {
    strategy::AnyStrategy(core::marker::PhantomData)
}

/// Everything a `use proptest::prelude::*;` consumer expects in scope.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{any, ProptestConfig};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// Mirror of `proptest::prelude::prop` — module-style access to the
    /// strategy combinators (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Mirror of `proptest::prop_oneof!`: `weight => strategy` entries (or bare
/// strategies, each weight 1) whose value types unify; generation picks one
/// entry with probability proportional to its weight.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// The `proptest! { ... }` block: an optional
/// `#![proptest_config(ProptestConfig::with_cases(N))]` attribute followed
/// by `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let __guard = $crate::CaseGuard {
                    test_name: concat!(module_path!(), "::", stringify!($name)),
                    case: __case,
                };
                let mut __rng = $crate::test_rng(__guard.test_name, __case);
                $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut __rng);)+
                $body
            }
        }
        $crate::__proptest_tests!(($cfg) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_and_tuples(
            x in 0.0..10.0f64,
            n in 1usize..50,
            pair in (-1.0..1.0f64, 0u32..=5),
        ) {
            prop_assert!((0.0..10.0).contains(&x));
            prop_assert!((1..50).contains(&n));
            prop_assert!((-1.0..1.0).contains(&pair.0));
            prop_assert!(pair.1 <= 5, "got {}", pair.1);
        }

        #[test]
        fn vec_and_map(
            v in prop::collection::vec((0.0..4.0f64, 0.0..4.0f64), 1..30)
                .prop_map(|v| v.into_iter().map(|(a, b)| a + b).collect::<Vec<f64>>()),
            w in prop::collection::vec(0.0..1.0f64, 3),
            seed in any::<u64>(),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 30);
            prop_assert!(v.iter().all(|&s| (0.0..8.0).contains(&s)));
            prop_assert_eq!(w.len(), 3);
            let _ = seed;
        }
    }

    /// A failing case names its test and case index, and only a failing
    /// one does.
    #[test]
    fn a_failing_case_is_named_for_reproduction() {
        let guard = crate::CaseGuard {
            test_name: "m::t",
            case: 17,
        };
        assert_eq!(
            guard.message(),
            "proptest: m::t failed at case 17; its inputs come from test_rng(\"m::t\", 17)"
        );
        drop(guard);
        let failed = std::panic::catch_unwind(|| {
            let _guard = crate::CaseGuard {
                test_name: "m::t",
                case: 3,
            };
            panic!("case failed");
        });
        assert!(failed.is_err());
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::test_rng("x::y", 3);
        let mut b = crate::test_rng("x::y", 3);
        use rand_compat::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::test_rng("x::y", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
