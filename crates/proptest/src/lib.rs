//! Offline stand-in for the `proptest` crate.
//!
//! Implements the API subset the workspace's property tests use, with
//! deterministic, seedable case generation and no external dependencies:
//! cases draw from the workspace's own [`SimRng`]. Differences from upstream:
//!
//! * **No shrinking.** A failing case prints its case index; cases are a
//!   pure function of `(test name, case index)`, so re-running the test
//!   reproduces the failure exactly.
//! * **Case count** defaults to 64 and is overridable with the standard
//!   `PROPTEST_CASES` environment variable.

use sweeper_rng::SimRng;

pub mod strategy;

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// An assertion failed; the test fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// A failed assertion.
    pub fn fail(msg: impl Into<String>) -> Self {
        Self::Fail(msg.into())
    }

    /// A rejected (assumed-away) case.
    pub fn reject(msg: impl Into<String>) -> Self {
        Self::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Fail(m) => write!(f, "{m}"),
            Self::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// The per-case random source handed to strategies.
pub type TestRng = SimRng;

/// Number of cases each property runs (`PROPTEST_CASES`, default 64).
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Deterministic RNG for one case of one named test.
pub fn case_rng(test_name: &str, case: u32) -> TestRng {
    // FNV-1a over the test path, mixed with the case index, keeps every
    // (test, case) pair on an independent stream.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    SimRng::seeded(h ^ ((case as u64) << 32 | 0x9E37_79B9))
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::TestRng;

    /// Strategy producing `Vec`s of `elem` with a length drawn from `len`.
    pub struct VecStrategy<S> {
        elem: S,
        len: core::ops::Range<usize>,
    }

    /// Builds a [`VecStrategy`]; API-compatible with `proptest::collection::vec`.
    pub fn vec<S: Strategy>(elem: S, len: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything the tests `use proptest::prelude::*` for.
pub mod prelude {
    pub use crate::collection::vec as prop_vec;
    pub use crate::strategy::{any, BoxedStrategy, Strategy};
    pub use crate::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// Uniformly picks one of several strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strategy)),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running [`cases`] generated cases.
#[macro_export]
macro_rules! proptest {
    () => {};
    (
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let total = $crate::cases();
            for case in 0..total {
                let mut rng =
                    $crate::case_rng(concat!(module_path!(), "::", stringify!($name)), case);
                $(
                    let $arg =
                        $crate::strategy::Strategy::generate(&($strategy), &mut rng);
                )+
                let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (move || { $body ::core::result::Result::Ok(()) })();
                match outcome {
                    ::core::result::Result::Ok(()) => {}
                    ::core::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::core::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!(
                            "property `{}` failed at case {case}/{total}: {msg}\n\
                             (cases are deterministic; re-running reproduces this input)",
                            stringify!($name)
                        );
                    }
                }
            }
        }
        $crate::proptest! { $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;

    proptest! {
        #[test]
        fn ranges_are_respected(v in 10u64..20, f in 0.5f64..1.5) {
            prop_assert!((10..20).contains(&v));
            prop_assert!((0.5..1.5).contains(&f));
        }

        #[test]
        fn vec_lengths_obey_bounds(xs in crate::collection::vec(0u8..4, 2..9)) {
            prop_assert!((2..9).contains(&xs.len()));
            for x in xs {
                prop_assert!(x < 4);
            }
        }

        #[test]
        fn oneof_and_map_compose(v in prop_oneof![
            (0u64..10).prop_map(|x| x * 2),
            (100u64..110).prop_map(|x| x + 1),
        ]) {
            prop_assert!(v < 20 || (101..111).contains(&v), "v = {v}");
        }

        #[test]
        fn assume_skips_instead_of_failing(v in 0u64..10) {
            prop_assume!(v != 3);
            prop_assert!(v != 3);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = (0u64..1_000_000, any::<bool>());
        let a = s.generate(&mut crate::case_rng("t", 5));
        let b = s.generate(&mut crate::case_rng("t", 5));
        assert_eq!(a, b);
        let c = s.generate(&mut crate::case_rng("t", 6));
        assert_ne!(a, c);
    }

    /// Every strategy kind from one case stream: the values were recorded
    /// before cases drew from `SimRng` and must never change, or every
    /// property test in the workspace would run different inputs.
    #[test]
    fn case_draws_are_pinned() {
        let mut rng = crate::case_rng("sweeper::pinned", 3);
        let raw = (any::<u64>(), any::<u64>()).generate(&mut rng);
        assert_eq!(raw, (0x8e0895c9ae2abef1, 0x20675d81348dccfa));
        let signed = (
            -1000i32..1000,
            -1_000_000i64..1_000_000,
            any::<u8>(),
            any::<u16>(),
        );
        assert_eq!(signed.generate(&mut rng), (426, -330599, 208, 16073));
        let (word, coin, f) = (any::<u32>(), any::<bool>(), 0.5f64..1.5).generate(&mut rng);
        assert_eq!(
            (word, coin, f.to_bits()),
            (2194674148, false, 0x3ff7e1165a256485)
        );
        assert_eq!(crate::collection::vec(3u8..9, 1..6).generate(&mut rng), [7]);
        let union = prop_oneof![
            (0u64..10).prop_map(|x| x * 2),
            (100u64..110).prop_map(|x| x + 1),
        ];
        let picks: Vec<u64> = (0..4).map(|_| union.generate(&mut rng)).collect();
        assert_eq!(picks, [14, 6, 102, 6]);
        assert_eq!(
            (0usize..100, 7u64..1_000_000_007).generate(&mut rng),
            (93, 13981171)
        );
    }
}
