//! Offline stand-in for the `proptest` property-testing crate.
//!
//! The build container has no access to crates.io, so this shim provides the
//! subset of the proptest 1.x API the workspace's tests use: the [`Strategy`](strategy::Strategy)
//! trait with `prop_map`/`prop_flat_map`, `Just`, integer-range and tuple
//! strategies, `collection::vec`, `option::of`, the weighted
//! [`prop_oneof!`] union, and the [`proptest!`] / [`prop_assert!`] /
//! [`prop_assert_eq!`] macros with `ProptestConfig::with_cases`.
//!
//! Cases are generated from a deterministic per-case seed derived from a base
//! seed (overridable via the `PROPTEST_SEED` env var). A failing case reports
//! that base seed so the failure replays exactly; there is no shrinking.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of test values, mirroring `proptest::strategy::Strategy`.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Produces one value from `rng`.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { base: self, f }
        }

        /// Derives a second strategy from each generated value.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { base: self, f }
        }

        /// Erases the concrete strategy type.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    /// A type-erased strategy.
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for Box<dyn Strategy<Value = V>> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (**self).generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.base.generate(rng))
        }
    }

    /// The result of [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.generate(rng)).generate(rng)
        }
    }

    /// A weighted choice between strategies, built by [`prop_oneof!`](crate::prop_oneof).
    pub struct Union<V> {
        arms: Vec<(u32, BoxedStrategy<V>)>,
        total_weight: u64,
    }

    impl<V> Union<V> {
        /// Builds a union from `(weight, strategy)` arms.
        pub fn new(arms: Vec<(u32, BoxedStrategy<V>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total_weight = arms.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total_weight > 0, "prop_oneof! weights sum to zero");
            Union { arms, total_weight }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.next_u64() % self.total_weight;
            for (weight, strategy) in &self.arms {
                let weight = u64::from(*weight);
                if pick < weight {
                    return strategy.generate(rng);
                }
                pick -= weight;
            }
            unreachable!("weighted pick out of range")
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + (rng.next_u64() % span) as i128) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A strategy for `Vec`s with lengths drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Generates vectors of `element` values with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.end.saturating_sub(self.size.start).max(1) as u64;
            let len = self.size.start + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A strategy for `Option`s: `None` half the time, `Some` otherwise.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Generates `Option<V>` values from `inner`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64() & 1 == 0 {
                Some(self.inner.generate(rng))
            } else {
                None
            }
        }
    }
}

pub mod test_runner {
    use crate::strategy::Strategy;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// Per-test configuration, mirroring `proptest::test_runner::Config`.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases to run.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` generated inputs.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A test-case failure raised by `prop_assert!`-family macros.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Wraps a failure message.
        pub fn fail(message: String) -> Self {
            TestCaseError(message)
        }
    }

    /// Deterministic splitmix64 generator used for case generation.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds a generator.
        pub fn new(seed: u64) -> Self {
            TestRng { state: seed }
        }

        /// Returns the next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    const DEFAULT_BASE_SEED: u64 = 0x5EED_CA5E_0BAD_F00D;

    fn base_seed() -> u64 {
        match std::env::var("PROPTEST_SEED") {
            Ok(text) => {
                let text = text.trim();
                let parsed = if let Some(hex) = text.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16)
                } else {
                    text.parse()
                };
                parsed.unwrap_or_else(|_| {
                    panic!("PROPTEST_SEED must be a u64 (decimal or 0x-hex), got `{text}`")
                })
            }
            Err(_) => DEFAULT_BASE_SEED,
        }
    }

    /// Executes `config.cases` generated inputs, panicking (with the base
    /// seed, for deterministic replay) on the first failing case.
    pub fn run<S, F>(config: ProptestConfig, strategy: S, mut test: F)
    where
        S: Strategy,
        F: FnMut(S::Value) -> Result<(), TestCaseError>,
    {
        let base = base_seed();
        for case in 0..config.cases {
            // A distinct, well-mixed seed per case, recoverable from `base`.
            let case_seed =
                TestRng::new(base ^ u64::from(case).wrapping_mul(0xA24B_AED4_963E_E407)).next_u64();
            let mut rng = TestRng::new(case_seed);
            let value = strategy.generate(&mut rng);
            match catch_unwind(AssertUnwindSafe(|| test(value))) {
                Ok(Ok(())) => {}
                Ok(Err(TestCaseError(message))) => panic!(
                    "proptest case {case}/{} failed; replay with PROPTEST_SEED={base:#x}\n{message}",
                    config.cases
                ),
                Err(payload) => {
                    eprintln!(
                        "proptest case {case}/{} panicked; replay with PROPTEST_SEED={base:#x}",
                        config.cases
                    );
                    resume_unwind(payload);
                }
            }
        }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Builds a weighted [`strategy::Union`] over strategies yielding one value
/// type: `prop_oneof![3 => a, 1 => b]` or unweighted `prop_oneof![a, b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Fails the current proptest case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current proptest case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// Declares property tests: each `fn name(pat in strategy) { body }` becomes
/// a `#[test]` that runs the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($config:expr);) => {};
    (config = ($config:expr);
     $(#[$meta:meta])*
     fn $name:ident($pat:pat in $strat:expr) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run($config, $strat, |$pat| {
                $body
                ::std::result::Result::<(), $crate::test_runner::TestCaseError>::Ok(())
            });
        }
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Push(u64),
        Pop,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                3 => (0u64..100).prop_map(Op::Push),
                1 => Just(Op::Pop),
            ],
            0..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A vec behaves like a stack under the generated op sequence.
        #[test]
        fn vec_models_stack(ops in ops()) {
            let mut stack = Vec::new();
            let mut model = Vec::new();
            for op in ops {
                match op {
                    Op::Push(v) => {
                        stack.push(v);
                        model.push(v);
                    }
                    Op::Pop => prop_assert_eq!(stack.pop(), model.pop()),
                }
            }
            prop_assert!(stack == model, "diverged: {:?} vs {:?}", stack, model);
            prop_assert_eq!(stack.len(), model.len());
        }

        /// Flat-mapped tuple strategies respect the outer bound.
        #[test]
        fn flat_map_respects_bound((cap, items) in (1usize..5).prop_flat_map(|cap| {
            (Just(cap), prop::collection::vec(0u64..10, 0..8))
        })) {
            prop_assert!((1..5).contains(&cap));
            prop_assert!(items.len() < 8);
        }
    }

    #[test]
    fn option_of_produces_both_variants() {
        let mut rng = crate::test_runner::TestRng::new(9);
        let strat = prop::option::of(0u64..10);
        let values: Vec<_> = (0..64).map(|_| strat.generate(&mut rng)).collect();
        assert!(values.iter().any(Option::is_some));
        assert!(values.iter().any(Option::is_none));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let strat = ops();
        let a = strat.generate(&mut crate::test_runner::TestRng::new(42));
        let b = strat.generate(&mut crate::test_runner::TestRng::new(42));
        assert_eq!(a, b);
    }
}
