//! Minimal offline stand-in for the [`proptest`] crate.
//!
//! The workspace builds in an air-gapped environment with no registry
//! access, so this crate implements exactly the surface the test suite
//! uses: the [`proptest!`] macro, `prop_assert*`, integer and float
//! range strategies, tuples of strategies, [`collection::vec`], and
//! [`arbitrary::any`]. Sampling is purely random with a per-test
//! deterministic seed; there is no shrinking — a failing case reports
//! its inputs through the normal assertion message, and re-running the
//! test reproduces the identical case sequence.
//!
//! [`proptest`]: https://crates.io/crates/proptest

pub mod test_runner {
    /// Runner configuration. Only `cases` is honoured.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases to execute per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        /// Smaller than upstream's 256: the suite runs whole fabric
        /// simulations per case, and 64 cases already exercises the
        /// input space while keeping `cargo test` interactive.
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic per-test random source (SplitMix64).
    ///
    /// Seeded from the test's module path, name, and case index so every
    /// run of the suite sees the identical case sequence.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for case `case` of the test identified by `ident`.
        pub fn for_case(ident: &str, case: u32) -> TestRng {
            // FNV-1a over the identifier, mixed with the case index.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in ident.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }

        /// Next 64 uniform random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            debug_assert!(n > 0);
            ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A source of random values of one type. No shrinking.
    pub trait Strategy {
        type Value;
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform sampled values (upstream's `prop_map`).
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Clone, Copy, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Mapped strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, U, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Weighted union of same-valued strategies (backs [`prop_oneof!`]).
    ///
    /// [`prop_oneof!`]: crate::prop_oneof
    pub struct Union<V> {
        branches: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
        total: u64,
    }

    impl<V> Union<V> {
        pub fn new(branches: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> Union<V> {
            let total = branches.iter().map(|(w, _)| u64::from(*w)).sum();
            assert!(total > 0, "prop_oneof! needs at least one positive weight");
            Union { branches, total }
        }
    }

    /// Erase a strategy's concrete type for use in a [`Union`]. Keeping
    /// the `Value` associated type visible here (rather than `as _` in
    /// the macro) is what lets inference unify heterogeneous branches.
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.below(self.total);
            for (w, s) in &self.branches {
                let w = u64::from(*w);
                if pick < w {
                    return s.sample(rng);
                }
                pick -= w;
            }
            unreachable!("pick < total by construction")
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, usize);

    // u64 separately: `0u64..u64::MAX` makes the span itself u64::MAX,
    // which the generic cast chain above also handles, but keep the
    // arithmetic explicit for the full-width case.
    impl Strategy for Range<u64> {
        type Value = u64;
        fn sample(&self, rng: &mut TestRng) -> u64 {
            assert!(self.start < self.end, "empty strategy range");
            let span = self.end - self.start;
            self.start + rng.below(span)
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[expect(
                    non_snake_case,
                    reason = "the tuple's type parameters double as its binding names"
                )]
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `sizes`.
    pub struct VecStrategy<S> {
        element: S,
        sizes: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, sizes: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, sizes }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.sizes.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_uint!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Strategy wrapper returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    /// The canonical strategy for `T` (`any::<u64>()` style).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Weighted choice among strategies producing the same value type:
/// `prop_oneof![3 => 0u64..8, 1 => Just(42u64)]`. Unweighted branches
/// (`prop_oneof![a, b]`) get weight 1 each, as upstream.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strat),+]
    };
}

/// Assert inside a property body. Without shrinking this is a plain
/// `assert!` — the panic message carries whatever context the caller
/// formats in.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests.
///
/// Supported grammar (the subset this workspace uses):
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(12))] // optional
///
///     /// doc comment
///     #[test]
///     fn name(a in 0u64..10, b in proptest::collection::vec(0u32..4, 1..20)) {
///         prop_assert!(a < 10);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            (<$crate::test_runner::ProptestConfig as ::core::default::Default>::default())
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ( ($cfg:expr) ) => {};
    ( ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let __strategies = ( $($strat,)+ );
            for __case in 0..__cfg.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                let ( $($arg,)+ ) =
                    $crate::strategy::Strategy::sample(&__strategies, &mut __rng);
                $body
            }
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..10_000 {
            let v = (5u32..17).sample(&mut rng);
            assert!((5..17).contains(&v));
            let f = (0.25f64..0.75).sample(&mut rng);
            assert!((0.25..0.75).contains(&f));
            let w = (0u64..u64::MAX).sample(&mut rng);
            assert!(w < u64::MAX);
        }
    }

    #[test]
    fn vec_strategy_respects_length() {
        let mut rng = TestRng::for_case("vec", 0);
        let strat = crate::collection::vec(0u8..3, 2..9);
        for _ in 0..1000 {
            let v = strat.sample(&mut rng);
            assert!((2..9).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 3));
        }
    }

    #[test]
    fn rng_is_deterministic_per_case() {
        let mut a = TestRng::for_case("x", 3);
        let mut b = TestRng::for_case("x", 3);
        let mut c = TestRng::for_case("x", 4);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The macro itself: multi-arg sampling with tuples and vecs.
        #[test]
        fn macro_samples_all_args(
            a in 1u64..100,
            pairs in crate::collection::vec((0u16..4, 0.0f64..1.0), 1..10),
            bits in any::<u64>(),
        ) {
            prop_assert!((1..100).contains(&a));
            prop_assert!(!pairs.is_empty() && pairs.len() < 10);
            for (x, y) in &pairs {
                prop_assert!(*x < 4);
                prop_assert!((0.0..1.0).contains(y));
            }
            let _ = bits;
        }

        /// prop_oneof / prop_map / Just: every branch is reachable, maps
        /// apply, and weights of zero never fire.
        #[test]
        fn oneof_map_just(
            vals in crate::collection::vec(
                prop_oneof![
                    2 => (0u32..10).prop_map(|x| x * 2),
                    1 => Just(99u32),
                    0 => Just(7u32),
                ],
                50..60,
            ),
        ) {
            for v in &vals {
                prop_assert!((*v == 99) || (*v < 20 && v % 2 == 0));
                prop_assert_ne!(*v, 7, "zero-weight branch must never fire");
            }
        }
    }
}
