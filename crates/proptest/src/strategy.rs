//! Value-generation strategies: ranges, tuples, `map`, unions, and `any`.

use crate::TestRng;

/// Something that can generate values of one type from a [`TestRng`].
///
/// Object-safe for a fixed `Value`, so heterogeneous strategies can be
/// unified through [`Strategy::boxed`] / [`Union`] (what `prop_oneof!`
/// expands to).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f` (API-compatible with proptest's
    /// `prop_map`).
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
}

/// Uniform choice between equally-typed strategies (`prop_oneof!`).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Builds a union; panics on an empty alternative list.
    pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!alternatives.is_empty(), "prop_oneof! needs alternatives");
        Self(alternatives)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = (0..self.0.len()).generate(rng);
        self.0[idx].generate(rng)
    }
}

/// The result of [`Strategy::prop_map`].
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
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                // The span is taken in wrapping u64 arithmetic, so a signed
                // range maps onto the same offsets as an unsigned one.
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.next_u64_in(span) as $t)
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
        )
    }
}

/// Types with a whole-domain default strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generates an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Arbitrary for u16 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 48) as u16
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

/// Strategy over a type's whole domain.
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The default strategy for `T` (API-compatible with `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}
