//! A deterministic, dependency-free stand-in for the [`proptest`]
//! crate, implementing exactly the API subset this workspace's
//! property tests use.
//!
//! The build environment has no access to crates.io, so the real
//! proptest cannot be vendored; this shim keeps the property suites
//! compiling *and running*: every `proptest!` test still generates
//! its inputs from strategies and executes the configured number of
//! cases. Generation is seeded from the test name, so runs are fully
//! deterministic and reproducible.
//!
//! Differences from the real crate (acceptable for these suites):
//!
//! * no shrinking — a failing case reports the panic directly;
//! * regex strategies support the subset actually used here
//!   (character classes, `\PC`, `{m,n}` repetitions, concatenation);
//! * `prop_assume!` skips the case instead of resampling.
//!
//! [`proptest`]: https://docs.rs/proptest

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

/// Per-test configuration (case count only).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic splitmix64 generator seeded from the test name.
#[derive(Debug, Clone)]
pub struct TestRng(u64);

impl TestRng {
    /// Seeds the generator from a test name (FNV-1a of the bytes).
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng(h)
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n` must be positive).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform value in a half-open range.
    pub fn in_range(&mut self, range: &Range<usize>) -> usize {
        if range.end <= range.start {
            return range.start;
        }
        range.start + self.below(range.end - range.start)
    }
}

/// A value generator. The real crate's `Strategy` builds shrinkable
/// value trees; this shim generates values directly.
pub trait Strategy: Clone {
    /// The generated value type.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through a function.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U + Clone,
    {
        Map { inner: self, f }
    }

    /// Rejects generated values failing a predicate (resamples, up to
    /// a bounded number of attempts).
    fn prop_filter<F>(self, reason: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool + Clone,
    {
        Filter {
            inner: self,
            reason,
            f,
        }
    }

    /// Recursive strategies: `recurse` receives the strategy for the
    /// previous depth level and returns the next one. Leaves stay
    /// reachable at every level via a 50/50 union with `self`.
    fn prop_recursive<S, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        S: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> S,
    {
        let leaf = self.boxed();
        let mut level = leaf.clone();
        for _ in 0..depth {
            level = Union::new(vec![leaf.clone(), recurse(level).boxed()]).boxed();
        }
        level
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

trait ErasedStrategy<T> {
    fn generate_erased(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> ErasedStrategy<S::Value> for S {
    fn generate_erased(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, reference-counted strategy.
pub struct BoxedStrategy<T>(Rc<dyn ErasedStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate_erased(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U + Clone> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Clone)]
pub struct Filter<S, F> {
    inner: S,
    reason: &'static str,
    f: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool + Clone> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter `{}` rejected 1000 consecutive samples", self.reason);
    }
}

/// Uniform choice between several strategies (`prop_oneof!`).
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// A union over the given alternatives (must be non-empty).
    pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!alternatives.is_empty(), "empty prop_oneof!");
        Union(alternatives)
    }
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union(self.0.clone())
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.0.len());
        self.0[i].generate(rng)
    }
}

/// Types with a canonical random generator (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy form of [`Arbitrary`].
pub struct Any<T>(PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T` ([`Arbitrary`]).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        char::from_u32(rng.next_u64() as u32 % 0xD800).unwrap_or('a')
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Mix raw bit patterns (NaN/inf included) with tame values.
        match rng.next_u64() % 4 {
            0 => f64::from_bits(rng.next_u64()),
            1 => rng.next_u64() as f64 / 1e3,
            2 => -(rng.next_u64() as f64 / 1e6),
            _ => (rng.next_u64() % 10_000) as f64,
        }
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> f32 {
        f64::arbitrary(rng) as f32
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, G);

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::*;

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// A `Vec` of `size.start..size.end` elements.
    pub fn vec<S: Strategy>(elem: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.in_range(&self.size);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// See [`btree_map`].
    #[derive(Clone)]
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    /// A `BTreeMap` with `size.start..size.end` entries.
    pub fn btree_map<K, V>(key: K, value: V, size: Range<usize>) -> BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        BTreeMapStrategy { key, value, size }
    }

    impl<K, V> Strategy for BTreeMapStrategy<K, V>
    where
        K: Strategy,
        V: Strategy,
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = rng.in_range(&self.size);
            let mut out = BTreeMap::new();
            let mut attempts = 0;
            while out.len() < target && attempts < target * 20 + 20 {
                out.insert(self.key.generate(rng), self.value.generate(rng));
                attempts += 1;
            }
            out
        }
    }

    /// See [`btree_set`].
    #[derive(Clone)]
    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: Range<usize>,
    }

    /// A `BTreeSet` with `size.start..size.end` elements.
    pub fn btree_set<S>(elem: S, size: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { elem, size }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let target = rng.in_range(&self.size);
            let mut out = BTreeSet::new();
            let mut attempts = 0;
            while out.len() < target && attempts < target * 20 + 20 {
                out.insert(self.elem.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Option strategies (`prop::option`).
pub mod option {
    use super::*;

    /// See [`of`].
    #[derive(Clone)]
    pub struct OptionStrategy<S>(S);

    /// `None` one time in four, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

/// Sampling strategies (`prop::sample`).
pub mod sample {
    use super::*;

    /// See [`select`].
    #[derive(Clone)]
    pub struct Select<T>(Vec<T>);

    /// Uniformly selects one element of a non-empty `Vec`.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select over an empty vec");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len())].clone()
        }
    }
}

// ---------------------------------------------------------------
// Regex-subset string strategies: `"[a-z]{1,4}"`, `"\\PC{0,64}"`, …
// ---------------------------------------------------------------

#[derive(Debug, Clone)]
enum Atom {
    /// Inclusive character ranges (a character class).
    Class(Vec<(char, char)>),
    /// `\PC`: any printable character (mostly ASCII, some unicode).
    Printable,
    /// A literal character.
    Literal(char),
}

#[derive(Debug, Clone)]
struct Piece {
    atom: Atom,
    min: usize,
    max: usize,
}

fn parse_pattern(pattern: &str) -> Vec<Piece> {
    let chars: Vec<char> = pattern.chars().collect();
    let mut i = 0;
    let mut pieces = Vec::new();
    while i < chars.len() {
        let atom = match chars[i] {
            '[' => {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .map(|p| p + i)
                    .unwrap_or_else(|| panic!("unclosed class in `{pattern}`"));
                let body: Vec<char> = chars[i + 1..close].to_vec();
                i = close + 1;
                let mut ranges = Vec::new();
                let mut j = 0;
                while j < body.len() {
                    if j + 2 < body.len() && body[j + 1] == '-' {
                        ranges.push((body[j], body[j + 2]));
                        j += 3;
                    } else {
                        ranges.push((body[j], body[j]));
                        j += 1;
                    }
                }
                Atom::Class(ranges)
            }
            '\\' => {
                // Only `\PC` (printable char) is supported.
                assert!(
                    chars.get(i + 1) == Some(&'P') && chars.get(i + 2) == Some(&'C'),
                    "unsupported escape in `{pattern}`"
                );
                i += 3;
                Atom::Printable
            }
            c => {
                i += 1;
                Atom::Literal(c)
            }
        };
        let (min, max) = if chars.get(i) == Some(&'{') {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .map(|p| p + i)
                .unwrap_or_else(|| panic!("unclosed repetition in `{pattern}`"));
            let body: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match body.split_once(',') {
                Some((lo, hi)) => (
                    lo.trim().parse().expect("repetition lower bound"),
                    hi.trim().parse().expect("repetition upper bound"),
                ),
                None => {
                    let n = body.trim().parse().expect("repetition count");
                    (n, n)
                }
            }
        } else {
            (1, 1)
        };
        pieces.push(Piece { atom, min, max });
    }
    pieces
}

const UNICODE_SAMPLES: [char; 8] = ['é', 'ß', 'λ', 'Ж', '中', '→', '✓', '🦀'];

fn generate_atom(atom: &Atom, rng: &mut TestRng) -> char {
    match atom {
        Atom::Literal(c) => *c,
        Atom::Printable => {
            if rng.below(10) == 0 {
                UNICODE_SAMPLES[rng.below(UNICODE_SAMPLES.len())]
            } else {
                char::from(b' ' + rng.below(95) as u8)
            }
        }
        Atom::Class(ranges) => {
            let (lo, hi) = ranges[rng.below(ranges.len())];
            let span = (hi as u32).saturating_sub(lo as u32) + 1;
            char::from_u32(lo as u32 + rng.next_u64() as u32 % span).unwrap_or(lo)
        }
    }
}

impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse_pattern(self) {
            let n = piece.min + rng.below(piece.max - piece.min + 1);
            for _ in 0..n {
                out.push(generate_atom(&piece.atom, rng));
            }
        }
        out
    }
}

/// The names the real crate's prelude brings into scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, ProptestConfig, Strategy, TestRng, Union,
    };

    /// The `prop` namespace (`prop::collection::vec`, …).
    pub mod prop {
        pub use crate::collection;
        pub use crate::option;
        pub use crate::sample;
    }
}

/// Defines property tests. Each function body runs `config.cases`
/// times with freshly generated inputs; panics fail the test.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::from_name(stringify!($name));
            for _case in 0..config.cases {
                let mut one_case = || -> ::std::result::Result<(), ()> {
                    $( let $arg = $crate::Strategy::generate(&($strat), &mut rng); )*
                    $body
                    ::std::result::Result::Ok(())
                };
                let _ = one_case();
            }
        }
    )*};
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err(());
        }
    };
}

/// Asserts within a property (no shrinking in this shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion within a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assertion within a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Uniform choice between strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( $crate::Strategy::boxed($strat) ),+ ])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regex_subset_generates_within_class() {
        let mut rng = TestRng::from_name("regex");
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z][a-zA-Z0-9_.-]{0,8}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 9);
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(v in 0u32..10, s in "[0-9]{1,3}") {
            prop_assume!(v < 9);
            prop_assert!(v < 9);
            prop_assert_eq!(s.len(), s.chars().count());
        }
    }
}
