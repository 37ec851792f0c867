//! Minimal property-based testing: generator combinators plus a seeded,
//! shrinking-free case runner.
//!
//! ## Model
//!
//! A *generator* ([`Gen`]) turns a [`TestRng`] stream into a value; ranges
//! of primitive types are generators out of the box, and [`Gen::prop_map`],
//! [`Gen::prop_flat_map`], [`vec_of`], and [`from_fn`] compose them. The
//! [`prop!`](crate::prop!) macro wraps each property in a `#[test]` that
//! runs `cases` generated inputs through the body.
//!
//! ## Determinism and replay
//!
//! There is no shrinking. Instead every run is exactly reproducible:
//!
//! - Each property derives a **base seed** from a fixed workspace constant
//!   XOR an FNV-1a hash of its fully qualified test name, so the default
//!   run is deterministic per test and decorrelated across tests.
//! - Case `i` runs on `mix64(base_seed ^ i)`; a failure report prints both
//!   the base seed and the failing case seed.
//! - Setting `TESTKIT_SEED=<u64>` overrides the base seed for *all*
//!   properties: `TESTKIT_SEED=<reported base seed> cargo test -q <name>`
//!   replays a failure exactly; any other value explores a fresh case set
//!   (useful for scheduled deep runs).

use crate::rng::{mix64, TestRng};
use std::cell::Cell;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Fixed workspace-wide default seed (the digits of φ); combined with the
/// test-name hash so each property gets its own deterministic stream.
pub const DEFAULT_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A value generator: samples a `Value` from a seeded random stream.
pub trait Gen {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Applies `f` to every generated value. Named `prop_map` (as in
    /// proptest) so ranges keep their `Iterator::map` unambiguous.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Feeds every generated value into a generator-producing `f` and
    /// samples from the result (proptest's `prop_flat_map`).
    fn prop_flat_map<G: Gen, F: Fn(Self::Value) -> G>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// See [`Gen::prop_map`].
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, U, F: Fn(G::Value) -> U> Gen for Map<G, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Gen::prop_flat_map`].
pub struct FlatMap<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, H: Gen, F: Fn(G::Value) -> H> Gen for FlatMap<G, F> {
    type Value = H::Value;
    fn sample(&self, rng: &mut TestRng) -> H::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Wraps a closure as a generator.
pub fn from_fn<T, F: Fn(&mut TestRng) -> T>(f: F) -> FromFn<F> {
    FromFn { f }
}

/// See [`from_fn`].
pub struct FromFn<F> {
    f: F,
}

impl<T, F: Fn(&mut TestRng) -> T> Gen for FromFn<F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(rng)
    }
}

/// Always generates a clone of `value`.
pub fn just<T: Clone>(value: T) -> Just<T> {
    Just { value }
}

/// See [`just`].
pub struct Just<T> {
    value: T,
}

impl<T: Clone> Gen for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.value.clone()
    }
}

/// `Vec<T>` generator: element generator plus a length generator
/// (proptest's `prop::collection::vec`). A plain `usize` works as an exact
/// length.
pub fn vec_of<G: Gen, L: Gen<Value = usize>>(element: G, len: L) -> VecOf<G, L> {
    VecOf { element, len }
}

/// See [`vec_of`].
pub struct VecOf<G, L> {
    element: G,
    len: L,
}

impl<G: Gen, L: Gen<Value = usize>> Gen for VecOf<G, L> {
    type Value = Vec<G::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<G::Value> {
        let n = self.len.sample(rng);
        (0..n).map(|_| self.element.sample(rng)).collect()
    }
}

macro_rules! int_range_gen {
    ($($t:ty),+) => {$(
        impl Gen for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty generator range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Gen for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty generator range");
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u64;
                (*self.start() as i128 + rng.below(span) as i128) as $t
            }
        }
    )+};
}

int_range_gen!(usize, u64, u32, i64, i32);

macro_rules! float_range_gen {
    ($t:ty, $uniform:ident) => {
        impl Gen for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty generator range");
                self.start + (self.end - self.start) * rng.$uniform()
            }
        }
    };
}

float_range_gen!(f32, uniform_f32);
float_range_gen!(f64, uniform_f64);

/// A bare `usize` is the constant-length generator (for [`vec_of`]).
impl Gen for usize {
    type Value = usize;
    fn sample(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

thread_local! {
    static CASE_REJECTED: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current case as rejected (used by
/// [`prop_assume!`](crate::prop_assume!)); the runner draws a replacement
/// case without counting this one.
pub fn mark_rejected() {
    CASE_REJECTED.with(|c| c.set(true));
}

/// FNV-1a, for mixing the test name into the base seed.
fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Resolves the base seed for a property: `TESTKIT_SEED` env override, or
/// the workspace default XOR the test-name hash.
pub fn base_seed(test_name: &str) -> u64 {
    match std::env::var("TESTKIT_SEED") {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .or_else(|_| u64::from_str_radix(s.trim().trim_start_matches("0x"), 16))
            .unwrap_or_else(|_| panic!("TESTKIT_SEED must be a u64 (decimal or 0x-hex), got {s:?}")),
        Err(_) => DEFAULT_SEED ^ fnv1a(test_name),
    }
}

/// Runs `cases` generated inputs through `body`. Called by the
/// [`prop!`](crate::prop!) macro — the body samples its own arguments from
/// the per-case [`TestRng`].
///
/// Rejected cases (via `prop_assume!`) are retried with fresh draws, up to
/// 16× the case budget. On failure the original panic is re-raised after
/// printing the base and case seeds needed for replay.
pub fn run(test_name: &str, cases: u32, body: impl Fn(&mut TestRng)) {
    let base = base_seed(test_name);
    let mut accepted = 0u32;
    let mut attempt = 0u32;
    while accepted < cases {
        if attempt >= cases.saturating_mul(16) {
            panic!(
                "property '{test_name}': too many rejected cases \
                 ({accepted}/{cases} accepted after {attempt} attempts) — \
                 loosen prop_assume! or the generator ranges"
            );
        }
        let case_seed = mix64(base ^ attempt as u64);
        attempt += 1;
        CASE_REJECTED.with(|c| c.set(false));
        let mut rng = TestRng::new(case_seed);
        match catch_unwind(AssertUnwindSafe(|| body(&mut rng))) {
            Ok(()) => {
                if !CASE_REJECTED.with(|c| c.get()) {
                    accepted += 1;
                }
            }
            Err(payload) => {
                eprintln!(
                    "testkit::prop: property '{test_name}' failed on case {accepted} \
                     (case seed {case_seed:#x}).\n\
                     Replay the whole run with: TESTKIT_SEED={base} cargo test -q"
                );
                resume_unwind(payload);
            }
        }
    }
}

/// Declares property tests. Each `fn` becomes a `#[test]` running `cases`
/// generated inputs (default 64) through its body:
///
/// ```
/// use testkit::{prop, prop_assert, prop_assert_eq, prop_assume};
///
/// prop! {
///     #![config(cases = 32)]
///
///     fn addition_commutes(a in 0i64..1000, b in 0i64..1000) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! prop {
    (#![config(cases = $cases:expr)] $($rest:tt)*) => {
        $crate::prop!(@run $cases; $($rest)*);
    };
    (@run $cases:expr; $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $gen:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::prop::run(
                concat!(module_path!(), "::", stringify!($name)),
                $cases,
                |__testkit_rng| {
                    $(let $arg = $crate::prop::Gen::sample(&($gen), __testkit_rng);)+
                    $body
                },
            );
        }
    )*};
    ($($rest:tt)*) => {
        $crate::prop!(@run 64u32; $($rest)*);
    };
}

/// Property-scoped assertion (alias of `assert!`; kept so migrated
/// proptest suites read unchanged and failures carry the macro name).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Property-scoped equality assertion (alias of `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Skips the current case when `cond` is false; the runner draws a fresh
/// case in its place (bounded by the rejection budget).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            $crate::prop::mark_rejected();
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::prop! {
        #![config(cases = 50)]

        fn int_ranges_hit_bounds(a in 0usize..5, b in 3u64..=3) {
            prop_assert!(a < 5);
            prop_assert_eq!(b, 3);
        }

        fn float_range_contained(x in -2.5f32..7.5) {
            prop_assert!((-2.5..7.5).contains(&x));
        }

        fn vec_of_respects_length(v in vec_of(0i64..10, 2usize..=4)) {
            prop_assert!((2..=4).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| (0..10).contains(&x)));
        }

        fn exact_length_vec(v in vec_of(0.0f64..1.0, 7usize)) {
            prop_assert_eq!(v.len(), 7);
        }

        fn map_and_flat_map_compose(v in (1usize..=4).prop_flat_map(|n| vec_of(0u32..100, n)).prop_map(|v| v.len())) {
            prop_assert!((1..=4).contains(&v));
        }

        fn assume_rejects_without_consuming(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    #[test]
    fn same_name_same_cases() {
        // The runner is deterministic: identical name + case budget =>
        // identical drawn values.
        let collect = || {
            let drawn = std::cell::RefCell::new(Vec::new());
            run("testkit::prop::determinism_probe", 10, |rng| {
                drawn.borrow_mut().push(rng.next_u64());
            });
            drawn.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn distinct_names_decorrelate() {
        if std::env::var("TESTKIT_SEED").is_ok() {
            return; // a global seed override intentionally erases per-name streams
        }
        let first_draw = |name: &str| {
            let v = Cell::new(0u64);
            run(name, 1, |rng| v.set(rng.next_u64()));
            v.get()
        };
        assert_ne!(first_draw("prop_a"), first_draw("prop_b"));
    }

    #[test]
    #[should_panic(expected = "too many rejected cases")]
    fn rejection_budget_is_enforced() {
        run("always_rejects", 4, |_rng| {
            mark_rejected();
        });
    }
}
