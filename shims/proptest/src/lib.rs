//! Offline shim of `proptest`: deterministic property testing with
//! minimal shrinking. Supports the subset used in this workspace: the
//! `proptest!` macro (with optional `#![proptest_config(...)]`),
//! integer/float range strategies, `proptest::collection::vec`,
//! `Just`, `any`, and the `prop_assert*` macros.
//!
//! Each test function replays a fixed set of seeds, so failures are
//! reproducible run-to-run. When a case fails (assertion or panic),
//! the inputs are greedily shrunk — integers toward the lower bound of
//! their range, vectors toward fewer and smaller elements — and the
//! near-minimal failing inputs are reported.

/// Strategy trait: how to generate one value from an RNG, and how to
/// simplify a failing value.
pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Generates values of an associated type from a [`TestRng`].
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Candidate simplifications of a failing `value`, most
        /// aggressive first. The default is no shrinking.
        fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
        fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
            (**self).shrink(value)
        }
    }

    /// Greedily minimizes a failing input: repeatedly adopts the first
    /// shrink candidate that still fails, until no candidate fails or
    /// `max_attempts` candidate evaluations have been spent. Returns the
    /// minimal value found and the number of successful shrink steps.
    pub fn minimize<S: Strategy>(
        strategy: &S,
        initial: S::Value,
        mut fails: impl FnMut(&S::Value) -> bool,
        max_attempts: usize,
    ) -> (S::Value, usize) {
        let mut current = initial;
        let mut steps = 0usize;
        let mut attempts = 0usize;
        'outer: while attempts < max_attempts {
            for candidate in strategy.shrink(&current) {
                if attempts >= max_attempts {
                    break 'outer;
                }
                attempts += 1;
                if fails(&candidate) {
                    current = candidate;
                    steps += 1;
                    continue 'outer;
                }
            }
            break;
        }
        (current, steps)
    }

    /// Shrink candidates for an integer `v` bounded below by `lo`
    /// (both widened to `i128`): the bound itself, the midpoint, and
    /// one step down — ascending, so the most aggressive comes first.
    fn int_candidates(lo: i128, v: i128) -> Vec<i128> {
        if v <= lo {
            return Vec::new();
        }
        let mut out = vec![lo, lo + (v - lo) / 2, v - 1];
        out.dedup();
        out
    }

    /// Always yields a clone of the same value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    int_candidates(self.start as i128, *value as i128)
                        .into_iter()
                        .map(|c| c as $t)
                        .collect()
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    int_candidates(*self.start() as i128, *value as i128)
                        .into_iter()
                        .map(|c| c as $t)
                        .collect()
                }
            }
        )*};
    }
    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    // Float ranges generate but do not shrink (no natural minimal step).
    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }
    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            rng.gen_range(self.clone())
        }
    }

    /// One boxed arm of [`OneOf`]: draws a value from the RNG.
    pub type Arm<V> = Box<dyn Fn(&mut TestRng) -> V>;

    /// Uniform choice between several strategies with a common value
    /// type (the shim behind `prop_oneof!`; no per-arm weights, no
    /// shrinking — the chosen arm is not recorded).
    pub struct OneOf<V> {
        arms: Vec<Arm<V>>,
    }

    impl<V> OneOf<V> {
        /// Creates the strategy from pre-boxed arms.
        pub fn new(arms: Vec<Arm<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { arms }
        }
    }

    impl<V> Strategy for OneOf<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let idx = rng.gen_range(0..self.arms.len());
            (self.arms[idx])(rng)
        }
    }

    impl Strategy for () {
        type Value = ();
        fn generate(&self, _rng: &mut TestRng) {}
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident . $idx:tt),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+)
            where
                $($name::Value: Clone),+
            {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    $(
                        for candidate in self.$idx.shrink(&value.$idx) {
                            let mut v = value.clone();
                            v.$idx = candidate;
                            out.push(v);
                        }
                    )+
                    out
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8)
        (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7, I.8, J.9)
    }

    /// Full-domain strategy for `any::<T>()`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T> Any<T> {
        /// Creates the strategy.
        pub fn new() -> Self {
            Any(std::marker::PhantomData)
        }
    }

    /// Shrink candidates for a full-domain integer: toward zero.
    fn any_candidates(v: i128) -> Vec<i128> {
        if v == 0 {
            return Vec::new();
        }
        let mut out = vec![0, v / 2, v - v.signum()];
        out.dedup();
        out.retain(|&c| c != v);
        out
    }

    macro_rules! impl_any_int {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_raw() as $t
                }
                fn shrink(&self, value: &$t) -> Vec<$t> {
                    any_candidates(*value as i128)
                        .into_iter()
                        .map(|c| c as $t)
                        .collect()
                }
            }
        )*};
    }
    impl_any_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_raw() & 1 == 1
        }
        fn shrink(&self, value: &bool) -> Vec<bool> {
            if *value {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// Admissible lengths for a generated collection.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            let (lo, hi) = r.into_inner();
            assert!(lo <= hi, "empty size range");
            SizeRange {
                lo,
                hi_inclusive: hi,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with lengths drawn from a
    /// [`SizeRange`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Creates a strategy producing vectors of `element` values.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..=self.size.hi_inclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }

        /// Shrinks the length first (truncate to the minimum, halve,
        /// drop single elements), then each element via the element
        /// strategy — most aggressive first.
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            let lo = self.size.lo;
            let n = value.len();
            if n > lo {
                out.push(value[..lo].to_vec());
                let half = lo.max(n / 2);
                if half > lo && half < n {
                    out.push(value[..half].to_vec());
                }
                for i in 0..n {
                    let mut v = value.clone();
                    v.remove(i);
                    out.push(v);
                }
            }
            for i in 0..n {
                for candidate in self.element.shrink(&value[i]) {
                    let mut v = value.clone();
                    v[i] = candidate;
                    out.push(v);
                }
            }
            out
        }
    }
}

/// Test execution machinery.
pub mod test_runner {
    use rand::{RngCore, SeedableRng, SmallRng};
    use std::fmt;

    /// Deterministic RNG driving value generation.
    #[derive(Debug, Clone)]
    pub struct TestRng(SmallRng);

    impl TestRng {
        /// Seeds a generation stream.
        pub fn new(seed: u64) -> Self {
            TestRng(SmallRng::seed_from_u64(seed))
        }

        /// Raw 64 bits (used by `any`).
        pub fn next_raw(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    impl RngCore for TestRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }

    /// Failure signal raised by `prop_assert*` macros.
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        /// A failed assertion.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(&self.message)
        }
    }

    /// Best-effort string form of a `catch_unwind` payload.
    pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = payload.downcast_ref::<&str>() {
            format!("panic: {s}")
        } else if let Some(s) = payload.downcast_ref::<String>() {
            format!("panic: {s}")
        } else {
            "panic (non-string payload)".to_string()
        }
    }

    /// Per-test configuration (subset of the real struct).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // Like the real crate: the PROPTEST_CASES environment
            // variable overrides the built-in default, so CI can run
            // dedicated high-case fuzz jobs without code changes.
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// Drives the per-case loop of one property.
    #[derive(Debug, Clone)]
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// Creates a runner with the given config.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Number of cases to execute.
        pub fn cases(&self) -> u32 {
            self.config.cases
        }

        /// Deterministic RNG for case number `case`.
        pub fn rng_for(&self, case: u32) -> TestRng {
            TestRng::new(P_SEED ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        }
    }

    /// Candidate evaluations spent shrinking one failing case.
    pub const MAX_SHRINK_ATTEMPTS: usize = 512;

    /// Serializes panic-hook swapping across concurrently-failing
    /// properties (the hook is process-global state).
    static SHRINK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    const P_SEED: u64 = 0x5EED_0F1E_57CA_5E00;

    /// A failing property case, already shrunk to a near-minimal input.
    #[derive(Debug)]
    pub struct CaseFailure<V> {
        /// Zero-based index of the failing case.
        pub case: u32,
        /// Total cases the runner would execute.
        pub cases: u32,
        /// The minimal failing input found.
        pub minimal: V,
        /// Successful shrink steps taken to reach it.
        pub shrink_steps: usize,
        /// The failure of the minimal input.
        pub error: TestCaseError,
    }

    /// Executes every case of one property; on the first failure, shrinks
    /// the input via [`crate::strategy::minimize`] and returns the
    /// near-minimal reproduction. The `proptest!` macro expands to a call
    /// of this function.
    pub fn run_cases<S: crate::strategy::Strategy>(
        runner: &TestRunner,
        strategy: &S,
        run: impl Fn(&S::Value) -> Result<(), TestCaseError>,
    ) -> Option<CaseFailure<S::Value>> {
        for case in 0..runner.cases() {
            let mut rng = runner.rng_for(case);
            let value = strategy.generate(&mut rng);
            if let Err(first) = run(&value) {
                // Silence the panic hook while candidates replay — every
                // failing candidate panics again, and hundreds of traces
                // would bury the minimal-input report. The initial
                // failure above already printed one full trace. The hook
                // is process-global, so hold SHRINK_LOCK across the whole
                // swap/restore window: two concurrently-shrinking
                // properties must not interleave their take/set pairs (an
                // unrelated test failing inside the window still loses
                // its trace — the window is short and only open while a
                // property is already failing).
                let _guard = SHRINK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
                let hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(|_| {}));
                let (minimal, shrink_steps) = crate::strategy::minimize(
                    strategy,
                    value,
                    |v| run(v).is_err(),
                    MAX_SHRINK_ATTEMPTS,
                );
                // Re-run once for the minimal input's own message (a
                // deterministic body always fails again; fall back to the
                // original error otherwise).
                let error = run(&minimal).err();
                std::panic::set_hook(hook);
                return Some(CaseFailure {
                    case,
                    cases: runner.cases(),
                    minimal,
                    shrink_steps,
                    error: error.unwrap_or(first),
                });
            }
        }
        None
    }
}

/// Glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Strategy over the full domain of `T`.
    pub fn any<T>() -> crate::strategy::Any<T>
    where
        crate::strategy::Any<T>: crate::strategy::Strategy,
    {
        crate::strategy::Any::new()
    }
}

/// Runs properties: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` that replays `cases` deterministic inputs and
/// shrinks failing cases to near-minimal inputs before reporting.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()); $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr); $( $(#[$meta:meta])* fn $name:ident (
        $( $arg:ident in $strat:expr ),* $(,)?
    ) $body:block )* ) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            let __runner = $crate::test_runner::TestRunner::new(__config);
            let __strategy = ( $( $strat, )* );
            // One case is a pure function of the input tuple: Ok, a
            // prop_assert failure, or a caught panic — re-runnable, so
            // `run_cases` can replay shrink candidates.
            let __failure = $crate::test_runner::run_cases(
                &__runner,
                &__strategy,
                |__value| {
                    let ( $( $arg, )* ) = ::std::clone::Clone::clone(__value);
                    match ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                        move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                            $body
                            ::std::result::Result::Ok(())
                        },
                    )) {
                        ::std::result::Result::Ok(outcome) => outcome,
                        ::std::result::Result::Err(payload) => ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::fail(
                                $crate::test_runner::panic_message(payload.as_ref()),
                            ),
                        ),
                    }
                },
            );
            if let ::std::option::Option::Some(__f) = __failure {
                let ( $( $arg, )* ) = __f.minimal;
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, "),*),
                    $(&$arg),*
                );
                panic!(
                    "proptest case {}/{} failed: {}\n  minimal inputs ({} shrink steps): {}",
                    __f.case + 1,
                    __f.cases,
                    __f.error,
                    __f.shrink_steps,
                    __inputs
                );
            }
        }
    )*};
}

/// Uniform choice between strategies sharing a value type.
///
/// Unlike real proptest, per-arm `weight =>` prefixes are not
/// supported; all arms are equally likely.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![
            $({
                let __s = $strat;
                ::std::boxed::Box::new(move |__rng: &mut $crate::test_runner::TestRng| {
                    $crate::strategy::Strategy::generate(&__s, __rng)
                }) as ::std::boxed::Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>
            },)+
        ])
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!(
                    "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                    stringify!($left),
                    stringify!($right),
                    l,
                    r
                ),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    }};
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Skips the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Ok(());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::collection::vec;
    use crate::strategy::{minimize, Any, Strategy};
    use crate::test_runner::TestRng;

    #[test]
    fn int_range_shrinks_to_smallest_failing() {
        let (minimal, steps) = minimize(&(0u64..1000), 700, |v| *v >= 7, 256);
        assert_eq!(minimal, 7);
        assert!(steps > 0);
    }

    #[test]
    fn shrink_respects_range_bounds() {
        let strat = 3usize..25;
        let candidates = strat.shrink(&20);
        assert!(!candidates.is_empty());
        for c in candidates {
            assert!((3..20).contains(&c), "candidate {c} escapes [3, 20)");
        }
        assert!(
            strat.shrink(&3).is_empty(),
            "the bound itself cannot shrink"
        );
    }

    #[test]
    fn inclusive_range_shrinks() {
        let (minimal, _) = minimize(&(5u32..=50), 50, |v| *v > 9, 256);
        assert_eq!(minimal, 10);
    }

    #[test]
    fn signed_any_shrinks_toward_zero() {
        let (minimal, _) = minimize(&Any::<i64>::new(), -900, |v| *v <= -5, 256);
        assert_eq!(minimal, -5);
    }

    #[test]
    fn vec_shrinks_length_then_elements() {
        let strat = vec(0u32..100, 0..10);
        let initial = std::vec![3, 42, 17, 99];
        let (minimal, _) = minimize(&strat, initial, |v| v.iter().any(|&x| x >= 40), 1024);
        assert_eq!(minimal, std::vec![40]);
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let strat = vec(0u32..10, 2..6);
        let (minimal, _) = minimize(&strat, std::vec![9, 9, 9, 9], |_| true, 1024);
        assert_eq!(
            minimal,
            std::vec![0, 0],
            "stops at min length, min elements"
        );
    }

    #[test]
    fn tuple_shrinks_componentwise() {
        let strat = (0u32..50, 0u64..50);
        let (minimal, _) = minimize(&strat, (30, 40), |(a, b)| *a >= 10 && *b >= 4, 512);
        assert_eq!(minimal, (10, 4));
    }

    #[test]
    fn minimize_respects_attempt_budget() {
        let (unchanged, steps) = minimize(&(0u64..1000), 999, |_| true, 0);
        assert_eq!((unchanged, steps), (999, 0));
        let (one_step, steps) = minimize(&(0u64..1000), 999, |_| true, 1);
        assert_eq!((one_step, steps), (0, 1), "first candidate is the bound");
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = vec((0u32..9, 1u64..7), 0..12);
        let a = strat.generate(&mut TestRng::new(42));
        let b = strat.generate(&mut TestRng::new(42));
        assert_eq!(a, b);
    }

    // End-to-end through the macro: a failing case is shrunk to the
    // smallest failing input before the report panics, and panicking
    // bodies are caught and shrunk the same way.
    crate::proptest! {
        #![proptest_config(crate::test_runner::ProptestConfig::with_cases(16))]

        #[test]
        #[should_panic(expected = "x = 3")]
        fn macro_shrinks_assertion_failures(x in 0u64..1000) {
            crate::prop_assert!(x < 3, "x too big: {x}");
        }

        #[test]
        #[should_panic(expected = "panic: boom")]
        fn macro_catches_and_shrinks_panics(x in 0u64..1000) {
            if x >= 1 {
                panic!("boom");
            }
        }
    }
}
