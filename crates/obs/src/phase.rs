//! The wall-clock phase plane.
//!
//! A [`scope`] is an RAII timer: construction stamps `Instant::now()`,
//! drop records the elapsed nanoseconds into the calling thread's
//! per-phase aggregate (count / total / min / max / log₂-ns histogram).
//!
//! The timers only exist under the `obs-wallclock` cargo feature; a
//! default build compiles [`PhaseScope`] to a zero-sized no-op. Even
//! with the feature on, scopes are disarmed until
//! [`set_enabled`]`(true)` — one relaxed atomic load decides — so
//! instrumented hot paths cost nothing measurable in ordinary runs.
//!
//! The aggregate/snapshot types are compiled unconditionally so callers
//! (bench tables, campaign profiles) have one API regardless of the
//! feature: without it every snapshot is simply all-zero.

use std::cell::RefCell;
#[cfg(feature = "obs-wallclock")]
use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(feature = "obs-wallclock")]
use std::time::Instant;

macro_rules! phases {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// One timed engine phase.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum Phase {
            $($(#[$doc])* $variant,)+
        }

        /// Number of registered phases.
        pub const PHASE_COUNT: usize = Phase::ALL.len();

        impl Phase {
            /// Every phase, in declaration (= snapshot) order.
            pub const ALL: &'static [Phase] = &[$(Phase::$variant),+];

            /// The stable name used in JSON output.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Phase::$variant => $name,)+
                }
            }
        }
    };
}

phases! {
    /// Preparing a raw schedule: the scheduler's diff of the design
    /// against its job arena, and patching or expanding the arena (an
    /// unchanged design ends here).
    Expand => "expand",
    /// Resetting the timelines from the frozen base and list-scheduling
    /// the current application. No table is assembled here: tables are
    /// built on demand, outside every phase.
    RePlace => "replace",
    /// Copying a kept design's `SlackProfile` out of the live timelines.
    Slack => "slack",
    /// Scoring a run's slack (the live timelines) with the C1/C2
    /// objective.
    Objective => "objective",
    /// Baking a `FrozenBase` (frozen schedule replay + validation).
    Bake => "bake",
    /// Recomputing a graph's priorities after a cost change, and on a
    /// patch moving each job whose priority changed in the pop order
    /// (nested inside `Expand`, so not summed with the other phases).
    PriorityRefresh => "priority_refresh",
}

/// Histogram buckets: bucket `b` holds durations with
/// `floor(log2(ns)) + 1 == b` (bucket 0 is exactly 0 ns), saturating at
/// the last bucket (≈ 9 minutes and beyond).
pub const HIST_BUCKETS: usize = 40;

#[cfg_attr(not(any(feature = "obs-wallclock", test)), allow(dead_code))]
fn bucket(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Per-phase aggregate of recorded scope durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Scopes recorded.
    pub count: u64,
    /// Sum of recorded nanoseconds (wrapping).
    pub total_ns: u64,
    /// Shortest recorded scope (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest recorded scope.
    pub max_ns: u64,
    /// Log₂-nanosecond histogram (see [`HIST_BUCKETS`]).
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for PhaseAgg {
    fn default() -> Self {
        PhaseAgg {
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl PhaseAgg {
    #[cfg_attr(not(any(feature = "obs-wallclock", test)), allow(dead_code))]
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.wrapping_add(ns);
        self.min_ns = if self.count == 1 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
        self.hist[bucket(ns)] += 1;
    }
}

thread_local! {
    static AGGS: RefCell<[PhaseAgg; PHASE_COUNT]> =
        RefCell::new([PhaseAgg::default(); PHASE_COUNT]);
}

#[cfg(feature = "obs-wallclock")]
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms) the timer plane process-wide. A no-op without the
/// `obs-wallclock` feature.
#[cfg(feature = "obs-wallclock")]
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Arms (or disarms) the timer plane process-wide. A no-op without the
/// `obs-wallclock` feature.
#[cfg(not(feature = "obs-wallclock"))]
pub fn set_enabled(_on: bool) {}

/// Whether the timer plane is armed. Always `false` without the
/// `obs-wallclock` feature.
#[cfg(feature = "obs-wallclock")]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether the timer plane is armed. Always `false` without the
/// `obs-wallclock` feature.
#[cfg(not(feature = "obs-wallclock"))]
pub fn enabled() -> bool {
    false
}

/// An RAII phase timer: records on drop when armed, otherwise inert.
/// Zero-sized without the `obs-wallclock` feature.
#[must_use = "a phase scope times until it is dropped"]
pub struct PhaseScope {
    #[cfg(feature = "obs-wallclock")]
    armed: Option<(Phase, Instant)>,
}

/// Opens a timer scope for `phase`.
#[inline]
pub fn scope(phase: Phase) -> PhaseScope {
    #[cfg(feature = "obs-wallclock")]
    {
        PhaseScope {
            armed: enabled().then(|| (phase, Instant::now())),
        }
    }
    #[cfg(not(feature = "obs-wallclock"))]
    {
        let _ = phase;
        PhaseScope {}
    }
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        #[cfg(feature = "obs-wallclock")]
        if let Some((phase, start)) = self.armed.take() {
            record(phase, start);
        }
    }
}

#[cfg(feature = "obs-wallclock")]
fn record(phase: Phase, start: Instant) {
    let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let _ = AGGS.try_with(|aggs| aggs.borrow_mut()[phase as usize].record(ns));
}

/// Copies the calling thread's phase aggregates.
pub fn snapshot() -> PhaseSnapshot {
    AGGS.try_with(|aggs| PhaseSnapshot {
        aggs: *aggs.borrow(),
    })
    .unwrap_or_default()
}

/// Folds a harvested worker tally onto the calling thread's aggregates
/// (associative, like the counter merge).
pub fn merge_into_current(snap: &PhaseSnapshot) {
    let _ = AGGS.try_with(|aggs| {
        let mut aggs = aggs.borrow_mut();
        for (agg, other) in aggs.iter_mut().zip(snap.aggs.iter()) {
            *agg = merge_agg(agg, other);
        }
    });
}

fn merge_agg(a: &PhaseAgg, b: &PhaseAgg) -> PhaseAgg {
    let min_ns = match (a.count, b.count) {
        (0, _) => b.min_ns,
        (_, 0) => a.min_ns,
        _ => a.min_ns.min(b.min_ns),
    };
    let mut hist = [0u64; HIST_BUCKETS];
    for (h, (&x, &y)) in hist.iter_mut().zip(a.hist.iter().zip(b.hist.iter())) {
        *h = x.wrapping_add(y);
    }
    PhaseAgg {
        count: a.count.wrapping_add(b.count),
        total_ns: a.total_ns.wrapping_add(b.total_ns),
        min_ns,
        max_ns: a.max_ns.max(b.max_ns),
        hist,
    }
}

/// A point-in-time copy of one thread's phase aggregates (or a merged
/// tally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSnapshot {
    aggs: [PhaseAgg; PHASE_COUNT],
}

impl Default for PhaseSnapshot {
    fn default() -> Self {
        PhaseSnapshot {
            aggs: [PhaseAgg::default(); PHASE_COUNT],
        }
    }
}

impl PhaseSnapshot {
    /// The aggregate recorded for `phase`.
    pub fn get(&self, phase: Phase) -> &PhaseAgg {
        &self.aggs[phase as usize]
    }

    /// Total recorded nanoseconds for `phase`.
    pub fn total_ns(&self, phase: Phase) -> u64 {
        self.aggs[phase as usize].total_ns
    }

    /// Aggregates accumulated between `earlier` and `self` on one
    /// thread: count/total/histogram subtract; `min_ns`/`max_ns` are
    /// copied from `self` (extrema are not differentiable, and the
    /// whole-window extrema are the useful ones for a delta report).
    pub fn delta_since(&self, earlier: &PhaseSnapshot) -> PhaseSnapshot {
        let mut out = *self;
        for (agg, early) in out.aggs.iter_mut().zip(earlier.aggs.iter()) {
            agg.count = agg.count.wrapping_sub(early.count);
            agg.total_ns = agg.total_ns.wrapping_sub(early.total_ns);
            for (h, &e) in agg.hist.iter_mut().zip(early.hist.iter()) {
                *h = h.wrapping_sub(e);
            }
        }
        out
    }

    /// Element-wise aggregate merge — the associative worker fold.
    pub fn merge(&self, other: &PhaseSnapshot) -> PhaseSnapshot {
        let mut out = PhaseSnapshot::default();
        for (i, agg) in out.aggs.iter_mut().enumerate() {
            *agg = merge_agg(&self.aggs[i], &other.aggs[i]);
        }
        out
    }

    /// Renders `{"phase":{"count":…,"total_ns":…,"min_ns":…,"max_ns":…,
    /// "hist":[…]},…}` with the histogram's trailing zero buckets
    /// trimmed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, &phase) in Phase::ALL.iter().enumerate() {
            let a = self.get(phase);
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{},\"hist\":[",
                phase.name(),
                a.count,
                a.total_ns,
                a.min_ns,
                a.max_ns
            ));
            let last = a.hist.iter().rposition(|&h| h != 0).map_or(0, |p| p + 1);
            for (k, h) in a.hist[..last].iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&h.to_string());
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(1024), 11);
        assert_eq!(bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn record_merge_and_delta_agree() {
        let mut a = PhaseAgg::default();
        a.record(10);
        a.record(100);
        let mut b = PhaseAgg::default();
        b.record(3);
        let m = merge_agg(&a, &b);
        assert_eq!(m.count, 3);
        assert_eq!(m.total_ns, 113);
        assert_eq!(m.min_ns, 3);
        assert_eq!(m.max_ns, 100);
        // Merging an empty aggregate keeps the extrema intact.
        let e = merge_agg(&a, &PhaseAgg::default());
        assert_eq!(e.min_ns, 10);
        assert_eq!(e.max_ns, 100);

        let mut early = PhaseSnapshot::default();
        early.aggs[Phase::Expand as usize] = b;
        let mut late = PhaseSnapshot::default();
        late.aggs[Phase::Expand as usize] = m;
        let d = late.delta_since(&early);
        assert_eq!(d.get(Phase::Expand).count, 2);
        assert_eq!(d.get(Phase::Expand).total_ns, 110);
    }

    #[test]
    fn json_names_every_phase() {
        let json = PhaseSnapshot::default().to_json();
        for p in Phase::ALL {
            assert!(json.contains(p.name()), "{} missing from json", p.name());
        }
    }

    #[cfg(feature = "obs-wallclock")]
    #[test]
    fn armed_scope_records_on_this_thread() {
        // Run on a dedicated thread so other tests' scopes (same
        // process) cannot interleave with the before/after delta.
        std::thread::spawn(|| {
            set_enabled(true);
            let before = snapshot();
            drop(scope(Phase::Bake));
            set_enabled(false);
            let d = snapshot().delta_since(&before);
            assert_eq!(d.get(Phase::Bake).count, 1);
        })
        .join()
        .unwrap();
    }
}
