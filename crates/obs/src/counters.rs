//! The deterministic counter plane.
//!
//! A counter is bumped at exactly one (or a handful of) well-defined
//! program points, so its value after a workload is a pure function of
//! the work done — never of wall-clock, scheduling, or thread
//! interleaving. Storage is a per-thread array of [`Cell`]s: bumping is
//! a non-atomic load/store, and parallel sections stay deterministic by
//! having each worker [`snapshot`] its own tally (fresh scoped threads
//! start at zero) and the owner [`merge_into_current`] them — an
//! associative, commutative element-wise sum, so the fold order cannot
//! matter.
//!
//! To add a counter: append a `Variant => "json_name"` line to the
//! `counters!` block below (the registry), then `bump`/`add` it at the
//! event site. Everything else — `ALL`, snapshots, JSON — follows.

use std::cell::Cell;

macro_rules! counters {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)+) => {
        /// A registered monotonic event counter. The discriminant is
        /// the index into snapshots and the thread-local cells.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(usize)]
        pub enum Counter {
            $($(#[$doc])* $variant,)+
        }

        /// Number of registered counters.
        pub const COUNTER_COUNT: usize = Counter::ALL.len();

        impl Counter {
            /// Every registered counter, in declaration (= snapshot) order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),+];

            /// The stable snake_case name used in JSON output.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    /// Retired, never bumped (reads 0): the engine no longer splices
    /// recorded placements. Kept registered for existing readers.
    SpliceStepsSpliced => "splice_steps_spliced",
    /// Retired, never bumped (reads 0): every run resets from the base.
    /// Kept registered for existing readers.
    DeltaRebases => "delta_rebases",
    /// Retired, never bumped (reads 0): the run-record cache is gone.
    /// Kept registered for existing readers.
    RecordCacheHits => "record_cache_hits",
    /// Evaluations answered without re-placing: the scheduler found the
    /// design equal to the last evaluated one.
    MemoHits => "memo_hits",
    /// Evaluations that ran the scheduler on a changed design; their
    /// result becomes the one kept for the next unchanged design.
    MemoInserts => "memo_inserts",
    /// Retired, never bumped (reads 0): C1 no longer patches containers
    /// by `Arc` identity. Kept registered for existing readers.
    C1Patched => "c1_patched",
    /// C1 future-item runs rebuilt (new future profile, horizon or bus rate).
    C1Repacked => "c1_repacked",
    /// Retired, never bumped (reads 0): C2 is computed directly, with no
    /// identity cache. Kept registered for existing readers.
    C2IdentityHits => "c2_identity_hits",
    /// Retired, never bumped (reads 0), like `C2IdentityHits`.
    C2WindowsRecomputed => "c2_windows_recomputed",
    /// Retired, never bumped (reads 0): slack profiles no longer alias
    /// the frozen base's gap lists. Kept registered for existing readers.
    SlackGapsAliased => "slack_gaps_aliased",
    /// Slack gap lists copied from the live timelines into a slack
    /// profile: one per PE per profile (added once per profile). The
    /// search builds profiles for kept designs only.
    SlackGapsMaterialized => "slack_gaps_materialized",
    /// Jobs the list-scheduling loop takes from its pop order to place,
    /// one per job it tries to place (a failed placement included).
    /// Named after the binary heap the pop order replaced.
    HeapPops => "heap_pops",
    /// Free gaps examined by `PeTimeline`'s gap search (added once per
    /// search).
    GapSteps => "gap_steps",
    /// `PeTimeline` reservations that split a free gap in two.
    GapSplits => "gap_splits",
    /// Slot occurrences examined by `BusTimeline::schedule_message_nth`
    /// and `peek_message` (added once per call).
    BusProbes => "bus_probes",
    /// `FrozenBase` bakes (frozen schedule replayed + validated).
    BaseBakes => "base_bakes",
    /// Scenarios that panicked and were quarantined (isolated, never
    /// campaign-fatal).
    ScenarioPanics => "scenario_panics",
    /// Runs whose scheduler found the design changed and patched its
    /// job arena in place.
    ArenaPatched => "arena_patched",
    /// Runs whose scheduler wrote its whole job arena from the design:
    /// its first run, and the first after a run whose sync failed.
    ArenaExpansions => "arena_expansions",
    /// Schedule tables built from a run's placements by the one merge
    /// routine: one per design a caller receives, none per evaluation.
    TablesMaterialized => "tables_materialized",
}

thread_local! {
    static CELLS: [Cell<u64>; COUNTER_COUNT] = const { [const { Cell::new(0) }; COUNTER_COUNT] };
}

/// Increments `counter` by one on the calling thread.
#[inline]
pub fn bump(counter: Counter) {
    add(counter, 1);
}

/// Adds `n` to `counter` on the calling thread. Silently a no-op during
/// thread-local teardown (a destructor running after the cells died).
#[inline]
pub fn add(counter: Counter, n: u64) {
    let _ = CELLS.try_with(|cells| {
        let cell = &cells[counter as usize];
        cell.set(cell.get().wrapping_add(n));
    });
}

/// Copies the calling thread's counter cells. A fresh (scoped worker)
/// thread snapshots all zeros, so its final snapshot *is* its tally.
pub fn snapshot() -> CounterSnapshot {
    CELLS
        .try_with(|cells| CounterSnapshot {
            counts: std::array::from_fn(|i| cells[i].get()),
        })
        .unwrap_or_default()
}

/// Sets the calling thread's cells to `snap`: a debug-build cross-check
/// that repeats counted work takes its counts back out this way. Release
/// builds have no way to rewrite the counters.
#[cfg(debug_assertions)]
pub fn reset_to(snap: &CounterSnapshot) {
    let _ = CELLS.try_with(|cells| {
        for (cell, &n) in cells.iter().zip(snap.counts.iter()) {
            cell.set(n);
        }
    });
}

/// Folds a harvested worker tally onto the calling thread's cells. The
/// sum is associative and commutative, so the order workers are joined
/// in cannot change the merged totals.
pub fn merge_into_current(snap: &CounterSnapshot) {
    let _ = CELLS.try_with(|cells| {
        for (cell, &n) in cells.iter().zip(snap.counts.iter()) {
            cell.set(cell.get().wrapping_add(n));
        }
    });
}

/// A point-in-time copy of one thread's counters (or a merged tally).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    counts: [u64; COUNTER_COUNT],
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        CounterSnapshot {
            counts: [0; COUNTER_COUNT],
        }
    }
}

impl CounterSnapshot {
    /// The recorded value of `counter`.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    /// Counts accumulated between `earlier` and `self` on one thread
    /// (wrapping, like the cells themselves).
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].wrapping_sub(earlier.counts[i])),
        }
    }

    /// Element-wise sum — the associative fold worker tallies use.
    pub fn merge(&self, other: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            counts: std::array::from_fn(|i| self.counts[i].wrapping_add(other.counts[i])),
        }
    }

    /// `(counter, value)` pairs in registry order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// Renders `{"name":value,...}` in registry order (hand-rolled so
    /// the leaf crate stays dependency-free).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (c, n)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(c.name());
            out.push_str("\":");
            out.push_str(&n.to_string());
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_and_delta_are_exact() {
        let before = snapshot();
        bump(Counter::MemoHits);
        add(Counter::GapSteps, 3);
        let d = snapshot().delta_since(&before);
        assert_eq!(d.get(Counter::MemoHits), 1);
        assert_eq!(d.get(Counter::GapSteps), 3);
        assert_eq!(d.get(Counter::BaseBakes), 0);
    }

    #[test]
    fn merge_is_commutative_and_matches_cells() {
        let mut a = CounterSnapshot::default();
        a.counts[Counter::MemoHits as usize] = 5;
        let mut b = CounterSnapshot::default();
        b.counts[Counter::MemoHits as usize] = 2;
        b.counts[Counter::HeapPops as usize] = 7;
        assert_eq!(a.merge(&b), b.merge(&a));
        let before = snapshot();
        merge_into_current(&a.merge(&b));
        let d = snapshot().delta_since(&before);
        assert_eq!(d.get(Counter::MemoHits), 7);
        assert_eq!(d.get(Counter::HeapPops), 7);
    }

    #[test]
    fn names_are_unique_and_json_lists_all() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), COUNTER_COUNT, "duplicate counter name");
        let json = CounterSnapshot::default().to_json();
        for c in Counter::ALL {
            assert!(json.contains(c.name()), "{} missing from json", c.name());
        }
    }
}
