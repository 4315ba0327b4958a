//! Busy/gap interval bookkeeping for one processing element.
//!
//! The scheduler treats each PE as a timeline of half-open busy intervals
//! within `[0, horizon)`. Existing (frozen) applications appear as
//! pre-reserved intervals; the list scheduler fills the remaining gaps.
//!
//! # Data layout
//!
//! The timeline is stored in two layers:
//!
//! * `base` — the *consolidated* layer: a sorted `Vec` of disjoint
//!   intervals. For the evaluation engine's scratch timelines this is
//!   the frozen base occupancy restored by [`PeTimeline::copy_from`];
//!   it is never shifted by per-reservation edits.
//! * `over` — the *overlay*: the reservations made since the last
//!   consolidation, also sorted and disjoint (and disjoint from
//!   `base`), but small — bounded by [`CONSOLIDATE_AT`] plus one run's
//!   placements on this PE.
//!
//! The evaluation engine's runs only ever insert the current
//! candidate's placements on top of a reset: with this split, every
//! such insert shifts only the overlay, so its cost is bounded by the
//! *current application's* per-PE placement count instead of the total
//! reservation count (frozen jobs included), and the reset is a pointer
//! bump instead of a copy. Reads (gap search, gap enumeration, window
//! overlap) run a two-pointer merge of the layers; both are contiguous
//! in memory. When the overlay outgrows [`CONSOLIDATE_AT`] (bulk
//! from-scratch schedules, e.g. the naive pipeline), it is merged into
//! the base in one linear pass, keeping insert cost amortized.

use incdes_model::Time;
use incdes_obs::counters::{self, Counter};
use std::fmt;
use std::sync::Arc;

/// Overlay length that triggers a merge into the consolidated base.
/// One evaluation places roughly (current jobs × instances) / PE-count
/// reservations per PE — comfortably below this — so engine runs on a
/// baked base never consolidate mid-run; only bulk from-scratch
/// schedules (bakes, the naive pipeline) do, amortizing their insert
/// cost.
const CONSOLIDATE_AT: usize = 64;

/// Error from timeline operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeTimelineError {
    /// The requested interval overlaps an existing reservation.
    Overlap {
        /// Requested start.
        start: Time,
        /// Requested end.
        end: Time,
    },
    /// The interval is empty or extends beyond the horizon.
    OutOfRange {
        /// Requested start.
        start: Time,
        /// Requested end.
        end: Time,
    },
    /// No gap fits the request before the horizon.
    NoGap {
        /// Earliest allowed start.
        ready: Time,
        /// Required duration.
        duration: Time,
        /// Number of feasible gaps skipped by hint before giving up.
        skipped: u32,
    },
}

impl fmt::Display for PeTimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeTimelineError::Overlap { start, end } => {
                write!(
                    f,
                    "interval [{start}, {end}) overlaps an existing reservation"
                )
            }
            PeTimelineError::OutOfRange { start, end } => {
                write!(
                    f,
                    "interval [{start}, {end}) is empty or beyond the horizon"
                )
            }
            PeTimelineError::NoGap {
                ready,
                duration,
                skipped,
            } => write!(
                f,
                "no gap of {duration} from {ready} (after skipping {skipped}) before the horizon"
            ),
        }
    }
}

impl std::error::Error for PeTimelineError {}

/// The timeline of one PE: disjoint busy intervals in `[0, horizon)`,
/// stored as a consolidated base layer plus a small overlay (see the
/// module docs). Equality is by *content* — two timelines holding the
/// same intervals compare equal regardless of how the layers split
/// them.
#[derive(Debug, Clone)]
pub struct PeTimeline {
    horizon: Time,
    /// Consolidated layer: sorted by start, disjoint. Shared (`Arc`)
    /// because the engine's scratch timelines restore it from the
    /// frozen base on every reset: with the base layer behind an `Arc`,
    /// [`copy_from`](Self::copy_from) is a pointer bump instead of an
    /// O(frozen jobs) memcpy. All per-reservation edits go to the
    /// overlay; consolidation replaces the whole `Arc`.
    base: Arc<Vec<(Time, Time)>>,
    /// Overlay: sorted by start, disjoint, disjoint from `base`, small.
    over: Vec<(Time, Time)>,
}

impl PartialEq for PeTimeline {
    fn eq(&self, other: &Self) -> bool {
        self.horizon == other.horizon && self.intervals().eq(other.intervals())
    }
}

impl Eq for PeTimeline {}

/// Two-pointer merge cursor over the (sorted, mutually disjoint)
/// layers. Disjointness makes starts unique, so min-by-start is a
/// total order.
#[derive(Clone, Copy)]
struct Cursor<'a> {
    a: &'a [(Time, Time)],
    b: &'a [(Time, Time)],
    i: usize,
    j: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<(Time, Time)> {
        match (self.a.get(self.i), self.b.get(self.j)) {
            (Some(&x), Some(&y)) => Some(if x.0 < y.0 { x } else { y }),
            (Some(&x), None) => Some(x),
            (None, Some(&y)) => Some(y),
            (None, None) => None,
        }
    }

    fn advance(&mut self) {
        match (self.a.get(self.i), self.b.get(self.j)) {
            (Some(&x), Some(&y)) => {
                if x.0 < y.0 {
                    self.i += 1;
                } else {
                    self.j += 1;
                }
            }
            (Some(_), None) => self.i += 1,
            (None, Some(_)) => self.j += 1,
            (None, None) => {}
        }
    }
}

impl<'a> Iterator for Cursor<'a> {
    type Item = (Time, Time);

    fn next(&mut self) -> Option<(Time, Time)> {
        let cur = self.peek()?;
        self.advance();
        Some(cur)
    }
}

impl PeTimeline {
    /// An empty timeline over `[0, horizon)`.
    pub fn new(horizon: Time) -> Self {
        PeTimeline {
            horizon,
            base: Arc::new(Vec::new()),
            over: Vec::new(),
        }
    }

    /// The horizon.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Number of reservations.
    pub fn reservation_count(&self) -> usize {
        self.base.len() + self.over.len()
    }

    /// Total busy time.
    pub fn busy_time(&self) -> Time {
        self.base
            .iter()
            .chain(&self.over)
            .map(|&(s, e)| e - s)
            .sum()
    }

    /// Total free time.
    pub fn free_time(&self) -> Time {
        self.horizon - self.busy_time()
    }

    /// Merge cursor positioned at the first interval (in start order)
    /// whose end is after `ready`. Both layers have sorted ends (their
    /// intervals are disjoint and start-sorted), so each can be
    /// positioned by binary search independently.
    fn cursor_from(&self, ready: Time) -> Cursor<'_> {
        Cursor {
            a: &self.base[..],
            b: &self.over,
            i: self.base.partition_point(|&(_, e)| e <= ready),
            j: self.over.partition_point(|&(_, e)| e <= ready),
        }
    }

    /// All busy intervals in time order.
    pub fn intervals(&self) -> impl Iterator<Item = (Time, Time)> + '_ {
        Cursor {
            a: &self.base[..],
            b: &self.over,
            i: 0,
            j: 0,
        }
    }

    /// Reserves the exact interval `[start, end)`.
    ///
    /// # Errors
    ///
    /// [`PeTimelineError::OutOfRange`] if empty or beyond the horizon,
    /// [`PeTimelineError::Overlap`] if it intersects a reservation.
    pub fn reserve(&mut self, start: Time, end: Time) -> Result<(), PeTimelineError> {
        if start >= end || end > self.horizon {
            return Err(PeTimelineError::OutOfRange { start, end });
        }
        let bi = self.base.partition_point(|&(s, _)| s < start);
        if bi > 0 && self.base[bi - 1].1 > start {
            return Err(PeTimelineError::Overlap { start, end });
        }
        if bi < self.base.len() && self.base[bi].0 < end {
            return Err(PeTimelineError::Overlap { start, end });
        }
        let oi = self.over.partition_point(|&(s, _)| s < start);
        if oi > 0 && self.over[oi - 1].1 > start {
            return Err(PeTimelineError::Overlap { start, end });
        }
        if oi < self.over.len() && self.over[oi].0 < end {
            return Err(PeTimelineError::Overlap { start, end });
        }
        self.over.insert(oi, (start, end));
        if self.over.len() >= CONSOLIDATE_AT {
            self.consolidate();
        }
        Ok(())
    }

    /// Finds and reserves the earliest start ≥ `ready` of a block of
    /// `duration`, after skipping the first `skip` feasible gaps (the
    /// paper's "move to a different slack" hint). Within the chosen gap
    /// the block is placed as early as possible.
    ///
    /// Returns the start time of the reservation.
    ///
    /// # Errors
    ///
    /// [`PeTimelineError::NoGap`] if nothing fits before the horizon, and
    /// [`PeTimelineError::OutOfRange`] if `duration` is zero.
    pub fn reserve_earliest(
        &mut self,
        ready: Time,
        duration: Time,
        skip: u32,
    ) -> Result<Time, PeTimelineError> {
        let start = self.find_earliest(ready, duration, skip)?;
        let oi = self.over.partition_point(|&(s, _)| s < start);
        self.over.insert(oi, (start, start + duration));
        if self.over.len() >= CONSOLIDATE_AT {
            self.consolidate();
        }
        Ok(start)
    }

    /// Non-mutating version of [`reserve_earliest`](Self::reserve_earliest):
    /// where *would* the block be placed?
    ///
    /// # Errors
    ///
    /// As [`reserve_earliest`](Self::reserve_earliest).
    pub fn peek_earliest(
        &self,
        ready: Time,
        duration: Time,
        skip: u32,
    ) -> Result<Time, PeTimelineError> {
        self.find_earliest(ready, duration, skip)
    }

    /// Shared gap search over the merged layers.
    fn find_earliest(
        &self,
        ready: Time,
        duration: Time,
        skip: u32,
    ) -> Result<Time, PeTimelineError> {
        if duration.is_zero() {
            return Err(PeTimelineError::OutOfRange {
                start: ready,
                end: ready,
            });
        }
        let mut remaining = skip;
        let mut cursor = ready;
        let mut merged = self.cursor_from(ready);
        loop {
            let next = merged.peek();
            let gap_end = next.map_or(self.horizon, |(s, _)| s);
            if cursor + duration <= gap_end {
                if remaining == 0 {
                    return Ok(cursor);
                }
                remaining -= 1;
            }
            let Some((_, e)) = next else {
                return Err(PeTimelineError::NoGap {
                    ready,
                    duration,
                    skipped: skip - remaining,
                });
            };
            cursor = cursor.max(e);
            merged.advance();
        }
    }

    /// The free gaps `(start, end)` in time order, as an iterator over
    /// the merged layers — no allocation. The hot paths (slack
    /// materialization, base bakes) collect this straight into their
    /// shared storage.
    pub fn gap_iter(&self) -> impl Iterator<Item = (Time, Time)> + '_ {
        let mut merged = self.intervals();
        let mut cursor = Time::ZERO;
        let horizon = self.horizon;
        let mut done = false;
        std::iter::from_fn(move || {
            while !done {
                match merged.next() {
                    Some((s, e)) => {
                        let gap = (cursor < s).then_some((cursor, s));
                        cursor = cursor.max(e);
                        if gap.is_some() {
                            return gap;
                        }
                    }
                    None => {
                        done = true;
                        if cursor < horizon {
                            return Some((cursor, horizon));
                        }
                    }
                }
            }
            None
        })
    }

    /// Writes the free gaps into `out` (cleared first), reusing its
    /// allocation.
    pub fn gaps_into(&self, out: &mut Vec<(Time, Time)>) {
        out.clear();
        out.extend(self.gap_iter());
    }

    /// The free gaps `(start, end)` in time order, freshly allocated.
    /// Compat/cold-path convenience — counted by the `fresh_gap_lists`
    /// probe so hot paths that should use [`gap_iter`](Self::gap_iter)
    /// or [`gaps_into`](Self::gaps_into) show up in diagnostics.
    pub fn gaps(&self) -> Vec<(Time, Time)> {
        counters::bump(Counter::FreshGapLists);
        self.gap_iter().collect()
    }

    /// Free time inside the window `[from, to)`.
    pub fn free_time_in(&self, from: Time, to: Time) -> Time {
        let to = to.min(self.horizon);
        if from >= to {
            return Time::ZERO;
        }
        let mut busy_in = Time::ZERO;
        for (s, e) in self.intervals() {
            if s >= to {
                break;
            }
            let lo = s.max(from);
            let hi = e.min(to);
            if lo < hi {
                busy_in += hi - lo;
            }
        }
        (to - from) - busy_in
    }

    /// The busy intervals in time order, freshly collected.
    pub fn busy_intervals(&self) -> Vec<(Time, Time)> {
        self.intervals().collect()
    }

    /// Merges the overlay into the consolidated base layer (one linear
    /// pass). The bake path calls this after replaying a frozen
    /// schedule so every scratch timeline restored by
    /// [`copy_from`](Self::copy_from) starts with an empty overlay.
    pub fn consolidate(&mut self) {
        if self.over.is_empty() {
            return;
        }
        counters::bump(Counter::TimelineConsolidations);
        let mut merged = Vec::with_capacity(self.base.len() + self.over.len());
        merged.extend(Cursor {
            a: &self.base[..],
            b: &self.over,
            i: 0,
            j: 0,
        });
        self.base = Arc::new(merged);
        self.over.clear();
    }

    /// Resets this timeline to an exact copy of `other`. The evaluation
    /// engine calls this once per schedule to restore the baked frozen
    /// occupancy: when the source is consolidated (baked bases always
    /// are), the reset aliases the shared base layer instead of copying
    /// it. The restored overlay starts empty, so every subsequent
    /// per-reservation edit shifts only the overlay.
    pub fn copy_from(&mut self, other: &PeTimeline) {
        self.horizon = other.horizon;
        if other.over.is_empty() {
            // The hot path: baked bases are consolidated, so the reset
            // is a shared alias of the source's base layer — no copy.
            self.base = Arc::clone(&other.base);
        } else {
            self.base = Arc::new(other.intervals().collect());
        }
        self.over.clear();
    }

    /// Layer occupancy `(base, overlay)` — diagnostics for the layout
    /// tests.
    #[doc(hidden)]
    pub fn layer_lens(&self) -> (usize, usize) {
        (self.base.len(), self.over.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    #[test]
    fn reserve_exact_ok_and_overlap() {
        let mut tl = PeTimeline::new(t(100));
        tl.reserve(t(10), t(20)).unwrap();
        tl.reserve(t(20), t(30)).unwrap(); // adjacent is fine
        tl.reserve(t(0), t(10)).unwrap();
        assert_eq!(tl.reservation_count(), 3);
        assert!(matches!(
            tl.reserve(t(15), t(25)),
            Err(PeTimelineError::Overlap { .. })
        ));
        assert!(matches!(
            tl.reserve(t(5), t(12)),
            Err(PeTimelineError::Overlap { .. })
        ));
        assert!(matches!(
            tl.reserve(t(29), t(31)),
            Err(PeTimelineError::Overlap { .. })
        ));
    }

    #[test]
    fn reserve_out_of_range() {
        let mut tl = PeTimeline::new(t(50));
        assert!(matches!(
            tl.reserve(t(40), t(60)),
            Err(PeTimelineError::OutOfRange { .. })
        ));
        assert!(matches!(
            tl.reserve(t(10), t(10)),
            Err(PeTimelineError::OutOfRange { .. })
        ));
    }

    #[test]
    fn earliest_in_empty_timeline() {
        let mut tl = PeTimeline::new(t(100));
        let s = tl.reserve_earliest(t(5), t(10), 0).unwrap();
        assert_eq!(s, t(5));
        assert_eq!(tl.busy_time(), t(10));
    }

    #[test]
    fn earliest_fills_gap_between_reservations() {
        let mut tl = PeTimeline::new(t(100));
        tl.reserve(t(0), t(10)).unwrap();
        tl.reserve(t(30), t(40)).unwrap();
        let s = tl.reserve_earliest(t(0), t(15), 0).unwrap();
        assert_eq!(s, t(10)); // gap [10,30) fits 15
        let s2 = tl.reserve_earliest(t(0), t(6), 0).unwrap();
        assert_eq!(s2, t(40)); // [25,30) too small now → after 40
    }

    #[test]
    fn earliest_respects_ready_inside_gap() {
        let mut tl = PeTimeline::new(t(100));
        tl.reserve(t(0), t(10)).unwrap();
        let s = tl.reserve_earliest(t(17), t(5), 0).unwrap();
        assert_eq!(s, t(17));
    }

    #[test]
    fn skip_hint_picks_later_gap() {
        let mut tl = PeTimeline::new(t(100));
        tl.reserve(t(10), t(20)).unwrap();
        tl.reserve(t(30), t(40)).unwrap();
        // Feasible gaps for 5 ticks from 0: [0,10), [20,30), [40,100).
        let s = tl.reserve_earliest(t(0), t(5), 1).unwrap();
        assert_eq!(s, t(20));
        let s2 = tl.reserve_earliest(t(0), t(5), 1).unwrap();
        // Gaps now: [0,10), [25,30), [40,100) → skip 1 → [25,30).
        assert_eq!(s2, t(25));
    }

    #[test]
    fn skip_beyond_last_gap_fails() {
        let mut tl = PeTimeline::new(t(50));
        let err = tl.reserve_earliest(t(0), t(5), 10).unwrap_err();
        assert!(matches!(err, PeTimelineError::NoGap { skipped: 1, .. }));
    }

    #[test]
    fn no_gap_when_full() {
        let mut tl = PeTimeline::new(t(20));
        tl.reserve(t(0), t(20)).unwrap();
        assert!(matches!(
            tl.reserve_earliest(t(0), t(1), 0),
            Err(PeTimelineError::NoGap { .. })
        ));
    }

    #[test]
    fn zero_duration_rejected() {
        let mut tl = PeTimeline::new(t(20));
        assert!(matches!(
            tl.reserve_earliest(t(0), t(0), 0),
            Err(PeTimelineError::OutOfRange { .. })
        ));
    }

    #[test]
    fn gaps_enumeration() {
        let mut tl = PeTimeline::new(t(100));
        assert_eq!(tl.gaps(), vec![(t(0), t(100))]);
        tl.reserve(t(10), t(20)).unwrap();
        tl.reserve(t(20), t(30)).unwrap();
        tl.reserve(t(90), t(100)).unwrap();
        assert_eq!(tl.gaps(), vec![(t(0), t(10)), (t(30), t(90))]);
        assert_eq!(tl.free_time(), t(70));
        let mut buf = vec![(t(9), t(9))];
        tl.gaps_into(&mut buf);
        assert_eq!(buf, vec![(t(0), t(10)), (t(30), t(90))]);
    }

    #[test]
    fn free_time_in_windows() {
        let mut tl = PeTimeline::new(t(100));
        tl.reserve(t(10), t(30)).unwrap();
        assert_eq!(tl.free_time_in(t(0), t(40)), t(20));
        assert_eq!(tl.free_time_in(t(10), t(30)), t(0));
        assert_eq!(tl.free_time_in(t(20), t(50)), t(20));
        assert_eq!(tl.free_time_in(t(50), t(50)), t(0));
        // Clamped to horizon.
        assert_eq!(tl.free_time_in(t(90), t(200)), t(10));
    }

    #[test]
    fn peek_matches_reserve_and_does_not_mutate() {
        let mut tl = PeTimeline::new(t(100));
        tl.reserve(t(10), t(20)).unwrap();
        let before = tl.clone();
        let peeked = tl.peek_earliest(t(0), t(15), 0).unwrap();
        assert_eq!(tl, before, "peek must not mutate");
        let reserved = tl.reserve_earliest(t(0), t(15), 0).unwrap();
        assert_eq!(peeked, reserved);
        assert_eq!(reserved, t(20));
    }

    #[test]
    fn equality_ignores_layer_split() {
        let mut consolidated = PeTimeline::new(t(100));
        consolidated.reserve(t(10), t(20)).unwrap();
        consolidated.reserve(t(40), t(50)).unwrap();
        consolidated.consolidate();
        let mut layered = PeTimeline::new(t(100));
        layered.reserve(t(40), t(50)).unwrap();
        layered.reserve(t(10), t(20)).unwrap();
        assert_eq!(consolidated.layer_lens(), (2, 0));
        assert_eq!(layered.layer_lens(), (0, 2));
        assert_eq!(consolidated, layered);
    }

    #[test]
    fn copy_from_yields_empty_overlay() {
        let mut src = PeTimeline::new(t(100));
        src.reserve(t(10), t(20)).unwrap();
        src.reserve(t(30), t(40)).unwrap();
        let mut dst = PeTimeline::new(t(5));
        dst.reserve(t(0), t(5)).unwrap();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.layer_lens(), (2, 0));
    }

    #[test]
    fn overlay_overflow_consolidates() {
        let mut tl = PeTimeline::new(t(10_000));
        for k in 0..(CONSOLIDATE_AT as u64 + 10) {
            tl.reserve(t(k * 10), t(k * 10 + 5)).unwrap();
        }
        let (base, over) = tl.layer_lens();
        assert!(base >= CONSOLIDATE_AT, "bulk inserts consolidated");
        assert!(over < CONSOLIDATE_AT);
        assert_eq!(tl.reservation_count(), CONSOLIDATE_AT + 10);
    }

    /// Reference oracle: the pre-layered layout — one sorted `Vec` with
    /// per-reservation `insert` — whose observable behavior the layered
    /// layout must reproduce call-for-call.
    struct SortedVecOracle {
        horizon: Time,
        busy: Vec<(Time, Time)>,
    }

    impl SortedVecOracle {
        fn new(horizon: Time) -> Self {
            SortedVecOracle {
                horizon,
                busy: Vec::new(),
            }
        }

        fn reserve(&mut self, start: Time, end: Time) -> Result<(), PeTimelineError> {
            if start >= end || end > self.horizon {
                return Err(PeTimelineError::OutOfRange { start, end });
            }
            let idx = self.busy.partition_point(|&(s, _)| s < start);
            if idx > 0 && self.busy[idx - 1].1 > start {
                return Err(PeTimelineError::Overlap { start, end });
            }
            if idx < self.busy.len() && self.busy[idx].0 < end {
                return Err(PeTimelineError::Overlap { start, end });
            }
            self.busy.insert(idx, (start, end));
            Ok(())
        }

        fn reserve_earliest(
            &mut self,
            ready: Time,
            duration: Time,
            skip: u32,
        ) -> Result<Time, PeTimelineError> {
            let (start, idx) = self.find_earliest(ready, duration, skip)?;
            self.busy.insert(idx, (start, start + duration));
            Ok(start)
        }

        fn find_earliest(
            &self,
            ready: Time,
            duration: Time,
            skip: u32,
        ) -> Result<(Time, usize), PeTimelineError> {
            if duration.is_zero() {
                return Err(PeTimelineError::OutOfRange {
                    start: ready,
                    end: ready,
                });
            }
            let mut remaining = skip;
            let mut cursor = ready;
            let mut idx = self.busy.partition_point(|&(_, e)| e <= ready);
            loop {
                let gap_end = if idx < self.busy.len() {
                    self.busy[idx].0
                } else {
                    self.horizon
                };
                if cursor + duration <= gap_end {
                    if remaining == 0 {
                        return Ok((cursor, idx));
                    }
                    remaining -= 1;
                }
                if idx >= self.busy.len() {
                    return Err(PeTimelineError::NoGap {
                        ready,
                        duration,
                        skipped: skip - remaining,
                    });
                }
                cursor = cursor.max(self.busy[idx].1);
                idx += 1;
            }
        }
    }

    proptest! {
        /// Random reserve_earliest calls never overlap and stay in range.
        #[test]
        fn prop_reservations_stay_disjoint(
            ops in proptest::collection::vec((0u64..200, 1u64..40, 0u32..4), 1..40)
        ) {
            let mut tl = PeTimeline::new(t(500));
            for (ready, dur, skip) in ops {
                let _ = tl.reserve_earliest(t(ready), t(dur), skip);
            }
            let b: Vec<_> = tl.intervals().collect();
            for w in b.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "intervals overlap: {:?}", w);
            }
            for &(s, e) in &b {
                prop_assert!(s < e && e <= t(500));
            }
            // gaps + busy partition the horizon.
            let total: Time = tl.gaps().iter().map(|&(s, e)| e - s).sum::<Time>() + tl.busy_time();
            prop_assert_eq!(total, t(500));
        }

        /// free_time_in summed over a partition of the horizon equals free_time.
        #[test]
        fn prop_free_time_partition(
            ops in proptest::collection::vec((0u64..400, 1u64..30), 1..30),
            window in 1u64..100,
        ) {
            let mut tl = PeTimeline::new(t(400));
            for (ready, dur) in ops {
                let _ = tl.reserve_earliest(t(ready), t(dur), 0);
            }
            let mut sum = Time::ZERO;
            let mut from = 0u64;
            while from < 400 {
                let to = (from + window).min(400);
                sum += tl.free_time_in(t(from), t(to));
                from = to;
            }
            prop_assert_eq!(sum, tl.free_time());
        }

        /// Differential round-trip against the old sorted-`Vec` layout:
        /// a random interleaving of exact reserves, gap-searched
        /// reserves and consolidations must match the oracle
        /// result-for-result and interval-for-interval.
        #[test]
        fn prop_layered_matches_sorted_vec_oracle(
            ops in proptest::collection::vec((0u8..3, 0u64..480, 1u64..40, 0u32..3), 1..60)
        ) {
            let mut tl = PeTimeline::new(t(500));
            let mut oracle = SortedVecOracle::new(t(500));
            for (op, a, b, skip) in ops {
                match op {
                    0 => {
                        let (s, e) = (t(a), t(a) + t(b));
                        prop_assert_eq!(tl.reserve(s, e), oracle.reserve(s, e));
                    }
                    1 => {
                        let got = tl.reserve_earliest(t(a), t(b), skip);
                        let want = oracle.reserve_earliest(t(a), t(b), skip);
                        prop_assert_eq!(got, want);
                    }
                    _ => tl.consolidate(),
                }
                prop_assert_eq!(
                    tl.peek_earliest(t(a), t(b), skip),
                    oracle.find_earliest(t(a), t(b), skip).map(|(s, _)| s)
                );
            }
            let merged: Vec<_> = tl.intervals().collect();
            prop_assert_eq!(merged, oracle.busy);
            let gaps = tl.gaps();
            let mut want_gaps = Vec::new();
            let mut cursor = Time::ZERO;
            for &(s, e) in &oracle.busy {
                if cursor < s {
                    want_gaps.push((cursor, s));
                }
                cursor = cursor.max(e);
            }
            if cursor < t(500) {
                want_gaps.push((cursor, t(500)));
            }
            prop_assert_eq!(gaps, want_gaps);
        }
    }
}
