//! Free-time bookkeeping for one processing element.
//!
//! The scheduler treats each PE as a timeline over `[0, horizon)`.
//! Existing (frozen) applications appear as pre-reserved time; the list
//! scheduler fills what is left.
//!
//! # Data layout
//!
//! The timeline stores the free time its readers consume: one sorted
//! `Vec` of *maximal* free gaps plus a running free-time total. The gap
//! search binary-searches the first gap ending after the ready time and
//! scans gaps from there; a reservation carves the gap that contains it
//! (remove, trim its front, trim its back, or split it in two); the
//! slack derivation copies the list as it is. Busy time is the
//! complement, so [`PeTimeline::intervals`] yields maximal busy runs:
//! adjacent reservations merge.

use incdes_model::Time;
use incdes_obs::counters::{self, Counter};
use std::fmt;

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

/// The timeline of one PE, stored as its maximal free gaps in
/// `[0, horizon)` (see the module docs). The gap list is canonical, so
/// two timelines with the same busy intervals compare equal however
/// their reservations were split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeTimeline {
    horizon: Time,
    /// Maximal free gaps: sorted, disjoint, non-adjacent, non-empty.
    gaps: Vec<(Time, Time)>,
    /// Sum of the gap lengths.
    free: Time,
}

impl PeTimeline {
    /// An empty timeline over `[0, horizon)`.
    pub fn new(horizon: Time) -> Self {
        let whole = [(Time::ZERO, horizon)];
        PeTimeline::from_gaps(horizon, if horizon.is_zero() { &[] } else { &whole })
    }

    /// A timeline over `[0, horizon)` whose free time is exactly `gaps`,
    /// which must be sorted, disjoint, non-adjacent, non-empty and
    /// inside the horizon, as [`gaps`](Self::gaps) returns them.
    pub fn from_gaps(horizon: Time, gaps: &[(Time, Time)]) -> Self {
        let mut tl = PeTimeline {
            horizon,
            gaps: Vec::new(),
            free: Time::ZERO,
        };
        tl.restore(horizon, gaps);
        tl
    }

    /// Resets this timeline to [`from_gaps`](Self::from_gaps)`(horizon,
    /// gaps)`, reusing its allocation. The evaluation engine calls this
    /// once per schedule to restore the frozen base's gaps.
    pub fn restore(&mut self, horizon: Time, gaps: &[(Time, Time)]) {
        debug_assert!(
            gaps.windows(2).all(|w| w[0].1 < w[1].0)
                && gaps.iter().all(|&(s, e)| s < e && e <= horizon),
            "gaps must be sorted, disjoint, non-adjacent, non-empty and inside the horizon"
        );
        self.horizon = horizon;
        self.gaps.clear();
        self.gaps.extend_from_slice(gaps);
        self.free = gaps.iter().map(|&(s, e)| e - s).sum();
    }

    /// The horizon.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Total busy time.
    pub fn busy_time(&self) -> Time {
        self.horizon - self.free
    }

    /// Total free time.
    pub fn free_time(&self) -> Time {
        self.free
    }

    /// The maximal busy runs in time order: the complement of the gaps,
    /// so adjacent reservations come back as one run.
    pub fn intervals(&self) -> impl Iterator<Item = (Time, Time)> + '_ {
        let ends = self
            .gaps
            .iter()
            .map(|&(s, _)| s)
            .chain(std::iter::once(self.horizon));
        let starts = std::iter::once(Time::ZERO).chain(self.gaps.iter().map(|&(_, e)| e));
        starts.zip(ends).filter(|&(s, e)| s < e)
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
        // Free time is maximal gaps, so the interval is free exactly
        // when one gap holds all of it.
        let idx = self.gaps.partition_point(|&(_, e)| e <= start);
        match self.gaps.get(idx) {
            Some(&(s, e)) if s <= start && end <= e => {
                self.carve(idx, start, end);
                Ok(())
            }
            _ => Err(PeTimelineError::Overlap { start, end }),
        }
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
        let (start, idx) = self.find_earliest(ready, duration, skip)?;
        self.carve(idx, start, start + duration);
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
            .map(|(start, _)| start)
    }

    /// Shared gap search: the start and the index of the chosen gap. A
    /// gap is feasible when `max(start, ready) + duration <= end`.
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
        let first = self.gaps.partition_point(|&(_, e)| e <= ready);
        let mut remaining = skip;
        for (i, &(s, e)) in self.gaps[first..].iter().enumerate() {
            let start = s.max(ready);
            if start + duration <= e {
                if remaining == 0 {
                    counters::add(Counter::GapSteps, i as u64 + 1);
                    return Ok((start, first + i));
                }
                remaining -= 1;
            }
        }
        counters::add(Counter::GapSteps, (self.gaps.len() - first) as u64);
        Err(PeTimelineError::NoGap {
            ready,
            duration,
            skipped: skip - remaining,
        })
    }

    /// Takes `[start, end)` out of gap `idx`, which holds it.
    fn carve(&mut self, idx: usize, start: Time, end: Time) {
        let (s, e) = self.gaps[idx];
        debug_assert!(s <= start && start < end && end <= e);
        match (s == start, end == e) {
            (true, true) => {
                self.gaps.remove(idx);
            }
            (true, false) => self.gaps[idx].0 = end,
            (false, true) => self.gaps[idx].1 = start,
            (false, false) => {
                counters::bump(Counter::GapSplits);
                self.gaps[idx].1 = start;
                self.gaps.insert(idx + 1, (end, e));
            }
        }
        self.free -= end - start;
    }

    /// The maximal free gaps `(start, end)` in time order.
    pub fn gaps(&self) -> &[(Time, Time)] {
        &self.gaps
    }

    /// Free time inside the window `[from, to)`.
    pub fn free_time_in(&self, from: Time, to: Time) -> Time {
        let first = self.gaps.partition_point(|&(_, e)| e <= from);
        self.gaps[first..]
            .iter()
            .take_while(|&&(s, _)| s < to)
            .map(|&(s, e)| e.min(to).saturating_sub(s.max(from)))
            .sum()
    }

    /// The maximal busy runs in time order, freshly collected.
    pub fn busy_intervals(&self) -> Vec<(Time, Time)> {
        self.intervals().collect()
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
        assert_eq!(tl.busy_intervals(), vec![(t(0), t(30))], "one busy run");
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
        // Restoring the gaps rebuilds the same timeline, reusing storage.
        let mut other = PeTimeline::new(t(5));
        other.reserve(t(0), t(5)).unwrap();
        other.restore(t(100), tl.gaps());
        assert_eq!(other, tl);
        assert_eq!(PeTimeline::from_gaps(t(100), tl.gaps()), tl);
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
    fn adjacent_reservations_merge() {
        let mut tl = PeTimeline::new(t(100));
        tl.reserve(t(30), t(40)).unwrap();
        tl.reserve(t(10), t(20)).unwrap();
        tl.reserve(t(20), t(30)).unwrap();
        assert_eq!(tl.busy_intervals(), vec![(t(10), t(40))]);
        assert_eq!(tl.gaps(), vec![(t(0), t(10)), (t(40), t(100))]);
        // Equality is by content: one reservation of the same run matches.
        let mut whole = PeTimeline::new(t(100));
        whole.reserve(t(10), t(40)).unwrap();
        assert_eq!(tl, whole);
    }

    #[test]
    fn exact_fill_removes_gap() {
        let mut tl = PeTimeline::new(t(100));
        tl.reserve(t(10), t(20)).unwrap();
        tl.reserve(t(30), t(40)).unwrap();
        assert_eq!(tl.gaps().len(), 3);
        assert_eq!(tl.reserve_earliest(t(12), t(10), 0), Ok(t(20)));
        assert_eq!(tl.gaps(), vec![(t(0), t(10)), (t(40), t(100))]);
        assert_eq!(tl.free_time(), t(70));
        assert_eq!(tl.busy_time(), t(30));
    }

    #[test]
    fn mid_gap_placement_splits() {
        let mut tl = PeTimeline::new(t(100));
        let before = counters::snapshot();
        assert_eq!(tl.reserve_earliest(t(30), t(10), 0), Ok(t(30)));
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(tl.gaps(), vec![(t(0), t(30)), (t(40), t(100))]);
        assert_eq!(d.get(Counter::GapSplits), 1);
        assert_eq!(d.get(Counter::GapSteps), 1);
        // Trimming a gap's front or back does not split.
        let before = counters::snapshot();
        tl.reserve(t(0), t(5)).unwrap();
        tl.reserve(t(95), t(100)).unwrap();
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(tl.gaps(), vec![(t(5), t(30)), (t(40), t(95))]);
        assert_eq!(d.get(Counter::GapSplits), 0);
    }

    #[test]
    fn skip_hint_counts_maximal_gaps() {
        let mut tl = PeTimeline::new(t(100));
        // Adjacent reservations leave no empty gap between them to skip.
        tl.reserve(t(10), t(20)).unwrap();
        tl.reserve(t(20), t(30)).unwrap();
        tl.reserve(t(50), t(60)).unwrap();
        // Maximal gaps: [0,10), [30,50), [60,100).
        let before = counters::snapshot();
        assert_eq!(tl.peek_earliest(t(0), t(5), 1), Ok(t(30)));
        assert_eq!(tl.peek_earliest(t(0), t(5), 2), Ok(t(60)));
        assert_eq!(
            tl.peek_earliest(t(0), t(5), 3),
            Err(PeTimelineError::NoGap {
                ready: t(0),
                duration: t(5),
                skipped: 3,
            })
        );
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(d.get(Counter::GapSteps), 2 + 3 + 3);
        // Gaps that end before `ready`, or are too short after it, are
        // not counted.
        assert_eq!(tl.peek_earliest(t(45), t(5), 0), Ok(t(45)));
        assert_eq!(tl.peek_earliest(t(46), t(5), 0), Ok(t(60)));
    }

    /// Reference oracle: the busy-interval layout — one sorted `Vec` of
    /// reservations with per-reservation `insert` — whose observable
    /// behavior the gap list must reproduce call for call.
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

        fn gaps(&self) -> Vec<(Time, Time)> {
            let mut gaps = Vec::new();
            let mut cursor = Time::ZERO;
            for &(s, e) in &self.busy {
                if cursor < s {
                    gaps.push((cursor, s));
                }
                cursor = cursor.max(e);
            }
            if cursor < self.horizon {
                gaps.push((cursor, self.horizon));
            }
            gaps
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

        /// Differential round-trip against the busy-interval oracle: a
        /// random interleaving of exact reserves, gap-searched reserves
        /// and peeks must match the oracle result for result (including
        /// `NoGap { skipped }`), gap list for gap list.
        #[test]
        fn prop_gap_list_matches_sorted_vec_oracle(
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
                    _ => {}
                }
                prop_assert_eq!(
                    tl.peek_earliest(t(a), t(b), skip),
                    oracle.find_earliest(t(a), t(b), skip).map(|(s, _)| s)
                );
                prop_assert_eq!(tl.gaps(), oracle.gaps());
                prop_assert_eq!(tl.busy_time(), oracle.busy.iter().map(|&(s, e)| e - s).sum::<Time>());
            }
            // Busy runs are the oracle's reservations with adjacent ones
            // merged.
            let mut runs: Vec<(Time, Time)> = Vec::new();
            for &(s, e) in &oracle.busy {
                match runs.last_mut() {
                    Some(last) if last.1 == s => last.1 = e,
                    _ => runs.push((s, e)),
                }
            }
            prop_assert_eq!(tl.busy_intervals(), runs);
        }
    }
}
