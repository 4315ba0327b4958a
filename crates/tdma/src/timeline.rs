//! Concrete bus timeline over a scheduling horizon.

use incdes_model::{BusConfig, PeId, Time};
use incdes_obs::counters::{self, Counter};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A flattened slot within one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlatSlot {
    owner: PeId,
    /// Offset of the slot start from the cycle start.
    offset: Time,
    length: Time,
}

/// One appearance of a slot on the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlotOccurrence {
    /// Global occurrence index: `cycle * slots_per_cycle + flat_index`.
    pub index: u64,
    /// Owning node.
    pub owner: PeId,
    /// Absolute start time.
    pub start: Time,
    /// Slot length.
    pub length: Time,
}

impl SlotOccurrence {
    /// Absolute end time of the slot.
    pub fn end(&self) -> Time {
        self.start + self.length
    }
}

/// A committed message transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusReservation {
    /// The slot occurrence carrying the message.
    pub occurrence: u64,
    /// Transmitting node (slot owner).
    pub owner: PeId,
    /// Absolute time transmission of this message begins.
    pub transmit_start: Time,
    /// Absolute time the message has fully arrived (receiver may start).
    pub arrival: Time,
}

impl BusReservation {
    /// Transmission duration.
    pub fn duration(&self) -> Time {
        self.arrival - self.transmit_start
    }
}

/// Error from bus timeline operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusTimelineError {
    /// The horizon is zero or not a multiple of the bus cycle (a static
    /// cyclic schedule must wrap around exactly).
    BadHorizon {
        /// Requested horizon.
        horizon: Time,
        /// Cycle length of the bus.
        cycle: Time,
    },
    /// No slot occurrence of the node can carry the message before the
    /// horizon ends.
    NoSlot {
        /// The transmitting node.
        owner: PeId,
        /// Earliest allowed slot start.
        ready: Time,
        /// Required transmission time.
        duration: Time,
    },
    /// The message is longer than every slot of the node.
    MessageTooLong {
        /// The transmitting node.
        owner: PeId,
        /// Required transmission time.
        duration: Time,
    },
    /// An explicit reservation referenced an occurrence that does not
    /// belong to the stated owner or lies beyond the horizon.
    BadOccurrence {
        /// The occurrence index.
        occurrence: u64,
    },
}

impl fmt::Display for BusTimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusTimelineError::BadHorizon { horizon, cycle } => write!(
                f,
                "horizon {horizon} is zero or not a multiple of the bus cycle {cycle}"
            ),
            BusTimelineError::NoSlot { owner, ready, duration } => write!(
                f,
                "no free slot of {owner} from {ready} fits a transmission of {duration} before the horizon"
            ),
            BusTimelineError::MessageTooLong { owner, duration } => write!(
                f,
                "transmission of {duration} exceeds every slot of {owner}"
            ),
            BusTimelineError::BadOccurrence { occurrence } => {
                write!(f, "invalid slot occurrence {occurrence}")
            }
        }
    }
}

impl std::error::Error for BusTimelineError {}

/// Per-occurrence occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SlotUse {
    used: Time,
    messages: u32,
}

/// The bus timeline: slot occurrences over a horizon plus their occupancy.
///
/// Occupancy is dense: one fill entry per slot occurrence, allocated
/// once by [`new`](Self::new) and indexed by occurrence, so probing an
/// occurrence is plain indexing and
/// [`reset_from`](Self::reset_from) — called once per evaluation by the
/// scheduling engine — is one flat `clone_from`.
#[derive(Debug, Clone)]
pub struct BusTimeline {
    /// Slot geometry, immutable after construction: every mutating
    /// operation touches only `occupancy`. Shared behind `Arc`s so
    /// clones and per-evaluation resets are pointer bumps, not deep
    /// copies of the per-cycle slot tables.
    flat: Arc<[FlatSlot]>,
    /// Flat indices owned by each PE, in cycle order.
    by_owner: Arc<[Vec<usize>]>,
    cycle: Time,
    horizon: Time,
    cycles: u64,
    /// Fill of every occurrence, indexed by occurrence.
    occupancy: Vec<SlotUse>,
}

impl BusTimeline {
    /// Builds a timeline for `bus` covering `[0, horizon)`.
    ///
    /// # Errors
    ///
    /// Returns [`BusTimelineError::BadHorizon`] if `horizon` is zero or
    /// not a multiple of the bus cycle length.
    pub fn new(bus: &BusConfig, horizon: Time) -> Result<Self, BusTimelineError> {
        let cycle = bus.cycle_length();
        if horizon.is_zero() || !(horizon % cycle).is_zero() {
            return Err(BusTimelineError::BadHorizon { horizon, cycle });
        }
        let mut flat = Vec::new();
        let mut offset = Time::ZERO;
        let mut max_pe = 0usize;
        for round in &bus.rounds {
            for slot in &round.slots {
                flat.push(FlatSlot {
                    owner: slot.owner,
                    offset,
                    length: slot.length,
                });
                max_pe = max_pe.max(slot.owner.index() + 1);
                offset += slot.length;
            }
        }
        let mut by_owner = vec![Vec::new(); max_pe];
        for (i, s) in flat.iter().enumerate() {
            by_owner[s.owner.index()].push(i);
        }
        let cycles = horizon.ticks() / cycle.ticks();
        let occurrences = (cycles * flat.len() as u64) as usize;
        Ok(BusTimeline {
            flat: flat.into(),
            by_owner: by_owner.into(),
            cycle,
            horizon,
            cycles,
            occupancy: vec![SlotUse::default(); occurrences],
        })
    }

    /// The scheduling horizon.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// The bus cycle length.
    pub fn cycle_length(&self) -> Time {
        self.cycle
    }

    /// Number of slot occurrences on the timeline.
    pub fn occurrence_count(&self) -> u64 {
        self.cycles * self.flat.len() as u64
    }

    /// The occurrence with global index `index`.
    ///
    /// # Errors
    ///
    /// Returns [`BusTimelineError::BadOccurrence`] if beyond the horizon.
    pub fn occurrence(&self, index: u64) -> Result<SlotOccurrence, BusTimelineError> {
        if index >= self.occurrence_count() {
            return Err(BusTimelineError::BadOccurrence { occurrence: index });
        }
        let per = self.flat.len() as u64;
        let cycle_idx = index / per;
        let flat_idx = (index % per) as usize;
        let s = self.flat[flat_idx];
        Ok(SlotOccurrence {
            index,
            owner: s.owner,
            start: Time::new(cycle_idx * self.cycle.ticks()) + s.offset,
            length: s.length,
        })
    }

    /// Time already used inside occurrence `index` (zero beyond the
    /// horizon).
    pub fn used(&self, index: u64) -> Time {
        self.occupancy
            .get(index as usize)
            .map_or(Time::ZERO, |u| u.used)
    }

    /// Number of messages packed into occurrence `index` (zero beyond
    /// the horizon).
    pub fn message_count(&self, index: u64) -> u32 {
        self.occupancy.get(index as usize).map_or(0, |u| u.messages)
    }

    /// Every occurrence on the timeline, in index (= time) order.
    fn occurrences(&self) -> impl Iterator<Item = SlotOccurrence> + '_ {
        let per = self.flat.len() as u64;
        (0..self.cycles).flat_map(move |c| {
            self.flat
                .iter()
                .enumerate()
                .map(move |(fi, s)| SlotOccurrence {
                    index: c * per + fi as u64,
                    owner: s.owner,
                    start: Time::new(c * self.cycle.ticks()) + s.offset,
                    length: s.length,
                })
        })
    }

    /// Iterator over the occurrences owned by `pe`, in time order,
    /// starting from the first occurrence whose start is ≥ `from`.
    pub fn occurrences_of(
        &self,
        pe: PeId,
        from: Time,
    ) -> impl Iterator<Item = SlotOccurrence> + '_ {
        let slots: &[usize] = self
            .by_owner
            .get(pe.index())
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let per = self.flat.len() as u64;
        let start_cycle = (from.ticks() / self.cycle.ticks().max(1)).saturating_sub(1);
        let cycles = self.cycles;
        let cycle_len = self.cycle;
        let flat = &self.flat;
        (start_cycle..cycles)
            .flat_map(move |c| slots.iter().map(move |&fi| (c, fi)))
            .filter_map(move |(c, fi)| {
                let s = flat[fi];
                let start = Time::new(c * cycle_len.ticks()) + s.offset;
                if start < from {
                    return None;
                }
                Some(SlotOccurrence {
                    index: c * per + fi as u64,
                    owner: s.owner,
                    start,
                    length: s.length,
                })
            })
    }

    /// Schedules a message of transmission time `duration` from node `pe`,
    /// ready at `ready`: the earliest slot occurrence of `pe` that starts
    /// at or after `ready` and still has `duration` of room.
    ///
    /// # Errors
    ///
    /// [`BusTimelineError::MessageTooLong`] if no slot of `pe` is long
    /// enough even when empty; [`BusTimelineError::NoSlot`] if all fitting
    /// occurrences before the horizon are full.
    pub fn schedule_message(
        &mut self,
        pe: PeId,
        ready: Time,
        duration: Time,
    ) -> Result<BusReservation, BusTimelineError> {
        self.schedule_message_nth(pe, ready, duration, 0)
    }

    /// Like [`schedule_message`](Self::schedule_message) but skips the
    /// first `skip` feasible occurrences — the "move a message to a
    /// different slack on the bus" design transformation of the paper.
    ///
    /// # Errors
    ///
    /// As [`schedule_message`](Self::schedule_message); `skip` beyond the
    /// last feasible occurrence yields [`BusTimelineError::NoSlot`].
    pub fn schedule_message_nth(
        &mut self,
        pe: PeId,
        ready: Time,
        duration: Time,
        skip: usize,
    ) -> Result<BusReservation, BusTimelineError> {
        let occ = self.find_occurrence(pe, ready, duration, skip)?;
        Ok(self.append(pe, occ, duration))
    }

    /// Non-mutating version of [`schedule_message`](Self::schedule_message):
    /// where *would* the message be placed?
    ///
    /// # Errors
    ///
    /// As [`schedule_message`](Self::schedule_message).
    pub fn peek_message(
        &self,
        pe: PeId,
        ready: Time,
        duration: Time,
    ) -> Result<BusReservation, BusTimelineError> {
        let occ = self.find_occurrence(pe, ready, duration, 0)?;
        let transmit_start = occ.start + self.used(occ.index);
        Ok(BusReservation {
            occurrence: occ.index,
            owner: pe,
            transmit_start,
            arrival: transmit_start + duration,
        })
    }

    /// Shared slot search: the occurrence of `pe` a message of
    /// `duration` ready at `ready` lands in after skipping `skip`
    /// feasible ones.
    fn find_occurrence(
        &self,
        pe: PeId,
        ready: Time,
        duration: Time,
        skip: usize,
    ) -> Result<SlotOccurrence, BusTimelineError> {
        let fits_any = self
            .by_owner
            .get(pe.index())
            .is_some_and(|slots| slots.iter().any(|&fi| self.flat[fi].length >= duration));
        if !fits_any {
            return Err(BusTimelineError::MessageTooLong {
                owner: pe,
                duration,
            });
        }
        let mut remaining = skip;
        let mut probes = 0u64;
        let mut chosen = None;
        for occ in self.occurrences_of(pe, ready) {
            probes += 1;
            if self.occupancy[occ.index as usize].used + duration <= occ.length {
                if remaining == 0 {
                    chosen = Some(occ);
                    break;
                }
                remaining -= 1;
            }
        }
        counters::add(Counter::BusProbes, probes);
        chosen.ok_or(BusTimelineError::NoSlot {
            owner: pe,
            ready,
            duration,
        })
    }

    /// Appends a message of `duration` to the frame of `occ`, which has
    /// room for it.
    fn append(&mut self, pe: PeId, occ: SlotOccurrence, duration: Time) -> BusReservation {
        let fill = &mut self.occupancy[occ.index as usize];
        let transmit_start = occ.start + fill.used;
        fill.used += duration;
        fill.messages += 1;
        BusReservation {
            occurrence: occ.index,
            owner: pe,
            transmit_start,
            arrival: transmit_start + duration,
        }
    }

    /// Replays a committed reservation into this timeline (used when a
    /// fresh timeline is rebuilt around the frozen schedules of existing
    /// applications). The message is appended to the occurrence's frame.
    ///
    /// # Errors
    ///
    /// [`BusTimelineError::BadOccurrence`] if the occurrence is out of
    /// range or not owned by `pe`; [`BusTimelineError::NoSlot`] if the
    /// occurrence no longer has room.
    pub fn reserve_in_occurrence(
        &mut self,
        pe: PeId,
        occurrence: u64,
        duration: Time,
    ) -> Result<BusReservation, BusTimelineError> {
        let occ = self.occurrence(occurrence)?;
        if occ.owner != pe {
            return Err(BusTimelineError::BadOccurrence { occurrence });
        }
        if self.used(occurrence) + duration > occ.length {
            return Err(BusTimelineError::NoSlot {
                owner: pe,
                ready: occ.start,
                duration,
            });
        }
        Ok(self.append(pe, occ, duration))
    }

    /// Resets this timeline to an exact copy of `other`, reusing the
    /// geometry allocations. The scheduling engine calls this once per
    /// evaluation to restore the baked frozen bus occupancy instead of
    /// rebuilding the timeline from the bus config.
    pub fn reset_from(&mut self, other: &BusTimeline) {
        // Geometry is immutable, so the reset aliases the source's
        // tables; only the fill array is copied.
        self.flat = Arc::clone(&other.flat);
        self.by_owner = Arc::clone(&other.by_owner);
        self.cycle = other.cycle;
        self.horizon = other.horizon;
        self.cycles = other.cycles;
        self.occupancy.clone_from(&other.occupancy);
    }

    /// Total bus time reserved so far.
    pub fn total_used(&self) -> Time {
        self.occupancy.iter().map(|u| u.used).sum()
    }

    /// Total slot capacity on the timeline (sum of slot lengths over all
    /// occurrences). Inter-slot gaps are protocol overhead, not capacity.
    pub fn total_capacity(&self) -> Time {
        let per_cycle: Time = self.flat.iter().map(|s| s.length).sum();
        Time::new(per_cycle.ticks() * self.cycles)
    }

    /// Fraction of slot capacity in use, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let cap = self.total_capacity();
        if cap.is_zero() {
            0.0
        } else {
            self.total_used().as_f64() / cap.as_f64()
        }
    }

    /// The free tail of every slot occurrence, as `(start, end)` windows
    /// in time order. These are the *bus slack* containers handed to the
    /// C1m bin-packer.
    pub fn free_windows(&self) -> Vec<(Time, Time)> {
        let mut windows = Vec::new();
        self.free_windows_into(&mut windows);
        windows
    }

    /// [`free_windows`](Self::free_windows) into `out`, replacing its
    /// contents: a caller collecting the windows many times keeps one
    /// allocation.
    pub fn free_windows_into(&self, out: &mut Vec<(Time, Time)>) {
        out.clear();
        out.extend(
            self.occurrences()
                .zip(&self.occupancy)
                .filter(|(occ, u)| u.used < occ.length)
                .map(|(occ, u)| (occ.start + u.used, occ.end())),
        );
    }

    /// Total free slot time inside the window `[from, to)` — used by the
    /// C2m periodic-slack metric.
    pub fn free_time_in(&self, from: Time, to: Time) -> Time {
        self.occurrences()
            .zip(&self.occupancy)
            .take_while(|(occ, _)| occ.start < to)
            .map(|(occ, u)| {
                occ.end()
                    .min(to)
                    .saturating_sub((occ.start + u.used).max(from))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_model::{BusConfig, Round, Slot};

    /// 2 PEs, slot 10 ticks each, 1 round per cycle → cycle 20 ticks.
    fn simple() -> BusTimeline {
        let bus = BusConfig::uniform_round(2, Time::new(10), 1).unwrap();
        BusTimeline::new(&bus, Time::new(100)).unwrap()
    }

    #[test]
    fn horizon_must_be_cycle_multiple() {
        let bus = BusConfig::uniform_round(2, Time::new(10), 1).unwrap();
        assert!(matches!(
            BusTimeline::new(&bus, Time::new(30)),
            Err(BusTimelineError::BadHorizon { .. })
        ));
        assert!(matches!(
            BusTimeline::new(&bus, Time::ZERO),
            Err(BusTimelineError::BadHorizon { .. })
        ));
    }

    #[test]
    fn occurrence_math() {
        let t = simple();
        assert_eq!(t.occurrence_count(), 10); // 5 cycles * 2 slots
        let o0 = t.occurrence(0).unwrap();
        assert_eq!(o0.owner, PeId(0));
        assert_eq!(o0.start, Time::ZERO);
        let o1 = t.occurrence(1).unwrap();
        assert_eq!(o1.owner, PeId(1));
        assert_eq!(o1.start, Time::new(10));
        let o4 = t.occurrence(4).unwrap();
        assert_eq!(o4.owner, PeId(0));
        assert_eq!(o4.start, Time::new(40));
        assert!(t.occurrence(10).is_err());
    }

    #[test]
    fn first_fit_in_first_slot() {
        let mut t = simple();
        let r = t
            .schedule_message(PeId(0), Time::ZERO, Time::new(4))
            .unwrap();
        assert_eq!(r.occurrence, 0);
        assert_eq!(r.transmit_start, Time::ZERO);
        assert_eq!(r.arrival, Time::new(4));
        assert_eq!(r.duration(), Time::new(4));
    }

    #[test]
    fn ready_after_slot_start_waits_for_next_cycle() {
        let mut t = simple();
        // PE0's slots start at 0, 20, 40, ... Ready at 3 → slot at 20.
        let r = t
            .schedule_message(PeId(0), Time::new(3), Time::new(4))
            .unwrap();
        assert_eq!(r.transmit_start, Time::new(20));
        assert_eq!(r.arrival, Time::new(24));
    }

    #[test]
    fn messages_pack_into_one_frame() {
        let mut t = simple();
        let r1 = t
            .schedule_message(PeId(1), Time::ZERO, Time::new(4))
            .unwrap();
        let r2 = t
            .schedule_message(PeId(1), Time::ZERO, Time::new(5))
            .unwrap();
        // PE1's first slot starts at 10.
        assert_eq!(r1.transmit_start, Time::new(10));
        assert_eq!(r2.transmit_start, Time::new(14));
        assert_eq!(r2.arrival, Time::new(19));
        assert_eq!(r1.occurrence, r2.occurrence);
        assert_eq!(t.message_count(r1.occurrence), 2);
        assert_eq!(t.used(r1.occurrence), Time::new(9));
    }

    #[test]
    fn full_slot_overflows_to_next_occurrence() {
        let mut t = simple();
        t.schedule_message(PeId(0), Time::ZERO, Time::new(8))
            .unwrap();
        let r = t
            .schedule_message(PeId(0), Time::ZERO, Time::new(4))
            .unwrap();
        assert_eq!(r.transmit_start, Time::new(20));
    }

    #[test]
    fn message_longer_than_slot_rejected() {
        let mut t = simple();
        assert!(matches!(
            t.schedule_message(PeId(0), Time::ZERO, Time::new(11)),
            Err(BusTimelineError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn horizon_exhaustion_reported() {
        let mut t = simple();
        // Fill all five occurrences of PE0 completely.
        for _ in 0..5 {
            t.schedule_message(PeId(0), Time::ZERO, Time::new(10))
                .unwrap();
        }
        assert!(matches!(
            t.schedule_message(PeId(0), Time::ZERO, Time::new(1)),
            Err(BusTimelineError::NoSlot { .. })
        ));
    }

    #[test]
    fn nth_slot_transformation() {
        let mut t = simple();
        let r = t
            .schedule_message_nth(PeId(0), Time::ZERO, Time::new(4), 2)
            .unwrap();
        // Skip occurrences at 0 and 20 → land at 40.
        assert_eq!(r.transmit_start, Time::new(40));
        // Earlier occurrences remain untouched.
        assert_eq!(t.used(0), Time::ZERO);
    }

    #[test]
    fn nth_beyond_horizon_is_no_slot() {
        let mut t = simple();
        assert!(matches!(
            t.schedule_message_nth(PeId(0), Time::ZERO, Time::new(4), 50),
            Err(BusTimelineError::NoSlot { .. })
        ));
    }

    #[test]
    fn peek_matches_schedule_and_does_not_mutate() {
        let mut t = simple();
        t.schedule_message(PeId(0), Time::ZERO, Time::new(8))
            .unwrap();
        let peeked = t.peek_message(PeId(0), Time::ZERO, Time::new(4)).unwrap();
        assert_eq!(t.used(0), Time::new(8), "peek must not mutate");
        let real = t
            .schedule_message(PeId(0), Time::ZERO, Time::new(4))
            .unwrap();
        assert_eq!(peeked, real);
        assert!(matches!(
            t.peek_message(PeId(0), Time::ZERO, Time::new(11)),
            Err(BusTimelineError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn reserve_in_occurrence_replays() {
        let mut t = simple();
        let r = t.reserve_in_occurrence(PeId(1), 3, Time::new(6)).unwrap();
        // Occurrence 3 = cycle 1, slot 1 → starts at 30.
        assert_eq!(r.transmit_start, Time::new(30));
        assert_eq!(t.used(3), Time::new(6));
        // Wrong owner rejected.
        assert!(matches!(
            t.reserve_in_occurrence(PeId(0), 3, Time::new(1)),
            Err(BusTimelineError::BadOccurrence { .. })
        ));
        // Overfill rejected.
        assert!(matches!(
            t.reserve_in_occurrence(PeId(1), 3, Time::new(5)),
            Err(BusTimelineError::NoSlot { .. })
        ));
    }

    #[test]
    fn capacity_and_utilization() {
        let mut t = simple();
        assert_eq!(t.total_capacity(), Time::new(100));
        assert_eq!(t.utilization(), 0.0);
        t.schedule_message(PeId(0), Time::ZERO, Time::new(10))
            .unwrap();
        assert_eq!(t.total_used(), Time::new(10));
        assert!((t.utilization() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn free_windows_reflect_packing() {
        let mut t = simple();
        t.schedule_message(PeId(0), Time::ZERO, Time::new(6))
            .unwrap();
        let w = t.free_windows();
        // First window is the tail of occurrence 0: [6, 10).
        assert_eq!(w[0], (Time::new(6), Time::new(10)));
        // Second is PE1's untouched slot: [10, 20).
        assert_eq!(w[1], (Time::new(10), Time::new(20)));
        // Full occupancy removes the window.
        let mut t2 = simple();
        t2.schedule_message(PeId(0), Time::ZERO, Time::new(10))
            .unwrap();
        assert!(t2.free_windows().iter().all(|&(s, _)| s != Time::ZERO));
    }

    #[test]
    fn free_time_in_window() {
        let mut t = simple();
        // Whole timeline free: [0,20) covers slot0 + slot1 = 20 of slot time.
        assert_eq!(t.free_time_in(Time::ZERO, Time::new(20)), Time::new(20));
        // Partial overlap: [5,15) → 5 from slot0 + 5 from slot1.
        assert_eq!(t.free_time_in(Time::new(5), Time::new(15)), Time::new(10));
        t.schedule_message(PeId(0), Time::ZERO, Time::new(10))
            .unwrap();
        assert_eq!(t.free_time_in(Time::ZERO, Time::new(20)), Time::new(10));
    }

    #[test]
    fn asymmetric_rounds() {
        // Cycle of two rounds with different slot lengths.
        let r1 = Round::new(vec![
            Slot::new(PeId(0), Time::new(4)),
            Slot::new(PeId(1), Time::new(6)),
        ]);
        let r2 = Round::new(vec![
            Slot::new(PeId(0), Time::new(8)),
            Slot::new(PeId(1), Time::new(2)),
        ]);
        let bus = BusConfig::new(vec![r1, r2], 1).unwrap();
        let mut t = BusTimeline::new(&bus, Time::new(40)).unwrap();
        // PE0 slots: [0,4) and [10,18) per cycle of 20.
        // A 6-tick message only fits the round-2 slot.
        let r = t
            .schedule_message(PeId(0), Time::ZERO, Time::new(6))
            .unwrap();
        assert_eq!(r.transmit_start, Time::new(10));
        // A 7-tick message from PE1 never fits (slots are 6 and 2).
        assert!(matches!(
            t.schedule_message(PeId(1), Time::ZERO, Time::new(7)),
            Err(BusTimelineError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn occurrences_of_unknown_pe_is_empty() {
        let t = simple();
        assert_eq!(t.occurrences_of(PeId(9), Time::ZERO).count(), 0);
    }

    #[test]
    fn occurrences_of_respects_from() {
        let t = simple();
        let first = t.occurrences_of(PeId(0), Time::new(21)).next().unwrap();
        assert_eq!(first.start, Time::new(40));
        // from exactly at a slot start includes it.
        let at = t.occurrences_of(PeId(0), Time::new(40)).next().unwrap();
        assert_eq!(at.start, Time::new(40));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use incdes_model::{BusConfig, Round, Slot};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Reference oracle: a sparse `(occurrence → (used, messages))` map
    /// searched by a linear scan over every occurrence. Slot geometry
    /// comes from an untouched timeline, so only the fill is under test.
    #[derive(Clone)]
    struct SparseOracle {
        geometry: BusTimeline,
        fill: BTreeMap<u64, (Time, u32)>,
    }

    impl SparseOracle {
        fn used(&self, idx: u64) -> Time {
            self.fill.get(&idx).map_or(Time::ZERO, |f| f.0)
        }

        fn message_count(&self, idx: u64) -> u32 {
            self.fill.get(&idx).map_or(0, |f| f.1)
        }

        fn all(&self) -> Vec<SlotOccurrence> {
            (0..self.geometry.occurrence_count())
                .map(|i| self.geometry.occurrence(i).unwrap())
                .collect()
        }

        fn find(
            &self,
            pe: PeId,
            ready: Time,
            duration: Time,
            skip: usize,
        ) -> Result<SlotOccurrence, BusTimelineError> {
            let all = self.all();
            if !all.iter().any(|o| o.owner == pe && o.length >= duration) {
                return Err(BusTimelineError::MessageTooLong {
                    owner: pe,
                    duration,
                });
            }
            all.into_iter()
                .filter(|o| o.owner == pe && o.start >= ready)
                .filter(|o| self.used(o.index) + duration <= o.length)
                .nth(skip)
                .ok_or(BusTimelineError::NoSlot {
                    owner: pe,
                    ready,
                    duration,
                })
        }

        fn append(&mut self, pe: PeId, occ: SlotOccurrence, duration: Time) -> BusReservation {
            let f = self.fill.entry(occ.index).or_insert((Time::ZERO, 0));
            let transmit_start = occ.start + f.0;
            f.0 += duration;
            f.1 += 1;
            BusReservation {
                occurrence: occ.index,
                owner: pe,
                transmit_start,
                arrival: transmit_start + duration,
            }
        }

        fn peek(
            &self,
            pe: PeId,
            ready: Time,
            duration: Time,
        ) -> Result<BusReservation, BusTimelineError> {
            let occ = self.find(pe, ready, duration, 0)?;
            let transmit_start = occ.start + self.used(occ.index);
            Ok(BusReservation {
                occurrence: occ.index,
                owner: pe,
                transmit_start,
                arrival: transmit_start + duration,
            })
        }

        fn schedule_nth(
            &mut self,
            pe: PeId,
            ready: Time,
            duration: Time,
            skip: usize,
        ) -> Result<BusReservation, BusTimelineError> {
            let occ = self.find(pe, ready, duration, skip)?;
            Ok(self.append(pe, occ, duration))
        }

        fn reserve_in(
            &mut self,
            pe: PeId,
            occurrence: u64,
            duration: Time,
        ) -> Result<BusReservation, BusTimelineError> {
            let occ = self.geometry.occurrence(occurrence)?;
            if occ.owner != pe {
                return Err(BusTimelineError::BadOccurrence { occurrence });
            }
            if self.used(occurrence) + duration > occ.length {
                return Err(BusTimelineError::NoSlot {
                    owner: pe,
                    ready: occ.start,
                    duration,
                });
            }
            Ok(self.append(pe, occ, duration))
        }

        fn free_windows(&self) -> Vec<(Time, Time)> {
            self.all()
                .into_iter()
                .filter(|o| self.used(o.index) < o.length)
                .map(|o| (o.start + self.used(o.index), o.end()))
                .collect()
        }

        /// Free slot time in `[from, to)`, tick by tick.
        fn free_time_in(&self, from: Time, to: Time) -> Time {
            let free_ticks = self
                .all()
                .into_iter()
                .flat_map(|o| (o.start + self.used(o.index)).ticks()..o.end().ticks())
                .filter(|&tick| from.ticks() <= tick && tick < to.ticks())
                .count();
            Time::new(free_ticks as u64)
        }
    }

    /// Asymmetric two-round cycle of 28 ticks over three nodes.
    fn asymmetric_bus() -> BusConfig {
        let r1 = Round::new(vec![
            Slot::new(PeId(0), Time::new(4)),
            Slot::new(PeId(1), Time::new(6)),
            Slot::new(PeId(2), Time::new(3)),
        ]);
        let r2 = Round::new(vec![
            Slot::new(PeId(0), Time::new(8)),
            Slot::new(PeId(1), Time::new(2)),
            Slot::new(PeId(2), Time::new(5)),
        ]);
        BusConfig::new(vec![r1, r2], 1).unwrap()
    }

    proptest! {
        /// Differential round-trip of the dense fill against the sparse
        /// oracle: a random interleaving of skipped slot searches,
        /// explicit frame replays, peeks, saves and `reset_from`
        /// restores must match result for result, and every read
        /// (`used`, `message_count`, `free_windows_into`, `free_time_in`,
        /// `total_used`) must agree after each step.
        #[test]
        fn prop_dense_fill_matches_sparse_oracle(
            ops in proptest::collection::vec(
                (0u8..5, 0u32..4, 0u64..120, 1u64..10, 0usize..4),
                1..50,
            )
        ) {
            let horizon = Time::new(112);
            let mut tl = BusTimeline::new(&asymmetric_bus(), horizon).unwrap();
            let mut oracle = SparseOracle {
                geometry: tl.clone(),
                fill: BTreeMap::new(),
            };
            let mut saved = (tl.clone(), oracle.clone());
            // Reused across steps, as the evaluation engine reuses it.
            let mut windows = Vec::new();
            for (op, pe, a, b, skip) in ops {
                let (pe, a, b) = (PeId(pe), Time::new(a), Time::new(b));
                match op {
                    0 => prop_assert_eq!(
                        tl.schedule_message_nth(pe, a, b, skip),
                        oracle.schedule_nth(pe, a, b, skip)
                    ),
                    1 => {
                        let occ = a.ticks() % (tl.occurrence_count() + 2);
                        prop_assert_eq!(
                            tl.reserve_in_occurrence(pe, occ, b),
                            oracle.reserve_in(pe, occ, b)
                        );
                    }
                    2 => prop_assert_eq!(tl.peek_message(pe, a, b), oracle.peek(pe, a, b)),
                    3 => saved = (tl.clone(), oracle.clone()),
                    _ => {
                        tl.reset_from(&saved.0);
                        oracle = saved.1.clone();
                    }
                }
                for idx in 0..=tl.occurrence_count() {
                    prop_assert_eq!(tl.used(idx), oracle.used(idx));
                    prop_assert_eq!(tl.message_count(idx), oracle.message_count(idx));
                }
                tl.free_windows_into(&mut windows);
                prop_assert_eq!(&windows, &oracle.free_windows());
                let total: Time = oracle.fill.values().map(|f| f.0).sum();
                prop_assert_eq!(tl.total_used(), total);
                let to = a + b * 4;
                prop_assert_eq!(tl.free_time_in(a, to), oracle.free_time_in(a, to));
            }
        }

        /// Packing conservation: total used time equals the sum of all
        /// successful reservations, no frame ever overflows its slot, and
        /// reservations within one occurrence are contiguous from the
        /// slot start.
        #[test]
        fn prop_frame_packing_is_consistent(
            reqs in proptest::collection::vec((0u32..3, 0u64..160, 1u64..9), 0..40)
        ) {
            let bus = BusConfig::uniform_round(3, Time::new(8), 1).unwrap();
            let mut tl = BusTimeline::new(&bus, Time::new(240)).unwrap();
            let mut granted: Vec<BusReservation> = Vec::new();
            for (pe, ready, dur) in reqs {
                if let Ok(r) = tl.schedule_message(PeId(pe), Time::new(ready), Time::new(dur)) {
                    granted.push(r);
                }
            }
            let total: Time = granted.iter().map(|r| r.duration()).sum();
            prop_assert_eq!(tl.total_used(), total);
            // Per-occurrence checks.
            let mut by_occ: std::collections::BTreeMap<u64, Vec<&BusReservation>> =
                std::collections::BTreeMap::new();
            for r in &granted {
                by_occ.entry(r.occurrence).or_default().push(r);
            }
            for (occ_idx, mut rs) in by_occ {
                let occ = tl.occurrence(occ_idx).unwrap();
                rs.sort_by_key(|r| r.transmit_start);
                let mut cursor = occ.start;
                for r in rs {
                    prop_assert_eq!(r.owner, occ.owner);
                    prop_assert_eq!(r.transmit_start, cursor, "frames pack contiguously");
                    cursor = r.arrival;
                }
                prop_assert!(cursor <= occ.end(), "frame exceeds its slot");
            }
        }

        /// free_time_in over a partition of the horizon equals capacity
        /// minus used.
        #[test]
        fn prop_free_time_partition(
            reqs in proptest::collection::vec((0u32..2, 0u64..100, 1u64..9), 0..25),
            window in 1u64..60,
        ) {
            let bus = BusConfig::uniform_round(2, Time::new(8), 1).unwrap();
            let mut tl = BusTimeline::new(&bus, Time::new(160)).unwrap();
            for (pe, ready, dur) in reqs {
                let _ = tl.schedule_message(PeId(pe), Time::new(ready), Time::new(dur));
            }
            let mut sum = Time::ZERO;
            let mut from = 0u64;
            while from < 160 {
                let to = (from + window).min(160);
                sum += tl.free_time_in(Time::new(from), Time::new(to));
                from = to;
            }
            prop_assert_eq!(sum + tl.total_used(), tl.total_capacity());
        }
    }
}
