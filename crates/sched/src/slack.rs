//! Slack extraction: the raw material of the paper's design metrics.
//!
//! After mapping and scheduling, the unused resources are
//!
//! * per-PE *gaps* — maximal idle intervals on each processor, and
//! * *bus slack* — the free tail of every TDMA slot occurrence.
//!
//! [`SlackProfile`] captures both over the hyperperiod; `incdes-metrics`
//! consumes it to compute C1 (how well the slack is *clustered*) and C2
//! (how well it is *distributed* in time).

use crate::pe_timeline::PeTimeline;
use crate::table::ScheduleTable;
use incdes_model::{Architecture, PeId, Time};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One immutable gap/window list: a flattened `Arc<[..]>` slab.
///
/// The flat slice (rather than `Arc<Vec<..>>`) drops one pointer
/// indirection on every scan — the C1/C2 window kernels walk the spans
/// straight off the `Arc` allocation — and makes the lists immutable by
/// construction, so profile clones can share them (see
/// [`SlackProfile`]).
pub type GapList = Arc<[(Time, Time)]>;

/// The slack left by a schedule.
///
/// The [`GapList`] storage is immutable, so clones of one profile share
/// it and no profile can be altered through another; the engine builds
/// every profile from a copy of its live timelines, so no base or
/// timeline shares a profile's storage. Sharing is invisible through
/// this API: reads return plain slices, and equality and serialization
/// are by content.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlackProfile {
    horizon: Time,
    /// Per PE: maximal idle intervals `(start, end)`, in time order.
    /// The outer table is `Arc`-shared too, so a clone costs two
    /// reference-count bumps, not one per PE.
    pe_gaps: Arc<[GapList]>,
    /// Free bus windows `(start, end)` — the unused tail of each slot
    /// occurrence, in time order.
    bus_windows: GapList,
}

impl SlackProfile {
    /// Extracts the slack profile of `table` on `arch`.
    ///
    /// # Panics
    ///
    /// Panics if the table is internally inconsistent (overlapping jobs or
    /// invalid bus framing); tables produced by [`crate::schedule`] never
    /// are.
    pub fn from_table(arch: &Architecture, table: &ScheduleTable) -> Self {
        SlackProfile::new(
            table.horizon(),
            table.pe_timelines(arch).iter().map(PeTimeline::gaps),
            table.bus_timeline(arch).free_windows(),
        )
    }

    /// Assembles a profile from its parts: per-PE gap lists (in PE
    /// order, each in time order) and the bus windows (in time order),
    /// each stored as an immutable [`GapList`]. The parts must be
    /// exactly what [`SlackProfile::from_table`] would derive.
    pub fn new<G: Into<GapList>>(
        horizon: Time,
        pe_gaps: impl IntoIterator<Item = G>,
        bus_windows: impl Into<GapList>,
    ) -> Self {
        SlackProfile {
            horizon,
            pe_gaps: pe_gaps.into_iter().map(Into::into).collect(),
            bus_windows: bus_windows.into(),
        }
    }

    /// The hyperperiod the profile covers.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Number of PEs.
    pub fn pe_count(&self) -> usize {
        self.pe_gaps.len()
    }

    /// Idle intervals of `pe`.
    pub fn gaps_of(&self, pe: PeId) -> &[(Time, Time)] {
        &self.pe_gaps[pe.index()]
    }

    /// Every PE's idle intervals, in PE order: the gap slices the
    /// objective reads.
    pub fn gap_lists(&self) -> impl ExactSizeIterator<Item = &[(Time, Time)]> + Clone {
        self.pe_gaps.iter().map(|gaps| &gaps[..])
    }

    /// All processor gaps across PEs, as durations.
    pub fn all_pe_gap_sizes(&self) -> Vec<Time> {
        self.pe_gaps
            .iter()
            .flat_map(|gaps| gaps.iter().map(|&(s, e)| e - s))
            .collect()
    }

    /// Free bus windows.
    pub fn bus_windows(&self) -> &[(Time, Time)] {
        &self.bus_windows
    }

    /// Bus window sizes.
    pub fn bus_window_sizes(&self) -> Vec<Time> {
        self.bus_windows.iter().map(|&(s, e)| e - s).collect()
    }

    /// Total idle time of `pe`.
    pub fn total_slack_of(&self, pe: PeId) -> Time {
        self.pe_gaps[pe.index()].iter().map(|&(s, e)| e - s).sum()
    }

    /// Total idle processor time across all PEs.
    pub fn total_pe_slack(&self) -> Time {
        (0..self.pe_count())
            .map(|i| self.total_slack_of(PeId(i as u32)))
            .sum()
    }

    /// Total free bus time.
    pub fn total_bus_slack(&self) -> Time {
        self.bus_windows.iter().map(|&(s, e)| e - s).sum()
    }

    /// Idle time of `pe` inside the window `[from, to)`.
    pub fn pe_slack_in(&self, pe: PeId, from: Time, to: Time) -> Time {
        window_overlap(&self.pe_gaps[pe.index()], from, to)
    }

    /// Free bus time inside the window `[from, to)`.
    pub fn bus_slack_in(&self, from: Time, to: Time) -> Time {
        window_overlap(&self.bus_windows, from, to)
    }

    /// The largest single processor gap, or zero if none.
    pub fn largest_pe_gap(&self) -> Time {
        self.all_pe_gap_sizes()
            .into_iter()
            .max()
            .unwrap_or(Time::ZERO)
    }
}

/// Total overlap of sorted disjoint intervals with `[from, to)` — the
/// kernel behind [`SlackProfile::pe_slack_in`]/[`SlackProfile::bus_slack_in`],
/// exported so `incdes-metrics` runs the same kernel on raw interval
/// lists (cached frozen-only gaps) without materializing a profile.
pub fn window_overlap(intervals: &[(Time, Time)], from: Time, to: Time) -> Time {
    let mut total = Time::ZERO;
    for &(s, e) in intervals {
        if s >= to {
            break;
        }
        let lo = s.max(from);
        let hi = e.min(to);
        if lo < hi {
            total += hi - lo;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use crate::table::{ScheduleTable, ScheduledJob};
    use incdes_model::{AppId, Architecture, BusConfig};

    fn t(v: u64) -> Time {
        Time::new(v)
    }

    fn arch2() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, t(10), 1).unwrap())
            .build()
            .unwrap()
    }

    fn job(pe: u32, s: u64, e: u64) -> ScheduledJob {
        ScheduledJob {
            job: JobId::new(AppId(0), 0, 0, incdes_graph::NodeId(pe + s as u32)),
            pe: PeId(pe),
            start: t(s),
            end: t(e),
            release: t(0),
            deadline: t(1000),
        }
    }

    #[test]
    fn empty_schedule_slack_is_everything() {
        let arch = arch2();
        let table = ScheduleTable::empty(t(100));
        let p = SlackProfile::from_table(&arch, &table);
        assert_eq!(p.total_pe_slack(), t(200));
        assert_eq!(p.total_bus_slack(), t(100));
        assert_eq!(p.gaps_of(PeId(0)), &[(t(0), t(100))]);
        assert_eq!(p.largest_pe_gap(), t(100));
        assert_eq!(p.pe_count(), 2);
    }

    #[test]
    fn gaps_follow_jobs() {
        let arch = arch2();
        let table = ScheduleTable::new(
            t(100),
            vec![job(0, 10, 30), job(0, 50, 60), job(1, 0, 100)],
            vec![],
        );
        let p = SlackProfile::from_table(&arch, &table);
        assert_eq!(
            p.gaps_of(PeId(0)),
            &[(t(0), t(10)), (t(30), t(50)), (t(60), t(100))]
        );
        assert!(p.gaps_of(PeId(1)).is_empty());
        assert_eq!(p.total_slack_of(PeId(0)), t(70));
        assert_eq!(p.total_pe_slack(), t(70));
        let mut sizes = p.all_pe_gap_sizes();
        sizes.sort();
        assert_eq!(sizes, vec![t(10), t(20), t(40)]);
    }

    #[test]
    fn windowed_slack_queries() {
        let arch = arch2();
        let table = ScheduleTable::new(t(100), vec![job(0, 10, 30)], vec![]);
        let p = SlackProfile::from_table(&arch, &table);
        assert_eq!(p.pe_slack_in(PeId(0), t(0), t(50)), t(30));
        assert_eq!(p.pe_slack_in(PeId(0), t(10), t(30)), t(0));
        assert_eq!(p.pe_slack_in(PeId(0), t(20), t(40)), t(10));
        // Bus fully free: [0,20) covers both 10-tick slots.
        assert_eq!(p.bus_slack_in(t(0), t(20)), t(20));
        assert_eq!(p.bus_slack_in(t(5), t(15)), t(10));
    }

    #[test]
    fn bus_windows_per_occurrence() {
        let arch = arch2();
        let table = ScheduleTable::empty(t(40));
        let p = SlackProfile::from_table(&arch, &table);
        // 2 cycles × 2 slots = 4 windows of 10.
        assert_eq!(p.bus_windows().len(), 4);
        assert_eq!(p.bus_window_sizes(), vec![t(10); 4]);
    }
}
