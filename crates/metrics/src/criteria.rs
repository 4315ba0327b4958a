//! The two design criteria (slides 12–13).

use crate::binpack::{pack, FitPolicy, PackOutcome};
use incdes_model::{Architecture, FutureProfile, PeId, Time};
use incdes_sched::SlackProfile;

/// C1 for processes: the percentage of the largest expected future
/// application's process time that cannot be packed into the processor
/// slack of the current design alternative (0 % is best).
///
/// Uses best-fit-decreasing by default; `policy` is exposed for the
/// ablation study.
pub fn c1_processes(slack: &SlackProfile, future: &FutureProfile, policy: FitPolicy) -> f64 {
    c1_processes_outcome(slack, future, policy).unpacked_percent()
}

/// The full packing outcome behind [`c1_processes`], for diagnostics.
pub fn c1_processes_outcome(
    slack: &SlackProfile,
    future: &FutureProfile,
    policy: FitPolicy,
) -> PackOutcome {
    pack_processes(slack.gap_lists(), slack.horizon(), future, policy)
}

/// [`c1_processes_outcome`] on gap slices: every gap of `pe_gaps`, PE
/// by PE and in time order, is one container.
pub(crate) fn pack_processes<'g>(
    pe_gaps: impl Iterator<Item = &'g [(Time, Time)]>,
    horizon: Time,
    future: &FutureProfile,
    policy: FitPolicy,
) -> PackOutcome {
    let items = future.expected_process_items(horizon);
    let bins: Vec<Time> = pe_gaps
        .flat_map(|gaps| gaps.iter().map(|&(s, e)| e - s))
        .collect();
    pack(&items, &bins, policy)
}

/// C1 for messages: the percentage of the largest expected future
/// application's bus time that cannot be packed into the free TDMA slot
/// windows (0 % is best).
pub fn c1_messages(
    arch: &Architecture,
    slack: &SlackProfile,
    future: &FutureProfile,
    policy: FitPolicy,
) -> f64 {
    c1_messages_outcome(arch, slack, future, policy).unpacked_percent()
}

/// The full packing outcome behind [`c1_messages`], for diagnostics.
pub fn c1_messages_outcome(
    arch: &Architecture,
    slack: &SlackProfile,
    future: &FutureProfile,
    policy: FitPolicy,
) -> PackOutcome {
    pack_messages(arch, slack.bus_windows(), slack.horizon(), future, policy)
}

/// [`c1_messages_outcome`] on a window slice: every free bus window is
/// one container.
pub(crate) fn pack_messages(
    arch: &Architecture,
    bus_windows: &[(Time, Time)],
    horizon: Time,
    future: &FutureProfile,
    policy: FitPolicy,
) -> PackOutcome {
    let items = future.expected_message_items(horizon, |bytes| arch.bus().transmission_time(bytes));
    let bins: Vec<Time> = bus_windows.iter().map(|&(s, e)| e - s).collect();
    pack(&items, &bins, policy)
}

/// C2 for processes: the sum over processors of the *minimum* slack found
/// in any window of length `t_min` (slide 13). The future application
/// arrives with period `t_min`, so the binding window on each processor
/// is its worst one.
pub fn c2_processes(slack: &SlackProfile, t_min: Time) -> Time {
    (0..slack.pe_count())
        .map(|i| c2_processes_of(slack, PeId(i as u32), t_min))
        .sum()
}

/// The per-PE term of [`c2_processes`]: the minimum slack of `pe` in any
/// window of length `t_min`. Exposed so the incremental evaluation
/// engine can cache the term of PEs the current application never
/// touches and recompute only the rest.
pub fn c2_processes_of(slack: &SlackProfile, pe: PeId, t_min: Time) -> Time {
    c2_intervals(slack.gaps_of(pe), slack.horizon(), t_min)
}

/// C2 for messages: the minimum free bus time in any window of length
/// `t_min`.
pub fn c2_messages(slack: &SlackProfile, t_min: Time) -> Time {
    c2_intervals(slack.bus_windows(), slack.horizon(), t_min)
}

/// The C2 kernel on a raw interval list: the minimum total overlap of
/// the (sorted, disjoint) intervals with any window of length `t_min`.
/// [`c2_processes_of`] and [`c2_messages`] are both this function, which
/// lets the evaluation engine run it directly on cached frozen-only gap
/// lists without materializing a `SlackProfile`. The overlap kernel is
/// `incdes_sched::slack::window_overlap` — the one also backing
/// `SlackProfile::pe_slack_in`/`bus_slack_in`, so the two paths cannot
/// drift.
pub fn c2_intervals(intervals: &[(Time, Time)], horizon: Time, t_min: Time) -> Time {
    min_window_slack(t_min, horizon, |a, b| {
        incdes_sched::slack::window_overlap(intervals, a, b)
    })
}

/// Minimum of `slack_in(k·t_min, (k+1)·t_min)` over the full windows in
/// the horizon. If the horizon is shorter than `t_min`, the single window
/// `[0, horizon)` is used.
fn min_window_slack(
    t_min: Time,
    horizon: Time,
    mut slack_in: impl FnMut(Time, Time) -> Time,
) -> Time {
    if t_min.is_zero() {
        return Time::ZERO;
    }
    let full_windows = horizon.ticks() / t_min.ticks();
    if full_windows == 0 {
        return slack_in(Time::ZERO, horizon);
    }
    (0..full_windows)
        .map(|k| {
            let from = Time::new(k * t_min.ticks());
            slack_in(from, from + t_min)
        })
        .min()
        .expect("at least one window")
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_graph::NodeId;
    use incdes_model::{AppId, BusConfig, Histogram};
    use incdes_sched::{JobId, ScheduleTable, ScheduledJob};

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

    fn job(pe: u32, node: u32, s: u64, e: u64) -> ScheduledJob {
        ScheduledJob {
            job: JobId::new(AppId(0), 0, 0, NodeId(node)),
            pe: PeId(pe),
            start: t(s),
            end: t(e),
            release: t(0),
            deadline: t(100_000),
        }
    }

    /// Profile demanding 40 ticks of 20-tick processes per 120-tick window.
    fn profile() -> FutureProfile {
        FutureProfile::new(
            t(120),
            t(40),
            t(10),
            Histogram::point(t(20)),
            Histogram::point(4u32),
        )
    }

    #[test]
    fn c1_zero_on_empty_system() {
        let arch = arch2();
        let table = ScheduleTable::empty(t(480));
        let slack = SlackProfile::from_table(&arch, &table);
        assert_eq!(c1_processes(&slack, &profile(), FitPolicy::BestFit), 0.0);
        assert_eq!(
            c1_messages(&arch, &slack, &profile(), FitPolicy::BestFit),
            0.0
        );
    }

    #[test]
    fn c1_reflects_fragmentation_slide_12() {
        // Slide 12: the same total slack, clustered vs fragmented.
        // Future app: 8 processes of 20 ticks (160 total) over H=480.
        let arch = arch2();
        // Fragmented: every gap is 15 ticks — nothing fits → C1 = 100 %.
        let mut jobs = Vec::new();
        // Busy except 15-tick gaps: pattern [15 free, 45 busy] × 8 on both PEs.
        for pe in 0..2u32 {
            for k in 0..8u64 {
                jobs.push(job(pe, pe * 100 + k as u32, k * 60 + 15, (k + 1) * 60));
            }
        }
        let frag = ScheduleTable::new(t(480), jobs, vec![]);
        let slack_frag = SlackProfile::from_table(&arch, &frag);
        let c1_frag = c1_processes(&slack_frag, &profile(), FitPolicy::BestFit);
        assert_eq!(c1_frag, 100.0);

        // Clustered: one PE fully busy, the other has one huge gap.
        let jobs2 = vec![job(0, 0, 0, 480)];
        let clus = ScheduleTable::new(t(480), jobs2, vec![]);
        let slack_clus = SlackProfile::from_table(&arch, &clus);
        let c1_clus = c1_processes(&slack_clus, &profile(), FitPolicy::BestFit);
        assert_eq!(c1_clus, 0.0);
    }

    #[test]
    fn c2_minimum_window_slide_13() {
        let arch = arch2();
        // H = 480, Tmin = 120 → 4 windows. PE0 busy through window 2
        // ([240,360)), otherwise free; PE1 fully busy.
        let jobs = vec![job(0, 0, 240, 360), job(1, 1, 0, 480)];
        let table = ScheduleTable::new(t(480), jobs, vec![]);
        let slack = SlackProfile::from_table(&arch, &table);
        // PE0's min window slack = 0 (window 2), PE1's = 0 → C2P = 0.
        assert_eq!(c2_processes(&slack, t(120)), t(0));

        // Spread the same 120 ticks of load evenly: 30 busy per window.
        let jobs2 = vec![
            job(0, 0, 0, 30),
            job(0, 1, 120, 150),
            job(0, 2, 240, 270),
            job(0, 3, 360, 390),
            job(1, 4, 0, 480),
        ];
        let table2 = ScheduleTable::new(t(480), jobs2, vec![]);
        let slack2 = SlackProfile::from_table(&arch, &table2);
        // Every PE0 window has 90 slack → C2P = 90 ≥ tneed = 40.
        assert_eq!(c2_processes(&slack2, t(120)), t(90));
    }

    #[test]
    fn c2_messages_minimum_bus_window() {
        let arch = arch2();
        let table = ScheduleTable::empty(t(480));
        let slack = SlackProfile::from_table(&arch, &table);
        // Bus fully free: each 120-window holds 120 ticks of slot time
        // (6 cycles × 20 slot ticks... cycle is 20 ticks of slot time).
        assert_eq!(c2_messages(&slack, t(120)), t(120));
    }

    #[test]
    fn c2_short_horizon_uses_single_window() {
        let arch = arch2();
        let table = ScheduleTable::empty(t(60));
        let slack = SlackProfile::from_table(&arch, &table);
        // t_min 120 > horizon 60 → window [0, 60): 60 free per PE.
        assert_eq!(c2_processes(&slack, t(120)), t(120));
    }

    #[test]
    fn c2_zero_tmin_is_zero() {
        let arch = arch2();
        let table = ScheduleTable::empty(t(60));
        let slack = SlackProfile::from_table(&arch, &table);
        assert_eq!(c2_processes(&slack, Time::ZERO), Time::ZERO);
    }

    #[test]
    fn c1_messages_with_busy_bus() {
        let arch = arch2();
        let table = ScheduleTable::empty(t(480));
        let slack = SlackProfile::from_table(&arch, &table);
        // Demand: b_need 10/window × 4 windows = 40 ticks of 4-tick
        // messages into 48 windows of 10 → fits.
        assert_eq!(
            c1_messages(&arch, &slack, &profile(), FitPolicy::BestFit),
            0.0
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use incdes_model::{AppId, BusConfig, Histogram};
    use incdes_sched::{JobId, ScheduleTable, ScheduledJob};
    use proptest::prelude::*;

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

    /// Builds a valid random table on 2 PEs over [0, 480): non-overlapping
    /// jobs per PE from sorted random cut points.
    fn random_table(cuts: &[(u8, u64, u64)]) -> ScheduleTable {
        let mut jobs = Vec::new();
        let mut next_free = [0u64; 2];
        for (i, &(pe, off, len)) in cuts.iter().enumerate() {
            let pe = (pe % 2) as usize;
            let start = next_free[pe] + off % 40;
            let end = start + 1 + len % 30;
            if end > 480 {
                continue;
            }
            next_free[pe] = end;
            jobs.push(ScheduledJob {
                job: JobId::new(AppId(0), 0, i as u32, incdes_graph::NodeId(i as u32)),
                pe: PeId(pe as u32),
                start: t(start),
                end: t(end),
                release: t(0),
                deadline: t(100_000),
            });
        }
        ScheduleTable::new(t(480), jobs, vec![])
    }

    proptest! {
        /// C1 is a percentage and is 0 whenever total slack in one gap
        /// could hold everything... weaker invariant checked here:
        /// 0 <= C1 <= 100 on arbitrary tables.
        #[test]
        fn prop_c1_bounded(cuts in proptest::collection::vec((0u8..2, 0u64..40, 0u64..30), 0..20)) {
            let arch = arch2();
            let table = random_table(&cuts);
            let slack = SlackProfile::from_table(&arch, &table);
            let f = FutureProfile::new(
                t(120), t(60), t(10),
                Histogram::point(t(25)),
                Histogram::point(4u32),
            );
            let c1 = c1_processes(&slack, &f, FitPolicy::BestFit);
            prop_assert!((0.0..=100.0).contains(&c1));
        }

        /// C2P never exceeds total processor slack, and the per-window
        /// minimum times the window count never exceeds it either.
        #[test]
        fn prop_c2_bounded_by_total_slack(cuts in proptest::collection::vec((0u8..2, 0u64..40, 0u64..30), 0..20)) {
            let arch = arch2();
            let table = random_table(&cuts);
            let slack = SlackProfile::from_table(&arch, &table);
            let c2 = c2_processes(&slack, t(120));
            prop_assert!(c2 <= slack.total_pe_slack());
            // The minimum window is by definition <= the average window.
            let windows = 480 / 120;
            prop_assert!(c2.ticks() * windows <= slack.total_pe_slack().ticks() * 2);
        }

        /// Adding load (an extra job) never *increases* C2P.
        #[test]
        fn prop_c2_monotone_under_load(
            cuts in proptest::collection::vec((0u8..2, 0u64..40, 0u64..30), 0..12),
        ) {
            let arch = arch2();
            let base = random_table(&cuts);
            let slack_a = SlackProfile::from_table(&arch, &base);
            let c2_a = c2_processes(&slack_a, t(120));

            // Append one more job in the first free gap of PE0.
            let tls = base.pe_timelines(&arch);
            let Some(&(gs, ge)) = tls[0].gaps().first() else { return Ok(()); };
            if ge - gs < t(5) { return Ok(()); }
            let mut jobs = base.jobs().to_vec();
            jobs.push(ScheduledJob {
                job: JobId::new(AppId(1), 0, 0, incdes_graph::NodeId(0)),
                pe: PeId(0),
                start: gs,
                end: gs + t(5),
                release: t(0),
                deadline: t(100_000),
            });
            let loaded = ScheduleTable::new(t(480), jobs, base.messages().to_vec());
            let slack_b = SlackProfile::from_table(&arch, &loaded);
            let c2_b = c2_processes(&slack_b, t(120));
            prop_assert!(c2_b <= c2_a, "C2P must not grow with load: {c2_a} -> {c2_b}");
        }
    }
}
