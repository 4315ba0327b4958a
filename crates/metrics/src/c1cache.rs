//! The C1 bin-packing bound of the evaluation engine.
//!
//! The C1 metrics pack the largest expected future application into the
//! slack containers of the current design alternative — every gap of
//! every PE for `C1P`, every free bus window for `C1m`. The plain
//! [`crate::criteria::c1_processes`] / [`crate::criteria::c1_messages`]
//! path expands the future application into one item per process or
//! message and re-runs the `O(items · bins)` indexed packer on each call.
//!
//! [`C1Cache`] keeps only what every evaluation of a context shares:
//! the future items as `(size, count)` runs — an application drawn from
//! a few-point WCET histogram is thousands of items but a handful of
//! runs, which [`FutureProfile::expected_process_runs`] computes from
//! the histogram directly, never materializing the items — and one
//! [`CapacityHistogram`]. Each call counts the container lengths into
//! the histogram (PE gaps, then bus windows), and
//! [`CapacityHistogram::pack_totals`] moves every container of one
//! length at once: no sort per call and none per run. Nothing is keyed
//! on gap-list storage identity: the containers are read straight from
//! whatever gap slices the caller holds, the live timelines of a
//! schedule included. The totals are **exactly** the indexed packer's
//! (see [`CapacityHistogram::pack_totals`] for why, for best-fit and
//! worst-fit); the order-dependent first-fit policy, and containers
//! longer than [`CapacityHistogram::MAX_LEN`], report themselves
//! unsupported so callers fall back to the full packer.

use crate::binpack::{unpacked_percent, CapacityHistogram, FitPolicy};
use incdes_model::{Architecture, FutureProfile, Time};
use incdes_obs::counters::{self, Counter};
use incdes_sched::SlackProfile;

/// C1 packing state for one evaluation context: the future item runs,
/// rebuilt (bumping `c1_repacked`) whenever the future profile, the
/// horizon or the bus rate change — so reuse across contexts is safe,
/// just not profitable — plus the reused capacity histogram.
#[derive(Debug, Default)]
pub struct C1Cache {
    /// What the runs were built for: the items depend on the future
    /// profile, the horizon and the bus's bytes-per-tick rate (nothing
    /// else of the architecture, and not the policy).
    future: Option<FutureProfile>,
    bytes_per_tick: u32,
    horizon: Time,
    /// Future process items as `(size, count)` runs, sizes decreasing.
    proc_runs: Vec<(Time, u64)>,
    /// Future message items (already converted to bus time) as runs.
    msg_runs: Vec<(Time, u64)>,
    /// The containers being packed: PE gaps, then bus windows.
    caps: CapacityHistogram,
}

impl C1Cache {
    /// An empty cache; the first evaluation populates it.
    pub fn new() -> Self {
        C1Cache::default()
    }

    /// The `(C1P, C1m)` terms of `slack`: [`c1_terms_of`] on its gap
    /// lists.
    ///
    /// [`c1_terms_of`]: Self::c1_terms_of
    pub fn c1_terms(
        &mut self,
        arch: &Architecture,
        slack: &SlackProfile,
        future: &FutureProfile,
        policy: FitPolicy,
    ) -> Option<(f64, f64)> {
        self.c1_terms_of(
            arch,
            slack.horizon(),
            slack.gap_lists(),
            slack.bus_windows(),
            future,
            policy,
        )
    }

    /// The `(C1P, C1m)` terms of a design whose slack is `pe_gaps` (each
    /// PE's idle intervals) and `bus_windows` over `[0, horizon)`.
    /// Returns `None` for [`FitPolicy::FirstFit`] (order-dependent
    /// totals) and for a horizon above [`CapacityHistogram::MAX_LEN`];
    /// callers then fall back to the full packer.
    pub fn c1_terms_of<'g>(
        &mut self,
        arch: &Architecture,
        horizon: Time,
        pe_gaps: impl IntoIterator<Item = &'g [(Time, Time)]>,
        bus_windows: &[(Time, Time)],
        future: &FutureProfile,
        policy: FitPolicy,
    ) -> Option<(f64, f64)> {
        if matches!(policy, FitPolicy::FirstFit) {
            return None;
        }
        let bus = arch.bus();
        if self.horizon != horizon
            || self.bytes_per_tick != bus.bytes_per_tick
            || self.future.as_ref() != Some(future)
        {
            counters::bump(Counter::C1Repacked);
            self.horizon = horizon;
            self.bytes_per_tick = bus.bytes_per_tick;
            self.future = Some(future.clone());
            self.proc_runs = future.expected_process_runs(horizon);
            self.msg_runs =
                future.expected_message_runs(horizon, |bytes| bus.transmission_time(bytes));
        }
        // Every container lies inside the horizon.
        if !self.caps.reset(horizon) {
            return None;
        }
        for gaps in pe_gaps {
            for &(s, e) in gaps {
                self.caps.add(e - s);
            }
        }
        let (pp, pu) = self.caps.pack_totals(&self.proc_runs, policy)?;
        self.caps.reset(horizon);
        for &(s, e) in bus_windows {
            self.caps.add(e - s);
        }
        let (mp, mu) = self.caps.pack_totals(&self.msg_runs, policy)?;
        Some((unpacked_percent(pp, pu), unpacked_percent(mp, mu)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::criteria::{c1_messages, c1_processes};
    use incdes_model::{BusConfig, Histogram};
    use incdes_sched::slack::GapList;
    use std::sync::Arc;

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

    fn profile() -> FutureProfile {
        FutureProfile::new(
            t(120),
            t(40),
            t(10),
            Histogram::point(t(20)),
            Histogram::point(4u32),
        )
    }

    /// Hand-rolled profiles whose PE gaps, PE count and bus windows
    /// evolve: the cache must track exactly the full recomputation at
    /// every step, and rebuild its item runs only once.
    #[test]
    fn cache_tracks_full_recomputation() {
        let arch = arch2();
        let future = profile();
        let mut cache = C1Cache::new();

        let pe1: GapList = vec![(t(0), t(100))].into();
        let bus: GapList = vec![(t(0), t(10)), (t(20), t(30))].into();
        let mut steps: Vec<(Vec<GapList>, GapList)> = [
            vec![(t(0), t(480))],
            vec![(t(0), t(30)), (t(60), t(480))],
            vec![(t(0), t(30)), (t(60), t(400))],
            vec![(t(0), t(30)), (t(60), t(400))],
        ]
        .into_iter()
        .map(|pe0| (vec![pe0.into(), Arc::clone(&pe1)], Arc::clone(&bus)))
        .collect();
        // A PE-count change, then a bus-window change.
        steps.push((
            vec![
                vec![(t(0), t(45))].into(),
                Arc::clone(&pe1),
                vec![(t(5), t(25))].into(),
            ],
            Arc::clone(&bus),
        ));
        steps.push((
            vec![vec![(t(0), t(45))].into(), Arc::clone(&pe1)],
            vec![(t(0), t(4)), (t(40), t(50)), (t(60), t(62))].into(),
        ));
        let before = counters::snapshot();
        for (pes, bus) in steps {
            let slack = SlackProfile::new(t(480), pes, bus);
            let (c1p, c1m) = cache
                .c1_terms(&arch, &slack, &future, FitPolicy::BestFit)
                .unwrap();
            assert_eq!(c1p, c1_processes(&slack, &future, FitPolicy::BestFit));
            assert_eq!(c1m, c1_messages(&arch, &slack, &future, FitPolicy::BestFit));
        }
        let repacked = counters::snapshot()
            .delta_since(&before)
            .get(Counter::C1Repacked);
        assert_eq!(repacked, 1, "the item runs depend on none of the changes");
    }

    #[test]
    fn first_fit_reports_unsupported() {
        let arch = arch2();
        let slack = SlackProfile::new(t(480), vec![vec![], vec![]], vec![]);
        assert!(C1Cache::new()
            .c1_terms(&arch, &slack, &profile(), FitPolicy::FirstFit)
            .is_none());
    }

    #[test]
    fn worst_fit_supported_and_exact() {
        let arch = arch2();
        let future = profile();
        let slack = SlackProfile::new(
            t(480),
            vec![vec![(t(0), t(25)), (t(100), t(130))], vec![(t(0), t(480))]],
            vec![(t(0), t(10))],
        );
        let mut cache = C1Cache::new();
        let (c1p, c1m) = cache
            .c1_terms(&arch, &slack, &future, FitPolicy::WorstFit)
            .unwrap();
        assert_eq!(c1p, c1_processes(&slack, &future, FitPolicy::WorstFit));
        assert_eq!(
            c1m,
            c1_messages(&arch, &slack, &future, FitPolicy::WorstFit)
        );
    }

    /// A future-profile change (new context reusing a cache) forces a
    /// rebuild — stale items would silently misprice C1 otherwise.
    #[test]
    fn future_change_rebuilds() {
        let arch = arch2();
        let slack = SlackProfile::new(
            t(480),
            vec![vec![(t(0), t(30))], vec![(t(0), t(480))]],
            vec![(t(0), t(10))],
        );
        let mut cache = C1Cache::new();
        let small = profile();
        let (c1p_small, _) = cache
            .c1_terms(&arch, &slack, &small, FitPolicy::BestFit)
            .unwrap();
        assert_eq!(c1p_small, c1_processes(&slack, &small, FitPolicy::BestFit));
        // Same horizon/policy/PE count, very different demand.
        let big = FutureProfile::new(
            t(120),
            t(400),
            t(10),
            Histogram::point(t(200)),
            Histogram::point(4u32),
        );
        let (c1p_big, _) = cache
            .c1_terms(&arch, &slack, &big, FitPolicy::BestFit)
            .unwrap();
        assert_eq!(c1p_big, c1_processes(&slack, &big, FitPolicy::BestFit));
        assert_ne!(c1p_small, c1p_big, "the demand change must be visible");
    }

    /// A PE-count change (new context reusing a cache) is served from
    /// the new profile's containers.
    #[test]
    fn pe_count_change_rebuilds() {
        let arch = arch2();
        let future = profile();
        let mut cache = C1Cache::new();
        let slack3 = SlackProfile::new(t(480), vec![vec![]; 3], vec![]);
        cache
            .c1_terms(&arch, &slack3, &future, FitPolicy::BestFit)
            .unwrap();
        let slack2 = SlackProfile::new(t(480), vec![vec![(t(0), t(480))]; 2], vec![]);
        let (c1p, _) = cache
            .c1_terms(&arch, &slack2, &future, FitPolicy::BestFit)
            .unwrap();
        assert_eq!(c1p, c1_processes(&slack2, &future, FitPolicy::BestFit));
    }
}
