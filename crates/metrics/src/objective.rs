//! The combined objective function (slide 14).
//!
//! ```text
//! C = w1P·C1P + w1m·C1m + w2P·max(0, tneed − C2P) + w2m·max(0, bneed − C2m)
//! ```
//!
//! The C1 terms are percentages; the C2 penalties are time deficits. The
//! weights calibrate the two scales against each other — the paper leaves
//! them as designer inputs, and our default weighs a 1 % packing failure
//! like a one-tick periodic deficit.

use crate::binpack::FitPolicy;
use crate::c1cache::C1Cache;
use crate::criteria::{c2_intervals, pack_messages, pack_processes};
use incdes_model::{Architecture, FutureProfile, Time};
use incdes_sched::SlackProfile;
use serde::{Deserialize, Serialize};

/// Weights of the objective function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Weights {
    /// Weight of `C1P` (process packing failure, %).
    pub w1_processes: f64,
    /// Weight of `C1m` (message packing failure, %).
    pub w1_messages: f64,
    /// Weight of `max(0, tneed − C2P)` (periodic processor deficit, ticks).
    pub w2_processes: f64,
    /// Weight of `max(0, bneed − C2m)` (periodic bus deficit, ticks).
    pub w2_messages: f64,
    /// Bin-packing policy used inside the C1 metrics (best-fit in the
    /// paper; exposed for the ablation study).
    pub fit_policy: FitPolicy,
}

impl Default for Weights {
    fn default() -> Self {
        Weights {
            w1_processes: 1.0,
            w1_messages: 1.0,
            w2_processes: 1.0,
            w2_messages: 1.0,
            fit_policy: FitPolicy::BestFit,
        }
    }
}

/// The evaluated cost of one design alternative.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DesignCost {
    /// C1P: % of future process time that does not pack.
    pub c1_processes: f64,
    /// C1m: % of future bus time that does not pack.
    pub c1_messages: f64,
    /// C2P: sum of per-processor minimum window slack (ticks).
    pub c2_processes: Time,
    /// C2m: minimum bus window slack (ticks).
    pub c2_messages: Time,
    /// `max(0, tneed − C2P)` in ticks.
    pub penalty_processes: Time,
    /// `max(0, bneed − C2m)` in ticks.
    pub penalty_messages: Time,
    /// The weighted total `C`.
    pub total: f64,
}

impl DesignCost {
    /// A cost representing an infeasible design alternative (`+∞`): any
    /// feasible alternative compares better.
    pub fn infeasible() -> Self {
        DesignCost {
            c1_processes: f64::INFINITY,
            c1_messages: f64::INFINITY,
            c2_processes: Time::ZERO,
            c2_messages: Time::ZERO,
            penalty_processes: Time::MAX,
            penalty_messages: Time::MAX,
            total: f64::INFINITY,
        }
    }

    /// True if this cost stems from a feasible schedule.
    pub fn is_feasible(&self) -> bool {
        self.total.is_finite()
    }
}

/// Evaluates the objective on a slack profile, packing C1 with the
/// indexed packer: the reference pipeline.
pub fn evaluate(
    arch: &Architecture,
    slack: &SlackProfile,
    future: &FutureProfile,
    weights: &Weights,
) -> DesignCost {
    evaluate_gaps(
        arch,
        slack.horizon(),
        slack.gap_lists(),
        slack.bus_windows(),
        future,
        weights,
        None,
    )
}

/// The objective of one design, read from its slack as gap slices:
/// `pe_gaps` yields each PE's idle intervals in PE order and
/// `bus_windows` the free bus windows, all in time order over
/// `[0, horizon)` — what a [`SlackProfile`] holds, or what a schedule's
/// live timelines hold before any profile is built. Every evaluation
/// path is this function, so no two can diverge.
///
/// With a `cache`, the C1 terms come from its batched packer, unless it
/// declines (first-fit, or containers longer than the histogram takes)
/// and the indexed packer serves them; debug builds check the batched
/// terms against the indexed packer on every call. Without one, the
/// indexed packer serves them.
pub fn evaluate_gaps<'g, I>(
    arch: &Architecture,
    horizon: Time,
    pe_gaps: I,
    bus_windows: &[(Time, Time)],
    future: &FutureProfile,
    weights: &Weights,
    cache: Option<&mut C1Cache>,
) -> DesignCost
where
    I: Iterator<Item = &'g [(Time, Time)]> + Clone,
{
    let policy = weights.fit_policy;
    let indexed = || {
        (
            pack_processes(pe_gaps.clone(), horizon, future, policy).unpacked_percent(),
            pack_messages(arch, bus_windows, horizon, future, policy).unpacked_percent(),
        )
    };
    let batched = cache.and_then(|cache| {
        cache.c1_terms_of(arch, horizon, pe_gaps.clone(), bus_windows, future, policy)
    });
    let (c1p, c1m) = match batched {
        Some(terms) => {
            debug_assert_eq!(
                terms,
                indexed(),
                "batched C1 diverged from the indexed packer"
            );
            terms
        }
        None => indexed(),
    };
    let c2p = pe_gaps
        .map(|gaps| c2_intervals(gaps, horizon, future.t_min))
        .sum();
    let c2m = c2_intervals(bus_windows, horizon, future.t_min);
    combine(future, weights, c1p, c1m, c2p, c2m)
}

/// The weighting arithmetic of every evaluation path.
fn combine(
    future: &FutureProfile,
    weights: &Weights,
    c1p: f64,
    c1m: f64,
    c2p: Time,
    c2m: Time,
) -> DesignCost {
    let pen_p = future.t_need.saturating_sub(c2p);
    let pen_m = future.b_need.saturating_sub(c2m);
    let total = weights.w1_processes * c1p
        + weights.w1_messages * c1m
        + weights.w2_processes * pen_p.as_f64()
        + weights.w2_messages * pen_m.as_f64();
    DesignCost {
        c1_processes: c1p,
        c1_messages: c1m,
        c2_processes: c2p,
        c2_messages: c2m,
        penalty_processes: pen_p,
        penalty_messages: pen_m,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_graph::NodeId;
    use incdes_model::{AppId, BusConfig, Histogram, PeId};
    use incdes_sched::{JobId, ScheduleTable, ScheduledJob, SlackProfile};

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

    #[test]
    fn empty_system_costs_zero() {
        let arch = arch2();
        let slack = SlackProfile::from_table(&arch, &ScheduleTable::empty(t(480)));
        let cost = evaluate(&arch, &slack, &profile(), &Weights::default());
        assert_eq!(cost.total, 0.0);
        assert!(cost.is_feasible());
        assert_eq!(cost.penalty_processes, Time::ZERO);
        assert_eq!(cost.penalty_messages, Time::ZERO);
    }

    #[test]
    fn saturated_system_costs_everything() {
        let arch = arch2();
        // Both PEs fully busy.
        let jobs = vec![
            ScheduledJob {
                job: JobId::new(AppId(0), 0, 0, NodeId(0)),
                pe: PeId(0),
                start: t(0),
                end: t(480),
                release: t(0),
                deadline: t(480),
            },
            ScheduledJob {
                job: JobId::new(AppId(0), 0, 0, NodeId(1)),
                pe: PeId(1),
                start: t(0),
                end: t(480),
                release: t(0),
                deadline: t(480),
            },
        ];
        let slack = SlackProfile::from_table(&arch, &ScheduleTable::new(t(480), jobs, vec![]));
        let cost = evaluate(&arch, &slack, &profile(), &Weights::default());
        // All process items unpacked → C1P = 100; C2P = 0 → deficit 40.
        assert_eq!(cost.c1_processes, 100.0);
        assert_eq!(cost.penalty_processes, t(40));
        // Bus untouched: no message cost.
        assert_eq!(cost.c1_messages, 0.0);
        assert_eq!(cost.penalty_messages, Time::ZERO);
        assert_eq!(cost.total, 100.0 + 40.0);
    }

    #[test]
    fn weights_scale_terms() {
        let arch = arch2();
        let jobs = vec![ScheduledJob {
            job: JobId::new(AppId(0), 0, 0, NodeId(0)),
            pe: PeId(0),
            start: t(0),
            end: t(480),
            release: t(0),
            deadline: t(480),
        }];
        // PE1 free: everything packs, no penalty → only check scaling on a
        // saturated variant instead.
        let slack = SlackProfile::from_table(&arch, &ScheduleTable::new(t(480), jobs, vec![]));
        let w = Weights {
            w1_processes: 2.0,
            ..Weights::default()
        };
        let base = evaluate(&arch, &slack, &profile(), &Weights::default());
        let scaled = evaluate(&arch, &slack, &profile(), &w);
        assert!((scaled.total - (base.total + base.c1_processes)).abs() < 1e-9);
    }

    #[test]
    fn infeasible_compares_worse() {
        let inf = DesignCost::infeasible();
        assert!(!inf.is_feasible());
        assert!(inf.total > 1e300);
    }
}
