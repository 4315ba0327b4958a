//! The static cyclic list scheduler.
//!
//! Given an architecture, applications with fixed mappings and placement
//! hints, and (optionally) a frozen schedule of existing applications,
//! [`schedule`] builds one table covering the hyperperiod:
//!
//! 1. frozen jobs and messages are replayed verbatim (requirement *a* of
//!    the paper — existing applications are never moved);
//! 2. the new applications' jobs are expanded over the hyperperiod and
//!    list-scheduled in order of partial-critical-path priority, each job
//!    placed into the earliest processor gap after its data is ready
//!    (skipping gaps according to its hint);
//! 3. every inter-PE message is placed into the earliest TDMA slot of the
//!    sender that starts after the producer finishes (skipping slots
//!    according to its hint).
//!
//! [`schedule`] is a thin compatibility wrapper over the incremental
//! evaluation engine in [`crate::engine`]: it builds a transient
//! [`crate::engine::FrozenBase`] and runs a fresh
//! [`crate::engine::Scheduler`] on it. Hot loops that evaluate many
//! design alternatives against one frozen schedule should hold on to
//! both and skip the per-call replay entirely.

use crate::engine::{FrozenBase, Scheduler};
use crate::job::JobId;
use crate::mapping::{Hints, Mapping, MsgRef};
use crate::pe_timeline::PeTimelineError;
use crate::table::ScheduleTable;
use incdes_model::{AppId, Application, Architecture, PeId, ProcRef, Time};
use incdes_tdma::BusTimelineError;
use std::fmt;
use std::sync::Arc;

/// One application to schedule, with its design variables.
#[derive(Debug, Clone, Copy)]
pub struct AppSpec<'a> {
    /// System-wide id the jobs will carry.
    pub id: AppId,
    /// The application.
    pub app: &'a Application,
    /// Process → PE assignment (must cover every process).
    pub mapping: &'a Mapping,
    /// Placement hints (empty = earliest-feasible everywhere).
    pub hints: &'a Hints,
}

impl<'a> AppSpec<'a> {
    /// Creates a spec.
    pub fn new(id: AppId, app: &'a Application, mapping: &'a Mapping, hints: &'a Hints) -> Self {
        AppSpec {
            id,
            app,
            mapping,
            hints,
        }
    }
}

/// Scheduling failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The horizon is not a positive multiple of a graph period or of the
    /// bus cycle.
    BadHorizon {
        /// The requested horizon.
        horizon: Time,
    },
    /// A process has no PE assigned in its mapping.
    MappingIncomplete {
        /// The application.
        app: AppId,
        /// The unmapped process.
        proc_ref: ProcRef,
    },
    /// A process is mapped to a PE it is not allowed on.
    NotAllowed {
        /// The application.
        app: AppId,
        /// The process.
        proc_ref: ProcRef,
        /// The offending PE.
        pe: PeId,
    },
    /// No processor gap fits a job before the horizon.
    NoGap {
        /// The job that could not be placed.
        job: JobId,
        /// The underlying timeline error.
        source: PeTimelineError,
    },
    /// No bus slot fits a message before the horizon.
    NoSlot {
        /// The producing job.
        job: JobId,
        /// The message.
        msg: MsgRef,
        /// The underlying bus error.
        source: BusTimelineError,
    },
    /// A job finished after its deadline.
    DeadlineMiss {
        /// The late job.
        job: JobId,
        /// Its end time.
        end: Time,
        /// Its deadline.
        deadline: Time,
    },
    /// The frozen table conflicts with itself or the horizon (corrupted
    /// input).
    FrozenConflict,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::BadHorizon { horizon } => write!(
                f,
                "horizon {horizon} is not a positive multiple of every period and the bus cycle"
            ),
            SchedError::MappingIncomplete { app, proc_ref } => {
                write!(f, "process {app}/{proc_ref} has no PE assigned")
            }
            SchedError::NotAllowed { app, proc_ref, pe } => {
                write!(f, "process {app}/{proc_ref} is mapped to disallowed {pe}")
            }
            SchedError::NoGap { job, source } => write!(f, "cannot place job {job}: {source}"),
            SchedError::NoSlot { job, msg, source } => {
                write!(f, "cannot place message {msg} of job {job}: {source}")
            }
            SchedError::DeadlineMiss { job, end, deadline } => {
                write!(f, "job {job} ends at {end}, after its deadline {deadline}")
            }
            SchedError::FrozenConflict => write!(f, "frozen schedule could not be replayed"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Whether the error means "this design alternative is infeasible" (the
/// heuristics treat it as cost ∞) rather than "the input is malformed".
impl SchedError {
    /// True for capacity/deadline failures, false for input errors.
    pub fn is_infeasible(&self) -> bool {
        matches!(
            self,
            SchedError::NoGap { .. } | SchedError::NoSlot { .. } | SchedError::DeadlineMiss { .. }
        )
    }
}

/// Builds the static cyclic schedule.
///
/// `frozen`, if given, must cover exactly `horizon`; its jobs and messages
/// are replayed first and included in the returned table.
///
/// This is the one-shot convenience wrapper over the evaluation engine:
/// it replays the frozen schedule into a transient
/// [`crate::engine::FrozenBase`] and discards the engine's scratch
/// afterwards. Callers that evaluate many alternatives against the same
/// frozen schedule should build the base once and reuse a
/// [`crate::engine::Scheduler`] instead.
///
/// # Errors
///
/// See [`SchedError`]. Errors with
/// [`is_infeasible`](SchedError::is_infeasible)` == true` mean the design
/// alternative does not fit; others indicate malformed input.
pub fn schedule(
    arch: &Architecture,
    apps: &[AppSpec<'_>],
    frozen: Option<&ScheduleTable>,
    horizon: Time,
) -> Result<ScheduleTable, SchedError> {
    // Input validation runs in the historical order (horizon and period
    // alignment before bus/frozen replay) so error precedence is stable.
    crate::engine::check_horizon(apps.iter().map(|s| s.app), horizon)?;
    let base = Arc::new(FrozenBase::new(arch, frozen, horizon)?);
    let bound: Vec<_> = apps.iter().map(|s| (s.id, s.app)).collect();
    let designs: Vec<_> = apps.iter().map(|s| (s.mapping, s.hints)).collect();
    let mut scheduler = Scheduler::new(arch, base, &bound)?;
    scheduler.run(&designs).result?;
    Ok(scheduler.table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_graph::NodeId;
    use incdes_model::{Application, BusConfig, Message, Process, ProcessGraph};

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

    /// a(pe0, 8) --m(4B)--> b(pe1, 6), period/deadline 100.
    fn chain_app() -> (Application, Mapping) {
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(8)));
        let b = g.add_process(Process::new("b").wcet(PeId(1), t(6)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        let app = Application::new("app", vec![g]);
        let mut m = Mapping::new();
        m.assign(ProcRef::new(0, a), PeId(0));
        m.assign(ProcRef::new(0, b), PeId(1));
        (app, m)
    }

    #[test]
    fn schedules_simple_chain() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let table = schedule(&arch, &[spec], None, t(100)).unwrap();
        assert_eq!(table.jobs().len(), 2);
        assert_eq!(table.messages().len(), 1);
        let a = table.job(JobId::new(AppId(0), 0, 0, NodeId(0))).unwrap();
        let b = table.job(JobId::new(AppId(0), 0, 0, NodeId(1))).unwrap();
        assert_eq!(a.start, t(0));
        assert_eq!(a.end, t(8));
        // Message rides PE0's slot at t=20 (first slot after end=8 is the
        // occurrence starting at 20), arrives 24; b starts then.
        let m = &table.messages()[0];
        assert_eq!(m.reservation.transmit_start, t(20));
        assert_eq!(b.start, t(24));
        table
            .validate(&arch, &[(AppId(0), &app, &mapping)])
            .unwrap();
    }

    #[test]
    fn same_pe_needs_no_message() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(8)));
        let b = g.add_process(Process::new("b").wcet(PeId(0), t(6)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        let app = Application::new("app", vec![g]);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, a), PeId(0));
        mapping.assign(ProcRef::new(0, b), PeId(0));
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let table = schedule(&arch, &[spec], None, t(100)).unwrap();
        assert!(table.messages().is_empty());
        let b_job = table.job(JobId::new(AppId(0), 0, 0, NodeId(1))).unwrap();
        assert_eq!(b_job.start, t(8));
        table
            .validate(&arch, &[(AppId(0), &app, &mapping)])
            .unwrap();
    }

    #[test]
    fn multiple_instances_over_hyperperiod() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(50), t(50));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(10)));
        let app = Application::new("app", vec![g]);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, a), PeId(0));
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let table = schedule(&arch, &[spec], None, t(200)).unwrap();
        assert_eq!(table.jobs().len(), 4);
        let starts: Vec<_> = table.jobs_on(PeId(0)).map(|j| j.start).collect();
        assert_eq!(starts, vec![t(0), t(50), t(100), t(150)]);
        table
            .validate(&arch, &[(AppId(0), &app, &mapping)])
            .unwrap();
    }

    #[test]
    fn horizon_must_cover_periods() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        assert!(matches!(
            schedule(&arch, &[spec], None, t(150)),
            Err(SchedError::BadHorizon { .. })
        ));
        assert!(matches!(
            schedule(&arch, &[spec], None, Time::ZERO),
            Err(SchedError::BadHorizon { .. })
        ));
    }

    #[test]
    fn incomplete_mapping_rejected() {
        let arch = arch2();
        let (app, _) = chain_app();
        let empty = Mapping::new();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &empty, &hints);
        assert!(matches!(
            schedule(&arch, &[spec], None, t(100)),
            Err(SchedError::MappingIncomplete { .. })
        ));
    }

    #[test]
    fn disallowed_pe_rejected() {
        let arch = arch2();
        let (app, _) = chain_app();
        let mut bad = Mapping::new();
        bad.assign(ProcRef::new(0, NodeId(0)), PeId(1)); // a not allowed on pe1
        bad.assign(ProcRef::new(0, NodeId(1)), PeId(1));
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &bad, &hints);
        assert!(matches!(
            schedule(&arch, &[spec], None, t(100)),
            Err(SchedError::NotAllowed { pe: PeId(1), .. })
        ));
    }

    #[test]
    fn deadline_miss_detected() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(100), t(5));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(10)));
        let app = Application::new("app", vec![g]);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, a), PeId(0));
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let err = schedule(&arch, &[spec], None, t(100)).unwrap_err();
        assert!(matches!(err, SchedError::DeadlineMiss { .. }));
        assert!(err.is_infeasible());
    }

    #[test]
    fn overload_reports_no_gap() {
        let arch = arch2();
        // Two processes of 60 ticks each on one PE, period 100: cannot fit.
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(60)));
        let b = g.add_process(Process::new("b").wcet(PeId(0), t(60)));
        let _ = (a, b);
        let app = Application::new("app", vec![g]);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        mapping.assign(ProcRef::new(0, NodeId(1)), PeId(0));
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let err = schedule(&arch, &[spec], None, t(100)).unwrap_err();
        // Second process does not fit before the horizon → NoGap (the
        // deadline would also be missed, but the gap search fails first
        // since horizon == deadline here).
        assert!(err.is_infeasible());
    }

    #[test]
    fn frozen_jobs_block_their_intervals() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let first = schedule(&arch, &[spec], None, t(100)).unwrap();

        // Schedule a second app with the first frozen.
        let (app2, mapping2) = chain_app();
        let spec2 = AppSpec::new(AppId(1), &app2, &mapping2, &hints);
        let table = schedule(&arch, &[spec2], Some(&first), t(100)).unwrap();
        // Frozen jobs still present and unmoved.
        let a0 = table.job(JobId::new(AppId(0), 0, 0, NodeId(0))).unwrap();
        assert_eq!(a0.start, t(0));
        // New app's first process starts after the frozen one on PE0.
        let a1 = table.job(JobId::new(AppId(1), 0, 0, NodeId(0))).unwrap();
        assert_eq!(a1.start, t(8));
        table
            .validate(
                &arch,
                &[(AppId(0), &app, &mapping), (AppId(1), &app2, &mapping2)],
            )
            .unwrap();
    }

    #[test]
    fn frozen_horizon_mismatch_rejected() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let first = schedule(&arch, &[spec], None, t(100)).unwrap();
        let (app2, mapping2) = chain_app();
        let spec2 = AppSpec::new(AppId(1), &app2, &mapping2, &hints);
        assert_eq!(
            schedule(&arch, &[spec2], Some(&first), t(200)).unwrap_err(),
            SchedError::FrozenConflict
        );
    }

    #[test]
    fn gap_hint_moves_process() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(10)));
        let app = Application::new("app", vec![g]);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, a), PeId(0));

        // Frozen interval [20,30) splits PE0's timeline into two gaps.
        let frozen_app = {
            let mut fg = ProcessGraph::new("fz", t(100), t(100));
            fg.add_process(Process::new("f").wcet(PeId(0), t(10)));
            Application::new("frozen", vec![fg])
        };
        let mut fmap = Mapping::new();
        fmap.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let mut fh = Hints::empty();
        fh.set_proc_gap(ProcRef::new(0, NodeId(0)), 0);
        // Build the frozen table by scheduling it at a shifted position:
        // place via hint on empty timeline → starts at 0; instead reserve
        // manually through a schedule with ready offset is not available,
        // so freeze a table scheduled normally and then test the hint on
        // the second app.
        let fspec = AppSpec::new(AppId(0), &frozen_app, &fmap, &fh);
        let frozen = schedule(&arch, &[fspec], None, t(100)).unwrap();

        // Without hint: lands right after the frozen job? Frozen job is at
        // [0,10) so the new one starts at 10.
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(1), &app, &mapping, &hints);
        let t0 = schedule(&arch, &[spec], Some(&frozen), t(100)).unwrap();
        assert_eq!(t0.job(JobId::new(AppId(1), 0, 0, a)).unwrap().start, t(10));

        // With hint 1: skip the feasible gap [10,100) → no further gap →
        // infeasible; so instead test on a timeline with two gaps by
        // hinting 0 vs observing deterministic placement.
        let mut h1 = Hints::empty();
        h1.set_proc_gap(ProcRef::new(0, a), 1);
        let spec1 = AppSpec::new(AppId(1), &app, &mapping, &h1);
        let err = schedule(&arch, &[spec1], Some(&frozen), t(100)).unwrap_err();
        assert!(matches!(err, SchedError::NoGap { .. }));
    }

    #[test]
    fn msg_slot_hint_delays_message() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let mut hints = Hints::empty();
        hints.set_msg_slot(MsgRef::new(0, incdes_graph::EdgeId(0)), 1);
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let table = schedule(&arch, &[spec], None, t(100)).unwrap();
        let m = &table.messages()[0];
        // Without hint it rides the slot at 20; with skip 1 → slot at 40.
        assert_eq!(m.reservation.transmit_start, t(40));
        let b = table.job(JobId::new(AppId(0), 0, 0, NodeId(1))).unwrap();
        assert_eq!(b.start, t(44));
        table
            .validate(&arch, &[(AppId(0), &app, &mapping)])
            .unwrap();
    }

    #[test]
    fn priority_orders_critical_branch_first() {
        let arch = arch2();
        // root → long(50) and root → short(5), all on PE0: the long branch
        // should be scheduled right after root.
        let mut g = ProcessGraph::new("g", t(200), t(200));
        let root = g.add_process(Process::new("r").wcet(PeId(0), t(2)));
        let long = g.add_process(Process::new("l").wcet(PeId(0), t(50)));
        let short = g.add_process(Process::new("s").wcet(PeId(0), t(5)));
        g.add_message(root, long, Message::new("m1", 1)).unwrap();
        g.add_message(root, short, Message::new("m2", 1)).unwrap();
        let app = Application::new("app", vec![g]);
        let mapping: Mapping = [
            (ProcRef::new(0, root), PeId(0)),
            (ProcRef::new(0, long), PeId(0)),
            (ProcRef::new(0, short), PeId(0)),
        ]
        .into_iter()
        .collect();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let table = schedule(&arch, &[spec], None, t(200)).unwrap();
        let l = table.job(JobId::new(AppId(0), 0, 0, long)).unwrap();
        let s = table.job(JobId::new(AppId(0), 0, 0, short)).unwrap();
        assert!(l.start < s.start, "critical branch must go first");
        table
            .validate(&arch, &[(AppId(0), &app, &mapping)])
            .unwrap();
    }

    #[test]
    fn two_apps_scheduled_together_validate() {
        let arch = arch2();
        let (app_a, map_a) = chain_app();
        let (app_b, map_b) = chain_app();
        let hints = Hints::empty();
        let specs = [
            AppSpec::new(AppId(0), &app_a, &map_a, &hints),
            AppSpec::new(AppId(1), &app_b, &map_b, &hints),
        ];
        let table = schedule(&arch, &specs, None, t(100)).unwrap();
        assert_eq!(table.jobs().len(), 4);
        assert_eq!(table.messages().len(), 2);
        table
            .validate(
                &arch,
                &[(AppId(0), &app_a, &map_a), (AppId(1), &app_b, &map_b)],
            )
            .unwrap();
    }
}
