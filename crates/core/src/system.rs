//! The incremental design session.

use incdes_mapping::{
    run_strategy, MapError, MappingContext, RunStats, SearchParallelism, Solution, Strategy,
};
use incdes_metrics::{DesignCost, Weights};
use incdes_model::time::{hyperperiod, HyperperiodError};
use incdes_model::{validate, AppId, Application, Architecture, FutureProfile, ModelError, Time};
use incdes_sched::engine::FrozenBase;
use incdes_sched::{ScheduleTable, SlackProfile, TableError};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::Arc;

/// An application that has been committed to the system and is now frozen.
#[derive(Debug, Clone)]
pub struct CommittedApp {
    /// The id its jobs carry in the schedule table.
    pub id: AppId,
    /// The application.
    pub app: Application,
    /// The design alternative it was committed with.
    pub solution: Solution,
    /// Cost of modifying (re-mapping) this application later, used by
    /// [`crate::ModificationPolicy`]. Defaults to 1.0.
    pub modification_cost: f64,
    /// True once the application has been decommissioned: its jobs are
    /// gone from the schedule but its record (and [`AppId`]) remain so
    /// later ids stay stable.
    pub retired: bool,
}

/// Error from a session operation.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The application is structurally invalid for this architecture.
    Validation(ModelError),
    /// The mapping strategy failed (including "does not fit").
    Mapping(MapError),
    /// The hyperperiod could not be computed (zero period or overflow).
    Horizon(HyperperiodError),
    /// Internal replication failure (should not happen on valid systems).
    Table(TableError),
    /// The referenced application does not exist or is already retired.
    UnknownApp(AppId),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Validation(e) => write!(f, "invalid application: {e}"),
            CoreError::Mapping(e) => write!(f, "mapping failed: {e}"),
            CoreError::Horizon(e) => write!(f, "hyperperiod error: {e}"),
            CoreError::Table(e) => write!(f, "schedule table error: {e}"),
            CoreError::UnknownApp(id) => write!(f, "no active application {id}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Validation(e)
    }
}
impl From<MapError> for CoreError {
    fn from(e: MapError) -> Self {
        CoreError::Mapping(e)
    }
}
impl From<HyperperiodError> for CoreError {
    fn from(e: HyperperiodError) -> Self {
        CoreError::Horizon(e)
    }
}
impl From<TableError> for CoreError {
    fn from(e: TableError) -> Self {
        CoreError::Table(e)
    }
}

/// Result of committing an application.
#[derive(Debug, Clone)]
pub struct CommitReport {
    /// Id assigned to the new application.
    pub app_id: AppId,
    /// The system hyperperiod after the commit.
    pub horizon: Time,
    /// Objective value of the committed design alternative.
    pub cost: DesignCost,
    /// Strategy run statistics.
    pub stats: RunStats,
    /// Existing applications that were re-mapped to make room (empty
    /// unless a [`crate::ModificationPolicy`] was used).
    pub modified: Vec<AppId>,
    /// Total modification cost incurred.
    pub modification_cost: f64,
}

/// Result of probing an application without committing it.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Whether a valid mapping + schedule was found.
    pub feasible: bool,
    /// The objective value of the found alternative (if feasible).
    pub cost: Option<DesignCost>,
    /// Strategy run statistics.
    pub stats: Option<RunStats>,
}

/// The incremental design session: architecture + frozen applications +
/// the system-wide schedule table.
#[derive(Debug, Clone)]
pub struct System {
    arch: Architecture,
    committed: Vec<CommittedApp>,
    table: ScheduleTable,
    /// One baked [`FrozenBase`] per `(table state, horizon)`, shared by
    /// every [`MappingContext`] this system hands out until the table
    /// mutates — so a campaign script's probe streak (and the probe
    /// preceding a matching commit) replays the frozen schedule once,
    /// not once per step. Keyed by horizon only: the cache is cleared
    /// on every table mutation, so entries always describe the current
    /// table.
    base_cache: RefCell<Option<(Time, Arc<FrozenBase>)>>,
    base_reuse: Cell<usize>,
}

impl System {
    /// A fresh system with no applications. The initial schedule horizon
    /// is one bus cycle (it grows to the hyperperiod as applications are
    /// committed).
    pub fn new(arch: Architecture) -> Self {
        let table = ScheduleTable::empty(arch.bus().cycle_length());
        System {
            arch,
            committed: Vec::new(),
            table,
            base_cache: RefCell::new(None),
            base_reuse: Cell::new(0),
        }
    }

    /// Does nothing: every mapping context searches sequentially (see
    /// [`SearchParallelism`]).
    pub fn set_parallelism(&mut self, _parallelism: SearchParallelism) {}

    /// The shared frozen base for the current table replicated to
    /// `horizon`, baking it on first use. `None` when baking fails —
    /// the mapping context then reports the error through its ordinary
    /// lazy path, keeping error precedence identical.
    fn shared_base(&self, frozen: &ScheduleTable, horizon: Time) -> Option<Arc<FrozenBase>> {
        let mut cache = self.base_cache.borrow_mut();
        if let Some((cached_horizon, base)) = cache.as_ref() {
            if *cached_horizon == horizon {
                self.base_reuse.set(self.base_reuse.get() + 1);
                return Some(Arc::clone(base));
            }
        }
        match FrozenBase::new(&self.arch, Some(frozen), horizon) {
            Ok(base) => {
                let base = Arc::new(base);
                *cache = Some((horizon, Arc::clone(&base)));
                Some(base)
            }
            Err(_) => None,
        }
    }

    /// How many mapping contexts were served a cached frozen base
    /// instead of re-baking the frozen schedule (diagnostics; see
    /// `System::shared_base`).
    pub fn frozen_base_reuse_count(&self) -> usize {
        self.base_reuse.get()
    }

    /// The architecture.
    pub fn arch(&self) -> &Architecture {
        &self.arch
    }

    /// The committed applications, in commit order (including retired
    /// ones; see [`CommittedApp::retired`]).
    pub fn committed(&self) -> &[CommittedApp] {
        &self.committed
    }

    /// The applications still running on the system.
    pub fn active(&self) -> impl Iterator<Item = &CommittedApp> {
        self.committed.iter().filter(|c| !c.retired)
    }

    /// Decommissions an application: its jobs and messages disappear from
    /// the schedule, freeing slack for later increments. Other
    /// applications keep their exact job start times; their messages stay
    /// in the same bus slot occurrence but compact to the front of the
    /// frame (TTP frames are reassembled every cycle, so removal can only
    /// move a message *earlier* — see
    /// [`incdes_sched::ScheduleTable::without_apps`]). The [`AppId`] is
    /// not reused.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownApp`] if `id` is out of range or already
    /// retired.
    pub fn decommission(&mut self, id: AppId) -> Result<(), CoreError> {
        match self.committed.get_mut(id.index()) {
            Some(c) if !c.retired => c.retired = true,
            _ => return Err(CoreError::UnknownApp(id)),
        }
        self.table = self.table_without(&[id]);
        *self.base_cache.borrow_mut() = None;
        Ok(())
    }

    /// Number of committed applications.
    pub fn app_count(&self) -> usize {
        self.committed.len()
    }

    /// The current system-wide schedule table.
    pub fn table(&self) -> &ScheduleTable {
        &self.table
    }

    /// The current hyperperiod.
    pub fn horizon(&self) -> Time {
        self.table.horizon()
    }

    /// The current slack profile.
    pub fn slack(&self) -> SlackProfile {
        SlackProfile::from_table(&self.arch, &self.table)
    }

    /// Sets the modification cost of a committed application.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a committed application.
    pub fn set_modification_cost(&mut self, id: AppId, cost: f64) {
        self.committed[id.index()].modification_cost = cost;
    }

    /// The hyperperiod after adding `app`: LCM of the current horizon and
    /// the new periods (always a multiple of the bus cycle).
    fn horizon_with(&self, app: &Application) -> Result<Time, CoreError> {
        let mut periods: Vec<Time> = vec![self.table.horizon()];
        periods.extend(app.graphs.iter().map(|g| g.period));
        Ok(hyperperiod(periods)?)
    }

    /// Maps, schedules and commits `app` with the given strategy.
    ///
    /// On success the application becomes part of the frozen system state;
    /// requirement (a) guarantees no earlier application moved.
    ///
    /// # Errors
    ///
    /// [`CoreError::Validation`] for structurally invalid applications,
    /// [`CoreError::Mapping`] when no feasible design alternative exists
    /// (the system state is unchanged in every error case).
    pub fn add_application(
        &mut self,
        app: Application,
        future: &FutureProfile,
        weights: &Weights,
        strategy: &Strategy,
    ) -> Result<CommitReport, CoreError> {
        validate::check_application(&app, &self.arch)?;
        let new_horizon = self.horizon_with(&app)?;
        let frozen = self.table.replicate_to(&self.arch, new_horizon)?;
        let id = AppId(self.committed.len() as u32);
        let mut ctx = MappingContext::new(
            &self.arch,
            id,
            &app,
            Some(&frozen),
            new_horizon,
            future,
            weights,
        );
        if let Some(base) = self.shared_base(&frozen, new_horizon) {
            ctx = ctx.with_frozen_base(base);
        }
        let outcome = run_strategy(&ctx, strategy)?;
        self.table = outcome.evaluation.table;
        *self.base_cache.borrow_mut() = None;
        self.committed.push(CommittedApp {
            id,
            app,
            solution: outcome.solution,
            modification_cost: 1.0,
            retired: false,
        });
        Ok(CommitReport {
            app_id: id,
            horizon: new_horizon,
            cost: outcome.evaluation.cost,
            stats: outcome.stats,
            modified: Vec::new(),
            modification_cost: 0.0,
        })
    }

    /// Checks whether `app` could be mapped on the current system state,
    /// without committing anything — the mappability probe of the paper's
    /// third experiment.
    ///
    /// # Errors
    ///
    /// [`CoreError::Validation`] for structurally invalid applications;
    /// infeasibility is *not* an error (it yields
    /// `ProbeReport { feasible: false, .. }`).
    pub fn probe_application(
        &self,
        app: &Application,
        future: &FutureProfile,
        weights: &Weights,
        strategy: &Strategy,
    ) -> Result<ProbeReport, CoreError> {
        validate::check_application(app, &self.arch)?;
        let new_horizon = self.horizon_with(app)?;
        let frozen = self.table.replicate_to(&self.arch, new_horizon)?;
        let id = AppId(self.committed.len() as u32);
        let mut ctx = MappingContext::new(
            &self.arch,
            id,
            app,
            Some(&frozen),
            new_horizon,
            future,
            weights,
        );
        if let Some(base) = self.shared_base(&frozen, new_horizon) {
            ctx = ctx.with_frozen_base(base);
        }
        match run_strategy(&ctx, strategy) {
            Ok(outcome) => Ok(ProbeReport {
                feasible: true,
                cost: Some(outcome.evaluation.cost),
                stats: Some(outcome.stats),
            }),
            Err(MapError::Infeasible { .. }) => Ok(ProbeReport {
                feasible: false,
                cost: None,
                stats: None,
            }),
            Err(e) => Err(CoreError::Mapping(e)),
        }
    }

    /// Rebuilds the schedule table with the given applications' jobs and
    /// messages removed (used by decommission and the modification
    /// policy). Remaining bus frames compact to the front of their slot.
    pub(crate) fn table_without(&self, exclude: &[AppId]) -> ScheduleTable {
        self.table.without_apps(&self.arch, exclude)
    }

    /// Replaces the stored table (modification policy internals).
    pub(crate) fn replace_state(&mut self, table: ScheduleTable) {
        self.table = table;
        *self.base_cache.borrow_mut() = None;
    }

    /// Reassembles a session from its parts (snapshot restore internals;
    /// the caller has already validated the table).
    pub(crate) fn from_parts(
        arch: Architecture,
        committed: Vec<CommittedApp>,
        table: ScheduleTable,
    ) -> Self {
        System {
            arch,
            committed,
            table,
            base_cache: RefCell::new(None),
            base_reuse: Cell::new(0),
        }
    }

    /// Mutable access to a committed application's record (modification
    /// policy internals).
    pub(crate) fn committed_mut(&mut self, id: AppId) -> &mut CommittedApp {
        &mut self.committed[id.index()]
    }

    /// Appends a committed application record (modification policy
    /// internals).
    pub(crate) fn push_committed(&mut self, rec: CommittedApp) {
        self.committed.push(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_mapping::Strategy;
    use incdes_model::prelude::*;
    use incdes_sched::Mapping;

    fn arch2() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, Time::new(10), 1).unwrap())
            .build()
            .unwrap()
    }

    fn app(name: &str, period: u64, wcets: &[u64]) -> Application {
        let mut g = ProcessGraph::new(format!("{name}.g0"), Time::new(period), Time::new(period));
        for (i, &w) in wcets.iter().enumerate() {
            g.add_process(
                Process::new(format!("{name}.p{i}"))
                    .wcet(PeId(0), Time::new(w))
                    .wcet(PeId(1), Time::new(w)),
            );
        }
        Application::new(name, vec![g])
    }

    fn future() -> FutureProfile {
        FutureProfile::slide_example()
    }

    #[test]
    fn commit_sequence_grows_horizon() {
        let mut sys = System::new(arch2());
        assert_eq!(sys.horizon(), Time::new(20)); // bus cycle
        let w = Weights::default();
        let r1 = sys
            .add_application(app("v1", 120, &[10, 10]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        assert_eq!(r1.app_id, AppId(0));
        assert_eq!(sys.horizon(), Time::new(120));
        let r2 = sys
            .add_application(app("v2", 240, &[8]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        assert_eq!(r2.app_id, AppId(1));
        assert_eq!(sys.horizon(), Time::new(240));
        assert_eq!(sys.app_count(), 2);
        assert!(sys.table().is_deadline_clean());
    }

    #[test]
    fn committed_apps_never_move() {
        let mut sys = System::new(arch2());
        let w = Weights::default();
        sys.add_application(app("v1", 120, &[10, 10]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        // Snapshot of v1's jobs within its own 120-tick period.
        let before: Vec<_> = sys
            .table()
            .jobs()
            .iter()
            .filter(|j| j.job.app == AppId(0) && j.release < Time::new(120))
            .map(|j| (j.job, j.pe, j.start))
            .collect();
        sys.add_application(app("v2", 240, &[8, 8, 8]), &future(), &w, &Strategy::mh())
            .unwrap();
        for (job, pe, start) in before {
            let now = sys.table().job(job).expect("job still present");
            assert_eq!(now.pe, pe);
            assert_eq!(now.start, start);
        }
    }

    #[test]
    fn full_table_validates_after_commits() {
        let mut sys = System::new(arch2());
        let w = Weights::default();
        sys.add_application(app("v1", 120, &[10, 10]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        sys.add_application(app("v2", 240, &[8, 8]), &future(), &w, &Strategy::mh())
            .unwrap();
        let pairs: Vec<(AppId, &Application, &Mapping)> = sys
            .committed()
            .iter()
            .map(|c| (c.id, &c.app, &c.solution.mapping))
            .collect();
        sys.table().validate(sys.arch(), &pairs).unwrap();
    }

    #[test]
    fn failed_commit_leaves_state_unchanged() {
        let mut sys = System::new(arch2());
        let w = Weights::default();
        sys.add_application(app("v1", 120, &[10]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        let table_before = sys.table().clone();
        // 300 ticks of work in a 120 period on 2 PEs: infeasible.
        let err = sys
            .add_application(
                app("big", 120, &[100, 100, 100]),
                &future(),
                &w,
                &Strategy::AdHoc,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Mapping(MapError::Infeasible { .. })
        ));
        assert_eq!(sys.app_count(), 1);
        assert_eq!(sys.table(), &table_before);
    }

    #[test]
    fn invalid_app_rejected_before_mapping() {
        let mut sys = System::new(arch2());
        let w = Weights::default();
        let err = sys
            .add_application(
                Application::new("empty", vec![]),
                &future(),
                &w,
                &Strategy::AdHoc,
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::Validation(_)));
    }

    /// The frozen base is baked once per system state: a probe streak
    /// (and the commit that follows at the same hyperperiod) shares one
    /// bake, and any table mutation invalidates it.
    #[test]
    fn probe_streak_shares_one_frozen_base() {
        let mut sys = System::new(arch2());
        let w = Weights::default();
        sys.add_application(app("v1", 120, &[10, 10]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        assert_eq!(sys.frozen_base_reuse_count(), 0);
        for _ in 0..3 {
            sys.probe_application(&app("p", 120, &[5]), &future(), &w, &Strategy::AdHoc)
                .unwrap();
        }
        // First probe bakes, the next two reuse.
        assert_eq!(sys.frozen_base_reuse_count(), 2);
        // A commit at the same horizon reuses the probe's bake...
        sys.add_application(app("v2", 120, &[5]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        assert_eq!(sys.frozen_base_reuse_count(), 3);
        // ...and invalidates the cache: the next probe re-bakes.
        sys.probe_application(&app("p2", 120, &[5]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        assert_eq!(sys.frozen_base_reuse_count(), 3);
        sys.probe_application(&app("p3", 120, &[5]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        assert_eq!(sys.frozen_base_reuse_count(), 4);
        // A horizon-growing probe does not reuse the 120-tick bake.
        sys.probe_application(&app("p4", 240, &[5]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        assert_eq!(sys.frozen_base_reuse_count(), 4);
    }

    /// Every table mutation rebakes the shared base: the next context
    /// gets a fresh bake holding the committed jobs, while a
    /// pre-mutation `Arc` to the old bake stays valid for contexts
    /// created before the commit.
    #[test]
    fn commit_rebakes_base_with_fresh_generation() {
        let mut sys = System::new(arch2());
        let w = Weights::default();
        sys.add_application(app("v1", 120, &[10, 10]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        let horizon = sys.horizon();
        let frozen = sys.table().replicate_to(sys.arch(), horizon).unwrap();
        let before = sys.shared_base(&frozen, horizon).unwrap();
        let jobs_before = before.frozen_job_count();

        sys.add_application(app("v2", 120, &[5]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        let frozen2 = sys.table().replicate_to(sys.arch(), sys.horizon()).unwrap();
        let after = sys.shared_base(&frozen2, sys.horizon()).unwrap();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "a commit must rebake the shared base"
        );
        assert_eq!(after.frozen_job_count(), jobs_before + 1);
        // The old Arc still answers for contexts created pre-commit.
        assert_eq!(before.horizon(), horizon);
        assert_eq!(before.frozen_job_count(), jobs_before);
    }

    #[test]
    fn probe_does_not_commit() {
        let mut sys = System::new(arch2());
        let w = Weights::default();
        sys.add_application(app("v1", 120, &[10]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        let probe = sys
            .probe_application(
                &app("future", 120, &[5, 5]),
                &future(),
                &w,
                &Strategy::AdHoc,
            )
            .unwrap();
        assert!(probe.feasible);
        assert!(probe.cost.is_some());
        assert_eq!(sys.app_count(), 1);

        let too_big = app("huge", 120, &[100, 100, 100]);
        let probe2 = sys
            .probe_application(&too_big, &future(), &w, &Strategy::AdHoc)
            .unwrap();
        assert!(!probe2.feasible);
        assert!(probe2.cost.is_none());
    }

    #[test]
    fn table_without_filters_app() {
        let mut sys = System::new(arch2());
        let w = Weights::default();
        sys.add_application(app("v1", 120, &[10]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        sys.add_application(app("v2", 120, &[10]), &future(), &w, &Strategy::AdHoc)
            .unwrap();
        let without = sys.table_without(&[AppId(0)]);
        assert!(without.jobs().iter().all(|j| j.job.app != AppId(0)));
        assert!(without.jobs().iter().any(|j| j.job.app == AppId(1)));
    }
}

#[cfg(test)]
mod decommission_tests {
    use super::*;
    use incdes_mapping::Strategy;
    use incdes_model::prelude::*;

    fn arch2() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, Time::new(10), 1).unwrap())
            .build()
            .unwrap()
    }

    fn one_proc(name: &str, wcet: u64) -> Application {
        let mut g = ProcessGraph::new(format!("{name}.g"), Time::new(120), Time::new(120));
        g.add_process(
            Process::new(format!("{name}.p"))
                .wcet(PeId(0), Time::new(wcet))
                .wcet(PeId(1), Time::new(wcet)),
        );
        Application::new(name, vec![g])
    }

    #[test]
    fn decommission_frees_slack_without_moving_others() {
        let mut sys = System::new(arch2());
        let f = FutureProfile::slide_example();
        let w = Weights::default();
        sys.add_application(one_proc("v1", 40), &f, &w, &Strategy::AdHoc)
            .unwrap();
        sys.add_application(one_proc("v2", 40), &f, &w, &Strategy::AdHoc)
            .unwrap();
        let v2_before: Vec<_> = sys
            .table()
            .jobs()
            .iter()
            .filter(|j| j.job.app == AppId(1))
            .map(|j| (j.job, j.start))
            .collect();
        let slack_before = sys.slack().total_pe_slack();

        sys.decommission(AppId(0)).unwrap();
        assert!(sys.committed()[0].retired);
        assert_eq!(sys.active().count(), 1);
        assert!(sys.table().jobs().iter().all(|j| j.job.app != AppId(0)));
        // v2 kept its exact slots.
        for (job, start) in v2_before {
            assert_eq!(sys.table().job(job).unwrap().start, start);
        }
        assert!(sys.slack().total_pe_slack() > slack_before);
    }

    #[test]
    fn decommission_twice_is_an_error() {
        let mut sys = System::new(arch2());
        let f = FutureProfile::slide_example();
        let w = Weights::default();
        sys.add_application(one_proc("v1", 10), &f, &w, &Strategy::AdHoc)
            .unwrap();
        sys.decommission(AppId(0)).unwrap();
        assert_eq!(
            sys.decommission(AppId(0)),
            Err(CoreError::UnknownApp(AppId(0)))
        );
        assert_eq!(
            sys.decommission(AppId(7)),
            Err(CoreError::UnknownApp(AppId(7)))
        );
    }

    /// Two-process application with a forced cross-PE message (each
    /// process is only allowed on one PE).
    fn two_proc_msg(name: &str, wcet: u64) -> Application {
        let mut g = ProcessGraph::new(format!("{name}.g"), Time::new(120), Time::new(120));
        let a = g.add_process(Process::new(format!("{name}.a")).wcet(PeId(0), Time::new(wcet)));
        let b = g.add_process(Process::new(format!("{name}.b")).wcet(PeId(1), Time::new(wcet)));
        g.add_message(a, b, Message::new(format!("{name}.m"), 4))
            .unwrap();
        Application::new(name, vec![g])
    }

    /// Regression: committing after a decommission used to break on bus
    /// frames with holes (the removed app's messages left gaps that the
    /// contiguous frame replay could not represent). Frames now compact
    /// on removal, so the freed bus time is reusable.
    #[test]
    fn add_after_decommission_with_messages() {
        let mut sys = System::new(arch2());
        let f = FutureProfile::slide_example();
        let w = Weights::default();
        for i in 0..3 {
            sys.add_application(two_proc_msg(&format!("v{i}"), 10), &f, &w, &Strategy::AdHoc)
                .unwrap();
        }
        sys.decommission(AppId(1)).unwrap();
        // The next commit maps and schedules over the compacted table.
        sys.add_application(two_proc_msg("v3", 10), &f, &w, &Strategy::mh())
            .unwrap();
        let pairs: Vec<_> = sys
            .active()
            .map(|c| (c.id, &c.app, &c.solution.mapping))
            .collect();
        sys.table().validate(sys.arch(), &pairs).unwrap();
    }

    #[test]
    fn freed_capacity_is_reusable_and_ids_stay_stable() {
        let mut sys = System::new(arch2());
        let f = FutureProfile::slide_example();
        let w = Weights::default();
        // Two big apps saturate both PEs.
        sys.add_application(one_proc("v1", 100), &f, &w, &Strategy::AdHoc)
            .unwrap();
        sys.add_application(one_proc("v2", 100), &f, &w, &Strategy::AdHoc)
            .unwrap();
        // A third big one cannot fit...
        assert!(sys
            .clone()
            .add_application(one_proc("v3", 100), &f, &w, &Strategy::AdHoc)
            .is_err());
        // ...until v1 is decommissioned.
        sys.decommission(AppId(0)).unwrap();
        let r = sys
            .add_application(one_proc("v3", 100), &f, &w, &Strategy::AdHoc)
            .unwrap();
        assert_eq!(r.app_id, AppId(2), "retired ids are never reused");
        assert_eq!(sys.active().count(), 2);
    }
}
