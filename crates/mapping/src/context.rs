//! Evaluation context shared by all mapping strategies.
//!
//! [`MappingContext::evaluate`] is the strategies' inner loop, called
//! thousands of times per scenario. It runs on the incremental
//! evaluation engine of `incdes_sched::engine`:
//!
//! * the frozen schedule is replayed and validated **once** into an
//!   `Arc<FrozenBase>` — built lazily on the first evaluation, or
//!   injected pre-built via
//!   [`MappingContext::with_frozen_base`] so the campaign runner's
//!   per-step contexts share one bake per system state;
//! * one [`Scheduler`], built lazily for the context's application on
//!   that base, runs every evaluation: it diffs the candidate against
//!   the design its job arena holds, **patches** whatever changed (the
//!   single moves MH and SA explore, and any larger jump), resets the
//!   timelines from the base and re-places the whole current
//!   application. A candidate equal to the last evaluated design is
//!   answered from that run's outcome without re-placing — every
//!   strategy re-scores the initial mapping's result first, and SA
//!   re-derives its best at the end;
//! * a run leaves its schedule **live** in the scheduler, and the cost
//!   is read straight from the live timelines: each PE's gap list and
//!   the bus's free windows (collected into one reused scratch vector).
//!   C2 is measured directly on them; C1 ([`incdes_metrics::C1Cache`])
//!   keeps the future items as `(size, count)` runs and packs them into
//!   a histogram of the container lengths. The context keeps the live
//!   run's result (its cost or error), which answers an unchanged
//!   candidate; a slack profile and the placements are copied out only
//!   for a design a strategy keeps (`MappingContext::kept`);
//! * the search is **table-free**: SA and MH apply each trial move to
//!   their current solution in place, score it and undo it
//!   ([`Solution::apply_undoable`]), and compare costs. The canonical
//!   `ScheduleTable` (one sort of the placements merged with the frozen
//!   base's pre-sorted jobs and messages) is built only for a design a
//!   caller receives — the public [`MappingContext::evaluate`] and a
//!   strategy's final result — and never by re-scheduling.
//!
//! Every strategy scores its candidates one at a time on the context's
//! own engine; nothing inside a scenario runs in parallel (campaign
//! workers parallelize across scenarios instead).
//!
//! [`MappingContext::evaluation_count`] keeps its historical meaning —
//! every [`evaluate`](MappingContext::evaluate) call counts, answered
//! without re-placing or not — while
//! [`MappingContext::raw_schedule_count`] reports how many evaluations
//! ran the scheduler on a changed design.
//! [`MappingContext::with_naive_evaluation`] retains the reference
//! pipeline (one-shot `schedule()` + `SlackProfile::from_table` +
//! `objective::evaluate`, no reuse at all) as the oracle for
//! differential tests.

use crate::solution::Solution;
use incdes_metrics::objective::{self, DesignCost, Weights};
use incdes_metrics::C1Cache;
use incdes_model::{AppId, Application, Architecture, FutureProfile, PeId, ProcRef, Time};
use incdes_obs::counters::{self, Counter};
use incdes_obs::phase::{self, Phase};
use incdes_sched::engine::{check_horizon, FrozenBase, Scheduler};
use incdes_sched::{
    schedule, AppSpec, PeTimeline, Placements, SchedError, ScheduleTable, SlackProfile,
};
use incdes_tdma::BusTimeline;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::Arc;

/// How a mapping strategy parallelizes its search within one scenario:
/// always [`Sequential`](SearchParallelism::Sequential), candidates
/// scored one at a time on the context's own engine. Kept only for the
/// callers of [`MappingContext::with_parallelism`], which ignores it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SearchParallelism {
    /// Single-threaded search. The only mode.
    #[default]
    Sequential,
}

/// Error from a mapping strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The application has no processes to map.
    EmptyApplication,
    /// No feasible design alternative was found (requirement *a* cannot be
    /// met on this system within the strategy's search budget).
    Infeasible {
        /// The scheduler error of the last attempt.
        last: SchedError,
    },
    /// The inputs are malformed (bad horizon, disallowed PE in a caller-
    /// provided mapping, ...).
    InvalidInput(SchedError),
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::EmptyApplication => write!(f, "application has no processes"),
            MapError::Infeasible { last } => {
                write!(
                    f,
                    "no feasible mapping found (last scheduler error: {last})"
                )
            }
            MapError::InvalidInput(e) => write!(f, "invalid mapping input: {e}"),
        }
    }
}

impl std::error::Error for MapError {}

/// A fully evaluated design alternative.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The complete schedule (frozen applications + current application).
    pub table: ScheduleTable,
    /// The slack profile of that schedule.
    pub slack: SlackProfile,
    /// The objective-function value.
    pub cost: DesignCost,
}

/// A design alternative a search loop keeps: the cost, the slack
/// profile and the current application's placements — every part of an
/// [`Evaluation`] except the merged table, which
/// [`MappingContext::materialize`] builds for the designs a caller
/// receives. Built by `MappingContext::kept`.
#[derive(Debug, Clone)]
pub(crate) struct Scored {
    /// The objective-function value.
    pub(crate) cost: DesignCost,
    /// The slack profile of the design's schedule.
    pub(crate) slack: SlackProfile,
    /// The current application's jobs (step order) and messages.
    pub(crate) placements: Placements,
}

/// The per-context evaluation engine state: baked frozen base, the
/// scheduler bound to the context's application, the C1 packer state
/// and the live run's result.
#[derive(Debug, Default)]
struct EvalEngine<'a> {
    /// Lazily built (or injected) frozen base, shared via `Arc` when the
    /// caller reuses one bake across contexts.
    base: Option<Result<Arc<FrozenBase>, SchedError>>,
    /// Built on the first evaluation; a failed build (bad horizon,
    /// failed bake) answers every evaluation with its error.
    scheduler: Option<Result<Scheduler<'a>, SchedError>>,
    /// The result of the scheduler's live run — the last evaluation's,
    /// which answers a candidate the scheduler finds unchanged.
    last: Option<Result<DesignCost, SchedError>>,
    /// C1 item runs and container scratch for the batched packer.
    c1: C1Cache,
    /// Scratch for the live bus's free windows, read by every score.
    bus_windows: Vec<(Time, Time)>,
    /// The naive pipeline's last successful design (it keeps no live
    /// schedule), for `MappingContext::kept`.
    naive_kept: Option<Scored>,
}

/// The frozen base in `slot`, baked on first use unless one was
/// injected.
fn frozen_base<'s>(
    slot: &'s mut Option<Result<Arc<FrozenBase>, SchedError>>,
    ctx: &MappingContext<'_>,
) -> Result<&'s Arc<FrozenBase>, SchedError> {
    slot.get_or_insert_with(|| FrozenBase::new(ctx.arch, ctx.frozen, ctx.horizon).map(Arc::new))
        .as_ref()
        .map_err(Clone::clone)
}

/// The three evaluation counters, grouped so the engine functions can
/// take one `&mut`.
#[derive(Debug, Default, Clone, Copy)]
struct EngineCounts {
    evaluations: usize,
    raw_schedules: usize,
    memo_hits: usize,
}

/// One engine evaluation (the body of [`MappingContext::score`], over
/// the context's borrowed engine and counters): run the scheduler on
/// the candidate; if it re-placed, score the live timelines and keep
/// the result, and if it found the candidate unchanged, answer with the
/// kept result.
fn engine_evaluate<'a>(
    ctx: &MappingContext<'a>,
    engine: &mut EvalEngine<'a>,
    counts: &mut EngineCounts,
    solution: &Solution,
) -> Result<DesignCost, SchedError> {
    let EvalEngine {
        base,
        scheduler,
        last,
        c1,
        bus_windows,
        ..
    } = engine;
    let scheduler = match scheduler.get_or_insert_with(|| {
        // The horizon is checked before the base is baked, so error
        // precedence matches the naive pipeline.
        check_horizon([ctx.app], ctx.horizon)?;
        let base = Arc::clone(frozen_base(base, ctx)?);
        Scheduler::new(ctx.arch, base, &[(ctx.app_id, ctx.app)])
    }) {
        Ok(scheduler) => scheduler,
        Err(e) => return Err(e.clone()),
    };
    let run = scheduler.run(&[(&solution.mapping, &solution.hints)]);
    if run.unchanged {
        counts.memo_hits += 1;
        counters::bump(Counter::MemoHits);
        let kept = last
            .clone()
            .expect("an unchanged run repeats a kept result");
        debug_assert_eq!(kept.as_ref().err(), run.result.as_ref().err());
        return kept;
    }
    counts.raw_schedules += 1;
    counters::bump(Counter::MemoInserts);
    let result = run.result.map(|()| {
        let _objective = phase::scope(Phase::Objective);
        scheduler.bus_timeline().free_windows_into(bus_windows);
        objective::evaluate_gaps(
            ctx.arch,
            ctx.horizon,
            scheduler.pe_gaps(),
            bus_windows,
            ctx.future,
            ctx.weights,
            Some(c1),
        )
    });
    *last = Some(result.clone());
    result
}

/// Everything a strategy needs to evaluate design alternatives for one
/// *current application* on one system state.
#[derive(Debug)]
pub struct MappingContext<'a> {
    /// The hardware platform.
    pub arch: &'a Architecture,
    /// Id the current application's jobs will carry.
    pub app_id: AppId,
    /// The current application.
    pub app: &'a Application,
    /// Frozen schedule of the existing applications, already replicated to
    /// `horizon`. `None` for an empty system.
    pub frozen: Option<&'a ScheduleTable>,
    /// The system hyperperiod (LCM of all periods, old and new).
    pub horizon: Time,
    /// Characterization of the future applications.
    pub future: &'a FutureProfile,
    /// Objective-function weights.
    pub weights: &'a Weights,
    counts: Cell<EngineCounts>,
    naive: bool,
    engine: RefCell<EvalEngine<'a>>,
}

impl<'a> MappingContext<'a> {
    /// Creates a context.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        arch: &'a Architecture,
        app_id: AppId,
        app: &'a Application,
        frozen: Option<&'a ScheduleTable>,
        horizon: Time,
        future: &'a FutureProfile,
        weights: &'a Weights,
    ) -> Self {
        MappingContext {
            arch,
            app_id,
            app,
            frozen,
            horizon,
            future,
            weights,
            counts: Cell::new(EngineCounts::default()),
            naive: false,
            engine: RefCell::new(EvalEngine::default()),
        }
    }

    /// Does nothing: the search is always sequential (see
    /// [`SearchParallelism`]).
    #[must_use]
    pub fn with_parallelism(self, _parallelism: SearchParallelism) -> Self {
        self
    }

    /// Switches this context to the naive evaluation pipeline
    /// (`schedule()` + `SlackProfile::from_table` +
    /// `objective::evaluate`, no frozen-base or arena reuse). The
    /// results are identical to the engine path; this exists as the
    /// reference for differential tests and output checks.
    #[must_use]
    pub fn with_naive_evaluation(mut self) -> Self {
        self.naive = true;
        self
    }

    /// Seeds this context with a pre-built frozen base, shared across
    /// contexts via `Arc` — the campaign runner bakes the frozen
    /// schedule once per system state instead of once per step. The
    /// base **must** have been built with this context's architecture,
    /// frozen table and horizon; the horizon is checked eagerly, the
    /// rest is the caller's contract (the result would silently describe
    /// the wrong system otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `base` covers a different horizon than this context.
    #[must_use]
    pub fn with_frozen_base(self, base: Arc<FrozenBase>) -> Self {
        assert_eq!(
            base.horizon(),
            self.horizon,
            "shared frozen base horizon mismatch"
        );
        self.engine.borrow_mut().base = Some(Ok(base));
        self
    }

    /// Schedules and scores one design alternative, and builds its
    /// complete schedule table.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SchedError`]; use
    /// [`SchedError::is_infeasible`] to distinguish "does not fit" from
    /// "malformed input".
    pub fn evaluate(&self, solution: &Solution) -> Result<Evaluation, SchedError> {
        if self.naive {
            self.count_evaluation();
            return self.evaluate_naive(solution);
        }
        self.score(solution)?;
        Ok(self.materialize(self.kept()))
    }

    /// The cost of one design alternative: what the search loops
    /// compare. Counts one evaluation; [`kept`](Self::kept) then builds
    /// the scored design if the caller keeps it.
    pub(crate) fn score(&self, solution: &Solution) -> Result<DesignCost, SchedError> {
        self.count_evaluation();
        self.score_inner(solution)
    }

    /// [`score`](Self::score) without touching
    /// [`evaluation_count`](Self::evaluation_count) — bookkeeping
    /// re-derivations (SA rebuilding its best design at the end) must
    /// not perturb the evaluation counts the paper tables report.
    pub(crate) fn score_snapshot(&self, solution: &Solution) -> Result<DesignCost, SchedError> {
        self.score_inner(solution)
    }

    /// The scored design of the last evaluation — its cost, slack
    /// profile and placements — which must have succeeded. On the
    /// engine path that design is the scheduler's live run, whether the
    /// evaluation re-placed it or found it unchanged, so this copies the
    /// live timelines and placements out; the naive path returns the
    /// design it kept. Not an evaluation.
    ///
    /// # Panics
    ///
    /// Panics if the last evaluation failed, or before the first.
    pub(crate) fn kept(&self) -> Scored {
        let engine = self.engine.borrow();
        if self.naive {
            return engine
                .naive_kept
                .clone()
                .expect("kept() follows a successful evaluation");
        }
        let (Some(Ok(cost)), Some(Ok(scheduler))) = (&engine.last, &engine.scheduler) else {
            panic!("kept() follows a successful evaluation");
        };
        Scored {
            cost: *cost,
            slack: scheduler.slack_profile(),
            placements: scheduler.placements(),
        }
    }

    /// Builds the complete table of a scored design — one sort of its
    /// placements merged with the frozen base's pre-sorted jobs and
    /// messages, no re-scheduling — for a design a caller receives. Not
    /// an evaluation: [`evaluation_count`](Self::evaluation_count) is
    /// untouched.
    pub(crate) fn materialize(&self, scored: Scored) -> Evaluation {
        let table = match &self.engine.borrow().base {
            Some(Ok(base)) => base.materialize(&scored.placements),
            // The naive pipeline keeps no base; its designs merge with
            // the frozen table directly (the base's content).
            _ => match self.frozen {
                Some(frozen) => scored.placements.materialize(frozen),
                None => scored
                    .placements
                    .materialize(&ScheduleTable::empty(self.horizon)),
            },
        };
        Evaluation {
            table,
            slack: scored.slack,
            cost: scored.cost,
        }
    }

    /// The frozen occupancy the initial mapping's probe starts from: the
    /// baked base's timelines. The naive pipeline keeps no base, so it
    /// bakes a transient one.
    pub(crate) fn frozen_occupancy(&self) -> Result<(Vec<PeTimeline>, BusTimeline), SchedError> {
        let base = if self.naive {
            Arc::new(FrozenBase::new(self.arch, self.frozen, self.horizon)?)
        } else {
            Arc::clone(frozen_base(&mut self.engine.borrow_mut().base, self)?)
        };
        Ok((base.pe_timelines(), base.bus_timeline()))
    }

    /// Every process of the current application with the PEs it may
    /// run on: those its WCET table lists that the architecture has, in
    /// table order. The random walks (IM's repair, SA's moves) draw from
    /// this table.
    pub(crate) fn allowed_pes(&self) -> Vec<(ProcRef, Vec<PeId>)> {
        self.app
            .processes()
            .map(|(r, p)| {
                let pes = p
                    .wcets
                    .iter()
                    .map(|(pe, _)| pe)
                    .filter(|pe| pe.index() < self.arch.pe_count())
                    .collect();
                (r, pes)
            })
            .collect()
    }

    fn count_evaluation(&self) {
        let mut counts = self.counts.get();
        counts.evaluations += 1;
        self.counts.set(counts);
    }

    fn score_inner(&self, solution: &Solution) -> Result<DesignCost, SchedError> {
        if self.naive {
            return self.evaluate_naive(solution).map(|e| e.cost);
        }
        let mut engine = self.engine.borrow_mut();
        let mut counts = self.counts.get();
        let result = engine_evaluate(self, &mut engine, &mut counts, solution);
        self.counts.set(counts);
        result
    }

    /// The reference pipeline (no base, no scratch, no reuse). Keeps the
    /// design of a successful run for [`kept`](Self::kept).
    fn evaluate_naive(&self, solution: &Solution) -> Result<Evaluation, SchedError> {
        let mut counts = self.counts.get();
        counts.raw_schedules += 1;
        self.counts.set(counts);
        let spec = AppSpec::new(self.app_id, self.app, &solution.mapping, &solution.hints);
        let result = schedule(self.arch, &[spec], self.frozen, self.horizon).map(|table| {
            let slack = SlackProfile::from_table(self.arch, &table);
            let cost = objective::evaluate(self.arch, &slack, self.future, self.weights);
            Evaluation { table, slack, cost }
        });
        self.engine.borrow_mut().naive_kept = result.as_ref().ok().map(|e| Scored {
            cost: e.cost,
            slack: e.slack.clone(),
            placements: Placements::of_app(&e.table, self.app_id),
        });
        result
    }

    /// Number of schedule evaluations performed through this context
    /// (every [`evaluate`](Self::evaluate) call, answered without
    /// re-placing or not — the historical semantics the paper tables
    /// rely on).
    pub fn evaluation_count(&self) -> usize {
        self.counts.get().evaluations
    }

    /// Number of raw schedules: evaluations the scheduler did not answer
    /// from its last run, so it synced its arena and (unless that
    /// failed) re-placed. Always ≤
    /// [`evaluation_count`](Self::evaluation_count) on the engine path.
    pub fn raw_schedule_count(&self) -> usize {
        self.counts.get().raw_schedules
    }

    /// Number of evaluations answered without re-placing: the candidate
    /// equalled the last evaluated design, or that design failed and the
    /// candidate changed only jobs ranked after its failure (see
    /// [`Scheduler::run`]).
    pub fn memo_hit_count(&self) -> usize {
        self.counts.get().memo_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn one_proc_app() -> Application {
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(120));
        g.add_process(Process::new("a").wcet(PeId(0), Time::new(8)));
        Application::new("app", vec![g])
    }

    #[test]
    fn evaluate_counts_and_scores() {
        let arch = arch2();
        let app = one_proc_app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let sol = Solution::from_mapping(mapping);
        assert_eq!(ctx.evaluation_count(), 0);
        let eval = ctx.evaluate(&sol).unwrap();
        assert_eq!(ctx.evaluation_count(), 1);
        assert!(eval.cost.is_feasible());
        assert_eq!(eval.table.jobs().len(), 1);
    }

    #[test]
    fn observability_counters_pin_the_memo() {
        // Evaluate A, A, B, A: only a repeat of the last evaluated design
        // is answered without re-placing, so exactly the immediate repeat
        // hits and the other three run the scheduler, pinned through the
        // deterministic counter registry.
        let arch = arch2();
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(120));
        g.add_process(
            Process::new("a")
                .wcet(PeId(0), Time::new(8))
                .wcet(PeId(1), Time::new(6)),
        );
        let app = Application::new("app", vec![g]);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        let mut map_a = Mapping::new();
        map_a.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let sol_a = Solution::from_mapping(map_a);
        let mut map_b = Mapping::new();
        map_b.assign(ProcRef::new(0, NodeId(0)), PeId(1));
        let sol_b = Solution::from_mapping(map_b);

        let before = counters::snapshot();
        let first = ctx.evaluate(&sol_a).unwrap();
        let repeat = ctx.evaluate(&sol_a).unwrap();
        ctx.evaluate(&sol_b).unwrap();
        let revisit = ctx.evaluate(&sol_a).unwrap();
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(d.get(Counter::MemoHits), 1, "only the repeat hits");
        assert_eq!(d.get(Counter::MemoInserts), 3);
        // The registry agrees with the context's own diagnostics.
        assert_eq!(ctx.memo_hit_count() as u64, d.get(Counter::MemoHits));
        assert_eq!(ctx.raw_schedule_count(), 3);
        assert_eq!(ctx.evaluation_count(), 4);
        assert_eq!(repeat.cost, first.cost);
        assert_eq!(revisit.table, first.table);
    }

    /// Two processes that may run on either PE, the second also listing
    /// a WCET on PE 5, which `arch2` does not have.
    fn two_proc_app() -> Application {
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(120));
        let a = g.add_process(
            Process::new("a")
                .wcet(PeId(0), Time::new(8))
                .wcet(PeId(1), Time::new(6)),
        );
        let b = g.add_process(
            Process::new("b")
                .wcet(PeId(0), Time::new(5))
                .wcet(PeId(1), Time::new(9))
                .wcet(PeId(5), Time::new(4)),
        );
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        Application::new("app", vec![g])
    }

    fn solution(pes: [u32; 2]) -> Solution {
        let mut sol = Solution::new();
        sol.mapping.assign(ProcRef::new(0, NodeId(0)), PeId(pes[0]));
        sol.mapping.assign(ProcRef::new(0, NodeId(1)), PeId(pes[1]));
        sol
    }

    /// `kept()` after a re-placing evaluation and after one answered
    /// without re-placing is the design `evaluate` returns — cost, slack
    /// profile and placements (through their table) — on the engine and
    /// the naive path alike.
    #[test]
    fn kept_matches_evaluate_after_miss_and_hit() {
        let arch = arch2();
        let app = two_proc_app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let new_ctx = || {
            MappingContext::new(
                &arch,
                AppId(0),
                &app,
                None,
                Time::new(120),
                &future,
                &weights,
            )
        };
        let (a, b) = (solution([0, 1]), solution([1, 0]));
        let reference = |sol: &Solution| new_ctx().with_naive_evaluation().evaluate(sol).unwrap();
        for naive in [false, true] {
            let ctx = if naive {
                new_ctx().with_naive_evaluation()
            } else {
                new_ctx()
            };
            for (sol, repeat) in [(&a, false), (&b, false), (&b, true), (&a, false)] {
                let before = ctx.memo_hit_count();
                let cost = ctx.score(sol).unwrap();
                if !naive {
                    assert_eq!(ctx.memo_hit_count() - before, usize::from(repeat));
                }
                let kept = ctx.kept();
                let expected = reference(sol);
                assert_eq!(cost, expected.cost);
                assert_eq!(kept.cost, expected.cost);
                assert_eq!(kept.slack, expected.slack);
                assert_eq!(ctx.materialize(kept).table, expected.table);
                assert_eq!(ctx.evaluate(sol).unwrap().table, expected.table);
            }
        }
    }

    #[test]
    #[should_panic(expected = "kept() follows a successful evaluation")]
    fn kept_refuses_a_failed_evaluation() {
        let arch = arch2();
        let app = two_proc_app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        ctx.score(&solution([0, 1])).unwrap();
        ctx.score(&solution([0, 5])).unwrap_err();
        ctx.kept();
    }

    /// A mapping onto a PE the application lists a WCET for but the
    /// architecture lacks is refused, not scheduled past the timelines:
    /// on the naive path, on a fresh engine (arena expansion) and on an
    /// engine whose patch of a one-process remap finds it.
    #[test]
    fn mapping_outside_the_architecture_is_not_allowed() {
        let arch = arch2();
        let app = two_proc_app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let new_ctx = || {
            MappingContext::new(
                &arch,
                AppId(0),
                &app,
                None,
                Time::new(120),
                &future,
                &weights,
            )
        };
        let outside = solution([0, 5]);
        let expected = SchedError::NotAllowed {
            app: AppId(0),
            proc_ref: ProcRef::new(0, NodeId(1)),
            pe: PeId(5),
        };
        let naive = new_ctx().with_naive_evaluation();
        assert_eq!(naive.evaluate(&outside).unwrap_err(), expected);
        assert_eq!(new_ctx().evaluate(&outside).unwrap_err(), expected);

        let patched = new_ctx();
        patched.evaluate(&solution([0, 1])).unwrap();
        let before = counters::snapshot();
        assert_eq!(patched.evaluate(&outside).unwrap_err(), expected);
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(d.get(Counter::ArenaExpansions), 0, "the patch refuses it");
        // The refused patch leaves the engine usable: the next run
        // expands.
        let before = counters::snapshot();
        assert!(patched.evaluate(&solution([1, 0])).is_ok());
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(d.get(Counter::ArenaExpansions), 1);
    }

    /// A horizon off the application's periods is checked before the
    /// frozen table is baked, as the naive pipeline does, and a scheduler
    /// that cannot be built answers every evaluation with that error.
    #[test]
    fn unbuildable_scheduler_answers_every_evaluation() {
        let arch = arch2();
        let app = one_proc_app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        // A frozen table over another horizon fails the bake.
        let frozen = ScheduleTable::empty(Time::new(60));
        let new_ctx = || {
            MappingContext::new(
                &arch,
                AppId(0),
                &app,
                Some(&frozen),
                Time::new(100),
                &future,
                &weights,
            )
        };
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let sol = Solution::from_mapping(mapping);
        let expected = SchedError::BadHorizon {
            horizon: Time::new(100),
        };
        assert_eq!(
            new_ctx()
                .with_naive_evaluation()
                .evaluate(&sol)
                .unwrap_err(),
            expected
        );
        let ctx = new_ctx();
        for _ in 0..2 {
            assert_eq!(ctx.evaluate(&sol).unwrap_err(), expected);
        }
        assert_eq!(ctx.raw_schedule_count(), 0);
        assert_eq!(ctx.evaluation_count(), 2);
    }

    #[test]
    fn evaluate_surfaces_infeasibility() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(4));
        g.add_process(Process::new("a").wcet(PeId(0), Time::new(8)));
        let app = Application::new("app", vec![g]);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let err = ctx.evaluate(&Solution::from_mapping(mapping)).unwrap_err();
        assert!(err.is_infeasible());
    }
}
