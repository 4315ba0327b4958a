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
//! * a persistent [`Scheduler`] reuses its scratch arenas (job records,
//!   successor table, ready queue, per-graph priority cache) across
//!   evaluations. Every raw schedule resets the timelines from the base
//!   and re-places the whole current application; the job arena is
//!   **patched in place** when the candidate differs from the solution
//!   the arena describes by at most [`DELTA_MAX_CHANGED_VARS`] design
//!   variables (the single-move neighbors MH and SA explore), and
//!   re-expanded otherwise;
//! * a run leaves its schedule **live** in the scheduler, and the cost
//!   is read straight from the live timelines: each PE's gap list and
//!   the bus's free windows (collected into one reused scratch vector).
//!   C2 is measured directly on them; C1 ([`incdes_metrics::C1Cache`])
//!   keeps the future items as `(size, count)` runs and packs them into
//!   a histogram of the container lengths. A slack profile and the
//!   placements are copied out only for a design a strategy keeps
//!   (`MappingContext::kept`);
//! * a **last-result memo** holds the cost (or error) of the solution
//!   the engine evaluated last and answers a repeat without
//!   re-scheduling — every strategy re-scores the initial mapping's
//!   result first, and IM's repair loop re-probes its own last
//!   candidate. The memo's last result is always the scheduler's live
//!   state, which is what lets `MappingContext::kept` build the kept
//!   design after a hit as well as after a miss;
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
//! every [`evaluate`](MappingContext::evaluate) call counts, memo hit or
//! not — while [`MappingContext::raw_schedule_count`] reports how many
//! schedules were actually executed.
//! [`MappingContext::with_naive_evaluation`] retains the reference
//! pipeline (one-shot `schedule()` + `SlackProfile::from_table` +
//! `objective::evaluate`, no reuse at all) as the oracle for
//! differential tests.

use crate::solution::Solution;
use incdes_graph::{EdgeId, NodeId};
use incdes_metrics::objective::{self, DesignCost, Weights};
use incdes_metrics::C1Cache;
use incdes_model::{AppId, Application, Architecture, FutureProfile, PeId, ProcRef, Time};
use incdes_obs::counters::{self, Counter};
use incdes_obs::phase::{self, Phase};
use incdes_sched::engine::{check_horizon, ChangedVar, FrozenBase, Scheduler};
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
/// receives. Built by `MappingContext::kept`; cloning is a handful of
/// reference-count bumps.
#[derive(Debug, Clone)]
pub(crate) struct Scored {
    /// The objective-function value.
    pub(crate) cost: DesignCost,
    /// The slack profile of the design's schedule.
    pub(crate) slack: SlackProfile,
    /// The current application's jobs (step order) and messages.
    pub(crate) placements: Placements,
}

/// Canonical identity of a design alternative: the full mapping plus all
/// non-zero hints, in deterministic order. Two solutions with the same
/// key produce byte-identical schedules, so memo hits are exact (the
/// key stores the actual design variables). Also the snapshot of the
/// solution the job arena describes, which the patch hint diffs
/// candidates against.
///
/// Stored flat: every variable is one `(word, value)` pair, with the
/// three sections (mapping entries, process gap hints, message slot
/// hints) back to back at the `split` boundaries. The word packs
/// `graph << 32 | node-or-edge`, which preserves the per-section
/// `(graph, index)` sort order, so the diff is a single-word
/// two-pointer walk and the whole key is one contiguous allocation —
/// one memcmp-shaped compare per probe.
#[derive(Debug, Default, PartialEq, Eq)]
struct MemoKey {
    items: Vec<(u64, u32)>,
    split: [u32; 2],
}

impl Clone for MemoKey {
    fn clone(&self) -> Self {
        MemoKey {
            items: self.items.clone(),
            split: self.split,
        }
    }

    // The arena snapshot is refreshed on every raw schedule; reusing
    // its allocation keeps that free.
    fn clone_from(&mut self, source: &Self) {
        self.items.clone_from(&source.items);
        self.split = source.split;
    }
}

/// Packs a per-graph variable index into one order-preserving word.
/// Graph counts are bounded far below `u32::MAX` by memory alone; the
/// assert documents the losslessness the exact-hit contract relies on.
#[inline]
fn pack_var(graph: usize, index: u32) -> u64 {
    debug_assert!(graph <= u32::MAX as usize);
    ((graph as u64) << 32) | index as u64
}

impl MemoKey {
    /// Refills the key in place from `solution`, reusing the one
    /// vector allocation — the key build runs once per evaluation
    /// (hit or miss), so the engine keeps one scratch key alive
    /// instead of allocating here.
    fn assign(&mut self, solution: &Solution) {
        self.items.clear();
        self.items.extend(
            solution
                .mapping
                .iter()
                .map(|(pr, pe)| (pack_var(pr.graph, pr.node.0), pe.0)),
        );
        self.split[0] = self.items.len() as u32;
        self.items.extend(
            solution
                .hints
                .proc_gaps()
                .map(|(pr, gap)| (pack_var(pr.graph, pr.node.0), gap)),
        );
        self.split[1] = self.items.len() as u32;
        self.items.extend(
            solution
                .hints
                .msg_slots()
                .map(|(mr, slot)| (pack_var(mr.graph, mr.edge.0), slot)),
        );
    }

    fn mapping(&self) -> &[(u64, u32)] {
        &self.items[..self.split[0] as usize]
    }

    fn proc_gaps(&self) -> &[(u64, u32)] {
        &self.items[self.split[0] as usize..self.split[1] as usize]
    }

    fn msg_slots(&self) -> &[(u64, u32)] {
        &self.items[self.split[1] as usize..]
    }
}

/// Largest number of changed design variables (mapping entries + gap
/// hints + slot hints, counted as a symmetric difference) for which the
/// job arena is patched. A remap touches at most two variables (the
/// mapping entry plus its reset gap hint), so 4 covers two design
/// transformations — the distance between consecutive SA/MH trials
/// proposed from one pivot solution (undo the rejected move, apply the
/// next). Larger diffs re-expand the arena.
pub const DELTA_MAX_CHANGED_VARS: usize = 4;

/// Walks the symmetric difference of two sorted key→value slices,
/// invoking `on_diff` for every differing key; gives up (returns
/// `false`) as soon as more than `cap` differences accumulate in
/// `count`. A plain two-pointer walk over contiguous slices.
fn sym_diff<K: Ord + Copy, V: PartialEq>(
    a: &[(K, V)],
    b: &[(K, V)],
    cap: usize,
    count: &mut usize,
    mut on_diff: impl FnMut(K),
) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ka, va) = &a[i];
        let (kb, vb) = &b[j];
        let k = match ka.cmp(kb) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                if va == vb {
                    continue;
                }
                *ka
            }
            std::cmp::Ordering::Less => {
                i += 1;
                *ka
            }
            std::cmp::Ordering::Greater => {
                j += 1;
                *kb
            }
        };
        *count += 1;
        if *count > cap {
            return false;
        }
        on_diff(k);
    }
    for &(k, _) in a[i..].iter().chain(&b[j..]) {
        *count += 1;
        if *count > cap {
            return false;
        }
        on_diff(k);
    }
    true
}

/// Collects the design variables differing between two solution keys
/// into `vars` (sorted, deduplicated, ready for
/// `Scheduler::schedule_hinted`). Returns `false` (leaving `vars`
/// unspecified) when more than `cap` variables differ; the caller then
/// re-expands the arena. Both keys store their variables sorted, so
/// this is a linear slice walk.
fn collect_key_delta(
    prev: &MemoKey,
    cur: &MemoKey,
    cap: usize,
    vars: &mut Vec<ChangedVar>,
) -> bool {
    vars.clear();
    let mut count = 0usize;
    let proc_var = |word: u64| ChangedVar::Proc {
        spec: 0,
        graph: (word >> 32) as usize,
        node: NodeId(word as u32),
    };
    let within_cap = sym_diff(prev.mapping(), cur.mapping(), cap, &mut count, |k| {
        vars.push(proc_var(k))
    }) && sym_diff(prev.proc_gaps(), cur.proc_gaps(), cap, &mut count, |k| {
        vars.push(proc_var(k))
    }) && sym_diff(
        prev.msg_slots(),
        cur.msg_slots(),
        cap,
        &mut count,
        |word: u64| {
            vars.push(ChangedVar::Msg {
                spec: 0,
                graph: (word >> 32) as usize,
                edge: EdgeId(word as u32),
            })
        },
    );
    if !within_cap {
        return false;
    }
    // A remap and its hint reset touch the same process twice; the
    // engine wants each variable once, in expansion order.
    vars.sort_unstable();
    vars.dedup();
    true
}

/// The per-context evaluation engine state: baked frozen base, scheduler
/// scratch, the C1 packer state and the last-result memo.
#[derive(Debug, Default)]
struct EvalEngine {
    /// Lazily built (or injected) frozen base, shared via `Arc` when the
    /// caller reuses one bake across contexts.
    base: Option<Result<Arc<FrozenBase>, SchedError>>,
    scheduler: Scheduler,
    /// The memo: the last evaluation that missed it, with its cost. A
    /// cost here is always the scheduler's live run. Kept apart from
    /// `arena_key`: a miss that fails before scheduling (bad horizon,
    /// failed bake) becomes the memo's last result but leaves the arena
    /// as it was.
    last: Option<(MemoKey, Result<DesignCost, SchedError>)>,
    /// The solution the scheduler's job arena describes: what the patch
    /// hint diffs candidates against.
    arena_key: Option<MemoKey>,
    /// Reused key allocation for the per-evaluation memo probe.
    key_scratch: MemoKey,
    /// C1 item runs and container scratch for the batched packer.
    c1: C1Cache,
    /// Scratch for the collected solution diff (no per-eval allocation).
    vars_scratch: Vec<ChangedVar>,
    /// Scratch for the live bus's free windows, read by every score.
    bus_windows: Vec<(Time, Time)>,
    /// The naive pipeline's last successful design (it keeps no live
    /// schedule), for `MappingContext::kept`.
    naive_kept: Option<Scored>,
}

impl EvalEngine {
    /// The frozen base, baked on first use unless one was injected.
    fn base(&mut self, ctx: &MappingContext<'_>) -> Result<&Arc<FrozenBase>, SchedError> {
        self.base
            .get_or_insert_with(|| FrozenBase::new(ctx.arch, ctx.frozen, ctx.horizon).map(Arc::new))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The memo's answer for `key`, if it is the last miss.
    fn memo_hit(&self, key: &MemoKey) -> Option<&Result<DesignCost, SchedError>> {
        self.last.as_ref().filter(|(k, _)| k == key).map(|(_, r)| r)
    }

    /// Makes `(key, result)` the memo's last result; returns the
    /// displaced key's allocation for reuse.
    fn memo_store(&mut self, key: MemoKey, result: Result<DesignCost, SchedError>) -> MemoKey {
        self.last
            .replace((key, result))
            .map(|(k, _)| k)
            .unwrap_or_default()
    }
}

/// The three evaluation counters, grouped so the engine functions can
/// take one `&mut`.
#[derive(Debug, Default, Clone, Copy)]
struct EngineCounts {
    evaluations: usize,
    raw_schedules: usize,
    memo_hits: usize,
}

/// One memoized engine evaluation (the body of
/// [`MappingContext::score`], over the context's borrowed engine and
/// counters).
fn engine_evaluate(
    ctx: &MappingContext<'_>,
    engine: &mut EvalEngine,
    counts: &mut EngineCounts,
    solution: &Solution,
) -> Result<DesignCost, SchedError> {
    let lookup_scope = phase::scope(Phase::Memo);
    let mut key = std::mem::take(&mut engine.key_scratch);
    key.assign(solution);
    if let Some(hit) = engine.memo_hit(&key) {
        counts.memo_hits += 1;
        counters::bump(Counter::MemoHits);
        let result = hit.clone();
        engine.key_scratch = key;
        return result;
    }
    drop(lookup_scope);
    let result = engine_evaluate_raw(ctx, engine, counts, solution, &key);
    let _store_scope = phase::scope(Phase::Memo);
    counters::bump(Counter::MemoInserts);
    engine.key_scratch = engine.memo_store(key, result.clone());
    result
}

/// One engine evaluation that missed the memo: patch or expand the
/// arena, reset from the base, re-place, and score the live timelines.
fn engine_evaluate_raw(
    ctx: &MappingContext<'_>,
    engine: &mut EvalEngine,
    counts: &mut EngineCounts,
    solution: &Solution,
    key: &MemoKey,
) -> Result<DesignCost, SchedError> {
    let spec = AppSpec::new(ctx.app_id, ctx.app, &solution.mapping, &solution.hints);
    {
        let _expand = phase::scope(Phase::Expand);
        // Validated before the base is consulted so error precedence
        // matches the naive pipeline exactly.
        check_horizon(&[spec], ctx.horizon)?;
    }
    let base = Arc::clone(engine.base(ctx)?);
    let EvalEngine {
        scheduler,
        arena_key,
        c1,
        vars_scratch,
        bus_windows,
        ..
    } = engine;
    counts.raw_schedules += 1;
    let hint = {
        let _expand = phase::scope(Phase::Expand);
        // The arena describes the previous raw schedule's solution,
        // successful or not: the hint is the diff against it.
        let patch = arena_key
            .as_ref()
            .is_some_and(|prev| collect_key_delta(prev, key, DELTA_MAX_CHANGED_VARS, vars_scratch));
        arena_key
            .get_or_insert_with(MemoKey::default)
            .clone_from(key);
        patch.then_some(vars_scratch.as_slice())
    };
    scheduler.run(ctx.arch, &[spec], &base, hint)?;
    let _objective = phase::scope(Phase::Objective);
    scheduler
        .bus_timeline()
        .expect("a run resets the bus")
        .free_windows_into(bus_windows);
    Ok(objective::evaluate_gaps(
        ctx.arch,
        ctx.horizon,
        scheduler.pe_gaps(),
        bus_windows,
        ctx.future,
        ctx.weights,
        Some(c1),
    ))
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
    engine: RefCell<EvalEngine>,
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
    /// `objective::evaluate`, no frozen-base reuse, no memo). The
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
    /// engine path that design is the scheduler's live run whether the
    /// evaluation hit the memo or missed it, so this copies the live
    /// timelines and placements out; the naive path returns the design
    /// it kept. Not an evaluation.
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
        let Some((_, Ok(cost))) = &engine.last else {
            panic!("kept() follows a successful evaluation");
        };
        Scored {
            cost: *cost,
            slack: engine.scheduler.slack_profile(),
            placements: engine.scheduler.placements(),
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
    /// baked base's timelines, an `Arc` bump per layer. The naive
    /// pipeline keeps no base, so it bakes a transient one.
    pub(crate) fn frozen_occupancy(&self) -> Result<(Vec<PeTimeline>, BusTimeline), SchedError> {
        let base = if self.naive {
            Arc::new(FrozenBase::new(self.arch, self.frozen, self.horizon)?)
        } else {
            Arc::clone(self.engine.borrow_mut().base(self)?)
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

    /// The reference pipeline (no base, no scratch, no memo). Keeps the
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
    /// (every [`evaluate`](Self::evaluate) call, memo hit or not — the
    /// historical semantics the paper tables rely on).
    pub fn evaluation_count(&self) -> usize {
        self.counts.get().evaluations
    }

    /// Number of raw schedules actually executed: evaluations that
    /// missed the memo and ran the scheduler. Always ≤
    /// [`evaluation_count`](Self::evaluation_count) on the engine path.
    pub fn raw_schedule_count(&self) -> usize {
        self.counts.get().raw_schedules
    }

    /// Number of evaluations answered from the solution memo.
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
        // Evaluate A, A, B, A: the memo holds the last result only, so
        // exactly the immediate repeat hits and the other three insert,
        // pinned through the deterministic counter registry.
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

    /// `kept()` after a miss and after a memo hit is the design
    /// `evaluate` returns — cost, slack profile and placements (through
    /// their table) — on the engine and the naive path alike.
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
    /// engine whose arena is patched by a one-process remap.
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
        assert_eq!(d.get(Counter::ArenaExpansions), 0, "the remap patches");
        // The refused patch leaves the engine usable.
        assert!(patched.evaluate(&solution([1, 0])).is_ok());
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
