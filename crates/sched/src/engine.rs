//! The incremental evaluation engine.
//!
//! The mapping heuristics evaluate thousands of design alternatives per
//! scenario, and every alternative shares the same *frozen* part: the
//! existing applications' jobs and messages, which requirement (a) of
//! the paper forbids touching. The plain [`crate::schedule`] entry point
//! re-replays and re-validates that frozen schedule — and lays out a
//! fresh job arena — on every call.
//!
//! This module splits the work in two:
//!
//! * [`FrozenBase`] replays and validates the frozen schedule **once**,
//!   baking the frozen-only per-PE free gaps and a [`BusTimeline`]
//!   occupancy snapshot.
//! * [`Scheduler`] is bound to one architecture, one base and one set of
//!   current applications. It lays out its job arena once (job records,
//!   a flat successor table, the pop order, a per-graph priority cache)
//!   and is the one owner of what changed between runs: each run hands
//!   it only the design variables, and it answers in three steps:
//!   1. **sync** the arena with the design: one pass in key order over
//!      the mapping, the non-zero gap hints and the non-zero slot hints,
//!      compared with the arena's own records (each process's PE, the
//!      non-zero hints it holds), **patches** whatever differs and
//!      refreshes the priorities of remapped graphs, moving each job
//!      whose priority moved to its new place in the pop order. The
//!      first run, and the first after a run whose sync failed,
//!      **expands** the arena instead: every record is written from the
//!      design and the pop order is sorted afresh;
//!   2. **reset** the timelines from the base: a copy of each PE's
//!      frozen gap list and of the bus's per-occurrence fill;
//!   3. **re-place** the whole current application with the list
//!      scheduler.
//!
//!   A design equal to the last list-scheduled run's is answered with
//!   that run's outcome after step 1, without re-placing.
//!
//! A failed run needs no rollback: the next run resets from the base.
//! Debug builds re-expand every patched arena from scratch and assert
//! that the two agree, pop order included.
//!
//! The list-scheduling loop touches no application data. Each graph's
//! out-edges are laid out once into a flat successor table of
//! `(target node, edge, transmission time, slot hint)` records, and
//! each job record stores its instance's first arena index and its
//! node's slice of that table: a successor is one add away, and a
//! message's duration and slot hint are one load.
//!
//! Jobs are placed in the order a binary heap of released jobs would
//! pop them: urgency (`deadline − partial critical path`, saturating at
//! 0) first, then the longer critical path, the earlier ready time and
//! the smaller arena index. No heap is needed, because a job's *rank*
//! (urgency, then priority descending) is strictly smaller than each of
//! its successors'. Its partial critical path exceeds a successor's by
//! at least its own WCET, which is positive, and both share the
//! instance deadline, so either its urgency is smaller or the two
//! urgencies saturate at 0 and its priority is larger. So the scheduler
//! keeps every arena job sorted by (rank, arena index) across runs, and
//! a run walks that order: when it reaches a group of equal rank, every
//! predecessor of every member has been placed, so the members' ready
//! times are final and one sort of the group by (ready time, arena
//! index) finishes the heap's order. A patch that moves a graph's
//! priorities moves only the jobs whose priority changed, by binary
//! search.
//!
//! [`Scheduler::run`] leaves its result live in the scheduler: the
//! timelines and the placements (jobs in step order, messages in
//! emission order) stay as the run left them until the next run that
//! re-places. A search scores a design straight from the live gaps
//! ([`Scheduler::pe_gaps`], [`Scheduler::bus_timeline`]) and copies out
//! a [`SlackProfile`] ([`Scheduler::slack_profile`]) and [`Placements`]
//! ([`Scheduler::placements`]) only for a design it keeps. The
//! canonical [`ScheduleTable`] ([`Scheduler::table`],
//! [`FrozenBase::materialize`]) is one sort of the placements merged
//! with the frozen table's canonical sequences.

use crate::job::JobId;
use crate::list::SchedError;
use crate::mapping::{Hints, Mapping, MsgRef};
use crate::pe_timeline::PeTimeline;
use crate::priority::PriorityCosts;
use crate::slack::SlackProfile;
use crate::table::{frame_replay_order, ScheduleTable, ScheduledJob, ScheduledMessage};
use incdes_graph::{algo, EdgeId, NodeId};
use incdes_model::{AppId, Application, Architecture, PeId, ProcRef, Time};
use incdes_obs::counters::{self, Counter};
use incdes_obs::phase::{self, Phase};
use incdes_tdma::BusTimeline;
use std::cmp::Reverse;
use std::sync::Arc;

/// Checks that `horizon` is positive and a multiple of every graph
/// period of `apps` — the application half of [`crate::schedule`]'s
/// input validation (the bus-cycle half is checked once by
/// [`FrozenBase`]).
///
/// # Errors
///
/// [`SchedError::BadHorizon`] on violation.
pub fn check_horizon<'x>(
    apps: impl IntoIterator<Item = &'x Application>,
    horizon: Time,
) -> Result<(), SchedError> {
    if horizon.is_zero() {
        return Err(SchedError::BadHorizon { horizon });
    }
    for app in apps {
        for g in &app.graphs {
            if g.period.is_zero() || !(horizon % g.period).is_zero() {
                return Err(SchedError::BadHorizon { horizon });
            }
        }
    }
    Ok(())
}

/// The frozen schedule replayed, validated and baked — built once per
/// system state, shared by every evaluation on that state (and, via
/// [`Arc`], across the campaign runner's per-step contexts).
#[derive(Debug, Clone)]
pub struct FrozenBase {
    horizon: Time,
    /// Bus occupancy holding exactly the frozen messages.
    bus: BusTimeline,
    /// The frozen table itself (an empty one without frozen
    /// applications): its canonical job and message sequences are the
    /// pre-sorted half of every [`materialize`](Self::materialize)
    /// merge. Shared with the caller's table, not copied.
    frozen: ScheduleTable,
    /// Per-PE timelines holding exactly the frozen jobs: the state every
    /// run's timelines are reset to.
    pes: Vec<PeTimeline>,
}

impl FrozenBase {
    /// Replays `frozen` (if any) over `[0, horizon)` on `arch` and bakes
    /// the result. Equivalent to the validation + replay prologue of
    /// [`crate::schedule`], performed once.
    ///
    /// # Errors
    ///
    /// [`SchedError::BadHorizon`] if `horizon` is zero or not a multiple
    /// of the bus cycle; [`SchedError::FrozenConflict`] if the frozen
    /// table does not cover exactly `horizon` or cannot be replayed.
    pub fn new(
        arch: &Architecture,
        frozen: Option<&ScheduleTable>,
        horizon: Time,
    ) -> Result<Self, SchedError> {
        if horizon.is_zero() {
            return Err(SchedError::BadHorizon { horizon });
        }
        let _bake = phase::scope(Phase::Bake);
        let mut bus = BusTimeline::new(arch.bus(), horizon)
            .map_err(|_| SchedError::BadHorizon { horizon })?;
        let mut pes: Vec<PeTimeline> = (0..arch.pe_count())
            .map(|_| PeTimeline::new(horizon))
            .collect();
        if let Some(fr) = frozen {
            if fr.horizon() != horizon {
                return Err(SchedError::FrozenConflict);
            }
            // Table order is `(pe, start)`, so each reservation trims
            // its PE's last gap and never shifts the gap list.
            for j in fr.jobs() {
                if j.pe.index() >= pes.len() {
                    return Err(SchedError::FrozenConflict);
                }
                pes[j.pe.index()]
                    .reserve(j.start, j.end)
                    .map_err(|_| SchedError::FrozenConflict)?;
            }
            // Replay messages in frame order so packing offsets reproduce.
            for i in frame_replay_order(fr.messages()) {
                let m = &fr.messages()[i];
                let r = bus
                    .reserve_in_occurrence(
                        m.reservation.owner,
                        m.reservation.occurrence,
                        m.reservation.duration(),
                    )
                    .map_err(|_| SchedError::FrozenConflict)?;
                if r.transmit_start != m.reservation.transmit_start {
                    return Err(SchedError::FrozenConflict);
                }
            }
        }
        counters::bump(Counter::BaseBakes);
        Ok(FrozenBase {
            horizon,
            bus,
            frozen: frozen
                .cloned()
                .unwrap_or_else(|| ScheduleTable::empty(horizon)),
            pes,
        })
    }

    /// An empty base (no frozen applications) over `horizon`.
    ///
    /// # Errors
    ///
    /// As [`FrozenBase::new`].
    pub fn empty(arch: &Architecture, horizon: Time) -> Result<Self, SchedError> {
        FrozenBase::new(arch, None, horizon)
    }

    /// The scheduling horizon the base covers.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Number of PEs in the baked timelines.
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// Number of frozen jobs baked into the base.
    pub fn frozen_job_count(&self) -> usize {
        self.frozen.jobs().len()
    }

    /// Number of frozen messages baked into the base.
    pub fn frozen_message_count(&self) -> usize {
        self.frozen.messages().len()
    }

    /// The per-PE timelines holding exactly the frozen jobs — equal to
    /// [`ScheduleTable::pe_timelines`] of the frozen table, but copied
    /// from the bake instead of replayed.
    pub fn pe_timelines(&self) -> Vec<PeTimeline> {
        self.pes.clone()
    }

    /// The bus occupancy holding exactly the frozen messages — equal to
    /// [`ScheduleTable::bus_timeline`] of the frozen table, without the
    /// frame replay (shared slot geometry plus a copy of the occupancy).
    pub fn bus_timeline(&self) -> BusTimeline {
        self.bus.clone()
    }

    /// The canonical table of the frozen schedule plus `placements`:
    /// see [`Placements::materialize`].
    pub fn materialize(&self, placements: &Placements) -> ScheduleTable {
        placements.materialize(&self.frozen)
    }

    /// Frozen-only idle intervals of `pe`, in time order.
    pub fn gaps_of(&self, pe: PeId) -> &[(Time, Time)] {
        self.pes[pe.index()].gaps()
    }
}

/// The current applications' placements of one run: every job in step
/// (pop) order and every message in emission order, copied out of the
/// scheduler for a design the search keeps; the canonical
/// [`ScheduleTable`] is built from it only on demand
/// ([`materialize`](Self::materialize)).
#[derive(Debug, Clone)]
pub struct Placements {
    jobs: Vec<ScheduledJob>,
    msgs: Vec<ScheduledMessage>,
}

impl Placements {
    /// The jobs and messages of `app` in `table`, in table order.
    pub fn of_app(table: &ScheduleTable, app: AppId) -> Self {
        Placements {
            jobs: table
                .jobs()
                .iter()
                .filter(|j| j.job.app == app)
                .copied()
                .collect(),
            msgs: table
                .messages()
                .iter()
                .filter(|m| m.app == app)
                .copied()
                .collect(),
        }
    }

    /// The placed jobs, in step order.
    pub fn jobs(&self) -> &[ScheduledJob] {
        &self.jobs
    }

    /// The placed messages, in emission order.
    pub fn messages(&self) -> &[ScheduledMessage] {
        &self.msgs
    }

    /// The canonical table of `frozen` plus these placements: one sort
    /// of the placements, then one linear merge with `frozen`'s
    /// already-canonical jobs and messages. Equal to what
    /// [`crate::schedule`] returns for the same design.
    pub fn materialize(&self, frozen: &ScheduleTable) -> ScheduleTable {
        materialize(&self.jobs, &self.msgs, frozen)
    }
}

/// The canonical table of `frozen` plus the placed `jobs` and `msgs`
/// (in any order): see [`Placements::materialize`].
fn materialize(
    jobs: &[ScheduledJob],
    msgs: &[ScheduledMessage],
    frozen: &ScheduleTable,
) -> ScheduleTable {
    let mut jobs = jobs.to_vec();
    jobs.sort_by_key(crate::table::job_sort_key);
    let mut msgs = msgs.to_vec();
    msgs.sort_by_key(crate::table::message_sort_key);
    ScheduleTable::from_sorted_merge(
        frozen.horizon(),
        frozen.jobs(),
        &jobs,
        frozen.messages(),
        &msgs,
    )
}

/// The answer of one [`Scheduler::run`].
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// The run's outcome: the list scheduler's, or the error that
    /// stopped the arena sync ([`SchedError::MappingIncomplete`],
    /// [`SchedError::NotAllowed`]).
    pub result: Result<(), SchedError>,
    /// True when nothing was re-placed: `result` is the last
    /// list-scheduled run's outcome and the live state is still that
    /// run's. The design either equals that run's, or that run failed
    /// and the design differs from it only in jobs ranked after the one
    /// it failed at (see [`Scheduler::run`]).
    pub unchanged: bool,
}

/// Internal per-job scheduling state (one expanded process instance).
///
/// Deliberately *static* per run: the one field the scheduling loop
/// rewrites on every step (`ready`) lives in a dense parallel array on
/// [`Scheduler`] instead, so the hot successor updates touch a packed
/// array rather than striding through this fat record — and the loop can
/// hold the arena immutably while mutating the per-run state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JobRec {
    id: JobId,
    pe: PeId,
    wcet: Time,
    release: Time,
    deadline: Time,
    priority: Time,
    gap_hint: u32,
    /// Arena index of this instance's first job: a successor's index is
    /// this plus its node index.
    inst_base: u32,
    /// This node's out-edges: `succs[succ_lo..succ_hi]`.
    succ_lo: u32,
    succ_hi: u32,
}

/// One out-edge of a graph node in the successor table, shared by every
/// instance of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SuccRec {
    /// The message's bus transmission time.
    tx: Time,
    /// The target node's index inside its instance.
    target: u32,
    /// The message's slot hint (feasible slot occurrences to skip).
    slot: u32,
    edge: EdgeId,
}

/// A job's rank in the pop order: urgency (`deadline − priority`,
/// saturating at 0; smaller is more urgent, so tight-deadline instances
/// are not crowded out by lax ones sharing the hyperperiod), then the
/// longer critical path. The arena index breaks ties between ranks; the
/// ready time breaks them first, inside a run (see the module docs).
type Rank = (Time, Reverse<Time>);

/// Job `j`'s [`Rank`].
fn rank(j: &JobRec) -> Rank {
    (j.deadline.saturating_sub(j.priority), Reverse(j.priority))
}

/// Lowers `lowest` to `r`: the running minimum of the ranks a sync
/// touches.
fn touch(lowest: &mut Option<Rank>, r: Rank) {
    if lowest.is_none_or(|l| r < l) {
        *lowest = Some(r);
    }
}

/// Job `i`'s key in the pop order: its rank, then its arena index.
fn pop_key(jobs: &[JobRec], i: u32) -> (Rank, u32) {
    (rank(&jobs[i as usize]), i)
}

/// Sets job `i`'s priority to `priority` and moves it to its new place
/// in `order` (every arena job sorted by [`pop_key`]): a binary search
/// for the old place and one for the new, then one rotation of the jobs
/// between them.
fn rekey(order: &mut [u32], jobs: &mut [JobRec], i: u32, priority: Time) {
    let old = pop_key(jobs, i);
    let at = order.partition_point(|&k| pop_key(jobs, k) < old);
    debug_assert_eq!(order[at], i, "the pop order holds every job at its key");
    jobs[i as usize].priority = priority;
    let new = pop_key(jobs, i);
    if new > old {
        let to = at + order[at + 1..].partition_point(|&k| pop_key(jobs, k) < new);
        order[at..=to].rotate_left(1);
    } else {
        let to = order[..at].partition_point(|&k| pop_key(jobs, k) < new);
        order[to..=at].rotate_right(1);
    }
}

/// One graph's place in the arena, with its cached partial-critical-path
/// priorities and the cost inputs ([`PriorityCosts`]) they were computed
/// from: a remap whose costs come out unchanged (a PE with the same
/// WCET, no change in which edges cross PEs) keeps them without a
/// recompute.
struct GraphSlot {
    /// Arena index of the graph's first job (instance 0, node 0); job
    /// `(k, n)` sits `k × nodes + n` after it.
    first_job: usize,
    /// Instances of the graph over the horizon.
    instances: usize,
    /// The graph's first entry in `Scheduler::edge_succs`.
    first_edge: usize,
    /// The graph's topological order, computed once: every priority
    /// refresh walks it backwards.
    topo: Vec<NodeId>,
    costs: PriorityCosts,
    prio: Vec<Time>,
}

/// The scheduling engine, bound to one architecture, one frozen base and
/// one set of current applications for its lifetime: the job arena, the
/// successor table, the pop order and the timelines are laid out for
/// them once and reused by every run.
///
/// A run hands it only the design variables, one `(mapping, hints)`
/// pair per application; the scheduler finds what changed since the
/// last run itself (see the module docs).
pub struct Scheduler<'a> {
    arch: &'a Architecture,
    base: Arc<FrozenBase>,
    apps: Vec<(AppId, &'a Application)>,
    jobs: Vec<JobRec>,
    /// Every graph's out-edges, node by node; each [`JobRec`] names its
    /// node's slice.
    succs: Vec<SuccRec>,
    /// Every graph's edges in id order, as indices into `succs`: the
    /// edge-indexed view the slot-hint sync walks.
    edge_succs: Vec<u32>,
    /// One slot per graph, applications in order.
    graphs: Vec<GraphSlot>,
    /// Per application, the non-zero hints the arena holds.
    held: Vec<HeldHints>,
    /// Every arena index, sorted by [`pop_key`]: the order runs walk.
    /// Sorted by an expansion, kept sorted by each patch.
    order: Vec<u32>,
    /// A run's scratch for one group of equal rank, sorted by ready time.
    group: Vec<u32>,
    /// Dynamic per-job state, parallel to `jobs`: the earliest time the
    /// job's input data is available in the current run. Structure-of-
    /// arrays on purpose — see [`JobRec`].
    ready: Vec<Time>,
    /// Per-job release times, parallel to `jobs`: every run resets
    /// `ready` from them with one flat copy.
    releases: Vec<Time>,
    pes: Vec<PeTimeline>,
    bus: BusTimeline,
    assign_scratch: Vec<Option<PeId>>,
    cost_scratch: PriorityCosts,
    prio_scratch: Vec<Time>,
    /// The last run's jobs in step order.
    placed: Vec<ScheduledJob>,
    /// The last run's messages in emission order.
    msgs: Vec<ScheduledMessage>,
    /// The outcome of the last list-scheduled run, kept while the arena
    /// describes that run's design or one that repeats its outcome:
    /// `None` before the first run and after a run whose sync failed,
    /// which makes the next run expand.
    outcome: Option<Result<(), SchedError>>,
    /// The rank of the job the last list-scheduled run failed at; `None`
    /// when it succeeded.
    failed_rank: Option<Rank>,
    raw_schedules: usize,
}

impl std::fmt::Debug for Scheduler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("apps", &self.apps.len())
            .field("jobs", &self.jobs.len())
            .field("raw_schedules", &self.raw_schedules)
            .finish_non_exhaustive()
    }
}

impl<'a> Scheduler<'a> {
    /// A scheduler for `apps` on top of `base`, which must have been
    /// baked for `arch`. Lays out the job arena: every job's identity,
    /// release and deadline, and every graph's successor table. The
    /// design-dependent fields are written by the first run.
    ///
    /// # Errors
    ///
    /// [`SchedError::BadHorizon`] if the base's horizon is not a
    /// multiple of every graph period of `apps`.
    pub fn new(
        arch: &'a Architecture,
        base: Arc<FrozenBase>,
        apps: &[(AppId, &'a Application)],
    ) -> Result<Self, SchedError> {
        let horizon = base.horizon;
        check_horizon(apps.iter().map(|&(_, app)| app), horizon)?;
        debug_assert_eq!(arch.pe_count(), base.pe_count(), "base built for this arch");
        let mut jobs = Vec::new();
        let mut succs = Vec::new();
        let mut edge_succs = Vec::new();
        let mut graphs = Vec::new();
        let mut releases = Vec::new();
        for &(id, app) in apps {
            for (gi, g) in app.graphs.iter().enumerate() {
                let dag = g.dag();
                let first_edge = edge_succs.len();
                let instances = horizon.ticks() / g.period.ticks();
                graphs.push(GraphSlot {
                    first_job: jobs.len(),
                    instances: instances as usize,
                    first_edge,
                    topo: algo::topological_order(dag)
                        .expect("process graphs are validated acyclic"),
                    costs: PriorityCosts::default(),
                    prio: Vec::new(),
                });
                // The graph's successor table, shared by its instances.
                let succ_base =
                    u32::try_from(succs.len()).expect("successor table indices fit in u32");
                edge_succs.resize(first_edge + dag.edge_count(), 0);
                for n in dag.node_ids() {
                    for &e in dag.out_edges(n) {
                        edge_succs[first_edge + e.index()] = succs.len() as u32;
                        succs.push(SuccRec {
                            tx: arch.bus().transmission_time(g.message(e).bytes),
                            target: dag.target(e).index() as u32,
                            slot: 0,
                            edge: e,
                        });
                    }
                }
                for k in 0..instances as u32 {
                    let release = Time::new(k as u64 * g.period.ticks());
                    let deadline = release + g.deadline;
                    let inst_base =
                        u32::try_from(jobs.len()).expect("job arena indices fit in u32");
                    let mut succ_lo = succ_base;
                    for n in dag.node_ids() {
                        let succ_hi = succ_lo + dag.out_degree(n) as u32;
                        jobs.push(JobRec {
                            id: JobId::new(id, gi, k, n),
                            pe: PeId(0),
                            wcet: Time::ZERO,
                            release,
                            deadline,
                            priority: Time::ZERO,
                            gap_hint: 0,
                            inst_base,
                            succ_lo,
                            succ_hi,
                        });
                        releases.push(release);
                        succ_lo = succ_hi;
                    }
                }
            }
        }
        Ok(Scheduler {
            arch,
            apps: apps.to_vec(),
            pes: base.pe_timelines(),
            bus: base.bus_timeline(),
            base,
            jobs,
            succs,
            edge_succs,
            graphs,
            held: apps.iter().map(|_| HeldHints::default()).collect(),
            order: Vec::new(),
            group: Vec::new(),
            ready: Vec::new(),
            releases,
            assign_scratch: Vec::new(),
            cost_scratch: PriorityCosts::default(),
            prio_scratch: Vec::new(),
            placed: Vec::new(),
            msgs: Vec::new(),
            outcome: None,
            failed_rank: None,
            raw_schedules: 0,
        })
    }

    /// Number of runs that list-scheduled a design (an unchanged design
    /// and a failed sync re-place nothing).
    pub fn raw_schedule_count(&self) -> usize {
        self.raw_schedules
    }

    /// Schedules the design `designs` — one `(mapping, hints)` pair per
    /// application, in the order the scheduler was built with — on top
    /// of the base: sync the arena, reset the timelines and list-schedule
    /// every job. The result stays live until the next run that
    /// re-places: read it through [`pe_gaps`](Self::pe_gaps),
    /// [`bus_timeline`](Self::bus_timeline),
    /// [`placements`](Self::placements),
    /// [`slack_profile`](Self::slack_profile) and
    /// [`table`](Self::table). A failed run leaves a partial schedule
    /// there, which the next run resets.
    ///
    /// Two kinds of run re-place nothing and are answered with a clone
    /// of the last list-scheduled run's outcome and [`Run::unchanged`]
    /// set:
    ///
    /// * a design equal to that run's;
    /// * a repeated failure: that run failed at a job of rank r, and the
    ///   sync touched only jobs ranked after r. A run places jobs in rank
    ///   order, so every step up to and including the failing one would
    ///   repeat. "Touched" covers remapped jobs and their predecessors
    ///   (which decide whether to send them a message), jobs re-keyed in
    ///   the pop order at their old and new rank, jobs whose gap hint
    ///   changed, and the senders of messages whose slot hint changed.
    ///   The arena is still patched (and counted as patched); debug
    ///   builds re-run the list scheduler and assert the same error and
    ///   partial placements.
    ///
    /// A run whose sync fails (an unmapped process, a PE the process may
    /// not run on) returns that error and leaves the arena to be
    /// expanded by the next run.
    ///
    /// # Panics
    ///
    /// Panics unless `designs` holds one pair per application.
    pub fn run(&mut self, designs: &[(&Mapping, &Hints)]) -> Run {
        assert_eq!(designs.len(), self.apps.len(), "one design per application");
        {
            let _expand = phase::scope(Phase::Expand);
            let last = self.outcome.take();
            match (self.sync(designs, last.is_none()), last) {
                (Err(e), _) => {
                    return Run {
                        result: Err(e),
                        unchanged: false,
                    }
                }
                (Ok(None), Some(last)) => return self.repeat(last),
                (Ok(_), None) => counters::bump(Counter::ArenaExpansions),
                (Ok(Some(lowest)), Some(last)) => {
                    counters::bump(Counter::ArenaPatched);
                    #[cfg(debug_assertions)]
                    self.debug_verify_patch(designs);
                    if self.failed_rank.is_some_and(|failed| lowest > failed) {
                        #[cfg(debug_assertions)]
                        self.debug_verify_repeat(&last);
                        return self.repeat(last);
                    }
                }
            }
        }
        self.raw_schedules += 1;
        let result = self.replace();
        self.outcome = Some(result.clone());
        Run {
            result,
            unchanged: false,
        }
    }

    /// Answers a run with the last list-scheduled run's outcome, keeping
    /// it for the next run.
    fn repeat(&mut self, last: Result<(), SchedError>) -> Run {
        self.outcome = Some(last.clone());
        Run {
            result: last,
            unchanged: true,
        }
    }

    /// Each PE's live free gaps, in PE order: the last run's slack,
    /// uncopied.
    pub fn pe_gaps(&self) -> impl ExactSizeIterator<Item = &[(Time, Time)]> + Clone {
        self.pes.iter().map(PeTimeline::gaps)
    }

    /// The live bus occupancy.
    pub fn bus_timeline(&self) -> &BusTimeline {
        &self.bus
    }

    /// The current applications' placements of the last run, copied
    /// out of the live state.
    pub fn placements(&self) -> Placements {
        Placements {
            jobs: self.placed.clone(),
            msgs: self.msgs.clone(),
        }
    }

    /// The canonical table of the base plus the last run's placements.
    pub fn table(&self) -> ScheduleTable {
        materialize(&self.placed, &self.msgs, &self.base.frozen)
    }

    /// The slack of the last run, copied out of the live timelines:
    /// every PE's gap list and the bus fill's free windows.
    pub fn slack_profile(&self) -> SlackProfile {
        let _slack = phase::scope(Phase::Slack);
        counters::add(Counter::SlackGapsMaterialized, self.pes.len() as u64);
        SlackProfile::new(
            self.bus.horizon(),
            self.pes.iter().map(PeTimeline::gaps),
            self.bus.free_windows(),
        )
    }

    /// Step 1 of a run: brings the arena in line with `designs`. Per
    /// application, one pass in key order walks the mapping beside each
    /// process's record (instance 0): a process whose PE differs has
    /// every instance remapped, and a graph with a remapped process
    /// refreshes its priorities, moving each job whose priority changed
    /// to its new place in the pop order. Then the non-zero gap and slot
    /// hints are walked beside the ones the arena holds: a process whose gap
    /// hint differs has every instance rewritten, a message whose slot
    /// hint differs has its successor record rewritten (found through
    /// the edge-indexed view of the successor table). No lookup runs
    /// per process or edge. Entries for processes or messages the
    /// applications do not have are skipped, as a full expansion
    /// ignores them.
    ///
    /// With `full`, every process and graph counts as changed and every
    /// hint as unset: the arena is rebuilt from the design alone,
    /// whatever it held, and the pop order sorted afresh (an expansion).
    /// Returns `None` when nothing changed, and otherwise the lowest rank
    /// of a job the changes touched (see [`run`](Self::run)); for an
    /// expansion that rank is not meaningful.
    ///
    /// # Errors
    ///
    /// [`SchedError::MappingIncomplete`] or [`SchedError::NotAllowed`]
    /// for the first offending process in expansion order (unchanged
    /// processes were valid when last written). The arena is then left
    /// part-synced; the caller expands on the next run.
    fn sync(
        &mut self,
        designs: &[(&Mapping, &Hints)],
        full: bool,
    ) -> Result<Option<Rank>, SchedError> {
        let Scheduler {
            arch,
            apps,
            jobs,
            succs,
            edge_succs,
            graphs,
            held,
            order,
            assign_scratch,
            cost_scratch,
            prio_scratch,
            ..
        } = self;
        if full {
            for s in succs.iter_mut() {
                s.slot = 0;
            }
        }
        let mut lowest = None;
        let mut first_graph = 0;
        for ((&(id, app), &(mapping, hints)), held) in apps.iter().zip(designs).zip(held) {
            let app_graphs = first_graph..first_graph + app.graphs.len();
            first_graph = app_graphs.end;
            let mut entries = mapping.iter();
            let mut entry = entries.next();
            for ((gi, g), slot) in app
                .graphs
                .iter()
                .enumerate()
                .zip(&mut graphs[app_graphs.clone()])
            {
                let nodes = g.process_count();
                let mut remapped = full;
                for n in 0..nodes {
                    let node = NodeId(n as u32);
                    let pr = ProcRef::new(gi, node);
                    while entry.is_some_and(|(k, _)| k < pr) {
                        entry = entries.next();
                    }
                    let pe = match entry {
                        Some((k, pe)) if k == pr => {
                            entry = entries.next();
                            Some(pe)
                        }
                        _ => None,
                    };
                    if !full && pe == Some(jobs[slot.first_job + n].pe) {
                        continue;
                    }
                    let pe = pe.ok_or(SchedError::MappingIncomplete {
                        app: id,
                        proc_ref: pr,
                    })?;
                    let wcet = allowed_wcet(arch, g, node, pe).ok_or(SchedError::NotAllowed {
                        app: id,
                        proc_ref: pr,
                        pe,
                    })?;
                    // Instance 0 holds each node's lowest rank. The
                    // predecessors decide whether to send this job a
                    // message.
                    remapped = true;
                    touch(&mut lowest, rank(&jobs[slot.first_job + n]));
                    for &e in g.dag().in_edges(node) {
                        let p = g.dag().source(e).index();
                        touch(&mut lowest, rank(&jobs[slot.first_job + p]));
                    }
                    for k in 0..slot.instances {
                        let j = &mut jobs[slot.first_job + k * nodes + n];
                        j.pe = pe;
                        j.wcet = wcet;
                        if full {
                            j.gap_hint = 0;
                        }
                    }
                }
                // Priorities are a pure function of the graph's mapping
                // (node WCETs on the assigned PEs, edge same-PE-ness), so
                // a hint change cannot move them. Every successful sync
                // leaves a graph's jobs holding `slot.prio`, so a patch
                // rewrites, and re-keys in the pop order, only the jobs
                // whose node's priority changed; an expansion rewrites
                // them all and sorts the order below.
                if remapped {
                    assign_scratch.clear();
                    assign_scratch
                        .extend(jobs[slot.first_job..][..nodes].iter().map(|j| Some(j.pe)));
                    cost_scratch.fill(arch, g, assign_scratch);
                    if slot.costs != *cost_scratch {
                        let _refresh = phase::scope(Phase::PriorityRefresh);
                        cost_scratch.priorities_into(g, &slot.topo, prio_scratch);
                        std::mem::swap(&mut slot.costs, cost_scratch);
                        if !full {
                            for (n, (&old, &new)) in
                                slot.prio.iter().zip(&*prio_scratch).enumerate()
                            {
                                if old != new {
                                    touch(&mut lowest, rank(&jobs[slot.first_job + n]));
                                    for k in 0..slot.instances {
                                        let i = (slot.first_job + k * nodes + n) as u32;
                                        rekey(order, jobs, i, new);
                                    }
                                    touch(&mut lowest, rank(&jobs[slot.first_job + n]));
                                }
                            }
                        }
                        std::mem::swap(&mut slot.prio, prio_scratch);
                    }
                    if full {
                        let graph_jobs = &mut jobs[slot.first_job..][..slot.instances * nodes];
                        for (j, &p) in graph_jobs.iter_mut().zip(slot.prio.iter().cycle()) {
                            j.priority = p;
                        }
                    }
                }
            }

            if full {
                held.gaps.clear();
                held.slots.clear();
            }
            let app_graphs = &graphs[app_graphs];
            diff_hints(&mut held.gaps, hints.proc_gaps(), |pr, hint| {
                let (Some(g), Some(slot)) = (app.graphs.get(pr.graph), app_graphs.get(pr.graph))
                else {
                    return;
                };
                let (n, nodes) = (pr.node.index(), g.process_count());
                if n < nodes {
                    for k in 0..slot.instances {
                        jobs[slot.first_job + k * nodes + n].gap_hint = hint;
                    }
                    touch(&mut lowest, rank(&jobs[slot.first_job + n]));
                }
            });
            diff_hints(&mut held.slots, hints.msg_slots(), |mr, hint| {
                let (Some(g), Some(slot)) = (app.graphs.get(mr.graph), app_graphs.get(mr.graph))
                else {
                    return;
                };
                if mr.edge.index() < g.dag().edge_count() {
                    succs[edge_succs[slot.first_edge + mr.edge.index()] as usize].slot = hint;
                    let source = g.dag().source(mr.edge).index();
                    touch(&mut lowest, rank(&jobs[slot.first_job + source]));
                }
            });
        }
        if full {
            let mut keyed: Vec<_> = (0..jobs.len() as u32).map(|i| pop_key(jobs, i)).collect();
            keyed.sort_unstable();
            order.clear();
            order.extend(keyed.into_iter().map(|(_, i)| i));
        }
        Ok(lowest)
    }

    /// Debug-build oracle for a patching [`sync`](Self::sync):
    /// snapshots the patched arena, re-expands it from the same design
    /// and asserts equality, the re-keyed pop order against a fresh
    /// sort included. The re-expansion leaves every field equal to what
    /// the patch left and marks nothing for a re-sort, so the next patch
    /// re-keys this order as a release build would. The differential
    /// fuzz suite drives this on every patched run.
    #[cfg(debug_assertions)]
    fn debug_verify_patch(&mut self, designs: &[(&Mapping, &Hints)]) {
        let jobs = self.jobs.clone();
        let succs = self.succs.clone();
        let order = self.order.clone();
        self.sync(designs, true)
            .expect("a design that patches cleanly expands cleanly");
        assert_eq!(
            self.order, order,
            "re-keyed pop order diverged from a fresh sort"
        );
        for (j, s) in self.jobs.iter().zip(&jobs) {
            assert_eq!(
                j, s,
                "patched arena diverged from a full expansion for {:?}",
                j.id
            );
        }
        assert_eq!(
            self.succs, succs,
            "patched successor table diverged from a full expansion"
        );
    }

    /// Debug-build oracle for a repeated failure answered without
    /// re-placing: re-runs the list scheduler on the patched arena and
    /// asserts that it fails at the same rank with the same error and
    /// the same partial placements, which it leaves live as they were.
    /// The re-run's work counters are taken back out. The differential
    /// fuzz suite drives this on every such answer.
    #[cfg(debug_assertions)]
    fn debug_verify_repeat(&mut self, last: &Result<(), SchedError>) {
        let counts = counters::snapshot();
        let failed = self.failed_rank;
        let (placed, msgs) = (self.placed.clone(), self.msgs.clone());
        let rerun = self.place();
        counters::reset_to(&counts);
        assert_eq!(&rerun, last, "a repeated failure re-placed differently");
        assert_eq!(self.failed_rank, failed, "a repeated failure moved");
        assert!(
            self.placed == placed && self.msgs == msgs,
            "a repeated failure placed differently before failing"
        );
    }

    /// Steps 2 and 3 of a run, timed as `replace`: see
    /// [`place`](Self::place).
    fn replace(&mut self) -> Result<(), SchedError> {
        let _replace = phase::scope(Phase::RePlace);
        self.place()
    }

    /// Resets the timelines from the base and list-schedules every job
    /// of the synced arena, noting the rank a failure stopped at.
    fn place(&mut self) -> Result<(), SchedError> {
        let Scheduler {
            base,
            jobs,
            succs,
            order,
            group,
            ready,
            releases,
            pes,
            bus,
            placed,
            msgs,
            ..
        } = self;
        // Copy each PE's frozen timeline and the bus fill into the
        // scratch allocations.
        for (tl, frozen) in pes.iter_mut().zip(&base.pes) {
            tl.reset_from(frozen);
        }
        bus.reset_from(&base.bus);
        placed.clear();
        msgs.clear();
        ready.clone_from(releases);
        let result = schedule_loop(jobs, succs, order, group, ready, pes, bus, placed, msgs);
        self.failed_rank = result
            .as_ref()
            .err()
            .map(|&(i, _)| rank(&self.jobs[i as usize]));
        result.map_err(|(_, e)| e)
    }
}

/// The non-zero hints an arena holds for one application, in key order:
/// what the next sync diffs the design's hints against.
#[derive(Default)]
struct HeldHints {
    gaps: Vec<(ProcRef, u32)>,
    slots: Vec<(MsgRef, u32)>,
}

/// Walks the non-zero hints `held` and `design` (both sorted by key)
/// together, calling `on_change(key, value)` for every key whose value
/// differs (0 when the design no longer sets it), and leaves `held`
/// equal to `design`.
fn diff_hints<K: Ord + Copy>(
    held: &mut Vec<(K, u32)>,
    design: impl Iterator<Item = (K, u32)> + Clone,
    mut on_change: impl FnMut(K, u32),
) {
    let mut old = held.iter().copied();
    let mut next_old = old.next();
    for (key, hint) in design.clone() {
        while let Some((gone, _)) = next_old.filter(|&(k, _)| k < key) {
            on_change(gone, 0);
            next_old = old.next();
        }
        match next_old {
            Some((k, h)) if k == key => {
                next_old = old.next();
                if h != hint {
                    on_change(key, hint);
                }
            }
            _ => on_change(key, hint),
        }
    }
    for (gone, _) in next_old.into_iter().chain(old) {
        on_change(gone, 0);
    }
    held.clear();
    held.extend(design);
}

/// The WCET of process `n` of `g` on `pe`, if the process may run
/// there: its WCET table lists `pe`, `pe` is in the architecture and the
/// WCET is positive. Applications may list WCETs for PEs beyond the
/// architecture (the validator ignores them), so a mapping onto one is
/// refused here, not left to index past the timelines. The validator
/// rejects a zero WCET; refusing it here too keeps every job's rank
/// strictly below its successors' for any input, which the pop order
/// relies on (see the module docs).
fn allowed_wcet(
    arch: &Architecture,
    g: &incdes_model::ProcessGraph,
    n: incdes_graph::NodeId,
    pe: PeId,
) -> Option<Time> {
    g.process(n)
        .wcets
        .get(pe)
        .filter(|w| !w.is_zero() && pe.index() < arch.pe_count())
}

/// The list-scheduling loop: walks `order` group by group of equal
/// rank, sorts each group by (ready time, arena index) in the `group`
/// scratch when it reaches it, and places its jobs ([`place_job`]). The
/// caller has reset the timelines and `ready`. A failure names the arena
/// index of the job it stopped at and leaves a partial run in the
/// timelines; the next run resets them from the base.
#[allow(clippy::too_many_arguments)]
fn schedule_loop(
    jobs: &[JobRec],
    succs: &[SuccRec],
    order: &[u32],
    group: &mut Vec<u32>,
    ready: &mut [Time],
    pes: &mut [PeTimeline],
    bus: &mut BusTimeline,
    placed: &mut Vec<ScheduledJob>,
    msgs: &mut Vec<ScheduledMessage>,
) -> Result<(), (u32, SchedError)> {
    // Debug builds count each job's unplaced predecessors, to assert that
    // the walk reaches no job before all of them are placed.
    #[cfg(debug_assertions)]
    let mut pending = {
        let mut pending = vec![0u32; jobs.len()];
        for j in jobs {
            for s in &succs[j.succ_lo as usize..j.succ_hi as usize] {
                pending[(j.inst_base + s.target) as usize] += 1;
            }
        }
        pending
    };
    let mut rest = order;
    while let Some(&first) = rest.first() {
        let r = rank(&jobs[first as usize]);
        let len = 1 + rest[1..]
            .iter()
            .take_while(|&&i| rank(&jobs[i as usize]) == r)
            .count();
        let (members, tail) = rest.split_at(len);
        rest = tail;
        let members = if len == 1 {
            members
        } else {
            group.clear();
            group.extend_from_slice(members);
            group.sort_unstable_by_key(|&i| (ready[i as usize], i));
            &group[..]
        };
        for &i in members {
            counters::bump(Counter::HeapPops);
            #[cfg(debug_assertions)]
            {
                assert_eq!(
                    pending[i as usize], 0,
                    "job {i} reached before its predecessors"
                );
                let j = &jobs[i as usize];
                for s in &succs[j.succ_lo as usize..j.succ_hi as usize] {
                    pending[(j.inst_base + s.target) as usize] -= 1;
                }
            }
            place_job(jobs, succs, i, ready, pes, bus, placed, msgs).map_err(|e| (i, e))?;
        }
    }
    debug_assert_eq!(placed.len(), jobs.len(), "acyclic graphs schedule fully");
    Ok(())
}

/// Places job `i`: reserves its processor time, sends a message to each
/// successor on another PE, raises each successor's ready time and
/// appends the placed job and messages.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn place_job(
    jobs: &[JobRec],
    succs: &[SuccRec],
    i: u32,
    ready: &mut [Time],
    pes: &mut [PeTimeline],
    bus: &mut BusTimeline,
    placed: &mut Vec<ScheduledJob>,
    msgs: &mut Vec<ScheduledMessage>,
) -> Result<(), SchedError> {
    let idx = i as usize;
    let j = &jobs[idx];
    let (id, pe) = (j.id, j.pe);
    let start = pes[pe.index()]
        .reserve_earliest(ready[idx], j.wcet, j.gap_hint)
        .map_err(|source| SchedError::NoGap { job: id, source })?;
    let end = start + j.wcet;
    if end > j.deadline {
        return Err(SchedError::DeadlineMiss {
            job: id,
            end,
            deadline: j.deadline,
        });
    }

    // Propagate to successors: messages over the bus where needed.
    for s in &succs[j.succ_lo as usize..j.succ_hi as usize] {
        let succ_idx = (j.inst_base + s.target) as usize;
        let data_ready = if jobs[succ_idx].pe == pe {
            end
        } else {
            let msg = MsgRef::new(id.graph, s.edge);
            let r = bus
                .schedule_message_nth(pe, end, s.tx, s.slot as usize)
                .map_err(|source| SchedError::NoSlot {
                    job: id,
                    msg,
                    source,
                })?;
            msgs.push(ScheduledMessage {
                app: id.app,
                msg,
                instance: id.instance,
                reservation: r,
            });
            r.arrival
        };
        ready[succ_idx] = ready[succ_idx].max(data_ready);
    }
    placed.push(ScheduledJob {
        job: id,
        pe,
        start,
        end,
        release: j.release,
        deadline: j.deadline,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_model::{AppId, Application, BusConfig, Message, Process, ProcessGraph};

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

    /// Two processes that may run on either PE, joined by one message.
    fn movable_app() -> Application {
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(8)).wcet(PeId(1), t(5)));
        let b = g.add_process(Process::new("b").wcet(PeId(0), t(6)).wcet(PeId(1), t(6)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        Application::new("app", vec![g])
    }

    fn mapping_of(pes: [u32; 2]) -> Mapping {
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(pes[0]));
        mapping.assign(ProcRef::new(0, NodeId(1)), PeId(pes[1]));
        mapping
    }

    fn bound<'a>(arch: &'a Architecture, app: &'a Application, horizon: u64) -> Scheduler<'a> {
        let base = Arc::new(FrozenBase::empty(arch, t(horizon)).unwrap());
        Scheduler::new(arch, base, &[(AppId(0), app)]).unwrap()
    }

    /// Reruns of one design match the one-shot path; only the first
    /// re-places, the others answer from its outcome.
    #[test]
    fn engine_matches_schedule_and_reuses_scratch() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = crate::AppSpec::new(AppId(0), &app, &mapping, &hints);
        let reference = crate::schedule(&arch, &[spec], None, t(100)).unwrap();

        let mut engine = bound(&arch, &app, 100);
        for i in 0..3 {
            let run = engine.run(&[(&mapping, &hints)]);
            assert_eq!(run.result, Ok(()));
            assert_eq!(run.unchanged, i > 0);
            assert_eq!(engine.table(), reference);
            assert_eq!(
                engine.slack_profile(),
                SlackProfile::from_table(&arch, &reference)
            );
        }
        assert_eq!(engine.raw_schedule_count(), 1);
    }

    /// A chain of single remaps: every run after the first patches the
    /// arena, and every result equals the one-shot oracle.
    #[test]
    fn delta_path_tracks_single_moves() {
        let arch = arch2();
        let app = movable_app();
        let hints = Hints::empty();
        let mut engine = bound(&arch, &app, 100);

        let assignments = [[0, 1], [0, 0], [1, 0], [1, 1], [0, 1]];
        let (mut expansions, mut patches) = (0, 0);
        for assignment in assignments {
            let mapping = mapping_of(assignment);
            let before = counters::snapshot();
            engine.run(&[(&mapping, &hints)]).result.unwrap();
            let d = counters::snapshot().delta_since(&before);
            expansions += d.get(Counter::ArenaExpansions);
            patches += d.get(Counter::ArenaPatched);
            let spec = crate::AppSpec::new(AppId(0), &app, &mapping, &hints);
            let reference = crate::schedule(&arch, &[spec], None, t(100)).unwrap();
            let base = FrozenBase::empty(&arch, t(100)).unwrap();
            assert_eq!(
                base.materialize(&engine.placements()),
                reference,
                "assignment {assignment:?}"
            );
            assert_eq!(
                engine.slack_profile(),
                SlackProfile::from_table(&arch, &reference),
                "assignment {assignment:?}"
            );
        }
        assert_eq!(engine.raw_schedule_count(), assignments.len());
        assert_eq!(expansions, 1);
        assert_eq!(patches, assignments.len() as u64 - 1);
    }

    /// A chain of message slot-hint changes: every run after the first
    /// patches the successor table, and every result equals the one-shot
    /// oracle.
    #[test]
    fn delta_path_tracks_slot_hint_moves() {
        let arch = arch2();
        let app = movable_app();
        let mapping = mapping_of([0, 1]);
        let mut engine = bound(&arch, &app, 100);
        let msg = MsgRef::new(0, EdgeId(0));

        let slots = [0, 2, 1, 3, 0, 1];
        let mut patches = 0;
        let mut starts = Vec::new();
        for slot in slots {
            let mut hints = Hints::empty();
            hints.set_msg_slot(msg, slot);
            let before = counters::snapshot();
            engine.run(&[(&mapping, &hints)]).result.unwrap();
            patches += counters::snapshot()
                .delta_since(&before)
                .get(Counter::ArenaPatched);
            let spec = crate::AppSpec::new(AppId(0), &app, &mapping, &hints);
            let reference = crate::schedule(&arch, &[spec], None, t(100)).unwrap();
            assert_eq!(engine.table(), reference, "slot hint {slot}");
            assert_eq!(
                engine.slack_profile(),
                SlackProfile::from_table(&arch, &reference),
                "slot hint {slot}"
            );
            starts.push(engine.placements().messages()[0].reservation.transmit_start);
        }
        assert_eq!(patches, slots.len() as u64 - 1);
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), 4, "every slot hint moves the message");
    }

    /// A→B→A pinned through the deterministic `obs` counter registry:
    /// one expansion, two patches, every job placed on every run, no
    /// bake.
    #[test]
    fn observability_counters_pin_the_revisit_chain() {
        let arch = arch2();
        let app = movable_app();
        let hints = Hints::empty();
        let (map_a, map_b) = (mapping_of([0, 1]), mapping_of([1, 1]));
        let spec_a = crate::AppSpec::new(AppId(0), &app, &map_a, &hints);
        let ref_a = crate::schedule(&arch, &[spec_a], None, t(100)).unwrap();

        let mut engine = bound(&arch, &app, 100);
        let before = counters::snapshot();
        engine.run(&[(&map_a, &hints)]).result.unwrap();
        let first = engine.table();
        engine.run(&[(&map_b, &hints)]).result.unwrap();
        engine.run(&[(&map_a, &hints)]).result.unwrap();
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(first, ref_a);
        assert_eq!(engine.table(), ref_a);
        assert_eq!(d.get(Counter::ArenaExpansions), 1);
        assert_eq!(d.get(Counter::ArenaPatched), 2);
        assert_eq!(d.get(Counter::HeapPops), 6, "two jobs per run");
        // The base was baked before the snapshot, so the chain itself
        // bakes nothing.
        assert_eq!(d.get(Counter::BaseBakes), 0);
    }

    #[test]
    fn delta_chain_survives_infeasible_moves() {
        let arch = arch2();
        // Two processes; remapping `a` to PE1 overflows the horizon, so
        // that single-move run fails mid-loop. The next run resets from
        // the base and patches the arena back.
        let mut g = ProcessGraph::new("g", t(100), t(100));
        g.add_process(Process::new("a").wcet(PeId(0), t(8)).wcet(PeId(1), t(150)));
        g.add_process(Process::new("b").wcet(PeId(0), t(6)).wcet(PeId(1), t(6)));
        let app = Application::new("app", vec![g]);
        let hints = Hints::empty();
        let mut engine = bound(&arch, &app, 100);
        let (good, bad) = (mapping_of([0, 1]), mapping_of([1, 1]));

        engine.run(&[(&good, &hints)]).result.unwrap();
        let err = engine.run(&[(&bad, &hints)]).result.unwrap_err();
        let bad_spec = crate::AppSpec::new(AppId(0), &app, &bad, &hints);
        assert_eq!(
            err,
            crate::schedule(&arch, &[bad_spec], None, t(100)).unwrap_err()
        );
        let before = counters::snapshot();
        engine.run(&[(&good, &hints)]).result.unwrap();
        assert_eq!(
            counters::snapshot()
                .delta_since(&before)
                .get(Counter::ArenaPatched),
            1,
            "the arena survives a failed run"
        );
        let good_spec = crate::AppSpec::new(AppId(0), &app, &good, &hints);
        let reference = crate::schedule(&arch, &[good_spec], None, t(100)).unwrap();
        assert_eq!(engine.table(), reference);
        assert_eq!(
            engine.slack_profile(),
            SlackProfile::from_table(&arch, &reference)
        );
    }

    /// A rerun of an infeasible design returns the same error without
    /// re-placing; the live state stays that run's partial schedule.
    #[test]
    fn unchanged_infeasible_design_is_answered_without_replacing() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(100), t(100));
        g.add_process(Process::new("a").wcet(PeId(0), t(150)));
        let app = Application::new("app", vec![g]);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let hints = Hints::empty();
        let mut engine = bound(&arch, &app, 100);

        let first = engine.run(&[(&mapping, &hints)]);
        assert!(first.result.as_ref().unwrap_err().is_infeasible());
        let before = counters::snapshot();
        let rerun = engine.run(&[(&mapping, &hints)]);
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(rerun.result, first.result);
        assert!(rerun.unchanged);
        assert_eq!(d.get(Counter::HeapPops), 0);
        assert_eq!(d.get(Counter::ArenaPatched), 0);
        assert_eq!(engine.raw_schedule_count(), 1);
    }

    /// Runs `mapping`/`hints` on `engine` and checks it against the
    /// one-shot oracle; returns the run and its `heap_pops`.
    fn run_checked(
        engine: &mut Scheduler<'_>,
        arch: &Architecture,
        app: &Application,
        mapping: &Mapping,
        hints: &Hints,
    ) -> (Run, u64) {
        let before = counters::snapshot();
        let run = engine.run(&[(mapping, hints)]);
        let pops = counters::snapshot()
            .delta_since(&before)
            .get(Counter::HeapPops);
        let spec = crate::AppSpec::new(AppId(0), app, mapping, hints);
        match crate::schedule(arch, &[spec], None, t(100)) {
            Ok(reference) => {
                assert_eq!(run.result, Ok(()));
                assert_eq!(engine.table(), reference);
            }
            Err(e) => assert_eq!(run.result, Err(e)),
        }
        (run, pops)
    }

    /// After a run that failed at a job of rank r, a move that touches
    /// only jobs ranked after r (a remap, a gap hint) is answered with
    /// that run's error without placing a job, the arena still patched;
    /// a move of the failing job itself re-places.
    #[test]
    fn repeated_failure_is_answered_without_replacing() {
        let arch = arch2();
        // `a` never fits the horizon; `b` is independent and ranks after
        // it (urgency 94 against 0).
        let mut g = ProcessGraph::new("g", t(100), t(100));
        g.add_process(
            Process::new("a")
                .wcet(PeId(0), t(150))
                .wcet(PeId(1), t(150)),
        );
        g.add_process(Process::new("b").wcet(PeId(0), t(6)).wcet(PeId(1), t(6)));
        let app = Application::new("app", vec![g]);
        let mut engine = bound(&arch, &app, 100);
        let mut hints = Hints::empty();

        let (first, pops) = run_checked(&mut engine, &arch, &app, &mapping_of([0, 0]), &hints);
        assert!(first.result.is_err() && !first.unchanged && pops == 1);

        let before = counters::snapshot();
        let (run, pops) = run_checked(&mut engine, &arch, &app, &mapping_of([0, 1]), &hints);
        assert!(run.unchanged, "a remap ranked after the failure");
        assert_eq!((run.result, pops), (first.result.clone(), 0));
        assert_eq!(
            counters::snapshot()
                .delta_since(&before)
                .get(Counter::ArenaPatched),
            1
        );
        hints.set_proc_gap(ProcRef::new(0, NodeId(1)), 2);
        let (run, pops) = run_checked(&mut engine, &arch, &app, &mapping_of([0, 1]), &hints);
        assert!(
            run.unchanged && pops == 0,
            "a gap hint ranked after the failure"
        );
        assert_eq!(engine.raw_schedule_count(), 1);

        let (run, pops) = run_checked(&mut engine, &arch, &app, &mapping_of([1, 1]), &hints);
        assert!(!run.unchanged && pops == 1, "a remap of the failing job");
        assert!(run.result.is_err());
        assert_eq!(engine.raw_schedule_count(), 2);
    }

    /// A move is ranked at the lowest rank it touches: a remap of a job
    /// ranked after the failure re-places when that job's predecessor is
    /// ranked before it (the predecessor's messages depend on the move),
    /// and so does a slot hint on a message that predecessor sends.
    #[test]
    fn moves_touching_a_job_ranked_before_the_failure_replace() {
        let arch = arch2();
        // x → y, x → z, and an independent f whose gap hint skips every
        // gap. Ranks (urgency): x 61, y 80, f 96, z 98, so the run fails
        // at f, after placing x and y.
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let both = |name: &str, w: u64| Process::new(name).wcet(PeId(0), t(w)).wcet(PeId(1), t(w));
        let x = g.add_process(both("x", 5));
        let y = g.add_process(both("y", 20));
        let z = g.add_process(both("z", 2));
        let f = g.add_process(both("f", 4));
        g.add_message(x, y, Message::new("xy", 4)).unwrap();
        g.add_message(x, z, Message::new("xz", 4)).unwrap();
        let app = Application::new("app", vec![g]);
        let assign = |pes: [u32; 4]| -> Mapping {
            [x, y, z, f]
                .iter()
                .zip(pes)
                .map(|(&n, pe)| (ProcRef::new(0, n), PeId(pe)))
                .collect()
        };
        let mut hints = Hints::empty();
        hints.set_proc_gap(ProcRef::new(0, f), 9);
        let mut engine = bound(&arch, &app, 100);

        let (first, pops) = run_checked(&mut engine, &arch, &app, &assign([0, 1, 1, 0]), &hints);
        assert!(matches!(first.result, Err(SchedError::NoGap { job, .. }) if job.node == f));
        assert_eq!(pops, 3, "x, y, then f");

        // z ranks after f, but x sends it a message: moving z onto x's PE
        // drops that message. x's priority runs through y, so it is not
        // re-keyed; the predecessor rule alone re-places.
        let (run, pops) = run_checked(&mut engine, &arch, &app, &assign([0, 1, 0, 0]), &hints);
        assert!(!run.unchanged && pops == 3);
        hints.set_msg_slot(MsgRef::new(0, EdgeId(0)), 1);
        let (run, pops) = run_checked(&mut engine, &arch, &app, &assign([0, 1, 0, 0]), &hints);
        assert!(!run.unchanged && pops == 3, "a slot hint on x's message");
        assert_eq!(engine.raw_schedule_count(), 3);
    }

    /// A run whose sync fails leaves the arena to be expanded: the next
    /// run expands even when its design equals the last list-scheduled
    /// one, and an expansion clears the hints the arena held. Every
    /// outcome matches the one-shot path.
    #[test]
    fn failed_sync_expands_the_next_run() {
        let arch = arch2();
        let app = movable_app();
        let mut engine = bound(&arch, &app, 100);
        let good = mapping_of([0, 1]);
        let mut unmapped = good.clone();
        unmapped.unassign(ProcRef::new(0, NodeId(1)));
        let outside = mapping_of([0, 5]);
        let plain = Hints::empty();
        let mut hinted = Hints::empty();
        hinted.set_proc_gap(ProcRef::new(0, NodeId(0)), 1);
        hinted.set_msg_slot(MsgRef::new(0, EdgeId(0)), 1);
        let one_shot = |mapping: &Mapping, hints: &Hints| {
            let spec = crate::AppSpec::new(AppId(0), &app, mapping, hints);
            crate::schedule(&arch, &[spec], None, t(100))
        };

        for bad in [&unmapped, &outside] {
            for hints in [&hinted, &plain] {
                let run = engine.run(&[(bad, hints)]);
                assert_eq!(run.result, Err(one_shot(bad, hints).unwrap_err()));
                assert!(!run.unchanged);
                let before = counters::snapshot();
                let run = engine.run(&[(&good, hints)]);
                let d = counters::snapshot().delta_since(&before);
                assert!(!run.unchanged, "a failed sync forgets the last outcome");
                assert_eq!(d.get(Counter::ArenaExpansions), 1);
                assert_eq!(d.get(Counter::ArenaPatched), 0);
                match one_shot(&good, hints) {
                    Ok(reference) => {
                        assert_eq!(run.result, Ok(()));
                        assert_eq!(engine.table(), reference);
                    }
                    Err(e) => assert_eq!(run.result, Err(e)),
                }
            }
        }
        assert_eq!(engine.raw_schedule_count(), 4);
    }

    /// A zero WCET, which the validator rejects, is refused by the sync
    /// as a PE the process may not run on: the pop order needs every
    /// job's rank strictly below its successors'.
    #[test]
    fn zero_wcet_is_not_allowed() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(
            Process::new("a")
                .wcet(PeId(0), Time::ZERO)
                .wcet(PeId(1), t(5)),
        );
        let b = g.add_process(Process::new("b").wcet(PeId(0), t(6)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        let app = Application::new("app", vec![g]);
        let hints = Hints::empty();
        let mut engine = bound(&arch, &app, 100);
        assert_eq!(
            engine.run(&[(&mapping_of([0, 0]), &hints)]).result,
            Err(SchedError::NotAllowed {
                app: AppId(0),
                proc_ref: ProcRef::new(0, a),
                pe: PeId(0),
            })
        );
        engine.run(&[(&mapping_of([1, 0]), &hints)]).result.unwrap();
    }

    #[test]
    fn new_rejects_a_horizon_off_the_periods() {
        let arch = arch2();
        let (app, _) = chain_app();
        let base = Arc::new(FrozenBase::empty(&arch, t(60)).unwrap());
        assert_eq!(
            Scheduler::new(&arch, base, &[(AppId(0), &app)]).unwrap_err(),
            SchedError::BadHorizon { horizon: t(60) }
        );
    }

    #[test]
    fn frozen_base_bakes_replay_once() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = crate::AppSpec::new(AppId(0), &app, &mapping, &hints);
        let first = crate::schedule(&arch, &[spec], None, t(100)).unwrap();

        let base = FrozenBase::new(&arch, Some(&first), t(100)).unwrap();
        assert_eq!(base.frozen_job_count(), 2);
        assert_eq!(base.frozen_message_count(), 1);
        assert_eq!(base.horizon(), t(100));
        assert_eq!(base.pe_count(), 2);
        // Frozen-only slack matches the profile of the frozen table.
        let frozen_slack = SlackProfile::from_table(&arch, &first);
        assert_eq!(base.gaps_of(PeId(0)), frozen_slack.gaps_of(PeId(0)));
        assert_eq!(
            base.bus_timeline().free_windows(),
            frozen_slack.bus_windows()
        );

        // Scheduling a second app on the base matches the naive path.
        let (app2, mapping2) = chain_app();
        let spec2 = crate::AppSpec::new(AppId(1), &app2, &mapping2, &hints);
        let reference = crate::schedule(&arch, &[spec2], Some(&first), t(100)).unwrap();
        let mut engine = Scheduler::new(&arch, Arc::new(base), &[(AppId(1), &app2)]).unwrap();
        engine.run(&[(&mapping2, &hints)]).result.unwrap();
        assert_eq!(engine.table(), reference);
        assert_eq!(
            engine.slack_profile(),
            SlackProfile::from_table(&arch, &reference)
        );
    }

    #[test]
    fn frozen_base_rejects_horizon_mismatch() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = crate::AppSpec::new(AppId(0), &app, &mapping, &hints);
        let first = crate::schedule(&arch, &[spec], None, t(100)).unwrap();
        assert_eq!(
            FrozenBase::new(&arch, Some(&first), t(200)).unwrap_err(),
            SchedError::FrozenConflict
        );
        assert!(matches!(
            FrozenBase::empty(&arch, Time::ZERO).unwrap_err(),
            SchedError::BadHorizon { .. }
        ));
        assert!(matches!(
            FrozenBase::empty(&arch, t(15)).unwrap_err(),
            SchedError::BadHorizon { .. }
        ));
    }

    #[test]
    fn priority_cache_invalidates_on_remap() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(8)).wcet(PeId(1), t(4)));
        let b = g.add_process(Process::new("b").wcet(PeId(0), t(6)).wcet(PeId(1), t(3)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        let app = Application::new("app", vec![g]);
        let hints = Hints::empty();
        let mut engine = bound(&arch, &app, 100);

        for assignment in [[0, 0], [1, 1], [0, 1], [0, 0]] {
            let mapping = mapping_of(assignment);
            engine.run(&[(&mapping, &hints)]).result.unwrap();
            let spec = crate::AppSpec::new(AppId(0), &app, &mapping, &hints);
            let naive = crate::schedule(&arch, &[spec], None, t(100)).unwrap();
            assert_eq!(engine.table(), naive, "assignment {assignment:?}");
        }
    }
}
