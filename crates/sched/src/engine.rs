//! The incremental evaluation engine.
//!
//! The mapping heuristics evaluate thousands of design alternatives per
//! scenario, and every alternative shares the same *frozen* part: the
//! existing applications' jobs and messages, which requirement (a) of
//! the paper forbids touching. The plain [`crate::schedule`] entry point
//! re-replays and re-validates that frozen schedule — and re-sorts its
//! messages, re-allocates every timeline, and re-computes priorities —
//! on every call.
//!
//! This module splits the work in two:
//!
//! * [`FrozenBase`] replays and validates the frozen schedule **once**,
//!   baking the frozen-only per-PE free gaps and a [`BusTimeline`]
//!   occupancy snapshot.
//! * [`Scheduler`] holds reusable scratch arenas (job records, a flat
//!   successor table, the ready queue, a per-graph priority cache keyed
//!   by the priorities' cost inputs) and runs every evaluation in the
//!   same three steps:
//!   1. **patch** the job arena in place from the caller's
//!      changed-variable hint ([`ChangedVar`]) — or **expand** it from
//!      scratch when no hint applies;
//!   2. **reset** the timelines from the base: a copy of each PE's
//!      frozen gap list and of the bus's per-occurrence fill;
//!   3. **re-place** the whole current application with the list
//!      scheduler.
//!
//! A failed run needs no rollback: the next run resets from the base.
//! Debug builds re-expand every patched arena from scratch and assert
//! that the two agree.
//!
//! The list-scheduling loop touches no application data. Each graph's
//! out-edges are expanded once per arena into a flat successor table
//! of `(target node, edge, transmission time, slot hint)` records, and
//! each job record stores its instance's first arena index and its
//! node's slice of that table: a successor is one add away, and a
//! message's duration and slot hint are one load. The ready queue is a
//! monotone radix queue on urgency (`deadline − partial critical
//! path`). It is exact because a node's partial critical path is at
//! least its successor's plus its own cost and both share the instance
//! deadline, so a released successor is never more urgent than the job
//! that released it. Entries of equal urgency sit in a small binary
//! heap under the tie-break, so the pop order is the one a single
//! binary heap over [`ReadyEntry`]'s order gives.
//!
//! [`Scheduler::run`] is the one run path, and it leaves its result
//! live in the scheduler: the timelines and the placements (jobs in
//! step order, messages in emission order) stay as the run left them
//! until the next run. A search scores a design straight from the live
//! gaps ([`Scheduler::pe_gaps`], [`Scheduler::bus_timeline`]) and copies
//! out a [`SlackProfile`] ([`Scheduler::slack_profile`]) and
//! [`Placements`] ([`Scheduler::placements`]) only for a design it
//! keeps. The entry points that return results build them from the
//! live state after their run: [`Scheduler::schedule_hinted`] the
//! profile and placements, the table-returning calls the canonical
//! [`ScheduleTable`] (one sort of the placements merged with the frozen
//! table's canonical sequences, as [`FrozenBase::materialize`] does).

use crate::job::JobId;
use crate::list::{AppSpec, SchedError};
use crate::mapping::MsgRef;
use crate::pe_timeline::PeTimeline;
use crate::priority::PriorityCosts;
use crate::slack::SlackProfile;
use crate::table::{frame_replay_order, ScheduleTable, ScheduledJob, ScheduledMessage};
use incdes_graph::EdgeId;
use incdes_model::{AppId, Architecture, PeId, ProcRef, Time};
use incdes_obs::counters::{self, Counter};
use incdes_obs::phase::{self, Phase};
use incdes_tdma::BusTimeline;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Checks that `horizon` is positive and a multiple of every graph
/// period of `apps` — the per-call half of [`crate::schedule`]'s input
/// validation (the bus-cycle half is checked once by [`FrozenBase`]).
///
/// # Errors
///
/// [`SchedError::BadHorizon`] on violation.
pub fn check_horizon(apps: &[AppSpec<'_>], horizon: Time) -> Result<(), SchedError> {
    if horizon.is_zero() {
        return Err(SchedError::BadHorizon { horizon });
    }
    for spec in apps {
        for g in &spec.app.graphs {
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
    /// Frozen-only free gaps per PE: the state every run's timelines
    /// are reset to.
    pe_gaps: Vec<Vec<(Time, Time)>>,
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
            pe_gaps: pes.iter().map(|tl| tl.gaps().to_vec()).collect(),
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
        self.pe_gaps.len()
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
    /// [`ScheduleTable::pe_timelines`] of the frozen table, but built
    /// from the baked gaps instead of a replay.
    pub fn pe_timelines(&self) -> Vec<PeTimeline> {
        self.pe_gaps
            .iter()
            .map(|gaps| PeTimeline::from_gaps(self.horizon, gaps))
            .collect()
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
        &self.pe_gaps[pe.index()]
    }
}

/// The current applications' placements of one run: every job in step
/// (pop) order and every message in emission order, copied out of the
/// scheduler for a design the search keeps; the canonical
/// [`ScheduleTable`] is built from it only on demand
/// ([`materialize`](Self::materialize)). Cloning is two reference-count
/// bumps.
#[derive(Debug, Clone)]
pub struct Placements {
    jobs: Arc<[ScheduledJob]>,
    msgs: Arc<[ScheduledMessage]>,
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

/// A design variable that changed between two evaluated solutions,
/// passed to [`Scheduler::run`] so the job arena can be
/// patched instead of rebuilt. Sorted order (`spec`, `graph`,
/// `node`/`edge`) matches expansion order, which keeps error reporting
/// identical to a full expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChangedVar {
    /// The mapping (PE) and/or gap hint of one process changed.
    Proc {
        /// Index of the owning `AppSpec`.
        spec: usize,
        /// Graph index inside the application.
        graph: usize,
        /// The process node.
        node: incdes_graph::NodeId,
    },
    /// The slot hint of one message changed.
    Msg {
        /// Index of the owning `AppSpec`.
        spec: usize,
        /// Graph index inside the application.
        graph: usize,
        /// The message edge.
        edge: incdes_graph::EdgeId,
    },
}

/// Internal per-job scheduling state (one expanded process instance).
///
/// Deliberately *static* per run: the dynamic fields the scheduling
/// loop rewrites on every step (`ready`, `preds_remaining`) live in
/// dense parallel arrays on [`Scheduler`] instead, so the hot successor
/// updates and the queue seed touch two packed arrays rather than
/// striding through this fat record — and the loop can hold the arena
/// immutably while mutating the per-run state.
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

/// Ready-queue entry. Jobs are ordered by *urgency* — the latest start
/// time `deadline − partial critical path` (smaller = more urgent) — so
/// tight-deadline instances are not crowded out by lax ones sharing the
/// hyperperiod. Ties fall back to the longer critical path, then earliest
/// ready, then the smallest job index (full determinism).
#[derive(Clone, Copy)]
struct ReadyEntry {
    /// `deadline − pcp`, saturating at zero.
    urgency: Time,
    priority: Time,
    ready: Time,
    job_idx: usize,
}

impl ReadyEntry {
    fn of(jobs: &[JobRec], ready: &[Time], job_idx: usize) -> Self {
        let j = &jobs[job_idx];
        ReadyEntry {
            urgency: j.deadline.saturating_sub(j.priority),
            priority: j.priority,
            ready: ready[job_idx],
            job_idx,
        }
    }
}

impl PartialEq for ReadyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ReadyEntry {}
impl PartialOrd for ReadyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: larger = popped first, so reverse the
        // urgency comparison (smallest urgency pops first).
        other
            .urgency
            .cmp(&self.urgency)
            .then_with(|| self.priority.cmp(&other.priority))
            .then_with(|| other.ready.cmp(&self.ready))
            .then_with(|| other.job_idx.cmp(&self.job_idx))
    }
}

/// The ready queue: a monotone radix queue on urgency. Pops come out in
/// the order a `BinaryHeap<ReadyEntry>` gives, provided no push is more
/// urgent than the last pop (debug builds assert it; see the module docs
/// for why the list scheduler keeps to it).
///
/// Bucket `b` holds the entries whose urgency first differs from the
/// last popped urgency in bit `b`, so every entry of a lower bucket is
/// more urgent than every entry of a higher one. Entries exactly as
/// urgent as the last pop sit in `equal`, a binary heap under the
/// tie-break. When `equal` runs dry, the lowest non-empty bucket is
/// redistributed around its smallest urgency; each entry moves down a
/// bucket at most 64 times over its life.
///
/// The buckets are linked lists through one slab, so a cold queue (a
/// fresh engine's first run, as in every probe) grows one allocation,
/// like a binary heap, instead of one per bucket.
struct ReadyQueue {
    /// The last popped urgency (0 before the first pop).
    last: u64,
    equal: BinaryHeap<ReadyEntry>,
    /// Every entry pushed into a bucket since the last clear, with the
    /// slab index of the next entry of its bucket.
    slab: Vec<(ReadyEntry, u32)>,
    /// Slab index of each bucket's first entry; only meaningful while
    /// the bucket's bit in `occupied` is set.
    heads: [u32; 64],
    occupied: u64,
}

impl Default for ReadyQueue {
    fn default() -> Self {
        ReadyQueue {
            last: 0,
            equal: BinaryHeap::new(),
            slab: Vec::new(),
            heads: [0; 64],
            occupied: 0,
        }
    }
}

impl ReadyQueue {
    /// Ends a bucket's list.
    const NIL: u32 = u32::MAX;

    fn clear(&mut self) {
        self.last = 0;
        self.equal.clear();
        self.slab.clear();
        self.occupied = 0;
    }

    fn push(&mut self, entry: ReadyEntry) {
        let u = entry.urgency.ticks();
        debug_assert!(
            u >= self.last,
            "ready queue push of urgency {u} below the last pop {}",
            self.last
        );
        let at = self.slab.len() as u32;
        self.slab.push((entry, Self::NIL));
        self.file(at);
    }

    /// Files slab entry `at` into `equal` or the head of its bucket.
    fn file(&mut self, at: u32) {
        let (entry, next) = &mut self.slab[at as usize];
        let diff = entry.urgency.ticks() ^ self.last;
        if diff == 0 {
            self.equal.push(*entry);
        } else {
            let b = 63 - diff.leading_zeros() as usize;
            let bit = 1u64 << b;
            *next = if self.occupied & bit != 0 {
                self.heads[b]
            } else {
                Self::NIL
            };
            self.heads[b] = at;
            self.occupied |= bit;
        }
    }

    fn pop(&mut self) -> Option<ReadyEntry> {
        if self.equal.is_empty() && self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.occupied &= !(1 << b);
            let head = self.heads[b];
            let mut last = u64::MAX;
            let mut at = head;
            while at != Self::NIL {
                let (entry, next) = self.slab[at as usize];
                last = last.min(entry.urgency.ticks());
                at = next;
            }
            self.last = last;
            let mut at = head;
            while at != Self::NIL {
                let next = self.slab[at as usize].1;
                self.file(at);
                at = next;
            }
        }
        self.equal.pop()
    }
}

/// Cached partial-critical-path priorities of one graph slot, keyed by
/// the exact cost inputs ([`PriorityCosts`]) the priorities are a pure
/// function of — so the cache stays sound even when one `Scheduler` is
/// reused across different applications or architectures (an assignment
/// vector alone would alias graphs with different WCETs or topology).
#[derive(Default)]
struct PrioEntry {
    costs: PriorityCosts,
    prio: Vec<Time>,
}

/// The reusable scheduling engine: scratch arenas for the job records,
/// the successor table, the ready queue and the timelines.
///
/// One `Scheduler` serves any number of evaluations; it is cheap to
/// construct but profitable to keep, since all per-evaluation arenas
/// (job records, ready queue, timelines, priority cache) are reused.
#[derive(Default)]
pub struct Scheduler {
    jobs: Vec<JobRec>,
    /// Every graph's out-edges, node by node, expanded with the arena;
    /// each [`JobRec`] names its node's slice.
    succs: Vec<SuccRec>,
    /// Dynamic per-job state, parallel to `jobs`: the earliest time the
    /// job's input data is available in the current run. Structure-of-
    /// arrays on purpose — see [`JobRec`].
    ready: Vec<Time>,
    /// Dynamic per-job state, parallel to `jobs`: predecessors not yet
    /// placed in the current run.
    preds_remaining: Vec<u32>,
    /// Static per-job values parallel to `jobs`, filled by `expand`:
    /// release times and in-degrees. Every run resets `ready` and
    /// `preds_remaining` from these with two flat copies.
    releases: Vec<Time>,
    in_degs: Vec<u32>,
    /// Flattened per-(spec, graph) base index into `jobs`.
    graph_bases: Vec<usize>,
    /// Offset of each spec's first graph in `graph_bases`.
    spec_offsets: Vec<usize>,
    queue: ReadyQueue,
    pes: Vec<PeTimeline>,
    bus: Option<BusTimeline>,
    /// Priority cache, flattened parallel to `graph_bases`.
    prio_cache: Vec<PrioEntry>,
    assign_scratch: Vec<Option<PeId>>,
    cost_scratch: PriorityCosts,
    /// The last run's jobs in step order.
    placed: Vec<ScheduledJob>,
    /// The last run's messages in emission order.
    msgs: Vec<ScheduledMessage>,
    /// Job-arena provenance: `(app pointer, id)` per spec plus the
    /// horizon the arena was expanded for. A hinted run patches the
    /// arena only when these match exactly (same `Application` objects,
    /// so the only possible differences are the changed variables the
    /// caller lists).
    arena_apps: Vec<(usize, AppId)>,
    arena_horizon: Time,
    arena_valid: bool,
    raw_schedules: usize,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("raw_schedules", &self.raw_schedules)
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// A fresh engine with empty scratch arenas.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Number of raw schedules this engine has executed (every call
    /// that got past input validation).
    pub fn raw_schedule_count(&self) -> usize {
        self.raw_schedules
    }

    /// Schedules `apps` on top of `base`, reusing the scratch arenas.
    /// Produces exactly the table [`crate::schedule`] would produce for
    /// the same inputs.
    ///
    /// # Errors
    ///
    /// As [`crate::schedule`].
    pub fn schedule(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
    ) -> Result<ScheduleTable, SchedError> {
        self.run(arch, apps, base, None)?;
        Ok(self.table(base))
    }

    /// Like [`schedule`](Self::schedule) but also derives the slack
    /// profile from the live timelines. The profile is identical to
    /// [`SlackProfile::from_table`] on the returned table.
    ///
    /// # Errors
    ///
    /// As [`crate::schedule`].
    pub fn schedule_with_slack(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
    ) -> Result<(ScheduleTable, SlackProfile), SchedError> {
        self.run(arch, apps, base, None)?;
        Ok((self.table(base), self.slack_profile()))
    }

    /// A hinted [`run`](Self::run), returning the current placements and
    /// the slack profile ([`FrozenBase::materialize`] builds the table
    /// when a caller needs one).
    ///
    /// # Errors
    ///
    /// As [`crate::schedule`].
    pub fn schedule_hinted(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
        changed: Option<&[ChangedVar]>,
    ) -> Result<(Placements, SlackProfile), SchedError> {
        self.run(arch, apps, base, changed)?;
        Ok((self.placements(), self.slack_profile()))
    }

    /// The one run path: patch or expand the arena, reset the timelines
    /// from `base`, and list-schedule every job of `apps`. The result
    /// stays live until the next run: read it through
    /// [`pe_gaps`](Self::pe_gaps), [`bus_timeline`](Self::bus_timeline),
    /// [`placements`](Self::placements) and
    /// [`slack_profile`](Self::slack_profile). A failed run leaves a
    /// partial schedule there, which the next run resets.
    ///
    /// `changed` is the hint that lets the job arena be patched instead
    /// of rebuilt: it must list **every** design variable (process
    /// mapping/gap hint, message slot hint) that differs from the
    /// previous call, in sorted order, and `apps` must reference the
    /// *same* `Application` objects on the same architecture as the
    /// previous call (the arena holds priorities and message
    /// transmission times derived from both). The arena is
    /// re-expanded (with identical results) when `changed` is `None` or
    /// the arena's provenance does not match.
    ///
    /// # Errors
    ///
    /// As [`crate::schedule`].
    pub fn run(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
        changed: Option<&[ChangedVar]>,
    ) -> Result<(), SchedError> {
        check_horizon(apps, base.horizon)?;
        debug_assert_eq!(arch.pe_count(), base.pe_count(), "base built for this arch");
        self.raw_schedules += 1;
        {
            let _expand = phase::scope(Phase::Expand);
            let patched = match changed {
                Some(vars) => self.expand_incremental(arch, apps, base.horizon, vars)?,
                None => false,
            };
            if patched {
                counters::bump(Counter::ArenaPatched);
            } else {
                self.expand(arch, apps, base.horizon)?;
                counters::bump(Counter::ArenaExpansions);
            }
        }

        let _replace = phase::scope(Phase::RePlace);
        let Scheduler {
            jobs,
            succs,
            ready,
            preds_remaining,
            releases,
            in_degs,
            queue,
            pes,
            bus,
            placed,
            msgs,
            ..
        } = self;
        // Reset from the baked base: copy each PE's frozen gaps and the
        // bus fill into the scratch allocations.
        pes.resize_with(base.pe_count(), || PeTimeline::new(base.horizon));
        for (tl, gaps) in pes.iter_mut().zip(&base.pe_gaps) {
            tl.restore(base.horizon, gaps);
        }
        let bus = bus.get_or_insert_with(|| base.bus.clone());
        bus.reset_from(&base.bus);
        placed.clear();
        msgs.clear();
        ready.clone_from(releases);
        preds_remaining.clone_from(in_degs);

        queue.clear();
        let mut seeded = 0u64;
        for (i, &p) in preds_remaining.iter().enumerate() {
            if p == 0 {
                queue.push(ReadyEntry::of(jobs, ready, i));
                seeded += 1;
            }
        }
        counters::add(Counter::HeapPushes, seeded);

        schedule_loop(
            jobs,
            succs,
            ready,
            preds_remaining,
            queue,
            pes,
            bus,
            placed,
            msgs,
        )
    }

    /// Each PE's live free gaps, in PE order: the last run's slack,
    /// uncopied.
    pub fn pe_gaps(&self) -> impl ExactSizeIterator<Item = &[(Time, Time)]> + Clone {
        self.pes.iter().map(PeTimeline::gaps)
    }

    /// The live bus occupancy (`None` before the first run).
    pub fn bus_timeline(&self) -> Option<&BusTimeline> {
        self.bus.as_ref()
    }

    /// The current applications' placements of the last run, copied
    /// out of the live state.
    pub fn placements(&self) -> Placements {
        Placements {
            jobs: self.placed.as_slice().into(),
            msgs: self.msgs.as_slice().into(),
        }
    }

    /// The canonical table of `base` plus the last run's placements;
    /// the run must have been on `base`.
    fn table(&self, base: &FrozenBase) -> ScheduleTable {
        materialize(&self.placed, &self.msgs, &base.frozen)
    }

    /// The slack of the last run, copied out of the live timelines:
    /// every PE's gap list and the bus fill's free windows.
    ///
    /// # Panics
    ///
    /// Panics before the first run.
    pub fn slack_profile(&self) -> SlackProfile {
        let _slack = phase::scope(Phase::Slack);
        counters::add(Counter::SlackGapsMaterialized, self.pes.len() as u64);
        let bus = self.bus.as_ref().expect("a run resets the bus first");
        SlackProfile::new(
            bus.horizon(),
            self.pes.iter().map(PeTimeline::gaps),
            bus.free_windows(),
        )
    }

    /// Expands `apps` into the job arena (priorities served from the
    /// cache). Touches no timeline state.
    fn expand(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        horizon: Time,
    ) -> Result<(), SchedError> {
        self.arena_valid = false;
        self.arena_horizon = horizon;
        self.arena_apps.clear();
        self.arena_apps
            .extend(apps.iter().map(|s| (s.app as *const _ as usize, s.id)));
        let Scheduler {
            jobs,
            succs,
            releases,
            in_degs,
            graph_bases,
            spec_offsets,
            prio_cache,
            assign_scratch,
            cost_scratch,
            ..
        } = self;
        jobs.clear();
        succs.clear();
        releases.clear();
        in_degs.clear();
        graph_bases.clear();
        spec_offsets.clear();
        for spec in apps {
            spec_offsets.push(graph_bases.len());
            for (gi, g) in spec.app.graphs.iter().enumerate() {
                let flat = graph_bases.len();
                graph_bases.push(jobs.len());
                // Exact priorities from the mapping, cached per graph
                // slot while the cost inputs are unchanged (hint-only
                // moves and moves in other graphs never recompute).
                assign_scratch.clear();
                assign_scratch.extend(
                    g.dag()
                        .node_ids()
                        .map(|n| spec.mapping.pe_of(ProcRef::new(gi, n))),
                );
                cost_scratch.fill(arch, g, assign_scratch);
                if prio_cache.len() <= flat {
                    prio_cache.resize_with(flat + 1, PrioEntry::default);
                }
                let entry = &mut prio_cache[flat];
                if entry.costs != *cost_scratch {
                    let _refresh = phase::scope(Phase::PriorityRefresh);
                    entry.prio = cost_scratch.priorities(g);
                    std::mem::swap(&mut entry.costs, cost_scratch);
                }
                let prio = &entry.prio;

                // The graph's successor table, shared by its instances.
                let succ_base =
                    u32::try_from(succs.len()).expect("successor table indices fit in u32");
                for n in g.dag().node_ids() {
                    for &e in g.dag().out_edges(n) {
                        succs.push(SuccRec {
                            tx: arch.bus().transmission_time(g.message(e).bytes),
                            target: g.dag().target(e).index() as u32,
                            slot: spec.hints.msg_slot(MsgRef::new(gi, e)),
                            edge: e,
                        });
                    }
                }

                let instances = horizon.ticks() / g.period.ticks();
                for k in 0..instances as u32 {
                    let release = Time::new(k as u64 * g.period.ticks());
                    let deadline = release + g.deadline;
                    let inst_base =
                        u32::try_from(jobs.len()).expect("job arena indices fit in u32");
                    let mut succ_lo = succ_base;
                    for n in g.dag().node_ids() {
                        let succ_hi = succ_lo + g.dag().out_degree(n) as u32;
                        let pr = ProcRef::new(gi, n);
                        let pe = spec
                            .mapping
                            .pe_of(pr)
                            .ok_or(SchedError::MappingIncomplete {
                                app: spec.id,
                                proc_ref: pr,
                            })?;
                        let wcet = allowed_wcet(arch, g, n, pe).ok_or(SchedError::NotAllowed {
                            app: spec.id,
                            proc_ref: pr,
                            pe,
                        })?;
                        jobs.push(JobRec {
                            id: JobId::new(spec.id, gi, k, n),
                            pe,
                            wcet,
                            release,
                            deadline,
                            priority: prio[n.index()],
                            gap_hint: spec.hints.proc_gap(pr),
                            inst_base,
                            succ_lo,
                            succ_hi,
                        });
                        releases.push(release);
                        in_degs.push(g.dag().in_degree(n) as u32);
                        succ_lo = succ_hi;
                    }
                }
            }
        }
        self.arena_valid = true;
        Ok(())
    }

    /// Patches the existing job arena with `changed` design variables
    /// instead of re-expanding: only the listed processes re-resolve
    /// their PE/WCET/hint, only the listed messages re-read their slot
    /// hint, and only graphs with a mapping change refresh priorities.
    /// Returns `Ok(false)` when the arena cannot be reused
    /// (different apps, different horizon, or a previous expansion
    /// error) — the caller then falls back to a full expansion.
    ///
    /// Correctness rests on the caller's contract (`changed` lists every
    /// differing variable, `apps` are the same objects); debug builds
    /// re-expand from scratch afterwards and assert the arenas agree,
    /// which the differential fuzz suite exercises heavily.
    fn expand_incremental(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        horizon: Time,
        changed: &[ChangedVar],
    ) -> Result<bool, SchedError> {
        let reusable = self.arena_valid
            && self.arena_horizon == horizon
            && self.arena_apps.len() == apps.len()
            && self
                .arena_apps
                .iter()
                .zip(apps)
                .all(|(&(ptr, id), s)| ptr == s.app as *const _ as usize && id == s.id);
        if !reusable {
            return Ok(false);
        }
        debug_assert!(
            changed.windows(2).all(|w| w[0] < w[1]),
            "changed variables must be sorted and deduplicated"
        );
        // The arena is only marked valid again once the patch (and its
        // validation) completed — a failed patch forces a full expand.
        self.arena_valid = false;

        // Apply the changed variables (sorted order = expansion order,
        // so a MappingIncomplete/NotAllowed error surfaces for the same
        // process a full expansion would report first: unchanged
        // processes stayed valid since they were last expanded).
        let mut prio_dirty_prev = usize::MAX;
        for &var in changed {
            let (spec, graph, node) = match var {
                ChangedVar::Proc { spec, graph, node } => (spec, graph, node),
                ChangedVar::Msg { spec, graph, edge } => {
                    // One successor-table entry, found through the
                    // source node's slice (instance 0 names it).
                    let sp = &apps[spec];
                    let source = sp.app.graphs[graph].dag().source(edge);
                    let j = &self.jobs
                        [self.graph_bases[self.spec_offsets[spec] + graph] + source.index()];
                    let rec = self.succs[j.succ_lo as usize..j.succ_hi as usize]
                        .iter_mut()
                        .find(|s| s.edge == edge)
                        .expect("a changed message is an out-edge of its source");
                    rec.slot = sp.hints.msg_slot(MsgRef::new(graph, edge));
                    continue;
                }
            };
            let sp = &apps[spec];
            let g = &sp.app.graphs[graph];
            let pr = ProcRef::new(graph, node);
            let pe = sp.mapping.pe_of(pr).ok_or(SchedError::MappingIncomplete {
                app: sp.id,
                proc_ref: pr,
            })?;
            let wcet = allowed_wcet(arch, g, node, pe).ok_or(SchedError::NotAllowed {
                app: sp.id,
                proc_ref: pr,
                pe,
            })?;
            let hint = sp.hints.proc_gap(pr);
            let flat = self.spec_offsets[spec] + graph;
            let nodes = g.process_count();
            let instances = (horizon.ticks() / g.period.ticks()) as usize;
            // Priorities are a pure function of the graph's mapping
            // (node WCETs on the assigned PEs, edge same-PE-ness) — a
            // gap-hint-only change cannot move them, so the cost rebuild
            // below keys on the PE actually changing (instance 0 still
            // holds the pre-patch assignment here).
            let remapped = self.jobs[self.graph_bases[flat] + node.index()].pe != pe;
            for k in 0..instances {
                let j = &mut self.jobs[self.graph_bases[flat] + k * nodes + node.index()];
                j.pe = pe;
                j.wcet = wcet;
                j.gap_hint = hint;
            }
            // Refresh the graph's priorities once per remapped graph
            // (vars are sorted, so repeats are adjacent).
            if remapped && flat != prio_dirty_prev {
                prio_dirty_prev = flat;
                let Scheduler {
                    jobs,
                    graph_bases,
                    prio_cache,
                    assign_scratch,
                    cost_scratch,
                    ..
                } = self;
                assign_scratch.clear();
                assign_scratch.extend(
                    g.dag()
                        .node_ids()
                        .map(|n| sp.mapping.pe_of(ProcRef::new(graph, n))),
                );
                cost_scratch.fill(arch, g, assign_scratch);
                let entry = &mut prio_cache[flat];
                // Every expansion that touches a graph leaves its jobs
                // holding `entry.prio`, so when the rebuilt costs match
                // the cached ones the arena is already consistent — no
                // recompute, no rewrite.
                if entry.costs != *cost_scratch {
                    {
                        let _refresh = phase::scope(Phase::PriorityRefresh);
                        entry.prio = cost_scratch.priorities(g);
                        std::mem::swap(&mut entry.costs, cost_scratch);
                    }
                    for k in 0..instances {
                        for n in 0..nodes {
                            jobs[graph_bases[flat] + k * nodes + n].priority = entry.prio[n];
                        }
                    }
                }
            }
        }

        #[cfg(debug_assertions)]
        self.debug_verify_incremental_expand(arch, apps, horizon)?;

        self.arena_valid = true;
        Ok(true)
    }

    /// Debug-build oracle for [`expand_incremental`]: snapshots the
    /// patched arena, re-expands from scratch and asserts equality —
    /// the differential fuzz suite drives this on every hinted call.
    #[cfg(debug_assertions)]
    fn debug_verify_incremental_expand(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        horizon: Time,
    ) -> Result<(), SchedError> {
        let jobs = self.jobs.clone();
        let succs = self.succs.clone();
        self.expand(arch, apps, horizon)?;
        assert_eq!(self.jobs.len(), jobs.len(), "patched arena lost jobs");
        for (j, s) in self.jobs.iter().zip(&jobs) {
            assert_eq!(
                j, s,
                "incremental expansion diverged from full expansion for {:?}",
                j.id
            );
        }
        assert_eq!(
            self.succs, succs,
            "patched successor table diverged from full expansion"
        );
        Ok(())
    }
}

/// The WCET of process `n` of `g` on `pe`, if the process may run
/// there: its WCET table lists `pe` and `pe` is in the architecture.
/// Applications may list WCETs for PEs beyond the architecture (the
/// validator ignores them), so a mapping onto one is refused here, not
/// left to index past the timelines.
fn allowed_wcet(
    arch: &Architecture,
    g: &incdes_model::ProcessGraph,
    n: incdes_graph::NodeId,
    pe: PeId,
) -> Option<Time> {
    g.process(n)
        .wcets
        .get(pe)
        .filter(|_| pe.index() < arch.pe_count())
}

/// The list-scheduling loop: pops ready jobs from `queue` until none
/// remain, reserving processor time and bus slots and appending each
/// placed job and message. The caller has reset the timelines and
/// seeded the queue. A failure leaves a partial run in the timelines;
/// the next run resets them from the base.
#[allow(clippy::too_many_arguments)]
fn schedule_loop(
    jobs: &[JobRec],
    succs: &[SuccRec],
    ready: &mut [Time],
    preds_remaining: &mut [u32],
    queue: &mut ReadyQueue,
    pes: &mut [PeTimeline],
    bus: &mut BusTimeline,
    placed: &mut Vec<ScheduledJob>,
    msgs: &mut Vec<ScheduledMessage>,
) -> Result<(), SchedError> {
    while let Some(entry) = queue.pop() {
        counters::bump(Counter::HeapPops);
        let idx = entry.job_idx;
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
            preds_remaining[succ_idx] -= 1;
            if preds_remaining[succ_idx] == 0 {
                queue.push(ReadyEntry::of(jobs, ready, succ_idx));
                counters::bump(Counter::HeapPushes);
            }
        }
        placed.push(ScheduledJob {
            job: id,
            pe,
            start,
            end,
            release: j.release,
            deadline: j.deadline,
        });
    }
    debug_assert_eq!(placed.len(), jobs.len(), "acyclic graphs schedule fully");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Hints, Mapping};
    use incdes_graph::NodeId;
    use incdes_model::{AppId, Application, BusConfig, Message, Process, ProcessGraph};
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

    fn proc_var(node: u32) -> ChangedVar {
        ChangedVar::Proc {
            spec: 0,
            graph: 0,
            node: NodeId(node),
        }
    }

    #[test]
    fn engine_matches_schedule_and_reuses_scratch() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let reference = crate::schedule(&arch, &[spec], None, t(100)).unwrap();

        let base = FrozenBase::empty(&arch, t(100)).unwrap();
        let mut engine = Scheduler::new();
        for _ in 0..3 {
            let (table, slack) = engine.schedule_with_slack(&arch, &[spec], &base).unwrap();
            assert_eq!(table, reference);
            assert_eq!(slack, SlackProfile::from_table(&arch, &reference));
        }
        assert_eq!(engine.raw_schedule_count(), 3);
    }

    /// A chain of single remaps, each passed as its one-variable hint:
    /// every run after the first patches the arena, and every result
    /// equals the one-shot oracle.
    #[test]
    fn delta_path_tracks_single_moves() {
        let arch = arch2();
        let app = movable_app();
        let hints = Hints::empty();
        let base = FrozenBase::empty(&arch, t(100)).unwrap();
        let mut engine = Scheduler::new();

        let assignments = [
            [PeId(0), PeId(1)],
            [PeId(0), PeId(0)],
            [PeId(1), PeId(0)],
            [PeId(1), PeId(1)],
            [PeId(0), PeId(1)],
        ];
        let mut prev: Option<[PeId; 2]> = None;
        let (mut expansions, mut patches) = (0, 0);
        for assignment in assignments {
            let mut mapping = Mapping::new();
            mapping.assign(ProcRef::new(0, NodeId(0)), assignment[0]);
            mapping.assign(ProcRef::new(0, NodeId(1)), assignment[1]);
            let changed: Option<Vec<ChangedVar>> = prev.map(|p| {
                (0..2u32)
                    .filter(|&n| p[n as usize] != assignment[n as usize])
                    .map(proc_var)
                    .collect()
            });
            let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
            let before = counters::snapshot();
            let (placements, slack) = engine
                .schedule_hinted(&arch, &[spec], &base, changed.as_deref())
                .unwrap();
            let d = counters::snapshot().delta_since(&before);
            expansions += d.get(Counter::ArenaExpansions);
            patches += d.get(Counter::ArenaPatched);
            let reference = crate::schedule(&arch, &[spec], None, t(100)).unwrap();
            assert_eq!(
                base.materialize(&placements),
                reference,
                "assignment {assignment:?}"
            );
            assert_eq!(
                slack,
                SlackProfile::from_table(&arch, &reference),
                "assignment {assignment:?}"
            );
            prev = Some(assignment);
        }
        assert_eq!(engine.raw_schedule_count(), assignments.len());
        assert_eq!(expansions, 1);
        assert_eq!(patches, assignments.len() as u64 - 1);
    }

    /// A chain of message slot-hint changes, each passed as its
    /// one-variable `ChangedVar::Msg` hint: every run after the first
    /// patches the successor table in the arena, and every result
    /// equals the one-shot oracle.
    #[test]
    fn delta_path_tracks_slot_hint_moves() {
        let arch = arch2();
        let app = movable_app();
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        mapping.assign(ProcRef::new(0, NodeId(1)), PeId(1));
        let base = FrozenBase::empty(&arch, t(100)).unwrap();
        let mut engine = Scheduler::new();
        let msg = MsgRef::new(0, EdgeId(0));
        let moved = [ChangedVar::Msg {
            spec: 0,
            graph: 0,
            edge: EdgeId(0),
        }];

        let slots = [0, 2, 1, 3, 0, 1];
        let mut patches = 0;
        let mut starts = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            let mut hints = Hints::empty();
            hints.set_msg_slot(msg, slot);
            let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
            let changed = (i > 0).then_some(&moved[..]);
            let before = counters::snapshot();
            let (placements, slack) = engine
                .schedule_hinted(&arch, &[spec], &base, changed)
                .unwrap();
            patches += counters::snapshot()
                .delta_since(&before)
                .get(Counter::ArenaPatched);
            let reference = crate::schedule(&arch, &[spec], None, t(100)).unwrap();
            assert_eq!(base.materialize(&placements), reference, "slot hint {slot}");
            assert_eq!(
                slack,
                SlackProfile::from_table(&arch, &reference),
                "slot hint {slot}"
            );
            starts.push(placements.messages()[0].reservation.transmit_start);
        }
        assert_eq!(patches, slots.len() as u64 - 1);
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(starts.len(), 4, "every slot hint moves the message");
    }

    /// A→B→A through the hinted entry point, pinned through the
    /// deterministic `obs` counter registry: one expansion, two patches,
    /// every job placed on every run, no bake.
    #[test]
    fn observability_counters_pin_the_revisit_chain() {
        let arch = arch2();
        let app = movable_app();
        let hints = Hints::empty();
        let base = FrozenBase::empty(&arch, t(100)).unwrap();

        let mut map_a = Mapping::new();
        map_a.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        map_a.assign(ProcRef::new(0, NodeId(1)), PeId(1));
        let mut map_b = map_a.clone();
        map_b.assign(ProcRef::new(0, NodeId(0)), PeId(1));
        let spec_a = AppSpec::new(AppId(0), &app, &map_a, &hints);
        let spec_b = AppSpec::new(AppId(0), &app, &map_b, &hints);
        let ref_a = crate::schedule(&arch, &[spec_a], None, t(100)).unwrap();

        let mut engine = Scheduler::new();
        let moved = [proc_var(0)];
        let before = counters::snapshot();
        let (first, _) = engine
            .schedule_hinted(&arch, &[spec_a], &base, None)
            .unwrap();
        engine
            .schedule_hinted(&arch, &[spec_b], &base, Some(&moved))
            .unwrap();
        let (revisit, _) = engine
            .schedule_hinted(&arch, &[spec_a], &base, Some(&moved))
            .unwrap();
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(base.materialize(&first), ref_a);
        assert_eq!(base.materialize(&revisit), ref_a);
        assert_eq!(d.get(Counter::ArenaExpansions), 1);
        assert_eq!(d.get(Counter::ArenaPatched), 2);
        assert_eq!(d.get(Counter::HeapPops), 6, "two jobs per run");
        // The empty frozen base was baked before the snapshot, so the
        // chain itself bakes nothing.
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
        let base = FrozenBase::empty(&arch, t(100)).unwrap();
        let mut engine = Scheduler::new();

        let mut good = Mapping::new();
        good.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        good.assign(ProcRef::new(0, NodeId(1)), PeId(1));
        let mut bad = good.clone();
        bad.assign(ProcRef::new(0, NodeId(0)), PeId(1));

        let moved = [proc_var(0)];
        let good_spec = AppSpec::new(AppId(0), &app, &good, &hints);
        engine
            .schedule_hinted(&arch, &[good_spec], &base, None)
            .unwrap();
        let bad_spec = AppSpec::new(AppId(0), &app, &bad, &hints);
        let err = engine
            .schedule_hinted(&arch, &[bad_spec], &base, Some(&moved))
            .unwrap_err();
        assert_eq!(
            err,
            crate::schedule(&arch, &[bad_spec], None, t(100)).unwrap_err()
        );
        let before = counters::snapshot();
        let (placements, slack) = engine
            .schedule_hinted(&arch, &[good_spec], &base, Some(&moved))
            .unwrap();
        assert_eq!(
            counters::snapshot()
                .delta_since(&before)
                .get(Counter::ArenaPatched),
            1,
            "the arena survives a failed run"
        );
        let reference = crate::schedule(&arch, &[good_spec], None, t(100)).unwrap();
        assert_eq!(base.materialize(&placements), reference);
        assert_eq!(slack, SlackProfile::from_table(&arch, &reference));
    }

    /// An `AppId` change alone (same app, same design variables) must
    /// never reuse the arena: its jobs carry the old id, so an empty
    /// hint still has to fall back to a full expansion.
    #[test]
    fn delta_record_guarded_by_app_id() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let base = FrozenBase::empty(&arch, t(100)).unwrap();
        let mut engine = Scheduler::new();

        let spec0 = AppSpec::new(AppId(0), &app, &mapping, &hints);
        engine
            .schedule_hinted(&arch, &[spec0], &base, None)
            .unwrap();
        let spec1 = AppSpec::new(AppId(1), &app, &mapping, &hints);
        let before = counters::snapshot();
        let (placements, slack) = engine
            .schedule_hinted(&arch, &[spec1], &base, Some(&[]))
            .unwrap();
        let d = counters::snapshot().delta_since(&before);
        assert_eq!(d.get(Counter::ArenaPatched), 0, "id change never patches");
        assert_eq!(d.get(Counter::ArenaExpansions), 1);
        let table = base.materialize(&placements);
        let reference = crate::schedule(&arch, &[spec1], None, t(100)).unwrap();
        assert_eq!(table, reference);
        assert_eq!(slack, SlackProfile::from_table(&arch, &reference));
        assert!(table.messages().iter().all(|m| m.app == AppId(1)));
    }

    /// A *shape* change (same job layout, different deadline) arrives as
    /// a different `Application` object, so the arena is re-expanded
    /// even under an empty hint.
    #[test]
    fn delta_record_guarded_by_graph_shape() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(100), t(100));
        g.add_process(Process::new("a").wcet(PeId(0), t(8)));
        let app_a = Application::new("a", vec![g]);
        let mut g2 = ProcessGraph::new("g", t(100), t(50));
        g2.add_process(Process::new("a").wcet(PeId(0), t(8)));
        let app_b = Application::new("b", vec![g2]);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, NodeId(0)), PeId(0));
        let hints = Hints::empty();
        let base = FrozenBase::empty(&arch, t(100)).unwrap();
        let mut engine = Scheduler::new();

        let spec_a = AppSpec::new(AppId(0), &app_a, &mapping, &hints);
        let spec_b = AppSpec::new(AppId(0), &app_b, &mapping, &hints);
        engine
            .schedule_hinted(&arch, &[spec_a], &base, None)
            .unwrap();
        let before = counters::snapshot();
        let (placements, _) = engine
            .schedule_hinted(&arch, &[spec_b], &base, Some(&[]))
            .unwrap();
        assert_eq!(
            counters::snapshot()
                .delta_since(&before)
                .get(Counter::ArenaPatched),
            0,
            "shape change never patches"
        );
        assert_eq!(
            base.materialize(&placements),
            crate::schedule(&arch, &[spec_b], None, t(100)).unwrap()
        );
    }

    /// The arena describes the current application only, so a hinted
    /// run may patch it across a switch of frozen base: the timelines
    /// are reset from whichever base the run names.
    #[test]
    fn arena_patch_survives_a_base_switch() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let frozen = crate::schedule(&arch, &[spec], None, t(100)).unwrap();

        let base_a = FrozenBase::empty(&arch, t(100)).unwrap();
        let base_b = FrozenBase::new(&arch, Some(&frozen), t(100)).unwrap();

        let (app2, mapping2) = chain_app();
        let spec2 = AppSpec::new(AppId(1), &app2, &mapping2, &hints);
        let mut engine = Scheduler::new();
        engine
            .schedule_hinted(&arch, &[spec2], &base_a, None)
            .unwrap();
        let before = counters::snapshot();
        let (placements, slack) = engine
            .schedule_hinted(&arch, &[spec2], &base_b, Some(&[]))
            .unwrap();
        assert_eq!(
            counters::snapshot()
                .delta_since(&before)
                .get(Counter::ArenaPatched),
            1
        );
        let reference = crate::schedule(&arch, &[spec2], Some(&frozen), t(100)).unwrap();
        assert_eq!(base_b.materialize(&placements), reference);
        assert_eq!(slack, SlackProfile::from_table(&arch, &reference));
    }

    #[test]
    fn frozen_base_bakes_replay_once() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
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
        let spec2 = AppSpec::new(AppId(1), &app2, &mapping2, &hints);
        let reference = crate::schedule(&arch, &[spec2], Some(&first), t(100)).unwrap();
        let mut engine = Scheduler::new();
        let (table, slack) = engine.schedule_with_slack(&arch, &[spec2], &base).unwrap();
        assert_eq!(table, reference);
        assert_eq!(slack, SlackProfile::from_table(&arch, &reference));
    }

    #[test]
    fn frozen_base_rejects_horizon_mismatch() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
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

    /// Reusing one `Scheduler` across *different* applications whose
    /// graphs happen to share a node → PE assignment must not serve
    /// stale priorities: the cache is keyed by the full cost inputs
    /// (WCETs, topology, message sizes), not the assignment alone.
    #[test]
    fn priority_cache_does_not_alias_across_apps() {
        let arch = arch2();
        let base = FrozenBase::empty(&arch, t(200)).unwrap();
        let mut engine = Scheduler::new();
        let hints = Hints::empty();

        // App A: root → long(50) and root → short(5), all on PE0 — the
        // long branch outranks the short one.
        let mut ga = ProcessGraph::new("ga", t(200), t(200));
        let r = ga.add_process(Process::new("r").wcet(PeId(0), t(2)));
        let l = ga.add_process(Process::new("l").wcet(PeId(0), t(50)));
        let s = ga.add_process(Process::new("s").wcet(PeId(0), t(5)));
        ga.add_message(r, l, Message::new("m1", 1)).unwrap();
        ga.add_message(r, s, Message::new("m2", 1)).unwrap();
        let app_a = Application::new("a", vec![ga]);
        // App B: same shape and assignment, but the branch weights are
        // swapped — stale priorities from A would flip its order.
        let mut gb = ProcessGraph::new("gb", t(200), t(200));
        let r2 = gb.add_process(Process::new("r").wcet(PeId(0), t(2)));
        let l2 = gb.add_process(Process::new("l").wcet(PeId(0), t(5)));
        let s2 = gb.add_process(Process::new("s").wcet(PeId(0), t(50)));
        gb.add_message(r2, l2, Message::new("m1", 1)).unwrap();
        gb.add_message(r2, s2, Message::new("m2", 1)).unwrap();
        let app_b = Application::new("b", vec![gb]);

        let mapping: Mapping = [
            (ProcRef::new(0, NodeId(0)), PeId(0)),
            (ProcRef::new(0, NodeId(1)), PeId(0)),
            (ProcRef::new(0, NodeId(2)), PeId(0)),
        ]
        .into_iter()
        .collect();
        for app in [&app_a, &app_b, &app_a] {
            let spec = AppSpec::new(AppId(0), app, &mapping, &hints);
            let engine_table = engine.schedule(&arch, &[spec], &base).unwrap();
            let naive = crate::schedule(&arch, &[spec], None, t(200)).unwrap();
            assert_eq!(engine_table, naive, "stale priorities served");
        }
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
        let base = FrozenBase::empty(&arch, t(100)).unwrap();
        let mut engine = Scheduler::new();

        for assignment in [
            [PeId(0), PeId(0)],
            [PeId(1), PeId(1)],
            [PeId(0), PeId(1)],
            [PeId(0), PeId(0)],
        ] {
            let mut mapping = Mapping::new();
            mapping.assign(ProcRef::new(0, NodeId(0)), assignment[0]);
            mapping.assign(ProcRef::new(0, NodeId(1)), assignment[1]);
            let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
            let engine_table = engine.schedule(&arch, &[spec], &base).unwrap();
            let naive = crate::schedule(&arch, &[spec], None, t(100)).unwrap();
            assert_eq!(engine_table, naive, "assignment {assignment:?}");
        }
    }

    /// An urgency drawn by `kind` from `raw`, at or above `floor`:
    /// `floor` itself (an equal urgency; a saturated 0 while `floor` is
    /// 0), a near tie, a mid-range step or anything up to `u64::MAX`.
    fn urgency(kind: u8, raw: u64, floor: u64) -> u64 {
        match kind {
            0 => floor,
            1 => floor.saturating_add(raw % 4),
            2 => floor.saturating_add(raw % (1 << 20)),
            _ => floor.saturating_add(raw),
        }
    }

    fn entry_key(e: ReadyEntry) -> (Time, Time, Time, usize) {
        (e.urgency, e.priority, e.ready, e.job_idx)
    }

    proptest! {
        /// The radix ready queue pops exactly the sequence a binary heap
        /// under `ReadyEntry`'s order pops: a random seed set, then after
        /// every pop a few pushes no more urgent than that pop (equal
        /// urgencies, saturated zeros and far urgencies included).
        /// Priorities and ready times come from tiny ranges so the
        /// tie-break decides often.
        #[test]
        fn prop_ready_queue_matches_binary_heap(
            seeds in proptest::collection::vec((0u8..4, any::<u64>(), 0u64..3, 0u64..3), 0..48),
            rounds in proptest::collection::vec(
                proptest::collection::vec((0u8..4, any::<u64>(), 0u64..3, 0u64..3), 0..4),
                0..64,
            ),
        ) {
            let mut queue = ReadyQueue::default();
            let mut heap = BinaryHeap::new();
            let mut next = 0usize;
            let mut push = |queue: &mut ReadyQueue, heap: &mut BinaryHeap<ReadyEntry>, u, p, r| {
                let e = ReadyEntry {
                    urgency: t(u),
                    priority: t(p),
                    ready: t(r),
                    job_idx: next,
                };
                next += 1;
                queue.push(e);
                heap.push(e);
            };
            for &(kind, raw, p, r) in &seeds {
                push(&mut queue, &mut heap, urgency(kind, raw, 0), p, r);
            }
            let mut rounds = rounds.into_iter();
            loop {
                let popped = queue.pop();
                prop_assert_eq!(popped.map(entry_key), heap.pop().map(entry_key));
                let Some(e) = popped else { break };
                for (kind, raw, p, r) in rounds.next().unwrap_or_default() {
                    push(&mut queue, &mut heap, urgency(kind, raw, e.urgency.ticks()), p, r);
                }
            }
            // A cleared queue starts over from urgency 0.
            push(&mut queue, &mut heap, u64::MAX, 0, 0);
            queue.clear();
            prop_assert!(queue.pop().is_none());
            push(&mut queue, &mut heap, 0, 0, 0);
            prop_assert_eq!(queue.pop().map(|e| e.urgency), Some(Time::ZERO));
        }
    }
}
