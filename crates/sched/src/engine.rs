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
//! This module splits the work into three tiers:
//!
//! * [`FrozenBase`] replays and validates the frozen schedule **once**,
//!   baking per-PE [`PeTimeline`]s, a [`BusTimeline`] occupancy
//!   snapshot, and the frozen-only slack (`Arc`-shared gap lists and bus
//!   windows).
//! * [`Scheduler`] holds reusable scratch arenas (job records, the ready
//!   heap, a per-graph priority cache keyed by the node → PE assignment)
//!   and schedules the *current* applications on top of a cheap reset of
//!   the baked base — the **full-engine** path, retained as the oracle
//!   for the tier below.
//! * [`Scheduler::schedule_delta_with_slack`] is **delta scheduling**:
//!   every successful run records its placement sequence (pop order,
//!   reservations, emitted messages, per-job heap entry/exit steps).
//!   When the next evaluation differs from the recorded one by a small
//!   design change (the single-move neighbors the MH/SA strategies
//!   explore almost exclusively), the engine computes the first
//!   placement step the change can possibly affect, *undoes* only the
//!   recorded suffix from the live timelines (no O(frozen) reset at
//!   all), splices the untouched prefix from the record, and re-runs the
//!   list scheduler for the suffix only. The result is bit-identical to
//!   the full path by construction of the divergence analysis, and the
//!   differential fuzz suite in `tests/delta_equivalence.rs` pins it
//!   against the one-shot [`crate::schedule`] oracle.
//!
//! # Delta-path decision rules
//!
//! [`Scheduler::schedule_delta_with_slack`] falls back to the full
//! engine (reset from the base and schedule everything) whenever
//!
//! * no record exists — first evaluation (a *failed* run is fine: the
//!   partially processed step is rolled back, so the completed prefix
//!   still satisfies the record invariant and infeasible trials — the
//!   bulk of the MH/SA neighborhoods — stay on the delta path), or
//! * the record was made against a *different* [`FrozenBase`] (bases
//!   carry a unique generation id; a clone keeps its originator's id
//!   because its content is identical), or
//! * the job structure changed (different apps, graph shapes, instance
//!   counts — anything that renumbers the job arena).
//!
//! Otherwise the divergence analysis decides how much of the record
//! survives: a job's recorded placement is **spliced** (kept verbatim)
//! when it was popped before the first step at which any *dirty* job
//! could have perturbed the run. A job is processing-dirty when its own
//! placement inputs changed (PE, gap hint, an out-edge slot hint, or a
//! successor's PE — the latter flips message emission on/off), and
//! key-dirty when its priority changed (a remap re-weights the moved
//! node's ancestor cone); processing-dirty jobs invalidate from their
//! recorded *pop* step, key-dirty jobs from the step they *entered the
//! ready heap*, since a changed heap key can reorder pops from that
//! point on. An arbitrary diff degrades gracefully to divergence 0 —
//! which still skips the O(frozen) timeline reset by undoing the
//! previous run's placements instead.
//!
//! # The record cache
//!
//! One live record only splices well along *chains* — it describes the
//! previous run, which the MH/SA trial loops keep abandoning: trials
//! T1, T2, T3 all neighbor the same pivot P, yet T2 would diff against
//! T1 (two moves apart) instead of P (one move). The engine therefore
//! keeps a small cache of retired records keyed by a 64-bit solution
//! fingerprint (the same FxHash key the mapping memo uses). Records
//! enter it by *promotion on demand*: the first run that names the live
//! solution as its preferred predecessor snapshots the live record into
//! the cache before replacing it — so pivots get cached the moment they
//! are revealed as pivots, while straight-line mutation chains (which
//! never look back) promote at most a couple of records before the
//! throttle stops cloning. The caller ranks the cached solutions by
//! variable diff and passes the winner's fingerprint as `prefer`; an
//! A→B→A revisit thus splices from A's own record at distance zero even
//! though B ran in between. Splicing from a cached record undoes the
//! live run only down to the common prefix of the two records and
//! *replays* the cached prefix beyond it — an exact reproduction, by
//! induction over the shared prefix. When the undo would walk nearly
//! the whole live record (early divergence — the typical remap, whose
//! priority re-weighting dirties the graph's ancestor cone), the engine
//! instead **rebases**: a bulk timeline reset from the baked base plus
//! a replay of the whole source prefix, priced against the undo walk.
//! Eviction is LRU by splice-use stamp; capacity is
//! [`Scheduler::set_record_cache_capacity`] (0 disables cached-record
//! splicing entirely, leaving single-record delta scheduling).
//!
//! The slack profiles returned by every path are `Arc`-backed
//! ([`SlackProfile::from_shared`]): untouched PEs alias the frozen
//! base's gap lists, and on the delta path PEs untouched *by the delta*
//! alias the previous evaluation's lists, so profile assembly costs one
//! reference-count bump per unchanged resource.
//!
//! A run's placements come back as [`Placements`] — jobs in step order,
//! messages in emission order, copied from the run record — not as a
//! table. The keyed entry points hand them to the caller as they are;
//! the table-returning ones build the canonical [`ScheduleTable`] with
//! [`FrozenBase::materialize`]: one sort of the placements merged with
//! the frozen table's canonical sequences.

use crate::job::JobId;
use crate::list::{AppSpec, SchedError};
use crate::pe_timeline::PeTimeline;
use crate::priority::PriorityCosts;
use crate::slack::{GapList, SlackProfile};
use crate::table::{ScheduleTable, ScheduledJob, ScheduledMessage};
use incdes_model::{AppId, Architecture, PeId, ProcRef, Time};
use incdes_obs::counters::{self, Counter};
use incdes_obs::phase::{self, Phase};
use incdes_tdma::BusTimeline;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
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

/// Source of unique [`FrozenBase`] generation ids.
static NEXT_BASE_ID: AtomicU64 = AtomicU64::new(1);

/// The frozen schedule replayed, validated and baked — built once per
/// system state, shared by every evaluation on that state (and, via
/// [`Arc`], across the campaign runner's per-step contexts).
#[derive(Debug, Clone)]
pub struct FrozenBase {
    /// Unique id of this bake (copied by `Clone` — a clone's *content*
    /// is identical, which is all the delta-record guard needs).
    id: u64,
    horizon: Time,
    /// Per-PE busy timelines holding exactly the frozen jobs.
    pes: Vec<PeTimeline>,
    /// Bus occupancy holding exactly the frozen messages.
    bus: BusTimeline,
    /// The frozen table itself (an empty one without frozen
    /// applications): its canonical job and message sequences are the
    /// pre-sorted half of every [`materialize`](Self::materialize)
    /// merge. Shared with the caller's table, not copied.
    frozen: ScheduleTable,
    /// Frozen-only idle intervals per PE, shared with every profile that
    /// leaves the PE untouched.
    pe_gaps: Vec<GapList>,
    /// Frozen-only free bus windows, in time order, shared likewise.
    bus_windows: GapList,
    /// Slot-occurrence index behind each entry of `bus_windows`.
    window_occ: Vec<u64>,
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
            for j in fr.jobs() {
                if j.pe.index() >= pes.len() {
                    return Err(SchedError::FrozenConflict);
                }
                pes[j.pe.index()]
                    .reserve(j.start, j.end)
                    .map_err(|_| SchedError::FrozenConflict)?;
            }
            // Replay messages in frame order so packing offsets reproduce.
            let mut ordered: Vec<&ScheduledMessage> = fr.messages().iter().collect();
            ordered.sort_by_key(|m| (m.reservation.occurrence, m.reservation.transmit_start));
            for m in ordered {
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
        // Consolidate the replayed reservations so every scratch
        // timeline restored from this base starts with an empty overlay
        // — per-reservation edits then never shift the frozen layer.
        for tl in &mut pes {
            tl.consolidate();
        }
        let pe_gaps = pes.iter().map(|tl| tl.gap_iter().collect()).collect();
        let mut bus_windows = Vec::new();
        let mut window_occ = Vec::new();
        for idx in 0..bus.occurrence_count() {
            let occ = bus.occurrence(idx).expect("index < count");
            let used = bus.used(idx);
            if used < occ.length {
                bus_windows.push((occ.start + used, occ.end()));
                window_occ.push(idx);
            }
        }
        counters::bump(Counter::BaseBakes);
        Ok(FrozenBase {
            id: NEXT_BASE_ID.fetch_add(1, AtomicOrdering::Relaxed),
            horizon,
            pes,
            bus,
            frozen: frozen
                .cloned()
                .unwrap_or_else(|| ScheduleTable::empty(horizon)),
            pe_gaps,
            bus_windows: bus_windows.into(),
            window_occ,
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

    /// The unique generation id of this bake. Clones share it (their
    /// content is identical); two independently built bases never do.
    /// The delta-scheduling record is guarded by this id.
    pub fn generation(&self) -> u64 {
        self.id
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

    /// The per-PE busy timelines holding exactly the frozen jobs — equal
    /// to [`ScheduleTable::pe_timelines`] of the frozen table, but
    /// without the replay: each clone shares the baked consolidated
    /// layer (one `Arc` bump per PE).
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
        &self.pe_gaps[pe.index()]
    }

    /// The shared storage behind [`gaps_of`](Self::gaps_of); profiles of
    /// evaluations that leave `pe` untouched alias it.
    pub fn gaps_shared(&self, pe: PeId) -> &GapList {
        &self.pe_gaps[pe.index()]
    }

    /// Frozen-only free bus windows, in time order.
    pub fn bus_windows(&self) -> &[(Time, Time)] {
        &self.bus_windows
    }

    /// The shared storage behind [`bus_windows`](Self::bus_windows).
    pub fn bus_windows_shared(&self) -> &GapList {
        &self.bus_windows
    }
}

/// The current applications' placements of one run: every job in step
/// (pop) order and every message in emission order, as the run record
/// keeps them. This is what the search loops score, compare and
/// memoize; the canonical [`ScheduleTable`] is built from it only on
/// demand ([`materialize`](Self::materialize)). Cloning is two
/// reference-count bumps.
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
        let mut jobs = self.jobs.to_vec();
        jobs.sort_by_key(crate::table::job_sort_key);
        let mut msgs = self.msgs.to_vec();
        msgs.sort_by_key(crate::table::message_sort_key);
        ScheduleTable::from_sorted_merge(
            frozen.horizon(),
            frozen.jobs(),
            &jobs,
            frozen.messages(),
            &msgs,
        )
    }
}

/// A design variable that changed between two evaluated solutions,
/// passed to [`Scheduler::schedule_delta_hinted_with_slack`] so the job
/// arena can be patched instead of rebuilt. Sorted order (`spec`,
/// `graph`, `node`/`edge`) matches expansion order, which keeps error
/// reporting identical to a full expansion.
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
/// updates and the heap seed touch two packed arrays rather than
/// striding through this fat record — and the loop can hold the arena
/// immutably while mutating the per-run state.
struct JobRec {
    id: JobId,
    pe: PeId,
    wcet: Time,
    release: Time,
    deadline: Time,
    priority: Time,
    gap_hint: u32,
    /// Static in-degree, kept so the dynamic state can be reset without
    /// consulting the graph.
    in_deg: u32,
    /// Index of the owning `AppSpec` in the input slice.
    spec: usize,
}

/// Ready-queue entry. Jobs are ordered by *urgency* — the latest start
/// time `deadline − partial critical path` (smaller = more urgent) — so
/// tight-deadline instances are not crowded out by lax ones sharing the
/// hyperperiod. Ties fall back to the longer critical path, then earliest
/// ready, then the smallest job index (full determinism).
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

/// Structural identity of one graph slot under the current architecture:
/// everything that shapes job expansion and message emission *besides*
/// the design variables (mapping + hints). Two runs with equal shapes,
/// equal job layout and the same [`FrozenBase`] differ only in design
/// variables, which is exactly what the per-job dirty analysis covers.
#[derive(Debug, Default, PartialEq, Eq)]
struct GraphShape {
    period: Time,
    deadline: Time,
    node_count: u32,
    /// Per edge: `(source, target, transmission time)`.
    edges: Vec<(u32, u32, Time)>,
}

impl Clone for GraphShape {
    fn clone(&self) -> Self {
        GraphShape {
            period: self.period,
            deadline: self.deadline,
            node_count: self.node_count,
            edges: self.edges.clone(),
        }
    }

    // The run record re-snapshots shapes every evaluation; reusing the
    // edge allocation keeps that free of per-eval allocations.
    fn clone_from(&mut self, source: &Self) {
        self.period = source.period;
        self.deadline = source.deadline;
        self.node_count = source.node_count;
        self.edges.clone_from(&source.edges);
    }
}

/// Immutable snapshot of the arena structure one expansion produced:
/// job layout, per-spec application ids and graph shapes. Shared
/// behind an `Arc` between the scheduler and every record expanded
/// under the same structure, so record applicability collapses to a
/// single pointer comparison instead of deep `Vec` equality per probe.
#[derive(Debug, Default, PartialEq, Eq)]
struct ArenaTag {
    horizon: Time,
    graph_bases: Vec<usize>,
    spec_offsets: Vec<usize>,
    app_ids: Vec<AppId>,
    shapes: Vec<GraphShape>,
}

/// Per-job static snapshot of one run — assigned PE, gap hint, WCET,
/// priority — packed into one struct so the divergence scan touches a
/// single cache line per job and the snapshot is one flat pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JobSnap {
    pe: PeId,
    gap_hint: u32,
    wcet: Time,
    priority: Time,
}

/// One placement step of a recorded run, in pop order.
#[derive(Debug, Clone, Copy)]
struct StepRec {
    /// Index into the job arena (stable while the job structure is).
    job: u32,
    start: Time,
    end: Time,
    /// Range into [`RunRecord::msgs`] emitted while processing this step.
    msg_lo: u32,
    msg_hi: u32,
}

/// The record of one run: everything delta scheduling needs to splice
/// an unchanged prefix and undo the changed suffix. The *live* record
/// carries the standing invariant — established on every run and voided
/// by dropping it — that the scheduler's live timelines hold exactly
/// `base(base_id) + every recorded placement`. Cached records carry no
/// timeline invariant: they describe the run that produced them, and
/// splicing from one replays the part of its prefix the live record
/// does not share.
#[derive(Debug)]
struct RunRecord {
    /// [`FrozenBase::generation`] the run was made against.
    base_id: u64,
    /// Placement steps in pop order (one per job).
    steps: Vec<StepRec>,
    /// Current-app messages in emission order, step ranges index here.
    msgs: Vec<ScheduledMessage>,
    /// Per job: its position in `steps`.
    pop_step: Vec<u32>,
    /// Per job: first step index at which it sat in the ready heap.
    push_step: Vec<u32>,
    /// Per-job static snapshot: assigned PE, gap hint, WCET, priority.
    snap: Vec<JobSnap>,
    /// Per graph slot (parallel to `graph_bases`): per-edge slot hints.
    edge_hints: Vec<Vec<u32>>,
    /// Structure guard: the arena snapshot the run was expanded under
    /// (job layout, application ids, graph shapes), shared with the
    /// scheduler's current tag while the structure is unchanged.
    arena: Arc<ArenaTag>,
    /// Slack storage of the run, if a profile was derived — the next
    /// delta run aliases the lists of PEs it does not change.
    gap_arcs: Option<Arc<[GapList]>>,
    bus_arc: Option<GapList>,
}

impl Clone for RunRecord {
    fn clone(&self) -> Self {
        RunRecord {
            base_id: self.base_id,
            steps: self.steps.clone(),
            msgs: self.msgs.clone(),
            pop_step: self.pop_step.clone(),
            push_step: self.push_step.clone(),
            snap: self.snap.clone(),
            edge_hints: self.edge_hints.clone(),
            arena: Arc::clone(&self.arena),
            gap_arcs: self.gap_arcs.clone(),
            bus_arc: self.bus_arc.clone(),
        }
    }
}

impl RunRecord {
    /// An empty record carrying no placements — only its allocations
    /// matter, every field is refilled before use.
    fn empty(arena: &Arc<ArenaTag>) -> Self {
        RunRecord {
            base_id: 0,
            steps: Vec::new(),
            msgs: Vec::new(),
            pop_step: Vec::new(),
            push_step: Vec::new(),
            snap: Vec::new(),
            edge_hints: Vec::new(),
            arena: Arc::clone(arena),
            gap_arcs: None,
            bus_arc: None,
        }
    }
}

/// Default capacity of the fingerprint-keyed record cache (the live
/// record is tracked separately and does not count against it). Sized
/// for the search loops' working set: one pivot plus the last few
/// trials; anything older is almost never the closest predecessor.
pub const RECORD_CACHE_CAP: usize = 4;

/// One fingerprint-keyed record of a successful run.
#[derive(Debug)]
struct CacheEntry {
    /// Solution fingerprint the caller stored the run under.
    fp: u64,
    /// LRU stamp (bumped on store and on use as a splice source).
    stamp: u64,
    rec: RunRecord,
}

/// Length of the shared placement prefix of two records: the leading
/// steps that placed the same job at the same time on the same PE and
/// emitted the same messages. Splicing from a cached record undoes the
/// live record only down to this point — the shared prefix is already
/// in the live timelines.
fn common_prefix_len(a: &RunRecord, b: &RunRecord) -> usize {
    let max = a.steps.len().min(b.steps.len());
    let mut i = 0;
    while i < max {
        let (sa, sb) = (a.steps[i], b.steps[i]);
        if sa.job != sb.job
            || sa.start != sb.start
            || sa.end != sb.end
            || sa.msg_lo != sb.msg_lo
            || sa.msg_hi != sb.msg_hi
            || a.snap[sa.job as usize].pe != b.snap[sb.job as usize].pe
            || a.msgs[sa.msg_lo as usize..sa.msg_hi as usize]
                != b.msgs[sb.msg_lo as usize..sb.msg_hi as usize]
        {
            break;
        }
        i += 1;
    }
    i
}

/// Bus time the current run added per slot occurrence, as a sorted
/// `(occurrence, added)` vec probed by binary search. The handful of
/// entries a run accumulates never justifies a node-allocating tree:
/// the flat vec clears without freeing, refills in place, and the slack
/// patcher's per-window probe hits one cache line.
#[derive(Default)]
struct BusDelta {
    entries: Vec<(u64, Time)>,
}

impl BusDelta {
    fn clear(&mut self) {
        self.entries.clear();
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn get(&self, occ: u64) -> Option<Time> {
        self.entries
            .binary_search_by_key(&occ, |&(o, _)| o)
            .ok()
            .map(|p| self.entries[p].1)
    }

    fn add(&mut self, occ: u64, tx: Time) {
        match self.entries.binary_search_by_key(&occ, |&(o, _)| o) {
            Ok(p) => self.entries[p].1 += tx,
            Err(p) => self.entries.insert(p, (occ, tx)),
        }
    }

    /// Takes back `tx` previously [`add`](Self::add)ed for `occ`,
    /// dropping the entry when its total reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if the occurrence was never accounted.
    fn sub(&mut self, occ: u64, tx: Time) {
        let p = self
            .entries
            .binary_search_by_key(&occ, |&(o, _)| o)
            .expect("rolled-back message was accounted");
        self.entries[p].1 -= tx;
        if self.entries[p].1.is_zero() {
            self.entries.remove(p);
        }
    }
}

/// The reusable scheduling engine: scratch arenas plus bookkeeping of
/// what the last run touched (consumed by the incremental slack path)
/// and the [`RunRecord`] the delta path splices from.
///
/// One `Scheduler` serves any number of evaluations; it is cheap to
/// construct but profitable to keep, since all per-evaluation arenas
/// (job records, ready heap, timelines, priority cache) are reused.
#[derive(Default)]
pub struct Scheduler {
    jobs: Vec<JobRec>,
    /// Dynamic per-job state, parallel to `jobs`: the earliest time the
    /// job's input data is available in the current run. Structure-of-
    /// arrays on purpose — see [`JobRec`].
    ready: Vec<Time>,
    /// Dynamic per-job state, parallel to `jobs`: predecessors not yet
    /// placed in the current run.
    preds_remaining: Vec<u32>,
    /// Static per-job snapshots parallel to `jobs`, filled by `expand`:
    /// release times and in-degrees. The incremental patch resets
    /// `ready`/`preds_remaining` from these with two flat copies
    /// instead of strided walks over the fat job structs.
    releases: Vec<Time>,
    in_degs: Vec<u32>,
    /// Flattened per-(spec, graph) base index into `jobs`.
    graph_bases: Vec<usize>,
    /// Offset of each spec's first graph in `graph_bases`.
    spec_offsets: Vec<usize>,
    /// Per graph slot: the per-edge slot hints of the current expansion.
    edge_hints: Vec<Vec<u32>>,
    /// Per graph slot: the structural shape of the current expansion.
    shapes: Vec<GraphShape>,
    heap: BinaryHeap<ReadyEntry>,
    pes: Vec<PeTimeline>,
    bus: Option<BusTimeline>,
    /// Priority cache, flattened parallel to `graph_bases`.
    prio_cache: Vec<PrioEntry>,
    assign_scratch: Vec<Option<PeId>>,
    cost_scratch: PriorityCosts,
    /// Which PEs the last run placed a new job on.
    touched: Vec<bool>,
    /// Bus time the last run added per slot occurrence.
    new_bus: BusDelta,
    /// Record describing the live timelines (`timelines = base + live
    /// placements`) — the default splice source.
    live: Option<RunRecord>,
    /// Solution fingerprint of `live`, when the caller supplied one.
    live_fp: Option<u64>,
    /// Fingerprint-keyed records of recent successful runs, the splice
    /// sources for revisit chains (A→B→A splices from A's own record
    /// instead of everything B touched).
    cache: Vec<CacheEntry>,
    /// Record-cache capacity override (`None` = [`RECORD_CACHE_CAP`]).
    cache_cap: Option<usize>,
    /// Retired record whose allocations seed the next delta run's
    /// scratch. Promotion moves the whole live record into the cache
    /// (no clone); the displaced entry's record lands here, so the
    /// steady state recycles allocations in a closed loop.
    spare: Option<RunRecord>,
    /// LRU clock for `cache`.
    cache_clock: u64,
    /// Promotions since the cache was last probed. Chain-shaped runs
    /// (every candidate's predecessor is the live record) would
    /// otherwise snapshot a record per run that nothing ever splices
    /// from; after two unprobed promotions the throttle closes, and
    /// any probe — hit or miss — reopens it (a miss is the demand
    /// signal that a pivot should have been kept).
    unprobed_promotions: u32,
    /// Scratch: which jobs the prefix replay already popped.
    popped: Vec<bool>,
    /// Job-arena provenance: `(app pointer, id)` per spec plus the
    /// horizon the arena was expanded for. A hinted delta reuses the
    /// arena only when these match exactly (same `Application` objects,
    /// so the only possible differences are the changed variables the
    /// caller lists).
    arena_apps: Vec<(usize, incdes_model::AppId)>,
    arena_horizon: Time,
    arena_valid: bool,
    /// Shared snapshot of the current arena structure. Refreshed after
    /// every full expansion but only *reallocated* when the structure
    /// actually changed, so re-expansions of the same apps keep the
    /// pointer — and with it the applicability of existing records.
    arena_tag: Arc<ArenaTag>,
    /// Scratch: PEs whose reservations the delta run changed.
    changed_pe: Vec<bool>,
    /// Whether the delta run changed any bus reservation.
    changed_bus: bool,
    /// Whether the most recent run took the delta path.
    last_run_delta: bool,
    /// Slack storage of the *previous* run, consumed by `slack_profile`.
    prev_gap_arcs: Option<Arc<[GapList]>>,
    prev_bus_arc: Option<GapList>,
    raw_schedules: usize,
    delta_schedules: usize,
    spliced_steps: usize,
    replayed_steps: usize,
    rebased_runs: usize,
    fresh_gap_lists: usize,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("raw_schedules", &self.raw_schedules)
            .field("delta_schedules", &self.delta_schedules)
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// A fresh engine with empty scratch arenas.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Number of raw schedules this engine has executed (every call to
    /// [`schedule`](Self::schedule) / [`schedule_with_slack`](Self::schedule_with_slack)
    /// / [`schedule_delta_with_slack`](Self::schedule_delta_with_slack)
    /// that got past input validation).
    pub fn raw_schedule_count(&self) -> usize {
        self.raw_schedules
    }

    /// Number of raw schedules that took the delta path (spliced a
    /// recorded prefix and undid/redid only the suffix).
    pub fn delta_schedule_count(&self) -> usize {
        self.delta_schedules
    }

    /// Total placement steps spliced verbatim from run records across
    /// all delta runs (diagnostics for tests and benches).
    pub fn spliced_step_count(&self) -> usize {
        self.spliced_steps
    }

    /// Total placement steps *replayed* from cached records into the
    /// live timelines: when a delta run splices from a cached record,
    /// the part of its prefix the live record does not share is
    /// re-reserved placement by placement (an exact reproduction — the
    /// frame state at the replay point equals the recorded run's).
    /// Always ≤ [`spliced_step_count`](Self::spliced_step_count).
    pub fn replayed_step_count(&self) -> usize {
        self.replayed_steps
    }

    /// Number of delta runs that *rebased*: reset the timelines from
    /// the baked base and replayed the whole source prefix instead of
    /// undoing the live suffix in place. Chosen per run by a cost
    /// model — an early divergence makes the in-place undo walk nearly
    /// the entire live record while the reset is a bulk copy.
    pub fn rebase_count(&self) -> usize {
        self.rebased_runs
    }

    /// Number of fingerprint-keyed records currently cached.
    pub fn record_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Overrides the record-cache capacity (default
    /// [`RECORD_CACHE_CAP`]); `0` disables fingerprint-keyed caching
    /// entirely. Shrinking evicts least-recently-used entries
    /// immediately. Exposed so the differential fuzz suite can force
    /// eviction churn.
    pub fn set_record_cache_capacity(&mut self, cap: usize) {
        self.cache_cap = Some(cap);
        while self.cache.len() > cap {
            counters::bump(Counter::RecordCacheEvictions);
            let idx = self
                .cache
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("cache is non-empty");
            self.cache.swap_remove(idx);
        }
    }

    /// Test probe: how many gap-list vectors the most recent slack
    /// derivation materialized (everything else was `Arc`-aliased from
    /// the frozen base or the previous run). Only meaningful after a
    /// `*_with_slack` call.
    #[doc(hidden)]
    pub fn fresh_gap_list_count(&self) -> usize {
        self.fresh_gap_lists
    }

    /// Which PEs the most recent run placed a new job on (indexed by
    /// PE). Empty before the first run. A failed run leaves the partial
    /// placements it made before erroring — only read this after a
    /// successful [`schedule`](Self::schedule) /
    /// [`schedule_with_slack`](Self::schedule_with_slack).
    pub fn touched_pes(&self) -> &[bool] {
        &self.touched
    }

    /// True if the most recent run placed any message on the bus. The
    /// same caveat as [`touched_pes`](Self::touched_pes) applies to
    /// failed runs.
    pub fn bus_touched(&self) -> bool {
        !self.new_bus.is_empty()
    }

    /// Schedules `apps` on top of `base`, reusing the scratch arenas.
    /// Produces exactly the table [`crate::schedule`] would produce for
    /// the same inputs. This is the **full-engine** path: the timelines
    /// are reset from the baked base and every job is placed.
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
        let placements = self.run(arch, apps, base, false, None, None, None)?;
        Ok(base.materialize(&placements))
    }

    /// Like [`schedule`](Self::schedule) but also derives the slack
    /// profile incrementally: untouched PEs alias the baked frozen-only
    /// gap lists and only bus occurrences carrying a new message have
    /// their free windows patched. The profile is identical to
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
        let placements = self.run(arch, apps, base, false, None, None, None)?;
        let slack = self.slack_profile(base);
        Ok((base.materialize(&placements), slack))
    }

    /// [`schedule_with_slack`](Self::schedule_with_slack) that also
    /// labels the run's live placement record with `fingerprint`. This
    /// is the full-path half of the keyed API: early chain links get a
    /// name — so a later delta call can claim one as its predecessor
    /// via `prefer`, promoting it into the record cache — without
    /// engaging the splice machinery themselves (which cannot amortize
    /// on short chains).
    ///
    /// Like every keyed run it returns the current placements instead
    /// of a table; [`FrozenBase::materialize`] builds the table when a
    /// caller needs one.
    ///
    /// # Errors
    ///
    /// As [`crate::schedule`].
    pub fn schedule_keyed_with_slack(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
        fingerprint: u64,
    ) -> Result<(Placements, SlackProfile), SchedError> {
        let placements = self.run(arch, apps, base, false, None, Some(fingerprint), None)?;
        let slack = self.slack_profile(base);
        Ok((placements, slack))
    }

    /// The record-cache delta entry point:
    /// [`schedule_delta_hinted_with_slack`](Self::schedule_delta_hinted_with_slack)
    /// semantics (with `changed` optional — `None` forces a full
    /// re-expansion but still splices), plus fingerprint-keyed record
    /// selection. `prefer` names the fingerprint of the cached record to
    /// splice from — normally the recorded solution with the smallest
    /// design-variable diff against the candidate, as computed by the
    /// caller over its sorted solution keys. When `prefer` is absent,
    /// names the live record (which promotes that record into the
    /// cache — the demand signal), or matches nothing applicable, the
    /// live record is spliced as usual. The run's own record becomes
    /// the live record labeled `fingerprint`, cached only if a later
    /// run claims it. Any `prefer` value is safe: records are
    /// never trusted beyond the per-job divergence analysis, so a stale
    /// or colliding fingerprint costs performance, never correctness.
    ///
    /// # Errors
    ///
    /// As [`crate::schedule`].
    pub fn schedule_delta_keyed_with_slack(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
        changed: Option<&[ChangedVar]>,
        fingerprint: u64,
        prefer: Option<u64>,
    ) -> Result<(Placements, SlackProfile), SchedError> {
        let placements = self.run(arch, apps, base, true, changed, Some(fingerprint), prefer)?;
        let slack = self.slack_profile(base);
        Ok((placements, slack))
    }

    /// The **delta-scheduling** entry point: identical results to
    /// [`schedule_with_slack`](Self::schedule_with_slack), but when a
    /// run record applies (see the module docs for the decision rules)
    /// only the placements after the first changed reservation are
    /// undone and re-placed; the unchanged prefix is spliced from the
    /// record and the O(frozen) timeline reset is skipped entirely.
    ///
    /// # Errors
    ///
    /// As [`crate::schedule`].
    pub fn schedule_delta_with_slack(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
    ) -> Result<(ScheduleTable, SlackProfile), SchedError> {
        let placements = self.run(arch, apps, base, true, None, None, None)?;
        let slack = self.slack_profile(base);
        Ok((base.materialize(&placements), slack))
    }

    /// [`schedule_delta_with_slack`](Self::schedule_delta_with_slack)
    /// without the slack profile.
    ///
    /// # Errors
    ///
    /// As [`crate::schedule`].
    pub fn schedule_delta(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
    ) -> Result<ScheduleTable, SchedError> {
        let placements = self.run(arch, apps, base, true, None, None, None)?;
        Ok(base.materialize(&placements))
    }

    /// [`schedule_delta_with_slack`](Self::schedule_delta_with_slack)
    /// with the solution diff supplied by the caller: `changed` must
    /// list **every** design variable (process mapping/gap hint, message
    /// slot hint) that differs from the previous call, in sorted order,
    /// and `apps` must reference the *same* `Application` objects as the
    /// previous call. The job arena is then patched instead of rebuilt —
    /// the dominant per-evaluation cost on small diffs. Falls back to a
    /// full expansion (and produces identical results) whenever the
    /// arena provenance does not match; debug builds additionally verify
    /// the patched arena against a full expansion.
    ///
    /// # Errors
    ///
    /// As [`crate::schedule`].
    pub fn schedule_delta_hinted_with_slack(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
        changed: &[ChangedVar],
    ) -> Result<(ScheduleTable, SlackProfile), SchedError> {
        let placements = self.run(arch, apps, base, true, Some(changed), None, None)?;
        let slack = self.slack_profile(base);
        Ok((base.materialize(&placements), slack))
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
        try_delta: bool,
        changed: Option<&[ChangedVar]>,
        fingerprint: Option<u64>,
        prefer: Option<u64>,
    ) -> Result<Placements, SchedError> {
        check_horizon(apps, base.horizon)?;
        debug_assert_eq!(arch.pe_count(), base.pes.len(), "base built for this arch");
        self.raw_schedules += 1;
        self.last_run_delta = false;
        self.prev_gap_arcs = None;
        self.prev_bus_arc = None;
        // Generation guard: a rebaked base (ids are unique per bake)
        // invalidates cached records wholesale, so a `FrozenBase` rebake
        // upstream never leaves stale records pinning dead bakes alive.
        if self.cache.iter().any(|e| e.rec.base_id != base.id) {
            self.cache.retain(|e| e.rec.base_id == base.id);
        }
        let source = {
            // Expansion and source selection count as splice work: they
            // are the delta machinery's front-end regardless of path.
            let _splice = phase::scope(Phase::Splice);
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
            if try_delta {
                self.take_splice_source(base, prefer)
            } else {
                None
            }
        };
        let result = match source {
            Some((live, cached, promote)) => {
                self.run_delta(arch, apps, base, live, cached, promote)
            }
            None => {
                // A stale record cannot splice, but its allocations are
                // recycled into the new one.
                let old = self.live.take();
                self.run_full(arch, apps, base, old)
            }
        };
        // The live record now describes this candidate. Records enter
        // the fingerprint-keyed cache by *promotion* — the first trial
        // that names the live record as its predecessor moves it into
        // the cache whole once the run that replaces it completes — so
        // promotion never clones, and runs never spliced from again
        // (the common case: rejected trials) cost nothing at all.
        self.live_fp = fingerprint;
        result
    }

    /// Chooses the splice sources for a delta run. The live record must
    /// apply — it is what the undo unwinds — or the run falls back to
    /// the full path. When the caller prefers a cached record of a
    /// different solution and it applies too, it is pulled from the
    /// cache (returned to it after the run) so the run can splice the
    /// cached prefix instead of the live one.
    fn take_splice_source(
        &mut self,
        base: &FrozenBase,
        prefer: Option<u64>,
    ) -> Option<(RunRecord, Option<CacheEntry>, bool)> {
        if !self
            .live
            .as_ref()
            .is_some_and(|rec| self.record_applicable(rec, base))
        {
            return None;
        }
        let mut promote = false;
        let cached = prefer.and_then(|fp| {
            if self.live_fp == Some(fp) {
                // The preferred predecessor IS the live record: splice
                // from it directly, and promote it into the cache —
                // being named as a predecessor marks it as a pivot
                // later trials will want to splice from after the live
                // record moves on to this candidate. The promotion is
                // a *move* after the run (the record survives the run
                // intact), so it costs no clone; the throttle keeps
                // chain-shaped runs from flooding the cache anyway.
                if self.unprobed_promotions < 2 {
                    promote = true;
                    self.unprobed_promotions += 1;
                }
                return None;
            }
            self.unprobed_promotions = 0;
            let idx = match self
                .cache
                .iter()
                .position(|e| e.fp == fp && self.record_applicable(&e.rec, base))
            {
                Some(idx) => idx,
                None => {
                    // Evicted or never promoted: the live record still
                    // applies, so the run silently splices from it.
                    counters::bump(Counter::RecordCacheFallbacks);
                    return None;
                }
            };
            counters::bump(Counter::RecordCacheHits);
            let mut entry = self.cache.swap_remove(idx);
            self.cache_clock += 1;
            entry.stamp = self.cache_clock;
            Some(entry)
        });
        Some((self.live.take().expect("checked above"), cached, promote))
    }

    /// Whether `rec` can seed a delta run on `base` with the *current*
    /// expansion: same base, same job-arena layout, and the same graph
    /// shapes (periods, deadlines, topology, message transmission
    /// times) — so the only possible differences are the design
    /// variables the per-job dirty analysis inspects.
    fn record_applicable(&self, rec: &RunRecord, base: &FrozenBase) -> bool {
        // Structure equality is one pointer comparison: expansion only
        // reallocates the tag when the structure changed, so records
        // made under the same layout keep sharing the scheduler's tag.
        rec.base_id == base.id
            && rec.snap.len() == self.jobs.len()
            && Arc::ptr_eq(&rec.arena, &self.arena_tag)
    }

    /// Moves a retired record into the fingerprint-keyed cache under
    /// `fp` — no clone; the displaced entry's record (if any) becomes
    /// the spare that seeds the next run's scratch. Slack arcs are not
    /// cached — only the live record's arcs seed the next profile
    /// derivation (the caller already took them).
    fn cache_insert_move(&mut self, fp: u64, mut rec: RunRecord) {
        let cap = self.cache_cap.unwrap_or(RECORD_CACHE_CAP);
        if cap == 0 {
            self.spare = Some(rec);
            return;
        }
        debug_assert!(rec.gap_arcs.is_none() && rec.bus_arc.is_none());
        counters::bump(Counter::RecordCachePromotions);
        self.cache_clock += 1;
        let stamp = self.cache_clock;
        rec.gap_arcs = None;
        rec.bus_arc = None;
        if let Some(entry) = self.cache.iter_mut().find(|e| e.fp == fp) {
            entry.stamp = stamp;
            self.spare = Some(std::mem::replace(&mut entry.rec, rec));
        } else if self.cache.len() >= cap {
            // Evict the least recently used entry, retiring its record.
            counters::bump(Counter::RecordCacheEvictions);
            let idx = self
                .cache
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("cache is non-empty");
            let entry = &mut self.cache[idx];
            entry.fp = fp;
            entry.stamp = stamp;
            self.spare = Some(std::mem::replace(&mut entry.rec, rec));
        } else {
            self.cache.push(CacheEntry { fp, stamp, rec });
        }
    }

    /// Expands `apps` into the job arena (priorities served from the
    /// cache) and snapshots the per-graph edge slot hints. Touches no
    /// timeline state, so an expansion error preserves a pending run
    /// record.
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
            ready,
            preds_remaining,
            graph_bases,
            spec_offsets,
            edge_hints,
            shapes,
            prio_cache,
            assign_scratch,
            cost_scratch,
            ..
        } = self;
        jobs.clear();
        ready.clear();
        preds_remaining.clear();
        graph_bases.clear();
        spec_offsets.clear();
        for (si, spec) in apps.iter().enumerate() {
            spec_offsets.push(graph_bases.len());
            for (gi, g) in spec.app.graphs.iter().enumerate() {
                let flat = graph_bases.len();
                graph_bases.push(jobs.len());
                // The per-slot hint and shape snapshots recycle their
                // inner allocations across evaluations (truncated to
                // the slot count below), like every other arena here.
                if edge_hints.len() <= flat {
                    edge_hints.push(Vec::new());
                    shapes.push(GraphShape::default());
                }
                let eh = &mut edge_hints[flat];
                eh.clear();
                eh.extend(
                    g.dag()
                        .edge_ids()
                        .map(|e| spec.hints.msg_slot(crate::mapping::MsgRef::new(gi, e))),
                );
                let sh = &mut shapes[flat];
                sh.period = g.period;
                sh.deadline = g.deadline;
                sh.node_count = g.process_count() as u32;
                sh.edges.clear();
                sh.edges.extend(g.dag().edge_ids().map(|e| {
                    let (s, t) = g.dag().endpoints(e);
                    (
                        s.index() as u32,
                        t.index() as u32,
                        arch.bus().transmission_time(g.message(e).bytes),
                    )
                }));
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

                let instances = horizon.ticks() / g.period.ticks();
                for k in 0..instances as u32 {
                    let release = Time::new(k as u64 * g.period.ticks());
                    let deadline = release + g.deadline;
                    for n in g.dag().node_ids() {
                        let pr = ProcRef::new(gi, n);
                        let pe = spec
                            .mapping
                            .pe_of(pr)
                            .ok_or(SchedError::MappingIncomplete {
                                app: spec.id,
                                proc_ref: pr,
                            })?;
                        let wcet = g.process(n).wcets.get(pe).ok_or(SchedError::NotAllowed {
                            app: spec.id,
                            proc_ref: pr,
                            pe,
                        })?;
                        let in_deg = g.dag().in_degree(n) as u32;
                        jobs.push(JobRec {
                            id: JobId::new(spec.id, gi, k, n),
                            pe,
                            wcet,
                            release,
                            deadline,
                            priority: prio[n.index()],
                            gap_hint: spec.hints.proc_gap(pr),
                            in_deg,
                            spec: si,
                        });
                        ready.push(release);
                        preds_remaining.push(in_deg);
                    }
                }
            }
        }
        self.edge_hints.truncate(self.graph_bases.len());
        self.shapes.truncate(self.graph_bases.len());
        self.releases.clear();
        self.releases.extend(self.jobs.iter().map(|j| j.release));
        self.in_degs.clear();
        self.in_degs.extend(self.jobs.iter().map(|j| j.in_deg));
        self.refresh_arena_tag();
        self.arena_valid = true;
        Ok(())
    }

    /// Re-tags the arena after a full expansion. The deep structural
    /// comparison happens here — once per expansion — instead of per
    /// applicability probe; when nothing changed the existing `Arc` is
    /// kept, so records expanded under the same structure stay
    /// pointer-equal to the scheduler's tag.
    fn refresh_arena_tag(&mut self) {
        let tag = &self.arena_tag;
        let unchanged = tag.horizon == self.arena_horizon
            && tag.graph_bases == self.graph_bases
            && tag.spec_offsets == self.spec_offsets
            && tag.app_ids.len() == self.arena_apps.len()
            && tag
                .app_ids
                .iter()
                .zip(&self.arena_apps)
                .all(|(&id, &(_, cur))| id == cur)
            && tag.shapes == self.shapes;
        if !unchanged {
            self.arena_tag = Arc::new(ArenaTag {
                horizon: self.arena_horizon,
                graph_bases: self.graph_bases.clone(),
                spec_offsets: self.spec_offsets.clone(),
                app_ids: self.arena_apps.iter().map(|&(_, id)| id).collect(),
                shapes: self.shapes.clone(),
            });
        }
    }

    /// Patches the existing job arena with `changed` design variables
    /// instead of re-expanding: dynamic state is reset with plain
    /// stores, only the listed processes re-resolve their PE/WCET/hint,
    /// and only graphs with a mapping change refresh priorities.
    /// Returns `Ok(false)` when the arena cannot be reused (different
    /// apps, different horizon, or a previous expansion error) — the
    /// caller then falls back to a full expansion.
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

        self.ready.clone_from(&self.releases);
        self.preds_remaining.clone_from(&self.in_degs);

        // Apply the changed variables (sorted order = expansion order,
        // so a MappingIncomplete/NotAllowed error surfaces for the same
        // process a full expansion would report first: unchanged
        // processes stayed valid since they were last expanded).
        let mut prio_dirty_prev = usize::MAX;
        for &var in changed {
            match var {
                ChangedVar::Proc { spec, graph, node } => {
                    let sp = &apps[spec];
                    let g = &sp.app.graphs[graph];
                    let pr = ProcRef::new(graph, node);
                    let pe = sp.mapping.pe_of(pr).ok_or(SchedError::MappingIncomplete {
                        app: sp.id,
                        proc_ref: pr,
                    })?;
                    let wcet = g
                        .process(node)
                        .wcets
                        .get(pe)
                        .ok_or(SchedError::NotAllowed {
                            app: sp.id,
                            proc_ref: pr,
                            pe,
                        })?;
                    let hint = sp.hints.proc_gap(pr);
                    let flat = self.spec_offsets[spec] + graph;
                    let nodes = g.process_count();
                    let instances = (horizon.ticks() / g.period.ticks()) as usize;
                    // Priorities are a pure function of the graph's
                    // mapping (node WCETs on the assigned PEs, edge
                    // same-PE-ness) — a gap-hint-only change cannot
                    // move them, so the cost rebuild below keys on the
                    // PE actually changing (instance 0 still holds the
                    // pre-patch assignment here).
                    let remapped = self.jobs[self.graph_bases[flat] + node.index()].pe != pe;
                    for k in 0..instances {
                        let j = &mut self.jobs[self.graph_bases[flat] + k * nodes + node.index()];
                        j.pe = pe;
                        j.wcet = wcet;
                        j.gap_hint = hint;
                    }
                    // Refresh the graph's priorities once per remapped
                    // graph (vars are sorted, so repeats are adjacent).
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
                        // Every expansion that touches a graph leaves its
                        // jobs holding `entry.prio`, so when the rebuilt
                        // costs match the cached ones the arena is
                        // already consistent — no recompute, no rewrite.
                        if entry.costs != *cost_scratch {
                            {
                                let _refresh = phase::scope(Phase::PriorityRefresh);
                                entry.prio = cost_scratch.priorities(g);
                                std::mem::swap(&mut entry.costs, cost_scratch);
                            }
                            for k in 0..instances {
                                for n in 0..nodes {
                                    jobs[graph_bases[flat] + k * nodes + n].priority =
                                        entry.prio[n];
                                }
                            }
                        }
                    }
                }
                ChangedVar::Msg { spec, graph, edge } => {
                    let sp = &apps[spec];
                    let flat = self.spec_offsets[spec] + graph;
                    self.edge_hints[flat][edge.index()] =
                        sp.hints.msg_slot(crate::mapping::MsgRef::new(graph, edge));
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
        let snap: Vec<(PeId, Time, Time, u32, u32, Time)> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                (
                    j.pe,
                    j.wcet,
                    j.priority,
                    j.gap_hint,
                    self.preds_remaining[i],
                    self.ready[i],
                )
            })
            .collect();
        let hints_snap = self.edge_hints.clone();
        self.expand(arch, apps, horizon)?;
        assert_eq!(self.jobs.len(), snap.len(), "patched arena lost jobs");
        for (i, (j, s)) in self.jobs.iter().zip(&snap).enumerate() {
            assert_eq!(
                (
                    j.pe,
                    j.wcet,
                    j.priority,
                    j.gap_hint,
                    self.preds_remaining[i],
                    self.ready[i]
                ),
                *s,
                "incremental expansion diverged from full expansion for {:?}",
                j.id
            );
        }
        assert_eq!(self.edge_hints, hints_snap, "edge hints diverged");
        Ok(())
    }

    /// The full-engine path: reset the timelines from the baked base and
    /// place every job. `old` is a stale record whose allocations are
    /// recycled into the new one.
    fn run_full(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
        old: Option<RunRecord>,
    ) -> Result<Placements, SchedError> {
        debug_assert!(self.live.is_none(), "caller took the old record");
        let horizon = base.horizon;
        let n = self.jobs.len();

        let (mut steps, mut rec_msgs, mut pop_step, mut push_step, carcass) = recycle(old, n);

        let Scheduler {
            jobs,
            ready,
            preds_remaining,
            graph_bases,
            spec_offsets,
            heap,
            pes,
            bus,
            touched,
            new_bus,
            ..
        } = self;

        // --- Reset scratch from the baked base ---------------------------
        // (the full path's analogue of the delta undo: bring the
        // timelines back to `base`)
        {
            let _undo = phase::scope(Phase::Undo);
            if pes.len() == base.pes.len() {
                for (tl, b) in pes.iter_mut().zip(&base.pes) {
                    tl.copy_from(b);
                }
            } else {
                *pes = base.pes.clone();
            }
            match bus {
                Some(b)
                    if b.horizon() == horizon
                        && b.occurrence_count() == base.bus.occurrence_count() =>
                {
                    b.reset_from(&base.bus);
                }
                _ => *bus = Some(base.bus.clone()),
            }
            touched.clear();
            touched.resize(base.pes.len(), false);
            new_bus.clear();
        }
        let bus = bus.as_mut().expect("just set");

        let _replace = phase::scope(Phase::RePlace);
        heap.clear();
        let mut seeded = 0u64;
        for (i, &p) in preds_remaining.iter().enumerate() {
            if p == 0 {
                push_step[i] = 0;
                heap.push(ReadyEntry::of(jobs, ready, i));
                seeded += 1;
            }
        }
        counters::add(Counter::HeapPushes, seeded);

        let run = schedule_loop(
            arch,
            apps,
            jobs,
            ready,
            preds_remaining,
            graph_bases,
            spec_offsets,
            heap,
            pes,
            bus,
            touched,
            new_bus,
            &mut steps,
            &mut rec_msgs,
            &mut push_step,
            &mut pop_step,
        );

        let placements = run
            .as_ref()
            .ok()
            .map(|()| self.placements(&steps, &rec_msgs));
        // A failed run's *completed* steps still satisfy the record
        // invariant (the partial step was rolled back), so infeasible
        // trials keep a splice source for the next evaluation.
        self.store_record(base, steps, rec_msgs, pop_step, push_step, carcass);
        run?;
        Ok(placements.expect("run succeeded"))
    }

    /// The delta path: the splice source (`cached` if present, else
    /// `live`) applies to the current expansion, and the live timelines
    /// hold exactly `base + live placements`. When splicing from a
    /// cached record the undo stops at the common prefix of the two
    /// records and the cached prefix beyond it is *replayed* into the
    /// timelines — an exact reproduction, because the timeline and
    /// frame-tail state at every replayed step equals the recorded
    /// run's state at that step by induction over the shared prefix.
    fn run_delta(
        &mut self,
        arch: &Architecture,
        apps: &[AppSpec<'_>],
        base: &FrozenBase,
        mut live: RunRecord,
        cached: Option<CacheEntry>,
        promote: bool,
    ) -> Result<Placements, SchedError> {
        let n = self.jobs.len();
        let (div, keep) = {
            let _splice = phase::scope(Phase::Splice);
            let src = cached.as_ref().map_or(&live, |e| &e.rec);
            let div = self.divergence(apps, src);
            let keep = match cached.as_ref() {
                Some(e) => div.min(common_prefix_len(&live, &e.rec)),
                None => div,
            };
            (div, keep)
        };
        // Two ways to bring the timelines to `base + src[0..div)`:
        // unwind the live suffix in place (cheap when the live run
        // shares a long prefix with the source, as in raw mutation
        // streams), or reset from the baked base — a bulk copy — and
        // replay the whole source prefix (cheap when the divergence is
        // early and the undo would walk nearly the entire live
        // record, as in pivot/trial neighborhoods where a remap
        // re-weights the whole graph's priorities). The reset is
        // priced at a fraction of the per-step splice-out cost.
        let rebase = live.steps.len() - keep > keep + base.frozen_job_count() / 16 + 2;
        self.delta_schedules += 1;
        self.spliced_steps += div;
        self.replayed_steps += if rebase { div } else { div - keep };
        if rebase {
            self.rebased_runs += 1;
            counters::bump(Counter::DeltaRebases);
        } else {
            counters::add(Counter::SpliceStepsUndone, (live.steps.len() - keep) as u64);
        }
        counters::add(Counter::SpliceStepsSpliced, div as u64);
        counters::add(
            Counter::SpliceStepsReplayed,
            (if rebase { div } else { div - keep }) as u64,
        );
        self.last_run_delta = true;
        self.prev_gap_arcs = live.gap_arcs.take();
        self.prev_bus_arc = live.bus_arc.take();

        // Scratch recycled from the spare record (retired by an earlier
        // promotion or run); its vectors become the carcass
        // `store_record` refills below. The live record survives the
        // run intact: it is the undo source, and a promotion moves it
        // into the cache whole instead of cloning it.
        let mut spare = self
            .spare
            .take()
            .unwrap_or_else(|| RunRecord::empty(&self.arena_tag));
        let mut pop_step = std::mem::take(&mut spare.pop_step);
        let mut push_step = std::mem::take(&mut spare.push_step);
        let mut steps = std::mem::take(&mut spare.steps);
        let mut rec_msgs = std::mem::take(&mut spare.msgs);

        let Scheduler {
            jobs,
            ready,
            preds_remaining,
            graph_bases,
            spec_offsets,
            heap,
            pes,
            bus,
            touched,
            new_bus,
            popped,
            changed_pe,
            changed_bus,
            ..
        } = self;
        let bus = bus.as_mut().expect("delta follows a recorded run");

        changed_pe.clear();
        changed_pe.resize(pes.len(), false);
        *changed_bus = false;

        let (src_steps, src_msgs, src_snap): (&[StepRec], &[ScheduledMessage], &[JobSnap]) =
            match cached.as_ref() {
                Some(e) => (&e.rec.steps, &e.rec.msgs, &e.rec.snap),
                None => (&live.steps, &live.msgs, &live.snap),
            };

        let replay_from = {
            let _undo = phase::scope(Phase::Undo);
            if rebase {
                // --- Rebase: wipe the live run with a bulk reset --------
                // Every PE the wiped run had touched may end up with a
                // different gap list, so its previous-profile alias is
                // dead.
                for step in live.steps.iter() {
                    changed_pe[live.snap[step.job as usize].pe.index()] = true;
                }
                if !live.msgs.is_empty() {
                    *changed_bus = true;
                }
                for (tl, b) in pes.iter_mut().zip(&base.pes) {
                    tl.copy_from(b);
                }
                bus.reset_from(&base.bus);
                0
            } else {
                // --- Undo the live suffix (reverse order, frame tails
                // unwind)
                for step in live.steps[keep..].iter().rev() {
                    for m in live.msgs[step.msg_lo as usize..step.msg_hi as usize]
                        .iter()
                        .rev()
                    {
                        bus.unreserve_tail(&m.reservation);
                        *changed_bus = true;
                    }
                    let pe = live.snap[step.job as usize].pe;
                    pes[pe.index()].unreserve(step.start, step.end);
                    changed_pe[pe.index()] = true;
                }
                keep
            }
        };
        let splice_scope = phase::scope(Phase::Splice);

        // --- Replay the source prefix the timelines do not hold ----------
        // (an in-place undo from the live source leaves `replay_from ==
        // keep == div` and the range is empty)
        for step in &src_steps[replay_from..div] {
            let pe = src_snap[step.job as usize].pe;
            pes[pe.index()]
                .reserve(step.start, step.end)
                .expect("replayed placement fits its recorded interval");
            changed_pe[pe.index()] = true;
            for m in &src_msgs[step.msg_lo as usize..step.msg_hi as usize] {
                let r = bus
                    .reserve_in_occurrence(
                        m.reservation.owner,
                        m.reservation.occurrence,
                        m.reservation.duration(),
                    )
                    .expect("replayed message fits its recorded frame");
                debug_assert_eq!(
                    r.transmit_start, m.reservation.transmit_start,
                    "replayed reservation reproduces the recorded offset"
                );
                *changed_bus = true;
            }
        }
        let prefix_msg_count = if div == 0 {
            0
        } else {
            src_steps[div - 1].msg_hi as usize
        };

        // --- Splice the prefix from the source record --------------------
        touched.clear();
        touched.resize(base.pes.len(), false);
        new_bus.clear();
        popped.clear();
        popped.resize(n, false);
        pop_step.clear();
        pop_step.resize(n, u32::MAX);
        push_step.clear();
        push_step.resize(n, u32::MAX);
        for (i, &p) in preds_remaining.iter().enumerate() {
            if p == 0 {
                push_step[i] = 0;
            }
        }

        for (s, step) in src_steps[..div].iter().enumerate() {
            let idx = step.job as usize;
            let j = &jobs[idx];
            debug_assert_eq!(j.pe, src_snap[idx].pe, "spliced jobs are clean");
            touched[j.pe.index()] = true;
            popped[idx] = true;
            pop_step[idx] = s as u32;

            // Re-derive successor readiness from the recorded outputs.
            let (si, graph, instance, node, pe, end) =
                (j.spec, j.id.graph, j.id.instance, j.id.node, j.pe, step.end);
            let g = &apps[si].app.graphs[graph];
            let mut cursor = step.msg_lo as usize;
            for &e in g.dag().out_edges(node) {
                let succ_node = g.dag().target(e);
                let succ_idx = job_index(
                    apps,
                    graph_bases,
                    spec_offsets,
                    si,
                    graph,
                    instance,
                    succ_node,
                );
                let data_ready = if jobs[succ_idx].pe == pe {
                    end
                } else {
                    let m = src_msgs[cursor];
                    cursor += 1;
                    new_bus.add(m.reservation.occurrence, m.reservation.duration());
                    m.reservation.arrival
                };
                ready[succ_idx] = ready[succ_idx].max(data_ready);
                preds_remaining[succ_idx] -= 1;
                if preds_remaining[succ_idx] == 0 {
                    push_step[succ_idx] = s as u32 + 1;
                }
            }
            debug_assert_eq!(cursor, step.msg_hi as usize, "recorded messages consumed");
        }

        // --- Seed the heap with the ready-but-unpopped set ---------------
        heap.clear();
        let mut seeded = 0u64;
        for i in 0..n {
            if !popped[i] && preds_remaining[i] == 0 {
                heap.push(ReadyEntry::of(jobs, ready, i));
                seeded += 1;
            }
        }
        counters::add(Counter::HeapPushes, seeded);

        // --- Re-place the suffix through the ordinary loop ---------------
        // The scratch vectors receive the source prefix (the suffix is
        // appended by the loop below). Always a copy — the source
        // record survives the run, so the live one can be promoted
        // into the cache by move.
        steps.clear();
        steps.extend_from_slice(&src_steps[..div]);
        rec_msgs.clear();
        rec_msgs.extend_from_slice(&src_msgs[..prefix_msg_count]);
        let before_msgs = rec_msgs.len();
        drop(splice_scope);

        let _replace = phase::scope(Phase::RePlace);
        let run = schedule_loop(
            arch,
            apps,
            jobs,
            ready,
            preds_remaining,
            graph_bases,
            spec_offsets,
            heap,
            pes,
            bus,
            touched,
            new_bus,
            &mut steps,
            &mut rec_msgs,
            &mut push_step,
            &mut pop_step,
        );

        // Every suffix placement (or message) changes its resource
        // (only consulted by the slack derivation, i.e. on success).
        for step in &steps[div..] {
            changed_pe[jobs[step.job as usize].pe.index()] = true;
        }
        if rec_msgs.len() > before_msgs {
            *changed_bus = true;
        }

        let placements = run
            .as_ref()
            .ok()
            .map(|()| self.placements(&steps, &rec_msgs));
        // The borrowed cache entry goes back untouched (its stamp was
        // already bumped when it was chosen).
        if let Some(entry) = cached {
            self.cache.push(entry);
        }
        // Completed steps of a failed run still satisfy the record
        // invariant — see `run_full` for why that matters.
        self.store_record(base, steps, rec_msgs, pop_step, push_step, Some(spare));
        // Retire the old live record: a promotion moves it into the
        // cache whole; otherwise its allocations seed the next run's
        // scratch. Promotion happens even for a failed run — the
        // record describes the *previous* successful run either way.
        if promote {
            let fp = self
                .live_fp
                .expect("promotion implies a labeled live record");
            self.cache_insert_move(fp, live);
        } else {
            self.spare = Some(live);
        }
        run?;
        Ok(placements.expect("run succeeded"))
    }

    /// The current run's placements, straight from its step and message
    /// record: jobs in step order, messages in emission order. No sort
    /// and no merge with the frozen part — the table is built only when
    /// a caller asks for one ([`FrozenBase::materialize`]).
    fn placements(&self, steps: &[StepRec], rec_msgs: &[ScheduledMessage]) -> Placements {
        let jobs = &self.jobs;
        Placements {
            jobs: steps
                .iter()
                .map(|s| {
                    let j = &jobs[s.job as usize];
                    ScheduledJob {
                        job: j.id,
                        pe: j.pe,
                        start: s.start,
                        end: s.end,
                        release: j.release,
                        deadline: j.deadline,
                    }
                })
                .collect(),
            msgs: rec_msgs.into(),
        }
    }

    /// The first recorded step the current expansion could possibly
    /// perturb (see the module docs for the rule).
    fn divergence(&self, apps: &[AppSpec<'_>], rec: &RunRecord) -> usize {
        let jobs = &self.jobs;
        let mut div = rec.steps.len() as u32;
        // Per-job field diffs first — a tight scan over parallel arrays
        // with no graph walks. A moved job also re-routes the messages
        // its predecessors send, so each predecessor of a pe-changed
        // job is dirty too; that walk runs only for the handful of
        // jobs a patch actually moved.
        for idx in 0..jobs.len() {
            let j = &jobs[idx];
            let s = &rec.snap[idx];
            if j.pe != s.pe {
                div = div.min(rec.pop_step[idx]);
                let g = &apps[j.spec].app.graphs[j.id.graph];
                for &e in g.dag().in_edges(j.id.node) {
                    let pred_idx = job_index(
                        apps,
                        &self.graph_bases,
                        &self.spec_offsets,
                        j.spec,
                        j.id.graph,
                        j.id.instance,
                        g.dag().source(e),
                    );
                    div = div.min(rec.pop_step[pred_idx]);
                }
            } else if j.gap_hint != s.gap_hint || j.wcet != s.wcet {
                div = div.min(rec.pop_step[idx]);
            }
            if j.priority != s.priority {
                div = div.min(rec.push_step[idx]);
            }
        }
        // Changed edge-slot hints dirty the sending job of every
        // instance; whole-vector equality is the common fast path.
        for (si, sp) in apps.iter().enumerate() {
            for (graph, g) in sp.app.graphs.iter().enumerate() {
                let flat = self.spec_offsets[si] + graph;
                if self.edge_hints[flat] == rec.edge_hints[flat] {
                    continue;
                }
                let nodes = g.process_count();
                let instances = (self.arena_horizon.ticks() / g.period.ticks()) as usize;
                for n in g.dag().node_ids() {
                    for &e in g.dag().out_edges(n) {
                        if self.edge_hints[flat][e.index()] == rec.edge_hints[flat][e.index()] {
                            continue;
                        }
                        for k in 0..instances {
                            let idx = self.graph_bases[flat] + k * nodes + n.index();
                            div = div.min(rec.pop_step[idx]);
                        }
                    }
                }
            }
        }
        div as usize
    }

    /// Snapshots the finished run into `self.live` (the delta-splice
    /// source for the next evaluation), recycling the previous record's
    /// allocations: a steady-state evaluation snapshots with zero fresh
    /// allocations. Oversized arenas are never recorded — `u32` step
    /// indices cover every realistic horizon.
    fn store_record(
        &mut self,
        base: &FrozenBase,
        steps: Vec<StepRec>,
        msgs: Vec<ScheduledMessage>,
        pop_step: Vec<u32>,
        push_step: Vec<u32>,
        carcass: Option<RunRecord>,
    ) {
        if self.jobs.len() >= u32::MAX as usize || msgs.len() >= u32::MAX as usize {
            self.live = None;
            return;
        }
        let mut rec = carcass.unwrap_or_else(|| RunRecord::empty(&self.arena_tag));
        rec.base_id = base.id;
        rec.steps = steps;
        rec.msgs = msgs;
        rec.pop_step = pop_step;
        rec.push_step = push_step;
        rec.snap.clear();
        rec.snap.extend(self.jobs.iter().map(|j| JobSnap {
            pe: j.pe,
            gap_hint: j.gap_hint,
            wcet: j.wcet,
            priority: j.priority,
        }));
        rec.edge_hints.clone_from(&self.edge_hints);
        rec.arena = Arc::clone(&self.arena_tag);
        rec.gap_arcs = None;
        rec.bus_arc = None;
        self.live = Some(rec);
    }

    /// The incremental slack of the most recent successful run: gap
    /// lists of untouched PEs alias the base, unchanged-by-delta PEs
    /// alias the previous run's profile, and only changed resources are
    /// re-derived from the live timelines.
    fn slack_profile(&mut self, base: &FrozenBase) -> SlackProfile {
        let _slack = phase::scope(Phase::Slack);
        let prev_gaps = self.prev_gap_arcs.take();
        let prev_bus = self.prev_bus_arc.take();
        let mut fresh = 0usize;
        let mut pe_gaps: Vec<GapList> = Vec::with_capacity(self.pes.len());
        for i in 0..self.pes.len() {
            let arc = if !self.touched[i] {
                counters::bump(Counter::SlackGapsAliased);
                Arc::clone(&base.pe_gaps[i])
            } else if self.last_run_delta && !self.changed_pe[i] {
                match prev_gaps.as_ref() {
                    // The PE kept every reservation of the previous run,
                    // so the previous profile's list is bit-identical.
                    Some(prev) => {
                        counters::bump(Counter::SlackGapsAliased);
                        Arc::clone(&prev[i])
                    }
                    None => {
                        fresh += 1;
                        counters::bump(Counter::SlackGapsMaterialized);
                        self.pes[i].gap_iter().collect()
                    }
                }
            } else {
                fresh += 1;
                counters::bump(Counter::SlackGapsMaterialized);
                self.pes[i].gap_iter().collect()
            };
            pe_gaps.push(arc);
        }
        // One shared slab for the whole per-PE table: the profile, the
        // live record's alias source and every memo clone downstream
        // share it by reference-count bump instead of re-cloning
        // `pe_count` inner `Arc`s each.
        let pe_gaps: Arc<[GapList]> = pe_gaps.into();

        let bus_arc = if self.new_bus.is_empty() {
            counters::bump(Counter::BusWindowsAliased);
            Arc::clone(&base.bus_windows)
        } else if self.last_run_delta && !self.changed_bus && prev_bus.is_some() {
            counters::bump(Counter::BusWindowsAliased);
            prev_bus.expect("just checked")
        } else {
            // Every occurrence a new message landed in had free room, so
            // it appears in the baked window list; patching is a linear
            // merge.
            counters::bump(Counter::BusWindowsPatched);
            let mut patched = 0usize;
            let mut windows = Vec::with_capacity(base.bus_windows.len());
            for (k, &(ws, we)) in base.bus_windows.iter().enumerate() {
                match self.new_bus.get(base.window_occ[k]) {
                    None => windows.push((ws, we)),
                    Some(added) => {
                        patched += 1;
                        let ns = ws + added;
                        if ns < we {
                            windows.push((ns, we));
                        }
                    }
                }
            }
            debug_assert_eq!(
                patched,
                self.new_bus.len(),
                "every new message lands in a baked window"
            );
            windows.into()
        };

        self.fresh_gap_lists = fresh;
        if let Some(rec) = &mut self.live {
            rec.gap_arcs = Some(Arc::clone(&pe_gaps));
            rec.bus_arc = Some(Arc::clone(&bus_arc));
        }
        SlackProfile::from_shared(base.horizon, pe_gaps, bus_arc)
    }
}

/// Breaks a stale record into reusable bookkeeping vectors for the next
/// run: steps/messages cleared, pop/push step maps refilled for `n`
/// jobs, plus the carcass whose snapshot vectors `store_record` will
/// recycle.
#[allow(clippy::type_complexity)]
fn recycle(
    old: Option<RunRecord>,
    n: usize,
) -> (
    Vec<StepRec>,
    Vec<ScheduledMessage>,
    Vec<u32>,
    Vec<u32>,
    Option<RunRecord>,
) {
    match old {
        Some(mut rec) => {
            let mut steps = std::mem::take(&mut rec.steps);
            let mut msgs = std::mem::take(&mut rec.msgs);
            let mut pop = std::mem::take(&mut rec.pop_step);
            let mut push = std::mem::take(&mut rec.push_step);
            steps.clear();
            msgs.clear();
            pop.clear();
            pop.resize(n, u32::MAX);
            push.clear();
            push.resize(n, u32::MAX);
            (steps, msgs, pop, push, Some(rec))
        }
        None => (
            Vec::new(),
            Vec::new(),
            vec![u32::MAX; n],
            vec![u32::MAX; n],
            None,
        ),
    }
}

/// Flat index of job `(si, gi, instance, node)` in the arena.
fn job_index(
    apps: &[AppSpec<'_>],
    graph_bases: &[usize],
    spec_offsets: &[usize],
    si: usize,
    gi: usize,
    instance: u32,
    node: incdes_graph::NodeId,
) -> usize {
    let g = &apps[si].app.graphs[gi];
    graph_bases[spec_offsets[si] + gi] + instance as usize * g.process_count() + node.index()
}

/// The list-scheduling loop shared by the full and delta paths: pops
/// ready jobs from `heap` until none remain, reserving processor time
/// and bus slots, appending to the output table vectors and the run
/// record being built. The caller has already seeded the heap and (for
/// the delta path) spliced the prefix.
///
/// On failure the partially processed step is **rolled back** — its
/// reservation and any messages it already placed are undone — so the
/// completed steps still satisfy the record invariant (`timelines =
/// base + steps`). Infeasible trials are the bread and butter of the
/// SA/MH neighborhoods; keeping their prefixes splicable means a failed
/// evaluation never knocks the chain back onto the full path.
#[allow(clippy::too_many_arguments)]
fn schedule_loop(
    arch: &Architecture,
    apps: &[AppSpec<'_>],
    jobs: &[JobRec],
    ready: &mut [Time],
    preds_remaining: &mut [u32],
    graph_bases: &[usize],
    spec_offsets: &[usize],
    heap: &mut BinaryHeap<ReadyEntry>,
    pes: &mut [PeTimeline],
    bus: &mut BusTimeline,
    touched: &mut [bool],
    new_bus: &mut BusDelta,
    steps: &mut Vec<StepRec>,
    rec_msgs: &mut Vec<ScheduledMessage>,
    push_step: &mut [u32],
    pop_step: &mut [u32],
) -> Result<(), SchedError> {
    while let Some(entry) = heap.pop() {
        counters::bump(Counter::HeapPops);
        let idx = entry.job_idx;
        let step_idx = steps.len() as u32;
        let j = &jobs[idx];
        let (id, pe, wcet, deadline, gap_hint, si) =
            (j.id, j.pe, j.wcet, j.deadline, j.gap_hint, j.spec);
        let start = pes[pe.index()]
            .reserve_earliest(ready[idx], wcet, gap_hint)
            .map_err(|source| SchedError::NoGap { job: id, source })?;
        touched[pe.index()] = true;
        let end = start + wcet;
        if end > deadline {
            pes[pe.index()].unreserve(start, end);
            return Err(SchedError::DeadlineMiss {
                job: id,
                end,
                deadline,
            });
        }
        pop_step[idx] = step_idx;
        let msg_lo = rec_msgs.len() as u32;

        // Propagate to successors: messages over the bus where needed.
        let spec = &apps[si];
        let g = &spec.app.graphs[id.graph];
        for &e in g.dag().out_edges(id.node) {
            let succ_node = g.dag().target(e);
            let succ_idx = job_index(
                apps,
                graph_bases,
                spec_offsets,
                si,
                id.graph,
                id.instance,
                succ_node,
            );
            let succ_pe = jobs[succ_idx].pe;
            let data_ready = if succ_pe == pe {
                end
            } else {
                let mref = crate::mapping::MsgRef::new(id.graph, e);
                let tx = arch.bus().transmission_time(g.message(e).bytes);
                match bus.schedule_message_nth(pe, end, tx, spec.hints.msg_slot(mref) as usize) {
                    Ok(r) => {
                        new_bus.add(r.occurrence, tx);
                        rec_msgs.push(ScheduledMessage {
                            app: spec.id,
                            msg: mref,
                            instance: id.instance,
                            reservation: r,
                        });
                        r.arrival
                    }
                    Err(source) => {
                        // Roll the partial step back (reverse order, so
                        // frame tails unwind): the completed prefix
                        // stays a valid splice source.
                        for m in rec_msgs[msg_lo as usize..].iter().rev() {
                            bus.unreserve_tail(&m.reservation);
                            new_bus.sub(m.reservation.occurrence, m.reservation.duration());
                        }
                        rec_msgs.truncate(msg_lo as usize);
                        pop_step[idx] = u32::MAX;
                        pes[pe.index()].unreserve(start, end);
                        return Err(SchedError::NoSlot {
                            job: id,
                            msg: mref,
                            source,
                        });
                    }
                }
            };
            ready[succ_idx] = ready[succ_idx].max(data_ready);
            preds_remaining[succ_idx] -= 1;
            if preds_remaining[succ_idx] == 0 {
                push_step[succ_idx] = step_idx + 1;
                heap.push(ReadyEntry::of(jobs, ready, succ_idx));
                counters::bump(Counter::HeapPushes);
            }
        }
        steps.push(StepRec {
            job: idx as u32,
            start,
            end,
            msg_lo,
            msg_hi: rec_msgs.len() as u32,
        });
    }
    debug_assert_eq!(
        steps.len(),
        jobs.len(),
        "acyclic graphs schedule fully (prefix + suffix covers every job)"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Hints, Mapping};
    use incdes_graph::NodeId;
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
        assert!(engine.touched_pes().iter().any(|&t| t));
        assert!(engine.bus_touched());
    }

    #[test]
    fn delta_path_splices_identical_revisit() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let reference = crate::schedule(&arch, &[spec], None, t(100)).unwrap();

        let base = FrozenBase::empty(&arch, t(100)).unwrap();
        let mut engine = Scheduler::new();
        // First call has no record → full path.
        let (t1, s1) = engine
            .schedule_delta_with_slack(&arch, &[spec], &base)
            .unwrap();
        assert_eq!(engine.delta_schedule_count(), 0);
        // Second call replays the record wholesale (divergence = all).
        let (t2, s2) = engine
            .schedule_delta_with_slack(&arch, &[spec], &base)
            .unwrap();
        assert_eq!(engine.delta_schedule_count(), 1);
        assert_eq!(engine.spliced_step_count(), 2, "both jobs spliced");
        assert_eq!(t1, reference);
        assert_eq!(t2, reference);
        assert_eq!(s1, SlackProfile::from_table(&arch, &reference));
        assert_eq!(s1, s2);
    }

    #[test]
    fn delta_path_tracks_single_moves() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(8)).wcet(PeId(1), t(5)));
        let b = g.add_process(Process::new("b").wcet(PeId(0), t(6)).wcet(PeId(1), t(6)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        let app = Application::new("app", vec![g]);
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
        for assignment in assignments {
            let mut mapping = Mapping::new();
            mapping.assign(ProcRef::new(0, NodeId(0)), assignment[0]);
            mapping.assign(ProcRef::new(0, NodeId(1)), assignment[1]);
            let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
            let (table, slack) = engine
                .schedule_delta_with_slack(&arch, &[spec], &base)
                .unwrap();
            let reference = crate::schedule(&arch, &[spec], None, t(100)).unwrap();
            assert_eq!(table, reference, "assignment {assignment:?}");
            assert_eq!(
                slack,
                SlackProfile::from_table(&arch, &reference),
                "assignment {assignment:?}"
            );
        }
        assert_eq!(engine.raw_schedule_count(), assignments.len());
        assert_eq!(engine.delta_schedule_count(), assignments.len() - 1);
    }

    /// A→B→A with the keyed API: with the record cache enabled, the
    /// revisit splices from A's *own* promoted record (every step kept)
    /// even though B ran in between; with the cache disabled the live
    /// record describes B — the wrong predecessor — and the remapped
    /// root invalidates the whole run.
    #[test]
    fn record_cache_splices_from_true_predecessor() {
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(8)).wcet(PeId(1), t(5)));
        let b = g.add_process(Process::new("b").wcet(PeId(0), t(6)).wcet(PeId(1), t(6)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        let app = Application::new("app", vec![g]);
        let hints = Hints::empty();
        let base = FrozenBase::empty(&arch, t(100)).unwrap();

        let mut map_a = Mapping::new();
        map_a.assign(ProcRef::new(0, a), PeId(0));
        map_a.assign(ProcRef::new(0, b), PeId(1));
        let mut map_b = map_a.clone();
        map_b.assign(ProcRef::new(0, a), PeId(1));
        let spec_a = AppSpec::new(AppId(0), &app, &map_a, &hints);
        let spec_b = AppSpec::new(AppId(0), &app, &map_b, &hints);
        let ref_a = crate::schedule(&arch, &[spec_a], None, t(100)).unwrap();
        let ref_b = crate::schedule(&arch, &[spec_b], None, t(100)).unwrap();

        let (fp_a, fp_b) = (11, 22);
        for cap in [4usize, 0] {
            let mut engine = Scheduler::new();
            engine.set_record_cache_capacity(cap);
            let (t1, _) = engine
                .schedule_keyed_with_slack(&arch, &[spec_a], &base, fp_a)
                .unwrap();
            // B names A as its predecessor: the probe promotes A's live
            // record into the cache (capacity permitting), then splices
            // the live record as usual.
            let (t2, _) = engine
                .schedule_delta_keyed_with_slack(&arch, &[spec_b], &base, None, fp_b, Some(fp_a))
                .unwrap();
            let before = engine.spliced_step_count();
            let (t3, _) = engine
                .schedule_delta_keyed_with_slack(&arch, &[spec_a], &base, None, fp_a, Some(fp_a))
                .unwrap();
            assert_eq!(base.materialize(&t1), ref_a, "cap {cap}");
            assert_eq!(base.materialize(&t2), ref_b, "cap {cap}");
            assert_eq!(base.materialize(&t3), ref_a, "cap {cap}");
            assert_eq!(engine.delta_schedule_count(), 2, "cap {cap}");
            let spliced = engine.spliced_step_count() - before;
            if cap > 0 {
                // Cache hit: the revisit is bit-identical to A's
                // record, so both jobs splice.
                assert_eq!(spliced, 2, "revisit splices A's whole record");
            } else {
                // No cached record: the revisit diffs against the live
                // (B) record, whose remapped root pops at step 0.
                assert_eq!(spliced, 0, "live record is the wrong predecessor");
            }
        }
    }

    #[test]
    fn observability_counters_pin_the_revisit_chain() {
        // The same A→B→A chain as
        // `record_cache_splices_from_true_predecessor`, asserted through
        // the deterministic `obs` counter registry: the registry must
        // agree exactly with the engine's own diagnostics, on the exact
        // event counts the chain is known to produce.
        let arch = arch2();
        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(8)).wcet(PeId(1), t(5)));
        let b = g.add_process(Process::new("b").wcet(PeId(0), t(6)).wcet(PeId(1), t(6)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        let app = Application::new("app", vec![g]);
        let hints = Hints::empty();
        let base = FrozenBase::empty(&arch, t(100)).unwrap();

        let mut map_a = Mapping::new();
        map_a.assign(ProcRef::new(0, a), PeId(0));
        map_a.assign(ProcRef::new(0, b), PeId(1));
        let mut map_b = map_a.clone();
        map_b.assign(ProcRef::new(0, a), PeId(1));
        let spec_a = AppSpec::new(AppId(0), &app, &map_a, &hints);
        let spec_b = AppSpec::new(AppId(0), &app, &map_b, &hints);

        let (fp_a, fp_b) = (11, 22);
        let mut engine = Scheduler::new();
        engine.set_record_cache_capacity(4);
        let before = counters::snapshot();
        let spliced_before = engine.spliced_step_count();
        engine
            .schedule_keyed_with_slack(&arch, &[spec_a], &base, fp_a)
            .unwrap();
        engine
            .schedule_delta_keyed_with_slack(&arch, &[spec_b], &base, None, fp_b, Some(fp_a))
            .unwrap();
        engine
            .schedule_delta_keyed_with_slack(&arch, &[spec_a], &base, None, fp_a, Some(fp_a))
            .unwrap();
        let d = counters::snapshot().delta_since(&before);
        // B→A promoted A's live record into the cache exactly once, and
        // the revisit hit it exactly once; nothing fell back to the
        // live record.
        assert_eq!(d.get(Counter::RecordCachePromotions), 1);
        assert_eq!(d.get(Counter::RecordCacheHits), 1);
        assert_eq!(d.get(Counter::RecordCacheFallbacks), 0);
        assert_eq!(d.get(Counter::RecordCacheEvictions), 0);
        // The registry's spliced-step tally is the engine's.
        assert_eq!(
            d.get(Counter::SpliceStepsSpliced),
            (engine.spliced_step_count() - spliced_before) as u64
        );
        // One bake of the empty frozen base... done by FrozenBase::empty
        // *before* the snapshot, so this chain itself bakes nothing.
        assert_eq!(d.get(Counter::BaseBakes), 0);
    }

    #[test]
    fn delta_chain_survives_infeasible_moves() {
        let arch = arch2();
        // Two processes; remapping `a` to PE1 overflows the horizon, so
        // that single-move delta fails mid-loop. The rolled-back partial
        // record must keep the chain on the delta path and stay correct.
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

        let good_spec = AppSpec::new(AppId(0), &app, &good, &hints);
        engine
            .schedule_delta_with_slack(&arch, &[good_spec], &base)
            .unwrap();
        let bad_spec = AppSpec::new(AppId(0), &app, &bad, &hints);
        let err = engine
            .schedule_delta_with_slack(&arch, &[bad_spec], &base)
            .unwrap_err();
        assert_eq!(
            err,
            crate::schedule(&arch, &[bad_spec], None, t(100)).unwrap_err()
        );
        assert_eq!(
            engine.delta_schedule_count(),
            1,
            "failure took the delta path"
        );
        // The failed run rolled its partial step back, so the next
        // evaluation splices against its completed prefix — and matches
        // the oracle exactly.
        let (table, slack) = engine
            .schedule_delta_with_slack(&arch, &[good_spec], &base)
            .unwrap();
        assert_eq!(
            engine.delta_schedule_count(),
            2,
            "the partial record survives failures"
        );
        let reference = crate::schedule(&arch, &[good_spec], None, t(100)).unwrap();
        assert_eq!(table, reference);
        assert_eq!(slack, SlackProfile::from_table(&arch, &reference));
    }

    /// An `AppId` change alone (same app, same design variables) must
    /// never splice: spliced messages carry the recorded app id
    /// verbatim, so the record guard has to fall back to the full path.
    #[test]
    fn delta_record_guarded_by_app_id() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let base = FrozenBase::empty(&arch, t(100)).unwrap();
        let mut engine = Scheduler::new();

        let spec0 = AppSpec::new(AppId(0), &app, &mapping, &hints);
        engine
            .schedule_delta_with_slack(&arch, &[spec0], &base)
            .unwrap();
        let spec1 = AppSpec::new(AppId(1), &app, &mapping, &hints);
        let (table, slack) = engine
            .schedule_delta_with_slack(&arch, &[spec1], &base)
            .unwrap();
        assert_eq!(engine.delta_schedule_count(), 0, "id change never splices");
        let reference = crate::schedule(&arch, &[spec1], None, t(100)).unwrap();
        assert_eq!(table, reference);
        assert_eq!(slack, SlackProfile::from_table(&arch, &reference));
        assert!(table.messages().iter().all(|m| m.app == AppId(1)));
    }

    /// A *shape* change (same job layout, different deadline) must never
    /// splice — the record guard falls back to the full path.
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
            .schedule_delta_with_slack(&arch, &[spec_a], &base)
            .unwrap();
        let (table, _) = engine
            .schedule_delta_with_slack(&arch, &[spec_b], &base)
            .unwrap();
        assert_eq!(
            engine.delta_schedule_count(),
            0,
            "shape change never splices"
        );
        assert_eq!(
            table,
            crate::schedule(&arch, &[spec_b], None, t(100)).unwrap()
        );
    }

    #[test]
    fn delta_record_guarded_by_base_generation() {
        let arch = arch2();
        let (app, mapping) = chain_app();
        let hints = Hints::empty();
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let frozen = crate::schedule(&arch, &[spec], None, t(100)).unwrap();

        let base_a = FrozenBase::empty(&arch, t(100)).unwrap();
        let base_b = FrozenBase::new(&arch, Some(&frozen), t(100)).unwrap();
        assert_ne!(base_a.generation(), base_b.generation());
        assert_eq!(base_a.generation(), base_a.clone().generation());

        let (app2, mapping2) = chain_app();
        let spec2 = AppSpec::new(AppId(1), &app2, &mapping2, &hints);
        let mut engine = Scheduler::new();
        engine
            .schedule_delta_with_slack(&arch, &[spec2], &base_a)
            .unwrap();
        // Same structure, different base: the record must not splice.
        let (table, slack) = engine
            .schedule_delta_with_slack(&arch, &[spec2], &base_b)
            .unwrap();
        assert_eq!(engine.delta_schedule_count(), 0);
        let reference = crate::schedule(&arch, &[spec2], Some(&frozen), t(100)).unwrap();
        assert_eq!(table, reference);
        assert_eq!(slack, SlackProfile::from_table(&arch, &reference));
    }

    #[test]
    fn shared_profiles_alias_base_storage() {
        let arch = arch2();
        // Current app occupies only PE0; PE1 carries only frozen load.
        let (fapp, fmap) = chain_app();
        let hints = Hints::empty();
        let fspec = AppSpec::new(AppId(0), &fapp, &fmap, &hints);
        let frozen = crate::schedule(&arch, &[fspec], None, t(100)).unwrap();
        let base = FrozenBase::new(&arch, Some(&frozen), t(100)).unwrap();

        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(5)));
        let app = Application::new("solo", vec![g]);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, a), PeId(0));
        let spec = AppSpec::new(AppId(1), &app, &mapping, &hints);

        let mut engine = Scheduler::new();
        let (_, slack) = engine.schedule_with_slack(&arch, &[spec], &base).unwrap();
        // PE1 untouched → its gap list is the base's storage, not a copy.
        assert!(Arc::ptr_eq(
            slack.gaps_shared(PeId(1)),
            base.gaps_shared(PeId(1))
        ));
        assert!(!Arc::ptr_eq(
            slack.gaps_shared(PeId(0)),
            base.gaps_shared(PeId(0))
        ));
        // No new message → the bus windows alias the base too.
        assert!(Arc::ptr_eq(
            slack.bus_windows_shared(),
            base.bus_windows_shared()
        ));
        assert_eq!(engine.fresh_gap_list_count(), 1, "only PE0 materialized");
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
        assert_eq!(base.bus_windows(), frozen_slack.bus_windows());

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

    #[test]
    fn untouched_pes_reuse_frozen_gap_lists() {
        let arch = arch2();
        // Current app occupies only PE0; PE1 carries only frozen load.
        let (fapp, fmap) = chain_app();
        let hints = Hints::empty();
        let fspec = AppSpec::new(AppId(0), &fapp, &fmap, &hints);
        let frozen = crate::schedule(&arch, &[fspec], None, t(100)).unwrap();
        let base = FrozenBase::new(&arch, Some(&frozen), t(100)).unwrap();

        let mut g = ProcessGraph::new("g", t(100), t(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), t(5)));
        let app = Application::new("solo", vec![g]);
        let mut mapping = Mapping::new();
        mapping.assign(ProcRef::new(0, a), PeId(0));
        let spec = AppSpec::new(AppId(1), &app, &mapping, &hints);

        let mut engine = Scheduler::new();
        let (table, slack) = engine.schedule_with_slack(&arch, &[spec], &base).unwrap();
        assert!(engine.touched_pes()[0]);
        assert!(!engine.touched_pes()[1]);
        assert!(!engine.bus_touched());
        assert_eq!(slack.gaps_of(PeId(1)), base.gaps_of(PeId(1)));
        assert_eq!(slack, SlackProfile::from_table(&arch, &table));
        let _ = table.job(JobId::new(AppId(1), 0, 0, NodeId(0))).unwrap();
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
}
