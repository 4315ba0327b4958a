//! Schedule tables: the output of the static cyclic scheduler.
//!
//! A [`ScheduleTable`] records the absolute start/end of every job and the
//! bus reservation of every inter-PE message over one hyperperiod. Tables
//! of *existing* applications are frozen: when a new application is added
//! and the hyperperiod grows, the old table is replicated verbatim
//! ([`ScheduleTable::replicate_to`]) — requirement (a) of the paper, "no
//! modifications are performed to the existing applications".
//!
//! [`ScheduleTable::validate`] re-checks every scheduling invariant from
//! scratch (durations, overlap, precedence, TDMA framing, deadlines); the
//! test-suite and property tests run it on everything the scheduler
//! produces.

use crate::job::JobId;
use crate::mapping::{Mapping, MsgRef};
use crate::pe_timeline::PeTimeline;
use incdes_model::{AppId, Application, Architecture, PeId, Time};
use incdes_obs::counters::{self, Counter};
use incdes_tdma::{BusReservation, BusTimeline};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One scheduled job (process instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledJob {
    /// Which job this is.
    pub job: JobId,
    /// The PE it runs on.
    pub pe: PeId,
    /// Absolute start time.
    pub start: Time,
    /// Absolute end time (`start + WCET`).
    pub end: Time,
    /// Absolute release of the instance (`k · period`).
    pub release: Time,
    /// Absolute deadline of the instance (`k · period + deadline`).
    pub deadline: Time,
}

/// One scheduled message (edge instance) on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledMessage {
    /// Owning application.
    pub app: AppId,
    /// Which message (graph + edge).
    pub msg: MsgRef,
    /// Instance (release) number.
    pub instance: u32,
    /// The bus reservation carrying it.
    pub reservation: BusReservation,
}

/// Canonical within-table ordering of jobs: `(pe, start, id)`.
///
/// The single source of truth shared by [`ScheduleTable::new`]'s sort,
/// the engine's per-run sort and the sorted-merge fast path
/// (`ScheduleTable::from_sorted_merge`) — the merge reproduces a
/// stable sort only because all three use exactly this key.
pub fn job_sort_key(j: &ScheduledJob) -> (PeId, Time, JobId) {
    (j.pe, j.start, j.job)
}

/// Canonical within-table ordering of messages: transmission start,
/// then identity. Shared for the same reason as [`job_sort_key`].
pub fn message_sort_key(m: &ScheduledMessage) -> (Time, AppId, MsgRef, u32) {
    (m.reservation.transmit_start, m.app, m.msg, m.instance)
}

/// Invariant violation found by [`ScheduleTable::validate`] (or a
/// replication error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A job lies outside `[0, horizon)`.
    OutOfHorizon(JobId),
    /// A job's duration differs from its WCET on the mapped PE.
    WrongDuration(JobId),
    /// A job runs on a PE that differs from the mapping, or the mapping
    /// lacks the process.
    MappingMismatch(JobId),
    /// Two jobs overlap on one PE.
    PeOverlap(JobId, JobId),
    /// An expected job is missing from the table.
    MissingJob(JobId),
    /// A job appears twice.
    DuplicateJob(JobId),
    /// A job starts before its release.
    EarlyStart(JobId),
    /// A job ends after its deadline.
    DeadlineMiss(JobId),
    /// A dependent job starts before its predecessor's data is available.
    PrecedenceViolation {
        /// Producer job.
        pred: JobId,
        /// Consumer job.
        succ: JobId,
    },
    /// An inter-PE edge instance has no bus reservation.
    MissingMessage {
        /// Owning application.
        app: AppId,
        /// The message.
        msg: MsgRef,
        /// Instance number.
        instance: u32,
    },
    /// A message's slot occurrence starts before the producer finished
    /// (TTP frames are assembled before the slot begins).
    MessageTooEarly {
        /// Owning application.
        app: AppId,
        /// The message.
        msg: MsgRef,
        /// Instance number.
        instance: u32,
    },
    /// A message rides a slot not owned by its sender's PE, or lies
    /// outside its slot, or overlaps another message in the frame.
    BusViolation {
        /// Owning application.
        app: AppId,
        /// The message.
        msg: MsgRef,
        /// Instance number.
        instance: u32,
    },
    /// `replicate_to` called with a horizon that is not a positive
    /// multiple of the table's horizon.
    ReplicateAlign {
        /// Current horizon.
        old: Time,
        /// Requested horizon.
        new: Time,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::OutOfHorizon(j) => write!(f, "job {j} lies outside the horizon"),
            TableError::WrongDuration(j) => write!(f, "job {j} duration differs from its WCET"),
            TableError::MappingMismatch(j) => {
                write!(f, "job {j} placed on a PE not in the mapping")
            }
            TableError::PeOverlap(a, b) => write!(f, "jobs {a} and {b} overlap on one PE"),
            TableError::MissingJob(j) => write!(f, "job {j} is missing from the table"),
            TableError::DuplicateJob(j) => write!(f, "job {j} appears twice"),
            TableError::EarlyStart(j) => write!(f, "job {j} starts before its release"),
            TableError::DeadlineMiss(j) => write!(f, "job {j} misses its deadline"),
            TableError::PrecedenceViolation { pred, succ } => {
                write!(f, "job {succ} starts before data from {pred} is available")
            }
            TableError::MissingMessage { app, msg, instance } => {
                write!(f, "message {app}/{msg}#{instance} has no bus reservation")
            }
            TableError::MessageTooEarly { app, msg, instance } => write!(
                f,
                "message {app}/{msg}#{instance} rides a slot starting before its producer finished"
            ),
            TableError::BusViolation { app, msg, instance } => {
                write!(f, "message {app}/{msg}#{instance} violates TDMA framing")
            }
            TableError::ReplicateAlign { old, new } => write!(
                f,
                "cannot replicate a schedule of horizon {old} to {new} (not a positive multiple)"
            ),
        }
    }
}

impl std::error::Error for TableError {}

/// A complete static cyclic schedule over one hyperperiod.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScheduleTable {
    horizon: Time,
    /// `Arc`-backed so cloning a table (a `FrozenBase` keeping the
    /// frozen table, a same-horizon `replicate_to`) is a reference-count
    /// bump, not an `O(frozen + current)` copy. Content-immutable after
    /// construction.
    jobs: Arc<Vec<ScheduledJob>>,
    messages: Arc<Vec<ScheduledMessage>>,
}

impl ScheduleTable {
    /// Creates a table from raw parts, sorting jobs by `(pe, start)` and
    /// messages by transmission start.
    pub fn new(
        horizon: Time,
        mut jobs: Vec<ScheduledJob>,
        mut messages: Vec<ScheduledMessage>,
    ) -> Self {
        jobs.sort_by_key(job_sort_key);
        messages.sort_by_key(message_sort_key);
        ScheduleTable {
            horizon,
            jobs: Arc::new(jobs),
            messages: Arc::new(messages),
        }
    }

    /// Builds a table by merging two sequences that are each already in
    /// canonical order — the frozen table's jobs/messages and a run's
    /// placements (sorted by the caller) — in `O(n)` instead of
    /// re-sorting the concatenation. Produces exactly what
    /// [`ScheduleTable::new`] would: the sort is stable and no two
    /// entries share a key (jobs on one PE have distinct starts, bus
    /// transmissions have distinct start times), so merge order equals
    /// stable-sort order. The one routine that materializes engine
    /// tables, counted by `tables_materialized`.
    pub(crate) fn from_sorted_merge(
        horizon: Time,
        frozen_jobs: &[ScheduledJob],
        current_jobs: &[ScheduledJob],
        frozen_msgs: &[ScheduledMessage],
        current_msgs: &[ScheduledMessage],
    ) -> Self {
        fn merge<T: Copy, K: Ord>(a: &[T], b: &[T], key: impl Fn(&T) -> K) -> Vec<T> {
            let mut out = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if key(&a[i]) <= key(&b[j]) {
                    out.push(a[i]);
                    i += 1;
                } else {
                    out.push(b[j]);
                    j += 1;
                }
            }
            out.extend_from_slice(&a[i..]);
            out.extend_from_slice(&b[j..]);
            out
        }
        counters::bump(Counter::TablesMaterialized);
        let jobs = merge(frozen_jobs, current_jobs, job_sort_key);
        let messages = merge(frozen_msgs, current_msgs, message_sort_key);
        debug_assert!(
            jobs.windows(2)
                .all(|w| job_sort_key(&w[0]) <= job_sort_key(&w[1])),
            "merge inputs were not sorted"
        );
        debug_assert!(
            messages
                .windows(2)
                .all(|w| message_sort_key(&w[0]) <= message_sort_key(&w[1])),
            "merge inputs were not sorted"
        );
        ScheduleTable {
            horizon,
            jobs: Arc::new(jobs),
            messages: Arc::new(messages),
        }
    }

    /// An empty table (no applications committed yet) over `horizon`.
    pub fn empty(horizon: Time) -> Self {
        ScheduleTable {
            horizon,
            jobs: Arc::new(Vec::new()),
            messages: Arc::new(Vec::new()),
        }
    }

    /// The hyperperiod covered.
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// All jobs, sorted by `(pe, start)`.
    pub fn jobs(&self) -> &[ScheduledJob] {
        &self.jobs
    }

    /// All messages, sorted by transmission start.
    pub fn messages(&self) -> &[ScheduledMessage] {
        &self.messages
    }

    /// Jobs running on `pe`, in start order.
    pub fn jobs_on(&self, pe: PeId) -> impl Iterator<Item = &ScheduledJob> {
        self.jobs.iter().filter(move |j| j.pe == pe)
    }

    /// The scheduled record of `job`, if present.
    pub fn job(&self, job: JobId) -> Option<&ScheduledJob> {
        self.jobs.iter().find(|j| j.job == job)
    }

    /// The reservation of a message instance, if present.
    pub fn message(&self, app: AppId, msg: MsgRef, instance: u32) -> Option<&ScheduledMessage> {
        self.messages
            .iter()
            .find(|m| m.app == app && m.msg == msg && m.instance == instance)
    }

    /// True if every job meets its deadline.
    pub fn is_deadline_clean(&self) -> bool {
        self.jobs.iter().all(|j| j.end <= j.deadline)
    }

    /// Latest end time of any job of `app` (its makespan within the
    /// hyperperiod), or zero if the app has no jobs.
    pub fn finish_of_app(&self, app: AppId) -> Time {
        self.jobs
            .iter()
            .filter(|j| j.job.app == app)
            .map(|j| j.end)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Sum over jobs of `end - start` on `pe`.
    pub fn busy_time_on(&self, pe: PeId) -> Time {
        self.jobs_on(pe).map(|j| j.end - j.start).sum()
    }

    /// Replicates this table onto a longer horizon: every job and message
    /// is copied `new/old` times, shifted by multiples of the old horizon.
    /// Bus occurrence indices are shifted using the bus geometry from
    /// `arch`. Replicating onto the table's own horizon returns a clone
    /// that shares this table's storage.
    ///
    /// # Errors
    ///
    /// [`TableError::ReplicateAlign`] if `new_horizon` is not a positive
    /// multiple of the current horizon.
    pub fn replicate_to(
        &self,
        arch: &Architecture,
        new_horizon: Time,
    ) -> Result<ScheduleTable, TableError> {
        if new_horizon.is_zero()
            || self.horizon.is_zero()
            || !(new_horizon % self.horizon).is_zero()
        {
            return Err(TableError::ReplicateAlign {
                old: self.horizon,
                new: new_horizon,
            });
        }
        if new_horizon == self.horizon {
            return Ok(self.clone());
        }
        let reps = new_horizon.ticks() / self.horizon.ticks();
        let cycle = arch.bus().cycle_length();
        let slots_per_cycle: u64 = arch.bus().rounds.iter().map(|r| r.slots.len() as u64).sum();
        // The horizon of a valid table is a multiple of the bus cycle.
        let occ_per_horizon = self.horizon.ticks() / cycle.ticks() * slots_per_cycle;

        let mut jobs = Vec::with_capacity(self.jobs.len() * reps as usize);
        let mut messages = Vec::with_capacity(self.messages.len() * reps as usize);
        for k in 0..reps {
            let shift = Time::new(self.horizon.ticks() * k);
            for j in self.jobs.iter() {
                jobs.push(ScheduledJob {
                    job: j.job,
                    pe: j.pe,
                    start: j.start + shift,
                    end: j.end + shift,
                    release: j.release + shift,
                    deadline: j.deadline + shift,
                });
            }
            for m in self.messages.iter() {
                let r = m.reservation;
                messages.push(ScheduledMessage {
                    app: m.app,
                    msg: m.msg,
                    instance: m.instance,
                    reservation: BusReservation {
                        occurrence: r.occurrence + k * occ_per_horizon,
                        owner: r.owner,
                        transmit_start: r.transmit_start + shift,
                        arrival: r.arrival + shift,
                    },
                });
            }
        }
        // Re-number instances so JobIds stay unique across replicas: the
        // graph with period T has horizon/T instances per replica.
        renumber_instances(&mut jobs, &mut messages, self.horizon);
        Ok(ScheduleTable::new(new_horizon, jobs, messages))
    }

    /// Returns this table with the given applications' jobs and messages
    /// removed (the decommission/eviction primitive).
    ///
    /// Remaining jobs keep their exact start times. Remaining messages
    /// stay in their slot occurrence but **compact to the front of the
    /// frame**: TTP frames are reassembled every cycle, so removing a
    /// message can only move the others *earlier* inside the same slot.
    /// Arrivals never get later, so precedence, framing and deadline
    /// invariants are all preserved — and the freed bus time becomes a
    /// contiguous slack tail that [`crate::SlackProfile`] and later
    /// commits can actually use ([`Self::bus_timeline`] replays frames
    /// contiguously, so holes in a frame are not representable).
    pub fn without_apps(&self, arch: &Architecture, exclude: &[AppId]) -> ScheduleTable {
        let jobs: Vec<ScheduledJob> = self
            .jobs
            .iter()
            .filter(|j| !exclude.contains(&j.job.app))
            .copied()
            .collect();
        let mut messages: Vec<ScheduledMessage> = self
            .messages
            .iter()
            .filter(|m| !exclude.contains(&m.app))
            .copied()
            .collect();
        let mut bus = BusTimeline::new(arch.bus(), self.horizon)
            .expect("table horizon is a multiple of the bus cycle");
        for i in frame_replay_order(&messages) {
            let m = &mut messages[i];
            let r = bus
                .reserve_in_occurrence(
                    m.reservation.owner,
                    m.reservation.occurrence,
                    m.reservation.duration(),
                )
                .expect("a compacted frame always fits its own slot");
            m.reservation = r;
        }
        ScheduleTable::new(self.horizon, jobs, messages)
    }

    /// Rebuilds the per-PE busy timelines implied by this table.
    pub fn pe_timelines(&self, arch: &Architecture) -> Vec<PeTimeline> {
        let mut tls: Vec<PeTimeline> = (0..arch.pe_count())
            .map(|_| PeTimeline::new(self.horizon))
            .collect();
        for j in self.jobs.iter() {
            tls[j.pe.index()]
                .reserve(j.start, j.end)
                .expect("table jobs are disjoint per PE");
        }
        tls
    }

    /// Rebuilds the bus timeline implied by this table by replaying all
    /// reservations in frame order.
    ///
    /// # Panics
    ///
    /// Panics if the table's messages violate TDMA framing (validated
    /// tables never do).
    pub fn bus_timeline(&self, arch: &Architecture) -> BusTimeline {
        let mut bus = BusTimeline::new(arch.bus(), self.horizon)
            .expect("table horizon is a multiple of the bus cycle");
        for i in frame_replay_order(&self.messages) {
            let m = &self.messages[i];
            let r = bus
                .reserve_in_occurrence(
                    m.reservation.owner,
                    m.reservation.occurrence,
                    m.reservation.duration(),
                )
                .expect("validated tables replay cleanly");
            debug_assert_eq!(r.transmit_start, m.reservation.transmit_start);
        }
        bus
    }

    /// Exhaustively validates the table against the applications it is
    /// supposed to schedule.
    ///
    /// `apps` lists every application with its id and mapping. Checks:
    /// completeness (every job of every instance present exactly once),
    /// durations = WCET, mapping consistency, release/deadline windows,
    /// per-PE non-overlap, precedence through shared memory and through
    /// the bus, and TDMA framing (owner, containment, non-overlap).
    ///
    /// # Errors
    ///
    /// The first violation found, deterministically.
    pub fn validate(
        &self,
        arch: &Architecture,
        apps: &[(AppId, &Application, &Mapping)],
    ) -> Result<(), TableError> {
        let by_id: HashMap<JobId, &ScheduledJob> = {
            let mut m = HashMap::with_capacity(self.jobs.len());
            for j in self.jobs.iter() {
                if m.insert(j.job, j).is_some() {
                    return Err(TableError::DuplicateJob(j.job));
                }
            }
            m
        };

        // Per-job checks + completeness.
        for &(app_id, app, mapping) in apps {
            for (gi, g) in app.graphs.iter().enumerate() {
                let instances = self.horizon.ticks() / g.period.ticks();
                for k in 0..instances as u32 {
                    for n in g.dag().node_ids() {
                        let id = JobId::new(app_id, gi, k, n);
                        let j = *by_id.get(&id).ok_or(TableError::MissingJob(id))?;
                        if j.end > self.horizon {
                            return Err(TableError::OutOfHorizon(id));
                        }
                        let pe = mapping
                            .pe_of(id.proc_ref())
                            .ok_or(TableError::MappingMismatch(id))?;
                        if pe != j.pe {
                            return Err(TableError::MappingMismatch(id));
                        }
                        let wcet = g
                            .process(n)
                            .wcets
                            .get(pe)
                            .ok_or(TableError::MappingMismatch(id))?;
                        if j.end - j.start != wcet {
                            return Err(TableError::WrongDuration(id));
                        }
                        let release = Time::new(k as u64 * g.period.ticks());
                        if j.release != release || j.start < release {
                            return Err(TableError::EarlyStart(id));
                        }
                        if j.deadline != release + g.deadline {
                            return Err(TableError::DeadlineMiss(id));
                        }
                        if j.end > j.deadline {
                            return Err(TableError::DeadlineMiss(id));
                        }
                    }
                }
            }
        }

        // Per-PE overlap.
        for pe in arch.pe_ids() {
            let mut prev: Option<&ScheduledJob> = None;
            for j in self.jobs.iter().filter(|j| j.pe == pe) {
                if let Some(p) = prev {
                    if p.end > j.start {
                        return Err(TableError::PeOverlap(p.job, j.job));
                    }
                }
                prev = Some(j);
            }
        }

        // Precedence + message existence/timing.
        let bus = BusTimeline::new(arch.bus(), self.horizon)
            .expect("table horizon is a multiple of the bus cycle");
        for &(app_id, app, _) in apps {
            for (gi, g) in app.graphs.iter().enumerate() {
                let instances = self.horizon.ticks() / g.period.ticks();
                for k in 0..instances as u32 {
                    for e in g.dag().edge_ids() {
                        let (s, t) = g.dag().endpoints(e);
                        let pred = by_id[&JobId::new(app_id, gi, k, s)];
                        let succ = by_id[&JobId::new(app_id, gi, k, t)];
                        if pred.pe == succ.pe {
                            if succ.start < pred.end {
                                return Err(TableError::PrecedenceViolation {
                                    pred: pred.job,
                                    succ: succ.job,
                                });
                            }
                        } else {
                            let mref = MsgRef::new(gi, e);
                            let m = self.message(app_id, mref, k).ok_or(
                                TableError::MissingMessage {
                                    app: app_id,
                                    msg: mref,
                                    instance: k,
                                },
                            )?;
                            let r = m.reservation;
                            if r.owner != pred.pe {
                                return Err(TableError::BusViolation {
                                    app: app_id,
                                    msg: mref,
                                    instance: k,
                                });
                            }
                            // Frame assembled before slot start: slot must
                            // begin at or after producer end.
                            let occ = bus.occurrence(r.occurrence).map_err(|_| {
                                TableError::BusViolation {
                                    app: app_id,
                                    msg: mref,
                                    instance: k,
                                }
                            })?;
                            if occ.start < pred.end {
                                return Err(TableError::MessageTooEarly {
                                    app: app_id,
                                    msg: mref,
                                    instance: k,
                                });
                            }
                            if r.transmit_start < occ.start || r.arrival > occ.end() {
                                return Err(TableError::BusViolation {
                                    app: app_id,
                                    msg: mref,
                                    instance: k,
                                });
                            }
                            let tx = arch.bus().transmission_time(g.message(e).bytes);
                            if r.duration() != tx {
                                return Err(TableError::BusViolation {
                                    app: app_id,
                                    msg: mref,
                                    instance: k,
                                });
                            }
                            if succ.start < r.arrival {
                                return Err(TableError::PrecedenceViolation {
                                    pred: pred.job,
                                    succ: succ.job,
                                });
                            }
                        }
                    }
                }
            }
        }

        // Frame non-overlap per occurrence, in replay order.
        let order = frame_replay_order(&self.messages);
        let occurrence_of = |i: usize| self.messages[i].reservation.occurrence;
        for indices in order.chunk_by(|&a, &b| occurrence_of(a) == occurrence_of(b)) {
            let first = &self.messages[indices[0]];
            let occ = bus.occurrence(first.reservation.occurrence).map_err(|_| {
                TableError::BusViolation {
                    app: first.app,
                    msg: first.msg,
                    instance: first.instance,
                }
            })?;
            let mut cursor = occ.start;
            for &i in indices {
                let m = &self.messages[i];
                let r = m.reservation;
                if r.owner != occ.owner || r.transmit_start < cursor || r.arrival > occ.end() {
                    return Err(TableError::BusViolation {
                        app: m.app,
                        msg: m.msg,
                        instance: m.instance,
                    });
                }
                cursor = r.arrival;
            }
        }
        Ok(())
    }

    /// Renders a small fixed-width Gantt chart of the table, one row per
    /// PE plus one for the bus. Intended for examples and debugging.
    pub fn render_text(&self, arch: &Architecture, width: usize) -> String {
        let width = width.max(10);
        let scale = |t: Time| -> usize {
            if self.horizon.is_zero() {
                0
            } else {
                ((t.ticks() as u128 * width as u128) / self.horizon.ticks() as u128) as usize
            }
        };
        let mut out = String::new();
        for pe in arch.pe_ids() {
            let mut row = vec![b'.'; width];
            for j in self.jobs_on(pe) {
                let a = scale(j.start).min(width - 1);
                let b = scale(j.end).clamp(a + 1, width);
                let c = label_char(j.job.app);
                for cell in &mut row[a..b] {
                    *cell = c;
                }
            }
            out.push_str(&format!(
                "{:>4} |{}|\n",
                arch.pe(pe).name,
                String::from_utf8_lossy(&row)
            ));
        }
        let mut row = vec![b'.'; width];
        for m in self.messages.iter() {
            let a = scale(m.reservation.transmit_start).min(width - 1);
            let b = scale(m.reservation.arrival).clamp(a + 1, width);
            let c = label_char(m.app);
            for cell in &mut row[a..b] {
                *cell = c;
            }
        }
        out.push_str(&format!(" bus |{}|\n", String::from_utf8_lossy(&row)));
        out
    }
}

/// Frame replay order: message indices sorted by slot occurrence, then
/// by transmission start, so each occurrence's frame is one contiguous
/// run. Every frame walk (rebuilding a bus timeline, baking a frozen
/// base, compacting after a removal, validating) uses this one ordering
/// so they can never diverge.
pub(crate) fn frame_replay_order(messages: &[ScheduledMessage]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..messages.len()).collect();
    order.sort_by_key(|&i| {
        let r = &messages[i].reservation;
        (r.occurrence, r.transmit_start)
    });
    order
}

fn label_char(app: AppId) -> u8 {
    const LABELS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ";
    LABELS[app.index() % LABELS.len()]
}

/// After replication, re-number the instances of each (app, graph) so the
/// `k`-th replica of instance `i` becomes instance `i + k · (instances per
/// replica)`. Jobs and messages are renumbered consistently by their
/// release order.
fn renumber_instances(
    jobs: &mut [ScheduledJob],
    messages: &mut [ScheduledMessage],
    old_horizon: Time,
) {
    // Instances-per-replica for each (app, graph): max instance + 1 among
    // replica-0 jobs.
    let mut per: HashMap<(AppId, usize), u32> = HashMap::new();
    for j in jobs.iter() {
        if j.release < old_horizon {
            let e = per.entry((j.job.app, j.job.graph)).or_insert(0);
            *e = (*e).max(j.job.instance + 1);
        }
    }
    for j in jobs.iter_mut() {
        let replica = (j.release.ticks() / old_horizon.ticks().max(1)) as u32;
        if replica > 0 {
            let n = per.get(&(j.job.app, j.job.graph)).copied().unwrap_or(1);
            j.job.instance += replica * n;
        }
    }
    for m in messages.iter_mut() {
        // A message replica is identified by which old-horizon window its
        // slot start falls in. Messages always ride slots within the same
        // replica as their producer (slot start >= producer end >= replica
        // release; and arrival <= deadline <= replica end for deadline-
        // clean tables). For safety we bucket by transmit_start.
        let replica = (m.reservation.transmit_start.ticks() / old_horizon.ticks().max(1)) as u32;
        if replica > 0 {
            let n = per.get(&(m.app, m.msg.graph)).copied().unwrap_or(1);
            m.instance += replica * n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_model::BusConfig;

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

    #[allow(clippy::too_many_arguments)]
    fn job(
        app: u32,
        graph: usize,
        inst: u32,
        node: u32,
        pe: u32,
        s: u64,
        e: u64,
        rel: u64,
        dl: u64,
    ) -> ScheduledJob {
        ScheduledJob {
            job: JobId::new(AppId(app), graph, inst, incdes_graph::NodeId(node)),
            pe: PeId(pe),
            start: t(s),
            end: t(e),
            release: t(rel),
            deadline: t(dl),
        }
    }

    #[test]
    fn table_sorts_and_queries() {
        let table = ScheduleTable::new(
            t(100),
            vec![
                job(0, 0, 0, 1, 0, 30, 40, 0, 100),
                job(0, 0, 0, 0, 0, 0, 10, 0, 100),
                job(0, 0, 0, 2, 1, 5, 15, 0, 100),
            ],
            vec![],
        );
        let starts: Vec<_> = table.jobs_on(PeId(0)).map(|j| j.start).collect();
        assert_eq!(starts, vec![t(0), t(30)]);
        assert!(table
            .job(JobId::new(AppId(0), 0, 0, incdes_graph::NodeId(2)))
            .is_some());
        assert!(table
            .job(JobId::new(AppId(9), 0, 0, incdes_graph::NodeId(0)))
            .is_none());
        assert_eq!(table.finish_of_app(AppId(0)), t(40));
        assert_eq!(table.finish_of_app(AppId(5)), Time::ZERO);
        assert_eq!(table.busy_time_on(PeId(0)), t(20));
        assert!(table.is_deadline_clean());
    }

    #[test]
    fn deadline_clean_detects_miss() {
        let table = ScheduleTable::new(t(100), vec![job(0, 0, 0, 0, 0, 0, 60, 0, 50)], vec![]);
        assert!(!table.is_deadline_clean());
    }

    /// One job and one message over a 20-tick (one bus cycle) horizon.
    fn one_cycle_table() -> ScheduleTable {
        ScheduleTable::new(
            t(20),
            vec![job(0, 0, 0, 0, 0, 2, 8, 0, 20)],
            vec![ScheduledMessage {
                app: AppId(0),
                msg: MsgRef::new(0, incdes_graph::EdgeId(0)),
                instance: 0,
                reservation: BusReservation {
                    occurrence: 1,
                    owner: PeId(1),
                    transmit_start: t(10),
                    arrival: t(14),
                },
            }],
        )
    }

    #[test]
    fn replicate_shifts_everything() {
        let arch = arch2();
        let table = one_cycle_table();
        let big = table.replicate_to(&arch, t(60)).unwrap();
        assert_eq!(big.horizon(), t(60));
        assert_eq!(big.jobs().len(), 3);
        assert_eq!(big.messages().len(), 3);
        let starts: Vec<_> = big.jobs().iter().map(|j| j.start).collect();
        assert_eq!(starts, vec![t(2), t(22), t(42)]);
        // Instances renumbered 0,1,2.
        let insts: Vec<_> = {
            let mut v: Vec<_> = big.jobs().iter().map(|j| j.job.instance).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(insts, vec![0, 1, 2]);
        // Bus occurrences shifted by 2 per replica (cycle 20 = 2 slots).
        let occs: Vec<_> = big
            .messages()
            .iter()
            .map(|m| m.reservation.occurrence)
            .collect();
        assert_eq!(occs, vec![1, 3, 5]);
        let m_insts: Vec<_> = big.messages().iter().map(|m| m.instance).collect();
        assert_eq!(m_insts, vec![0, 1, 2]);
    }

    #[test]
    fn replicate_to_same_horizon_shares_storage() {
        let arch = arch2();
        let table = one_cycle_table();
        let same = table.replicate_to(&arch, t(20)).unwrap();
        assert_eq!(same, table);
        assert!(Arc::ptr_eq(&same.jobs, &table.jobs));
        assert!(Arc::ptr_eq(&same.messages, &table.messages));
        // A longer horizon still builds a table of its own.
        let twice = table.replicate_to(&arch, t(40)).unwrap();
        assert_eq!(twice.jobs().len(), 2);
        assert!(!Arc::ptr_eq(&twice.jobs, &table.jobs));
    }

    #[test]
    fn replicate_alignment_enforced() {
        let arch = arch2();
        let table = ScheduleTable::empty(t(40));
        assert!(matches!(
            table.replicate_to(&arch, t(50)),
            Err(TableError::ReplicateAlign { .. })
        ));
        assert!(table.replicate_to(&arch, t(40)).is_ok());
    }

    #[test]
    fn without_apps_filters_and_compacts_frames() {
        let arch = arch2();
        let msg = |app: u32, edge: u32, start: u64, end: u64| ScheduledMessage {
            app: AppId(app),
            msg: MsgRef::new(0, incdes_graph::EdgeId(edge)),
            instance: 0,
            reservation: BusReservation {
                occurrence: 0,
                owner: PeId(0),
                transmit_start: t(start),
                arrival: t(end),
            },
        };
        let table = ScheduleTable::new(
            t(40),
            vec![
                job(0, 0, 0, 0, 0, 0, 4, 0, 40),
                job(1, 0, 0, 0, 1, 0, 4, 0, 40),
            ],
            vec![msg(0, 0, 0, 4), msg(1, 0, 4, 6), msg(1, 1, 6, 9)],
        );
        let without = table.without_apps(&arch, &[AppId(0)]);
        assert!(without.jobs().iter().all(|j| j.job.app != AppId(0)));
        assert_eq!(without.jobs().len(), 1);
        // App 1's frames compacted to the front of occurrence 0; the
        // durations and the occurrence are unchanged.
        let m: Vec<_> = without
            .messages()
            .iter()
            .map(|m| {
                (
                    m.reservation.occurrence,
                    m.reservation.transmit_start,
                    m.reservation.arrival,
                )
            })
            .collect();
        assert_eq!(m, vec![(0, t(0), t(2)), (0, t(2), t(5))]);
        // The compacted table replays cleanly into a bus timeline (a
        // frame with a hole would panic here).
        let bus = without.bus_timeline(&arch);
        assert_eq!(bus.used(0), t(5));
    }

    #[test]
    fn pe_timelines_reflect_jobs() {
        let arch = arch2();
        let table = ScheduleTable::new(
            t(100),
            vec![
                job(0, 0, 0, 0, 0, 10, 30, 0, 100),
                job(0, 0, 0, 1, 1, 0, 5, 0, 100),
            ],
            vec![],
        );
        let tls = table.pe_timelines(&arch);
        assert_eq!(tls[0].busy_time(), t(20));
        assert_eq!(tls[1].busy_time(), t(5));
        assert_eq!(tls[0].gaps(), vec![(t(0), t(10)), (t(30), t(100))]);
    }

    #[test]
    fn bus_timeline_replay() {
        let arch = arch2();
        let table = ScheduleTable::new(
            t(40),
            vec![],
            vec![
                ScheduledMessage {
                    app: AppId(0),
                    msg: MsgRef::new(0, incdes_graph::EdgeId(0)),
                    instance: 0,
                    reservation: BusReservation {
                        occurrence: 0,
                        owner: PeId(0),
                        transmit_start: t(0),
                        arrival: t(4),
                    },
                },
                ScheduledMessage {
                    app: AppId(0),
                    msg: MsgRef::new(0, incdes_graph::EdgeId(1)),
                    instance: 0,
                    reservation: BusReservation {
                        occurrence: 0,
                        owner: PeId(0),
                        transmit_start: t(4),
                        arrival: t(6),
                    },
                },
            ],
        );
        let bus = table.bus_timeline(&arch);
        assert_eq!(bus.used(0), t(6));
        assert_eq!(bus.message_count(0), 2);
    }

    #[test]
    fn render_text_shape() {
        let arch = arch2();
        let table = ScheduleTable::new(t(100), vec![job(0, 0, 0, 0, 0, 0, 50, 0, 100)], vec![]);
        let s = table.render_text(&arch, 20);
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 3); // 2 PEs + bus
        assert!(lines[0].contains("AAAAAAAAAA"));
        assert!(lines[2].contains("bus"));
    }
}
