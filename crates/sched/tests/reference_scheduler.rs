//! An independent oracle for the engine's pop order.
//!
//! [`incdes_sched::schedule`] wraps the same engine the search drives,
//! so comparing the two shows only that patches agree with expansions.
//! This suite writes the list scheduler out plainly instead: expand
//! every job over the horizon, take each graph's priorities from
//! [`partial_critical_path`], and pop a `BinaryHeap` of released jobs
//! keyed (urgency ascending, priority descending, ready time ascending,
//! arena index ascending) onto the timelines of a [`FrozenBase`]. Its
//! step order, message order, table and error must equal
//! [`Scheduler::run`]'s, both on a fresh scheduler and on one long-lived
//! scheduler driven through a random move chain: remaps that move
//! priorities, gap and slot hints, and infeasible designs.
//!
//! The generators aim at what a sorted pop order could get wrong: two
//! WCET values and deadlines shared between graphs (many jobs of equal
//! rank, so the ready-time tie-break decides), deadlines below the
//! critical path (urgencies saturated at 0, so the priority decides),
//! two current applications, and a frozen base.

use incdes_graph::{EdgeId, NodeId};
use incdes_model::{
    AppId, Application, Architecture, BusConfig, Message, PeId, ProcRef, Process, ProcessGraph,
    Time,
};
use incdes_obs::counters::{self, Counter};
use incdes_sched::engine::{FrozenBase, Run, Scheduler};
use incdes_sched::priority::partial_critical_path;
use incdes_sched::{
    schedule, AppSpec, Hints, JobId, Mapping, MsgRef, SchedError, ScheduleTable, ScheduledJob,
    ScheduledMessage,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// 3 PEs, 10-tick slots, cycle 30.
fn arch3() -> Architecture {
    Architecture::builder()
        .pe("N0")
        .pe("N1")
        .pe("N2")
        .bus(BusConfig::uniform_round(3, Time::new(10), 1).unwrap())
        .build()
        .unwrap()
}

const HORIZON: u64 = 240;

/// One application's design variables.
type Design<'a> = (AppId, &'a Application, &'a Mapping, &'a Hints);

/// One expanded job of the reference scheduler.
struct RefJob<'a> {
    id: JobId,
    graph: &'a ProcessGraph,
    hints: &'a Hints,
    pe: PeId,
    wcet: Time,
    release: Time,
    deadline: Time,
    priority: Time,
    /// Index of the instance's first job.
    inst_base: usize,
}

/// What the reference scheduler did: the jobs in step order and the
/// messages in emission order (partial when it failed), the outcome,
/// and how many jobs it popped.
struct RefRun {
    jobs: Vec<ScheduledJob>,
    msgs: Vec<ScheduledMessage>,
    result: Result<(), SchedError>,
    pops: u64,
}

/// Expands every job of `apps` over the base's horizon, in the engine's
/// arena order (applications, graphs, instances, nodes), checking each
/// process's PE as the engine's sync does.
fn expand<'a>(
    arch: &Architecture,
    horizon: Time,
    apps: &[Design<'a>],
) -> Result<Vec<RefJob<'a>>, SchedError> {
    let mut jobs = Vec::new();
    for &(app_id, app, mapping, hints) in apps {
        for (gi, g) in app.graphs.iter().enumerate() {
            let mut node_pes = Vec::new();
            for n in g.dag().node_ids() {
                let proc_ref = ProcRef::new(gi, n);
                let pe = mapping
                    .pe_of(proc_ref)
                    .ok_or(SchedError::MappingIncomplete {
                        app: app_id,
                        proc_ref,
                    })?;
                let wcet = g
                    .process(n)
                    .wcets
                    .get(pe)
                    .filter(|w| !w.is_zero() && pe.index() < arch.pe_count())
                    .ok_or(SchedError::NotAllowed {
                        app: app_id,
                        proc_ref,
                        pe,
                    })?;
                node_pes.push((pe, wcet));
            }
            let prio = partial_critical_path(arch, g, |n| mapping.pe_of(ProcRef::new(gi, n)));
            for k in 0..horizon.ticks() / g.period.ticks() {
                let release = Time::new(k * g.period.ticks());
                let inst_base = jobs.len();
                for n in g.dag().node_ids() {
                    let (pe, wcet) = node_pes[n.index()];
                    jobs.push(RefJob {
                        id: JobId::new(app_id, gi, k as u32, n),
                        graph: g,
                        hints,
                        pe,
                        wcet,
                        release,
                        deadline: release + g.deadline,
                        priority: prio[n.index()],
                        inst_base,
                    });
                }
            }
        }
    }
    Ok(jobs)
}

/// The reference list scheduler: a binary heap of released jobs, each
/// pushed when its last predecessor is placed.
fn reference_run(arch: &Architecture, base: &FrozenBase, apps: &[Design<'_>]) -> RefRun {
    let mut out = RefRun {
        jobs: Vec::new(),
        msgs: Vec::new(),
        result: Ok(()),
        pops: 0,
    };
    out.result = expand(arch, base.horizon(), apps)
        .and_then(|jobs| list_schedule(arch, base, &jobs, &mut out));
    out
}

fn list_schedule(
    arch: &Architecture,
    base: &FrozenBase,
    jobs: &[RefJob<'_>],
    out: &mut RefRun,
) -> Result<(), SchedError> {
    let mut pes = base.pe_timelines();
    let mut bus = base.bus_timeline();
    let mut ready: Vec<Time> = jobs.iter().map(|j| j.release).collect();
    let mut preds: Vec<usize> = jobs
        .iter()
        .map(|j| j.graph.dag().in_degree(j.id.node))
        .collect();
    let key = |i: usize, ready: Time| {
        let j = &jobs[i];
        Reverse((
            j.deadline.saturating_sub(j.priority),
            Reverse(j.priority),
            ready,
            i,
        ))
    };
    let mut heap: BinaryHeap<_> = (0..jobs.len())
        .filter(|&i| preds[i] == 0)
        .map(|i| key(i, ready[i]))
        .collect();
    while let Some(Reverse((_, _, job_ready, i))) = heap.pop() {
        out.pops += 1;
        let j = &jobs[i];
        let start = pes[j.pe.index()]
            .reserve_earliest(job_ready, j.wcet, j.hints.proc_gap(j.id.proc_ref()))
            .map_err(|source| SchedError::NoGap { job: j.id, source })?;
        let end = start + j.wcet;
        if end > j.deadline {
            return Err(SchedError::DeadlineMiss {
                job: j.id,
                end,
                deadline: j.deadline,
            });
        }
        let dag = j.graph.dag();
        for &e in dag.out_edges(j.id.node) {
            let succ = j.inst_base + dag.target(e).index();
            let arrival = if jobs[succ].pe == j.pe {
                end
            } else {
                let msg = MsgRef::new(j.id.graph, e);
                let tx = arch.bus().transmission_time(j.graph.message(e).bytes);
                let slot = j.hints.msg_slot(msg) as usize;
                let r = bus
                    .schedule_message_nth(j.pe, end, tx, slot)
                    .map_err(|source| SchedError::NoSlot {
                        job: j.id,
                        msg,
                        source,
                    })?;
                out.msgs.push(ScheduledMessage {
                    app: j.id.app,
                    msg,
                    instance: j.id.instance,
                    reservation: r,
                });
                r.arrival
            };
            ready[succ] = ready[succ].max(arrival);
            preds[succ] -= 1;
            if preds[succ] == 0 {
                heap.push(key(succ, ready[succ]));
            }
        }
        out.jobs.push(ScheduledJob {
            job: j.id,
            pe: j.pe,
            start,
            end,
            release: j.release,
            deadline: j.deadline,
        });
    }
    assert_eq!(out.jobs.len(), jobs.len(), "acyclic graphs schedule fully");
    Ok(())
}

/// Asserts that an engine run equals the reference run: the outcome,
/// the placements in step and emission order (partial ones included),
/// and on success the table.
fn assert_matches_reference(
    engine: &Scheduler<'_>,
    run: &Run,
    reference: &RefRun,
    frozen: &ScheduleTable,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&run.result, &reference.result, "outcome diverged: {}", what);
    let placements = engine.placements();
    prop_assert_eq!(
        placements.jobs(),
        &reference.jobs[..],
        "step order diverged: {}",
        what
    );
    prop_assert_eq!(
        placements.messages(),
        &reference.msgs[..],
        "emission order diverged: {}",
        what
    );
    if run.result.is_ok() {
        let table = ScheduleTable::new(
            frozen.horizon(),
            frozen
                .jobs()
                .iter()
                .chain(&reference.jobs)
                .copied()
                .collect(),
            frozen
                .messages()
                .iter()
                .chain(&reference.msgs)
                .copied()
                .collect(),
        );
        prop_assert_eq!(engine.table(), table, "table diverged: {}", what);
    }
    Ok(())
}

/// A graph of up to six processes decoded from raw proptest choices.
/// Node `i > 0` takes an edge from an earlier node unless its choice is
/// a multiple of 4, and sometimes a second one. Every process may run on
/// every PE, with a WCET of 2 or 3 on each, and messages carry 1 or 4
/// bytes, so equal partial critical paths are common.
fn build_graph(name: &str, shape: &[u32], period: u64, deadline: u64) -> ProcessGraph {
    let mut g = ProcessGraph::new(name, Time::new(period), Time::new(deadline));
    let nodes: Vec<NodeId> = shape
        .iter()
        .enumerate()
        .map(|(i, &raw)| {
            let mut p = Process::new(format!("p{i}"));
            for pe in 0..3 {
                p = p.wcet(PeId(pe), Time::new(2 + u64::from((raw >> (8 + pe)) & 1)));
            }
            g.add_process(p)
        })
        .collect();
    for (i, &raw) in shape.iter().enumerate().skip(1) {
        let bytes = if raw & (1 << 12) == 0 { 1 } else { 4 };
        let first = (raw / 4) as usize % i;
        if raw % 4 != 0 {
            g.add_message(nodes[first], nodes[i], Message::new(format!("m{i}"), bytes))
                .unwrap();
        }
        let second = (raw >> 4) as usize % i;
        if raw & (1 << 11) != 0 && (raw % 4 == 0 || second != first) {
            g.add_message(
                nodes[second],
                nodes[i],
                Message::new(format!("n{i}"), bytes),
            )
            .unwrap();
        }
    }
    g
}

/// A graph's period (dividing the horizon) and deadline, decoded from
/// `raw`: the whole period (half the time), or 40 or 30 ticks, below the
/// critical path of many designs with messages (each message's priority
/// cost is its transmission time plus half the 30-tick bus cycle), so
/// urgencies saturate at 0, feasible designs among them.
fn timing(raw: u32) -> (u64, u64) {
    let period = [60, 120, 240][raw as usize % 3];
    let deadline = [period, period, 40, 30][(raw / 3) as usize % 4];
    (period, deadline)
}

/// An application of one or two graphs; with `shared`, both graphs get
/// the first graph's timing.
fn build_app(name: &str, graphs: &[(Vec<u32>, u32)], shared: bool) -> Application {
    let graphs = graphs
        .iter()
        .enumerate()
        .map(|(gi, (shape, raw))| {
            let (period, deadline) = timing(if shared { graphs[0].1 } else { *raw });
            build_graph(&format!("{name}{gi}"), shape, period, deadline)
        })
        .collect();
    Application::new(name, graphs)
}

/// Every process mapped to a PE drawn from `pes`.
fn initial_mapping(app: &Application, pes: &[u32], offset: usize) -> Mapping {
    let mut mapping = Mapping::new();
    for (i, (pr, _)) in app.processes().enumerate() {
        mapping.assign(pr, PeId(pes[(i + offset) % pes.len()] % 3));
    }
    mapping
}

/// A frozen table on the architecture: a small application scheduled
/// the ordinary way, or an empty table when the choice or the schedule
/// gives none.
fn frozen_table(arch: &Architecture, shape: &[u32], pes: &[u32]) -> ScheduleTable {
    let horizon = Time::new(HORIZON);
    if shape.is_empty() {
        return ScheduleTable::empty(horizon);
    }
    let app = Application::new("frozen", vec![build_graph("f", shape, 120, 120)]);
    let mapping = initial_mapping(&app, pes, 0);
    let hints = Hints::empty();
    let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
    schedule(arch, &[spec], None, horizon).unwrap_or_else(|_| ScheduleTable::empty(horizon))
}

/// Applies one design move, decoded from raw choices against the
/// applications' shapes: a remap (twice as likely, since remaps move
/// priorities), a gap hint or a slot hint.
fn apply_move(apps: &[Application; 2], designs: &mut [(Mapping, Hints); 2], mv: (u8, u8, u32)) {
    let (kind, which, raw) = mv;
    let a = usize::from(which % 2);
    let (app, (mapping, hints)) = (&apps[a], &mut designs[a]);
    let procs: Vec<ProcRef> = app.processes().map(|(pr, _)| pr).collect();
    let pr = procs[raw as usize % procs.len()];
    let value = raw / 64;
    match kind % 4 {
        0 | 1 => {
            mapping.assign(pr, PeId(value % 3));
        }
        2 => hints.set_proc_gap(pr, value % 2),
        _ => {
            let g = &app.graphs[pr.graph];
            let edges = g.message_count();
            if edges > 0 {
                let edge = EdgeId((value as usize % edges) as u32);
                hints.set_msg_slot(MsgRef::new(pr.graph, edge), (value / 8) % 2);
            }
        }
    }
}

proptest! {
    /// A fresh scheduler and one long-lived scheduler agree with the
    /// reference list scheduler at every step of a random move chain
    /// over two applications and a frozen base: step order, emission
    /// order, table or error, and one `heap_pops` per job popped.
    #[test]
    fn prop_scheduler_matches_reference_list_scheduler(
        graphs_a in proptest::collection::vec(
            (proptest::collection::vec(any::<u32>(), 1..7), any::<u32>()),
            1..3,
        ),
        graphs_b in proptest::collection::vec(
            (proptest::collection::vec(any::<u32>(), 1..7), any::<u32>()),
            1..3,
        ),
        shared in 0u8..4,
        frozen_shape in proptest::collection::vec(any::<u32>(), 0..5),
        pes in proptest::collection::vec(0u32..3, 8),
        moves in proptest::collection::vec((0u8..4, 0u8..2, any::<u32>()), 0..24),
    ) {
        let arch = arch3();
        let frozen = frozen_table(&arch, &frozen_shape, &pes);
        let base = Arc::new(FrozenBase::new(&arch, Some(&frozen), frozen.horizon()).unwrap());
        let apps = [
            build_app("a", &graphs_a, shared & 1 != 0),
            build_app("b", &graphs_b, shared & 2 != 0),
        ];
        let ids = [AppId(1), AppId(2)];
        let bound: Vec<_> = ids.iter().copied().zip(apps.iter()).collect();
        let mut designs = [
            (initial_mapping(&apps[0], &pes, 1), Hints::empty()),
            (initial_mapping(&apps[1], &pes, 2), Hints::empty()),
        ];
        let mut engine = Scheduler::new(&arch, Arc::clone(&base), &bound).unwrap();
        for step in 0..=moves.len() {
            if step > 0 {
                apply_move(&apps, &mut designs, moves[step - 1]);
            }
            let design: Vec<Design<'_>> = (0..2)
                .map(|a| (ids[a], &apps[a], &designs[a].0, &designs[a].1))
                .collect();
            let reference = reference_run(&arch, &base, &design);
            let pairs: Vec<_> = designs.iter().map(|(m, h)| (m, h)).collect();

            let mut fresh = Scheduler::new(&arch, Arc::clone(&base), &bound).unwrap();
            let before = counters::snapshot();
            let run = fresh.run(&pairs);
            prop_assert_eq!(
                counters::snapshot().delta_since(&before).get(Counter::HeapPops),
                reference.pops,
                "heap_pops at step {}",
                step
            );
            assert_matches_reference(&fresh, &run, &reference, &frozen, &format!("fresh, step {step}"))?;

            let run = engine.run(&pairs);
            assert_matches_reference(&engine, &run, &reference, &frozen, &format!("chain, step {step}"))?;
        }
    }
}
