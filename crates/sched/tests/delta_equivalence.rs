//! Differential fuzz suite for the engine's hinted runs.
//!
//! Every raw schedule of the search loops patches the job arena in place
//! from a changed-variable hint ([`ChangedVar`]), resets the timelines
//! from the frozen base and re-places the whole current application.
//! These properties drive thousands of random single-move chains — the
//! exact workload the MH/SA strategies produce: remaps, gap- and
//! slot-hint changes, exact revisits (a move undone, A→B→A), many of
//! them infeasible — over random architectures, applications and frozen
//! tables, asserting that the hinted engine's output (tables *and*
//! slack profiles, or errors) is bit-equal to the one-shot
//! [`incdes_sched::schedule`] oracle at **every** step. Debug builds
//! additionally re-expand every patched arena and compare it with the
//! patch. Failures shrink to a minimal failing move chain via the
//! proptest harness.

use incdes_graph::{EdgeId, NodeId};
use incdes_model::{
    AppId, Application, Architecture, BusConfig, Message, PeId, ProcRef, Process, ProcessGraph,
    Time,
};
use incdes_obs::counters::{self, Counter};
use incdes_sched::engine::{ChangedVar, FrozenBase, Scheduler};
use incdes_sched::{schedule, AppSpec, Hints, Mapping, MsgRef, SlackProfile};
use proptest::prelude::*;

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

/// Deterministically builds a layered graph from proptest-driven choices
/// (every process is allowed on all three PEs, so remap moves are always
/// structurally valid).
fn build_graph(
    layers: &[usize],
    wcets: &[u64],
    parents: &[usize],
    msg_bytes: &[u32],
    period: Time,
) -> ProcessGraph {
    let mut g = ProcessGraph::new("rg", period, period);
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut layer_of: Vec<usize> = Vec::new();
    let mut idx = 0usize;
    for (li, &count) in layers.iter().enumerate() {
        for _ in 0..count.max(1) {
            let w = 1 + wcets[idx % wcets.len()] % 8;
            let mut p = Process::new(format!("p{idx}"));
            for pe in 0..3u32 {
                p = p.wcet(PeId(pe), Time::new(w + (pe as u64 + idx as u64) % 3));
            }
            nodes.push(g.add_process(p));
            layer_of.push(li);
            idx += 1;
        }
    }
    let mut e = 0usize;
    for i in 0..nodes.len() {
        if layer_of[i] == 0 {
            continue;
        }
        let earlier: Vec<usize> = (0..nodes.len())
            .filter(|&j| layer_of[j] < layer_of[i])
            .collect();
        let parent = earlier[parents[i % parents.len()] % earlier.len()];
        let bytes = 1 + msg_bytes[e % msg_bytes.len()] % 8;
        g.add_message(
            nodes[parent],
            nodes[i],
            Message::new(format!("m{e}"), bytes),
        )
        .unwrap();
        e += 1;
    }
    g
}

fn proc_var(node: usize) -> ChangedVar {
    ChangedVar::Proc {
        spec: 0,
        graph: 0,
        node: NodeId(node as u32),
    }
}

/// Applies one single-variable design move, decoded from raw proptest
/// choices against the application's actual shape, and returns the
/// variable it changed. A remap resets the process's gap hint, as
/// `incdes_mapping::Solution::apply` does.
fn apply_move(
    app: &Application,
    mapping: &mut Mapping,
    hints: &mut Hints,
    mv: (u8, usize, u32),
) -> ChangedVar {
    let g = &app.graphs[0];
    let nodes = g.process_count();
    let edges = g.dag().edge_ids().count();
    let (kind, raw_target, raw_value) = mv;
    let node = raw_target % nodes;
    let pr = ProcRef::new(0, NodeId(node as u32));
    match kind % 3 {
        0 => {
            mapping.assign(pr, PeId(raw_value % 3));
            hints.set_proc_gap(pr, 0);
            proc_var(node)
        }
        2 if edges > 0 => {
            let edge = EdgeId((raw_target % edges) as u32);
            hints.set_msg_slot(MsgRef::new(0, edge), raw_value % 3);
            ChangedVar::Msg {
                spec: 0,
                graph: 0,
                edge,
            }
        }
        _ => {
            hints.set_proc_gap(pr, raw_value % 3);
            proc_var(node)
        }
    }
}

/// Case count of the differential properties: 48 in an ordinary test
/// run, overridable through `PROPTEST_CASES` — CI runs a dedicated
/// high-case job on this suite.
fn fuzz_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases()))]

    /// The heart of the suite: a persistent scheduler walking a random
    /// single-move chain over a random frozen base, each step hinted
    /// with the variable it changed, agrees with the one-shot
    /// `schedule()` oracle on every step — tables, slack profiles and
    /// errors alike. Move kind 3 undoes the previous step (swapping the
    /// two most recent designs), so chains revisit exact solutions.
    #[test]
    fn delta_chain_matches_oracle_at_every_step(
        layers in proptest::collection::vec(1usize..4, 1..4),
        wcets in proptest::collection::vec(0u64..8, 4),
        parents in proptest::collection::vec(0usize..7, 4),
        msg_bytes in proptest::collection::vec(0u32..8, 4),
        frozen_layers in proptest::collection::vec(1usize..3, 0..3),
        initial_pes in proptest::collection::vec(0u32..3, 16),
        moves in proptest::collection::vec((0u8..4, 0usize..64, 0u32..8), 1..24),
    ) {
        let arch = arch3();
        let horizon = Time::new(480);

        // Random frozen table (possibly none).
        let frozen = if frozen_layers.is_empty() {
            None
        } else {
            let fg = build_graph(&frozen_layers, &wcets, &parents, &msg_bytes, Time::new(480));
            let fapp = Application::new("frozen", vec![fg]);
            let mut fmap = Mapping::new();
            for (i, (pr, _)) in fapp.processes().enumerate() {
                fmap.assign(pr, PeId(initial_pes[i % initial_pes.len()]));
            }
            let fhints = Hints::empty();
            let fspec = AppSpec::new(AppId(0), &fapp, &fmap, &fhints);
            schedule(&arch, &[fspec], None, horizon).ok()
        };

        let g = build_graph(&layers, &wcets, &parents, &msg_bytes, Time::new(240));
        let app = Application::new("current", vec![g]);
        let mut mapping = Mapping::new();
        for (i, (pr, _)) in app.processes().enumerate() {
            mapping.assign(pr, PeId(initial_pes[(i + 3) % initial_pes.len()]));
        }
        let mut hints = Hints::empty();
        // The design before the latest move, and the variable it changed.
        let mut undo: Option<(Mapping, Hints, ChangedVar)> = None;

        let base = FrozenBase::new(&arch, frozen.as_ref(), horizon).unwrap();
        let mut engine = Scheduler::new();
        let before = counters::snapshot();

        // Step 0: the initial solution, then one single move per step.
        for step in 0..=moves.len() {
            let changed = if step == 0 {
                None
            } else if moves[step - 1].0 == 3 && undo.is_some() {
                let (m, h, var) = undo.take().unwrap();
                let prev_m = std::mem::replace(&mut mapping, m);
                let prev_h = std::mem::replace(&mut hints, h);
                undo = Some((prev_m, prev_h, var));
                Some(var)
            } else {
                let (m, h) = (mapping.clone(), hints.clone());
                let var = apply_move(&app, &mut mapping, &mut hints, moves[step - 1]);
                undo = Some((m, h, var));
                Some(var)
            };
            let spec = AppSpec::new(AppId(1), &app, &mapping, &hints);
            let oracle = schedule(&arch, &[spec], frozen.as_ref(), horizon);
            let hint: Option<Vec<ChangedVar>> = changed.map(|v| vec![v]);
            let run = engine.schedule_hinted(&arch, &[spec], &base, hint.as_deref());
            match (oracle, run) {
                (Ok(reference), Ok((placements, slack))) => {
                    prop_assert_eq!(&base.materialize(&placements), &reference,
                        "table diverged at step {} ({:?})", step, changed);
                    prop_assert_eq!(&slack, &SlackProfile::from_table(&arch, &reference),
                        "slack diverged at step {} ({:?})", step, changed);
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(&a, &b, "error diverged at step {}", step);
                }
                (a, b) => prop_assert!(
                    false,
                    "feasibility diverged at step {} ({:?}): oracle {:?} engine {:?}",
                    step, changed, a.is_ok(), b.is_ok()
                ),
            }
        }
        // Every hinted step patched the arena, failed runs included:
        // the app and its allowed PEs never change along the chain. (The
        // oracle's one-shot runs expand, so only patches are counted.)
        let d = counters::snapshot().delta_since(&before);
        prop_assert_eq!(d.get(Counter::ArenaPatched), moves.len() as u64);
    }

    /// Multi-variable hints: a chain revisiting a small palette of
    /// solutions in random order, each step hinted with every process
    /// whose PE differs from the previous visit's (none on an exact
    /// revisit), stays bit-equal to the one-shot oracle at every step.
    #[test]
    fn keyed_revisit_chain_matches_oracle(
        pes in proptest::collection::vec(0u32..3, 24),
        visits in proptest::collection::vec(0usize..4, 2..16),
    ) {
        let arch = arch3();
        let horizon = Time::new(240);
        let mut g = ProcessGraph::new("wide", horizon, horizon);
        for i in 0..6 {
            let mut p = Process::new(format!("p{i}"));
            for pe in 0..3u32 {
                p = p.wcet(PeId(pe), Time::new(5 + (i % 4) as u64));
            }
            g.add_process(p);
        }
        let app = Application::new("palette", vec![g]);
        // Palette of four candidate solutions over the same six nodes.
        let palette: Vec<Mapping> = (0..4)
            .map(|s| {
                let mut m = Mapping::new();
                for (i, (pr, _)) in app.processes().enumerate() {
                    m.assign(pr, PeId(pes[s * 6 + i]));
                }
                m
            })
            .collect();

        let hints = Hints::empty();
        let base = FrozenBase::new(&arch, None, horizon).unwrap();
        let mut engine = Scheduler::new();
        let before = counters::snapshot();
        let mut prev: Option<usize> = None;
        for (step, &sol) in visits.iter().enumerate() {
            let changed: Option<Vec<ChangedVar>> = prev.map(|p| {
                (0..6)
                    .filter(|&i| pes[p * 6 + i] != pes[sol * 6 + i])
                    .map(proc_var)
                    .collect()
            });
            let spec = AppSpec::new(AppId(0), &app, &palette[sol], &hints);
            let reference = schedule(&arch, &[spec], None, horizon).unwrap();
            let (placements, slack) = engine
                .schedule_hinted(&arch, &[spec], &base, changed.as_deref())
                .unwrap();
            prop_assert_eq!(&base.materialize(&placements), &reference,
                "table diverged at step {}", step);
            prop_assert_eq!(&slack, &SlackProfile::from_table(&arch, &reference),
                "slack diverged at step {}", step);
            prev = Some(sol);
        }
        let d = counters::snapshot().delta_since(&before);
        prop_assert_eq!(d.get(Counter::ArenaPatched), visits.len() as u64 - 1);
    }
}

/// Deterministic hint-toggle chain: toggling the gap hint of one node of
/// a wide graph over a frozen base patches that one variable per run and
/// matches the oracle bit-for-bit every round.
#[test]
fn hint_toggle_chain_matches_oracle() {
    use incdes_sched::{JobId, ScheduleTable, ScheduledJob};
    let arch = arch3();
    let horizon = Time::new(240);
    let mut g = ProcessGraph::new("wide", Time::new(240), Time::new(240));
    for i in 0..10 {
        let mut p = Process::new(format!("p{i}"));
        for pe in 0..3u32 {
            p = p.wcet(PeId(pe), Time::new(5 + (i % 4) as u64));
        }
        g.add_process(p);
    }
    let app = Application::new("wide", vec![g]);
    let mut mapping = Mapping::new();
    for (pr, _) in app.processes() {
        mapping.assign(pr, PeId(pr.node.index() as u32 % 3));
    }
    let mut hints = Hints::empty();
    // A frozen blocker mid-horizon on every PE keeps two feasible gaps
    // around, so both hint values (0 and 1) stay schedulable.
    let frozen = ScheduleTable::new(
        horizon,
        (0..3u32)
            .map(|pe| ScheduledJob {
                job: JobId::new(AppId(9), 0, 0, NodeId(pe)),
                pe: PeId(pe),
                start: Time::new(100),
                end: Time::new(120),
                release: Time::ZERO,
                deadline: horizon,
            })
            .collect(),
        vec![],
    );
    let base = FrozenBase::new(&arch, Some(&frozen), horizon).unwrap();
    let mut engine = Scheduler::new();
    let toggled = [proc_var(8)];

    let before = counters::snapshot();
    for round in 0..20u32 {
        hints.set_proc_gap(ProcRef::new(0, NodeId(8)), round % 2);
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let hint = (round > 0).then_some(&toggled[..]);
        let (placements, slack) = engine.schedule_hinted(&arch, &[spec], &base, hint).unwrap();
        let reference = schedule(&arch, &[spec], Some(&frozen), horizon).unwrap();
        assert_eq!(base.materialize(&placements), reference, "round {round}");
        assert_eq!(slack, SlackProfile::from_table(&arch, &reference));
    }
    let d = counters::snapshot().delta_since(&before);
    assert_eq!(d.get(Counter::ArenaPatched), 19, "every toggle patched");
}
