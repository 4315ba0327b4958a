//! Differential fuzz suite for the engine's patched runs.
//!
//! A [`Scheduler`] is bound to one architecture, base and application
//! and finds what changed between runs itself: each run diffs the
//! design against its job arena, patches whatever differs, resets the
//! timelines from the frozen base and re-places the whole current
//! application, or answers without re-placing: a design equal to the
//! last run's, or one that changes only jobs ranked after the job the
//! last run failed at, gets that run's outcome. These properties drive
//! thousands of random move chains — the exact workload the MH/SA
//! strategies produce: remaps, gap- and slot-hint changes, exact
//! revisits (a move undone, A→B→A), jumps of several moves at once and
//! immediate reruns, many of them infeasible — over random
//! architectures, applications and frozen tables, asserting that the
//! engine's output (tables *and* slack profiles, or errors) is bit-equal
//! to the one-shot [`incdes_sched::schedule`] oracle at **every** step.
//! Debug builds additionally re-expand every patched arena and compare
//! it with the patch, and re-run the list scheduler behind every
//! repeated failure answered without re-placing. Failures shrink to a
//! minimal failing move chain via the proptest harness.

use incdes_graph::{EdgeId, NodeId};
use incdes_model::{
    AppId, Application, Architecture, BusConfig, Message, PeId, ProcRef, Process, ProcessGraph,
    Time,
};
use incdes_obs::counters::{self, Counter};
use incdes_sched::engine::{FrozenBase, Run, Scheduler};
use incdes_sched::{schedule, AppSpec, Hints, Mapping, MsgRef, SchedError, SlackProfile};
use proptest::prelude::*;
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

/// Applies one single-variable design move, decoded from raw proptest
/// choices against the application's actual shape. A remap resets the
/// process's gap hint, as `incdes_mapping::Solution::apply` does. The
/// move may leave the design as it was (a remap to the current PE, a
/// hint set to its current value).
fn apply_move(app: &Application, mapping: &mut Mapping, hints: &mut Hints, mv: (u8, usize, u32)) {
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
        }
        2 if edges > 0 => {
            let edge = EdgeId((raw_target % edges) as u32);
            hints.set_msg_slot(MsgRef::new(0, edge), raw_value % 3);
        }
        _ => hints.set_proc_gap(pr, raw_value % 3),
    }
}

/// Asserts that one engine run matches the one-shot oracle: the same
/// table and slack profile, or the same error.
fn assert_matches_oracle(
    engine: &Scheduler<'_>,
    run: &Run,
    oracle: &Result<incdes_sched::ScheduleTable, SchedError>,
    arch: &Architecture,
    step: usize,
) -> Result<(), TestCaseError> {
    match (oracle, &run.result) {
        (Ok(reference), Ok(())) => {
            prop_assert_eq!(
                &engine.table(),
                reference,
                "table diverged at step {}",
                step
            );
            prop_assert_eq!(
                &engine.slack_profile(),
                &SlackProfile::from_table(arch, reference),
                "slack diverged at step {}",
                step
            );
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "error diverged at step {}", step),
        (a, b) => prop_assert!(
            false,
            "feasibility diverged at step {}: oracle {:?} engine {:?}",
            step,
            a.is_ok(),
            b.is_ok()
        ),
    }
    Ok(())
}

/// The contract of [`Run::unchanged`]: a design equal to the last run's
/// is answered `unchanged`, and a changed design answered `unchanged`
/// follows a failed run and repeats its error (which
/// [`assert_matches_oracle`] then holds to the one-shot oracle).
fn assert_unchanged_contract(
    run: &Run,
    unchanged: bool,
    previous: Option<&Result<(), SchedError>>,
    step: usize,
) -> Result<(), TestCaseError> {
    if unchanged {
        prop_assert!(run.unchanged, "unchanged design re-placed at step {}", step);
    } else if run.unchanged {
        prop_assert!(
            matches!(previous, Some(Err(_))),
            "changed design answered unchanged after a feasible run at step {}",
            step
        );
        prop_assert_eq!(Some(&run.result), previous, "step {}", step);
    }
    Ok(())
}

/// Random frozen table (possibly none): an app scheduled the ordinary
/// way on `arch`, taken as the immutable base.
fn frozen_table(
    arch: &Architecture,
    frozen_layers: &[usize],
    wcets: &[u64],
    parents: &[usize],
    msg_bytes: &[u32],
    initial_pes: &[u32],
    horizon: Time,
) -> Option<incdes_sched::ScheduleTable> {
    if frozen_layers.is_empty() {
        return None;
    }
    let fg = build_graph(frozen_layers, wcets, parents, msg_bytes, horizon);
    let fapp = Application::new("frozen", vec![fg]);
    let mut fmap = Mapping::new();
    for (i, (pr, _)) in fapp.processes().enumerate() {
        fmap.assign(pr, PeId(initial_pes[i % initial_pes.len()]));
    }
    let fhints = Hints::empty();
    let fspec = AppSpec::new(AppId(0), &fapp, &fmap, &fhints);
    schedule(arch, &[fspec], None, horizon).ok()
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

    /// The heart of the suite: one bound scheduler walking a random
    /// single-move chain over a random frozen base agrees with the
    /// one-shot `schedule()` oracle on every step — tables, slack
    /// profiles and errors alike. Move kind 3 undoes the previous step
    /// (swapping the two most recent designs), so chains revisit exact
    /// solutions; a move that leaves the design as it was is answered
    /// without re-placing.
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
        let frozen = frozen_table(
            &arch, &frozen_layers, &wcets, &parents, &msg_bytes, &initial_pes, horizon,
        );
        let g = build_graph(&layers, &wcets, &parents, &msg_bytes, Time::new(240));
        let app = Application::new("current", vec![g]);
        let mut mapping = Mapping::new();
        for (i, (pr, _)) in app.processes().enumerate() {
            mapping.assign(pr, PeId(initial_pes[(i + 3) % initial_pes.len()]));
        }
        let mut hints = Hints::empty();
        // The design before the latest move.
        let mut undo: Option<(Mapping, Hints)> = None;

        let base = Arc::new(FrozenBase::new(&arch, frozen.as_ref(), horizon).unwrap());
        let mut engine = Scheduler::new(&arch, base, &[(AppId(1), &app)]).unwrap();
        let (mut patches, mut changed_steps) = (0, 0);
        let mut previous_result = None;

        // Step 0: the initial solution, then one single move per step.
        for step in 0..=moves.len() {
            let previous = (mapping.clone(), hints.clone());
            if step > 0 {
                if moves[step - 1].0 == 3 && undo.is_some() {
                    let (m, h) = undo.take().unwrap();
                    undo = Some((std::mem::replace(&mut mapping, m), std::mem::replace(&mut hints, h)));
                } else {
                    apply_move(&app, &mut mapping, &mut hints, moves[step - 1]);
                    undo = Some(previous.clone());
                }
            }
            let unchanged = step > 0 && previous == (mapping.clone(), hints.clone());
            let spec = AppSpec::new(AppId(1), &app, &mapping, &hints);
            let oracle = schedule(&arch, &[spec], frozen.as_ref(), horizon);
            let before = counters::snapshot();
            let run = engine.run(&[(&mapping, &hints)]);
            patches += counters::snapshot().delta_since(&before).get(Counter::ArenaPatched);
            assert_unchanged_contract(&run, unchanged, previous_result.as_ref(), step)?;
            assert_matches_oracle(&engine, &run, &oracle, &arch, step)?;
            changed_steps += u64::from(step > 0 && !unchanged);
            previous_result = Some(run.result);
        }
        // Every changed step patched the arena, failed runs included:
        // every mapping is complete and allowed, so no sync fails.
        prop_assert_eq!(patches, changed_steps);
    }

    /// Multi-variable jumps: a chain revisiting a small palette of
    /// solutions in random order (every process may differ between two
    /// visits) stays bit-equal to the one-shot oracle at every step; an
    /// exact revisit of the last design re-places nothing.
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
        let base = Arc::new(FrozenBase::new(&arch, None, horizon).unwrap());
        let mut engine = Scheduler::new(&arch, base, &[(AppId(0), &app)]).unwrap();
        let (mut patches, mut changed_steps) = (0, 0);
        let mut prev: Option<usize> = None;
        let mut previous_result = None;
        for (step, &sol) in visits.iter().enumerate() {
            let unchanged = prev.is_some_and(|p| palette[p] == palette[sol]);
            let spec = AppSpec::new(AppId(0), &app, &palette[sol], &hints);
            let oracle = schedule(&arch, &[spec], None, horizon);
            let before = counters::snapshot();
            let run = engine.run(&[(&palette[sol], &hints)]);
            patches += counters::snapshot().delta_since(&before).get(Counter::ArenaPatched);
            assert_unchanged_contract(&run, unchanged, previous_result.as_ref(), step)?;
            assert_matches_oracle(&engine, &run, &oracle, &arch, step)?;
            changed_steps += u64::from(prev.is_some() && !unchanged);
            prev = Some(sol);
            previous_result = Some(run.result);
        }
        prop_assert_eq!(patches, changed_steps);
    }

    /// Jumps of up to 8 random moves between runs are patched, never
    /// re-expanded, and every run stays bit-equal to the one-shot oracle.
    #[test]
    fn multi_move_jumps_match_oracle(
        layers in proptest::collection::vec(1usize..4, 1..4),
        wcets in proptest::collection::vec(0u64..8, 4),
        parents in proptest::collection::vec(0usize..7, 4),
        msg_bytes in proptest::collection::vec(0u32..8, 4),
        frozen_layers in proptest::collection::vec(1usize..3, 0..3),
        initial_pes in proptest::collection::vec(0u32..3, 16),
        jumps in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0usize..64, 0u32..8), 1..=8),
            1..12,
        ),
    ) {
        let arch = arch3();
        let horizon = Time::new(480);
        let frozen = frozen_table(
            &arch, &frozen_layers, &wcets, &parents, &msg_bytes, &initial_pes, horizon,
        );
        let g = build_graph(&layers, &wcets, &parents, &msg_bytes, Time::new(240));
        let app = Application::new("current", vec![g]);
        let mut mapping = Mapping::new();
        for (i, (pr, _)) in app.processes().enumerate() {
            mapping.assign(pr, PeId(initial_pes[(i + 5) % initial_pes.len()]));
        }
        let mut hints = Hints::empty();
        let base = Arc::new(FrozenBase::new(&arch, frozen.as_ref(), horizon).unwrap());
        let mut engine = Scheduler::new(&arch, base, &[(AppId(1), &app)]).unwrap();
        let (mut expansions, mut patches, mut changed_steps) = (0, 0, 0);
        let mut previous_result = None;
        for step in 0..=jumps.len() {
            let previous = (mapping.clone(), hints.clone());
            if step > 0 {
                for &mv in &jumps[step - 1] {
                    apply_move(&app, &mut mapping, &mut hints, mv);
                }
            }
            let unchanged = step > 0 && previous == (mapping.clone(), hints.clone());
            let spec = AppSpec::new(AppId(1), &app, &mapping, &hints);
            let oracle = schedule(&arch, &[spec], frozen.as_ref(), horizon);
            let before = counters::snapshot();
            let run = engine.run(&[(&mapping, &hints)]);
            let d = counters::snapshot().delta_since(&before);
            expansions += d.get(Counter::ArenaExpansions);
            patches += d.get(Counter::ArenaPatched);
            assert_unchanged_contract(&run, unchanged, previous_result.as_ref(), step)?;
            assert_matches_oracle(&engine, &run, &oracle, &arch, step)?;
            changed_steps += u64::from(step > 0 && !unchanged);
            previous_result = Some(run.result);
        }
        prop_assert_eq!(expansions, 1, "only the first run expands");
        prop_assert_eq!(patches, changed_steps);
    }

    /// Immediate reruns of an unchanged design, infeasible ones included:
    /// after every step of a random move chain (short periods make many
    /// designs miss their deadlines) and after a design whose gap hints
    /// skip every gap, each rerun equals the one-shot oracle, says it is
    /// unchanged, and list-schedules nothing (`heap_pops` stays put).
    #[test]
    fn immediate_reruns_match_oracle(
        layers in proptest::collection::vec(1usize..4, 1..4),
        wcets in proptest::collection::vec(0u64..8, 4),
        parents in proptest::collection::vec(0usize..7, 4),
        msg_bytes in proptest::collection::vec(0u32..8, 4),
        period in 0usize..3,
        initial_pes in proptest::collection::vec(0u32..3, 16),
        moves in proptest::collection::vec((0u8..3, 0usize..64, 0u32..8), 1..12),
        reruns in 1usize..3,
    ) {
        let arch = arch3();
        let horizon = Time::new(480);
        let period = Time::new([30, 60, 240][period]);
        let g = build_graph(&layers, &wcets, &parents, &msg_bytes, period);
        let app = Application::new("current", vec![g]);
        let mut mapping = Mapping::new();
        for (i, (pr, _)) in app.processes().enumerate() {
            mapping.assign(pr, PeId(initial_pes[i % initial_pes.len()]));
        }
        let mut hints = Hints::empty();
        let base = Arc::new(FrozenBase::new(&arch, None, horizon).unwrap());
        let mut engine = Scheduler::new(&arch, base, &[(AppId(1), &app)]).unwrap();
        let check_reruns = |engine: &mut Scheduler<'_>, mapping: &Mapping, hints: &Hints, step: usize| {
            let spec = AppSpec::new(AppId(1), &app, mapping, hints);
            let oracle = schedule(&arch, &[spec], None, horizon);
            let first = engine.run(&[(mapping, hints)]);
            assert_matches_oracle(engine, &first, &oracle, &arch, step)?;
            for _ in 0..reruns {
                let raw = engine.raw_schedule_count();
                let before = counters::snapshot();
                let rerun = engine.run(&[(mapping, hints)]);
                let d = counters::snapshot().delta_since(&before);
                prop_assert!(rerun.unchanged, "rerun at step {} re-placed", step);
                prop_assert_eq!(&rerun.result, &first.result, "rerun at step {}", step);
                prop_assert_eq!(d.get(Counter::HeapPops), 0, "rerun at step {}", step);
                prop_assert_eq!(engine.raw_schedule_count(), raw);
                assert_matches_oracle(engine, &rerun, &oracle, &arch, step)?;
            }
            Ok(())
        };
        for (step, &mv) in moves.iter().enumerate() {
            apply_move(&app, &mut mapping, &mut hints, mv);
            check_reruns(&mut engine, &mapping, &hints, step)?;
        }
        // Every process skips more gaps than the horizon holds.
        for (pr, _) in app.processes() {
            hints.set_proc_gap(pr, 1000);
        }
        check_reruns(&mut engine, &mapping, &hints, moves.len())?;
        prop_assert!(engine.run(&[(&mapping, &hints)]).result.is_err());
    }
}

/// Deterministic hint-toggle chain: toggling the gap hint of one node of
/// a wide graph over a frozen base patches that one process per run and
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
    let base = Arc::new(FrozenBase::new(&arch, Some(&frozen), horizon).unwrap());
    let mut engine = Scheduler::new(&arch, base, &[(AppId(0), &app)]).unwrap();

    let mut patches = 0;
    for round in 0..20u32 {
        hints.set_proc_gap(ProcRef::new(0, NodeId(8)), round % 2);
        let before = counters::snapshot();
        engine.run(&[(&mapping, &hints)]).result.unwrap();
        patches += counters::snapshot()
            .delta_since(&before)
            .get(Counter::ArenaPatched);
        let spec = AppSpec::new(AppId(0), &app, &mapping, &hints);
        let reference = schedule(&arch, &[spec], Some(&frozen), horizon).unwrap();
        assert_eq!(engine.table(), reference, "round {round}");
        assert_eq!(
            engine.slack_profile(),
            SlackProfile::from_table(&arch, &reference)
        );
    }
    assert_eq!(patches, 19, "every toggle patched");
}
