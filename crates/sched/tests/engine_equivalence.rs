//! Engine ↔ naive equivalence property tests.
//!
//! `schedule()` itself delegates to the engine (a fresh `FrozenBase` +
//! `Scheduler` per call), so what these properties actually pin is the
//! *reuse* machinery: one long-lived `Scheduler` whose job arena,
//! priority cache and timelines are recycled across many evaluations —
//! with varying mappings and hints over random frozen tables — must
//! keep producing exactly the table and slack profile a cold one-shot
//! run produces. (The `DesignCost` leg of the equivalence lives
//! in the facade-level `tests/eval_engine.rs`, since `incdes-metrics`
//! sits above this crate.)

use incdes_graph::NodeId;
use incdes_model::{
    AppId, Application, Architecture, BusConfig, Message, PeId, Process, ProcessGraph, Time,
};
use incdes_sched::engine::{FrozenBase, Scheduler};
use incdes_sched::{schedule, AppSpec, Hints, Mapping, MsgRef, SlackProfile};
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

/// Deterministically builds a layered graph from proptest-driven choices.
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

/// Builds the mapping/hints of one design alternative from choice vecs.
fn solution_of(
    app: &Application,
    pe_choice: &[u32],
    gap_hints: &[u32],
    slot_hints: &[u32],
    salt: usize,
) -> (Mapping, Hints) {
    let mut mapping = Mapping::new();
    let mut hints = Hints::empty();
    for (i, (pr, _)) in app.processes().enumerate() {
        mapping.assign(pr, PeId(pe_choice[(i + salt) % pe_choice.len()]));
        hints.set_proc_gap(pr, gap_hints[(i + salt) % gap_hints.len()]);
    }
    for (gi, gr) in app.graphs.iter().enumerate() {
        for (ei, e) in gr.dag().edge_ids().enumerate() {
            hints.set_msg_slot(
                MsgRef::new(gi, e),
                slot_hints[(ei + salt) % slot_hints.len()],
            );
        }
    }
    (mapping, hints)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A persistent `Scheduler` evaluating a stream of random design
    /// alternatives over a random frozen table agrees with the one-shot
    /// `schedule()` + `SlackProfile::from_table` path on every single
    /// alternative: same `ScheduleTable`, same `SlackProfile`, same
    /// error.
    #[test]
    fn persistent_engine_matches_one_shot_path(
        layers in proptest::collection::vec(1usize..4, 1..4),
        wcets in proptest::collection::vec(0u64..8, 4),
        parents in proptest::collection::vec(0usize..7, 4),
        msg_bytes in proptest::collection::vec(0u32..8, 4),
        frozen_layers in proptest::collection::vec(1usize..3, 0..3),
        pe_choice in proptest::collection::vec(0u32..3, 16),
        gap_hints in proptest::collection::vec(0u32..3, 16),
        slot_hints in proptest::collection::vec(0u32..3, 8),
        rounds in 2usize..6,
    ) {
        let arch = arch3();
        let horizon = Time::new(480);

        // Random frozen table (possibly none): an app scheduled the
        // ordinary way and taken as the immutable base.
        let frozen = if frozen_layers.is_empty() {
            None
        } else {
            let fg = build_graph(&frozen_layers, &wcets, &parents, &msg_bytes, Time::new(480));
            let fapp = Application::new("frozen", vec![fg]);
            let (fmap, fhints) = solution_of(&fapp, &pe_choice, &gap_hints, &slot_hints, 0);
            let fspec = AppSpec::new(AppId(0), &fapp, &fmap, &fhints);
            // An infeasible frozen candidate runs base-less.
            schedule(&arch, &[fspec], None, horizon).ok()
        };

        let g = build_graph(&layers, &wcets, &parents, &msg_bytes, Time::new(240));
        let app = Application::new("current", vec![g]);

        let base = Arc::new(FrozenBase::new(&arch, frozen.as_ref(), horizon).unwrap());
        let mut engine = Scheduler::new(&arch, base, &[(AppId(1), &app)]).unwrap();

        for salt in 0..rounds {
            let (mapping, hints) = solution_of(&app, &pe_choice, &gap_hints, &slot_hints, salt);
            let spec = AppSpec::new(AppId(1), &app, &mapping, &hints);
            let one_shot = schedule(&arch, &[spec], frozen.as_ref(), horizon);
            let engine_run = engine.run(&[(&mapping, &hints)]).result;
            match (one_shot, engine_run) {
                (Ok(reference), Ok(())) => {
                    prop_assert_eq!(&engine.table(), &reference, "tables diverged (salt {})", salt);
                    let reference_slack = SlackProfile::from_table(&arch, &reference);
                    prop_assert_eq!(
                        &engine.slack_profile(),
                        &reference_slack,
                        "slack diverged (salt {})",
                        salt
                    );
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "errors diverged (salt {})", salt),
                (a, b) => prop_assert!(
                    false,
                    "feasibility diverged (salt {}): one-shot {:?} vs engine {:?}",
                    salt,
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }

    /// `FrozenBase` construction agrees with `schedule()` on which frozen
    /// tables are replayable, and bakes the same slack the naive path
    /// derives for an empty current application set.
    #[test]
    fn frozen_base_bakes_naive_slack(
        frozen_layers in proptest::collection::vec(1usize..4, 1..3),
        wcets in proptest::collection::vec(0u64..8, 4),
        parents in proptest::collection::vec(0usize..7, 4),
        msg_bytes in proptest::collection::vec(0u32..8, 4),
        pe_choice in proptest::collection::vec(0u32..3, 16),
        gap_hints in proptest::collection::vec(0u32..3, 16),
        slot_hints in proptest::collection::vec(0u32..3, 8),
    ) {
        let arch = arch3();
        let horizon = Time::new(480);
        let fg = build_graph(&frozen_layers, &wcets, &parents, &msg_bytes, Time::new(480));
        let fapp = Application::new("frozen", vec![fg]);
        let (fmap, fhints) = solution_of(&fapp, &pe_choice, &gap_hints, &slot_hints, 0);
        let fspec = AppSpec::new(AppId(0), &fapp, &fmap, &fhints);
        let Ok(frozen) = schedule(&arch, &[fspec], None, horizon) else {
            return Ok(());
        };
        let base = FrozenBase::new(&arch, Some(&frozen), horizon).unwrap();
        let naive_slack = SlackProfile::from_table(&arch, &frozen);
        prop_assert_eq!(base.frozen_job_count(), frozen.jobs().len());
        prop_assert_eq!(base.frozen_message_count(), frozen.messages().len());
        for pe in arch.pe_ids() {
            prop_assert_eq!(base.gaps_of(pe), naive_slack.gaps_of(pe));
        }
        prop_assert_eq!(base.bus_timeline().free_windows(), naive_slack.bus_windows());
        // Scheduling *nothing* on the base reproduces the frozen table.
        let mut engine = Scheduler::new(&arch, Arc::new(base), &[]).unwrap();
        engine.run(&[]).result.unwrap();
        prop_assert_eq!(engine.table(), frozen);
        prop_assert_eq!(engine.slack_profile(), naive_slack);
    }

    /// The baked timelines the initial mapping probes against equal the
    /// ones a replay of the same frozen table builds
    /// (`ScheduleTable::pe_timelines` / `bus_timeline`).
    #[test]
    fn frozen_base_timelines_match_table_replay(
        frozen_layers in proptest::collection::vec(1usize..4, 1..3),
        wcets in proptest::collection::vec(0u64..8, 4),
        parents in proptest::collection::vec(0usize..7, 4),
        msg_bytes in proptest::collection::vec(0u32..8, 4),
        pe_choice in proptest::collection::vec(0u32..3, 16),
        gap_hints in proptest::collection::vec(0u32..3, 16),
        slot_hints in proptest::collection::vec(0u32..3, 8),
    ) {
        let arch = arch3();
        let horizon = Time::new(480);
        let fg = build_graph(&frozen_layers, &wcets, &parents, &msg_bytes, Time::new(480));
        let fapp = Application::new("frozen", vec![fg]);
        let (fmap, fhints) = solution_of(&fapp, &pe_choice, &gap_hints, &slot_hints, 0);
        let fspec = AppSpec::new(AppId(0), &fapp, &fmap, &fhints);
        let Ok(frozen) = schedule(&arch, &[fspec], None, horizon) else {
            return Ok(());
        };
        let base = FrozenBase::new(&arch, Some(&frozen), horizon).unwrap();
        prop_assert_eq!(base.pe_timelines(), frozen.pe_timelines(&arch));
        let (baked, replayed) = (base.bus_timeline(), frozen.bus_timeline(&arch));
        prop_assert_eq!(baked.occurrence_count(), replayed.occurrence_count());
        for idx in 0..baked.occurrence_count() {
            prop_assert_eq!(baked.occurrence(idx), replayed.occurrence(idx));
            prop_assert_eq!(baked.used(idx), replayed.used(idx));
        }
    }
}
