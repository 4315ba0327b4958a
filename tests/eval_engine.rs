//! Facade-level regression suite for the incremental evaluation engine:
//! the `DesignCost` leg of the naive-vs-engine equivalence — naive
//! (`schedule()` from scratch) vs. the default engine path (frozen base,
//! arena patching, last-result memo) — (the table and slack legs live
//! in `crates/sched/tests/engine_equivalence.rs` and
//! `crates/sched/tests/delta_equivalence.rs`), the `evaluation_count` /
//! `raw_schedule_count` / memo semantics the paper tables rely on, and
//! the SA best-snapshot bookkeeping.

use incdes::mapping::{
    initial_mapping, run_strategy, MappingContext, MhConfig, Move, SaConfig, Solution, Strategy,
};
use incdes::model::prelude::*;
use incdes::model::AppId;
use incdes::obs::counters::{self, Counter};
use incdes::sched::MsgRef;
use incdes::synth::{generate_application, generate_architecture, SynthConfig};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn cfg() -> SynthConfig {
    SynthConfig {
        pe_count: 3,
        slot_length: Time::new(8),
        rounds: 1,
        bytes_per_tick: 8,
        periods: vec![Time::new(240), Time::new(480)],
        graph_size: (4, 9),
        depth: (2, 3),
        wcet: (2, 8),
        pe_allow_prob: 0.7,
        wcet_spread: 0.3,
        msg_bytes: (2, 8),
        edge_extra_prob: 0.1,
    }
}

/// Builds a frozen system of `existing` processes plus a current app.
struct Fixture {
    arch: Architecture,
    app: Application,
    frozen: incdes::sched::ScheduleTable,
    horizon: Time,
    future: FutureProfile,
    weights: incdes::metrics::Weights,
}

impl Fixture {
    fn build(seed: u64, existing: usize, current: usize) -> Fixture {
        Fixture::build_with_demand(seed, existing, current, 10)
    }

    /// Like [`Fixture::build`] with an explicit future-application
    /// demand: a large `demand` keeps the objective above zero, so the
    /// search strategies explore instead of stopping on the first
    /// perfect solution.
    fn build_with_demand(seed: u64, existing: usize, current: usize, demand: usize) -> Fixture {
        let cfg = cfg();
        let arch = generate_architecture(&cfg).unwrap();
        let future = incdes::synth::future_profile_for(&cfg, demand);
        let weights = incdes::metrics::Weights::default();
        let mut system = incdes::core::System::new(arch.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut committed = 0usize;
        let mut i = 0usize;
        while committed < existing {
            let n = 20.min(existing - committed).max(1);
            let app = generate_application(&cfg, &format!("e{i}"), n, &mut rng).unwrap();
            system
                .add_application(app, &future, &weights, &Strategy::AdHoc)
                .expect("fixture existing apps fit");
            committed += n;
            i += 1;
        }
        let app = generate_application(&cfg, "current", current, &mut rng).unwrap();
        let mut periods = vec![system.horizon()];
        periods.extend(app.graphs.iter().map(|g| g.period));
        let horizon = incdes::model::time::hyperperiod(periods).unwrap();
        let frozen = system.table().replicate_to(&arch, horizon).unwrap();
        Fixture {
            arch,
            app,
            frozen,
            horizon,
            future,
            weights,
        }
    }

    fn context(&self) -> MappingContext<'_> {
        MappingContext::new(
            &self.arch,
            AppId(9),
            &self.app,
            Some(&self.frozen),
            self.horizon,
            &self.future,
            &self.weights,
        )
    }
}

/// A deterministic random walk of design alternatives.
fn walk(fixture: &Fixture, count: usize, seed: u64) -> Vec<Solution> {
    let scratch = fixture.context();
    let mut current = initial_mapping(&scratch).expect("fixture current app fits");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let procs: Vec<(ProcRef, Vec<PeId>)> = fixture
        .app
        .processes()
        .map(|(r, p)| (r, p.wcets.iter().map(|(pe, _)| pe).collect()))
        .collect();
    let msgs: Vec<MsgRef> = fixture
        .app
        .graphs
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| g.dag().edge_ids().map(move |e| MsgRef::new(gi, e)))
        .collect();
    let mut out = vec![current.clone()];
    while out.len() < count {
        let mv = match rng.gen_range(0u32..3) {
            0 => {
                let (pr, pes) = &procs[rng.gen_range(0..procs.len())];
                Move::Remap {
                    proc_ref: *pr,
                    to: pes[rng.gen_range(0..pes.len())],
                }
            }
            1 => {
                let (pr, _) = &procs[rng.gen_range(0..procs.len())];
                Move::ProcSlack {
                    proc_ref: *pr,
                    gap: rng.gen_range(0u32..3),
                }
            }
            _ if !msgs.is_empty() => Move::MsgSlack {
                msg: msgs[rng.gen_range(0..msgs.len())],
                slot: rng.gen_range(0u32..3),
            },
            _ => continue,
        };
        current.apply(&mv);
        out.push(current.clone());
    }
    out
}

/// Arena patches the engine made since `before` on this thread.
fn patches_since(before: &counters::CounterSnapshot) -> u64 {
    counters::snapshot()
        .delta_since(before)
        .get(Counter::ArenaPatched)
}

/// Both pipelines agree on every alternative of a random walk — table,
/// slack and cost — over a non-trivial frozen base. The walk's
/// consecutive solutions differ by one move, so the engine actually
/// patches its job arena (pinned by the counter).
#[test]
fn engine_and_naive_agree_on_cost() {
    let fixture = Fixture::build(7, 40, 12);
    let solutions = walk(&fixture, 60, 11);
    let naive = fixture.context().with_naive_evaluation();
    let engine = fixture.context();
    let before = counters::snapshot();
    let mut feasible = 0usize;
    for sol in &solutions {
        match (naive.evaluate(sol), engine.evaluate(sol)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.table, b.table);
                assert_eq!(a.slack, b.slack);
                assert_eq!(a.cost, b.cost);
                feasible += 1;
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!(
                "feasibility diverged: naive {:?} engine {:?}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
    assert!(feasible > 0, "walk must contain feasible alternatives");
    assert!(
        patches_since(&before) > 0,
        "single-move walk must patch the job arena"
    );
}

/// `evaluation_count` keeps its historical meaning (every call counts)
/// while the last-result memo answers an immediate repeat without a
/// raw schedule.
#[test]
fn memo_counts_requested_vs_raw_schedules() {
    let fixture = Fixture::build(3, 20, 8);
    let ctx = fixture.context();
    let solutions = walk(&fixture, 10, 5);
    // Evaluate every solution twice in a row: each repeat is a hit.
    for sol in &solutions {
        let _ = ctx.evaluate(sol);
        let _ = ctx.evaluate(sol);
    }
    assert_eq!(ctx.evaluation_count(), 20);
    assert!(ctx.raw_schedule_count() <= 10);
    assert!(
        ctx.memo_hit_count() >= 10,
        "every repeat must be served from the memo (hits: {})",
        ctx.memo_hit_count()
    );
    // Memoized results are equal to fresh ones.
    let fresh = fixture.context();
    for sol in &solutions {
        match (ctx.evaluate(sol), ctx.evaluate(sol), fresh.evaluate(sol)) {
            (Ok(a), Ok(b), Ok(c)) => {
                assert_eq!(a.cost, c.cost);
                assert_eq!(b.cost, c.cost);
            }
            (Err(a), Err(b), Err(c)) => {
                assert_eq!(a, c);
                assert_eq!(b, c);
            }
            _ => panic!("memoized feasibility diverged"),
        }
    }
}

/// Strategy identity across the two pipelines on a grid of sizes ×
/// seeds: AH, MH and SA produce identical solutions, costs,
/// `evaluation_count()`s and tables whether evaluations run naively or
/// on the engine.
#[test]
fn strategies_identical_across_pipelines() {
    // (seed, frozen system size, current-app size, future demand) grid.
    // The first cells converge in a handful of evaluations (cost hits
    // zero immediately); the demanding last cell keeps the objective
    // positive so MH/SA explore long rejection chains, where the arena
    // patching must engage.
    let grid = [
        (13u64, 30usize, 10usize, 10usize),
        (21, 20, 6, 10),
        (5, 45, 12, 60),
    ];
    let mut patched = 0u64;
    for (seed, existing, current, demand) in grid {
        let fixture = Fixture::build_with_demand(seed, existing, current, demand);
        for strategy in [
            Strategy::AdHoc,
            Strategy::MappingHeuristic(MhConfig {
                max_iterations: 6,
                ..MhConfig::default()
            }),
            Strategy::SimulatedAnnealing(SaConfig {
                max_evaluations: 120,
                ..SaConfig::quick()
            }),
        ] {
            let tag = format!("{} (seed {seed}, {existing}+{current})", strategy.name());
            let naive_ctx = fixture.context().with_naive_evaluation();
            let engine_ctx = fixture.context();
            let a = run_strategy(&naive_ctx, &strategy).expect("fixture is feasible");
            let before = counters::snapshot();
            let b = run_strategy(&engine_ctx, &strategy).expect("fixture is feasible");
            patched += patches_since(&before);
            assert_eq!(a.solution, b.solution, "{tag} solution");
            assert_eq!(a.evaluation.cost, b.evaluation.cost, "{tag} cost");
            assert_eq!(a.evaluation.table, b.evaluation.table, "{tag} table");
            assert_eq!(a.evaluation.slack, b.evaluation.slack, "{tag} slack");
            assert_eq!(
                a.stats.evaluations, b.stats.evaluations,
                "{tag} evaluation count"
            );
            assert!(
                engine_ctx.raw_schedule_count() <= engine_ctx.evaluation_count(),
                "raw schedules never exceed requested evaluations"
            );
        }
    }
    assert!(
        patched > 0,
        "MH/SA neighborhoods must patch the job arena somewhere on the grid"
    );
}

/// SA's lightweight best tracking: the returned evaluation really is the
/// evaluation of the returned solution, and the final snapshot
/// re-derivation does not inflate `evaluation_count` beyond the initial
/// evaluation plus the proposed trials — on the engine and on the naive
/// oracle alike, with identical snapshots.
#[test]
fn sa_best_snapshot_is_consistent() {
    let fixture = Fixture::build(17, 20, 9);
    let cfg = SaConfig {
        max_evaluations: 150,
        ..SaConfig::quick()
    };
    let ctx = fixture.context();
    let before = ctx.evaluation_count();
    let out = run_strategy(&ctx, &Strategy::SimulatedAnnealing(cfg)).expect("feasible");
    // initial_mapping evaluations + 1 initial SA evaluation + at most
    // max_evaluations trials; the final snapshot must not count.
    assert!(ctx.evaluation_count() <= before + out.stats.evaluations);
    let check = fixture.context();
    let fresh = check.evaluate(&out.solution).expect("best is feasible");
    assert_eq!(fresh.cost, out.evaluation.cost);
    assert_eq!(fresh.table, out.evaluation.table);

    // The naive pipeline lands on the same best snapshot.
    let naive_ctx = fixture.context().with_naive_evaluation();
    let naive_out = run_strategy(&naive_ctx, &Strategy::SimulatedAnnealing(cfg)).expect("feasible");
    assert_eq!(naive_out.solution, out.solution);
    assert_eq!(naive_out.evaluation.cost, out.evaluation.cost);
    assert_eq!(naive_out.evaluation.table, out.evaluation.table);
    assert_eq!(naive_out.stats.evaluations, out.stats.evaluations);
}

/// The contract of the differential fuzz suite, lifted to the cost
/// level: along random single-move chains, the engine's C1/C2 terms and
/// final cost are bit-equal to the naive oracle at every step (the
/// batched C1 packer sits only on the engine context).
#[test]
fn delta_costs_bit_equal_along_single_move_chains() {
    for (seed, existing, current) in [(2u64, 25usize, 8usize), (11, 35, 11)] {
        let fixture = Fixture::build(seed, existing, current);
        let solutions = walk(&fixture, 40, seed ^ 0xC0FFEE);
        let naive = fixture.context().with_naive_evaluation();
        let engine = fixture.context();
        let before = counters::snapshot();
        let mut feasible = 0usize;
        for sol in &solutions {
            match (naive.evaluate(sol), engine.evaluate(sol)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.cost.c1_processes, b.cost.c1_processes, "C1P diverged");
                    assert_eq!(a.cost.c1_messages, b.cost.c1_messages, "C1m diverged");
                    assert_eq!(a.cost.c2_processes, b.cost.c2_processes, "C2P diverged");
                    assert_eq!(a.cost.c2_messages, b.cost.c2_messages, "C2m diverged");
                    assert_eq!(a.cost, b.cost, "final cost diverged");
                    assert_eq!(a.table, b.table);
                    assert_eq!(a.slack, b.slack);
                    feasible += 1;
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!(
                    "feasibility diverged: naive {:?} engine {:?}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
        assert!(feasible > 0);
        assert!(patches_since(&before) > 0, "chain must patch the arena");
    }
}
