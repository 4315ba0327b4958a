//! Byte-identity guarantees of the parallel in-scenario search (the SA
//! portfolio): the same spec must produce the same bytes — solution,
//! cost bits, every deterministic counter, the full campaign report —
//! at any search thread count. Thread count is a wall-clock knob, never
//! a semantic one; `sa_chains`/`sa_exchange_period` (which *do* change
//! SA's trajectory) are held fixed while threads vary, and MH runs its
//! sequential search in every mode.

use incdes::explore::{run_campaign, CampaignSpec};
use incdes::mapping::{
    run_strategy, MappingContext, MhConfig, RunStats, SaConfig, SearchParallelism, Strategy,
};
use incdes::prelude::*;
use incdes::synth::{generate_application, generate_architecture, SynthConfig};
use incdes_model::time::hyperperiod;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A small, fast configuration with enough variety to shake out bugs.
fn small_cfg(pe_count: u32, slot: u64) -> SynthConfig {
    let cycle = pe_count as u64 * slot;
    SynthConfig {
        pe_count,
        slot_length: Time::new(slot),
        rounds: 1,
        bytes_per_tick: 8,
        periods: vec![Time::new(cycle * 4), Time::new(cycle * 8)],
        graph_size: (3, 8),
        depth: (2, 3),
        wcet: (2, 8),
        pe_allow_prob: 0.6,
        wcet_spread: 0.3,
        msg_bytes: (2, 8),
        edge_extra_prob: 0.15,
    }
}

/// The deterministic bytes of one strategy run: the chosen design
/// variables, the bit pattern of the cost, and every counter except
/// wall-clock.
fn run_bytes(out: &incdes::mapping::Outcome) -> (String, u64, [usize; 3]) {
    (
        format!("{:?}", out.solution),
        out.evaluation.cost.total.to_bits(),
        [
            out.stats.evaluations,
            out.stats.iterations,
            out.stats.raw_schedules,
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// MH and SA (portfolio chains) produce identical results —
    /// solution, cost bits, all counters — at search thread counts 1, 2
    /// and 8.
    #[test]
    fn search_results_identical_across_thread_counts(
        seed in 0u64..2000,
        size in 4usize..14,
    ) {
        let cfg = small_cfg(3, 10);
        let arch = generate_architecture(&cfg).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let app = generate_application(&cfg, "a", size, &mut rng).unwrap();
        let future = incdes::synth::future_profile_for(&cfg, 10);
        let weights = incdes::metrics::Weights::default();
        let horizon = hyperperiod(app.graphs.iter().map(|g| g.period)).unwrap();
        let mh = Strategy::MappingHeuristic(MhConfig {
            max_iterations: 4,
            ..MhConfig::default()
        });
        let sa = Strategy::SimulatedAnnealing(SaConfig {
            max_evaluations: 120,
            ..SaConfig::quick()
        });
        let run = |threads: usize| {
            let ctx = MappingContext::new(&arch, AppId(0), &app, None, horizon, &future, &weights)
                .with_parallelism(SearchParallelism::Parallel {
                    threads,
                    sa_chains: 2,
                    sa_exchange_period: 16,
                });
            let mh_out = run_strategy(&ctx, &mh);
            let sa_out = run_strategy(&ctx, &sa);
            match (mh_out, sa_out) {
                (Ok(m), Ok(s)) => Some((run_bytes(&m), run_bytes(&s))),
                _ => None, // overloaded instance: infeasible at every thread count below
            }
        };
        let baseline = run(1);
        prop_assert_eq!(&baseline, &run(2), "2 threads diverged from 1");
        prop_assert_eq!(&baseline, &run(8), "8 threads diverged from 1");
    }
}

/// The campaign pipeline end-to-end: identical spec, thread counts
/// {1, 2, 8}, reports compared as bytes.
#[test]
fn campaign_reports_byte_identical_across_search_thread_counts() {
    let with_threads = |threads: usize| {
        let mut spec = CampaignSpec::small_demo();
        spec.parallelism = SearchParallelism::Parallel {
            threads,
            sa_chains: 2,
            sa_exchange_period: 16,
        };
        run_campaign(&spec, 1)
            .expect("demo spec is valid")
            .report()
            .to_json_pretty()
            .expect("report serializes")
    };
    let baseline = with_threads(1);
    for threads in [2, 8] {
        assert_eq!(
            baseline,
            with_threads(threads),
            "search threads={threads} changed the campaign report"
        );
    }
}

/// MH runs its sequential search in every mode: under an SA-portfolio
/// configuration it finds the same solution at the same cost as the
/// sequential mode, with the same evaluations, iterations and raw
/// schedules.
#[test]
fn parallel_mh_matches_sequential_solution() {
    let cfg = small_cfg(3, 10);
    let arch = generate_architecture(&cfg).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let app = generate_application(&cfg, "a", 10, &mut rng).unwrap();
    let future = incdes::synth::future_profile_for(&cfg, 10);
    let weights = incdes::metrics::Weights::default();
    let horizon = hyperperiod(app.graphs.iter().map(|g| g.period)).unwrap();
    let run = |par: SearchParallelism| {
        let ctx = MappingContext::new(&arch, AppId(0), &app, None, horizon, &future, &weights)
            .with_parallelism(par);
        run_strategy(&ctx, &Strategy::mh()).expect("instance is feasible")
    };
    let seq = run(SearchParallelism::Sequential);
    let par = run(SearchParallelism::Parallel {
        threads: 4,
        sa_chains: 2,
        sa_exchange_period: 16,
    });
    assert_eq!(format!("{:?}", seq.solution), format!("{:?}", par.solution));
    assert_eq!(
        seq.evaluation.cost.total.to_bits(),
        par.evaluation.cost.total.to_bits()
    );
    assert_eq!(seq.stats.evaluations, par.stats.evaluations);
    assert_eq!(seq.stats.iterations, par.stats.iterations);
    assert_eq!(seq.stats.raw_schedules, par.stats.raw_schedules);
}

/// `RunStats::merge` folds per-worker tallies; order independence is
/// what keeps the totals independent of which worker finished first.
#[test]
fn run_stats_merge_folds_worker_tallies() {
    let stats = |k: usize| RunStats {
        evaluations: k,
        iterations: k + 1,
        elapsed: std::time::Duration::from_millis(k as u64),
        raw_schedules: k / 2,
        delta_schedules: k / 4,
    };
    let parts = [stats(2), stats(9), stats(4), stats(31)];
    let forward = parts.iter().copied().reduce(RunStats::merge).unwrap();
    let backward = parts.iter().rev().copied().reduce(RunStats::merge).unwrap();
    assert_eq!(forward, backward);
    assert_eq!(forward.evaluations, 2 + 9 + 4 + 31);
}
