//! Deterministic work counters of the evaluation engine, read from a
//! small figure-1 campaign: they pin the three reuse mechanisms the
//! engine keeps — in-place arena patching, one table per strategy run,
//! and answering an unchanged design without re-placing — without
//! timing anything.

use incdes_bench::quality_campaign_spec;
use incdes_explore::run_campaign;
use incdes_mapping::{MhConfig, SaConfig};
use incdes_obs::counters::Counter;
use incdes_synth::paper::dac2001_small;

#[test]
fn figure_one_grid_counters_pin_the_engine() {
    let mut preset = dac2001_small();
    preset.current_sizes = vec![20, 40];
    preset.seeds = vec![5];
    let mh = MhConfig {
        max_iterations: 24,
        ..MhConfig::default()
    };
    let mut spec = quality_campaign_spec(&preset, &mh, &SaConfig::quick());
    spec.name = "engine-counters".to_string();
    let run = run_campaign(&spec, 1).expect("the small figure-1 spec is valid");

    let mut scenarios = 0;
    for outcome in &run.outcomes {
        let s = outcome.expect_completed();
        scenarios += 1;
        let label = format!("{} size {}", s.key.strategy.name(), s.key.size);
        assert!(
            s.steps.iter().all(|step| step.feasible),
            "{label}: infeasible step"
        );
        // Every script step is one strategy run.
        let runs = s.steps.len() as u64;
        let c = &s.counters;
        assert_eq!(c.get(Counter::TablesMaterialized), runs, "{label}: tables");
        // AH, MH and SA each score the initial mapping's result again
        // first, which the scheduler answers without re-placing.
        assert!(c.get(Counter::MemoHits) >= runs, "{label}: memo hits");
        // Each strategy run binds one scheduler, which expands its arena
        // on its first run and patches it on every later one, however
        // many variables a candidate changes.
        assert_eq!(
            c.get(Counter::ArenaExpansions),
            runs,
            "{label}: {} arena patches",
            c.get(Counter::ArenaPatched)
        );
    }
    assert_eq!(scenarios, 6);
}
