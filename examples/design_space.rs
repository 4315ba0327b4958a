//! Weight-sensitivity sweep of the objective function, as a scenario
//! campaign.
//!
//! The objective `C = w1P·C1P + w1m·C1m + w2P·max(0, tneed−C2P) +
//! w2m·max(0, bneed−C2m)` mixes a percentage scale (C1) with a time scale
//! (C2); the weights calibrate them. This example maps the same current
//! application under different weight settings and shows how the chosen
//! design trades packing failure against periodic-slack deficit. Run as
//! a spec through `figures campaign`, the same sweep renders with
//! `figures tables` as one row per weight label.
//!
//! The sweep is one `incdes::explore` campaign: the weight settings are
//! a grid axis, every scenario replays the same lifecycle script (five
//! existing applications, then the current one with MH) from the same
//! seed, and the scenarios run in parallel without affecting the
//! numbers.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use incdes::explore::{run_campaign, BaseSpec, CampaignSpec, Count, ScriptStep, WeightSetting};
use incdes::mapping::Strategy;
use incdes::prelude::*;
use incdes::synth::paper::dac2001_small;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let preset = dac2001_small();

    let weight_settings = vec![
        WeightSetting {
            label: "balanced (1,1,1,1)".into(),
            weights: Weights::default(),
        },
        WeightSetting {
            label: "packing-only (1,1,0,0)".into(),
            weights: Weights {
                w2_processes: 0.0,
                w2_messages: 0.0,
                ..Weights::default()
            },
        },
        WeightSetting {
            label: "distribution-only (0,0,1,1)".into(),
            weights: Weights {
                w1_processes: 0.0,
                w1_messages: 0.0,
                ..Weights::default()
            },
        },
        WeightSetting {
            label: "bus-heavy (1,5,1,5)".into(),
            weights: Weights {
                w1_messages: 5.0,
                w2_messages: 5.0,
                ..Weights::default()
            },
        },
    ];

    // Five existing applications build a moderately loaded base system;
    // the last step maps the current application with MH under the
    // scenario's weights.
    let mut script: Vec<ScriptStep> = (0..5)
        .map(|_| ScriptStep::Add {
            processes: Count::Fixed(30),
            strategy: Some(Strategy::AdHoc),
            future: false,
        })
        .collect();
    script.push(ScriptStep::Add {
        processes: Count::Fixed(25),
        strategy: None,
        future: false,
    });

    let spec = CampaignSpec {
        name: "design-space".into(),
        base: BaseSpec::Config(preset.cfg.clone()),
        future_processes: preset.future_processes,
        demand_factor: 4.0,
        sizes: vec![],
        strategies: vec![Strategy::mh()],
        seeds: vec![7],
        weight_settings,
        script,
        check_invariants: false,
    };

    let run = run_campaign(&spec, 4)?;

    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>8} {:>10}",
        "weights", "C1P%", "C1m%", "penP", "penM", "C total"
    );
    for outcome in run.completed() {
        let current = outcome.steps.last().expect("script is non-empty");
        let Some(c) = current.cost else {
            println!("{:<28} (infeasible)", outcome.key.weights.label);
            continue;
        };
        println!(
            "{:<28} {:>8.1} {:>8.1} {:>8} {:>8} {:>10.2}",
            outcome.key.weights.label,
            c.c1_processes,
            c.c1_messages,
            c.penalty_processes.ticks(),
            c.penalty_messages.ticks(),
            c.total
        );
    }
    println!("\n(the same application, the same system — only the designer's priorities change)");
    Ok(())
}
