//! `figures tables` on campaign reports: what counts as a scenario's
//! modification, one row per weights label, Table 1, and figure 2's
//! wall-clock read from a campaign's profile file.

use incdes_bench::profile::{self, StepTimes};
use incdes_bench::tables::{modification_cost, render_text, table_rows};
use incdes_bench::{future_campaign_spec, quality_campaign_spec};
use incdes_explore::{
    run_campaign, run_campaign_store, CampaignReport, CampaignSpec, StoreOptions, WeightSetting,
};
use incdes_mapping::{MhConfig, SaConfig, Strategy};
use incdes_metrics::{FitPolicy, Weights};
use incdes_synth::paper::dac2001_small;
use std::sync::OnceLock;

/// Figure 1's campaign on the small preset: sizes 10, 20 and 40 at
/// seeds 5 and 17, MH capped at 24 rounds and a quick SA.
fn small_quality_spec() -> CampaignSpec {
    let mh = MhConfig {
        max_iterations: 24,
        ..MhConfig::default()
    };
    quality_campaign_spec(&dac2001_small(), &mh, &SaConfig::quick())
}

fn report_of(spec: &CampaignSpec) -> CampaignReport {
    run_campaign(spec, 2).expect("spec is valid").report()
}

/// The report of [`small_quality_spec`], run once for every test here.
fn small_quality_report() -> &'static CampaignReport {
    static REPORT: OnceLock<CampaignReport> = OnceLock::new();
    REPORT.get_or_init(|| report_of(&small_quality_spec()))
}

/// The lines of the text section whose title starts with `title`, below
/// its title and header.
fn section_rows<'a>(text: &'a str, title: &str) -> Vec<&'a str> {
    let (_, section) = text
        .split_once(title)
        .unwrap_or_else(|| panic!("no `{title}` section in\n{text}"));
    section
        .lines()
        .skip(2)
        .take_while(|l| !l.is_empty())
        .collect()
}

/// Table 1 is each seed's frozen base, the `Add` before the
/// modification step, which every scenario of the seed shares.
#[test]
fn table_one_is_the_frozen_base_of_each_seed() {
    let report = small_quality_report();
    assert_eq!(
        section_rows(&render_text(report, None), "## Table 1"),
        [
            "     5     30.3      0.0        480        242",
            "    17     20.5      0.0        485        254",
        ]
    );
    for seed in [5, 17] {
        let bases: Vec<_> = report
            .scenarios
            .iter()
            .filter(|s| s.seed == seed)
            .map(|s| s.steps[s.steps.len() - 2].cost.expect("the base committed"))
            .collect();
        assert_eq!(bases.len(), 9);
        assert!(bases.iter().all(|c| *c == bases[0]), "seed {seed}");
    }
}

/// The evaluation and iteration columns are the modification step's,
/// not the sum over the commits of the existing applications too.
#[test]
fn evaluation_columns_read_the_modification_step() {
    let report = small_quality_report();
    let rows = table_rows(report);
    assert_eq!(rows.len(), 9);
    for row in &rows {
        let cell: Vec<_> = report
            .scenarios
            .iter()
            .filter(|s| s.size == row.size && s.strategy == row.strategy)
            .collect();
        assert!(cell.iter().all(|s| s.steps[0].evaluations > 0));
        let mean = |f: fn(&incdes_explore::StepReport) -> usize| {
            cell.iter()
                .map(|s| f(s.steps.last().unwrap()))
                .sum::<usize>() as f64
                / cell.len() as f64
        };
        let label = format!("{} size {}", row.strategy, row.size);
        assert_eq!(row.committed, cell.len(), "{label}");
        assert_eq!(row.avg_evaluations, mean(|s| s.evaluations), "{label}");
        assert_eq!(row.avg_iterations, mean(|s| s.iterations), "{label}");
    }
}

/// Two weight settings at one size and strategy are two rows, and the
/// text gains a weights column; a single label keeps it hidden.
#[test]
fn each_weights_label_is_its_own_row() {
    let mut spec = small_quality_spec();
    spec.sizes = vec![10];
    spec.seeds = vec![5];
    spec.strategies = vec![Strategy::AdHoc];
    spec.weight_settings = [
        ("best-fit", FitPolicy::BestFit),
        ("worst", FitPolicy::WorstFit),
    ]
    .map(|(label, fit_policy)| WeightSetting {
        label: label.to_string(),
        weights: Weights {
            fit_policy,
            ..Weights::default()
        },
    })
    .to_vec();
    let report = report_of(&spec);
    let rows = table_rows(&report);
    let cells: Vec<_> = rows
        .iter()
        .map(|r| (r.size, r.strategy.as_str(), r.weights.as_str(), r.scenarios))
        .collect();
    assert_eq!(cells, [(10, "AH", "best-fit", 1), (10, "AH", "worst", 1)]);
    for (row, scenario) in rows.iter().zip(&report.scenarios) {
        assert_eq!(Some(row.avg_cost), modification_cost(scenario));
    }
    let text = render_text(&report, None);
    let lines = section_rows(&text, "## Campaign");
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].starts_with("    10 best-fit "), "{text}");
    assert!(lines[1].starts_with("    10 worst    "), "{text}");

    spec.weight_settings.truncate(1);
    assert!(!render_text(&report_of(&spec), None).contains("best-fit"));
}

/// A current application that does not fit leaves no modification
/// cost, and the probes after it, which ran on the bare base, map
/// nothing.
#[test]
fn a_failed_modification_has_no_cost_and_maps_nothing() {
    let mut spec = future_campaign_spec(&dac2001_small(), &MhConfig::default(), 2);
    spec.sizes = vec![200];
    spec.seeds = vec![5];
    spec.strategies = vec![Strategy::AdHoc];
    let report = report_of(&spec);
    let steps = &report.scenarios[0].steps;
    let modification = steps.len() - 3;
    assert_eq!(steps[modification].action, "add");
    assert!(!steps[modification].feasible, "200 processes do not fit");
    assert!(steps[..modification].iter().all(|s| s.feasible));
    assert!(steps[modification + 1..]
        .iter()
        .all(|s| s.action == "probe" && s.feasible));

    assert_eq!(modification_cost(&report.scenarios[0]), None);
    let row = &table_rows(&report)[0];
    assert_eq!((row.committed, row.probes, row.probe_hits), (0, 2, 0));
    let text = render_text(&report, None);
    assert_eq!(
        section_rows(&text, "## Campaign"),
        ["   200          -     1"]
    );
    assert_eq!(
        section_rows(&text, "## Future mappability"),
        ["   200        0.0       2"]
    );
}

/// `--profile-out` carries each step's wall-clock, and `tables
/// --profile` reads it back only for the report of the same run.
#[test]
fn figure_two_wall_clock_comes_from_the_profile() {
    let mut spec = small_quality_spec();
    spec.sizes = vec![10];
    spec.seeds = vec![5];
    let opts = StoreOptions {
        workers: 1,
        ..StoreOptions::default()
    };
    let run = run_campaign_store(&spec, &opts).expect("spec is valid");
    let json = profile::to_json(&spec.name, &run.profiles);
    let times = StepTimes::parse(&json, &run.report).expect("the run's own profile");
    for s in &run.report.scenarios {
        assert_eq!(run.profiles[s.index].steps.len(), s.steps.len());
        assert!(s
            .steps
            .iter()
            .all(|st| times.step(s.index, st.step).is_some()));
    }
    let text = render_text(&run.report, Some(&times));
    let rows = section_rows(&text, "## Modification-step wall-clock");
    assert_eq!(rows.len(), 1, "{text}");
    assert_eq!(rows[0].split_whitespace().count(), 4, "{text}");
    assert!(!render_text(&run.report, None).contains("wall-clock"));

    let renamed = profile::to_json("another", &run.profiles);
    assert_eq!(
        StepTimes::parse(&renamed, &run.report),
        Err("the profile is of campaign `another`, the report of `figures-quality`".to_string())
    );
    let mut partial = run.report.clone();
    partial.scenarios.pop();
    assert_eq!(
        StepTimes::parse(&json, &partial),
        Err("the profile names scenario #2, which the report lacks".to_string())
    );
}

/// Without a subcommand the binary prints its usage and exits with 2,
/// as it does for an unknown one.
#[test]
fn figures_without_a_subcommand_prints_usage() {
    for args in [&[][..], &["f1"][..]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(args)
            .output()
            .expect("the figures binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: figures campaign"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
