//! `figures tables` on campaign reports: what counts as a scenario's
//! modification, one row per weights label, Table 1, and figure 2's
//! wall-clock read from a campaign's profile file.

use incdes_bench::profile::{self, StepTimes};
use incdes_bench::tables::{modification_cost, render_text, table_rows};
use incdes_bench::{future_campaign_spec, quality_campaign_spec};
use incdes_explore::{
    run_campaign, CampaignReport, CampaignSpec, Count, ScriptStep, WeightSetting,
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
    let run = run_campaign(&spec, 1).expect("spec is valid");
    let report = run.report();
    let json = profile::to_json(&run);
    let times = StepTimes::parse(&json, &report).expect("the run's own profile");
    for s in &report.scenarios {
        assert!(s
            .steps
            .iter()
            .all(|st| times.step(s.index, st.step).is_some()));
        assert_eq!(times.step(s.index, s.steps.len()), None);
    }
    let text = render_text(&report, Some(&times));
    let rows = section_rows(&text, "## Modification-step wall-clock");
    assert_eq!(rows.len(), 1, "{text}");
    assert_eq!(rows[0].split_whitespace().count(), 4, "{text}");
    assert!(!render_text(&report, None).contains("wall-clock"));

    let mut renamed = report.clone();
    renamed.campaign = "another".to_string();
    assert_eq!(
        StepTimes::parse(&json, &renamed),
        Err("the profile is of campaign `figures-quality`, the report of `another`".to_string())
    );
    let mut partial = report.clone();
    partial.scenarios.pop();
    assert_eq!(
        StepTimes::parse(&json, &partial),
        Err("the profile names scenario #2, which the report lacks".to_string())
    );
    // A profile must time every scenario of its report.
    let (head, _) = json
        .split_once(",{\"index\":1,")
        .expect("the profile has scenario #1");
    let (_, tail) = json
        .split_once(",{\"index\":2,")
        .expect("the profile has scenario #2");
    let gapped = format!("{head},{{\"index\":2,{tail}");
    assert_eq!(
        StepTimes::parse(&gapped, &report),
        Err("the profile lacks scenario #1, which the report has".to_string())
    );
}

/// Runs the `figures` binary.
fn figures(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("the figures binary runs")
}

/// Without a subcommand the binary prints its usage and exits with 2,
/// as it does for an unknown one.
#[test]
fn figures_without_a_subcommand_prints_usage() {
    for args in [&[][..], &["f1"][..]] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: figures campaign"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A bad flag value or an unknown flag exits with 2 before any scenario
/// runs, and the message names the flag.
#[test]
fn campaign_rejects_bad_flags_by_name() {
    for (args, flag) in [
        (&["campaign", "--workers", "0"][..], "--workers"),
        (&["campaign", "--workers", "two"][..], "--workers"),
        (&["campaign", "--no-cache"][..], "--no-cache"),
    ] {
        let out = figures(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A scenario that panics is quarantined: `campaign` still writes the
/// report of the others, names the scenario on stderr and exits with 3.
#[test]
fn a_quarantined_scenario_exits_with_three() {
    let mut spec = CampaignSpec::small_demo();
    spec.sizes = vec![5];
    spec.strategies = vec![Strategy::AdHoc];
    spec.seeds = vec![1, 2, 3];
    spec.script = vec![
        ScriptStep::Add {
            processes: Count::Size,
            strategy: None,
            future: false,
        },
        ScriptStep::InjectPanic { only_seed: Some(2) },
    ];
    let dir = std::env::temp_dir();
    let spec_path = dir.join(format!("figures-quarantine-{}.json", std::process::id()));
    let report_path = dir.join(format!(
        "figures-quarantine-{}.report.json",
        std::process::id()
    ));
    std::fs::write(&spec_path, serde_json::to_string(&spec).unwrap()).unwrap();
    let out = figures(&[
        "campaign",
        "--spec",
        spec_path.to_str().unwrap(),
        "--out",
        report_path.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    let poisoned = spec.scenarios().iter().find(|k| k.seed == 2).unwrap().index;
    assert!(
        stderr.contains(&format!(
            "# quarantined scenario #{poisoned}: injected panic"
        )),
        "{stderr}"
    );

    let written = std::fs::read_to_string(&report_path).expect("--out FILE is written");
    let report = CampaignReport::from_json(&written).unwrap();
    let seeds: Vec<u64> = report.scenarios.iter().map(|s| s.seed).collect();
    assert_eq!(seeds, [1, 3]);
    let expected = run_campaign(&spec, 1).unwrap().report();
    assert_eq!(written, format!("{}\n", expected.to_json_pretty().unwrap()));
    std::fs::remove_file(&spec_path).unwrap();
    std::fs::remove_file(&report_path).unwrap();
}

/// A reader that closes stdout early (`figures tables REPORT | head`)
/// ends `tables` quietly with status 0: no panic, no backtrace, and a
/// `--csv FILE` due after the text tables is still written.
#[test]
fn tables_exits_quietly_when_stdout_closes() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("figures-tables-{}.json", std::process::id()));
    let csv = dir.join(format!("figures-tables-{}.csv", std::process::id()));
    let report = small_quality_report();
    std::fs::write(&path, report.to_json_pretty().unwrap()).unwrap();
    for csv_args in [vec![], vec!["--csv".into(), csv.clone().into_os_string()]] {
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_figures"))
            .arg("tables")
            .arg(&path)
            .args(&csv_args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("the figures binary runs");
        // Close the read end before the report is rendered: every write
        // then fails with a broken pipe.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{csv_args:?}: {stderr}");
        assert!(stderr.is_empty(), "{csv_args:?}: {stderr}");
    }
    let written = std::fs::read_to_string(&csv).expect("--csv FILE is written");
    assert_eq!(written, incdes_bench::tables::render_csv(report));
    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&csv).unwrap();
}
