//! Runs the paper's experiment campaigns and renders their tables
//! (Pop et al., DAC 2001).
//!
//! ```text
//! figures campaign [--spec FILE] [--workers N] [--out FILE]
//!                  [--profile-out FILE]
//! figures tables REPORT.json [--csv FILE] [--profile FILE]
//! ```
//!
//! A figure comes from one path: a campaign spec run by `campaign`, and
//! its report rendered by `tables`. `ci/paper-quality.json` holds
//! figures 1 and 2 and Table 1, `ci/paper-future.json` figure 3, and
//! `ci/ablate-fit.json` and `ci/ablate-mh.json` the two ablations.
//! Without a subcommand, or with an unknown one, the binary prints its
//! usage to stderr and exits with code 2; an unknown flag is an error
//! that names it, with the same exit code.
//!
//! * `campaign` runs a campaign spec (the small demo by default, or a
//!   JSON `CampaignSpec` via `--spec`) over `--workers` threads (4 by
//!   default) and prints its byte-stable JSON report to stdout, or
//!   writes it to `--out FILE`. A one-line summary goes to stderr.
//!   `--profile-out FILE` writes each completed scenario's counters,
//!   phase timings and step wall-clock beside the report (see
//!   `incdes_bench::profile`). Quarantined (panicked) scenarios are
//!   listed on stderr and turn the exit code to 3: the report of the
//!   other scenarios is still written.
//! * `tables` renders a report into the paper's tables as aligned text
//!   and CSV (see `incdes_bench::tables`). `--profile FILE` adds figure
//!   2's wall-clock from the `--profile-out` file of the run that wrote
//!   the report; run it at `--workers 1`, so no scenario competes for
//!   the CPU.

use incdes_bench::profile::{self, StepTimes};
use incdes_bench::tables;
use incdes_explore::{run_campaign, CampaignReport, CampaignSpec};
use std::sync::atomic::{AtomicBool, Ordering};

const USAGE: &str = "\
usage: figures campaign [--spec FILE] [--workers N] [--out FILE]
                        [--profile-out FILE]
       figures tables REPORT.json [--csv FILE] [--profile FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("campaign") => campaign_cmd(&args[1..]),
        Some("tables") => tables_cmd(&args[1..]),
        Some(other) => die(format!("unknown subcommand `{other}`\n{USAGE}")),
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(2);
}

/// Consumes the value of a `--flag VALUE` pair at `args[i]`.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .unwrap_or_else(|| die(format!("{flag} needs a value")))
}

/// Set once a reader has closed stdout.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `text` to stdout. A reader that closed it (`figures tables
/// REPORT | head`) is not an error: this write and every later one are
/// skipped, so the files still to be written and the exit status are
/// unaffected. Any other write error is fatal.
fn print_out(text: &str) {
    use std::io::Write;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    let mut out = std::io::stdout().lock();
    if let Err(e) = out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            die(format!("cannot write to stdout: {e}"));
        }
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

/// Writes `text` to `--out FILE` when given, stdout otherwise.
fn emit(out: Option<&str>, text: &str) {
    match out {
        Some(path) => {
            std::fs::write(path, text).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        }
        None => print_out(text),
    }
}

fn read_report(path: &str) -> CampaignReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    CampaignReport::from_json(&text)
        .unwrap_or_else(|e| die(format!("{path} is not a campaign report: {e}")))
}

/// `figures campaign`: run a campaign spec (small demo by default),
/// write its byte-stable JSON report to stdout or `--out`, and a
/// summary line to stderr.
fn campaign_cmd(args: &[String]) {
    let mut spec_path: Option<String> = None;
    let mut workers = 4usize;
    let mut out: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--spec" => spec_path = Some(flag_value(args, &mut i, "--spec").to_string()),
            "--workers" => {
                workers = flag_value(args, &mut i, "--workers")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--workers needs a positive integer"));
            }
            "--out" => out = Some(flag_value(args, &mut i, "--out").to_string()),
            "--profile-out" => {
                profile_out = Some(flag_value(args, &mut i, "--profile-out").to_string());
            }
            other => die(format!("unknown campaign flag `{other}`")),
        }
        i += 1;
    }

    let spec = match &spec_path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
            serde_json::from_str::<CampaignSpec>(&text)
                .unwrap_or_else(|e| die(format!("{path} is not a campaign spec: {e}")))
        }
        None => CampaignSpec::small_demo(),
    };
    // Arm the wall-clock phase timers only when a profile is requested —
    // the report itself is byte-identical either way (timers and
    // counters are strictly out-of-band).
    if profile_out.is_some() {
        incdes_obs::phase::set_enabled(true);
    }
    let run = run_campaign(&spec, workers).unwrap_or_else(|e| die(e));
    incdes_obs::phase::set_enabled(false);
    let failures = run.failures();
    // The summary goes to stderr, so stdout stays byte-stable.
    eprintln!(
        "# campaign {}: {} scenarios, {} quarantined",
        spec.name,
        run.outcomes.len(),
        failures.len()
    );
    // Quarantined scenarios: named on stderr so CI logs show *which*
    // grid points panicked, not just a count.
    for f in &failures {
        eprintln!("# quarantined {}", f.panic_message);
    }
    if let Some(path) = &profile_out {
        let json = profile::to_json(&run);
        std::fs::write(path, json).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
    }
    let mut json = run.report().to_json_pretty().expect("report serializes");
    json.push('\n');
    emit(out.as_deref(), &json);
    // Partial failure: the (partial) report above is still emitted, but
    // the exit code must reflect the quarantined scenarios.
    if !failures.is_empty() {
        std::process::exit(3);
    }
}

/// `figures tables`: render a report into the paper's result tables.
fn tables_cmd(args: &[String]) {
    let mut csv_out: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut path: Option<&String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => csv_out = Some(flag_value(args, &mut i, "--csv").to_string()),
            "--profile" => profile_path = Some(flag_value(args, &mut i, "--profile").to_string()),
            flag if flag.starts_with("--") => die(format!("unknown tables flag `{flag}`")),
            _ if path.is_some() => die("tables takes exactly one report file"),
            _ => path = Some(&args[i]),
        }
        i += 1;
    }
    let path = path.unwrap_or_else(|| die("tables needs a report file"));
    let report = read_report(path);
    let times = profile_path.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
        StepTimes::parse(&text, &report).unwrap_or_else(|e| die(format!("{path}: {e}")))
    });
    print_out(&tables::render_text(&report, times.as_ref()));
    let csv = tables::render_csv(&report);
    match csv_out {
        Some(path) => {
            std::fs::write(&path, &csv)
                .unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
        }
        None => {
            print_out("## CSV\n");
            print_out(&csv);
        }
    }
}
