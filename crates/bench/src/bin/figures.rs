//! Runs the paper's experiment campaigns and renders their tables
//! (Pop et al., DAC 2001).
//!
//! ```text
//! figures campaign [--spec FILE] [--workers N] [--shard I/N]
//!                  [--store [DIR]] [--no-cache] [--gc] [--out FILE]
//!                  [--stats-json FILE] [--profile-out FILE]
//!                  [--inject-faults PLAN.json] [--fault-seed S]
//! figures merge SHARD.json... [--out FILE]
//! figures tables REPORT.json [--csv FILE] [--profile FILE]
//! figures bench-store [--store DIR] [--out FILE]
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
//!   JSON `CampaignSpec` via `--spec`) and prints its byte-stable JSON
//!   report to stdout. With `--store` the content-addressed persistent
//!   store under DIR (default `.campaign-store/`) serves unchanged
//!   scenarios from cache; `--no-cache` bypasses it; `--gc` prunes
//!   blobs not reachable from this spec; `--shard I/N` runs only one
//!   deterministic shard of the grid. Cache-hit/miss accounting always
//!   goes to **stderr** so sharded CI logs are auditable while stdout
//!   stays byte-stable. `--profile-out FILE` writes each executed
//!   scenario's counters, phase timings and step wall-clock beside the
//!   report (see `incdes_bench::profile`). `--inject-faults PLAN.json`
//!   wraps the store's filesystem backend in a seeded fault injector
//!   (`--fault-seed`, for the fault-soak CI job): the report bytes must
//!   still equal the fault-free run's. Quarantined (panicked) scenarios
//!   are listed on stderr and turn the exit code to 3 — partial
//!   failure, never abort.
//! * `merge` joins shard reports back into the canonical report —
//!   byte-identical to an unsharded run.
//! * `tables` renders a (merged) report into the paper's tables as
//!   aligned text + CSV (see `incdes_bench::tables`). `--profile FILE`
//!   adds figure 2's wall-clock from the `--profile-out` file of the
//!   run that wrote the report; run it at `--workers 1`, so no scenario
//!   competes for the CPU.
//! * `bench-store` times a cold vs. warm (fully cached) demo campaign
//!   and writes the wall-clock comparison as `BENCH_campaign.json`.

use incdes_bench::profile::{self, StepTimes};
use incdes_bench::tables;
use incdes_explore::{
    live_keys, merge_reports, run_campaign_store, CampaignReport, CampaignSpec, Shard,
    StoreOptions, StoredCampaign,
};
use incdes_store::{FaultPlan, FaultyBackend, FsBackend, Store};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Default on-disk location of the persistent campaign store.
const DEFAULT_STORE_DIR: &str = ".campaign-store";

const USAGE: &str = "\
usage: figures campaign [--spec FILE] [--workers N] [--shard I/N]
                        [--store [DIR]] [--no-cache] [--gc] [--out FILE]
                        [--stats-json FILE] [--profile-out FILE]
                        [--inject-faults PLAN.json] [--fault-seed S]
       figures merge SHARD.json... [--out FILE]
       figures tables REPORT.json [--csv FILE] [--profile FILE]
       figures bench-store [--store DIR] [--out FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("campaign") => campaign_cmd(&args[1..]),
        Some("merge") => merge_cmd(&args[1..]),
        Some("tables") => tables_cmd(&args[1..]),
        Some("bench-store") => bench_store_cmd(&args[1..]),
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

/// `figures campaign`: run a campaign spec (small demo by default)
/// against the persistent store, print the byte-stable JSON report to
/// stdout and the cache accounting to stderr.
fn campaign_cmd(args: &[String]) {
    let mut spec_path: Option<String> = None;
    let mut workers = 4usize;
    let mut shard: Option<Shard> = None;
    let mut store_dir: Option<String> = None;
    let mut no_cache = false;
    let mut gc = false;
    let mut out: Option<String> = None;
    let mut stats_json: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut fault_plan: Option<String> = None;
    let mut fault_seed = 0u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--spec" => spec_path = Some(flag_value(args, &mut i, "--spec").to_string()),
            "--workers" => {
                workers = flag_value(args, &mut i, "--workers")
                    .parse()
                    .unwrap_or_else(|_| die("--workers needs a positive integer"));
            }
            "--shard" => {
                shard = Some(
                    Shard::parse(flag_value(args, &mut i, "--shard")).unwrap_or_else(|e| die(e)),
                );
            }
            "--store" => {
                // DIR is optional: a following flag (or nothing) means
                // the default location.
                match args.get(i + 1) {
                    Some(next) if !next.starts_with("--") => {
                        store_dir = Some(next.clone());
                        i += 1;
                    }
                    _ => store_dir = Some(DEFAULT_STORE_DIR.to_string()),
                }
            }
            "--no-cache" => no_cache = true,
            "--gc" => gc = true,
            "--out" => out = Some(flag_value(args, &mut i, "--out").to_string()),
            "--stats-json" => {
                stats_json = Some(flag_value(args, &mut i, "--stats-json").to_string());
            }
            "--profile-out" => {
                profile_out = Some(flag_value(args, &mut i, "--profile-out").to_string());
            }
            "--inject-faults" => {
                fault_plan = Some(flag_value(args, &mut i, "--inject-faults").to_string());
            }
            "--fault-seed" => {
                fault_seed = flag_value(args, &mut i, "--fault-seed")
                    .parse()
                    .unwrap_or_else(|_| die("--fault-seed needs an unsigned integer"));
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
    // The fault injector only makes sense against a real store: without
    // `--store` there are no backend ops to perturb.
    if fault_plan.is_some() && (store_dir.is_none() || no_cache) {
        die("--inject-faults needs --store (and not --no-cache)");
    }
    let store = if no_cache {
        None
    } else {
        store_dir.as_ref().map(|dir| match &fault_plan {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
                let plan = FaultPlan::from_json(&text)
                    .unwrap_or_else(|e| die(format!("{path} is not a fault plan: {e}")));
                let backend = FaultyBackend::new(Arc::new(FsBackend), plan, fault_seed);
                Store::open_with_backend(dir, Arc::new(backend))
                    .unwrap_or_else(|e| die(format!("cannot open store {dir}: {e}")))
            }
            None => {
                Store::open(dir).unwrap_or_else(|e| die(format!("cannot open store {dir}: {e}")))
            }
        })
    };
    let opts = StoreOptions {
        workers,
        store: store.as_ref(),
        shard,
    };
    // Arm the wall-clock phase timers only when a profile is requested —
    // the report itself is byte-identical either way (timers and
    // counters are strictly out-of-band).
    if profile_out.is_some() {
        incdes_obs::phase::set_enabled(true);
    }
    let StoredCampaign {
        report,
        stats,
        profiles,
        failures,
    } = run_campaign_store(&spec, &opts).unwrap_or_else(|e| die(e));
    incdes_obs::phase::set_enabled(false);
    // Accounting goes to stderr: stdout must stay byte-stable so
    // sharded CI logs are auditable without perturbing artifacts.
    eprintln!(
        "# campaign {}{}: {} scenarios, {} selected, {} cache hits, {} executed, \
         {} corrupt blobs, {} store errors, {} store retries, {} failed{}",
        spec.name,
        shard.map(|s| format!(" (shard {s})")).unwrap_or_default(),
        stats.scenarios,
        stats.selected,
        stats.hits,
        stats.executed,
        stats.corrupt,
        stats.store_errors,
        stats.store_retries,
        stats.failed,
        if stats.degraded { " [degraded]" } else { "" },
    );
    // Quarantined scenarios: named on stderr so CI logs show *which*
    // grid points panicked, not just a count.
    for f in &failures {
        eprintln!(
            "# quarantined scenario #{} after {} attempt(s): {}",
            f.index, f.attempts, f.panic_message
        );
    }
    // Machine-parseable mirror of the stderr accounting — a side file,
    // never the stdout report.
    if let Some(path) = &stats_json {
        let json = format!(
            "{{\"scenarios\":{},\"selected\":{},\"hits\":{},\"executed\":{},\
             \"corrupt\":{},\"store_errors\":{},\"store_retries\":{},\
             \"failed\":{},\"degraded\":{}}}\n",
            stats.scenarios,
            stats.selected,
            stats.hits,
            stats.executed,
            stats.corrupt,
            stats.store_errors,
            stats.store_retries,
            stats.failed,
            stats.degraded,
        );
        std::fs::write(path, json).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
    }
    // Per-scenario observability profiles (executed scenarios only;
    // cache hits did their work in an earlier process).
    if let Some(path) = &profile_out {
        let json = profile::to_json(&spec.name, &profiles);
        std::fs::write(path, json).unwrap_or_else(|e| die(format!("cannot write {path}: {e}")));
    }
    if gc {
        if let Some(store) = &store {
            let live = live_keys(&spec).unwrap_or_else(|e| die(e));
            match store.gc(&live) {
                Ok(s) => eprintln!("# store gc: kept {}, removed {}", s.kept, s.removed),
                Err(e) => eprintln!("# store gc failed: {e}"),
            }
        }
    }
    let mut json = report.to_json_pretty().expect("report serializes");
    json.push('\n');
    emit(out.as_deref(), &json);
    // Partial failure: the (partial) report above is still emitted, but
    // the exit code must reflect the quarantined scenarios.
    if !failures.is_empty() {
        std::process::exit(3);
    }
}

/// `figures merge`: join shard reports into the canonical report.
fn merge_cmd(args: &[String]) {
    let mut out: Option<String> = None;
    let mut paths: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out = Some(flag_value(args, &mut i, "--out").to_string()),
            flag if flag.starts_with("--") => die(format!("unknown merge flag `{flag}`")),
            _ => paths.push(&args[i]),
        }
        i += 1;
    }
    if paths.is_empty() {
        die("merge needs at least one shard report file");
    }
    let parts: Vec<CampaignReport> = paths.iter().map(|p| read_report(p)).collect();
    let merged = merge_reports(parts).unwrap_or_else(|e| die(e));
    let mut json = merged.to_json_pretty().expect("report serializes");
    json.push('\n');
    emit(out.as_deref(), &json);
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
            _ if path.is_some() => {
                die("tables takes exactly one report file (run `figures merge` first to combine shards)")
            }
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

/// `figures bench-store`: cold vs. warm demo campaign wall-clock,
/// written as a `BENCH_campaign.json` perf artifact.
fn bench_store_cmd(args: &[String]) {
    let mut out = "BENCH_campaign.json".to_string();
    let mut store_dir = "target/bench-campaign-store".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out = flag_value(args, &mut i, "--out").to_string(),
            "--store" => store_dir = flag_value(args, &mut i, "--store").to_string(),
            other => die(format!("unknown bench-store flag `{other}`")),
        }
        i += 1;
    }

    // Cold: a fresh store directory.
    let _ = std::fs::remove_dir_all(&store_dir);
    let store =
        Store::open(&store_dir).unwrap_or_else(|e| die(format!("cannot open {store_dir}: {e}")));
    let spec = CampaignSpec::small_demo();
    let opts = StoreOptions {
        workers: 4,
        store: Some(&store),
        shard: None,
    };

    let t0 = Instant::now();
    let cold = run_campaign_store(&spec, &opts).unwrap_or_else(|e| die(e));
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let warm = run_campaign_store(&spec, &opts).unwrap_or_else(|e| die(e));
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;

    if warm.stats.executed != 0 {
        die(format!(
            "warm rerun executed {} scenarios (expected 0)",
            warm.stats.executed
        ));
    }
    if cold.report != warm.report {
        die("warm report differs from cold report");
    }

    let json = format!(
        "{{\n  \"bench\": \"campaign_store\",\n  \"campaign\": \"{}\",\n  \
         \"scenarios\": {},\n  \"cold_ms\": {:.3},\n  \"warm_ms\": {:.3},\n  \
         \"speedup\": {:.1},\n  \"warm_executed\": {},\n  \"warm_cache_hits\": {}\n}}\n",
        spec.name,
        cold.stats.scenarios,
        cold_ms,
        warm_ms,
        cold_ms / warm_ms.max(1e-6),
        warm.stats.executed,
        warm.stats.hits,
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| die(format!("cannot write {out}: {e}")));
    eprintln!(
        "# bench-store: cold {cold_ms:.1} ms, warm {warm_ms:.1} ms \
         ({} scenarios, all cached on rerun) -> {out}",
        cold.stats.scenarios
    );
}
