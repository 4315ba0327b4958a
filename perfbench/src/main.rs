//! `perfbench`: the end-to-end and per-layer benchmark of one paper-scale
//! incremental design step. See `perfbench/README.md` for the workloads,
//! the metrics and why each was chosen.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-mh --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process, one thread, closed loop: every mapping request is issued
//! after the previous one returned. The last stdout line is the JSON
//! result; the lines before it give the provenance and a readable table.

mod scenario;
mod trace;

use incdes_core::{CommitReport, CoreError, ProbeReport, System};
use incdes_mapping::{
    run_strategy, MapError, MappingContext, RunStats, SearchParallelism, Strategy,
};
use incdes_metrics::DesignCost;
use incdes_model::time::hyperperiod;
use incdes_model::{AppId, Application};
use scenario::{effective_strategy, probe_apps, strategy_named, Base, Env};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Environment variables that change what is measured (search threads,
/// record-cache capacity, scenario retries): the benchmark refuses to run
/// under any of them.
const PINNED_ENV: [&str; 3] = [
    "INCDES_SEARCH_THREADS",
    "INCDES_RECORD_CACHE_CAP",
    "INCDES_SCENARIO_RETRIES",
];

/// `future-probe` commits the current application at a middle and a
/// large size of the figure axes.
const FUTURE_SIZES: [usize; 2] = [160, 320];
/// Future applications probed after each current commit, as figure 3
/// probes them (`run_future(preset, mh, 4)` in the `figures` binary).
const PROBES_PER_SYSTEM: u64 = 4;
/// Minimum number of scenario set-ups `setup_s` is the median of.
const SETUP_SAMPLES: usize = 60;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperMh,
    PaperSa,
    FutureProbe,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "paper-mh" => Ok(Workload::PaperMh),
            "paper-sa" => Ok(Workload::PaperSa),
            "future-probe" => Ok(Workload::FutureProbe),
            other => Err(format!(
                "unknown workload `{other}` (paper-mh, paper-sa, future-probe)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperMh => "paper-mh",
            Workload::PaperSa => "paper-sa",
            Workload::FutureProbe => "future-probe",
        }
    }

    /// Scenario seeds one run draws from its `--seed`.
    fn scenarios(self) -> u64 {
        match self {
            Workload::PaperMh => 3,
            Workload::PaperSa => 5,
            Workload::FutureProbe => 80,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// What one mapping request did.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reply {
    /// A design was produced, with this cost.
    Mapped(DesignCost),
    /// Plain infeasibility (a legitimate probe answer).
    Infeasible,
}

/// One request of the workload: commit or probe `app` on `systems[system]`.
struct Request {
    system: usize,
    /// Processes in the current application of the request's scenario.
    size: usize,
    app: Application,
    strategy: Strategy,
    /// Cost of the AH design of `app` on the request's system: the
    /// initial mapping MH and SA start from (`paper-*` only).
    ah_cost: Option<f64>,
}

/// Everything a run maps: the systems requests start from, and the
/// requests in issue order.
struct Plan {
    env: Env,
    probe: bool,
    seeds: Vec<u64>,
    sizes: Vec<usize>,
    systems: Vec<System>,
    requests: Vec<Request>,
    /// Current AH commits (`future-probe`) that were infeasible. Their
    /// systems are not probed; figure 3 counts those probes as unmapped.
    failed_current: usize,
    /// Wall-clock of each scenario's set-up (generation plus AH commits).
    setups: Vec<Duration>,
    bases_generate: Vec<Duration>,
    bases_commit: Vec<Duration>,
}

fn build_plan(workload: Workload, seed: u64) -> Result<Plan, String> {
    let probe = workload == Workload::FutureProbe;
    let spec = if probe {
        scenario::future_spec(PROBES_PER_SYSTEM)
    } else {
        scenario::paper_spec()
    };
    let env = Env::new(&spec)?;
    let strategy = strategy_named(
        &spec,
        match workload {
            Workload::PaperMh => "MH",
            Workload::PaperSa => "SA",
            Workload::FutureProbe => "AH",
        },
    );
    let sizes = if probe {
        FUTURE_SIZES.to_vec()
    } else {
        spec.sizes.clone()
    };
    let seeds: Vec<u64> = (0..workload.scenarios())
        .map(|k| seed.wrapping_mul(1000).wrapping_add(k))
        .collect();
    let mut plan = Plan {
        env,
        probe,
        seeds: seeds.clone(),
        sizes,
        systems: Vec::new(),
        requests: Vec::new(),
        failed_current: 0,
        setups: Vec::new(),
        bases_generate: Vec::new(),
        bases_commit: Vec::new(),
    };
    // Set-up is cheap next to a request, so every scenario is set up
    // several times and the last copy is kept: `setup_s` is a median of
    // at least SETUP_SAMPLES set-ups even when a run has few scenarios.
    let repeats = SETUP_SAMPLES.div_ceil(seeds.len());
    for &scenario_seed in &seeds {
        let strategy = effective_strategy(&strategy, scenario_seed);
        let mut scenario = None;
        for _ in 0..repeats {
            let start = Instant::now();
            let built = set_up(&plan, scenario_seed, &strategy)?;
            plan.setups.push(start.elapsed());
            scenario = Some(built);
        }
        let Scenario {
            base,
            systems,
            apps,
            failed_current,
        } = scenario.expect("repeats >= 1");
        plan.bases_generate.push(base.generate);
        plan.bases_commit.push(base.commit);
        plan.failed_current += failed_current;
        for system in &systems {
            check_table(&plan.env, system)?;
        }
        let first = plan.systems.len();
        for (system, size, app) in apps {
            let ah_cost = if plan.probe {
                None
            } else {
                Some(ah_cost(&plan.env, &systems[system], &app)?)
            };
            plan.requests.push(Request {
                system: first + system,
                size,
                app,
                strategy,
                ah_cost,
            });
        }
        plan.systems.extend(systems);
    }
    Ok(plan)
}

/// One scenario's set-up.
struct Scenario {
    base: Base,
    /// The systems the scenario's requests start from.
    systems: Vec<System>,
    /// The scenario's requests as `(system, size, application)`.
    apps: Vec<(usize, usize, Application)>,
    /// Current AH commits that were infeasible.
    failed_current: usize,
}

/// Sets up scenario `seed`. A paper scenario maps every size's current
/// application onto the base; a probe scenario commits each size's
/// current application with AH and probes the script's future
/// applications after it. When that commit is infeasible, figure 3
/// (`run_future`) counts all its probes as unmapped, so none is issued.
fn set_up(plan: &Plan, seed: u64, strategy: &Strategy) -> Result<Scenario, String> {
    let env = &plan.env;
    let base = Base::build(env, seed)?;
    let mut systems = Vec::new();
    let mut apps = Vec::new();
    let mut failed_current = 0;
    for &size in &plan.sizes {
        let (current, mut rng) = base.current(env, size)?;
        if plan.probe {
            let mut system = base.system.clone();
            match system.add_application(current, &env.future, &env.weights, strategy) {
                Ok(_) => {
                    for app in probe_apps(env, &mut rng)? {
                        apps.push((systems.len(), size, app));
                    }
                    systems.push(system);
                }
                Err(CoreError::Mapping(MapError::Infeasible { .. })) => failed_current += 1,
                Err(e) => return Err(format!("seed {seed} size {size}: current commit: {e}")),
            }
        } else {
            apps.push((0, size, current));
        }
    }
    if !plan.probe {
        systems.push(base.system.clone());
    }
    Ok(Scenario {
        base,
        systems,
        apps,
        failed_current,
    })
}

/// Cost of committing `app` to `system` with AH.
fn ah_cost(env: &Env, system: &System, app: &Application) -> Result<f64, String> {
    let mut system = system.clone();
    system
        .add_application(app.clone(), &env.future, &env.weights, &Strategy::AdHoc)
        .map(|report| report.cost.total)
        .map_err(|e| format!("AH reference commit: {e}"))
}

/// Validates every scheduling invariant of `system`'s table against its
/// active applications.
fn check_table(env: &Env, system: &System) -> Result<(), String> {
    let pairs: Vec<_> = system
        .active()
        .map(|c| (c.id, &c.app, &c.solution.mapping))
        .collect();
    system
        .table()
        .validate(&env.arch, &pairs)
        .map_err(|e| format!("committed table is invalid: {e}"))
}

/// The output check of a commit: the naive pipeline re-evaluates the
/// committed design on the same instance to the same cost and table,
/// and the committed table validates.
fn check_commit(
    env: &Env,
    before: &System,
    after: &System,
    report: &CommitReport,
) -> Result<(), String> {
    if report.stats.evaluations == 0 {
        return Err("commit reported 0 evaluations".into());
    }
    let committed = after.committed().last().ok_or("nothing was committed")?;
    let frozen = before
        .table()
        .replicate_to(&env.arch, report.horizon)
        .map_err(|e| e.to_string())?;
    let ctx = MappingContext::new(
        &env.arch,
        committed.id,
        &committed.app,
        Some(&frozen),
        report.horizon,
        &env.future,
        &env.weights,
    )
    .with_naive_evaluation();
    let naive = ctx
        .evaluate(&committed.solution)
        .map_err(|e| format!("naive re-evaluation failed: {e}"))?;
    if naive.cost != report.cost {
        return Err(format!(
            "reported cost {:?} but the naive pipeline gives {:?}",
            report.cost, naive.cost
        ));
    }
    if naive.table != *after.table() {
        return Err("committed table differs from the naive pipeline's".into());
    }
    check_table(env, after)
}

/// The output check of a probe: AH on a naive-pipeline context of the
/// same instance must reach the same verdict and cost.
fn check_probe(
    env: &Env,
    system: &System,
    app: &Application,
    probe: &ProbeReport,
) -> Result<(), String> {
    let horizon =
        hyperperiod(std::iter::once(system.horizon()).chain(app.graphs.iter().map(|g| g.period)))
            .map_err(|e| e.to_string())?;
    let frozen = system
        .table()
        .replicate_to(&env.arch, horizon)
        .map_err(|e| e.to_string())?;
    let ctx = MappingContext::new(
        &env.arch,
        AppId(system.app_count() as u32),
        app,
        Some(&frozen),
        horizon,
        &env.future,
        &env.weights,
    )
    .with_naive_evaluation()
    .with_parallelism(SearchParallelism::Sequential);
    let naive = match run_strategy(&ctx, &Strategy::AdHoc) {
        Ok(outcome) => Some(outcome.evaluation.cost),
        Err(MapError::Infeasible { .. }) => None,
        Err(e) => return Err(format!("naive probe failed: {e}")),
    };
    if naive != probe.cost || probe.feasible != naive.is_some() {
        return Err(format!(
            "probe reported {:?} but the naive pipeline gives {:?}",
            probe.cost, naive
        ));
    }
    Ok(())
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Runs `f`, timing only `f` itself; a panic becomes an error message.
fn timed<T>(f: impl FnOnce() -> T) -> (Duration, Result<T, String>) {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(f));
    let elapsed = start.elapsed();
    (
        elapsed,
        outcome.map_err(|payload| format!("panicked: {}", panic_text(payload.as_ref()))),
    )
}

/// One executed request: its latency and reply, or why it failed.
struct Executed {
    elapsed: Duration,
    reply: Result<Reply, String>,
    /// The system after a successful commit (commits only).
    after: Option<System>,
    /// The probe's report (probes only).
    probe: Option<ProbeReport>,
    /// Strategy statistics of a produced design.
    stats: Option<RunStats>,
}

/// Issues `req` against `system` (a fresh clone for commits; the pass's
/// own copy for probes, so a probe streak shares one frozen-base bake as
/// in the campaign).
fn execute(plan: &Plan, req: &Request, system: &System) -> Executed {
    let env = &plan.env;
    let mut done = Executed {
        elapsed: Duration::ZERO,
        reply: Err(String::new()),
        after: None,
        probe: None,
        stats: None,
    };
    if plan.probe {
        let (elapsed, result) =
            timed(|| system.probe_application(&req.app, &env.future, &env.weights, &req.strategy));
        done.elapsed = elapsed;
        match result.and_then(|r| r.map_err(|e| e.to_string())) {
            Ok(probe) => {
                done.reply = Ok(match probe.cost {
                    Some(cost) if probe.feasible => Reply::Mapped(cost),
                    _ => Reply::Infeasible,
                });
                done.stats = probe.stats;
                done.probe = Some(probe);
            }
            Err(e) => done.reply = Err(e),
        }
    } else {
        let mut after = system.clone();
        let app = req.app.clone();
        let (elapsed, result) =
            timed(|| after.add_application(app, &env.future, &env.weights, &req.strategy));
        done.elapsed = elapsed;
        done.reply = match result {
            Ok(Ok(report)) => {
                done.stats = Some(report.stats);
                check_commit(env, system, &after, &report).map(|()| Reply::Mapped(report.cost))
            }
            // The campaign maps every size on every seed, so an
            // infeasible commit is a failure, not an answer.
            Ok(Err(e)) => Err(e.to_string()),
            Err(panic) => Err(panic),
        };
        done.after = Some(after);
    }
    done
}

/// Tallies of one run.
#[derive(Default)]
struct Tally {
    /// Fastest timed sample of every request over the run's passes,
    /// indexed by request; `None` until one succeeds.
    best_ms: Vec<Option<f64>>,
    /// Timed samples taken.
    samples: usize,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// First-pass reply of every request (the deterministic outputs).
    replies: Vec<Option<Reply>>,
}

impl Tally {
    /// Records one executed request of `pass`: a probe's first answer is
    /// checked against the naive pipeline, and every later pass must
    /// repeat the first pass's reply exactly. Returns whether it counts
    /// as a timed sample, which every checked answer does.
    fn record(&mut self, plan: &Plan, index: usize, pass: usize, done: &Executed) -> bool {
        self.attempted += 1;
        let req = &plan.requests[index];
        let checked = done.reply.clone().and_then(|reply| {
            if let (0, Some(probe)) = (pass, &done.probe) {
                check_probe(&plan.env, &plan.systems[req.system], &req.app, probe)?;
            }
            match self.replies.get(index) {
                Some(Some(first)) if *first != reply => Err(format!(
                    "replied {reply:?}, the first pass replied {first:?}"
                )),
                _ => Ok(reply),
            }
        });
        if pass == 0 {
            self.replies.push(checked.as_ref().ok().copied());
        }
        match checked {
            Ok(_) => {
                if self.best_ms.len() <= index {
                    self.best_ms.resize(index + 1, None);
                }
                let ms = done.elapsed.as_secs_f64() * 1e3;
                let best = &mut self.best_ms[index];
                *best = Some(best.map_or(ms, |b| b.min(ms)));
                self.samples += 1;
                true
            }
            Err(e) => {
                self.failed += 1;
                self.failures
                    .push(format!("request {index} (pass {pass}): {e}"));
                false
            }
        }
    }

    /// Each request's latency: its fastest pass, so a stall or a slow
    /// patch of the shared host during some passes does not move it.
    /// Requests that never succeeded have none.
    fn request_latencies_ms(&self) -> Vec<f64> {
        self.best_ms.iter().flatten().copied().collect()
    }
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of `values` (sorted in place).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The git commit of the checkout, read from `.git` without running git;
/// `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

fn json_list<T: std::fmt::Display>(items: &[T]) -> String {
    let parts: Vec<String> = items.iter().map(ToString::to_string).collect();
    format!("[{}]", parts.join(","))
}

/// Issues the plan's requests and tallies them; returns the tally and
/// the number of passes made. An untraced `future-probe` run makes whole
/// passes while the next fits `budget`; every other run makes one, since
/// a paper pass fills the usual budget and a fixed count keeps every
/// run's best-of-passes times on the same number of samples.
fn measure(plan: &Plan, tracer: Option<&mut Tracer>, budget: Duration) -> (Tally, usize) {
    let mut tally = Tally::default();
    let start = Instant::now();
    if let Some(tracer) = tracer {
        // One pass over every request whatever the budget, so the traced
        // set is the same on every host: each request is issued
        // untraced, then once more traced.
        let (plain, traced) = (plan.systems.clone(), plan.systems.clone());
        for (index, req) in plan.requests.iter().enumerate() {
            let done = execute(plan, req, &plain[req.system]);
            if tally.record(plan, index, 0, &done) {
                tracer.request(
                    &plan.env,
                    &traced[req.system],
                    req,
                    done.elapsed,
                    |system| execute(plan, req, system),
                );
            }
        }
        return (tally, 1);
    }
    // At least one whole pass. Each pass starts from pristine copies of the systems, so the first probe
    // on each system bakes its frozen base and the rest of the streak
    // shares it, as in the campaign.
    let mut passes = 0;
    loop {
        let pass_start = Instant::now();
        let systems = plan.systems.clone();
        for (index, req) in plan.requests.iter().enumerate() {
            let done = execute(plan, req, &systems[req.system]);
            tally.record(plan, index, passes, &done);
        }
        passes += 1;
        if !plan.probe || start.elapsed() + pass_start.elapsed() > budget {
            return (tally, passes);
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; it changes what is measured, so the benchmark refuses to run"
        ));
    }
    let plan = build_plan(args.workload, args.seed)?;
    let mut tracer = args.trace.then(Tracer::new);

    let start = Instant::now();
    let (tally, passes) = measure(
        &plan,
        tracer.as_mut(),
        Duration::from_secs_f64(args.seconds),
    );
    let measured = start.elapsed();

    let mut setups: Vec<f64> = plan.setups.iter().map(Duration::as_secs_f64).collect();
    let mut latencies = tally.request_latencies_ms();
    // Every first-pass design's cost, and that cost against the AH design
    // of the same instance (a probe's design is the AH design).
    let designs: Vec<(f64, f64)> = plan
        .requests
        .iter()
        .zip(&tally.replies)
        .filter_map(|(req, reply)| match reply {
            Some(Reply::Mapped(c)) => Some((c.total, c.total / req.ah_cost.unwrap_or(c.total))),
            _ => None,
        })
        .collect();
    let unissued_probes = plan.failed_current * PROBES_PER_SYSTEM as usize;
    let mapped_pct =
        100.0 * designs.len() as f64 / (tally.replies.len() + unissued_probes).max(1) as f64;
    let n = designs.len().max(1) as f64;
    let cost_mean = designs.iter().map(|d| d.0).sum::<f64>() / n;
    let cost_vs_ah = designs.iter().map(|d| d.1).sum::<f64>() / n;
    let failed_pct = 100.0 * tally.failed as f64 / tally.attempted.max(1) as f64;
    // The tail of 15-25 instance-dependent commits on `paper-*` is too
    // noisy for a bound, so the 90th percentile is printed, not reported.
    let p90 = quantile(&mut latencies, 0.9);

    let metrics: Vec<(&str, f64, &str)> = match &tracer {
        None => vec![
            ("setup_s", median(&mut setups), "s"),
            ("map_ms_p50", median(&mut latencies), "ms"),
            (
                "map_ms_mean",
                latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
                "ms",
            ),
            ("cost_mean", cost_mean, "C"),
            ("cost_vs_ah", cost_vs_ah, "ratio"),
            ("mapped_pct", mapped_pct, "%"),
            ("peak_rss_mb", peak_rss_mb()?, "MB"),
        ],
        Some(tracer) => tracer.metrics(
            plan.env.arch.pe_count(),
            &plan.bases_generate,
            &plan.bases_commit,
        ),
    };

    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# provenance {{\"commit\":\"{}\",\"nproc\":{},\"scenario_seeds\":{},\"sizes\":{},\"requests\":{},\"failed_current_commits\":{},\"passes\":{},\"samples\":{},\"measured_s\":{:.3}}}",
        git_commit().unwrap_or_else(|| "unknown".into()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        json_list(&plan.seeds),
        json_list(&plan.sizes),
        plan.requests.len(),
        plan.failed_current,
        passes,
        tally.samples,
        measured.as_secs_f64(),
    );
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>14.4} {unit}");
    }
    for &size in &plan.sizes {
        let replies: Vec<_> = plan
            .requests
            .iter()
            .zip(&tally.replies)
            .filter(|(r, _)| r.size == size)
            .map(|(_, reply)| reply)
            .collect();
        let mapped = replies
            .iter()
            .filter(|r| matches!(r, Some(Reply::Mapped(_))))
            .count();
        println!(
            "# size {size}: {mapped} of {} requests mapped",
            replies.len()
        );
    }
    println!(
        "{:<36} {:>14.4} % ({} of {} attempted)",
        "failed_pct", failed_pct, tally.failed, tally.attempted
    );
    if !args.trace {
        println!("{:<36} {:>14.4} ms", "map_ms_p90", p90);
    }
    for failure in tally.failures.iter().take(10) {
        eprintln!("perfbench: FAILED {failure}");
    }

    // A metric with no samples (every request failed) prints as null;
    // `correct` is false then anyway.
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
