//! The deterministic, multi-threaded campaign runner.
//!
//! Scenarios are independent: each one builds its own session from the
//! spec's generator configuration and walks the lifecycle script with a
//! private `ChaCha8` RNG seeded from the scenario's seed — never from
//! anything shared. Workers pull scenario indices from an atomic
//! counter, so the *schedule* of work varies with the worker count but
//! the *result* of every scenario does not; outcomes are re-ordered by
//! scenario index before reporting. That is the determinism guarantee:
//! `run_campaign(spec, 1)` and `run_campaign(spec, n)` produce
//! byte-identical reports.

use crate::report::{CampaignReport, CampaignTotals, ScenarioReport, ScheduleReport, StepReport};
use crate::spec::{CampaignSpec, Count, ScenarioKey, ScriptStep, SpecError};
use incdes_core::{CoreError, System};
use incdes_mapping::{MapError, SaConfig, Strategy};
use incdes_metrics::DesignCost;
use incdes_model::{AppId, Architecture, FutureProfile, Time};
use incdes_obs::counters::{self, Counter, CounterSnapshot};
use incdes_obs::phase::{self, PhaseSnapshot};
use incdes_synth::{
    future_profile_for, future_wcet_range, generate_application, generate_architecture, SynthConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What a script step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAction {
    /// An `add_application` commit attempt.
    Add,
    /// A `probe_application` feasibility check.
    Probe,
    /// A `decommission` of a committed application.
    Decommission,
    /// A deliberate `InjectPanic` chaos step.
    InjectPanic,
}

impl StepAction {
    /// The report spelling of the action.
    pub fn as_str(&self) -> &'static str {
        match self {
            StepAction::Add => "add",
            StepAction::Probe => "probe",
            StepAction::Decommission => "decommission",
            StepAction::InjectPanic => "inject_panic",
        }
    }
}

/// In-memory result of one script step (the serializable subset lives
/// in [`StepReport`]; wall-clock timing stays here).
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Step index in the script.
    pub step: usize,
    /// What the step did.
    pub action: StepAction,
    /// Whether it succeeded.
    pub feasible: bool,
    /// Id assigned by a successful add.
    pub app_id: Option<u32>,
    /// Objective value of the chosen design alternative (add/probe).
    pub cost: Option<DesignCost>,
    /// Schedule evaluations the strategy spent.
    pub evaluations: usize,
    /// Strategy iterations.
    pub iterations: usize,
    /// System horizon in ticks after the step.
    pub horizon: u64,
    /// Error message for failed steps; plain infeasibility carries none.
    pub error: Option<String>,
    /// Wall-clock time of the step (not serialized — nondeterministic).
    pub elapsed: Duration,
}

/// In-memory result of one *completed* scenario.
#[derive(Debug, Clone)]
pub struct CompletedScenario {
    /// The grid point this scenario ran.
    pub key: ScenarioKey,
    /// Step results in script order.
    pub steps: Vec<StepOutcome>,
    /// Snapshot of the final schedule.
    pub schedule: ScheduleReport,
    /// Scheduling-invariant violations found after mutating steps.
    pub invariant_violations: Vec<String>,
    /// Wall-clock time of the whole scenario.
    pub elapsed: Duration,
    /// Observability counters this scenario's work contributed (a
    /// scenario runs on one thread, so a before/after delta is exact).
    /// Diagnostics only — never serialized into the campaign report.
    pub counters: CounterSnapshot,
    /// Per-phase wall-clock aggregates of the same span (all zero
    /// unless phase timing is enabled).
    pub phases: PhaseSnapshot,
}

impl CompletedScenario {
    /// The deterministic, serializable view of this scenario (wall-clock
    /// timings and counters stay here).
    #[must_use]
    pub fn report(&self) -> ScenarioReport {
        ScenarioReport {
            index: self.key.index,
            size: self.key.size,
            strategy: self.key.strategy.name().to_string(),
            seed: self.key.seed,
            weights: self.key.weights.label.clone(),
            steps: self
                .steps
                .iter()
                .map(|s| StepReport {
                    step: s.step,
                    action: s.action.as_str().to_string(),
                    feasible: s.feasible,
                    app_id: s.app_id,
                    cost: s.cost.map(Into::into),
                    evaluations: s.evaluations,
                    iterations: s.iterations,
                    horizon: s.horizon,
                    error: s.error.clone(),
                })
                .collect(),
            schedule: self.schedule.clone(),
            invariant_violations: self.invariant_violations.clone(),
        }
    }
}

/// One scenario's result: a completed trace, or a quarantined panic.
///
/// A panicking scenario never takes the campaign down: it runs under
/// `catch_unwind` on its worker, and a panic quarantines it as
/// [`ScenarioOutcome::Failed`] while its siblings keep running. A
/// scenario is a pure function of the spec, so it is not retried.
#[derive(Debug, Clone)]
pub enum ScenarioOutcome {
    /// The scenario ran to completion. Boxed: a full trace dwarfs the
    /// failure record.
    Completed(Box<CompletedScenario>),
    /// The scenario panicked; the campaign continues without it.
    Failed {
        /// The grid point that failed.
        key: ScenarioKey,
        /// Panic payload, prefixed with the scenario identity
        /// (`scenario #<index>: ...`).
        panic_message: String,
    },
}

impl ScenarioOutcome {
    /// The grid point this outcome belongs to.
    #[must_use]
    pub fn key(&self) -> &ScenarioKey {
        match self {
            ScenarioOutcome::Completed(done) => &done.key,
            ScenarioOutcome::Failed { key, .. } => key,
        }
    }

    /// The completed trace, when there is one.
    #[must_use]
    pub fn completed(&self) -> Option<&CompletedScenario> {
        match self {
            ScenarioOutcome::Completed(done) => Some(done.as_ref()),
            ScenarioOutcome::Failed { .. } => None,
        }
    }

    /// The completed trace, panicking with the quarantined scenario's
    /// own failure message otherwise. For tests and callers that have
    /// already established the campaign is failure-free.
    ///
    /// # Panics
    ///
    /// When the scenario failed.
    #[must_use]
    pub fn expect_completed(&self) -> &CompletedScenario {
        match self {
            ScenarioOutcome::Completed(done) => done,
            ScenarioOutcome::Failed { panic_message, .. } => {
                panic!("scenario was quarantined: {panic_message}")
            }
        }
    }

    /// The serializable scenario report; `None` for quarantined
    /// scenarios (they have no trustworthy trace to persist).
    #[must_use]
    pub fn report(&self) -> Option<ScenarioReport> {
        self.completed().map(CompletedScenario::report)
    }
}

/// The surfaced summary of one quarantined scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioFailure {
    /// Scenario index in the spec grid.
    pub index: usize,
    /// Panic message (names the scenario).
    pub panic_message: String,
}

/// A completed campaign: every scenario's outcome, in spec order.
#[derive(Debug)]
pub struct CampaignRun {
    /// Campaign name from the spec.
    pub name: String,
    /// Scenario outcomes, sorted by scenario index.
    pub outcomes: Vec<ScenarioOutcome>,
}

impl CampaignRun {
    /// Builds the deterministic, serializable report of this run.
    /// Quarantined scenarios are absent from it — a partial report is
    /// still byte-exact about everything that did complete.
    pub fn report(&self) -> CampaignReport {
        let scenarios: Vec<ScenarioReport> = self
            .outcomes
            .iter()
            .filter_map(ScenarioOutcome::report)
            .collect();
        let totals = CampaignTotals::from_scenarios(&scenarios);
        CampaignReport {
            campaign: self.name.clone(),
            scenarios,
            totals,
        }
    }

    /// The completed scenarios, in spec order.
    pub fn completed(&self) -> impl Iterator<Item = &CompletedScenario> {
        self.outcomes.iter().filter_map(ScenarioOutcome::completed)
    }

    /// Summaries of every quarantined scenario, in spec order; empty
    /// means the campaign is whole.
    #[must_use]
    pub fn failures(&self) -> Vec<ScenarioFailure> {
        self.outcomes
            .iter()
            .filter_map(|outcome| match outcome {
                ScenarioOutcome::Completed(_) => None,
                ScenarioOutcome::Failed { key, panic_message } => Some(ScenarioFailure {
                    index: key.index,
                    panic_message: panic_message.clone(),
                }),
            })
            .collect()
    }
}

/// Everything scenario execution needs that is shared across the whole
/// campaign: the resolved generator configuration, its future-WCET
/// variant, the architecture and the demand-scaled future profile. All
/// of it is a pure function of the spec.
struct CampaignEnv {
    cfg: SynthConfig,
    future_cfg: SynthConfig,
    arch: Architecture,
    future: FutureProfile,
}

/// Resolves the shared campaign environment of a *validated* spec.
fn prepare_env(spec: &CampaignSpec) -> Result<CampaignEnv, SpecError> {
    let cfg = spec.resolve_config()?;
    let arch = generate_architecture(&cfg)?;
    let future_cfg = SynthConfig {
        wcet: future_wcet_range(&cfg),
        ..cfg.clone()
    };
    let mut future = future_profile_for(&cfg, spec.future_processes);
    future.t_need = Time::new((future.t_need.as_f64() * spec.demand_factor).round() as u64);
    future.b_need = Time::new((future.b_need.as_f64() * spec.demand_factor).round() as u64);
    Ok(CampaignEnv {
        cfg,
        future_cfg,
        arch,
        future,
    })
}

/// Runs every scenario of `spec` over `workers` OS threads and returns
/// the outcomes in deterministic (spec) order.
///
/// The worker count only changes wall-clock time, never the result —
/// see the module docs for why.
///
/// # Errors
///
/// [`SpecError`] when the spec itself is invalid; failures *inside* a
/// scenario — infeasible commits, bad decommission indices, even
/// panics — are recorded in its outcome instead (see
/// [`ScenarioOutcome`]). Check [`CampaignRun::failures`] for
/// quarantined scenarios.
pub fn run_campaign(spec: &CampaignSpec, workers: usize) -> Result<CampaignRun, SpecError> {
    spec.validate()?;
    let env = prepare_env(spec)?;
    let keys = spec.scenarios();
    let mut outcomes = run_scenarios(spec, &env, &keys, workers);
    outcomes.sort_by_key(|o| o.key().index);
    Ok(CampaignRun {
        name: spec.name.clone(),
        outcomes,
    })
}

/// Executes the given scenarios over a pool of `workers` threads and
/// returns their outcomes in arbitrary order.
///
/// Each worker accumulates outcomes in a thread-local vector handed
/// back through its join handle — there is no shared mutex to poison —
/// and every scenario runs isolated under [`run_scenario_isolated`], so
/// one panicking scenario can never take a sibling (or the campaign)
/// down.
fn run_scenarios(
    spec: &CampaignSpec,
    env: &CampaignEnv,
    keys: &[ScenarioKey],
    workers: usize,
) -> Vec<ScenarioOutcome> {
    let scenario_count = keys.len();
    let workers = workers.clamp(1, scenario_count.max(1));
    let next = AtomicUsize::new(0);
    let harvested = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= scenario_count {
                            break;
                        }
                        local.push(run_scenario_isolated(spec, env, &keys[i]));
                    }
                    // Fresh OS thread: its observability thread-locals
                    // started at zero, so the final snapshot is this
                    // worker's contribution to the process totals.
                    (local, counters::snapshot(), phase::snapshot())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("scenario workers cannot panic: scenarios are unwind-isolated")
            })
            .collect::<Vec<_>>()
    });
    let mut outcomes = Vec::with_capacity(scenario_count);
    for (local, worker_counters, worker_phases) in harvested {
        outcomes.extend(local);
        counters::merge_into_current(&worker_counters);
        phase::merge_into_current(&worker_phases);
    }
    outcomes
}

/// Renders a panic payload as text (the common `&str`/`String` cases,
/// a placeholder otherwise).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// Runs one scenario with unwind isolation: a panic, prefixed with the
/// scenario index, is quarantined into [`ScenarioOutcome::Failed`].
fn run_scenario_isolated(
    spec: &CampaignSpec,
    env: &CampaignEnv,
    key: &ScenarioKey,
) -> ScenarioOutcome {
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_scenario(spec, env, key))) {
        Ok(outcome) => ScenarioOutcome::Completed(Box::new(outcome)),
        Err(payload) => {
            counters::bump(Counter::ScenarioPanics);
            ScenarioOutcome::Failed {
                key: key.clone(),
                panic_message: format!("scenario #{}: {}", key.index, panic_text(payload.as_ref())),
            }
        }
    }
}

/// The scenario's strategy with SA reseeded from the scenario seed, so
/// the seed axis drives the annealer too (and stays deterministic).
fn effective_strategy(base: &Strategy, scenario_seed: u64) -> Strategy {
    match base {
        Strategy::SimulatedAnnealing(cfg) => Strategy::SimulatedAnnealing(SaConfig {
            seed: cfg.seed ^ scenario_seed.rotate_left(17),
            ..*cfg
        }),
        other => *other,
    }
}

fn resolve_count(count: Count, size: usize) -> usize {
    match count {
        Count::Fixed(n) => n,
        Count::Size => size,
    }
}

/// The shared front half of `Add` and `Probe` steps: draws the step's
/// application from the scenario RNG (current or future configuration)
/// and resolves the effective strategy. Both step kinds **must** go
/// through this one path — it defines how the deterministic generation
/// stream advances.
#[allow(clippy::too_many_arguments)]
fn generate_step_app(
    cfg: &SynthConfig,
    future_cfg: &SynthConfig,
    key: &ScenarioKey,
    index: usize,
    processes: Count,
    strategy_override: &Option<Strategy>,
    from_future: bool,
    rng: &mut ChaCha8Rng,
) -> Result<(incdes_model::Application, Strategy), String> {
    let n = resolve_count(processes, key.size);
    let gen_cfg = if from_future { future_cfg } else { cfg };
    let app =
        generate_application(gen_cfg, &format!("s{index}"), n, rng).map_err(|e| e.to_string())?;
    let strategy = effective_strategy(
        strategy_override.as_ref().unwrap_or(&key.strategy),
        key.seed,
    );
    Ok((app, strategy))
}

/// Validates every scheduling invariant of the current schedule against
/// the still-active applications.
fn invariant_violation(system: &System) -> Option<String> {
    let pairs: Vec<_> = system
        .active()
        .map(|c| (c.id, &c.app, &c.solution.mapping))
        .collect();
    system
        .table()
        .validate(system.arch(), &pairs)
        .err()
        .map(|e| e.to_string())
}

fn run_scenario(spec: &CampaignSpec, env: &CampaignEnv, key: &ScenarioKey) -> CompletedScenario {
    let CampaignEnv {
        cfg,
        future_cfg,
        arch,
        future,
    } = env;
    let scenario_start = Instant::now();
    let counters_before = counters::snapshot();
    let phases_before = phase::snapshot();
    let mut rng = ChaCha8Rng::seed_from_u64(key.seed);
    let mut system = System::new(arch.clone());
    let weights = key.weights.weights;
    let mut steps = Vec::with_capacity(spec.script.len());
    let mut invariant_violations = Vec::new();

    for (index, step) in spec.script.iter().enumerate() {
        let step_start = Instant::now();
        let mut outcome = StepOutcome {
            step: index,
            action: StepAction::Add,
            feasible: false,
            app_id: None,
            cost: None,
            evaluations: 0,
            iterations: 0,
            horizon: 0,
            error: None,
            elapsed: Duration::ZERO,
        };
        let mutating = match step {
            ScriptStep::Add {
                processes,
                strategy,
                future: from_future,
            } => {
                outcome.action = StepAction::Add;
                match generate_step_app(
                    cfg,
                    future_cfg,
                    key,
                    index,
                    *processes,
                    strategy,
                    *from_future,
                    &mut rng,
                ) {
                    Err(e) => outcome.error = Some(e),
                    Ok((app, strategy)) => {
                        match system.add_application(app, future, &weights, &strategy) {
                            Ok(report) => {
                                outcome.feasible = true;
                                outcome.app_id = Some(report.app_id.0);
                                outcome.cost = Some(report.cost);
                                outcome.evaluations = report.stats.evaluations;
                                outcome.iterations = report.stats.iterations;
                            }
                            Err(CoreError::Mapping(MapError::Infeasible { .. })) => {}
                            Err(e) => outcome.error = Some(e.to_string()),
                        }
                    }
                }
                true
            }
            ScriptStep::Probe {
                processes,
                strategy,
                future: from_future,
            } => {
                outcome.action = StepAction::Probe;
                match generate_step_app(
                    cfg,
                    future_cfg,
                    key,
                    index,
                    *processes,
                    strategy,
                    *from_future,
                    &mut rng,
                ) {
                    Err(e) => outcome.error = Some(e),
                    Ok((app, strategy)) => {
                        match system.probe_application(&app, future, &weights, &strategy) {
                            Ok(probe) => {
                                outcome.feasible = probe.feasible;
                                outcome.cost = probe.cost;
                                if let Some(stats) = probe.stats {
                                    outcome.evaluations = stats.evaluations;
                                    outcome.iterations = stats.iterations;
                                }
                            }
                            Err(e) => outcome.error = Some(e.to_string()),
                        }
                    }
                }
                false
            }
            ScriptStep::Decommission { app } => {
                outcome.action = StepAction::Decommission;
                match system.decommission(AppId(*app)) {
                    Ok(()) => outcome.feasible = true,
                    Err(e) => outcome.error = Some(e.to_string()),
                }
                true
            }
            ScriptStep::InjectPanic { only_seed } => {
                outcome.action = StepAction::InjectPanic;
                if only_seed.is_none_or(|seed| seed == key.seed) {
                    panic!("injected panic at script step {index}");
                }
                outcome.feasible = true;
                false
            }
        };
        outcome.horizon = system.horizon().ticks();
        outcome.elapsed = step_start.elapsed();
        steps.push(outcome);
        if spec.check_invariants && mutating {
            if let Some(violation) = invariant_violation(&system) {
                invariant_violations.push(format!("step {index}: {violation}"));
            }
        }
    }

    CompletedScenario {
        key: key.clone(),
        steps,
        schedule: ScheduleReport::capture(&system),
        invariant_violations,
        elapsed: scenario_start.elapsed(),
        counters: counters::snapshot().delta_since(&counters_before),
        phases: phase::snapshot().delta_since(&phases_before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BaseSpec, WeightSetting};
    use incdes_metrics::Weights;

    fn tiny_spec() -> CampaignSpec {
        let mut spec = CampaignSpec::small_demo();
        spec.sizes = vec![5];
        spec.seeds = vec![3];
        spec.strategies = vec![Strategy::AdHoc];
        spec
    }

    #[test]
    fn single_scenario_campaign_runs() {
        let run = run_campaign(&tiny_spec(), 1).unwrap();
        assert_eq!(run.outcomes.len(), 1);
        assert!(run.failures().is_empty());
        let outcome = run.outcomes[0].expect_completed();
        assert_eq!(outcome.steps.len(), 6);
        assert!(outcome.invariant_violations.is_empty());
        assert!(
            outcome.steps.iter().all(|s| s.feasible),
            "demo steps all fit"
        );
        // The decommission retired app 0.
        assert_eq!(outcome.schedule.committed_apps, 4);
        assert_eq!(outcome.schedule.active_apps, 3);
        assert!(outcome.schedule.jobs > 0);
    }

    /// Probe-heavy scripts (the paper's mappability experiment) now
    /// share one baked `FrozenBase` per system state through
    /// `incdes_core::System`, and every per-step context runs the
    /// delta-scheduling path by default — the determinism guarantee
    /// (byte-identical reports across runs and worker counts) must be
    /// completely unaffected by either cache.
    #[test]
    fn probe_heavy_script_is_deterministic_with_shared_bases() {
        let mut spec = tiny_spec();
        spec.strategies = vec![Strategy::mh(), Strategy::sa()];
        spec.script = vec![
            ScriptStep::Add {
                processes: Count::Fixed(5),
                strategy: None,
                future: false,
            },
            ScriptStep::Probe {
                processes: Count::Fixed(4),
                strategy: None,
                future: false,
            },
            ScriptStep::Probe {
                processes: Count::Fixed(4),
                strategy: None,
                future: true,
            },
            ScriptStep::Probe {
                processes: Count::Fixed(6),
                strategy: None,
                future: false,
            },
            ScriptStep::Add {
                processes: Count::Fixed(4),
                strategy: None,
                future: false,
            },
            ScriptStep::Probe {
                processes: Count::Fixed(4),
                strategy: None,
                future: true,
            },
        ];
        let a = run_campaign(&spec, 1).unwrap().report();
        let b = run_campaign(&spec, 4).unwrap().report();
        assert_eq!(
            a.to_json_pretty().unwrap(),
            b.to_json_pretty().unwrap(),
            "worker count must not perturb probe-heavy campaigns"
        );
        for outcome in run_campaign(&spec, 2).unwrap().completed() {
            assert!(outcome.invariant_violations.is_empty());
        }
    }

    #[test]
    fn bad_decommission_is_recorded_not_fatal() {
        // The spec is valid (app 0 is reachable); only the run can see
        // that the second decommission names an already-retired app.
        let mut spec = tiny_spec();
        spec.script = vec![
            ScriptStep::Add {
                processes: Count::Fixed(4),
                strategy: None,
                future: false,
            },
            ScriptStep::Decommission { app: 0 },
            ScriptStep::Decommission { app: 0 },
        ];
        let run = run_campaign(&spec, 1).unwrap();
        let steps = &run.outcomes[0].expect_completed().steps;
        assert!(steps[1].feasible);
        let step = &steps[2];
        assert!(!step.feasible);
        assert!(step
            .error
            .as_deref()
            .unwrap()
            .contains("no active application"));
    }

    #[test]
    fn weight_axis_changes_cost_not_structure() {
        let mut spec = tiny_spec();
        spec.strategies = vec![Strategy::mh()];
        spec.weight_settings = vec![
            WeightSetting {
                label: "balanced".into(),
                weights: Weights::default(),
            },
            WeightSetting {
                label: "packing-only".into(),
                weights: Weights {
                    w2_processes: 0.0,
                    w2_messages: 0.0,
                    ..Weights::default()
                },
            },
        ];
        let run = run_campaign(&spec, 2).unwrap();
        assert_eq!(run.outcomes.len(), 2);
        // Same seed, same generator stream: both scenarios commit the
        // same number of jobs even though the objective differs.
        assert_eq!(
            run.outcomes[0].expect_completed().schedule.jobs,
            run.outcomes[1].expect_completed().schedule.jobs
        );
    }

    #[test]
    fn sa_is_reseeded_per_scenario_seed() {
        let sa = Strategy::sa();
        let a = effective_strategy(&sa, 1);
        let b = effective_strategy(&sa, 2);
        let (Strategy::SimulatedAnnealing(ca), Strategy::SimulatedAnnealing(cb)) = (a, b) else {
            panic!("SA stays SA");
        };
        assert_ne!(ca.seed, cb.seed);
        // And deterministic.
        let (Strategy::SimulatedAnnealing(ca2),) = (effective_strategy(&sa, 1),) else {
            unreachable!()
        };
        assert_eq!(ca.seed, ca2.seed);
    }

    #[test]
    fn preset_base_resolves_and_runs() {
        let spec = CampaignSpec {
            name: "preset-smoke".into(),
            base: BaseSpec::Preset("dac2001-small".into()),
            future_processes: 10,
            demand_factor: 1.0,
            sizes: Vec::new(),
            strategies: vec![Strategy::AdHoc],
            seeds: vec![5],
            weight_settings: Vec::new(),
            script: vec![ScriptStep::Add {
                processes: Count::Fixed(10),
                strategy: None,
                future: false,
            }],
            check_invariants: true,
        };
        let run = run_campaign(&spec, 1).unwrap();
        let outcome = run.outcomes[0].expect_completed();
        assert!(outcome.steps[0].feasible);
        assert!(outcome.invariant_violations.is_empty());
    }

    /// A panicking scenario must be quarantined under its own
    /// index while every sibling completes — no campaign abort, no
    /// poisoned-lock collateral.
    #[test]
    fn panicking_scenario_is_quarantined_and_siblings_survive() {
        let mut spec = tiny_spec();
        spec.seeds = vec![1, 2, 3, 4];
        spec.script = vec![
            ScriptStep::Add {
                processes: Count::Fixed(4),
                strategy: None,
                future: false,
            },
            ScriptStep::InjectPanic { only_seed: Some(3) },
        ];
        let run = run_campaign(&spec, 4).expect("spec is valid");
        assert_eq!(run.outcomes.len(), 4, "every scenario has an outcome");
        let failures = run.failures();
        assert_eq!(failures.len(), 1, "exactly the poisoned scenario failed");
        let poisoned_index = spec
            .scenarios()
            .iter()
            .find(|k| k.seed == 3)
            .expect("seed 3 is on the grid")
            .index;
        assert_eq!(failures[0].index, poisoned_index);
        assert!(
            failures[0]
                .panic_message
                .contains(&format!("scenario #{poisoned_index}")),
            "panic identity names the scenario: {}",
            failures[0].panic_message
        );
        assert_eq!(run.completed().count(), 3);
        // The report carries exactly the completed scenarios.
        assert_eq!(run.report().scenarios.len(), 3);
    }
}
