//! Paper-scale instances, built exactly as `incdes_explore::run_campaign`
//! builds the scenarios of a campaign spec: the same resolved generator
//! configuration and demand-scaled future profile, one `ChaCha8` stream
//! per scenario seed, applications named `s{step}` and drawn in script
//! order, and SA reseeded from the scenario seed.
//!
//! The runner does not hand out its steps one at a time, so this module
//! walks the same script with the benchmark's clock around each call.
//! `tests::instances_match_run_campaign` pins it to the runner's report,
//! so the benchmark cannot drift onto instances the campaigns never map.

use incdes_bench::{future_campaign_spec, quality_campaign_spec};
use incdes_core::System;
use incdes_explore::{CampaignSpec, Count, ScriptStep, WeightSetting};
use incdes_mapping::{MhConfig, SaConfig, SearchParallelism, Strategy};
use incdes_metrics::{DesignCost, Weights};
use incdes_model::{Application, Architecture, FutureProfile, Time};
use incdes_synth::paper::dac2001;
use incdes_synth::{
    future_profile_for, future_wcet_range, generate_application, generate_architecture, SynthConfig,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// SA as the figures run it at paper scale.
pub fn paper_sa_config() -> SaConfig {
    SaConfig {
        max_evaluations: 4000,
        ..SaConfig::default()
    }
}

/// The figure 1/2 campaign on `dac2001`: existing applications, then the
/// current application at every size, for AH, MH and SA.
pub fn paper_spec() -> CampaignSpec {
    quality_campaign_spec(&dac2001(), &MhConfig::default(), &paper_sa_config())
}

/// The figure 3 campaign on `dac2001` with `probes` future applications
/// probed after the current commit.
pub fn future_spec(probes: u64) -> CampaignSpec {
    future_campaign_spec(&dac2001(), &MhConfig::default(), probes)
}

/// The strategy of `spec`'s strategy axis with the given figure name.
pub fn strategy_named(spec: &CampaignSpec, name: &str) -> Strategy {
    *spec
        .strategies
        .iter()
        .find(|s| s.name() == name)
        .unwrap_or_else(|| panic!("campaign spec has no {name} strategy"))
}

/// The strategy a scenario with `seed` actually runs: SA is reseeded
/// from the scenario seed, as the campaign runner does.
pub fn effective_strategy(strategy: &Strategy, seed: u64) -> Strategy {
    match strategy {
        Strategy::SimulatedAnnealing(cfg) => Strategy::SimulatedAnnealing(SaConfig {
            seed: cfg.seed ^ seed.rotate_left(17),
            ..*cfg
        }),
        other => *other,
    }
}

/// What a campaign spec fixes for every scenario: the generator
/// configurations, the architecture, the future profile and the script
/// shape (existing applications, one current application, probes).
pub struct Env {
    pub cfg: SynthConfig,
    pub future_cfg: SynthConfig,
    pub arch: Architecture,
    pub future: FutureProfile,
    pub weights: Weights,
    /// Process counts of the existing applications, in commit order.
    existing: Vec<usize>,
    /// Process counts of the probed future applications, in script order.
    probes: Vec<usize>,
}

impl Env {
    /// Resolves `spec` the way the campaign runner does.
    ///
    /// # Errors
    ///
    /// An invalid spec, or a script that is not "AH commits of fixed
    /// size, then one `Count::Size` commit, then AH probes of the future
    /// family" — the only shape the benchmark models.
    pub fn new(spec: &CampaignSpec) -> Result<Env, String> {
        spec.validate().map_err(|e| e.to_string())?;
        if !spec.weight_settings.is_empty() {
            return Err("the benchmark runs the default weights only".into());
        }
        let cfg = spec.resolve_config().map_err(|e| e.to_string())?;
        let arch = generate_architecture(&cfg).map_err(|e| e.to_string())?;
        let future_cfg = SynthConfig {
            wcet: future_wcet_range(&cfg),
            ..cfg.clone()
        };
        let mut future = future_profile_for(&cfg, spec.future_processes);
        future.t_need = Time::new((future.t_need.as_f64() * spec.demand_factor).round() as u64);
        future.b_need = Time::new((future.b_need.as_f64() * spec.demand_factor).round() as u64);

        let mut steps = spec.script.iter().peekable();
        let mut existing = Vec::new();
        while let Some(ScriptStep::Add {
            processes: Count::Fixed(n),
            strategy: Some(Strategy::AdHoc),
            future: false,
        }) = steps.peek()
        {
            existing.push(*n);
            steps.next();
        }
        if !matches!(
            steps.next(),
            Some(ScriptStep::Add {
                processes: Count::Size,
                strategy: None,
                future: false,
            })
        ) {
            return Err(
                "script must commit the current application after the existing ones".into(),
            );
        }
        let probes = steps
            .map(|step| match step {
                ScriptStep::Probe {
                    processes: Count::Fixed(n),
                    strategy: Some(Strategy::AdHoc),
                    future: true,
                } => Ok(*n),
                other => Err(format!(
                    "unsupported script step after the commit: {other:?}"
                )),
            })
            .collect::<Result<_, _>>()?;
        Ok(Env {
            cfg,
            future_cfg,
            arch,
            future,
            weights: WeightSetting::default().weights,
            existing,
            probes,
        })
    }
}

/// Cost and evaluation count of one committed or probed step, as the
/// campaign report records them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    pub cost: Option<DesignCost>,
    pub evaluations: usize,
}

/// One scenario seed's frozen base: the existing applications committed
/// with AH, and the scenario's RNG stream positioned after them.
pub struct Base {
    pub system: System,
    rng: ChaCha8Rng,
    /// Time spent generating the existing applications.
    pub generate: Duration,
    /// Time spent committing them with AH.
    pub commit: Duration,
    /// The existing applications' commit records (read by the
    /// instance-identity test).
    #[cfg_attr(not(test), allow(dead_code))]
    pub steps: Vec<StepRecord>,
}

impl Base {
    /// Generates and commits the existing applications of scenario `seed`.
    ///
    /// # Errors
    ///
    /// Generation errors, or an existing application that does not fit.
    pub fn build(env: &Env, seed: u64) -> Result<Base, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut system = System::new(env.arch.clone());
        system.set_parallelism(SearchParallelism::Sequential);
        let (mut generate, mut commit) = (Duration::ZERO, Duration::ZERO);
        let mut steps = Vec::with_capacity(env.existing.len());
        for (index, &n) in env.existing.iter().enumerate() {
            let start = Instant::now();
            let app = generate_application(&env.cfg, &format!("s{index}"), n, &mut rng)
                .map_err(|e| e.to_string())?;
            generate += start.elapsed();
            let start = Instant::now();
            let report = system
                .add_application(app, &env.future, &env.weights, &Strategy::AdHoc)
                .map_err(|e| format!("seed {seed}: existing application {index}: {e}"))?;
            commit += start.elapsed();
            steps.push(StepRecord {
                cost: Some(report.cost),
                evaluations: report.stats.evaluations,
            });
        }
        Ok(Base {
            system,
            rng,
            generate,
            commit,
            steps,
        })
    }

    /// The current application of `size` processes, and the RNG stream
    /// positioned after it (where the probes are drawn from).
    ///
    /// # Errors
    ///
    /// Generation errors.
    pub fn current(&self, env: &Env, size: usize) -> Result<(Application, ChaCha8Rng), String> {
        let mut rng = self.rng.clone();
        let name = format!("s{}", env.existing.len());
        let app =
            generate_application(&env.cfg, &name, size, &mut rng).map_err(|e| e.to_string())?;
        Ok((app, rng))
    }
}

/// The script's future applications, drawn from `rng` in script order.
///
/// # Errors
///
/// Generation errors.
pub fn probe_apps(env: &Env, rng: &mut ChaCha8Rng) -> Result<Vec<Application>, String> {
    let first = env.existing.len() + 1;
    env.probes
        .iter()
        .enumerate()
        .map(|(j, &n)| {
            generate_application(&env.future_cfg, &format!("s{}", first + j), n, rng)
                .map_err(|e| e.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_explore::run_campaign;

    const SEED: u64 = 7;
    const SIZE: usize = 40;

    /// Every completed scenario's step records, keyed by strategy name.
    fn campaign_steps(spec: &CampaignSpec) -> Vec<(&'static str, Vec<StepRecord>)> {
        let run = run_campaign(spec, 1).expect("spec is valid");
        run.completed()
            .map(|o| {
                let steps = o
                    .steps
                    .iter()
                    .map(|s| StepRecord {
                        cost: s.cost,
                        evaluations: s.evaluations,
                    })
                    .collect();
                (o.key.strategy.name(), steps)
            })
            .collect()
    }

    /// The benchmark's per-step costs and evaluation counts equal the
    /// campaign report's for the same spec, on a small slice of each.
    #[test]
    fn instances_match_run_campaign() {
        let mut spec = paper_spec();
        spec.sizes = vec![SIZE];
        spec.seeds = vec![SEED];
        let env = Env::new(&spec).unwrap();
        let base = Base::build(&env, SEED).unwrap();
        let campaign = campaign_steps(&spec);
        assert_eq!(campaign.len(), 3);
        for (name, expected) in campaign {
            let strategy = effective_strategy(&strategy_named(&spec, name), SEED);
            let (app, _) = base.current(&env, SIZE).unwrap();
            let mut system = base.system.clone();
            let report = system
                .add_application(app, &env.future, &env.weights, &strategy)
                .unwrap();
            let mut ours = base.steps.clone();
            ours.push(StepRecord {
                cost: Some(report.cost),
                evaluations: report.stats.evaluations,
            });
            assert_eq!(ours, expected, "{name}");
        }

        let mut spec = future_spec(6);
        spec.sizes = vec![SIZE];
        spec.seeds = vec![SEED];
        spec.strategies.retain(|s| *s == Strategy::AdHoc);
        let env = Env::new(&spec).unwrap();
        let base = Base::build(&env, SEED).unwrap();
        let (app, mut rng) = base.current(&env, SIZE).unwrap();
        let mut system = base.system.clone();
        let report = system
            .add_application(app, &env.future, &env.weights, &Strategy::AdHoc)
            .unwrap();
        let mut ours = base.steps.clone();
        ours.push(StepRecord {
            cost: Some(report.cost),
            evaluations: report.stats.evaluations,
        });
        for app in probe_apps(&env, &mut rng).unwrap() {
            let probe = system
                .probe_application(&app, &env.future, &env.weights, &Strategy::AdHoc)
                .unwrap();
            ours.push(StepRecord {
                cost: probe.cost,
                evaluations: probe.stats.map_or(0, |s| s.evaluations),
            });
        }
        assert_eq!(vec![("AH", ours)], campaign_steps(&spec));
    }

    #[test]
    fn unsupported_scripts_are_refused() {
        let mut spec = paper_spec();
        spec.script.push(ScriptStep::Decommission { app: 0 });
        assert!(Env::new(&spec).is_err());
    }
}
