//! Experiment drivers for the DAC 2001 reproduction.
//!
//! Each public function regenerates the data behind one figure of the
//! paper's evaluation (slides 15–17):
//!
//! * [`run_quality`] — figure 1: average % deviation of the objective `C`
//!   from the near-optimal (SA) value, for AH and MH, versus the size of
//!   the current application;
//! * [`run_runtime`] — figure 2: average strategy execution time versus
//!   size (measured on the same instances as figure 1);
//! * [`run_future`] — figure 3: percentage of future applications that can
//!   still be mapped after the current application was committed with AH
//!   versus MH;
//! * [`run_fit_ablation`] / [`run_mh_ablation`] — the ablations called out
//!   in `DESIGN.md` (bin-packing policy; MH candidate filtering).
//!
//! The drivers are deterministic given the preset's seeds; the `figures`
//! binary prints the rows, and the criterion benches wrap the same
//! functions at reduced scale.
//!
//! Since the `incdes_explore` campaign subsystem landed, [`run_quality`]
//! and [`run_future`] are thin aggregations over a
//! [`incdes_explore::CampaignSpec`]: the preset's axes become the
//! campaign grid, the existing applications become `Add` script steps,
//! and the scenarios fan out over worker threads (deterministically —
//! the rows do not depend on the worker count).

#![forbid(unsafe_code)]

pub mod tables;

use incdes_core::System;
use incdes_explore::{
    run_campaign, BaseSpec, CampaignSpec, CompletedScenario, Count, ScriptStep, StepAction,
};
use incdes_mapping::{run_strategy, MappingContext, MhConfig, SaConfig, Strategy};
use incdes_metrics::{FitPolicy, Weights};
use incdes_model::time::hyperperiod;
use incdes_model::{AppId, Application, FutureProfile, Time};
use incdes_sched::ScheduleTable;
use incdes_synth::paper::PaperPreset;
use incdes_synth::{future_profile_for, generate_application, generate_architecture};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// How demanding the future-application family is relative to the
/// generator's natural scale. Values above 1 make the objective strictly
/// positive on loaded systems so percentage deviations are well defined.
pub const DEMAND_FACTOR: f64 = 4.0;

/// One row of figure 1 + 2 (they share instances).
#[derive(Debug, Clone)]
pub struct QualityRow {
    /// Processes in the current application.
    pub size: usize,
    /// Average % deviation of AH's cost from SA's.
    pub ah_deviation: f64,
    /// Average % deviation of MH's cost from SA's.
    pub mh_deviation: f64,
    /// Average absolute costs (diagnostics).
    pub ah_cost: f64,
    /// Average MH cost.
    pub mh_cost: f64,
    /// Average SA cost.
    pub sa_cost: f64,
    /// Average wall-clock time of AH.
    pub ah_time: Duration,
    /// Average wall-clock time of MH.
    pub mh_time: Duration,
    /// Average wall-clock time of SA.
    pub sa_time: Duration,
    /// Instances that were feasible for all three strategies.
    pub instances: usize,
}

/// One row of figure 3.
#[derive(Debug, Clone)]
pub struct FutureRow {
    /// Processes in the current application.
    pub size: usize,
    /// % of future applications mappable after an AH commit.
    pub ah_mapped_percent: f64,
    /// % of future applications mappable after an MH commit.
    pub mh_mapped_percent: f64,
    /// Future applications probed per strategy.
    pub probes: usize,
}

/// The frozen base system: architecture plus the existing applications'
/// schedule, built by committing them one at a time (AH keeps it fast and
/// identical across strategies).
pub struct BaseSystem {
    /// The session holding the existing applications.
    pub system: System,
    /// The future profile the experiments optimize for.
    pub future: FutureProfile,
    /// Objective weights.
    pub weights: Weights,
}

/// Builds the base system of a preset for one seed.
///
/// # Panics
///
/// Panics if the preset cannot generate or commit its own existing
/// applications — presets are validated by tests, so this indicates a
/// broken preset.
pub fn build_base_system(preset: &PaperPreset, seed: u64) -> BaseSystem {
    let arch = generate_architecture(&preset.cfg).expect("preset architecture is valid");
    let future = scaled_future(preset);
    let weights = Weights::default();
    let mut system = System::new(arch);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut remaining = preset.existing_processes;
    let mut i = 0usize;
    while remaining > 0 {
        let n = preset.existing_app_size.clamp(1, remaining);
        let app = generate_application(&preset.cfg, &format!("existing{i}"), n, &mut rng)
            .expect("preset generates valid applications");
        system
            .add_application(app, &future, &weights, &Strategy::AdHoc)
            .expect("preset existing applications must fit");
        remaining -= n;
        i += 1;
    }
    BaseSystem {
        system,
        future,
        weights,
    }
}

/// The experiment's future profile: the preset's natural profile with
/// `t_need`/`b_need` scaled by [`DEMAND_FACTOR`].
pub fn scaled_future(preset: &PaperPreset) -> FutureProfile {
    let mut f = future_profile_for(&preset.cfg, preset.future_processes);
    f.t_need = Time::new((f.t_need.as_f64() * DEMAND_FACTOR) as u64);
    f.b_need = Time::new((f.b_need.as_f64() * DEMAND_FACTOR) as u64);
    f
}

/// The current application of one `(size, seed)` instance.
pub fn current_application(preset: &PaperPreset, size: usize, seed: u64) -> Application {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
    generate_application(&preset.cfg, "current", size, &mut rng)
        .expect("preset generates valid applications")
}

/// A future application drawn from the family (for figure 3's probes).
pub fn future_application(preset: &PaperPreset, seed: u64, index: u64) -> Application {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (0xF0_07 + index * 7919));
    generate_application(
        &preset.future_cfg(),
        "future",
        preset.future_processes,
        &mut rng,
    )
    .expect("preset generates valid applications")
}

/// Prepares the mapping context ingredients for a current application on
/// a base system: `(frozen table, horizon)`.
fn frozen_for(base: &BaseSystem, app: &Application) -> (ScheduleTable, Time) {
    let mut periods = vec![base.system.horizon()];
    periods.extend(app.graphs.iter().map(|g| g.period));
    let horizon = hyperperiod(periods).expect("periods are harmonic and small");
    let frozen = base
        .system
        .table()
        .replicate_to(base.system.arch(), horizon)
        .expect("horizon is a multiple of the committed horizon");
    (frozen, horizon)
}

/// Worker threads for campaign fan-out (capped so laptop runs stay
/// polite). Cost rows never depend on this; wall-clock columns do
/// (CPU contention), which is why [`run_runtime`] pins one worker.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// `Add` steps committing the preset's existing applications with AH
/// (fast, and identical across the strategy axis).
fn existing_script(preset: &PaperPreset) -> Vec<ScriptStep> {
    let mut steps = Vec::new();
    let mut remaining = preset.existing_processes;
    while remaining > 0 {
        // clamp(1, ..) keeps a degenerate existing_app_size of 0 from
        // chunking forever.
        let n = preset.existing_app_size.clamp(1, remaining);
        steps.push(ScriptStep::Add {
            processes: Count::Fixed(n),
            strategy: Some(Strategy::AdHoc),
            future: false,
        });
        remaining -= n;
    }
    steps
}

/// The figure-1/2 sweep as a campaign: existing apps, then the current
/// application at every size, for AH/MH/SA at every seed.
pub fn quality_campaign_spec(
    preset: &PaperPreset,
    mh_cfg: &MhConfig,
    sa_cfg: &SaConfig,
) -> CampaignSpec {
    let mut script = existing_script(preset);
    script.push(ScriptStep::Add {
        processes: Count::Size,
        strategy: None,
        future: false,
    });
    CampaignSpec {
        name: "figures-quality".to_string(),
        base: BaseSpec::Config(preset.cfg.clone()),
        future_processes: preset.future_processes,
        demand_factor: DEMAND_FACTOR,
        sizes: preset.current_sizes.clone(),
        strategies: vec![
            Strategy::AdHoc,
            Strategy::MappingHeuristic(*mh_cfg),
            Strategy::SimulatedAnnealing(*sa_cfg),
        ],
        seeds: preset.seeds.clone(),
        weight_settings: Vec::new(),
        script,
        check_invariants: false,
    }
}

/// The figure-3 sweep as a campaign: like
/// [`quality_campaign_spec`] (AH and MH only), followed by
/// `futures_per_seed` probes of future-family applications.
pub fn future_campaign_spec(
    preset: &PaperPreset,
    mh_cfg: &MhConfig,
    futures_per_seed: u64,
) -> CampaignSpec {
    let mut spec = quality_campaign_spec(preset, mh_cfg, &SaConfig::default());
    spec.name = "figures-future".to_string();
    spec.strategies = vec![Strategy::AdHoc, Strategy::MappingHeuristic(*mh_cfg)];
    for _ in 0..futures_per_seed {
        spec.script.push(ScriptStep::Probe {
            processes: Count::Fixed(preset.future_processes),
            strategy: Some(Strategy::AdHoc),
            future: true,
        });
    }
    spec
}

/// The cost and wall-clock time of the scenario's current-application
/// commit (the `Count::Size` step), provided the whole build-up was
/// feasible.
fn current_commit(outcome: &CompletedScenario, current_step: usize) -> Option<(f64, Duration)> {
    let committed = outcome.steps[..=current_step]
        .iter()
        .all(|s| s.feasible && matches!(s.action, StepAction::Add));
    if !committed {
        return None;
    }
    let step = &outcome.steps[current_step];
    step.cost.map(|c| (c.total, step.elapsed))
}

/// Percentage deviation of `cost` from the reference `sa`:
/// `100 · (cost − sa) / max(sa, 1)`. The denominator is floored at 1
/// cost unit, so a reference cost of (near) zero yields the absolute
/// difference in cost units, times 100, instead of a division by zero.
pub fn deviation_percent(cost: f64, sa: f64) -> f64 {
    100.0 * (cost - sa) / sa.max(1.0)
}

/// Figures 1 and 2: quality and runtime of AH/MH/SA per current size.
///
/// Runs the [`quality_campaign_spec`] campaign over worker threads and
/// aggregates: scenarios sharing a `(size, seed)` grid point were
/// generated from the same RNG stream, so the three strategies mapped
/// the *same* instance and their costs are directly comparable.
pub fn run_quality(preset: &PaperPreset, mh_cfg: &MhConfig, sa_cfg: &SaConfig) -> Vec<QualityRow> {
    run_quality_workers(preset, mh_cfg, sa_cfg, default_workers())
}

/// [`run_quality`] with an explicit worker count. The cost columns are
/// identical at every worker count (campaign determinism); the
/// wall-clock columns are only contention-free at `workers == 1`.
pub fn run_quality_workers(
    preset: &PaperPreset,
    mh_cfg: &MhConfig,
    sa_cfg: &SaConfig,
    workers: usize,
) -> Vec<QualityRow> {
    let spec = quality_campaign_spec(preset, mh_cfg, sa_cfg);
    let run = run_campaign(&spec, workers).expect("quality campaign spec is valid");
    let current_step = spec.script.len() - 1;
    let find = |size: usize, seed: u64, name: &str| {
        run.completed()
            .find(|o| o.key.size == size && o.key.seed == seed && o.key.strategy.name() == name)
            .and_then(|o| current_commit(o, current_step))
    };
    let mut rows = Vec::new();
    for &size in &preset.current_sizes {
        let mut dev_ah = 0.0;
        let mut dev_mh = 0.0;
        let mut sums = [0.0f64; 3];
        let mut times = [Duration::ZERO; 3];
        let mut n = 0usize;
        for &seed in &preset.seeds {
            let (Some(ah), Some(mh), Some(sa)) = (
                find(size, seed, "AH"),
                find(size, seed, "MH"),
                find(size, seed, "SA"),
            ) else {
                eprintln!("# skipped size={size} seed={seed}: infeasible for some strategy");
                continue;
            };
            dev_ah += deviation_percent(ah.0, sa.0);
            dev_mh += deviation_percent(mh.0, sa.0);
            sums[0] += ah.0;
            sums[1] += mh.0;
            sums[2] += sa.0;
            times[0] += ah.1;
            times[1] += mh.1;
            times[2] += sa.1;
            n += 1;
        }
        let n_f = n.max(1) as f64;
        rows.push(QualityRow {
            size,
            ah_deviation: dev_ah / n_f,
            mh_deviation: dev_mh / n_f,
            ah_cost: sums[0] / n_f,
            mh_cost: sums[1] / n_f,
            sa_cost: sums[2] / n_f,
            ah_time: times[0] / n.max(1) as u32,
            mh_time: times[1] / n.max(1) as u32,
            sa_time: times[2] / n.max(1) as u32,
            instances: n,
        });
    }
    rows
}

/// Figure 2 is the runtime view of the figure-1 instances, measured
/// single-threaded: the per-strategy wall-clock columns are the point
/// of the figure, so no other scenario may compete for the CPU while
/// they are taken. Cost columns match [`run_quality`] exactly.
pub fn run_runtime(preset: &PaperPreset, mh_cfg: &MhConfig, sa_cfg: &SaConfig) -> Vec<QualityRow> {
    run_quality_workers(preset, mh_cfg, sa_cfg, 1)
}

/// Figure 3: future-application mappability after AH vs MH commits.
///
/// `futures_per_seed` future applications are probed per instance, via
/// the [`future_campaign_spec`] campaign. The AH and MH scenarios of a
/// `(size, seed)` grid point share one RNG stream, so they probe the
/// *same* future applications; a scenario whose current application did
/// not fit counts all its probes as unmapped (as in the paper).
pub fn run_future(
    preset: &PaperPreset,
    mh_cfg: &MhConfig,
    futures_per_seed: u64,
) -> Vec<FutureRow> {
    let spec = future_campaign_spec(preset, mh_cfg, futures_per_seed);
    let run = run_campaign(&spec, default_workers()).expect("future campaign spec is valid");
    let current_step = spec.script.len() - 1 - futures_per_seed as usize;
    let mut rows = Vec::new();
    for &size in &preset.current_sizes {
        let mut mapped = [0usize; 2];
        let mut probes = 0usize;
        for &seed in &preset.seeds {
            probes += futures_per_seed as usize;
            for (si, name) in ["AH", "MH"].iter().enumerate() {
                let Some(outcome) = run.completed().find(|o| {
                    o.key.size == size && o.key.seed == seed && o.key.strategy.name() == *name
                }) else {
                    continue;
                };
                if current_commit(outcome, current_step).is_none() {
                    continue; // current app itself infeasible: counts as 0 mapped
                }
                mapped[si] += outcome.steps[current_step + 1..]
                    .iter()
                    .filter(|s| matches!(s.action, StepAction::Probe) && s.feasible)
                    .count();
            }
        }
        rows.push(FutureRow {
            size,
            ah_mapped_percent: 100.0 * mapped[0] as f64 / probes.max(1) as f64,
            mh_mapped_percent: 100.0 * mapped[1] as f64 / probes.max(1) as f64,
            probes,
        });
    }
    rows
}

/// Ablation: C1 bin-packing policy (best/first/worst fit) on identical
/// *loaded* slack profiles (base system plus the largest current
/// application committed with AH). Returns
/// `(policy name, average C1P, average C1m)`.
pub fn run_fit_ablation(preset: &PaperPreset) -> Vec<(&'static str, f64, f64)> {
    let policies = [
        ("best-fit", FitPolicy::BestFit),
        ("first-fit", FitPolicy::FirstFit),
        ("worst-fit", FitPolicy::WorstFit),
    ];
    let size = *preset.current_sizes.last().expect("presets have sizes");
    // Collect the loaded slack profiles once; policies only change the
    // packing, not the schedule.
    let mut profiles = Vec::new();
    for &seed in &preset.seeds {
        let mut base = build_base_system(preset, seed);
        let app = current_application(preset, size, seed);
        let future = base.future.clone();
        let weights = base.weights;
        if base
            .system
            .add_application(app, &future, &weights, &Strategy::AdHoc)
            .is_err()
        {
            continue;
        }
        profiles.push((base.system.arch().clone(), base.system.slack(), future));
    }
    let mut out = Vec::new();
    for (name, policy) in policies {
        let mut c1p = 0.0;
        let mut c1m = 0.0;
        for (arch, slack, future) in &profiles {
            c1p += incdes_metrics::c1_processes(slack, future, policy);
            c1m += incdes_metrics::c1_messages(arch, slack, future, policy);
        }
        let n = profiles.len().max(1) as f64;
        out.push((name, c1p / n, c1m / n));
    }
    out
}

/// Ablation: MH candidate filtering (highest-potential subset) versus an
/// exhaustive neighborhood. Returns rows of
/// `(size, filtered cost, filtered evals, exhaustive cost, exhaustive evals)`.
pub fn run_mh_ablation(preset: &PaperPreset, size: usize) -> Vec<(u64, f64, usize, f64, usize)> {
    let filtered = MhConfig::default();
    let exhaustive = MhConfig {
        process_candidates: usize::MAX,
        message_candidates: usize::MAX,
        ..MhConfig::default()
    };
    let mut rows = Vec::new();
    for &seed in &preset.seeds {
        let base = build_base_system(preset, seed);
        let arch = base.system.arch().clone();
        let app = current_application(preset, size, seed);
        let (frozen, horizon) = frozen_for(&base, &app);
        let id = AppId(base.system.app_count() as u32);
        let ctx = MappingContext::new(
            &arch,
            id,
            &app,
            Some(&frozen),
            horizon,
            &base.future,
            &base.weights,
        );
        let Ok(a) = run_strategy(&ctx, &Strategy::MappingHeuristic(filtered)) else {
            continue;
        };
        let Ok(b) = run_strategy(&ctx, &Strategy::MappingHeuristic(exhaustive)) else {
            continue;
        };
        rows.push((
            seed,
            a.evaluation.cost.total,
            a.stats.evaluations,
            b.evaluation.cost.total,
            b.stats.evaluations,
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_synth::paper::{dac2001, dac2001_small};

    /// The figure campaigns load back unchanged under the strict spec
    /// parser (every spec type denies unknown fields), and the committed
    /// fixtures are exactly the full-scale specs the `figures` binary
    /// runs.
    #[test]
    fn figure_campaign_specs_round_trip() {
        for preset in [dac2001(), dac2001_small()] {
            let mh = MhConfig::default();
            for spec in [
                quality_campaign_spec(&preset, &mh, &SaConfig::default()),
                future_campaign_spec(&preset, &mh, 4),
            ] {
                let json = serde_json::to_string(&spec).unwrap();
                let back: CampaignSpec = serde_json::from_str(&json).unwrap();
                assert_eq!(back, spec);
            }
        }
        let mh = MhConfig::default();
        let sa = SaConfig {
            max_evaluations: 4000,
            ..SaConfig::default()
        };
        for (fixture, spec) in [
            (
                include_str!("../../../ci/paper-quality.json"),
                quality_campaign_spec(&dac2001(), &mh, &sa),
            ),
            (
                include_str!("../../../ci/paper-future.json"),
                future_campaign_spec(&dac2001(), &mh, 4),
            ),
        ] {
            let parsed: CampaignSpec = serde_json::from_str(fixture).unwrap();
            assert_eq!(parsed, spec, "{}", spec.name);
        }
    }
}
