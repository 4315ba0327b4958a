//! The paper's experiments as campaign specs, and the tables they
//! render to.
//!
//! Every figure of the paper's evaluation (slides 15–17) comes from one
//! path: a [`CampaignSpec`] run by `figures campaign`, whose
//! byte-stable report `figures tables` renders ([`tables`]):
//!
//! * figure 1 (cost deviation from SA) and figure 2 (strategy runtime)
//!   run on [`quality_campaign_spec`] (`ci/paper-quality.json`);
//!   figure 2's wall-clock comes from the campaign's `--profile-out`
//!   file ([`profile`]);
//! * figure 3 (future mappability) runs on [`future_campaign_spec`]
//!   (`ci/paper-future.json`);
//! * Table 1 is the frozen base of each seed of figure 1's report;
//! * the two ablations, bin-packing policy and MH candidate filtering,
//!   are figure 1's spec with one axis changed (`ci/ablate-fit.json`,
//!   `ci/ablate-mh.json`).
//!
//! The specs are deterministic given the preset's seeds, so every table
//! is a pure function of the spec (and, for figure 2's wall-clock, of
//! the profile of the run).

#![forbid(unsafe_code)]

pub mod profile;
pub mod tables;

use incdes_explore::{BaseSpec, CampaignSpec, Count, ScriptStep};
use incdes_mapping::{MhConfig, SaConfig, Strategy};
use incdes_synth::paper::PaperPreset;

/// How demanding the future-application family is relative to the
/// generator's natural scale. Values above 1 make the objective strictly
/// positive on loaded systems so percentage deviations are well defined.
pub const DEMAND_FACTOR: f64 = 4.0;

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

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_explore::WeightSetting;
    use incdes_metrics::{FitPolicy, Weights};
    use incdes_synth::paper::{dac2001, dac2001_small};

    /// The figure campaigns load back unchanged under the strict spec
    /// parser (every spec type denies unknown fields), the committed
    /// figure fixtures are exactly the full-scale specs these functions
    /// build, and each ablation fixture is the figure-1 fixture with one
    /// axis changed.
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

        // Each ablation is figure 1's spec with one axis changed, so it
        // maps figure 1's instances.
        let quality: CampaignSpec =
            serde_json::from_str(include_str!("../../../ci/paper-quality.json")).unwrap();
        let mut fit = quality.clone();
        fit.name = "ablate-fit".to_string();
        fit.sizes = vec![320];
        fit.strategies = vec![Strategy::AdHoc];
        fit.weight_settings = [
            ("best-fit", FitPolicy::BestFit),
            ("first-fit", FitPolicy::FirstFit),
            ("worst-fit", FitPolicy::WorstFit),
        ]
        .map(|(label, fit_policy)| WeightSetting {
            label: label.to_string(),
            weights: Weights {
                fit_policy,
                ..Weights::default()
            },
        })
        .to_vec();
        let mut exhaustive = quality;
        exhaustive.name = "ablate-mh".to_string();
        exhaustive.sizes = vec![160];
        exhaustive.strategies = vec![Strategy::MappingHeuristic(MhConfig {
            process_candidates: usize::MAX,
            message_candidates: usize::MAX,
            ..mh
        })];
        for (fixture, spec) in [
            (include_str!("../../../ci/ablate-fit.json"), fit),
            (include_str!("../../../ci/ablate-mh.json"), exhaustive),
        ] {
            let parsed: CampaignSpec = serde_json::from_str(fixture).unwrap();
            parsed.validate().unwrap();
            assert_eq!(parsed, spec, "{}", spec.name);
        }
    }
}
