//! Campaign specifications: the serde-typed description of a scenario
//! sweep.
//!
//! A [`CampaignSpec`] is a grid: a base generator configuration
//! ([`BaseSpec`]) crossed with application **sizes**, mapping
//! **strategies**, RNG **seeds** and objective **weight settings**, all
//! driven through one incremental lifecycle **script** of
//! [`ScriptStep`]s. Every grid point is one *scenario*; the runner in
//! [`crate::runner`] executes scenarios independently (and in parallel)
//! with a per-scenario `ChaCha8` RNG, so a spec plus its seeds fully
//! determines every byte of the campaign report.

use incdes_mapping::Strategy;
use incdes_metrics::Weights;
use incdes_model::Time;
use incdes_synth::paper::{dac2001, dac2001_small};
use incdes_synth::{SynthConfig, SynthError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where the campaign's generator configuration comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum BaseSpec {
    /// An inline generator configuration.
    Config(SynthConfig),
    /// A named paper preset: `"dac2001"` or `"dac2001-small"` (the
    /// preset's `cfg` is used; its sweep axes are *not* inherited — the
    /// campaign's own axes apply).
    Preset(String),
}

/// How many processes a generated application has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Count {
    /// A fixed process count.
    Fixed(usize),
    /// The scenario's value on the campaign's size axis.
    Size,
}

/// One step of the incremental lifecycle script.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub enum ScriptStep {
    /// Generate an application and commit it with
    /// [`incdes_core::System::add_application`].
    Add {
        /// Process count of the generated application.
        processes: Count,
        /// Strategy override; `None` uses the scenario's strategy.
        #[serde(default)]
        strategy: Option<Strategy>,
        /// Draw the application from the *future* variant of the base
        /// configuration (WCETs spanning
        /// [`incdes_synth::future_wcet_range`]).
        #[serde(default)]
        future: bool,
    },
    /// Generate an application and probe it with
    /// [`incdes_core::System::probe_application`] (no commit).
    Probe {
        /// Process count of the generated application.
        processes: Count,
        /// Strategy override; `None` uses the scenario's strategy.
        #[serde(default)]
        strategy: Option<Strategy>,
        /// Draw from the future configuration variant (see
        /// [`ScriptStep::Add::future`]).
        #[serde(default)]
        future: bool,
    },
    /// Decommission the application committed by the `app`-th commit
    /// (its [`incdes_model::AppId`]).
    Decommission {
        /// Index of the application to retire.
        app: u32,
    },
    /// Deterministic chaos step: panic inside the scenario on purpose.
    ///
    /// The fault-tolerance harness's poison pill — the runner isolates
    /// and retries panicking scenarios, and this step makes those paths
    /// reproducibly testable from a plain spec. Once the scenario's
    /// attempt number exceeds `fail_attempts` the step is a feasible
    /// no-op, so `fail_attempts: 0` never fires and a huge bound
    /// quarantines the scenario.
    InjectPanic {
        /// Panic while the attempt number (1-based) is ≤ this bound.
        #[serde(default)]
        fail_attempts: usize,
        /// Only panic in scenarios with this seed; `None` targets every
        /// scenario.
        #[serde(default)]
        only_seed: Option<u64>,
    },
}

/// A labelled objective-weight setting (one point on the weights axis).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WeightSetting {
    /// Short label used in reports.
    pub label: String,
    /// The objective weights.
    pub weights: Weights,
}

impl Default for WeightSetting {
    fn default() -> Self {
        WeightSetting {
            label: "default".to_string(),
            weights: Weights::default(),
        }
    }
}

/// A deterministic scenario campaign: the full grid plus the lifecycle
/// script every scenario executes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CampaignSpec {
    /// Campaign name (recorded in the report).
    pub name: String,
    /// Generator configuration source.
    pub base: BaseSpec,
    /// Process count of the future-application family the objective
    /// optimizes for.
    pub future_processes: usize,
    /// Scale factor on the future profile's `t_need`/`b_need`.
    pub demand_factor: f64,
    /// Size axis, consumed by [`Count::Size`] steps. Empty is allowed
    /// when no step uses [`Count::Size`] (a single degenerate size 0).
    #[serde(default)]
    pub sizes: Vec<usize>,
    /// Strategy axis.
    pub strategies: Vec<Strategy>,
    /// Seed axis (one deterministic system instance per seed).
    pub seeds: Vec<u64>,
    /// Objective-weight axis; empty means the default weights only.
    #[serde(default)]
    pub weight_settings: Vec<WeightSetting>,
    /// The lifecycle script every scenario executes.
    pub script: Vec<ScriptStep>,
    /// Re-validate every scheduling invariant after each mutating step
    /// (exhaustive, so meant for test-sized campaigns).
    #[serde(default)]
    pub check_invariants: bool,
}

/// One grid point of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioKey {
    /// Position in the campaign's deterministic scenario order.
    pub index: usize,
    /// Value on the size axis (0 when the axis is empty).
    pub size: usize,
    /// The scenario's mapping strategy.
    pub strategy: Strategy,
    /// The scenario's RNG seed.
    pub seed: u64,
    /// The scenario's objective weights.
    pub weights: WeightSetting,
}

/// A structurally invalid campaign specification.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A grid axis or the script is empty.
    EmptyAxis(&'static str),
    /// A step uses [`Count::Size`] but the size axis is empty.
    SizeAxisMissing,
    /// `demand_factor` is not a positive finite number, or
    /// `future_processes` is zero.
    BadFutureProfile,
    /// [`BaseSpec::Preset`] names an unknown preset.
    UnknownPreset(String),
    /// The resolved generator configuration is degenerate.
    Synth(SynthError),
    /// `sizes[index]` is zero: an application needs at least one
    /// process.
    ZeroSize {
        /// Index of the offending entry of the size axis.
        index: usize,
    },
    /// `script[step]` adds or probes `Count::Fixed(0)` processes.
    ZeroProcesses {
        /// Index of the offending step in the script.
        step: usize,
    },
    /// `{axis}[index]` has the name of `{axis}[first]`: two strategies
    /// with one display name (say, two MH configurations), or two weight
    /// settings with one label. A report names a scenario by its size,
    /// strategy name, seed and weights label, so it could not tell them
    /// apart.
    DuplicateName {
        /// `"strategies"` or `"weight_settings"`.
        axis: &'static str,
        /// Index of the later entry.
        index: usize,
        /// Index of the earlier entry with the same name.
        first: usize,
        /// The shared name.
        name: String,
    },
    /// `script[step]` decommissions `app`, but only `adds` earlier
    /// `Add` steps can have committed an application: app ids are
    /// handed out by successful commits alone, so the step can never
    /// succeed.
    UnknownDecommission {
        /// Index of the offending step in the script.
        step: usize,
        /// The app id it names.
        app: u32,
        /// `Add` steps before it.
        adds: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::EmptyAxis(axis) => write!(f, "campaign axis `{axis}` is empty"),
            SpecError::SizeAxisMissing => {
                write!(f, "a script step uses Count::Size but `sizes` is empty")
            }
            SpecError::BadFutureProfile => {
                write!(
                    f,
                    "future_processes must be > 0 and demand_factor positive and finite"
                )
            }
            SpecError::UnknownPreset(name) => write!(
                f,
                "unknown preset `{name}` (expected \"dac2001\" or \"dac2001-small\")"
            ),
            SpecError::Synth(e) => write!(f, "invalid generator configuration: {e}"),
            SpecError::ZeroSize { index } => write!(
                f,
                "sizes[{index}] is 0, but an application needs at least one process"
            ),
            SpecError::ZeroProcesses { step } => write!(
                f,
                "script[{step}]: process count is 0, but an application needs at least one process"
            ),
            SpecError::DuplicateName {
                axis,
                index,
                first,
                name,
            } => write!(
                f,
                "{axis}[{index}]: name `{name}` is already used by {axis}[{first}]"
            ),
            SpecError::UnknownDecommission { step, app, adds } => {
                let (noun, verb) = if *adds == 1 {
                    ("step", "precedes")
                } else {
                    ("steps", "precede")
                };
                write!(
                    f,
                    "script[{step}]: Decommission names app {app}, but only {adds} Add {noun} {verb} it"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<SynthError> for SpecError {
    fn from(e: SynthError) -> Self {
        SpecError::Synth(e)
    }
}

/// The first name an earlier one repeats, as `(index, earlier index)`.
fn first_repeat(names: &[&str]) -> Option<(usize, usize)> {
    names.iter().enumerate().find_map(|(index, name)| {
        let first = names[..index].iter().position(|earlier| earlier == name)?;
        Some((index, first))
    })
}

impl CampaignSpec {
    /// Checks the spec's structure (axes, script, future profile,
    /// process counts, decommission targets, and that no two strategies
    /// share a display name and no two weight settings a label).
    ///
    /// # Errors
    ///
    /// The first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.strategies.is_empty() {
            return Err(SpecError::EmptyAxis("strategies"));
        }
        if self.seeds.is_empty() {
            return Err(SpecError::EmptyAxis("seeds"));
        }
        if self.script.is_empty() {
            return Err(SpecError::EmptyAxis("script"));
        }
        if self.future_processes == 0
            || !self.demand_factor.is_finite()
            || self.demand_factor <= 0.0
        {
            return Err(SpecError::BadFutureProfile);
        }
        let uses_size = self.script.iter().any(|s| {
            matches!(
                s,
                ScriptStep::Add {
                    processes: Count::Size,
                    ..
                } | ScriptStep::Probe {
                    processes: Count::Size,
                    ..
                }
            )
        });
        if uses_size && self.sizes.is_empty() {
            return Err(SpecError::SizeAxisMissing);
        }
        if let Some(index) = self.sizes.iter().position(|&size| size == 0) {
            return Err(SpecError::ZeroSize { index });
        }
        let strategies: Vec<&str> = self.strategies.iter().map(Strategy::name).collect();
        let labels: Vec<&str> = self.weight_settings.iter().map(|w| &*w.label).collect();
        for (axis, names) in [("strategies", strategies), ("weight_settings", labels)] {
            if let Some((index, first)) = first_repeat(&names) {
                let name = names[index].to_string();
                return Err(SpecError::DuplicateName {
                    axis,
                    index,
                    first,
                    name,
                });
            }
        }
        let mut adds = 0usize;
        for (step, s) in self.script.iter().enumerate() {
            match *s {
                ScriptStep::Add {
                    processes: Count::Fixed(0),
                    ..
                }
                | ScriptStep::Probe {
                    processes: Count::Fixed(0),
                    ..
                } => return Err(SpecError::ZeroProcesses { step }),
                ScriptStep::Add { .. } => adds += 1,
                ScriptStep::Decommission { app } if app as usize >= adds => {
                    return Err(SpecError::UnknownDecommission { step, app, adds });
                }
                _ => {}
            }
        }
        self.resolve_config()?;
        Ok(())
    }

    /// Resolves the base into a concrete generator configuration.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownPreset`] for unknown preset names.
    pub fn resolve_config(&self) -> Result<SynthConfig, SpecError> {
        match &self.base {
            BaseSpec::Config(cfg) => Ok(cfg.clone()),
            BaseSpec::Preset(name) => match name.as_str() {
                "dac2001" => Ok(dac2001().cfg),
                "dac2001-small" => Ok(dac2001_small().cfg),
                other => Err(SpecError::UnknownPreset(other.to_string())),
            },
        }
    }

    /// The campaign's scenarios in their deterministic order: sizes ×
    /// strategies × seeds × weight settings, slowest axis first.
    pub fn scenarios(&self) -> Vec<ScenarioKey> {
        let sizes: &[usize] = if self.sizes.is_empty() {
            &[0]
        } else {
            &self.sizes
        };
        let default_weights = [WeightSetting::default()];
        let weights: &[WeightSetting] = if self.weight_settings.is_empty() {
            &default_weights
        } else {
            &self.weight_settings
        };
        let mut keys = Vec::new();
        for &size in sizes {
            for strategy in &self.strategies {
                for &seed in &self.seeds {
                    for setting in weights {
                        keys.push(ScenarioKey {
                            index: keys.len(),
                            size,
                            strategy: *strategy,
                            seed,
                            weights: setting.clone(),
                        });
                    }
                }
            }
        }
        keys
    }

    /// A small, fast demo campaign: tiny synthetic systems, MH and SA,
    /// a probe and a decommission step. This is the spec behind the
    /// `scenario_campaign` regression suite and the `figures campaign`
    /// subcommand; it finishes in seconds at every worker count.
    pub fn small_demo() -> CampaignSpec {
        use incdes_mapping::{MhConfig, SaConfig};
        CampaignSpec {
            name: "small-demo".to_string(),
            base: BaseSpec::Config(SynthConfig {
                pe_count: 3,
                slot_length: Time::new(8),
                rounds: 1,
                bytes_per_tick: 8,
                periods: vec![Time::new(96), Time::new(192)],
                graph_size: (3, 6),
                depth: (2, 3),
                wcet: (2, 6),
                pe_allow_prob: 0.7,
                wcet_spread: 0.2,
                msg_bytes: (2, 8),
                edge_extra_prob: 0.1,
            }),
            future_processes: 10,
            demand_factor: 2.0,
            sizes: vec![6, 10],
            strategies: vec![
                Strategy::MappingHeuristic(MhConfig {
                    max_iterations: 12,
                    ..MhConfig::default()
                }),
                Strategy::SimulatedAnnealing(SaConfig::quick()),
            ],
            seeds: vec![1, 2],
            weight_settings: Vec::new(),
            script: vec![
                ScriptStep::Add {
                    processes: Count::Fixed(8),
                    strategy: Some(Strategy::AdHoc),
                    future: false,
                },
                ScriptStep::Add {
                    processes: Count::Fixed(8),
                    strategy: Some(Strategy::AdHoc),
                    future: false,
                },
                ScriptStep::Add {
                    processes: Count::Size,
                    strategy: None,
                    future: false,
                },
                ScriptStep::Probe {
                    processes: Count::Fixed(6),
                    strategy: None,
                    future: true,
                },
                ScriptStep::Decommission { app: 0 },
                ScriptStep::Add {
                    processes: Count::Fixed(6),
                    strategy: Some(Strategy::AdHoc),
                    future: false,
                },
            ],
            check_invariants: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_demo_is_valid() {
        let spec = CampaignSpec::small_demo();
        spec.validate().unwrap();
        // 2 sizes × 2 strategies × 2 seeds × 1 (default weights).
        assert_eq!(spec.scenarios().len(), 8);
        let keys = spec.scenarios();
        assert_eq!(keys[0].index, 0);
        assert_eq!(keys[7].index, 7);
        assert_eq!(keys[0].weights.label, "default");
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = CampaignSpec::small_demo();
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    /// Misspelled fields are errors that name the field and its type,
    /// at the top level and inside the nested spec types alike.
    #[test]
    fn misspelled_spec_fields_are_rejected() {
        let mut spec = CampaignSpec::small_demo();
        spec.weight_settings = vec![WeightSetting::default()];
        let json = serde_json::to_string(&spec).unwrap();
        for (field, typo, ty) in [
            ("check_invariants", "check_invariant", "CampaignSpec"),
            ("weight_settings", "weight_setting", "CampaignSpec"),
            ("label", "lable", "WeightSetting"),
            ("w1_processes", "w1_process", "Weights"),
            ("pe_count", "pe_cnt", "SynthConfig"),
            ("future", "futre", "ScriptStep::Add"),
            ("max_iterations", "max_iteratons", "MhConfig"),
            ("max_evaluations", "max_evaluatons", "SaConfig"),
        ] {
            let bad = json.replacen(&format!("\"{field}\""), &format!("\"{typo}\""), 1);
            assert_ne!(bad, json, "{field} is in the spec");
            let err = serde_json::from_str::<CampaignSpec>(&bad)
                .unwrap_err()
                .to_string();
            assert!(err.contains(typo) && err.contains(ty), "{typo}: {err}");
        }
        // A field the type no longer has is as unknown as a typo.
        let stale = json.replacen(
            "\"check_invariants\"",
            "\"parallelism\":\"Sequential\",\"check_invariants\"",
            1,
        );
        assert_ne!(stale, json);
        let err = serde_json::from_str::<CampaignSpec>(&stale)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("parallelism") && err.contains("CampaignSpec"),
            "{err}"
        );
        // An extra field beside every valid one, as a misspelled copy
        // of a strategy knob appears in a hand-edited spec.
        let extra = json.replacen(
            "\"max_evaluations\"",
            "\"max_evaluatons\":40000,\"max_evaluations\"",
            1,
        );
        assert_ne!(extra, json);
        let err = serde_json::from_str::<CampaignSpec>(&extra)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("max_evaluatons") && err.contains("SaConfig"),
            "{err}"
        );
    }

    #[test]
    fn preset_resolution() {
        let mut spec = CampaignSpec::small_demo();
        spec.base = BaseSpec::Preset("dac2001-small".to_string());
        assert_eq!(spec.resolve_config().unwrap().pe_count, 4);
        spec.base = BaseSpec::Preset("dac2001".to_string());
        assert_eq!(spec.resolve_config().unwrap().pe_count, 10);
        spec.base = BaseSpec::Preset("nope".to_string());
        assert!(matches!(
            spec.resolve_config(),
            Err(SpecError::UnknownPreset(_))
        ));
    }

    #[test]
    fn degenerate_specs_rejected() {
        let mut spec = CampaignSpec::small_demo();
        spec.strategies.clear();
        assert_eq!(spec.validate(), Err(SpecError::EmptyAxis("strategies")));

        let mut spec = CampaignSpec::small_demo();
        spec.seeds.clear();
        assert_eq!(spec.validate(), Err(SpecError::EmptyAxis("seeds")));

        let mut spec = CampaignSpec::small_demo();
        spec.script.clear();
        assert_eq!(spec.validate(), Err(SpecError::EmptyAxis("script")));

        let mut spec = CampaignSpec::small_demo();
        spec.sizes.clear();
        assert_eq!(spec.validate(), Err(SpecError::SizeAxisMissing));

        let mut spec = CampaignSpec::small_demo();
        spec.demand_factor = 0.0;
        assert_eq!(spec.validate(), Err(SpecError::BadFutureProfile));
    }

    /// App ids come only from successful commits, so a decommission of
    /// an id no earlier `Add` step can have produced is a spec error.
    #[test]
    fn decommission_of_an_unreachable_app_is_rejected() {
        let mut spec = CampaignSpec::small_demo();
        spec.script = vec![
            ScriptStep::Add {
                processes: Count::Size,
                strategy: None,
                future: false,
            },
            ScriptStep::Decommission { app: 9 },
        ];
        let err = spec.validate().unwrap_err();
        assert_eq!(
            err,
            SpecError::UnknownDecommission {
                step: 1,
                app: 9,
                adds: 1
            }
        );
        assert_eq!(
            err.to_string(),
            "script[1]: Decommission names app 9, but only 1 Add step precedes it"
        );

        // The last id the preceding adds can reach is accepted.
        spec.script[1] = ScriptStep::Decommission { app: 0 };
        spec.validate().unwrap();

        // A decommission before any add names nothing.
        spec.script.swap(0, 1);
        assert_eq!(
            spec.validate().unwrap_err().to_string(),
            "script[0]: Decommission names app 0, but only 0 Add steps precede it"
        );
    }

    /// A report names a scenario by (size, strategy name, seed, weights
    /// label), so two strategies with one display name, or two weight
    /// settings with one label, are spec errors that name both entries.
    #[test]
    fn duplicate_strategy_names_and_weight_labels_are_rejected() {
        use incdes_mapping::MhConfig;
        let mut spec = CampaignSpec::small_demo();
        spec.strategies
            .push(Strategy::MappingHeuristic(MhConfig::default()));
        let err = spec.validate().unwrap_err();
        assert_eq!(
            err,
            SpecError::DuplicateName {
                axis: "strategies",
                index: 2,
                first: 0,
                name: "MH".to_string()
            }
        );
        assert_eq!(
            err.to_string(),
            "strategies[2]: name `MH` is already used by strategies[0]"
        );

        let mut spec = CampaignSpec::small_demo();
        let packing = WeightSetting {
            label: "packing".to_string(),
            weights: Weights {
                w2_processes: 0.0,
                ..Weights::default()
            },
        };
        spec.weight_settings = vec![
            packing.clone(),
            WeightSetting::default(),
            WeightSetting {
                weights: Weights::default(),
                ..packing
            },
        ];
        let err = spec.validate().unwrap_err();
        assert_eq!(
            err,
            SpecError::DuplicateName {
                axis: "weight_settings",
                index: 2,
                first: 0,
                name: "packing".to_string()
            }
        );
        assert_eq!(
            err.to_string(),
            "weight_settings[2]: name `packing` is already used by weight_settings[0]"
        );

        // Distinct labels over equal weights are a valid axis.
        spec.weight_settings[2].label = "unit".to_string();
        spec.validate().unwrap();
    }

    /// A zero process count, on the size axis or fixed in a step, is a
    /// spec error that names its place, not an infeasible step.
    #[test]
    fn zero_process_counts_are_rejected() {
        let mut spec = CampaignSpec::small_demo();
        spec.sizes = vec![6, 0];
        let err = spec.validate().unwrap_err();
        assert_eq!(err, SpecError::ZeroSize { index: 1 });
        assert_eq!(
            err.to_string(),
            "sizes[1] is 0, but an application needs at least one process"
        );

        spec.sizes = vec![6];
        spec.script = vec![
            ScriptStep::Add {
                processes: Count::Size,
                strategy: None,
                future: false,
            },
            ScriptStep::Add {
                processes: Count::Fixed(0),
                strategy: None,
                future: false,
            },
        ];
        let err = spec.validate().unwrap_err();
        assert_eq!(err, SpecError::ZeroProcesses { step: 1 });
        assert_eq!(
            err.to_string(),
            "script[1]: process count is 0, but an application needs at least one process"
        );

        spec.script[1] = ScriptStep::Probe {
            processes: Count::Fixed(0),
            strategy: None,
            future: true,
        };
        assert_eq!(
            spec.validate().unwrap_err(),
            SpecError::ZeroProcesses { step: 1 }
        );

        spec.script.truncate(1);
        spec.validate().unwrap();
    }

    #[test]
    fn empty_optional_axes_get_defaults() {
        let mut spec = CampaignSpec::small_demo();
        spec.sizes.clear();
        spec.script.retain(|s| {
            !matches!(
                s,
                ScriptStep::Add {
                    processes: Count::Size,
                    ..
                }
            )
        });
        spec.validate().unwrap();
        let keys = spec.scenarios();
        assert_eq!(keys.len(), 4, "size axis collapses to one point");
        assert!(keys.iter().all(|k| k.size == 0));
    }
}
