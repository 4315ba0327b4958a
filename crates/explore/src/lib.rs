//! Deterministic scenario campaigns for the incremental design system.
//!
//! The paper's evaluation — synthetic task graphs at several sizes,
//! mapped incrementally under different strategies, compared across
//! seeds — is one instance of a general shape: a *grid* of scenarios,
//! each walking a lifecycle script (`add` / `probe` / `decommission`)
//! against its own session. This crate makes that shape a first-class,
//! serde-typed object:
//!
//! * [`CampaignSpec`] — the grid (sizes × strategies × seeds × weight
//!   settings) plus the script, serializable to/from JSON;
//! * [`run_campaign`] — a multi-threaded runner that fans scenarios out
//!   over `std::thread` workers, each with a private per-scenario
//!   `ChaCha8` RNG;
//! * [`CampaignReport`] — the stable, sorted, timing-free JSON report.
//!
//! # Determinism guarantee
//!
//! The same spec yields **byte-identical** JSON reports across runs and
//! across worker counts: scenario results depend only on the spec (every
//! RNG is seeded from the scenario's grid point, workers share nothing
//! but the work queue), and the report orders scenarios by their spec
//! index and carries no wall-clock fields. `tests/scenario_campaign.rs`
//! in the workspace root enforces this property on every CI run.
//!
//! # Example
//!
//! ```
//! use incdes_explore::{run_campaign, BaseSpec, CampaignSpec, Count, ScriptStep};
//! use incdes_mapping::Strategy;
//! use incdes_synth::SynthConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CampaignSpec {
//!     name: "doc-example".into(),
//!     base: BaseSpec::Config(SynthConfig::default()),
//!     future_processes: 20,
//!     demand_factor: 1.0,
//!     sizes: vec![10],
//!     strategies: vec![Strategy::AdHoc],
//!     seeds: vec![42],
//!     weight_settings: vec![],
//!     script: vec![ScriptStep::Add {
//!         processes: Count::Size,
//!         strategy: None,
//!         future: false,
//!     }],
//!     check_invariants: true,
//! };
//! let run = run_campaign(&spec, 2)?;
//! let report = run.report();
//! assert_eq!(report.scenarios.len(), 1);
//! assert!(report.scenarios[0].steps[0].feasible);
//! assert!(report.totals.invariant_violations == 0);
//! // Byte-identical on every rerun, at any worker count:
//! assert_eq!(
//!     report.to_json_pretty()?,
//!     run_campaign(&spec, 1)?.report().to_json_pretty()?,
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod spec;

pub use report::{
    CampaignReport, CampaignTotals, CostReport, ScenarioReport, ScheduleReport, StepReport,
};
pub use runner::{
    run_campaign, CampaignRun, CompletedScenario, ScenarioFailure, ScenarioOutcome, StepAction,
    StepOutcome,
};
pub use spec::{BaseSpec, CampaignSpec, Count, ScenarioKey, ScriptStep, SpecError, WeightSetting};
