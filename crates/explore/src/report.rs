//! Serializable campaign reports.
//!
//! A [`CampaignReport`] is the stable, sorted JSON view of a campaign
//! run: scenarios in spec order, steps in script order, and **no
//! wall-clock timings** — every field is a pure function of the spec, so
//! the same spec yields byte-identical reports across runs and across
//! worker counts. Timings live on the in-memory
//! [`crate::runner::ScenarioOutcome`] instead.

use incdes_core::System;
use incdes_metrics::DesignCost;
use serde::{Deserialize, Serialize};

/// The deterministic, serializable result of one campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Campaign name from the spec.
    pub campaign: String,
    /// Per-scenario reports, sorted by scenario index.
    pub scenarios: Vec<ScenarioReport>,
    /// Campaign-wide tallies.
    pub totals: CampaignTotals,
}

/// Campaign-wide tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignTotals {
    /// Scenarios executed.
    pub scenarios: usize,
    /// Script steps executed across all scenarios.
    pub steps: usize,
    /// Steps that were feasible (commit succeeded / probe fit /
    /// decommission applied).
    pub feasible_steps: usize,
    /// Schedule evaluations spent across all strategy runs.
    pub evaluations: usize,
    /// Scheduling-invariant violations found (0 on a healthy campaign).
    pub invariant_violations: usize,
}

impl CampaignTotals {
    /// Tallies a set of scenario reports. This is the one definition of
    /// the totals — the runner, the cached runner and `merge` all use
    /// it, so a merged report's totals match the unsharded run's
    /// byte-for-byte.
    #[must_use]
    pub fn from_scenarios(scenarios: &[ScenarioReport]) -> CampaignTotals {
        CampaignTotals {
            scenarios: scenarios.len(),
            steps: scenarios.iter().map(|s| s.steps.len()).sum(),
            feasible_steps: scenarios
                .iter()
                .flat_map(|s| &s.steps)
                .filter(|s| s.feasible)
                .count(),
            evaluations: scenarios
                .iter()
                .flat_map(|s| &s.steps)
                .map(|s| s.evaluations)
                .sum(),
            invariant_violations: scenarios.iter().map(|s| s.invariant_violations.len()).sum(),
        }
    }
}

/// One scenario's serializable result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Position in the campaign's scenario order.
    pub index: usize,
    /// Value on the size axis (0 when the axis is unused).
    pub size: usize,
    /// Strategy display name (`AH`, `MH`, `SA`).
    pub strategy: String,
    /// The scenario's RNG seed.
    pub seed: u64,
    /// Label of the scenario's weight setting.
    pub weights: String,
    /// Step results in script order.
    pub steps: Vec<StepReport>,
    /// Snapshot of the final schedule.
    pub schedule: ScheduleReport,
    /// Invariant violations found after mutating steps (empty unless the
    /// spec enabled `check_invariants` and something is broken).
    pub invariant_violations: Vec<String>,
}

/// One script step's serializable result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepReport {
    /// Step index in the script.
    pub step: usize,
    /// `"add"`, `"probe"` or `"decommission"`.
    pub action: String,
    /// Whether the step succeeded (commit ok / probe fit / decommission
    /// applied).
    pub feasible: bool,
    /// Id assigned by a successful add.
    pub app_id: Option<u32>,
    /// Objective value of the chosen design alternative (add/probe).
    pub cost: Option<CostReport>,
    /// Schedule evaluations the strategy spent.
    pub evaluations: usize,
    /// Strategy iterations (MH improvement steps, SA accepted moves).
    pub iterations: usize,
    /// System horizon in ticks after the step.
    pub horizon: u64,
    /// Error message for failed steps (validation errors, unknown app,
    /// ...); plain infeasibility is `feasible: false` with no error.
    pub error: Option<String>,
}

/// Serializable view of a [`DesignCost`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// C1P: % of future process time that does not pack.
    pub c1_processes: f64,
    /// C1m: % of future bus time that does not pack.
    pub c1_messages: f64,
    /// C2P in ticks.
    pub c2_processes: u64,
    /// C2m in ticks.
    pub c2_messages: u64,
    /// Process-side periodic-slack penalty in ticks.
    pub penalty_processes: u64,
    /// Bus-side periodic-slack penalty in ticks.
    pub penalty_messages: u64,
    /// The weighted total `C`.
    pub total: f64,
}

impl From<DesignCost> for CostReport {
    fn from(c: DesignCost) -> Self {
        CostReport {
            c1_processes: c.c1_processes,
            c1_messages: c.c1_messages,
            c2_processes: c.c2_processes.ticks(),
            c2_messages: c.c2_messages.ticks(),
            penalty_processes: c.penalty_processes.ticks(),
            penalty_messages: c.penalty_messages.ticks(),
            total: c.total,
        }
    }
}

/// Deterministic snapshot of a scenario's final schedule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Hyperperiod in ticks.
    pub horizon: u64,
    /// Scheduled jobs in the table.
    pub jobs: usize,
    /// Scheduled bus messages in the table.
    pub messages: usize,
    /// Applications ever committed (including retired ones).
    pub committed_apps: usize,
    /// Applications still running.
    pub active_apps: usize,
    /// Busy time per PE in ticks, in PE order.
    pub pe_busy: Vec<u64>,
    /// Total bus transmission time in ticks.
    pub bus_used: u64,
}

impl ScheduleReport {
    /// Captures the current schedule of a session.
    pub fn capture(system: &System) -> Self {
        let table = system.table();
        ScheduleReport {
            horizon: table.horizon().ticks(),
            jobs: table.jobs().len(),
            messages: table.messages().len(),
            committed_apps: system.app_count(),
            active_apps: system.active().count(),
            pe_busy: system
                .arch()
                .pe_ids()
                .map(|pe| table.busy_time_on(pe).ticks())
                .collect(),
            bus_used: table
                .messages()
                .iter()
                .map(|m| m.reservation.duration().ticks())
                .sum(),
        }
    }
}

impl CampaignReport {
    /// Serializes to indented JSON (the campaign artifact format).
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` failures (unreachable for this data
    /// model: every float in a report is finite).
    pub fn to_json_pretty(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes from JSON.
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` parse error.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}
