//! The `figures campaign --profile-out` file: the counters, phase
//! timings and step wall-clock of every scenario a run executed. It is
//! written beside the report, never inside it, and `figures tables
//! --profile` reads the step wall-clock back for figure 2.

use incdes_explore::{CampaignReport, ScenarioProfile};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Renders the profile file of a run of `campaign`:
/// `{"campaign":…,"scenarios":[{"index":…,"counters":{…},"phases":{…},
/// "steps_ns":[…]},…]}`, one entry per executed scenario.
#[must_use]
pub fn to_json(campaign: &str, profiles: &[ScenarioProfile]) -> String {
    let name = serde_json::to_string(campaign).expect("strings always serialize");
    let mut json = format!("{{\"campaign\":{name},\"scenarios\":[");
    for (k, p) in profiles.iter().enumerate() {
        if k > 0 {
            json.push(',');
        }
        let steps: Vec<String> = p.steps.iter().map(|d| d.as_nanos().to_string()).collect();
        let _ = write!(
            json,
            "{{\"index\":{},\"counters\":{},\"phases\":{},\"steps_ns\":[{}]}}",
            p.index,
            p.counters.to_json(),
            p.phases.to_json(),
            steps.join(","),
        );
    }
    json.push_str("]}\n");
    json
}

/// The part of a profile file that [`StepTimes`] reads.
#[derive(Deserialize)]
struct ProfileFile {
    campaign: String,
    scenarios: Vec<ProfiledScenario>,
}

#[derive(Deserialize)]
struct ProfiledScenario {
    index: usize,
    steps_ns: Vec<u64>,
}

/// The step wall-clock of the scenarios one campaign run executed, read
/// from its profile file.
#[derive(Debug, Clone, PartialEq)]
pub struct StepTimes {
    steps_ns: BTreeMap<usize, Vec<u64>>,
}

impl StepTimes {
    /// Reads the profile file of a run of `report`'s campaign.
    ///
    /// # Errors
    ///
    /// A message when `text` is not a profile file, when it names
    /// another campaign, or when it names a scenario the report lacks or
    /// times a different number of steps than the report has.
    pub fn parse(text: &str, report: &CampaignReport) -> Result<StepTimes, String> {
        let file: ProfileFile =
            serde_json::from_str(text).map_err(|e| format!("not a campaign profile: {e}"))?;
        if file.campaign != report.campaign {
            return Err(format!(
                "the profile is of campaign `{}`, the report of `{}`",
                file.campaign, report.campaign
            ));
        }
        let mut steps_ns = BTreeMap::new();
        for scenario in file.scenarios {
            let steps = report
                .scenarios
                .binary_search_by_key(&scenario.index, |s| s.index)
                .map(|at| report.scenarios[at].steps.len())
                .map_err(|_| {
                    format!(
                        "the profile names scenario #{}, which the report lacks",
                        scenario.index
                    )
                })?;
            if scenario.steps_ns.len() != steps {
                return Err(format!(
                    "the profile times {} steps of scenario #{}, the report has {steps}",
                    scenario.steps_ns.len(),
                    scenario.index
                ));
            }
            steps_ns.insert(scenario.index, scenario.steps_ns);
        }
        Ok(StepTimes { steps_ns })
    }

    /// The wall-clock time of script step `step` of scenario `index`;
    /// `None` when the run did not execute that scenario (a cache hit).
    #[must_use]
    pub fn step(&self, index: usize, step: usize) -> Option<Duration> {
        let ns = *self.steps_ns.get(&index)?.get(step)?;
        Some(Duration::from_nanos(ns))
    }
}
