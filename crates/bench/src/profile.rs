//! The `figures campaign --profile-out` file: the counters, phase
//! timings and step wall-clock of every scenario a run completed. It is
//! written beside the report, never inside it, and `figures tables
//! --profile` reads the step wall-clock back for figure 2.

use incdes_explore::{CampaignReport, CampaignRun};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Renders the profile file of `run`:
/// `{"campaign":…,"scenarios":[{"index":…,"counters":{…},"phases":{…},
/// "steps_ns":[…]},…]}`, one entry per completed scenario.
#[must_use]
pub fn to_json(run: &CampaignRun) -> String {
    let name = serde_json::to_string(&run.name).expect("strings always serialize");
    let mut json = format!("{{\"campaign\":{name},\"scenarios\":[");
    for (k, done) in run.completed().enumerate() {
        if k > 0 {
            json.push(',');
        }
        let steps: Vec<String> = done
            .steps
            .iter()
            .map(|s| s.elapsed.as_nanos().to_string())
            .collect();
        let _ = write!(
            json,
            "{{\"index\":{},\"counters\":{},\"phases\":{},\"steps_ns\":[{}]}}",
            done.key.index,
            done.counters.to_json(),
            done.phases.to_json(),
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

/// The step wall-clock of the scenarios of one campaign run, read from
/// its profile file.
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
    /// another campaign, when it names a scenario the report lacks or
    /// lacks one the report has, or when it times a different number of
    /// steps than the report has.
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
        if let Some(missing) = report
            .scenarios
            .iter()
            .find(|s| !steps_ns.contains_key(&s.index))
        {
            return Err(format!(
                "the profile lacks scenario #{}, which the report has",
                missing.index
            ));
        }
        Ok(StepTimes { steps_ns })
    }

    /// The wall-clock time of script step `step` of scenario `index`;
    /// `None` for a scenario or step the report does not have.
    #[must_use]
    pub fn step(&self, index: usize, step: usize) -> Option<Duration> {
        let ns = *self.steps_ns.get(&index)?.get(step)?;
        Some(Duration::from_nanos(ns))
    }
}
