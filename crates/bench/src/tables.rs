//! Paper-table rendering of campaign reports.
//!
//! `figures tables REPORT.json [--profile FILE]` turns a
//! [`CampaignReport`] into the paper's result tables. Every number is
//! read from a scenario's **modification step**, the script's last
//! `Add`, which commits the current application onto the frozen base
//! the earlier steps built. A modification step counts only when it and
//! every earlier `Add` committed, so a failed modification has no cost
//! instead of its base's. A probe counts as mapped only when it fits and
//! every `Add` before it committed.
//!
//! Rows are cells of the campaign grid, keyed by size, strategy and
//! weights label. The tables are:
//!
//! * the mean modification cost per cell, and its deviation from SA's
//!   mean cost at the same size and label (figure 1);
//! * the mean cost terms of the modification step (C1P, C1m, C2P, C2m
//!   and the two slack penalties), which the fit ablation reads;
//! * the modification step's schedule evaluations and iterations, a
//!   deterministic runtime proxy, and, given the run's `--profile-out`
//!   file, its mean wall-clock (figure 2);
//! * the probe hit rate (figure 3), when the script probes;
//! * Table 1: per seed, the metrics of the frozen base (the `Add` just
//!   before the modification step) in the seed's first scenario.
//!
//! A weights column appears only when a report has more than one label.
//! Output is aligned text plus CSV. The CSV, and the text without a
//! profile, are pure functions of the report, so sharded CI runs render
//! identical tables.

use crate::profile::StepTimes;
use incdes_explore::{CampaignReport, CostReport, ScenarioReport, StepReport};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The cost terms of [`TableRow::avg_terms`], in order: text header and
/// CSV column name.
pub const TERMS: [(&str, &str); 6] = [
    ("C1P%", "c1_processes"),
    ("C1m%", "c1_messages"),
    ("C2P", "c2_processes"),
    ("C2m", "c2_messages"),
    ("penP", "penalty_processes"),
    ("penM", "penalty_messages"),
];

/// One aggregated row: a `(size, strategy, weights)` cell of the
/// campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Value on the size axis.
    pub size: usize,
    /// Strategy display name (`AH`, `MH`, `SA`).
    pub strategy: String,
    /// Label of the weight setting.
    pub weights: String,
    /// Scenarios aggregated into this row.
    pub scenarios: usize,
    /// Scenarios whose modification step counts (see [`modification_step`]).
    pub committed: usize,
    /// Mean modification cost over the committed scenarios.
    pub avg_cost: f64,
    /// Mean cost terms of the committed modification steps, in [`TERMS`]
    /// order.
    pub avg_terms: [f64; 6],
    /// Mean schedule evaluations of the committed modification steps
    /// (runtime proxy).
    pub avg_evaluations: f64,
    /// Mean strategy iterations of the committed modification steps.
    pub avg_iterations: f64,
    /// Feasible steps over all steps of the row's scenarios.
    pub feasible_steps: usize,
    /// All steps of the row's scenarios.
    pub steps: usize,
    /// Probes that fit after every earlier `Add` committed (future
    /// mappability).
    pub probe_hits: usize,
    /// All probe steps.
    pub probes: usize,
}

fn is_add(step: &&StepReport) -> bool {
    step.action == "add"
}

/// The last `Add` among `steps`, when it and every earlier `Add`
/// committed.
fn last_committed_add(steps: &[StepReport]) -> Option<&StepReport> {
    let last = steps.iter().rposition(|s| is_add(&s))?;
    let steps = &steps[..=last];
    steps
        .iter()
        .filter(is_add)
        .all(|s| s.feasible)
        .then_some(&steps[last])
}

/// The modification step of a scenario, its script's last `Add`, when it
/// counts: it and every earlier `Add` committed.
#[must_use]
pub fn modification_step(scenario: &ScenarioReport) -> Option<&StepReport> {
    last_committed_add(&scenario.steps)
}

/// The modification cost of one scenario: the objective `C` of its
/// [`modification_step`]. `None` when that step does not count.
#[must_use]
pub fn modification_cost(scenario: &ScenarioReport) -> Option<f64> {
    modification_step(scenario)?.cost.map(|c| c.total)
}

/// The frozen base of a scenario: the `Add` just before its modification
/// step, when it and every earlier `Add` committed.
fn base_step(scenario: &ScenarioReport) -> Option<&StepReport> {
    let modification = scenario.steps.iter().rposition(|s| is_add(&s))?;
    last_committed_add(&scenario.steps[..modification])
}

/// Strategy column order: the paper's AH, MH, SA first, anything else
/// alphabetical after.
fn strategy_rank(name: &str) -> (usize, String) {
    let rank = match name {
        "AH" => 0,
        "MH" => 1,
        "SA" => 2,
        _ => 3,
    };
    (rank, name.to_string())
}

/// The weights labels of a report in order of first appearance, which
/// is the spec's order.
fn weight_labels(report: &CampaignReport) -> Vec<&str> {
    let mut labels: Vec<&str> = Vec::new();
    for s in &report.scenarios {
        if !labels.contains(&s.weights.as_str()) {
            labels.push(&s.weights);
        }
    }
    labels
}

/// The position of `label` among the [`weight_labels`] of its report.
fn label_rank(labels: &[&str], label: &str) -> usize {
    let rank = labels.iter().position(|l| *l == label);
    rank.expect("weight_labels lists every label of the report")
}

/// The scenarios of one cell.
fn cell_scenarios<'a>(
    report: &'a CampaignReport,
    size: usize,
    strategy: &'a str,
    weights: &'a str,
) -> impl Iterator<Item = &'a ScenarioReport> {
    report
        .scenarios
        .iter()
        .filter(move |s| s.size == size && s.strategy == strategy && s.weights == weights)
}

fn cost_terms(c: &CostReport) -> [f64; 6] {
    [
        c.c1_processes,
        c.c1_messages,
        c.c2_processes as f64,
        c.c2_messages as f64,
        c.penalty_processes as f64,
        c.penalty_messages as f64,
    ]
}

/// Aggregates a report into `(size, strategy, weights)` rows, sorted by
/// size, then strategy (AH, MH, SA, others), then label in spec order.
#[must_use]
pub fn table_rows(report: &CampaignReport) -> Vec<TableRow> {
    let labels = weight_labels(report);
    let mut cells: BTreeSet<(usize, (usize, String), usize)> = BTreeSet::new();
    for s in &report.scenarios {
        let label = label_rank(&labels, &s.weights);
        cells.insert((s.size, strategy_rank(&s.strategy), label));
    }
    let mut rows = Vec::new();
    for (size, (_, strategy), label) in cells {
        let group: Vec<&ScenarioReport> =
            cell_scenarios(report, size, &strategy, labels[label]).collect();
        let counted: Vec<(&StepReport, CostReport)> = group
            .iter()
            .filter_map(|s| {
                let step = modification_step(s)?;
                Some((step, step.cost?))
            })
            .collect();
        let n = counted.len().max(1) as f64;
        let mean_term = |k: usize| counted.iter().map(|(_, c)| cost_terms(c)[k]).sum::<f64>() / n;
        let steps = group.iter().flat_map(|s| &s.steps);
        rows.push(TableRow {
            size,
            weights: labels[label].to_string(),
            scenarios: group.len(),
            committed: counted.len(),
            avg_cost: counted.iter().map(|(_, c)| c.total).sum::<f64>() / n,
            avg_terms: [0, 1, 2, 3, 4, 5].map(mean_term),
            avg_evaluations: counted.iter().map(|(s, _)| s.evaluations).sum::<usize>() as f64 / n,
            avg_iterations: counted.iter().map(|(s, _)| s.iterations).sum::<usize>() as f64 / n,
            feasible_steps: steps.clone().filter(|s| s.feasible).count(),
            probes: steps.clone().filter(|s| s.action == "probe").count(),
            steps: steps.count(),
            probe_hits: group.iter().map(|s| mapped_probes(s)).sum(),
            strategy,
        });
    }
    rows
}

/// The probes of a scenario that fit on a system whose every earlier
/// `Add` committed.
fn mapped_probes(scenario: &ScenarioReport) -> usize {
    let mut adds_committed = true;
    let mapped = |step: &&StepReport| {
        adds_committed &= !is_add(step) || step.feasible;
        step.action == "probe" && step.feasible && adds_committed
    };
    scenario.steps.iter().filter(mapped).count()
}

/// The row layout of the per-strategy tables: one line per size and,
/// when the report has more than one, per weights label.
struct Layout<'a> {
    rows: Vec<TableRow>,
    strategies: Vec<String>,
    keys: Vec<(usize, &'a str)>,
    /// Width of the weights column; `None` hides it.
    label_width: Option<usize>,
}

impl<'a> Layout<'a> {
    fn new(report: &'a CampaignReport) -> Self {
        let rows = table_rows(report);
        let labels = weight_labels(report);
        let strategies = rows
            .iter()
            .map(|r| strategy_rank(&r.strategy))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|(_, s)| s)
            .collect();
        let keys = rows
            .iter()
            .map(|r| (r.size, label_rank(&labels, &r.weights)))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|(size, label)| (size, labels[label]))
            .collect();
        let label_width =
            (labels.len() > 1).then(|| labels.iter().map(|l| l.len()).max().unwrap_or(0).max(7));
        Layout {
            rows,
            strategies,
            keys,
            label_width,
        }
    }

    fn cell(&self, (size, label): (usize, &str), strategy: &str) -> Option<&TableRow> {
        self.rows
            .iter()
            .find(|r| r.size == size && r.weights == label && r.strategy == strategy)
    }

    /// The cell, when some of its modification steps count.
    fn committed(&self, key: (usize, &str), strategy: &str) -> Option<&TableRow> {
        self.cell(key, strategy).filter(|r| r.committed > 0)
    }

    /// Writes the leading size (and weights) columns of a line.
    fn lead(&self, out: &mut String, size: &dyn std::fmt::Display, label: &str) {
        let _ = write!(out, "{size:>6}");
        if let Some(width) = self.label_width {
            let _ = write!(out, " {label:<width$}");
        }
    }

    /// Writes a per-strategy table: a header line of the leading columns
    /// and `heads`, then one line per key of the leading columns and
    /// `line`'s fields.
    fn table(&self, out: &mut String, heads: &[String], line: impl Fn(&mut String, (usize, &str))) {
        self.lead(out, &"size", "weights");
        for head in heads {
            let _ = write!(out, " {head}");
        }
        let _ = writeln!(out);
        for &key in &self.keys {
            self.lead(out, &key.0, key.1);
            line(out, key);
            let _ = writeln!(out);
        }
        let _ = writeln!(out);
    }

    /// One header per strategy: `{strategy} {suffix}`, right-aligned.
    fn heads(&self, width: usize, suffix: &str) -> Vec<String> {
        self.strategies
            .iter()
            .map(|s| format!("{:>width$}", format!("{s} {suffix}")))
            .collect()
    }
}

/// Writes ` {value:>width.precision}`, or a right-aligned `-` for none.
fn field(out: &mut String, width: usize, precision: usize, value: Option<f64>) {
    let _ = match value {
        Some(v) => write!(out, " {v:>width$.precision$}"),
        None => write!(out, " {:>width$}", "-"),
    };
}

/// Renders the aligned-text tables of a report; `times` (the run's
/// profile) adds figure 2's wall-clock table.
#[must_use]
pub fn render_text(report: &CampaignReport, times: Option<&StepTimes>) -> String {
    let layout = Layout::new(report);
    let strategies = &layout.strategies;
    // Deviations from SA, when the report has SA.
    let deviated: Vec<&String> = match strategies.iter().any(|s| s == "SA") {
        true => strategies.iter().filter(|s| *s != "SA").collect(),
        false => Vec::new(),
    };
    let mut out = String::new();

    let _ = writeln!(
        out,
        "## Campaign `{}` — avg modification cost per strategy/size",
        report.campaign
    );
    let mut heads = layout.heads(10, "cost");
    heads.extend(
        deviated
            .iter()
            .map(|s| format!("{:>10}", format!("{s} dev%"))),
    );
    heads.push(format!("{:>5}", "n"));
    layout.table(&mut out, &heads, |out, key| {
        for s in strategies {
            field(out, 10, 1, layout.committed(key, s).map(|r| r.avg_cost));
        }
        // The deviation is undefined at an SA cost of 0 (the demo
        // campaign's unloaded systems); print `-` rather than clamping
        // the denominator, which would silently distort every
        // small-cost row.
        let sa = layout.committed(key, "SA").map(|r| r.avg_cost);
        let sa = sa.filter(|&sa| sa > 0.0);
        for s in &deviated {
            let cost = layout.committed(key, s).map(|r| r.avg_cost);
            field(
                out,
                10,
                1,
                cost.zip(sa).map(|(c, sa)| 100.0 * (c - sa) / sa),
            );
        }
        let cells = strategies.iter().filter_map(|s| layout.cell(key, s));
        let _ = write!(out, " {:>5}", cells.map(|r| r.scenarios).max().unwrap_or(0));
    });

    let _ = writeln!(
        out,
        "## Cost terms of the modification step (means over committed scenarios)"
    );
    layout.lead(&mut out, &"size", "weights");
    let _ = write!(out, " {:>8} {:>9}", "strategy", "committed");
    for (head, _) in TERMS {
        let _ = write!(out, " {head:>8}");
    }
    let _ = writeln!(out);
    for r in &layout.rows {
        layout.lead(&mut out, &r.size, &r.weights);
        let _ = write!(out, " {:>8} {:>9}", r.strategy, r.committed);
        for (k, term) in r.avg_terms.into_iter().enumerate() {
            // C1 is a percentage; C2 and the penalties are ticks.
            let precision = if k < 2 { 2 } else { 1 };
            field(&mut out, 8, precision, (r.committed > 0).then_some(term));
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out);

    let _ = writeln!(
        out,
        "## Schedule evaluations of the modification step per strategy/size \
         (deterministic runtime proxy, fig. 2)"
    );
    let heads: Vec<String> = layout
        .heads(11, "evals")
        .into_iter()
        .zip(layout.heads(11, "iters"))
        .map(|(evals, iters)| format!("{evals} {iters}"))
        .collect();
    layout.table(&mut out, &heads, |out, key| {
        for s in strategies {
            let row = layout.committed(key, s);
            field(out, 11, 1, row.map(|r| r.avg_evaluations));
            field(out, 11, 1, row.map(|r| r.avg_iterations));
        }
    });

    if let Some(times) = times {
        let _ = writeln!(
            out,
            "## Modification-step wall-clock per strategy/size \
             (mean ms over committed, profiled scenarios, fig. 2)"
        );
        layout.table(&mut out, &layout.heads(10, "ms"), |out, (size, label)| {
            for s in strategies {
                let ms: Vec<f64> = cell_scenarios(report, size, s, label)
                    .filter_map(|sc| times.step(sc.index, modification_step(sc)?.step))
                    .map(|d| d.as_secs_f64() * 1e3)
                    .collect();
                let mean = (!ms.is_empty()).then(|| ms.iter().sum::<f64>() / ms.len() as f64);
                field(out, 10, 3, mean);
            }
        });
    }

    if layout.rows.iter().any(|r| r.probes > 0) {
        let _ = writeln!(
            out,
            "## Future mappability per strategy/size (probe hit rate, fig. 3)"
        );
        let mut heads = layout.heads(10, "map%");
        heads.push(format!("{:>7}", "probes"));
        layout.table(&mut out, &heads, |out, key| {
            let cells: Vec<Option<&TableRow>> = strategies
                .iter()
                .map(|s| layout.cell(key, s).filter(|r| r.probes > 0))
                .collect();
            for r in &cells {
                field(
                    out,
                    10,
                    1,
                    r.map(|r| 100.0 * r.probe_hits as f64 / r.probes as f64),
                );
            }
            let probes = cells.iter().flatten().map(|r| r.probes).max();
            let _ = write!(out, " {:>7}", probes.unwrap_or(0));
        });
    }

    // Table 1 reads each seed's first scenario: the existing
    // applications are committed the same way in every scenario of a
    // seed, whatever its size or strategy.
    let mut first_of_seed = BTreeMap::new();
    for s in &report.scenarios {
        first_of_seed.entry(s.seed).or_insert(s);
    }
    if first_of_seed.values().any(|s| base_step(s).is_some()) {
        let _ = writeln!(
            out,
            "## Table 1 — the frozen base per seed (the Add before the modification step)"
        );
        let _ = writeln!(
            out,
            "{:>6} {:>8} {:>8} {:>10} {:>10}",
            "seed", "C1P%", "C1m%", "C2P", "C2m"
        );
        for (seed, s) in first_of_seed {
            let _ = write!(out, "{seed:>6}");
            let cost = base_step(s).and_then(|b| b.cost);
            field(&mut out, 8, 1, cost.map(|c| c.c1_processes));
            field(&mut out, 8, 1, cost.map(|c| c.c1_messages));
            field(&mut out, 10, 0, cost.map(|c| c.c2_processes as f64));
            field(&mut out, 10, 0, cost.map(|c| c.c2_messages as f64));
            let _ = writeln!(out);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the long-form CSV of a report (one row per `(size, strategy,
/// weights)` cell, header included). The cost, term, evaluation and
/// iteration fields are empty when no modification step counts.
#[must_use]
pub fn render_csv(report: &CampaignReport) -> String {
    let mut out =
        String::from("campaign,size,strategy,weights,scenarios,committed,avg_modification_cost");
    for (_, name) in TERMS {
        let _ = write!(out, ",avg_{name}");
    }
    out.push_str(",avg_evaluations,avg_iterations,feasible_steps,steps,probe_hits,probes\n");
    for r in table_rows(report) {
        let _ = write!(
            out,
            "{},{},{},{},{},{}",
            report.campaign, r.size, r.strategy, r.weights, r.scenarios, r.committed
        );
        let means = [r.avg_cost]
            .into_iter()
            .chain(r.avg_terms)
            .chain([r.avg_evaluations, r.avg_iterations]);
        for mean in means {
            if r.committed > 0 {
                let _ = write!(out, ",{mean:.3}");
            } else {
                out.push(',');
            }
        }
        let _ = writeln!(
            out,
            ",{},{},{},{}",
            r.feasible_steps, r.steps, r.probe_hits, r.probes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_explore::{run_campaign, CampaignSpec};

    fn demo_report() -> CampaignReport {
        run_campaign(&CampaignSpec::small_demo(), 4)
            .expect("demo spec is valid")
            .report()
    }

    #[test]
    fn rows_cover_the_grid_and_costs_are_finite() {
        let report = demo_report();
        let rows = table_rows(&report);
        // 2 sizes × 2 strategies.
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.scenarios == 2));
        assert!(rows.iter().all(|r| r.committed == 2));
        assert!(rows.iter().all(|r| r.avg_cost.is_finite()));
        assert!(rows.iter().all(|r| r.probes == 2 && r.probe_hits == 2));
        // MH before SA at each size.
        assert_eq!(rows[0].strategy, "MH");
        assert_eq!(rows[1].strategy, "SA");
        assert!(rows[0].size <= rows[2].size);
    }

    #[test]
    fn modification_cost_is_the_last_add_with_cost() {
        let report = demo_report();
        let scenario = &report.scenarios[0];
        let expected = scenario
            .steps
            .iter()
            .filter(|s| s.action == "add")
            .filter_map(|s| s.cost)
            .next_back()
            .unwrap()
            .total;
        assert_eq!(modification_cost(scenario), Some(expected));
    }

    #[test]
    fn rendering_is_deterministic_and_structured() {
        let report = demo_report();
        let text = render_text(&report, None);
        assert_eq!(
            text,
            render_text(&report, None),
            "text render is deterministic"
        );
        assert!(text.contains("avg modification cost"));
        assert!(text.contains("MH dev%"), "SA present ⇒ deviation column");
        assert!(text.contains("Future mappability"));

        let csv = render_csv(&report);
        assert_eq!(csv, render_csv(&report), "csv render is deterministic");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + 4, "header + one row per grid cell");
        assert!(lines[0].starts_with("campaign,size,strategy"));
        assert!(lines[1].starts_with("small-demo,6,MH,default,2,2,"));
        let fields = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == fields));
    }
}
