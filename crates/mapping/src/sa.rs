//! Simulated annealing (SA) — the near-optimal reference.
//!
//! SA explores the same design space as MH (mappings plus slack hints)
//! with the classic Metropolis acceptance rule and geometric cooling.
//! With the default (generous) budget it approaches the optimum of the
//! objective; the paper uses it as the yardstick the other strategies'
//! *average deviation* is measured against.
//!
//! The annealer is one Metropolis chain: a single ChaCha8 stream seeded
//! from [`SaConfig::seed`] draws every move and acceptance, and each
//! trial is scored on the context's own engine, so a run depends only
//! on its context and its configuration. A trial is the current
//! solution with the move applied in place; a rejected or infeasible
//! trial is undone. The chain tracks costs only and builds the best
//! design's slack profile and placements once, at the end.

use crate::context::{Evaluation, MapError, MappingContext};
use crate::solution::{Move, Solution};
use incdes_model::{PeId, ProcRef};
use incdes_sched::MsgRef;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Tuning knobs of [`simulated_annealing`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SaConfig {
    /// Starting temperature (in objective units).
    pub initial_temp: f64,
    /// Geometric cooling factor per temperature step, in `(0, 1)`.
    pub cooling: f64,
    /// Proposed moves per temperature step.
    pub steps_per_temp: usize,
    /// Stop when the temperature drops below this.
    pub min_temp: f64,
    /// Hard cap on schedule evaluations (the paper's SA runs for tens of
    /// minutes; cap it for experiments).
    pub max_evaluations: usize,
    /// Largest gap hint proposed.
    pub max_gap_hint: u32,
    /// Largest slot hint proposed.
    pub max_slot_hint: u32,
    /// RNG seed (SA is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            initial_temp: 50.0,
            cooling: 0.95,
            steps_per_temp: 50,
            min_temp: 0.05,
            max_evaluations: 20_000,
            max_gap_hint: 4,
            max_slot_hint: 4,
            seed: 0x0DAC_2001,
        }
    }
}

impl SaConfig {
    /// A small budget for tests and quick benchmarks.
    pub fn quick() -> Self {
        SaConfig {
            initial_temp: 25.0,
            cooling: 0.85,
            steps_per_temp: 12,
            min_temp: 0.5,
            max_evaluations: 600,
            ..SaConfig::default()
        }
    }
}

/// Result of an SA run.
#[derive(Debug, Clone)]
pub struct SaOutcome {
    /// The best solution seen.
    pub solution: Solution,
    /// Its evaluation.
    pub evaluation: Evaluation,
    /// Moves accepted (including uphill ones).
    pub accepted: usize,
    /// Moves proposed.
    pub proposed: usize,
}

/// Runs simulated annealing from `initial` (which must be feasible).
///
/// # Errors
///
/// [`MapError::Infeasible`] if `initial` does not schedule;
/// [`MapError::InvalidInput`] for malformed inputs.
pub fn simulated_annealing(
    ctx: &MappingContext<'_>,
    initial: Solution,
    cfg: &SaConfig,
) -> Result<SaOutcome, MapError> {
    let mut current_cost = ctx.score(&initial).map_err(|e| {
        if e.is_infeasible() {
            MapError::Infeasible { last: e }
        } else {
            MapError::InvalidInput(e)
        }
    })?;

    // Move-generation tables.
    let procs = ctx.allowed_pes();
    let msgs: Vec<MsgRef> = ctx
        .app
        .graphs
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| g.dag().edge_ids().map(move |e| MsgRef::new(gi, e)))
        .collect();

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut current = initial;
    // The best solution is tracked as (solution, cost) only; its scored
    // design is re-derived once at the end.
    let mut best = current.clone();
    let mut best_cost = current_cost;

    let mut temp = cfg.initial_temp.max(f64::MIN_POSITIVE);
    let mut accepted = 0usize;
    let mut proposed = 0usize;
    let mut evals = 0usize;

    'outer: while temp > cfg.min_temp {
        for _ in 0..cfg.steps_per_temp {
            if evals >= cfg.max_evaluations {
                break 'outer;
            }
            let Some(mv) = propose_move(&mut rng, &current, &procs, &msgs, cfg) else {
                break 'outer; // degenerate design space
            };
            proposed += 1;
            // The trial is `current` with the move applied in place;
            // a rejected or infeasible trial is undone.
            let undo = current.apply_undoable(&mv);
            evals += 1;
            let Ok(cost) = ctx.score(&current) else {
                current.undo(undo);
                continue; // infeasible proposals are always rejected
            };
            let delta = cost.total - current_cost.total;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
            if !accept {
                current.undo(undo);
                continue;
            }
            accepted += 1;
            current_cost = cost;
            if current_cost.total < best_cost.total - 1e-12 {
                best.clone_from(&current);
                best_cost = current_cost;
            }
            if best_cost.total <= f64::EPSILON {
                break 'outer; // cannot improve on zero
            }
        }
        temp *= cfg.cooling;
    }

    // Rebuild the best design: a memo hit when the best was the last
    // trial, one raw schedule otherwise. The scheduler is deterministic,
    // so a solution that evaluated feasibly once evaluates feasibly
    // again; `score_snapshot` leaves `evaluation_count()` untouched
    // (this is bookkeeping, not a design-space probe).
    ctx.score_snapshot(&best)
        .expect("best solution was feasible when first evaluated");
    let best_eval = ctx.kept();
    debug_assert_eq!(best_eval.cost.total, best_cost.total);
    Ok(SaOutcome {
        solution: best,
        evaluation: ctx.materialize(best_eval),
        accepted,
        proposed,
    })
}

/// Draws a random design transformation: 60 % remap, 25 % process slack
/// shift, 15 % message slack shift.
fn propose_move(
    rng: &mut ChaCha8Rng,
    current: &Solution,
    procs: &[(ProcRef, Vec<PeId>)],
    msgs: &[MsgRef],
    cfg: &SaConfig,
) -> Option<Move> {
    if procs.is_empty() {
        return None;
    }
    for _ in 0..16 {
        let dice = rng.gen_range(0u32..100);
        if dice < 60 {
            let (pr, pes) = &procs[rng.gen_range(0..procs.len())];
            // One draw among the allowed PEs other than the current one
            // (none when there are none).
            let from = current.mapping.pe_of(*pr);
            let mut others = pes.iter().copied().filter(|&pe| Some(pe) != from);
            let n = others.clone().count();
            if n > 0 {
                let to = others
                    .nth(rng.gen_range(0..n))
                    .expect("the draw is below the count");
                return Some(Move::Remap { proc_ref: *pr, to });
            }
        } else if dice < 85 {
            let (pr, _) = &procs[rng.gen_range(0..procs.len())];
            let h = current.hints.proc_gap(*pr);
            let up = rng.gen_bool(0.5);
            if up && h < cfg.max_gap_hint {
                return Some(Move::ProcSlack {
                    proc_ref: *pr,
                    gap: h + 1,
                });
            }
            if !up && h > 0 {
                return Some(Move::ProcSlack {
                    proc_ref: *pr,
                    gap: h - 1,
                });
            }
        } else if !msgs.is_empty() {
            let mr = msgs[rng.gen_range(0..msgs.len())];
            let h = current.hints.msg_slot(mr);
            let up = rng.gen_bool(0.5);
            if up && h < cfg.max_slot_hint {
                return Some(Move::MsgSlack {
                    msg: mr,
                    slot: h + 1,
                });
            }
            if !up && h > 0 {
                return Some(Move::MsgSlack {
                    msg: mr,
                    slot: h - 1,
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::im::initial_mapping;
    use incdes_metrics::Weights;
    use incdes_model::prelude::*;
    use incdes_model::AppId;

    fn arch2() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, Time::new(10), 1).unwrap())
            .build()
            .unwrap()
    }

    fn spread_app(n: usize) -> Application {
        let mut g = ProcessGraph::new("g", Time::new(240), Time::new(240));
        for i in 0..n {
            g.add_process(
                Process::new(format!("p{i}"))
                    .wcet(PeId(0), Time::new(20))
                    .wcet(PeId(1), Time::new(20)),
            );
        }
        Application::new("app", vec![g])
    }

    fn ctx_with<'a>(
        arch: &'a Architecture,
        app: &'a Application,
        future: &'a FutureProfile,
        weights: &'a Weights,
    ) -> MappingContext<'a> {
        MappingContext::new(arch, AppId(0), app, None, Time::new(240), future, weights)
    }

    #[test]
    fn sa_never_returns_worse_than_start() {
        let arch = arch2();
        let app = spread_app(5);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = ctx_with(&arch, &app, &future, &weights);
        let im = initial_mapping(&ctx).unwrap();
        let im_cost = ctx.evaluate(&im).unwrap().cost.total;
        let out = simulated_annealing(&ctx, im, &SaConfig::quick()).unwrap();
        assert!(out.evaluation.cost.total <= im_cost + 1e-9);
        assert!(out.proposed >= out.accepted);
    }

    #[test]
    fn sa_is_deterministic_given_seed() {
        let arch = arch2();
        let app = spread_app(4);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = ctx_with(&arch, &app, &future, &weights);
        let im = initial_mapping(&ctx).unwrap();
        let a = simulated_annealing(&ctx, im.clone(), &SaConfig::quick()).unwrap();
        let b = simulated_annealing(&ctx, im, &SaConfig::quick()).unwrap();
        assert_eq!(a.solution, b.solution);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.proposed, b.proposed);
    }

    #[test]
    fn sa_respects_evaluation_cap() {
        let arch = arch2();
        let app = spread_app(4);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = ctx_with(&arch, &app, &future, &weights);
        let im = initial_mapping(&ctx).unwrap();
        let before = ctx.evaluation_count();
        let cfg = SaConfig {
            max_evaluations: 25,
            ..SaConfig::quick()
        };
        let _ = simulated_annealing(&ctx, im, &cfg).unwrap();
        // initial eval + at most 25 trial evals.
        assert!(ctx.evaluation_count() <= before + 26);
    }

    #[test]
    fn sa_infeasible_start_rejected() {
        let arch = arch2();
        let app = spread_app(2);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = ctx_with(&arch, &app, &future, &weights);
        assert!(matches!(
            simulated_annealing(&ctx, Solution::new(), &SaConfig::quick()),
            Err(MapError::InvalidInput(_))
        ));
    }
}
