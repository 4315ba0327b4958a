//! Simulated annealing (SA) — the near-optimal reference.
//!
//! SA explores the same design space as MH (mappings plus slack hints)
//! with the classic Metropolis acceptance rule and geometric cooling.
//! With the default (generous) budget it approaches the optimum of the
//! objective; the paper uses it as the yardstick the other strategies'
//! *average deviation* is measured against.

use crate::context::{ChainCtx, Evaluation, MapError, MappingContext, Scored};
use crate::solution::{Move, Solution};
use incdes_metrics::DesignCost;
use incdes_model::{PeId, ProcRef};
use incdes_obs::{counters, phase};
use incdes_sched::MsgRef;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Tuning knobs of [`simulated_annealing`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    let current_eval = ctx.score(&initial).map_err(|e| {
        if e.is_infeasible() {
            MapError::Infeasible { last: e }
        } else {
            MapError::InvalidInput(e)
        }
    })?;

    // Move-generation tables (shared immutably by every chain).
    let procs: Vec<(ProcRef, Vec<PeId>)> = ctx
        .app
        .processes()
        .map(|(r, p)| {
            let pes: Vec<PeId> = p
                .wcets
                .iter()
                .map(|(pe, _)| pe)
                .filter(|pe| pe.index() < ctx.arch.pe_count())
                .collect();
            (r, pes)
        })
        .collect();
    let msgs: Vec<MsgRef> = ctx
        .app
        .graphs
        .iter()
        .enumerate()
        .flat_map(|(gi, g)| g.dag().edge_ids().map(move |e| MsgRef::new(gi, e)))
        .collect();

    if let Some((threads, sa_chains, sa_exchange_period)) = ctx.parallelism().sa_portfolio() {
        // Falls back to the classic path when no shareable base exists
        // (naive pipeline); a single chain IS the classic path, so it
        // never takes this branch.
        if let Some(chains) = ctx.chain_contexts(sa_chains) {
            return Ok(anneal_portfolio(
                ctx,
                chains,
                initial,
                current_eval,
                &procs,
                &msgs,
                cfg,
                threads,
                sa_exchange_period,
            ));
        }
    }
    Ok(anneal_classic(
        ctx,
        initial,
        current_eval,
        &procs,
        &msgs,
        cfg,
    ))
}

/// The sequential annealing loop — byte-identical to the pre-portfolio
/// implementation (same RNG stream, same acceptance decisions, same
/// evaluation count).
fn anneal_classic(
    ctx: &MappingContext<'_>,
    initial: Solution,
    initial_eval: Scored,
    procs: &[(ProcRef, Vec<PeId>)],
    msgs: &[MsgRef],
    cfg: &SaConfig,
) -> SaOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut current = initial;
    let mut current_eval = initial_eval;
    // The best solution is tracked as (solution, cost) only; its scored
    // design is re-derived once at the end (a memo hit on the engine
    // path).
    let mut best = current.clone();
    let mut best_cost = current_eval.cost;

    let mut temp = cfg.initial_temp.max(f64::MIN_POSITIVE);
    let mut accepted = 0usize;
    let mut proposed = 0usize;
    let mut evals = 0usize;

    'outer: while temp > cfg.min_temp {
        for _ in 0..cfg.steps_per_temp {
            if evals >= cfg.max_evaluations {
                break 'outer;
            }
            let Some(mv) = propose_move(&mut rng, &current, procs, msgs, cfg) else {
                break 'outer; // degenerate design space
            };
            proposed += 1;
            let trial = current.with_move(&mv);
            evals += 1;
            let Ok(eval) = ctx.score(&trial) else {
                continue; // infeasible proposals are always rejected
            };
            let delta = eval.cost.total - current_eval.cost.total;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
            if accept {
                accepted += 1;
                current = trial;
                current_eval = eval;
                if current_eval.cost.total < best_cost.total - 1e-12 {
                    best = current.clone();
                    best_cost = current_eval.cost;
                }
                if best_cost.total <= f64::EPSILON {
                    break 'outer; // cannot improve on zero
                }
            }
        }
        temp *= cfg.cooling;
    }

    // Rebuild the best evaluation. The scheduler is deterministic, so a
    // solution that evaluated feasibly once evaluates feasibly again;
    // `score_snapshot` leaves `evaluation_count()` untouched (this is
    // bookkeeping, not a design-space probe).
    let best_eval = if best == current {
        current_eval
    } else {
        ctx.score_snapshot(&best)
            .expect("best solution was feasible when first evaluated")
    };
    debug_assert_eq!(best_eval.cost.total, best_cost.total);
    SaOutcome {
        solution: best,
        evaluation: ctx.materialize(best_eval),
        accepted,
        proposed,
    }
}

/// One lane of the SA portfolio: a private evaluation context plus the
/// flattened annealing state (the classic `while`/`for` loop unrolled
/// into a resumable per-proposal step so chains can pause at exchange
/// barriers).
struct Chain<'a> {
    cx: ChainCtx<'a>,
    rng: ChaCha8Rng,
    current: Solution,
    current_eval: Scored,
    best: Solution,
    best_cost: DesignCost,
    temp: f64,
    steps_into_temp: usize,
    evals: usize,
    accepted: usize,
    proposed: usize,
    done: bool,
}

/// Advances one chain by a single proposal, mirroring one inner-loop
/// iteration of [`anneal_classic`] exactly (budget check, proposal,
/// Metropolis acceptance, temperature bookkeeping).
fn chain_step(
    lane: &mut Chain<'_>,
    procs: &[(ProcRef, Vec<PeId>)],
    msgs: &[MsgRef],
    cfg: &SaConfig,
    budget: usize,
) {
    if lane.evals >= budget {
        lane.done = true;
        return;
    }
    let Some(mv) = propose_move(&mut lane.rng, &lane.current, procs, msgs, cfg) else {
        lane.done = true; // degenerate design space
        return;
    };
    lane.proposed += 1;
    let trial = lane.current.with_move(&mv);
    lane.evals += 1;
    if let Ok(eval) = lane.cx.score(&trial) {
        let delta = eval.cost.total - lane.current_eval.cost.total;
        let accept = delta <= 0.0 || lane.rng.gen::<f64>() < (-delta / lane.temp).exp();
        if accept {
            lane.accepted += 1;
            lane.current = trial;
            lane.current_eval = eval;
            if lane.current_eval.cost.total < lane.best_cost.total - 1e-12 {
                lane.best = lane.current.clone();
                lane.best_cost = lane.current_eval.cost;
            }
            if lane.best_cost.total <= f64::EPSILON {
                lane.done = true; // cannot improve on zero
                return;
            }
        }
    } // infeasible proposals are always rejected
    lane.steps_into_temp += 1;
    if lane.steps_into_temp >= cfg.steps_per_temp {
        lane.steps_into_temp = 0;
        lane.temp *= cfg.cooling;
        if lane.temp <= cfg.min_temp {
            lane.done = true;
        }
    }
}

/// Runs up to `segment` proposals on one chain (fewer if it finishes).
fn run_segment(
    lane: &mut Chain<'_>,
    procs: &[(ProcRef, Vec<PeId>)],
    msgs: &[MsgRef],
    cfg: &SaConfig,
    budget: usize,
    segment: usize,
) {
    for _ in 0..segment {
        if lane.done {
            return;
        }
        chain_step(lane, procs, msgs, cfg, budget);
    }
}

/// The SA portfolio: `chains.len()` independent annealing chains with
/// per-chain ChaCha8 streams run in segments of `sa_exchange_period`
/// proposals; at each segment barrier the strictly-best solution found
/// so far (earliest chain wins ties) is broadcast to chains whose
/// current point is worse. Chains are deterministic given their seeds
/// and exchanges happen at fixed proposal boundaries in chain order, so
/// the outcome and every counter depend only on `sa_chains` /
/// `sa_exchange_period` — never on the thread count.
#[allow(clippy::too_many_arguments)]
fn anneal_portfolio(
    ctx: &MappingContext<'_>,
    chains: Vec<ChainCtx<'_>>,
    initial: Solution,
    initial_eval: Scored,
    procs: &[(ProcRef, Vec<PeId>)],
    msgs: &[MsgRef],
    cfg: &SaConfig,
    threads: usize,
    sa_exchange_period: usize,
) -> SaOutcome {
    // Each chain gets an equal share of the evaluation budget, so the
    // portfolio probes the design space about as many times as the
    // classic path would.
    let budget = cfg.max_evaluations.div_ceil(chains.len());
    let segment = sa_exchange_period.max(1);
    let init_temp = cfg.initial_temp.max(f64::MIN_POSITIVE);
    let mut lanes: Vec<Chain<'_>> = chains
        .into_iter()
        .enumerate()
        .map(|(c, cx)| Chain {
            cx,
            // Chain 0 replays the classic seed; siblings get decorrelated
            // streams via a golden-ratio multiple (XOR keeps chain 0 exact).
            rng: ChaCha8Rng::seed_from_u64(
                cfg.seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            current: initial.clone(),
            current_eval: initial_eval.clone(),
            best: initial.clone(),
            best_cost: initial_eval.cost,
            temp: init_temp,
            steps_into_temp: 0,
            evals: 0,
            accepted: 0,
            proposed: 0,
            done: init_temp <= cfg.min_temp,
        })
        .collect();

    let worker_count = threads.max(1).min(lanes.len());
    while lanes.iter().any(|l| !l.done) {
        if worker_count == 1 {
            for lane in &mut lanes {
                run_segment(lane, procs, msgs, cfg, budget, segment);
            }
        } else {
            // Chains are partitioned over scoped workers; since each
            // lane is self-contained the partition cannot affect any
            // result, only wall-clock.
            let chunk = lanes.len().div_ceil(worker_count);
            let harvested = std::thread::scope(|s| {
                let handles: Vec<_> = lanes
                    .chunks_mut(chunk)
                    .map(|chunk_lanes| {
                        s.spawn(move || {
                            for lane in chunk_lanes {
                                run_segment(lane, procs, msgs, cfg, budget, segment);
                            }
                            // Fresh OS thread: its observability
                            // thread-locals started at zero, so the
                            // final snapshot is this worker's delta.
                            (counters::snapshot(), phase::snapshot())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("SA chain worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (worker_counters, worker_phases) in harvested {
                counters::merge_into_current(&worker_counters);
                phase::merge_into_current(&worker_phases);
            }
        }

        // Exchange barrier: broadcast the strictly-best solution.
        let mut gb = 0usize;
        for c in 1..lanes.len() {
            if lanes[c].best_cost.total < lanes[gb].best_cost.total {
                gb = c;
            }
        }
        let gb_sol = lanes[gb].best.clone();
        let gb_cost = lanes[gb].best_cost;
        for lane in &mut lanes {
            if lane.done || lane.current_eval.cost.total <= gb_cost.total {
                continue;
            }
            lane.current = gb_sol.clone();
            // Bookkeeping, not a probe: re-derive on the chain's own
            // engine (usually a memo hit after the first adoption).
            lane.current_eval = lane
                .cx
                .score_snapshot(&lane.current)
                .expect("global best was feasible on a sibling chain");
            if gb_cost.total < lane.best_cost.total - 1e-12 {
                lane.best = gb_sol.clone();
                lane.best_cost = gb_cost;
            }
            if lane.best_cost.total <= f64::EPSILON {
                lane.done = true;
            }
        }
    }

    let mut gb = 0usize;
    for c in 1..lanes.len() {
        if lanes[c].best_cost.total < lanes[gb].best_cost.total {
            gb = c;
        }
    }
    let best = lanes[gb].best.clone();
    let best_cost = lanes[gb].best_cost;
    let accepted = lanes.iter().map(|l| l.accepted).sum();
    let proposed = lanes.iter().map(|l| l.proposed).sum();
    ctx.absorb_chains(lanes.into_iter().map(|l| l.cx).collect());
    // Rebuild the best evaluation on the owning context (memo hit when
    // the initial solution was never improved).
    let best_eval = ctx
        .score_snapshot(&best)
        .expect("best solution was feasible when first evaluated");
    debug_assert_eq!(best_eval.cost.total, best_cost.total);
    SaOutcome {
        solution: best,
        evaluation: ctx.materialize(best_eval),
        accepted,
        proposed,
    }
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
            let candidates: Vec<PeId> = pes
                .iter()
                .copied()
                .filter(|&pe| current.mapping.pe_of(*pr) != Some(pe))
                .collect();
            if let Some(&to) = candidates.choose(rng) {
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
    use crate::context::SearchParallelism;
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
    fn sa_portfolio_is_thread_count_invariant() {
        let arch = arch2();
        let app = spread_app(5);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let cfg = SaConfig::quick();
        let run = |threads: usize| {
            let ctx = ctx_with(&arch, &app, &future, &weights).with_parallelism(
                SearchParallelism::Parallel {
                    threads,
                    sa_chains: 3,
                    sa_exchange_period: 16,
                },
            );
            let im = initial_mapping(&ctx).unwrap();
            let out = simulated_annealing(&ctx, im, &cfg).unwrap();
            (
                out.solution,
                out.evaluation.cost.total.to_bits(),
                out.accepted,
                out.proposed,
                ctx.evaluation_count(),
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn sa_single_chain_parallel_matches_classic() {
        let arch = arch2();
        let app = spread_app(5);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let cfg = SaConfig::quick();
        let im = initial_mapping(&ctx_with(&arch, &app, &future, &weights)).unwrap();
        let seq_ctx = ctx_with(&arch, &app, &future, &weights);
        let seq = simulated_annealing(&seq_ctx, im.clone(), &cfg).unwrap();
        // One chain must stay on the classic path bit-for-bit, whatever
        // the thread count.
        let par_ctx = ctx_with(&arch, &app, &future, &weights).with_parallelism(
            SearchParallelism::Parallel {
                threads: 4,
                sa_chains: 1,
                sa_exchange_period: 64,
            },
        );
        let par = simulated_annealing(&par_ctx, im, &cfg).unwrap();
        assert_eq!(seq.solution, par.solution);
        assert_eq!(
            seq.evaluation.cost.total.to_bits(),
            par.evaluation.cost.total.to_bits()
        );
        assert_eq!(seq.accepted, par.accepted);
        assert_eq!(seq.proposed, par.proposed);
        assert_eq!(seq_ctx.evaluation_count(), par_ctx.evaluation_count());
    }

    #[test]
    fn sa_portfolio_never_returns_worse_than_start() {
        let arch = arch2();
        let app = spread_app(5);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = ctx_with(&arch, &app, &future, &weights).with_parallelism(
            SearchParallelism::Parallel {
                threads: 2,
                sa_chains: 2,
                sa_exchange_period: 8,
            },
        );
        let im = initial_mapping(&ctx).unwrap();
        let im_cost = ctx.evaluate(&im).unwrap().cost.total;
        let out = simulated_annealing(&ctx, im, &SaConfig::quick()).unwrap();
        assert!(out.evaluation.cost.total <= im_cost + 1e-9);
        assert!(out.proposed >= out.accepted);
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
