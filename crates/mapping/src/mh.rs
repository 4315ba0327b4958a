//! The mapping heuristic (MH) — the paper's main algorithm.
//!
//! Starting from a valid solution, MH iteratively performs design
//! transformations that improve the objective `C`, *examining only the
//! transformations with the highest potential* (slide 14):
//!
//! * processes whose scheduled jobs border large slack (moving them can
//!   merge fragments into the contiguous slack C1 rewards), and
//! * processes and messages lying inside the worst `Tmin` window of their
//!   resource (moving them out raises the periodic minimum slack C2
//!   rewards)
//!
//! are the candidates; everything else is skipped. Each iteration
//! evaluates the candidate moves (remap to another PE, shift to a
//! different slack on the same PE, shift a message to a different bus
//! slot), commits the best improving one, and stops at a local optimum.
//! A candidate is applied to the current solution in place, scored and
//! undone; only a round's best so far is kept as a scored design.

use crate::context::{Evaluation, MapError, MappingContext, Scored};
use crate::solution::{Move, Solution};
use incdes_model::{PeId, ProcRef, Time};
use incdes_sched::MsgRef;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Tuning knobs of [`mapping_heuristic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct MhConfig {
    /// Stop after this many committed improvements.
    pub max_iterations: usize,
    /// Number of highest-potential processes considered per iteration.
    pub process_candidates: usize,
    /// Number of messages considered per iteration.
    pub message_candidates: usize,
    /// Largest "skip n gaps" hint explored for processes.
    pub max_gap_hint: u32,
    /// Largest "skip n slots" hint explored for messages.
    pub max_slot_hint: u32,
}

impl Default for MhConfig {
    fn default() -> Self {
        MhConfig {
            max_iterations: 64,
            process_candidates: 12,
            message_candidates: 8,
            max_gap_hint: 4,
            max_slot_hint: 4,
        }
    }
}

/// Result of an MH run.
#[derive(Debug, Clone)]
pub struct MhOutcome {
    /// The improved solution.
    pub solution: Solution,
    /// Its evaluation.
    pub evaluation: Evaluation,
    /// Committed improvement steps.
    pub iterations: usize,
}

/// Runs the mapping heuristic from `initial` (which must be feasible).
///
/// # Errors
///
/// [`MapError::Infeasible`] if `initial` does not schedule;
/// [`MapError::InvalidInput`] for malformed inputs.
pub fn mapping_heuristic(
    ctx: &MappingContext<'_>,
    initial: Solution,
    cfg: &MhConfig,
) -> Result<MhOutcome, MapError> {
    let mut current = initial;
    ctx.score(&current).map_err(|e| {
        if e.is_infeasible() {
            MapError::Infeasible { last: e }
        } else {
            MapError::InvalidInput(e)
        }
    })?;
    let mut current_eval = ctx.kept();

    let total_procs = ctx.app.process_count().max(1);
    let mut iterations = 0usize;
    'improve: while iterations < cfg.max_iterations {
        // Early exit: nothing left to improve.
        if current_eval.cost.total <= f64::EPSILON {
            break;
        }
        // Examine the highest-potential transformations first; when none
        // of them improves, progressively widen the candidate set so MH
        // only stops at a genuine local optimum of the full move space.
        //
        // `current` is fixed while widening, so a move evaluated in a
        // narrower round cannot improve in a wider one (it would have
        // been committed on the spot) — skip the duplicates instead of
        // re-evaluating them.
        let mut widened = *cfg;
        let mut tried: HashSet<Move> = HashSet::new();
        loop {
            // Score the round's fresh (not yet tried) moves one at a
            // time, in candidate order, each applied to `current` and
            // undone, keeping the best strict improvement on the
            // incumbent. Only a new round-best is kept as a design.
            let mut best: Option<(Move, Scored)> = None;
            for mv in candidate_moves(ctx, &current, &current_eval, &widened) {
                if !tried.insert(mv) {
                    continue;
                }
                let undo = current.apply_undoable(&mv);
                // An infeasible move is skipped.
                if let Ok(cost) = ctx.score(&current) {
                    let bar = best
                        .as_ref()
                        .map_or(current_eval.cost.total, |(_, b)| b.cost.total);
                    if cost.total < bar - 1e-9 {
                        best = Some((mv, ctx.kept()));
                    }
                }
                current.undo(undo);
            }
            if let Some((mv, eval)) = best {
                current.apply(&mv);
                current_eval = eval;
                iterations += 1;
                continue 'improve;
            }
            if widened.process_candidates >= total_procs {
                break 'improve; // local optimum of the full neighborhood
            }
            widened.process_candidates = widened
                .process_candidates
                .saturating_mul(2)
                .min(total_procs);
            widened.message_candidates = widened.message_candidates.saturating_mul(2);
        }
    }
    Ok(MhOutcome {
        solution: current,
        evaluation: ctx.materialize(current_eval),
        iterations,
    })
}

/// Builds the candidate move list for one iteration. Reads the current
/// application's placements only, and in an order-insensitive way (a
/// per-process sum, one duration per message), so their step order
/// never shows in the moves.
fn candidate_moves(
    ctx: &MappingContext<'_>,
    current: &Solution,
    eval: &Scored,
    cfg: &MhConfig,
) -> Vec<Move> {
    let arch = ctx.arch;
    let t_min = ctx.future.t_min;

    // Worst (minimum-slack) window per PE — the C2 bottleneck.
    let worst_window: Vec<Option<(Time, Time)>> = (0..arch.pe_count())
        .map(|i| worst_window_of(&eval.slack, PeId(i as u32), t_min))
        .collect();

    // Potential of each process of the current application (the frozen
    // applications are untouchable and not among the placements).
    let mut potential: BTreeMap<ProcRef, u64> = BTreeMap::new();
    for job in eval.placements.jobs() {
        let pr = job.job.proc_ref();
        let tls = &eval.slack;
        // Slack bordering this job on its PE.
        let mut border = 0u64;
        for &(gs, ge) in tls.gaps_of(job.pe) {
            if ge == job.start || gs == job.end {
                border += (ge - gs).ticks();
            }
        }
        // Bonus when the job sits in its PE's worst window.
        let bonus = match worst_window[job.pe.index()] {
            Some((ws, we)) if job.start < we && job.end > ws => {
                (job.end.min(we) - job.start.max(ws)).ticks() * 4
            }
            _ => 0,
        };
        *potential.entry(pr).or_insert(0) += border + bonus + 1;
    }

    let mut procs: Vec<(ProcRef, u64)> = potential.into_iter().collect();
    procs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    procs.truncate(cfg.process_candidates);

    let mut moves = Vec::new();
    for &(pr, _) in &procs {
        let proc = ctx.app.process(pr);
        let cur_pe = current.mapping.pe_of(pr);
        for (pe, _) in proc.wcets.iter() {
            if pe.index() >= arch.pe_count() {
                continue;
            }
            if Some(pe) != cur_pe {
                moves.push(Move::Remap {
                    proc_ref: pr,
                    to: pe,
                });
            }
        }
        let h = current.hints.proc_gap(pr);
        if h < cfg.max_gap_hint {
            moves.push(Move::ProcSlack {
                proc_ref: pr,
                gap: h + 1,
            });
        }
        if h > 0 {
            moves.push(Move::ProcSlack {
                proc_ref: pr,
                gap: h - 1,
            });
        }
    }

    // Message candidates: the current app's distinct messages, largest
    // transmissions first (they dominate both bus metrics).
    let mut msgs: BTreeSet<MsgRef> = BTreeSet::new();
    let mut sized: Vec<(Time, MsgRef)> = Vec::new();
    for m in eval.placements.messages() {
        if msgs.insert(m.msg) {
            sized.push((m.reservation.duration(), m.msg));
        }
    }
    sized.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    sized.truncate(cfg.message_candidates);
    for &(_, mr) in &sized {
        let h = current.hints.msg_slot(mr);
        if h < cfg.max_slot_hint {
            moves.push(Move::MsgSlack {
                msg: mr,
                slot: h + 1,
            });
        }
        if h > 0 {
            moves.push(Move::MsgSlack {
                msg: mr,
                slot: h - 1,
            });
        }
    }
    moves
}

/// The `t_min` window of `pe` with the least slack, if any window exists.
fn worst_window_of(
    slack: &incdes_sched::SlackProfile,
    pe: PeId,
    t_min: Time,
) -> Option<(Time, Time)> {
    if t_min.is_zero() {
        return None;
    }
    let horizon = slack.horizon();
    let windows = horizon.ticks() / t_min.ticks();
    if windows == 0 {
        return Some((Time::ZERO, horizon));
    }
    (0..windows)
        .map(|k| {
            let from = Time::new(k * t_min.ticks());
            (slack.pe_slack_in(pe, from, from + t_min), from)
        })
        .min_by_key(|&(s, from)| (s, from))
        .map(|(_, from)| (from, from + t_min))
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

    /// Several independent processes that can run on either PE — plenty of
    /// room for MH to rearrange slack.
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

    #[test]
    fn mh_never_worsens_cost() {
        let arch = arch2();
        let app = spread_app(6);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(240),
            &future,
            &weights,
        );
        let im = initial_mapping(&ctx).unwrap();
        let im_cost = ctx.evaluate(&im).unwrap().cost.total;
        let out = mapping_heuristic(&ctx, im, &MhConfig::default()).unwrap();
        assert!(out.evaluation.cost.total <= im_cost + 1e-9);
        assert!(out.evaluation.table.is_deadline_clean());
    }

    #[test]
    fn mh_rejects_infeasible_start() {
        let arch = arch2();
        let app = spread_app(2);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(240),
            &future,
            &weights,
        );
        // Unmapped solution → MappingIncomplete (invalid input, not
        // infeasible).
        let err = mapping_heuristic(&ctx, Solution::new(), &MhConfig::default()).unwrap_err();
        assert!(matches!(err, MapError::InvalidInput(_)));
    }

    #[test]
    fn mh_stops_at_zero_cost() {
        let arch = arch2();
        let app = spread_app(1);
        // A tiny future application that always fits → cost 0 everywhere.
        let future = FutureProfile::new(
            Time::new(240),
            Time::new(1),
            Time::new(1),
            Histogram::point(Time::new(1)),
            Histogram::point(1u32),
        );
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(240),
            &future,
            &weights,
        );
        let im = initial_mapping(&ctx).unwrap();
        let evals_before = ctx.evaluation_count();
        let out = mapping_heuristic(&ctx, im, &MhConfig::default()).unwrap();
        assert_eq!(out.evaluation.cost.total, 0.0);
        assert_eq!(out.iterations, 0);
        // Only the initial evaluation should have happened.
        assert_eq!(ctx.evaluation_count(), evals_before + 1);
    }

    /// Regression test for widening re-evaluation waste: a local optimum
    /// that forces several widening rounds must evaluate each distinct
    /// move exactly once, not once per round.
    #[test]
    fn mh_widening_deduplicates_moves() {
        let arch = arch2();
        // 8 independent processes allowed on PE0 only: no remap moves,
        // and the single trailing gap makes every `ProcSlack { gap: 1 }`
        // trial infeasible — nothing improves, so MH widens 2 → 4 → 8.
        let mut g = ProcessGraph::new("g", Time::new(240), Time::new(240));
        for i in 0..8 {
            g.add_process(Process::new(format!("p{i}")).wcet(PeId(0), Time::new(20)));
        }
        let app = Application::new("app", vec![g]);
        // A future demand that can never be met keeps the cost positive
        // (no zero-cost early exit).
        let future = FutureProfile::new(
            Time::new(240),
            Time::new(10_000),
            Time::ZERO,
            Histogram::point(Time::new(240)),
            Histogram::point(1u32),
        );
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(240),
            &future,
            &weights,
        );
        let mut initial = Solution::new();
        for i in 0..8u32 {
            initial.mapping.assign(ProcRef::new(0, NodeId(i)), PeId(0));
        }
        let cfg = MhConfig {
            process_candidates: 2,
            ..MhConfig::default()
        };
        let out = mapping_heuristic(&ctx, initial, &cfg).unwrap();
        assert_eq!(out.iterations, 0, "nothing can improve");
        assert!(out.evaluation.cost.total > 0.0);
        // 1 initial evaluation + 8 distinct ProcSlack moves. The widening
        // rounds (2, 4, then 8 candidates) would re-evaluate 2 + 4 = 6 of
        // them again without dedupe (14 + 1 evaluations in total).
        assert_eq!(ctx.evaluation_count(), 1 + 8);
    }

    #[test]
    fn mh_improves_a_fragmented_start() {
        use incdes_sched::{JobId, ScheduleTable, ScheduledJob};
        let arch = arch2();
        // Frozen system: PE1 fully busy, PE0 blocked in [100, 120).
        let frozen = ScheduleTable::new(
            Time::new(240),
            vec![
                ScheduledJob {
                    job: JobId::new(AppId(99), 0, 0, NodeId(0)),
                    pe: PeId(0),
                    start: Time::new(100),
                    end: Time::new(120),
                    release: Time::ZERO,
                    deadline: Time::new(240),
                },
                ScheduledJob {
                    job: JobId::new(AppId(99), 0, 0, NodeId(1)),
                    pe: PeId(1),
                    start: Time::ZERO,
                    end: Time::new(240),
                    release: Time::ZERO,
                    deadline: Time::new(240),
                },
            ],
            vec![],
        );
        // Current app: two 40-tick processes, PE0 only.
        let mut g = ProcessGraph::new("g", Time::new(240), Time::new(240));
        let p1 = g.add_process(Process::new("p1").wcet(PeId(0), Time::new(40)));
        let p2 = g.add_process(Process::new("p2").wcet(PeId(0), Time::new(40)));
        let app = Application::new("app", vec![g]);
        // Future needs one contiguous 120-tick gap.
        let future = FutureProfile::new(
            Time::new(240),
            Time::new(120),
            Time::ZERO,
            Histogram::point(Time::new(120)),
            Histogram::point(1u32),
        );
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            Some(&frozen),
            Time::new(240),
            &future,
            &weights,
        );
        // Bad start: p2 skips into the gap after the blocker, splitting the
        // big slack so the 120-tick future item no longer fits anywhere.
        let mut bad = Solution::new();
        bad.mapping.assign(ProcRef::new(0, p1), PeId(0));
        bad.mapping.assign(ProcRef::new(0, p2), PeId(0));
        bad.hints.set_proc_gap(ProcRef::new(0, p2), 1);
        let bad_cost = ctx.evaluate(&bad).unwrap().cost.total;
        assert_eq!(bad_cost, 100.0, "bad start must strand the future app");
        let out = mapping_heuristic(&ctx, bad, &MhConfig::default()).unwrap();
        assert_eq!(
            out.evaluation.cost.total, 0.0,
            "MH should pull p2 back and restore the contiguous slack"
        );
        assert!(out.iterations >= 1);
    }
}
