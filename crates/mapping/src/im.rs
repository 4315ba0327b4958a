//! Initial mapping (IM), derived from the Heterogeneous Critical Path
//! algorithm of Jorgensen & Madsen (CODES'97).
//!
//! IM constructs a first design alternative that satisfies requirement
//! (a): a complete mapping with a valid static cyclic schedule, built
//! greedily around the frozen schedules of the existing applications. It
//! is also exactly the paper's *ad-hoc approach* (AH) — a good design for
//! the current application that ignores future applications.
//!
//! The construction probes the first instance of every process graph:
//! processes are visited in decreasing partial-critical-path priority;
//! each is tentatively placed on every allowed PE and committed to the one
//! giving the earliest finish time (accounting for TDMA message delays
//! from already-placed predecessors). If the resulting full-hyperperiod
//! schedule is infeasible, IM retries with deterministic perturbations
//! (remapping random processes to their next-best PE).

use crate::context::{MapError, MappingContext};
use crate::solution::Solution;
use incdes_graph::NodeId;
use incdes_model::{PeId, ProcRef, Time};
use incdes_sched::{priority, Mapping};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Number of repair attempts when the probe mapping turns out infeasible
/// on the full hyperperiod.
const REPAIR_ATTEMPTS: usize = 64;

/// Builds the initial solution.
///
/// # Errors
///
/// [`MapError::EmptyApplication`] if the application has no processes;
/// [`MapError::Infeasible`] if no valid schedule was found (the system is
/// too loaded); [`MapError::InvalidInput`] for malformed inputs.
pub fn initial_mapping(ctx: &MappingContext<'_>) -> Result<Solution, MapError> {
    if ctx.app.process_count() == 0 {
        return Err(MapError::EmptyApplication);
    }
    let probe = hcp_probe(ctx)?;
    let solution = Solution::from_mapping(probe);

    // The probe only looked at instance 0 of each graph; verify on the
    // full hyperperiod and repair if needed.
    match ctx.score(&solution) {
        Ok(_) => Ok(solution),
        Err(e) if !e.is_infeasible() => Err(MapError::InvalidInput(e)),
        Err(first) => repair(ctx, solution, first),
    }
}

/// Greedy HCP construction over instance 0 of every graph.
fn hcp_probe(ctx: &MappingContext<'_>) -> Result<Mapping, MapError> {
    let arch = ctx.arch;
    let app = ctx.app;

    // Frozen occupancy, straight from the baked base.
    let (mut pes, mut bus) = ctx.frozen_occupancy().map_err(MapError::InvalidInput)?;

    let priorities = priority::app_priorities(arch, app);

    // Ready-list construction over all graphs (instance 0 each).
    let mut preds_left: Vec<Vec<u32>> = app
        .graphs
        .iter()
        .map(|g| {
            g.dag()
                .node_ids()
                .map(|n| g.dag().in_degree(n) as u32)
                .collect()
        })
        .collect();
    let mut finish: Vec<Vec<Option<(Time, PeId)>>> = app
        .graphs
        .iter()
        .map(|g| vec![None; g.process_count()])
        .collect();
    let mut ready: Vec<(usize, NodeId)> = Vec::new();
    for (gi, g) in app.graphs.iter().enumerate() {
        for n in g.dag().node_ids() {
            if preds_left[gi][n.index()] == 0 {
                ready.push((gi, n));
            }
        }
    }

    let mut mapping = Mapping::new();
    let total = app.process_count();
    for _ in 0..total {
        // Highest partial critical path first; deterministic tie-break.
        ready.sort_by(|&(ga, na), &(gb, nb)| {
            priorities[ga][na.index()]
                .cmp(&priorities[gb][nb.index()])
                .then_with(|| gb.cmp(&ga))
                .then_with(|| nb.cmp(&na))
        });
        let (gi, n) = ready.pop().ok_or(MapError::Infeasible {
            last: incdes_sched::SchedError::BadHorizon {
                horizon: ctx.horizon,
            },
        })?;
        let g = &app.graphs[gi];
        let proc = g.process(n);

        // Try each allowed PE; earliest finish wins.
        let mut best: Option<(Time, Time, PeId)> = None; // (finish, ready, pe)
        for (pe, wcet) in proc.wcets.iter() {
            if pe.index() >= arch.pe_count() {
                continue;
            }
            let mut data_ready = Time::ZERO;
            let mut feasible = true;
            for &e in g.dag().in_edges(n) {
                let p = g.dag().source(e);
                let (pf, ppe) = finish[gi][p.index()].expect("predecessors are placed first");
                let avail = if ppe == pe {
                    pf
                } else {
                    let tx = arch.bus().transmission_time(g.message(e).bytes);
                    match bus.peek_message(ppe, pf, tx) {
                        Ok(r) => r.arrival,
                        Err(_) => {
                            feasible = false;
                            break;
                        }
                    }
                };
                data_ready = data_ready.max(avail);
            }
            if !feasible {
                continue;
            }
            let Ok(start) = pes[pe.index()].peek_earliest(data_ready, wcet, 0) else {
                continue;
            };
            let f = start + wcet;
            let better = match best {
                None => true,
                Some((bf, _, bpe)) => {
                    f < bf
                        || (f == bf && pes[pe.index()].busy_time() < pes[bpe.index()].busy_time())
                }
            };
            if better {
                best = Some((f, data_ready, pe));
            }
        }
        let Some((_, _, pe)) = best else {
            return Err(MapError::Infeasible {
                last: incdes_sched::SchedError::NoGap {
                    job: incdes_sched::JobId::new(ctx.app_id, gi, 0, n),
                    source: incdes_sched::pe_timeline::PeTimelineError::NoGap {
                        ready: Time::ZERO,
                        duration: proc.wcets.max().unwrap_or(Time::ZERO),
                        skipped: 0,
                    },
                },
            });
        };

        // Commit: schedule the incoming messages for real, then the process.
        let wcet = proc.wcets.get(pe).expect("pe came from the table");
        let mut data_ready = Time::ZERO;
        for &e in g.dag().in_edges(n) {
            let p = g.dag().source(e);
            let (pf, ppe) = finish[gi][p.index()].expect("predecessors are placed first");
            let avail = if ppe == pe {
                pf
            } else {
                let tx = arch.bus().transmission_time(g.message(e).bytes);
                bus.schedule_message(ppe, pf, tx)
                    .map_err(|_| MapError::Infeasible {
                        last: incdes_sched::SchedError::BadHorizon {
                            horizon: ctx.horizon,
                        },
                    })?
                    .arrival
            };
            data_ready = data_ready.max(avail);
        }
        let start = pes[pe.index()]
            .reserve_earliest(data_ready, wcet, 0)
            .map_err(|source| MapError::Infeasible {
                last: incdes_sched::SchedError::NoGap {
                    job: incdes_sched::JobId::new(ctx.app_id, gi, 0, n),
                    source,
                },
            })?;
        finish[gi][n.index()] = Some((start + wcet, pe));
        mapping.assign(ProcRef::new(gi, n), pe);

        for s in g.dag().successors(n) {
            preds_left[gi][s.index()] -= 1;
            if preds_left[gi][s.index()] == 0 {
                ready.push((gi, s));
            }
        }
    }
    Ok(mapping)
}

/// Deterministic random repair: remap random processes to random allowed
/// PEs (in the architecture, as the probe's) until the full-hyperperiod
/// schedule becomes feasible.
fn repair(
    ctx: &MappingContext<'_>,
    mut solution: Solution,
    first: incdes_sched::SchedError,
) -> Result<Solution, MapError> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1D5_C0DE);
    let procs = ctx.allowed_pes();
    let mut last = first;
    for _ in 0..REPAIR_ATTEMPTS {
        let Some((pr, pes)) = procs.choose(&mut rng) else {
            break;
        };
        if pes.is_empty() {
            continue;
        }
        let pe = pes[rng.gen_range(0..pes.len())];
        let prev = solution.mapping.assign(*pr, pe);
        match ctx.score(&solution) {
            Ok(_) => return Ok(solution),
            Err(e) if !e.is_infeasible() => return Err(MapError::InvalidInput(e)),
            Err(e) => {
                last = e;
                // Keep the perturbation half the time so the walk can
                // escape locally-stuck regions; otherwise undo it.
                if rng.gen_bool(0.5) {
                    if let Some(p) = prev {
                        solution.mapping.assign(*pr, p);
                    }
                }
            }
        }
    }
    Err(MapError::Infeasible { last })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn chain_app() -> Application {
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(120));
        let a = g.add_process(
            Process::new("a")
                .wcet(PeId(0), Time::new(8))
                .wcet(PeId(1), Time::new(20)),
        );
        let b = g.add_process(
            Process::new("b")
                .wcet(PeId(0), Time::new(30))
                .wcet(PeId(1), Time::new(6)),
        );
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        Application::new("app", vec![g])
    }

    #[test]
    fn im_produces_feasible_solution() {
        let arch = arch2();
        let app = chain_app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        let sol = initial_mapping(&ctx).unwrap();
        assert_eq!(sol.mapping.len(), 2);
        let eval = ctx.evaluate(&sol).unwrap();
        assert!(eval.cost.is_feasible());
        assert!(eval.table.is_deadline_clean());
    }

    #[test]
    fn im_prefers_fast_pes() {
        // a is much faster on pe0, b on pe1, comm is cheap → expect the
        // heterogeneous split.
        let arch = arch2();
        let app = chain_app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        let sol = initial_mapping(&ctx).unwrap();
        assert_eq!(sol.mapping.pe_of(ProcRef::new(0, NodeId(0))), Some(PeId(0)));
        // b: on pe0 it would start at 8 and end 38; on pe1 the message
        // arrives at 24 and ends 30 → pe1 wins.
        assert_eq!(sol.mapping.pe_of(ProcRef::new(0, NodeId(1))), Some(PeId(1)));
    }

    #[test]
    fn im_empty_app_rejected() {
        let arch = arch2();
        let app = Application::new("empty", vec![]);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        assert_eq!(
            initial_mapping(&ctx).unwrap_err(),
            MapError::EmptyApplication
        );
    }

    #[test]
    fn im_reports_infeasible_overload() {
        let arch = arch2();
        // 3 processes of 50 ticks, single allowed PE, period 120: 150 > 120.
        let mut g = ProcessGraph::new("g", Time::new(120), Time::new(120));
        for i in 0..3 {
            g.add_process(Process::new(format!("p{i}")).wcet(PeId(0), Time::new(50)));
        }
        let app = Application::new("app", vec![g]);
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        let ctx = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        assert!(matches!(
            initial_mapping(&ctx).unwrap_err(),
            MapError::Infeasible { .. }
        ));
    }

    #[test]
    fn im_respects_frozen_schedule() {
        let arch = arch2();
        let app = chain_app();
        let future = FutureProfile::slide_example();
        let weights = Weights::default();
        // First commit one copy.
        let ctx0 = MappingContext::new(
            &arch,
            AppId(0),
            &app,
            None,
            Time::new(120),
            &future,
            &weights,
        );
        let sol0 = initial_mapping(&ctx0).unwrap();
        let eval0 = ctx0.evaluate(&sol0).unwrap();

        // Then map a second copy with the first frozen.
        let app2 = chain_app();
        let ctx1 = MappingContext::new(
            &arch,
            AppId(1),
            &app2,
            Some(&eval0.table),
            Time::new(120),
            &future,
            &weights,
        );
        let sol1 = initial_mapping(&ctx1).unwrap();
        let eval1 = ctx1.evaluate(&sol1).unwrap();
        // Frozen jobs unmoved.
        for j in eval0.table.jobs() {
            let same = eval1.table.job(j.job).unwrap();
            assert_eq!(same.start, j.start);
            assert_eq!(same.pe, j.pe);
        }
        assert!(eval1.table.is_deadline_clean());
    }
}
