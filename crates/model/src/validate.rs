//! Structural validation of applications against an architecture.
//!
//! Catches data errors before mapping/scheduling: cyclic process graphs,
//! processes with no allowed PE, WCETs of zero, deadlines longer than
//! periods, and messages that cannot fit into any slot of a potential
//! sender.

use crate::app::{Application, ProcRef};
use crate::arch::Architecture;
use crate::time::Time;
use incdes_graph::algo;
use std::fmt;

/// A structural error in an application/architecture pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The application contains no process graphs, or a graph no processes.
    EmptyApplication,
    /// A process graph has a dependency cycle.
    CyclicGraph {
        /// Index of the graph in the application.
        graph: usize,
    },
    /// A graph's period is zero.
    ZeroPeriod {
        /// Index of the graph.
        graph: usize,
    },
    /// A graph's deadline is zero or exceeds its period.
    BadDeadline {
        /// Index of the graph.
        graph: usize,
        /// The deadline found.
        deadline: Time,
        /// The period found.
        period: Time,
    },
    /// A process may not be mapped to any PE of the architecture.
    Unmappable {
        /// The process.
        proc_ref: ProcRef,
    },
    /// A process has a WCET of zero on some allowed PE.
    ZeroWcet {
        /// The process.
        proc_ref: ProcRef,
    },
    /// A message is too large for the longest slot of some PE its sender
    /// may be mapped to — it could never be transmitted from there.
    MessageTooLarge {
        /// Graph index.
        graph: usize,
        /// Message name.
        message: String,
        /// Size in bytes.
        bytes: u32,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::EmptyApplication => write!(f, "application has no processes"),
            ModelError::CyclicGraph { graph } => {
                write!(f, "process graph {graph} has a dependency cycle")
            }
            ModelError::ZeroPeriod { graph } => write!(f, "process graph {graph} has period zero"),
            ModelError::BadDeadline { graph, deadline, period } => write!(
                f,
                "process graph {graph} has deadline {deadline} outside (0, period {period}]"
            ),
            ModelError::Unmappable { proc_ref } => {
                write!(f, "process {proc_ref} has no allowed PE in the architecture")
            }
            ModelError::ZeroWcet { proc_ref } => {
                write!(f, "process {proc_ref} has a WCET of zero")
            }
            ModelError::MessageTooLarge { graph, message, bytes } => write!(
                f,
                "message '{message}' ({bytes} bytes) in graph {graph} exceeds every slot of a potential sender"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

/// Validates `app` against `arch`.
///
/// # Errors
///
/// Returns the first [`ModelError`] found, in deterministic order (graphs
/// in index order, nodes in id order).
pub fn check_application(app: &Application, arch: &Architecture) -> Result<(), ModelError> {
    if app.graphs.is_empty() || app.graphs.iter().any(|g| g.process_count() == 0) {
        return Err(ModelError::EmptyApplication);
    }
    // Each PE's longest slot in the cycle (zero for a PE owning none),
    // from one walk of the slots.
    let mut longest = vec![Time::ZERO; arch.pe_count()];
    for slot in arch.bus().rounds.iter().flat_map(|r| &r.slots) {
        if let Some(l) = longest.get_mut(slot.owner.index()) {
            *l = (*l).max(slot.length);
        }
    }
    for (gi, g) in app.graphs.iter().enumerate() {
        if !algo::is_acyclic(g.dag()) {
            return Err(ModelError::CyclicGraph { graph: gi });
        }
        if g.period.is_zero() {
            return Err(ModelError::ZeroPeriod { graph: gi });
        }
        if g.deadline.is_zero() || g.deadline > g.period {
            return Err(ModelError::BadDeadline {
                graph: gi,
                deadline: g.deadline,
                period: g.period,
            });
        }
        for n in g.dag().node_ids() {
            // PEs beyond the architecture are ignored.
            let (mut allowed, mut zero) = (false, false);
            for (_, w) in g
                .process(n)
                .wcets
                .iter()
                .filter(|(pe, _)| pe.index() < longest.len())
            {
                allowed = true;
                zero |= w.is_zero();
            }
            if !allowed {
                return Err(ModelError::Unmappable {
                    proc_ref: ProcRef::new(gi, n),
                });
            }
            if zero {
                return Err(ModelError::ZeroWcet {
                    proc_ref: ProcRef::new(gi, n),
                });
            }
        }
        for e in g.dag().edge_ids() {
            let m = g.message(e);
            let tx = arch.bus().transmission_time(m.bytes);
            // Every PE the sender may be mapped to must own a slot long
            // enough for the message.
            let src = g.dag().source(e);
            let too_large = g
                .process(src)
                .wcets
                .iter()
                .any(|(pe, _)| longest.get(pe.index()).is_some_and(|&l| tx > l));
            if too_large {
                return Err(ModelError::MessageTooLarge {
                    graph: gi,
                    message: m.name.clone(),
                    bytes: m.bytes,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Message, Process, ProcessGraph};
    use crate::arch::{BusConfig, PeId, Round, Slot};
    use incdes_graph::NodeId;

    fn arch() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, Time::new(8), 1).unwrap())
            .build()
            .unwrap()
    }

    fn valid_graph() -> ProcessGraph {
        let mut g = ProcessGraph::new("g", Time::new(100), Time::new(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), Time::new(5)));
        let b = g.add_process(Process::new("b").wcet(PeId(1), Time::new(5)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        g
    }

    #[test]
    fn valid_application_passes() {
        let app = Application::new("app", vec![valid_graph()]);
        assert_eq!(check_application(&app, &arch()), Ok(()));
    }

    #[test]
    fn empty_application_rejected() {
        let app = Application::new("app", vec![]);
        assert_eq!(
            check_application(&app, &arch()),
            Err(ModelError::EmptyApplication)
        );
        let empty_graph = ProcessGraph::new("g", Time::new(10), Time::new(10));
        let app = Application::new("app", vec![empty_graph]);
        assert_eq!(
            check_application(&app, &arch()),
            Err(ModelError::EmptyApplication)
        );
    }

    #[test]
    fn cyclic_graph_rejected() {
        let mut g = ProcessGraph::new("g", Time::new(10), Time::new(10));
        let a = g.add_process(Process::new("a").wcet(PeId(0), Time::new(1)));
        let b = g.add_process(Process::new("b").wcet(PeId(0), Time::new(1)));
        g.add_message(a, b, Message::new("m1", 1)).unwrap();
        g.add_message(b, a, Message::new("m2", 1)).unwrap();
        let app = Application::new("app", vec![g]);
        assert_eq!(
            check_application(&app, &arch()),
            Err(ModelError::CyclicGraph { graph: 0 })
        );
    }

    #[test]
    fn zero_period_rejected() {
        let mut g = ProcessGraph::new("g", Time::ZERO, Time::ZERO);
        g.add_process(Process::new("a").wcet(PeId(0), Time::new(1)));
        let app = Application::new("app", vec![g]);
        assert_eq!(
            check_application(&app, &arch()),
            Err(ModelError::ZeroPeriod { graph: 0 })
        );
    }

    #[test]
    fn deadline_beyond_period_rejected() {
        let mut g = ProcessGraph::new("g", Time::new(50), Time::new(60));
        g.add_process(Process::new("a").wcet(PeId(0), Time::new(1)));
        let app = Application::new("app", vec![g]);
        assert!(matches!(
            check_application(&app, &arch()),
            Err(ModelError::BadDeadline { graph: 0, .. })
        ));
    }

    #[test]
    fn unmappable_process_rejected() {
        let mut g = ProcessGraph::new("g", Time::new(50), Time::new(50));
        // Only allowed on PE 5, which does not exist.
        g.add_process(Process::new("a").wcet(PeId(5), Time::new(1)));
        let app = Application::new("app", vec![g]);
        assert!(matches!(
            check_application(&app, &arch()),
            Err(ModelError::Unmappable { .. })
        ));
    }

    #[test]
    fn zero_wcet_rejected() {
        let mut g = ProcessGraph::new("g", Time::new(50), Time::new(50));
        g.add_process(Process::new("a").wcet(PeId(0), Time::ZERO));
        let app = Application::new("app", vec![g]);
        assert!(matches!(
            check_application(&app, &arch()),
            Err(ModelError::ZeroWcet { .. })
        ));
    }

    #[test]
    fn oversized_message_rejected() {
        let mut g = ProcessGraph::new("g", Time::new(100), Time::new(100));
        let a = g.add_process(Process::new("a").wcet(PeId(0), Time::new(5)));
        let b = g.add_process(Process::new("b").wcet(PeId(1), Time::new(5)));
        // Slots are 8 ticks at 1 byte/tick; 20 bytes can never fit.
        g.add_message(a, b, Message::new("big", 20)).unwrap();
        let app = Application::new("app", vec![g]);
        assert!(matches!(
            check_application(&app, &arch()),
            Err(ModelError::MessageTooLarge { bytes: 20, .. })
        ));
    }

    /// The longest slot owned by `pe` anywhere in the cycle (zero for a
    /// PE owning none), by a scan of every slot: the oracle's per-message
    /// lookup.
    fn longest_slot_of(bus: &BusConfig, pe: PeId) -> Time {
        bus.rounds
            .iter()
            .flat_map(|r| &r.slots)
            .filter(|s| s.owner == pe)
            .map(|s| s.length)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// The validator as it was before it computed each PE's longest slot
    /// once per call: the oracle of the differential property below.
    fn check_application_oracle(app: &Application, arch: &Architecture) -> Result<(), ModelError> {
        if app.graphs.is_empty() || app.graphs.iter().any(|g| g.process_count() == 0) {
            return Err(ModelError::EmptyApplication);
        }
        for (gi, g) in app.graphs.iter().enumerate() {
            if !algo::is_acyclic(g.dag()) {
                return Err(ModelError::CyclicGraph { graph: gi });
            }
            if g.period.is_zero() {
                return Err(ModelError::ZeroPeriod { graph: gi });
            }
            if g.deadline.is_zero() || g.deadline > g.period {
                return Err(ModelError::BadDeadline {
                    graph: gi,
                    deadline: g.deadline,
                    period: g.period,
                });
            }
            for n in g.dag().node_ids() {
                let p = g.process(n);
                let allowed: Vec<_> = p
                    .wcets
                    .iter()
                    .filter(|(pe, _)| pe.index() < arch.pe_count())
                    .collect();
                if allowed.is_empty() {
                    return Err(ModelError::Unmappable {
                        proc_ref: ProcRef::new(gi, n),
                    });
                }
                if allowed.iter().any(|&(_, w)| w.is_zero()) {
                    return Err(ModelError::ZeroWcet {
                        proc_ref: ProcRef::new(gi, n),
                    });
                }
            }
            for e in g.dag().edge_ids() {
                let m = g.message(e);
                let tx = arch.bus().transmission_time(m.bytes);
                let src = g.dag().source(e);
                for (pe, _) in g.process(src).wcets.iter() {
                    if pe.index() >= arch.pe_count() {
                        continue;
                    }
                    if tx > longest_slot_of(arch.bus(), pe) {
                        return Err(ModelError::MessageTooLarge {
                            graph: gi,
                            message: m.name.clone(),
                            bytes: m.bytes,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Three PEs; PE 2 owns one long slot in the second round and none in
    /// the first, so the longest slot differs per PE.
    fn uneven_arch() -> Architecture {
        let round = |slots: &[(u32, u64)]| {
            Round::new(
                slots
                    .iter()
                    .map(|&(pe, len)| Slot::new(PeId(pe), Time::new(len)))
                    .collect(),
            )
        };
        Architecture::builder()
            .pe("N0")
            .pe("N1")
            .pe("N2")
            .bus(
                BusConfig::new(
                    vec![round(&[(0, 4), (1, 6)]), round(&[(1, 3), (0, 5), (2, 9)])],
                    1,
                )
                .unwrap(),
            )
            .build()
            .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The validator agrees with the oracle, error and all, on random
        /// applications: valid ones and ones with cycles, zero or
        /// off-architecture WCETs, bad periods or deadlines and messages
        /// too large for some sender PE's slots.
        #[test]
        fn check_application_matches_the_oracle(
            graphs in proptest::collection::vec(
                (
                    proptest::collection::vec((0u32..4, 0u64..12, 0u32..4, 0u64..12), 1..6),
                    proptest::collection::vec((0usize..6, 0usize..6, 0u32..8), 0..6),
                    0u64..10,
                    0u64..10,
                ),
                0..4,
            ),
        ) {
            let arch = uneven_arch();
            let app_graphs = graphs
                .iter()
                .enumerate()
                .map(|(gi, (procs, edges, period, deadline))| {
                    // Mostly valid: a zero period, a zero deadline or one
                    // past the period one time in ten each.
                    let period = Time::new(*period * 60);
                    let deadline = match deadline {
                        0 => Time::ZERO,
                        1 => period + Time::new(30),
                        _ => period,
                    };
                    let mut g = ProcessGraph::new(format!("g{gi}"), period, deadline);
                    // PE 3 is off the architecture and WCET 0 is zero, each
                    // one time in four or twelve.
                    for (i, &(pe_a, w_a, pe_b, w_b)) in procs.iter().enumerate() {
                        g.add_process(
                            Process::new(format!("p{i}"))
                                .wcet(PeId(pe_a), Time::new(w_a))
                                .wcet(PeId(pe_b), Time::new(w_b + 1)),
                        );
                    }
                    // Edges run forward, except the one in six whose
                    // endpoints come out equal and get reversed into a
                    // back edge, which may close a cycle. Messages of more
                    // than 5 bytes overflow some PE's longest slot.
                    let n = procs.len();
                    for (ei, &(s, t, bytes)) in edges.iter().enumerate() {
                        let (s, t) = (s % n, t % n);
                        let (s, t) = match s.cmp(&t) {
                            std::cmp::Ordering::Less => (s, t),
                            std::cmp::Ordering::Greater => (t, s),
                            std::cmp::Ordering::Equal => (n - 1, 0),
                        };
                        if s != t {
                            g.add_message(
                                NodeId(s as u32),
                                NodeId(t as u32),
                                Message::new(format!("m{ei}"), bytes),
                            )
                            .unwrap();
                        }
                    }
                    g
                })
                .collect();
            let app = Application::new("app", app_graphs);
            proptest::prop_assert_eq!(
                check_application(&app, &arch),
                check_application_oracle(&app, &arch)
            );
        }
    }

    #[test]
    fn error_messages_are_descriptive() {
        let e = ModelError::BadDeadline {
            graph: 3,
            deadline: Time::new(70),
            period: Time::new(50),
        };
        let s = e.to_string();
        assert!(s.contains("graph 3") && s.contains("70t") && s.contains("50t"));
    }
}
