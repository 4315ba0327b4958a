//! Partial-critical-path priorities.
//!
//! The list scheduler picks, among ready jobs, the one with the longest
//! remaining path to a sink of its process graph — execution times plus
//! estimated communication delays. This is the priority function of the
//! Heterogeneous Critical Path algorithm (Jorgensen & Madsen, CODES'97)
//! that the paper's initial mapping builds on.

use incdes_graph::{algo, NodeId};
use incdes_model::{Application, Architecture, PeId, ProcessGraph, Time};

/// The exact cost inputs of [`partial_critical_path`]: per-node costs
/// plus per-edge `(source, target, cost)` triples, in id order. The
/// priorities are a pure function of these values, so equality of two
/// `PriorityCosts` implies equality of the resulting priorities — which
/// is what makes this a *sound* cache key for the evaluation engine's
/// per-graph priority cache (an assignment vector alone would alias
/// graphs with different WCETs, topology or message sizes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PriorityCosts {
    nodes: Vec<u64>,
    edges: Vec<(u32, u32, u64)>,
}

impl PriorityCosts {
    /// An empty cost vector (fill it with [`PriorityCosts::fill`]).
    pub fn new() -> Self {
        PriorityCosts::default()
    }

    /// Derives the cost inputs of `graph` under `assigned` (indexed by
    /// node), reusing this value's allocations.
    ///
    /// * Node cost: WCET on the assigned PE when present, otherwise the
    ///   mean WCET over allowed PEs.
    /// * Edge cost: zero if both endpoints are assigned to the same PE,
    ///   otherwise an estimate made before (or instead of) exact
    ///   knowledge of slot timing: the transmission time plus half a bus
    ///   cycle of expected slot wait.
    pub fn fill(&mut self, arch: &Architecture, graph: &ProcessGraph, assigned: &[Option<PeId>]) {
        let dag = graph.dag();
        self.nodes.clear();
        self.edges.clear();
        for n in dag.node_ids() {
            let p = graph.process(n);
            self.nodes
                .push(match assigned[n.index()].and_then(|pe| p.wcets.get(pe)) {
                    Some(w) => w.ticks(),
                    None => p.wcets.average().unwrap_or(Time::ZERO).ticks(),
                });
        }
        let bus = arch.bus();
        let half_cycle = bus.cycle_length() / 2;
        for e in dag.edge_ids() {
            let (s, t) = dag.endpoints(e);
            let cost = match (assigned[s.index()], assigned[t.index()]) {
                (Some(a), Some(b)) if a == b => 0,
                _ => (bus.transmission_time(graph.message(e).bytes) + half_cycle).ticks(),
            };
            self.edges.push((s.index() as u32, t.index() as u32, cost));
        }
    }

    /// The partial-critical-path priorities under these costs, written
    /// into `out` (its allocation reused), over `topo`, a topological
    /// order of `graph` that the caller computed once: one backward walk,
    /// no allocation. Any topological order gives the same priorities.
    pub fn priorities_into(&self, graph: &ProcessGraph, topo: &[NodeId], out: &mut Vec<Time>) {
        let dag = graph.dag();
        debug_assert_eq!(self.nodes.len(), topo.len(), "costs match graph");
        out.clear();
        out.resize(topo.len(), Time::ZERO);
        for &v in topo.iter().rev() {
            let best = dag
                .out_edges(v)
                .iter()
                .map(|&e| self.edges[e.index()].2 + out[dag.target(e).index()].ticks())
                .max()
                .unwrap_or(0);
            out[v.index()] = Time::new(self.nodes[v.index()] + best);
        }
    }
}

/// Partial-critical-path priority of every node of `graph`, given an
/// (optional) mapping of nodes to PEs (`pe_of`), with the node and edge
/// costs of [`PriorityCosts::fill`].
///
/// # Panics
///
/// Panics if the graph is cyclic (validated applications never are).
pub fn partial_critical_path(
    arch: &Architecture,
    graph: &ProcessGraph,
    mut pe_of: impl FnMut(NodeId) -> Option<PeId>,
) -> Vec<Time> {
    let assigned: Vec<Option<PeId>> = graph.dag().node_ids().map(&mut pe_of).collect();
    let topo = algo::topological_order(graph.dag()).expect("process graphs are validated acyclic");
    let mut costs = PriorityCosts::new();
    costs.fill(arch, graph, &assigned);
    let mut out = Vec::new();
    costs.priorities_into(graph, &topo, &mut out);
    out
}

/// Partial-critical-path priorities for every graph of an application,
/// with no mapping knowledge (mean WCETs, estimated comm everywhere).
/// Indexed as `result[graph][node.index()]`.
pub fn app_priorities(arch: &Architecture, app: &Application) -> Vec<Vec<Time>> {
    app.graphs
        .iter()
        .map(|g| partial_critical_path(arch, g, |_| None))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use incdes_graph::EdgeId;
    use incdes_model::{Application, BusConfig, Message, Process, ProcessGraph};

    fn arch() -> Architecture {
        Architecture::builder()
            .pe("N1")
            .pe("N2")
            .bus(BusConfig::uniform_round(2, Time::new(10), 1).unwrap())
            .build()
            .unwrap()
    }

    /// a --m(4B)--> b, WCETs a: {pe0: 10, pe1: 20}, b: {pe1: 6}.
    fn chain() -> ProcessGraph {
        let mut g = ProcessGraph::new("g", Time::new(200), Time::new(200));
        let a = g.add_process(
            Process::new("a")
                .wcet(PeId(0), Time::new(10))
                .wcet(PeId(1), Time::new(20)),
        );
        let b = g.add_process(Process::new("b").wcet(PeId(1), Time::new(6)));
        g.add_message(a, b, Message::new("m", 4)).unwrap();
        g
    }

    #[test]
    fn estimated_comm_includes_half_cycle() {
        let a = arch();
        let g = chain();
        let mut costs = PriorityCosts::new();
        costs.fill(&a, &g, &[None, Some(PeId(1))]);
        // tx(4B at 1B/tick) = 4, cycle 20 → 4 + 10 = 14.
        assert_eq!(costs.edges, vec![(0, 1, 14)]);
        costs.fill(&a, &g, &[Some(PeId(1)), Some(PeId(1))]);
        assert_eq!(costs.edges, vec![(0, 1, 0)]);
    }

    #[test]
    fn unmapped_uses_mean_wcet_and_estimated_comm() {
        let a = arch();
        let g = chain();
        let p = partial_critical_path(&a, &g, |_| None);
        // b: 6. a: mean(10,20)=15 + comm 14 + 6 = 35.
        assert_eq!(p[1], Time::new(6));
        assert_eq!(p[0], Time::new(35));
    }

    #[test]
    fn same_pe_mapping_zeroes_comm() {
        let a = arch();
        let g = chain();
        let p = partial_critical_path(&a, &g, |_| Some(PeId(1)));
        // Both on pe1: a = 20 + 0 + 6 = 26.
        assert_eq!(p[0], Time::new(26));
    }

    #[test]
    fn cross_pe_mapping_uses_exact_wcets() {
        let a = arch();
        let g = chain();
        let p = partial_critical_path(&a, &g, |n| {
            Some(if n.index() == 0 { PeId(0) } else { PeId(1) })
        });
        // a on pe0 (10) + comm 14 + b 6 = 30.
        assert_eq!(p[0], Time::new(30));
    }

    #[test]
    fn app_priorities_shape() {
        let a = arch();
        let app = Application::new("app", vec![chain(), chain()]);
        let pr = app_priorities(&a, &app);
        assert_eq!(pr.len(), 2);
        assert_eq!(pr[0].len(), 2);
        assert_eq!(pr[0], pr[1]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Priorities written over a cached topological order into a
        /// reused buffer, and `partial_critical_path`'s, equal the
        /// construction they replace: `algo::longest_path_to_sink` over
        /// the costs as defined, for random DAGs under random partial
        /// mappings.
        #[test]
        fn cached_order_priorities_match_partial_critical_path(
            wcets in proptest::collection::vec((1u64..20, 1u64..20), 1..12),
            edges in proptest::collection::vec((0usize..12, 0usize..12, 0u32..20), 0..20),
            pes in proptest::collection::vec(0u32..3, 12),
        ) {
            let a = arch();
            let mut g = ProcessGraph::new("g", Time::new(200), Time::new(200));
            let nodes: Vec<NodeId> = wcets
                .iter()
                .enumerate()
                .map(|(i, &(w0, w1))| {
                    g.add_process(
                        Process::new(format!("p{i}"))
                            .wcet(PeId(0), Time::new(w0))
                            .wcet(PeId(1), Time::new(w1)),
                    )
                })
                .collect();
            for (i, &(s, t, bytes)) in edges.iter().enumerate() {
                let (s, t) = (s % nodes.len(), t % nodes.len());
                if s < t {
                    g.add_message(nodes[s], nodes[t], Message::new(format!("m{i}"), bytes))
                        .unwrap();
                }
            }
            // PE 2 stands for "not yet mapped".
            let assigned: Vec<Option<PeId>> = (0..nodes.len())
                .map(|i| Some(PeId(pes[i])).filter(|pe| pe.0 < 2))
                .collect();
            let bus = a.bus();
            let expected: Vec<Time> = algo::longest_path_to_sink(
                g.dag(),
                |n: NodeId| {
                    let p = g.process(n);
                    match assigned[n.index()].and_then(|pe| p.wcets.get(pe)) {
                        Some(w) => w.ticks(),
                        None => p.wcets.average().unwrap().ticks(),
                    }
                },
                |e: EdgeId| {
                    let (s, t) = g.dag().endpoints(e);
                    match (assigned[s.index()], assigned[t.index()]) {
                        (Some(x), Some(y)) if x == y => 0,
                        _ => (bus.transmission_time(g.message(e).bytes) + bus.cycle_length() / 2)
                            .ticks(),
                    }
                },
            )
            .unwrap()
            .into_iter()
            .map(Time::new)
            .collect();
            let topo = algo::topological_order(g.dag()).unwrap();
            let mut costs = PriorityCosts::new();
            costs.fill(&a, &g, &assigned);
            let mut out = vec![Time::new(7); 3];
            costs.priorities_into(&g, &topo, &mut out);
            proptest::prop_assert_eq!(&out, &expected);
            proptest::prop_assert_eq!(
                &partial_critical_path(&a, &g, |n| assigned[n.index()]),
                &expected
            );
        }
    }

    #[test]
    fn parallel_branches_prefer_long_one() {
        let a = arch();
        let mut g = ProcessGraph::new("g", Time::new(200), Time::new(200));
        let root = g.add_process(Process::new("r").wcet(PeId(0), Time::new(2)));
        let long = g.add_process(Process::new("long").wcet(PeId(0), Time::new(50)));
        let short = g.add_process(Process::new("short").wcet(PeId(0), Time::new(5)));
        g.add_message(root, long, Message::new("m1", 2)).unwrap();
        g.add_message(root, short, Message::new("m2", 2)).unwrap();
        let p = partial_critical_path(&a, &g, |_| Some(PeId(0)));
        assert!(p[long.index()] > p[short.index()]);
        assert_eq!(p[root.index()], Time::new(52));
    }
}
