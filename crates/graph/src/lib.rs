//! Minimal directed-graph substrate for the `incdes` workspace.
//!
//! The incremental-design algorithms of Pop et al. (DAC 2001) operate on
//! *process graphs*: directed acyclic graphs whose nodes are processes and
//! whose edges are messages. This crate provides exactly the graph
//! operations those algorithms need — nothing more:
//!
//! * a compact adjacency-list [`Dag`] with typed node/edge payloads,
//! * Kahn topological ordering and cycle detection ([`algo::topological_order`]),
//! * longest-path (critical-path) computations ([`algo::longest_path_to_sink`]),
//! * reachability / transitive successor queries ([`algo::reachable_from`]).
//!
//! # Example
//!
//! ```
//! use incdes_graph::{Dag, algo};
//!
//! let mut g: Dag<&str, u64> = Dag::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, 1).unwrap();
//! g.add_edge(b, c, 2).unwrap();
//! let order = algo::topological_order(&g).unwrap();
//! assert_eq!(order, vec![a, b, c]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo;
pub mod dag;

pub use algo::CycleError;
pub use dag::{Dag, EdgeId, NodeId};
