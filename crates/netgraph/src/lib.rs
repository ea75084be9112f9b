//! # hft-netgraph
//!
//! A from-scratch graph substrate replacing the `networkx` usage in the
//! IMC'20 paper's tooling. It provides exactly the algorithms network
//! reconstruction and analysis need:
//!
//! * an undirected multigraph with typed node/edge payloads ([`Graph`]);
//! * Dijkstra single-source shortest paths with arbitrary non-negative
//!   edge costs and edge filtering ([`dijkstra`]) — heterogeneous speeds
//!   of light become edge costs — and the same search stopped at one
//!   target on reusable buffers ([`DijkstraWorkspace`]);
//! * Yen's algorithm for k-shortest loop-free paths ([`yen_k_shortest`]);
//! * enumeration of *all* loop-free paths within a cost bound
//!   ([`bounded_paths`]), pruned by reverse-Dijkstra potentials — this is
//!   what the paper's link-length CDF (Fig. 4a) is computed over;
//! * connectivity and bridge analysis ([`connected_components`],
//!   [`bridges`]) supporting the alternate-path-availability metric.
//!
//! ```
//! use hft_netgraph::{Graph, dijkstra};
//!
//! let mut g: Graph<&str, f64> = Graph::new();
//! let a = g.add_node("a");
//! let b = g.add_node("b");
//! let c = g.add_node("c");
//! g.add_edge(a, b, 1.0);
//! g.add_edge(b, c, 2.0);
//! g.add_edge(a, c, 10.0);
//! let sp = dijkstra(&g, a, |_, w| *w, |_| true);
//! assert_eq!(sp.distance(c), Some(3.0));
//! assert_eq!(sp.path_nodes(c).unwrap(), vec![a, b, c]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod connectivity;
mod disjoint;
mod graph;
mod paths;
mod shortest;
mod yen;

pub use connectivity::{bridges, connected_components, is_connected_between};
pub use disjoint::{disjoint_shortest_pair, DisjointPair};
pub use graph::{EdgeId, Graph, NodeId};
pub use paths::{bounded_paths, BoundedPathsConfig, PathSet};
pub use shortest::{dijkstra, DijkstraWorkspace, ShortestPaths};
pub use yen::{yen_k_shortest, CostedPath};
