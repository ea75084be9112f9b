//! Dijkstra single-source shortest paths with filtered edges.

use crate::graph::{EdgeId, Graph, NodeId};
use core::cmp::Ordering;
use std::collections::BinaryHeap;

/// Min-heap entry; `BinaryHeap` is a max-heap so ordering is reversed.
#[derive(Debug)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on distance for a min-heap; break ties on node id so the
        // order (and thus returned paths) is fully deterministic.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// The shortest-path tree produced by [`dijkstra`].
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
}

impl ShortestPaths {
    /// The source node the tree was grown from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Shortest distance from the source to `node`, or `None` if
    /// unreachable.
    pub fn distance(&self, node: NodeId) -> Option<f64> {
        let d = self.dist[node.index()];
        d.is_finite().then_some(d)
    }

    /// All distances, indexed by node index; unreachable nodes hold
    /// `f64::INFINITY`. Useful as a potential/heuristic table.
    pub fn distances(&self) -> &[f64] {
        &self.dist
    }

    /// Shortest path to `target` as a node sequence `source..=target`, or
    /// `None` if unreachable.
    pub fn path_nodes(&self, target: NodeId) -> Option<Vec<NodeId>> {
        self.path(target).map(|(nodes, _)| nodes)
    }

    /// Shortest path to `target` as the edge sequence walked, or `None` if
    /// unreachable.
    pub fn path_edges(&self, target: NodeId) -> Option<Vec<EdgeId>> {
        self.path(target).map(|(_, edges)| edges)
    }

    /// Shortest path to `target` as `(nodes, edges)`; `nodes.len() ==
    /// edges.len() + 1`. `None` if unreachable.
    pub fn path(&self, target: NodeId) -> Option<(Vec<NodeId>, Vec<EdgeId>)> {
        if !self.dist[target.index()].is_finite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut cur = target;
        while let Some((p, e)) = self.prev[cur.index()] {
            nodes.push(p);
            edges.push(e);
            cur = p;
        }
        debug_assert_eq!(cur, self.source);
        nodes.reverse();
        edges.reverse();
        Some((nodes, edges))
    }
}

/// Dijkstra's algorithm from `source` over edges passing `filter`, with
/// per-edge non-negative costs from `cost`.
///
/// `cost` receives the edge id and payload; negative or NaN costs panic in
/// debug builds and are clamped to zero in release (latency costs are
/// physically non-negative, so this is strictly a data-error guard).
pub fn dijkstra<N, E>(
    graph: &Graph<N, E>,
    source: NodeId,
    cost: impl FnMut(EdgeId, &E) -> f64,
    filter: impl FnMut(EdgeId) -> bool,
) -> ShortestPaths {
    let mut search = DijkstraWorkspace::new();
    search.grow(graph, source, None, cost, filter);
    ShortestPaths {
        source,
        dist: search.dist,
        prev: search.prev,
    }
}

/// The buffers of one Dijkstra run, kept between runs so a caller that
/// probes one graph many times (a Monte Carlo over link failures)
/// allocates them once. [`dijkstra`] is the same search run to
/// completion on a fresh workspace.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
}

impl DijkstraWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> DijkstraWorkspace {
        DijkstraWorkspace::default()
    }

    /// Shortest distance from `source` to `target` over edges passing
    /// `filter`, or `None` if unreachable: bit for bit
    /// `dijkstra(graph, source, cost, filter).distance(target)`.
    ///
    /// The search is the identical run stopped when `target` settles. A
    /// settled label never changes again, so stopping early truncates
    /// the run without altering the answer.
    pub fn distance<N, E>(
        &mut self,
        graph: &Graph<N, E>,
        source: NodeId,
        target: NodeId,
        cost: impl FnMut(EdgeId, &E) -> f64,
        filter: impl FnMut(EdgeId) -> bool,
    ) -> Option<f64> {
        self.grow(graph, source, Some(target), cost, filter);
        let d = self.dist[target.index()];
        d.is_finite().then_some(d)
    }

    /// The one Dijkstra loop: grow the shortest-path tree from `source`
    /// until `stop` settles, or until every reachable node has.
    fn grow<N, E>(
        &mut self,
        graph: &Graph<N, E>,
        source: NodeId,
        stop: Option<NodeId>,
        mut cost: impl FnMut(EdgeId, &E) -> f64,
        mut filter: impl FnMut(EdgeId) -> bool,
    ) {
        let n = graph.node_count();
        self.dist.clear();
        self.dist.resize(n, f64::INFINITY);
        self.prev.clear();
        self.prev.resize(n, None);
        self.settled.clear();
        self.settled.resize(n, false);
        self.heap.clear();

        self.dist[source.index()] = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: source,
        });

        while let Some(HeapEntry { dist: d, node: u }) = self.heap.pop() {
            if self.settled[u.index()] {
                continue;
            }
            self.settled[u.index()] = true;
            if stop == Some(u) {
                return;
            }
            for (e, v) in graph.neighbors(u) {
                if self.settled[v.index()] || !filter(e) {
                    continue;
                }
                let w = cost(e, graph.edge(e));
                debug_assert!(w >= 0.0 && !w.is_nan(), "negative/NaN edge cost on {e}");
                let w = if w.is_nan() { 0.0 } else { w.max(0.0) };
                let nd = d + w;
                if nd < self.dist[v.index()] {
                    self.dist[v.index()] = nd;
                    self.prev[v.index()] = Some((u, e));
                    self.heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the classic diamond: a-b-d (cost 3), a-c-d (cost 3), a-d (cost 7).
    fn diamond() -> (Graph<(), f64>, [NodeId; 4]) {
        let mut g = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, d, 2.0);
        g.add_edge(a, c, 2.0);
        g.add_edge(c, d, 1.0);
        g.add_edge(a, d, 7.0);
        (g, [a, b, c, d])
    }

    #[test]
    fn finds_min_cost_path() {
        let (g, [a, _, _, d]) = diamond();
        let sp = dijkstra(&g, a, |_, w| *w, |_| true);
        assert_eq!(sp.distance(d), Some(3.0));
        let nodes = sp.path_nodes(d).unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0], a);
        assert_eq!(nodes[2], d);
    }

    #[test]
    fn source_distance_zero_and_empty_path() {
        let (g, [a, ..]) = diamond();
        let sp = dijkstra(&g, a, |_, w| *w, |_| true);
        assert_eq!(sp.distance(a), Some(0.0));
        assert_eq!(sp.path_nodes(a).unwrap(), vec![a]);
        assert!(sp.path_edges(a).unwrap().is_empty());
    }

    #[test]
    fn unreachable_is_none() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 1.0);
        let sp = dijkstra(&g, a, |_, w| *w, |_| true);
        assert_eq!(sp.distance(c), None);
        assert!(sp.path(c).is_none());
    }

    #[test]
    fn edge_filter_forces_detour() {
        let (g, [a, b, _, d]) = diamond();
        // Block the b-route's first edge: a-b is edge 0.
        let blocked = g.find_edge(a, b).unwrap();
        let sp = dijkstra(&g, a, |_, w| *w, |e| e != blocked);
        assert_eq!(sp.distance(d), Some(3.0)); // c-route still 3.0
        let sp_all_blocked = dijkstra(&g, a, |_, w| *w, |e| e.index() >= 4);
        assert_eq!(sp_all_blocked.distance(d), Some(7.0)); // only direct edge left
    }

    #[test]
    fn multi_edge_takes_cheapest() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 5.0);
        let cheap = g.add_edge(a, b, 2.0);
        let sp = dijkstra(&g, a, |_, w| *w, |_| true);
        assert_eq!(sp.distance(b), Some(2.0));
        assert_eq!(sp.path_edges(b).unwrap(), vec![cheap]);
    }

    #[test]
    fn path_edges_consistent_with_nodes() {
        let (g, [a, _, _, d]) = diamond();
        let sp = dijkstra(&g, a, |_, w| *w, |_| true);
        let (nodes, edges) = sp.path(d).unwrap();
        assert_eq!(nodes.len(), edges.len() + 1);
        for (i, e) in edges.iter().enumerate() {
            let (u, v) = g.endpoints(*e);
            assert!(
                (u == nodes[i] && v == nodes[i + 1]) || (v == nodes[i] && u == nodes[i + 1]),
                "edge {i} does not connect consecutive path nodes"
            );
        }
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-cost routes; run twice and expect identical paths.
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, d, 1.0);
        g.add_edge(a, c, 1.0);
        g.add_edge(c, d, 1.0);
        let p1 = dijkstra(&g, a, |_, w| *w, |_| true).path_nodes(d).unwrap();
        let p2 = dijkstra(&g, a, |_, w| *w, |_| true).path_nodes(d).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn zero_cost_edges_ok() {
        let mut g: Graph<(), f64> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, 0.0);
        g.add_edge(b, c, 0.0);
        let sp = dijkstra(&g, a, |_, w| *w, |_| true);
        assert_eq!(sp.distance(c), Some(0.0));
        assert_eq!(sp.path_nodes(c).unwrap().len(), 3);
    }

    #[test]
    fn distances_slice_matches_accessor() {
        let (g, [a, b, c, d]) = diamond();
        let sp = dijkstra(&g, a, |_, w| *w, |_| true);
        let ds = sp.distances();
        for n in [a, b, c, d] {
            assert_eq!(sp.distance(n), Some(ds[n.index()]));
        }
    }
}
