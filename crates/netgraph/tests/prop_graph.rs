//! Property tests pitting the graph algorithms against brute-force oracles
//! on random graphs.

use hft_netgraph::{
    bounded_paths, bridges, connected_components, dijkstra, yen_k_shortest, BoundedPathsConfig,
    DijkstraWorkspace, Graph, NodeId,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// A random undirected graph with up to 10 nodes and 18 weighted edges.
fn arb_graph() -> impl Strategy<Value = Graph<(), f64>> {
    let n = 2usize..=10;
    n.prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0.1f64..10.0), 0..=18);
        edges.prop_map(move |edges| {
            let mut g: Graph<(), f64> = Graph::new();
            let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            for (u, v, w) in edges {
                if u != v {
                    g.add_edge(ids[u], ids[v], w);
                }
            }
            g
        })
    })
}

/// Edge weights full of ties: zero-weight edges, repeated weights, and
/// 0.1 + 0.2 against 0.3, which differ in the last bit.
const TIED_WEIGHTS: [f64; 8] = [0.0, 0.0, 1.0, 1.0, 0.1, 0.2, 0.3, 2.5];

/// A random graph with 1 to 9 nodes and up to 20 edges weighted from
/// [`TIED_WEIGHTS`], with a random edge filter that blocks about a
/// quarter of the edges.
fn arb_tied_graph() -> impl Strategy<Value = (Graph<(), f64>, Vec<bool>)> {
    (1usize..=9).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0..TIED_WEIGHTS.len(), 0u8..4), 0..=20);
        edges.prop_map(move |edges| {
            let mut g: Graph<(), f64> = Graph::new();
            let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
            let mut open = Vec::new();
            for (u, v, w, keep) in edges {
                if u != v {
                    g.add_edge(ids[u], ids[v], TIED_WEIGHTS[w]);
                    open.push(keep != 0);
                }
            }
            (g, open)
        })
    })
}

/// Bellman-Ford oracle for shortest distances.
fn bellman_ford(g: &Graph<(), f64>, src: NodeId) -> Vec<f64> {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    dist[src.index()] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for (_, u, v, w) in g.edges() {
            if dist[u.index()] + w < dist[v.index()] {
                dist[v.index()] = dist[u.index()] + w;
                changed = true;
            }
            if dist[v.index()] + w < dist[u.index()] {
                dist[u.index()] = dist[v.index()] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dijkstra_matches_bellman_ford(g in arb_graph()) {
        let src = NodeId::from_index(0);
        let sp = dijkstra(&g, src, |_, w| *w, |_| true);
        let oracle = bellman_ford(&g, src);
        for v in g.node_ids() {
            let a = sp.distance(v).unwrap_or(f64::INFINITY);
            let b = oracle[v.index()];
            prop_assert!((a - b).abs() < 1e-9 || (a.is_infinite() && b.is_infinite()),
                "node {v}: dijkstra={a} oracle={b}");
        }
    }

    #[test]
    fn stopped_search_matches_full_dijkstra_bit_for_bit(case in arb_tied_graph()) {
        let (g, open) = case;
        // One workspace across every query, as a Monte Carlo reuses it.
        let mut search = DijkstraWorkspace::new();
        for s in g.node_ids() {
            let full = dijkstra(&g, s, |_, w| *w, |e| open[e.index()]);
            for t in g.node_ids() {
                let stopped = search.distance(&g, s, t, |_, w| *w, |e| open[e.index()]);
                prop_assert_eq!(
                    stopped.map(f64::to_bits),
                    full.distance(t).map(f64::to_bits),
                    "{} -> {}", s, t
                );
            }
        }
    }

    #[test]
    fn dijkstra_path_cost_equals_distance(g in arb_graph()) {
        let src = NodeId::from_index(0);
        let sp = dijkstra(&g, src, |_, w| *w, |_| true);
        for v in g.node_ids() {
            if let Some((_, edges)) = sp.path(v) {
                let total: f64 = edges.iter().map(|e| *g.edge(*e)).sum();
                prop_assert!((total - sp.distance(v).unwrap()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn yen_first_equals_dijkstra_and_sorted(g in arb_graph()) {
        let src = NodeId::from_index(0);
        let dst = NodeId::from_index(g.node_count() - 1);
        let paths = yen_k_shortest(&g, src, dst, 5, |_, w| *w);
        let sp = dijkstra(&g, src, |_, w| *w, |_| true);
        match sp.distance(dst) {
            None => prop_assert!(paths.is_empty()),
            Some(d) => {
                prop_assert!(!paths.is_empty());
                prop_assert!((paths[0].cost - d).abs() < 1e-9);
                for w in paths.windows(2) {
                    prop_assert!(w[0].cost <= w[1].cost + 1e-9);
                }
                // Distinct and loop-free.
                let mut seen = HashSet::new();
                for p in &paths {
                    prop_assert!(seen.insert(p.edges.clone()), "duplicate path");
                    let mut nodes = HashSet::new();
                    for n in &p.nodes {
                        prop_assert!(nodes.insert(*n), "loop in path");
                    }
                }
            }
        }
    }

    #[test]
    fn bounded_paths_subsumes_yen(g in arb_graph(), slack in 1.0f64..2.0) {
        let src = NodeId::from_index(0);
        let dst = NodeId::from_index(g.node_count() - 1);
        let sp = dijkstra(&g, src, |_, w| *w, |_| true);
        let Some(d) = sp.distance(dst) else { return Ok(()); };
        let bound = d * slack;
        let ps = bounded_paths(&g, src, dst, |_, w| *w,
            &BoundedPathsConfig { bound, max_paths: 100_000, record_paths: true });
        // Every yen path within the bound must be found by bounded_paths.
        let yen = yen_k_shortest(&g, src, dst, 10, |_, w| *w);
        let ps_set: HashSet<_> = ps.paths.iter().cloned().collect();
        for p in yen.iter().filter(|p| p.cost <= bound + 1e-9) {
            prop_assert!(ps_set.contains(&p.edges), "yen path missing from bounded set");
        }
        // And every bounded path respects the bound.
        for p in &ps.paths {
            let total: f64 = p.iter().map(|e| *g.edge(*e)).sum();
            prop_assert!(total <= bound * (1.0 + 1e-9));
        }
    }

    #[test]
    fn bridge_removal_disconnects(g in arb_graph()) {
        let comp_before = connected_components(&g);
        for b in bridges(&g) {
            let (u, v) = g.endpoints(b);
            // Removing a bridge must disconnect u from v: check via filtered Dijkstra.
            let sp = dijkstra(&g, u, |_, _| 1.0, |e| e != b);
            prop_assert!(sp.distance(v).is_none(), "bridge removal left endpoints connected");
            let _ = comp_before;
        }
    }

    #[test]
    fn non_bridge_removal_keeps_component(g in arb_graph()) {
        let bridge_set: HashSet<_> = bridges(&g).into_iter().collect();
        for (e, u, v, _) in g.edges() {
            if bridge_set.contains(&e) {
                continue;
            }
            let sp = dijkstra(&g, u, |_, _| 1.0, |x| x != e);
            prop_assert!(sp.distance(v).is_some(), "non-bridge removal disconnected endpoints");
        }
    }

    #[test]
    fn components_agree_with_reachability(g in arb_graph()) {
        let labels = connected_components(&g);
        let src = NodeId::from_index(0);
        let sp = dijkstra(&g, src, |_, _| 1.0, |_| true);
        for v in g.node_ids() {
            let same = labels[v.index()] == labels[src.index()];
            prop_assert_eq!(same, sp.distance(v).is_some());
        }
    }
}

/// Brute-force oracle: enumerate all simple paths, then the best
/// edge-disjoint pair by total cost.
fn brute_best_pair(g: &Graph<(), f64>, s: NodeId, t: NodeId) -> Option<f64> {
    fn all_paths(
        g: &Graph<(), f64>,
        cur: NodeId,
        t: NodeId,
        visited: &mut Vec<bool>,
        edges: &mut Vec<hft_netgraph::EdgeId>,
        cost: f64,
        out: &mut Vec<(Vec<hft_netgraph::EdgeId>, f64)>,
    ) {
        if cur == t {
            out.push((edges.clone(), cost));
            return;
        }
        let neighbors: Vec<(hft_netgraph::EdgeId, NodeId)> = g.neighbors(cur).collect();
        for (e, v) in neighbors {
            if visited[v.index()] {
                continue;
            }
            visited[v.index()] = true;
            edges.push(e);
            all_paths(g, v, t, visited, edges, cost + *g.edge(e), out);
            edges.pop();
            visited[v.index()] = false;
        }
    }
    let mut paths = Vec::new();
    let mut visited = vec![false; g.node_count()];
    visited[s.index()] = true;
    all_paths(g, s, t, &mut visited, &mut Vec::new(), 0.0, &mut paths);
    let mut best: Option<f64> = None;
    for i in 0..paths.len() {
        'outer: for j in 0..paths.len() {
            if i == j && !paths[i].0.is_empty() {
                // A path cannot pair with itself unless it is a distinct
                // parallel edge path; handled by j != i plus multigraph
                // paths being enumerated separately.
            }
            if i >= j {
                continue;
            }
            let set: HashSet<_> = paths[i].0.iter().collect();
            for e in &paths[j].0 {
                if set.contains(e) {
                    continue 'outer;
                }
            }
            let total = paths[i].1 + paths[j].1;
            if best.is_none_or(|b| total < b) {
                best = Some(total);
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn suurballe_matches_brute_force(g in arb_graph()) {
        prop_assume!(g.node_count() <= 8 && g.edge_count() <= 12);
        let s = NodeId::from_index(0);
        let t = NodeId::from_index(g.node_count() - 1);
        prop_assume!(s != t);
        let ours = hft_netgraph::disjoint_shortest_pair(&g, s, t, |_, w| *w);
        let oracle = brute_best_pair(&g, s, t);
        match (ours, oracle) {
            (None, None) => {}
            (Some(p), Some(best)) => {
                prop_assert!((p.total_cost() - best).abs() < 1e-9,
                    "suurballe {} vs oracle {best}", p.total_cost());
                // Disjointness invariant.
                let f: HashSet<_> = p.first.iter().collect();
                prop_assert!(p.second.iter().all(|e| !f.contains(e)));
            }
            (a, b) => prop_assert!(false, "existence mismatch: ours={:?} oracle={:?}", a.map(|p| p.total_cost()), b),
        }
    }
}
