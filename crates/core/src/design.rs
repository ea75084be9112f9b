//! Forward design of low-latency microwave corridors (§6 takeaways).
//!
//! The paper closes with design lessons for future non-HFT terrestrial
//! microwave networks:
//!
//! * engineer towards high APA using redundant links close to the
//!   shortest path;
//! * link lengths trade cost (fewer towers) against reliability;
//! * if the primary path must use high bands for bandwidth, run the
//!   alternates on lower, rain-robust frequencies.
//!
//! This module turns those lessons into a constructive procedure: given a
//! corridor, a tower budget and an APA target, synthesize a network and
//! *verify it with the same metrics the paper measures competitors by*.

use crate::corridor::DataCenter;
use crate::metrics;
use crate::network::{MwLink, Network, Tower};
use crate::route::RoutingGraph;
use hft_geodesy::{gc_destination, gc_initial_bearing_deg, gc_interpolate, LatLon, SnapGrid};
use hft_netgraph::{disjoint_shortest_pair, Graph, NodeId};
use hft_time::Date;

/// Parameters of a corridor design.
#[derive(Debug, Clone)]
pub struct DesignSpec {
    /// Towers on the primary chain (including both end towers).
    pub primary_towers: usize,
    /// Fraction of primary links to protect with a parallel rail
    /// (`1.0` = a fully disjoint standby path).
    pub protected_fraction: f64,
    /// Rail hop length, km (shorter = more reliable, more towers).
    pub rail_hop_km: f64,
    /// Lateral rail offset from the primary, km.
    pub rail_offset_km: f64,
    /// Frequency for primary links, GHz (capacity band).
    pub primary_ghz: f64,
    /// Frequency for rail links, GHz (rain-robust band) — the paper's
    /// "alternate paths may use lower frequencies" lesson.
    pub rail_ghz: f64,
    /// Distance of the end towers from each data center, km.
    pub tail_km: f64,
}

impl Default for DesignSpec {
    fn default() -> Self {
        DesignSpec {
            primary_towers: 25,
            protected_fraction: 1.0,
            rail_hop_km: 36.0,
            rail_offset_km: 4.0,
            primary_ghz: 11.2,
            rail_ghz: 6.2,
            tail_km: 1.5,
        }
    }
}

/// Synthesize a corridor network per the spec: a straight primary chain
/// on the geodesic plus a parallel rail over the protected fraction
/// (anchored at primary towers, so single-link failures reroute locally).
pub fn design_corridor(a: &DataCenter, b: &DataCenter, spec: &DesignSpec) -> Network {
    assert!(spec.primary_towers >= 3, "need at least three towers");
    assert!(
        (0.0..=1.0).contains(&spec.protected_fraction),
        "fraction in [0,1]"
    );
    let snap = SnapGrid::arc_second();
    let pa = a.position();
    let pb = b.position();
    let start = gc_destination(&pa, gc_initial_bearing_deg(&pa, &pb), spec.tail_km * 1000.0);
    let end = gc_destination(&pb, gc_initial_bearing_deg(&pb, &pa), spec.tail_km * 1000.0);

    let mut graph: Graph<Tower, MwLink> = Graph::new();
    let add = |graph: &mut Graph<Tower, MwLink>, p: LatLon| -> NodeId {
        graph.add_node(Tower {
            position: p,
            cell: snap.snap(&p),
            ground_elevation_m: 230.0,
            structure_height_m: 110.0,
        })
    };
    let link = |graph: &mut Graph<Tower, MwLink>, u: NodeId, v: NodeId, ghz: f64| {
        let d = graph
            .node(u)
            .position
            .geodesic_distance_m(&graph.node(v).position);
        graph.add_edge(
            u,
            v,
            MwLink {
                length_m: d,
                frequencies_ghz: vec![ghz],
                licenses: vec![],
            },
        );
    };

    // Primary chain on the geodesic.
    let n = spec.primary_towers;
    let primary: Vec<NodeId> = (0..n)
        .map(|i| {
            add(
                &mut graph,
                gc_interpolate(&start, &end, i as f64 / (n - 1) as f64),
            )
        })
        .collect();
    for w in primary.windows(2) {
        link(&mut graph, w[0], w[1], spec.primary_ghz);
    }

    // Rail over the protected prefix of links (starting mid-corridor
    // outward would work too; contiguity maximizes APA per rail tower).
    let protected_links = ((n - 1) as f64 * spec.protected_fraction).round() as usize;
    if protected_links > 0 {
        let lo = 0;
        let hi = protected_links.min(n - 1);
        let run_len_m: f64 = (lo..hi)
            .map(|i| {
                graph
                    .node(primary[i])
                    .position
                    .geodesic_distance_m(&graph.node(primary[i + 1]).position)
            })
            .sum();
        let rail_hops = (run_len_m / (spec.rail_hop_km * 1000.0)).round().max(1.0) as usize;
        let run_start = graph.node(primary[lo]).position;
        let run_end = graph.node(primary[hi]).position;
        let bearing = gc_initial_bearing_deg(&run_start, &run_end);
        let mut prev = primary[lo];
        for k in 1..rail_hops {
            let on_line = gc_interpolate(&run_start, &run_end, k as f64 / rail_hops as f64);
            let p = gc_destination(&on_line, bearing + 90.0, spec.rail_offset_km * 1000.0);
            let node = add(&mut graph, p);
            link(&mut graph, prev, node, spec.rail_ghz);
            prev = node;
        }
        link(&mut graph, prev, primary[hi], spec.rail_ghz);
    }

    Network {
        licensee: "designed".into(),
        as_of: Date::new(2020, 4, 1).expect("static"),
        graph,
    }
}

/// Verification report for a designed network, measured with the same
/// code the paper's analysis uses on the HFT incumbents.
#[derive(Debug, Clone)]
pub struct DesignReport {
    /// End-to-end latency, ms.
    pub latency_ms: f64,
    /// Stretch versus the c-bound along the corridor geodesic.
    pub stretch: f64,
    /// Alternate path availability.
    pub apa: f64,
    /// Total towers built (cost proxy).
    pub towers: usize,
    /// Whether a fully edge-disjoint standby path exists, and its latency
    /// penalty versus the primary (ms) when it does.
    pub disjoint_standby_penalty_ms: Option<f64>,
}

/// Measure a designed (or any) network between two data centers.
pub fn evaluate(network: &Network, a: &DataCenter, b: &DataCenter) -> Option<DesignReport> {
    let rg = RoutingGraph::build(network, a, b);
    let r = rg.route_filtered(network, |_| true)?;
    let apa = metrics::apa_with(&rg, network)?;
    let disjoint = disjoint_shortest_pair(&rg.graph, rg.source, rg.target, |_, e| e.latency_s())
        .map(|pair| (pair.second_cost - pair.first_cost) * 1e3);
    Some(DesignReport {
        latency_ms: r.latency_ms,
        stretch: r.stretch_vs_c(rg.geodesic_m),
        apa,
        towers: network.tower_count(),
        disjoint_standby_penalty_ms: disjoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corridor::{CME, EQUINIX_NY4};

    #[test]
    fn default_design_is_fast_and_fully_protected() {
        let net = design_corridor(&CME, &EQUINIX_NY4, &DesignSpec::default());
        let rep = evaluate(&net, &CME, &EQUINIX_NY4).expect("connected");
        assert!(
            rep.stretch < 1.002,
            "straight chain + fiber tails: stretch {}",
            rep.stretch
        );
        assert!(rep.apa > 0.95, "fully railed: APA {}", rep.apa);
        // Full edge-disjointness extends to the data-center fiber tails:
        // the standby cannot reuse the primary's tail edge, so it enters
        // the rail through a longer fiber lateral — the dominant part of
        // its penalty (~0.12 ms here). A deployment wanting cheap standby
        // would provision a second short tail; the metric makes that
        // trade visible.
        let penalty = rep
            .disjoint_standby_penalty_ms
            .expect("disjoint standby exists");
        assert!(
            penalty > 0.0 && penalty < 0.3,
            "standby within 300 µs: {penalty}"
        );
    }

    #[test]
    fn unprotected_design_has_zero_apa_and_no_standby() {
        let spec = DesignSpec {
            protected_fraction: 0.0,
            ..Default::default()
        };
        let net = design_corridor(&CME, &EQUINIX_NY4, &spec);
        let rep = evaluate(&net, &CME, &EQUINIX_NY4).unwrap();
        assert_eq!(rep.apa, 0.0);
        assert!(rep.disjoint_standby_penalty_ms.is_none());
    }

    #[test]
    fn apa_scales_with_protected_fraction() {
        let mut prev = -1.0;
        for f in [0.0, 0.3, 0.6, 1.0] {
            let spec = DesignSpec {
                protected_fraction: f,
                ..Default::default()
            };
            let net = design_corridor(&CME, &EQUINIX_NY4, &spec);
            let rep = evaluate(&net, &CME, &EQUINIX_NY4).unwrap();
            assert!(
                rep.apa >= prev - 0.05,
                "APA must grow with protection: {f} -> {}",
                rep.apa
            );
            assert!(
                (rep.apa - f).abs() < 0.1,
                "APA ≈ protected fraction: {f} -> {}",
                rep.apa
            );
            prev = rep.apa;
        }
    }

    #[test]
    fn tower_budget_tradeoff() {
        // Fewer towers = longer links = cheaper; latency stays ~constant
        // on a straight design, so the tradeoff shows up in tower count.
        let lean = DesignSpec {
            primary_towers: 15,
            protected_fraction: 0.0,
            ..Default::default()
        };
        let dense = DesignSpec {
            primary_towers: 40,
            protected_fraction: 0.0,
            ..Default::default()
        };
        let rl = evaluate(
            &design_corridor(&CME, &EQUINIX_NY4, &lean),
            &CME,
            &EQUINIX_NY4,
        )
        .unwrap();
        let rd = evaluate(
            &design_corridor(&CME, &EQUINIX_NY4, &dense),
            &CME,
            &EQUINIX_NY4,
        )
        .unwrap();
        assert!(rl.towers < rd.towers / 2);
        assert!((rl.latency_ms - rd.latency_ms).abs() < 0.002);
    }

    #[test]
    fn rails_use_the_low_band() {
        let net = design_corridor(&CME, &EQUINIX_NY4, &DesignSpec::default());
        let mut low = 0;
        let mut high = 0;
        for (_, _, _, l) in net.graph.edges() {
            if l.frequencies_ghz[0] < 7.0 {
                low += 1;
            } else {
                high += 1;
            }
        }
        assert!(
            low > 0 && high > 0,
            "both bands present: {low} low / {high} high"
        );
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn rejects_degenerate_budget() {
        let spec = DesignSpec {
            primary_towers: 2,
            ..Default::default()
        };
        design_corridor(&CME, &EQUINIX_NY4, &spec);
    }
}
