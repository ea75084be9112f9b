//! Property test for [`Network::towers_within`], the fiber-tail query
//! behind every routing graph: its chord-kernel prefilter may only skip
//! Vincenty solves, never change the answer. Towers are aimed within
//! ±2 m of the query circle — where a spherical verdict alone would gain
//! or lose a tower — and the result must still equal a plain Vincenty
//! scan, node for node and distance bit for bit, in the same order.

use hft_core::network::{Network, Tower};
use hft_geodesy::{vincenty_direct, LatLon, SnapGrid};
use hft_netgraph::Graph;
use hft_time::Date;
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = LatLon> {
    (30.0f64..50.0, -100.0f64..-70.0).prop_map(|(lat, lon)| LatLon::new(lat, lon).unwrap())
}

/// One tower per `(azimuth, distance)` pair, placed along the geodesic
/// from `center`.
fn network_around(center: &LatLon, towers: &[(f64, f64)]) -> Network {
    let snap = SnapGrid::arc_second();
    let mut graph = Graph::new();
    for &(azimuth_deg, distance_m) in towers {
        let (position, _) = vincenty_direct(center, azimuth_deg, distance_m);
        graph.add_node(Tower {
            position,
            cell: snap.snap(&position),
            ground_elevation_m: 230.0,
            structure_height_m: 100.0,
        });
    }
    Network {
        licensee: "ring".into(),
        as_of: Date::new(2020, 4, 1).unwrap(),
        graph,
    }
}

/// The reference: a Vincenty solve per tower, the inclusive filter and a
/// stable sort by distance.
fn vincenty_scan(network: &Network, point: &LatLon, radius_km: f64) -> Vec<(usize, u64)> {
    let mut v: Vec<(usize, f64)> = network
        .graph
        .nodes()
        .map(|(id, t)| (id.index(), t.position.geodesic_distance_m(point)))
        .filter(|&(_, d)| d <= radius_km * 1000.0)
        .collect();
    v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    v.into_iter().map(|(i, d)| (i, d.to_bits())).collect()
}

fn bits(hits: Vec<(hft_netgraph::NodeId, f64)>) -> Vec<(usize, u64)> {
    hits.into_iter()
        .map(|(id, d)| (id.index(), d.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn towers_within_matches_vincenty_scan_at_boundary_radii(
        center in arb_point(),
        radius_km in 0.0f64..120.0,
        specs in proptest::collection::vec(
            (0.0f64..360.0, -2.0f64..2.0, 0.0f64..3.0, 0.0f64..1.0),
            0..40,
        ),
        pick in 0usize..10_000,
        eps_m in -2.0f64..2.0,
    ) {
        // Most towers sit within ±2 m of the circle; the rest anywhere out
        // to three radii, so every kernel verdict occurs.
        let radius_m = radius_km * 1000.0;
        let towers: Vec<(f64, f64)> = specs
            .iter()
            .map(|&(azimuth, ring_eps_m, spread, kind)| {
                let d = if kind < 0.7 { radius_m + ring_eps_m } else { spread * radius_m };
                (azimuth, d.max(0.0))
            })
            .collect();
        let network = network_around(&center, &towers);
        prop_assert_eq!(
            bits(network.towers_within(&center, radius_km)),
            vincenty_scan(&network, &center, radius_km),
        );

        // And with the radius aimed within ±2 m of an actual tower, as the
        // portal's boundary test does.
        prop_assume!(!towers.is_empty());
        let target = network.graph.nodes().nth(pick % towers.len()).unwrap().1.position;
        let aimed_km = (center.geodesic_distance_m(&target) + eps_m).max(0.0) / 1000.0;
        prop_assert_eq!(
            bits(network.towers_within(&center, aimed_km)),
            vincenty_scan(&network, &center, aimed_km),
        );
    }
}

#[test]
fn radii_the_kernel_cannot_take_fall_back_to_the_scan() {
    let center = LatLon::new(41.7625, -88.171233).unwrap();
    let network = network_around(&center, &[(10.0, 5_000.0), (200.0, 900_000.0)]);
    assert_eq!(network.towers_within(&center, f64::INFINITY).len(), 2);
    assert!(network.towers_within(&center, -1.0).is_empty());
    assert!(network.towers_within(&center, f64::NAN).is_empty());
}
