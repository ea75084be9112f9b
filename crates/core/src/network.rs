//! The reconstructed-network model.

use hft_geodesy::{LatLon, RadiusClass, RadiusTest, SnappedCoord, UnitEcef};
use hft_netgraph::{Graph, NodeId};
use hft_time::Date;
use hft_uls::LicenseId;

/// A physical tower: the node type of a reconstructed network.
#[derive(Debug, Clone, PartialEq)]
pub struct Tower {
    /// Representative position (from the first license referencing the
    /// tower; later filings within the snap tolerance are merged).
    pub position: LatLon,
    /// The snap-grid cell identifying this tower.
    pub cell: SnappedCoord,
    /// Ground elevation above sea level, meters.
    pub ground_elevation_m: f64,
    /// Structure height above ground, meters.
    pub structure_height_m: f64,
}

/// A stitched microwave link: the edge type of a reconstructed network.
///
/// A link may be backed by several licenses (e.g. one per direction, or
/// re-filings); their ids and authorized frequencies are merged.
#[derive(Debug, Clone, PartialEq)]
pub struct MwLink {
    /// Geodesic tower-to-tower length, meters.
    pub length_m: f64,
    /// Authorized center frequencies, GHz, ascending, deduplicated.
    pub frequencies_ghz: Vec<f64>,
    /// The licenses backing this link, ascending.
    pub licenses: Vec<LicenseId>,
}

impl MwLink {
    /// Link length in km (the unit of Fig. 4a).
    pub fn length_km(&self) -> f64 {
        self.length_m / 1000.0
    }
}

/// A licensee's reconstructed network at a given as-of date.
#[derive(Debug, Clone)]
pub struct Network {
    /// Licensee name as filed.
    pub licensee: String,
    /// Reconstruction date.
    pub as_of: Date,
    /// Towers and stitched microwave links.
    pub graph: Graph<Tower, MwLink>,
}

impl Network {
    /// Number of towers.
    pub fn tower_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of stitched microwave links.
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Number of active licenses backing the network (distinct license
    /// ids across all links).
    pub fn license_count(&self) -> usize {
        let mut ids: Vec<LicenseId> = self
            .graph
            .edges()
            .flat_map(|(_, _, _, l)| l.licenses.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// The tower nearest to `point`, with its geodesic distance in meters.
    /// `None` for an empty network.
    pub fn nearest_tower(&self, point: &LatLon) -> Option<(NodeId, f64)> {
        self.graph
            .nodes()
            .map(|(id, t)| (id, t.position.geodesic_distance_m(point)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(core::cmp::Ordering::Equal))
    }

    /// All towers within `radius_km` of `point`, nearest first, with their
    /// geodesic distances in meters.
    ///
    /// The chord kernel drops the towers it proves are beyond the radius
    /// with one dot product each; only the rest pay a Vincenty solve, and
    /// the exact `<=` filter on that distance decides membership, so the
    /// answer equals a full Vincenty scan.
    pub fn towers_within(&self, point: &LatLon, radius_km: f64) -> Vec<(NodeId, f64)> {
        let radius_m = radius_km * 1000.0;
        let prefilter =
            (radius_m.is_finite() && radius_m >= 0.0).then(|| RadiusTest::new(point, radius_m));
        let mut v: Vec<(NodeId, f64)> = self
            .graph
            .nodes()
            .filter(|(_, t)| {
                prefilter.as_ref().is_none_or(|test| {
                    test.classify_vec(&UnitEcef::from_latlon(&t.position)) != RadiusClass::Outside
                })
            })
            .map(|(id, t)| (id, t.position.geodesic_distance_m(point)))
            .filter(|(_, d)| *d <= radius_m)
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(core::cmp::Ordering::Equal));
        v
    }

    /// Total microwave route-kilometers in the network.
    pub fn total_link_km(&self) -> f64 {
        self.graph
            .edges()
            .map(|(_, _, _, l)| l.length_m)
            .sum::<f64>()
            / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hft_geodesy::SnapGrid;

    fn tower(lat: f64, lon: f64) -> Tower {
        let position = LatLon::new(lat, lon).unwrap();
        Tower {
            position,
            cell: SnapGrid::arc_second().snap(&position),
            ground_elevation_m: 230.0,
            structure_height_m: 110.0,
        }
    }

    fn tiny_network() -> Network {
        let mut graph = Graph::new();
        let a = graph.add_node(tower(41.76, -88.17));
        let b = graph.add_node(tower(41.70, -87.60));
        let c = graph.add_node(tower(41.65, -87.10));
        let ab = MwLink {
            length_m: 48_000.0,
            frequencies_ghz: vec![11.2],
            licenses: vec![LicenseId(1), LicenseId(2)],
        };
        let bc = MwLink {
            length_m: 42_000.0,
            frequencies_ghz: vec![11.3],
            licenses: vec![LicenseId(2)],
        };
        graph.add_edge(a, b, ab);
        graph.add_edge(b, c, bc);
        Network {
            licensee: "Test Net".into(),
            as_of: Date::new(2020, 4, 1).unwrap(),
            graph,
        }
    }

    #[test]
    fn counts() {
        let n = tiny_network();
        assert_eq!(n.tower_count(), 3);
        assert_eq!(n.link_count(), 2);
        // LicenseId(2) backs both links; distinct count is 2.
        assert_eq!(n.license_count(), 2);
    }

    #[test]
    fn nearest_tower_picks_closest() {
        let n = tiny_network();
        let near_a = LatLon::new(41.77, -88.18).unwrap();
        let (id, d) = n.nearest_tower(&near_a).unwrap();
        assert_eq!(id.index(), 0);
        assert!(d < 2_000.0);
    }

    #[test]
    fn towers_within_radius_sorted() {
        let n = tiny_network();
        let p = LatLon::new(41.70, -87.60).unwrap();
        let hits = n.towers_within(&p, 60.0);
        assert!(hits.len() >= 2);
        for w in hits.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn empty_network() {
        let n = Network {
            licensee: "Empty".into(),
            as_of: Date::new(2020, 4, 1).unwrap(),
            graph: Graph::new(),
        };
        assert!(n
            .nearest_tower(&LatLon::new(41.0, -88.0).unwrap())
            .is_none());
        assert_eq!(n.license_count(), 0);
        assert_eq!(n.total_link_km(), 0.0);
    }

    #[test]
    fn total_link_km_sums() {
        let n = tiny_network();
        assert!((n.total_link_km() - 90.0).abs() < 1e-9);
    }
}
