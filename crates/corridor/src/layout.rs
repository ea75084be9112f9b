//! Geometric construction of tower chains.
//!
//! A network's route is modeled as a *chain*: fixed start/end anchor
//! towers plus interior towers spread along the great circle between
//! them, each displaced laterally by `unit_offset · scale`. Scaling the
//! offsets lengthens the path smoothly and monotonically, which is the
//! knob the calibration loop bisects to hit a latency target: real
//! networks get faster by acquiring tower sites closer to the geodesic,
//! which is exactly a shrink of these offsets.

use hft_geodesy::{gc_destination, gc_distance_m, gc_initial_bearing_deg, gc_interpolate, LatLon};
use rand::Rng;

/// The scale-independent geometry of a chain's interior towers.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainGeometry {
    /// Along-chain fractions in `(0, 1)`, strictly increasing.
    pub ts: Vec<f64>,
    /// Unit lateral offsets in `[-1, 1]`, one per interior tower.
    pub unit_offsets: Vec<f64>,
}

impl ChainGeometry {
    /// Interior tower count.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the chain has no interior towers.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }
}

/// Generate the geometry for `n_interior` towers: near-even spacing with
/// mild jitter, and smooth pseudo-random lateral offsets that vanish at
/// the chain ends (the anchors are fixed).
pub fn make_chain_geometry<R: Rng + ?Sized>(n_interior: usize, rng: &mut R) -> ChainGeometry {
    if n_interior == 0 {
        return ChainGeometry {
            ts: Vec::new(),
            unit_offsets: Vec::new(),
        };
    }
    let n = n_interior;
    let mut ts = Vec::with_capacity(n);
    for i in 0..n {
        let base = (i + 1) as f64 / (n + 1) as f64;
        // Spacing jitter of up to ±20% of a slot keeps ordering intact.
        let jitter = (rng.gen::<f64>() - 0.5) * 0.4 / (n + 1) as f64;
        ts.push((base + jitter).clamp(1e-3, 1.0 - 1e-3));
    }
    ts.sort_by(|a, b| a.partial_cmp(b).expect("finite fractions"));

    // Smooth offsets: two superposed sinusoids with random phases, times
    // a taper that zeroes the ends.
    let phase1 = rng.gen::<f64>() * core::f64::consts::TAU;
    let phase2 = rng.gen::<f64>() * core::f64::consts::TAU;
    let w1 = 2.0 + rng.gen::<f64>() * 2.0; // 2..4 full waves
    let w2 = 5.0 + rng.gen::<f64>() * 3.0; // 5..8 waves
    let unit_offsets = ts
        .iter()
        .map(|&t| {
            let taper = (core::f64::consts::PI * t).sin();
            let wave = 0.75 * (core::f64::consts::TAU * w1 * t + phase1).sin()
                + 0.25 * (core::f64::consts::TAU * w2 * t + phase2).sin();
            (taper * wave).clamp(-1.0, 1.0)
        })
        .collect();
    ChainGeometry { ts, unit_offsets }
}

/// The offset-independent geometry of a placed chain: its anchors, and
/// for each interior tower the on-line point at its along-fraction and
/// the bearing perpendicular to the local great circle there.
///
/// Calibration places one chain at many offsets; building the frame once
/// leaves each placement one `gc_destination` per interior tower.
#[derive(Debug, Clone)]
pub struct ChainFrame {
    start: LatLon,
    end: LatLon,
    /// `(on_line_point, perpendicular_bearing_deg)` per interior tower.
    feet: Vec<(LatLon, f64)>,
}

impl ChainFrame {
    /// The frame of a chain from `start` to `end` with interior towers at
    /// along-fractions `ts`.
    pub fn new(start: &LatLon, end: &LatLon, ts: &[f64]) -> ChainFrame {
        let feet = ts
            .iter()
            .map(|&t| {
                let on_line = gc_interpolate(start, end, t);
                (on_line, gc_initial_bearing_deg(&on_line, end) + 90.0)
            })
            .collect();
        ChainFrame {
            start: *start,
            end: *end,
            feet,
        }
    }

    /// All towers in order, anchors included, with interior tower `i`
    /// displaced `offsets_m[i]` meters perpendicular to the chain.
    pub fn place(&self, offsets_m: &[f64]) -> Vec<LatLon> {
        assert_eq!(
            self.feet.len(),
            offsets_m.len(),
            "one offset per interior tower"
        );
        let mut out = Vec::with_capacity(self.feet.len() + 2);
        out.push(self.start);
        out.extend(
            self.feet
                .iter()
                .zip(offsets_m)
                .map(|((on_line, bearing), &off)| gc_destination(on_line, *bearing, off)),
        );
        out.push(self.end);
        out
    }
}

/// Place a chain: anchors at `start` and `end`, interior towers at their
/// along-fractions, displaced `unit_offset · scale_m` meters perpendicular
/// to the local great-circle bearing. Returns all towers in order,
/// including the anchors.
pub fn place_chain(
    start: &LatLon,
    end: &LatLon,
    geometry: &ChainGeometry,
    scale_m: f64,
) -> Vec<LatLon> {
    let offsets: Vec<f64> = geometry.unit_offsets.iter().map(|u| u * scale_m).collect();
    place_chain_with_offsets(start, end, &geometry.ts, &offsets)
}

/// Place a chain with explicit per-tower lateral offsets (meters) instead
/// of a single scale — used when towers have individually materialized
/// positions that no longer share one scale factor.
pub fn place_chain_with_offsets(
    start: &LatLon,
    end: &LatLon,
    ts: &[f64],
    offsets_m: &[f64],
) -> Vec<LatLon> {
    ChainFrame::new(start, end, ts).place(offsets_m)
}

/// Total geodesic length of a polyline, meters.
///
/// Uses the ellipsoidal (Vincenty) distance — the same metric the
/// analysis code measures with — *not* the spherical approximation, so
/// closed-loop calibration cannot drift by the ~0.2% sphere/ellipsoid
/// difference (≈ 2 km ≈ 8 µs over this corridor, which would scramble
/// sub-microsecond rankings).
pub fn polyline_length_m(points: &[LatLon]) -> f64 {
    points
        .windows(2)
        .map(|w| w[0].geodesic_distance_m(&w[1]))
        .sum()
}

/// Sample points along a polyline at (approximately) `spacing_m`
/// intervals, displaced `lateral_m` meters perpendicular to the local
/// direction of travel — the rail-tower generator. The samples exclude
/// the polyline's endpoints.
pub fn sample_along(points: &[LatLon], spacing_m: f64, lateral_m: f64) -> Vec<LatLon> {
    assert!(spacing_m > 0.0, "spacing must be positive");
    // Spherical arithmetic throughout this routine: it only controls
    // spacing, where the 0.2% sphere/ellipsoid difference is irrelevant,
    // and mixing metrics would misplace the final sample.
    let total: f64 = points.windows(2).map(|w| gc_distance_m(&w[0], &w[1])).sum();
    if total <= spacing_m || points.len() < 2 {
        return Vec::new();
    }
    let n = (total / spacing_m).floor() as usize;
    let mut out = Vec::new();
    // Walk cumulative distances.
    let mut seg_start = 0usize;
    let mut seg_acc = 0.0;
    let mut seg_len = gc_distance_m(&points[0], &points[1]);
    for k in 1..n {
        let d = k as f64 * total / n as f64;
        while seg_acc + seg_len < d && seg_start + 2 < points.len() {
            seg_acc += seg_len;
            seg_start += 1;
            seg_len = gc_distance_m(&points[seg_start], &points[seg_start + 1]);
        }
        let within = ((d - seg_acc) / seg_len).clamp(0.0, 1.0);
        let a = &points[seg_start];
        let b = &points[seg_start + 1];
        let on_line = gc_interpolate(a, b, within);
        let bearing = gc_initial_bearing_deg(a, b);
        out.push(gc_destination(&on_line, bearing + 90.0, lateral_m));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn endpoints() -> (LatLon, LatLon) {
        (
            LatLon::new(41.7625, -88.171233).unwrap(),
            LatLon::new(40.7930, -74.0576).unwrap(),
        )
    }

    #[test]
    fn geometry_is_deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(
            make_chain_geometry(20, &mut r1),
            make_chain_geometry(20, &mut r2)
        );
    }

    #[test]
    fn geometry_fractions_ordered_and_offsets_bounded() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = make_chain_geometry(30, &mut rng);
        for w in g.ts.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &o in &g.unit_offsets {
            assert!((-1.0..=1.0).contains(&o));
        }
    }

    #[test]
    fn zero_interior_chain() {
        let g = ChainGeometry {
            ts: vec![],
            unit_offsets: vec![],
        };
        let (a, b) = endpoints();
        let placed = place_chain(&a, &b, &g, 1000.0);
        assert_eq!(placed.len(), 2);
        let len = polyline_length_m(&placed);
        assert!((len - a.geodesic_distance_m(&b)).abs() < 1.0);
    }

    #[test]
    fn scale_zero_is_nearly_geodesic() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = make_chain_geometry(23, &mut rng);
        let (a, b) = endpoints();
        let placed = place_chain(&a, &b, &g, 0.0);
        let len = polyline_length_m(&placed);
        let geo = a.geodesic_distance_m(&b);
        assert!(len >= geo);
        assert!(len < geo * 1.000001, "len {len} vs geo {geo}");
    }

    #[test]
    fn length_monotone_in_scale() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = make_chain_geometry(23, &mut rng);
        let (a, b) = endpoints();
        let mut prev = 0.0;
        for s in [0.0, 500.0, 1500.0, 4000.0, 10_000.0] {
            let len = polyline_length_m(&place_chain(&a, &b, &g, s));
            assert!(len > prev, "scale {s}");
            prev = len;
        }
    }

    #[test]
    fn one_frame_places_every_offset_like_a_fresh_placement() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = make_chain_geometry(15, &mut rng);
        let (a, b) = endpoints();
        let frame = ChainFrame::new(&a, &b, &g.ts);
        for scale in [0.0, 750.0, 12_345.678] {
            let offsets: Vec<f64> = g.unit_offsets.iter().map(|u| u * scale).collect();
            let direct: Vec<LatLon> =
                g.ts.iter()
                    .zip(&offsets)
                    .map(|(&t, &off)| {
                        let on_line = gc_interpolate(&a, &b, t);
                        gc_destination(&on_line, gc_initial_bearing_deg(&on_line, &b) + 90.0, off)
                    })
                    .collect();
            let placed = frame.place(&offsets);
            assert_eq!(placed[1..=g.len()], direct[..], "scale {scale}");
            assert_eq!((placed[0], placed[g.len() + 1]), (a, b));
        }
    }

    #[test]
    fn placed_chain_has_expected_count_and_order() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = make_chain_geometry(10, &mut rng);
        let (a, b) = endpoints();
        let placed = place_chain(&a, &b, &g, 2_000.0);
        assert_eq!(placed.len(), 12);
        // Distance from start must grow monotonically along the chain.
        let mut prev = -1.0;
        for p in &placed {
            let d = gc_distance_m(&a, p);
            assert!(d > prev);
            prev = d;
        }
    }

    #[test]
    fn sample_along_spacing() {
        let (a, b) = endpoints();
        let line = vec![a, b];
        let samples = sample_along(&line, 50_000.0, 4_000.0);
        let total = gc_distance_m(&a, &b);
        let expect = (total / 50_000.0).floor() as usize - 1;
        assert_eq!(samples.len(), expect);
        // Each sample sits ~4 km off the direct line: distance from the
        // line's interpolation at matching fraction is ~lateral.
        for (k, s) in samples.iter().enumerate() {
            let d = (k + 1) as f64 * total / (expect + 1) as f64;
            let on_line = gc_interpolate(&a, &b, d / total);
            let off = gc_distance_m(&on_line, s);
            assert!((off - 4_000.0).abs() < 50.0, "sample {k}: off {off}");
        }
    }

    #[test]
    fn sample_along_short_polyline_is_empty() {
        let a = LatLon::new(41.0, -88.0).unwrap();
        let b = LatLon::new(41.0, -87.9).unwrap(); // ~8 km
        assert!(sample_along(&[a, b], 50_000.0, 4_000.0).is_empty());
        assert!(sample_along(&[a], 50_000.0, 4_000.0).is_empty());
    }

    #[test]
    fn lateral_rail_is_longer_than_parent_between_same_anchors() {
        // Build a rail polyline: parent anchors + offset samples; its
        // length must exceed the parent's (the handicap that keeps rails
        // off the shortest path).
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = make_chain_geometry(12, &mut rng);
        let (a, b) = endpoints();
        let parent = place_chain(&a, &b, &g, 1_500.0);
        let rail_interior = sample_along(&parent, 40_000.0, 4_000.0);
        let mut rail = vec![parent[0]];
        rail.extend(rail_interior);
        rail.push(*parent.last().unwrap());
        assert!(polyline_length_m(&rail) > polyline_length_m(&parent));
    }
}
