//! Equirectangular bucket grid over tower sites.
//!
//! The portal's "Geographic Search" asks, per query, which licenses have
//! any tower site within a radius of a center. The linear-scan answer
//! visits every site of every license and runs an iterative Vincenty
//! solve per site; this index makes the common case sublinear and
//! trig-free:
//!
//! * Every site is bucketed once, at insert time, into a fixed
//!   [`CELL_DEG`]-degree lat/lon grid cell, alongside its precomputed
//!   [`UnitEcef`] unit vector.
//! * A query walks only the cells intersecting a conservative bounding
//!   box of the query circle (expanded by the kernel's
//!   [`RadiusTest::prefilter_radius_m`] guard band and by one cell of
//!   margin on every side), testing each candidate site with the
//!   dot-product fast path of [`RadiusTest::contains_vec`].
//! * Queries whose bounding box cannot be bounded tightly — planet-scale
//!   radii or circles reaching toward a pole, where the longitude span
//!   of a spherical cap degenerates — fall back to scanning every
//!   bucketed site. The fallback still skips per-site trig; only the
//!   cell pruning is lost.
//!
//! Results are license *indices* in ascending insertion order, so portal
//! search results are byte-identical to the linear scan's.

use hft_geodesy::{LatLon, RadiusTest, UnitEcef, EARTH_RADIUS_M};
use std::collections::HashMap;

/// Grid cell edge, degrees. 0.25° ≈ 28 km of latitude — a few cells
/// cover the paper's 10 km scrape radius, while the whole grid stays
/// coarse enough that corpus-scale inserts touch few distinct cells.
pub const CELL_DEG: f64 = 0.25;

/// Longitude cells around a full circle (360° / [`CELL_DEG`]).
const LON_CELLS: i64 = (360.0 / CELL_DEG) as i64;

/// Angular query radius, degrees, beyond which cell pruning is pointless
/// and the index scans all sites instead (≈ 1,700 km — the corpus
/// corridor fits many times over).
const MAX_PRUNED_RADIUS_DEG: f64 = 15.0;

/// Queries whose circle reaches above this absolute latitude fall back
/// to a full scan: the longitude extent of a spherical cap grows without
/// bound near the poles.
const MAX_PRUNED_LAT_DEG: f64 = 88.0;

/// One bucketed tower site.
///
/// `PartialEq` is exact (bit-level on the precomputed vector): two indices
/// compare equal only when built from identical coordinates through the
/// same [`UnitEcef::from_latlon`] — which is what the ingest applier's
/// incremental-vs-rebuild verification needs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SiteEntry {
    /// Index of the owning license in the portal's insertion order.
    license: usize,
    /// Precomputed unit vector for the dot-product fast path.
    vec: UnitEcef,
    /// Exact coordinate, for the guard-band Vincenty confirmation.
    position: LatLon,
}

/// An equirectangular lat/lon bucket grid over tower sites, keyed by
/// license index.
///
/// Built incrementally by [`crate::UlsDatabase::insert`]; queried through
/// [`SiteIndex::matching_licenses`] with a [`RadiusTest`] so the radius
/// semantics (inclusive bound, ellipsoid guard band) live in one place —
/// the geodesy kernel.
/// Each cell's entry vector is kept ordered by `(license, arrival)`:
/// [`SiteIndex::insert`] places new entries after every entry with a
/// license index `<=` theirs. Bulk builds insert licenses in ascending
/// order, so the common case is a plain append; the ordering only does
/// work when the ingest applier re-inserts a replaced license's sites,
/// and it is what makes an incrementally-maintained index compare equal
/// (`PartialEq`) to one rebuilt from scratch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteIndex {
    cells: HashMap<(i32, i32), Vec<SiteEntry>>,
    site_count: usize,
}

/// The grid cell covering `position`.
fn cell_of(position: &LatLon) -> (i32, i32) {
    (lat_cell(position.lat_deg()), lon_cell(position.lon_deg()))
}

/// Latitude cell of a coordinate (well-defined for `lat ∈ [-90, 90]`).
fn lat_cell(lat_deg: f64) -> i32 {
    ((lat_deg + 90.0) / CELL_DEG).floor() as i32
}

/// Longitude cell of a coordinate, wrapped onto `[0, LON_CELLS)` so
/// ±180° land in the same cell.
fn lon_cell(lon_deg: f64) -> i32 {
    let raw = (lon_deg / CELL_DEG).floor() as i64;
    (raw.rem_euclid(LON_CELLS)) as i32
}

impl SiteIndex {
    /// An empty index.
    pub fn new() -> SiteIndex {
        SiteIndex::default()
    }

    /// Number of bucketed sites (licenses contribute one entry per
    /// tx/rx site, not one per license).
    pub fn site_count(&self) -> usize {
        self.site_count
    }

    /// Number of non-empty grid cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Bucket one site of license `license`.
    ///
    /// The entry is placed after every existing entry whose license index
    /// is `<=` `license`, keeping each cell ordered by `(license,
    /// arrival)`. Ascending bulk builds hit the append fast path.
    pub fn insert(&mut self, license: usize, position: &LatLon) {
        let entry = SiteEntry {
            license,
            vec: UnitEcef::from_latlon(position),
            position: *position,
        };
        let key = cell_of(position);
        let cell = self.cells.entry(key).or_default();
        if cell.last().is_some_and(|e| e.license > license) {
            let pos = cell.partition_point(|e| e.license <= license);
            cell.insert(pos, entry);
        } else {
            cell.push(entry);
        }
        self.site_count += 1;
    }

    /// Drop every entry owned by `license` from the cells covering
    /// `positions` (the license's own site list).
    ///
    /// Emptied cells are removed so the incrementally-maintained index
    /// stays structurally identical to a from-scratch rebuild. Returns the
    /// number of entries removed.
    pub fn remove_license(&mut self, license: usize, positions: &[LatLon]) -> usize {
        let mut removed = 0;
        let mut keys: Vec<(i32, i32)> = positions.iter().map(cell_of).collect();
        keys.sort_unstable();
        keys.dedup();
        for key in keys {
            if let Some(cell) = self.cells.get_mut(&key) {
                let before = cell.len();
                cell.retain(|e| e.license != license);
                removed += before - cell.len();
                if cell.is_empty() {
                    self.cells.remove(&key);
                }
            }
        }
        self.site_count -= removed;
        removed
    }

    /// License indices with any bucketed site inside `test`, ascending.
    ///
    /// `n_licenses` is the portal's license count (bounds the dedup
    /// marks; every bucketed `license` index must be below it).
    pub fn matching_licenses(&self, test: &RadiusTest, n_licenses: usize) -> Vec<usize> {
        let mut marks = vec![false; n_licenses];
        let mut hits = Vec::new();
        let radius_deg = (test.prefilter_radius_m() / EARTH_RADIUS_M).to_degrees();
        let lat = test.center().lat_deg();
        if radius_deg > MAX_PRUNED_RADIUS_DEG || lat.abs() + radius_deg >= MAX_PRUNED_LAT_DEG {
            for entry in self.cells.values().flatten() {
                Self::check(entry, test, &mut marks, &mut hits);
            }
        } else {
            self.pruned_scan(test, lat, radius_deg, &mut marks, &mut hits);
        }
        hits.sort_unstable();
        hits
    }

    /// Walk only the cells intersecting the query circle's bounding box.
    ///
    /// Preconditions (enforced by the caller): `radius_deg` is at most
    /// [`MAX_PRUNED_RADIUS_DEG`] and `|lat| + radius_deg` stays below
    /// [`MAX_PRUNED_LAT_DEG`], so the cap's longitude half-width
    /// `asin(sin θ / cos φ)` is well-defined.
    fn pruned_scan(
        &self,
        test: &RadiusTest,
        lat: f64,
        radius_deg: f64,
        marks: &mut [bool],
        hits: &mut Vec<usize>,
    ) {
        let lon = test.center().lon_deg();
        // Longitude half-width of the spherical cap: the meridian through
        // a cap point at latitude φ is offset from the center's by at
        // most asin(sin θ / cos φ_center) while the cap avoids the poles.
        let sin_theta = radius_deg.to_radians().sin();
        let dlon_deg = (sin_theta / lat.to_radians().cos())
            .clamp(-1.0, 1.0)
            .asin()
            .to_degrees();
        // ±1 cell of margin on every side absorbs edge rounding.
        let lat_lo = lat_cell((lat - radius_deg).max(-90.0)) - 1;
        let lat_hi = lat_cell((lat + radius_deg).min(90.0)) + 1;
        let lon_lo = ((lon - dlon_deg) / CELL_DEG).floor() as i64 - 1;
        let lon_hi = ((lon + dlon_deg) / CELL_DEG).floor() as i64 + 1;
        for lat_c in lat_lo..=lat_hi {
            if lon_hi - lon_lo + 1 >= LON_CELLS {
                for lon_c in 0..LON_CELLS as i32 {
                    self.check_cell((lat_c, lon_c), test, marks, hits);
                }
            } else {
                for lon_raw in lon_lo..=lon_hi {
                    let lon_c = lon_raw.rem_euclid(LON_CELLS) as i32;
                    self.check_cell((lat_c, lon_c), test, marks, hits);
                }
            }
        }
    }

    fn check_cell(
        &self,
        key: (i32, i32),
        test: &RadiusTest,
        marks: &mut [bool],
        hits: &mut Vec<usize>,
    ) {
        if let Some(entries) = self.cells.get(&key) {
            for entry in entries {
                Self::check(entry, test, marks, hits);
            }
        }
    }

    fn check(entry: &SiteEntry, test: &RadiusTest, marks: &mut [bool], hits: &mut Vec<usize>) {
        if !marks[entry.license] && test.contains_vec(&entry.vec, &entry.position) {
            marks[entry.license] = true;
            hits.push(entry.license);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hft_geodesy::gc_destination;

    fn p(lat: f64, lon: f64) -> LatLon {
        LatLon::new(lat, lon).unwrap()
    }

    #[test]
    fn lon_cells_wrap_at_antimeridian() {
        assert_eq!(lon_cell(180.0), lon_cell(-180.0));
        assert_eq!(lon_cell(-180.0), lon_cell(-179.999));
        assert_ne!(lon_cell(179.999), lon_cell(-179.999));
    }

    #[test]
    fn lat_cells_cover_the_poles() {
        assert_eq!(lat_cell(-90.0), 0);
        assert!(lat_cell(90.0) >= lat_cell(89.999));
    }

    #[test]
    fn finds_sites_in_radius_and_dedups_licenses() {
        let mut idx = SiteIndex::new();
        let center = p(41.7625, -88.171233);
        // License 0: both endpoints near the center.
        idx.insert(0, &gc_destination(&center, 45.0, 3_000.0));
        idx.insert(0, &gc_destination(&center, 225.0, 4_000.0));
        // License 1: one endpoint in, one far out.
        idx.insert(1, &gc_destination(&center, 90.0, 9_000.0));
        idx.insert(1, &gc_destination(&center, 90.0, 90_000.0));
        // License 2: both out.
        idx.insert(2, &gc_destination(&center, 0.0, 50_000.0));
        idx.insert(2, &gc_destination(&center, 10.0, 60_000.0));
        let test = RadiusTest::new(&center, 10_000.0);
        assert_eq!(idx.matching_licenses(&test, 3), vec![0, 1]);
        assert_eq!(idx.site_count(), 6);
    }

    #[test]
    fn antimeridian_query_catches_both_sides() {
        let mut idx = SiteIndex::new();
        idx.insert(0, &p(10.0, 179.98));
        idx.insert(1, &p(10.0, -179.98));
        idx.insert(2, &p(10.0, 178.0));
        let test = RadiusTest::new(&p(10.0, 179.999), 10_000.0);
        assert_eq!(idx.matching_licenses(&test, 3), vec![0, 1]);
    }

    #[test]
    fn near_pole_query_falls_back_to_full_scan() {
        let mut idx = SiteIndex::new();
        idx.insert(0, &p(89.5, 0.0));
        idx.insert(1, &p(89.5, 180.0)); // ~111 km across the pole
        idx.insert(2, &p(80.0, 0.0));
        let test = RadiusTest::new(&p(89.9, 0.0), 150_000.0);
        assert_eq!(idx.matching_licenses(&test, 3), vec![0, 1]);
    }

    #[test]
    fn planet_scale_radius_returns_everything() {
        let mut idx = SiteIndex::new();
        for (i, lat) in [-80.0, -10.0, 0.0, 45.0, 89.0].iter().enumerate() {
            idx.insert(i, &p(*lat, 30.0 * i as f64));
        }
        let test = RadiusTest::new(&p(0.0, 0.0), 25_000_000.0);
        assert!(test.prefilter_radius_m() > 21_000_000.0);
        assert_eq!(idx.matching_licenses(&test, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn out_of_order_insert_matches_ascending_build() {
        let site_a = p(41.0, -88.0);
        let site_b = p(41.001, -88.001); // same 0.25° cell as site_a
        let site_c = p(45.0, -80.0);
        let mut ascending = SiteIndex::new();
        ascending.insert(0, &site_a);
        ascending.insert(1, &site_b);
        ascending.insert(1, &site_c);
        ascending.insert(2, &site_a);
        // Insert license 1 last: the ordered insert must splice it between
        // licenses 0 and 2 inside the shared cell.
        let mut shuffled = SiteIndex::new();
        shuffled.insert(0, &site_a);
        shuffled.insert(2, &site_a);
        shuffled.insert(1, &site_b);
        shuffled.insert(1, &site_c);
        assert_eq!(ascending, shuffled);
    }

    #[test]
    fn remove_license_restores_prior_index() {
        let site_a = p(41.0, -88.0);
        let site_b = p(42.0, -87.0);
        let mut base = SiteIndex::new();
        base.insert(0, &site_a);
        let mut grown = base.clone();
        grown.insert(1, &site_a);
        grown.insert(1, &site_b);
        assert_eq!(grown.remove_license(1, &[site_a, site_b]), 2);
        assert_eq!(grown, base);
        assert_eq!(grown.site_count(), 1);
        // Removing the last entry of a cell drops the cell itself.
        assert_eq!(grown.cell_count(), base.cell_count());
    }

    #[test]
    fn empty_index_is_empty() {
        let idx = SiteIndex::new();
        let test = RadiusTest::new(&p(41.0, -88.0), 10_000.0);
        assert!(idx.matching_licenses(&test, 0).is_empty());
        assert_eq!(idx.site_count(), 0);
        assert_eq!(idx.cell_count(), 0);
    }
}
