//! Funnel-noise licensees: the §2.2 pipeline only means something if the
//! corpus contains realistic negatives — partially built corridor
//! networks (shortlisted but never end-to-end), small local microwave
//! users near CME (dropped by the ≥11-filings rule), and non-MG services
//! near CME (dropped by the site-based service filter).

use crate::layout::{make_chain_geometry, place_chain};
use hft_geodesy::{gc_destination, gc_interpolate, LatLon, RadiusTest};
use hft_radio::{Band, BandPlan};
use hft_time::Date;
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, StationClass,
    TowerSite,
};
use rand::Rng;

/// Deterministic partial-licensee names (19 of them, matching the
/// scenario's `partial_licensees` default).
const PARTIAL_NAMES: [&str; 19] = [
    "Midwest Relay LLC",
    "Great Lakes Wave",
    "Prairie Link Systems",
    "Fox Valley Microwave",
    "Allegheny Crossing",
    "Heartland Spectrum",
    "Keystone Wireless Route",
    "Lakeshore Transmission",
    "Twin Rivers Radio",
    "Summit Path Networks",
    "Interstate Beam Co",
    "Tri-State Millimeter",
    "Continental Hop LLC",
    "Apex Corridor Comm",
    "Meridian Line Partners",
    "Blue Ridge Relay",
    "Gateway Spectrum Works",
    "Northern Plains Link",
    "Ohio Valley Wave",
];

fn site<R: Rng + ?Sized>(rng: &mut R, p: LatLon) -> TowerSite {
    TowerSite {
        position: p,
        ground_elevation_m: 180.0 + rng.gen::<f64>() * 180.0,
        structure_height_m: 60.0 + rng.gen::<f64>() * 120.0,
    }
}

/// Allocate monotonically increasing ids/call signs.
pub struct IdAllocator {
    next: u64,
}

impl IdAllocator {
    /// Start allocating at `first`.
    pub fn new(first: u64) -> IdAllocator {
        IdAllocator { next: first }
    }

    /// Next (id, call sign) pair.
    pub fn next_id(&mut self) -> (LicenseId, CallSign) {
        let id = self.next;
        self.next += 1;
        (LicenseId(id), CallSign(format!("WQ{id:06}")))
    }

    /// Give `licenses`, in order, the next ids and call signs — what
    /// calling [`IdAllocator::next_id`] as each was built would have given.
    pub fn stamp(&mut self, licenses: &mut [License]) {
        for l in licenses {
            (l.id, l.call_sign) = self.next_id();
        }
    }
}

/// Generate the partially built corridor licensees: chains that start
/// near CME and head towards NJ but stop partway (under construction,
/// abandoned, or serving intermediate markets).
pub fn partial_licensees<R: Rng + ?Sized>(
    count: usize,
    cme: &LatLon,
    ny4: &LatLon,
    ids: &mut IdAllocator,
    rng: &mut R,
) -> Vec<License> {
    let mut out = Vec::new();
    // Placement invariant, checked with the same kernel the portal's
    // geographic search runs on: every partial chain must start inside
    // the paper's 10 km scrape radius or the funnel never sees it.
    // Hoisted once per generator call; draws no rng values.
    let search_zone = RadiusTest::new(cme, 10_000.0);
    for i in 0..count {
        let name = PARTIAL_NAMES[i % PARTIAL_NAMES.len()];
        let name = if i < PARTIAL_NAMES.len() {
            name.to_string()
        } else {
            format!("{name} {}", i / PARTIAL_NAMES.len() + 1)
        };
        // Chains cover 20%-60% of the corridor with 12..=24 towers.
        let reach = 0.2 + rng.gen::<f64>() * 0.4;
        let towers = 12 + (rng.gen::<f64>() * 13.0) as usize;
        let start = gc_interpolate(cme, ny4, 0.002 + rng.gen::<f64>() * 0.004);
        debug_assert!(
            search_zone.contains(&start),
            "partial chain start left the geographic-search radius"
        );
        let end = gc_interpolate(cme, ny4, reach);
        let geometry = make_chain_geometry(towers - 2, rng);
        let points = place_chain(
            &start,
            &end,
            &geometry,
            1_000.0 + rng.gen::<f64>() * 4_000.0,
        );
        let plan = BandPlan::new(Band::B11GHz);
        let channels = plan.assign_chain(points.len() - 1);
        let grant_year = 2013 + (rng.gen::<f64>() * 6.0) as i32;
        let grant = Date::new(
            grant_year,
            1 + (rng.gen::<f64>() * 11.0) as u32,
            1 + (rng.gen::<f64>() * 27.0) as u32,
        )
        .expect("generated date valid");
        // A third of them gave up and cancelled everything.
        let cancel = (rng.gen::<f64>() < 0.33)
            .then(|| grant.add_days(400 + (rng.gen::<f64>() * 800.0) as i64));
        for (k, w) in points.windows(2).enumerate() {
            let (id, call_sign) = ids.next_id();
            out.push(License {
                id,
                call_sign,
                licensee: name.clone(),
                service: RadioService::MG,
                station_class: StationClass::FXO,
                grant_date: grant.add_days((k as i64) * 9),
                termination_date: Some(grant.add_days(3650)),
                cancellation_date: cancel,
                paths: vec![MicrowavePath {
                    tx: site(rng, w[0]),
                    rx: site(rng, w[1]),
                    frequencies: vec![FrequencyAssignment {
                        center_hz: channels[k].center_hz,
                    }],
                }],
            });
        }
    }
    out
}

/// Small MG/FXO licensees near CME (utilities, quarries, pipelines):
/// 1..=10 filings each, never forming a corridor.
pub fn small_licensees<R: Rng + ?Sized>(
    count: usize,
    cme: &LatLon,
    ids: &mut IdAllocator,
    rng: &mut R,
) -> Vec<License> {
    let mut out = Vec::new();
    let plan = BandPlan::new(Band::U6GHz);
    for i in 0..count {
        let name = format!("Aurora Industrial Wireless {:02}", i + 1);
        let filings = 1 + (rng.gen::<f64>() * 10.0) as usize; // 1..=10
        for k in 0..filings {
            // One endpoint within the 10 km CME search radius.
            let near = gc_destination(cme, rng.gen::<f64>() * 360.0, rng.gen::<f64>() * 8_000.0);
            let far = gc_destination(
                &near,
                rng.gen::<f64>() * 360.0,
                4_000.0 + rng.gen::<f64>() * 26_000.0,
            );
            let (id, call_sign) = ids.next_id();
            let grant = Date::new(
                2012 + (rng.gen::<f64>() * 7.0) as i32,
                1 + (rng.gen::<f64>() * 11.0) as u32,
                5,
            )
            .expect("generated date valid");
            out.push(License {
                id,
                call_sign,
                licensee: name.clone(),
                service: RadioService::MG,
                station_class: StationClass::FXO,
                grant_date: grant,
                termination_date: Some(grant.add_days(3650)),
                cancellation_date: None,
                paths: vec![MicrowavePath {
                    tx: site(rng, near),
                    rx: site(rng, far),
                    frequencies: vec![FrequencyAssignment {
                        center_hz: plan.channel(k + i).center_hz,
                    }],
                }],
            });
        }
    }
    out
}

/// Non-MG licensees near CME (common-carrier and broadcast-auxiliary
/// microwave), dropped by the site-based `MG`/`FXO` filter.
pub fn other_service_licensees<R: Rng + ?Sized>(
    count: usize,
    cme: &LatLon,
    ids: &mut IdAllocator,
    rng: &mut R,
) -> Vec<License> {
    let mut out = Vec::new();
    let plan = BandPlan::new(Band::B18GHz);
    for i in 0..count {
        let (service, tag) = if i % 2 == 0 {
            (RadioService::CF, "Carrier")
        } else {
            (RadioService::AF, "Broadcast")
        };
        let name = format!("Chicagoland {tag} Net {:02}", i / 2 + 1);
        let filings = 2 + (rng.gen::<f64>() * 12.0) as usize;
        for k in 0..filings {
            let near = gc_destination(cme, rng.gen::<f64>() * 360.0, rng.gen::<f64>() * 9_000.0);
            let far = gc_destination(
                &near,
                rng.gen::<f64>() * 360.0,
                5_000.0 + rng.gen::<f64>() * 20_000.0,
            );
            let (id, call_sign) = ids.next_id();
            let grant = Date::new(2011 + (rng.gen::<f64>() * 8.0) as i32, 3, 15).expect("valid");
            out.push(License {
                id,
                call_sign,
                licensee: name.clone(),
                service: service.clone(),
                station_class: if i % 2 == 0 {
                    StationClass::FXO
                } else {
                    StationClass::FB
                },
                grant_date: grant,
                termination_date: Some(grant.add_days(3650)),
                cancellation_date: None,
                paths: vec![MicrowavePath {
                    tx: site(rng, near),
                    rx: site(rng, far),
                    frequencies: vec![FrequencyAssignment {
                        center_hz: plan.channel(k * 3 + i).center_hz,
                    }],
                }],
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn cme() -> LatLon {
        LatLon::new(41.7625, -88.171233).unwrap()
    }

    fn ny4() -> LatLon {
        LatLon::new(40.7930, -74.0576).unwrap()
    }

    #[test]
    fn partials_have_at_least_eleven_filings() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut ids = IdAllocator::new(1);
        let lics = partial_licensees(19, &cme(), &ny4(), &mut ids, &mut rng);
        let mut names: Vec<&str> = lics.iter().map(|l| l.licensee.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19);
        for name in names {
            let n = lics.iter().filter(|l| l.licensee == name).count();
            assert!(n >= 11, "{name} has only {n} filings");
        }
    }

    #[test]
    fn partials_touch_cme_radius() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut ids = IdAllocator::new(1);
        let lics = partial_licensees(19, &cme(), &ny4(), &mut ids, &mut rng);
        let mut names: Vec<&str> = lics.iter().map(|l| l.licensee.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        for name in names {
            let near = lics
                .iter()
                .filter(|l| l.licensee == name)
                .any(|l| l.within_radius(&cme(), 10.0));
            assert!(near, "{name} untouched by geographic search");
        }
    }

    #[test]
    fn partials_never_reach_nj() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut ids = IdAllocator::new(1);
        let lics = partial_licensees(19, &cme(), &ny4(), &mut ids, &mut rng);
        for l in &lics {
            assert!(
                !l.within_radius(&ny4(), 100.0),
                "partial reached NJ: {}",
                l.licensee
            );
        }
    }

    #[test]
    fn smalls_have_fewer_than_eleven() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut ids = IdAllocator::new(1);
        let lics = small_licensees(28, &cme(), &mut ids, &mut rng);
        let mut names: Vec<&str> = lics.iter().map(|l| l.licensee.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 28);
        for name in names {
            let n = lics.iter().filter(|l| l.licensee == name).count();
            assert!((1..=10).contains(&n), "{name}: {n}");
        }
    }

    #[test]
    fn others_are_not_mg() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut ids = IdAllocator::new(1);
        let lics = other_service_licensees(12, &cme(), &mut ids, &mut rng);
        assert!(!lics.is_empty());
        for l in &lics {
            assert_ne!(l.service, RadioService::MG);
        }
    }

    #[test]
    fn ids_unique_across_groups() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let mut ids = IdAllocator::new(1);
        let mut all = partial_licensees(5, &cme(), &ny4(), &mut ids, &mut rng);
        all.extend(small_licensees(5, &cme(), &mut ids, &mut rng));
        all.extend(other_service_licensees(4, &cme(), &mut ids, &mut rng));
        let mut seen: Vec<u64> = all.iter().map(|l| l.id.0).collect();
        let before = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), before);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut r1 = ChaCha8Rng::seed_from_u64(11);
        let mut r2 = ChaCha8Rng::seed_from_u64(11);
        let mut i1 = IdAllocator::new(1);
        let mut i2 = IdAllocator::new(1);
        let a = small_licensees(5, &cme(), &mut i1, &mut r1);
        let b = small_licensees(5, &cme(), &mut i2, &mut r2);
        assert_eq!(a, b);
    }
}
