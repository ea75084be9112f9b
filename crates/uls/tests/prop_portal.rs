//! Property-based tests for the indexed portal: for arbitrary corpora
//! and query points, the grid-indexed `geographic_search` and the
//! `(service, class)`-indexed `site_search` must return exactly the same
//! license sets — in the same order — as the retained linear-scan
//! reference implementations, including at radius-boundary points.

use hft_geodesy::LatLon;
use hft_time::Date;
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, StationClass,
    TowerSite, UlsDatabase, UlsPortal,
};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = LatLon> {
    (30.0f64..50.0, -100.0f64..-70.0).prop_map(|(lat, lon)| LatLon::new(lat, lon).unwrap())
}

fn arb_service() -> impl Strategy<Value = RadioService> {
    prop_oneof![
        Just(RadioService::MG),
        Just(RadioService::CF),
        Just(RadioService::AF),
        Just(RadioService::Other("ZZ".into())),
    ]
}

fn arb_class() -> impl Strategy<Value = StationClass> {
    prop_oneof![
        Just(StationClass::FXO),
        Just(StationClass::FB),
        Just(StationClass::MO),
    ]
}

/// A corpus of up to 60 single-path licenses spread over the central/
/// eastern US, filed under a handful of recurring licensee names.
fn arb_corpus() -> impl Strategy<Value = Vec<License>> {
    proptest::collection::vec(
        (arb_point(), arb_point(), arb_service(), arb_class()),
        0..60,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (tx, rx, service, station_class))| License {
                id: LicenseId(i as u64 + 1),
                call_sign: CallSign(format!("WQ{i:05}")),
                licensee: format!("Licensee {:02}", i % 7),
                service,
                station_class,
                grant_date: Date::new(2015, 1, 1).unwrap(),
                termination_date: None,
                cancellation_date: None,
                paths: vec![MicrowavePath {
                    tx: TowerSite::at(tx),
                    rx: TowerSite::at(rx),
                    frequencies: vec![FrequencyAssignment { center_hz: 6.0e9 }],
                }],
            })
            .collect()
    })
}

fn ids(licenses: &[&License]) -> Vec<u64> {
    licenses.iter().map(|l| l.id.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_geographic_search_matches_linear(
        corpus in arb_corpus(),
        center in arb_point(),
        r_km in 0.0f64..3_000.0,
    ) {
        let db = UlsDatabase::from_licenses(corpus);
        prop_assert_eq!(
            ids(&db.geographic_search(&center, r_km)),
            ids(&db.geographic_search_linear(&center, r_km)),
        );
    }

    #[test]
    fn geographic_search_exact_at_boundary_radii(
        corpus in arb_corpus(),
        center in arb_point(),
        pick in 0usize..10_000,
        eps_m in -2.0f64..2.0,
    ) {
        // Aim the radius to land within ±2 m of an actual tower site, so
        // the query circle's edge cuts straight through corpus points —
        // the regime where an approximate kernel would gain or lose a
        // license. Indexed and linear must still agree exactly.
        let db = UlsDatabase::from_licenses(corpus);
        prop_assume!(!db.is_empty());
        let sites: Vec<LatLon> = db
            .licenses()
            .iter()
            .flat_map(|l| l.sites().map(|s| s.position))
            .collect();
        let target = sites[pick % sites.len()];
        let r_km = (center.geodesic_distance_m(&target) + eps_m).max(0.0) / 1000.0;
        prop_assert_eq!(
            ids(&db.geographic_search(&center, r_km)),
            ids(&db.geographic_search_linear(&center, r_km)),
        );
    }

    #[test]
    fn indexed_site_search_matches_linear(
        corpus in arb_corpus(),
        service in arb_service(),
        class in arb_class(),
    ) {
        let db = UlsDatabase::from_licenses(corpus);
        prop_assert_eq!(
            ids(&db.site_search(&service, &class)),
            ids(&db.site_search_linear(&service, &class)),
        );
    }

    #[test]
    fn licensee_cache_matches_recomputation(corpus in arb_corpus()) {
        let db = UlsDatabase::from_licenses(corpus);
        let mut expect: Vec<&str> = db
            .licenses()
            .iter()
            .map(|l| l.licensee.as_str())
            .collect();
        expect.sort_unstable();
        expect.dedup();
        prop_assert_eq!(db.licensees(), expect);
    }

    #[test]
    fn incremental_insert_equals_bulk_build(corpus in arb_corpus(), center in arb_point()) {
        // `from_licenses` sorts each index in one pass; an incrementally
        // grown database must index identically to that bulk build.
        let bulk = UlsDatabase::from_licenses(corpus.clone());
        let mut grown = UlsDatabase::new();
        for lic in corpus {
            grown.insert(lic);
        }
        prop_assert_eq!(grown.licensees(), bulk.licensees());
        prop_assert_eq!(
            ids(&grown.geographic_search(&center, 250.0)),
            ids(&bulk.geographic_search(&center, 250.0)),
        );
    }
}

/// A license to file: call sign, licensee, service/class and lifecycle
/// dates drawn from small pools so scripts revisit keys, call signs and
/// dates included.
#[derive(Debug, Clone)]
struct Filing {
    call: u8,
    licensee: u8,
    service: RadioService,
    class: StationClass,
    sites: Vec<(LatLon, LatLon)>,
    grant: u8,
    termination: Option<u8>,
}

/// What a `replace` changes; `None` keeps the field of the license it
/// replaces.
#[derive(Debug, Clone)]
struct Change {
    call: Option<u8>,
    new_id: bool,
    licensee: Option<u8>,
    service_class: Option<(RadioService, StationClass)>,
    sites: Option<Vec<(LatLon, LatLon)>>,
    grant: Option<u8>,
}

#[derive(Debug, Clone)]
enum Edit {
    Insert(Filing),
    Extend(Vec<Filing>),
    /// Replace the license at `at % len`.
    Replace(usize, Change),
    /// Set or clear the cancellation of the license at `at % len`.
    Cancel(usize, Option<u32>),
}

const CALLS: u8 = 8;
const NAMES: u8 = 5;

fn call_sign(k: u8) -> CallSign {
    CallSign(format!("WQ{k:05}"))
}

fn licensee(k: u8) -> String {
    format!("Licensee {k}")
}

/// Grants fall on four new-year days, 2014 to 2017.
fn grant_date(k: u8) -> Date {
    Date::new(2014 + i32::from(k), 1, 1).unwrap()
}

/// Terminations fall on three first-of-the-month days of 2020.
fn termination_date(k: u8) -> Date {
    Date::new(2020, u32::from(k), 1).unwrap()
}

/// Sites on a coarse lattice, so licenses share grid cells.
fn arb_sites() -> impl Strategy<Value = Vec<(LatLon, LatLon)>> {
    let lattice = (0u8..6, 0u8..6).prop_map(|(i, j)| {
        LatLon::new(40.0 + f64::from(i) * 0.2, -88.0 + f64::from(j) * 0.3).unwrap()
    });
    proptest::collection::vec((lattice.clone(), lattice), 1..3)
}

fn arb_filing() -> impl Strategy<Value = Filing> {
    (
        (0..CALLS, 0..NAMES, arb_service(), arb_class(), arb_sites()),
        (0u8..4, proptest::option::of(1u8..4)),
    )
        .prop_map(
            |((call, licensee, service, class, sites), (grant, termination))| Filing {
                call,
                licensee,
                service,
                class,
                sites,
                grant,
                termination,
            },
        )
}

fn arb_change() -> impl Strategy<Value = Change> {
    (
        proptest::option::of(0..CALLS),
        (0u8..2).prop_map(|b| b == 1),
        proptest::option::of(0..NAMES),
        proptest::option::of((arb_service(), arb_class())),
        proptest::option::of(arb_sites()),
        proptest::option::of(0u8..4),
    )
        .prop_map(
            |(call, new_id, licensee, service_class, sites, grant)| Change {
                call,
                new_id,
                licensee,
                service_class,
                sites,
                grant,
            },
        )
}

/// Replacements drawn twice as often as the other edits.
fn arb_edit() -> impl Strategy<Value = Edit> {
    let replace = || (0usize..1_000, arb_change()).prop_map(|(at, c)| Edit::Replace(at, c));
    prop_oneof![
        arb_filing().prop_map(Edit::Insert),
        proptest::collection::vec(arb_filing(), 0..6).prop_map(Edit::Extend),
        replace(),
        replace(),
        (0usize..1_000, proptest::option::of(1u32..29)).prop_map(|(at, d)| Edit::Cancel(at, d)),
    ]
}

fn paths(sites: &[(LatLon, LatLon)]) -> Vec<MicrowavePath> {
    sites
        .iter()
        .map(|&(tx, rx)| MicrowavePath {
            tx: TowerSite::at(tx),
            rx: TowerSite::at(rx),
            frequencies: vec![FrequencyAssignment { center_hz: 6.0e9 }],
        })
        .collect()
}

/// Turn `f` into a license with the fresh id `id`.
fn file(f: Filing, id: u64) -> License {
    License {
        id: LicenseId(id),
        call_sign: call_sign(f.call),
        licensee: licensee(f.licensee),
        service: f.service,
        station_class: f.class,
        grant_date: grant_date(f.grant),
        termination_date: f.termination.map(termination_date),
        cancellation_date: None,
        paths: paths(&f.sites),
    }
}

/// Run `script` against a database and against a plain license list,
/// the reference; returns both and the last id handed out.
fn run(script: Vec<Edit>) -> (UlsDatabase, Vec<License>, u64) {
    let mut db = UlsDatabase::new();
    let mut model: Vec<License> = Vec::new();
    let mut next_id = 1;
    let mut fresh_id = || {
        next_id += 1;
        next_id
    };
    for edit in script {
        match edit {
            Edit::Insert(f) => {
                let lic = file(f, fresh_id());
                model.push(lic.clone());
                db.insert(lic);
            }
            Edit::Extend(fs) => {
                let batch: Vec<License> = fs.into_iter().map(|f| file(f, fresh_id())).collect();
                model.extend(batch.iter().cloned());
                db.extend(batch);
            }
            Edit::Replace(at, c) if !model.is_empty() => {
                let at = at % model.len();
                let mut lic = model[at].clone();
                if let Some(k) = c.call {
                    lic.call_sign = call_sign(k);
                }
                if c.new_id {
                    lic.id = LicenseId(fresh_id());
                }
                if let Some(k) = c.licensee {
                    lic.licensee = licensee(k);
                }
                if let Some((service, class)) = c.service_class {
                    lic.service = service;
                    lic.station_class = class;
                }
                if let Some(sites) = c.sites {
                    lic.paths = paths(&sites);
                }
                if let Some(k) = c.grant {
                    lic.grant_date = grant_date(k);
                }
                model[at] = lic.clone();
                db.replace(at, lic);
            }
            Edit::Cancel(at, day) if !model.is_empty() => {
                let at = at % model.len();
                let date = day.map(|d| Date::new(2019, 3, d).unwrap());
                model[at].cancellation_date = date;
                db.set_cancellation(at, date);
            }
            Edit::Replace(..) | Edit::Cancel(..) => {}
        }
    }
    (db, model, next_id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn edit_scripts_equal_a_bulk_build_and_linear_scans(
        script in proptest::collection::vec(arb_edit(), 0..40),
        center in (40.0f64..41.2, -88.0f64..-86.2),
        r_km in 0.0f64..60.0,
    ) {
        let (db, model, last_id) = run(script);
        prop_assert!(db == UlsDatabase::from_licenses(model.clone()));
        prop_assert_eq!(db.licenses(), &model[..]);
        for k in 0..=CALLS {
            let call = call_sign(k);
            let latest = model.iter().rposition(|l| l.call_sign == call);
            prop_assert_eq!(db.find_call_sign(&call.0), latest, "call sign {}", call);
        }
        // Every id ever handed out, replaced-away ones included, and one
        // past the last.
        for id in 0..=last_id + 1 {
            let id = LicenseId(id);
            prop_assert_eq!(db.license_detail(id), model.iter().find(|l| l.id == id));
        }
        // Lifecycle dates on, between and around the event days.
        let probes = [
            Date::new(2013, 6, 1).unwrap(),
            grant_date(1),
            Date::new(2016, 7, 1).unwrap(),
            Date::new(2019, 3, 14).unwrap(),
            termination_date(2),
            Date::new(2030, 1, 1).unwrap(),
        ];
        for k in 0..=NAMES {
            let name = licensee(k);
            let want: Vec<&License> = model.iter().filter(|l| l.licensee == name).collect();
            prop_assert_eq!(db.licensee_search(&name), want.clone());
            // Epochs against a linear scan of the licensee's licenses.
            let mut events: Vec<Date> = want
                .iter()
                .flat_map(|l| [Some(l.grant_date), l.cancellation_date, l.termination_date])
                .flatten()
                .collect();
            events.sort_unstable();
            events.dedup();
            let filings = db.filings(&name);
            prop_assert_eq!(filings.epoch_count(), events.len() + 1, "{}", name);
            for probe in probes.into_iter().chain(events.iter().copied()) {
                let linear = events.iter().filter(|&&e| e <= probe).count();
                prop_assert_eq!(filings.epoch(probe), linear, "{} at {}", name, probe.to_iso());
                prop_assert_eq!(filings.epoch_start(linear), if linear == 0 { Date::MIN } else { events[linear - 1] });
            }
        }
        let mut names: Vec<&str> = model.iter().map(|l| l.licensee.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        prop_assert_eq!(db.licensees(), names);
        let services = [RadioService::MG, RadioService::CF, RadioService::AF, RadioService::Other("ZZ".into())];
        for service in &services {
            for class in [StationClass::FXO, StationClass::FB, StationClass::MO] {
                let want: Vec<&License> = model
                    .iter()
                    .filter(|l| &l.service == service && l.station_class == class)
                    .collect();
                prop_assert_eq!(db.site_search(service, &class), want);
            }
        }
        let center = LatLon::new(center.0, center.1).unwrap();
        prop_assert_eq!(
            ids(&db.geographic_search(&center, r_km)),
            ids(&db.geographic_search_linear(&center, r_km)),
        );
    }
}
