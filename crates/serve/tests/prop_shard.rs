//! Shard-router properties: partitioning is a function (every license
//! lands on exactly one shard, co-located with its licensee) and
//! scatter-gather is transparent (a [`ShardRouter`] over any fleet size
//! answers byte-identically to a single-corpus [`Service`], before and
//! after the fleet publishes an edited corpus) — for random corpora,
//! random edits, random requests and random shard counts including the
//! degenerate N=1 fleet.

use hft_geodesy::LatLon;
use hft_ingest::ShardedStore;
use hft_serve::api::Request;
use hft_serve::{Service, ShardRouter};
use hft_time::Date;
use hft_uls::shard::{partition, shard_of_licensee, ShardStrategy};
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, StationClass,
    TowerSite, UlsDatabase,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// A small licensee pool so random corpora reliably give some
/// licensees several licenses (the co-location property is vacuous
/// when every licensee owns exactly one).
const NAMES: [&str; 6] = [
    "Alpha Networks",
    "Beta Microwave",
    "Gamma Wireless",
    "Delta Relay",
    "Epsilon Beam",
    "Zeta Spectrum",
];

fn license(seq: u64, name_ix: usize, lat: f64, lon: f64, sited: bool) -> License {
    License {
        id: LicenseId(seq + 1),
        call_sign: CallSign(format!("WQ{seq:05}")),
        licensee: NAMES[name_ix % NAMES.len()].into(),
        service: RadioService::MG,
        station_class: StationClass::FXO,
        grant_date: Date::new(2015, 1, 1).unwrap(),
        termination_date: None,
        cancellation_date: None,
        // Site-less licenses: a licensee need not file any site.
        paths: if sited {
            vec![MicrowavePath {
                tx: TowerSite::at(LatLon::new(lat, lon).unwrap()),
                rx: TowerSite::at(LatLon::new(lat + 0.1, lon + 0.2).unwrap()),
                frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
            }]
        } else {
            Vec::new()
        },
    }
}

fn corpus() -> impl Strategy<Value = UlsDatabase> {
    proptest::collection::vec(
        (
            0usize..NAMES.len(),
            39.0f64..43.0,
            -89.0f64..-85.0,
            (0u8..2).prop_map(|b| b == 1),
        ),
        0..12,
    )
    .prop_map(|specs| {
        UlsDatabase::from_licenses(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (name_ix, lat, lon, sited))| license(i as u64, name_ix, lat, lon, sited))
                .collect(),
        )
    })
}

/// One corpus edit: `(kind, which, name, lat, lon)`, with `which`
/// picking a license modulo the corpus size.
type Edit = (u8, usize, usize, f64, f64);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(
        (
            0u8..5,
            0usize..16,
            0usize..NAMES.len(),
            39.0f64..43.0,
            -89.0f64..-85.0,
        ),
        0..4,
    )
}

/// `db` with `edits` applied in turn: cancel a license, move it to
/// another licensee (and so, maybe, another shard), move its sites,
/// drop it, or file a new one.
fn edited(db: &UlsDatabase, edits: &[Edit]) -> UlsDatabase {
    let mut licenses = db.licenses().to_vec();
    for (j, &(kind, which, name_ix, lat, lon)) in edits.iter().enumerate() {
        let seq = 100 + j as u64;
        if kind == 4 || licenses.is_empty() {
            licenses.push(license(seq, name_ix, lat, lon, true));
            continue;
        }
        let i = which % licenses.len();
        match kind {
            0 => licenses[i].cancellation_date = Some(Date::new(2017, 3, 1).unwrap()),
            1 => licenses[i].licensee = NAMES[name_ix].into(),
            2 => licenses[i].paths = license(seq, name_ix, lat, lon, true).paths,
            _ => {
                licenses.remove(i);
            }
        }
    }
    UlsDatabase::from_licenses(licenses)
}

fn name() -> BoxedStrategy<String> {
    prop_oneof![
        (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_string()),
        Just("Nobody Known".to_string()),
    ]
    .boxed()
}

fn date() -> BoxedStrategy<Date> {
    (2014i32..2022, 1u32..13, 1u32..29)
        .prop_map(|(y, m, d)| Date::new(y, m, d).expect("in-range date"))
        .boxed()
}

fn dc() -> BoxedStrategy<String> {
    prop_oneof![
        Just("CME".to_string()),
        Just("NY4".to_string()),
        Just("BAD".to_string()),
    ]
    .boxed()
}

fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        // Valid and out-of-range coordinates: request-shaped errors
        // must merge to the same bytes too.
        (30.0f64..200.0, -100.0f64..-80.0, 1.0f64..2000.0).prop_map(
            |(lat_deg, lon_deg, radius_km)| Request::Geographic {
                lat_deg,
                lon_deg,
                radius_km,
            }
        ),
        Just(Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        }),
        (30.0f64..50.0, -100.0f64..-80.0, 1.0f64..2000.0, 0usize..4).prop_map(
            |(lat_deg, lon_deg, radius_km, min_filings)| Request::Shortlist {
                lat_deg,
                lon_deg,
                radius_km,
                min_filings,
            }
        ),
        (name(), date()).prop_map(|(licensee, date)| Request::Network { licensee, date }),
        (name(), date(), dc(), dc()).prop_map(|(licensee, date, from, to)| Request::Route {
            licensee,
            date,
            from,
            to,
        }),
        (name(), date(), dc(), dc()).prop_map(|(licensee, date, from, to)| Request::Apa {
            licensee,
            date,
            from,
            to,
        }),
    ]
    .boxed()
}

/// The corridor ecosystem corpus (seed 2020, the repro seed used by
/// every bench), generated once — it is the real roster whose licensee
/// names exposed the FNV-1a avalanche deficiency.
fn corridor_db() -> &'static UlsDatabase {
    static DB: OnceLock<UlsDatabase> = OnceLock::new();
    DB.get_or_init(|| hft_corridor::generate(&hft_corridor::chicago_nj(), 2020).db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Avalanche regression: under raw `fnv1a(name) % n` the corridor
    /// roster left shards 4 and 7 of an 8-shard fleet with zero
    /// licensees (BENCH_fleet.json showed them serving zero requests).
    /// With the splitmix finalizer every shard of every fleet size up
    /// to 8 owns at least one licensee — so no fleet member is ever
    /// dead weight.
    #[test]
    fn corridor_corpus_leaves_no_shard_empty(shards in 1usize..=8) {
        let db = corridor_db();
        prop_assert!(!db.licensees().is_empty());
        let mut licensees = vec![0usize; shards];
        for name in db.licensees() {
            licensees[shard_of_licensee(name, shards) as usize] += 1;
        }
        for (k, &count) in licensees.iter().enumerate() {
            prop_assert!(count > 0, "shard {k} of {shards} owns no licensee: {licensees:?}");
        }
    }

    /// Partitioning is licensee-granular and total: every license lands
    /// on exactly one shard, that shard is its licensee's name hash, and
    /// shard sizes sum to the corpus size.
    #[test]
    fn every_license_maps_to_exactly_one_shard(
        db in corpus(),
        shards in 1usize..8,
    ) {
        let part = partition(&db, shards);
        prop_assert_eq!(part.len(), shards);
        let total: usize = part.iter().map(|s| s.licenses().len()).sum();
        prop_assert_eq!(total, db.licenses().len());
        for l in db.licenses() {
            let holders: Vec<usize> = part
                .iter()
                .enumerate()
                .filter(|(_, s)| s.licenses().iter().any(|x| x.id == l.id))
                .map(|(k, _)| k)
                .collect();
            prop_assert_eq!(holders.len(), 1, "license {:?} on shards {:?}", l.id, holders);
            prop_assert_eq!(shard_of_licensee(&l.licensee, shards), holders[0] as u32);
        }
    }

    /// Scatter-gather transparency: for any corpus and fleet size, the
    /// router's answer bytes equal a single-corpus
    /// service's answer bytes for every request — and still do after
    /// the fleet publishes an edited corpus, whichever shards the edits
    /// touched.
    #[test]
    fn router_matches_single_corpus_bytes(
        db in corpus(),
        edits in edits(),
        shards in 1usize..8,
        requests in proptest::collection::vec(request(), 1..6),
    ) {
        let store =
            ShardedStore::seeded(&Arc::new(db.clone()), shards, ShardStrategy::LicenseeHash, None);
        let router = ShardRouter::over(&store);
        let next = edited(&db, &edits);
        for (generation, corpus) in [&db, &next].into_iter().enumerate() {
            if generation > 0 {
                store.publish_full(corpus, None);
            }
            let single = Service::new(corpus);
            for req in &requests {
                let got = router.handle(req).encode();
                let want = single.handle(req).encode();
                prop_assert_eq!(
                    String::from_utf8_lossy(&got),
                    String::from_utf8_lossy(&want),
                    "n={} generation {} req={:?}",
                    shards,
                    generation,
                    req
                );
            }
        }
    }
}
