//! The shared load harness under `cargo test`: flag parsing, tallies,
//! the stamped report writer, per-generation references, attribution
//! pinned to the shards the router reaches, and serve-under-ingest on a
//! one-shard fleet and on a larger one — plus a negative control that
//! shows the bracketed verifier can fail.

use hft_bench::load::{self, Flags, IngestPlan, Json, References, Tally};
use hft_bench::obj;
use hft_geodesy::LatLon;
use hft_ingest::{render_history, Applier, ShardedStore};
use hft_obs::HistogramShard;
use hft_serve::api::Request;
use hft_serve::{Proto, ShardRouter};
use hft_time::Date;
use hft_uls::shard::ShardStrategy;
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, StationClass,
    TowerSite, UlsDatabase,
};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: harness [--seconds S] [--proto json|bin] [--matrix]";

const LICENSEES: [&str; 4] = [
    "Alpha Networks",
    "Beta Microwave",
    "Gamma Wireless",
    "Delta Relay",
];

fn flags(args: &[&str]) -> Result<Flags, String> {
    Flags::from_args(USAGE, args.iter().map(|a| a.to_string()))
}

fn date(year: i32, month: u32) -> Date {
    Date::new(year, month, 1).unwrap()
}

/// License `i` of `licensee`: a one-hop path near CME, granted in one
/// of the 16 quarters from 2014, and cancelled in June two years later
/// when `i` is odd.
fn license(i: u64, licensee: &str) -> License {
    let (lat, lon) = (41.5 + 0.05 * (i % 16) as f64, -88.2 + 0.1 * (i % 16) as f64);
    let grant = date(2014 + (i / 4 % 4) as i32, 1 + 3 * (i % 4) as u32);
    License {
        id: LicenseId(i + 1),
        call_sign: CallSign(format!("WQ{i:05}")),
        licensee: licensee.into(),
        service: RadioService::MG,
        station_class: StationClass::FXO,
        grant_date: grant,
        termination_date: None,
        cancellation_date: (i % 2 == 1).then(|| date(grant.year() + 2, 6)),
        paths: vec![MicrowavePath {
            tx: TowerSite::at(LatLon::new(lat, lon).unwrap()),
            rx: TowerSite::at(LatLon::new(lat + 0.2, lon + 0.3).unwrap()),
            frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
        }],
    }
}

/// Sixteen licenses, four per licensee.
fn licenses() -> Vec<License> {
    (0..16)
        .map(|i| license(i, LICENSEES[i as usize % LICENSEES.len()]))
        .collect()
}

/// One request of every data variant, every licensee-bearing one for
/// `licensee`.
fn every_data_variant(licensee: &str) -> Vec<Request> {
    let (licensee, date) = (licensee.to_string(), date(2017, 1));
    let (from, to) = (String::from("CME"), String::from("NY4"));
    vec![
        Request::Geographic {
            lat_deg: 41.7,
            lon_deg: -87.9,
            radius_km: 100.0,
        },
        Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        },
        Request::Shortlist {
            lat_deg: 41.7,
            lon_deg: -87.9,
            radius_km: 100.0,
            min_filings: 1,
        },
        Request::Network {
            licensee: licensee.clone(),
            date,
        },
        Request::Route {
            licensee: licensee.clone(),
            date,
            from: from.clone(),
            to: to.clone(),
        },
        Request::Apa {
            licensee: licensee.clone(),
            date,
            from: from.clone(),
            to: to.clone(),
        },
        Request::Weather {
            licensee: licensee.clone(),
            date,
            from: from.clone(),
            to: to.clone(),
            samples: 20,
            seed: 7,
        },
        Request::Race {
            licensee: licensee.clone(),
            date,
            from,
            to,
            constellation: "starlink".into(),
            samples: 20,
            seed: 7,
        },
        Request::StretchSweep {
            licensee,
            date,
            constellation: "starlink".into(),
        },
    ]
}

/// The serve-under-ingest mix: every licensee's network at two dates,
/// plus the scatter-gather searches.
fn ingest_mix(licensees: &[&str]) -> Vec<Request> {
    let mut mix = every_data_variant(licensees[0])[..3].to_vec();
    for name in licensees {
        for date in [date(2016, 1), date(2019, 1)] {
            mix.push(Request::Network {
                licensee: name.to_string(),
                date,
            });
        }
    }
    mix
}

#[test]
fn flags_read_values_switches_and_defaults() {
    let f = flags(&["--seconds", "1.5", "--matrix"]).unwrap();
    assert_eq!(f.get("--seconds", 5.0), Ok(1.5));
    assert!(f.on("--matrix"));
    assert_eq!(
        f.parse_or("--proto", Proto::Json, Proto::parse),
        Ok(Proto::Json)
    );
    let f = flags(&["--proto", "bin", "--proto", "xml"]).unwrap();
    let err = f
        .parse_or("--proto", Proto::Json, Proto::parse)
        .unwrap_err();
    assert_eq!(err, format!("bad --proto \"xml\"\n{USAGE}"));
}

#[test]
fn unknown_flags_and_missing_values_are_rejected_with_the_usage_line() {
    let err = flags(&["--seconds", "1", "--bogus"]).err().unwrap();
    assert_eq!(err, format!("unknown argument \"--bogus\"\n{USAGE}"));
    let err = flags(&["--seconds"]).err().unwrap();
    assert_eq!(err, format!("--seconds needs a value\n{USAGE}"));
    // A switch takes no value, so a word after it is an argument of its own.
    let err = flags(&["--matrix", "1"]).err().unwrap();
    assert_eq!(err, format!("unknown argument \"1\"\n{USAGE}"));
}

#[test]
fn tally_merge_sums_counts_keeps_the_first_mismatch_and_merges_histograms() {
    let ms = Duration::from_millis;
    let mut a = Tally::new(2);
    a.record(ms(1), Some(0));
    a.check(b"same", b"same", || {
        unreachable!("a match keeps no context")
    });
    a.unpinned += 1;
    a.overloaded_retries += 2;
    a.elapsed_s = 1.0;
    let mut b = Tally::new(2);
    b.record(ms(3), Some(1));
    b.record(ms(5), Some(1));
    b.check(b"want", b"got", || "first".into());
    b.check(b"want", b"other", || "second".into());
    b.elapsed_s = 2.0;
    let mut c = Tally::new(2);
    c.fail(|| "third".into());

    let total = load::merged([Ok(a), Ok(b), Ok(c)]).unwrap();
    assert_eq!(total.completed, 3);
    assert_eq!(total.verified, 1);
    assert_eq!(total.unpinned, 1);
    assert_eq!(total.wrong, 3);
    assert_eq!(total.overloaded_retries, 2);
    assert_eq!(
        total.first_mismatch.as_deref(),
        Some("first\n  want want\n  got  got")
    );
    assert_eq!(total.elapsed_s, 2.0);
    assert_eq!(total.rps(), 1.5);
    let mut one = HistogramShard::new();
    for v in [ms(1), ms(3), ms(5)] {
        one.record(v.as_nanos() as u64);
    }
    assert_eq!(total.latencies.snapshot(), one.snapshot());
    let buckets: Vec<u64> = total.by_bucket.iter().map(HistogramShard::count).collect();
    assert_eq!(buckets, [1, 2]);
    assert_eq!(total.max_ms(), 5.0);
    assert!(load::merged([Ok(Tally::new(1)), Err("down".into())]).is_err());
}

#[test]
fn write_report_stamps_a_parseable_report_and_writes_null_for_nan() {
    let path = std::env::temp_dir().join(format!("hft_bench_report_{}.json", std::process::id()));
    let report = obj! {
        "rate": f64::NAN,
        "p50_ms": 1.23456,
        "runs": vec![obj! {"n": 1u64}, obj! {"n": 2u64}],
        "empty": Vec::<Json>::new(),
    };
    load::write_report("test", path.to_str(), report).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let json = hft_serve::json::parse(&text).unwrap();
    let stamp = json.get("stamp").expect("stamp");
    assert!(!stamp
        .get("git_rev")
        .and_then(Json::as_str)
        .unwrap()
        .is_empty());
    assert!(stamp.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(json.get("rate"), Some(&Json::Null));
    assert_eq!(json.get("p50_ms").and_then(Json::as_num), Some(1.235));
    assert_eq!(
        json.get("runs").and_then(Json::as_arr).map(<[Json]>::len),
        Some(2)
    );
    assert_eq!(
        json.get("empty").and_then(Json::as_arr).map(<[Json]>::len),
        Some(0)
    );
}

#[test]
fn references_build_one_engine_per_registered_generation() {
    let references = References::default();
    assert!(references.engine(0).is_none());
    references.register(0, Arc::new(UlsDatabase::from_licenses(licenses())));
    references.register(
        1,
        Arc::new(UlsDatabase::from_licenses(licenses()[..4].to_vec())),
    );
    let zero = references.engine(0).expect("generation 0 is registered");
    assert!(Arc::ptr_eq(&zero, &references.engine(0).unwrap()));
    let one = references.engine(1).expect("generation 1 is registered");
    assert!(!Arc::ptr_eq(&zero, &one));
    assert_eq!((zero.generation(), one.generation()), (0, 1));
    assert!(references.engine(2).is_none());
}

#[test]
fn attribution_names_exactly_the_shards_the_router_reaches() {
    let db = Arc::new(UlsDatabase::from_licenses(licenses()));
    for strategy in [ShardStrategy::LicenseeHash, ShardStrategy::SpatialCell] {
        for shards in 1..=5 {
            let fleet = ShardedStore::seeded(&db, shards, strategy, None);
            let router = ShardRouter::over(&fleet);
            let owners = hft_uls::shard::assign(&db, shards, strategy);
            let received = || -> Vec<u64> {
                let workers = router.shards().iter();
                workers.map(|w| w.stats().snapshot().received).collect()
            };
            for licensee in LICENSEES {
                let mix = every_data_variant(licensee);
                let attr = load::attribution(&mix, &router);
                for (request, &bucket) in mix.iter().zip(&attr) {
                    let before = received();
                    router.handle(request);
                    let moved: Vec<usize> =
                        (0..shards).filter(|&k| received()[k] > before[k]).collect();
                    // Searches reach every shard; a licensee's requests
                    // reach the one shard the partition gave it.
                    let want: Vec<usize> = match request {
                        Request::Geographic { .. }
                        | Request::SiteSearch { .. }
                        | Request::Shortlist { .. } => (0..shards).collect(),
                        _ => vec![owners[licensee] as usize],
                    };
                    let named: Vec<usize> = match bucket {
                        b if b == shards => (0..shards).collect(),
                        owner => vec![owner],
                    };
                    assert_eq!(moved, want, "{strategy:?} n={shards} {request:?}");
                    assert_eq!(named, want, "{strategy:?} n={shards} {request:?}");
                }
            }
        }
    }
}

fn plan<'a>(batches: &'a [hft_ingest::DumpBatch], mix: &'a [Request]) -> IngestPlan<'a> {
    IngestPlan {
        batches,
        mix,
        seconds: 0.3,
        concurrency: 2,
        publish_every: 1,
    }
}

#[test]
fn serve_under_ingest_verifies_a_single_store() {
    let batches = render_history(&licenses());
    let mix = ingest_mix(&LICENSEES);
    let open = |applier: &Applier| {
        let strategy = ShardStrategy::LicenseeHash;
        ShardedStore::seeded(&applier.db_arc(), 1, strategy, applier.last_date())
    };
    let run =
        load::serve_under_ingest(&plan(&batches, &mix), open, Applier::publish_sharded).unwrap();
    let t = &run.tally;
    assert_eq!(t.wrong, 0, "{:?}", t.first_mismatch);
    assert!(t.verified > 0);
    assert_eq!(t.completed, t.verified + t.unpinned);
    // Seeded at generation 0: one publish per tail batch, plus the last.
    assert_eq!(
        run.generations,
        1 + (batches.len() - batches.len() / 2) as u64
    );
}

#[test]
fn serve_under_ingest_verifies_a_fleet() {
    let batches = render_history(&licenses());
    let mix = ingest_mix(&LICENSEES);
    let open = |applier: &Applier| {
        let strategy = ShardStrategy::LicenseeHash;
        ShardedStore::seeded(&applier.db_arc(), 2, strategy, applier.last_date())
    };
    let run =
        load::serve_under_ingest(&plan(&batches, &mix), open, Applier::publish_sharded).unwrap();
    let t = &run.tally;
    assert_eq!(t.wrong, 0, "{:?}", t.first_mismatch);
    assert!(t.verified > 0);
    let bucketed: u64 = t.by_bucket.iter().map(HistogramShard::count).sum();
    assert_eq!((t.by_bucket.len(), bucketed), (3, t.completed));
    assert!(run.stats.generation_swaps > 0, "shard workers swap engines");
}

#[test]
fn serve_under_ingest_counts_answers_its_reference_cannot_match() {
    // The server's corpus holds a licensee the reference corpus lacks.
    // With no publishes every answer pins to the seed generation, so the
    // requests that see that licensee must come back wrong.
    let batches = render_history(&licenses());
    let mix = ingest_mix(&["Alpha Networks", "Zeta Links"]);
    let open = |applier: &Applier| {
        let mut served = applier.db().licenses().to_vec();
        served.push(license(40, "Zeta Links"));
        let db = Arc::new(UlsDatabase::from_licenses(served));
        ShardedStore::seeded(&db, 1, ShardStrategy::LicenseeHash, applier.last_date())
    };
    let run = load::serve_under_ingest(&plan(&batches, &mix), open, |_, store| {
        store.generation_vector()[0]
    })
    .unwrap();
    let t = &run.tally;
    assert_eq!(run.generations, 0);
    assert_eq!(t.unpinned, 0);
    assert!(
        t.wrong > 0 && t.verified > 0,
        "{} wrong, {} verified",
        t.wrong,
        t.verified
    );
    let first = t.first_mismatch.as_deref().expect("a first mismatch");
    assert!(first.starts_with("generation 0 request"), "{first}");
    assert!(
        first.contains("\n  want ") && first.contains("\n  got  "),
        "{first}"
    );
}
