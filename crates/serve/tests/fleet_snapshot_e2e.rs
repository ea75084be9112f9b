//! A fleet's shutdown snapshot must report the work its shard workers
//! counted: the `ServeSnapshot` that `Server::run_with` returns for a
//! `ShardRouter` carries the same flight and swap counters as
//! the fleet's last `stats` answer, not only the router's transport
//! counters.

use hft_geodesy::LatLon;
use hft_ingest::ShardedStore;
use hft_serve::api::{Request, Response};
use hft_serve::{Client, ServeConfig, Server, ShardRouter};
use hft_time::Date;
use hft_uls::shard::ShardStrategy;
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, StationClass,
    TowerSite, UlsDatabase,
};
use std::sync::Arc;

const LICENSEES: [&str; 4] = [
    "Alpha Networks",
    "Beta Microwave",
    "Gamma Wireless",
    "Delta Relay",
];

fn corpus(extra: usize) -> UlsDatabase {
    let licenses = (0..LICENSEES.len() + extra)
        .map(|i| {
            let lat = 41.0 + 0.3 * i as f64;
            let lon = -88.0 + 0.3 * i as f64;
            License {
                id: LicenseId(i as u64 + 1),
                call_sign: CallSign(format!("WQ{i:05}")),
                licensee: LICENSEES[i % LICENSEES.len()].into(),
                service: RadioService::MG,
                station_class: StationClass::FXO,
                grant_date: Date::new(2015, 1, 1).unwrap(),
                termination_date: None,
                cancellation_date: None,
                paths: vec![MicrowavePath {
                    tx: TowerSite::at(LatLon::new(lat, lon).unwrap()),
                    rx: TowerSite::at(LatLon::new(lat + 0.2, lon + 0.3).unwrap()),
                    frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
                }],
            }
        })
        .collect();
    UlsDatabase::from_licenses(licenses)
}

#[test]
fn shutdown_snapshot_matches_the_last_stats_answer() {
    let store = ShardedStore::seeded(&Arc::new(corpus(0)), 2, ShardStrategy::LicenseeHash, None);
    let router = ShardRouter::over(&store);
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr");
    let network = |licensee: &str| Request::Network {
        licensee: licensee.into(),
        date: Date::new(2016, 1, 1).unwrap(),
    };

    let (stats, snapshot) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run_with(&router));
        let mut client = Client::connect(&addr).expect("connect");
        for round in 0..3 {
            if round == 1 {
                // A new generation: each shard's next request swaps.
                store.publish_full(&corpus(2), None);
            }
            for name in LICENSEES {
                client.call(&network(name)).expect("network answer");
            }
        }
        let Response::Stats { serve, .. } = client.call(&Request::Stats).expect("stats") else {
            panic!("expected a stats answer");
        };
        let ack = client.call(&Request::Shutdown).expect("shutdown");
        assert_eq!(ack, Response::ShuttingDown);
        (
            serve,
            serving.join().expect("server thread").expect("serve"),
        )
    });

    assert!(stats.flights_led > 0, "network requests lead flights");
    assert!(
        stats.generation_swaps > 0,
        "the publish swaps shard engines"
    );
    assert_eq!(snapshot.flights_led, stats.flights_led);
    assert_eq!(snapshot.flights_coalesced, stats.flights_coalesced);
    assert_eq!(snapshot.generation_swaps, stats.generation_swaps);
}
