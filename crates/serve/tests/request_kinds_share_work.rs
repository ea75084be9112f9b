//! Different request kinds that need the same intermediate results
//! compute them once: a Route, an APA and a Weather on one licensee and
//! pair share one reconstruction and one routing graph, and a Weather
//! and a Race with one samples/seed share one Monte Carlo.
//!
//! Holds only this test, so the process-wide `race.mc_cache` counters
//! move only for it.

use hft_corridor::{chicago_nj, generate};
use hft_serve::api::{Request, Response};
use hft_serve::{binwire, Service};
use hft_time::Date;
use std::sync::Barrier;

#[test]
fn route_apa_and_weather_share_one_reconstruction_and_one_monte_carlo() {
    let eco = generate(&chicago_nj(), 2020);
    let licensee = eco.connected_2020.first().expect("a connected network");
    let date = Date::new(2020, 4, 1).unwrap();
    let (from, to) = ("CME".to_string(), "NY4".to_string());
    let (samples, seed) = (2_000, 5);
    let route = Request::Route {
        licensee: licensee.clone(),
        date,
        from: from.clone(),
        to: to.clone(),
    };
    let apa = Request::Apa {
        licensee: licensee.clone(),
        date,
        from: from.clone(),
        to: to.clone(),
    };
    let weather = Request::Weather {
        licensee: licensee.clone(),
        date,
        from: from.clone(),
        to: to.clone(),
        samples,
        seed,
    };
    let race = Request::Race {
        licensee: licensee.clone(),
        date,
        from,
        to,
        constellation: "starlink".into(),
        samples,
        seed,
    };

    let service = Service::new(&eco.db);
    let mc_before = service.race_engine().mc_cache_counts();
    const N: usize = 8;
    let kinds = [&route, &apa, &weather];
    let barrier = Barrier::new(N);
    let cold: Vec<(&Request, Response)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|i| {
                let (service, barrier, req) = (&service, &barrier, kinds[i % kinds.len()]);
                scope.spawn(move || {
                    barrier.wait();
                    (req, service.handle(req))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let session = service.session().stats();
    assert_eq!(session.reconstructions, 1, "{session:?}");
    assert_eq!(session.graph_misses, 1, "{session:?}");
    let mc_cold = service.race_engine().mc_cache_counts();
    assert_eq!(mc_cold.1 - mc_before.1, 1, "one Monte Carlo for the batch");
    let serve = service.stats().snapshot();
    assert_eq!(serve.flights_led + serve.flights_coalesced, N as u64);

    let warm: Vec<(&Request, Response)> = [&weather, &race]
        .into_iter()
        .map(|req| (req, service.handle(req)))
        .collect();
    let mc_warm = service.race_engine().mc_cache_counts();
    assert_eq!(
        mc_warm.1, mc_cold.1,
        "the repeat Weather and the Race miss nothing"
    );
    assert_eq!(
        mc_warm.0 - mc_cold.0,
        2,
        "both read the batch's Monte Carlo"
    );
    assert_eq!(service.session().stats().reconstructions, 1);

    assert!(matches!(
        cold[0].1,
        Response::Route {
            latency_ms: Some(_),
            ..
        }
    ));
    for (req, answer) in cold.iter().chain(&warm) {
        let fresh = Service::new(&eco.db).handle(req);
        assert!(
            !matches!(fresh, Response::Error { .. }),
            "{req:?}: {fresh:?}"
        );
        assert_eq!(answer.encode(), fresh.encode(), "{req:?}");
        assert_eq!(
            binwire::encode_response(answer),
            binwire::encode_response(&fresh),
            "{req:?}"
        );
    }
}
