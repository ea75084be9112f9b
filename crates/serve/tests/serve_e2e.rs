//! End-to-end service tests over the calibrated Chicago–NJ corpus:
//! cold-request coalescing in the session memos, byte-identical wire
//! answers, pipelined in-order delivery, and graceful shutdown.

use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_serve::api::{Request, Response};
use hft_serve::{Client, ServeConfig, Server, Service};
use hft_time::Date;
use std::sync::{Barrier, OnceLock};

fn eco() -> &'static GeneratedEcosystem {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    ECO.get_or_init(|| generate(&chicago_nj(), 2020))
}

fn paper_date() -> Date {
    Date::new(2020, 4, 1).unwrap()
}

/// N threads issuing the same *cold* request must observe exactly one
/// underlying session computation: the first miss fills the network's
/// memo cell while the others wait for it. Every request counts as one
/// flight, led or coalesced.
#[test]
fn concurrent_cold_requests_reconstruct_once() {
    let eco = eco();
    let licensee = eco.connected_2020.first().expect("modeled networks");
    let service = Service::new(&eco.db);
    assert_eq!(service.session().stats().reconstructions, 0);

    const N: usize = 8;
    let barrier = Barrier::new(N);
    let request = Request::Network {
        licensee: licensee.clone(),
        date: paper_date(),
    };
    let responses: Vec<Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..N)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    service.handle(&request)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let first = &responses[0];
    assert!(matches!(first, Response::Network { towers, .. } if *towers > 0));
    assert!(responses.iter().all(|r| r == first), "all answers equal");
    let session = service.session().stats();
    assert_eq!(
        session.reconstructions, 1,
        "one cold reconstruction total across {N} concurrent requests; got {session:?}"
    );
    let serve = service.stats().snapshot();
    assert_eq!(serve.flights_led + serve.flights_coalesced, N as u64);
    assert!(serve.flights_led >= 1);
}

/// A race or weather request from a data center to itself has no
/// corridor to measure: both answer an error, not a number.
#[test]
fn self_pairs_answer_errors() {
    let service = Service::new(&eco().db);
    for dc in ["CME", "NY4", "NYSE", "NASDAQ"] {
        let race = Request::Race {
            licensee: "Pierce Broadband".into(),
            date: paper_date(),
            from: dc.into(),
            to: dc.into(),
            constellation: "starlink".into(),
            samples: 2_000,
            seed: 5,
        };
        let weather = Request::Weather {
            licensee: "Pierce Broadband".into(),
            date: paper_date(),
            from: dc.into(),
            to: dc.into(),
            samples: 2_000,
            seed: 5,
        };
        for request in [race, weather] {
            let answer = service.handle(&request);
            assert!(
                matches!(answer, Response::Error { .. }),
                "{request:?} answered {answer:?}"
            );
        }
    }
}

/// The wire server must answer byte-for-byte what a direct in-process
/// `Service` computes — the transport adds nothing and loses nothing.
#[test]
fn served_bytes_equal_direct_session_bytes() {
    let eco = eco();
    let licensee = eco.connected_2020.first().unwrap().clone();
    let date = paper_date();
    let mix = vec![
        Request::Geographic {
            lat_deg: 41.7625,
            lon_deg: -88.1712,
            radius_km: 10.0,
        },
        Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        },
        Request::Shortlist {
            lat_deg: 41.7625,
            lon_deg: -88.1712,
            radius_km: 10.0,
            min_filings: 11,
        },
        Request::Network {
            licensee: licensee.clone(),
            date,
        },
        Request::Route {
            licensee: licensee.clone(),
            date,
            from: "CME".into(),
            to: "NY4".into(),
        },
        Request::Apa {
            licensee: licensee.clone(),
            date,
            from: "CME".into(),
            to: "NY4".into(),
        },
        Request::Weather {
            licensee: licensee.clone(),
            date,
            from: "CME".into(),
            to: "NY4".into(),
            samples: 200,
            seed: 7,
        },
        // Error paths must be identical over the wire too.
        Request::Route {
            licensee: licensee.clone(),
            date,
            from: "CME".into(),
            to: "LD4".into(),
        },
        Request::Network {
            licensee: "No Such Networks LLC".into(),
            date,
        },
    ];

    let reference = Service::new(&eco.db);
    let expected: Vec<Vec<u8>> = mix.iter().map(|r| reference.handle(r).encode()).collect();

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 3,
        queue_depth: 32,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(&Service::new(&eco.db)).unwrap());

        // Serial round trips.
        let mut client = Client::connect(&addr).unwrap();
        for (request, want) in mix.iter().zip(&expected) {
            let got = client.call(request).unwrap();
            assert_eq!(&got.encode(), want, "serial answer for {request:?}");
        }

        // Pipelined: flood all requests, then read responses in order.
        let mut pipelined = Client::connect(&addr).unwrap();
        for request in &mix {
            pipelined.send(request).unwrap();
        }
        pipelined.flush().unwrap();
        for (request, want) in mix.iter().zip(&expected) {
            let got = pipelined.recv().unwrap();
            assert_eq!(&got.encode(), want, "pipelined answer for {request:?}");
        }

        // Stats exposes the work we just did.
        let stats = client.call(&Request::Stats).unwrap();
        match stats {
            Response::Stats { serve, session } => {
                assert!(serve.completed >= 2 * mix.len() as u64);
                assert_eq!(serve.rejected_overloaded, 0);
                assert!(session.reconstructions >= 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }

        // Graceful shutdown: acknowledged, then the server drains.
        let ack = client.call(&Request::Shutdown).unwrap();
        assert_eq!(ack, Response::ShuttingDown);
        let final_stats = handle.join().unwrap();
        assert!(final_stats.received >= 2 * mix.len() as u64 + 2);
        assert_eq!(final_stats.errors, 2, "exactly the two error-path requests");
    });
}

/// `metrics` over the wire renders the full telemetry registry: serve
/// counters, session counters, and latency histograms with the fixed
/// summary-key order, all without touching the admission queue.
#[test]
fn metrics_request_exposes_registry_over_the_wire() {
    let eco = eco();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(&Service::new(&eco.db)).unwrap());

        let mut client = Client::connect(&addr).unwrap();
        // Drive some real work through the pool so the serve.* family
        // is warm regardless of which tests ran before this one.
        for _ in 0..3 {
            client
                .call(&Request::SiteSearch {
                    service: "MG".into(),
                    class: "FXO".into(),
                })
                .unwrap();
        }

        let response = client.call(&Request::Metrics).unwrap();
        let registry = match response {
            Response::Metrics { registry } => registry,
            other => panic!("expected metrics, got {other:?}"),
        };
        let counters = registry.get("counters").expect("counters section");
        for name in ["serve.received", "serve.accepted", "serve.completed"] {
            let v = counters
                .get(name)
                .and_then(hft_serve::json::Json::as_u64)
                .unwrap_or_else(|| panic!("missing counter {name}"));
            assert!(v >= 3, "{name} should count this test's requests");
        }
        assert!(registry.get("gauges").is_some(), "gauges section");
        let hist = registry
            .get("histograms")
            .and_then(|h| h.get("serve.service_ns"))
            .expect("serve.service_ns histogram");
        for key in ["count", "sum", "min", "max", "p50", "p90", "p99", "p999"] {
            assert!(hist.get(key).is_some(), "summary key {key}");
        }
        assert!(hist.get("count").unwrap().as_u64().unwrap() >= 3);

        // The wire payload is exactly the registry's own deterministic
        // exposition (modulo counters advancing between the two reads):
        // same sections, same sorted names.
        let local = hft_serve::service::metrics_json();
        let section_names = |v: &hft_serve::json::Json, section: &str| -> Vec<String> {
            match v.get(section) {
                Some(hft_serve::json::Json::Obj(pairs)) => {
                    pairs.iter().map(|(k, _)| k.clone()).collect()
                }
                other => panic!("bad {section} section: {other:?}"),
            }
        };
        for section in ["counters", "gauges", "histograms"] {
            let wire = section_names(&registry, section);
            // Registration is monotonic and `local` was read after the
            // wire reply, so every served name must still be there (other
            // tests may have registered more since).
            let after = section_names(&local, section);
            for name in &wire {
                assert!(
                    after.contains(name),
                    "{section} name {name} missing from local exposition"
                );
            }
            let mut sorted = wire.clone();
            sorted.sort();
            assert_eq!(wire, sorted, "{section} names must arrive sorted");
        }

        client.call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    });
}

/// A malformed frame answers an error without killing the connection.
#[test]
fn malformed_frame_answers_error_and_connection_survives() {
    let eco = eco();
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 8,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap();

    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(&Service::new(&eco.db)).unwrap());

        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        // Raw garbage frame, then a valid request on the same socket.
        let garbage = b"{\"type\":\"warp\"}";
        let mut frame = (garbage.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(garbage);
        stream.write_all(&frame).unwrap();
        let body = hft_serve::wire::read_frame(&mut stream, 1 << 20)
            .unwrap()
            .expect("an error response");
        assert!(matches!(
            Response::decode(&body).unwrap(),
            Response::Error { .. }
        ));

        let valid = Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        };
        hft_serve::wire::write_frame(&mut stream, &valid.encode()).unwrap();
        let body = hft_serve::wire::read_frame(&mut stream, 1 << 20)
            .unwrap()
            .expect("a licenses response");
        assert!(matches!(
            Response::decode(&body).unwrap(),
            Response::Licenses { .. }
        ));
        drop(stream);

        let mut client = Client::connect(&addr).unwrap();
        client.call(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    });
}
