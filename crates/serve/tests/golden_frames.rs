//! Frozen wire formats: a fixed sample of every request and response
//! variant, with its JSON text and binary bytes checked in under
//! `tests/golden/frames.txt`, plus a digest over both encodings of a
//! large seeded population drawn from the `codec_strategies`
//! generators. Together they pin the exact bytes both codecs write, so
//! a codec refactor can prove it changed no frame.
//!
//! When a format change is *intentional*, regenerate the golden file
//! with `BLESS=1 cargo test -p hft-serve --test golden_frames` and
//! update [`POPULATION_DIGEST`] from the failure message.

mod codec_strategies;

use hft_core::session::StatsSnapshot;
use hft_serve::api::{Request, Response, SweepEntry, WireSpan, WireTrace};
use hft_serve::binwire::{self, DecodeError};
use hft_serve::json::Json;
use hft_serve::ServeSnapshot;
use hft_time::Date;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

const GOLDEN_PATH: &str = "tests/golden/frames.txt";

/// FNV-1a (64-bit) over every sampled frame of the seeded population,
/// both encodings, length-prefixed.
const POPULATION_DIGEST: u64 = 0x5d9d_75ff_585e_393d;
const POPULATION: usize = 8_192;
const POPULATION_SEED: u64 = 2020;

fn date(y: i32, m: u32, d: u32) -> Date {
    Date::new(y, m, d).unwrap()
}

fn sample_requests() -> Vec<Request> {
    vec![
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
            lat_deg: 41.0,
            lon_deg: -88.0,
            radius_km: 25.0,
            min_filings: 11,
        },
        Request::Network {
            licensee: "Alpha Networks".into(),
            date: date(2020, 4, 1),
        },
        Request::Route {
            licensee: "Alpha Networks".into(),
            date: date(2020, 4, 1),
            from: "CME".into(),
            to: "NY4".into(),
        },
        Request::Apa {
            licensee: "β Networks — 世界".into(),
            date: date(2019, 12, 31),
            from: "CME".into(),
            to: "NASDAQ".into(),
        },
        Request::Weather {
            licensee: "Alpha Networks".into(),
            date: date(2020, 4, 1),
            from: "CME".into(),
            to: "NY4".into(),
            samples: 60_000,
            seed: u64::MAX,
        },
        Request::Race {
            licensee: "Alpha Networks".into(),
            date: date(2020, 4, 1),
            from: "CME".into(),
            to: "NY4".into(),
            constellation: "starlink".into(),
            samples: 5_000,
            seed: 7,
        },
        Request::StretchSweep {
            licensee: "β Networks — 世界".into(),
            date: date(2016, 6, 1),
            constellation: "starlink".into(),
        },
        Request::Stats,
        Request::Metrics,
        Request::Traces {
            limit: 16,
            trace_id: None,
        },
        Request::Traces {
            limit: 1,
            trace_id: Some(0xdead_beef_0123_4567_89ab_cdef_f00d_cafe),
        },
        Request::Shutdown,
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::Licenses {
            ids: vec![0, 1, 127, 128, 300, u64::MAX],
        },
        Response::Shortlist {
            geographic_candidates: 57,
            service_filtered: 40,
            shortlisted: 29,
            names: vec!["Alpha".into(), "β — 世界".into(), String::new()],
        },
        Response::Network {
            licensee: "Alpha Networks".into(),
            as_of: date(2020, 4, 1),
            towers: 20,
            links: 19,
            active_licenses: 47,
        },
        Response::Route {
            latency_ms: Some(4.25),
            towers: Some(20),
            length_m: Some(1_180_000.0),
        },
        Response::Route {
            latency_ms: None,
            towers: None,
            length_m: None,
        },
        Response::Apa { apa: Some(0.75) },
        Response::Apa { apa: None },
        Response::Weather {
            clear_ms: 4.2,
            p50_ms: 4.3,
            p95_ms: f64::INFINITY,
            p99_ms: f64::INFINITY,
            availability: 0.97,
            samples: 60_000,
        },
        Response::Race {
            from: "CME".into(),
            to: "NY4".into(),
            constellation: "starlink".into(),
            geodesic_km: 1186.0,
            c_bound_ms: 3.956,
            microwave_ms: Some(3.982),
            fiber_ms: 7.12,
            leo_ms: Some(9.4),
            leo_isl_hops: Some(3),
            mw_stretch: Some(1.0066),
            fiber_stretch: 1.8,
            leo_stretch: Some(2.38),
            winner: "microwave".into(),
            wx_clear_ms: 3.982,
            wx_p50_ms: 3.982,
            wx_p95_ms: 4.2,
            wx_p99_ms: f64::INFINITY,
            wx_availability: 0.985,
            wx_samples: 5_000,
        },
        Response::Race {
            from: "CME".into(),
            to: "NASDAQ".into(),
            constellation: "starlink".into(),
            geodesic_km: 1176.0,
            c_bound_ms: 3.92,
            microwave_ms: None,
            fiber_ms: 7.06,
            leo_ms: None,
            leo_isl_hops: None,
            mw_stretch: None,
            fiber_stretch: 1.8,
            leo_stretch: None,
            winner: "fiber".into(),
            wx_clear_ms: f64::INFINITY,
            wx_p50_ms: f64::INFINITY,
            wx_p95_ms: f64::INFINITY,
            wx_p99_ms: f64::INFINITY,
            wx_availability: 0.0,
            wx_samples: 0,
        },
        Response::StretchSweep {
            entries: vec![
                SweepEntry {
                    pair: "CME-NY4".into(),
                    geodesic_km: 1186.0,
                    mw_stretch: Some(1.0066),
                    fiber_stretch: 1.8,
                    leo_stretch: Some(2.38),
                },
                SweepEntry {
                    pair: "Tokyo-NewYork".into(),
                    geodesic_km: 10_850.0,
                    mw_stretch: None,
                    fiber_stretch: 1.8,
                    leo_stretch: Some(1.42),
                },
            ],
        },
        Response::StretchSweep { entries: vec![] },
        Response::Stats {
            serve: ServeSnapshot {
                received: 10,
                accepted: 9,
                rejected_overloaded: 1,
                completed: 9,
                errors: 2,
                flights_led: 5,
                flights_coalesced: 3,
                queue_wait_ns_total: 123_456,
                queue_wait_ns_max: 45_678,
                service_ns_total: 999_999,
                service_ns_max: 888_888,
                queue_high_water: 7,
                generation_swaps: 3,
            },
            session: StatsSnapshot {
                network_hits: 1,
                reconstructions: 2,
                route_hits: 3,
                route_misses: 4,
                apa_hits: 5,
                apa_misses: 6,
                graph_hits: 7,
                graph_misses: 8,
            },
        },
        Response::Metrics {
            registry: Json::Obj(vec![
                (
                    "counters".into(),
                    Json::Obj(vec![("serve.received".into(), Json::Num(12.0))]),
                ),
                ("gauges".into(), Json::Obj(vec![])),
                (
                    "histograms".into(),
                    Json::Obj(vec![(
                        "serve.service_ns".into(),
                        Json::Obj(vec![
                            ("count".into(), Json::Num(3.0)),
                            ("p50".into(), Json::Num(1500.0)),
                        ]),
                    )]),
                ),
            ]),
        },
        Response::Traces {
            traces: vec![WireTrace {
                trace_id: u128::MAX,
                label: "shortlist".into(),
                sampled: true,
                slow: true,
                total_ns: 61_000_000,
                spans: vec![
                    WireSpan {
                        name: "serve.request".into(),
                        parent: None,
                        start_ns: 0,
                        dur_ns: 61_000_000,
                        shard: None,
                    },
                    WireSpan {
                        name: "queue.wait".into(),
                        parent: Some(0),
                        start_ns: 0,
                        dur_ns: 1_000_000,
                        shard: None,
                    },
                    WireSpan {
                        name: "shard.call".into(),
                        parent: Some(0),
                        start_ns: 1_000_000,
                        dur_ns: 59_000_000,
                        shard: Some(3),
                    },
                ],
            }],
        },
        Response::Traces { traces: vec![] },
        Response::Error {
            message: "unknown data center \"LD4\"".into(),
        },
        Response::Overloaded,
        Response::ShuttingDown,
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The golden file's text: one line per sample and encoding,
/// `<request|response> <index> <json|bin> <JSON text | binary hex>`.
fn render_golden() -> String {
    let mut out = String::from(
        "# Frozen wire frames: tests/golden_frames.rs checks every line.\n\
         # Regenerate: BLESS=1 cargo test -p hft-serve --test golden_frames\n",
    );
    for (i, req) in sample_requests().iter().enumerate() {
        let json = String::from_utf8(req.encode()).expect("JSON frames are UTF-8");
        out.push_str(&format!("request {i} json {json}\n"));
        out.push_str(&format!(
            "request {i} bin {}\n",
            hex(&binwire::encode_request(req))
        ));
    }
    for (i, resp) in sample_responses().iter().enumerate() {
        let json = String::from_utf8(resp.encode()).expect("JSON frames are UTF-8");
        out.push_str(&format!("response {i} json {json}\n"));
        out.push_str(&format!(
            "response {i} bin {}\n",
            hex(&binwire::encode_response(resp))
        ));
    }
    out
}

#[test]
fn sample_frames_match_the_golden_file() {
    let rendered = render_golden();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden frames");
        return;
    }
    let golden = include_str!("golden/frames.txt");
    for (n, (want, got)) in golden.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(got, want, "{GOLDEN_PATH}:{} drifted", n + 1);
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "{GOLDEN_PATH} sample count changed"
    );
}

/// FNV-1a step over a length-prefixed frame.
fn fold(h: &mut u64, frame: &[u8]) {
    for b in (frame.len() as u64).to_le_bytes().iter().chain(frame) {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[test]
fn seeded_population_digest_is_pinned() {
    let mut rng = TestRng::new(POPULATION_SEED);
    let (requests, responses) = (codec_strategies::request(), codec_strategies::response());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..POPULATION {
        let req = requests.sample(&mut rng);
        let (json, bin) = (req.encode(), binwire::encode_request(&req));
        assert_eq!(Request::decode(&json).unwrap().encode(), json);
        assert_eq!(
            binwire::encode_request(&binwire::decode_request(&bin).unwrap()),
            bin
        );
        fold(&mut h, &json);
        fold(&mut h, &bin);
    }
    for _ in 0..POPULATION {
        let resp = responses.sample(&mut rng);
        let (json, bin) = (resp.encode(), binwire::encode_response(&resp));
        assert_eq!(Response::decode(&json).unwrap().encode(), json);
        assert_eq!(
            binwire::encode_response(&binwire::decode_response(&bin).unwrap()),
            bin
        );
        fold(&mut h, &json);
        fold(&mut h, &bin);
    }
    assert_eq!(
        h, POPULATION_DIGEST,
        "wire bytes of the seeded population changed: digest {h:#018x}"
    );
}

#[test]
fn requests_round_trip() {
    for req in sample_requests() {
        let bytes = binwire::encode_request(&req);
        assert!(binwire::is_binary(&bytes));
        let back = binwire::decode_request(&bytes).unwrap();
        assert_eq!(back, req);
        // Deterministic: re-encoding is byte-identical.
        assert_eq!(binwire::encode_request(&back), bytes);
    }
}

#[test]
fn responses_round_trip() {
    for resp in sample_responses() {
        let bytes = binwire::encode_response(&resp);
        assert!(binwire::is_binary(&bytes));
        let back = binwire::decode_response(&bytes).unwrap();
        assert_eq!(back, resp);
        assert_eq!(binwire::encode_response(&back), bytes);
    }
}

#[test]
fn binary_fixed_point_matches_json_fixed_point() {
    // The acceptance property: decoding the binary encoding lands on
    // exactly the value the JSON round trip lands on, variant by
    // variant — including the null/+∞/None canonicalizations. The
    // comparison stays inside the JSON codec's 2⁵³ integer domain
    // (the binary codec is exact over all of u64; JSON is not).
    let json_safe = |r: Response| match r {
        Response::Licenses { ids } => Response::Licenses {
            ids: ids.into_iter().map(|id| id.min((1 << 53) - 1)).collect(),
        },
        other => other,
    };
    let mut weird: Vec<Response> = sample_responses().into_iter().map(json_safe).collect();
    weird.push(Response::Route {
        latency_ms: Some(f64::INFINITY), // JSON writes null, reads None
        towers: Some(3),
        length_m: Some(f64::NAN), // likewise
    });
    weird.push(Response::Weather {
        clear_ms: f64::NAN, // JSON writes null, reads +∞
        p50_ms: 1.0,
        p95_ms: 2.0,
        p99_ms: f64::NEG_INFINITY,
        availability: 1.0,
        samples: 10,
    });
    for resp in weird {
        let via_bin = binwire::decode_response(&binwire::encode_response(&resp)).unwrap();
        let via_json = Response::decode(&resp.encode()).unwrap();
        assert_eq!(via_bin, via_json, "fixed points diverge for {resp:?}");
    }
    let json_safe_req = |r: Request| match r {
        Request::Weather { seed, .. } if seed >= (1 << 53) => Request::Weather {
            licensee: "Alpha Networks".into(),
            date: date(2020, 4, 1),
            from: "CME".into(),
            to: "NY4".into(),
            samples: 60_000,
            seed: (1 << 53) - 1,
        },
        other => other,
    };
    for req in sample_requests().into_iter().map(json_safe_req) {
        let via_bin = binwire::decode_request(&binwire::encode_request(&req)).unwrap();
        let via_json = Request::decode(&req.encode()).unwrap();
        assert_eq!(via_bin, via_json);
    }
}

#[test]
fn binary_is_smaller_than_json_on_the_wire() {
    for resp in sample_responses() {
        let bin = binwire::encode_response(&resp).len();
        let json = resp.encode().len();
        assert!(
            bin <= json,
            "binary ({bin} B) larger than JSON ({json} B) for {resp:?}"
        );
    }
}

#[test]
fn truncation_and_trailing_bytes_are_structured_errors() {
    let bytes = binwire::encode_response(&sample_responses()[1]);
    for cut in 0..bytes.len() {
        let err = binwire::decode_response(&bytes[..cut]).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::Truncated
                    | DecodeError::BadLength(_)
                    | DecodeError::BadMagic(_)
                    | DecodeError::BadKind(_)
            ),
            "cut at {cut}: {err:?}"
        );
    }
    let mut padded = bytes.clone();
    padded.push(0);
    assert_eq!(
        binwire::decode_response(&padded).unwrap_err(),
        DecodeError::Trailing(1)
    );
}
