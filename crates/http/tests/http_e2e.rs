//! End-to-end: a real `Server` with the HTTP explorer registered as an
//! extra listener on the readiness loop, exercised over real sockets on
//! a one-shard fleet and on a three-shard fleet — pages, the JSON API's
//! byte-identity with a single-corpus engine, content types, keep-alive
//! pipelining, and error paths.

use hft_http::HttpExplorer;
use hft_ingest::ShardedStore;
use hft_serve::evloop::ExtraListener;
use hft_serve::{
    Client, Handler, Request, Response, ServeConfig, ServeStats, Server, Service, ShardRouter,
};
use hft_time::Date;
use hft_uls::{
    CallSign, FrequencyAssignment, License, LicenseId, MicrowavePath, RadioService, ShardStrategy,
    StationClass, TowerSite, UlsDatabase,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn lic(id: u64, name: &str, lat: f64, lon: f64) -> License {
    License {
        id: LicenseId(id),
        call_sign: CallSign(format!("WQ{id:05}")),
        licensee: name.into(),
        service: RadioService::MG,
        station_class: StationClass::FXO,
        grant_date: Date::new(2015, 1, 1).unwrap(),
        termination_date: None,
        cancellation_date: None,
        paths: vec![MicrowavePath {
            tx: TowerSite::at(hft_geodesy::LatLon::new(lat, lon).unwrap()),
            rx: TowerSite::at(hft_geodesy::LatLon::new(lat + 0.2, lon + 0.3).unwrap()),
            frequencies: vec![FrequencyAssignment { center_hz: 6.1e9 }],
        }],
    }
}

fn corpus() -> UlsDatabase {
    UlsDatabase::from_licenses(vec![
        lic(1, "Alpha Networks", 41.0, -88.0),
        lic(2, "Beta Microwave", 41.3, -87.8),
        lic(3, "Alpha Networks", 41.6, -87.4),
        lic(4, "Gamma Wireless", 41.9, -87.1),
        lic(5, "Delta Relay", 40.7, -74.0),
    ])
}

/// The fleet sizes every explorer test runs over.
const FLEETS: [usize; 2] = [1, 3];

/// One parsed HTTP response.
struct HttpReply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl HttpReply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("utf-8 body")
    }
}

/// A minimal buffering HTTP client: pipelined responses arrive
/// back-to-back, so bytes past one reply's `Content-Length` belong to
/// the next reply and must be retained.
struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    fn connect(addr: SocketAddr) -> HttpClient {
        HttpClient {
            stream: TcpStream::connect(addr).expect("connect"),
            buf: Vec::new(),
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write request");
    }

    fn fill(&mut self) {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk).expect("read");
        assert!(n > 0, "eof before response completed");
        self.buf.extend_from_slice(&chunk[..n]);
    }

    /// Read until the buffer holds a full head; return its end offset.
    fn read_head_end(&mut self) -> usize {
        loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                return i + 4;
            }
            self.fill();
        }
    }

    /// Read one full response (head + `Content-Length` body), leaving
    /// any bytes past it buffered for the next reply.
    fn read_reply(&mut self) -> HttpReply {
        let head_end = self.read_head_end();
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("utf-8 head");
        let mut lines = head.split("\r\n");
        let status_line = lines.next().expect("status line");
        assert!(status_line.starts_with("HTTP/1.1 "), "{status_line:?}");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let headers: Vec<(String, String)> = lines
            .filter(|l| !l.is_empty())
            .map(|l| {
                let (n, v) = l.split_once(':').expect("header colon");
                (n.trim().to_string(), v.trim().to_string())
            })
            .collect();
        let len: usize = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| v.parse().expect("numeric content-length"))
            .unwrap_or(0);
        while self.buf.len() < head_end + len {
            self.fill();
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        HttpReply {
            status,
            headers,
            body,
        }
    }

    /// Read a head only (for `HEAD` exchanges, which carry no body).
    fn read_head(&mut self) -> String {
        let head_end = self.read_head_end();
        let head = String::from_utf8(self.buf[..head_end].to_vec()).expect("utf-8 head");
        self.buf.drain(..head_end);
        head
    }

    fn get(&mut self, target: &str) -> HttpReply {
        self.send_raw(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
        self.read_reply()
    }

    fn post_api(&mut self, request: &Request) -> HttpReply {
        let body = request.encode();
        self.send_raw(
            format!(
                "POST /api HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        self.send_raw(&body);
        self.read_reply()
    }
}

/// Run `f` against a server over each of [`FLEETS`], with a
/// single-corpus engine to compare against, then shut the server down —
/// even when `f` panics, so a failed assertion never deadlocks the
/// scope join.
fn with_server(f: impl Fn(SocketAddr, SocketAddr, &Service<'_>)) {
    let db = Arc::new(corpus());
    let single = Service::new(&db);
    for shards in FLEETS {
        let store = ShardedStore::seeded(&db, shards, ShardStrategy::LicenseeHash, None);
        let filled = store
            .shards()
            .iter()
            .filter(|s| !s.current().db().is_empty());
        assert!(
            filled.count() >= shards.min(2),
            "licensees spread over shards"
        );
        let router = ShardRouter::over(&store);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .expect("bind wire");
        let wire_addr = server.local_addr().expect("wire addr");
        let explorer = HttpExplorer::new(&router);
        let extra = ExtraListener::bind("127.0.0.1:0", &explorer).expect("bind http");
        let http_addr = extra.local_addr().expect("http addr");
        std::thread::scope(|scope| {
            let (server, router) = (&server, &router);
            let extras = vec![extra];
            let handle = scope.spawn(move || server.run_with_extras(router, &extras));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f(http_addr, wire_addr, &single)
            }));
            let mut client = Client::connect(&wire_addr).expect("wire client");
            assert!(matches!(
                client.call(&Request::Shutdown).expect("shutdown"),
                Response::ShuttingDown
            ));
            handle
                .join()
                .expect("server thread")
                .expect("server result");
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        });
    }
}

#[test]
fn pages_render_with_correct_content_types() {
    with_server(|http, _wire, single| {
        let mut conn = HttpClient::connect(http);

        let index = conn.get("/");
        assert_eq!(index.status, 200);
        assert_eq!(
            index.header("content-type"),
            Some("text/html; charset=utf-8")
        );
        assert!(index.text().contains("/licensee/Alpha%20Networks"));
        // Each licensee is listed once, whichever shard holds it, and
        // its page counts what a single corpus counts.
        for name in corpus().licensees() {
            let link = format!(">{name}</a>");
            assert_eq!(index.text().matches(&link).count(), 1, "{name}");
            let page = conn.get(&format!("/licensee/{}", name.replace(' ', "%20")));
            assert_eq!(page.status, 200, "{name}");
            let network = single.handle(&Request::Network {
                licensee: name.into(),
                date: Date::new(2020, 4, 1).unwrap(),
            });
            let Response::Network { towers, links, .. } = network else {
                panic!("unexpected response {network:?}");
            };
            let counts = format!("<tr><td>{towers}</td><td>{links}</td>");
            assert!(page.text().contains(&counts), "{name}: {counts}");
            // The map is drawn from the owning shard's engine: one
            // circle per tower, one line per link.
            let drawn = (
                page.text().matches("<circle").count(),
                page.text().matches("<line").count(),
            );
            assert_eq!(drawn, (towers as usize, links as usize), "{name}");
        }

        // Keep-alive: the same connection serves every request below.
        let lic = conn.get("/licensee/Alpha%20Networks");
        assert_eq!(lic.status, 200);
        assert!(lic.text().contains("<svg"), "corridor map must be inline");
        assert!(lic.text().contains("CME"), "data-center markers present");

        let funnel = conn.get("/funnel?radius_km=500&min_filings=1");
        assert_eq!(funnel.status, 200);
        assert!(funnel.text().contains("geographic candidates"));
        assert!(
            funnel.text().contains("<rect"),
            "funnel bars are inline svg"
        );

        let race = conn.get("/race/CME/NY4?licensee=Alpha%20Networks&samples=50&seed=1");
        assert_eq!(race.status, 200);
        assert!(race.text().contains("one-way latency by substrate"));
        assert!(race.text().contains("<polyline"), "substrate chart inline");
        assert!(race.text().contains("winner"));
        assert_eq!(conn.get("/race/CME").status, 404);
        assert_eq!(conn.get("/race/CME/NY4?samples=0").status, 400);
        assert_eq!(
            conn.get("/race/CME/NY4?constellation=iridium&samples=10")
                .status,
            400,
            "unknown constellation surfaces the wire error"
        );

        let evo = conn.get("/evolution");
        assert_eq!(evo.status, 200);
        assert!(evo.text().contains("polyline"), "sparklines are inline svg");

        let metrics = conn.get("/metrics");
        assert_eq!(metrics.status, 200);
        assert_eq!(
            metrics.header("content-type"),
            Some(hft_obs::expo::PROMETHEUS_CONTENT_TYPE)
        );
        assert_eq!(
            metrics.header("content-type"),
            Some("text/plain; version=0.0.4"),
            "the Prometheus exposition content type is pinned by spec"
        );
        assert!(metrics.text().contains("# TYPE"));

        let dash = conn.get("/dashboard");
        assert_eq!(dash.status, 200);
        assert_eq!(
            dash.header("content-type"),
            Some("text/html; charset=utf-8")
        );
        assert!(dash.text().contains("histograms"));

        let missing = conn.get("/licensee/Nobody%20Known");
        assert_eq!(missing.status, 404);
        assert!(missing.text().contains("no licenses filed under"));

        let nope = conn.get("/no/such/route");
        assert_eq!(nope.status, 404);

        conn.send_raw(b"DELETE / HTTP/1.1\r\nHost: t\r\n\r\n");
        assert_eq!(conn.read_reply().status, 405);
    });
}

#[test]
fn json_api_bytes_match_in_process_handler() {
    with_server(|http, _wire, single| {
        let mut conn = HttpClient::connect(http);
        let requests = vec![
            Request::Network {
                licensee: "Alpha Networks".into(),
                date: Date::new(2020, 4, 1).unwrap(),
            },
            Request::Geographic {
                lat_deg: 41.5,
                lon_deg: -87.5,
                radius_km: 500.0,
            },
            Request::Shortlist {
                lat_deg: 41.5,
                lon_deg: -87.5,
                radius_km: 500.0,
                min_filings: 1,
            },
            Request::Route {
                licensee: "Alpha Networks".into(),
                date: Date::new(2020, 4, 1).unwrap(),
                from: "CME".into(),
                to: "NY4".into(),
            },
            Request::Race {
                licensee: "Alpha Networks".into(),
                date: Date::new(2020, 4, 1).unwrap(),
                from: "CME".into(),
                to: "NY4".into(),
                constellation: "starlink".into(),
                samples: 50,
                seed: 1,
            },
            Request::StretchSweep {
                licensee: "Alpha Networks".into(),
                date: Date::new(2020, 4, 1).unwrap(),
                constellation: "starlink".into(),
            },
        ];
        for request in requests {
            let expected = single.handle(&request);
            let expected_status = match &expected {
                Response::Error { .. } => 400,
                Response::Overloaded | Response::ShuttingDown => 503,
                _ => 200,
            };
            let reply = conn.post_api(&request);
            assert_eq!(reply.status, expected_status, "{request:?}");
            assert_eq!(reply.header("content-type"), Some("application/json"));
            // The acceptance bar: HTTP answers are byte-identical to
            // a single-corpus engine's wire encoding.
            assert_eq!(reply.body, expected.encode(), "{request:?}");
        }

        // Shutdown must be refused over HTTP.
        assert_eq!(conn.post_api(&Request::Shutdown).status, 403);
    });
}

#[test]
fn pipelined_requests_answer_in_order() {
    with_server(|http, _wire, _single| {
        let mut conn = HttpClient::connect(http);
        // Three requests written back-to-back before any read: answers
        // must come back in request order even though the licensee page
        // goes through the worker pool and the others answer inline.
        conn.send_raw(
            b"GET /licensee/Alpha%20Networks HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n\
              GET / HTTP/1.1\r\nHost: t\r\n\r\n",
        );
        let first = conn.read_reply();
        let second = conn.read_reply();
        let third = conn.read_reply();
        assert!(first.text().contains("Alpha Networks"));
        assert!(second.text().starts_with("# TYPE"));
        assert!(third.text().contains("Microwave corpus"));
    });
}

#[test]
fn head_answers_headers_only_and_errors_close() {
    with_server(|http, _wire, _single| {
        let mut conn = HttpClient::connect(http);
        conn.send_raw(b"HEAD / HTTP/1.1\r\nHost: t\r\n\r\n");
        let head = conn.read_head();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        let len_line = head
            .lines()
            .find(|l| l.to_ascii_lowercase().starts_with("content-length:"))
            .expect("content-length present");
        let declared: usize = len_line.split(':').nth(1).unwrap().trim().parse().unwrap();
        assert!(declared > 0, "HEAD declares the real body length");

        // No body followed the HEAD response: the next exchange answers
        // immediately with its own reply.
        let reply = conn.get("/");
        assert_eq!(reply.status, 200);
        assert_eq!(
            reply.body.len(),
            declared,
            "GET body matches HEAD's declared length"
        );

        // A malformed request answers its status and closes.
        let mut bad = HttpClient::connect(http);
        bad.send_raw(b"BOGUS\r\n\r\n");
        let reply = bad.read_reply();
        assert_eq!(reply.status, 400);
        assert_eq!(reply.header("connection"), Some("close"));
        let mut rest = Vec::new();
        bad.stream.read_to_end(&mut rest).expect("read to close");
        assert!(rest.is_empty(), "server closed after the error");
    });
}

/// A wire handler whose `stats` answer panics, serving a fleet the
/// explorer reads. `POST /api` answers telemetry on the event loop, so
/// the loop itself must catch the panic.
struct PanicsOnStats(ShardRouter);

impl Handler for PanicsOnStats {
    fn handle(&self, req: &Request) -> Response {
        if matches!(req, Request::Stats) {
            panic!("injected handler fault");
        }
        self.0.handle(req)
    }

    fn serve_stats(&self) -> &ServeStats {
        self.0.serve_stats()
    }
}

#[test]
fn panicking_telemetry_answers_error_over_http() {
    let (addrs, rx) = std::sync::mpsc::channel();
    // Its own thread, joined only after shutdown: a loop that stopped
    // answering fails the reads below on their timeout instead of
    // hanging the test.
    let serving = std::thread::spawn(move || {
        let store = ShardedStore::seeded(&Arc::new(corpus()), 1, ShardStrategy::LicenseeHash, None);
        let host = PanicsOnStats(ShardRouter::over(&store));
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        })
        .expect("bind wire");
        let explorer = HttpExplorer::new(&host.0);
        let extra = ExtraListener::bind("127.0.0.1:0", &explorer).expect("bind http");
        let wire = server.local_addr().expect("wire addr");
        let http = extra.local_addr().expect("http addr");
        addrs.send((wire, http)).expect("send addresses");
        server.run_with_extras(&host, &[extra])
    });
    let (wire, http) = rx.recv().expect("server addresses");
    let mut conn = HttpClient::connect(http);
    conn.stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");

    let reply = conn.post_api(&Request::Stats);
    assert_eq!(reply.status, 400);
    let panicked = Response::Error {
        message: "internal error: handler panicked".into(),
    };
    assert_eq!(reply.body, panicked.encode());
    let site_search = Request::SiteSearch {
        service: "MG".into(),
        class: "FXO".into(),
    };
    assert_eq!(conn.post_api(&site_search).status, 200, "still served");

    let mut client = Client::connect(&wire).expect("wire client");
    assert!(matches!(
        client.call(&Request::Shutdown).expect("shutdown"),
        Response::ShuttingDown
    ));
    let stats = serving
        .join()
        .expect("server thread")
        .expect("server ran cleanly");
    assert_eq!(stats.errors, 1, "the panic is counted as an error");
}
