//! `httpload` — the hft-http load harness: self-host a one-shard fleet
//! with the HTTP explorer on the evented loop, replay a mixed GET/POST workload
//! over keep-alive connections, and write per-route-class latency
//! percentiles to `BENCH_http.json` at the workspace root.
//!
//! ```text
//! cargo run --release -p hft-bench --bin httpload -- --seconds 2 --concurrency 8
//! ```
//!
//! The mix spans every route class the explorer serves: licensee pages
//! (pooled network reconstruction + inline SVG render), the funnel page
//! (pooled scrape), the corpus index and `/metrics` (rendered on the
//! loop), and `POST /api` carrying wire requests. Every API answer is
//! byte-compared against a separate single-corpus `Service`'s encoding
//! of the same request — the explorer's acceptance bar is that HTTP
//! answers are byte-identical to wire answers — and any mismatch fails
//! the run. `503` answers are backpressure, not errors: counted,
//! retried, excluded from latency.

use hft_bench::load::{self, Flags, Tally};
use hft_bench::{obj, REPRO_SEED};
use hft_http::HttpExplorer;
use hft_ingest::ShardedStore;
use hft_serve::evloop::ExtraListener;
use hft_serve::{Request, ServeConfig, Service, ShardRouter};
use hft_time::Date;
use hft_uls::shard::ShardStrategy;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Route classes, in report order.
const ROUTES: [&str; 5] = ["index", "licensee", "funnel", "metrics", "api"];
const R_INDEX: usize = 0;
const R_LICENSEE: usize = 1;
const R_FUNNEL: usize = 2;
const R_METRICS: usize = 3;
const R_API: usize = 4;

const USAGE: &str = "usage: httpload [--seconds S] [--concurrency N] [--seed N] [--out PATH]";

/// One workload entry: pre-rendered request bytes, its route class, and
/// (API only) the expected response body.
struct MixEntry {
    class: usize,
    raw: Vec<u8>,
    expected: Option<Vec<u8>>,
}

fn get_entry(class: usize, target: &str) -> MixEntry {
    MixEntry {
        class,
        raw: format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes(),
        expected: None,
    }
}

/// Percent-encode a licensee name for a path segment.
fn encode_segment(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The workload: every route class, licensee pages and API requests
/// across the paper's connected-2020 networks. API expectations are
/// computed by `reference`, not by the engine that serves them.
fn workload(reference: &Service<'_>, licensees: &[String]) -> Vec<MixEntry> {
    let date = Date::new(2020, 4, 1).expect("valid date");
    let mut mix = vec![
        get_entry(R_INDEX, "/"),
        get_entry(R_METRICS, "/metrics"),
        get_entry(R_FUNNEL, "/funnel?radius_km=10&min_filings=11"),
        get_entry(R_FUNNEL, "/funnel?radius_km=25&min_filings=5"),
    ];
    let mut api_requests: Vec<Request> = vec![
        Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        },
        Request::Shortlist {
            lat_deg: 41.88,
            lon_deg: -87.63,
            radius_km: 15.0,
            min_filings: 11,
        },
    ];
    for name in licensees {
        mix.push(get_entry(
            R_LICENSEE,
            &format!("/licensee/{}", encode_segment(name)),
        ));
        api_requests.push(Request::Network {
            licensee: name.clone(),
            date,
        });
    }
    for request in api_requests {
        let body = request.encode();
        let mut raw = format!(
            "POST /api HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        mix.push(MixEntry {
            class: R_API,
            raw,
            expected: Some(reference.handle(&request).encode()),
        });
    }
    mix
}

/// A buffering keep-alive HTTP client (pipeline-safe reply framing).
struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    fn connect(addr: SocketAddr) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Write one request and read one full response; returns
    /// `(status, body)`.
    fn call(&mut self, raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
        let io = |e: std::io::Error| format!("httpload IO: {e}");
        self.stream.write_all(raw).map_err(io)?;
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            let n = self.stream.read(&mut chunk).map_err(io)?;
            if n == 0 {
                return Err("server closed mid-response".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| "non-utf8 response head".to_string())?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line: {head:?}"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or("missing content-length")?;
        while self.buf.len() < head_end + len {
            let n = self.stream.read(&mut chunk).map_err(io)?;
            if n == 0 {
                return Err("server closed mid-body".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok((status, body))
    }
}

/// One keep-alive connection replaying the mix until the deadline.
fn worker(
    addr: SocketAddr,
    mix: &[MixEntry],
    offset: usize,
    deadline: Instant,
) -> Result<Tally, String> {
    let mut tally = Tally::new(ROUTES.len());
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut next = offset % mix.len();
    while Instant::now() < deadline {
        let entry = &mix[next];
        let started = Instant::now();
        let (status, body) = client.call(&entry.raw)?;
        if status == 503 {
            // Backpressure is an answer, not an error: retry the entry.
            tally.overloaded_retries += 1;
            continue;
        }
        tally.record(started.elapsed(), Some(entry.class));
        match &entry.expected {
            Some(expected) => tally.check(expected, &body, || format!("request {next}")),
            None if status >= 400 => {
                tally.fail(|| format!("request {next}: unexpected status {status}"))
            }
            None => {}
        }
        next = (next + 1) % mix.len();
    }
    Ok(tally)
}

fn main() -> std::process::ExitCode {
    load::exit(run())
}

fn run() -> Result<(), String> {
    let flags = Flags::parse(USAGE)?;
    let seconds = flags.get("--seconds", 3.0)?;
    let concurrency = flags.get("--concurrency", 8)?;
    let seed = flags.get("--seed", REPRO_SEED)?;
    if concurrency == 0 {
        return Err("--concurrency must be at least 1".into());
    }
    let eco = load::corpus(seed);
    let mut licensees = eco.connected_2020.clone();
    licensees.sort();
    let mix = workload(&Service::new(&eco.db), &licensees);
    eprintln!(
        "mix: {} entries over {} routes, {concurrency} clients, {seconds}s",
        mix.len(),
        ROUTES.len(),
    );

    let store = ShardedStore::seeded(&eco.db, 1, ShardStrategy::LicenseeHash, None);
    let router = ShardRouter::over(&store);
    let explorer = HttpExplorer::new(&router);
    let extra = ExtraListener::bind("127.0.0.1:0", &explorer).map_err(|e| format!("bind: {e}"))?;
    let http_addr = extra.local_addr().map_err(|e| format!("addr: {e}"))?;
    let before = hft_obs::global().snapshot();
    let served = load::self_host(ServeConfig::default(), &router, &[extra], |_| {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(seconds);
        let mix = &mix;
        let mut tally = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..concurrency)
                .map(|i| {
                    let stride = i * mix.len() / concurrency;
                    scope.spawn(move || worker(http_addr, mix, stride, deadline))
                })
                .collect();
            load::merged(workers.into_iter().map(|w| w.join().expect("worker")))
        })?;
        tally.elapsed_s = started.elapsed().as_secs_f64();
        Ok(tally)
    })?;
    let merged = served.body;

    // Server-side RED, as the driver's own per-route instruments saw the
    // run: request/error counts and duration means from a registry delta
    // (the registry is process-global and cumulative).
    let red = hft_obs::registry::delta(&before, &hft_obs::global().snapshot());
    println!("server RED metrics (per route):");
    for (name, served) in &red.counters {
        let Some(route) = name
            .strip_prefix("http.requests{route=\"")
            .and_then(|r| r.strip_suffix("\"}"))
        else {
            continue;
        };
        if *served == 0 {
            continue;
        }
        let errors = red.counter(&hft_obs::registry::labeled("http.errors", "route", route));
        let dur = red.histogram(&hft_obs::registry::labeled(
            "http.duration_ns",
            "route",
            route,
        ));
        println!(
            "  {route:<9} {served:>7} served  {errors:>5} errors  mean {:.3} ms",
            dur.mean() / 1e6,
        );
    }

    let mut route_rows = Vec::new();
    for (route, shard) in ROUTES.iter().zip(&merged.by_bucket) {
        let s = shard.snapshot();
        let (p50, p90) = (load::ms(&s, 0.50), load::ms(&s, 0.90));
        let (p99, p999) = (load::ms(&s, 0.99), load::ms(&s, 0.999));
        println!(
            "  {route:<9} {:>7} requests  p50 {p50:.3} ms  p90 {p90:.3} ms  p99 {p99:.3} ms  \
             p999 {p999:.3} ms",
            s.count,
        );
        route_rows.push(obj! {
            "route": route,
            "count": s.count,
            "p50_ms": p50,
            "p90_ms": p90,
            "p99_ms": p99,
            "p999_ms": p999,
        });
    }
    println!(
        "http: {} requests {:.0} rps  p50 {:.3} ms  p99 {:.3} ms  \
         ({} api answers byte-verified, {} wrong, {} overloaded retries)",
        merged.completed,
        merged.rps(),
        merged.percentile_ms(0.50),
        merged.percentile_ms(0.99),
        merged.verified,
        merged.wrong,
        merged.overloaded_retries,
    );

    let report = obj! {
        "seconds": merged.elapsed_s,
        "concurrency": concurrency,
        "seed": seed,
        "requests": merged.completed,
        "rps": merged.rps(),
        "p50_ms": merged.percentile_ms(0.50),
        "p90_ms": merged.percentile_ms(0.90),
        "p99_ms": merged.percentile_ms(0.99),
        "p999_ms": merged.percentile_ms(0.999),
        "api_verified": merged.verified,
        "wrong_answers": merged.wrong,
        "overloaded_retries": merged.overloaded_retries,
        "per_route": route_rows,
    };
    load::write_report("http", flags.string("--out").as_deref(), report)?;

    if merged.wrong > 0 {
        return Err(format!(
            "{} wrong answers (first: {})",
            merged.wrong,
            merged.first_mismatch.unwrap_or_default()
        ));
    }
    Ok(())
}
