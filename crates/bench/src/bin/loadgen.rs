//! `loadgen` — the hft-serve load harness: replay a mixed analysis
//! workload against a running server (or a self-hosted one) at
//! configurable concurrency, verify every answer byte-for-byte against
//! direct `AnalysisSession` computation, and write latency percentiles +
//! throughput to `BENCH_serve.json` at the workspace root.
//!
//! ```text
//! # self-hosted (binds its own server on a free port):
//! cargo run --release -p hft-bench --bin loadgen
//!
//! # protocol matrix (json vs bin, one fresh server each):
//! cargo run --release -p hft-bench --bin loadgen -- --matrix
//!
//! # against an external `hftnetview serve` (seeds must match):
//! cargo run --release -p hft-bench --bin loadgen -- \
//!     --connect 127.0.0.1:4710 --seconds 1 --concurrency 4 --shutdown-server
//! ```
//!
//! Two timed phases over the same workload: a single-threaded serial
//! client loop (one request in flight, ever), then the concurrent phase
//! (`--concurrency` connections, `--window` pipelined requests each).
//! The speedup between them is what the serving layer buys: batched
//! syscalls, back-to-back worker dispatch, and single-flight coalescing
//! of identical in-flight computations (weather Monte Carlo requests are
//! not session-cached, so the serial loop pays them every time while
//! concurrent duplicates share one evaluation).
//!
//! `--proto bin` negotiates the compact binary codec over the same
//! frames; verification still byte-compares the *decoded* response
//! re-encoded with the canonical JSON codec, so a wrong answer cannot
//! hide behind a different wire format. `--matrix` self-hosts a fresh
//! server per protocol and reports both cells plus the speedup of bin
//! over the json baseline measured in the same run at the same settings.
//!
//! `Overloaded` rejections are retried (and counted): backpressure is
//! a protocol answer, not an error. A byte mismatch is a hard failure —
//! the harness exits non-zero. Any latency bucket whose p90/p50 ratio
//! exceeds 10x gets a loud `TAIL ALERT` line so queueing regressions
//! fail visibly in CI smoke output.

use hft_bench::REPRO_SEED;
use hft_corridor::{chicago_nj, generate};
use hft_obs::{HistogramShard, RegistrySnapshot};
use hft_serve::api::{Request, Response};
use hft_serve::{Client, Proto, ServeConfig, Server, Service};
use hft_time::Date;
use hft_uls::shard::shard_of_licensee;
use std::collections::VecDeque;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant};

struct Args {
    connect: Option<String>,
    seconds: f64,
    concurrency: usize,
    window: usize,
    seed: u64,
    shutdown_server: bool,
    out: Option<String>,
    shards: usize,
    proto: Proto,
    matrix: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        connect: None,
        seconds: 5.0,
        concurrency: 32,
        window: 8,
        seed: REPRO_SEED,
        shutdown_server: false,
        out: None,
        shards: 0,
        proto: Proto::Json,
        matrix: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--connect" => parsed.connect = Some(need("--connect")?),
            "--seconds" => {
                parsed.seconds = need("--seconds")?
                    .parse()
                    .map_err(|_| "bad --seconds".to_string())?
            }
            "--concurrency" => {
                parsed.concurrency = need("--concurrency")?
                    .parse()
                    .map_err(|_| "bad --concurrency".to_string())?
            }
            "--window" => {
                parsed.window = need("--window")?
                    .parse()
                    .map_err(|_| "bad --window".to_string())?
            }
            "--seed" => {
                parsed.seed = need("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--shutdown-server" => parsed.shutdown_server = true,
            "--out" => parsed.out = Some(need("--out")?),
            "--shards" => {
                parsed.shards = need("--shards")?
                    .parse()
                    .map_err(|_| "bad --shards".to_string())?
            }
            "--proto" => {
                let v = need("--proto")?;
                parsed.proto = Proto::parse(&v).ok_or(format!("bad proto {v:?} (json|bin)"))?;
            }
            "--matrix" => parsed.matrix = true,
            other => {
                return Err(format!(
                    "unknown argument {other:?}\nusage: loadgen [--connect ADDR] [--seconds S] \
                     [--concurrency N] [--window N] [--seed N] [--shutdown-server] [--out PATH] \
                     [--shards N] [--proto json|bin] [--matrix]"
                ))
            }
        }
    }
    if parsed.concurrency == 0 || parsed.window == 0 {
        return Err("--concurrency and --window must be positive".into());
    }
    if parsed.matrix && parsed.connect.is_some() {
        return Err(
            "--matrix self-hosts a server per combo; it cannot be used with --connect".into(),
        );
    }
    Ok(parsed)
}

/// The mixed workload: the paper's query surface with hot-spot
/// duplication (many clients asking the same things), which is what the
/// single-flight layer exists for.
fn workload(licensees: &[String]) -> Vec<Request> {
    let d2020 = Date::new(2020, 4, 1).unwrap();
    let d2019 = Date::new(2019, 1, 1).unwrap();
    let pairs = [("CME", "NY4"), ("CME", "NYSE"), ("CME", "NASDAQ")];
    let mut mix = Vec::new();
    for name in licensees {
        for date in [d2020, d2019] {
            mix.push(Request::Network {
                licensee: name.clone(),
                date,
            });
        }
        for (from, to) in pairs {
            mix.push(Request::Route {
                licensee: name.clone(),
                date: d2020,
                from: from.into(),
                to: to.into(),
            });
        }
        mix.push(Request::Apa {
            licensee: name.clone(),
            date: d2020,
            from: "CME".into(),
            to: "NY4".into(),
        });
    }
    for i in 0..6 {
        mix.push(Request::Geographic {
            lat_deg: 41.7625 + 0.02 * i as f64,
            lon_deg: -88.1712 + 0.4 * i as f64,
            radius_km: 10.0,
        });
    }
    for _ in 0..4 {
        mix.push(Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        });
        mix.push(Request::Shortlist {
            lat_deg: 41.7625,
            lon_deg: -88.1712,
            radius_km: 10.0,
            min_filings: 11,
        });
    }
    // Hot weather queries: few distinct computations, many repeats. The
    // Monte Carlo is the one expensive, non-session-cached request.
    let weather: Vec<Request> = licensees
        .iter()
        .take(2)
        .flat_map(|name| {
            [("CME", "NY4"), ("CME", "NYSE")].map(|(from, to)| Request::Weather {
                licensee: name.clone(),
                date: d2020,
                from: from.into(),
                to: to.into(),
                samples: 60_000,
                seed: 7,
            })
        })
        .collect();
    for i in 0..24 {
        mix.push(weather[i % weather.len()].clone());
    }
    // Hot race queries: the cross-substrate latency race rides the same
    // weather Monte Carlo, but behind the race engine's per-(pair, seed)
    // cache — repeats after the first are cache hits, so the tail
    // attribution shows where the cold computation lands.
    let races: Vec<Request> = licensees
        .iter()
        .take(2)
        .flat_map(|name| {
            [("CME", "NY4"), ("CME", "NYSE")].map(|(from, to)| Request::Race {
                licensee: name.clone(),
                date: d2020,
                from: from.into(),
                to: to.into(),
                constellation: "starlink".into(),
                samples: 20_000,
                seed: 7,
            })
        })
        .collect();
    for i in 0..12 {
        mix.push(races[i % races.len()].clone());
    }
    if let Some(name) = licensees.first() {
        mix.push(Request::StretchSweep {
            licensee: name.clone(),
            date: d2020,
            constellation: "starlink".into(),
        });
    }
    mix
}

fn connect_retry(addr: &SocketAddr, proto: Proto, patience: Duration) -> Result<Client, String> {
    let deadline = Instant::now() + patience;
    loop {
        match Client::connect_with(addr, proto) {
            Ok(client) => return Ok(client),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("could not connect to {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(250));
            }
        }
    }
}

/// Which latency bucket a request lands in when `--shards N` breakout
/// is on: single-licensee requests belong to the owning shard under the
/// fleet's licensee-hash routing; everything else is scatter-gathered
/// across all shards and lands in the final "broadcast" bucket.
fn attribution(mix: &[Request], shards: usize) -> Vec<usize> {
    mix.iter()
        .map(|req| match req {
            Request::Network { licensee, .. }
            | Request::Route { licensee, .. }
            | Request::Apa { licensee, .. }
            | Request::Weather { licensee, .. }
            | Request::Race { licensee, .. }
            | Request::StretchSweep { licensee, .. } => {
                shard_of_licensee(licensee, shards) as usize
            }
            _ => shards,
        })
        .collect()
}

/// Label of attribution bucket `b` among `shards` shards.
fn bucket_label(b: usize, shards: usize) -> String {
    if b == shards {
        "broadcast".to_string()
    } else {
        format!("shard{b}")
    }
}

#[derive(Default)]
struct PhaseResult {
    completed: u64,
    overloaded_retries: u64,
    wrong: u64,
    first_mismatch: Option<String>,
    /// Per-connection latency shard (ns); shards merge across
    /// connections with no loss versus single-shard recording.
    latencies: HistogramShard,
    /// Latency breakout by attribution bucket (`shards + 1` buckets,
    /// the last one broadcast); empty when breakout is off.
    by_bucket: Vec<HistogramShard>,
    elapsed_s: f64,
}

impl PhaseResult {
    fn rps(&self) -> f64 {
        if self.elapsed_s > 0.0 {
            self.completed as f64 / self.elapsed_s
        } else {
            0.0
        }
    }

    fn merge(&mut self, other: PhaseResult) {
        self.completed += other.completed;
        self.overloaded_retries += other.overloaded_retries;
        self.wrong += other.wrong;
        if self.first_mismatch.is_none() {
            self.first_mismatch = other.first_mismatch;
        }
        self.latencies.merge(&other.latencies);
        if self.by_bucket.is_empty() {
            self.by_bucket = other.by_bucket;
        } else {
            for (mine, theirs) in self.by_bucket.iter_mut().zip(&other.by_bucket) {
                mine.merge(theirs);
            }
        }
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    fn percentile_ms(&self, q: f64) -> f64 {
        self.latencies.snapshot().percentile(q) as f64 / 1e6
    }

    fn max_ms(&self) -> f64 {
        self.latencies.snapshot().max as f64 / 1e6
    }
}

/// Emit a loud alert when the p90/p50 ratio of a latency population
/// exceeds 10x — the tail is no longer a tail, it's a queueing or
/// skew pathology, and it should jump out of CI smoke output.
fn tail_alert(label: &str, snapshot: &hft_obs::HistogramSnapshot) {
    if snapshot.count == 0 {
        return;
    }
    let p50 = snapshot.percentile(0.50) as f64 / 1e6;
    let p90 = snapshot.percentile(0.90) as f64 / 1e6;
    if p50 > 0.0 && p90 / p50 > 10.0 {
        println!(
            "TAIL ALERT [{label}]: p90/p50 = {:.1}x exceeds 10x (p50 {p50:.3} ms, p90 {p90:.3} ms)",
            p90 / p50
        );
    }
}

/// Drive one connection: keep up to `window` requests in flight, cycle
/// the workload starting at `offset`, stop issuing at the deadline, then
/// drain. Every non-`Overloaded` answer is decoded and byte-compared to
/// `expected` after re-encoding with the canonical JSON codec — the
/// verification is wire-format independent.
fn drive(
    client: &mut Client,
    mix: &[Request],
    expected: &[Vec<u8>],
    attr: Option<&[usize]>,
    offset: usize,
    window: usize,
    deadline: Instant,
) -> Result<PhaseResult, String> {
    let mut result = PhaseResult::default();
    if let Some(attr) = attr {
        let buckets = attr.iter().max().map_or(0, |m| m + 1);
        result.by_bucket = (0..buckets).map(|_| HistogramShard::default()).collect();
    }
    let mut next = offset % mix.len();
    let mut resend: VecDeque<usize> = VecDeque::new();
    let mut pending: VecDeque<(usize, Instant)> = VecDeque::new();
    let io = |e: std::io::Error| format!("loadgen IO: {e}");
    loop {
        let now = Instant::now();
        let mut queued = false;
        while pending.len() < window && now < deadline {
            let idx = resend.pop_front().unwrap_or_else(|| {
                let idx = next;
                next = (next + 1) % mix.len();
                idx
            });
            client.send(&mix[idx]).map_err(io)?;
            pending.push_back((idx, Instant::now()));
            queued = true;
        }
        if queued {
            client.flush().map_err(io)?;
        }
        let Some((idx, sent)) = pending.pop_front() else {
            break; // past the deadline with nothing in flight
        };
        let response = client.recv().map_err(io)?;
        if response == Response::Overloaded {
            result.overloaded_retries += 1;
            resend.push_back(idx);
            continue;
        }
        let latency_ns = sent.elapsed().as_nanos() as u64;
        result.latencies.record(latency_ns);
        if let Some(attr) = attr {
            result.by_bucket[attr[idx]].record(latency_ns);
        }
        result.completed += 1;
        let got = response.encode();
        if got != expected[idx] {
            result.wrong += 1;
            if result.first_mismatch.is_none() {
                result.first_mismatch = Some(format!(
                    "request {:?}\n  want {}\n  got  {}",
                    mix[idx],
                    String::from_utf8_lossy(&expected[idx]),
                    String::from_utf8_lossy(&got),
                ));
            }
        }
    }
    Ok(result)
}

fn run_serial(
    addr: &SocketAddr,
    proto: Proto,
    mix: &[Request],
    expected: &[Vec<u8>],
    attr: Option<&[usize]>,
    seconds: f64,
) -> Result<PhaseResult, String> {
    let mut client = connect_retry(addr, proto, Duration::from_secs(180))?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut result = drive(&mut client, mix, expected, attr, 0, 1, deadline)?;
    result.elapsed_s = started.elapsed().as_secs_f64();
    Ok(result)
}

#[allow(clippy::too_many_arguments)]
fn run_concurrent(
    addr: &SocketAddr,
    proto: Proto,
    mix: &[Request],
    expected: &[Vec<u8>],
    attr: Option<&[usize]>,
    seconds: f64,
    concurrency: usize,
    window: usize,
) -> Result<PhaseResult, String> {
    // Connect everyone first so the timed window measures serving, not
    // connection setup.
    let mut clients: Vec<Client> = Vec::with_capacity(concurrency);
    for _ in 0..concurrency {
        clients.push(connect_retry(addr, proto, Duration::from_secs(180))?);
    }
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let outcomes: Vec<Result<PhaseResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                scope.spawn(move || drive(client, mix, expected, attr, i * 13, window, deadline))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut merged = PhaseResult::default();
    for outcome in outcomes {
        merged.merge(outcome?);
    }
    merged.elapsed_s = started.elapsed().as_secs_f64();
    Ok(merged)
}

/// Where the wire time went during one self-hosted combo: deltas of the
/// server's `serve.decode_ns`/`serve.encode_ns`/`serve.poll_wake_ns`
/// histograms and buffer-pool counters between two registry snapshots
/// (the registry is process-global and cumulative, so each combo is the
/// after-minus-before difference).
#[derive(Default, Clone, Copy)]
struct WireSample {
    decode_count: u64,
    decode_mean_ns: f64,
    encode_count: u64,
    encode_mean_ns: f64,
    poll_wake_count: u64,
    poll_wake_mean_ns: f64,
    bufpool_hits: u64,
    bufpool_misses: u64,
}

impl WireSample {
    fn delta(before: &RegistrySnapshot, after: &RegistrySnapshot) -> WireSample {
        let d = hft_obs::registry::delta(before, after);
        let hist = |name: &str| {
            let h = d.histogram(name);
            (h.count, h.mean())
        };
        let (decode_count, decode_mean_ns) = hist("serve.decode_ns");
        let (encode_count, encode_mean_ns) = hist("serve.encode_ns");
        let (poll_wake_count, poll_wake_mean_ns) = hist("serve.poll_wake_ns");
        WireSample {
            decode_count,
            decode_mean_ns,
            encode_count,
            encode_mean_ns,
            poll_wake_count,
            poll_wake_mean_ns,
            bufpool_hits: d.counter("serve.bufpool_hits"),
            bufpool_misses: d.counter("serve.bufpool_misses"),
        }
    }

    fn bufpool_hit_rate(&self) -> f64 {
        let total = self.bufpool_hits + self.bufpool_misses;
        if total > 0 {
            self.bufpool_hits as f64 / total as f64
        } else {
            0.0
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"decode_count\": {}, \"decode_mean_ns\": {}, \"encode_count\": {}, \
             \"encode_mean_ns\": {}, \"poll_wake_count\": {}, \"poll_wake_mean_ns\": {}, \
             \"bufpool_hits\": {}, \"bufpool_misses\": {}}}",
            self.decode_count,
            fmt(self.decode_mean_ns),
            self.encode_count,
            fmt(self.encode_mean_ns),
            self.poll_wake_count,
            fmt(self.poll_wake_mean_ns),
            self.bufpool_hits,
            self.bufpool_misses,
        )
    }
}

/// One protocol cell of the benchmark matrix.
struct ComboResult {
    proto: Proto,
    serial: PhaseResult,
    concurrent: PhaseResult,
    /// Server-side wire attribution; only available when the server
    /// shares this process (self-hosted runs).
    wire: Option<WireSample>,
    /// The slowest captured traces, pulled from the server's flight
    /// recorder after the concurrent phase — the waterfall behind any
    /// `TAIL ALERT` this cell prints.
    traces: Vec<hft_serve::WireTrace>,
}

impl ComboResult {
    fn print(&self) {
        let serial = &self.serial;
        let concurrent = &self.concurrent;
        println!("=== {} ===", self.proto.name());
        println!(
            "serial:     {:>8} requests  {:>9.0} rps  p50 {:.3} ms  max {:.3} ms",
            serial.completed,
            serial.rps(),
            serial.percentile_ms(0.50),
            serial.max_ms(),
        );
        println!(
            "concurrent: {:>8} requests  {:>9.0} rps  p50 {:.3} ms  p90 {:.3} ms  p95 {:.3} ms  \
             p99 {:.3} ms  p999 {:.3} ms  max {:.3} ms",
            concurrent.completed,
            concurrent.rps(),
            concurrent.percentile_ms(0.50),
            concurrent.percentile_ms(0.90),
            concurrent.percentile_ms(0.95),
            concurrent.percentile_ms(0.99),
            concurrent.percentile_ms(0.999),
            concurrent.max_ms(),
        );
        let speedup = if serial.rps() > 0.0 {
            concurrent.rps() / serial.rps()
        } else {
            0.0
        };
        println!(
            "speedup {speedup:.1}x, {} overloaded retries, {} wrong answers",
            serial.overloaded_retries + concurrent.overloaded_retries,
            serial.wrong + concurrent.wrong
        );
        if let Some(wire) = &self.wire {
            println!(
                "wire: decode {:.1} us mean (n={}), encode {:.1} us mean (n={}), poll wake \
                 {:.1} us mean (n={}), bufpool {:.1}% hit",
                wire.decode_mean_ns / 1e3,
                wire.decode_count,
                wire.encode_mean_ns / 1e3,
                wire.encode_count,
                wire.poll_wake_mean_ns / 1e3,
                wire.poll_wake_count,
                wire.bufpool_hit_rate() * 100.0,
            );
        }
        tail_alert(
            &format!("{} concurrent", self.proto.name()),
            &concurrent.latencies.snapshot(),
        );
        if !self.traces.is_empty() {
            println!("slowest captured traces:");
            for t in &self.traces {
                print!("{}", t.render());
            }
        }
    }

    fn json(&self, args: &Args) -> String {
        let serial = &self.serial;
        let concurrent = &self.concurrent;
        let wire = self
            .wire
            .as_ref()
            .map(|w| format!(", \"wire\": {}", w.json()))
            .unwrap_or_default();
        format!(
            "{{\"proto\": \"{}\", \
             \"serial\": {{\"requests\": {}, \"seconds\": {}, \"rps\": {}, \"p50_ms\": {}, \
             \"max_ms\": {}}}, \
             \"concurrent\": {{\"concurrency\": {}, \"window\": {}, \"requests\": {}, \
             \"seconds\": {}, \"rps\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p95_ms\": {}, \
             \"p99_ms\": {}, \"p999_ms\": {}, \"max_ms\": {}, \"overloaded_retries\": {}, \
             \"wrong_answers\": {}}}{wire}}}",
            self.proto.name(),
            serial.completed,
            fmt(serial.elapsed_s),
            fmt(serial.rps()),
            fmt(serial.percentile_ms(0.50)),
            fmt(serial.max_ms()),
            args.concurrency,
            args.window,
            concurrent.completed,
            fmt(concurrent.elapsed_s),
            fmt(concurrent.rps()),
            fmt(concurrent.percentile_ms(0.50)),
            fmt(concurrent.percentile_ms(0.90)),
            fmt(concurrent.percentile_ms(0.95)),
            fmt(concurrent.percentile_ms(0.99)),
            fmt(concurrent.percentile_ms(0.999)),
            fmt(concurrent.max_ms()),
            concurrent.overloaded_retries,
            serial.wrong + concurrent.wrong,
        )
    }
}

fn fmt(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    eprintln!("generating corpus (seed {})...", args.seed);
    let eco = generate(&chicago_nj(), args.seed);
    let mut licensees = eco.connected_2020.clone();
    licensees.sort();
    let mix = workload(&licensees);

    // Ground truth: the same requests answered by a direct in-process
    // session, encoded with the same canonical codec.
    eprintln!("computing {} expected answers locally...", mix.len());
    let reference = Service::new(&eco.db);
    let expected: Vec<Vec<u8>> = mix.iter().map(|r| reference.handle(r).encode()).collect();

    // Optional per-shard latency breakout: attribute each request to the
    // shard a licensee-hash fleet would route it to (last bucket =
    // broadcast). This is client-side bookkeeping — it works against any
    // server and lets the p90-vs-p50 queueing gap be pinned on a shard.
    let attr = (args.shards > 0).then(|| attribution(&mix, args.shards));
    let attr = attr.as_deref();

    // Warm + serial + concurrent against one server, optionally asking
    // it to shut down afterwards.
    let run_phases = |addr: &SocketAddr,
                      proto: Proto,
                      shutdown: bool|
     -> Result<(PhaseResult, PhaseResult, Vec<hft_serve::WireTrace>), String> {
        // Warm pass: every distinct request once, so both timed phases
        // hit a warm server (the acceptance setup).
        let mut warm = connect_retry(addr, proto, Duration::from_secs(180))?;
        for request in &mix {
            loop {
                let response = warm.call(request).map_err(|e| format!("warmup: {e}"))?;
                if response != Response::Overloaded {
                    break;
                }
            }
        }
        eprintln!("warm; serial phase ({:.1}s)...", args.seconds);
        let serial = run_serial(addr, proto, &mix, &expected, attr, args.seconds)?;
        eprintln!(
            "serial: {} requests in {:.2}s = {:.0} rps; concurrent phase ({} conns, window {})...",
            serial.completed,
            serial.elapsed_s,
            serial.rps(),
            args.concurrency,
            args.window
        );
        let concurrent = run_concurrent(
            addr,
            proto,
            &mix,
            &expected,
            attr,
            args.seconds,
            args.concurrency,
            args.window,
        )?;
        // Pull the slowest captured traces before (optionally) shutting
        // the server down, so a TAIL ALERT is followed by the actual
        // waterfalls behind the tail. Best-effort: a pre-tracing server
        // answering an error just means no waterfalls.
        let mut c = connect_retry(addr, proto, Duration::from_secs(30))?;
        let traces = match c.call(&Request::Traces {
            limit: 3,
            trace_id: None,
        }) {
            Ok(Response::Traces { traces }) => traces,
            _ => Vec::new(),
        };
        if shutdown {
            let ack = c.call(&Request::Shutdown).map_err(|e| e.to_string())?;
            if ack != Response::ShuttingDown {
                return Err(format!("shutdown not acknowledged: {ack:?}"));
            }
        }
        Ok((serial, concurrent, traces))
    };

    // Self-host one protocol cell on a fresh server and fresh port; the
    // worker pool is sized identically for every cell so cells are
    // comparable.
    let self_host = |proto: Proto| -> Result<ComboResult, String> {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: (args.concurrency * args.window).clamp(8, 256),
            queue_depth: (args.concurrency * args.window).max(64),
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        eprintln!("[{}] self-hosting on {addr}", proto.name());
        let before = hft_obs::global().snapshot();
        let (serial, concurrent, traces) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| server.run_with(&Service::new(&eco.db)));
            let phases = run_phases(&addr, proto, true);
            let stats = handle.join().expect("server thread");
            stats.map_err(|e| e.to_string())?;
            phases
        })?;
        let wire = WireSample::delta(&before, &hft_obs::global().snapshot());
        Ok(ComboResult {
            proto,
            serial,
            concurrent,
            wire: Some(wire),
            traces,
        })
    };

    let combos: Vec<ComboResult> = match &args.connect {
        Some(spec) => {
            let addr = spec
                .to_socket_addrs()
                .map_err(|e| format!("bad --connect {spec:?}: {e}"))?
                .next()
                .ok_or(format!("--connect {spec:?} resolved to nothing"))?;
            let (serial, concurrent, traces) = run_phases(&addr, args.proto, args.shutdown_server)?;
            vec![ComboResult {
                proto: args.proto,
                serial,
                concurrent,
                wire: None,
                traces,
            }]
        }
        // The matrix baseline cell (json) runs first, the acceptance
        // cell (bin) last; each gets a fresh server at identical settings.
        None if args.matrix => vec![self_host(Proto::Json)?, self_host(Proto::Binary)?],
        None => vec![self_host(args.proto)?],
    };

    for combo in &combos {
        combo.print();
    }

    // The cell that headlines the top-level summary: bin when the
    // matrix ran, otherwise the single cell that was measured.
    let primary = combos.last().expect("at least one cell");
    let baseline = combos[0].concurrent.rps();
    let matrix_speedup =
        (args.matrix && baseline > 0.0).then(|| primary.concurrent.rps() / baseline);
    if let Some(speedup) = matrix_speedup {
        println!(
            "matrix: bin {:.0} rps vs json {baseline:.0} rps = {speedup:.2}x",
            primary.concurrent.rps(),
        );
    }

    // Per-shard breakout of the primary cell's concurrent phase: where
    // does the tail live? The bucket with the widest p90-p50 gap is the
    // queueing culprit — a shard, or the broadcast fan-out.
    let mut per_shard_json = String::new();
    if args.shards > 0 {
        let mut worst: Option<(String, f64)> = None;
        let entries: Vec<String> = primary
            .concurrent
            .by_bucket
            .iter()
            .enumerate()
            .map(|(b, shard)| {
                let snap = shard.snapshot();
                let label = bucket_label(b, args.shards);
                let p50 = snap.percentile(0.50) as f64 / 1e6;
                let p90 = snap.percentile(0.90) as f64 / 1e6;
                let p99 = snap.percentile(0.99) as f64 / 1e6;
                let p999 = snap.percentile(0.999) as f64 / 1e6;
                let max = snap.max as f64 / 1e6;
                let gap = p90 - p50;
                if shard.count() > 0 && worst.as_ref().is_none_or(|(_, g)| gap > *g) {
                    worst = Some((label.clone(), gap));
                }
                println!(
                    "  {label:<10} {:>8} requests  p50 {p50:.3} ms  p90 {p90:.3} ms  \
                     p99 {p99:.3} ms  p999 {p999:.3} ms  max {max:.3} ms",
                    shard.count(),
                );
                tail_alert(&label, &snap);
                format!(
                    "{{\"label\": \"{label}\", \"requests\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \
                     \"p99_ms\": {}, \"p999_ms\": {}, \"max_ms\": {}}}",
                    shard.count(),
                    fmt(p50),
                    fmt(p90),
                    fmt(p99),
                    fmt(p999),
                    fmt(max),
                )
            })
            .collect();
        if let Some((label, gap)) = &worst {
            println!("  widest p90-p50 gap: {label} ({gap:.3} ms)");
        }
        per_shard_json = format!(",\n\"per_shard\": [{}]", entries.join(", "));
    }

    let speedup = if primary.serial.rps() > 0.0 {
        primary.concurrent.rps() / primary.serial.rps()
    } else {
        0.0
    };
    let wrong_total: u64 = combos
        .iter()
        .map(|c| c.serial.wrong + c.concurrent.wrong)
        .sum();
    let runs_json: Vec<String> = combos.iter().map(|c| c.json(&args)).collect();
    let matrix_json = matrix_speedup
        .map(|s| format!(",\n\"speedup_bin_vs_json\": {}", fmt(s)))
        .unwrap_or_default();

    // Top-level serial/concurrent mirror the primary cell so existing
    // consumers of BENCH_serve.json keep working; "runs" carries every
    // measured protocol cell.
    let json = format!(
        "{{\n\
         \"workload\": {{\"distinct_requests\": {}, \"seed\": {}}},\n\
         \"proto\": \"{}\",\n\
         \"serial\": {{\"requests\": {}, \"seconds\": {}, \"rps\": {}, \"p50_ms\": {}, \
         \"max_ms\": {}}},\n\
         \"concurrent\": {{\"concurrency\": {}, \"window\": {}, \"requests\": {}, \"seconds\": {}, \
         \"rps\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}, \
         \"p999_ms\": {}, \"max_ms\": {}, \"overloaded_retries\": {}, \"wrong_answers\": {}}},\n\
         \"speedup\": {},\n\
         \"runs\": [{}]{}{}\n}}\n",
        mix.len(),
        args.seed,
        primary.proto.name(),
        primary.serial.completed,
        fmt(primary.serial.elapsed_s),
        fmt(primary.serial.rps()),
        fmt(primary.serial.percentile_ms(0.50)),
        fmt(primary.serial.max_ms()),
        args.concurrency,
        args.window,
        primary.concurrent.completed,
        fmt(primary.concurrent.elapsed_s),
        fmt(primary.concurrent.rps()),
        fmt(primary.concurrent.percentile_ms(0.50)),
        fmt(primary.concurrent.percentile_ms(0.90)),
        fmt(primary.concurrent.percentile_ms(0.95)),
        fmt(primary.concurrent.percentile_ms(0.99)),
        fmt(primary.concurrent.percentile_ms(0.999)),
        fmt(primary.concurrent.max_ms()),
        primary.concurrent.overloaded_retries,
        wrong_total,
        fmt(speedup),
        runs_json.join(",\n"),
        matrix_json,
        per_shard_json,
    );
    let path = args
        .out
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").into());
    std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");

    if wrong_total > 0 {
        let detail = combos
            .iter()
            .flat_map(|c| {
                c.serial
                    .first_mismatch
                    .clone()
                    .into_iter()
                    .chain(c.concurrent.first_mismatch.clone())
            })
            .next()
            .unwrap_or_default();
        return Err(format!("byte mismatch against direct session:\n{detail}"));
    }
    Ok(())
}
