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
//! # protocol matrix (json vs bin, one fresh two-shard fleet each):
//! cargo run --release -p hft-bench --bin loadgen -- --matrix --shards 2
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
//! syscalls and back-to-back worker dispatch on every core. Neither
//! phase recomputes a repeated request: the engine memos answer every
//! repeat, the hot weather Monte Carlos included, from the first
//! computation, and concurrent duplicates of a cold request wait for
//! that one computation.
//!
//! A self-hosted server is what `hftnetview serve` runs: a
//! [`ShardRouter`] over a `--shards`-shard licensee-hash fleet (one
//! shard by default), while the expected bytes come from one
//! single-corpus [`Service`]. `--proto bin` negotiates the compact
//! binary codec over the same frames; verification still byte-compares
//! the *decoded* response re-encoded with the canonical JSON codec, so a
//! wrong answer cannot hide behind a different wire format. `--matrix`
//! self-hosts a fresh fleet per protocol and reports both cells plus the
//! speedup of bin over the json baseline measured in the same run at the
//! same settings.
//!
//! The mix repeats every weather and latency race, so after the warm
//! pass the §5 weather Monte Carlo behind them is a memo hit. Each
//! self-hosted cell reads the server's `race.mc_cache{outcome}` counters
//! and fails unless some Monte Carlo ran and over 80% of lookups hit.
//!
//! `Overloaded` rejections are retried (and counted): backpressure is
//! a protocol answer, not an error. A byte mismatch is a hard failure —
//! the harness exits non-zero. Any latency bucket whose p90/p50 ratio
//! exceeds 10x gets a loud `TAIL ALERT` line so queueing regressions
//! fail visibly in CI smoke output.

use hft_bench::load::{self, Flags, Json, Tally};
use hft_bench::{obj, REPRO_SEED};
use hft_ingest::ShardedStore;
use hft_obs::{HistDelta, RegistryDelta};
use hft_serve::api::{Request, Response};
use hft_serve::{Proto, ServeConfig, Service, ShardRouter, WireTrace};
use hft_time::Date;
use hft_uls::shard::ShardStrategy;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: loadgen [--connect ADDR] [--seconds S] [--concurrency N] \
                     [--window N] [--seed N] [--shutdown-server] [--out PATH] [--shards N] \
                     [--proto json|bin] [--matrix]";

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

impl Args {
    fn parse() -> Result<Args, String> {
        let flags = Flags::parse(USAGE)?;
        let args = Args {
            connect: flags.string("--connect"),
            seconds: flags.get("--seconds", 5.0)?,
            concurrency: flags.get("--concurrency", 32)?,
            window: flags.get("--window", 8)?,
            seed: flags.get("--seed", REPRO_SEED)?,
            shutdown_server: flags.on("--shutdown-server"),
            out: flags.string("--out"),
            shards: flags.get("--shards", 1)?,
            proto: flags.parse_or("--proto", Proto::Json, Proto::parse)?,
            matrix: flags.on("--matrix"),
        };
        if args.concurrency == 0 || args.window == 0 || args.shards == 0 {
            return Err("--concurrency, --window and --shards must be positive".into());
        }
        if args.matrix && args.connect.is_some() {
            return Err(
                "--matrix self-hosts a server per combo; it cannot be used with --connect".into(),
            );
        }
        Ok(args)
    }
}

/// The mixed workload: the paper's query surface with hot-spot
/// duplication (many clients asking the same things), each distinct
/// computation answered once by the engine memos.
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
    // Monte Carlo is the one expensive request; each repeat reads the
    // race engine's Monte Carlo memo.
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
    // Hot race queries: the first three licensees race every pair, each
    // race twice, plus one stretch sweep per licensee. The
    // cross-substrate latency race rides the same weather Monte Carlo
    // memo (at other samples than the weather queries, so its own
    // entries) — repeats after the first are memo hits, so the tail
    // attribution shows where the cold computation lands.
    let racers = &licensees[..licensees.len().min(3)];
    let races: Vec<Request> = racers
        .iter()
        .flat_map(|name| {
            pairs.map(|(from, to)| Request::Race {
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
    for i in 0..races.len() * 2 {
        mix.push(races[i % races.len()].clone());
    }
    for name in racers {
        mix.push(Request::StretchSweep {
            licensee: name.clone(),
            date: d2020,
            constellation: "starlink".into(),
        });
    }
    mix
}

/// What every protocol cell replays: the mix, each request's expected
/// bytes, and the per-shard latency attribution (empty when off).
struct Replay {
    mix: Vec<Request>,
    expected: Vec<Vec<u8>>,
    attr: Vec<usize>,
}

impl Replay {
    /// A warm pass, then the timed serial and concurrent phases against
    /// one server.
    fn phases(
        &self,
        addr: &SocketAddr,
        proto: Proto,
        args: &Args,
    ) -> Result<(Tally, Tally), String> {
        // Warm pass: every distinct request once, so both timed phases
        // hit a warm server (the acceptance setup).
        let mut warm = load::connect(addr, proto)?;
        for request in &self.mix {
            while warm.call(request).map_err(|e| format!("warmup: {e}"))? == Response::Overloaded {}
        }
        eprintln!("warm; serial phase ({:.1}s)...", args.seconds);
        let serial = self.phase(addr, proto, args.seconds, 1, 1)?;
        eprintln!(
            "serial: {} requests in {:.2}s = {:.0} rps; concurrent phase ({} conns, window {})...",
            serial.completed,
            serial.elapsed_s,
            serial.rps(),
            args.concurrency,
            args.window
        );
        let concurrent = self.phase(addr, proto, args.seconds, args.concurrency, args.window)?;
        Ok((serial, concurrent))
    }

    /// `concurrency` connections, each keeping up to `window` requests
    /// in flight for `seconds`. Everyone connects first, so the timed
    /// window measures serving, not connection setup.
    fn phase(
        &self,
        addr: &SocketAddr,
        proto: Proto,
        seconds: f64,
        concurrency: usize,
        window: usize,
    ) -> Result<Tally, String> {
        let Replay {
            mix,
            expected,
            attr,
        } = self;
        let mut clients = (0..concurrency)
            .map(|_| load::connect(addr, proto))
            .collect::<Result<Vec<_>, _>>()?;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    scope.spawn(move || {
                        load::drive(client, mix, expected, attr, i * 13, window, deadline)
                    })
                })
                .collect();
            load::merged(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread")),
            )
        })
    }
}

/// Emit a loud alert when the p90/p50 ratio of a latency population
/// exceeds 10x — the tail is no longer a tail, it's a queueing or
/// skew pathology, and it should jump out of CI smoke output.
fn tail_alert(label: &str, snapshot: &hft_obs::HistogramSnapshot) {
    if snapshot.count == 0 {
        return;
    }
    let p50 = load::ms(snapshot, 0.50);
    let p90 = load::ms(snapshot, 0.90);
    if p50 > 0.0 && p90 / p50 > 10.0 {
        println!(
            "TAIL ALERT [{label}]: p90/p50 = {:.1}x exceeds 10x (p50 {p50:.3} ms, p90 {p90:.3} ms)",
            p90 / p50
        );
    }
}

/// Where the wire time went during one self-hosted combo: the growth of
/// the server's `serve.decode_ns`/`serve.encode_ns`/`serve.poll_wake_ns`
/// histograms, buffer-pool counters and `race.mc_cache` counters between
/// two registry snapshots (the registry is process-global and
/// cumulative, so each combo is the after-minus-before difference).
struct WireSample(RegistryDelta);

impl WireSample {
    fn histograms(&self) -> [HistDelta; 3] {
        ["serve.decode_ns", "serve.encode_ns", "serve.poll_wake_ns"].map(|n| self.0.histogram(n))
    }

    fn bufpool(&self) -> (u64, u64) {
        let d = &self.0;
        (
            d.counter("serve.bufpool_hits"),
            d.counter("serve.bufpool_misses"),
        )
    }

    /// Weather Monte Carlo memo lookups: hits and misses.
    fn mc_cache(&self) -> (u64, u64) {
        let outcome = |o| {
            self.0
                .counter(&hft_obs::registry::labeled("race.mc_cache", "outcome", o))
        };
        (outcome("hit"), outcome("miss"))
    }

    fn print(&self) {
        let [decode, encode, wake] = self.histograms();
        let (hits, misses) = self.bufpool();
        println!(
            "wire: decode {:.1} us mean (n={}), encode {:.1} us mean (n={}), poll wake \
             {:.1} us mean (n={}), bufpool {:.1}% hit",
            decode.mean() / 1e3,
            decode.count,
            encode.mean() / 1e3,
            encode.count,
            wake.mean() / 1e3,
            wake.count,
            hits as f64 / (hits + misses).max(1) as f64 * 100.0,
        );
        let (hits, misses) = self.mc_cache();
        println!(
            "mc cache: {hits} hits / {misses} misses = {:.1}% hit rate",
            self.mc_hit_rate() * 100.0
        );
    }

    fn mc_hit_rate(&self) -> f64 {
        let (hits, misses) = self.mc_cache();
        hits as f64 / (hits + misses).max(1) as f64
    }

    /// The acceptance floor on a repeats-heavy mix: some weather Monte
    /// Carlo ran, and over 80% of its memo lookups hit.
    fn check_mc_cache(&self, proto: Proto) -> Result<(), String> {
        let (hits, misses) = self.mc_cache();
        if hits + misses == 0 {
            return Err(format!(
                "[{}] no weather Monte Carlo ran — the corpus has no microwave routes?",
                proto.name()
            ));
        }
        if self.mc_hit_rate() <= 0.80 {
            return Err(format!(
                "[{}] mc cache hit rate {:.1}% below the 80% floor on a repeats-heavy mix",
                proto.name(),
                self.mc_hit_rate() * 100.0
            ));
        }
        Ok(())
    }

    fn json(&self) -> Json {
        let [decode, encode, wake] = self.histograms();
        let (hits, misses) = self.bufpool();
        let (mc_hits, mc_misses) = self.mc_cache();
        obj! {
            "decode_count": decode.count,
            "decode_mean_ns": decode.mean(),
            "encode_count": encode.count,
            "encode_mean_ns": encode.mean(),
            "poll_wake_count": wake.count,
            "poll_wake_mean_ns": wake.mean(),
            "bufpool_hits": hits,
            "bufpool_misses": misses,
            "mc_cache_hits": mc_hits,
            "mc_cache_misses": mc_misses,
            "mc_cache_hit_rate": self.mc_hit_rate(),
        }
    }
}

/// One protocol cell of the benchmark matrix.
struct ComboResult {
    proto: Proto,
    serial: Tally,
    concurrent: Tally,
    /// Server-side wire attribution and Monte Carlo cache counts; only
    /// available when the server shares this process (self-hosted runs).
    wire: Option<WireSample>,
    /// The slowest captured traces, pulled from the server's flight
    /// recorder after the concurrent phase — the waterfall behind any
    /// `TAIL ALERT` this cell prints.
    traces: Vec<WireTrace>,
}

impl ComboResult {
    fn wrong(&self) -> u64 {
        self.serial.wrong + self.concurrent.wrong
    }

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
        println!(
            "speedup {:.1}x, {} overloaded retries, {} wrong answers",
            self.speedup(),
            serial.overloaded_retries + concurrent.overloaded_retries,
            self.wrong()
        );
        if let Some(wire) = &self.wire {
            wire.print();
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

    /// Concurrent over serial throughput.
    fn speedup(&self) -> f64 {
        if self.serial.rps() > 0.0 {
            self.concurrent.rps() / self.serial.rps()
        } else {
            0.0
        }
    }

    fn serial_json(&self) -> Json {
        let s = &self.serial;
        obj! {
            "requests": s.completed,
            "seconds": s.elapsed_s,
            "rps": s.rps(),
            "p50_ms": s.percentile_ms(0.50),
            "max_ms": s.max_ms(),
        }
    }

    fn concurrent_json(&self, args: &Args, wrong: u64) -> Json {
        let c = &self.concurrent;
        obj! {
            "concurrency": args.concurrency,
            "window": args.window,
            "requests": c.completed,
            "seconds": c.elapsed_s,
            "rps": c.rps(),
            "p50_ms": c.percentile_ms(0.50),
            "p90_ms": c.percentile_ms(0.90),
            "p95_ms": c.percentile_ms(0.95),
            "p99_ms": c.percentile_ms(0.99),
            "p999_ms": c.percentile_ms(0.999),
            "max_ms": c.max_ms(),
            "overloaded_retries": c.overloaded_retries,
            "wrong_answers": wrong,
        }
    }

    fn json(&self, args: &Args) -> Json {
        let mut cell = obj! {
            "proto": self.proto.name(),
            "serial": self.serial_json(),
            "concurrent": self.concurrent_json(args, self.wrong()),
        };
        if let Some(wire) = &self.wire {
            load::push(&mut cell, "wire", wire.json());
        }
        cell
    }
}

fn main() -> std::process::ExitCode {
    load::exit(run())
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let eco = load::corpus(args.seed);
    let mut licensees = eco.connected_2020.clone();
    let db = Arc::new(eco.db);
    licensees.sort();
    let mix = workload(&licensees);

    // Ground truth: the same requests answered by a direct in-process
    // session, encoded with the same canonical codec.
    eprintln!("computing {} expected answers locally...", mix.len());
    let reference = Service::new(&db);
    let expected = mix.iter().map(|r| reference.handle(r).encode()).collect();

    // Per-shard latency breakout on a multi-shard fleet: attribute each
    // request to the shard a licensee-hash fleet of that size routes it
    // to (last bucket = broadcast). This is client-side bookkeeping — it
    // holds for a --connect server of the same size too, and lets the
    // p90-vs-p50 queueing gap be pinned on a shard.
    let fleet = || ShardedStore::seeded(&db, args.shards, ShardStrategy::LicenseeHash, None);
    let attr = if args.shards > 1 {
        load::attribution(&mix, &ShardRouter::over(&fleet()))
    } else {
        Vec::new()
    };
    let replay = Replay {
        mix,
        expected,
        attr,
    };

    // Self-host one protocol cell on a fresh fleet and fresh port; the
    // worker pool is sized identically for every cell so cells are
    // comparable.
    let self_host = |proto: Proto| -> Result<ComboResult, String> {
        let config = ServeConfig {
            workers: (args.concurrency * args.window).clamp(8, 256),
            queue_depth: (args.concurrency * args.window).max(64),
            ..ServeConfig::default()
        };
        let fleet = fleet();
        let before = hft_obs::global().snapshot();
        let served = load::self_host(config, &ShardRouter::over(&fleet), &[], |addr| {
            eprintln!(
                "[{}] self-hosting a {}-shard fleet on {addr}",
                proto.name(),
                args.shards
            );
            replay.phases(&addr, proto, &args)
        })?;
        let (serial, concurrent) = served.body;
        Ok(ComboResult {
            proto,
            serial,
            concurrent,
            wire: Some(WireSample(hft_obs::registry::delta(
                &before,
                &hft_obs::global().snapshot(),
            ))),
            traces: served.traces,
        })
    };

    let combos: Vec<ComboResult> = match &args.connect {
        Some(spec) => {
            let addr = spec
                .to_socket_addrs()
                .map_err(|e| format!("bad --connect {spec:?}: {e}"))?
                .next()
                .ok_or(format!("--connect {spec:?} resolved to nothing"))?;
            let (serial, concurrent) = replay.phases(&addr, args.proto, &args)?;
            // Pull the slowest captured traces before (optionally)
            // shutting the server down, so a TAIL ALERT is followed by
            // the actual waterfalls behind the tail.
            let traces = load::slowest_traces(&addr, args.shutdown_server)?;
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

    // Top-level serial/concurrent mirror the primary cell so existing
    // consumers of BENCH_serve.json keep working; "runs" carries every
    // measured protocol cell.
    let wrong_total: u64 = combos.iter().map(ComboResult::wrong).sum();
    let mut report = obj! {
        "workload": obj! {"distinct_requests": replay.mix.len(), "seed": args.seed},
        "shards": args.shards,
        "proto": primary.proto.name(),
        "serial": primary.serial_json(),
        "concurrent": primary.concurrent_json(&args, wrong_total),
        "speedup": primary.speedup(),
        "runs": combos.iter().map(|c| c.json(&args)).collect::<Vec<_>>(),
    };
    if let Some(speedup) = matrix_speedup {
        load::push(&mut report, "speedup_bin_vs_json", speedup);
    }

    // Per-shard breakout of the primary cell's concurrent phase: where
    // does the tail live? The bucket with the widest p90-p50 gap is the
    // queueing culprit — a shard, or the broadcast fan-out.
    if args.shards > 1 {
        let mut worst: Option<(String, f64)> = None;
        let entries: Vec<Json> = primary
            .concurrent
            .by_bucket
            .iter()
            .enumerate()
            .map(|(b, shard)| {
                let snap = shard.snapshot();
                let label = load::bucket_label(b, args.shards);
                let (p50, p90) = (load::ms(&snap, 0.50), load::ms(&snap, 0.90));
                let (p99, p999) = (load::ms(&snap, 0.99), load::ms(&snap, 0.999));
                let max = snap.max as f64 / 1e6;
                let gap = p90 - p50;
                if snap.count > 0 && worst.as_ref().is_none_or(|(_, g)| gap > *g) {
                    worst = Some((label.clone(), gap));
                }
                println!(
                    "  {label:<10} {:>8} requests  p50 {p50:.3} ms  p90 {p90:.3} ms  \
                     p99 {p99:.3} ms  p999 {p999:.3} ms  max {max:.3} ms",
                    snap.count,
                );
                tail_alert(&label, &snap);
                obj! {
                    "label": label,
                    "requests": snap.count,
                    "p50_ms": p50,
                    "p90_ms": p90,
                    "p99_ms": p99,
                    "p999_ms": p999,
                    "max_ms": max,
                }
            })
            .collect();
        if let Some((label, gap)) = &worst {
            println!("  widest p90-p50 gap: {label} ({gap:.3} ms)");
        }
        load::push(&mut report, "per_shard", entries);
    }
    load::write_report("serve", args.out.as_deref(), report)?;

    if wrong_total > 0 {
        let detail = combos
            .iter()
            .find_map(|c| {
                (c.serial.first_mismatch.clone()).or_else(|| c.concurrent.first_mismatch.clone())
            })
            .unwrap_or_default();
        return Err(format!("byte mismatch against direct session:\n{detail}"));
    }
    for combo in &combos {
        if let Some(wire) = &combo.wire {
            wire.check_mc_cache(combo.proto)?;
        }
    }
    Ok(())
}
