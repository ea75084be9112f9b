//! `ingestload` — the hft-ingest bench harness: measure dump-replay
//! ingest throughput, then serve a live corpus while the rest of the
//! history ingests underneath it, verifying every generation-pinned
//! answer against a direct in-process session over the same generation.
//! Writes `BENCH_ingest.json` at the workspace root.
//!
//! ```text
//! cargo run --release -p hft-bench --bin ingestload
//! cargo run --release -p hft-bench --bin ingestload -- --seconds 2 --concurrency 4
//! ```
//!
//! Phase A replays the corpus's full 2013–2020 event history (rendered
//! as daily transaction dumps, decoded from text like a real follower
//! would) through the incremental [`hft_ingest::Applier`], publishing
//! each batch, and reports events/second.
//!
//! Phase B seeds a [`hft_ingest::SnapshotStore`] with the first half of
//! the history, serves it through a [`LiveService`], and ingests the
//! remaining batches on a paced background thread while client threads
//! hammer the server. Each answer is *generation-bracketed*: the client
//! snapshots the store generation before sending and after receiving.
//! When the brackets agree the answer is attributable to exactly one
//! corpus generation and must byte-match a reference service over that
//! generation's snapshot — a wrong answer is a hard failure. When a
//! publish lands mid-flight the answer is counted `unpinned` (either
//! generation would be a correct answer; the bracket just can't tell
//! which one was used).

use hft_bench::REPRO_SEED;
use hft_corridor::{chicago_nj, generate};
use hft_ingest::{decode_batch, render_history, Applier, SnapshotStore};
use hft_obs::HistogramShard;
use hft_serve::api::{Request, Response};
use hft_serve::{Client, LiveService, ServeConfig, Server, Service};
use hft_time::Date;
use hft_uls::UlsDatabase;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Args {
    seconds: f64,
    concurrency: usize,
    publish_every: usize,
    seed: u64,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        seconds: 3.0,
        concurrency: 8,
        publish_every: 4,
        seed: REPRO_SEED,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
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
            "--publish-every" => {
                parsed.publish_every = need("--publish-every")?
                    .parse()
                    .map_err(|_| "bad --publish-every".to_string())?
            }
            "--seed" => {
                parsed.seed = need("--seed")?
                    .parse()
                    .map_err(|_| "bad --seed".to_string())?
            }
            "--out" => parsed.out = Some(need("--out")?),
            other => {
                return Err(format!(
                    "unknown argument {other:?}\nusage: ingestload [--seconds S] \
                     [--concurrency N] [--publish-every N] [--seed N] [--out PATH]"
                ))
            }
        }
    }
    if parsed.concurrency == 0 || parsed.publish_every == 0 {
        return Err("--concurrency and --publish-every must be positive".into());
    }
    Ok(parsed)
}

/// The phase-B query mix: session-cached analysis over the modeled
/// networks plus index-backed searches — every request answerable (if
/// only emptily) at every corpus generation.
fn workload(licensees: &[String]) -> Vec<Request> {
    let d2020 = Date::new(2020, 4, 1).unwrap();
    let d2016 = Date::new(2016, 6, 1).unwrap();
    let mut mix = Vec::new();
    for name in licensees {
        for date in [d2020, d2016] {
            mix.push(Request::Network {
                licensee: name.clone(),
                date,
            });
        }
        mix.push(Request::Route {
            licensee: name.clone(),
            date: d2020,
            from: "CME".into(),
            to: "NY4".into(),
        });
    }
    for i in 0..4 {
        mix.push(Request::Geographic {
            lat_deg: 41.7625 + 0.02 * i as f64,
            lon_deg: -88.1712 + 0.5 * i as f64,
            radius_km: 10.0,
        });
    }
    mix.push(Request::SiteSearch {
        service: "MG".into(),
        class: "FXO".into(),
    });
    mix
}

/// Lazily built per-generation reference engines. Each holds the
/// generation's corpus `Arc` (kept alive by the map) and its own
/// session caches, so repeated verification of the same request against
/// the same generation costs one computation total.
struct ReferenceBook {
    engines: Mutex<HashMap<u64, Arc<Service<'static>>>>,
}

impl ReferenceBook {
    fn new() -> ReferenceBook {
        ReferenceBook {
            engines: Mutex::new(HashMap::new()),
        }
    }

    fn engine(&self, generation: u64, db: Arc<UlsDatabase>) -> Arc<Service<'static>> {
        let mut engines = self.engines.lock().expect("reference book");
        Arc::clone(engines.entry(generation).or_insert_with(|| {
            Arc::new(Service::over_snapshot(
                db,
                generation,
                Arc::new(hft_serve::ServeStats::default()),
            ))
        }))
    }
}

#[derive(Default)]
struct ClientOutcome {
    completed: u64,
    verified: u64,
    unpinned: u64,
    wrong: u64,
    overloaded_retries: u64,
    first_mismatch: Option<String>,
    /// Per-client latency shard (ns), merged losslessly at the end.
    latencies: HistogramShard,
}

/// One serial client: round-trip requests until `done`, bracketing each
/// answer between store generations and verifying pinned answers.
fn drive(
    addr: &SocketAddr,
    store: &SnapshotStore,
    book: &ReferenceBook,
    mix: &[Request],
    offset: usize,
    done: &AtomicBool,
) -> Result<ClientOutcome, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut outcome = ClientOutcome::default();
    let mut next = offset % mix.len();
    while !done.load(Ordering::Relaxed) {
        let request = &mix[next];
        next = (next + 1) % mix.len();
        let snap = store.current();
        let sent = Instant::now();
        let response = client
            .call(request)
            .map_err(|e| format!("ingestload IO: {e}"))?;
        if response == Response::Overloaded {
            outcome.overloaded_retries += 1;
            continue;
        }
        outcome.latencies.record(sent.elapsed().as_nanos() as u64);
        outcome.completed += 1;
        if store.generation() != snap.generation() {
            // A publish landed mid-flight: the answer came from one of
            // the bracketing generations, but we cannot tell which.
            outcome.unpinned += 1;
            continue;
        }
        let reference = book.engine(snap.generation(), snap.db_arc());
        let want = reference.handle(request).encode();
        let got = response.encode();
        if got == want {
            outcome.verified += 1;
        } else {
            outcome.wrong += 1;
            if outcome.first_mismatch.is_none() {
                outcome.first_mismatch = Some(format!(
                    "generation {} request {:?}\n  want {}\n  got  {}",
                    snap.generation(),
                    request,
                    String::from_utf8_lossy(&want),
                    String::from_utf8_lossy(&got),
                ));
            }
        }
    }
    Ok(outcome)
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
    // The dump-visible corpus: what the flat-file dialect can carry.
    let published = hft_uls::flatfile::decode(&hft_uls::flatfile::encode(eco.db.licenses()))
        .map_err(|e| format!("corpus round trip: {e}"))?;
    let published_db = UlsDatabase::from_licenses(published);
    let batches = render_history(published_db.licenses());
    let texts: Vec<String> = batches.iter().map(hft_ingest::encode_batch).collect();
    eprintln!(
        "history: {} daily batches over {}..{}",
        batches.len(),
        batches.first().map(|b| b.date.to_iso()).unwrap_or_default(),
        batches.last().map(|b| b.date.to_iso()).unwrap_or_default(),
    );

    // ---- Phase A: pure ingest throughput (decode + apply + publish).
    let store_a = SnapshotStore::new(UlsDatabase::new());
    let mut applier = Applier::new(UlsDatabase::new());
    let started = Instant::now();
    for (text, batch) in texts.iter().zip(&batches) {
        let (decoded, report) = decode_batch(text).map_err(|e| format!("decode: {e}"))?;
        if !report.is_clean() {
            return Err(format!("{} quarantined records", report.count()));
        }
        let conflicts = applier.apply(&decoded);
        if !conflicts.is_empty() {
            return Err(format!("ingest conflict: {}", conflicts[0]));
        }
        debug_assert_eq!(decoded.date, batch.date);
        applier.publish(&store_a);
    }
    let ingest_s = started.elapsed().as_secs_f64();
    let stats = applier.stats();
    applier.verify()?;
    // The replayed corpus is grant-date-ordered; compare license *sets*.
    let by_id = |licenses: &[hft_uls::License]| {
        let mut sorted = licenses.to_vec();
        sorted.sort_by_key(|l| l.id);
        sorted
    };
    if by_id(applier.db().licenses()) != by_id(published_db.licenses()) {
        return Err("replayed corpus differs from the published corpus".into());
    }
    let events_per_sec = stats.events() as f64 / ingest_s.max(1e-9);
    eprintln!(
        "ingest: {} events in {} batches in {:.3}s = {:.0} events/s",
        stats.events(),
        stats.batches,
        ingest_s,
        events_per_sec,
    );

    // ---- Phase B: serve under concurrent ingest.
    let mut licensees = eco.connected_2020.clone();
    licensees.sort();
    let mix = workload(&licensees);
    let half = batches.len() / 2;
    let mut applier = Applier::new(UlsDatabase::new());
    for batch in &batches[..half] {
        applier.apply(batch);
    }
    let store = Arc::new(SnapshotStore::new(UlsDatabase::new()));
    applier.publish(&store);
    let book = ReferenceBook::new();
    let done = AtomicBool::new(false);
    let pace = Duration::from_secs_f64(args.seconds / (batches.len() - half).max(1) as f64);

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: args.concurrency.clamp(4, 64),
        queue_depth: (args.concurrency * 4).max(64),
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "serving generation {} on {addr}; ingesting {} batches behind it...",
        store.generation(),
        batches.len() - half,
    );

    let served = Instant::now();
    let live = LiveService::new(Arc::clone(&store));
    let (outcomes, serve_stats) = std::thread::scope(|scope| {
        let server_handle = scope.spawn(|| server.run_with(&live));
        let ingester = scope.spawn(|| {
            for (i, batch) in batches[half..].iter().enumerate() {
                let conflicts = applier.apply(batch);
                assert!(conflicts.is_empty(), "ingest conflict: {}", conflicts[0]);
                if (i + 1) % args.publish_every == 0 {
                    applier.publish(&store);
                }
                std::thread::sleep(pace);
            }
            applier.publish(&store);
            done.store(true, Ordering::Relaxed);
        });
        let clients: Vec<_> = (0..args.concurrency)
            .map(|i| {
                let store = &store;
                let book = &book;
                let mix = &mix;
                let done = &done;
                scope.spawn(move || drive(&addr, store, book, mix, i * 7, done))
            })
            .collect();
        let outcomes: Vec<Result<ClientOutcome, String>> =
            clients.into_iter().map(|h| h.join().unwrap()).collect();
        ingester.join().unwrap();
        let mut c = Client::connect(&addr).map_err(|e| e.to_string())?;
        let ack = c.call(&Request::Shutdown).map_err(|e| e.to_string())?;
        if ack != Response::ShuttingDown {
            return Err(format!("shutdown not acknowledged: {ack:?}"));
        }
        let serve_stats = server_handle
            .join()
            .expect("server thread")
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((outcomes, serve_stats))
    })?;
    let serve_s = served.elapsed().as_secs_f64();

    let mut total = ClientOutcome::default();
    for outcome in outcomes {
        let outcome = outcome?;
        total.completed += outcome.completed;
        total.verified += outcome.verified;
        total.unpinned += outcome.unpinned;
        total.wrong += outcome.wrong;
        total.overloaded_retries += outcome.overloaded_retries;
        if total.first_mismatch.is_none() {
            total.first_mismatch = outcome.first_mismatch;
        }
        total.latencies.merge(&outcome.latencies);
    }
    let latencies = total.latencies.snapshot();
    let pct_ms = |q: f64| latencies.percentile(q) as f64 / 1e6;
    let p50 = pct_ms(0.50);
    let p90 = pct_ms(0.90);
    let p99 = pct_ms(0.99);
    let p999 = pct_ms(0.999);
    let rps = total.completed as f64 / serve_s.max(1e-9);
    let generations = store.generation();

    println!(
        "ingest:  {:>7} events  {:>9.0} events/s  ({} batches, {} conflicts)",
        stats.events(),
        events_per_sec,
        stats.batches,
        stats.conflicts,
    );
    println!(
        "serve:   {:>7} requests {:>9.0} rps  p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  \
         p999 {:.3} ms  ({} generations, {} swaps observed)",
        total.completed, rps, p50, p90, p99, p999, generations, serve_stats.generation_swaps,
    );
    println!(
        "answers: {} generation-verified, {} unpinned, {} wrong, {} overloaded retries",
        total.verified, total.unpinned, total.wrong, total.overloaded_retries,
    );

    let json = format!(
        "{{\n\
         \"ingest\": {{\"batches\": {}, \"events\": {}, \"conflicts\": {}, \"seconds\": {}, \
         \"events_per_sec\": {}}},\n\
         \"serve_under_ingest\": {{\"concurrency\": {}, \"publish_every\": {}, \"seconds\": {}, \
         \"requests\": {}, \"rps\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \
         \"p999_ms\": {}, \
         \"generations\": {}, \"generation_swaps\": {}, \"verified\": {}, \"unpinned\": {}, \
         \"wrong_answers\": {}, \"overloaded_retries\": {}}},\n\
         \"seed\": {}\n}}\n",
        stats.batches,
        stats.events(),
        stats.conflicts,
        fmt(ingest_s),
        fmt(events_per_sec),
        args.concurrency,
        args.publish_every,
        fmt(serve_s),
        total.completed,
        fmt(rps),
        fmt(p50),
        fmt(p90),
        fmt(p99),
        fmt(p999),
        generations,
        serve_stats.generation_swaps,
        total.verified,
        total.unpinned,
        total.wrong,
        total.overloaded_retries,
        args.seed,
    );
    let path = args
        .out
        .unwrap_or_else(|| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json").into());
    std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");

    if total.wrong > 0 {
        return Err(format!(
            "generation-pinned byte mismatch:\n{}",
            total.first_mismatch.unwrap_or_default()
        ));
    }
    if total.verified == 0 {
        return Err("no answer was ever generation-pinned — bracketing is broken".into());
    }
    Ok(())
}
