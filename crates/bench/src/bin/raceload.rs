//! `raceload` — the latency-race acceptance harness: serve a sharded
//! corpus behind a [`hft_serve::ShardRouter`] fleet and hammer it with
//! repeated [`Request::Race`] / [`Request::StretchSweep`] queries over
//! *both* wire protocols, byte-verifying every answer against a direct
//! single-corpus [`hft_serve::Service`] over the same corpus. Writes
//! `BENCH_race.json` at the workspace root.
//!
//! ```text
//! cargo run --release -p hft-bench --bin raceload
//! cargo run --release -p hft-bench --bin raceload -- --seconds 1 --shards 3
//! ```
//!
//! The workload is deliberately repetitive: a handful of distinct
//! (licensee, pair, samples, seed) races asked over and over, which is
//! the race engine's design point — the §5 weather Monte Carlo runs
//! once per distinct key and every repeat is a cache hit. The harness
//! snapshots the `race.mc_cache{outcome=...}` counters around the
//! serving window and fails unless the hit rate clears 80%, alongside
//! the hard failure on any byte mismatch. Latency percentiles are
//! reported per protocol so the JSON-vs-binary codec gap on the
//! race-heavy mix is measured in the same run.

use hft_bench::load::{self, Flags};
use hft_bench::{obj, REPRO_SEED};
use hft_ingest::ShardedStore;
use hft_serve::api::{Request, Response};
use hft_serve::{Proto, ServeConfig, Service, ShardRouter};
use hft_time::Date;
use hft_uls::shard::ShardStrategy;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: raceload [--seconds S] [--shards N] [--seed N] [--out PATH]";

/// The race mix: every licensee races every corridor pair with the same
/// (samples, seed), so the distinct Monte-Carlo population is small and
/// the serving window is dominated by cache hits. One stretch sweep per
/// licensee rides along to exercise the multi-pair panorama path.
fn workload(licensees: &[String]) -> Vec<Request> {
    let d2020 = Date::new(2020, 4, 1).unwrap();
    let pairs = [("CME", "NY4"), ("CME", "NYSE"), ("CME", "NASDAQ")];
    let mut distinct = Vec::new();
    for name in licensees {
        for (from, to) in pairs {
            distinct.push(Request::Race {
                licensee: name.clone(),
                date: d2020,
                from: from.into(),
                to: to.into(),
                constellation: "starlink".into(),
                samples: 20_000,
                seed: 7,
            });
        }
        distinct.push(Request::StretchSweep {
            licensee: name.clone(),
            date: d2020,
            constellation: "starlink".into(),
        });
    }
    // Repeat the distinct population so even a short serving window is
    // repeats-heavy; the timed loops then cycle the mix indefinitely.
    let mut mix = Vec::new();
    for i in 0..distinct.len() * 4 {
        mix.push(distinct[i % distinct.len()].clone());
    }
    mix
}

fn main() -> std::process::ExitCode {
    load::exit(run())
}

fn run() -> Result<(), String> {
    let flags = Flags::parse(USAGE)?;
    let seconds = flags.get("--seconds", 2.0)?;
    let shards = flags.get("--shards", 2)?;
    let seed = flags.get("--seed", REPRO_SEED)?;
    if shards == 0 {
        return Err("--shards must be positive".into());
    }
    let eco = load::corpus(seed);
    let mut licensees = eco.connected_2020.clone();
    let db = Arc::new(eco.db);
    licensees.sort();
    licensees.truncate(3);
    if licensees.is_empty() {
        return Err("corpus has no connected 2020 licensees".into());
    }
    let mix = workload(&licensees);
    let distinct = &mix[..mix.len() / 4];

    // Ground truth: the same requests answered by a direct in-process
    // single-corpus service. Computing these warms the *reference*
    // engine's caches; the fleet's counters are measured from a snapshot
    // taken afterwards so the reference run never inflates the hit rate.
    eprintln!("computing {} expected answers locally...", mix.len());
    let reference = Service::new(&db);
    let expected: Vec<Vec<u8>> = mix.iter().map(|r| reference.handle(r).encode()).collect();

    let fleet = ShardedStore::seeded(&db, shards, ShardStrategy::LicenseeHash, None);
    let config = ServeConfig {
        workers: 8,
        queue_depth: 64,
        ..ServeConfig::default()
    };
    let hit_name = hft_obs::registry::labeled("race.mc_cache", "outcome", "hit");
    let miss_name = hft_obs::registry::labeled("race.mc_cache", "outcome", "miss");
    let before = hft_obs::global().snapshot();
    let served = load::self_host(config, &ShardRouter::over(&fleet), &[], |addr| {
        eprintln!(
            "fleet n={shards} (licensee-hash): serving {} distinct race queries on {addr}...",
            distinct.len(),
        );
        // Warm pass: every distinct request once, so the timed windows
        // measure the cached steady state on a warm fleet.
        let mut warm = load::connect(&addr, Proto::Json)?;
        for request in distinct {
            while warm.call(request).map_err(|e| format!("warmup: {e}"))? == Response::Overloaded {}
        }
        // One serial client per protocol, byte-comparing every decoded
        // answer (re-encoded with the canonical JSON codec) against the
        // in-process reference, so a wrong answer cannot hide behind the
        // binary codec.
        let mut reports = Vec::new();
        for proto in [Proto::Json, Proto::Binary] {
            eprintln!("[{}] racing for {seconds:.1}s...", proto.name());
            let mut client = load::connect(&addr, proto)?;
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let tally = load::drive(&mut client, &mix, &expected, &[], 0, 1, deadline)?;
            reports.push((proto, tally));
        }
        Ok(reports)
    })?;
    let reports = served.body;
    let delta = hft_obs::registry::delta(&before, &hft_obs::global().snapshot());
    let (hits, misses) = (delta.counter(&hit_name), delta.counter(&miss_name));
    let mc_total = hits + misses;
    let hit_rate = if mc_total > 0 {
        hits as f64 / mc_total as f64
    } else {
        0.0
    };

    for (proto, r) in &reports {
        println!(
            "{:<4} {:>8} requests  {:>9.0} rps  p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  \
             max {:.3} ms  ({} overloaded retries, {} wrong)",
            proto.name(),
            r.completed,
            r.rps(),
            r.percentile_ms(0.50),
            r.percentile_ms(0.90),
            r.percentile_ms(0.99),
            r.max_ms(),
            r.overloaded_retries,
            r.wrong,
        );
    }
    println!(
        "mc cache: {hits} hits / {misses} misses = {:.1}% hit rate",
        hit_rate * 100.0
    );

    let runs: Vec<_> = reports
        .iter()
        .map(|(proto, r)| {
            obj! {
                "proto": proto.name(),
                "requests": r.completed,
                "seconds": r.elapsed_s,
                "rps": r.rps(),
                "p50_ms": r.percentile_ms(0.50),
                "p90_ms": r.percentile_ms(0.90),
                "p99_ms": r.percentile_ms(0.99),
                "max_ms": r.max_ms(),
                "overloaded_retries": r.overloaded_retries,
                "wrong_answers": r.wrong,
            }
        })
        .collect();
    let report = obj! {
        "workload": obj! {
            "distinct_requests": distinct.len(),
            "pairs": 3usize,
            "licensees": licensees.len(),
            "seed": seed,
        },
        "shards": shards,
        "runs": runs,
        "mc_cache": obj! {"hits": hits, "misses": misses, "hit_rate": hit_rate},
    };
    load::write_report("race", flags.string("--out").as_deref(), report)?;

    if let Some(detail) = reports.iter().find_map(|(_, r)| r.first_mismatch.clone()) {
        return Err(format!(
            "race answers through the shard router diverge from the single-corpus \
             reference:\n{detail}"
        ));
    }
    if reports.iter().any(|(_, r)| r.completed == 0) {
        return Err("a protocol phase completed zero requests".into());
    }
    if mc_total == 0 {
        return Err("no weather Monte Carlo ran — the corpus has no microwave routes?".into());
    }
    if hit_rate <= 0.80 {
        return Err(format!(
            "mc cache hit rate {:.1}% below the 80% acceptance floor on a repeats-heavy mix",
            hit_rate * 100.0
        ));
    }
    Ok(())
}
