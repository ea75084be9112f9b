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
//! Phase B seeds a one-shard [`ShardedStore`] with the first half of
//! the history, serves it through a [`hft_serve::ShardRouter`], and
//! ingests the remaining batches on a paced background thread while
//! client threads hammer the server ([`load::serve_under_ingest`]). Each
//! answer is *generation-bracketed*: the client reads the store
//! generation before sending and after receiving. When the brackets agree the answer is
//! attributable to exactly one corpus generation and must byte-match a
//! reference service over that generation's from-scratch rebuild — a
//! wrong answer is a hard failure, and a fault in the incrementally
//! maintained indexes shows as one. When a publish lands mid-flight the
//! answer is counted `unpinned` (either generation would be a correct
//! answer; the bracket just can't tell which one was used).

use hft_bench::load::{self, Flags, IngestPlan};
use hft_bench::{obj, REPRO_SEED};
use hft_ingest::{decode_batch, Applier, ShardedStore, SnapshotStore};
use hft_serve::api::Request;
use hft_time::Date;
use hft_uls::shard::ShardStrategy;
use hft_uls::UlsDatabase;
use std::time::Instant;

const USAGE: &str = "usage: ingestload [--seconds S] [--concurrency N] [--publish-every N] \
                     [--seed N] [--out PATH]";

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

fn main() -> std::process::ExitCode {
    load::exit(run())
}

fn run() -> Result<(), String> {
    let flags = Flags::parse(USAGE)?;
    let seconds = flags.get("--seconds", 3.0)?;
    let concurrency = flags.get("--concurrency", 8)?;
    let publish_every = flags.get("--publish-every", 4)?;
    let seed = flags.get("--seed", REPRO_SEED)?;
    if concurrency == 0 || publish_every == 0 {
        return Err("--concurrency and --publish-every must be positive".into());
    }
    let eco = load::corpus(seed);
    let (published, batches) = load::history(&eco)?;
    let texts: Vec<String> = batches.iter().map(hft_ingest::encode_batch).collect();

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
    if by_id(applier.db().licenses()) != by_id(published.licenses()) {
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
    let plan = IngestPlan {
        batches: &batches,
        mix: &mix,
        seconds,
        concurrency,
        publish_every,
    };
    let open = |applier: &Applier| {
        ShardedStore::seeded(
            applier.db(),
            1,
            ShardStrategy::LicenseeHash,
            applier.last_date(),
        )
    };
    let run = load::serve_under_ingest(&plan, open, Applier::publish_sharded)?;
    let t = &run.tally;
    let swaps = run.stats.generation_swaps;

    println!(
        "ingest:  {:>7} events  {:>9.0} events/s  ({} batches, {} conflicts)",
        stats.events(),
        events_per_sec,
        stats.batches,
        stats.conflicts,
    );
    println!(
        "serve:   {:>7} requests {:>9.0} rps  p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  \
         p999 {:.3} ms  ({} generations, {swaps} swaps observed)",
        t.completed,
        t.rps(),
        t.percentile_ms(0.50),
        t.percentile_ms(0.90),
        t.percentile_ms(0.99),
        t.percentile_ms(0.999),
        run.generations,
    );
    println!(
        "answers: {} generation-verified, {} unpinned, {} wrong, {} overloaded retries",
        t.verified, t.unpinned, t.wrong, t.overloaded_retries,
    );

    let report = obj! {
        "ingest": obj! {
            "batches": stats.batches,
            "events": stats.events(),
            "conflicts": stats.conflicts,
            "seconds": ingest_s,
            "events_per_sec": events_per_sec,
        },
        "serve_under_ingest": obj! {
            "concurrency": concurrency,
            "publish_every": publish_every,
            "seconds": t.elapsed_s,
            "requests": t.completed,
            "rps": t.rps(),
            "p50_ms": t.percentile_ms(0.50),
            "p90_ms": t.percentile_ms(0.90),
            "p99_ms": t.percentile_ms(0.99),
            "p999_ms": t.percentile_ms(0.999),
            "generations": run.generations,
            "generation_swaps": swaps,
            "verified": t.verified,
            "unpinned": t.unpinned,
            "wrong_answers": t.wrong,
            "overloaded_retries": t.overloaded_retries,
        },
        "seed": seed,
    };
    load::write_report("ingest", flags.string("--out").as_deref(), report)?;

    if t.wrong > 0 {
        return Err(format!(
            "generation-pinned byte mismatch:\n{}",
            t.first_mismatch.clone().unwrap_or_default()
        ));
    }
    if t.verified == 0 {
        return Err("no answer was ever generation-pinned — bracketing is broken".into());
    }
    Ok(())
}
