//! `fleetload` — the ingest and shard-router fleet bench: measure
//! dump-replay ingest throughput, then serve a sharded corpus behind a
//! [`hft_serve::ShardRouter`] while the corpus history ingests
//! underneath it, byte-verifying every scatter-gathered answer against
//! a direct single-corpus [`hft_serve::Service`] over the same
//! generation. Writes `BENCH_fleet.json` at the workspace root.
//!
//! ```text
//! cargo run --release -p hft-bench --bin fleetload
//! cargo run --release -p hft-bench --bin fleetload -- --shards 4 --seconds 1
//! ```
//!
//! The ingest step replays the corpus's full 2013–2020 event history,
//! rendered as daily transaction dumps and decoded from text as a
//! follower would, through the incremental [`Applier`], publishing each
//! batch to a one-shard fleet through [`Applier::publish_sharded`], the
//! publish path of `hftnetview serve --follow`. It reports events per
//! second, and fails on a quarantined record, a conflict, an
//! incremental corpus that [`Applier::verify`] rejects, or a replayed
//! license set that differs from the published corpus.
//!
//! For each fleet size N the harness then seeds an [`Applier`] with the
//! first half of the rendered dump history, partitions the corpus into
//! an N-shard [`ShardedStore`], and serves it over a
//! [`hft_serve::ShardRouter`] through [`load::serve_under_ingest`]. A publisher thread replays the
//! remaining batches, republishing the fleet (every shard, in lockstep)
//! every few batches, while client threads hammer the server with a
//! mixed point-to-point + scatter-gather workload.
//!
//! Correctness is the headline number, latency second: each answer is
//! *generation-vector bracketed* — the client reads every shard's
//! generation before sending and after receiving. When both vectors are
//! uniform and equal, the answer is attributable to exactly one
//! full-corpus generation and must byte-match a reference service over
//! that generation's unsharded corpus; a mismatch is a hard failure.
//! When a fleet publish lands mid-flight (mixed or advanced vector) the
//! answer counts as `unpinned`.
//!
//! Latencies are attributed client-side: a licensee-bearing request
//! lands in its owning shard's bucket (the hash of its name),
//! scatter-gather requests land in a final `broadcast` bucket, and the
//! report breaks out p50/p90/p99 per bucket next to the merged
//! percentiles.

use hft_bench::load::{self, Flags, IngestPlan, Json};
use hft_bench::{obj, REPRO_SEED};
use hft_ingest::{decode_batch, encode_batch, Applier, DumpBatch, ShardedStore};
use hft_serve::api::Request;
use hft_time::Date;
use hft_uls::shard::{shard_of_licensee, ShardStrategy};
use hft_uls::{License, UlsDatabase};
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: fleetload [--shards N,N,...] [--seconds S] [--concurrency N] \
                     [--publish-every N] [--seed N] [--out PATH]";

struct Args {
    shards: Vec<usize>,
    seconds: f64,
    concurrency: usize,
    publish_every: usize,
    seed: u64,
    out: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let flags = Flags::parse(USAGE)?;
        let args = Args {
            shards: flags.parse_or("--shards", vec![1, 4, 8], |v| {
                v.split(',').map(|s| s.trim().parse().ok()).collect()
            })?,
            seconds: flags.get("--seconds", 2.0)?,
            concurrency: flags.get("--concurrency", 8)?,
            publish_every: flags.get("--publish-every", 4)?,
            seed: flags.get("--seed", REPRO_SEED)?,
            out: flags.string("--out"),
        };
        if args.shards.is_empty() || args.shards.contains(&0) {
            return Err("--shards must list positive fleet sizes".into());
        }
        if args.concurrency == 0 || args.publish_every == 0 {
            return Err("--concurrency and --publish-every must be positive".into());
        }
        Ok(args)
    }
}

/// The query mix: point-to-point analysis per licensee plus
/// scatter-gather geographic/site/funnel queries — every request
/// answerable (if only emptily) at every corpus generation.
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
    mix.push(Request::Shortlist {
        lat_deg: 41.7625,
        lon_deg: -88.1712,
        radius_km: 500.0,
        min_filings: 2,
    });
    mix
}

/// Replay the whole history into an empty corpus, decoding each batch
/// from its dump text, applying it and publishing it to a one-shard
/// fleet; check the result against `published`, print the throughput
/// and return the report's `ingest` section.
fn ingest(published: &UlsDatabase, batches: &[DumpBatch]) -> Result<Json, String> {
    let texts: Vec<String> = batches.iter().map(encode_batch).collect();
    let empty = Arc::new(UlsDatabase::new());
    let fleet = ShardedStore::seeded(&empty, 1, ShardStrategy::LicenseeHash, None);
    let mut applier = Applier::new(UlsDatabase::new());
    let started = Instant::now();
    for text in &texts {
        let (batch, report) = decode_batch(text).map_err(|e| format!("decode: {e}"))?;
        if !report.is_clean() {
            return Err(format!("{} quarantined records", report.count()));
        }
        if let Some(conflict) = applier.apply(&batch).first() {
            return Err(format!("ingest conflict: {conflict}"));
        }
        applier.publish_sharded(&fleet);
    }
    let seconds = started.elapsed().as_secs_f64();
    applier.verify()?;
    // The replayed corpus is grant-date-ordered; compare license sets.
    let by_id = |licenses: &[License]| {
        let mut sorted = licenses.to_vec();
        sorted.sort_by_key(|l| l.id);
        sorted
    };
    if by_id(applier.db().licenses()) != by_id(published.licenses()) {
        return Err("replayed corpus differs from the published corpus".into());
    }
    let stats = applier.stats();
    let events_per_sec = stats.events() as f64 / seconds.max(1e-9);
    println!(
        "ingest:  {:>7} events  {events_per_sec:>9.0} events/s  ({} batches, {} conflicts, \
         {seconds:.3} s)",
        stats.events(),
        stats.batches,
        stats.conflicts,
    );
    Ok(obj! {
        "batches": stats.batches,
        "events": stats.events(),
        "conflicts": stats.conflicts,
        "seconds": seconds,
        "events_per_sec": events_per_sec,
    })
}

/// Serve one fleet size under concurrent ingest, print its summary and
/// return its report entry.
fn run_fleet(
    args: &Args,
    shards: usize,
    batches: &[DumpBatch],
    mix: &[Request],
) -> Result<Json, String> {
    let plan = IngestPlan {
        batches,
        mix,
        seconds: args.seconds,
        concurrency: args.concurrency,
        publish_every: args.publish_every,
    };
    eprint!("fleet n={shards}: ");
    let open = |applier: &Applier| {
        ShardedStore::seeded(
            &applier.db_arc(),
            shards,
            ShardStrategy::LicenseeHash,
            applier.last_date(),
        )
    };
    let run = load::serve_under_ingest(&plan, open, Applier::publish_sharded)?;
    let t = &run.tally;
    if t.wrong > 0 {
        return Err(format!(
            "fleet n={shards}: scatter-gathered bytes diverge from the \
             single-corpus reference:\n{}",
            t.first_mismatch.clone().unwrap_or_default()
        ));
    }
    if t.verified == 0 {
        return Err(format!(
            "fleet n={shards}: no answer was ever generation-pinned — bracketing is broken"
        ));
    }

    let (p50, p90, p99) = (
        t.percentile_ms(0.50),
        t.percentile_ms(0.90),
        t.percentile_ms(0.99),
    );
    let swaps = run.stats.generation_swaps;
    println!(
        "fleet n={shards:<2} {:>7} requests {:>9.0} rps  p50 {p50:.3} ms  p90 {p90:.3} ms  \
         p99 {p99:.3} ms  ({} generations, {swaps} swaps)",
        t.completed,
        t.rps(),
        run.generations,
    );
    let per_shard: Vec<Json> = t
        .by_bucket
        .iter()
        .enumerate()
        .map(|(b, shard)| {
            let snap = shard.snapshot();
            let label = load::bucket_label(b, shards);
            let (p50, p90, p99) = (
                load::ms(&snap, 0.50),
                load::ms(&snap, 0.90),
                load::ms(&snap, 0.99),
            );
            if snap.count > 0 {
                println!(
                    "  {label:<10} {:>7} requests  p50 {p50:.3} ms  p90 {p90:.3} ms  \
                     p99 {p99:.3} ms",
                    snap.count
                );
            }
            obj! {"bucket": label, "count": snap.count, "p50_ms": p50, "p90_ms": p90, "p99_ms": p99}
        })
        .collect();
    println!(
        "  answers: {} vector-verified, {} unpinned, {} wrong, {} overloaded retries",
        t.verified, t.unpinned, t.wrong, t.overloaded_retries,
    );
    if !run.traces.is_empty() {
        println!("  slowest captured traces:");
        for trace in &run.traces {
            print!("{}", trace.render());
        }
    }
    Ok(obj! {
        "shards": shards,
        "seconds": t.elapsed_s,
        "requests": t.completed,
        "rps": t.rps(),
        "p50_ms": p50,
        "p90_ms": p90,
        "p99_ms": p99,
        "generations": run.generations,
        "generation_swaps": swaps,
        "verified": t.verified,
        "unpinned": t.unpinned,
        "wrong_answers": t.wrong,
        "overloaded_retries": t.overloaded_retries,
        "per_shard": per_shard,
    })
}

fn main() -> std::process::ExitCode {
    load::exit(run())
}

fn run() -> Result<(), String> {
    let args = Args::parse()?;
    let eco = load::corpus(args.seed);
    let (published, batches) = load::history(&eco)?;
    let ingested = ingest(&published, &batches)?;
    let mut licensees = eco.connected_2020.clone();
    // The connected-2020 mix alone can leave shards idle: with 8 shards
    // the paper's nine licensees hash onto only six residues, so two
    // shard workers never see a request and their per-shard percentiles
    // are vacuous. Widen the mix from the full corpus so every shard of
    // every benched fleet size owns at least one mix licensee.
    for &n in &args.shards {
        let mut covered = vec![false; n];
        for name in &licensees {
            covered[shard_of_licensee(name, n) as usize] = true;
        }
        for name in published.licensees() {
            let k = shard_of_licensee(name, n) as usize;
            if !covered[k] {
                covered[k] = true;
                licensees.push(name.to_string());
            }
        }
    }
    licensees.sort();
    licensees.dedup();
    let mix = workload(&licensees);

    let runs = args
        .shards
        .iter()
        .map(|&n| run_fleet(&args, n, &batches, &mix))
        .collect::<Result<Vec<_>, _>>()?;
    let report = obj! {
        "concurrency": args.concurrency,
        "publish_every": args.publish_every,
        "seed": args.seed,
        "ingest": ingested,
        "runs": runs,
    };
    load::write_report("fleet", args.out.as_deref(), report)
}
