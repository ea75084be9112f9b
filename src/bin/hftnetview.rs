//! The `hftnetview` command-line tool: regenerate any table or figure of
//! the paper from the (simulated) ULS corpus, export datasets, and dump
//! reconstructed networks.
//!
//! ```text
//! hftnetview <command> [--seed N] [--out DIR]
//!
//! commands:
//!   funnel      §2.2 scrape-pipeline counts (57 → 29)
//!   table1      connected networks, latency/APA/towers
//!   table2      top-3 networks per corridor path
//!   table3      APA: New Line Networks vs Webline Holdings
//!   fig1        latency evolution 2013–2020 (SVG + CSV)
//!   fig2        active licenses over time (SVG + CSV)
//!   fig3        NLN network maps 2016 vs 2020 (GeoJSON + SVG)
//!   fig4a       link-length CDFs (SVG + CSV)
//!   fig4b       frequency CDFs (SVG + CSV)
//!   fig5        LEO vs microwave vs fiber comparison
//!   weather     §5 conditional-latency Monte Carlo
//!   race        cross-substrate latency race + stretch-CDF figure
//!   entity      complementary-link entity-resolution scan (§6)
//!   overhead    per-tower overhead crossover analysis (§3)
//!   export      dump the license corpus as a ULS-style flat file
//!   yaml NAME   dump one licensee's 2020-04-01 network as YAML
//!   serve       run the concurrent query service over TCP
//!   trace       pull captured traces from a running server
//!               (--connect HOST:PORT [--id HEX] [--limit N])
//!   ingest      replay the corpus's 2013–2020 event history as daily
//!               transaction dumps with yearly checkpoint verification
//!   metrics     run a representative query mix and dump the telemetry
//!               registry (JSON, or Prometheus text with --prom)
//!   all         everything above (except serve/ingest/metrics),
//!               written to --out
//! ```
//!
//! `serve` takes `--port` (default 4710; 0 picks a free port),
//! `--workers` and `--queue-depth`, answers the hft-serve wire protocol
//! (with `--http PORT`, also the hft-http corpus explorer and live
//! dashboards on a second listener sharing the same evented loop)
//! until a `shutdown` request arrives, then dumps the serving counters
//! as JSON on stdout. Every server is a fleet: the corpus is partitioned
//! by licensee name across `--shards N` in-process shards (default 1)
//! behind the shard router, and answers are byte-identical to a single
//! corpus's. With `--follow DIR` it starts from an **empty** corpus
//! instead of the generated one and tails `DIR` for transaction dumps,
//! publishing a new corpus generation per ingested batch (to every
//! shard, in lockstep) while queries keep answering. With `--trace-sample N` one request in N is
//! head-sampled into the flight recorder (1 = every request; slow
//! requests are always captured); `trace --connect` pulls the recorded
//! waterfalls back out. With `--metrics-interval SECS` a background
//! thread dumps the full telemetry registry every interval — atomically
//! to `--metrics-out PATH`, or to stderr — and prints to stderr the
//! waterfall of every slow request the flight recorder captured since
//! the last dump. Any analysis command accepts `--stats` to print the
//! session's cache counters as JSON after the run.
//!
//! `ingest` renders the generated corpus's full event history as daily
//! dump files under `--out DIR/dumps`, replays them through the
//! incremental applier, and at every yearly checkpoint verifies the
//! incrementally maintained database against a from-scratch rebuild —
//! including byte-identical YAML network reconstructions against the
//! omniscient generated corpus.

use hftnetview::prelude::*;
use hftnetview::{report, weather};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    command: String,
    name: Option<String>,
    seed: u64,
    out: PathBuf,
    port: u16,
    workers: usize,
    queue_depth: usize,
    stats: bool,
    http: Option<u16>,
    follow: Option<PathBuf>,
    metrics_interval: Option<u64>,
    metrics_out: Option<PathBuf>,
    prom: bool,
    shards: usize,
    trace_sample: Option<u64>,
    connect: Option<String>,
    id: Option<u128>,
    limit: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().ok_or_else(usage)?;
    let mut parsed = Args {
        command,
        name: None,
        seed: 2020,
        out: PathBuf::from("out"),
        port: 4710,
        workers: 4,
        queue_depth: 64,
        stats: false,
        http: None,
        follow: None,
        metrics_interval: None,
        metrics_out: None,
        prom: false,
        shards: 1,
        trace_sample: None,
        connect: None,
        id: None,
        limit: 10,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--out" => {
                parsed.out = PathBuf::from(args.next().ok_or("--out needs a value")?);
            }
            "--port" => {
                let v = args.next().ok_or("--port needs a value")?;
                parsed.port = v.parse().map_err(|_| format!("bad port {v:?}"))?;
            }
            "--workers" => {
                let v = args.next().ok_or("--workers needs a value")?;
                parsed.workers = v.parse().map_err(|_| format!("bad worker count {v:?}"))?;
            }
            "--queue-depth" => {
                let v = args.next().ok_or("--queue-depth needs a value")?;
                parsed.queue_depth = v.parse().map_err(|_| format!("bad queue depth {v:?}"))?;
            }
            "--stats" => parsed.stats = true,
            "--http" => {
                let v = args.next().ok_or("--http needs a value")?;
                parsed.http = Some(v.parse().map_err(|_| format!("bad http port {v:?}"))?);
            }
            "--follow" => {
                parsed.follow = Some(PathBuf::from(args.next().ok_or("--follow needs a value")?));
            }
            "--metrics-interval" => {
                let v = args.next().ok_or("--metrics-interval needs a value")?;
                let secs: u64 = v.parse().map_err(|_| format!("bad interval {v:?}"))?;
                if secs == 0 {
                    return Err("--metrics-interval must be at least 1 second".into());
                }
                parsed.metrics_interval = Some(secs);
            }
            "--metrics-out" => {
                parsed.metrics_out = Some(PathBuf::from(
                    args.next().ok_or("--metrics-out needs a value")?,
                ));
            }
            "--prom" => parsed.prom = true,
            "--shards" => {
                let v = args.next().ok_or("--shards needs a value")?;
                parsed.shards = v.parse().map_err(|_| format!("bad shard count {v:?}"))?;
                if parsed.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--trace-sample" => {
                let v = args.next().ok_or("--trace-sample needs a value")?;
                parsed.trace_sample =
                    Some(v.parse().map_err(|_| format!("bad trace sample {v:?}"))?);
            }
            "--connect" => {
                parsed.connect = Some(args.next().ok_or("--connect needs HOST:PORT")?);
            }
            "--id" => {
                let v = args.next().ok_or("--id needs a hex trace id")?;
                parsed.id =
                    Some(hft_obs::parse_trace_id(&v).ok_or_else(|| format!("bad trace id {v:?}"))?);
            }
            "--limit" => {
                let v = args.next().ok_or("--limit needs a value")?;
                parsed.limit = v.parse().map_err(|_| format!("bad limit {v:?}"))?;
            }
            other if parsed.name.is_none() && !other.starts_with('-') => {
                parsed.name = Some(other.to_string());
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(parsed)
}

fn usage() -> String {
    "usage: hftnetview <funnel|table1|table2|table3|fig1|fig2|fig3|fig4a|fig4b|fig5|weather|race|entity|overhead|export|yaml NAME|serve|trace|ingest|metrics|all> [--seed N] [--out DIR] [--stats] [--port N] [--http PORT] [--workers N] [--queue-depth N] [--shards N] [--trace-sample N] [--follow DIR] [--metrics-interval SECS] [--metrics-out PATH] [--prom] [--connect HOST:PORT] [--id HEX] [--limit N]".to_string()
}

fn write(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(contents.as_bytes())?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let io_err = |e: std::io::Error| e.to_string();
    if args.command == "trace" {
        return run_trace(args);
    }
    if args.command == "serve" {
        if let Some(every) = args.trace_sample {
            hft_obs::set_trace_sample_every(every);
        }
        let server = hft_serve::Server::bind(hft_serve::ServeConfig {
            addr: format!("127.0.0.1:{}", args.port),
            workers: args.workers,
            queue_depth: args.queue_depth,
        })
        .map_err(io_err)?;
        let addr = server.local_addr().map_err(io_err)?;
        let dumper = args
            .metrics_interval
            .map(|secs| spawn_metrics_dumper(secs, args.metrics_out.clone()));
        let served = if let Some(dir) = &args.follow {
            eprintln!(
                "live-serving on {addr}, following {} ({} workers, queue depth {}, {} shard(s))",
                dir.display(),
                args.workers,
                args.queue_depth,
                args.shards,
            );
            serve_follow(&server, dir, args.shards, args.http)
        } else {
            // A one-shard fleet serves this very corpus; a larger one
            // holds its pieces, and the whole corpus is dropped here.
            let fleet = {
                let db = std::sync::Arc::new(generate(&chicago_nj(), args.seed).db);
                eprintln!(
                    "serving {} licenses on {addr} ({} workers, queue depth {}, {} shard(s))",
                    db.len(),
                    args.workers,
                    args.queue_depth,
                    args.shards,
                );
                let strategy = hft_uls::ShardStrategy::LicenseeHash;
                hft_ingest::ShardedStore::seeded(&db, args.shards, strategy, None)
            };
            run_serve(&server, &hft_serve::ShardRouter::over(&fleet), args.http)
        };
        if let Some((stop, handle)) = dumper {
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let _ = handle.join();
        }
        let stats = served.map_err(io_err)?;
        println!("{}", stats.to_json().encode());
        return Ok(());
    }
    let eco = generate(&chicago_nj(), args.seed);
    if args.command == "metrics" {
        return run_metrics(&eco, args.prom);
    }
    if args.command == "ingest" {
        return run_ingest(&eco, &args.out);
    }
    let analysis = report::Analysis::new(&eco);
    let out = &args.out;
    let run_one = |cmd: &str| -> Result<(), String> {
        match cmd {
            "funnel" => {
                print!("{}", report::funnel_render(&report::funnel(&analysis)));
            }
            "table1" => {
                let rows = report::table1(&analysis);
                let (text, csv) = report::table1_render(&rows);
                print!("{text}");
                write(&out.join("table1.csv"), &csv.to_csv()).map_err(io_err)?;
            }
            "table2" => {
                let t = report::table2(&analysis);
                let (text, csv) = report::table2_render(&t);
                print!("{text}");
                write(&out.join("table2.csv"), &csv.to_csv()).map_err(io_err)?;
            }
            "table3" => {
                let rows = report::table3(&analysis);
                let (text, csv) = report::table3_render(&rows);
                print!("{text}");
                write(&out.join("table3.csv"), &csv.to_csv()).map_err(io_err)?;
            }
            "fig1" => {
                let series = report::evolution(&analysis);
                let (svg, csv) = report::fig1_render(&series);
                write(&out.join("fig1.svg"), &svg).map_err(io_err)?;
                write(&out.join("fig1.csv"), &csv.to_csv()).map_err(io_err)?;
            }
            "fig2" => {
                let series = report::evolution(&analysis);
                let (svg, csv) = report::fig2_render(&series);
                write(&out.join("fig2.svg"), &svg).map_err(io_err)?;
                write(&out.join("fig2.csv"), &csv.to_csv()).map_err(io_err)?;
            }
            "fig3" => {
                let (gj16, gj20, svg16, svg20) = report::fig3(&analysis);
                write(&out.join("fig3_nln_2016.geojson"), &gj16).map_err(io_err)?;
                write(&out.join("fig3_nln_2020.geojson"), &gj20).map_err(io_err)?;
                write(&out.join("fig3_nln_2016.svg"), &svg16).map_err(io_err)?;
                write(&out.join("fig3_nln_2020.svg"), &svg20).map_err(io_err)?;
            }
            "fig4a" => {
                let cdfs = report::fig4a(&analysis);
                for (name, cdf) in &cdfs {
                    println!(
                        "{name}: median link length {:.1} km over {} links",
                        cdf.median(),
                        cdf.len()
                    );
                }
                let (svg, csv) = report::cdf_render("Fig 4a: link lengths", "Distance (km)", &cdfs);
                write(&out.join("fig4a.svg"), &svg).map_err(io_err)?;
                write(&out.join("fig4a.csv"), &csv.to_csv()).map_err(io_err)?;
            }
            "fig4b" => {
                let cdfs = report::fig4b(&analysis);
                for (name, cdf) in &cdfs {
                    println!(
                        "{name}: {:.0}% of frequencies under 7 GHz",
                        cdf.fraction_below(7.0) * 100.0
                    );
                }
                let (svg, csv) =
                    report::cdf_render("Fig 4b: operating frequencies", "Frequency (GHz)", &cdfs);
                write(&out.join("fig4b.svg"), &svg).map_err(io_err)?;
                write(&out.join("fig4b.csv"), &csv.to_csv()).map_err(io_err)?;
            }
            "fig5" => {
                let rows = report::fig5();
                let (text, csv) = report::fig5_render(&rows);
                print!("{text}");
                write(&out.join("fig5.csv"), &csv.to_csv()).map_err(io_err)?;
            }
            "weather" => {
                let sampler = hft_radio::WeatherSampler::stormy_season();
                println!("Conditional CME-NY4 latency under corridor weather (3000 states):");
                println!(
                    "{:<24} {:>9} {:>9} {:>9} {:>9} {:>7}",
                    "Licensee", "clear", "p50", "p95", "p99", "avail"
                );
                for name in ["New Line Networks", "Webline Holdings"] {
                    let asof = report::snapshot_date();
                    let net = analysis.session.network(name, asof);
                    let rg = analysis.session.routing_graph(
                        name,
                        asof,
                        &corridor::CME,
                        &corridor::EQUINIX_NY4,
                    );
                    let o = weather::conditional_latency_on(
                        &rg,
                        &net,
                        &corridor::CME,
                        &corridor::EQUINIX_NY4,
                        &sampler,
                        3000,
                        args.seed,
                    )
                    .ok_or_else(|| format!("{name}: no route"))?;
                    let p = |v: f64| {
                        if v.is_finite() {
                            format!("{v:.4}")
                        } else {
                            "down".to_string()
                        }
                    };
                    println!(
                        "{:<24} {:>9} {:>9} {:>9} {:>9} {:>6.1}%",
                        name,
                        p(o.clear_ms),
                        p(o.p50_ms),
                        p(o.p95_ms),
                        p(o.p99_ms),
                        o.availability * 100.0
                    );
                }
            }
            "race" => {
                let engine = hft_race::RaceEngine::new();
                let date = report::snapshot_date();
                println!(
                    "Cross-substrate latency race, CME -> NY4 as of {} (starlink-like LEO):",
                    date.to_iso()
                );
                let p = |v: Option<f64>| {
                    v.map(|x| format!("{x:.4}"))
                        .unwrap_or_else(|| "-".to_string())
                };
                for name in ["New Line Networks", "Webline Holdings"] {
                    let o = engine
                        .race(
                            &analysis.session,
                            name,
                            date,
                            &corridor::CME,
                            &corridor::EQUINIX_NY4,
                            "starlink",
                            3000,
                            args.seed,
                        )
                        .map_err(|e| format!("{name}: {e}"))?;
                    println!(
                        "{:<24} c-bound {:.4} ms  mw {} ms  leo {} ms  fiber {:.4} ms  \
                         winner {}",
                        name,
                        o.c_bound_ms,
                        p(o.microwave_ms),
                        p(o.leo_ms),
                        o.fiber_ms,
                        o.winner,
                    );
                }
                let entries = engine
                    .stretch_sweep(&analysis.session, "New Line Networks", date, "starlink")
                    .map_err(|e| format!("stretch sweep: {e}"))?;
                let cdf_of = |pick: fn(&hft_race::StretchEntry) -> Option<f64>| {
                    let values: Vec<f64> = entries.iter().filter_map(pick).collect();
                    hft_race::stretch_cdf(&values)
                };
                let mw = cdf_of(|e| e.mw_stretch);
                let fiber = cdf_of(|e| Some(e.fiber_stretch));
                let leo = cdf_of(|e| e.leo_stretch);
                let series = vec![
                    hft_viz::chart::Series::cdf_steps("microwave", "#8a3324", &mw),
                    hft_viz::chart::Series::cdf_steps("LEO", "#1f77b4", &leo),
                    hft_viz::chart::Series::cdf_steps("fiber", "#666666", &fiber),
                ];
                let cfg = hft_viz::chart::ChartConfig {
                    title: "Stretch factor vs c across corridor and transoceanic segments"
                        .to_string(),
                    x_label: "stretch (one-way latency / vacuum bound)".to_string(),
                    y_label: "CDF over segments".to_string(),
                    y_range: Some((0.0, 1.0)),
                    ..hft_viz::chart::ChartConfig::default()
                };
                write(
                    &out.join("race_stretch_cdf.svg"),
                    &hft_viz::chart::render(&cfg, &series),
                )
                .map_err(io_err)?;
                let mut csv =
                    String::from("pair,geodesic_km,mw_stretch,fiber_stretch,leo_stretch\n");
                for e in &entries {
                    let opt = |v: Option<f64>| v.map(|x| format!("{x:.6}")).unwrap_or_default();
                    csv.push_str(&format!(
                        "{},{:.3},{},{:.6},{}\n",
                        e.pair,
                        e.geodesic_km,
                        opt(e.mw_stretch),
                        e.fiber_stretch,
                        opt(e.leo_stretch),
                    ));
                }
                write(&out.join("race_stretch_cdf.csv"), &csv).map_err(io_err)?;
            }
            "entity" => {
                let candidates = report::entity_scan(&analysis);
                if candidates.is_empty() {
                    println!("no complementary-link pairs found");
                }
                for c in &candidates {
                    let fmt = |v: Option<f64>| {
                        v.map(|x| format!("{x:.5} ms"))
                            .unwrap_or_else(|| "not connected".into())
                    };
                    println!(
                        "{} + {}: alone {} / {}, merged {:.5} ms via {} shared towers{}",
                        c.a,
                        c.b,
                        fmt(c.a_alone_ms),
                        fmt(c.b_alone_ms),
                        c.joint_latency_ms,
                        c.shared_towers,
                        if c.jointly_connected_only() {
                            "  (joint-only!)"
                        } else {
                            ""
                        },
                    );
                }
            }
            "overhead" => {
                let asof = report::snapshot_date();
                let nln = report::network_of(&analysis, "New Line Networks", asof);
                let jm = report::network_of(&analysis, "Jefferson Microwave", asof);
                match hft_core::overhead::crossover_overhead_us(
                    &nln,
                    &jm,
                    &corridor::CME,
                    &corridor::EQUINIX_NY4,
                ) {
                    Some(o) => println!(
                        "Jefferson Microwave (fewer towers) overtakes New Line Networks \
                         above {o:.2} µs of per-tower overhead (§3 implies ~1.4 µs)"
                    ),
                    None => println!("no crossover"),
                }
            }
            "export" => {
                let text = hft_uls::flatfile::encode(eco.db.licenses());
                write(&out.join("corpus.uls"), &text).map_err(io_err)?;
                println!("{} licenses exported", eco.db.len());
            }
            "yaml" => {
                let name = args
                    .name
                    .as_deref()
                    .ok_or("yaml requires a licensee name")?;
                let net = report::network_of(&analysis, name, report::snapshot_date());
                if net.tower_count() == 0 {
                    return Err(format!("no towers for licensee {name:?}"));
                }
                let y = hft_core::yaml::to_yaml(&net);
                let file = out.join(format!("{}.yaml", name.replace(' ', "_")));
                write(&file, &y).map_err(io_err)?;
            }
            other => return Err(format!("unknown command {other:?}\n{}", usage())),
        }
        Ok(())
    };

    if args.command == "all" {
        for cmd in [
            "funnel", "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4a", "fig4b",
            "fig5", "weather", "race", "entity", "overhead", "export",
        ] {
            println!("==== {cmd} ====");
            run_one(cmd)?;
        }
    } else {
        run_one(&args.command)?;
    }
    if args.stats {
        println!("{}", analysis.session_stats_json());
    }
    Ok(())
}

/// The `trace` command: pull captured traces from a running server's
/// flight recorder over the wire protocol and print their waterfalls.
/// `--id HEX` fetches one trace; otherwise the `--limit` slowest.
fn run_trace(args: &Args) -> Result<(), String> {
    let addr = args
        .connect
        .as_deref()
        .ok_or("trace requires --connect HOST:PORT")?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("bad --connect address {addr:?}"))?;
    let mut client = hft_serve::Client::connect_with(&addr, hft_serve::Proto::Binary)
        .map_err(|e| format!("{addr}: {e}"))?;
    let response = client
        .call(&hft_serve::Request::Traces {
            limit: args.limit,
            trace_id: args.id,
        })
        .map_err(|e| e.to_string())?;
    match response {
        hft_serve::Response::Traces { traces } => {
            if traces.is_empty() {
                match args.id {
                    Some(id) => println!(
                        "no captured trace {} (evicted, or never sampled)",
                        hft_obs::format_trace_id(id)
                    ),
                    None => println!(
                        "no captured traces yet — serve with --trace-sample 1 or drive \
                         requests past the slow threshold"
                    ),
                }
            }
            for t in &traces {
                print!("{}", t.render());
            }
            Ok(())
        }
        hft_serve::Response::Error { message } => Err(message),
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// The `metrics` command: drive a representative query mix through an
/// in-process [`hft_serve::Service`] so every layer's instruments fire,
/// then render the full telemetry registry — deterministic JSON by
/// default, Prometheus text with `--prom`.
fn run_metrics(
    eco: &hftnetview::hft_corridor::GeneratedEcosystem,
    prom: bool,
) -> Result<(), String> {
    use hft_serve::{Request, Response};

    let service = hft_serve::Service::new(&eco.db);
    let asof = report::snapshot_date();
    let reference = corridor::CME.position();
    let mix = [
        Request::Geographic {
            lat_deg: reference.lat_deg(),
            lon_deg: reference.lon_deg(),
            radius_km: 150.0,
        },
        Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        },
        Request::Network {
            licensee: "New Line Networks".into(),
            date: asof,
        },
        Request::Route {
            licensee: "New Line Networks".into(),
            date: asof,
            from: "CME".into(),
            to: "NY4".into(),
        },
        Request::Apa {
            licensee: "Webline Holdings".into(),
            date: asof,
            from: "CME".into(),
            to: "NY4".into(),
        },
    ];
    for request in &mix {
        // Twice: the repeat exercises the cache-hit counters too.
        for _ in 0..2 {
            if let Response::Error { message } = service.handle(request) {
                return Err(format!("metrics workload: {message}"));
            }
        }
    }
    let snapshot = hft_obs::global().snapshot();
    if prom {
        print!("{}", hft_obs::expo::render_prometheus(&snapshot));
    } else {
        println!("{}", hft_obs::expo::render_json(&snapshot));
    }
    Ok(())
}

/// Background registry dumper for `serve --metrics-interval`: every
/// `secs`, write the registry JSON to `out` (atomically, via a sibling
/// temp file) or to stderr, and print each slow trace in the flight
/// recorder that no earlier tick printed to stderr, with its trace id.
fn spawn_metrics_dumper(
    secs: u64,
    out: Option<PathBuf>,
) -> (
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let interval = std::time::Duration::from_secs(secs);
        let tick = std::time::Duration::from_millis(50);
        // Slow traces already printed and still in the recorder.
        let mut printed = std::collections::HashSet::new();
        loop {
            // Sleep in short ticks so shutdown is prompt.
            let mut slept = std::time::Duration::ZERO;
            while slept < interval && !flag.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                slept += tick;
            }
            let stopping = flag.load(Ordering::Relaxed);
            let json = hft_obs::expo::render_json(&hft_obs::global().snapshot());
            match &out {
                Some(path) => {
                    let tmp = path.with_extension("tmp");
                    let write = std::fs::write(&tmp, format!("{json}\n"))
                        .and_then(|()| std::fs::rename(&tmp, path));
                    if let Err(e) = write {
                        eprintln!("metrics: {}: {e}", path.display());
                    }
                }
                None => eprintln!("metrics: {json}"),
            }
            let slow: Vec<_> = hft_obs::trace_snapshot(usize::MAX)
                .into_iter()
                .filter(|r| r.slow)
                .collect();
            for rec in slow.iter().filter(|r| !printed.contains(&r.trace_id)) {
                eprint!("slow query: {}", hft_serve::WireTrace::of(rec).render());
            }
            printed = slow.iter().map(|r| r.trace_id).collect();
            if stopping {
                // One final dump on the way out, then exit.
                return;
            }
        }
    });
    (stop, handle)
}

/// Run the serve loop over `router`, optionally registering the HTTP
/// explorer on `http` as an extra listener multiplexed on the same
/// readiness loop, worker pool, and admission queue.
fn run_serve(
    server: &hft_serve::Server,
    router: &hft_serve::ShardRouter,
    http: Option<u16>,
) -> std::io::Result<hft_serve::ServeSnapshot> {
    match http {
        None => server.run_with(router),
        Some(port) => {
            let explorer = hft_http::HttpExplorer::new(router);
            let extra = hft_serve::ExtraListener::bind(&format!("127.0.0.1:{port}"), &explorer)?;
            eprintln!("http explorer on http://{}", extra.local_addr()?);
            server.run_with_extras(router, std::slice::from_ref(&extra))
        }
    }
}

/// The `serve --follow` loop: tail `dir` for transaction dumps on a
/// background thread, publishing one corpus generation per ingested
/// batch to a fleet of `shards` shards, while the server answers
/// queries against the latest generation. Starts from an empty corpus
/// (generation 0). Every batch advances each shard's generation in
/// lockstep, patching only the shards whose piece of the corpus changed.
fn serve_follow(
    server: &hft_serve::Server,
    dir: &Path,
    shards: usize,
    http: Option<u16>,
) -> std::io::Result<hft_serve::ServeSnapshot> {
    use std::sync::atomic::{AtomicBool, Ordering};

    let empty = std::sync::Arc::new(UlsDatabase::new());
    let strategy = hft_uls::ShardStrategy::LicenseeHash;
    let fleet = hft_ingest::ShardedStore::seeded(&empty, shards, strategy, None);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let ingester = scope.spawn(|| {
            let mut follower = hft_ingest::DumpFollower::new(dir.to_path_buf());
            let mut applier = hft_ingest::Applier::new(UlsDatabase::new());
            while !stop.load(Ordering::Relaxed) {
                let files = match follower.poll() {
                    Ok(files) => files,
                    Err(e) => {
                        eprintln!("ingest: poll failed: {e}");
                        Vec::new()
                    }
                };
                if files.is_empty() {
                    std::thread::sleep(std::time::Duration::from_millis(200));
                    continue;
                }
                for (path, date) in files {
                    let text = match std::fs::read_to_string(&path) {
                        Ok(text) => text,
                        Err(e) => {
                            eprintln!("ingest: {}: {e}", path.display());
                            continue;
                        }
                    };
                    match hft_ingest::decode_batch(&text) {
                        Ok((batch, report)) => {
                            for q in &report.quarantined {
                                eprintln!("ingest: {}: quarantined {q}", path.display());
                            }
                            let events = batch.events.len();
                            for c in applier.apply(&batch) {
                                eprintln!("ingest: {}: conflict {c}", path.display());
                            }
                            let generation = applier.publish_sharded(&fleet);
                            eprintln!(
                                "ingested {} ({events} events) -> {} licenses, generation {generation}",
                                date.to_iso(),
                                applier.db().len()
                            );
                        }
                        Err(e) => eprintln!("ingest: {}: {e}", path.display()),
                    }
                }
            }
        });
        let stats = run_serve(server, &hft_serve::ShardRouter::over(&fleet), http);
        stop.store(true, Ordering::Relaxed);
        let _ = ingester.join();
        stats
    })
}

/// The `ingest` command: render the generated corpus's event history as
/// daily dumps under `out/dumps`, replay them through the incremental
/// applier, and verify every yearly checkpoint against from-scratch
/// builds — index equality, reference-interpreter equality, and
/// byte-identical YAML reconstructions against the omniscient corpus.
fn run_ingest(
    eco: &hftnetview::hft_corridor::GeneratedEcosystem,
    out: &Path,
) -> Result<(), String> {
    // The omniscient baseline is the corpus *as published through the
    // ULS text dialect*: dump files quantize coordinates to DMS, so the
    // fair ground truth is the generated corpus after one round trip
    // through the same codec (a fixed point of encode∘decode), not the
    // full-precision in-memory floats.
    let published = hft_uls::flatfile::decode(&hft_uls::flatfile::encode(eco.db.licenses()))
        .map_err(|e| format!("publishing the corpus: {e}"))?;
    let published_db = UlsDatabase::from_licenses(published);

    let batches = hft_ingest::render_history(published_db.licenses());
    let dump_dir = out.join("dumps");
    let paths = hft_ingest::write_dump_dir(&dump_dir, &batches).map_err(|e| e.to_string())?;
    eprintln!(
        "rendered {} daily dumps ({} licenses) into {}",
        paths.len(),
        published_db.len(),
        dump_dir.display()
    );

    let eco_session = hft_core::session::AnalysisSession::new(&published_db);
    let mut applier = hft_ingest::Applier::new(UlsDatabase::new());
    let mut model: Vec<License> = Vec::new();
    let mut checkpoints = 0usize;

    for (i, path) in paths.iter().enumerate() {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        let (batch, report) =
            hft_ingest::decode_batch(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if !report.is_clean() {
            return Err(format!(
                "{}: {} quarantined transactions in a replay dump",
                path.display(),
                report.count()
            ));
        }
        let conflicts = applier.apply(&batch);
        if let Some(c) = conflicts.first() {
            return Err(format!("{}: unexpected conflict: {c}", path.display()));
        }
        if hft_ingest::model::apply_events(&mut model, &batch) != 0 {
            return Err(format!(
                "{}: reference interpreter saw a conflict",
                path.display()
            ));
        }

        let last = i + 1 == paths.len();
        if last || batches[i + 1].date.year() != batch.date.year() {
            ingest_checkpoint(&applier, &model, &eco_session, batch.date)?;
            checkpoints += 1;
        }
    }

    // Full-history equality: the replayed corpus *is* the published one
    // (replay orders by grant date, so compare sorted by license id).
    let mut got = applier.db().licenses().to_vec();
    got.sort_unstable_by_key(|l| l.id);
    let mut want = published_db.licenses().to_vec();
    want.sort_unstable_by_key(|l| l.id);
    if got != want {
        return Err("replayed corpus differs from the published corpus".into());
    }
    // The §2.2 scrape funnel agrees too.
    let replay_session = hft_core::session::AnalysisSession::new(applier.db());
    let cfg = hft_uls::scrape::ScrapeConfig::default();
    let reference = corridor::CME.position();
    let got_scrape = replay_session
        .scrape(&reference, &cfg)
        .expect("session has a portal");
    let want_scrape = eco_session
        .scrape(&reference, &cfg)
        .expect("session has a portal");
    if got_scrape.report != want_scrape.report || got_scrape.shortlist != want_scrape.shortlist {
        return Err("replayed scrape funnel differs from the generated corpus".into());
    }
    let stats = applier.stats();
    println!(
        "replay verified: {} batches, {} events ({} added, {} updated, {} cancelled), \
         {} conflicts, {checkpoints} yearly checkpoints",
        stats.batches,
        stats.events(),
        stats.added,
        stats.updated,
        stats.cancelled,
        stats.conflicts
    );
    Ok(())
}

/// One yearly checkpoint: the incrementally maintained corpus must be
/// indistinguishable from a from-scratch build at this date.
fn ingest_checkpoint(
    applier: &hft_ingest::Applier,
    model: &[License],
    eco_session: &hft_core::session::AnalysisSession<'_>,
    date: Date,
) -> Result<(), String> {
    use hft_core::yaml::to_yaml;

    // Incremental index maintenance == full rebuild of the same sequence.
    applier
        .verify()
        .map_err(|e| format!("{}: {e}", date.to_iso()))?;
    // Event semantics == the naive reference interpreter, and the
    // incrementally mutated corpus == a database built from scratch at
    // this date (license list and every secondary index).
    let from_scratch = UlsDatabase::from_licenses(model.to_vec());
    if *applier.db() != from_scratch {
        return Err(format!(
            "{}: applier corpus diverged from the from-scratch build",
            date.to_iso()
        ));
    }
    let replay_session = hft_core::session::AnalysisSession::new(applier.db());
    let scratch_session = hft_core::session::AnalysisSession::new(&from_scratch);
    for name in report::FIGURE_NETWORKS {
        let net = replay_session.network_at(name, date);
        // Byte-identical artifacts vs the from-scratch build at this
        // date: same corpus, one maintained incrementally.
        let got = to_yaml(&net);
        if got != to_yaml(&scratch_session.network_at(name, date)) {
            return Err(format!(
                "{}: {name}: incremental-apply YAML differs from the from-scratch build",
                date.to_iso()
            ));
        }
        // Structurally identical vs the omniscient generated corpus:
        // replay hides future lifecycle events, but an as-of-`date`
        // reconstruction may never notice. (Tower numbering and snap
        // representatives depend on corpus order, so the comparison is
        // over canonical link/tower sets, not bytes.)
        let omniscient = eco_session.network_at(name, date);
        if canonical_network(&net) != canonical_network(&omniscient) {
            return Err(format!(
                "{}: {name}: replayed network differs from the omniscient build",
                date.to_iso()
            ));
        }
    }
    eprintln!(
        "checkpoint {}: {} licenses verified (indices, reference model, {} reconstructions)",
        date.to_iso(),
        applier.db().len(),
        report::FIGURE_NETWORKS.len()
    );
    Ok(())
}

/// An order-independent rendering of a reconstructed network: sorted
/// tower cells plus sorted links keyed by (unordered) cell pair, with
/// each link's exact frequencies and backing license ids. Tower
/// numbering and snap-representative coordinates depend on corpus
/// iteration order, so byte comparison only works between builds of the
/// *same* corpus; this form compares reconstructions across corpora.
type CanonicalNetwork = (
    Vec<hft_geodesy::SnappedCoord>,
    Vec<(
        hft_geodesy::SnappedCoord,
        hft_geodesy::SnappedCoord,
        Vec<u64>,
        Vec<hft_uls::LicenseId>,
    )>,
);

fn canonical_network(net: &hft_core::Network) -> CanonicalNetwork {
    let mut towers: Vec<_> = net.graph.nodes().map(|(_, t)| t.cell).collect();
    towers.sort_unstable();
    let mut links: Vec<_> = net
        .graph
        .edges()
        .map(|(_, u, v, link)| {
            let (a, b) = (net.graph.node(u).cell, net.graph.node(v).cell);
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            let freqs: Vec<u64> = link.frequencies_ghz.iter().map(|f| f.to_bits()).collect();
            (a, b, freqs, link.licenses.clone())
        })
        .collect();
    links.sort_unstable();
    (towers, links)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
