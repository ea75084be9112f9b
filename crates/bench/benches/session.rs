//! Cold-vs-warm benchmark for the [`AnalysisSession`] engine: the same
//! Table-1 + evolution sweep, once against a fresh session per iteration
//! (every network reconstructed from scratch) and once against a shared
//! warmed session (everything answered from the epoch cache). Alongside
//! it, the cost of generating the calibrated corpus every session sits
//! on, of building one serving engine over it (what a fleet shard pays
//! at every corpus swap), and of the §5 weather Monte Carlo no session
//! cache holds. Results
//! are printed and written to `BENCH_session.json` at the workspace root
//! so the speedup is tracked alongside the code.

use criterion::{black_box, Criterion};
use hft_bench::load;
use hft_bench::{obj, REPRO_SEED};
use hft_core::corridor::{DataCenter, CME, EQUINIX_NY4, NASDAQ, NYSE};
use hft_core::AnalysisSession;
use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_radio::WeatherSampler;
use hft_serve::{ServeStats, Service};
use hft_time::Date;
use hftnetview::{report, weather};
use std::sync::{Arc, OnceLock};

fn eco() -> &'static GeneratedEcosystem {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    ECO.get_or_init(|| generate(&chicago_nj(), REPRO_SEED))
}

/// The measured workload: the Table-1 leaderboard plus the nine-date
/// Fig-1/2 evolution sweep — the two heaviest reconstruction consumers.
fn sweep(analysis: &report::Analysis<'_>) -> usize {
    let rows = report::table1(analysis);
    let series = report::evolution(analysis);
    rows.len() + series.len()
}

fn bench_generate(c: &mut Criterion) {
    // Every serving or analysis process pays this before its first query:
    // the whole corpus, calibrated closed-loop against the router.
    let spec = chicago_nj();
    let mut g = c.benchmark_group("session");
    g.sample_size(load::sample_size(10));
    g.bench_function("generate_full_ecosystem", |b| {
        b.iter(|| black_box(generate(black_box(&spec), REPRO_SEED)))
    });
    g.finish();
}

/// One `Service::over_snapshot` over the seed corpus, dropped again:
/// the engine a fleet shard builds when a publish brings it a new corpus.
fn bench_engine_build(c: &mut Criterion) {
    let db = Arc::new(eco().db.clone());
    let stats = Arc::new(ServeStats::default());
    let mut g = c.benchmark_group("session");
    g.sample_size(load::sample_size(100));
    g.bench_function("engine_build", |b| {
        b.iter(|| {
            black_box(Service::over_snapshot(
                Arc::clone(&db),
                1,
                Arc::clone(&stats),
            ))
        })
    });
    g.finish();
}

fn bench_cold(c: &mut Criterion) {
    let eco = eco();
    let mut g = c.benchmark_group("session");
    g.sample_size(load::sample_size(10));
    g.bench_function("table1_evolution_cold", |b| {
        b.iter(|| {
            // A fresh session per call: every epoch reconstructs anew.
            let analysis = report::Analysis::new(eco);
            black_box(sweep(&analysis))
        })
    });
    g.finish();
}

fn bench_warm(c: &mut Criterion) {
    let eco = eco();
    let analysis = report::Analysis::new(eco);
    sweep(&analysis); // prime the caches once, outside the timing loop
    let mut g = c.benchmark_group("session");
    g.sample_size(load::sample_size(10));
    g.bench_function("table1_evolution_warm", |b| {
        b.iter(|| black_box(sweep(black_box(&analysis))))
    });
    g.finish();
}

/// The Monte Carlos a compute-mc server runs cold: each licensee's
/// 20,000-state stormy-season run on its race pair, over a session whose
/// networks and routing graphs are already built, so only the Monte
/// Carlo is timed.
fn bench_weather_mc(c: &mut Criterion) {
    let eco = eco();
    let session = AnalysisSession::new(&eco.db);
    let date = Date::new(2020, 4, 1).expect("valid date");
    let runs: [(&str, DataCenter); 3] = [
        ("Pierce Broadband", EQUINIX_NY4),
        ("AQ2AT", NYSE),
        ("GTT Americas", NASDAQ),
    ];
    let inputs: Vec<_> = runs
        .iter()
        .map(|(licensee, to)| {
            let net = session.network(licensee, date);
            let rg = session.routing_graph(licensee, date, &CME, to);
            (net, rg, to)
        })
        .collect();
    let sampler = WeatherSampler::stormy_season();
    let mut g = c.benchmark_group("session");
    g.sample_size(load::sample_size(10));
    g.bench_function("weather_mc_cold_20k", |b| {
        b.iter(|| {
            for (net, rg, to) in &inputs {
                black_box(weather::conditional_latency_on(
                    rg, net, &CME, to, &sampler, 20_000, 4242,
                ))
                .expect("every compute-mc licensee has a route");
            }
        })
    });
    g.finish();
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_generate(&mut criterion);
    bench_engine_build(&mut criterion);
    bench_cold(&mut criterion);
    bench_warm(&mut criterion);
    bench_weather_mc(&mut criterion);

    let results = criterion.results();
    let mut entries: Vec<_> = results
        .iter()
        .map(|r| load::bench_entry(&r.id, r.mean_s(), r.samples.len()))
        .collect();
    let mean = |suffix: &str| {
        let r = results.iter().find(|r| r.id.ends_with(suffix))?;
        Some(r.mean_s())
    };
    if let (Some(cold), Some(warm)) = (mean("_cold"), mean("_warm")) {
        if warm > 0.0 {
            let speedup = cold / warm;
            entries.push(load::bench_entry(
                "session/cold_over_warm_speedup",
                speedup,
                0,
            ));
            println!("session cold/warm speedup: {speedup:.1}x");
        }
    }
    load::write_report("session", None, obj! {"results": entries})
        .expect("write BENCH_session.json");
}
