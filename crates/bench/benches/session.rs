//! Cold-vs-warm benchmark for the [`AnalysisSession`] engine: the same
//! Table-1 + evolution sweep, once against a fresh session per iteration
//! (every network reconstructed from scratch) and once against a shared
//! warmed session (everything answered from the epoch cache). Alongside
//! it, the cost of generating the calibrated corpus every session sits
//! on. Results are printed and written to `BENCH_session.json` at the
//! workspace root so the speedup is tracked alongside the code.

use criterion::{black_box, Criterion};
use hft_bench::load;
use hft_bench::{obj, REPRO_SEED};
use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hftnetview::report;
use std::sync::OnceLock;

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

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_generate(&mut criterion);
    bench_cold(&mut criterion);
    bench_warm(&mut criterion);

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
