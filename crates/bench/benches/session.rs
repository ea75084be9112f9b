//! Cold-vs-warm benchmark for the [`AnalysisSession`] engine: the same
//! Table-1 + evolution sweep, once against a fresh session per iteration
//! (every network reconstructed from scratch) and once against a shared
//! warmed session (everything answered from the epoch cache). Alongside
//! it, the cost of generating the calibrated corpus every session sits
//! on. Results are printed and written to `BENCH_session.json` at the
//! workspace root so the speedup is tracked alongside the code.

use criterion::{black_box, Criterion};
use hft_bench::REPRO_SEED;
use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hftnetview::report;
use std::sync::OnceLock;

fn eco() -> &'static GeneratedEcosystem {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    ECO.get_or_init(|| generate(&chicago_nj(), REPRO_SEED))
}

/// Timed calls per bench: `HFT_BENCH_SAMPLES` when set (CI smoke runs
/// pass 1), otherwise 10.
fn sample_size() -> usize {
    std::env::var("HFT_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(10)
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
    g.sample_size(sample_size());
    g.bench_function("generate_full_ecosystem", |b| {
        b.iter(|| black_box(generate(black_box(&spec), REPRO_SEED)))
    });
    g.finish();
}

fn bench_cold(c: &mut Criterion) {
    let eco = eco();
    let mut g = c.benchmark_group("session");
    g.sample_size(sample_size());
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
    g.sample_size(sample_size());
    g.bench_function("table1_evolution_warm", |b| {
        b.iter(|| black_box(sweep(black_box(&analysis))))
    });
    g.finish();
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_generate(&mut criterion);
    bench_cold(&mut criterion);
    bench_warm(&mut criterion);

    let results = criterion.results();
    let mut entries: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "  {{\"id\": \"{}\", \"mean_s\": {:.9}, \"samples\": {}}}",
                json_escape(&r.id),
                r.mean_s(),
                r.samples.len()
            )
        })
        .collect();
    let cold = results
        .iter()
        .find(|r| r.id.ends_with("_cold"))
        .map(|r| r.mean_s());
    let warm = results
        .iter()
        .find(|r| r.id.ends_with("_warm"))
        .map(|r| r.mean_s());
    if let (Some(cold), Some(warm)) = (cold, warm) {
        if warm > 0.0 {
            entries.push(format!(
                "  {{\"id\": \"session/cold_over_warm_speedup\", \"mean_s\": {:.3}, \"samples\": 0}}",
                cold / warm
            ));
            println!("session cold/warm speedup: {:.1}x", cold / warm);
        }
    }
    let json = format!("{{\n\"results\": [\n{}\n]\n}}\n", entries.join(",\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_session.json");
    std::fs::write(path, json).expect("write BENCH_session.json");
    println!("wrote {path}");
}
