//! Spatial query engine benchmark: the grid-indexed portal against the
//! retained linear-scan reference on the full synthetic corpus.
//!
//! Measures the paper's actual query mix — the §2.2 scrape funnel's
//! 10 km geographic search around CME, the MG/FXO site search, and a
//! multi-probe fan-out along the corridor through
//! `AnalysisSession::par_map` — and writes `BENCH_geo.json` at the
//! workspace root with an `indexed_over_linear_speedup` entry (the PR
//! acceptance floor is 10x). Set `HFT_BENCH_SAMPLES` to shrink the
//! sample count (CI smoke runs use 1).

use criterion::{black_box, Criterion};
use hft_bench::load;
use hft_bench::{obj, REPRO_SEED};
use hft_core::corridor::{CME, EQUINIX_NY4};
use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_geodesy::{gc_interpolate, LatLon};
use hft_uls::{RadioService, StationClass, UlsPortal};
use std::sync::OnceLock;

fn eco() -> &'static GeneratedEcosystem {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    ECO.get_or_init(|| generate(&chicago_nj(), REPRO_SEED))
}

/// Nine probe centers along the CME→NY4 great circle — the shape of the
/// evolution sweep's per-date lookups.
fn probes() -> Vec<LatLon> {
    let a = CME.position();
    let b = EQUINIX_NY4.position();
    (0..9)
        .map(|i| gc_interpolate(&a, &b, i as f64 / 8.0))
        .collect()
}

fn bench_geographic(c: &mut Criterion) {
    let db = &eco().db;
    let cme = CME.position();
    let mut g = c.benchmark_group("geo");
    g.sample_size(load::sample_size(30));
    g.bench_function("geographic_search_linear", |b| {
        b.iter(|| black_box(db.geographic_search_linear(black_box(&cme), 10.0).len()))
    });
    g.bench_function("geographic_search_indexed", |b| {
        b.iter(|| black_box(db.geographic_search(black_box(&cme), 10.0).len()))
    });
    g.finish();
}

fn bench_site_search(c: &mut Criterion) {
    let db = &eco().db;
    let mut g = c.benchmark_group("geo");
    g.sample_size(load::sample_size(30));
    g.bench_function("site_search_linear", |b| {
        b.iter(|| {
            black_box(
                db.site_search_linear(&RadioService::MG, &StationClass::FXO)
                    .len(),
            )
        })
    });
    g.bench_function("site_search_indexed", |b| {
        b.iter(|| black_box(db.site_search(&RadioService::MG, &StationClass::FXO).len()))
    });
    g.finish();
}

fn bench_par_fanout(c: &mut Criterion) {
    let eco = eco();
    let session = eco.session();
    let probes = probes();
    let mut g = c.benchmark_group("geo");
    g.sample_size(load::sample_size(30));
    g.bench_function("par_geographic_search_9probes", |b| {
        b.iter(|| {
            let hits = session
                .par_geographic_search(black_box(&probes), 10.0)
                .expect("session has a portal");
            black_box(hits.iter().map(Vec::len).sum::<usize>())
        })
    });
    g.finish();
}

fn main() {
    let db = &eco().db;
    println!(
        "corpus: {} licenses, {} tower sites in {} grid cells",
        db.len(),
        db.site_index().site_count(),
        db.site_index().cell_count()
    );

    let mut criterion = Criterion::default().configure_from_args();
    bench_geographic(&mut criterion);
    bench_site_search(&mut criterion);
    bench_par_fanout(&mut criterion);

    let results = criterion.results();
    let mut entries: Vec<_> = results
        .iter()
        .map(|r| load::bench_entry(&r.id, r.mean_s(), r.samples.len()))
        .collect();
    let mean = |id: &str| results.iter().find(|r| r.id == id).map(|r| r.mean_s());
    let linear = mean("geo/geographic_search_linear");
    let indexed = mean("geo/geographic_search_indexed");
    if let (Some(linear), Some(indexed)) = (linear, indexed) {
        if indexed > 0.0 {
            let speedup = linear / indexed;
            entries.push(load::bench_entry(
                "geo/indexed_over_linear_speedup",
                speedup,
                0,
            ));
            println!("geographic_search indexed/linear speedup: {speedup:.1}x");
        }
    }
    load::write_report("geo", None, obj! {"results": entries}).expect("write BENCH_geo.json");
}
