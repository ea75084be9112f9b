//! One Criterion benchmark per paper artifact (tables 1–3, figures 1–5,
//! and the §2.2 funnel), timing the analysis pipeline that regenerates
//! it. The corpus is generated once outside the timing loops; what is
//! measured is the reconstruction/analysis work a user of the library
//! pays per query.

use criterion::{criterion_group, criterion_main, Criterion};
use hft_bench::REPRO_SEED;
use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hftnetview::report;
use std::hint::black_box;
use std::sync::OnceLock;

fn eco() -> &'static report::Analysis<'static> {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    static ANALYSIS: OnceLock<report::Analysis<'static>> = OnceLock::new();
    ANALYSIS.get_or_init(|| {
        report::Analysis::new(ECO.get_or_init(|| generate(&chicago_nj(), REPRO_SEED)))
    })
}

fn bench_table1(c: &mut Criterion) {
    let eco = eco();
    c.bench_function("table1_full_leaderboard", |b| {
        b.iter(|| black_box(report::table1(black_box(eco))))
    });
}

fn bench_table2(c: &mut Criterion) {
    let eco = eco();
    c.bench_function("table2_per_path_rankings", |b| {
        b.iter(|| black_box(report::table2(black_box(eco))))
    });
}

fn bench_table3(c: &mut Criterion) {
    let eco = eco();
    c.bench_function("table3_apa_nln_vs_wh", |b| {
        b.iter(|| black_box(report::table3(black_box(eco))))
    });
}

fn bench_fig1_fig2(c: &mut Criterion) {
    let eco = eco();
    c.bench_function("fig1_fig2_evolution_series", |b| {
        b.iter(|| black_box(report::evolution(black_box(eco))))
    });
}

fn bench_fig3(c: &mut Criterion) {
    let eco = eco();
    c.bench_function("fig3_maps_geojson_svg", |b| {
        b.iter(|| black_box(report::fig3(black_box(eco))))
    });
}

fn bench_fig4a(c: &mut Criterion) {
    let eco = eco();
    c.bench_function("fig4a_link_length_cdfs", |b| {
        b.iter(|| black_box(report::fig4a(black_box(eco))))
    });
}

fn bench_fig4b(c: &mut Criterion) {
    let eco = eco();
    c.bench_function("fig4b_frequency_cdfs", |b| {
        b.iter(|| black_box(report::fig4b(black_box(eco))))
    });
}

fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5");
    g.sample_size(10);
    g.bench_function("fig5_leo_vs_terrestrial", |b| {
        b.iter(|| black_box(report::fig5()))
    });
    g.finish();
}

fn bench_funnel(c: &mut Criterion) {
    let eco = eco();
    c.bench_function("funnel_scrape_pipeline", |b| {
        b.iter(|| black_box(report::funnel(black_box(eco))))
    });
}

fn bench_weather(c: &mut Criterion) {
    let eco = eco();
    let net = report::network_of(eco, "New Line Networks", report::snapshot_date());
    let sampler = hft_radio::WeatherSampler::stormy_season();
    let mut g = c.benchmark_group("weather");
    g.sample_size(10);
    g.bench_function("weather_monte_carlo_500_states", |b| {
        b.iter(|| {
            black_box(hftnetview::weather::conditional_latency(
                black_box(&net),
                &hft_core::corridor::CME,
                &hft_core::corridor::EQUINIX_NY4,
                &sampler,
                500,
                7,
            ))
        })
    });
    g.finish();
}

fn bench_entity_scan(c: &mut Criterion) {
    let eco = eco();
    let mut g = c.benchmark_group("entity");
    g.sample_size(10);
    g.bench_function("entity_scan_shortlist", |b| {
        b.iter(|| black_box(report::entity_scan(black_box(eco))))
    });
    g.finish();
}

fn bench_overhead(c: &mut Criterion) {
    let eco = eco();
    let asof = report::snapshot_date();
    let nln = report::network_of(eco, "New Line Networks", asof);
    let jm = report::network_of(eco, "Jefferson Microwave", asof);
    c.bench_function("overhead_crossover", |b| {
        b.iter(|| {
            black_box(hft_core::overhead::crossover_overhead_us(
                black_box(&nln),
                black_box(&jm),
                &hft_core::corridor::CME,
                &hft_core::corridor::EQUINIX_NY4,
            ))
        })
    });
}

fn bench_annual_availability(c: &mut Criterion) {
    let eco = eco();
    let net = report::network_of(eco, "Webline Holdings", report::snapshot_date());
    let climate = hft_radio::RainClimate::continental_temperate();
    let links: Vec<hft_radio::LinkOutageModel> = net
        .graph
        .edges()
        .map(|(_, _, _, l)| {
            hft_radio::LinkOutageModel::typical(
                l.length_m / 1000.0,
                l.frequencies_ghz.first().copied().unwrap_or(11.0),
            )
        })
        .collect();
    c.bench_function("annual_availability_whole_network", |b| {
        b.iter(|| {
            black_box(hft_radio::path_annual_availability(
                black_box(links.iter()),
                &climate,
            ))
        })
    });
}

criterion_group!(
    paper,
    bench_table1,
    bench_table2,
    bench_table3,
    bench_fig1_fig2,
    bench_fig3,
    bench_fig4a,
    bench_fig4b,
    bench_fig5,
    bench_funnel,
    bench_weather,
    bench_entity_scan,
    bench_overhead,
    bench_annual_availability,
);
criterion_main!(paper);
