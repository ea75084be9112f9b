//! Telemetry overhead benchmark: the ISSUE's <5% hot-path budget.
//!
//! Measures the serve hot path — warm cached `Service::handle` calls on
//! the route/APA mix — with the telemetry runtime enabled versus killed
//! via `hft_obs::set_enabled(false)` (the runtime proxy for the `off`
//! compile-out feature), plus the raw primitive costs (counter incr,
//! histogram record, span enter/exit). A second phase self-hosts an
//! evented server and round-trips the same mix over the binary wire
//! with the trace recorder off (stride 0) versus capturing every
//! request (stride 1) — the distributed-tracing overhead on the
//! bin/evented hot path, budget 2%. Writes `BENCH_obs.json` at the
//! workspace root with `obs/handle_overhead_pct` (ceiling 5) and
//! `obs/trace_overhead_pct` (ceiling 2) entries; both are clamped at
//! the 0% noise floor (the raw signed deltas ride along as `_raw_`
//! entries). Set `HFT_BENCH_SAMPLES` to shrink the sample count (CI
//! smoke runs use 1).

use criterion::{black_box, Criterion};
use hft_bench::REPRO_SEED;
use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_serve::api::Request;
use hft_serve::{Client, Proto, ServeConfig, Server, Service};
use hft_time::Date;
use std::sync::OnceLock;

fn eco() -> &'static GeneratedEcosystem {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    ECO.get_or_init(|| generate(&chicago_nj(), REPRO_SEED))
}

/// Timed calls per bench: `HFT_BENCH_SAMPLES` when set (CI smoke passes
/// 1), otherwise 30.
fn sample_size() -> usize {
    std::env::var("HFT_BENCH_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(30)
}

/// The warm request mix: cache hits in the session plus the cheap
/// index-backed searches — the steady-state shape the overhead budget
/// is written against.
fn warm_mix(licensee: &str) -> Vec<Request> {
    let date = Date::new(2020, 4, 1).unwrap();
    vec![
        Request::SiteSearch {
            service: "MG".into(),
            class: "FXO".into(),
        },
        Request::Route {
            licensee: licensee.into(),
            date,
            from: "CME".into(),
            to: "NY4".into(),
        },
        Request::Apa {
            licensee: licensee.into(),
            date,
            from: "CME".into(),
            to: "NY4".into(),
        },
    ]
}

fn bench_handle(c: &mut Criterion, service: &Service, mix: &[Request], id: &str) {
    let mut g = c.benchmark_group("obs");
    g.sample_size(sample_size());
    g.bench_function(id, |b| {
        b.iter(|| {
            for request in mix {
                black_box(service.handle(black_box(request)));
            }
        })
    });
    g.finish();
}

fn bench_primitives(c: &mut Criterion, suffix: &str) {
    let registry = hft_obs::global();
    let counter = registry.counter("bench.obs.counter");
    let histogram = registry.histogram("bench.obs.histogram_ns");
    let mut g = c.benchmark_group("obs");
    g.sample_size(sample_size());
    g.bench_function(format!("counter_incr_{suffix}"), |b| {
        b.iter(|| counter.incr())
    });
    g.bench_function(format!("histogram_record_{suffix}"), |b| {
        let mut v = 1u64;
        b.iter(|| {
            histogram.record(black_box(v));
            v = v.wrapping_mul(2862933555777941757).wrapping_add(3037000493) >> 11;
        })
    });
    g.bench_function(format!("span_{suffix}"), |b| {
        b.iter(|| {
            let _span = hft_obs::span("bench.obs.span");
        })
    });
    g.finish();
}

/// The tracing-overhead phase: self-host an evented server and drive
/// the warm mix over the binary wire — the exact hot path the <2%
/// trace budget is written against — first with the recorder off
/// (sample stride 0, contexts unsampled) then capturing every request
/// (stride 1: root span, queue.wait annotation, ring write per call).
fn bench_wire(c: &mut Criterion, service: &Service, mix: &[Request]) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 64,
        ..ServeConfig::default()
    })
    .expect("bind bench server");
    let addr = server.local_addr().expect("bench server addr");
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run_with(service));
        let mut client = Client::connect_with(&addr, Proto::Binary).expect("connect bench client");
        for request in mix {
            client.call(request).expect("warm round trip");
        }

        let mut g = c.benchmark_group("obs");
        g.sample_size(sample_size());
        hft_obs::set_trace_sample_every(0);
        g.bench_function("wire_untraced", |b| {
            b.iter(|| {
                for request in mix {
                    black_box(
                        client
                            .call(black_box(request))
                            .expect("untraced round trip"),
                    );
                }
            })
        });
        hft_obs::set_trace_sample_every(1);
        g.bench_function("wire_traced", |b| {
            b.iter(|| {
                for request in mix {
                    black_box(client.call(black_box(request)).expect("traced round trip"));
                }
            })
        });
        g.finish();

        hft_obs::set_trace_sample_every(64);
        hft_obs::clear_traces();
        client
            .call(&Request::Shutdown)
            .expect("shutdown bench server");
        handle
            .join()
            .expect("bench server thread")
            .expect("bench server exit");
    });
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Median of a bench's samples. The enabled/disabled comparison sits
/// in single-digit percents, well under scheduler-noise outliers, so
/// the mean would let one preempted sample flip the verdict's sign.
fn median(results: &[criterion::BenchResult], id: &str) -> Option<f64> {
    let r = results.iter().find(|r| r.id == id)?;
    let mut samples = r.samples.clone();
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    Some(samples[samples.len() / 2])
}

fn main() {
    let eco = eco();
    let licensee = eco.connected_2020.first().expect("modeled networks");
    let mix = warm_mix(licensee);

    // Slow-query capture would retain every handle() tree if the bench
    // machine stalls; push the threshold out of reach so the rings stay
    // bounded and the comparison measures recording, not draining.
    hft_obs::set_slow_threshold_ns(u64::MAX);

    let service = Service::new(&eco.db);
    // Warm the session caches so both arms measure the cached path.
    for request in &mix {
        service.handle(request);
    }

    let mut criterion = Criterion::default().configure_from_args();

    hft_obs::set_enabled(true);
    bench_handle(&mut criterion, &service, &mix, "handle_warm_enabled");
    bench_primitives(&mut criterion, "enabled");

    hft_obs::set_enabled(false);
    bench_handle(&mut criterion, &service, &mix, "handle_warm_disabled");
    bench_primitives(&mut criterion, "disabled");
    hft_obs::set_enabled(true);
    bench_wire(&mut criterion, &service, &mix);
    hft_obs::take_samples();

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
    // Both overhead deltas sit inside scheduler noise on a quiet warm
    // mix, so the raw signed delta can dip negative (the instrumented
    // arm drew the luckier samples). A negative overhead is physically
    // meaningless — report max(0, delta) as the headline and keep the
    // raw value alongside so the noise floor stays visible.
    let mut overhead = |on: &str, off: &str, id: &str, what: &str, budget: u32| {
        let (Some(on), Some(off)) = (median(results, on), median(results, off)) else {
            return;
        };
        if off <= 0.0 {
            return;
        }
        let raw_pct = (on - off) / off * 100.0;
        let overhead_pct = raw_pct.max(0.0);
        entries.push(format!(
            "  {{\"id\": \"obs/{id}_pct\", \"mean_s\": {overhead_pct:.3}, \"samples\": 0}}"
        ));
        entries.push(format!(
            "  {{\"id\": \"obs/{id}_raw_pct\", \"mean_s\": {raw_pct:.3}, \"samples\": 0}}"
        ));
        println!(
            "{what}: {overhead_pct:.2}% (raw {raw_pct:+.2}%, clamped at the 0% noise floor; budget {budget}%)"
        );
    };
    overhead(
        "obs/handle_warm_enabled",
        "obs/handle_warm_disabled",
        "handle_overhead",
        "telemetry overhead on warm handle()",
        5,
    );
    overhead(
        "obs/wire_traced",
        "obs/wire_untraced",
        "trace_overhead",
        "tracing overhead on warm bin/evented round trips",
        2,
    );
    let json = format!("{{\n\"results\": [\n{}\n]\n}}\n", entries.join(",\n"));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, json).expect("write BENCH_obs.json");
    println!("wrote {path}");
}
