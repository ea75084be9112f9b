//! Telemetry overhead benchmark: the ISSUE's <5% hot-path budget.
//!
//! Measures the serve hot path — warm cached `Service::handle` calls on
//! the route/APA mix — with the telemetry runtime enabled versus killed
//! via `hft_obs::set_enabled(false)`, plus the raw primitive costs
//! (counter incr, histogram record, and an unsampled trace root holding
//! one span, opened and closed). A second phase self-hosts an
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
use hft_bench::load;
use hft_bench::{obj, REPRO_SEED};
use hft_corridor::{chicago_nj, generate, GeneratedEcosystem};
use hft_serve::api::Request;
use hft_serve::{Client, Proto, ServeConfig, Service};
use hft_time::Date;
use std::sync::OnceLock;
use std::time::Instant;

fn eco() -> &'static GeneratedEcosystem {
    static ECO: OnceLock<GeneratedEcosystem> = OnceLock::new();
    ECO.get_or_init(|| generate(&chicago_nj(), REPRO_SEED))
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
    g.sample_size(load::sample_size(30));
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
    g.sample_size(load::sample_size(30));
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
        // Unsampled and never slow (the threshold is out of reach), so
        // the tree is dropped at close, as most requests' trees are.
        let ctx = hft_obs::TraceContext {
            trace_id: 1,
            sampled: false,
        };
        let started = Instant::now();
        b.iter(|| {
            let _root = hft_obs::trace_root("bench.obs.request", "bench", ctx, started);
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
    let config = ServeConfig {
        workers: 2,
        queue_depth: 64,
        ..ServeConfig::default()
    };
    load::self_host(config, service, &[], |addr| {
        let mut client = Client::connect_with(&addr, Proto::Binary).expect("connect bench client");
        for request in mix {
            client.call(request).expect("warm round trip");
        }

        let mut g = c.benchmark_group("obs");
        g.sample_size(load::sample_size(30));
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
        Ok(())
    })
    .expect("bench server");
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

    // Tail capture would file every traced tree the bench machine
    // stalls on; push the threshold out of reach so the traced arms
    // differ only in their head-sampling stride.
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

    let results = criterion.results();
    let mut entries: Vec<_> = results
        .iter()
        .map(|r| load::bench_entry(&r.id, r.mean_s(), r.samples.len()))
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
        entries.push(load::bench_entry(&format!("obs/{id}_pct"), overhead_pct, 0));
        entries.push(load::bench_entry(&format!("obs/{id}_raw_pct"), raw_pct, 0));
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
    load::write_report("obs", None, obj! {"results": entries}).expect("write BENCH_obs.json");
}
