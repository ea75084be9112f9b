//! `cargo test --release --manifest-path crates/bench/src/bin/hftbench/Cargo.toml`

use crate::bench::{measure, Plan};
use crate::fixture::Corpus;
use crate::report::{
    compare, quartiles, result_line, verdict, Better, Bound, Declarations, Verdict,
};
use crate::workload::{Mix, Workload};
use hft_serve::json::{self, Json};

/// A half-second run of every workload, untraced and traced, emits each
/// declared metric with its declared unit, and no answer is wrong.
#[test]
fn short_runs_emit_every_declared_metric() {
    let declared = Declarations::load().expect("BENCHMARK.json parses");
    for w in Workload::ALL {
        for traced in [false, true] {
            let report = measure(w, 7, &Plan::fitted(0.5, traced))
                .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert_eq!(report.wrong, 0, "{}: {:?}", w.name(), report.first_mismatch);
            assert!(report.attempted > 0, "{} offered nothing", w.name());
            let list = if traced {
                &declared.per_layer
            } else {
                &declared.end_to_end
            };
            for d in list {
                let m = report
                    .get(&d.name)
                    .unwrap_or_else(|| panic!("{}: {} missing", w.name(), d.name));
                assert_eq!(m.unit, d.unit, "{}: {}", w.name(), d.name);
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    w.name(),
                    d.name,
                    m.value
                );
            }
            let line = result_line(&report, list).expect("result line");
            let doc = json::parse(&line).expect("result line is JSON");
            for key in ["correct", "attempted", "failed", "metrics"] {
                assert!(doc.get(key).is_some(), "result line lacks {key}");
            }
        }
    }
}

#[test]
fn same_seed_draws_the_same_schedule() {
    let corpus = Corpus::generate();
    let names = corpus.db.licensees();
    for w in Workload::ALL {
        let (low, _) = w.rates();
        let draw =
            |seed| Mix::new(w, seed, &corpus.connected, &names).stream(seed, "low", low, 2.0);
        let a = draw(5);
        assert!(!a.due_ns.is_empty());
        assert_eq!(a, draw(5), "{}: same seed, same schedule", w.name());
        assert_ne!(a, draw(6), "{}: another seed, another schedule", w.name());
        assert!(
            a.due_ns.windows(2).all(|p| p[0] <= p[1]),
            "arrivals in order"
        );
    }
}

#[test]
fn quartiles_match_pythons_statistics_module() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    assert_eq!(quartiles(&[1.0, 2.0, 4.0]), [1.0, 2.0, 4.0]);
}

#[test]
fn compare_applies_relative_and_absolute_bounds() {
    let rel = Bound::Relative(0.10);
    let steady = [10.0, 10.0, 10.0];
    assert_eq!(
        verdict(&steady, &[10.5, 10.4, 10.6], Better::Lower, rel),
        Verdict::Held
    );
    assert_eq!(
        verdict(&steady, &[12.0, 11.9, 12.1], Better::Lower, rel),
        Verdict::Regressed
    );
    assert_eq!(
        verdict(&steady, &[8.0, 8.1, 7.9], Better::Higher, rel),
        Verdict::Regressed
    );
    // A baseline noisier than the bound cannot resolve a small change...
    let noisy = [5.0, 10.0, 15.0, 10.0];
    assert_eq!(
        verdict(&noisy, &[11.0, 11.0, 11.0], Better::Lower, rel),
        Verdict::Unresolved
    );
    // ... unless every change run beats every baseline run.
    assert_eq!(
        verdict(&noisy, &[4.0, 4.5, 4.2], Better::Lower, rel),
        Verdict::Held
    );
    let abs = Bound::Absolute(0.001);
    assert_eq!(
        verdict(&[0.0; 3], &[0.0005; 3], Better::Lower, abs),
        Verdict::Held
    );
    assert_eq!(
        verdict(&[0.0; 3], &[0.002; 3], Better::Lower, abs),
        Verdict::Regressed
    );
}

#[test]
fn compare_judges_results_files_by_the_declared_bounds() {
    let decl = Declarations::parse(
        r#"{"end_to_end": [{"name": "p50_ms.low", "unit": "ms", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "codec.resp_bytes", "unit": "bytes", "better": "lower"}]}"#,
    )
    .expect("declarations parse");
    let file = |p50: f64, fail: f64| {
        json::parse(&format!(
            r#"{{"stamp": {{"seed": 1}}, "workloads": {{"point-warm": {{"metrics": {{
                "p50_ms.low": {{"value": {p50}, "unit": "ms"}},
                "fail_frac": {{"value": {fail}, "unit": "frac"}},
                "codec.resp_bytes": {{"value": 24, "unit": "bytes"}}}}}}}}}}"#
        ))
        .expect("results parse")
    };
    let base: Vec<Json> = vec![file(1.0, 0.0), file(1.01, 0.0), file(0.99, 0.0)];
    let (text, regressed) = compare(&base, &[file(1.02, 0.0)], &decl);
    assert!(!regressed, "{text}");
    assert!(text.contains("held"), "{text}");
    assert!(text.contains("(no bound)"), "{text}");
    let (text, regressed) = compare(&base, &[file(1.3, 0.0)], &decl);
    assert!(regressed && text.contains("REGRESSED"), "{text}");
    // fail_frac is judged by its absolute bound.
    let (text, regressed) = compare(&base, &[file(1.0, 0.01)], &decl);
    assert!(regressed, "{text}");
}
