//! Metrics, their JSON forms, and `compare`, which judges a change's
//! runs against a baseline's by the bounds in `BENCHMARK.json`.

use crate::workload::Workload;
use hft_serve::json::{self, Json};
use std::fmt::Write as _;

/// End-to-end (what a user sees) or a single layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Seen by a user of the service.
    EndToEnd,
    /// One layer's share.
    Layer,
}

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind it.
    pub samples: u64,
    /// End-to-end or per-layer.
    pub kind: Kind,
}

impl Metric {
    /// An end-to-end metric.
    pub fn e2e(name: &str, unit: &str, value: f64, samples: u64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
            samples,
            kind: Kind::EndToEnd,
        }
    }

    /// A per-layer metric.
    pub fn layer(name: &str, unit: &str, value: f64, samples: u64) -> Metric {
        Metric {
            kind: Kind::Layer,
            ..Metric::e2e(name, unit, value, samples)
        }
    }
}

/// Everything one workload measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Every metric, in emission order.
    pub metrics: Vec<Metric>,
    /// Requests offered in timed phases.
    pub attempted: u64,
    /// Refused, unexpected errors, wrong or never answered.
    pub failed: u64,
    /// Answers whose bytes differ from the reference.
    pub wrong: u64,
    /// The first wrong answer, described.
    pub first_mismatch: Option<String>,
    /// Reasons a phase's numbers cannot be trusted.
    pub invalid: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: Workload) -> Report {
        Report {
            workload,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: 0,
            first_mismatch: None,
            invalid: Vec::new(),
        }
    }

    /// Add a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// A metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The full JSON form, read back by `compare`.
    pub fn to_json(&self) -> Json {
        let (low, high) = self.workload.rates();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.wrong == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "rates".into(),
                Json::Arr(vec![Json::Num(low), Json::Num(high)]),
            ),
            (
                "invalid".into(),
                Json::Arr(self.invalid.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::Obj(vec![
                                    ("value".into(), Json::num_or_null(m.value)),
                                    ("unit".into(), Json::Str(m.unit.clone())),
                                    ("samples".into(), Json::Num(m.samples as f64)),
                                    (
                                        "kind".into(),
                                        Json::Str(
                                            match m.kind {
                                                Kind::EndToEnd => "end_to_end",
                                                Kind::Layer => "per_layer",
                                            }
                                            .into(),
                                        ),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// How far a metric may worsen before it counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the baseline's median.
    Relative(f64),
    /// An absolute amount.
    Absolute(f64),
}

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Regression bound; per-layer metrics have none.
    pub bound: Option<Bound>,
}

/// `BENCHMARK.json`'s metric lists.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarations {
    /// Gated end-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

/// The benchmark's declaration file, beside the repository root.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");

/// End-to-end metrics `BENCHMARK.json` does not gate, with the bounds
/// `compare` judges them by. Latency does not repeat within any bound
/// the gate allows on a small shared machine (see the README), the
/// capacity ramp does not fit a fitted run, `fail_frac` is 0 on a
/// healthy run, and only live-ingest publishes.
pub const UNGATED: [(&str, Better, Bound); 7] = [
    ("p50_ms.low", Better::Lower, Bound::Relative(0.10)),
    ("p50_ms.high", Better::Lower, Bound::Relative(0.10)),
    ("p99_ms.low", Better::Lower, Bound::Relative(0.10)),
    ("p99_ms.high", Better::Lower, Bound::Relative(0.10)),
    ("capacity_rps", Better::Higher, Bound::Relative(0.10)),
    ("fail_frac", Better::Lower, Bound::Absolute(0.001)),
    ("publish_p99_ms", Better::Lower, Bound::Relative(0.10)),
];

impl Declarations {
    /// Read `BENCHMARK.json`.
    pub fn load() -> Result<Declarations, String> {
        let text = std::fs::read_to_string(BENCHMARK_JSON)
            .map_err(|e| format!("read {BENCHMARK_JSON}: {e}"))?;
        Declarations::parse(&text)
    }

    /// Parse `BENCHMARK.json` text.
    pub fn parse(text: &str) -> Result<Declarations, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<Vec<Declared>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no {key} list"))?
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .ok_or(format!("BENCHMARK.json: {key} entry without {k}"))
                    };
                    Ok(Declared {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better: match field("better")? {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("BENCHMARK.json: better {other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_num).map(Bound::Relative),
                    })
                })
                .collect()
        };
        Ok(Declarations {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }

    /// Bound and direction for `name`, from the file or [`UNGATED`].
    fn rule(&self, name: &str) -> Option<(Better, Bound)> {
        self.end_to_end
            .iter()
            .find(|d| d.name == name)
            .and_then(|d| d.bound.map(|b| (d.better, b)))
            .or_else(|| {
                UNGATED
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .map(|&(_, better, bound)| (better, bound))
            })
    }
}

/// The line a fitted run prints last: the declared metrics of its mode.
pub fn result_line(report: &Report, declared: &[Declared]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for d in declared {
        let m = report.get(&d.name).ok_or(format!(
            "{}: declared metric {} not measured",
            report.workload.name(),
            d.name
        ))?;
        if m.unit != d.unit {
            return Err(format!(
                "{}: unit {} declared as {}",
                m.name, m.unit, d.unit
            ));
        }
        metrics.push((
            m.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::num_or_null(m.value)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(report.wrong == 0)),
        ("attempted".into(), Json::Num(report.attempted as f64)),
        ("failed".into(), Json::Num(report.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .encode())
}

/// A results file: the reports under a stamp naming the revision,
/// machine size, seed and rates they were measured with.
pub fn results(reports: &[Json], names: &[&str], seed: u64, traced: bool) -> Json {
    Json::Obj(vec![
        (
            "stamp".into(),
            Json::Obj(vec![
                ("git_rev".into(), Json::Str(git_rev())),
                (
                    "nproc".into(),
                    Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
                ),
                ("seed".into(), Json::Num(seed as f64)),
                ("traced".into(), Json::Bool(traced)),
            ]),
        ),
        (
            "workloads".into(),
            Json::Obj(
                names
                    .iter()
                    .zip(reports)
                    .map(|(n, r)| (n.to_string(), r.clone()))
                    .collect(),
            ),
        ),
    ])
}

/// The checkout's git revision, or `unknown` outside a repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// What `compare` concludes about one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the baseline by more than the bound.
    Regressed,
    /// Within the bound, or better on every run.
    Held,
    /// A side's run-to-run spread is wider than the bound.
    Unresolved,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them (the "exclusive" method) for sorted `values`.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    if ld < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_of(v: &[f64]) -> f64 {
    crate::bench::median(&sorted(v))
}

/// Judge one metric's change runs against its baseline runs.
pub fn verdict(base: &[f64], change: &[f64], better: Better, bound: Bound) -> Verdict {
    let (b, c) = (sorted(base), sorted(change));
    let (mb, mc) = (crate::bench::median(&b), crate::bench::median(&c));
    // Worsening is positive in the metric's own direction.
    let worse = |from: f64, to: f64| match better {
        Better::Lower => to - from,
        Better::Higher => from - to,
    };
    let all_better = b.iter().all(|&x| c.iter().all(|&y| worse(x, y) < 0.0));
    if all_better {
        return Verdict::Held;
    }
    let spread = |v: &[f64], m: f64| {
        let [q1, _, q3] = quartiles(v);
        match bound {
            Bound::Relative(_) if m != 0.0 => (q3 - q1) / m.abs(),
            Bound::Relative(_) => 0.0,
            Bound::Absolute(_) => q3 - q1,
        }
    };
    let (limit, by) = match bound {
        Bound::Relative(r) => (
            r,
            if mb != 0.0 {
                worse(mb, mc) / mb.abs()
            } else {
                worse(mb, mc)
            },
        ),
        Bound::Absolute(a) => (a, worse(mb, mc)),
    };
    if spread(&b, mb) > limit || spread(&c, mc) > limit {
        Verdict::Unresolved
    } else if by > limit {
        Verdict::Regressed
    } else {
        Verdict::Held
    }
}

/// Compare a change's results files against a baseline's. Returns the
/// printed table and whether anything regressed.
pub fn compare(base: &[Json], change: &[Json], decl: &Declarations) -> (String, bool) {
    let values = |files: &[Json], w: &str, m: &str| -> Vec<f64> {
        files
            .iter()
            .filter_map(|f| {
                f.get("workloads")?
                    .get(w)?
                    .get("metrics")?
                    .get(m)?
                    .get("value")?
                    .as_num()
            })
            .collect()
    };
    let stamp = |files: &[Json]| -> String {
        files
            .iter()
            .filter_map(|f| f.get("stamp").map(Json::encode))
            .collect::<Vec<_>>()
            .join("\n    ")
    };
    let mut out = format!(
        "baseline: {} run(s)\n    {}\nchange:   {} run(s)\n    {}\n",
        base.len(),
        stamp(base),
        change.len(),
        stamp(change)
    );
    let mut regressed = false;
    for w in Workload::ALL {
        let metric_names: Vec<String> = base
            .iter()
            .filter_map(
                |f| match f.get("workloads")?.get(w.name())?.get("metrics")? {
                    Json::Obj(pairs) => {
                        Some(pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>())
                    }
                    _ => None,
                },
            )
            .next()
            .unwrap_or_default();
        if metric_names.is_empty() {
            continue;
        }
        let _ = writeln!(out, "== {}", w.name());
        for name in metric_names {
            let (b, c) = (
                values(base, w.name(), &name),
                values(change, w.name(), &name),
            );
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let (mb, mc) = (median_of(&b), median_of(&c));
            let label = match decl.rule(&name) {
                Some((better, bound)) => {
                    let v = verdict(&b, &c, better, bound);
                    regressed |= v == Verdict::Regressed;
                    match v {
                        Verdict::Regressed => "REGRESSED",
                        Verdict::Held => "held",
                        Verdict::Unresolved => "unresolved",
                    }
                }
                None => "(no bound)",
            };
            let _ = writeln!(out, "  {name:<30} {mb:>14.4} -> {mc:>14.4}  {label}");
        }
    }
    (out, regressed)
}

/// Read a results file.
pub fn read_results(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}
