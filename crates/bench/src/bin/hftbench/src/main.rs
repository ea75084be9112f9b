//! `hftbench` — an open-loop, byte-verified serving benchmark.
//!
//! ```text
//! hftbench --workload W --seed N --seconds S --trace 0|1 [--full] [--out F]
//! hftbench run [--traced] [--seed N] [--out F]
//! hftbench compare BASE.json[,BASE.json...] CHANGE.json[,CHANGE.json...]
//! ```
//!
//! The first form measures one workload. Its phases share `--seconds`,
//! unless `--full` asks for the full protocol (15 s rungs and the
//! capacity ramp). Its last stdout line is a JSON object holding the
//! `BENCHMARK.json` metrics of its mode: end-to-end with `--trace 0`,
//! per-layer with `--trace 1`. `run` measures every workload with the
//! full protocol, one child process each so peak memory and the
//! process-wide registry stay per workload, and prints every metric.
//! `compare` judges a change's results files against a baseline's by
//! the bounds in `BENCHMARK.json`. See README.md for the workloads and
//! the layer map.

mod bench;
mod client;
mod fixture;
mod layers;
mod report;
mod schedule;
mod workload;

#[cfg(test)]
mod tests;

use hft_serve::json::Json;
use report::{Declarations, Report};
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage:
  hftbench --workload W --seed N --seconds S --trace 0|1 [--full] [--out F]
  hftbench run [--traced] [--seed N] [--out F]
  hftbench compare BASE.json[,BASE.json...] CHANGE.json[,CHANGE.json...]";

fn main() -> ExitCode {
    match cli(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hftbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cli(args: Vec<String>) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some(_) => one(&args),
        None => Err(USAGE.into()),
    }
}

/// Flag values by name; every flag but the listed switches takes one.
fn flags(args: &[String], switches: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            return Err(format!("unexpected argument {a:?}\n{USAGE}"));
        }
        if switches.contains(&a.as_str()) {
            out.push((a.clone(), String::new()));
        } else {
            let v = it.next().ok_or(format!("{a} needs a value"))?;
            out.push((a.clone(), v.clone()));
        }
    }
    Ok(out)
}

fn get<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

fn parse_num<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: T,
) -> Result<T, String> {
    get(flags, name).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad {name} {v:?}"))
    })
}

/// Measure one workload.
fn one(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--full"])?;
    for (k, _) in &flags {
        if ![
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--full",
            "--out",
        ]
        .contains(&k.as_str())
        {
            return Err(format!("unknown flag {k}\n{USAGE}"));
        }
    }
    let declared = Declarations::load()?;
    let w = get(&flags, "--workload")
        .and_then(Workload::parse)
        .ok_or(format!(
            "--workload must name one of the workloads\n{USAGE}"
        ))?;
    let seed: u64 = parse_num(&flags, "--seed", fixture::REPRO_SEED)?;
    let seconds: f64 = parse_num(&flags, "--seconds", 20.0)?;
    let traced = match get(&flags, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let plan = if get(&flags, "--full").is_some() {
        bench::Plan::full(traced)
    } else {
        bench::Plan::fitted(seconds, traced)
    };

    let report = bench::measure(w, seed, &plan)?;
    let json = report.to_json();
    eprint!("{}", table(w.name(), seed, &json));
    if let Some(path) = get(&flags, "--out") {
        write(path, &report::results(&[json], &[w.name()], seed, traced))?;
    }
    let line = report::result_line(
        &report,
        if traced {
            &declared.per_layer
        } else {
            &declared.end_to_end
        },
    )?;
    println!("{line}");
    Ok(exit_status(&report))
}

/// Exit status for a finished report: any wrong answer fails the run.
fn exit_status(report: &Report) -> ExitCode {
    match &report.first_mismatch {
        Some(m) if report.wrong > 0 => {
            eprintln!(
                "{}: {} wrong answers; first:\n{m}",
                report.workload.name(),
                report.wrong
            );
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

/// Every metric of one workload's report, by name with its unit.
fn table(name: &str, seed: u64, report: &Json) -> String {
    let num = |k: &str| report.get(k).and_then(Json::as_num).unwrap_or(0.0);
    let mut out = format!(
        "== {name} (seed {seed}): {} attempted, {} failed, correct {}\n",
        num("attempted"),
        num("failed"),
        report.get("correct") == Some(&Json::Bool(true)),
    );
    if let Some(Json::Obj(metrics)) = report.get("metrics") {
        for (metric, m) in metrics {
            let _ = writeln!(
                out,
                "  {metric:<30} {:>16.4} {:<6} n={:<8} {}",
                m.get("value").and_then(Json::as_num).unwrap_or(f64::NAN),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
                m.get("samples").and_then(Json::as_num).unwrap_or(0.0),
                m.get("kind").and_then(Json::as_str).unwrap_or(""),
            );
        }
    }
    for reason in report.get("invalid").and_then(Json::as_arr).unwrap_or(&[]) {
        let _ = writeln!(out, "  INVALID: {}", reason.as_str().unwrap_or(""));
    }
    out
}

fn write(path: &str, doc: &Json) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.encode() + "\n").map_err(|e| format!("write {path}: {e}"))
}

/// Every workload with the full protocol, one child process each.
fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--traced"])?;
    for (k, _) in &flags {
        if !["--traced", "--seed", "--out"].contains(&k.as_str()) {
            return Err(format!("unknown flag {k}\n{USAGE}"));
        }
    }
    let traced = get(&flags, "--traced").is_some();
    let seed: u64 = parse_num(&flags, "--seed", fixture::REPRO_SEED)?;
    let out = get(&flags, "--out")
        .map(String::from)
        .unwrap_or_else(|| format!("target/hftbench/run-{seed}.json"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut reports = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let part = format!("target/hftbench/run-{seed}-{}.json", w.name());
        let status = std::process::Command::new(&exe)
            .args([
                "--workload",
                w.name(),
                "--seed",
                &seed.to_string(),
                "--full",
            ])
            .args(["--trace", if traced { "1" } else { "0" }, "--out", &part])
            .stdout(std::process::Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        ok &= status.success();
        let doc = report::read_results(&part)?;
        let r = doc
            .get("workloads")
            .and_then(|ws| ws.get(w.name()))
            .cloned()
            .ok_or(format!("{part}: no {} report", w.name()))?;
        reports.push(r);
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let doc = report::results(&reports, &names, seed, traced);
    for (name, r) in names.iter().zip(&reports) {
        print!("{}", table(name, seed, r));
    }
    write(&out, &doc)?;
    println!("wrote {out}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Judge a change's results against a baseline's.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, change] = args else {
        return Err(USAGE.into());
    };
    let read = |list: &str| -> Result<Vec<Json>, String> {
        list.split(',').map(report::read_results).collect()
    };
    let (text, regressed) = report::compare(&read(base)?, &read(change)?, &Declarations::load()?);
    print!("{text}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
