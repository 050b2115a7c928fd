//! The repo benchmark: CG time-to-solution, set-up and SpMV on four suite
//! workloads, with a per-layer trace. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! symspmv-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! symspmv-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! A run prints every metric by name and unit, then — as the last line of
//! standard output — the JSON object the driver reads. Without
//! `--workload` it runs all four, one child process each, so that peak
//! memory is attributable to a workload.

#![forbid(unsafe_code)]

mod e2e;
mod layers;
mod ops;
mod probe;
mod report;
mod stats;
mod trace;
mod workload;

use report::Verdict;
use std::io::Write;
use std::process::ExitCode;
use workload::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, for runs started by hand.
const DEFAULT_SECONDS: f64 = 20.0;
/// Where a traced run leaves its spans, relative to the working directory.
const OUT_DIR: &str = "benchmark/out";

const USAGE: &str = "usage:
  symspmv-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  symspmv-benchmark compare A.json B.json [--spec BENCHMARK.json]
workloads: hood-sss hood-csxsym g3-sss small-cg (default: each in turn)";

struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::by_name(value).ok_or_else(bad)?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(parsed)
}

/// `P = min(available_parallelism, 4)`: the thread count of every
/// multi-threaded measurement.
fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(4)
}

fn run_one(w: &'static Workload, args: &RunArgs) -> Result<bool, String> {
    let result = if args.traced {
        let path = format!("{OUT_DIR}/trace-{}-{}.json", w.name, args.seed);
        layers::run(w, args.seed, args.seconds, threads(), &path)?
    } else {
        e2e::run(w, args.seed, args.seconds, threads())
    };
    // A clean run reports exactly the metrics `BENCHMARK.json` declares.
    let declared: &[(&str, &str)] = if args.traced {
        &layers::METRICS
    } else {
        &e2e::METRICS
    };
    let reported: Vec<(&str, &str)> = result.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if result.failed == 0 && reported != declared {
        return Err(format!(
            "reported metrics {reported:?} differ from the declared {declared:?}"
        ));
    }
    if let Some(path) = &args.out {
        let line = result.record_json().write()?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{line}").map_err(|e| format!("{path}: {e}"))?;
    }
    print!("{}", result.table());
    println!("{}", result.contract_json().write()?);
    Ok(result.failed == 0)
}

/// Runs every workload in a child process of its own.
fn run_each(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", w.name])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = it.next().ok_or("--spec needs a value")?.clone();
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files[..] else {
        return Err("compare takes two result files".to_string());
    };
    let load = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let spec = report::parse_spec(&load(&spec_path)?).map_err(|e| format!("{spec_path}: {e}"))?;
    let a = report::parse_records(&load(a)?).map_err(|e| format!("{a}: {e}"))?;
    let b = report::parse_records(&load(b)?).map_err(|e| format!("{b}: {e}"))?;
    let rows = report::compare(&spec, &a, &b)?;
    print!("{}", report::rows_table(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let failed_ops = a.iter().chain(&b).map(|r| r.failed).sum::<u64>();
    println!(
        "{} rows: {} regression, {} unresolved (spread wider than the bound), {} failed operations",
        rows.len(),
        count(Verdict::Regression),
        count(Verdict::Unresolved),
        failed_ops
    );
    Ok(count(Verdict::Regression) == 0 && failed_ops == 0)
}

/// Exit code 0: clean run / no regression; 1: failed operations /
/// regression; 2: bad usage or I/O.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => parse_run(&args).and_then(|run| match run.workload {
            Some(w) => run_one(w, &run),
            None => run_each(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code name the same workloads and metrics.
    #[test]
    fn benchmark_json_agrees_with_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = report::parse_spec(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(spec.run_seconds, DEFAULT_SECONDS);
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        let e2e: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|g| (g.name.as_str(), g.unit.as_str()))
            .collect();
        assert_eq!(e2e, e2e::METRICS);
        let layer: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(layer, layers::METRICS);
    }

    #[test]
    fn run_flags_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let run = parse_run(&args("--workload g3-sss --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(run.workload.unwrap().name, "g3-sss");
        assert_eq!((run.seed, run.seconds, run.traced), (9, 3.0, true));
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--trace 2")).is_err());
        assert!(parse_run(&args("--seconds 0")).is_err());
        assert!(parse_run(&args("--seed")).is_err());
    }
}
