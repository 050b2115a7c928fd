//! End-to-end tests of the `experiments` binary's command-line interface.

use std::path::PathBuf;
use std::process::Command;
use symspmv_harness::kernels::KernelSpec;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

/// An output directory unique to this process and test, removed on drop.
/// The debug and `--release` test steps share `/tmp`, so a fixed name
/// would let one run delete the other's files mid-test.
struct Workdir(PathBuf);

impl Workdir {
    fn new(test: &str) -> Workdir {
        let dir = std::env::temp_dir().join(format!("symspmv_cli_{test}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Workdir(dir)
    }

    /// Runs `experiments <args> --out <this directory>`, requires
    /// success and returns its stdout.
    fn run(&self, args: &[&str]) -> String {
        let out = bin()
            .args(args)
            .arg("--out")
            .arg(&self.0)
            .env_remove("SYMSPMV_PLAN_STORE")
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage:"), "{err}");
}

#[test]
fn unknown_subcommand_rejected() {
    let out = bin().arg("fig99").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn unknown_flag_rejected() {
    let out = bin().args(["table1", "--bogus", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn bad_matrix_name_lists_valid_names() {
    let out = bin()
        .args(["table1", "--matrix", "not_a_matrix"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("ldoor"), "should list valid names: {err}");
}

#[test]
fn invalid_scale_rejected() {
    for bad in ["-1", "0", "abc", "inf", "1e300", "nan"] {
        let out = bin().args(["table1", "--scale", bad]).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "scale {bad} should be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "scale {bad}: {err}");
    }
}

#[test]
fn table1_runs_end_to_end() {
    let wrk = Workdir::new("table1");
    let stdout = wrk.run(&["table1", "--scale", "0.002", "--matrix", "hood"]);
    assert!(stdout.contains("hood"));
    assert!(stdout.contains("CR(CSX-Sym)"));
    assert!(wrk.path("table1.csv").exists());
}

#[test]
fn fig5_writes_csv_and_svg() {
    let wrk = Workdir::new("fig5");
    wrk.run(&["fig5", "--scale", "0.002", "--matrix", "nd12k"]);
    assert!(wrk.path("fig5.csv").exists());
    let svg = std::fs::read_to_string(wrk.path("fig5.svg")).unwrap();
    assert!(svg.starts_with("<svg"));
}

#[test]
fn verify_sweeps_every_kernel_spec() {
    let wrk = Workdir::new("verify");
    wrk.run(&[
        "verify",
        "--scale",
        "0.002",
        "--threads",
        "2",
        "--matrix",
        "hood",
    ]);
    let csv = std::fs::read_to_string(wrk.path("verify.csv")).unwrap();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let kernels_col = header.iter().position(|&h| h == "kernels").unwrap();
    let row: Vec<&str> = lines.next().unwrap().split(',').collect();
    assert_eq!(row[0], "hood");
    assert_eq!(
        row[kernels_col],
        KernelSpec::all().len().to_string(),
        "verify must sweep the whole KernelSpec::all() list"
    );
}

#[test]
fn tune_writes_csvs_and_the_plan_store_and_no_json_twin() {
    let wrk = Workdir::new("tune");
    // Far more threads than any test host has: the driver must clamp.
    let args = [
        "tune",
        "--scale",
        "0.002",
        "--threads",
        "64",
        "--matrix",
        "hood",
    ];
    let stdout = wrk.run(&args);
    let ncpus = symspmv_harness::machine::ncpus();
    assert_eq!(stdout.contains("clamped"), ncpus < 64, "{stdout}");
    assert!(wrk.path("tune_summary.csv").exists());
    assert!(wrk.path(".plan-store/plans.json").exists());

    // Both `idx` pairs are measured at every swept thread count, and no
    // swept count oversubscribes the host.
    let csv = std::fs::read_to_string(wrk.path("tune.csv")).unwrap();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(TUNE_HEADER));
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    let mut sweep: Vec<usize> = rows
        .iter()
        .map(|r| r[1].rsplit_once("-p").unwrap().1.parse().unwrap())
        .collect();
    sweep.sort_unstable();
    sweep.dedup();
    assert_eq!(sweep.first(), Some(&1));
    assert_eq!(sweep.last(), Some(&ncpus.min(64)));
    assert_eq!(rows.len(), 2 * sweep.len(), "{csv}");
    assert!(rows.iter().all(|r| r[1].contains("-idx-p")), "{csv}");
    assert!(!csv.contains("pruned"), "{csv}");
    assert_eq!(rows.iter().filter(|r| r[6].contains("winner")).count(), 1);

    // The search table is written once, as CSV: no JSON copy beside it.
    let json: Vec<_> = std::fs::read_dir(&wrk.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    assert!(json.is_empty(), "unexpected {json:?}");

    // A second process in the same workdir is served from the store.
    wrk.run(&args);
    let summary = std::fs::read_to_string(wrk.path("tune_summary.csv")).unwrap();
    let served: Vec<&str> = summary.lines().skip(1).collect();
    assert_eq!(served.len(), 1, "{summary}");
    assert!(served[0].starts_with("hood,store,"), "{summary}");
}

/// The search table's header: the score (`per-vector`, the lower quartile)
/// with its spread beside it.
const TUNE_HEADER: &str = "matrix,candidate,samples,per-vector,q1,q3,note";

#[test]
fn tune_tables_carry_the_spread_and_mark_a_tie() {
    let wrk = Workdir::new("tune_spread");
    wrk.run(&[
        "tune",
        "--scale",
        "0.004",
        "--threads",
        "2",
        "--matrix",
        "hood",
    ]);
    let read = |file| std::fs::read_to_string(wrk.path(file)).unwrap();
    let search = read("tune.csv");
    assert_eq!(search.lines().next(), Some(TUNE_HEADER));
    let summary = read("tune_summary.csv");
    let mut lines = summary.lines();
    assert_eq!(
        lines.next(),
        Some("matrix,source,plan,winner s/vec,default s/vec,win vs default")
    );
    // One fresh search: served from the store, a tie said as such.
    let row: Vec<&str> = lines.next().unwrap().split(',').collect();
    assert!(["store", "store (tie)"].contains(&row[1]), "{summary}");
    assert_eq!(
        row[1] == "store (tie)",
        search.contains("tied with the default"),
        "{search}"
    );
}

#[test]
fn removed_comparator_subcommands_print_usage() {
    const GONE: [&str; 2] = ["related", "atomics"];
    for gone in GONE {
        let out = bin().arg(gone).output().unwrap();
        assert!(!out.status.success(), "`{gone}` should be rejected");
        let err = String::from_utf8_lossy(&out.stderr);
        let usage = err
            .lines()
            .find(|l| l.starts_with("usage:"))
            .unwrap_or_else(|| panic!("`{gone}` should print the usage line: {err}"));
        for name in GONE {
            assert!(!usage.contains(name), "usage still lists `{name}`: {usage}");
        }
    }
}
