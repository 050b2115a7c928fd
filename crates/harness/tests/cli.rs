//! End-to-end tests of the `experiments` binary's command-line interface.

use std::path::PathBuf;
use std::process::Command;
use symspmv_harness::kernels::KernelSpec;
use symspmv_harness::report::parse_csv;

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
        let out = bin().args(args).arg("--out").arg(&self.0).output().unwrap();
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

/// Reads `<file>` from the work directory as `(header, rows)`.
fn read_csv(wrk: &Workdir, file: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let text = std::fs::read_to_string(wrk.path(file)).unwrap();
    parse_csv(&text).unwrap_or_else(|| panic!("{file} is not CSV:\n{text}"))
}

#[test]
fn table3_reorders_and_writes_one_row_per_lineup_kernel() {
    let wrk = Workdir::new("table3");
    wrk.run(&[
        "table3", "--scale", "0.002", "--matrix", "hood", "--iters", "8",
    ]);
    let (header, rows) = read_csv(&wrk, "table3.csv");
    assert_eq!(
        header,
        [
            "format",
            "measured improvement",
            "paper (Dunnington)",
            "paper (Gainestown)"
        ]
    );
    let lineup: Vec<&str> = KernelSpec::figure11_lineup()
        .iter()
        .map(|s| s.name())
        .collect();
    let formats: Vec<&str> = rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(formats, lineup);

    // The table is written once, as CSV: no JSON copy beside it.
    let json: Vec<_> = std::fs::read_dir(&wrk.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    assert!(json.is_empty(), "unexpected {json:?}");
}

#[test]
fn fig13_reorders_and_writes_one_row_per_matrix() {
    let wrk = Workdir::new("fig13");
    wrk.run(&[
        "fig13", "--scale", "0.002", "--matrix", "hood", "--iters", "8",
    ]);
    let (header, rows) = read_csv(&wrk, "fig13.csv");
    let mut want = vec!["matrix".to_string()];
    want.extend(
        KernelSpec::figure11_lineup()
            .iter()
            .map(|s| format!("{} Gflop/s", s.name())),
    );
    assert_eq!(header, want);
    assert_eq!(rows.len(), 1, "{rows:?}");
    assert_eq!(rows[0][0], "hood");
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
fn removed_subcommands_print_usage() {
    const GONE: [&str; 3] = ["related", "atomics", "tune"];
    for gone in GONE {
        let out = bin().arg(gone).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "`{gone}` should be rejected");
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
