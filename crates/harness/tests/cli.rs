//! End-to-end tests of the `experiments` binary's command-line interface.

use std::process::Command;
use symspmv_harness::kernels::KernelSpec;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
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
    for bad in ["-1", "0", "abc"] {
        let out = bin().args(["table1", "--scale", bad]).output().unwrap();
        assert!(!out.status.success(), "scale {bad} should be rejected");
    }
}

#[test]
fn table1_runs_end_to_end() {
    let dir = std::env::temp_dir().join("symspmv_cli_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .args([
            "table1",
            "--scale",
            "0.002",
            "--matrix",
            "hood",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("hood"));
    assert!(stdout.contains("CR(CSX-Sym)"));
    assert!(dir.join("table1.csv").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig5_writes_csv_and_svg() {
    let dir = std::env::temp_dir().join("symspmv_cli_fig5");
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .args([
            "fig5",
            "--scale",
            "0.002",
            "--matrix",
            "nd12k",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(dir.join("fig5.csv").exists());
    assert!(dir.join("fig5.svg").exists());
    let svg = std::fs::read_to_string(dir.join("fig5.svg")).unwrap();
    assert!(svg.starts_with("<svg"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn verify_sweeps_every_kernel_spec() {
    let dir = std::env::temp_dir().join("symspmv_cli_verify");
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .args([
            "verify",
            "--scale",
            "0.002",
            "--threads",
            "2",
            "--matrix",
            "hood",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read_to_string(dir.join("verify.csv")).unwrap();
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
    let _ = std::fs::remove_dir_all(&dir);
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
