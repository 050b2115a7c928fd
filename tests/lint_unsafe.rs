//! Unsafe-audit lint: every `unsafe` block in the workspace must carry a
//! `// SAFETY(cert: <invariant>)` annotation referencing a *named* race
//! certificate invariant, and every `unsafe fn`/`unsafe trait` must
//! document its contract. The same walk backs the standalone binary
//! (`cargo run -p symspmv-verify --bin audit`); this test fails CI when a
//! bare `unsafe` slips in.

use symspmv_verify::audit::{audit_source, Violation, KNOWN_INVARIANTS};
use symspmv_verify::rules::run_rules;

fn workspace_root() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_has_no_unannotated_unsafe() {
    let sites = run_rules(&workspace_root())
        .expect("workspace scan must succeed")
        .sites;
    assert!(
        !sites.is_empty(),
        "the scanner must find the kernels' unsafe blocks — an empty \
         report means the scan is broken, not that the code is safe"
    );
    let violations: Vec<_> = sites.iter().filter(|s| s.violation.is_some()).collect();
    assert!(
        violations.is_empty(),
        "unannotated or mis-annotated unsafe:\n{}",
        violations
            .iter()
            .map(|s| format!(
                "  {}:{}: {}",
                s.file.display(),
                s.line,
                s.violation
                    .as_ref()
                    .map(ToString::to_string)
                    .unwrap_or_default()
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Self-test demanded by the acceptance criteria: injecting an unannotated
/// block into the scan must produce a violation — proving the lint can
/// actually fail, not that it vacuously passes.
#[test]
fn injected_unannotated_block_is_flagged() {
    let src = "fn f(p: *mut u8) {\n    unsafe { *p = 0; }\n}\n";
    let sites = audit_source(std::path::Path::new("injected.rs"), src);
    assert_eq!(sites.len(), 1);
    assert_eq!(sites[0].line, 2);
    assert!(matches!(sites[0].violation, Some(Violation::Unannotated)));
}

/// An annotation naming an invariant outside the registry is as bad as no
/// annotation: the certificate it claims to reference does not exist.
#[test]
fn unknown_invariant_is_flagged() {
    let src = "fn f(p: *mut u8) {\n    // SAFETY(cert: made-up-invariant): trust me.\n    unsafe { *p = 0; }\n}\n";
    let sites = audit_source(std::path::Path::new("injected.rs"), src);
    assert!(matches!(
        sites[0].violation,
        Some(Violation::UnknownInvariant(_))
    ));
}

/// The workspace is clean under the full rule engine too — the rule table
/// that the `audit` binary and the CI `analysis` job run.
#[test]
fn workspace_is_clean_under_the_rule_engine() {
    let findings = run_rules(&workspace_root())
        .expect("workspace scan must succeed")
        .findings;
    assert!(
        findings.is_empty(),
        "rule findings:\n{}",
        findings
            .iter()
            .map(|f| format!(
                "  {}:{}: [{}] {}",
                f.file.display(),
                f.line,
                f.rule,
                f.message
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Regression for the walker gap: the original unsafe lint missed
/// `crates/*/src/bin` targets (and the workspace `src/`). A violation
/// planted in a synthetic bin target must be found by the rule engine's
/// walk — if the walker regresses to `src/lib.rs`-only, this fails.
#[test]
fn violation_planted_in_a_bin_target_is_caught() {
    let scratch = std::env::temp_dir().join(format!("symspmv-lint-walk-{}", std::process::id()));
    let bin_dir = scratch.join("crates/tool/src/bin");
    std::fs::create_dir_all(&bin_dir).expect("scratch tree");
    std::fs::write(
        bin_dir.join("planted.rs"),
        "fn main() {\n    let p = std::ptr::null_mut::<u8>();\n    unsafe { *p = 0; }\n}\n",
    )
    .expect("planted source");
    // A clean library file alongside, so the walk covers both layouts.
    std::fs::write(
        scratch.join("crates/tool/src").join("lib.rs"),
        "pub fn fine() {}\n",
    )
    .expect("clean source");

    let findings = run_rules(&scratch).expect("scratch walk").findings;
    let _ = std::fs::remove_dir_all(&scratch);

    assert!(
        findings.iter().any(|f| f.rule == "unsafe-annotation"
            && f.file
                .to_string_lossy()
                .replace('\\', "/")
                .contains("src/bin/planted.rs")),
        "the planted bin-target violation was not found: {findings:?}"
    );
}

/// A gate run leaves a source copy of the base revision under
/// `benchmark/out/gate/src`; counting it would double every site.
#[test]
fn audit_skips_the_gate_checkout_under_benchmark_out() {
    let scratch = std::env::temp_dir().join(format!("symspmv-audit-walk-{}", std::process::id()));
    let site = "fn f(p: *mut u8) {\n    // SAFETY(cert: disjoint-direct): fixture.\n    unsafe { *p = 0; }\n}\n";
    for dir in ["benchmark/out/gate/src", "crates/x/src"] {
        std::fs::create_dir_all(scratch.join(dir)).expect("scratch tree");
        std::fs::write(scratch.join(dir).join("lib.rs"), site).expect("audited source");
    }

    let sites = run_rules(&scratch).expect("scratch walk").sites;
    let _ = std::fs::remove_dir_all(&scratch);

    assert_eq!(sites.len(), 1, "{sites:?}");
    assert!(sites[0].file.ends_with("crates/x/src/lib.rs"));
}

/// The invariant registry stays meaningful: every name the kernels cite is
/// registered, the registry carries its rationale strings, and every
/// registered name is cited by at least one audited site — the table
/// cannot keep entries for deleted code.
#[test]
fn invariant_registry_is_well_formed() {
    assert!(KNOWN_INVARIANTS.len() >= 8);
    let sites = run_rules(&workspace_root())
        .expect("workspace scan must succeed")
        .sites;
    for (name, why) in KNOWN_INVARIANTS {
        assert!(!name.is_empty() && !why.is_empty());
        assert!(
            name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
            "invariant names are kebab-case: {name}"
        );
        assert!(
            sites.iter().any(|s| s.invariant.as_deref() == Some(*name)),
            "no audited unsafe site cites the registered invariant {name}"
        );
    }
    // No duplicates.
    let mut names: Vec<_> = KNOWN_INVARIANTS.iter().map(|(n, _)| n).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), KNOWN_INVARIANTS.len());
}
