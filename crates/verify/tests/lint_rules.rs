//! Integration test for the lint engine: the whole tree is clean under
//! every rule of the table, and every rule demonstrably *can*
//! fail — each one catches its seeded-violation fixture and passes its
//! known-good twin. Fixtures live in `tests/fixtures/*.rs.txt` (the
//! extension keeps them out of the workspace walk the clean-tree test
//! performs).

use std::path::Path;
use symspmv_verify::rules::{run_rules, workspace_rust_files, Rule, SourceView};

fn workspace_root() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR is crates/verify; the workspace root is two up.
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

#[test]
fn whole_tree_is_clean_under_every_rule() {
    assert!(Rule::ALL.len() >= 4, "the rule table carries all rules");
    let findings = run_rules(&workspace_root())
        .expect("workspace walk")
        .findings;
    assert!(
        findings.is_empty(),
        "lint findings on the tree:\n{}",
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

/// The one walk reaches every layout piece that holds Rust code: crate
/// `src/bin` targets, the workspace-level `tests/` directory and the
/// benchmark package's `src/`.
#[test]
fn walker_covers_bin_targets_and_root_tests() {
    let files = workspace_rust_files(&workspace_root()).expect("workspace walk");
    let as_str: Vec<String> = files
        .iter()
        .map(|p| p.to_string_lossy().replace('\\', "/"))
        .collect();
    assert!(
        as_str.iter().any(|p| p.contains("verify/src/bin/audit.rs")),
        "bin targets missing from the walk"
    );
    assert!(
        as_str.iter().any(|p| p.ends_with("tests/lint_unsafe.rs")),
        "workspace-level tests missing from the walk"
    );
    assert!(
        as_str.iter().any(|p| p.ends_with("benchmark/src/main.rs")),
        "the benchmark package missing from the walk"
    );
    assert!(
        !as_str.iter().any(|p| p.ends_with(".rs.txt")),
        "fixtures must not enter the walk"
    );
}

/// Fixture pairs per rule: (rule name, path the rule applies to,
/// known-good source, seeded-violation source).
fn fixtures() -> Vec<(&'static str, &'static str, &'static str, &'static str)> {
    vec![
        (
            "unsafe-annotation",
            "crates/core/src/sym.rs",
            include_str!("fixtures/unsafe_good.rs.txt"),
            include_str!("fixtures/unsafe_bad.rs.txt"),
        ),
        (
            "checkpoint-coverage",
            "crates/runtime/src/pool.rs",
            include_str!("fixtures/checkpoint_good.rs.txt"),
            include_str!("fixtures/checkpoint_bad.rs.txt"),
        ),
        (
            "lock-order",
            "crates/runtime/src/context.rs",
            include_str!("fixtures/lockorder_good.rs.txt"),
            include_str!("fixtures/lockorder_bad.rs.txt"),
        ),
        (
            "relaxed-ordering",
            "crates/runtime/src/pool.rs",
            include_str!("fixtures/relaxed_good.rs.txt"),
            include_str!("fixtures/relaxed_bad.rs.txt"),
        ),
    ]
}

#[test]
fn every_rule_passes_its_known_good_fixture() {
    for (name, path, good, _) in fixtures() {
        let rule = Rule::ALL
            .into_iter()
            .find(|r| r.name() == name)
            .unwrap_or_else(|| panic!("rule {name} not registered"));
        let path = Path::new(path);
        assert!(rule.applies_to(path), "{name} must apply to {path:?}");
        let findings = rule.check(path, &SourceView::new(good));
        assert!(
            findings.is_empty(),
            "{name} flagged its known-good fixture: {findings:?}"
        );
    }
}

#[test]
fn every_rule_catches_its_seeded_violation_fixture() {
    for (name, path, _, bad) in fixtures() {
        let rule = Rule::ALL
            .into_iter()
            .find(|r| r.name() == name)
            .unwrap_or_else(|| panic!("rule {name} not registered"));
        let findings = rule.check(Path::new(path), &SourceView::new(bad));
        assert!(
            !findings.is_empty(),
            "{name} missed its seeded violation — the rule is vacuous"
        );
        for f in &findings {
            assert_eq!(f.rule, name);
            assert!(f.line > 0 && !f.excerpt.is_empty());
        }
    }
}

/// Every rule of the table appears in the fixture table — adding a rule
/// without a fixture pair fails here, keeping the "each rule has a
/// fixture-proven catch" guarantee alive.
#[test]
fn every_registered_rule_has_fixtures() {
    let covered: Vec<&str> = fixtures().iter().map(|(n, _, _, _)| *n).collect();
    for rule in Rule::ALL {
        assert!(
            covered.contains(&rule.name()),
            "rule {} has no fixture pair",
            rule.name()
        );
    }
}
