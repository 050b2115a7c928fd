//! The lint engine: one walk of the tree, one masked view per file, one
//! closed table of rules.
//!
//! [`workspace_rust_files`] is the only walker: every `.rs` file under the
//! root except `target`, hidden directories and `benchmark/out`. For each
//! file [`run_rules`] builds one masked [`SourceView`], takes the `unsafe`
//! inventory from it ([`crate::audit`]) and runs every [`Rule`] that
//! applies to the path. A rule is a token-level check returning
//! [`Finding`]s that name the rule, the file, the line and an excerpt.
//! Like the audit scanner, rules are lexers rather than parsers — they
//! catch the property that matters (a pool-round loop with no checkpoint,
//! an inverted lock pair, an unjustified relaxed atomic) without rustc
//! internals, and every rule ships a known-good and a seeded-violation
//! fixture proving it fires.

use crate::audit::{self, mask_source, UnsafeSite};
use std::path::{Path, PathBuf};

/// One lint finding: a rule firing at a specific line.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Name of the rule that fired.
    pub rule: &'static str,
    /// File containing the violation.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
    /// What the rule demands and did not find.
    pub message: String,
}

impl Finding {
    /// Serializes the finding as a JSON object (rule, file, line, excerpt,
    /// message).
    pub fn to_json(&self) -> crate::jsonio::Json {
        use crate::jsonio::Json;
        Json::Obj(vec![
            ("rule".to_string(), Json::Str(self.rule.to_string())),
            (
                "file".to_string(),
                Json::Str(self.file.display().to_string()),
            ),
            ("line".to_string(), Json::Num(self.line as f64)),
            ("excerpt".to_string(), Json::Str(self.excerpt.clone())),
            ("message".to_string(), Json::Str(self.message.clone())),
        ])
    }
}

/// Masked views of one file, shared by all rules so each file is masked
/// once per run.
#[derive(Debug)]
pub struct SourceView {
    /// Comments kept, strings/chars/block-comments blanked — the view for
    /// finding annotations (`RELAXED(…)`, `SAFETY(…)`).
    pub with_comments: String,
    /// Like `with_comments` but with line comments blanked too — the view
    /// for finding code tokens without doc-example false positives.
    pub code_only: String,
    /// Per line: whether it sits inside a `#[cfg(test)]`-gated item.
    pub test_lines: Vec<bool>,
}

impl SourceView {
    /// Masks `src` into the two views and marks `#[cfg(test)]` regions.
    pub fn new(src: &str) -> Self {
        let with_comments = mask_source(src);
        let code_only: String = with_comments
            .lines()
            .map(|l| match l.find("//") {
                Some(pos) => format!("{}{}\n", &l[..pos], " ".repeat(l.len() - pos)),
                None => format!("{l}\n"),
            })
            .collect();
        let test_lines = mark_test_regions(&code_only);
        SourceView {
            with_comments,
            code_only,
            test_lines,
        }
    }

    fn comment_lines(&self) -> Vec<&str> {
        self.with_comments.lines().collect()
    }

    fn code_lines(&self) -> Vec<&str> {
        self.code_only.lines().collect()
    }

    fn in_test(&self, lineno: usize) -> bool {
        self.test_lines.get(lineno).copied().unwrap_or(false)
    }
}

/// Marks every line belonging to a `#[cfg(test)]` item by matching the
/// braces of the item that follows the attribute. Operates on the
/// code-only view so braces in comments and strings cannot unbalance it.
fn mark_test_regions(code_only: &str) -> Vec<bool> {
    let lines: Vec<&str> = code_only.lines().collect();
    let mut test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].trim_start().starts_with("#[cfg(test)]") {
            // Find the opening brace of the gated item, then its close.
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            'scan: while j < lines.len() {
                for b in lines[j].bytes() {
                    match b {
                        b'{' => {
                            depth += 1;
                            opened = true;
                        }
                        b'}' => depth -= 1,
                        b';' if !opened && depth == 0 => break 'scan, // braceless item
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            for t in test.iter_mut().take((j + 1).min(lines.len())).skip(i) {
                *t = true;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    test
}

/// Whether the path is test scaffolding the code-pattern rules exempt:
/// under a `tests`/`benches`/`examples` directory, or a file whose stem is
/// `tests` or ends in `_tests`.
pub fn is_test_path(path: &Path) -> bool {
    let in_test_dir = path.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests") | Some("benches") | Some("examples")
        )
    });
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    in_test_dir || stem == "tests" || stem.ends_with("_tests")
}

/// The lint rules: a closed table, one variant per rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Every `unsafe` site needs its `SAFETY(cert: …)` / `# Safety`
    /// justification: the [`crate::audit`] scan's violations.
    UnsafeAnnotation,
    /// Every pool-round loop in the runtime passes a supervision
    /// checkpoint before dispatching the round.
    CheckpointCoverage,
    /// The pool lock is acquired before any health/supervision lock, never
    /// inverted.
    LockOrder,
    /// Every `Ordering::Relaxed` in library code states why the weakest
    /// ordering suffices.
    RelaxedOrdering,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 4] = [
        Rule::UnsafeAnnotation,
        Rule::CheckpointCoverage,
        Rule::LockOrder,
        Rule::RelaxedOrdering,
    ];

    /// Stable rule name (kebab-case), used in reports and JSON findings.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnsafeAnnotation => "unsafe-annotation",
            Rule::CheckpointCoverage => "checkpoint-coverage",
            Rule::LockOrder => "lock-order",
            Rule::RelaxedOrdering => "relaxed-ordering",
        }
    }

    /// One-line description of the property the rule enforces.
    pub fn description(self) -> &'static str {
        match self {
            Rule::UnsafeAnnotation => {
                "every unsafe block/impl names a certificate invariant; every unsafe fn documents # Safety"
            }
            Rule::CheckpointCoverage => {
                "every pool-round dispatch is preceded by a supervision checkpoint"
            }
            Rule::LockOrder => "pool lock before health lock, never inverted",
            Rule::RelaxedOrdering => "every Ordering::Relaxed carries a RELAXED(reason) annotation",
        }
    }

    /// Whether the rule inspects this file at all.
    pub fn applies_to(self, path: &Path) -> bool {
        match self {
            Rule::UnsafeAnnotation => true,
            Rule::CheckpointCoverage | Rule::LockOrder => {
                path_in_runtime_src(path) && !is_test_path(path)
            }
            Rule::RelaxedOrdering => !is_test_path(path),
        }
    }

    /// Runs the rule over the masked views of one file.
    pub fn check(self, path: &Path, view: &SourceView) -> Vec<Finding> {
        match self {
            Rule::UnsafeAnnotation => unsafe_annotation(path, view),
            Rule::CheckpointCoverage => checkpoint_coverage(path, view),
            Rule::LockOrder => lock_order(path, view),
            Rule::RelaxedOrdering => relaxed_ordering(path, view),
        }
    }

    /// This rule's finding at 0-based line `lineno`, whose text is `line`.
    fn finding(self, path: &Path, lineno: usize, line: &str, message: String) -> Finding {
        Finding {
            rule: self.name(),
            file: path.to_path_buf(),
            line: lineno + 1,
            excerpt: line.trim().to_string(),
            message,
        }
    }
}

/// [`Rule::UnsafeAnnotation`]: the audit scan over the already-masked
/// view, one finding per violating site.
fn unsafe_annotation(path: &Path, view: &SourceView) -> Vec<Finding> {
    let lines = view.comment_lines();
    audit::audit_masked(path, &view.with_comments)
        .into_iter()
        .filter_map(|site| {
            let violation = site.violation?;
            let line = lines.get(site.line - 1).copied().unwrap_or_default();
            Some(Rule::UnsafeAnnotation.finding(path, site.line - 1, line, violation.to_string()))
        })
        .collect()
}

/// How many lines above a pool-round dispatch the checkpoint may sit.
const CHECKPOINT_WINDOW: usize = 30;

/// [`Rule::CheckpointCoverage`], token form: a line advancing the round
/// counter (`rounds += 1`) must be preceded, within [`CHECKPOINT_WINDOW`]
/// lines, by a supervision snapshot (`supervision…snapshot()`).
fn checkpoint_coverage(path: &Path, view: &SourceView) -> Vec<Finding> {
    let lines = view.code_lines();
    let mut findings = Vec::new();
    for (lineno, line) in lines.iter().enumerate() {
        if !line.contains("rounds += 1") || view.in_test(lineno) {
            continue;
        }
        let covered = lines[..lineno]
            .iter()
            .rev()
            .take(CHECKPOINT_WINDOW)
            .any(|back| back.contains("supervision") && back.contains(".snapshot()"));
        if !covered {
            findings.push(Rule::CheckpointCoverage.finding(
                path,
                lineno,
                line,
                format!(
                    "pool round advanced without a supervision checkpoint in the {CHECKPOINT_WINDOW} preceding lines"
                ),
            ));
        }
    }
    findings
}

/// How many lines after a health-lock acquisition a pool-lock acquisition
/// counts as nested.
const LOCK_WINDOW: usize = 15;

/// Tokens that acquire a health/supervision mutex (`supervisor.rs`'s
/// supervision slot).
const HEALTH_LOCK_TOKENS: &[&str] = &["lock_ignore_poison(&self.slot"];

/// Tokens that acquire the pool mutex.
const POOL_LOCK_TOKENS: &[&str] = &[
    "lock_ignore_poison(&self.pool",
    "lock_ignore_poison(&ctx.pool",
    ".pool.lock(",
];

/// [`Rule::LockOrder`]: the watchdog takes health locks while a dispatch
/// holds the pool, so the reverse nesting order would deadlock. Token
/// form: a health-lock acquisition ([`HEALTH_LOCK_TOKENS`]) must not be
/// followed within [`LOCK_WINDOW`] lines by a pool-lock acquisition.
fn lock_order(path: &Path, view: &SourceView) -> Vec<Finding> {
    let lines = view.code_lines();
    let mut findings = Vec::new();
    for (lineno, line) in lines.iter().enumerate() {
        let takes_health = HEALTH_LOCK_TOKENS.iter().any(|t| line.contains(t));
        if !takes_health || view.in_test(lineno) {
            continue;
        }
        let nested = lines.iter().enumerate().skip(lineno + 1).take(LOCK_WINDOW);
        for (ahead, after) in nested {
            if POOL_LOCK_TOKENS.iter().any(|t| after.contains(t)) {
                findings.push(Rule::LockOrder.finding(
                    path,
                    ahead,
                    after,
                    format!(
                        "pool lock taken {} lines after a health lock (line {}): inverted order",
                        ahead - lineno,
                        lineno + 1
                    ),
                ));
                break;
            }
        }
    }
    findings
}

/// How many lines above a relaxed atomic the annotation may sit.
const RELAXED_WINDOW: usize = 4;

/// [`Rule::RelaxedOrdering`]: a `RELAXED(reason)` comment on the same line
/// or within [`RELAXED_WINDOW`] lines above states why the weakest
/// ordering is sufficient at that site.
fn relaxed_ordering(path: &Path, view: &SourceView) -> Vec<Finding> {
    let code = view.code_lines();
    let comments = view.comment_lines();
    let mut findings = Vec::new();
    for (lineno, line) in code.iter().enumerate() {
        if !line.contains("Ordering::Relaxed") || view.in_test(lineno) {
            continue;
        }
        let lo = lineno.saturating_sub(RELAXED_WINDOW);
        let annotated = comments[lo..=lineno.min(comments.len() - 1)]
            .iter()
            .any(|l| l.contains("RELAXED("));
        if !annotated {
            findings.push(Rule::RelaxedOrdering.finding(
                path,
                lineno,
                line,
                "Ordering::Relaxed without a RELAXED(reason) annotation".to_string(),
            ));
        }
    }
    findings
}

fn path_in_runtime_src(path: &Path) -> bool {
    let s = path.to_string_lossy().replace('\\', "/");
    s.contains("runtime/src/")
}

/// Every `.rs` file under `root`, sorted: the one walk behind the `unsafe`
/// inventory and every rule. Skips `target`, hidden directories and
/// `benchmark/out` (where `bench/gate.sh` leaves a source copy of the base
/// revision).
pub fn workspace_rust_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let benchmark_out = root.join("benchmark").join("out");
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for path in std::fs::read_dir(&dir)?.filter_map(|e| e.ok().map(|e| e.path())) {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') && path != benchmark_out {
                    stack.push(path);
                }
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// What one walk of the tree finds.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Every `unsafe` site, annotated or not, in file order.
    pub sites: Vec<UnsafeSite>,
    /// Every rule's findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
}

/// Walks the tree once: masks each file once, takes its `unsafe` sites for
/// the inventory and runs every applicable [`Rule`] over the same view.
pub fn run_rules(root: &Path) -> std::io::Result<Analysis> {
    let mut analysis = Analysis::default();
    for path in workspace_rust_files(root)? {
        let view = SourceView::new(&std::fs::read_to_string(&path)?);
        analysis
            .sites
            .extend(audit::audit_masked(&path, &view.with_comments));
        for rule in Rule::ALL.into_iter().filter(|r| r.applies_to(&path)) {
            analysis.findings.extend(rule.check(&path, &view));
        }
    }
    analysis
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(rule: Rule, path: &str, src: &str) -> Vec<Finding> {
        rule.check(Path::new(path), &SourceView::new(src))
    }

    #[test]
    fn relaxed_needs_annotation() {
        let rule = Rule::RelaxedOrdering;
        let bad = check(
            rule,
            "crates/runtime/src/pool.rs",
            "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n",
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "relaxed-ordering");

        let good = check(
            rule,
            "crates/runtime/src/pool.rs",
            "// RELAXED(counter is advisory telemetry, no ordering needed)\n\
             fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn relaxed_in_doc_comment_or_test_mod_exempt() {
        let rule = Rule::RelaxedOrdering;
        let doc = check(
            rule,
            "crates/runtime/src/pool.rs",
            "/// Example: `a.load(Ordering::Relaxed)` is fine here.\nfn f() {}\n",
        );
        assert!(doc.is_empty(), "{doc:?}");
        let test_mod = check(
            rule,
            "crates/runtime/src/pool.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::*;\n    fn g(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n}\n",
        );
        assert!(test_mod.is_empty(), "{test_mod:?}");
        assert!(!rule.applies_to(Path::new("crates/runtime/src/stress_tests.rs")));
        assert!(!rule.applies_to(Path::new("crates/core/tests/oracle.rs")));
    }

    #[test]
    fn checkpoint_coverage_window() {
        let rule = Rule::CheckpointCoverage;
        assert!(rule.applies_to(Path::new("crates/runtime/src/pool.rs")));
        assert!(!rule.applies_to(Path::new("crates/core/src/plan.rs")));
        let bad = check(
            rule,
            "crates/runtime/src/pool.rs",
            "fn dispatch(&mut self) {\n    self.rounds += 1;\n}\n",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        let good = check(
            rule,
            "crates/runtime/src/pool.rs",
            "fn dispatch(&mut self) {\n    let sup = self.supervision.snapshot();\n    sup.check();\n    self.rounds += 1;\n}\n",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn lock_order_inversion_detected() {
        let rule = Rule::LockOrder;
        let bad = check(
            rule,
            "crates/runtime/src/context.rs",
            "fn f(&self) {\n    let h = lock_ignore_poison(&self.slot);\n    let p = lock_ignore_poison(&self.pool);\n    drop((h, p));\n}\n",
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].rule, "lock-order");
        let good = check(
            rule,
            "crates/runtime/src/context.rs",
            "fn f(&self) {\n    let p = lock_ignore_poison(&self.pool);\n    let h = lock_ignore_poison(&self.slot);\n    drop((h, p));\n}\n",
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn unsafe_rule_reports_via_registry() {
        let rule = Rule::UnsafeAnnotation;
        let bad = check(
            rule,
            "crates/core/src/x.rs",
            "fn f(p: *mut f64) { unsafe { *p = 1.0; } }\n",
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "unsafe-annotation");
        assert_eq!(bad[0].line, 1);
    }

    #[test]
    fn test_region_marking_matches_braces() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let view = SourceView::new(src);
        assert_eq!(view.test_lines, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn findings_serialize_to_json() {
        let f = Finding {
            rule: "relaxed-ordering",
            file: PathBuf::from("crates/x/src/lib.rs"),
            line: 7,
            excerpt: "a.load(Ordering::Relaxed);".to_string(),
            message: "needs RELAXED(reason)".to_string(),
        };
        let text = f.to_json().write().unwrap();
        assert!(text.contains("\"rule\":\"relaxed-ordering\""));
        assert!(text.contains("\"line\":7"));
    }
}
