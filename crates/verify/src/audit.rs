//! The unsafe-audit lint: every `unsafe` block in the workspace must carry
//! a `// SAFETY(cert: <invariant>):` comment naming a certificate
//! invariant from the registry below, and every `unsafe fn` declaration
//! must document its contract with a `# Safety` doc section.
//!
//! The scanner is deliberately a lexer, not a parser: it masks comments,
//! strings and char literals, finds `unsafe` at word boundaries, classifies
//! the following token (`fn` / `impl` / `{` / trait body) and then searches
//! the preceding comment lines for the annotation. This catches the thing
//! that matters — an unsafe block nobody wrote a justification for —
//! without needing rustc internals.
//!
//! This module scans one file. The walk over the tree is the lint engine's
//! ([`crate::rules::run_rules`]): it masks each file once and takes both
//! the `unsafe` inventory and the `unsafe-annotation` rule's findings from
//! that view. Run as a test (`tests/lint_unsafe.rs` at the workspace root)
//! and as a binary: `cargo run -p symspmv-verify --bin audit`.

use std::fmt;
use std::path::{Path, PathBuf};

/// Certificate invariants a `SAFETY(cert: …)` annotation may reference.
/// Each name is established by a specific layer of the verification stack;
/// an annotation naming anything else fails the audit.
pub const KNOWN_INVARIANTS: &[(&str, &str)] = &[
    (
        "pool-barrier",
        "WorkerPool round barrier: workers are quiescent between rounds, so \
         the scoped-lifetime transmute never outlives the borrow",
    ),
    (
        "caller-disjoint",
        "SharedBuf contract: callers claim disjoint index sets per round",
    ),
    (
        "disjoint-direct",
        "write-set verifier: per-thread direct write ranges tile the output \
         disjointly (RaceCertificate invariant)",
    ),
    (
        "effective-region",
        "write-set verifier: transposed writes stay inside the thread's \
         declared local region (RaceCertificate invariant)",
    ),
    (
        "reduction-slice",
        "write-set verifier: reduction slices fold disjoint output targets \
         (RaceCertificate invariant)",
    ),
    (
        "lane-lifted",
        "write-set verifier: a scalar proof lifted to k lanes — block slot \
         row*lanes+lane inherits the scalar row's disjointness \
         (lift_sym_certificate side conditions)",
    ),
    (
        "color-class",
        "coloring verifier: rows of one class have pairwise disjoint write \
         sets (RaceCertificate invariant)",
    ),
    (
        "strict-lower",
        "SssMatrix: row r's stored columns are strictly ascending and < r, \
         established by its one constructor (no &mut method); with one \
         per-partition bound assert it keeps the SSS row walk's x, y and \
         local accesses in bounds",
    ),
    (
        "col-bound",
        "CsrMatrix: every stored column is < ncols (CooMatrix::push and \
         from_triplets reject larger ones; no &mut method); with one \
         x.len() == ncols assert it keeps the CSR gather in bounds",
    ),
    (
        "sweep-fills",
        "SssMatrix::build: the COO → SSS mirror sweep writes every slot of \
         the exactly sized lower arrays — each band checks it filled its \
         slice, the one-band sweep asserts it — before their lengths are set",
    ),
    (
        "first-touch",
        "uninitialized arena pages are written before first read, by the \
         thread that will own them",
    ),
    (
        "test-only",
        "test scaffolding exercising the unsafe API under a controlled \
         schedule; not reachable from library code",
    ),
];

/// What the `unsafe` keyword introduces at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnsafeKind {
    /// An `unsafe { … }` block (or `unsafe` expression position).
    Block,
    /// An `unsafe fn` declaration — requires a `# Safety` doc section.
    Fn,
    /// An `unsafe impl` (Send/Sync etc.) — requires `SAFETY(cert: …)`.
    Impl,
    /// An `unsafe trait` declaration.
    Trait,
}

/// One `unsafe` occurrence found by the scanner.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// File containing the site.
    pub file: PathBuf,
    /// 1-based line of the `unsafe` keyword.
    pub line: usize,
    /// What the keyword introduces.
    pub kind: UnsafeKind,
    /// The invariant named by the annotation, if any.
    pub invariant: Option<String>,
    /// Why the audit rejects the site, if it does.
    pub violation: Option<Violation>,
}

/// The ways a site can fail the audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// No `SAFETY(cert: …)` comment within reach of the site.
    Unannotated,
    /// The annotation names an invariant outside [`KNOWN_INVARIANTS`].
    UnknownInvariant(String),
    /// An `unsafe fn` without a `# Safety` doc section.
    MissingSafetyDoc,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Unannotated => write!(f, "no SAFETY(cert: ...) annotation"),
            Violation::UnknownInvariant(name) => {
                write!(f, "unknown certificate invariant `{name}`")
            }
            Violation::MissingSafetyDoc => write!(f, "unsafe fn without a `# Safety` doc section"),
        }
    }
}

/// Replaces comment, string-literal and char-literal bytes with spaces
/// (preserving newlines and `//`-comment text, which the annotation lookup
/// needs) so the keyword scan never fires inside them. Line comments are
/// *kept*; block comments, strings and chars are blanked.
pub(crate) fn mask_source(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                // Keep line comments verbatim — SAFETY annotations live here.
                while i < b.len() && b[i] != b'\n' {
                    out.push(b[i]);
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'"' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string r"..." / r#"..."#; count the hashes.
                let mut j = i + 1;
                let mut hashes = 0;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    // Blank the `r`, the hashes and the opening quote.
                    out.extend(std::iter::repeat_n(b' ', hashes + 2));
                    i += hashes + 2;
                    loop {
                        if i >= b.len() {
                            break;
                        }
                        if b[i] == b'"' {
                            let mut k = i + 1;
                            let mut seen = 0;
                            while k < b.len() && b[k] == b'#' && seen < hashes {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                out.extend(std::iter::repeat_n(b' ', k - i));
                                i = k;
                                break;
                            }
                        }
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                } else {
                    out.push(b[i]);
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime: 'x' or '\n' is a literal;
                // 'static / 'a are lifetimes and pass through.
                let is_char = (i + 1 < b.len() && b[i + 1] == b'\\')
                    || (i + 2 < b.len() && b[i + 2] == b'\'');
                if is_char {
                    out.push(b' ');
                    i += 1;
                    while i < b.len() {
                        if b[i] == b'\\' && i + 1 < b.len() {
                            out.extend_from_slice(b"  ");
                            i += 2;
                        } else if b[i] == b'\'' {
                            out.push(b' ');
                            i += 1;
                            break;
                        } else {
                            out.push(b' ');
                            i += 1;
                        }
                    }
                } else {
                    out.push(b[i]);
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Extracts `name` from a `SAFETY(cert: name)` marker in `line`, if any.
fn annotation_in(line: &str) -> Option<&str> {
    let pos = line.find("SAFETY(cert:")?;
    let rest = &line[pos + "SAFETY(cert:".len()..];
    let end = rest.find(')')?;
    Some(rest[..end].trim())
}

/// How many lines above a site the annotation lookup scans. Generous
/// enough for a multi-line justification plus attributes, small enough
/// that an annotation cannot accidentally cover a distant site.
const LOOKBACK: usize = 12;

/// Audits one file's source text. `path` is only recorded in the sites.
pub fn audit_source(path: &Path, src: &str) -> Vec<UnsafeSite> {
    audit_masked(path, &mask_source(src))
}

/// [`audit_source`] over text [`mask_source`] has already masked — the
/// view the rule engine builds once per file.
pub(crate) fn audit_masked(path: &Path, masked: &str) -> Vec<UnsafeSite> {
    let lines: Vec<&str> = masked.lines().collect();
    let bytes = masked.as_bytes();
    let mut line_starts = vec![0usize];
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |off: usize| match line_starts.binary_search(&off) {
        Ok(l) => l,
        Err(l) => l - 1,
    };

    let mut sites = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = masked[search..].find("unsafe") {
        let off = search + rel;
        search = off + "unsafe".len();
        // Word boundaries.
        if off > 0 && is_ident_byte(bytes[off - 1]) {
            continue;
        }
        if search < bytes.len() && is_ident_byte(bytes[search]) {
            continue;
        }
        let lineno = line_of(off);
        // Skip if the keyword itself sits inside a kept line comment.
        if let Some(cpos) = lines[lineno].find("//") {
            let col = off - line_starts[lineno];
            if col >= cpos {
                continue;
            }
        }
        // Classify by the next non-whitespace token.
        let after = masked[search..].trim_start();
        let kind = if after.starts_with("fn") {
            UnsafeKind::Fn
        } else if after.starts_with("impl") {
            UnsafeKind::Impl
        } else if after.starts_with("trait") {
            UnsafeKind::Trait
        } else {
            UnsafeKind::Block
        };

        let (invariant, violation) = match kind {
            UnsafeKind::Fn | UnsafeKind::Trait => {
                // Contract belongs in docs: look for `# Safety` in the doc
                // comment block above (or a SAFETY(cert: …) for private
                // helpers whose contract *is* a certificate invariant).
                let mut found = false;
                let mut inv = None;
                for back in lines[..lineno].iter().rev().take(LOOKBACK) {
                    let t = back.trim_start();
                    if let Some(name) = annotation_in(t) {
                        inv = Some(name.to_string());
                        found = true;
                        break;
                    }
                    if t.starts_with("///") && t.contains("# Safety") {
                        found = true;
                        break;
                    }
                    if !(t.starts_with("///")
                        || t.starts_with("//")
                        || t.starts_with("#[")
                        || t.starts_with("#![")
                        || t.is_empty()
                        || t.starts_with("pub")
                        || t.starts_with("const"))
                    {
                        break;
                    }
                }
                // Same-line trailing annotation also accepted.
                if !found {
                    if let Some(name) = annotation_in(lines[lineno]) {
                        inv = Some(name.to_string());
                        found = true;
                    }
                }
                match (found, &inv) {
                    (false, _) => (None, Some(Violation::MissingSafetyDoc)),
                    (true, Some(name)) if !known(name) => {
                        (inv.clone(), Some(Violation::UnknownInvariant(name.clone())))
                    }
                    (true, _) => (inv, None),
                }
            }
            UnsafeKind::Block | UnsafeKind::Impl => {
                // Look on the same line first, then upward through
                // comment/attribute/blank lines.
                let mut inv = annotation_in(lines[lineno]).map(str::to_string);
                if inv.is_none() {
                    for back in lines[..lineno].iter().rev().take(LOOKBACK) {
                        let t = back.trim_start();
                        if let Some(name) = annotation_in(t) {
                            inv = Some(name.to_string());
                            break;
                        }
                        if !(t.starts_with("//") || t.starts_with("#[") || t.is_empty()) {
                            break;
                        }
                    }
                }
                match &inv {
                    None => (None, Some(Violation::Unannotated)),
                    Some(name) if !known(name) => {
                        (inv.clone(), Some(Violation::UnknownInvariant(name.clone())))
                    }
                    Some(_) => (inv, None),
                }
            }
        };

        sites.push(UnsafeSite {
            file: path.to_path_buf(),
            line: lineno + 1,
            kind,
            invariant,
            violation,
        });
    }
    sites
}

fn known(name: &str) -> bool {
    KNOWN_INVARIANTS.iter().any(|&(k, _)| k == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(src: &str) -> Vec<UnsafeSite> {
        audit_source(Path::new("test.rs"), src)
    }

    #[test]
    fn annotated_block_passes() {
        let sites = audit(
            "fn f(p: *mut f64) {\n\
             \x20   // SAFETY(cert: disjoint-direct): p covers only our rows.\n\
             \x20   unsafe { *p = 1.0; }\n\
             }\n",
        );
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, UnsafeKind::Block);
        assert_eq!(sites[0].invariant.as_deref(), Some("disjoint-direct"));
        assert!(sites[0].violation.is_none());
        assert_eq!(sites[0].line, 3);
    }

    #[test]
    fn unannotated_block_fails() {
        let sites = audit("fn f(p: *mut f64) {\n    unsafe { *p = 1.0; }\n}\n");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].violation, Some(Violation::Unannotated));
    }

    #[test]
    fn unknown_invariant_fails() {
        let sites = audit("// SAFETY(cert: trust-me): it is fine.\nunsafe impl Send for X {}\n");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, UnsafeKind::Impl);
        assert_eq!(
            sites[0].violation,
            Some(Violation::UnknownInvariant("trust-me".to_string()))
        );
    }

    #[test]
    fn unsafe_fn_requires_safety_doc() {
        let bad = audit("pub unsafe fn poke(p: *mut u8) {}\n");
        assert_eq!(bad[0].kind, UnsafeKind::Fn);
        assert_eq!(bad[0].violation, Some(Violation::MissingSafetyDoc));

        let good = audit(
            "/// Pokes.\n///\n/// # Safety\n/// Caller owns `p`.\n\
             pub unsafe fn poke(p: *mut u8) {}\n",
        );
        assert!(good[0].violation.is_none());
    }

    #[test]
    fn keyword_in_strings_and_comments_ignored() {
        let sites = audit(
            "fn f() {\n\
             \x20   let s = \"unsafe { }\";\n\
             \x20   // unsafe in a comment\n\
             \x20   /* unsafe in a block comment */\n\
             \x20   let c = 'u';\n\
             \x20   let r = r#\"unsafe\"#;\n\
             \x20   let _ = (s, c, r);\n\
             }\n",
        );
        assert!(sites.is_empty(), "{sites:?}");
    }

    #[test]
    fn identifier_containing_unsafe_ignored() {
        let sites = audit("fn f() { let not_unsafe_at_all = 1; let unsafely = 2; }\n");
        assert!(sites.is_empty(), "{sites:?}");
    }

    #[test]
    fn annotation_does_not_reach_past_code() {
        // The annotation is separated from the block by a code line, so it
        // must NOT be credited to the block.
        let sites = audit(
            "// SAFETY(cert: disjoint-direct): for the first one.\n\
             fn g() {}\n\
             fn f(p: *mut f64) { unsafe { *p = 1.0; } }\n",
        );
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].violation, Some(Violation::Unannotated));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let sites = audit(
            "fn f<'a>(x: &'a [f64]) -> &'a f64 {\n\
             \x20   // SAFETY(cert: test-only): fixture.\n\
             \x20   unsafe { x.get_unchecked(0) }\n\
             }\n",
        );
        assert_eq!(sites.len(), 1);
        assert!(sites[0].violation.is_none(), "{sites:?}");
    }
}
