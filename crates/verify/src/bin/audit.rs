//! Workspace static-analysis binary: `cargo run -p symspmv-verify --bin audit`.
//!
//! Usage: `audit [ROOT] [--json FILE] [--markdown FILE]`
//!
//! One walk over every `.rs` file under the root
//! ([`symspmv_verify::rules::run_rules`]), each file masked once, reported
//! in two parts:
//!
//! 1. the **unsafe inventory** — each `unsafe` site with its certificate
//!    invariant, and the `audit: N unsafe sites` total;
//! 2. the **rule findings** — per rule of the closed table (unsafe
//!    annotation, checkpoint coverage, lock order, atomic-ordering audit),
//!    its finding count and description.
//!
//! `--json FILE` additionally writes the findings as a machine-readable
//! JSON document (rule, file, line, excerpt, message per finding);
//! `--markdown FILE` writes a findings table suitable for a CI job
//! summary. The exit code is non-zero iff any rule produced a finding.

use std::path::PathBuf;
use std::process::ExitCode;

use symspmv_verify::audit::UnsafeKind;
use symspmv_verify::jsonio::Json;
use symspmv_verify::rules::{run_rules, Analysis, Rule};

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/verify; the workspace root is two up.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

struct Cli {
    root: PathBuf,
    json: Option<PathBuf>,
    markdown: Option<PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        root: workspace_root(),
        json: None,
        markdown: None,
    };
    let mut args = std::env::args_os().skip(1);
    let mut saw_root = false;
    while let Some(arg) = args.next() {
        match arg.to_str() {
            Some("--json") => {
                cli.json = Some(PathBuf::from(args.next().ok_or("--json needs a path")?));
            }
            Some("--markdown") => {
                cli.markdown = Some(PathBuf::from(args.next().ok_or("--markdown needs a path")?));
            }
            Some(flag) if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            _ if !saw_root => {
                cli.root = PathBuf::from(arg);
                saw_root = true;
            }
            _ => return Err("at most one ROOT argument".to_string()),
        }
    }
    Ok(cli)
}

/// Escapes `|` so excerpts cannot break the markdown table.
fn md_cell(s: &str) -> String {
    s.replace('|', "\\|")
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("audit: {e}");
            eprintln!("usage: audit [ROOT] [--json FILE] [--markdown FILE]");
            return ExitCode::FAILURE;
        }
    };

    let Analysis { sites, findings } = match run_rules(&cli.root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("audit: cannot walk {}: {e}", cli.root.display());
            return ExitCode::FAILURE;
        }
    };
    let mut blocks = 0usize;
    let mut fns = 0usize;
    for site in &sites {
        match site.kind {
            UnsafeKind::Fn | UnsafeKind::Trait => fns += 1,
            UnsafeKind::Block | UnsafeKind::Impl => blocks += 1,
        }
        let tag = site.invariant.as_deref().unwrap_or(
            if matches!(site.kind, UnsafeKind::Fn | UnsafeKind::Trait) {
                "# Safety doc"
            } else {
                "-"
            },
        );
        println!(
            "{}:{}: {:?} [{}]",
            site.file.display(),
            site.line,
            site.kind,
            tag
        );
    }
    println!(
        "\naudit: {} unsafe sites ({blocks} blocks/impls, {fns} fns/traits)",
        sites.len(),
    );

    println!("\nrules: {} registered", Rule::ALL.len());
    for rule in Rule::ALL {
        let count = findings.iter().filter(|f| f.rule == rule.name()).count();
        println!(
            "  {:<22} {:>3} findings — {}",
            rule.name(),
            count,
            rule.description()
        );
    }
    for f in &findings {
        eprintln!(
            "audit: {}:{}: [{}] {}",
            f.file.display(),
            f.line,
            f.rule,
            f.message
        );
    }

    if let Some(path) = &cli.json {
        let doc = Json::Obj(vec![
            (
                "root".to_string(),
                Json::Str(cli.root.display().to_string()),
            ),
            (
                "rules".to_string(),
                Json::Arr(
                    Rule::ALL
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::Str(r.name().to_string())),
                                (
                                    "description".to_string(),
                                    Json::Str(r.description().to_string()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "findings".to_string(),
                Json::Arr(findings.iter().map(|f| f.to_json()).collect()),
            ),
        ]);
        let text = match doc.write() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("audit: cannot serialize findings: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("audit: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &cli.markdown {
        let mut md = String::from("## Static analysis findings\n\n");
        if findings.is_empty() {
            md.push_str("No findings: every rule passed on the whole tree. :white_check_mark:\n");
        } else {
            md.push_str("| Rule | File | Line | Excerpt |\n|---|---|---|---|\n");
            for f in &findings {
                md.push_str(&format!(
                    "| `{}` | `{}` | {} | `{}` |\n",
                    md_cell(f.rule),
                    md_cell(&f.file.display().to_string()),
                    f.line,
                    md_cell(&f.excerpt)
                ));
            }
        }
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("audit: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    println!(
        "\naudit: {} findings across {} rules",
        findings.len(),
        Rule::ALL.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
