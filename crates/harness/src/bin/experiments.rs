//! `experiments` — regenerates every table and figure of the paper's §V.
//!
//! ```text
//! experiments <subcommand> [options]
//!
//! subcommands:
//!   table1   Table I   — suite characteristics, compression ratios
//!   fig4     Figure 4  — effective-region density vs threads
//!   fig5     Figure 5  — reduction working-set overhead vs threads
//!   fig9     Figure 9  — speedup of the reduction methods vs CSR
//!   fig10    Figure 10 — multiply/reduce time breakdown
//!   fig11    Figure 11 — CSX-Sym speedup vs CSR/CSX/SSS-idx
//!   fig12    Figure 12 — per-matrix Gflop/s at max threads
//!   table3   Table III — improvement from RCM reordering
//!   fig13    Figure 13 — per-matrix Gflop/s, RCM-reordered
//!   preproc  §V-E      — CSX-Sym preprocessing cost
//!   fig14    Figure 14 — CG execution-time breakdown
//!   ablation extension — CSX-Sym detection-config design space
//!   spmm     extension — batched multi-RHS SpMM per-vector speedup
//!   kinds    extension — skew/structural engines and the skew+RCM effect
//!   tune     extension — measured plan search + persisted plan store
//!   verify   extension — every kernel vs reference on the full suite
//!   chaos    extension — seeded fault-injection soak of the resilient
//!                        service (build with --features fault-injection)
//!   plot     extension — re-render SVG figures from existing CSVs
//!   machine  extension — host characterization (Table II substitute)
//!   all                — everything, in paper order
//!
//! options:
//!   --scale <f>      suite scale factor, 0 < f <= 1 (default 0.02)
//!   --iters <k>      SpMV iterations               (default 128)
//!   --threads <p>    max worker threads            (default: host cores)
//!   --out <dir>      CSV output directory          (default results/)
//!   --matrix <name>  restrict to one suite matrix  (repeatable)
//!   --cg-iters <k>   CG iterations for fig14       (default 512)
//!   --rhs <k>        right-hand sides for spmm     (default 8; one of 1,2,4,8,16)
//!   --seed <k>       chaos schedule seed           (default 0xC4A05)
//! ```

use std::process::ExitCode;
use symspmv_harness::experiments::{self, ExpConfig};

const USAGE: &str = "usage: experiments <table1|fig4|fig5|fig9|fig10|fig11|fig12|table3|fig13|preproc|fig14|ablation|spmm|kinds|colors|tune|verify|chaos|plot|machine|all>
                   [--scale f] [--iters k] [--threads p] [--out dir]
                   [--matrix name]... [--cg-iters k] [--rhs k] [--seed k]";

/// Parses a seed in decimal or `0x`-prefixed hex.
fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn usage() -> ExitCode {
    eprintln!("{}", USAGE);
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };

    let mut cfg = ExpConfig::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Option<String> {
            let v = it.next().cloned();
            if v.is_none() {
                eprintln!("missing value for {what}");
            }
            v
        };
        match flag.as_str() {
            "--scale" => match value("--scale").and_then(|v| v.parse().ok()) {
                // `suite::generate` sizes its allocations from the scale:
                // anything above the paper's own dimensions (or NaN, which
                // fails both comparisons) is a typo, not a request.
                Some(v) if v > 0.0 && v <= 1.0 => cfg.scale = v,
                _ => return usage(),
            },
            "--iters" => match value("--iters").and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => cfg.iterations = v,
                _ => return usage(),
            },
            "--threads" => match value("--threads").and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => cfg.max_threads = v,
                _ => return usage(),
            },
            "--out" => match value("--out") {
                Some(v) => cfg.out_dir = v.into(),
                None => return usage(),
            },
            "--matrix" => match value("--matrix") {
                Some(v) => cfg.matrices.push(v),
                None => return usage(),
            },
            "--cg-iters" => match value("--cg-iters").and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => cfg.cg_iters = v,
                _ => return usage(),
            },
            "--rhs" => match value("--rhs").and_then(|v| v.parse().ok()) {
                // Full validation (supported lane counts) happens in the
                // spmm driver, which knows the block layout's contract.
                Some(v) if v > 0 => cfg.rhs = v,
                _ => return usage(),
            },
            "--seed" => match value("--seed").and_then(|v| parse_seed(&v)) {
                Some(v) => cfg.seed = v,
                None => return usage(),
            },
            other => {
                eprintln!("unknown option: {other}");
                return usage();
            }
        }
    }

    // Validate matrix names early.
    for name in &cfg.matrices {
        if symspmv_sparse::suite::spec_by_name(name).is_none() {
            eprintln!("unknown matrix {name:?}; valid names:");
            for s in &symspmv_sparse::suite::SUITE {
                eprintln!("  {}", s.name);
            }
            return ExitCode::from(2);
        }
    }

    println!(
        "symspmv experiments — scale {}, {} iterations, up to {} threads\n",
        cfg.scale, cfg.iterations, cfg.max_threads
    );

    let run = match cmd.as_str() {
        "table1" => experiments::table1(&cfg),
        "fig4" => experiments::fig4(&cfg),
        "fig5" => experiments::fig5(&cfg),
        "fig9" => experiments::fig9(&cfg),
        "fig10" => experiments::fig10(&cfg),
        "fig11" => experiments::fig11(&cfg),
        "fig12" => experiments::fig12(&cfg),
        "table3" => experiments::table3(&cfg),
        "fig13" => experiments::fig13(&cfg),
        "preproc" => experiments::preproc(&cfg),
        "fig14" => experiments::fig14(&cfg),
        "ablation" => experiments::ablation(&cfg),
        "spmm" => experiments::spmm(&cfg),
        "kinds" => experiments::kinds(&cfg),
        "colors" => experiments::colors(&cfg),
        "tune" => experiments::tune(&cfg),
        "verify" => experiments::verify(&cfg),
        "chaos" => experiments::chaos(&cfg),
        "plot" => experiments::plot(&cfg),
        "machine" => experiments::machine(&cfg),
        "all" => experiments::all(&cfg),
        _ => return usage(),
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
