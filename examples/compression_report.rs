//! Compression report: how much does each storage format shrink a matrix?
//!
//! Accepts a MatrixMarket file (so the real University-of-Florida matrices
//! of Table I can be dropped in), or a suite-matrix name, or defaults to a
//! generated structural matrix.
//!
//! ```sh
//! cargo run --release --example compression_report                 # generated
//! cargo run --release --example compression_report bmw7st_1        # suite analog
//! cargo run --release --example compression_report path/to/A.mtx   # real matrix
//! ```

use std::collections::HashMap;
use symspmv::core::CsxSymMatrix;
use symspmv::csx::detect::{DetectConfig, Family};
use symspmv::csx::rows::RowView;
use symspmv::csx::{CsxMatrix, PatternKind};
use symspmv::sparse::{mm, suite, CooMatrix, CsrMatrix, SssMatrix};
use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};

fn load(arg: Option<String>) -> (String, CooMatrix) {
    match arg {
        None => (
            "generated block-structural".into(),
            symspmv::sparse::gen::block_structural(4000, 3, 14.0, 200, 42),
        ),
        Some(a) if a.ends_with(".mtx") => {
            let (coo, hdr) = mm::read_matrix_market_file(&a)
                .unwrap_or_else(|e| panic!("failed to read {a}: {e}"));
            println!("loaded {a} ({hdr:?})");
            (a, coo)
        }
        Some(name) => {
            let spec = suite::spec_by_name(&name).unwrap_or_else(|| {
                eprintln!("unknown matrix {name}; use a .mtx path or one of:");
                for s in &suite::SUITE {
                    eprintln!("  {}", s.name);
                }
                std::process::exit(2);
            });
            (name, suite::generate(spec, 0.05).coo)
        }
    }
}

fn main() {
    let (name, mut coo) = load(std::env::args().nth(1));
    coo.canonicalize();
    let stats = symspmv::sparse::stats::matrix_stats(&coo);
    println!(
        "\nmatrix {name}: N = {}, NNZ = {}, bandwidth = {}\n",
        stats.nrows, stats.nnz, stats.bandwidth
    );

    let csr = CsrMatrix::from_coo(&coo);
    let csr_bytes = csr.size_bytes();
    let report = |fmt: &str, bytes: usize, extra: &str| {
        println!(
            "{fmt:>10}: {bytes:>12} bytes  (CR {:>5.1}%)  {extra}",
            (1.0 - bytes as f64 / csr_bytes as f64) * 100.0
        );
    };
    report("CSR", csr_bytes, "(baseline, Eq. 1)");

    let cfg = DetectConfig::default();
    let csx = CsxMatrix::from_coo(&coo, &cfg);
    report(
        "CSX",
        csx.stats().size_bytes,
        &format!(
            "coverage {:.1}%, {} substructure / {} delta units",
            csx.stats().coverage * 100.0,
            csx.stats().substructure_units,
            csx.stats().delta_units
        ),
    );

    match SssMatrix::from_coo(&coo, 1e-12) {
        Ok(sss) => {
            report("SSS", sss.size_bytes(), "(Eq. 2)");
            for p in [1usize, 8] {
                let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
                let sym = CsxSymMatrix::from_sss(&sss, &parts, &cfg);
                report(
                    &format!("CSX-Sym/{p}"),
                    sym.size_bytes(),
                    &format!(
                        "coverage {:.1}%, max possible CR {:.1}%",
                        sym.coverage() * 100.0,
                        sym.max_compression_ratio() * 100.0
                    ),
                );
            }

            // Which substructure families carry the compression?
            let det = symspmv::csx::detect::analyze(
                RowView::of_sss(&sss),
                &DetectConfig {
                    min_coverage: 0.0,
                    ..DetectConfig::default()
                },
            );
            println!("\nsubstructure histogram (lower triangle):");
            let mut hist: HashMap<Family, usize> = HashMap::new();
            for inst in &det.instances {
                let family = match inst.kind {
                    PatternKind::Horizontal { .. } => Family::Horizontal,
                    PatternKind::Vertical { .. } => Family::Vertical,
                    PatternKind::Diagonal { .. } => Family::Diagonal,
                    PatternKind::AntiDiagonal { .. } => Family::AntiDiagonal,
                    PatternKind::Block { rows, cols } => Family::Block(rows, cols),
                };
                *hist.entry(family).or_insert(0) += 1;
            }
            let mut hist: Vec<(Family, usize)> = hist.into_iter().collect();
            hist.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
            for (fam, count) in hist {
                println!("  {fam:?}: {count} instances");
            }
        }
        Err(e) => println!("(matrix not symmetric — symmetric formats skipped: {e})"),
    }
}
