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

use symspmv::core::CsxSymMatrix;
use symspmv::csx::detect::{self, DetectConfig};
use symspmv::csx::encode::encode_rows;
use symspmv::csx::rows::RowView;
use symspmv::csx::CsxMatrix;
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
            "coverage {:.1}%, {} substructures, {} units ({} delta)",
            csx.stats().coverage * 100.0,
            csx.stats().substructure_units,
            csx.stats().units,
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

            // Which block shape carries the compression? Each alone, on the
            // whole lower triangle.
            let view = RowView::of_sss(&sss);
            let config = DetectConfig {
                min_coverage: 0.0,
                ..DetectConfig::default()
            };
            let picked = detect::select_block(view, &cfg);
            println!(
                "\nblock shapes alone (lower triangle; the statistics pass picks {picked:?}):"
            );
            for &shape in &config.block_shapes {
                let alone = DetectConfig {
                    block_shapes: vec![shape],
                    ..config.clone()
                };
                let encoded = encode_rows(view, &alone, sss.values(), None);
                println!(
                    "  {}×{}: {} blocks, coverage {:.1}%",
                    shape.0,
                    shape.1,
                    encoded.substructure_units,
                    encoded.coverage * 100.0
                );
            }
        }
        Err(e) => println!("(matrix not symmetric — symmetric formats skipped: {e})"),
    }
}
