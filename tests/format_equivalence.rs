//! Cross-crate integration: every storage format × reduction method ×
//! thread count must compute the same product as the dense reference, on
//! representatives of every suite structure class.

use symspmv::core::ReductionMethod;
use symspmv::runtime::ExecutionContext;
use symspmv::sparse::dense::{assert_vec_close, seeded_vector};
use symspmv::sparse::suite;
use symspmv_harness::kernels::{build_kernel, KernelSpec};

fn reference(coo: &symspmv::sparse::CooMatrix, x: &[f64]) -> Vec<f64> {
    let mut c = coo.clone();
    c.canonicalize();
    let mut y = vec![0.0; c.nrows() as usize];
    c.spmv_reference(x, &mut y);
    y
}

#[test]
fn suite_classes_all_kernels_all_thread_counts() {
    // One representative per structure class, small scale for speed.
    for name in ["bmw7st_1", "parabolic_fem", "G3_circuit", "nd12k"] {
        let spec = suite::spec_by_name(name).unwrap();
        let m = suite::generate(spec, 0.003);
        let n = m.coo.nrows() as usize;
        let x = seeded_vector(n, 0x77);
        let y_ref = reference(&m.coo, &x);
        for p in [1usize, 2, 5, 8] {
            let ctx = ExecutionContext::new(p);
            for ks in KernelSpec::all() {
                let mut k = build_kernel(ks, &m.coo, &ctx).unwrap();
                let mut y = vec![f64::NAN; n];
                k.spmv(&x, &mut y);
                assert_vec_close(&y, &y_ref, 1e-11);
            }
        }
    }
}

#[test]
fn repeated_invocations_are_stable() {
    // Locals must be re-zeroed between iterations by every method; 20
    // iterations with vector swapping must match 20 serial applications.
    let m = suite::generate(suite::spec_by_name("offshore").unwrap(), 0.004);
    let n = m.coo.nrows() as usize;
    let ctx = ExecutionContext::new(4);
    for ks in KernelSpec::all() {
        let mut k = build_kernel(ks, &m.coo, &ctx).unwrap();
        let mut x = seeded_vector(n, 1);
        let mut y = vec![0.0; n];
        let mut x_ref = x.clone();
        for _ in 0..20 {
            k.spmv(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
            let y_ref = reference(&m.coo, &x_ref);
            x_ref = y_ref;
            // Compare with loose tolerance: values grow geometrically.
            let scale = x_ref.iter().map(|v| v.abs()).fold(1.0, f64::max);
            for (a, b) in x.iter().zip(&x_ref) {
                assert!(
                    (a - b).abs() <= 1e-9 * scale,
                    "{}: divergence {a} vs {b} (scale {scale})",
                    k.name()
                );
            }
        }
    }
}

#[test]
fn size_ordering_matches_paper_on_structural_matrices() {
    // CSX-Sym < SSS < CSR in bytes on a block-structural matrix.
    let m = suite::generate(suite::spec_by_name("hood").unwrap(), 0.01);
    let ctx = ExecutionContext::new(2);
    let csr = build_kernel(KernelSpec::Csr, &m.coo, &ctx).unwrap();
    let sss = build_kernel(KernelSpec::Sss(ReductionMethod::Indexing), &m.coo, &ctx).unwrap();
    let csx_sym =
        build_kernel(KernelSpec::CsxSym(ReductionMethod::Indexing), &m.coo, &ctx).unwrap();
    assert!(csx_sym.size_bytes() < sss.size_bytes());
    assert!(sss.size_bytes() < csr.size_bytes());
    // SSS halves CSR asymptotically.
    let ratio = sss.size_bytes() as f64 / csr.size_bytes() as f64;
    assert!(ratio < 0.62, "SSS/CSR ratio {ratio}");
}

#[test]
fn flop_accounting_consistent_across_formats() {
    let m = suite::generate(suite::spec_by_name("consph").unwrap(), 0.004);
    let specs = KernelSpec::all();
    let ctx = ExecutionContext::new(2);
    let flops: Vec<u64> = specs
        .iter()
        .map(|&s| build_kernel(s, &m.coo, &ctx).unwrap().flops())
        .collect();
    // Symmetric formats count the dense diagonal, CSR counts stored nnz —
    // they must agree within the diagonal contribution.
    let max = *flops.iter().max().unwrap();
    let min = *flops.iter().min().unwrap();
    assert!(
        (max - min) as f64 / max as f64 <= 2.0 * m.coo.nrows() as f64 / min as f64,
        "flop models diverge: {flops:?}"
    );
}
