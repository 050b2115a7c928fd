//! Property tests pinning the symmetry-kind algebra across the whole
//! kernel family (tentpole acceptance, ISSUE 6):
//!
//! * **skew**: `xᵀ·(A·x) = 0` exactly in real arithmetic for any
//!   skew-symmetric `A` (the quadratic form of an antisymmetric operator
//!   vanishes). Every kernel built with `SymmetryKind::Skew` — and every
//!   full-storage baseline fed the same expanded matrix — must annihilate
//!   the quadratic form to rounding at every thread count.
//! * **structural**: the paired `upper_values` storage is exact, not an
//!   approximation — reconstructing the full matrix from the half storage
//!   yields the *bit-identical* CSR matrix (same arrays, same SpMV bits)
//!   as building CSR from the original coordinates, and the structural
//!   half-storage kernel agrees with that CSR baseline within the
//!   oracle's tolerance.

use std::sync::Arc;
use symspmv::runtime::ExecutionContext;
use symspmv::sparse::dense::{max_rel_diff, seeded_vector};
use symspmv::sparse::symmetry::SymmetryKind;
use symspmv::sparse::{CsrMatrix, SssMatrix};
use symspmv_harness::kernels::{build_kernel_kind, KernelSpec};

const THREADS: [usize; 4] = [1, 2, 3, 8];

#[test]
fn every_skew_kernel_annihilates_the_quadratic_form_at_every_thread_count() {
    let coo = symspmv::sparse::gen::skew_convection(512, 19, 7.0, 41);
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 77);
    let mut executed = 0usize;

    for &p in &THREADS {
        let ctx: Arc<ExecutionContext> = ExecutionContext::new(p);
        for spec in KernelSpec::all() {
            let mut k = build_kernel_kind(spec, &coo, SymmetryKind::Skew, &ctx)
                .unwrap_or_else(|e| panic!("{} rejected the skew matrix: {e}", spec.name()));
            let mut y = vec![f64::NAN; n];
            k.spmv(&x, &mut y);
            // Scale-relative bound: |xᵀAx| against Σ|x_i·(Ax)_i|, the
            // magnitude the cancellation happens over.
            let quad: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
            let scale: f64 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum();
            assert!(
                quad.abs() <= 1e-12 * scale.max(1.0),
                "{} at p={p}: xᵀAx = {quad:e} (scale {scale:e}) — skew mirror broken",
                spec.name()
            );
            executed += 1;
        }
    }
    // 4 thread counts × the 9 entries of `KernelSpec::all()`.
    assert_eq!(executed, 4 * 9);
}

#[test]
fn structural_reconstruction_is_bit_identical_to_csr() {
    let coo = symspmv::sparse::gen::structural_random(400, 7.0, 0.5, 12, 53);
    let n = coo.nrows() as usize;

    let sss = SssMatrix::from_coo_kind(&coo, SymmetryKind::Structural, 0.0).unwrap();
    let csr_direct = CsrMatrix::from_coo(&coo);
    let csr_rebuilt = sss.to_full_csr();

    // The paired storage carries the exact upper-triangle values: the
    // reconstructed CSR is the same matrix array-for-array.
    assert_eq!(csr_direct.rowptr(), csr_rebuilt.rowptr());
    assert_eq!(csr_direct.colind(), csr_rebuilt.colind());
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(csr_direct.values()), bits(csr_rebuilt.values()));

    // Hence the serial CSR SpMV is bit-identical between the two.
    let x = seeded_vector(n, 19);
    let (mut y_direct, mut y_rebuilt) = (vec![0.0; n], vec![0.0; n]);
    csr_direct.spmv(&x, &mut y_direct);
    csr_rebuilt.spmv(&x, &mut y_rebuilt);
    assert_eq!(bits(&y_direct), bits(&y_rebuilt));

    // And the structural half-storage kernel computes the same operator
    // (different accumulation order → oracle tolerance, not bits).
    let mut y_sss = vec![0.0; n];
    sss.spmv(&x, &mut y_sss);
    let d = max_rel_diff(&y_sss, &y_direct);
    assert!(
        d <= 1e-12,
        "structural SSS drifted {d:e} from the CSR baseline"
    );
}
