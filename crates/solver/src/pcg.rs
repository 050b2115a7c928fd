//! Jacobi-preconditioned Conjugate Gradient.
//!
//! The paper deliberately evaluates a *non-preconditioned* CG because
//! "improving the performance of a preconditioner is orthogonal to the
//! SpM×V optimization" (§II-C). This module supplies the simplest
//! preconditioner anyway — M = diag(A) — so downstream users get a
//! practical solver, and so the breakdown machinery demonstrably extends
//! to preconditioned iterations (the `vector_ops` phase absorbs the
//! preconditioner application).

use crate::cg::{recurrence, scalar_outcome, CgConfig, SolveOutcome};
use std::sync::Arc;
use symspmv_core::ParallelSpmv;
use symspmv_sparse::{CooMatrix, Val};

/// Extracts the diagonal of a square COO matrix (zeros where absent).
pub fn diagonal_of(coo: &CooMatrix) -> Vec<Val> {
    assert_eq!(coo.nrows(), coo.ncols(), "diagonal of a non-square matrix");
    let mut d = vec![0.0; coo.nrows() as usize];
    for (r, c, v) in coo.iter() {
        if r == c {
            d[r as usize] += v;
        }
    }
    d
}

/// The Jacobi preconditioner `M⁻¹ = diag(A)⁻¹` as the inverse diagonal.
pub(crate) fn invert_diagonal(diag: &[Val]) -> Vec<Val> {
    assert!(
        diag.iter().all(|&d| d > 0.0),
        "Jacobi needs a positive diagonal"
    );
    diag.iter().map(|d| 1.0 / d).collect()
}

/// Solves `A·x = b` with Jacobi-preconditioned CG.
///
/// `diag` must be the diagonal of `A` (see [`diagonal_of`]); all entries
/// must be positive (A is SPD). Phase accounting matches [`mod@crate::cg`].
pub fn pcg_jacobi<K: ParallelSpmv + ?Sized>(
    kernel: &mut K,
    diag: &[Val],
    b: &[Val],
    x: &mut [Val],
    config: &CgConfig,
) -> SolveOutcome {
    let n = kernel.n();
    assert_eq!(diag.len(), n);
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let inv_diag = invert_diagonal(diag);
    let ctx = Arc::clone(kernel.context());
    // All four work vectors are scratch leases from the context arena.
    let mut r = ctx.lease_scratch(n);
    let mut z = ctx.lease_scratch(n);
    let mut p = ctx.lease_scratch(n);
    let mut ap = ctx.lease_scratch(n);
    scalar_outcome(recurrence::<1, _, _>(
        kernel,
        Some(&ctx),
        K::spmv,
        Some((&inv_diag, &mut z)),
        (b, x),
        (&mut r[..], &mut p[..], &mut ap[..]),
        config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::{cg, SolveStatus};
    use symspmv_core::CsrParallel;
    use symspmv_runtime::ExecutionContext;
    use symspmv_sparse::dense::seeded_vector;

    /// A badly scaled SPD matrix: Laplacian with row/col scaling, where
    /// Jacobi preconditioning should cut the iteration count.
    fn scaled_laplacian(k: u32) -> CooMatrix {
        let base = symspmv_sparse::gen::laplacian_2d(k, k);
        let n = base.nrows();
        let scale = |i: u32| 1.0 + 99.0 * (f64::from(i) / f64::from(n)).powi(2);
        let mut out = CooMatrix::new(n, n);
        for (r, c, v) in base.iter() {
            out.push(r, c, v * scale(r) * scale(c));
        }
        out.canonicalize();
        out
    }

    #[test]
    fn pcg_converges_and_matches_cg_solution() {
        let coo = scaled_laplacian(16);
        let n = coo.nrows() as usize;
        let b = seeded_vector(n, 3);
        let cfg = CgConfig {
            max_iters: 6000,
            rel_tol: 1e-10,
            record_history: false,
        };

        let ctx = ExecutionContext::new(2);
        let mut k1 = CsrParallel::from_coo(&coo, &ctx);
        let mut x_cg = vec![0.0; n];
        let res_cg = cg(&mut k1, &b, &mut x_cg, &cfg);
        assert!(res_cg.converged);

        let diag = diagonal_of(&coo);
        let mut k2 = CsrParallel::from_coo(&coo, &ctx);
        let mut x_pcg = vec![0.0; n];
        let res_pcg = pcg_jacobi(&mut k2, &diag, &b, &mut x_pcg, &cfg);
        assert!(res_pcg.converged);

        for (a, bb) in x_cg.iter().zip(&x_pcg) {
            assert!((a - bb).abs() < 1e-5, "{a} vs {bb}");
        }
    }

    #[test]
    fn jacobi_cuts_iterations_on_badly_scaled_systems() {
        let coo = scaled_laplacian(20);
        let n = coo.nrows() as usize;
        let b = seeded_vector(n, 7);
        let cfg = CgConfig {
            max_iters: 20_000,
            rel_tol: 1e-8,
            record_history: false,
        };
        let diag = diagonal_of(&coo);

        let ctx = ExecutionContext::new(2);
        let mut k1 = CsrParallel::from_coo(&coo, &ctx);
        let mut x1 = vec![0.0; n];
        let plain = cg(&mut k1, &b, &mut x1, &cfg);

        let mut k2 = CsrParallel::from_coo(&coo, &ctx);
        let mut x2 = vec![0.0; n];
        let pre = pcg_jacobi(&mut k2, &diag, &b, &mut x2, &cfg);

        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations * 2 < plain.iterations,
            "Jacobi should at least halve the iterations: {} vs {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn pcg_reports_not_spd_on_indefinite_operator() {
        // A saddle matrix with positive diagonal sneaks past the Jacobi
        // precondition check but is indefinite; the curvature test catches it.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(0, 1, 4.0);
        coo.push(1, 0, 4.0);
        coo.canonicalize();
        let diag = diagonal_of(&coo);
        let ctx = ExecutionContext::new(1);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let b = vec![1.0, -1.0];
        let mut x = vec![0.0, 0.0];
        let res = pcg_jacobi(&mut k, &diag, &b, &mut x, &CgConfig::default());
        assert!(res.status.is_breakdown());
        assert!(matches!(res.status, SolveStatus::NotSpd { pap } if pap < 0.0));
        assert!(res.into_result().is_err());
    }

    #[test]
    fn diagonal_extraction() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 2, 9.0);
        coo.push(2, 2, 4.0);
        assert_eq!(diagonal_of(&coo), vec![2.0, 0.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "positive diagonal")]
    fn zero_diagonal_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(0, 1, 1.0);
        let diag = diagonal_of(&coo); // diag[1] == 0
        let mut k = CsrParallel::from_coo(&coo, &ExecutionContext::new(1));
        let b = vec![1.0, 1.0];
        let mut x = vec![0.0, 0.0];
        let _ = pcg_jacobi(&mut k, &diag, &b, &mut x, &CgConfig::default());
    }
}
