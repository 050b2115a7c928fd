//! Block Conjugate Gradient: `k` independent CG solves advanced in
//! lockstep on one batched kernel.
//!
//! This is the end-to-end consumer of the batched SpMM path: each
//! iteration performs **one** [`ParallelSpmm::spmm`] over all `k`
//! right-hand sides — streaming the matrix once instead of `k` times — plus
//! lane-wise vector operations. The recurrences are *not* coupled (no
//! shared Krylov space, no block orthogonalization): lane `j` runs exactly
//! the scalar CG of [`mod@crate::cg`] on `(A, b_j)`, with its own `alpha_j`,
//! `beta_j` and residual, and freezes in place the moment it converges or
//! breaks down while the other lanes continue — it is the same
//! lane-generic recurrence, instantiated at `k` lanes instead of one.
//! Because the batched kernels and the lane-wise vector ops reproduce the
//! scalar op order per lane bit-exactly, every lane's iterates are
//! bit-identical to a scalar CG solve of that lane — the property tests
//! assert this.

use crate::cg::{recurrence, CgConfig, SolveStatus};
use std::sync::Arc;
use symspmv_core::{ParallelSpmm, ParallelSpmv, VectorBlock};
use symspmv_runtime::PhaseTimes;
use symspmv_sparse::with_lanes;

/// Terminal state of one lane of a block solve.
#[derive(Debug, Clone)]
pub struct LaneOutcome {
    /// Iterations this lane actually advanced (it freezes afterwards).
    pub iterations: usize,
    /// Whether the lane reached the relative tolerance.
    pub converged: bool,
    /// How the lane ended.
    pub status: SolveStatus,
    /// Final recurrence residual norm `‖b_j − A·x_j‖`.
    pub residual_norm: f64,
    /// Residual-norm history (if requested); one entry per iteration the
    /// lane was active, plus the initial residual.
    pub history: Vec<f64>,
}

/// Outcome of a block CG solve.
#[derive(Debug, Clone)]
pub struct BlockSolveOutcome {
    /// Per-lane terminal states.
    pub lanes: Vec<LaneOutcome>,
    /// Iterations of the longest-running lane (= SpMM calls issued).
    pub iterations: usize,
    /// Phase breakdown over the whole block solve.
    pub times: PhaseTimes,
}

impl BlockSolveOutcome {
    /// Whether every lane converged.
    pub fn all_converged(&self) -> bool {
        self.lanes.iter().all(|l| l.converged)
    }
}

/// Solves the `k` systems `A·x_j = b_j` in lockstep, starting from the
/// initial guesses in `x`.
///
/// One SpMM per iteration advances every still-active lane; converged and
/// broken-down lanes are frozen (their `x`, `r`, `p` lanes stop changing)
/// and the loop ends when all lanes are frozen or `max_iters` is reached.
pub fn block_cg<K: ParallelSpmm + ParallelSpmv + ?Sized>(
    kernel: &mut K,
    b: &VectorBlock,
    x: &mut VectorBlock,
    config: &CgConfig,
) -> BlockSolveOutcome {
    let n = kernel.n();
    let lanes = b.lanes();
    assert_eq!(b.n(), n);
    assert_eq!(x.n(), n);
    assert_eq!(x.lanes(), lanes);
    let ctx = Arc::clone(kernel.spmm_context());
    let mut r = VectorBlock::zeros(n, lanes);
    let mut p = VectorBlock::zeros(n, lanes);
    let mut ap = VectorBlock::zeros(n, lanes);
    with_lanes!(lanes, L => recurrence::<L, _, _>(
        kernel,
        Some(&ctx),
        K::spmm,
        None,
        (b, x),
        (&mut r, &mut p, &mut ap),
        config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg;
    use symspmv_core::{CsrParallel, ReductionMethod, SymFormat, SymSpmv};
    use symspmv_runtime::ExecutionContext;
    use symspmv_sparse::CooMatrix;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lanes_bitwise_match_independent_scalar_solves() {
        let coo = symspmv_sparse::gen::banded_random(300, 15, 6.0, 11);
        let n = 300;
        let cfg = CgConfig {
            max_iters: 800,
            rel_tol: 1e-9,
            record_history: false,
        };
        let ctx = ExecutionContext::new(3);
        for method in [
            ReductionMethod::Naive,
            ReductionMethod::EffectiveRanges,
            ReductionMethod::Indexing,
        ] {
            let mut k = SymSpmv::from_coo(&coo, &ctx, method, SymFormat::Sss).unwrap();
            let lanes = 4;
            let b = VectorBlock::seeded(n, lanes, 30);
            let mut x = VectorBlock::zeros(n, lanes);
            let res = block_cg(&mut k, &b, &mut x, &cfg);
            assert!(res.all_converged(), "{method:?}: {:?}", res.lanes);
            for j in 0..lanes {
                let mut xj = vec![0.0; n];
                let rj = cg(&mut k, &b.lane(j), &mut xj, &cfg);
                assert!(rj.converged);
                assert_eq!(
                    res.lanes[j].iterations, rj.iterations,
                    "{method:?} lane {j}: iteration counts differ"
                );
                assert_eq!(
                    bits(&x.lane(j)),
                    bits(&xj),
                    "{method:?} lane {j}: iterates not bit-identical"
                );
                assert_eq!(
                    res.lanes[j].residual_norm.to_bits(),
                    rj.residual_norm.to_bits()
                );
            }
        }
    }

    #[test]
    fn converged_lane_freezes_while_others_run() {
        let coo = symspmv_sparse::gen::laplacian_2d(15, 15);
        let n = 225;
        let ctx = ExecutionContext::new(2);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        // Lane 0 is the zero system (converges at iteration 0); lane 1 is a
        // real right-hand side.
        let zero = vec![0.0; n];
        let real = symspmv_sparse::dense::seeded_vector(n, 4);
        let b = VectorBlock::from_lanes(&[&zero, &real]);
        let mut x = VectorBlock::zeros(n, 2);
        let res = block_cg(
            &mut k,
            &b,
            &mut x,
            &CgConfig {
                max_iters: 1000,
                rel_tol: 1e-10,
                record_history: true,
            },
        );
        assert!(res.all_converged());
        assert_eq!(res.lanes[0].iterations, 0);
        assert!(res.lanes[1].iterations > 0);
        assert_eq!(res.iterations, res.lanes[1].iterations);
        assert!(x.lane(0).iter().all(|&v| v == 0.0), "frozen lane touched");
        assert_eq!(
            res.lanes[1].history.len(),
            res.lanes[1].iterations + 1,
            "history covers active iterations only"
        );
    }

    #[test]
    fn breakdown_reported_per_lane() {
        // -Laplacian is negative definite: every lane hits NotSpd on its
        // first iteration.
        let base = symspmv_sparse::gen::laplacian_2d(8, 8);
        let mut coo = CooMatrix::new(64, 64);
        for (r, c, v) in base.iter() {
            coo.push(r, c, -v);
        }
        coo.canonicalize();
        let ctx = ExecutionContext::new(2);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let b = VectorBlock::seeded(64, 2, 8);
        let mut x = VectorBlock::zeros(64, 2);
        let res = block_cg(&mut k, &b, &mut x, &CgConfig::default());
        assert!(!res.all_converged());
        for lane in &res.lanes {
            assert!(lane.status.is_breakdown(), "{:?}", lane.status);
            assert!(matches!(lane.status, SolveStatus::NotSpd { pap } if pap < 0.0));
        }
    }

    #[test]
    fn fixed_work_mode_runs_all_lanes_to_max_iters() {
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let b = VectorBlock::seeded(64, 4, 1);
        let mut x = VectorBlock::zeros(64, 4);
        let res = block_cg(
            &mut k,
            &b,
            &mut x,
            &CgConfig {
                max_iters: 40,
                rel_tol: 0.0,
                record_history: false,
            },
        );
        assert_eq!(res.iterations, 40);
        for lane in &res.lanes {
            assert_eq!(lane.iterations, 40);
            assert_eq!(lane.status, SolveStatus::MaxIterations);
        }
        assert!(res.times.multiply > std::time::Duration::ZERO);
    }
}
