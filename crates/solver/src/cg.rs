//! Non-preconditioned Conjugate Gradient (Alg. 1), and the one recurrence
//! every solver in this crate instantiates.
//!
//! One SpMV per iteration plus a handful of vector operations — exactly the
//! cost profile §V-F dissects. (Note: line 8 of the paper's Alg. 1 listing
//! drops the `A·` factor in the residual update; we implement the standard,
//! correct recurrence `r ← r − a·A·p`.)
//!
//! The iteration is written once, in `recurrence`: [`cg`] is its one-lane,
//! unpreconditioned instance; `pcg_jacobi`, `block_cg` and the degraded
//! serial rerun of the `resilient_*` wrappers are the others.
//!
//! [`cg`] runs entirely on the kernel's [`ExecutionContext`]: the
//! residual/direction/product vectors are scratch leases from the context's
//! arena (recycled across solves), the vector operations run on the same
//! worker pool as the SpMV, and the per-phase breakdown comes back in the
//! outcome's `times`.

use crate::block_cg::{BlockSolveOutcome, LaneOutcome};
use crate::vecops;
use std::sync::Arc;
use std::time::Duration;
use symspmv_core::{ParallelSpmv, SymSpmvError};
use symspmv_runtime::timing::time_into;
use symspmv_runtime::{ExecutionContext, PhaseTimes};
use symspmv_sparse::Val;

/// Residual growth (in norms, relative to the initial residual) beyond
/// which the iteration is declared divergent. CG on an SPD system is
/// monotone in the A-norm; eight orders of magnitude of growth in the
/// 2-norm means the recurrence has left SPD territory.
const DIVERGENCE_GROWTH: f64 = 1e8;

/// CG stopping configuration.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    /// Maximum iterations (the paper's Fig. 14 uses a fixed 2048).
    pub max_iters: usize,
    /// Relative residual tolerance `‖r‖/‖b‖`; set to `0.0` to always run
    /// `max_iters` iterations (fixed-work mode, as in Fig. 14).
    pub rel_tol: f64,
    /// Record `‖r‖` after every iteration.
    pub record_history: bool,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            max_iters: 1000,
            rel_tol: 1e-10,
            record_history: false,
        }
    }
}

/// How a solve ended.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SolveStatus {
    /// The relative residual tolerance was reached.
    Converged,
    /// The iteration budget ran out before the tolerance was reached (this
    /// is the *expected* outcome in fixed-work mode, `rel_tol == 0`).
    MaxIterations,
    /// Breakdown: `pᵀAp ≤ 0` with a non-zero residual — the operator is
    /// not symmetric positive definite.
    NotSpd {
        /// The offending curvature value.
        pap: f64,
    },
    /// The residual norm grew more than `DIVERGENCE_GROWTH` (1e8)× over its
    /// initial value.
    Diverged {
        /// Residual growth factor `‖r_k‖ / ‖r_0‖` at detection.
        growth: f64,
    },
    /// The residual or curvature became NaN or infinite.
    NonFiniteResidual,
}

impl SolveStatus {
    /// Whether this status is a numerical failure (breakdown, divergence,
    /// non-finite values) as opposed to a normal termination.
    pub fn is_breakdown(&self) -> bool {
        !matches!(self, SolveStatus::Converged | SolveStatus::MaxIterations)
    }
}

/// Outcome of a CG/PCG solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the relative tolerance was reached (equivalent to
    /// `status == SolveStatus::Converged`; kept for call-site brevity).
    pub converged: bool,
    /// How the solve ended, including numerical-breakdown detail.
    pub status: SolveStatus,
    /// Final residual norm `‖b − A·x‖` (recurrence residual).
    pub residual_norm: f64,
    /// Phase breakdown: SpMV multiply + reduce (from the kernel),
    /// vector operations, and the kernel's preprocessing.
    pub times: PhaseTimes,
    /// Residual-norm history (if requested).
    pub history: Vec<f64>,
}

/// Former name of [`SolveOutcome`].
pub type CgResult = SolveOutcome;

impl SolveOutcome {
    /// Converts a breakdown status into the corresponding
    /// [`SymSpmvError`], passing normal terminations (converged or
    /// max-iterations) through as `Ok` — for callers that treat numerical
    /// failure as an error rather than a report.
    pub fn into_result(self) -> Result<SolveOutcome, SymSpmvError> {
        match self.status {
            SolveStatus::NotSpd { pap } => Err(SymSpmvError::NotSpd {
                iteration: self.iterations,
                pap,
            }),
            SolveStatus::Diverged { growth } => Err(SymSpmvError::Diverged {
                iteration: self.iterations,
                relative_residual: growth,
            }),
            SolveStatus::NonFiniteResidual => Err(SymSpmvError::NonFiniteResidual {
                iteration: self.iterations,
            }),
            _ => Ok(self),
        }
    }
}

/// The CG recurrence (Alg. 1), once: `L` independent lanes advanced in
/// lockstep on lane-interleaved vectors, each lane running exactly the
/// scalar iteration with its own `alpha`, `beta` and residual and freezing
/// in place the moment it converges or breaks down.
///
/// * `apply(kernel, p, ap)` computes `ap = A·p` (`spmv` for `L = 1`,
///   `spmm` otherwise) on vectors of the type `V` it consumes: a flat slice
///   (arena scratch, a caller's iterate, a plain `Vec` in the degraded
///   rerun) or a `VectorBlock`, either way viewed flat by the vector ops.
/// * `jacobi` is the inverse diagonal with the buffer for `z = M⁻¹·r`;
///   `None` means `z` *is* `r` and `rᵀz` *is* `‖r‖²` — no copy and no extra
///   dot, so plain CG pays no pass for the preconditioned variant existing.
/// * `exec` is the pool the vector ops run on; `None` runs them as serial
///   loops (the degraded rerun), touching neither pool nor arena.
/// * `system` is `(b, x)`, `x` holding the initial guess; `work` is the
///   caller-allocated `(r, p, ap)`.
///
/// A lane's `iterations` counts the iterations it completed: the one that
/// detects a breakdown is not counted, and its `residual_norm` is the last
/// finite value (the grown one for `Diverged`).
///
/// The kernel's phase clocks attribute multiply/reduce time and every
/// vector pass is timed here. The reported breakdown is what this solve
/// spent, plus the kernel's one-time construction cost in `preprocess`
/// (Fig. 14) — the same value on every solve, never accumulated.
pub(crate) fn recurrence<const L: usize, K, V>(
    kernel: &mut K,
    exec: Option<&ExecutionContext>,
    mut apply: impl FnMut(&mut K, &V, &mut V),
    mut jacobi: Option<(&[Val], &mut [Val])>,
    system: (&V, &mut V),
    work: (&mut V, &mut V, &mut V),
    config: &CgConfig,
) -> BlockSolveOutcome
where
    K: ParallelSpmv + ?Sized,
    V: AsRef<[Val]> + AsMut<[Val]> + ?Sized,
{
    let ((b, x), (r, p, ap)) = (system, work);
    let before = kernel.times();
    let mut vector_ops = Duration::ZERO;

    // r = b − A·x ; z = M⁻¹·r ; p = z.
    apply(kernel, x, r);
    let (b, x, r) = (b.as_ref(), x.as_mut(), r.as_mut());
    let (tol_sq, mut rs, mut rz) = time_into(&mut vector_ops, || {
        vecops::sub_from(b, r);
        let z = precondition::<L>(&mut jacobi, r);
        p.as_mut().copy_from_slice(z.unwrap_or(r));
        let tol_sq =
            vecops::lane_dot::<L>(exec, b, b).map(|bn| config.rel_tol * config.rel_tol * bn);
        let rs = vecops::lane_dot::<L>(exec, r, r);
        (tol_sq, rs, z.map_or(rs, |z| vecops::lane_dot(exec, r, z)))
    });
    let rs_initial = rs;

    let mut lanes: Vec<LaneOutcome> = (0..L)
        .map(|j| LaneOutcome {
            iterations: 0,
            converged: config.rel_tol > 0.0 && rs[j] <= tol_sq[j],
            status: SolveStatus::MaxIterations,
            residual_norm: rs[j].sqrt(),
            history: Vec::from_iter(config.record_history.then(|| rs[j].sqrt())),
        })
        .collect();
    let mut active: [bool; L] = std::array::from_fn(|j| !lanes[j].converged);

    let mut iterations = 0;
    while iterations < config.max_iters && active.contains(&true) {
        apply(kernel, p, ap);
        time_into(&mut vector_ops, || {
            let pap = vecops::lane_dot::<L>(exec, p.as_ref(), ap.as_ref());
            let mut alpha = [0.0; L];
            for j in 0..L {
                if !active[j] {
                    continue;
                }
                // A SPD guarantees pᵀAp > 0 unless p == 0 (residual already
                // zero); a non-positive curvature with residual left means
                // the operator is not SPD — report it instead of emitting
                // garbage.
                if !pap[j].is_finite() {
                    lanes[j].status = SolveStatus::NonFiniteResidual;
                    active[j] = false;
                } else if pap[j] <= 0.0 && rs[j] > 0.0 {
                    lanes[j].status = SolveStatus::NotSpd { pap: pap[j] };
                    active[j] = false;
                } else {
                    alpha[j] = if pap[j] != 0.0 { rz[j] / pap[j] } else { 0.0 };
                }
            }
            vecops::lane_axpy(exec, alpha, active, p.as_ref(), x);
            vecops::lane_axpy(exec, alpha.map(|a| -a), active, ap.as_ref(), r);
            let z = precondition::<L>(&mut jacobi, r);
            let rs_new = vecops::lane_dot::<L>(exec, r, r);
            let rz_new = z.map_or(rs_new, |z| vecops::lane_dot(exec, r, z));
            let mut beta = [0.0; L];
            for j in 0..L {
                if !active[j] {
                    continue;
                }
                if !rs_new[j].is_finite() {
                    lanes[j].status = SolveStatus::NonFiniteResidual;
                    active[j] = false;
                } else if rs_initial[j] > 0.0
                    && rs_new[j] > DIVERGENCE_GROWTH * DIVERGENCE_GROWTH * rs_initial[j]
                {
                    lanes[j].status = SolveStatus::Diverged {
                        growth: (rs_new[j] / rs_initial[j]).sqrt(),
                    };
                    rs[j] = rs_new[j];
                    active[j] = false;
                } else {
                    beta[j] = if rz[j] != 0.0 { rz_new[j] / rz[j] } else { 0.0 };
                    (rs[j], rz[j]) = (rs_new[j], rz_new[j]);
                }
            }
            vecops::lane_xpby(exec, z.unwrap_or(r), beta, active, p.as_mut());
            for j in 0..L {
                if !active[j] {
                    continue;
                }
                lanes[j].iterations += 1;
                if config.record_history {
                    lanes[j].history.push(rs[j].sqrt());
                }
                if config.rel_tol > 0.0 && rs[j] <= tol_sq[j] {
                    lanes[j].converged = true;
                    active[j] = false;
                }
            }
        });
        iterations += 1;
    }

    for (lane, rs) in lanes.iter_mut().zip(rs) {
        lane.residual_norm = rs.sqrt();
        if lane.converged {
            lane.status = SolveStatus::Converged;
        }
    }
    let after = kernel.times();
    BlockSolveOutcome {
        lanes,
        iterations,
        times: PhaseTimes {
            multiply: after.multiply - before.multiply,
            reduce: after.reduce - before.reduce,
            vector_ops,
            preprocess: before.preprocess,
        },
    }
}

/// Refreshes `z = M⁻¹·r` and returns it, or `None` when unpreconditioned
/// (the caller then reads `r` itself wherever it would read `z`).
fn precondition<'z, const L: usize>(
    jacobi: &'z mut Option<(&[Val], &mut [Val])>,
    r: &[Val],
) -> Option<&'z [Val]> {
    let (inv_diag, z) = jacobi.as_mut()?;
    let (z_rows, r_rows) = (z.as_chunks_mut::<L>().0, r.as_chunks::<L>().0);
    for ((zr, rr), &d) in z_rows.iter_mut().zip(r_rows).zip(inv_diag.iter()) {
        *zr = rr.map(|ri| ri * d);
    }
    Some(z)
}

/// The scalar outcome of a one-lane [`recurrence`].
pub(crate) fn scalar_outcome(mut run: BlockSolveOutcome) -> SolveOutcome {
    let Some(lane) = run.lanes.pop() else {
        unreachable!("a recurrence reports one outcome per lane");
    };
    SolveOutcome {
        iterations: lane.iterations,
        converged: lane.converged,
        status: lane.status,
        residual_norm: lane.residual_norm,
        times: run.times,
        history: lane.history,
    }
}

/// Solves `A·x = b` with CG, starting from the initial guess in `x`.
///
/// The kernel's phase clocks are used to attribute SpMV multiply/reduce
/// time; every vector pass is timed here. The kernel's *pre-existing*
/// accumulated times (e.g. format preprocessing at construction) are
/// reported in the `preprocess` slot.
pub fn cg<K: ParallelSpmv + ?Sized>(
    kernel: &mut K,
    b: &[Val],
    x: &mut [Val],
    config: &CgConfig,
) -> CgResult {
    let n = kernel.n();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let ctx = Arc::clone(kernel.context());
    // All three work vectors are arena scratch.
    let mut r = ctx.lease_scratch(n);
    let mut p = ctx.lease_scratch(n);
    let mut ap = ctx.lease_scratch(n);
    scalar_outcome(recurrence::<1, _, _>(
        kernel,
        Some(&ctx),
        K::spmv,
        None,
        (b, x),
        (&mut r[..], &mut p[..], &mut ap[..]),
        config,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_core::{CsrParallel, ReductionMethod, SymFormat, SymSpmv};
    use symspmv_csx::detect::DetectConfig;
    use symspmv_runtime::ExecutionContext;
    use symspmv_sparse::dense::seeded_vector;
    use symspmv_sparse::CooMatrix;

    fn residual(coo: &CooMatrix, x: &[Val], b: &[Val]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        let mut c = coo.clone();
        c.canonicalize();
        c.spmv_reference(x, &mut ax);
        ax.iter()
            .zip(b)
            .map(|(a, bb)| (a - bb) * (a - bb))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn solves_laplacian_with_csr() {
        let coo = symspmv_sparse::gen::laplacian_2d(20, 20);
        let n = 400;
        let b = seeded_vector(n, 3);
        let mut x = vec![0.0; n];
        let ctx = ExecutionContext::new(4);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let res = cg(
            &mut k,
            &b,
            &mut x,
            &CgConfig {
                max_iters: 2000,
                rel_tol: 1e-10,
                record_history: true,
            },
        );
        assert!(res.converged, "CG did not converge: {res:?}");
        assert!(residual(&coo, &x, &b) < 1e-6);
        assert!(res.history.len() == res.iterations + 1);
        // History should broadly decrease.
        assert!(res.history.last().unwrap() < &res.history[0]);
    }

    #[test]
    fn all_symmetric_kernels_agree_with_csr() {
        let coo = symspmv_sparse::gen::banded_random(300, 15, 6.0, 11);
        let n = 300;
        let b = seeded_vector(n, 5);
        let cfg = CgConfig {
            max_iters: 1500,
            rel_tol: 1e-9,
            record_history: false,
        };
        let ctx = ExecutionContext::new(3);

        let mut x_ref = vec![0.0; n];
        let mut kr = CsrParallel::from_coo(&coo, &ctx);
        let rr = cg(&mut kr, &b, &mut x_ref, &cfg);
        assert!(rr.converged);

        for method in [
            ReductionMethod::Naive,
            ReductionMethod::EffectiveRanges,
            ReductionMethod::Indexing,
        ] {
            let mut k = SymSpmv::from_coo(&coo, &ctx, method, SymFormat::Sss).unwrap();
            let mut x = vec![0.0; n];
            let r = cg(&mut k, &b, &mut x, &cfg);
            assert!(r.converged, "{method:?} failed to converge");
            for (a, bb) in x.iter().zip(&x_ref) {
                assert!((a - bb).abs() < 1e-5, "{method:?}: {a} vs {bb}");
            }
        }

        let dcfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        let mut k = SymSpmv::from_coo(
            &coo,
            &ctx,
            ReductionMethod::Indexing,
            SymFormat::CsxSym(dcfg),
        )
        .unwrap();
        let mut x = vec![0.0; n];
        let r = cg(&mut k, &b, &mut x, &cfg);
        assert!(r.converged);
        assert!(residual(&coo, &x, &b) < 1e-5);
        // CSX-Sym construction must show up as preprocessing time.
        assert!(r.times.preprocess > std::time::Duration::ZERO);
    }

    #[test]
    fn fixed_iteration_mode_runs_exactly_max_iters() {
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let b = vec![1.0; 64];
        let mut x = vec![0.0; 64];
        let res = cg(
            &mut k,
            &b,
            &mut x,
            &CgConfig {
                max_iters: 50,
                rel_tol: 0.0,
                record_history: false,
            },
        );
        assert_eq!(res.iterations, 50);
        assert!(!res.converged);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let coo = symspmv_sparse::gen::laplacian_2d(5, 5);
        let ctx = ExecutionContext::new(1);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let b = vec![0.0; 25];
        let mut x = vec![0.0; 25];
        let res = cg(&mut k, &b, &mut x, &CgConfig::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn times_partitioned_by_phase_and_ledgered() {
        let coo = symspmv_sparse::gen::banded_random(600, 10, 6.0, 2);
        let ctx = ExecutionContext::new(2);
        let mut k =
            SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let b = seeded_vector(600, 1);
        let mut x = vec![0.0; 600];
        let res = cg(
            &mut k,
            &b,
            &mut x,
            &CgConfig {
                max_iters: 64,
                rel_tol: 0.0,
                record_history: false,
            },
        );
        assert!(res.times.multiply > std::time::Duration::ZERO);
        assert!(res.times.vector_ops > std::time::Duration::ZERO);
    }

    #[test]
    fn construction_time_is_reported_per_solve_but_never_ledgered() {
        let coo = symspmv_sparse::gen::banded_random(300, 15, 6.0, 11);
        let ctx = ExecutionContext::new(2);
        let dcfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        let mut k = SymSpmv::from_coo(
            &coo,
            &ctx,
            ReductionMethod::Indexing,
            SymFormat::CsxSym(dcfg),
        )
        .unwrap();
        let built = k.times().preprocess;
        assert!(built > std::time::Duration::ZERO);
        let b = seeded_vector(300, 1);
        for solves in 1..=2u32 {
            let mut x = vec![0.0; 300];
            let res = cg(&mut k, &b, &mut x, &CgConfig::default());
            // Fig. 14 reads the one-time cost off every outcome; no
            // preprocessing ran during the solve, so it must not grow
            // with the number of solves.
            assert_eq!(res.times.preprocess, built, "after {solves} solve(s)");
        }
    }

    #[test]
    fn negative_definite_operator_reports_not_spd() {
        // -Laplacian is negative definite: pᵀAp < 0 on the very first
        // iteration. The old solver would silently emit garbage iterates.
        let base = symspmv_sparse::gen::laplacian_2d(8, 8);
        let mut coo = CooMatrix::new(64, 64);
        for (r, c, v) in base.iter() {
            coo.push(r, c, -v);
        }
        coo.canonicalize();
        let ctx = ExecutionContext::new(2);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let b = seeded_vector(64, 4);
        let mut x = vec![0.0; 64];
        let res = cg(&mut k, &b, &mut x, &CgConfig::default());
        assert!(!res.converged);
        assert!(res.status.is_breakdown());
        match res.status {
            SolveStatus::NotSpd { pap } => assert!(pap < 0.0),
            other => panic!("expected NotSpd, got {other:?}"),
        }
        match res.into_result() {
            Err(SymSpmvError::NotSpd { pap, .. }) => assert!(pap < 0.0),
            other => panic!("expected SymSpmvError::NotSpd, got {other:?}"),
        }
    }

    #[test]
    fn nan_in_matrix_reports_non_finite_not_garbage() {
        // A NaN planted in the operator poisons the first curvature dot
        // product; the solver must say so instead of iterating on NaNs.
        let mut coo = symspmv_sparse::gen::laplacian_2d(6, 6);
        coo.push(0, 0, f64::NAN);
        coo.canonicalize();
        let ctx = ExecutionContext::new(2);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let b = seeded_vector(36, 8);
        let mut x = vec![0.0; 36];
        let res = cg(&mut k, &b, &mut x, &CgConfig::default());
        assert_eq!(res.status, SolveStatus::NonFiniteResidual);
        assert!(matches!(
            res.into_result(),
            Err(SymSpmvError::NonFiniteResidual { .. })
        ));
    }

    #[test]
    fn normal_terminations_pass_through_into_result() {
        let coo = symspmv_sparse::gen::laplacian_2d(5, 5);
        let ctx = ExecutionContext::new(1);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let b = seeded_vector(25, 6);
        let mut x = vec![0.0; 25];
        let res = cg(&mut k, &b, &mut x, &CgConfig::default());
        assert_eq!(res.status, SolveStatus::Converged);
        assert!(!res.status.is_breakdown());
        let ok = res.into_result().expect("converged solve is Ok");
        assert!(ok.converged);

        // Diverged statuses map to the taxonomy with the growth factor.
        let mut diverged = ok;
        diverged.status = SolveStatus::Diverged { growth: 1e9 };
        match diverged.into_result() {
            Err(SymSpmvError::Diverged {
                relative_residual, ..
            }) => assert_eq!(relative_residual, 1e9),
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn warm_solve_makes_two_rounds_per_spmv_and_one_per_parallel_vector_op() {
        // The traffic the pool protocol is sized on. A warm `sss-idx` SpMV at
        // p = 2 is two rounds (multiply, reduce). Below PAR_THRESHOLD every
        // vector op is serial: 2·(iters + 1) rounds. Above it the set-up adds
        // two dots and an iteration two dots, two axpys and one xpby:
        // 4 + 7·iters. Fusing vector ops (ROADMAP 1b) moves this pin on purpose.
        for (side, per_iter, fixed) in [(40, 2, 2), (130, 7, 4)] {
            let coo = symspmv_sparse::gen::laplacian_2d(side, side);
            let n = coo.nrows() as usize;
            assert_eq!(n >= crate::vecops::PAR_THRESHOLD, per_iter == 7, "n = {n}");
            let ctx = ExecutionContext::new(2);
            let mut k =
                SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
            let b = seeded_vector(n, 3);
            let cfg = CgConfig {
                max_iters: 12,
                rel_tol: 0.0,
                record_history: false,
            };
            cg(&mut k, &b, &mut vec![0.0; n], &cfg); // grows the arena: extra rounds
            let before = ctx.pool_rounds();
            let res = cg(&mut k, &b, &mut vec![0.0; n], &cfg);
            assert_eq!(res.iterations, 12);
            assert_eq!(
                ctx.pool_rounds() - before,
                per_iter * res.iterations + fixed,
                "n = {n}"
            );
        }
    }

    #[test]
    fn full_solve_creates_exactly_one_pool_and_recycles_scratch() {
        let coo = symspmv_sparse::gen::banded_random(500, 12, 6.0, 9);
        let ctx = ExecutionContext::new(4);
        let mut k =
            SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap();
        let b = seeded_vector(500, 2);
        let mut x = vec![0.0; 500];
        let cfg = CgConfig {
            max_iters: 32,
            rel_tol: 0.0,
            record_history: false,
        };
        // Pool identity is its worker threads: the solve must dispatch its
        // rounds on the context's pool and leave it on the same four.
        let workers = || {
            let ids = std::sync::Mutex::new(vec![None; 4]);
            ctx.run(&|tid| ids.lock().unwrap()[tid] = Some(std::thread::current().id()));
            ids.into_inner().unwrap()
        };
        let workers_before = workers();
        let rounds_before = ctx.pool_rounds();
        let res1 = cg(&mut k, &b, &mut x, &cfg);
        assert!(ctx.pool_rounds() >= rounds_before + res1.iterations);
        assert_eq!(
            workers(),
            workers_before,
            "a full CG solve must run on exactly one pool"
        );
        // A second solve leases the same scratch buffers back out of the
        // arena and reaches the identical iterate.
        let free_between = ctx.stats().arena_free_buffers;
        let mut x2 = vec![0.0; 500];
        let res2 = cg(&mut k, &b, &mut x2, &cfg);
        assert_eq!(ctx.stats().arena_free_buffers, free_between);
        assert_eq!(res1.iterations, res2.iterations);
        for (a, bb) in x.iter().zip(&x2) {
            assert_eq!(a, bb, "scratch reuse must not change the iterates");
        }
    }
}
