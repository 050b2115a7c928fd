//! Resilient solver entry points: bounded retry and degraded-mode serial
//! reruns for [`cg`], [`pcg_jacobi`] and [`block_cg`].
//!
//! The plain solvers call the *panicking* kernel path (`spmv`/`spmm`) and
//! the pool-backed vector operations, so a worker death or a supervision
//! interrupt unwinds out of the whole solve. The wrappers here catch that
//! unwind into its typed error ([`try_on_pool`], the same taxonomy
//! as `try_spmv`) and hand the parallel solve and its degraded rerun to the
//! one resilience ladder, [`serve`] (DESIGN.md §16):
//!
//! 1. **Retry** — the initial guess is restored and the solve is re-run
//!    under the caller's [`RetryPolicy`] (transient failures only: a
//!    worker panic, whose worker the supervisor has already respawned).
//! 2. **Degrade** — when the policy is exhausted, the pool is Wedged, or
//!    a deadline overran, the solve is re-run *serially* on the
//!    [`FallbackKernel`]: serial SpMV and serial vector loops, touching
//!    neither the worker pool nor the arena, so it completes even while a
//!    wedged round is draining.
//! 3. **Report** — cancellation and numerical breakdowns are never
//!    retried or degraded: cancellation returns the typed error (with the
//!    caller's `x` restored to the initial guess), and breakdowns come
//!    back as a normal [`SolveOutcome`] / per-lane status, exactly as the
//!    plain solvers report them.
//!
//! The serial rerun is the same recurrence as the parallel solve, but it
//! re-associates the vector reductions (a serial sum instead of the pool's
//! per-thread partials), so its iterates are not bit-identical to the
//! parallel solve — it is a fresh, well-formed CG on the same operator, and
//! the tests bound both solutions against the same reference.

use crate::block_cg::{block_cg, BlockSolveOutcome};
use crate::cg::{cg, recurrence, scalar_outcome, CgConfig, SolveOutcome};
use crate::pcg::{invert_diagonal, pcg_jacobi};
use std::sync::Arc;
use symspmv_core::{
    serve, try_on_pool, FallbackKernel, ParallelSpmm, ParallelSpmv, RetryPolicy, Served,
    SymSpmvError, VectorBlock,
};
use symspmv_runtime::{ExecutionContext, PhaseTimes, Supervision};
use symspmv_sparse::Val;

/// A solve outcome annotated with *how* it was produced: by the parallel
/// kernel (possibly after retries) or by the degraded-mode serial rerun.
#[derive(Debug, Clone)]
pub struct ServedSolve<O> {
    /// The solve outcome (per-solver type).
    pub outcome: O,
    /// How the solve was served.
    pub served: Served,
}

impl<O> ServedSolve<O> {
    /// `true` when the solve was served by the serial fallback.
    pub fn is_fallback(&self) -> bool {
        self.served.is_fallback()
    }
}

fn assert_same_matrix<K: ParallelSpmv + ?Sized>(kernel: &K, fallback: &FallbackKernel) {
    assert_eq!(
        kernel.n(),
        ParallelSpmv::n(fallback),
        "fallback must represent the same matrix as the kernel"
    );
}

/// Climbs the [`serve`] ladder for a solve on the iterate `x`: every
/// attempt, the degraded rerun and an `Err` return all start from the
/// caller's initial guess, and a parallel attempt's worker death or
/// supervision interrupt is caught into its typed error.
fn serve_solve<X: AsRef<[Val]> + AsMut<[Val]> + ?Sized, O>(
    ctx: &ExecutionContext,
    policy: &RetryPolicy,
    sup: Option<Supervision>,
    x: &mut X,
    mut parallel: impl FnMut(&mut X) -> O,
    degraded: impl FnOnce(&mut X) -> O,
) -> Result<ServedSolve<O>, SymSpmvError> {
    let x0 = x.as_ref().to_vec();
    let reset = |x: &mut X| x.as_mut().copy_from_slice(&x0);
    let attempt = |x: &mut X| try_on_pool(ctx, || parallel(x));
    let (outcome, served) = serve(ctx, policy, sup, x, reset, attempt, degraded)?;
    Ok(ServedSolve { outcome, served })
}

/// Solves `A·x = b` with CG resiliently: retried per `policy` on worker
/// death, re-run serially on `fallback` when the parallel path is lost.
///
/// `sup` (deadline and/or cancellation token) is installed on the
/// kernel's context for the parallel attempts and cleared before the
/// degraded rerun — a deadline that already killed the parallel solve
/// must not also kill the serial one, since late serving is the point.
///
/// On `Err` (cancellation, or a non-pool error), `x` is restored to the
/// initial guess. Numerical breakdowns are *not* errors here: they come
/// back as `Ok` with a breakdown [`SolveStatus`](crate::cg::SolveStatus),
/// exactly like [`cg`], and are never retried (they would reproduce
/// identically).
pub fn resilient_cg<K: ParallelSpmv + ?Sized>(
    kernel: &mut K,
    fallback: &mut FallbackKernel,
    b: &[Val],
    x: &mut [Val],
    config: &CgConfig,
    policy: &RetryPolicy,
    sup: Option<Supervision>,
) -> Result<ServedSolve<SolveOutcome>, SymSpmvError> {
    assert_same_matrix(kernel, fallback);
    let ctx = Arc::clone(kernel.context());
    serve_solve(
        &ctx,
        policy,
        sup,
        x,
        |x| cg(kernel, b, x, config),
        |x| scalar_outcome(serial_solve(fallback, None, b, x, config)),
    )
}

/// Solves `A·x = b` with Jacobi-preconditioned CG resiliently; `diag`
/// must be the (positive) diagonal of `A`. Semantics are identical to
/// [`resilient_cg`]; the degraded rerun applies the same preconditioner
/// serially.
// One over the clippy arity limit: this mirrors pcg_jacobi's five solve
// parameters plus the two resilience knobs shared by every wrapper here.
#[allow(clippy::too_many_arguments)]
pub fn resilient_pcg_jacobi<K: ParallelSpmv + ?Sized>(
    kernel: &mut K,
    fallback: &mut FallbackKernel,
    diag: &[Val],
    b: &[Val],
    x: &mut [Val],
    config: &CgConfig,
    policy: &RetryPolicy,
    sup: Option<Supervision>,
) -> Result<ServedSolve<SolveOutcome>, SymSpmvError> {
    assert_same_matrix(kernel, fallback);
    let inv_diag = invert_diagonal(diag);
    let ctx = Arc::clone(kernel.context());
    serve_solve(
        &ctx,
        policy,
        sup,
        x,
        |x| pcg_jacobi(kernel, diag, b, x, config),
        |x| scalar_outcome(serial_solve(fallback, Some(&inv_diag), b, x, config)),
    )
}

/// Solves the `k` systems `A·x_j = b_j` with block CG resiliently.
/// Semantics are identical to [`resilient_cg`]; the degraded rerun
/// solves the lanes one at a time with the serial scalar CG.
pub fn resilient_block_cg<K: ParallelSpmm + ?Sized>(
    kernel: &mut K,
    fallback: &mut FallbackKernel,
    b: &VectorBlock,
    x: &mut VectorBlock,
    config: &CgConfig,
    policy: &RetryPolicy,
    sup: Option<Supervision>,
) -> Result<ServedSolve<BlockSolveOutcome>, SymSpmvError> {
    assert_same_matrix(kernel, fallback);
    let ctx = Arc::clone(kernel.context());
    serve_solve(
        &ctx,
        policy,
        sup,
        x,
        |x| block_cg(kernel, b, x, config),
        |x| serial_block_solve(fallback, b, x, config),
    )
}

/// The degraded-mode block solve: the lanes one at a time through
/// [`serial_solve`], their phase times summed.
fn serial_block_solve(
    fallback: &mut FallbackKernel,
    b: &VectorBlock,
    x: &mut VectorBlock,
    config: &CgConfig,
) -> BlockSolveOutcome {
    let mut total = BlockSolveOutcome {
        lanes: Vec::with_capacity(b.lanes()),
        iterations: 0,
        times: PhaseTimes {
            preprocess: fallback.times().preprocess,
            ..PhaseTimes::new()
        },
    };
    let mut bj = vec![0.0; b.n()];
    let mut xj = vec![0.0; b.n()];
    for j in 0..b.lanes() {
        b.copy_lane_into(j, &mut bj);
        x.copy_lane_into(j, &mut xj);
        let run = serial_solve(fallback, None, &bj, &mut xj, config);
        x.copy_lane_from(j, &xj);
        total.iterations = total.iterations.max(run.iterations);
        total.times.multiply += run.times.multiply;
        total.times.vector_ops += run.times.vector_ops;
        total.lanes.extend(run.lanes);
    }
    total
}

/// The degraded-mode solve: the same recurrence on the fallback's serial
/// SpMV with serial vector loops and plain allocations — no pool, no
/// arena, so it shares nothing with the machinery that just failed.
fn serial_solve(
    fallback: &mut FallbackKernel,
    inv_diag: Option<&[Val]>,
    b: &[Val],
    x: &mut [Val],
    config: &CgConfig,
) -> BlockSolveOutcome {
    let n = ParallelSpmv::n(fallback);
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let (mut r, mut p, mut ap) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let mut z = inv_diag.map(|_| vec![0.0; n]);
    recurrence::<1, _, _>(
        fallback,
        None,
        FallbackKernel::spmv,
        inv_diag.zip(z.as_deref_mut()),
        (b, x),
        (&mut r[..], &mut p[..], &mut ap[..]),
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::SolveStatus;
    use crate::pcg::diagonal_of;
    use std::borrow::Cow;
    use std::time::Duration;
    use symspmv_core::{CsrParallel, ReductionMethod, SymFormat, SymSpmv};
    use symspmv_runtime::{CancelToken, ExecutionContext};
    use symspmv_sparse::dense::seeded_vector;
    use symspmv_sparse::{CooMatrix, SymmetryKind};

    /// Wraps a kernel and kills share 0 on the first `remaining` spmv (or
    /// spmm) calls — the panic surfaces exactly like a genuine worker
    /// death: recorded on the context. Share 0 runs on the calling thread,
    /// so the pool has no thread to respawn for it.
    struct Flaky<K> {
        inner: K,
        remaining: usize,
    }

    impl<K: ParallelSpmv> Flaky<K> {
        fn trip(&mut self) {
            if self.remaining > 0 {
                self.remaining -= 1;
                self.inner.context().run(&|tid| {
                    if tid == 0 {
                        panic!("injected worker fault");
                    }
                });
            }
        }
    }

    impl<K: ParallelSpmv> ParallelSpmv for Flaky<K> {
        fn spmv(&mut self, x: &[Val], y: &mut [Val]) {
            self.trip();
            self.inner.spmv(x, y);
        }
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn nnz_full(&self) -> usize {
            self.inner.nnz_full()
        }
        fn size_bytes(&self) -> usize {
            self.inner.size_bytes()
        }
        fn times(&self) -> symspmv_runtime::PhaseTimes {
            self.inner.times()
        }
        fn reset_times(&mut self) {
            self.inner.reset_times();
        }
        fn name(&self) -> Cow<'static, str> {
            Cow::Borrowed("flaky")
        }
        fn context(&self) -> &Arc<ExecutionContext> {
            self.inner.context()
        }
    }

    impl<K: ParallelSpmm> ParallelSpmm for Flaky<K> {
        fn spmm(&mut self, x: &VectorBlock, y: &mut VectorBlock) {
            self.trip();
            self.inner.spmm(x, y);
        }
    }

    fn fast_policy(attempts: usize) -> RetryPolicy {
        RetryPolicy::new(attempts)
    }

    fn setup(p: usize) -> (CooMatrix, Arc<ExecutionContext>, FallbackKernel) {
        let coo = symspmv_sparse::gen::banded_random(300, 12, 7.0, 17);
        let ctx = ExecutionContext::new(p);
        let fb = FallbackKernel::from_coo_kind(&coo, SymmetryKind::Symmetric, Arc::clone(&ctx))
            .expect("seed matrix is symmetric");
        (coo, ctx, fb)
    }

    #[test]
    fn clean_solve_is_served_parallel_and_matches_plain_cg() {
        let (coo, ctx, mut fb) = setup(3);
        let n = 300;
        let b = seeded_vector(n, 5);
        let cfg = CgConfig::default();

        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let mut x_plain = vec![0.0; n];
        let plain = cg(&mut k, &b, &mut x_plain, &cfg);
        assert!(plain.converged);

        let mut x = vec![0.0; n];
        let served = resilient_cg(&mut k, &mut fb, &b, &mut x, &cfg, &fast_policy(3), None)
            .expect("clean solve");
        assert_eq!(served.served, Served::Parallel { attempts: 1 });
        assert!(!served.is_fallback());
        assert_eq!(served.outcome.iterations, plain.iterations);
        for (a, bb) in x.iter().zip(&x_plain) {
            assert_eq!(a.to_bits(), bb.to_bits(), "deterministic rerun");
        }
    }

    #[test]
    fn transient_worker_deaths_are_retried_to_success() {
        let (coo, ctx, mut fb) = setup(4);
        let n = 300;
        let b = seeded_vector(n, 9);
        let cfg = CgConfig::default();

        let mut x_ref = vec![0.0; n];
        let mut kr = CsrParallel::from_coo(&coo, &ctx);
        assert!(cg(&mut kr, &b, &mut x_ref, &cfg).converged);

        // The first two attempts die on their very first SpMV; the third
        // runs clean from the restored initial guess.
        let mut k = Flaky {
            inner: CsrParallel::from_coo(&coo, &ctx),
            remaining: 2,
        };
        let mut x = vec![0.0; n];
        let served = resilient_cg(&mut k, &mut fb, &b, &mut x, &cfg, &fast_policy(3), None)
            .expect("third attempt succeeds");
        assert_eq!(served.served, Served::Parallel { attempts: 3 });
        assert!(served.outcome.converged);
        assert_eq!(ctx.health_state().failures(), 2, "each death was recorded");
        assert_eq!(
            ctx.health_state().respawns(),
            0,
            "share 0 has no thread to replace"
        );
        for (a, bb) in x.iter().zip(&x_ref) {
            assert!((a - bb).abs() < 1e-6, "{a} vs {bb}");
        }
    }

    #[test]
    fn exhausted_retries_degrade_to_the_serial_fallback() {
        let (coo, ctx, mut fb) = setup(2);
        let n = 300;
        let b = seeded_vector(n, 2);
        let cfg = CgConfig::default();

        let mut x_ref = vec![0.0; n];
        let mut kr = CsrParallel::from_coo(&coo, &ctx);
        assert!(cg(&mut kr, &b, &mut x_ref, &cfg).converged);

        let mut k = Flaky {
            inner: CsrParallel::from_coo(&coo, &ctx),
            remaining: usize::MAX,
        };
        let mut x = vec![0.0; n];
        let served = resilient_cg(&mut k, &mut fb, &b, &mut x, &cfg, &fast_policy(2), None)
            .expect("fallback keeps the request available");
        match &served.served {
            Served::Fallback {
                cause: SymSpmvError::RetriesExhausted { attempts, .. },
            } => assert_eq!(*attempts, 2),
            other => panic!("expected exhausted-retries fallback, got {other:?}"),
        }
        assert!(served.outcome.converged, "{:?}", served.outcome.status);
        for (a, bb) in x.iter().zip(&x_ref) {
            assert!((a - bb).abs() < 1e-6, "{a} vs {bb}");
        }
    }

    #[test]
    fn degraded_rerun_touches_neither_the_pool_nor_the_arena() {
        // Long enough that a pool-backed vector op would dispatch a round.
        let n = crate::vecops::PAR_THRESHOLD + 100;
        let coo = symspmv_sparse::gen::banded_random(n as u32, 8, 5.0, 23);
        let b = seeded_vector(n, 8);
        let bb = VectorBlock::seeded(n, 2, 8);
        let diag = diagonal_of(&coo);
        let cfg = CgConfig {
            max_iters: 10,
            rel_tol: 0.0,
            record_history: false,
        };
        for solver in ["cg", "pcg", "block"] {
            let ctx = ExecutionContext::new(2);
            let mut fb =
                FallbackKernel::from_coo_kind(&coo, SymmetryKind::Symmetric, Arc::clone(&ctx))
                    .expect("seed matrix is symmetric");
            let inner = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss)
                .expect("seed matrix builds");
            let mut k = Flaky {
                inner,
                remaining: usize::MAX,
            };
            let fresh_free = ctx.stats().arena_free_buffers;
            let mut serve = || {
                let (mut x, mut xb) = (vec![0.0; n], VectorBlock::zeros(n, 2));
                let once = fast_policy(1);
                let fallback = match solver {
                    "cg" => resilient_cg(&mut k, &mut fb, &b, &mut x, &cfg, &once, None)
                        .map(|s| s.is_fallback()),
                    "pcg" => {
                        resilient_pcg_jacobi(&mut k, &mut fb, &diag, &b, &mut x, &cfg, &once, None)
                            .map(|s| s.is_fallback())
                    }
                    _ => resilient_block_cg(&mut k, &mut fb, &bb, &mut xb, &cfg, &once, None)
                        .map(|s| s.is_fallback()),
                };
                assert!(fallback.expect("fallback keeps the request available"));
            };
            // The first serve's parallel attempt grows the arena with its
            // own scratch (first-touched on the pool); the second finds it
            // warm, so its single attempt costs exactly the one round the
            // worker dies in and returns every lease before the rerun
            // starts — the moment the parallel attempts end.
            serve();
            let (rounds, free) = (ctx.pool_rounds(), ctx.stats().arena_free_buffers);
            serve();
            assert_eq!(
                ctx.pool_rounds(),
                rounds + 1,
                "{solver}: rerun ran on the pool"
            );
            assert_eq!(
                ctx.stats().arena_free_buffers,
                free,
                "{solver}: rerun leased"
            );
            if solver == "block" {
                // block_cg leases nothing itself and the kernel died before
                // its own lease, so any buffer here would be the rerun's.
                assert_eq!(free, fresh_free, "block: rerun leased");
            }
        }
    }

    #[test]
    fn expired_deadline_degrades_to_the_serial_fallback() {
        let (coo, ctx, mut fb) = setup(2);
        let n = 300;
        let b = seeded_vector(n, 3);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let mut x = vec![0.0; n];
        let served = resilient_cg(
            &mut k,
            &mut fb,
            &b,
            &mut x,
            &CgConfig::default(),
            &fast_policy(3),
            Some(Supervision::deadline_within(Duration::ZERO)),
        )
        .expect("late serving preserves availability");
        assert!(matches!(
            served.served,
            Served::Fallback {
                cause: SymSpmvError::DeadlineExceeded { .. }
            }
        ));
        assert!(served.outcome.converged);
    }

    #[test]
    fn cancellation_returns_the_typed_error_and_restores_x() {
        let (coo, ctx, mut fb) = setup(2);
        let n = 300;
        let b = seeded_vector(n, 4);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let token = CancelToken::new();
        token.cancel();
        let x0 = seeded_vector(n, 77);
        let mut x = x0.clone();
        let err = resilient_cg(
            &mut k,
            &mut fb,
            &b,
            &mut x,
            &CgConfig::default(),
            &fast_policy(3),
            Some(Supervision::with_cancel(token)),
        )
        .unwrap_err();
        assert_eq!(err, SymSpmvError::Cancelled);
        assert_eq!(x, x0, "initial guess restored on error return");
        // The supervision guard cleared on the error path: a plain solve
        // on the same context runs to completion.
        let mut x2 = vec![0.0; n];
        assert!(cg(&mut k, &b, &mut x2, &CgConfig::default()).converged);
    }

    #[test]
    fn numerical_breakdown_passes_through_without_retry_or_fallback() {
        let base = symspmv_sparse::gen::laplacian_2d(8, 8);
        let mut coo = CooMatrix::new(64, 64);
        for (r, c, v) in base.iter() {
            coo.push(r, c, -v);
        }
        coo.canonicalize();
        let ctx = ExecutionContext::new(2);
        let mut fb = FallbackKernel::from_coo_kind(&coo, SymmetryKind::Symmetric, Arc::clone(&ctx))
            .expect("symmetric");
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let b = seeded_vector(64, 4);
        let mut x = vec![0.0; 64];
        let served = resilient_cg(
            &mut k,
            &mut fb,
            &b,
            &mut x,
            &CgConfig::default(),
            &fast_policy(5),
            None,
        )
        .expect("breakdown is a report, not an error");
        assert_eq!(served.served, Served::Parallel { attempts: 1 });
        assert!(served.outcome.status.is_breakdown());
        assert!(matches!(served.outcome.status, SolveStatus::NotSpd { .. }));
    }

    #[test]
    fn pcg_variant_retries_and_falls_back_with_the_preconditioner() {
        let (coo, ctx, mut fb) = setup(2);
        let n = 300;
        let b = seeded_vector(n, 6);
        let diag = diagonal_of(&coo);
        let cfg = CgConfig::default();

        let mut x_ref = vec![0.0; n];
        let mut kr = CsrParallel::from_coo(&coo, &ctx);
        assert!(pcg_jacobi(&mut kr, &diag, &b, &mut x_ref, &cfg).converged);

        // Clean path.
        let mut x = vec![0.0; n];
        let served = resilient_pcg_jacobi(
            &mut kr,
            &mut fb,
            &diag,
            &b,
            &mut x,
            &cfg,
            &fast_policy(3),
            None,
        )
        .expect("clean pcg");
        assert_eq!(served.served, Served::Parallel { attempts: 1 });

        // Permanently flaky → serial preconditioned rerun.
        let mut k = Flaky {
            inner: CsrParallel::from_coo(&coo, &ctx),
            remaining: usize::MAX,
        };
        let mut x = vec![0.0; n];
        let served = resilient_pcg_jacobi(
            &mut k,
            &mut fb,
            &diag,
            &b,
            &mut x,
            &cfg,
            &fast_policy(2),
            None,
        )
        .expect("fallback");
        assert!(served.is_fallback());
        assert!(served.outcome.converged);
        for (a, bb) in x.iter().zip(&x_ref) {
            assert!((a - bb).abs() < 1e-6, "{a} vs {bb}");
        }
    }

    #[test]
    fn block_variant_serves_every_lane_from_the_fallback() {
        let (coo, ctx, mut fb) = setup(3);
        let n = 300;
        let lanes = 4;
        let b = VectorBlock::seeded(n, lanes, 30);
        let cfg = CgConfig::default();

        let mut inner = SymSpmv::from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss)
            .expect("seed matrix builds");

        // Clean path first.
        let mut x = VectorBlock::zeros(n, lanes);
        let served =
            resilient_block_cg(&mut inner, &mut fb, &b, &mut x, &cfg, &fast_policy(3), None)
                .expect("clean block solve");
        assert_eq!(served.served, Served::Parallel { attempts: 1 });
        assert!(served.outcome.all_converged());
        let x_ref = x.as_slice().to_vec();

        // Permanently flaky → per-lane serial reruns.
        let mut k = Flaky {
            inner,
            remaining: usize::MAX,
        };
        let mut x = VectorBlock::zeros(n, lanes);
        let served = resilient_block_cg(&mut k, &mut fb, &b, &mut x, &cfg, &fast_policy(2), None)
            .expect("fallback");
        assert!(served.is_fallback());
        assert!(served.outcome.all_converged());
        assert_eq!(served.outcome.lanes.len(), lanes);
        for (a, bb) in x.as_slice().iter().zip(&x_ref) {
            assert!((a - bb).abs() < 1e-6, "{a} vs {bb}");
        }
    }
}
