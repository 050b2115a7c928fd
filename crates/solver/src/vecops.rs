//! Dense vector kernels used by CG.
//!
//! Small vectors run serially; larger ones run SPMD on the shared
//! [`ExecutionContext`] pool — the same workers that execute the SpMV, as
//! in the paper's pthreads CG (DESIGN.md S4). Using the context instead of
//! a separate thread-pool library keeps the whole solve on one pool.
//!
//! Every operation has one body, generic over a `const K` lane count and
//! walking `&[[Val; K]]` row views of its lane-interleaved arguments
//! (`lane_dot`, `lane_axpy`, `lane_xpby`): the public scalar functions are
//! its `K = 1` instance, and the CG recurrence calls the `lane_*` bodies
//! directly at its own `K`. Each lane therefore runs the
//! scalar operation's exact per-element order (rows ascending within the
//! same thread spans, thresholded on the row count, partials summed in
//! thread order), which is what lets block CG reproduce `k` scalar CG
//! solves bit for bit.

use symspmv_runtime::{ExecutionContext, SharedBuf};
use symspmv_sparse::Val;

/// Below this length every kernel runs serially — parallel overhead would
/// dominate.
pub const PAR_THRESHOLD: usize = 1 << 14;

/// Even [lo, hi) split of `len` elements for worker `tid` of `p`.
fn span(len: usize, tid: usize, p: usize) -> (usize, usize) {
    (len * tid / p, len * (tid + 1) / p)
}

/// The pool a `rows`-long operation runs on: none below [`PAR_THRESHOLD`],
/// and none when the caller has no pool to run on (`exec` is `None`, the
/// degraded serial rerun).
fn pool(exec: Option<&ExecutionContext>, rows: usize) -> Option<&ExecutionContext> {
    exec.filter(|_| rows >= PAR_THRESHOLD)
}

/// Per-lane dot products `a_jᵀ·b_j` of two `K`-lane-interleaved vectors.
pub(crate) fn lane_dot<const K: usize>(
    exec: Option<&ExecutionContext>,
    a: &[Val],
    b: &[Val],
) -> [Val; K] {
    assert_eq!(a.len(), b.len());
    let (a, b) = (a.as_chunks::<K>().0, b.as_chunks::<K>().0);
    let sum_rows = |lo: usize, hi: usize| {
        let mut acc = [0.0; K];
        for (ar, br) in a[lo..hi].iter().zip(&b[lo..hi]) {
            for j in 0..K {
                acc[j] += ar[j] * br[j];
            }
        }
        acc
    };
    let Some(ctx) = pool(exec, a.len()) else {
        return sum_rows(0, a.len());
    };
    let p = ctx.nthreads();
    let mut partials = vec![0.0; p * K];
    let pb = SharedBuf::new(&mut partials);
    ctx.run(&|tid| {
        let (lo, hi) = span(a.len(), tid, p);
        let acc = sum_rows(lo, hi);
        // SAFETY(cert: disjoint-direct): lane group tid is thread-private.
        unsafe { pb.range_mut(tid * K, (tid + 1) * K) }.copy_from_slice(&acc);
    });
    let mut out = [0.0; K];
    for part in partials.as_chunks::<K>().0 {
        for j in 0..K {
            out[j] += part[j];
        }
    }
    out
}

/// `dst[i][j] = op(dst[i][j], src[i][j], coef[j])` for every row `i` and
/// every lane `j` with `active[j]` — the one body of [`lane_axpy`] and
/// [`lane_xpby`]. Frozen lanes are rewritten with their own value, so they
/// stay bit-exactly untouched while the row loop stays branch-free.
fn lane_update<const K: usize>(
    exec: Option<&ExecutionContext>,
    coef: [Val; K],
    active: [bool; K],
    src: &[Val],
    dst: &mut [Val],
    op: impl Fn(Val, Val, Val) -> Val + Sync,
) {
    assert_eq!(src.len(), dst.len());
    let src = src.as_chunks::<K>().0;
    let update_rows = |dst: &mut [Val], src: &[[Val; K]]| {
        for (dr, sr) in dst.as_chunks_mut::<K>().0.iter_mut().zip(src) {
            for j in 0..K {
                dr[j] = if active[j] {
                    op(dr[j], sr[j], coef[j])
                } else {
                    dr[j]
                };
            }
        }
    };
    let Some(ctx) = pool(exec, src.len()) else {
        return update_rows(dst, src);
    };
    let p = ctx.nthreads();
    let db = SharedBuf::new(dst);
    ctx.run(&|tid| {
        let (lo, hi) = span(src.len(), tid, p);
        // SAFETY(cert: lane-lifted): row spans tile 0..len disjointly, so
        // their lane groups tile the flat store disjointly.
        let rows = unsafe { db.range_mut(lo * K, hi * K) };
        update_rows(rows, &src[lo..hi]);
    });
}

/// `y_j += alpha[j]·x_j` for every lane `j` with `active[j]`.
pub(crate) fn lane_axpy<const K: usize>(
    exec: Option<&ExecutionContext>,
    alpha: [Val; K],
    active: [bool; K],
    x: &[Val],
    y: &mut [Val],
) {
    lane_update(exec, alpha, active, x, y, |yi, xi, a| yi + a * xi);
}

/// `p_j = r_j + beta[j]·p_j` for every lane `j` with `active[j]`.
pub(crate) fn lane_xpby<const K: usize>(
    exec: Option<&ExecutionContext>,
    r: &[Val],
    beta: [Val; K],
    active: [bool; K],
    p: &mut [Val],
) {
    lane_update(exec, beta, active, r, p, |pi, ri, b| ri + b * pi);
}

/// Dot product `aᵀ·b`.
pub fn dot(ctx: &ExecutionContext, a: &[Val], b: &[Val]) -> Val {
    lane_dot::<1>(Some(ctx), a, b)[0]
}

/// Squared Euclidean norm.
pub fn norm2_sq(ctx: &ExecutionContext, a: &[Val]) -> Val {
    dot(ctx, a, a)
}

/// `y += alpha·x`.
pub fn axpy(ctx: &ExecutionContext, alpha: Val, x: &[Val], y: &mut [Val]) {
    lane_axpy(Some(ctx), [alpha], [true], x, y);
}

/// `p = r + beta·p` (the CG direction update).
pub fn xpby(ctx: &ExecutionContext, r: &[Val], beta: Val, p: &mut [Val]) {
    lane_xpby(Some(ctx), r, [beta], [true], p);
}

/// `y = x - y` in place on `y` (used for `r = b - A·x`).
pub fn sub_from(x: &[Val], y: &mut [Val]) {
    assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi - *yi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ctx() -> Arc<ExecutionContext> {
        ExecutionContext::new(3)
    }

    #[test]
    fn dot_small_and_large_agree() {
        let ctx = ctx();
        let n = PAR_THRESHOLD + 17;
        let a: Vec<Val> = (0..n).map(|i| (i % 7) as Val - 3.0).collect();
        let b: Vec<Val> = (0..n).map(|i| (i % 5) as Val - 2.0).collect();
        let serial: Val = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let par = dot(&ctx, &a, &b);
        assert!((serial - par).abs() < 1e-6 * serial.abs().max(1.0));
        // Small path.
        assert_eq!(
            dot(&ctx, &a[..100], &b[..100]),
            a[..100]
                .iter()
                .zip(&b[..100])
                .map(|(x, y)| x * y)
                .sum::<Val>()
        );
    }

    #[test]
    fn axpy_updates() {
        let ctx = ctx();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(&ctx, 2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    fn axpy_large_path() {
        let ctx = ctx();
        let n = PAR_THRESHOLD * 2;
        let x = vec![1.0; n];
        let mut y = vec![0.5; n];
        axpy(&ctx, -0.5, &x, &mut y);
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn xpby_direction_update() {
        let ctx = ctx();
        let r = vec![1.0, 1.0];
        let mut p = vec![4.0, -2.0];
        xpby(&ctx, &r, 0.5, &mut p);
        assert_eq!(p, vec![3.0, 0.0]);
    }

    #[test]
    fn xpby_large_path() {
        let ctx = ctx();
        let n = PAR_THRESHOLD * 2 + 5;
        let r = vec![1.0; n];
        let mut p = vec![4.0; n];
        xpby(&ctx, &r, 0.5, &mut p);
        assert!(p.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn sub_from_residual() {
        let b = vec![5.0, 5.0];
        let mut ax = vec![2.0, 7.0];
        sub_from(&b, &mut ax);
        assert_eq!(ax, vec![3.0, -2.0]);
    }

    #[test]
    fn norm_is_dot_with_self() {
        let ctx = ctx();
        let a = vec![3.0, 4.0];
        assert_eq!(norm2_sq(&ctx, &a), 25.0);
    }
}
