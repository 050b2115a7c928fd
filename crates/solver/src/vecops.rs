//! Dense vector kernels used by CG.
//!
//! Small vectors run serially; larger ones run SPMD on the shared
//! [`ExecutionContext`] pool — the same workers that execute the SpMV, as
//! in the paper's pthreads CG (DESIGN.md S4). Using the context instead of
//! a separate thread-pool library keeps the whole solve on one pool.
//!
//! Every operation has one body, generic over a `const K` lane count and
//! walking `&[[Val; K]]` row views of its lane-interleaved arguments
//! (`lane_dot`, `lane_axpy`, `lane_xpby`, and `lane_step`, the fused
//! `x`/`r`/`rᵀr` sweep of a CG iteration): the public scalar functions are
//! their `K = 1` instance, and the CG recurrence calls the `lane_*` bodies
//! directly at its own `K`. Each lane therefore runs the scalar operation's
//! exact per-element order — rows split into the same thread spans,
//! thresholded on the row count, and for the two reductions one summation
//! order (`split_sum`: eight partial sums per span, folded pairwise, then
//! thread partials in thread order) — which is what lets block CG reproduce
//! `k` scalar CG solves bit for bit.

use symspmv_runtime::{ExecutionContext, SharedBuf};
use symspmv_sparse::Val;

/// Below this many rows every kernel runs serially. On the 2-vCPU reference
/// host a pool round costs ~0.6 µs (`runtime.pool_round_s`) and an axpy
/// ~0.27 ns per element, so splitting `n` elements over two threads saves
/// ~0.135·n ns against 600 ns of dispatch: break-even at n ≈ 4.4 k. This is
/// the power of two just below it.
pub const PAR_THRESHOLD: usize = 1 << 12;

/// Partial sums a reduction keeps per lane. One running sum makes a dot a
/// single dependent add chain, one element per FP-add latency (~0.67 ns);
/// eight independent chains hide that latency, so a dot sweeps at the rate
/// its loads allow, like an axpy.
const ACCS: usize = 8;

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

/// `acc[j] += t[j]` for every lane.
fn add<const K: usize>(acc: &mut [Val; K], t: [Val; K]) {
    for j in 0..K {
        acc[j] += t[j];
    }
}

/// The per-lane sum of `terms`: the `i`-th term adds into partial sum
/// `i mod ACCS`, and the partials fold pairwise. A lane's order depends on
/// the number of terms alone, never on `K`.
#[inline(always)]
fn split_sum<const K: usize>(mut terms: impl Iterator<Item = [Val; K]>) -> [Val; K] {
    let mut acc = [[0.0; K]; ACCS];
    'terms: loop {
        for part in &mut acc {
            let Some(t) = terms.next() else {
                break 'terms;
            };
            add(part, t);
        }
    }
    let mut width = ACCS;
    while width > 1 {
        width /= 2;
        for k in 0..width {
            let upper = acc[k + width];
            add(&mut acc[k], upper);
        }
    }
    acc[0]
}

/// Runs `sum_rows(lo, hi)` over every thread's span of `rows` (or over
/// `0..rows` serially) and sums the thread partials in thread order.
fn reduce<const K: usize>(
    exec: Option<&ExecutionContext>,
    rows: usize,
    sum_rows: impl Fn(usize, usize) -> [Val; K] + Sync,
) -> [Val; K] {
    let Some(ctx) = pool(exec, rows) else {
        return sum_rows(0, rows);
    };
    let p = ctx.nthreads();
    let mut partials = vec![0.0; p * K];
    let pb = SharedBuf::new(&mut partials);
    ctx.run(&|tid| {
        let (lo, hi) = span(rows, tid, p);
        let acc = sum_rows(lo, hi);
        // SAFETY(cert: disjoint-direct): lane group tid is thread-private.
        unsafe { pb.range_mut(tid * K, (tid + 1) * K) }.copy_from_slice(&acc);
    });
    let mut out = [0.0; K];
    for part in partials.as_chunks::<K>().0 {
        add(&mut out, *part);
    }
    out
}

/// Per-lane dot products `a_jᵀ·b_j` of two `K`-lane-interleaved vectors.
pub(crate) fn lane_dot<const K: usize>(
    exec: Option<&ExecutionContext>,
    a: &[Val],
    b: &[Val],
) -> [Val; K] {
    assert_eq!(a.len(), b.len());
    let (a, b) = (a.as_chunks::<K>().0, b.as_chunks::<K>().0);
    reduce(exec, a.len(), |lo, hi| {
        let rows = a[lo..hi].iter().zip(&b[lo..hi]);
        split_sum(rows.map(|(ar, br)| std::array::from_fn(|j| ar[j] * br[j])))
    })
}

/// The CG update of one iteration as one sweep: `x_j += alpha[j]·p_j` and
/// `r_j −= alpha[j]·ap_j` for every lane `j` with `active[j]`, returning
/// every lane's `r_jᵀr_j` after the update. `x` and `r` come out bit-equal
/// to [`lane_axpy`] with `alpha` and then with `−alpha`, and the sums
/// bit-equal to [`lane_dot`]`(r, r)`; it costs one pass and one pool round
/// where those cost three of each.
pub(crate) fn lane_step<const K: usize>(
    exec: Option<&ExecutionContext>,
    alpha: [Val; K],
    active: [bool; K],
    p: &[Val],
    ap: &[Val],
    x: &mut [Val],
    r: &mut [Val],
) -> [Val; K] {
    assert!(p.len() == x.len() && ap.len() == r.len() && x.len() == r.len());
    let neg = alpha.map(|a| -a);
    let (p, ap) = (p.as_chunks::<K>().0, ap.as_chunks::<K>().0);
    let (xb, rb) = (SharedBuf::new(x), SharedBuf::new(r));
    reduce(exec, p.len(), |lo, hi| {
        // SAFETY(cert: lane-lifted): row spans tile 0..len disjointly (one
        // span when serial), so their lane groups tile `x` and `r` disjointly.
        let (x, r) = unsafe { (xb.range_mut(lo * K, hi * K), rb.range_mut(lo * K, hi * K)) };
        let (x, r) = (x.as_chunks_mut::<K>().0, r.as_chunks_mut::<K>().0);
        let rows = x.iter_mut().zip(r).zip(&p[lo..hi]).zip(&ap[lo..hi]);
        // `move`: the coefficients become locals the stores cannot alias.
        split_sum(rows.map(move |(((xr, rr), pr), apr)| {
            for j in 0..K {
                // The `lane_axpy` form and masking, term for term.
                let (xj, rj) = (xr[j] + alpha[j] * pr[j], rr[j] + neg[j] * apr[j]);
                xr[j] = if active[j] { xj } else { xr[j] };
                rr[j] = if active[j] { rj } else { rr[j] };
            }
            rr.map(|v| v * v)
        }))
    })
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

    /// Row counts `8m ± 1` on both sides of [`PAR_THRESHOLD`].
    fn lengths() -> [usize; 4] {
        let m = PAR_THRESHOLD / ACCS + 3;
        [13 * ACCS - 1, 13 * ACCS + 1, m * ACCS - 1, m * ACCS + 1]
    }

    /// A seeded vector of `len` values in (−1, 1), no two alike.
    fn wavy(len: usize, seed: f64) -> Vec<Val> {
        (0..len).map(|i| (seed * (i as Val + 1.0)).sin()).collect()
    }

    #[test]
    fn split_dot_is_exact_on_small_integers() {
        for threads in 1..=3 {
            let ctx = ExecutionContext::new(threads);
            for rows in lengths() {
                // Four lanes: lane j of row i holds the flat element 4i + j.
                let a: Vec<Val> = (0..4 * rows).map(|i| (i % 7) as Val - 3.0).collect();
                let b: Vec<Val> = (0..4 * rows).map(|i| (i % 5) as Val - 2.0).collect();
                let exact = |j: usize| -> Val {
                    (0..rows)
                        .map(|i| (a[4 * i + j] * b[4 * i + j]) as i64)
                        .sum::<i64>() as Val
                };
                let lanes = lane_dot::<4>(Some(&ctx), &a, &b);
                assert_eq!(lanes, std::array::from_fn(exact), "p{threads} {rows}");
                let flat: i64 = a.iter().zip(&b).map(|(x, y)| (x * y) as i64).sum();
                assert_eq!(dot(&ctx, &a, &b), flat as Val, "p{threads} {}", 4 * rows);
            }
        }
    }

    /// `lane_step` against the two axpys and the dot it replaces, bit for
    /// bit, with lane 1 of `K` frozen when `K > 1`.
    fn step_matches_axpys_and_dot<const K: usize>(exec: Option<&ExecutionContext>, rows: usize) {
        let alpha: [Val; K] = std::array::from_fn(|j| 0.37 + 0.11 * j as Val);
        let active: [bool; K] = std::array::from_fn(|j| K == 1 || j != 1);
        let (p, ap) = (wavy(K * rows, 0.7), wavy(K * rows, 1.3));
        let (mut x, mut r) = (wavy(K * rows, 2.1), wavy(K * rows, 0.9));
        let (mut x_ref, mut r_ref) = (x.clone(), r.clone());
        let rs = lane_step(exec, alpha, active, &p, &ap, &mut x, &mut r);
        lane_axpy(exec, alpha, active, &p, &mut x_ref);
        lane_axpy(exec, alpha.map(|a| -a), active, &ap, &mut r_ref);
        let rs_ref = lane_dot::<K>(exec, &r_ref, &r_ref);
        let bits = |v: &[Val]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let what = format!("K = {K}, {rows} rows");
        assert_eq!(bits(&x), bits(&x_ref), "x, {what}");
        assert_eq!(bits(&r), bits(&r_ref), "r, {what}");
        assert_eq!(bits(&rs), bits(&rs_ref), "rᵀr, {what}");
        if K > 1 {
            let lane1 = |v: &[Val]| bits(&v.iter().skip(1).step_by(K).copied().collect::<Vec<_>>());
            assert_eq!(lane1(&x), lane1(&wavy(K * rows, 2.1)), "frozen x, {what}");
            assert_eq!(lane1(&r), lane1(&wavy(K * rows, 0.9)), "frozen r, {what}");
        }
    }

    #[test]
    fn fused_step_is_bit_equal_to_two_axpys_and_a_dot() {
        for threads in 1..=3 {
            let ctx = ExecutionContext::new(threads);
            for rows in lengths() {
                step_matches_axpys_and_dot::<1>(Some(&ctx), rows);
                step_matches_axpys_and_dot::<4>(Some(&ctx), rows);
            }
        }
        step_matches_axpys_and_dot::<4>(None, lengths()[3]);
    }
}
