//! The stream kernel as it was written before its unit kernels went
//! unchecked, every access bounds-checked — kept as the oracle the
//! unchecked [`crate::matrix::sym_stream`] (and so
//! [`crate::matrix::spmv_stream`]) must match bit for bit, `y` and local
//! region alike, with the mirror and without it.
//!
//! Compiled for this crate's tests and, under the `checked-oracle`
//! feature, for the tests of crates that decode their own chunks with
//! `sym_stream` (CSX-Sym's).

use crate::encode::{delta_of, CtlStream};
use symspmv_sparse::block::{add_lanes, axpy_lanes};
use symspmv_sparse::symmetry::SymmetryOps;
use symspmv_sparse::Val;

/// [`crate::matrix::sym_stream`]'s contract and result, checked: `stream`
/// multiplied into `my_y` (the rows from `split`), with the mirror `O`'s
/// transposed writes below `split` going to `local`.
pub fn checked_sym_stream<O: SymmetryOps, const K: usize>(
    stream: &CtlStream,
    paired: &[Val],
    x: &[[Val; K]],
    my_y: &mut [[Val; K]],
    split: usize,
    local: &mut [[Val; K]],
) {
    let mut sides = CheckedSides {
        x,
        my_y,
        split,
        local,
    };
    let mut cursor = stream.cursor();
    let (mut values, mut paired) = (stream.values(), paired);
    let mut take = |len: usize| {
        let (v, u);
        (v, values) = values.split_at(len);
        (u, paired) = paired.split_at(len);
        (v, u)
    };
    // SAFETY(cert: ctl-bound): the delta and block arms below take
    // every body.
    while let Some(unit) = unsafe { cursor.next_unit() } {
        let (row, col) = (unit.row, unit.col);
        macro_rules! delta {
            ($w:literal) => {{
                let (v, u) = take(unit.size);
                // SAFETY(cert: ctl-bound): the id names this width.
                sides.delta::<O, $w>(unsafe { cursor.body(unit.size) }, v, u, row, col)
            }};
        }
        macro_rules! block {
            ($r:literal, $c:literal) => {{
                let (v, u) = take(unit.size * $r * $c);
                // SAFETY(cert: ctl-bound): the id names a block unit.
                let gaps = unsafe { cursor.body(unit.size) };
                sides.block::<O, $r, $c>(gaps, v, u, row, col)
            }};
        }
        macro_rules! tri {
            ($r:literal) => {{
                block!($r, $r);
                let (v, u) = take($r * ($r - 1) / 2);
                sides.triangle::<O>($r, v, u, row)
            }};
        }
        crate::dispatch_unit!(unit.id, delta, block, tri);
    }
    assert!(values.is_empty() && paired.is_empty());
}

struct CheckedSides<'a, const K: usize> {
    x: &'a [[Val; K]],
    my_y: &'a mut [[Val; K]],
    split: usize,
    local: &'a mut [[Val; K]],
}

impl<const K: usize> CheckedSides<'_, K> {
    /// `x[row]` is read only with the mirror: a CSX row may lie past
    /// the last column.
    fn delta<O: SymmetryOps, const W: usize>(
        &mut self,
        body: &[[u8; W]],
        v: &[Val],
        u: &[Val],
        row: usize,
        col: usize,
    ) {
        let (x, split) = (self.x, self.split);
        let mut acc = [0.0; K];
        let (my_y, local) = (&mut *self.my_y, &mut *self.local);
        let mut direct = |c: usize, v: Val, u: Val, acc: &mut [Val; K]| {
            axpy_lanes(acc, v, &x[c]);
            if O::MIRRORS {
                axpy_lanes(&mut my_y[c - split], O::transposed(v, u), &x[row]);
            }
        };
        let mut c = col;
        let mut rest = body.iter().zip(&v[1..]).zip(&u[1..]);
        if !O::MIRRORS || c >= split {
            direct(c, v[0], u[0], &mut acc);
        } else {
            let mut below = |c: usize, v: Val, u: Val, acc: &mut [Val; K]| {
                axpy_lanes(acc, v, &x[c]);
                axpy_lanes(&mut local[c], O::transposed(v, u), &x[row]);
            };
            below(c, v[0], u[0], &mut acc);
            for ((d, &v), &u) in rest.by_ref() {
                c += delta_of(d);
                if c >= split {
                    direct(c, v, u, &mut acc);
                    break;
                }
                below(c, v, u, &mut acc);
            }
        }
        for ((d, &v), &u) in rest {
            c += delta_of(d);
            direct(c, v, u, &mut acc);
        }
        add_lanes(&mut my_y[row - split], &acc);
    }

    /// A triangle as the delta units it replaced: row `row + i`'s `i`
    /// entries, at columns `row …` (deltas of 1), one unit per row.
    fn triangle<O: SymmetryOps>(&mut self, side: usize, v: &[Val], u: &[Val], row: usize) {
        let (mut v, mut u) = (v, u);
        for i in 1..side {
            let (vi, ui);
            ((vi, v), (ui, u)) = (v.split_at(i), u.split_at(i));
            self.delta::<O, 1>(&vec![[1]; i - 1], vi, ui, row + i, row);
        }
        assert!(v.is_empty() && u.is_empty());
    }

    /// One block at a time, as the one-block units before grouping
    /// were multiplied: each block's row sums go to `y`, and with the
    /// mirror its transposed sums to the side of its own anchor, before
    /// the next.
    fn block<O: SymmetryOps, const R: usize, const C: usize>(
        &mut self,
        gaps: &[[u8; 2]],
        v: &[Val],
        u: &[Val],
        row: usize,
        col: usize,
    ) {
        let blocks = v.len() / (R * C);
        assert!(v.len() == blocks * R * C && gaps.len() + 1 == blocks);
        let (x, split) = (self.x, self.split);
        let mut c = col;
        for k in 0..blocks {
            if k > 0 {
                c += delta_of(&gaps[k - 1]);
            }
            let at = k * R * C..(k + 1) * R * C;
            let (Some(v), Some(u), Some(xc), Some(yr)) = (
                v[at.clone()].as_chunks::<C>().0.first_chunk::<R>(),
                u[at].as_chunks::<C>().0.first_chunk::<R>(),
                x[c..].first_chunk::<C>(),
                self.my_y[row - split..].first_chunk_mut::<R>(),
            ) else {
                unreachable!("block unit reaches outside the matrix");
            };
            let mut t = [[0.0; K]; C];
            for (i, ((yr, v), u)) in yr.iter_mut().zip(v).zip(u).enumerate() {
                for j in 0..K {
                    let mut acc = v[0] * xc[0][j];
                    for (&v, xc) in v[1..].iter().zip(&xc[1..]) {
                        acc += v * xc[j];
                    }
                    yr[j] += acc;
                    if !O::MIRRORS {
                        continue;
                    }
                    for ((t, &v), &u) in t.iter_mut().zip(v).zip(u) {
                        if i == 0 {
                            t[j] = O::transposed(v, u) * x[row + i][j];
                        } else {
                            t[j] += O::transposed(v, u) * x[row + i][j];
                        }
                    }
                }
            }
            if O::MIRRORS {
                let side = if c < split {
                    &mut self.local[c..c + C]
                } else {
                    &mut self.my_y[c - split..c - split + C]
                };
                for (dst, t) in side.iter_mut().zip(&t) {
                    add_lanes(dst, t);
                }
            }
        }
    }
}
