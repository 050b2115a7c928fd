//! Canonical row-major view of COO triplets, and the mirror sweep over it.
//!
//! Everything that consumes a [`CooMatrix`] in row-major order — the
//! conversions to CSR and SSS, [`CooMatrix::canonicalize`], the symmetry
//! predicates and [`validate_coo`](crate::validate::validate_coo) — starts
//! from a [`RowMajor`]: row pointers plus column and value arrays that are
//! *borrowed* from the caller when the triplets are already sorted without
//! duplicates (what every generator, [`crate::perm`] and the MatrixMarket
//! reader produce), and built by one bucket pass otherwise. Indices are in
//! bounds by [`CooMatrix`]'s own invariant (`push` asserts, `from_triplets`
//! checks), so the passes index directly.
//!
//! The symmetry relation of each [`SymmetryKind`] is checked in one place,
//! [`RowMajor::check_mirrors`]: a linear sweep that pairs every strict-lower
//! entry with its mirror, and — only when that fails — a scan that names the
//! row-major-first offending entry.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::symmetry::SymmetryKind;
use crate::{Idx, Val};
use std::borrow::Cow;

/// Triplets sorted row-major with duplicates summed, in CSR layout.
pub(crate) struct RowMajor<'a> {
    /// Row `r` occupies `rowptr[r]..rowptr[r + 1]` of `cols` / `vals`.
    rowptr: Vec<usize>,
    cols: Cow<'a, [Idx]>,
    vals: Cow<'a, [Val]>,
}

impl<'a> RowMajor<'a> {
    /// One pass counts rows and checks order. Canonical input is borrowed;
    /// anything else goes through a stable counting sort by row and a
    /// stable column sort of the rows that need one, so duplicates of a
    /// coordinate are summed in insertion order — floating-point addition
    /// is not associative, and mirror images must round identically.
    pub(crate) fn of(coo: &'a CooMatrix) -> Self {
        let (rows, cols, vals) = (coo.row_indices(), coo.col_indices(), coo.values());
        let n = coo.nrows() as usize;
        let mut rowptr = vec![0usize; n + 1];
        let mut canonical = true;
        let mut prev = None; // sorts before every `Some`
        for (&r, &c) in rows.iter().zip(cols) {
            rowptr[r as usize + 1] += 1;
            canonical &= prev < Some((r, c));
            prev = Some((r, c));
        }
        for r in 0..n {
            rowptr[r + 1] += rowptr[r];
        }
        if canonical {
            return RowMajor {
                rowptr,
                cols: Cow::Borrowed(cols),
                vals: Cow::Borrowed(vals),
            };
        }

        let mut next = rowptr[..n].to_vec();
        let mut bcols = vec![0 as Idx; rows.len()];
        let mut bvals = vec![0.0; rows.len()];
        for ((&r, &c), &v) in rows.iter().zip(cols).zip(vals) {
            let slot = &mut next[r as usize];
            bcols[*slot] = c;
            bvals[*slot] = v;
            *slot += 1;
        }
        // Per row: sort by column where needed (the sort is stable, so a
        // row that only repeats columns in place needs none), then sum
        // duplicates while closing the gaps earlier rows left.
        let mut out = 0;
        let mut row: Vec<(Idx, Val)> = Vec::new();
        for r in 0..n {
            let (lo, hi) = (rowptr[r], rowptr[r + 1]);
            rowptr[r] = out;
            if !bcols[lo..hi].windows(2).all(|w| w[0] <= w[1]) {
                row.clear();
                row.extend(
                    bcols[lo..hi]
                        .iter()
                        .copied()
                        .zip(bvals[lo..hi].iter().copied()),
                );
                row.sort_by_key(|&(c, _)| c);
                for (k, &(c, v)) in row.iter().enumerate() {
                    bcols[lo + k] = c;
                    bvals[lo + k] = v;
                }
            }
            for k in lo..hi {
                if out > rowptr[r] && bcols[out - 1] == bcols[k] {
                    bvals[out - 1] += bvals[k];
                } else {
                    bcols[out] = bcols[k];
                    bvals[out] = bvals[k];
                    out += 1;
                }
            }
        }
        rowptr[n] = out;
        bcols.truncate(out);
        bvals.truncate(out);
        RowMajor {
            rowptr,
            cols: Cow::Owned(bcols),
            vals: Cow::Owned(bvals),
        }
    }

    /// Number of entries (duplicates summed).
    pub(crate) fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// `(rowptr, cols, vals)`, copying the arrays only if they are borrowed.
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<Idx>, Vec<Val>) {
        (self.rowptr, self.cols.into_owned(), self.vals.into_owned())
    }

    fn rows(&self) -> usize {
        self.rowptr.len() - 1
    }

    fn find(&self, row: usize, col: usize) -> Option<Val> {
        let lo = self.rowptr[row];
        let cols = &self.cols[lo..self.rowptr[row + 1]];
        cols.binary_search(&(col as Idx))
            .ok()
            .map(|k| self.vals[lo + k])
    }

    /// The non-zero count must fit the four-byte index type and every
    /// (summed) value be finite; names the row-major-first non-finite entry.
    pub(crate) fn check_finite(&self) -> Result<(), SparseError> {
        if self.nnz() as u64 > Idx::MAX as u64 {
            return Err(SparseError::IndexOverflow {
                what: "non-zero count",
                value: self.nnz() as u64,
                max: Idx::MAX as u64,
            });
        }
        match self.vals.iter().position(|v| !v.is_finite()) {
            None => Ok(()),
            Some(k) => Err(SparseError::NonFiniteValue {
                row: self.rowptr.partition_point(|&p| p <= k) as Idx - 1,
                col: self.cols[k],
                value: self.vals[k],
            }),
        }
    }

    /// Calls `visit(row, col, value, value)` for every entry on or below
    /// the diagonal, in row-major order; entries above it are ignored.
    pub(crate) fn for_each_lower(&self, mut visit: impl FnMut(usize, Idx, Val, Val)) {
        let (cols, vals) = (&self.cols[..], &self.vals[..]);
        for r in 0..self.rows() {
            for k in self.rowptr[r]..self.rowptr[r + 1] {
                if cols[k] as usize <= r {
                    visit(r, cols[k], vals[k], vals[k]);
                }
            }
        }
    }

    /// Checks `kind`'s relation between the two triangles of a square
    /// matrix within absolute tolerance `tol`, calling
    /// `visit(row, col, value, mirror_value)` for every entry on or below
    /// the diagonal in row-major order (on the diagonal the mirror is the
    /// entry itself). On failure the error names the row-major-first entry
    /// that has no mirror or breaks the relation; `visit` may then have seen
    /// any prefix of the entries.
    ///
    /// Every tolerance test is an `x <= tol` that must hold, so a NaN — in
    /// a value or in `tol` — is an offender, never a pass.
    pub(crate) fn check_mirrors(
        &self,
        kind: SymmetryKind,
        tol: Val,
        visit: impl FnMut(usize, Idx, Val, Val),
    ) -> Result<(), SparseError> {
        if self.mirror_sweep(kind, tol, visit) {
            Ok(())
        } else {
            Err(self.first_offender(kind, tol))
        }
    }

    /// [`RowMajor::check_mirrors`] without the error: one linear pass. Rows
    /// ascend, so the mirror of `(r, c)`, `c < r`, is always the next
    /// unconsumed upper entry of row `c`; the pattern is symmetric iff every
    /// lower entry finds its mirror there and no upper entry is left over.
    pub(crate) fn mirror_sweep(
        &self,
        kind: SymmetryKind,
        tol: Val,
        mut visit: impl FnMut(usize, Idx, Val, Val),
    ) -> bool {
        let (rowptr, cols, vals) = (&self.rowptr[..], &self.cols[..], &self.vals[..]);
        let n = self.rows();
        // upper[c]: the next unconsumed entry of row c right of the
        // diagonal. Written when the sweep leaves row c, read by rows > c.
        let mut upper = vec![0usize; n];
        for r in 0..n {
            let hi = rowptr[r + 1];
            let mut k = rowptr[r];
            while k < hi && (cols[k] as usize) < r {
                let c = cols[k] as usize;
                let m = upper[c];
                if m == rowptr[c + 1] || cols[m] as usize != r {
                    return false;
                }
                upper[c] = m + 1;
                if !mirror_holds(kind, vals[k], vals[m], tol) {
                    return false;
                }
                visit(r, cols[k], vals[k], vals[m]);
                k += 1;
            }
            if k < hi && cols[k] as usize == r {
                if !diagonal_holds(kind, vals[k], tol) {
                    return false;
                }
                visit(r, cols[k], vals[k], vals[k]);
                k += 1;
            }
            upper[r] = k;
        }
        (0..n).all(|r| upper[r] == rowptr[r + 1])
    }

    /// Error path of [`RowMajor::check_mirrors`]: binary-searches the mirror
    /// of every entry in row-major order.
    fn first_offender(&self, kind: SymmetryKind, tol: Val) -> SparseError {
        for r in 0..self.rows() {
            for k in self.rowptr[r]..self.rowptr[r + 1] {
                let (c, v) = (self.cols[k] as usize, self.vals[k]);
                if c == r {
                    if !diagonal_holds(kind, v, tol) {
                        return SparseError::SkewNonzeroDiagonal {
                            row: r as Idx,
                            value: v,
                        };
                    }
                } else if !self
                    .find(c, r)
                    .is_some_and(|w| mirror_holds(kind, v, w, tol))
                {
                    let (row, col) = (r as Idx, c as Idx);
                    return match kind {
                        SymmetryKind::Symmetric => SparseError::NotSymmetric { row, col },
                        SymmetryKind::Skew => SparseError::NotSkewSymmetric { row, col },
                        SymmetryKind::Structural => {
                            SparseError::NotStructurallySymmetric { row, col }
                        }
                    };
                }
            }
        }
        // The sweep fails only on a lower entry whose mirror is absent or
        // off, a skew diagonal, or an upper entry no lower one consumed —
        // each an offender by the very predicates used above.
        unreachable!("the mirror sweep failed but every entry has its mirror")
    }
}

/// Whether `w = a_ji` is what `kind` requires of `v = a_ij`.
fn mirror_holds(kind: SymmetryKind, v: Val, w: Val, tol: Val) -> bool {
    match kind {
        SymmetryKind::Symmetric => (v - w).abs() <= tol,
        SymmetryKind::Skew => (v + w).abs() <= tol,
        SymmetryKind::Structural => true,
    }
}

/// Whether `kind` admits the stored diagonal value `v`.
fn diagonal_holds(kind: SymmetryKind, v: Val, tol: Val) -> bool {
    !kind.requires_zero_diagonal() || v.abs() <= tol
}
