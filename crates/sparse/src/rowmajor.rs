//! Canonical row-major view of COO triplets, and the mirror sweep over it.
//!
//! Everything that consumes a [`CooMatrix`] in row-major order — the
//! conversions to CSR and SSS (and the checks of their `try_from_coo`
//! forms, the only COO validation there is), [`CooMatrix::canonicalize`],
//! the symmetry predicates and the adjacency graph of
//! [`crate::reorder::graph`] — starts from [`Rows`]: row pointers plus
//! column and value arrays that are *borrowed* from the caller when the
//! triplets are already sorted without duplicates (what every generator,
//! [`crate::perm`] and the MatrixMarket reader produce), and built by one
//! bucket pass otherwise. Indices are in bounds by [`CooMatrix`]'s own
//! invariant (`push` asserts, `from_triplets` checks), so the passes index
//! directly. The consumers that also need the strict-lower row ends or the
//! finiteness of every value (the SSS conversion, the validated CSR one)
//! take a [`RowMajor`]: the same pass, counting those as it goes.
//!
//! The symmetry relation of each [`SymmetryKind`] is checked in one place,
//! [`Rows::check_mirrors`]: a linear sweep that pairs every strict-lower
//! entry with its mirror, and — only when that fails — a scan that names the
//! row-major-first offending entry.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::symmetry::SymmetryKind;
use crate::{Idx, Val};
use std::borrow::Cow;

/// Triplets sorted row-major with duplicates summed, in CSR layout.
pub(crate) struct Rows<'a> {
    /// Row `r` occupies `rowptr[r]..rowptr[r + 1]` of `cols` / `vals`.
    rowptr: Vec<usize>,
    cols: Cow<'a, [Idx]>,
    vals: Cow<'a, [Val]>,
}

/// [`Rows`] with what pass 1 counted on the way.
pub(crate) struct RowMajor<'a> {
    rows: Rows<'a>,
    /// Entries left of the diagonal in the rows before `r`: the row
    /// pointers of the strict lower triangle.
    lower: Vec<usize>,
    /// Whether every (summed) value is finite.
    finite: bool,
}

/// Pass 1's result: the rows, and with `COUNT` the strict-lower row ends
/// and whether every value is finite (without, empty and `false`, and
/// dropped by [`Rows::of`]).
type Pass<'a> = (Rows<'a>, Vec<usize>, bool);

impl<'a> Rows<'a> {
    /// The rows of `coo`, without counting anything else.
    pub(crate) fn of(coo: &'a CooMatrix) -> Self {
        Self::pass::<false>(coo).0
    }

    /// Canonical input is borrowed after one fused pass that checks order
    /// (and with `COUNT` finiteness) and records where each row starts.
    /// Anything else goes through a stable counting sort by row and a stable
    /// column sort of the rows that need one, so duplicates of a coordinate
    /// are summed in insertion order — floating-point addition is not
    /// associative, and mirror images must round identically.
    fn pass<const COUNT: bool>(coo: &'a CooMatrix) -> Pass<'a> {
        Self::borrowed::<COUNT>(coo).unwrap_or_else(|| Self::bucketed::<COUNT>(coo))
    }

    /// The fused pass over canonical triplets; `None` if they are not. Each
    /// entry *stores* where its row ends, so far, among all entries and (with
    /// `COUNT`) among those left of the diagonal: no read-modify-write chain
    /// from entry to entry and no branch per row.
    fn borrowed<const COUNT: bool>(coo: &'a CooMatrix) -> Option<Pass<'a>> {
        let (rows, cols, vals) = (coo.row_indices(), coo.col_indices(), coo.values());
        let n = coo.nrows() as usize;
        let mut rowptr = vec![0; n + 1];
        let mut lower = vec![0; if COUNT { n + 1 } else { 0 }];
        let (mut below, mut ordered, mut finite) = (0, true, COUNT);
        // `(r, c)` packed into one key, plus one so that 0 sorts first.
        let mut prev = 0u64;
        for (k, ((&r, &c), &v)) in rows.iter().zip(cols).zip(vals).enumerate() {
            let key = (u64::from(r) << 32 | u64::from(c)) + 1;
            ordered &= key > prev;
            prev = key;
            rowptr[r as usize + 1] = k + 1;
            if COUNT {
                below += usize::from(c < r);
                lower[r as usize + 1] = below;
                finite &= v.is_finite();
            }
        }
        if !ordered {
            return None;
        }
        // A row without entries ends where the row before it ends.
        for r in 0..n {
            rowptr[r + 1] = rowptr[r + 1].max(rowptr[r]);
            if COUNT {
                lower[r + 1] = lower[r + 1].max(lower[r]);
            }
        }
        let rows = Rows {
            rowptr,
            cols: Cow::Borrowed(cols),
            vals: Cow::Borrowed(vals),
        };
        Some((rows, lower, finite))
    }

    fn bucketed<const COUNT: bool>(coo: &CooMatrix) -> Pass<'a> {
        let (rows, cols, vals) = (coo.row_indices(), coo.col_indices(), coo.values());
        let n = coo.nrows() as usize;
        let mut rowptr = vec![0usize; n + 1];
        for &r in rows {
            rowptr[r as usize + 1] += 1;
        }
        for r in 0..n {
            rowptr[r + 1] += rowptr[r];
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
        let mut lower = vec![0; if COUNT { n + 1 } else { 0 }];
        if COUNT {
            for r in 0..n {
                let row = &bcols[rowptr[r]..rowptr[r + 1]];
                lower[r + 1] = lower[r] + row.iter().filter(|&&c| (c as usize) < r).count();
            }
        }
        let finite = COUNT && bvals.iter().all(|v| v.is_finite());
        let rows = Rows {
            rowptr,
            cols: Cow::Owned(bcols),
            vals: Cow::Owned(bvals),
        };
        (rows, lower, finite)
    }

    /// Number of entries (duplicates summed).
    pub(crate) fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// `(rowptr, cols, vals)`, copying the arrays only if they are borrowed.
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<Idx>, Vec<Val>) {
        (self.rowptr, self.cols.into_owned(), self.vals.into_owned())
    }

    fn nrows(&self) -> usize {
        self.rowptr.len() - 1
    }

    /// The columns of row `r`, strictly ascending.
    pub(crate) fn row_cols(&self, r: usize) -> &[Idx] {
        &self.cols[self.rowptr[r]..self.rowptr[r + 1]]
    }

    fn find(&self, row: usize, col: usize) -> Option<Val> {
        let lo = self.rowptr[row];
        let cols = &self.cols[lo..self.rowptr[row + 1]];
        cols.binary_search(&(col as Idx))
            .ok()
            .map(|k| self.vals[lo + k])
    }

    /// The non-zero count must fit the four-byte index type: every row
    /// pointer of a conversion is an [`Idx`].
    fn check_nnz(&self) -> Result<(), SparseError> {
        if self.nnz() as u64 > Idx::MAX as u64 {
            return Err(SparseError::IndexOverflow {
                what: "non-zero count",
                value: self.nnz() as u64,
                max: Idx::MAX as u64,
            });
        }
        Ok(())
    }

    /// [`Rows::check_nnz`] for the trusted conversions: they panic with
    /// the error the validated ones return, rather than wrap a row pointer.
    pub(crate) fn assert_nnz(&self) {
        if let Err(e) = self.check_nnz() {
            panic!("{e}");
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

    /// [`Rows::check_mirrors`] without the error: one linear pass. Rows
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
        let n = self.nrows();
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

    /// Error path of [`Rows::check_mirrors`]: binary-searches the mirror
    /// of every entry in row-major order.
    fn first_offender(&self, kind: SymmetryKind, tol: Val) -> SparseError {
        for r in 0..self.nrows() {
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

impl<'a> RowMajor<'a> {
    /// The rows of `coo`, their strict-lower row ends and whether every
    /// value is finite, all from one pass.
    pub(crate) fn of(coo: &'a CooMatrix) -> Self {
        let (rows, lower, finite) = Rows::pass::<true>(coo);
        RowMajor {
            rows,
            lower,
            finite,
        }
    }

    pub(crate) fn rows(&self) -> &Rows<'a> {
        &self.rows
    }

    pub(crate) fn into_rows(self) -> Rows<'a> {
        self.rows
    }

    /// Row pointers of the entries strictly left of the diagonal.
    pub(crate) fn lower_rowptr(&self) -> &[usize] {
        &self.lower
    }

    /// The non-zero count must fit the four-byte index type and every
    /// (summed) value be finite; names the row-major-first non-finite entry.
    pub(crate) fn check_finite(&self) -> Result<(), SparseError> {
        let rows = &self.rows;
        rows.check_nnz()?;
        // The scan that names the offender runs only when there is one.
        let offender = (!self.finite).then(|| rows.vals.iter().position(|v| !v.is_finite()));
        match offender.flatten() {
            None => Ok(()),
            Some(k) => Err(SparseError::NonFiniteValue {
                row: rows.rowptr.partition_point(|&p| p <= k) as Idx - 1,
                col: rows.cols[k],
                value: rows.vals[k],
            }),
        }
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
