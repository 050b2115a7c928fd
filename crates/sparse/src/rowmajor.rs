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
//! [`Rows::sweep_band`]: a linear sweep over a band of rows that pairs every
//! strict-lower entry with its mirror. One band over all rows is the serial
//! sweep; the SSS conversion runs several on a pool. Only when a sweep fails
//! does [`Rows::check_mirrors`] scan for the row-major-first offending entry.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::spmd::{Serial, Spmd};
use crate::symmetry::SymmetryKind;
use crate::{Idx, Val};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

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
        Self::pass::<false>(coo, &Serial(1), 1).0
    }

    /// Canonical input is borrowed after one fused pass that checks order
    /// (and with `COUNT` finiteness) and records where each row starts, run
    /// as `shares` shares on `runner`. Anything else goes through a stable
    /// counting sort by row and a stable column sort of the rows that need
    /// one, so duplicates of a coordinate are summed in insertion order —
    /// floating-point addition is not associative, and mirror images must
    /// round identically.
    fn pass<const COUNT: bool>(coo: &'a CooMatrix, runner: &dyn Spmd, shares: usize) -> Pass<'a> {
        Self::borrowed::<COUNT>(coo, runner, shares).unwrap_or_else(|| Self::bucketed::<COUNT>(coo))
    }

    /// The fused pass over canonical triplets; `None` if they are not. With
    /// more than one share, share `i` scans the triplets from the first row
    /// start at or after `i / shares` of them ([`scan_on`]); one share, or a
    /// share that did not complete, scans them all on the caller.
    fn borrowed<const COUNT: bool>(
        coo: &'a CooMatrix,
        runner: &dyn Spmd,
        shares: usize,
    ) -> Option<Pass<'a>> {
        let n = coo.nrows() as usize;
        let arrays = || (vec![0; n + 1], vec![0; if COUNT { n + 1 } else { 0 }]);
        let pooled = share_starts(coo.row_indices(), n, shares).and_then(|(starts, first_rows)| {
            let (mut rowptr, mut lower) = arrays();
            let scan =
                scan_on::<COUNT>(coo, runner, &starts, &first_rows, &mut rowptr, &mut lower)?;
            Some((rowptr, lower, scan))
        });
        // One share, or a round that lost one: the whole scan on the caller,
        // into fresh arrays (a share that ran may have written its rows).
        let (rowptr, lower, scan) = pooled.unwrap_or_else(|| {
            let (mut rowptr, mut lower) = arrays();
            let ends = &mut rowptr[1..];
            let scan = scan::<COUNT>(
                coo,
                0..coo.nnz(),
                0,
                ends,
                lower.get_mut(1..).unwrap_or_default(),
            );
            (rowptr, lower, scan)
        });
        if !scan.ordered {
            return None;
        }
        let rows = Rows {
            rowptr,
            cols: Cow::Borrowed(coo.col_indices()),
            vals: Cow::Borrowed(coo.values()),
        };
        Some((rows, lower, scan.finite))
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

    /// [`Rows::check_mirrors`] without the error: the one-band case of
    /// [`Rows::sweep_band`], one linear pass over every row.
    ///
    /// # Panics
    ///
    /// If the entry count exceeds [`Idx::MAX`] (the sweep's cursors are
    /// four-byte offsets), as [`Rows::assert_nnz`] does.
    pub(crate) fn mirror_sweep(
        &self,
        kind: SymmetryKind,
        tol: Val,
        visit: impl FnMut(usize, Idx, Val, Val),
    ) -> bool {
        self.assert_nnz();
        let n = self.nrows();
        self.sweep_band(kind, tol, 0..n, &mut vec![0; n], visit)
    }

    /// The mirror sweep over the rows `band = a..b`, calling `visit` for
    /// their entries on and below the diagonal in row-major order. Rows
    /// ascend, so the mirror of `(r, c)`, `c < r`, is always the next
    /// unconsumed upper entry of row `c`; the band holds iff every lower
    /// entry of its rows finds its mirror there and no upper entry with a
    /// column in the band is left over. The pattern is symmetric iff every
    /// band of a split of `0..n` holds, so bands can run on separate
    /// threads, each with its own `cursors` (one per row `< b`; their
    /// contents on entry do not matter). The entry count must fit
    /// [`Idx`]: cursors are four-byte offsets.
    pub(crate) fn sweep_band(
        &self,
        kind: SymmetryKind,
        tol: Val,
        band: Range<usize>,
        cursors: &mut [u32],
        mut visit: impl FnMut(usize, Idx, Val, Val),
    ) -> bool {
        let (rowptr, cols, vals) = (&self.rowptr[..], &self.cols[..], &self.vals[..]);
        let (a, b) = (band.start, band.end);
        // cursors[c]: the next unconsumed entry of row c right of the
        // diagonal. A row above the band has had every upper entry left of
        // column `a` consumed by the rows before the band (or the band
        // that swept them fails), so its cursor starts at its first column
        // `>= a`.
        for (c, cursor) in cursors[..a].iter_mut().enumerate() {
            let (lo, hi) = (rowptr[c], rowptr[c + 1]);
            let first = if lo == hi || (cols[hi - 1] as usize) < a {
                hi
            } else {
                lo + cols[lo..hi].partition_point(|&x| (x as usize) < a)
            };
            *cursor = first as u32;
        }
        // Rows of the band seed their own cursors when the sweep leaves
        // them, and only later rows read them.
        for r in a..b {
            let hi = rowptr[r + 1];
            let mut k = rowptr[r];
            while k < hi && (cols[k] as usize) < r {
                let c = cols[k] as usize;
                let m = cursors[c] as usize;
                if m == rowptr[c + 1] || cols[m] as usize != r {
                    return false;
                }
                cursors[c] = (m + 1) as u32;
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
            cursors[r] = k as u32;
        }
        // Entries are consumed in column order, so an entry with a column
        // in the band is left over iff its row's cursor stops short of `b`.
        (0..b).all(|c| {
            let m = cursors[c] as usize;
            m == rowptr[c + 1] || cols[m] as usize >= b
        })
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
        Self::of_on(coo, &Serial(1), 1)
    }

    /// [`RowMajor::of`] with the pass over canonical triplets run as
    /// `shares` shares on `runner`.
    pub(crate) fn of_on(coo: &'a CooMatrix, runner: &dyn Spmd, shares: usize) -> Self {
        let (rows, lower, finite) = Rows::pass::<true>(coo, runner, shares);
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

/// What a share of the fused pass over canonical triplets found.
struct Scan {
    ordered: bool,
    /// Whether every value is finite (`false` without `COUNT`).
    finite: bool,
    /// The share's entries left of the diagonal.
    below: usize,
}

/// Where each of `shares` shares of the fused pass starts: at the first row
/// start at or after `i / shares` of the triplets (`nnz` closes the list),
/// and the first row whose end it owns (`0` for the first share; `n` closes
/// the list). `None` for one share, and when those rows do not ascend (the
/// triplets are not row-major).
fn share_starts(rows: &[Idx], n: usize, shares: usize) -> Option<(Vec<usize>, Vec<usize>)> {
    let nnz = rows.len();
    let mut starts: Vec<usize> = (0..shares)
        .map(|i| {
            let mut k = i * nnz / shares;
            while 0 < k && k < nnz && rows[k] == rows[k - 1] {
                k += 1;
            }
            k
        })
        .collect();
    starts.push(nnz);
    let mut first_rows: Vec<usize> = starts
        .iter()
        .map(|&k| rows.get(k).map_or(n, |&r| r as usize))
        .collect();
    first_rows[0] = 0;
    (shares > 1 && first_rows.is_sorted()).then_some((starts, first_rows))
}

/// One share of the fused pass: the triplets `ks` of `coo`, whose rows must
/// lie in `rows_from..rows_from + ends.len()`. Each entry *stores* where
/// its row ends, so far, among all entries (`ends[r - rows_from]`) and,
/// with `COUNT`, among the share's entries left of the diagonal
/// (`lower[r - rows_from]`): no read-modify-write chain from entry to entry
/// and no branch per row. A row without entries then ends where the row
/// before it ends.
fn scan<const COUNT: bool>(
    coo: &CooMatrix,
    ks: Range<usize>,
    rows_from: usize,
    ends: &mut [usize],
    lower: &mut [usize],
) -> Scan {
    let (rows, cols, vals) = (coo.row_indices(), coo.col_indices(), coo.values());
    let (mut below, mut ordered, mut finite) = (0, true, COUNT);
    // `(r, c)` packed into one key, plus one so that 0 sorts first.
    let key = |r: Idx, c: Idx| (u64::from(r) << 32 | u64::from(c)) + 1;
    let mut prev = ks.start.checked_sub(1).map_or(0, |k| key(rows[k], cols[k]));
    let triplets = rows[ks.clone()]
        .iter()
        .zip(&cols[ks.clone()])
        .zip(&vals[ks.clone()]);
    for (k, ((&r, &c), &v)) in (ks.start..).zip(triplets) {
        let key = key(r, c);
        ordered &= key > prev;
        prev = key;
        let Some(end) = ends.get_mut((r as usize).wrapping_sub(rows_from)) else {
            ordered = false;
            break;
        };
        *end = k + 1;
        if COUNT {
            below += usize::from(c < r);
            lower[r as usize - rows_from] = below;
            finite &= v.is_finite();
        }
    }
    let mut end = ks.start;
    for e in ends {
        end = end.max(*e);
        *e = end;
    }
    let mut count = 0;
    for l in lower {
        count = count.max(*l);
        *l = count;
    }
    Scan {
        ordered,
        finite,
        below,
    }
}

/// One share of [`scan_on`]: its triplets, and the row ends it owns.
struct ScanShare<'s> {
    ks: Range<usize>,
    rows_from: usize,
    ends: &'s mut [usize],
    lower: &'s mut [usize],
    scan: Option<Scan>,
}

/// [`scan`] as one share per range of `starts` on `runner`, share `i`
/// owning the row ends from `first_rows[i]` to `first_rows[i + 1]` of
/// `rowptr` and `lower` (each with its leading zero). The shares' strict-
/// lower counts are then offset by those of the shares before them. `None`
/// if a share did not complete.
fn scan_on<const COUNT: bool>(
    coo: &CooMatrix,
    runner: &dyn Spmd,
    starts: &[usize],
    first_rows: &[usize],
    rowptr: &mut [usize],
    lower: &mut [usize],
) -> Option<Scan> {
    let mut ends = &mut rowptr[1..];
    let mut lows = lower.get_mut(1..).unwrap_or_default();
    let slots: Vec<Mutex<ScanShare<'_>>> = starts
        .windows(2)
        .zip(first_rows.windows(2))
        .map(|(ks, rs)| {
            let len = rs[1] - rs[0];
            let (e, rest) = std::mem::take(&mut ends).split_at_mut(len);
            ends = rest;
            let (l, rest) = std::mem::take(&mut lows).split_at_mut(if COUNT { len } else { 0 });
            lows = rest;
            Mutex::new(ScanShare {
                ks: ks[0]..ks[1],
                rows_from: rs[0],
                ends: e,
                lower: l,
                scan: None,
            })
        })
        .collect();
    let ran = runner.run_shares(&|i| {
        if let Some(slot) = slots.get(i) {
            // Only this share ever locks its slot, so it is not poisoned.
            let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
            let share = &mut *guard;
            let found = scan::<COUNT>(
                coo,
                share.ks.clone(),
                share.rows_from,
                share.ends,
                share.lower,
            );
            share.scan = Some(found);
        }
    });
    if !ran {
        return None;
    }
    let mut total = Scan {
        ordered: true,
        finite: COUNT,
        below: 0,
    };
    for slot in slots {
        let share = slot.into_inner().ok()?;
        let found = share.scan?;
        share.lower.iter_mut().for_each(|l| *l += total.below);
        total.ordered &= found.ordered;
        total.finite &= found.finite;
        total.below += found.below;
    }
    Some(total)
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
