//! The borrowed row view detection and encoding run on.
//!
//! Both producers of CSX streams already hold their non-zeros as sorted
//! rows: an [`SssMatrix`] stores the strict lower triangle in CSR layout,
//! and the unsymmetric CSX takes the rows of a
//! [`CsrMatrix`](symspmv_sparse::CsrMatrix) — the one COO → rows
//! conversion. A [`RowView`] borrows the row pointers and column indices
//! of a run of consecutive rows, so the detector and the encoder never
//! copy, sort or search the matrix. A non-zero is named by its *entry
//! index*, its position in `cols`, which is also its position in the
//! owner's value array(s).

use symspmv_sparse::{Idx, SssMatrix};

/// Consecutive rows of a sparse matrix in CSR layout, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct RowView<'a> {
    /// First row of the view.
    pub(crate) first_row: Idx,
    /// Exclusive upper bound of the view's column indices.
    pub(crate) ncols: Idx,
    rowptr: &'a [Idx],
    /// The whole column array the entry indices refer to.
    pub(crate) cols: &'a [Idx],
}

impl<'a> RowView<'a> {
    /// Rows `first_row..first_row + rowptr.len() − 1`: row `first_row + i`
    /// holds entries `rowptr[i]..rowptr[i + 1]` of `cols`, whose columns
    /// ascend strictly within a row and stay below `ncols`.
    pub fn new(first_row: Idx, ncols: Idx, rowptr: &'a [Idx], cols: &'a [Idx]) -> Self {
        assert!(!rowptr.is_empty(), "a row view needs at least one pointer");
        assert!(rowptr[rowptr.len() - 1] as usize <= cols.len());
        debug_assert!(rowptr.windows(2).all(|w| w[0] <= w[1]));
        RowView {
            first_row,
            ncols,
            rowptr,
            cols,
        }
    }

    /// The strict lower triangle of an SSS matrix.
    pub fn of_sss(sss: &'a SssMatrix) -> Self {
        Self::new(0, sss.n(), sss.rowptr(), sss.colind())
    }

    /// The rows `rows` of the view only (entry indices are unchanged).
    pub fn slice(self, rows: std::ops::Range<Idx>) -> Self {
        let at = |r: Idx| (r - self.first_row) as usize;
        RowView {
            first_row: rows.start,
            rowptr: &self.rowptr[at(rows.start)..=at(rows.end)],
            ..self
        }
    }

    /// One past the last row of the view.
    pub fn end_row(&self) -> Idx {
        self.first_row + (self.rowptr.len() - 1) as Idx
    }

    /// Non-zeros in the view.
    pub fn nnz(&self) -> usize {
        (self.rowptr[self.rowptr.len() - 1] - self.rowptr[0]) as usize
    }

    /// The most entries any `rows` consecutive rows of the view hold.
    pub(crate) fn max_span(&self, rows: usize) -> usize {
        let span = |w: &[Idx]| (w[w.len() - 1] - w[0]) as usize;
        let windows = self.rowptr.windows((rows + 1).min(self.rowptr.len()));
        windows.map(span).max().unwrap_or(0)
    }

    /// Entry range of row `r`; empty for rows outside the view.
    #[inline]
    pub fn row(&self, r: Idx) -> std::ops::Range<usize> {
        if r < self.first_row || r >= self.end_row() {
            return 0..0;
        }
        let i = (r - self.first_row) as usize;
        self.rowptr[i] as usize..self.rowptr[i + 1] as usize
    }
}
