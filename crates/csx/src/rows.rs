//! The borrowed row view detection and encoding run on.
//!
//! Both producers of CSX streams already hold their non-zeros as sorted
//! rows: an [`SssMatrix`] stores the strict lower triangle in CSR layout, a
//! canonical [`CooMatrix`] is row-major by definition. A [`RowView`] borrows
//! the row pointers and column indices of a run of consecutive rows — an
//! SSS partition directly, a canonical COO after one counting pass — so the
//! detector and the encoder never copy, sort or search the matrix. A
//! non-zero is named by its *entry index*, its position in `cols`, which is
//! also its position in the owner's value array(s).

use symspmv_sparse::{CooMatrix, Idx, SssMatrix};

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

    /// A canonical COO matrix whose row pointers [`coo_rowptr`] computed.
    pub fn of_coo(coo: &'a CooMatrix, rowptr: &'a [Idx]) -> Self {
        Self::new(0, coo.ncols(), rowptr, coo.col_indices())
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

    /// Entry index of the view's first non-zero.
    pub fn base(&self) -> usize {
        self.rowptr[0] as usize
    }

    /// Non-zeros in the view.
    pub fn nnz(&self) -> usize {
        (self.rowptr[self.rowptr.len() - 1] - self.rowptr[0]) as usize
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

/// Row pointers of a canonical COO matrix: one counting pass.
pub fn coo_rowptr(coo: &CooMatrix) -> Vec<Idx> {
    debug_assert!(coo.is_canonical(), "row views expect canonical COO");
    assert!(
        Idx::try_from(coo.nnz()).is_ok(),
        "nnz exceeds the index type"
    );
    let mut rowptr = vec![0 as Idx; coo.nrows() as usize + 1];
    for &r in coo.row_indices() {
        rowptr[r as usize + 1] += 1;
    }
    for i in 0..coo.nrows() as usize {
        rowptr[i + 1] += rowptr[i];
    }
    rowptr
}
