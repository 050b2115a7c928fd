//! Compressed Sparse Row — the paper's baseline format (§II-A).
//!
//! CSR stores `values` and `colind` for every non-zero plus a `rowptr` array
//! of row starts. Its size model is Eq. 1 of the paper:
//! `S_CSR = 12·NNZ + 4·(N+1)` bytes.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::rowmajor::RowMajor;
use crate::{Idx, Val};

/// A sparse matrix in Compressed Sparse Row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: Idx,
    ncols: Idx,
    rowptr: Vec<Idx>,
    colind: Vec<Idx>,
    values: Vec<Val>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a COO matrix: triplets in any order,
    /// duplicates summed (as [`CooMatrix::canonicalize`] would).
    pub fn from_coo(coo: &CooMatrix) -> Self {
        Self::from_row_major(coo, RowMajor::of(coo))
    }

    /// Validated constructor: checks the (canonicalized) input for
    /// non-finite values and index overflow before building.
    ///
    /// Prefer this over [`CsrMatrix::from_coo`] for matrices arriving from
    /// outside the process (files, network, user code): a malformed input
    /// yields a structured [`SparseError`] instead of a downstream panic.
    pub fn try_from_coo(coo: &CooMatrix) -> Result<Self, SparseError> {
        let entries = RowMajor::of(coo);
        entries.check_finite()?;
        Ok(Self::from_row_major(coo, entries))
    }

    fn from_row_major(coo: &CooMatrix, entries: RowMajor<'_>) -> Self {
        let (rowptr, colind, values) = entries.into_parts();
        CsrMatrix {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
            rowptr: rowptr.into_iter().map(|p| p as Idx).collect(),
            colind,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> Idx {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Idx {
        self.ncols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn rowptr(&self) -> &[Idx] {
        &self.rowptr
    }

    /// Column index array.
    pub fn colind(&self) -> &[Idx] {
        &self.colind
    }

    /// Non-zero values array.
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// The column indices and values of row `r`.
    pub fn row(&self, r: Idx) -> (&[Idx], &[Val]) {
        let lo = self.rowptr[r as usize] as usize;
        let hi = self.rowptr[r as usize + 1] as usize;
        (&self.colind[lo..hi], &self.values[lo..hi])
    }

    /// Looks up entry `(r, c)` by binary search within the row.
    pub fn get(&self, r: Idx, c: Idx) -> Option<Val> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|k| vals[k])
    }

    /// Size of the representation in bytes — Eq. 1 of the paper:
    /// `12·NNZ + 4·(N+1)`.
    pub fn size_bytes(&self) -> usize {
        12 * self.nnz() + 4 * (self.nrows as usize + 1)
    }

    /// Serial SpMV: `y = A·x`.
    pub fn spmv(&self, x: &[Val], y: &mut [Val]) {
        assert_eq!(x.len(), self.ncols as usize);
        assert_eq!(y.len(), self.nrows as usize);
        self.spmv_rows(0, self.nrows, x, y);
    }

    /// SpMV restricted to rows `[start, end)` — the building block the
    /// multithreaded CSR kernel partitions over.
    #[inline]
    pub fn spmv_rows(&self, start: Idx, end: Idx, x: &[Val], y: &mut [Val]) {
        for r in start..end {
            let lo = self.rowptr[r as usize] as usize;
            let hi = self.rowptr[r as usize + 1] as usize;
            let mut acc = 0.0;
            for j in lo..hi {
                acc += self.values[j] * x[self.colind[j] as usize];
            }
            y[r as usize] = acc;
        }
    }

    /// Converts back to COO (canonical by construction).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r, c, v);
            }
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_coo() -> CooMatrix {
        // [[1, 0, 2], [0, 0, 3], [4, 5, 6]]
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, 1.0);
        m.push(0, 2, 2.0);
        m.push(1, 2, 3.0);
        m.push(2, 0, 4.0);
        m.push(2, 1, 5.0);
        m.push(2, 2, 6.0);
        m
    }

    #[test]
    fn conversion_preserves_structure() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.nnz(), 6);
        assert_eq!(csr.rowptr(), &[0, 2, 3, 6]);
        assert_eq!(csr.colind(), &[0, 2, 2, 0, 1, 2]);
        assert_eq!(csr.get(2, 1), Some(5.0));
        assert_eq!(csr.get(1, 0), None);
    }

    #[test]
    fn round_trip_through_coo() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        let back = csr.to_coo();
        let csr2 = CsrMatrix::from_coo(&back);
        assert_eq!(csr, csr2);
    }

    #[test]
    fn spmv_matches_reference() {
        let coo = sample_coo();
        let csr = CsrMatrix::from_coo(&coo);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        let mut y_ref = vec![0.0; 3];
        csr.spmv(&x, &mut y);
        coo.spmv_reference(&x, &mut y_ref);
        assert_eq!(y, y_ref);
    }

    #[test]
    fn spmv_rows_partial_only_writes_range() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        let x = vec![1.0; 3];
        let mut y = vec![-1.0; 3];
        csr.spmv_rows(1, 2, &x, &mut y);
        assert_eq!(y[0], -1.0);
        assert_eq!(y[1], 3.0);
        assert_eq!(y[2], -1.0);
    }

    #[test]
    fn size_model_eq1() {
        let csr = CsrMatrix::from_coo(&sample_coo());
        // 12 * 6 + 4 * 4 = 88
        assert_eq!(csr.size_bytes(), 88);
    }

    #[test]
    fn empty_rows_handled() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(3, 3, 1.0);
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.rowptr(), &[0, 0, 0, 0, 1]);
        let x = vec![2.0; 4];
        let mut y = vec![9.0; 4];
        csr.spmv(&x, &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0, 2.0]);
    }
}
