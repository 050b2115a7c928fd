//! Coordinate (triplet) format — the construction/interchange format.
//!
//! Every other format in the workspace is built from a [`CooMatrix`]. The
//! format stores `(row, col, value)` triplets in arbitrary order and supports
//! canonicalization (sort + duplicate summation), symmetry queries, and
//! triangular extraction, which the symmetric formats rely on.

use crate::error::SparseError;
use crate::rowmajor::Rows;
use crate::symmetry::SymmetryKind;
use crate::{Idx, Val};

/// A sparse matrix in coordinate (triplet) format.
///
/// ```
/// use symspmv_sparse::CooMatrix;
/// let mut a = CooMatrix::new(3, 3);
/// a.push(0, 0, 2.0);
/// a.push(2, 1, -1.0);
/// a.push(2, 1, -0.5); // duplicates are summed by canonicalize
/// a.canonicalize();
/// assert_eq!(a.nnz(), 2);
/// assert_eq!(a.find(2, 1), Some(-1.5));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    nrows: Idx,
    ncols: Idx,
    rows: Vec<Idx>,
    cols: Vec<Idx>,
    vals: Vec<Val>,
}

impl CooMatrix {
    /// Creates an empty matrix with the given dimensions.
    pub fn new(nrows: Idx, ncols: Idx) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty matrix with room reserved for `cap` entries.
    pub fn with_capacity(nrows: Idx, ncols: Idx, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Builds a matrix from parallel triplet slices.
    ///
    /// Returns an error if the slices disagree in length (first length wins
    /// as the reference) or if any index is out of bounds.
    pub fn from_triplets(
        nrows: Idx,
        ncols: Idx,
        rows: Vec<Idx>,
        cols: Vec<Idx>,
        vals: Vec<Val>,
    ) -> Result<Self, SparseError> {
        assert_eq!(
            rows.len(),
            cols.len(),
            "triplet slices must agree in length"
        );
        assert_eq!(
            rows.len(),
            vals.len(),
            "triplet slices must agree in length"
        );
        for (&r, &c) in rows.iter().zip(&cols) {
            if r >= nrows || c >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows,
                    ncols,
                });
            }
        }
        Ok(CooMatrix {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> Idx {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Idx {
        self.ncols
    }

    /// Number of stored entries (including any duplicates).
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Appends a triplet. Panics if out of bounds (construction-time bug).
    pub fn push(&mut self, row: Idx, col: Idx, val: Val) {
        assert!(
            row < self.nrows && col < self.ncols,
            "entry ({row}, {col}) out of bounds"
        );
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Row indices of the stored triplets.
    pub fn row_indices(&self) -> &[Idx] {
        &self.rows
    }

    /// Column indices of the stored triplets.
    pub fn col_indices(&self) -> &[Idx] {
        &self.cols
    }

    /// Values of the stored triplets.
    pub fn values(&self) -> &[Val] {
        &self.vals
    }

    /// Iterates over `(row, col, value)` triplets in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (Idx, Idx, Val)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Sorts triplets row-major and sums duplicates in place; a matrix that
    /// is canonical already is left untouched after one checking pass.
    ///
    /// Duplicates of one coordinate are summed in insertion order:
    /// floating-point addition is not associative, and mirror images of a
    /// symmetric matrix must round identically. Entries that sum to exactly
    /// zero are kept (structural non-zeros), so the structure of generated
    /// matrices is deterministic.
    pub fn canonicalize(&mut self) {
        if self.is_canonical() {
            return;
        }
        let (rowptr, cols, vals) = Rows::of(self).into_parts();
        self.rows.clear();
        for (r, w) in (0..self.nrows).zip(rowptr.windows(2)) {
            self.rows.extend(std::iter::repeat_n(r, w[1] - w[0]));
        }
        self.cols = cols;
        self.vals = vals;
    }

    /// Returns true if the triplets are sorted row-major with no duplicates.
    pub fn is_canonical(&self) -> bool {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(self.rows.iter().skip(1).zip(self.cols.iter().skip(1)))
            .all(|((&r0, &c0), (&r1, &c1))| (r0, c0) < (r1, c1))
    }

    /// Checks numeric symmetry: every entry `(r, c, v)` must have a matching
    /// `(c, r, v)` entry (within `tol` absolute tolerance).
    ///
    /// The matrix must be canonical; call [`CooMatrix::canonicalize`] first.
    pub fn is_symmetric(&self, tol: Val) -> bool {
        self.satisfies(SymmetryKind::Symmetric, tol)
    }

    /// Checks skew symmetry: every off-diagonal entry `(r, c, v)` must have
    /// a matching `(c, r, -v)` entry (within `tol` absolute tolerance), and
    /// every stored diagonal entry must be zero within `tol`.
    ///
    /// The matrix must be canonical; call [`CooMatrix::canonicalize`] first.
    pub fn is_skew_symmetric(&self, tol: Val) -> bool {
        self.satisfies(SymmetryKind::Skew, tol)
    }

    /// Checks structural (pattern) symmetry: every off-diagonal entry
    /// `(r, c)` must have a stored partner `(c, r)` — values are ignored.
    ///
    /// The matrix must be canonical; call [`CooMatrix::canonicalize`] first.
    pub fn is_structurally_symmetric(&self) -> bool {
        self.satisfies(SymmetryKind::Structural, 0.0)
    }

    /// Whether the (canonical) matrix is square and `kind`'s relation holds
    /// between its triangles: one linear mirror sweep.
    fn satisfies(&self, kind: SymmetryKind, tol: Val) -> bool {
        debug_assert!(self.is_canonical(), "symmetry checks need canonical form");
        self.nrows == self.ncols && Rows::of(self).mirror_sweep(kind, tol, |_, _, _, _| {})
    }

    /// Binary-searches a canonical matrix for entry `(row, col)`.
    pub fn find(&self, row: Idx, col: Idx) -> Option<Val> {
        // Find the row range by binary search, then the column inside it.
        let lo = self.rows.partition_point(|&r| r < row);
        let hi = self.rows.partition_point(|&r| r <= row);
        let cols = &self.cols[lo..hi];
        cols.binary_search(&col).ok().map(|k| self.vals[lo + k])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> CooMatrix {
        CooMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            rows: self.cols.clone(),
            cols: self.rows.clone(),
            vals: self.vals.clone(),
        }
    }

    /// Dense reference SpMV (`y = A x`), for testing only — O(nnz).
    pub fn spmv_reference(&self, x: &[Val], y: &mut [Val]) {
        assert_eq!(x.len(), self.ncols as usize);
        assert_eq!(y.len(), self.nrows as usize);
        y.fill(0.0);
        for (r, c, v) in self.iter() {
            y[r as usize] += v * x[c as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        // 3x3: [[2, 1, 0], [1, 3, 0], [0, 0, 4]]
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, 2.0);
        m.push(0, 1, 1.0);
        m.push(1, 0, 1.0);
        m.push(1, 1, 3.0);
        m.push(2, 2, 4.0);
        m.canonicalize();
        m
    }

    #[test]
    fn canonicalize_sorts_and_sums_duplicates() {
        let mut m = CooMatrix::new(2, 2);
        m.push(1, 1, 1.0);
        m.push(0, 0, 2.0);
        m.push(1, 1, 0.5);
        m.canonicalize();
        assert_eq!(m.nnz(), 2);
        assert!(m.is_canonical());
        assert_eq!(m.find(1, 1), Some(1.5));
        assert_eq!(m.find(0, 0), Some(2.0));
        assert_eq!(m.find(0, 1), None);
    }

    #[test]
    fn symmetry_detection() {
        let m = sample();
        assert!(m.is_symmetric(0.0));

        let mut asym = sample();
        asym.push(2, 0, 1.0);
        asym.canonicalize();
        assert!(!asym.is_symmetric(0.0));
    }

    #[test]
    fn skew_symmetry_detection() {
        // [[0, -1, 0], [1, 0, 2], [0, -2, 0]]
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 1, -1.0);
        m.push(1, 0, 1.0);
        m.push(1, 2, 2.0);
        m.push(2, 1, -2.0);
        m.canonicalize();
        assert!(m.is_skew_symmetric(0.0));
        assert!(!m.is_symmetric(0.0));

        // A nonzero diagonal breaks skew symmetry…
        let mut d = m.clone();
        d.push(0, 0, 3.0);
        d.canonicalize();
        assert!(!d.is_skew_symmetric(0.0));
        // …but an explicit zero diagonal entry is fine.
        let mut z = m.clone();
        z.push(0, 0, 0.0);
        z.canonicalize();
        assert!(z.is_skew_symmetric(0.0));

        // An unpaired entry breaks it.
        let mut u = m.clone();
        u.push(0, 2, 5.0);
        u.canonicalize();
        assert!(!u.is_skew_symmetric(0.0));

        // A same-sign mirror breaks it (that would be symmetric).
        let s = sample();
        assert!(!s.is_skew_symmetric(0.0));
    }

    #[test]
    fn structural_symmetry_detection() {
        // Pattern symmetric, values unrelated.
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, 4.0);
        m.push(0, 1, 7.0);
        m.push(1, 0, -2.5);
        m.push(1, 2, 1.0);
        m.push(2, 1, 9.0);
        m.canonicalize();
        assert!(m.is_structurally_symmetric());
        assert!(!m.is_symmetric(0.0));
        assert!(!m.is_skew_symmetric(0.0));

        // Numerically symmetric implies structurally symmetric.
        assert!(sample().is_structurally_symmetric());

        // Unpaired entry breaks the pattern.
        let mut u = m.clone();
        u.push(2, 0, 1.0);
        u.canonicalize();
        assert!(!u.is_structurally_symmetric());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let res = CooMatrix::from_triplets(2, 2, vec![2], vec![0], vec![1.0]);
        assert!(matches!(res, Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn reference_spmv() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        m.spmv_reference(&x, &mut y);
        assert_eq!(y, vec![4.0, 7.0, 12.0]);
    }

    #[test]
    fn transpose_swaps_indices() {
        let mut m = CooMatrix::new(2, 3);
        m.push(0, 2, 5.0);
        let t = m.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.row_indices(), &[2]);
        assert_eq!(t.col_indices(), &[0]);
    }

    #[test]
    fn empty_matrix_is_symmetric_and_canonical() {
        let mut m = CooMatrix::new(4, 4);
        m.canonicalize();
        assert!(m.is_canonical());
        assert!(m.is_symmetric(0.0));
    }
}
