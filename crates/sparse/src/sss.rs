//! Symmetric Sparse Skyline — the symmetric baseline format (§II-B).
//!
//! SSS stores the main diagonal densely in `dvalues` and the strict lower
//! triangle in CSR layout. Its size model is Eq. 2 of the paper:
//! `S_SSS = 6·(NNZ + N) + 4` bytes, where `NNZ` counts the non-zeros of the
//! *full* matrix.
//!
//! The same half storage carries all three [`SymmetryKind`]s: a skew
//! matrix stores the strict lower triangle with an implicit sign flip on
//! the mirror (and an identically zero diagonal); a structurally symmetric
//! matrix stores a paired `upper_values` array alongside the lower values
//! (`upper_values[j]` is `a[colind[j]][r]` for lower entry `j`).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::rowmajor::RowMajor;
use crate::symmetry::{SymmetryKind, SymmetryOps};
use crate::with_symmetry_ops;
use crate::{Idx, Val};
use std::sync::OnceLock;

/// A symmetric sparse matrix in SSS format (diagonal + strict lower CSR).
///
/// ```
/// use symspmv_sparse::{CooMatrix, SssMatrix};
/// let mut a = CooMatrix::new(2, 2);
/// a.push(0, 0, 4.0);
/// a.push(1, 1, 3.0);
/// a.push(1, 0, 1.0);
/// a.push(0, 1, 1.0);
/// let sss = SssMatrix::from_coo(&a, 0.0).unwrap();
/// assert_eq!(sss.lower_nnz(), 1); // only the strict lower triangle stored
/// let mut y = vec![0.0; 2];
/// sss.spmv(&[1.0, 2.0], &mut y); // Alg. 2 of the paper
/// assert_eq!(y, vec![6.0, 7.0]);
/// ```
#[derive(Debug, Clone)]
pub struct SssMatrix {
    n: Idx,
    kind: SymmetryKind,
    dvalues: Vec<Val>,
    rowptr: Vec<Idx>,
    colind: Vec<Idx>,
    values: Vec<Val>,
    /// Paired upper-triangle values in lower-CSR order; empty unless
    /// `kind == Structural`.
    upper_values: Vec<Val>,
    /// Lazily computed structural fingerprint. The matrix is immutable
    /// after construction (no `&mut self` methods exist), so the cached
    /// value can never go stale.
    fp: OnceLock<u64>,
}

// Manual impl: equality is over the matrix content only — whether the
// fingerprint cache happens to be populated is not part of the value.
impl PartialEq for SssMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.kind == other.kind
            && self.dvalues == other.dvalues
            && self.rowptr == other.rowptr
            && self.colind == other.colind
            && self.values == other.values
            && self.upper_values == other.upper_values
    }
}

impl SssMatrix {
    /// Builds an SSS matrix from a full symmetric COO matrix.
    ///
    /// The input must be square and numerically symmetric (checked with
    /// absolute tolerance `tol`; pass `0.0` for exact symmetry).
    pub fn from_coo(coo: &CooMatrix, tol: Val) -> Result<Self, SparseError> {
        Self::from_coo_kind(coo, SymmetryKind::Symmetric, tol)
    }

    /// Builds the half storage for any [`SymmetryKind`] from a full COO
    /// matrix.
    ///
    /// The input must be square and satisfy the kind's relation (numeric
    /// checks use absolute tolerance `tol`): symmetric — `a_ji = a_ij`;
    /// skew — `a_ji = -a_ij` with every stored diagonal entry zero
    /// (nonzero diagonals are rejected as
    /// [`SparseError::SkewNonzeroDiagonal`], and the stored diagonal is
    /// identically zero); structural — every off-diagonal entry paired,
    /// with the upper value of each pair kept in `upper_values`.
    pub fn from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        tol: Val,
    ) -> Result<Self, SparseError> {
        Self::build(coo, Some((kind, tol)), false)
    }

    /// Fully validated constructor: beyond [`SssMatrix::from_coo`]'s
    /// square/symmetric checks, rejects non-finite values, duplicate
    /// coordinates and index overflow with a structured [`SparseError`].
    ///
    /// This is the entry point for matrices from outside the process;
    /// `from_coo` remains for trusted (generated) inputs.
    pub fn try_from_coo(coo: &CooMatrix, tol: Val) -> Result<Self, SparseError> {
        Self::try_from_coo_kind(coo, SymmetryKind::Symmetric, tol)
    }

    /// Fully validated kind-aware constructor (see
    /// [`SssMatrix::try_from_coo`] and [`SssMatrix::from_coo_kind`]).
    pub fn try_from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        tol: Val,
    ) -> Result<Self, SparseError> {
        if !tol.is_finite() || tol < 0.0 {
            return Err(SparseError::InvalidArgument {
                msg: format!("symmetry tolerance must be finite and >= 0, got {tol}"),
            });
        }
        Self::build(coo, Some((kind, tol)), true)
    }

    /// Builds an SSS matrix from triplets describing only the lower triangle
    /// (diagonal entries included among them), *trusting* symmetry.
    pub fn from_lower_coo(lower_with_diag: &CooMatrix) -> Result<Self, SparseError> {
        Self::build(lower_with_diag, None, false)
    }

    /// The one COO → SSS conversion. Reads `coo` in place through a
    /// [`RowMajor`] view (pass 1: nothing is copied or sorted when the
    /// triplets are canonical), then fills the arrays in one sweep over the
    /// entries on and below the diagonal (pass 2): with `mirror` set, the
    /// sweep that also checks the kind's relation against the upper
    /// triangle; without it, a plain walk that ignores the upper triangle.
    /// `validated` adds the finiteness pass in between.
    ///
    /// Errors come in the order: not square, non-zero count overflow, the
    /// row-major-first non-finite value, the row-major-first entry breaking
    /// the relation.
    fn build(
        coo: &CooMatrix,
        mirror: Option<(SymmetryKind, Val)>,
        validated: bool,
    ) -> Result<Self, SparseError> {
        if coo.nrows() != coo.ncols() {
            return Err(SparseError::NotSquare {
                nrows: coo.nrows(),
                ncols: coo.ncols(),
            });
        }
        let entries = RowMajor::of(coo);
        if validated {
            entries.check_finite()?;
        }
        let n = coo.nrows() as usize;
        let kind = mirror.map_or(SymmetryKind::Symmetric, |(kind, _)| kind);
        let stored = entries.nnz() / if mirror.is_some() { 2 } else { 1 };
        let mut dvalues = vec![0.0; n];
        let mut rowptr = vec![0 as Idx; n + 1];
        let mut colind = Vec::with_capacity(stored);
        let mut values = Vec::with_capacity(stored);
        // Structural storage pairs each lower entry with its mirror value,
        // in lower-CSR order, so the kernels' sequential value cursor
        // walks both arrays in lockstep.
        let mut upper_values = Vec::with_capacity(if kind.has_upper_values() { stored } else { 0 });
        let emit = |r: usize, c: Idx, v: Val, mirrored: Val| {
            if c as usize != r {
                rowptr[r + 1] += 1;
                colind.push(c);
                values.push(v);
                if kind.has_upper_values() {
                    upper_values.push(mirrored);
                }
            } else if !kind.requires_zero_diagonal() {
                // Skew storage is exactly skew: the diagonal stays
                // identically zero (entries within `tol` of zero are
                // clamped, not kept).
                dvalues[r] += v;
            }
        };
        match mirror {
            Some((kind, tol)) => entries.check_mirrors(kind, tol, emit)?,
            None => entries.for_each_lower(emit),
        }
        for r in 0..n {
            rowptr[r + 1] += rowptr[r];
        }
        Ok(SssMatrix {
            n: coo.nrows(),
            kind,
            dvalues,
            rowptr,
            colind,
            values,
            upper_values,
            fp: OnceLock::new(),
        })
    }

    /// Matrix dimension `N`.
    pub fn n(&self) -> Idx {
        self.n
    }

    /// The symmetry kind this storage satisfies.
    pub fn kind(&self) -> SymmetryKind {
        self.kind
    }

    /// The paired upper-triangle values, aligned with
    /// [`SssMatrix::values`]: for a structural matrix this is the explicit
    /// `upper_values` array (`paired_values()[j]` is `a[colind[j]][r]` for
    /// lower entry `j` of row `r`); for the numeric kinds it aliases the
    /// lower values (the mirror is `±values[j]`), so kernels can always
    /// zip a pair slice.
    pub fn paired_values(&self) -> &[Val] {
        if self.kind.has_upper_values() {
            &self.upper_values
        } else {
            &self.values
        }
    }

    /// The raw structural `upper_values` array (empty unless the kind is
    /// [`SymmetryKind::Structural`]).
    pub fn upper_values(&self) -> &[Val] {
        &self.upper_values
    }

    /// Dense diagonal array (`N` entries, zero where structurally absent).
    pub fn dvalues(&self) -> &[Val] {
        &self.dvalues
    }

    /// Row pointers of the strict lower triangle.
    pub fn rowptr(&self) -> &[Idx] {
        &self.rowptr
    }

    /// Column indices of the strict lower triangle.
    pub fn colind(&self) -> &[Idx] {
        &self.colind
    }

    /// Values of the strict lower triangle.
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// Non-zeros stored (strict lower triangle only).
    pub fn lower_nnz(&self) -> usize {
        self.colind.len()
    }

    /// Non-zeros of the represented full matrix, counting the structural
    /// diagonal entries.
    pub fn full_nnz(&self) -> usize {
        let diag_nnz = self.dvalues.iter().filter(|&&d| d != 0.0).count();
        2 * self.lower_nnz() + diag_nnz
    }

    /// Size of the representation in bytes — Eq. 2 of the paper:
    /// `S_SSS = 6·(NNZ + N) + 4`, with `NNZ` the full-matrix non-zero count.
    ///
    /// (Derivation: values+colind store `(NNZ − N)/2` entries at 12 bytes
    /// each, dvalues stores `N` doubles, rowptr `N + 1` four-byte indices.)
    ///
    /// A structural matrix additionally stores the paired upper values
    /// (8 bytes per lower entry) — still well below full CSR, which pays
    /// indices *and* row structure for both triangles.
    pub fn size_bytes(&self) -> usize {
        let upper = 8 * self.upper_values.len();
        12 * self.lower_nnz() + 8 * self.n as usize + 4 * (self.n as usize + 1) + upper
    }

    /// A deterministic 64-bit fingerprint of the sparsity *structure*
    /// (dimension, row pointers, column indices — values excluded).
    ///
    /// Partition plans, conflict indices and race certificates depend only
    /// on structure, so two matrices with identical structure may share
    /// cached plans; the fingerprint is their cache key. FNV-1a is used
    /// rather than the std hasher so the value is stable across processes
    /// and can be embedded in serialized certificates. Computed on first
    /// use and memoized (the matrix is immutable), so repeat plan-cache
    /// lookups do not re-walk the structure.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |word: u32| {
            for b in word.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.n);
        for &p in &self.rowptr {
            eat(p);
        }
        for &c in &self.colind {
            eat(c);
        }
        h
    }

    /// The strict-lower-triangle row `r` (columns and values).
    pub fn row(&self, r: Idx) -> (&[Idx], &[Val]) {
        let lo = self.rowptr[r as usize] as usize;
        let hi = self.rowptr[r as usize + 1] as usize;
        (&self.colind[lo..hi], &self.values[lo..hi])
    }

    /// Row `r` with its paired (mirror) values: for structural symmetry
    /// the third slice holds the upper-triangle values `a_cr`; for the
    /// numeric kinds it aliases the lower values (the mirror is `±v`).
    pub fn row_with_paired(&self, r: Idx) -> (&[Idx], &[Val], &[Val]) {
        let lo = self.rowptr[r as usize] as usize;
        let hi = self.rowptr[r as usize + 1] as usize;
        (
            &self.colind[lo..hi],
            &self.values[lo..hi],
            &self.paired_values()[lo..hi],
        )
    }

    /// Serial half-storage SpMV (`y = A·x`) — Alg. 2 of the paper,
    /// generalized over the symmetry kind: the mirror contribution of a
    /// stored entry is `+v` (symmetric), `-v` (skew) or the paired upper
    /// value (structural). Monomorphized per kind; the symmetric
    /// instantiation is bit-identical to the pre-kind kernel.
    pub fn spmv(&self, x: &[Val], y: &mut [Val]) {
        with_symmetry_ops!(self.kind, O => self.spmv_ops::<O>(x, y));
    }

    fn spmv_ops<O: SymmetryOps>(&self, x: &[Val], y: &mut [Val]) {
        let n = self.n as usize;
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        for r in 0..n {
            y[r] = self.dvalues[r] * x[r];
        }
        for r in 0..self.n {
            let (cols, vals, paired) = self.row_with_paired(r);
            let xr = x[r as usize];
            let mut acc = 0.0;
            for ((&c, &v), &u) in cols.iter().zip(vals).zip(paired) {
                let c = c as usize;
                acc += v * x[c];
                y[c] += O::transposed(v, u) * xr;
            }
            y[r as usize] += acc;
        }
    }

    /// Reconstructs the represented full matrix as COO (for testing and
    /// cross-format conversions), applying the kind's mirror rule to the
    /// upper triangle.
    pub fn to_full_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.n, self.n, self.full_nnz());
        for (i, &d) in self.dvalues.iter().enumerate() {
            if d != 0.0 {
                coo.push(i as Idx, i as Idx, d);
            }
        }
        for r in 0..self.n {
            let (cols, vals, paired) = self.row_with_paired(r);
            for ((&c, &v), &u) in cols.iter().zip(vals).zip(paired) {
                coo.push(r, c, v);
                coo.push(c, r, self.kind.transposed(v, u));
            }
        }
        coo.canonicalize();
        coo
    }

    /// Converts to an equivalent full CSR matrix (the unsymmetric baseline
    /// representation of the same operator).
    pub fn to_full_csr(&self) -> CsrMatrix {
        CsrMatrix::from_coo(&self.to_full_coo())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym_coo() -> CooMatrix {
        // [[4, 1, 0, 0],
        //  [1, 5, 2, 0],
        //  [0, 2, 6, 3],
        //  [0, 0, 3, 7]]
        let mut m = CooMatrix::new(4, 4);
        for (r, c, v) in [
            (0, 0, 4.0),
            (1, 1, 5.0),
            (2, 2, 6.0),
            (3, 3, 7.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 2, 2.0),
            (2, 1, 2.0),
            (2, 3, 3.0),
            (3, 2, 3.0),
        ] {
            m.push(r, c, v);
        }
        m
    }

    #[test]
    fn construction_from_symmetric() {
        let sss = SssMatrix::from_coo(&sym_coo(), 0.0).unwrap();
        assert_eq!(sss.n(), 4);
        assert_eq!(sss.dvalues(), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(sss.lower_nnz(), 3);
        assert_eq!(sss.full_nnz(), 10);
    }

    #[test]
    fn asymmetric_rejected() {
        let mut m = sym_coo();
        m.push(0, 3, 9.0);
        let res = SssMatrix::from_coo(&m, 0.0);
        assert!(matches!(res, Err(SparseError::NotSymmetric { .. })));
    }

    #[test]
    fn spmv_matches_reference() {
        let coo = sym_coo();
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let mut y = vec![0.0; 4];
        let mut y_ref = vec![0.0; 4];
        sss.spmv(&x, &mut y);
        let mut c = coo.clone();
        c.canonicalize();
        c.spmv_reference(&x, &mut y_ref);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-12, "{y:?} vs {y_ref:?}");
        }
    }

    #[test]
    fn full_round_trip() {
        let mut coo = sym_coo();
        coo.canonicalize();
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        assert_eq!(sss.to_full_coo(), coo);
    }

    #[test]
    fn size_model_eq2() {
        let sss = SssMatrix::from_coo(&sym_coo(), 0.0).unwrap();
        // 12*3 + 8*4 + 4*5 = 36 + 32 + 20 = 88
        assert_eq!(sss.size_bytes(), 88);
        // And Eq. 2's asymptotic claim: roughly half of CSR for NNZ >> N.
        let csr = sss.to_full_csr();
        assert!(sss.size_bytes() < csr.size_bytes());
    }

    #[test]
    fn fingerprint_is_structural_and_stable() {
        let a = SssMatrix::from_coo(&sym_coo(), 0.0).unwrap();
        // Same structure, different values → same fingerprint.
        let mut scaled = CooMatrix::new(4, 4);
        for (r, c, v) in sym_coo().iter() {
            scaled.push(r, c, 2.0 * v);
        }
        let b = SssMatrix::from_coo(&scaled, 0.0).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different structure → different fingerprint.
        let mut m = sym_coo();
        m.push(0, 3, 9.0);
        m.push(3, 0, 9.0);
        let c = SssMatrix::from_coo(&m, 0.0).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // FNV-1a over a fixed structure is a process-independent constant;
        // pin the 4×4 tridiagonal-ish fixture so serialization stays stable.
        assert_eq!(a.fingerprint(), a.fingerprint());
    }

    #[test]
    fn missing_diagonal_entries_stored_as_zero() {
        let mut m = CooMatrix::new(3, 3);
        m.push(1, 0, 2.0);
        m.push(0, 1, 2.0);
        let sss = SssMatrix::from_coo(&m, 0.0).unwrap();
        assert_eq!(sss.dvalues(), &[0.0, 0.0, 0.0]);
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![0.0; 3];
        sss.spmv(&x, &mut y);
        assert_eq!(y, vec![2.0, 2.0, 0.0]);
    }

    fn skew_coo() -> CooMatrix {
        // [[0, -1, 0, 0], [1, 0, 2, 0], [0, -2, 0, -3], [0, 0, 3, 0]]
        let mut m = CooMatrix::new(4, 4);
        for (r, c, v) in [
            (0, 1, -1.0),
            (1, 0, 1.0),
            (1, 2, 2.0),
            (2, 1, -2.0),
            (2, 3, -3.0),
            (3, 2, 3.0),
        ] {
            m.push(r, c, v);
        }
        m
    }

    fn structural_coo() -> CooMatrix {
        // Symmetric pattern, unrelated values.
        // [[4, 7, 0], [-2.5, 5, 1], [0, 9, 6]]
        let mut m = CooMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 4.0),
            (0, 1, 7.0),
            (1, 0, -2.5),
            (1, 1, 5.0),
            (1, 2, 1.0),
            (2, 1, 9.0),
            (2, 2, 6.0),
        ] {
            m.push(r, c, v);
        }
        m
    }

    #[test]
    fn default_kind_is_symmetric() {
        let sss = SssMatrix::from_coo(&sym_coo(), 0.0).unwrap();
        assert_eq!(sss.kind(), SymmetryKind::Symmetric);
        assert!(sss.upper_values().is_empty());
        // Paired slice aliases the lower values for numeric kinds.
        assert_eq!(sss.paired_values(), sss.values());
    }

    #[test]
    fn skew_construction_and_spmv() {
        let coo = skew_coo();
        let sss = SssMatrix::from_coo_kind(&coo, SymmetryKind::Skew, 0.0).unwrap();
        assert_eq!(sss.kind(), SymmetryKind::Skew);
        assert_eq!(sss.lower_nnz(), 3);
        assert_eq!(sss.dvalues(), &[0.0; 4]);
        assert!(sss.upper_values().is_empty());

        let x = vec![1.0, -2.0, 0.5, 3.0];
        let mut y = vec![f64::NAN; 4];
        sss.spmv(&x, &mut y);
        let mut c = coo.clone();
        c.canonicalize();
        let mut y_ref = vec![0.0; 4];
        c.spmv_reference(&x, &mut y_ref);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-12, "{y:?} vs {y_ref:?}");
        }

        // Round trip through the mirror rule.
        let mut canon = coo.clone();
        canon.canonicalize();
        assert_eq!(sss.to_full_coo(), canon);
    }

    #[test]
    fn skew_rejects_nonzero_diagonal_and_wrong_mirror() {
        let mut d = skew_coo();
        d.push(1, 1, 5.0);
        let err = SssMatrix::from_coo_kind(&d, SymmetryKind::Skew, 0.0).unwrap_err();
        assert_eq!(err, SparseError::SkewNonzeroDiagonal { row: 1, value: 5.0 });

        let sym = sym_coo();
        let err = SssMatrix::from_coo_kind(&sym, SymmetryKind::Skew, 0.0).unwrap_err();
        assert!(matches!(
            err,
            SparseError::SkewNonzeroDiagonal { .. } | SparseError::NotSkewSymmetric { .. }
        ));

        // try_from_coo_kind reports the same structured error.
        let err = SssMatrix::try_from_coo_kind(&d, SymmetryKind::Skew, 0.0).unwrap_err();
        assert_eq!(err, SparseError::SkewNonzeroDiagonal { row: 1, value: 5.0 });
    }

    #[test]
    fn structural_construction_and_spmv() {
        let coo = structural_coo();
        let sss = SssMatrix::from_coo_kind(&coo, SymmetryKind::Structural, 0.0).unwrap();
        assert_eq!(sss.kind(), SymmetryKind::Structural);
        assert_eq!(sss.lower_nnz(), 2);
        // Lower entries in CSR order: (1,0) = -2.5, (2,1) = 9.0; their
        // paired upper values are a_01 = 7.0 and a_12 = 1.0.
        assert_eq!(sss.values(), &[-2.5, 9.0]);
        assert_eq!(sss.upper_values(), &[7.0, 1.0]);
        assert_eq!(sss.paired_values(), &[7.0, 1.0]);

        let x = vec![1.0, -2.0, 0.5];
        let mut y = vec![f64::NAN; 3];
        sss.spmv(&x, &mut y);
        let mut c = coo.clone();
        c.canonicalize();
        let mut y_ref = vec![0.0; 3];
        c.spmv_reference(&x, &mut y_ref);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-12, "{y:?} vs {y_ref:?}");
        }

        // Full reconstruction restores the unsymmetric values.
        assert_eq!(sss.to_full_coo(), c);

        // The extra upper array is visible in the size model.
        let plain = SssMatrix::from_coo(&sym_coo(), 0.0).unwrap();
        assert_eq!(sss.size_bytes(), 12 * 2 + 8 * 3 + 4 * 4 + 8 * 2,);
        assert!(plain.upper_values().is_empty());
    }

    #[test]
    fn structural_rejects_unpaired_pattern() {
        let mut m = structural_coo();
        m.push(2, 0, 1.0);
        let err = SssMatrix::from_coo_kind(&m, SymmetryKind::Structural, 0.0).unwrap_err();
        assert_eq!(
            err,
            SparseError::NotStructurallySymmetric { row: 2, col: 0 }
        );
    }

    #[test]
    fn kinds_share_structural_fingerprint() {
        // Same pattern, different kinds/values → same fingerprint: plans,
        // conflict indices and write-set proofs are structure-only and are
        // legitimately shared across kinds.
        let skew = SssMatrix::from_coo_kind(&skew_coo(), SymmetryKind::Skew, 0.0).unwrap();
        let mut symmetric_same_pattern = CooMatrix::new(4, 4);
        for (r, c, v) in skew_coo().iter() {
            symmetric_same_pattern.push(r, c, v.abs());
        }
        let sym = SssMatrix::from_coo(&symmetric_same_pattern, 0.0).unwrap();
        assert_eq!(skew.fingerprint(), sym.fingerprint());
    }

    #[test]
    fn symmetric_kind_spmv_bit_identical_to_pre_kind_loop() {
        // The monomorphized symmetric path must replay the historical op
        // order exactly: re-run the original Alg. 2 loop here and compare
        // bit for bit.
        let coo = symmetric_like_random(257);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let n = sss.n() as usize;
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 / 13.0).collect();
        let mut y = vec![0.0; n];
        sss.spmv(&x, &mut y);

        let mut want = vec![0.0; n];
        for r in 0..n {
            want[r] = sss.dvalues()[r] * x[r];
        }
        for r in 0..n {
            let lo = sss.rowptr()[r] as usize;
            let hi = sss.rowptr()[r + 1] as usize;
            let xr = x[r];
            let mut acc = 0.0;
            for j in lo..hi {
                let c = sss.colind()[j] as usize;
                let v = sss.values()[j];
                acc += v * x[c];
                want[c] += v * xr;
            }
            want[r] += acc;
        }
        assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    fn symmetric_like_random(n: Idx) -> CooMatrix {
        // Small deterministic symmetric matrix without pulling in gen's RNG.
        let mut m = CooMatrix::new(n, n);
        for i in 0..n {
            m.push(i, i, 2.0 + (i % 7) as f64);
            let j = (i * 13 + 5) % n;
            let (r, c) = if i > j { (i, j) } else { (j, i) };
            if r != c {
                let v = 1.0 + ((i % 11) as f64) / 3.0;
                m.push(r, c, v);
                m.push(c, r, v);
            }
        }
        m.canonicalize();
        m
    }

    #[test]
    fn duplicates_sum_in_insertion_order_on_shuffled_input() {
        // (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) in f64: the addends of one
        // coordinate must be folded in the order they were pushed, however
        // the other triplets are interleaved, so that mirror images pushed
        // in the same order round identically.
        let parts = [0.1, 0.2, 0.3];
        let mut m = CooMatrix::new(3, 3);
        m.push(2, 2, 1.0);
        m.push(2, 0, parts[0]);
        m.push(0, 2, parts[0]);
        m.push(1, 1, 1.0);
        m.push(0, 2, parts[1]);
        m.push(2, 0, parts[1]);
        m.push(0, 0, 1.0);
        m.push(2, 0, parts[2]);
        m.push(0, 2, parts[2]);
        let sss = SssMatrix::from_coo(&m, 0.0).unwrap();
        assert_eq!(sss.values()[0].to_bits(), ((0.1 + 0.2) + 0.3_f64).to_bits());
        assert_ne!(sss.values()[0].to_bits(), (0.1 + (0.2 + 0.3_f64)).to_bits());

        // The same addends pushed in the opposite order above the diagonal
        // round differently: exact symmetry is lost, and reported.
        let mut m = CooMatrix::new(3, 3);
        for i in 0..3 {
            m.push(2, 0, parts[i]);
            m.push(0, 2, parts[2 - i]);
        }
        let err = SssMatrix::from_coo(&m, 0.0).unwrap_err();
        assert_eq!(err, SparseError::NotSymmetric { row: 0, col: 2 });
        assert!(SssMatrix::from_coo(&m, 1e-15).is_ok());
    }

    #[test]
    fn error_precedence() {
        // Not square comes before everything else.
        let mut m = CooMatrix::new(2, 3);
        m.push(0, 1, f64::NAN);
        let not_square = SparseError::NotSquare { nrows: 2, ncols: 3 };
        assert_eq!(SssMatrix::try_from_coo(&m, 0.0), Err(not_square.clone()));
        assert_eq!(SssMatrix::from_coo(&m, 0.0), Err(not_square));

        // On the validated path a non-finite value anywhere beats an
        // asymmetry positioned before it; the unvalidated path, which does
        // not look at finiteness, names the asymmetry.
        let mut m = sym_coo();
        m.push(0, 2, 9.0);
        m.push(3, 3, f64::INFINITY);
        let err = SssMatrix::try_from_coo(&m, 0.0).unwrap_err();
        assert!(
            matches!(err, SparseError::NonFiniteValue { row: 3, col: 3, value } if value.is_infinite())
        );
        let err = SssMatrix::from_coo(&m, 0.0).unwrap_err();
        assert_eq!(err, SparseError::NotSymmetric { row: 0, col: 2 });

        // Among several asymmetries the row-major-first entry is named,
        // whichever triangle it is in and in whatever order they were pushed.
        let mut m = sym_coo();
        m.push(3, 1, 9.0);
        m.push(2, 0, 9.0);
        m.push(1, 3, 8.0);
        let err = SssMatrix::from_coo(&m, 0.0).unwrap_err();
        assert_eq!(err, SparseError::NotSymmetric { row: 1, col: 3 });

        // The only evidence is an upper entry no lower entry ever asks for.
        let mut m = sym_coo();
        m.push(0, 3, 9.0);
        for kind in SymmetryKind::ALL {
            let err = SssMatrix::from_coo_kind(&m, kind, 0.0).unwrap_err();
            let same = SssMatrix::try_from_coo_kind(&m, kind, 0.0).unwrap_err();
            assert_eq!(err, same);
            match kind {
                SymmetryKind::Symmetric => {
                    assert_eq!(err, SparseError::NotSymmetric { row: 0, col: 3 })
                }
                // The nonzero diagonal of row 0 comes first.
                SymmetryKind::Skew => {
                    assert_eq!(err, SparseError::SkewNonzeroDiagonal { row: 0, value: 4.0 })
                }
                SymmetryKind::Structural => {
                    assert_eq!(
                        err,
                        SparseError::NotStructurallySymmetric { row: 0, col: 3 }
                    )
                }
            }
        }
    }

    #[test]
    fn tolerance_keeps_the_lower_value_and_pairs_the_upper_one() {
        // Mirrors within `tol` of the relation are accepted; what is stored
        // is the lower-triangle value as given, not an average.
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 1.25);
        m.push(1, 0, 1.0);
        assert!(SssMatrix::from_coo(&m, 0.2).is_err());
        let sss = SssMatrix::from_coo(&m, 0.3).unwrap();
        assert_eq!(sss.values(), &[1.0]);
        assert!(sss.upper_values().is_empty());

        let sss = SssMatrix::from_coo_kind(&m, SymmetryKind::Structural, 0.3).unwrap();
        assert_eq!(sss.values(), &[1.0]);
        assert_eq!(sss.upper_values(), &[1.25]);

        // Skew: `a_ji = -a_ij` within tol, the lower value stored, and a
        // diagonal within tol of zero clamped to exactly zero.
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, -1.25);
        m.push(1, 0, 1.0);
        m.push(1, 1, 0.125);
        let sss = SssMatrix::from_coo_kind(&m, SymmetryKind::Skew, 0.3).unwrap();
        assert_eq!(sss.values(), &[1.0]);
        assert_eq!(sss.dvalues(), &[0.0, 0.0]);
        assert_eq!(
            SssMatrix::from_coo_kind(&m, SymmetryKind::Skew, 0.1).unwrap_err(),
            SparseError::NotSkewSymmetric { row: 0, col: 1 }
        );
    }

    #[test]
    fn nan_is_an_offender_not_a_panic() {
        // `x <= tol` and `x > tol` are both false for NaN; the relation is
        // written so that NaN fails it, at the entry that carries it.
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, f64::NAN);
        m.push(1, 0, f64::NAN);
        assert_eq!(
            SssMatrix::from_coo(&m, 0.0),
            Err(SparseError::NotSymmetric { row: 0, col: 1 })
        );
        assert_eq!(
            SssMatrix::from_coo_kind(&m, SymmetryKind::Skew, 0.0),
            Err(SparseError::NotSkewSymmetric { row: 0, col: 1 })
        );
        assert!(SssMatrix::from_coo_kind(&m, SymmetryKind::Structural, 0.0).is_ok());
        let mut d = CooMatrix::new(1, 1);
        d.push(0, 0, f64::NAN);
        let err = SssMatrix::from_coo_kind(&d, SymmetryKind::Skew, 0.0).unwrap_err();
        assert!(
            matches!(err, SparseError::SkewNonzeroDiagonal { row: 0, value } if value.is_nan())
        );
        // A NaN tolerance fails every pair it is asked about.
        assert!(SssMatrix::from_coo(&sym_coo(), f64::NAN).is_err());
    }

    #[test]
    fn from_lower_coo_matches_from_coo() {
        let full = sym_coo();
        let a = SssMatrix::from_coo(&full, 0.0).unwrap();
        let (lower, diag) = {
            let mut c = full.clone();
            c.canonicalize();
            c.split_lower_diag().unwrap()
        };
        let mut lower_with_diag = lower;
        for (i, &d) in diag.iter().enumerate() {
            if d != 0.0 {
                lower_with_diag.push(i as Idx, i as Idx, d);
            }
        }
        let b = SssMatrix::from_lower_coo(&lower_with_diag).unwrap();
        assert_eq!(a, b);
    }
}
