//! Structural validation of COO inputs — the checks behind every
//! `try_from_coo` constructor.
//!
//! RACE-style pipelines treat input validation as a first-class
//! preprocessing stage: a malformed matrix must surface as a structured
//! [`SparseError`] *before* any kernel touches it, never as a panic inside
//! a parallel region. This module centralizes the checks so each storage
//! format states its requirements declaratively.

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::rowmajor::RowMajor;
use crate::symmetry::SymmetryKind;
use crate::{Idx, Val};

/// Which structural properties a constructor requires of its input.
///
/// `CooChecks::default()` checks only universal well-formedness (finite
/// values, in-range indices); builders add the properties their format
/// needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct CooChecks {
    /// Require `nrows == ncols`.
    pub square: bool,
    /// Require numeric symmetry within this absolute tolerance.
    pub symmetric: Option<Val>,
    /// Require skew symmetry (`a_ji = -a_ij`, zero diagonal) within this
    /// absolute tolerance.
    pub skew: Option<Val>,
    /// Require a symmetric sparsity *pattern* (values unconstrained).
    pub pattern_symmetric: bool,
    /// Require row-major sorted triplets with no duplicate coordinates.
    pub canonical: bool,
}

impl CooChecks {
    /// The requirements of the symmetric formats (SSS, CSX-Sym):
    /// square, exactly symmetric, canonical.
    pub fn symmetric_format() -> Self {
        CooChecks {
            square: true,
            symmetric: Some(0.0),
            canonical: true,
            ..CooChecks::default()
        }
    }

    /// The requirements of the skew-symmetric half-storage formats:
    /// square, exactly skew (zero diagonal), canonical.
    pub fn skew_format() -> Self {
        CooChecks {
            square: true,
            skew: Some(0.0),
            canonical: true,
            ..CooChecks::default()
        }
    }

    /// The requirements of the structurally symmetric half-storage
    /// formats: square, pattern-symmetric, canonical.
    pub fn structural_format() -> Self {
        CooChecks {
            square: true,
            pattern_symmetric: true,
            canonical: true,
            ..CooChecks::default()
        }
    }

    /// The half-storage requirements for a symmetry kind, with the numeric
    /// checks (symmetric/skew) at tolerance `tol`.
    pub fn for_kind(kind: SymmetryKind, tol: Val) -> Self {
        match kind {
            SymmetryKind::Symmetric => CooChecks {
                symmetric: Some(tol),
                ..CooChecks::symmetric_format()
            },
            SymmetryKind::Skew => CooChecks {
                skew: Some(tol),
                ..CooChecks::skew_format()
            },
            SymmetryKind::Structural => CooChecks::structural_format(),
        }
    }

    /// The requirements of the unsymmetric formats (CSR, CSX):
    /// canonical triplets, nothing more.
    pub fn unsymmetric_format() -> Self {
        CooChecks {
            square: false,
            symmetric: None,
            canonical: true,
            ..CooChecks::default()
        }
    }
}

/// Validates `coo` against `checks`, returning the first violation found.
///
/// Checks run cheapest-first: dimension/overflow guards, then a single
/// pass over the triplets (bounds, finiteness, order, duplicates), then
/// the linear mirror sweep of each symmetry relation requested.
pub fn validate_coo(coo: &CooMatrix, checks: &CooChecks) -> Result<(), SparseError> {
    if checks.square && coo.nrows() != coo.ncols() {
        return Err(SparseError::NotSquare {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
        });
    }
    // The flat index `r·ncols + c` and the CSR rowptr both index with
    // `usize`; nnz itself must also be addressable. On 32-bit targets a
    // huge nnz could overflow downstream `usize` arithmetic.
    if coo.nnz() as u64 > u32::MAX as u64 {
        return Err(SparseError::IndexOverflow {
            what: "non-zero count",
            value: coo.nnz() as u64,
            max: u32::MAX as u64,
        });
    }

    let rows = coo.row_indices();
    let cols = coo.col_indices();
    let vals = coo.values();
    let (nrows, ncols) = (coo.nrows(), coo.ncols());
    // Mirror images are paired in canonical order; requesting a symmetry
    // relation implies the canonicity check.
    let canonical = checks.canonical
        || checks.symmetric.is_some()
        || checks.skew.is_some()
        || checks.pattern_symmetric;
    let mut prev: Option<(Idx, Idx)> = None;
    for (i, ((&r, &c), &v)) in rows.iter().zip(cols).zip(vals).enumerate() {
        if r >= nrows || c >= ncols {
            return Err(SparseError::IndexOutOfBounds {
                row: r,
                col: c,
                nrows,
                ncols,
            });
        }
        if !v.is_finite() {
            return Err(SparseError::NonFiniteValue {
                row: r,
                col: c,
                value: v,
            });
        }
        if canonical {
            if let Some(p) = prev {
                if p == (r, c) {
                    return Err(SparseError::DuplicateEntry { row: r, col: c });
                }
                if p > (r, c) {
                    return Err(SparseError::UnsortedTriplets { position: i });
                }
            }
            prev = Some((r, c));
        }
    }

    let relations = [
        checks.symmetric.map(|tol| (SymmetryKind::Symmetric, tol)),
        checks.skew.map(|tol| (SymmetryKind::Skew, tol)),
        checks
            .pattern_symmetric
            .then_some((SymmetryKind::Structural, 0.0)),
    ];
    for (kind, tol) in relations.into_iter().flatten() {
        // A relation between mirror images is only defined on a square
        // matrix, whether or not `checks.square` asked for one.
        if nrows != ncols {
            return Err(SparseError::NotSquare { nrows, ncols });
        }
        RowMajor::of(coo).check_mirrors(kind, tol, |_, _, _, _| {})?;
    }
    Ok(())
}

/// Converts a `u64` (as parsed from external input) into the 4-byte index
/// type, reporting [`SparseError::IndexOverflow`] with context on failure.
pub fn checked_idx(value: u64, what: &'static str) -> Result<Idx, SparseError> {
    Idx::try_from(value).map_err(|_| SparseError::IndexOverflow {
        what,
        value,
        max: Idx::MAX as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym3() -> CooMatrix {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, 2.0);
        m.push(0, 1, 1.0);
        m.push(1, 0, 1.0);
        m.push(2, 2, 4.0);
        m.canonicalize();
        m
    }

    #[test]
    fn well_formed_passes_all_checks() {
        let m = sym3();
        assert!(validate_coo(&m, &CooChecks::symmetric_format()).is_ok());
        assert!(validate_coo(&m, &CooChecks::unsymmetric_format()).is_ok());
    }

    #[test]
    fn nan_and_inf_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = sym3();
            m.push(2, 1, bad);
            m.push(1, 2, bad);
            let err = validate_coo(&m, &CooChecks::default()).unwrap_err();
            assert!(
                matches!(err, SparseError::NonFiniteValue { .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn duplicates_rejected_when_canonical_required() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, 1.0);
        m.push(0, 0, 2.0);
        let err = validate_coo(&m, &CooChecks::unsymmetric_format()).unwrap_err();
        assert_eq!(err, SparseError::DuplicateEntry { row: 0, col: 0 });
        // Without the canonical requirement duplicates are tolerated.
        assert!(validate_coo(&m, &CooChecks::default()).is_ok());
    }

    #[test]
    fn unsorted_rejected_when_canonical_required() {
        let mut m = CooMatrix::new(2, 2);
        m.push(1, 1, 1.0);
        m.push(0, 0, 2.0);
        let err = validate_coo(&m, &CooChecks::unsymmetric_format()).unwrap_err();
        assert_eq!(err, SparseError::UnsortedTriplets { position: 1 });
    }

    #[test]
    fn asymmetric_rejected() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 1.0);
        m.canonicalize();
        let err = validate_coo(&m, &CooChecks::symmetric_format()).unwrap_err();
        assert!(matches!(err, SparseError::NotSymmetric { row: 0, col: 1 }));
    }

    #[test]
    fn non_square_rejected_for_symmetric_format() {
        let m = CooMatrix::new(2, 3);
        let err = validate_coo(&m, &CooChecks::symmetric_format()).unwrap_err();
        assert!(matches!(err, SparseError::NotSquare { .. }));
    }

    fn skew3() -> CooMatrix {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 1, -1.0);
        m.push(1, 0, 1.0);
        m.push(1, 2, 2.0);
        m.push(2, 1, -2.0);
        m.canonicalize();
        m
    }

    #[test]
    fn skew_checks() {
        assert!(validate_coo(&skew3(), &CooChecks::skew_format()).is_ok());
        assert!(validate_coo(&skew3(), &CooChecks::for_kind(SymmetryKind::Skew, 0.0)).is_ok());

        // A nonzero diagonal is a distinct, named violation.
        let mut d = skew3();
        d.push(1, 1, 4.0);
        d.canonicalize();
        let err = validate_coo(&d, &CooChecks::skew_format()).unwrap_err();
        assert_eq!(err, SparseError::SkewNonzeroDiagonal { row: 1, value: 4.0 });

        // sym3 has a nonzero diagonal, flagged before the mirror scan.
        let err = validate_coo(&sym3(), &CooChecks::skew_format()).unwrap_err();
        assert!(matches!(err, SparseError::SkewNonzeroDiagonal { .. }));

        // A same-sign mirror (zero diagonal) fails the skew relation itself.
        let mut same_sign = CooMatrix::new(2, 2);
        same_sign.push(0, 1, 1.0);
        same_sign.push(1, 0, 1.0);
        same_sign.canonicalize();
        let err = validate_coo(&same_sign, &CooChecks::skew_format()).unwrap_err();
        assert!(matches!(err, SparseError::NotSkewSymmetric { .. }));

        // An unpaired entry fails it too.
        let mut u = skew3();
        u.push(0, 2, 5.0);
        u.canonicalize();
        let err = validate_coo(&u, &CooChecks::skew_format()).unwrap_err();
        assert_eq!(err, SparseError::NotSkewSymmetric { row: 0, col: 2 });
    }

    #[test]
    fn pattern_symmetry_checks() {
        // Pattern symmetric with unrelated values passes structural but
        // fails both numeric kinds.
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 3.0);
        m.push(1, 0, -7.5);
        m.canonicalize();
        assert!(validate_coo(&m, &CooChecks::structural_format()).is_ok());
        assert!(validate_coo(&m, &CooChecks::for_kind(SymmetryKind::Structural, 0.0)).is_ok());
        assert!(validate_coo(&m, &CooChecks::symmetric_format()).is_err());
        assert!(validate_coo(&m, &CooChecks::skew_format()).is_err());

        let mut u = m.clone();
        u.push(1, 1, 1.0);
        u.canonicalize();
        assert!(validate_coo(&u, &CooChecks::structural_format()).is_ok());

        let mut broken = CooMatrix::new(2, 2);
        broken.push(0, 1, 3.0);
        broken.canonicalize();
        let err = validate_coo(&broken, &CooChecks::structural_format()).unwrap_err();
        assert_eq!(
            err,
            SparseError::NotStructurallySymmetric { row: 0, col: 1 }
        );
    }

    #[test]
    fn for_kind_matches_format_constructors() {
        let sym = CooChecks::for_kind(SymmetryKind::Symmetric, 0.0);
        assert_eq!(sym.symmetric, Some(0.0));
        assert!(sym.square && sym.canonical);
        let skew = CooChecks::for_kind(SymmetryKind::Skew, 1e-9);
        assert_eq!(skew.skew, Some(1e-9));
        let st = CooChecks::for_kind(SymmetryKind::Structural, 0.0);
        assert!(st.pattern_symmetric && st.symmetric.is_none() && st.skew.is_none());
    }

    #[test]
    fn checked_idx_reports_overflow() {
        assert_eq!(checked_idx(7, "row count"), Ok(7));
        let err = checked_idx(u64::from(Idx::MAX) + 1, "row count").unwrap_err();
        assert!(matches!(
            err,
            SparseError::IndexOverflow {
                what: "row count",
                ..
            }
        ));
    }
}
