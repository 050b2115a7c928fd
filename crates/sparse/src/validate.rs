//! The input checks on untrusted COO triplets, asserted on the constructors
//! that make them. No separate COO validator exists: `CsrMatrix::try_from_coo`
//! checks finiteness and the nnz bound, and `SssMatrix::try_from_coo_kind`
//! adds squareness and the symmetry relation of its kind.

#[cfg(test)]
mod tests {
    use crate::{CooMatrix, CsrMatrix, SparseError, SssMatrix, SymmetryKind};

    fn sym3() -> CooMatrix {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 0, 2.0);
        m.push(0, 1, 1.0);
        m.push(1, 0, 1.0);
        m.push(2, 2, 4.0);
        m
    }

    fn kind(m: &CooMatrix, kind: SymmetryKind) -> Result<SssMatrix, SparseError> {
        SssMatrix::try_from_coo_kind(m, kind, 0.0)
    }

    #[test]
    fn well_formed_passes_all_checks() {
        let m = sym3();
        assert!(kind(&m, SymmetryKind::Symmetric).is_ok());
        assert!(kind(&m, SymmetryKind::Structural).is_ok());
        assert!(SssMatrix::try_from_coo(&m, 0.0).is_ok());
        assert!(CsrMatrix::try_from_coo(&m).is_ok());
    }

    #[test]
    fn nan_and_inf_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = sym3();
            m.push(2, 1, bad);
            m.push(1, 2, bad);
            let err = kind(&m, SymmetryKind::Symmetric).unwrap_err();
            assert!(
                matches!(err, SparseError::NonFiniteValue { row: 1, col: 2, .. }),
                "{bad}: {err}"
            );
            let err = CsrMatrix::try_from_coo(&m).unwrap_err();
            assert!(
                matches!(err, SparseError::NonFiniteValue { row: 1, col: 2, .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn asymmetric_rejected() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 1.0);
        let err = kind(&m, SymmetryKind::Symmetric).unwrap_err();
        assert_eq!(err, SparseError::NotSymmetric { row: 0, col: 1 });
    }

    #[test]
    fn non_square_rejected_for_symmetric_format() {
        let m = CooMatrix::new(2, 3);
        for k in [
            SymmetryKind::Symmetric,
            SymmetryKind::Skew,
            SymmetryKind::Structural,
        ] {
            let err = kind(&m, k).unwrap_err();
            assert_eq!(err, SparseError::NotSquare { nrows: 2, ncols: 3 });
        }
    }

    fn skew3() -> CooMatrix {
        let mut m = CooMatrix::new(3, 3);
        m.push(0, 1, -1.0);
        m.push(1, 0, 1.0);
        m.push(1, 2, 2.0);
        m.push(2, 1, -2.0);
        m
    }

    #[test]
    fn skew_checks() {
        assert!(kind(&skew3(), SymmetryKind::Skew).is_ok());

        // A nonzero diagonal is a distinct, named violation.
        let mut d = skew3();
        d.push(1, 1, 4.0);
        let err = kind(&d, SymmetryKind::Skew).unwrap_err();
        assert_eq!(err, SparseError::SkewNonzeroDiagonal { row: 1, value: 4.0 });

        // sym3's first entry is a nonzero diagonal.
        let err = kind(&sym3(), SymmetryKind::Skew).unwrap_err();
        assert!(
            matches!(err, SparseError::SkewNonzeroDiagonal { .. }),
            "{err}"
        );

        // A same-sign mirror (zero diagonal) fails the skew relation itself.
        let mut same_sign = CooMatrix::new(2, 2);
        same_sign.push(0, 1, 1.0);
        same_sign.push(1, 0, 1.0);
        let err = kind(&same_sign, SymmetryKind::Skew).unwrap_err();
        assert!(matches!(err, SparseError::NotSkewSymmetric { .. }), "{err}");

        // An unpaired entry fails it too.
        let mut u = skew3();
        u.push(0, 2, 5.0);
        let err = kind(&u, SymmetryKind::Skew).unwrap_err();
        assert_eq!(err, SparseError::NotSkewSymmetric { row: 0, col: 2 });
    }

    #[test]
    fn pattern_symmetry_checks() {
        // Pattern symmetric with unrelated values passes structural but
        // fails both numeric kinds.
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 3.0);
        m.push(1, 0, -7.5);
        assert!(kind(&m, SymmetryKind::Structural).is_ok());
        assert!(kind(&m, SymmetryKind::Symmetric).is_err());
        assert!(kind(&m, SymmetryKind::Skew).is_err());

        let mut u = m.clone();
        u.push(1, 1, 1.0);
        assert!(kind(&u, SymmetryKind::Structural).is_ok());

        let mut broken = CooMatrix::new(2, 2);
        broken.push(0, 1, 3.0);
        let err = kind(&broken, SymmetryKind::Structural).unwrap_err();
        assert_eq!(
            err,
            SparseError::NotStructurallySymmetric { row: 0, col: 1 }
        );
    }
}
