//! Seeded randomized malformed-COO generator fed to every `try_from_coo`
//! constructor in the workspace.
//!
//! Each round builds a valid random symmetric matrix, applies one random
//! corruption, and asserts that every constructor reports a structured
//! error (or, for corruptions a format legitimately tolerates, succeeds) —
//! and that none of them panic. Deterministic: same seed, same corpus.
//!
//! The constructors share one check: `SssMatrix::try_from_coo_kind` (and
//! `SymSpmv`, built on it) and `CsrMatrix::try_from_coo` run it inside
//! their conversion, and `CsxMatrix::try_from_coo` encodes the rows of a
//! `CsrMatrix::try_from_coo`. Duplicates are summed, not rejected, so no
//! corruption here is a duplicate.

use symspmv::core::{ReductionMethod, SymFormat, SymSpmv, SymSpmvError};
use symspmv::csx::{CsxMatrix, DetectConfig};
use symspmv::runtime::ExecutionContext;
use symspmv::sparse::symmetry::SymmetryKind;
use symspmv::sparse::{CooMatrix, CsrMatrix, SparseError, SssMatrix};

/// xorshift64* — deterministic, no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn val(&mut self) -> f64 {
        (self.below(2000) as f64 - 1000.0) / 100.0
    }
}

/// A valid random symmetric matrix with a positive diagonal.
fn valid_symmetric(rng: &mut Rng, n: u32) -> CooMatrix {
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        coo.push(r, r, 4.0 + rng.val().abs());
    }
    for _ in 0..(n * 2) {
        let r = rng.below(n as u64) as u32;
        let c = rng.below(n as u64) as u32;
        if r == c {
            continue;
        }
        let v = rng.val();
        coo.push(r, c, v);
        coo.push(c, r, v);
    }
    coo.canonicalize();
    coo
}

/// Value corruptions every format must reject. Out-of-range indices are
/// unrepresentable in a [`CooMatrix`] (`push` asserts bounds), so that class
/// is fuzzed at the `from_triplets` boundary in its own test below.
#[derive(Debug, Clone, Copy)]
enum Corruption {
    NanValue,
    InfValue,
}

fn corrupt(coo: &CooMatrix, rng: &mut Rng, kind: Corruption) -> CooMatrix {
    let n = coo.nrows();
    let mut bad = coo.clone();
    // Keep the pattern symmetric (inject on the diagonal) so only the
    // non-finite value trips, not an incidental asymmetry.
    let v = match kind {
        Corruption::NanValue => f64::NAN,
        Corruption::InfValue => f64::INFINITY,
    };
    let r = rng.below(n as u64) as u32;
    bad.push(r, r, v);
    bad
}

/// Runs every constructor on `coo`; returns per-constructor results.
/// Panics (the test failure mode) if any constructor panics.
fn feed_all(coo: &CooMatrix, ctx: &std::sync::Arc<ExecutionContext>) -> Vec<(&'static str, bool)> {
    let csx_cfg = DetectConfig::default();
    let mut results = Vec::new();
    let mut check = |name: &'static str, ok: bool| results.push((name, ok));
    check("csr", CsrMatrix::try_from_coo(coo).is_ok());
    check("sss", SssMatrix::try_from_coo(coo, 0.0).is_ok());
    check("csx", CsxMatrix::try_from_coo(coo, &csx_cfg).is_ok());
    check(
        "symspmv",
        SymSpmv::try_from_coo(coo, ctx, ReductionMethod::Indexing, SymFormat::Sss).is_ok(),
    );
    results
}

#[test]
fn corrupted_matrices_are_rejected_by_every_constructor() {
    let mut rng = Rng(0x5EED_CAFE_F00D_0001);
    let ctx = ExecutionContext::new(2);
    let kinds = [Corruption::NanValue, Corruption::InfValue];
    for round in 0..40 {
        let n = 4 + rng.below(28) as u32;
        let base = valid_symmetric(&mut rng, n);

        // Sanity: the uncorrupted base constructs everywhere.
        for (name, ok) in feed_all(&base, &ctx) {
            assert!(ok, "round {round}: valid base rejected by {name}");
        }

        let kind = kinds[rng.below(kinds.len() as u64) as usize];
        let bad = corrupt(&base, &mut rng, kind);
        for (name, ok) in feed_all(&bad, &ctx) {
            assert!(
                !ok,
                "round {round}: {kind:?} corruption accepted by {name} (n={n})"
            );
        }
    }
}

/// `base` (symmetric) re-valued to satisfy `kind`, with the value `bad`
/// written over one entry: a random diagonal one, or a random off-diagonal
/// one *and* its mirror (so the pattern, and for the numeric kinds the
/// relation's operands, stay paired).
fn of_kind_with(
    base: &CooMatrix,
    kind: SymmetryKind,
    rng: &mut Rng,
    bad: f64,
    on_diagonal: bool,
) -> CooMatrix {
    let hits: Vec<(u32, u32)> = base
        .iter()
        .filter(|&(r, c, _)| if on_diagonal { r == c } else { r > c })
        .map(|(r, c, _)| (r, c))
        .collect();
    let (hr, hc) = hits[rng.below(hits.len() as u64) as usize];
    let mut coo = CooMatrix::new(base.nrows(), base.ncols());
    for (r, c, v) in base.iter() {
        let v = if (r, c) == (hr, hc) || (r, c) == (hc, hr) {
            bad
        } else if r == c && kind == SymmetryKind::Skew {
            0.0
        } else {
            v
        };
        // Below the diagonal the base value; above it what the kind pairs
        // with it.
        coo.push(
            r,
            c,
            if r < c {
                kind.transposed(v, 0.5 * v)
            } else {
                v
            },
        );
    }
    coo
}

#[test]
fn non_finite_values_never_panic_the_unvalidated_constructors() {
    // The unvalidated constructors do not promise to reject non-finite
    // values, but a NaN must not fall between "relation violated" and "no
    // offender found": every tolerance test treats NaN as an offender, so
    // a NaN (or an `inf − inf`) pair under a numeric kind and a NaN skew
    // diagonal are a structured error at that entry; whatever the relation
    // does not look at passes through.
    let mut rng = Rng(0x0BAD_F10A_7000_0004);
    let ctx = ExecutionContext::new(2);
    for round in 0..60 {
        let n = 4 + rng.below(28) as u32;
        let base = valid_symmetric(&mut rng, n);
        for kind in SymmetryKind::ALL {
            for bad in [f64::NAN, f64::INFINITY] {
                for on_diagonal in [false, true] {
                    let coo = of_kind_with(&base, kind, &mut rng, bad, on_diagonal);
                    let sss = SssMatrix::from_coo_kind(&coo, kind, 0.0);
                    let kernel = SymSpmv::from_coo_kind(
                        &coo,
                        kind,
                        &ctx,
                        ReductionMethod::Indexing,
                        SymFormat::Sss,
                    );
                    let what = format!("round {round}: {kind:?} {bad} diagonal={on_diagonal}");
                    // By `Debug`: an error that carries the NaN is not `==` itself.
                    assert_eq!(
                        format!("{:?}", sss.as_ref().err()),
                        format!("{:?}", kernel.as_ref().err()),
                        "{what}"
                    );
                    match (kind, on_diagonal) {
                        (SymmetryKind::Symmetric, false) => assert!(
                            matches!(sss, Err(SparseError::NotSymmetric { row, col }) if row < col),
                            "{what}: {sss:?}"
                        ),
                        (SymmetryKind::Skew, false) => assert!(
                            matches!(sss, Err(SparseError::NotSkewSymmetric { row, col }) if row < col),
                            "{what}: {sss:?}"
                        ),
                        (SymmetryKind::Skew, true) => assert!(
                            matches!(sss, Err(SparseError::SkewNonzeroDiagonal { .. })),
                            "{what}: {sss:?}"
                        ),
                        _ => assert!(sss.is_ok(), "{what}: {sss:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn out_of_range_indices_never_reach_the_formats() {
    // `CooMatrix::push` asserts bounds, so the only way triplet data with a
    // wild index can enter the pipeline is `from_triplets` (or the
    // MatrixMarket reader, covered by the malformed-fixture corpus). That
    // boundary must report a structured error, never construct the matrix.
    let mut rng = Rng(0x0FF5_1DE5_0000_0003);
    for round in 0..40 {
        let n = 4 + rng.below(28) as u32;
        let base = valid_symmetric(&mut rng, n);
        let mut rows = base.row_indices().to_vec();
        let mut cols = base.col_indices().to_vec();
        let vals = base.values().to_vec();
        let slot = rng.below(rows.len() as u64) as usize;
        let wild = n + rng.below(100) as u32;
        if rng.below(2) == 0 {
            rows[slot] = wild;
        } else {
            cols[slot] = wild;
        }
        let res = CooMatrix::from_triplets(n, n, rows, cols, vals);
        assert!(
            matches!(res, Err(SparseError::IndexOutOfBounds { .. })),
            "round {round}: wild index {wild} in a {n}x{n} matrix must be rejected"
        );
    }
}

#[test]
fn asymmetry_rejected_by_symmetric_formats_only() {
    let mut rng = Rng(0xBAD_C0DE_0000_0002);
    let ctx = ExecutionContext::new(2);
    for round in 0..20 {
        let n = 6 + rng.below(20) as u32;
        let mut coo = valid_symmetric(&mut rng, n);
        // Inject a strictly-lower entry at a coordinate whose mirror is
        // absent: legal for unsymmetric formats, fatal for symmetric ones.
        let (r, c) = loop {
            let r = 1 + rng.below((n - 1) as u64) as u32;
            let c = rng.below(r as u64) as u32;
            if coo.find(r, c).is_none() && coo.find(c, r).is_none() {
                break (r, c);
            }
        };
        coo.push(r, c, 9.75);
        coo.canonicalize();

        assert!(CsrMatrix::try_from_coo(&coo).is_ok(), "round {round}");
        assert!(CsxMatrix::try_from_coo(&coo, &DetectConfig::default()).is_ok());

        let err = SssMatrix::try_from_coo(&coo, 0.0).unwrap_err();
        assert!(matches!(err, SparseError::NotSymmetric { .. }), "{err:?}");
        let err = SymSpmv::try_from_coo(&coo, &ctx, ReductionMethod::Naive, SymFormat::Sss)
            .err()
            .expect("asymmetric input must be rejected");
        assert!(
            matches!(err, SymSpmvError::InvalidStructure(_)),
            "asymmetry must classify as InvalidStructure, got {err:?}"
        );
    }
}

#[test]
fn invalid_arguments_are_structured_errors() {
    let coo = valid_symmetric(&mut Rng(7), 8);
    assert!(matches!(
        SssMatrix::try_from_coo(&coo, f64::NAN),
        Err(SparseError::InvalidArgument { .. })
    ));

    // A reduction method the format does not support is an argument error
    // of the validated constructor for every kind — never the assert of
    // the infallible build path.
    use symspmv::sparse::gen;
    let ctx = ExecutionContext::new(2);
    let csxsym = || SymFormat::CsxSym(DetectConfig::default());
    for (kind, coo) in [
        (SymmetryKind::Symmetric, gen::laplacian_2d(8, 8)),
        (SymmetryKind::Skew, gen::skew_convection(64, 5, 4.0, 3)),
        (
            SymmetryKind::Structural,
            gen::structural_random(64, 5.0, 0.4, 4, 5),
        ),
    ] {
        // `csxsym × race` is the one pair that does not build.
        let err = SymSpmv::try_from_coo_kind(&coo, kind, &ctx, ReductionMethod::Race, csxsym())
            .err()
            .expect("unsupported method x format pair must be rejected");
        assert!(
            matches!(
                err,
                SymSpmvError::InvalidStructure(SparseError::InvalidArgument { .. })
            ),
            "{} x race: {err:?}",
            kind.tag()
        );
        // The supported neighbour of the rejected pair still builds.
        assert!(
            SymSpmv::try_from_coo_kind(&coo, kind, &ctx, ReductionMethod::Indexing, csxsym())
                .is_ok()
        );
    }
}
