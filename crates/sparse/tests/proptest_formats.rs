//! Randomized property tests for the base formats and permutations.
//!
//! Formerly proptest-based; now driven by the workspace's own seeded
//! [`StdRng`] so the property coverage survives without external crates
//! and every case is exactly reproducible from its loop index.

use symspmv_sparse::dense::DenseMatrix;
use symspmv_sparse::rng::StdRng;
use symspmv_sparse::{mm, CooMatrix, Idx, Permutation, SssMatrix, SymmetryKind};

const CASES: u64 = 80;

fn random_general(rng: &mut StdRng, max_dim: Idx, max_nnz: usize) -> CooMatrix {
    let nr = rng.random_range(1..max_dim);
    let nc = rng.random_range(1..max_dim);
    let nnz = rng.random_range(0..=max_nnz);
    let mut coo = CooMatrix::new(nr, nc);
    for _ in 0..nnz {
        let r = rng.random_range(0..nr);
        let c = rng.random_range(0..nc);
        coo.push(r, c, rng.random_range(-5.0..5.0));
    }
    coo.canonicalize();
    coo
}

fn random_symmetric(rng: &mut StdRng, max_dim: Idx, max_nnz: usize) -> CooMatrix {
    let n = rng.random_range(2..max_dim);
    let mut coo = CooMatrix::new(n, n);
    // Deduplicate positions: duplicate triplets would be summed in an
    // unspecified order by canonicalize, so the two mirror images could
    // round differently and break exact symmetry.
    let mut seen = std::collections::HashSet::new();
    for _ in 0..rng.random_range(0..=max_nnz) {
        let r = rng.random_range(0..n);
        let c = rng.random_range(0..n);
        let v = rng.random_range(-5.0..5.0);
        if c <= r && v != 0.0 && seen.insert((r, c)) {
            coo.push(r, c, v);
            if c < r {
                coo.push(c, r, v);
            }
        }
    }
    coo.canonicalize();
    coo
}

#[test]
fn csr_spmv_matches_dense() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000 + case);
        let coo = random_general(&mut rng, 40, 200);
        let d = DenseMatrix::from_coo(&coo);
        let csr = symspmv_sparse::CsrMatrix::from_coo(&coo);
        let x = symspmv_sparse::dense::seeded_vector(coo.ncols() as usize, 1);
        let mut y1 = vec![0.0; coo.nrows() as usize];
        let mut y2 = vec![0.0; coo.nrows() as usize];
        d.matvec(&x, &mut y1);
        csr.spmv(&x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-10, "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn sss_round_trip_and_spmv() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2000 + case);
        let coo = random_symmetric(&mut rng, 40, 200);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        assert_eq!(sss.to_full_coo(), coo, "case {case}");

        let n = coo.nrows() as usize;
        let x = symspmv_sparse::dense::seeded_vector(n, 2);
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        coo.spmv_reference(&x, &mut y1);
        sss.spmv(&x, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-10, "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn matrix_market_round_trip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3000 + case);
        let coo = random_general(&mut rng, 40, 150);
        let mut buf = Vec::new();
        mm::write_matrix_market(&mut buf, &coo, false).unwrap();
        let (back, _) = mm::read_matrix_market(&buf[..]).unwrap();
        assert_eq!(back, coo, "case {case}");
    }
}

#[test]
fn matrix_market_symmetric_round_trip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4000 + case);
        let coo = random_symmetric(&mut rng, 40, 150);
        let mut buf = Vec::new();
        mm::write_matrix_market(&mut buf, &coo, true).unwrap();
        let (back, hdr) = mm::read_matrix_market(&buf[..]).unwrap();
        assert_eq!(hdr.symmetry, mm::MmSymmetry::Symmetric, "case {case}");
        assert_eq!(back, coo, "case {case}");
    }
}

#[test]
fn permutation_inverse_composes() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5000 + case);
        let n = rng.random_range(1u32..60);
        // Fisher-Yates from the seeded stream.
        let mut map: Vec<Idx> = (0..n).collect();
        for i in (1..n as usize).rev() {
            let j = rng.random_range(0..=i);
            map.swap(i, j);
        }
        let p = Permutation::from_map(map).unwrap();
        assert_eq!(
            p.then(&p.inverse()),
            Permutation::identity(n),
            "case {case}"
        );
        assert_eq!(p.inverse().inverse(), p, "case {case}");
    }
}

#[test]
fn canonicalize_idempotent() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6000 + case);
        let coo = random_general(&mut rng, 40, 200);
        let mut once = coo.clone();
        once.canonicalize();
        let mut twice = once.clone();
        twice.canonicalize();
        assert_eq!(once, twice, "case {case}");
    }
}

/// The axiom the SSS kernels index by: whatever order and multiplicity the
/// triplets arrive in, every stored row `r` holds strictly ascending
/// columns below `r`, and the row pointers tile the column array. Each
/// lower coordinate is split into two duplicates (a two-term sum is the
/// same in either order, so the mirrors still match) and the whole triplet
/// list is shuffled.
#[test]
fn sss_rows_are_strictly_lower_and_ascending_for_every_kind() {
    for case in 0..CASES {
        for kind in SymmetryKind::ALL {
            let mut rng = StdRng::seed_from_u64(0x7000 + case);
            let n: Idx = rng.random_range(1..40);
            let mut lower = std::collections::BTreeSet::new();
            let mut triplets = Vec::new();
            for _ in 0..rng.random_range(0..=200) {
                let (r, c) = (rng.random_range(0..n), rng.random_range(0..n));
                let (r, c) = (r.max(c), r.min(c));
                let halves = [rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)];
                if r == c {
                    if !kind.requires_zero_diagonal() {
                        triplets.extend(halves.map(|v| (r, r, v)));
                    }
                } else if lower.insert((r, c)) {
                    for v in halves {
                        let u = rng.random_range(-5.0..5.0);
                        triplets.push((r, c, v));
                        triplets.push((c, r, kind.transposed(v, u)));
                    }
                }
            }
            for i in (1..triplets.len()).rev() {
                triplets.swap(i, rng.random_range(0..=i));
            }
            let (rows, (cols, vals)): (Vec<Idx>, (Vec<Idx>, Vec<f64>)) =
                triplets.into_iter().map(|(r, c, v)| (r, (c, v))).unzip();
            let coo = CooMatrix::from_triplets(n, n, rows, cols, vals).unwrap();
            let sss = SssMatrix::try_from_coo_kind(&coo, kind, 0.0).unwrap();

            let (rowptr, colind) = (sss.rowptr(), sss.colind());
            let what = format!("case {case}, {kind:?}");
            assert_eq!(rowptr.len(), n as usize + 1, "{what}");
            assert_eq!(rowptr[0], 0, "{what}");
            assert!(rowptr.windows(2).all(|w| w[0] <= w[1]), "{what}: rowptr");
            assert_eq!(rowptr[n as usize] as usize, colind.len(), "{what}");
            let mut stored = Vec::new();
            for r in 0..n {
                let cols = sss.row(r).0;
                assert!(cols.iter().all(|&c| c < r), "{what}: row {r} {cols:?}");
                assert!(
                    cols.windows(2).all(|w| w[0] < w[1]),
                    "{what}: row {r} {cols:?}"
                );
                stored.extend(cols.iter().map(|&c| (r, c)));
            }
            assert_eq!(stored, lower.into_iter().collect::<Vec<_>>(), "{what}");
        }
    }
}
