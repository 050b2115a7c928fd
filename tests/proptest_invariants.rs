//! Randomized invariants over the whole stack.
//!
//! Formerly proptest-based; now driven by the workspace's own seeded
//! [`StdRng`] so the property coverage survives without external crates
//! and every case is exactly reproducible from its loop index.

use symspmv::core::{ParallelSpmv, ReductionMethod, SymFormat, SymSpmv};
use symspmv::csx::detect::DetectConfig;
use symspmv::csx::CsxMatrix;
use symspmv::reorder::rcm::rcm_permutation;
use symspmv::runtime::ExecutionContext;
use symspmv::sparse::rng::StdRng;
use symspmv::sparse::{CooMatrix, CsrMatrix, Permutation, SssMatrix};

const CASES: u64 = 48;

/// A random symmetric SPD matrix: diagonally dominated full symmetrization
/// of a random strictly-lower pattern.
fn sym_matrix(rng: &mut StdRng) -> CooMatrix {
    let n = rng.random_range(4u32..60);
    let mut lower = CooMatrix::new(n, n);
    for _ in 0..rng.random_range(0usize..160) {
        let r = rng.random_range(0..n);
        let c = rng.random_range(0..n);
        if c < r {
            lower.push(r, c, rng.random_range(-1.0..-0.01));
        }
    }
    lower.canonicalize();
    symspmv::sparse::gen::spd_from_lower(&lower, 1.0)
}

fn vec_for(n: usize, seed: u64) -> Vec<f64> {
    symspmv::sparse::dense::seeded_vector(n, seed)
}

#[test]
fn all_kernels_agree_with_reference() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA000 + case);
        let coo = sym_matrix(&mut rng);
        let p = rng.random_range(1usize..5);
        let ctx = ExecutionContext::new(p);
        let n = coo.nrows() as usize;
        let x = vec_for(n, 11);
        let mut y_ref = vec![0.0; n];
        coo.spmv_reference(&x, &mut y_ref);

        let cfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        for method in [
            ReductionMethod::Naive,
            ReductionMethod::EffectiveRanges,
            ReductionMethod::Indexing,
        ] {
            for format in [SymFormat::Sss, SymFormat::CsxSym(cfg.clone())] {
                let mut k = SymSpmv::from_coo(&coo, &ctx, method, format).unwrap();
                let mut y = vec![f64::NAN; n];
                k.spmv(&x, &mut y);
                for (a, b) in y.iter().zip(&y_ref) {
                    assert!(
                        (a - b).abs() < 1e-10,
                        "case {case}, {}: {a} vs {b}",
                        k.name()
                    );
                }
            }
        }
    }
}

#[test]
fn csr_sss_csx_round_trips() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB000 + case);
        let coo = sym_matrix(&mut rng);
        let mut canon = coo.clone();
        canon.canonicalize();
        // COO -> CSR -> COO
        assert_eq!(CsrMatrix::from_coo(&coo).to_coo(), canon, "case {case}");
        // COO -> SSS -> COO
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        assert_eq!(sss.to_full_coo(), canon, "case {case}");
        // COO -> CSX -> COO
        let cfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        assert_eq!(
            CsxMatrix::from_coo(&coo, &cfg).to_coo(),
            canon,
            "case {case}"
        );
    }
}

#[test]
fn rcm_is_a_bijection_and_preserves_spmv() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC000 + case);
        let coo = sym_matrix(&mut rng);
        let n = coo.nrows();
        let p = rcm_permutation(&coo).unwrap();
        assert_eq!(
            p.then(&p.inverse()),
            Permutation::identity(n),
            "case {case}"
        );

        let reordered = p.apply_symmetric(&coo).unwrap();
        let x = vec_for(n as usize, 3);
        let mut ax = vec![0.0; n as usize];
        let mut c = coo.clone();
        c.canonicalize();
        c.spmv_reference(&x, &mut ax);
        let px = p.apply_vec(&x);
        let mut papx = vec![0.0; n as usize];
        reordered.spmv_reference(&px, &mut papx);
        let pax = p.apply_vec(&ax);
        for (a, b) in papx.iter().zip(&pax) {
            assert!((a - b).abs() < 1e-10, "case {case}");
        }
    }
}

#[test]
fn conflict_index_is_exact() {
    // The symbolic index must contain exactly the (vid, idx) pairs the
    // multiply phase writes to local vectors.
    use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD000 + case);
        let coo = sym_matrix(&mut rng);
        let p = rng.random_range(2usize..6);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
        let ci = symspmv::core::symbolic::analyze(&sss, &parts);

        let mut expected = std::collections::BTreeSet::new();
        for (i, part) in parts.iter().enumerate() {
            for r in part.start..part.end {
                let (cols, _) = sss.row(r);
                for &c in cols {
                    if c < part.start {
                        expected.insert((i as u32, c));
                    }
                }
            }
        }
        let got: std::collections::BTreeSet<(u32, u32)> =
            ci.entries.iter().map(|e| (e.vid, e.idx)).collect();
        // Entries are keyed (idx, vid) but as a set they must match.
        assert_eq!(got, expected, "case {case}");
    }
}

#[test]
fn varint_round_trip() {
    use symspmv::csx::varint::{read_varint, write_varint};
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE000 + case);
        let vals: Vec<u64> = (0..rng.random_range(0usize..40))
            .map(|_| {
                // Mix full-range and small values to hit every width class.
                let raw = rng.random::<u64>();
                raw >> (rng.random_range(0u32..64))
            })
            .collect();
        let mut buf = Vec::new();
        for &v in &vals {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_varint(&buf, &mut pos), v, "case {case}");
        }
        assert_eq!(pos, buf.len(), "case {case}");
    }
}
