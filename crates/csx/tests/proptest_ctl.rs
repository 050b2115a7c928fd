//! Randomized tests for the ctl encode/decode pipeline.
//!
//! Formerly proptest-based; now driven by the workspace's own seeded
//! [`StdRng`] so the coverage survives without external crates and every
//! case is exactly reproducible from its loop index.

use symspmv_csx::detect::DetectConfig;
use symspmv_csx::encode::encode_coo;
use symspmv_csx::matrix::CsxMatrix;
use symspmv_csx::rows::RowView;
use symspmv_sparse::rng::StdRng;
use symspmv_sparse::{CooMatrix, CsrMatrix, Idx};

const CASES: u64 = 64;

/// Random sparse pattern in a (rows × cols) box, with values keyed to the
/// coordinates so misplaced values are detected.
fn random_coo(rng: &mut StdRng, max_dim: Idx, max_nnz: usize) -> CooMatrix {
    let nr = rng.random_range(2..max_dim);
    let nc = rng.random_range(2..max_dim);
    let mut coo = CooMatrix::new(nr, nc);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..rng.random_range(0..=max_nnz) {
        let r = rng.random_range(0..nr);
        let c = rng.random_range(0..nc);
        if seen.insert((r, c)) {
            coo.push(r, c, (r as f64) * 1e4 + c as f64 + 0.5);
        }
    }
    coo.canonicalize();
    coo
}

fn configs() -> Vec<DetectConfig> {
    vec![
        DetectConfig::default(),
        DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        },
        DetectConfig {
            min_run_len: 2,
            min_coverage: 0.0,
            ..DetectConfig::default()
        },
        DetectConfig {
            candidate_families: vec![],
            ..DetectConfig::default()
        },
        DetectConfig {
            col_split: Some(7),
            min_coverage: 0.0,
            ..DetectConfig::default()
        },
    ]
}

#[test]
fn encode_decode_round_trip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x10_0000 + case);
        let coo = random_coo(&mut rng, 80, 300);
        for cfg in configs() {
            let stream = encode_coo(&coo, &cfg);
            assert_eq!(stream.values.len(), coo.nnz(), "case {case}");
            let mut decoded = stream.decode_elements();
            decoded.sort_unstable_by_key(|&(r, c, _)| (r, c));
            let original: Vec<(Idx, Idx, f64)> = coo.iter().collect();
            assert_eq!(decoded, original, "case {case}");
        }
    }
}

#[test]
fn spmv_equals_reference() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x20_0000 + case);
        let coo = random_coo(&mut rng, 60, 250);
        let x = symspmv_sparse::dense::seeded_vector(coo.ncols() as usize, 5);
        let mut y_ref = vec![0.0; coo.nrows() as usize];
        coo.spmv_reference(&x, &mut y_ref);
        for cfg in configs() {
            let m = CsxMatrix::from_coo(&coo, &cfg);
            let mut y = vec![0.0; coo.nrows() as usize];
            m.spmv(&x, &mut y);
            for (a, b) in y.iter().zip(&y_ref) {
                assert!((a - b).abs() < 1e-9, "case {case}: {a} vs {b}");
            }
        }
    }
}

#[test]
fn size_never_exceeds_coo_equivalent() {
    // CSX can always fall back to delta units; its size must stay below
    // a 16-byte-per-element COO bound plus small per-row overhead.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x30_0000 + case);
        let coo = random_coo(&mut rng, 60, 250);
        let cfg = DetectConfig::default();
        let stream = encode_coo(&coo, &cfg);
        let bound = 16 * coo.nnz() + 8 * coo.nrows() as usize + 64;
        assert!(
            stream.size_bytes() <= bound,
            "case {case}: {} bytes for {} nnz",
            stream.size_bytes(),
            coo.nnz()
        );
    }
}

#[test]
fn col_split_never_straddled() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x40_0000 + case);
        let coo = random_coo(&mut rng, 60, 250);
        let split = rng.random_range(1u32..60);
        let cfg = DetectConfig {
            col_split: Some(split),
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        let csr = CsrMatrix::from_coo(&coo);
        let view = RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind());
        let det = symspmv_csx::detect::analyze(view, &cfg);
        for inst in &det.instances {
            let lo = inst.elements().any(|(_, c)| c < split);
            let hi = inst.elements().any(|(_, c)| c >= split);
            assert!(
                !(lo && hi),
                "case {case}: instance {inst:?} straddles {split}"
            );
        }
    }
}

/// Every consumer of the shared unit-head cursor must see the same stream:
/// a unit vector `e_c` makes `spmv_stream`'s output name, by row and value,
/// the elements it visited in column `c`.
#[test]
fn walk_and_spmv_stream_decode_the_same_elements() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x50_0000 + case);
        let coo = random_coo(&mut rng, 60, 250);
        for cfg in configs() {
            let stream = encode_coo(&coo, &cfg);
            let mut walked = stream.decode_elements();
            walked.sort_unstable_by_key(|&(r, c, _)| (c, r));
            let mut multiplied = Vec::new();
            for c in 0..coo.ncols() {
                let mut x = vec![0.0; coo.ncols() as usize];
                x[c as usize] = 1.0;
                let mut y = vec![0.0; coo.nrows() as usize];
                symspmv_csx::matrix::spmv_stream(&stream, &x, &mut y);
                let hit = y.iter().enumerate().filter(|(_, &v)| v != 0.0);
                multiplied.extend(hit.map(|(r, &v)| (r as Idx, c, v)));
            }
            assert_eq!(multiplied, walked, "case {case}");
        }
    }
}
