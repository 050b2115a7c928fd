//! Randomized tests for the ctl encode/decode pipeline.
//!
//! Formerly proptest-based; now driven by the workspace's own seeded
//! [`StdRng`] so the coverage survives without external crates and every
//! case is exactly reproducible from its loop index.

use symspmv_csx::detect::DetectConfig;
use symspmv_csx::encode::{encode_coo, encode_rows, CtlStream};
use symspmv_csx::matrix::CsxMatrix;
use symspmv_csx::pattern::PatternKind;
use symspmv_csx::rows::RowView;
use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
use symspmv_sparse::rng::StdRng;
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::{CooMatrix, CsrMatrix, Idx, SssMatrix};

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
            block_shapes: vec![],
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
            assert_eq!(stream.values().len(), coo.nnz(), "case {case}");
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

/// A second value array handed to the encoder is written in the stream's
/// order: entry by entry it pairs with the stream value of the same entry,
/// under every configuration, for whole matrices and row chunks alike.
#[test]
fn paired_values_follow_the_stream_order() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x60_0000 + case);
        let coo = random_coo(&mut rng, 60, 250);
        let csr = CsrMatrix::from_coo(&coo);
        let paired: Vec<f64> = csr.values().iter().map(|v| -2.0 * v).collect();
        let rows = RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind());
        let half = coo.nrows() / 2;
        for view in [rows, rows.slice(0..half), rows.slice(half..coo.nrows())] {
            for cfg in configs() {
                let encoded = encode_rows(view, &cfg, csr.values(), Some(&paired));
                let (values, upper) = (encoded.stream.values(), &encoded.upper_values);
                assert_eq!(values.len(), view.nnz(), "case {case}");
                assert_eq!(upper.len(), values.len(), "case {case}");
                for (v, u) in values.iter().zip(upper) {
                    assert_eq!(*u, -2.0 * v, "case {case}");
                }
                let alone = encode_rows(view, &cfg, csr.values(), None);
                assert_eq!(alone.stream, encoded.stream, "case {case}");
                assert!(alone.upper_values.is_empty(), "case {case}");
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
        // A block unit's elements: its blocks, `R·C` each, then any
        // triangle, which is shorter than one block.
        let mut blocks = Vec::new();
        let mut elements = Vec::new();
        let stream = encode_coo(&coo, &cfg);
        stream.walk(
            |u| {
                if let Some(PatternKind::Block { rows, cols }) = u.kind {
                    let len = u32::from(rows) * u32::from(cols);
                    blocks.push((elements.len(), len, u.elements / len));
                }
                elements.push(u.elements);
            },
            |_, _, _| {},
        );
        let cols: Vec<Idx> = stream.decode_elements().iter().map(|e| e.1).collect();
        for (unit, len, count) in blocks {
            let start: u32 = elements[..unit].iter().sum();
            for b in 0..count {
                let at = (start + b * len) as usize;
                let block = &cols[at..at + len as usize];
                let lo = block.iter().any(|&c| c < split);
                let hi = block.iter().any(|&c| c >= split);
                assert!(
                    !(lo && hi),
                    "case {case}: block {block:?} straddles {split}"
                );
            }
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

/// A random matrix of `kind` with a random strict lower triangle: each
/// mirror follows the kind (a distinct upper value for `Structural`), and
/// the diagonal is set unless the kind forbids it.
fn random_of_kind(rng: &mut StdRng, kind: SymmetryKind) -> CooMatrix {
    let n = rng.random_range(2..80);
    let mut coo = CooMatrix::new(n, n);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..rng.random_range(0..=400) {
        let r = rng.random_range(1..n);
        let c = rng.random_range(0..r);
        if seen.insert((r, c)) {
            let v = f64::from(r) * 1e3 + f64::from(c) + 0.5;
            coo.push(r, c, v);
            coo.push(c, r, kind.transposed(v, -0.25 * v));
        }
    }
    if !kind.requires_zero_diagonal() {
        (0..n).for_each(|i| coo.push(i, i, 1.0));
    }
    coo
}

/// `stream` holds `ctl-bound` with first row `first_row`: the checked walk
/// of its bytes rebuilds it, recorded bounds included; the bounds are the
/// tight hull of its elements; its unit sizes cover its values; and its
/// legal split, when it has one, is straddled by no substructure unit.
fn assert_ctl_bound(stream: &CtlStream, first_row: usize, what: &str) {
    let rebuilt = CtlStream::validated(stream.ctl().to_vec(), stream.values().to_vec(), first_row);
    assert_eq!(rebuilt.as_ref(), Ok(stream), "{what}");
    let mut units = Vec::new();
    let mut elements = Vec::new();
    stream.walk(
        |u| units.push((u.kind.is_some(), u.elements as usize)),
        |r, c, _| elements.push((r as usize, c as usize)),
    );
    assert_eq!(
        units.iter().map(|u| u.1).sum::<usize>(),
        stream.values().len(),
        "{what}"
    );
    let row_end = elements.iter().map(|e| e.0 + 1).max().unwrap_or(first_row);
    let col_end = elements.iter().map(|e| e.1 + 1).max().unwrap_or(0);
    assert!(elements.iter().all(|e| e.0 >= first_row), "{what}");
    assert_eq!(
        (stream.row_end(), stream.col_end()),
        (row_end, col_end),
        "{what}"
    );
    if let Some(split) = stream.legal_split() {
        assert_eq!(split, first_row, "{what}");
        let mut at = 0;
        for (substructure, size) in units {
            let cols = elements[at..at + size].iter().map(|e| e.1);
            at += size;
            let (lo, hi) = (cols.clone().min(), cols.max());
            assert!(
                !(substructure && lo < Some(split) && Some(split) <= hi),
                "{what}"
            );
        }
    }
}

/// Random encodes of all three symmetry kinds — the strict lower triangle
/// whole and chunked as CSX-Sym chunks it, under every configuration, with
/// the structural kind's second value array — hold `ctl-bound`; a chunk
/// encoded with its partition start as the column split keeps that split
/// legal.
#[test]
fn random_encodes_of_every_kind_hold_ctl_bound() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x70_0000 + case);
        for kind in SymmetryKind::ALL {
            let sss = SssMatrix::from_coo_kind(&random_of_kind(&mut rng, kind), kind, 0.0).unwrap();
            let upper = kind.has_upper_values().then(|| sss.upper_values());
            let whole = RowView::of_sss(&sss);
            for p in [1, 2, 3] {
                for part in balanced_ranges(&symmetric_row_weights(sss.rowptr()), p) {
                    let view = whole.slice(part.start..part.end);
                    for cfg in configs() {
                        let what = format!("case {case}, {kind:?}, p {p}, {part:?}, {cfg:?}");
                        let encoded = encode_rows(view, &cfg, sss.values(), upper);
                        let first = part.start as usize;
                        assert_ctl_bound(&encoded.stream, first, &what);
                        assert_eq!(encoded.upper_values.len(), upper.map_or(0, |_| view.nnz()));
                        let split = DetectConfig {
                            col_split: Some(part.start),
                            ..cfg
                        };
                        let chunk = encode_rows(view, &split, sss.values(), upper).stream;
                        assert_ctl_bound(&chunk, first, &what);
                        assert_eq!(chunk.legal_split(), Some(first), "{what}");
                    }
                }
            }
        }
    }
}

/// Block-structural matrices of 2, 3 and 4 degrees of freedom per node —
/// rows of same-shape blocks, which the encoder folds into grouped block
/// units — hold `ctl-bound` whole and chunked, under every configuration;
/// the default one groups blocks somewhere (fewer heads than instances
/// plus delta units).
#[test]
fn block_structural_encodes_hold_ctl_bound() {
    for case in 0..CASES / 4 {
        let mut rng = StdRng::seed_from_u64(0x80_0000 + case);
        for dof in [2, 3, 4] {
            let nodes = rng.random_range(12..40);
            let mut grouped = false;
            let coo = symspmv_sparse::gen::block_structural(nodes, dof, 6.0, 8, case);
            let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
            let whole = RowView::of_sss(&sss);
            for p in [1, 2, 3] {
                for part in balanced_ranges(&symmetric_row_weights(sss.rowptr()), p) {
                    let view = whole.slice(part.start..part.end);
                    for (i, cfg) in configs().into_iter().enumerate() {
                        let what = format!("case {case}, dof {dof}, p {p}, {part:?}, {cfg:?}");
                        let split = DetectConfig {
                            col_split: Some(part.start),
                            ..cfg
                        };
                        let encoded = encode_rows(view, &split, sss.values(), None);
                        assert_ctl_bound(&encoded.stream, part.start as usize, &what);
                        assert_eq!(encoded.stream.legal_split(), Some(part.start as usize));
                        let heads = encoded.substructure_units + encoded.delta_units;
                        assert!(encoded.units <= heads, "{what}");
                        grouped |= i == 0 && encoded.units < heads;
                    }
                }
            }
            assert!(grouped, "case {case}, dof {dof}: no block grouped");
        }
    }
}

/// CSX-Sym chunks of 3-dof block-structural matrices whose first row lies at
/// each offset inside a block row — each balanced partition at `P = 1, 2, 3`
/// started at the first, second and third row of its block row — hold
/// `ctl-bound`, keep their split legal and decode to their rows' entries.
#[test]
fn chunks_starting_inside_a_block_row_hold_ctl_bound() {
    for case in 0..CASES / 4 {
        let mut rng = StdRng::seed_from_u64(0x90_0000 + case);
        let coo = symspmv_sparse::gen::block_structural(rng.random_range(12..40), 3, 6.0, 8, case);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let whole = RowView::of_sss(&sss);
        for p in [1, 2, 3] {
            for part in balanced_ranges(&symmetric_row_weights(sss.rowptr()), p) {
                for offset in 0..3 {
                    let start = (part.start / 3 * 3 + offset).min(part.end);
                    let what = format!("case {case}, p {p}, rows {start}..{}", part.end);
                    let view = whole.slice(start..part.end);
                    let cfg = DetectConfig {
                        col_split: Some(start),
                        ..DetectConfig::default()
                    };
                    let encoded = encode_rows(view, &cfg, sss.values(), None);
                    assert_ctl_bound(&encoded.stream, start as usize, &what);
                    assert_eq!(encoded.stream.legal_split(), Some(start as usize), "{what}");
                    let mut decoded = encoded.stream.decode_elements();
                    decoded.sort_unstable_by_key(|&(r, c, _)| (r, c));
                    let rows = (start..part.end).flat_map(|r| {
                        let entries = view.row(r);
                        let (cols, vals) = (&sss.colind()[entries.clone()], &sss.values()[entries]);
                        cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
                    });
                    assert_eq!(decoded, rows.collect::<Vec<_>>(), "{what}");
                }
            }
        }
    }
}
