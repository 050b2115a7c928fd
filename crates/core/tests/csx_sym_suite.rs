//! CSX-Sym encoding on the suite analogs: coverage where the paper has it,
//! and a differential of every chunk against the SSS rows it was encoded
//! from.

use symspmv_core::CsxSymMatrix;
use symspmv_csx::detect::DetectConfig;
use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
use symspmv_sparse::suite::{self, StructureClass, SuiteSpec};
use symspmv_sparse::{Idx, SssMatrix, Val};

fn sss_of(spec: &SuiteSpec, scale: f64) -> SssMatrix {
    let coo = suite::generate(spec, scale).coo;
    SssMatrix::from_coo_kind(&coo, spec.kind, 0.0).expect("suite analogs satisfy their kind")
}

fn encode(sss: &SssMatrix, p: usize) -> CsxSymMatrix {
    let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
    CsxSymMatrix::from_sss(sss, &parts, &DetectConfig::default())
}

/// The paper reports ~90 % of the non-zeros of its structural matrices in
/// substructure units. The statistics pass must find the 3 × 3 blocks of the
/// seven block-structural analogs, in every partition, and enable nothing on
/// the scattered ones (where any family it enabled would only fragment the
/// delta units).
#[test]
fn coverage_follows_the_structure_class() {
    let mut blocky = 0;
    for spec in &suite::SUITE {
        let floor = match (spec.class, spec.name) {
            // 1 278 rows at 222 non-zeros each: rows dense enough that long
            // runs, taken first, fragment part of the blocks (0.84; 0.97
            // from scale 0.1).
            (StructureClass::BlockStructural { .. }, "crankseg_2") => 0.80,
            (StructureClass::BlockStructural { .. }, _) => 0.90,
            _ => continue,
        };
        blocky += 1;
        let sss = sss_of(spec, 0.02);
        for p in [1, 2, 4] {
            let m = encode(&sss, p);
            let (name, coverage) = (spec.name, m.coverage());
            assert!(coverage >= floor, "{name} p={p}: coverage {coverage}");
            // No partition may fall behind the others (one that missed the
            // sample altogether would read 0).
            for chunk in m.chunks() {
                let (part, coverage) = (chunk.part, chunk.coverage);
                assert!(
                    coverage >= floor - 0.05,
                    "{name} p={p} {part:?}: coverage {coverage}"
                );
            }
        }
    }
    assert_eq!(blocky, 7);

    let min_coverage = DetectConfig::default().min_coverage;
    for name in ["parabolic_fem", "offshore", "G3_circuit", "thermal2"] {
        let spec = suite::spec_by_name(name).expect("a Table I name");
        let sss = sss_of(spec, 0.02);
        for p in [1, 2, 4] {
            let coverage = encode(&sss, p).coverage();
            assert!(coverage < min_coverage, "{name} p={p}: coverage {coverage}");
        }
    }
}

/// Every chunk decodes to exactly its partition's SSS rows — each
/// `(row, col)` once, with its lower value and, for the structural kind, its
/// paired upper value at the same stream position — and passes the
/// boundary-rule certificate.
#[test]
fn chunks_decode_to_their_sss_rows() {
    for spec in suite::SUITE.iter().chain(&suite::KIND_SUITE) {
        let sss = sss_of(spec, 0.004);
        for p in [1, 2, 3, 8] {
            let m = encode(&sss, p);
            let parts: Vec<_> = m.chunks().iter().map(|c| c.part).collect();
            for chunk in m.chunks() {
                let paired = chunk.paired_values();
                assert_eq!(paired.len(), chunk.stream.values.len());
                assert_eq!(
                    chunk.upper_values.is_empty(),
                    !sss.kind().has_upper_values()
                );
                let mut decoded: Vec<(Idx, Idx, u64, u64)> = Vec::new();
                chunk.stream.walk(
                    |_| {},
                    |r, c, v| decoded.push((r, c, v.to_bits(), paired[decoded.len()].to_bits())),
                );
                decoded.sort_unstable();
                let mut rows: Vec<(Idx, Idx, u64, u64)> = Vec::new();
                for r in chunk.part.start..chunk.part.end {
                    let (cols, vals, pair): (&[Idx], &[Val], &[Val]) = sss.row_with_paired(r);
                    let entries = cols.iter().zip(vals).zip(pair);
                    rows.extend(entries.map(|((&c, v), u)| (r, c, v.to_bits(), u.to_bits())));
                }
                assert_eq!(decoded, rows, "{} p={p} {:?}", spec.name, chunk.part);
            }
            let streams = m.chunks().iter().map(|c| &c.stream);
            symspmv_verify::certify_csx_chunks(
                streams,
                &parts,
                sss.fingerprint(),
                sss.n(),
                sss.kind(),
            )
            .unwrap_or_else(|e| panic!("{} p={p}: {e}", spec.name));
        }
    }
}
