//! CSX-Sym boundary-rule certification (§IV-B).
//!
//! CSX-Sym encodes each thread's chunk of the strict lower triangle as one
//! ctl stream; a substructure unit is executed as a single uninterruptible
//! run whose transposed writes all go through the *same* pointer — the
//! thread's private local vector when the target column is left of the
//! chunk's split, the shared `y` when it is right of it. A pattern whose
//! elements fall on *both* sides would need to switch pointers mid-unit,
//! which the kernel does not do: the encoder must leave such blocks to
//! delta units. The checker walks every stream and proves no encoded
//! pattern straddles its chunk's local-vs-direct boundary, and that every
//! write target stays inside the chunk's declared footprint.

use crate::certificate::{ProofForm, RaceCertificate};
use crate::error::VerifyError;
use symspmv_csx::encode::CtlStream;
use symspmv_runtime::Range;
use symspmv_sparse::symmetry::SymmetryKind;

/// Verifies one chunk's stream against its row partition.
///
/// `part.start` doubles as the chunk's local/direct column split, exactly
/// as `CsxSymMatrix::from_sss` configures the detector.
pub fn certify_csx_chunk(stream: &CtlStream, part: Range, tid: usize) -> Result<(), VerifyError> {
    let split = part.start;
    // Re-associate elements with their units by walking both callbacks and
    // counting off each unit's elements.
    let mut units: Vec<(bool, u32, u32, u32)> = Vec::new(); // (is_pattern, size, row, col)
    let mut elems: Vec<(u32, u32)> = Vec::new();
    stream.walk(
        |u| units.push((u.kind.is_some(), u.elements, u.row, u.col)),
        |r, c, _| elems.push((r, c)),
    );
    let mut off = 0usize;
    for &(is_pattern, size, urow, ucol) in &units {
        let my = &elems[off..off + size as usize];
        off += size as usize;
        let mut any_local = false;
        let mut any_direct = false;
        for &(r, c) in my {
            if r < part.start || r >= part.end {
                return Err(VerifyError::EscapedWrite { tid, target: r });
            }
            // Transposed write target: the strict-lower column.
            if c < split {
                any_local = true;
            } else {
                any_direct = true;
                if c >= part.end {
                    return Err(VerifyError::EscapedWrite { tid, target: c });
                }
            }
        }
        if is_pattern && any_local && any_direct {
            return Err(VerifyError::StraddlingPattern {
                tid,
                row: urow,
                col: ucol,
                split,
            });
        }
    }
    Ok(())
}

/// Certifies every chunk of a CSX-Sym encoding: row partitions must tile
/// `0..n` (checked by the caller via [`crate::certify_sym`] on the same
/// partition) and no chunk's stream may violate the boundary rule.
pub fn certify_csx_chunks<'a>(
    streams: impl IntoIterator<Item = &'a CtlStream>,
    parts: &[Range],
    fingerprint: u64,
    n: u32,
    kind: SymmetryKind,
) -> Result<RaceCertificate, VerifyError> {
    let mut count = 0usize;
    for (tid, stream) in streams.into_iter().enumerate() {
        let part = *parts.get(tid).ok_or_else(|| VerifyError::MalformedPlan {
            reason: format!("{} streams but only {} partitions", tid + 1, parts.len()),
        })?;
        certify_csx_chunk(stream, part, tid)?;
        count += 1;
    }
    if count != parts.len() {
        return Err(VerifyError::MalformedPlan {
            reason: format!("{count} streams for {} partitions", parts.len()),
        });
    }
    Ok(RaceCertificate {
        fingerprint,
        n: n as usize,
        nthreads: parts.len(),
        family: "csx-sym".to_string(),
        strategy: String::new(),
        symmetry: kind.tag().to_string(),
        invariants: vec!["csx-boundary".to_string(), "disjoint-direct".to_string()],
        direct_rows: n as usize,
        local_elems: parts.iter().map(|r| r.start as usize).sum(),
        conflict_entries: 0,
        lanes: 1,
        proof: ProofForm::Enumerative,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_csx::encode::encode_coo;
    use symspmv_csx::DetectConfig;
    use symspmv_sparse::CooMatrix;

    /// A 2 × 2 block anchored at `(row, col)`.
    fn block(row: u32, col: u32) -> CooMatrix {
        let mut coo = CooMatrix::new(16, 16);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            coo.push(row + r, col + c, 1.0);
        }
        coo
    }

    #[test]
    fn pattern_across_split_is_straddling() {
        // A 2 × 2 block in rows 8..10 over columns 3..5; with the chunk
        // split at 4 the block's transposed writes land on both sides.
        let coo = block(8, 3);
        let cfg = DetectConfig {
            col_split: None, // encoder unaware of the boundary → illegal unit
            ..DetectConfig::default()
        };
        let stream = encode_coo(&coo, &cfg);
        let part = Range { start: 4, end: 16 };
        let err = certify_csx_chunk(&stream, part, 1).unwrap_err();
        assert!(
            matches!(err, VerifyError::StraddlingPattern { split: 4, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn split_aware_encoding_is_legal() {
        let coo = block(8, 3);
        let cfg = DetectConfig {
            col_split: Some(4), // encoder leaves the block to delta units
            ..DetectConfig::default()
        };
        let stream = encode_coo(&coo, &cfg);
        certify_csx_chunk(&stream, Range { start: 4, end: 16 }, 1).unwrap();
    }

    #[test]
    fn rows_outside_partition_escape() {
        let coo = block(2, 0);
        let stream = encode_coo(&coo, &DetectConfig::default());
        let err = certify_csx_chunk(&stream, Range { start: 4, end: 16 }, 0).unwrap_err();
        assert_eq!(err, VerifyError::EscapedWrite { tid: 0, target: 2 });
    }
}
