//! CSX-Sym — the symmetric CSX variant (§IV-B).
//!
//! CSX-Sym stores the main diagonal densely (`dvalues`, as in SSS) and
//! encodes the strict lower triangle with CSX, *per thread partition*, so
//! each chunk is detected and encoded independently. The one restriction
//! versus plain CSX: a substructure whose transposed writes would be split
//! between the thread's local vector (`c < start_i`) and the shared output
//! vector (`c ≥ start_i`) is not encoded — its elements fall back to delta
//! units. Substructure inner loops therefore never branch on the write
//! target; only delta units pay a per-element check.

use crate::sym::{add_lanes, axpy_lanes};
use symspmv_csx::detect::{analyze, CooIndex, DetectConfig};
use symspmv_csx::encode::{CtlStream, ID_MASK, NR_BIT, RJMP_BIT};
use symspmv_csx::pattern::{DeltaWidth, PatternKind};
use symspmv_csx::varint::read_varint;
use symspmv_runtime::Range;
use symspmv_sparse::symmetry::{SymmetryKind, SymmetryOps};
use symspmv_sparse::{CooMatrix, Idx, SssMatrix, Val};

/// One per-thread chunk: the CSX stream of the partition's lower-triangle
/// rows, encoded with the partition boundary as the legality split.
#[derive(Debug, Clone, PartialEq)]
pub struct CsxSymChunk {
    /// Row partition this chunk covers.
    pub part: Range,
    /// Encoded stream (absolute row/column coordinates).
    pub stream: CtlStream,
    /// For structural symmetry: the upper-triangle values `a_cr`, in the
    /// same stream order as `stream.values` (encoded against the same
    /// detection, so the ctl bytes are shared). Empty for the numeric
    /// kinds, whose mirror is `±v`.
    pub upper_values: Vec<Val>,
    /// Fraction of the chunk's non-zeros covered by substructure units.
    pub coverage: f64,
}

impl CsxSymChunk {
    /// The stream-ordered mirror values: `upper_values` when the matrix is
    /// structurally symmetric, otherwise the stream's own values (the
    /// kernels' `O::transposed` ignores or negates them).
    pub fn paired_values(&self) -> &[Val] {
        if self.upper_values.is_empty() {
            &self.stream.values
        } else {
            &self.upper_values
        }
    }
}

/// A symmetric sparse matrix in the CSX-Sym format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsxSymMatrix {
    n: Idx,
    kind: SymmetryKind,
    dvalues: Vec<Val>,
    chunks: Vec<CsxSymChunk>,
    lower_nnz: usize,
}

impl CsxSymMatrix {
    /// Encodes an SSS matrix into per-partition CSX-Sym chunks. The
    /// matrix's [`SymmetryKind`] carries over; for structural symmetry the
    /// paired upper values are encoded against the *same* detection result
    /// (detection is structure-driven), giving a second stream-ordered
    /// value array under the shared ctl bytes.
    pub fn from_sss(sss: &SssMatrix, parts: &[Range], config: &DetectConfig) -> Self {
        let kind = sss.kind();
        let mut chunks = Vec::with_capacity(parts.len());
        for part in parts {
            // Materialize the partition's strict-lower rows as COO.
            let mut sub = CooMatrix::new(sss.n(), sss.n());
            let mut sub_upper = CooMatrix::new(sss.n(), sss.n());
            for r in part.start..part.end {
                let (cols, vals, pair) = sss.row_with_paired(r);
                for ((&c, &v), &u) in cols.iter().zip(vals).zip(pair) {
                    sub.push(r, c, v);
                    if kind.has_upper_values() {
                        sub_upper.push(r, c, u);
                    }
                }
            }
            sub.canonicalize();
            let cfg = DetectConfig {
                col_split: Some(part.start),
                ..config.clone()
            };
            let det = analyze(&sub, &cfg);
            let coverage = det.coverage();
            let vm = CooIndex::new(&sub);
            let stream = CtlStream::encode(&det, &vm);
            let upper_values = if kind.has_upper_values() {
                sub_upper.canonicalize();
                let vm_upper = CooIndex::new(&sub_upper);
                let upper_stream = CtlStream::encode(&det, &vm_upper);
                // Same coordinates, same detection: only the values differ.
                debug_assert_eq!(upper_stream.ctl, stream.ctl);
                debug_assert_eq!(upper_stream.values.len(), stream.values.len());
                upper_stream.values
            } else {
                Vec::new()
            };
            chunks.push(CsxSymChunk {
                part: *part,
                stream,
                upper_values,
                coverage,
            });
        }
        CsxSymMatrix {
            n: sss.n(),
            kind,
            dvalues: sss.dvalues().to_vec(),
            chunks,
            lower_nnz: sss.lower_nnz(),
        }
    }

    /// The symmetry kind the stored mirror contributions follow.
    pub fn kind(&self) -> SymmetryKind {
        self.kind
    }

    /// Matrix dimension.
    pub fn n(&self) -> Idx {
        self.n
    }

    /// Dense diagonal.
    pub fn dvalues(&self) -> &[Val] {
        &self.dvalues
    }

    /// Per-thread chunks.
    pub fn chunks(&self) -> &[CsxSymChunk] {
        &self.chunks
    }

    /// Strict-lower-triangle non-zero count.
    pub fn lower_nnz(&self) -> usize {
        self.lower_nnz
    }

    /// Non-zeros of the represented full operator, with the diagonal
    /// counted densely (as `dvalues` stores it): `2·lower + N`.
    pub fn full_nnz(&self) -> usize {
        2 * self.lower_nnz + self.n as usize
    }

    /// Bytes of the representation: all ctl streams, all values (incl. the
    /// structural upper array), dvalues.
    pub fn size_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.stream.size_bytes() + 8 * c.upper_values.len())
            .sum::<usize>()
            + 8 * self.n as usize
    }

    /// Compression ratio versus the full-matrix CSR representation
    /// (Table I's "C.R. (CSX-Sym)" column, as a fraction).
    pub fn compression_ratio(&self) -> f64 {
        1.0 - self.size_bytes() as f64 / self.csr_bytes() as f64
    }

    /// The maximum possible symmetric compression ratio: values + dvalues
    /// only, no indexing information (Table I's "C.R. (Max.)").
    pub fn max_compression_ratio(&self) -> f64 {
        let floor = 8 * self.lower_nnz + 8 * self.n as usize;
        1.0 - floor as f64 / self.csr_bytes() as f64
    }

    /// Eq. 1 size of the equivalent full CSR matrix.
    pub fn csr_bytes(&self) -> usize {
        12 * self.full_nnz() + 4 * (self.n as usize + 1)
    }

    /// Mean substructure coverage across chunks (nnz-weighted would need
    /// per-chunk nnz; chunks are nnz-balanced so the plain mean is close).
    pub fn coverage(&self) -> f64 {
        if self.chunks.is_empty() {
            return 0.0;
        }
        self.chunks.iter().map(|c| c.coverage).sum::<f64>() / self.chunks.len() as f64
    }

    /// Serial reference SpMV (`y = A·x`) over all chunks — used by tests
    /// and the single-threaded configurations.
    pub fn spmv_serial(&self, x: &[Val], y: &mut [Val]) {
        let n = self.n as usize;
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        for r in 0..n {
            y[r] = self.dvalues[r] * x[r];
        }
        let kind = self.kind;
        for chunk in &self.chunks {
            // The walk visits elements in stream (values) order, so a
            // running cursor pairs each element with its mirror value.
            let paired = chunk.paired_values();
            let mut j = 0usize;
            chunk.stream.walk(
                |_| {},
                |r, c, v| {
                    let u = paired[j];
                    j += 1;
                    y[r as usize] += v * x[c as usize];
                    y[c as usize] += kind.transposed(v, u) * x[r as usize];
                },
            );
        }
    }
}

/// The symmetric CSX multiply kernel for one chunk, with the split sink,
/// over `K`-lane-interleaved buffers: transposed contributions below
/// `split` go to `local`, everything else to `my_y`, whose element 0 is
/// global row `split`. The stream — the expensive traffic — is decoded once
/// for all lanes, and every lane runs the scalar kernel's exact float
/// sequence.
///
/// The direct-write strategies pass the partition boundary as `split`, with
/// `my_y` the partition's slice of the output vector: all direct writes
/// provably land inside the partition — the row `r` by chunk construction,
/// transposed targets `c ∈ [split, r]` by the legality rule — so the kernel
/// works on plain `&mut` slices and stays safe. The naive method is the
/// `split = 0` case over the thread's private full-length vector, which
/// leaves nothing for `local`.
///
/// `paired` is the stream-ordered mirror-value array
/// ([`CsxSymChunk::paired_values`]); it aliases `stream.values` for the
/// numeric kinds, whose `O::transposed` never reads it.
pub(crate) fn sym_stream<O: SymmetryOps, const K: usize>(
    stream: &CtlStream,
    paired: &[Val],
    x: &[[Val; K]],
    my_y: &mut [[Val; K]],
    split: usize,
    local: &mut [[Val; K]],
) {
    let ctl = &stream.ctl;
    let values = &stream.values;
    let mut pos = 0usize;
    let mut vi = 0usize;
    let mut row: i64 = -1;
    let mut col: Idx = 0;
    while pos < ctl.len() {
        let flags = ctl[pos];
        pos += 1;
        if flags & NR_BIT != 0 {
            let extra = if flags & RJMP_BIT != 0 {
                read_varint(ctl, &mut pos)
            } else {
                0
            };
            row += 1 + extra as i64;
            col = 0;
        }
        let size = usize::from(ctl[pos]);
        pos += 1;
        let ucol = read_varint(ctl, &mut pos) as Idx;
        let anchor = if flags & NR_BIT != 0 {
            ucol
        } else {
            col + ucol
        };
        col = anchor;
        let r = row as usize;
        let id = flags & ID_MASK;

        let unit_vals = &values[vi..vi + size];
        let unit_pair = &paired[vi..vi + size];
        vi += size;
        if let Some(kind) = PatternKind::from_id(id) {
            // Boundary legality (§IV-B): all transposed writes of a
            // substructure land on one side, so the branch hoists out of
            // the inner loops (every element is on the anchor's side).
            let is_local = (anchor as usize) < split;
            debug_assert!({
                let (_, last_c) = kind.element(r as Idx, anchor, size as u32 - 1);
                ((last_c as usize) < split) == is_local
            });
            // One specialized dual-write loop per pattern family — the
            // interpreter stand-in for CSX-Sym's generated kernels.
            macro_rules! run {
                ($next:expr) => {{
                    let mut rr = r;
                    let mut cc = anchor as usize;
                    if is_local {
                        for (&v, &u) in unit_vals.iter().zip(unit_pair) {
                            axpy_lanes(&mut my_y[rr - split], v, &x[cc]);
                            axpy_lanes(&mut local[cc], O::transposed(v, u), &x[rr]);
                            $next(&mut rr, &mut cc);
                        }
                    } else {
                        for (&v, &u) in unit_vals.iter().zip(unit_pair) {
                            axpy_lanes(&mut my_y[rr - split], v, &x[cc]);
                            axpy_lanes(&mut my_y[cc - split], O::transposed(v, u), &x[rr]);
                            $next(&mut rr, &mut cc);
                        }
                    }
                }};
            }
            match kind {
                PatternKind::Horizontal { delta } => {
                    let d = delta as usize;
                    run!(|_rr: &mut usize, cc: &mut usize| *cc += d);
                }
                PatternKind::Vertical { delta } => {
                    let d = delta as usize;
                    run!(|rr: &mut usize, _cc: &mut usize| *rr += d);
                }
                PatternKind::Diagonal { delta } => {
                    let d = delta as usize;
                    run!(|rr: &mut usize, cc: &mut usize| {
                        *rr += d;
                        *cc += d;
                    });
                }
                PatternKind::AntiDiagonal { delta } => {
                    let d = delta as usize;
                    run!(|rr: &mut usize, cc: &mut usize| {
                        *rr += d;
                        *cc = cc.wrapping_sub(d);
                    });
                }
                PatternKind::Block { rows: 3, cols: 3 } => {
                    // The dominant pattern on 3-dof structural matrices —
                    // fully unrolled.
                    let base = anchor as usize;
                    let (x0, x1, x2) = (&x[base], &x[base + 1], &x[base + 2]);
                    let mut t = [[0.0; K]; 3];
                    for ((br, v), u) in unit_vals
                        .chunks_exact(3)
                        .enumerate()
                        .zip(unit_pair.chunks_exact(3))
                    {
                        let rr = r + br;
                        let xr = &x[rr];
                        let yr = &mut my_y[rr - split];
                        for j in 0..K {
                            yr[j] += v[0] * x0[j] + v[1] * x1[j] + v[2] * x2[j];
                            t[0][j] += O::transposed(v[0], u[0]) * xr[j];
                            t[1][j] += O::transposed(v[1], u[1]) * xr[j];
                            t[2][j] += O::transposed(v[2], u[2]) * xr[j];
                        }
                    }
                    let side = if is_local {
                        &mut local[base..base + 3]
                    } else {
                        &mut my_y[base - split..base - split + 3]
                    };
                    for (dst, ti) in side.iter_mut().zip(&t) {
                        add_lanes(dst, ti);
                    }
                }
                PatternKind::Block { rows: _, cols } => {
                    let bc = cols as usize;
                    let base = anchor as usize;
                    for ((br, row_vals), row_pair) in unit_vals
                        .chunks_exact(bc)
                        .enumerate()
                        .zip(unit_pair.chunks_exact(bc))
                    {
                        let rr = r + br;
                        let xr = &x[rr];
                        let mut acc = [0.0; K];
                        if is_local {
                            for (j, (&v, &u)) in row_vals.iter().zip(row_pair).enumerate() {
                                axpy_lanes(&mut acc, v, &x[base + j]);
                                axpy_lanes(&mut local[base + j], O::transposed(v, u), xr);
                            }
                        } else {
                            for (j, (&v, &u)) in row_vals.iter().zip(row_pair).enumerate() {
                                axpy_lanes(&mut acc, v, &x[base + j]);
                                axpy_lanes(&mut my_y[base + j - split], O::transposed(v, u), xr);
                            }
                        }
                        add_lanes(&mut my_y[rr - split], &acc);
                    }
                }
            }
        } else {
            // Delta unit: per-element side check, slice-based decode.
            let width = PatternKind::delta_width_from_id(id)
                .unwrap_or_else(|| unreachable!("invalid pattern id in ctl stream"));
            let xr = &x[r];
            let mut acc = [0.0; K];
            let mut c = anchor as usize;
            let mut emit = |c: usize, v: Val, u: Val, acc: &mut [Val; K]| {
                axpy_lanes(acc, v, &x[c]);
                let t = O::transposed(v, u);
                if c < split {
                    axpy_lanes(&mut local[c], t, xr);
                } else {
                    axpy_lanes(&mut my_y[c - split], t, xr);
                }
            };
            emit(c, unit_vals[0], unit_pair[0], &mut acc);
            let rest = &unit_vals[1..];
            let rest_pair = &unit_pair[1..];
            match width {
                DeltaWidth::U8 => {
                    let body = &ctl[pos..pos + size - 1];
                    pos += size - 1;
                    for ((&d, &v), &u) in body.iter().zip(rest).zip(rest_pair) {
                        c += usize::from(d);
                        emit(c, v, u, &mut acc);
                    }
                }
                DeltaWidth::U16 => {
                    let body = &ctl[pos..pos + 2 * (size - 1)];
                    pos += 2 * (size - 1);
                    for ((d, &v), &u) in body.chunks_exact(2).zip(rest).zip(rest_pair) {
                        c += usize::from(u16::from_le_bytes([d[0], d[1]]));
                        emit(c, v, u, &mut acc);
                    }
                }
                DeltaWidth::U32 => {
                    let body = &ctl[pos..pos + 4 * (size - 1)];
                    pos += 4 * (size - 1);
                    for ((d, &v), &u) in body.chunks_exact(4).zip(rest).zip(rest_pair) {
                        c += u32::from_le_bytes([d[0], d[1], d[2], d[3]]) as usize;
                        emit(c, v, u, &mut acc);
                    }
                }
            }
            add_lanes(&mut my_y[r - split], &acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};

    fn cfg() -> DetectConfig {
        DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        }
    }

    fn build(coo: &CooMatrix, p: usize) -> (SssMatrix, Vec<Range>, CsxSymMatrix) {
        let sss = SssMatrix::from_coo(coo, 0.0).unwrap();
        let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
        let m = CsxSymMatrix::from_sss(&sss, &parts, &cfg());
        (sss, parts, m)
    }

    #[test]
    fn serial_spmv_matches_sss() {
        let coo = symspmv_sparse::gen::block_structural(40, 3, 6.0, 10, 21);
        let n = coo.nrows() as usize;
        let (sss, _, m) = build(&coo, 4);
        let x = seeded_vector(n, 3);
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        sss.spmv(&x, &mut y1);
        m.spmv_serial(&x, &mut y2);
        assert_vec_close(&y1, &y2, 1e-12);
    }

    #[test]
    fn chunks_respect_legality() {
        // Every substructure unit's transposed targets must be on one side
        // of its chunk's split.
        let coo = symspmv_sparse::gen::banded_random(600, 40, 12.0, 13);
        let (_, parts, m) = build(&coo, 4);
        for (chunk, part) in m.chunks().iter().zip(&parts) {
            let split = part.start;
            let mut units: Vec<(bool, u32)> = Vec::new();
            let mut cols: Vec<Idx> = Vec::new();
            chunk.stream.walk(
                |u| units.push((u.kind.is_some(), u.size)),
                |_, c, _| cols.push(c),
            );
            let mut off = 0usize;
            for (is_sub, size) in units {
                let elems = &cols[off..off + size as usize];
                off += size as usize;
                if is_sub {
                    let lo = elems.iter().any(|&c| c < split);
                    let hi = elems.iter().any(|&c| c >= split);
                    assert!(!(lo && hi), "substructure straddles split {split}");
                }
            }
            assert_eq!(off, cols.len());
        }
    }

    #[test]
    fn split_kernel_equivalent_to_serial() {
        let coo = symspmv_sparse::gen::banded_random(300, 25, 10.0, 8);
        let n = coo.nrows() as usize;
        let (sss, parts, m) = build(&coo, 3);
        let x = seeded_vector(n, 11);

        // Emulate the engine single-threaded: direct writes to y, local
        // writes to per-thread effective regions, then reduce.
        let mut y = vec![0.0; n];
        for r in 0..n {
            y[r] = m.dvalues()[r] * x[r];
        }
        let mut locals: Vec<Vec<f64>> = parts.iter().map(|p| vec![0.0; p.start as usize]).collect();
        for (i, chunk) in m.chunks().iter().enumerate() {
            let (start, end) = (parts[i].start as usize, parts[i].end as usize);
            sym_stream::<symspmv_sparse::symmetry::Sym, 1>(
                &chunk.stream,
                chunk.paired_values(),
                x.as_chunks().0,
                y[start..end].as_chunks_mut().0,
                start,
                locals[i].as_chunks_mut().0,
            );
        }
        for local in &locals {
            for (c, &v) in local.iter().enumerate() {
                y[c] += v;
            }
        }

        let mut y_ref = vec![0.0; n];
        sss.spmv(&x, &mut y_ref);
        assert_vec_close(&y, &y_ref, 1e-12);
    }

    #[test]
    fn naive_is_the_split_zero_case() {
        // With `split = 0` nothing is below the split: every chunk writes
        // both triangles into one full-length vector and `local` is empty.
        let coo = symspmv_sparse::gen::laplacian_2d(15, 15);
        let n = 225;
        let (sss, _, m) = build(&coo, 2);
        let x = seeded_vector(n, 2);
        let mut acc = vec![0.0; n];
        for r in 0..n {
            acc[r] = m.dvalues()[r] * x[r];
        }
        for chunk in m.chunks() {
            sym_stream::<symspmv_sparse::symmetry::Sym, 1>(
                &chunk.stream,
                chunk.paired_values(),
                x.as_chunks().0,
                acc.as_chunks_mut().0,
                0,
                &mut [],
            );
        }
        let mut y_ref = vec![0.0; n];
        sss.spmv(&x, &mut y_ref);
        assert_vec_close(&acc, &y_ref, 1e-12);
    }

    #[test]
    fn compression_ratios_sane() {
        let coo = symspmv_sparse::gen::block_structural(120, 3, 14.0, 20, 31);
        let (_, _, m) = build(&coo, 4);
        let cr = m.compression_ratio();
        let max = m.max_compression_ratio();
        assert!(
            cr > 0.30,
            "CSX-Sym should compress well on block matrices: {cr}"
        );
        assert!(
            cr <= max + 1e-9,
            "cr {cr} cannot beat the no-metadata floor {max}"
        );
        assert!(max < 0.70, "max CR is bounded by ~2/3: {max}");
        // SSS achieves at most 50% (paper, Table I caption): CSX-Sym must
        // beat it here.
        assert!(cr > 0.50 - 1e-9, "CSX-Sym below the SSS bound: {cr}");
    }

    #[test]
    fn full_nnz_model() {
        let coo = symspmv_sparse::gen::laplacian_2d(4, 4);
        let (sss, _, m) = build(&coo, 2);
        assert_eq!(m.full_nnz(), 2 * sss.lower_nnz() + 16);
    }
}
