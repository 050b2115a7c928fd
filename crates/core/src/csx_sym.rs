//! CSX-Sym — the symmetric CSX variant (§IV-B).
//!
//! CSX-Sym stores the main diagonal densely (`dvalues`, as in SSS) and
//! encodes the strict lower triangle with CSX, *per thread partition*, so
//! each chunk is detected and encoded independently. The one restriction
//! versus plain CSX: a substructure whose transposed writes would be split
//! between the thread's local vector (`c < start_i`) and the shared output
//! vector (`c ≥ start_i`) is not encoded — its elements fall back to delta
//! units. Substructure inner loops therefore never branch on the write
//! target; only delta units pay a per-element side test.
//!
//! The kernel is `csx::matrix::sym_stream`, the one `ctl` decoder, which
//! the unsymmetric CSX runs with the mirror compiled out. It reads a stream
//! only the encoder builds (`ctl-bound`): the stream records its first row,
//! its row and column reach, and whether any substructure straddles its
//! first row. One assert per call checks the buffers and the split against
//! that record — a split other than 0 must be the stream's legal one — and
//! the unit kernels then index without bounds checks.

use crate::traits::per_share;
use symspmv_csx::detect::DetectConfig;
use symspmv_csx::encode::{encode_rows, CtlStream};
use symspmv_csx::rows::RowView;
use symspmv_runtime::{ExecutionContext, Range};
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::{Idx, SssMatrix, Val};

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
    /// Encodes the partition `part` straight from its SSS rows, with the
    /// partition start as the legality split. Detection is
    /// structure-driven, so for structural symmetry the encoder writes the
    /// paired upper values in the same stream order as the lower ones,
    /// giving a second value array under the shared ctl bytes. A chunk reads
    /// nothing but `sss` and its own rows: the chunks of one matrix may be
    /// encoded in any order, on any threads, with the same result.
    pub(crate) fn encode(sss: &SssMatrix, part: Range, config: &DetectConfig) -> Self {
        let cfg = DetectConfig {
            col_split: Some(part.start),
            ..config.clone()
        };
        let rows = RowView::of_sss(sss).slice(part.start..part.end);
        let upper = sss.kind().has_upper_values().then(|| sss.upper_values());
        let encoded = encode_rows(rows, &cfg, sss.values(), upper);
        CsxSymChunk {
            part,
            coverage: encoded.coverage,
            upper_values: encoded.upper_values,
            stream: encoded.stream,
        }
    }

    /// The stream-ordered mirror values: `upper_values` when the matrix is
    /// structurally symmetric, otherwise the stream's own values (the
    /// kernels' `O::transposed` ignores or negates them).
    pub fn paired_values(&self) -> &[Val] {
        if self.upper_values.is_empty() {
            self.stream.values()
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
    /// Encodes an SSS matrix into per-partition CSX-Sym chunks, one after
    /// the other on the calling thread, each straight from the partition's
    /// SSS rows. The matrix's [`SymmetryKind`] carries over. (`SymSpmv`
    /// encodes the same chunks with the same body, one per pool share.)
    /// Panics on a config [`DetectConfig::validate`] refuses.
    pub fn from_sss(sss: &SssMatrix, parts: &[Range], config: &DetectConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let chunks = parts
            .iter()
            .map(|&part| CsxSymChunk::encode(sss, part, config));
        Self::from_chunks(sss, chunks.collect())
    }

    /// [`CsxSymMatrix::from_sss`] with share `i` of one `ctx` round encoding
    /// chunk `i` (the plan's partition has one range per share). A share
    /// that panics leaves its chunk to the caller ([`per_share`]), so a pool
    /// fault never fails the build and the result is the serial one bit for
    /// bit.
    pub(crate) fn from_sss_on(
        sss: &SssMatrix,
        parts: &[Range],
        config: &DetectConfig,
        ctx: &ExecutionContext,
    ) -> Self {
        let chunks = per_share(ctx, parts.len(), |i| {
            CsxSymChunk::encode(sss, parts[i], config)
        });
        Self::from_chunks(sss, chunks)
    }

    fn from_chunks(sss: &SssMatrix, chunks: Vec<CsxSymChunk>) -> Self {
        CsxSymMatrix {
            n: sss.n(),
            kind: sss.kind(),
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

    /// Substructure coverage of the strict lower triangle: the chunks'
    /// coverages weighted by their non-zeros (0 when there are none).
    pub fn coverage(&self) -> f64 {
        let nnz: usize = self.chunks.iter().map(|c| c.stream.nnz()).sum();
        let covered: f64 = self
            .chunks
            .iter()
            .map(|c| c.coverage * c.stream.nnz() as f64)
            .sum();
        covered / nnz.max(1) as f64
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

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_csx::matrix::sym_stream;
    use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};
    use symspmv_sparse::symmetry::SymmetryOps;
    use symspmv_sparse::CooMatrix;

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
    fn pooled_encode_is_the_serial_encode_chunk_for_chunk() {
        use symspmv_sparse::suite::{self, KIND_SUITE, SUITE};
        let mut matrices: Vec<(&str, SssMatrix)> = SUITE
            .iter()
            .chain(&KIND_SUITE)
            .map(|spec| {
                let coo = suite::generate(spec, 0.005).coo;
                (
                    spec.name,
                    SssMatrix::from_coo_kind(&coo, spec.kind, 0.0).unwrap(),
                )
            })
            .collect();
        // Nine rows: at p = 8 some partitions are empty.
        let tiny = symspmv_sparse::gen::laplacian_2d(3, 3);
        matrices.push(("laplacian 3x3", SssMatrix::from_coo(&tiny, 0.0).unwrap()));
        let config = DetectConfig::default();
        for p in [1, 2, 3, 8] {
            let ctx = ExecutionContext::new(p);
            for (name, sss) in &matrices {
                let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
                let serial = CsxSymMatrix::from_sss(sss, &parts, &config);
                let pooled = CsxSymMatrix::from_sss_on(sss, &parts, &config, &ctx);
                // `ctl` bytes, values, `upper_values`, coverage, per chunk.
                assert_eq!(pooled.chunks(), serial.chunks(), "{name} p={p}");
                assert_eq!(pooled, serial, "{name} p={p}");
            }
            assert!(ctx.take_last_panic().is_none());
        }
    }

    #[test]
    fn a_share_killed_in_the_encode_round_is_re_encoded_on_the_caller() {
        let coo = symspmv_sparse::gen::block_structural(60, 3, 8.0, 12, 5);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), 2);
        let serial = CsxSymMatrix::from_sss(&sss, &parts, &cfg());
        let ctx = ExecutionContext::new(2);
        let failures = ctx.health_state().failures();
        ctx.fault_plan().arm_worker_panic(1, 0);
        let pooled = CsxSymMatrix::from_sss_on(&sss, &parts, &cfg(), &ctx);
        assert_eq!(ctx.fault_plan().fired(), 1);
        assert_eq!(ctx.health_state().failures(), failures + 1);
        assert_eq!(pooled, serial);
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
                |u| units.push((u.kind.is_some(), u.elements)),
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
    fn coverage_weights_each_chunk_by_its_non_zeros() {
        // Rows 0..90 hold ~30× the non-zeros of rows 90..120, and only the
        // block-structural top is covered — by blocks and by the diagonal
        // triangles its block units carry: the bottom's one entry per row
        // steps 11 columns, modulo 90, from row to row — no block.
        let mut coo = symspmv_sparse::gen::block_structural(30, 3, 8.0, 10, 5);
        let mut full = CooMatrix::new(120, 120);
        coo.canonicalize();
        for (r, c, v) in coo.iter() {
            full.push(r, c, v);
        }
        for r in 90..120 {
            full.push(r, r, 4.0);
            full.push(r, (r - 90) * 11 % 90, -1.0);
            full.push((r - 90) * 11 % 90, r, -1.0);
        }
        let sss = SssMatrix::from_coo(&full, 0.0).unwrap();
        let parts = [
            Range { start: 0, end: 90 },
            Range {
                start: 90,
                end: 120,
            },
        ];
        let m = CsxSymMatrix::from_sss(&sss, &parts, &cfg());
        let (mut covered, mut nnz, mut triangles) = (0usize, 0usize, 0usize);
        for chunk in m.chunks() {
            let mut sizes = Vec::new();
            chunk.stream.walk(
                |u| sizes.push((u.kind.is_some(), u.elements as usize)),
                |_, _, _| {},
            );
            covered += sizes.iter().filter(|u| u.0).map(|u| u.1).sum::<usize>();
            triangles += sizes.iter().filter(|u| u.0).map(|u| u.1 % 9).sum::<usize>();
            nnz += chunk.stream.nnz();
        }
        let [top, bottom] = [&m.chunks()[0], &m.chunks()[1]];
        assert!(triangles > 0, "no 3 × 3 block unit took its triangle");
        assert!(top.stream.nnz() > 4 * bottom.stream.nnz());
        assert!(top.coverage > 0.5 && bottom.coverage == 0.0);
        let exact = covered as f64 / nnz as f64;
        assert!(
            (m.coverage() - exact).abs() < 1e-12,
            "{} vs {exact}",
            m.coverage()
        );
        let unweighted = (top.coverage + bottom.coverage) / 2.0;
        assert!((unweighted - exact).abs() > 0.05);
    }

    #[test]
    fn full_nnz_model() {
        let coo = symspmv_sparse::gen::laplacian_2d(4, 4);
        let (sss, _, m) = build(&coo, 2);
        assert_eq!(m.full_nnz(), 2 * sss.lower_nnz() + 16);
    }

    /// The bytes and values of a hand-built stream, and its elements
    /// `(row, col)` in stream order, from the pattern's definition — not
    /// from any decoder.
    struct HandBuilt {
        ctl: Vec<u8>,
        values: Vec<Val>,
        paired: Vec<Val>,
        elements: Vec<(usize, usize)>,
    }

    impl HandBuilt {
        /// The stream as a partition starting at `first_row` holds it,
        /// through the one validating constructor.
        fn stream(&self, first_row: usize) -> CtlStream {
            CtlStream::validated(self.ctl.clone(), self.values.clone(), first_row).unwrap()
        }
    }

    /// A one-element delta unit at `(row, 0)` — or nothing — followed by the
    /// unit under test `(id, shape, row, col)`, where `shape` is a delta or
    /// block unit's column or anchor gaps (a triangle unit's triangle
    /// follows from `row`); `head`
    /// picks how the unit is reached: 0 first in the stream (`NR | RJMP`),
    /// 1 after a spacer in the row above (`NR` alone), 2 after a spacer in
    /// its own row (no `NR`, `ucol` relative).
    fn hand_built(id: u8, shape: &[usize], row: usize, col: usize, head: u8) -> HandBuilt {
        use symspmv_csx::encode::{NR_BIT, RJMP_BIT};
        use symspmv_csx::pattern::PatternKind;
        use symspmv_csx::varint::write_varint;
        let mut ctl = Vec::new();
        let mut elements = Vec::new();
        let jump_to = |ctl: &mut Vec<u8>, id: u8, r: usize| {
            ctl.push(id | NR_BIT | RJMP_BIT);
            write_varint(ctl, r as u64);
        };
        match head {
            0 => jump_to(&mut ctl, id, row),
            _ => {
                let spacer_row = if head == 1 { row - 1 } else { row };
                jump_to(&mut ctl, 0, spacer_row);
                ctl.extend([1, 0]); // size 1, ucol 0
                elements.push((spacer_row, 0));
                ctl.push(if head == 1 { id | NR_BIT } else { id });
            }
        }
        match PatternKind::from_id(id) {
            Some(kind @ PatternKind::Block { rows, cols }) => {
                // `shape` lists the gaps between the unit's block anchors.
                ctl.push(shape.len() as u8 + 1);
                write_varint(&mut ctl, col as u64);
                let mut c = col;
                for (k, &gap) in std::iter::once(&0).chain(shape).enumerate() {
                    if k > 0 {
                        ctl.extend_from_slice(&(gap as u16).to_le_bytes());
                    }
                    c += gap;
                    elements.extend((0..u32::from(rows) * u32::from(cols)).map(|k| {
                        let (r, c) = kind.element(row as Idx, c as Idx, k);
                        (r as usize, c as usize)
                    }));
                }
                if symspmv_csx::pattern::triangle_len(id) > 0 {
                    let side = usize::from(rows);
                    let rows = (1..side).flat_map(|i| (0..i).map(move |j| (row + i, row + j)));
                    elements.extend(rows);
                }
            }
            None => {
                // `shape` lists the unit's column gaps; the id fixes their width.
                let width = [1usize, 2, 4][id as usize];
                ctl.push(shape.len() as u8 + 1);
                write_varint(&mut ctl, col as u64);
                let mut c = col;
                elements.push((row, c));
                for &gap in shape {
                    ctl.extend_from_slice(&(gap as u32).to_le_bytes()[..width]);
                    c += gap;
                    elements.push((row, c));
                }
            }
        }
        let values: Vec<Val> = (0..elements.len()).map(|k| k as Val + 2.0).collect();
        HandBuilt {
            paired: values.iter().map(|v| 2.0 * v - 7.0).collect(),
            ctl,
            values,
            elements,
        }
    }

    /// Runs `sym_stream` on a hand-built stream over rows `split..n` and
    /// compares both write targets with the element-wise definition (no
    /// transposed contribution for `NoMirror`, CSX's instance). Every
    /// operand is a small integer, so the comparison is exact whatever the
    /// kernel's association.
    fn check_unit<O: SymmetryOps, const K: usize>(unit: &HandBuilt, n: usize, split: usize) {
        let x: Vec<[Val; K]> = (0..n)
            .map(|i| std::array::from_fn(|j| ((i * 7 + j * 3) % 11) as Val - 5.0))
            .collect();
        let mut y = vec![[0.0; K]; n - split];
        let mut local = vec![[0.0; K]; split];
        let stream = unit.stream(split);
        sym_stream::<O, K>(&stream, &unit.paired, &x, &mut y, split, &mut local);

        let mut want_y = vec![[0.0; K]; n - split];
        let mut want_local = vec![[0.0; K]; split];
        let values = unit.values.iter().zip(&unit.paired);
        for (&(r, c), (&v, &u)) in unit.elements.iter().zip(values) {
            let t = O::transposed(v, u);
            for j in 0..K {
                want_y[r - split][j] += v * x[c][j];
                if !O::MIRRORS {
                    continue;
                } else if c < split {
                    want_local[c][j] += t * x[r][j];
                } else {
                    want_y[c - split][j] += t * x[r][j];
                }
            }
        }
        assert_eq!((y, local), (want_y, want_local), "split {split}");
    }

    #[test]
    fn every_unit_kernel_matches_the_element_wise_definition() {
        use symspmv_sparse::symmetry::{NoMirror, Skew, Structural, Sym};
        // The splits — all at or above the spacer's row, which the partition
        // must hold — put the unit on the direct side, on the local side and
        // — delta units only, whose columns may cross — astride the boundary.
        // A triangle unit's triangle is on the direct side at either split.
        let check = |id: u8, shape: &[usize], (row, col): (usize, usize), n, splits: &[usize]| {
            for head in 0..3 {
                let unit = hand_built(id, shape, row, col, head);
                for &split in splits {
                    check_unit::<Sym, 1>(&unit, n, split);
                    check_unit::<Sym, 4>(&unit, n, split);
                    check_unit::<Skew, 1>(&unit, n, split);
                    check_unit::<Skew, 4>(&unit, n, split);
                    check_unit::<Structural, 1>(&unit, n, split);
                    check_unit::<Structural, 4>(&unit, n, split);
                    check_unit::<NoMirror, 1>(&unit, n, split);
                }
            }
        };
        // Units of one, two and three blocks — adjacent, and apart — with
        // and without a triangle.
        for id in 36..=47u8 {
            let width = match id {
                36..=44 => (id - 36) as usize % 3 + 2,
                _ => (id - 45) as usize + 2,
            };
            for gaps in [&[][..], &[width], &[width + 2, width]] {
                check(id, gaps, (51, 10), 96, &[8, 50]);
            }
        }
        check(0, &[3, 30, 2], (51, 10), 96, &[8, 20, 50]);
        check(0, &[], (51, 10), 96, &[8, 50]);
        check(1, &[300, 5, 400], (800, 10), 900, &[8, 312, 799]);
        let far = (70_100, 10);
        check(2, &[70_000, 3, 9], far, 70_200, &[8, 70_012, 70_099]);
    }

    #[test]
    fn walk_and_sym_stream_decode_the_same_elements() {
        // A unit vector `e_j` makes the kernel's output name the elements it
        // visited: rows below `j` receive column `j`'s values, columns left
        // of `j` the transposed values of row `j` — the stream's elements,
        // once each way, which must be what `walk` lists.
        use symspmv_sparse::symmetry::Structural;
        for seed in 0..12u64 {
            let coo = match seed % 3 {
                0 => symspmv_sparse::gen::banded_random(90, 30, 7.0, seed),
                1 => symspmv_sparse::gen::block_structural(30, 3, 5.0, 9, seed),
                _ => symspmv_sparse::gen::mixed_bandwidth(90, 6.0, 0.5, 6, seed),
            };
            let n = coo.nrows() as usize;
            let (_, parts, m) = build(&coo, 1 + seed as usize % 3);
            for (chunk, part) in m.chunks().iter().zip(&parts) {
                let (start, end) = (part.start as usize, part.end as usize);
                // Distinct paired values tell the two directions apart.
                let paired: Vec<Val> = chunk.stream.values().iter().map(|v| v + 0.5).collect();
                let mut walked = Vec::new();
                let mut k = 0;
                chunk.stream.walk(
                    |_| {},
                    |r, c, v| {
                        walked.push((r as usize, c as usize, v.to_bits(), paired[k].to_bits()));
                        k += 1;
                    },
                );
                walked.sort_unstable();
                let mut multiplied = Vec::new();
                for j in 0..end {
                    let mut x = vec![[0.0]; n];
                    x[j] = [1.0];
                    let mut y = vec![[0.0]; end - start];
                    let mut local = vec![[0.0]; start];
                    let (stream, y, local) = (&chunk.stream, &mut y[..], &mut local[..]);
                    sym_stream::<Structural, 1>(stream, &paired, &x, y, start, local);
                    let at = |c: usize| {
                        if c < start {
                            local[c][0]
                        } else {
                            y[c - start][0]
                        }
                    };
                    let column = (j + 1..end).filter(|&r| at(r) != 0.0);
                    multiplied.extend(column.map(|r| (r, j, at(r).to_bits(), 0)));
                    let row = (0..j).filter(|&c| at(c) != 0.0);
                    multiplied.extend(row.map(|c| (j, c, 0, at(c).to_bits())));
                }
                multiplied.sort_unstable();
                let mut both_ways: Vec<_> =
                    walked.iter().map(|&(r, c, v, _)| (r, c, v, 0)).collect();
                both_ways.extend(walked.iter().map(|&(r, c, _, u)| (r, c, 0, u)));
                both_ways.sort_unstable();
                assert_eq!(multiplied, both_ways, "seed {seed} part {part:?}");
            }
        }
    }
}

/// The stream kernel on CSX-Sym chunks: bit for bit what its checked twin
/// (`csx::checked`) gives under every mirror, and buffers and splits the
/// stream does not allow refused before any unchecked access.
#[cfg(test)]
mod unchecked_decode_tests {
    use super::*;
    use crate::sym::unchecked_walk_tests::as_kind;
    use symspmv_csx::checked::checked_sym_stream;
    use symspmv_csx::matrix::sym_stream;
    use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
    use symspmv_sparse::dense::seeded_vector;
    use symspmv_sparse::suite::{self, KIND_SUITE, SUITE};
    use symspmv_sparse::symmetry::{Sym, SymmetryOps};
    use symspmv_sparse::{with_symmetry_ops, CooMatrix};

    fn bits<const K: usize>(v: &[[Val; K]]) -> Vec<u64> {
        v.iter().flatten().map(|x| x.to_bits()).collect()
    }

    /// Runs both kernels over every chunk in the method's layout — the
    /// naive one is split 0 over a private full-length region; the direct
    /// ones (`eff`, `idx`) split at the partition start, with a local
    /// region of that length — and returns how many local elements the
    /// kernels wrote.
    fn compare<O: SymmetryOps, const K: usize>(
        m: &CsxSymMatrix,
        parts: &[Range],
        direct: bool,
        what: &str,
    ) -> usize {
        let n = m.n() as usize;
        let flat = seeded_vector(n * K, 7);
        let x = flat.as_chunks::<K>().0;
        let mut touched = 0;
        for (tid, (chunk, &part)) in m.chunks().iter().zip(parts).enumerate() {
            let (start, end) = (part.start as usize, part.end as usize);
            let (split, y_len) = if direct { (start, end - start) } else { (0, n) };
            let mut want = (vec![[0.0; K]; y_len], vec![[0.0; K]; split]);
            let mut got = want.clone();
            let (stream, paired) = (&chunk.stream, chunk.paired_values());
            checked_sym_stream::<O, K>(stream, paired, x, &mut want.0, split, &mut want.1);
            sym_stream::<O, K>(stream, paired, x, &mut got.0, split, &mut got.1);
            assert_eq!(bits(&got.0), bits(&want.0), "{what}, tid {tid}: y");
            assert_eq!(bits(&got.1), bits(&want.1), "{what}, tid {tid}: local");
            touched += bits(&got.1).iter().filter(|&&b| b != 0).count();
        }
        touched
    }

    /// The leading `rows × rows` principal submatrix: symmetric in the
    /// sense `coo` is.
    fn leading(coo: &CooMatrix, rows: u32) -> CooMatrix {
        let mut out = CooMatrix::new(rows, rows);
        for (r, c, v) in coo.iter().filter(|&(r, c, _)| r < rows && c < rows) {
            out.push(r, c, v);
        }
        out
    }

    /// The suite analogs (their leading 256 rows, so the debug build stays
    /// quick) under every symmetry kind, chunked for 1, 2, 3 and 8
    /// threads, in both layouts — naive's split 0, and the partition-start
    /// split `eff` and `idx` share — at 1 and 8 lanes.
    #[test]
    fn unchecked_decode_matches_the_checked_one_bit_for_bit() {
        let config = DetectConfig::default();
        let mut touched = 0;
        for spec in SUITE.iter().chain(&KIND_SUITE) {
            let coo = leading(&suite::generate(spec, 0.001).coo, 256);
            let kinds: &[SymmetryKind] = match spec.kind {
                SymmetryKind::Symmetric => &SymmetryKind::ALL,
                _ => std::slice::from_ref(&spec.kind),
            };
            for &kind in kinds {
                let coo = match spec.kind {
                    SymmetryKind::Symmetric => as_kind(&coo, kind),
                    _ => coo.clone(),
                };
                let sss = SssMatrix::from_coo_kind(&coo, kind, 0.0).unwrap();
                for p in [1usize, 2, 3, 8] {
                    let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
                    let m = CsxSymMatrix::from_sss(&sss, &parts, &config);
                    for direct in [false, true] {
                        let what = format!("{}, {kind:?}, p {p}, direct {direct}", spec.name);
                        touched += with_symmetry_ops!(kind, O => {
                            compare::<O, 1>(&m, &parts, direct, &format!("{what}, K 1"))
                                + compare::<O, 8>(&m, &parts, direct, &format!("{what}, K 8"))
                        });
                    }
                }
            }
        }
        assert!(touched > 0, "no kernel wrote below its split");
    }

    /// The kernel's one assert runs before any unchecked access: a local
    /// region shorter than the split is refused, not written past.
    #[test]
    #[should_panic(expected = "refused at split 32")]
    fn a_short_local_region_is_refused() {
        let coo = symspmv_sparse::gen::banded_random(64, 40, 9.0, 3);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let part = Range { start: 32, end: 64 };
        let chunk = CsxSymChunk::encode(&sss, part, &DetectConfig::default());
        let (stream, paired) = (&chunk.stream, chunk.paired_values());
        let (x, mut y, mut local) = (vec![[1.0]; 64], vec![[0.0]; 32], vec![[0.0]; 31]);
        sym_stream::<Sym, 1>(stream, paired, &x, &mut y, 32, &mut local);
    }

    /// So is an `x` shorter than the stream's column bound — here beyond
    /// its row bound, so the row bound alone would not catch it.
    #[test]
    #[should_panic(expected = "refused at split 0")]
    fn an_x_short_of_the_column_bound_is_refused() {
        let mut coo = CooMatrix::new(8, 8);
        coo.push(2, 7, 1.0);
        let stream = symspmv_csx::encode::encode_coo(&coo, &DetectConfig::default());
        assert_eq!((stream.row_end(), stream.col_end()), (3, 8));
        let (x, mut y) = (vec![[1.0]; 7], vec![[0.0]; 8]);
        sym_stream::<Sym, 1>(&stream, stream.values(), &x, &mut y, 0, &mut []);
    }

    /// Mutation 4 of the verifier's kill wall — a 2 × 2 block in rows 40–41
    /// across columns 31–32, encoded without the chunk's column split — is
    /// refused at split 32: encoded from row 0, its legal split is 0; encoded
    /// from row 32, the block straddles that row and the stream has none.
    #[test]
    fn a_straddling_stream_is_refused_at_split_32() {
        let n = 64u32;
        let mut coo = CooMatrix::new(n, n);
        for (r, c) in [(40, 31), (40, 32), (41, 31), (41, 32)] {
            coo.push(r, c, 1.0);
        }
        let config = DetectConfig::default(); // no col_split
        let from_row_0 = symspmv_csx::encode::encode_coo(&coo, &config);
        let csr = symspmv_sparse::CsrMatrix::from_coo(&coo);
        let rows = RowView::new(0, n, csr.rowptr(), csr.colind()).slice(32..n);
        let from_row_32 = encode_rows(rows, &config, csr.values(), None).stream;
        assert_eq!(from_row_0.legal_split(), Some(0));
        assert_eq!(from_row_32.legal_split(), None);
        for stream in [from_row_0, from_row_32] {
            let refused = std::panic::catch_unwind(|| {
                let (x, mut y, mut local) = (vec![[1.0]; 64], vec![[0.0]; 32], vec![[0.0]; 32]);
                let v = stream.values();
                sym_stream::<Sym, 1>(&stream, v, &x, &mut y, 32, &mut local);
            });
            let msg = refused.err().and_then(|p| p.downcast::<String>().ok());
            assert!(msg.is_some_and(|m| m.contains("refused at split 32")));
        }
    }
}
