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
use symspmv_csx::detect::DetectConfig;
use symspmv_csx::encode::{delta_of, encode_rows, CtlStream, UnitCursor};
use symspmv_csx::pattern::run_strides;
use symspmv_csx::rows::RowView;
use symspmv_runtime::Range;
use symspmv_sparse::symmetry::{SymmetryKind, SymmetryOps};
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
    /// Encodes an SSS matrix into per-partition CSX-Sym chunks, each
    /// straight from the partition's SSS rows. The matrix's
    /// [`SymmetryKind`] carries over; detection is structure-driven, so for
    /// structural symmetry the paired upper values are gathered through the
    /// same stream order as the lower ones, giving a second value array
    /// under the shared ctl bytes.
    pub fn from_sss(sss: &SssMatrix, parts: &[Range], config: &DetectConfig) -> Self {
        let kind = sss.kind();
        let encode_part = |part: &Range| {
            let cfg = DetectConfig {
                col_split: Some(part.start),
                ..config.clone()
            };
            let rows = RowView::of_sss(sss).slice(part.start..part.end);
            let encoded = encode_rows(rows, &cfg);
            let upper_values = if kind.has_upper_values() {
                encoded.gather(sss.upper_values())
            } else {
                Vec::new()
            };
            CsxSymChunk {
                part: *part,
                coverage: encoded.coverage,
                upper_values,
                stream: encoded.into_stream(sss.values()),
            }
        };
        CsxSymMatrix {
            n: sss.n(),
            kind,
            dvalues: sss.dvalues().to_vec(),
            chunks: parts.iter().map(encode_part).collect(),
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
/// sequence. Each unit head selects, once, the fixed-shape kernel of its
/// pattern id (substitution S2: kernels generated ahead of time instead of
/// JIT-compiled per matrix).
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
    let mut sides = Sides {
        x,
        my_y,
        split,
        local,
    };
    let mut cursor = UnitCursor::new(&stream.ctl);
    let (mut values, mut paired) = (&stream.values[..], paired);
    while let Some(unit) = cursor.next_unit() {
        let (v, u);
        (v, values) = values.split_at(unit.size);
        (u, paired) = paired.split_at(unit.size);
        let (row, col) = (unit.row, unit.col);
        macro_rules! delta {
            ($w:literal) => {
                sides.delta::<O, $w>(cursor.body(unit.size), v, u, row, col)
            };
        }
        macro_rules! run {
            ($dir:literal, $delta:expr) => {
                sides.run::<O, $dir>($delta, v, u, row, col)
            };
        }
        macro_rules! block {
            ($r:literal, $c:literal) => {
                sides.block::<O, $r, $c>(v, u, row, col)
            };
        }
        symspmv_csx::dispatch_unit!(unit.id, delta, run, block);
    }
}

/// The operands every unit kernel shares: the input lanes and the two
/// write targets either side of `split`.
struct Sides<'a, const K: usize> {
    x: &'a [[Val; K]],
    my_y: &'a mut [[Val; K]],
    split: usize,
    local: &'a mut [[Val; K]],
}

impl<const K: usize> Sides<'_, K> {
    /// A delta unit with `W`-byte column deltas. Its columns ascend, so
    /// they cross `split` at most once: the unit finds that point once and
    /// then runs a loop without a side test — from the first element on when
    /// it is anchored at or right of `split`.
    #[inline(always)]
    fn delta<O: SymmetryOps, const W: usize>(
        &mut self,
        body: &[[u8; W]],
        v: &[Val],
        u: &[Val],
        row: usize,
        col: usize,
    ) {
        let (x, split) = (self.x, self.split);
        let xr = &x[row];
        let mut acc = [0.0; K];
        let (my_y, local) = (&mut *self.my_y, &mut *self.local);
        let mut direct = |c: usize, v: Val, u: Val, acc: &mut [Val; K]| {
            axpy_lanes(acc, v, &x[c]);
            axpy_lanes(&mut my_y[c - split], O::transposed(v, u), xr);
        };
        let mut c = col;
        let mut rest = body.iter().zip(&v[1..]).zip(&u[1..]);
        if c >= split {
            direct(c, v[0], u[0], &mut acc);
        } else {
            let mut below = |c: usize, v: Val, u: Val, acc: &mut [Val; K]| {
                axpy_lanes(acc, v, &x[c]);
                axpy_lanes(&mut local[c], O::transposed(v, u), xr);
            };
            below(c, v[0], u[0], &mut acc);
            for ((d, &v), &u) in rest.by_ref() {
                c += delta_of(d);
                if c >= split {
                    direct(c, v, u, &mut acc);
                    break;
                }
                below(c, v, u, &mut acc);
            }
        }
        for ((d, &v), &u) in rest {
            c += delta_of(d);
            direct(c, v, u, &mut acc);
        }
        add_lanes(&mut my_y[row - split], &acc);
    }

    /// A 1-D run in direction `DIR` (pattern-id order) with stride `delta`.
    /// Boundary legality (§IV-B): all transposed writes of a substructure
    /// land on the anchor's side, so the side test hoists out of the loop.
    /// The one slot every element of a horizontal (the row's result) or
    /// vertical (the column's transposed sum) run adds to is held in a
    /// register across the loop — no other write of the unit can reach it,
    /// since every column lies below every row — in the same float order.
    #[inline(always)]
    fn run<O: SymmetryOps, const DIR: u8>(
        &mut self,
        delta: usize,
        v: &[Val],
        u: &[Val],
        row: usize,
        col: usize,
    ) {
        let (dr, dc) = run_strides::<DIR>(delta);
        let (x, split) = (self.x, self.split);
        debug_assert_eq!(
            col.wrapping_add((v.len() - 1).wrapping_mul(dc)) < split,
            col < split
        );
        let (mut r, mut c) = (row, col);
        // Two explicit loops, not one selected target slice: the write side
        // is fixed per unit, and `my_y` takes both writes on the direct one.
        macro_rules! elements {
            ($target:expr, $shift:expr) => {{
                let (mut yr, mut tc) = (self.my_y[row - split], $target[col - $shift]);
                for (&v, &u) in v.iter().zip(u) {
                    let t = O::transposed(v, u);
                    match DIR {
                        0 => axpy_lanes(&mut yr, v, &x[c]),
                        _ => axpy_lanes(&mut self.my_y[r - split], v, &x[c]),
                    }
                    match DIR {
                        1 => axpy_lanes(&mut tc, t, &x[r]),
                        _ => axpy_lanes(&mut $target[c - $shift], t, &x[r]),
                    }
                    r += dr;
                    c = c.wrapping_add(dc);
                }
                match DIR {
                    0 => self.my_y[row - split] = yr,
                    1 => $target[col - $shift] = tc,
                    _ => {}
                }
            }};
        }
        if col < split {
            elements!(self.local, 0)
        } else {
            elements!(self.my_y, split)
        }
    }

    /// A dense `R × C` block: one length check per operand, then fixed-size
    /// array indexing, the transposed sums held in registers until the end.
    /// The first row assigns them: starting from `0.0 +` instead would cost
    /// an add per column and differ only where product and target are `−0.0`.
    #[inline(always)]
    fn block<O: SymmetryOps, const R: usize, const C: usize>(
        &mut self,
        v: &[Val],
        u: &[Val],
        row: usize,
        col: usize,
    ) {
        let (Some(v), Some(u), Some(xc), Some(xr), Some(yr)) = (
            v.as_chunks::<C>().0.first_chunk::<R>(),
            u.as_chunks::<C>().0.first_chunk::<R>(),
            self.x[col..].first_chunk::<C>(),
            self.x[row..].first_chunk::<R>(),
            self.my_y[row - self.split..].first_chunk_mut::<R>(),
        ) else {
            unreachable!("block unit reaches outside the matrix");
        };
        let mut t = [[0.0; K]; C];
        for (i, (((yr, v), u), xr)) in yr.iter_mut().zip(v).zip(u).zip(xr).enumerate() {
            for j in 0..K {
                let mut acc = v[0] * xc[0][j];
                for (&v, xc) in v[1..].iter().zip(&xc[1..]) {
                    acc += v * xc[j];
                }
                yr[j] += acc;
                for ((t, &v), &u) in t.iter_mut().zip(v).zip(u) {
                    if i == 0 {
                        t[j] = O::transposed(v, u) * xr[j];
                    } else {
                        t[j] += O::transposed(v, u) * xr[j];
                    }
                }
            }
        }
        let side = if col < self.split {
            &mut self.local[col..]
        } else {
            &mut self.my_y[col - self.split..]
        };
        for (dst, t) in side.iter_mut().zip(&t) {
            add_lanes(dst, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};
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

    /// The elements `(row, col)` of a hand-built stream, in stream order,
    /// from the pattern's definition — not from any decoder.
    struct HandBuilt {
        stream: CtlStream,
        paired: Vec<Val>,
        elements: Vec<(usize, usize)>,
    }

    /// A one-element delta unit at `(row, 0)` — or nothing — followed by the
    /// unit under test `(id, columns or pattern size, row, col)`; `head`
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
            Some(kind) => {
                let size = shape[0];
                ctl.push(size as u8);
                write_varint(&mut ctl, col as u64);
                elements.extend((0..size as u32).map(|k| {
                    let (r, c) = kind.element(row as Idx, col as Idx, k);
                    (r as usize, c as usize)
                }));
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
            stream: CtlStream {
                ctl,
                nnz: values.len(),
                values,
            },
            elements,
        }
    }

    /// Runs `sym_stream` on a hand-built stream over rows `split..n` and
    /// compares both write targets with the element-wise definition. Every
    /// operand is a small integer, so the comparison is exact whatever the
    /// kernel's association.
    fn check_unit<O: SymmetryOps, const K: usize>(unit: &HandBuilt, n: usize, split: usize) {
        let x: Vec<[Val; K]> = (0..n)
            .map(|i| std::array::from_fn(|j| ((i * 7 + j * 3) % 11) as Val - 5.0))
            .collect();
        let mut y = vec![[0.0; K]; n - split];
        let mut local = vec![[0.0; K]; split];
        sym_stream::<O, K>(&unit.stream, &unit.paired, &x, &mut y, split, &mut local);

        let mut want_y = vec![[0.0; K]; n - split];
        let mut want_local = vec![[0.0; K]; split];
        let values = unit.stream.values.iter().zip(&unit.paired);
        for (&(r, c), (&v, &u)) in unit.elements.iter().zip(values) {
            let t = O::transposed(v, u);
            for j in 0..K {
                want_y[r - split][j] += v * x[c][j];
                if c < split {
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
        use symspmv_sparse::symmetry::{Skew, Structural, Sym};
        // The splits — all at or above the spacer's row, which the partition
        // must hold — put the unit on the direct side, on the local side and
        // — delta units only, whose columns may cross — astride the boundary.
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
                }
            }
        };
        for id in 4..=35u8 {
            // Anti-diagonals run leftwards from their anchor.
            let col = if id >= 28 { 45 } else { 10 };
            check(id, &[5], (51, col), 96, &[8, 50]);
        }
        for id in 36..=44u8 {
            let size = ((id - 36) / 3 + 2) * ((id - 36) % 3 + 2);
            check(id, &[size as usize], (51, 10), 96, &[8, 50]);
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
                let paired: Vec<Val> = chunk.stream.values.iter().map(|v| v + 0.5).collect();
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
