//! The CSX matrix type and the one `ctl` decoder: the stream kernel CSX
//! runs without a mirror and CSX-Sym (`core::csx_sym`) with one.

use crate::detect::DetectConfig;
use crate::encode::{delta_of, encode_rows, CtlStream};
use crate::rows::RowView;
use symspmv_sparse::block::{add_lanes, axpy_lanes};
use symspmv_sparse::symmetry::{NoMirror, SymmetryOps};
use symspmv_sparse::{CooMatrix, CsrMatrix, Idx, SparseError, Val};

/// Compression statistics of a CSX encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct CsxStats {
    /// Bytes of the CSX representation (ctl + values).
    pub size_bytes: usize,
    /// Bytes of the equivalent CSR representation (Eq. 1).
    pub csr_bytes: usize,
    /// Fraction of non-zeros covered by substructure units.
    pub coverage: f64,
    /// Number of detected substructure instances; a block unit carries up
    /// to 255 of them, so this is not a count of heads.
    pub substructure_units: usize,
    /// Number of delta units.
    pub delta_units: usize,
    /// Number of units in the stream — heads, substructure and delta.
    pub units: usize,
}

impl CsxStats {
    /// Compression ratio versus CSR: `1 − size/size_CSR` (the paper's
    /// Table I "C.R." columns, expressed as a fraction).
    pub fn compression_ratio(&self) -> f64 {
        1.0 - self.size_bytes as f64 / self.csr_bytes as f64
    }
}

/// A sparse matrix in CSX format (unsymmetric variant).
///
/// ```
/// use symspmv_csx::{CsxMatrix, detect::DetectConfig};
/// use symspmv_sparse::CooMatrix;
/// let mut a = CooMatrix::new(4, 8);
/// for (r, c) in [(1, 2), (1, 3), (2, 2), (2, 3)] {
///     a.push(r, c, 1.0); // a 2 × 2 block CSX will encode as one unit
/// }
/// let cfg = DetectConfig { min_coverage: 0.0, ..DetectConfig::default() };
/// let m = CsxMatrix::from_coo(&a, &cfg);
/// assert_eq!(m.stats().substructure_units, 1);
/// let mut y = vec![0.0; 4];
/// m.spmv(&vec![1.0; 8], &mut y);
/// assert_eq!(y, [0.0, 2.0, 2.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsxMatrix {
    nrows: Idx,
    ncols: Idx,
    stream: CtlStream,
    stats: CsxStats,
}

impl CsxMatrix {
    /// Encodes a matrix with the given detection configuration: the
    /// triplets go through [`CsrMatrix::from_coo`] (any order, duplicates
    /// summed) and its rows are encoded in place.
    pub fn from_coo(coo: &CooMatrix, config: &DetectConfig) -> Self {
        Self::from_csr(&CsrMatrix::from_coo(coo), config)
    }

    /// Encodes the rows of `view` — all of an `nrows`-row matrix, or one
    /// thread's partition of it (coordinates stay absolute); `values` is
    /// aligned with the view's column array.
    pub fn from_rows(nrows: Idx, view: RowView<'_>, values: &[Val], config: &DetectConfig) -> Self {
        let encoded = encode_rows(view, config, values, None);
        let stats = CsxStats {
            size_bytes: encoded.stream.ctl().len() + 8 * view.nnz(),
            csr_bytes: 12 * view.nnz() + 4 * (nrows as usize + 1),
            coverage: encoded.coverage,
            substructure_units: encoded.substructure_units,
            delta_units: encoded.delta_units,
            units: encoded.units,
        };
        CsxMatrix {
            nrows,
            ncols: view.ncols,
            stream: encoded.stream,
            stats,
        }
    }

    /// Validated constructor for matrices from outside the process: a
    /// config [`DetectConfig::validate`] refuses is
    /// [`SparseError::InvalidArgument`]; the triplets go through
    /// [`CsrMatrix::try_from_coo`] — duplicates summed, a non-finite value
    /// or an nnz beyond the index type reported as a structured
    /// [`SparseError`] — and its rows are encoded in place.
    pub fn try_from_coo(coo: &CooMatrix, config: &DetectConfig) -> Result<Self, SparseError> {
        config.validate()?;
        Ok(Self::from_csr(&CsrMatrix::try_from_coo(coo)?, config))
    }

    fn from_csr(csr: &CsrMatrix, config: &DetectConfig) -> Self {
        let view = RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind());
        Self::from_rows(csr.nrows(), view, csr.values(), config)
    }

    /// Number of rows.
    pub fn nrows(&self) -> Idx {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> Idx {
        self.ncols
    }

    /// Stored non-zero count.
    pub fn nnz(&self) -> usize {
        self.stream.nnz()
    }

    /// Compression statistics.
    pub fn stats(&self) -> &CsxStats {
        &self.stats
    }

    /// The underlying ctl/values stream.
    pub fn stream(&self) -> &CtlStream {
        &self.stream
    }

    /// Serial SpMV: `y += A·x` — note the accumulate semantics; callers
    /// zero `y` first. Accumulation (instead of assignment) is what lets
    /// row-partitioned chunks compose.
    pub fn spmv_accumulate(&self, x: &[Val], y: &mut [Val]) {
        spmv_stream(&self.stream, x, y);
    }

    /// Serial SpMV: `y = A·x`.
    pub fn spmv(&self, x: &[Val], y: &mut [Val]) {
        assert_eq!(x.len(), self.ncols as usize);
        assert_eq!(y.len(), self.nrows as usize);
        y.fill(0.0);
        self.spmv_accumulate(x, y);
    }

    /// Reconstructs the COO form, row-major (testing / verification).
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.stream.decode_elements() {
            coo.push(r, c, v);
        }
        CsrMatrix::from_coo(&coo).to_coo()
    }
}

/// The SpMV kernel over an encoded stream (`y += A·x`; callers zero `y`
/// first): the [`NoMirror`] instance of [`sym_stream`] (out of line, as
/// every instance), with `split = 0`, no local region and one lane. A CSX
/// matrix may be rectangular, so its rows are bounded by `y` and its
/// columns by `x`, each alone.
pub fn spmv_stream(stream: &CtlStream, x: &[Val], y: &mut [Val]) {
    let (x, y) = (x.as_chunks().0, y.as_chunks_mut().0);
    sym_stream::<NoMirror, 1>(stream, stream.values(), x, y, 0, &mut []);
}

/// The one multiply kernel over an encoded stream, over `K`-lane-interleaved
/// buffers: every element `a_rc` adds `a_rc·x[c]` to row `r` and, unless
/// `O` is [`NoMirror`], its transposed contribution `a'_cr·x[r]` to row `c`
/// — CSX-Sym is CSX restricted to the strict lower triangle plus these
/// mirrored writes (§IV). Rows go to `my_y`, whose element 0 is global row
/// `split`; transposed contributions below `split` go to `local`. The
/// stream — the expensive traffic — is decoded once for all lanes, and
/// every lane runs the scalar kernel's exact float sequence. Each unit head
/// selects, once, the fixed-shape kernel of its pattern id (substitution
/// S2: kernels generated ahead of time instead of JIT-compiled per matrix).
///
/// The direct-write strategies pass the partition boundary as `split`, with
/// `my_y` the partition's slice of the output vector: all direct writes
/// provably land inside the partition — the row `r` by chunk construction,
/// transposed targets `c ∈ [split, r]` by the legality rule. The naive
/// method is the `split = 0` case over the thread's private full-length
/// vector, which leaves nothing for `local`.
///
/// `paired` is the stream-ordered mirror-value array (the structural kind's
/// upper values); it aliases `stream.values()` for the other kinds, whose
/// `O::transposed` never reads it.
///
/// One assert per call — `paired` as long as the values; `split` either 0
/// or the stream's [`CtlStream::legal_split`]; the stream's column bound
/// inside `x` and its row bound inside `split + my_y.len()` (with the
/// mirror, which reads `x` at rows and writes at columns, the larger of the
/// two inside both); `local` at least `split` long — and the `ctl-bound`
/// invariant of the stream then keep every value, pair and operand access
/// in bounds, so the unit kernels index without checks. A stream whose
/// substructures straddle `split`, or buffers too short for it, are refused
/// there, before any access.
///
/// Kept out of line: inlined into `SymSpmv`'s multiply closure, the block
/// loop slowed that closure's SSS arm (`small-cg` `spmv_p1_s` ~+8 %,
/// EXPERIMENTS "One head per row of blocks"), and a call per chunk costs
/// nothing measurable here.
#[inline(never)]
pub fn sym_stream<O: SymmetryOps, const K: usize>(
    stream: &CtlStream,
    paired: &[Val],
    x: &[[Val; K]],
    my_y: &mut [[Val; K]],
    split: usize,
    local: &mut [[Val; K]],
) {
    let values = stream.values();
    let (rows, cols) = (stream.row_end(), stream.col_end());
    let (x_end, y_end) = match O::MIRRORS {
        true => (rows.max(cols), rows.max(cols)),
        false => (cols, rows),
    };
    assert!(
        paired.len() == values.len()
            && (split == 0 || stream.legal_split() == Some(split))
            && x_end <= x.len()
            && y_end <= split + my_y.len()
            && split <= local.len(),
        "stream of {} values from row {} to {rows}, columns to {cols} (legal split {:?}) \
         refused at split {split} with paired ({}), x ({}), y ({}) and local ({})",
        values.len(),
        stream.first_row(),
        stream.legal_split(),
        paired.len(),
        x.len(),
        my_y.len(),
        local.len()
    );
    let mut sides = Sides {
        x,
        my_y,
        split,
        local,
    };
    let mut cursor = stream.cursor();
    let mut at = 0;
    // SAFETY(cert: ctl-bound): the delta and block arms below take every
    // body.
    while let Some(unit) = unsafe { cursor.next_unit() } {
        let (row, col, size) = (unit.row, unit.col, unit.size);
        // SAFETY(cert: ctl-bound): unit elements sum to `values.len()` (and
        // `paired` matches it), so the unit's `len` values and pairs follow
        // `at`; the dispatch hands each kernel the shape its id encodes;
        // every row is ≥ first row ≥ split and < row_end, every column <
        // col_end, and a substructure unit's columns lie on one side of a
        // nonzero split (the assert above).
        unsafe {
            let v = |len: usize| values.get_unchecked(at..at + len);
            let u = |len: usize| paired.get_unchecked(at..at + len);
            macro_rules! delta {
                ($w:literal) => {{
                    sides.delta::<O, $w>(cursor.body(size), v(size), u(size), row, col);
                    size
                }};
            }
            macro_rules! block {
                ($r:literal, $c:literal) => {{
                    let len = size * $r * $c;
                    sides.block::<O, $r, $c, 0>(cursor.body(size), v(len), u(len), row, col);
                    len
                }};
            }
            macro_rules! tri {
                ($r:literal) => {{
                    const T: usize = $r * ($r - 1) / 2;
                    let len = size * $r * $r + T;
                    sides.block::<O, $r, $r, T>(cursor.body(size), v(len), u(len), row, col);
                    len
                }};
            }
            at += crate::dispatch_unit!(unit.id, delta, block, tri);
        }
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
    /// A delta unit with `W`-byte column deltas, its row sum started from
    /// `0.0`. Its columns ascend, so they cross `split` at most once: the
    /// unit finds that point once and then runs a loop without a side test
    /// — from the first element on when it is anchored at or right of
    /// `split`, and always without the mirror.
    ///
    /// # Safety
    /// SAFETY(cert: ctl-bound): `v` and `u` hold the unit's `size ≥ 1`
    /// values and `body` its deltas; every column indexes `x`, `row` indexes
    /// `my_y` from `split ≤ row`, and with the mirror `row` indexes `x` and
    /// every column one target, both sized as `sym_stream` asserts.
    #[inline(always)]
    unsafe fn delta<O: SymmetryOps, const W: usize>(
        &mut self,
        body: &[[u8; W]],
        v: &[Val],
        u: &[Val],
        row: usize,
        col: usize,
    ) {
        let (x, split) = (self.x, self.split);
        let mut acc = [0.0; K];
        // Macros, not closures: a closure called from three places is not
        // reliably inlined, and this is one call per element. `$target` is
        // evaluated only with the mirror.
        macro_rules! element {
            ($target:expr, $c:expr, $v:expr, $u:expr) => {{
                axpy_lanes(&mut acc, $v, x.get_unchecked($c));
                if O::MIRRORS {
                    axpy_lanes($target, O::transposed($v, $u), x.get_unchecked(row));
                }
            }};
        }
        let mut c = col;
        let mut rest = body
            .iter()
            .zip(v.get_unchecked(1..))
            .zip(u.get_unchecked(1..));
        let (v0, u0) = (*v.get_unchecked(0), *u.get_unchecked(0));
        if !O::MIRRORS || c >= split {
            element!(self.my_y.get_unchecked_mut(c - split), c, v0, u0);
        } else {
            element!(self.local.get_unchecked_mut(c), c, v0, u0);
            for ((d, &v), &u) in rest.by_ref() {
                c += delta_of(d);
                if c >= split {
                    element!(self.my_y.get_unchecked_mut(c - split), c, v, u);
                    break;
                }
                element!(self.local.get_unchecked_mut(c), c, v, u);
            }
        }
        for ((d, &v), &u) in rest {
            c += delta_of(d);
            element!(self.my_y.get_unchecked_mut(c - split), c, v, u);
        }
        add_lanes(self.my_y.get_unchecked_mut(row - split), &acc);
    }

    /// A unit of `size` dense `R × C` blocks anchored in one row, by
    /// fixed-size array indexing. The `R` row sums stay in registers
    /// across the blocks — no transposed write reaches them, since every
    /// column of the strict lower triangle lies below every row. Boundary
    /// legality (§IV-B): all transposed writes of a unit land on its
    /// anchor's side of `split`, so the side test hoists out of the loop,
    /// and each block's transposed sums stay in registers until the block
    /// ends, when they go to that side: every element sees the float
    /// sequence of one-block units. A block's first row assigns its
    /// transposed sums: starting from `0.0 +` instead would cost an add per
    /// column and differ only where product and target are `−0.0`.
    ///
    /// The `T` values after the blocks (`T = 0`: none) are the unit's
    /// diagonal triangle, `i` entries in row `row + i` at columns `row …`.
    /// Both ends of each lie in rows of the unit, so its products (and with
    /// the mirror its transposed products) add into the `R` row sums in
    /// registers, row by row in the float sequence of the delta units it
    /// replaced — no write to `local` or `my_y`.
    ///
    /// # Safety
    /// SAFETY(cert: ctl-bound): as for `delta`, with `size·R·C + T` values
    /// and pairs, `gaps` the `size − 1` anchor gaps, rows `row..row + R`
    /// and each block's columns `c..c + C`, which lie on the anchor's side
    /// of `split`, and with `T > 0` the triangle's columns
    /// `row..row + R − 1`.
    #[inline(always)]
    unsafe fn block<O: SymmetryOps, const R: usize, const C: usize, const T: usize>(
        &mut self,
        gaps: &[[u8; 2]],
        v: &[Val],
        u: &[Val],
        row: usize,
        col: usize,
    ) {
        let (x, split) = (self.x, self.split);
        let (v, vt) = v.split_at_unchecked(v.len() - T);
        let (u, ut) = u.split_at_unchecked(u.len() - T);
        let v = v.as_chunks::<C>().0.as_chunks::<R>().0;
        let u = u.as_chunks::<C>().0.as_chunks::<R>().0;
        let slot = self.my_y.get_unchecked(row - split..);
        let mut yr = *slot.first_chunk::<R>().unwrap_unchecked();
        let (side, shift) = if O::MIRRORS && col < split {
            (&mut *self.local, 0)
        } else {
            (&mut *self.my_y, split)
        };
        let (mut gaps, mut c) = (gaps.iter(), col);
        for (v, u) in v.iter().zip(u) {
            let xc = x.get_unchecked(c..).first_chunk::<C>().unwrap_unchecked();
            let mut t = [[0.0; K]; C];
            for (i, ((yr, v), u)) in yr.iter_mut().zip(v).zip(u).enumerate() {
                for j in 0..K {
                    let mut acc = v[0] * xc[0][j];
                    for (&v, xc) in v[1..].iter().zip(&xc[1..]) {
                        acc += v * xc[j];
                    }
                    yr[j] += acc;
                    if O::MIRRORS {
                        let xr = x.get_unchecked(row + i)[j];
                        for ((t, &v), &u) in t.iter_mut().zip(v).zip(u) {
                            if i == 0 {
                                t[j] = O::transposed(v, u) * xr;
                            } else {
                                t[j] += O::transposed(v, u) * xr;
                            }
                        }
                    }
                }
            }
            if O::MIRRORS {
                let dst = side.get_unchecked_mut(c - shift..);
                let dst = dst.first_chunk_mut::<C>().unwrap_unchecked();
                for (dst, t) in dst.iter_mut().zip(&t) {
                    add_lanes(dst, t);
                }
            }
            c += gaps.next().map_or(0, delta_of);
        }
        if T > 0 {
            let mut k = 0;
            for i in 1..R {
                let mut acc = [0.0; K];
                for (j, yj) in yr[..i].iter_mut().enumerate() {
                    let (v, u) = (*vt.get_unchecked(k + j), *ut.get_unchecked(k + j));
                    axpy_lanes(&mut acc, v, x.get_unchecked(row + j));
                    if O::MIRRORS {
                        axpy_lanes(yj, O::transposed(v, u), x.get_unchecked(row + i));
                    }
                }
                add_lanes(&mut yr[i], &acc);
                k += i;
            }
        }
        let slot = self.my_y.get_unchecked_mut(row - split..);
        *slot.first_chunk_mut::<R>().unwrap_unchecked() = yr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DetectConfig {
        DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        }
    }

    #[test]
    fn spmv_matches_reference_on_patterns() {
        let mut coo = CooMatrix::new(20, 20);
        // Row, column and diagonal segments (delta units), a block and
        // scattered content.
        for c in 0..6 {
            coo.push(0, c, (c + 1) as Val);
        }
        for r in 3..9 {
            coo.push(r, 10, r as Val);
        }
        for k in 0..5 {
            coo.push(10 + k, 2 + k, 1.5);
        }
        for r in 0..3 {
            for c in 0..3 {
                coo.push(14 + r, 14 + c, (r + c) as Val + 0.5);
            }
        }
        coo.push(19, 0, -3.0);
        coo.canonicalize();

        let m = CsxMatrix::from_coo(&coo, &cfg());
        assert_eq!(m.nnz(), coo.nnz());
        let x = symspmv_sparse::dense::seeded_vector(20, 1);
        let mut y = vec![0.0; 20];
        let mut y_ref = vec![0.0; 20];
        m.spmv(&x, &mut y);
        coo.spmv_reference(&x, &mut y_ref);
        symspmv_sparse::dense::assert_vec_close(&y, &y_ref, 1e-12);
    }

    #[test]
    fn spmv_matches_on_generated_matrices() {
        for seed in 0..3u64 {
            let coo = symspmv_sparse::gen::banded_random(257, 17, 9.0, seed);
            let m = CsxMatrix::from_coo(&coo, &cfg());
            let x = symspmv_sparse::dense::seeded_vector(257, seed);
            let mut y = vec![0.0; 257];
            let mut y_ref = vec![0.0; 257];
            m.spmv(&x, &mut y);
            coo.spmv_reference(&x, &mut y_ref);
            symspmv_sparse::dense::assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn to_coo_round_trip() {
        let coo = symspmv_sparse::gen::block_structural(20, 3, 4.0, 6, 3);
        let m = CsxMatrix::from_coo(&coo, &cfg());
        let mut orig = coo.clone();
        orig.canonicalize();
        assert_eq!(m.to_coo(), orig);
    }

    #[test]
    fn try_from_coo_encodes_what_from_coo_does_and_reports_what_csr_does() {
        // Shuffled triplets, every third coordinate pushed twice.
        let base: Vec<_> = symspmv_sparse::gen::block_structural(20, 3, 4.0, 6, 3)
            .iter()
            .collect();
        let mut coo = CooMatrix::new(60, 60);
        for &(r, c, v) in base.iter().rev() {
            coo.push(r, c, v);
        }
        for &(r, c, _) in base.iter().step_by(3) {
            coo.push(r, c, 0.1);
        }
        assert!(!coo.is_canonical());
        let got = CsxMatrix::try_from_coo(&coo, &cfg()).unwrap();
        let want = CsxMatrix::from_coo(&coo, &cfg());
        assert_eq!(got.stream(), want.stream());
        assert_eq!(got, want);

        // A non-finite value is reported exactly as CSR reports it.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = coo.clone();
            c.push(7, 3, bad);
            let want = CsrMatrix::try_from_coo(&c).unwrap_err();
            let got = CsxMatrix::try_from_coo(&c, &cfg()).unwrap_err();
            assert!(
                matches!(got, SparseError::NonFiniteValue { row: 7, col: 3, .. }),
                "{got:?}"
            );
            // Debug text, since a NaN payload never compares equal.
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
        }
    }

    /// A dense 5 × 5 block: a `(5, 5)` shape would take it whole, but the
    /// pattern ids cannot name it.
    fn block_5x5() -> CooMatrix {
        let mut coo = CooMatrix::new(8, 8);
        for k in 0..25 {
            coo.push(1 + k / 5, 2 + k % 5, 1.0);
        }
        coo
    }

    #[test]
    fn a_config_outside_the_pattern_ids_is_refused_where_it_enters() {
        let coo = block_5x5();
        for bad in [(5, 5), (5, 2), (2, 1)] {
            let config = DetectConfig {
                block_shapes: vec![(2, 2), bad],
                ..cfg()
            };
            let err = CsxMatrix::try_from_coo(&coo, &config).unwrap_err();
            assert!(
                matches!(&err, SparseError::InvalidArgument { msg } if msg.contains("block_shapes")),
                "{err:?}"
            );
        }
        assert_eq!(DetectConfig::default().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "DetectConfig::block_shapes holds (5, 5)")]
    fn the_infallible_constructor_names_the_refused_field() {
        let config = DetectConfig {
            block_shapes: vec![(5, 5)],
            ..cfg()
        };
        CsxMatrix::from_coo(&block_5x5(), &config);
    }

    #[test]
    fn stats_are_consistent() {
        let coo = symspmv_sparse::gen::block_structural(40, 3, 6.0, 10, 4);
        let m = CsxMatrix::from_coo(&coo, &cfg());
        let st = m.stats();
        assert!(st.size_bytes > 0);
        assert!(
            st.coverage > 0.3,
            "block matrix should be well covered: {}",
            st.coverage
        );
        assert!(st.compression_ratio() > 0.0, "CSX should beat CSR here");
        assert!(st.substructure_units > 0);
    }

    #[test]
    fn chunked_rows_compose() {
        let c = symspmv_sparse::gen::banded_random(120, 9, 6.0, 9);
        let csr = CsrMatrix::from_coo(&c);
        let rows = |lo, hi| RowView::new(0, 120, csr.rowptr(), csr.colind()).slice(lo..hi);
        let a = CsxMatrix::from_rows(120, rows(0, 60), csr.values(), &cfg());
        let b = CsxMatrix::from_rows(120, rows(60, 120), csr.values(), &cfg());
        let x = symspmv_sparse::dense::seeded_vector(120, 2);
        let mut y = vec![0.0; 120];
        a.spmv_accumulate(&x, &mut y);
        b.spmv_accumulate(&x, &mut y);
        let mut y_ref = vec![0.0; 120];
        c.spmv_reference(&x, &mut y_ref);
        symspmv_sparse::dense::assert_vec_close(&y, &y_ref, 1e-12);
    }

    #[test]
    fn empty_and_tiny_matrices() {
        let empty = CooMatrix::new(3, 3);
        let m = CsxMatrix::from_coo(&empty, &cfg());
        let x = vec![1.0; 3];
        let mut y = vec![9.0; 3];
        m.spmv(&x, &mut y);
        assert_eq!(y, vec![0.0; 3]);

        let mut one = CooMatrix::new(1, 1);
        one.push(0, 0, 2.5);
        let m = CsxMatrix::from_coo(&one, &cfg());
        let mut y = vec![0.0; 1];
        m.spmv(&[2.0], &mut y);
        assert_eq!(y, vec![5.0]);
    }
}

/// The unchecked [`spmv_stream`] against [`crate::checked`]'s oracle, bit
/// for bit. The mirrored instances of [`sym_stream`] are compared on
/// CSX-Sym's own chunks, in the crate that builds them.
#[cfg(test)]
mod unchecked_decode_tests {
    use super::*;
    use crate::checked::checked_sym_stream;
    use symspmv_runtime::balanced_ranges;
    use symspmv_runtime::partition::csr_row_weights;
    use symspmv_sparse::dense::seeded_vector;
    use symspmv_sparse::suite::{self, KIND_SUITE, SUITE};

    fn bits<const K: usize>(v: &[[Val; K]]) -> Vec<u64> {
        v.iter().flatten().map(|x| x.to_bits()).collect()
    }

    /// `spmv_stream` against the checked kernel's no-mirror instance, both
    /// from `y`.
    fn compare_csx(stream: &CtlStream, x: &[Val], y: &[Val], what: &str) {
        let (mut want, mut got) = (y.to_vec(), y.to_vec());
        let (xk, want_k) = (x.as_chunks().0, want.as_chunks_mut().0);
        checked_sym_stream::<NoMirror, 1>(stream, stream.values(), xk, want_k, 0, &mut []);
        spmv_stream(stream, x, &mut got);
        assert_eq!(
            bits(got.as_chunks::<1>().0),
            bits(want.as_chunks::<1>().0),
            "{what}"
        );
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

    /// The suite analogs (their leading 512 rows and columns, so the debug
    /// build stays quick), row-partitioned as the CSX baseline partitions
    /// them for 1, 2, 3 and 8 threads, each chunk encoded alone; a 4 × 8
    /// and an 8 × 4 matrix whose block units' columns overlap their rows,
    /// one of them carrying its diagonal triangle; and a delta unit whose
    /// products are all `−0.0`, into a `y` of `−0.0`s.
    #[test]
    fn unchecked_decode_matches_the_checked_one_bit_for_bit() {
        let config = DetectConfig::default();
        for spec in SUITE.iter().chain(&KIND_SUITE) {
            let csr = CsrMatrix::from_coo(&leading(&suite::generate(spec, 0.001).coo, 512));
            let x = seeded_vector(csr.ncols() as usize, 5);
            let y = vec![0.0; csr.nrows() as usize];
            let view = RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind());
            for p in [1, 2, 3, 8] {
                for part in balanced_ranges(&csr_row_weights(csr.rowptr()), p) {
                    let rows = view.slice(part.start..part.end);
                    let chunk = CsxMatrix::from_rows(csr.nrows(), rows, csr.values(), &config);
                    compare_csx(chunk.stream(), &x, &y, &format!("{} p={p}", spec.name));
                }
            }
        }

        let cfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        // Rows 1–2 × columns 1–2, and rows 2–3 × columns 0–1 with the
        // triangle entry (3, 2); each matrix also reaches its last row and
        // column.
        let blocks: [&[(Idx, Idx)]; 2] = [
            &[(1, 1), (1, 2), (2, 1), (2, 2)],
            &[(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)],
        ];
        for (nrows, ncols) in [(4, 8), (8, 4)] {
            for (b, entries) in blocks.iter().enumerate() {
                let mut coo = CooMatrix::new(nrows, ncols);
                for (k, &(r, c)) in entries.iter().enumerate() {
                    coo.push(r, c, k as Val + 1.5);
                }
                coo.push(0, ncols - 1, -2.0);
                coo.push(nrows - 1, 0, 3.0);
                let m = CsxMatrix::from_coo(&coo, &cfg);
                let mut units = Vec::new();
                m.stream()
                    .walk(|u| units.push((u.kind.is_some(), u.elements)), |_, _, _| {});
                let elements = entries.len() as u32;
                assert!(
                    units.contains(&(true, elements)),
                    "{nrows} × {ncols} #{b}: {units:?}"
                );
                let x = seeded_vector(ncols as usize, 3);
                let what = format!("{nrows} × {ncols} #{b}");
                compare_csx(m.stream(), &x, &vec![0.0; nrows as usize], &what);
            }
        }
        // Every product −0.0: `0.0 + −0.0 + −0.0` is +0.0, and so is the
        // row it is added to.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(1, 0, 2.0);
        coo.push(1, 2, -3.0);
        let stream = crate::encode::encode_coo(&coo, &cfg);
        let (x, y) = ([-0.0, 5.0, 0.0], [-0.0; 3]);
        compare_csx(&stream, &x, &y, "−0.0 products");
        let mut got = y;
        spmv_stream(&stream, &x, &mut got);
        assert_eq!(
            got.map(Val::to_bits),
            [(-0.0f64).to_bits(), 0, (-0.0f64).to_bits()]
        );
    }

    /// The kernel's one assert runs before any unchecked access: an `x`
    /// shorter than the stream's column bound is refused.
    #[test]
    #[should_panic(expected = "refused at split 0")]
    fn an_x_short_of_the_column_bound_is_refused() {
        let mut coo = CooMatrix::new(4, 8);
        coo.push(2, 7, 1.0);
        let m = CsxMatrix::from_coo(&coo, &DetectConfig::default());
        assert_eq!(m.stream().col_end(), 8);
        spmv_stream(m.stream(), &[1.0; 7], &mut [0.0; 4]);
    }
}
