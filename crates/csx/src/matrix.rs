//! The CSX matrix type and its SpMV kernel.

use crate::detect::DetectConfig;
use crate::encode::{delta_of, encode_rows, CtlStream, UnitHead};
use crate::rows::RowView;
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

/// The SpMV kernel over an encoded stream (`y += A·x`): each unit head
/// selects, once, the fixed-shape kernel of its pattern id — the
/// ahead-of-time stand-in for CSX's LLVM-generated kernels (substitution
/// S2). One assert per call bounds `x` and `y` by the stream's extent; the
/// unit kernels then index without checks (`ctl-bound`).
pub fn spmv_stream(stream: &CtlStream, x: &[Val], y: &mut [Val]) {
    assert!(
        stream.col_end() <= x.len() && stream.row_end() <= y.len(),
        "stream reaching row {} and column {} exceeds y ({}) or x ({})",
        stream.row_end(),
        stream.col_end(),
        y.len(),
        x.len()
    );
    let mut cursor = stream.cursor();
    let (values, mut at) = (stream.values(), 0);
    // SAFETY(cert: ctl-bound): the delta and block arms below take every
    // body.
    while let Some(unit) = unsafe { cursor.next_unit() } {
        // SAFETY(cert: ctl-bound): unit elements sum to `values.len()`, so
        // the unit's `len` values follow `at`; the dispatch hands each
        // kernel the shape its id encodes, whose rows stay below
        // `row_end ≤ y.len()` and columns below `col_end ≤ x.len()` (the
        // assert above).
        unsafe {
            let vals = |len: usize| values.get_unchecked(at..at + len);
            macro_rules! delta {
                ($w:literal) => {{
                    delta::<$w>(cursor.body(unit.size), vals(unit.size), &unit, x, y);
                    unit.size
                }};
            }
            macro_rules! block {
                ($r:literal, $c:literal) => {{
                    let len = unit.size * $r * $c;
                    block::<$r, $c, 0>(cursor.body(unit.size), vals(len), &unit, x, y);
                    len
                }};
            }
            macro_rules! tri {
                ($r:literal) => {{
                    const T: usize = $r * ($r - 1) / 2;
                    let len = unit.size * $r * $r + T;
                    block::<$r, $r, T>(cursor.body(unit.size), vals(len), &unit, x, y);
                    len
                }};
            }
            at += crate::dispatch_unit!(unit.id, delta, block, tri);
        }
    }
}

/// A delta unit with `W`-byte column deltas.
///
/// # Safety
/// SAFETY(cert: ctl-bound): `vals` holds the unit's `size ≥ 1` values and
/// `body` its deltas; its row indexes `y` and its columns index `x`.
#[inline(always)]
unsafe fn delta<const W: usize>(
    body: &[[u8; W]],
    vals: &[Val],
    unit: &UnitHead,
    x: &[Val],
    y: &mut [Val],
) {
    let mut c = unit.col;
    let mut acc = vals.get_unchecked(0) * x.get_unchecked(c);
    for (d, &v) in body.iter().zip(vals.get_unchecked(1..)) {
        c += delta_of(d);
        acc += v * x.get_unchecked(c);
    }
    *y.get_unchecked_mut(unit.row) += acc;
}

/// A unit of `size` dense `R × C` blocks anchored in one row, and the `T`
/// values of its diagonal triangle (`T = 0`: none), by fixed-size array
/// indexing: the `R` row sums stay in registers across the blocks, each
/// block adding its row sums in turn; then row `row + i` of the triangle
/// adds its `i` products, summed as a delta unit sums them.
///
/// # Safety
/// SAFETY(cert: ctl-bound): `vals` holds `size·R·C + T` values and `gaps`
/// the `size − 1` anchor gaps; every block's columns `c..c + C` index `x`
/// and rows `row..row + R` index `y`, and with `T > 0` so do the triangle's
/// columns `row..row + R − 1`.
#[inline(always)]
unsafe fn block<const R: usize, const C: usize, const T: usize>(
    gaps: &[[u8; 2]],
    vals: &[Val],
    unit: &UnitHead,
    x: &[Val],
    y: &mut [Val],
) {
    let (vals, tri) = vals.split_at_unchecked(vals.len() - T);
    let blocks = vals.as_chunks::<C>().0.as_chunks::<R>().0;
    let slot = y
        .get_unchecked_mut(unit.row..)
        .first_chunk_mut::<R>()
        .unwrap_unchecked();
    let (mut yr, mut gaps, mut c) = (*slot, gaps.iter(), unit.col);
    for v in blocks {
        let xc = x.get_unchecked(c..).first_chunk::<C>().unwrap_unchecked();
        for (yr, v) in yr.iter_mut().zip(v) {
            let mut acc = v[0] * xc[0];
            for j in 1..C {
                acc += v[j] * xc[j];
            }
            *yr += acc;
        }
        c += gaps.next().map_or(0, delta_of);
    }
    if T > 0 {
        let xr = |j: usize| *x.get_unchecked(unit.row + j);
        let mut k = 0;
        for (i, yr) in yr.iter_mut().enumerate().skip(1) {
            let mut acc = tri.get_unchecked(k) * xr(0);
            for j in 1..i {
                acc += tri.get_unchecked(k + j) * xr(j);
            }
            *yr += acc;
            k += i;
        }
    }
    *slot = yr;
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

/// The CSX kernel as it was written before its unit kernels went unchecked
/// — kept as the oracle the unchecked [`spmv_stream`] must match bit for
/// bit.
#[cfg(test)]
mod unchecked_decode_tests {
    use super::*;
    use symspmv_runtime::{balanced_ranges, partition::csr_row_weights};
    use symspmv_sparse::dense::seeded_vector;
    use symspmv_sparse::suite::{self, KIND_SUITE, SUITE};

    fn checked_spmv_stream(stream: &CtlStream, x: &[Val], y: &mut [Val]) {
        let mut cursor = stream.cursor();
        let mut values = stream.values();
        let mut take = |len: usize| {
            let vals;
            (vals, values) = values.split_at(len);
            vals
        };
        // SAFETY(cert: ctl-bound): the delta and block arms below take
        // every body.
        while let Some(unit) = unsafe { cursor.next_unit() } {
            macro_rules! delta {
                ($w:literal) => {{
                    // SAFETY(cert: ctl-bound): the id names this width.
                    let body = unsafe { cursor.body(unit.size) };
                    checked_delta::<$w>(body, take(unit.size), &unit, x, y)
                }};
            }
            macro_rules! block {
                ($r:literal, $c:literal) => {{
                    // SAFETY(cert: ctl-bound): the id names a block unit.
                    let gaps = unsafe { cursor.body(unit.size) };
                    checked_block::<$r, $c>(gaps, take(unit.size * $r * $c), &unit, x, y)
                }};
            }
            macro_rules! tri {
                ($r:literal) => {{
                    block!($r, $r);
                    checked_triangle($r, take($r * ($r - 1) / 2), &unit, x, y)
                }};
            }
            crate::dispatch_unit!(unit.id, delta, block, tri);
        }
        assert!(values.is_empty());
    }

    fn checked_delta<const W: usize>(
        body: &[[u8; W]],
        vals: &[Val],
        unit: &UnitHead,
        x: &[Val],
        y: &mut [Val],
    ) {
        let mut c = unit.col;
        let mut acc = vals[0] * x[c];
        for (d, &v) in body.iter().zip(&vals[1..]) {
            c += delta_of(d);
            acc += v * x[c];
        }
        y[unit.row] += acc;
    }

    /// A triangle as the delta units it replaced: row `row + i`'s `i`
    /// entries, at columns `row …` (deltas of 1), one unit per row.
    fn checked_triangle(side: usize, vals: &[Val], unit: &UnitHead, x: &[Val], y: &mut [Val]) {
        let mut vals = vals;
        for i in 1..side {
            let row = UnitHead {
                row: unit.row + i,
                col: unit.row,
                size: i,
                ..*unit
            };
            let v;
            (v, vals) = vals.split_at(i);
            checked_delta::<1>(&vec![[1]; i - 1], v, &row, x, y);
        }
        assert!(vals.is_empty());
    }

    /// One block at a time, as the one-block units before grouping were
    /// multiplied: each block's row sums go to `y` before the next block.
    fn checked_block<const R: usize, const C: usize>(
        gaps: &[[u8; 2]],
        vals: &[Val],
        unit: &UnitHead,
        x: &[Val],
        y: &mut [Val],
    ) {
        let (blocks, rest) = vals.as_chunks::<C>();
        assert!(rest.is_empty() && blocks.len() == R * unit.size);
        assert_eq!(gaps.len() + 1, unit.size);
        let mut c = unit.col;
        for (k, v) in blocks.chunks(R).enumerate() {
            if k > 0 {
                c += delta_of(&gaps[k - 1]);
            }
            let (Some(xc), Some(yr)) = (
                x[c..].first_chunk::<C>(),
                y[unit.row..].first_chunk_mut::<R>(),
            ) else {
                unreachable!("block unit reaches outside the matrix");
            };
            for (yr, v) in yr.iter_mut().zip(v) {
                let mut acc = v[0] * xc[0];
                for j in 1..C {
                    acc += v[j] * xc[j];
                }
                *yr += acc;
            }
        }
    }

    /// The suite analogs (their leading 512 rows and columns, so the debug
    /// build stays quick), row-partitioned as the CSX baseline partitions
    /// them for 1, 2, 3 and 8 threads, each chunk encoded alone.
    #[test]
    fn unchecked_decode_matches_the_checked_one_bit_for_bit() {
        let config = DetectConfig::default();
        for spec in SUITE.iter().chain(&KIND_SUITE) {
            let mut coo = CooMatrix::new(512, 512);
            for (r, c, v) in suite::generate(spec, 0.001).coo.iter() {
                if r < 512 && c < 512 {
                    coo.push(r, c, v);
                }
            }
            let csr = CsrMatrix::from_coo(&coo);
            let n = csr.nrows() as usize;
            let x = seeded_vector(csr.ncols() as usize, 5);
            let view = RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind());
            for p in [1, 2, 3, 8] {
                let (mut want, mut got) = (vec![0.0; n], vec![0.0; n]);
                for part in balanced_ranges(&csr_row_weights(csr.rowptr()), p) {
                    let rows = view.slice(part.start..part.end);
                    let chunk = CsxMatrix::from_rows(csr.nrows(), rows, csr.values(), &config);
                    checked_spmv_stream(chunk.stream(), &x, &mut want);
                    spmv_stream(chunk.stream(), &x, &mut got);
                }
                let bits = |v: &[Val]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{} p={p}", spec.name);
            }
        }
    }

    /// The kernel's one assert runs before any unchecked access: an `x`
    /// shorter than the stream's column bound is refused.
    #[test]
    #[should_panic(expected = "exceeds y")]
    fn an_x_short_of_the_column_bound_is_refused() {
        let mut coo = CooMatrix::new(4, 8);
        coo.push(2, 7, 1.0);
        let m = CsxMatrix::from_coo(&coo, &DetectConfig::default());
        assert_eq!(m.stream().col_end(), 8);
        spmv_stream(m.stream(), &[1.0; 7], &mut [0.0; 4]);
    }
}
