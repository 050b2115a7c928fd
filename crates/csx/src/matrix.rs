//! The CSX matrix type and its SpMV kernel.

use crate::detect::DetectConfig;
use crate::encode::{delta_of, encode_rows, CtlStream, UnitCursor, UnitHead};
use crate::pattern::run_strides;
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
    /// Number of substructure units.
    pub substructure_units: usize,
    /// Number of delta units.
    pub delta_units: usize,
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
/// for c in 0..6 {
///     a.push(1, c, 1.0); // a horizontal run CSX will encode as one unit
/// }
/// let cfg = DetectConfig { min_coverage: 0.0, ..DetectConfig::default() };
/// let m = CsxMatrix::from_coo(&a, &cfg);
/// assert_eq!(m.stats().substructure_units, 1);
/// let mut y = vec![0.0; 4];
/// m.spmv(&vec![1.0; 8], &mut y);
/// assert_eq!(y[1], 6.0);
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
            size_bytes: encoded.stream.ctl.len() + 8 * view.nnz(),
            csr_bytes: 12 * view.nnz() + 4 * (nrows as usize + 1),
            coverage: encoded.coverage,
            substructure_units: encoded.substructure_units,
            delta_units: encoded.delta_units,
        };
        CsxMatrix {
            nrows,
            ncols: view.ncols,
            stream: encoded.stream,
            stats,
        }
    }

    /// Validated constructor for matrices from outside the process: the
    /// triplets go through [`CsrMatrix::try_from_coo`] — duplicates summed,
    /// a non-finite value or an nnz beyond the index type reported as a
    /// structured [`SparseError`] — and its rows are encoded in place.
    pub fn try_from_coo(coo: &CooMatrix, config: &DetectConfig) -> Result<Self, SparseError> {
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
        self.stream.values.len()
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
    /// row-partitioned chunks and vertical units compose.
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

/// The SpMV kernel over a raw ctl stream (`y += A·x`): each unit head
/// selects, once, the fixed-shape kernel of its pattern id — the
/// ahead-of-time stand-in for CSX's LLVM-generated kernels (substitution
/// S2).
pub fn spmv_stream(stream: &CtlStream, x: &[Val], y: &mut [Val]) {
    let mut cursor = UnitCursor::new(&stream.ctl);
    let mut values = &stream.values[..];
    while let Some(unit) = cursor.next_unit() {
        let (vals, rest) = values.split_at(unit.size);
        values = rest;
        macro_rules! delta {
            ($w:literal) => {
                delta::<$w>(cursor.body(unit.size), vals, &unit, x, y)
            };
        }
        macro_rules! run {
            ($dir:literal, $delta:expr) => {
                run::<$dir>($delta, vals, &unit, x, y)
            };
        }
        macro_rules! block {
            ($r:literal, $c:literal) => {
                block::<$r, $c>(vals, &unit, x, y)
            };
        }
        crate::dispatch_unit!(unit.id, delta, run, block);
    }
}

/// A delta unit with `W`-byte column deltas.
#[inline(always)]
fn delta<const W: usize>(
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

/// A 1-D run in direction `DIR` (pattern-id order) with stride `delta`; a
/// horizontal run sums in a register before it touches its one row.
#[inline(always)]
fn run<const DIR: u8>(delta: usize, vals: &[Val], unit: &UnitHead, x: &[Val], y: &mut [Val]) {
    let (dr, dc) = run_strides::<DIR>(delta);
    let (mut r, mut c) = (unit.row, unit.col);
    let mut acc = 0.0;
    for &v in vals {
        match DIR {
            0 => acc += v * x[c],
            _ => y[r] += v * x[c],
        }
        r += dr;
        c = c.wrapping_add(dc);
    }
    if DIR == 0 {
        y[unit.row] += acc;
    }
}

/// A dense `R × C` block: one length check per operand, then fixed-size
/// array indexing.
#[inline(always)]
fn block<const R: usize, const C: usize>(vals: &[Val], unit: &UnitHead, x: &[Val], y: &mut [Val]) {
    let (Some(v), Some(xc), Some(yr)) = (
        vals.as_chunks::<C>().0.first_chunk::<R>(),
        x[unit.col..].first_chunk::<C>(),
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
        // Horizontal, vertical, diagonal, block and scattered content.
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
