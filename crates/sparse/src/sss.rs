//! Symmetric Sparse Skyline — the symmetric baseline format (§II-B).
//!
//! SSS stores the main diagonal densely in `dvalues` and the strict lower
//! triangle in CSR layout. Its size model is Eq. 2 of the paper:
//! `S_SSS = 6·(NNZ + N) + 4` bytes, where `NNZ` counts the non-zeros of the
//! *full* matrix.
//!
//! The same half storage carries all three [`SymmetryKind`]s: a skew
//! matrix stores the strict lower triangle with an implicit sign flip on
//! the mirror (and an identically zero diagonal); a structurally symmetric
//! matrix stores a paired `upper_values` array alongside the lower values
//! (`upper_values[j]` is `a[colind[j]][r]` for lower entry `j`).

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::error::SparseError;
use crate::rng::avalanche;
use crate::rowmajor::{RowMajor, Rows};
use crate::spmd::{Serial, Spmd};
use crate::symmetry::{SymmetryKind, SymmetryOps};
use crate::with_symmetry_ops;
use crate::{Idx, Val};
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::{Mutex, OnceLock, PoisonError};

/// A symmetric sparse matrix in SSS format (diagonal + strict lower CSR).
///
/// ```
/// use symspmv_sparse::{CooMatrix, SssMatrix};
/// let mut a = CooMatrix::new(2, 2);
/// a.push(0, 0, 4.0);
/// a.push(1, 1, 3.0);
/// a.push(1, 0, 1.0);
/// a.push(0, 1, 1.0);
/// let sss = SssMatrix::from_coo(&a, 0.0).unwrap();
/// assert_eq!(sss.lower_nnz(), 1); // only the strict lower triangle stored
/// let mut y = vec![0.0; 2];
/// sss.spmv(&[1.0, 2.0], &mut y); // Alg. 2 of the paper
/// assert_eq!(y, vec![6.0, 7.0]);
/// ```
#[derive(Debug, Clone)]
pub struct SssMatrix {
    n: Idx,
    kind: SymmetryKind,
    dvalues: Vec<Val>,
    rowptr: Vec<Idx>,
    colind: Vec<Idx>,
    values: Vec<Val>,
    /// Paired upper-triangle values in lower-CSR order; empty unless
    /// `kind == Structural`.
    upper_values: Vec<Val>,
    /// Lazily computed structural fingerprint. The matrix is immutable
    /// after construction (no `&mut self` methods exist), so the cached
    /// value can never go stale.
    fp: OnceLock<u64>,
}

// Manual impl: equality is over the matrix content only — whether the
// fingerprint cache happens to be populated is not part of the value.
impl PartialEq for SssMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.kind == other.kind
            && self.dvalues == other.dvalues
            && self.rowptr == other.rowptr
            && self.colind == other.colind
            && self.values == other.values
            && self.upper_values == other.upper_values
    }
}

/// Below this many stored (strict-lower) entries per band, the COO → SSS
/// conversion runs as one band on the caller and spends no pool round. On
/// the 2-vCPU reference host the serial conversion costs 18–30 ns per stored
/// entry (`hood`: 28–47 ms for 1.57 M, pass 1 and the first touch of the
/// output pages included), and a split one spends two rounds, each ~65 µs
/// when it has to wake parked workers (a warm round is ~1 µs,
/// `runtime.pool_round_s`). A band of this many entries carries ≥ 1.2 ms,
/// so the half a split saves is at least ~9× what its rounds cost, and
/// `thermal2` at the benchmark's scale (~34 k entries) stays on the caller.
pub const CONVERT_GRAIN: usize = 1 << 16;

impl SssMatrix {
    /// Builds an SSS matrix from a full symmetric COO matrix.
    ///
    /// The input must be square and numerically symmetric (checked with
    /// absolute tolerance `tol`; pass `0.0` for exact symmetry).
    pub fn from_coo(coo: &CooMatrix, tol: Val) -> Result<Self, SparseError> {
        Self::from_coo_kind(coo, SymmetryKind::Symmetric, tol)
    }

    /// Builds the half storage for any [`SymmetryKind`] from a full COO
    /// matrix.
    ///
    /// The input must be square and satisfy the kind's relation (numeric
    /// checks use absolute tolerance `tol`): symmetric — `a_ji = a_ij`;
    /// skew — `a_ji = -a_ij` with every stored diagonal entry zero
    /// (nonzero diagonals are rejected as
    /// [`SparseError::SkewNonzeroDiagonal`], and the stored diagonal is
    /// identically zero); structural — every off-diagonal entry paired,
    /// with the upper value of each pair kept in `upper_values`.
    ///
    /// # Panics
    ///
    /// If the non-zero count exceeds [`Idx::MAX`], with the message of the
    /// [`SparseError::IndexOverflow`] that [`SssMatrix::try_from_coo_kind`]
    /// returns.
    pub fn from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        tol: Val,
    ) -> Result<Self, SparseError> {
        Self::from_coo_kind_on(coo, kind, tol, &Serial(1))
    }

    /// [`SssMatrix::from_coo_kind`] on `runner`'s shares: one band per
    /// [`CONVERT_GRAIN`] stored entries, at most one per share, and with
    /// more than one band the pass over the triplets and the mirror sweep
    /// each run as one round of `runner`. The matrix and the error are
    /// those of the serial constructor, bit for bit.
    pub fn from_coo_kind_on(
        coo: &CooMatrix,
        kind: SymmetryKind,
        tol: Val,
        runner: &dyn Spmd,
    ) -> Result<Self, SparseError> {
        Self::build(coo, kind, tol, false, runner, grain_bands(runner, coo))
    }

    /// Fully validated constructor: beyond [`SssMatrix::from_coo`]'s
    /// square/symmetric checks, rejects non-finite values and index
    /// overflow with a structured [`SparseError`]. Duplicate coordinates
    /// are summed in insertion order, as by [`CooMatrix::canonicalize`].
    ///
    /// This is the entry point for matrices from outside the process;
    /// `from_coo` remains for trusted (generated) inputs.
    pub fn try_from_coo(coo: &CooMatrix, tol: Val) -> Result<Self, SparseError> {
        Self::try_from_coo_kind(coo, SymmetryKind::Symmetric, tol)
    }

    /// Fully validated kind-aware constructor (see
    /// [`SssMatrix::try_from_coo`] and [`SssMatrix::from_coo_kind`]).
    pub fn try_from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        tol: Val,
    ) -> Result<Self, SparseError> {
        Self::try_from_coo_kind_on(coo, kind, tol, &Serial(1))
    }

    /// [`SssMatrix::try_from_coo_kind`] on `runner`'s shares, as
    /// [`SssMatrix::from_coo_kind_on`] runs.
    pub fn try_from_coo_kind_on(
        coo: &CooMatrix,
        kind: SymmetryKind,
        tol: Val,
        runner: &dyn Spmd,
    ) -> Result<Self, SparseError> {
        if !tol.is_finite() || tol < 0.0 {
            return Err(SparseError::InvalidArgument {
                msg: format!("symmetry tolerance must be finite and >= 0, got {tol}"),
            });
        }
        Self::build(coo, kind, tol, true, runner, grain_bands(runner, coo))
    }

    /// The one COO → SSS conversion. Reads `coo` in place through a
    /// [`RowMajor`] view (pass 1: on canonical triplets one fused pass that
    /// checks order and finiteness and finds the row starts and diagonal
    /// splits — nothing is copied or sorted), then fills the exactly sized
    /// arrays in one sweep over the entries on and below the diagonal that
    /// also checks the kind's relation against the upper triangle (pass 2).
    /// `validated` rejects a non-finite value before the sweep; the scan
    /// that names it runs only when there is one.
    ///
    /// With `bands > 1`, pass 1 runs as that many shares over ranges of
    /// the triplets, and pass 2 as that many row bands balanced by stored
    /// entries, band `i` on share `i` of `runner`, each writing its rows'
    /// slices of the arrays; one band runs on the caller without a round.
    /// The bands all hold iff the one-band sweep does, so if one fails — a
    /// bad input, or a share that panicked — the one-band sweep reruns on
    /// the caller and names the error (a failed pass-1 round is redone on
    /// the caller too): a pool fault costs time, never the build.
    ///
    /// Errors come in the order: not square, non-zero count overflow, the
    /// row-major-first non-finite value, the row-major-first entry breaking
    /// the relation.
    fn build(
        coo: &CooMatrix,
        kind: SymmetryKind,
        tol: Val,
        validated: bool,
        runner: &dyn Spmd,
        bands: usize,
    ) -> Result<Self, SparseError> {
        if coo.nrows() != coo.ncols() {
            return Err(SparseError::NotSquare {
                nrows: coo.nrows(),
                ncols: coo.ncols(),
            });
        }
        let entries = RowMajor::of_on(coo, runner, bands);
        if validated {
            entries.check_finite()?;
        }
        entries.rows().assert_nnz();
        let n = coo.nrows() as usize;
        // Row `r` stores exactly its entries left of the diagonal, so the
        // row pointers and the array sizes are known before the sweep.
        let lower = entries.lower_rowptr();
        let rowptr: Vec<Idx> = lower.iter().map(|&p| p as Idx).collect();
        let stored = lower[n];
        // The sweep writes every slot of the lower arrays, so they start
        // uninitialized; only the diagonal, which it sums into, is zeroed.
        let mut dvalues = vec![0.0; n];
        let mut colind = Vec::with_capacity(stored);
        let mut values = Vec::with_capacity(stored);
        // Structural storage pairs each lower entry with its mirror value,
        // in lower-CSR order, so the kernels' sequential value cursor
        // walks both arrays in lockstep.
        let upper = if kind.has_upper_values() { stored } else { 0 };
        let mut upper_values = Vec::with_capacity(upper);
        let rows = entries.rows();
        let banded = bands > 1 && {
            let out = Out::all(&mut colind, &mut values, &mut upper_values, &mut dvalues);
            sweep_bands(rows, lower, kind, tol, out, bands, runner)
        };
        if !banded {
            if bands > 1 {
                // A band that ran may have summed its diagonals already;
                // every other slot is overwritten.
                dvalues.fill(0.0);
            }
            let mut out = Out::all(&mut colind, &mut values, &mut upper_values, &mut dvalues);
            rows.check_mirrors(kind, tol, out.emit(kind))?;
            assert!(out.filled(), "the mirror sweep writes every lower slot");
        }
        // SAFETY(cert: sweep-fills): the arrays hold exactly `stored` and
        // `upper` slots of capacity (`Vec::with_capacity`); either the bands,
        // which tile them, each filled their slice (`Out::filled`, checked by
        // `sweep_bands`), or the one-band sweep filled them all (the assert
        // above).
        unsafe {
            colind.set_len(stored);
            values.set_len(stored);
            upper_values.set_len(upper);
        }
        Ok(SssMatrix {
            n: coo.nrows(),
            kind,
            dvalues,
            rowptr,
            colind,
            values,
            upper_values,
            fp: OnceLock::new(),
        })
    }

    /// Matrix dimension `N`.
    pub fn n(&self) -> Idx {
        self.n
    }

    /// The symmetry kind this storage satisfies.
    pub fn kind(&self) -> SymmetryKind {
        self.kind
    }

    /// The paired upper-triangle values, aligned with
    /// [`SssMatrix::values`]: for a structural matrix this is the explicit
    /// `upper_values` array (`paired_values()[j]` is `a[colind[j]][r]` for
    /// lower entry `j` of row `r`); for the numeric kinds it aliases the
    /// lower values (the mirror is `±values[j]`), so kernels can always
    /// zip a pair slice.
    pub fn paired_values(&self) -> &[Val] {
        if self.kind.has_upper_values() {
            &self.upper_values
        } else {
            &self.values
        }
    }

    /// The raw structural `upper_values` array (empty unless the kind is
    /// [`SymmetryKind::Structural`]).
    pub fn upper_values(&self) -> &[Val] {
        &self.upper_values
    }

    /// Dense diagonal array (`N` entries, zero where structurally absent).
    pub fn dvalues(&self) -> &[Val] {
        &self.dvalues
    }

    /// Row pointers of the strict lower triangle.
    pub fn rowptr(&self) -> &[Idx] {
        &self.rowptr
    }

    /// Column indices of the strict lower triangle.
    pub fn colind(&self) -> &[Idx] {
        &self.colind
    }

    /// Values of the strict lower triangle.
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// Non-zeros stored (strict lower triangle only).
    pub fn lower_nnz(&self) -> usize {
        self.colind.len()
    }

    /// Non-zeros of the represented full matrix, counting the structural
    /// diagonal entries.
    pub fn full_nnz(&self) -> usize {
        let diag_nnz = self.dvalues.iter().filter(|&&d| d != 0.0).count();
        2 * self.lower_nnz() + diag_nnz
    }

    /// Size of the representation in bytes — Eq. 2 of the paper:
    /// `S_SSS = 6·(NNZ + N) + 4`, with `NNZ` the full-matrix non-zero count.
    ///
    /// (Derivation: values+colind store `(NNZ − N)/2` entries at 12 bytes
    /// each, dvalues stores `N` doubles, rowptr `N + 1` four-byte indices.)
    ///
    /// A structural matrix additionally stores the paired upper values
    /// (8 bytes per lower entry) — still well below full CSR, which pays
    /// indices *and* row structure for both triangles.
    pub fn size_bytes(&self) -> usize {
        let upper = 8 * self.upper_values.len();
        12 * self.lower_nnz() + 8 * self.n as usize + 4 * (self.n as usize + 1) + upper
    }

    /// A deterministic 64-bit fingerprint of the sparsity *structure*
    /// (dimension, row pointers, column indices — values excluded).
    ///
    /// Partition plans, conflict indices and race certificates depend only
    /// on structure; a certificate records the fingerprint of the matrix it
    /// was proved for, and dispatch checks it against the matrix at hand.
    /// The std hasher is avoided so the value is stable across processes.
    /// Computed on first use and memoized (the matrix is immutable), so the
    /// plan, its certificate and the debug-build dispatch checks do not each
    /// re-walk the structure.
    ///
    /// Definition: the words `n, rowptr…, colind…` are dealt to four
    /// word-wise FNV-1a lanes, word `i` to lane `i mod 4` (seeded with the
    /// offset basis `+ i mod 4`); each lane is finalized by the SplitMix64
    /// avalanche and the four are folded in lane order by one more FNV-1a
    /// step each. Every step is a bijection of its lane, so changing any
    /// single word changes the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| {
            let mut lanes = std::array::from_fn(|l| FNV_OFFSET + l as u64);
            let mut next = 0;
            for words in [std::slice::from_ref(&self.n), &self.rowptr, &self.colind] {
                next = fnv_lanes(&mut lanes, next, words);
            }
            lanes
                .iter()
                .fold(FNV_OFFSET, |acc, &h| fnv(acc, avalanche(h)))
        })
    }

    /// The strict-lower-triangle row `r` (columns and values).
    pub fn row(&self, r: Idx) -> (&[Idx], &[Val]) {
        let lo = self.rowptr[r as usize] as usize;
        let hi = self.rowptr[r as usize + 1] as usize;
        (&self.colind[lo..hi], &self.values[lo..hi])
    }

    /// Row `r` with its paired (mirror) values: for structural symmetry
    /// the third slice holds the upper-triangle values `a_cr`; for the
    /// numeric kinds it aliases the lower values (the mirror is `±v`).
    pub fn row_with_paired(&self, r: Idx) -> (&[Idx], &[Val], &[Val]) {
        let lo = self.rowptr[r as usize] as usize;
        let hi = self.rowptr[r as usize + 1] as usize;
        (
            &self.colind[lo..hi],
            &self.values[lo..hi],
            &self.paired_values()[lo..hi],
        )
    }

    /// Serial half-storage SpMV (`y = A·x`) — Alg. 2 of the paper,
    /// generalized over the symmetry kind: the mirror contribution of a
    /// stored entry is `+v` (symmetric), `-v` (skew) or the paired upper
    /// value (structural). Monomorphized per kind; the symmetric
    /// instantiation is bit-identical to the pre-kind kernel.
    pub fn spmv(&self, x: &[Val], y: &mut [Val]) {
        with_symmetry_ops!(self.kind, O => self.spmv_ops::<O>(x, y));
    }

    fn spmv_ops<O: SymmetryOps>(&self, x: &[Val], y: &mut [Val]) {
        let n = self.n as usize;
        assert_eq!(x.len(), n);
        assert_eq!(y.len(), n);
        for r in 0..n {
            y[r] = self.dvalues[r] * x[r];
        }
        for r in 0..self.n {
            let (cols, vals, paired) = self.row_with_paired(r);
            let xr = x[r as usize];
            let mut acc = 0.0;
            for ((&c, &v), &u) in cols.iter().zip(vals).zip(paired) {
                let c = c as usize;
                acc += v * x[c];
                y[c] += O::transposed(v, u) * xr;
            }
            y[r as usize] += acc;
        }
    }

    /// Reconstructs the represented full matrix as COO (for testing and
    /// cross-format conversions), applying the kind's mirror rule to the
    /// upper triangle.
    pub fn to_full_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::with_capacity(self.n, self.n, self.full_nnz());
        for (i, &d) in self.dvalues.iter().enumerate() {
            if d != 0.0 {
                coo.push(i as Idx, i as Idx, d);
            }
        }
        for r in 0..self.n {
            let (cols, vals, paired) = self.row_with_paired(r);
            for ((&c, &v), &u) in cols.iter().zip(vals).zip(paired) {
                coo.push(r, c, v);
                coo.push(c, r, self.kind.transposed(v, u));
            }
        }
        coo.canonicalize();
        coo
    }

    /// Converts to an equivalent full CSR matrix (the unsymmetric baseline
    /// representation of the same operator).
    pub fn to_full_csr(&self) -> CsrMatrix {
        CsrMatrix::from_coo(&self.to_full_coo())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One word-wise FNV-1a step.
fn fnv(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Feeds `words` to the four lanes of [`SssMatrix::fingerprint`], word `i`
/// to lane `(first + i) mod 4`; returns the lane of the next word. Inlined
/// so the lanes stay in registers: stored between calls, they get packed
/// into SSE pairs whose emulated 64-bit multiply is three times slower.
#[inline(always)]
fn fnv_lanes(lanes: &mut [u64; 4], first: usize, words: &[u32]) -> usize {
    let (quads, tail) = words.as_chunks::<4>();
    let mut h = *lanes;
    h.rotate_left(first);
    for quad in quads {
        h = std::array::from_fn(|l| fnv(h[l], u64::from(quad[l])));
    }
    for (h, &w) in h.iter_mut().zip(tail) {
        *h = fnv(*h, u64::from(w));
    }
    h.rotate_right(first);
    *lanes = h;
    (first + words.len()) % 4
}

/// The band count of the pooled constructors: one band per
/// [`CONVERT_GRAIN`] stored entries, at most one per share of `runner`.
/// Decided before pass 1 counts them: a full matrix stores about half its
/// triplets.
fn grain_bands(runner: &dyn Spmd, coo: &CooMatrix) -> usize {
    runner.shares().min(coo.nnz() / 2 / CONVERT_GRAIN).max(1)
}

/// Where the sweep over a band of rows writes: those rows' slices of the
/// output arrays, the first of them row `first_row`; the lower arrays'
/// slots are uninitialized until the sweep writes them, `written` of them
/// so far.
struct Out<'o> {
    first_row: usize,
    colind: &'o mut [MaybeUninit<Idx>],
    values: &'o mut [MaybeUninit<Val>],
    upper_values: &'o mut [MaybeUninit<Val>],
    dvalues: &'o mut [Val],
    written: usize,
}

impl<'o> Out<'o> {
    /// All rows: the spare capacity of the lower arrays, and the diagonal.
    fn all(
        colind: &'o mut Vec<Idx>,
        values: &'o mut Vec<Val>,
        upper_values: &'o mut Vec<Val>,
        dvalues: &'o mut [Val],
    ) -> Self {
        Out {
            first_row: 0,
            colind: colind.spare_capacity_mut(),
            values: values.spare_capacity_mut(),
            upper_values: upper_values.spare_capacity_mut(),
            dvalues,
            written: 0,
        }
    }

    /// Splits off the next `rows` rows, which store `stored` lower entries.
    fn split_off(&mut self, rows: usize, stored: usize) -> Out<'o> {
        let upper = stored.min(self.upper_values.len());
        let (colind, rest) = std::mem::take(&mut self.colind).split_at_mut(stored);
        self.colind = rest;
        let (values, rest) = std::mem::take(&mut self.values).split_at_mut(stored);
        self.values = rest;
        let (upper_values, rest) = std::mem::take(&mut self.upper_values).split_at_mut(upper);
        self.upper_values = rest;
        let (dvalues, rest) = std::mem::take(&mut self.dvalues).split_at_mut(rows);
        self.dvalues = rest;
        let first_row = self.first_row;
        self.first_row += rows;
        Out {
            first_row,
            colind,
            values,
            upper_values,
            dvalues,
            written: 0,
        }
    }

    /// The sweep's visitor: stores each lower entry in the next slot, in
    /// row-major order, and sums each diagonal entry into its zeroed slot.
    fn emit(&mut self, kind: SymmetryKind) -> impl FnMut(usize, Idx, Val, Val) + use<'_, 'o> {
        move |r, c, v, mirrored| {
            let j = self.written;
            if c as usize != r {
                self.colind[j].write(c);
                self.values[j].write(v);
                if kind.has_upper_values() {
                    self.upper_values[j].write(mirrored);
                }
                self.written += 1;
            } else if !kind.requires_zero_diagonal() {
                // Skew storage is exactly skew: the diagonal stays
                // identically zero (entries within `tol` of zero are
                // clamped, not kept).
                self.dvalues[r - self.first_row] += v;
            }
        }
    }

    /// Whether every lower slot (and every paired upper slot) is written.
    fn filled(&self) -> bool {
        let upper = self.upper_values.len();
        self.written == self.colind.len()
            && self.written == self.values.len()
            && (upper == 0 || self.written == upper)
    }
}

/// The first row of each of `bands` bands over the rows of the strict-lower
/// row pointers `lower`, and `n` after them: band `i` starts at the first row
/// with `i / bands` of the stored entries before it.
fn band_starts(lower: &[usize], bands: usize) -> Vec<usize> {
    let n = lower.len() - 1;
    let stored = lower[n];
    let mut starts: Vec<usize> = (0..bands)
        .map(|i| lower.partition_point(|&p| p * bands < i * stored))
        .collect();
    starts.push(n);
    starts
}

/// One band of the pooled sweep: its rows, its cursors (allocated by the
/// caller, one per row above its end), its output, and whether it held.
struct Band<'o> {
    rows: Range<usize>,
    cursors: Vec<u32>,
    out: Option<Out<'o>>,
    held: bool,
}

/// The mirror sweep of [`SssMatrix::build`] as `bands` row bands balanced
/// by stored entries, band `i` on share `i` of `runner`, each writing into
/// its split of `out`. `true` iff every band ran and held.
fn sweep_bands(
    rows: &Rows<'_>,
    lower: &[usize],
    kind: SymmetryKind,
    tol: Val,
    mut out: Out<'_>,
    bands: usize,
    runner: &dyn Spmd,
) -> bool {
    let slots: Vec<Mutex<Band<'_>>> = band_starts(lower, bands)
        .windows(2)
        .map(|w| {
            let (a, b) = (w[0], w[1]);
            Mutex::new(Band {
                rows: a..b,
                cursors: if a < b { vec![0; b] } else { Vec::new() },
                out: Some(out.split_off(b - a, lower[b] - lower[a])),
                held: false,
            })
        })
        .collect();
    let ran = runner.run_shares(&|i| {
        if let Some(slot) = slots.get(i) {
            // Only this share ever locks its slot, so it is not poisoned.
            let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
            let band = &mut *guard;
            band.held = band.rows.is_empty()
                || band.out.take().is_some_and(|mut out| {
                    let rows_of_band = band.rows.clone();
                    let visit = out.emit(kind);
                    rows.sweep_band(kind, tol, rows_of_band, &mut band.cursors, visit)
                        && out.filled()
                });
        }
    });
    // A share that panicked left its band unheld (and its lock poisoned).
    ran && slots
        .into_iter()
        .all(|slot| slot.into_inner().is_ok_and(|band| band.held))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym_coo() -> CooMatrix {
        // [[4, 1, 0, 0],
        //  [1, 5, 2, 0],
        //  [0, 2, 6, 3],
        //  [0, 0, 3, 7]]
        let mut m = CooMatrix::new(4, 4);
        for (r, c, v) in [
            (0, 0, 4.0),
            (1, 1, 5.0),
            (2, 2, 6.0),
            (3, 3, 7.0),
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 2, 2.0),
            (2, 1, 2.0),
            (2, 3, 3.0),
            (3, 2, 3.0),
        ] {
            m.push(r, c, v);
        }
        m
    }

    #[test]
    fn construction_from_symmetric() {
        let sss = SssMatrix::from_coo(&sym_coo(), 0.0).unwrap();
        assert_eq!(sss.n(), 4);
        assert_eq!(sss.dvalues(), &[4.0, 5.0, 6.0, 7.0]);
        assert_eq!(sss.lower_nnz(), 3);
        assert_eq!(sss.full_nnz(), 10);
    }

    #[test]
    fn asymmetric_rejected() {
        let mut m = sym_coo();
        m.push(0, 3, 9.0);
        let res = SssMatrix::from_coo(&m, 0.0);
        assert!(matches!(res, Err(SparseError::NotSymmetric { .. })));
    }

    #[test]
    fn spmv_matches_reference() {
        let coo = sym_coo();
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let mut y = vec![0.0; 4];
        let mut y_ref = vec![0.0; 4];
        sss.spmv(&x, &mut y);
        let mut c = coo.clone();
        c.canonicalize();
        c.spmv_reference(&x, &mut y_ref);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-12, "{y:?} vs {y_ref:?}");
        }
    }

    #[test]
    fn full_round_trip() {
        let mut coo = sym_coo();
        coo.canonicalize();
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        assert_eq!(sss.to_full_coo(), coo);
    }

    #[test]
    fn size_model_eq2() {
        let sss = SssMatrix::from_coo(&sym_coo(), 0.0).unwrap();
        // 12*3 + 8*4 + 4*5 = 36 + 32 + 20 = 88
        assert_eq!(sss.size_bytes(), 88);
        // And Eq. 2's asymptotic claim: roughly half of CSR for NNZ >> N.
        let csr = sss.to_full_csr();
        assert!(sss.size_bytes() < csr.size_bytes());
    }

    #[test]
    fn fingerprint_is_structural_and_stable() {
        let a = SssMatrix::from_coo(&sym_coo(), 0.0).unwrap();
        // Same structure, different values → same fingerprint.
        let mut scaled = CooMatrix::new(4, 4);
        for (r, c, v) in sym_coo().iter() {
            scaled.push(r, c, 2.0 * v);
        }
        let b = SssMatrix::from_coo(&scaled, 0.0).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different structure → different fingerprint.
        let mut m = sym_coo();
        m.push(0, 3, 9.0);
        m.push(3, 0, 9.0);
        let c = SssMatrix::from_coo(&m, 0.0).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        // The definition over a fixed structure is a process-independent
        // constant that certificates carry: pin it on the 4×4 fixture and
        // on a benchmark analog.
        assert_eq!(a.fingerprint(), 0x08d1_6abf_4a0d_2080);
        assert_eq!(hood_small().fingerprint(), 0xa83d_c46e_b2c8_76a3);
    }

    /// `hood` at scale 0.005 under the benchmark's seed-1 mixing (the
    /// spec's seed xor the first SplitMix64 output of seed 1).
    fn hood_small() -> SssMatrix {
        let spec = crate::suite::spec_by_name("hood").unwrap();
        let seed = spec.seed ^ crate::rng::StdRng::seed_from_u64(1).next_u64();
        let spec = crate::suite::SuiteSpec { seed, ..*spec };
        SssMatrix::from_coo(&crate::suite::generate(&spec, 0.005).coo, 0.0).unwrap()
    }

    /// The fingerprint of `a` after `edit`, computed afresh.
    fn refingerprint(a: &SssMatrix, edit: impl FnOnce(&mut SssMatrix)) -> u64 {
        let mut b = a.clone();
        b.fp = OnceLock::new();
        edit(&mut b);
        b.fingerprint()
    }

    #[test]
    fn every_small_structural_edit_moves_the_fingerprint() {
        let a = hood_small();
        let base = a.fingerprint();
        let (nnz, n) = (a.lower_nnz(), a.n() as usize);
        let mut seen = vec![base];
        // One column index moved, at every lane position near the start,
        // the middle and the end of `colind`.
        let near = |k: usize| [k, k + 1, k + 2, k + 3];
        for j in [near(0), near(nnz / 2), near(nnz - 4)].concat() {
            for delta in [1, -1, 1 << 20, -(1 << 20)] {
                seen.push(refingerprint(&a, |b| {
                    b.colind[j] = b.colind[j].wrapping_add_signed(delta)
                }));
            }
        }
        // The last entry of a row moved to the start of the next one.
        let rows = (0..n).filter(|&r| a.rowptr[r + 1] > a.rowptr[r]);
        for r in rows.step_by(n / 7) {
            seen.push(refingerprint(&a, |b| b.rowptr[r + 1] -= 1));
        }
        seen.push(refingerprint(&a, |b| b.n += 1));
        let distinct: std::collections::HashSet<u64> = seen.iter().copied().collect();
        assert_eq!(distinct.len(), seen.len(), "a structural edit collided");
        // Values and the symmetry kind are not structure.
        let revalued = refingerprint(&a, |b| {
            b.values[0] += 1.0;
            b.dvalues[n - 1] = -3.0;
        });
        assert_eq!(revalued, base);
        for kind in SymmetryKind::ALL {
            assert_eq!(refingerprint(&a, |b| b.kind = kind), base, "{kind:?}");
        }
    }

    #[test]
    fn missing_diagonal_entries_stored_as_zero() {
        let mut m = CooMatrix::new(3, 3);
        m.push(1, 0, 2.0);
        m.push(0, 1, 2.0);
        let sss = SssMatrix::from_coo(&m, 0.0).unwrap();
        assert_eq!(sss.dvalues(), &[0.0, 0.0, 0.0]);
        let x = vec![1.0, 1.0, 1.0];
        let mut y = vec![0.0; 3];
        sss.spmv(&x, &mut y);
        assert_eq!(y, vec![2.0, 2.0, 0.0]);
    }

    fn skew_coo() -> CooMatrix {
        // [[0, -1, 0, 0], [1, 0, 2, 0], [0, -2, 0, -3], [0, 0, 3, 0]]
        let mut m = CooMatrix::new(4, 4);
        for (r, c, v) in [
            (0, 1, -1.0),
            (1, 0, 1.0),
            (1, 2, 2.0),
            (2, 1, -2.0),
            (2, 3, -3.0),
            (3, 2, 3.0),
        ] {
            m.push(r, c, v);
        }
        m
    }

    fn structural_coo() -> CooMatrix {
        // Symmetric pattern, unrelated values.
        // [[4, 7, 0], [-2.5, 5, 1], [0, 9, 6]]
        let mut m = CooMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 4.0),
            (0, 1, 7.0),
            (1, 0, -2.5),
            (1, 1, 5.0),
            (1, 2, 1.0),
            (2, 1, 9.0),
            (2, 2, 6.0),
        ] {
            m.push(r, c, v);
        }
        m
    }

    #[test]
    fn default_kind_is_symmetric() {
        let sss = SssMatrix::from_coo(&sym_coo(), 0.0).unwrap();
        assert_eq!(sss.kind(), SymmetryKind::Symmetric);
        assert!(sss.upper_values().is_empty());
        // Paired slice aliases the lower values for numeric kinds.
        assert_eq!(sss.paired_values(), sss.values());
    }

    #[test]
    fn skew_construction_and_spmv() {
        let coo = skew_coo();
        let sss = SssMatrix::from_coo_kind(&coo, SymmetryKind::Skew, 0.0).unwrap();
        assert_eq!(sss.kind(), SymmetryKind::Skew);
        assert_eq!(sss.lower_nnz(), 3);
        assert_eq!(sss.dvalues(), &[0.0; 4]);
        assert!(sss.upper_values().is_empty());

        let x = vec![1.0, -2.0, 0.5, 3.0];
        let mut y = vec![f64::NAN; 4];
        sss.spmv(&x, &mut y);
        let mut c = coo.clone();
        c.canonicalize();
        let mut y_ref = vec![0.0; 4];
        c.spmv_reference(&x, &mut y_ref);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-12, "{y:?} vs {y_ref:?}");
        }

        // Round trip through the mirror rule.
        let mut canon = coo.clone();
        canon.canonicalize();
        assert_eq!(sss.to_full_coo(), canon);
    }

    #[test]
    fn skew_rejects_nonzero_diagonal_and_wrong_mirror() {
        let mut d = skew_coo();
        d.push(1, 1, 5.0);
        let err = SssMatrix::from_coo_kind(&d, SymmetryKind::Skew, 0.0).unwrap_err();
        assert_eq!(err, SparseError::SkewNonzeroDiagonal { row: 1, value: 5.0 });

        let sym = sym_coo();
        let err = SssMatrix::from_coo_kind(&sym, SymmetryKind::Skew, 0.0).unwrap_err();
        assert!(matches!(
            err,
            SparseError::SkewNonzeroDiagonal { .. } | SparseError::NotSkewSymmetric { .. }
        ));

        // try_from_coo_kind reports the same structured error.
        let err = SssMatrix::try_from_coo_kind(&d, SymmetryKind::Skew, 0.0).unwrap_err();
        assert_eq!(err, SparseError::SkewNonzeroDiagonal { row: 1, value: 5.0 });

        // A same-sign mirror breaks the relation itself, on both paths.
        let mut same_sign = CooMatrix::new(2, 2);
        same_sign.push(0, 1, 1.0);
        same_sign.push(1, 0, 1.0);
        for build in [SssMatrix::from_coo_kind, SssMatrix::try_from_coo_kind] {
            assert_eq!(
                build(&same_sign, SymmetryKind::Skew, 0.0),
                Err(SparseError::NotSkewSymmetric { row: 0, col: 1 })
            );
        }
    }

    #[test]
    fn structural_construction_and_spmv() {
        let coo = structural_coo();
        let sss = SssMatrix::from_coo_kind(&coo, SymmetryKind::Structural, 0.0).unwrap();
        assert_eq!(sss.kind(), SymmetryKind::Structural);
        assert_eq!(sss.lower_nnz(), 2);
        // Lower entries in CSR order: (1,0) = -2.5, (2,1) = 9.0; their
        // paired upper values are a_01 = 7.0 and a_12 = 1.0.
        assert_eq!(sss.values(), &[-2.5, 9.0]);
        assert_eq!(sss.upper_values(), &[7.0, 1.0]);
        assert_eq!(sss.paired_values(), &[7.0, 1.0]);

        let x = vec![1.0, -2.0, 0.5];
        let mut y = vec![f64::NAN; 3];
        sss.spmv(&x, &mut y);
        let mut c = coo.clone();
        c.canonicalize();
        let mut y_ref = vec![0.0; 3];
        c.spmv_reference(&x, &mut y_ref);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-12, "{y:?} vs {y_ref:?}");
        }

        // Full reconstruction restores the unsymmetric values.
        assert_eq!(sss.to_full_coo(), c);

        // The extra upper array is visible in the size model.
        let plain = SssMatrix::from_coo(&sym_coo(), 0.0).unwrap();
        assert_eq!(sss.size_bytes(), 12 * 2 + 8 * 3 + 4 * 4 + 8 * 2,);
        assert!(plain.upper_values().is_empty());
    }

    #[test]
    fn structural_rejects_unpaired_pattern() {
        let mut m = structural_coo();
        m.push(2, 0, 1.0);
        let err = SssMatrix::from_coo_kind(&m, SymmetryKind::Structural, 0.0).unwrap_err();
        assert_eq!(
            err,
            SparseError::NotStructurallySymmetric { row: 2, col: 0 }
        );
    }

    #[test]
    fn kinds_share_structural_fingerprint() {
        // Same pattern, different kinds/values → same fingerprint: plans,
        // conflict indices and write-set proofs are structure-only and are
        // legitimately shared across kinds.
        let skew = SssMatrix::from_coo_kind(&skew_coo(), SymmetryKind::Skew, 0.0).unwrap();
        let mut symmetric_same_pattern = CooMatrix::new(4, 4);
        for (r, c, v) in skew_coo().iter() {
            symmetric_same_pattern.push(r, c, v.abs());
        }
        let sym = SssMatrix::from_coo(&symmetric_same_pattern, 0.0).unwrap();
        assert_eq!(skew.fingerprint(), sym.fingerprint());
    }

    #[test]
    fn symmetric_kind_spmv_bit_identical_to_pre_kind_loop() {
        // The monomorphized symmetric path must replay the historical op
        // order exactly: re-run the original Alg. 2 loop here and compare
        // bit for bit.
        let coo = symmetric_like_random(257);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let n = sss.n() as usize;
        let x: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 / 13.0).collect();
        let mut y = vec![0.0; n];
        sss.spmv(&x, &mut y);

        let mut want = vec![0.0; n];
        for r in 0..n {
            want[r] = sss.dvalues()[r] * x[r];
        }
        for r in 0..n {
            let lo = sss.rowptr()[r] as usize;
            let hi = sss.rowptr()[r + 1] as usize;
            let xr = x[r];
            let mut acc = 0.0;
            for j in lo..hi {
                let c = sss.colind()[j] as usize;
                let v = sss.values()[j];
                acc += v * x[c];
                want[c] += v * xr;
            }
            want[r] += acc;
        }
        assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    fn symmetric_like_random(n: Idx) -> CooMatrix {
        // Small deterministic symmetric matrix without pulling in gen's RNG.
        let mut m = CooMatrix::new(n, n);
        for i in 0..n {
            m.push(i, i, 2.0 + (i % 7) as f64);
            let j = (i * 13 + 5) % n;
            let (r, c) = if i > j { (i, j) } else { (j, i) };
            if r != c {
                let v = 1.0 + ((i % 11) as f64) / 3.0;
                m.push(r, c, v);
                m.push(c, r, v);
            }
        }
        m.canonicalize();
        m
    }

    #[test]
    fn duplicates_sum_in_insertion_order_on_shuffled_input() {
        // (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3) in f64: the addends of one
        // coordinate must be folded in the order they were pushed, however
        // the other triplets are interleaved, so that mirror images pushed
        // in the same order round identically.
        let parts = [0.1, 0.2, 0.3];
        let mut m = CooMatrix::new(3, 3);
        m.push(2, 2, 1.0);
        m.push(2, 0, parts[0]);
        m.push(0, 2, parts[0]);
        m.push(1, 1, 1.0);
        m.push(0, 2, parts[1]);
        m.push(2, 0, parts[1]);
        m.push(0, 0, 1.0);
        m.push(2, 0, parts[2]);
        m.push(0, 2, parts[2]);
        // The validated path, which external matrices take, sums alike.
        for build in [SssMatrix::from_coo_kind, SssMatrix::try_from_coo_kind] {
            let sss = build(&m, SymmetryKind::Symmetric, 0.0).unwrap();
            assert_eq!(sss.values()[0].to_bits(), ((0.1 + 0.2) + 0.3_f64).to_bits());
            assert_ne!(sss.values()[0].to_bits(), (0.1 + (0.2 + 0.3_f64)).to_bits());
        }

        // The same addends pushed in the opposite order above the diagonal
        // round differently: exact symmetry is lost, and reported.
        let mut m = CooMatrix::new(3, 3);
        for i in 0..3 {
            m.push(2, 0, parts[i]);
            m.push(0, 2, parts[2 - i]);
        }
        let err = SssMatrix::from_coo(&m, 0.0).unwrap_err();
        assert_eq!(err, SparseError::NotSymmetric { row: 0, col: 2 });
        assert!(SssMatrix::from_coo(&m, 1e-15).is_ok());
    }

    #[test]
    fn error_precedence() {
        // Not square comes before everything else.
        let mut m = CooMatrix::new(2, 3);
        m.push(0, 1, f64::NAN);
        let not_square = SparseError::NotSquare { nrows: 2, ncols: 3 };
        assert_eq!(SssMatrix::try_from_coo(&m, 0.0), Err(not_square.clone()));
        assert_eq!(SssMatrix::from_coo(&m, 0.0), Err(not_square));

        // On the validated path a non-finite value anywhere beats an
        // asymmetry positioned before it; the unvalidated path, which does
        // not look at finiteness, names the asymmetry.
        let mut m = sym_coo();
        m.push(0, 2, 9.0);
        m.push(3, 3, f64::INFINITY);
        let err = SssMatrix::try_from_coo(&m, 0.0).unwrap_err();
        assert!(
            matches!(err, SparseError::NonFiniteValue { row: 3, col: 3, value } if value.is_infinite())
        );
        let err = SssMatrix::from_coo(&m, 0.0).unwrap_err();
        assert_eq!(err, SparseError::NotSymmetric { row: 0, col: 2 });

        // Among several asymmetries the row-major-first entry is named,
        // whichever triangle it is in and in whatever order they were pushed.
        let mut m = sym_coo();
        m.push(3, 1, 9.0);
        m.push(2, 0, 9.0);
        m.push(1, 3, 8.0);
        let err = SssMatrix::from_coo(&m, 0.0).unwrap_err();
        assert_eq!(err, SparseError::NotSymmetric { row: 1, col: 3 });

        // The only evidence is an upper entry no lower entry ever asks for.
        let mut m = sym_coo();
        m.push(0, 3, 9.0);
        for kind in SymmetryKind::ALL {
            let err = SssMatrix::from_coo_kind(&m, kind, 0.0).unwrap_err();
            let same = SssMatrix::try_from_coo_kind(&m, kind, 0.0).unwrap_err();
            assert_eq!(err, same);
            match kind {
                SymmetryKind::Symmetric => {
                    assert_eq!(err, SparseError::NotSymmetric { row: 0, col: 3 })
                }
                // The nonzero diagonal of row 0 comes first.
                SymmetryKind::Skew => {
                    assert_eq!(err, SparseError::SkewNonzeroDiagonal { row: 0, value: 4.0 })
                }
                SymmetryKind::Structural => {
                    assert_eq!(
                        err,
                        SparseError::NotStructurallySymmetric { row: 0, col: 3 }
                    )
                }
            }
        }
    }

    #[test]
    fn error_precedence_on_canonical_input() {
        // The cases above push out of order and take the bucket pass; the
        // fused canonical pass must keep the same precedence.
        let canonical = |extra: &[(Idx, Idx, Val)]| {
            let mut m = sym_coo();
            for &(r, c, v) in extra {
                m.push(r, c, v);
            }
            m.canonicalize(); // a NaN pushed onto (3, 3) sums to NaN
            assert!(m.is_canonical());
            m
        };
        // An asymmetry in row 0 before a NaN in row 3.
        let m = canonical(&[(0, 2, 9.0), (3, 3, f64::NAN)]);
        let err = SssMatrix::try_from_coo(&m, 0.0).unwrap_err();
        assert!(
            matches!(err, SparseError::NonFiniteValue { row: 3, col: 3, value } if value.is_nan())
        );
        let err = SssMatrix::from_coo(&m, 0.0).unwrap_err();
        assert_eq!(err, SparseError::NotSymmetric { row: 0, col: 2 });

        // The sweep fails at (2, 0), which has no mirror, and only then
        // could it see the upper (1, 3) that nothing consumes: the
        // row-major-first offender is (1, 3).
        let m = canonical(&[(1, 3, 8.0), (2, 0, 5.0)]);
        for (kind, want) in [
            (
                SymmetryKind::Symmetric,
                SparseError::NotSymmetric { row: 1, col: 3 },
            ),
            (
                SymmetryKind::Structural,
                SparseError::NotStructurallySymmetric { row: 1, col: 3 },
            ),
        ] {
            assert_eq!(SssMatrix::from_coo_kind(&m, kind, 0.0), Err(want.clone()));
            assert_eq!(SssMatrix::try_from_coo_kind(&m, kind, 0.0), Err(want));
        }
    }

    #[test]
    fn tolerance_keeps_the_lower_value_and_pairs_the_upper_one() {
        // Mirrors within `tol` of the relation are accepted; what is stored
        // is the lower-triangle value as given, not an average.
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, 1.25);
        m.push(1, 0, 1.0);
        assert!(SssMatrix::from_coo(&m, 0.2).is_err());
        let sss = SssMatrix::from_coo(&m, 0.3).unwrap();
        assert_eq!(sss.values(), &[1.0]);
        assert!(sss.upper_values().is_empty());

        let sss = SssMatrix::from_coo_kind(&m, SymmetryKind::Structural, 0.3).unwrap();
        assert_eq!(sss.values(), &[1.0]);
        assert_eq!(sss.upper_values(), &[1.25]);

        // Skew: `a_ji = -a_ij` within tol, the lower value stored, and a
        // diagonal within tol of zero clamped to exactly zero.
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, -1.25);
        m.push(1, 0, 1.0);
        m.push(1, 1, 0.125);
        let sss = SssMatrix::from_coo_kind(&m, SymmetryKind::Skew, 0.3).unwrap();
        assert_eq!(sss.values(), &[1.0]);
        assert_eq!(sss.dvalues(), &[0.0, 0.0]);
        assert_eq!(
            SssMatrix::from_coo_kind(&m, SymmetryKind::Skew, 0.1).unwrap_err(),
            SparseError::NotSkewSymmetric { row: 0, col: 1 }
        );
    }

    #[test]
    fn nan_is_an_offender_not_a_panic() {
        // `x <= tol` and `x > tol` are both false for NaN; the relation is
        // written so that NaN fails it, at the entry that carries it.
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 1, f64::NAN);
        m.push(1, 0, f64::NAN);
        assert_eq!(
            SssMatrix::from_coo(&m, 0.0),
            Err(SparseError::NotSymmetric { row: 0, col: 1 })
        );
        assert_eq!(
            SssMatrix::from_coo_kind(&m, SymmetryKind::Skew, 0.0),
            Err(SparseError::NotSkewSymmetric { row: 0, col: 1 })
        );
        assert!(SssMatrix::from_coo_kind(&m, SymmetryKind::Structural, 0.0).is_ok());
        // The validated path names the non-finite entry, whatever the kind.
        for kind in SymmetryKind::ALL {
            let err = SssMatrix::try_from_coo_kind(&m, kind, 0.0).unwrap_err();
            assert!(
                matches!(err, SparseError::NonFiniteValue { row: 0, col: 1, value } if value.is_nan()),
                "{kind:?}: {err:?}"
            );
        }
        let mut d = CooMatrix::new(1, 1);
        d.push(0, 0, f64::NAN);
        let err = SssMatrix::from_coo_kind(&d, SymmetryKind::Skew, 0.0).unwrap_err();
        assert!(
            matches!(err, SparseError::SkewNonzeroDiagonal { row: 0, value } if value.is_nan())
        );
        // A NaN tolerance fails every pair it is asked about.
        assert!(SssMatrix::from_coo(&sym_coo(), f64::NAN).is_err());
    }

    /// [`SssMatrix::build`] in exactly `k` bands, on `k` serial shares.
    fn banded(
        coo: &CooMatrix,
        kind: SymmetryKind,
        tol: Val,
        validated: bool,
        k: usize,
    ) -> Result<SssMatrix, SparseError> {
        SssMatrix::build(coo, kind, tol, validated, &Serial(k), k)
    }

    /// What a conversion stores, the values as bit patterns.
    type StoredBits = (Vec<Idx>, Vec<Idx>, [Vec<u64>; 3]);

    fn stored_bits(m: &SssMatrix) -> StoredBits {
        let bits = |v: &[Val]| v.iter().map(|x| x.to_bits()).collect();
        let values = [bits(m.values()), bits(m.dvalues()), bits(m.upper_values())];
        (m.rowptr().to_vec(), m.colind().to_vec(), values)
    }

    /// The band counts every banded test runs: one band, a few, and more
    /// bands than rows (so most of them are empty).
    fn band_counts(n: Idx) -> [usize; 5] {
        [1, 2, 3, 8, n as usize + 5]
    }

    /// Triplets of a random `n × n` matrix that satisfies `kind` within
    /// `tol`, in row-major order: up to four lower entries per row (none in
    /// every fifth row, so band boundaries land on empty rows too), their
    /// mirrors off by up to `tol / 2`, and a diagonal `kind` admits.
    fn kind_triplets(n: Idx, kind: SymmetryKind, tol: Val, seed: u64) -> Vec<(Idx, Idx, Val)> {
        let mut rng = crate::rng::StdRng::seed_from_u64(seed);
        let mut t = Vec::new();
        for r in 1..n {
            let cols: std::collections::BTreeSet<Idx> = (0..rng.random_range(0..5usize))
                .filter(|_| r % 5 != 0)
                .map(|_| rng.random_range(0..r))
                .collect();
            for c in cols {
                let v: Val = rng.random_range(-2.0..2.0);
                let off = tol * rng.random_range(-0.5..0.5);
                let w = kind.transposed(v, rng.random_range(-2.0..2.0)) + off;
                t.extend([(r, c, v), (c, r, w)]);
            }
        }
        for i in 0..n {
            let d = if kind.requires_zero_diagonal() {
                tol * rng.random_range(-0.5..0.5)
            } else {
                rng.random_range(1.0..5.0)
            };
            t.push((i, i, d));
        }
        t.sort_by_key(|&(r, c, _)| (r, c));
        t
    }

    /// The three input forms of the same matrix: canonical triplets, the
    /// same shuffled, and each value split into three addends pushed in
    /// three rounds (so the bucket pass sums duplicates).
    fn input_forms(n: Idx, t: &[(Idx, Idx, Val)], seed: u64) -> [CooMatrix; 3] {
        let mut canonical = CooMatrix::new(n, n);
        t.iter().for_each(|&(r, c, v)| canonical.push(r, c, v));
        let mut order: Vec<usize> = (0..t.len()).collect();
        let mut rng = crate::rng::StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut shuffled = CooMatrix::new(n, n);
        order
            .iter()
            .for_each(|&k| shuffled.push(t[k].0, t[k].1, t[k].2));
        let mut split = CooMatrix::new(n, n);
        for part in [0.25, 0.5, 0.25] {
            order
                .iter()
                .for_each(|&k| split.push(t[k].0, t[k].1, part * t[k].2));
        }
        [canonical, shuffled, split]
    }

    #[test]
    fn banded_conversion_equals_one_band_bit_for_bit() {
        let n = 41;
        for kind in SymmetryKind::ALL {
            for (seed, tol) in [(1, 0.0), (2, 0.3)] {
                let t = kind_triplets(n, kind, tol, seed);
                let forms = input_forms(n, &t, seed);
                assert!(forms[0].is_canonical());
                for (form, coo) in forms.iter().enumerate() {
                    let serial = SssMatrix::from_coo_kind(coo, kind, tol).unwrap();
                    assert!(serial.lower_nnz() > 40, "{kind:?} {form}");
                    let want = stored_bits(&serial);
                    for validated in [false, true] {
                        for k in band_counts(n) {
                            let m = banded(coo, kind, tol, validated, k).unwrap();
                            assert_eq!(
                                stored_bits(&m),
                                want,
                                "{kind:?} tol {tol} form {form} k {k}"
                            );
                        }
                    }
                }
            }
            // No rows, and one row: every band but one is empty.
            for n in [0, 1] {
                let coo = CooMatrix::new(n, n);
                let want = stored_bits(&SssMatrix::from_coo_kind(&coo, kind, 0.0).unwrap());
                for k in band_counts(n) {
                    let m = banded(&coo, kind, 0.0, true, k).unwrap();
                    assert_eq!(stored_bits(&m), want, "{kind:?} n {n} k {k}");
                }
            }
        }
    }

    /// The relation error `kind` reports at `(row, col)`.
    fn relation_error(kind: SymmetryKind, row: Idx, col: Idx) -> SparseError {
        match kind {
            SymmetryKind::Symmetric => SparseError::NotSymmetric { row, col },
            SymmetryKind::Skew => SparseError::NotSkewSymmetric { row, col },
            SymmetryKind::Structural => SparseError::NotStructurallySymmetric { row, col },
        }
    }

    /// The error of every band count and both constructors, which must
    /// all agree (compared by `Debug`, so a NaN in the error compares).
    fn banded_error(coo: &CooMatrix, kind: SymmetryKind, validated: bool) -> String {
        let errors: Vec<String> = band_counts(coo.nrows())
            .into_iter()
            .map(|k| format!("{:?}", banded(coo, kind, 0.0, validated, k).unwrap_err()))
            .collect();
        assert!(
            errors.iter().all(|e| *e == errors[0]),
            "{kind:?}: {errors:?}"
        );
        errors.into_iter().next().unwrap_or_default()
    }

    /// An `n`-row tridiagonal matrix satisfying `kind`, in row-major order,
    /// plus `extra` triplets.
    fn tridiagonal(n: Idx, kind: SymmetryKind, extra: &[(Idx, Idx, Val)]) -> CooMatrix {
        let mut m = CooMatrix::new(n, n);
        for r in 1..n {
            let v = Val::from(r % 3 + 1);
            m.push(r, r - 1, v);
            m.push(r - 1, r, kind.transposed(v, 2.0 * v + 1.0));
        }
        if !kind.requires_zero_diagonal() {
            (0..n).for_each(|i| m.push(i, i, 4.0));
        }
        extra.iter().for_each(|&(r, c, v)| m.push(r, c, v));
        m.canonicalize();
        m
    }

    #[test]
    fn a_leftover_upper_entry_just_past_a_band_boundary_fails_every_band_count() {
        // Row `a - 2` gains the upper entry `(a - 2, a)` at the first row
        // `a` of a band, and no row asks for it: row `a` pairs only with
        // row `a - 1`, and the band before `a` stops short of column `a`.
        // Only the band's closing check sees it.
        let n = 40;
        for kind in SymmetryKind::ALL {
            let rowptr = SssMatrix::from_coo_kind(&tridiagonal(n, kind, &[]), kind, 0.0)
                .unwrap()
                .rowptr()
                .iter()
                .map(|&p| p as usize)
                .collect::<Vec<_>>();
            for k in [2, 3, 8] {
                for &a in &band_starts(&rowptr, k)[1..k] {
                    let a = a as Idx;
                    let m = tridiagonal(n, kind, &[(a - 2, a, 1.0)]);
                    let want = format!("{:?}", relation_error(kind, a - 2, a));
                    for validated in [false, true] {
                        assert_eq!(banded_error(&m, kind, validated), want, "{kind:?} k {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_nan_in_band_one_behind_an_asymmetry_in_band_zero() {
        // With two bands of the 40-row tridiagonal matrix the second starts
        // at row 21. The unvalidated path names the asymmetry at (2, 3);
        // the validated one the NaN at (30, 31), at every band count.
        let n = 40;
        for kind in [SymmetryKind::Symmetric, SymmetryKind::Skew] {
            let rowptr: Vec<usize> =
                SssMatrix::from_coo_kind(&tridiagonal(n, kind, &[]), kind, 0.0)
                    .unwrap()
                    .rowptr()
                    .iter()
                    .map(|&p| p as usize)
                    .collect();
            assert_eq!(band_starts(&rowptr, 2), [0, 21, 40]);
            let m = tridiagonal(n, kind, &[(3, 2, 0.5), (30, 31, f64::NAN)]);
            assert_eq!(
                banded_error(&m, kind, false),
                format!("{:?}", relation_error(kind, 2, 3))
            );
            let nan = SparseError::NonFiniteValue {
                row: 30,
                col: 31,
                value: f64::NAN,
            };
            assert_eq!(banded_error(&m, kind, true), format!("{nan:?}"));
        }
    }

    #[test]
    fn random_offenders_name_the_same_error_at_every_band_count() {
        // One entry dropped, one unpaired entry added, or one mirror off:
        // each band count must name what the one-band sweep names.
        let n = 41;
        for kind in SymmetryKind::ALL {
            let t = kind_triplets(n, kind, 0.0, 3);
            let mut rng = crate::rng::StdRng::seed_from_u64(4);
            for case in 0..30 {
                let mut t = t.clone();
                let k = rng.random_range(0..t.len());
                match case % 3 {
                    0 => {
                        t.remove(k);
                    }
                    1 => {
                        let (r, c) = (rng.random_range(0..n), rng.random_range(0..n));
                        t.push((r, c, 1.0));
                    }
                    _ => t[k].2 += 1.0,
                }
                t.sort_by_key(|&(r, c, _)| (r, c));
                for coo in input_forms(n, &t, case) {
                    let Err(want) = SssMatrix::from_coo_kind(&coo, kind, 0.0) else {
                        continue;
                    };
                    assert_eq!(banded_error(&coo, kind, false), format!("{want:?}"));
                }
            }
        }
    }
}
