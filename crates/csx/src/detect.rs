//! Substructure detection (§IV-A, Fig. 6).
//!
//! CSX detects one substructure family here: dense `r × c` blocks, found by
//! an `r`-way merge of adjacent rows of a borrowed [`RowView`] — rows that
//! are already sorted — so nothing is copied or searched. The paper's 1-D
//! runs (horizontal, vertical, diagonal, anti-diagonal) are not detected: on
//! the suite analogs a run's unit head cost more than the column indices it
//! saved, and scoring them was most of the statistics pass (DESIGN.md §5.2,
//! "No 1-D runs").
//! A detection enables one block shape, so greedy order is scan order: the
//! row-major scan accepts a block the moment it finds it with every entry
//! free, and marks taken entries over the few rows still live, not over the
//! view, so the encoder can emit each row as the scan passes it.
//!
//! A sampling-based statistics pass first decides which block shape is
//! worth enabling for a given matrix — this is what keeps the preprocessing
//! cost of §V-E contained. It scores a shape by the coverage the same
//! scanner keeps on the sample, i.e. by *disjoint* blocks: summing
//! overlapping candidates would rate `2 × 2` (three anchors per true 3 × 3
//! block, 12 elements) above the `3 × 3` that tiles it (9).

use crate::pattern::{MAX_BLOCK_DIM, MIN_BLOCK_DIM};
use crate::rows::RowView;
use std::ops::Range;
use symspmv_sparse::{Idx, SparseError};

/// Detection configuration.
#[derive(Debug, Clone)]
pub struct DetectConfig {
    /// Block shapes `(rows, cols)` the statistics pass scores, in order of
    /// preference on a tie.
    pub block_shapes: Vec<(u8, u8)>,
    /// Fraction of rows sampled by the statistics pass (1.0 = full scan).
    /// The default of 0.05 mirrors the paper's "advanced matrix sampling
    /// techniques" that keep the §V-E preprocessing cost contained; small
    /// matrices (< 64 rows) are always fully scanned because sampling works
    /// on 64-row windows.
    pub sample_fraction: f64,
    /// Minimum fraction of (sampled) non-zeros a block shape must cover to
    /// be enabled for the final encoding pass.
    pub min_coverage: f64,
    /// CSX-Sym boundary (§IV-B): blocks whose *column* coordinates fall on
    /// both sides of this split are rejected, because their transposed
    /// writes would target both the local and the output vector.
    pub col_split: Option<Idx>,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            block_shapes: vec![(2, 2), (3, 3), (2, 3), (3, 2), (4, 4)],
            sample_fraction: 0.05,
            min_coverage: 0.05,
            col_split: None,
        }
    }
}

impl DetectConfig {
    /// Checks the field the pattern-id space bounds: both sides of every
    /// block shape in `MIN_BLOCK_DIM..=MAX_BLOCK_DIM`. The fallible
    /// constructors return this error; the others, and `encode_rows`, panic
    /// with its message before any work.
    pub fn validate(&self) -> Result<(), SparseError> {
        let side = MIN_BLOCK_DIM..=MAX_BLOCK_DIM;
        let outside = |(r, c): &&(u8, u8)| !side.contains(r) || !side.contains(c);
        match self.block_shapes.iter().find(outside) {
            Some(shape) => Err(SparseError::InvalidArgument {
                msg: format!(
                    "DetectConfig::block_shapes holds {shape:?}, a side outside {MIN_BLOCK_DIM}..={MAX_BLOCK_DIM}"
                ),
            }),
            None => Ok(()),
        }
    }
}

/// An accepted block: its anchor (left) column and where each row starts.
pub(crate) struct Block {
    pub(crate) col: Idx,
    pub(crate) tops: [u32; MAX_BLOCK_DIM as usize],
}

/// Height of a sampling window: windows (not single rows) are required so
/// blocks remain detectable.
const WINDOW: u64 = 64;

/// Statistics pass: estimates on sampled 64-row windows of the view the
/// coverage greedy acceptance keeps for each block shape alone, and returns
/// the one that covers most, if it reaches the coverage threshold — the
/// shapes compete for the same elements, and scanning each costs a full pass
/// (§V-E budget). Its work and memory scale with the sample, not the view.
pub fn select_block(view: RowView<'_>, config: &DetectConfig) -> Option<(u8, u8)> {
    let windows = || sample_windows(view, config.sample_fraction);
    let nnz: usize = windows().map(|w| view.slice(w).nnz()).sum();
    let mut best: Option<((u8, u8), usize)> = None;
    for &(br, bc) in &config.block_shapes {
        let size = usize::from(br * bc);
        // A shape covers at most what it has plus the rows not scanned yet:
        // once that cannot beat the best, its score no longer matters.
        let (mut blocks, mut unscanned) = (Vec::new(), nnz);
        'shape: for window in windows() {
            let rows = view.slice(window.clone());
            let mut scan = Scanner::new(rows, Some((br, bc)), config.col_split);
            for r in window {
                if best.is_some_and(|(_, c)| blocks.len() * size + unscanned <= c) {
                    break 'shape;
                }
                scan.scan_row(r, &mut blocks);
                unscanned -= rows.row(r).len();
            }
        }
        let covered = blocks.len() * size;
        if covered as f64 / nnz.max(1) as f64 >= config.min_coverage
            && best.is_none_or(|(_, c)| covered > c)
        {
            best = Some(((br, bc), covered));
        }
    }
    best.map(|(shape, _)| shape)
}

/// The statistics pass's rows: `WINDOW` rows every `WINDOW / fraction`
/// from the view's first row, clipped to it (so any view has a sample), or
/// from a fraction of 1.0 the whole view as one window.
fn sample_windows(view: RowView<'_>, fraction: f64) -> impl Iterator<Item = Range<Idx>> {
    assert!(fraction > 0.0, "sample fraction must be positive");
    let (period, window) = if fraction < 1.0 {
        ((WINDOW as f64 / fraction).ceil() as usize, WINDOW)
    } else {
        (usize::MAX, Idx::MAX.into())
    };
    let end = u64::from(view.end_row());
    (u64::from(view.first_row)..end)
        .step_by(period)
        .map(move |lo| lo as Idx..(lo + window).min(end) as Idx)
}

/// The greedy row-major block scan of one shape over a view (rows outside
/// it count as empty), row by row in order: a taken mark is final once the
/// `R − 1` rows below its row are scanned.
pub(crate) struct Scanner<'a> {
    view: RowView<'a>,
    /// The enabled shape `(R, C)`, if any: without one nothing is taken.
    shape: Option<(usize, usize)>,
    split: Option<Idx>,
    /// Entry `e` is taken iff `marks[e mod len] == e + 1`: a power-of-two
    /// ring over any `2R − 1` rows (the `R` a scanned row's blocks reach,
    /// the `R − 1` above that a reader `R − 1` rows behind still reads).
    marks: Vec<u32>,
    /// Entries taken in row `r`, at `per_row[r % LIVE_ROWS]`: counted from
    /// when the scan of row `r − R + 1` makes the row reachable.
    per_row: [usize; LIVE_ROWS],
    /// One past the last row an accepted block reaches.
    reach: Idx,
}

/// A power of two above the `2R − 1` rows a [`Scanner`] keeps live.
const LIVE_ROWS: usize = 2 * MAX_BLOCK_DIM as usize;

impl<'a> Scanner<'a> {
    /// A scan of `view` for `shape` blocks, or for none, that rejects
    /// blocks whose columns fall on both sides of `split` (the CSX-Sym
    /// boundary rule).
    pub(crate) fn new(view: RowView<'a>, shape: Option<(u8, u8)>, split: Option<Idx>) -> Self {
        let shape = shape.map(|(r, c)| (usize::from(r), usize::from(c)));
        let live = shape.map_or(0, |(r, _)| view.max_span(2 * r - 1));
        Scanner {
            view,
            shape,
            split,
            marks: vec![0; live.next_power_of_two()],
            per_row: [0; LIVE_ROWS],
            reach: 0,
        }
    }

    /// Whether entry `e`, of a row no more than `2R − 2` rows above the
    /// last row scanned, is taken by a block.
    pub(crate) fn taken(&self, e: usize) -> bool {
        self.marks[e & (self.marks.len() - 1)] == e as u32 + 1
    }

    /// Appends to `out` the entries of `entries`, row `r`'s or its head's,
    /// that no block takes, stepping over each block's segment at its first.
    pub(crate) fn free(&self, r: Idx, entries: Range<usize>, out: &mut Vec<u32>) {
        let Some((_, bc)) = self.shape else {
            return out.extend(entries.map(|e| e as u32));
        };
        if self.per_row[r as usize % LIVE_ROWS] == entries.len() {
            return;
        }
        let mut e = entries.start;
        while e < entries.end {
            let taken = self.taken(e);
            if !taken {
                out.push(e as u32);
            }
            e += if taken { bc } else { 1 };
        }
    }

    /// Scans row `r`, the next row, and appends to `out` the blocks anchored
    /// in it that greedy acceptance keeps, by column: an `R`-way merge of the
    /// row and the `R − 1` below, where a row holds columns `c..c + C` iff
    /// `C` consecutive entries span them.
    pub(crate) fn scan_row(&mut self, r: Idx, out: &mut Vec<Block>) {
        let Some((br, bc)) = self.shape else { return };
        self.per_row[(r as usize + br - 1) % LIVE_ROWS] = 0;
        let cols = self.view.cols;
        // Whether `row` holds columns `c..c + bc`; advances the row's start,
        // its merge cursor, to the first column ≥ `c`.
        let spans = |row: &mut Range<usize>, c: Idx| {
            while row.start < row.end && cols[row.start] < c {
                row.start += 1;
            }
            let last = row.start + bc - 1;
            last < row.end && cols[row.start] == c && cols[last] == c + (bc - 1) as Idx
        };
        let row = self.view.row(r);
        // A block's segment of this row is `C` free entries.
        if row.len() - self.per_row[r as usize % LIVE_ROWS] < bc {
            return;
        }
        let mut below: [_; MAX_BLOCK_DIM as usize - 1] =
            std::array::from_fn(|i| self.view.row(r + 1 + i as Idx));
        let below = &mut below[..br - 1];
        if below.iter().any(|b| b.len() < bc) {
            return;
        }
        // Rows below that start with this row's columns (an aligned block
        // row) hold every candidate's columns at the candidate's offset.
        let own = &cols[row.clone()];
        let aligned = below.iter().all(|b| cols[b.clone()].starts_with(own));
        let mut above = r.checked_sub(1).map_or(0..0, |a| self.view.row(a));
        // No block anchored above reaches this row: only this row's blocks
        // take entries here or below, the walk steps over each, and each
        // ends left of a later candidate in every row.
        let clear = self.reach <= r;
        let mut next = row.start;
        while next + bc <= row.end {
            let e = next;
            // A taken entry starts a block's segment of this row.
            if !clear && self.taken(e) {
                next = e + bc;
                continue;
            }
            next = e + 1;
            let c = cols[e];
            if cols[e + bc - 1] != c + (bc - 1) as Idx {
                continue;
            }
            // Quick pruning: only anchor where the element above or the
            // element to the left is absent, so aligned tilings are
            // preferred over every offset.
            if e > row.start && cols[e - 1] + 1 == c {
                while above.start < above.end && cols[above.start] < c {
                    above.start += 1;
                }
                if above.start < above.end && cols[above.start] == c {
                    continue;
                }
            }
            if !aligned && !below.iter_mut().all(|b| spans(b, c)) {
                continue;
            }
            if self.split.is_some_and(|s| c < s && s < c + bc as Idx) {
                continue;
            }
            let mut tops = [e as u32; MAX_BLOCK_DIM as usize];
            let shift = if aligned { e - row.start } else { 0 };
            for (t, b) in tops[1..].iter_mut().zip(&*below) {
                *t = (b.start + shift) as u32;
            }
            let segments = tops[..br].iter().map(|&t| t as usize..t as usize + bc);
            if !clear && segments.clone().any(|mut s| s.any(|e| self.taken(e))) {
                continue;
            }
            let mask = self.marks.len() - 1;
            for (i, &t) in tops[..br].iter().enumerate() {
                for e in t as usize..t as usize + bc {
                    self.marks[e & mask] = e as u32 + 1;
                }
                self.per_row[(r as usize + i) % LIVE_ROWS] += bc;
            }
            out.push(Block { col: c, tops });
            self.reach = r + br as Idx;
            next = e + bc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use symspmv_sparse::{CooMatrix, CsrMatrix};

    fn coo_from(entries: &[(Idx, Idx)]) -> CooMatrix {
        let n = entries
            .iter()
            .map(|&(r, c)| r.max(c) + 1)
            .max()
            .unwrap_or(1);
        let mut m = CooMatrix::new(n, n);
        for &(r, c) in entries {
            m.push(r, c, 1.0);
        }
        m.canonicalize();
        m
    }

    fn rows_of(csr: &CsrMatrix) -> RowView<'_> {
        RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind())
    }

    /// What detection makes of `m`: the statistics pass's shape, then the
    /// anchors of the blocks the scan of every row accepts, by row and
    /// column, and the elements no block covers, row-major.
    struct Detection {
        shape: Option<(u8, u8)>,
        anchors: Vec<(Idx, Idx)>,
        leftover: Vec<(Idx, Idx)>,
    }

    impl Detection {
        fn coverage(&self) -> f64 {
            let (r, c) = self.shape.unwrap_or((0, 0));
            let covered = self.anchors.len() * usize::from(r * c);
            covered as f64 / (covered + self.leftover.len()).max(1) as f64
        }
    }

    fn detect(m: &CooMatrix, config: &DetectConfig) -> Detection {
        let csr = CsrMatrix::from_coo(m);
        let view = rows_of(&csr);
        let shape = super::select_block(view, config);
        let mut scan = Scanner::new(view, shape, config.col_split);
        let (mut found, mut anchors) = (Vec::new(), Vec::new());
        for r in view.first_row..view.end_row() {
            found.clear();
            scan.scan_row(r, &mut found);
            anchors.extend(found.iter().map(|b| (r, b.col)));
        }
        let (br, bc) = shape.map_or((0, 0), |(r, c)| (Idx::from(r), Idx::from(c)));
        let mut covered = HashSet::new();
        for cell in blocks(br, bc, &anchors) {
            assert!(covered.insert(cell), "element {cell:?} covered twice");
        }
        let coords = m.iter().map(|(r, c, _)| (r, c));
        Detection {
            shape,
            anchors,
            leftover: coords.filter(|e| !covered.contains(e)).collect(),
        }
    }

    fn select_block(m: &CooMatrix, config: &DetectConfig) -> Option<(u8, u8)> {
        super::select_block(rows_of(&CsrMatrix::from_coo(m)), config)
    }

    fn cfg() -> DetectConfig {
        DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        }
    }

    /// `r × c` blocks anchored at each of `anchors`.
    fn blocks(r: Idx, c: Idx, anchors: &[(Idx, Idx)]) -> Vec<(Idx, Idx)> {
        let cells = |&(i, j): &(Idx, Idx)| (0..r * c).map(move |k| (i + k / c, j + k % c));
        anchors.iter().flat_map(cells).collect()
    }

    /// Runs are no pattern family: no block covers `run`, so every element
    /// is left to delta units.
    fn assert_left_to_delta_units(run: &[(Idx, Idx)]) {
        let d = detect(&coo_from(run), &cfg());
        assert!(d.anchors.is_empty(), "{run:?}");
        assert_eq!(d.leftover, run, "{run:?}");
        assert_eq!(d.coverage(), 0.0);
    }

    #[test]
    fn horizontal_run_detected() {
        assert_left_to_delta_units(&[(0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]);
    }

    #[test]
    fn horizontal_with_stride() {
        assert_left_to_delta_units(&[(1, 0), (1, 3), (1, 6), (1, 9)]);
    }

    #[test]
    fn vertical_run_detected() {
        assert_left_to_delta_units(&[(2, 1), (3, 1), (4, 1), (5, 1)]);
    }

    #[test]
    fn diagonal_and_antidiagonal() {
        assert_left_to_delta_units(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
        assert_left_to_delta_units(&[(0, 5), (1, 4), (2, 3), (3, 2)]);
    }

    #[test]
    fn block_detected_and_preferred() {
        // A full 2x2 block: one block, nothing left over.
        let d = detect(&coo_from(&[(0, 0), (0, 1), (1, 0), (1, 1)]), &cfg());
        assert_eq!(d.shape, Some((2, 2)));
        assert_eq!(d.anchors, [(0, 0)]);
        assert!(d.leftover.is_empty());
        assert!((d.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn short_runs_left_over() {
        let d = detect(&coo_from(&[(0, 0), (0, 1), (0, 5)]), &cfg());
        assert!(d.anchors.is_empty());
        assert_eq!(d.leftover.len(), 3);
        assert_eq!(d.coverage(), 0.0);
    }

    #[test]
    fn no_overlapping_coverage() {
        // A 4x4 dense block: many candidates overlap; accepted blocks must
        // partition the covered elements (`detect` asserts it).
        let d = detect(&coo_from(&blocks(4, 4, &[(0, 0)])), &cfg());
        let (r, c) = d.shape.unwrap();
        assert_eq!(d.anchors.len() * usize::from(r * c) + d.leftover.len(), 16);
    }

    #[test]
    fn col_split_rejects_straddlers() {
        // 2 × 2 blocks in rows 5..7 at columns 3 and 6: the split at 7
        // falls inside the second.
        let m = coo_from(&blocks(2, 2, &[(5, 3), (5, 6)]));
        let mut c = cfg();
        c.col_split = Some(7);
        let d = detect(&m, &c);
        assert_eq!(
            d.anchors,
            [(5, 3)],
            "a block crossing the split must be rejected"
        );
        assert_eq!(d.leftover.len(), 4);

        // Entirely on one side: accepted.
        c.col_split = Some(10);
        assert_eq!(detect(&m, &c).anchors.len(), 2);
    }

    #[test]
    fn family_selection_threshold() {
        // One 2 × 2 block among 50 entries of a row covers 4 of 54.
        let mut entries: Vec<(Idx, Idx)> = (0..50).map(|c| (0, 2 * c)).collect();
        entries.extend(blocks(2, 2, &[(3, 7)]));
        let m = coo_from(&entries);
        let mut c = cfg();
        c.min_coverage = 0.05;
        assert_eq!(select_block(&m, &c), Some((2, 2)));
        c.min_coverage = 0.1;
        assert_eq!(select_block(&m, &c), None);
        // With no shape enabled every entry is a leftover.
        let d = detect(&m, &c);
        assert!(d.anchors.is_empty());
        assert_eq!(d.leftover.len(), m.nnz());
    }

    #[test]
    fn long_runs_chunked_to_255() {
        // A 600-entry row is left to delta units, each of at most 255.
        let entries: Vec<(Idx, Idx)> = (0..600).map(|c| (0, c)).collect();
        let m = coo_from(&entries);
        assert!(detect(&m, &cfg()).anchors.is_empty());
        let stream = crate::encode::encode_coo(&m, &cfg());
        let mut sizes = Vec::new();
        stream.walk(|u| sizes.push(u.elements), |_, _, _| {});
        assert_eq!(sizes, [255, 255, 90]);
    }

    #[test]
    fn sampling_is_deterministic_and_partial() {
        let entries: Vec<(Idx, Idx)> = (0..4096).map(|i| (i, i / 2)).collect();
        let m = coo_from(&entries);
        let csr = CsrMatrix::from_coo(&m);
        let config = DetectConfig {
            sample_fraction: 0.1,
            ..cfg()
        };
        let sample = || {
            let view = rows_of(&csr);
            let rows = sample_windows(view, config.sample_fraction).flatten();
            rows.flat_map(|r| view.row(r)).collect::<Vec<usize>>()
        };
        let (s1, s2) = (sample(), sample());
        assert_eq!(s1, s2);
        assert!(s1.len() < m.nnz());
        assert!(!s1.is_empty());
    }

    #[test]
    fn dominant_block_shape_is_the_one_that_tiles() {
        // 3-dof block matrices: summed over overlapping anchors, 2×2 (three
        // anchors × 4 per isolated true block), 2×3 and 3×2 (two × 6) all
        // outscore the 3×3 that tiles it (one × 9) — on the second, sparser
        // matrix that sum enabled `(2, 3)`; disjoint coverage ranks the
        // tiling shape first.
        use symspmv_sparse::gen::block_structural;
        for mut m in [
            block_structural(120, 3, 14.0, 20, 31),
            block_structural(400, 3, 6.0, 150, 31),
        ] {
            m.canonicalize();
            for col_split in [None, Some(m.ncols() / 2)] {
                let config = DetectConfig {
                    col_split,
                    ..DetectConfig::default()
                };
                assert_eq!(
                    select_block(&m, &config),
                    Some((3, 3)),
                    "split {col_split:?}"
                );
            }
        }
    }

    #[test]
    fn every_view_has_a_sample() {
        // Windows are counted from the view's first row: a partition that
        // starts past row 64 of a matrix shorter than one sampling period
        // still gets its block shape.
        let m = symspmv_sparse::gen::block_structural(120, 3, 14.0, 20, 31);
        let csr = CsrMatrix::from_coo(&m);
        let tail = rows_of(&csr).slice(200..m.nrows());
        let enabled = super::select_block(tail, &DetectConfig::default());
        assert_eq!(enabled, Some((3, 3)));
    }
}
