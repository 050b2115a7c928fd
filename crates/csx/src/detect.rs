//! Substructure detection (§IV-A, Fig. 6).
//!
//! CSX detects one substructure family here: dense `r × c` blocks, found by
//! an `r`-way merge of adjacent rows of a borrowed [`RowView`] — rows that
//! are already sorted — so nothing is copied or searched. The paper's 1-D
//! runs (horizontal, vertical, diagonal, anti-diagonal) are not detected: on
//! the suite analogs a run's unit head cost more than the column indices it
//! saved, and scoring them was most of the statistics pass (DESIGN.md §5.2,
//! "No 1-D runs").
//! A detection enables one block shape, so greedy order is scan order: a
//! block is accepted the moment the row-major scan finds it with every entry
//! free. An instance keeps where each of its rows starts, so acceptance and
//! the encoder never look a coordinate up again.
//!
//! A sampling-based statistics pass first decides which block shape is
//! worth enabling for a given matrix — this is what keeps the preprocessing
//! cost of §V-E contained. It scores a shape by the coverage the greedy
//! acceptance actually keeps on the sample, i.e. by *disjoint* blocks:
//! summing overlapping candidates would rate `2 × 2` (three anchors per true
//! 3 × 3 block, 12 elements) above the `3 × 3` that tiles it (9).

use crate::pattern::{PatternKind, MAX_BLOCK_DIM, MIN_BLOCK_DIM};
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
    /// constructors return this error; the others, and [`analyze`], panic
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

/// One detected block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instance {
    /// The block's shape.
    pub kind: PatternKind,
    /// Anchor row (the block's top row).
    pub row: Idx,
    /// Anchor column (the block's left column).
    pub col: Idx,
    /// Number of elements, `rows × cols`.
    pub len: u32,
    /// Where the block's row starts begin in its detection's pool.
    first: u32,
}

impl Instance {
    /// Iterates the element coordinates of this instance.
    pub fn elements(&self) -> impl Iterator<Item = (Idx, Idx)> + '_ {
        (0..self.len).map(move |k| self.kind.element(self.row, self.col, k))
    }

    /// The block's entries in element order, as one segment of `cols`
    /// consecutive entry indices per row, starting at its `pool` slots.
    pub(crate) fn segments<'p>(
        &self,
        pool: &'p [u32],
    ) -> impl Iterator<Item = Range<usize>> + Clone + 'p {
        let PatternKind::Block { rows, cols } = self.kind;
        let starts = &pool[self.first as usize..][..rows.into()];
        starts
            .iter()
            .map(move |&s| s as usize..s as usize + usize::from(cols))
    }

    /// True if the block's columns fall on both sides of `split`, if there
    /// is one (the CSX-Sym boundary rule).
    fn straddles(&self, split: Option<Idx>) -> bool {
        let PatternKind::Block { cols, .. } = self.kind;
        split.is_some_and(|split| self.col < split && split < self.col + Idx::from(cols))
    }
}

/// Accepts an instance if no entry of its segments `segs` is taken yet in
/// `taken` (entry `e` at `taken[e − base]`), and takes them.
fn take(taken: &mut [bool], base: usize, segs: impl Iterator<Item = Range<usize>> + Clone) -> bool {
    let local = segs.flat_map(|s| s.start - base..s.end - base);
    let free = !local.clone().any(|e| taken[e]);
    if free {
        local.for_each(|e| taken[e] = true);
    }
    free
}

/// The result of detection: accepted instances plus, per entry, whether
/// one of them covers it.
#[derive(Debug, Clone)]
pub struct Detected {
    /// Accepted instances, by anchor: row, then column.
    pub instances: Vec<Instance>,
    /// Total non-zeros examined.
    pub nnz: usize,
    /// Row starts of the instances.
    pub(crate) pool: Vec<u32>,
    /// Per entry of the view, from `base`: covered by an instance.
    taken: Vec<bool>,
    base: usize,
}

impl Detected {
    /// Fraction of non-zeros covered by substructure instances.
    pub fn coverage(&self) -> f64 {
        self.covered() as f64 / self.nnz.max(1) as f64
    }

    /// Non-zeros covered by substructure instances.
    pub(crate) fn covered(&self) -> usize {
        self.instances.iter().map(|i| i.len as usize).sum()
    }

    /// The entries of `entries` (indices into the view's column array)
    /// left over for delta units.
    pub(crate) fn free(&self, entries: Range<usize>) -> impl Iterator<Item = u32> + '_ {
        let taken = &self.taken[entries.start - self.base..entries.end - self.base];
        let free = entries.zip(taken).filter(|&(_, &t)| !t);
        free.map(|(e, _)| e as u32)
    }
}

/// Runs the full detection pipeline: statistics pass (block-shape selection
/// on a row sample) followed by the encoding pass with that shape.
pub fn analyze(view: RowView<'_>, config: &DetectConfig) -> Detected {
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    detect_with(view, config, select_block(view, config))
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
    let scan = Scan::new(view, config, true);
    let nnz: usize = scan.rows().map(|r| view.row(r).len()).sum();
    let mut best: Option<((u8, u8), usize)> = None;
    for &(br, bc) in &config.block_shapes {
        let covered = scan.accept_blocks(br, bc).0.len() * usize::from(br * bc);
        if covered as f64 / nnz.max(1) as f64 >= config.min_coverage
            && best.is_none_or(|(_, c)| covered > c)
        {
            best = Some(((br, bc), covered));
        }
    }
    best.map(|(shape, _)| shape)
}

/// Encoding pass with block shape `block` enabled, or none: every entry is
/// then left to delta units.
pub fn detect_with(view: RowView<'_>, config: &DetectConfig, block: Option<(u8, u8)>) -> Detected {
    let (instances, pool, taken) = match block {
        Some((br, bc)) => Scan::new(view, config, false).accept_blocks(br, bc),
        None => (Vec::new(), Vec::new(), vec![false; view.nnz()]),
    };
    Detected {
        instances,
        nnz: view.nnz(),
        pool,
        taken,
        base: view.base(),
    }
}

/// One block scan over windows of the view's rows: `window` rows every
/// `period`, counted from the view's first row — so a view of any size and
/// position has a sample. Rows between windows count as empty.
struct Scan<'a> {
    view: RowView<'a>,
    config: &'a DetectConfig,
    period: usize,
    window: u64,
}

impl<'a> Scan<'a> {
    /// Every row — one window as long as the index type allows — or, for
    /// the statistics pass, deterministic striding: 64-row windows spaced so
    /// that roughly `sample_fraction` of all rows are included (all of them
    /// from 1.0).
    fn new(view: RowView<'a>, config: &'a DetectConfig, sampled: bool) -> Self {
        let fraction = config.sample_fraction;
        assert!(fraction > 0.0, "sample fraction must be positive");
        let (period, window) = if sampled && fraction < 1.0 {
            ((WINDOW as f64 / fraction).ceil() as usize, WINDOW)
        } else {
            (usize::MAX, Idx::MAX.into())
        };
        Scan {
            view,
            config,
            period,
            window,
        }
    }

    /// The windows, clipped to the view.
    fn windows(&self) -> impl Iterator<Item = Range<Idx>> + '_ {
        let end = u64::from(self.view.end_row());
        (u64::from(self.view.first_row)..end)
            .step_by(self.period)
            .map(move |lo| lo as Idx..(lo + self.window).min(end) as Idx)
    }

    fn rows(&self) -> impl Iterator<Item = Idx> + '_ {
        self.windows().flatten()
    }

    /// Accepts `br × bc` blocks as the row-major scan finds them with every
    /// entry free: all have one length, so greedy order *is* scan order.
    /// Blocks come from a `br`-way merge of adjacent sorted rows of each
    /// window (rows outside it count as empty): a row holds the block's
    /// columns `c..c + bc` iff `bc` consecutive entries span them. Returns
    /// the accepted instances, their row starts and the last window's taken
    /// entries (the whole view's, when it is not sampled).
    fn accept_blocks(&self, br: u8, bc: u8) -> (Vec<Instance>, Vec<u32>, Vec<bool>) {
        let kind = PatternKind::Block { rows: br, cols: bc };
        let cols = self.view.cols;
        let (br, bc) = (usize::from(br), usize::from(bc));
        // Whether `row` holds columns `c..c + bc`; advances the row's start,
        // its merge cursor, to the first column ≥ `c`.
        let spans = |row: &mut Range<usize>, c: Idx| {
            while row.start < row.end && cols[row.start] < c {
                row.start += 1;
            }
            let last = row.start + bc - 1;
            last < row.end && cols[row.start] == c && cols[last] == c + (bc - 1) as Idx
        };
        let (mut accepted, mut pool, mut taken) = (Vec::new(), Vec::new(), Vec::new());
        let mut tops = [0usize; MAX_BLOCK_DIM as usize];
        for window in self.windows() {
            let rows = self.view.slice(window);
            let base = rows.base();
            taken = vec![false; rows.nnz()];
            for r in rows.first_row..rows.end_row() {
                let row = rows.row(r);
                let mut below: [_; MAX_BLOCK_DIM as usize - 1] =
                    std::array::from_fn(|i| rows.row(r + 1 + i as Idx));
                let below = &mut below[..br - 1];
                if below.iter().chain([&row]).any(|b| b.len() < bc) {
                    continue;
                }
                let mut above = r.checked_sub(1).map_or(0..0, |a| rows.row(a));
                for e in row.start..=row.end - bc {
                    let c = cols[e];
                    if taken[e - base] || cols[e + bc - 1] != c + (bc - 1) as Idx {
                        continue;
                    }
                    // Quick pruning: only anchor where the element above or
                    // the element to the left is absent, so aligned tilings
                    // are preferred over every offset.
                    if e > row.start && cols[e - 1] + 1 == c {
                        while above.start < above.end && cols[above.start] < c {
                            above.start += 1;
                        }
                        if above.start < above.end && cols[above.start] == c {
                            continue;
                        }
                    }
                    if !below.iter_mut().all(|b| spans(b, c)) {
                        continue;
                    }
                    tops[0] = e;
                    for (t, b) in tops[1..].iter_mut().zip(&*below) {
                        *t = b.start;
                    }
                    let tops = &tops[..br];
                    let inst = Instance {
                        kind,
                        row: r,
                        col: c,
                        len: (br * bc) as u32,
                        first: pool.len() as u32,
                    };
                    let segments = tops.iter().map(|&at| at..at + bc);
                    if !inst.straddles(self.config.col_split) && take(&mut taken, base, segments) {
                        pool.extend(tops.iter().map(|&at| at as u32));
                        accepted.push(inst);
                    }
                }
            }
        }
        (accepted, pool, taken)
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

    fn analyze(m: &CooMatrix, config: &DetectConfig) -> Detected {
        super::analyze(rows_of(&CsrMatrix::from_coo(m)), config)
    }

    fn select_block(m: &CooMatrix, config: &DetectConfig) -> Option<(u8, u8)> {
        super::select_block(rows_of(&CsrMatrix::from_coo(m)), config)
    }

    /// Elements not covered by any instance, row-major.
    fn leftover(d: &Detected, m: &CooMatrix) -> Vec<(Idx, Idx)> {
        let uncovered = |&(e, _): &(usize, _)| d.free(e..e + 1).next().is_some();
        let coords = m.iter().enumerate().filter(uncovered);
        coords.map(|(_, (r, c, _))| (r, c)).collect()
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
        let m = coo_from(run);
        let d = analyze(&m, &cfg());
        assert!(d.instances.is_empty(), "{run:?}");
        assert_eq!(leftover(&d, &m), run, "{run:?}");
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
        // A full 2x2 block: one instance, nothing left over.
        let m = coo_from(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let d = analyze(&m, &cfg());
        assert_eq!(d.instances.len(), 1);
        let i = d.instances[0];
        assert_eq!(i.kind, PatternKind::Block { rows: 2, cols: 2 });
        assert_eq!((i.row, i.col, i.len), (0, 0, 4));
        assert!(leftover(&d, &m).is_empty());
        assert!((d.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn short_runs_left_over() {
        let m = coo_from(&[(0, 0), (0, 1), (0, 5)]);
        let d = analyze(&m, &cfg());
        assert!(d.instances.is_empty());
        assert_eq!(leftover(&d, &m).len(), 3);
        assert_eq!(d.coverage(), 0.0);
    }

    #[test]
    fn no_overlapping_coverage() {
        // A 4x4 dense block: many candidates overlap; accepted instances
        // must partition the covered elements.
        let mut entries = Vec::new();
        for r in 0..4 {
            for c in 0..4 {
                entries.push((r, c));
            }
        }
        let m = coo_from(&entries);
        let d = analyze(&m, &cfg());
        let mut seen = HashSet::new();
        for inst in &d.instances {
            for (r, c) in inst.elements() {
                assert!(seen.insert((r, c)), "element ({r},{c}) covered twice");
            }
        }
        for (r, c) in leftover(&d, &m) {
            assert!(seen.insert((r, c)), "leftover ({r},{c}) also covered");
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn col_split_rejects_straddlers() {
        // 2 × 2 blocks in rows 5..7 at columns 3 and 6: the split at 7
        // falls inside the second.
        let m = coo_from(&blocks(2, 2, &[(5, 3), (5, 6)]));
        let mut c = cfg();
        c.col_split = Some(7);
        let d = analyze(&m, &c);
        let anchors: Vec<_> = d.instances.iter().map(|i| (i.row, i.col)).collect();
        assert_eq!(
            anchors,
            [(5, 3)],
            "a block crossing the split must be rejected"
        );
        assert_eq!(leftover(&d, &m).len(), 4);

        // Entirely on one side: accepted.
        c.col_split = Some(10);
        let d = analyze(&m, &c);
        assert_eq!(d.instances.len(), 2);
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
        let csr = CsrMatrix::from_coo(&m);
        let d = super::detect_with(rows_of(&csr), &c, None);
        assert!(d.instances.is_empty());
        assert_eq!(leftover(&d, &m).len(), m.nnz());
    }

    #[test]
    fn long_runs_chunked_to_255() {
        // A 600-entry row is left to delta units, each of at most 255.
        let entries: Vec<(Idx, Idx)> = (0..600).map(|c| (0, c)).collect();
        let m = coo_from(&entries);
        assert!(analyze(&m, &cfg()).instances.is_empty());
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
            let scan = Scan::new(view, &config, true);
            scan.rows()
                .flat_map(|r| view.row(r))
                .collect::<Vec<usize>>()
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
