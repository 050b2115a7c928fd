//! Substructure detection (§IV-A, Fig. 6).
//!
//! CSX detects instances of several substructure families, then greedily
//! resolves conflicts between them by encoding gain. Every pass runs on a
//! borrowed [`RowView`] — rows that are already sorted — so nothing is
//! copied, comparison-sorted or searched: horizontal runs come from a row
//! scan, vertical/diagonal/anti-diagonal runs from one counting pass on the
//! family's group key (rows ascend inside a bucket because the traversal is
//! row-major), `r × c` blocks from an `r`-way merge of adjacent rows. A
//! candidate carries the *entry indices* of its elements, so acceptance and
//! the encoder never look a coordinate up again.
//!
//! A sampling-based statistics pass first decides which families are worth
//! enabling for a given matrix — this is what keeps the preprocessing cost
//! of §V-E contained. It scores a family by the coverage the greedy
//! acceptance actually keeps on the sample, i.e. by *disjoint* instances:
//! summing overlapping candidates would rate `Block(2,2)` (three anchors per
//! true 3 × 3 block, 12 elements) above the `Block(3,3)` that tiles it (9).

use crate::pattern::{PatternKind, MAX_BLOCK_DIM, MAX_RUN_DELTA};
use crate::rows::RowView;
use std::ops::Range;
use symspmv_sparse::Idx;

/// A substructure family that can be enabled for detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Horizontal runs (any delta up to the configured max).
    Horizontal,
    /// Vertical runs.
    Vertical,
    /// Diagonal runs.
    Diagonal,
    /// Anti-diagonal runs.
    AntiDiagonal,
    /// Dense blocks of the given dimensions.
    Block(u8, u8),
}

/// Detection configuration.
#[derive(Debug, Clone)]
pub struct DetectConfig {
    /// Minimum run length for 1-D substructures (default 4).
    pub min_run_len: usize,
    /// Maximum delta distance for 1-D runs (default [`MAX_RUN_DELTA`]).
    pub max_delta: u8,
    /// Families considered by the statistics pass.
    pub candidate_families: Vec<Family>,
    /// Fraction of rows sampled by the statistics pass (1.0 = full scan).
    /// The default of 0.05 mirrors the paper's "advanced matrix sampling
    /// techniques" that keep the §V-E preprocessing cost contained; small
    /// matrices (< 64 rows) are always fully scanned because sampling works
    /// on 64-row windows.
    pub sample_fraction: f64,
    /// Minimum fraction of (sampled) non-zeros a family must cover to be
    /// enabled for the final encoding pass.
    pub min_coverage: f64,
    /// CSX-Sym boundary (§IV-B): instances whose *column* coordinates fall
    /// on both sides of this split are rejected, because their transposed
    /// writes would target both the local and the output vector.
    pub col_split: Option<Idx>,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            min_run_len: 4,
            max_delta: MAX_RUN_DELTA,
            candidate_families: vec![
                Family::Horizontal,
                Family::Vertical,
                Family::Diagonal,
                Family::AntiDiagonal,
                Family::Block(2, 2),
                Family::Block(3, 3),
                Family::Block(2, 3),
                Family::Block(3, 2),
                Family::Block(4, 4),
            ],
            sample_fraction: 0.05,
            min_coverage: 0.05,
            col_split: None,
        }
    }
}

/// One detected substructure instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instance {
    /// The pattern (family + delta / block dims).
    pub kind: PatternKind,
    /// Anchor row (structurally first element).
    pub row: Idx,
    /// Anchor column.
    pub col: Idx,
    /// Number of elements (≥ 2; ≤ 255 so it fits the unit size byte).
    pub len: u32,
    /// Where the instance's entry indices start in its detection's pool.
    first: u32,
}

impl Instance {
    /// Iterates the element coordinates of this instance.
    pub fn elements(&self) -> impl Iterator<Item = (Idx, Idx)> + '_ {
        (0..self.len).map(move |k| self.kind.element(self.row, self.col, k))
    }

    /// The instance's entry indices within its detection's `pool`.
    fn entries<'p>(&self, pool: &'p [u32]) -> &'p [u32] {
        &pool[self.first as usize..][..self.len as usize]
    }

    /// True if the instance violates the CSX-Sym boundary rule: its columns
    /// fall on both sides of `split`.
    fn straddles(&self, split: Idx) -> bool {
        let run = |delta: u8| (self.len - 1) * Idx::from(delta);
        let (lo, hi) = match self.kind {
            PatternKind::Horizontal { delta } | PatternKind::Diagonal { delta } => {
                (self.col, self.col + run(delta))
            }
            PatternKind::Vertical { .. } => (self.col, self.col),
            PatternKind::AntiDiagonal { delta } => (self.col - run(delta), self.col),
            PatternKind::Block { cols, .. } => (self.col, self.col + Idx::from(cols) - 1),
        };
        lo < split && split <= hi
    }
}

/// Per-entry outcome of acceptance, indexed by entry index − view base.
const FREE: u32 = 0;
/// Inside an accepted instance, but not its anchor.
const COVERED: u32 = 1;
/// `ANCHOR + i`: the anchor (first element) of accepted instance `i`.
const ANCHOR: u32 = 2;

/// What an entry of the view became in a detection result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryRole {
    /// Not covered by any instance: goes to a delta unit.
    Leftover,
    /// Covered by an instance anchored elsewhere.
    Covered,
    /// The anchor of `instances[i]`.
    Anchor(usize),
}

/// The result of detection: accepted instances plus, per entry, whether it
/// anchors one, is covered by one, or is left over.
#[derive(Debug, Clone)]
pub struct Detected {
    /// Accepted instances, in acceptance order (longest first).
    pub instances: Vec<Instance>,
    /// Total non-zeros examined.
    pub nnz: usize,
    /// Entry indices of every candidate's elements, in element order.
    pool: Vec<u32>,
    state: Vec<u32>,
    base: usize,
}

impl Detected {
    /// Fraction of non-zeros covered by substructure instances.
    pub fn coverage(&self) -> f64 {
        let covered: usize = self.instances.iter().map(|i| i.len as usize).sum();
        covered as f64 / self.nnz.max(1) as f64
    }

    /// What entry `e` (an index into the view's column array) became.
    #[inline]
    pub(crate) fn role(&self, e: usize) -> EntryRole {
        match self.state[e - self.base] {
            FREE => EntryRole::Leftover,
            COVERED => EntryRole::Covered,
            a => EntryRole::Anchor((a - ANCHOR) as usize),
        }
    }

    /// Entry indices of an accepted instance's elements, in element order.
    pub(crate) fn entries(&self, inst: &Instance) -> &[u32] {
        inst.entries(&self.pool)
    }
}

/// Runs the full detection pipeline: statistics pass (family selection on a
/// row sample) followed by the encoding pass with the enabled families.
pub fn analyze(view: RowView<'_>, config: &DetectConfig) -> Detected {
    let enabled = select_families(view, config);
    detect_with(view, config, &enabled)
}

/// Height of a sampling window: windows (not single rows) are required so
/// vertical/diagonal runs and blocks remain detectable.
const WINDOW: u64 = 64;

/// Statistics pass: estimates on sampled 64-row windows of the view the
/// coverage greedy acceptance keeps for each candidate family alone, and
/// returns the families above the coverage threshold — of the block shapes
/// only the dominant one: they compete for the same elements, and scanning
/// each costs a full pass (§V-E budget).
pub fn select_families(view: RowView<'_>, config: &DetectConfig) -> Vec<Family> {
    let scan = Scan::new(view, config, true);
    let nnz: usize = scan.rows().map(|r| view.row(r).len()).sum();
    let mut state = vec![FREE; view.nnz()];

    let mut out = Vec::new();
    let mut best_block: Option<(Family, usize)> = None;
    for &fam in &config.candidate_families {
        let mut cands = Candidates::default();
        scan.candidates(fam, &mut cands);
        let mut covered = 0usize;
        for inst in cands.accept(view.base(), &mut state) {
            covered += inst.len as usize;
            // Each family is scored alone: free the entries again.
            for &e in inst.entries(&cands.pool) {
                state[e as usize - view.base()] = FREE;
            }
        }
        if covered as f64 / nnz.max(1) as f64 >= config.min_coverage {
            if let Family::Block(..) = fam {
                if best_block.map(|(_, c)| covered > c).unwrap_or(true) {
                    best_block = Some((fam, covered));
                }
            } else {
                out.push(fam);
            }
        }
    }
    if let Some((fam, _)) = best_block {
        out.push(fam);
    }
    out
}

/// Encoding pass with a fixed set of enabled families.
pub fn detect_with(view: RowView<'_>, config: &DetectConfig, enabled: &[Family]) -> Detected {
    let scan = Scan::new(view, config, false);
    let mut cands = Candidates::default();
    for &fam in enabled {
        scan.candidates(fam, &mut cands);
    }
    let mut state = vec![FREE; view.nnz()];
    let instances = cands.accept(view.base(), &mut state);
    Detected {
        instances,
        nnz: view.nnz(),
        pool: cands.pool,
        state,
        base: view.base(),
    }
}

/// (Possibly overlapping) candidate instances and the entry indices of
/// their elements.
#[derive(Default)]
struct Candidates {
    list: Vec<Instance>,
    pool: Vec<u32>,
}

impl Candidates {
    /// Adds a candidate unless it straddles the split; `entries` yields its
    /// elements' entry indices in element order.
    fn push(
        &mut self,
        kind: PatternKind,
        (row, col): (Idx, Idx),
        entries: impl Iterator<Item = usize>,
        split: Option<Idx>,
    ) {
        let first = self.pool.len();
        self.pool.extend(entries.map(|e| e as u32));
        let inst = Instance {
            kind,
            row,
            col,
            len: (self.pool.len() - first) as u32,
            first: first as u32,
        };
        if split.is_some_and(|s| inst.straddles(s)) {
            self.pool.truncate(first);
        } else {
            self.list.push(inst);
        }
    }

    /// Greedy conflict resolution by gain: longer instances first (they save
    /// the most ctl/colind bytes), blocks break ties ahead of runs because
    /// their head is equally small but they also improve value locality.
    /// Marks the accepted instances' entries in `state`.
    fn accept(&mut self, base: usize, state: &mut [u32]) -> Vec<Instance> {
        self.list.sort_unstable_by_key(|i| {
            let run = !matches!(i.kind, PatternKind::Block { .. });
            (std::cmp::Reverse(i.len), run, i.row, i.col)
        });
        let mut accepted = Vec::new();
        for inst in &self.list {
            let entries = inst.entries(&self.pool);
            if entries.iter().all(|&e| state[e as usize - base] == FREE) {
                for &e in entries {
                    state[e as usize - base] = COVERED;
                }
                state[entries[0] as usize - base] = ANCHOR + accepted.len() as u32;
                accepted.push(*inst);
            }
        }
        accepted
    }
}

/// One candidate-generation pass over windows of the view's rows: `window`
/// rows every `period`, counted from the view's first row — so a view of
/// any size and position has a sample. Rows between windows count as empty.
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

    fn candidates(&self, fam: Family, out: &mut Candidates) {
        match fam {
            Family::Horizontal => self.horizontal_runs(out),
            Family::Block(br, bc) => self.blocks(br, bc, out),
            _ => self.bucketed_runs(fam, out),
        }
    }

    /// Splits one group — positions `pos(0) < pos(1) < …` — into maximal
    /// constant-delta runs, chunked to the 255-element unit size limit, and
    /// reports each as `(first index, length, delta)`.
    fn runs(&self, n: usize, pos: impl Fn(usize) -> Idx, mut emit: impl FnMut(usize, usize, u8)) {
        let mut s = 0usize;
        while s + 1 < n {
            let d = pos(s + 1) - pos(s);
            if d > Idx::from(self.config.max_delta) {
                s += 1;
                continue;
            }
            let mut e = s + 1;
            while e + 1 < n && pos(e + 1) - pos(e) == d {
                e += 1;
            }
            let total = e - s + 1;
            if total >= self.config.min_run_len {
                let mut off = 0usize;
                while total - off >= 2 {
                    let chunk = (total - off).min(255);
                    emit(s + off, chunk, d as u8);
                    off += chunk;
                }
            }
            s = e + 1;
        }
    }

    /// Rows are sorted, so a row *is* the horizontal family's group.
    fn horizontal_runs(&self, out: &mut Candidates) {
        let (cols, split) = (self.view.cols, self.config.col_split);
        for r in self.rows() {
            let row = self.view.row(r);
            self.runs(
                row.len(),
                |i| cols[row.start + i],
                |i, len, delta| {
                    let first = row.start + i;
                    let kind = PatternKind::Horizontal { delta };
                    out.push(kind, (r, cols[first]), first..first + len, split);
                },
            );
        }
    }

    /// Vertical, diagonal and anti-diagonal runs: a counting pass buckets
    /// the entries by the family's group key — column, `c − r`, `r + c` —
    /// and since the traversal is row-major, rows ascend inside a bucket,
    /// which is the order the run scan needs.
    fn bucketed_runs(&self, fam: Family, out: &mut Candidates) {
        let cols = self.view.cols;
        let end = self.view.end_row() as usize;
        let key = |r: Idx, c: Idx| match fam {
            Family::Vertical => c as usize,
            Family::Diagonal => c as usize + end - 1 - r as usize,
            _ => r as usize + c as usize,
        };
        let keys = self.view.ncols as usize + end;
        let mut start = vec![0usize; keys + 1];
        for r in self.rows() {
            for e in self.view.row(r) {
                start[key(r, cols[e]) + 1] += 1;
            }
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut bucketed = vec![(0u32, 0 as Idx); start[keys]];
        for r in self.rows() {
            for e in self.view.row(r) {
                let slot = &mut next[key(r, cols[e])];
                bucketed[*slot] = (e as u32, r);
                *slot += 1;
            }
        }
        for group in start.windows(2).filter(|w| w[1] - w[0] >= 2) {
            let group = &bucketed[group[0]..group[1]];
            self.runs(
                group.len(),
                |i| group[i].1,
                |i, len, delta| {
                    let kind = match fam {
                        Family::Vertical => PatternKind::Vertical { delta },
                        Family::Diagonal => PatternKind::Diagonal { delta },
                        _ => PatternKind::AntiDiagonal { delta },
                    };
                    let (e, r) = group[i];
                    let entries = group[i..i + len].iter().map(|&(e, _)| e as usize);
                    out.push(kind, (r, cols[e as usize]), entries, self.config.col_split);
                },
            );
        }
    }

    /// Full dense `br × bc` blocks anchored at every possible top-left
    /// element, by a `br`-way merge of adjacent sorted rows: a row holds the
    /// block's columns `c..c + bc` iff `bc` consecutive entries span them.
    fn blocks(&self, br: u8, bc: u8, out: &mut Candidates) {
        let (cols, split) = (self.view.cols, self.config.col_split);
        let kind = PatternKind::Block { rows: br, cols: bc };
        let (below_rows, bc) = (br as usize - 1, bc as usize);
        // Whether `row` holds columns `c..c + bc`; advances the row's start,
        // its merge cursor, to the first column ≥ `c`.
        let spans = |row: &mut Range<usize>, c: Idx| {
            while row.start < row.end && cols[row.start] < c {
                row.start += 1;
            }
            let last = row.start + bc - 1;
            last < row.end && cols[row.start] == c && cols[last] == c + (bc - 1) as Idx
        };
        for window in self.windows() {
            // Rows outside the window count as empty.
            let rows = self.view.slice(window.clone());
            for r in window {
                let row = rows.row(r);
                let mut below: [_; MAX_BLOCK_DIM as usize - 1] =
                    std::array::from_fn(|i| rows.row(r + 1 + i as Idx));
                let below = &mut below[..below_rows];
                if below.iter().chain([&row]).any(|b| b.len() < bc) {
                    continue;
                }
                let mut above = r.checked_sub(1).map_or(0..0, |a| rows.row(a));
                for e in row.start..=row.end - bc {
                    let c = cols[e];
                    if cols[e + bc - 1] != c + (bc - 1) as Idx {
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
                    if below.iter_mut().all(|b| spans(b, c)) {
                        let tops = [e].into_iter().chain(below.iter().map(|b| b.start));
                        out.push(kind, (r, c), tops.flat_map(|at| at..at + bc), split);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::coo_rowptr;
    use std::collections::HashSet;
    use symspmv_sparse::CooMatrix;

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

    fn analyze(m: &CooMatrix, config: &DetectConfig) -> Detected {
        let rowptr = coo_rowptr(m);
        super::analyze(RowView::of_coo(m, &rowptr), config)
    }

    fn select_families(m: &CooMatrix, config: &DetectConfig) -> Vec<Family> {
        let rowptr = coo_rowptr(m);
        super::select_families(RowView::of_coo(m, &rowptr), config)
    }

    /// Elements not covered by any instance, row-major.
    fn leftover(d: &Detected, m: &CooMatrix) -> Vec<(Idx, Idx)> {
        let uncovered = |&(e, _): &(usize, _)| d.role(e) == EntryRole::Leftover;
        let coords = m.iter().enumerate().filter(uncovered);
        coords.map(|(_, (r, c, _))| (r, c)).collect()
    }

    fn cfg() -> DetectConfig {
        DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        }
    }

    #[test]
    fn horizontal_run_detected() {
        let m = coo_from(&[(0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]);
        let d = analyze(&m, &cfg());
        assert_eq!(d.instances.len(), 1);
        let i = d.instances[0];
        assert_eq!(i.kind, PatternKind::Horizontal { delta: 1 });
        assert_eq!((i.row, i.col, i.len), (0, 2, 5));
        assert!(leftover(&d, &m).is_empty());
        assert!((d.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn horizontal_with_stride() {
        let m = coo_from(&[(1, 0), (1, 3), (1, 6), (1, 9)]);
        let d = analyze(&m, &cfg());
        assert_eq!(d.instances.len(), 1);
        assert_eq!(d.instances[0].kind, PatternKind::Horizontal { delta: 3 });
    }

    #[test]
    fn vertical_run_detected() {
        let m = coo_from(&[(2, 1), (3, 1), (4, 1), (5, 1)]);
        let d = analyze(&m, &cfg());
        assert_eq!(d.instances.len(), 1);
        assert_eq!(d.instances[0].kind, PatternKind::Vertical { delta: 1 });
        assert_eq!(d.instances[0].row, 2);
    }

    #[test]
    fn diagonal_and_antidiagonal() {
        let diag = coo_from(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let d = analyze(&diag, &cfg());
        assert_eq!(d.instances[0].kind, PatternKind::Diagonal { delta: 1 });

        let anti = coo_from(&[(0, 5), (1, 4), (2, 3), (3, 2)]);
        let d = analyze(&anti, &cfg());
        assert_eq!(d.instances[0].kind, PatternKind::AntiDiagonal { delta: 1 });
        // Anchor is the top-right element.
        assert_eq!((d.instances[0].row, d.instances[0].col), (0, 5));
    }

    #[test]
    fn block_detected_and_preferred() {
        // A full 2x2 block: the block candidate must win over two length-2
        // horizontal runs (which are below min_run_len anyway).
        let m = coo_from(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let d = analyze(&m, &cfg());
        assert_eq!(d.instances.len(), 1);
        assert_eq!(d.instances[0].kind, PatternKind::Block { rows: 2, cols: 2 });
        assert!(leftover(&d, &m).is_empty());
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
        let m = coo_from(&[(5, 3), (5, 4), (5, 5), (5, 6)]);
        let mut c = cfg();
        c.col_split = Some(5);
        let d = analyze(&m, &c);
        assert!(
            d.instances.is_empty(),
            "run crossing the split must be rejected: {:?}",
            d.instances
        );
        assert_eq!(leftover(&d, &m).len(), 4);

        // Entirely on one side: accepted.
        c.col_split = Some(10);
        let d = analyze(&m, &c);
        assert_eq!(d.instances.len(), 1);
    }

    #[test]
    fn family_selection_threshold() {
        // Dominated by one long horizontal run; vertical coverage is zero.
        let mut entries: Vec<(Idx, Idx)> = (0..50).map(|c| (0, c)).collect();
        entries.push((3, 7));
        let m = coo_from(&entries);
        let mut c = cfg();
        c.min_coverage = 0.5;
        let enabled = select_families(&m, &c);
        assert!(enabled.contains(&Family::Horizontal));
        assert!(!enabled.contains(&Family::Vertical));
    }

    #[test]
    fn long_runs_chunked_to_255() {
        let entries: Vec<(Idx, Idx)> = (0..600).map(|c| (0, c)).collect();
        let m = coo_from(&entries);
        let d = analyze(&m, &cfg());
        assert!(d.instances.iter().all(|i| i.len <= 255));
        let covered: u32 = d.instances.iter().map(|i| i.len).sum();
        assert_eq!(covered as usize + leftover(&d, &m).len(), 600);
        assert!(covered >= 510, "chunking should keep most elements covered");
    }

    #[test]
    fn sampling_is_deterministic_and_partial() {
        let entries: Vec<(Idx, Idx)> = (0..4096).map(|i| (i, i / 2)).collect();
        let m = coo_from(&entries);
        let rowptr = coo_rowptr(&m);
        let config = DetectConfig {
            sample_fraction: 0.1,
            ..cfg()
        };
        let sample = || {
            let view = RowView::of_coo(&m, &rowptr);
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
        // matrix that sum enabled `Block(2, 3)`; disjoint coverage ranks the
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
                let blocks: Vec<Family> = select_families(&m, &config)
                    .into_iter()
                    .filter(|f| matches!(f, Family::Block(..)))
                    .collect();
                assert_eq!(blocks, [Family::Block(3, 3)], "split {col_split:?}");
            }
        }
    }

    #[test]
    fn every_view_has_a_sample() {
        // Windows are counted from the view's first row: a partition that
        // starts past row 64 of a matrix shorter than one sampling period
        // still gets its families.
        let mut m = symspmv_sparse::gen::block_structural(120, 3, 14.0, 20, 31);
        m.canonicalize();
        let rowptr = coo_rowptr(&m);
        let tail = RowView::of_coo(&m, &rowptr).slice(200..m.nrows());
        let enabled = super::select_families(tail, &DetectConfig::default());
        assert!(enabled.contains(&Family::Block(3, 3)), "{enabled:?}");
    }
}
