//! Substructure detection (§IV-A, Fig. 6).
//!
//! CSX detects instances of several substructure families, then greedily
//! resolves conflicts between them by encoding gain. Every pass runs on a
//! borrowed [`RowView`] — rows that are already sorted — so nothing is
//! copied or searched: horizontal runs come from a row scan,
//! vertical/diagonal/anti-diagonal runs from one bucketing pass on the
//! family's group key (rows ascend inside a bucket because the traversal is
//! row-major), `r × c` blocks from an `r`-way merge of adjacent rows. An
//! instance keeps where each of its segments starts (a block row, a whole
//! horizontal run, one element of another run), so acceptance and the
//! encoder never look a coordinate up again. With one block shape alone,
//! greedy order is scan order: a block is accepted as the scan finds it
//! with every entry free. Runs and mixed sets list and sort candidates.
//!
//! A sampling-based statistics pass first decides which families are worth
//! enabling for a given matrix — this is what keeps the preprocessing cost
//! of §V-E contained. It scores a family by the coverage the greedy
//! acceptance actually keeps on the sample, i.e. by *disjoint* instances:
//! summing overlapping candidates would rate `Block(2,2)` (three anchors per
//! true 3 × 3 block, 12 elements) above the `Block(3,3)` that tiles it (9).

use crate::pattern::{PatternKind, MAX_BLOCK_DIM, MAX_RUN_DELTA, MIN_BLOCK_DIM};
use crate::rows::RowView;
use std::ops::Range;
use symspmv_sparse::{Idx, SparseError};

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

impl DetectConfig {
    /// Checks the fields the pattern-id space bounds: `max_delta` in
    /// `1..=MAX_RUN_DELTA`, and both sides of every candidate
    /// [`Family::Block`] in `MIN_BLOCK_DIM..=MAX_BLOCK_DIM`. The fallible
    /// constructors return this error; the others, and [`analyze`], panic
    /// with its message before any work.
    pub fn validate(&self) -> Result<(), SparseError> {
        let bad = |msg: String| Err(SparseError::InvalidArgument { msg });
        if !(1..=MAX_RUN_DELTA).contains(&self.max_delta) {
            let d = self.max_delta;
            return bad(format!(
                "DetectConfig::max_delta {d} lies outside 1..={MAX_RUN_DELTA}"
            ));
        }
        let side = MIN_BLOCK_DIM..=MAX_BLOCK_DIM;
        let outside = |f: &&Family| matches!(f, Family::Block(r, c) if !side.contains(r) || !side.contains(c));
        if let Some(f) = self.candidate_families.iter().find(outside) {
            return bad(format!(
                "DetectConfig::candidate_families holds {f:?}, a side outside {MIN_BLOCK_DIM}..={MAX_BLOCK_DIM}"
            ));
        }
        Ok(())
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
    /// Where the instance's segment starts begin in its detection's pool.
    first: u32,
}

impl Instance {
    fn new(kind: PatternKind, (row, col): (Idx, Idx), len: usize) -> Self {
        Instance {
            kind,
            row,
            col,
            len: len as u32,
            first: 0,
        }
    }

    /// Iterates the element coordinates of this instance.
    pub fn elements(&self) -> impl Iterator<Item = (Idx, Idx)> + '_ {
        (0..self.len).map(move |k| self.kind.element(self.row, self.col, k))
    }

    /// The instance's entries in element order, as `count` segments of
    /// `width` consecutive entry indices — a block's rows, a horizontal run
    /// whole, any other run element by element — starting at its `pool`
    /// slots.
    pub(crate) fn segments<'p>(
        &self,
        pool: &'p [u32],
    ) -> impl Iterator<Item = Range<usize>> + Clone + 'p {
        let (count, width) = match self.kind {
            PatternKind::Block { rows, cols } => (rows.into(), cols.into()),
            PatternKind::Horizontal { .. } => (1, self.len as usize),
            _ => (self.len as usize, 1),
        };
        let starts = &pool[self.first as usize..][..count];
        starts.iter().map(move |&s| s as usize..s as usize + width)
    }

    /// True if the instance violates the CSX-Sym boundary rule: its columns
    /// fall on both sides of `split`, if there is one.
    fn straddles(&self, split: Option<Idx>) -> bool {
        let Some(split) = split else { return false };
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
    /// Segment starts of the instances (on the list path, of all candidates).
    pub(crate) pool: Vec<u32>,
    /// Per entry of the view, from `base`: covered by an instance.
    taken: Vec<bool>,
    base: usize,
}

impl Detected {
    /// Fraction of non-zeros covered by substructure instances.
    pub fn coverage(&self) -> f64 {
        let covered: usize = self.instances.iter().map(|i| i.len as usize).sum();
        covered as f64 / self.nnz.max(1) as f64
    }

    /// The entries of `entries` (indices into the view's column array)
    /// left over for delta units.
    pub(crate) fn free(&self, entries: Range<usize>) -> impl Iterator<Item = u32> + '_ {
        let taken = &self.taken[entries.start - self.base..entries.end - self.base];
        let free = entries.zip(taken).filter(|&(_, &t)| !t);
        free.map(|(e, _)| e as u32)
    }
}

/// Runs the full detection pipeline: statistics pass (family selection on a
/// row sample) followed by the encoding pass with the enabled families.
pub fn analyze(view: RowView<'_>, config: &DetectConfig) -> Detected {
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
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
/// each costs a full pass (§V-E budget). Its work and memory scale with the
/// sample, not the view.
pub fn select_families(view: RowView<'_>, config: &DetectConfig) -> Vec<Family> {
    let scan = Scan::new(view, config, true);
    let nnz: usize = scan.rows().map(|r| view.row(r).len()).sum();
    let mut out = Vec::new();
    let mut best_block: Option<(Family, usize)> = None;
    for &fam in &config.candidate_families {
        let covered = match fam {
            Family::Block(br, bc) => scan.accept_blocks(br, bc).0.len() * usize::from(br * bc),
            // Each entry has one group and a group's runs are disjoint, so
            // greedy acceptance keeps every candidate of a run family alone.
            _ => {
                let mut cands = Candidates::default();
                scan.runs(fam, &mut cands);
                cands.list.iter().map(|i| i.len as usize).sum()
            }
        };
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
    let (instances, pool, taken) = match *enabled {
        [Family::Block(br, bc)] => scan.accept_blocks(br, bc),
        _ => {
            let mut taken = vec![false; view.nnz()];
            let mut cands = Candidates::default();
            for &fam in enabled {
                match fam {
                    // Every entry stays free while candidates are listed.
                    Family::Block(br, bc) => {
                        scan.blocks(view, br, bc, &mut taken, |_, inst, tops| {
                            scan.offer(&mut cands, inst, tops.iter().copied())
                        })
                    }
                    _ => scan.runs(fam, &mut cands),
                }
            }
            (cands.accept(view.base(), &mut taken), cands.pool, taken)
        }
    };
    Detected {
        instances,
        nnz: view.nnz(),
        pool,
        taken,
        base: view.base(),
    }
}

/// (Possibly overlapping) candidate instances and their segment starts.
#[derive(Default)]
struct Candidates {
    list: Vec<Instance>,
    pool: Vec<u32>,
}

impl Candidates {
    /// Greedy conflict resolution by gain: longer instances first (they save
    /// the most ctl/colind bytes), blocks break ties ahead of runs because
    /// their head is equally small but they also improve value locality.
    /// Takes the accepted instances' entries in `taken`, and returns the
    /// instances by anchor.
    fn accept(&mut self, base: usize, taken: &mut [bool]) -> Vec<Instance> {
        self.list.sort_unstable_by_key(|i| {
            let run = !matches!(i.kind, PatternKind::Block { .. });
            (std::cmp::Reverse(i.len), run, i.row, i.col)
        });
        let mut accepted = Vec::new();
        for inst in &self.list {
            if take(taken, base, inst.segments(&self.pool)) {
                accepted.push(*inst);
            }
        }
        // Each length class was accepted in anchor order: a stable sort
        // merges those runs.
        accepted.sort_by_key(|i| (i.row, i.col));
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

    /// Lists `inst`, whose segments begin at `starts`, unless it straddles
    /// the split.
    fn offer(&self, out: &mut Candidates, inst: Instance, starts: impl Iterator<Item = usize>) {
        if !inst.straddles(self.config.col_split) {
            let first = out.pool.len() as u32;
            out.pool.extend(starts.map(|e| e as u32));
            out.list.push(Instance { first, ..inst });
        }
    }

    /// The candidates of a run family.
    fn runs(&self, fam: Family, out: &mut Candidates) {
        match fam {
            Family::Horizontal => self.horizontal_runs(out),
            Family::Block(..) => unreachable!("blocks are found by `Scan::blocks`"),
            _ => self.bucketed_runs(fam, out),
        }
    }

    /// Splits one group — positions `pos(0) < pos(1) < …` — into maximal
    /// constant-delta runs, chunked to the 255-element unit size limit, and
    /// reports each as `(first index, length, delta)`.
    fn split(&self, n: usize, pos: impl Fn(usize) -> Idx, mut emit: impl FnMut(usize, usize, u8)) {
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
        let cols = self.view.cols;
        for r in self.rows() {
            let row = self.view.row(r);
            self.split(
                row.len(),
                |i| cols[row.start + i],
                |i, len, delta| {
                    let first = row.start + i;
                    let kind = PatternKind::Horizontal { delta };
                    let inst = Instance::new(kind, (r, cols[first]), len);
                    self.offer(out, inst, std::iter::once(first));
                },
            );
        }
    }

    /// Vertical, diagonal and anti-diagonal runs, from the scanned entries
    /// grouped by the family's key — column, `c − r`, `r + c` — with rows
    /// ascending inside a group, which is the order the run scan needs.
    fn bucketed_runs(&self, fam: Family, out: &mut Candidates) {
        let cols = self.view.cols;
        let end = self.view.end_row() as usize;
        let key = |r: Idx, c: Idx| match fam {
            Family::Vertical => c as usize,
            Family::Diagonal => c as usize + end - 1 - r as usize,
            _ => r as usize + c as usize,
        };
        let (bucketed, starts) = self.bucket(self.view.ncols as usize + end, key);
        let shortest = self.config.min_run_len.max(2);
        for w in starts.windows(2).filter(|w| w[1] - w[0] >= shortest) {
            let group = &bucketed[w[0]..w[1]];
            self.split(
                group.len(),
                |i| group[i].1,
                |i, len, delta| {
                    let kind = match fam {
                        Family::Vertical => PatternKind::Vertical { delta },
                        Family::Diagonal => PatternKind::Diagonal { delta },
                        _ => PatternKind::AntiDiagonal { delta },
                    };
                    let (e, r) = group[i];
                    let inst = Instance::new(kind, (r, cols[e as usize]), len);
                    let starts = group[i..i + len].iter().map(|&(e, _)| e as usize);
                    self.offer(out, inst, starts);
                },
            );
        }
    }

    /// The scanned entries `(entry, row)` grouped by key (below `keys`), rows
    /// ascending inside a group, and where each group starts (then the end).
    /// A whole view takes one counting pass over the keys; a sample, whose key
    /// range may be far longer than it, a stable LSD radix sort with digits
    /// about as wide as it is long, so its work scales with the sample.
    fn bucket(
        &self,
        keys: usize,
        key: impl Fn(Idx, Idx) -> usize,
    ) -> (Vec<(u32, Idx)>, Vec<usize>) {
        let cols = self.view.cols;
        if self.period == usize::MAX {
            let mut start = vec![0usize; keys + 1];
            for r in self.rows() {
                for e in self.view.row(r) {
                    start[key(r, cols[e]) + 1] += 1;
                }
            }
            for k in 0..keys {
                start[k + 1] += start[k];
            }
            let (mut next, mut out) = (start.clone(), vec![(0, 0); start[keys]]);
            for r in self.rows() {
                for e in self.view.row(r) {
                    let slot = &mut next[key(r, cols[e])];
                    out[*slot] = (e as u32, r);
                    *slot += 1;
                }
            }
            return (out, start);
        }
        let mut sorted = Vec::new();
        for r in self.rows() {
            sorted.extend(self.view.row(r).map(|e| (key(r, cols[e]), e as u32, r)));
        }
        let key_bits = usize::BITS - keys.saturating_sub(1).leading_zeros();
        let passes = key_bits.div_ceil((usize::BITS - sorted.len().leading_zeros()).max(1));
        let bits = key_bits.div_ceil(passes.max(1));
        let mut count = vec![0usize; (1 << bits) + 1];
        let mut out = vec![(0, 0, 0); sorted.len()];
        for pass in 0..passes {
            let digit = |&(k, ..): &(usize, u32, Idx)| k >> (pass * bits) & ((1 << bits) - 1);
            count.fill(0);
            sorted.iter().for_each(|t| count[digit(t) + 1] += 1);
            for d in 0..1 << bits {
                count[d + 1] += count[d];
            }
            for t in &sorted {
                let slot = &mut count[digit(t)];
                out[*slot] = *t;
                *slot += 1;
            }
            std::mem::swap(&mut sorted, &mut out);
        }
        let n = sorted.len();
        let starts = (0..=n).filter(|&i| i == 0 || i == n || sorted[i - 1].0 != sorted[i].0);
        let entries = sorted.iter().map(|&(_, e, r)| (e, r)).collect();
        (entries, starts.collect())
    }

    /// Accepts `br × bc` blocks as the row-major scan finds them with every
    /// entry free: all have one length, so greedy order *is* scan order.
    /// Returns the accepted instances, their segment starts and the last
    /// window's taken entries (the whole view's, when it is not sampled).
    fn accept_blocks(&self, br: u8, bc: u8) -> (Vec<Instance>, Vec<u32>, Vec<bool>) {
        let (mut accepted, mut pool, mut taken) = (Vec::new(), Vec::new(), Vec::new());
        for window in self.windows() {
            let rows = self.view.slice(window);
            taken = vec![false; rows.nnz()];
            self.blocks(rows, br, bc, &mut taken, |taken, inst, tops| {
                let segments = tops.iter().map(|&at| at..at + usize::from(bc));
                if !inst.straddles(self.config.col_split) && take(taken, rows.base(), segments) {
                    let first = pool.len() as u32;
                    pool.extend(tops.iter().map(|&at| at as u32));
                    accepted.push(Instance { first, ..inst });
                }
            });
        }
        (accepted, pool, taken)
    }

    /// Full dense `br × bc` blocks in `rows` (rows outside count as empty),
    /// in row-major anchor order, by a `br`-way merge of adjacent sorted
    /// rows: a row holds the block's columns `c..c + bc` iff `bc`
    /// consecutive entries span them. `found(taken, block, tops)` gets each
    /// block whose anchor is not in `taken` (indexed from `rows.base()`),
    /// with the entry index of its first element in each of its rows.
    fn blocks(
        &self,
        rows: RowView<'_>,
        br: u8,
        bc: u8,
        taken: &mut [bool],
        mut found: impl FnMut(&mut [bool], Instance, &[usize]),
    ) {
        let kind = PatternKind::Block { rows: br, cols: bc };
        let (cols, base) = (self.view.cols, rows.base());
        let (br, bc) = (br as usize, bc as usize);
        // Whether `row` holds columns `c..c + bc`; advances the row's start,
        // its merge cursor, to the first column ≥ `c`.
        let spans = |row: &mut Range<usize>, c: Idx| {
            while row.start < row.end && cols[row.start] < c {
                row.start += 1;
            }
            let last = row.start + bc - 1;
            last < row.end && cols[row.start] == c && cols[last] == c + (bc - 1) as Idx
        };
        let mut tops = [0usize; MAX_BLOCK_DIM as usize];
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
                if below.iter_mut().all(|b| spans(b, c)) {
                    tops[0] = e;
                    for (t, b) in tops[1..].iter_mut().zip(&*below) {
                        *t = b.start;
                    }
                    found(taken, Instance::new(kind, (r, c), br * bc), &tops[..br]);
                }
            }
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

    fn analyze(m: &CooMatrix, config: &DetectConfig) -> Detected {
        super::analyze(rows_of(&CsrMatrix::from_coo(m)), config)
    }

    fn select_families(m: &CooMatrix, config: &DetectConfig) -> Vec<Family> {
        super::select_families(rows_of(&CsrMatrix::from_coo(m)), config)
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
        let m = symspmv_sparse::gen::block_structural(120, 3, 14.0, 20, 31);
        let csr = CsrMatrix::from_coo(&m);
        let tail = rows_of(&csr).slice(200..m.nrows());
        let enabled = super::select_families(tail, &DetectConfig::default());
        assert!(enabled.contains(&Family::Block(3, 3)), "{enabled:?}");
    }
}
