//! The candidate-pool detector and gathering encoder this crate shipped
//! before blocks were accepted during the row scan, kept only as the
//! oracle of the identity tests below: every stream the crate encodes must
//! carry the same `ctl` bytes, values, paired values, coverage and unit
//! counts as this path gives.
//!
//! That encoder wrote each block as its own unit; [`regroup`] then folds
//! its stream into the grouped block units of today's grammar, and moves
//! each diagonal triangle the grammar allows out of its rows' delta units
//! onto the block unit above it, applying the rules to the decoded units
//! rather than to the detector's instances, as the crate's encoder does.
//!
//! The path: a statistics pass that scores each block shape by greedy
//! acceptance over a candidate list; a detection pass that lists every
//! candidate block of the enabled shape, with the entry index of each
//! element in one pool, sorts them by anchor and accepts greedily; an
//! encoder that records the entry stored at each stream position; and a
//! gather of every value array through that order.

use crate::detect::DetectConfig;
use crate::encode::{ID_MASK, NR_BIT, RJMP_BIT};
use crate::pattern::{DeltaWidth, PatternKind, MAX_BLOCK_DIM};
use crate::rows::RowView;
use crate::varint::{read_varint, write_varint};
use std::ops::Range;
use symspmv_sparse::{Idx, Val};

#[derive(Debug, Clone, Copy)]
struct Instance {
    kind: PatternKind,
    row: Idx,
    col: Idx,
    len: u32,
    first: u32,
}

impl Instance {
    fn entries<'p>(&self, pool: &'p [u32]) -> &'p [u32] {
        &pool[self.first as usize..][..self.len as usize]
    }

    fn straddles(&self, split: Idx) -> bool {
        let PatternKind::Block { cols, .. } = self.kind;
        self.col < split && split < self.col + Idx::from(cols)
    }
}

const FREE: u32 = 0;
const COVERED: u32 = 1;
const ANCHOR: u32 = 2;

struct Detected {
    instances: Vec<Instance>,
    nnz: usize,
    pool: Vec<u32>,
    state: Vec<u32>,
    base: usize,
}

const WINDOW: u64 = 64;

/// Entry index of the view's first non-zero (any, for a view of no rows).
fn base(view: RowView<'_>) -> usize {
    view.row(view.first_row).start
}

fn select_block(view: RowView<'_>, config: &DetectConfig) -> Option<(u8, u8)> {
    let scan = Scan::new(view, config, true);
    let nnz: usize = scan.rows().map(|r| view.row(r).len()).sum();
    let mut state = vec![FREE; view.nnz()];

    let mut best: Option<((u8, u8), usize)> = None;
    for &(br, bc) in &config.block_shapes {
        let mut cands = CandidateBlocks::default();
        scan.blocks(br, bc, &mut cands);
        let mut covered = 0usize;
        for inst in cands.accept(base(view), &mut state) {
            covered += inst.len as usize;
            for &e in inst.entries(&cands.pool) {
                state[e as usize - base(view)] = FREE;
            }
        }
        if covered as f64 / nnz.max(1) as f64 >= config.min_coverage
            && best.map(|(_, c)| covered > c).unwrap_or(true)
        {
            best = Some(((br, bc), covered));
        }
    }
    best.map(|(shape, _)| shape)
}

fn detect_with(view: RowView<'_>, config: &DetectConfig, block: Option<(u8, u8)>) -> Detected {
    let scan = Scan::new(view, config, false);
    let mut cands = CandidateBlocks::default();
    if let Some((br, bc)) = block {
        scan.blocks(br, bc, &mut cands);
    }
    let mut state = vec![FREE; view.nnz()];
    let instances = cands.accept(base(view), &mut state);
    Detected {
        instances,
        nnz: view.nnz(),
        pool: cands.pool,
        state,
        base: base(view),
    }
}

#[derive(Default)]
struct CandidateBlocks {
    list: Vec<Instance>,
    pool: Vec<u32>,
}

impl CandidateBlocks {
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

    /// Greedy by gain: longer instances first — one shape has one length,
    /// so this is anchor order.
    fn accept(&mut self, base: usize, state: &mut [u32]) -> Vec<Instance> {
        self.list
            .sort_unstable_by_key(|i| (std::cmp::Reverse(i.len), i.row, i.col));
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

struct Scan<'a> {
    view: RowView<'a>,
    config: &'a DetectConfig,
    period: usize,
    window: u64,
}

impl<'a> Scan<'a> {
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

    fn windows(&self) -> impl Iterator<Item = Range<Idx>> + '_ {
        let end = u64::from(self.view.end_row());
        (u64::from(self.view.first_row)..end)
            .step_by(self.period)
            .map(move |lo| lo as Idx..(lo + self.window).min(end) as Idx)
    }

    fn rows(&self) -> impl Iterator<Item = Idx> + '_ {
        self.windows().flatten()
    }

    fn blocks(&self, br: u8, bc: u8, out: &mut CandidateBlocks) {
        let (cols, split) = (self.view.cols, self.config.col_split);
        let kind = PatternKind::Block { rows: br, cols: bc };
        let (below_rows, bc) = (br as usize - 1, bc as usize);
        let spans = |row: &mut Range<usize>, c: Idx| {
            while row.start < row.end && cols[row.start] < c {
                row.start += 1;
            }
            let last = row.start + bc - 1;
            last < row.end && cols[row.start] == c && cols[last] == c + (bc - 1) as Idx
        };
        for window in self.windows() {
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

/// The oracle's encoding: `ctl`, each of `values` gathered into stream
/// order, and the counts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Encoding {
    pub ctl: Vec<u8>,
    pub values: Vec<Vec<Val>>,
    pub coverage: f64,
    pub substructure_units: usize,
    pub delta_units: usize,
    pub units: usize,
}

fn encode(view: RowView<'_>, det: &Detected, values: &[&[Val]]) -> Encoding {
    let cols = view.cols;
    let mut ctl = Vec::new();
    let mut order: Vec<u32> = Vec::with_capacity(det.nnz);
    let mut prev_row: Option<Idx> = None;
    let mut anchors: Vec<usize> = Vec::new();
    let mut left: Vec<u32> = Vec::new();
    for row in view.first_row..view.end_row() {
        anchors.clear();
        left.clear();
        for e in view.row(row) {
            match det.state[e - det.base] {
                FREE => left.push(e as u32),
                COVERED => {}
                a => anchors.push((a - ANCHOR) as usize),
            }
        }
        let col_of = |e: u32| cols[e as usize];
        let (mut a, mut s) = (0usize, 0usize);
        let mut prev_col: Option<Idx> = None;
        while a < anchors.len() || s < left.len() {
            let inst = anchors.get(a).map(|&i| &det.instances[i]);
            let (id, entries, width) = match inst {
                Some(inst) if left.get(s).is_none_or(|&e| inst.col < col_of(e)) => {
                    a += 1;
                    (inst.kind.id(), inst.entries(&det.pool), None)
                }
                _ => {
                    let rest = &left[s..];
                    let gap =
                        |k: usize| DeltaWidth::for_delta(col_of(rest[k]) - col_of(rest[k - 1]));
                    let width = rest.get(1).map_or(DeltaWidth::U8, |_| gap(1));
                    let mut e = 1usize;
                    while e < rest.len() && e < 255 && gap(e).bytes() <= width.bytes() {
                        e += 1;
                    }
                    s += e;
                    (PatternKind::delta_id(width), &rest[..e], Some(width))
                }
            };
            let anchor = col_of(entries[0]);

            let mut flags = id;
            let mut jump = 0;
            if prev_col.is_none() {
                flags |= NR_BIT;
                jump = prev_row.map_or(row, |p| row - p - 1);
                if jump > 0 {
                    flags |= RJMP_BIT;
                }
                prev_row = Some(row);
            }
            ctl.push(flags);
            if jump > 0 {
                write_varint(&mut ctl, u64::from(jump));
            }
            ctl.push(entries.len() as u8);
            write_varint(&mut ctl, u64::from(anchor - prev_col.unwrap_or(0)));
            prev_col = Some(anchor);

            if let Some(width) = width {
                for w in entries.windows(2) {
                    let d = col_of(w[1]) - col_of(w[0]);
                    ctl.extend_from_slice(&d.to_le_bytes()[..width.bytes()]);
                }
            }
            order.extend_from_slice(entries);
        }
    }
    let grouped = regroup(&ctl, &order, view);
    let gather = |v: &[Val]| grouped.order.iter().map(|&e| v[e as usize]).collect();
    let covered: usize = det.instances.iter().map(|i| i.len as usize).sum();
    Encoding {
        values: values.iter().map(|v| gather(v)).collect(),
        ctl: grouped.ctl,
        coverage: (covered + grouped.triangles) as f64 / det.nnz.max(1) as f64,
        substructure_units: det.instances.len(),
        delta_units: grouped.delta_units,
        units: grouped.units,
    }
}

/// One unit of a stream in the one-block-per-unit grammar, decoded, with
/// where its entries lie in the stream's entry order.
struct OldUnit {
    row: usize,
    col: usize,
    id: u8,
    body: Vec<u8>,
    entries: Range<usize>,
}

/// A stream in the grouped grammar and its counts.
pub(crate) struct Regrouped {
    pub ctl: Vec<u8>,
    /// The view's entry stored at each stream position.
    pub order: Vec<u32>,
    pub units: usize,
    pub delta_units: usize,
    /// Entries the triangles took.
    pub triangles: usize,
}

/// Rewrites `ctl` — `view` encoded with block units of one block each
/// (size byte `R·C`, no body), `order` its entry at each stream position —
/// in the grouped grammar: a block unit takes the blocks of the units that
/// follow it while they lie in its row, have its id and their anchors stay
/// on its anchor's side of column `first_row`, while each anchor gap fits a
/// `u16`, up to 255 blocks. A square row's last block unit anchored at or
/// right of `first_row` takes its diagonal triangle when, for each `i` in
/// `1 … R − 1`, the last `i` entries of row `row + i` of the view are in
/// delta units, at columns `row …`, and not taken by an earlier triangle;
/// the delta units that held them shrink or go. Every other unit is
/// copied, its `ucol` taken against the previous unit's anchor.
pub(crate) fn regroup(ctl: &[u8], order: &[u32], view: RowView<'_>) -> Regrouped {
    let (mut old, mut pos, mut row, mut col) = (Vec::new(), 0, usize::MAX, 0);
    let mut at = 0;
    while pos < ctl.len() {
        let flags = ctl[pos];
        pos += 1;
        if flags & NR_BIT != 0 {
            let extra = if flags & RJMP_BIT != 0 {
                read_varint(ctl, &mut pos) as usize
            } else {
                0
            };
            (row, col) = (row.wrapping_add(1 + extra), 0);
        }
        let (id, size) = (flags & ID_MASK, ctl[pos]);
        pos += 1;
        col += read_varint(ctl, &mut pos) as usize;
        let len = match id {
            0..=2 => (1 << id) * (usize::from(size) - 1),
            _ => 0,
        };
        let body = ctl[pos..pos + len].to_vec();
        pos += len;
        let entries = at..at + usize::from(size);
        at = entries.end;
        old.push(OldUnit {
            row,
            col,
            id,
            body,
            entries,
        });
    }
    assert_eq!(at, order.len());
    let (first, base) = (view.first_row as usize, base(view));
    // Per entry of the view: in a delta unit; taken by a triangle.
    let mut free = vec![false; view.nnz()];
    let mut taken = vec![false; view.nnz()];
    for u in old.iter().filter(|u| u.id <= 2) {
        order[u.entries.clone()]
            .iter()
            .for_each(|&e| free[e as usize - base] = true);
    }
    let mut out = Regrouped {
        ctl: Vec::new(),
        order: Vec::with_capacity(order.len()),
        units: 0,
        delta_units: 0,
        triangles: 0,
    };
    let mut prev: Option<(usize, usize)> = None;
    let mut i = 0;
    while i < old.len() {
        let u = &old[i];
        let mut j = i + 1;
        if matches!(u.id, 36..=44) {
            while j < old.len()
                && j - i < 255
                && old[j].row == u.row
                && old[j].id == u.id
                && old[j].col - old[j - 1].col <= usize::from(u16::MAX)
                && (old[j].col < first) == (u.col < first)
            {
                j += 1;
            }
        }
        let (mut id, size, body) = match u.id {
            36..=44 => {
                let gaps = old[i..j].windows(2).map(|w| (w[1].col - w[0].col) as u16);
                for b in &old[i..j] {
                    out.order.extend_from_slice(&order[b.entries.clone()]);
                }
                (
                    u.id,
                    (j - i) as u8,
                    gaps.flat_map(u16::to_le_bytes).collect(),
                )
            }
            _ => {
                // A triangle took a suffix of the row's delta entries.
                let entries = &order[u.entries.clone()];
                let keep = entries.iter().take_while(|&&e| !taken[e as usize - base]);
                let keep = keep.count();
                out.order.extend_from_slice(&entries[..keep]);
                out.delta_units += usize::from(keep > 0);
                let width = 1 << u.id;
                let id = if keep == 1 { 0 } else { u.id };
                (
                    id,
                    keep as u8,
                    u.body[..width * keep.saturating_sub(1)].to_vec(),
                )
            }
        };
        let last_in_row = !old[j..].iter().any(|v| v.row == u.row && v.id > 2);
        let side = match PatternKind::from_id(u.id) {
            Some(PatternKind::Block { rows, cols }) if rows == cols => usize::from(rows),
            _ => 0,
        };
        // The last `d` entries of row `row + d`.
        let tail = |d: usize| {
            let entries = view.row((u.row + d) as Idx);
            (entries.len() >= d).then(|| entries.end - d..entries.end)
        };
        let holds = (1..side).all(|d| {
            tail(d).is_some_and(|tail| {
                tail.clone().all(|e| {
                    let k = e - base;
                    free[k] && !taken[k] && view.cols[e] as usize == u.row + e - tail.start
                })
            })
        });
        if side > 0 && last_in_row && u.col >= first && holds {
            id = 45 + (side - 2) as u8;
            for d in 1..side {
                for e in tail(d).into_iter().flatten() {
                    taken[e - base] = true;
                    out.order.push(e as u32);
                    out.triangles += 1;
                }
            }
        }
        i = j;
        if size == 0 {
            continue;
        }
        let ucol = match prev {
            Some((r, c)) if r == u.row => {
                out.ctl.push(id);
                u.col - c
            }
            _ => {
                let jump = prev.map_or(u.row, |(r, _)| u.row - r - 1);
                out.ctl
                    .push(id | NR_BIT | if jump > 0 { RJMP_BIT } else { 0 });
                if jump > 0 {
                    write_varint(&mut out.ctl, jump as u64);
                }
                u.col
            }
        };
        out.ctl.push(size);
        write_varint(&mut out.ctl, ucol as u64);
        out.ctl.extend_from_slice(&body);
        prev = Some((u.row, u.col));
        out.units += 1;
    }
    out
}

/// The oracle's statistics pass, detection and encoding of `view`.
pub(crate) fn encode_rows(view: RowView<'_>, config: &DetectConfig, values: &[&[Val]]) -> Encoding {
    encode_with(view, config, select_block(view, config), values)
}

/// The oracle's detection and encoding of `view` with `block` enabled.
pub(crate) fn encode_with(
    view: RowView<'_>,
    config: &DetectConfig,
    block: Option<(u8, u8)>,
    values: &[&[Val]],
) -> Encoding {
    encode(view, &detect_with(view, config, block), values)
}

mod tests {
    use super::*;
    use crate::encode::{encode_rows as encode_new, Encoded};
    use crate::matrix::CsxMatrix;
    use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
    use symspmv_sparse::rng::StdRng;
    use symspmv_sparse::{gen, suite, CooMatrix, CsrMatrix, SssMatrix};

    fn bits(v: &[Val]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same(new: &Encoded, old: &Encoding, what: &dyn Fn() -> String) {
        assert_eq!(new.stream.ctl(), old.ctl, "{}: ctl", what());
        assert_eq!(
            bits(new.stream.values()),
            bits(&old.values[0]),
            "{}: values",
            what()
        );
        assert_eq!(new.stream.nnz(), old.values[0].len(), "{}: nnz", what());
        let upper = old.values.get(1).map_or(&[][..], |u| &u[..]);
        assert_eq!(bits(&new.upper_values), bits(upper), "{}: upper", what());
        assert_eq!(new.coverage.to_bits(), old.coverage.to_bits(), "{}", what());
        assert_eq!(new.substructure_units, old.substructure_units, "{}", what());
        assert_eq!(new.delta_units, old.delta_units, "{}", what());
        assert_eq!(new.units, old.units, "{}", what());
    }

    /// `view` encoded by the crate and by the oracle agree: with each
    /// default block shape enabled alone and with none, and through the
    /// statistics pass at both sample fractions (it scores every shape
    /// alone).
    fn check_view(view: RowView<'_>, split: Option<Idx>, values: &[&[Val]], what: &str) {
        let upper = values.get(1).copied();
        let config = DetectConfig {
            col_split: split,
            ..DetectConfig::default()
        };
        let shapes = config.block_shapes.iter().copied().map(Some);
        for block in shapes.chain([None]) {
            let alone = DetectConfig {
                block_shapes: block.into_iter().collect(),
                min_coverage: 0.0,
                ..config.clone()
            };
            let new = encode_new(view, &alone, values[0], upper);
            let old = encode_with(view, &config, block, values);
            assert_same(&new, &old, &|| {
                format!("{what} split {split:?} with {block:?}")
            });
        }
        for sample_fraction in [0.05, 1.0] {
            let config = DetectConfig {
                sample_fraction,
                ..config.clone()
            };
            let new = encode_new(view, &config, values[0], upper);
            let old = encode_rows(view, &config, values);
            assert_same(&new, &old, &|| {
                format!("{what} split {split:?} at {sample_fraction}")
            });
        }
    }

    /// The strict lower triangle of `sss` whole, and chunked as CSX-Sym
    /// chunks it: split at the partition start, for 2, 3 and 8 partitions.
    fn check_sss(sss: &SssMatrix, what: &str) {
        let mut values = vec![sss.values()];
        if sss.kind().has_upper_values() {
            values.push(sss.upper_values());
        }
        let view = RowView::of_sss(sss);
        check_view(view, None, &values, what);
        for p in [2, 3, 8] {
            for part in balanced_ranges(&symmetric_row_weights(sss.rowptr()), p) {
                let chunk = view.slice(part.start..part.end);
                check_view(chunk, Some(part.start), &values, &format!("{what} p={p}"));
            }
        }
    }

    /// The unsymmetric CSX of `coo` against the oracle's encoding of its
    /// CSR rows.
    fn check_csx(coo: &CooMatrix, config: &DetectConfig, what: &str) {
        let csr = CsrMatrix::from_coo(coo);
        let view = RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind());
        let old = encode_rows(view, config, &[csr.values()]);
        let new = CsxMatrix::from_coo(coo, config);
        assert_eq!(new.stream().ctl(), old.ctl, "{what}: ctl");
        assert_eq!(bits(new.stream().values()), bits(&old.values[0]), "{what}");
        let stats = new.stats();
        assert_eq!(stats.coverage.to_bits(), old.coverage.to_bits(), "{what}");
        assert_eq!(stats.substructure_units, old.substructure_units, "{what}");
        assert_eq!(stats.delta_units, old.delta_units, "{what}");
        assert_eq!(stats.units, old.units, "{what}");
    }

    /// The leading principal submatrix of `coo` with at most `budget`
    /// stored entries beyond its first 64 rows: every symmetry kind
    /// survives it.
    fn leading(coo: &CooMatrix, budget: usize) -> CooMatrix {
        let mut per_row = vec![0usize; coo.nrows() as usize];
        for (r, c, _) in coo.iter() {
            per_row[r.max(c) as usize] += 1;
        }
        let (mut k, mut total) = (0, 0);
        while k < per_row.len() && (k < 64 || total + per_row[k] <= budget) {
            total += per_row[k];
            k += 1;
        }
        let k = k as Idx;
        let mut out = CooMatrix::new(k, k);
        for (r, c, v) in coo.iter().filter(|&(r, c, _)| r < k && c < k) {
            out.push(r, c, v);
        }
        out
    }

    /// A suite analog at `scale`, cut to its leading `budget` entries.
    fn check_suite_entry(spec: &suite::SuiteSpec, scale: f64, budget: usize) {
        let coo = leading(&suite::generate(spec, scale).coo, budget);
        let sss = SssMatrix::from_coo_kind(&coo, spec.kind, 0.0).expect("analogs keep their kind");
        check_sss(&sss, spec.name);
        check_csx(&coo, &DetectConfig::default(), spec.name);
    }

    /// Stored entries of a light-corpus matrix (the suite analogs' smallest
    /// size holds up to 157 k): enough for every partition to see blocks,
    /// small enough for a debug build.
    const LIGHT: usize = 8_000;

    #[test]
    fn the_suite_analogs_encode_as_the_oracle_does() {
        for spec in &suite::SUITE[..6] {
            check_suite_entry(spec, 1e-9, LIGHT);
        }
    }

    #[test]
    fn the_rest_of_the_suite_encodes_as_the_oracle_does() {
        for spec in &suite::SUITE[6..] {
            check_suite_entry(spec, 1e-9, LIGHT);
        }
    }

    #[test]
    fn the_kind_analogs_encode_as_the_oracle_does() {
        for spec in &suite::KIND_SUITE {
            check_suite_entry(spec, 1e-9, LIGHT);
        }
    }

    /// Also with chunks that start inside a block row: each partition's
    /// start moved to every row of its block row.
    #[test]
    fn block_structural_matrices_encode_as_the_oracle_does() {
        for dof in [2, 3, 4] {
            let coo = gen::block_structural(100, dof, 8.0, 25, 7 + u64::from(dof));
            let sss = SssMatrix::from_coo(&coo, 0.0).expect("generated symmetric");
            check_sss(&sss, &format!("block_structural dof {dof}"));
            let view = RowView::of_sss(&sss);
            for part in balanced_ranges(&symmetric_row_weights(sss.rowptr()), 3) {
                for offset in 0..dof {
                    let start = part.start / dof * dof + offset;
                    let what = format!("block_structural dof {dof} from row {start}");
                    let chunk = view.slice(start..part.end);
                    check_view(chunk, Some(start), &[sss.values()], &what);
                }
            }
        }
    }

    /// Random patterns, values keyed to coordinates, under configurations
    /// that enable every detection path: the statistics pass's defaults,
    /// every shape at coverage 0, a full-row sample, a split, one block
    /// shape alone.
    #[test]
    fn random_patterns_encode_as_the_oracle_does() {
        let configs = [
            DetectConfig::default(),
            DetectConfig {
                min_coverage: 0.0,
                ..DetectConfig::default()
            },
            DetectConfig {
                min_coverage: 0.0,
                sample_fraction: 1.0,
                ..DetectConfig::default()
            },
            DetectConfig {
                col_split: Some(7),
                min_coverage: 0.0,
                ..DetectConfig::default()
            },
            DetectConfig {
                block_shapes: vec![(2, 2)],
                min_coverage: 0.0,
                ..DetectConfig::default()
            },
        ];
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0x60_0000 + case);
            let (nr, nc) = (rng.random_range(2..80), rng.random_range(2..80));
            let mut coo = CooMatrix::new(nr, nc);
            for _ in 0..rng.random_range(0..=600) {
                let (r, c) = (rng.random_range(0..nr), rng.random_range(0..nc));
                coo.push(r, c, f64::from(r) * 1e4 + f64::from(c) + 0.5);
            }
            for (i, config) in configs.iter().enumerate() {
                check_csx(&coo, config, &format!("case {case} config {i}"));
            }
        }
    }

    /// The twelve suite analogs at scale 0.02: every chunk, block shape and
    /// sample fraction of the light tests, at sizes where sampling skips
    /// most rows (run in release: `cargo test --release -p symspmv-csx --
    /// --include-ignored`).
    #[test]
    #[ignore = "heavy: the suite at scale 0.02"]
    fn the_suite_at_scale_0_02_encodes_as_the_oracle_does() {
        for spec in &suite::SUITE {
            check_suite_entry(spec, 0.02, usize::MAX);
        }
    }
}
