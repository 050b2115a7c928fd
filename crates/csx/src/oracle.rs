//! The candidate-pool detector and gathering encoder this crate shipped
//! before blocks were accepted during the row scan, kept only as the
//! oracle of the identity tests below: every stream the crate encodes must
//! carry the same `ctl` bytes, values, paired values, coverage and unit
//! counts as this path gives.
//!
//! The path: a statistics pass that scores each family by greedy
//! acceptance over a candidate list; a detection pass that lists every
//! candidate of the enabled families, with the entry index of each element
//! in one pool, sorts them by gain and accepts greedily; an encoder that
//! records the entry stored at each stream position; and a gather of every
//! value array through that order.

use crate::detect::{DetectConfig, Family};
use crate::encode::{NR_BIT, RJMP_BIT};
use crate::pattern::{DeltaWidth, PatternKind, MAX_BLOCK_DIM};
use crate::rows::RowView;
use crate::varint::write_varint;
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

impl Detected {
    fn coverage(&self) -> f64 {
        let covered: usize = self.instances.iter().map(|i| i.len as usize).sum();
        covered as f64 / self.nnz.max(1) as f64
    }
}

const WINDOW: u64 = 64;

pub(crate) fn select_families(view: RowView<'_>, config: &DetectConfig) -> Vec<Family> {
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

fn detect_with(view: RowView<'_>, config: &DetectConfig, enabled: &[Family]) -> Detected {
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

#[derive(Default)]
struct Candidates {
    list: Vec<Instance>,
    pool: Vec<u32>,
}

impl Candidates {
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

    fn candidates(&self, fam: Family, out: &mut Candidates) {
        match fam {
            Family::Horizontal => self.horizontal_runs(out),
            Family::Block(br, bc) => self.blocks(br, bc, out),
            _ => self.bucketed_runs(fam, out),
        }
    }

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

    fn blocks(&self, br: u8, bc: u8, out: &mut Candidates) {
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
}

fn encode(view: RowView<'_>, det: &Detected, values: &[&[Val]]) -> Encoding {
    let cols = view.cols;
    let mut ctl = Vec::new();
    let mut order: Vec<u32> = Vec::with_capacity(det.nnz);
    let mut delta_units = 0usize;
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
                    delta_units += 1;
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
    let gather = |v: &[Val]| order.iter().map(|&e| v[e as usize]).collect();
    Encoding {
        values: values.iter().map(|v| gather(v)).collect(),
        ctl,
        coverage: det.coverage(),
        substructure_units: det.instances.len(),
        delta_units,
    }
}

/// The oracle's statistics pass, detection and encoding of `view`.
pub(crate) fn encode_rows(view: RowView<'_>, config: &DetectConfig, values: &[&[Val]]) -> Encoding {
    encode_with(view, config, &select_families(view, config), values)
}

/// The oracle's detection and encoding of `view` with `enabled`.
pub(crate) fn encode_with(
    view: RowView<'_>,
    config: &DetectConfig,
    enabled: &[Family],
    values: &[&[Val]],
) -> Encoding {
    encode(view, &detect_with(view, config, enabled), values)
}

mod tests {
    use super::*;
    use crate::detect::detect_with;
    use crate::encode::{encode, encode_rows as encode_new, Encoded};
    use crate::matrix::CsxMatrix;
    use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
    use symspmv_sparse::rng::StdRng;
    use symspmv_sparse::{gen, suite, CooMatrix, CsrMatrix, SssMatrix};

    fn bits(v: &[Val]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_same(new: &Encoded, old: &Encoding, what: &dyn Fn() -> String) {
        assert_eq!(new.stream.ctl, old.ctl, "{}: ctl", what());
        assert_eq!(
            bits(&new.stream.values),
            bits(&old.values[0]),
            "{}: values",
            what()
        );
        assert_eq!(new.stream.nnz, old.values[0].len(), "{}: nnz", what());
        let upper = old.values.get(1).map_or(&[][..], |u| &u[..]);
        assert_eq!(bits(&new.upper_values), bits(upper), "{}: upper", what());
        assert_eq!(new.coverage.to_bits(), old.coverage.to_bits(), "{}", what());
        assert_eq!(new.substructure_units, old.substructure_units, "{}", what());
        assert_eq!(new.delta_units, old.delta_units, "{}", what());
    }

    /// Each default candidate family alone, the default list, and a run
    /// family mixed with a block shape.
    fn family_sets() -> Vec<Vec<Family>> {
        let all = DetectConfig::default().candidate_families;
        let mut sets: Vec<Vec<Family>> = all.iter().map(|&f| vec![f]).collect();
        sets.push(all);
        sets.push(vec![Family::Horizontal, Family::Block(3, 3)]);
        sets
    }

    /// `view` encoded by the crate and by the oracle agree: with each family
    /// set enabled, and with the last two — the default list and a mixed
    /// set — as the statistics pass's candidates at both sample fractions
    /// (the default list scores every family alone).
    fn check_view(view: RowView<'_>, split: Option<Idx>, values: &[&[Val]], what: &str) {
        let upper = values.get(1).copied();
        let sets = family_sets();
        for (i, families) in sets.iter().enumerate() {
            let config = DetectConfig {
                col_split: split,
                candidate_families: families.clone(),
                ..DetectConfig::default()
            };
            let det = detect_with(view, &config, families);
            let new = encode(view, &det, values[0], upper);
            let old = encode_with(view, &config, families, values);
            let what = || format!("{what} split {split:?} with {families:?}");
            assert_same(&new, &old, &what);
            if i + 2 < sets.len() {
                continue;
            }
            for sample_fraction in [0.05, 1.0] {
                let config = DetectConfig {
                    sample_fraction,
                    ..config.clone()
                };
                let new = encode_new(view, &config, values[0], upper);
                let old = encode_rows(view, &config, values);
                assert_same(&new, &old, &|| format!("{} at {sample_fraction}", what()));
            }
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
        assert_eq!(new.stream().ctl, old.ctl, "{what}: ctl");
        assert_eq!(bits(&new.stream().values), bits(&old.values[0]), "{what}");
        let stats = new.stats();
        assert_eq!(stats.coverage.to_bits(), old.coverage.to_bits(), "{what}");
        assert_eq!(stats.substructure_units, old.substructure_units, "{what}");
        assert_eq!(stats.delta_units, old.delta_units, "{what}");
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
    /// size holds up to 157 k): enough for every partition to see blocks
    /// and runs, small enough for a debug build.
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

    #[test]
    fn block_structural_matrices_encode_as_the_oracle_does() {
        for dof in [2, 3, 4] {
            let coo = gen::block_structural(100, dof, 8.0, 25, 7 + u64::from(dof));
            let sss = SssMatrix::from_coo(&coo, 0.0).expect("generated symmetric");
            check_sss(&sss, &format!("block_structural dof {dof}"));
        }
    }

    /// Random patterns, values keyed to coordinates, under configurations
    /// that enable every family path: the statistics pass's defaults, every
    /// family at coverage 0, short runs, a split, one block shape alone.
    #[test]
    fn random_patterns_encode_as_the_oracle_does() {
        let configs = [
            DetectConfig::default(),
            DetectConfig {
                min_coverage: 0.0,
                ..DetectConfig::default()
            },
            DetectConfig {
                min_run_len: 2,
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
                candidate_families: vec![Family::Block(2, 2)],
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

    /// The twelve suite analogs at scale 0.02: every chunk, family set and
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
