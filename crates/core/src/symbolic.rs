//! Structure-only conflict analysis for the local-vectors indexing scheme
//! (§III-C).
//!
//! For a row partition of the lower triangle, thread `i`'s transposed writes
//! `y[c] += a·x[r]` with `c < start_i` hit its local vector. The *conflict
//! set* of thread `i` is the set of distinct such rows `c`; the paper's
//! `(vid, idx)` index enumerates exactly these entries, sorted by `idx` so
//! the reduction can be split among threads without ever sharing an output
//! row.

use symspmv_runtime::{even_ranges, Range};
use symspmv_sparse::{Idx, SssMatrix};

// The entry type lives in the runtime crate next to the reduction
// strategies that consume it; re-exported here so the analysis API is
// self-contained. The paper stores both fields in four bytes each ("we use
// generously four bytes for the vid field"); the layout mirrors that.
pub use symspmv_runtime::reduction::IndexEntry;

/// The symbolic analysis result driving the indexing reduction.
#[derive(Debug, Clone)]
pub struct ConflictIndex {
    /// All `(vid, idx)` pairs, sorted by `(idx, vid)`.
    pub entries: Vec<IndexEntry>,
    /// Per-thread conflict rows (sorted), `conflicts[i]` for thread `i`.
    pub conflicts: Vec<Vec<Idx>>,
    /// Reduction split boundaries into `entries` (`nthreads + 1` values);
    /// no `idx` value is shared between two slices.
    pub splits: Vec<usize>,
    /// Total size of the effective regions, `Σ_i start_i` elements.
    pub effective_region_len: usize,
}

impl ConflictIndex {
    /// Density `d` of the effective regions (Fig. 4): conflicting entries
    /// over total effective-region length.
    pub fn density(&self) -> f64 {
        if self.effective_region_len == 0 {
            0.0
        } else {
            self.entries.len() as f64 / self.effective_region_len as f64
        }
    }

    /// Bytes of the index itself (two 4-byte fields per entry).
    pub fn index_bytes(&self) -> usize {
        8 * self.entries.len()
    }

    /// Bytes of the index under the compact layout the paper mentions
    /// ("two or even a single byte is enough" for `vid` on current
    /// machines): one byte of vid when < 256 threads, two below 65 536,
    /// plus the 4-byte `idx`.
    pub fn index_bytes_packed(&self, nthreads: usize) -> usize {
        let vid_bytes = if nthreads <= 1 << 8 {
            1
        } else if nthreads <= 1 << 16 {
            2
        } else {
            4
        };
        (4 + vid_bytes) * self.entries.len()
    }
}

/// Runs the symbolic analysis for an SSS matrix under a row partition.
///
/// Only the sparsity structure is inspected; values never matter, so the
/// analysis is reusable across CG iterations and shared by the SSS and
/// CSX-Sym kernels (the optimization "is orthogonal to the CSX-Sym format",
/// §IV-B).
///
/// O(nnz + n + Σ_i start_i / 64) and no comparison sort: per partition one
/// flat walk over its lower columns marks every `c < start` in a bitset, a
/// sweep of the set bits below `start` emits the conflict rows ascending
/// and clears them, and one counting pass by `idx`, visiting threads in
/// order, lays out the `(idx, vid)`-sorted entries.
pub fn analyze(sss: &SssMatrix, parts: &[Range]) -> ConflictIndex {
    let p = parts.len();
    let (rowptr, colind) = (sss.rowptr(), sss.colind());
    let mut conflicts: Vec<Vec<Idx>> = vec![Vec::new(); p];
    let mut seen = vec![0u64; (sss.n() as usize).div_ceil(64)];
    for (part, my) in parts.iter().zip(&mut conflicts) {
        let split = part.start;
        if split == 0 {
            continue;
        }
        let lo = rowptr[part.start as usize] as usize;
        let hi = rowptr[part.end as usize] as usize;
        // Branch-free: a column at or past the split ORs in a zero bit.
        for &c in &colind[lo..hi] {
            seen[c as usize / 64] |= u64::from(c < split) << (c % 64);
        }
        let words = (split as usize).div_ceil(64);
        for (w, word) in seen[..words].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                my.push((w * 64) as Idx + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    // Counting sort by `idx`; threads are visited in order, so each `idx`
    // lists its `vid`s ascending. Every conflict row is below some split.
    let rows = parts.iter().map(|r| r.start as usize).max().unwrap_or(0);
    let mut next = vec![0usize; rows + 1];
    for &c in conflicts.iter().flatten() {
        next[c as usize + 1] += 1;
    }
    for c in 0..rows {
        next[c + 1] += next[c];
    }
    let mut entries = vec![IndexEntry { vid: 0, idx: 0 }; next[rows]];
    for (vid, my) in conflicts.iter().enumerate() {
        for &c in my {
            let slot = &mut next[c as usize];
            entries[*slot] = IndexEntry {
                vid: vid as Idx,
                idx: c,
            };
            *slot += 1;
        }
    }

    let splits = split_entries(&entries, p);
    let effective_region_len = parts.iter().map(|r| r.start as usize).sum();
    ConflictIndex {
        entries,
        conflicts,
        splits,
        effective_region_len,
    }
}

/// Splits the sorted index into `p` even slices, moving each boundary
/// forward so an `idx` value never spans two slices — the independence
/// restriction of §III-C's parallelization paragraph.
fn split_entries(entries: &[IndexEntry], p: usize) -> Vec<usize> {
    let ranges = even_ranges(entries.len(), p);
    let mut splits = Vec::with_capacity(p + 1);
    splits.push(0usize);
    for r in &ranges[..p - 1] {
        let mut b = r.end as usize;
        while b > 0 && b < entries.len() && entries[b].idx == entries[b - 1].idx {
            b += 1;
        }
        let b = b
            .min(entries.len())
            .max(splits.last().copied().unwrap_or(0));
        splits.push(b);
    }
    splits.push(entries.len());
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_runtime::balanced_ranges;
    use symspmv_sparse::{CooMatrix, SssMatrix};

    fn sss_from_lower(entries: &[(Idx, Idx)], n: Idx) -> SssMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
        }
        for &(r, c) in entries {
            assert!(c < r);
            coo.push(r, c, -1.0);
            coo.push(c, r, -1.0);
        }
        SssMatrix::from_coo(&coo, 0.0).unwrap()
    }

    fn parts2(n: Idx) -> Vec<Range> {
        vec![
            Range {
                start: 0,
                end: n / 2,
            },
            Range {
                start: n / 2,
                end: n,
            },
        ]
    }

    #[test]
    fn conflicts_found_per_thread() {
        // Rows 4..8 with writes below row 4: (5,1), (6,1), (7,3).
        let sss = sss_from_lower(&[(5, 1), (6, 1), (7, 3), (6, 5)], 8);
        let ci = analyze(&sss, &parts2(8));
        assert!(ci.conflicts[0].is_empty(), "thread 0 can never conflict");
        assert_eq!(ci.conflicts[1], vec![1, 3]);
        assert_eq!(ci.entries.len(), 2);
        assert_eq!(ci.effective_region_len, 4);
        assert!((ci.density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicate_columns_deduplicated() {
        let sss = sss_from_lower(&[(5, 1), (6, 1), (7, 1)], 8);
        let ci = analyze(&sss, &parts2(8));
        assert_eq!(ci.conflicts[1], vec![1]);
    }

    #[test]
    fn entries_sorted_by_idx() {
        let sss = sss_from_lower(&[(9, 0), (9, 5), (5, 2), (11, 2)], 12);
        let parts = vec![
            Range { start: 0, end: 4 },
            Range { start: 4, end: 8 },
            Range { start: 8, end: 12 },
        ];
        let ci = analyze(&sss, &parts);
        for w in ci.entries.windows(2) {
            assert!((w[0].idx, w[0].vid) < (w[1].idx, w[1].vid));
        }
        // idx 2 appears for vid 1 (row 5) and vid 2 (row 11).
        let idx2: Vec<_> = ci.entries.iter().filter(|e| e.idx == 2).collect();
        assert_eq!(idx2.len(), 2);
    }

    #[test]
    fn splits_never_share_an_idx() {
        // Many entries with the same idx: the boundary must skip past them.
        let mut lower = Vec::new();
        for r in 8..16u32 {
            lower.push((r, 0)); // every thread conflicts on row 0
            lower.push((r, r - 8));
        }
        let lower: Vec<(Idx, Idx)> = lower.into_iter().filter(|&(r, c)| c < r).collect();
        let sss = sss_from_lower(&lower, 16);
        let parts: Vec<Range> = (0..4)
            .map(|i| Range {
                start: i * 4,
                end: (i + 1) * 4,
            })
            .collect();
        let ci = analyze(&sss, &parts);
        assert_eq!(ci.splits.len(), 5);
        for w in ci.splits.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for k in 1..ci.splits.len() - 1 {
            let b = ci.splits[k];
            if b > 0 && b < ci.entries.len() {
                assert_ne!(
                    ci.entries[b - 1].idx,
                    ci.entries[b].idx,
                    "split {k} shares idx {}",
                    ci.entries[b].idx
                );
            }
        }
    }

    #[test]
    fn single_thread_has_no_conflicts() {
        let sss = sss_from_lower(&[(3, 0), (5, 2)], 6);
        let ci = analyze(&sss, &[Range { start: 0, end: 6 }]);
        assert!(ci.entries.is_empty());
        assert_eq!(ci.density(), 0.0);
        assert_eq!(ci.splits, vec![0, 0]);
    }

    #[test]
    fn density_decreases_with_thread_count() {
        // The Fig. 4 effect: more threads → sparser effective regions.
        // The effect is driven by scattered (high-bandwidth) entries, whose
        // conflict count stays roughly constant while the effective regions
        // grow with p — so use a mixed-bandwidth generator like the paper's
        // corner-case matrices.
        let coo = symspmv_sparse::gen::mixed_bandwidth(2048, 10.0, 0.3, 16, 5);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let weights = symspmv_runtime::partition::symmetric_row_weights(sss.rowptr());
        let d: Vec<f64> = [2usize, 8, 32]
            .iter()
            .map(|&p| analyze(&sss, &balanced_ranges(&weights, p)).density())
            .collect();
        assert!(d[0] > d[2], "densities not decreasing: {d:?}");
        assert!(d[2] > 0.0);
    }
}

/// The analysis as it was written before the flat walk: per-row slices, a
/// sort of each thread's conflict rows and a sort of the entries — kept as
/// the oracle the sort-free [`analyze`] must match field for field.
#[cfg(test)]
mod differential_tests {
    use super::*;
    use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights};
    use symspmv_sparse::{gen, CooMatrix, SssMatrix};

    fn analyze_by_sorting(sss: &SssMatrix, parts: &[Range]) -> ConflictIndex {
        let p = parts.len();
        let mut conflicts: Vec<Vec<Idx>> = vec![Vec::new(); p];
        let mut seen = vec![false; sss.n() as usize];
        for (i, part) in parts.iter().enumerate() {
            let split = part.start;
            if split == 0 {
                continue;
            }
            let my = &mut conflicts[i];
            for r in part.start..part.end {
                for &c in sss.row(r).0 {
                    if c < split && !seen[c as usize] {
                        seen[c as usize] = true;
                        my.push(c);
                    }
                }
            }
            my.sort_unstable();
            for &c in my.iter() {
                seen[c as usize] = false;
            }
        }
        let mut entries: Vec<IndexEntry> = conflicts
            .iter()
            .enumerate()
            .flat_map(|(i, rows)| {
                rows.iter().map(move |&c| IndexEntry {
                    vid: i as Idx,
                    idx: c,
                })
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.idx, e.vid));
        let weights = vec![1u64; entries.len()];
        let mut splits = vec![0usize];
        for r in &balanced_ranges(&weights, p)[..p - 1] {
            let mut b = r.end as usize;
            while b > 0 && b < entries.len() && entries[b].idx == entries[b - 1].idx {
                b += 1;
            }
            let b = b
                .min(entries.len())
                .max(splits.last().copied().unwrap_or(0));
            splits.push(b);
        }
        splits.push(entries.len());
        ConflictIndex {
            entries,
            conflicts,
            splits,
            effective_region_len: parts.iter().map(|r| r.start as usize).sum(),
        }
    }

    fn assert_same(sss: &SssMatrix, parts: &[Range], what: &str) {
        let (got, want) = (analyze(sss, parts), analyze_by_sorting(sss, parts));
        assert_eq!(got.entries, want.entries, "{what}: entries");
        assert_eq!(got.conflicts, want.conflicts, "{what}: conflicts");
        assert_eq!(got.splits, want.splits, "{what}: splits");
        assert_eq!(
            got.effective_region_len, want.effective_region_len,
            "{what}: effective region length"
        );
    }

    /// ~200 patterns from every generator family the workloads use, each
    /// under nnz-balanced and even partitions of every thread count.
    #[test]
    fn sort_free_analysis_matches_the_sorting_one() {
        let mut patterns: Vec<(String, CooMatrix)> = vec![
            ("n = 0".into(), CooMatrix::new(0, 0)),
            ("n = 1".into(), {
                let mut one = CooMatrix::new(1, 1);
                one.push(0, 0, 2.0);
                one
            }),
        ];
        for seed in 0..50u64 {
            let n = 2 + (seed as Idx * 37) % 300;
            patterns.push((
                format!("banded {seed}"),
                gen::banded_random(n, 1 + (seed as Idx % 40), 6.0, seed),
            ));
            patterns.push((
                format!("mixed {seed}"),
                gen::mixed_bandwidth(n, 8.0, 0.5, 12, seed),
            ));
            patterns.push((
                format!("block {seed}"),
                gen::block_structural(2 + n / 8, 1 + (seed as Idx % 4), 5.0, 6, seed),
            ));
            patterns.push((
                format!("scrambled power law {seed}"),
                gen::scramble(&gen::power_law(n, 6.0, 0.02, 8, seed), seed + 1),
            ));
        }
        assert!(patterns.len() >= 200);
        for (name, coo) in &patterns {
            let sss = SssMatrix::from_coo(coo, 0.0).unwrap();
            let weights = symmetric_row_weights(sss.rowptr());
            for p in [1usize, 2, 3, 5, 8, 32] {
                assert_same(
                    &sss,
                    &balanced_ranges(&weights, p),
                    &format!("{name}, p {p}"),
                );
                let even = even_ranges(sss.n() as usize, p);
                assert_same(&sss, &even, &format!("{name}, p {p}, even"));
            }
        }
    }
}

#[cfg(test)]
mod packed_tests {
    use super::*;
    use symspmv_runtime::balanced_ranges;
    use symspmv_sparse::SssMatrix;

    #[test]
    fn packed_layout_saves_three_eighths() {
        let coo = symspmv_sparse::gen::mixed_bandwidth(512, 8.0, 0.4, 8, 3);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let parts = balanced_ranges(
            &symspmv_runtime::partition::symmetric_row_weights(sss.rowptr()),
            8,
        );
        let ci = analyze(&sss, &parts);
        assert!(ci.index_bytes() > 0);
        assert_eq!(ci.index_bytes_packed(8), ci.index_bytes() / 8 * 5);
        assert_eq!(ci.index_bytes_packed(1 << 12), ci.index_bytes() / 8 * 6);
        assert_eq!(ci.index_bytes_packed(1 << 20), ci.index_bytes());
    }
}
