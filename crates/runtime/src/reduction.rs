//! Pluggable reduction strategies for symmetric kernels (Fig. 3 b/c/d).
//!
//! The paper's insight (§III) is that *how* transposed contributions are
//! folded back into the output vector is a scheduling concern layered over
//! the storage format, not part of it: SSS and CSX-Sym produce the same
//! local-vector writes and share one reduction implementation. This module
//! captures that split as a trait object:
//!
//! * [`NaiveReduction`] — full-length local vector per thread; the
//!   reduction sweeps all `p·N` elements (Alg. 3, `ws = 8pN`, Eq. 3).
//! * [`EffectiveRangesReduction`] — Batista et al.: thread `i` writes rows
//!   `[start_i, end_i)` directly and keeps a local vector only for its
//!   effective region `[0, start_i)` (`ws ≈ 4(p−1)N`, Eq. 4).
//! * [`IndexingReduction`] — the paper's contribution: a symbolic
//!   `(vid, idx)` index enumerates the actually-conflicting elements and
//!   the reduction touches only those (`ws ≈ 8(p−1)N·d`, Eq. 6).
//!
//! Every [`ExecutionContext`](crate::ExecutionContext) holds these three and
//! [`RaceReduction`] — the closed set of four built-ins — and kernels look
//! one up by tag at construction time.

use crate::partition::Range;
use crate::pool::WorkerPool;
use crate::shared::SharedBuf;
use symspmv_sparse::block::MAX_LANES;

/// One conflicting local-vector element: thread (vector id) and row index.
///
/// Produced by the symbolic analysis (§III-C); sorted by `(idx, vid)` so a
/// parallel reduction can split the entry list by output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Local vector id (the writing thread).
    pub vid: u32,
    /// Row index within that local vector.
    pub idx: u32,
}

/// The local-vector layout a strategy requires from its kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalLayout {
    /// Total length of the flat backing store for all local vectors.
    pub flat_len: usize,
    /// Per-thread offsets into the flat store.
    pub offsets: Vec<usize>,
}

/// Everything a reduction needs from the kernel for one fold.
///
/// The buffers are [`SharedBuf`] views because the reduction itself runs
/// SPMD on the pool; the disjointness argument is the strategy's to uphold
/// (each output row is owned by exactly one reducing thread).
pub struct ReduceJob<'a> {
    /// The output vector `y` (length `n`).
    pub y: SharedBuf<'a>,
    /// The flat local-vectors store, laid out per [`LocalLayout`].
    pub locals: SharedBuf<'a>,
    /// Matrix dimension.
    pub n: usize,
    /// The multiply-phase row partition (one entry per thread).
    pub parts: &'a [Range],
    /// Per-thread offsets into `locals`.
    pub offsets: &'a [usize],
    /// Row chunks assigned to reducing threads (naive/effective sweeps).
    pub row_chunks: &'a [Range],
    /// Conflict index entries (empty unless the strategy needs them).
    pub entries: &'a [IndexEntry],
    /// Per-thread splits into `entries` (`splits.len() == nthreads + 1`).
    pub splits: &'a [usize],
    /// Right-hand-side lanes per element (1 for scalar SpMV). `y` and
    /// `locals` are lane-interleaved: the scalar plan's slot `s` becomes
    /// the group `[s·lanes, (s+1)·lanes)`, while `offsets` stay the
    /// scalar per-element offsets. A conflicting row is therefore visited
    /// **once** per reduction regardless of `lanes` — the indexing
    /// strategy's working-set win (Eq. 6) multiplies by `k`.
    pub lanes: usize,
}

/// A pluggable local-vectors reduction (Fig. 3 b/c/d).
///
/// Implementations must leave every element of `job.locals` that they are
/// responsible for **zeroed** after [`reduce`](ReductionStrategy::reduce)
/// returns — the buffer arena's reuse contract depends on it.
pub trait ReductionStrategy: Send + Sync {
    /// Stable tag the context looks the strategy up by (e.g. `"idx"`).
    fn name(&self) -> &'static str;

    /// Whether the multiply phase writes its own rows directly into `y`
    /// (effective-ranges layout) rather than into a full local vector.
    fn direct_write(&self) -> bool;

    /// Whether the strategy consumes the symbolic conflict index.
    fn needs_index(&self) -> bool {
        false
    }

    /// Whether the strategy *schedules the conflict away* instead of
    /// reducing it: the kernel executes precomputed distance-2-disjoint row
    /// groups one barrier apart with every thread writing `y` directly, so
    /// there are no local vectors and [`reduce`](ReductionStrategy::reduce)
    /// never has work.
    fn scheduled(&self) -> bool {
        false
    }

    /// Local-vector layout for a given dimension and partition.
    fn layout(&self, n: usize, parts: &[Range]) -> LocalLayout;

    /// Folds the local vectors into `job.y` on the pool, re-zeroing the
    /// local elements it touches.
    fn reduce(&self, pool: &mut WorkerPool, job: &ReduceJob<'_>);
}

/// Prefix-sum layout shared by the direct-write strategies: thread `i`
/// keeps a local vector only for its effective region `[0, start_i)`.
fn effective_layout(parts: &[Range]) -> LocalLayout {
    let mut offsets = Vec::with_capacity(parts.len());
    let mut acc = 0usize;
    for part in parts {
        offsets.push(acc);
        acc += part.start as usize;
    }
    LocalLayout {
        flat_len: acc,
        offsets,
    }
}

/// Full-length local vector per thread (Alg. 3 of the paper).
pub struct NaiveReduction;

impl ReductionStrategy for NaiveReduction {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn direct_write(&self) -> bool {
        false
    }

    fn layout(&self, n: usize, parts: &[Range]) -> LocalLayout {
        let offsets = (0..parts.len()).map(|i| i * n).collect();
        LocalLayout {
            flat_len: parts.len() * n,
            offsets,
        }
    }

    fn reduce(&self, pool: &mut WorkerPool, job: &ReduceJob<'_>) {
        let p = job.parts.len();
        let n = job.n;
        let lanes = job.lanes;
        debug_assert!((1..=MAX_LANES).contains(&lanes));
        let chunks = job.row_chunks;
        let y_buf = job.y;
        let flat_buf = job.locals;
        pool.run(&|tid| {
            let chunk = chunks[tid];
            for r in chunk.start as usize..chunk.end as usize {
                let mut acc = [0.0; MAX_LANES];
                for i in 0..p {
                    let k = (i * n + r) * lanes;
                    // SAFETY(cert: reduction-slice): row r is owned by this
                    // reduction thread's chunk; the lane group of slot
                    // (i, r) is visited once.
                    unsafe {
                        for (j, a) in acc.iter_mut().enumerate().take(lanes) {
                            *a += flat_buf.get(k + j);
                            flat_buf.set(k + j, 0.0);
                        }
                    }
                }
                // SAFETY(cert: reduction-slice): row r is ours to fold.
                unsafe {
                    for (j, a) in acc.iter().enumerate().take(lanes) {
                        y_buf.set(r * lanes + j, *a);
                    }
                }
            }
        });
    }
}

/// RACE-style coloring schedule (Alappat et al.): the kernel runs the rows
/// group-by-group with all threads writing `y` directly, so no local
/// vectors exist and the reduction phase vanishes entirely.
pub struct RaceReduction;

impl ReductionStrategy for RaceReduction {
    fn name(&self) -> &'static str {
        "race"
    }

    fn direct_write(&self) -> bool {
        true
    }

    fn scheduled(&self) -> bool {
        true
    }

    fn layout(&self, _n: usize, parts: &[Range]) -> LocalLayout {
        LocalLayout {
            flat_len: 0,
            offsets: vec![0; parts.len()],
        }
    }

    fn reduce(&self, _pool: &mut WorkerPool, job: &ReduceJob<'_>) {
        // Nothing to fold: the schedule leaves no local vectors behind.
        debug_assert_eq!(job.locals.len(), 0);
    }
}

/// Effective ranges (Batista et al., ref. 7 of the paper).
pub struct EffectiveRangesReduction;

impl ReductionStrategy for EffectiveRangesReduction {
    fn name(&self) -> &'static str {
        "eff"
    }

    fn direct_write(&self) -> bool {
        true
    }

    fn layout(&self, _n: usize, parts: &[Range]) -> LocalLayout {
        effective_layout(parts)
    }

    fn reduce(&self, pool: &mut WorkerPool, job: &ReduceJob<'_>) {
        let parts = job.parts;
        let offsets = job.offsets;
        let lanes = job.lanes;
        debug_assert!((1..=MAX_LANES).contains(&lanes));
        let chunks = job.row_chunks;
        let y_buf = job.y;
        let flat_buf = job.locals;
        pool.run(&|tid| {
            let chunk = chunks[tid];
            for r in chunk.start as usize..chunk.end as usize {
                let mut acc = [0.0; MAX_LANES];
                // SAFETY(cert: reduction-slice): row r is owned by this
                // reduction thread's chunk.
                unsafe {
                    for (j, a) in acc.iter_mut().enumerate().take(lanes) {
                        *a = y_buf.get(r * lanes + j);
                    }
                }
                for (i, part) in parts.iter().enumerate().skip(1) {
                    if (part.start as usize) > r {
                        let k = (offsets[i] + r) * lanes;
                        // SAFETY(cert: reduction-slice): the lane group of
                        // slot (i, r) of the effective regions belongs to
                        // row r's folder alone.
                        unsafe {
                            for (j, a) in acc.iter_mut().enumerate().take(lanes) {
                                *a += flat_buf.get(k + j);
                                flat_buf.set(k + j, 0.0);
                            }
                        }
                    }
                }
                // SAFETY(cert: reduction-slice): row r is ours to fold.
                unsafe {
                    for (j, a) in acc.iter().enumerate().take(lanes) {
                        y_buf.set(r * lanes + j, *a);
                    }
                }
            }
        });
    }
}

/// Local-vectors indexing (§III-C — the paper's scheme).
pub struct IndexingReduction;

impl ReductionStrategy for IndexingReduction {
    fn name(&self) -> &'static str {
        "idx"
    }

    fn direct_write(&self) -> bool {
        true
    }

    fn needs_index(&self) -> bool {
        true
    }

    fn layout(&self, _n: usize, parts: &[Range]) -> LocalLayout {
        effective_layout(parts)
    }

    fn reduce(&self, pool: &mut WorkerPool, job: &ReduceJob<'_>) {
        let entries = job.entries;
        let splits = job.splits;
        let offsets = job.offsets;
        let lanes = job.lanes;
        debug_assert!((1..=MAX_LANES).contains(&lanes));
        let y_buf = job.y;
        let flat_buf = job.locals;
        pool.run(&|tid| {
            for e in &entries[splits[tid]..splits[tid + 1]] {
                let k = (offsets[e.vid as usize] + e.idx as usize) * lanes;
                let yk = e.idx as usize * lanes;
                // SAFETY(cert: reduction-slice): (vid, idx) pairs are unique
                // and slices never share an idx, so both lane groups are
                // exclusive.
                unsafe {
                    for j in 0..lanes {
                        y_buf.add(yk + j, flat_buf.get(k + j));
                        flat_buf.set(k + j, 0.0);
                    }
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balanced_ranges;

    #[test]
    fn layouts_match_methods() {
        let parts = vec![
            Range { start: 0, end: 4 },
            Range { start: 4, end: 8 },
            Range { start: 8, end: 10 },
        ];
        let naive = NaiveReduction.layout(10, &parts);
        assert_eq!(naive.flat_len, 30);
        assert_eq!(naive.offsets, vec![0, 10, 20]);

        let eff = EffectiveRangesReduction.layout(10, &parts);
        assert_eq!(eff.flat_len, 12); // Σ start_i = 0 + 4 + 8
        assert_eq!(eff.offsets, vec![0, 0, 4]);
        assert_eq!(eff, IndexingReduction.layout(10, &parts));
    }

    #[test]
    fn naive_reduce_folds_and_rezeroes() {
        let n = 6;
        let parts = balanced_ranges(&vec![1u64; n], 2);
        let chunks = balanced_ranges(&vec![1u64; n], 2);
        let layout = NaiveReduction.layout(n, &parts);
        let mut locals = vec![1.0; layout.flat_len];
        let mut y = vec![0.0; n];
        let mut pool = WorkerPool::new(2);
        let job = ReduceJob {
            y: SharedBuf::new(&mut y),
            locals: SharedBuf::new(&mut locals),
            n,
            parts: &parts,
            offsets: &layout.offsets,
            row_chunks: &chunks,
            entries: &[],
            splits: &[],
            lanes: 1,
        };
        NaiveReduction.reduce(&mut pool, &job);
        assert!(y.iter().all(|&v| v == 2.0), "{y:?}");
        assert!(locals.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn naive_reduce_folds_lane_groups() {
        let n = 5;
        let lanes = 2;
        let parts = balanced_ranges(&vec![1u64; n], 2);
        let chunks = balanced_ranges(&vec![1u64; n], 2);
        let layout = NaiveReduction.layout(n, &parts);
        // Lane 0 carries 1.0 everywhere, lane 1 carries 3.0.
        let mut locals: Vec<f64> = (0..layout.flat_len * lanes)
            .map(|s| if s % 2 == 0 { 1.0 } else { 3.0 })
            .collect();
        let mut y = vec![0.0; n * lanes];
        let mut pool = WorkerPool::new(2);
        let job = ReduceJob {
            y: SharedBuf::new(&mut y),
            locals: SharedBuf::new(&mut locals),
            n,
            parts: &parts,
            offsets: &layout.offsets,
            row_chunks: &chunks,
            entries: &[],
            splits: &[],
            lanes,
        };
        NaiveReduction.reduce(&mut pool, &job);
        for r in 0..n {
            assert_eq!(y[r * lanes], 2.0, "lane 0, row {r}");
            assert_eq!(y[r * lanes + 1], 6.0, "lane 1, row {r}");
        }
        assert!(locals.iter().all(|&v| v == 0.0));
    }
}
