//! The enumerative write-set model and verifier: the oracle the symbolic
//! certifier ([`crate::symbolic`]), which the library runs, is tested
//! against.
//!
//! Given a partition plan and the matrix *structure* (values never
//! matter), the verifier computes each thread's exact write footprint per
//! phase and proves, by exhaustive symbolic enumeration:
//!
//! * **multiply phase** — direct `y` writes of thread `i` stay inside its
//!   own row range `[start_i, end_i)` and the ranges tile `0..n` exactly
//!   (`disjoint-direct`); transposed writes with `c < start_i` land inside
//!   the thread's declared local region of the flat leased store, and the
//!   declared regions are pairwise disjoint (`effective-region`);
//! * **reduce phase** — every output row (or index slot) is folded by
//!   exactly one thread: the naive/effective row chunks tile `0..n`, and
//!   the indexing splits never let one `idx` value span two slices
//!   (`reduction-slice`); additionally the `(vid, idx)` index *covers*
//!   every conflicting write, since an unindexed local write would never
//!   be folded into `y` — or re-zeroed, breaking the arena lease contract.
//!
//! The proof is returned as a [`RaceCertificate`]; any violated obligation
//! aborts with the [`VerifyError`] variant naming the offending write.

use crate::certificate::{ProofForm, RaceCertificate};
use crate::error::VerifyError;
use symspmv_runtime::reduction::IndexEntry;
use symspmv_runtime::Range;
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::SssMatrix;

/// Which of the three Fig. 3 reduction families the plan drives.
///
/// The verifier needs only the family, not the strategy object: the family
/// fixes the local-vector layout shape (full-length vs effective regions)
/// and which reduce-phase obligation applies (row chunks vs index slices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymStrategyKind {
    /// Full-length `p·N` local vectors, all writes local (Fig. 3b).
    Naive,
    /// Direct writes plus effective-region locals, row-chunk reduce
    /// (Fig. 3c).
    EffectiveRanges,
    /// Direct writes plus effective-region locals, `(vid, idx)` indexed
    /// reduce (Fig. 3d, §III-C).
    Indexing,
}

impl SymStrategyKind {
    fn direct_write(self) -> bool {
        !matches!(self, SymStrategyKind::Naive)
    }
}

/// A borrowed view of everything a symmetric-kernel plan commits to.
///
/// This is exactly the data `SymSpmv` dispatches with; the verifier treats
/// it as an untrusted claim and re-derives the write sets from the matrix
/// structure.
#[derive(Debug, Clone, Copy)]
pub struct SymPlanRef<'a> {
    /// Per-thread row partitions (must tile `0..n`).
    pub parts: &'a [Range],
    /// Per-thread offsets into the flat leased local store.
    pub offsets: &'a [usize],
    /// Total length of the flat leased local store.
    pub local_len: usize,
    /// The reduction family the layout and reduce phase follow.
    pub strategy: SymStrategyKind,
    /// The `(vid, idx)` conflict index (indexing family; empty otherwise).
    pub entries: &'a [IndexEntry],
    /// Reduction split boundaries into `entries` (`nthreads + 1` values).
    pub splits: &'a [usize],
    /// Row chunks of the naive/effective reduce phase.
    pub row_chunks: &'a [Range],
}

/// Verifies that `ranges` tile `0..n` contiguously: no gap (a row no
/// thread owns) and no overlap (a row two threads own). Empty trailing
/// ranges are legal.
pub(crate) fn check_tiling(ranges: &[Range], n: u32) -> Result<(), VerifyError> {
    if ranges.is_empty() {
        return Err(VerifyError::MalformedPlan {
            reason: "empty partition list".to_string(),
        });
    }
    let mut cursor: u32 = 0;
    for (i, r) in ranges.iter().enumerate() {
        if r.start > r.end || r.end > n {
            return Err(VerifyError::MalformedPlan {
                reason: format!(
                    "partition {i} [{}, {}) out of bounds (n = {n})",
                    r.start, r.end
                ),
            });
        }
        if r.is_empty() {
            continue;
        }
        match r.start.cmp(&cursor) {
            std::cmp::Ordering::Greater => return Err(VerifyError::PartitionGap { at: cursor }),
            std::cmp::Ordering::Less => {
                // Find the earlier partition that owns r.start.
                let first = ranges[..i]
                    .iter()
                    .position(|q| !q.is_empty() && q.start <= r.start && r.start < q.end)
                    .unwrap_or(0);
                return Err(VerifyError::OverlappingDirectWrites {
                    row: r.start,
                    first,
                    second: i,
                });
            }
            std::cmp::Ordering::Equal => cursor = r.end,
        }
    }
    if cursor < n {
        return Err(VerifyError::PartitionGap { at: cursor });
    }
    Ok(())
}

/// Verifies the local-vector layout: each thread's declared region
/// `[offsets[i], offsets[i] + region_len(i))` must lie inside the leased
/// store and the regions must be pairwise disjoint.
pub(crate) fn check_layout(
    plan: &SymPlanRef<'_>,
    region_len: impl Fn(usize) -> usize,
) -> Result<(), VerifyError> {
    let p = plan.parts.len();
    if plan.offsets.len() != p {
        return Err(VerifyError::MalformedPlan {
            reason: format!("{} offsets for {p} threads", plan.offsets.len()),
        });
    }
    let mut regions: Vec<(usize, usize, usize)> = (0..p)
        .map(|i| (plan.offsets[i], plan.offsets[i] + region_len(i), i))
        .collect();
    for &(_, end, tid) in &regions {
        if end > plan.local_len {
            return Err(VerifyError::EscapedWrite {
                tid,
                target: end.saturating_sub(1) as u32,
            });
        }
    }
    regions.sort_unstable();
    for w in regions.windows(2) {
        let (_, prev_end, prev_tid) = w[0];
        let (next_start, next_end, next_tid) = w[1];
        if next_start < prev_end && next_start < next_end && prev_end > 0 {
            return Err(VerifyError::LayoutOverlap {
                first: prev_tid.min(next_tid),
                second: prev_tid.max(next_tid),
            });
        }
    }
    Ok(())
}

/// Walks the structure and returns per-thread sorted distinct conflict
/// columns (transposed targets `c < start_i`) — the verifier's own
/// re-derivation of the symbolic analysis, kept independent of
/// `symspmv-core` so the two implementations cross-check each other.
fn conflict_sets(sss: &SssMatrix, parts: &[Range]) -> Vec<Vec<u32>> {
    let n = sss.n() as usize;
    let mut seen = vec![false; n];
    let mut out: Vec<Vec<u32>> = Vec::with_capacity(parts.len());
    for part in parts {
        let split = part.start;
        let mut mine = Vec::new();
        if split > 0 {
            for r in part.start..part.end {
                let (cols, _) = sss.row(r);
                for &c in cols {
                    if c < split && !seen[c as usize] {
                        seen[c as usize] = true;
                        mine.push(c);
                    }
                }
            }
            mine.sort_unstable();
            for &c in &mine {
                seen[c as usize] = false;
            }
        }
        out.push(mine);
    }
    out
}

/// Certifies a symmetric-SpMV plan (SSS or CSX-Sym storage — the write
/// sets depend on the partition and structure only, not on the encoding;
/// the encoding-specific boundary rule is certified separately by
/// [`crate::csx_check::certify_csx_chunks`]).
pub fn certify_sym(sss: &SssMatrix, plan: &SymPlanRef<'_>) -> Result<RaceCertificate, VerifyError> {
    let n = sss.n();
    let p = plan.parts.len();
    check_tiling(plan.parts, n)?;

    let direct = plan.strategy.direct_write();
    let region_len = |i: usize| -> usize {
        if direct {
            plan.parts[i].start as usize
        } else {
            n as usize
        }
    };
    check_layout(plan, region_len)?;

    // Multiply phase: enumerate every write the structure implies.
    //
    // Direct families: thread i writes y[r] for r in its part and
    // y[c] for transposed targets c ∈ [start_i, r) — both inside
    // [start_i, end_i) by construction of SSS (strict lower triangle,
    // c < r < end_i), which check_tiling has just proved disjoint across
    // threads. Transposed targets c < start_i go to the local region,
    // whose size is exactly start_i, so containment holds iff the target
    // is a legal column (c < start_i ⇒ slot offsets[i] + c inside the
    // declared region). The enumeration below re-checks both bounds
    // rather than trusting the construction argument.
    let conflicts = conflict_sets(sss, plan.parts);
    for (i, part) in plan.parts.iter().enumerate() {
        let split = part.start;
        for r in part.start..part.end {
            let (cols, _) = sss.row(r);
            for &c in cols {
                if direct && c >= split {
                    // Direct transposed write: must stay in our own rows.
                    if c >= part.end {
                        return Err(VerifyError::EscapedWrite { tid: i, target: c });
                    }
                } else {
                    // Local write at slot offsets[i] + c: region holds
                    // region_len(i) elements.
                    if (c as usize) >= region_len(i) {
                        return Err(VerifyError::EscapedWrite { tid: i, target: c });
                    }
                }
            }
        }
    }

    // Reduce phase.
    match plan.strategy {
        SymStrategyKind::Naive | SymStrategyKind::EffectiveRanges => {
            // Row-chunk reduce: every y row folded by exactly one thread.
            match check_tiling(plan.row_chunks, n) {
                Ok(()) => {}
                Err(VerifyError::OverlappingDirectWrites { row, first, second }) => {
                    return Err(VerifyError::ReductionSliceOverlap {
                        idx: row,
                        first,
                        second,
                    })
                }
                Err(e) => return Err(e),
            }
        }
        SymStrategyKind::Indexing => {
            check_index(plan, &conflicts)?;
        }
    }

    let mut invariants = vec![
        "reduction-slice".to_string(),
        "effective-region".to_string(),
    ];
    if direct {
        invariants.insert(0, "disjoint-direct".to_string());
    }
    // Kind side conditions. The write sets proved above are pure structure
    // — identical for every symmetry kind — so the proof transfers to skew
    // and structural matrices provided the storage honors the kind's
    // contract; check it here rather than trusting the constructor.
    match sss.kind() {
        SymmetryKind::Symmetric => {}
        SymmetryKind::Skew => {
            if let Some(r) = sss.dvalues().iter().position(|&d| d != 0.0) {
                return Err(VerifyError::KindSideCondition {
                    kind: "skew",
                    reason: format!("diagonal entry {r} is {}, must be zero", sss.dvalues()[r]),
                });
            }
            invariants.push("skew-zero-diagonal".to_string());
        }
        SymmetryKind::Structural => {
            if sss.upper_values().len() != sss.lower_nnz() {
                return Err(VerifyError::KindSideCondition {
                    kind: "structural",
                    reason: format!(
                        "paired upper array has {} values for {} lower entries",
                        sss.upper_values().len(),
                        sss.lower_nnz()
                    ),
                });
            }
            invariants.push("structural-paired".to_string());
        }
    }
    let conflict_entries = if plan.strategy == SymStrategyKind::Indexing {
        plan.entries.len()
    } else {
        conflicts.iter().map(Vec::len).sum()
    };
    Ok(RaceCertificate {
        fingerprint: sss.fingerprint(),
        n: n as usize,
        nthreads: p,
        family: "sym-sss".to_string(),
        strategy: match plan.strategy {
            SymStrategyKind::Naive => "naive",
            SymStrategyKind::EffectiveRanges => "eff",
            SymStrategyKind::Indexing => "idx",
        }
        .to_string(),
        symmetry: sss.kind().tag().to_string(),
        invariants,
        direct_rows: if direct { n as usize } else { 0 },
        local_elems: if direct {
            plan.parts.iter().map(|r| r.start as usize).sum()
        } else {
            p * n as usize
        },
        conflict_entries,
        lanes: 1,
        proof: ProofForm::Enumerative,
    })
}

/// Lifts a scalar symmetric-plan certificate to a `lanes`-wide block
/// (SpMM) certificate.
///
/// A row conflict is lane-independent: the block kernels write element
/// `(row, lane)` at slot `row·lanes + lane`, so thread `i`'s scalar write
/// set `W_i` becomes exactly `{ w·lanes + j : w ∈ W_i, j < lanes }`. Two
/// lifted sets intersect iff the scalar sets intersect — disjointness (and
/// therefore every race-freedom invariant of `base`) lifts verbatim,
/// *provided* the block plan really is the scalar plan scaled: each block
/// offset must be the scalar offset times `lanes`, and the block store
/// must be the scalar store times `lanes`. This function checks those side
/// conditions and returns a certificate carrying the extra `lane-lifted`
/// invariant; it does not re-enumerate the structure.
pub fn lift_sym_certificate(
    base: &RaceCertificate,
    lanes: usize,
    base_offsets: &[usize],
    base_local_len: usize,
    block_offsets: &[usize],
    block_local_len: usize,
) -> Result<RaceCertificate, VerifyError> {
    if !symspmv_sparse::block::SUPPORTED_LANES.contains(&lanes) {
        return Err(VerifyError::BadLaneCount { lanes });
    }
    if base.lanes != 1 {
        return Err(VerifyError::MalformedPlan {
            reason: format!("cannot lift a certificate already at {} lanes", base.lanes),
        });
    }
    if block_offsets.len() != base_offsets.len() {
        return Err(VerifyError::MalformedPlan {
            reason: format!(
                "{} block offsets for {} scalar offsets",
                block_offsets.len(),
                base_offsets.len()
            ),
        });
    }
    for (tid, (&b, &s)) in block_offsets.iter().zip(base_offsets).enumerate() {
        if b != s * lanes {
            return Err(VerifyError::LaneOffsetMismatch {
                tid,
                expected: s * lanes,
                actual: b,
            });
        }
    }
    if block_local_len != base_local_len * lanes {
        return Err(VerifyError::LaneRegionMismatch {
            expected: base_local_len * lanes,
            actual: block_local_len,
        });
    }
    let mut cert = base.clone();
    cert.lanes = lanes;
    cert.local_elems = base.local_elems * lanes;
    cert.conflict_entries = base.conflict_entries * lanes;
    if !cert.proves("lane-lifted") {
        cert.invariants.push("lane-lifted".to_string());
    }
    Ok(cert)
}

/// Verifies the `(vid, idx)` index and its reduction splits against the
/// independently re-derived conflict sets.
fn check_index(plan: &SymPlanRef<'_>, conflicts: &[Vec<u32>]) -> Result<(), VerifyError> {
    let p = plan.parts.len();
    let entries = plan.entries;
    let splits = plan.splits;
    if splits.len() != p + 1 {
        return Err(VerifyError::MalformedPlan {
            reason: format!("{} splits for {p} threads", splits.len()),
        });
    }
    if splits[0] != 0 || splits[p] != entries.len() || splits.windows(2).any(|w| w[0] > w[1]) {
        return Err(VerifyError::MalformedPlan {
            reason: format!("splits {splits:?} do not cover {} entries", entries.len()),
        });
    }
    // Sorted by (idx, vid), no duplicates.
    for w in entries.windows(2) {
        if (w[1].idx, w[1].vid) <= (w[0].idx, w[0].vid) {
            return Err(VerifyError::MalformedPlan {
                reason: format!(
                    "index not strictly sorted at ({}, {}) / ({}, {})",
                    w[0].idx, w[0].vid, w[1].idx, w[1].vid
                ),
            });
        }
    }
    // No idx value spans two slices: the slice folding idx also re-zeroes
    // the local slots, so a shared idx means two threads write y[idx] (and
    // possibly the same local slot) in one round.
    for (k, &b) in splits.iter().enumerate().take(p).skip(1) {
        if b > 0 && b < entries.len() && entries[b - 1].idx == entries[b].idx {
            return Err(VerifyError::ReductionSliceOverlap {
                idx: entries[b].idx,
                first: k - 1,
                second: k,
            });
        }
    }
    // Every entry names a real thread and stays inside its effective
    // region; every conflicting write is covered by an entry.
    for e in entries {
        let vid = e.vid as usize;
        if vid >= p {
            return Err(VerifyError::MalformedPlan {
                reason: format!("entry names thread {vid} of {p}"),
            });
        }
        if e.idx >= plan.parts[vid].start {
            return Err(VerifyError::EscapedWrite {
                tid: vid,
                target: e.idx,
            });
        }
    }
    let mut per_vid: Vec<Vec<u32>> = vec![Vec::new(); p];
    for e in entries {
        per_vid[e.vid as usize].push(e.idx);
    }
    for v in &mut per_vid {
        v.sort_unstable();
    }
    for (tid, need) in conflicts.iter().enumerate() {
        for &c in need {
            if per_vid[tid].binary_search(&c).is_err() {
                return Err(VerifyError::IndexIncomplete { tid, idx: c });
            }
        }
    }
    Ok(())
}

/// Certifies a plain row-partitioned kernel (CSR, CSX): the only
/// obligation is that the partitions tile the output disjointly.
pub fn certify_rows(
    fingerprint: u64,
    n: u32,
    parts: &[Range],
    family: &str,
) -> Result<RaceCertificate, VerifyError> {
    check_tiling(parts, n)?;
    Ok(RaceCertificate {
        fingerprint,
        n: n as usize,
        nthreads: parts.len(),
        family: family.to_string(),
        strategy: String::new(),
        symmetry: "none".to_string(),
        invariants: vec!["disjoint-direct".to_string()],
        direct_rows: n as usize,
        local_elems: 0,
        conflict_entries: 0,
        lanes: 1,
        proof: ProofForm::Enumerative,
    })
}

/// Certifies a RACE schedule for the reduction-free symmetric kernel by
/// exhaustive write-set enumeration: the groups must partition the rows, no
/// two rows of one group may share a write target (`{r} ∪ cols(r)` pairwise
/// disjoint within the group — distance-2 disjointness of the scheduled
/// rows), and every group's per-thread parts must tile its row list so the
/// barriered rounds cover each row exactly once. The certificate carries a
/// [`ProofForm::ColoringDisjoint`] proof and validates for the `"sym-sss"`
/// family under strategy `"race"`.
pub fn certify_race(
    sss: &SssMatrix,
    groups: &[Vec<u32>],
    group_parts: &[Vec<Range>],
    nthreads: usize,
) -> Result<RaceCertificate, VerifyError> {
    let n = sss.n() as usize;
    let mut owner_group = vec![u32::MAX; n];
    for (gid, rows) in groups.iter().enumerate() {
        for &r in rows {
            if (r as usize) >= n {
                return Err(VerifyError::MalformedPlan {
                    reason: format!("group {gid} names row {r} of {n}"),
                });
            }
            if owner_group[r as usize] != u32::MAX {
                return Err(VerifyError::MalformedPlan {
                    reason: format!("row {r} in groups {} and {gid}", owner_group[r as usize]),
                });
            }
            owner_group[r as usize] = gid as u32;
        }
    }
    if let Some(r) = owner_group.iter().position(|&g| g == u32::MAX) {
        return Err(VerifyError::MalformedPlan {
            reason: format!("row {r} belongs to no group"),
        });
    }

    // Per group: stamp each write target with the row that claimed it.
    let mut claimed_by = vec![u32::MAX; n];
    let mut epoch = vec![u32::MAX; n];
    for (gid, rows) in groups.iter().enumerate() {
        for &r in rows {
            let (cols, _) = sss.row(r);
            for target in cols.iter().copied().chain(std::iter::once(r)) {
                let t = target as usize;
                if epoch[t] == gid as u32 && claimed_by[t] != r {
                    return Err(VerifyError::ColoringConflict {
                        color: gid as u32,
                        row_a: claimed_by[t],
                        row_b: r,
                        target,
                    });
                }
                epoch[t] = gid as u32;
                claimed_by[t] = r;
            }
        }
    }

    // The barriered rounds: each group's parts must tile its row list.
    if group_parts.len() != groups.len() {
        return Err(VerifyError::MalformedPlan {
            reason: format!(
                "{} part lists for {} groups",
                group_parts.len(),
                groups.len()
            ),
        });
    }
    for (gid, (rows, parts)) in groups.iter().zip(group_parts).enumerate() {
        if parts.len() != nthreads {
            return Err(VerifyError::MalformedPlan {
                reason: format!(
                    "group {gid} has {} parts for {nthreads} threads",
                    parts.len()
                ),
            });
        }
        check_tiling(parts, rows.len() as u32)?;
    }

    let mut invariants = vec!["color-class".to_string(), "disjoint-direct".to_string()];
    match sss.kind() {
        SymmetryKind::Symmetric => {}
        SymmetryKind::Skew => {
            if let Some(r) = sss.dvalues().iter().position(|&d| d != 0.0) {
                return Err(VerifyError::KindSideCondition {
                    kind: "skew",
                    reason: format!("diagonal entry {r} is {}, must be zero", sss.dvalues()[r]),
                });
            }
            invariants.push("skew-zero-diagonal".to_string());
        }
        SymmetryKind::Structural => {
            if sss.upper_values().len() != sss.lower_nnz() {
                return Err(VerifyError::KindSideCondition {
                    kind: "structural",
                    reason: format!(
                        "paired upper array has {} values for {} lower entries",
                        sss.upper_values().len(),
                        sss.lower_nnz()
                    ),
                });
            }
            invariants.push("structural-paired".to_string());
        }
    }
    Ok(RaceCertificate {
        fingerprint: sss.fingerprint(),
        n,
        nthreads,
        family: "sym-sss".to_string(),
        strategy: "race".to_string(),
        symmetry: sss.kind().tag().to_string(),
        invariants,
        direct_rows: n,
        local_elems: 0,
        conflict_entries: groups.len(),
        lanes: 1,
        proof: ProofForm::ColoringDisjoint {
            stride: groups.len() as u32,
            reach: 2,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_sparse::CooMatrix;

    fn sss(entries: &[(u32, u32)], n: u32) -> SssMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
        }
        for &(r, c) in entries {
            coo.push(r, c, -1.0);
            coo.push(c, r, -1.0);
        }
        SssMatrix::from_coo(&coo, 0.0).unwrap()
    }

    fn eff_plan(parts: &[Range]) -> (Vec<usize>, usize) {
        let mut offsets = Vec::with_capacity(parts.len());
        let mut acc = 0usize;
        for p in parts {
            offsets.push(acc);
            acc += p.start as usize;
        }
        (offsets, acc)
    }

    #[test]
    fn tiling_violations_classified() {
        assert_eq!(
            check_tiling(&[Range { start: 0, end: 4 }, Range { start: 5, end: 8 }], 8),
            Err(VerifyError::PartitionGap { at: 4 })
        );
        assert_eq!(
            check_tiling(&[Range { start: 0, end: 5 }, Range { start: 4, end: 8 }], 8),
            Err(VerifyError::OverlappingDirectWrites {
                row: 4,
                first: 0,
                second: 1
            })
        );
        assert_eq!(
            check_tiling(&[Range { start: 0, end: 8 }], 9),
            Err(VerifyError::PartitionGap { at: 8 })
        );
        assert!(check_tiling(
            &[
                Range { start: 0, end: 8 },
                Range { start: 8, end: 8 } // empty trailing partition
            ],
            8
        )
        .is_ok());
    }

    #[test]
    fn good_eff_plan_certifies() {
        let m = sss(&[(5, 1), (6, 2), (7, 3)], 8);
        let parts = [Range { start: 0, end: 4 }, Range { start: 4, end: 8 }];
        let (offsets, local_len) = eff_plan(&parts);
        let chunks = [Range { start: 0, end: 4 }, Range { start: 4, end: 8 }];
        let cert = certify_sym(
            &m,
            &SymPlanRef {
                parts: &parts,
                offsets: &offsets,
                local_len,
                strategy: SymStrategyKind::EffectiveRanges,
                entries: &[],
                splits: &[],
                row_chunks: &chunks,
            },
        )
        .unwrap();
        assert_eq!(cert.local_elems, 4);
        assert_eq!(cert.conflict_entries, 3);
        assert!(cert.proves("disjoint-direct"));
        assert_eq!(cert.fingerprint, m.fingerprint());
    }

    #[test]
    fn overlapping_layout_rejected() {
        let m = sss(&[(5, 1)], 8);
        let parts = [
            Range { start: 0, end: 3 },
            Range { start: 3, end: 6 },
            Range { start: 6, end: 8 },
        ];
        // Threads 1 and 2 need regions of 3 and 6 elements, but both are
        // placed at offset 0 of the leased store.
        let err = certify_sym(
            &m,
            &SymPlanRef {
                parts: &parts,
                offsets: &[0, 0, 0],
                local_len: 9,
                strategy: SymStrategyKind::EffectiveRanges,
                entries: &[],
                splits: &[],
                row_chunks: &parts,
            },
        )
        .unwrap_err();
        assert!(matches!(err, VerifyError::LayoutOverlap { .. }), "{err:?}");
    }

    #[test]
    fn incomplete_index_rejected() {
        let m = sss(&[(5, 1), (6, 2)], 8);
        let parts = [Range { start: 0, end: 4 }, Range { start: 4, end: 8 }];
        let (offsets, local_len) = eff_plan(&parts);
        // Index only covers idx 1; the write to local row 2 is missing.
        let entries = [IndexEntry { vid: 1, idx: 1 }];
        let err = certify_sym(
            &m,
            &SymPlanRef {
                parts: &parts,
                offsets: &offsets,
                local_len,
                strategy: SymStrategyKind::Indexing,
                entries: &entries,
                splits: &[0, 1, 1],
                row_chunks: &[],
            },
        )
        .unwrap_err();
        assert_eq!(err, VerifyError::IndexIncomplete { tid: 1, idx: 2 });
    }

    #[test]
    fn rows_certificate_requires_tiling() {
        assert!(certify_rows(7, 10, &[Range { start: 0, end: 10 }], "rows").is_ok());
        assert_eq!(
            certify_rows(
                7,
                10,
                &[Range { start: 0, end: 4 }, Range { start: 6, end: 10 }],
                "rows"
            ),
            Err(VerifyError::PartitionGap { at: 4 })
        );
    }
}
