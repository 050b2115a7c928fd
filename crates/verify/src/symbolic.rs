//! The symbolic plan certifier: an interval/congruence abstract domain
//! over kernel plans.
//!
//! [`crate::writeset`] proves race freedom by *enumerating* every write the
//! structure implies — exact, but `O(nnz)` per certification, which neither
//! scales to large matrices nor states the symbolic property ("distinct
//! colors ⇒ disjoint row ranges") a coloring scheduler needs. This module
//! re-derives the same [`RaceCertificate`]s from a handful of abstract
//! facts instead:
//!
//! * **Intervals** — each thread's write footprint is summarized as
//!   half-open intervals: its direct row range `[start_i, end_i)`, its
//!   local region `[offsets[i], offsets[i] + region_len_i)`, and the hull
//!   of its declared conflict columns. Tiling, disjointness and containment
//!   become `O(p)` interval algebra.
//! * **Congruences** — lane-lifted (SpMM) plans place element
//!   `(row, lane)` at slot `row·lanes + lane`; the block layout is sound
//!   iff every block offset is `≡ 0 (mod lanes)` and is the scalar offset
//!   scaled ([`Congruence`]), which [`lift_symbolic`] checks per thread.
//! * **Structure axioms** ([`StructureFacts`]) — facts the storage
//!   constructors establish once per matrix (`O(n + nnz)`, amortized over
//!   every thread-count/strategy/lane configuration): the strict lower
//!   triangle (`col < row` for every stored entry, so a direct transposed
//!   write can never escape its partition), the first nonzero diagonal
//!   entry (skew side condition) and the paired-array length (structural
//!   side condition).
//!
//! With the facts in hand, certification is `O(p + c)` where `c` is the
//! conflict-entry count (`c ≪ nnz`): the only non-interval obligation is
//! the indexing reduction's coverage check, which merges the declared
//! per-thread conflict profile against the `(vid, idx)` index — both
//! already sorted. The declared profile is produced by the planner's
//! conflict analysis; the enumerative checker independently re-walks the
//! structure, and the differential test (`tests/symbolic_differential.rs`)
//! pins the two bit-for-bit against each other across the whole
//! format × strategy × kind × threads × lanes cross-product.
//!
//! The module also discharges the [`ProofForm::ColoringDisjoint`] proof
//! form of the RACE group schedule: [`ColoringFacts`] establishes the
//! level and subcolor axioms once per `(matrix, coloring)` pair, and
//! [`certify_race_symbolic`] proves every group barrier-free from them
//! without walking the structure again.

use crate::certificate::{ProofForm, RaceCertificate};
use crate::error::VerifyError;
use crate::writeset::{check_layout, check_tiling, SymPlanRef, SymStrategyKind};
use symspmv_runtime::Range;
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::SssMatrix;

/// A half-open interval `[lo, hi)` of rows or store slots — the basic
/// element of the abstract domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Exclusive upper bound.
    pub hi: u64,
}

impl Interval {
    /// The interval `[lo, hi)`; an inverted pair collapses to empty.
    pub fn new(lo: u64, hi: u64) -> Self {
        Interval { lo, hi: hi.max(lo) }
    }

    /// Number of elements covered.
    pub fn len(&self) -> u64 {
        self.hi - self.lo
    }

    /// Whether the interval covers nothing.
    pub fn is_empty(&self) -> bool {
        self.lo >= self.hi
    }

    /// Whether two intervals share no element (always true if either is
    /// empty).
    pub fn disjoint(&self, other: &Interval) -> bool {
        self.is_empty() || other.is_empty() || self.hi <= other.lo || other.hi <= self.lo
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains(&self, other: &Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// The interval scaled by `k`: the image of `[lo, hi)` under
    /// `x ↦ x·k … x·k + k`, i.e. the lane-lifted footprint.
    pub fn scaled(&self, k: u64) -> Interval {
        Interval {
            lo: self.lo * k,
            hi: self.hi * k,
        }
    }
}

/// A congruence fact `value ≡ residue (mod modulus)` — the lane-offset
/// information of the abstract domain. Lane lifting is sound only for
/// offsets aligned to the lane width (residue zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Congruence {
    /// The modulus (lane width); at least 1.
    pub modulus: u64,
    /// `value mod modulus`.
    pub residue: u64,
}

impl Congruence {
    /// The congruence class of `value` modulo `modulus` (`modulus ≥ 1`).
    pub fn of(value: u64, modulus: u64) -> Self {
        let m = modulus.max(1);
        Congruence {
            modulus: m,
            residue: value % m,
        }
    }

    /// Whether the value is `≡ 0`, i.e. lane-aligned.
    pub fn aligned(&self) -> bool {
        self.residue == 0
    }
}

/// Structure axioms distilled from one matrix: everything the symbolic
/// certifier needs to know about the storage, independent of any plan.
///
/// Built once per matrix in `O(n)` on top of its memoized fingerprint
/// ([`StructureFacts::of`]) and reused across every (threads, strategy,
/// lanes) configuration — the per-plan certification itself never touches
/// the structure again.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureFacts {
    /// Structural fingerprint of the matrix.
    pub fingerprint: u64,
    /// Matrix dimension.
    pub n: u32,
    /// Symmetry kind of the storage.
    pub kind: SymmetryKind,
    /// First nonzero diagonal entry `(row, value)`, if any — the skew
    /// side condition demands there is none.
    pub nonzero_diag: Option<(u32, f64)>,
    /// Length of the paired upper-value array (structural storage).
    pub paired_upper_len: usize,
    /// Stored strict-lower-triangle entry count.
    pub lower_nnz: usize,
}

impl StructureFacts {
    /// Distills the axioms from an SSS matrix. The strict-lower-triangle
    /// and column-bound axioms (the registered `strict-lower` invariant of
    /// [`crate::audit::KNOWN_INVARIANTS`], which the SSS row walk also
    /// indexes by) are established by the `SssMatrix` constructors, so they
    /// are not re-walked here; the diagonal scan is the only pass, `O(n)`.
    pub fn of(sss: &SssMatrix) -> Self {
        let nonzero_diag = sss
            .dvalues()
            .iter()
            .enumerate()
            .find(|(_, &d)| d != 0.0)
            .map(|(r, &d)| (r as u32, d));
        StructureFacts {
            fingerprint: sss.fingerprint(),
            n: sss.n(),
            kind: sss.kind(),
            nonzero_diag,
            paired_upper_len: sss.upper_values().len(),
            lower_nnz: sss.lower_nnz(),
        }
    }
}

/// Symbolically certifies a symmetric-SpMV plan against the structure
/// facts and the planner's declared per-thread conflict profile
/// (`conflicts[i]` = sorted distinct transposed targets `c < start_i` of
/// thread `i`, as computed by the conflict analysis).
///
/// Produces a certificate structurally identical to
/// [`crate::writeset::certify_sym`]'s (same invariants, same footprint
/// statistics) with [`ProofForm::Symbolic`], but in `O(p + c)` instead of
/// `O(nnz)`:
///
/// * partition tiling and local-layout disjointness are interval checks;
/// * the multiply phase needs no enumeration at all — a direct transposed
///   write `y[c]` with `c ≥ start_i` satisfies `c < r < end_i` by the
///   strict-lower-triangle axiom, and a local write at slot `c < start_i`
///   is inside the region because the region length *is* `start_i`
///   (or `n` for the naive family); only the declared conflict hull is
///   checked against the split;
/// * the indexing reduction's split boundaries are peeked (`O(p)`), and
///   coverage is a sorted merge of the declared profile against the
///   `(vid, idx)` index (`O(c)`).
///
/// Soundness is relative to the declared profile; the enumerative checker
/// re-derives the profile from the structure independently, and the
/// differential suite keeps the two in lock-step.
pub fn certify_sym_symbolic(
    facts: &StructureFacts,
    plan: &SymPlanRef<'_>,
    conflicts: &[Vec<u32>],
) -> Result<RaceCertificate, VerifyError> {
    let n = facts.n;
    let p = plan.parts.len();
    check_tiling(plan.parts, n)?;

    let direct = plan.strategy != SymStrategyKind::Naive;
    let region_len = |i: usize| -> usize {
        if direct {
            plan.parts[i].start as usize
        } else {
            n as usize
        }
    };
    check_layout(plan, region_len)?;

    // Multiply phase, symbolically. The conflict hull of thread i must lie
    // inside [0, start_i): combined with region_len(i) == start_i this
    // proves every local write lands in the thread's own region, and the
    // strict-lower-triangle axiom bounds every direct write by end_i.
    if conflicts.len() != p {
        return Err(VerifyError::MalformedPlan {
            reason: format!("{} conflict profiles for {p} threads", conflicts.len()),
        });
    }
    for (i, profile) in conflicts.iter().enumerate() {
        if let Some(&max) = profile.last() {
            let split = plan.parts[i].start;
            let hull = Interval::new(u64::from(profile[0]), u64::from(max) + 1);
            if !Interval::new(0, u64::from(split)).contains(&hull) {
                if direct {
                    return Err(VerifyError::EscapedWrite {
                        tid: i,
                        target: max,
                    });
                }
                return Err(VerifyError::MalformedPlan {
                    reason: format!(
                        "conflict profile of thread {i} reaches {max}, past its split {split}"
                    ),
                });
            }
        }
    }

    // Reduce phase.
    match plan.strategy {
        SymStrategyKind::Naive | SymStrategyKind::EffectiveRanges => {
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
        SymStrategyKind::Indexing => check_index_symbolic(plan, conflicts)?,
    }

    let mut invariants = vec![
        "reduction-slice".to_string(),
        "effective-region".to_string(),
    ];
    if direct {
        invariants.insert(0, "disjoint-direct".to_string());
    }
    match facts.kind {
        SymmetryKind::Symmetric => {}
        SymmetryKind::Skew => {
            if let Some((r, d)) = facts.nonzero_diag {
                return Err(VerifyError::KindSideCondition {
                    kind: "skew",
                    reason: format!("diagonal entry {r} is {d}, must be zero"),
                });
            }
            invariants.push("skew-zero-diagonal".to_string());
        }
        SymmetryKind::Structural => {
            if facts.paired_upper_len != facts.lower_nnz {
                return Err(VerifyError::KindSideCondition {
                    kind: "structural",
                    reason: format!(
                        "paired upper array has {} values for {} lower entries",
                        facts.paired_upper_len, facts.lower_nnz
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
        fingerprint: facts.fingerprint,
        n: n as usize,
        nthreads: p,
        family: "sym-sss".to_string(),
        strategy: match plan.strategy {
            SymStrategyKind::Naive => "naive",
            SymStrategyKind::EffectiveRanges => "eff",
            SymStrategyKind::Indexing => "idx",
        }
        .to_string(),
        symmetry: facts.kind.tag().to_string(),
        invariants,
        direct_rows: if direct { n as usize } else { 0 },
        local_elems: if direct {
            plan.parts.iter().map(|r| r.start as usize).sum()
        } else {
            p * n as usize
        },
        conflict_entries,
        lanes: 1,
        proof: ProofForm::Symbolic,
    })
}

/// The indexing-reduction obligations, without enumeration: split shape
/// and boundary peeks are `O(p)`; index sortedness, bounds and coverage
/// are one `O(c)` merge against the declared profile.
fn check_index_symbolic(plan: &SymPlanRef<'_>, conflicts: &[Vec<u32>]) -> Result<(), VerifyError> {
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
    // Boundary peeks: no idx value may span two reduction slices.
    for (k, &b) in splits.iter().enumerate().take(p).skip(1) {
        if b > 0 && b < entries.len() && entries[b - 1].idx == entries[b].idx {
            return Err(VerifyError::ReductionSliceOverlap {
                idx: entries[b].idx,
                first: k - 1,
                second: k,
            });
        }
    }
    // Bounds and coverage in one merge. Per vid, both the entry stream and
    // the declared profile are sorted ascending; a profile element skipped
    // by the entry stream can never be covered later.
    let mut cursor = vec![0usize; p];
    let mut missing: Option<(usize, u32)> = None;
    let note_missing = |tid: usize, idx: u32, slot: &mut Option<(usize, u32)>| {
        if slot.is_none_or(|(t, i)| (tid, idx) < (t, i)) {
            *slot = Some((tid, idx));
        }
    };
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
        while cursor[vid] < conflicts[vid].len() && conflicts[vid][cursor[vid]] < e.idx {
            note_missing(vid, conflicts[vid][cursor[vid]], &mut missing);
            cursor[vid] += 1;
        }
        if cursor[vid] < conflicts[vid].len() && conflicts[vid][cursor[vid]] == e.idx {
            cursor[vid] += 1;
        }
    }
    for (tid, profile) in conflicts.iter().enumerate() {
        if cursor[tid] < profile.len() {
            note_missing(tid, profile[cursor[tid]], &mut missing);
        }
    }
    if let Some((tid, idx)) = missing {
        return Err(VerifyError::IndexIncomplete { tid, idx });
    }
    Ok(())
}

/// Symbolic lane lifting: the congruence-domain counterpart of
/// [`crate::writeset::lift_sym_certificate`].
///
/// Thread `i`'s scalar local region `[o_i, o_i + ℓ_i)` lifts to the block
/// region `[o_i·k, (o_i + ℓ_i)·k)` ([`Interval::scaled`]); the lift is
/// sound iff every block offset is lane-aligned (`≡ 0 (mod k)`,
/// [`Congruence`]) *and* is the scalar offset scaled, and the block store
/// is the scalar store scaled. Side conditions and error payloads match
/// the enumerative lifter exactly; the result keeps the base proof form.
pub fn lift_symbolic(
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
    let k = lanes as u64;
    for (tid, (&b, &s)) in block_offsets.iter().zip(base_offsets).enumerate() {
        let congruence = Congruence::of(b as u64, k);
        if !congruence.aligned() || (b as u64) / k != s as u64 {
            return Err(VerifyError::LaneOffsetMismatch {
                tid,
                expected: s * lanes,
                actual: b,
            });
        }
    }
    let scalar_store = Interval::new(0, base_local_len as u64);
    if block_local_len as u64 != scalar_store.scaled(k).len() {
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

/// Symbolic row-partition certificate: the rows obligation (partitions
/// tile `0..n`) is already interval-shaped, so this is the same `O(p)`
/// check as [`crate::writeset::certify_rows`], stamped with
/// [`ProofForm::Symbolic`] so every kernel family has a symbolic
/// certifier.
pub fn certify_rows_symbolic(
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
        proof: ProofForm::Symbolic,
    })
}

/// Structure-derived axioms of a RACE level coloring, established once per
/// `(matrix, coloring)` pair — the symbolic analogue of
/// [`StructureFacts`] for the recursive scheduler.
///
/// Two axioms are walked from the structure (`O(nnz)`, amortized over
/// every thread-count/lane configuration the plan cache derives):
///
/// 1. **Level locality** — every stored edge `(r, c)` spans at most one
///    BFS level, so the write window of row `r` only touches rows whose
///    level is within `level(r) ± 1`; rows whose levels differ by ≥ 3 can
///    never conflict. This is what makes the `level % 3` phase folding of
///    the group numbering sound.
/// 2. **Subcolor disjointness** — within one `(level, subcolor)` class the
///    write sets `{r} ∪ cols(r)` are pairwise disjoint.
///
/// Together: two rows share a group iff they agree on `level % 3` *and*
/// subcolor, which by the axioms means either the same level (axiom 2) or
/// levels ≥ 3 apart (axiom 1) — disjoint write sets either way. The
/// per-plan check [`certify_race_symbolic`] then never touches the
/// structure again: it only verifies the arithmetic of the group numbering
/// and the tiling of the barriered rounds, in `O(n + p·groups)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringFacts {
    /// Structural fingerprint of the matrix the axioms were walked on.
    pub fingerprint: u64,
    /// Matrix dimension.
    pub n: u32,
    /// BFS level of every row.
    pub levels: Vec<u32>,
    /// Within-level subcolor of every row.
    pub subcolors: Vec<u32>,
    /// Palette size of each `level % 3` phase (max subcolor count over the
    /// levels congruent to that residue).
    pub phase_sizes: [u32; 3],
}

impl ColoringFacts {
    /// Walks the two coloring axioms on the structure, rejecting level or
    /// subcolor assignments that do not support the distance-2 proof.
    pub fn establish(
        sss: &SssMatrix,
        levels: &[u32],
        subcolors: &[u32],
    ) -> Result<Self, VerifyError> {
        let n = sss.n() as usize;
        if levels.len() != n || subcolors.len() != n {
            return Err(VerifyError::MalformedPlan {
                reason: format!(
                    "{} levels / {} subcolors for {n} rows",
                    levels.len(),
                    subcolors.len()
                ),
            });
        }
        // Axiom 1: stored edges span at most one level.
        for r in 0..sss.n() {
            let (cols, _) = sss.row(r);
            for &c in cols {
                let (lr, lc) = (levels[r as usize], levels[c as usize]);
                if lr.abs_diff(lc) > 1 {
                    return Err(VerifyError::MalformedPlan {
                        reason: format!(
                            "edge ({r}, {c}) spans levels {lr} and {lc}; \
                             BFS levels admit a span of at most 1"
                        ),
                    });
                }
            }
        }
        // Axiom 2: within one (level, subcolor) class, write sets are
        // pairwise disjoint. Rows are grouped by class so the target
        // stamps of one class are never clobbered by another's.
        let mut order: Vec<u32> = (0..sss.n()).collect();
        order.sort_unstable_by_key(|&r| (levels[r as usize], subcolors[r as usize], r));
        let mut claimed_by = vec![u32::MAX; n];
        let mut last_key = vec![u64::MAX; n];
        for &r in &order {
            let key = (u64::from(levels[r as usize]) << 32) | u64::from(subcolors[r as usize]);
            let (cols, _) = sss.row(r);
            for target in cols.iter().copied().chain(std::iter::once(r)) {
                let t = target as usize;
                if last_key[t] == key && claimed_by[t] != r {
                    return Err(VerifyError::ColoringConflict {
                        color: subcolors[r as usize],
                        row_a: claimed_by[t],
                        row_b: r,
                        target,
                    });
                }
                last_key[t] = key;
                claimed_by[t] = r;
            }
        }
        let mut phase_sizes = [0u32; 3];
        for r in 0..n {
            let ph = (levels[r] % 3) as usize;
            phase_sizes[ph] = phase_sizes[ph].max(subcolors[r] + 1);
        }
        Ok(ColoringFacts {
            fingerprint: sss.fingerprint(),
            n: sss.n(),
            levels: levels.to_vec(),
            subcolors: subcolors.to_vec(),
            phase_sizes,
        })
    }
}

/// Symbolically certifies a RACE schedule against established
/// [`ColoringFacts`]: the group of every row must be exactly
/// `base[level % 3] + subcolor` for the prefix-sum `base` of the phase
/// palette sizes, the group table must mirror that map, and every group's
/// per-thread parts must tile its row list. With the two axioms already on
/// file, same-group rows provably have disjoint write sets, so the checks
/// here never walk the structure — `O(n + p·groups)` per plan.
///
/// The certificate is field-for-field identical to
/// [`crate::writeset::certify_race`]'s, with the same
/// [`ProofForm::ColoringDisjoint`] proof (`stride` = group count,
/// `reach` = 2).
pub fn certify_race_symbolic(
    facts: &StructureFacts,
    coloring: &ColoringFacts,
    group_of: &[u32],
    groups: &[Vec<u32>],
    group_parts: &[Vec<Range>],
    nthreads: usize,
) -> Result<RaceCertificate, VerifyError> {
    if coloring.fingerprint != facts.fingerprint || coloring.n != facts.n {
        return Err(VerifyError::MalformedPlan {
            reason: format!(
                "coloring facts for matrix {:#x} (n = {}) used with matrix {:#x} (n = {})",
                coloring.fingerprint, coloring.n, facts.fingerprint, facts.n
            ),
        });
    }
    let n = facts.n as usize;
    if group_of.len() != n {
        return Err(VerifyError::MalformedPlan {
            reason: format!("group map has {} entries for {n} rows", group_of.len()),
        });
    }
    let sizes = coloring.phase_sizes;
    let bases = [0, sizes[0], sizes[0] + sizes[1]];
    let ngroups = (sizes[0] + sizes[1] + sizes[2]) as usize;
    if groups.len() != ngroups {
        return Err(VerifyError::MalformedPlan {
            reason: format!(
                "group table has {} groups for a palette of {ngroups}",
                groups.len()
            ),
        });
    }
    for (r, &grp) in group_of.iter().enumerate().take(n) {
        let (lv, sc) = (coloring.levels[r], coloring.subcolors[r]);
        let ph = (lv % 3) as usize;
        if sc >= sizes[ph] {
            return Err(VerifyError::MalformedPlan {
                reason: format!(
                    "row {r} subcolor {sc} outside phase {ph} palette {}",
                    sizes[ph]
                ),
            });
        }
        let expect = bases[ph] + sc;
        if grp != expect {
            return Err(VerifyError::MalformedPlan {
                reason: format!(
                    "row {r} grouped as {grp} but level {lv} subcolor {sc} prove group {expect}"
                ),
            });
        }
    }
    // The group table must mirror the (now-proven) group map exactly.
    let mut seen = vec![false; n];
    let mut total = 0usize;
    for (gid, rows) in groups.iter().enumerate() {
        for &r in rows {
            if (r as usize) >= n || group_of[r as usize] != gid as u32 {
                return Err(VerifyError::MalformedPlan {
                    reason: format!("group {gid} lists row {r} whose proven group differs"),
                });
            }
            if seen[r as usize] {
                return Err(VerifyError::MalformedPlan {
                    reason: format!("row {r} listed twice in the group table"),
                });
            }
            seen[r as usize] = true;
            total += 1;
        }
    }
    if total != n {
        return Err(VerifyError::MalformedPlan {
            reason: format!("group table covers {total} of {n} rows"),
        });
    }
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
    match facts.kind {
        SymmetryKind::Symmetric => {}
        SymmetryKind::Skew => {
            if let Some((r, d)) = facts.nonzero_diag {
                return Err(VerifyError::KindSideCondition {
                    kind: "skew",
                    reason: format!("diagonal entry {r} is {d}, must be zero"),
                });
            }
            invariants.push("skew-zero-diagonal".to_string());
        }
        SymmetryKind::Structural => {
            if facts.paired_upper_len != facts.lower_nnz {
                return Err(VerifyError::KindSideCondition {
                    kind: "structural",
                    reason: format!(
                        "paired upper array has {} values for {} lower entries",
                        facts.paired_upper_len, facts.lower_nnz
                    ),
                });
            }
            invariants.push("structural-paired".to_string());
        }
    }
    Ok(RaceCertificate {
        fingerprint: facts.fingerprint,
        n,
        nthreads,
        family: "sym-sss".to_string(),
        strategy: "race".to_string(),
        symmetry: facts.kind.tag().to_string(),
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

    #[test]
    fn interval_algebra() {
        let a = Interval::new(0, 4);
        let b = Interval::new(4, 8);
        let c = Interval::new(3, 5);
        assert!(a.disjoint(&b));
        assert!(!a.disjoint(&c));
        assert!(Interval::new(0, 8).contains(&c));
        assert!(!a.contains(&c));
        assert!(Interval::new(2, 2).is_empty());
        assert!(a.disjoint(&Interval::new(2, 2)));
        assert_eq!(a.scaled(4), Interval::new(0, 16));
        assert_eq!(Interval::new(3, 5).scaled(2), Interval::new(6, 10));
    }

    #[test]
    fn congruence_alignment() {
        assert!(Congruence::of(16, 4).aligned());
        assert!(!Congruence::of(17, 4).aligned());
        assert_eq!(Congruence::of(17, 4).residue, 1);
        assert!(Congruence::of(0, 1).aligned());
    }

    #[test]
    fn facts_capture_diag() {
        let m = sss(&[(5, 1), (6, 2), (7, 6)], 8);
        let f = StructureFacts::of(&m);
        assert_eq!(f.n, 8);
        assert_eq!(f.fingerprint, m.fingerprint());
        assert_eq!(f.nonzero_diag, Some((0, 2.0)));
        assert_eq!(f.lower_nnz, 3);
    }
}
