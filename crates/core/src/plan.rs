//! Memoized, race-certified symmetric-SpMV plans.
//!
//! Everything [`super::sym::SymSpmv`] derives from the matrix structure and
//! the thread count — the balanced row partition, the local-vector layout,
//! the conflict index, the reduction chunks — is bundled into one immutable
//! [`CachedSymPlan`] and memoized in the [`ExecutionContext`] plan cache
//! under `(matrix fingerprint, nthreads, strategy tag)`. Building a second
//! engine for the same configuration (a strategy sweep, a solver restart)
//! reuses the plan wholesale; switching only the strategy still reuses the
//! shared row partition through the `"parts"` pseudo-strategy namespace.
//!
//! Every plan carries the [`RaceCertificate`] proving its write sets are
//! race-free; the certificate is produced once, by `symspmv-verify`'s
//! symbolic certifier at plan time (amortized by the cache), and
//! re-validated by the kernel in debug builds before every dispatch. The
//! enumerative write-set checker is the tests' oracle
//! (`crates/verify/tests/symbolic_differential.rs` compares every plan this
//! module derives against it), not a second proof run here.

use crate::symbolic::{self, ConflictIndex};
use std::any::Any;
use std::sync::Arc;
use symspmv_runtime::{
    balanced_ranges, even_ranges, partition::symmetric_row_weights, ExecutionContext, PlanKey,
    Range, ReductionStrategy,
};
use symspmv_sparse::reorder::level_color_lower;
use symspmv_sparse::SssMatrix;
use symspmv_verify::{
    certify_race_symbolic, certify_sym_symbolic, ColoringFacts, RaceCertificate, StructureFacts,
    SymPlanRef, SymStrategyKind,
};

/// The pseudo-strategy namespace under which the shared row partition is
/// memoized: every strategy for the same (matrix, nthreads) pair reuses it.
const PARTS_NAMESPACE: &str = "parts";

/// The RACE group schedule of a scheduled (coloring) strategy: the rows of
/// each distance-2-disjoint group plus the per-thread split of every
/// group's row list. The kernel runs the groups one barrier apart with all
/// threads writing `y` directly.
#[derive(Debug)]
pub struct GroupSchedule {
    /// Rows of each group, ascending; the groups partition `0..n`.
    pub groups: Vec<Vec<u32>>,
    /// Per-group, per-thread ranges into the group's row list,
    /// nnz-balanced within the group.
    pub group_parts: Vec<Vec<Range>>,
    /// Group id of every row.
    pub group_of: Vec<u32>,
    /// BFS level of every row (axiom data for the symbolic certifier).
    pub levels: Vec<u32>,
    /// Within-level subcolor of every row (axiom data).
    pub subcolors: Vec<u32>,
}

/// One fully-derived, certified plan for a (matrix, nthreads, strategy)
/// configuration.
#[derive(Debug)]
pub struct CachedSymPlan {
    /// Structural fingerprint of the matrix the plan was derived from.
    pub fingerprint: u64,
    /// nnz-balanced row partition (shared across strategies).
    pub parts: Arc<Vec<Range>>,
    /// Per-thread offsets into the flat leased local store.
    pub offsets: Vec<usize>,
    /// Length of the flat local store the layout needs.
    pub local_len: usize,
    /// Conflict index (index-consuming strategies; empty otherwise).
    pub index: ConflictIndex,
    /// Row chunks of the naive/effective reduce phase.
    pub reduce_chunks: Vec<Range>,
    /// The machine-checked race-freedom proof for this plan.
    pub cert: RaceCertificate,
    /// RACE group schedule (scheduled strategies only; `None` for the
    /// local-vectors reduction family).
    pub schedule: Option<Arc<GroupSchedule>>,
}

impl CachedSymPlan {
    /// Derives (or retrieves from the context's plan cache) the certified
    /// plan for `sss` under `strategy` with the context's thread count.
    pub fn obtain(
        sss: &SssMatrix,
        ctx: &Arc<ExecutionContext>,
        strategy: &Arc<dyn ReductionStrategy>,
    ) -> Arc<CachedSymPlan> {
        let fingerprint = sss.fingerprint();
        let nthreads = ctx.nthreads();
        let key = PlanKey {
            matrix: fingerprint,
            nthreads,
            strategy: strategy.name().to_string(),
        };
        if let Some(hit) = ctx.plan_cache_get(&key) {
            if let Ok(plan) = Arc::downcast::<CachedSymPlan>(hit) {
                return plan;
            }
        }
        let plan = Arc::new(Self::derive(sss, ctx, strategy, fingerprint));
        ctx.plan_cache_put(key, Arc::clone(&plan) as Arc<dyn Any + Send + Sync>);
        plan
    }

    fn derive(
        sss: &SssMatrix,
        ctx: &Arc<ExecutionContext>,
        strategy: &Arc<dyn ReductionStrategy>,
        fingerprint: u64,
    ) -> CachedSymPlan {
        let n = sss.n() as usize;
        let nthreads = ctx.nthreads();

        // The partition depends only on (matrix, nthreads): share it across
        // strategy switches through the pseudo-strategy namespace.
        let parts_key = PlanKey {
            matrix: fingerprint,
            nthreads,
            strategy: PARTS_NAMESPACE.to_string(),
        };
        let parts: Arc<Vec<Range>> = ctx
            .plan_cache_get(&parts_key)
            .and_then(|hit| Arc::downcast::<Vec<Range>>(hit).ok())
            .unwrap_or_else(|| {
                let p = Arc::new(balanced_ranges(
                    &symmetric_row_weights(sss.rowptr()),
                    nthreads,
                ));
                ctx.plan_cache_put(parts_key, Arc::clone(&p) as Arc<dyn Any + Send + Sync>);
                p
            });

        if strategy.scheduled() {
            return Self::derive_scheduled(sss, fingerprint, parts, nthreads);
        }

        // The conflict analysis runs for every strategy now: the symbolic
        // certifier consumes the per-thread conflict profile, and index-free
        // strategies keep their empty entry/split shape while carrying the
        // real profile.
        let analysis = symbolic::analyze(sss, &parts);
        let index = if strategy.needs_index() {
            analysis
        } else {
            ConflictIndex {
                entries: Vec::new(),
                conflicts: analysis.conflicts,
                splits: vec![0; nthreads + 1],
                effective_region_len: parts.iter().map(|r| r.start as usize).sum(),
            }
        };
        let layout = strategy.layout(n, &parts);
        let reduce_chunks = even_ranges(n, nthreads);

        let kind = if !strategy.direct_write() {
            SymStrategyKind::Naive
        } else if strategy.needs_index() {
            SymStrategyKind::Indexing
        } else {
            SymStrategyKind::EffectiveRanges
        };
        let plan_ref = SymPlanRef {
            parts: &parts,
            offsets: &layout.offsets,
            local_len: layout.flat_len,
            strategy: kind,
            entries: &index.entries,
            splits: &index.splits,
            row_chunks: &reduce_chunks,
        };
        let facts = StructureFacts::of(sss);
        let cert = match certify_sym_symbolic(&facts, &plan_ref, &index.conflicts) {
            Ok(cert) => cert,
            // The plan was just derived from the structure by construction;
            // a certification failure here is a bug in the planner (or the
            // verifier), never a user-input condition.
            Err(e) => unreachable!("freshly derived plan failed race certification: {e}"),
        };

        CachedSymPlan {
            fingerprint,
            parts,
            offsets: layout.offsets,
            local_len: layout.flat_len,
            index,
            reduce_chunks,
            cert,
            schedule: None,
        }
    }

    /// Derives the plan of a scheduled (RACE coloring) strategy: a
    /// recursive level coloring partitions the rows into
    /// distance-2-disjoint groups, each group is nnz-balanced across the
    /// threads, and the schedule is dual-certified — symbolically from the
    /// coloring axioms, and (in debug builds) by exhaustive write-set
    /// enumeration, with the two certificates required to agree exactly.
    /// No local vectors exist: `local_len` is zero, so the kernel's reduce
    /// phase vanishes.
    fn derive_scheduled(
        sss: &SssMatrix,
        fingerprint: u64,
        parts: Arc<Vec<Range>>,
        nthreads: usize,
    ) -> CachedSymPlan {
        let n = sss.n() as usize;
        let coloring = level_color_lower(sss.n(), sss.rowptr(), sss.colind());
        let group_parts: Vec<Vec<Range>> = coloring
            .groups
            .iter()
            .map(|rows| {
                let weights: Vec<u64> = rows
                    .iter()
                    .map(|&r| 2 * sss.row(r).0.len() as u64 + 1)
                    .collect();
                balanced_ranges(&weights, nthreads)
            })
            .collect();
        let schedule = GroupSchedule {
            groups: coloring.groups,
            group_parts,
            group_of: coloring.group_of,
            levels: coloring.levels,
            subcolors: coloring.subcolors,
        };

        let facts = StructureFacts::of(sss);
        let cert = ColoringFacts::establish(sss, &schedule.levels, &schedule.subcolors)
            .and_then(|coloring_facts| {
                certify_race_symbolic(
                    &facts,
                    &coloring_facts,
                    &schedule.group_of,
                    &schedule.groups,
                    &schedule.group_parts,
                    nthreads,
                )
            })
            .unwrap_or_else(|e| {
                // The schedule was just derived from the structure by
                // construction; a certification failure is a scheduler (or
                // verifier) bug, never a user-input condition.
                unreachable!("freshly derived schedule failed race certification: {e}")
            });
        // Debug builds re-prove by exhaustive enumeration; the two proofs
        // are required to agree bit-for-bit, proof form included.
        #[cfg(debug_assertions)]
        {
            match symspmv_verify::certify_race(
                sss,
                &schedule.groups,
                &schedule.group_parts,
                nthreads,
            ) {
                Ok(enumerated) => assert_eq!(
                    cert, enumerated,
                    "symbolic and enumerative race certificates diverge"
                ),
                Err(e) => unreachable!("enumerative re-certification failed: {e}"),
            }
        }

        CachedSymPlan {
            fingerprint,
            parts,
            offsets: vec![0; nthreads],
            local_len: 0,
            index: ConflictIndex {
                entries: Vec::new(),
                conflicts: vec![Vec::new(); nthreads],
                splits: vec![0; nthreads + 1],
                effective_region_len: 0,
            },
            reduce_chunks: even_ranges(n, nthreads),
            cert,
            schedule: Some(Arc::new(schedule)),
        }
    }
}

/// Debug-build dispatch gate for the plain row-partitioned kernels (CSR,
/// CSX chunks): asserts the partition tiles `0..n` disjointly, naming the
/// kernel family in the panic. Free in release builds.
#[inline]
pub fn debug_certify_rows(n: u32, parts: &[Range], family: &str) {
    #[cfg(not(debug_assertions))]
    let _ = (n, parts, family);
    #[cfg(debug_assertions)]
    if let Err(e) = symspmv_verify::certify_rows_symbolic(0, n, parts, family) {
        unreachable!("{family}: partition failed race certification: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::ReductionMethod;

    fn strategy(ctx: &Arc<ExecutionContext>, m: ReductionMethod) -> Arc<dyn ReductionStrategy> {
        ctx.reduction(m.tag()).unwrap()
    }

    #[test]
    fn same_configuration_reuses_plan() {
        let coo = symspmv_sparse::gen::banded_random(300, 16, 8.0, 3);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let ctx = ExecutionContext::new(4);
        let s = strategy(&ctx, ReductionMethod::Indexing);
        let a = CachedSymPlan::obtain(&sss, &ctx, &s);
        let b = CachedSymPlan::obtain(&sss, &ctx, &s);
        assert!(Arc::ptr_eq(&a, &b), "second obtain must hit the cache");
        assert!(ctx.stats().plan_cache_hits >= 1);
    }

    #[test]
    fn strategy_switch_shares_the_partition() {
        let coo = symspmv_sparse::gen::banded_random(300, 16, 8.0, 3);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let ctx = ExecutionContext::new(4);
        let idx = CachedSymPlan::obtain(&sss, &ctx, &strategy(&ctx, ReductionMethod::Indexing));
        let eff = CachedSymPlan::obtain(
            &sss,
            &ctx,
            &strategy(&ctx, ReductionMethod::EffectiveRanges),
        );
        assert!(
            Arc::ptr_eq(&idx.parts, &eff.parts),
            "strategies must share the row partition"
        );
        assert_ne!(idx.cert.strategy, eff.cert.strategy);
    }

    #[test]
    fn different_matrices_get_distinct_plans() {
        let a = SssMatrix::from_coo(&symspmv_sparse::gen::laplacian_2d(12, 12), 0.0).unwrap();
        let b = SssMatrix::from_coo(&symspmv_sparse::gen::laplacian_2d(13, 13), 0.0).unwrap();
        let ctx = ExecutionContext::new(2);
        let s = strategy(&ctx, ReductionMethod::EffectiveRanges);
        let pa = CachedSymPlan::obtain(&a, &ctx, &s);
        let pb = CachedSymPlan::obtain(&b, &ctx, &s);
        assert_ne!(pa.fingerprint, pb.fingerprint);
        assert!(!Arc::ptr_eq(&pa, &pb));
    }

    #[test]
    fn certificates_validate_for_their_own_configuration_only() {
        let coo = symspmv_sparse::gen::laplacian_2d(16, 16);
        let sss = SssMatrix::from_coo(&coo, 0.0).unwrap();
        let ctx = ExecutionContext::new(4);
        let plan = CachedSymPlan::obtain(&sss, &ctx, &strategy(&ctx, ReductionMethod::Indexing));
        plan.cert
            .validate_for(sss.fingerprint(), 4, "sym-sss", "idx")
            .unwrap();
        assert!(plan
            .cert
            .validate_for(sss.fingerprint(), 8, "sym-sss", "idx")
            .is_err());
    }
}
