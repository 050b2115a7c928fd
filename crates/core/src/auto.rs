//! Cost-model plan selection and the [`SymSpmv::auto`] entry point.
//!
//! The paper fixes its recommendation (SSS + local-vectors indexing) from
//! measurements on two machines; the right `format × reduction strategy ×
//! thread count × lane width` point actually moves with matrix structure
//! and hardware. This module provides the *model* half of the auto-tuning
//! story (DESIGN.md §18):
//!
//! * [`PlanSpec`] — one point of the search space, serializable by tag;
//! * [`predicted_bytes`] — an Eq. 1–2 / Eq. 3–6 traffic model that ranks
//!   candidates from [`MatrixStats`] alone, without building anything;
//! * [`PlanAdvisor`] — the hook through which a persisted plan store (the
//!   measurement half, `symspmv-tune`) injects a tuned decision;
//! * [`SymSpmv::auto`] / [`SymSpmv::auto_with`] — constructors that consult
//!   an advisor when one is supplied and fall back to the cost model,
//!   recording which path was taken in the returned [`AutoChoice`].
//!
//! The model is a *pruning* device, not an oracle: it predicts per-vector
//! memory traffic under a linear-scaling assumption and is only trusted to
//! order candidates coarsely. Anything within the pruning band gets
//! measured by the tuner; the model alone decides only when no store entry
//! matches and no measurement budget is available.

use crate::error::SymSpmvError;
pub use crate::sym::FormatTag;
use crate::sym::{unsupported_pair, ReductionMethod, SymSpmv};
use crate::ws;
use std::sync::Arc;
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::stats::{matrix_stats, sss_size_bytes, MatrixStats};
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::{CooMatrix, SssMatrix};

/// One point of the tuning search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanSpec {
    /// Storage format family.
    pub format: FormatTag,
    /// Reduction strategy (Fig. 3 b/c/d).
    pub method: ReductionMethod,
    /// Worker-thread count the plan was selected for.
    pub nthreads: usize,
    /// Recommended SpMM lane width (1 = scalar SpMV).
    pub lanes: usize,
}

impl PlanSpec {
    /// Candidate identifier, e.g. `"csxsym-idx-p4-k8"` — stable across
    /// runs, used as the candidate column of the search tables.
    pub fn id(&self) -> String {
        format!(
            "{}-{}-p{}-k{}",
            self.format.tag(),
            self.method.tag(),
            self.nthreads,
            self.lanes
        )
    }

    /// Whether this spec is buildable at all ([`unsupported_pair`]).
    pub fn is_valid(&self) -> bool {
        unsupported_pair(self.format, self.method).is_none()
    }
}

/// Which path [`SymSpmv::auto_with`] took to its decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// A persisted tuned plan matched the (fingerprint, threads) key.
    Store,
    /// No stored plan matched; the Eq. 1–2/3–6 cost model decided.
    CostModel,
}

impl PlanSource {
    /// Short name for tables (`"store"` / `"cost-model"`).
    pub fn tag(&self) -> &'static str {
        match self {
            PlanSource::Store => "store",
            PlanSource::CostModel => "cost-model",
        }
    }
}

/// The decision record returned alongside an auto-built engine.
#[derive(Debug, Clone)]
pub struct AutoChoice {
    /// The selected configuration.
    pub spec: PlanSpec,
    /// Where the decision came from.
    pub source: PlanSource,
    /// The model's predicted per-thread traffic for the choice, in bytes
    /// per multiplied vector (comparable across candidates only).
    pub predicted_bytes: f64,
}

/// A source of tuned plans consulted by [`SymSpmv::auto_with`] before the
/// cost model. Implemented by the persisted plan store in `symspmv-tune`;
/// kept object-safe and dependency-free so the engine crate stays below
/// the tuner in the crate graph.
pub trait PlanAdvisor {
    /// Returns the stored plan for this structure fingerprint if one
    /// matching the ambient machine key exists. `nthreads` is the thread
    /// count the caller will run with; advisors should only return plans
    /// tuned for it.
    fn lookup(&self, fingerprint: u64, nthreads: usize) -> Option<PlanSpec>;
}

/// Estimated on-disk/stream size in bytes of the matrix under `format`
/// (Eq. 1–2 plus a documented CSX compression proxy).
///
/// The CSX-Sym estimate shrinks the 4-byte column indices toward 1 byte as
/// the mean in-row column gap falls below the 1-byte delta range: entries
/// `avg_row_nnz` spread over `≈ 2·avg_entry_distance` columns have mean gap
/// `2·d̄/r̄`, and delta units only pay off inside that range.
pub fn predicted_format_bytes(stats: &MatrixStats, kind: SymmetryKind, format: FormatTag) -> f64 {
    let n = stats.nrows as usize;
    // `stats.nnz` counts the stored full-matrix entries; the symmetric
    // kernels store the strict lower triangle plus the dense diagonal.
    let lower = stats.nnz.saturating_sub(n) / 2;
    let paired_upper = if kind == SymmetryKind::Structural {
        8.0 * lower as f64
    } else {
        0.0
    };
    let sss = sss_size_bytes(stats.nrows, lower) as f64 + paired_upper;
    match format {
        FormatTag::Sss => sss,
        FormatTag::CsxSym => {
            let mean_gap = (2.0 * stats.avg_entry_distance / stats.avg_row_nnz.max(1.0)).max(1.0);
            let idx_bytes_per_entry = 1.0 + 3.0 * (mean_gap / 255.0).min(1.0);
            sss - (4.0 - idx_bytes_per_entry) * lower as f64
        }
    }
}

/// Estimated reduction-phase working set in bytes (Eq. 3–6) from stats
/// alone. The indexing estimate uses the Eq. 5 entry form
/// `16 · conflicting entries`, with the conflict probability of an entry
/// approximated by how far the mean off-diagonal entry reaches relative to
/// the `N/p` partition height.
pub fn predicted_ws_bytes(stats: &MatrixStats, method: ReductionMethod, p: usize) -> f64 {
    let n = stats.nrows as usize;
    match method {
        ReductionMethod::Naive => ws::ws_naive(p, n) as f64,
        ReductionMethod::EffectiveRanges => ws::ws_effective(p, n) as f64,
        ReductionMethod::Indexing => {
            let lower = stats.nnz.saturating_sub(n) / 2;
            let cross = (stats.avg_entry_distance * p as f64 / n.max(1) as f64).min(1.0);
            16.0 * lower as f64 * cross
        }
        // The race schedule has no local vectors at all, but its group
        // barriers re-touch `y` once per color phase; charge one extra
        // `y`-sized stream so the scheme only wins where indexing's
        // conflict working set actually dominates.
        ReductionMethod::Race => 8.0 * n as f64,
    }
}

/// The full traffic model: predicted bytes moved per thread per multiplied
/// vector for one candidate. Matrix bytes amortize over the lane count
/// (one matrix stream feeds all lanes of an SpMM); the `x`/`y` vectors and
/// the reduction working set are paid per vector. Division by `p` encodes
/// the linear-scaling assumption — good enough to *order* candidates, not
/// to predict wall time.
pub fn predicted_bytes(stats: &MatrixStats, kind: SymmetryKind, spec: &PlanSpec) -> f64 {
    let n = stats.nrows as usize;
    let mat = predicted_format_bytes(stats, kind, spec.format) / spec.lanes.max(1) as f64;
    let vectors = 16.0 * n as f64;
    let reduction = predicted_ws_bytes(stats, spec.method, spec.nthreads);
    (mat + vectors + reduction) / spec.nthreads.max(1) as f64
}

/// Enumerates the candidate space `format × method × threads × lanes`,
/// scored by [`predicted_bytes`]. Pairs that do not build
/// ([`PlanSpec::is_valid`]) are skipped. The result is unsorted; callers
/// prune or rank it.
pub fn enumerate_candidates(
    stats: &MatrixStats,
    kind: SymmetryKind,
    threads: &[usize],
    lanes: &[usize],
) -> Vec<(PlanSpec, f64)> {
    let mut out = Vec::new();
    for format in FormatTag::ALL {
        for method in ReductionMethod::ALL {
            for &nthreads in threads {
                for &k in lanes {
                    let spec = PlanSpec {
                        format,
                        method,
                        nthreads,
                        lanes: k,
                    };
                    if !spec.is_valid() {
                        continue;
                    }
                    let cost = predicted_bytes(stats, kind, &spec);
                    out.push((spec, cost));
                }
            }
        }
    }
    out
}

/// The model-only decision for a scalar SpMV at a fixed thread count: the
/// cheapest valid `format × method` point. This is the fallback
/// [`SymSpmv::auto_with`] uses when no advisor entry matches.
pub fn cost_model_choice(
    stats: &MatrixStats,
    kind: SymmetryKind,
    nthreads: usize,
) -> (PlanSpec, f64) {
    let candidates = enumerate_candidates(stats, kind, &[nthreads], &[1]);
    // The space is non-empty by construction (7 buildable pairs) and
    // the model never produces NaN, so a missing minimum is unreachable.
    candidates
        .into_iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or_else(|| unreachable!("candidate enumeration produced an empty space"))
}

impl SymSpmv {
    /// Builds the engine with an automatically selected format and
    /// reduction strategy: the pure cost-model path (no plan store).
    /// See [`SymSpmv::auto_with`] for the advisor-consulting variant.
    pub fn auto(
        ctx: &Arc<ExecutionContext>,
        coo: &CooMatrix,
    ) -> Result<(Self, AutoChoice), SymSpmvError> {
        Self::auto_with(ctx, coo, None)
    }

    /// Builds the engine from a symmetric COO matrix, consulting `advisor`
    /// (a persisted plan store) first and falling back to the Eq. 1–2/3–6
    /// cost model when no stored plan matches the matrix fingerprint and
    /// the context's thread count. The returned [`AutoChoice`] records
    /// which path decided.
    ///
    /// The engine is always built for the *given* context: a stored plan
    /// tuned at a different thread count is not consulted (the advisor is
    /// queried with `ctx.nthreads()`), so the plan actually used is always
    /// consistent with — and race-certified for — the executing pool.
    pub fn auto_with(
        ctx: &Arc<ExecutionContext>,
        coo: &CooMatrix,
        advisor: Option<&dyn PlanAdvisor>,
    ) -> Result<(Self, AutoChoice), SymSpmvError> {
        let sss = SssMatrix::try_from_coo(coo, 0.0)?;
        let stats = matrix_stats(coo);
        let kind = sss.kind();
        let fingerprint = sss.fingerprint();
        let nthreads = ctx.nthreads();

        let stored = advisor.and_then(|a| a.lookup(fingerprint, nthreads));
        let (spec, source) = match stored {
            Some(spec) if spec.is_valid() && spec.nthreads == nthreads => (spec, PlanSource::Store),
            _ => {
                let (spec, _) = cost_model_choice(&stats, kind, nthreads);
                (spec, PlanSource::CostModel)
            }
        };
        let predicted = predicted_bytes(&stats, kind, &spec);

        let engine = SymSpmv::from_sss(sss, ctx, spec.method, spec.format.to_format());
        // The certifier gate: whatever chose the plan, the engine may only
        // run it under a certificate valid for this exact configuration.
        engine
            .certificate()
            .validate_for(fingerprint, nthreads, "sym-sss", spec.method.tag())
            .map_err(|e| {
                SymSpmvError::InvalidStructure(symspmv_sparse::SparseError::Parse {
                    line: 0,
                    msg: format!("tuned plan failed race certification: {e}"),
                })
            })?;
        Ok((
            engine,
            AutoChoice {
                spec,
                source,
                predicted_bytes: predicted,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::ParallelSpmv;
    use symspmv_sparse::gen;

    #[test]
    fn format_tags_round_trip() {
        for tag in FormatTag::ALL {
            assert_eq!(FormatTag::parse(tag.tag()), Some(tag));
        }
        assert_eq!(FormatTag::parse("bogus"), None);
        for method in ReductionMethod::ALL {
            assert_eq!(ReductionMethod::from_tag(method.tag()), Some(method));
        }
        assert_eq!(ReductionMethod::from_tag("bogus"), None);
    }

    #[test]
    fn enumeration_covers_the_buildable_pairs() {
        let coo = gen::laplacian_2d(16, 16);
        let stats = matrix_stats(&coo);
        let all = enumerate_candidates(&stats, SymmetryKind::Symmetric, &[1, 2], &[1, 8]);
        assert!(all.iter().all(|(s, _)| s.is_valid()));
        // 2 formats × 4 methods − csxsym-race = 7 pairs, × 2 threads × 2 lanes.
        assert_eq!(all.len(), 7 * 2 * 2);
        assert!(all.iter().all(|(_, c)| c.is_finite() && *c > 0.0));
    }

    #[test]
    fn naive_working_set_dominates_at_high_thread_counts() {
        let coo = gen::banded_random(4000, 8, 4.0, 11);
        let stats = matrix_stats(&coo);
        let naive = predicted_ws_bytes(&stats, ReductionMethod::Naive, 16);
        let idx = predicted_ws_bytes(&stats, ReductionMethod::Indexing, 16);
        assert!(
            idx < naive,
            "low-bandwidth banded matrix must predict idx ≪ naive (got {idx} vs {naive})"
        );
    }

    #[test]
    fn auto_builds_and_reports_cost_model_source() {
        let coo = gen::laplacian_2d(20, 20);
        let ctx = ExecutionContext::new(2);
        let (mut engine, choice) = SymSpmv::auto(&ctx, &coo).unwrap();
        assert_eq!(choice.source, PlanSource::CostModel);
        assert_eq!(choice.spec.nthreads, 2);
        let n = engine.n();
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        engine.spmv(&x, &mut y);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    struct FixedAdvisor(PlanSpec);
    impl PlanAdvisor for FixedAdvisor {
        fn lookup(&self, _fp: u64, nthreads: usize) -> Option<PlanSpec> {
            (self.0.nthreads == nthreads).then_some(self.0)
        }
    }

    #[test]
    fn auto_with_prefers_a_matching_advisor() {
        let coo = gen::laplacian_2d(20, 20);
        let ctx = ExecutionContext::new(2);
        let spec = PlanSpec {
            format: FormatTag::Sss,
            method: ReductionMethod::EffectiveRanges,
            nthreads: 2,
            lanes: 1,
        };
        let (engine, choice) = SymSpmv::auto_with(&ctx, &coo, Some(&FixedAdvisor(spec))).unwrap();
        assert_eq!(choice.source, PlanSource::Store);
        assert_eq!(choice.spec, spec);
        assert_eq!(engine.method(), ReductionMethod::EffectiveRanges);
    }

    #[test]
    fn auto_with_falls_back_on_thread_mismatch() {
        let coo = gen::laplacian_2d(20, 20);
        let ctx = ExecutionContext::new(2);
        let spec = PlanSpec {
            format: FormatTag::Sss,
            method: ReductionMethod::Naive,
            nthreads: 8,
            lanes: 1,
        };
        let (_, choice) = SymSpmv::auto_with(&ctx, &coo, Some(&FixedAdvisor(spec))).unwrap();
        assert_eq!(choice.source, PlanSource::CostModel);
    }
}
