//! Plan selection for [`SymSpmv::auto`]: a measured plan from a store, or
//! the paper's default.
//!
//! The paper selects nothing at run time: §III/§V fix "local-vectors
//! indexing, on SSS or CSX-Sym" from measurements on two machines. The
//! better `format × thread count` point does move with matrix structure and
//! hardware, but only a measurement finds it — the Eq. 1–6 traffic model
//! this module once ranked candidates with mis-ranked every suite matrix,
//! and when every `format × method` pair was measured the best `naive`,
//! `eff` or `race` plan trailed the winner by 3–28 % on every suite matrix
//! (EXPERIMENTS.md, "recorded losers"). So a plan always reduces by
//! indexing, and there are two sources of a plan and no third (DESIGN.md
//! §18):
//!
//! * [`PlanSpec`] — one point of the search space, serializable by tag, and
//!   [`enumerate_candidates`], the whole space for a list of thread counts;
//! * [`PlanAdvisor`] — the hook through which a persisted plan store
//!   (`symspmv-tune`, which measures every candidate) injects its decision;
//! * [`SymSpmv::auto`] / [`SymSpmv::auto_with`] — constructors that build a
//!   matching stored plan when an advisor has one and the paper's `sss-idx`
//!   at the context's thread count otherwise, recording which in the
//!   returned [`AutoChoice`].

use crate::error::SymSpmvError;
pub use crate::sym::FormatTag;
use crate::sym::{pair_name, ReductionMethod, SymSpmv};
use std::sync::Arc;
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::{CooMatrix, SssMatrix};

/// One point of the tuning search space. Every plan reduces by
/// local-vectors indexing (§III-C), which both formats support, so every
/// `PlanSpec` builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanSpec {
    /// Storage format family.
    pub format: FormatTag,
    /// Worker-thread count the plan was selected for.
    pub nthreads: usize,
}

impl PlanSpec {
    /// The paper's recommendation at `nthreads`: SSS with local-vectors
    /// indexing.
    pub fn paper_default(nthreads: usize) -> PlanSpec {
        PlanSpec {
            format: FormatTag::Sss,
            nthreads,
        }
    }

    /// Candidate identifier, e.g. `"csxsym-idx-p4"` — stable across runs,
    /// used as the candidate column of the search tables.
    pub fn id(&self) -> String {
        format!(
            "{}-p{}",
            pair_name(self.format, ReductionMethod::Indexing),
            self.nthreads
        )
    }
}

/// Which path [`SymSpmv::auto_with`] took to its decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// A persisted tuned plan matched the (fingerprint, threads) key.
    Store,
    /// No stored plan matched; the paper's `sss-idx` was built.
    Default,
}

impl PlanSource {
    /// Short name for tables (`"store"` / `"default"`).
    pub fn tag(&self) -> &'static str {
        match self {
            PlanSource::Store => "store",
            PlanSource::Default => "default",
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
}

/// A source of tuned plans consulted by [`SymSpmv::auto_with`] before the
/// default. Implemented by the persisted plan store in `symspmv-tune`;
/// kept object-safe and dependency-free so the engine crate stays below
/// the tuner in the crate graph.
pub trait PlanAdvisor {
    /// Returns the stored plan for this structure fingerprint if one
    /// matching the ambient machine key exists. `nthreads` is the thread
    /// count the caller will run with; advisors should only return plans
    /// tuned for it.
    fn lookup(&self, fingerprint: u64, nthreads: usize) -> Option<PlanSpec>;
}

/// The whole search space for the given thread counts: both formats once
/// per thread count, formats outermost.
pub fn enumerate_candidates(threads: &[usize]) -> Vec<PlanSpec> {
    let mut out = Vec::new();
    for format in FormatTag::ALL {
        for &nthreads in threads {
            out.push(PlanSpec { format, nthreads });
        }
    }
    out
}

impl SymSpmv {
    /// Builds the paper's default plan, `sss-idx` at the context's thread
    /// count (no plan store). See [`SymSpmv::auto_with`] for the
    /// advisor-consulting variant.
    pub fn auto(
        ctx: &Arc<ExecutionContext>,
        coo: &CooMatrix,
    ) -> Result<(Self, AutoChoice), SymSpmvError> {
        Self::auto_with(ctx, coo, None)
    }

    /// Builds the engine from a symmetric COO matrix, consulting `advisor`
    /// (a persisted plan store) first and falling back to the paper's
    /// default ([`PlanSpec::paper_default`]) when no stored plan matches
    /// the matrix fingerprint and the context's thread count. The returned
    /// [`AutoChoice`] records which path decided.
    ///
    /// The engine is always built for the *given* context: a stored plan
    /// tuned at a different thread count is not consulted (the advisor is
    /// queried with `ctx.nthreads()`). Whatever chose the plan, building it
    /// on `ctx` mints its race certificate for exactly this matrix and
    /// pool.
    pub fn auto_with(
        ctx: &Arc<ExecutionContext>,
        coo: &CooMatrix,
        advisor: Option<&dyn PlanAdvisor>,
    ) -> Result<(Self, AutoChoice), SymSpmvError> {
        let sss = SssMatrix::try_from_coo(coo, 0.0)?;
        let fingerprint = sss.fingerprint();
        let nthreads = ctx.nthreads();

        let stored = advisor.and_then(|a| a.lookup(fingerprint, nthreads));
        let (spec, source) = match stored {
            Some(spec) if spec.nthreads == nthreads => (spec, PlanSource::Store),
            _ => (PlanSpec::paper_default(nthreads), PlanSource::Default),
        };

        let engine =
            SymSpmv::from_sss(sss, ctx, ReductionMethod::Indexing, spec.format.to_format());
        Ok((engine, AutoChoice { spec, source }))
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
    fn enumeration_is_both_idx_pairs_at_every_thread_count() {
        let ids: Vec<String> = enumerate_candidates(&[1, 2])
            .iter()
            .map(PlanSpec::id)
            .collect();
        assert_eq!(
            ids,
            ["sss-idx-p1", "sss-idx-p2", "csxsym-idx-p1", "csxsym-idx-p2"]
        );
        assert_eq!(PlanSpec::paper_default(2).id(), "sss-idx-p2");
    }

    #[test]
    fn auto_without_an_advisor_builds_the_papers_default() {
        let coo = gen::laplacian_2d(20, 20);
        let ctx = ExecutionContext::new(2);
        let (mut engine, choice) = SymSpmv::auto(&ctx, &coo).unwrap();
        assert_eq!(choice.source, PlanSource::Default);
        assert_eq!(choice.spec.id(), "sss-idx-p2");
        assert_eq!(engine.name(), "sss-idx");
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
            format: FormatTag::CsxSym,
            nthreads: 2,
        };
        let (engine, choice) = SymSpmv::auto_with(&ctx, &coo, Some(&FixedAdvisor(spec))).unwrap();
        assert_eq!(choice.source, PlanSource::Store);
        assert_eq!(choice.spec, spec);
        assert_eq!(engine.name(), "csxsym-idx");
        let fp = SssMatrix::try_from_coo(&coo, 0.0).unwrap().fingerprint();
        assert!(engine
            .certificate()
            .validate_for(fp, 2, "sym-sss", "idx")
            .is_ok());
    }

    #[test]
    fn auto_with_falls_back_on_thread_mismatch() {
        let coo = gen::laplacian_2d(20, 20);
        let ctx = ExecutionContext::new(2);
        let spec = PlanSpec {
            format: FormatTag::CsxSym,
            nthreads: 8,
        };
        let (_, choice) = SymSpmv::auto_with(&ctx, &coo, Some(&FixedAdvisor(spec))).unwrap();
        assert_eq!(choice.source, PlanSource::Default);
        assert_eq!(choice.spec, PlanSpec::paper_default(2));
    }
}
