//! Kernel factory: builds any evaluated format+method combination from a
//! symmetric COO matrix.

use std::sync::Arc;
use symspmv_core::{CsrParallel, CsxParallel, ParallelSpmv, ReductionMethod, SymFormat, SymSpmv};
use symspmv_csx::detect::DetectConfig;
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::{CooMatrix, SparseError};

/// The kernel configurations the evaluation section compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSpec {
    /// Unsymmetric CSR baseline.
    Csr,
    /// Unsymmetric CSX baseline.
    Csx,
    /// SSS with a given reduction method.
    Sss(ReductionMethod),
    /// CSX-Sym with a given reduction method.
    CsxSym(ReductionMethod),
    /// Adaptive per-chunk CSX-Sym/SSS hybrid with a given reduction method
    /// (extension; coverage threshold 0.5).
    Hybrid(ReductionMethod),
}

impl KernelSpec {
    /// Spec name matching the kernels' `name()` output. Static — report
    /// loops over lineups never allocate for names.
    pub fn name(&self) -> &'static str {
        use ReductionMethod::{EffectiveRanges as Eff, Indexing as Idx, Naive, Race};
        match self {
            KernelSpec::Csr => "csr",
            KernelSpec::Csx => "csx",
            KernelSpec::Sss(Naive) => "sss-naive",
            KernelSpec::Sss(Eff) => "sss-eff",
            KernelSpec::Sss(Idx) => "sss-idx",
            KernelSpec::Sss(Race) => "sss-race",
            // `parse` and `all` produce neither: the race schedule supports
            // the SSS format only, the hybrid format the direct-write methods.
            KernelSpec::CsxSym(Race) | KernelSpec::Hybrid(Race | Naive) => {
                unreachable!("no kernel builds for {self:?}")
            }
            KernelSpec::Hybrid(Eff) => "hybrid-eff",
            KernelSpec::Hybrid(Idx) => "hybrid-idx",
            KernelSpec::CsxSym(Naive) => "csxsym-naive",
            KernelSpec::CsxSym(Eff) => "csxsym-eff",
            KernelSpec::CsxSym(Idx) => "csxsym-idx",
        }
    }

    /// Parses a spec name: the inverse of [`KernelSpec::name`] over
    /// [`KernelSpec::all`], so a name parses exactly when its kernel builds
    /// (`csxsym-race`, `hybrid-race`, `hybrid-naive` do not).
    pub fn parse(s: &str) -> Option<KernelSpec> {
        Self::all().into_iter().find(|spec| spec.name() == s)
    }

    /// Every buildable configuration — the one list the self-checks
    /// (`experiments verify`, the equivalence and adversarial suites)
    /// sweep, so a kernel cannot drop out of one of them unnoticed.
    pub fn all() -> Vec<KernelSpec> {
        use ReductionMethod::{EffectiveRanges as Eff, Indexing as Idx, Naive, Race};
        vec![
            KernelSpec::Csr,
            KernelSpec::Csx,
            KernelSpec::Sss(Naive),
            KernelSpec::Sss(Eff),
            KernelSpec::Sss(Idx),
            KernelSpec::Sss(Race),
            KernelSpec::CsxSym(Naive),
            KernelSpec::CsxSym(Eff),
            KernelSpec::CsxSym(Idx),
            KernelSpec::Hybrid(Eff),
            KernelSpec::Hybrid(Idx),
        ]
    }

    /// The four-format lineup of Fig. 11/12/13/14.
    pub fn figure11_lineup() -> Vec<KernelSpec> {
        vec![
            KernelSpec::Csr,
            KernelSpec::Csx,
            KernelSpec::Sss(ReductionMethod::Indexing),
            KernelSpec::CsxSym(ReductionMethod::Indexing),
        ]
    }

    /// The reduction-method lineup of Fig. 9/10.
    pub fn figure9_lineup() -> Vec<KernelSpec> {
        vec![
            KernelSpec::Csr,
            KernelSpec::Sss(ReductionMethod::Naive),
            KernelSpec::Sss(ReductionMethod::EffectiveRanges),
            KernelSpec::Sss(ReductionMethod::Indexing),
        ]
    }
}

/// The detection configuration used by all CSX/CSX-Sym kernels in the
/// experiments: the defaults — a statistics pass on a 5 % row sample
/// (`sample_fraction`), 5 % `min_coverage` per family.
pub fn experiment_detect_config() -> DetectConfig {
    DetectConfig::default()
}

/// Builds a kernel for `spec` over `coo` on the shared execution context.
/// Every kernel built from the same context borrows the same worker pool
/// and buffer arena.
pub fn build_kernel(
    spec: KernelSpec,
    coo: &CooMatrix,
    ctx: &Arc<ExecutionContext>,
) -> Result<Box<dyn ParallelSpmv>, SparseError> {
    build_kernel_kind(spec, coo, SymmetryKind::Symmetric, ctx)
}

/// The kind-aware factory: builds `spec` over `coo` validated against
/// `kind`. The unsymmetric baselines (CSR, CSX) store the full expanded
/// matrix and are kind-independent — they build identically for every
/// kind; the half-storage kernels thread the kind through their
/// constructors.
pub fn build_kernel_kind(
    spec: KernelSpec,
    coo: &CooMatrix,
    kind: SymmetryKind,
    ctx: &Arc<ExecutionContext>,
) -> Result<Box<dyn ParallelSpmv>, SparseError> {
    let cfg = experiment_detect_config();
    Ok(match spec {
        KernelSpec::Csr => Box::new(CsrParallel::from_coo(coo, ctx)),
        KernelSpec::Csx => Box::new(CsxParallel::from_coo(coo, ctx, &cfg)),
        KernelSpec::Sss(m) => Box::new(SymSpmv::from_coo_kind(coo, kind, ctx, m, SymFormat::Sss)?),
        KernelSpec::CsxSym(m) => Box::new(SymSpmv::from_coo_kind(
            coo,
            kind,
            ctx,
            m,
            SymFormat::CsxSym(cfg),
        )?),
        KernelSpec::Hybrid(m) => Box::new(SymSpmv::from_coo_kind(
            coo,
            kind,
            ctx,
            m,
            SymFormat::Hybrid {
                csx: cfg,
                min_coverage: 0.5,
            },
        )?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};

    #[test]
    fn names_round_trip() {
        for spec in KernelSpec::all() {
            assert_eq!(KernelSpec::parse(spec.name()), Some(spec));
        }
        assert_eq!(KernelSpec::parse("nope"), None);
        assert_eq!(KernelSpec::parse("sss-bogus"), None);
        assert_eq!(KernelSpec::parse("csxsym-race"), None);
        assert_eq!(KernelSpec::parse("hybrid-race"), None);
        assert_eq!(KernelSpec::parse("hybrid-naive"), None);
    }

    #[test]
    fn every_parseable_name_builds() {
        // `parse` accepts a name only if its kernel builds — over every
        // format × method spelling, not only the names `all()` produces.
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        let mut names = vec!["csr".to_string(), "csx".to_string()];
        for format in ["sss", "csxsym", "hybrid"] {
            for method in ["naive", "eff", "idx", "race"] {
                names.push(format!("{format}-{method}"));
            }
        }
        let parsed: Vec<KernelSpec> = names.iter().filter_map(|n| KernelSpec::parse(n)).collect();
        assert_eq!(parsed, KernelSpec::all());
        for spec in parsed {
            let k = build_kernel(spec, &coo, &ctx).unwrap();
            assert_eq!(k.name(), spec.name());
        }
    }

    #[test]
    fn every_spec_builds_and_agrees() {
        let coo = symspmv_sparse::gen::banded_random(200, 12, 8.0, 1);
        let x = seeded_vector(200, 4);
        let mut y_ref = vec![0.0; 200];
        let mut c = coo.clone();
        c.canonicalize();
        c.spmv_reference(&x, &mut y_ref);

        let ctx = ExecutionContext::new(3);
        for spec in KernelSpec::all() {
            let mut k = build_kernel(spec, &coo, &ctx).unwrap();
            let mut y = vec![f64::NAN; 200];
            let rounds_before = ctx.pool_rounds();
            k.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
            assert_eq!(k.name(), spec.name());
            // The whole factory sweep runs on the context's single pool:
            // every kernel holds this context, and its spmv shows up on the
            // context's own round counter.
            assert!(Arc::ptr_eq(k.context(), &ctx));
            assert!(ctx.pool_rounds() > rounds_before, "{}", spec.name());
        }
    }
}
