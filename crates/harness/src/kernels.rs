//! Kernel factory: builds any evaluated format+method combination from a
//! symmetric COO matrix.

use std::sync::Arc;
use symspmv_core::sym::{pair_name, unsupported_pair};
use symspmv_core::{CsrParallel, CsxParallel, FormatTag, ParallelSpmv, ReductionMethod, SymSpmv};
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
}

impl KernelSpec {
    /// The `(format, method)` pair of a symmetric spec (`None` for the
    /// unsymmetric baselines) — the one mapping both kernel factories build
    /// [`SymSpmv`] through, with [`FormatTag::to_format`]'s default detection
    /// configuration.
    pub(crate) fn sym_pair(self) -> Option<(FormatTag, ReductionMethod)> {
        match self {
            KernelSpec::Csr | KernelSpec::Csx => None,
            KernelSpec::Sss(m) => Some((FormatTag::Sss, m)),
            KernelSpec::CsxSym(m) => Some((FormatTag::CsxSym, m)),
        }
    }

    /// Spec name matching the kernels' `name()` output. Static — report
    /// loops over lineups never allocate for names.
    pub fn name(&self) -> &'static str {
        match self.sym_pair() {
            Some((format, method)) => pair_name(format, method),
            None if *self == KernelSpec::Csx => "csx",
            None => "csr",
        }
    }

    /// Parses a spec name: the inverse of [`KernelSpec::name`] over
    /// [`KernelSpec::all`], so a name parses exactly when its kernel builds
    /// (`csxsym-race` does not).
    pub fn parse(s: &str) -> Option<KernelSpec> {
        Self::all().into_iter().find(|spec| spec.name() == s)
    }

    /// Every buildable configuration — the one list the self-checks
    /// (`experiments verify`, the equivalence and adversarial suites)
    /// sweep, so a kernel cannot drop out of one of them unnoticed: the two
    /// baselines, then every symmetric pair [`unsupported_pair`] lets build.
    pub fn all() -> Vec<KernelSpec> {
        let mut all = vec![KernelSpec::Csr, KernelSpec::Csx];
        for format in [KernelSpec::Sss, KernelSpec::CsxSym] {
            all.extend(ReductionMethod::ALL.map(format));
        }
        all.retain(|spec| {
            spec.sym_pair()
                .is_none_or(|(format, method)| unsupported_pair(format, method).is_none())
        });
        all
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
/// experiments (and by [`FormatTag::to_format`]): the defaults — a
/// statistics pass on a 5 % row sample
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
    Ok(match spec.sym_pair() {
        Some((format, method)) => Box::new(SymSpmv::from_coo_kind(
            coo,
            kind,
            ctx,
            method,
            format.to_format(),
        )?),
        None if spec == KernelSpec::Csx => {
            Box::new(CsxParallel::from_coo(coo, ctx, &experiment_detect_config()))
        }
        None => Box::new(CsrParallel::from_coo(coo, ctx)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};

    #[test]
    fn names_round_trip() {
        let all = KernelSpec::all();
        assert_eq!(all.len(), 9, "2 baselines + 7 buildable symmetric pairs");
        for spec in all {
            assert_eq!(KernelSpec::parse(spec.name()), Some(spec));
        }
        assert_eq!(KernelSpec::parse("nope"), None);
        assert_eq!(KernelSpec::parse("sss-bogus"), None);
    }

    #[test]
    fn every_parseable_name_builds() {
        // "Which pairs build and what they are called" has one spelling: for
        // every format × method, `PlanSpec::is_valid` ⇔ `try_from_coo` is
        // `Ok` ⇔ the pair's name parses ⇔ the factory builds a kernel that
        // reports exactly that name.
        use symspmv_core::PlanSpec;
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(2);
        let mut buildable = 0;
        for (format, spec_of) in [
            (
                FormatTag::Sss,
                KernelSpec::Sss as fn(ReductionMethod) -> KernelSpec,
            ),
            (FormatTag::CsxSym, KernelSpec::CsxSym),
        ] {
            for method in ReductionMethod::ALL {
                let spec = spec_of(method);
                let name = spec.name();
                assert_eq!(name, format!("{}-{}", format.tag(), method.tag()));
                let valid = PlanSpec {
                    format,
                    method,
                    nthreads: 2,
                }
                .is_valid();
                let built = SymSpmv::try_from_coo(&coo, &ctx, method, format.to_format());
                assert_eq!(built.is_ok(), valid, "{name}");
                assert_eq!(KernelSpec::parse(name).is_some(), valid, "{name}");
                match build_kernel(spec, &coo, &ctx) {
                    Ok(k) => assert_eq!(k.name(), name),
                    Err(e) => assert!(
                        !valid && matches!(e, SparseError::InvalidArgument { .. }),
                        "{name}: {e}"
                    ),
                }
                buildable += usize::from(valid);
            }
        }
        assert_eq!(buildable, 7);
        for baseline in [KernelSpec::Csr, KernelSpec::Csx] {
            let k = build_kernel(baseline, &coo, &ctx).unwrap();
            assert_eq!(k.name(), baseline.name());
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
