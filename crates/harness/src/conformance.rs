//! Differential conformance oracle: shared helpers for the exhaustive
//! format × strategy × nthreads × lanes equivalence suite
//! (`tests/conformance.rs` at the workspace root).
//!
//! The oracle's reference is the **serial SSS kernel** — the simplest
//! implementation of each symmetry kind's mirror rule, against which
//! every parallel kind/format/strategy/thread-count/lane-count
//! combination is compared on a seeded matrix suite spanning
//! `{symmetric, skew, structural}`. Two conformance classes exist:
//!
//! * **bitwise** — combinations proven to run the serial reference's exact
//!   per-element operation order: the direct-write SSS strategies
//!   (`sss-eff`, `sss-idx`) at one thread. These must match the reference
//!   bit for bit, per lane.
//! * **tolerance** — everything else accumulates in a different (but
//!   fixed) order; results must agree within [`REL_TOL`], the documented
//!   bound for re-associated double-precision sums on the suite's
//!   conditioning (see DESIGN.md §14 for the ULP policy).
//!
//! Failures format a one-line minimal reproducer (matrix constructor,
//! seed, format, thread count, lanes) so a failing combination can be
//! re-run in isolation.

use crate::kernels::KernelSpec;
use std::sync::Arc;
use symspmv_core::{ParallelSpmm, ReductionMethod, SymSpmv};
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::dense::max_rel_diff;
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::{CooMatrix, SparseError, SssMatrix};

/// Relative tolerance for the non-bitwise conformance class: parallel
/// partitioning and format-specific traversal re-associate sums, which for
/// the suite's well-conditioned matrices stays within a few hundred ULPs —
/// orders of magnitude below this bound, which exists to catch *logic*
/// errors (wrong element, wrong lane, lost update), not rounding drift.
pub const REL_TOL: f64 = 1e-12;

/// Thread counts the oracle sweeps.
pub const ORACLE_THREADS: [usize; 4] = [1, 2, 3, 8];

/// Lane counts the oracle sweeps (the full supported set).
pub const ORACLE_LANES: [usize; 5] = [1, 2, 4, 8, 16];

/// One matrix of the seeded conformance suite.
pub struct SuiteMatrix {
    /// Reproducer text for the constructor call.
    pub repro: &'static str,
    /// Seed baked into the constructor (echoed in reproducers).
    pub seed: u64,
    /// The symmetry kind the matrix satisfies (and is validated against
    /// when half-storage kernels are built from it).
    pub kind: SymmetryKind,
    /// The matrix itself (full expanded coordinates, both triangles).
    pub coo: CooMatrix,
}

/// The seeded symmetric matrix suite: a banded matrix (conflicts stay
/// near the partition boundaries), a scattered-bandwidth matrix
/// (conflict-heavy, exercises the indexing path), and a 2-D Laplacian
/// (the paper's model problem family).
pub fn suite() -> Vec<SuiteMatrix> {
    vec![
        SuiteMatrix {
            repro: "gen::banded_random(257, 16, 6.0, 91)",
            seed: 91,
            kind: SymmetryKind::Symmetric,
            coo: symspmv_sparse::gen::banded_random(257, 16, 6.0, 91),
        },
        SuiteMatrix {
            repro: "gen::mixed_bandwidth(301, 7.0, 0.3, 5, 92)",
            seed: 92,
            kind: SymmetryKind::Symmetric,
            coo: symspmv_sparse::gen::mixed_bandwidth(301, 7.0, 0.3, 5, 92),
        },
        SuiteMatrix {
            repro: "gen::laplacian_2d(18, 18)",
            seed: 0,
            kind: SymmetryKind::Symmetric,
            coo: symspmv_sparse::gen::laplacian_2d(18, 18),
        },
    ]
}

/// The full kind-axis suite: the symmetric matrices of [`suite`] plus a
/// skew-symmetric convection operator (zero diagonal, `a_ji = -a_ij`) and
/// a structurally-symmetric matrix (symmetric pattern, independent paired
/// values). Every oracle sweep crosses `{symmetric, skew, structural}`
/// with the full format × thread × lane product.
pub fn full_suite() -> Vec<SuiteMatrix> {
    let mut v = suite();
    v.push(SuiteMatrix {
        repro: "gen::skew_convection(240, 11, 5.0, 93)",
        seed: 93,
        kind: SymmetryKind::Skew,
        coo: symspmv_sparse::gen::skew_convection(240, 11, 5.0, 93),
    });
    v.push(SuiteMatrix {
        repro: "gen::structural_random(263, 6.0, 0.4, 6, 94)",
        seed: 94,
        kind: SymmetryKind::Structural,
        coo: symspmv_sparse::gen::structural_random(263, 6.0, 0.4, 6, 94),
    });
    v
}

/// The formats with a batched (SpMM) path — the oracle's format axis:
/// every buildable spec except the CSX baseline.
pub fn block_specs() -> Vec<KernelSpec> {
    let mut specs = KernelSpec::all();
    specs.retain(|&spec| spec != KernelSpec::Csx);
    specs
}

/// Builds the block-capable kernel for `spec` with the default
/// `Symmetric` kind. Returns `Ok(None)` for specs without a batched path
/// (the factory in [`crate::kernels`] still builds their scalar kernels).
pub fn build_block_kernel(
    spec: KernelSpec,
    coo: &CooMatrix,
    ctx: &Arc<ExecutionContext>,
) -> Result<Option<Box<dyn ParallelSpmm>>, SparseError> {
    build_block_kernel_kind(spec, coo, SymmetryKind::Symmetric, ctx)
}

/// Kind-aware block-kernel factory: the half-storage formats validate
/// `coo` against `kind` and apply its mirror rule; the CSR baseline
/// stores the full matrix and builds identically for every kind (which is
/// what lets it serve as a universal cross-check on the kind kernels).
pub fn build_block_kernel_kind(
    spec: KernelSpec,
    coo: &CooMatrix,
    kind: SymmetryKind,
    ctx: &Arc<ExecutionContext>,
) -> Result<Option<Box<dyn ParallelSpmm>>, SparseError> {
    Ok(match spec.sym_pair() {
        Some((format, method)) => Some(Box::new(SymSpmv::from_coo_kind(
            coo,
            kind,
            ctx,
            method,
            format.to_format(),
        )?)),
        None if spec == KernelSpec::Csr => {
            Some(Box::new(symspmv_core::CsrParallel::from_coo(coo, ctx)))
        }
        None => None,
    })
}

/// Whether `(spec, nthreads)` is in the bitwise conformance class against
/// the serial SSS reference: the direct-write SSS strategies at one thread
/// run the reference's exact per-element op order. The scheduled `sss-race`
/// kernel is *not* in the class even at one thread — its diagonal pre-pass
/// initializes `y[r] = d·x[r]` before the grouped scatter, a different sum
/// order than the reference's fused `d·x[r] + acc` final write.
pub fn is_bitwise_class(spec: KernelSpec, nthreads: usize) -> bool {
    nthreads == 1
        && matches!(
            spec,
            KernelSpec::Sss(ReductionMethod::EffectiveRanges)
                | KernelSpec::Sss(ReductionMethod::Indexing)
        )
}

/// The serial SSS reference result for one input vector (`Symmetric`).
pub fn serial_reference(coo: &CooMatrix, x: &[f64]) -> Vec<f64> {
    serial_reference_kind(coo, SymmetryKind::Symmetric, x)
}

/// The per-kind serial SSS reference: the simplest implementation of the
/// kind's mirror rule (`+v`, `-v`, or the paired upper value), against
/// which every parallel combination of that kind is compared.
pub fn serial_reference_kind(coo: &CooMatrix, kind: SymmetryKind, x: &[f64]) -> Vec<f64> {
    let sss = match SssMatrix::from_coo_kind(coo, kind, 0.0) {
        Ok(s) => s,
        Err(e) => unreachable!("suite matrices satisfy their declared kind: {e}"),
    };
    let mut y = vec![0.0; x.len()];
    sss.spmv(x, &mut y);
    y
}

/// One-line reproducer for a failing combination.
pub fn repro_line(
    matrix: &SuiteMatrix,
    spec: KernelSpec,
    nthreads: usize,
    lanes: usize,
    vec_seed: u64,
) -> String {
    format!(
        "reproduce with: matrix={} (seed {}), kind={}, format={}, nthreads={}, lanes={}, x=VectorBlock::seeded(n, {}, {})",
        matrix.repro,
        matrix.seed,
        matrix.kind.tag(),
        spec.name(),
        nthreads,
        lanes,
        lanes,
        vec_seed
    )
}

/// Compares `got` to the serial reference `want` under the class rules.
/// Returns the failure description (without reproducer) on mismatch.
pub fn check_lane(got: &[f64], want: &[f64], bitwise: bool) -> Result<(), String> {
    if bitwise {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if g.to_bits() != w.to_bits() {
                return Err(format!(
                    "bitwise class: element {i} differs ({g:e} vs {w:e}, \
                     {:#018x} vs {:#018x})",
                    g.to_bits(),
                    w.to_bits()
                ));
            }
        }
        return Ok(());
    }
    let d = max_rel_diff(got, want);
    if d > REL_TOL {
        return Err(format!(
            "tolerance class: max relative difference {d:e} exceeds {REL_TOL:e}"
        ));
    }
    Ok(())
}
