//! End-to-end CG: reorder → build format → solve, for every kernel, on
//! suite analogs — the §V-F pipeline.

use symspmv::core::ReductionMethod;
use symspmv::reorder::rcm::rcm_reorder;
use symspmv::runtime::ExecutionContext;
use symspmv::solver::{cg, CgConfig};
use symspmv::sparse::dense::seeded_vector;
use symspmv::sparse::suite;
use symspmv_harness::kernels::{build_kernel, KernelSpec};

fn check_solution(coo: &symspmv::sparse::CooMatrix, x: &[f64], b: &[f64], tol: f64) {
    let mut c = coo.clone();
    c.canonicalize();
    let mut ax = vec![0.0; b.len()];
    c.spmv_reference(x, &mut ax);
    let err: f64 = ax
        .iter()
        .zip(b)
        .map(|(a, bb)| (a - bb) * (a - bb))
        .sum::<f64>()
        .sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(err <= tol * bn.max(1.0), "true residual {err} vs tol {tol}");
}

#[test]
fn cg_all_formats_on_reordered_suite_matrix() {
    let m = suite::generate(suite::spec_by_name("thermal2").unwrap(), 0.002);
    let coo = rcm_reorder(&m.coo).unwrap();
    let n = coo.nrows() as usize;
    let b = seeded_vector(n, 42);
    let cfg = CgConfig {
        max_iters: 4 * n,
        rel_tol: 1e-8,
        record_history: false,
    };

    let ctx = ExecutionContext::new(4);
    for spec in KernelSpec::figure11_lineup() {
        let mut k = build_kernel(spec, &coo, &ctx).unwrap();
        let mut x = vec![0.0; n];
        let res = cg(&mut *k, &b, &mut x, &cfg);
        assert!(
            res.converged,
            "{} did not converge in {} iters",
            k.name(),
            res.iterations
        );
        check_solution(&coo, &x, &b, 1e-6);
    }
}

#[test]
fn cg_iteration_counts_identical_across_formats() {
    // All formats represent the same operator, so CG must take the same
    // trajectory (up to floating-point roundoff) — a strong equivalence
    // check on the kernels.
    let m = suite::generate(suite::spec_by_name("bmw7st_1").unwrap(), 0.002);
    let n = m.coo.nrows() as usize;
    let b = seeded_vector(n, 1);
    let cfg = CgConfig {
        max_iters: 300,
        rel_tol: 1e-6,
        record_history: true,
    };

    let ctx = ExecutionContext::new(3);
    let mut iters = Vec::new();
    for spec in KernelSpec::figure11_lineup() {
        let mut k = build_kernel(spec, &m.coo, &ctx).unwrap();
        let mut x = vec![0.0; n];
        let res = cg(&mut *k, &b, &mut x, &cfg);
        iters.push((k.name().into_owned(), res.iterations));
    }
    let reference = iters[0].1;
    for (name, it) in &iters {
        assert!(
            (*it as i64 - reference as i64).abs() <= 2,
            "{name} took {it} iterations vs {reference}"
        );
    }
}

#[test]
fn cg_respects_fixed_iteration_budget() {
    let m = suite::generate(suite::spec_by_name("G3_circuit").unwrap(), 0.0008);
    let n = m.coo.nrows() as usize;
    let b = seeded_vector(n, 9);
    let cfg = CgConfig {
        max_iters: 32,
        rel_tol: 0.0,
        record_history: true,
    };
    let ctx = ExecutionContext::new(2);
    let mut k = build_kernel(KernelSpec::Sss(ReductionMethod::Indexing), &m.coo, &ctx).unwrap();
    let mut x = vec![0.0; n];
    let res = cg(&mut *k, &b, &mut x, &cfg);
    assert_eq!(res.iterations, 32);
    assert_eq!(res.history.len(), 33);
}
