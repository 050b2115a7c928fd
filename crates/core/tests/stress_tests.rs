//! Cross-layer stress tests for the plan-memoization path: repeated engine
//! builds against one `ExecutionContext` must converge to cache hits, share
//! one certified plan per configuration, and make repeat preprocessing
//! effectively free.

use std::sync::Arc;
use std::time::Duration;
use symspmv_core::sym::{ReductionMethod, SymFormat, SymSpmv};
use symspmv_core::traits::ParallelSpmv;
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::SssMatrix;

fn big_matrix() -> SssMatrix {
    let coo = symspmv_sparse::gen::banded_random(3000, 30, 14.0, 11);
    SssMatrix::from_coo(&coo, 0.0).unwrap()
}

/// Satellite: the second build of the same (matrix, nthreads, strategy)
/// configuration hits the plan cache — same `Arc`, hit counter moves, and
/// the repeat preprocess phase is far cheaper than the first (the symbolic
/// analysis, partitioning and certification all ran exactly once).
#[test]
fn repeat_build_hits_plan_cache_and_skips_preprocessing() {
    let sss = big_matrix();
    // Populate the memoized fingerprint before cloning: every clone below
    // carries it, so repeat builds don't even re-walk the structure for
    // the cache key.
    let _ = sss.fingerprint();
    let ctx = ExecutionContext::new(4);

    let first = SymSpmv::from_sss(sss.clone(), &ctx, ReductionMethod::Indexing, SymFormat::Sss);
    let misses = ctx.stats().plan_cache_misses;
    let t_first = first.times().preprocess;
    assert!(t_first > Duration::ZERO);

    let second = SymSpmv::from_sss(sss.clone(), &ctx, ReductionMethod::Indexing, SymFormat::Sss);
    let t_second = second.times().preprocess;

    assert!(
        Arc::ptr_eq(first.plan(), second.plan()),
        "second build must reuse the cached plan"
    );
    assert!(ctx.stats().plan_cache_hits >= 1);
    assert_eq!(
        ctx.stats().plan_cache_misses,
        misses,
        "second build must not miss"
    );
    // A cache hit is a map lookup; the first build ran the O(nnz) symbolic
    // analysis plus certification. An order of magnitude of slack keeps
    // this robust on noisy machines while still failing if memoization
    // silently stops working.
    assert!(
        t_second * 5 < t_first,
        "repeat preprocess not amortized: first={t_first:?} second={t_second:?}"
    );
}

/// Many engines, three strategies, one context: the cache holds one plan
/// per strategy (plus the shared partition entry) no matter how many
/// engines are built, and every plan of a strategy is the same `Arc`.
#[test]
fn many_builds_share_plans_per_strategy() {
    let sss = big_matrix();
    let ctx = ExecutionContext::new(4);
    let methods = [
        ReductionMethod::Naive,
        ReductionMethod::EffectiveRanges,
        ReductionMethod::Indexing,
    ];

    let mut engines = Vec::new();
    for _ in 0..4 {
        for m in methods {
            engines.push(SymSpmv::from_sss(sss.clone(), &ctx, m, SymFormat::Sss));
        }
    }
    // 3 strategy plans + 1 shared "parts" entry.
    assert_eq!(ctx.stats().plan_cache_len, 4);
    for group in engines.chunks(3).skip(1) {
        for (engine, reference) in group.iter().zip(&engines[..3]) {
            assert!(Arc::ptr_eq(engine.plan(), reference.plan()));
        }
    }
    // The shared partition: every strategy's plan points at the same Arc.
    assert!(Arc::ptr_eq(
        &engines[0].plan().parts,
        &engines[2].plan().parts
    ));

    // All engines still compute the right thing.
    let n = sss.n() as usize;
    let x = symspmv_sparse::dense::seeded_vector(n, 3);
    let mut y_ref = vec![0.0; n];
    sss.spmv(&x, &mut y_ref);
    for engine in engines.iter_mut().take(3) {
        let mut y = vec![f64::NAN; n];
        engine.spmv(&x, &mut y);
        symspmv_sparse::dense::assert_vec_close(&y, &y_ref, 1e-12);
    }
}
