//! Buffer-arena reuse must be invisible to results: repeated `spmv` calls
//! through one [`ExecutionContext`] lease recycled local vectors from the
//! arena, and must produce bit-identical output to a freshly built kernel
//! (whose arena has never been used), for every reduction strategy.

use symspmv::core::{ParallelSpmv, ReductionMethod, SymFormat, SymSpmv};
use symspmv::runtime::ExecutionContext;
use symspmv::sparse::dense::seeded_vector;

const METHODS: [ReductionMethod; 3] = [
    ReductionMethod::Naive,
    ReductionMethod::EffectiveRanges,
    ReductionMethod::Indexing,
];

#[test]
fn consecutive_spmv_calls_bit_identical_to_fresh_kernel() {
    let coo = symspmv::sparse::gen::banded_random(700, 18, 7.0, 21);
    let n = 700;
    let x = seeded_vector(n, 13);

    for method in METHODS {
        // Shared context: the second call re-leases the buffers the first
        // call returned to the arena.
        let ctx = ExecutionContext::new(4);
        let mut k = SymSpmv::from_coo(&coo, &ctx, method, SymFormat::Sss).unwrap();
        let mut y1 = vec![0.0; n];
        k.spmv(&x, &mut y1);
        let free_after_first = ctx.stats().arena_free_buffers;
        let mut y2 = vec![f64::NAN; n];
        k.spmv(&x, &mut y2);
        // The second call drew from the arena instead of growing it.
        assert_eq!(
            ctx.stats().arena_free_buffers,
            free_after_first,
            "{method:?}: arena grew"
        );

        // Fresh context and kernel: first-ever lease, brand-new buffers.
        let fresh_ctx = ExecutionContext::new(4);
        let mut fresh = SymSpmv::from_coo(&coo, &fresh_ctx, method, SymFormat::Sss).unwrap();
        let mut y_fresh = vec![0.0; n];
        fresh.spmv(&x, &mut y_fresh);

        for i in 0..n {
            assert_eq!(y1[i], y2[i], "{method:?}: reuse changed row {i}");
            assert_eq!(
                y1[i].to_bits(),
                y_fresh[i].to_bits(),
                "{method:?}: recycled buffers diverge from fresh kernel at row {i}"
            );
        }
    }
}

#[test]
fn arena_shared_across_kernels_of_different_methods() {
    // Kernels with different strategies on one context lease from the same
    // arena; interleaving them must not leak state between calls.
    let coo = symspmv::sparse::gen::banded_random(400, 12, 6.0, 7);
    let n = 400;
    let x = seeded_vector(n, 3);
    let ctx = ExecutionContext::new(3);

    let mut kernels: Vec<SymSpmv> = METHODS
        .iter()
        .map(|&m| SymSpmv::from_coo(&coo, &ctx, m, SymFormat::Sss).unwrap())
        .collect();

    let mut first = Vec::new();
    for k in kernels.iter_mut() {
        let mut y = vec![0.0; n];
        k.spmv(&x, &mut y);
        first.push(y);
    }
    // Second round interleaved in reverse order, leasing recycled buffers.
    for (idx, k) in kernels.iter_mut().enumerate().rev() {
        let mut y = vec![f64::NAN; n];
        k.spmv(&x, &mut y);
        for i in 0..n {
            assert_eq!(
                y[i].to_bits(),
                first[idx][i].to_bits(),
                "kernel {idx}, row {i}"
            );
        }
    }
}
