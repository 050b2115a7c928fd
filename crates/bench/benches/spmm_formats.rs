//! Batched SpMM throughput per storage format and lane count.
//!
//! Sweeps `k ∈ {1, 2, 4, 8, 16}` right-hand sides for each block-capable
//! format on the suite's scattered matrix (the G3_circuit analog — the
//! conflict-heavy case where amortizing matrix traffic over k vectors
//! pays the most). Row ids are `<format>/k<k>`; the size model scales
//! flops and vector bytes by `k` while the matrix bytes stay fixed, so
//! the ledger's GFLOP/s column directly shows the per-vector speedup:
//! per-vector time is `median / k`.

use symspmv_bench::Target;
use symspmv_core::{BlockKernel, ReductionMethod, SymFormat, SymSpmv};
use symspmv_harness::kernels::experiment_detect_config;
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::block::SUPPORTED_LANES;
use symspmv_sparse::{suite, VectorBlock};

fn main() {
    let ctx = ExecutionContext::new(2);
    let m = suite::generate(suite::spec_by_name("G3_circuit").unwrap(), 0.002);
    let n = m.coo.nrows() as usize;

    let cfg = experiment_detect_config();
    let kernels: Vec<(&str, Box<dyn BlockKernel>)> = vec![
        (
            "csr",
            Box::new(symspmv_core::CsrParallel::from_coo(&m.coo, &ctx)),
        ),
        (
            "sss-idx",
            Box::new(
                SymSpmv::from_coo(&m.coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss).unwrap(),
            ),
        ),
        (
            "csxsym-idx",
            Box::new(
                SymSpmv::from_coo(
                    &m.coo,
                    &ctx,
                    ReductionMethod::Indexing,
                    SymFormat::CsxSym(cfg),
                )
                .unwrap(),
            ),
        ),
    ];

    let mut t = Target::new("spmm_formats");
    for (name, mut k) in kernels {
        let mut g = t.group(format!("spmm_formats/G3_circuit/{name}"));
        g.sample_size(20);
        for &lanes in &SUPPORTED_LANES {
            let mut x = VectorBlock::seeded(n, lanes, 1);
            let mut y = VectorBlock::zeros(n, lanes);
            g.throughput_elements(m.coo.nnz() as u64 * lanes as u64);
            // k vectors share one pass over the matrix: flops and vector
            // traffic scale with k, the storage bytes do not.
            g.model(
                2 * k.nnz_full() as u64 * lanes as u64,
                (k.size_bytes() + 16 * n * lanes) as u64,
            );
            k.reset_times();
            g.bench_function(format!("{name}/k{lanes}"), |b| {
                b.iter(|| {
                    k.spmm(&x, &mut y);
                    std::mem::swap(&mut x, &mut y);
                })
            });
            g.phases_for_last(k.times());
        }
        g.finish();
    }
    t.finish().unwrap();
}
