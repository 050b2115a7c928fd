//! Multithreaded CSR SpMV — the baseline of every figure in §V.
//!
//! Rows are partitioned contiguously with non-zero balancing; each thread
//! computes its own row range, so output writes are trivially disjoint and
//! no reduction phase exists. One row body, generic over the lane count,
//! serves `spmv` (`K = 1`) and every `spmm` lane width.

use crate::shared::SharedBuf;
use crate::sym::lane_rows;
use crate::traits::{ParallelSpmm, ParallelSpmv};
use std::borrow::Cow;
use std::sync::Arc;
use symspmv_runtime::timing::time_into;
use symspmv_runtime::{
    balanced_ranges, partition::csr_row_weights, ExecutionContext, PhaseTimes, Range,
};
use symspmv_sparse::block::{axpy_lanes, VectorBlock};
use symspmv_sparse::{with_lanes, CooMatrix, CsrMatrix, Val};

/// A CSR matrix bound to an execution context and a static row partition.
pub struct CsrParallel {
    csr: CsrMatrix,
    parts: Vec<Range>,
    ctx: Arc<ExecutionContext>,
    times: PhaseTimes,
}

impl CsrParallel {
    /// Builds the kernel from a CSR matrix on the given context's workers.
    pub fn new(csr: CsrMatrix, ctx: &Arc<ExecutionContext>) -> Self {
        let weights = csr_row_weights(csr.rowptr());
        let parts = balanced_ranges(&weights, ctx.nthreads());
        crate::plan::debug_certify_rows(csr.nrows(), &parts, "csr-mt");
        CsrParallel {
            csr,
            parts,
            ctx: Arc::clone(ctx),
            times: PhaseTimes::new(),
        }
    }

    /// Builds the kernel from a COO matrix.
    pub fn from_coo(coo: &CooMatrix, ctx: &Arc<ExecutionContext>) -> Self {
        Self::new(CsrMatrix::from_coo(coo), ctx)
    }

    /// The row partition in use.
    pub fn partitions(&self) -> &[Range] {
        &self.parts
    }

    /// Immutable access to the underlying CSR matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.csr
    }

    /// The row body over `K`-lane-interleaved `x` and `y`: `spmv` is the
    /// `K = 1` instance, `spmm` enters through `with_lanes!`. Each lane runs
    /// the scalar order (`acc = 0`, then `acc += v·x[c]` per non-zero), so
    /// lane `j` of a block call is bit-identical to `spmv` on lane `j`.
    ///
    /// The `x` gather is unchecked: every stored column is below `ncols`,
    /// and `x` is asserted to hold exactly `ncols` lane groups.
    fn run<const K: usize>(&mut self, x: &[Val], y: &mut [Val]) {
        let x = x.as_chunks::<K>().0;
        let csr = &self.csr;
        assert_eq!(x.len(), csr.ncols() as usize);
        let buf = SharedBuf::new(y);
        let parts = &self.parts;
        time_into(&mut self.times.multiply, || {
            self.ctx.run(&|tid| {
                let part = parts[tid];
                if part.is_empty() {
                    return;
                }
                // SAFETY(cert: disjoint-direct): partitions tile 0..N
                // disjointly (certify_rows, debug-asserted at build).
                let my_y = unsafe { lane_rows::<K>(&buf, part.start as usize, part.end as usize) };
                // The arrays are taken once and the rows walked by `rowptr`
                // alone, as in the SSS body; `my_y[i]` is row `start + i`.
                let (rowptr, colind, values) = (csr.rowptr(), csr.colind(), csr.values());
                let mut lo = rowptr[part.start as usize] as usize;
                for (r, yr) in (part.start as usize..).zip(my_y) {
                    let hi = rowptr[r + 1] as usize;
                    let mut acc = [0.0; K];
                    for (&c, &v) in colind[lo..hi].iter().zip(&values[lo..hi]) {
                        // SAFETY(cert: col-bound): c < ncols == x.len().
                        axpy_lanes(&mut acc, v, unsafe { x.get_unchecked(c as usize) });
                    }
                    *yr = acc;
                    lo = hi;
                }
            });
        });
    }
}

impl ParallelSpmv for CsrParallel {
    fn spmv(&mut self, x: &[Val], y: &mut [Val]) {
        assert_eq!(x.len(), self.csr.ncols() as usize);
        assert_eq!(y.len(), self.csr.nrows() as usize);
        self.run::<1>(x, y);
    }

    fn n(&self) -> usize {
        self.csr.nrows() as usize
    }

    fn nnz_full(&self) -> usize {
        self.csr.nnz()
    }

    fn size_bytes(&self) -> usize {
        self.csr.size_bytes()
    }

    fn times(&self) -> PhaseTimes {
        self.times
    }

    fn reset_times(&mut self) {
        self.times = PhaseTimes::new();
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("csr")
    }

    fn context(&self) -> &Arc<ExecutionContext> {
        &self.ctx
    }
}

impl ParallelSpmm for CsrParallel {
    fn spmm(&mut self, x: &VectorBlock, y: &mut VectorBlock) {
        assert_eq!(x.n(), self.csr.ncols() as usize);
        assert_eq!(y.n(), self.csr.nrows() as usize);
        assert_eq!(x.lanes(), y.lanes());
        with_lanes!(x.lanes(), K => self.run::<K>(x.as_slice(), y.as_mut_slice()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_sparse::block::SUPPORTED_LANES;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};

    #[test]
    fn parallel_matches_serial() {
        let coo = symspmv_sparse::gen::banded_random(500, 20, 8.0, 3);
        let csr = CsrMatrix::from_coo(&coo);
        let x = seeded_vector(500, 7);
        let mut y_serial = vec![0.0; 500];
        csr.spmv(&x, &mut y_serial);

        for p in [1, 2, 3, 8] {
            let ctx = ExecutionContext::new(p);
            let mut k = CsrParallel::from_coo(&coo, &ctx);
            let mut y = vec![0.0; 500];
            k.spmv(&x, &mut y);
            assert_vec_close(&y, &y_serial, 1e-12);
            assert_eq!(k.nthreads(), p);
        }
    }

    #[test]
    fn repeated_calls_accumulate_time() {
        let coo = symspmv_sparse::gen::laplacian_2d(20, 20);
        let ctx = ExecutionContext::new(2);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let x = seeded_vector(400, 1);
        let mut y = vec![0.0; 400];
        k.spmv(&x, &mut y);
        let t1 = k.times().multiply;
        k.spmv(&x, &mut y);
        assert!(k.times().multiply >= t1);
        k.reset_times();
        assert_eq!(k.times().multiply, std::time::Duration::ZERO);
    }

    #[test]
    fn more_threads_than_rows() {
        let coo = symspmv_sparse::gen::laplacian_2d(2, 2);
        let ctx = ExecutionContext::new(16);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let x = vec![1.0; 4];
        let mut y = vec![0.0; 4];
        let mut y_ref = vec![0.0; 4];
        k.spmv(&x, &mut y);
        CsrMatrix::from_coo(&coo).spmv(&x, &mut y_ref);
        assert_vec_close(&y, &y_ref, 1e-12);
    }

    #[test]
    fn interface_metadata() {
        let coo = symspmv_sparse::gen::laplacian_2d(10, 10);
        let ctx = ExecutionContext::new(2);
        let k = CsrParallel::from_coo(&coo, &ctx);
        assert_eq!(k.n(), 100);
        assert_eq!(k.name(), "csr");
        assert_eq!(k.flops(), 2 * k.nnz_full() as u64);
        assert!(k.size_bytes() > 0);
    }

    #[test]
    fn spmm_lanes_match_independent_spmv() {
        let coo = symspmv_sparse::gen::banded_random(300, 12, 6.0, 11);
        for p in [1, 3] {
            let ctx = ExecutionContext::new(p);
            let mut k = CsrParallel::from_coo(&coo, &ctx);
            for lanes in SUPPORTED_LANES {
                let x = VectorBlock::seeded(300, lanes, 40);
                let mut y = VectorBlock::zeros(300, lanes);
                k.spmm(&x, &mut y);
                for j in 0..lanes {
                    let xj = x.lane(j);
                    let mut yj = vec![0.0; 300];
                    k.spmv(&xj, &mut yj);
                    let got = y.lane(j);
                    assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        yj.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "p={p} lanes={lanes} lane {j} not bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_share_one_pool() {
        let coo = symspmv_sparse::gen::laplacian_2d(8, 8);
        let ctx = ExecutionContext::new(4);
        let mut a = CsrParallel::from_coo(&coo, &ctx);
        let mut b = CsrParallel::from_coo(&coo, &ctx);
        assert!(Arc::ptr_eq(a.context(), &ctx) && Arc::ptr_eq(b.context(), &ctx));
        // Both kernels dispatch on the context's pool: its round counter
        // sees one round per CSR spmv, whichever kernel issued it.
        let x = vec![1.0; 64];
        let mut y = vec![0.0; 64];
        let before = ctx.pool_rounds();
        a.spmv(&x, &mut y);
        b.spmv(&x, &mut y);
        assert_eq!(ctx.pool_rounds(), before + 2);
    }
}
