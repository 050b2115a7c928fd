//! Multithreaded unsymmetric CSX SpMV — the CSX baseline of Fig. 11/12.
//!
//! As in the original system, the matrix is split row-wise per thread and
//! each partition is detected/encoded independently, so every thread owns
//! a private ctl/values stream and writes only its own output rows.

use crate::shared::SharedBuf;
use crate::traits::{per_share, ParallelSpmv};
use std::borrow::Cow;
use std::sync::Arc;
use symspmv_csx::detect::DetectConfig;
use symspmv_csx::matrix::{spmv_stream, CsxMatrix};
use symspmv_csx::rows::RowView;
use symspmv_runtime::timing::time_into;
use symspmv_runtime::{
    balanced_ranges, partition::csr_row_weights, ExecutionContext, PhaseTimes, Range,
};
use symspmv_sparse::{CooMatrix, CsrMatrix, Val};

/// A row-partitioned CSX matrix bound to an execution context.
pub struct CsxParallel {
    n: usize,
    nnz: usize,
    parts: Vec<Range>,
    chunks: Vec<CsxMatrix>,
    ctx: Arc<ExecutionContext>,
    times: PhaseTimes,
}

impl CsxParallel {
    /// Encodes `coo` into per-thread CSX chunks, chunk `i` on share `i` of
    /// one `ctx` round; a share that panics leaves its chunk to the caller,
    /// so the chunks are the serial ones (preprocessing is timed into the
    /// `preprocess` phase, cf. §V-E).
    pub fn from_coo(coo: &CooMatrix, ctx: &Arc<ExecutionContext>, config: &DetectConfig) -> Self {
        let csr = CsrMatrix::from_coo(coo);
        let parts = balanced_ranges(&csr_row_weights(csr.rowptr()), ctx.nthreads());
        crate::plan::debug_certify_rows(csr.nrows(), &parts, "csx-mt");

        let mut times = PhaseTimes::new();
        let view = RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind());
        let chunks = time_into(&mut times.preprocess, || {
            per_share(ctx, parts.len(), |i| {
                let rows = view.slice(parts[i].start..parts[i].end);
                CsxMatrix::from_rows(csr.nrows(), rows, csr.values(), config)
            })
        });

        CsxParallel {
            n: csr.nrows() as usize,
            nnz: csr.nnz(),
            parts,
            chunks,
            ctx: Arc::clone(ctx),
            times,
        }
    }

    /// Aggregate substructure coverage across chunks.
    pub fn coverage(&self) -> f64 {
        let covered: f64 = self
            .chunks
            .iter()
            .map(|m| m.stats().coverage * m.nnz() as f64)
            .sum();
        covered / self.nnz.max(1) as f64
    }
}

impl ParallelSpmv for CsxParallel {
    fn spmv(&mut self, x: &[Val], y: &mut [Val]) {
        assert_eq!(y.len(), self.n);
        let buf = SharedBuf::new(y);
        let parts = &self.parts;
        let chunks = &self.chunks;
        time_into(&mut self.times.multiply, || {
            self.ctx.run(&|tid| {
                let part = parts[tid];
                if part.is_empty() {
                    return;
                }
                // SAFETY(cert: disjoint-direct): partitions tile 0..N
                // disjointly; the chunk's elements all have rows inside
                // this partition, so even though the kernel receives the
                // full-length view it only ever writes our rows.
                unsafe {
                    buf.range_mut(part.start as usize, part.end as usize)
                        .fill(0.0);
                    spmv_stream(chunks[tid].stream(), x, buf.full_mut());
                }
            });
        });
    }

    fn n(&self) -> usize {
        self.n
    }

    fn nnz_full(&self) -> usize {
        self.nnz
    }

    fn size_bytes(&self) -> usize {
        self.chunks.iter().map(|m| m.stats().size_bytes).sum()
    }

    fn times(&self) -> PhaseTimes {
        self.times
    }

    fn reset_times(&mut self) {
        self.times = PhaseTimes::new();
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("csx")
    }

    fn context(&self) -> &Arc<ExecutionContext> {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_sparse::dense::{assert_vec_close, seeded_vector};
    use symspmv_sparse::CsrMatrix;

    fn cfg() -> DetectConfig {
        DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let coo = symspmv_sparse::gen::banded_random(500, 25, 9.0, 4);
        let csr = CsrMatrix::from_coo(&coo);
        let x = seeded_vector(500, 6);
        let mut y_ref = vec![0.0; 500];
        csr.spmv(&x, &mut y_ref);
        for p in [1, 2, 5, 8] {
            let ctx = ExecutionContext::new(p);
            let mut k = CsxParallel::from_coo(&coo, &ctx, &cfg());
            let mut y = vec![f64::NAN; 500];
            k.spmv(&x, &mut y);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn preprocessing_time_recorded() {
        let coo = symspmv_sparse::gen::block_structural(80, 3, 8.0, 16, 1);
        let k = CsxParallel::from_coo(&coo, &ExecutionContext::new(4), &cfg());
        assert!(k.times().preprocess > std::time::Duration::ZERO);
        assert!(k.coverage() > 0.3);
    }

    /// The chunks `from_coo` encodes for `p` threads, encoded serially.
    fn serial_chunks(coo: &CooMatrix, p: usize) -> Vec<CsxMatrix> {
        let csr = CsrMatrix::from_coo(coo);
        let view = RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind());
        let parts = balanced_ranges(&csr_row_weights(csr.rowptr()), p);
        let rows = |p: &Range| view.slice(p.start..p.end);
        let chunk = |p| CsxMatrix::from_rows(csr.nrows(), rows(p), csr.values(), &cfg());
        parts.iter().map(chunk).collect()
    }

    #[test]
    fn pooled_chunks_are_the_serial_chunks() {
        let matrices = [
            symspmv_sparse::gen::block_structural(60, 3, 8.0, 12, 2),
            symspmv_sparse::gen::banded_random(300, 20, 7.0, 3),
            // Nine rows: at p = 8 some partitions are empty.
            symspmv_sparse::gen::laplacian_2d(3, 3),
        ];
        for p in [1, 2, 3, 8] {
            let ctx = ExecutionContext::new(p);
            for (i, coo) in matrices.iter().enumerate() {
                let k = CsxParallel::from_coo(coo, &ctx, &cfg());
                assert_eq!(k.chunks, serial_chunks(coo, p), "matrix {i} p={p}");
            }
            assert!(ctx.take_last_panic().is_none());
        }
    }

    #[test]
    fn a_share_killed_in_the_encode_round_is_re_encoded_on_the_caller() {
        let coo = symspmv_sparse::gen::block_structural(60, 3, 8.0, 12, 5);
        let ctx = ExecutionContext::new(2);
        let failures = ctx.health_state().failures();
        ctx.fault_plan().arm_worker_panic(1, 0);
        let mut k = CsxParallel::from_coo(&coo, &ctx, &cfg());
        assert_eq!(ctx.fault_plan().fired(), 1);
        assert_eq!(ctx.health_state().failures(), failures + 1);
        assert_eq!(k.chunks, serial_chunks(&coo, 2));
        // The pool serves the multiply after the fault.
        let n = coo.nrows() as usize;
        let x = seeded_vector(n, 4);
        let (mut y, mut y_ref) = (vec![0.0; n], vec![0.0; n]);
        k.spmv(&x, &mut y);
        CsrMatrix::from_coo(&coo).spmv(&x, &mut y_ref);
        assert_vec_close(&y, &y_ref, 1e-12);
    }

    #[test]
    fn compresses_block_matrices() {
        let coo = symspmv_sparse::gen::block_structural(100, 3, 10.0, 20, 2);
        let k = CsxParallel::from_coo(&coo, &ExecutionContext::new(2), &cfg());
        let csr = CsrMatrix::from_coo(&coo);
        assert!(k.size_bytes() < csr.size_bytes());
    }
}
