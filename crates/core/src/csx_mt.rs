//! Multithreaded unsymmetric CSX SpMV — the CSX baseline of Fig. 11/12.
//!
//! As in the original system, the matrix is split row-wise per thread and
//! each partition is detected/encoded independently, so every thread owns
//! a private ctl/values stream and writes only its own output rows.

use crate::shared::SharedBuf;
use crate::traits::ParallelSpmv;
use std::borrow::Cow;
use std::sync::Arc;
use symspmv_csx::detect::DetectConfig;
use symspmv_csx::matrix::{spmv_stream, CsxMatrix};
use symspmv_csx::rows::{coo_rowptr, RowView};
use symspmv_runtime::timing::time_into;
use symspmv_runtime::{balanced_ranges, ExecutionContext, PhaseTimes, Range};
use symspmv_sparse::{CooMatrix, Val};

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
    /// Encodes `coo` into per-thread CSX chunks (preprocessing is timed
    /// into the `preprocess` phase, cf. §V-E).
    pub fn from_coo(coo: &CooMatrix, ctx: &Arc<ExecutionContext>, config: &DetectConfig) -> Self {
        let nthreads = ctx.nthreads();
        let mut c = coo.clone();
        c.canonicalize();
        // Row weights from the canonical triplets' row pointers.
        let rowptr = coo_rowptr(&c);
        let weights: Vec<u64> = rowptr
            .windows(2)
            .map(|w| u64::from(w[1] - w[0]) + 1)
            .collect();
        let parts = balanced_ranges(&weights, nthreads);
        crate::plan::debug_certify_rows(c.nrows(), &parts, "csx-mt");

        let mut times = PhaseTimes::new();
        let chunks = time_into(&mut times.preprocess, || {
            parts
                .iter()
                .map(|p| {
                    let rows = RowView::of_coo(&c, &rowptr).slice(p.start..p.end);
                    CsxMatrix::from_rows(c.nrows(), rows, c.values(), config)
                })
                .collect::<Vec<_>>()
        });

        CsxParallel {
            n: c.nrows() as usize,
            nnz: c.nnz(),
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

    #[test]
    fn compresses_block_matrices() {
        let coo = symspmv_sparse::gen::block_structural(100, 3, 10.0, 20, 2);
        let k = CsxParallel::from_coo(&coo, &ExecutionContext::new(2), &cfg());
        let csr = CsrMatrix::from_coo(&coo);
        assert!(k.size_bytes() < csr.size_bytes());
    }
}
