//! The §V-A measurement loop.

use std::time::{Duration, Instant};
use symspmv_core::{ParallelSpmm, ParallelSpmv};
use symspmv_runtime::PhaseTimes;
use symspmv_sparse::dense::seeded_vector;
use symspmv_sparse::VectorBlock;

/// Default iteration count used throughout the paper's evaluation.
pub const DEFAULT_ITERATIONS: usize = 128;

/// Result of one measurement: wall time, phase breakdown and throughput.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Kernel name.
    pub kernel: String,
    /// Worker threads.
    pub nthreads: usize,
    /// SpMV iterations executed.
    pub iterations: usize,
    /// Total wall-clock time of the loop.
    pub wall: Duration,
    /// Phase breakdown accumulated by the kernel during the loop.
    pub times: PhaseTimes,
    /// Sustained throughput in Gflop/s (`2·NNZ·iters / wall`).
    pub gflops: f64,
    /// Storage size of the format in bytes.
    pub size_bytes: usize,
}

impl Measurement {
    /// Mean time per SpMV.
    pub fn per_spmv(&self) -> Duration {
        self.wall / self.iterations.max(1) as u32
    }
}

/// Repetitions of the measurement loop; the best (minimum-wall) repetition
/// is reported, which suppresses scheduler noise on shared machines.
pub const MEASURE_REPEATS: usize = 3;

/// Runs the paper's measurement loop: `iterations` SpMVs with a seeded
/// random input, swapping input and output vectors every iteration.
///
/// The loop is repeated [`MEASURE_REPEATS`] times and the fastest
/// repetition wins (best-of-N timing).
pub fn measure<K: ParallelSpmv + ?Sized>(kernel: &mut K, iterations: usize) -> Measurement {
    let n = kernel.n();
    let mut x = seeded_vector(n, 0xFEED);
    let mut y = vec![0.0; n];
    measure_steps(kernel, iterations, 1, |k| {
        k.spmv(&x, &mut y);
        std::mem::swap(&mut x, &mut y);
    })
}

/// The batched analog of [`measure`]: `iterations` SpMMs over a seeded
/// `lanes`-wide block, swapping input and output blocks every iteration.
/// `gflops` counts all lanes (`2·NNZ·lanes·iters / wall`), so the
/// per-vector benefit of batching shows up directly against the scalar
/// [`measure`] number for the same kernel.
pub fn measure_spmm<K: ParallelSpmm + ?Sized>(
    kernel: &mut K,
    iterations: usize,
    lanes: usize,
) -> Measurement {
    let n = kernel.n();
    let mut x = VectorBlock::seeded(n, lanes, 0xFEED);
    let mut y = VectorBlock::zeros(n, lanes);
    measure_steps(kernel, iterations, lanes, |k| {
        k.spmm(&x, &mut y);
        std::mem::swap(&mut x, &mut y);
    })
}

/// The body of [`measure`] and [`measure_spmm`]: `step` is one multiply
/// plus the input/output swap, `lanes` the vectors it multiplies at once.
fn measure_steps<K: ParallelSpmv + ?Sized>(
    kernel: &mut K,
    iterations: usize,
    lanes: usize,
    mut step: impl FnMut(&mut K),
) -> Measurement {
    // Warm-up pass: touches every page and fills caches the same way for
    // every format; remember the one-time preprocessing clock.
    step(kernel);
    let preprocess = kernel.times().preprocess;

    let mut best = (Duration::MAX, PhaseTimes::default());
    for _ in 0..MEASURE_REPEATS.max(1) {
        kernel.reset_times();
        let t0 = Instant::now();
        for _ in 0..iterations {
            step(kernel);
        }
        let wall = t0.elapsed();
        if wall < best.0 {
            best = (wall, kernel.times());
        }
    }
    let (wall, mut times) = best;
    times.preprocess = preprocess;
    let flops = kernel.flops() as f64 * lanes as f64 * iterations as f64;
    Measurement {
        kernel: kernel.name().into_owned(),
        nthreads: kernel.nthreads(),
        iterations,
        wall,
        times,
        gflops: flops / wall.as_secs_f64() / 1e9,
        size_bytes: kernel.size_bytes(),
    }
}

/// Times a *serial* CSR SpMV (the unit of the §V-E preprocessing-cost
/// metric: "the preprocessing cost amounts to k serial SpM×V operations").
pub fn serial_csr_spmv_time(csr: &symspmv_sparse::CsrMatrix, iterations: usize) -> Duration {
    let n = csr.nrows() as usize;
    let mut x = seeded_vector(n, 0xBEEF);
    let mut y = vec![0.0; n];
    csr.spmv(&x, &mut y); // warm-up
    std::mem::swap(&mut x, &mut y);
    let t0 = Instant::now();
    for _ in 0..iterations {
        csr.spmv(&x, &mut y);
        std::mem::swap(&mut x, &mut y);
    }
    t0.elapsed() / iterations.max(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_core::CsrParallel;
    use symspmv_runtime::ExecutionContext;
    use symspmv_sparse::CsrMatrix;

    #[test]
    fn measurement_produces_sane_numbers() {
        let coo = symspmv_sparse::gen::laplacian_2d(40, 40);
        let ctx = ExecutionContext::new(2);
        let mut k = CsrParallel::from_coo(&coo, &ctx);
        let m = measure(&mut k, 16);
        assert_eq!(m.iterations, 16);
        assert_eq!(m.kernel, "csr");
        assert_eq!(m.nthreads, 2);
        assert!(m.gflops > 0.0);
        assert!(m.wall > Duration::ZERO);
        assert!(m.per_spmv() <= m.wall);
    }

    #[test]
    fn serial_unit_time_positive() {
        let coo = symspmv_sparse::gen::laplacian_2d(30, 30);
        let csr = CsrMatrix::from_coo(&coo);
        let t = serial_csr_spmv_time(&csr, 8);
        assert!(t > Duration::ZERO);
    }
}
