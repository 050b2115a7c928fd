//! The §V-A measurement loop and [`sample`], the one sampler every repeated
//! timing in the harness goes through. It is the benchmark's rule (sides in
//! alternation, fixed rounds, a lower-quartile score with the IQR beside
//! it); `benchmark/src/stats.rs` keeps its own copy for the gate's sides.

use std::time::{Duration, Instant};
use symspmv_core::{ParallelSpmm, ParallelSpmv};
use symspmv_runtime::PhaseTimes;
use symspmv_sparse::dense::seeded_vector;
use symspmv_sparse::VectorBlock;

/// Default iteration count used throughout the paper's evaluation.
pub const DEFAULT_ITERATIONS: usize = 128;

/// Rounds of [`sample`], one timed block per side each: every side of one,
/// two, four or eight goes first equally often.
pub const ROUNDS: usize = 8;

/// What [`sample`] reports for one side, in seconds per block.
#[derive(Debug, Clone, PartialEq)]
pub struct Sampled {
    /// One timing per round, in round order.
    pub samples: Vec<f64>,
    /// The lower quartile, which is the side's score. A shared host's slow
    /// modes only ever add time, so the quiet low end of a handful of
    /// blocks is the signal (the benchmark's `QUIET_QUARTER`).
    pub q1: f64,
    /// The upper quartile; `q1..=q3` is the spread sides are told apart by.
    pub q3: f64,
}

impl Sampled {
    /// The quartiles of `samples`, by the exclusive method of Python's
    /// `statistics.quantiles`, as in `benchmark/src/stats.rs`.
    pub fn new(samples: Vec<f64>) -> Sampled {
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        Sampled {
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            samples,
        }
    }

    /// Whether the two interquartile ranges share a point: the samples
    /// cannot tell the sides apart.
    pub fn overlaps(&self, other: &Sampled) -> bool {
        self.q1 <= other.q3 && other.q1 <= self.q3
    }
}

/// Quantile `p ∈ (0, 1)` of ascending `sorted` (exclusive method, clamped
/// to the sample range); infinite when there are no samples.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(f64::INFINITY);
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    let g = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] * (1.0 - g) + sorted[j] * g
}

/// Times `sides` sides in alternation: `block(i)` runs one block of side
/// `i`. Round `r` starts at side `r % sides` and goes round, so no side
/// always runs first, after whatever ran before the call, or always runs
/// second. One closure serves every side, so a caller indexes its own
/// per-side state by `i`.
pub fn sample(sides: usize, mut block: impl FnMut(usize)) -> Vec<Sampled> {
    let mut times = vec![Vec::with_capacity(ROUNDS); sides];
    for round in 0..ROUNDS {
        for k in 0..sides {
            let side = (round + k) % sides;
            let t0 = Instant::now();
            block(side);
            times[side].push(t0.elapsed().as_secs_f64());
        }
    }
    times.into_iter().map(Sampled::new).collect()
}

/// Result of one measurement: wall time, phase breakdown and throughput.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// SpMV iterations per timed block.
    pub iterations: usize,
    /// Wall time of one block of `iterations` calls: the [`sample`] score.
    pub wall: Duration,
    /// Multiply and reduce phases per block, averaged over the rounds.
    pub times: PhaseTimes,
    /// Sustained throughput in Gflop/s (`2·NNZ·lanes·iters / wall`).
    pub gflops: f64,
}

impl Measurement {
    /// Mean time per SpMV.
    pub fn per_spmv(&self) -> Duration {
        self.wall / self.iterations.max(1) as u32
    }
}

/// Runs the paper's measurement loop: blocks of `iterations` SpMVs with a
/// seeded random input, swapping input and output vectors every iteration,
/// timed by [`sample`].
pub fn measure<K: ParallelSpmv + ?Sized>(kernel: &mut K, iterations: usize) -> Measurement {
    let [m] = measure_each([kernel], iterations);
    m
}

/// [`measure`] for kernels that are compared with each other: each kernel
/// is one side of a single [`sample`] call, so their blocks alternate.
pub fn measure_each<K: ParallelSpmv + ?Sized, const N: usize>(
    kernels: [&mut K; N],
    iterations: usize,
) -> [Measurement; N] {
    let xy = std::array::from_fn(|i| {
        let n = kernels[i].n();
        (seeded_vector(n, 0xFEED), vec![0.0; n])
    });
    measure_steps(kernels, iterations, [1; N], xy, |k, x, y| k.spmv(x, y))
}

/// The batched analog of [`measure_each`]: kernel `i` multiplies a seeded
/// block of `lanes[i]` vectors. `gflops` counts all lanes, so the
/// per-vector benefit of batching shows up directly against a `lanes = 1`
/// side.
pub fn measure_spmm<K: ParallelSpmm + ?Sized, const N: usize>(
    kernels: [&mut K; N],
    iterations: usize,
    lanes: [usize; N],
) -> [Measurement; N] {
    let xy = std::array::from_fn(|i| {
        let n = kernels[i].n();
        (
            VectorBlock::seeded(n, lanes[i], 0xFEED),
            VectorBlock::zeros(n, lanes[i]),
        )
    });
    measure_steps(kernels, iterations, lanes, xy, |k, x, y| k.spmm(x, y))
}

/// The body of [`measure_each`] and [`measure_spmm`]: `step` multiplies
/// `lanes[i]` vectors of `kernels[i]`'s input `xy[i].0` into `xy[i].1`.
fn measure_steps<K: ParallelSpmv + ?Sized, V, const N: usize>(
    mut kernels: [&mut K; N],
    iterations: usize,
    lanes: [usize; N],
    mut xy: [(V, V); N],
    step: impl Fn(&mut K, &V, &mut V),
) -> [Measurement; N] {
    // Warm-up multiply: touches every page and fills caches the same way
    // for every format.
    for (kernel, (x, y)) in kernels.iter_mut().zip(&mut xy) {
        step(kernel, x, y);
        kernel.reset_times();
    }
    let blocks = sample(N, |i| {
        let (x, y) = &mut xy[i];
        for _ in 0..iterations {
            step(kernels[i], x, y);
            std::mem::swap(x, y);
        }
    });
    std::array::from_fn(|i| {
        let (t, wall) = (kernels[i].times(), blocks[i].q1);
        let flops = kernels[i].flops() as f64 * (lanes[i] * iterations) as f64;
        Measurement {
            iterations,
            wall: Duration::from_secs_f64(wall),
            times: PhaseTimes {
                multiply: t.multiply / ROUNDS as u32,
                reduce: t.reduce / ROUNDS as u32,
                ..t
            },
            gflops: flops / wall / 1e9,
        }
    })
}

/// Times a *serial* CSR SpMV (the unit of the §V-E preprocessing-cost
/// metric: "the preprocessing cost amounts to k serial SpM×V operations"):
/// the [`sample`] score of blocks of `iterations` SpMVs, per SpMV.
pub fn serial_csr_spmv_time(csr: &symspmv_sparse::CsrMatrix, iterations: usize) -> Duration {
    let n = csr.nrows() as usize;
    let mut x = seeded_vector(n, 0xBEEF);
    let mut y = vec![0.0; n];
    let blocks = sample(1, |_| {
        for _ in 0..iterations {
            csr.spmv(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
        }
    });
    Duration::from_secs_f64(blocks[0].q1 / iterations.max(1) as f64)
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

    #[test]
    fn sides_alternate_which_goes_first() {
        let mut order = String::new();
        let blocks = sample(2, |side| order.push(if side == 0 { 'A' } else { 'B' }));
        // A,B then B,A, round after round.
        assert_eq!(order, "ABBA".repeat(ROUNDS / 2));
        assert!(blocks
            .iter()
            .all(|b| b.samples.len() == ROUNDS && b.q1 <= b.q3));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        let s = Sampled::new(v.into_iter().rev().collect());
        assert_eq!((s.q1, s.q3), (2.75, 8.25));
    }

    #[test]
    fn a_tie_is_an_overlap_of_interquartile_ranges() {
        let a = Sampled::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert!(a.overlaps(&Sampled::new(vec![3.0, 4.0, 5.0, 6.0])));
        assert!(!a.overlaps(&Sampled::new(vec![5.0, 6.0, 7.0, 8.0])));
    }
}
