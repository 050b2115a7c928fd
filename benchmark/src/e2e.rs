//! The untraced run: the end-to-end metrics of one workload.
//!
//! Closed loop, one caller, never more than `threads` busy threads. The
//! measuring time is spent in cycles of one cold time-to-solution followed
//! by a block of multiplies at `threads` and a block at one thread, so every
//! metric samples the whole run rather than its own few seconds of it: the
//! host's speed shifts over seconds, and a metric confined to one window
//! would inherit that window's luck.

use crate::ops::Ops;
use crate::probe;
use crate::report::{Metric, RunResult};
use crate::stats::{summarize, QUIET_QUARTER, QUIET_TAIL};
use crate::workload::{Problem, Workload, CG};
use std::time::Instant;
use symspmv::core::ParallelSpmv;
use symspmv::solver::cg;

/// `end_to_end` of `BENCHMARK.json`, in its order: `(name, unit)`.
pub const METRICS: [(&str, &str); 6] = [
    ("tts_s", "s"),
    ("setup_s", "s"),
    ("spmv_s", "s"),
    ("spmv_p1_s", "s"),
    ("bytes_per_nnz", "B"),
    ("peak_rss_mib", "MiB"),
];

/// Untimed multiplies before the first timed one.
const WARM_UP: usize = 20;
/// Cold repetitions a run makes even when they overrun `--seconds`.
const MIN_CYCLES: usize = 3;
/// Shortest steady-state block, in seconds, and blocks per kernel per cycle.
const MIN_BLOCK: f64 = 0.005;
const ALTERNATIONS: usize = 8;

/// One checked multiply; returns its seconds.
fn spmv_once(kernel: &mut dyn ParallelSpmv, p: &mut Problem) -> Result<f64, String> {
    let t = Instant::now();
    kernel.spmv(&p.b, &mut p.y);
    let secs = t.elapsed().as_secs_f64();
    p.check_y()?;
    Ok(secs)
}

/// Samples checked multiplies for `block` seconds (at least one).
fn spmv_block(
    samples: &mut Vec<f64>,
    block: f64,
    kernel: &mut dyn ParallelSpmv,
    p: &mut Problem,
    ops: &mut Ops,
) {
    let t = Instant::now();
    loop {
        samples.extend(ops.attempt("spmv", || spmv_once(kernel, p)));
        if t.elapsed().as_secs_f64() >= block {
            break;
        }
    }
}

pub fn run(w: &'static Workload, seed: u64, seconds: f64, threads: usize) -> RunResult {
    let mut ops = Ops::new(w.name, seed);
    let jiffies = probe::cpu_jiffies();
    let mut p = Problem::generate(w, seed);

    let (mut tts, mut setup, mut spmv, mut spmv_p1, mut yard) =
        <(Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>)>::default();
    let mut metrics = Vec::new();

    // The long-lived kernels of the steady-state metrics: one on `threads`
    // workers, one on a single worker as the plain serial baseline.
    let warm = ops.attempt("build", || w.build(&p.coo, threads));
    let serial = ops.attempt("build at one thread", || w.build(&p.coo, 1));
    if let (Some((_ctx, mut warm)), Some((_ctx1, mut serial))) = (warm, serial) {
        for _ in 0..WARM_UP {
            ops.attempt("warm-up spmv", || spmv_once(&mut warm, &mut p));
            ops.attempt("warm-up spmv at one thread", || {
                spmv_once(&mut serial, &mut p)
            });
        }

        let started = Instant::now();
        let (mut cycles, mut iterations) = (0, 0);
        while cycles < MIN_CYCLES || started.elapsed().as_secs_f64() < seconds {
            cycles += 1;
            yard.push(p.yard_time());
            let cold = ops.attempt("cold time-to-solution", || {
                p.x.fill(0.0);
                let t = Instant::now();
                let (_ctx, mut kernel) = w.build(&p.coo, threads)?;
                let setup_s = t.elapsed().as_secs_f64();
                let outcome = cg(&mut kernel, &p.b, &mut p.x, &CG);
                let tts_s = t.elapsed().as_secs_f64();
                p.check_solution(&outcome)?;
                iterations = outcome.iterations;
                Ok((setup_s, tts_s))
            });
            // Half the run goes to cold repetitions, a quarter to each
            // steady-state metric — in short alternating blocks: the pool's
            // workers land in a fast or a slow placement each time they
            // are woken after a pause, so many short blocks sample many
            // placements where one long block would sample one.
            let mut block = MIN_BLOCK;
            if let Some((setup_s, tts_s)) = cold {
                setup.push(setup_s);
                tts.push(tts_s);
                block = block.max(tts_s / (2 * ALTERNATIONS) as f64);
            }
            for _ in 0..ALTERNATIONS {
                spmv_block(&mut spmv, block, &mut warm, &mut p, &mut ops);
                spmv_block(&mut spmv_p1, block, &mut serial, &mut p, &mut ops);
            }
        }

        for (name, samples, level) in [
            ("tts_s", &tts, QUIET_QUARTER),
            ("setup_s", &setup, QUIET_QUARTER),
            ("spmv_s", &spmv, QUIET_TAIL),
            ("spmv_p1_s", &spmv_p1, QUIET_TAIL),
        ] {
            metrics.extend(summarize(samples, level).map(|s| Metric::timing(name, s)));
        }
        metrics.push(Metric::plain(
            "bytes_per_nnz",
            "B",
            warm.size_bytes() as f64 / warm.nnz_full() as f64,
        ));
        println!(
            "# kernel {} threads {} n {} nnz {} fingerprint {:#018x} cg_iters {} cold_reps {}",
            warm.name(),
            threads,
            p.n,
            warm.nnz_full(),
            warm.plan().fingerprint,
            iterations,
            cycles
        );
    }
    metrics.extend(
        probe::peak_rss_bytes()
            .map(|bytes| Metric::plain("peak_rss_mib", "MiB", bytes as f64 / (1 << 20) as f64)),
    );
    // Context for the numbers above: what the host did to code that never
    // changes, over the same seconds.
    if let Some(y) = summarize(&yard, QUIET_QUARTER) {
        println!(
            "# yardstick (serial CSR SpMV) quiet quarter {:.4e} s, median {:.4e} s, n {}",
            y.value, y.median, y.n
        );
    }
    if let Some(steal) = probe::steal_frac(jiffies, probe::cpu_jiffies()) {
        println!("# steal {:.2}% of cpu time over the run", 100.0 * steal);
    }
    RunResult {
        workload: w.name.to_string(),
        seed,
        traced: false,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    }
}
