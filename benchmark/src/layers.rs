//! The traced run: per-layer metrics of one workload.
//!
//! Every call into a library layer is made from here under a span named
//! `<layer>.<call>`; the per-layer timing `<layer>.<call>_s` is the quiet
//! quantile of the spans of that name. The set-up is traced outside-in: the real constructor runs as
//! one `setup` interval, then its steps are replayed through public
//! functions under a sibling `setup_replay`, so the replayed children can
//! be summed against the real interval (`trace.setup_coverage`).

use crate::ops::Ops;
use crate::probe;
use crate::report::{Metric, RunResult};
use crate::stats::{quantile, sorted, summarize, QUIET_QUARTER, QUIET_TAIL};
use crate::trace::Tracer;
use crate::workload::{Problem, Workload, CG, SPMV_TOL};
use std::sync::Arc;
use std::time::Instant;
use symspmv::core::{
    symbolic, ws, CachedSymPlan, CsrParallel, CsxSymMatrix, ParallelSpmm, ParallelSpmv,
    ReductionMethod, SymFormat, SymSpmv, VectorBlock,
};
use symspmv::reorder::level_color_lower;
use symspmv::runtime::partition::symmetric_row_weights;
use symspmv::runtime::{balanced_ranges, ExecutionContext, ReductionStrategy};
use symspmv::solver::{cg, vecops, CgConfig};
use symspmv::sparse::{stats::sss_size_bytes, CooMatrix, CsrMatrix, SssMatrix, SymmetryKind};
use symspmv_verify::{certify_sym_symbolic, StructureFacts, SymPlanRef, SymStrategyKind};

/// `per_layer` of `BENCHMARK.json`, in its order: `(name, unit)`.
pub const METRICS: [(&str, &str); 49] = [
    ("sparse.sss_try_from_coo_s", "s"),
    ("sparse.sss_from_coo_s", "s"),
    ("sparse.csr_from_coo_s", "s"),
    ("sparse.fingerprint_s", "s"),
    ("runtime.ctx_new_s", "s"),
    ("runtime.partition_s", "s"),
    ("runtime.pool_round_s", "s"),
    ("runtime.pool_round_p1_s", "s"),
    ("runtime.lease_s", "s"),
    ("runtime.rounds_per_spmv", "count"),
    ("runtime.rounds_per_cg_iter", "count"),
    ("csx.encode_s", "s"),
    ("csx.coverage", "ratio"),
    ("csx.compression_ratio", "ratio"),
    ("core.plan_cold_s", "s"),
    ("core.plan_warm_s", "s"),
    ("core.conflict_analyze_s", "s"),
    ("core.index_entries", "count"),
    ("core.ws_bytes", "B"),
    ("core.multiply_s", "s"),
    ("core.reduce_s", "s"),
    ("core.reduce_share", "ratio"),
    ("core.csr_spmv_s", "s"),
    ("core.speedup_vs_csr", "ratio"),
    ("core.gbs", "GB/s"),
    ("core.roofline_frac", "ratio"),
    ("core.model_bytes_ratio", "ratio"),
    ("core.spmm8_lane_s", "s"),
    ("verify.structure_facts_s", "s"),
    ("verify.certify_sym_s", "s"),
    ("reorder.level_color_s", "s"),
    ("reorder.color_groups", "count"),
    ("core.race_spmv_s", "s"),
    ("solver.solve_s", "s"),
    ("solver.iters", "count"),
    ("solver.iter_s", "s"),
    ("solver.dot_s", "s"),
    ("solver.axpy_s", "s"),
    ("solver.xpby_s", "s"),
    ("solver.vecops_share", "ratio"),
    ("solver.true_residual", "ratio"),
    ("machine.ncpus", "count"),
    ("machine.llc_bytes", "B"),
    ("machine.triad_gbs", "GB/s"),
    ("machine.yard_s", "s"),
    ("machine.steal_frac", "ratio"),
    ("trace.setup_coverage", "ratio"),
    ("trace.solve_coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Share of `--seconds` given to the traced set-up repetitions.
const SETUP_SHARE: f64 = 0.5;
/// Set-up repetitions and steady-state cycles made even when they overrun.
const MIN_REPS: usize = 2;
/// Seconds, and calls, after which a steady-state block of one call ends.
const BLOCK: f64 = 0.04;
const BLOCK_CALLS: usize = 100;
const WARM_UP: usize = 20;
const LANES: usize = 8;

/// What the set-up repetitions leave behind besides spans.
#[derive(Default)]
struct SetupFacts {
    /// Per repetition: Σ replayed children ÷ the real `setup` interval.
    coverage: Vec<f64>,
    csx_coverage: f64,
    csx_compression: f64,
    index_entries: usize,
    ws_bytes: usize,
}

/// One traced set-up: the real constructor, its replay step by step, and
/// the reference conversions the real path never calls.
fn setup_rep(
    w: &Workload,
    coo: &CooMatrix,
    threads: usize,
    tr: &mut Tracer,
    facts: &mut SetupFacts,
) -> Result<(), String> {
    let setup = tr.begin("setup");
    let (ctx, _) = tr.span("runtime.ctx_new", || ExecutionContext::new(threads));
    let (kernel, _) = tr.span("core.try_from_coo", || {
        SymSpmv::try_from_coo(coo, &ctx, ReductionMethod::Indexing, w.format())
    });
    let real = tr.end(setup);
    drop(kernel.map_err(|e| format!("try_from_coo: {e}"))?);
    drop(ctx);

    let replay = tr.begin("setup_replay");
    let first_child = tr.spans().len();
    let replayed = replay_steps(w, coo, threads, tr, facts);
    let children: f64 = tr.spans()[first_child..].iter().map(|s| s.secs()).sum();
    tr.end(replay);
    let (ctx, sss) = replayed?;
    facts.coverage.push(children / real);

    // Off the real path: the unvalidated conversion (the difference is the
    // validation), plain CSR as the reference conversion, and the plan as
    // one call, cold and from the cache.
    let (plain, _) = tr.span("sparse.sss_from_coo", || {
        SssMatrix::from_coo_kind(coo, SymmetryKind::Symmetric, 0.0)
    });
    plain.map_err(|e| format!("sss from_coo_kind: {e}"))?;
    tr.span("sparse.csr_from_coo", || CsrMatrix::from_coo(coo));
    let strategy = idx_strategy(&ctx)?;
    ctx.clear_plan_cache();
    let (plan, _) = tr.span("core.plan_cold", || {
        CachedSymPlan::obtain(&sss, &ctx, &strategy)
    });
    tr.span("core.plan_warm", || {
        CachedSymPlan::obtain(&sss, &ctx, &strategy)
    });
    facts.index_entries = plan.index.entries.len();
    facts.ws_bytes = ws::ws_indexing(&plan.index);
    Ok(())
}

fn idx_strategy(ctx: &ExecutionContext) -> Result<Arc<dyn ReductionStrategy>, String> {
    ctx.reduction(ReductionMethod::Indexing.tag())
        .ok_or_else(|| "the context has no `idx` strategy".to_string())
}

/// The steps of `SymSpmv::build` → `CachedSymPlan::derive`, in their order,
/// each under its own span.
fn replay_steps(
    w: &Workload,
    coo: &CooMatrix,
    threads: usize,
    tr: &mut Tracer,
    facts: &mut SetupFacts,
) -> Result<(Arc<ExecutionContext>, SssMatrix), String> {
    let n = coo.nrows() as usize;
    let (ctx, _) = tr.span("runtime.ctx_new", || ExecutionContext::new(threads));
    let (sss, _) = tr.span("sparse.sss_try_from_coo", || {
        SssMatrix::try_from_coo_kind(coo, SymmetryKind::Symmetric, 0.0)
    });
    let sss = sss.map_err(|e| format!("sss try_from_coo_kind: {e}"))?;
    tr.span("sparse.fingerprint", || sss.fingerprint());
    let ((parts, reduce_chunks), _) = tr.span("runtime.partition", || {
        (
            balanced_ranges(&symmetric_row_weights(sss.rowptr()), threads),
            balanced_ranges(&vec![1u64; n], threads),
        )
    });
    let (index, _) = tr.span("core.conflict_analyze", || symbolic::analyze(&sss, &parts));
    let layout = idx_strategy(&ctx)?.layout(n, &parts);
    let (structure, _) = tr.span("verify.structure_facts", || StructureFacts::of(&sss));
    let plan_ref = SymPlanRef {
        parts: &parts,
        offsets: &layout.offsets,
        local_len: layout.flat_len,
        strategy: SymStrategyKind::Indexing,
        entries: &index.entries,
        splits: &index.splits,
        row_chunks: &reduce_chunks,
    };
    let (cert, _) = tr.span("verify.certify_sym", || {
        certify_sym_symbolic(&structure, &plan_ref, &index.conflicts)
    });
    cert.map_err(|e| format!("certify_sym_symbolic: {e}"))?;
    if let SymFormat::CsxSym(config) = w.format() {
        let (encoded, _) = tr.span("csx.encode", || {
            CsxSymMatrix::from_sss(&sss, &parts, &config)
        });
        facts.csx_coverage = encoded.coverage();
        facts.csx_compression = encoded.compression_ratio();
    }
    Ok((ctx, sss))
}

/// Repeats a spanned call until the block's time or call budget is spent.
fn block(tr: &mut Tracer, name: &'static str, mut call: impl FnMut()) {
    let t = Instant::now();
    for _ in 0..BLOCK_CALLS {
        tr.span(name, &mut call);
        if t.elapsed().as_secs_f64() >= BLOCK {
            break;
        }
    }
}

/// Exact pool rounds of one CG iteration: the difference between a
/// three-iteration and a one-iteration solve, halved.
fn rounds_per_cg_iter(kernel: &mut SymSpmv, ctx: &ExecutionContext, p: &mut Problem) -> f64 {
    let mut rounds = |max_iters| {
        p.x.fill(0.0);
        let before = ctx.pool_rounds();
        cg(kernel, &p.b, &mut p.x, &CgConfig { max_iters, ..CG });
        ctx.pool_rounds() - before
    };
    (rounds(3) - rounds(1)) as f64 / 2.0
}

/// The per-layer metrics under assembly, in `METRICS` order.
struct Report<'a> {
    tr: &'a Tracer,
    metrics: Vec<Metric>,
}

impl Report<'_> {
    fn unit(name: &str) -> &'static str {
        METRICS.iter().find(|(n, _)| *n == name).map_or_else(
            || panic!("`{name}` is not a declared per-layer metric"),
            |(_, unit)| unit,
        )
    }

    fn plain(&mut self, name: &'static str, value: f64) {
        self.metrics
            .push(Metric::plain(name, Self::unit(name), value));
    }

    /// `<span>_s`: the quantile at `level` of the spans called `<span>`;
    /// zero when the workload never made the call. Returns the value.
    fn timing(&mut self, name: &'static str, level: f64) -> f64 {
        let span = name
            .strip_suffix("_s")
            .expect("a timing is named `<span>_s`");
        self.samples(name, &self.tr.durations(span), level)
    }

    fn samples(&mut self, name: &'static str, samples: &[f64], level: f64) -> f64 {
        match summarize(samples, level) {
            Some(summary) => self.metrics.push(Metric::timing(name, summary)),
            None => self.plain(name, 0.0),
        }
        self.metrics.last().map_or(0.0, |m| m.value)
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(&sorted(values), 0.5)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    threads: usize,
    trace_path: &str,
) -> Result<RunResult, String> {
    let mut ops = Ops::new(w.name, seed);
    let mut tr = Tracer::new();
    let jiffies = probe::cpu_jiffies();
    let mut p = Problem::generate(w, seed);
    let n = p.n;

    let llc = probe::llc_bytes().unwrap_or(0);
    let (triad, _) = tr.span("machine.triad", || {
        probe::triad(threads, llc, probe::mem_available_bytes().unwrap_or(0))
    });
    println!(
        "# triad arrays {} MiB each (cap {} MiB), reported last-level cache {} MiB",
        triad.array_bytes >> 20,
        probe::TRIAD_CAP_BYTES >> 20,
        llc >> 20
    );

    let started = Instant::now();
    let mut facts = SetupFacts::default();
    let (mut reps, mut last) = (0, 0.0);
    while reps < MIN_REPS || started.elapsed().as_secs_f64() + last <= SETUP_SHARE * seconds {
        let t = Instant::now();
        ops.attempt("traced set-up", || {
            setup_rep(w, &p.coo, threads, &mut tr, &mut facts)
        });
        last = t.elapsed().as_secs_f64();
        reps += 1;
    }

    // Values that need a live kernel; they stay zero if the build fails.
    let (mut untraced, mut yard) = (Vec::new(), Vec::new());
    let (mut multiply, mut reduce, mut clocked_calls) = (0.0, 0.0, 0usize);
    let (mut rounds_spmv, mut rounds_cg) = (0.0, 0.0);
    let (mut iters, mut vecops_share, mut residual) = (Vec::new(), Vec::new(), Vec::new());
    let (mut size_bytes, mut lower_nnz, mut groups) = (0usize, 0usize, 0usize);

    let built = ops.attempt("build", || w.build(&p.coo, threads));
    if let Some((ctx, mut kernel)) = built {
        let ctx1 = ExecutionContext::new(1);
        let mut csr = CsrParallel::from_coo(&p.coo, &ctx);
        size_bytes = kernel.size_bytes();
        lower_nnz = (kernel.nnz_full() - n) / 2;

        // The unattached level-coloring rows.
        let mut race = None;
        if w.race_probe {
            race = ops.attempt("race kernel", || {
                let sss = SssMatrix::from_coo_kind(&p.coo, SymmetryKind::Symmetric, 0.0)
                    .map_err(|e| e.to_string())?;
                let (coloring, _) = tr.span("reorder.level_color", || {
                    level_color_lower(sss.n(), sss.rowptr(), sss.colind())
                });
                groups = coloring.num_groups();
                Ok(SymSpmv::from_sss(
                    sss,
                    &ctx,
                    ReductionMethod::Race,
                    SymFormat::Sss,
                ))
            });
        }

        let xb = VectorBlock::seeded(n, LANES, seed);
        let mut yb = VectorBlock::zeros(n, LANES);
        ops.attempt("spmm lane 0 against the reference", || {
            kernel.spmm(&xb, &mut yb);
            // Lane 0 of a seeded block is `seeded_vector(n, seed)`, i.e. `b`.
            let err = probe::rel_l2_diff(&yb.lane(0), &p.y_ref);
            (err <= SPMV_TOL)
                .then_some(())
                .ok_or(format!("spmm lane 0 off the reference by {err:e}"))
        });
        for _ in 0..WARM_UP {
            kernel.spmv(&p.b, &mut p.y);
            csr.spmv(&p.b, &mut p.y);
        }
        ops.attempt("csr spmv against the reference", || p.check_y());
        if let Some(race) = &mut race {
            ops.attempt("race spmv against the reference", || {
                race.spmv(&p.b, &mut p.y);
                p.check_y()
            });
        }

        let before = ctx.pool_rounds();
        kernel.spmv(&p.b, &mut p.y);
        rounds_spmv = (ctx.pool_rounds() - before) as f64;
        rounds_cg = rounds_per_cg_iter(&mut kernel, &ctx, &mut p);

        let mut cycles = 0;
        while cycles < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
            cycles += 1;
            yard.push(p.yard_time());

            // Multiplies alternately without and with a span around them,
            // so the two sets see the same seconds of the host: their
            // difference is the tracing overhead.
            let clocks = kernel.times();
            let t = Instant::now();
            for _ in 0..BLOCK_CALLS {
                let call = Instant::now();
                kernel.spmv(&p.b, &mut p.y);
                untraced.push(call.elapsed().as_secs_f64());
                tr.span("core.spmv", || kernel.spmv(&p.b, &mut p.y));
                clocked_calls += 2;
                if t.elapsed().as_secs_f64() >= 2.0 * BLOCK {
                    break;
                }
            }
            multiply += (kernel.times().multiply - clocks.multiply).as_secs_f64();
            reduce += (kernel.times().reduce - clocks.reduce).as_secs_f64();
            ops.attempt("spmv against the reference", || p.check_y());

            block(&mut tr, "core.csr_spmv", || csr.spmv(&p.b, &mut p.y));
            if let Some(race) = &mut race {
                block(&mut tr, "core.race_spmv", || race.spmv(&p.b, &mut p.y));
            }
            block(&mut tr, "core.spmm8", || kernel.spmm(&xb, &mut yb));

            block(&mut tr, "solver.dot", || {
                std::hint::black_box(vecops::dot(&ctx, &p.b, &p.y));
            });
            block(&mut tr, "solver.axpy", || {
                vecops::axpy(&ctx, 1e-3, &p.b, &mut p.y)
            });
            block(&mut tr, "solver.xpby", || {
                vecops::xpby(&ctx, &p.b, 0.5, &mut p.y)
            });

            block(&mut tr, "runtime.pool_round", || ctx.run(&|_| {}));
            block(&mut tr, "runtime.pool_round_p1", || ctx1.run(&|_| {}));
            block(&mut tr, "runtime.lease", || drop(ctx.lease(n)));

            ops.attempt("traced solve", || {
                p.x.fill(0.0);
                let (outcome, secs) =
                    tr.span("solver.solve", || cg(&mut kernel, &p.b, &mut p.x, &CG));
                residual.push(p.check_solution(&outcome)?);
                iters.push(outcome.iterations as f64);
                vecops_share.push(outcome.times.vector_ops.as_secs_f64() / secs);
                Ok(())
            });
        }
    }

    // In `METRICS` order. Set-up steps and solves are long and few: quiet
    // quarter; single calls come by the hundred: quiet tail.
    let mut r = Report {
        tr: &tr,
        metrics: Vec::new(),
    };
    r.timing("sparse.sss_try_from_coo_s", QUIET_QUARTER);
    r.timing("sparse.sss_from_coo_s", QUIET_QUARTER);
    r.timing("sparse.csr_from_coo_s", QUIET_QUARTER);
    r.timing("sparse.fingerprint_s", QUIET_QUARTER);
    r.timing("runtime.ctx_new_s", QUIET_QUARTER);
    r.timing("runtime.partition_s", QUIET_QUARTER);
    let round_s = r.timing("runtime.pool_round_s", QUIET_TAIL);
    r.timing("runtime.pool_round_p1_s", QUIET_TAIL);
    r.timing("runtime.lease_s", QUIET_TAIL);
    r.plain("runtime.rounds_per_spmv", rounds_spmv);
    r.plain("runtime.rounds_per_cg_iter", rounds_cg);
    r.timing("csx.encode_s", QUIET_QUARTER);
    r.plain("csx.coverage", facts.csx_coverage);
    r.plain("csx.compression_ratio", facts.csx_compression);
    r.timing("core.plan_cold_s", QUIET_QUARTER);
    r.timing("core.plan_warm_s", QUIET_QUARTER);
    r.timing("core.conflict_analyze_s", QUIET_QUARTER);
    r.plain("core.index_entries", facts.index_entries as f64);
    r.plain("core.ws_bytes", facts.ws_bytes as f64);
    // Means over the multiplies above, from the kernel's own phase clocks.
    r.plain("core.multiply_s", ratio(multiply, clocked_calls as f64));
    r.plain("core.reduce_s", ratio(reduce, clocked_calls as f64));
    r.plain("core.reduce_share", ratio(reduce, multiply + reduce));
    let traced = tr.durations("core.spmv");
    let spmv_s = summarize(&traced, QUIET_TAIL).map_or(0.0, |s| s.value);
    let csr_s = r.timing("core.csr_spmv_s", QUIET_TAIL);
    r.plain("core.speedup_vs_csr", ratio(csr_s, spmv_s));
    // Computed, not counted: the bytes of the representation plus one read
    // of x and one write of y, over the measured time.
    let gbs = ratio((size_bytes + 16 * n) as f64, spmv_s) / 1e9;
    r.plain("core.gbs", gbs);
    r.plain("core.roofline_frac", ratio(gbs, triad.gbs));
    r.plain(
        "core.model_bytes_ratio",
        ratio(
            size_bytes as f64,
            sss_size_bytes(n as u32, lower_nnz) as f64,
        ),
    );
    let spmm_s = summarize(&tr.durations("core.spmm8"), QUIET_TAIL).map_or(0.0, |s| s.value);
    r.plain("core.spmm8_lane_s", spmm_s / LANES as f64);
    r.timing("verify.structure_facts_s", QUIET_QUARTER);
    r.timing("verify.certify_sym_s", QUIET_QUARTER);
    r.timing("reorder.level_color_s", QUIET_QUARTER);
    r.plain("reorder.color_groups", groups as f64);
    r.timing("core.race_spmv_s", QUIET_TAIL);
    let solve_s = r.timing("solver.solve_s", QUIET_QUARTER);
    let k = median(&iters);
    r.plain("solver.iters", k);
    r.plain("solver.iter_s", ratio(solve_s, k));
    r.timing("solver.dot_s", QUIET_TAIL);
    r.timing("solver.axpy_s", QUIET_TAIL);
    r.timing("solver.xpby_s", QUIET_TAIL);
    r.plain("solver.vecops_share", median(&vecops_share));
    r.plain("solver.true_residual", median(&residual));
    r.plain(
        "machine.ncpus",
        std::thread::available_parallelism().map_or(0.0, |p| p.get() as f64),
    );
    r.plain("machine.llc_bytes", llc as f64);
    r.plain("machine.triad_gbs", triad.gbs);
    r.samples("machine.yard_s", &yard, QUIET_QUARTER);
    r.plain(
        "machine.steal_frac",
        probe::steal_frac(jiffies, probe::cpu_jiffies()).unwrap_or(0.0),
    );
    r.plain("trace.setup_coverage", median(&facts.coverage));
    // A solve, modelled from its parts: one multiply and two dots before
    // the loop; per iteration one multiply, two dots, two axpy and one
    // xpby. Medians on both sides, so that like is compared with like.
    let mid = |span: &str| median(&tr.durations(span));
    let modelled = (k + 1.0) * (median(&traced) + 2.0 * mid("solver.dot"))
        + k * (2.0 * mid("solver.axpy") + mid("solver.xpby"));
    r.plain("trace.solve_coverage", ratio(modelled, mid("solver.solve")));
    r.plain(
        "trace.overhead_frac",
        ratio(median(&traced) - median(&untraced), median(&untraced)),
    );
    let metrics = r.metrics;

    println!(
        "# pool rounds are {:.1}% of a cg iteration ({} rounds of {round_s:.3e} s in {:.3e} s)",
        100.0 * ratio(rounds_cg * round_s, ratio(solve_s, k)),
        rounds_cg,
        ratio(solve_s, k)
    );
    println!("# where the time goes: spans by name (self = total − direct children)");
    println!(
        "# {:<28} {:>8} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    );
    for (name, calls, total, own) in tr.by_name() {
        println!("# {name:<28} {calls:>8} {total:>12.6} {own:>12.6}");
    }
    if let Some(dir) = std::path::Path::new(trace_path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(trace_path, tr.to_json(w.name, seed).write()?)
        .map_err(|e| format!("{trace_path}: {e}"))?;
    println!("# {} spans written to {trace_path}", tr.spans().len());

    Ok(RunResult {
        workload: w.name.to_string(),
        seed,
        traced: true,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
    })
}
