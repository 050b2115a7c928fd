//! Experiment drivers — one function per table/figure of §V.
//!
//! Every driver prints an aligned text table and writes a CSV twin into the
//! configured output directory. Paper-reported values are included as
//! columns where the paper states them, so EXPERIMENTS.md can be filled
//! from a single run.

use crate::error::HarnessError;
use crate::framework::{measure, serial_csr_spmv_time, Measurement};
use crate::kernels::{build_kernel, experiment_detect_config, KernelSpec};
use crate::report::{f, fmt_secs, geomean, pct, Table};
use std::path::PathBuf;
use std::sync::Arc;
use symspmv_core::SymFormat;
use symspmv_core::{symbolic, ws, ReductionMethod, SymSpmv};
use symspmv_reorder::rcm::rcm_reorder;
use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights, ExecutionContext};
use symspmv_sparse::stats::csr_size_mib;
use symspmv_sparse::suite::SuiteMatrix;
use symspmv_sparse::{CooMatrix, CsrMatrix, SssMatrix};

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Suite scale factor (fraction of the original matrix dimensions).
    pub scale: f64,
    /// SpMV iterations per measurement (paper: 128).
    pub iterations: usize,
    /// Maximum worker threads (default: host parallelism).
    pub max_threads: usize,
    /// Output directory for CSV twins of the printed tables.
    pub out_dir: PathBuf,
    /// Restrict to these suite matrices (paper names); empty = all 12.
    pub matrices: Vec<String>,
    /// CG iterations for Fig. 14 (paper: 2048).
    pub cg_iters: usize,
    /// Right-hand sides per multiplication for the batched (`spmm`)
    /// experiment — must be a supported lane count (1, 2, 4, 8, 16).
    pub rhs: usize,
    /// Seed for the seeded drivers (the `chaos` fault schedule and its
    /// retry jitter); the same seed replays the same run.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.02,
            iterations: 128,
            max_threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            out_dir: PathBuf::from("results"),
            matrices: Vec::new(),
            cg_iters: 512,
            rhs: 8,
            seed: 0xC4A05,
        }
    }
}

impl ExpConfig {
    fn suite(&self) -> Vec<SuiteMatrix> {
        // Generated matrices are deterministic, so cache them on disk keyed
        // by (name, scale) — repeated experiment invocations skip the
        // generation cost.
        let cache_dir = self.out_dir.join(".suite-cache");
        symspmv_sparse::suite::SUITE
            .iter()
            .filter(|s| self.matrices.is_empty() || self.matrices.iter().any(|n| n == s.name))
            .map(|spec| {
                let path = cache_dir.join(format!("{}-{:.6}.bin", spec.name, self.scale));
                let coo = symspmv_sparse::cache::load_or_generate(path, || {
                    symspmv_sparse::suite::generate(spec, self.scale).coo
                });
                SuiteMatrix { spec: *spec, coo }
            })
            .collect()
    }

    pub(crate) fn emit(&self, name: &str, table: &Table) -> Result<(), HarnessError> {
        println!("{}", table.render());
        let p = table
            .write_csv(&self.out_dir, name)
            .map_err(|source| HarnessError::Io {
                path: self.out_dir.join(format!("{name}.csv")),
                source,
            })?;
        println!("[csv written to {}]\n", p.display());
        Ok(())
    }
}

/// Power-of-two thread counts up to `max_threads`, plus `max_threads`
/// itself when it is not one.
fn thread_sweep(max_threads: usize) -> Vec<usize> {
    let mut v = vec![1usize];
    let mut p = 2;
    while p < max_threads {
        v.push(p);
        p *= 2;
    }
    if max_threads > 1 {
        v.push(max_threads);
    }
    v
}

fn sss_of(coo: &CooMatrix, name: &str) -> Result<SssMatrix, HarnessError> {
    SssMatrix::from_coo(coo, 0.0).map_err(|e| HarnessError::matrix("SSS structure", name, e))
}

/// Builds a kernel with driver context attached to any failure.
fn kernel_of(
    spec: KernelSpec,
    coo: &CooMatrix,
    ctx: &Arc<ExecutionContext>,
    matrix: &str,
) -> Result<Box<dyn symspmv_core::ParallelSpmv>, HarnessError> {
    build_kernel(spec, coo, ctx)
        .map_err(|e| HarnessError::matrix(format!("{} kernel", spec.name()), matrix, e))
}

/// RCM-reorders with driver context attached to any failure.
fn rcm_of(coo: &CooMatrix, matrix: &str) -> Result<CooMatrix, HarnessError> {
    rcm_reorder(coo).map_err(|e| HarnessError::matrix("RCM reorder", matrix, e))
}

/// Builds a kind-aware kernel with driver context attached to any failure.
fn kernel_of_kind(
    spec: KernelSpec,
    coo: &CooMatrix,
    kind: symspmv_sparse::symmetry::SymmetryKind,
    ctx: &Arc<ExecutionContext>,
    matrix: &str,
) -> Result<Box<dyn symspmv_core::ParallelSpmv>, HarnessError> {
    crate::kernels::build_kernel_kind(spec, coo, kind, ctx)
        .map_err(|e| HarnessError::matrix(format!("{} kernel", spec.name()), matrix, e))
}

/// E1 — Table I: suite characteristics and compression ratios.
pub fn table1(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!("== Table I: matrix suite and compression ratios ==\n");
    let mut t = Table::new(&[
        "matrix",
        "rows",
        "nonzeros",
        "size(MiB)",
        "CR(CSX-Sym)",
        "CR(max)",
        "paper CR(CSX-Sym)",
        "paper CR(max)",
        "coverage",
        "problem",
    ]);
    for m in cfg.suite() {
        let sss = sss_of(&m.coo, m.spec.name)?;
        let n = sss.n();
        // Table I measures pure format compression: single partition.
        let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), 1);
        let csx = symspmv_core::CsxSymMatrix::from_sss(&sss, &parts, &experiment_detect_config());
        let full_nnz = csx.full_nnz();
        t.row(vec![
            m.spec.name.into(),
            n.to_string(),
            full_nnz.to_string(),
            f(csr_size_mib(n, full_nnz), 2),
            pct(csx.compression_ratio()),
            pct(csx.max_compression_ratio()),
            format!("{:.1}%", m.spec.paper_cr_csx_sym),
            format!("{:.1}%", m.spec.paper_cr_max),
            pct(csx.coverage()),
            m.spec.problem.into(),
        ]);
    }
    cfg.emit("table1", &t)
}

/// E2 — Fig. 4: density of the effective regions versus thread count.
pub fn fig4(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!("== Fig. 4: effective-region density vs thread count ==\n");
    let suite = cfg.suite();
    let structures: Vec<(String, SssMatrix)> = suite
        .iter()
        .map(|m| Ok((m.spec.name.to_string(), sss_of(&m.coo, m.spec.name)?)))
        .collect::<Result<_, HarnessError>>()?;

    let ps = [2usize, 4, 8, 16, 24, 32, 64, 128, 256];
    let mut t = Table::new(&["threads", "avg density", "min", "max"]);
    let mut per_matrix = Table::new(&["threads", "matrix", "density"]);
    let mut density_series: Vec<(f64, f64)> = Vec::new();
    let mut density_min: Vec<(f64, f64)> = Vec::new();
    let mut density_max: Vec<(f64, f64)> = Vec::new();
    for &p in &ps {
        let mut ds = Vec::new();
        for (name, sss) in &structures {
            let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
            let ci = symbolic::analyze(sss, &parts);
            ds.push(ci.density());
            per_matrix.row(vec![p.to_string(), name.clone(), f(ci.density(), 4)]);
        }
        let avg = ds.iter().sum::<f64>() / ds.len() as f64;
        let min = ds.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ds.iter().cloned().fold(0.0, f64::max);
        density_series.push((p as f64, avg));
        density_min.push((p as f64, min));
        density_max.push((p as f64, max));
        t.row(vec![p.to_string(), pct(avg), pct(min), pct(max)]);
    }
    cfg.emit("fig4", &t)?;
    per_matrix
        .write_csv(&cfg.out_dir, "fig4_per_matrix")
        .map_err(|source| HarnessError::Io {
            path: cfg.out_dir.join("fig4_per_matrix.csv"),
            source,
        })?;
    let svg = crate::plot::line_chart(
        "Fig. 4 — effective-region density vs thread count (suite average)",
        "threads",
        "density",
        &[
            crate::plot::Series {
                name: "avg".into(),
                points: density_series.clone(),
            },
            crate::plot::Series {
                name: "min".into(),
                points: density_min,
            },
            crate::plot::Series {
                name: "max".into(),
                points: density_max,
            },
        ],
    );
    if let Ok(path) = crate::plot::write_svg(&cfg.out_dir, "fig4", &svg) {
        println!("[svg written to {}]\n", path.display());
    }
    println!("(paper: avg density 10.7% at 24 threads, 2.6% at 256 threads)\n");
    Ok(())
}

/// E3 — Fig. 5: reduction-phase working-set overhead versus thread count.
pub fn fig5(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!("== Fig. 5: reduction working-set overhead (relative to S_SSS) ==\n");
    let suite = cfg.suite();
    let structures: Vec<SssMatrix> = suite
        .iter()
        .map(|m| sss_of(&m.coo, m.spec.name))
        .collect::<Result<_, HarnessError>>()?;
    let ps = [2usize, 4, 8, 12, 16, 24, 32, 64];
    let mut t = Table::new(&["threads", "naive", "effective", "indexing"]);
    let mut svg_series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 3];
    for &p in &ps {
        let (mut o_naive, mut o_eff, mut o_idx) = (Vec::new(), Vec::new(), Vec::new());
        for sss in &structures {
            let n = sss.n() as usize;
            let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
            let ci = symbolic::analyze(sss, &parts);
            let s = sss.size_bytes();
            o_naive.push(ws::relative_overhead(ws::ws_naive(p, n), s));
            o_eff.push(ws::relative_overhead(
                ws::ws_effective_exact(ci.effective_region_len),
                s,
            ));
            o_idx.push(ws::relative_overhead(ws::ws_indexing(&ci), s));
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        svg_series[0].push((p as f64, avg(&o_naive)));
        svg_series[1].push((p as f64, avg(&o_eff)));
        svg_series[2].push((p as f64, avg(&o_idx)));
        t.row(vec![
            p.to_string(),
            pct(avg(&o_naive)),
            pct(avg(&o_eff)),
            pct(avg(&o_idx)),
        ]);
    }
    cfg.emit("fig5", &t)?;
    let names = ["naive", "effective", "indexing"];
    let series: Vec<crate::plot::Series> = names
        .iter()
        .zip(&svg_series)
        .map(|(n, pts)| crate::plot::Series {
            name: (*n).into(),
            points: pts.clone(),
        })
        .collect();
    let svg = crate::plot::line_chart(
        "Fig. 5 — reduction working-set overhead (x of S_SSS, suite average)",
        "threads",
        "overhead / S_SSS",
        &series,
    );
    if let Ok(path) = crate::plot::write_svg(&cfg.out_dir, "fig5", &svg) {
        println!("[svg written to {}]\n", path.display());
    }
    println!("(paper: indexing overhead stabilizes around 15% at 24 threads)\n");
    Ok(())
}

/// Runs one (matrix, lineup) sweep; returns rows of measurements. One
/// execution context — and therefore one worker pool — per thread count,
/// shared by every kernel in the lineup.
fn sweep(
    coo: &CooMatrix,
    matrix: &str,
    lineup: &[KernelSpec],
    ctxs: &[Arc<ExecutionContext>],
    iterations: usize,
) -> Result<Vec<(usize, Vec<Measurement>)>, HarnessError> {
    ctxs.iter()
        .map(|ctx| {
            let ms = lineup
                .iter()
                .map(|&spec| {
                    let mut k = kernel_of(spec, coo, ctx, matrix)?;
                    Ok(measure(&mut *k, iterations))
                })
                .collect::<Result<_, HarnessError>>()?;
            Ok((ctx.nthreads(), ms))
        })
        .collect()
}

fn speedup_figure(
    cfg: &ExpConfig,
    name: &str,
    title: &str,
    lineup: Vec<KernelSpec>,
) -> Result<(), HarnessError> {
    println!("== {title} ==\n");
    let suite = cfg.suite();
    let threads = thread_sweep(cfg.max_threads);
    let ctxs: Vec<Arc<ExecutionContext>> =
        threads.iter().map(|&p| ExecutionContext::new(p)).collect();
    let serial_ctx = ExecutionContext::new(1);

    let mut header = vec!["matrix".to_string(), "threads".to_string()];
    header.extend(lineup.iter().map(|s| s.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    // Per-(p, kernel) speedups across matrices for the geomean summary.
    let mut acc: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); lineup.len()]; threads.len()];

    for m in &suite {
        // Serial CSR is the speedup baseline.
        let mut base = kernel_of(KernelSpec::Csr, &m.coo, &serial_ctx, m.spec.name)?;
        let base_t = measure(&mut *base, cfg.iterations).wall;
        drop(base);
        for (pi, (p, ms)) in sweep(&m.coo, m.spec.name, &lineup, &ctxs, cfg.iterations)?
            .iter()
            .enumerate()
        {
            let mut row = vec![m.spec.name.to_string(), p.to_string()];
            for (ki, meas) in ms.iter().enumerate() {
                let s = base_t.as_secs_f64() / meas.wall.as_secs_f64();
                acc[pi][ki].push(s);
                row.push(f(s, 2));
            }
            t.row(row);
        }
    }
    cfg.emit(&format!("{name}_per_matrix"), &t)?;

    let mut s = Table::new(&header_refs);
    let mut svg_series: Vec<crate::plot::Series> = lineup
        .iter()
        .map(|k| crate::plot::Series {
            name: k.name().to_string(),
            points: Vec::new(),
        })
        .collect();
    for (pi, &p) in threads.iter().enumerate() {
        let mut row = vec!["GEOMEAN".to_string(), p.to_string()];
        for ki in 0..lineup.len() {
            let g = geomean(&acc[pi][ki]);
            svg_series[ki].points.push((p as f64, g));
            row.push(f(g, 2));
        }
        s.row(row);
    }
    cfg.emit(name, &s)?;
    if svg_series.len() <= 4 && threads.len() >= 2 {
        let svg = crate::plot::line_chart(
            &format!("{title} — geometric mean over the suite"),
            "threads",
            "speedup vs serial CSR",
            &svg_series,
        );
        if let Ok(path) = crate::plot::write_svg(&cfg.out_dir, name, &svg) {
            println!("[svg written to {}]\n", path.display());
        }
    }
    Ok(())
}

/// E4 — Fig. 9: speedup of the local-vector reduction methods vs CSR.
pub fn fig9(cfg: &ExpConfig) -> Result<(), HarnessError> {
    speedup_figure(
        cfg,
        "fig9",
        "Fig. 9: symmetric SpMV speedup, reduction methods (baseline: serial CSR)",
        KernelSpec::figure9_lineup(),
    )?;
    println!("(paper: sss-idx >2x over CSR on the SMP system; naive/eff collapse at high p)\n");
    Ok(())
}

/// E5 — Fig. 10: execution-time breakdown at max threads.
pub fn fig10(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!(
        "== Fig. 10: symmetric SpMV time breakdown at {} threads ==\n",
        cfg.max_threads
    );
    let mut t = Table::new(&[
        "matrix",
        "method",
        "multiply(ms)",
        "reduce(ms)",
        "reduce share",
    ]);
    let methods = [
        ReductionMethod::Naive,
        ReductionMethod::EffectiveRanges,
        ReductionMethod::Indexing,
    ];
    let mut bars: Vec<Vec<crate::plot::Bar>> = vec![Vec::new(); methods.len()];
    let ctx = ExecutionContext::new(cfg.max_threads);
    for m in cfg.suite() {
        for (mi, &method) in methods.iter().enumerate() {
            let mut k = SymSpmv::from_coo(&m.coo, &ctx, method, SymFormat::Sss)
                .map_err(|e| HarnessError::matrix("SSS kernel", m.spec.name, e))?;
            let meas = measure(&mut k, cfg.iterations);
            let mult = meas.times.multiply.as_secs_f64() * 1e3;
            let red = meas.times.reduce.as_secs_f64() * 1e3;
            bars[mi].push(crate::plot::Bar {
                label: m.spec.name.into(),
                segments: vec![mult, red],
            });
            t.row(vec![
                m.spec.name.into(),
                method.tag().into(),
                f(mult, 2),
                f(red, 2),
                pct(red / (mult + red).max(1e-12)),
            ]);
        }
    }
    cfg.emit("fig10", &t)?;
    for (mi, method) in methods.iter().enumerate() {
        if bars[mi].is_empty() {
            continue;
        }
        let svg = crate::plot::stacked_bars(
            &format!(
                "Fig. 10 — SSS-{} time breakdown at {} threads",
                method.tag(),
                cfg.max_threads
            ),
            "time (ms)",
            &["multiply", "reduce"],
            &bars[mi],
        );
        let name = format!("fig10_{}", method.tag());
        if let Ok(path) = crate::plot::write_svg(&cfg.out_dir, &name, &svg) {
            println!("[svg written to {}]", path.display());
        }
    }
    println!();
    println!("(paper: indexing keeps the reduction share minimal at 24 threads)\n");
    Ok(())
}

/// E-COLOR — the coloring-scheduled strategy against the paper's best
/// reduction strategy: per matrix at max threads, the schedule's group
/// count (barriers per spmv), both kernels' times, and the `sss-idx`
/// reduce share the schedule eliminates. `sss-race` runs all threads
/// directly on `y` — no local vectors, no reduction phase — at the cost
/// of one barrier per color group.
pub fn colors(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!(
        "== Colors: reduction-free sss-race vs sss-idx at {} threads ==\n",
        cfg.max_threads
    );
    let mut t = Table::new(&[
        "matrix",
        "groups",
        "race(ms)",
        "idx(ms)",
        "idx reduce share",
        "race/idx",
    ]);
    let ctx = ExecutionContext::new(cfg.max_threads);
    for m in cfg.suite() {
        let mut race = SymSpmv::from_coo(&m.coo, &ctx, ReductionMethod::Race, SymFormat::Sss)
            .map_err(|e| HarnessError::matrix("SSS race kernel", m.spec.name, e))?;
        let groups = race.schedule_groups().unwrap_or(0);
        let mut idx = SymSpmv::from_coo(&m.coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss)
            .map_err(|e| HarnessError::matrix("SSS idx kernel", m.spec.name, e))?;
        let mr = measure(&mut race, cfg.iterations);
        let mi = measure(&mut idx, cfg.iterations);
        let race_ms = mr.wall.as_secs_f64() * 1e3;
        let idx_ms = mi.wall.as_secs_f64() * 1e3;
        let mult = mi.times.multiply.as_secs_f64();
        let red = mi.times.reduce.as_secs_f64();
        t.row(vec![
            m.spec.name.into(),
            groups.to_string(),
            f(race_ms, 2),
            f(idx_ms, 2),
            pct(red / (mult + red).max(1e-12)),
            f(race_ms / idx_ms.max(1e-12), 2),
        ]);
    }
    cfg.emit("colors", &t)?;
    println!(
        "(RACE-style level coloring: direct writes, zero locals — wins where \
         sss-idx's reduction phase dominates)\n"
    );
    Ok(())
}

/// E6 — Fig. 11: CSX-Sym speedup versus CSR/CSX/SSS-idx.
pub fn fig11(cfg: &ExpConfig) -> Result<(), HarnessError> {
    speedup_figure(
        cfg,
        "fig11",
        "Fig. 11: symmetric SpMV speedup with CSX-Sym (baseline: serial CSR)",
        KernelSpec::figure11_lineup(),
    )?;
    println!("(paper: CSX-Sym adds 43.4% over SSS-idx on the SMP system, ~10% on NUMA)\n");
    Ok(())
}

/// Per-matrix Gflop/s table at max threads for a lineup (Fig. 12 / 13).
fn permatrix_gflops(
    cfg: &ExpConfig,
    name: &str,
    title: &str,
    reorder: bool,
) -> Result<(), HarnessError> {
    println!("== {title} ==\n");
    let lineup = KernelSpec::figure11_lineup();
    let mut header = vec!["matrix".to_string()];
    header.extend(lineup.iter().map(|s| format!("{} Gflop/s", s.name())));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);
    let mut best_counts = vec![0usize; lineup.len()];
    let ctx = ExecutionContext::new(cfg.max_threads);
    for m in cfg.suite() {
        let coo = if reorder {
            rcm_of(&m.coo, m.spec.name)?
        } else {
            m.coo.clone()
        };
        let mut row = vec![m.spec.name.to_string()];
        let mut vals = Vec::new();
        for &spec in &lineup {
            let mut k = kernel_of(spec, &coo, &ctx, m.spec.name)?;
            let meas = measure(&mut *k, cfg.iterations);
            vals.push(meas.gflops);
            row.push(f(meas.gflops, 2));
        }
        if let Some((best, _)) = vals.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)) {
            best_counts[best] += 1;
        }
        t.row(row);
    }
    cfg.emit(name, &t)?;
    for (i, spec) in lineup.iter().enumerate() {
        println!(
            "  {} is fastest on {} matrices",
            spec.name(),
            best_counts[i]
        );
    }
    println!();
    Ok(())
}

/// E7 — Fig. 12: per-matrix performance at max threads.
pub fn fig12(cfg: &ExpConfig) -> Result<(), HarnessError> {
    permatrix_gflops(
        cfg,
        "fig12",
        &format!(
            "Fig. 12: per-matrix SpMV performance at {} threads",
            cfg.max_threads
        ),
        false,
    )?;
    println!("(paper: CSX-Sym best on 8/12 matrices; high-bandwidth cases favor CSR)\n");
    Ok(())
}

/// E8 — Table III: SpMV improvement from RCM reordering.
pub fn table3(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!(
        "== Table III: SpMV improvement due to RCM reordering ({} threads) ==\n",
        cfg.max_threads
    );
    let lineup = KernelSpec::figure11_lineup();
    let paper_dunnington = [22.0, 63.0, 92.2, 106.8];
    let paper_gainestown = [11.1, 14.0, 43.6, 48.5];
    let mut t = Table::new(&[
        "format",
        "measured improvement",
        "paper (Dunnington)",
        "paper (Gainestown)",
    ]);
    let suite = cfg.suite();
    let ctx = ExecutionContext::new(cfg.max_threads);
    for (ki, &spec) in lineup.iter().enumerate() {
        let mut ratios = Vec::new();
        for m in &suite {
            let reordered = rcm_of(&m.coo, m.spec.name)?;
            let mut k0 = kernel_of(spec, &m.coo, &ctx, m.spec.name)?;
            let g0 = measure(&mut *k0, cfg.iterations).gflops;
            drop(k0);
            let mut k1 = kernel_of(spec, &reordered, &ctx, m.spec.name)?;
            let g1 = measure(&mut *k1, cfg.iterations).gflops;
            ratios.push(g1 / g0);
        }
        t.row(vec![
            spec.name().to_string(),
            pct(geomean(&ratios) - 1.0),
            format!("{:.1}%", paper_dunnington[ki]),
            format!("{:.1}%", paper_gainestown[ki]),
        ]);
    }
    cfg.emit("table3", &t)
}

/// E9 — Fig. 13: per-matrix performance on RCM-reordered matrices.
pub fn fig13(cfg: &ExpConfig) -> Result<(), HarnessError> {
    permatrix_gflops(
        cfg,
        "fig13",
        &format!(
            "Fig. 13: per-matrix SpMV performance on RCM-reordered matrices ({} threads)",
            cfg.max_threads
        ),
        true,
    )
}

/// E10 — §V-E: preprocessing cost of CSX-Sym in serial-CSR-SpMV units.
pub fn preproc(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!("== §V-E: CSX-Sym preprocessing cost (units: serial CSR SpMV) ==\n");
    let mut t = Table::new(&["matrix", "original", "RCM-reordered"]);
    let mut orig_units = Vec::new();
    let mut reord_units = Vec::new();
    let ctx = ExecutionContext::new(cfg.max_threads);
    for m in cfg.suite() {
        let mut units = Vec::new();
        for coo in [m.coo.clone(), rcm_of(&m.coo, m.spec.name)?] {
            let csr = CsrMatrix::from_coo(&coo);
            let unit = serial_csr_spmv_time(&csr, 8);
            let k = kernel_of(
                KernelSpec::CsxSym(ReductionMethod::Indexing),
                &coo,
                &ctx,
                m.spec.name,
            )?;
            let pre = k.times().preprocess;
            units.push(pre.as_secs_f64() / unit.as_secs_f64().max(1e-12));
        }
        orig_units.push(units[0]);
        reord_units.push(units[1]);
        t.row(vec![m.spec.name.into(), f(units[0], 1), f(units[1], 1)]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    t.row(vec![
        "AVERAGE".into(),
        f(avg(&orig_units), 1),
        f(avg(&reord_units), 1),
    ]);
    cfg.emit("preproc", &t)?;
    println!("(paper: 49/94 serial SpMVs on Dunnington/Gainestown; 59/115 reordered)\n");
    Ok(())
}

/// E11 — Fig. 14: CG execution-time breakdown on RCM-reordered matrices.
pub fn fig14(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!(
        "== Fig. 14: CG time breakdown, {} iterations, RCM-reordered, {} threads ==\n",
        cfg.cg_iters, cfg.max_threads
    );
    let lineup = KernelSpec::figure11_lineup();
    let mut t = Table::new(&[
        "matrix",
        "format",
        "spmv(ms)",
        "reduce(ms)",
        "vecops(ms)",
        "preproc(ms)",
        "total(ms)",
    ]);
    let cg_cfg = symspmv_solver::CgConfig {
        max_iters: cfg.cg_iters,
        rel_tol: 0.0,
        record_history: false,
    };
    let mut bars: Vec<Vec<crate::plot::Bar>> = vec![Vec::new(); lineup.len()];
    let ctx = ExecutionContext::new(cfg.max_threads);
    for m in cfg.suite() {
        let coo = rcm_of(&m.coo, m.spec.name)?;
        let n = coo.nrows() as usize;
        let b = symspmv_sparse::dense::seeded_vector(n, 0xC6);
        for (ki, &spec) in lineup.iter().enumerate() {
            let mut k = kernel_of(spec, &coo, &ctx, m.spec.name)?;
            let mut x = vec![0.0; n];
            let res = symspmv_solver::cg(&mut *k, &b, &mut x, &cg_cfg);
            let ms = |d: std::time::Duration| f(d.as_secs_f64() * 1e3, 1);
            let msf = |d: std::time::Duration| d.as_secs_f64() * 1e3;
            bars[ki].push(crate::plot::Bar {
                label: m.spec.name.into(),
                segments: vec![
                    msf(res.times.multiply),
                    msf(res.times.reduce),
                    msf(res.times.vector_ops),
                    msf(res.times.preprocess),
                ],
            });
            t.row(vec![
                m.spec.name.into(),
                spec.name().to_string(),
                ms(res.times.multiply),
                ms(res.times.reduce),
                ms(res.times.vector_ops),
                ms(res.times.preprocess),
                ms(res.times.total()),
            ]);
        }
    }
    cfg.emit("fig14", &t)?;
    for (ki, spec) in lineup.iter().enumerate() {
        if bars[ki].is_empty() {
            continue;
        }
        let svg = crate::plot::stacked_bars(
            &format!(
                "Fig. 14 — CG breakdown with {} ({} iterations, RCM)",
                spec.name(),
                cfg.cg_iters
            ),
            "time (ms)",
            &["spmv", "reduce", "vecops", "preproc"],
            &bars[ki],
        );
        let name = format!("fig14_{}", spec.name().replace('-', "_"));
        if let Ok(path) = crate::plot::write_svg(&cfg.out_dir, &name, &svg) {
            println!("[svg written to {}]", path.display());
        }
    }
    println!();
    println!("(paper: >50% CG improvement from symmetric formats on large matrices;\n CSX-Sym preprocessing amortizes only on the larger ones)\n");
    Ok(())
}

/// Extension — ablation of the CSX-Sym detection configuration: which
/// substructure families and preprocessing settings buy the compression,
/// and what they cost (the design-choice study DESIGN.md calls out).
pub fn ablation(cfg: &ExpConfig) -> Result<(), HarnessError> {
    use symspmv_csx::detect::{DetectConfig, Family};
    println!("== Ablation: CSX-Sym detection configuration ==\n");

    let variants: Vec<(&str, DetectConfig)> = vec![
        ("default", DetectConfig::default()),
        (
            "min_run_len=2",
            DetectConfig {
                min_run_len: 2,
                ..DetectConfig::default()
            },
        ),
        (
            "min_run_len=8",
            DetectConfig {
                min_run_len: 8,
                ..DetectConfig::default()
            },
        ),
        (
            "sample=25%",
            DetectConfig {
                sample_fraction: 0.25,
                ..DetectConfig::default()
            },
        ),
        (
            "sample=5%",
            DetectConfig {
                sample_fraction: 0.05,
                ..DetectConfig::default()
            },
        ),
        (
            "delta-only",
            DetectConfig {
                candidate_families: vec![],
                ..DetectConfig::default()
            },
        ),
        (
            "blocks-only",
            DetectConfig {
                candidate_families: vec![
                    Family::Block(2, 2),
                    Family::Block(3, 3),
                    Family::Block(4, 4),
                ],
                min_coverage: 0.0,
                ..DetectConfig::default()
            },
        ),
        (
            "runs-only",
            DetectConfig {
                candidate_families: vec![
                    Family::Horizontal,
                    Family::Vertical,
                    Family::Diagonal,
                    Family::AntiDiagonal,
                ],
                min_coverage: 0.0,
                ..DetectConfig::default()
            },
        ),
    ];

    let mut t = Table::new(&[
        "matrix",
        "config",
        "CR",
        "coverage",
        "preproc(units)",
        "Gflop/s",
    ]);
    let ctx = ExecutionContext::new(cfg.max_threads);
    for name in ["hood", "thermal2"] {
        let Some(spec) = symspmv_sparse::suite::spec_by_name(name) else {
            continue;
        };
        let m = symspmv_sparse::suite::generate(spec, cfg.scale);
        let sss = sss_of(&m.coo, name)?;
        let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), cfg.max_threads);
        let csr = CsrMatrix::from_coo(&m.coo);
        let unit = serial_csr_spmv_time(&csr, 8);
        for (label, dcfg) in &variants {
            let t0 = std::time::Instant::now();
            let enc = symspmv_core::CsxSymMatrix::from_sss(&sss, &parts, dcfg);
            let pre = t0.elapsed();
            let mut k = SymSpmv::from_sss(
                sss.clone(),
                &ctx,
                ReductionMethod::Indexing,
                SymFormat::CsxSym(dcfg.clone()),
            );
            let meas = measure(&mut k, cfg.iterations.min(64));
            t.row(vec![
                name.into(),
                (*label).into(),
                pct(enc.compression_ratio()),
                pct(enc.coverage()),
                f(pre.as_secs_f64() / unit.as_secs_f64().max(1e-12), 1),
                f(meas.gflops, 2),
            ]);
        }
    }
    cfg.emit("ablation", &t)
}

/// Extension — batched SpMM: per-vector throughput of `k = cfg.rhs`
/// simultaneous right-hand sides against the scalar (`k = 1`) kernel, for
/// every block-capable format at max threads. The matrix is read once per
/// `spmm` regardless of `k`, so the per-vector speedup measures how much
/// of the kernel was memory-bound on the matrix stream.
pub fn spmm(cfg: &ExpConfig) -> Result<(), HarnessError> {
    use crate::conformance::build_block_kernel;
    use crate::framework::measure_spmm;

    let k = cfg.rhs;
    if !symspmv_sparse::block::SUPPORTED_LANES.contains(&k) {
        return Err(HarnessError::Config(format!(
            "--rhs {k} is not a supported lane count {:?}",
            symspmv_sparse::block::SUPPORTED_LANES
        )));
    }
    println!(
        "== Extension: batched SpMM with {k} right-hand sides at {} threads ==\n",
        cfg.max_threads
    );
    let lineup = [
        KernelSpec::Csr,
        KernelSpec::Sss(ReductionMethod::Indexing),
        KernelSpec::CsxSym(ReductionMethod::Indexing),
    ];
    let mut t = Table::new(&[
        "matrix",
        "format",
        "k=1 us/vec",
        "k us/vec",
        "per-vec speedup",
        "Gflop/s",
    ]);
    let ctx = ExecutionContext::new(cfg.max_threads);
    for m in cfg.suite() {
        for &spec in &lineup {
            let mut eng = build_block_kernel(spec, &m.coo, &ctx)
                .map_err(|e| {
                    HarnessError::matrix(format!("{} kernel", spec.name()), m.spec.name, e)
                })?
                .unwrap_or_else(|| unreachable!("lineup holds only block-capable specs"));
            let scalar = measure_spmm(&mut *eng, cfg.iterations, 1);
            let block = measure_spmm(&mut *eng, cfg.iterations, k);
            let t1 = scalar.per_spmv().as_secs_f64() * 1e6;
            let tk = block.per_spmv().as_secs_f64() * 1e6 / k as f64;
            t.row(vec![
                m.spec.name.to_string(),
                spec.name().to_string(),
                f(t1, 2),
                f(tk, 2),
                f(t1 / tk, 2),
                f(block.gflops, 2),
            ]);
        }
    }
    cfg.emit("spmm", &t)?;
    println!("(expectation: symmetric formats gain the most — their matrix\n stream is half of CSR's, so k vectors amortize it further)\n");
    Ok(())
}

/// Extension — end-to-end self-check: every kernel spec x several thread
/// counts against the dense reference on every suite matrix. Returns
/// [`HarnessError::VerificationFailed`] on any mismatch (the binary turns
/// that into a nonzero exit), so it can serve as a post-install smoke test.
pub fn verify(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!("== Verify: all kernels vs reference on the full suite ==\n");
    let specs = KernelSpec::all();
    let threads: Vec<usize> = vec![1, 2, cfg.max_threads.max(3)];
    let ctxs: Vec<Arc<ExecutionContext>> =
        threads.iter().map(|&p| ExecutionContext::new(p)).collect();
    let mut t = Table::new(&[
        "matrix",
        "kernels",
        "thread counts",
        "max |rel err|",
        "status",
    ]);
    let mut failures = 0usize;
    for m in cfg.suite() {
        let n = m.coo.nrows() as usize;
        let x = symspmv_sparse::dense::seeded_vector(n, 0x5EED);
        let mut y_ref = vec![0.0; n];
        m.coo.spmv_reference(&x, &mut y_ref);
        let mut worst = 0.0f64;
        for &spec in &specs {
            for ctx in &ctxs {
                let mut k = kernel_of(spec, &m.coo, ctx, m.spec.name)?;
                let mut y = vec![f64::NAN; n];
                k.spmv(&x, &mut y);
                worst = worst.max(symspmv_sparse::dense::max_rel_diff(&y, &y_ref));
            }
        }
        let ok = worst < 1e-10;
        if !ok {
            failures += 1;
        }
        t.row(vec![
            m.spec.name.into(),
            specs.len().to_string(),
            format!("{threads:?}"),
            format!("{worst:.2e}"),
            if ok { "ok".into() } else { "FAIL".into() },
        ]);
    }
    cfg.emit("verify", &t)?;
    if failures > 0 {
        return Err(HarnessError::VerificationFailed { failures });
    }
    println!("all kernels agree on all suite matrices \u{2713}\n");
    Ok(())
}

/// Extension — symmetry kinds: the generalized engine on the skew and
/// structural [`symspmv_sparse::suite::KIND_SUITE`] entries, each row
/// tagged with its kind, with the PARS3-style RCM comparison alongside
/// (the scrambled convection matrix is where skew+RCM must win: the
/// reordering recovers the band, shrinking the conflict region and the
/// `x` working set at once).
pub fn kinds(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!(
        "== Extension: symmetry kinds at {} threads (skew / structural engines, RCM effect) ==\n",
        cfg.max_threads
    );
    let lineup = [
        KernelSpec::Sss(ReductionMethod::Indexing),
        KernelSpec::CsxSym(ReductionMethod::Indexing),
    ];
    let mut t = Table::new(&[
        "matrix",
        "kind",
        "format",
        "natural Gflop/s",
        "RCM Gflop/s",
        "RCM speedup",
    ]);
    let ctx = ExecutionContext::new(cfg.max_threads);
    for spec in &symspmv_sparse::suite::KIND_SUITE {
        if !cfg.matrices.is_empty() && !cfg.matrices.iter().any(|m| m == spec.name) {
            continue;
        }
        let m = symspmv_sparse::suite::generate(spec, cfg.scale);
        let reordered = rcm_of(&m.coo, spec.name)?;
        for &ks in &lineup {
            let mut k0 = kernel_of_kind(ks, &m.coo, spec.kind, &ctx, spec.name)?;
            let g0 = measure(&mut *k0, cfg.iterations).gflops;
            drop(k0);
            let mut k1 = kernel_of_kind(ks, &reordered, spec.kind, &ctx, spec.name)?;
            let g1 = measure(&mut *k1, cfg.iterations).gflops;
            t.row(vec![
                spec.name.to_string(),
                spec.kind.tag().to_string(),
                ks.name().to_string(),
                f(g0, 2),
                f(g1, 2),
                f(g1 / g0, 2),
            ]);
        }
    }
    cfg.emit("kinds", &t)?;
    println!("(expectation: skew+RCM beats skew-natural on the scrambled\n convection matrix — the PARS3 result; structural rows verify the\n paired-values engine runs at full-storage-competitive rates)\n");
    Ok(())
}

/// Extension — host characterization (Table II substitute).
pub fn machine(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!("== Host platform (Table II substitute) ==\n");
    let t = crate::machine::describe();
    cfg.emit("machine", &t)
}

/// Extension — re-render the SVG figures from existing CSVs in the output
/// directory, without re-measuring. Covers fig4, fig5 and the geomean
/// speedup figures (fig9/fig11).
pub fn plot(cfg: &ExpConfig) -> Result<(), HarnessError> {
    println!(
        "== Re-rendering figures from {} ==\n",
        cfg.out_dir.display()
    );
    let read = |name: &str| -> Option<(Vec<String>, Vec<Vec<String>>)> {
        let text = std::fs::read_to_string(cfg.out_dir.join(format!("{name}.csv"))).ok()?;
        crate::report::parse_csv(&text)
    };
    let mut rendered = 0usize;

    // fig4 / fig5: first column is the thread count, remaining columns are
    // series.
    for (name, title, ylab) in [
        (
            "fig4",
            "Fig. 4 — effective-region density vs thread count (suite average)",
            "density",
        ),
        (
            "fig5",
            "Fig. 5 — reduction working-set overhead (x of S_SSS, suite average)",
            "overhead / S_SSS",
        ),
    ] {
        let Some((hdr, rows)) = read(name) else {
            continue;
        };
        let series: Vec<crate::plot::Series> = hdr[1..]
            .iter()
            .enumerate()
            .take(4)
            .map(|(i, h)| crate::plot::Series {
                name: h.clone(),
                points: rows
                    .iter()
                    .filter_map(|r| {
                        Some((
                            crate::report::parse_cell_number(&r[0])?,
                            crate::report::parse_cell_number(&r[i + 1])?,
                        ))
                    })
                    .collect(),
            })
            .filter(|s| s.points.len() >= 2)
            .collect();
        if series.is_empty() {
            continue;
        }
        let svg = crate::plot::line_chart(title, "threads", ylab, &series);
        if let Ok(path) = crate::plot::write_svg(&cfg.out_dir, name, &svg) {
            println!("[svg written to {}]", path.display());
            rendered += 1;
        }
    }

    // fig9 / fig11 geomean tables: columns are matrix, threads, kernels...
    for (name, title) in [
        (
            "fig9",
            "Fig. 9 — reduction-method speedup (geomean, baseline: serial CSR)",
        ),
        (
            "fig11",
            "Fig. 11 — format speedup (geomean, baseline: serial CSR)",
        ),
    ] {
        let Some((hdr, rows)) = read(name) else {
            continue;
        };
        if hdr.len() < 3 {
            continue;
        }
        let series: Vec<crate::plot::Series> = hdr[2..]
            .iter()
            .enumerate()
            .take(4)
            .map(|(i, h)| crate::plot::Series {
                name: h.clone(),
                points: rows
                    .iter()
                    .filter_map(|r| {
                        Some((
                            crate::report::parse_cell_number(&r[1])?,
                            crate::report::parse_cell_number(&r[i + 2])?,
                        ))
                    })
                    .collect(),
            })
            .filter(|s| s.points.len() >= 2)
            .collect();
        if series.is_empty() {
            continue;
        }
        let svg = crate::plot::line_chart(title, "threads", "speedup vs serial CSR", &series);
        if let Ok(path) = crate::plot::write_svg(&cfg.out_dir, name, &svg) {
            println!("[svg written to {}]", path.display());
            rendered += 1;
        }
    }
    println!("{rendered} figures rendered\n");
    Ok(())
}

/// Extension — resilience chaos soak: replays a seeded kill/delay/
/// corrupt/wedge fault schedule against the [`symspmv_core::Resilient`]
/// service on every kind-suite matrix, verifying that each request is
/// served bit-identically (parallel vs the fault-free baseline, fallback
/// vs the serial reference) and that availability stays 100%. See
/// [`crate::chaos`] and DESIGN.md §16.
#[cfg(feature = "fault-injection")]
pub fn chaos(cfg: &ExpConfig) -> Result<(), HarnessError> {
    crate::chaos::run(cfg)
}

/// Without the `fault-injection` feature the runtime carries no injection
/// hooks, so the chaos driver cannot arm its schedule; explain how to get
/// a soak instead of silently doing nothing.
#[cfg(not(feature = "fault-injection"))]
pub fn chaos(_cfg: &ExpConfig) -> Result<(), HarnessError> {
    Err(HarnessError::Config(
        "the chaos soak needs the runtime's fault-injection hooks; rebuild with \
         `cargo run --release -p symspmv-harness --features fault-injection \
         --bin experiments -- chaos`"
            .into(),
    ))
}

/// Extension — `experiments tune` (DESIGN.md §18): the measured plan
/// search. For every suite matrix it times all seven buildable `format ×
/// reduction method` pairs at every thread count of the sweep — clamped to
/// the CPUs this host has, since an oversubscribed pool is an overhead
/// study, not a plan — persists the certified winner in the on-disk plan
/// store, and proves the store works by re-running the search (which must
/// hit, without re-measurement, and reproduce the same plan). Writes the
/// full search table as `tune.csv` and the winners, next to the paper's
/// default (SSS + local-vectors indexing at the full thread count), as
/// `tune_summary.csv`.
pub fn tune(cfg: &ExpConfig) -> Result<(), HarnessError> {
    use symspmv_core::PlanSpec;
    use symspmv_tune::{tune_and_store, PlanStore, TimedMeasurer};

    let store_dir = std::env::var_os("SYMSPMV_PLAN_STORE")
        .map(PathBuf::from)
        .unwrap_or_else(|| cfg.out_dir.join(".plan-store"));
    let ncpus = symspmv_tune::machine::ncpus();
    let max_p = cfg.max_threads.min(ncpus);
    if max_p < cfg.max_threads {
        println!(
            "[--threads {} clamped to the {ncpus} CPUs of this host]",
            cfg.max_threads
        );
    }
    let threads = thread_sweep(max_p);
    let default = PlanSpec::paper_default(max_p);
    let plan_err = |name: &str, e: symspmv_core::SymSpmvError| {
        HarnessError::matrix("plan search", name.to_string(), e)
    };

    println!(
        "== Auto-tuning: measured plan search (store: {}, schema v{}) ==\n",
        store_dir.display(),
        symspmv_tune::PLAN_STORE_VERSION,
    );

    let mut measurer = TimedMeasurer::new();
    let mut search = Table::new(&["matrix", "candidate", "samples", "per-vector", "note"]);
    let mut summary = Table::new(&[
        "matrix",
        "source",
        "plan",
        "winner s/vec",
        "default s/vec",
        "win vs default",
    ]);

    for m in cfg.suite() {
        let name = m.spec.name;
        let mut store = PlanStore::open(&store_dir).map_err(|e| plan_err(name, e))?;
        if store.ignored_version_mismatch() {
            println!("[{name}: plan store has a different schema version; starting fresh]");
        }
        let (outcome, hit) = tune_and_store(&m.coo, &mut store, &threads, &mut measurer)
            .map_err(|e| plan_err(name, e))?;
        if hit {
            summary.row(vec![
                name.into(),
                "store".into(),
                outcome.winner.spec.id(),
                fmt_secs(outcome.winner.measured_secs),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }

        // The sweep ends at `max_p`, so the default is always among the rows.
        let mut default_secs = f64::NAN;
        for row in &outcome.rows {
            let mut notes = Vec::new();
            if row.spec == outcome.winner.spec {
                notes.push("winner");
            }
            if row.spec == default {
                notes.push("default");
                default_secs = row.per_vector_secs;
            }
            search.row(vec![
                name.into(),
                row.spec.id(),
                row.samples.len().to_string(),
                fmt_secs(row.per_vector_secs),
                notes.join(", "),
            ]);
        }

        // Second run against the just-saved store: it must hit (no
        // re-measurement) and serve back the identical certified plan.
        let mut reloaded = PlanStore::open(&store_dir).map_err(|e| plan_err(name, e))?;
        let (again, hit2) = tune_and_store(&m.coo, &mut reloaded, &threads, &mut measurer)
            .map_err(|e| plan_err(name, e))?;
        if !hit2 || !again.rows.is_empty() || again.winner != outcome.winner {
            return Err(HarnessError::Config(format!(
                "tune({name}): the persisted plan did not reproduce on reload \
                 (hit={hit2}, re-measured={}); the plan store is not round-tripping",
                again.rows.len()
            )));
        }

        // Which path does the engine itself take now? `SymSpmv::auto`
        // must consult the store and report it.
        let (_, choice) =
            symspmv_tune::auto_kernel(&m.coo, Some(&reloaded)).map_err(|e| plan_err(name, e))?;
        summary.row(vec![
            name.into(),
            choice.source.tag().into(),
            outcome.winner.spec.id(),
            fmt_secs(outcome.winner.measured_secs),
            fmt_secs(default_secs),
            format!(
                "{:.2}x",
                default_secs / outcome.winner.measured_secs.max(1e-12)
            ),
        ]);
    }

    cfg.emit("tune", &search)?;
    println!("== Tuned plans ==\n");
    cfg.emit("tune_summary", &summary)
}

/// Runs every experiment in paper order, stopping at the first failure.
pub fn all(cfg: &ExpConfig) -> Result<(), HarnessError> {
    machine(cfg)?;
    table1(cfg)?;
    fig4(cfg)?;
    fig5(cfg)?;
    fig9(cfg)?;
    fig10(cfg)?;
    fig11(cfg)?;
    fig12(cfg)?;
    table3(cfg)?;
    fig13(cfg)?;
    preproc(cfg)?;
    fig14(cfg)?;
    ablation(cfg)?;
    spmm(cfg)?;
    kinds(cfg)?;
    colors(cfg)?;
    tune(cfg)
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn thread_sweep_covers_powers_and_max() {
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_sweep(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_sweep(1), vec![1]);
    }

    #[test]
    fn suite_filter_and_cache() {
        let dir = std::env::temp_dir().join("symspmv_cfg_test");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ExpConfig {
            scale: 0.002,
            matrices: vec!["hood".into(), "nd12k".into()],
            out_dir: dir.clone(),
            ..ExpConfig::default()
        };
        let suite = cfg.suite();
        assert_eq!(suite.len(), 2);
        assert_eq!(suite[0].spec.name, "hood");
        // Cache files were written and a second load agrees.
        assert!(dir.join(".suite-cache").exists());
        let again = cfg.suite();
        assert_eq!(again[1].coo, suite[1].coo);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_config_sane() {
        let cfg = ExpConfig::default();
        assert!(cfg.scale > 0.0);
        assert!(cfg.iterations > 0);
        assert!(cfg.max_threads >= 1);
    }
}
