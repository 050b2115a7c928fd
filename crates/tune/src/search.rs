//! The measured plan search: cost-model pruning, short timed runs, and
//! the certifier gate in front of the store.
//!
//! The search runs in three stages (DESIGN.md §18):
//!
//! 1. **Enumerate & prune.** [`symspmv_core::auto::enumerate_candidates`]
//!    scores the full `format × method × threads × lanes` space with the
//!    Eq. 1–2/3–6 traffic model; candidates predicted worse than
//!    `prune_factor ×` the best prediction are dropped — but never below
//!    `min_keep` survivors, because the model is only trusted to order
//!    coarsely.
//! 2. **Measure.** Each survivor is built as a real kernel on a real
//!    [`ExecutionContext`] of its thread count and timed over
//!    `samples × iterations` short runs through the existing
//!    `PhaseTimes`-instrumented SpMV/SpMM paths. The median per-vector
//!    time is the candidate's score. Measurement is behind the
//!    [`Measurer`] trait so tests can substitute a deterministic model.
//! 3. **Certify & pick.** The winner (best measured scalar candidate,
//!    with the best lane width of its configuration attached) is rebuilt
//!    and its [`RaceCertificate`](symspmv_verify::RaceCertificate) is
//!    validated for exactly the tuned configuration before the plan may
//!    be stored or used.

use crate::store::{PlanStore, TunedPlan};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use symspmv_core::auto::{enumerate_candidates, FormatTag, PlanSpec};
use symspmv_core::{ParallelSpmm, ParallelSpmv, ReductionMethod, SymSpmv, SymSpmvError};
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::block::VectorBlock;
use symspmv_sparse::stats::{matrix_stats, MatrixStats};
use symspmv_sparse::{CooMatrix, SparseError, SssMatrix};

/// Search-space and budget configuration.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Thread counts to explore (each gets its own pool).
    pub thread_counts: Vec<usize>,
    /// SpMM lane widths to explore; `1` (scalar SpMV) is always included.
    pub lanes: Vec<usize>,
    /// Timed samples per candidate (median taken).
    pub samples: usize,
    /// SpMV/SpMM iterations per sample.
    pub iterations: usize,
    /// Keep candidates predicted within this factor of the best
    /// prediction.
    pub prune_factor: f64,
    /// Never prune below this many survivors.
    pub min_keep: usize,
    /// Seed for deterministic measurers (ignored by wall-clock timing).
    pub seed: u64,
}

impl TuneOptions {
    /// A bounded default space for a machine with `ncpus` logical CPUs:
    /// power-of-two thread counts up to `ncpus`, lane widths {1, 8},
    /// 5 samples per candidate.
    pub fn for_machine(ncpus: usize) -> TuneOptions {
        let mut thread_counts = vec![1usize];
        let mut p = 2;
        while p < ncpus {
            thread_counts.push(p);
            p *= 2;
        }
        if ncpus > 1 {
            thread_counts.push(ncpus);
        }
        TuneOptions {
            thread_counts,
            lanes: vec![1, 8],
            samples: 5,
            iterations: 16,
            prune_factor: 1.6,
            min_keep: 12,
            seed: 0xC4A05,
        }
    }

    fn lanes_with_scalar(&self) -> Vec<usize> {
        let mut lanes = self.lanes.clone();
        if !lanes.contains(&1) {
            lanes.insert(0, 1);
        }
        lanes
    }
}

/// One line of the search table.
#[derive(Debug, Clone)]
pub struct CandidateRow {
    /// The configuration.
    pub spec: PlanSpec,
    /// Cost-model prediction (bytes per vector, ranking-only units).
    pub predicted_bytes: f64,
    /// `true` when the cost model pruned this candidate before
    /// measurement.
    pub pruned: bool,
    /// Raw per-vector samples in seconds (empty when pruned).
    pub samples: Vec<f64>,
    /// Median per-vector seconds (`INFINITY` when pruned).
    pub per_vector_secs: f64,
}

/// The full result of one matrix search.
#[derive(Debug)]
pub struct TuneOutcome {
    /// Structural fingerprint of the tuned matrix.
    pub fingerprint: u64,
    /// The stats the cost model ranked from.
    pub stats: MatrixStats,
    /// Every enumerated candidate, pruned and measured alike, sorted by
    /// predicted cost.
    pub rows: Vec<CandidateRow>,
    /// Survivor count (rows actually measured).
    pub measured: usize,
    /// The certified winner.
    pub winner: TunedPlan,
}

/// How candidate timings are produced. The real implementation times
/// kernels on live pools; tests inject a deterministic model so two runs
/// with one seed are bit-identical.
pub trait Measurer {
    /// Returns `samples` per-vector timings (seconds) for `spec` on
    /// `sss`. `predicted` is the candidate's cost-model score, available
    /// to synthetic measurers.
    fn measure(
        &mut self,
        sss: &SssMatrix,
        spec: &PlanSpec,
        predicted: f64,
        opts: &TuneOptions,
    ) -> Result<Vec<f64>, SymSpmvError>;
}

/// Wall-clock measurement through the shared runtime: one
/// [`ExecutionContext`] per distinct thread count (reused across
/// candidates, plan cache pre-sized so the sweep cannot thrash its own
/// LRU), scalar SpMV for `lanes == 1`, lane-interleaved SpMM otherwise.
#[derive(Default)]
pub struct TimedMeasurer {
    pools: HashMap<usize, Arc<ExecutionContext>>,
}

impl TimedMeasurer {
    /// A measurer with no pools yet; pools are created per thread count on
    /// first use.
    pub fn new() -> TimedMeasurer {
        TimedMeasurer::default()
    }

    fn pool(&mut self, nthreads: usize, plan_slots: usize) -> Arc<ExecutionContext> {
        let ctx = self
            .pools
            .entry(nthreads)
            .or_insert_with(|| ExecutionContext::new(nthreads));
        ctx.plan_cache_reserve(plan_slots);
        Arc::clone(ctx)
    }
}

impl Measurer for TimedMeasurer {
    fn measure(
        &mut self,
        sss: &SssMatrix,
        spec: &PlanSpec,
        _predicted: f64,
        opts: &TuneOptions,
    ) -> Result<Vec<f64>, SymSpmvError> {
        // Each strategy contributes one plan entry plus the shared
        // partition; 2× the strategy count is a safe per-sweep bound.
        let ctx = self.pool(spec.nthreads, 8);
        let mut kernel = SymSpmv::from_sss(sss.clone(), &ctx, spec.method, spec.format.to_format());
        let n = kernel.n();
        let iters = opts.iterations.max(1);
        let mut samples = Vec::with_capacity(opts.samples);
        if spec.lanes == 1 {
            let mut x = vec![1.0f64; n];
            let mut y = vec![0.0f64; n];
            kernel.try_spmv(&x, &mut y)?; // warm-up & fault surface
            std::mem::swap(&mut x, &mut y);
            for _ in 0..opts.samples.max(1) {
                let t0 = Instant::now();
                for _ in 0..iters {
                    kernel.spmv(&x, &mut y);
                    std::mem::swap(&mut x, &mut y);
                }
                samples.push(t0.elapsed().as_secs_f64() / iters as f64);
            }
        } else {
            let mut x = VectorBlock::seeded(n, spec.lanes, 0xFEED);
            let mut y = VectorBlock::zeros(n, spec.lanes);
            kernel.spmm(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
            for _ in 0..opts.samples.max(1) {
                let t0 = Instant::now();
                for _ in 0..iters {
                    kernel.spmm(&x, &mut y);
                    std::mem::swap(&mut x, &mut y);
                }
                // Score is *per vector*: SpMM wall time over lanes.
                samples.push(t0.elapsed().as_secs_f64() / (iters * spec.lanes) as f64);
            }
        }
        Ok(samples)
    }
}

/// A deterministic pseudo-measurer: "timings" are the cost-model
/// prediction perturbed by a SplitMix64 stream seeded from
/// `(opts.seed, spec.id())`. Two runs with the same seed produce
/// bit-identical samples — the determinism contract the test suite pins.
#[derive(Debug, Default, Clone, Copy)]
pub struct ModelMeasurer;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Measurer for ModelMeasurer {
    fn measure(
        &mut self,
        _sss: &SssMatrix,
        spec: &PlanSpec,
        predicted: f64,
        opts: &TuneOptions,
    ) -> Result<Vec<f64>, SymSpmvError> {
        let mut state = opts.seed;
        for byte in spec.id().bytes() {
            state = state.wrapping_mul(0x100).wrapping_add(byte as u64);
            splitmix64(&mut state);
        }
        let samples = (0..opts.samples.max(1))
            .map(|_| {
                // ±5% multiplicative jitter around a fictional 10 GB/s.
                let jitter = (splitmix64(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
                predicted / 10e9 * (0.95 + 0.1 * jitter)
            })
            .collect();
        Ok(samples)
    }
}

fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::INFINITY;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

fn invalid(msg: String) -> SymSpmvError {
    SymSpmvError::InvalidStructure(SparseError::Parse { line: 0, msg })
}

/// The certifier gate: rebuilds `spec` over `sss` and validates the
/// plan's race certificate for exactly the tuned configuration. An `Err`
/// here means the plan must be neither stored nor used.
pub fn certify_spec(sss: &SssMatrix, spec: &PlanSpec) -> Result<(), SymSpmvError> {
    if !spec.is_valid() {
        return Err(invalid(format!("{} is not a buildable plan", spec.id())));
    }
    let ctx = ExecutionContext::new(spec.nthreads);
    let kernel = SymSpmv::from_sss(sss.clone(), &ctx, spec.method, spec.format.to_format());
    kernel
        .certificate()
        .validate_for(
            sss.fingerprint(),
            spec.nthreads,
            "sym-sss",
            spec.method.tag(),
        )
        .map_err(|e| {
            invalid(format!(
                "tuned plan {} failed certification: {e}",
                spec.id()
            ))
        })
}

/// Runs the full search on `coo` with the given measurer. Pure with
/// respect to the plan store — see [`tune_and_store`] for the persisted
/// flow.
pub fn tune_matrix(
    coo: &CooMatrix,
    opts: &TuneOptions,
    measurer: &mut dyn Measurer,
) -> Result<TuneOutcome, SymSpmvError> {
    let sss = SssMatrix::try_from_coo(coo, 0.0)?;
    let stats = matrix_stats(coo);
    let kind = sss.kind();
    let fingerprint = sss.fingerprint();

    // Stage 1: enumerate and prune on predicted traffic.
    let lanes = opts.lanes_with_scalar();
    let mut scored = enumerate_candidates(&stats, kind, &opts.thread_counts, &lanes);
    if scored.is_empty() {
        return Err(invalid("tuning search space is empty".to_string()));
    }
    scored.sort_by(|a, b| a.1.total_cmp(&b.1));
    let best_predicted = scored[0].1;
    let cut = best_predicted * opts.prune_factor.max(1.0);
    let keep = scored
        .iter()
        .filter(|(_, c)| *c <= cut)
        .count()
        .max(opts.min_keep.min(scored.len()));
    let mut kept: Vec<bool> = (0..scored.len()).map(|i| i < keep).collect();
    // The persisted plan is a scalar-SpMV decision, so at least one
    // scalar candidate must always be measured — SpMM lane amortization
    // would otherwise let wide candidates crowd every `k=1` point out of
    // the band.
    if !scored
        .iter()
        .zip(&kept)
        .any(|((s, _), &k)| k && s.lanes == 1)
    {
        if let Some(i) = scored.iter().position(|(s, _)| s.lanes == 1) {
            kept[i] = true;
        }
    }
    // The paper's conventional recommendation (SSS + local-vectors
    // indexing at full thread count) is always measured too: it is the
    // baseline the tuned plan must never lose to beyond noise, so the
    // comparison has to be in the table.
    let max_p = opts.thread_counts.iter().copied().max().unwrap_or(1);
    if let Some(i) = scored.iter().position(|(s, _)| {
        s.format == FormatTag::Sss
            && s.method == ReductionMethod::Indexing
            && s.nthreads == max_p
            && s.lanes == 1
    }) {
        kept[i] = true;
    }

    // Stage 2: measure the survivors.
    let mut rows = Vec::with_capacity(scored.len());
    for (i, (spec, predicted)) in scored.iter().enumerate() {
        if !kept[i] {
            rows.push(CandidateRow {
                spec: *spec,
                predicted_bytes: *predicted,
                pruned: true,
                samples: Vec::new(),
                per_vector_secs: f64::INFINITY,
            });
            continue;
        }
        let samples = measurer.measure(&sss, spec, *predicted, opts)?;
        let per_vector_secs = median(&samples);
        rows.push(CandidateRow {
            spec: *spec,
            predicted_bytes: *predicted,
            pruned: false,
            samples,
            per_vector_secs,
        });
    }
    let measured = rows.iter().filter(|r| !r.pruned).count();

    // Stage 3: pick the winner and pass it through the certifier gate.
    // The *plan* is a scalar-SpMV decision (format × method × threads);
    // the lane axis rides along as the best lane width measured for that
    // same configuration, for SpMM/batched callers.
    let scalar_best = rows
        .iter()
        .filter(|r| !r.pruned && r.spec.lanes == 1)
        .min_by(|a, b| a.per_vector_secs.total_cmp(&b.per_vector_secs))
        .ok_or_else(|| invalid("no scalar candidate survived pruning".to_string()))?;
    let best_lanes = rows
        .iter()
        .filter(|r| {
            !r.pruned
                && r.spec.format == scalar_best.spec.format
                && r.spec.method == scalar_best.spec.method
                && r.spec.nthreads == scalar_best.spec.nthreads
        })
        .min_by(|a, b| a.per_vector_secs.total_cmp(&b.per_vector_secs))
        .map(|r| r.spec.lanes)
        .unwrap_or(1);

    let spec = PlanSpec {
        lanes: best_lanes,
        ..scalar_best.spec
    };
    certify_spec(&sss, &spec)?;

    let winner = TunedPlan {
        spec,
        predicted_bytes: scalar_best.predicted_bytes,
        measured_secs: scalar_best.per_vector_secs,
        candidates_measured: measured,
        certified: true,
    };
    Ok(TuneOutcome {
        fingerprint,
        stats,
        rows,
        measured,
        winner,
    })
}

/// The persisted flow: a store hit short-circuits the search entirely
/// (no re-measurement) and is re-certified before being served; a miss
/// runs [`tune_matrix`], stores the certified winner, and saves the
/// store. Returns the outcome plus whether the store served it.
pub fn tune_and_store(
    coo: &CooMatrix,
    store: &mut PlanStore,
    opts: &TuneOptions,
    measurer: &mut dyn Measurer,
) -> Result<(TuneOutcome, bool), SymSpmvError> {
    let sss = SssMatrix::try_from_coo(coo, 0.0)?;
    let fingerprint = sss.fingerprint();
    if let Some(plan) = store.get(fingerprint).cloned() {
        certify_spec(&sss, &plan.spec)?;
        let outcome = TuneOutcome {
            fingerprint,
            stats: matrix_stats(coo),
            rows: Vec::new(),
            measured: 0,
            winner: plan,
        };
        return Ok((outcome, true));
    }
    let outcome = tune_matrix(coo, opts, measurer)?;
    store.put(fingerprint, outcome.winner.clone())?;
    store.save()?;
    Ok((outcome, false))
}

/// The `ParallelSpmv`-level auto constructor: builds the best-known kernel
/// for `coo` on its *own* context sized by the decision — a stored plan's
/// tuned thread count when the store matches, the machine's CPU count
/// under the cost model otherwise. Returns the kernel (as the trait
/// object the solvers and the harness consume) plus the decision record.
pub fn auto_kernel(
    coo: &CooMatrix,
    store: Option<&PlanStore>,
) -> Result<
    (
        Box<dyn symspmv_core::ParallelSpmv>,
        symspmv_core::auto::AutoChoice,
    ),
    SymSpmvError,
> {
    let nthreads = match store {
        Some(s) => {
            let sss = SssMatrix::try_from_coo(coo, 0.0)?;
            s.get(sss.fingerprint())
                .map(|p| p.spec.nthreads)
                .unwrap_or_else(crate::machine::ncpus)
        }
        None => crate::machine::ncpus(),
    };
    let ctx = ExecutionContext::new(nthreads);
    let advisor = store.map(|s| s as &dyn symspmv_core::auto::PlanAdvisor);
    let (engine, choice) = SymSpmv::auto_with(&ctx, coo, advisor)?;
    Ok((Box::new(engine), choice))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_opts() -> TuneOptions {
        TuneOptions {
            thread_counts: vec![1, 2],
            lanes: vec![1, 4],
            samples: 3,
            iterations: 2,
            prune_factor: 1.6,
            min_keep: 12,
            seed: 7,
        }
    }

    #[test]
    fn search_keeps_at_least_min_keep_candidates() {
        let coo = symspmv_sparse::gen::laplacian_2d(18, 18);
        let outcome = tune_matrix(&coo, &small_opts(), &mut ModelMeasurer).unwrap();
        assert!(outcome.measured >= 12, "measured {} < 12", outcome.measured);
        assert!(outcome.winner.certified);
        assert_eq!(
            outcome.winner.spec.nthreads.min(2),
            outcome.winner.spec.nthreads
        );
    }

    #[test]
    fn model_measurer_is_deterministic() {
        let coo = symspmv_sparse::gen::laplacian_2d(16, 16);
        let a = tune_matrix(&coo, &small_opts(), &mut ModelMeasurer).unwrap();
        let b = tune_matrix(&coo, &small_opts(), &mut ModelMeasurer).unwrap();
        assert_eq!(a.winner, b.winner);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(
                ra.samples,
                rb.samples,
                "samples differ for {}",
                ra.spec.id()
            );
        }
    }

    #[test]
    fn timed_measurer_produces_positive_samples() {
        let coo = symspmv_sparse::gen::laplacian_2d(14, 14);
        let mut opts = small_opts();
        opts.samples = 2;
        let outcome = tune_matrix(&coo, &opts, &mut TimedMeasurer::new()).unwrap();
        assert!(outcome.winner.measured_secs > 0.0);
        assert!(outcome
            .rows
            .iter()
            .filter(|r| !r.pruned)
            .all(|r| r.samples.iter().all(|s| *s > 0.0)));
    }

    #[test]
    fn certify_spec_rejects_invalid_plans() {
        let coo = symspmv_sparse::gen::laplacian_2d(10, 10);
        let sss = SssMatrix::try_from_coo(&coo, 0.0).unwrap();
        let bad = PlanSpec {
            format: symspmv_core::auto::FormatTag::CsxSym,
            method: symspmv_core::ReductionMethod::Race,
            nthreads: 2,
            lanes: 1,
        };
        assert!(certify_spec(&sss, &bad).is_err());
    }
}
