//! The measured plan search: every candidate timed, the winner certified
//! in front of the store.
//!
//! The search runs in three stages (DESIGN.md §18):
//!
//! 1. **Enumerate.** [`symspmv_core::auto::enumerate_candidates`] lists
//!    the seven buildable `format × method` pairs once per thread count.
//!    Nothing is pruned: the space is small enough to measure whole, and
//!    the traffic model that used to prune it ranked the eventual winner
//!    out of the measured set (EXPERIMENTS.md, "recorded losers").
//! 2. **Measure.** Each candidate is built as a real kernel on a real
//!    [`ExecutionContext`] of its thread count and timed over a few short
//!    runs of the scalar SpMV. The median per-vector time is the
//!    candidate's score. Measurement is behind the [`Measurer`] trait so
//!    tests can substitute a deterministic fake.
//! 3. **Certify & pick.** The winner (the measured argmin) is rebuilt and
//!    its [`RaceCertificate`](symspmv_verify::RaceCertificate) is validated
//!    for exactly the tuned configuration before the plan may be stored or
//!    used.

use crate::store::{PlanStore, TunedPlan};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use symspmv_core::auto::{enumerate_candidates, PlanSpec};
use symspmv_core::{ParallelSpmv, SymSpmv, SymSpmvError};
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::{CooMatrix, SparseError, SssMatrix};

/// One line of the search table.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateRow {
    /// The configuration.
    pub spec: PlanSpec,
    /// Raw per-vector samples in seconds.
    pub samples: Vec<f64>,
    /// Median per-vector seconds.
    pub per_vector_secs: f64,
}

/// The full result of one matrix search.
#[derive(Debug, PartialEq)]
pub struct TuneOutcome {
    /// Structural fingerprint of the tuned matrix.
    pub fingerprint: u64,
    /// Every candidate, in enumeration order, each measured; empty when
    /// the plan store served the winner.
    pub rows: Vec<CandidateRow>,
    /// The certified winner.
    pub winner: TunedPlan,
}

/// How candidate timings are produced. The real implementation times
/// kernels on live pools; tests inject a deterministic fake so two runs
/// are bit-identical.
pub trait Measurer {
    /// Returns per-vector timings (seconds) for `spec` on `sss`.
    fn measure(&mut self, sss: &SssMatrix, spec: &PlanSpec) -> Result<Vec<f64>, SymSpmvError>;
}

/// Wall-clock measurement of the scalar SpMV through the shared runtime:
/// one [`ExecutionContext`] per distinct thread count, reused across
/// candidates, plan cache pre-sized so the sweep cannot thrash its own
/// LRU.
#[derive(Default)]
pub struct TimedMeasurer {
    pools: HashMap<usize, Arc<ExecutionContext>>,
}

impl TimedMeasurer {
    /// Timed samples per candidate (the median is the score).
    const SAMPLES: usize = 5;
    /// SpMV iterations per sample.
    const ITERATIONS: usize = 16;

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
    fn measure(&mut self, sss: &SssMatrix, spec: &PlanSpec) -> Result<Vec<f64>, SymSpmvError> {
        // Each strategy contributes one plan entry plus the shared
        // partition; 2× the strategy count is a safe per-sweep bound.
        let ctx = self.pool(spec.nthreads, 8);
        let mut kernel = SymSpmv::from_sss(sss.clone(), &ctx, spec.method, spec.format.to_format());
        let n = kernel.n();
        let mut x = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        kernel.try_spmv(&x, &mut y)?; // warm-up & fault surface
        std::mem::swap(&mut x, &mut y);
        let mut samples = Vec::with_capacity(Self::SAMPLES);
        for _ in 0..Self::SAMPLES {
            let t0 = Instant::now();
            for _ in 0..Self::ITERATIONS {
                kernel.spmv(&x, &mut y);
                std::mem::swap(&mut x, &mut y);
            }
            samples.push(t0.elapsed().as_secs_f64() / Self::ITERATIONS as f64);
        }
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

/// Runs the full search on `coo`: measures every buildable pair at every
/// count in `threads` and certifies the fastest. Pure with respect to the
/// plan store — see [`tune_and_store`] for the persisted flow.
pub fn tune_matrix(
    coo: &CooMatrix,
    threads: &[usize],
    measurer: &mut dyn Measurer,
) -> Result<TuneOutcome, SymSpmvError> {
    let sss = SssMatrix::try_from_coo(coo, 0.0)?;

    let mut rows = Vec::new();
    for spec in enumerate_candidates(threads) {
        let samples = measurer.measure(&sss, &spec)?;
        let per_vector_secs = median(&samples);
        rows.push(CandidateRow {
            spec,
            samples,
            per_vector_secs,
        });
    }
    let best = rows
        .iter()
        .min_by(|a, b| a.per_vector_secs.total_cmp(&b.per_vector_secs))
        .ok_or_else(|| invalid("tuning search space is empty".to_string()))?;
    certify_spec(&sss, &best.spec)?;

    let winner = TunedPlan {
        spec: best.spec,
        measured_secs: best.per_vector_secs,
        candidates_measured: rows.len(),
        certified: true,
    };
    Ok(TuneOutcome {
        fingerprint: sss.fingerprint(),
        rows,
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
    threads: &[usize],
    measurer: &mut dyn Measurer,
) -> Result<(TuneOutcome, bool), SymSpmvError> {
    let sss = SssMatrix::try_from_coo(coo, 0.0)?;
    let fingerprint = sss.fingerprint();
    if let Some(plan) = store.get(fingerprint).cloned() {
        certify_spec(&sss, &plan.spec)?;
        let outcome = TuneOutcome {
            fingerprint,
            rows: Vec::new(),
            winner: plan,
        };
        return Ok((outcome, true));
    }
    let outcome = tune_matrix(coo, threads, measurer)?;
    store.put(fingerprint, outcome.winner.clone())?;
    store.save()?;
    Ok((outcome, false))
}

/// The `ParallelSpmv`-level auto constructor: builds the best-known kernel
/// for `coo` on its *own* context sized by the decision — a stored plan's
/// tuned thread count when the store matches, the machine's CPU count
/// for the paper's default otherwise. Returns the kernel (as the trait
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

    #[test]
    fn timed_measurer_produces_positive_samples() {
        let coo = symspmv_sparse::gen::laplacian_2d(14, 14);
        let outcome = tune_matrix(&coo, &[1, 2], &mut TimedMeasurer::new()).unwrap();
        assert!(outcome.winner.certified);
        assert!(outcome.winner.measured_secs > 0.0);
        assert!(outcome.rows.iter().all(
            |r| r.samples.len() == TimedMeasurer::SAMPLES && r.samples.iter().all(|s| *s > 0.0)
        ));
    }

    #[test]
    fn an_empty_thread_list_is_a_typed_error() {
        let coo = symspmv_sparse::gen::laplacian_2d(10, 10);
        assert!(tune_matrix(&coo, &[], &mut TimedMeasurer::new()).is_err());
    }

    #[test]
    fn certify_spec_rejects_invalid_plans() {
        let coo = symspmv_sparse::gen::laplacian_2d(10, 10);
        let sss = SssMatrix::try_from_coo(&coo, 0.0).unwrap();
        let bad = PlanSpec {
            format: symspmv_core::auto::FormatTag::CsxSym,
            method: symspmv_core::ReductionMethod::Race,
            nthreads: 2,
        };
        assert!(certify_spec(&sss, &bad).is_err());
    }
}
