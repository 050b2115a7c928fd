//! Plan selection (DESIGN.md §18): the measured search, the persisted
//! tuned-plan store, and the one auto constructor.
//!
//! The paper selects nothing at run time: §III/§V fix "local-vectors
//! indexing, on SSS or CSX-Sym" from measurements on two machines. The
//! better `format × thread count` point does move with matrix structure and
//! hardware, but only a measurement finds it — the Eq. 1–6 traffic model
//! that once ranked candidates mis-ranked every suite matrix, and when every
//! `format × method` pair was measured the best `naive`, `eff` or `race`
//! plan trailed the winner by 3–28 % on every suite matrix (EXPERIMENTS.md,
//! "recorded losers"). So a plan always reduces by indexing, and it is
//! either a measurement or the paper's default:
//!
//! 1. **Enumerate.** [`enumerate_candidates`] lists the two `idx` pairs,
//!    `sss-idx` and `csxsym-idx`, once per thread count. Nothing is pruned.
//! 2. **Measure.** Each candidate is built as a real kernel on a real
//!    [`ExecutionContext`] of its thread count and timed over a few short
//!    runs of the scalar SpMV. The median per-vector time is the
//!    candidate's score. Measurement is behind the [`Measurer`] trait so
//!    tests can substitute a deterministic fake.
//! 3. **Pick.** The winner is the measured argmin, persisted by
//!    [`PlanStore`] as `(format, threads)`. Nothing re-proves it: a plan's
//!    race certificate is minted when a kernel builds it, for exactly that
//!    kernel's configuration.
//!
//! [`auto_kernel`] is the consumer: matrix in, best-known kernel (own pool,
//! tuned thread count) out.
//!
//! The store is one JSON file (`plans.json` inside the store directory,
//! conventionally `<out>/.plan-store` next to the binary matrix cache)
//! holding every tuned plan the machine has measured, keyed by `(matrix
//! fingerprint, ncpus, machine model)`. The format is deliberately boring:
//!
//! ```json
//! {"version": 6,
//!  "plans": [{"fingerprint": "0xabc...", "ncpus": 4, "machine": "...",
//!             "format": "sss", "nthreads": 4,
//!             "measured_secs": 3.1e-5, "candidates_measured": 4}]}
//! ```
//!
//! Failure policy (exercised by the `plan_store` test suite):
//!
//! * a missing file is an **empty store**, not an error;
//! * a `version` other than [`PLAN_STORE_VERSION`] means the schema moved
//!   — the file is **ignored** (the tuner re-measures and rewrites it),
//!   never misinterpreted;
//! * corrupted JSON or a malformed entry (among them `"nthreads": 0`, a
//!   plan no pool can run) surfaces as a typed [`SymSpmvError`], never a
//!   panic;
//! * fingerprints are stored as hex *strings*: the JSON number line is
//!   `f64` and would silently destroy high bits of a 64-bit hash.

use crate::machine::{machine_model, ncpus};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use symspmv_core::sym::pair_name;
use symspmv_core::{FormatTag, ParallelSpmv, ReductionMethod, SymSpmv, SymSpmvError};
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::{SparseError, SssMatrix};
use symspmv_verify::jsonio::Json;

/// One point of the tuning search space. Every plan reduces by
/// local-vectors indexing (§III-C), which both formats support, so every
/// `PlanSpec` builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanSpec {
    /// Storage format family.
    pub format: FormatTag,
    /// Worker-thread count the plan was selected for.
    pub nthreads: usize,
}

impl PlanSpec {
    /// The paper's recommendation at `nthreads`: SSS with local-vectors
    /// indexing.
    pub fn paper_default(nthreads: usize) -> PlanSpec {
        PlanSpec {
            format: FormatTag::Sss,
            nthreads,
        }
    }

    /// Candidate identifier, e.g. `"csxsym-idx-p4"` — stable across runs,
    /// used as the candidate column of the search tables.
    pub fn id(&self) -> String {
        format!(
            "{}-p{}",
            pair_name(self.format, ReductionMethod::Indexing),
            self.nthreads
        )
    }
}

/// Which path [`auto_kernel`] took to its decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// A persisted tuned plan matched the store key.
    Store,
    /// No stored plan matched; the paper's `sss-idx` was built.
    Default,
}

impl PlanSource {
    /// Short name for tables (`"store"` / `"default"`).
    pub fn tag(&self) -> &'static str {
        match self {
            PlanSource::Store => "store",
            PlanSource::Default => "default",
        }
    }
}

/// The decision record returned alongside an auto-built kernel.
#[derive(Debug, Clone)]
pub struct AutoChoice {
    /// The selected configuration.
    pub spec: PlanSpec,
    /// Where the decision came from.
    pub source: PlanSource,
}

/// The whole search space for the given thread counts: both formats once
/// per thread count, formats outermost.
pub fn enumerate_candidates(threads: &[usize]) -> Vec<PlanSpec> {
    let mut out = Vec::new();
    for format in FormatTag::ALL {
        for &nthreads in threads {
            out.push(PlanSpec { format, nthreads });
        }
    }
    out
}

/// Builds the best-known kernel for `sss` on its *own* context: a stored
/// plan's format and thread count when `store` has one for this matrix
/// under its machine identity, the paper's `sss-idx` at the machine's CPU
/// count otherwise. Returns the kernel plus the decision record. Building
/// the kernel mints its race certificate, whichever source chose the plan.
pub fn auto_kernel(sss: SssMatrix, store: Option<&PlanStore>) -> (SymSpmv, AutoChoice) {
    let stored = store.and_then(|s| s.get(sss.fingerprint()));
    let choice = match stored {
        Some(plan) => AutoChoice {
            spec: plan.spec,
            source: PlanSource::Store,
        },
        None => AutoChoice {
            spec: PlanSpec::paper_default(ncpus()),
            source: PlanSource::Default,
        },
    };
    let ctx = ExecutionContext::new(choice.spec.nthreads);
    let kernel = SymSpmv::from_sss(
        sss,
        &ctx,
        ReductionMethod::Indexing,
        choice.spec.format.to_format(),
    );
    (kernel, choice)
}

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
    /// The fastest candidate, or the stored plan on a store hit.
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
/// candidates. A matrix leaves two plan-cache entries per context (its
/// partition and its `idx` plan), far below the cache's cap.
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

    fn pool(&mut self, nthreads: usize) -> Arc<ExecutionContext> {
        let ctx = self
            .pools
            .entry(nthreads)
            .or_insert_with(|| ExecutionContext::new(nthreads));
        Arc::clone(ctx)
    }
}

impl Measurer for TimedMeasurer {
    fn measure(&mut self, sss: &SssMatrix, spec: &PlanSpec) -> Result<Vec<f64>, SymSpmvError> {
        let ctx = self.pool(spec.nthreads);
        let mut kernel = SymSpmv::from_sss(
            sss.clone(),
            &ctx,
            ReductionMethod::Indexing,
            spec.format.to_format(),
        );
        let n = kernel.n();
        let mut x = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        // An untimed block as long as a sample, so the first sample does not
        // pay for a pool that sat idle (as it does behind single-threaded
        // suite generation); `try_spmv` is the fault surface.
        for _ in 0..Self::ITERATIONS {
            kernel.try_spmv(&x, &mut y)?;
            std::mem::swap(&mut x, &mut y);
        }
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

/// Runs the full search on `sss`: measures both `idx` pairs at every count
/// in `threads` and picks the fastest. Pure with respect to the plan
/// store — see [`tune_and_store`] for the persisted flow.
pub fn tune_matrix(
    sss: &SssMatrix,
    threads: &[usize],
    measurer: &mut dyn Measurer,
) -> Result<TuneOutcome, SymSpmvError> {
    let mut rows = Vec::new();
    for spec in enumerate_candidates(threads) {
        let samples = measurer.measure(sss, &spec)?;
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
        .ok_or_else(|| {
            SymSpmvError::InvalidStructure(SparseError::Parse {
                line: 0,
                msg: "tuning search space is empty".to_string(),
            })
        })?;

    let winner = TunedPlan {
        spec: best.spec,
        measured_secs: best.per_vector_secs,
        candidates_measured: rows.len(),
    };
    Ok(TuneOutcome {
        fingerprint: sss.fingerprint(),
        rows,
        winner,
    })
}

/// The persisted flow: a store hit short-circuits the search entirely (no
/// re-measurement, no kernel build); a miss runs [`tune_matrix`], stores
/// the winner, and saves the store. Returns the outcome plus whether the
/// store served it.
pub fn tune_and_store(
    sss: &SssMatrix,
    store: &mut PlanStore,
    threads: &[usize],
    measurer: &mut dyn Measurer,
) -> Result<(TuneOutcome, bool), SymSpmvError> {
    let fingerprint = sss.fingerprint();
    if let Some(plan) = store.get(fingerprint).cloned() {
        let outcome = TuneOutcome {
            fingerprint,
            rows: Vec::new(),
            winner: plan,
        };
        return Ok((outcome, true));
    }
    let outcome = tune_matrix(sss, threads, measurer)?;
    store.put(fingerprint, outcome.winner.clone());
    store.save()?;
    Ok((outcome, false))
}

/// Schema version of the plan-store file. Bump on any incompatible change
/// to the entry layout or to the set of tags an entry may carry; older
/// files are then ignored wholesale. Version 1 files could name the deleted
/// third format; version 2 entries carried a lane width and a cost-model
/// prediction, and their winners came from a pruned search; version 3 keys
/// are byte-at-a-time FNV-1a fingerprints, which no matrix hashes to since
/// [`SssMatrix::fingerprint`] became four word-wise lanes; version 4 entries
/// carried a reduction `method`, which is always `idx` since the search
/// measures the `idx` pairs only; version 5 entries carried a `certified`
/// bit, which proved nothing, since a kernel proves its plan when it builds
/// it.
pub const PLAN_STORE_VERSION: u64 = 6;

/// File name of the store inside its directory.
pub const PLAN_STORE_FILE: &str = "plans.json";

/// The identity a stored plan is valid for.
#[derive(Debug, PartialEq)]
struct StoreKey {
    /// Structural fingerprint of the matrix (values excluded).
    fingerprint: u64,
    /// Logical CPUs of the machine the plan was measured on.
    ncpus: usize,
    /// CPU model string (`/proc/cpuinfo` "model name" or a stand-in).
    machine: String,
}

/// One persisted tuning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedPlan {
    /// The winning configuration.
    pub spec: PlanSpec,
    /// Measured per-vector seconds of the winner (median of samples).
    pub measured_secs: f64,
    /// How many candidates the search measured.
    pub candidates_measured: usize,
}

fn parse_err(msg: String) -> SymSpmvError {
    SymSpmvError::Parse(SparseError::Parse { line: 0, msg })
}

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> SymSpmvError {
    SymSpmvError::Parse(SparseError::Io(format!("{what} {}: {e}", path.display())))
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, SymSpmvError> {
    obj.get(key)
        .ok_or_else(|| parse_err(format!("plan store entry is missing {key:?}")))
}

fn num_field(obj: &Json, key: &str) -> Result<f64, SymSpmvError> {
    match field(obj, key)? {
        Json::Num(v) => Ok(*v),
        other => Err(parse_err(format!(
            "plan store field {key:?} must be a number, got {other:?}"
        ))),
    }
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, SymSpmvError> {
    let v = num_field(obj, key)?;
    if v.fract() != 0.0 || v < 0.0 || v > usize::MAX as f64 {
        return Err(parse_err(format!(
            "plan store field {key:?} must be a non-negative integer, got {v}"
        )));
    }
    Ok(v as usize)
}

fn str_field<'a>(obj: &'a Json, key: &str) -> Result<&'a str, SymSpmvError> {
    match field(obj, key)? {
        Json::Str(s) => Ok(s.as_str()),
        other => Err(parse_err(format!(
            "plan store field {key:?} must be a string, got {other:?}"
        ))),
    }
}

fn fingerprint_from_str(s: &str) -> Result<u64, SymSpmvError> {
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| parse_err(format!("fingerprint {s:?} is not 0x-prefixed hex")))?;
    u64::from_str_radix(hex, 16)
        .map_err(|e| parse_err(format!("fingerprint {s:?} is not valid hex: {e}")))
}

fn entry_to_json(key: &StoreKey, plan: &TunedPlan) -> Json {
    Json::Obj(vec![
        (
            "fingerprint".into(),
            Json::Str(format!("{:#018x}", key.fingerprint)),
        ),
        ("ncpus".into(), Json::Num(key.ncpus as f64)),
        ("machine".into(), Json::Str(key.machine.clone())),
        ("format".into(), Json::Str(plan.spec.format.tag().into())),
        ("nthreads".into(), Json::Num(plan.spec.nthreads as f64)),
        ("measured_secs".into(), Json::Num(plan.measured_secs)),
        (
            "candidates_measured".into(),
            Json::Num(plan.candidates_measured as f64),
        ),
    ])
}

fn entry_from_json(obj: &Json) -> Result<(StoreKey, TunedPlan), SymSpmvError> {
    let key = StoreKey {
        fingerprint: fingerprint_from_str(str_field(obj, "fingerprint")?)?,
        ncpus: usize_field(obj, "ncpus")?,
        machine: str_field(obj, "machine")?.to_string(),
    };
    let format = str_field(obj, "format")?;
    let nthreads = usize_field(obj, "nthreads")?;
    if nthreads == 0 {
        return Err(parse_err(
            "plan store entry has \"nthreads\": 0".to_string(),
        ));
    }
    let spec = PlanSpec {
        format: FormatTag::parse(format)
            .ok_or_else(|| parse_err(format!("unknown format tag {format:?} in plan store")))?,
        nthreads,
    };
    let plan = TunedPlan {
        spec,
        measured_secs: num_field(obj, "measured_secs")?,
        candidates_measured: usize_field(obj, "candidates_measured")?,
    };
    Ok((key, plan))
}

/// The on-disk plan store, loaded into memory, with an *ambient* machine
/// identity: lookups through [`PlanStore::get`] (and so [`auto_kernel`])
/// are scoped to the `(ncpus, machine)` this store was opened for, so a
/// file copied from another machine can never serve its plans here.
#[derive(Debug)]
pub struct PlanStore {
    path: PathBuf,
    ncpus: usize,
    machine: String,
    plans: Vec<(StoreKey, TunedPlan)>,
    /// `true` when the file existed but carried a different schema
    /// version and was therefore ignored.
    version_mismatch: bool,
}

impl PlanStore {
    /// Opens (or initializes empty) the store in `dir` for this machine:
    /// `ncpus` and the model string from [`crate::machine`].
    pub fn open(dir: &Path) -> Result<PlanStore, SymSpmvError> {
        Self::open_for_machine(dir, machine_model(), ncpus())
    }

    /// Opens the store in `dir` under an explicit machine identity — the
    /// injection point for tests and for serving plans measured elsewhere.
    pub fn open_for_machine(
        dir: &Path,
        machine: String,
        ncpus: usize,
    ) -> Result<PlanStore, SymSpmvError> {
        let path = dir.join(PLAN_STORE_FILE);
        let mut store = PlanStore {
            path,
            ncpus,
            machine,
            plans: Vec::new(),
            version_mismatch: false,
        };
        let text = match std::fs::read_to_string(&store.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(store),
            Err(e) => return Err(io_err("cannot read plan store", &store.path, &e)),
        };
        let doc =
            Json::parse(&text).map_err(|e| parse_err(format!("corrupt plan store JSON: {e}")))?;
        let version = num_field(&doc, "version")?;
        if version != PLAN_STORE_VERSION as f64 {
            // A future (or ancient) schema: ignore rather than guess. The
            // next save rewrites the file at the current version.
            store.version_mismatch = true;
            return Ok(store);
        }
        let entries = match field(&doc, "plans")? {
            Json::Arr(a) => a,
            other => {
                return Err(parse_err(format!(
                    "plan store \"plans\" must be an array, got {other:?}"
                )))
            }
        };
        for entry in entries {
            store.plans.push(entry_from_json(entry)?);
        }
        Ok(store)
    }

    /// Number of stored plans (all keys, not only this machine's).
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Whether the store holds no plans.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Whether the on-disk file was ignored for carrying a different
    /// schema version.
    pub fn ignored_version_mismatch(&self) -> bool {
        self.version_mismatch
    }

    fn ambient_key(&self, fingerprint: u64) -> StoreKey {
        StoreKey {
            fingerprint,
            ncpus: self.ncpus,
            machine: self.machine.clone(),
        }
    }

    /// The stored plan for `fingerprint` under the ambient machine
    /// identity, if any.
    pub fn get(&self, fingerprint: u64) -> Option<&TunedPlan> {
        let key = self.ambient_key(fingerprint);
        self.plans.iter().find(|(k, _)| *k == key).map(|(_, p)| p)
    }

    /// Inserts or replaces the plan for `fingerprint` under the ambient
    /// machine identity.
    pub fn put(&mut self, fingerprint: u64, plan: TunedPlan) {
        let key = self.ambient_key(fingerprint);
        if let Some(slot) = self.plans.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = plan;
        } else {
            self.plans.push((key, plan));
        }
    }

    /// Writes the store back to disk (creating the directory if needed),
    /// always at [`PLAN_STORE_VERSION`].
    pub fn save(&self) -> Result<(), SymSpmvError> {
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| io_err("cannot create", dir, &e))?;
        }
        let doc = Json::Obj(vec![
            ("version".into(), Json::Num(PLAN_STORE_VERSION as f64)),
            (
                "plans".into(),
                Json::Arr(
                    self.plans
                        .iter()
                        .map(|(k, p)| entry_to_json(k, p))
                        .collect(),
                ),
            ),
        ]);
        let text = doc
            .write()
            .map_err(|e| parse_err(format!("cannot serialize plan store: {e}")))?;
        std::fs::write(&self.path, text)
            .map_err(|e| io_err("cannot write plan store", &self.path, &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv_sparse::CooMatrix;

    fn sss_of(coo: &CooMatrix) -> SssMatrix {
        SssMatrix::try_from_coo(coo, 0.0).unwrap()
    }

    #[test]
    fn enumeration_is_both_idx_pairs_at_every_thread_count() {
        let ids: Vec<String> = enumerate_candidates(&[1, 2])
            .iter()
            .map(PlanSpec::id)
            .collect();
        assert_eq!(
            ids,
            ["sss-idx-p1", "sss-idx-p2", "csxsym-idx-p1", "csxsym-idx-p2"]
        );
        assert_eq!(PlanSpec::paper_default(2).id(), "sss-idx-p2");
    }

    #[test]
    fn auto_kernel_without_a_store_builds_sss_idx_at_ncpus() {
        let (mut kernel, choice) =
            auto_kernel(sss_of(&symspmv_sparse::gen::laplacian_2d(20, 20)), None);
        assert_eq!(choice.source, PlanSource::Default);
        assert_eq!(choice.spec, PlanSpec::paper_default(ncpus()));
        assert_eq!(kernel.name(), "sss-idx");
        assert_eq!(kernel.nthreads(), ncpus());
        let n = kernel.n();
        let x = vec![1.0; n];
        let mut y = vec![0.0; n];
        kernel.spmv(&x, &mut y);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn timed_measurer_produces_positive_samples() {
        let sss = sss_of(&symspmv_sparse::gen::laplacian_2d(14, 14));
        let outcome = tune_matrix(&sss, &[1, 2], &mut TimedMeasurer::new()).unwrap();
        assert!(outcome.winner.measured_secs > 0.0);
        assert!(outcome.rows.iter().all(
            |r| r.samples.len() == TimedMeasurer::SAMPLES && r.samples.iter().all(|s| *s > 0.0)
        ));
    }

    #[test]
    fn an_empty_thread_list_is_a_typed_error() {
        let sss = sss_of(&symspmv_sparse::gen::laplacian_2d(10, 10));
        assert!(tune_matrix(&sss, &[], &mut TimedMeasurer::new()).is_err());
    }
}
