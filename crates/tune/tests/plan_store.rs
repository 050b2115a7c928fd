//! Plan-store round-trip and failure-policy properties: key mismatches
//! fall back to the paper's default, any other schema version makes the
//! store invisible, corrupted JSON is a typed `SymSpmvError` (never a
//! panic), and the search measures every candidate, deterministically
//! under a deterministic measurer.

use std::path::PathBuf;
use symspmv_core::auto::{PlanSource, PlanSpec};
use symspmv_core::{ReductionMethod, SymSpmv, SymSpmvError};
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::{gen, SssMatrix};
use symspmv_tune::{tune_and_store, tune_matrix, Measurer, PlanStore, PLAN_STORE_FILE};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symspmv-plan-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const THREADS: [usize; 2] = [1, 2];

/// Stands in for wall-clock timing: a candidate's three "samples" are
/// bit slices of an FNV-1a hash of its id. Records every spec it is asked
/// for.
#[derive(Default)]
struct Fake(Vec<PlanSpec>);

impl Measurer for Fake {
    fn measure(&mut self, _: &SssMatrix, spec: &PlanSpec) -> Result<Vec<f64>, SymSpmvError> {
        self.0.push(*spec);
        let hash = spec.id().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Ok((1..=3)
            .map(|i| 1e-6 * (1 + (hash >> (16 * i)) % 4096) as f64)
            .collect())
    }
}

#[test]
fn round_trip_preserves_the_stored_plan() {
    let dir = tmp_dir("roundtrip");
    let coo = gen::laplacian_2d(16, 16);
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, hit) = tune_and_store(&coo, &mut store, &THREADS, &mut Fake::default()).unwrap();
    assert!(!hit, "first run must measure");
    assert_eq!(outcome.winner.candidates_measured, 7 * THREADS.len());

    let reloaded = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert_eq!(reloaded.len(), 1);
    let stored = reloaded.get(outcome.fingerprint).expect("plan persisted");
    assert_eq!(*stored, outcome.winner, "JSON round-trip must be lossless");

    // Second run: store hit, no re-measurement, same plan.
    let mut store2 = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (again, hit2) = tune_and_store(&coo, &mut store2, &THREADS, &mut Fake::default()).unwrap();
    assert!(hit2, "second run must hit the store");
    assert!(again.rows.is_empty(), "a store hit must not re-measure");
    assert_eq!(again.winner, outcome.winner);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn key_mismatch_falls_back_to_the_default() {
    let dir = tmp_dir("keymismatch");
    let coo = gen::laplacian_2d(14, 14);
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, _) = tune_and_store(&coo, &mut store, &THREADS, &mut Fake::default()).unwrap();

    // Different machine model, different ncpus, different fingerprint:
    // each alone must miss.
    let other_machine = PlanStore::open_for_machine(&dir, "cpu-B".into(), 2).unwrap();
    assert!(other_machine.get(outcome.fingerprint).is_none());
    let other_ncpus = PlanStore::open_for_machine(&dir, "cpu-A".into(), 4).unwrap();
    assert!(other_ncpus.get(outcome.fingerprint).is_none());
    let same = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert!(same.get(outcome.fingerprint ^ 1).is_none());
    assert!(same.get(outcome.fingerprint).is_some());

    // Through the engine: a mismatching advisor means the paper's default
    // is built.
    let ctx = ExecutionContext::new(2);
    let (_, choice) = SymSpmv::auto_with(&ctx, &coo, Some(&other_machine)).unwrap();
    assert_eq!(choice.source, PlanSource::Default);
    assert_eq!(choice.spec, PlanSpec::paper_default(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stored_plan_is_served_through_the_advisor() {
    let dir = tmp_dir("advisor");
    let coo = gen::laplacian_2d(14, 14);
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, _) = tune_and_store(&coo, &mut store, &THREADS, &mut Fake::default()).unwrap();

    let ctx = ExecutionContext::new(outcome.winner.spec.nthreads);
    let (_, choice) = SymSpmv::auto_with(&ctx, &coo, Some(&store)).unwrap();
    assert_eq!(choice.source, PlanSource::Store);
    assert_eq!(choice.spec, outcome.winner.spec);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_bump_makes_the_store_invisible() {
    let dir = tmp_dir("version");
    let coo = gen::laplacian_2d(14, 14);
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, _) = tune_and_store(&coo, &mut store, &THREADS, &mut Fake::default()).unwrap();

    // Rewrite the file under a future schema version.
    let path = dir.join(PLAN_STORE_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replacen("\"version\":3", "\"version\":999", 1);
    assert_ne!(text, bumped, "test must actually bump the version");
    std::fs::write(&path, bumped).unwrap();

    let reloaded = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert!(reloaded.ignored_version_mismatch());
    assert!(
        reloaded.is_empty(),
        "a future schema must be ignored, not parsed"
    );
    assert!(reloaded.get(outcome.fingerprint).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes a one-entry store at an older schema `version` whose entry names
/// `pair`, and checks the failure policy: the file is ignored and flagged,
/// never a parse error and never served, and the next tune rewrites it at
/// the current version.
fn assert_ignored_and_rewritten(version: u64, pair: &str) {
    let dir = tmp_dir(&format!("schema-v{version}"));
    let path = dir.join(PLAN_STORE_FILE);
    std::fs::write(
        &path,
        format!(
            "{{\"version\":{version},\"plans\":[{{\"fingerprint\":\"0x0000000000000001\",\
             \"ncpus\":2,\"machine\":\"cpu-A\",{pair},\"nthreads\":1,\"lanes\":8,\"predicted_\
             bytes\":1.0,\"measured_secs\":1.0,\"candidates_measured\":12,\"certified\":true}}]}}"
        ),
    )
    .unwrap();
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert!(store.ignored_version_mismatch());
    assert!(store.is_empty());

    let coo = gen::laplacian_2d(14, 14);
    let (outcome, hit) = tune_and_store(&coo, &mut store, &THREADS, &mut Fake::default()).unwrap();
    assert!(!hit, "an ignored file must be re-measured");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("{\"version\":3,"), "{text}");
    assert!(!text.contains("lanes") && !text.contains("predicted"));
    let reloaded = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert!(!reloaded.ignored_version_mismatch());
    assert_eq!(reloaded.len(), 1);
    assert_eq!(reloaded.get(outcome.fingerprint), Some(&outcome.winner));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_version_1_store_naming_the_deleted_format_is_ignored_and_rewritten() {
    // One entry with a tag this version cannot parse must not turn the whole
    // file into a parse error.
    assert_ignored_and_rewritten(1, "\"format\":\"hybrid\",\"method\":\"eff\"");
}

#[test]
fn a_version_2_store_with_lanes_and_predictions_is_ignored_and_rewritten() {
    // What the parent commit wrote: a winner of the pruned search, with the
    // lane width and the cost-model prediction version 3 does not carry.
    assert_ignored_and_rewritten(2, "\"format\":\"sss\",\"method\":\"eff\"");
}

#[test]
fn corrupted_json_is_a_typed_error_never_a_panic() {
    let dir = tmp_dir("corrupt");
    let path = dir.join(PLAN_STORE_FILE);
    for garbage in [
        "{",
        "not json at all",
        "{\"version\":3,\"plans\":[{\"fingerprint\":42}]}",
        "{\"version\":3,\"plans\":[{\"fingerprint\":\"0xzz\"}]}",
        "{\"version\":3,\"plans\":{}}",
        "{\"plans\":[]}",
        // A structurally valid entry that names an unbuildable plan.
        "{\"version\":3,\"plans\":[{\"fingerprint\":\"0x0000000000000001\",\
          \"ncpus\":2,\"machine\":\"m\",\"format\":\"csxsym\",\"method\":\"race\",\
          \"nthreads\":2,\"measured_secs\":1.0,\
          \"candidates_measured\":1,\"certified\":true}]}",
    ] {
        std::fs::write(&path, garbage).unwrap();
        let result = PlanStore::open_for_machine(&dir, "m".into(), 2);
        match result {
            Err(SymSpmvError::Parse(_)) | Err(SymSpmvError::InvalidStructure(_)) => {}
            other => panic!("garbage {garbage:?} produced {other:?}, expected a Parse error"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn uncertified_plans_are_refused_on_write_and_read() {
    let dir = tmp_dir("uncertified");
    let mut store = PlanStore::open_for_machine(&dir, "m".into(), 2).unwrap();
    let plan = symspmv_tune::TunedPlan {
        spec: PlanSpec {
            format: symspmv_core::auto::FormatTag::Sss,
            method: ReductionMethod::Indexing,
            nthreads: 2,
        },
        measured_secs: 1.0,
        candidates_measured: 12,
        certified: false,
    };
    assert!(
        store.put(1, plan.clone()).is_err(),
        "store must refuse uncertified plans"
    );

    // A hand-edited uncertified entry on disk is never served.
    let mut certified = plan;
    certified.certified = true;
    store.put(1, certified).unwrap();
    store.save().unwrap();
    let path = dir.join(PLAN_STORE_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(
        &path,
        text.replace("\"certified\":true", "\"certified\":false"),
    )
    .unwrap();
    let reloaded = PlanStore::open_for_machine(&dir, "m".into(), 2).unwrap();
    assert!(
        reloaded.get(1).is_none(),
        "uncertified entries must not be served"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_search_measures_every_buildable_pair_once_per_thread_count() {
    let coo = gen::banded_random(600, 12, 6.0, 5);
    let mut fake = Fake::default();
    let outcome = tune_matrix(&coo, &THREADS, &mut fake).unwrap();

    // The seven symmetric kernels the harness can name, at p1 and p2:
    // each measured exactly once, none skipped.
    let mut expected: Vec<String> = [
        "sss-naive",
        "sss-eff",
        "sss-idx",
        "sss-race",
        "csxsym-naive",
        "csxsym-eff",
        "csxsym-idx",
    ]
    .iter()
    .flat_map(|pair| THREADS.map(|p| format!("{pair}-p{p}")))
    .collect();
    expected.sort();
    let mut measured: Vec<String> = fake.0.iter().map(PlanSpec::id).collect();
    measured.sort();
    assert_eq!(measured, expected);
    assert_eq!(outcome.rows.len(), 7 * THREADS.len());
    assert_eq!(outcome.winner.candidates_measured, outcome.rows.len());

    // The winner is the argmin of everything measured, and certified.
    let best = outcome
        .rows
        .iter()
        .min_by(|a, b| a.per_vector_secs.total_cmp(&b.per_vector_secs))
        .unwrap();
    assert_eq!(outcome.winner.spec, best.spec);
    assert_eq!(outcome.winner.measured_secs, best.per_vector_secs);
    assert!(outcome.winner.certified);
}

#[test]
fn two_tune_runs_with_the_same_measurer_produce_the_same_outcome() {
    let coo = gen::banded_random(600, 12, 6.0, 5);
    let a = tune_matrix(&coo, &THREADS, &mut Fake::default()).unwrap();
    let b = tune_matrix(&coo, &THREADS, &mut Fake::default()).unwrap();
    assert_eq!(a, b, "same measurer, same input: same table and winner");
}

#[test]
fn missing_store_directory_is_an_empty_store() {
    let dir =
        std::env::temp_dir().join(format!("symspmv-plan-store-missing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PlanStore::open_for_machine(&dir, "m".into(), 2).unwrap();
    assert!(store.is_empty());
    assert!(!store.ignored_version_mismatch());
}

#[test]
fn auto_kernel_runs_on_the_stored_thread_count() {
    let dir = tmp_dir("autokernel");
    let coo = gen::laplacian_2d(16, 16);
    let mut store = PlanStore::open_for_machine(
        &dir,
        symspmv_tune::machine::machine_model(),
        symspmv_tune::machine::ncpus(),
    )
    .unwrap();
    let (outcome, _) = tune_and_store(&coo, &mut store, &THREADS, &mut Fake::default()).unwrap();
    let (mut kernel, choice) = symspmv_tune::auto_kernel(&coo, Some(&store)).unwrap();
    assert_eq!(choice.source, PlanSource::Store);
    assert_eq!(kernel.nthreads(), outcome.winner.spec.nthreads);
    let n = kernel.n();
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    kernel.spmv(&x, &mut y);
    assert!(y.iter().all(|v: &f64| v.is_finite()));
    let _ = std::fs::remove_dir_all(&dir);
}
