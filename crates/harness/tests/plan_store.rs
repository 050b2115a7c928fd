//! Plan-store round-trip and failure-policy properties: key mismatches
//! fall back to the paper's default, any other schema version makes the
//! store invisible, corrupted JSON is a typed `SymSpmvError` (never a
//! panic), and the search measures every candidate, deterministically
//! under a deterministic measurer.

use std::path::PathBuf;
use symspmv_core::{FormatTag, ParallelSpmv, SymSpmvError};
use symspmv_harness::machine::{machine_model, ncpus};
use symspmv_harness::tune::{
    auto_kernel, tune_and_store, tune_matrix, Measurer, PlanSource, PlanSpec, PlanStore,
    PLAN_STORE_FILE,
};
use symspmv_sparse::{gen, SssMatrix};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("symspmv-plan-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const THREADS: [usize; 2] = [1, 2];

fn sss_of(coo: &symspmv_sparse::CooMatrix) -> SssMatrix {
    SssMatrix::try_from_coo(coo, 0.0).unwrap()
}

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
    let sss = sss_of(&gen::laplacian_2d(16, 16));
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, hit) = tune_and_store(&sss, &mut store, &THREADS, &mut Fake::default()).unwrap();
    assert!(!hit, "first run must measure");
    assert_eq!(outcome.winner.candidates_measured, 2 * THREADS.len());
    assert_eq!(outcome.fingerprint, sss.fingerprint());

    let reloaded = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert_eq!(reloaded.len(), 1);
    let stored = reloaded.get(outcome.fingerprint).expect("plan persisted");
    assert_eq!(*stored, outcome.winner, "JSON round-trip must be lossless");

    // Second run: store hit, no re-measurement, same plan.
    let mut store2 = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (again, hit2) = tune_and_store(&sss, &mut store2, &THREADS, &mut Fake::default()).unwrap();
    assert!(hit2, "second run must hit the store");
    assert!(again.rows.is_empty(), "a store hit must not re-measure");
    assert_eq!(again.winner, outcome.winner);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn key_mismatch_falls_back_to_the_default() {
    let dir = tmp_dir("keymismatch");
    let sss = sss_of(&gen::laplacian_2d(14, 14));
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, _) = tune_and_store(&sss, &mut store, &THREADS, &mut Fake::default()).unwrap();

    // Different machine model, different ncpus, different fingerprint:
    // each alone must miss.
    let other_machine = PlanStore::open_for_machine(&dir, "cpu-B".into(), 2).unwrap();
    assert!(other_machine.get(outcome.fingerprint).is_none());
    let other_ncpus = PlanStore::open_for_machine(&dir, "cpu-A".into(), 4).unwrap();
    assert!(other_ncpus.get(outcome.fingerprint).is_none());
    let same = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert!(same.get(outcome.fingerprint ^ 1).is_none());
    assert!(same.get(outcome.fingerprint).is_some());

    // Through the auto constructor: a mismatching store means the paper's
    // default is built, at this machine's CPU count.
    let (_, choice) = auto_kernel(sss, Some(&other_machine));
    assert_eq!(choice.source, PlanSource::Default);
    assert_eq!(choice.spec, PlanSpec::paper_default(ncpus()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stored_plan_is_served_through_the_advisor() {
    let dir = tmp_dir("advisor");
    let sss = sss_of(&gen::laplacian_2d(14, 14));
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, _) = tune_and_store(&sss, &mut store, &THREADS, &mut Fake::default()).unwrap();

    let (kernel, choice) = auto_kernel(sss, Some(&store));
    assert_eq!(choice.source, PlanSource::Store);
    assert_eq!(choice.spec, outcome.winner.spec);
    assert_eq!(kernel.nthreads(), outcome.winner.spec.nthreads);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_bump_makes_the_store_invisible() {
    let dir = tmp_dir("version");
    let sss = sss_of(&gen::laplacian_2d(14, 14));
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    let (outcome, _) = tune_and_store(&sss, &mut store, &THREADS, &mut Fake::default()).unwrap();

    // Rewrite the file under a future schema version.
    let path = dir.join(PLAN_STORE_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replacen("\"version\":6", "\"version\":999", 1);
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

/// Writes a one-entry store at an older schema `version` whose entry
/// carries `fields` besides its key and measurement, and checks the failure
/// policy: the file is ignored and flagged, never a parse error and never
/// served, and the next tune rewrites it at the current version.
fn assert_ignored_and_rewritten(version: u64, fields: &str) {
    let dir = tmp_dir(&format!("schema-v{version}"));
    let path = dir.join(PLAN_STORE_FILE);
    std::fs::write(
        &path,
        format!(
            "{{\"version\":{version},\"plans\":[{{\"fingerprint\":\"0x0000000000000001\",\
             \"ncpus\":2,\"machine\":\"cpu-A\",{fields},\"nthreads\":1,\
             \"measured_secs\":1.0,\"candidates_measured\":12,\"certified\":true}}]}}"
        ),
    )
    .unwrap();
    let mut store = PlanStore::open_for_machine(&dir, "cpu-A".into(), 2).unwrap();
    assert!(store.ignored_version_mismatch());
    assert!(store.is_empty());

    let sss = sss_of(&gen::laplacian_2d(14, 14));
    let (outcome, hit) = tune_and_store(&sss, &mut store, &THREADS, &mut Fake::default()).unwrap();
    assert!(!hit, "an ignored file must be re-measured");
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("{\"version\":6,"), "{text}");
    for dropped in ["lanes", "predicted", "method", "certified"] {
        assert!(!text.contains(dropped), "{text}");
    }
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
    assert_ignored_and_rewritten(
        1,
        &format!("\"format\":\"hybrid\",\"method\":\"eff\",{LANES}"),
    );
}

/// The lane width and cost-model prediction entries carried before version 3.
const LANES: &str = "\"lanes\":8,\"predicted_bytes\":1.0";

#[test]
fn a_version_2_store_with_lanes_and_predictions_is_ignored_and_rewritten() {
    // A winner of the pruned search, with the lane width and the
    // cost-model prediction version 3 dropped.
    assert_ignored_and_rewritten(2, &format!("\"format\":\"sss\",\"method\":\"eff\",{LANES}"));
}

#[test]
fn a_version_3_store_keyed_by_the_byte_wise_fingerprint_is_ignored_and_rewritten() {
    // The entry layout versions 3 and 4 share, keyed by the byte-at-a-time
    // FNV-1a fingerprint that version 4 replaced, so no key in it can name
    // a matrix any more.
    assert_ignored_and_rewritten(3, "\"format\":\"sss\",\"method\":\"idx\"");
}

#[test]
fn a_version_4_store_with_a_method_key_is_ignored_and_rewritten() {
    // A winner of the search that measured all seven `format × method`
    // pairs, with the reduction method version 5 dropped.
    assert_ignored_and_rewritten(4, "\"format\":\"csxsym\",\"method\":\"idx\"");
}

#[test]
fn a_version_5_store_with_a_certified_key_is_ignored_and_rewritten() {
    // A `(format, threads)` winner with the `certified` bit version 6
    // dropped: a kernel proves its plan when it builds it.
    assert_ignored_and_rewritten(5, "\"format\":\"csxsym\"");
}

#[test]
fn corrupted_json_is_a_typed_error_never_a_panic() {
    let dir = tmp_dir("corrupt");
    let path = dir.join(PLAN_STORE_FILE);
    for garbage in [
        "{",
        "not json at all",
        "{\"version\":6,\"plans\":[{\"fingerprint\":42}]}",
        "{\"version\":6,\"plans\":[{\"fingerprint\":\"0xzz\"}]}",
        "{\"version\":6,\"plans\":{}}",
        "{\"plans\":[]}",
        // A structurally valid entry that names no format this version has.
        "{\"version\":6,\"plans\":[{\"fingerprint\":\"0x0000000000000001\",\
          \"ncpus\":2,\"machine\":\"m\",\"format\":\"hybrid\",\
          \"nthreads\":2,\"measured_secs\":1.0,\
          \"candidates_measured\":1}]}",
        // A plan no pool can run: served, it would reach a zero-thread pool.
        "{\"version\":6,\"plans\":[{\"fingerprint\":\"0x0000000000000001\",\
          \"ncpus\":2,\"machine\":\"m\",\"format\":\"sss\",\
          \"nthreads\":0,\"measured_secs\":1.0,\
          \"candidates_measured\":1}]}",
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
fn a_hand_edited_winner_is_served_and_proved_by_the_kernel_that_builds_it() {
    let dir = tmp_dir("handedit");
    let sss = sss_of(&gen::laplacian_2d(14, 14));
    let fp = sss.fingerprint();
    let mut store = PlanStore::open_for_machine(&dir, "m".into(), 2).unwrap();
    let (outcome, _) = tune_and_store(&sss, &mut store, &THREADS, &mut Fake::default()).unwrap();

    // Swap the stored winner to the other format: every `(format, threads)`
    // pair builds, so the edit is a plan the store must serve as written.
    let won = outcome.winner.spec.format;
    let other = FormatTag::ALL.into_iter().find(|f| *f != won).unwrap();
    let path = dir.join(PLAN_STORE_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let (from, to) = (
        format!("\"format\":\"{}\"", won.tag()),
        format!("\"format\":\"{}\"", other.tag()),
    );
    assert!(text.contains(&from), "{text}");
    std::fs::write(&path, text.replacen(&from, &to, 1)).unwrap();
    let edited = PlanSpec {
        format: other,
        ..outcome.winner.spec
    };

    let mut reloaded = PlanStore::open_for_machine(&dir, "m".into(), 2).unwrap();
    let (again, hit) = tune_and_store(&sss, &mut reloaded, &THREADS, &mut Fake::default()).unwrap();
    assert!(hit, "the edited entry must be a store hit");
    assert!(again.rows.is_empty());
    assert_eq!(again.winner.spec, edited);

    // The auto constructor builds the edited plan, and building it proves it.
    let (engine, choice) = auto_kernel(sss, Some(&reloaded));
    assert_eq!(choice.source, PlanSource::Store);
    assert_eq!(choice.spec, edited);
    assert_eq!(engine.name(), format!("{}-idx", other.tag()));
    assert!(engine
        .certificate()
        .validate_for(fp, edited.nthreads, "sym-sss", "idx")
        .is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_search_measures_both_idx_pairs_once_per_thread_count() {
    let sss = sss_of(&gen::banded_random(600, 12, 6.0, 5));
    let mut fake = Fake::default();
    let outcome = tune_matrix(&sss, &THREADS, &mut fake).unwrap();

    // The two `idx` kernels, at p1 and p2: each measured exactly once,
    // nothing else measured.
    let mut measured: Vec<String> = fake.0.iter().map(PlanSpec::id).collect();
    measured.sort();
    assert_eq!(
        measured,
        ["csxsym-idx-p1", "csxsym-idx-p2", "sss-idx-p1", "sss-idx-p2"]
    );
    assert_eq!(outcome.rows.len(), 2 * THREADS.len());
    assert_eq!(outcome.winner.candidates_measured, outcome.rows.len());

    // The winner is the argmin of everything measured.
    let best = outcome
        .rows
        .iter()
        .min_by(|a, b| a.per_vector_secs.total_cmp(&b.per_vector_secs))
        .unwrap();
    assert_eq!(outcome.winner.spec, best.spec);
    assert_eq!(outcome.winner.measured_secs, best.per_vector_secs);
}

#[test]
fn two_tune_runs_with_the_same_measurer_produce_the_same_outcome() {
    let sss = sss_of(&gen::banded_random(600, 12, 6.0, 5));
    let a = tune_matrix(&sss, &THREADS, &mut Fake::default()).unwrap();
    assert_eq!(a.fingerprint, sss.fingerprint());
    let b = tune_matrix(&sss, &THREADS, &mut Fake::default()).unwrap();
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
    let sss = sss_of(&gen::laplacian_2d(16, 16));
    let mut store = PlanStore::open_for_machine(&dir, machine_model(), ncpus()).unwrap();
    let (outcome, _) = tune_and_store(&sss, &mut store, &THREADS, &mut Fake::default()).unwrap();
    let (mut kernel, choice) = auto_kernel(sss, Some(&store));
    assert_eq!(choice.source, PlanSource::Store);
    assert_eq!(kernel.nthreads(), outcome.winner.spec.nthreads);
    let n = kernel.n();
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    kernel.spmv(&x, &mut y);
    assert!(y.iter().all(|v: &f64| v.is_finite()));
    let _ = std::fs::remove_dir_all(&dir);
}
