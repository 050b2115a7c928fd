//! Adversarial cross-validation of the static verifier against the
//! shadow-memory race detector (`--features race-detector`).
//!
//! For each corrupted plan the static layer must *reject the plan before
//! dispatch* and the dynamic layer must *observe the race when the plan is
//! executed anyway* — two independent oracles agreeing on the same defect.
//! A correct plan must satisfy both: certified statically, zero reports
//! dynamically.
#![cfg(feature = "race-detector")]

use std::sync::Arc;
use symspmv_core::symbolic;
use symspmv_runtime::race::{detector_guard, disable, enable, take_reports};
use symspmv_runtime::reduction::{IndexingReduction, ReductionStrategy};
use symspmv_runtime::shared::SharedBuf;
use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights, Range, WorkerPool};
use symspmv_sparse::SssMatrix;
use symspmv_verify::{certify_sym, SymPlanRef, SymStrategyKind, VerifyError};

fn matrix(n: u32) -> SssMatrix {
    let coo = symspmv_sparse::gen::banded_random(n, 12, 6.0, 17);
    SssMatrix::from_coo(&coo, 0.0).unwrap()
}

fn certify_parts(sss: &SssMatrix, parts: &[Range]) -> Result<(), VerifyError> {
    let p = parts.len();
    let index = symbolic::analyze(sss, parts);
    let strategy: Arc<dyn ReductionStrategy> = Arc::new(IndexingReduction);
    let layout = strategy.layout(sss.n() as usize, parts);
    let row_chunks = balanced_ranges(&vec![1u64; sss.n() as usize], p);
    certify_sym(
        sss,
        &SymPlanRef {
            parts,
            offsets: &layout.offsets,
            local_len: layout.flat_len,
            strategy: SymStrategyKind::Indexing,
            entries: &index.entries,
            splits: &index.splits,
            row_chunks: &row_chunks,
        },
    )
    .map(|_| ())
}

/// Executes the direct-write phase of a (possibly corrupted) partition:
/// each worker claims its partition's y rows through `range_mut`, exactly
/// as the real kernels do. Returns the detector's reports.
fn run_direct_phase(parts: &[Range], n: usize) -> Vec<symspmv_runtime::race::RaceReport> {
    let mut pool = WorkerPool::new(parts.len());
    let mut y = vec![0.0f64; n];
    let buf = SharedBuf::new(&mut y);
    enable();
    pool.run(&|tid| {
        let part = parts[tid];
        // SAFETY(cert: test-only): deliberately executing an uncertified
        // partition so the shadow layer can observe the overlap; the
        // shadow-map mutex serializes the underlying stores.
        let rows = unsafe { buf.range_mut(part.start as usize, part.end as usize) };
        rows.fill(tid as f64 + 1.0);
    });
    disable();
    take_reports()
}

/// Control: the uncorrupted plan is certified statically and its execution
/// is observed clean dynamically.
#[test]
fn good_plan_passes_both_layers() {
    let _g = detector_guard();
    let sss = matrix(256);
    let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), 4);
    certify_parts(&sss, &parts).expect("correct plan must certify");
    let reports = run_direct_phase(&parts, sss.n() as usize);
    assert!(reports.is_empty(), "clean plan raced: {reports:?}");
}

/// Dynamic mutation 1 — shifted boundary: thread 0's partition runs one
/// row past the split, so the boundary row has two direct writers.
#[test]
fn shifted_boundary_caught_by_both_layers() {
    let _g = detector_guard();
    let sss = matrix(256);
    let mut parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), 4);
    parts[0].end += 1;

    let err = certify_parts(&sss, &parts).unwrap_err();
    assert!(
        matches!(err, VerifyError::OverlappingDirectWrites { .. }),
        "static layer: {err:?}"
    );

    let reports = run_direct_phase(&parts, sss.n() as usize);
    assert!(!reports.is_empty(), "dynamic layer missed the overlap");
    let contested = parts[1].start as usize;
    assert!(
        reports.iter().any(|r| {
            (r.first_tid == 0 && r.second_tid == 1) || (r.first_tid == 1 && r.second_tid == 0)
        }),
        "race must involve the two boundary threads (row {contested}): {reports:?}"
    );
}

/// Dynamic mutation 2 — stolen row: thread 2 reaches back into thread 1's
/// partition, duplicating a row far from its own range.
#[test]
fn stolen_row_caught_by_both_layers() {
    let _g = detector_guard();
    let sss = matrix(256);
    let mut parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), 4);
    parts[2].start -= 3;

    let err = certify_parts(&sss, &parts).unwrap_err();
    assert!(
        matches!(err, VerifyError::OverlappingDirectWrites { .. }),
        "static layer: {err:?}"
    );

    let reports = run_direct_phase(&parts, sss.n() as usize);
    assert!(!reports.is_empty(), "dynamic layer missed the stolen rows");
}
