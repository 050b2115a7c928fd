//! Differential conformance: the symbolic certifier must re-derive every
//! certificate the enumerative checker issues — **bit for bit** after
//! normalizing the proof-form tag — across all five kernel formats, the
//! three reduction strategies, the three symmetry kinds, every supported
//! lane width and thread counts 1–8. The symbolic path never touches the
//! matrix during certification (structure facts are distilled once, in
//! `O(n + nnz)`), so the same sweep also pins the asymptotic win: on the
//! largest suite matrix the per-plan symbolic proof must be at least 10×
//! faster than the enumerative re-walk.
//!
//! Format → certifier mapping (the four formats the repo keeps):
//!
//! | formats          | plan geometry      | certifier pair                           |
//! |------------------|--------------------|------------------------------------------|
//! | `csr`, `csx`     | row partition      | `certify_rows` / `certify_rows_symbolic` |
//! | `sss`, `csx-sym` | symmetric SSS plan | `certify_sym` / `certify_sym_symbolic`   |

use std::sync::Arc;
use std::time::{Duration, Instant};
use symspmv_core::symbolic;
use symspmv_runtime::reduction::{
    EffectiveRangesReduction, IndexingReduction, NaiveReduction, ReductionStrategy,
};
use symspmv_runtime::{balanced_ranges, partition::symmetric_row_weights, Range};
use symspmv_sparse::block::SUPPORTED_LANES;
use symspmv_sparse::suite::generate_suite;
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::SssMatrix;
use symspmv_verify::{
    certify_rows, certify_rows_symbolic, certify_sym, certify_sym_symbolic, lift_sym_certificate,
    lift_symbolic, ProofForm, RaceCertificate, StructureFacts, SymPlanRef, SymStrategyKind,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The two formats whose plan is a plain row partition.
const ROW_FORMATS: [&str; 2] = ["csr", "csx"];

fn strategies() -> Vec<(Arc<dyn ReductionStrategy>, SymStrategyKind)> {
    vec![
        (Arc::new(NaiveReduction), SymStrategyKind::Naive),
        (
            Arc::new(EffectiveRangesReduction),
            SymStrategyKind::EffectiveRanges,
        ),
        (Arc::new(IndexingReduction), SymStrategyKind::Indexing),
    ]
}

/// Proof-form normalization: the two certifiers are required to agree on
/// every field *except* the proof tag (that is the point of the tag).
fn normalized(mut cert: RaceCertificate) -> RaceCertificate {
    cert.proof = ProofForm::Enumerative;
    cert
}

struct SymPlan {
    parts: Vec<Range>,
    offsets: Vec<usize>,
    local_len: usize,
    entries: Vec<symspmv_runtime::reduction::IndexEntry>,
    splits: Vec<usize>,
    conflicts: Vec<Vec<u32>>,
    row_chunks: Vec<Range>,
}

fn sym_plan(sss: &SssMatrix, p: usize, strategy: &Arc<dyn ReductionStrategy>) -> SymPlan {
    let parts = balanced_ranges(&symmetric_row_weights(sss.rowptr()), p);
    let row_chunks = balanced_ranges(&vec![1u64; sss.n() as usize], p);
    let analysis = symbolic::analyze(sss, &parts);
    let layout = strategy.layout(sss.n() as usize, &parts);
    let (entries, splits) = if strategy.needs_index() {
        (analysis.entries, analysis.splits)
    } else {
        (Vec::new(), vec![0; p + 1])
    };
    SymPlan {
        parts,
        offsets: layout.offsets,
        local_len: layout.flat_len,
        entries,
        splits,
        conflicts: analysis.conflicts,
        row_chunks,
    }
}

fn plan_ref<'a>(plan: &'a SymPlan, kind: SymStrategyKind) -> SymPlanRef<'a> {
    SymPlanRef {
        parts: &plan.parts,
        offsets: &plan.offsets,
        local_len: plan.local_len,
        strategy: kind,
        entries: &plan.entries,
        splits: &plan.splits,
        row_chunks: &plan.row_chunks,
    }
}

/// Differentially certifies one matrix across every strategy, thread
/// count and lane width; returns the number of certificate pairs compared.
fn differential_sym_sweep(sss: &SssMatrix, label: &str) -> usize {
    let facts = StructureFacts::of(sss);
    let mut compared = 0usize;
    for p in THREAD_COUNTS {
        for (strategy, kind) in strategies() {
            let plan = sym_plan(sss, p, &strategy);
            let enumerated = certify_sym(sss, &plan_ref(&plan, kind))
                .unwrap_or_else(|e| panic!("{label} × {kind:?} × p={p}: enumerative rejects: {e}"));
            let symbolic_cert =
                certify_sym_symbolic(&facts, &plan_ref(&plan, kind), &plan.conflicts)
                    .unwrap_or_else(|e| {
                        panic!("{label} × {kind:?} × p={p}: symbolic rejects: {e}")
                    });
            assert_eq!(symbolic_cert.proof, ProofForm::Symbolic);
            assert_eq!(
                normalized(symbolic_cert.clone()),
                normalized(enumerated.clone()),
                "{label} × {kind:?} × p={p}: certificates diverge"
            );
            compared += 1;

            // Lane lifting must agree at every supported width.
            for &lanes in &SUPPORTED_LANES {
                let block_offsets: Vec<usize> = plan.offsets.iter().map(|o| o * lanes).collect();
                let lifted_enum = lift_sym_certificate(
                    &enumerated,
                    lanes,
                    &plan.offsets,
                    plan.local_len,
                    &block_offsets,
                    plan.local_len * lanes,
                )
                .unwrap_or_else(|e| panic!("{label} lanes={lanes}: enumerative lift: {e}"));
                let lifted_sym = lift_symbolic(
                    &symbolic_cert,
                    lanes,
                    &plan.offsets,
                    plan.local_len,
                    &block_offsets,
                    plan.local_len * lanes,
                )
                .unwrap_or_else(|e| panic!("{label} lanes={lanes}: symbolic lift: {e}"));
                assert_eq!(lifted_sym.proof, ProofForm::Symbolic);
                assert_eq!(
                    normalized(lifted_sym),
                    normalized(lifted_enum),
                    "{label} × {kind:?} × p={p} × lanes={lanes}: lifted certificates diverge"
                );
                compared += 1;
            }
        }
    }
    compared
}

/// The whole-suite differential: symmetric suite matrices through the
/// SSS-plan formats (`sss` and `csx-sym` share the geometry) and the
/// row-partition formats.
#[test]
fn symbolic_agrees_with_enumerative_across_the_suite() {
    let suite = generate_suite(0.002);
    assert_eq!(suite.len(), 12);
    let mut sym_pairs = 0usize;
    let mut row_pairs = 0usize;

    for m in &suite {
        let sss = SssMatrix::from_coo(&m.coo, 0.0).unwrap();
        sym_pairs += differential_sym_sweep(&sss, m.spec.name);

        // Row-partition formats: same parts, every family tag.
        for p in THREAD_COUNTS {
            let parts = balanced_ranges(&vec![1u64; sss.n() as usize], p);
            for family in ROW_FORMATS {
                let enumerated = certify_rows(sss.fingerprint(), sss.n(), &parts, family).unwrap();
                let symbolic_cert =
                    certify_rows_symbolic(sss.fingerprint(), sss.n(), &parts, family).unwrap();
                assert_eq!(symbolic_cert.proof, ProofForm::Symbolic);
                assert_eq!(normalized(symbolic_cert), normalized(enumerated));
                row_pairs += 1;
            }
        }
    }

    // Coverage pins: 12 matrices × 4 thread counts × 3 strategies ×
    // (1 scalar + |SUPPORTED_LANES| lifted) pairs, 12 × 4 × 2 row pairs.
    assert_eq!(sym_pairs, 12 * 4 * 3 * (1 + SUPPORTED_LANES.len()));
    assert_eq!(row_pairs, 12 * 4 * 2);
}

/// The skew and structural kinds go through the same differential sweep —
/// the kind side conditions must discharge symbolically from the facts.
#[test]
fn symbolic_agrees_on_skew_and_structural_kinds() {
    let skew = SssMatrix::from_coo_kind(
        &symspmv_sparse::gen::skew_convection(384, 11, 5.0, 7),
        SymmetryKind::Skew,
        0.0,
    )
    .unwrap();
    let compared = differential_sym_sweep(&skew, "skew-convection");
    assert_eq!(compared, 4 * 3 * (1 + SUPPORTED_LANES.len()));

    let structural = SssMatrix::from_coo_kind(
        &symspmv_sparse::gen::structural_random(384, 6.0, 0.7, 10, 23),
        SymmetryKind::Structural,
        0.0,
    )
    .unwrap();
    let compared = differential_sym_sweep(&structural, "structural-random");
    assert_eq!(compared, 4 * 3 * (1 + SUPPORTED_LANES.len()));
}

/// The asymptotic pin: enumerative certification re-walks `O(nnz)` matrix
/// structure per plan; the symbolic proof is `O(p + c)` against
/// pre-distilled facts. On the largest suite matrix the symbolic path
/// must be at least 10× faster — measured as best-of-N to shed scheduler
/// noise.
#[test]
fn symbolic_certification_is_an_order_of_magnitude_faster() {
    let suite = generate_suite(0.002);
    let m = suite.iter().max_by_key(|m| m.coo.nnz()).unwrap();
    let sss = SssMatrix::from_coo(&m.coo, 0.0).unwrap();
    let p = 8;
    let strategy: Arc<dyn ReductionStrategy> = Arc::new(IndexingReduction);
    let plan = sym_plan(&sss, p, &strategy);
    let facts = StructureFacts::of(&sss);

    let best = |reps: usize, mut f: Box<dyn FnMut()>| -> Duration {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .min()
            .unwrap_or_default()
    };

    let sss_ref = &sss;
    let plan_r = &plan;
    let facts_ref = &facts;
    let enum_time = best(
        3,
        Box::new(move || {
            certify_sym(sss_ref, &plan_ref(plan_r, SymStrategyKind::Indexing)).unwrap();
        }),
    );
    let sym_time = best(
        10,
        Box::new(move || {
            certify_sym_symbolic(
                facts_ref,
                &plan_ref(plan_r, SymStrategyKind::Indexing),
                &plan_r.conflicts,
            )
            .unwrap();
        }),
    );

    assert!(
        enum_time >= sym_time * 10,
        "symbolic certification must be ≥10× faster on {} ({} lower nnz): enumerative {:?} vs symbolic {:?}",
        m.spec.name,
        sss.lower_nnz(),
        enum_time,
        sym_time
    );
}
