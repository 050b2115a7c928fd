//! The ISSUE acceptance test for the fault-injection runtime: a worker
//! panic deliberately injected into the *reduction* phase of a symmetric
//! SpMV must be caught and surfaced as [`SymSpmvError::WorkerPanicked`],
//! and a follow-up SpMV on the very same [`ExecutionContext`] must produce
//! results bit-identical to a fresh context — the dying worker leaves no
//! trace in the pool, the arena, or the output.
//!
//! The fault hooks are compiled in via this package's dev-dependency on
//! `symspmv-runtime` with the `fault-injection` feature.

use symspmv::core::{ParallelSpmv, ReductionMethod, SymFormat, SymSpmv, SymSpmvError};
use symspmv::runtime::ExecutionContext;
use symspmv::sparse::dense::seeded_vector;
use symspmv::sparse::CooMatrix;

fn test_matrix() -> CooMatrix {
    symspmv::sparse::gen::banded_random(600, 25, 9.0, 23)
}

/// One spmv on a warmed-up context spans exactly two pool rounds: the
/// multiply (`ctx.run`) and the reduction (`strategy.reduce` issues one
/// `pool.run`). Arming a fault `in_rounds = 1` from "now" therefore lands
/// it in the reduction phase of the next spmv.
const REDUCTION_ROUND_OFFSET: usize = 1;

#[test]
fn reduction_phase_panic_is_caught_and_context_recovers_bit_identical() {
    let coo = test_matrix();
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 11);

    for method in [
        ReductionMethod::Naive,
        ReductionMethod::EffectiveRanges,
        ReductionMethod::Indexing,
    ] {
        let ctx = ExecutionContext::new(4);
        let mut eng = SymSpmv::try_from_coo(&coo, &ctx, method, SymFormat::Sss)
            .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));

        // Warm up: the arena now holds the local-vector buffer, so the next
        // spmv issues no extra first-touch rounds that would shift the
        // armed round.
        let mut y_warm = vec![0.0; n];
        eng.try_spmv(&x, &mut y_warm).expect("warm-up spmv");

        // Kill worker 2 in the reduction phase of the next spmv.
        ctx.fault_plan().arm_worker_panic(2, REDUCTION_ROUND_OFFSET);
        let mut y_doomed = vec![0.0; n];
        let err = match eng.try_spmv(&x, &mut y_doomed) {
            Err(e) => e,
            Ok(()) => panic!("{method:?}: armed reduction panic did not surface"),
        };
        match &err {
            SymSpmvError::WorkerPanicked { tid, message } => {
                assert_eq!(*tid, 2, "{method:?}: wrong worker blamed: {err}");
                assert!(
                    message.contains("injected fault"),
                    "{method:?}: panic payload lost: {message}"
                );
            }
            other => panic!("{method:?}: expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(
            ctx.fault_plan().fired(),
            1,
            "{method:?}: the armed fault must fire exactly once"
        );

        // `try_spmv` consumed the pool's panic record to build the error,
        // so no stale record lingers to be misattributed to a later call.
        assert_eq!(ctx.take_last_panic(), None);

        // The arena healed: every free buffer is back to all-zeros, so the
        // next lease cannot observe the half-reduced garbage.
        assert!(
            ctx.arena_all_free_zero(),
            "{method:?}: arena dirty after a panicked reduction"
        );

        // Recovery: the SAME engine on the SAME context must now agree
        // bit-for-bit with a fresh context running the same kernel.
        let mut y_recovered = vec![0.0; n];
        eng.try_spmv(&x, &mut y_recovered)
            .unwrap_or_else(|e| panic!("{method:?}: context not reusable: {e}"));

        let fresh_ctx = ExecutionContext::new(4);
        let mut fresh_eng = SymSpmv::try_from_coo(&coo, &fresh_ctx, method, SymFormat::Sss)
            .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
        let mut y_fresh = vec![0.0; n];
        fresh_eng.try_spmv(&x, &mut y_fresh).expect("fresh spmv");

        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&y_recovered),
            bits(&y_fresh),
            "{method:?}: recovered context diverges from a fresh one"
        );
        // And from its own pre-fault answer.
        assert_eq!(bits(&y_recovered), bits(&y_warm));
    }
}

/// The batched path under the same injection: a worker panic in the
/// reduction phase of an SpMM must surface as `WorkerPanicked`, the leased
/// block buffers (k lanes wide) must be scrubbed back to the arena
/// mid-unwind, and a follow-up SpMM on the same context must be
/// bit-identical to a fresh one.
#[test]
fn reduction_phase_panic_during_spmm_is_caught_and_context_recovers() {
    use symspmv::core::ParallelSpmm;
    use symspmv::sparse::VectorBlock;

    let coo = test_matrix();
    let n = coo.nrows() as usize;
    let lanes = 4;
    let x = VectorBlock::seeded(n, lanes, 11);

    for method in [
        ReductionMethod::Naive,
        ReductionMethod::EffectiveRanges,
        ReductionMethod::Indexing,
    ] {
        let ctx = ExecutionContext::new(4);
        let mut eng = SymSpmv::try_from_coo(&coo, &ctx, method, SymFormat::Sss)
            .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));

        // Warm up so the k-lane-wide local buffer is already in the arena
        // and the armed round lands in the reduction, not a first-touch.
        let mut y_warm = VectorBlock::zeros(n, lanes);
        eng.try_spmm(&x, &mut y_warm).expect("warm-up spmm");

        let before = eng.times();
        ctx.fault_plan().arm_worker_panic(2, REDUCTION_ROUND_OFFSET);
        let mut y_doomed = VectorBlock::zeros(n, lanes);
        match eng.try_spmm(&x, &mut y_doomed) {
            Err(SymSpmvError::WorkerPanicked { tid, message }) => {
                assert_eq!(tid, 2, "{method:?}: wrong worker blamed");
                assert!(
                    message.contains("injected fault"),
                    "{method:?}: panic payload lost: {message}"
                );
            }
            Err(other) => panic!("{method:?}: expected WorkerPanicked, got {other:?}"),
            Ok(()) => panic!("{method:?}: armed reduction panic did not surface"),
        }
        assert_eq!(ctx.fault_plan().fired(), 1);
        assert_eq!(ctx.take_last_panic(), None);

        // The unwinding call keeps the phase clocks: the finished multiply
        // was counted, and the reduce time of earlier calls is not lost.
        let after = eng.times();
        assert!(
            after.multiply > before.multiply && after.reduce >= before.reduce,
            "{method:?}: phase clocks went from {before:?} to {after:?}"
        );

        // The lane-wide leases returned mid-unwind left the arena whole:
        // every free buffer is back to all-zeros.
        assert!(
            ctx.arena_all_free_zero(),
            "{method:?}: arena dirty after a panicked block reduction"
        );

        // Recovery: same engine, same context, bit-identical to fresh.
        let mut y_recovered = VectorBlock::zeros(n, lanes);
        eng.try_spmm(&x, &mut y_recovered)
            .unwrap_or_else(|e| panic!("{method:?}: context not reusable: {e}"));

        let fresh_ctx = ExecutionContext::new(4);
        let mut fresh_eng = SymSpmv::try_from_coo(&coo, &fresh_ctx, method, SymFormat::Sss)
            .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
        let mut y_fresh = VectorBlock::zeros(n, lanes);
        fresh_eng.try_spmm(&x, &mut y_fresh).expect("fresh spmm");

        let bits = |v: &VectorBlock| v.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&y_recovered),
            bits(&y_fresh),
            "{method:?}: recovered context diverges from a fresh one on the block path"
        );
        assert_eq!(bits(&y_recovered), bits(&y_warm));
    }
}

/// The recovery contract is kind-independent: a reduction-phase worker
/// panic on a skew or structurally symmetric engine surfaces as
/// `WorkerPanicked` and the same context afterwards computes results
/// bit-identical to a fresh one, exactly as the symmetric rows above.
#[test]
fn reduction_phase_panic_recovery_holds_per_kind() {
    use symspmv::sparse::symmetry::SymmetryKind;

    let cases = [
        (
            SymmetryKind::Skew,
            symspmv::sparse::gen::skew_convection(600, 25, 9.0, 23),
        ),
        (
            SymmetryKind::Structural,
            symspmv::sparse::gen::structural_random(600, 9.0, 0.5, 25, 23),
        ),
    ];
    for (kind, coo) in cases {
        let n = coo.nrows() as usize;
        let x = seeded_vector(n, 11);
        let ctx = ExecutionContext::new(4);
        let mut eng =
            SymSpmv::try_from_coo_kind(&coo, kind, &ctx, ReductionMethod::Indexing, SymFormat::Sss)
                .unwrap_or_else(|e| panic!("{kind:?}: valid matrix rejected: {e}"));

        let mut y_warm = vec![0.0; n];
        eng.try_spmv(&x, &mut y_warm).expect("warm-up spmv");

        ctx.fault_plan().arm_worker_panic(2, REDUCTION_ROUND_OFFSET);
        let mut y_doomed = vec![0.0; n];
        match eng.try_spmv(&x, &mut y_doomed) {
            Err(SymSpmvError::WorkerPanicked { tid, .. }) => {
                assert_eq!(tid, 2, "{kind:?}: wrong worker blamed");
            }
            Err(other) => panic!("{kind:?}: expected WorkerPanicked, got {other:?}"),
            Ok(()) => panic!("{kind:?}: armed reduction panic did not surface"),
        }
        assert_eq!(ctx.fault_plan().fired(), 1);
        assert_eq!(ctx.take_last_panic(), None);
        assert!(
            ctx.arena_all_free_zero(),
            "{kind:?}: arena dirty after a panicked reduction"
        );

        let mut y_recovered = vec![0.0; n];
        eng.try_spmv(&x, &mut y_recovered)
            .unwrap_or_else(|e| panic!("{kind:?}: context not reusable: {e}"));

        let fresh_ctx = ExecutionContext::new(4);
        let mut fresh_eng = SymSpmv::try_from_coo_kind(
            &coo,
            kind,
            &fresh_ctx,
            ReductionMethod::Indexing,
            SymFormat::Sss,
        )
        .unwrap_or_else(|e| panic!("{kind:?}: valid matrix rejected: {e}"));
        let mut y_fresh = vec![0.0; n];
        fresh_eng.try_spmv(&x, &mut y_fresh).expect("fresh spmv");

        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&y_recovered),
            bits(&y_fresh),
            "{kind:?}: recovered context diverges from a fresh one"
        );
        assert_eq!(bits(&y_recovered), bits(&y_warm));
    }
}

/// The supervision satellite: a request cancelled *mid-run* — the token
/// trips at the checkpoint between the multiply and the reduction — must
/// come back as the typed [`SymSpmvError::Cancelled`], leave the arena
/// all-free-zero, and the very same context must then serve a bit-identical
/// SpMV. Swept over every thread count and every symmetry kind, because
/// both the checkpoint cadence (reduction rounds exist only at `p > 1`)
/// and the mirror rule vary across that product.
#[test]
fn cancelled_mid_reduction_returns_typed_error_and_context_recovers() {
    use symspmv::runtime::{CancelToken, Supervision};
    use symspmv::sparse::symmetry::SymmetryKind;

    let cases = [
        (SymmetryKind::Symmetric, test_matrix()),
        (
            SymmetryKind::Skew,
            symspmv::sparse::gen::skew_convection(600, 25, 9.0, 23),
        ),
        (
            SymmetryKind::Structural,
            symspmv::sparse::gen::structural_random(600, 9.0, 0.5, 25, 23),
        ),
    ];
    for (kind, coo) in &cases {
        let n = coo.nrows() as usize;
        let x = seeded_vector(n, 11);
        for p in [1usize, 2, 3, 4, 8] {
            let ctx = ExecutionContext::new(p);
            let mut eng = SymSpmv::try_from_coo_kind(
                coo,
                *kind,
                &ctx,
                ReductionMethod::Indexing,
                SymFormat::Sss,
            )
            .unwrap_or_else(|e| panic!("{kind:?}: valid matrix rejected: {e}"));

            let mut y_warm = vec![0.0; n];
            eng.try_spmv(&x, &mut y_warm).expect("warm-up spmv");

            // At p > 1 a warm spmv polls two checkpoints (multiply, then
            // reduction); tripping the token after one poll cancels exactly
            // between the phases. At p = 1 there is no reduction round, so
            // the very next checkpoint is the only mid-run point.
            let token = CancelToken::new();
            token.cancel_after_checkpoints(if p > 1 { 1 } else { 0 });
            let mut y_doomed = vec![0.0; n];
            let res = {
                let _guard = ctx.supervise(Supervision::with_cancel(token.clone()));
                eng.try_spmv(&x, &mut y_doomed)
            };
            match res {
                Err(SymSpmvError::Cancelled) => {}
                other => panic!("{kind:?} p={p}: expected Cancelled, got {other:?}"),
            }
            assert!(token.is_cancelled());
            // The interrupt is not a worker death: nothing to misattribute,
            // nothing left dirty in the arena.
            assert_eq!(ctx.take_last_panic(), None, "{kind:?} p={p}");
            assert!(
                ctx.arena_all_free_zero(),
                "{kind:?} p={p}: arena dirty after a cancelled run"
            );

            // The supervision guard is gone; the same engine on the same
            // context must agree bit-for-bit with its pre-cancel answer.
            let mut y_recovered = vec![0.0; n];
            eng.try_spmv(&x, &mut y_recovered)
                .unwrap_or_else(|e| panic!("{kind:?} p={p}: context not reusable: {e}"));
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&y_recovered),
                bits(&y_warm),
                "{kind:?} p={p}: recovered context diverges after cancellation"
            );
        }
    }
}

/// A deadline that is already expired when the request starts must be
/// detected at the first checkpoint — before any worker round runs — and
/// surface as the typed `DeadlineExceeded` with `wedged: false` (no round
/// overran; the budget was simply gone). The context stays serviceable.
#[test]
fn expired_deadline_interrupts_at_the_first_checkpoint() {
    use std::time::Duration;
    use symspmv::runtime::Supervision;

    let coo = test_matrix();
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 11);
    let ctx = ExecutionContext::new(4);
    let mut eng = SymSpmv::try_from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss)
        .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));

    let mut y_warm = vec![0.0; n];
    eng.try_spmv(&x, &mut y_warm).expect("warm-up spmv");

    let mut y_doomed = vec![0.0; n];
    let res = {
        let _guard = ctx.supervise(Supervision::deadline_within(Duration::ZERO));
        eng.try_spmv(&x, &mut y_doomed)
    };
    match res {
        Err(SymSpmvError::DeadlineExceeded { wedged: false }) => {}
        other => panic!("expected DeadlineExceeded {{ wedged: false }}, got {other:?}"),
    }
    assert_eq!(ctx.take_last_panic(), None);
    assert!(ctx.arena_all_free_zero());

    let mut y_recovered = vec![0.0; n];
    eng.try_spmv(&x, &mut y_recovered)
        .unwrap_or_else(|e| panic!("context not reusable after deadline: {e}"));
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&y_recovered), bits(&y_warm));
}

/// The scheduled (race) strategy has no reduction phase to kill, so the
/// fault is aimed mid-*schedule* instead: worker 2 dies inside a color
/// group's pool round while every thread is writing `y` directly. The
/// typed error, the clean arena and the bit-identical recovery must hold
/// exactly as they do for the reduction-phase kills above.
#[test]
fn race_group_round_panic_is_caught_and_context_recovers_bit_identical() {
    let coo = test_matrix();
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 11);

    let ctx = ExecutionContext::new(4);
    let mut eng = SymSpmv::try_from_coo(&coo, &ctx, ReductionMethod::Race, SymFormat::Sss)
        .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));

    let mut y_warm = vec![0.0; n];
    eng.try_spmv(&x, &mut y_warm).expect("warm-up spmv");

    // A race spmv dispatches round 0 (the diagonal pre-pass) and then one
    // round per color group; arming two rounds ahead lands the panic
    // inside the second group round — mid-schedule, with part of `y`
    // already scattered.
    ctx.fault_plan().arm_worker_panic(2, 2);
    let mut y_doomed = vec![0.0; n];
    match eng.try_spmv(&x, &mut y_doomed) {
        Err(SymSpmvError::WorkerPanicked { tid, message }) => {
            assert_eq!(tid, 2, "wrong worker blamed");
            assert!(
                message.contains("injected fault"),
                "panic payload lost: {message}"
            );
        }
        Err(other) => panic!("expected WorkerPanicked, got {other:?}"),
        Ok(()) => panic!("armed mid-group panic did not surface"),
    }
    assert_eq!(ctx.fault_plan().fired(), 1);
    assert_eq!(ctx.take_last_panic(), None);

    // The race kernel leases nothing, but the invariant is global: the
    // arena must still be all-free-zero after the unwind.
    assert!(
        ctx.arena_all_free_zero(),
        "arena dirty after a panicked group round"
    );

    // Recovery: the fixed group order makes the race kernel
    // deterministic, so the same engine on the same context must agree
    // bit-for-bit with a fresh context — and with its pre-fault answer.
    let mut y_recovered = vec![0.0; n];
    eng.try_spmv(&x, &mut y_recovered)
        .unwrap_or_else(|e| panic!("context not reusable: {e}"));

    let fresh_ctx = ExecutionContext::new(4);
    let mut fresh_eng =
        SymSpmv::try_from_coo(&coo, &fresh_ctx, ReductionMethod::Race, SymFormat::Sss)
            .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
    let mut y_fresh = vec![0.0; n];
    fresh_eng.try_spmv(&x, &mut y_fresh).expect("fresh spmv");

    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&y_recovered),
        bits(&y_fresh),
        "recovered context diverges from a fresh one"
    );
    assert_eq!(bits(&y_recovered), bits(&y_warm));
}

#[test]
fn panic_in_one_kernel_does_not_poison_siblings_on_the_shared_context() {
    // Two kernels share one context; a worker death inside the first must
    // leave the second computing bit-identical results.
    let coo = test_matrix();
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 29);

    let ctx = ExecutionContext::new(3);
    let mut victim = SymSpmv::try_from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss)
        .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
    let mut sibling =
        SymSpmv::try_from_coo(&coo, &ctx, ReductionMethod::EffectiveRanges, SymFormat::Sss)
            .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));

    let mut y_before = vec![0.0; n];
    sibling.try_spmv(&x, &mut y_before).expect("baseline spmv");

    let mut y = vec![0.0; n];
    victim.try_spmv(&x, &mut y).expect("warm-up spmv");
    ctx.fault_plan().arm_worker_panic(1, REDUCTION_ROUND_OFFSET);
    assert!(
        matches!(
            victim.try_spmv(&x, &mut y),
            Err(SymSpmvError::WorkerPanicked { tid: 1, .. })
        ),
        "armed reduction panic did not surface as WorkerPanicked"
    );
    let _ = ctx.take_last_panic();

    let mut y_after = vec![0.0; n];
    sibling.try_spmv(&x, &mut y_after).expect("sibling spmv");
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&y_after),
        bits(&y_before),
        "sibling kernel corrupted by another kernel's worker death"
    );
    assert!(ctx.arena_all_free_zero());
}

#[test]
fn encode_round_panic_is_absorbed_and_the_kernel_is_the_clean_build() {
    // A CSX-Sym build dispatches one pool round, share `i` encoding chunk
    // `i`. Killing share 1 there costs a re-encode on the caller, not the
    // build: the kernel multiplies bit-identically to one built on a clean
    // context, and the pool counts the failure.
    let coo = symspmv::sparse::gen::block_structural(200, 3, 8.0, 12, 9);
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 31);
    let format = || SymFormat::CsxSym(symspmv::csx::detect::DetectConfig::default());
    let build = |ctx: &std::sync::Arc<ExecutionContext>| {
        SymSpmv::try_from_coo(&coo, ctx, ReductionMethod::Indexing, format())
            .unwrap_or_else(|e| panic!("a pool fault failed the build: {e}"))
    };

    let clean_ctx = ExecutionContext::new(2);
    let mut clean = build(&clean_ctx);
    let ctx = ExecutionContext::new(2);
    let failures = ctx.health_state().failures();
    ctx.fault_plan().arm_worker_panic(1, 0);
    let mut healed = build(&ctx);
    assert_eq!(ctx.fault_plan().fired(), 1, "the encode round never ran");
    assert_eq!(ctx.health_state().failures(), failures + 1);

    assert_eq!(healed.size_bytes(), clean.size_bytes());
    let (mut y, mut y_clean) = (vec![0.0; n], vec![0.0; n]);
    healed
        .try_spmv(&x, &mut y)
        .expect("spmv after the healed build");
    clean.try_spmv(&x, &mut y_clean).expect("clean spmv");
    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&y), bits(&y_clean));
}
