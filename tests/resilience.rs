//! End-to-end resilience: the supervisor, retry policy, serial fallback
//! and resilient solver riding through injected faults on one shared
//! [`ExecutionContext`] (DESIGN.md §16).
//!
//! `tests/fault_recovery.rs` pins the *mechanics* (a panic surfaces typed,
//! the arena heals, the context recovers); this file pins the *service*
//! built on top: requests keep being answered — bit-identically — while
//! workers are killed, wedged past their deadline, and retried.
//!
//! The fault hooks are compiled in via this package's dev-dependency on
//! `symspmv-runtime` with the `fault-injection` feature.

use std::sync::Arc;
use std::time::Duration;

use symspmv::core::{
    FallbackKernel, ReductionMethod, Resilient, RetryPolicy, Served, SymFormat, SymSpmv,
    SymSpmvError,
};
use symspmv::runtime::{ExecutionContext, PoolHealth, Supervision};
use symspmv::sparse::dense::seeded_vector;
use symspmv::sparse::{CooMatrix, SssMatrix};

fn test_matrix() -> CooMatrix {
    symspmv::sparse::gen::banded_random(400, 15, 7.0, 41)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// The serial SSS reference — what the fallback must reproduce bit-for-bit.
fn serial_reference(coo: &CooMatrix, x: &[f64]) -> Vec<f64> {
    let sss = SssMatrix::from_coo(coo, 0.0).unwrap_or_else(|e| panic!("valid matrix: {e}"));
    let mut y = vec![0.0; x.len()];
    sss.spmv(x, &mut y);
    y
}

fn service_over(
    coo: &CooMatrix,
    ctx: &Arc<ExecutionContext>,
    policy: RetryPolicy,
) -> Resilient<SymSpmv> {
    let kernel = SymSpmv::try_from_coo(coo, ctx, ReductionMethod::Indexing, SymFormat::Sss)
        .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
    let fallback = FallbackKernel::from_coo_kind(
        coo,
        symspmv::sparse::symmetry::SymmetryKind::Symmetric,
        Arc::clone(ctx),
    )
    .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
    Resilient::new(kernel, fallback, policy)
}

const DEADLINE: Duration = Duration::from_millis(250);

#[test]
fn wedged_round_degrades_to_the_fallback_and_parallel_service_resumes() {
    let coo = test_matrix();
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 17);
    let want = serial_reference(&coo, &x);

    let ctx = ExecutionContext::new(3);
    let policy =
        RetryPolicy::new(2).with_backoff(Duration::from_micros(50), Duration::from_millis(1));
    let mut service = service_over(&coo, &ctx, policy);
    let mut y = vec![0.0; n];

    // Clean request: the parallel baseline every later serve is held to.
    let served = service
        .spmv_within(&x, &mut y, Supervision::deadline_within(DEADLINE))
        .unwrap_or_else(|e| panic!("clean request failed: {e}"));
    assert!(matches!(served, Served::Parallel { attempts: 1 }));
    let y_base = y.clone();

    // Wedge a worker well past a short deadline: the watchdog must mark
    // the pool, the request must degrade onto the serial fallback, and the
    // answer must still be bit-identical to the serial reference.
    ctx.fault_plan()
        .arm_worker_wedge(1, 0, Duration::from_millis(300));
    let served = service
        .spmv_within(
            &x,
            &mut y,
            Supervision::deadline_within(Duration::from_millis(100)),
        )
        .unwrap_or_else(|e| panic!("wedged request must be served, got {e}"));
    match &served {
        Served::Fallback {
            cause: SymSpmvError::DeadlineExceeded { wedged: true },
        } => {}
        other => panic!("expected a wedged-deadline fallback serve, got {other:?}"),
    }
    assert_eq!(bits(&y), bits(&want), "fallback serve is not the reference");

    // The round drained before the call returned: the pool is back from
    // Wedged (now Degraded), the tardy worker was respawned, the wedge and
    // failure were counted.
    assert_eq!(ctx.health(), PoolHealth::Degraded);
    assert!(ctx.health_state().wedges() >= 1);
    assert!(ctx.health_state().failures() >= 1);
    assert!(ctx.health_state().respawns() >= 1);
    assert!(ctx.arena_all_free_zero());

    // Parallel service resumes on the healed pool, bit-identical to the
    // pre-wedge baseline.
    let served = service
        .spmv_within(&x, &mut y, Supervision::deadline_within(DEADLINE))
        .unwrap_or_else(|e| panic!("post-wedge request failed: {e}"));
    assert!(matches!(served, Served::Parallel { attempts: 1 }));
    assert_eq!(bits(&y), bits(&y_base));
    assert_eq!(service.parallel_serves(), 2);
    assert_eq!(service.fallback_serves(), 1);
}

/// The same degradation contract for the *scheduled* strategy: a wedged
/// worker inside a coloring run (the race kernel's barriered group
/// rounds) trips the deadline watchdog, `Resilient` degrades the request
/// onto the serial fallback bit-identically, and parallel race service
/// resumes on the healed pool.
#[test]
fn wedged_coloring_run_degrades_to_the_fallback_and_race_service_resumes() {
    let coo = test_matrix();
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 17);
    let want = serial_reference(&coo, &x);

    let ctx = ExecutionContext::new(3);
    let policy =
        RetryPolicy::new(2).with_backoff(Duration::from_micros(50), Duration::from_millis(1));
    let kernel = SymSpmv::try_from_coo(&coo, &ctx, ReductionMethod::Race, SymFormat::Sss)
        .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
    let fallback = FallbackKernel::from_coo_kind(
        &coo,
        symspmv::sparse::symmetry::SymmetryKind::Symmetric,
        Arc::clone(&ctx),
    )
    .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
    let mut service = Resilient::new(kernel, fallback, policy);
    let mut y = vec![0.0; n];

    // Clean race request: the parallel baseline.
    let served = service
        .spmv_within(&x, &mut y, Supervision::deadline_within(DEADLINE))
        .unwrap_or_else(|e| panic!("clean request failed: {e}"));
    assert!(matches!(served, Served::Parallel { attempts: 1 }));
    let y_base = y.clone();

    // Wedge worker 1 in the next round (a group round of the schedule)
    // well past a short deadline.
    ctx.fault_plan()
        .arm_worker_wedge(1, 1, Duration::from_millis(300));
    let served = service
        .spmv_within(
            &x,
            &mut y,
            Supervision::deadline_within(Duration::from_millis(100)),
        )
        .unwrap_or_else(|e| panic!("wedged coloring run must be served, got {e}"));
    match &served {
        Served::Fallback {
            cause: SymSpmvError::DeadlineExceeded { wedged: true },
        } => {}
        other => panic!("expected a wedged-deadline fallback serve, got {other:?}"),
    }
    assert_eq!(bits(&y), bits(&want), "fallback serve is not the reference");
    assert_eq!(ctx.health(), PoolHealth::Degraded);
    assert!(ctx.health_state().respawns() >= 1);
    assert!(ctx.arena_all_free_zero());

    // Parallel race service resumes, bit-identical to the baseline.
    let served = service
        .spmv_within(&x, &mut y, Supervision::deadline_within(DEADLINE))
        .unwrap_or_else(|e| panic!("post-wedge request failed: {e}"));
    assert!(matches!(served, Served::Parallel { attempts: 1 }));
    assert_eq!(bits(&y), bits(&y_base));
    assert_eq!(service.parallel_serves(), 2);
    assert_eq!(service.fallback_serves(), 1);
}

#[test]
fn worker_kills_are_retried_transparently() {
    let coo = test_matrix();
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 19);

    let ctx = ExecutionContext::new(3);
    let policy =
        RetryPolicy::new(3).with_backoff(Duration::from_micros(50), Duration::from_millis(1));
    let mut service = service_over(&coo, &ctx, policy);
    let mut y = vec![0.0; n];

    service
        .spmv(&x, &mut y)
        .unwrap_or_else(|e| panic!("clean request failed: {e}"));
    let y_base = y.clone();

    for tid in 0..3 {
        ctx.fault_plan().arm_worker_panic(tid, 0);
        let served = service
            .spmv_within(&x, &mut y, Supervision::deadline_within(DEADLINE))
            .unwrap_or_else(|e| panic!("killed-worker request must be retried, got {e}"));
        assert!(
            matches!(served, Served::Parallel { attempts: 2 }),
            "tid {tid}: expected a second-attempt parallel serve, got {served:?}"
        );
        assert_eq!(bits(&y), bits(&y_base), "tid {tid}: retried serve diverges");
    }
    assert_eq!(ctx.health_state().failures(), 3);
    // Replaced OS threads only: tid 0 is the calling thread.
    assert_eq!(ctx.health_state().respawns(), 2);
    assert_eq!(service.fallback_serves(), 0);
}

#[test]
fn retry_exhaustion_degrades_to_the_fallback() {
    let coo = test_matrix();
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 23);
    let want = serial_reference(&coo, &x);

    let ctx = ExecutionContext::new(3);
    let policy =
        RetryPolicy::new(2).with_backoff(Duration::from_micros(50), Duration::from_millis(1));
    let mut service = service_over(&coo, &ctx, policy);
    let mut y = vec![0.0; n];
    service
        .spmv(&x, &mut y)
        .unwrap_or_else(|e| panic!("warm-up failed: {e}"));

    // Kill a worker in the first round of *both* attempts: attempt 1 dies
    // in the next pool round, the retry's multiply is the round after.
    ctx.fault_plan().arm_worker_panic(0, 0);
    ctx.fault_plan().arm_worker_panic(1, 1);
    let served = service
        .spmv_within(&x, &mut y, Supervision::deadline_within(DEADLINE))
        .unwrap_or_else(|e| panic!("exhausted request must still be served, got {e}"));
    match &served {
        Served::Fallback {
            cause: SymSpmvError::RetriesExhausted { attempts: 2, .. },
        } => {}
        other => panic!("expected a retries-exhausted fallback serve, got {other:?}"),
    }
    assert_eq!(bits(&y), bits(&want));
    assert!(ctx.arena_all_free_zero());
}

#[test]
fn resilient_cg_rides_through_an_injected_worker_death() {
    use symspmv::solver::{cg, resilient_cg, CgConfig};

    let coo = symspmv::sparse::gen::laplacian_2d(22, 22);
    let n = coo.nrows() as usize;
    let b = seeded_vector(n, 31);
    let config = CgConfig {
        max_iters: 400,
        ..CgConfig::default()
    };

    // Plain CG on a clean context: the bitwise yardstick.
    let clean_ctx = ExecutionContext::new(3);
    let mut clean =
        SymSpmv::try_from_coo(&coo, &clean_ctx, ReductionMethod::Indexing, SymFormat::Sss)
            .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
    let mut x_ref = vec![0.0; n];
    let outcome_ref = cg(&mut clean, &b, &mut x_ref, &config);
    assert!(outcome_ref.converged, "reference CG must converge");

    // Same solve on a faulted context: a worker dies a few rounds into the
    // solve; the wrapper restarts the attempt on the healed pool and the
    // final iterate is bit-identical to the clean run.
    let ctx = ExecutionContext::new(3);
    let mut kernel = SymSpmv::try_from_coo(&coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss)
        .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
    let mut fallback = FallbackKernel::from_coo_kind(
        &coo,
        symspmv::sparse::symmetry::SymmetryKind::Symmetric,
        Arc::clone(&ctx),
    )
    .unwrap_or_else(|e| panic!("valid matrix rejected: {e}"));
    ctx.fault_plan().arm_worker_panic(2, 5);
    let policy =
        RetryPolicy::new(3).with_backoff(Duration::from_micros(50), Duration::from_millis(1));
    let mut x_sol = vec![0.0; n];
    let served = resilient_cg(
        &mut kernel,
        &mut fallback,
        &b,
        &mut x_sol,
        &config,
        &policy,
        None,
    )
    .unwrap_or_else(|e| panic!("resilient solve failed: {e}"));
    assert!(
        !served.is_fallback(),
        "one kill must not exhaust the policy"
    );
    assert!(served.outcome.converged);
    assert!(
        ctx.health_state().respawns() >= 1,
        "the dead worker was respawned"
    );
    assert_eq!(
        bits(&x_sol),
        bits(&x_ref),
        "post-respawn rerun diverges from the clean solve"
    );
}

/// A miniature in-process chaos soak: a deterministic schedule of kills,
/// delays and wedges over one service; every request must be served —
/// parallel serves bit-identical to the fault-free baseline, fallback
/// serves bit-identical to the serial reference — and the context must end
/// the soak with a clean arena.
#[test]
fn mini_chaos_soak_serves_every_request_bit_identically() {
    let coo = test_matrix();
    let n = coo.nrows() as usize;
    let x = seeded_vector(n, 37);
    let want = serial_reference(&coo, &x);

    let p = 3usize;
    let ctx = ExecutionContext::new(p);
    let policy =
        RetryPolicy::new(3).with_backoff(Duration::from_micros(50), Duration::from_millis(1));
    let mut service = service_over(&coo, &ctx, policy);
    let mut y = vec![0.0; n];
    service
        .spmv(&x, &mut y)
        .unwrap_or_else(|e| panic!("baseline failed: {e}"));
    let y_base = y.clone();

    // Tiny LCG so the schedule is deterministic and self-contained.
    let mut state = 0x5EED_u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };

    let mut fallbacks = 0usize;
    for req in 0..30 {
        let tid = (rng() % p as u64) as usize;
        match rng() % 5 {
            0 => ctx.fault_plan().arm_worker_panic(tid, 0),
            1 => ctx
                .fault_plan()
                .arm_worker_delay(tid, 0, Duration::from_millis(2)),
            2 => ctx
                .fault_plan()
                .arm_worker_wedge(tid, 0, Duration::from_millis(300)),
            _ => {}
        }
        let served = service
            .spmv_within(
                &x,
                &mut y,
                Supervision::deadline_within(Duration::from_millis(150)),
            )
            .unwrap_or_else(|e| panic!("request {req}: availability lost: {e}"));
        match served {
            Served::Parallel { .. } => assert_eq!(
                bits(&y),
                bits(&y_base),
                "request {req}: parallel serve diverges from the baseline"
            ),
            Served::Fallback { .. } => {
                fallbacks += 1;
                assert_eq!(
                    bits(&y),
                    bits(&want),
                    "request {req}: fallback serve diverges from the reference"
                );
            }
        }
    }
    assert_eq!(service.parallel_serves() + service.fallback_serves(), 31);
    assert!(
        fallbacks >= 1,
        "the schedule contains wedges; at least one must degrade"
    );
    assert!(ctx.arena_all_free_zero());
    ctx.fault_plan().disarm_all();
}
