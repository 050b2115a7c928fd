//! Stress tests for the worker pool (kept out of the unit-test modules so
//! pool.rs stays focused on behaviour).

#![cfg(test)]

use crate::pool::WorkerPool;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

#[test]
fn many_rounds_many_threads() {
    let mut pool = WorkerPool::new(8);
    let sum = AtomicU64::new(0);
    for round in 0..200u64 {
        pool.run(&|tid| {
            sum.fetch_add(round * 8 + tid as u64, Ordering::Relaxed);
        });
    }
    // Σ_{round} Σ_{tid} (round·8 + tid) = Σ round·64 + 200·28
    let expect: u64 = (0..200u64).map(|r| r * 64).sum::<u64>() + 200 * 28;
    assert_eq!(sum.load(Ordering::Relaxed), expect);
}

#[test]
fn phases_are_barrier_separated() {
    // Phase 2 must observe *all* of phase 1's writes — this is the
    // multiply/reduce contract the symmetric kernels rely on.
    let mut pool = WorkerPool::new(4);
    let n = 1024;
    let mut data = vec![0u64; n];
    let slot = std::sync::Mutex::new(&mut data);
    for _ in 0..50 {
        pool.run(&|tid| {
            let mut guard = slot.lock().unwrap();
            let chunk = n / 4;
            for v in guard[tid * chunk..(tid + 1) * chunk].iter_mut() {
                *v += 1;
            }
        });
        let check = AtomicUsize::new(0);
        pool.run(&|tid| {
            let guard = slot.lock().unwrap();
            let first = guard[0];
            if guard.iter().all(|&v| v == first) {
                check.fetch_add(1, Ordering::Relaxed);
            }
            let _ = tid;
        });
        assert_eq!(
            check.load(Ordering::Relaxed),
            4,
            "phase-1 writes not visible"
        );
    }
}

#[test]
fn park_unpark_edge_keeps_every_share_and_the_barrier() {
    // Every tid runs every round, and a round sees all of the round before,
    // whether the workers are still spinning when the next round is
    // published (pauses of 0 and half the budget), parked (twice the
    // budget) or caught in between — on pools of one, on this host's two
    // CPUs, and oversubscribed.
    use crate::pool::SPIN_BUDGET;
    use std::time::{Duration, Instant};
    const PAIRS: usize = 350; // × 2 rounds × 3 pauses = 2 100 rounds per pool
    let pauses = [Duration::ZERO, SPIN_BUDGET / 2, SPIN_BUDGET * 2];
    let busy_wait = |pause: Duration| {
        let until = Instant::now() + pause;
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    };
    for p in [1, 2, 3, 8] {
        let mut pool = WorkerPool::new(p);
        let cells: Vec<AtomicU64> = (0..p).map(|_| AtomicU64::new(0)).collect();
        let hits: Vec<AtomicUsize> = (0..p).map(|_| AtomicUsize::new(0)).collect();
        let stale = AtomicUsize::new(0);
        let mut stamp = 0;
        for pause in pauses {
            for _ in 0..PAIRS {
                stamp += 1;
                pool.run(&|tid| {
                    cells[tid].store(stamp, Ordering::Relaxed);
                    hits[tid].fetch_add(1, Ordering::Relaxed);
                });
                busy_wait(pause);
                pool.run(&|tid| {
                    if cells.iter().any(|c| c.load(Ordering::Relaxed) != stamp) {
                        stale.fetch_add(1, Ordering::Relaxed);
                    }
                    hits[tid].fetch_add(1, Ordering::Relaxed);
                });
                busy_wait(pause);
            }
        }
        let rounds = 2 * PAIRS * pauses.len();
        assert_eq!(pool.rounds_run(), rounds, "pool size {p}");
        assert_eq!(stale.load(Ordering::Relaxed), 0, "pool size {p}");
        for (tid, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                rounds,
                "pool size {p}, tid {tid}"
            );
        }
    }
}

#[test]
fn pools_of_every_size_up_to_16() {
    for p in 1..=16 {
        let mut pool = WorkerPool::new(p);
        let mask = AtomicU64::new(0);
        pool.run(&|tid| {
            mask.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(
            mask.load(Ordering::Relaxed),
            (1u64 << p) - 1,
            "pool size {p}"
        );
        assert_eq!(pool.nthreads(), p);
    }
}

#[test]
fn double_fault_rounds_respawn_only_the_panicked_workers() {
    // Two *consecutive* panicked rounds — the second fault hits while the
    // pool is freshly recovered from the first — must not wedge any worker
    // or leak a stale panic payload. The supervisor respawns exactly the
    // spawned workers that died (fresh OS threads for their tids; share 0
    // is the caller, whose thread nobody replaces), keeps the survivors on
    // their original threads, and never re-creates the pool.
    let plan = crate::fault::FaultPlan::new();
    let mut pool = WorkerPool::new(4);
    pool.set_fault_plan(std::sync::Arc::clone(&plan));
    let health = pool.health_state();

    let ids_of_round = |pool: &mut WorkerPool| {
        let ids = std::sync::Mutex::new(vec![None; 4]);
        pool.try_run(&|tid| {
            ids.lock().unwrap()[tid] = Some(std::thread::current().id());
        })
        .expect("clean round");
        ids.into_inner().unwrap()
    };

    let ids_before = ids_of_round(&mut pool);
    plan.arm_worker_panic(0, 0);
    plan.arm_worker_panic(3, 1);

    let p0 = pool.try_run(&|_| {}).unwrap_err();
    assert_eq!(p0.tid(), 0);
    let p1 = pool.try_run(&|_| {}).unwrap_err();
    assert_eq!(p1.tid(), 3);
    assert_eq!(plan.fired(), 2);
    assert_eq!(health.failures(), 2);
    assert_eq!(health.respawns(), 1, "replaced threads only: tid 3");

    // A clean round still runs on all four tids: the panicked spawned
    // worker was replaced with a fresh thread, everyone else — the caller
    // running share 0 included — kept their OS threads.
    let ids_after = ids_of_round(&mut pool);
    assert_eq!(ids_before[0], Some(std::thread::current().id()));
    assert_eq!(ids_before[0], ids_after[0], "share 0 stays on the caller");
    assert_ne!(ids_before[3], ids_after[3], "worker 3 must be respawned");
    assert_eq!(ids_before[1], ids_after[1], "worker 1 kept its thread");
    assert_eq!(ids_before[2], ids_after[2], "worker 2 kept its thread");
    // The pool's own round counter ran on through both faults: recovery
    // replaced one worker, not the pool.
    assert_eq!(pool.rounds_run(), 4, "recovery must not create a new pool");
}

#[test]
fn plan_cache_consistent_under_concurrent_hammering() {
    // Workers race to populate the same keys; every get-after-put must
    // return *some* previously-inserted Arc (last write wins), the
    // counters must balance, and clearing must empty the map.
    use crate::context::{ExecutionContext, PlanKey};
    use std::any::Any;
    use std::sync::Arc;

    let ctx = ExecutionContext::new(8);
    let key = |m: u64, s: &str| PlanKey {
        matrix: m,
        nthreads: 8,
        strategy: s.to_string(),
    };

    let ctx2 = Arc::clone(&ctx);
    ctx.run(&move |tid| {
        for round in 0..50u64 {
            let k = key(round % 7, if round % 2 == 0 { "idx" } else { "eff" });
            if ctx2.plan_cache_get(&k).is_none() {
                ctx2.plan_cache_put(
                    k.clone(),
                    Arc::new((tid, round)) as Arc<dyn Any + Send + Sync>,
                );
            }
            let hit = ctx2
                .plan_cache_get(&k)
                .expect("key was just inserted by someone");
            let &(_, r) = hit
                .downcast_ref::<(usize, u64)>()
                .expect("cache only ever holds (tid, round) pairs here");
            assert!(r < 50);
        }
    });

    assert!(
        ctx.stats().plan_cache_len <= 14,
        "7 matrices × 2 strategies"
    );
    assert!(
        ctx.stats().plan_cache_hits >= 8 * 50,
        "every round ends in a hit"
    );
    ctx.clear_plan_cache();
    assert_eq!(ctx.stats().plan_cache_len, 0);
}

#[test]
fn drop_while_idle_is_clean() {
    for _ in 0..20 {
        let mut pool = WorkerPool::new(3);
        pool.run(&|_| {});
        drop(pool);
    }
}
