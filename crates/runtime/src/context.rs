//! The shared execution context: one pool, one buffer arena.
//!
//! Every multithreaded kernel used to construct its own [`WorkerPool`] and
//! allocate its own local-vector buffers, so a harness sweep over six
//! formats spawned six pools and the CG solver could not amortize setup
//! across iterations. [`ExecutionContext`] centralizes the two shared
//! concerns:
//!
//! * the **worker pool** — created once, borrowed by every kernel;
//! * the **buffer arena** — recycled, first-touch-initialized `f64`
//!   buffers for local output vectors and solver scratch;
//!
//! plus the four built-in [`ReductionStrategy`] objects (naive /
//! effective-ranges / indexing / race), looked up by tag. The set is closed:
//! there is no registration. Every counter the context keeps is read through
//! one call, [`ExecutionContext::stats`]. It keeps no plans: each kernel
//! build derives the partition, layout and certificate it runs with, and
//! owns them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use symspmv_sparse::Spmd;

#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::FaultPlan;
use crate::pool::{WorkerPanic, WorkerPanicInfo, WorkerPool};
use crate::reduction::{
    EffectiveRangesReduction, IndexingReduction, NaiveReduction, RaceReduction, ReductionStrategy,
};
use crate::supervisor::{HealthState, PoolHealth, Supervision, SupervisionCell};

/// Locks a mutex, tolerating poisoning.
///
/// A worker panic re-raised inside [`ExecutionContext::with_pool`] poisons
/// the pool mutex while the pool itself is designed to survive the round;
/// honoring the poison flag would turn one caught panic into a permanently
/// unusable context.
pub(crate) fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// High-water mark for arena-retained scratch, in `f64` elements (32 Mi
/// elements = 256 MiB) — generous for every suite matrix, small enough that
/// one huge tenant matrix cannot pin its scratch forever in a long-lived
/// service.
const ARENA_RETAINED_LIMIT_DEFAULT: usize = 32 << 20;

/// Recycled `f64` buffers, handed out as [`BufferLease`]s.
///
/// Invariant: every free buffer is entirely zero. Kernel-local leases rely
/// on the reduction phase re-zeroing what it wrote (the cheap path — no
/// per-call memset); scratch leases are scrubbed on drop.
///
/// Retained memory is capped: when the free list exceeds `retained_limit`
/// elements, the largest free buffers are dropped (they are zero by the
/// invariant, so trimming cannot violate it) until the list fits again.
struct BufferArena {
    free: Vec<Vec<f64>>,
    retained_limit: usize,
    trims: usize,
}

impl Default for BufferArena {
    fn default() -> Self {
        BufferArena {
            free: Vec::new(),
            retained_limit: ARENA_RETAINED_LIMIT_DEFAULT,
            trims: 0,
        }
    }
}

impl BufferArena {
    /// Takes the best free buffer for a request of `len` elements: the
    /// smallest one that already covers it, else the largest (to minimize
    /// growth), else a fresh empty vector. Longer buffers are truncated —
    /// the dropped tail is zero by the arena invariant.
    fn acquire(&mut self, len: usize) -> Vec<f64> {
        let mut best: Option<usize> = None;
        for (i, buf) in self.free.iter().enumerate() {
            let better = match best {
                None => true,
                Some(j) => {
                    let (bi, bj) = (buf.len(), self.free[j].len());
                    if bj >= len {
                        bi >= len && bi < bj
                    } else {
                        bi > bj
                    }
                }
            };
            if better {
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let mut buf = self.free.swap_remove(i);
                buf.truncate(len);
                buf
            }
            None => Vec::new(),
        }
    }

    fn release(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
            self.trim();
        }
    }

    /// Sum of free-list capacities — the memory the arena is pinning.
    fn retained_elements(&self) -> usize {
        self.free.iter().map(|b| b.capacity()).sum()
    }

    /// Drops the largest free buffers until the retained total fits under
    /// the high-water mark. Dropped buffers are zero by the arena
    /// invariant, so trimming preserves it trivially.
    fn trim(&mut self) {
        while self.retained_elements() > self.retained_limit && !self.free.is_empty() {
            let largest = self
                .free
                .iter()
                .enumerate()
                .max_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i);
            match largest {
                Some(i) => {
                    self.free.swap_remove(i);
                    self.trims += 1;
                }
                None => break,
            }
        }
    }
}

/// The shared runtime layer: one pool, one arena, and the four built-in
/// reduction strategies.
///
/// Constructed once per run with [`ExecutionContext::new`] and passed to
/// every kernel as `Arc<ExecutionContext>`; interior mutability (mutexes)
/// keeps the public surface `&self` so many kernels can hold the context
/// at once while `run` still serializes parallel regions.
pub struct ExecutionContext {
    nthreads: usize,
    pool: Mutex<WorkerPool>,
    arena: Mutex<BufferArena>,
    strategies: [Arc<dyn ReductionStrategy>; 4],
    /// Leases returned holding non-zero data on the normal (non-panicking,
    /// non-scratch) path. Each one is a broken lease contract; the drop
    /// path heals the buffer (re-zeroes it) and counts it here.
    dirty_returns: AtomicUsize,
    /// Supervision slot shared with the pool: installable/clearable without
    /// the pool lock, consulted at every round checkpoint.
    supervision: Arc<SupervisionCell>,
    /// Health record shared with the pool: lock-free reads even while a
    /// wedged round holds the pool mutex.
    health: Arc<HealthState>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Arc<FaultPlan>,
}

/// The pool as `sparse`'s runner: share `i` of a round is worker `i`, and
/// a share that panicked is reported as [`ExecutionContext::try_run`]
/// reports it (the round drains and the context stays usable).
impl Spmd for ExecutionContext {
    fn shares(&self) -> usize {
        self.nthreads
    }

    fn run_shares(&self, body: &(dyn Fn(usize) + Sync)) -> bool {
        self.try_run(body).is_ok()
    }
}

impl ExecutionContext {
    /// Creates a context with its single pool of `nthreads` participants
    /// and the four built-in reduction strategies (`"naive"`, `"eff"`,
    /// `"idx"`, `"race"`). `P` participants means `P − 1` spawned threads
    /// plus the caller: whichever thread calls [`ExecutionContext::run`]
    /// executes share 0 itself, so `new(1)` spawns nothing.
    ///
    /// Panics if `nthreads == 0`.
    pub fn new(nthreads: usize) -> Arc<Self> {
        #[cfg(any(test, feature = "fault-injection"))]
        let fault = FaultPlan::new();
        #[allow(unused_mut)]
        let mut pool = WorkerPool::new(nthreads);
        #[cfg(any(test, feature = "fault-injection"))]
        pool.set_fault_plan(Arc::clone(&fault));
        let supervision = pool.supervision_cell();
        let health = pool.health_state();
        Arc::new(ExecutionContext {
            nthreads,
            pool: Mutex::new(pool),
            arena: Mutex::new(BufferArena::default()),
            strategies: [
                Arc::new(NaiveReduction),
                Arc::new(EffectiveRangesReduction),
                Arc::new(IndexingReduction),
                Arc::new(RaceReduction),
            ],
            dirty_returns: AtomicUsize::new(0),
            supervision,
            health,
            #[cfg(any(test, feature = "fault-injection"))]
            fault,
        })
    }

    /// Number of participants in the shared pool (the caller included).
    pub fn nthreads(&self) -> usize {
        self.nthreads
    }

    /// Executes `body(tid)` on every worker of the shared pool, blocking
    /// until the round completes. Panics from workers propagate exactly as
    /// with [`WorkerPool::run`]; a record stays readable via
    /// [`ExecutionContext::take_last_panic`].
    ///
    /// The re-raise happens *after* the pool guard is released, so this
    /// path never poisons the pool mutex.
    pub fn run(&self, body: &(dyn Fn(usize) + Sync)) {
        if let Err(p) = self.try_run(body) {
            p.resume();
        }
    }

    /// Like [`ExecutionContext::run`], but a worker panic is returned as a
    /// [`WorkerPanic`] value instead of being re-raised. On `Err` the round
    /// has fully drained and the context is immediately reusable.
    pub fn try_run(&self, body: &(dyn Fn(usize) + Sync)) -> Result<(), WorkerPanic> {
        lock_ignore_poison(&self.pool).try_run(body)
    }

    /// Takes (and clears) the record of the most recent worker panic on the
    /// shared pool — including panics raised inside
    /// [`ExecutionContext::with_pool`] rounds (e.g. a reduction strategy).
    pub fn take_last_panic(&self) -> Option<WorkerPanicInfo> {
        lock_ignore_poison(&self.pool).take_last_panic()
    }

    /// The fault plan consulted by the shared pool and the lease return
    /// path; arm faults on it to test recovery behaviour.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn fault_plan(&self) -> &Arc<FaultPlan> {
        &self.fault
    }

    /// Runs `f` with exclusive access to the shared pool, for callers (like
    /// reduction strategies) that issue several rounds back to back.
    pub fn with_pool<R>(&self, f: impl FnOnce(&mut WorkerPool) -> R) -> R {
        f(&mut lock_ignore_poison(&self.pool))
    }

    /// Number of rounds ever dispatched on the shared pool (see
    /// [`WorkerPool::rounds_run`]).
    pub fn pool_rounds(&self) -> usize {
        lock_ignore_poison(&self.pool).rounds_run()
    }

    /// Does nothing: the context keeps no plans, since every kernel build
    /// derives its own. It stays for its one caller,
    /// `benchmark/src/layers.rs`, which calls it before timing
    /// `core.plan_cold`.
    pub fn clear_plan_cache(&self) {}

    /// Installs supervision (cancellation token and/or deadline) for the
    /// request about to run on this context; the returned guard clears it
    /// on drop, including when the request unwinds with an
    /// [`Interrupt`](crate::Interrupt).
    ///
    /// The installation bypasses the pool lock, so supervision can be
    /// (re)configured even while a wedged round is still draining.
    pub fn supervise(&self, sup: Supervision) -> SupervisionGuard<'_> {
        self.supervision.install(sup);
        SupervisionGuard { ctx: self }
    }

    /// Current pool health (lock-free; readable while a wedged round holds
    /// the pool mutex).
    pub fn health(&self) -> PoolHealth {
        self.health.health()
    }

    /// The shared health record — failure/respawn/wedge counters and the
    /// MTBF estimate.
    pub fn health_state(&self) -> &Arc<HealthState> {
        &self.health
    }

    /// Leases a zeroed buffer of `len` elements for kernel local vectors.
    ///
    /// The lessee must return the buffer all-zero (the reduction phase
    /// re-zeroes exactly what the multiply phase wrote, so this costs
    /// nothing extra); debug builds verify the contract on drop. Buffer
    /// growth is zero-initialized in parallel on the pool so pages are
    /// first touched by the threads that will use them.
    pub fn lease(&self, len: usize) -> BufferLease<'_> {
        self.lease_inner(len, false)
    }

    /// Leases a zeroed scratch buffer that is scrubbed (re-zeroed) when the
    /// lease drops — for lessees like the CG solver whose buffers end the
    /// lease holding arbitrary data.
    pub fn lease_scratch(&self, len: usize) -> BufferLease<'_> {
        self.lease_inner(len, true)
    }

    fn lease_inner(&self, len: usize, scrub_on_drop: bool) -> BufferLease<'_> {
        let mut buf = lock_ignore_poison(&self.arena).acquire(len);
        if buf.len() < len {
            self.first_touch_extend(&mut buf, len);
        }
        debug_assert!(
            buf.iter().all(|&v| v == 0.0),
            "arena handed out a dirty buffer"
        );
        BufferLease {
            buf,
            ctx: self,
            scrub_on_drop,
        }
    }

    /// Extends `buf` to `len` elements, zero-initializing the new region in
    /// parallel so each worker first-touches the pages of the partition it
    /// will later write (NUMA-friendly page placement).
    fn first_touch_extend(&self, buf: &mut Vec<f64>, len: usize) {
        let old = buf.len();
        buf.reserve_exact(len - old);
        let base = buf.as_mut_ptr() as usize;
        let total = len - old;
        self.with_pool(|pool| {
            let p = pool.nthreads();
            pool.run(&|tid| {
                let lo = old + total * tid / p;
                let hi = old + total * (tid + 1) / p;
                // SAFETY(cert: first-touch): [lo, hi) regions are disjoint
                // across threads and lie within the capacity reserved
                // above; writing zeros to uninitialized f64 memory is valid
                // initialization.
                unsafe { std::ptr::write_bytes((base as *mut f64).add(lo), 0, hi - lo) };
            });
        });
        // SAFETY(cert: first-touch): all of [old, len) was initialized by
        // the parallel round above, which has fully drained.
        unsafe { buf.set_len(len) };
    }

    fn return_buffer(&self, buf: Vec<f64>) {
        lock_ignore_poison(&self.arena).release(buf);
    }

    /// Whether every free buffer in the arena is entirely zero — the arena
    /// invariant that recovery tests assert after panicked or corrupted
    /// rounds.
    pub fn arena_all_free_zero(&self) -> bool {
        lock_ignore_poison(&self.arena)
            .free
            .iter()
            .all(|buf| buf.iter().all(|&v| v == 0.0))
    }

    /// Looks up one of the four built-in reduction strategies by tag
    /// (`"naive"`, `"eff"`, `"idx"`, `"race"`); `None` for any other name.
    pub fn reduction(&self, name: &str) -> Option<Arc<dyn ReductionStrategy>> {
        self.strategies.iter().find(|s| s.name() == name).cloned()
    }

    /// Every counter the context keeps, read in one call (one arena lock).
    pub fn stats(&self) -> ContextStats {
        // RELAXED(telemetry read; approximate freshness is acceptable)
        let dirty_lease_returns = self.dirty_returns.load(Ordering::Relaxed);
        let (arena_free_buffers, arena_retained_elements, arena_trims) = {
            let arena = lock_ignore_poison(&self.arena);
            (arena.free.len(), arena.retained_elements(), arena.trims)
        };
        ContextStats {
            arena_free_buffers,
            arena_retained_elements,
            arena_trims,
            dirty_lease_returns,
        }
    }
}

/// A snapshot of the context's counters ([`ExecutionContext::stats`]).
/// Pool health has its own record, [`ExecutionContext::health_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextStats {
    /// Free buffers currently held by the arena.
    pub arena_free_buffers: usize,
    /// Elements (sum of capacities) the arena free list is pinning.
    pub arena_retained_elements: usize,
    /// Free buffers dropped by the arena's retained-memory bound.
    pub arena_trims: usize,
    /// Leases that came back dirty on the normal return path (broken lease
    /// contracts, healed and counted rather than recycled).
    pub dirty_lease_returns: usize,
}

/// RAII guard for installed supervision: clears the context's supervision
/// slot on drop, so a request's deadline or token can never leak into the
/// next request — including when the request unwinds.
pub struct SupervisionGuard<'a> {
    ctx: &'a ExecutionContext,
}

impl Drop for SupervisionGuard<'_> {
    fn drop(&mut self) {
        self.ctx.supervision.clear();
    }
}

/// A checked-out arena buffer; derefs to `[f64]` and returns itself to the
/// arena on drop.
pub struct BufferLease<'a> {
    buf: Vec<f64>,
    ctx: &'a ExecutionContext,
    scrub_on_drop: bool,
}

impl std::ops::Deref for BufferLease<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.buf
    }
}

impl std::ops::DerefMut for BufferLease<'_> {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf
    }
}

impl Drop for BufferLease<'_> {
    /// Returns the buffer to the arena, upholding the all-free-buffers-are-
    /// zero invariant on *every* path:
    ///
    /// * scratch leases and leases dropped during a panic unwind are
    ///   scrubbed wholesale — an unwinding kernel has abandoned its buffers
    ///   in an arbitrary state, and handing that state to the next lessee
    ///   would corrupt unrelated results long after the panic was caught;
    /// * normal kernel leases are verified and healed: a buffer holding any
    ///   non-zero value is zeroed and the violation counted
    ///   ([`ContextStats::dirty_lease_returns`]). Debug builds flag the
    ///   broken contract unless the dirt was deliberately injected by the
    ///   fault plan.
    fn drop(&mut self) {
        #[allow(unused_mut)]
        let mut injected = false;
        #[cfg(any(test, feature = "fault-injection"))]
        if let Some(v) = self.ctx.fault.lease_return_hook() {
            let n = self.buf.len();
            if n > 0 {
                self.buf[n / 2] = v;
                injected = true;
            }
        }
        if self.scrub_on_drop || std::thread::panicking() {
            self.buf.fill(0.0);
        } else {
            // `v != 0.0` as one branch-free OR over the bit patterns: the
            // shift drops the sign, so ±0 reads clean and NaN or any other
            // value dirty.
            let dirty = self.buf.iter().fold(0, |m, v| m | (v.to_bits() << 1)) != 0;
            if dirty {
                self.buf.fill(0.0);
                // RELAXED(telemetry counter; the scrub itself is ordered by
                // the arena mutex on reinsertion)
                self.ctx.dirty_returns.fetch_add(1, Ordering::Relaxed);
                debug_assert!(
                    injected,
                    "buffer lease returned dirty; the lessee must re-zero what it wrote"
                );
            }
        }
        // The lease is over: drop its shadow-memory entries so recycled
        // buffers do not alias earlier lessees' footprints.
        #[cfg(feature = "race-detector")]
        crate::race::forget_range(self.buf.as_ptr() as usize, self.buf.len());
        self.ctx.return_buffer(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn context_creates_exactly_one_pool() {
        // Pool identity is its worker threads: every round of the context
        // must land on the same four (a process-global pool counter would
        // also see the pools sibling tests build concurrently).
        let ctx = ExecutionContext::new(4);
        let hits = AtomicUsize::new(0);
        let mut workers_per_round = Vec::new();
        for _ in 0..5 {
            let workers = std::sync::Mutex::new(vec![None; 4]);
            ctx.run(&|tid| {
                hits.fetch_add(1, Ordering::Relaxed);
                workers.lock().unwrap()[tid] = Some(std::thread::current().id());
            });
            workers_per_round.push(workers.into_inner().unwrap());
        }
        assert_eq!(hits.load(Ordering::Relaxed), 20);
        assert_eq!(ctx.pool_rounds(), 5);
        assert!(workers_per_round[0].iter().all(Option::is_some));
        assert!(workers_per_round.iter().all(|w| *w == workers_per_round[0]));
    }

    #[test]
    fn leases_recycle_buffers() {
        let ctx = ExecutionContext::new(2);
        {
            let lease = ctx.lease(128);
            assert_eq!(lease.len(), 128);
            assert!(lease.iter().all(|&v| v == 0.0));
        }
        assert_eq!(ctx.stats().arena_free_buffers, 1);
        {
            // Same-size request reuses the returned buffer.
            let _lease = ctx.lease(128);
            assert_eq!(ctx.stats().arena_free_buffers, 0);
        }
        {
            // A smaller request truncates rather than allocating anew.
            let lease = ctx.lease(64);
            assert_eq!(lease.len(), 64);
            assert_eq!(ctx.stats().arena_free_buffers, 0);
        }
    }

    #[test]
    fn scratch_lease_scrubs_on_drop() {
        let ctx = ExecutionContext::new(2);
        {
            let mut s = ctx.lease_scratch(32);
            s.fill(7.5);
        }
        // The scrubbed buffer comes back zeroed for the next lessee.
        let lease = ctx.lease(32);
        assert!(lease.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn lease_growth_is_zeroed() {
        let ctx = ExecutionContext::new(3);
        drop(ctx.lease(10));
        let lease = ctx.lease(1000);
        assert_eq!(lease.len(), 1000);
        assert!(lease.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn builtin_strategies_registered() {
        let ctx = ExecutionContext::new(1);
        for tag in ["naive", "eff", "idx", "race"] {
            assert_eq!(ctx.reduction(tag).unwrap().name(), tag);
        }
        assert!(ctx.reduction("idx").unwrap().needs_index());
        assert!(ctx.reduction("race").unwrap().scheduled());
        assert!(ctx.reduction("race").unwrap().direct_write());
        assert!(!ctx.reduction("idx").unwrap().scheduled());
        assert!(!ctx.reduction("naive").unwrap().direct_write());
        assert!(ctx.reduction("nope").is_none());
    }

    #[test]
    fn try_run_surfaces_worker_panics_as_values() {
        let ctx = ExecutionContext::new(3);
        let err = ctx
            .try_run(&|tid| {
                if tid == 1 {
                    panic!("kernel died");
                }
            })
            .unwrap_err();
        assert_eq!(err.tid(), 1);
        assert!(err.message().contains("kernel died"));
        // Clean rounds afterwards; last_panic was recorded and is takeable.
        let info = ctx.take_last_panic().expect("panic recorded");
        assert_eq!(info.tid, 1);
        assert_eq!(ctx.take_last_panic(), None);
        ctx.try_run(&|_| {}).expect("context reusable");
    }

    #[test]
    fn with_pool_panics_are_recorded_too() {
        // Reduction strategies run rounds through with_pool; a panic there
        // must still be attributable after the unwind is caught.
        let ctx = ExecutionContext::new(2);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.with_pool(|pool| {
                pool.run(&|tid| {
                    if tid == 0 {
                        panic!("reduction died");
                    }
                });
            });
        }));
        assert!(res.is_err());
        let info = ctx.take_last_panic().expect("panic recorded");
        assert_eq!(info.tid, 0);
        assert!(info.message.contains("reduction died"));
    }

    #[test]
    fn lease_dropped_during_unwind_is_scrubbed() {
        let ctx = ExecutionContext::new(2);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut lease = ctx.lease(64);
            lease.fill(3.25); // kernel wrote, then dies mid-flight
            panic!("kernel died holding a dirty lease");
        }));
        assert!(res.is_err());
        // The buffer went back to the arena scrubbed, not dirty.
        assert_eq!(ctx.stats().arena_free_buffers, 1);
        assert!(ctx.arena_all_free_zero());
        // And the next lessee observes zeros.
        let lease = ctx.lease(64);
        assert!(lease.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn injected_lease_corruption_is_healed_and_counted() {
        let ctx = ExecutionContext::new(2);
        ctx.fault_plan().arm_corrupt_lease(0, 9.75);
        drop(ctx.lease(32));
        assert_eq!(ctx.fault_plan().fired(), 1);
        assert_eq!(ctx.stats().dirty_lease_returns, 1);
        assert!(ctx.arena_all_free_zero());
        // Subsequent clean returns do not bump the counter.
        drop(ctx.lease(32));
        assert_eq!(ctx.stats().dirty_lease_returns, 1);
    }

    #[test]
    fn lease_return_check_is_the_nonzero_predicate() {
        let ctx = ExecutionContext::new(1);
        // −0.0 compares equal to 0.0: clean, not counted.
        ctx.fault_plan().arm_corrupt_lease(0, -0.0);
        drop(ctx.lease(33));
        assert_eq!(ctx.fault_plan().fired(), 1);
        assert_eq!(ctx.stats().dirty_lease_returns, 0);
        for (k, v) in [f64::NAN, f64::MIN_POSITIVE / 4.0, -1e-300]
            .into_iter()
            .enumerate()
        {
            ctx.fault_plan().arm_corrupt_lease(0, v);
            drop(ctx.lease(33));
            assert_eq!(ctx.stats().dirty_lease_returns, k + 1, "{v:e}");
            let lease = ctx.lease(33);
            assert!(lease.iter().all(|w| w.to_bits() == 0), "{v:e} not healed");
        }
    }

    #[test]
    fn fault_plan_panic_surfaces_through_context_run() {
        let ctx = ExecutionContext::new(4);
        ctx.fault_plan().arm_worker_panic(3, 0);
        let err = ctx.try_run(&|_| {}).unwrap_err();
        assert_eq!(err.tid(), 3);
        assert!(err.message().contains("injected fault"));
        // Fully recovered: same context runs a clean round.
        let hits = AtomicUsize::new(0);
        ctx.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn stats_reads_every_counter_in_one_call() {
        let ctx = ExecutionContext::new(1);
        drop(ctx.lease(80));
        assert_eq!(
            ctx.stats(),
            ContextStats {
                arena_free_buffers: 1,
                arena_retained_elements: 80,
                arena_trims: 0,
                dirty_lease_returns: 0,
            }
        );
    }

    #[test]
    fn arena_trims_oversized_retained_buffers() {
        let mut arena = BufferArena {
            retained_limit: 100,
            ..BufferArena::default()
        };
        arena.release(vec![0.0; 80]); // fits: retained
        assert_eq!((arena.free.len(), arena.trims), (1, 0));

        arena.release(vec![0.0; 300]); // 80 + 300 > 100: largest dropped
        assert!(arena.retained_elements() <= 100);
        assert_eq!((arena.free.len(), arena.trims), (1, 1));
        assert_eq!(arena.acquire(80).len(), 80, "the small buffer survived");
    }

    #[test]
    fn supervise_guard_installs_and_clears() {
        use crate::supervisor::CancelToken;
        let ctx = ExecutionContext::new(2);
        let cancel = CancelToken::new();
        {
            let _guard = ctx.supervise(Supervision::with_cancel(cancel.clone()));
            cancel.cancel();
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.run(&|_| {});
            }));
            let payload = res.unwrap_err();
            assert!(payload.downcast_ref::<crate::Interrupt>().is_some());
        }
        // Guard dropped: the same context runs unbounded again.
        let hits = AtomicUsize::new(0);
        ctx.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn health_counters_are_visible_on_the_context() {
        let ctx = ExecutionContext::new(2);
        assert_eq!(ctx.health(), PoolHealth::Healthy);
        assert_eq!(ctx.health_state().failures(), 0);
        let err = ctx
            .try_run(&|tid| {
                if tid == 1 {
                    panic!("die");
                }
            })
            .unwrap_err();
        assert_eq!(err.tid(), 1);
        assert_eq!(ctx.health(), PoolHealth::Degraded);
        assert_eq!(ctx.health_state().failures(), 1);
        assert_eq!(ctx.health_state().respawns(), 1);
    }

    #[test]
    fn pool_survives_worker_panic_through_context() {
        let ctx = ExecutionContext::new(2);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.run(&|tid| {
                if tid == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        // The poisoned pool mutex must not brick the context.
        let hits = AtomicUsize::new(0);
        ctx.run(&|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
