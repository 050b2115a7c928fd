//! A persistent SPMD worker pool.
//!
//! [`WorkerPool::run`] executes one closure on every participant with its
//! thread id as argument and blocks until all finish — the shape of every
//! parallel region in the paper's kernels (multiply, then reduction). A pool
//! of `P` is `P − 1` persistent threads (`tid 1..P`) plus the thread calling
//! `run`, which executes share 0 itself; `P = 1` is a plain call.
//!
//! # Protocol
//!
//! A round: publish the erased `body` and the completion `count` → bump the
//! `epoch` → unpark the workers whose `parked` flag is set → run share 0 →
//! wait for the count to reach zero. A worker waits for the epoch to move,
//! runs its share under `catch_unwind`, records the epoch as `done` and
//! decrements the count; whoever takes it to zero unparks the caller if it
//! registered as `waiter`. Both sides spin for [`SPIN_BUDGET`], then park.
//! Every access is SeqCst; the pairs that matter:
//!
//! * *round start*: the caller's writes (slot, count, what the body borrows)
//!   precede its epoch bump (Release); a worker loads the new epoch (Acquire)
//!   before it touches them;
//! * *round end* — the `pool-barrier` happens-before the kernels' phases rely
//!   on: a share's writes precede its count decrement (Release); the caller
//!   loads zero (Acquire) before it reads them;
//! * *park handshakes* are store-then-load on both sides, hence SeqCst: a
//!   worker sets `parked` then re-reads the epoch, the caller bumps the epoch
//!   then reads `parked`, so one sees the other and no worker sleeps through
//!   a round. The caller's park mirrors it on the count under the `waiter`
//!   mutex.
//!
//! # Soundness of the lifetime erasure
//!
//! `run` transmutes its closure reference to `'static` to publish it — the
//! scoped-pool argument (cf. `scoped_threadpool`): workers reach the erased
//! borrow only through the body slot, read it only after seeing this round's
//! epoch and decrement the count only after their last use of it; `try_run`
//! neither returns nor unwinds before the count is zero, and clears the slot
//! then. A respawned worker starts at the current epoch, so it never reads a
//! past round's slot; `&mut self` keeps rounds from overlapping. A panic in
//! any share, the caller's included, is caught; the lowest-tid one is
//! returned or re-raised once the round has drained.
//!
//! # Supervision
//!
//! Every round starts with a cooperative checkpoint against the pool's
//! [`SupervisionCell`]: a cancelled token or expired [`Deadline`] unwinds the
//! *calling* thread with an [`Interrupt`] payload before anything is
//! published. A supervised round is also watched: the instant the caller sees
//! the deadline passed with the round in flight, the shared [`HealthState`]
//! is marked [`Wedged`](crate::PoolHealth::Wedged) — readable by concurrent
//! callers without the pool lock — and the wait then *blocks* until the round
//! drains, as soundness demands. The watchdog is the calling thread, so an
//! overrun of share 0 itself is seen only when the caller regains control.
//! Panicked and tardy workers are respawned before `run` returns, so the pool
//! is reusable on every exit path; share 0 has no thread to replace — its
//! failure is recorded, `respawns` counts replaced OS threads only. A share
//! that never returns keeps the caller blocked: the watchdog bounds only
//! *detection* latency, keeping other requests routable to the fallback.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use crate::context::lock_ignore_poison as lock;
#[cfg(any(test, feature = "fault-injection"))]
use crate::fault::FaultPlan;
use crate::supervisor::{Deadline, HealthState, Interrupt, SupervisionCell};

/// How long an idle worker, or the caller waiting on the count, spins before
/// it parks: four times the ~25 µs (19–28) it costs to wake a parked thread
/// on the 2-vCPU reference host, where a halted vCPU must be kicked. That
/// outlasts the longest gap inside a CG iteration (five serial vector ops
/// below `vecops::PAR_THRESHOLD`, ~50 µs): a worker inside a solve never
/// sleeps, one beside a serial phase gives its CPU back after 0.1 ms.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// The closure signature workers execute: SPMD body receiving a thread id.
type SpmdRef<'a> = &'a (dyn Fn(usize) + Sync);
type SpmdStatic = &'static (dyn Fn(usize) + Sync);

/// Best-effort human-readable rendering of a panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Waits for `ready`: polls for [`SPIN_BUDGET`], yielding between looks so an
/// oversubscribed host runs whoever has work, then alternates `announce();
/// if !ready() { park() }`. Whoever makes `ready` true looks for the
/// announcement *afterwards* and unparks, so one side sees the other.
fn spin_then_park(
    mut ready: impl FnMut() -> bool,
    mut announce: impl FnMut(),
    mut park: impl FnMut(),
) {
    let spin_until = Instant::now() + SPIN_BUDGET;
    while !ready() {
        if Instant::now() < spin_until {
            std::thread::yield_now();
        } else {
            announce();
            if !ready() {
                park();
            }
        }
    }
}

/// A panic captured by [`WorkerPool::try_run`]: which share died, and its
/// payload. The round has drained before this value exists: the caller may
/// reuse the pool, [`resume`](WorkerPanic::resume) the unwind, or report it.
pub struct WorkerPanic {
    tid: usize,
    payload: Box<dyn Any + Send>,
}

impl WorkerPanic {
    /// Thread id of the share that panicked (the lowest, if several did).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The panic message when the payload was a string, else a placeholder.
    pub fn message(&self) -> String {
        panic_message(&*self.payload)
    }

    /// A plain-data snapshot (tid + message) of this panic.
    pub fn info(&self) -> WorkerPanicInfo {
        WorkerPanicInfo {
            tid: self.tid,
            message: self.message(),
        }
    }

    /// Continues unwinding on the current thread with the original payload.
    pub fn resume(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPanic")
            .field("tid", &self.tid)
            .field("message", &self.message())
            .finish()
    }
}

/// Plain-data record of the most recent panic, retained by the pool so one
/// re-raised through several layers (e.g. a reduction strategy's rounds
/// inside `with_pool`) still reaches the outermost caller as a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanicInfo {
    /// Thread id of the share that panicked.
    pub tid: usize,
    /// Rendered panic message.
    pub message: String,
}

/// Round state shared by the caller and the spawned workers (module docs,
/// *Protocol*): `body` is `None` between rounds, `count` the spawned shares
/// still running, `panics` what they died with.
#[derive(Default)]
struct Shared {
    body: RwLock<Option<SpmdStatic>>,
    epoch: AtomicUsize,
    count: AtomicUsize,
    waiter: Mutex<Option<Thread>>,
    panics: Mutex<Vec<(usize, Box<dyn Any + Send>)>>,
}

/// One spawned worker's flags: `parked` from just before it parks until the
/// caller's next look, `done` the last epoch whose share it finished,
/// `retire` to make it exit instead of waiting for another round.
#[derive(Default)]
struct Seat {
    parked: AtomicBool,
    done: AtomicUsize,
    retire: AtomicBool,
}

struct Worker {
    seat: Arc<Seat>,
    handle: JoinHandle<()>,
}

impl Worker {
    /// Stops and joins the thread; it is idle by the drain guarantee.
    fn retire(self) {
        self.seat.retire.store(true, SeqCst);
        self.handle.thread().unpark();
        let _ = self.handle.join();
    }
}

/// A fixed-size pool of persistent worker threads executing SPMD regions.
///
/// ```
/// use symspmv_runtime::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let mut pool = WorkerPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.run(&|tid| {
///     hits.fetch_add(tid + 1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Spawned workers; `workers[i]` runs share `i + 1`.
    workers: Vec<Worker>,
    last_panic: Option<WorkerPanicInfo>,
    /// Rounds dispatched on this pool (including panicked ones).
    rounds: usize,
    supervision: Arc<SupervisionCell>,
    health: Arc<HealthState>,
    #[cfg(any(test, feature = "fault-injection"))]
    fault: Option<Arc<FaultPlan>>,
}

impl WorkerPool {
    /// A pool of `nthreads` participants (ids `0..nthreads`): `nthreads − 1`
    /// spawned threads plus whichever thread calls [`WorkerPool::run`].
    /// Panics if `nthreads == 0`.
    pub fn new(nthreads: usize) -> Self {
        assert!(nthreads > 0, "a pool needs at least one worker");
        let shared = Arc::new(Shared::default());
        let workers = (1..nthreads).map(|tid| spawn_worker(tid, &shared));
        WorkerPool {
            workers: workers.collect(),
            shared,
            last_panic: None,
            rounds: 0,
            supervision: Arc::new(SupervisionCell::default()),
            health: Arc::new(HealthState::default()),
            #[cfg(any(test, feature = "fault-injection"))]
            fault: None,
        }
    }

    /// Number of rounds ever dispatched on this pool; kernel tests pin the
    /// delta across a call (a `p = 1` symmetric spmv skips the reduction).
    pub fn rounds_run(&self) -> usize {
        self.rounds
    }

    /// Number of participants (the caller included).
    pub fn nthreads(&self) -> usize {
        self.workers.len() + 1
    }

    /// The supervision slot consulted at every round checkpoint; the context
    /// keeps a clone to install a deadline/token without the pool lock.
    pub fn supervision_cell(&self) -> Arc<SupervisionCell> {
        Arc::clone(&self.supervision)
    }

    /// The shared health record of this pool (lock-free reads).
    pub fn health_state(&self) -> Arc<HealthState> {
        Arc::clone(&self.health)
    }

    /// Executes `body(tid)` for every tid — share 0 on the calling thread —
    /// and blocks until all complete. A panic in any share is re-raised here
    /// once the round has drained, and recorded for `take_last_panic`.
    pub fn run<'a>(&mut self, body: SpmdRef<'a>) {
        if let Err(p) = self.try_run(body) {
            p.resume();
        }
    }

    /// Like [`WorkerPool::run`], but a panic in a share is returned as a
    /// [`WorkerPanic`]; on `Err` the round has fully drained and the pool is
    /// immediately reusable. Supervision trips still unwind the caller, with
    /// an [`Interrupt`] the fallible kernel entry points turn into an error.
    pub fn try_run<'a>(&mut self, body: SpmdRef<'a>) -> Result<(), WorkerPanic> {
        // Cooperative checkpoint (`BufferLease` drops scrub during the unwind).
        let sup = self.supervision.snapshot();
        if sup.as_ref().is_some_and(|sup| sup.cancel.poll()) {
            std::panic::panic_any(Interrupt::Cancelled);
        }
        let deadline = sup.and_then(|sup| sup.deadline);
        if deadline.is_some_and(|d| d.expired()) {
            std::panic::panic_any(Interrupt::DeadlineExceeded { wedged: false });
        }
        // Only a round past its checkpoint is numbered, here and on the fault
        // plan: a refused round must not eat a fault armed for "the next".
        self.rounds += 1;
        #[cfg(any(test, feature = "fault-injection"))]
        let armed = self.fault.clone().map(|plan| (plan.begin_round(), plan));
        #[cfg(any(test, feature = "fault-injection"))]
        let body: SpmdRef<'_> = &move |tid| {
            if let Some((round, plan)) = &armed {
                plan.worker_hook(*round, tid);
            }
            body(tid);
        };
        // The race detector's tag drops with the share, on the caller's thread too.
        #[cfg(feature = "race-detector")]
        let race_epoch = crate::race::next_epoch();
        #[cfg(feature = "race-detector")]
        let body: SpmdRef<'_> = &move |tid| {
            let _tag = crate::race::enter_round(tid, race_epoch);
            body(tid);
        };
        // SAFETY(cert: pool-barrier): the scoped-pool argument of the module
        // docs — workers read the erased borrow only out of the body slot,
        // after this round's epoch bump and before their count decrement;
        // this frame is left (return or unwind) only after `drain` saw the
        // count at zero (the watchdog flags health and keeps waiting, share
        // 0 runs under `catch_unwind`); `&mut self` serializes rounds.
        let erased: SpmdStatic = unsafe { std::mem::transmute(body) };
        *self.shared.body.write().unwrap_or_else(|e| e.into_inner()) = Some(erased);
        self.shared.count.store(self.workers.len(), SeqCst);
        let epoch = self.shared.epoch.fetch_add(1, SeqCst) + 1;
        for w in &self.workers {
            if w.seat.parked.swap(false, SeqCst) {
                w.handle.thread().unpark();
            }
        }
        let own = std::panic::catch_unwind(AssertUnwindSafe(|| body(0)));
        let tardy = self.drain(epoch, deadline);
        *self.shared.body.write().unwrap_or_else(|e| e.into_inner()) = None;

        // Drained: every exit below leaves the pool reusable. Respawn each
        // spawned worker that panicked or was outstanding when the watchdog
        // fired (it finished, but may be degrading — a fresh thread is cheap).
        let mut panics = std::mem::take(&mut *lock(&self.shared.panics));
        panics.extend(own.err().map(|payload| (0, payload)));
        panics.sort_by_key(|(tid, _)| *tid);
        let panicked: Vec<usize> = panics.iter().map(|(tid, _)| *tid).collect();
        for &tid in &panicked {
            self.health.record_failure();
            if tid > 0 {
                self.respawn_worker(tid);
            }
        }
        let first = panics.into_iter().next();
        let first = first.map(|(tid, payload)| WorkerPanic { tid, payload });
        if let Some(p) = &first {
            self.last_panic = Some(p.info());
        }
        if let Some(tardy) = tardy {
            for tid in tardy.into_iter().filter(|tid| !panicked.contains(tid)) {
                self.respawn_worker(tid);
            }
            self.health.unwedge();
            std::panic::panic_any(Interrupt::DeadlineExceeded { wedged: true });
        }
        if first.is_none() {
            self.health.record_success();
        }
        first.map_or(Ok(()), Err)
    }

    /// Waits, share 0 done, until every spawned share of round `epoch` is.
    /// The watchdog lives here: `Some` lists the spawned workers outstanding
    /// the instant the deadline was seen passed and the pool marked wedged.
    fn drain(&self, epoch: usize, deadline: Option<Deadline>) -> Option<Vec<usize>> {
        let mut tardy = None;
        let watchdog = |tardy: &mut Option<Vec<usize>>| {
            if tardy.is_none() && deadline.is_some_and(|d| d.expired()) {
                self.health.mark_wedged();
                let done = |tid: usize| self.workers[tid - 1].seat.done.load(SeqCst);
                *tardy = Some((1..self.nthreads()).filter(|&t| done(t) != epoch).collect());
            }
        };
        watchdog(&mut tardy); // share 0 alone may be what overran
        spin_then_park(
            || self.shared.count.load(SeqCst) == 0,
            // A registration outliving the wait costs one spurious unpark.
            || *lock(&self.shared.waiter) = Some(std::thread::current()),
            || {
                match deadline.filter(|_| tardy.is_none()) {
                    Some(d) => std::thread::park_timeout(d.remaining()),
                    None => std::thread::park(),
                }
                watchdog(&mut tardy);
            },
        );
        tardy
    }

    /// Replaces spawned worker `tid` with a fresh thread, retiring the old one
    /// (idle, by the drain guarantee), and counts it on the health record.
    fn respawn_worker(&mut self, tid: usize) {
        let fresh = spawn_worker(tid, &self.shared);
        std::mem::replace(&mut self.workers[tid - 1], fresh).retire();
        self.health.record_respawn();
    }

    /// Takes (and clears) the record of the most recent panic (`run` or
    /// `try_run`): who died, for a caller layers above the re-raise.
    pub fn take_last_panic(&mut self) -> Option<WorkerPanicInfo> {
        self.last_panic.take()
    }

    /// Attaches a fault plan consulted at the start of every round; shares
    /// then apply any fault armed for their (round, tid) coordinate.
    #[cfg(any(test, feature = "fault-injection"))]
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault = Some(plan);
    }
}

/// Spawns the thread for share `tid`, starting at the current epoch: pools
/// spawn only between rounds, so its first share is the next round's.
fn spawn_worker(tid: usize, shared: &Arc<Shared>) -> Worker {
    let seat = Arc::new(Seat::default());
    let (shared, thread_seat) = (Arc::clone(shared), Arc::clone(&seat));
    let seen = shared.epoch.load(SeqCst);
    let handle = std::thread::Builder::new()
        .name(format!("symspmv-worker-{tid}"))
        .spawn(move || worker_loop(tid, &shared, &thread_seat, seen))
        .unwrap_or_else(|e| panic!("failed to spawn worker thread {tid}: {e}"));
    Worker { seat, handle }
}

fn worker_loop(tid: usize, shared: &Shared, seat: &Seat, mut seen: usize) {
    loop {
        let retired = || seat.retire.load(SeqCst);
        spin_then_park(
            || retired() || shared.epoch.load(SeqCst) != seen,
            || seat.parked.store(true, SeqCst),
            std::thread::park,
        );
        if retired() {
            return;
        }
        seen = shared.epoch.load(SeqCst);
        let body = *shared.body.read().unwrap_or_else(|e| e.into_inner());
        let share = || match body {
            Some(body) => body(tid),
            None => unreachable!("epoch {seen} published without a body"),
        };
        if let Err(payload) = std::panic::catch_unwind(AssertUnwindSafe(share)) {
            lock(&shared.panics).push((tid, payload));
        }
        seat.done.store(seen, SeqCst);
        if shared.count.fetch_sub(1, SeqCst) == 1 {
            if let Some(caller) = lock(&shared.waiter).take() {
                caller.unpark();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.workers.drain(..).for_each(Worker::retire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{CancelToken, PoolHealth, Supervision};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn all_threads_run_with_distinct_ids() {
        let mut pool = WorkerPool::new(4);
        let mask = AtomicUsize::new(0);
        pool.run(&|tid| {
            mask.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b1111);
    }

    #[test]
    fn borrows_stack_data() {
        let data: Vec<usize> = (0..100).collect();
        let mut out = vec![0usize; 4];
        let out_ptr = std::sync::Mutex::new(&mut out);
        let mut pool = WorkerPool::new(4);
        pool.run(&|tid| {
            let chunk: usize = data[tid * 25..(tid + 1) * 25].iter().sum();
            out_ptr.lock().unwrap()[tid] = chunk;
        });
        assert_eq!(out.iter().sum::<usize>(), 4950);
    }

    #[test]
    fn sequential_rounds_reuse_workers() {
        let mut pool = WorkerPool::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let mut pool = WorkerPool::new(2);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        // Pool is still usable after a panicked round.
        let counter = AtomicUsize::new(0);
        pool.run(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn multiple_worker_panics_reraise_exactly_once_and_pool_survives() {
        // Regression test for the panic path: even when *every* worker
        // panics in the same round, the caller sees exactly one re-raised
        // panic (not one per worker), and the pool stays usable afterwards.
        let mut pool = WorkerPool::new(4);
        let raised = AtomicUsize::new(0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid| panic!("worker {tid} failed"));
        }));
        if res.is_err() {
            raised.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(raised.load(Ordering::Relaxed), 1);
        let payload = res.unwrap_err();
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| panic!("unexpected payload type"));
        assert!(msg.contains("failed"), "payload: {msg}");

        // The round fully drained: a subsequent run executes on all workers
        // without deadlocking or seeing stale panic payloads.
        for _ in 0..3 {
            let counter = AtomicUsize::new(0);
            pool.run(&|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = WorkerPool::new(0);
    }

    #[test]
    fn try_run_reports_tid_and_message_and_records_last_panic() {
        let mut pool = WorkerPool::new(4);
        let res = pool.try_run(&|tid| {
            if tid == 2 {
                panic!("round failed on {tid}");
            }
        });
        let p = res.unwrap_err();
        assert_eq!(p.tid(), 2);
        assert!(p.message().contains("round failed on 2"), "{}", p.message());
        let info = pool.take_last_panic().expect("panic must be recorded");
        assert_eq!(info.tid, 2);
        assert!(info.message.contains("round failed"));
        assert_eq!(pool.take_last_panic(), None, "take clears the record");

        // The pool is reusable straight off the Err path.
        let counter = AtomicUsize::new(0);
        pool.try_run(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .expect("clean round after a panicked one");
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn run_also_records_last_panic() {
        let mut pool = WorkerPool::new(2);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(res.is_err());
        let info = pool.take_last_panic().expect("run must record the panic");
        assert_eq!(info.tid, 1);
    }

    #[test]
    fn fault_plan_kills_the_chosen_worker_in_the_chosen_round() {
        let plan = crate::fault::FaultPlan::new();
        let mut pool = WorkerPool::new(3);
        pool.set_fault_plan(Arc::clone(&plan));
        plan.arm_worker_panic(1, 1); // second round from now

        pool.try_run(&|_| {}).expect("round 0 is clean");
        let p = pool.try_run(&|_| {}).unwrap_err();
        assert_eq!(p.tid(), 1);
        assert!(p.message().contains("injected fault"), "{}", p.message());
        assert_eq!(plan.fired(), 1);
        pool.try_run(&|_| {}).expect("round 2 is clean again");
    }

    #[test]
    fn single_thread_pool_works() {
        let mut pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.run(&|tid| {
            assert_eq!(tid, 0);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicked_worker_is_respawned_and_counted() {
        let mut pool = WorkerPool::new(3);
        let health = pool.health_state();
        assert_eq!(health.health(), PoolHealth::Healthy);
        // Share 0 runs on the calling thread: its failure is recorded, but
        // there is no OS thread to replace.
        let res = pool.try_run(&|tid| {
            if tid == 0 {
                panic!("die once");
            }
        });
        assert_eq!(res.unwrap_err().tid(), 0);
        assert_eq!(health.failures(), 1);
        assert_eq!(health.respawns(), 0);
        assert_eq!(health.health(), PoolHealth::Degraded);
        // A spawned worker's is replaced.
        let res = pool.try_run(&|tid| {
            if tid == 2 {
                panic!("die once");
            }
        });
        assert_eq!(res.unwrap_err().tid(), 2);
        assert_eq!(health.failures(), 2);
        assert_eq!(health.respawns(), 1);

        // The replacement worker serves subsequent rounds (all ids present).
        let mask = AtomicUsize::new(0);
        pool.run(&|tid| {
            mask.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b111);

        // Enough clean rounds heal the pool.
        for _ in 0..HealthState::RECOVERY_STREAK {
            pool.run(&|_| {});
        }
        assert_eq!(health.health(), PoolHealth::Healthy);
    }

    #[test]
    fn caller_share_panic_keeps_the_callers_thread_and_the_pool() {
        let mut pool = WorkerPool::new(3);
        let health = pool.health_state();
        let me = std::thread::current().id();
        let ids_of_round = |pool: &mut WorkerPool| {
            let ids = std::sync::Mutex::new(vec![None; 3]);
            pool.run(&|tid| ids.lock().unwrap()[tid] = Some(std::thread::current().id()));
            ids.into_inner().unwrap()
        };
        let before = ids_of_round(&mut pool);
        assert_eq!(before[0], Some(me), "share 0 runs on the caller");

        let p = pool
            .try_run(&|tid| {
                if tid == 0 {
                    panic!("caller share died");
                }
            })
            .unwrap_err();
        assert_eq!(p.tid(), 0);
        assert!(p.message().contains("caller share died"));
        assert_eq!(pool.take_last_panic().map(|i| i.tid), Some(0));
        assert_eq!(health.failures(), 1);
        assert_eq!(health.respawns(), 0, "no OS thread was replaced");
        assert_eq!(std::thread::current().id(), me);
        // Same caller, same two spawned threads, all three shares served.
        assert_eq!(ids_of_round(&mut pool), before);
    }

    #[test]
    fn lowest_tid_panic_wins_when_several_shares_die() {
        let mut pool = WorkerPool::new(4);
        let health = pool.health_state();
        let p = pool
            .try_run(&|tid| {
                if tid != 1 {
                    panic!("share {tid} died");
                }
            })
            .unwrap_err();
        assert_eq!(p.tid(), 0);
        assert_eq!(health.failures(), 3);
        assert_eq!(health.respawns(), 2, "tids 2 and 3; share 0 has no thread");
    }

    #[test]
    fn refused_round_consumes_no_fault_plan_round() {
        // A round the checkpoint refuses is numbered neither by the pool nor
        // by the fault plan, so a fault armed for "the next round" still
        // fires on the next round that is actually dispatched.
        let plan = crate::fault::FaultPlan::new();
        let mut pool = WorkerPool::new(2);
        pool.set_fault_plan(Arc::clone(&plan));
        plan.arm_worker_panic(1, 0);

        let cancel = CancelToken::new();
        pool.supervision_cell()
            .install(Supervision::with_cancel(cancel.clone()));
        cancel.cancel();
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run(&|_| {})));
        assert!(res.unwrap_err().downcast_ref::<Interrupt>().is_some());
        pool.supervision_cell().clear();
        assert_eq!(pool.rounds_run(), 0);
        assert_eq!(plan.rounds_started(), pool.rounds_run());
        assert_eq!((plan.fired(), plan.pending()), (0, 1));

        let p = pool.try_run(&|_| {}).unwrap_err();
        assert_eq!(p.tid(), 1);
        assert!(p.message().contains("injected fault"), "{}", p.message());
        assert_eq!(plan.rounds_started(), pool.rounds_run());
        assert_eq!((plan.fired(), plan.pending()), (1, 0));
    }

    #[test]
    fn cancelled_token_interrupts_at_the_next_checkpoint() {
        let mut pool = WorkerPool::new(2);
        let cancel = CancelToken::new();
        pool.supervision_cell()
            .install(Supervision::with_cancel(cancel.clone()));
        cancel.cancel();
        let ran = AtomicUsize::new(0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }));
        let payload = res.unwrap_err();
        let interrupt = payload
            .downcast_ref::<Interrupt>()
            .unwrap_or_else(|| panic!("payload must be an Interrupt"));
        assert_eq!(*interrupt, Interrupt::Cancelled);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no worker was dispatched");

        // Clearing supervision restores normal service on the same pool.
        pool.supervision_cell().clear();
        pool.run(&|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn expired_deadline_interrupts_before_dispatch() {
        let mut pool = WorkerPool::new(2);
        pool.supervision_cell()
            .install(Supervision::deadline_within(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|_| {});
        }));
        let payload = res.unwrap_err();
        let interrupt = payload
            .downcast_ref::<Interrupt>()
            .unwrap_or_else(|| panic!("payload must be an Interrupt"));
        assert_eq!(*interrupt, Interrupt::DeadlineExceeded { wedged: false });
        pool.supervision_cell().clear();
    }

    #[test]
    fn watchdog_marks_pool_wedged_drains_and_respawns() {
        let mut pool = WorkerPool::new(3);
        let health = pool.health_state();
        pool.supervision_cell()
            .install(Supervision::deadline_within(Duration::from_millis(40)));
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid| {
                if tid == 1 {
                    // Sleeps well past the deadline: the watchdog must fire
                    // at ~40ms, not wait the full sleep before reporting.
                    std::thread::sleep(Duration::from_millis(200));
                }
            });
        }));
        let payload = res.unwrap_err();
        let interrupt = payload
            .downcast_ref::<Interrupt>()
            .unwrap_or_else(|| panic!("payload must be an Interrupt"));
        assert_eq!(*interrupt, Interrupt::DeadlineExceeded { wedged: true });
        assert_eq!(health.wedges(), 1);
        assert!(health.respawns() >= 1, "tardy worker must be respawned");
        // The drain completed and the wedge auto-downgraded.
        assert_eq!(health.health(), PoolHealth::Degraded);

        // The pool serves again immediately (supervision cleared).
        pool.supervision_cell().clear();
        let mask = AtomicUsize::new(0);
        pool.run(&|tid| {
            mask.fetch_or(1 << tid, Ordering::Relaxed);
        });
        assert_eq!(mask.load(Ordering::Relaxed), 0b111);
    }

    #[test]
    fn fused_cancellation_lands_between_rounds() {
        let mut pool = WorkerPool::new(2);
        let cancel = CancelToken::new();
        pool.supervision_cell()
            .install(Supervision::with_cancel(cancel.clone()));
        cancel.cancel_after_checkpoints(1);
        let rounds = AtomicUsize::new(0);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // First round passes its checkpoint; the second trips.
            pool.run(&|tid| {
                if tid == 0 {
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
            });
            pool.run(&|tid| {
                if tid == 0 {
                    rounds.fetch_add(1, Ordering::Relaxed);
                }
            });
        }));
        assert!(res.is_err());
        assert_eq!(
            rounds.load(Ordering::Relaxed),
            1,
            "exactly one round ran before the fuse tripped"
        );
        pool.supervision_cell().clear();
    }
}
