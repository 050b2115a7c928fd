//! Deterministic fault injection for the execution runtime.
//!
//! Production robustness claims — "a dying worker cannot poison the shared
//! [`ExecutionContext`](crate::ExecutionContext)" — are only credible if a
//! test can *make* a worker die at a chosen point. A [`FaultPlan`] is a
//! small registry of armed faults consulted at two sites:
//!
//! * **worker rounds** — every [`WorkerPool::run`](crate::WorkerPool::run)
//!   (and `try_run`) round that passes its supervision checkpoint
//!   increments a round counter (a refused round consumes none, so a fault
//!   armed for "the next round" waits for one that runs); an armed fault can
//!   make a chosen worker panic, or delay it, in a chosen round. This is
//!   how tests kill a worker mid-multiply or mid-reduction.
//! * **lease returns** — every buffer returned to the context's arena
//!   increments a lease counter; an armed fault can corrupt a chosen
//!   returning buffer, simulating a kernel that breaks the all-zero lease
//!   contract. Recovery tests then assert the arena heals (the buffer is
//!   scrubbed and the violation counted) instead of recycling garbage.
//!
//! The module is compiled only for tests and under the `fault-injection`
//! cargo feature — release builds of the library carry no injection hooks
//! beyond the fields' existence being compiled out entirely.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What an armed worker-round fault does to its target worker.
#[derive(Debug, Clone)]
pub enum WorkerFault {
    /// The worker panics instead of executing its share of the round.
    Panic,
    /// The worker sleeps before executing its share of the round.
    Delay(Duration),
    /// The worker wedges: it sleeps long enough to overrun any reasonable
    /// request deadline, exercising the watchdog/Wedged path. Semantically
    /// identical to [`WorkerFault::Delay`] at the injection site; the
    /// distinct variant keeps chaos schedules self-describing.
    Wedge(Duration),
}

#[derive(Debug)]
enum Armed {
    Worker {
        at_round: usize,
        tid: usize,
        fault: WorkerFault,
    },
    CorruptLease {
        at_return: usize,
        value: f64,
    },
}

/// A registry of armed faults, shared between an
/// [`ExecutionContext`](crate::ExecutionContext), its pool, and the test
/// driving them.
///
/// Counters are monotone: rounds count pool rounds *dispatched* since the
/// plan was created, lease returns count buffers returned to the arena.
/// Faults are armed relative to "now" (`in_rounds = 0` targets the next
/// round) and fire exactly once.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rounds: AtomicUsize,
    lease_returns: AtomicUsize,
    armed: Mutex<Vec<Armed>>,
    fired: AtomicUsize,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Arc<Self> {
        Arc::new(FaultPlan::default())
    }

    /// Arms worker `tid` to panic in the `in_rounds`-th pool round from now
    /// (`0` = the next round).
    pub fn arm_worker_panic(&self, tid: usize, in_rounds: usize) {
        self.arm_worker(tid, in_rounds, WorkerFault::Panic);
    }

    /// Arms worker `tid` to sleep `delay` at the start of the
    /// `in_rounds`-th pool round from now (`0` = the next round) —
    /// stretches a multiply or reduction phase without killing it.
    pub fn arm_worker_delay(&self, tid: usize, in_rounds: usize, delay: Duration) {
        self.arm_worker(tid, in_rounds, WorkerFault::Delay(delay));
    }

    /// Arms worker `tid` to wedge (sleep `sleep`, intended to exceed the
    /// request deadline) in the `in_rounds`-th pool round from now (`0` =
    /// the next round). The supervised dispatch watchdog must detect the
    /// overrun at the deadline, mark the pool Wedged, and respawn the
    /// worker once the round drains.
    pub fn arm_worker_wedge(&self, tid: usize, in_rounds: usize, sleep: Duration) {
        self.arm_worker(tid, in_rounds, WorkerFault::Wedge(sleep));
    }

    fn arm_worker(&self, tid: usize, in_rounds: usize, fault: WorkerFault) {
        let at_round = self.rounds.load(Ordering::SeqCst) + in_rounds;
        self.lock().push(Armed::Worker {
            at_round,
            tid,
            fault,
        });
    }

    /// Arms corruption of the `in_returns`-th buffer returned to the arena
    /// from now (`0` = the next return): one element of the buffer is set
    /// to `value` just before the return-path integrity check runs.
    pub fn arm_corrupt_lease(&self, in_returns: usize, value: f64) {
        let at_return = self.lease_returns.load(Ordering::SeqCst) + in_returns;
        self.lock().push(Armed::CorruptLease { at_return, value });
    }

    /// How many armed faults have fired so far.
    pub fn fired(&self) -> usize {
        self.fired.load(Ordering::SeqCst)
    }

    /// How many faults are still armed (scheduled but not yet fired).
    pub fn pending(&self) -> usize {
        self.lock().len()
    }

    /// Removes every armed fault without firing it.
    pub fn disarm_all(&self) {
        self.lock().clear();
    }

    /// Pool rounds started since the plan was created (test hook for
    /// arming faults at absolute positions).
    pub fn rounds_started(&self) -> usize {
        self.rounds.load(Ordering::SeqCst)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Armed>> {
        // A panicking fault hook never holds this lock, but a test thread
        // observing a re-raised panic may; tolerate poisoning.
        self.armed.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Called by the pool for each round past its checkpoint; returns the
    /// round id.
    pub(crate) fn begin_round(&self) -> usize {
        self.rounds.fetch_add(1, Ordering::SeqCst)
    }

    /// Called by every worker at the start of round `round`. Sleeps or
    /// panics when a matching fault is armed.
    pub(crate) fn worker_hook(&self, round: usize, tid: usize) {
        let mut to_apply = Vec::new();
        {
            let mut armed = self.lock();
            let mut i = 0;
            while i < armed.len() {
                match &armed[i] {
                    Armed::Worker {
                        at_round, tid: t, ..
                    } if *at_round == round && *t == tid => {
                        if let Armed::Worker { fault, .. } = armed.swap_remove(i) {
                            to_apply.push(fault);
                        }
                    }
                    _ => i += 1,
                }
            }
        }
        for fault in to_apply {
            self.fired.fetch_add(1, Ordering::SeqCst);
            match fault {
                WorkerFault::Delay(d) | WorkerFault::Wedge(d) => std::thread::sleep(d),
                WorkerFault::Panic => {
                    panic!("injected fault: worker {tid} panicked in round {round}")
                }
            }
        }
    }

    /// Called for every buffer returned to the arena. Returns the value to
    /// poke into the buffer when a corruption fault targets this return.
    pub(crate) fn lease_return_hook(&self) -> Option<f64> {
        let k = self.lease_returns.fetch_add(1, Ordering::SeqCst);
        let mut armed = self.lock();
        let pos = armed
            .iter()
            .position(|a| matches!(a, Armed::CorruptLease { at_return, .. } if *at_return == k))?;
        if let Armed::CorruptLease { value, .. } = armed.swap_remove(pos) {
            drop(armed);
            self.fired.fetch_add(1, Ordering::SeqCst);
            Some(value)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_faults_fire_once_at_the_armed_round() {
        let plan = FaultPlan::new();
        plan.arm_worker_delay(1, 1, Duration::from_millis(1));
        assert_eq!(plan.pending(), 1);

        let r0 = plan.begin_round();
        plan.worker_hook(r0, 1); // wrong round: nothing fires
        assert_eq!(plan.fired(), 0);

        let r1 = plan.begin_round();
        plan.worker_hook(r1, 0); // wrong worker: nothing fires
        assert_eq!(plan.fired(), 0);
        plan.worker_hook(r1, 1);
        assert_eq!(plan.fired(), 1);
        assert_eq!(plan.pending(), 0);

        // Re-running the hook does not re-fire.
        plan.worker_hook(r1, 1);
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn panic_fault_panics_with_marker() {
        let plan = FaultPlan::new();
        plan.arm_worker_panic(2, 0);
        let r = plan.begin_round();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.worker_hook(r, 2);
        }));
        let msg = res
            .unwrap_err()
            .downcast::<String>()
            .map(|b| *b)
            .unwrap_or_default();
        assert!(msg.contains("injected fault"), "{msg}");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn lease_corruption_targets_the_chosen_return() {
        let plan = FaultPlan::new();
        plan.arm_corrupt_lease(1, 7.5);
        assert_eq!(plan.lease_return_hook(), None);
        assert_eq!(plan.lease_return_hook(), Some(7.5));
        assert_eq!(plan.lease_return_hook(), None);
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn wedge_fault_sleeps_the_target_worker() {
        let plan = FaultPlan::new();
        plan.arm_worker_wedge(0, 0, Duration::from_millis(10));
        let r = plan.begin_round();
        let start = std::time::Instant::now();
        plan.worker_hook(r, 0);
        assert!(start.elapsed() >= Duration::from_millis(10));
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn disarm_clears_pending_faults() {
        let plan = FaultPlan::new();
        plan.arm_worker_panic(0, 0);
        plan.arm_corrupt_lease(0, 1.0);
        assert_eq!(plan.pending(), 2);
        plan.disarm_all();
        assert_eq!(plan.pending(), 0);
        let r = plan.begin_round();
        plan.worker_hook(r, 0); // nothing fires
        assert_eq!(plan.fired(), 0);
    }
}
