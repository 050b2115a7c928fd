//! The runtime supervision layer: deadlines, cooperative cancellation, and
//! the pool health state machine.
//!
//! The paper's kernels assume a healthy, dedicated machine; a long-lived
//! solve service cannot. This module provides the three pieces the
//! [`ExecutionContext`](crate::ExecutionContext) uses to bound a request in
//! time and to keep serving after a fault:
//!
//! * [`CancelToken`] / [`Deadline`] — carried by a [`Supervision`] that is
//!   installed on the context for the duration of one request. The pool
//!   consults it at a **cooperative checkpoint** before every SPMD round
//!   (multiply phases, reduction phases, first-touch initialization), so a
//!   cancelled or overdue request stops at the next phase boundary instead
//!   of running to completion.
//! * the **watchdog** — the caller of a supervised round waits for it
//!   with a timeout derived from the deadline. The moment it sees the
//!   deadline passed with the round in flight — for an overrun of its own
//!   share 0, the moment it regains control — the pool's health is marked
//!   [`PoolHealth::Wedged`] (observable by concurrent
//!   callers *without* taking the pool lock), and the round is then drained
//!   to completion so the scoped-closure soundness argument of
//!   [`WorkerPool::try_run`](crate::WorkerPool::try_run) still holds. A
//!   worker that never returns cannot be preempted in-process; the wedge
//!   machinery bounds *detection* latency and keeps the rest of the context
//!   serving (degraded) while the wedged round drains. True runaway threads
//!   need process-level supervision, which is out of scope here.
//! * [`HealthState`] — the Healthy → Degraded → Wedged state machine with
//!   failure / respawn / wedge counters and an MTBF estimate, shared
//!   (lock-free reads) between the pool and the context.
//!
//! Checkpoint trips unwind the calling thread with an [`Interrupt`] payload
//! via `panic_any`. The fallible kernel entry points (`try_spmv` /
//! `try_spmm` in `symspmv-core`) downcast that payload back into a typed
//! error, so a cancelled request surfaces as data, never as a crash, and
//! every [`BufferLease`](crate::BufferLease) dropped during the unwind is
//! scrubbed — the arena invariant survives cancellation exactly as it
//! survives worker panics.

use crate::context::lock_ignore_poison;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A shareable cancellation flag checked at every pool checkpoint.
///
/// Clones share one flag: cancelling any clone cancels them all. A token
/// can also be armed to trip after a fixed number of checkpoint polls
/// ([`CancelToken::cancel_after_checkpoints`]), which is how tests land a
/// cancellation deterministically between a multiply and its reduction.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug)]
struct CancelInner {
    cancelled: AtomicBool,
    /// Remaining checkpoint polls before an armed token trips; negative
    /// means disarmed.
    fuse: AtomicIsize,
}

impl Default for CancelInner {
    fn default() -> Self {
        CancelInner {
            cancelled: AtomicBool::new(false),
            fuse: AtomicIsize::new(-1),
        }
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Cancels the request: the next checkpoint raises
    /// [`Interrupt::Cancelled`] on the requesting thread.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Arms the token to trip after `n` further checkpoint polls pass
    /// (`0` = the very next checkpoint). Deterministic mid-request
    /// cancellation for tests: one warm symmetric SpMV at `p > 1` polls
    /// twice (multiply, then reduction), so `n = 1` cancels exactly
    /// between the phases.
    pub fn cancel_after_checkpoints(&self, n: usize) {
        self.inner.fuse.store(n as isize, Ordering::SeqCst);
    }

    /// One checkpoint poll: consumes a fuse tick when armed, then reports
    /// whether the token is (now) cancelled.
    pub(crate) fn poll(&self) -> bool {
        if self.inner.fuse.load(Ordering::SeqCst) >= 0
            && self.inner.fuse.fetch_sub(1, Ordering::SeqCst) == 0
        {
            self.inner.cancelled.store(true, Ordering::SeqCst);
        }
        self.is_cancelled()
    }
}

/// A wall-clock deadline for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        Deadline { at }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before the deadline (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// The supervision installed on a context for the duration of one request:
/// a cancellation token and an optional deadline. Consulted by the pool at
/// every round checkpoint.
#[derive(Debug, Clone, Default)]
pub struct Supervision {
    /// Cooperative cancellation flag.
    pub cancel: CancelToken,
    /// Wall-clock bound for the whole request (checkpoints *and* the
    /// per-round watchdog wait), if any.
    pub deadline: Option<Deadline>,
}

impl Supervision {
    /// Supervision with a deadline `budget` from now and a fresh token.
    pub fn deadline_within(budget: Duration) -> Self {
        Supervision {
            cancel: CancelToken::new(),
            deadline: Some(Deadline::within(budget)),
        }
    }

    /// Supervision carrying only a cancellation token.
    pub fn with_cancel(cancel: CancelToken) -> Self {
        Supervision {
            cancel,
            deadline: None,
        }
    }
}

/// Why a supervised request was interrupted at a checkpoint. Raised via
/// `std::panic::panic_any` on the *requesting* thread (never a worker) and
/// downcast back into a structured error by the fallible kernel entry
/// points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Interrupt {
    /// The request's [`CancelToken`] was cancelled.
    Cancelled,
    /// The request's [`Deadline`] passed.
    DeadlineExceeded {
        /// `true` when the deadline was detected by the round watchdog —
        /// a worker overran the deadline mid-round and the pool was marked
        /// [`PoolHealth::Wedged`] while the round drained. `false` for a
        /// deadline that expired between rounds.
        wedged: bool,
    },
}

/// Shared slot holding the supervision for the request currently in
/// flight on a pool.
///
/// The pool snapshots it at every round checkpoint; the context installs
/// and clears it *without* taking the pool lock, so a request blocked in a
/// draining wedged round cannot delay supervising (or un-supervising) the
/// next one. The unsupervised fast path costs one relaxed atomic load per
/// round — nothing the bench gate can see.
#[derive(Debug, Default)]
pub struct SupervisionCell {
    slot: Mutex<Option<Supervision>>,
    active: AtomicBool,
}

impl SupervisionCell {
    /// Installs `sup` as the supervision consulted by subsequent rounds.
    pub fn install(&self, sup: Supervision) {
        *lock_ignore_poison(&self.slot) = Some(sup);
        self.active.store(true, Ordering::SeqCst);
    }

    /// Removes any installed supervision; subsequent rounds run unbounded.
    pub fn clear(&self) {
        *lock_ignore_poison(&self.slot) = None;
        self.active.store(false, Ordering::SeqCst);
    }

    /// A clone of the currently installed supervision, if any.
    pub fn snapshot(&self) -> Option<Supervision> {
        // RELAXED(advisory fast path: a stale false only delays the
        // checkpoint by one round; install/clear publish via SeqCst and the
        // slot mutex is the real synchronization point)
        if !self.active.load(Ordering::Relaxed) {
            return None;
        }
        lock_ignore_poison(&self.slot).clone()
    }
}

/// Pool health as observed by the supervision layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolHealth {
    /// No recent failures.
    Healthy,
    /// At least one recent worker failure (panic or wedge recovery); the
    /// pool is serving, and promotes back to `Healthy` after
    /// [`HealthState::RECOVERY_STREAK`] consecutive clean rounds.
    Degraded,
    /// A round is currently overrunning its deadline. Callers should route
    /// new requests to a serial fallback instead of queueing on the pool.
    Wedged,
}

const STATE_HEALTHY: u8 = 0;
const STATE_DEGRADED: u8 = 1;
const STATE_WEDGED: u8 = 2;

/// Shared, lock-free-readable health record of one pool: the state
/// machine, failure/respawn/wedge counters, and failure timestamps for the
/// MTBF estimate. One instance is shared between a
/// [`WorkerPool`](crate::WorkerPool) and its context, so health is
/// readable while the pool mutex is held by a draining wedged round.
#[derive(Debug, Default)]
pub struct HealthState {
    state: AtomicU8,
    failures: AtomicUsize,
    respawns: AtomicUsize,
    wedges: AtomicUsize,
    clean_streak: AtomicUsize,
    clock: Mutex<FailureClock>,
}

#[derive(Debug, Default, Clone, Copy)]
struct FailureClock {
    first: Option<Instant>,
    last: Option<Instant>,
}

impl HealthState {
    /// Consecutive clean rounds after which a `Degraded` pool is promoted
    /// back to `Healthy`.
    pub const RECOVERY_STREAK: usize = 16;

    /// Current health.
    pub fn health(&self) -> PoolHealth {
        match self.state.load(Ordering::SeqCst) {
            STATE_WEDGED => PoolHealth::Wedged,
            STATE_DEGRADED => PoolHealth::Degraded,
            _ => PoolHealth::Healthy,
        }
    }

    /// Worker failures observed (panics and wedges).
    pub fn failures(&self) -> usize {
        self.failures.load(Ordering::SeqCst)
    }

    /// Worker OS threads replaced after failures (share 0 runs on the
    /// caller's thread, so its failures replace none).
    pub fn respawns(&self) -> usize {
        self.respawns.load(Ordering::SeqCst)
    }

    /// Rounds that overran their deadline.
    pub fn wedges(&self) -> usize {
        self.wedges.load(Ordering::SeqCst)
    }

    /// Mean time between failures: the span from the first to the most
    /// recent failure divided by the failure count minus one. `None` until
    /// two failures have been observed.
    pub fn mtbf(&self) -> Option<Duration> {
        let n = self.failures();
        if n < 2 {
            return None;
        }
        let clock = lock_ignore_poison(&self.clock);
        match (clock.first, clock.last) {
            (Some(first), Some(last)) => Some((last - first) / (n as u32 - 1)),
            _ => None,
        }
    }

    /// Records a worker failure (panic): Healthy → Degraded; a wedged pool
    /// stays wedged until its round drains.
    pub(crate) fn record_failure(&self) {
        self.failures.fetch_add(1, Ordering::SeqCst);
        self.clean_streak.store(0, Ordering::SeqCst);
        let _ = self.state.compare_exchange(
            STATE_HEALTHY,
            STATE_DEGRADED,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        let now = Instant::now();
        let mut clock = lock_ignore_poison(&self.clock);
        clock.first.get_or_insert(now);
        clock.last = Some(now);
    }

    /// Records a replaced worker thread.
    pub(crate) fn record_respawn(&self) {
        self.respawns.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks the pool wedged — called by the watchdog the moment a round
    /// overruns its deadline, *before* the drain completes, so concurrent
    /// callers can immediately route around the pool.
    pub(crate) fn mark_wedged(&self) {
        self.wedges.fetch_add(1, Ordering::SeqCst);
        self.state.store(STATE_WEDGED, Ordering::SeqCst);
        self.record_failure();
    }

    /// Re-admits a wedged pool after its round drained and the tardy
    /// workers were respawned: Wedged → Degraded.
    pub(crate) fn unwedge(&self) {
        let _ = self.state.compare_exchange(
            STATE_WEDGED,
            STATE_DEGRADED,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Records a clean round; a degraded pool heals after
    /// [`HealthState::RECOVERY_STREAK`] consecutive ones.
    pub(crate) fn record_success(&self) {
        let streak = self.clean_streak.fetch_add(1, Ordering::SeqCst) + 1;
        if streak >= Self::RECOVERY_STREAK {
            let _ = self.state.compare_exchange(
                STATE_DEGRADED,
                STATE_HEALTHY,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_shares_state_across_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled() && u.is_cancelled());
    }

    #[test]
    fn fused_token_trips_after_the_armed_number_of_polls() {
        let t = CancelToken::new();
        t.cancel_after_checkpoints(2);
        assert!(!t.poll(), "first poll consumes a tick");
        assert!(!t.is_cancelled());
        assert!(!t.poll(), "second poll consumes the last tick");
        assert!(t.poll(), "third poll trips");
        assert!(t.is_cancelled());
        // Once tripped it stays tripped.
        assert!(t.poll());
    }

    #[test]
    fn zero_fuse_trips_at_the_next_poll() {
        let t = CancelToken::new();
        t.cancel_after_checkpoints(0);
        assert!(t.poll());
    }

    #[test]
    fn unarmed_token_polls_false_forever() {
        let t = CancelToken::new();
        for _ in 0..100 {
            assert!(!t.poll());
        }
    }

    #[test]
    fn deadline_expiry_and_remaining() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3500));
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
    }

    #[test]
    fn health_machine_walks_healthy_degraded_healthy() {
        let h = HealthState::default();
        assert_eq!(h.health(), PoolHealth::Healthy);
        h.record_failure();
        assert_eq!(h.health(), PoolHealth::Degraded);
        assert_eq!(h.failures(), 1);
        for _ in 0..HealthState::RECOVERY_STREAK - 1 {
            h.record_success();
            assert_eq!(h.health(), PoolHealth::Degraded);
        }
        h.record_success();
        assert_eq!(h.health(), PoolHealth::Healthy);
    }

    #[test]
    fn wedge_is_sticky_until_unwedged() {
        let h = HealthState::default();
        h.mark_wedged();
        assert_eq!(h.health(), PoolHealth::Wedged);
        assert_eq!(h.wedges(), 1);
        // Successes do not heal a wedged pool; only unwedge does.
        for _ in 0..2 * HealthState::RECOVERY_STREAK {
            h.record_success();
        }
        assert_eq!(h.health(), PoolHealth::Wedged);
        h.unwedge();
        assert_eq!(h.health(), PoolHealth::Degraded);
    }

    #[test]
    fn mtbf_needs_two_failures_and_divides_the_span() {
        let h = HealthState::default();
        assert_eq!(h.mtbf(), None);
        h.record_failure();
        assert_eq!(h.mtbf(), None);
        std::thread::sleep(Duration::from_millis(5));
        h.record_failure();
        let mtbf = h.mtbf().expect("two failures give an estimate");
        assert!(mtbf >= Duration::from_millis(4), "{mtbf:?}");
        std::thread::sleep(Duration::from_millis(5));
        h.record_failure();
        // Three failures over ~10ms: the mean halves.
        let mtbf3 = h.mtbf().expect("estimate");
        assert!(mtbf3 >= Duration::from_millis(4), "{mtbf3:?}");
    }
}
