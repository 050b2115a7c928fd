//! Shadow-memory dynamic race detector (`race-detector` feature).
//!
//! The static write-set verifier (`symspmv-verify`) proves race-freedom of
//! a *plan*; this module observes the *execution* and is used to
//! adversarially cross-validate the proofs. Every [`SharedBuf`] write is
//! mirrored into a shadow map keyed by the element's address, recording the
//! pool round (epoch) and worker id of the last writer. Two writes to the
//! same element, in the same epoch, from different workers are exactly the
//! write-write races the certificates claim cannot happen; each one is
//! recorded as a [`RaceReport`].
//!
//! Scope and honesty of the model:
//!
//! * Only **write-write** overlap within one pool round is detected — the
//!   kernels' phases are barrier-separated, so cross-round reuse is not a
//!   race. Reads are not tracked.
//! * Writes through [`SharedBuf::range_mut`] claim the whole requested
//!   range; [`SharedBuf::full_mut`] claims *nothing*, because kernels that
//!   take the full view (the CSR/CSX row loops) index absolute positions
//!   the shadow layer cannot attribute — those kernels are covered by the
//!   static row-partition certificate instead.
//! * Writes outside a pool round (no current worker) are ignored.
//! * The detector is process-global and off by default; tests that enable
//!   it serialize on [`detector_guard`] so concurrent test threads do not
//!   interleave unrelated rounds into one shadow map.
//!
//! [`SharedBuf`]: crate::shared::SharedBuf
//! [`SharedBuf::range_mut`]: crate::shared::SharedBuf::range_mut
//! [`SharedBuf::full_mut`]: crate::shared::SharedBuf::full_mut

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One detected write-write overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Raw address of the contested element.
    pub addr: usize,
    /// Pool round in which both writes landed.
    pub epoch: u64,
    /// Worker that wrote first (as observed by the shadow map).
    pub first_tid: usize,
    /// Worker whose write collided.
    pub second_tid: usize,
}

/// Cap on retained reports: one racing range can produce thousands of
/// identical element-level collisions; keeping a handful is enough to fail
/// a test and name the culprits.
const MAX_REPORTS: usize = 64;

struct Shadow {
    /// addr → (epoch, tid) of the last recorded write.
    last: HashMap<usize, (u64, usize)>,
    races: Vec<RaceReport>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: AtomicU64 = AtomicU64::new(0);

fn shadow() -> &'static Mutex<Shadow> {
    static SHADOW: OnceLock<Mutex<Shadow>> = OnceLock::new();
    SHADOW.get_or_init(|| {
        Mutex::new(Shadow {
            last: HashMap::new(),
            races: Vec::new(),
        })
    })
}

/// Serializes tests that enable the global detector.
pub fn detector_guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// (tid, epoch) of the pool round this thread is currently executing.
    static CURRENT: Cell<Option<(usize, u64)>> = const { Cell::new(None) };
}

/// Starts shadow tracking; clears any previous shadow state and reports.
pub fn enable() {
    let mut s = shadow().lock().unwrap_or_else(|e| e.into_inner());
    s.last.clear();
    s.races.clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops shadow tracking (reports stay readable via [`take_reports`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the detector is currently recording.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Drains and returns the collected race reports.
pub fn take_reports() -> Vec<RaceReport> {
    let mut s = shadow().lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut s.races)
}

/// Allocates the epoch for the next pool round.
pub(crate) fn next_epoch() -> u64 {
    EPOCH.fetch_add(1, Ordering::SeqCst) + 1
}

/// Marks the current thread as worker `tid` inside round `epoch` until the
/// returned tag drops — also when the share unwinds. Share 0 runs on the
/// caller's thread, which goes on writing between rounds; a tag left
/// behind there would attribute those writes to a finished round.
pub(crate) fn enter_round(tid: usize, epoch: u64) -> RoundTag {
    CURRENT.with(|c| c.set(Some((tid, epoch))));
    RoundTag
}

/// The current thread's worker identity; cleared on drop.
pub(crate) struct RoundTag;

impl Drop for RoundTag {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(None));
    }
}

/// Records a write of `len` elements starting at `base` (element stride 8).
pub(crate) fn record_write_range(base: usize, len: usize) {
    if !is_enabled() {
        return;
    }
    let Some((tid, epoch)) = CURRENT.with(|c| c.get()) else {
        return;
    };
    let mut s = shadow().lock().unwrap_or_else(|e| e.into_inner());
    for k in 0..len {
        let addr = base + 8 * k;
        match s.last.insert(addr, (epoch, tid)) {
            Some((prev_epoch, prev_tid)) if prev_epoch == epoch && prev_tid != tid => {
                if s.races.len() < MAX_REPORTS {
                    s.races.push(RaceReport {
                        addr,
                        epoch,
                        first_tid: prev_tid,
                        second_tid: tid,
                    });
                }
            }
            _ => {}
        }
    }
}

/// Records a single-element write at `addr`.
pub(crate) fn record_write(addr: usize) {
    record_write_range(addr, 1);
}

/// Forgets shadow entries for the `len`-element region at `base` — called
/// when a [`BufferLease`](crate::context::BufferLease) returns its buffer
/// to the arena, so recycled buffers do not pin stale shadow entries (and
/// the map does not grow with every lease).
pub(crate) fn forget_range(base: usize, len: usize) {
    if !is_enabled() {
        return;
    }
    let mut s = shadow().lock().unwrap_or_else(|e| e.into_inner());
    for k in 0..len {
        s.last.remove(&(base + 8 * k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::SharedBuf;
    use crate::WorkerPool;

    #[test]
    fn disjoint_round_is_clean_and_overlap_is_caught() {
        let _g = detector_guard();
        let mut pool = WorkerPool::new(4);
        let mut data = vec![0.0; 64];
        let buf = SharedBuf::new(&mut data);

        enable();
        // Round 1: disjoint 16-element stripes — no race.
        pool.run(&|tid| {
            // SAFETY(cert: test-only): stripes [16·tid, 16·tid+16) are
            // manifestly disjoint across the four workers.
            let s = unsafe { buf.range_mut(16 * tid, 16 * tid + 16) };
            s.fill(1.0);
        });
        assert!(take_reports().is_empty(), "disjoint round must be clean");

        // Round 2: every worker writes element 3 — a write-write race.
        pool.run(&|tid| {
            // SAFETY(cert: test-only): deliberately racy write, serialized
            // in practice by the shadow-map mutex inside `add`; the point
            // is that the detector must flag it.
            unsafe { buf.add(3, tid as f64) };
        });
        let races = take_reports();
        disable();
        assert!(!races.is_empty(), "colliding writes must be reported");
        assert!(races.iter().all(|r| r.first_tid != r.second_tid));
    }

    #[test]
    fn cross_round_reuse_is_not_a_race() {
        let _g = detector_guard();
        let mut pool = WorkerPool::new(2);
        let mut data = vec![0.0; 8];
        let buf = SharedBuf::new(&mut data);
        enable();
        for _ in 0..3 {
            pool.run(&|tid| {
                if tid == 0 {
                    // SAFETY(cert: test-only): only worker 0 writes in
                    // any given round.
                    unsafe { buf.set(5, 1.0) };
                }
            });
        }
        let races = take_reports();
        disable();
        assert!(races.is_empty(), "same element across rounds: {races:?}");
    }

    #[test]
    fn writes_outside_rounds_are_ignored() {
        let _g = detector_guard();
        let mut data = vec![0.0; 4];
        let buf = SharedBuf::new(&mut data);
        enable();
        // SAFETY(cert: test-only): single-threaded write outside any round.
        unsafe { buf.set(0, 2.0) };
        // SAFETY(cert: test-only): as above.
        unsafe { buf.set(0, 3.0) };
        let races = take_reports();
        disable();
        assert!(races.is_empty());
    }
}
