//! Bounded retry and degraded-mode serving.
//!
//! The supervision layer (`symspmv-runtime`) turns faults into *typed
//! errors*; this module turns typed errors into *availability*:
//!
//! * [`RetryPolicy`] — a bounded count of attempts, retrying only
//!   failures that a fresh attempt can plausibly fix: a worker panic,
//!   whose worker the pool has respawned before the failed round returned,
//!   so the next attempt runs at once on a healed pool and nothing is
//!   gained by waiting. Deadline expiry and cancellation are final by
//!   definition, and input/numerical errors would fail identically again.
//! * [`FallbackKernel`] — the serial SSS reference path as an always-
//!   available kernel of last resort. It never touches the worker pool, so
//!   it serves even while a wedged round is draining, and it is
//!   bit-identical to the conformance oracle's serial reference.
//! * [`Resilient`] — the composition: a parallel kernel wrapped with a
//!   retry policy and a fallback. Each request reports *how* it was served
//!   ([`Served`]), so a chaos harness can audit availability and count
//!   how often the fast path was lost.

use crate::error::SymSpmvError;
use crate::traits::ParallelSpmv;
use std::borrow::Cow;
use std::sync::Arc;
use symspmv_runtime::timing::Stopwatch;
use symspmv_runtime::{ExecutionContext, PhaseTimes, PoolHealth, Supervision};
use symspmv_sparse::{CooMatrix, SparseError, SssMatrix, SymmetryKind, Val};

/// A bounded number of attempts. Attempts follow each other at once: the
/// one transient failure, a worker panic, leaves the pool already healed.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    max_attempts: usize,
}

impl Default for RetryPolicy {
    /// Three attempts.
    fn default() -> Self {
        RetryPolicy::new(3)
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts (clamped to ≥ 1).
    pub fn new(max_attempts: usize) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
    }

    /// Total attempts this policy makes before giving up.
    pub fn max_attempts(&self) -> usize {
        self.max_attempts
    }

    /// Whether `e` is worth retrying: only a worker panic, where the
    /// supervisor has already respawned the dead worker so a fresh attempt
    /// runs on a healed pool. Cancellation and deadline expiry are final;
    /// input and numerical errors are deterministic.
    pub fn is_transient(e: &SymSpmvError) -> bool {
        matches!(e, SymSpmvError::WorkerPanicked { .. })
    }

    /// Runs `op` up to `max_attempts` times (passing the 1-based attempt
    /// number), retrying transient failures immediately.
    ///
    /// Returns the successful value together with the number of attempts
    /// consumed. A non-transient error is returned immediately; exhausting
    /// the budget returns [`SymSpmvError::RetriesExhausted`] wrapping the
    /// final error.
    pub fn run<T>(
        &self,
        mut op: impl FnMut(usize) -> Result<T, SymSpmvError>,
    ) -> Result<(T, usize), SymSpmvError> {
        let mut attempt = 1;
        loop {
            match op(attempt) {
                Ok(v) => return Ok((v, attempt)),
                Err(e) if !Self::is_transient(&e) => return Err(e),
                Err(e) if attempt == self.max_attempts => {
                    return Err(SymSpmvError::RetriesExhausted {
                        attempts: attempt,
                        last: Box::new(e),
                    });
                }
                Err(_) => attempt += 1,
            }
        }
    }
}

/// The serial kernel of last resort: the SSS reference path, bit-identical
/// to the conformance oracle's serial reference, never touching the worker
/// pool.
///
/// Implements [`ParallelSpmv`] with the serial multiply, so it can stand
/// in for the kernel the service runs; the degraded block solve drives it
/// one lane at a time. `nthreads` reports 1 regardless of the context's
/// pool width — the whole point is that it does not use the pool.
pub struct FallbackKernel {
    sss: SssMatrix,
    ctx: Arc<ExecutionContext>,
    times: PhaseTimes,
}

impl FallbackKernel {
    /// Builds the fallback from an already-validated SSS matrix.
    pub fn new(sss: SssMatrix, ctx: Arc<ExecutionContext>) -> Self {
        FallbackKernel {
            sss,
            ctx,
            times: PhaseTimes::new(),
        }
    }

    /// Builds the fallback directly from COO triplets with the given
    /// symmetry kind (tolerance 0 — exact structural validation, same as
    /// the conformance reference).
    pub fn from_coo_kind(
        coo: &CooMatrix,
        kind: SymmetryKind,
        ctx: Arc<ExecutionContext>,
    ) -> Result<Self, SparseError> {
        Ok(FallbackKernel::new(
            SssMatrix::from_coo_kind(coo, kind, 0.0)?,
            ctx,
        ))
    }

    /// The underlying serial SSS matrix.
    pub fn sss(&self) -> &SssMatrix {
        &self.sss
    }
}

impl ParallelSpmv for FallbackKernel {
    fn spmv(&mut self, x: &[Val], y: &mut [Val]) {
        let timer = Stopwatch::start();
        self.sss.spmv(x, y);
        self.times.multiply += timer.elapsed();
    }

    fn n(&self) -> usize {
        self.sss.n() as usize
    }

    fn nnz_full(&self) -> usize {
        self.sss.full_nnz()
    }

    fn size_bytes(&self) -> usize {
        self.sss.size_bytes()
    }

    fn times(&self) -> PhaseTimes {
        self.times
    }

    fn reset_times(&mut self) {
        self.times = PhaseTimes::new();
    }

    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("serial-sss-fallback")
    }

    fn context(&self) -> &Arc<ExecutionContext> {
        &self.ctx
    }

    fn nthreads(&self) -> usize {
        1
    }
}

/// How a [`Resilient`] request was ultimately served.
#[derive(Debug, Clone, PartialEq)]
pub enum Served {
    /// The wrapped parallel kernel succeeded (possibly after retries).
    Parallel {
        /// Attempts consumed, including the successful one.
        attempts: usize,
    },
    /// The serial fallback served the request after the parallel path was
    /// lost.
    Fallback {
        /// The error that exhausted or bypassed the parallel path.
        cause: SymSpmvError,
    },
}

impl Served {
    /// `true` when the request was served by the fallback.
    pub fn is_fallback(&self) -> bool {
        matches!(self, Served::Fallback { .. })
    }
}

/// Whether an error should degrade the request onto the serial fallback
/// (rather than being returned to the caller). Pool-loss errors degrade;
/// cancellation honours the caller's own intent, and input/numerical
/// errors would reproduce identically on the fallback.
pub fn fallback_worthy(e: &SymSpmvError) -> bool {
    matches!(
        e,
        SymSpmvError::WorkerPanicked { .. }
            | SymSpmvError::RetriesExhausted { .. }
            | SymSpmvError::PoolWedged
            | SymSpmvError::DeadlineExceeded { .. }
    )
}

/// The retry→degrade ladder every resilient entry point shares, over the
/// request's output buffer `out`:
///
/// 1. if the pool is already [`Wedged`](PoolHealth::Wedged), the request
///    goes straight to the fallback (cause [`SymSpmvError::PoolWedged`])
///    without queueing on the pool;
/// 2. otherwise `parallel` runs, retried per `policy`, under `sup` —
///    installed for the parallel attempts only, since a deadline that
///    killed them must not also kill the late serve that follows;
/// 3. a pool-loss failure ([`fallback_worthy`]) is served by `degraded`;
///    cancellation and input/numerical errors return typed.
///
/// `reset` restores `out` to its pre-request state before every attempt,
/// before the degraded serve and before an `Err` return, so a failed
/// attempt's partial writes never leak onwards.
pub fn serve<O: ?Sized, T>(
    ctx: &ExecutionContext,
    policy: &RetryPolicy,
    sup: Option<Supervision>,
    out: &mut O,
    reset: impl Fn(&mut O),
    mut parallel: impl FnMut(&mut O) -> Result<T, SymSpmvError>,
    degraded: impl FnOnce(&mut O) -> T,
) -> Result<(T, Served), SymSpmvError> {
    let attempted = if ctx.health() == PoolHealth::Wedged {
        Err(SymSpmvError::PoolWedged)
    } else {
        let _guard = sup.map(|s| ctx.supervise(s));
        policy.run(|_| {
            reset(out);
            parallel(out)
        })
    };
    let served = match attempted {
        Ok((value, attempts)) => return Ok((value, Served::Parallel { attempts })),
        Err(cause) if fallback_worthy(&cause) => Served::Fallback { cause },
        Err(e) => {
            reset(out);
            return Err(e);
        }
    };
    reset(out);
    Ok((degraded(out), served))
}

/// A parallel kernel wrapped with a [`RetryPolicy`] and a serial
/// [`FallbackKernel`]: the unit the solve service actually exposes. Every
/// request climbs the [`serve`] ladder and reports how it was served.
///
/// The context keeps accepting work throughout — the fallback never takes
/// the pool lock.
pub struct Resilient<K> {
    kernel: K,
    fallback: FallbackKernel,
    policy: RetryPolicy,
    parallel_serves: usize,
    fallback_serves: usize,
}

impl<K: ParallelSpmv> Resilient<K> {
    /// Wraps `kernel` with `fallback` and `policy`. The fallback must
    /// represent the same matrix (same dimension, same operator) as the
    /// kernel; dimensions are asserted.
    pub fn new(kernel: K, fallback: FallbackKernel, policy: RetryPolicy) -> Self {
        assert_eq!(
            kernel.n(),
            ParallelSpmv::n(&fallback),
            "fallback must represent the same matrix as the kernel"
        );
        Resilient {
            kernel,
            fallback,
            policy,
            parallel_serves: 0,
            fallback_serves: 0,
        }
    }

    /// Requests served by the parallel kernel so far.
    pub fn parallel_serves(&self) -> usize {
        self.parallel_serves
    }

    /// Requests served by the serial fallback so far.
    pub fn fallback_serves(&self) -> usize {
        self.fallback_serves
    }

    /// Computes `y = A·x` resiliently, under `sup` (deadline and/or
    /// cancellation token) when given: installed on the context for the
    /// parallel attempts and cleared on every exit path.
    pub fn spmv(
        &mut self,
        x: &[Val],
        y: &mut [Val],
        sup: Option<Supervision>,
    ) -> Result<Served, SymSpmvError> {
        let ctx = Arc::clone(self.kernel.context());
        let ((), served) = serve(
            &ctx,
            &self.policy,
            sup,
            y,
            |y| y.fill(0.0),
            |y| self.kernel.try_spmv(x, y),
            |y| self.fallback.spmv(x, y),
        )?;
        if served.is_fallback() {
            self.fallback_serves += 1;
        } else {
            self.parallel_serves += 1;
        }
        Ok(served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn policy_succeeds_first_try_without_sleeping() {
        let policy = RetryPolicy::new(5);
        let calls = AtomicUsize::new(0);
        let (v, attempts) = policy
            .run(|a| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok::<_, SymSpmvError>(a * 10)
            })
            .expect("first attempt succeeds");
        assert_eq!((v, attempts), (10, 1));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn policy_retries_transient_failures_until_success() {
        let policy = RetryPolicy::new(4);
        let calls = AtomicUsize::new(0);
        let ((), attempts) = policy
            .run(|a| {
                calls.fetch_add(1, Ordering::Relaxed);
                if a < 3 {
                    Err(SymSpmvError::WorkerPanicked {
                        tid: 0,
                        message: "transient".into(),
                    })
                } else {
                    Ok(())
                }
            })
            .expect("third attempt succeeds");
        assert_eq!(attempts, 3);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn policy_exhaustion_wraps_the_last_error() {
        let policy = RetryPolicy::new(2);
        let err = policy
            .run(|a| {
                Err::<(), _>(SymSpmvError::WorkerPanicked {
                    tid: a,
                    message: format!("attempt {a}"),
                })
            })
            .unwrap_err();
        match err {
            SymSpmvError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 2);
                assert_eq!(
                    *last,
                    SymSpmvError::WorkerPanicked {
                        tid: 2,
                        message: "attempt 2".into()
                    }
                );
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn policy_does_not_retry_final_errors() {
        let policy = RetryPolicy::new(5);
        let calls = AtomicUsize::new(0);
        let err = policy
            .run(|_| {
                calls.fetch_add(1, Ordering::Relaxed);
                Err::<(), _>(SymSpmvError::Cancelled)
            })
            .unwrap_err();
        assert_eq!(err, SymSpmvError::Cancelled);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "no retry on Cancelled");
    }

    #[test]
    fn transience_classification() {
        assert!(RetryPolicy::is_transient(&SymSpmvError::WorkerPanicked {
            tid: 0,
            message: String::new()
        }));
        for e in [
            SymSpmvError::Cancelled,
            SymSpmvError::DeadlineExceeded { wedged: false },
            SymSpmvError::PoolWedged,
            SymSpmvError::NonFiniteResidual { iteration: 0 },
        ] {
            assert!(!RetryPolicy::is_transient(&e), "{e} must be final");
        }
    }

    #[test]
    fn fallback_worthiness_classification() {
        assert!(fallback_worthy(&SymSpmvError::PoolWedged));
        assert!(fallback_worthy(&SymSpmvError::DeadlineExceeded {
            wedged: true
        }));
        assert!(fallback_worthy(&SymSpmvError::RetriesExhausted {
            attempts: 1,
            last: Box::new(SymSpmvError::PoolWedged),
        }));
        assert!(!fallback_worthy(&SymSpmvError::Cancelled));
        assert!(!fallback_worthy(&SymSpmvError::NotSpd {
            iteration: 0,
            pap: -1.0
        }));
    }
}
