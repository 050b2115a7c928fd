//! The common kernel interface of the measurement framework (§V-A).
//!
//! "We have built a common measurements framework that interfaces with the
//! storage format implementations through a well-defined sparse matrix-
//! vector multiplication interface" — [`ParallelSpmv`] is that interface,
//! and [`ParallelSpmm`] is the same interface with one more method, the
//! batched multiply over `k` right-hand sides.

use crate::error::SymSpmvError;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use symspmv_runtime::{ExecutionContext, Interrupt, PhaseTimes};
use symspmv_sparse::block::VectorBlock;
use symspmv_sparse::Val;

/// Runs `f` — an operation on `ctx`'s pool: one multiply, or a whole solve
/// — converting a worker-thread panic or a supervision interrupt inside it
/// into its typed error instead of unwinding. Shared by `try_spmv`,
/// `try_spmm` and the resilient solver wrappers:
///
/// 1. a supervision [`Interrupt`] (cancellation / deadline, raised on the
///    calling thread at a pool checkpoint) becomes
///    [`SymSpmvError::Cancelled`] / [`SymSpmvError::DeadlineExceeded`];
/// 2. a recorded worker panic becomes [`SymSpmvError::WorkerPanicked`];
/// 3. anything else is a genuine caller-thread panic (e.g. a dimension
///    assertion), not a worker death, and resumes unwinding.
///
/// On `Err`, the context's pool has fully drained the failed round and
/// every leased buffer has been scrubbed back to the arena (the arena
/// all-free-zero invariant holds), so the kernel and context remain
/// usable; the operation's outputs hold unspecified partial results.
pub fn try_on_pool<T>(ctx: &ExecutionContext, f: impl FnOnce() -> T) -> Result<T, SymSpmvError> {
    // Clear any stale record so a pre-existing panic from an unrelated
    // kernel on the same context is not misattributed to this call.
    let _ = ctx.take_last_panic();
    let payload = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(value) => return Ok(value),
        Err(payload) => payload,
    };
    Err(match payload.downcast::<Interrupt>() {
        Ok(interrupt) => {
            // The checkpoint fired before any worker was dispatched (or
            // after the round drained); a panic recorded in the same call
            // is subordinate to the interrupt but must not leak.
            let _ = ctx.take_last_panic();
            SymSpmvError::from(*interrupt)
        }
        Err(payload) => match ctx.take_last_panic() {
            Some(info) => SymSpmvError::from(info),
            None => std::panic::resume_unwind(payload),
        },
    })
}

/// `make(i)` for each `i < n`, item `i` made by share `i` of one `ctx`
/// round. A share that panics leaves its item empty — the pool counts the
/// failure — and the caller makes it after the round, so a pool fault never
/// fails the caller and the result is the serial one whenever `make` is a
/// function of `i` alone.
pub(crate) fn per_share<T: Send + Sync>(
    ctx: &ExecutionContext,
    n: usize,
    make: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let _failed_share = ctx.try_run(&|tid| {
        if let Some(slot) = slots.get(tid) {
            let _ = slot.set(make(tid));
        }
    });
    let slots = slots.into_iter().enumerate();
    slots
        .map(|(i, slot)| slot.into_inner().unwrap_or_else(|| make(i)))
        .collect()
}

/// A multithreaded SpMV kernel bound to one matrix and one
/// [`ExecutionContext`] (which supplies the shared worker pool and buffer
/// arena).
pub trait ParallelSpmv {
    /// Computes `y = A·x`.
    fn spmv(&mut self, x: &[Val], y: &mut [Val]);

    /// Computes `y = A·x` under [`try_on_pool`]: a worker-thread
    /// panic or supervision interrupt comes back as a structured error
    /// instead of unwinding, with the kernel and context still usable.
    fn try_spmv(&mut self, x: &[Val], y: &mut [Val]) -> Result<(), SymSpmvError> {
        let ctx = Arc::clone(self.context());
        try_on_pool(&ctx, || self.spmv(x, y))
    }

    /// Matrix dimension `N` (all evaluation matrices are square).
    fn n(&self) -> usize;

    /// Non-zeros of the represented (full) matrix — defines the kernel's
    /// flop count as `2·NNZ` for Gflop/s accounting.
    fn nnz_full(&self) -> usize;

    /// Bytes of the storage representation (compression comparisons).
    fn size_bytes(&self) -> usize;

    /// Accumulated per-phase times since the last reset.
    fn times(&self) -> PhaseTimes;

    /// Resets the phase-time accumulators.
    fn reset_times(&mut self);

    /// Short kernel name for reports (e.g. `"csr"`, `"sss-idx"`). Borrowed
    /// (`'static`) for every built-in kernel so report loops do not
    /// allocate.
    fn name(&self) -> Cow<'static, str>;

    /// The execution context this kernel borrows its pool and buffers from.
    fn context(&self) -> &Arc<ExecutionContext>;

    /// Number of worker threads.
    fn nthreads(&self) -> usize {
        self.context().nthreads()
    }

    /// Floating-point operations per SpMV invocation.
    fn flops(&self) -> u64 {
        2 * self.nnz_full() as u64
    }
}

/// A [`ParallelSpmv`] that also multiplies a [`VectorBlock`] of `k`
/// lane-interleaved right-hand sides per call (`Y = A·X`): one pass over
/// the matrix updates all `k` lanes of a row.
///
/// Contract every implementation upholds:
///
/// * `x.lanes() == y.lanes()` and `x.n() == y.n() == n`; implementations
///   assert this and panic on mismatch (caller bug, not a worker death).
/// * Each output lane `j` is **bit-identical** to [`ParallelSpmv::spmv`]
///   on input lane `j`: the block path runs the same per-element
///   accumulation order per lane, so batching never changes the numerics —
///   only the traffic.
/// * Per-thread local blocks, where a kernel has them, are leased from the
///   context's `BufferArena` scaled by the lane count, so a worker panic mid-SpMM scrubs them on
///   unwind and the arena's all-free-buffers-are-zero invariant holds
///   afterwards.
pub trait ParallelSpmm: ParallelSpmv {
    /// Computes `y[·, j] = A · x[·, j]` for every lane `j`.
    ///
    /// # Panics
    /// If the block shapes disagree with each other or with the matrix
    /// dimension.
    fn spmm(&mut self, x: &VectorBlock, y: &mut VectorBlock);

    /// Computes `Y = A·X` under [`try_on_pool`], with the same
    /// recovery guarantees as [`ParallelSpmv::try_spmv`].
    fn try_spmm(&mut self, x: &VectorBlock, y: &mut VectorBlock) -> Result<(), SymSpmvError> {
        let ctx = Arc::clone(self.context());
        try_on_pool(&ctx, || self.spmm(x, y))
    }
}
