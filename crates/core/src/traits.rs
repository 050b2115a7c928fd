//! The common kernel interface of the measurement framework (§V-A).
//!
//! "We have built a common measurements framework that interfaces with the
//! storage format implementations through a well-defined sparse matrix-
//! vector multiplication interface" — this trait is that interface.

use crate::error::SymSpmvError;
use std::borrow::Cow;
use std::sync::Arc;
use symspmv_runtime::{ExecutionContext, Interrupt, ParallelSpmm, PhaseTimes};
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

/// Fallible batched multiplication, mirroring [`ParallelSpmv::try_spmv`]
/// for the [`ParallelSpmm`] block path.
///
/// Lives in this crate (not `symspmv-runtime`, where `ParallelSpmm` is
/// defined) because the structured error type is this crate's
/// [`SymSpmvError`]. Blanket-implemented for every block kernel.
pub trait ParallelSpmmExt: ParallelSpmm {
    /// Computes `Y = A·X` under [`try_on_pool`], with the same
    /// recovery guarantees as [`ParallelSpmv::try_spmv`].
    fn try_spmm(&mut self, x: &VectorBlock, y: &mut VectorBlock) -> Result<(), SymSpmvError> {
        let ctx = Arc::clone(self.spmm_context());
        try_on_pool(&ctx, || self.spmm(x, y))
    }
}

impl<T: ParallelSpmm + ?Sized> ParallelSpmmExt for T {}

/// A kernel exposing both the scalar ([`ParallelSpmv`]) and the batched
/// ([`ParallelSpmm`]) multiplication paths — the object type of the
/// conformance oracle and the block benchmarks.
pub trait BlockKernel: ParallelSpmv + ParallelSpmm {}

impl<T: ParallelSpmv + ParallelSpmm + ?Sized> BlockKernel for T {}

/// A kernel whose matrix structure can be described to the symbolic
/// certifier (`symspmv_verify::symbolic`) — the hook the static-analysis
/// layer uses to re-prove a live kernel's plan in `O(p + c)` without
/// re-walking the structure.
pub trait SymbolicDescribe {
    /// The structure axioms of the backing matrix, or `None` when the
    /// storage no longer exposes the row-wise SSS structure the facts are
    /// distilled from (e.g. a pure CSX-Sym stream encoding).
    fn structure_facts(&self) -> Option<symspmv_verify::StructureFacts>;

    /// Re-certifies the kernel's current plan symbolically. `None` when
    /// [`SymbolicDescribe::structure_facts`] is unavailable; otherwise the
    /// symbolic certifier's verdict, which must match the enumerative
    /// certificate minted at plan time (modulo the recorded proof form).
    fn recertify_symbolic(
        &self,
    ) -> Option<Result<symspmv_verify::RaceCertificate, symspmv_verify::VerifyError>>;
}
