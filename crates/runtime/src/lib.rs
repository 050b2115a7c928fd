#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! Execution runtime: explicit threading, partitioning, timing, and the
//! shared execution context.
//!
//! The paper parallelizes SpMV with explicit native threads (Pthreads) and
//! static row partitions, not a work-stealing scheduler — thread identity
//! matters because each thread owns a local output vector. This crate
//! provides the equivalent machinery:
//!
//! * [`pool::WorkerPool`] — a persistent pool of workers executing the same
//!   closure with distinct thread ids (SPMD style), with a blocking `run`;
//! * [`context::ExecutionContext`] — the shared runtime layer: one pool,
//!   one recycled first-touch buffer arena, the four built-in
//!   [`reduction::ReductionStrategy`] objects, and one
//!   [`context::ContextStats`] snapshot of its counters;
//! * [`reduction`] — the three symmetric reduction strategies of Fig. 3
//!   (naive / effective-ranges / local-vectors indexing) and the race
//!   schedule, as trait objects;
//! * [`shared`] — the `SharedBuf` escape hatch for disjoint parallel writes;
//! * [`partition`] — contiguous, weight-balanced row partitioning;
//! * [`timing`] — phase timers for the multiplication/reduction breakdowns
//!   of Fig. 10 and Fig. 14;
//! * `fault` *(tests / `fault-injection` feature)* — deterministic fault
//!   injection: make a chosen worker panic or stall in a chosen round, or
//!   corrupt a buffer on its way back to the arena, so recovery paths can
//!   be exercised on purpose;
//! * `modelcheck` *(tests / `model-check` feature)* — a bounded-
//!   interleaving model checker that exhausts every schedule of the
//!   supervision protocol on miniature scenarios, with DPOR-lite pruning
//!   and seeded protocol mutants as a fidelity gauge;
//! * `race` *(`race-detector` feature)* — a shadow-memory dynamic race
//!   detector mirroring every `SharedBuf` write with (round, worker)
//!   attribution, used to adversarially cross-validate the static race
//!   certificates emitted by the `symspmv-verify` crate;
//! * [`supervisor`] — deadlines, cooperative cancellation, the round
//!   watchdog, and the Healthy → Degraded → Wedged pool health machine
//!   with worker respawn, so a long-lived service bounds every request in
//!   time and keeps serving after faults.
//!
//! The kernel interfaces that run on this machinery — `ParallelSpmv` and
//! its block extension `ParallelSpmm` — live in `symspmv-core`, beside the
//! error type their fallible calls return.

pub mod context;
#[cfg(any(test, feature = "fault-injection"))]
pub mod fault;
#[cfg(any(test, feature = "model-check"))]
pub mod modelcheck;
pub mod partition;
pub mod pool;
#[cfg(feature = "race-detector")]
pub mod race;
pub mod reduction;
pub mod shared;
pub mod supervisor;
pub mod timing;

#[cfg(test)]
mod stress_tests;

pub use context::{BufferLease, ContextStats, ExecutionContext, SupervisionGuard};
#[cfg(any(test, feature = "fault-injection"))]
pub use fault::FaultPlan;
pub use partition::{balanced_ranges, even_ranges, Range};
pub use pool::{WorkerPanic, WorkerPanicInfo, WorkerPool};
pub use reduction::{IndexEntry, LocalLayout, ReduceJob, ReductionStrategy};
pub use shared::SharedBuf;
pub use supervisor::{
    CancelToken, Deadline, HealthState, Interrupt, PoolHealth, Supervision, SupervisionCell,
};
pub use timing::PhaseTimes;
