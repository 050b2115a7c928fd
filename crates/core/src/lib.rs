#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! The paper's contribution: multithreaded *symmetric* SpMV.
//!
//! Storing only the lower triangle halves the memory traffic of SpMV but
//! introduces transposed writes `y[c] += a·x[r]` that cross thread-partition
//! boundaries. The standard fix — per-thread local output vectors reduced
//! after the multiply — costs `Θ(p·N)` extra traffic and stops the kernel
//! from scaling (§III). This crate implements:
//!
//! * [`csr_mt::CsrParallel`] — the unsymmetric CSR baseline every figure
//!   compares against;
//! * [`csx_mt::CsxParallel`] — the unsymmetric CSX baseline (Fig. 11/12);
//! * [`sym::SymSpmv`] — the symmetric kernel over SSS or CSX-Sym storage
//!   with all three reduction schemes of §III: the naive local-vectors
//!   method (Alg. 3), the *effective ranges* method of Batista et al., and
//!   the paper's **local-vectors indexing** scheme;
//! * [`symbolic`] — the structure-only conflict analysis that builds the
//!   `(vid, idx)` reduction index and measures the effective-region density
//!   of Fig. 4;
//! * [`csx_sym`] — the **CSX-Sym** storage format (§IV-B): per-partition
//!   CSX encoding of the lower triangle with the boundary-legality rule;
//! * [`ws`] — the working-set models of Eq. 3–6 (Fig. 5);
//! * [`resilience`] — a bounded attempt count ([`RetryPolicy`], retries
//!   back to back on the already-healed pool), the serial
//!   [`FallbackKernel`] of last resort, and the [`Resilient`] wrapper whose
//!   one call, `spmv(x, y, sup)`, keeps serving when the pool degrades
//!   (DESIGN.md §16).
//!
//! Which plan to build is the caller's choice: this crate selects nothing.
//! The paper's answer, and the one the solver examples build, is `sss-idx`
//! ([`SymFormat::Sss`] with [`ReductionMethod::Indexing`]) on a context of
//! the caller's thread count.

pub mod csr_mt;
pub mod csx_mt;
pub mod csx_sym;
pub mod error;
pub mod plan;
pub mod resilience;
pub mod shared;
pub mod sym;
pub mod symbolic;
pub mod traits;
pub mod ws;

pub use csr_mt::CsrParallel;
pub use csx_mt::CsxParallel;
pub use csx_sym::CsxSymMatrix;
pub use error::SymSpmvError;
pub use plan::CachedSymPlan;
pub use resilience::{fallback_worthy, serve, FallbackKernel, Resilient, RetryPolicy, Served};
pub use sym::{FormatTag, ReductionMethod, SymFormat, SymSpmv};
pub use traits::{try_on_pool, ParallelSpmm, ParallelSpmv};

// Re-exported so block-kernel callers need only this crate in scope.
pub use symspmv_sparse::VectorBlock;
