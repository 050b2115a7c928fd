#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! `symspmv` — facade crate re-exporting the whole workspace.
//!
//! Reproduction of "Improving the Performance of the Symmetric Sparse
//! Matrix-Vector Multiplication in Multicore" (IPDPS 2013): the CSX-Sym
//! storage format and the local-vectors indexing reduction scheme, together
//! with the substrates (formats, reordering, runtime, CG solver) and the
//! experiment harness.
//!
//! # Example
//!
//! ```
//! use symspmv::core::{ParallelSpmv, ReductionMethod, SymFormat, SymSpmv};
//! use symspmv::csx::detect::DetectConfig;
//! use symspmv::runtime::ExecutionContext;
//!
//! // A symmetric positive-definite matrix (2-D Laplacian).
//! let a = symspmv::sparse::gen::laplacian_2d(32, 32);
//! let n = a.nrows() as usize;
//!
//! // One execution context owns the worker pool, the buffer arena, and
//! // the four reduction strategies shared by kernels and solver alike.
//! let ctx = ExecutionContext::new(4);
//!
//! // The paper's fastest configuration: CSX-Sym storage plus the
//! // local-vectors indexing reduction.
//! let mut kernel = SymSpmv::from_coo(
//!     &a,
//!     &ctx,
//!     ReductionMethod::Indexing,
//!     SymFormat::CsxSym(DetectConfig::default()),
//! )
//! .expect("matrix is symmetric");
//!
//! let x = vec![1.0; n];
//! let mut y = vec![0.0; n];
//! kernel.spmv(&x, &mut y); // y = A·x
//!
//! // Interior rows of the Laplacian sum to zero against the ones vector;
//! // boundary rows don't.
//! assert!(y.iter().any(|&v| v != 0.0));
//! assert!(kernel.size_bytes() > 0);
//!
//! // Solve A·x = b with CG on the same kernel.
//! let b = vec![1.0; n];
//! let mut sol = vec![0.0; n];
//! let res = symspmv::solver::cg(
//!     &mut kernel,
//!     &b,
//!     &mut sol,
//!     &symspmv::solver::CgConfig::default(),
//! );
//! assert!(res.converged);
//! ```

// The README's Rust blocks, compiled and run by `cargo test` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use symspmv_core as core;
pub use symspmv_csx as csx;
pub use symspmv_reorder as reorder;
pub use symspmv_runtime as runtime;
pub use symspmv_solver as solver;
pub use symspmv_sparse as sparse;
