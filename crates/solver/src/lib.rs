#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! Iterative solver layer: the non-preconditioned Conjugate Gradient method
//! of §II-C / Alg. 1, used by the paper's end-to-end evaluation (§V-F,
//! Fig. 14).
//!
//! The solver is generic over the kernel interface
//! [`symspmv_core::ParallelSpmv`], so CSR, CSX, SSS (any reduction method)
//! and CSX-Sym all plug in unchanged, and it keeps the same per-phase
//! breakdown the paper charts: SpMV multiply, SpMV reduction, vector
//! operations, and format preprocessing.
//!
//! There is one CG loop (`cg::recurrence`, generic over a lane count):
//! [`cg()`], [`pcg_jacobi`], [`block_cg()`] and the degraded serial rerun of the
//! [`resilient`] wrappers are its instantiations, over the one body per
//! vector operation in [`vecops`].

pub mod block_cg;
pub mod cg;
pub mod pcg;
pub mod resilient;
pub mod vecops;

pub use block_cg::{block_cg, BlockSolveOutcome, LaneOutcome};
pub use cg::{cg, CgConfig, CgResult, SolveOutcome, SolveStatus};
pub use pcg::{diagonal_of, pcg_jacobi};
pub use resilient::{resilient_block_cg, resilient_cg, resilient_pcg_jacobi, ServedSolve};
