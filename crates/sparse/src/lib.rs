#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! Sparse-matrix substrate for the `symspmv` workspace.
//!
//! This crate provides everything the paper's evaluation rests on *below*
//! the optimized kernels themselves:
//!
//! * the classic storage formats — [`coo::CooMatrix`], [`csr::CsrMatrix`]
//!   (Eq. 1 of the paper) and the Symmetric Sparse Skyline format
//!   [`sss::SssMatrix`] (Eq. 2), each with a serial SpMV reference kernel;
//! * MatrixMarket I/O ([`mm`]) so the real University-of-Florida matrices can
//!   be dropped in when available;
//! * deterministic synthetic generators ([`gen`]) and the 12-matrix
//!   paper-suite analogs ([`suite`]) used as the substitution for the UF
//!   collection (DESIGN.md, substitution S1);
//! * structural statistics ([`stats`]) — bandwidth, densities, row profiles —
//!   feeding Figures 4 and 5;
//! * permutations ([`perm`]) used by the RCM reordering experiments
//!   (Table III, Fig. 13).
//!
//! Index type is `u32` and values are `f64`, matching the paper's four-byte
//! indices and eight-byte floating-point values.

pub mod block;
pub mod cache;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod gen;
pub mod mm;
pub mod perm;
pub mod rng;
mod rowmajor;
pub mod sss;
pub mod stats;
pub mod suite;
pub mod symmetry;
pub mod validate;

pub use block::VectorBlock;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use error::SparseError;
pub use perm::Permutation;
pub use sss::SssMatrix;
pub use symmetry::{SymmetryKind, SymmetryOps};

/// Index type used across all formats (paper: four-byte indices).
pub type Idx = u32;

/// Non-zero value type (paper: double-precision floating point).
pub type Val = f64;
