#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! CSX — Compressed Sparse eXtended (§IV-A of the paper; Kourtis et al.,
//! PPoPP'11).
//!
//! CSX discards CSR's `rowptr`/`colind` arrays and instead stores all
//! location metadata in a variable-length byte stream (`ctl`) of *units*.
//! A unit is either a detected non-zero *substructure* — a row's run of up
//! to 255 small dense blocks of one shape, whose body holds the gaps between
//! their anchors, and which for square blocks may also carry its block row's
//! diagonal triangle — or a *delta unit* carrying column deltas of a fixed
//! byte width. Values are stored in a separate array in unit order.
//!
//! This crate implements:
//!
//! * [`varint`] — the variable-size integers used in unit heads;
//! * [`pattern`] — the 6-bit pattern-id space;
//! * [`rows`] — the borrowed sorted-row view every pass below runs on;
//! * [`detect`] — block detection by a merge of adjacent rows, with the
//!   sampling-based shape-selection pass the paper's §V-E relies on;
//! * [`encode`] — the `ctl` byte-stream builder, and the one unit-head
//!   decoder every consumer of a stream advances;
//! * [`matrix`] — [`matrix::CsxMatrix`], construction from COO or a row
//!   view, and the SpMV kernel.
//!
//! The original CSX JIT-compiles its kernels with LLVM; this implementation
//! selects, per unit head, one of a fixed set of kernels monomorphized ahead
//! of time over the unit's shape (DESIGN.md substitution S2).

pub mod detect;
pub mod encode;
pub mod matrix;
pub mod pattern;
pub mod rows;
pub mod varint;

pub use detect::DetectConfig;
pub use matrix::{CsxMatrix, CsxStats};
pub use pattern::PatternKind;

#[cfg(test)]
mod oracle;
