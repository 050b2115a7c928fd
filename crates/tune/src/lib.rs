#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! Measurement-driven plan search and the persisted tuned-plan store
//! (DESIGN.md §18).
//!
//! [`symspmv_core::SymSpmv::auto`] builds the paper's default, `sss-idx`,
//! unless someone has measured something better. This crate is the
//! measuring:
//!
//! * [`search::tune_matrix`] times every buildable `format × reduction
//!   strategy` pair at every given thread count with short runs on real
//!   pools, and returns the full search table plus a certified winner;
//! * [`store::PlanStore`] persists winners as JSON keyed by `(matrix
//!   fingerprint, ncpus, machine model)` in a versioned file next to the
//!   binary matrix cache, and doubles as the
//!   [`symspmv_core::auto::PlanAdvisor`] that
//!   [`symspmv_core::SymSpmv::auto_with`] consults;
//! * [`search::auto_kernel`] is the `ParallelSpmv`-level auto
//!   constructor: matrix in, best-known kernel (own pool, tuned thread
//!   count) out;
//! * every plan passes the symbolic race certifier
//!   ([`search::certify_spec`]) before it is stored *or* served — an
//!   uncertified plan cannot exist in a store written by this crate, and
//!   a hand-edited one is refused on read.

pub mod machine;
pub mod search;
pub mod store;

pub use search::{
    auto_kernel, certify_spec, tune_and_store, tune_matrix, CandidateRow, Measurer, TimedMeasurer,
    TuneOutcome,
};
pub use store::{PlanStore, StoreKey, TunedPlan, PLAN_STORE_FILE, PLAN_STORE_VERSION};
