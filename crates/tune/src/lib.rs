#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! Measurement-driven plan search and the persisted tuned-plan store
//! (DESIGN.md §18).
//!
//! The engine crates carry the *model* half of auto-tuning — the Eq. 1–2
//! size models, the Eq. 3–6 working-set models, and
//! [`symspmv_core::SymSpmv::auto`]'s cost-model fallback. This crate adds
//! the *empirical* half, OSKI-style:
//!
//! * [`search::tune_matrix`] prunes the `format × reduction strategy ×
//!   thread count × lane width` space with the cost model, measures the
//!   survivors with short timed runs on real pools, and returns the full
//!   search table plus a certified winner;
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
    auto_kernel, certify_spec, tune_and_store, tune_matrix, CandidateRow, Measurer, ModelMeasurer,
    TimedMeasurer, TuneOptions, TuneOutcome,
};
pub use store::{PlanStore, StoreKey, TunedPlan, PLAN_STORE_FILE, PLAN_STORE_VERSION};
