#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! Race certification for the symmetric SpMV kernels.
//!
//! The paper's symmetric kernels are race-free *by construction* — the
//! local-vectors method gives every thread a private landing zone for
//! transposed writes, and the reduction phase re-partitions the fold so no
//! output element is touched twice (§III). This crate turns that
//! construction argument into a machine-checked artifact, in three layers:
//!
//! 1. **Plan-time write-set verifier** ([`writeset`], [`csx_check`]) —
//!    computes each thread's exact write footprint per phase from the
//!    matrix structure and the partition plan, and proves disjointness,
//!    containment and coverage. The proof is a serializable
//!    [`RaceCertificate`] that `ExecutionContext` memoizes per
//!    (matrix fingerprint, nthreads, strategy) and kernels re-validate in
//!    debug builds before every dispatch.
//! 2. **Shadow-memory race detector** (`symspmv-runtime`'s `race` module,
//!    behind the `race-detector` feature) — dynamic cross-validation: the
//!    same corrupted plans the verifier rejects must also produce observed
//!    write-write collisions when actually dispatched.
//! 3. **Symbolic plan certifier** ([`symbolic`]) — re-derives the same
//!    certificates from an interval/congruence abstract domain plus
//!    structure axioms in `O(p + c)` instead of `O(nnz)`, pinned
//!    bit-for-bit against the enumerative checker by a differential
//!    suite, and discharges the
//!    [`certificate::ProofForm::ColoringDisjoint`] proof of the RACE
//!    group schedule from level/subcolor axioms.
//! 4. **Shadow-memory race detector** (`symspmv-runtime`'s `race` module,
//!    behind the `race-detector` feature) — dynamic cross-validation: the
//!    same corrupted plans the verifier rejects must also produce observed
//!    write-write collisions when actually dispatched.
//! 5. **Multi-rule lint engine** ([`rules`], [`audit`]) — token-level
//!    static checks over the workspace source: every `unsafe` block must
//!    carry a `SAFETY(cert: <invariant>)` comment naming an invariant the
//!    verifier establishes ([`audit::KNOWN_INVARIANTS`]), every pool-round
//!    loop must hit a supervision checkpoint, locks must follow the
//!    pool-before-health order, and every `Ordering::Relaxed` must justify
//!    itself with a `RELAXED(reason)` annotation.

pub mod audit;
pub mod certificate;
pub mod csx_check;
pub mod error;
pub mod jsonio;
pub mod rules;
pub mod symbolic;
pub mod writeset;

pub use certificate::{ProofForm, RaceCertificate};
pub use csx_check::{certify_csx_chunk, certify_csx_chunks};
pub use error::VerifyError;
pub use rules::{default_rules, run_rules, Finding, LintRule};
pub use symbolic::{
    certify_race_symbolic, certify_rows_symbolic, certify_sym_symbolic, lift_symbolic,
    ColoringFacts, StructureFacts,
};
pub use writeset::{
    certify_race, certify_rows, certify_sym, lift_sym_certificate, SymPlanRef, SymStrategyKind,
};
