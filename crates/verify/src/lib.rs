#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

//! Race certification for the symmetric SpMV kernels.
//!
//! The paper's symmetric kernels are race-free *by construction* — the
//! local-vectors method gives every thread a private landing zone for
//! transposed writes, and the reduction phase re-partitions the fold so no
//! output element is touched twice (§III). This crate turns that
//! construction argument into a machine-checked artifact, in four layers:
//!
//! 1. **Symbolic plan certifier** ([`symbolic`]) — what the library runs.
//!    It derives an in-memory [`RaceCertificate`] from an
//!    interval/congruence abstract domain plus structure axioms in
//!    `O(p + c)` instead of `O(nnz)`, once per plan: `ExecutionContext`
//!    memoizes the plan and its certificate per (matrix fingerprint,
//!    nthreads, strategy), and kernels re-validate it in debug builds
//!    before every dispatch (lane-lifted for a block call). It also
//!    discharges the [`certificate::ProofForm::ColoringDisjoint`] proof of
//!    the RACE group schedule from level/subcolor axioms, and
//!    [`csx_check`] certifies the CSX-Sym boundary rule per encoded chunk.
//! 2. **Enumerative write-set verifier** ([`writeset`]) — the differential
//!    oracle. It computes each thread's exact write footprint per phase
//!    from the matrix structure and the plan and proves disjointness,
//!    containment and coverage by walking every write. The tests compare
//!    every certificate the symbolic path mints against it, bit for bit;
//!    the library's one call is the debug-build cross-check of the RACE
//!    schedule ([`certify_race`]).
//! 3. **Shadow-memory race detector** (`symspmv-runtime`'s `race` module,
//!    behind the `race-detector` feature) — dynamic cross-validation: the
//!    same corrupted plans the verifier rejects must also produce observed
//!    write-write collisions when actually dispatched.
//! 4. **Multi-rule lint engine** ([`rules`], [`audit`]) — one walk of the
//!    workspace source and one closed table of token-level rules: every
//!    `unsafe` block must carry a `SAFETY(cert: <invariant>)` comment
//!    naming an invariant the verifier establishes
//!    ([`audit::KNOWN_INVARIANTS`]), every pool-round loop must hit a
//!    supervision checkpoint, locks must follow the pool-before-health
//!    order, and every `Ordering::Relaxed` must justify itself with a
//!    `RELAXED(reason)` annotation.

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
pub use rules::{run_rules, Analysis, Finding, Rule};
pub use symbolic::{
    certify_race_symbolic, certify_rows_symbolic, certify_sym_symbolic, lift_symbolic,
    ColoringFacts, StructureFacts,
};
pub use writeset::{
    certify_race, certify_rows, certify_sym, lift_sym_certificate, SymPlanRef, SymStrategyKind,
};
