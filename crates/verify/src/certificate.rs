//! The proof object the certifiers emit.
//!
//! A [`RaceCertificate`] records *what was proved about which
//! configuration*: the structural fingerprint of the matrix, the thread
//! count and strategy the plan was computed for, the invariants that were
//! established, and the footprint statistics (direct rows, effective-region
//! elements, conflict entries) the proofs rest on. Each kernel build
//! derives its plan and the plan's certificate, and kernels assert
//! [`RaceCertificate::validate_for`] in debug builds before dispatch — a
//! certificate reused after renumbering, or across a thread-count or
//! strategy switch, is rejected as [`VerifyError::StaleCertificate`].
//!
//! A certificate never leaves memory: it is minted with its plan and lives
//! as long as the plan does. Nothing serializes one, and nothing re-proves
//! a plan from a stored claim.

use crate::error::VerifyError;

/// How a certificate's obligations were discharged.
///
/// The *claims* of a certificate are identical across proof forms — the
/// differential suite pins the symbolic certifier bit-for-bit against the
/// enumerative one — but the form records which argument was run: plans
/// carry symbolic or coloring certificates, the enumerative form is the
/// write-set oracle's, and a coloring certificate carries the spacing
/// theorem its scheduler needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProofForm {
    /// Exhaustive write-set enumeration (`crate::writeset`), `O(nnz)`.
    #[default]
    Enumerative,
    /// Interval/congruence abstract interpretation (`crate::symbolic`),
    /// `O(p + c)`.
    Symbolic,
    /// The RACE group schedule's coloring argument: same-group rows are
    /// more than `reach` graph hops apart, so their write sets are
    /// disjoint and each of the `stride` groups runs barrier-free.
    ColoringDisjoint {
        /// The number of color groups.
        stride: u32,
        /// The graph distance the coloring separates same-group rows by.
        reach: u32,
    },
}

/// A machine-checked proof that one (matrix, nthreads, strategy) plan is
/// free of write-write races.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceCertificate {
    /// Structural fingerprint of the matrix the plan was verified against.
    pub fingerprint: u64,
    /// Matrix dimension.
    pub n: usize,
    /// Thread count the plan partitions for.
    pub nthreads: usize,
    /// Kernel family (`"sym-sss"`, `"csx-sym"`, `"rows"`…).
    pub family: String,
    /// Reduction strategy tag (`"naive"`, `"eff"`, `"idx"`; empty when the
    /// family has no strategy dimension).
    pub strategy: String,
    /// Symmetry-kind tag of the mirror writes the proof covers
    /// (`"symmetric"`, `"skew"`, `"structural"`; `"none"` for row-parallel
    /// kernels without transposed writes). The write sets themselves are
    /// kind-independent — the kind enters only through side conditions
    /// (zero diagonal for skew, paired upper array for structural).
    pub symmetry: String,
    /// Names of the certificate invariants established by the verifier —
    /// the same names `SAFETY(cert: …)` annotations reference.
    pub invariants: Vec<String>,
    /// Rows covered by direct (in-partition) writes.
    pub direct_rows: usize,
    /// Total elements of the declared local/effective regions, `Σ start_i`
    /// for the effective layouts (the working-set term of Eqs. 3–6).
    pub local_elems: usize,
    /// Distinct conflicting entries across all threads (the `(vid, idx)`
    /// index size for the indexing strategy).
    pub conflict_entries: usize,
    /// Right-hand-side lanes the certified write sets cover: `1` for a
    /// scalar SpMV plan; `k` for a block (SpMM) plan lane-lifted from a
    /// scalar proof (see `lift_sym_certificate`). Footprint statistics
    /// (`local_elems`, `conflict_entries`) are in lane-scaled elements.
    pub lanes: usize,
    /// How the obligations were discharged (enumeration, abstract
    /// interpretation, or the coloring spacing theorem).
    pub proof: ProofForm,
}

impl RaceCertificate {
    /// Effective-region density `d` (Fig. 4): conflicting entries over
    /// total effective-region length. Matches
    /// `ConflictIndex::density` exactly — both are the same integer ratio.
    pub fn density(&self) -> f64 {
        if self.local_elems == 0 {
            0.0
        } else {
            self.conflict_entries as f64 / self.local_elems as f64
        }
    }

    /// Whether the certificate names `invariant` among its proofs.
    pub fn proves(&self, invariant: &str) -> bool {
        self.invariants.iter().any(|i| i == invariant)
    }

    /// Checks that this certificate describes exactly the configuration
    /// about to be dispatched.
    pub fn validate_for(
        &self,
        fingerprint: u64,
        nthreads: usize,
        family: &str,
        strategy: &str,
    ) -> Result<(), VerifyError> {
        if self.fingerprint != fingerprint {
            return Err(VerifyError::StaleCertificate {
                field: "fingerprint",
                expected: self.fingerprint,
                actual: fingerprint,
            });
        }
        if self.nthreads != nthreads {
            return Err(VerifyError::StaleCertificate {
                field: "nthreads",
                expected: self.nthreads as u64,
                actual: nthreads as u64,
            });
        }
        if self.family != family {
            return Err(VerifyError::StaleCertificate {
                field: "family",
                expected: str_tag(&self.family),
                actual: str_tag(family),
            });
        }
        if self.strategy != strategy {
            return Err(VerifyError::StaleCertificate {
                field: "strategy",
                expected: str_tag(&self.strategy),
                actual: str_tag(strategy),
            });
        }
        Ok(())
    }
}

/// A short stable tag of a string for [`VerifyError::StaleCertificate`]'s
/// numeric expected/actual slots (FNV-1a, like the matrix fingerprint).
fn str_tag(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RaceCertificate {
        RaceCertificate {
            fingerprint: 0xdead_beef_1234_5678,
            n: 1024,
            nthreads: 4,
            family: "sym-sss".to_string(),
            strategy: "idx".to_string(),
            symmetry: "symmetric".to_string(),
            invariants: vec![
                "disjoint-direct".to_string(),
                "effective-region".to_string(),
                "reduction-slice".to_string(),
            ],
            direct_rows: 1024,
            local_elems: 1536,
            conflict_entries: 96,
            lanes: 1,
            proof: ProofForm::Symbolic,
        }
    }

    #[test]
    fn validate_rejects_every_mismatch_dimension() {
        let cert = sample();
        assert!(cert
            .validate_for(cert.fingerprint, 4, "sym-sss", "idx")
            .is_ok());
        assert!(matches!(
            cert.validate_for(1, 4, "sym-sss", "idx"),
            Err(VerifyError::StaleCertificate {
                field: "fingerprint",
                ..
            })
        ));
        assert!(matches!(
            cert.validate_for(cert.fingerprint, 8, "sym-sss", "idx"),
            Err(VerifyError::StaleCertificate {
                field: "nthreads",
                ..
            })
        ));
        assert!(matches!(
            cert.validate_for(cert.fingerprint, 4, "csx-sym", "idx"),
            Err(VerifyError::StaleCertificate {
                field: "family",
                ..
            })
        ));
        assert!(matches!(
            cert.validate_for(cert.fingerprint, 4, "sym-sss", "eff"),
            Err(VerifyError::StaleCertificate {
                field: "strategy",
                ..
            })
        ));
    }
}
