//! The serializable proof object emitted by the write-set verifier.
//!
//! A [`RaceCertificate`] records *what was proved about which
//! configuration*: the structural fingerprint of the matrix, the thread
//! count and strategy the plan was computed for, the invariants that were
//! established, and the footprint statistics (direct rows, effective-region
//! elements, conflict entries) the proofs rest on. `ExecutionContext`
//! memoizes certificates next to the plans they certify, and kernels assert
//! [`RaceCertificate::validate_for`] in debug builds before dispatch — a
//! certificate reused after renumbering, or across a thread-count or
//! strategy switch, is rejected as [`VerifyError::StaleCertificate`].
//!
//! The interchange format is JSON through [`crate::jsonio`] (std-only, no
//! serde): stable field order on write, order-insensitive on read.

use crate::error::VerifyError;
use crate::jsonio::Json;

/// How a certificate's obligations were discharged.
///
/// The *claims* of a certificate are identical across proof forms — the
/// differential suite pins the symbolic certifier bit-for-bit against the
/// enumerative one — but the form records which argument was run, so a
/// cached certificate can say whether re-validation costs `O(nnz)` or
/// `O(p)`, and so coloring certificates can carry the symbolic spacing
/// theorem their scheduler needs.
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

impl ProofForm {
    /// The serialization tag (`enumerative`, `symbolic`,
    /// `coloring-disjoint:<stride>:<reach>`).
    pub fn tag(&self) -> String {
        match self {
            ProofForm::Enumerative => "enumerative".to_string(),
            ProofForm::Symbolic => "symbolic".to_string(),
            ProofForm::ColoringDisjoint { stride, reach } => {
                format!("coloring-disjoint:{stride}:{reach}")
            }
        }
    }

    /// Parses a serialization tag; unknown tags are rejected.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "enumerative" => Some(ProofForm::Enumerative),
            "symbolic" => Some(ProofForm::Symbolic),
            _ => {
                let rest = tag.strip_prefix("coloring-disjoint:")?;
                let (stride, reach) = rest.split_once(':')?;
                Some(ProofForm::ColoringDisjoint {
                    stride: stride.parse().ok()?,
                    reach: reach.parse().ok()?,
                })
            }
        }
    }
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

    /// Serializes to JSON (schema `race-v1`): every field plus
    /// the derived `density`, which [`RaceCertificate::from_json`]
    /// cross-validates on read. Fingerprints are hex strings (JSON numbers
    /// lose 64-bit integer precision); the proof form is its tag.
    pub fn to_json(&self) -> Result<String, VerifyError> {
        let obj = Json::Obj(vec![
            ("certificate".to_string(), Json::Str("race-v1".to_string())),
            (
                "fingerprint".to_string(),
                Json::Str(format!("{:#018x}", self.fingerprint)),
            ),
            ("n".to_string(), Json::Num(self.n as f64)),
            ("nthreads".to_string(), Json::Num(self.nthreads as f64)),
            ("family".to_string(), Json::Str(self.family.clone())),
            ("strategy".to_string(), Json::Str(self.strategy.clone())),
            ("symmetry".to_string(), Json::Str(self.symmetry.clone())),
            (
                "invariants".to_string(),
                Json::Arr(
                    self.invariants
                        .iter()
                        .map(|i| Json::Str(i.clone()))
                        .collect(),
                ),
            ),
            (
                "direct_rows".to_string(),
                Json::Num(self.direct_rows as f64),
            ),
            (
                "local_elems".to_string(),
                Json::Num(self.local_elems as f64),
            ),
            (
                "conflict_entries".to_string(),
                Json::Num(self.conflict_entries as f64),
            ),
            ("lanes".to_string(), Json::Num(self.lanes as f64)),
            ("proof".to_string(), Json::Str(self.proof.tag())),
            ("density".to_string(), Json::Num(self.density())),
        ]);
        obj.write().map_err(|reason| VerifyError::MalformedPlan {
            reason: format!("certificate JSON write: {reason}"),
        })
    }

    /// Parses the JSON produced by [`RaceCertificate::to_json`]. Rejects
    /// unknown keys, unknown proof tags, non-integral counts, NaN/infinite
    /// numbers (the parser refuses them token-level) and a `density` that
    /// disagrees with the recomputed ratio.
    pub fn from_json(text: &str) -> Result<Self, VerifyError> {
        let json = Json::parse(text).map_err(|reason| VerifyError::MalformedPlan {
            reason: format!("certificate JSON: {reason}"),
        })?;
        let Json::Obj(fields) = json else {
            return Err(VerifyError::MalformedPlan {
                reason: "certificate JSON is not an object".to_string(),
            });
        };
        let bad = |key: &str, why: &str| VerifyError::MalformedPlan {
            reason: format!("certificate JSON key `{key}`: {why}"),
        };
        let as_count = |key: &str, v: &Json| -> Result<usize, VerifyError> {
            match v {
                Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= u64::MAX as f64 => {
                    Ok(*x as usize)
                }
                _ => Err(bad(key, "expected a non-negative integer")),
            }
        };
        let as_str = |key: &str, v: &Json| -> Result<String, VerifyError> {
            match v {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(bad(key, "expected a string")),
            }
        };
        let mut cert = RaceCertificate {
            fingerprint: 0,
            n: 0,
            nthreads: 0,
            family: String::new(),
            strategy: String::new(),
            symmetry: "symmetric".to_string(),
            invariants: Vec::new(),
            direct_rows: 0,
            local_elems: 0,
            conflict_entries: 0,
            lanes: 1,
            proof: ProofForm::Enumerative,
        };
        let mut header_seen = false;
        let mut declared_density: Option<f64> = None;
        for (key, value) in &fields {
            match key.as_str() {
                "certificate" => {
                    if as_str(key, value)? != "race-v1" {
                        return Err(bad(key, "unknown schema version"));
                    }
                    header_seen = true;
                }
                "fingerprint" => {
                    let hex = as_str(key, value)?;
                    let hex = hex.trim_start_matches("0x");
                    cert.fingerprint = u64::from_str_radix(hex, 16)
                        .map_err(|_| bad(key, "expected a hex string"))?;
                }
                "n" => cert.n = as_count(key, value)?,
                "nthreads" => cert.nthreads = as_count(key, value)?,
                "family" => cert.family = as_str(key, value)?,
                "strategy" => cert.strategy = as_str(key, value)?,
                "symmetry" => cert.symmetry = as_str(key, value)?,
                "invariants" => {
                    let Json::Arr(items) = value else {
                        return Err(bad(key, "expected an array"));
                    };
                    cert.invariants = items
                        .iter()
                        .map(|i| as_str(key, i))
                        .collect::<Result<_, _>>()?;
                }
                "direct_rows" => cert.direct_rows = as_count(key, value)?,
                "local_elems" => cert.local_elems = as_count(key, value)?,
                "conflict_entries" => cert.conflict_entries = as_count(key, value)?,
                "lanes" => cert.lanes = as_count(key, value)?,
                "proof" => {
                    let tag = as_str(key, value)?;
                    cert.proof =
                        ProofForm::from_tag(&tag).ok_or_else(|| bad(key, "unknown proof tag"))?;
                }
                "density" => match value {
                    Json::Num(x) => declared_density = Some(*x),
                    _ => return Err(bad(key, "expected a number")),
                },
                _ => return Err(bad(key, "unknown key")),
            }
        }
        if !header_seen {
            return Err(VerifyError::MalformedPlan {
                reason: "certificate JSON missing `certificate: race-v1`".to_string(),
            });
        }
        if let Some(d) = declared_density {
            if (d - cert.density()).abs() > 1e-12 {
                return Err(VerifyError::MalformedPlan {
                    reason: format!(
                        "certificate JSON density {d} disagrees with recomputed {}",
                        cert.density()
                    ),
                });
            }
        }
        Ok(cert)
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
