//! Seeded property test for the certificate JSON interchange format:
//! every generated certificate — across all proof forms, symmetry tags
//! and counter magnitudes — must survive `to_json` → `from_json` exactly,
//! and the deserializer must reject non-finite numbers, unknown proof
//! tags, unknown keys and density tampering in *both* directions (the
//! writer refuses to emit what the reader refuses to accept).

use symspmv_verify::jsonio::Json;
use symspmv_verify::{ProofForm, RaceCertificate, VerifyError};

/// Deterministic xorshift64* — the property sweep is seeded, not flaky.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

fn arbitrary_certificate(rng: &mut Rng) -> RaceCertificate {
    let families = ["sym-sss", "sym-csx", "csr"];
    let strategies = ["", "naive", "eff", "idx"];
    let symmetries = ["none", "symmetric", "skew", "structural"];
    let invariant_pool = [
        "disjoint-direct",
        "reduction-slice",
        "idx-coverage",
        "lane-lifted",
        "skew-zero-diagonal",
        "structural-paired",
        "color-class",
        "coloring-disjoint",
        "csx-boundary",
    ];
    let n = rng.below(1 << 20) as usize + 1;
    let proofs = [
        ProofForm::Enumerative,
        ProofForm::Symbolic,
        ProofForm::ColoringDisjoint {
            stride: rng.below(512) as u32 + 1,
            reach: rng.below(512) as u32,
        },
    ];
    let mut invariants: Vec<String> = Vec::new();
    for inv in invariant_pool {
        if rng.below(3) == 0 {
            invariants.push(inv.to_string());
        }
    }
    if invariants.is_empty() {
        invariants.push("disjoint-direct".to_string());
    }
    RaceCertificate {
        fingerprint: rng.next(),
        n,
        nthreads: rng.below(64) as usize,
        family: families[rng.below(families.len() as u64) as usize].to_string(),
        strategy: strategies[rng.below(strategies.len() as u64) as usize].to_string(),
        symmetry: symmetries[rng.below(symmetries.len() as u64) as usize].to_string(),
        invariants,
        direct_rows: rng.below(n as u64) as usize,
        local_elems: rng.below(1 << 24) as usize,
        conflict_entries: rng.below(1 << 16) as usize,
        lanes: *rng.pick(&[1usize, 2, 4, 8, 16]),
        proof: *rng.pick(&proofs),
    }
}

#[test]
fn random_certificates_round_trip_exactly() {
    let mut rng = Rng(0x5EED_CAB1E5_u64);
    let mut coloring_seen = false;
    for case in 0..500 {
        let cert = arbitrary_certificate(&mut rng);
        coloring_seen |= matches!(cert.proof, ProofForm::ColoringDisjoint { .. });
        let text = cert
            .to_json()
            .unwrap_or_else(|e| panic!("case {case}: serialization failed: {e}"));
        let parsed = RaceCertificate::from_json(&text)
            .unwrap_or_else(|e| panic!("case {case}: parse failed: {e}\n{text}"));
        assert_eq!(parsed, cert, "case {case} diverged\n{text}");
    }
    assert!(
        coloring_seen,
        "the sweep must exercise the ColoringDisjoint proof form"
    );
}

fn sample() -> RaceCertificate {
    arbitrary_certificate(&mut Rng(42))
}

#[test]
fn unknown_proof_tag_rejected_both_ways() {
    let cert = sample();
    let text = cert.to_json().unwrap();
    let tampered = text.replace(
        &format!("\"proof\":\"{}\"", cert.proof.tag()),
        "\"proof\":\"vibes\"",
    );
    assert_ne!(text, tampered, "tamper target not found");
    let err = RaceCertificate::from_json(&tampered).unwrap_err();
    assert!(matches!(err, VerifyError::MalformedPlan { .. }), "{err:?}");
}

#[test]
fn non_finite_numbers_rejected_on_parse() {
    let cert = sample();
    let text = cert.to_json().unwrap();
    for poison in ["NaN", "Infinity", "-Infinity", "1e999"] {
        let tampered = text.replace("\"density\":", &format!("\"junk\":{poison},\"density\":"));
        let err = RaceCertificate::from_json(&tampered).unwrap_err();
        assert!(
            matches!(err, VerifyError::MalformedPlan { .. }),
            "{poison} slipped through: {err:?}"
        );
    }
}

#[test]
fn non_finite_numbers_rejected_on_write() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let doc = Json::Obj(vec![("density".to_string(), Json::Num(bad))]);
        assert!(doc.write().is_err(), "{bad} serialized");
    }
}

#[test]
fn density_tampering_rejected() {
    let mut cert = sample();
    cert.local_elems = 1000;
    cert.conflict_entries = 250;
    let text = cert.to_json().unwrap();
    let honest = format!("\"density\":{}", cert.density());
    assert!(text.contains(&honest), "{text}");
    let tampered = text.replace(&honest, "\"density\":0.75");
    let err = RaceCertificate::from_json(&tampered).unwrap_err();
    assert!(matches!(err, VerifyError::MalformedPlan { .. }), "{err:?}");
}

#[test]
fn unknown_keys_and_wrong_header_rejected() {
    let cert = sample();
    let text = cert.to_json().unwrap();
    let extra = text.replacen('{', "{\"surprise\":1,", 1);
    assert!(RaceCertificate::from_json(&extra).is_err());
    let wrong = text.replace("race-v1", "race-v9");
    assert!(RaceCertificate::from_json(&wrong).is_err());
}

#[test]
fn negative_and_fractional_counts_rejected() {
    let cert = sample();
    let text = cert.to_json().unwrap();
    let lanes = format!("\"lanes\":{}", cert.lanes);
    for bad in ["\"lanes\":-2", "\"lanes\":2.5"] {
        let tampered = text.replace(&lanes, bad);
        assert_ne!(text, tampered);
        assert!(
            RaceCertificate::from_json(&tampered).is_err(),
            "{bad} accepted"
        );
    }
}
