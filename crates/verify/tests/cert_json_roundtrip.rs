//! The workspace's JSON codec (audit findings, benchmark records) refuses
//! non-finite numbers in *both* directions: the writer will not emit what
//! the reader would not accept, so no stored document can carry a NaN or an
//! infinity.

use symspmv_verify::jsonio::Json;

#[test]
fn non_finite_numbers_rejected_on_parse() {
    let honest = r#"{"n":4096,"nthreads":4,"density":0.25}"#;
    assert!(
        Json::parse(honest).is_ok(),
        "the untampered document must parse"
    );
    for poison in ["NaN", "Infinity", "-Infinity", "1e999"] {
        let tampered = honest.replace("\"density\":", &format!("\"junk\":{poison},\"density\":"));
        assert_ne!(honest, tampered, "tamper target not found");
        assert!(Json::parse(&tampered).is_err(), "{poison} slipped through");
    }
}

#[test]
fn non_finite_numbers_rejected_on_write() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let doc = Json::Obj(vec![("density".to_string(), Json::Num(bad))]);
        assert!(doc.write().is_err(), "{bad} serialized");
    }
}
