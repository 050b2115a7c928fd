//! Differential conformance oracle (see `crates/harness/src/conformance.rs`
//! for the shared helpers and the class definitions).
//!
//! Sweeps the **full** cross product
//! `kind × format × nthreads × lanes × suite matrix` — the suite spans
//! `{symmetric, skew, structural}` — and compares every combination
//! against the per-kind serial SSS reference, per lane:
//!
//! * bitwise for the combinations proven to replay the reference's exact
//!   op order (`sss-eff`/`sss-idx` at one thread);
//! * within the documented `REL_TOL` everywhere else.
//!
//! A failing combination panics with a one-line minimal reproducer. A
//! final counter assertion pins the number of executed combinations to the
//! full cross product — the matrix cannot silently shrink (a skipped
//! combination is a failure, not a gap).

use symspmv_harness::conformance::{
    block_specs, build_block_kernel_kind, check_lane, full_suite, is_bitwise_class, repro_line,
    serial_reference_kind, ORACLE_LANES, ORACLE_THREADS,
};
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::VectorBlock;

const VEC_SEED: u64 = 1234;

/// The kind axis cannot silently shrink: the full suite covers every
/// symmetry kind, and its size is pinned so a dropped matrix fails loudly
/// (the per-test counter pins then scale from it).
#[test]
fn suite_spans_every_kind() {
    use symspmv_sparse::symmetry::SymmetryKind;
    let kinds: Vec<_> = full_suite().iter().map(|m| m.kind).collect();
    for k in SymmetryKind::ALL {
        assert!(kinds.contains(&k), "no suite matrix with kind {}", k.tag());
    }
    assert_eq!(full_suite().len(), 5);
}

/// The format axis cannot silently shrink either: its size is pinned, and
/// the reduction-free scheduled strategy must be on it (the per-test
/// counters scale from this length).
#[test]
fn format_axis_includes_scheduled_strategy() {
    let names: Vec<_> = block_specs().iter().map(|s| s.name()).collect();
    assert!(
        names.contains(&"sss-race"),
        "the sss-race axis is missing from the oracle"
    );
    assert_eq!(block_specs().len(), 8, "format axis silently shrank");
}

/// SpMV: every format × nthreads × matrix agrees with the serial SSS
/// reference on a seeded input vector.
#[test]
fn spmv_conforms_to_serial_reference() {
    let matrices = full_suite();
    let specs = block_specs();
    let mut executed = 0usize;
    for m in &matrices {
        let n = m.coo.nrows() as usize;
        let x = symspmv_sparse::dense::seeded_vector(n, VEC_SEED);
        let want = serial_reference_kind(&m.coo, m.kind, &x);
        for &p in &ORACLE_THREADS {
            let ctx = ExecutionContext::new(p);
            for &spec in &specs {
                let mut k = build_block_kernel_kind(spec, &m.coo, m.kind, &ctx)
                    .expect("suite matrices build in every format")
                    .expect("block_specs() only lists block-capable formats");
                let mut y = vec![f64::NAN; n];
                k.spmv(&x, &mut y);
                if let Err(why) = check_lane(&y, &want, is_bitwise_class(spec, p)) {
                    panic!(
                        "spmv conformance failure: {why}\n  {}",
                        repro_line(m, spec, p, 1, VEC_SEED)
                    );
                }
                executed += 1;
            }
        }
    }
    assert_eq!(
        executed,
        full_suite().len() * block_specs().len() * ORACLE_THREADS.len(),
        "conformance matrix silently shrank"
    );
}

/// SpMM: every format × nthreads × lanes × matrix agrees with the serial
/// SSS reference on every lane of a seeded block.
#[test]
fn spmm_conforms_to_serial_reference() {
    let matrices = full_suite();
    let specs = block_specs();
    let mut executed = 0usize;
    for m in &matrices {
        let n = m.coo.nrows() as usize;
        for &p in &ORACLE_THREADS {
            let ctx = ExecutionContext::new(p);
            for &spec in &specs {
                let mut k = build_block_kernel_kind(spec, &m.coo, m.kind, &ctx)
                    .expect("suite matrices build in every format")
                    .expect("block_specs() only lists block-capable formats");
                for &lanes in &ORACLE_LANES {
                    let x = VectorBlock::seeded(n, lanes, VEC_SEED);
                    let mut y = VectorBlock::zeros(n, lanes);
                    k.spmm(&x, &mut y);
                    for j in 0..lanes {
                        let want = serial_reference_kind(&m.coo, m.kind, &x.lane(j));
                        if let Err(why) = check_lane(&y.lane(j), &want, is_bitwise_class(spec, p)) {
                            panic!(
                                "spmm conformance failure on lane {j}: {why}\n  {}",
                                repro_line(m, spec, p, lanes, VEC_SEED)
                            );
                        }
                    }
                    executed += 1;
                }
            }
        }
    }
    assert_eq!(
        executed,
        full_suite().len() * block_specs().len() * ORACLE_THREADS.len() * ORACLE_LANES.len(),
        "conformance matrix silently shrank"
    );
}

/// Property: `spmm(k)` is bit-identical to `k` independent `spmv` calls on
/// the same context, for every block-capable format, lane by lane — no
/// tolerance arm: a kernel whose repeated calls differ fails the oracle.
#[test]
fn spmm_is_bitwise_k_spmv_calls() {
    let matrices = full_suite();
    let specs = block_specs();
    let mut executed = 0usize;
    for m in &matrices {
        let n = m.coo.nrows() as usize;
        for &p in &ORACLE_THREADS {
            let ctx = ExecutionContext::new(p);
            for &spec in &specs {
                let mut k = build_block_kernel_kind(spec, &m.coo, m.kind, &ctx)
                    .expect("suite matrices build in every format")
                    .expect("block_specs() only lists block-capable formats");
                for &lanes in &ORACLE_LANES {
                    let x = VectorBlock::seeded(n, lanes, VEC_SEED);
                    let mut y = VectorBlock::zeros(n, lanes);
                    k.spmm(&x, &mut y);
                    for j in 0..lanes {
                        let mut yj = vec![f64::NAN; n];
                        k.spmv(&x.lane(j), &mut yj);
                        let got = y.lane(j);
                        assert_eq!(
                            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            yj.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "spmm lane {j} is not bit-identical to spmv\n  {}",
                            repro_line(m, spec, p, lanes, VEC_SEED)
                        );
                    }
                    executed += 1;
                }
            }
        }
    }
    assert_eq!(
        executed,
        full_suite().len() * block_specs().len() * ORACLE_THREADS.len() * ORACLE_LANES.len(),
        "property matrix silently shrank"
    );
}
