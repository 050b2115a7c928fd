//! Golden float sequences for the solvers.
//!
//! `cg`, `pcg_jacobi`, `block_cg` and the degraded serial rerun all
//! instantiate one CG recurrence over one set of vector-op bodies; the unit
//! tests hold them to tolerances and to each other, but not to a fixed
//! association. This file does (the `tests/kernel_golden.rs` scheme): it
//! commits an FNV-1a hash of the final `x` bit patterns, the iteration
//! count(s) and the residual-norm bits for every entry point × `p ∈ {1, 2,
//! 3}` × two sizes straddling `vecops::PAR_THRESHOLD`, so both the serial and
//! the pool-parallel branch of every vector op are pinned. The degraded
//! rerun is forced the way `tests/resilience.rs` does it: a one-attempt
//! [`RetryPolicy`] and an injected worker death.
//!
//! A mismatch prints the whole table in source form, so a *deliberate*
//! change of association is re-pinned by pasting it — and shows up in review
//! as a diff of this file.

use std::sync::Arc;
use symspmv::core::{FallbackKernel, ReductionMethod, RetryPolicy, SymFormat, SymSpmv};
use symspmv::runtime::ExecutionContext;
use symspmv::solver::{
    block_cg, cg, diagonal_of, pcg_jacobi, resilient_cg, resilient_pcg_jacobi, vecops,
    BlockSolveOutcome, CgConfig, ServedSolve, SolveOutcome,
};
use symspmv::sparse::dense::seeded_vector;
use symspmv::sparse::symmetry::SymmetryKind;
use symspmv::sparse::{CooMatrix, VectorBlock};

const VEC_SEED: u64 = 1234;
const THREADS: [usize; 3] = [1, 2, 3];

/// One hash per entry point: `cg`, `pcg_jacobi`, `block_cg` at 2 and 4
/// lanes, then the degraded reruns of `resilient_cg` and
/// `resilient_pcg_jacobi`.
type Row = [u64; 6];

fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn hash_solve(x: &[f64], out: &SolveOutcome) -> u64 {
    let mut words = x.to_vec();
    words.push(out.iterations as f64);
    words.push(out.residual_norm);
    fnv1a(&words)
}

fn hash_block(x: &VectorBlock, out: &BlockSolveOutcome) -> u64 {
    let mut words = x.as_slice().to_vec();
    words.push(out.iterations as f64);
    for lane in &out.lanes {
        words.push(lane.iterations as f64);
        words.push(lane.residual_norm);
    }
    fnv1a(&words)
}

/// The hash of a solve that must have been served by the serial fallback.
fn hash_degraded(x: &[f64], served: ServedSolve<SolveOutcome>) -> u64 {
    assert!(served.is_fallback(), "the injected death must degrade");
    hash_solve(x, &served.outcome)
}

fn row(coo: &CooMatrix, p: usize, config: &CgConfig) -> Row {
    let n = coo.nrows() as usize;
    let b = seeded_vector(n, VEC_SEED);
    let diag = diagonal_of(coo);
    let ctx = ExecutionContext::new(p);
    let mut k = SymSpmv::from_coo(coo, &ctx, ReductionMethod::Indexing, SymFormat::Sss)
        .expect("golden matrices are symmetric");
    let mut fb = FallbackKernel::from_coo_kind(coo, SymmetryKind::Symmetric, Arc::clone(&ctx))
        .expect("golden matrices are symmetric");
    let once = RetryPolicy::new(1);
    let mut row: Row = [0; 6];

    let mut x = vec![0.0; n];
    let out = cg(&mut k, &b, &mut x, config);
    row[0] = hash_solve(&x, &out);

    x.fill(0.0);
    let out = pcg_jacobi(&mut k, &diag, &b, &mut x, config);
    row[1] = hash_solve(&x, &out);

    for (slot, lanes) in [(2, 2), (3, 4)] {
        let bb = VectorBlock::seeded(n, lanes, VEC_SEED);
        let mut xb = VectorBlock::zeros(n, lanes);
        let out = block_cg(&mut k, &bb, &mut xb, config);
        row[slot] = hash_block(&xb, &out);
    }

    x.fill(0.0);
    ctx.fault_plan().arm_worker_panic(0, 0);
    let served = resilient_cg(&mut k, &mut fb, &b, &mut x, config, &once, None)
        .expect("a worker death degrades, it does not fail");
    row[4] = hash_degraded(&x, served);

    x.fill(0.0);
    ctx.fault_plan().arm_worker_panic(0, 0);
    let served = resilient_pcg_jacobi(&mut k, &mut fb, &diag, &b, &mut x, config, &once, None)
        .expect("a worker death degrades, it does not fail");
    row[5] = hash_degraded(&x, served);
    row
}

fn computed() -> Vec<(String, Row)> {
    let small = symspmv::sparse::gen::banded_random(300, 15, 6.0, 11);
    let large = symspmv::sparse::gen::banded_random(17_000, 15, 6.0, 12);
    assert!((small.nrows() as usize) < vecops::PAR_THRESHOLD);
    assert!(large.nrows() as usize >= vecops::PAR_THRESHOLD);
    // The small system runs to convergence; the large one runs fixed work,
    // so both terminations are pinned and the debug-build run stays short.
    let to_tolerance = CgConfig {
        max_iters: 1500,
        rel_tol: 1e-9,
        record_history: false,
    };
    let fixed_work = CgConfig {
        max_iters: 60,
        rel_tol: 0.0,
        record_history: false,
    };
    let mut table = Vec::new();
    for (name, coo, config) in [
        (
            "gen::banded_random(300, 15, 6.0, 11)",
            &small,
            &to_tolerance,
        ),
        (
            "gen::banded_random(17_000, 15, 6.0, 12)",
            &large,
            &fixed_work,
        ),
    ] {
        for p in THREADS {
            table.push((format!("{name} p{p}"), row(coo, p, config)));
        }
    }
    table
}

#[test]
fn solver_float_sequences_match_the_committed_hashes() {
    let got = computed();
    let moved: Vec<&str> = got
        .iter()
        .zip(GOLDEN)
        .filter(|(g, w)| g.0 != w.0 || g.1 != w.1)
        .map(|(g, _)| g.0.as_str())
        .collect();
    if got.len() != GOLDEN.len() || !moved.is_empty() {
        let mut src = String::new();
        for (name, row) in &got {
            let hashes: Vec<String> = row.iter().map(|h| format!("{h:#018x}")).collect();
            src.push_str(&format!("    ({name:?}, [{}]),\n", hashes.join(", ")));
        }
        panic!("solver float sequences moved ({moved:?}); the computed table is:\n{src}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("gen::banded_random(300, 15, 6.0, 11) p1", [0xffc2f8a42585791f, 0x4421506d65e6e142, 0x7681168dc56d2e2f, 0x3cb1ec3b149e0da7, 0xffc2f8a42585791f, 0x4421506d65e6e142]),
    ("gen::banded_random(300, 15, 6.0, 11) p2", [0xe341ad36af212392, 0xa615616b86992210, 0xbd2299f153c39dd3, 0x180c43a84a2b8d30, 0xffc2f8a42585791f, 0x4421506d65e6e142]),
    ("gen::banded_random(300, 15, 6.0, 11) p3", [0xf8116ee7163cc867, 0x8d18ba1cecd92d78, 0x26c52c44b4f0faa6, 0xf3f0e1ba6f1ff0a5, 0xffc2f8a42585791f, 0x4421506d65e6e142]),
    ("gen::banded_random(17_000, 15, 6.0, 12) p1", [0x2c9237899f251abc, 0xaff12cced1f55342, 0x58dd4c37ddc28a4c, 0xb371565f29a952d1, 0x2c9237899f251abc, 0xaff12cced1f55342]),
    ("gen::banded_random(17_000, 15, 6.0, 12) p2", [0x509aac4d8d993dd1, 0xd3f239516d351a3f, 0x3de3257043c0812c, 0x279300314c620b65, 0x2c9237899f251abc, 0xaff12cced1f55342]),
    ("gen::banded_random(17_000, 15, 6.0, 12) p3", [0x4895e37b4c1c5786, 0x8976376b8ae76c8e, 0x1d8b3fa8417c479c, 0x390d7bebb4f5bb76, 0x2c9237899f251abc, 0xaff12cced1f55342]),
];
