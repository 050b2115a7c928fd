//! Golden float sequences for the symmetric kernels.
//!
//! The conformance oracle holds `p > 1` to a tolerance and `spmm ≡ k × spmv`
//! holds by construction when both instantiate one kernel body — so neither
//! pins that a kernel rewrite kept each element's exact operation order.
//! This file does: it commits an FNV-1a hash of `y`'s bit patterns for every
//! conformance-suite matrix (plus a 3-dof block-structural one, the only
//! input that reaches the unrolled 3×3 CSX-Sym arm) × {`sss`, `csxsym`} ×
//! {`eff`, `idx`, and `race` on `sss`} × `p ∈ {1, 2, 3}` × `K ∈ {1, 4}`
//! lanes. The naive method is deliberately absent: it is held
//! to the oracle's tolerance class, not to a fixed association.
//!
//! A mismatch prints the whole table in source form, so a *deliberate*
//! change of association is re-pinned by pasting it — and shows up in review
//! as a diff of this file.

use symspmv_harness::conformance::{build_block_kernel_kind, full_suite, SuiteMatrix};
use symspmv_harness::kernels::KernelSpec;
use symspmv_runtime::ExecutionContext;
use symspmv_sparse::dense::seeded_vector;
use symspmv_sparse::symmetry::SymmetryKind;
use symspmv_sparse::VectorBlock;

const VEC_SEED: u64 = 4321;
const THREADS: [usize; 3] = [1, 2, 3];
const BLOCK_LANES: usize = 4;

/// Hashes per kernel, in `THREADS` order, each thread count contributing
/// its `spmv` hash and then its `BLOCK_LANES`-lane `spmm` hash.
type Row = [u64; 2 * THREADS.len()];

fn specs() -> Vec<KernelSpec> {
    use symspmv_core::ReductionMethod::{EffectiveRanges as Eff, Indexing as Idx, Race};
    vec![
        KernelSpec::Sss(Eff),
        KernelSpec::Sss(Idx),
        KernelSpec::Sss(Race),
        KernelSpec::CsxSym(Eff),
        KernelSpec::CsxSym(Idx),
    ]
}

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

fn computed() -> Vec<(String, Row)> {
    let mut table = Vec::new();
    let mut matrices = full_suite();
    matrices.push(SuiteMatrix {
        repro: "gen::block_structural(60, 3, 8.0, 12, 2)",
        seed: 2,
        kind: SymmetryKind::Symmetric,
        coo: symspmv_sparse::gen::block_structural(60, 3, 8.0, 12, 2),
    });
    for m in matrices {
        let n = m.coo.nrows() as usize;
        let x = seeded_vector(n, VEC_SEED);
        let xb = VectorBlock::seeded(n, BLOCK_LANES, VEC_SEED);
        for spec in specs() {
            let mut row: Row = [0; 2 * THREADS.len()];
            for (i, &p) in THREADS.iter().enumerate() {
                let ctx = ExecutionContext::new(p);
                let mut k = build_block_kernel_kind(spec, &m.coo, m.kind, &ctx)
                    .expect("suite matrices build in every format")
                    .expect("every golden spec has a block path");
                let mut y = vec![f64::NAN; n];
                k.spmv(&x, &mut y);
                row[2 * i] = fnv1a(&y);
                let mut yb = VectorBlock::zeros(n, BLOCK_LANES);
                k.spmm(&xb, &mut yb);
                row[2 * i + 1] = fnv1a(yb.as_slice());
            }
            table.push((format!("{} {}", m.repro, spec.name()), row));
        }
    }
    table
}

#[test]
fn kernel_float_sequences_match_the_committed_hashes() {
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
        panic!("kernel float sequences moved ({moved:?}); the computed table is:\n{src}");
    }
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Row)] = &[
    ("gen::banded_random(257, 16, 6.0, 91) sss-eff", [0x99611d62faa9fc79, 0x1e0271d366055df7, 0x2ab5346629af3f9f, 0xb7d2e03bfd0cbba8, 0x54c74b526a941037, 0xa749f68ab868869e]),
    ("gen::banded_random(257, 16, 6.0, 91) sss-idx", [0x99611d62faa9fc79, 0x1e0271d366055df7, 0x2ab5346629af3f9f, 0xb7d2e03bfd0cbba8, 0x54c74b526a941037, 0xa749f68ab868869e]),
    ("gen::banded_random(257, 16, 6.0, 91) sss-race", [0xed773a60524f7fe7, 0xc927ee54e88e70ef, 0xed773a60524f7fe7, 0xc927ee54e88e70ef, 0xed773a60524f7fe7, 0xc927ee54e88e70ef]),
    ("gen::banded_random(257, 16, 6.0, 91) csxsym-eff", [0x99611d62faa9fc79, 0x1e0271d366055df7, 0x2ab5346629af3f9f, 0xb7d2e03bfd0cbba8, 0xbaddcb3d8b1b9601, 0xbc1a1e5c2e549bab]),
    ("gen::banded_random(257, 16, 6.0, 91) csxsym-idx", [0x99611d62faa9fc79, 0x1e0271d366055df7, 0x2ab5346629af3f9f, 0xb7d2e03bfd0cbba8, 0xbaddcb3d8b1b9601, 0xbc1a1e5c2e549bab]),
    ("gen::mixed_bandwidth(301, 7.0, 0.3, 5, 92) sss-eff", [0x5b7e6ceb70c6570d, 0x711d78d6741edf46, 0xa2c592bfab4f3a28, 0x71351abf2f430f92, 0x5949afaf7247ae8d, 0x6349d2ac5329e250]),
    ("gen::mixed_bandwidth(301, 7.0, 0.3, 5, 92) sss-idx", [0x5b7e6ceb70c6570d, 0x711d78d6741edf46, 0xa2c592bfab4f3a28, 0x71351abf2f430f92, 0x5949afaf7247ae8d, 0x6349d2ac5329e250]),
    ("gen::mixed_bandwidth(301, 7.0, 0.3, 5, 92) sss-race", [0x97aa7dc671a5daaa, 0x761074990127c0a3, 0x97aa7dc671a5daaa, 0x761074990127c0a3, 0x97aa7dc671a5daaa, 0x761074990127c0a3]),
    ("gen::mixed_bandwidth(301, 7.0, 0.3, 5, 92) csxsym-eff", [0x1c84c24d8ca9207c, 0x9bd0ae5e706505cf, 0x4a27682d2fa5e588, 0xb711d4ae68dbf81e, 0x8b1777d26303db15, 0xb3dfa39d29550ef4]),
    ("gen::mixed_bandwidth(301, 7.0, 0.3, 5, 92) csxsym-idx", [0x1c84c24d8ca9207c, 0x9bd0ae5e706505cf, 0x4a27682d2fa5e588, 0xb711d4ae68dbf81e, 0x8b1777d26303db15, 0xb3dfa39d29550ef4]),
    ("gen::laplacian_2d(18, 18) sss-eff", [0xb1918554576bdc58, 0x7aae333720bcb6f3, 0xb1918554576bdc58, 0x7aae333720bcb6f3, 0xb1918554576bdc58, 0x7aae333720bcb6f3]),
    ("gen::laplacian_2d(18, 18) sss-idx", [0xb1918554576bdc58, 0x7aae333720bcb6f3, 0xb1918554576bdc58, 0x7aae333720bcb6f3, 0xb1918554576bdc58, 0x7aae333720bcb6f3]),
    ("gen::laplacian_2d(18, 18) sss-race", [0x15f03cfd26f62547, 0x6fcf31807b7dde0b, 0x15f03cfd26f62547, 0x6fcf31807b7dde0b, 0x15f03cfd26f62547, 0x6fcf31807b7dde0b]),
    ("gen::laplacian_2d(18, 18) csxsym-eff", [0x875fb00036bb3573, 0xb7c58cfca08f5c29, 0xeebcab99b044d5cf, 0x9ef7189d032422cd, 0x3d453ebf2ece5405, 0xd5affb46a21a99c9]),
    ("gen::laplacian_2d(18, 18) csxsym-idx", [0x875fb00036bb3573, 0xb7c58cfca08f5c29, 0xeebcab99b044d5cf, 0x9ef7189d032422cd, 0x3d453ebf2ece5405, 0xd5affb46a21a99c9]),
    ("gen::skew_convection(240, 11, 5.0, 93) sss-eff", [0x49de640994c13f1a, 0x3751e7256872791a, 0x49de640994c13f1a, 0x58ceb43ac70885e3, 0x206e84898778b846, 0xa0400060d3913b9a]),
    ("gen::skew_convection(240, 11, 5.0, 93) sss-idx", [0x49de640994c13f1a, 0x3751e7256872791a, 0x49de640994c13f1a, 0x58ceb43ac70885e3, 0x206e84898778b846, 0xa0400060d3913b9a]),
    ("gen::skew_convection(240, 11, 5.0, 93) sss-race", [0x84955388a0a1c25f, 0x3014de7786715913, 0x84955388a0a1c25f, 0x3014de7786715913, 0x84955388a0a1c25f, 0x3014de7786715913]),
    ("gen::skew_convection(240, 11, 5.0, 93) csxsym-eff", [0x49de640994c13f1a, 0x3751e7256872791a, 0x9c3d2e8c6b11beac, 0xa837fd65fea373a7, 0x408e673002b0d0b3, 0x461bc1a4bce7f323]),
    ("gen::skew_convection(240, 11, 5.0, 93) csxsym-idx", [0x49de640994c13f1a, 0x3751e7256872791a, 0x9c3d2e8c6b11beac, 0xa837fd65fea373a7, 0x408e673002b0d0b3, 0x461bc1a4bce7f323]),
    ("gen::structural_random(263, 6.0, 0.4, 6, 94) sss-eff", [0x69a055c92a46029b, 0x08ed2930a5051afc, 0x58f3e3bfe4fd2fe0, 0xee24e0dbbddb3dab, 0x6dec4819ae17c8d1, 0xc105327c09749710]),
    ("gen::structural_random(263, 6.0, 0.4, 6, 94) sss-idx", [0x69a055c92a46029b, 0x08ed2930a5051afc, 0x58f3e3bfe4fd2fe0, 0xee24e0dbbddb3dab, 0x6dec4819ae17c8d1, 0xc105327c09749710]),
    ("gen::structural_random(263, 6.0, 0.4, 6, 94) sss-race", [0xab83c9fd03ae301d, 0x4958af5500a03fe9, 0xab83c9fd03ae301d, 0x4958af5500a03fe9, 0xab83c9fd03ae301d, 0x4958af5500a03fe9]),
    ("gen::structural_random(263, 6.0, 0.4, 6, 94) csxsym-eff", [0x69a055c92a46029b, 0x08ed2930a5051afc, 0x58f3e3bfe4fd2fe0, 0xee24e0dbbddb3dab, 0x6dec4819ae17c8d1, 0xc105327c09749710]),
    ("gen::structural_random(263, 6.0, 0.4, 6, 94) csxsym-idx", [0x69a055c92a46029b, 0x08ed2930a5051afc, 0x58f3e3bfe4fd2fe0, 0xee24e0dbbddb3dab, 0x6dec4819ae17c8d1, 0xc105327c09749710]),
    ("gen::block_structural(60, 3, 8.0, 12, 2) sss-eff", [0x563079fbdf40e58e, 0xa5a917a298863757, 0x602db46a299facc7, 0xd2512dc1eb90ff10, 0xa45759d1f1e24339, 0xcd8771f797cf197f]),
    ("gen::block_structural(60, 3, 8.0, 12, 2) sss-idx", [0x563079fbdf40e58e, 0xa5a917a298863757, 0x602db46a299facc7, 0xd2512dc1eb90ff10, 0xa45759d1f1e24339, 0xcd8771f797cf197f]),
    ("gen::block_structural(60, 3, 8.0, 12, 2) sss-race", [0x7701172c0414b82a, 0xe83c251cddd86bb4, 0x7701172c0414b82a, 0xe83c251cddd86bb4, 0x7701172c0414b82a, 0xe83c251cddd86bb4]),
    ("gen::block_structural(60, 3, 8.0, 12, 2) csxsym-eff", [0xa52720a8d28a057a, 0xb20187e8b6e67d36, 0xa1f9e518ce49d417, 0x77c4a098c4f39dcf, 0xcc641b715fd3ebb6, 0x54f869670aad51df]),
    ("gen::block_structural(60, 3, 8.0, 12, 2) csxsym-idx", [0xa52720a8d28a057a, 0xb20187e8b6e67d36, 0xa1f9e518ce49d417, 0x77c4a098c4f39dcf, 0xcc641b715fd3ebb6, 0x54f869670aad51df]),
];
