//! Deterministic synthetic matrix generators.
//!
//! The paper evaluates on 12 matrices from the University of Florida
//! collection (Table I). Those files are not redistributable here, so the
//! workspace substitutes structure-matched generators (DESIGN.md,
//! substitution S1): SpMV behaviour is governed by the dimension, the
//! non-zeros per row, the bandwidth profile and the block structure, and
//! each generator controls exactly those knobs. All generators are seeded
//! and fully deterministic.
//!
//! Every generator returns a canonical, symmetric, positive-definite
//! [`CooMatrix`] (SPD is enforced by diagonal dominance so the CG
//! experiments of §V-F converge).

use crate::coo::CooMatrix;
use crate::rng::StdRng;
use crate::{Idx, Val};

/// Mirrors a strict-lower-triangle COO and adds a dominant diagonal,
/// producing a symmetric positive-definite matrix.
///
/// The diagonal entry of row `i` is set to `sum_j |a_ij| + shift` over the
/// full row, which makes the matrix strictly diagonally dominant with
/// positive diagonal, hence SPD.
pub fn spd_from_lower(lower: &CooMatrix, shift: Val) -> CooMatrix {
    assert!(
        shift > 0.0,
        "shift must be positive for positive definiteness"
    );
    let n = lower.nrows();
    let mut lower = lower.clone();
    lower.canonicalize();
    let mut rowsum = vec![0.0; n as usize];
    for (r, c, v) in lower.iter() {
        debug_assert!(c < r, "spd_from_lower expects a strict lower triangle");
        rowsum[r as usize] += v.abs();
        rowsum[c as usize] += v.abs();
    }
    let mut full = CooMatrix::with_capacity(n, n, lower.nnz() * 2 + n as usize);
    for (r, c, v) in lower.iter() {
        full.push(r, c, v);
        full.push(c, r, v);
    }
    for i in 0..n {
        full.push(i, i, rowsum[i as usize] + shift);
    }
    full.canonicalize();
    full
}

/// 5-point finite-difference Laplacian on an `nx × ny` grid
/// (a classic low-bandwidth SPD model problem).
pub fn laplacian_2d(nx: Idx, ny: Idx) -> CooMatrix {
    let n = nx * ny;
    let idx = |i: Idx, j: Idx| i * ny + j;
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n as usize);
    for i in 0..nx {
        for j in 0..ny {
            let me = idx(i, j);
            coo.push(me, me, 4.0);
            if i > 0 {
                coo.push(me, idx(i - 1, j), -1.0);
            }
            if i + 1 < nx {
                coo.push(me, idx(i + 1, j), -1.0);
            }
            if j > 0 {
                coo.push(me, idx(i, j - 1), -1.0);
            }
            if j + 1 < ny {
                coo.push(me, idx(i, j + 1), -1.0);
            }
        }
    }
    coo.canonicalize();
    coo
}

/// Random symmetric SPD matrix with entries confined to a band.
///
/// `nnz_per_row` counts full-matrix off-diagonal targets per row (the
/// realized count can be slightly lower after duplicate removal).
pub fn banded_random(n: Idx, half_bandwidth: Idx, nnz_per_row: f64, seed: u64) -> CooMatrix {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let per_row_lower = (nnz_per_row / 2.0).max(0.5);
    let mut lower = CooMatrix::with_capacity(n, n, (n as f64 * per_row_lower) as usize + 16);
    for r in 1..n {
        let lo = r.saturating_sub(half_bandwidth);
        // Expected number of lower-triangle entries this row.
        let mut want = per_row_lower.floor() as usize;
        if rng.random::<f64>() < per_row_lower.fract() {
            want += 1;
        }
        let span = r - lo;
        let want = want.min(span as usize);
        for _ in 0..want {
            let c = rng.random_range(lo..r);
            lower.push(r, c, -rng.random_range(0.1..1.0));
        }
    }
    spd_from_lower(&lower, 1.0)
}

/// Structural-FEM analog: a banded node graph expanded with dense
/// `block × block` blocks (models the `bmw*`, `hood`, `crankseg_2`,
/// `inline_1`, `ldoor` structural matrices, which have ~3 dof per node).
///
/// * `nodes` — number of FEM nodes; the matrix dimension is `nodes·block`.
/// * `node_degree` — average neighbors per node (each contributing a block).
/// * `node_band` — neighbors are drawn within this node-index distance.
pub fn block_structural(
    nodes: Idx,
    block: Idx,
    node_degree: f64,
    node_band: Idx,
    seed: u64,
) -> CooMatrix {
    assert!(nodes >= 2 && block >= 1);
    let n = nodes * block;
    let mut rng = StdRng::seed_from_u64(seed);
    let per_node_lower = (node_degree / 2.0).max(0.5);
    let est = (nodes as f64 * per_node_lower) as usize * (block * block) as usize;
    let mut lower = CooMatrix::with_capacity(n, n, est + n as usize);

    // Dense sub-diagonal coupling inside each node's own block.
    for node in 0..nodes {
        let base = node * block;
        for i in 0..block {
            for j in 0..i {
                lower.push(base + i, base + j, -rng.random_range(0.1..1.0));
            }
        }
    }
    // Neighbor blocks.
    for node in 1..nodes {
        let lo = node.saturating_sub(node_band);
        let mut want = per_node_lower.floor() as usize;
        if rng.random::<f64>() < per_node_lower.fract() {
            want += 1;
        }
        let span = node - lo;
        let want = want.min(span as usize);
        for _ in 0..want {
            let nbr = rng.random_range(lo..node);
            let (rb, cb) = (node * block, nbr * block);
            for i in 0..block {
                for j in 0..block {
                    lower.push(rb + i, cb + j, -rng.random_range(0.1..1.0));
                }
            }
        }
    }
    spd_from_lower(&lower, 1.0)
}

/// Random symmetric matrix whose off-diagonals mix a *local* band with
/// globally *scattered* entries.
///
/// `local_frac` of each row's entries stay within `half_bandwidth` of the
/// diagonal; the rest are drawn uniformly from the whole row, producing the
/// high-bandwidth behaviour of the paper's corner cases (`parabolic_fem`,
/// `offshore`, `G3_circuit`, `thermal2`).
pub fn mixed_bandwidth(
    n: Idx,
    nnz_per_row: f64,
    local_frac: f64,
    half_bandwidth: Idx,
    seed: u64,
) -> CooMatrix {
    assert!(n >= 2);
    assert!((0.0..=1.0).contains(&local_frac));
    let mut rng = StdRng::seed_from_u64(seed);
    let per_row_lower = (nnz_per_row / 2.0).max(0.5);
    let mut lower = CooMatrix::with_capacity(n, n, (n as f64 * per_row_lower) as usize + 16);
    for r in 1..n {
        let mut want = per_row_lower.floor() as usize;
        if rng.random::<f64>() < per_row_lower.fract() {
            want += 1;
        }
        let want = want.min(r as usize);
        for _ in 0..want {
            let c = if rng.random::<f64>() < local_frac {
                let lo = r.saturating_sub(half_bandwidth);
                rng.random_range(lo..r)
            } else {
                rng.random_range(0..r)
            };
            lower.push(r, c, -rng.random_range(0.1..1.0));
        }
    }
    spd_from_lower(&lower, 1.0)
}

/// Circuit-analog generator: a mostly-local sparse graph with a few hub
/// rows accumulating many connections (models `G3_circuit` — a power-grid
/// mesh with supply rails).
///
/// Non-hub edges stay within `local_band` of the diagonal; hub edges are
/// global. The result is usually combined with [`scramble`] so the latent
/// locality is hidden behind a bad numbering, which RCM can then recover
/// (§V-D).
pub fn power_law(n: Idx, nnz_per_row: f64, hub_frac: f64, local_band: Idx, seed: u64) -> CooMatrix {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let hubs = ((n as f64 * hub_frac).ceil() as Idx).max(1);
    let per_row_lower = (nnz_per_row / 2.0).max(0.5);
    let mut lower = CooMatrix::with_capacity(n, n, (n as f64 * per_row_lower) as usize + 16);
    for r in 1..n {
        let mut want = per_row_lower.floor() as usize;
        if rng.random::<f64>() < per_row_lower.fract() {
            want += 1;
        }
        let want = want.min(r as usize);
        for _ in 0..want {
            // ~15% of endpoints attach to a hub; the rest stay local.
            let c = if rng.random::<f64>() < 0.15 {
                rng.random_range(0..hubs.min(r))
            } else {
                let lo = r.saturating_sub(local_band.max(1));
                rng.random_range(lo..r)
            };
            lower.push(r, c, -rng.random_range(0.1..1.0));
        }
    }
    spd_from_lower(&lower, 1.0)
}

/// Convection-style skew-symmetric generator (`a_ji = -a_ij`, zero
/// diagonal): the discrete first-derivative (transport) operator of a
/// convection–diffusion problem under central differences, whose
/// off-diagonal couplings are banded and antisymmetric.
///
/// Entries are confined to `half_bandwidth` of the diagonal, with
/// `nnz_per_row` full-matrix off-diagonal targets per row — the PARS3
/// skew + RCM experiments pair this with [`scramble`] to hide the band.
pub fn skew_convection(n: Idx, half_bandwidth: Idx, nnz_per_row: f64, seed: u64) -> CooMatrix {
    assert!(n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let per_row_lower = (nnz_per_row / 2.0).max(0.5);
    let mut coo = CooMatrix::with_capacity(n, n, 2 * (n as f64 * per_row_lower) as usize + 16);
    for r in 1..n {
        let lo = r.saturating_sub(half_bandwidth);
        let mut want = per_row_lower.floor() as usize;
        if rng.random::<f64>() < per_row_lower.fract() {
            want += 1;
        }
        let span = r - lo;
        let want = want.min(span as usize);
        for _ in 0..want {
            let c = rng.random_range(lo..r);
            // Transport coefficient: positive below the diagonal, negated
            // mirror above — duplicates sum pairwise, preserving skewness.
            let v = rng.random_range(0.1..1.0);
            coo.push(r, c, v);
            coo.push(c, r, -v);
        }
    }
    coo.canonicalize();
    coo
}

/// Structurally-symmetric generator: the sparsity pattern is symmetric but
/// the paired values `(a_ij, a_ji)` are drawn independently — the circuit
/// / unsymmetric-FEM class Batista et al. target. The diagonal is made
/// dominant over both triangles so the matrix stays well-conditioned for
/// the oracle's tolerance checks.
///
/// Off-diagonal placement follows [`mixed_bandwidth`]: `local_frac` of the
/// pairs stay within `half_bandwidth` of the diagonal, the rest scatter.
pub fn structural_random(
    n: Idx,
    nnz_per_row: f64,
    local_frac: f64,
    half_bandwidth: Idx,
    seed: u64,
) -> CooMatrix {
    assert!(n >= 2);
    assert!((0.0..=1.0).contains(&local_frac));
    let mut rng = StdRng::seed_from_u64(seed);
    let per_row_lower = (nnz_per_row / 2.0).max(0.5);
    let mut coo = CooMatrix::with_capacity(n, n, 2 * (n as f64 * per_row_lower) as usize + 16);
    let mut rowsum = vec![0.0; n as usize];
    for r in 1..n {
        let mut want = per_row_lower.floor() as usize;
        if rng.random::<f64>() < per_row_lower.fract() {
            want += 1;
        }
        let want = want.min(r as usize);
        for _ in 0..want {
            let c = if rng.random::<f64>() < local_frac {
                let lo = r.saturating_sub(half_bandwidth);
                rng.random_range(lo..r)
            } else {
                rng.random_range(0..r)
            };
            // Independent pair values: the pattern is mirrored, the
            // numbers are not.
            let v_lower = -rng.random_range(0.1..1.0);
            let v_upper = -rng.random_range(0.1..1.0);
            coo.push(r, c, v_lower);
            coo.push(c, r, v_upper);
            rowsum[r as usize] += v_lower.abs();
            rowsum[c as usize] += v_upper.abs();
        }
    }
    for i in 0..n {
        coo.push(i, i, rowsum[i as usize] + 1.0);
    }
    coo.canonicalize();
    coo
}

/// Locally scrambles a block-structured matrix's *node* numbering: node
/// labels are shuffled within windows of `window_nodes`, while each node's
/// `block` consecutive rows (its degrees of freedom) move together.
///
/// Real FEM matrices are numbered in mesh-generator order — locally messy,
/// globally coherent — which is exactly what gives RCM its §V-D gains on
/// the structural matrices without destroying their dense dof-blocks.
pub fn scramble_nodes_windowed(
    coo: &CooMatrix,
    block: Idx,
    window_nodes: Idx,
    seed: u64,
) -> CooMatrix {
    use crate::perm::Permutation;
    let n = coo.nrows();
    assert_eq!(
        n % block,
        0,
        "dimension must be a whole number of node blocks"
    );
    let nodes = n / block;
    let window = window_nodes.max(2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut node_map: Vec<Idx> = (0..nodes).collect();
    let mut w0 = 0;
    while w0 < nodes {
        let w1 = (w0 + window).min(nodes);
        for i in ((w0 as usize + 1)..w1 as usize).rev() {
            let j = rng.random_range(w0 as usize..=i);
            node_map.swap(i, j);
        }
        w0 = w1;
    }
    let mut map = vec![0 as Idx; n as usize];
    for (old_node, &new_node) in node_map.iter().enumerate() {
        for d in 0..block {
            map[old_node * block as usize + d as usize] = new_node * block + d;
        }
    }
    let p = Permutation::from_map(map)
        .unwrap_or_else(|_| unreachable!("windowed shuffle is a bijection"));
    p.apply_symmetric(coo)
        .unwrap_or_else(|_| unreachable!("generator matrices are square"))
}

/// Symmetrically permutes a matrix with a random (seeded) permutation —
/// used to hide a generator's latent locality behind a bad numbering, the
/// situation the RCM experiments of §V-D start from.
pub fn scramble(coo: &CooMatrix, seed: u64) -> CooMatrix {
    use crate::perm::Permutation;
    let n = coo.nrows();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut map: Vec<Idx> = (0..n).collect();
    // Fisher–Yates.
    for i in (1..n as usize).rev() {
        let j = rng.random_range(0..=i);
        map.swap(i, j);
    }
    let p = Permutation::from_map(map)
        .unwrap_or_else(|_| unreachable!("Fisher-Yates shuffle is a bijection"));
    p.apply_symmetric(coo)
        .unwrap_or_else(|_| unreachable!("generator matrices are square"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;

    fn check_spd_structure(coo: &CooMatrix) {
        assert!(coo.is_symmetric(0.0), "generated matrix must be symmetric");
        // Diagonal dominance implies SPD; verify the dominance itself.
        let n = coo.nrows() as usize;
        let mut diag = vec![0.0; n];
        let mut off = vec![0.0; n];
        for (r, c, v) in coo.iter() {
            if r == c {
                diag[r as usize] = v;
            } else {
                off[r as usize] += v.abs();
            }
        }
        let mut strict = false;
        for i in 0..n {
            assert!(diag[i] >= off[i], "row {i} not diagonally dominant");
            strict |= diag[i] > off[i];
        }
        // Weak dominance everywhere plus strictness somewhere (true for the
        // Laplacians' boundary rows and for all spd_from_lower outputs).
        assert!(strict, "no strictly dominant row");
    }

    #[test]
    fn laplacian_2d_structure() {
        let a = laplacian_2d(4, 5);
        assert_eq!(a.nrows(), 20);
        check_spd_structure(&a);
        // Interior point has exactly 5 stencil entries.
        let d = DenseMatrix::from_coo(&a);
        assert_eq!(d[(6, 6)], 4.0);
        assert_eq!(d[(6, 1)], -1.0);
    }

    #[test]
    fn banded_random_stays_in_band() {
        let a = banded_random(200, 10, 6.0, 7);
        check_spd_structure(&a);
        for (r, c, _) in a.iter() {
            assert!((r as i64 - c as i64).unsigned_abs() <= 10);
        }
    }

    #[test]
    fn banded_random_deterministic() {
        let a = banded_random(100, 8, 4.0, 1);
        let b = banded_random(100, 8, 4.0, 1);
        let c = banded_random(100, 8, 4.0, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn block_structural_has_blocks() {
        let a = block_structural(30, 3, 4.0, 8, 11);
        assert_eq!(a.nrows(), 90);
        check_spd_structure(&a);
        // Diagonal 3x3 node blocks must be dense.
        let d = DenseMatrix::from_coo(&a);
        for node in 0..30usize {
            for i in 0..3 {
                for j in 0..3 {
                    assert_ne!(d[(node * 3 + i, node * 3 + j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn mixed_bandwidth_has_far_entries() {
        let a = mixed_bandwidth(500, 8.0, 0.5, 5, 3);
        check_spd_structure(&a);
        let far = a
            .iter()
            .filter(|&(r, c, _)| (r as i64 - c as i64).abs() > 50)
            .count();
        assert!(far > 0, "expected scattered (high-bandwidth) entries");
    }

    #[test]
    fn power_law_has_hub_rows() {
        let a = power_law(400, 5.0, 0.01, 10, 9);
        check_spd_structure(&a);
        let n = a.nrows() as usize;
        let mut deg = vec![0usize; n];
        for (r, c, _) in a.iter() {
            if r != c {
                deg[r as usize] += 1;
                let _ = c;
            }
        }
        let max = *deg.iter().max().unwrap();
        let avg = deg.iter().sum::<usize>() as f64 / n as f64;
        assert!(max as f64 > 4.0 * avg, "max degree {max} vs avg {avg}");
    }

    #[test]
    fn skew_convection_is_skew_and_banded() {
        let a = skew_convection(300, 12, 6.0, 21);
        assert!(a.is_skew_symmetric(0.0));
        assert!(!a.is_symmetric(0.0));
        for (r, c, _) in a.iter() {
            assert_ne!(r, c, "skew generator must not emit diagonal entries");
            assert!((r as i64 - c as i64).unsigned_abs() <= 12);
        }
        // Determinism.
        assert_eq!(skew_convection(300, 12, 6.0, 21), a);
        assert_ne!(skew_convection(300, 12, 6.0, 22), a);
        // Skewness survives a symmetric permutation (the RCM-experiment
        // pipeline scrambles, reorders, and must stay skew throughout).
        let s = scramble(&a, 3);
        assert!(s.is_skew_symmetric(0.0));
    }

    #[test]
    fn structural_random_pattern_symmetric_values_not() {
        let a = structural_random(300, 7.0, 0.6, 8, 33);
        assert!(a.is_structurally_symmetric());
        assert!(!a.is_symmetric(0.0), "paired values must differ");
        assert!(!a.is_skew_symmetric(0.0));
        // Diagonal dominance over the full (unsymmetric) row values.
        let n = a.nrows() as usize;
        let mut diag = vec![0.0; n];
        let mut off = vec![0.0; n];
        for (r, c, v) in a.iter() {
            if r == c {
                diag[r as usize] = v;
            } else {
                off[r as usize] += v.abs();
            }
        }
        for i in 0..n {
            assert!(diag[i] > off[i], "row {i} not strictly dominant");
        }
        // Determinism.
        assert_eq!(structural_random(300, 7.0, 0.6, 8, 33), a);
    }

    #[test]
    fn scramble_preserves_symmetry_and_values() {
        let a = banded_random(200, 6, 5.0, 4);
        let s = scramble(&a, 1);
        assert!(s.is_symmetric(0.0));
        assert_eq!(s.nnz(), a.nnz());
        let mut va: Vec<f64> = a.iter().map(|(_, _, v)| v).collect();
        let mut vs: Vec<f64> = s.iter().map(|(_, _, v)| v).collect();
        va.sort_by(f64::total_cmp);
        vs.sort_by(f64::total_cmp);
        assert_eq!(va, vs);
        // The scramble must actually blow up the bandwidth.
        let bw = |m: &CooMatrix| m.iter().map(|(r, c, _)| r.abs_diff(c)).max().unwrap();
        assert!(bw(&s) > 4 * bw(&a));
        // Determinism.
        assert_eq!(scramble(&a, 1), s);
        assert_ne!(scramble(&a, 2), s);
    }

    #[test]
    fn spd_from_lower_rejects_nonpositive_shift() {
        let lower = CooMatrix::new(3, 3);
        let res = std::panic::catch_unwind(|| spd_from_lower(&lower, 0.0));
        assert!(res.is_err());
    }
}

#[cfg(test)]
mod windowed_tests {
    use super::*;
    use crate::stats::matrix_stats;

    #[test]
    fn windowed_scramble_keeps_blocks_together() {
        let a = block_structural(40, 3, 6.0, 10, 2);
        let s = scramble_nodes_windowed(&a, 3, 10, 7);
        assert!(s.is_symmetric(0.0));
        assert_eq!(s.nnz(), a.nnz());
        // Diagonal 3x3 node blocks survive: every diagonal block is dense.
        let d = crate::dense::DenseMatrix::from_coo(&s);
        for node in 0..40usize {
            for i in 0..3 {
                for j in 0..3 {
                    assert_ne!(d[(node * 3 + i, node * 3 + j)], 0.0, "node {node}");
                }
            }
        }
    }

    #[test]
    fn windowed_scramble_grows_bandwidth_recoverably() {
        let a = block_structural(200, 3, 6.0, 10, 3);
        let s = scramble_nodes_windowed(&a, 3, 50, 9);
        let bw_a = matrix_stats(&a).bandwidth;
        let bw_s = matrix_stats(&s).bandwidth;
        assert!(
            bw_s > bw_a,
            "scramble should worsen the numbering: {bw_a} -> {bw_s}"
        );
        // And RCM-style recovery is possible in principle: the scramble is
        // windowed, so two neighbors end up at most ~2 windows apart.
        assert!(
            bw_s <= bw_a + 2 * 50 * 3 + 3,
            "bounded displacement: {bw_s}"
        );
    }

    #[test]
    fn windowed_scramble_deterministic() {
        let a = block_structural(30, 3, 5.0, 8, 1);
        assert_eq!(
            scramble_nodes_windowed(&a, 3, 8, 5),
            scramble_nodes_windowed(&a, 3, 8, 5)
        );
    }
}
