//! Reverse Cuthill–McKee ordering.
//!
//! The classic bandwidth-minimizing reordering the paper applies in §V-D:
//! BFS from a pseudo-peripheral vertex, visiting neighbors in ascending
//! degree order, then reversing the ordering (George's improvement).
//! Disconnected components are processed in sequence, each from its own
//! pseudo-peripheral start.

use crate::bfs::pseudo_peripheral;
use crate::graph::AdjGraph;
use crate::{CooMatrix, Idx, Permutation, SparseError};

/// Computes the RCM *ordering*: `order[k]` is the old vertex placed at new
/// position `k`.
pub fn rcm_order(g: &AdjGraph) -> Vec<Idx> {
    let n = g.n() as usize;
    let mut order: Vec<Idx> = Vec::with_capacity(n);
    let mut visited = vec![false; n];

    // Degree-sorted neighbor scratch, reused across vertices.
    let mut nbrs: Vec<Idx> = Vec::new();

    for start in 0..n as Idx {
        if visited[start as usize] {
            continue;
        }
        let root = pseudo_peripheral(g, start);
        // Standard Cuthill–McKee queue-based traversal of this component.
        let comp_begin = order.len();
        visited[root as usize] = true;
        order.push(root);
        let mut head = comp_begin;
        while head < order.len() {
            let v = order[head];
            head += 1;
            nbrs.clear();
            nbrs.extend(
                g.neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| !visited[w as usize]),
            );
            nbrs.sort_unstable_by_key(|&w| (g.degree(w), w));
            for &w in &nbrs {
                visited[w as usize] = true;
                order.push(w);
            }
        }
        // Reverse this component's span (the "R" in RCM).
        order[comp_begin..].reverse();
    }
    order
}

/// Computes the RCM permutation (`new = perm[old]`) of a matrix's pattern.
pub fn rcm_permutation(coo: &CooMatrix) -> Result<Permutation, SparseError> {
    if coo.nrows() != coo.ncols() {
        return Err(SparseError::NotSquare {
            nrows: coo.nrows(),
            ncols: coo.ncols(),
        });
    }
    let g = AdjGraph::from_pattern(coo);
    Permutation::from_order(&rcm_order(&g))
}

/// Convenience: returns the RCM-reordered matrix `P·A·Pᵀ`.
pub fn rcm_reorder(coo: &CooMatrix) -> Result<CooMatrix, SparseError> {
    let p = rcm_permutation(coo)?;
    p.apply_symmetric(coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::matrix_stats;

    #[test]
    fn order_is_a_permutation() {
        let mut coo = CooMatrix::new(6, 6);
        for (r, c) in [(0, 3), (3, 5), (1, 4), (2, 4)] {
            coo.push(r, c, 1.0);
            coo.push(c, r, 1.0);
        }
        let g = AdjGraph::from_pattern(&coo);
        let mut order = rcm_order(&g);
        assert_eq!(order.len(), 6);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_band() {
        // Take a tridiagonal matrix and scramble it; RCM must recover a
        // near-tridiagonal bandwidth.
        let n: Idx = 64;
        let mut tri = CooMatrix::new(n, n);
        for i in 0..n {
            tri.push(i, i, 2.0);
            if i + 1 < n {
                tri.push(i, i + 1, -1.0);
                tri.push(i + 1, i, -1.0);
            }
        }
        tri.canonicalize();
        // Scramble with a fixed "bit-reversal-ish" permutation.
        let map: Vec<Idx> = (0..n).map(|i| (i * 37) % n).collect();
        let scramble = Permutation::from_map(map).unwrap();
        let scrambled = scramble.apply_symmetric(&tri).unwrap();
        let before = matrix_stats(&scrambled).bandwidth;
        assert!(
            before > 10,
            "scramble should blow up the bandwidth, got {before}"
        );

        let reordered = rcm_reorder(&scrambled).unwrap();
        let after = matrix_stats(&reordered).bandwidth;
        assert!(after <= 2, "RCM should recover the band, got {after}");
        assert!(reordered.is_symmetric(0.0));
    }

    #[test]
    fn disconnected_components_all_ordered() {
        // Two disjoint edges plus an isolated vertex.
        let mut coo = CooMatrix::new(5, 5);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(3, 2, 1.0);
        let g = AdjGraph::from_pattern(&coo);
        let mut order = rcm_order(&g);
        assert_eq!(order.len(), 5);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn rcm_on_random_spd_reduces_bandwidth() {
        let coo = crate::gen::mixed_bandwidth(400, 6.0, 0.3, 4, 17);
        let before = matrix_stats(&coo).bandwidth;
        let reordered = rcm_reorder(&coo).unwrap();
        let after = matrix_stats(&reordered).bandwidth;
        assert!(
            after < before,
            "RCM should reduce bandwidth: {before} -> {after}"
        );
    }

    #[test]
    fn rcm_permutation_is_valid_bijection() {
        let coo = crate::gen::laplacian_2d(8, 8);
        let p = rcm_permutation(&coo).unwrap();
        let id = p.then(&p.inverse());
        assert_eq!(id, Permutation::identity(64));
    }

    #[test]
    fn non_square_rejected() {
        let coo = CooMatrix::new(3, 4);
        assert!(rcm_permutation(&coo).is_err());
    }
}
