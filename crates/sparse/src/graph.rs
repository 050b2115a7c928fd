//! Undirected adjacency graph of a symmetric sparsity pattern.

use crate::rowmajor::Rows;
use crate::{CooMatrix, Idx};

/// CSR-like adjacency structure (no self loops, symmetric edges).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjGraph {
    n: Idx,
    xadj: Vec<usize>,
    adj: Vec<Idx>,
}

impl AdjGraph {
    /// Builds the adjacency graph of a square matrix's off-diagonal pattern.
    ///
    /// The pattern is symmetrized (an edge exists if either `(r, c)` or
    /// `(c, r)` is present), so structurally unsymmetric inputs are safe.
    pub fn from_pattern(coo: &CooMatrix) -> Self {
        assert_eq!(
            coo.nrows(),
            coo.ncols(),
            "adjacency graph needs a square matrix"
        );
        let rows = Rows::of(coo);
        Self::from_rows(coo.nrows(), |r| rows.row_cols(r))
    }

    /// Builds the adjacency graph from a strict-lower-triangle CSR pattern
    /// (the column layout of an SSS matrix): `colind[rowptr[r]..rowptr[r+1]]`
    /// holds the columns `c < r` of row `r`, ascending. Every stored edge is
    /// mirrored, so the graph is the full symmetric adjacency of the matrix.
    pub fn from_lower_csr(n: Idx, rowptr: &[Idx], colind: &[Idx]) -> Self {
        assert_eq!(
            rowptr.len(),
            n as usize + 1,
            "rowptr must have n + 1 entries"
        );
        Self::from_rows(n, |r| {
            let row = &colind[rowptr[r] as usize..rowptr[r + 1] as usize];
            assert!(
                row.last().is_none_or(|&c| (c as usize) < r),
                "lower-CSR pattern stores only columns below the row"
            );
            row
        })
    }

    /// The one construction, O(n + nnz): `row(r)` holds the columns of row `r`,
    /// strictly ascending. The neighbours of `v` are the off-diagonal
    /// columns of row `v` united with the rows that hold `v` — the
    /// transpose, built by one counting pass that visits rows in ascending
    /// order — so each merged list comes out ascending and duplicate-free.
    fn from_rows<'a>(n: Idx, row: impl Fn(usize) -> &'a [Idx]) -> Self {
        let nv = n as usize;
        let mut tptr = vec![0usize; nv + 1];
        for r in 0..nv {
            let cols = row(r);
            assert!(
                cols.windows(2).all(|w| w[0] < w[1]),
                "rows must be sorted without duplicates"
            );
            for &c in cols.iter().filter(|&&c| c as usize != r) {
                tptr[c as usize + 1] += 1;
            }
        }
        for v in 0..nv {
            tptr[v + 1] += tptr[v];
        }
        let mut next = tptr.clone();
        let mut tadj = vec![0 as Idx; tptr[nv]];
        for r in 0..nv {
            for &c in row(r).iter().filter(|&&c| c as usize != r) {
                tadj[next[c as usize]] = r as Idx;
                next[c as usize] += 1;
            }
        }

        let (mut xadj, mut adj) = (vec![0], Vec::with_capacity(2 * tadj.len()));
        for v in 0..nv {
            let (a, b) = (row(v), &tadj[tptr[v]..tptr[v + 1]]);
            let (mut i, mut j) = (0, 0);
            // Take the smaller head; step past it in every list it heads.
            while i < a.len() || j < b.len() {
                let w = if j == b.len() || (i < a.len() && a[i] <= b[j]) {
                    a[i]
                } else {
                    b[j]
                };
                i += usize::from(a.get(i) == Some(&w));
                j += usize::from(b.get(j) == Some(&w));
                if w as usize != v {
                    adj.push(w);
                }
            }
            xadj.push(adj.len());
        }
        AdjGraph { n, xadj, adj }
    }

    /// Number of vertices.
    pub fn n(&self) -> Idx {
        self.n
    }

    /// Number of (directed) edge slots; each undirected edge counts twice.
    pub fn edge_slots(&self) -> usize {
        self.adj.len()
    }

    /// Neighbors of vertex `v`, sorted ascending.
    pub fn neighbors(&self, v: Idx) -> &[Idx] {
        &self.adj[self.xadj[v as usize]..self.xadj[v as usize + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: Idx) -> usize {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::StdRng;
    use crate::suite::{self, KIND_SUITE, SUITE};
    use crate::SssMatrix;

    /// The construction the row-based one replaced, kept as the oracle: every
    /// off-diagonal entry pushed as two directed edges, the whole list
    /// sorted and de-duplicated.
    fn edge_list_oracle(coo: &CooMatrix) -> AdjGraph {
        let n = coo.nrows();
        let mut edges: Vec<(Idx, Idx)> = Vec::with_capacity(coo.nnz() * 2);
        for (r, c, _) in coo.iter() {
            if r != c {
                edges.push((r, c));
                edges.push((c, r));
            }
        }
        edges.sort_unstable();
        edges.dedup();

        let mut xadj = vec![0usize; n as usize + 1];
        for &(r, _) in &edges {
            xadj[r as usize + 1] += 1;
        }
        for i in 0..n as usize {
            xadj[i + 1] += xadj[i];
        }
        let adj = edges.into_iter().map(|(_, c)| c).collect();
        AdjGraph { n, xadj, adj }
    }

    /// A seeded pattern, unsymmetric and in push order: `n` of 0 and 1,
    /// diagonal-only matrices, a band of empty rows in every other case,
    /// a quarter of the coordinates pushed twice, every third case
    /// canonicalized (the borrowed row view rather than the bucketed one).
    fn random_pattern(case: u64) -> CooMatrix {
        let mut rng = StdRng::seed_from_u64(0x67_0000 + case);
        let n = match case % 8 {
            0 => 0,
            1 => 1,
            _ => rng.random_range(2u32..60),
        };
        let mut coo = CooMatrix::new(n, n);
        if n == 0 {
            return coo;
        }
        let empty = if case.is_multiple_of(2) {
            rng.random_range(0..n)..rng.random_range(0..n + 1)
        } else {
            0..0
        };
        for _ in 0..rng.random_range(0..4 * n as usize) {
            let r = rng.random_range(0..n);
            let c = if case % 8 == 2 {
                r
            } else {
                rng.random_range(0..n)
            };
            if !empty.contains(&r) {
                coo.push(r, c, 1.0);
                if rng.random_range(0u32..4) == 0 {
                    coo.push(r, c, 2.0);
                }
            }
        }
        if case.is_multiple_of(3) {
            coo.canonicalize();
        }
        coo
    }

    /// The strict lower rows of a graph, as the SSS column layout holds them.
    fn lower_rows(g: &AdjGraph) -> (Vec<Idx>, Vec<Idx>) {
        let (mut rowptr, mut colind) = (vec![0], Vec::new());
        for v in 0..g.n() {
            colind.extend(g.neighbors(v).iter().filter(|&&w| w < v));
            rowptr.push(colind.len() as Idx);
        }
        (rowptr, colind)
    }

    #[test]
    fn row_merge_matches_the_edge_list_oracle() {
        for case in 0..200 {
            let coo = random_pattern(case);
            let want = edge_list_oracle(&coo);
            assert_eq!(AdjGraph::from_pattern(&coo), want, "case {case}");
            let (rowptr, colind) = lower_rows(&want);
            let lower = AdjGraph::from_lower_csr(coo.nrows(), &rowptr, &colind);
            assert_eq!(lower, want, "case {case}, lower rows");
        }
    }

    #[test]
    fn sss_lower_rows_give_the_pattern_graph_on_the_suite() {
        for spec in SUITE.iter().chain(KIND_SUITE.iter()) {
            let coo = suite::generate(spec, 0.001).coo;
            let sss = SssMatrix::from_coo_kind(&coo, spec.kind, 0.0).unwrap();
            let lower = AdjGraph::from_lower_csr(sss.n(), sss.rowptr(), sss.colind());
            assert_eq!(lower, AdjGraph::from_pattern(&coo), "{}", spec.name);
        }
    }

    fn path_graph() -> AdjGraph {
        // 0 - 1 - 2 - 3 as a symmetric tridiagonal pattern.
        let mut coo = CooMatrix::new(4, 4);
        for i in 0..4u32 {
            coo.push(i, i, 1.0);
        }
        for i in 0..3u32 {
            coo.push(i, i + 1, -1.0);
            coo.push(i + 1, i, -1.0);
        }
        AdjGraph::from_pattern(&coo)
    }

    #[test]
    fn structure() {
        let g = path_graph();
        assert_eq!(g.n(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.edge_slots(), 6);
    }

    #[test]
    fn self_loops_excluded() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        let g = AdjGraph::from_pattern(&coo);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(1), 0);
    }

    #[test]
    fn unsymmetric_pattern_symmetrized() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 2, 1.0); // only one direction stored
        let g = AdjGraph::from_pattern(&coo);
        assert_eq!(g.neighbors(0), &[2]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn duplicate_entries_deduplicated() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 3.0);
        let g = AdjGraph::from_pattern(&coo);
        assert_eq!(g.degree(0), 1);
    }
}
