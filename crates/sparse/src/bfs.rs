//! Breadth-first level structures and the George–Liu pseudo-peripheral
//! vertex finder used to pick good RCM starting vertices.

use crate::graph::AdjGraph;
use crate::Idx;

/// The rooted level structure of a BFS from `root`, restricted to the
/// connected component of `root`.
#[derive(Debug, Clone)]
pub struct LevelStructure {
    /// Vertices grouped by BFS level, `levels[0] == [root]`.
    pub levels: Vec<Vec<Idx>>,
    /// Number of vertices reached (size of the component).
    pub reached: usize,
}

impl LevelStructure {
    /// Eccentricity of the root within its component (number of levels − 1).
    pub fn eccentricity(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// Width of the widest level.
    pub fn width(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// BFS level structure rooted at `root`. `visited` is a scratch buffer of
/// length `n` that must be `false` at the positions of this component; the
/// function leaves the component's positions `true`.
pub fn level_structure(g: &AdjGraph, root: Idx, visited: &mut [bool]) -> LevelStructure {
    let mut levels: Vec<Vec<Idx>> = Vec::new();
    let mut current = vec![root];
    visited[root as usize] = true;
    let mut reached = 1;
    while !current.is_empty() {
        let mut next = Vec::new();
        for &v in &current {
            for &w in g.neighbors(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    next.push(w);
                    reached += 1;
                }
            }
        }
        levels.push(std::mem::take(&mut current));
        current = next;
    }
    LevelStructure { levels, reached }
}

/// George–Liu pseudo-peripheral vertex: start anywhere in the component,
/// repeatedly re-root the BFS at a minimum-degree vertex of the last level
/// until the eccentricity stops growing.
pub fn pseudo_peripheral(g: &AdjGraph, start: Idx) -> Idx {
    let n = g.n() as usize;
    let mut root = start;
    let mut scratch = vec![false; n];
    let mut ls = level_structure(g, root, &mut scratch);
    loop {
        let last = match ls.levels.last() {
            Some(l) if !l.is_empty() => l,
            _ => return root,
        };
        // Minimum-degree vertex of the deepest level.
        let Some(&cand) = last.iter().min_by_key(|&&v| g.degree(v)) else {
            unreachable!("level checked non-empty above");
        };
        scratch.fill(false);
        let ls2 = level_structure(g, cand, &mut scratch);
        if ls2.eccentricity() > ls.eccentricity() {
            root = cand;
            ls = ls2;
            scratch.fill(false);
        } else {
            return root;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn path(n: u32) -> AdjGraph {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, 1.0);
            coo.push(i + 1, i, 1.0);
        }
        AdjGraph::from_pattern(&coo)
    }

    #[test]
    fn levels_of_path() {
        let g = path(5);
        let mut vis = vec![false; 5];
        let ls = level_structure(&g, 2, &mut vis);
        assert_eq!(ls.reached, 5);
        assert_eq!(ls.eccentricity(), 2);
        assert_eq!(ls.levels[0], vec![2]);
        assert_eq!(ls.width(), 2);
    }

    #[test]
    fn pseudo_peripheral_finds_path_end() {
        let g = path(9);
        let p = pseudo_peripheral(&g, 4);
        assert!(p == 0 || p == 8, "got {p}");
    }

    #[test]
    fn isolated_vertex() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let g = AdjGraph::from_pattern(&coo);
        let mut vis = vec![false; 3];
        let ls = level_structure(&g, 2, &mut vis);
        assert_eq!(ls.reached, 1);
        assert_eq!(ls.eccentricity(), 0);
        assert_eq!(pseudo_peripheral(&g, 2), 2);
    }
}
