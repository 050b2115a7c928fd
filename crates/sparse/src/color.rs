//! RACE-style recursive level-grouping coloring (Alappat et al.).
//!
//! Partitions the rows of a symmetric sparsity pattern into groups whose
//! members are pairwise *distance-2 disjoint* in the full adjacency: two rows
//! in the same group never share a write target when the symmetric SpMV
//! kernel scatters `y[r]` and `y[c]` for every stored entry `(r, c)`.
//! Executing the groups one barrier apart lets every thread write `y`
//! directly — no local vectors, no atomics, no reduction phase.
//!
//! The construction is the recursive scheme of the RACE paper, adapted to
//! our BFS machinery:
//!
//! 1. Per connected component, a George–Liu pseudo-peripheral root is found
//!    and BFS levels are built (`crate::bfs`). Every edge spans at most one
//!    level, so a row's write set `{r} ∪ N(r)` only touches levels
//!    `level(r) ± 1`: rows whose levels differ by ≥ 3 can never conflict.
//! 2. Levels are folded into three phases by `level % 3`. Within a phase,
//!    conflicts are only possible *inside* a single level, so each level is
//!    subcolored independently: an explicit within-level conflict graph is
//!    built (two rows conflict iff their write sets intersect) and properly
//!    colored by a recursive level/parity scheme with a greedy fallback.
//! 3. Rows writing a hub target shared by more than `HUB_CAP` (64) rows are
//!    pulled out of the conflict graph (avoiding quadratic edge blowup) and
//!    given unique singleton subcolors above the recursive palette —
//!    conservative but trivially sound.
//!
//! The final group of row `r` is `base[level(r) % 3] + subcolor(r)` where
//! `base` is the prefix sum of the per-phase palette sizes. Groups are
//! non-empty, partition `0..n`, and the whole construction is deterministic.

use crate::bfs::{level_structure, LevelStructure};
use crate::graph::AdjGraph;
use crate::Idx;

/// Writers-per-target cap above which the target's writer rows are assigned
/// singleton subcolors instead of pairwise conflict edges.
const HUB_CAP: usize = 64;

/// Recursion depth limit for the level/parity coloring; deeper conflict
/// graphs fall back to deterministic greedy coloring.
const MAX_DEPTH: usize = 16;

/// A distance-2-disjoint grouping of the rows of a symmetric pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelColoring {
    /// Group id of every row, `group_of[r] < groups.len()`.
    pub group_of: Vec<u32>,
    /// Rows of each group in ascending order; the groups are non-empty and
    /// partition `0..n`.
    pub groups: Vec<Vec<Idx>>,
    /// BFS level of every row within its connected component.
    pub levels: Vec<u32>,
    /// Within-level subcolor of every row, `subcolors[r] < phase_sizes[levels[r] % 3]`.
    pub subcolors: Vec<u32>,
    /// Palette size of each `level % 3` phase: the maximum subcolor count
    /// over the levels congruent to that residue.
    pub phase_sizes: [u32; 3],
}

impl LevelColoring {
    /// Number of groups (barriers the scheduled kernel executes).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

/// Colors the rows of `g` into distance-2-disjoint groups.
pub fn level_color(g: &AdjGraph) -> LevelColoring {
    let n = g.n() as usize;
    let mut levels = vec![0u32; n];
    let mut subcolors = vec![0u32; n];
    let mut phase_sizes = [0u32; 3];
    let mut visited = vec![false; n];
    // Reused per-level scratch: writer lists per target plus the touched set.
    let mut writers: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut touched: Vec<usize> = Vec::new();

    for s in 0..n {
        if visited[s] {
            continue;
        }
        if g.degree(s as Idx) == 0 {
            // Isolated row: writes only y[s], conflict-free — level 0,
            // subcolor 0 (phase 0 always has at least one color).
            visited[s] = true;
            phase_sizes[0] = phase_sizes[0].max(1);
            continue;
        }
        let ls = component_levels(g, s as Idx, &mut visited);
        for (li, rows) in ls.levels.iter().enumerate() {
            for &r in rows {
                levels[r as usize] = li as u32;
            }
            let count = color_level(g, rows, &mut writers, &mut touched, &mut subcolors);
            let ph = li % 3;
            phase_sizes[ph] = phase_sizes[ph].max(count);
        }
    }

    let bases = [0, phase_sizes[0], phase_sizes[0] + phase_sizes[1]];
    let ngroups = (phase_sizes[0] + phase_sizes[1] + phase_sizes[2]) as usize;
    let mut group_of = vec![0u32; n];
    let mut groups: Vec<Vec<Idx>> = vec![Vec::new(); ngroups];
    for r in 0..n {
        let gid = bases[(levels[r] % 3) as usize] + subcolors[r];
        group_of[r] = gid;
        groups[gid as usize].push(r as Idx);
    }
    LevelColoring {
        group_of,
        groups,
        levels,
        subcolors,
        phase_sizes,
    }
}

/// Colors a strict-lower-triangle CSR pattern (the SSS column layout)
/// directly; see [`level_color`].
pub fn level_color_lower(n: Idx, rowptr: &[Idx], colind: &[Idx]) -> LevelColoring {
    level_color(&AdjGraph::from_lower_csr(n, rowptr, colind))
}

/// BFS level structure of `start`'s component rooted at a George–Liu
/// pseudo-peripheral vertex. Unlike [`crate::bfs::pseudo_peripheral`] this
/// reuses the caller's `visited` scratch (cleared via the level lists, not a
/// full `fill`), so many-component patterns stay linear overall. Leaves the
/// component's `visited` positions `true`.
fn component_levels(g: &AdjGraph, start: Idx, visited: &mut [bool]) -> LevelStructure {
    let mut ls = level_structure(g, start, visited);
    loop {
        let Some(last) = ls.levels.last() else {
            return ls;
        };
        let Some(&cand) = last.iter().min_by_key(|&&v| g.degree(v)) else {
            return ls;
        };
        for level in &ls.levels {
            for &v in level {
                visited[v as usize] = false;
            }
        }
        let ls2 = level_structure(g, cand, visited);
        if ls2.eccentricity() > ls.eccentricity() {
            ls = ls2;
        } else {
            // `ls2` re-marked the same component; keep the wider structure.
            return ls;
        }
    }
}

/// Subcolors the rows of one BFS level so that equal subcolors never share a
/// write target. Writes `subcolors[r]` for every `r` in `rows` and returns
/// the number of subcolors used (contiguous `0..count`).
fn color_level(
    g: &AdjGraph,
    rows: &[Idx],
    writers: &mut [Vec<u32>],
    touched: &mut Vec<usize>,
    subcolors: &mut [u32],
) -> u32 {
    let m = rows.len();
    if m == 1 {
        subcolors[rows[0] as usize] = 0;
        return 1;
    }
    // Writer lists: for every target `t`, which level-local rows write y[t].
    for (i, &r) in rows.iter().enumerate() {
        let ri = r as usize;
        if writers[ri].is_empty() {
            touched.push(ri);
        }
        writers[ri].push(i as u32);
        for &c in g.neighbors(r) {
            let ci = c as usize;
            if writers[ci].is_empty() {
                touched.push(ci);
            }
            writers[ci].push(i as u32);
        }
    }
    // Pairwise conflict edges per target; hub targets force their writers
    // into singleton subcolors instead.
    let mut forced = vec![false; m];
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for &t in touched.iter() {
        let list = &writers[t];
        if list.len() > HUB_CAP {
            for &i in list {
                forced[i as usize] = true;
            }
        } else if list.len() > 1 {
            for a in 0..list.len() {
                for b in a + 1..list.len() {
                    let (x, y) = (list[a].min(list[b]), list[a].max(list[b]));
                    edges.push((x, y));
                }
            }
        }
    }
    for &t in touched.iter() {
        writers[t].clear();
    }
    touched.clear();

    // Compact the non-forced rows and build the conflict-graph CSR.
    let keep: Vec<u32> = (0..m as u32).filter(|&i| !forced[i as usize]).collect();
    let mut compact_of = vec![u32::MAX; m];
    for (ci, &i) in keep.iter().enumerate() {
        compact_of[i as usize] = ci as u32;
    }
    let mm = keep.len();
    let mut cedges: Vec<(u32, u32)> = edges
        .iter()
        .filter_map(|&(a, b)| {
            let (ca, cb) = (compact_of[a as usize], compact_of[b as usize]);
            (ca != u32::MAX && cb != u32::MAX).then(|| (ca.min(cb), ca.max(cb)))
        })
        .collect();
    cedges.sort_unstable();
    cedges.dedup();
    let mut xadj = vec![0usize; mm + 1];
    for &(a, b) in &cedges {
        xadj[a as usize + 1] += 1;
        xadj[b as usize + 1] += 1;
    }
    for i in 0..mm {
        xadj[i + 1] += xadj[i];
    }
    let mut cursor: Vec<usize> = xadj[..mm].to_vec();
    let mut adj = vec![0u32; cedges.len() * 2];
    for &(a, b) in &cedges {
        adj[cursor[a as usize]] = b;
        cursor[a as usize] += 1;
        adj[cursor[b as usize]] = a;
        cursor[b as usize] += 1;
    }

    let mut ctx = ColorCtx {
        xadj,
        adj,
        colors: vec![0u32; mm],
        member: vec![0u32; mm],
        seen: vec![0u32; mm],
        forb: vec![0u32; mm + 1],
        epoch: 0,
        gen: 0,
    };
    let all: Vec<u32> = (0..mm as u32).collect();
    let palette = if mm == 0 {
        0
    } else {
        color_subset(&mut ctx, &all, MAX_DEPTH)
    };
    for (ci, &i) in keep.iter().enumerate() {
        subcolors[rows[i as usize] as usize] = ctx.colors[ci];
    }
    // Singleton subcolors for the hub-forced rows, above the palette.
    let mut next = palette;
    for (i, &f) in forced.iter().enumerate() {
        if f {
            subcolors[rows[i] as usize] = next;
            next += 1;
        }
    }
    next
}

/// Scratch state for recursively coloring one within-level conflict graph.
struct ColorCtx {
    xadj: Vec<usize>,
    adj: Vec<u32>,
    colors: Vec<u32>,
    /// Epoch-stamped membership of the current subset.
    member: Vec<u32>,
    /// Epoch-stamped BFS visitation marks.
    seen: Vec<u32>,
    /// Generation-stamped forbidden-color marks for the greedy fallback.
    forb: Vec<u32>,
    epoch: u32,
    gen: u32,
}

/// Properly colors the subgraph induced by `verts` with contiguous colors
/// `0..k`, returning `k`. Recursive scheme: BFS the subset, color the
/// even-parity levels with one shared palette and the odd-parity levels with
/// a disjoint one (same-parity levels are never adjacent), recursing into
/// each level's induced subgraph. Falls back to greedy at depth 0.
fn color_subset(ctx: &mut ColorCtx, verts: &[u32], depth: usize) -> u32 {
    if verts.len() == 1 {
        ctx.colors[verts[0] as usize] = 0;
        return 1;
    }
    ctx.epoch += 1;
    let ep = ctx.epoch;
    for &v in verts {
        ctx.member[v as usize] = ep;
    }
    let mut has_edge = false;
    'scan: for &v in verts {
        for i in ctx.xadj[v as usize]..ctx.xadj[v as usize + 1] {
            if ctx.member[ctx.adj[i] as usize] == ep {
                has_edge = true;
                break 'scan;
            }
        }
    }
    if !has_edge {
        for &v in verts {
            ctx.colors[v as usize] = 0;
        }
        return 1;
    }
    if depth == 0 {
        return greedy_subset(ctx, verts, ep);
    }
    // BFS levels per component of the induced subgraph, in subset order.
    let mut units: Vec<(usize, Vec<u32>)> = Vec::new();
    for &s in verts {
        if ctx.seen[s as usize] == ep {
            continue;
        }
        ctx.seen[s as usize] = ep;
        let mut current = vec![s];
        let mut li = 0usize;
        while !current.is_empty() {
            let mut next_level: Vec<u32> = Vec::new();
            for &v in &current {
                for i in ctx.xadj[v as usize]..ctx.xadj[v as usize + 1] {
                    let w = ctx.adj[i];
                    if ctx.member[w as usize] == ep && ctx.seen[w as usize] != ep {
                        ctx.seen[w as usize] = ep;
                        next_level.push(w);
                    }
                }
            }
            units.push((li, std::mem::take(&mut current)));
            current = next_level;
            li += 1;
        }
    }
    let mut even_max = 0u32;
    for (li, unit) in &units {
        if li % 2 == 0 {
            even_max = even_max.max(color_subset(ctx, unit, depth - 1));
        }
    }
    let mut odd_max = 0u32;
    for (li, unit) in &units {
        if li % 2 == 1 {
            odd_max = odd_max.max(color_subset(ctx, unit, depth - 1));
            for &v in unit {
                ctx.colors[v as usize] += even_max;
            }
        }
    }
    even_max + odd_max
}

/// Deterministic greedy proper coloring of the subgraph induced by `verts`
/// (membership already stamped at epoch `ep`). Smallest-free-color in subset
/// order; colors are contiguous `0..k`.
fn greedy_subset(ctx: &mut ColorCtx, verts: &[u32], ep: u32) -> u32 {
    for &v in verts {
        ctx.colors[v as usize] = u32::MAX;
    }
    let mut used = 0u32;
    for &v in verts {
        ctx.gen += 1;
        let gen = ctx.gen;
        for i in ctx.xadj[v as usize]..ctx.xadj[v as usize + 1] {
            let w = ctx.adj[i] as usize;
            if ctx.member[w] == ep {
                let c = ctx.colors[w];
                if c != u32::MAX {
                    ctx.forb[c as usize] = gen;
                }
            }
        }
        let mut c = 0u32;
        while ctx.forb[c as usize] == gen {
            c += 1;
        }
        ctx.colors[v as usize] = c;
        used = used.max(c + 1);
    }
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// Brute-force validity: partition of all rows, and no two rows of a
    /// group within distance 2 of each other (shared write target).
    fn assert_valid(g: &AdjGraph, lc: &LevelColoring) {
        let n = g.n() as usize;
        assert_eq!(lc.group_of.len(), n);
        let total: usize = lc.groups.iter().map(Vec::len).sum();
        assert_eq!(total, n, "groups must partition the rows");
        let mut seen = vec![false; n];
        for (gid, rows) in lc.groups.iter().enumerate() {
            assert!(!rows.is_empty(), "group {gid} is empty");
            for &r in rows {
                assert!(!seen[r as usize], "row {r} appears twice");
                seen[r as usize] = true;
                assert_eq!(lc.group_of[r as usize], gid as u32);
            }
        }
        // Distance-2 disjointness against the full adjacency.
        let mut owner = vec![u32::MAX; n];
        for rows in &lc.groups {
            for &r in rows {
                for t in std::iter::once(r).chain(g.neighbors(r).iter().copied()) {
                    assert_ne!(
                        owner[t as usize], lc.group_of[r as usize],
                        "rows of one group share write target {t}"
                    );
                }
            }
            for &r in rows {
                owner[r as usize] = lc.group_of[r as usize];
                for &c in g.neighbors(r) {
                    owner[c as usize] = lc.group_of[r as usize];
                }
            }
            // Reset for the next group: a target may be re-claimed.
            for &r in rows {
                owner[r as usize] = u32::MAX;
                for &c in g.neighbors(r) {
                    owner[c as usize] = u32::MAX;
                }
            }
        }
    }

    fn path(n: u32) -> AdjGraph {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n - 1 {
            coo.push(i, i + 1, 1.0);
            coo.push(i + 1, i, 1.0);
        }
        AdjGraph::from_pattern(&coo)
    }

    fn grid(rows: u32, cols: u32) -> AdjGraph {
        let n = rows * cols;
        let mut coo = CooMatrix::new(n, n);
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    coo.push(v, v + 1, 1.0);
                    coo.push(v + 1, v, 1.0);
                }
                if r + 1 < rows {
                    coo.push(v, v + cols, 1.0);
                    coo.push(v + cols, v, 1.0);
                }
            }
        }
        AdjGraph::from_pattern(&coo)
    }

    #[test]
    fn path_coloring_valid() {
        let g = path(17);
        let lc = level_color(&g);
        assert_valid(&g, &lc);
        assert!(lc.num_groups() >= 3, "a path needs at least 3 groups");
    }

    #[test]
    fn grid_coloring_valid() {
        let g = grid(9, 7);
        let lc = level_color(&g);
        assert_valid(&g, &lc);
    }

    #[test]
    fn star_hub_forces_singletons() {
        // A star with more than HUB_CAP leaves: every leaf writes the hub,
        // so all leaves sharing a level must get distinct subcolors.
        let leaves = (HUB_CAP + 10) as u32;
        let mut coo = CooMatrix::new(leaves + 1, leaves + 1);
        for i in 1..=leaves {
            coo.push(0, i, 1.0);
            coo.push(i, 0, 1.0);
        }
        let g = AdjGraph::from_pattern(&coo);
        let lc = level_color(&g);
        assert_valid(&g, &lc);
        assert!(
            lc.num_groups() as u32 >= leaves,
            "leaves must be serialized"
        );
    }

    #[test]
    fn diagonal_only_is_one_group() {
        let coo = CooMatrix::new(100, 100);
        let g = AdjGraph::from_pattern(&coo);
        let lc = level_color(&g);
        assert_valid(&g, &lc);
        assert_eq!(lc.num_groups(), 1);
    }

    #[test]
    fn deterministic() {
        let g = grid(6, 11);
        assert_eq!(level_color(&g), level_color(&g));
    }

    #[test]
    fn lower_csr_matches_pattern() {
        // Tridiagonal: lower CSR has colind [0], [1], ... per row.
        let n = 8u32;
        let mut rowptr = vec![0u32];
        let mut colind = Vec::new();
        for r in 1..n {
            colind.push(r - 1);
            rowptr.push(colind.len() as u32);
        }
        rowptr.insert(1, 0);
        let from_csr = level_color_lower(n, &rowptr, &colind);
        let g = path(n);
        assert_eq!(from_csr, level_color(&g));
    }
}
