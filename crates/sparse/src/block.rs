//! Multi-vector blocks for batched SpMM (`Y = A·X` with `k` right-hand
//! sides).
//!
//! Symmetric SpMV is memory-bound: the matrix is streamed once per
//! multiply and dwarfs the vector traffic. A [`VectorBlock`] packs `k`
//! vectors *lane-interleaved* — element `(row i, lane j)` lives at
//! `data[i·k + j]` — so one pass over the matrix updates all `k` lanes of
//! a row from one contiguous cache-resident group, amortizing the matrix
//! traffic over `k` results. Viewed as a dense matrix the block is the
//! `n × k` right-hand-side matrix in row-major order (equivalently the
//! `k × n` lane matrix in column-major order); "stride" below always means
//! the lane count `k`.
//!
//! Lane counts are restricted to [`SUPPORTED_LANES`] (powers of two up to
//! [`MAX_LANES`]) so kernels can be monomorphized per lane count
//! ([`with_lanes!`](crate::with_lanes)) with `[f64; K]` register
//! accumulators, and the per-thread local blocks leased from the runtime
//! arena stay aligned multiples of the scalar layout.

use crate::Val;

/// Maximum number of simultaneous right-hand sides a block may carry.
pub const MAX_LANES: usize = 16;

/// The lane counts the batched kernels accept.
pub const SUPPORTED_LANES: [usize; 5] = [1, 2, 4, 8, 16];

/// Dispatches a lane-generic operation on a runtime lane count, binding
/// `$K` as a `const usize` per arm — the lane-axis sibling of
/// [`with_symmetry_ops!`](crate::with_symmetry_ops): kernels stay generic
/// over `const K`, and the one runtime `match` sits at the call boundary.
/// The arms are exactly [`SUPPORTED_LANES`], the only counts a
/// [`VectorBlock`] can be constructed with.
#[macro_export]
macro_rules! with_lanes {
    ($lanes:expr, $K:ident => $body:expr) => {
        $crate::with_lanes!(@arms [1 2 4 8 16] $lanes, $K => $body)
    };
    (@arms [$($n:literal)*] $lanes:expr, $K:ident => $body:expr) => {
        match $lanes {
            $($n => {
                const $K: usize = $n;
                $body
            })*
            other => unreachable!("lane count {other} outside SUPPORTED_LANES"),
        }
    };
}

/// A block of `k` dense vectors of length `n`, lane-interleaved:
/// element `(row i, lane j)` is `data[i·k + j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorBlock {
    n: usize,
    lanes: usize,
    data: Vec<Val>,
}

impl VectorBlock {
    /// A zeroed `n × lanes` block.
    ///
    /// # Panics
    /// If `lanes` is not one of [`SUPPORTED_LANES`].
    pub fn zeros(n: usize, lanes: usize) -> Self {
        assert!(
            SUPPORTED_LANES.contains(&lanes),
            "unsupported lane count {lanes} (supported: {SUPPORTED_LANES:?})"
        );
        VectorBlock {
            n,
            lanes,
            data: vec![0.0; n * lanes],
        }
    }

    /// A block whose lane `j` is the seeded vector for `seed + j` — the
    /// deterministic multi-RHS analogue of
    /// [`seeded_vector`](crate::dense::seeded_vector).
    pub fn seeded(n: usize, lanes: usize, seed: u64) -> Self {
        let mut b = VectorBlock::zeros(n, lanes);
        for j in 0..lanes {
            let lane = crate::dense::seeded_vector(n, seed.wrapping_add(j as u64));
            b.copy_lane_from(j, &lane);
        }
        b
    }

    /// Builds a block from `lanes.len()` equal-length column vectors.
    ///
    /// # Panics
    /// If the lane count is unsupported or the columns disagree in length.
    pub fn from_lanes(columns: &[&[Val]]) -> Self {
        let lanes = columns.len();
        let n = columns.first().map_or(0, |c| c.len());
        let mut b = VectorBlock::zeros(n, lanes);
        for (j, col) in columns.iter().enumerate() {
            b.copy_lane_from(j, col);
        }
        b
    }

    /// Number of rows `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of lanes (right-hand sides) `k`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The raw lane-interleaved storage, length `n·lanes`.
    pub fn as_slice(&self) -> &[Val] {
        &self.data
    }

    /// Mutable raw lane-interleaved storage.
    pub fn as_mut_slice(&mut self) -> &mut [Val] {
        &mut self.data
    }

    /// The `lanes`-wide group of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Val] {
        &self.data[i * self.lanes..(i + 1) * self.lanes]
    }

    /// Element `(row i, lane j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Val {
        self.data[i * self.lanes + j]
    }

    /// Sets element `(row i, lane j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: Val) {
        self.data[i * self.lanes + j] = v;
    }

    /// Overwrites every element with `v`.
    pub fn fill(&mut self, v: Val) {
        self.data.fill(v);
    }

    /// Copies contiguous vector `src` into lane `j`.
    ///
    /// # Panics
    /// If `src.len() != n` or `j >= lanes`.
    pub fn copy_lane_from(&mut self, j: usize, src: &[Val]) {
        assert_eq!(src.len(), self.n, "lane length mismatch");
        assert!(j < self.lanes, "lane {j} out of {}", self.lanes);
        for (i, &v) in src.iter().enumerate() {
            self.data[i * self.lanes + j] = v;
        }
    }

    /// Extracts lane `j` into a contiguous vector.
    pub fn lane(&self, j: usize) -> Vec<Val> {
        assert!(j < self.lanes, "lane {j} out of {}", self.lanes);
        (0..self.n).map(|i| self.data[i * self.lanes + j]).collect()
    }

    /// Copies lane `j` into contiguous `dst`.
    pub fn copy_lane_into(&self, j: usize, dst: &mut [Val]) {
        assert_eq!(dst.len(), self.n, "lane length mismatch");
        assert!(j < self.lanes, "lane {j} out of {}", self.lanes);
        for (i, d) in dst.iter_mut().enumerate() {
            *d = self.data[i * self.lanes + j];
        }
    }
}

/// A block viewed as its raw lane-interleaved storage, so code generic
/// over "a scalar vector or a block" (the solver's one CG loop) can take
/// `AsRef<[Val]> + AsMut<[Val]>` and serve `[Val]` and `VectorBlock` alike.
impl AsRef<[Val]> for VectorBlock {
    fn as_ref(&self) -> &[Val] {
        &self.data
    }
}

impl AsMut<[Val]> for VectorBlock {
    fn as_mut(&mut self) -> &mut [Val] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_lanes_binds_every_supported_count() {
        fn bound<const K: usize>() -> usize {
            K
        }
        for lanes in SUPPORTED_LANES {
            assert_eq!(with_lanes!(lanes, K => bound::<K>()), lanes);
        }
    }

    #[test]
    fn layout_is_lane_interleaved() {
        let mut b = VectorBlock::zeros(3, 2);
        b.set(0, 0, 1.0);
        b.set(0, 1, 2.0);
        b.set(2, 1, 5.0);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 0.0, 0.0, 0.0, 5.0]);
        assert_eq!(b.row(0), &[1.0, 2.0]);
        assert_eq!(b.get(2, 1), 5.0);
    }

    #[test]
    fn lanes_round_trip() {
        let c0 = [1.0, 2.0, 3.0];
        let c1 = [4.0, 5.0, 6.0];
        let b = VectorBlock::from_lanes(&[&c0, &c1]);
        assert_eq!(b.lane(0), c0);
        assert_eq!(b.lane(1), c1);
        let mut out = [0.0; 3];
        b.copy_lane_into(1, &mut out);
        assert_eq!(out, c1);
    }

    #[test]
    fn seeded_lanes_match_seeded_vectors() {
        let b = VectorBlock::seeded(17, 4, 7);
        for j in 0..4 {
            assert_eq!(b.lane(j), crate::dense::seeded_vector(17, 7 + j as u64));
        }
    }

    #[test]
    #[should_panic(expected = "unsupported lane count")]
    fn rejects_unsupported_lane_count() {
        let _ = VectorBlock::zeros(4, 3);
    }
}
