//! Small dense helpers used by tests and the CG solver's vector phase.

use crate::coo::CooMatrix;
use crate::Val;

/// A trivially simple dense row-major matrix, used as the ground truth in
/// format-equivalence tests. Not intended for performance.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    nrows: usize,
    ncols: usize,
    data: Vec<Val>,
}

impl DenseMatrix {
    /// A zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DenseMatrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Materializes a COO matrix densely.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let mut m = Self::zeros(coo.nrows() as usize, coo.ncols() as usize);
        for (r, c, v) in coo.iter() {
            m[(r as usize, c as usize)] += v;
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Dense matrix–vector product `y = A·x`.
    pub fn matvec(&self, x: &[Val], y: &mut [Val]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for (r, out) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.ncols..(r + 1) * self.ncols];
            *out = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// True if `self` is exactly symmetric.
    pub fn is_symmetric(&self) -> bool {
        self.nrows == self.ncols
            && (0..self.nrows).all(|r| (0..r).all(|c| self[(r, c)] == self[(c, r)]))
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = Val;
    fn index(&self, (r, c): (usize, usize)) -> &Val {
        &self.data[r * self.ncols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Val {
        &mut self.data[r * self.ncols + c]
    }
}

/// Asserts two vectors are element-wise equal within `tol` (test helper).
pub fn assert_vec_close(a: &[Val], b: &[Val], tol: Val) {
    assert_eq!(
        a.len(),
        b.len(),
        "length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "element {i} differs: {x} vs {y}"
        );
    }
}

/// Maximum relative difference between two vectors (0 when both empty).
pub fn max_rel_diff(a: &[Val], b: &[Val]) -> Val {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / (1.0 + x.abs().max(y.abs())))
        .fold(0.0, Val::max)
}

/// Creates a deterministic pseudo-random vector in `[-1, 1)` without pulling
/// in an RNG dependency at use sites (splitmix64-based).
pub fn seeded_vector(n: usize, seed: u64) -> Vec<Val> {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            // Map the top 53 bits to [0, 1), then to [-1, 1).
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_matvec() {
        let mut m = DenseMatrix::zeros(2, 3);
        m[(0, 0)] = 1.0;
        m[(0, 2)] = 2.0;
        m[(1, 1)] = 3.0;
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 2];
        m.matvec(&x, &mut y);
        assert_eq!(y, vec![7.0, 6.0]);
    }

    #[test]
    fn symmetry_check() {
        let mut m = DenseMatrix::zeros(2, 2);
        m[(0, 1)] = 1.0;
        assert!(!m.is_symmetric());
        m[(1, 0)] = 1.0;
        assert!(m.is_symmetric());
    }

    #[test]
    fn seeded_vector_deterministic_and_bounded() {
        let a = seeded_vector(100, 42);
        let b = seeded_vector(100, 42);
        let c = seeded_vector(100, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        let d = DenseMatrix::from_coo(&coo);
        assert_eq!(d[(0, 0)], 3.0);
    }

    #[test]
    fn max_rel_diff_zero_for_equal() {
        let a = vec![1.0, 2.0];
        assert_eq!(max_rel_diff(&a, &a), 0.0);
    }
}
