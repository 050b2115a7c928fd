//! Row/column permutations and symmetric reordering `P·A·Pᵀ`.
//!
//! The reordering experiments (§V-D, Table III, Fig. 13) permute the matrix
//! symmetrically with the RCM ordering computed in [`crate::reorder`].

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::Idx;

/// A permutation of `0..n`, stored as `new = perm[old]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<Idx>,
}

impl Permutation {
    /// The identity permutation on `0..n`.
    pub fn identity(n: Idx) -> Self {
        Permutation {
            perm: (0..n).collect(),
        }
    }

    /// Builds a permutation from a `new = perm[old]` map, validating that it
    /// is a bijection on `0..n`.
    pub fn from_map(perm: Vec<Idx>) -> Result<Self, SparseError> {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            if (p as usize) >= n {
                return Err(SparseError::InvalidPermutation {
                    msg: format!("target {p} out of range for n = {n}"),
                });
            }
            if seen[p as usize] {
                return Err(SparseError::InvalidPermutation {
                    msg: format!("target {p} appears twice"),
                });
            }
            seen[p as usize] = true;
        }
        Ok(Permutation { perm })
    }

    /// Builds a permutation from an *ordering* — `order[k]` is the old index
    /// placed at new position `k` (the natural output of RCM).
    pub fn from_order(order: &[Idx]) -> Result<Self, SparseError> {
        let n = order.len();
        let mut perm = vec![Idx::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            if (old as usize) >= n {
                return Err(SparseError::InvalidPermutation {
                    msg: format!("ordering entry {old} out of range for n = {n}"),
                });
            }
            if perm[old as usize] != Idx::MAX {
                return Err(SparseError::InvalidPermutation {
                    msg: format!("old index {old} appears twice in ordering"),
                });
            }
            perm[old as usize] = new as Idx;
        }
        Ok(Permutation { perm })
    }

    /// Size of the permuted domain.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the permutation on the empty domain.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// New index of `old`.
    #[inline]
    pub fn apply(&self, old: Idx) -> Idx {
        self.perm[old as usize]
    }

    /// The underlying `new = perm[old]` map.
    pub fn as_map(&self) -> &[Idx] {
        &self.perm
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0 as Idx; self.perm.len()];
        for (old, &new) in self.perm.iter().enumerate() {
            inv[new as usize] = old as Idx;
        }
        Permutation { perm: inv }
    }

    /// Composition `other ∘ self` (apply `self` first).
    pub fn then(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        Permutation {
            perm: self.perm.iter().map(|&m| other.apply(m)).collect(),
        }
    }

    /// Symmetric reordering of a square matrix: entry `(r, c)` moves to
    /// `(perm[r], perm[c])` — i.e. `P·A·Pᵀ` with `P` the permutation matrix
    /// that sends old row `i` to new row `perm[i]`.
    pub fn apply_symmetric(&self, coo: &CooMatrix) -> Result<CooMatrix, SparseError> {
        if coo.nrows() != coo.ncols() {
            return Err(SparseError::NotSquare {
                nrows: coo.nrows(),
                ncols: coo.ncols(),
            });
        }
        assert_eq!(
            coo.nrows() as usize,
            self.len(),
            "permutation size mismatch"
        );
        let mut out = CooMatrix::with_capacity(coo.nrows(), coo.ncols(), coo.nnz());
        for (r, c, v) in coo.iter() {
            out.push(self.apply(r), self.apply(c), v);
        }
        out.canonicalize();
        Ok(out)
    }

    /// Permutes a dense vector: `out[perm[i]] = x[i]`.
    pub fn apply_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.len());
        let mut out = vec![0.0; x.len()];
        for (old, &v) in x.iter().enumerate() {
            out[self.perm[old] as usize] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trip() {
        let p = Permutation::identity(5);
        assert_eq!(p.apply(3), 3);
        assert_eq!(p.inverse(), p);
    }

    #[test]
    fn from_map_validates() {
        assert!(Permutation::from_map(vec![1, 0, 2]).is_ok());
        assert!(Permutation::from_map(vec![1, 1, 2]).is_err());
        assert!(Permutation::from_map(vec![1, 3, 2]).is_err());
    }

    #[test]
    fn order_and_map_agree() {
        // Ordering [2,0,1]: old 2 goes to new 0, old 0 to new 1, old 1 to new 2.
        let p = Permutation::from_order(&[2, 0, 1]).unwrap();
        assert_eq!(p.as_map(), &[1, 2, 0]);
        assert_eq!(p.apply(2), 0);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_map(vec![3, 1, 0, 2]).unwrap();
        let id = p.then(&p.inverse());
        assert_eq!(id, Permutation::identity(4));
    }

    #[test]
    fn symmetric_reorder_preserves_spectrum_sample() {
        // Reordering preserves symmetry and the multiset of values.
        let mut coo = CooMatrix::new(3, 3);
        for (r, c, v) in [
            (0, 0, 1.0),
            (1, 1, 2.0),
            (2, 2, 3.0),
            (0, 2, 5.0),
            (2, 0, 5.0),
        ] {
            coo.push(r, c, v);
        }
        coo.canonicalize();
        let p = Permutation::from_map(vec![2, 0, 1]).unwrap();
        let b = p.apply_symmetric(&coo).unwrap();
        assert!(b.is_symmetric(0.0));
        assert_eq!(b.find(2, 2), Some(1.0)); // old (0,0)
        assert_eq!(b.find(2, 1), Some(5.0)); // old (0,2)
        let mut vals: Vec<f64> = b.iter().map(|(_, _, v)| v).collect();
        vals.sort_by(f64::total_cmp);
        assert_eq!(vals, vec![1.0, 2.0, 3.0, 5.0, 5.0]);
    }

    #[test]
    fn reorder_commutes_with_spmv() {
        // (P A Pᵀ)(P x) = P (A x).
        let mut coo = CooMatrix::new(4, 4);
        for (r, c, v) in [
            (0, 0, 2.0),
            (1, 1, 3.0),
            (2, 2, 4.0),
            (3, 3, 5.0),
            (0, 3, 1.0),
            (3, 0, 1.0),
        ] {
            coo.push(r, c, v);
        }
        coo.canonicalize();
        let p = Permutation::from_map(vec![1, 3, 0, 2]).unwrap();
        let pa = p.apply_symmetric(&coo).unwrap();

        let x = vec![1.0, -1.0, 2.0, 0.5];
        let px = p.apply_vec(&x);
        let mut ax = vec![0.0; 4];
        coo.spmv_reference(&x, &mut ax);
        let pax = p.apply_vec(&ax);
        let mut papx = vec![0.0; 4];
        pa.spmv_reference(&px, &mut papx);
        assert_eq!(pax, papx);
    }

    #[test]
    fn apply_vec_places_elements() {
        let p = Permutation::from_map(vec![2, 0, 1]).unwrap();
        assert_eq!(p.apply_vec(&[10.0, 20.0, 30.0]), vec![20.0, 30.0, 10.0]);
    }
}
