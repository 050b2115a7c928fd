//! Symmetry kinds — the algebraic family the half-storage formats cover.
//!
//! The paper's machinery (half storage, local-vectors multiply, reduction
//! strategies) only needs two facts about a matrix: what the *transposed
//! contribution* of a stored entry `a_ij` is, and how the storage pairs
//! values. Three kinds share the machinery:
//!
//! * **Symmetric** — `a_ji = a_ij`; the transposed contribution reuses the
//!   stored value (the paper's case).
//! * **Skew** — `a_ji = -a_ij` and the diagonal is identically zero; the
//!   transposed contribution is the stored value negated (PARS3,
//!   Yıldırım et al.).
//! * **Structural** — the *pattern* is symmetric but values are not;
//!   `a_ji` is stored explicitly in a paired upper-triangle array
//!   (Batista et al., the effective-ranges baseline).
//!
//! [`SymmetryKind`] is the runtime tag threaded through constructors,
//! certificates and reports; [`SymmetryOps`] is its compile-time mirror,
//! used to monomorphize the kernels so the `Symmetric` hot path compiles
//! to exactly the code it compiled to before kinds existed.

use crate::Val;

/// Which symmetry relation a half-stored matrix satisfies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SymmetryKind {
    /// `a_ji = a_ij` — numeric symmetry (the default, the paper's case).
    #[default]
    Symmetric,
    /// `a_ji = -a_ij`, zero diagonal — skew symmetry.
    Skew,
    /// Pattern symmetric, values unrelated: `a_ji` stored explicitly.
    Structural,
}

impl SymmetryKind {
    /// All kinds, in declaration order (the oracle's kind axis).
    pub const ALL: [SymmetryKind; 3] = [
        SymmetryKind::Symmetric,
        SymmetryKind::Skew,
        SymmetryKind::Structural,
    ];

    /// Stable short tag (certificate texts, experiment tables, repro lines).
    pub fn tag(self) -> &'static str {
        match self {
            SymmetryKind::Symmetric => "symmetric",
            SymmetryKind::Skew => "skew",
            SymmetryKind::Structural => "structural",
        }
    }

    /// Parses [`SymmetryKind::tag`] output. Returns `None` for unknown tags.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "symmetric" => Some(SymmetryKind::Symmetric),
            "skew" => Some(SymmetryKind::Skew),
            "structural" => Some(SymmetryKind::Structural),
            _ => None,
        }
    }

    /// Whether the kind stores a paired upper-triangle value array.
    pub fn has_upper_values(self) -> bool {
        matches!(self, SymmetryKind::Structural)
    }

    /// Whether the kind forbids structural diagonal entries.
    pub fn requires_zero_diagonal(self) -> bool {
        matches!(self, SymmetryKind::Skew)
    }

    /// The transposed contribution of a stored lower-triangle entry with
    /// value `v` and paired upper value `u` (ignored unless structural).
    /// Runtime mirror of [`SymmetryOps::transposed`], for serial code.
    #[inline]
    pub fn transposed(self, v: Val, u: Val) -> Val {
        match self {
            SymmetryKind::Symmetric => v,
            SymmetryKind::Skew => -v,
            SymmetryKind::Structural => u,
        }
    }
}

/// Compile-time symmetry kind: the kernels are generic over an
/// implementation of this trait, so each kind monomorphizes to its own
/// straight-line code. For [`Sym`] the `u` operand is dead and the
/// symmetric instantiation compiles to exactly the pre-kind kernel.
///
/// Kernels pass the stored lower value as `v` and the *paired* value as
/// `u`; for the non-structural kinds callers pass the lower values slice
/// itself as the pair slice (the duplicate load is eliminated).
pub trait SymmetryOps: Copy + Send + Sync + 'static {
    /// The runtime tag this implementation mirrors.
    const KIND: SymmetryKind;

    /// The transposed contribution of a stored entry (see
    /// [`SymmetryKind::transposed`]).
    fn transposed(v: Val, u: Val) -> Val;
}

/// `a_ji = a_ij`.
#[derive(Debug, Clone, Copy)]
pub struct Sym;

/// `a_ji = -a_ij`.
#[derive(Debug, Clone, Copy)]
pub struct Skew;

/// `a_ji` stored explicitly in the paired upper array.
#[derive(Debug, Clone, Copy)]
pub struct Structural;

impl SymmetryOps for Sym {
    const KIND: SymmetryKind = SymmetryKind::Symmetric;
    #[inline(always)]
    fn transposed(v: Val, _u: Val) -> Val {
        v
    }
}

impl SymmetryOps for Skew {
    const KIND: SymmetryKind = SymmetryKind::Skew;
    #[inline(always)]
    fn transposed(v: Val, _u: Val) -> Val {
        -v
    }
}

impl SymmetryOps for Structural {
    const KIND: SymmetryKind = SymmetryKind::Structural;
    #[inline(always)]
    fn transposed(_v: Val, u: Val) -> Val {
        u
    }
}

/// Dispatches a kind-generic closure-like operation on a runtime kind.
/// Each arm monomorphizes `f` separately — the macro form keeps the
/// dispatch at the *call boundary* so the kernels themselves stay generic.
#[macro_export]
macro_rules! with_symmetry_ops {
    ($kind:expr, $O:ident => $body:expr) => {
        match $kind {
            $crate::symmetry::SymmetryKind::Symmetric => {
                type $O = $crate::symmetry::Sym;
                $body
            }
            $crate::symmetry::SymmetryKind::Skew => {
                type $O = $crate::symmetry::Skew;
                $body
            }
            $crate::symmetry::SymmetryKind::Structural => {
                type $O = $crate::symmetry::Structural;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for k in SymmetryKind::ALL {
            assert_eq!(SymmetryKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(SymmetryKind::from_tag("hermitian"), None);
    }

    #[test]
    fn default_is_symmetric() {
        assert_eq!(SymmetryKind::default(), SymmetryKind::Symmetric);
    }

    #[test]
    fn transposed_algebra() {
        assert_eq!(SymmetryKind::Symmetric.transposed(2.5, 9.0), 2.5);
        assert_eq!(SymmetryKind::Skew.transposed(2.5, 9.0), -2.5);
        assert_eq!(SymmetryKind::Structural.transposed(2.5, 9.0), 9.0);
        assert_eq!(Sym::transposed(2.5, 9.0), 2.5);
        assert_eq!(Skew::transposed(2.5, 9.0), -2.5);
        assert_eq!(Structural::transposed(2.5, 9.0), 9.0);
    }

    #[test]
    fn compile_time_mirrors_runtime() {
        fn check<O: SymmetryOps>(kind: SymmetryKind) {
            assert_eq!(O::KIND, kind);
            for (v, u) in [(1.0, 2.0), (-3.5, 0.0), (0.25, -8.0)] {
                assert_eq!(
                    O::transposed(v, u).to_bits(),
                    kind.transposed(v, u).to_bits()
                );
            }
        }
        for kind in SymmetryKind::ALL {
            with_symmetry_ops!(kind, O => check::<O>(kind));
        }
    }

    #[test]
    fn kind_predicates() {
        assert!(!SymmetryKind::Symmetric.has_upper_values());
        assert!(SymmetryKind::Structural.has_upper_values());
        assert!(SymmetryKind::Skew.requires_zero_diagonal());
        assert!(!SymmetryKind::Structural.requires_zero_diagonal());
    }
}
