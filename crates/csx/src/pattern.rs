//! The 6-bit pattern-id space of the `ctl` flags byte.
//!
//! | id          | meaning                                   |
//! |-------------|-------------------------------------------|
//! | 0, 1, 2     | delta unit, u8 / u16 / u32 column deltas  |
//! | 4 + t·8 + (δ−1) | 1-D run of type `t`, delta δ ∈ 1..=8  |
//! | 36 + 3·(r−2) + (c−2) | dense block r×c, r,c ∈ 2..=4     |
//!
//! 1-D types `t`: 0 horizontal, 1 vertical, 2 diagonal, 3 anti-diagonal.

/// Maximum delta distance encodable in a 1-D run pattern id.
pub const MAX_RUN_DELTA: u8 = 8;

/// Minimum/maximum dense block dimension.
pub const MIN_BLOCK_DIM: u8 = 2;
/// Maximum dense block dimension.
pub const MAX_BLOCK_DIM: u8 = 4;

/// Byte width of a delta unit's column deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaWidth {
    /// One-byte deltas (< 256).
    U8,
    /// Two-byte deltas (< 65 536).
    U16,
    /// Four-byte deltas.
    U32,
}

impl DeltaWidth {
    /// Width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            DeltaWidth::U8 => 1,
            DeltaWidth::U16 => 2,
            DeltaWidth::U32 => 4,
        }
    }

    /// The narrowest width able to represent `delta`.
    pub fn for_delta(delta: u32) -> Self {
        if delta < 1 << 8 {
            DeltaWidth::U8
        } else if delta < 1 << 16 {
            DeltaWidth::U16
        } else {
            DeltaWidth::U32
        }
    }
}

/// The substructure families CSX detects (§IV-A, Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Elements `(r, c + k·δ)` — a run inside one row.
    Horizontal {
        /// Column stride of consecutive elements.
        delta: u8,
    },
    /// Elements `(r + k·δ, c)` — a run inside one column.
    Vertical {
        /// Row stride of consecutive elements.
        delta: u8,
    },
    /// Elements `(r + k·δ, c + k·δ)`.
    Diagonal {
        /// Stride along the diagonal.
        delta: u8,
    },
    /// Elements `(r + k·δ, c − k·δ)`.
    AntiDiagonal {
        /// Stride along the anti-diagonal.
        delta: u8,
    },
    /// A dense `rows × cols` block, stored row-major.
    Block {
        /// Block height (2..=4).
        rows: u8,
        /// Block width (2..=4).
        cols: u8,
    },
}

impl PatternKind {
    /// Encodes this pattern as its 6-bit id.
    pub fn id(self) -> u8 {
        match self {
            PatternKind::Horizontal { delta } => {
                assert!((1..=MAX_RUN_DELTA).contains(&delta));
                4 + (delta - 1)
            }
            PatternKind::Vertical { delta } => {
                assert!((1..=MAX_RUN_DELTA).contains(&delta));
                4 + 8 + (delta - 1)
            }
            PatternKind::Diagonal { delta } => {
                assert!((1..=MAX_RUN_DELTA).contains(&delta));
                4 + 16 + (delta - 1)
            }
            PatternKind::AntiDiagonal { delta } => {
                assert!((1..=MAX_RUN_DELTA).contains(&delta));
                4 + 24 + (delta - 1)
            }
            PatternKind::Block { rows, cols } => {
                assert!((MIN_BLOCK_DIM..=MAX_BLOCK_DIM).contains(&rows));
                assert!((MIN_BLOCK_DIM..=MAX_BLOCK_DIM).contains(&cols));
                36 + 3 * (rows - 2) + (cols - 2)
            }
        }
    }

    /// Decodes a 6-bit pattern id back into a kind; `None` for delta-unit
    /// ids (0..=2) and unassigned ids.
    #[inline(always)]
    pub fn from_id(id: u8) -> Option<PatternKind> {
        match id {
            4..=11 => Some(PatternKind::Horizontal { delta: id - 4 + 1 }),
            12..=19 => Some(PatternKind::Vertical { delta: id - 12 + 1 }),
            20..=27 => Some(PatternKind::Diagonal { delta: id - 20 + 1 }),
            28..=35 => Some(PatternKind::AntiDiagonal { delta: id - 28 + 1 }),
            36..=44 => {
                let k = id - 36;
                Some(PatternKind::Block {
                    rows: k / 3 + 2,
                    cols: k % 3 + 2,
                })
            }
            _ => None,
        }
    }

    /// The delta-unit pattern id for a given width.
    pub fn delta_id(width: DeltaWidth) -> u8 {
        match width {
            DeltaWidth::U8 => 0,
            DeltaWidth::U16 => 1,
            DeltaWidth::U32 => 2,
        }
    }

    /// Inverse of [`PatternKind::delta_id`].
    #[inline(always)]
    pub fn delta_width_from_id(id: u8) -> Option<DeltaWidth> {
        match id {
            0 => Some(DeltaWidth::U8),
            1 => Some(DeltaWidth::U16),
            2 => Some(DeltaWidth::U32),
            _ => None,
        }
    }

    /// Coordinates of the `k`-th element of an instance anchored at
    /// `(row, col)` (the anchor is the structurally first element:
    /// top-left for blocks, topmost for verticals/diagonals, top-right
    /// for anti-diagonals).
    #[inline(always)]
    pub fn element(&self, row: u32, col: u32, k: u32) -> (u32, u32) {
        match *self {
            PatternKind::Horizontal { delta } => (row, col + k * delta as u32),
            PatternKind::Vertical { delta } => (row + k * delta as u32, col),
            PatternKind::Diagonal { delta } => (row + k * delta as u32, col + k * delta as u32),
            PatternKind::AntiDiagonal { delta } => (row + k * delta as u32, col - k * delta as u32),
            PatternKind::Block { cols, .. } => (row + k / cols as u32, col + k % cols as u32),
        }
    }
}

/// `(row stride, column stride)` of a 1-D run of direction `DIR` — the run
/// types `t` of the id table, in order — at delta `delta`. The
/// anti-diagonal's column stride is the wrapped negative.
#[inline(always)]
pub fn run_strides<const DIR: u8>(delta: usize) -> (usize, usize) {
    match DIR {
        0 => (0, delta),
        1 => (delta, 0),
        2 => (delta, delta),
        _ => (delta, delta.wrapping_neg()),
    }
}

/// Selects a unit kernel from a pattern id — the id table above as one
/// `match`, shared by every decoder. The caller supplies three macros:
/// `$delta!(W)` for a delta unit of byte width `W`, `$run!(DIR, delta)` for
/// a 1-D run, `$block!(R, C)` for a dense block.
#[macro_export]
macro_rules! dispatch_unit {
    ($id:expr, $delta:ident, $run:ident, $block:ident) => {
        match $id {
            0 => $delta!(1),
            1 => $delta!(2),
            2 => $delta!(4),
            id @ 4..=11 => $run!(0, usize::from(id - 3)),
            id @ 12..=19 => $run!(1, usize::from(id - 11)),
            id @ 20..=27 => $run!(2, usize::from(id - 19)),
            id @ 28..=35 => $run!(3, usize::from(id - 27)),
            36 => $block!(2, 2),
            37 => $block!(2, 3),
            38 => $block!(2, 4),
            39 => $block!(3, 2),
            40 => $block!(3, 3),
            41 => $block!(3, 4),
            42 => $block!(4, 2),
            43 => $block!(4, 3),
            44 => $block!(4, 4),
            _ => unreachable!("invalid pattern id in ctl stream"),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<PatternKind> {
        let mut v = Vec::new();
        for d in 1..=MAX_RUN_DELTA {
            v.push(PatternKind::Horizontal { delta: d });
            v.push(PatternKind::Vertical { delta: d });
            v.push(PatternKind::Diagonal { delta: d });
            v.push(PatternKind::AntiDiagonal { delta: d });
        }
        for r in MIN_BLOCK_DIM..=MAX_BLOCK_DIM {
            for c in MIN_BLOCK_DIM..=MAX_BLOCK_DIM {
                v.push(PatternKind::Block { rows: r, cols: c });
            }
        }
        v
    }

    #[test]
    fn id_round_trip_and_uniqueness() {
        let kinds = all_kinds();
        let mut seen = std::collections::HashSet::new();
        for k in kinds {
            let id = k.id();
            assert!(id < 64, "id must fit 6 bits, got {id} for {k:?}");
            assert!(id > 2, "substructure ids must not collide with delta ids");
            assert!(seen.insert(id), "duplicate id {id}");
            assert_eq!(PatternKind::from_id(id), Some(k));
        }
    }

    #[test]
    fn delta_ids() {
        for w in [DeltaWidth::U8, DeltaWidth::U16, DeltaWidth::U32] {
            let id = PatternKind::delta_id(w);
            assert_eq!(PatternKind::delta_width_from_id(id), Some(w));
            assert_eq!(PatternKind::from_id(id), None);
        }
    }

    #[test]
    fn width_selection() {
        assert_eq!(DeltaWidth::for_delta(0), DeltaWidth::U8);
        assert_eq!(DeltaWidth::for_delta(255), DeltaWidth::U8);
        assert_eq!(DeltaWidth::for_delta(256), DeltaWidth::U16);
        assert_eq!(DeltaWidth::for_delta(65_535), DeltaWidth::U16);
        assert_eq!(DeltaWidth::for_delta(65_536), DeltaWidth::U32);
    }

    #[test]
    fn element_coordinates() {
        let h = PatternKind::Horizontal { delta: 2 };
        assert_eq!(h.element(3, 5, 0), (3, 5));
        assert_eq!(h.element(3, 5, 2), (3, 9));

        let v = PatternKind::Vertical { delta: 1 };
        assert_eq!(v.element(3, 5, 2), (5, 5));

        let d = PatternKind::Diagonal { delta: 3 };
        assert_eq!(d.element(0, 1, 2), (6, 7));

        let a = PatternKind::AntiDiagonal { delta: 1 };
        assert_eq!(a.element(2, 10, 3), (5, 7));

        let b = PatternKind::Block { rows: 2, cols: 3 };
        assert_eq!(b.element(4, 8, 0), (4, 8));
        assert_eq!(b.element(4, 8, 2), (4, 10));
        assert_eq!(b.element(4, 8, 3), (5, 8));
        assert_eq!(b.element(4, 8, 5), (5, 10));
    }
}
