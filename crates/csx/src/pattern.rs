//! The 6-bit pattern-id space of the `ctl` flags byte.
//!
//! | id          | meaning                                   |
//! |-------------|-------------------------------------------|
//! | 0, 1, 2     | delta unit, u8 / u16 / u32 column deltas  |
//! | 36 + 3·(r−2) + (c−2) | unit of dense r×c blocks, r,c ∈ 2..=4 |
//! | 45, 46, 47  | unit of dense r×r blocks, r = 2, 3, 4, and its block row's diagonal triangle |
//! | 3..=35, 48..=63 | unassigned                            |
//!
//! Ids 4..=35 named the paper's 1-D runs (horizontal, vertical, diagonal,
//! anti-diagonal, each at strides 1..=8), which this crate does not encode
//! (DESIGN.md §5.2, "No 1-D runs"); a stream that carries one is malformed.
//!
//! A unit of ids 45..=47 is a square block unit anchored in row `r` whose
//! `m` blocks are followed by the `r(r − 1)/2` entries of the strict lower
//! triangle of the diagonal block below its anchor row: rows `r + 1 … r + R
//! − 1`, columns from `r`, row-major ([`triangle_len`]). An id, not a flag
//! bit, tells it apart, so the head costs no extra branch.

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

/// The substructure family CSX encodes (§IV-A, Fig. 6): dense blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
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
        let PatternKind::Block { rows, cols } = self;
        assert!((MIN_BLOCK_DIM..=MAX_BLOCK_DIM).contains(&rows));
        assert!((MIN_BLOCK_DIM..=MAX_BLOCK_DIM).contains(&cols));
        36 + 3 * (rows - 2) + (cols - 2)
    }

    /// The id of a unit of this kind's blocks that also carries its block
    /// row's diagonal triangle; `None` unless the blocks are square.
    pub(crate) fn triangle_id(self) -> Option<u8> {
        let PatternKind::Block { rows, cols } = self;
        (rows == cols).then(|| 45 + rows - MIN_BLOCK_DIM)
    }

    /// Decodes a 6-bit pattern id back into the kind of its blocks — a
    /// triangle unit's (45..=47) too; `None` for delta-unit ids (0..=2) and
    /// unassigned ids.
    #[inline(always)]
    pub fn from_id(id: u8) -> Option<PatternKind> {
        match id {
            36..=44 => {
                let k = id - 36;
                Some(PatternKind::Block {
                    rows: k / 3 + 2,
                    cols: k % 3 + 2,
                })
            }
            45..=47 => {
                let side = id - 45 + MIN_BLOCK_DIM;
                Some(PatternKind::Block {
                    rows: side,
                    cols: side,
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

    /// Coordinates of the `k`-th element of a block anchored at
    /// `(row, col)`, its top-left element; elements run row-major.
    #[inline(always)]
    pub fn element(&self, row: u32, col: u32, k: u32) -> (u32, u32) {
        let PatternKind::Block { cols, .. } = *self;
        (row + k / cols as u32, col + k % cols as u32)
    }
}

/// The number of diagonal-triangle values a unit of pattern `id` carries
/// after its blocks: `R(R − 1)/2` for ids 45..=47, 0 for every other id.
#[inline(always)]
pub fn triangle_len(id: u8) -> usize {
    match id {
        45..=47 => {
            let side = usize::from(id - 45 + MIN_BLOCK_DIM);
            side * (side - 1) / 2
        }
        _ => 0,
    }
}

/// Selects a unit kernel from a pattern id — the id table above as one
/// `match`, shared by every decoder. The caller supplies three macros:
/// `$delta!(W)` for a delta unit of byte width `W`, `$block!(R, C)` for a
/// unit of dense blocks, `$tri!(R)` for a unit of `R × R` blocks and its
/// diagonal triangle.
#[macro_export]
macro_rules! dispatch_unit {
    ($id:expr, $delta:ident, $block:ident, $tri:ident) => {
        match $id {
            0 => $delta!(1),
            1 => $delta!(2),
            2 => $delta!(4),
            36 => $block!(2, 2),
            37 => $block!(2, 3),
            38 => $block!(2, 4),
            39 => $block!(3, 2),
            40 => $block!(3, 3),
            41 => $block!(3, 4),
            42 => $block!(4, 2),
            43 => $block!(4, 3),
            44 => $block!(4, 4),
            45 => $tri!(2),
            46 => $tri!(3),
            47 => $tri!(4),
            _ => unreachable!("invalid pattern id in ctl stream"),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<PatternKind> {
        let mut v = Vec::new();
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
    fn triangle_ids_name_the_square_shapes() {
        let mut ids = Vec::new();
        for k in all_kinds() {
            let PatternKind::Block { rows, cols } = k;
            let Some(id) = k.triangle_id() else {
                assert_ne!(rows, cols, "{k:?}");
                continue;
            };
            assert_eq!(PatternKind::from_id(id), Some(k));
            assert_eq!(triangle_len(id), usize::from(rows * (rows - 1) / 2));
            assert_eq!(triangle_len(k.id()), 0);
            ids.push(id);
        }
        assert_eq!(ids, [45, 46, 47]);
        assert_eq!((0..=44).chain(48..64).map(triangle_len).sum::<usize>(), 0);
        // Every id `dispatch_unit!` accepts is named, and no other.
        macro_rules! delta {
            ($w:literal) => {
                0
            };
        }
        macro_rules! block {
            ($r:literal, $c:literal) => {
                $r * $c
            };
        }
        macro_rules! tri {
            ($r:literal) => {
                $r * $r + $r * ($r - 1) / 2
            };
        }
        for id in (0..=2).chain(36..=47) {
            let width = crate::dispatch_unit!(id, delta, block, tri);
            let kind = PatternKind::from_id(id);
            let elements = kind.map_or(0, |PatternKind::Block { rows, cols }| {
                usize::from(rows * cols) + triangle_len(id)
            });
            assert_eq!(width, elements, "{id}");
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
        let b = PatternKind::Block { rows: 2, cols: 3 };
        assert_eq!(b.element(4, 8, 0), (4, 8));
        assert_eq!(b.element(4, 8, 2), (4, 10));
        assert_eq!(b.element(4, 8, 3), (5, 8));
        assert_eq!(b.element(4, 8, 5), (5, 10));
    }
}
