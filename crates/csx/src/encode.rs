//! The `ctl` byte-stream encoder/decoder (§IV-A, Fig. 7).
//!
//! Stream grammar, per unit:
//!
//! ```text
//! flags: u8          bit 7 = NR (new row), bit 6 = RJMP, bits 0..=5 = id
//! [rjmp: varint]     present iff RJMP: extra empty rows jumped beyond 1
//! size:  u8          number of elements in the unit (1..=255)
//! ucol:  varint      anchor column; absolute after NR, else delta from the
//!                    previous unit's anchor column in the same row
//! [body]             delta units only: (size − 1) column deltas of the
//!                    unit's fixed byte width
//! ```
//!
//! The decoder starts *before* row 0, so the first unit always carries NR.
//! Values are stored separately, in unit-element order.
//!
//! The head of a unit is parsed in exactly one place, [`UnitCursor`], which
//! [`CtlStream::walk`] and both multiply kernels advance.

use crate::detect::{analyze, DetectConfig, Detected};
use crate::pattern::{DeltaWidth, PatternKind};
use crate::rows::RowView;
use crate::varint::{read_varint, write_varint};
use std::ops::Range;
use symspmv_sparse::{CooMatrix, CsrMatrix, Idx, Val};

/// Flags-byte bit for "unit starts a new row".
pub const NR_BIT: u8 = 0x80;
/// Flags-byte bit for "row jump varint present".
pub const RJMP_BIT: u8 = 0x40;
/// Mask extracting the 6-bit pattern id.
pub const ID_MASK: u8 = 0x3F;

/// An encoded CSX stream: control bytes plus values in unit order.
#[derive(Debug, Clone, PartialEq)]
pub struct CtlStream {
    /// Control byte stream.
    pub ctl: Vec<u8>,
    /// Non-zero values, ordered by unit and element within unit.
    pub values: Vec<Val>,
    /// Number of encoded non-zeros.
    pub nnz: usize,
}

/// One decoded unit header (used by the generic walker).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitHeader {
    /// Row the unit is anchored in.
    pub row: Idx,
    /// Anchor column.
    pub col: Idx,
    /// Substructure pattern, or `None` for a delta unit.
    pub kind: Option<PatternKind>,
    /// Element count.
    pub size: u32,
}

/// The head of one unit as the decoders see it.
#[derive(Debug, Clone, Copy)]
pub struct UnitHead {
    /// 6-bit pattern id.
    pub id: u8,
    /// Element count.
    pub size: usize,
    /// Row the unit is anchored in.
    pub row: usize,
    /// Anchor column.
    pub col: usize,
}

/// A decoder's position in a `ctl` stream, between two units.
pub struct UnitCursor<'a> {
    ctl: &'a [u8],
    pos: usize,
    row: usize,
    col: usize,
}

impl<'a> UnitCursor<'a> {
    /// A cursor before the stream's first unit.
    pub fn new(ctl: &'a [u8]) -> Self {
        UnitCursor {
            ctl,
            pos: 0,
            // Before row 0: the first unit's NR wraps this to its row.
            row: usize::MAX,
            col: 0,
        }
    }

    /// Parses the next unit's head — flags, `RJMP`, size, `ucol` — and
    /// resolves its anchor; `None` at the end of the stream. A delta unit's
    /// body must be taken with [`UnitCursor::body`] before the next call.
    #[inline(always)]
    pub fn next_unit(&mut self) -> Option<UnitHead> {
        let flags = *self.ctl.get(self.pos)?;
        self.pos += 1;
        if flags & NR_BIT != 0 {
            let extra = if flags & RJMP_BIT != 0 {
                read_varint(self.ctl, &mut self.pos) as usize
            } else {
                0
            };
            self.row = self.row.wrapping_add(1 + extra);
            self.col = 0;
        }
        let size = usize::from(self.ctl[self.pos]);
        self.pos += 1;
        self.col += read_varint(self.ctl, &mut self.pos) as usize;
        Some(UnitHead {
            id: flags & ID_MASK,
            size,
            row: self.row,
            col: self.col,
        })
    }

    /// The column deltas of the `size`-element delta unit just parsed.
    #[inline(always)]
    pub fn body<const W: usize>(&mut self, size: usize) -> &'a [[u8; W]] {
        let bytes = &self.ctl[self.pos..self.pos + W * (size - 1)];
        self.pos += bytes.len();
        bytes.as_chunks().0
    }
}

/// One little-endian column delta of a delta unit's body.
#[inline(always)]
pub fn delta_of<const W: usize>(bytes: &[u8; W]) -> usize {
    let mut le = [0u8; 4];
    le[..W].copy_from_slice(bytes);
    u32::from_le_bytes(le) as usize
}

/// An encoded stream and the counts that describe it.
#[derive(Debug, Clone, PartialEq)]
pub struct Encoded {
    /// Control bytes and values.
    pub stream: CtlStream,
    /// The second value array handed to the encoder, in stream order;
    /// empty without one.
    pub upper_values: Vec<Val>,
    /// Fraction of the non-zeros covered by substructure units.
    pub coverage: f64,
    /// Number of substructure units.
    pub substructure_units: usize,
    /// Number of delta units.
    pub delta_units: usize,
}

/// Detects and encodes the rows of `view`; `values` (and `upper`, if
/// given) are aligned with the view's column array.
pub fn encode_rows(
    view: RowView<'_>,
    config: &DetectConfig,
    values: &[Val],
    upper: Option<&[Val]>,
) -> Encoded {
    encode(view, &analyze(view, config), values, upper)
}

/// Encodes a detection result of `view`, row by row: the anchors of the
/// instances that start in a row and the delta units chunked from its
/// leftover entries are merged by anchor column. Each unit's values — from
/// `values` and, if given, from `upper`, both aligned with the view's
/// column array — are written as the unit is emitted.
pub fn encode(view: RowView<'_>, det: &Detected, values: &[Val], upper: Option<&[Val]>) -> Encoded {
    let cols = view.cols;
    let mut ctl = Vec::new();
    let mut vals = Vec::with_capacity(det.nnz);
    let mut upper_values = Vec::with_capacity(upper.map_or(0, |_| det.nnz));
    // Appends a run of entries' values (a copy call per short run costs more).
    let mut put = |entries: Range<usize>| {
        values[entries.clone()].iter().for_each(|&v| vals.push(v));
        if let Some(upper) = upper {
            upper[entries].iter().for_each(|&v| upper_values.push(v));
        }
    };
    let mut delta_units = 0usize;
    let mut prev_row: Option<Idx> = None;
    // The instances are sorted by anchor: those of a row follow those of
    // the rows before it.
    let mut instances = &det.instances[..];
    // Per-row scratch: the leftovers, in column order.
    let mut left: Vec<u32> = Vec::new();
    for row in view.first_row..view.end_row() {
        let anchors;
        (anchors, instances) =
            instances.split_at(instances.iter().take_while(|i| i.row == row).count());
        left.clear();
        left.extend(det.free(view.row(row)));
        let col_of = |e: u32| cols[e as usize];
        let (mut a, mut s) = (0usize, 0usize);
        let mut prev_col: Option<Idx> = None;
        while a < anchors.len() || s < left.len() {
            let inst = anchors.get(a);
            let (id, size, anchor, body) = match inst {
                Some(inst) if left.get(s).is_none_or(|&e| inst.col < col_of(e)) => {
                    a += 1;
                    inst.segments(&det.pool).for_each(&mut put);
                    (inst.kind.id(), inst.len as usize, inst.col, None)
                }
                _ => {
                    // Greedy chunking: width fixed by the first delta of
                    // the chunk, which later deltas must fit.
                    let rest = &left[s..];
                    let gap =
                        |k: usize| DeltaWidth::for_delta(col_of(rest[k]) - col_of(rest[k - 1]));
                    let width = rest.get(1).map_or(DeltaWidth::U8, |_| gap(1));
                    let mut e = 1usize;
                    while e < rest.len() && e < 255 && gap(e).bytes() <= width.bytes() {
                        e += 1;
                    }
                    s += e;
                    delta_units += 1;
                    let unit = &rest[..e];
                    unit.iter().for_each(|&e| put(e as usize..e as usize + 1));
                    let id = PatternKind::delta_id(width);
                    (id, e, col_of(unit[0]), Some((width, unit)))
                }
            };
            debug_assert!((1..=255).contains(&size));

            let mut flags = id;
            let mut jump = 0;
            if prev_col.is_none() {
                flags |= NR_BIT;
                jump = prev_row.map_or(row, |p| row - p - 1);
                if jump > 0 {
                    flags |= RJMP_BIT;
                }
                prev_row = Some(row);
            }
            ctl.push(flags);
            if jump > 0 {
                write_varint(&mut ctl, u64::from(jump));
            }
            ctl.push(size as u8);
            debug_assert!(prev_col.is_none_or(|p| anchor >= p), "anchors ascend");
            write_varint(&mut ctl, u64::from(anchor - prev_col.unwrap_or(0)));
            prev_col = Some(anchor);

            if let Some((width, unit)) = body {
                for w in unit.windows(2) {
                    let d = col_of(w[1]) - col_of(w[0]);
                    ctl.extend_from_slice(&d.to_le_bytes()[..width.bytes()]);
                }
            }
        }
    }
    debug_assert_eq!(vals.len(), det.nnz);
    Encoded {
        stream: CtlStream {
            ctl,
            nnz: vals.len(),
            values: vals,
        },
        upper_values,
        coverage: det.coverage(),
        substructure_units: det.instances.len(),
        delta_units,
    }
}

impl CtlStream {
    /// Walks the stream, invoking `on_unit` for each unit header and
    /// `on_element` for each element `(row, col, value)` in stream order.
    pub fn walk(
        &self,
        mut on_unit: impl FnMut(&UnitHeader),
        mut on_element: impl FnMut(Idx, Idx, Val),
    ) {
        let mut cursor = UnitCursor::new(&self.ctl);
        let mut values = self.values.iter();
        let mut next_value = || {
            *values
                .next()
                .unwrap_or_else(|| unreachable!("value stream shorter than the ctl stream"))
        };
        while let Some(unit) = cursor.next_unit() {
            let (row, col) = (unit.row as Idx, unit.col as Idx);
            let kind = PatternKind::from_id(unit.id);
            let width = PatternKind::delta_width_from_id(unit.id);
            on_unit(&UnitHeader {
                row,
                col,
                kind,
                size: unit.size as u32,
            });
            if let Some(kind) = kind {
                for k in 0..unit.size as u32 {
                    let (er, ec) = kind.element(row, col, k);
                    on_element(er, ec, next_value());
                }
                continue;
            }
            let mut c = unit.col;
            on_element(row, col, next_value());
            let mut step = |d: usize| {
                c += d;
                on_element(row, c as Idx, next_value());
            };
            macro_rules! gaps {
                ($w:literal) => {
                    (cursor.body::<$w>(unit.size).iter()).for_each(|d| step(delta_of(d)))
                };
            }
            match width {
                Some(DeltaWidth::U8) => gaps!(1),
                Some(DeltaWidth::U16) => gaps!(2),
                Some(DeltaWidth::U32) => gaps!(4),
                None => unreachable!("invalid pattern id in ctl stream"),
            }
        }
        debug_assert!(values.next().is_none(), "value stream length mismatch");
    }

    /// Decodes the full element list (testing / conversions).
    pub fn decode_elements(&self) -> Vec<(Idx, Idx, Val)> {
        let mut out = Vec::with_capacity(self.values.len());
        self.walk(|_| {}, |r, c, v| out.push((r, c, v)));
        out
    }

    /// Total bytes of the representation: ctl stream plus 8-byte values.
    pub fn size_bytes(&self) -> usize {
        self.ctl.len() + 8 * self.values.len()
    }
}

/// Encodes a COO matrix end-to-end (detect + encode) from the rows of
/// [`CsrMatrix::from_coo`]: triplets in any order, duplicates summed.
pub fn encode_coo(coo: &CooMatrix, config: &DetectConfig) -> CtlStream {
    let csr = CsrMatrix::from_coo(coo);
    let view = RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind());
    encode_rows(view, config, csr.values(), None).stream
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(coo: &CooMatrix) {
        let mut c = coo.clone();
        c.canonicalize();
        let cfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        let stream = encode_coo(&c, &cfg);
        let mut decoded = stream.decode_elements();
        decoded.sort_unstable_by_key(|&(r, col, _)| (r, col));
        let original: Vec<(Idx, Idx, Val)> = c.iter().collect();
        assert_eq!(decoded, original, "ctl round trip mismatch");
    }

    #[test]
    fn round_trip_simple_patterns() {
        // Horizontal run + scattered elements + an empty-row gap.
        let mut coo = CooMatrix::new(10, 10);
        for c in 2..8 {
            coo.push(0, c, c as Val);
        }
        coo.push(3, 1, -1.0);
        coo.push(3, 9, -2.0);
        coo.push(9, 0, 7.0);
        round_trip(&coo);
    }

    #[test]
    fn round_trip_vertical_crossing_rows() {
        let mut coo = CooMatrix::new(12, 12);
        for r in 1..9 {
            coo.push(r, 4, r as Val);
        }
        coo.push(2, 7, 1.0);
        round_trip(&coo);
    }

    #[test]
    fn round_trip_blocks_and_diagonals() {
        let mut coo = CooMatrix::new(16, 16);
        for r in 0..3 {
            for c in 0..3 {
                coo.push(r + 5, c + 5, (r * 3 + c) as Val + 1.0);
            }
        }
        for k in 0..6 {
            coo.push(k + 8, k, 0.5 * k as Val + 1.0);
        }
        round_trip(&coo);
    }

    #[test]
    fn round_trip_wide_deltas() {
        // Deltas requiring u16 and u32 widths.
        let mut coo = CooMatrix::new(5, 200_000);
        coo.push(0, 0, 1.0);
        coo.push(0, 10, 2.0); // u8 delta
        coo.push(0, 1_000, 3.0); // u16 delta
        coo.push(0, 150_000, 4.0); // u32 delta
        round_trip(&coo);
    }

    #[test]
    fn round_trip_empty_matrix() {
        let coo = CooMatrix::new(4, 4);
        round_trip(&coo);
        let cfg = DetectConfig::default();
        let s = encode_coo(&coo, &cfg);
        assert!(s.ctl.is_empty());
        assert_eq!(s.size_bytes(), 0);
    }

    #[test]
    fn round_trip_single_element() {
        let mut coo = CooMatrix::new(100, 100);
        coo.push(57, 93, 3.25);
        round_trip(&coo);
    }

    #[test]
    fn unit_headers_report_rows() {
        let mut coo = CooMatrix::new(6, 6);
        coo.push(1, 0, 1.0);
        coo.push(4, 2, 2.0);
        coo.canonicalize();
        let cfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        let stream = encode_coo(&coo, &cfg);
        let mut rows = Vec::new();
        stream.walk(|u| rows.push(u.row), |_, _, _| {});
        assert_eq!(rows, vec![1, 4]);
    }

    #[test]
    fn compresses_versus_csr() {
        // A matrix dominated by long horizontal runs must encode far
        // smaller than CSR's 12 bytes/nnz.
        let mut coo = CooMatrix::new(64, 512);
        for r in 0..64u32 {
            for c in 0..128u32 {
                coo.push(r, c + (r % 3), (r + c) as Val);
            }
        }
        coo.canonicalize();
        let cfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        let s = encode_coo(&coo, &cfg);
        let csr_bytes = 12 * coo.nnz() + 4 * 65;
        assert!(
            s.size_bytes() < csr_bytes * 3 / 4,
            "CSX {} vs CSR {csr_bytes}",
            s.size_bytes()
        );
        // Nearly all metadata gone: ctl should be tiny relative to colind.
        assert!(
            s.ctl.len() < coo.nnz(),
            "ctl {} bytes for {} nnz",
            s.ctl.len(),
            coo.nnz()
        );
    }

    #[test]
    fn round_trip_generated_matrix() {
        let coo = symspmv_sparse::gen::banded_random(300, 12, 8.0, 5);
        round_trip(&coo);
    }
}

#[cfg(test)]
mod jump_tests {
    use super::*;
    use symspmv_sparse::CooMatrix;

    #[test]
    fn huge_row_jump_uses_multibyte_varint() {
        // Row jump of ~200k needs a 3-byte varint in the RJMP field.
        let mut coo = CooMatrix::new(300_000, 4);
        coo.push(0, 1, 1.0);
        coo.push(250_000, 2, 2.0);
        coo.canonicalize();
        let cfg = DetectConfig::default();
        let stream = encode_coo(&coo, &cfg);
        let decoded = stream.decode_elements();
        assert_eq!(decoded, vec![(0, 1, 1.0), (250_000, 2, 2.0)]);
    }

    #[test]
    fn first_unit_far_from_row_zero() {
        let mut coo = CooMatrix::new(1_000, 3);
        coo.push(999, 0, 7.0);
        let cfg = DetectConfig::default();
        let stream = encode_coo(&coo, &cfg);
        assert_eq!(stream.decode_elements(), vec![(999, 0, 7.0)]);
        // Head must carry RJMP (jump of 1000 > 1).
        assert_ne!(stream.ctl[0] & RJMP_BIT, 0);
    }

    #[test]
    fn wide_anchor_column_varint() {
        let mut coo = CooMatrix::new(2, 3_000_000);
        coo.push(1, 2_999_999, 4.0);
        let cfg = DetectConfig::default();
        let stream = encode_coo(&coo, &cfg);
        assert_eq!(stream.decode_elements(), vec![(1, 2_999_999, 4.0)]);
    }

    #[test]
    fn many_units_in_one_row_use_column_deltas() {
        // Alternate substructure-eligible runs and isolated elements so
        // several units share a row; non-first units must decode via the
        // relative ucol path.
        let mut coo = CooMatrix::new(2, 4_000);
        for c in 0..8 {
            coo.push(0, c * 2, 1.0); // stride-2 horizontal run
        }
        coo.push(0, 1_000, 2.0);
        for c in 0..6 {
            coo.push(0, 2_000 + c, 3.0); // stride-1 horizontal run
        }
        coo.canonicalize();
        let cfg = DetectConfig {
            min_coverage: 0.0,
            ..DetectConfig::default()
        };
        let stream = encode_coo(&coo, &cfg);
        let mut units = 0;
        stream.walk(|_| units += 1, |_, _, _| {});
        assert!(units >= 3, "expected several units in the row, got {units}");
        let mut decoded = stream.decode_elements();
        decoded.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let expect: Vec<(u32, u32, f64)> = coo.iter().collect();
        assert_eq!(decoded, expect);
    }
}
