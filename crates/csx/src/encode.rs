//! The `ctl` byte-stream encoder/decoder (§IV-A, Fig. 7).
//!
//! Stream grammar, per unit:
//!
//! ```text
//! flags: u8          bit 7 = NR (new row), bit 6 = RJMP, bits 0..=5 = id
//! [rjmp: varint]     present iff RJMP: extra empty rows jumped beyond 1
//! size:  u8          1..=255: a delta unit's element count, a block
//!                    unit's block count m
//! ucol:  varint      anchor column (a block unit's: its first block's);
//!                    absolute after NR, else delta from the previous
//!                    unit's anchor column in the same row
//! [body]             delta unit: (size − 1) column deltas of the unit's
//!                    fixed byte width; `Block(R, C)` unit, with or
//!                    without a triangle: (m − 1) little-endian u16 gaps
//!                    between consecutive block anchors, each ≥ C
//! ```
//!
//! A block unit carries `m` same-shape blocks anchored in one row, their
//! values block after block, each row-major. A detection has one block
//! shape, and the encoder folds a row's consecutive blocks into one unit. It
//! starts a new one at a leftover entry between two blocks (its delta unit
//! comes between them in column order), at a gap over 65 535, at the 256th
//! block, and where the anchors cross the stream's first row as a column —
//! so a unit's blocks lie on one side of it wherever each block does, and
//! [`CtlStream::legal_split`] means what it means for one-block units.
//!
//! A square `Block(R, R)` unit anchored in row `r` may also carry its block
//! row's diagonal triangle (ids 45..=47): the `R(R − 1)/2` entries of rows
//! `r + 1 … r + R − 1` in columns `r …`, stored after the blocks, row by
//! row. The encoder puts it on a row's last block unit when the unit's
//! anchor column is at least the stream's first row, rows `r + 1 … r + R −
//! 1` lie in the view, and for each `i` in `1 … R − 1` the last `i` entries
//! of row `r + i` are left over (no block, no earlier triangle holds them)
//! and sit at columns `r … r + i − 1`; they then leave that row's delta
//! units. Every triangle entry's row and column are rows of the unit, so
//! the unit's columns stay on the direct side of the first row, and the
//! blocks end left of column `r`.
//!
//! The decoder starts *before* row 0, so the first unit always carries NR.
//! Values are stored separately, in unit-element order.
//!
//! [`encode_rows`] detects and emits in one row-ordered pass, the block
//! scan `R − 1` rows ahead: once rows `r … r + R − 1` are scanned, no later
//! block touches row `r`'s blocks, leftovers or triangle, and the row is
//! emitted, values and all (DESIGN.md §5.2, "One pass per chunk").
//!
//! The head of a unit is parsed in exactly one place, [`UnitCursor`], which
//! [`CtlStream::walk`] and both multiply kernels advance. It reads without
//! checks: a [`CtlStream`] comes only from [`encode_rows`], which checks
//! each unit as it emits it, or from [`CtlStream::validated`], which walks
//! the bytes with checks first (the `ctl-bound` invariant).

use crate::detect::{select_block, Block, DetectConfig, Scanner};
use crate::pattern::{triangle_len, DeltaWidth, PatternKind, MAX_BLOCK_DIM};
use crate::rows::RowView;
use crate::varint::write_varint;
use symspmv_sparse::{CooMatrix, CsrMatrix, Idx, SparseError, Val};

/// Flags-byte bit for "unit starts a new row".
pub const NR_BIT: u8 = 0x80;
/// Flags-byte bit for "row jump varint present".
pub const RJMP_BIT: u8 = 0x40;
/// Mask extracting the 6-bit pattern id.
pub const ID_MASK: u8 = 0x3F;

/// An encoded CSX stream: control bytes, values in unit order, and how far
/// its units reach.
///
/// Only [`encode_rows`] and the validating [`CtlStream::validated`] build
/// one, and there is no `&mut` access, so every stream holds the
/// `ctl-bound` invariant: `ctl` is a sequence of whole units (every head and body
/// inside it, the first unit starting a row); unit sizes lie in `1..=255`,
/// and the units' elements — a block unit's `size·R·C`, plus `R(R − 1)/2`
/// with a triangle — sum to `values.len()`; a triangle unit's blocks end
/// left of its anchor row as a column; every element's row
/// lies in [`CtlStream::first_row`]`..`[`CtlStream::row_end`] and its column
/// below [`CtlStream::col_end`]; and where [`CtlStream::legal_split`] is
/// `Some`, no substructure unit's blocks have columns on both sides of the
/// first row.
/// With one assert per call on those bounds, the decoders read the stream
/// and index their operands without further checks.
#[derive(Debug, Clone, PartialEq)]
pub struct CtlStream {
    ctl: Vec<u8>,
    values: Vec<Val>,
    extent: Extent,
}

/// How far a stream's units reach, gathered unit by unit as the stream is
/// encoded or validated.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Extent {
    first_row: usize,
    /// One past the largest row of any element (`first_row` when empty).
    row_end: usize,
    /// One past the largest column of any element (0 when empty).
    col_end: usize,
    /// A substructure unit's blocks have columns on both sides of
    /// `first_row` (a triangle's lie in rows of its unit, at or right of it).
    straddles: bool,
    /// Elements so far.
    elements: usize,
}

impl Extent {
    fn new(first_row: usize) -> Self {
        Extent {
            first_row,
            row_end: first_row,
            col_end: 0,
            straddles: false,
            elements: 0,
        }
    }

    /// Takes in the unit of pattern `id` and size byte `size` anchored at
    /// `(row, col)`; `last` is a delta unit's last column, or a block unit's
    /// last anchor. O(1): the unit's geometry follows from its head and
    /// `last`. A triangle unit reaches column `row + R − 2` and row `row +
    /// R − 1`, and is refused if its blocks reach column `row`.
    fn add(
        &mut self,
        id: u8,
        size: usize,
        row: usize,
        col: usize,
        last: usize,
    ) -> Result<(), String> {
        let at = || format!("unit {id} of size {size} at ({row}, {col})");
        if !(1..=255).contains(&size) || row < self.first_row {
            return Err(format!(
                "{}: size outside 1..=255 or row above {}",
                at(),
                self.first_row
            ));
        }
        let (mut elements, tri) = (size, triangle_len(id));
        // The last row; the blocks' last column, and the unit's.
        let (last_row, hi, reach) = match PatternKind::from_id(id) {
            _ if last < col => return Err(format!("{}: columns descend", at())),
            None if id <= 2 => (row, last, last),
            None => return Err(format!("{}: no such pattern", at())),
            Some(PatternKind::Block { rows, cols }) => {
                let (r, c) = (usize::from(rows), usize::from(cols));
                elements = size * r * c + tri;
                let hi = last + c - 1;
                if tri > 0 && hi >= row {
                    return Err(format!("{}: blocks reach the diagonal", at()));
                }
                let reach = if tri > 0 { row + r - 2 } else { hi };
                (row + r - 1, hi, reach)
            }
        };
        self.row_end = self.row_end.max(last_row + 1);
        self.col_end = self.col_end.max(reach + 1);
        self.straddles |= id > 2 && col < self.first_row && self.first_row <= hi;
        self.elements += elements;
        Ok(())
    }
}

/// One decoded unit header (used by the generic walker).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitHeader {
    /// Row the unit is anchored in.
    pub row: Idx,
    /// Anchor column (a block unit's: its first block's).
    pub col: Idx,
    /// Substructure pattern, or `None` for a delta unit.
    pub kind: Option<PatternKind>,
    /// Element count (a block unit's: all its blocks', and its triangle's).
    /// Not the size byte, which counts a block unit's blocks
    /// ([`UnitHead::size`]).
    pub elements: u32,
}

/// The head of one unit as the decoders see it.
#[derive(Debug, Clone, Copy)]
pub struct UnitHead {
    /// 6-bit pattern id.
    pub id: u8,
    /// The size byte: a delta unit's element count, a block unit's block
    /// count.
    pub size: usize,
    /// Row the unit is anchored in.
    pub row: usize,
    /// Anchor column (a block unit's: its first block's).
    pub col: usize,
}

/// A decoder's position in a `ctl` stream, between two units. Only
/// [`CtlStream::cursor`] makes one, so it walks a stream that holds
/// `ctl-bound` and reads it without checks; its caller keeps it at unit
/// boundaries by taking the body of every delta and block unit.
pub struct UnitCursor<'a> {
    ctl: &'a [u8],
    pos: usize,
    row: usize,
    col: usize,
}

impl<'a> UnitCursor<'a> {
    /// Parses the next unit's head — flags, `RJMP`, size, `ucol` — and
    /// resolves its anchor; `None` at the end of the stream.
    ///
    /// # Safety
    /// SAFETY(cert: ctl-bound): if the last unit returned was a delta or a
    /// block unit, its body has been taken with [`UnitCursor::body`], so the
    /// cursor stands at a unit boundary.
    #[inline(always)]
    pub unsafe fn next_unit(&mut self) -> Option<UnitHead> {
        if self.pos >= self.ctl.len() {
            return None;
        }
        let flags = self.byte();
        if flags & NR_BIT != 0 {
            let extra = if flags & RJMP_BIT != 0 {
                self.varint()
            } else {
                0
            };
            self.row = self.row.wrapping_add(1 + extra);
            self.col = 0;
        }
        let size = usize::from(self.byte());
        self.col += self.varint();
        Some(UnitHead {
            id: flags & ID_MASK,
            size,
            row: self.row,
            col: self.col,
        })
    }

    /// The body of the unit just parsed, of size byte `size`: a delta
    /// unit's `size − 1` column deltas, or a block unit's `size − 1` `u16`
    /// anchor gaps.
    ///
    /// # Safety
    /// SAFETY(cert: ctl-bound): the unit just parsed has size byte `size`
    /// and is a delta unit whose id names `W`-byte deltas or, with `W = 2`,
    /// a block unit; its body has not been taken yet.
    #[inline(always)]
    pub unsafe fn body<const W: usize>(&mut self, size: usize) -> &'a [[u8; W]] {
        let bytes = self.ctl.get_unchecked(self.pos..self.pos + W * (size - 1));
        self.pos += bytes.len();
        bytes.as_chunks().0
    }

    /// The byte under the cursor, which then passes it.
    ///
    /// # Safety
    /// SAFETY(cert: ctl-bound): the cursor stands inside a unit's head.
    #[inline(always)]
    unsafe fn byte(&mut self) -> u8 {
        let b = *self.ctl.get_unchecked(self.pos);
        self.pos += 1;
        b
    }

    /// The varint under the cursor ([`crate::varint::read_varint`] without
    /// its checks).
    ///
    /// # Safety
    /// SAFETY(cert: ctl-bound): the cursor stands at a varint of a unit's
    /// head, whose last byte lies inside `ctl`.
    #[inline(always)]
    unsafe fn varint(&mut self) -> usize {
        let mut b = self.byte();
        let mut v = usize::from(b & 0x7F);
        let mut shift = 7;
        while b & 0x80 != 0 {
            b = self.byte();
            v |= usize::from(b & 0x7F) << shift;
            shift += 7;
        }
        v
    }
}

/// One little-endian column delta of a delta unit's body, or one anchor gap
/// of a block unit's.
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
    /// Fraction of the non-zeros covered by substructure units — their
    /// blocks and diagonal triangles.
    pub coverage: f64,
    /// Number of detected substructure instances; a block unit carries up
    /// to 255 of them, so this is not a count of heads.
    pub substructure_units: usize,
    /// Number of delta units.
    pub delta_units: usize,
    /// Number of units in the stream — heads, substructure and delta.
    pub units: usize,
}

/// The value arrays, the second one if given, and their copies in stream
/// order.
struct Gather<'v>(&'v [Val], Option<&'v [Val]>, Vec<Val>, Vec<Val>);

impl Gather<'_> {
    /// Appends the values of `entries`, indices into the view's columns.
    fn put(&mut self, entries: impl Iterator<Item = usize> + Clone) {
        let values = self.0;
        self.2.extend(entries.clone().map(|e| values[e]));
        if let Some(upper) = self.1 {
            self.3.extend(entries.map(|e| upper[e]));
        }
    }

    /// Appends a block row's `C` values from entry `at` in one fixed-size
    /// copy, cheaper than a loop per short row.
    fn row<const C: usize>(&mut self, at: usize) {
        let row = |from: &[Val]| {
            let row = &from[at..at + C];
            std::array::from_fn::<Val, C, _>(|j| row[j])
        };
        self.2.extend(row(self.0));
        if let Some(upper) = self.1 {
            self.3.extend(row(upper));
        }
    }
}

/// Detects and encodes the rows of `view` in one row-ordered pass; `values`
/// (and `upper`, if given) are aligned with the view's column array. A
/// row's block anchors and the delta units of its leftovers are merged by
/// column, its consecutive blocks share a unit up to a break of the grammar,
/// and its last square block unit takes the row's triangle where allowed.
///
/// The stream's first row is the view's. Each unit is checked as it is
/// emitted, in O(1) per unit and block: sizes in `1..=255`, anchors and
/// delta columns ascending, block anchors a block width apart, the reach
/// folded into the stream's bounds; at the end, unit elements summing to the
/// values. Panics where a check fails, or on a `config` that
/// [`DetectConfig::validate`] refuses.
pub fn encode_rows(
    view: RowView<'_>,
    config: &DetectConfig,
    values: &[Val],
    upper: Option<&[Val]>,
) -> Encoded {
    if let Err(e) = config.validate() {
        panic!("{e}");
    }
    let block = select_block(view, config);
    let mut scan = Scanner::new(view, block, config.col_split);
    let kind = block.map(|(rows, cols)| PatternKind::Block { rows, cols });
    let (br, bc) = block.map_or((1, 0), |(r, c)| (usize::from(r), usize::from(c)));
    let cols = view.cols;
    let first = view.first_row;
    let nnz = view.nnz();
    let mut extent = Extent::new(first as usize);
    let mut ctl = Vec::new();
    let with = |n: usize| Vec::with_capacity(n);
    let mut out = Gather(values, upper, with(nnz), with(upper.map_or(0, |_| nnz)));
    let (mut units, mut delta_units, mut blocks) = (0usize, 0usize, 0usize);
    let mut prev_row: Option<Idx> = None;
    // The blocks anchored in the last `R` rows scanned, row `r`'s in slot
    // `(r − first) % R`: a row is emitted before the scan reuses its slot.
    let mut anchored: [Vec<Block>; MAX_BLOCK_DIM as usize] = Default::default();
    let slot = |r: Idx| (r - first) as usize % br;
    let mut scanned = first;
    // Per-row scratch: the leftovers, in column order; per-unit: its body.
    let (mut left, mut body): (Vec<u32>, Vec<u8>) = (Vec::new(), Vec::new());
    // Trailing entries of the rows `row + 1 …` that a triangle took, and
    // all the triangles' entries.
    let mut taken = [0usize; MAX_BLOCK_DIM as usize - 1];
    let mut triangles = 0usize;
    for row in view.first_row..view.end_row() {
        // Scan through row `row + R − 1`, the last its triangle takes.
        while scanned < view.end_row() && ((scanned - row) as usize) < br {
            let found = &mut anchored[slot(scanned)];
            found.clear();
            scan.scan_row(scanned, found);
            scanned += 1;
        }
        let anchors = &anchored[slot(row)][..];
        blocks += anchors.len();
        let entries = view.row(row);
        left.clear();
        scan.free(row, entries.start..entries.end - taken[0], &mut left);
        taken.rotate_left(1);
        taken[taken.len() - 1] = 0;
        let col_of = |e: u32| cols[e as usize];
        // Whether the rows below, all scanned, hold `row`'s diagonal
        // triangle: for each `i`, the last `i` entries of row `row + i` are
        // free, untaken and at columns `row … row + i − 1`.
        let triangle = |taken: &[usize]| {
            (1..br).all(|i| {
                let entries = view.row(row + i as Idx);
                let tail = entries.end.saturating_sub(i)..entries.end;
                taken[i - 1] == 0
                    && entries.len() >= i
                    && cols[tail.start] == row
                    && cols[tail.end - 1] == row + i as Idx - 1
                    && !tail.clone().any(|e| scan.taken(e))
            })
        };
        let (mut a, mut s) = (0usize, 0usize);
        let mut prev_col: Option<Idx> = None;
        while a < anchors.len() || s < left.len() {
            body.clear();
            let (id, size, anchor, last) = match (kind, anchors.get(a)) {
                (Some(kind), Some(inst)) if left.get(s).is_none_or(|&e| inst.col < col_of(e)) => {
                    let mut put_block = |b: &Block| {
                        for &t in &b.tops[..br] {
                            match bc {
                                2 => out.row::<2>(t as usize),
                                3 => out.row::<3>(t as usize),
                                _ => out.row::<4>(t as usize),
                            }
                        }
                    };
                    a += 1;
                    put_block(inst);
                    let (mut size, mut last) = (1, inst.col);
                    // The row's next blocks join while they lie on this side
                    // of the first row, no leftover lies between, the gap
                    // fits a `u16` and the unit has room.
                    while let Some(next) = anchors.get(a).filter(|next| {
                        size < 255
                            && left.get(s).is_none_or(|&e| next.col < col_of(e))
                            && (next.col < first) == (last < first)
                    }) {
                        let gap = next.col.saturating_sub(last);
                        assert!(gap >= bc as Idx, "encode: blocks overlap in row {row}");
                        let Ok(gap) = u16::try_from(gap) else { break };
                        body.extend_from_slice(&gap.to_le_bytes());
                        put_block(next);
                        (a, size, last) = (a + 1, size + 1, next.col);
                    }
                    let last_direct = a == anchors.len() && inst.col >= first;
                    let id = match kind.triangle_id() {
                        Some(id) if last_direct && triangle(&taken) => {
                            for i in 1..br {
                                let end = view.row(row + i as Idx).end;
                                out.put(end - i..end);
                                taken[i - 1] = i;
                                triangles += i;
                            }
                            id
                        }
                        _ => kind.id(),
                    };
                    (id, size, inst.col, last)
                }
                _ => {
                    // Greedy chunking: width fixed by the first delta of
                    // the chunk, which later deltas must fit.
                    let rest = &left[s..];
                    let delta = |k: usize| {
                        let (a, b) = (col_of(rest[k - 1]), col_of(rest[k]));
                        assert!(a < b, "encode: delta columns descend in row {row}");
                        b - a
                    };
                    let width = rest
                        .get(1)
                        .map_or(DeltaWidth::U8, |_| DeltaWidth::for_delta(delta(1)));
                    let mut e = 1usize;
                    while e < rest.len() && e < 255 {
                        let d = delta(e);
                        match width {
                            DeltaWidth::U8 if d < 1 << 8 => body.push(d as u8),
                            DeltaWidth::U16 if d < 1 << 16 => body.extend((d as u16).to_le_bytes()),
                            DeltaWidth::U32 => body.extend(d.to_le_bytes()),
                            _ => break,
                        }
                        e += 1;
                    }
                    s += e;
                    delta_units += 1;
                    let unit = &rest[..e];
                    out.put(unit.iter().map(|&e| e as usize));
                    let id = PatternKind::delta_id(width);
                    (id, e, col_of(unit[0]), col_of(unit[e - 1]))
                }
            };
            if let Err(e) = extent.add(id, size, row as usize, anchor as usize, last as usize) {
                panic!("encode: {e}");
            }
            units += 1;

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
            assert!(
                prev_col.is_none_or(|p| anchor >= p),
                "encode: anchors descend in row {row}"
            );
            write_varint(&mut ctl, u64::from(anchor - prev_col.unwrap_or(0)));
            prev_col = Some(anchor);
            ctl.extend_from_slice(&body);
        }
    }
    let Gather(_, _, values, upper_values) = out;
    debug_assert_eq!(values.len(), nnz);
    assert!(
        extent.elements == values.len() && upper.is_none_or(|_| upper_values.len() == values.len()),
        "encode: {} unit elements for {} values",
        extent.elements,
        values.len()
    );
    Encoded {
        stream: CtlStream {
            ctl,
            values,
            extent,
        },
        upper_values,
        coverage: (blocks * br * bc + triangles) as f64 / nnz.max(1) as f64,
        substructure_units: blocks,
        delta_units,
        units,
    }
}

impl CtlStream {
    /// Builds a stream from its parts — bytes from anywhere, a test's
    /// hand-built units say — by walking `ctl` with every read checked and
    /// gathering the bounds [`encode_rows`] records: the one way besides
    /// [`encode_rows`] to make a stream. Its units may not start above
    /// `first_row`, and their elements must sum to `values.len()`.
    pub fn validated(
        ctl: Vec<u8>,
        values: Vec<Val>,
        first_row: usize,
    ) -> Result<Self, SparseError> {
        match extent_of(&ctl, first_row, values.len()) {
            Ok(extent) => Ok(CtlStream {
                ctl,
                values,
                extent,
            }),
            Err(msg) => Err(SparseError::InvalidArgument {
                msg: format!("ctl stream: {msg}"),
            }),
        }
    }

    /// The control bytes.
    pub fn ctl(&self) -> &[u8] {
        &self.ctl
    }

    /// The non-zero values, ordered by unit and element within unit.
    pub fn values(&self) -> &[Val] {
        &self.values
    }

    /// Number of encoded non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row the stream was encoded from (its view's first row): no unit
    /// reaches above it.
    pub fn first_row(&self) -> usize {
        self.extent.first_row
    }

    /// One past the largest row any element reaches; the first row when
    /// the stream is empty.
    pub fn row_end(&self) -> usize {
        self.extent.row_end
    }

    /// One past the largest column any element reaches; 0 when the stream
    /// is empty.
    pub fn col_end(&self) -> usize {
        self.extent.col_end
    }

    /// The CSX-Sym legality split (§IV-B) the stream keeps: its first row,
    /// unless a substructure unit's blocks have columns on both sides of it
    /// (a triangle's columns are rows of its unit, never left of it).
    pub fn legal_split(&self) -> Option<usize> {
        (!self.extent.straddles).then_some(self.extent.first_row)
    }

    /// A cursor before the stream's first unit.
    pub fn cursor(&self) -> UnitCursor<'_> {
        UnitCursor {
            ctl: &self.ctl,
            pos: 0,
            // Before row 0: the first unit's NR wraps this to its row.
            row: usize::MAX,
            col: 0,
        }
    }

    /// Walks the stream, invoking `on_unit` for each unit header and
    /// `on_element` for each element `(row, col, value)` in stream order.
    pub fn walk(
        &self,
        mut on_unit: impl FnMut(&UnitHeader),
        mut on_element: impl FnMut(Idx, Idx, Val),
    ) {
        let mut cursor = self.cursor();
        let mut values = self.values.iter();
        let mut next_value = || {
            *values
                .next()
                .unwrap_or_else(|| unreachable!("value stream shorter than the ctl stream"))
        };
        // SAFETY(cert: ctl-bound): every delta and block unit's body is
        // taken below.
        while let Some(unit) = unsafe { cursor.next_unit() } {
            let (row, col) = (unit.row as Idx, unit.col as Idx);
            let kind = PatternKind::from_id(unit.id);
            let width = PatternKind::delta_width_from_id(unit.id);
            let block = match kind {
                Some(PatternKind::Block { rows, cols }) => u32::from(rows) * u32::from(cols),
                None => 1,
            };
            let tri = triangle_len(unit.id);
            on_unit(&UnitHeader {
                row,
                col,
                kind,
                elements: unit.size as u32 * block + tri as u32,
            });
            if let Some(kind) = kind {
                // SAFETY(cert: ctl-bound): the id names a block unit, whose
                // gaps are still ahead.
                let gaps = unsafe { cursor.body::<2>(unit.size) };
                let anchors = gaps.iter().scan(col, |c, d| {
                    *c += delta_of(d) as Idx;
                    Some(*c)
                });
                for c in std::iter::once(col).chain(anchors) {
                    for k in 0..block {
                        let (er, ec) = kind.element(row, c, k);
                        on_element(er, ec, next_value());
                    }
                }
                // The triangle, row by row: `i` entries in row `row + i`.
                let rows = (1..).flat_map(|i: Idx| (0..i).map(move |j| (row + i, row + j)));
                for (er, ec) in rows.take(tri) {
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
                    // SAFETY(cert: ctl-bound): the id names a delta unit of
                    // width `$w`, whose body is still ahead.
                    unsafe { cursor.body::<$w>(unit.size) }
                        .iter()
                        .for_each(|d| step(delta_of(d)))
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

/// The bounds of the units in `ctl`, read with every access checked, as the
/// cursor would decode them; their elements must sum to `values`.
fn extent_of(ctl: &[u8], first_row: usize, values: usize) -> Result<Extent, String> {
    let byte = |pos: &mut usize| {
        let b = ctl.get(*pos).copied();
        *pos += 1;
        b.ok_or_else(|| format!("unit cut off at byte {}", *pos - 1))
    };
    // At most five bytes and a `u32`, as the encoder writes them.
    let varint = |pos: &mut usize| {
        let mut v = 0u64;
        for shift in (0..35).step_by(7) {
            let b = byte(pos)?;
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return u32::try_from(v)
                    .map(|v| v as usize)
                    .map_err(|_| format!("varint {v}"));
            }
        }
        Err("varint longer than five bytes".to_string())
    };
    let mut extent = Extent::new(first_row);
    let (mut pos, mut row, mut col) = (0, None, 0);
    while pos < ctl.len() {
        let flags = byte(&mut pos)?;
        if flags & NR_BIT != 0 {
            let extra = if flags & RJMP_BIT != 0 {
                varint(&mut pos)?
            } else {
                0
            };
            row = Some(row.map_or(extra, |r: usize| r + 1 + extra));
            col = 0;
        }
        let r = row.ok_or("the first unit starts no row")?;
        let size = usize::from(byte(&mut pos)?);
        col += varint(&mut pos)?;
        let id = flags & ID_MASK;
        let mut last = col;
        // A body's byte width, and the least step it may take.
        let body = match PatternKind::from_id(id) {
            None if id <= 2 => Some((1 << id, 0)),
            Some(PatternKind::Block { cols, .. }) => Some((2, usize::from(cols))),
            _ => None,
        };
        if let Some((width, least)) = body {
            let len = width * size.saturating_sub(1);
            let body = ctl.get(pos..pos + len).ok_or("unit body cut off")?;
            pos += len;
            for d in body.chunks(width) {
                let mut le = [0u8; 4];
                le[..width].copy_from_slice(d);
                let d = u32::from_le_bytes(le) as usize;
                if d < least {
                    return Err(format!("blocks {d} columns apart at ({r}, {last})"));
                }
                last += d;
            }
        }
        extent.add(id, size, r, col, last)?;
    }
    match extent.elements == values {
        true => Ok(extent),
        false => Err(format!(
            "{} unit elements for {values} values",
            extent.elements
        )),
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
    use std::ops::Range;

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
        // A dense row segment + scattered elements + an empty-row gap.
        let mut coo = CooMatrix::new(10, 10);
        for c in 2..8 {
            coo.push(0, c, c as Val);
        }
        coo.push(3, 1, -1.0);
        coo.push(3, 9, -2.0);
        coo.push(9, 0, 7.0);
        round_trip(&coo);
    }

    /// A column segment across rows: delta units, one per row.
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
        assert!(s.ctl().is_empty());
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
        // A matrix dominated by rows of 3 × 3 blocks must encode far
        // smaller than CSR's 12 bytes/nnz.
        let mut coo = CooMatrix::new(63, 512);
        for r in 0..63u32 {
            for c in 0..128u32 {
                coo.push(r, c + 3 * (r / 3 % 2), (r + c) as Val);
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
            s.ctl().len() < coo.nnz(),
            "ctl {} bytes for {} nnz",
            s.ctl().len(),
            coo.nnz()
        );
    }

    /// The checked walk refuses every byte string the unchecked cursor
    /// could misread, and accepts the units the encoder writes.
    #[test]
    fn validated_refuses_malformed_streams() {
        let refused = |ctl: &[u8], values: usize, first_row: usize| {
            let stream = CtlStream::validated(ctl.to_vec(), vec![1.0; values], first_row);
            assert!(
                matches!(stream, Err(SparseError::InvalidArgument { .. })),
                "{ctl:?}"
            );
        };
        const NR: u8 = NR_BIT;
        // Row 0, size 2, column 3, one u8 delta of 4: columns 3 and 7.
        let good = [NR, 2, 3, 4];
        let stream = CtlStream::validated(good.to_vec(), vec![1.0; 2], 0).unwrap();
        assert_eq!((stream.row_end(), stream.col_end()), (1, 8));
        assert_eq!(stream.legal_split(), Some(0));
        refused(&good[..3], 2, 0); // body cut off
        refused(&good, 3, 0); // values the units do not cover
        refused(&[NR, 0, 3], 0, 0); // size 0
        refused(&[0, 1, 3], 1, 0); // the first unit starts no row
        refused(&[NR | 3, 1, 3], 1, 0); // id 3 is unassigned
        refused(&[NR | 45, 1, 3], 1, 0); // so is 45
        refused(&[NR | 4, 4, 2], 4, 0); // and 4 and 35, once 1-D runs
        refused(&[NR | 35, 4, 9], 4, 0);
        refused(&[NR | 40, 8, 3], 72, 0); // eight 3 × 3 blocks, no gaps
        refused(&[NR, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0], 1, 0); // six-byte varint
        refused(&[NR | RJMP_BIT, 2, 1, 0], 1, 3); // a unit at row 2 above row 3

        // A 2 × 2 block in rows 6..8 over columns 2..=3 straddles row 3 only.
        let block = [NR | RJMP_BIT | 36, 6, 1, 2];
        let split = |first_row| {
            let stream = CtlStream::validated(block.to_vec(), vec![1.0; 4], first_row);
            stream.unwrap().legal_split()
        };
        assert_eq!((split(2), split(3), split(6)), (Some(2), None, Some(6)));
    }

    /// The `ctl` bytes and values of `coo`'s rows `rows`, with `block`
    /// the one shape enabled (at coverage 0, so the statistics pass enables
    /// it) and `col_split` at the first row when `split`; they equal the
    /// oracle's, validate and decode to the rows' entries.
    fn grouped(coo: &CooMatrix, rows: Range<Idx>, block: (u8, u8), split: bool) -> Encoded {
        let csr = CsrMatrix::from_coo(coo);
        let view = RowView::new(0, csr.ncols(), csr.rowptr(), csr.colind()).slice(rows.clone());
        let config = DetectConfig {
            block_shapes: vec![block],
            min_coverage: 0.0,
            col_split: split.then_some(view.first_row),
            ..DetectConfig::default()
        };
        let encoded = encode_rows(view, &config, csr.values(), None);
        let old = crate::oracle::encode_with(view, &config, Some(block), &[csr.values()]);
        assert_eq!(encoded.stream.ctl(), old.ctl);
        assert_eq!(encoded.stream.values(), old.values[0]);
        assert_eq!(
            (encoded.coverage, encoded.substructure_units),
            (old.coverage, old.substructure_units)
        );
        assert_eq!(
            (encoded.delta_units, encoded.units),
            (old.delta_units, old.units)
        );
        let stream = &encoded.stream;
        let rebuilt = CtlStream::validated(
            stream.ctl().to_vec(),
            stream.values().to_vec(),
            view.first_row as usize,
        );
        assert_eq!(rebuilt.as_ref(), Ok(stream));
        let mut sorted = stream.decode_elements();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let want: Vec<_> = csr
            .to_coo()
            .iter()
            .filter(|e| rows.contains(&e.0))
            .collect();
        assert_eq!(sorted, want);
        encoded
    }

    /// `R × C` blocks anchored at `(row, col)` for each of `cols`, valued
    /// by position, in an `n × m` matrix.
    fn blocks(n: Idx, m: Idx, (r, c): (Idx, Idx), row: Idx, cols: &[Idx]) -> CooMatrix {
        let mut coo = CooMatrix::new(n, m);
        for &col in cols {
            for i in 0..r {
                for j in 0..c {
                    coo.push(row + i, col + j, f64::from((row + i) * m + col + j));
                }
            }
        }
        coo
    }

    const B33: (u8, u8) = (3, 3);
    const B22: (u8, u8) = (2, 2);

    #[test]
    fn a_row_of_three_blocks_is_one_head_and_two_gaps() {
        let coo = blocks(3, 16, (3, 3), 0, &[0, 3, 10]);
        let encoded = grouped(&coo, 0..3, B33, false);
        // Flags, block count 3, anchor 0, gaps 3 and 7.
        assert_eq!(encoded.stream.ctl(), [NR_BIT | 40, 3, 0, 3, 0, 7, 0]);
        assert_eq!((encoded.units, encoded.substructure_units), (1, 3));
        // Block after block, each row-major.
        let mut want = Vec::new();
        for c in [0, 3, 10] {
            for i in 0..3 {
                want.extend((0..3).map(|j| f64::from(i * 16 + c + j)));
            }
        }
        assert_eq!(encoded.stream.values(), want);
    }

    #[test]
    fn a_leftover_between_two_blocks_breaks_the_unit() {
        let mut coo = blocks(3, 16, (3, 3), 0, &[0, 5]);
        coo.push(0, 4, 1.0);
        let encoded = grouped(&coo, 0..3, B33, false);
        // Block at 0, a one-element delta unit at 4, a block at 5 (ucol 1).
        let ctl = [NR_BIT | 40, 1, 0, 0, 1, 4, 40, 1, 1];
        assert_eq!((encoded.stream.ctl(), encoded.units), (&ctl[..], 3));
        // The same leftover right of both blocks leaves them one unit.
        let mut coo = blocks(3, 16, (3, 3), 0, &[0, 5]);
        coo.push(0, 9, 1.0);
        let ctl = [NR_BIT | 40, 2, 0, 5, 0, 0, 1, 9];
        assert_eq!(grouped(&coo, 0..3, B33, false).stream.ctl(), ctl);
    }

    #[test]
    fn a_gap_over_65_535_breaks_the_unit() {
        let coo = blocks(2, 70_000, (2, 2), 0, &[0, 65_535]);
        let encoded = grouped(&coo, 0..2, B22, false);
        assert_eq!(encoded.stream.ctl(), [NR_BIT | 36, 2, 0, 0xFF, 0xFF]);
        let coo = blocks(2, 70_000, (2, 2), 0, &[0, 65_536]);
        let encoded = grouped(&coo, 0..2, B22, false);
        let mut ctl = vec![NR_BIT | 36, 1, 0, 36, 1];
        write_varint(&mut ctl, 65_536);
        assert_eq!((encoded.stream.ctl(), encoded.units), (&ctl[..], 2));
    }

    #[test]
    fn the_256th_block_starts_a_unit() {
        let anchors: Vec<Idx> = (0..256).map(|k| 2 * k).collect();
        let coo = blocks(2, 512, (2, 2), 0, &anchors);
        let encoded = grouped(&coo, 0..2, B22, false);
        let mut ctl = vec![NR_BIT | 36, 255, 0];
        (1..255).for_each(|_| ctl.extend([2, 0]));
        ctl.extend([36, 1]);
        write_varint(&mut ctl, 510);
        assert_eq!((encoded.stream.ctl(), encoded.units), (&ctl[..], 2));
    }

    #[test]
    fn blocks_either_side_of_the_first_row_keep_the_split_legal() {
        // Rows 8..12 of a matrix with 2 × 2 blocks in rows 10..12 at
        // columns 2 and 4, left of row 8, and 8, right of it.
        let coo = blocks(12, 12, (2, 2), 10, &[2, 4, 8]);
        let encoded = grouped(&coo, 8..12, B22, true);
        let ctl = [NR_BIT | RJMP_BIT | 36, 10, 2, 2, 2, 0, 36, 1, 6];
        assert_eq!((encoded.stream.ctl(), encoded.units), (&ctl[..], 2));
        assert_eq!(encoded.stream.legal_split(), Some(8));
    }

    /// A block unit's count and gaps are checked as its head is.
    #[test]
    fn validated_refuses_malformed_block_units() {
        const NR: u8 = NR_BIT;
        let check =
            |ctl: &[u8], values: usize| CtlStream::validated(ctl.to_vec(), vec![1.0; values], 0);
        // Two 3 × 3 blocks at columns 3 and 6.
        let stream = check(&[NR | 40, 2, 3, 3, 0], 18).unwrap();
        assert_eq!((stream.row_end(), stream.col_end()), (3, 9));
        let refused = |ctl: &[u8], values: usize| {
            let stream = check(ctl, values);
            assert!(
                matches!(stream, Err(SparseError::InvalidArgument { .. })),
                "{ctl:?}"
            );
        };
        refused(&[NR | 40, 0, 3], 0); // a block count of 0
        refused(&[NR | 40, 2, 3, 3], 18); // a gap cut off
        refused(&[NR | 40, 3, 3, 3, 0], 27); // the second gap missing
        refused(&[NR | 40, 2, 3, 2, 0], 18); // blocks 2 apart overlap
    }

    /// Adds the diagonal triangle of the `side × side` block row at `row`
    /// to `coo`, valued by position as [`blocks`] values them.
    fn triangle(mut coo: CooMatrix, row: Idx, side: Idx) -> CooMatrix {
        let m = coo.ncols();
        for i in 1..side {
            for j in 0..i {
                coo.push(row + i, row + j, f64::from((row + i) * m + row + j));
            }
        }
        coo
    }

    #[test]
    fn a_block_row_and_its_triangle_are_one_head() {
        // Rows 3..6: a 3 × 3 block at column 0 and entries (4, 3), (5, 3)
        // and (5, 4).
        let coo = triangle(blocks(6, 6, (3, 3), 3, &[0]), 3, 3);
        let encoded = grouped(&coo, 0..6, B33, false);
        assert_eq!(encoded.stream.ctl(), [NR_BIT | RJMP_BIT | 46, 3, 1, 0]);
        assert_eq!((encoded.units, encoded.delta_units), (1, 0));
        assert_eq!(encoded.coverage, 1.0);
        // The block row-major, then the triangle row by row.
        let mut want: Vec<Val> = (0..9).map(|k| f64::from((3 + k / 3) * 6 + k % 3)).collect();
        want.extend([4 * 6 + 3, 5 * 6 + 3, 5 * 6 + 4].map(f64::from));
        assert_eq!(encoded.stream.values(), want);
        let walked: Vec<_> = encoded.stream.decode_elements();
        let tail: Vec<_> = walked[9..].iter().map(|&(r, c, _)| (r, c)).collect();
        assert_eq!(tail, [(4, 3), (5, 3), (5, 4)]);
        assert_eq!((encoded.stream.row_end(), encoded.stream.col_end()), (6, 5));

        // Two 2 × 2 blocks of rows 6..8 and the entry (7, 6): one head, one
        // gap; the row's leftover left of the blocks keeps its delta unit.
        let mut coo = triangle(blocks(8, 8, (2, 2), 6, &[1, 4]), 6, 2);
        coo.push(6, 0, 1.0);
        let encoded = grouped(&coo, 0..8, B22, false);
        let ctl = [NR_BIT | RJMP_BIT, 6, 1, 0, 45, 2, 1, 3, 0];
        assert_eq!((encoded.stream.ctl(), encoded.units), (&ctl[..], 2));
    }

    #[test]
    fn a_missing_or_taken_triangle_entry_leaves_delta_units() {
        // (5, 3) missing: row 5 ends at a block entry and (5, 4).
        let mut coo = blocks(6, 6, (3, 3), 3, &[0]);
        coo.push(4, 3, 1.0);
        coo.push(5, 4, 2.0);
        let encoded = grouped(&coo, 0..6, B33, false);
        let (block, deltas) = (
            [NR_BIT | RJMP_BIT | 40, 3, 1, 0],
            [NR_BIT, 1, 3, NR_BIT, 1, 4],
        );
        let ctl = [&block[..], &deltas].concat();
        assert_eq!((encoded.stream.ctl(), encoded.delta_units), (&ctl[..], 2));
        assert_eq!(encoded.coverage, 9.0 / 11.0);

        // Block A at (6, 0) takes its triangle, (7, 6), (8, 6) and (8, 7).
        // Block B at (7, 3) is its row's last unit, but the last entry of
        // row 8 is A's: B's triangle is refused, and the entries of row 9
        // it would have taken, (9, 7) and (9, 8), stay one delta unit.
        let mut coo = blocks(10, 10, (3, 3), 6, &[0]);
        for (r, c, v) in blocks(10, 10, (3, 3), 7, &[3]).iter() {
            coo.push(r, c, v);
        }
        for (r, c) in [(7, 6), (8, 6), (8, 7), (9, 7), (9, 8)] {
            coo.push(r, c, f64::from(r * 10 + c));
        }
        let encoded = grouped(&coo, 0..10, B33, false);
        let a = [NR_BIT | RJMP_BIT | 46, 6, 1, 0];
        let b = [NR_BIT | 40, 1, 3];
        let row_9 = [NR_BIT | RJMP_BIT, 1, 2, 7, 1];
        let ctl: Vec<u8> = [&a[..], &b, &row_9].concat();
        assert_eq!((encoded.stream.ctl(), encoded.units), (&ctl[..], 3));
    }

    #[test]
    fn a_triangle_under_blocks_left_of_the_first_row_stays_in_delta_units() {
        // Rows 3..6 as a chunk from row 3: the block at column 0 lies left
        // of it, so its unit stays a plain block unit and the split legal.
        let coo = triangle(blocks(6, 6, (3, 3), 3, &[0]), 3, 3);
        let encoded = grouped(&coo, 3..6, B33, true);
        let (block, deltas) = (
            [NR_BIT | RJMP_BIT | 40, 3, 1, 0],
            [NR_BIT, 1, 3, NR_BIT, 2, 3, 1],
        );
        let ctl = [&block[..], &deltas].concat();
        assert_eq!((encoded.stream.ctl(), encoded.units), (&ctl[..], 3));
        assert_eq!(encoded.stream.legal_split(), Some(3));
        // From row 0 the same rows take the triangle.
        assert_eq!(grouped(&coo, 0..6, B33, true).units, 1);
    }

    #[test]
    fn a_block_row_cut_off_by_the_views_end_stays_in_delta_units() {
        // Rows 0..5 hold only rows 3 and 4 of the block row at 3: no block,
        // and its triangle entry (4, 3) is its row's delta unit's last.
        let coo = triangle(blocks(6, 6, (3, 3), 3, &[0]), 3, 3);
        let encoded = grouped(&coo, 0..5, B33, false);
        let ctl = [NR_BIT | RJMP_BIT, 3, 3, 0, 1, 1, NR_BIT, 4, 0, 1, 1, 1];
        assert_eq!((encoded.stream.ctl(), encoded.units), (&ctl[..], 2));
        assert_eq!(encoded.coverage, 0.0);
    }

    #[test]
    fn a_triangle_is_decided_once_the_rows_it_takes_are_scanned() {
        // Block A at (6, 0) and the entries (7, 6), (8, 6), (8, 7) of its
        // triangle; block B at (7, 4), anchored in the row below A's, takes
        // (7, 6) and (8, 6): A stays a plain block unit, and (8, 7) — B's
        // triangle would need (9, 7) and (9, 8) — is a delta unit.
        let mut coo = triangle(blocks(10, 10, (3, 3), 6, &[0]), 6, 3);
        for (r, c, v) in blocks(10, 10, (3, 3), 7, &[4]).iter() {
            if !(6..=7).contains(&c) || !(7..=8).contains(&r) {
                coo.push(r, c, v);
            }
        }
        let encoded = grouped(&coo, 0..10, B33, false);
        let ctl = [
            NR_BIT | RJMP_BIT | 40,
            6,
            1,
            0,
            NR_BIT | 40,
            1,
            4,
            NR_BIT,
            1,
            7,
        ];
        assert_eq!((encoded.stream.ctl(), encoded.units), (&ctl[..], 3));

        // Block C at (8, 5), anchored two rows below A's, takes (8, 6) and
        // (8, 7): A's triangle is refused only once row 8 is scanned, and
        // (7, 6) is a delta unit.
        let mut coo = blocks(11, 11, (3, 3), 6, &[0]);
        for (r, c, v) in blocks(11, 11, (3, 3), 8, &[5]).iter() {
            coo.push(r, c, v);
        }
        coo.push(7, 6, 1.0);
        let encoded = grouped(&coo, 0..11, B33, false);
        let ctl = [
            NR_BIT | RJMP_BIT | 40,
            6,
            1,
            0,
            NR_BIT,
            1,
            6,
            NR_BIT | 40,
            1,
            5,
        ];
        assert_eq!((encoded.stream.ctl(), encoded.units), (&ctl[..], 3));
    }

    /// Block rows of 3 × 3 blocks at rows 3, 6 and 9 of a 12 × 12 lower
    /// triangle — at column 0; 0 and 3; 3 — each with its diagonal
    /// triangle.
    fn block_rows() -> CooMatrix {
        let mut coo = CooMatrix::new(12, 12);
        for (row, cols) in [(3, &[0][..]), (6, &[0, 3]), (9, &[3])] {
            let rows = triangle(blocks(12, 12, (3, 3), row, cols), row, 3);
            for (r, c, v) in rows.iter() {
                coo.push(r, c, v);
            }
        }
        coo
    }

    #[test]
    fn a_view_from_the_second_row_of_a_block_row() {
        // Rows 4..12 as a chunk. Rows 4 and 5 of the first block row and
        // row 6 of the next tile a block at (4, 0), left of the first row;
        // (4, 3), (5, 3) and (5, 4) stay delta units. The block at (6, 3)
        // is pruned ((6, 2) is left of it, (5, 3) above), so rows 6 to 8
        // are delta units, and the block at (9, 3) straddles the split.
        let encoded = grouped(&block_rows(), 4..12, B33, true);
        let block = [NR_BIT | RJMP_BIT | 40, 4, 1, 0, 0, 1, 3];
        let rows_5_to_8 = [
            &[NR_BIT, 2, 3, 1][..],
            &[NR_BIT, 3, 3, 1, 1],
            &[NR_BIT, 7, 0, 1, 1, 1, 1, 1, 1],
            &[NR_BIT, 8, 0, 1, 1, 1, 1, 1, 1, 1],
        ];
        let rows_9_to_11 = [NR_BIT, 3, 3, 1, 1, NR_BIT, 4, 3, 1, 1, 4];
        let row_11 = [NR_BIT, 5, 3, 1, 1, 4, 1];
        let ctl = [&block[..], &rows_5_to_8.concat(), &rows_9_to_11, &row_11].concat();
        assert_eq!(encoded.stream.ctl(), ctl);
        assert_eq!(encoded.stream.legal_split(), Some(4));
    }

    #[test]
    fn a_view_that_ends_inside_a_block_row() {
        // Rows 0..8: the block row at 3 is one head with its triangle; rows
        // 6 and 7 of the one at 6 lack their third row, so no block anchors
        // there and both rows are delta units.
        let encoded = grouped(&block_rows(), 0..8, B33, false);
        let block_row = [NR_BIT | RJMP_BIT | 46, 3, 1, 0];
        let rows_6_and_7 = [
            &[NR_BIT | RJMP_BIT, 2, 6, 0, 1, 1, 1, 1, 1][..],
            &[NR_BIT, 7, 0, 1, 1, 1, 1, 1, 1],
        ];
        assert_eq!(
            encoded.stream.ctl(),
            [&block_row[..], &rows_6_and_7.concat()].concat()
        );
    }

    #[test]
    fn a_block_row_with_an_empty_middle_row() {
        // The block row at 3 with row 4 empty: no block anchors in row 3,
        // whose entries are a delta unit. Rows 5, 6 and 7 tile a block at
        // (5, 0), and (6, 5), (7, 5) and (7, 6) — the block row at 6's —
        // are its triangle; the block at (6, 3) is pruned, so the rest of
        // rows 5 to 8 are delta units, and the block row at 9 is one head.
        let mut coo = CooMatrix::new(12, 12);
        for (r, c, v) in block_rows().iter().filter(|&(r, _, _)| r != 4) {
            coo.push(r, c, v);
        }
        let encoded = grouped(&coo, 0..12, B33, false);
        let rows_3_to_8 = [
            &[NR_BIT | RJMP_BIT, 3, 3, 0, 1, 1][..],
            &[NR_BIT | RJMP_BIT | 46, 1, 1, 0, 0, 2, 3, 1],
            &[NR_BIT, 2, 3, 1, NR_BIT, 2, 3, 1],
            &[NR_BIT, 8, 0, 1, 1, 1, 1, 1, 1, 1],
        ];
        let ctl = [&rows_3_to_8.concat()[..], &[NR_BIT | 46, 1, 3]].concat();
        assert_eq!(encoded.stream.ctl(), ctl);
    }

    /// A triangle unit's blocks end left of its anchor row, and its values
    /// include the triangle's.
    #[test]
    fn validated_refuses_malformed_triangle_units() {
        const NR: u8 = NR_BIT | RJMP_BIT;
        let check = |ctl: &[u8], values: usize, first_row: usize| {
            CtlStream::validated(ctl.to_vec(), vec![1.0; values], first_row)
        };
        // A 3 × 3 block at (3, 0) and its triangle: 9 + 3 values, columns
        // up to 4.
        let good = [NR | 46, 3, 1, 0];
        let stream = check(&good, 12, 0).unwrap();
        assert_eq!((stream.row_end(), stream.col_end()), (6, 5));
        // Its blocks, not its triangle, count for the split: left of row 3.
        let split = |first_row| check(&good, 12, first_row).unwrap().legal_split();
        assert_eq!((split(0), split(1), split(3)), (Some(0), None, Some(3)));
        let refused = |ctl: &[u8], values: usize| {
            let stream = check(ctl, values, 0);
            assert!(
                matches!(stream, Err(SparseError::InvalidArgument { .. })),
                "{ctl:?}"
            );
        };
        refused(&good, 9); // the triangle's values missing
        refused(&good, 11);
        refused(&[NR | 46, 3, 1, 1], 12); // a block reaching column 3
        refused(&[NR | 46, 3, 2, 0, 2, 0], 21); // a second block, overlapping
        refused(&[NR | 46, 3, 2, 0, 3, 0], 21); // apart, but reaching column 3
                                                // Two 2 × 2 blocks in row 4 end at column 3: accepted.
        assert!(check(&[NR | 45, 4, 2, 0, 2, 0], 9, 0).is_ok());
        refused(&[NR | 48, 3, 1, 0], 12); // 48 is unassigned
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
        assert_ne!(stream.ctl()[0] & RJMP_BIT, 0);
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
        // Alternate blocks and isolated elements so several units share a
        // row; non-first units must decode via the relative ucol path.
        let mut coo = CooMatrix::new(2, 4_000);
        for (r, c) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            coo.push(r, c, 1.0); // a 2 × 2 block
            coo.push(r, 2_000 + c, 3.0); // another, beyond a wide gap
        }
        coo.push(0, 1_000, 2.0);
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
