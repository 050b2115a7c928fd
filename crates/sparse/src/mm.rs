//! MatrixMarket coordinate-format I/O.
//!
//! Supports the subset needed for the paper's matrix suite: `matrix
//! coordinate` files with `real`, `integer` or `pattern` fields and
//! `general`, `symmetric` or `skew-symmetric` symmetry. Symmetric files
//! are expanded to the full matrix on load (the storage formats re-extract
//! the lower triangle themselves); skew-symmetric files mirror each strict
//! lower entry `(r, c, v)` to `(c, r, -v)` and must not store diagonal
//! entries (the diagonal of a skew-symmetric matrix is identically zero).

use crate::coo::CooMatrix;
use crate::error::SparseError;
use crate::symmetry::SymmetryKind;
use crate::Idx;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Field type of a MatrixMarket file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmField {
    /// Real-valued entries.
    Real,
    /// Integer-valued entries (parsed as f64).
    Integer,
    /// Pattern-only entries (values set to 1.0).
    Pattern,
}

/// Symmetry declaration of a MatrixMarket file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmSymmetry {
    /// All entries stored explicitly.
    General,
    /// Only the lower triangle stored; mirrored on load.
    Symmetric,
    /// Only the strict lower triangle stored; mirrored with a sign flip on
    /// load. Diagonal entries are forbidden.
    SkewSymmetric,
}

/// Parsed MatrixMarket header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmHeader {
    /// Field type (real/integer/pattern).
    pub field: MmField,
    /// Symmetry (general/symmetric/skew-symmetric).
    pub symmetry: MmSymmetry,
}

impl MmSymmetry {
    /// The [`SymmetryKind`] a half-storage kernel should be built with, or
    /// `None` for `general` files (no symmetry to exploit — `structural`
    /// can only be asserted by the caller, never inferred from the header).
    pub fn kind(self) -> Option<SymmetryKind> {
        match self {
            MmSymmetry::General => None,
            MmSymmetry::Symmetric => Some(SymmetryKind::Symmetric),
            MmSymmetry::SkewSymmetric => Some(SymmetryKind::Skew),
        }
    }
}

/// Reads a MatrixMarket matrix from any reader.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<(CooMatrix, MmHeader), SparseError> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines().enumerate();

    // Header line.
    let (lineno, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (i + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: 1,
                    msg: "empty file".into(),
                });
            }
        }
    };
    let toks: Vec<&str> = header.split_whitespace().collect();
    if toks.len() < 5 || !toks[0].eq_ignore_ascii_case("%%MatrixMarket") {
        return Err(SparseError::Parse {
            line: lineno,
            msg: format!("bad MatrixMarket banner: {header:?}"),
        });
    }
    if !toks[1].eq_ignore_ascii_case("matrix") || !toks[2].eq_ignore_ascii_case("coordinate") {
        return Err(SparseError::Parse {
            line: lineno,
            msg: "only `matrix coordinate` files are supported".into(),
        });
    }
    let field = match toks[3].to_ascii_lowercase().as_str() {
        "real" => MmField::Real,
        "integer" => MmField::Integer,
        "pattern" => MmField::Pattern,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!("unsupported field type {other:?}"),
            })
        }
    };
    let symmetry = match toks[4].to_ascii_lowercase().as_str() {
        "general" => MmSymmetry::General,
        "symmetric" => MmSymmetry::Symmetric,
        "skew-symmetric" => MmSymmetry::SkewSymmetric,
        other => {
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!("unsupported symmetry {other:?}"),
            })
        }
    };
    if symmetry == MmSymmetry::SkewSymmetric && field == MmField::Pattern {
        // A pattern file carries no signs, so the mirrored `-v` entries
        // would be meaningless; the MM spec restricts `skew-symmetric` to
        // valued fields.
        return Err(SparseError::Parse {
            line: lineno,
            msg: "`pattern` field cannot be combined with `skew-symmetric`".into(),
        });
    }

    // Size line (skipping comments).
    let (size_lineno, size_line) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (i + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: lineno,
                    msg: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: size_lineno,
            msg: format!("size line must have 3 fields, got {:?}", dims.len()),
        });
    }
    let parse_dim = |s: &str, what: &str| -> Result<u64, SparseError> {
        s.parse::<u64>().map_err(|_| SparseError::Parse {
            line: size_lineno,
            msg: format!("bad {what}: {s:?}"),
        })
    };
    // The casts are checked: a file declaring dimensions beyond the 4-byte
    // index type must fail loudly, not truncate into a smaller matrix.
    let nrows = checked_idx(parse_dim(dims[0], "row count")?, "row count")?;
    let ncols = checked_idx(parse_dim(dims[1], "column count")?, "column count")?;
    let nnz64 = parse_dim(dims[2], "nnz count")?;
    let nnz = usize::try_from(nnz64).map_err(|_| SparseError::IndexOverflow {
        what: "nnz count",
        value: nnz64,
        max: usize::MAX as u64,
    })?;

    let expansion: usize = if symmetry == MmSymmetry::General {
        1
    } else {
        2
    };
    // Cap the pre-reservation so a lying header cannot OOM the process
    // before a single entry is read; the vectors grow on demand past this.
    const MAX_PREALLOC_ENTRIES: usize = 1 << 24;
    let cap = nnz.saturating_mul(expansion).min(MAX_PREALLOC_ENTRIES);
    let mut coo = CooMatrix::with_capacity(nrows, ncols, cap);
    let mut seen = 0usize;
    for (i, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let lineno = i + 1;
        let mut index = |what: &'static str| -> Result<Idx, SparseError> {
            let raw = it
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .filter(|&v| v >= 1)
                .ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    msg: format!("bad {what}"),
                })?;
            checked_idx(raw - 1, what)
        };
        let r = index("row index")?;
        let c = index("column index")?;
        let v = match field {
            MmField::Pattern => 1.0,
            _ => it
                .next()
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| SparseError::Parse {
                    line: lineno,
                    msg: "bad value".into(),
                })?,
        };
        if !v.is_finite() {
            return Err(SparseError::NonFiniteValue {
                row: r,
                col: c,
                value: v,
            });
        }
        if r >= nrows || c >= ncols {
            return Err(SparseError::IndexOutOfBounds {
                row: r,
                col: c,
                nrows,
                ncols,
            });
        }
        if symmetry != MmSymmetry::General && c > r {
            // The MatrixMarket spec mandates lower-triangle-only storage
            // for `symmetric` and `skew-symmetric` files; mirroring an
            // upper entry anyway would silently double-count it against
            // its lower twin.
            return Err(SparseError::UpperTriangleInSymmetric {
                line: lineno,
                row: r,
                col: c,
            });
        }
        if symmetry == MmSymmetry::SkewSymmetric && c == r {
            return Err(SparseError::DiagonalInSkewSymmetric {
                line: lineno,
                row: r,
            });
        }
        if seen == nnz {
            // Fail fast on the first surplus entry instead of buffering an
            // unbounded tail.
            return Err(SparseError::Parse {
                line: lineno,
                msg: format!("more entries than the declared {nnz}"),
            });
        }
        coo.push(r, c, v);
        match symmetry {
            MmSymmetry::General => {}
            MmSymmetry::Symmetric => {
                if r != c {
                    coo.push(c, r, v);
                }
            }
            MmSymmetry::SkewSymmetric => coo.push(c, r, -v),
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse {
            line: size_lineno,
            msg: format!("truncated file: declared {nnz} entries but found {seen}"),
        });
    }
    coo.canonicalize();
    Ok((coo, MmHeader { field, symmetry }))
}

/// Reads a MatrixMarket matrix from a file path.
pub fn read_matrix_market_file<P: AsRef<Path>>(
    path: P,
) -> Result<(CooMatrix, MmHeader), SparseError> {
    let f = std::fs::File::open(path)?;
    read_matrix_market(f)
}

/// Writes a matrix in MatrixMarket coordinate format.
///
/// When `symmetric` is set, only the lower triangle (incl. diagonal) is
/// emitted and the header declares `symmetric`; the caller is responsible
/// for the matrix actually being symmetric.
pub fn write_matrix_market<W: Write>(
    w: &mut W,
    coo: &CooMatrix,
    symmetric: bool,
) -> Result<(), SparseError> {
    let symmetry = if symmetric {
        MmSymmetry::Symmetric
    } else {
        MmSymmetry::General
    };
    write_matrix_market_as(w, coo, symmetry)
}

/// Writes a matrix in MatrixMarket coordinate format under an explicit
/// symmetry declaration.
///
/// `Symmetric` emits the lower triangle (incl. diagonal); `SkewSymmetric`
/// emits the strict lower triangle only (diagonal and sign-flipped upper
/// entries are implied by the format). The caller is responsible for the
/// matrix actually having the declared symmetry; skew matrices with a
/// nonzero diagonal are rejected because the format cannot represent one.
pub fn write_matrix_market_as<W: Write>(
    w: &mut W,
    coo: &CooMatrix,
    symmetry: MmSymmetry,
) -> Result<(), SparseError> {
    let sym = match symmetry {
        MmSymmetry::General => "general",
        MmSymmetry::Symmetric => "symmetric",
        MmSymmetry::SkewSymmetric => "skew-symmetric",
    };
    writeln!(w, "%%MatrixMarket matrix coordinate real {sym}")?;
    let entries: Vec<(Idx, Idx, f64)> = coo
        .iter()
        .filter(|&(r, c, v)| match symmetry {
            MmSymmetry::General => true,
            MmSymmetry::Symmetric => c <= r,
            MmSymmetry::SkewSymmetric => c < r || (c == r && v != 0.0),
        })
        .collect();
    if symmetry == MmSymmetry::SkewSymmetric {
        if let Some(&(r, _, v)) = entries.iter().find(|&&(r, c, _)| r == c) {
            return Err(SparseError::SkewNonzeroDiagonal { row: r, value: v });
        }
    }
    writeln!(w, "{} {} {}", coo.nrows(), coo.ncols(), entries.len())?;
    for (r, c, v) in entries {
        writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
    }
    Ok(())
}

/// Converts a `u64` parsed from the file into the 4-byte index type,
/// reporting [`SparseError::IndexOverflow`] with context on failure.
fn checked_idx(value: u64, what: &'static str) -> Result<Idx, SparseError> {
    Idx::try_from(value).map_err(|_| SparseError::IndexOverflow {
        what,
        value,
        max: Idx::MAX as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_idx_reports_overflow() {
        assert_eq!(checked_idx(7, "row count"), Ok(7));
        let err = checked_idx(u64::from(Idx::MAX) + 1, "row count").unwrap_err();
        assert!(matches!(
            err,
            SparseError::IndexOverflow {
                what: "row count",
                ..
            }
        ));
    }

    #[test]
    fn header_symmetry_maps_to_kind() {
        assert_eq!(MmSymmetry::General.kind(), None);
        assert_eq!(MmSymmetry::Symmetric.kind(), Some(SymmetryKind::Symmetric));
        assert_eq!(MmSymmetry::SkewSymmetric.kind(), Some(SymmetryKind::Skew));
    }

    #[test]
    fn parse_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 3 2\n\
                    1 1 1.5\n\
                    3 2 -2.0\n";
        let (coo, hdr) = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(hdr.field, MmField::Real);
        assert_eq!(hdr.symmetry, MmSymmetry::General);
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.find(0, 0), Some(1.5));
        assert_eq!(coo.find(2, 1), Some(-2.0));
    }

    #[test]
    fn parse_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n\
                    1 1 4.0\n\
                    2 1 1.0\n";
        let (coo, _) = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(coo.nnz(), 3);
        assert_eq!(coo.find(0, 1), Some(1.0));
        assert_eq!(coo.find(1, 0), Some(1.0));
        assert!(coo.is_symmetric(0.0));
    }

    #[test]
    fn parse_skew_symmetric_expands_with_sign_flip() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    3 3 2\n\
                    2 1 4.0\n\
                    3 2 -1.5\n";
        let (coo, hdr) = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(hdr.symmetry, MmSymmetry::SkewSymmetric);
        assert_eq!(coo.nnz(), 4);
        assert_eq!(coo.find(1, 0), Some(4.0));
        assert_eq!(coo.find(0, 1), Some(-4.0));
        assert_eq!(coo.find(2, 1), Some(-1.5));
        assert_eq!(coo.find(1, 2), Some(1.5));
        assert!(coo.is_skew_symmetric(0.0));
    }

    #[test]
    fn skew_diagonal_entry_rejected() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 2\n\
                    2 1 4.0\n\
                    2 2 0.0\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::DiagonalInSkewSymmetric { line: 4, row: 1 })
        ));
    }

    #[test]
    fn skew_upper_triangle_rejected() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n\
                    2 2 1\n\
                    1 2 -4.0\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::UpperTriangleInSymmetric { .. })
        ));
    }

    #[test]
    fn skew_pattern_field_rejected() {
        let text = "%%MatrixMarket matrix coordinate pattern skew-symmetric\n\
                    2 2 1\n\
                    2 1\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::Parse { .. })
        ));
    }

    #[test]
    fn write_read_round_trip_skew() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(1, 0, 4.0);
        coo.push(0, 1, -4.0);
        coo.push(2, 1, -1.5);
        coo.push(1, 2, 1.5);
        coo.canonicalize();

        let mut buf = Vec::new();
        write_matrix_market_as(&mut buf, &coo, MmSymmetry::SkewSymmetric).unwrap();
        let (back, hdr) = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(hdr.symmetry, MmSymmetry::SkewSymmetric);
        assert_eq!(back, coo);
    }

    #[test]
    fn write_skew_nonzero_diagonal_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 0, 4.0);
        coo.push(0, 1, -4.0);
        coo.push(0, 0, 3.0);
        coo.canonicalize();
        let mut buf = Vec::new();
        assert!(matches!(
            write_matrix_market_as(&mut buf, &coo, MmSymmetry::SkewSymmetric),
            Err(SparseError::SkewNonzeroDiagonal { row: 0, .. })
        ));
    }

    #[test]
    fn parse_pattern() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 2 1\n\
                    2 2\n";
        let (coo, hdr) = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(hdr.field, MmField::Pattern);
        assert_eq!(coo.find(1, 1), Some(1.0));
    }

    #[test]
    fn nnz_mismatch_rejected() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(matches!(
            read_matrix_market(text.as_bytes()),
            Err(SparseError::Parse { .. })
        ));
    }

    #[test]
    fn bad_banner_rejected() {
        let text = "%%NotMatrixMarket nope\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn zero_based_indices_rejected() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn write_read_round_trip_symmetric() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(1, 0, -1.0);
        coo.push(0, 1, -1.0);
        coo.push(2, 2, 5.0);
        coo.canonicalize();

        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &coo, true).unwrap();
        let (back, hdr) = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(hdr.symmetry, MmSymmetry::Symmetric);
        assert_eq!(back, coo);
    }

    #[test]
    fn write_read_round_trip_general() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 1.25);
        coo.push(1, 0, -7.5);
        coo.canonicalize();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &coo, false).unwrap();
        let (back, _) = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(back, coo);
    }
}
