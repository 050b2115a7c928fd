//! Error type shared by the sparse substrate.
//!
//! [`SparseError`] is the base of the workspace error taxonomy: every
//! structural defect a matrix can arrive with — parse failures, bad
//! indices, asymmetry, non-finite values, index-width overflow — maps to a
//! structured variant here, and the higher layers (`symspmv-core`'s
//! `SymSpmvError`) classify these variants instead of re-deriving them.

use std::fmt;

/// Errors produced while constructing, converting or parsing sparse matrices.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SparseError {
    /// An entry's row or column index lies outside the declared dimensions.
    IndexOutOfBounds {
        /// Row index of the offending entry.
        row: u32,
        /// Column index of the offending entry.
        col: u32,
        /// Declared number of rows.
        nrows: u32,
        /// Declared number of columns.
        ncols: u32,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Number of rows.
        nrows: u32,
        /// Number of columns.
        ncols: u32,
    },
    /// The operation requires a (numerically) symmetric matrix.
    NotSymmetric {
        /// Row of the first asymmetric entry found.
        row: u32,
        /// Column of the first asymmetric entry found.
        col: u32,
    },
    /// A MatrixMarket stream could not be parsed.
    Parse {
        /// 1-based line number where parsing failed.
        line: usize,
        /// Human-readable description of the problem.
        msg: String,
    },
    /// An I/O error occurred while reading or writing a matrix file.
    Io(String),
    /// A permutation vector is not a bijection on `0..n`.
    InvalidPermutation {
        /// Description of the violation.
        msg: String,
    },
    /// An entry's value is NaN or infinite.
    NonFiniteValue {
        /// Row index of the offending entry.
        row: u32,
        /// Column index of the offending entry.
        col: u32,
        /// The offending value (rendered; NaN compares unequal so the
        /// variant stores the bit-identical `f64`).
        value: f64,
    },
    /// A dimension or entry count does not fit the 4-byte index type (or
    /// `usize` for counts) used by every storage format.
    IndexOverflow {
        /// What overflowed (e.g. `"row count"`).
        what: &'static str,
        /// The declared value.
        value: u64,
        /// The largest representable value.
        max: u64,
    },
    /// A constructor argument (block size, tolerance, …) is out of its
    /// valid domain.
    InvalidArgument {
        /// Description of the violation.
        msg: String,
    },
    /// A `symmetric` MatrixMarket file stored an upper-triangle entry; the
    /// format mandates lower-triangle-only storage.
    UpperTriangleInSymmetric {
        /// 1-based line number of the offending entry.
        line: usize,
        /// Row index (0-based) of the offending entry.
        row: u32,
        /// Column index (0-based) of the offending entry.
        col: u32,
    },
    /// The operation requires a skew-symmetric matrix
    /// (`a_ji = -a_ij`, zero diagonal).
    NotSkewSymmetric {
        /// Row of the first offending entry found.
        row: u32,
        /// Column of the first offending entry found.
        col: u32,
    },
    /// A skew-symmetric matrix carries a nonzero (or explicit, where
    /// forbidden) diagonal entry.
    SkewNonzeroDiagonal {
        /// Index of the offending diagonal entry.
        row: u32,
        /// The offending value.
        value: f64,
    },
    /// The operation requires a structurally symmetric pattern: every
    /// off-diagonal entry `(r, c)` must have a stored partner `(c, r)`.
    NotStructurallySymmetric {
        /// Row of the first unpaired entry found.
        row: u32,
        /// Column of the first unpaired entry found.
        col: u32,
    },
    /// A `skew-symmetric` MatrixMarket file stored a diagonal entry; the
    /// diagonal of a skew-symmetric matrix is identically zero and the
    /// format mandates strict-lower-triangle storage.
    DiagonalInSkewSymmetric {
        /// 1-based line number of the offending entry.
        line: usize,
        /// Index of the offending diagonal entry.
        row: u32,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "entry ({row}, {col}) out of bounds for a {nrows}x{ncols} matrix"
            ),
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "operation requires a square matrix, got {nrows}x{ncols}")
            }
            SparseError::NotSymmetric { row, col } => {
                write!(
                    f,
                    "matrix is not symmetric: entry ({row}, {col}) has no symmetric match"
                )
            }
            SparseError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            SparseError::Io(msg) => write!(f, "I/O error: {msg}"),
            SparseError::InvalidPermutation { msg } => write!(f, "invalid permutation: {msg}"),
            SparseError::NonFiniteValue { row, col, value } => {
                write!(f, "entry ({row}, {col}) has non-finite value {value}")
            }
            SparseError::IndexOverflow { what, value, max } => {
                write!(f, "{what} {value} exceeds the index limit {max}")
            }
            SparseError::InvalidArgument { msg } => write!(f, "invalid argument: {msg}"),
            SparseError::UpperTriangleInSymmetric { line, row, col } => write!(
                f,
                "line {line}: entry ({row}, {col}) lies in the upper triangle of a `symmetric` file (lower-triangle storage is mandatory)"
            ),
            SparseError::NotSkewSymmetric { row, col } => write!(
                f,
                "matrix is not skew-symmetric: entry ({row}, {col}) has no negated mirror"
            ),
            SparseError::SkewNonzeroDiagonal { row, value } => write!(
                f,
                "skew-symmetric matrix has nonzero diagonal entry ({row}, {row}) = {value}"
            ),
            SparseError::NotStructurallySymmetric { row, col } => write!(
                f,
                "pattern is not symmetric: entry ({row}, {col}) has no stored partner ({col}, {row})"
            ),
            SparseError::DiagonalInSkewSymmetric { line, row } => write!(
                f,
                "line {line}: diagonal entry ({row}, {row}) in a `skew-symmetric` file (the diagonal is implicitly zero; strict-lower storage is mandatory)"
            ),
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}

impl SparseError {
    /// True for variants describing a structurally invalid matrix (as
    /// opposed to parse/I/O failures): bad indices, asymmetry, non-finite
    /// values, overflow.
    pub fn is_structural(&self) -> bool {
        !matches!(self, SparseError::Parse { .. } | SparseError::Io(_))
    }
}
