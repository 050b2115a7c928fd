//! The verification error taxonomy.
//!
//! Each variant names one *distinct* way a partition plan can violate the
//! race-freedom obligations of the symmetric kernels; the mutation-kill
//! suite demands that each of its six deliberately-broken plans is rejected
//! with a different variant, so the variants are deliberately fine-grained
//! rather than collapsed into a generic "invalid plan".

/// A plan failed race certification (or a certificate failed validation).
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The row partition leaves a hole: row `at` is owned by no thread, so
    /// its output element would never be written (an off-by-one boundary).
    PartitionGap {
        /// First row not covered by any partition.
        at: u32,
    },
    /// Two threads' direct-write row ranges overlap: row `row` would be
    /// written by both `first` and `second` in the multiply phase.
    OverlappingDirectWrites {
        /// First row claimed by both threads.
        row: u32,
        /// Lower-numbered claiming thread.
        first: usize,
        /// Higher-numbered claiming thread.
        second: usize,
    },
    /// Two threads' local-vector regions overlap in the flat leased store.
    LayoutOverlap {
        /// Lower-numbered thread of the colliding pair.
        first: usize,
        /// Higher-numbered thread of the colliding pair.
        second: usize,
    },
    /// A write of thread `tid` falls outside its declared region — a
    /// transposed write escaping the effective region, or a declared
    /// region escaping the leased store.
    EscapedWrite {
        /// The writing thread.
        tid: usize,
        /// The escaping target (row index or local-store element).
        target: u32,
    },
    /// The conflict index misses a write: thread `tid` writes local row
    /// `idx` in the multiply phase, but no `(tid, idx)` entry exists, so
    /// the indexing reduction would never fold (or re-zero) that element.
    IndexIncomplete {
        /// The writing thread.
        tid: usize,
        /// The conflict row absent from the index.
        idx: u32,
    },
    /// Two reduction slices share an output target: `idx` (an output row,
    /// or an index `idx` value) is folded by both slice `first` and slice
    /// `second` of the reduction phase.
    ReductionSliceOverlap {
        /// The shared output target.
        idx: u32,
        /// Lower-numbered slice.
        first: usize,
        /// Higher-numbered slice.
        second: usize,
    },
    /// Two rows of the same color class write a common target, so running
    /// the class as one parallel round races on `target`.
    ColoringConflict {
        /// The offending color class.
        color: u32,
        /// First row of the colliding pair.
        row_a: u32,
        /// Second row of the colliding pair.
        row_b: u32,
        /// The y element both rows write.
        target: u32,
    },
    /// A CSX-Sym substructure's transposed writes straddle the chunk's
    /// local-vs-direct boundary — the §IV-B legality rule the encoder must
    /// enforce by falling back to delta units.
    StraddlingPattern {
        /// The chunk (thread) owning the stream.
        tid: usize,
        /// Anchor row of the offending unit.
        row: u32,
        /// Anchor column of the offending unit.
        col: u32,
        /// The chunk's local/direct split.
        split: u32,
    },
    /// A certificate was presented for a configuration it does not
    /// describe — e.g. reused after renumbering the matrix, or across a
    /// thread-count or strategy switch.
    StaleCertificate {
        /// Which field mismatched (`"fingerprint"`, `"nthreads"`, …).
        field: &'static str,
        /// Value recorded in the certificate.
        expected: u64,
        /// Value of the configuration being dispatched.
        actual: u64,
    },
    /// A block (SpMM) plan asked for a lane count the runtime does not
    /// support — lane-lifting a scalar proof is only sound for the widths
    /// the kernels are written for.
    BadLaneCount {
        /// The rejected lane count.
        lanes: usize,
    },
    /// A block plan's local-store offset for thread `tid` is not the
    /// scalar offset scaled by the lane count, so the lifted write sets
    /// would not tile the block store the way the scalar proof tiles the
    /// scalar store.
    LaneOffsetMismatch {
        /// The thread whose block offset is wrong.
        tid: usize,
        /// `base_offsets[tid] * lanes`, the only sound block offset.
        expected: usize,
        /// The offset the block plan actually declares.
        actual: usize,
    },
    /// A block plan's leased-store length is not the scalar length scaled
    /// by the lane count — the lifted regions would escape (too short) or
    /// leave unproved slack (too long).
    LaneRegionMismatch {
        /// `base_local_len * lanes`, the only sound block store length.
        expected: usize,
        /// The length the block plan actually leases.
        actual: usize,
    },
    /// A symmetry-kind side condition failed: the write-set proof itself is
    /// kind-independent, but reusing it for a skew or structural matrix
    /// requires the storage to honor the kind's contract (zero diagonal
    /// for skew; a full paired upper array for structural).
    KindSideCondition {
        /// The symmetry-kind tag whose contract is violated.
        kind: &'static str,
        /// Human-readable description of the violated condition.
        reason: String,
    },
    /// The plan is structurally malformed (wrong array lengths, unsorted
    /// index, out-of-bounds partition…) — rejected before any write-set
    /// reasoning applies.
    MalformedPlan {
        /// Human-readable description of the defect.
        reason: String,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::PartitionGap { at } => {
                write!(f, "partition gap: row {at} is owned by no thread")
            }
            VerifyError::OverlappingDirectWrites { row, first, second } => write!(
                f,
                "overlapping direct writes: row {row} owned by threads {first} and {second}"
            ),
            VerifyError::LayoutOverlap { first, second } => write!(
                f,
                "local-vector regions of threads {first} and {second} overlap"
            ),
            VerifyError::EscapedWrite { tid, target } => write!(
                f,
                "thread {tid} writes {target} outside its declared region"
            ),
            VerifyError::IndexIncomplete { tid, idx } => write!(
                f,
                "conflict index misses write of thread {tid} to local row {idx}"
            ),
            VerifyError::ReductionSliceOverlap { idx, first, second } => write!(
                f,
                "reduction slices {first} and {second} both fold target {idx}"
            ),
            VerifyError::ColoringConflict {
                color,
                row_a,
                row_b,
                target,
            } => write!(
                f,
                "color class {color}: rows {row_a} and {row_b} both write y[{target}]"
            ),
            VerifyError::StraddlingPattern {
                tid,
                row,
                col,
                split,
            } => write!(
                f,
                "chunk {tid}: substructure at ({row}, {col}) straddles split {split}"
            ),
            VerifyError::StaleCertificate {
                field,
                expected,
                actual,
            } => write!(
                f,
                "stale certificate: {field} recorded as {expected}, dispatching {actual}"
            ),
            VerifyError::BadLaneCount { lanes } => {
                write!(f, "unsupported lane count {lanes} for block lifting")
            }
            VerifyError::LaneOffsetMismatch {
                tid,
                expected,
                actual,
            } => write!(
                f,
                "block offset of thread {tid} is {actual}, lane-scaled proof requires {expected}"
            ),
            VerifyError::LaneRegionMismatch { expected, actual } => write!(
                f,
                "block local store is {actual} elements, lane-scaled proof requires {expected}"
            ),
            VerifyError::KindSideCondition { kind, reason } => {
                write!(f, "{kind} side condition violated: {reason}")
            }
            VerifyError::MalformedPlan { reason } => write!(f, "malformed plan: {reason}"),
        }
    }
}

impl std::error::Error for VerifyError {}
