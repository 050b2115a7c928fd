//! Contiguous weight-balanced partitioning.
//!
//! The paper assigns the matrix to threads row-wise "ensuring an
//! approximately equal number of non-zero elements per partition" (§III-A).
//! [`balanced_ranges`] implements that: given per-row weights (non-zero
//! counts, or flop counts for the symmetric kernel), it cuts `0..n` into `p`
//! contiguous ranges with near-equal weight by walking the prefix sums.

/// A half-open row range `[start, end)` assigned to one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// First row of the partition.
    pub start: u32,
    /// One past the last row of the partition.
    pub end: u32,
}

impl Range {
    /// Number of rows in the range.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// True when the range contains no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Splits `0..weights.len()` into `p` contiguous ranges whose weights are
/// approximately equal.
///
/// ```
/// use symspmv_runtime::balanced_ranges;
/// let parts = balanced_ranges(&[5, 1, 1, 1, 1, 1], 2);
/// assert_eq!(parts[0].start, 0);
/// assert_eq!(parts[0].end, 1); // the heavy row alone balances half
/// assert_eq!(parts[1].end, 6);
/// ```
///
/// The split points are chosen greedily on the prefix-sum: partition `i`
/// ends at the first row whose cumulative weight reaches `(i+1)/p` of the
/// total. Rows with zero weight attach to the earlier partition. Trailing
/// partitions may be empty when `p` exceeds the number of non-trivial rows.
pub fn balanced_ranges(weights: &[u64], p: usize) -> Vec<Range> {
    assert!(p > 0, "need at least one partition");
    let n = weights.len();
    let total: u64 = weights.iter().sum();
    let mut ranges = Vec::with_capacity(p);
    let mut row = 0usize;
    let mut acc: u64 = 0;
    for i in 0..p {
        let start = row;
        // Target cumulative weight at the end of partition i.
        let target = (total as u128 * (i as u128 + 1) / p as u128) as u64;
        while row < n && (acc < target || i == p - 1) {
            acc += weights[row];
            row += 1;
        }
        ranges.push(Range {
            start: start as u32,
            end: row as u32,
        });
    }
    debug_assert_eq!(ranges.last().map(|r| r.end as usize), Some(n));
    ranges
}

/// [`balanced_ranges`] on `len` unit weights, without the weights: range
/// `i` ends at `⌊len·(i+1)/p⌋`.
///
/// ```
/// use symspmv_runtime::{balanced_ranges, even_ranges};
/// assert_eq!(even_ranges(10, 3), balanced_ranges(&[1; 10], 3));
/// ```
pub fn even_ranges(len: usize, p: usize) -> Vec<Range> {
    assert!(p > 0, "need at least one partition");
    let end = |i: usize| (len as u128 * i as u128 / p as u128) as u32;
    (0..p)
        .map(|i| Range {
            start: end(i),
            end: end(i + 1),
        })
        .collect()
}

/// Per-row weight model for the *symmetric* kernel: each strict-lower
/// non-zero costs two FMAs (the element and its transpose), the diagonal
/// one. `rowptr` is the SSS lower-triangle row pointer array.
pub fn symmetric_row_weights(rowptr: &[u32]) -> Vec<u64> {
    rowptr
        .windows(2)
        .map(|w| 2 * (w[1] - w[0]) as u64 + 1)
        .collect()
}

/// Per-row weight model for the unsymmetric CSR kernel: one FMA per stored
/// non-zero (plus a small constant for the row loop overhead).
pub fn csr_row_weights(rowptr: &[u32]) -> Vec<u64> {
    rowptr
        .windows(2)
        .map(|w| (w[1] - w[0]) as u64 + 1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(ranges: &[Range], n: u32) {
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must tile contiguously");
        }
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let w = vec![1u64; 100];
        let r = balanced_ranges(&w, 4);
        check_cover(&r, 100);
        for part in &r {
            assert_eq!(part.len(), 25);
        }
    }

    #[test]
    fn even_ranges_are_unit_weight_balanced_ranges() {
        for len in 0..=300 {
            for p in 1..=9 {
                assert_eq!(
                    even_ranges(len, p),
                    balanced_ranges(&vec![1u64; len], p),
                    "len {len}, p {p}"
                );
            }
        }
    }

    #[test]
    fn skewed_weights_balance_by_weight_not_rows() {
        // One huge row at the front.
        let mut w = vec![1u64; 99];
        w.insert(0, 1000);
        let r = balanced_ranges(&w, 2);
        check_cover(&r, 100);
        // First partition should be just the heavy row.
        assert_eq!(r[0], Range { start: 0, end: 1 });
        assert_eq!(r[1], Range { start: 1, end: 100 });
    }

    #[test]
    fn more_partitions_than_rows() {
        let w = vec![5u64; 3];
        let r = balanced_ranges(&w, 8);
        check_cover(&r, 3);
        let nonempty = r.iter().filter(|p| !p.is_empty()).count();
        assert_eq!(nonempty, 3);
    }

    #[test]
    fn single_partition_takes_all() {
        let w = vec![3u64, 1, 4];
        let r = balanced_ranges(&w, 1);
        assert_eq!(r, vec![Range { start: 0, end: 3 }]);
    }

    #[test]
    fn empty_input() {
        let r = balanced_ranges(&[], 3);
        check_cover(&r, 0);
        assert!(r.iter().all(Range::is_empty));
    }

    #[test]
    fn weight_imbalance_is_bounded() {
        // Random-ish weights: every partition within (total/p) ± max weight.
        let w: Vec<u64> = (0..1000).map(|i| (i * 7919 % 97) as u64 + 1).collect();
        let total: u64 = w.iter().sum();
        let p = 7;
        let r = balanced_ranges(&w, p);
        check_cover(&r, 1000);
        let maxw = *w.iter().max().unwrap();
        for part in &r {
            let s: u64 = w[part.start as usize..part.end as usize].iter().sum();
            assert!(
                s <= total / p as u64 + maxw,
                "partition weight {s} exceeds target {} + {maxw}",
                total / p as u64
            );
        }
    }

    #[test]
    fn weight_models() {
        let rowptr = vec![0u32, 2, 2, 5];
        assert_eq!(symmetric_row_weights(&rowptr), vec![5, 1, 7]);
        assert_eq!(csr_row_weights(&rowptr), vec![3, 1, 4]);
    }
}
