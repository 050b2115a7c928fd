//! Order statistics and the estimators the benchmark reports.

/// Quantile `p ∈ (0, 1)` of ascending `sorted`, by the exclusive method of
/// Python's `statistics.quantiles` — the driver judges run-to-run spread
/// with that function, so `compare` must compute the same quartiles.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of no samples");
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n as f64 + 1.0);
    let j = (pos.floor() as usize).clamp(1, n - 1);
    // Clamped, so a low quantile of few samples never extrapolates below
    // the minimum (Python differs only for n = 2, which `spread` handles
    // by range).
    let g = (pos - j as f64).clamp(0.0, 1.0);
    sorted[j - 1] * (1.0 - g) + sorted[j] * g
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The highest percentile of the ladder that still has at least ten of
/// `n` samples beyond it; `None` below twenty samples, where even the
/// median has fewer than ten on its far side.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In hundredths of a percent, so the count beyond is exact.
    const LADDER: [usize; 7] = [9999, 9990, 9900, 9500, 9000, 7500, 5000];
    LADDER
        .into_iter()
        .find(|level| n * (10_000 - level) >= 10 * 10_000)
        .map(|level| level as f64 / 100.0)
}

/// Quantile level of a reported timing.
///
/// The host is a shared 2-vCPU VM: identical code runs in a quiet mode that
/// repeats to 1 % and in slow modes 10–40 % above it that last from one call
/// to minutes, so the slow side of every sample set is noise and the quiet
/// side is the signal. A timing is therefore reported as a low quantile,
/// not the median (README.md has the measured repeatability of both):
/// the lower quartile for long operations sampled a handful of times a run,
/// the 5th percentile for single calls sampled hundreds of times.
pub const QUIET_QUARTER: f64 = 0.25;
/// The 5th percentile; see [`QUIET_QUARTER`].
pub const QUIET_TAIL: f64 = 0.05;

/// Summary of one timing's samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// The reported value: the quantile at the metric's quiet level.
    pub value: f64,
    pub median: f64,
    /// `(percentile, value)` of [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
    /// Sample count.
    pub n: usize,
}

/// Reduces the samples of one timing; `None` when there are none (every
/// attempt failed).
pub fn summarize(samples: &[f64], level: f64) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    Some(Summary {
        value: quantile(&s, level),
        median: quantile(&s, 0.5),
        tail: tail_percentile(s.len()).map(|pct| (pct, quantile(&s, pct / 100.0))),
        n: s.len(),
    })
}

/// Run-to-run spread of a metric as a share of its median: the
/// interquartile distance from four runs up (the driver's rule), the full
/// range for two or three, unknown for one.
pub fn spread(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let median = quantile(&s, 0.5);
    match s.len() {
        0 | 1 => None,
        2 | 3 => Some((s[s.len() - 1] - s[0]) / median),
        _ => Some((quantile(&s, 0.75) - quantile(&s, 0.25)) / median),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quantile(&[1.0, 2.0, 4.0], 0.25), 1.0);
        assert_eq!(quantile(&[1.0, 2.0, 4.0], 0.75), 4.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_the_quiet_quantile_beside_the_median() {
        let samples: Vec<f64> = (1..=39).rev().map(f64::from).collect();
        let s = summarize(&samples, QUIET_QUARTER).unwrap();
        assert_eq!((s.value, s.median, s.n), (10.0, 20.0, 39));
        assert_eq!(s.tail, Some((50.0, 20.0)));
        assert_eq!(summarize(&samples, QUIET_TAIL).unwrap().value, 2.0);
        assert_eq!(summarize(&[3.0, 1.0], QUIET_TAIL).unwrap().value, 1.0);
        assert_eq!(summarize(&[], QUIET_TAIL), None);
    }

    #[test]
    fn spread_follows_the_run_count() {
        assert_eq!(spread(&[1.0]), None);
        assert_eq!(spread(&[9.0, 10.0, 11.0]), Some(0.2));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(1.0));
    }
}
