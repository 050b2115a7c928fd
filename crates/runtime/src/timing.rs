//! Phase timing for the execution-time breakdowns (Fig. 10, Fig. 14).

use std::time::{Duration, Instant};

/// Accumulated wall-clock time per kernel phase.
///
/// The four phases are exactly the components the paper charts: the SpMV
/// multiplication phase, the symmetric-kernel reduction phase, the solver's
/// vector operations, and the one-time format preprocessing (CSX/CSX-Sym
/// detection and encoding).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// SpMV multiplication phase.
    pub multiply: Duration,
    /// Local-vectors reduction phase (symmetric kernels only).
    pub reduce: Duration,
    /// Vector operations (dot products, axpy — CG only).
    pub vector_ops: Duration,
    /// One-time preprocessing (format construction / CSX detection).
    pub preprocess: Duration,
}

impl PhaseTimes {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total across all phases.
    pub fn total(&self) -> Duration {
        self.multiply + self.reduce + self.vector_ops + self.preprocess
    }

    /// Fraction of total time spent in the reduction phase (0 when idle).
    pub fn reduce_fraction(&self) -> f64 {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.reduce.as_secs_f64() / t
        }
    }
}

/// Times a closure, adding the elapsed time to `slot`, and returns its value.
pub fn time_into<R>(slot: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *slot += t0.elapsed();
    r
}

/// A simple stopwatch for one-shot measurements.
#[derive(Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the stopwatch.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_into_accumulates() {
        let mut d = Duration::ZERO;
        let v = time_into(&mut d, || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(v, 42);
        assert!(d >= Duration::from_millis(2));
        let before = d;
        time_into(&mut d, || {});
        assert!(d >= before);
    }

    #[test]
    fn totals_and_fractions() {
        let mut t = PhaseTimes::new();
        t.multiply = Duration::from_millis(30);
        t.reduce = Duration::from_millis(10);
        assert_eq!(t.total(), Duration::from_millis(40));
        assert!((t.reduce_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn zero_total_has_zero_fraction() {
        assert_eq!(PhaseTimes::new().reduce_fraction(), 0.0);
    }

    #[test]
    fn stopwatch_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }
}
