//! Counting operations attempted and failed.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Tally of the library operations a run attempted. A typed error, a
/// panic, a non-converged solve and an output outside tolerance are all
/// failures; each prints the command line that reproduces it.
#[derive(Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    workload: &'static str,
    seed: u64,
}

impl Ops {
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Ops {
            attempted: 0,
            failed: 0,
            workload,
            seed,
        }
    }

    /// Runs one operation; `None` when it failed.
    pub fn attempt<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|payload| {
            let text = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string payload".to_string());
            Err(format!("panic: {text}"))
        });
        match outcome {
            Ok(value) => Some(value),
            Err(why) => {
                self.failed += 1;
                eprintln!(
                    "FAILED {what}: {why} — reproduce: --workload {} --seed {}",
                    self.workload, self.seed
                );
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_and_panics_count_as_failures() {
        let mut ops = Ops::new("w", 1);
        assert_eq!(ops.attempt("ok", || Ok(3)), Some(3));
        assert_eq!(
            ops.attempt("typed", || Err::<u8, _>("bad".to_string())),
            None
        );
        assert_eq!(
            ops.attempt("panic", || -> Result<u8, String> { panic!("boom") }),
            None
        );
        assert_eq!((ops.attempted, ops.failed), (3, 2));
    }
}
