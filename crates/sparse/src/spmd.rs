//! "Run `p` closures": the one interface through which `sparse` runs work
//! in parallel.
//!
//! `sparse` sits below the runtime, so a pass that splits its work into
//! shares (the banded COO → SSS conversion of [`crate::SssMatrix`]) is
//! written against [`Spmd`]. The runtime's `ExecutionContext` implements it
//! on its pool; [`Serial`] runs the shares one after another on the caller.

/// Something that runs `body(i)` for every share `i` of a round.
pub trait Spmd {
    /// Number of shares a round runs.
    fn shares(&self) -> usize;

    /// Runs `body(i)` for every `i` in `0..self.shares()` and returns once
    /// all have finished. `false` if some share did not complete (it
    /// panicked); the others still ran to their end.
    fn run_shares(&self, body: &(dyn Fn(usize) + Sync)) -> bool;
}

/// `k` shares run in order on the calling thread: the runner of callers
/// without a pool (`Serial(1)`), and of tests that split work into `k`
/// shares deterministically.
#[derive(Debug, Clone, Copy)]
pub struct Serial(pub usize);

impl Spmd for Serial {
    fn shares(&self) -> usize {
        self.0
    }

    fn run_shares(&self, body: &(dyn Fn(usize) + Sync)) -> bool {
        (0..self.0).for_each(body);
        true
    }
}
