//! The four workloads and the inputs a seed generates for each.

use crate::probe::{rel_l2_diff, Yardstick};
use std::sync::Arc;
use symspmv::core::{ParallelSpmv, ReductionMethod, SymFormat, SymSpmv, SymSpmvError};
use symspmv::csx::detect::DetectConfig;
use symspmv::runtime::ExecutionContext;
use symspmv::solver::{CgConfig, SolveOutcome};
use symspmv::sparse::dense::seeded_vector;
use symspmv::sparse::{suite, CooMatrix};

/// One benchmark workload: a suite analog at a scale, and the kernel that
/// runs it. `BENCHMARK.json` carries the one-line reason for each.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Table I name of the suite analog.
    pub matrix: &'static str,
    pub scale: f64,
    /// CSX-Sym storage instead of SSS.
    pub csx_sym: bool,
    /// Also time the unattached level-coloring rows (`reorder.*`,
    /// `core.race_spmv_s`) on this workload's matrix in the traced run.
    pub race_probe: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "hood-sss",
        matrix: "hood",
        scale: 0.3,
        csx_sym: false,
        race_probe: false,
    },
    Workload {
        name: "hood-csxsym",
        matrix: "hood",
        scale: 0.3,
        csx_sym: true,
        race_probe: false,
    },
    Workload {
        name: "g3-sss",
        matrix: "G3_circuit",
        scale: 0.15,
        csx_sym: false,
        race_probe: false,
    },
    Workload {
        name: "small-cg",
        matrix: "thermal2",
        scale: 0.008,
        csx_sym: false,
        race_probe: true,
    },
];

/// CG stopping rule of every solve the benchmark times.
pub const CG: CgConfig = CgConfig {
    max_iters: 5000,
    rel_tol: 1e-8,
    record_history: false,
};

/// Tolerance on `‖y − y_ref‖₂ / ‖y_ref‖₂` of every timed SpMV.
pub const SPMV_TOL: f64 = 1e-12;
/// Tolerance on the recomputed `‖b − A·x‖₂ / ‖b‖₂` of every solve.
pub const RESIDUAL_TOL: f64 = 10.0 * CG.rel_tol;

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn format(&self) -> SymFormat {
        if self.csx_sym {
            SymFormat::CsxSym(DetectConfig::default())
        } else {
            SymFormat::Sss
        }
    }

    /// The kernel name the workload must measure.
    pub fn kernel_name(&self) -> &'static str {
        if self.csx_sym {
            "csxsym-idx"
        } else {
            "sss-idx"
        }
    }

    /// The timed set-up: a fresh context (cold plan cache) and the fully
    /// validated constructor. A kernel of another name than the workload's
    /// is reported as an error, so a workload cannot silently measure a
    /// different kernel.
    pub fn build(
        &self,
        coo: &CooMatrix,
        threads: usize,
    ) -> Result<(Arc<ExecutionContext>, SymSpmv), String> {
        let ctx = ExecutionContext::new(threads);
        let kernel = SymSpmv::try_from_coo(coo, &ctx, ReductionMethod::Indexing, self.format())
            .map_err(|e: SymSpmvError| format!("try_from_coo: {e}"))?;
        if kernel.name() != self.kernel_name() {
            return Err(format!(
                "built kernel `{}`, workload needs `{}`",
                kernel.name(),
                self.kernel_name()
            ));
        }
        Ok((ctx, kernel))
    }
}

/// splitmix64 finalizer: spreads consecutive run seeds over the generator's
/// seed space.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a run needs that is derived from `(workload, seed)` alone.
/// The vectors are allocated here once: fresh pages fault expensively in
/// the VM, so no timed region allocates them.
pub struct Problem {
    pub coo: CooMatrix,
    pub n: usize,
    /// Right-hand side of the solves and input vector of the multiplies.
    pub b: Vec<f64>,
    /// Solution / output buffer.
    pub x: Vec<f64>,
    pub y: Vec<f64>,
    /// Scratch for the yardstick's own output.
    pub yard_y: Vec<f64>,
    /// `A·b` by the yardstick: the reference of every timed SpMV.
    pub y_ref: Vec<f64>,
    pub yard: Yardstick,
}

impl Problem {
    pub fn generate(w: &Workload, seed: u64) -> Problem {
        let spec = suite::spec_by_name(w.matrix).expect("workload names a suite matrix");
        let spec = suite::SuiteSpec {
            seed: spec.seed ^ mix(seed),
            ..*spec
        };
        let coo = suite::generate(&spec, w.scale).coo;
        let n = coo.nrows() as usize;
        let b = seeded_vector(n, seed);
        let yard = Yardstick::new(&coo);
        let mut y_ref = vec![0.0; n];
        yard.spmv(&b, &mut y_ref);
        Problem {
            coo,
            n,
            b,
            x: vec![0.0; n],
            y: vec![0.0; n],
            yard_y: vec![0.0; n],
            y_ref,
            yard,
        }
    }

    /// One yardstick sample.
    pub fn yard_time(&mut self) -> f64 {
        self.yard.time(&self.b, &mut self.yard_y)
    }

    /// Checks `y`, the output of a multiply by `b`, against the yardstick's.
    pub fn check_y(&self) -> Result<(), String> {
        let err = rel_l2_diff(&self.y, &self.y_ref);
        if err <= SPMV_TOL {
            Ok(())
        } else {
            Err(format!(
                "spmv off the reference by {err:e} (tolerance {SPMV_TOL:e})"
            ))
        }
    }

    /// Checks a solve that left its solution in `x`: it must have
    /// converged, and the residual recomputed by the yardstick must agree.
    /// Returns that residual.
    pub fn check_solution(&mut self, outcome: &SolveOutcome) -> Result<f64, String> {
        if !outcome.converged {
            return Err(format!(
                "cg stopped after {} iterations with {:?}",
                outcome.iterations, outcome.status
            ));
        }
        let residual = self.yard.true_residual(&self.x, &self.b, &mut self.yard_y);
        if residual <= RESIDUAL_TOL {
            Ok(residual)
        } else {
            Err(format!("true residual {residual:e} above {RESIDUAL_TOL:e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symspmv::solver::cg;

    /// The smallest workload shape, shrunk further so the test is quick.
    const TINY: Workload = Workload {
        name: "tiny",
        matrix: "thermal2",
        scale: 0.001,
        csx_sym: false,
        race_probe: false,
    };

    fn fingerprint_and_iters(seed: u64) -> (u64, usize) {
        let mut p = Problem::generate(&TINY, seed);
        let (_ctx, mut kernel) = TINY.build(&p.coo, 2).unwrap();
        let out = cg(&mut kernel, &p.b, &mut p.x, &CG);
        assert!(out.converged);
        (kernel.plan().fingerprint, out.iterations)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_matrix() {
        let a = fingerprint_and_iters(3);
        assert_eq!(a, fingerprint_and_iters(3));
        assert_ne!(a.0, fingerprint_and_iters(4).0);
    }

    #[test]
    fn each_format_builds_the_kernel_the_workload_names() {
        let p = Problem::generate(&TINY, 1);
        let csx = Workload {
            csx_sym: true,
            ..TINY
        };
        assert_eq!(TINY.build(&p.coo, 1).unwrap().1.name(), "sss-idx");
        assert_eq!(csx.build(&p.coo, 2).unwrap().1.name(), "csxsym-idx");
    }
}
