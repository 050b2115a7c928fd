//! `experiments chaos` — a seeded fault-injection soak of the resilient
//! SpMV service (DESIGN.md §16).
//!
//! For every matrix of the conformance kind suite the driver replays a
//! deterministic schedule of worker kills, delays, lease corruptions and
//! wedges against a [`Resilient`]-wrapped kernel running under a request
//! deadline, and checks the service contract on every request:
//!
//! * a request served by the **parallel** path must be bit-identical to
//!   the fault-free parallel baseline taken before any fault was armed
//!   (the deterministic pool makes reruns — including post-respawn reruns
//!   — bitwise reproducible);
//! * a request served by the **serial fallback** must be bit-identical to
//!   the serial SSS reference of the conformance oracle;
//! * every request is *served* — parallel or fallback, never an error —
//!   so availability stays 100% through kills, wedges and corruptions.
//!
//! Any violated check is reported with the matrix reproducer and turns
//! into [`HarnessError::VerificationFailed`], so the soak doubles as a CI
//! gate. The per-matrix table (serves, fault counts, worst latency and
//! recovery span) is written as `chaos.csv`.
//!
//! The whole schedule derives from [`ExpConfig::seed`]: the same seed
//! replays the same faults in the same rounds.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::conformance;
use crate::error::HarnessError;
use crate::experiments::ExpConfig;
use crate::report::Table;
use symspmv_core::{
    FallbackKernel, ParallelSpmv, ReductionMethod, Resilient, RetryPolicy, Served, SymFormat,
    SymSpmv,
};
use symspmv_runtime::{ExecutionContext, Supervision};

/// Request deadline for every supervised multiply.
const DEADLINE: Duration = Duration::from_millis(250);

/// Wedge-fault sleep — comfortably past [`DEADLINE`] so the watchdog must
/// detect the overrun and mark the pool wedged.
const WEDGE_SLEEP: Duration = Duration::from_millis(400);

/// Delay-fault sleep — stretches a round without endangering the deadline.
const DELAY: Duration = Duration::from_millis(3);

/// SplitMix64: the same tiny deterministic generator the retry policy
/// uses for its jitter, reused here to draw the fault schedule.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One scheduled fault, drawn per request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Clean request.
    None,
    /// A worker panics at the start of the next round.
    Kill,
    /// A worker sleeps [`DELAY`] at the start of the next round.
    Delay,
    /// The next buffer returned to the arena is corrupted.
    Corrupt,
    /// A worker sleeps [`WEDGE_SLEEP`], overrunning the deadline.
    Wedge,
}

/// Roughly half the requests are clean; kills dominate the fault half
/// because they exercise the retry path end to end.
fn draw_fault(rng: &mut SplitMix64) -> Fault {
    match rng.below(10) {
        0..=4 => Fault::None,
        5 | 6 => Fault::Kill,
        7 => Fault::Delay,
        8 => Fault::Corrupt,
        _ => Fault::Wedge,
    }
}

/// The constructor name out of a suite reproducer line
/// (`gen::banded_random(257, ...)` → `banded_random`).
fn short_name(repro: &str) -> &str {
    let s = repro.strip_prefix("gen::").unwrap_or(repro);
    s.split('(').next().unwrap_or(s)
}

/// Completion log of one request, offsets measured from the soak start.
struct RequestLog {
    done_at: Duration,
    latency: Duration,
    fallback: bool,
}

/// Worst wall-clock span the service spent degraded: from the start of a
/// fallback-served request to the completion of the next parallel-served
/// one (to the end of the soak when parallel service never resumed).
fn worst_recovery(log: &[RequestLog], total: Duration) -> Duration {
    let mut worst = Duration::ZERO;
    let mut degraded_since: Option<Duration> = None;
    for r in log {
        if r.fallback {
            degraded_since.get_or_insert(r.done_at.saturating_sub(r.latency));
        } else if let Some(t0) = degraded_since.take() {
            worst = worst.max(r.done_at.saturating_sub(t0));
        }
    }
    if let Some(t0) = degraded_since {
        worst = worst.max(total.saturating_sub(t0));
    }
    worst
}

/// Silences the panic chatter the soak itself provokes — injected worker
/// panics and supervision interrupts are *expected* here and are all
/// caught and classified; their default-hook backtraces would drown the
/// actual report. Genuine panics still reach the previous hook. The
/// filter stays installed for the rest of the process (the driver is the
/// binary's last act).
fn silence_injected_panics() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let p = info.payload();
        let expected = p
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("injected fault"))
            || p.downcast_ref::<symspmv_runtime::Interrupt>().is_some();
        if !expected {
            prev(info);
        }
    }));
}

/// Runs the chaos soak (see the module docs for the contract checked).
pub fn run(cfg: &ExpConfig) -> Result<(), HarnessError> {
    silence_injected_panics();
    let requests = cfg.iterations;
    println!(
        "== Chaos soak: seed {:#x}, {} requests/matrix, deadline {:?} ==\n",
        cfg.seed, requests, DEADLINE
    );
    let mut t = Table::new(&[
        "matrix",
        "kind",
        "req",
        "parallel",
        "fallback",
        "k/d/c/w",
        "worst ms",
        "recovery ms",
        "respawns",
        "health",
        "status",
    ]);
    let mut failures = 0usize;

    for (mi, m) in conformance::full_suite().iter().enumerate() {
        let name = short_name(m.repro);
        let n = m.coo.nrows() as usize;
        let p = cfg.max_threads.clamp(2, 4);
        let ctx = ExecutionContext::new(p);
        let x = symspmv_sparse::dense::seeded_vector(n, m.seed ^ cfg.seed);
        let want = conformance::serial_reference_kind(&m.coo, m.kind, &x);

        // Fault-free parallel baseline on the same kernel the service will
        // run, cross-checked against the serial reference so a broken
        // kernel cannot silently become its own yardstick.
        let mut kernel = SymSpmv::from_coo_kind(
            &m.coo,
            m.kind,
            &ctx,
            ReductionMethod::Indexing,
            SymFormat::Sss,
        )
        .map_err(|e| HarnessError::matrix("chaos kernel", name, e))?;
        let mut y_base = vec![0.0; n];
        kernel.spmv(&x, &mut y_base);
        let base_err = symspmv_sparse::dense::max_rel_diff(&y_base, &want);
        if base_err > conformance::REL_TOL {
            failures += 1;
            println!("  {name}: FAIL pre-fault baseline off reference by {base_err:.2e}");
            println!("    repro: {}", m.repro);
            continue;
        }
        let fallback = FallbackKernel::from_coo_kind(&m.coo, m.kind, Arc::clone(&ctx))
            .map_err(|e| HarnessError::matrix("chaos fallback", name, e))?;
        let policy = RetryPolicy::new(3)
            .with_backoff(Duration::from_micros(50), Duration::from_millis(2))
            .with_seed(cfg.seed ^ m.seed);
        let mut service = Resilient::new(kernel, fallback, policy);

        let failures_before = failures;
        let mut rng = SplitMix64::new(cfg.seed.wrapping_add((mi as u64).wrapping_mul(0xA5A5)));
        let mut counts = [0usize; 4]; // kills, delays, corrupts, wedges
        let mut log: Vec<RequestLog> = Vec::with_capacity(requests);
        let mut worst_latency = Duration::ZERO;
        let mut y = vec![0.0; n];
        let soak_start = Instant::now();

        for req in 0..requests {
            let fault = draw_fault(&mut rng);
            let tid = rng.below(p as u64) as usize;
            let plan = ctx.fault_plan();
            match fault {
                Fault::None => {}
                Fault::Kill => {
                    counts[0] += 1;
                    plan.arm_worker_panic(tid, 0);
                }
                Fault::Delay => {
                    counts[1] += 1;
                    plan.arm_worker_delay(tid, 0, DELAY);
                }
                Fault::Corrupt => {
                    counts[2] += 1;
                    plan.arm_corrupt_lease(0, f64::NAN);
                }
                Fault::Wedge => {
                    counts[3] += 1;
                    plan.arm_worker_wedge(tid, 0, WEDGE_SLEEP);
                }
            }

            let t0 = Instant::now();
            let served = service.spmv_within(&x, &mut y, Supervision::deadline_within(DEADLINE));
            let latency = t0.elapsed();
            worst_latency = worst_latency.max(latency);

            let check = match &served {
                Ok(Served::Parallel { .. }) => conformance::check_lane(&y, &y_base, true)
                    .map_err(|why| format!("parallel serve vs fault-free baseline: {why}")),
                Ok(Served::Fallback { .. }) => conformance::check_lane(&y, &want, true)
                    .map_err(|why| format!("fallback serve vs serial reference: {why}")),
                Err(e) => Err(format!("availability loss — request errored: {e}")),
            };
            if let Err(why) = check {
                failures += 1;
                println!(
                    "  {name}: FAIL request {req} ({fault_tag}): {why}",
                    fault_tag = match fault {
                        Fault::None => "clean",
                        Fault::Kill => "kill",
                        Fault::Delay => "delay",
                        Fault::Corrupt => "corrupt",
                        Fault::Wedge => "wedge",
                    }
                );
                println!("    repro: {} seed {:#x}", m.repro, cfg.seed);
            }
            log.push(RequestLog {
                done_at: soak_start.elapsed(),
                latency,
                fallback: matches!(served, Ok(Served::Fallback { .. })),
            });
        }
        let total = soak_start.elapsed();
        // Unfired faults (e.g. a corruption armed on a round that returned
        // no buffer) must not leak into the table's fired count.
        ctx.fault_plan().disarm_all();

        let status = if failures == failures_before {
            "ok"
        } else {
            "FAIL"
        };
        t.row(vec![
            name.to_string(),
            m.kind.tag().to_string(),
            requests.to_string(),
            service.parallel_serves().to_string(),
            service.fallback_serves().to_string(),
            format!("{}/{}/{}/{}", counts[0], counts[1], counts[2], counts[3]),
            format!("{:.1}", worst_latency.as_secs_f64() * 1e3),
            format!("{:.1}", worst_recovery(&log, total).as_secs_f64() * 1e3),
            ctx.health_state().respawns().to_string(),
            format!("{:?}", ctx.health()),
            status.into(),
        ]);
    }

    cfg.emit("chaos", &t)?;

    if failures > 0 {
        return Err(HarnessError::VerificationFailed { failures });
    }
    println!("chaos soak clean: every request served bit-identically \u{2713}\n");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedule_is_deterministic() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..64)
                .map(|_| draw_fault(&mut rng) as u8)
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn schedule_draws_every_fault_kind() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 5];
        for _ in 0..256 {
            seen[draw_fault(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "{seen:?}");
    }

    #[test]
    fn short_names_strip_the_constructor_call() {
        assert_eq!(
            short_name("gen::banded_random(257, 16, 6.0, 91)"),
            "banded_random"
        );
        assert_eq!(short_name("laplacian_2d(18, 18)"), "laplacian_2d");
    }

    #[test]
    fn recovery_spans_degraded_service_until_parallel_resumes() {
        let ms = Duration::from_millis;
        let log = vec![
            RequestLog {
                done_at: ms(10),
                latency: ms(5),
                fallback: false,
            },
            RequestLog {
                done_at: ms(30),
                latency: ms(10),
                fallback: true,
            },
            RequestLog {
                done_at: ms(40),
                latency: ms(5),
                fallback: true,
            },
            RequestLog {
                done_at: ms(55),
                latency: ms(5),
                fallback: false,
            },
        ];
        // Degraded from t=20 (start of the first fallback) to t=55.
        assert_eq!(worst_recovery(&log, ms(60)), ms(35));
        // A soak that ends degraded counts until the end.
        let tail = vec![RequestLog {
            done_at: ms(30),
            latency: ms(10),
            fallback: true,
        }];
        assert_eq!(worst_recovery(&tail, ms(90)), ms(70));
        assert_eq!(worst_recovery(&[], ms(90)), Duration::ZERO);
    }
}
