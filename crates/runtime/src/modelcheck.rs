//! Bounded-interleaving model checker for the supervision protocol.
//!
//! The pool/supervisor protocol ([`crate::pool::WorkerPool`] +
//! [`crate::supervisor`]) has concurrency bugs that unit tests only catch
//! probabilistically: a checkpoint racing a cancellation, the watchdog
//! firing while clean completions are still in flight, a worker parking
//! just as the next round is published, a seat being reused before its
//! round drained. This module checks those paths *exhaustively*: it drives
//! an abstract model of the protocol — a miniature pool of 2–3 participants
//! running 1–2 rounds per request — through **every** interleaving of
//! park/publish/unpark steps, worker completions, watchdog firing and
//! checkpoint outcomes that a bounded [`Scenario`] admits, asserting on
//! each terminal state that
//!
//! * every request ends with the **typed outcome** the faithful protocol
//!   assigns it (typed-error totality: [`Outcome::Ok`],
//!   [`Outcome::Cancelled`], [`Outcome::DeadlineWedged`] or
//!   [`Outcome::WorkerPanicked`] — never a hang, never a leaked default);
//! * the **arena is scrubbed** at every request boundary, unwind paths
//!   included (the `BufferLease` drop-scrub invariant);
//! * no **lost wakeup**: a round with outstanding shares always has an
//!   enabled transition (a worker parked on an epoch it will never see
//!   advance has none);
//! * no **double-serve**: a worker reports at most once per round, and a
//!   barrier seat is reused only after the round fully drained;
//! * the final **health state**, failure/wedge counters and dispatch/poll
//!   counts match the faithful reference. These are schedule-independent
//!   observables of the real protocol, so any divergence across
//!   interleavings is a protocol bug. The **respawn count is deliberately
//!   not pinned** — the real tardy set is a watchdog-time snapshot of
//!   unreported workers, so it genuinely depends on the schedule — but it
//!   is checked against the analytic bounds derived from the reference
//!   outcomes and the faulted participant (respawns count replaced OS
//!   threads: none for a fault on worker 0, the caller; one per panicked
//!   spawned worker; between the wedged spawned worker and every spawned
//!   worker per wedged request).
//!
//! # Faithfulness
//!
//! The model mirrors `WorkerPool::try_run` and its `drain` step for
//! step. **Worker 0 is the caller**: it has no thread, no seat and no
//! park state, its share is one deterministic step between the dispatch
//! and the collect phase, and its failure is recorded but never respawned.
//! Workers `1..` are spawned threads that idle `Spinning` on the epoch and
//! may exhaust their spin budget and become `Parked` (`Step::Park`: set
//! the `parked` flag, re-check the epoch, park — one step, because the
//! SeqCst flag/epoch pair guarantees that either this re-check sees the
//! bump or the caller's read sees the flag). A dispatch is the caller's
//! `Step::Publish` (body, count, epoch bump: every spinning worker
//! starts) followed by `Step::ReadParked` (read each `parked` flag,
//! unpark the set ones: a woken worker starts if a round is published and
//! goes back to spinning otherwise). Park steps are enabled only in the
//! window before each caller step: an idle worker's park touches nothing
//! but its own seat, so it commutes with every completion and watchdog step
//! of the round before, and the window is its canonical position.
//!
//! The cooperative checkpoint polls the cancel fuse *before* dispatch; the
//! watchdog cannot fire while the caller runs its own share, and fires the
//! moment the caller regains control when share 0 itself overran;
//! `mark_wedged` bumps the wedge counter and records a failure, tardy
//! respawns do not; `record_success` fires only on fully clean rounds and
//! promotes Degraded → Healthy after [`MODEL_RECOVERY_STREAK`] consecutive
//! clean rounds (the model shrinks the production constant
//! `HealthState::RECOVERY_STREAK` from 16 to 2 so the promotion edge is
//! reachable inside bounded scenarios).
//!
//! Seeded protocol mutants ([`Variant`]) reintroduce the bugs the real
//! implementation avoids; the checker must catch every one — that is what
//! ties the model back to reality. A model too abstract to catch a mutant
//! would be vacuous, so the mutant-kill tests double as a fidelity gauge.
//!
//! # DPOR-lite pruning
//!
//! Clean (`Ok`) completions commute: they only shrink the outstanding set,
//! and clean workers are symmetric. When every enabled transition is a
//! clean completion the checker explores only the least-id one; when the
//! enabled set is heterogeneous (a panic completion, the watchdog, or a
//! tardy completion is also enabled) it branches on the least-id clean
//! completion plus every non-clean transition. Park steps of different
//! workers commute too, so within one window they are explored in
//! ascending worker order only: a dispatch with `k` spinning workers
//! branches into the `2^k` subsets that parked before it. [`explore_with`]
//! can disable pruning; a test pins that both modes reach the same verdict.

use std::fmt;

/// Consecutive clean rounds after which the *model's* Degraded pool is
/// promoted back to Healthy. The production constant
/// (`HealthState::RECOVERY_STREAK`) is 16; the model shrinks it so the
/// promotion edge is reachable inside bounded scenarios.
pub const MODEL_RECOVERY_STREAK: usize = 2;

/// Hard cap on transitions per schedule; exceeding it is reported as a
/// `nontermination` violation rather than hanging the checker.
const STEP_CAP: usize = 10_000;

/// Which protocol the checker drives: the faithful model, or one of the
/// seeded mutants that reintroduce a concurrency bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The protocol as implemented.
    Faithful,
    /// The cooperative checkpoint polls the cancel fuse *after* the round
    /// instead of before dispatch — a request due for cancellation runs
    /// one extra round.
    CheckpointAfterDispatch,
    /// Unwind paths skip the `BufferLease` drop-scrub — the arena keeps a
    /// dirty buffer across panic/cancel/wedge exits.
    SkipScrubOnUnwind,
    /// The drained wedge is never downgraded (`unwedge` skipped) — the
    /// pool reports `Wedged` forever.
    SkipUnwedge,
    /// `record_success` promotes Degraded → Healthy on a single clean
    /// round, ignoring the recovery streak.
    PromoteWithoutStreak,
    /// The caller reads the `parked` flags *before* it bumps the epoch — a
    /// worker that parks between the read and the bump is never unparked.
    UnparkBeforePublish,
    /// The caller returns once its own share is done instead of waiting
    /// for the completion count — the next dispatch finds a seat still
    /// running the previous round's (dangling) body.
    ReturnBeforeDrain,
}

/// A deterministic fault seeded into one round of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: every worker completes cleanly.
    None,
    /// A worker panics in one specific round.
    Panic {
        /// Request index the fault strikes.
        request: usize,
        /// Round index within that request.
        round: usize,
        /// Worker id that panics.
        worker: usize,
    },
    /// A worker overruns the deadline in one specific round: it completes
    /// only after the watchdog has fired. Only meaningful with
    /// [`Scenario::deadline`] set.
    Wedge {
        /// Request index the fault strikes.
        request: usize,
        /// Round index within that request.
        round: usize,
        /// Worker id that wedges.
        worker: usize,
    },
}

/// A bounded scenario: pool size, per-request round count, request count,
/// one optional fault, an optional cancel fuse and an optional deadline.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name, used in reports and pinned-count tests.
    pub name: &'static str,
    /// Participants (2–3 keeps the interleaving space tractable): worker
    /// 0 is the caller, workers `1..` are spawned threads.
    pub workers: usize,
    /// Rounds dispatched per request (1–2).
    pub rounds: usize,
    /// Requests served back to back on the same pool (1–3).
    pub requests: usize,
    /// The seeded fault, if any.
    pub fault: Fault,
    /// `Some(k)`: a cancel token fused to fire at the `k`-th cooperative
    /// checkpoint (0-based), mirroring
    /// `CancelToken::cancel_after_checkpoints`. The token stays cancelled,
    /// so every later request cancels at its first checkpoint.
    pub cancel_after: Option<usize>,
    /// Whether rounds are supervised by a deadline watchdog.
    pub deadline: bool,
}

/// Typed outcome of one request — the model's image of the `Interrupt` /
/// `WorkerPanic` payloads the real protocol raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All rounds drained cleanly.
    Ok,
    /// The cooperative checkpoint observed a cancelled token.
    Cancelled,
    /// The watchdog fired; the round drained, tardy workers were
    /// respawned, and the request unwound with `DeadlineExceeded`.
    DeadlineWedged,
    /// A worker panicked; the round drained and the panic was re-raised.
    WorkerPanicked,
}

/// The model's image of [`crate::PoolHealth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// No recent failures.
    Healthy,
    /// Recent failure; promotes after [`MODEL_RECOVERY_STREAK`] clean rounds.
    Degraded,
    /// A round is currently overrunning its deadline.
    Wedged,
}

/// One invariant violation found on some schedule.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant broke (`"outcome"`, `"arena-zero"`, `"health"`,
    /// `"dispatch-count"`, `"checkpoint"`, `"respawn"`, `"seat-reuse"`,
    /// `"double-serve"`, `"lost-wakeup"`, `"nontermination"`).
    pub invariant: &'static str,
    /// What diverged.
    pub detail: String,
    /// The schedule that exposed it, as applied transitions.
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} (schedule: {})",
            self.invariant,
            self.detail,
            self.trace.join(" -> ")
        )
    }
}

/// Result of exhausting a scenario's interleavings.
#[derive(Debug)]
pub struct Exploration {
    /// Number of complete schedules explored.
    pub schedules: usize,
    /// Deduplicated invariant violations (empty for a correct protocol).
    pub violations: Vec<Violation>,
}

impl Exploration {
    /// Whether every explored schedule upheld every invariant.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Schedule-independent observables of a finished scenario, computed once
/// from the faithful model on a canonical schedule and compared against
/// every explored terminal state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reference {
    outcomes: Vec<Outcome>,
    health: Health,
    wedges: usize,
    failures: usize,
    rounds_dispatched: usize,
    polls: usize,
}

impl Reference {
    /// Analytic respawn bounds implied by the reference outcomes and the
    /// faulted participant. Respawns count replaced OS threads, and worker
    /// 0 — the caller — has none: a panicked request respawns exactly its
    /// panicked worker if that one is spawned (1, else 0); a wedged request
    /// respawns at least the wedged worker if spawned and at most every
    /// spawned worker (`workers − 1`; the tardy set is a watchdog-time
    /// snapshot, so the exact count is schedule-dependent).
    fn respawn_bounds(&self, scenario: &Scenario) -> (usize, usize) {
        let count = |o: Outcome| self.outcomes.iter().filter(|x| **x == o).count();
        let (panics, wedges) = (
            count(Outcome::WorkerPanicked),
            count(Outcome::DeadlineWedged),
        );
        let spawned = match scenario.fault {
            Fault::Panic { worker, .. } | Fault::Wedge { worker, .. } => usize::from(worker != 0),
            Fault::None => 0,
        };
        (
            (panics + wedges) * spawned,
            panics * spawned + wedges * (scenario.workers - 1),
        )
    }
}

/// One enabled transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A spinning spawned worker exhausts its spin budget: sets `parked`,
    /// re-checks the epoch (unchanged, or the step is not enabled) and parks.
    Park(usize),
    /// The caller publishes the round: body, completion count, epoch bump.
    /// Every spinning worker observes it and starts.
    Publish,
    /// The caller reads every `parked` flag and unparks the set ones.
    ReadParked,
    /// A worker reports a clean round.
    CompleteOk(usize),
    /// A worker reports a panic.
    CompletePanic(usize),
    /// The wedged worker finally reports (enabled only after the watchdog).
    CompleteTardy(usize),
    /// The watchdog times out and snapshots the tardy set.
    WatchdogFire,
}

impl Step {
    fn describe(self) -> String {
        match self {
            Step::Park(w) => format!("park({w})"),
            Step::Publish => "publish".to_string(),
            Step::ReadParked => "read-parked".to_string(),
            Step::CompleteOk(w) => format!("ok({w})"),
            Step::CompletePanic(w) => format!("panic({w})"),
            Step::CompleteTardy(w) => format!("tardy({w})"),
            Step::WatchdogFire => "watchdog".to_string(),
        }
    }

    fn is_clean(self) -> bool {
        matches!(self, Step::CompleteOk(_))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    /// The caller between rounds (worker 0 only).
    Idle,
    /// A spawned worker polling the epoch.
    Spinning,
    /// A spawned worker blocked in `park` with its `parked` flag set.
    Parked,
    Running,
    Done,
}

impl WorkerState {
    /// The idle state participant `w` returns to after a drained round.
    fn idle(w: usize) -> Self {
        if w == 0 {
            WorkerState::Idle
        } else {
            WorkerState::Spinning
        }
    }

    fn is_idle(self) -> bool {
        !matches!(self, WorkerState::Running | WorkerState::Done)
    }
}

/// Where the caller stands inside one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between rounds: the next thing is a checkpoint.
    Checkpoint,
    /// Past the checkpoint, `steps` of the two caller dispatch steps taken.
    Dispatch { steps: usize },
    /// Own share done; waiting for the completion count.
    Collect,
}

/// Full model state; cloned at each branch point.
#[derive(Debug, Clone)]
struct ModelState {
    request: usize,
    round: usize,
    phase: Phase,
    /// Whether the round being dispatched has had its epoch bumped.
    published: bool,
    /// Least worker id whose park step is still explored in the current
    /// window (ascending-order canonicalisation; pruned mode only).
    park_floor: usize,
    workers: Vec<WorkerState>,
    panicked_this_round: Vec<usize>,
    watchdog_fired: bool,
    tardy: Vec<usize>,
    polls: usize,
    cancelled: bool,
    arena_dirty: bool,
    health: Health,
    streak: usize,
    wedges: usize,
    failures: usize,
    respawns: usize,
    rounds_dispatched: usize,
    outcomes: Vec<Outcome>,
    steps_taken: usize,
    trace: Vec<String>,
    done: bool,
}

impl ModelState {
    fn initial(scenario: &Scenario) -> Self {
        ModelState {
            request: 0,
            round: 0,
            phase: Phase::Checkpoint,
            published: false,
            park_floor: 1,
            workers: (0..scenario.workers).map(WorkerState::idle).collect(),
            panicked_this_round: Vec::new(),
            watchdog_fired: false,
            tardy: Vec::new(),
            polls: 0,
            cancelled: false,
            arena_dirty: false,
            health: Health::Healthy,
            streak: 0,
            wedges: 0,
            failures: 0,
            respawns: 0,
            rounds_dispatched: 0,
            outcomes: Vec::new(),
            steps_taken: 0,
            trace: Vec::new(),
            done: false,
        }
    }
}

/// What the deterministic machinery reached.
enum Advance {
    /// The scenario finished: all requests have typed outcomes.
    Done,
    /// A nondeterministic choice point with the (possibly pruned)
    /// transitions to branch on.
    Choose(Vec<Step>),
    /// Workers are still running but nothing is enabled, or the step cap
    /// tripped.
    Stuck(&'static str),
}

struct Checker<'a> {
    scenario: &'a Scenario,
    variant: Variant,
    prune: bool,
    reference: Option<Reference>,
    schedules: usize,
    violations: Vec<Violation>,
}

impl Checker<'_> {
    /// Whether a supervision snapshot is installed — the real checkpoint
    /// is a no-op when `SupervisionCell::snapshot()` returns `None`.
    fn supervised(&self) -> bool {
        self.scenario.cancel_after.is_some() || self.scenario.deadline
    }

    fn wedge_target(&self, s: &ModelState) -> Option<usize> {
        match self.scenario.fault {
            Fault::Wedge {
                request,
                round,
                worker,
            } if request == s.request && round == s.round && self.scenario.deadline => Some(worker),
            _ => None,
        }
    }

    fn panic_target(&self, s: &ModelState) -> Option<usize> {
        match self.scenario.fault {
            Fault::Panic {
                request,
                round,
                worker,
            } if request == s.request && round == s.round => Some(worker),
            _ => None,
        }
    }

    fn violate(&mut self, s: &ModelState, invariant: &'static str, detail: String) {
        self.violations.push(Violation {
            invariant,
            detail,
            trace: s.trace.clone(),
        });
    }

    /// `HealthState::record_failure`: Healthy → Degraded (a wedged pool
    /// stays wedged until its round drains), streak reset.
    fn record_failure(s: &mut ModelState) {
        s.failures += 1;
        s.streak = 0;
        if s.health == Health::Healthy {
            s.health = Health::Degraded;
        }
    }

    /// `HealthState::record_success` under the active variant.
    fn record_success(&self, s: &mut ModelState) {
        s.streak += 1;
        let promote = match self.variant {
            Variant::PromoteWithoutStreak => true,
            _ => s.streak >= MODEL_RECOVERY_STREAK,
        };
        if promote && s.health == Health::Degraded {
            s.health = Health::Healthy;
        }
    }

    /// The cooperative cancel poll; `true` means the request must unwind
    /// with [`Outcome::Cancelled`]. A fused token consumes one checkpoint
    /// per poll until it fires, then stays cancelled forever.
    fn poll_cancel(&self, s: &mut ModelState) -> bool {
        if !self.supervised() {
            return false;
        }
        match self.scenario.cancel_after {
            None => false,
            Some(fuse) => {
                if s.cancelled || s.polls >= fuse {
                    s.cancelled = true;
                    true
                } else {
                    s.polls += 1;
                    false
                }
            }
        }
    }

    /// Unwind a request with a typed outcome; the `BufferLease` drop-scrub
    /// runs unless the seeded mutant skips it.
    fn unwind(&mut self, s: &mut ModelState, outcome: Outcome) {
        if self.variant != Variant::SkipScrubOnUnwind {
            s.arena_dirty = false;
        }
        self.finish_request(s, outcome);
    }

    /// Closes out the current request: records the outcome, checks the
    /// arena-zero boundary invariant, and resets per-request state.
    fn finish_request(&mut self, s: &mut ModelState, outcome: Outcome) {
        s.outcomes.push(outcome);
        if s.arena_dirty {
            let request = s.request;
            self.violate(
                s,
                "arena-zero",
                format!("request {request} ended with a dirty arena buffer"),
            );
            s.arena_dirty = false;
        }
        s.request += 1;
        s.round = 0;
        s.phase = Phase::Checkpoint;
        if s.request >= self.scenario.requests {
            s.done = true;
        }
    }

    /// Round start: arena lease on the first round, cooperative
    /// checkpoint, then the dispatch window opens.
    fn start_round(&mut self, s: &mut ModelState) {
        if s.round == 0 {
            s.arena_dirty = true;
        }
        if self.variant != Variant::CheckpointAfterDispatch && self.poll_cancel(s) {
            self.unwind(s, Outcome::Cancelled);
            return;
        }
        if s.workers.iter().any(|w| !w.is_idle()) {
            let request = s.request;
            let round = s.round;
            self.violate(
                s,
                "seat-reuse",
                format!("dispatch of request {request} round {round} with an undrained seat"),
            );
            // The real pool would now hand a seat two bodies; the model
            // keeps going on fresh seats so later invariants stay readable.
            for (w, st) in s.workers.iter_mut().enumerate() {
                *st = WorkerState::idle(w);
            }
        }
        s.panicked_this_round.clear();
        s.watchdog_fired = false;
        s.tardy.clear();
        s.rounds_dispatched += 1;
        s.published = false;
        s.park_floor = 1;
        s.phase = Phase::Dispatch { steps: 0 };
    }

    /// The caller's two dispatch steps, in the order the variant takes them.
    fn caller_step(&self, steps: usize) -> Step {
        let publish_first = self.variant != Variant::UnparkBeforePublish;
        if (steps == 0) == publish_first {
            Step::Publish
        } else {
            Step::ReadParked
        }
    }

    /// Share 0, run by the caller right after its two dispatch steps: one
    /// deterministic step, so nothing of the collect phase (the watchdog
    /// included) can precede it.
    fn run_own_share(&mut self, s: &mut ModelState) {
        let step = if self.wedge_target(s) == Some(0) {
            Step::CompleteTardy(0)
        } else if self.panic_target(s) == Some(0) {
            Step::CompletePanic(0)
        } else {
            Step::CompleteOk(0)
        };
        s.workers[0] = WorkerState::Running;
        self.apply(s, step);
        s.phase = Phase::Collect;
        if self.variant == Variant::ReturnBeforeDrain {
            self.end_round(s);
        }
    }

    /// Round end, after every worker reported: respawn accounting, health
    /// transitions, and either the next round or the request's outcome.
    /// Mirrors the tail of `WorkerPool::try_run`.
    fn end_round(&mut self, s: &mut ModelState) {
        s.phase = Phase::Checkpoint;
        for (w, st) in s.workers.iter_mut().enumerate() {
            if *st == WorkerState::Done {
                *st = WorkerState::idle(w);
            }
        }
        let panicked = s.panicked_this_round.clone();
        for &w in &panicked {
            Self::record_failure(s);
            // Share 0 has no thread to replace.
            s.respawns += usize::from(w != 0);
        }
        if s.watchdog_fired {
            let tardy = s.tardy.clone();
            for t in tardy {
                if !panicked.contains(&t) {
                    s.respawns += 1;
                }
            }
            if self.variant != Variant::SkipUnwedge && s.health == Health::Wedged {
                s.health = Health::Degraded;
            }
            self.unwind(s, Outcome::DeadlineWedged);
            return;
        }
        if !panicked.is_empty() {
            self.unwind(s, Outcome::WorkerPanicked);
            return;
        }
        self.record_success(s);
        if self.variant == Variant::CheckpointAfterDispatch && self.poll_cancel(s) {
            self.unwind(s, Outcome::Cancelled);
            return;
        }
        s.round += 1;
        if s.round >= self.scenario.rounds {
            s.arena_dirty = false;
            self.finish_request(s, Outcome::Ok);
        }
    }

    /// Transitions enabled in the current phase.
    fn enabled(&self, s: &ModelState) -> Vec<Step> {
        if let Phase::Dispatch { steps } = s.phase {
            // A spinning worker has seen every published epoch (`Publish`
            // starts them all), so its re-check finds nothing and it parks.
            let floor = if self.prune { s.park_floor } else { 1 };
            let mut out = vec![self.caller_step(steps)];
            out.extend(
                (floor..s.workers.len())
                    .filter(|&w| s.workers[w] == WorkerState::Spinning)
                    .map(Step::Park),
            );
            return out;
        }
        let wedge = self.wedge_target(s);
        let panicker = self.panic_target(s);
        let mut steps = Vec::new();
        for (w, st) in s.workers.iter().enumerate() {
            if *st != WorkerState::Running {
                continue;
            }
            if Some(w) == wedge {
                if s.watchdog_fired {
                    steps.push(Step::CompleteTardy(w));
                }
            } else if Some(w) == panicker {
                steps.push(Step::CompletePanic(w));
            } else {
                steps.push(Step::CompleteOk(w));
            }
        }
        // The deadline passes while the wedged share runs; for share 0
        // that share is over by now and the caller fires on regaining
        // control, whatever the spawned workers have finished meanwhile.
        if let Some(wd) = wedge {
            if !s.watchdog_fired && (wd == 0 || s.workers[wd] == WorkerState::Running) {
                steps.push(Step::WatchdogFire);
            }
        }
        steps
    }

    /// Applies one transition.
    fn apply(&mut self, s: &mut ModelState, step: Step) {
        s.steps_taken += 1;
        s.trace.push(step.describe());
        if let (Step::Publish | Step::ReadParked, Phase::Dispatch { steps }) = (step, s.phase) {
            // A caller step closes one park window and opens the next.
            s.phase = Phase::Dispatch { steps: steps + 1 };
            s.park_floor = 1;
        }
        match step {
            Step::Park(w) => {
                s.workers[w] = WorkerState::Parked;
                s.park_floor = w + 1;
            }
            Step::Publish => {
                s.published = true;
                for st in s.workers.iter_mut().skip(1) {
                    if *st == WorkerState::Spinning {
                        *st = WorkerState::Running;
                    }
                }
            }
            Step::ReadParked => {
                // An unparked worker re-checks the epoch: it starts the
                // published round, or finds none and spins again.
                for st in s.workers.iter_mut().skip(1) {
                    if *st == WorkerState::Parked {
                        *st = if s.published {
                            WorkerState::Running
                        } else {
                            WorkerState::Spinning
                        };
                    }
                }
            }
            Step::CompleteOk(w) | Step::CompleteTardy(w) | Step::CompletePanic(w) => {
                if s.workers[w] != WorkerState::Running {
                    self.violate(
                        s,
                        "double-serve",
                        format!("worker {w} reported twice in one round"),
                    );
                }
                s.workers[w] = WorkerState::Done;
                if matches!(step, Step::CompletePanic(_)) {
                    s.panicked_this_round.push(w);
                }
            }
            Step::WatchdogFire => {
                // `mark_wedged`: wedge counter, Wedged state, then a
                // recorded failure; the tardy set is the snapshot of
                // unreported workers at fire time.
                s.watchdog_fired = true;
                s.wedges += 1;
                s.health = Health::Wedged;
                Self::record_failure(s);
                s.tardy = (1..s.workers.len())
                    .filter(|&w| s.workers[w] != WorkerState::Done)
                    .collect();
            }
        }
    }

    /// Runs the deterministic machinery until the scenario finishes, gets
    /// stuck, or reaches a nondeterministic choice point.
    fn advance(&mut self, s: &mut ModelState) -> Advance {
        loop {
            if s.done {
                return Advance::Done;
            }
            if s.steps_taken > STEP_CAP {
                return Advance::Stuck("nontermination");
            }
            match s.phase {
                Phase::Checkpoint => {
                    self.start_round(s);
                    continue;
                }
                Phase::Dispatch { steps: 2 } => {
                    self.run_own_share(s);
                    continue;
                }
                Phase::Dispatch { .. } => {}
                Phase::Collect => {
                    let overdue = self.wedge_target(s) == Some(0) && !s.watchdog_fired;
                    if !overdue && s.workers.iter().all(|w| *w == WorkerState::Done) {
                        self.end_round(s);
                        continue;
                    }
                }
            }
            let enabled = self.enabled(s);
            if enabled.is_empty() {
                return Advance::Stuck("lost-wakeup");
            }
            if let (Phase::Dispatch { .. }, [caller_step]) = (s.phase, &enabled[..]) {
                // Nobody left to park: the caller's step is no choice.
                let caller_step = *caller_step;
                self.apply(s, caller_step);
                continue;
            }
            return Advance::Choose(if self.prune {
                prune_steps(enabled)
            } else {
                enabled
            });
        }
    }

    /// Depth-first exploration of every (pruned) schedule.
    fn dfs(&mut self, mut s: ModelState) {
        match self.advance(&mut s) {
            Advance::Done => self.terminal(&s),
            Advance::Stuck(invariant) => {
                self.schedules += 1;
                let detail = match invariant {
                    "nontermination" => format!("schedule exceeded {STEP_CAP} transitions"),
                    _ => "outstanding shares with no enabled transition".to_string(),
                };
                self.violate(&s, invariant, detail);
            }
            Advance::Choose(steps) => {
                for step in steps {
                    let mut next = s.clone();
                    self.apply(&mut next, step);
                    self.dfs(next);
                }
            }
        }
    }

    /// Runs one canonical schedule (always the first enabled transition)
    /// to completion and summarizes its schedule-independent observables.
    fn canonical(&mut self) -> Option<Reference> {
        let mut s = ModelState::initial(self.scenario);
        loop {
            match self.advance(&mut s) {
                Advance::Done => {
                    return Some(Reference {
                        outcomes: s.outcomes,
                        health: s.health,
                        wedges: s.wedges,
                        failures: s.failures,
                        rounds_dispatched: s.rounds_dispatched,
                        polls: s.polls,
                    });
                }
                Advance::Stuck(_) => return None,
                Advance::Choose(steps) => {
                    let step = steps[0];
                    self.apply(&mut s, step);
                }
            }
        }
    }

    /// Checks one terminal state against the faithful reference.
    fn terminal(&mut self, s: &ModelState) {
        self.schedules += 1;
        let Some(r) = self.reference.clone() else {
            self.violate(
                s,
                "outcome",
                "no faithful reference: the canonical schedule got stuck".to_string(),
            );
            return;
        };
        if s.outcomes != r.outcomes {
            self.violate(
                s,
                "outcome",
                format!(
                    "outcomes {:?}, faithful protocol yields {:?}",
                    s.outcomes, r.outcomes
                ),
            );
        }
        if s.health != r.health {
            self.violate(
                s,
                "health",
                format!(
                    "final health {:?}, faithful protocol ends {:?}",
                    s.health, r.health
                ),
            );
        }
        if s.wedges != r.wedges || s.failures != r.failures {
            self.violate(
                s,
                "health",
                format!(
                    "wedges/failures {}/{} diverge from faithful {}/{}",
                    s.wedges, s.failures, r.wedges, r.failures
                ),
            );
        }
        if s.rounds_dispatched != r.rounds_dispatched {
            self.violate(
                s,
                "dispatch-count",
                format!(
                    "{} rounds dispatched, faithful protocol dispatches {}",
                    s.rounds_dispatched, r.rounds_dispatched
                ),
            );
        }
        if s.polls != r.polls {
            self.violate(
                s,
                "checkpoint",
                format!(
                    "{} checkpoint polls, faithful protocol makes {}",
                    s.polls, r.polls
                ),
            );
        }
        let (lo, hi) = r.respawn_bounds(self.scenario);
        if s.respawns < lo || s.respawns > hi {
            self.violate(
                s,
                "respawn",
                format!(
                    "{} respawns outside the faithful bounds [{lo}, {hi}]",
                    s.respawns
                ),
            );
        }
    }
}

/// DPOR-lite: keep the least-id clean completion as the representative of
/// its commuting class, plus every non-clean transition.
fn prune_steps(enabled: Vec<Step>) -> Vec<Step> {
    let first_clean = enabled.iter().copied().find(|s| s.is_clean());
    let mut out: Vec<Step> = Vec::new();
    out.extend(first_clean);
    out.extend(enabled.iter().copied().filter(|s| !s.is_clean()));
    out
}

/// Exhausts every interleaving of `scenario` under `variant` with
/// DPOR-lite pruning on.
pub fn explore(scenario: &Scenario, variant: Variant) -> Exploration {
    explore_with(scenario, variant, true)
}

/// The faithful protocol's schedule-independent observables on `scenario`
/// (`None` if even its canonical schedule gets stuck).
fn faithful_reference(scenario: &Scenario) -> Option<Reference> {
    Checker {
        scenario,
        variant: Variant::Faithful,
        prune: true,
        reference: None,
        schedules: 0,
        violations: Vec::new(),
    }
    .canonical()
}

/// Exhausts every interleaving of `scenario` under `variant`, optionally
/// without pruning (the full permutation space — used to validate that
/// pruning does not change any verdict).
pub fn explore_with(scenario: &Scenario, variant: Variant, prune: bool) -> Exploration {
    let reference = faithful_reference(scenario);
    let mut checker = Checker {
        scenario,
        variant,
        prune,
        reference,
        schedules: 0,
        violations: Vec::new(),
    };
    checker.dfs(ModelState::initial(scenario));
    let mut seen: Vec<(&'static str, String)> = Vec::new();
    let mut deduped = Vec::new();
    for v in checker.violations {
        let key = (v.invariant, v.detail.clone());
        if !seen.contains(&key) {
            seen.push(key);
            deduped.push(v);
        }
    }
    Exploration {
        schedules: checker.schedules,
        violations: deduped,
    }
}

/// The standard scenario suite: every protocol edge the supervisor
/// machinery promises to handle, each small enough to exhaust.
pub fn standard_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "baseline-clean",
            workers: 2,
            rounds: 2,
            requests: 1,
            fault: Fault::None,
            cancel_after: None,
            deadline: false,
        },
        Scenario {
            name: "panic-recovery-promotion",
            workers: 3,
            rounds: 2,
            requests: 2,
            fault: Fault::Panic {
                request: 0,
                round: 1,
                worker: 1,
            },
            cancel_after: None,
            deadline: false,
        },
        Scenario {
            name: "panic-degraded-stays",
            workers: 3,
            rounds: 1,
            requests: 2,
            fault: Fault::Panic {
                request: 0,
                round: 0,
                worker: 2,
            },
            cancel_after: None,
            deadline: false,
        },
        Scenario {
            name: "fused-cancel-between-rounds",
            workers: 2,
            rounds: 2,
            requests: 2,
            fault: Fault::None,
            cancel_after: Some(1),
            deadline: false,
        },
        Scenario {
            name: "wedge-drain-respawn",
            workers: 3,
            rounds: 2,
            requests: 2,
            fault: Fault::Wedge {
                request: 0,
                round: 1,
                worker: 0,
            },
            cancel_after: None,
            deadline: true,
        },
        Scenario {
            name: "promotion-across-requests",
            workers: 2,
            rounds: 1,
            requests: 3,
            fault: Fault::Panic {
                request: 0,
                round: 0,
                worker: 0,
            },
            cancel_after: None,
            deadline: false,
        },
        // The two scenarios above that fault worker 0 now fault the caller
        // (no seat, no respawn); these are their spawned-worker twins.
        Scenario {
            name: "wedge-drain-respawn-spawned",
            workers: 3,
            rounds: 2,
            requests: 2,
            fault: Fault::Wedge {
                request: 0,
                round: 1,
                worker: 1,
            },
            cancel_after: None,
            deadline: true,
        },
        Scenario {
            name: "promotion-across-requests-spawned",
            workers: 2,
            rounds: 1,
            requests: 3,
            fault: Fault::Panic {
                request: 0,
                round: 0,
                worker: 1,
            },
            cancel_after: None,
            deadline: false,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn by_name(name: &str) -> Scenario {
        standard_scenarios()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown scenario {name}"))
    }

    #[test]
    fn faithful_protocol_is_clean_on_every_standard_scenario() {
        for scenario in standard_scenarios() {
            let ex = explore(&scenario, Variant::Faithful);
            assert!(
                ex.clean(),
                "scenario {} violated: {}",
                scenario.name,
                ex.violations
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            );
            assert!(
                ex.schedules > 0,
                "scenario {} explored nothing",
                scenario.name
            );
        }
    }

    /// The exhaustiveness pin: these counts change only if the protocol
    /// model or the pruning rule changes, and any such change must be
    /// reviewed against the docs above.
    ///
    /// Each count is `Π over dispatched rounds of 2^(workers − 1)` (which
    /// spawned workers parked before the publish) `× the collect orders of
    /// the faulted round` (share 0 is one deterministic step; all-clean
    /// collects prune to one order): a spawned panic or wedge beside one
    /// clean spawned worker has 2 resp. 3 orders, a caller wedge beside two
    /// has 3 positions for the watchdog, a caller panic has 1.
    #[test]
    fn pruned_schedule_counts_are_pinned() {
        let counts: Vec<(&str, usize)> = standard_scenarios()
            .iter()
            .map(|s| (s.name, explore(s, Variant::Faithful).schedules))
            .collect();
        assert_eq!(
            counts,
            vec![
                ("baseline-clean", 4),                    // 2·2 × 1
                ("panic-recovery-promotion", 512),        // 4⁴ × 2
                ("panic-degraded-stays", 32),             // 4² × 2
                ("fused-cancel-between-rounds", 2),       // 2 × 1 (one round dispatched)
                ("wedge-drain-respawn", 768),             // 4⁴ × 3
                ("promotion-across-requests", 8),         // 2³ × 1
                ("wedge-drain-respawn-spawned", 768),     // 4⁴ × 3
                ("promotion-across-requests-spawned", 8), // 2³ × 1
            ]
        );
    }

    #[test]
    fn unpruned_exploration_reaches_the_same_verdict() {
        for scenario in standard_scenarios() {
            for variant in [Variant::Faithful, Variant::SkipScrubOnUnwind] {
                let pruned = explore_with(&scenario, variant, true);
                let full = explore_with(&scenario, variant, false);
                assert_eq!(
                    pruned.clean(),
                    full.clean(),
                    "pruning changed the verdict on {} under {variant:?}",
                    scenario.name
                );
                assert!(
                    full.schedules >= pruned.schedules,
                    "pruning must not add schedules on {}",
                    scenario.name
                );
            }
        }
    }

    #[test]
    fn checkpoint_after_dispatch_mutant_is_caught() {
        let ex = explore(
            &by_name("fused-cancel-between-rounds"),
            Variant::CheckpointAfterDispatch,
        );
        assert!(!ex.clean(), "mutant escaped");
        assert!(
            ex.violations
                .iter()
                .any(|v| v.invariant == "dispatch-count"),
            "expected a dispatch-count violation, got: {:?}",
            ex.violations
        );
    }

    #[test]
    fn skip_scrub_mutant_is_caught_on_every_unwind_path() {
        for name in [
            "panic-degraded-stays",
            "wedge-drain-respawn",
            "fused-cancel-between-rounds",
        ] {
            let ex = explore(&by_name(name), Variant::SkipScrubOnUnwind);
            assert!(
                ex.violations.iter().any(|v| v.invariant == "arena-zero"),
                "arena leak escaped on {name}: {:?}",
                ex.violations
            );
        }
    }

    #[test]
    fn skip_unwedge_mutant_is_caught() {
        for name in ["wedge-drain-respawn", "wedge-drain-respawn-spawned"] {
            let ex = explore(&by_name(name), Variant::SkipUnwedge);
            assert!(
                ex.violations.iter().any(|v| v.invariant == "health"),
                "stuck wedge escaped on {name}: {:?}",
                ex.violations
            );
        }
    }

    #[test]
    fn unpark_before_publish_mutant_loses_a_wakeup_on_every_scenario() {
        // Any dispatch can lose the race: a worker parks after the caller
        // read its flag and before the epoch moved, and sleeps forever.
        for scenario in standard_scenarios() {
            let ex = explore(&scenario, Variant::UnparkBeforePublish);
            assert!(
                ex.violations.iter().any(|v| v.invariant == "lost-wakeup"),
                "lost wakeup escaped on {}: {:?}",
                scenario.name,
                ex.violations
            );
        }
    }

    #[test]
    fn return_before_drain_mutant_reuses_a_running_seat() {
        // Caught wherever a second round is dispatched on the same pool.
        for name in [
            "baseline-clean",
            "panic-recovery-promotion",
            "wedge-drain-respawn",
            "promotion-across-requests-spawned",
        ] {
            let ex = explore(&by_name(name), Variant::ReturnBeforeDrain);
            assert!(
                ex.violations.iter().any(|v| v.invariant == "seat-reuse"),
                "early return escaped on {name}: {:?}",
                ex.violations
            );
        }
    }

    #[test]
    fn respawns_count_replaced_threads_only() {
        // A fault on the caller respawns nothing it does not have to; the
        // same fault on a spawned worker respawns at least that worker.
        let bounds = |name: &str| {
            let scenario = by_name(name);
            faithful_reference(&scenario)
                .unwrap_or_else(|| panic!("{name}: canonical schedule got stuck"))
                .respawn_bounds(&scenario)
        };
        assert_eq!(bounds("promotion-across-requests"), (0, 0));
        assert_eq!(bounds("promotion-across-requests-spawned"), (1, 1));
        assert_eq!(bounds("wedge-drain-respawn"), (0, 2));
        assert_eq!(bounds("wedge-drain-respawn-spawned"), (1, 2));
        assert_eq!(bounds("panic-recovery-promotion"), (1, 1));
    }

    #[test]
    fn premature_promotion_mutant_is_caught() {
        let ex = explore(
            &by_name("panic-degraded-stays"),
            Variant::PromoteWithoutStreak,
        );
        assert!(
            ex.violations.iter().any(|v| v.invariant == "health"),
            "premature promotion escaped: {:?}",
            ex.violations
        );
    }

    #[test]
    fn faithful_wedge_round_explores_watchdog_interleavings() {
        // The watchdog can fire before, between, or after the two clean
        // completions — all three interleavings (times the rest of the
        // scenario) must be distinct schedules, and every one must agree
        // on the schedule-independent observables.
        for name in ["wedge-drain-respawn", "wedge-drain-respawn-spawned"] {
            let ex = explore(&by_name(name), Variant::Faithful);
            assert!(ex.clean(), "{name}: {:?}", ex.violations);
            assert!(
                ex.schedules >= 3,
                "{name}: expected at least 3 watchdog interleavings, got {}",
                ex.schedules
            );
        }
    }

    #[test]
    fn promotion_edge_is_exercised() {
        // promotion-across-requests: panic, then MODEL_RECOVERY_STREAK
        // clean rounds promote the pool back to Healthy — verified by the
        // canonical reference the exploration compares against.
        let scenario = by_name("promotion-across-requests");
        let ex = explore(&scenario, Variant::Faithful);
        assert!(ex.clean(), "{:?}", ex.violations);
        // And the streak really is load-bearing: the degraded scenario
        // (one clean round only) must NOT end Healthy, which is exactly
        // what the PromoteWithoutStreak mutant violates above.
    }
}
