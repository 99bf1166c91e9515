//! Fault-tolerant DSE runtime: run health accounting, panic/error-isolated
//! candidate evaluation, and persistent GA checkpoints.
//!
//! Long early-stage DSE campaigns fail for boring reasons — a pathological
//! candidate panics the evaluator, a numeric corner case surfaces hours in,
//! the host machine reboots. This module keeps such events from destroying
//! a run:
//!
//! * [`RunHealth`] — counters describing everything non-nominal that
//!   happened during a run (caught panics, typed evaluation errors,
//!   retries, quarantined candidates, degraded Markov analyses,
//!   checkpoints written, resume point). Attached to
//!   [`FrontResult`](crate::methodology::FrontResult) by the supervised
//!   entry points.
//! * [`ResilientProblem`] — wraps any [`FallibleProblem`] so a panicking
//!   or erroring fitness evaluation is caught, retried a bounded number
//!   of times, and finally *quarantined*: the candidate receives
//!   [`QUARANTINE_OBJECTIVE`] on every axis plus an equal constraint
//!   violation, so Deb's constraint-domination ranks it behind every
//!   healthy individual and selection breeds it out.
//! * [`Checkpoint`] — a versioned, integrity-sealed binary snapshot of
//!   a GA stage (generation index, evaluated population, RNG state
//!   words, stage bookkeeping). Written atomically (temp file + rename)
//!   by the supervised runs in [`crate::methodology`] and decoded by
//!   [`ClrEarly::resume_supervised`](crate::ClrEarly::resume_supervised),
//!   which deterministically continues to the *identical* final front.
//! * [`RunSupervisor`] / [`SupervisorConfig`] — where checkpoints go, how
//!   often they are written, and how many retries a failing evaluation
//!   gets. The supervisor also hosts the crash-injection seam used by the
//!   resilience integration tests.
//!
//! Checkpoints encode every `f64` through its IEEE-754 bit pattern, so a
//! resumed run replays bit-identically; the GA side of that guarantee is
//! the step-wise API of [`clre_moea::Nsga2`] (`init_state`/`step`/
//! `finalize`), whose RNG state words round-trip exactly.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clre_model::{PeId, TaskId};
use clre_moea::{Evaluation, EvoSnapshot, Individual, Problem};
use rand::RngCore;

use crate::cache::Fnv;
use crate::encoding::{Gene, Genome};
use crate::journal::{self, RecordLog};
use crate::methodology::FrontResult;
use crate::problem::SystemProblem;
use crate::DseError;

/// Objective value assigned to quarantined candidates. Finite (so sorting
/// and crowding stay well-defined) but far beyond any physical metric;
/// combined with an equal constraint violation it loses every
/// constraint-domination comparison against a healthy individual.
pub const QUARANTINE_OBJECTIVE: f64 = 1.0e30;

/// Shared, thread-safe handle to a [`RunHealth`]: the resilient wrapper
/// mutates the counters from whichever worker thread evaluates a
/// candidate, and the GA driver reads them between generations.
pub type HealthHandle = Arc<Mutex<RunHealth>>;

/// Everything non-nominal that happened during a (possibly multi-stage,
/// possibly resumed) DSE run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunHealth {
    /// Evaluations that panicked and were caught.
    pub panics_isolated: usize,
    /// Evaluations that returned a typed error (or non-finite fitness).
    pub errors_isolated: usize,
    /// Re-evaluation attempts made after a caught failure.
    pub retries: usize,
    /// Candidates that exhausted their retries and were assigned
    /// [`QUARANTINE_OBJECTIVE`] fitness.
    pub quarantined: usize,
    /// Task-level Markov analyses answered by the degraded closed-form
    /// fallback instead of the matrix solver.
    pub degraded_analyses: usize,
    /// Checkpoints written by the supervisor.
    pub checkpoints_written: usize,
    /// Generation the run was resumed from, if it was resumed.
    pub resumed_from_generation: Option<usize>,
    /// Genome-fitness cache lookups answered from the cache. Zero when no
    /// cache is attached.
    pub cache_hits: u64,
    /// Evaluation-cache lookups that had to compute.
    pub cache_misses: u64,
    /// Fresh results inserted into the evaluation cache.
    pub cache_inserts: u64,
    /// Evaluations whose wall-clock exceeded the configured deadline and
    /// were converted into retryable timeouts by the watchdog.
    pub timeouts: usize,
    /// Total milliseconds of deterministic retry backoff slept.
    pub backoff_ms: u64,
    /// Faults fired by an attached [`FaultInjector`].
    pub injected: usize,
    /// Evaluations that failed at least once and then succeeded on a
    /// retry (the failure was fully recovered, nothing was quarantined).
    pub recovered: usize,
    /// Corrupt or unreadable checkpoint generations skipped in favour of
    /// an older rotation slot during resume.
    pub checkpoint_fallbacks: usize,
    /// Malformed sidecar lines skipped while reloading triage records.
    pub sidecar_lines_skipped: usize,
}

impl RunHealth {
    /// `true` when nothing non-nominal happened: no failures were
    /// isolated, nothing was quarantined, and no analysis degraded.
    /// (Checkpointing, resuming and cache activity are nominal
    /// supervisor/accelerator behaviour.)
    pub fn is_clean(&self) -> bool {
        self.panics_isolated == 0
            && self.errors_isolated == 0
            && self.retries == 0
            && self.quarantined == 0
            && self.degraded_analyses == 0
            && self.timeouts == 0
            && self.injected == 0
            && self.checkpoint_fallbacks == 0
            && self.sidecar_lines_skipped == 0
    }

    /// Folds another health report's counters into this one.
    pub fn merge(&mut self, other: &RunHealth) {
        self.panics_isolated += other.panics_isolated;
        self.errors_isolated += other.errors_isolated;
        self.retries += other.retries;
        self.quarantined += other.quarantined;
        self.degraded_analyses += other.degraded_analyses;
        self.checkpoints_written += other.checkpoints_written;
        self.timeouts += other.timeouts;
        self.backoff_ms += other.backoff_ms;
        self.injected += other.injected;
        self.recovered += other.recovered;
        self.checkpoint_fallbacks += other.checkpoint_fallbacks;
        self.sidecar_lines_skipped += other.sidecar_lines_skipped;
        if self.resumed_from_generation.is_none() {
            self.resumed_from_generation = other.resumed_from_generation;
        }
        // Cache counters are process-wide running totals (stamped, not
        // per-stage deltas), so merging keeps the larger snapshot rather
        // than summing — summing would double-count shared-cache stages.
        self.cache_hits = self.cache_hits.max(other.cache_hits);
        self.cache_misses = self.cache_misses.max(other.cache_misses);
        self.cache_inserts = self.cache_inserts.max(other.cache_inserts);
    }
}

/// A problem that can report evaluation failures as typed errors instead
/// of (only) panicking. [`ResilientProblem`] uses this channel to count
/// and classify failures without unwinding where possible; panics remain
/// the fallback channel for truly unexpected failures.
///
/// This is the domain-level (`DseError`-typed) sibling of the
/// MOEA-generic [`Problem::try_evaluate`]: a problem whose
/// [`Problem::reports_errors`] returns `true` promises that this channel
/// is its native failure path, which lets [`ResilientProblem`] skip
/// `catch_unwind` entirely in the common path.
pub trait FallibleProblem: Problem {
    /// Fallible fitness evaluation.
    ///
    /// # Errors
    ///
    /// Implementation-specific evaluation failures.
    fn try_evaluate(&self, genome: &Self::Genome) -> Result<Evaluation, DseError>;

    /// A human-readable rendering of a genome for triage artifacts (the
    /// quarantine sidecar). The default is a placeholder; problems with a
    /// meaningful text form should override it.
    fn describe_genome(&self, _genome: &Self::Genome) -> String {
        "<genome>".to_owned()
    }
}

impl FallibleProblem for SystemProblem<'_> {
    fn try_evaluate(&self, genome: &Genome) -> Result<Evaluation, DseError> {
        SystemProblem::try_evaluate(self, genome)
    }

    fn describe_genome(&self, genome: &Genome) -> String {
        let mut out = String::new();
        encode_genome(&mut out, genome);
        out
    }
}

/// One quarantined candidate: what it looked like and why every attempt
/// to evaluate it failed. Collected by [`ResilientProblem`] and persisted
/// as the `quarantine.txt` triage sidecar by the supervised runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// The genome, rendered via [`FallibleProblem::describe_genome`].
    pub genome: String,
    /// The failure message of the last attempt (panic payload or typed
    /// error).
    pub error: String,
}

impl QuarantineRecord {
    /// One-line `quarantine-v1 error=… genome=…` sidecar form. The error
    /// string is flattened to a single line.
    pub fn line(&self) -> String {
        format!(
            "quarantine-v1 error={} genome={}",
            self.error.replace(['\n', '\r'], " "),
            self.genome,
        )
    }

    /// Parses a [`QuarantineRecord::line`]; `None` if it is not one.
    fn parse(line: &str) -> Option<Self> {
        let rest = line
            .strip_prefix("quarantine-v1 ")?
            .strip_prefix("error=")?;
        // The error text is free-form (flattened to one line); the genome
        // rendering never contains `=`, so the *last* ` genome=` marker
        // splits the two unambiguously.
        let at = rest.rfind(" genome=")?;
        let genome = rest[at + " genome=".len()..].to_owned();
        if genome.is_empty() {
            return None;
        }
        Some(QuarantineRecord {
            genome,
            error: rest[..at].to_owned(),
        })
    }
}

/// Creates the missing parent directories of `path`, so checkpoint
/// writers work under per-tenant server roots
/// (`<root>/<tenant>/<campaign>/…`) without pre-created directories.
pub(crate) fn ensure_parent_dir(path: &Path) -> Result<(), DseError> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() && !dir.exists() => {
            fs::create_dir_all(dir).map_err(|e| bad(format!("creating {}: {e}", dir.display())))
        }
        _ => Ok(()),
    }
}

/// The conventional sidecar location: `quarantine.txt` next to the
/// checkpoint file.
pub fn quarantine_sidecar_path(checkpoint_path: &Path) -> PathBuf {
    checkpoint_path.with_file_name("quarantine.txt")
}

/// First line of every quarantine sidecar.
const QUARANTINE_HEADER: &str = "clrearly-quarantine v1";

/// The quarantine triage sidecar: a [`RecordLog`] of
/// [`QuarantineRecord::line`]s. It opens (and continues) its file on the
/// first append, so a clean run leaves no sidecar.
#[derive(Debug)]
pub struct QuarantineSidecar {
    path: PathBuf,
    log: Option<RecordLog>,
}

impl QuarantineSidecar {
    /// The sidecar at `path`; nothing is opened yet.
    pub fn new(path: PathBuf) -> Self {
        QuarantineSidecar { path, log: None }
    }

    /// The records of the sidecar at `path` and the number of lines
    /// skipped (a torn tail or corruption); a missing file has none. A
    /// foreign file (a headerless sidecar of an older version, say) reads
    /// as one skipped line, and the next append moves it aside.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] on I/O failure.
    pub fn read(path: &Path) -> Result<(Vec<QuarantineRecord>, usize), DseError> {
        let mut out = Vec::new();
        let skipped = match RecordLog::replay(path, QUARANTINE_HEADER, |line| {
            QuarantineRecord::parse(line).map(|r| out.push(r)).is_some()
        }) {
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => Ok(1),
            replayed => replayed,
        };
        let skipped = skipped.map_err(|e| bad(format!("reading {}: {e}", path.display())))?;
        Ok((out, skipped))
    }

    /// Appends `records` and writes them through to the file.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] wrapping the underlying I/O failure.
    pub fn append(&mut self, records: &[QuarantineRecord]) -> Result<(), DseError> {
        if records.is_empty() {
            return Ok(());
        }
        let io = |e: std::io::Error| bad(format!("writing {}: {e}", self.path.display()));
        if self.log.is_none() {
            let (log, _) = RecordLog::open_or_set_aside(&self.path, QUARANTINE_HEADER, |_| true)
                .map_err(io)?;
            self.log = Some(log);
        }
        let log = self.log.as_mut().expect("opened above");
        for record in records {
            log.append(&journal::seal(record.line())).map_err(io)?;
        }
        log.flush().map_err(io)
    }
}

/// One fault decision from a [`FaultInjector`]: what happens to a single
/// evaluation attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectedFault {
    /// Fail the attempt as a caught panic with this message (exercises
    /// the unwind-isolation arm of [`ResilientProblem`]).
    Panic(String),
    /// Fail the attempt with a typed evaluation error (exercises the
    /// typed-error arm).
    Error(String),
    /// Return NaN objectives (exercises the non-finite fitness guard).
    PoisonObjectives,
    /// Sleep this long before the evaluation runs, modelling a hung
    /// evaluator (exercises the deadline watchdog when the stall exceeds
    /// the configured deadline).
    Stall(Duration),
}

/// A deterministic fault source consulted by [`ResilientProblem`] before
/// every evaluation attempt.
///
/// Implementations must be pure functions of `(key, attempt)` — the key
/// is the genome's [`FallibleProblem::describe_genome`] rendering — and
/// never of call order, thread identity, or wall clock, so the fault
/// schedule of a seeded run is identical across worker counts, thread
/// interleavings, and reruns. `clre-chaos`'s `FaultPlan` is the
/// canonical implementation.
pub trait FaultInjector: std::fmt::Debug + Send + Sync {
    /// The fault to inject when evaluating `key` on `attempt` (0-based),
    /// or `None` to leave the attempt untouched.
    fn eval_fault(&self, key: &str, attempt: usize) -> Option<InjectedFault>;
}

/// Deterministic exponential-backoff policy for evaluation retries.
///
/// The delay before retry `attempt` doubles from `base_ms` up to
/// `cap_ms`, with salted jitter derived from the genome key and the
/// policy seed — *not* from wall clock or a shared RNG — so the exact
/// backoff schedule (and the `backoff_ms` health counter) is a pure
/// function of `(seed, genome, attempt)` and reproduces bit-identically
/// on rerun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First-retry delay, in milliseconds.
    pub base_ms: u64,
    /// Upper bound any single delay is clamped to, in milliseconds.
    pub cap_ms: u64,
    /// Jitter salt; the run seed by convention.
    pub seed: u64,
}

impl BackoffPolicy {
    /// A policy with the given base delay, cap, and jitter seed.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Self {
        BackoffPolicy {
            base_ms,
            cap_ms,
            seed,
        }
    }

    /// The delay in milliseconds before retry `attempt` (0-based) of the
    /// evaluation keyed by `key`: `base·2^attempt` clamped to the cap,
    /// jittered into `[delay/2, delay]` by an FNV-1a hash of
    /// `(seed, key, attempt)`.
    fn delay_ms(&self, key: u64, attempt: usize) -> u64 {
        let exp = u32::try_from(attempt.min(20)).unwrap_or(20);
        let raw = self
            .base_ms
            .saturating_mul(1u64 << exp)
            .min(self.cap_ms.max(self.base_ms));
        if raw == 0 {
            return 0;
        }
        let mut fnv = Fnv::new();
        fnv.write_u64(self.seed);
        fnv.write_u64(key);
        fnv.write_u64(u64::try_from(attempt).unwrap_or(u64::MAX));
        let span = raw - raw / 2;
        raw / 2 + fnv.finish() % (span + 1)
    }
}

/// Panic- and error-isolating wrapper around a [`FallibleProblem`].
///
/// Failures are retried up to `max_retries` times and then quarantined
/// with [`QUARANTINE_OBJECTIVE`] fitness; all events are tallied in a
/// shared [`RunHealth`] handle so the GA driver can report them after the
/// run. Problems that natively report failures as typed errors
/// ([`Problem::reports_errors`]) are driven through the typed channel
/// directly; [`catch_unwind`] is kept only as a last-resort fallback for
/// legacy problems whose sole failure channel is a panic.
///
/// # Examples
///
/// ```
/// use clre::resilience::{FallibleProblem, ResilientProblem, QUARANTINE_OBJECTIVE};
/// use clre_moea::{Evaluation, Problem};
/// use rand::RngCore;
///
/// struct Fragile;
/// impl Problem for Fragile {
///     type Genome = u32;
///     fn objective_count(&self) -> usize { 1 }
///     fn random_genome(&self, _: &mut dyn RngCore) -> u32 { 0 }
///     fn evaluate(&self, g: &u32) -> Evaluation {
///         if *g == 13 { panic!("unlucky") }
///         Evaluation::feasible(vec![f64::from(*g)])
///     }
/// }
/// impl FallibleProblem for Fragile {
///     fn try_evaluate(&self, g: &u32) -> Result<Evaluation, clre::DseError> {
///         Ok(self.evaluate(g))
///     }
/// }
///
/// let p = ResilientProblem::new(Fragile);
/// let health = p.health();
/// assert_eq!(p.evaluate(&2).objectives, vec![2.0]);
/// assert_eq!(p.evaluate(&13).objectives, vec![QUARANTINE_OBJECTIVE]);
/// assert_eq!(health.lock().unwrap().quarantined, 1);
/// ```
#[derive(Debug)]
pub struct ResilientProblem<P: FallibleProblem> {
    inner: P,
    max_retries: usize,
    health: HealthHandle,
    quarantine_log: Arc<Mutex<Vec<QuarantineRecord>>>,
    injector: Option<Arc<dyn FaultInjector>>,
    deadline: Option<Duration>,
    backoff: Option<BackoffPolicy>,
}

impl<P: FallibleProblem> ResilientProblem<P> {
    /// Wraps `inner` with one retry per failing evaluation.
    pub fn new(inner: P) -> Self {
        ResilientProblem {
            inner,
            max_retries: 1,
            health: Arc::new(Mutex::new(RunHealth::default())),
            quarantine_log: Arc::new(Mutex::new(Vec::new())),
            injector: None,
            deadline: None,
            backoff: None,
        }
    }

    /// Sets the retry budget per failing evaluation (builder style).
    /// Zero means quarantine on the first failure.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Attaches a deterministic fault injector, consulted before every
    /// evaluation attempt (builder style).
    #[must_use]
    pub fn with_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Sets a per-evaluation wall-clock deadline (builder style). The
    /// watchdog is cooperative: the clock is checked when the evaluation
    /// returns, converting an over-deadline attempt (e.g. an injected
    /// stall) into a retryable timeout instead of accepting its result.
    /// A truly diverging evaluation that never returns is outside the
    /// recovery model (DESIGN.md §14).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables deterministic exponential backoff with salted jitter
    /// between retry attempts (builder style).
    #[must_use]
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = Some(backoff);
        self
    }

    /// Shared handle to the failure counters, live during the run.
    pub fn health(&self) -> HealthHandle {
        Arc::clone(&self.health)
    }

    /// Shared handle to the quarantine triage log: one record per
    /// candidate that exhausted its retries, in quarantine order.
    pub fn quarantine_log(&self) -> Arc<Mutex<Vec<QuarantineRecord>>> {
        Arc::clone(&self.quarantine_log)
    }

    fn health_mut(&self) -> std::sync::MutexGuard<'_, RunHealth> {
        self.health.lock().expect("run health poisoned")
    }

    /// One un-injected evaluation attempt: the typed channel directly, or
    /// `catch_unwind` for legacy problems whose sole failure channel is a
    /// panic. `AssertUnwindSafe`: the inner problem is only read here,
    /// and a caught failure discards the attempt's partial state.
    #[allow(clippy::type_complexity)]
    fn attempt(
        &self,
        genome: &P::Genome,
        typed: bool,
    ) -> Result<Result<Evaluation, DseError>, Box<dyn std::any::Any + Send>> {
        if typed {
            Ok(FallibleProblem::try_evaluate(&self.inner, genome))
        } else {
            catch_unwind(AssertUnwindSafe(|| {
                FallibleProblem::try_evaluate(&self.inner, genome)
            }))
        }
    }

    fn quarantine(&self, genome: &P::Genome, error: String) -> Evaluation {
        self.health_mut().quarantined += 1;
        self.quarantine_log
            .lock()
            .expect("quarantine log poisoned")
            .push(QuarantineRecord {
                genome: self.inner.describe_genome(genome),
                error,
            });
        Evaluation::with_violation(
            vec![QUARANTINE_OBJECTIVE; self.inner.objective_count()],
            QUARANTINE_OBJECTIVE,
        )
    }
}

/// Renders a `catch_unwind` payload as text (`&str`/`String` payloads
/// verbatim, anything else a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

impl<P: FallibleProblem> Problem for ResilientProblem<P> {
    type Genome = P::Genome;

    fn objective_count(&self) -> usize {
        self.inner.objective_count()
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> Self::Genome {
        self.inner.random_genome(rng)
    }

    fn evaluate(&self, genome: &Self::Genome) -> Evaluation {
        // Common path: a problem that natively reports failures as typed
        // errors (`Problem::reports_errors`) is driven through the typed
        // channel directly — no unwind machinery at all. `catch_unwind`
        // is kept only as a last-resort fallback for legacy problems
        // whose sole failure channel is a panic.
        let typed = self.inner.reports_errors();
        // The genome key drives injection decisions and backoff jitter:
        // both are content-addressed, never call-order-addressed, so
        // fault and backoff schedules survive any thread interleaving.
        let chaos_key = if self.injector.is_some() || self.backoff.is_some() {
            Some(self.inner.describe_genome(genome))
        } else {
            None
        };
        let mut last_error = String::new();
        for attempt in 0..=self.max_retries {
            if attempt > 0 {
                self.health_mut().retries += 1;
                if let (Some(policy), Some(key)) = (self.backoff, chaos_key.as_deref()) {
                    let delay = policy.delay_ms(Fnv::hash_bytes(key.as_bytes()), attempt - 1);
                    if delay > 0 {
                        self.health_mut().backoff_ms += delay;
                        std::thread::sleep(Duration::from_millis(delay));
                    }
                }
            }
            let fault = match (&self.injector, chaos_key.as_deref()) {
                (Some(injector), Some(key)) => injector.eval_fault(key, attempt),
                _ => None,
            };
            if fault.is_some() {
                self.health_mut().injected += 1;
            }
            let started = Instant::now();
            let outcome = match fault {
                Some(InjectedFault::Error(what)) => Ok(Err(DseError::Injected { what })),
                Some(InjectedFault::Panic(what)) => {
                    // Synthesized unwind payload: the recovery arm is the
                    // one real panics take, without the global panic hook
                    // spamming stderr for every scheduled fault.
                    Err(Box::new(what) as Box<dyn std::any::Any + Send>)
                }
                Some(InjectedFault::PoisonObjectives) => Ok(Ok(Evaluation::feasible(vec![
                    f64::NAN;
                    self.inner.objective_count()
                ]))),
                Some(InjectedFault::Stall(pause)) => {
                    std::thread::sleep(pause);
                    self.attempt(genome, typed)
                }
                None => self.attempt(genome, typed),
            };
            let timed_out = self.deadline.is_some_and(|d| started.elapsed() > d);
            match outcome {
                Err(payload) => {
                    self.health_mut().panics_isolated += 1;
                    last_error = format!("panic: {}", panic_message(payload.as_ref()));
                }
                Ok(_) if timed_out => {
                    self.health_mut().timeouts += 1;
                    last_error = "evaluation deadline exceeded".to_owned();
                }
                Ok(Ok(eval))
                    if eval.violation.is_finite()
                        && eval.objectives.iter().all(|v| v.is_finite()) =>
                {
                    if attempt > 0 {
                        self.health_mut().recovered += 1;
                    }
                    return eval;
                }
                Ok(Ok(_)) => {
                    self.health_mut().errors_isolated += 1;
                    last_error = "non-finite fitness".to_owned();
                }
                Ok(Err(e)) => {
                    self.health_mut().errors_isolated += 1;
                    last_error = e.to_string();
                }
            }
        }
        self.quarantine(genome, last_error)
    }

    fn try_evaluate(&self, genome: &Self::Genome) -> Result<Evaluation, clre_moea::EvalError> {
        Ok(self.evaluate(genome))
    }

    fn reports_errors(&self) -> bool {
        // Evaluation never fails: the quarantine absorbs every failure.
        true
    }

    /// Forwards the inner problem's remote-evaluation codec **only when
    /// no chaos machinery is armed**: injection, deadlines and backoff
    /// act per-attempt inside [`ResilientProblem::evaluate`], which a
    /// remote batch would bypass. With any of them configured the
    /// problem stays local so the chaos schedule (and its determinism
    /// guarantees) keep applying to every evaluation.
    fn remote(&self) -> Option<&dyn clre_moea::RemoteEval<Self::Genome>> {
        if self.injector.is_none() && self.deadline.is_none() && self.backoff.is_none() {
            self.inner.remote()
        } else {
            None
        }
    }
}

/// Where and how often a supervised run checkpoints, and how failures are
/// retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// File the checkpoint is (atomically) written to.
    pub checkpoint_path: PathBuf,
    /// Checkpoint every this many generations (≥ 1).
    pub every_generations: usize,
    /// Retry budget per failing fitness evaluation.
    pub max_retries: usize,
    /// Number of checkpoint generations to keep (≥ 1). The newest lives
    /// at `checkpoint_path`; older generations are rotated to
    /// `<path>.1 … <path>.keep-1`, oldest pruned.
    pub keep_checkpoints: usize,
    /// Per-evaluation wall-clock deadline; an attempt that exceeds it is
    /// converted into a retryable timeout. `None` disables the watchdog.
    pub eval_deadline: Option<Duration>,
    /// Deterministic exponential-backoff policy applied between retry
    /// attempts. `None` (the default) retries immediately.
    pub backoff: Option<BackoffPolicy>,
}

impl SupervisorConfig {
    /// Checkpoints to `path` every generation with one retry per failure,
    /// keeping only the newest checkpoint.
    ///
    /// The per-generation cadence bounds what a hard kill loses to one
    /// generation, and it is cheap: the identity and completed stages
    /// are encoded once per stage, so a save writes only the health and
    /// the live population. For `synthetic:50:1` `proposed` 60×30 with
    /// two checkpoints kept, a second-stage save is a 25 KB record and
    /// took 43–47 µs (medians, 2-vCPU VM), against 490–500 µs for the
    /// 56 KB text record of the v2 format.
    ///
    /// Every `with_*` method is a consuming builder: it returns the
    /// updated configuration (and is `#[must_use]` — dropping the result
    /// discards the setting).
    ///
    /// # Examples
    ///
    /// ```
    /// use clre::resilience::SupervisorConfig;
    ///
    /// let config = SupervisorConfig::new("/tmp/run.ckpt")
    ///     .with_interval(5)
    ///     .with_max_retries(2)
    ///     .with_keep_checkpoints(3);
    /// assert_eq!(config.every_generations, 5);
    /// assert_eq!(config.max_retries, 2);
    /// assert_eq!(config.keep_checkpoints, 3);
    /// ```
    pub fn new(path: impl Into<PathBuf>) -> Self {
        SupervisorConfig {
            checkpoint_path: path.into(),
            every_generations: 1,
            max_retries: 1,
            keep_checkpoints: 1,
            eval_deadline: None,
            backoff: None,
        }
    }

    /// Sets the checkpoint cadence in generations (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    #[must_use]
    pub fn with_interval(mut self, every: usize) -> Self {
        assert!(every > 0, "checkpoint interval must be at least 1");
        self.every_generations = every;
        self
    }

    /// Sets the per-evaluation retry budget (builder style).
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Sets how many checkpoint generations to keep (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `keep == 0`.
    #[must_use]
    pub fn with_keep_checkpoints(mut self, keep: usize) -> Self {
        assert!(keep > 0, "must keep at least one checkpoint");
        self.keep_checkpoints = keep;
        self
    }

    /// Sets a per-evaluation wall-clock deadline (builder style): an
    /// attempt that exceeds it is discarded, counted as a timeout, and
    /// retried — see [`ResilientProblem::with_deadline`].
    #[must_use]
    pub fn with_eval_deadline(mut self, deadline: Duration) -> Self {
        self.eval_deadline = Some(deadline);
        self
    }

    /// Enables deterministic exponential backoff with salted jitter
    /// between retry attempts (builder style).
    #[must_use]
    pub fn with_backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.backoff = Some(backoff);
        self
    }
}

/// The path of rotation slot `n` of `path` (`n ≥ 1`): `<path>.<n>`.
pub fn rotated_checkpoint_path(path: &Path, n: usize) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(format!(".{n}"));
    PathBuf::from(os)
}

/// The sibling `<path>.tmp` a checkpoint is written to before it is
/// renamed into place.
fn temp_checkpoint_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Removes the files next to `path` named `<name>.<suffix>` whose suffix
/// `doomed` accepts. One directory listing finds them, so only files
/// that exist are touched, however high a stale slot number runs.
fn remove_siblings(path: &Path, doomed: impl Fn(&str) -> bool) {
    let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
        return;
    };
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let file = entry.file_name();
        let suffix = file
            .to_str()
            .and_then(|f| f.strip_prefix(name)?.strip_prefix('.'));
        if suffix.is_some_and(&doomed) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// Prunes the rotation slots outside the retention window: every
/// `<path>.<n>` with `n ≥ keep`, as a `keep` that shrank between runs
/// leaves them.
fn prune_stale_slots(path: &Path, keep: usize) {
    remove_siblings(path, |suffix| {
        suffix.parse::<usize>().is_ok_and(|n| n >= keep)
    });
}

/// Installs `bytes` at `path`, keeping `keep` generations.
///
/// The oldest retained slot `<path>.keep-1` is renamed to `<path>.tmp`
/// and overwritten in place with `bytes`; then the other slots shift one
/// older (`<path>.keep-2 → <path>.keep-1`, …, `<path> → <path>.1`) and
/// the temp file is renamed into place. No rename lands on an existing
/// file and nothing is unlinked: on ext4, renaming over an
/// existing file flushes the renamed file's data and frees the replaced
/// inode, which cost about 60 µs of a 75 µs install (25 KB record,
/// 2 vCPUs), against about 14 µs for this sequence. The new record is
/// complete before anything moves, so a kill at any point leaves
/// `<path>` or `<path>.1` holding a whole checkpoint.
fn install_rotated(path: &Path, keep: usize, bytes: &[u8]) -> Result<(), DseError> {
    let tmp = temp_checkpoint_path(path);
    if keep > 1 {
        // Absent until the chain fills; then `tmp` is created fresh.
        let _ = fs::rename(rotated_checkpoint_path(path, keep - 1), &tmp);
    }
    let written = fs::OpenOptions::new()
        .write(true)
        .create(true)
        // Overwritten in place and cut to length after the write:
        // truncating first would free the recycled file's blocks.
        .truncate(false)
        .open(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.set_len(bytes.len() as u64)
        });
    written.map_err(|e| bad(format!("writing {}: {e}", tmp.display())))?;
    for n in (1..keep.saturating_sub(1)).rev() {
        let _ = fs::rename(
            rotated_checkpoint_path(path, n),
            rotated_checkpoint_path(path, n + 1),
        );
    }
    if keep > 1 {
        let _ = fs::rename(path, rotated_checkpoint_path(path, 1));
    }
    fs::rename(&tmp, path).map_err(|e| bad(format!("installing {}: {e}", path.display())))
}

/// Removes the checkpoint at `path`, every rotation slot next to it and
/// a temp file a killed run left behind (used once a supervised run
/// completes).
pub fn remove_checkpoint_files(path: &Path) {
    let _ = fs::remove_file(path);
    remove_siblings(path, |suffix| {
        suffix == "tmp" || suffix.parse::<usize>().is_ok()
    });
}

/// Drives a supervised run: owns the [`SupervisorConfig`] plus the
/// crash-injection seam used by the resilience tests.
#[derive(Debug, Clone)]
pub struct RunSupervisor {
    config: SupervisorConfig,
    interrupt_at: Option<(u32, usize)>,
    interrupt_flag: Option<Arc<AtomicBool>>,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl RunSupervisor {
    /// A supervisor over the given configuration.
    pub fn new(config: SupervisorConfig) -> Self {
        RunSupervisor {
            config,
            interrupt_at: None,
            interrupt_flag: None,
            injector: None,
        }
    }

    /// Attaches a deterministic fault injector, threaded into every
    /// supervised stage's [`ResilientProblem`] (builder style).
    #[must_use]
    pub fn with_fault_injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The attached fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<dyn FaultInjector>> {
        self.injector.clone()
    }

    /// Test seam: simulate a crash once stage `stage` has completed
    /// `generation` generations — the run writes a final checkpoint and
    /// returns [`RunOutcome::Interrupted`] instead of finishing.
    /// `generation` must be below the stage's generation budget for the
    /// interrupt to fire.
    #[must_use]
    pub fn with_interrupt_at(mut self, stage: u32, generation: usize) -> Self {
        self.interrupt_at = Some((stage, generation));
        self
    }

    /// Attaches an external stop signal: once the flag turns `true`
    /// (e.g. from a `SIGTERM` handler or a server's shutdown path), the
    /// supervised run checkpoints at the next generation boundary and
    /// returns [`RunOutcome::Interrupted`], exactly as if the
    /// [`RunSupervisor::with_interrupt_at`] seam had fired there.
    #[must_use]
    pub fn with_interrupt_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.interrupt_flag = Some(flag);
        self
    }

    /// The supervisor configuration.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// The checkpoint file location.
    pub fn checkpoint_path(&self) -> &Path {
        &self.config.checkpoint_path
    }

    /// Whether the crash-injection seam fires at this stage/generation,
    /// or the external stop flag has been raised.
    pub fn should_interrupt(&self, stage: u32, generation: usize) -> bool {
        self.interrupt_at == Some((stage, generation))
            || self
                .interrupt_flag
                .as_ref()
                .is_some_and(|f| f.load(Ordering::SeqCst))
    }
}

/// Result of a supervised run: either a finished front or a persisted
/// interruption that [`ClrEarly::resume_supervised`] can continue.
///
/// [`ClrEarly::resume_supervised`]: crate::ClrEarly::resume_supervised
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The run finished; the checkpoint file has been removed.
    Complete(FrontResult),
    /// The run stopped early; a checkpoint describing this exact point is
    /// on disk.
    Interrupted {
        /// Stage index at the interruption (0-based).
        stage: u32,
        /// Generations the interrupted stage had completed.
        generation: usize,
    },
}

impl RunOutcome {
    /// Unwraps the completed front.
    ///
    /// # Panics
    ///
    /// Panics if the run was interrupted.
    pub fn expect_complete(self) -> FrontResult {
        match self {
            RunOutcome::Complete(r) => r,
            RunOutcome::Interrupted { stage, generation } => {
                panic!("run was interrupted at stage {stage}, generation {generation}")
            }
        }
    }
}

/// Which MOEA backend produced a checkpointed state. Stage resumes are
/// validated against the campaign plan's algorithm, so an NSGA-II
/// snapshot can never be fed into a SPEA2 stage (or vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmTag {
    /// NSGA-II ([`clre_moea::Nsga2`]).
    Nsga2,
    /// SPEA2 ([`clre_moea::Spea2`]).
    Spea2,
}

impl AlgorithmTag {
    /// The display name of this tag.
    pub fn as_str(self) -> &'static str {
        match self {
            AlgorithmTag::Nsga2 => "nsga2",
            AlgorithmTag::Spea2 => "spea2",
        }
    }

    /// The checkpoint-format byte of this tag.
    fn code(self) -> u8 {
        match self {
            AlgorithmTag::Nsga2 => 0,
            AlgorithmTag::Spea2 => 1,
        }
    }

    fn from_code(code: u8) -> Result<Self, DseError> {
        match code {
            0 => Ok(AlgorithmTag::Nsga2),
            1 => Ok(AlgorithmTag::Spea2),
            other => Err(bad(format!("unknown algorithm tag {other}"))),
        }
    }
}

/// The persisted record of one finished campaign stage: everything a
/// resume needs to reconstitute the stage's front (the metrics are a pure
/// function of the genomes) and to seed later stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedStage {
    /// The stage label (whitespace-free, e.g. `"proposed/pf-stage"`).
    pub label: String,
    /// Fitness evaluations the stage spent.
    pub evaluations: usize,
    /// The stage's approximation-set genomes, in member order.
    pub genomes: Vec<Genome>,
}

/// A persisted snapshot of one GA stage of a supervised campaign.
///
/// The `method`/`stage`/budget fields echo the run configuration and are
/// validated on resume — resuming a checkpoint against a different
/// problem, budget, or algorithm is a [`DseError::Checkpoint`], not
/// silent garbage. Earlier finished stages travel along as
/// [`CompletedStage`] records, so a multi-stage campaign resumes without
/// re-running anything that already completed.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Campaign plan name (`"fcCLR"`, `"proposed"`, `"Agnostic"`, …).
    pub method: String,
    /// MOEA backend of the interrupted stage.
    pub algorithm: AlgorithmTag,
    /// Stage index within the campaign (0-based).
    pub stage: u32,
    /// Population size of the interrupted stage.
    pub population_size: usize,
    /// Generation budget of the campaign ([`StageBudget::generations`]).
    ///
    /// [`StageBudget::generations`]: crate::methodology::StageBudget
    pub generations: usize,
    /// User-level RNG seed of the run ([`StageBudget::seed`]).
    ///
    /// [`StageBudget::seed`]: crate::methodology::StageBudget
    pub seed: u64,
    /// System-level objective count.
    pub objective_count: usize,
    /// Stages of this campaign that already ran to completion.
    pub completed: Vec<CompletedStage>,
    /// The GA state at the last completed generation boundary.
    pub state: EvoSnapshot<Genome>,
    /// Cumulative run health up to this snapshot.
    pub health: RunHealth,
}

/// The version line every checkpoint file opens with. The binary body
/// follows it.
const CHECKPOINT_MAGIC: &[u8] = b"clrearly-checkpoint v3\n";

/// What the version line of every checkpoint version starts with.
const VERSION_PREFIX: &[u8] = b"clrearly-checkpoint ";

/// Bytes of the FNV-1a integrity trailer that closes every checkpoint.
const TRAILER_LEN: usize = 8;

fn parse_usize(tok: &str) -> Result<usize, DseError> {
    tok.parse()
        .map_err(|_| bad(format!("malformed integer {tok:?}")))
}

fn bad(what: impl Into<String>) -> DseError {
    DseError::Checkpoint { what: what.into() }
}

pub(crate) fn encode_genome(out: &mut String, genome: &Genome) {
    let _ = write!(out, "{}", genome.len());
    for g in genome {
        let _ = write!(out, " {}:{}:{}", g.task.index(), g.pe.index(), g.choice);
    }
}

pub(crate) fn parse_genome(tokens: &mut std::str::SplitWhitespace<'_>) -> Result<Genome, DseError> {
    let len = parse_usize(tokens.next().ok_or_else(|| bad("missing genome length"))?)?;
    let mut genome = Vec::with_capacity(len);
    for _ in 0..len {
        let tok = tokens.next().ok_or_else(|| bad("truncated genome"))?;
        let mut parts = tok.split(':');
        let mut next = |what: &str| {
            parts
                .next()
                .ok_or_else(|| bad(format!("gene missing {what} in {tok:?}")))
        };
        let task = parse_usize(next("task")?)?;
        let pe = parse_usize(next("pe")?)?;
        let choice = parse_usize(next("choice")?)?;
        genome.push(Gene {
            task: TaskId::new(u32::try_from(task).map_err(|_| bad("task id overflow"))?),
            pe: PeId::new(u32::try_from(pe).map_err(|_| bad("pe id overflow"))?),
            choice: u32::try_from(choice).map_err(|_| bad("choice index overflow"))?,
        });
    }
    Ok(genome)
}

/// The identity fields of a checkpoint: what [`Checkpoint`] echoes of
/// the run configuration, borrowed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageIdentity<'a> {
    pub(crate) method: &'a str,
    pub(crate) algorithm: AlgorithmTag,
    pub(crate) stage: u32,
    pub(crate) population_size: usize,
    pub(crate) generations: usize,
    pub(crate) seed: u64,
    pub(crate) objective_count: usize,
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, value: usize) {
    put_u64(out, value as u64);
}

/// One unsigned LEB128 varint: seven bits per byte, low bits first.
fn put_varint(out: &mut Vec<u8>, mut value: u32) {
    while value >= 0x80 {
        out.push((value & 0x7f) as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn put_label(out: &mut Vec<u8>, label: &str) {
    put_usize(out, label.len());
    out.extend_from_slice(label.as_bytes());
}

fn put_genome(out: &mut Vec<u8>, genome: &Genome) {
    put_usize(out, genome.len());
    for g in genome {
        put_varint(out, g.task.0);
        put_varint(out, g.pe.0);
        put_varint(out, g.choice);
    }
}

/// The first encode half: the version line, the stage identity and the
/// completed stages. None of it changes while a stage runs.
fn encode_prefix(out: &mut Vec<u8>, id: &StageIdentity<'_>, completed: &[CompletedStage]) {
    out.extend_from_slice(CHECKPOINT_MAGIC);
    put_label(out, id.method);
    out.push(id.algorithm.code());
    out.extend_from_slice(&id.stage.to_le_bytes());
    put_usize(out, id.population_size);
    put_usize(out, id.generations);
    put_u64(out, id.seed);
    put_usize(out, id.objective_count);
    put_usize(out, completed.len());
    for s in completed {
        put_label(out, &s.label);
        put_usize(out, s.evaluations);
        put_usize(out, s.genomes.len());
        for g in &s.genomes {
            put_genome(out, g);
        }
    }
}

/// The second encode half: the run health, then the live GA state.
fn encode_live(out: &mut Vec<u8>, health: &RunHealth, state: &EvoSnapshot<Genome>) {
    let h = health;
    for count in [
        h.panics_isolated,
        h.errors_isolated,
        h.retries,
        h.quarantined,
        h.degraded_analyses,
        h.checkpoints_written,
    ] {
        put_usize(out, count);
    }
    match h.resumed_from_generation {
        Some(generation) => {
            out.push(1);
            put_usize(out, generation);
        }
        None => out.push(0),
    }
    for count in [h.cache_hits, h.cache_misses, h.cache_inserts] {
        put_u64(out, count);
    }
    put_usize(out, h.timeouts);
    put_u64(out, h.backoff_ms);
    for count in [
        h.injected,
        h.recovered,
        h.checkpoint_fallbacks,
        h.sidecar_lines_skipped,
    ] {
        put_usize(out, count);
    }
    put_usize(out, state.generation);
    put_usize(out, state.evaluations);
    for word in state.rng_state {
        put_u64(out, word);
    }
    for members in [&state.population, &state.archive] {
        put_usize(out, members.len());
        for ind in members {
            put_u64(out, ind.violation.to_bits());
            put_usize(out, ind.objectives.len());
            for o in &ind.objectives {
                put_u64(out, o.to_bits());
            }
            put_genome(out, &ind.genome);
        }
    }
}

/// Closes a record: folds `out[from..]` into `digest` (the FNV-1a state
/// of `out[..from]`) and appends the finished digest as the trailer.
fn seal(out: &mut Vec<u8>, mut digest: Fnv, from: usize) {
    digest.write_bytes(&out[from..]);
    put_u64(out, digest.finish());
}

/// Checks the version line and the integrity trailer and returns the
/// body between them. A flipped or truncated byte anywhere fails here,
/// before a single field is parsed.
fn verify_integrity(bytes: &[u8]) -> Result<&[u8], DseError> {
    let Some(rest) = bytes.strip_prefix(CHECKPOINT_MAGIC) else {
        return Err(match bytes.strip_prefix(VERSION_PREFIX) {
            Some(tail) => {
                let version: Vec<u8> = tail
                    .iter()
                    .take_while(|b| b.is_ascii_graphic())
                    .take(16)
                    .copied()
                    .collect();
                bad(format!(
                    "unsupported checkpoint version {:?} (this build reads v3)",
                    String::from_utf8_lossy(&version)
                ))
            }
            None => bad("not a clrearly checkpoint"),
        });
    };
    let Some(body_len) = rest.len().checked_sub(TRAILER_LEN) else {
        return Err(bad("truncated integrity trailer"));
    };
    let (body, trailer) = rest.split_at(body_len);
    let recorded = u64::from_le_bytes(trailer.try_into().expect("trailer is 8 bytes"));
    let actual = Fnv::hash_bytes(&bytes[..bytes.len() - TRAILER_LEN]);
    if recorded != actual {
        return Err(bad(format!(
            "integrity digest mismatch (recorded {recorded:016x}, computed {actual:016x})"
        )));
    }
    Ok(body)
}

/// A bounds-checked little-endian reader over a verified checkpoint
/// body. Every count is checked against the bytes left before anything
/// is allocated for it, so a forged count fails instead of reserving
/// memory.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DseError> {
        if n > self.rest.len() {
            return Err(bad(format!("truncated {what}")));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, DseError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, DseError> {
        let bytes = self.take(4, what)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, DseError> {
        let bytes = self.take(8, what)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn usize(&mut self, what: &str) -> Result<usize, DseError> {
        usize::try_from(self.u64(what)?).map_err(|_| bad(format!("{what} overflows usize")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, DseError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A count of items that each take at least `min_bytes`, rejected
    /// when the bytes left cannot hold that many.
    fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize, DseError> {
        let n = self.u64(what)?;
        let room = self.rest.len() / min_bytes;
        match usize::try_from(n) {
            Ok(n) if n <= room => Ok(n),
            _ => Err(bad(format!(
                "{what} {n} exceeds the {} bytes left",
                self.rest.len()
            ))),
        }
    }

    fn varint(&mut self, what: &str) -> Result<u32, DseError> {
        let mut value = 0u32;
        for shift in (0..32).step_by(7) {
            let byte = self.u8(what)?;
            let bits = u32::from(byte & 0x7f);
            if shift == 28 && bits > 0x0f {
                return Err(bad(format!("{what} overflows u32")));
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(bad(format!("{what} varint runs past 5 bytes")))
    }

    fn label(&mut self, what: &str) -> Result<String, DseError> {
        let len = self.count(what, 1)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad(format!("{what} is not UTF-8")))
    }

    fn genome(&mut self) -> Result<Genome, DseError> {
        // A gene is at least three one-byte varints.
        let len = self.count("genome length", 3)?;
        let mut genome = Vec::with_capacity(len);
        for _ in 0..len {
            genome.push(Gene {
                task: TaskId::new(self.varint("gene task")?),
                pe: PeId::new(self.varint("gene pe")?),
                choice: self.varint("gene choice")?,
            });
        }
        Ok(genome)
    }

    fn health(&mut self) -> Result<RunHealth, DseError> {
        let panics_isolated = self.usize("panics")?;
        let errors_isolated = self.usize("errors")?;
        let retries = self.usize("retries")?;
        let quarantined = self.usize("quarantined")?;
        let degraded_analyses = self.usize("degraded analyses")?;
        let checkpoints_written = self.usize("checkpoints written")?;
        let resumed_from_generation = match self.u8("resume marker")? {
            0 => None,
            1 => Some(self.usize("resume generation")?),
            other => return Err(bad(format!("malformed resume marker {other}"))),
        };
        Ok(RunHealth {
            panics_isolated,
            errors_isolated,
            retries,
            quarantined,
            degraded_analyses,
            checkpoints_written,
            resumed_from_generation,
            cache_hits: self.u64("cache hits")?,
            cache_misses: self.u64("cache misses")?,
            cache_inserts: self.u64("cache inserts")?,
            timeouts: self.usize("timeouts")?,
            backoff_ms: self.u64("backoff")?,
            injected: self.usize("injected")?,
            recovered: self.usize("recovered")?,
            checkpoint_fallbacks: self.usize("checkpoint fallbacks")?,
            sidecar_lines_skipped: self.usize("sidecar lines skipped")?,
        })
    }

    fn members(&mut self, what: &str) -> Result<Vec<Individual<Genome>>, DseError> {
        // Violation, objective count and genome length: 24 bytes at least.
        let count = self.count(what, 24)?;
        let mut members = Vec::with_capacity(count);
        for _ in 0..count {
            let violation = self.f64("violation")?;
            let arity = self.count("objective count", 8)?;
            let mut objectives = Vec::with_capacity(arity);
            for _ in 0..arity {
                objectives.push(self.f64("objective")?);
            }
            members.push(Individual {
                genome: self.genome()?,
                objectives,
                violation,
            });
        }
        Ok(members)
    }
}

/// Writes the checkpoints of one supervised drive.
///
/// The identity and the completed stages do not change while a stage
/// runs, so [`CheckpointWriter::begin_stage`] encodes and hashes them
/// once into a buffer the drive reuses. Each [`CheckpointWriter::save`]
/// truncates the buffer back to that prefix, appends the health and the
/// live GA state, finishes the digest from the stored prefix state and
/// installs the file. The bytes equal [`Checkpoint::encode`] of the same
/// checkpoint.
#[derive(Debug)]
pub(crate) struct CheckpointWriter {
    path: PathBuf,
    keep: usize,
    buf: Vec<u8>,
    prefix_len: usize,
    prefix_digest: Fnv,
    pruned: bool,
}

impl CheckpointWriter {
    /// A writer installing at `path` with `keep` generations retained.
    pub(crate) fn new(path: &Path, keep: usize) -> Self {
        CheckpointWriter {
            path: path.to_path_buf(),
            keep,
            buf: Vec::new(),
            prefix_len: 0,
            prefix_digest: Fnv::new(),
            pruned: false,
        }
    }

    /// Encodes and hashes the prefix of the stage about to be driven.
    pub(crate) fn begin_stage(&mut self, id: &StageIdentity<'_>, completed: &[CompletedStage]) {
        self.buf.clear();
        encode_prefix(&mut self.buf, id, completed);
        self.prefix_len = self.buf.len();
        self.prefix_digest = Fnv::new();
        self.prefix_digest.write_bytes(&self.buf);
    }

    /// Writes one checkpoint of the current stage. The first save of the
    /// drive also creates the directory and prunes stale rotation slots.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] wrapping the I/O failure of the install.
    pub(crate) fn save(
        &mut self,
        health: &RunHealth,
        state: &EvoSnapshot<Genome>,
    ) -> Result<(), DseError> {
        self.buf.truncate(self.prefix_len);
        encode_live(&mut self.buf, health, state);
        seal(&mut self.buf, self.prefix_digest.clone(), self.prefix_len);
        if !self.pruned {
            ensure_parent_dir(&self.path)?;
            prune_stale_slots(&self.path, self.keep);
            self.pruned = true;
        }
        install_rotated(&self.path, self.keep, &self.buf)
    }
}

impl Checkpoint {
    fn identity(&self) -> StageIdentity<'_> {
        StageIdentity {
            method: &self.method,
            algorithm: self.algorithm,
            stage: self.stage,
            population_size: self.population_size,
            generations: self.generations,
            seed: self.seed,
            objective_count: self.objective_count,
        }
    }

    /// Serializes to the v3 record: the version line, then a
    /// little-endian binary body (identity and completed stages, then
    /// health, then the live GA state) closed by an FNV-1a trailer.
    /// Floats are stored as their IEEE-754 bits, so encode → decode
    /// round-trips bit-exactly.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_prefix(&mut out, &self.identity(), &self.completed);
        encode_live(&mut out, &self.health, &self.state);
        seal(&mut out, Fnv::new(), 0);
        out
    }

    /// Parses the record produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] for another format version, a failed
    /// integrity digest, or any structural mismatch.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, DseError> {
        let mut r = Reader {
            rest: verify_integrity(bytes)?,
        };
        let method = r.label("method")?;
        let algorithm = AlgorithmTag::from_code(r.u8("algorithm")?)?;
        let stage = r.u32("stage")?;
        let population_size = r.usize("population size")?;
        let generations = r.usize("generations")?;
        let seed = r.u64("seed")?;
        let objective_count = r.usize("objective count")?;
        // Label length, evaluations and genome count: 24 bytes at least.
        let completed_count = r.count("completed stages", 24)?;
        let mut completed = Vec::with_capacity(completed_count);
        for _ in 0..completed_count {
            let label = r.label("stage label")?;
            let evaluations = r.usize("stage evaluations")?;
            let genome_count = r.count("stage genomes", 8)?;
            let mut genomes = Vec::with_capacity(genome_count);
            for _ in 0..genome_count {
                genomes.push(r.genome()?);
            }
            completed.push(CompletedStage {
                label,
                evaluations,
                genomes,
            });
        }
        let health = r.health()?;
        let generation = r.usize("generation")?;
        let evaluations = r.usize("evaluations")?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.u64("rng state")?;
        }
        let population = r.members("population")?;
        let archive = r.members("archive")?;
        if !r.rest.is_empty() {
            return Err(bad(format!(
                "{} trailing bytes after the archive",
                r.rest.len()
            )));
        }
        Ok(Checkpoint {
            method,
            algorithm,
            stage,
            population_size,
            generations,
            seed,
            objective_count,
            completed,
            state: EvoSnapshot {
                population,
                archive,
                generation,
                evaluations,
                rng_state,
            },
            health,
        })
    }

    /// Atomically writes the checkpoint: the encoded record goes to a
    /// sibling temp file first and is renamed into place, so a crash
    /// mid-write never corrupts an existing good checkpoint.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] wrapping the I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), DseError> {
        ensure_parent_dir(path)?;
        install_rotated(path, 1, &self.encode())
    }

    /// [`Checkpoint::save`] with retention: stale slots at `keep` and
    /// beyond are pruned, the previous generations shift to `<path>.1 …
    /// <path>.keep-1`, and the new checkpoint is atomically installed at
    /// `path`. With `keep == 1` this is [`Checkpoint::save`] plus the
    /// pruning.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] wrapping the I/O failure of the install;
    /// rotation failures of older generations are ignored (retention is
    /// best-effort, the newest checkpoint is the contract).
    pub fn save_rotated(&self, path: &Path, keep: usize) -> Result<(), DseError> {
        ensure_parent_dir(path)?;
        prune_stale_slots(path, keep);
        install_rotated(path, keep, &self.encode())
    }

    /// Reads and decodes a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] if the file is missing, unreadable,
    /// malformed, or fails digest verification.
    pub fn load(path: &Path) -> Result<Checkpoint, DseError> {
        let bytes = fs::read(path).map_err(|e| bad(format!("reading {}: {e}", path.display())))?;
        Checkpoint::decode(&bytes)
    }

    /// [`Checkpoint::load`] with fallback through the rotation chain:
    /// if the primary file is missing, corrupt, or fails integrity
    /// verification, the rotated slots `<path>.1 … <path>.keep` are
    /// tried newest-first and the first digest-valid checkpoint wins.
    ///
    /// Returns the loaded checkpoint together with the number of
    /// *existing but unloadable* newer files that were skipped — zero on
    /// the happy path, positive when recovery fell back past corrupt
    /// state (callers surface this in [`RunHealth::checkpoint_fallbacks`]).
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] with the primary file's failure when no
    /// file in the chain loads.
    pub fn load_with_fallback(path: &Path, keep: usize) -> Result<(Checkpoint, usize), DseError> {
        let mut skipped = 0usize;
        let mut first_err: Option<DseError> = None;
        let primary = Checkpoint::load(path);
        match primary {
            Ok(cp) => return Ok((cp, 0)),
            Err(e) => {
                if path.exists() {
                    skipped += 1;
                }
                first_err = first_err.or(Some(e));
            }
        }
        for n in 1..=keep.max(1) {
            let rotated = rotated_checkpoint_path(path, n);
            match Checkpoint::load(&rotated) {
                Ok(cp) => return Ok((cp, skipped)),
                Err(e) => {
                    if rotated.exists() {
                        skipped += 1;
                    }
                    first_err = first_err.or(Some(e));
                }
            }
        }
        Err(first_err.unwrap_or_else(|| bad("no checkpoint in rotation chain")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre_moea::Evaluation;

    fn gene(t: u32, p: u32, c: u32) -> Gene {
        Gene {
            task: TaskId::new(t),
            pe: PeId::new(p),
            choice: c,
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        Checkpoint {
            method: "proposed".to_owned(),
            algorithm: AlgorithmTag::Nsga2,
            stage: 1,
            population_size: 2,
            generations: 8,
            seed: 42,
            objective_count: 2,
            completed: vec![CompletedStage {
                label: "proposed/pf-stage".to_owned(),
                evaluations: 144,
                genomes: vec![vec![gene(0, 1, 2), gene(1, 0, 0)]],
            }],
            state: EvoSnapshot {
                population: vec![
                    Individual {
                        genome: vec![gene(1, 2, 3), gene(0, 0, 1)],
                        objectives: vec![1.5e-3, -0.0],
                        violation: 0.0,
                    },
                    Individual {
                        genome: vec![gene(0, 1, 0), gene(1, 1, 7)],
                        objectives: vec![f64::MIN_POSITIVE, 1.0 / 3.0],
                        violation: QUARANTINE_OBJECTIVE,
                    },
                ],
                archive: vec![Individual {
                    genome: vec![gene(1, 0, 4), gene(0, 2, 2)],
                    objectives: vec![2.25, 0.5],
                    violation: 0.0,
                }],
                generation: 5,
                evaluations: 112,
                rng_state: [u64::MAX, 1, 0x0123_4567_89ab_cdef, 7],
            },
            health: RunHealth {
                panics_isolated: 1,
                errors_isolated: 2,
                retries: 3,
                quarantined: 1,
                degraded_analyses: 4,
                checkpoints_written: 6,
                resumed_from_generation: Some(3),
                cache_hits: 250,
                cache_misses: 40,
                cache_inserts: 40,
                timeouts: 2,
                backoff_ms: 37,
                injected: 5,
                recovered: 3,
                checkpoint_fallbacks: 1,
                sidecar_lines_skipped: 2,
            },
        }
    }

    #[test]
    fn checkpoint_roundtrips_bit_exactly() {
        let cp = sample_checkpoint();
        let decoded = Checkpoint::decode(&cp.encode()).unwrap();
        assert_eq!(decoded, cp);
        // -0.0 == 0.0 under PartialEq; check the sign bit survived too.
        assert!(decoded.state.population[0].objectives[1].is_sign_negative());
    }

    #[test]
    fn checkpoint_roundtrips_none_resume_marker() {
        let mut cp = sample_checkpoint();
        cp.health.resumed_from_generation = None;
        cp.completed.clear();
        cp.state.archive.clear();
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
    }

    /// Replaces the trailer of `bytes` with the digest of the rest, as a
    /// forger who knows the format would.
    fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes.truncate(bytes.len() - TRAILER_LEN);
        seal(&mut bytes, Fnv::new(), 0);
        bytes
    }

    /// Offset of the algorithm byte: the version line, then the
    /// length-prefixed method label.
    fn algorithm_offset(cp: &Checkpoint) -> usize {
        CHECKPOINT_MAGIC.len() + 8 + cp.method.len()
    }

    #[test]
    fn checkpoint_roundtrips_spea2_tag() {
        let mut cp = sample_checkpoint();
        cp.algorithm = AlgorithmTag::Spea2;
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
        let mut forged = cp.encode();
        forged[algorithm_offset(&cp)] = 7;
        let err = Checkpoint::decode(&reseal(forged)).unwrap_err();
        assert!(err.to_string().contains("unknown algorithm tag 7"), "{err}");
    }

    #[test]
    fn decode_rejects_malformed_inputs() {
        let good = sample_checkpoint().encode();
        assert!(Checkpoint::decode(b"").is_err());
        assert!(Checkpoint::decode(b"other-format v9\n").is_err());
        // Truncation anywhere must error, never panic.
        for cut in 0..good.len() {
            assert!(
                matches!(
                    Checkpoint::decode(&good[..cut]),
                    Err(DseError::Checkpoint { .. })
                ),
                "cut at {cut} should fail"
            );
        }
        // Bytes after the archive are refused even under a valid digest.
        let mut padded = good.clone();
        padded.insert(good.len() - TRAILER_LEN, 0);
        let err = Checkpoint::decode(&reseal(padded)).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn forged_counts_fail_without_allocating() {
        let cp = Checkpoint {
            completed: Vec::new(),
            ..sample_checkpoint()
        };
        let good = cp.encode();
        let mut prefix = Vec::new();
        encode_prefix(&mut prefix, &cp.identity(), &[]);
        // The population count is the second-to-last field of a live
        // half whose members are empty.
        let mut bare = Vec::new();
        let no_members = EvoSnapshot {
            population: Vec::new(),
            archive: Vec::new(),
            ..cp.state.clone()
        };
        encode_live(&mut bare, &cp.health, &no_members);
        let population = prefix.len() + bare.len() - 16;
        // The completed-stage count closes the prefix; the first
        // member's objective count and genome length follow its
        // violation.
        let fields = [
            ("method label", CHECKPOINT_MAGIC.len()),
            ("completed stages", prefix.len() - 8),
            ("population", population),
            ("objective count", population + 16),
            ("genome length", population + 24 + 8 * cp.objective_count),
        ];
        for (what, at) in fields {
            let mut forged = good.clone();
            forged[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let err = Checkpoint::decode(&reseal(forged)).unwrap_err();
            assert!(
                err.to_string().contains("bytes left"),
                "{what} at {at}: {err}"
            );
        }
        // Every 8-byte window set to u64::MAX under a valid digest: a
        // defined outcome, never a panic or a runaway reservation.
        for at in CHECKPOINT_MAGIC.len()..good.len() - TRAILER_LEN - 8 {
            let mut forged = good.clone();
            forged[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            let _ = Checkpoint::decode(&reseal(forged));
        }
    }

    #[test]
    fn writer_output_equals_encode_across_stages() {
        let dir = std::env::temp_dir().join(format!("clre-writer-test-{}", std::process::id()));
        let path = dir.join("run.ckpt");
        let mut writer = CheckpointWriter::new(&path, 2);
        let mut cp = sample_checkpoint();
        for stage in 0..2u32 {
            cp.stage = stage;
            cp.completed.truncate(stage as usize);
            writer.begin_stage(&cp.identity(), &cp.completed);
            for generation in 0..3 {
                cp.state.generation = generation;
                cp.health.checkpoints_written = generation;
                writer.save(&cp.health, &cp.state).unwrap();
                assert_eq!(fs::read(&path).unwrap(), cp.encode());
            }
        }
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_and_load_roundtrip() {
        let dir = std::env::temp_dir().join("clre-resilience-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        let cp = sample_checkpoint();
        cp.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        fs::remove_file(&path).unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(DseError::Checkpoint { .. })
        ));
    }

    #[test]
    fn health_merge_and_cleanliness() {
        let mut a = RunHealth::default();
        assert!(a.is_clean());
        a.checkpoints_written = 3;
        assert!(a.is_clean(), "checkpointing is nominal");
        let b = RunHealth {
            panics_isolated: 1,
            retries: 2,
            resumed_from_generation: Some(4),
            ..RunHealth::default()
        };
        a.merge(&b);
        assert!(!a.is_clean());
        assert_eq!(a.panics_isolated, 1);
        assert_eq!(a.retries, 2);
        assert_eq!(a.checkpoints_written, 3);
        assert_eq!(a.resumed_from_generation, Some(4));
        // First resume point wins.
        a.merge(&RunHealth {
            resumed_from_generation: Some(9),
            ..RunHealth::default()
        });
        assert_eq!(a.resumed_from_generation, Some(4));
        // Cache counters are snapshots: merge keeps the max, never sums,
        // and cache activity stays nominal.
        a.cache_hits = 10;
        a.merge(&RunHealth {
            cache_hits: 7,
            cache_misses: 5,
            ..RunHealth::default()
        });
        assert_eq!(a.cache_hits, 10);
        assert_eq!(a.cache_misses, 5);
        assert!(!a.is_clean(), "cleanliness unaffected by cache counters");
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let p = BackoffPolicy::new(10, 1000, 42);
        for attempt in 0..10usize {
            let d = p.delay_ms(77, attempt);
            assert_eq!(d, p.delay_ms(77, attempt), "pure in (seed, key, attempt)");
            let raw = (10u64 << attempt.min(20)).min(1000);
            assert!(
                d >= raw / 2 && d <= raw,
                "attempt {attempt}: {d} outside [{}, {raw}]",
                raw / 2
            );
        }
        // Jitter is salted by key and seed.
        assert!((0..10).any(|a| p.delay_ms(77, a) != p.delay_ms(78, a)));
        let q = BackoffPolicy::new(10, 1000, 43);
        assert!((0..10).any(|a| p.delay_ms(77, a) != q.delay_ms(77, a)));
        // A zero policy never sleeps.
        assert_eq!(BackoffPolicy::new(0, 0, 1).delay_ms(5, 3), 0);
    }

    // A healthy problem whose genomes key as their decimal rendering, so
    // scripted injectors can address individual genomes.
    struct Keyed;

    impl Problem for Keyed {
        type Genome = u32;
        fn objective_count(&self) -> usize {
            2
        }
        fn random_genome(&self, rng: &mut dyn RngCore) -> u32 {
            rng.next_u32() % 100
        }
        fn evaluate(&self, g: &u32) -> Evaluation {
            FallibleProblem::try_evaluate(self, g).unwrap()
        }
    }

    impl FallibleProblem for Keyed {
        fn try_evaluate(&self, g: &u32) -> Result<Evaluation, DseError> {
            Ok(Evaluation::feasible(vec![f64::from(*g), 1.0]))
        }
        fn describe_genome(&self, g: &u32) -> String {
            g.to_string()
        }
    }

    // One fault of every kind, each firing on attempt 0 only so a retry
    // always recovers.
    #[derive(Debug)]
    struct StormInjector {
        stall: Duration,
    }

    impl FaultInjector for StormInjector {
        fn eval_fault(&self, key: &str, attempt: usize) -> Option<InjectedFault> {
            if attempt > 0 {
                return None;
            }
            match key {
                "1" => Some(InjectedFault::Panic("storm panic".to_owned())),
                "2" => Some(InjectedFault::Error("storm error".to_owned())),
                "3" => Some(InjectedFault::PoisonObjectives),
                "4" => Some(InjectedFault::Stall(self.stall)),
                _ => None,
            }
        }
    }

    fn storm_problem() -> ResilientProblem<Keyed> {
        ResilientProblem::new(Keyed)
            .with_max_retries(2)
            .with_injector(Arc::new(StormInjector {
                stall: Duration::from_millis(30),
            }))
            .with_deadline(Duration::from_millis(10))
            .with_backoff(BackoffPolicy::new(1, 4, 99))
    }

    #[test]
    fn injected_faults_recover_on_retry() {
        let p = storm_problem();
        let health = p.health();
        // A clean genome is untouched.
        assert_eq!(p.evaluate(&0).objectives, vec![0.0, 1.0]);
        // Every fault kind fires on attempt 0 only and the retry recovers
        // to the exact fitness a fault-free evaluation produces.
        for g in 1..=4u32 {
            assert_eq!(
                p.evaluate(&g).objectives,
                vec![f64::from(g), 1.0],
                "genome {g}"
            );
        }
        let h = health.lock().unwrap().clone();
        assert_eq!(h.injected, 4);
        assert_eq!(h.recovered, 4);
        assert_eq!(h.panics_isolated, 1);
        assert_eq!(h.errors_isolated, 2, "typed error + poisoned objectives");
        assert_eq!(h.timeouts, 1, "30ms stall tripped the 10ms deadline");
        assert_eq!(h.retries, 4);
        assert!(h.backoff_ms > 0);
        assert_eq!(h.quarantined, 0);
    }

    #[test]
    fn fault_storm_telemetry_reproduces_bitwise() {
        let run = || {
            let p = storm_problem();
            let health = p.health();
            for g in 0..=5u32 {
                let _ = p.evaluate(&g);
            }
            let h = health.lock().unwrap().clone();
            h
        };
        assert_eq!(run(), run(), "same seed, same counters");
    }

    #[test]
    fn quarantine_sidecar_reader_skips_malformed_lines() {
        let dir = std::env::temp_dir().join(format!("clre-quarantine-read-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("quarantine.txt");
        let records = vec![
            QuarantineRecord {
                genome: "7".to_owned(),
                error: "boom".to_owned(),
            },
            QuarantineRecord {
                genome: "1 0:1:2".to_owned(),
                error: "ok".to_owned(),
            },
        ];
        QuarantineSidecar::new(path.clone())
            .append(&records)
            .unwrap();
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("\ncomplete garbage\n");
        text.push_str(journal::seal("quarantine-v1 error=no genome".to_owned()).as_str());
        text.push_str("quarantine-v1 error=torn tail with no genom");
        fs::write(&path, text).unwrap();
        let (read, skipped) = QuarantineSidecar::read(&path).unwrap();
        assert_eq!(read, records);
        assert_eq!(
            skipped, 3,
            "garbage, sealed non-record and torn tail skipped, blank ignored"
        );
        // A missing sidecar is zero records, not an error.
        let absent = dir.join("absent.txt");
        assert_eq!(QuarantineSidecar::read(&absent).unwrap(), (Vec::new(), 0));
        // A headerless sidecar of an older version reads as one skipped
        // line; the next append moves it aside and starts a new sidecar.
        let legacy = "quarantine-v1 error=x genome=1\n";
        fs::write(&absent, legacy).unwrap();
        assert_eq!(QuarantineSidecar::read(&absent).unwrap(), (Vec::new(), 1));
        QuarantineSidecar::new(absent.clone())
            .append(&records[..1])
            .unwrap();
        assert_eq!(
            QuarantineSidecar::read(&absent).unwrap(),
            (records[..1].to_vec(), 0)
        );
        let aside = dir.join("absent.txt.foreign");
        assert_eq!(fs::read_to_string(aside).unwrap(), legacy);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn integrity_trailer_detects_corruption() {
        let cp = sample_checkpoint();
        let good = cp.encode();
        let (body, trailer) = good.split_at(good.len() - TRAILER_LEN);
        assert_eq!(
            trailer,
            Fnv::hash_bytes(body).to_le_bytes(),
            "encode appends the integrity trailer"
        );
        assert_eq!(Checkpoint::decode(&good).unwrap(), cp);
        // A byte flip anywhere in the body fails the digest before the
        // body is even parsed.
        let mut flipped = good.clone();
        flipped[algorithm_offset(&cp) - 1] ^= 0x20;
        let err = Checkpoint::decode(&flipped).unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
        // Truncating into the trailer is malformed, never silently valid.
        assert!(Checkpoint::decode(&good[..good.len() - 3]).is_err());
        // A v2 text checkpoint is refused by name, not misparsed.
        let v2 = b"clrearly-checkpoint v2\nmethod proposed\nintegrity 0123456789abcdef\n";
        let err = Checkpoint::decode(v2).unwrap_err();
        assert!(matches!(err, DseError::Checkpoint { .. }));
        assert!(
            err.to_string()
                .contains("unsupported checkpoint version \"v2\""),
            "{err}"
        );
    }

    #[test]
    fn load_with_fallback_recovers_from_corrupt_primary() {
        let dir = std::env::temp_dir().join(format!("clre-fallback-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let mut cp = sample_checkpoint();
        cp.state.generation = 5;
        cp.save_rotated(&path, 3).unwrap();
        cp.state.generation = 6;
        cp.save_rotated(&path, 3).unwrap();
        // Pristine chain: the primary wins, nothing skipped.
        let (loaded, skipped) = Checkpoint::load_with_fallback(&path, 3).unwrap();
        assert_eq!((loaded.state.generation, skipped), (6, 0));
        // Corrupt the primary: plain load hard-errors, fallback recovers
        // the rotated predecessor and counts the skip.
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        fs::write(&path, &bytes).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        let (loaded, skipped) = Checkpoint::load_with_fallback(&path, 3).unwrap();
        assert_eq!((loaded.state.generation, skipped), (5, 1));
        // A sparse delta left by an older build is not a checkpoint:
        // fallback moves on to the rotation slots the same way.
        fs::write(&path, "clrearly-delta v1\nbase-digest 0000000000000000\n").unwrap();
        let (loaded, skipped) = Checkpoint::load_with_fallback(&path, 3).unwrap();
        assert_eq!((loaded.state.generation, skipped), (5, 1));
        // Nothing decodable anywhere: the failure finally surfaces.
        fs::write(rotated_checkpoint_path(&path, 1), "junk").unwrap();
        assert!(Checkpoint::load_with_fallback(&path, 3).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    // A deliberately unreliable scalar problem for isolation tests.
    struct Flaky {
        panic_on: u32,
        error_on: u32,
    }

    impl Problem for Flaky {
        type Genome = u32;
        fn objective_count(&self) -> usize {
            2
        }
        fn random_genome(&self, rng: &mut dyn RngCore) -> u32 {
            rng.next_u32() % 100
        }
        fn evaluate(&self, g: &u32) -> Evaluation {
            FallibleProblem::try_evaluate(self, g).unwrap()
        }
    }

    impl FallibleProblem for Flaky {
        fn try_evaluate(&self, g: &u32) -> Result<Evaluation, DseError> {
            if *g == self.panic_on {
                panic!("injected panic for genome {g}");
            }
            if *g == self.error_on {
                return Err(DseError::InvalidGenome {
                    what: "injected failure",
                });
            }
            Ok(Evaluation::feasible(vec![
                f64::from(*g),
                100.0 - f64::from(*g),
            ]))
        }
    }

    #[test]
    fn panics_are_isolated_and_quarantined() {
        let p = ResilientProblem::new(Flaky {
            panic_on: 7,
            error_on: 9,
        })
        .with_max_retries(2);
        let health = p.health();

        // Suppress the default panic hook's stderr spew for this test.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let eval = p.evaluate(&7);
        std::panic::set_hook(prev);

        assert_eq!(eval.objectives, vec![QUARANTINE_OBJECTIVE; 2]);
        assert_eq!(eval.violation, QUARANTINE_OBJECTIVE);
        assert!(!eval.is_feasible());
        let h = health.lock().unwrap();
        assert_eq!(h.panics_isolated, 3, "initial attempt + 2 retries");
        assert_eq!(h.retries, 2);
        assert_eq!(h.quarantined, 1);
    }

    #[test]
    fn typed_errors_are_isolated_without_unwinding() {
        let p = ResilientProblem::new(Flaky {
            panic_on: 7,
            error_on: 9,
        })
        .with_max_retries(0);
        let health = p.health();
        let eval = p.evaluate(&9);
        assert_eq!(eval.objectives, vec![QUARANTINE_OBJECTIVE; 2]);
        let h = health.lock().unwrap();
        assert_eq!(h.errors_isolated, 1);
        assert_eq!(h.panics_isolated, 0);
        assert_eq!(h.retries, 0);
        assert_eq!(h.quarantined, 1);
    }

    #[test]
    fn healthy_evaluations_pass_through_untouched() {
        let p = ResilientProblem::new(Flaky {
            panic_on: 7,
            error_on: 9,
        });
        let health = p.health();
        let eval = p.evaluate(&30);
        assert_eq!(eval.objectives, vec![30.0, 70.0]);
        assert_eq!(eval.violation, 0.0);
        assert!(health.lock().unwrap().is_clean());
    }

    struct NonFinite;
    impl Problem for NonFinite {
        type Genome = u32;
        fn objective_count(&self) -> usize {
            1
        }
        fn random_genome(&self, _: &mut dyn RngCore) -> u32 {
            0
        }
        fn evaluate(&self, _: &u32) -> Evaluation {
            Evaluation::feasible(vec![f64::NAN])
        }
    }
    impl FallibleProblem for NonFinite {
        fn try_evaluate(&self, g: &u32) -> Result<Evaluation, DseError> {
            Ok(self.evaluate(g))
        }
    }

    #[test]
    fn non_finite_fitness_is_quarantined() {
        let p = ResilientProblem::new(NonFinite).with_max_retries(0);
        let health = p.health();
        let eval = p.evaluate(&0);
        assert_eq!(eval.objectives, vec![QUARANTINE_OBJECTIVE]);
        assert_eq!(health.lock().unwrap().errors_isolated, 1);
        assert_eq!(health.lock().unwrap().quarantined, 1);
    }

    #[test]
    fn save_rotated_keeps_last_n_checkpoints() {
        let dir = std::env::temp_dir().join(format!("clre-rotation-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let keep = 3;
        let mut cp = sample_checkpoint();
        for generation in 0..5 {
            cp.state.generation = generation;
            cp.save_rotated(&path, keep).unwrap();
        }
        // Newest at `path`, then one generation older per slot.
        assert_eq!(Checkpoint::load(&path).unwrap().state.generation, 4);
        for (slot, generation) in [(1, 3), (2, 2)] {
            let rotated = rotated_checkpoint_path(&path, slot);
            assert_eq!(
                Checkpoint::load(&rotated).unwrap().state.generation,
                generation,
                "slot {slot}"
            );
        }
        // Slot keep-1+1 and beyond were pruned.
        assert!(!rotated_checkpoint_path(&path, 3).exists());
        remove_checkpoint_files(&path);
        assert!(!path.exists());
        assert!(!rotated_checkpoint_path(&path, 1).exists());
        assert!(!rotated_checkpoint_path(&path, 2).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_rotated_keep_one_matches_plain_save() {
        let dir = std::env::temp_dir().join(format!("clre-rotation-one-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let cp = sample_checkpoint();
        cp.save_rotated(&path, 1).unwrap();
        cp.save_rotated(&path, 1).unwrap();
        assert!(path.exists());
        assert!(!rotated_checkpoint_path(&path, 1).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_log_records_genome_and_error() {
        let p = ResilientProblem::new(Flaky {
            panic_on: 7,
            error_on: 9,
        })
        .with_max_retries(0);
        let log = p.quarantine_log();
        let _ = p.evaluate(&9);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = p.evaluate(&7);
        std::panic::set_hook(prev);
        let records = log.lock().unwrap().clone();
        assert_eq!(records.len(), 2);
        assert!(records[0].error.contains("injected failure"), "{records:?}");
        assert!(records[1].error.contains("injected panic"), "{records:?}");
        let line = records[0].line();
        assert!(line.starts_with("quarantine-v1 error="));
        assert!(line.contains("genome="));
    }

    #[test]
    fn quarantine_sidecar_opens_on_the_first_append_and_then_appends() {
        let dir = std::env::temp_dir().join(format!("clre-quarantine-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = quarantine_sidecar_path(&dir.join("run.ckpt"));
        assert_eq!(path, dir.join("quarantine.txt"));
        let record = |i: usize| QuarantineRecord {
            genome: format!("2 0:1:{i} 1:0:0"),
            error: "panic: multi\nline".to_owned(),
        };
        let mut sidecar = QuarantineSidecar::new(path.clone());
        sidecar.append(&[]).unwrap();
        assert!(!path.exists(), "appending nothing opens nothing");
        sidecar.append(&[record(0)]).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let line = "quarantine-v1 error=panic: multi line genome=2 0:1:0 1:0:0";
        let sealed = journal::seal(line.to_owned());
        assert_eq!(text, format!("{QUARANTINE_HEADER}\n{}", sealed.as_str()));
        sidecar.append(&[record(1)]).unwrap();
        drop(sidecar);
        // A later drive on the same path continues the file.
        QuarantineSidecar::new(path.clone())
            .append(&[record(2)])
            .unwrap();
        let (read, skipped) = QuarantineSidecar::read(&path).unwrap();
        let flattened = |i| QuarantineRecord {
            error: "panic: multi line".to_owned(),
            ..record(i)
        };
        assert_eq!(read, (0..3).map(flattened).collect::<Vec<_>>());
        assert_eq!(skipped, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn system_problem_genomes_render_as_gene_triples() {
        let mut out = String::new();
        encode_genome(&mut out, &vec![gene(0, 1, 2), gene(3, 4, 5)]);
        assert_eq!(out, "2 0:1:2 3:4:5");
    }

    #[test]
    fn supervisor_interrupt_seam() {
        let sup = RunSupervisor::new(SupervisorConfig::new("/tmp/x.ckpt")).with_interrupt_at(1, 3);
        assert!(sup.should_interrupt(1, 3));
        assert!(!sup.should_interrupt(0, 3));
        assert!(!sup.should_interrupt(1, 2));
        let plain = RunSupervisor::new(SupervisorConfig::new("/tmp/x.ckpt"));
        assert!(!plain.should_interrupt(0, 0));
        assert_eq!(plain.config().every_generations, 1);
    }
}
