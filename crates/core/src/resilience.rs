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
//! * [`Checkpoint`] — a versioned, self-validating, plain-text snapshot
//!   of a GA stage (generation index, evaluated population, RNG state
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
    /// Evaluation-cache lookups answered from the cache (both levels:
    /// task analyses and genome fitness). Zero when no cache is attached.
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
}

/// Writes the quarantine triage sidecar: one [`QuarantineRecord::line`]
/// per record. An empty record set removes any stale sidecar instead of
/// writing an empty file.
///
/// # Errors
///
/// [`DseError::Checkpoint`] wrapping the underlying I/O failure.
pub fn write_quarantine_sidecar(path: &Path, records: &[QuarantineRecord]) -> Result<(), DseError> {
    if records.is_empty() {
        let _ = fs::remove_file(path);
        return Ok(());
    }
    let mut out = String::new();
    for r in records {
        let _ = writeln!(out, "{}", r.line());
    }
    ensure_parent_dir(path)?;
    fs::write(path, out).map_err(|e| bad(format!("writing {}: {e}", path.display())))
}

/// Creates the missing parent directories of `path`, so sidecar and
/// checkpoint writers work under per-tenant server roots
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
    checkpoint_path
        .parent()
        .map_or_else(|| PathBuf::from("quarantine.txt"), Path::to_path_buf)
        .join("quarantine.txt")
}

/// Reads the quarantine triage sidecar back: the parsed records plus the
/// number of malformed lines skipped.
///
/// Mirrors the cache sidecar's torn-tail tolerance: a malformed line —
/// the torn tail of a killed run, or byte-level corruption — is skipped
/// and counted, never fatal to the rest of the file. A missing file is
/// simply zero records.
///
/// # Errors
///
/// Only genuine I/O failures (permissions, disk); not-found is `Ok`.
pub fn read_quarantine_sidecar(path: &Path) -> Result<(Vec<QuarantineRecord>, usize), DseError> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), 0)),
        Err(e) => return Err(bad(format!("reading {}: {e}", path.display()))),
    };
    let mut records = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_quarantine_line(line) {
            Some(record) => records.push(record),
            None => skipped += 1,
        }
    }
    Ok((records, skipped))
}

fn parse_quarantine_line(line: &str) -> Option<QuarantineRecord> {
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
    pub fn delay_ms(&self, key: u64, attempt: usize) -> u64 {
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

    /// Pre-seeds the quarantine triage log (used on resume so records
    /// recovered from the sidecar survive the next sidecar rewrite).
    #[must_use]
    pub fn with_quarantine_seed(self, records: Vec<QuarantineRecord>) -> Self {
        self.quarantine_log
            .lock()
            .expect("quarantine log poisoned")
            .extend(records);
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
    /// When `Some(n)`, checkpoints between full keyframes are written as
    /// sparse deltas against the last keyframe (genomes change sparsely
    /// between generations); a fresh keyframe is forced every `n`
    /// snapshots. `None` (the default) writes every checkpoint in full.
    pub delta_checkpoints: Option<usize>,
    /// Per-evaluation wall-clock deadline; an attempt that exceeds it is
    /// converted into a retryable timeout. `None` disables the watchdog.
    pub eval_deadline: Option<Duration>,
    /// Deterministic exponential-backoff policy applied between retry
    /// attempts. `None` (the default) retries immediately.
    pub backoff: Option<BackoffPolicy>,
}

impl SupervisorConfig {
    /// Checkpoints to `path` every generation with one retry per failure,
    /// keeping only the newest checkpoint, every checkpoint written in
    /// full.
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
    ///     .with_keep_checkpoints(3)
    ///     .with_delta_checkpoints(4);
    /// assert_eq!(config.every_generations, 5);
    /// assert_eq!(config.max_retries, 2);
    /// assert_eq!(config.keep_checkpoints, 3);
    /// assert_eq!(config.delta_checkpoints, Some(4));
    /// ```
    pub fn new(path: impl Into<PathBuf>) -> Self {
        SupervisorConfig {
            checkpoint_path: path.into(),
            every_generations: 1,
            max_retries: 1,
            keep_checkpoints: 1,
            delta_checkpoints: None,
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

    /// Enables sparse delta encoding between consecutive checkpoints
    /// (builder style): a full keyframe is written every `keyframe_every`
    /// snapshots (and whenever the stage changes), the checkpoints in
    /// between store only the individuals that changed since the
    /// keyframe.
    ///
    /// # Panics
    ///
    /// Panics if `keyframe_every == 0`.
    #[must_use]
    pub fn with_delta_checkpoints(mut self, keyframe_every: usize) -> Self {
        assert!(keyframe_every > 0, "keyframe cadence must be at least 1");
        self.delta_checkpoints = Some(keyframe_every);
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

/// Rotates existing checkpoint generations aside and prunes the oldest:
/// `<path>.keep-2 → <path>.keep-1`, …, `<path> → <path>.1`; everything at
/// slot `keep-1` and beyond is removed. With `keep == 1` this just prunes
/// stale rotation files. Called by [`Checkpoint::save_rotated`] before
/// installing a fresh checkpoint at `path`.
fn rotate_checkpoints(path: &Path, keep: usize) {
    // Prune slots that fall outside the retention window (also covers a
    // `keep` that shrank between runs, up to a generous scan bound).
    let scan_to = keep.max(8) + 8;
    for n in (keep.max(1) - 1).max(1)..=scan_to {
        let _ = fs::remove_file(rotated_checkpoint_path(path, n));
    }
    // Shift the survivors one slot older, oldest first.
    for n in (1..keep.max(1) - 1).rev() {
        let _ = fs::rename(
            rotated_checkpoint_path(path, n),
            rotated_checkpoint_path(path, n + 1),
        );
    }
    if keep > 1 {
        let _ = fs::rename(path, rotated_checkpoint_path(path, 1));
    }
}

/// Removes the checkpoint at `path`, its delta keyframe, and every
/// rotation slot next to it (used once a supervised run completes).
pub fn remove_checkpoint_files(path: &Path, keep: usize) {
    let _ = fs::remove_file(path);
    let _ = fs::remove_file(keyframe_path(path));
    for n in 1..=keep.max(8) + 8 {
        let _ = fs::remove_file(rotated_checkpoint_path(path, n));
    }
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
    /// The checkpoint-format token of this tag.
    pub fn as_str(self) -> &'static str {
        match self {
            AlgorithmTag::Nsga2 => "nsga2",
            AlgorithmTag::Spea2 => "spea2",
        }
    }

    fn parse(tok: &str) -> Result<Self, DseError> {
        match tok {
            "nsga2" => Ok(AlgorithmTag::Nsga2),
            "spea2" => Ok(AlgorithmTag::Spea2),
            other => Err(bad(format!("unknown algorithm tag {other:?}"))),
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

const CHECKPOINT_HEADER: &str = "clrearly-checkpoint v2";
const DELTA_HEADER: &str = "clrearly-delta v1";

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn parse_f64(tok: &str) -> Result<f64, DseError> {
    u64::from_str_radix(tok, 16)
        .map(f64::from_bits)
        .map_err(|_| bad(format!("malformed f64 bits {tok:?}")))
}

fn parse_u64(tok: &str) -> Result<u64, DseError> {
    tok.parse()
        .map_err(|_| bad(format!("malformed integer {tok:?}")))
}

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

fn encode_health(out: &mut String, h: &RunHealth) {
    let _ = writeln!(
        out,
        "health {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        h.panics_isolated,
        h.errors_isolated,
        h.retries,
        h.quarantined,
        h.degraded_analyses,
        h.checkpoints_written,
        h.resumed_from_generation
            .map_or_else(|| "-".to_owned(), |g| g.to_string()),
        h.cache_hits,
        h.cache_misses,
        h.cache_inserts,
        h.timeouts,
        h.backoff_ms,
        h.injected,
        h.recovered,
        h.checkpoint_fallbacks,
        h.sidecar_lines_skipped,
    );
}

fn parse_health(line: &str) -> Result<RunHealth, DseError> {
    let mut toks = line.split_whitespace();
    let mut next_count = |what: &str| -> Result<usize, DseError> {
        parse_usize(
            toks.next()
                .ok_or_else(|| bad(format!("health missing {what}")))?,
        )
    };
    let panics_isolated = next_count("panics")?;
    let errors_isolated = next_count("errors")?;
    let retries = next_count("retries")?;
    let quarantined = next_count("quarantined")?;
    let degraded_analyses = next_count("degraded")?;
    let checkpoints_written = next_count("checkpoints")?;
    let resumed_from_generation = match toks.next() {
        Some("-") | None => None,
        Some(tok) => Some(parse_usize(tok)?),
    };
    // Cache and fault/recovery counters entered the format later; a
    // health line written by an earlier build simply lacks the trailing
    // tokens (a cold cache, a fault-free run).
    let mut opt_u64 = |missing: u64| -> Result<u64, DseError> {
        match toks.next() {
            Some(tok) => parse_u64(tok),
            None => Ok(missing),
        }
    };
    let to_usize = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
    let cache_hits = opt_u64(0)?;
    let cache_misses = opt_u64(0)?;
    let cache_inserts = opt_u64(0)?;
    let timeouts = to_usize(opt_u64(0)?);
    let backoff_ms = opt_u64(0)?;
    let injected = to_usize(opt_u64(0)?);
    let recovered = to_usize(opt_u64(0)?);
    let checkpoint_fallbacks = to_usize(opt_u64(0)?);
    let sidecar_lines_skipped = to_usize(opt_u64(0)?);
    Ok(RunHealth {
        panics_isolated,
        errors_isolated,
        retries,
        quarantined,
        degraded_analyses,
        checkpoints_written,
        resumed_from_generation,
        cache_hits,
        cache_misses,
        cache_inserts,
        timeouts,
        backoff_ms,
        injected,
        recovered,
        checkpoint_fallbacks,
        sidecar_lines_skipped,
    })
}

/// Encodes one individual as the whitespace-separated
/// `<violation-hex> <arity> <objective-hex…> <genome>` payload (no
/// leading keyword, no newline).
fn encode_individual(out: &mut String, ind: &Individual<Genome>) {
    let _ = write!(out, "{} {}", f64_hex(ind.violation), ind.objectives.len());
    for &o in &ind.objectives {
        let _ = write!(out, " {}", f64_hex(o));
    }
    out.push(' ');
    encode_genome(out, &ind.genome);
}

fn individual_line(ind: &Individual<Genome>) -> String {
    let mut out = String::new();
    encode_individual(&mut out, ind);
    out
}

fn parse_individual(
    toks: &mut std::str::SplitWhitespace<'_>,
) -> Result<Individual<Genome>, DseError> {
    let violation = parse_f64(
        toks.next()
            .ok_or_else(|| bad("individual missing violation"))?,
    )?;
    let obj_count = parse_usize(toks.next().ok_or_else(|| bad("individual missing arity"))?)?;
    let mut objectives = Vec::with_capacity(obj_count);
    for _ in 0..obj_count {
        objectives.push(parse_f64(
            toks.next().ok_or_else(|| bad("truncated objectives"))?,
        )?);
    }
    let genome = parse_genome(toks)?;
    if toks.next().is_some() {
        return Err(bad("trailing tokens after individual"));
    }
    Ok(Individual {
        genome,
        objectives,
        violation,
    })
}

fn parse_rng_words(line: &str) -> Result<[u64; 4], DseError> {
    let mut rng_state = [0u64; 4];
    let mut toks = line.split_whitespace();
    for w in &mut rng_state {
        let tok = toks.next().ok_or_else(|| bad("truncated rng state"))?;
        *w =
            u64::from_str_radix(tok, 16).map_err(|_| bad(format!("malformed rng word {tok:?}")))?;
    }
    Ok(rng_state)
}

/// Atomically writes `text` to `path` via a sibling `<path>.tmp` +
/// rename, so a crash mid-write never corrupts an existing good file.
fn atomic_write(path: &Path, text: &str) -> Result<(), DseError> {
    ensure_parent_dir(path)?;
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    let tmp = PathBuf::from(os);
    fs::write(&tmp, text).map_err(|e| bad(format!("writing {}: {e}", tmp.display())))?;
    fs::rename(&tmp, path).map_err(|e| bad(format!("installing {}: {e}", path.display())))
}

/// The delta keyframe location for the checkpoint at `path`:
/// `<path>.key`, with any numeric rotation suffix (`<path>.3`) stripped
/// first so rotated delta slots resolve to the same keyframe as the live
/// checkpoint.
pub fn keyframe_path(path: &Path) -> PathBuf {
    let s = path.as_os_str().to_string_lossy();
    let base = match s.rfind('.') {
        Some(i) if !s[i + 1..].is_empty() && s[i + 1..].bytes().all(|b| b.is_ascii_digit()) => {
            &s[..i]
        }
        _ => s.as_ref(),
    };
    PathBuf::from(format!("{base}.key"))
}

impl Checkpoint {
    /// Serializes to the versioned plain-text format. All floats are
    /// stored as IEEE-754 bit patterns, so encode → decode round-trips
    /// bit-exactly.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{CHECKPOINT_HEADER}");
        let _ = writeln!(out, "method {}", self.method);
        let _ = writeln!(out, "algorithm {}", self.algorithm.as_str());
        let _ = writeln!(out, "stage {}", self.stage);
        let _ = writeln!(out, "population-size {}", self.population_size);
        let _ = writeln!(out, "generations {}", self.generations);
        let _ = writeln!(out, "seed {}", self.seed);
        let _ = writeln!(out, "objectives {}", self.objective_count);
        encode_health(&mut out, &self.health);
        let _ = writeln!(out, "completed {}", self.completed.len());
        for s in &self.completed {
            debug_assert!(
                !s.label.contains(char::is_whitespace),
                "stage labels must be whitespace-free"
            );
            let _ = writeln!(
                out,
                "completed-stage {} {} {}",
                s.label,
                s.evaluations,
                s.genomes.len()
            );
            for g in &s.genomes {
                out.push_str("genome ");
                encode_genome(&mut out, g);
                out.push('\n');
            }
        }
        let _ = writeln!(out, "generation {}", self.state.generation);
        let _ = writeln!(out, "evaluations {}", self.state.evaluations);
        let w = self.state.rng_state;
        let _ = writeln!(
            out,
            "rng {:016x} {:016x} {:016x} {:016x}",
            w[0], w[1], w[2], w[3]
        );
        for (key, members) in [
            ("population", &self.state.population),
            ("archive", &self.state.archive),
        ] {
            let _ = writeln!(out, "{key} {}", members.len());
            for ind in members {
                out.push_str("individual ");
                encode_individual(&mut out, ind);
                out.push('\n');
            }
        }
        append_integrity_trailer(&mut out);
        out
    }

    /// Parses the text format produced by [`Checkpoint::encode`].
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] on any structural or lexical mismatch.
    pub fn decode(text: &str) -> Result<Checkpoint, DseError> {
        verify_integrity(text)?;
        let mut lines = text.lines();
        if lines.next() != Some(CHECKPOINT_HEADER) {
            return Err(bad("not a clrearly v2 checkpoint"));
        }
        // Fixed-order `key value...` lines; keyed parsing keeps mistakes
        // loud instead of positional.
        let mut field = |key: &str| -> Result<String, DseError> {
            let line = lines.next().ok_or_else(|| bad(format!("missing {key}")))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_owned)
                .ok_or_else(|| bad(format!("expected `{key} …`, found {line:?}")))
        };
        let method = field("method")?;
        let algorithm = AlgorithmTag::parse(&field("algorithm")?)?;
        let stage =
            u32::try_from(parse_u64(&field("stage")?)?).map_err(|_| bad("stage index overflow"))?;
        let population_size = parse_usize(&field("population-size")?)?;
        let generations = parse_usize(&field("generations")?)?;
        let seed = parse_u64(&field("seed")?)?;
        let objective_count = parse_usize(&field("objectives")?)?;
        let health = parse_health(&field("health")?)?;

        let completed_count = parse_usize(&field("completed")?)?;
        let mut completed = Vec::with_capacity(completed_count);
        for _ in 0..completed_count {
            let line = field("completed-stage")?;
            let mut toks = line.split_whitespace();
            let label = toks
                .next()
                .ok_or_else(|| bad("completed stage missing label"))?
                .to_owned();
            let evaluations = parse_usize(
                toks.next()
                    .ok_or_else(|| bad("stage missing evaluations"))?,
            )?;
            let genome_count = parse_usize(
                toks.next()
                    .ok_or_else(|| bad("stage missing genome count"))?,
            )?;
            if toks.next().is_some() {
                return Err(bad("trailing tokens after completed stage"));
            }
            let mut genomes = Vec::with_capacity(genome_count);
            for _ in 0..genome_count {
                let line = field("genome")?;
                let mut toks = line.split_whitespace();
                genomes.push(parse_genome(&mut toks)?);
                if toks.next().is_some() {
                    return Err(bad("trailing tokens after stage genome"));
                }
            }
            completed.push(CompletedStage {
                label,
                evaluations,
                genomes,
            });
        }

        let generation = parse_usize(&field("generation")?)?;
        let evaluations = parse_usize(&field("evaluations")?)?;
        let rng_state = parse_rng_words(&field("rng")?)?;

        let mut sections: Vec<Vec<Individual<Genome>>> = Vec::with_capacity(2);
        for key in ["population", "archive"] {
            let count = parse_usize(&field(key)?)?;
            let mut members = Vec::with_capacity(count);
            for _ in 0..count {
                let line = field("individual")?;
                let mut toks = line.split_whitespace();
                members.push(parse_individual(&mut toks)?);
            }
            sections.push(members);
        }
        let archive = sections.pop().expect("archive section");
        let population = sections.pop().expect("population section");

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

    /// Atomically writes the checkpoint: the encoded text goes to a
    /// sibling temp file first and is renamed into place, so a crash
    /// mid-write never corrupts an existing good checkpoint.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] wrapping the I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), DseError> {
        atomic_write(path, &self.encode())
    }

    /// [`Checkpoint::save`] with retention: the previous checkpoint
    /// generations are rotated to `<path>.1 … <path>.keep-1` (oldest
    /// pruned) before the new checkpoint is atomically installed at
    /// `path`. With `keep == 1` this is exactly [`Checkpoint::save`]
    /// (plus pruning of stale rotation files).
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] wrapping the I/O failure of the install;
    /// rotation failures of older generations are ignored (retention is
    /// best-effort, the newest checkpoint is the contract).
    pub fn save_rotated(&self, path: &Path, keep: usize) -> Result<(), DseError> {
        rotate_checkpoints(path, keep);
        self.save(path)
    }

    /// Reads and decodes a checkpoint file. A delta checkpoint (written
    /// by a [`CheckpointWriter`] with delta encoding enabled) is
    /// transparently resolved against its keyframe at
    /// [`keyframe_path`]; the keyframe's digest is verified first.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] if the file (or the keyframe a delta
    /// refers to) is missing, unreadable, malformed, or fails digest
    /// verification.
    pub fn load(path: &Path) -> Result<Checkpoint, DseError> {
        let text = fs::read_to_string(path)
            .map_err(|e| bad(format!("reading {}: {e}", path.display())))?;
        if text.starts_with(DELTA_HEADER) {
            let key = keyframe_path(path);
            let base_text = fs::read_to_string(&key)
                .map_err(|e| bad(format!("reading keyframe {}: {e}", key.display())))?;
            let base = Checkpoint::decode(&base_text)?;
            apply_delta(base, Fnv::hash_bytes(base_text.as_bytes()), &text)
        } else {
            Checkpoint::decode(&text)
        }
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

/// Encodes `cp` as a sparse delta against `base`: scalars that change
/// every generation (generation/evaluations/RNG/health) are stored in
/// full, population and archive members that already exist in the base
/// (bit-identically) are stored as `keep <base-index>` references into
/// the base's concatenated population∥archive.
fn encode_delta(base: &Checkpoint, base_digest: u64, cp: &Checkpoint) -> String {
    use std::collections::HashMap;
    let mut index: HashMap<String, usize> = HashMap::new();
    for (i, ind) in base
        .state
        .population
        .iter()
        .chain(&base.state.archive)
        .enumerate()
    {
        index.entry(individual_line(ind)).or_insert(i);
    }
    let mut out = String::new();
    let _ = writeln!(out, "{DELTA_HEADER}");
    let _ = writeln!(out, "base-digest {base_digest:016x}");
    let _ = writeln!(out, "generation {}", cp.state.generation);
    let _ = writeln!(out, "evaluations {}", cp.state.evaluations);
    let w = cp.state.rng_state;
    let _ = writeln!(
        out,
        "rng {:016x} {:016x} {:016x} {:016x}",
        w[0], w[1], w[2], w[3]
    );
    encode_health(&mut out, &cp.health);
    for (key, members) in [
        ("population", &cp.state.population),
        ("archive", &cp.state.archive),
    ] {
        let _ = writeln!(out, "{key} {}", members.len());
        for ind in members {
            let line = individual_line(ind);
            match index.get(&line) {
                Some(&i) => {
                    let _ = writeln!(out, "keep {i}");
                }
                None => {
                    let _ = writeln!(out, "individual {line}");
                }
            }
        }
    }
    append_integrity_trailer(&mut out);
    out
}

/// Appends the `integrity <fnv1a64-hex>` trailer line: the digest covers
/// every byte written so far, so any later flip or truncation is caught
/// by [`verify_integrity`] before the body is parsed.
fn append_integrity_trailer(out: &mut String) {
    let digest = Fnv::hash_bytes(out.as_bytes());
    let _ = writeln!(out, "integrity {digest:016x}");
}

/// Verifies the `integrity` trailer of a checkpoint or delta file.
///
/// Legacy files that end without a trailer pass unchanged (pre-chaos
/// checkpoints stay loadable). A trailer that is *present* but malformed
/// or whose digest does not cover the preceding bytes is an error — a
/// truncated or bit-flipped file must never decode silently.
fn verify_integrity(text: &str) -> Result<(), DseError> {
    // The trailer is the final newline-terminated line.
    let body = text.strip_suffix('\n').unwrap_or(text);
    let (prefix_len, last) = match body.rfind('\n') {
        Some(i) => (i + 1, &body[i + 1..]),
        None => (0, body),
    };
    let Some(rest) = last.strip_prefix("integrity") else {
        return Ok(()); // legacy file, no trailer
    };
    let digest = rest
        .strip_prefix(' ')
        .filter(|hex| hex.len() == 16)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| bad("malformed integrity trailer"))?;
    let actual = Fnv::hash_bytes(&text.as_bytes()[..prefix_len]);
    if actual != digest {
        return Err(bad(format!(
            "integrity digest mismatch (recorded {digest:016x}, computed {actual:016x})"
        )));
    }
    Ok(())
}

/// Resolves a delta checkpoint against its decoded keyframe.
/// `base_digest` is the FNV-1a digest of the keyframe's raw bytes and
/// must match the digest recorded in the delta.
fn apply_delta(base: Checkpoint, base_digest: u64, text: &str) -> Result<Checkpoint, DseError> {
    fn field(lines: &mut std::str::Lines<'_>, key: &str) -> Result<String, DseError> {
        let line = lines.next().ok_or_else(|| bad(format!("missing {key}")))?;
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_owned)
            .ok_or_else(|| bad(format!("expected `{key} …`, found {line:?}")))
    }
    verify_integrity(text)?;
    let mut lines = text.lines();
    if lines.next() != Some(DELTA_HEADER) {
        return Err(bad("not a clrearly delta checkpoint"));
    }
    let recorded = u64::from_str_radix(&field(&mut lines, "base-digest")?, 16)
        .map_err(|_| bad("malformed base digest"))?;
    if recorded != base_digest {
        return Err(bad(format!(
            "delta was encoded against a different keyframe \
             (digest {recorded:016x}, keyframe {base_digest:016x})"
        )));
    }
    let generation = parse_usize(&field(&mut lines, "generation")?)?;
    let evaluations = parse_usize(&field(&mut lines, "evaluations")?)?;
    let rng_state = parse_rng_words(&field(&mut lines, "rng")?)?;
    let health = parse_health(&field(&mut lines, "health")?)?;

    let pool: Vec<&Individual<Genome>> = base
        .state
        .population
        .iter()
        .chain(&base.state.archive)
        .collect();
    let mut sections: Vec<Vec<Individual<Genome>>> = Vec::with_capacity(2);
    for key in ["population", "archive"] {
        let count = parse_usize(&field(&mut lines, key)?)?;
        let mut members = Vec::with_capacity(count);
        for _ in 0..count {
            let line = lines.next().ok_or_else(|| bad("truncated delta"))?;
            if let Some(rest) = line.strip_prefix("keep ") {
                let i = parse_usize(rest.trim())?;
                let ind = pool
                    .get(i)
                    .ok_or_else(|| bad(format!("delta keep index {i} out of range")))?;
                members.push((*ind).clone());
            } else if let Some(rest) = line.strip_prefix("individual ") {
                let mut toks = rest.split_whitespace();
                members.push(parse_individual(&mut toks)?);
            } else {
                return Err(bad(format!("expected `keep`/`individual`, found {line:?}")));
            }
        }
        sections.push(members);
    }
    let archive = sections.pop().expect("archive section");
    let population = sections.pop().expect("population section");

    Ok(Checkpoint {
        state: EvoSnapshot {
            population,
            archive,
            generation,
            evaluations,
            rng_state,
        },
        health,
        ..base
    })
}

/// Stateful checkpoint persister used by the supervised campaign driver:
/// with delta encoding off it is a thin wrapper over
/// [`Checkpoint::save_rotated`]; with delta encoding on it writes a full
/// keyframe (at the checkpoint path *and* the [`keyframe_path`] sidecar)
/// every `keyframe_every` snapshots and digest-pinned sparse deltas in
/// between. Create one writer per supervised stage — the first save of a
/// stage is always a keyframe.
#[derive(Debug)]
pub struct CheckpointWriter {
    keyframe_every: Option<usize>,
    since_keyframe: usize,
    base: Option<(Checkpoint, u64)>,
}

impl CheckpointWriter {
    /// A writer following `config`'s delta policy.
    pub fn new(config: &SupervisorConfig) -> Self {
        CheckpointWriter {
            keyframe_every: config.delta_checkpoints,
            since_keyframe: 0,
            base: None,
        }
    }

    /// Persists `cp` at `path` (with rotation retention `keep`), as a
    /// keyframe or delta per the writer's policy.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] wrapping the underlying I/O failure.
    pub fn save(&mut self, cp: &Checkpoint, path: &Path, keep: usize) -> Result<(), DseError> {
        let Some(keyframe_every) = self.keyframe_every else {
            return cp.save_rotated(path, keep);
        };
        let need_keyframe = match &self.base {
            None => true,
            Some(_) => self.since_keyframe >= keyframe_every,
        };
        if need_keyframe {
            cp.save_rotated(path, keep)?;
            let text = cp.encode();
            atomic_write(&keyframe_path(path), &text)?;
            self.base = Some((cp.clone(), Fnv::hash_bytes(text.as_bytes())));
            self.since_keyframe = 1;
        } else {
            let (base, digest) = self.base.as_ref().expect("keyframe base");
            let delta = encode_delta(base, *digest, cp);
            rotate_checkpoints(path, keep);
            atomic_write(path, &delta)?;
            self.since_keyframe += 1;
        }
        Ok(())
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

    #[test]
    fn checkpoint_roundtrips_spea2_tag() {
        let mut cp = sample_checkpoint();
        cp.algorithm = AlgorithmTag::Spea2;
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
        let corrupt = cp.encode().replace("algorithm spea2", "algorithm cmaes");
        assert!(Checkpoint::decode(&corrupt).is_err());
    }

    #[test]
    fn decode_rejects_malformed_inputs() {
        let good = sample_checkpoint().encode();
        assert!(Checkpoint::decode("").is_err());
        assert!(Checkpoint::decode("other-format v9\n").is_err());
        // Truncation anywhere must error, never panic.
        for cut in [10, 40, 80, good.len() / 2, good.len() - 5] {
            assert!(
                Checkpoint::decode(&good[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
        let corrupt = good.replace("rng ", "rng zz ");
        assert!(Checkpoint::decode(&corrupt).is_err());
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
    fn keyframe_path_strips_rotation_suffix() {
        let live = Path::new("/tmp/run.ckpt");
        assert_eq!(keyframe_path(live), Path::new("/tmp/run.ckpt.key"));
        assert_eq!(
            keyframe_path(&rotated_checkpoint_path(live, 3)),
            Path::new("/tmp/run.ckpt.key"),
            "rotated slots share the live checkpoint's keyframe"
        );
    }

    #[test]
    fn delta_checkpoints_roundtrip_through_load() {
        let dir = std::env::temp_dir().join(format!("clre-delta-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let config = SupervisorConfig::new(&path).with_delta_checkpoints(3);
        let mut writer = CheckpointWriter::new(&config);

        let mut cp = sample_checkpoint();
        for generation in 5..11 {
            cp.state.generation = generation;
            cp.state.evaluations += 16;
            cp.health.checkpoints_written += 1;
            // Mutate one member so deltas are genuinely sparse, not empty.
            cp.state.population[0].objectives[0] += 1.0;
            writer.save(&cp, &path, 1).unwrap();
            let text = fs::read_to_string(&path).unwrap();
            let expect_keyframe = (generation - 5) % 3 == 0;
            assert_eq!(
                text.starts_with(CHECKPOINT_HEADER),
                expect_keyframe,
                "generation {generation}"
            );
            if !expect_keyframe {
                assert!(text.starts_with(DELTA_HEADER));
                assert!(text.contains("\nkeep "), "unchanged members are references");
            }
            assert_eq!(Checkpoint::load(&path).unwrap(), cp, "gen {generation}");
        }

        // A delta whose keyframe has been replaced must fail digest
        // verification rather than resume from mismatched state.
        let final_text = fs::read_to_string(&path).unwrap();
        assert!(final_text.starts_with(DELTA_HEADER));
        cp.state.generation = 99;
        atomic_write(&keyframe_path(&path), &cp.encode()).unwrap();
        assert!(Checkpoint::load(&path).is_err());

        remove_checkpoint_files(&path, 1);
        assert!(!keyframe_path(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_writer_disabled_writes_full_checkpoints() {
        let dir = std::env::temp_dir().join(format!("clre-delta-off-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        let config = SupervisorConfig::new(&path);
        let mut writer = CheckpointWriter::new(&config);
        let cp = sample_checkpoint();
        for _ in 0..3 {
            writer.save(&cp, &path, 1).unwrap();
            assert!(fs::read_to_string(&path)
                .unwrap()
                .starts_with(CHECKPOINT_HEADER));
        }
        assert!(!keyframe_path(&path).exists());
        fs::remove_dir_all(&dir).unwrap();
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
    fn health_line_without_cache_counters_still_parses() {
        // The pre-cache seven-field line must keep decoding (old
        // checkpoints resume with a cold cache).
        let h = parse_health("1 2 3 4 5 6 -").unwrap();
        assert_eq!(h.panics_isolated, 1);
        assert_eq!(h.checkpoints_written, 6);
        assert_eq!((h.cache_hits, h.cache_misses, h.cache_inserts), (0, 0, 0));
        // The cache-era ten-field line decodes with fault-free counters.
        let h = parse_health("1 2 3 4 5 6 - 10 20 30").unwrap();
        assert_eq!((h.cache_hits, h.timeouts, h.injected), (10, 0, 0));
    }

    #[test]
    fn health_line_roundtrips_fault_counters() {
        let h = sample_checkpoint().health;
        let mut line = String::new();
        encode_health(&mut line, &h);
        let payload = line
            .trim_end()
            .strip_prefix("health ")
            .expect("health keyword");
        assert_eq!(parse_health(payload).unwrap(), h);
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
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine.txt");
        fs::write(
            &path,
            "quarantine-v1 error=boom genome=7\n\
             \n\
             complete garbage\n\
             quarantine-v1 error=torn tail with no genom\n\
             quarantine-v1 error=ok genome=1 0:1:2\n",
        )
        .unwrap();
        let (records, skipped) = read_quarantine_sidecar(&path).unwrap();
        assert_eq!(skipped, 2, "garbage + torn tail skipped, blank ignored");
        assert_eq!(
            records,
            vec![
                QuarantineRecord {
                    genome: "7".to_owned(),
                    error: "boom".to_owned(),
                },
                QuarantineRecord {
                    genome: "1 0:1:2".to_owned(),
                    error: "ok".to_owned(),
                },
            ]
        );
        // Round-trip: what the writer emits, the reader accepts whole.
        write_quarantine_sidecar(&path, &records).unwrap();
        assert_eq!(read_quarantine_sidecar(&path).unwrap(), (records, 0));
        // A missing sidecar is zero records, not an error.
        assert_eq!(
            read_quarantine_sidecar(&dir.join("absent.txt")).unwrap(),
            (Vec::new(), 0)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn integrity_trailer_detects_corruption() {
        let cp = sample_checkpoint();
        let good = cp.encode();
        assert!(
            good.trim_end()
                .lines()
                .last()
                .unwrap()
                .starts_with("integrity "),
            "encode appends the integrity trailer"
        );
        assert_eq!(Checkpoint::decode(&good).unwrap(), cp);
        // A byte flip anywhere in the body fails the digest before the
        // body is even parsed.
        let flipped = good.replacen("proposed", "pro-osed", 1);
        let err = Checkpoint::decode(&flipped).unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
        // Truncating into the trailer is malformed, never silently valid.
        assert!(Checkpoint::decode(&good[..good.len() - 3]).is_err());
        // A legacy checkpoint written before the trailer still decodes.
        let legacy: String = good
            .lines()
            .filter(|l| !l.starts_with("integrity "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(Checkpoint::decode(&legacy).unwrap(), cp);
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
        let mut text = fs::read_to_string(&path).unwrap();
        text.truncate(text.len() / 2);
        fs::write(&path, &text).unwrap();
        assert!(Checkpoint::load(&path).is_err());
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
        remove_checkpoint_files(&path, keep);
        assert!(!path.exists());
        assert!(!rotated_checkpoint_path(&path, 1).exists());
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
    fn quarantine_sidecar_roundtrips_and_clears() {
        let dir = std::env::temp_dir().join(format!("clre-quarantine-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = quarantine_sidecar_path(&dir.join("run.ckpt"));
        assert_eq!(path, dir.join("quarantine.txt"));
        let records = vec![QuarantineRecord {
            genome: "2 0:1:2 1:0:0".to_owned(),
            error: "panic: multi\nline".to_owned(),
        }];
        write_quarantine_sidecar(&path, &records).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "quarantine-v1 error=panic: multi line genome=2 0:1:2 1:0:0\n"
        );
        // Empty record set removes the stale sidecar.
        write_quarantine_sidecar(&path, &[]).unwrap();
        assert!(!path.exists());
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
