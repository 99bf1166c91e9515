//! `clre-chaos` — the deterministic chaos-injection harness.
//!
//! Robustness claims are only as good as the faults they were tested
//! against. This crate compiles a salted, seeded [`FaultPlan`] into
//! injection hooks at every runtime seam of the DSE stack, so a whole
//! campaign can be driven through a reproducible fault storm and its
//! recovered front compared bit-for-bit against the fault-free baseline:
//!
//! * **Evaluation faults** — [`FaultPlan`] implements
//!   [`FaultInjector`], the seam `ResilientProblem` consults before
//!   every attempt (panic / typed error / NaN-poisoned objectives /
//!   artificial stall). [`InjectingProblem`] is the end-to-end variant:
//!   it makes the faults *real* (an actual unwind, an actual `Err`, an
//!   actual sleep) underneath any
//!   [`FallibleProblem`](clre::resilience::FallibleProblem), exercising
//!   the catch-unwind isolation rather than the internal dispatch.
//! * **Solver faults** — re-exported [`SolverFaultPlan`] drives
//!   `clre-markov`'s LU recovery ladder (primary solve → scaled-pivoting
//!   retry → closed-form fallback) per analysis digest.
//! * **Worker death** — re-exported [`DeathPlan`] kills `ExecPool`
//!   workers mid-batch by item index; the pool's recovery pass finishes
//!   the batch bit-identically.
//! * **Sidecar corruption** — [`corrupt_file`] applies one deterministic
//!   bit-flip or truncation to a checkpoint / cache / quarantine file
//!   between save and load, exercising integrity digests, rotation
//!   fallback and skip-and-count parsing.
//!
//! Every decision is **content-addressed**: a pure function of the plan
//! seed and the genome key / analysis digest / item index / file bytes,
//! never of call order, thread identity or wall clock. The same seed
//! therefore reproduces the same fault schedule across worker counts and
//! reruns — which is what lets `chaosbench` assert that recovery is
//! bit-exact.
//!
//! # Examples
//!
//! ```
//! use clre_chaos::FaultPlan;
//! use clre::resilience::FaultInjector;
//!
//! let plan = FaultPlan::new(42).with_panic_ppm(500_000);
//! // Decisions are pure in (seed, key): reruns see the same storm.
//! for key in ["g0", "g1", "g2"] {
//!     assert_eq!(plan.eval_fault(key, 0), plan.eval_fault(key, 0));
//!     // Faults fire on the first attempt only, so a retry recovers.
//!     assert_eq!(plan.eval_fault(key, 1), None);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use clre::cache::Fnv;
use clre::resilience::{FallibleProblem, FaultInjector, InjectedFault};
use clre::DseError;
use clre_moea::{Evaluation, Problem};
use rand::RngCore;

pub use clre::resilience::BackoffPolicy;
pub use clre_exec::DeathPlan;
pub use clre_markov::clr::SolverFaultPlan;

/// A salted, seeded evaluation-fault plan: per-kind parts-per-million
/// rates drawn independently per genome key.
///
/// The plan is the canonical [`FaultInjector`]: `ResilientProblem`
/// consults it before every evaluation attempt. Faults fire on attempt 0
/// only, so a supervisor with at least one retry always recovers and the
/// recovered front is bit-identical to the fault-free run — the property
/// `chaosbench` asserts. Each fault kind draws from its own salted
/// stream, so raising one rate never perturbs which keys another kind
/// selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Salt for every per-key decision.
    pub seed: u64,
    /// Probability (ppm) an evaluation panics on its first attempt.
    pub panic_ppm: u32,
    /// Probability (ppm) an evaluation fails with a typed error.
    pub error_ppm: u32,
    /// Probability (ppm) an evaluation returns NaN-poisoned objectives.
    pub poison_ppm: u32,
    /// Probability (ppm) an evaluation stalls before answering.
    pub stall_ppm: u32,
    /// How long a stall fault sleeps, in milliseconds.
    pub stall_ms: u64,
}

impl FaultPlan {
    /// A quiet plan (all rates zero) with the given seed; turn kinds on
    /// with the `with_*_ppm` builders.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_ppm: 0,
            error_ppm: 0,
            poison_ppm: 0,
            stall_ppm: 0,
            stall_ms: 20,
        }
    }

    /// Sets the panic rate (builder style).
    #[must_use]
    pub fn with_panic_ppm(mut self, ppm: u32) -> Self {
        self.panic_ppm = ppm;
        self
    }

    /// Sets the typed-error rate (builder style).
    #[must_use]
    pub fn with_error_ppm(mut self, ppm: u32) -> Self {
        self.error_ppm = ppm;
        self
    }

    /// Sets the NaN-poisoning rate (builder style).
    #[must_use]
    pub fn with_poison_ppm(mut self, ppm: u32) -> Self {
        self.poison_ppm = ppm;
        self
    }

    /// Sets the stall rate and duration (builder style).
    #[must_use]
    pub fn with_stall_ppm(mut self, ppm: u32, stall_ms: u64) -> Self {
        self.stall_ppm = ppm;
        self.stall_ms = stall_ms;
        self
    }

    /// The per-kind decision draw: FNV-1a over `seed ‖ kind ‖ key`.
    fn fires(&self, kind: u64, key: &str, ppm: u32) -> bool {
        let mut fnv = Fnv::new();
        fnv.write_u64(self.seed);
        fnv.write_u64(kind);
        fnv.write_bytes(key.as_bytes());
        fnv.finish() % 1_000_000 < u64::from(ppm)
    }

    /// The fault (if any) this plan injects for the evaluation of `key`,
    /// independent of attempt. Kinds are checked in a fixed order
    /// (panic, error, poison, stall); the first firing kind wins.
    pub fn decide(&self, key: &str) -> Option<InjectedFault> {
        if self.fires(0, key, self.panic_ppm) {
            return Some(InjectedFault::Panic(format!(
                "chaos: injected panic [{key}]"
            )));
        }
        if self.fires(1, key, self.error_ppm) {
            return Some(InjectedFault::Error(format!(
                "chaos: injected error [{key}]"
            )));
        }
        if self.fires(2, key, self.poison_ppm) {
            return Some(InjectedFault::PoisonObjectives);
        }
        if self.fires(3, key, self.stall_ppm) {
            return Some(InjectedFault::Stall(Duration::from_millis(self.stall_ms)));
        }
        None
    }
}

impl FaultInjector for FaultPlan {
    /// Attempt-0-only injection: retries of a faulted evaluation run
    /// clean, so supervised runs always recover to the fault-free result.
    fn eval_fault(&self, key: &str, attempt: usize) -> Option<InjectedFault> {
        if attempt > 0 {
            return None;
        }
        self.decide(key)
    }
}

/// A [`FallibleProblem`] wrapper that makes a [`FaultPlan`]'s faults
/// *real*: the first evaluation of a selected genome actually panics,
/// actually returns a typed error, actually hands back NaN objectives or
/// actually sleeps — instead of being simulated inside
/// `ResilientProblem`'s dispatch. Wrapping an `InjectingProblem` in a
/// `ResilientProblem` therefore exercises the full recovery machinery
/// end-to-end, catch-unwind isolation included.
///
/// Fault decisions are content-addressed on the genome key, and each key
/// faults on its **first sighting only** (tracked internally), mirroring
/// the plan's attempt-0-only behaviour: the supervisor's retry of the
/// same genome runs clean and recovers the true evaluation.
#[derive(Debug)]
pub struct InjectingProblem<P> {
    inner: P,
    plan: FaultPlan,
    seen: Mutex<HashSet<u64>>,
}

impl<P> InjectingProblem<P> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: P, plan: FaultPlan) -> Self {
        InjectingProblem {
            inner,
            plan,
            seen: Mutex::new(HashSet::new()),
        }
    }

    /// The wrapped problem.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Whether this is the first evaluation of `key` (and marks it seen).
    fn first_sighting(&self, key: &str) -> bool {
        self.seen
            .lock()
            .expect("sighting set poisoned")
            .insert(Fnv::hash_bytes(key.as_bytes()))
    }
}

impl<P: FallibleProblem> Problem for InjectingProblem<P> {
    type Genome = P::Genome;

    fn objective_count(&self) -> usize {
        self.inner.objective_count()
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> Self::Genome {
        self.inner.random_genome(rng)
    }

    fn evaluate(&self, genome: &Self::Genome) -> Evaluation {
        match FallibleProblem::try_evaluate(self, genome) {
            Ok(eval) => eval,
            Err(e) => panic!("{e}"),
        }
    }

    /// `false` on purpose: injected panics are real unwinds here, so a
    /// supervising `ResilientProblem` must keep its catch-unwind backstop
    /// in the loop.
    fn reports_errors(&self) -> bool {
        false
    }
}

impl<P: FallibleProblem> FallibleProblem for InjectingProblem<P> {
    fn try_evaluate(&self, genome: &Self::Genome) -> Result<Evaluation, DseError> {
        let key = self.inner.describe_genome(genome);
        if self.first_sighting(&key) {
            match self.plan.decide(&key) {
                Some(InjectedFault::Panic(msg)) => panic!("{msg}"),
                Some(InjectedFault::Error(what)) => return Err(DseError::Injected { what }),
                Some(InjectedFault::PoisonObjectives) => {
                    return Ok(Evaluation::feasible(vec![
                        f64::NAN;
                        self.inner.objective_count()
                    ]));
                }
                Some(InjectedFault::Stall(pause)) => std::thread::sleep(pause),
                None => {}
            }
        }
        FallibleProblem::try_evaluate(&self.inner, genome)
    }

    fn describe_genome(&self, genome: &Self::Genome) -> String {
        self.inner.describe_genome(genome)
    }
}

/// What [`corrupt_file`] did to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// One bit of the byte at `offset` was flipped.
    BitFlip {
        /// Byte offset of the flipped bit.
        offset: usize,
        /// Bit index within the byte (0–7).
        bit: u8,
    },
    /// The file was truncated to `len` bytes.
    Truncate {
        /// Length after truncation.
        len: usize,
    },
}

/// Applies one deterministic corruption — a single bit-flip or a
/// truncation — to the file at `path`.
///
/// The choice of corruption, its position and (for flips) the bit are a
/// pure function of `(seed, salt, file length)`, so a chaos scenario
/// damages its sidecars identically on every rerun. An empty file is
/// left unchanged (reported as a zero-length truncation).
///
/// # Errors
///
/// Propagates I/O failures reading or rewriting the file.
pub fn corrupt_file(path: &Path, seed: u64, salt: u64) -> io::Result<Corruption> {
    let mut bytes = fs::read(path)?;
    if bytes.is_empty() {
        return Ok(Corruption::Truncate { len: 0 });
    }
    let mut fnv = Fnv::new();
    fnv.write_u64(seed);
    fnv.write_u64(salt);
    fnv.write_u64(bytes.len() as u64);
    let h = fnv.finish();
    let position = usize::try_from((h >> 1) % bytes.len() as u64).expect("position fits usize");
    let corruption = if h & 1 == 0 {
        let bit = u8::try_from((h >> 33) % 8).expect("bit index fits u8");
        bytes[position] ^= 1 << bit;
        Corruption::BitFlip {
            offset: position,
            bit,
        }
    } else {
        bytes.truncate(position);
        Corruption::Truncate { len: position }
    };
    fs::write(path, &bytes)?;
    Ok(corruption)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre::resilience::ResilientProblem;

    /// A pure toy problem whose genome renders to its own key.
    #[derive(Debug)]
    struct Toy;

    impl Problem for Toy {
        type Genome = u32;

        fn objective_count(&self) -> usize {
            2
        }

        fn random_genome(&self, rng: &mut dyn RngCore) -> u32 {
            rng.next_u32() % 1000
        }

        fn evaluate(&self, genome: &u32) -> Evaluation {
            Evaluation::feasible(vec![f64::from(*genome), 1.0 / f64::from(*genome + 1)])
        }

        fn reports_errors(&self) -> bool {
            true
        }
    }

    impl FallibleProblem for Toy {
        fn try_evaluate(&self, genome: &u32) -> Result<Evaluation, DseError> {
            Ok(self.evaluate(genome))
        }

        fn describe_genome(&self, genome: &u32) -> String {
            genome.to_string()
        }
    }

    fn storm() -> FaultPlan {
        FaultPlan::new(0xC0FFEE)
            .with_panic_ppm(120_000)
            .with_error_ppm(120_000)
            .with_poison_ppm(120_000)
            .with_stall_ppm(120_000, 1)
    }

    #[test]
    fn decisions_are_pure_and_salted() {
        let plan = storm();
        let twin = storm();
        let other = FaultPlan::new(0xBEEF)
            .with_panic_ppm(120_000)
            .with_error_ppm(120_000)
            .with_poison_ppm(120_000)
            .with_stall_ppm(120_000, 1);
        let mut fired = 0usize;
        let mut differs = false;
        for g in 0u32..2000 {
            let key = g.to_string();
            assert_eq!(plan.decide(&key), twin.decide(&key));
            if plan.decide(&key).is_some() {
                fired += 1;
            }
            differs |= plan.decide(&key) != other.decide(&key);
        }
        // ~4 × 12% of keys should fault; accept a generous band.
        assert!((400..=1200).contains(&fired), "fired {fired}");
        assert!(differs, "a different seed must reshuffle the storm");
        // Attempt-0-only via the injector seam.
        assert_eq!(plan.eval_fault("17", 1), None);
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        let plan = FaultPlan::new(9);
        for g in 0u32..500 {
            assert_eq!(plan.decide(&g.to_string()), None);
        }
    }

    #[test]
    fn real_faults_recover_under_supervision() {
        let plan = storm();
        let chaotic = ResilientProblem::new(InjectingProblem::new(Toy, plan)).with_max_retries(2);
        let genomes: Vec<u32> = (0..300).collect();
        for g in &genomes {
            let eval = chaotic.evaluate(g);
            assert_eq!(eval, Toy.evaluate(g), "genome {g} must recover bit-exactly");
        }
        let health = chaotic.health().lock().unwrap().clone();
        assert!(health.panics_isolated > 0, "storm must include real panics");
        assert!(
            health.errors_isolated > 0,
            "storm must include typed errors"
        );
        assert!(health.retries > 0);
        assert_eq!(
            health.quarantined, 0,
            "first-sighting faults always recover"
        );
        // The faults are real, not simulated through the injector seam.
        assert_eq!(health.injected, 0);
    }

    #[test]
    fn corruption_is_deterministic() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("clre-chaos-corrupt-{}.txt", std::process::id()));
        let body = b"sidecar line one\nsidecar line two\n";
        fs::write(&path, body).unwrap();
        let first = corrupt_file(&path, 11, 3).unwrap();
        let damaged = fs::read(&path).unwrap();
        assert_ne!(damaged, body, "corruption must change the file");

        fs::write(&path, body).unwrap();
        let second = corrupt_file(&path, 11, 3).unwrap();
        assert_eq!(first, second);
        assert_eq!(fs::read(&path).unwrap(), damaged);

        // A different salt damages differently (possibly same kind).
        fs::write(&path, body).unwrap();
        let mut variety = vec![first];
        for salt in 0..8 {
            fs::write(&path, body).unwrap();
            variety.push(corrupt_file(&path, 11, salt).unwrap());
        }
        variety.dedup();
        assert!(variety.len() > 1, "salts must vary the damage: {variety:?}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_files_are_left_alone() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("clre-chaos-empty-{}.txt", std::process::id()));
        fs::write(&path, b"").unwrap();
        assert_eq!(
            corrupt_file(&path, 1, 1).unwrap(),
            Corruption::Truncate { len: 0 }
        );
        assert!(fs::read(&path).unwrap().is_empty());
        fs::remove_file(&path).ok();
    }
}
