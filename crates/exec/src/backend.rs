//! The evaluation-backend abstraction: one batch-evaluation API from
//! threads to processes.
//!
//! [`EvalBackend`] is the seam that lets a campaign run its per-
//! generation evaluation batches anywhere without the MOEA layer
//! changing shape: items go in as opaque encoded strings, results come
//! back in pre-sized indexed slots (slot `i` answers item `i`, always),
//! and everything scheduling-dependent is confined to [`ExecStats`]
//! telemetry. Two implementations ship:
//!
//! * [`ThreadBackend`] — the existing in-process scoped-thread pool
//!   ([`ExecPool`]) behind the backend API, resolving contexts through
//!   an [`EvalVocab`].
//! * [`SubprocessBackend`] — a pool of `clre-exec-worker` child
//!   processes speaking `exec-wire v1` (see [`crate::wire`]).
//!
//! The determinism contract mirrors [`ExecPool::evaluate_batch`]: the
//! *outputs* of a batch depend only on the context and the items, never
//! on the backend choice, worker count, chunking, or which worker died
//! mid-batch. A worker lost mid-batch is respawned once and its chunk
//! re-sent; a chunk that cannot be completed comes back as per-item
//! `Err` slots, which callers resolve by evaluating those items
//! in-process — so the merged result is bit-identical either way.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histogram::LatencyHistogram;
use crate::pool::{ExecPool, ExecStats};

/// One batch's results: `outputs[i]` answers `items[i]` (an `Err` slot
/// carries the failure message for that item alone), plus the batch's
/// scheduling telemetry.
#[derive(Debug, Clone)]
pub struct EncodedBatch {
    /// Per-item outcome, in item order.
    pub outputs: Vec<Result<String, String>>,
    /// Wall time / per-worker split / latency histogram / deaths.
    pub stats: ExecStats,
}

/// Worker-health snapshot of a backend, for telemetry and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendHealth {
    /// Workers the backend is configured to run.
    pub workers: usize,
    /// Workers currently alive (spawned and not known dead). For the
    /// in-process backend this equals `workers`.
    pub alive: usize,
    /// Workers lost over the backend's lifetime (process deaths,
    /// protocol failures).
    pub lost: usize,
    /// Workers respawned after a loss.
    pub restarts: usize,
    /// Batches evaluated.
    pub batches: u64,
    /// Items evaluated (counting re-sends after a worker loss once).
    pub items: u64,
}

/// A whole-batch failure: the backend could not produce indexed slots
/// at all (as opposed to per-item `Err` slots inside [`EncodedBatch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendError {
    /// Human-readable failure description.
    pub message: String,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for BackendError {}

impl BackendError {
    /// A backend error with this message.
    pub fn new(message: impl Into<String>) -> Self {
        BackendError {
            message: message.into(),
        }
    }
}

/// A place evaluation batches run: threads, subprocesses, or anything
/// else that can turn `(context, items)` into indexed output slots.
///
/// Implementations must uphold the determinism contract (see the
/// [module docs](self)): `evaluate_encoded` is a pure function of
/// `(context, items)` up to the `Err` slots it reports, and telemetry
/// is the only thing allowed to vary between calls.
pub trait EvalBackend: Send + Sync + fmt::Debug {
    /// A short stable name (`"threads"`, `"subprocess"`), for telemetry
    /// and reports.
    fn name(&self) -> &'static str;

    /// The configured worker count.
    fn workers(&self) -> usize;

    /// Evaluates every item under `context`, returning one output slot
    /// per item in item order.
    ///
    /// # Errors
    ///
    /// [`BackendError`] only when no indexed slots could be produced at
    /// all (e.g. the context itself does not resolve); per-item
    /// failures travel as `Err` slots inside the batch.
    fn evaluate_encoded(
        &self,
        context: &str,
        items: &[String],
    ) -> Result<EncodedBatch, BackendError>;

    /// Current worker health.
    fn health(&self) -> BackendHealth;

    /// Flushes any buffered telemetry the backend holds (a no-op for
    /// backends that report synchronously).
    fn flush_telemetry(&self);
}

/// Resolves an opaque context string into an evaluation function. The
/// same vocabulary drives the in-process [`ThreadBackend`] and the
/// `clre-exec-worker` loop, which is what makes the two backends
/// interchangeable: both evaluate the same resolved function.
pub trait EvalVocab: Send + Sync + fmt::Debug {
    /// Resolves `context` into a shareable evaluator.
    ///
    /// # Errors
    ///
    /// A human-readable description of why the context is unknown or
    /// malformed. Implementations should cache resolved contexts —
    /// resolution may be expensive (model construction).
    fn resolve(&self, context: &str) -> Result<Arc<dyn ItemEval>, String>;
}

/// One resolved context: evaluates a single encoded item into a single
/// encoded output. Must be pure — the determinism contract of every
/// backend rests on it.
pub trait ItemEval: Send + Sync {
    /// Evaluates one item.
    ///
    /// # Errors
    ///
    /// A human-readable per-item failure message (transported to the
    /// caller's `Err` slot).
    fn eval(&self, item: &str) -> Result<String, String>;
}

/// The in-process backend: [`ExecPool`] scoped threads behind the
/// [`EvalBackend`] API, with contexts resolved (and cached) through an
/// [`EvalVocab`].
pub struct ThreadBackend {
    pool: ExecPool,
    vocab: Arc<dyn EvalVocab>,
    resolved: Mutex<HashMap<String, Arc<dyn ItemEval>>>,
    batches: Mutex<(u64, u64)>,
}

impl fmt::Debug for ThreadBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadBackend")
            .field("pool", &self.pool)
            .field("vocab", &self.vocab)
            .finish_non_exhaustive()
    }
}

impl ThreadBackend {
    /// A thread backend fanning batches over `pool`, resolving contexts
    /// through `vocab`.
    pub fn new(pool: ExecPool, vocab: Arc<dyn EvalVocab>) -> Self {
        ThreadBackend {
            pool,
            vocab,
            resolved: Mutex::new(HashMap::new()),
            batches: Mutex::new((0, 0)),
        }
    }

    fn resolve(&self, context: &str) -> Result<Arc<dyn ItemEval>, String> {
        let mut resolved = self.resolved.lock().expect("context cache poisoned");
        if let Some(eval) = resolved.get(context) {
            return Ok(Arc::clone(eval));
        }
        let eval = self.vocab.resolve(context)?;
        resolved.insert(context.to_owned(), Arc::clone(&eval));
        Ok(eval)
    }
}

impl EvalBackend for ThreadBackend {
    fn name(&self) -> &'static str {
        "threads"
    }

    fn workers(&self) -> usize {
        self.pool.workers()
    }

    fn evaluate_encoded(
        &self,
        context: &str,
        items: &[String],
    ) -> Result<EncodedBatch, BackendError> {
        let eval = self.resolve(context).map_err(BackendError::new)?;
        let (outputs, stats) = self.pool.evaluate_batch(items, |item| eval.eval(item));
        let mut counters = self.batches.lock().expect("backend counters poisoned");
        counters.0 += 1;
        counters.1 += items.len() as u64;
        Ok(EncodedBatch { outputs, stats })
    }

    fn health(&self) -> BackendHealth {
        let (batches, items) = *self.batches.lock().expect("backend counters poisoned");
        BackendHealth {
            workers: self.pool.workers(),
            alive: self.pool.workers(),
            lost: 0,
            restarts: 0,
            batches,
            items,
        }
    }

    fn flush_telemetry(&self) {}
}

/// Splits `total` items into `chunks` contiguous ranges, balanced to
/// within one item — the deterministic item→worker placement both the
/// subprocess backend and its tests rely on.
pub(crate) fn chunk_bounds(total: usize, chunks: usize) -> Vec<(usize, usize)> {
    let chunks = chunks.max(1);
    (0..chunks)
        .map(|c| (c * total / chunks, (c + 1) * total / chunks))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Builds an [`ExecStats`] for a backend batch from per-chunk item
/// counts and wall time: the per-item latency histogram is approximated
/// by the chunk average (telemetry only — never a correctness input).
pub(crate) fn batch_stats(
    wall_nanos: u64,
    per_worker: Vec<usize>,
    worker_deaths: usize,
) -> ExecStats {
    let mut histogram = LatencyHistogram::new();
    histogram.record_mean(wall_nanos, per_worker.iter().sum());
    ExecStats {
        wall_nanos,
        per_worker,
        histogram,
        worker_deaths,
    }
}

pub(crate) fn duration_nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A vocabulary of arithmetic contexts: `add <k>` maps item `n` to
    /// `n + k`, and `fail` items report per-item errors.
    #[derive(Debug)]
    pub(crate) struct ArithVocab;

    struct Adder(i64);

    impl ItemEval for Adder {
        fn eval(&self, item: &str) -> Result<String, String> {
            let n: i64 = item.parse().map_err(|_| format!("bad item {item:?}"))?;
            Ok((n + self.0).to_string())
        }
    }

    impl EvalVocab for ArithVocab {
        fn resolve(&self, context: &str) -> Result<Arc<dyn ItemEval>, String> {
            match context.strip_prefix("add ") {
                Some(k) => Ok(Arc::new(Adder(
                    k.parse().map_err(|_| format!("bad addend {k:?}"))?,
                ))),
                None => Err(format!("unknown context {context:?}")),
            }
        }
    }

    #[test]
    fn thread_backend_fills_slots_in_item_order() {
        let backend = ThreadBackend::new(ExecPool::new(4), Arc::new(ArithVocab));
        let items: Vec<String> = (0..50).map(|n| n.to_string()).collect();
        let batch = backend.evaluate_encoded("add 10", &items).unwrap();
        for (i, out) in batch.outputs.iter().enumerate() {
            assert_eq!(out.as_deref(), Ok((i + 10).to_string().as_str()));
        }
        assert_eq!(batch.stats.per_worker.iter().sum::<usize>(), 50);
        let health = backend.health();
        assert_eq!(health.batches, 1);
        assert_eq!(health.items, 50);
        assert_eq!(health.lost, 0);
        assert_eq!(backend.name(), "threads");
    }

    #[test]
    fn item_failures_are_slots_not_batch_errors() {
        let backend = ThreadBackend::new(ExecPool::new(2), Arc::new(ArithVocab));
        let items = vec!["1".to_owned(), "oops".to_owned(), "3".to_owned()];
        let batch = backend.evaluate_encoded("add 1", &items).unwrap();
        assert_eq!(batch.outputs[0].as_deref(), Ok("2"));
        assert!(batch.outputs[1].is_err(), "bad item is an Err slot");
        assert_eq!(batch.outputs[2].as_deref(), Ok("4"));
        // An unresolvable context, by contrast, is a whole-batch error.
        assert!(backend.evaluate_encoded("mul 2", &items).is_err());
    }

    #[test]
    fn contexts_are_cached_per_backend() {
        #[derive(Debug)]
        struct Counting(Mutex<usize>);
        impl EvalVocab for Counting {
            fn resolve(&self, _: &str) -> Result<Arc<dyn ItemEval>, String> {
                *self.0.lock().unwrap() += 1;
                Ok(Arc::new(Adder(0)))
            }
        }
        let vocab = Arc::new(Counting(Mutex::new(0)));
        let backend = ThreadBackend::new(ExecPool::serial(), Arc::clone(&vocab) as _);
        let items = vec!["1".to_owned()];
        backend.evaluate_encoded("a", &items).unwrap();
        backend.evaluate_encoded("a", &items).unwrap();
        backend.evaluate_encoded("b", &items).unwrap();
        assert_eq!(*vocab.0.lock().unwrap(), 2, "one resolve per context");
    }

    #[test]
    fn chunking_is_contiguous_and_balanced() {
        assert_eq!(chunk_bounds(10, 3), vec![(0, 3), (3, 6), (6, 10)]);
        assert_eq!(
            chunk_bounds(2, 4),
            vec![(0, 1), (1, 2)],
            "empty chunks dropped"
        );
        assert_eq!(chunk_bounds(0, 4), Vec::<(usize, usize)>::new());
        assert_eq!(chunk_bounds(5, 1), vec![(0, 5)]);
        // Covers every index exactly once, in order.
        let bounds = chunk_bounds(1000, 7);
        let mut next = 0;
        for (lo, hi) in bounds {
            assert_eq!(lo, next);
            next = hi;
        }
        assert_eq!(next, 1000);
    }
}
