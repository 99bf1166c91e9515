//! `clre-exec` — deterministic parallel evaluation engine with built-in
//! run telemetry.
//!
//! The system-level DSE spends nearly all wall-clock in per-generation
//! offspring evaluation (Markov-chain solves plus schedule/QoS evaluation
//! per candidate), yet the MOEAs are generational: each generation is an
//! embarrassingly parallel batch of independent fitness evaluations whose
//! *results* must be consumed in a fixed order to keep runs reproducible.
//! This crate provides exactly that shape, on `std` alone (the build
//! environment vendors its few external dependencies, so no thread-pool
//! crate is assumed):
//!
//! * [`ExecPool`] — a fixed worker count plus
//!   [`ExecPool::evaluate_batch`]: the calling thread works as worker 0
//!   beside `workers − 1` scoped threads (`std::thread::scope`); workers
//!   claim contiguous pieces of the items off a shared queue and write
//!   each result in place into its item's pre-sized slot, so the output
//!   is **bit-identical to serial order** regardless of thread
//!   interleaving. [`ExecPool::evaluate_in_place`] is the same pass over
//!   several caller-owned output buffers at once (the tDSE library build
//!   keeps one per task type). One worker (or one item) short-circuits
//!   to a plain serial loop.
//! * [`Executor`] — an [`ExecPool`] bundled with a phase label and an
//!   optional [`TelemetrySink`]; the MOEA layer calls
//!   [`Executor::evaluate_batch`] once per generation and the executor
//!   times the batch, tallies per-worker candidate counts and a
//!   log-spaced evaluation-latency histogram, and appends one
//!   [`GenerationTrace`] record to the sink.
//! * [`EvalBackend`] — the one evaluation API from threads to
//!   processes: batches of opaque encoded items evaluated into pre-sized
//!   indexed slots, with worker health and telemetry reporting.
//!   [`ThreadBackend`] wraps the in-process pool; [`SubprocessBackend`]
//!   supervises a pool of `clre-exec-worker` children speaking the
//!   length-prefixed [`wire`] protocol (`exec-wire v1`), with the
//!   [`worker`] module providing the reusable child-side loop. The
//!   backend choice never changes results — only where they are
//!   computed.
//! * [`RunTelemetry`] — the observability layer: per-phase wall time,
//!   per-worker counts, latency [`LatencyHistogram`]s,
//!   quarantine/degraded-mode counters fed from the resilient runtime,
//!   and a machine-readable one-line-per-generation trace
//!   ([`RunTelemetry::trace`]) that `clre-bench` writes next to its
//!   reports.
//!
//! Determinism is the engine's core invariant: the *values* returned by
//! [`ExecPool::evaluate_batch`] depend only on the items and the
//! evaluation function, never on the worker count or scheduling. The
//! telemetry (timings, per-worker counts) is the only thing that varies
//! between runs, and it is kept strictly out of the result path.
//!
//! # Examples
//!
//! ```
//! use clre_exec::{ExecPool, Executor, RunTelemetry};
//!
//! let items: Vec<u64> = (0..100).collect();
//! let square = |x: &u64| x * x;
//!
//! // Results are bit-identical to the serial order for any worker count.
//! let (serial, _) = ExecPool::serial().evaluate_batch(&items, square);
//! let (parallel, stats) = ExecPool::new(4).evaluate_batch(&items, square);
//! assert_eq!(serial, parallel);
//! assert_eq!(stats.per_worker.iter().sum::<usize>(), items.len());
//!
//! // The Executor adds telemetry: one trace record per batch.
//! let sink = RunTelemetry::sink();
//! let exec = Executor::new(ExecPool::new(2))
//!     .with_label("demo")
//!     .with_telemetry(sink.clone());
//! let doubled = exec.evaluate_batch(0, &items, |x| 2 * x);
//! assert_eq!(doubled[99], 198);
//! let telemetry = sink.lock().unwrap();
//! assert_eq!(telemetry.records().len(), 1);
//! assert!(telemetry.trace().starts_with("trace-v1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod gate;
mod histogram;
mod pool;
mod subprocess;
mod telemetry;
pub mod wire;
pub mod worker;

pub use backend::{
    BackendError, BackendHealth, EncodedBatch, EvalBackend, EvalVocab, ItemEval, ThreadBackend,
};
pub use gate::{FairGate, Turn};
pub use histogram::LatencyHistogram;
pub use pool::{DeathPlan, ExecPool, ExecStats};
pub use subprocess::{SubprocessBackend, WORKER_PATH_ENV};
pub use telemetry::{Executor, GenerationTrace, RunTelemetry, TelemetrySink};
