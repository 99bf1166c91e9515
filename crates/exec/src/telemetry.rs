//! Run telemetry: per-generation trace records and the [`Executor`] that
//! produces them.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::backend::EvalBackend;
use crate::gate::FairGate;
use crate::histogram::LatencyHistogram;
use crate::pool::{ExecPool, ExecStats};

/// Shared handle to a [`RunTelemetry`], passed into an [`Executor`] and
/// read back by the driver after (or during) the run.
pub type TelemetrySink = Arc<Mutex<RunTelemetry>>;

/// One evaluation batch (one MOEA generation, or the initial-population
/// evaluation as step 0) as recorded by an [`Executor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationTrace {
    /// Phase label of the executor that ran the batch (e.g.
    /// `"proposed/fc-stage"`).
    pub phase: String,
    /// Step index within the phase: 0 for the initial population, then
    /// the generation number.
    pub step: usize,
    /// Number of candidates evaluated.
    pub batch: usize,
    /// Wall-clock nanoseconds spent on the batch.
    pub wall_nanos: u64,
    /// Configured worker count of the pool.
    pub workers: usize,
    /// Candidates evaluated per worker (length = workers spawned).
    pub per_worker: Vec<usize>,
    /// Per-evaluation latency histogram of the batch.
    pub histogram: LatencyHistogram,
    /// Cumulative quarantined-candidate count at the end of this batch,
    /// as reported by the resilient runtime (0 when unsupervised).
    pub quarantined: usize,
    /// Cumulative degraded-mode analysis count at the end of this batch
    /// (0 when unsupervised).
    pub degraded: usize,
    /// Cumulative fitness-cache hits at the end of this batch (0 when no
    /// evaluation cache is attached).
    pub cache_hits: u64,
    /// Cumulative fitness-cache misses at the end of this batch.
    pub cache_misses: u64,
    /// Microseconds the driving thread spent in the selection kernels
    /// (non-dominated sort, crowding/density, truncation) for the
    /// generation this batch belongs to (0 when the MOEA layer does not
    /// report it, e.g. for the initial-population batch).
    pub selection_us: u64,
    /// Cumulative deadline-timeout count at the end of this batch, as
    /// reported by the resilient runtime (0 when unsupervised).
    pub timeouts: usize,
    /// Cumulative milliseconds of deterministic retry backoff slept.
    pub backoff_ms: u64,
    /// Cumulative injected-fault count (0 outside chaos runs).
    pub injected: usize,
    /// Cumulative recovered-evaluation count (failed at least once, then
    /// succeeded on a retry).
    pub recovered: usize,
    /// Workers lost (and recovered from) in this batch alone — per-batch,
    /// straight from [`ExecStats::worker_deaths`], unlike the cumulative
    /// counters above.
    pub worker_deaths: usize,
    /// Microseconds of `selection_us` spent ranking/fitness-sorting
    /// (SPEA2 fitness, NSGA-II rank-and-crowd). Trailing trace-v1 token;
    /// 0 when the MOEA layer does not report a split.
    pub sort_us: u64,
    /// Microseconds of `selection_us` spent in environmental truncation.
    pub truncate_us: u64,
    /// Microseconds of `selection_us` spent building/updating/compacting
    /// the pairwise distance matrix (0 for NSGA-II).
    pub dist_us: u64,
}

impl GenerationTrace {
    /// The machine-readable one-line form of this record.
    ///
    /// Format (space-separated `key=value`, `|`-separated lists):
    ///
    /// ```text
    /// trace-v1 phase=<label> step=<n> batch=<n> eval_us=<n> workers=<n> \
    ///     per_worker=<c0|c1|…> hist=<b0|b1|…> quarantined=<n> degraded=<n> \
    ///     cache_hits=<n> cache_misses=<n> selection_us=<n> timeouts=<n> \
    ///     backoff_ms=<n> injected=<n> recovered=<n> worker_deaths=<n> \
    ///     sort_us=<n> truncate_us=<n> dist_us=<n>
    /// ```
    ///
    /// `sort_us`/`truncate_us`/`dist_us` — the `selection_us` split — are
    /// trailing tokens appended after the original trace-v1 fields, so
    /// parsers written before they existed keep working unchanged.
    pub fn line(&self) -> String {
        let per_worker = if self.per_worker.is_empty() {
            "-".to_owned()
        } else {
            self.per_worker
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join("|")
        };
        format!(
            "trace-v1 phase={} step={} batch={} eval_us={} workers={} per_worker={} hist={} quarantined={} degraded={} cache_hits={} cache_misses={} selection_us={} timeouts={} backoff_ms={} injected={} recovered={} worker_deaths={} sort_us={} truncate_us={} dist_us={}",
            self.phase,
            self.step,
            self.batch,
            self.wall_nanos / 1_000,
            self.workers,
            per_worker,
            self.histogram.compact(),
            self.quarantined,
            self.degraded,
            self.cache_hits,
            self.cache_misses,
            self.selection_us,
            self.timeouts,
            self.backoff_ms,
            self.injected,
            self.recovered,
            self.worker_deaths,
            self.sort_us,
            self.truncate_us,
            self.dist_us,
        )
    }
}

/// The run-level telemetry accumulator: an append-only list of
/// [`GenerationTrace`] records plus run totals.
///
/// Create one with [`RunTelemetry::sink`], attach the sink to every
/// [`Executor`] involved in the run, and read the trace back when done.
/// Telemetry never influences results: a run with and without a sink is
/// bit-identical.
///
/// For live consumers (a trace file tailed mid-run, a server streaming
/// generations over a socket) attach a line stream with
/// [`RunTelemetry::stream_to`]: every [`RunTelemetry::flush_pending`]
/// call writes the not-yet-streamed records as finalized `trace-v1` lines
/// and flushes the writer, so a line is visible the moment its generation
/// (and its post-batch annotations) completes — never parked in a buffer
/// until run end.
#[derive(Default)]
pub struct RunTelemetry {
    records: Vec<GenerationTrace>,
    /// Per-generation line stream; `None` keeps the store purely
    /// in-memory.
    stream: Option<Box<dyn io::Write + Send>>,
    /// Records already written to the stream (`records[..streamed]`).
    streamed: usize,
}

impl std::fmt::Debug for RunTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunTelemetry")
            .field("records", &self.records)
            .field("streaming", &self.stream.is_some())
            .field("streamed", &self.streamed)
            .finish()
    }
}

impl Clone for RunTelemetry {
    /// Clones the records only: a line stream is an exclusive I/O
    /// resource and stays with the original.
    fn clone(&self) -> Self {
        RunTelemetry {
            records: self.records.clone(),
            stream: None,
            streamed: 0,
        }
    }
}

impl PartialEq for RunTelemetry {
    /// Telemetry equality is record equality; the stream is plumbing.
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

impl Eq for RunTelemetry {}

impl RunTelemetry {
    /// An empty telemetry store.
    pub fn new() -> Self {
        RunTelemetry::default()
    }

    /// An empty telemetry store behind a shared sink handle.
    pub fn sink() -> TelemetrySink {
        Arc::new(Mutex::new(RunTelemetry::new()))
    }

    /// Appends a record.
    pub fn record(&mut self, record: GenerationTrace) {
        self.records.push(record);
    }

    /// Updates the newest record's cumulative quarantine/degraded-mode
    /// counters (the resilient runtime learns them only after the batch
    /// returns). No-op on an empty store.
    fn annotate_last(&mut self, quarantined: usize, degraded: usize) {
        if let Some(last) = self.records.last_mut() {
            last.quarantined = quarantined;
            last.degraded = degraded;
        }
    }

    /// Updates the newest record's cumulative evaluation-cache counters
    /// (stamped after the batch, like [`RunTelemetry::annotate_last`]).
    /// No-op on an empty store.
    fn annotate_cache_last(&mut self, hits: u64, misses: u64) {
        if let Some(last) = self.records.last_mut() {
            last.cache_hits = hits;
            last.cache_misses = misses;
        }
    }

    /// Updates the newest record's selection-kernel timing and its
    /// sort/truncate/distance split (the MOEA layer measures them on the
    /// driving thread and reports them after the generation's batch is
    /// recorded). No-op on an empty store.
    fn annotate_selection_split_last(
        &mut self,
        total_us: u64,
        sort_us: u64,
        truncate_us: u64,
        dist_us: u64,
    ) {
        if let Some(last) = self.records.last_mut() {
            last.selection_us = total_us;
            last.sort_us = sort_us;
            last.truncate_us = truncate_us;
            last.dist_us = dist_us;
        }
    }

    /// Updates the newest record's cumulative fault/recovery counters
    /// (stamped after the batch, like the other annotations). No-op on an
    /// empty store.
    fn annotate_faults_last(
        &mut self,
        timeouts: usize,
        backoff_ms: u64,
        injected: usize,
        recovered: usize,
    ) {
        if let Some(last) = self.records.last_mut() {
            last.timeouts = timeouts;
            last.backoff_ms = backoff_ms;
            last.injected = injected;
            last.recovered = recovered;
        }
    }

    /// Attaches a live line stream: every [`RunTelemetry::flush_pending`]
    /// writes the records finalized since the last flush as `trace-v1`
    /// lines and flushes the writer. Records appended before this call
    /// are considered already consumed (an attach mid-run streams the
    /// future, not the past — the past is in [`RunTelemetry::records`]).
    pub fn stream_to(&mut self, writer: Box<dyn io::Write + Send>) {
        self.streamed = self.records.len();
        self.stream = Some(writer);
    }

    /// Writes every not-yet-streamed record to the attached stream as one
    /// `trace-v1` line each and flushes the writer — the per-generation
    /// flush that keeps a socket or tailed file live. No-op without a
    /// stream. A write failure detaches the stream (the consumer hung
    /// up); telemetry accumulation continues unaffected.
    pub fn flush_pending(&mut self) {
        let Some(writer) = self.stream.as_mut() else {
            return;
        };
        let mut ok = true;
        while self.streamed < self.records.len() {
            let line = self.records[self.streamed].line();
            if writeln!(writer, "{line}").is_err() {
                ok = false;
                break;
            }
            self.streamed += 1;
        }
        if ok {
            ok = writer.flush().is_ok();
        }
        if !ok {
            self.stream = None;
        }
    }

    /// Whether a live line stream is currently attached.
    pub fn is_streaming(&self) -> bool {
        self.stream.is_some()
    }

    /// All records, in execution order.
    pub fn records(&self) -> &[GenerationTrace] {
        &self.records
    }

    /// Total candidates evaluated across all records.
    pub fn total_evaluations(&self) -> usize {
        self.records.iter().map(|r| r.batch).sum()
    }

    /// Total wall-clock nanoseconds spent evaluating, summed over
    /// batches.
    fn total_wall_nanos(&self) -> u64 {
        self.records.iter().map(|r| r.wall_nanos).sum()
    }

    /// The machine-readable trace: one line per record plus a trailing
    /// `totals` line.
    pub fn trace(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let _ = writeln!(out, "{}", r.line());
        }
        let _ = writeln!(
            out,
            "trace-v1 totals records={} evaluations={} eval_us={}",
            self.records.len(),
            self.total_evaluations(),
            self.total_wall_nanos() / 1_000,
        );
        out
    }

    /// Writes [`RunTelemetry::trace`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.trace())
    }
}

/// An [`ExecPool`] bound to a phase label and an optional
/// [`TelemetrySink`] — the handle the MOEA layer drives batches through.
///
/// Cloning is cheap (the sink is shared); [`Executor::with_label`]
/// re-labels a clone so one run-wide executor can be specialized per
/// stage.
#[derive(Debug, Clone)]
pub struct Executor {
    pool: ExecPool,
    label: String,
    sink: Option<TelemetrySink>,
    gate: Option<(Arc<FairGate>, u64)>,
    backend: Option<Arc<dyn EvalBackend>>,
}

impl Executor {
    /// A serial executor with no telemetry — the default everywhere an
    /// executor is optional.
    pub fn serial() -> Self {
        Executor::new(ExecPool::serial())
    }

    /// An executor over the given pool, unlabeled and without telemetry.
    pub fn new(pool: ExecPool) -> Self {
        Executor {
            pool,
            label: String::new(),
            sink: None,
            gate: None,
            backend: None,
        }
    }

    /// Sets the phase label stamped on every trace record (builder
    /// style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Attaches a telemetry sink (builder style).
    #[must_use]
    pub fn with_telemetry(mut self, sink: TelemetrySink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches a [`FairGate`] turn `ticket` (builder style): every batch
    /// this executor evaluates first acquires the gate, so concurrent
    /// campaigns sharing one worker budget interleave fairly at
    /// generation granularity. Scheduling only — results are identical
    /// with and without a gate.
    #[must_use]
    pub fn with_gate(mut self, gate: Arc<FairGate>, ticket: u64) -> Self {
        self.gate = Some((gate, ticket));
        self
    }

    /// Attaches an [`EvalBackend`] (builder style): callers that can
    /// express their evaluation as encoded strings route batches through
    /// [`Executor::evaluate_encoded`], which runs them on this backend —
    /// threads or subprocesses, same results — instead of the in-process
    /// pool. Callers that cannot keep using [`Executor::evaluate_batch`].
    #[must_use]
    pub fn with_eval_backend(mut self, backend: Arc<dyn EvalBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The attached evaluation backend, if any.
    pub fn eval_backend(&self) -> Option<&Arc<dyn EvalBackend>> {
        self.backend.as_ref()
    }

    /// Evaluates one encoded batch on the attached [`EvalBackend`],
    /// recording a [`GenerationTrace`] and honoring the fair-share gate
    /// exactly like [`Executor::evaluate_batch`].
    ///
    /// Returns `None` when no backend is attached or the backend fails
    /// the whole batch (e.g. the context does not resolve remotely) —
    /// the caller falls back to in-process evaluation, which keeps
    /// results identical either way. Per-item `Err` slots are returned
    /// as-is for per-item fallback.
    pub fn evaluate_encoded(
        &self,
        step: usize,
        context: &str,
        items: &[String],
    ) -> Option<Vec<Result<String, String>>> {
        let backend = self.backend.as_ref()?;
        let batch = match &self.gate {
            Some((gate, ticket)) => {
                let _turn = gate.acquire(*ticket);
                backend.evaluate_encoded(context, items)
            }
            None => backend.evaluate_encoded(context, items),
        };
        let batch = batch.ok()?;
        self.record(step, items.len(), batch.stats);
        Some(batch.outputs)
    }

    /// The underlying pool.
    pub fn pool(&self) -> ExecPool {
        self.pool
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The phase label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&TelemetrySink> {
        self.sink.as_ref()
    }

    /// Evaluates one batch through the pool and appends a
    /// [`GenerationTrace`] record (phase = this executor's label,
    /// step = `step`) to the sink, if one is attached.
    ///
    /// Results are bit-identical to serial order for any worker count;
    /// see [`ExecPool::evaluate_batch`].
    pub fn evaluate_batch<T, R, F>(&self, step: usize, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let (results, stats) = match &self.gate {
            Some((gate, ticket)) => {
                let _turn = gate.acquire(*ticket);
                self.pool.evaluate_batch(items, f)
            }
            None => self.pool.evaluate_batch(items, f),
        };
        self.record(step, items.len(), stats);
        results
    }

    /// Flushes the sink's not-yet-streamed trace lines to its attached
    /// line stream (see [`RunTelemetry::flush_pending`]); no-op without a
    /// sink or stream. The supervised campaign loop calls this once per
    /// generation, after the post-batch annotations are stamped, so live
    /// consumers see each generation as it completes.
    pub fn flush_trace(&self) {
        if let Some(backend) = &self.backend {
            backend.flush_telemetry();
        }
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("telemetry sink poisoned")
                .flush_pending();
        }
    }

    /// Updates the newest trace record's quarantine/degraded counters;
    /// no-op without a sink.
    pub fn annotate_health(&self, quarantined: usize, degraded: usize) {
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("telemetry sink poisoned")
                .annotate_last(quarantined, degraded);
        }
    }

    /// Updates the newest trace record's cumulative evaluation-cache
    /// counters; no-op without a sink.
    pub fn annotate_cache(&self, hits: u64, misses: u64) {
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("telemetry sink poisoned")
                .annotate_cache_last(hits, misses);
        }
    }

    /// Updates the newest trace record's selection timing plus its
    /// sort/truncate/distance split; no-op without a sink.
    pub fn annotate_selection_split(
        &self,
        total_us: u64,
        sort_us: u64,
        truncate_us: u64,
        dist_us: u64,
    ) {
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("telemetry sink poisoned")
                .annotate_selection_split_last(total_us, sort_us, truncate_us, dist_us);
        }
    }

    /// Updates the newest trace record's cumulative fault/recovery
    /// counters; no-op without a sink.
    pub fn annotate_faults(
        &self,
        timeouts: usize,
        backoff_ms: u64,
        injected: usize,
        recovered: usize,
    ) {
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("telemetry sink poisoned")
                .annotate_faults_last(timeouts, backoff_ms, injected, recovered);
        }
    }

    fn record(&self, step: usize, batch: usize, stats: ExecStats) {
        let Some(sink) = &self.sink else { return };
        sink.lock()
            .expect("telemetry sink poisoned")
            .record(GenerationTrace {
                phase: self.label.clone(),
                step,
                batch,
                wall_nanos: stats.wall_nanos,
                workers: self.pool.workers(),
                per_worker: stats.per_worker,
                histogram: stats.histogram,
                quarantined: 0,
                degraded: 0,
                cache_hits: 0,
                cache_misses: 0,
                selection_us: 0,
                timeouts: 0,
                backoff_ms: 0,
                injected: 0,
                recovered: 0,
                worker_deaths: stats.worker_deaths,
                sort_us: 0,
                truncate_us: 0,
                dist_us: 0,
            });
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executor_records_one_trace_per_batch() {
        let sink = RunTelemetry::sink();
        let exec = Executor::new(ExecPool::new(2))
            .with_label("stage-a")
            .with_telemetry(sink.clone());
        let items: Vec<u32> = (0..10).collect();
        let out = exec.evaluate_batch(0, &items, |x| x + 1);
        assert_eq!(out[9], 10);
        let _ = exec.evaluate_batch(1, &items, |x| x * 2);
        exec.annotate_health(3, 7);
        exec.annotate_cache(40, 12);
        exec.annotate_selection_split(55, 30, 20, 5);
        exec.annotate_faults(2, 9, 5, 4);

        let t = sink.lock().unwrap();
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.total_evaluations(), 20);
        assert_eq!(t.records()[0].phase, "stage-a");
        assert_eq!(t.records()[0].step, 0);
        assert_eq!(t.records()[0].quarantined, 0);
        assert_eq!(t.records()[1].quarantined, 3);
        assert_eq!(t.records()[1].degraded, 7);
        assert_eq!(t.records()[0].cache_hits, 0);
        assert_eq!(t.records()[1].cache_hits, 40);
        assert_eq!(t.records()[1].cache_misses, 12);
        assert_eq!(t.records()[0].selection_us, 0);
        assert_eq!(t.records()[1].selection_us, 55);
        assert_eq!(t.records()[1].dist_us, 5);
        assert_eq!(t.records()[0].timeouts, 0);
        assert_eq!(t.records()[1].timeouts, 2);
        assert_eq!(t.records()[1].backoff_ms, 9);
        assert_eq!(t.records()[1].injected, 5);
        assert_eq!(t.records()[1].recovered, 4);
        assert_eq!(t.records()[1].worker_deaths, 0);
    }

    #[test]
    fn trace_lines_are_machine_readable() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        let rec = GenerationTrace {
            phase: "pfCLR".into(),
            step: 12,
            batch: 32,
            wall_nanos: 5_250_000,
            workers: 4,
            per_worker: vec![8, 9, 8, 7],
            histogram: h,
            quarantined: 1,
            degraded: 2,
            cache_hits: 20,
            cache_misses: 12,
            selection_us: 830,
            timeouts: 3,
            backoff_ms: 41,
            injected: 6,
            recovered: 5,
            worker_deaths: 1,
            sort_us: 500,
            truncate_us: 200,
            dist_us: 90,
        };
        assert_eq!(
            rec.line(),
            "trace-v1 phase=pfCLR step=12 batch=32 eval_us=5250 workers=4 \
             per_worker=8|9|8|7 hist=1 quarantined=1 degraded=2 \
             cache_hits=20 cache_misses=12 selection_us=830 timeouts=3 \
             backoff_ms=41 injected=6 recovered=5 worker_deaths=1 \
             sort_us=500 truncate_us=200 dist_us=90"
        );
        let mut t = RunTelemetry::new();
        t.record(rec);
        let trace = t.trace();
        assert_eq!(trace.lines().count(), 2, "one record + totals");
        assert!(trace.ends_with("evaluations=32 eval_us=5250\n"));
    }

    #[test]
    fn selection_split_annotation_stamps_trailing_tokens() {
        let sink = RunTelemetry::sink();
        let exec = Executor::new(ExecPool::serial())
            .with_label("s")
            .with_telemetry(sink.clone());
        let _ = exec.evaluate_batch(1, &[1u8], |x| *x);
        exec.annotate_selection_split(830, 500, 200, 90);
        let t = sink.lock().unwrap();
        let r = &t.records()[0];
        assert_eq!(
            (r.selection_us, r.sort_us, r.truncate_us, r.dist_us),
            (830, 500, 200, 90)
        );
        assert!(r.line().ends_with("sort_us=500 truncate_us=200 dist_us=90"));
    }

    #[test]
    fn telemetry_without_sink_is_a_noop() {
        let exec = Executor::serial().with_label("x");
        let out = exec.evaluate_batch(0, &[1u8, 2, 3], |x| x * 3);
        assert_eq!(out, vec![3, 6, 9]);
        exec.annotate_health(9, 9);
        exec.annotate_cache(9, 9);
        exec.annotate_selection_split(9, 9, 9, 9);
        assert!(exec.telemetry().is_none());
    }

    #[test]
    fn flush_pending_streams_finalized_lines_per_generation() {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl io::Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Shared(Arc::new(Mutex::new(Vec::new())));
        let sink = RunTelemetry::sink();
        sink.lock().unwrap().stream_to(Box::new(buf.clone()));
        let exec = Executor::new(ExecPool::serial())
            .with_label("live")
            .with_telemetry(sink.clone());

        let _ = exec.evaluate_batch(0, &[1u8, 2], |x| *x);
        exec.annotate_health(1, 0);
        assert!(buf.0.lock().unwrap().is_empty(), "nothing until flush");
        exec.flush_trace();
        let first = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(first.lines().count(), 1, "one finalized line");
        assert!(first.contains("step=0"));
        assert!(
            first.contains("quarantined=1"),
            "annotations stamped before the flush are in the streamed line"
        );

        let _ = exec.evaluate_batch(1, &[3u8], |x| *x);
        exec.flush_trace();
        exec.flush_trace(); // idempotent: nothing new to stream
        let both = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(both.lines().count(), 2);
        assert!(sink.lock().unwrap().is_streaming());
    }

    #[test]
    fn broken_stream_detaches_without_poisoning_telemetry() {
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut t = RunTelemetry::new();
        t.stream_to(Box::new(Broken));
        let mut h = LatencyHistogram::new();
        h.record(1);
        t.record(GenerationTrace {
            phase: "x".into(),
            step: 0,
            batch: 1,
            wall_nanos: 1,
            workers: 1,
            per_worker: vec![1],
            histogram: h,
            quarantined: 0,
            degraded: 0,
            cache_hits: 0,
            cache_misses: 0,
            selection_us: 0,
            timeouts: 0,
            backoff_ms: 0,
            injected: 0,
            recovered: 0,
            worker_deaths: 0,
            sort_us: 0,
            truncate_us: 0,
            dist_us: 0,
        });
        t.flush_pending();
        assert!(!t.is_streaming(), "dead consumer detached");
        assert_eq!(t.records().len(), 1, "records unaffected");
    }

    #[test]
    fn write_trace_roundtrips_through_disk() {
        let sink = RunTelemetry::sink();
        let exec = Executor::new(ExecPool::serial())
            .with_label("io")
            .with_telemetry(sink.clone());
        let _ = exec.evaluate_batch(0, &[1u32], |x| *x);
        let path = std::env::temp_dir().join(format!("clre-exec-trace-{}.txt", std::process::id()));
        sink.lock().unwrap().write_trace(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("trace-v1 phase=io step=0 batch=1"));
        assert!(text.contains("trace-v1 totals records=1 evaluations=1"));
        std::fs::remove_file(&path).unwrap();
    }
}
