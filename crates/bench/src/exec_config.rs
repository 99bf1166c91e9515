//! Typed execution configuration for the experiment harness.
//!
//! The experiment functions share the signature `fn(RunScale,
//! &ExecConfig) -> String` so the `experiments` binary, the integration
//! tests and the Criterion benches can drive them interchangeably.
//! Worker count, telemetry, the evaluation cache and the evaluation
//! backend travel through an explicit [`ExecConfig`] value built once at
//! startup — there is no process-global configuration state, so two
//! configs in one process (e.g. parallel tests) never interfere.
//!
//! Parallelism and backend placement never change results — the engine
//! merges worker output in submission order (see `clre-exec`) — so
//! experiments stay bit-reproducible no matter how a config is set.
//!
//! [`ClrEarly`]: clre::methodology::ClrEarly

use std::sync::Arc;

use clre::methodology::ClrEarly;
use clre::remote::BackendChoice;
use clre::{AppSpec, EvalCache, Scenario};
use clre_exec::{BackendHealth, EvalBackend, ExecPool, Executor, RunTelemetry, TelemetrySink};

/// Execution settings for one experiment run, passed explicitly to every
/// experiment function. The default is serial ("auto" workers), no
/// telemetry, no cache, in-process evaluation.
#[derive(Clone, Default)]
pub struct ExecConfig {
    /// Configured worker count; 0 means "auto" (available parallelism).
    workers: usize,
    trace: Option<TelemetrySink>,
    cache: Option<Arc<EvalCache>>,
    backend: Option<Arc<dyn EvalBackend>>,
    backend_name: Option<&'static str>,
}

impl std::fmt::Debug for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecConfig")
            .field("workers", &self.workers)
            .field("trace", &self.trace.is_some())
            .field("cache", &self.cache.is_some())
            .field("backend", &self.backend_name())
            .finish()
    }
}

impl ExecConfig {
    /// The default configuration: auto workers, no trace, no cache,
    /// in-process evaluation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count for every executor this config builds.
    /// Zero restores the default (available parallelism). Call this
    /// *before* [`with_backend`](Self::with_backend): the backend's
    /// worker pool is sized when it is built.
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Installs a fresh telemetry sink fed by every executor this config
    /// builds, so one sink collects the trace across all stages of an
    /// experiment. Retrieve it with [`trace`](Self::trace).
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(RunTelemetry::sink());
        self
    }

    /// Attaches an evaluation cache shared by every driver passed
    /// through [`apply`](Self::apply), so task analyses and genome
    /// fitness memoize across the cells of a sweep. Cached and uncached
    /// runs are bit-identical; only the wall clock and the hit/miss
    /// telemetry differ.
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Selects the evaluation backend (threads or `clre-exec-worker`
    /// subprocesses; [`BackendChoice::InProcess`] clears it). The
    /// backend's pool is sized from the current worker count, so call
    /// [`with_workers`](Self::with_workers) first. Fails when a
    /// subprocess backend cannot locate its worker binary.
    pub fn with_backend(mut self, choice: &BackendChoice) -> Result<Self, String> {
        self.backend = choice.build(self.workers())?;
        self.backend_name = Some(choice.name());
        Ok(self)
    }

    /// The effective worker count: the configured value, or the
    /// machine's available parallelism when unconfigured.
    pub fn workers(&self) -> usize {
        match self.workers {
            0 => ExecPool::auto().workers(),
            n => n,
        }
    }

    /// The telemetry sink installed by [`with_trace`](Self::with_trace),
    /// if any.
    pub fn trace(&self) -> Option<&TelemetrySink> {
        self.trace.as_ref()
    }

    /// The evaluation cache installed by [`with_cache`](Self::with_cache),
    /// if any.
    pub fn cache(&self) -> Option<&Arc<EvalCache>> {
        self.cache.as_ref()
    }

    /// The selected backend's name (`inprocess` when none is attached).
    fn backend_name(&self) -> &'static str {
        self.backend_name
            .unwrap_or_else(|| BackendChoice::InProcess.name())
    }

    /// Live worker-health counters of the attached backend, if any —
    /// the honesty check benchmarks use to prove a subprocess backend
    /// actually evaluated items rather than silently falling back.
    pub fn backend_health(&self) -> Option<BackendHealth> {
        self.backend.as_ref().map(|b| b.health())
    }

    /// An [`Executor`] honoring this config: worker pool, telemetry and
    /// evaluation backend. Stage labels are applied downstream by the
    /// methodology driver.
    pub fn executor(&self) -> Executor {
        let mut exec = Executor::new(ExecPool::new(self.workers()));
        if let Some(sink) = &self.trace {
            exec = exec.with_telemetry(sink.clone());
        }
        if let Some(backend) = &self.backend {
            exec = exec.with_eval_backend(Arc::clone(backend));
        }
        exec
    }

    /// Applies every setting to a freshly built driver: the executor
    /// (worker pool, telemetry, backend) and the evaluation cache when
    /// one is attached. All experiments funnel their [`ClrEarly`]
    /// construction through this so `--workers`, `--trace`, `--cache`
    /// and `--backend` need no per-experiment plumbing.
    pub fn apply<'a>(&self, dse: ClrEarly<'a>) -> ClrEarly<'a> {
        let dse = dse.with_executor(self.executor());
        match &self.cache {
            Some(cache) => dse.with_cache(Arc::clone(cache)),
            None => dse,
        }
    }

    /// [`apply`](Self::apply) plus the remote evaluation context: what a
    /// backend needs to reconstruct the stage problem out-of-process.
    /// Required whenever a threads/subprocess backend is attached;
    /// harmless without one.
    pub fn apply_remote<'a>(
        &self,
        dse: ClrEarly<'a>,
        app: AppSpec,
        scenario: Scenario,
    ) -> ClrEarly<'a> {
        self.apply(dse).with_remote(app, scenario)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_flow_into_executors() {
        // Default: auto (≥ 1), no telemetry, no backend.
        let config = ExecConfig::new();
        assert!(config.workers() >= 1);
        assert!(config.executor().telemetry().is_none());
        assert_eq!(config.backend_name(), "inprocess");
        assert!(config.backend_health().is_none());

        let config = ExecConfig::new().with_workers(3);
        assert_eq!(config.executor().workers(), 3);

        let config = config.with_trace();
        let exec = config.executor();
        assert!(exec.telemetry().is_some());
        let _ = exec.evaluate_batch(0, &[1u8, 2, 3], |x| x + 1);
        let sink = config.trace().expect("sink installed");
        assert_eq!(sink.lock().unwrap().total_evaluations(), 3);

        assert!(ExecConfig::new().with_workers(0).workers() >= 1);
    }

    #[test]
    fn backend_choice_threads_attaches_a_backend() {
        let config = ExecConfig::new()
            .with_workers(2)
            .with_backend(&BackendChoice::Threads)
            .expect("thread backend builds");
        assert_eq!(config.backend_name(), "threads");
        let health = config.backend_health().expect("backend attached");
        assert_eq!(health.workers, 2);
        assert!(config.executor().eval_backend().is_some());

        // InProcess clears it again.
        let config = config
            .with_backend(&BackendChoice::InProcess)
            .expect("inprocess always builds");
        assert_eq!(config.backend_name(), "inprocess");
        assert!(config.backend_health().is_none());
    }

    #[test]
    fn two_configs_in_one_process_do_not_interfere() {
        // The point of killing the process-global settings: a traced
        // 3-worker config and the default config coexist.
        let traced = ExecConfig::new().with_workers(3).with_trace();
        let plain = ExecConfig::new().with_workers(1);
        assert!(plain.executor().telemetry().is_none());
        assert_eq!(plain.executor().workers(), 1);
        assert_eq!(traced.executor().workers(), 3);
        assert!(traced.executor().telemetry().is_some());
    }
}
