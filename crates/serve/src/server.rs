//! The resident campaign server.
//!
//! One [`Server`] owns: a TCP listener speaking `clre-wire v1`, the
//! campaign [`Registry`], one [`FairGate`] arbitrating every campaign's
//! evaluation batches over the host's worker budget, and one shared
//! [`EvalCache`] per platform label (persisted to a sidecar under the
//! server root, so restarts stay warm and tenants on the same problem
//! reuse each other's genome fitnesses).
//!
//! Lifecycle invariants:
//!
//! * **Admission** — a submission passes the per-tenant quota and the
//!   global concurrency ceiling or is rejected before any work starts.
//! * **One library per (application, scenario)** — the [`LibraryMemo`]
//!   builds it once, single-flight, and shares it by `Arc`; at most
//!   [`MEMO_PER_WORKER`] × workers libraries stay resident.
//! * **Determinism** — a campaign run through the server produces a
//!   front bit-identical to the same plan run in-process: the gate only
//!   schedules wall-clock, the pool merge is order-fixed, and the cache
//!   is content-addressed.
//! * **Graceful shutdown** — `SIGTERM` or a `shutdown` request raises
//!   one stop flag; every in-flight campaign checkpoints at its next
//!   generation boundary through the supervisor machinery and is
//!   *parked*. A restarted server on the same root resumes every parked
//!   campaign bit-identically, replays persisted trace history, and
//!   reports completed campaigns from their `done.txt`.
//! * **Client independence** — a dead client costs nothing: campaigns
//!   and their trace history are owned by the registry, and `attach`
//!   resumes streaming from any line index.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use clre::cache::{EvalCache, Fnv};
use clre::methodology::{ClrEarly, FrontResult};
use clre::remote::BackendChoice;
use clre::resilience::{RunOutcome, RunSupervisor, SupervisorConfig};
use clre::tdse::{build_library_with_health, TdseConfig};
use clre::Scenario;
use clre_exec::{ExecPool, Executor, FairGate, RunTelemetry};
use clre_model::{Platform, TaskGraph};

use crate::memo::LibraryMemo;
use crate::session::{
    format_cache_stats, Admission, CampaignEntry, CampaignOutcome, LogWriter, Registry, TraceLog,
};
use crate::wire::{read_frame, write_frame, AppSpec, DoneSummary, SubmitRequest, WIRE_VERSION};

/// How a [`Server`] is provisioned.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State directory: per-tenant campaign dirs, cache sidecars.
    pub root: PathBuf,
    /// Worker threads per evaluation batch (the host's worker budget —
    /// the fair gate runs one batch at a time across all campaigns).
    pub workers: usize,
    /// Admission policy.
    pub admission: Admission,
    /// In-memory trace-log ring per campaign, in lines (0 = unbounded).
    /// Older lines stay on disk in `trace.txt` and `attach from=n`
    /// replays them from there, so the cap bounds resident memory
    /// without truncating history.
    pub trace_ring: usize,
    /// Fitness entry ceiling per shared [`EvalCache`] (0 = unbounded);
    /// beyond it, least-recently-used entries are evicted and counted in
    /// the `stats` eviction telemetry.
    pub cache_ceiling: usize,
    /// Where campaign evaluation batches run. The choice never changes
    /// fronts (the determinism invariant above) — only where the work
    /// happens.
    pub backend: BackendChoice,
}

impl ServeConfig {
    /// Defaults: serial evaluation, 8 concurrent campaigns, 4 per
    /// tenant, a 4096-line trace ring, unbounded caches.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServeConfig {
            root: root.into(),
            workers: 1,
            admission: Admission {
                max_active: 8,
                max_per_tenant: 4,
            },
            trace_ring: 4096,
            cache_ceiling: 0,
            backend: BackendChoice::InProcess,
        }
    }

    /// Sets the per-batch worker count (builder style).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the global concurrent-campaign ceiling (builder style).
    #[must_use]
    pub fn with_max_active(mut self, max_active: usize) -> Self {
        self.admission.max_active = max_active;
        self
    }

    /// Sets the per-tenant concurrent-campaign quota (builder style).
    #[must_use]
    pub fn with_tenant_quota(mut self, max_per_tenant: usize) -> Self {
        self.admission.max_per_tenant = max_per_tenant;
        self
    }

    /// Sets the in-memory trace-ring cap in lines, 0 for unbounded
    /// (builder style).
    #[must_use]
    pub fn with_trace_ring(mut self, lines: usize) -> Self {
        self.trace_ring = lines;
        self
    }

    /// Sets the shared-cache entry ceiling, 0 for unbounded (builder
    /// style).
    #[must_use]
    pub fn with_cache_ceiling(mut self, entries: usize) -> Self {
        self.cache_ceiling = entries;
        self
    }

    /// Sets the evaluation backend (builder style).
    #[must_use]
    pub fn with_backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }
}

/// FNV-1a digest of a front's objective matrix, point order preserved —
/// the wire protocol's determinism fingerprint, shared by every bench
/// report so digests compare across tools.
pub fn front_digest(front: &FrontResult) -> u64 {
    let mut fnv = Fnv::new();
    for objectives in front.objectives() {
        for &x in &objectives {
            fnv.write_f64(x);
        }
    }
    fnv.finish()
}

/// Builds the platform/graph pair an [`AppSpec`] names.
///
/// # Errors
///
/// A human-readable description of the model-construction failure.
pub fn build_app(app: &AppSpec) -> Result<(Platform, TaskGraph), String> {
    app.build()
        .map_err(|e| format!("{} app: {e}", app.platform_label()))
}

/// Resident libraries per worker: the memo keeps at most this many ×
/// [`ServeConfig::workers`] entries.
pub const MEMO_PER_WORKER: usize = 2;

/// The [`LibraryMemo`] key of an (application, scenario) pair: their
/// wire encodings.
///
/// The key may omit the tDSE configuration because the server's is
/// always `scenario.apply_to(TdseConfig::default())`: the library is a
/// pure function of the pair.
fn library_key(app: &AppSpec, scenario: &Scenario) -> String {
    format!("{} {}", app.encode(), scenario.name())
}

struct Shared {
    config: ServeConfig,
    registry: Registry,
    gate: Arc<FairGate>,
    caches: Mutex<HashMap<String, Arc<EvalCache>>>,
    libraries: LibraryMemo,
    stop: Arc<AtomicBool>,
    seq: AtomicU64,
    campaign_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Connections currently tailing a trace log. Shutdown waits for
    /// these to flush their terminal (`parked`) events before the
    /// process may exit — otherwise a streaming client racing process
    /// death sees a torn frame instead of the park notice.
    streamers: AtomicU64,
}

impl Shared {
    /// The shared cache of one platform label, created (and bound to its
    /// persistent sidecar under the root) on first use.
    fn cache_for(&self, app: &AppSpec) -> Arc<EvalCache> {
        let label = app.platform_label();
        let mut caches = self.caches.lock().expect("cache table poisoned");
        Arc::clone(caches.entry(label.to_owned()).or_insert_with(|| {
            let cache = EvalCache::shared();
            cache.set_entry_ceiling(self.config.cache_ceiling);
            let sidecar = self.config.root.join(format!("cache-{label}.cache"));
            // A failed bind degrades to a cold in-memory cache — the
            // server stays up, only warm-start is lost.
            let _ = cache.bind_sidecar(&sidecar);
            cache
        }))
    }

    fn next_id(&self) -> String {
        format!("c{}", self.seq.fetch_add(1, Ordering::SeqCst))
    }
}

/// The resident multi-tenant campaign server. See the
/// [module docs](self) for the lifecycle invariants.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener, recovers campaign state from the root
    /// directory (resuming every parked campaign), and returns the
    /// not-yet-accepting server — call [`Server::run`].
    ///
    /// # Errors
    ///
    /// Socket and root-directory I/O failures.
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Server> {
        fs::create_dir_all(&config.root)?;
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let libraries = LibraryMemo::new(MEMO_PER_WORKER * config.workers);
        let shared = Arc::new(Shared {
            config,
            registry: Registry::new(),
            gate: FairGate::shared(),
            libraries,
            caches: Mutex::new(HashMap::new()),
            stop: Arc::new(AtomicBool::new(false)),
            seq: AtomicU64::new(1),
            campaign_threads: Mutex::new(Vec::new()),
            streamers: AtomicU64::new(0),
        });
        recover_from_root(&shared);
        shared
            .seq
            .store(shared.registry.max_sequence() + 1, Ordering::SeqCst);
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    ///
    /// # Errors
    ///
    /// As [`TcpListener::local_addr`].
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shutdown flag: storing `true` (from any thread) parks every
    /// in-flight campaign and makes [`Server::run`] return.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shared.stop)
    }

    /// Serves until shutdown (a `shutdown` request, the
    /// [`Server::stop_flag`], or an installed `SIGTERM` hook), then
    /// joins every campaign thread — by which point each in-flight
    /// campaign has checkpointed and parked.
    pub fn run(&self) {
        loop {
            if sigterm_received() {
                self.shared.stop.store(true, Ordering::SeqCst);
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&self.shared);
                    // Handlers are detached: they end with their client
                    // (or stall harmlessly on a dead one); campaigns
                    // outlive them by design.
                    std::thread::spawn(move || handle_connection(stream, &shared));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        let threads = std::mem::take(
            &mut *self
                .shared
                .campaign_threads
                .lock()
                .expect("campaign threads poisoned"),
        );
        for handle in threads {
            let _ = handle.join();
        }
        // Connection handlers keep `Shared` alive past this point, so
        // drop the cache table now: that flushes every buffered sidecar
        // journal before the process can exit.
        self.shared
            .caches
            .lock()
            .expect("cache table poisoned")
            .clear();
        // Every campaign has parked and finished its log; give the
        // streaming handlers a bounded window to forward the terminal
        // events before the process exits underneath them.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while self.shared.streamers.load(Ordering::SeqCst) > 0
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Registers campaigns found under the root: completed ones are sealed
/// from their `done.txt`, unfinished ones are resumed immediately.
fn recover_from_root(shared: &Arc<Shared>) {
    let Ok(tenants) = fs::read_dir(&shared.config.root) else {
        return;
    };
    for tenant in tenants.flatten() {
        if !tenant.path().is_dir() {
            continue;
        }
        let Ok(campaigns) = fs::read_dir(tenant.path()) else {
            continue;
        };
        for dir in campaigns.flatten() {
            let dir = dir.path();
            let Ok(meta) = fs::read_to_string(dir.join("meta.txt")) else {
                continue;
            };
            let Ok(request) = SubmitRequest::parse(meta.trim()) else {
                continue;
            };
            let Some(id) = dir.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let log = Arc::new(TraceLog::persisted_with_ring(
                dir.join("trace.txt"),
                shared.config.trace_ring,
            ));
            let entry = Arc::new(CampaignEntry {
                id: id.to_owned(),
                request,
                log,
            });
            let done = fs::read_to_string(dir.join("done.txt"))
                .ok()
                .and_then(|text| DoneSummary::parse(text.trim()).ok());
            shared.registry.insert(Arc::clone(&entry));
            match done {
                Some(summary) => entry.log.finish(CampaignOutcome::Done(summary)),
                None => spawn_campaign(shared, entry, true),
            }
        }
    }
}

/// Starts (or resumes) one campaign on its own thread.
fn spawn_campaign(shared: &Arc<Shared>, entry: Arc<CampaignEntry>, resume: bool) {
    entry.log.reopen();
    let handle = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || run_campaign_thread(&shared, &entry, resume))
    };
    shared
        .campaign_threads
        .lock()
        .expect("campaign threads poisoned")
        .push(handle);
}

fn run_campaign_thread(shared: &Arc<Shared>, entry: &Arc<CampaignEntry>, resume: bool) {
    let ticket = shared.gate.register();
    let outcome = drive_campaign(shared, entry, resume, ticket);
    shared.gate.deregister(ticket);
    if let CampaignOutcome::Done(summary) = &outcome {
        let dir = entry.dir(&shared.config.root);
        let _ = fs::write(dir.join("done.txt"), format!("{}\n", summary.encode()));
    }
    entry.log.finish(outcome);
}

fn drive_campaign(
    shared: &Arc<Shared>,
    entry: &Arc<CampaignEntry>,
    resume: bool,
    ticket: u64,
) -> CampaignOutcome {
    let request = &entry.request;
    let (platform, graph) = match build_app(&request.app) {
        Ok(pair) => pair,
        Err(e) => return CampaignOutcome::Failed(e),
    };
    let cache = shared.cache_for(&request.app);
    let sink = RunTelemetry::sink();
    sink.lock()
        .expect("telemetry sink poisoned")
        .stream_to(Box::new(LogWriter::new(Arc::clone(&entry.log))));
    let backend = match shared.config.backend.build(shared.config.workers) {
        Ok(backend) => backend,
        Err(e) => return CampaignOutcome::Failed(format!("backend: {e}")),
    };
    let mut exec = Executor::new(ExecPool::new(shared.config.workers))
        .with_label(&entry.id)
        .with_telemetry(sink)
        .with_gate(Arc::clone(&shared.gate), ticket);
    if let Some(backend) = backend {
        exec = exec.with_eval_backend(backend);
    }
    // The scenario picks the fault mechanism, CLR catalog and objective
    // set.
    let tdse = match request.scenario.apply_to(TdseConfig::default()) {
        Ok(tdse) => tdse,
        Err(e) => return CampaignOutcome::Failed(format!("scenario: {e}")),
    };
    let key = library_key(&request.app, &request.scenario);
    let built = shared.libraries.get_or_build(&key, || {
        let (library, health) = build_library_with_health(&graph, &platform, &tdse)
            .map_err(|e| format!("task-level DSE: {e}"))?;
        Ok((Arc::new(library), health))
    });
    let dse = match built.and_then(|(library, health)| {
        ClrEarly::from_library(&graph, &platform, tdse, library, health)
            .map_err(|e| format!("task-level DSE: {e}"))
    }) {
        Ok(dse) => dse
            .with_objectives(request.scenario.system_objectives())
            .with_executor(exec)
            .with_cache(cache)
            // Always attached: the remote context is what lets a
            // non-in-process backend reconstruct the stage problem;
            // without a backend the dispatch layer never consults it.
            .with_remote(request.app.clone(), request.scenario),
        Err(e) => return CampaignOutcome::Failed(e),
    };
    let dir = entry.dir(&shared.config.root);
    let checkpoint = dir.join("run.ckpt");
    let supervisor =
        RunSupervisor::new(SupervisorConfig::new(&checkpoint).with_keep_checkpoints(2))
            .with_interrupt_flag(Arc::clone(&shared.stop));
    let outcome = if resume && checkpoint.exists() {
        dse.resume(&request.plan, &request.budget, &supervisor)
    } else {
        dse.run_supervised(&request.plan, &request.budget, &supervisor)
    };
    match outcome {
        Ok(RunOutcome::Complete(front)) => CampaignOutcome::Done(DoneSummary {
            digest: front_digest(&front),
            points: front.front().len(),
            evaluations: front.evaluations,
        }),
        Ok(RunOutcome::Interrupted { generation, .. }) => CampaignOutcome::Parked { generation },
        Err(e) => CampaignOutcome::Failed(format!("campaign: {e}")),
    }
}

/// One client connection: handshake, then a request loop. Streaming
/// requests (`submit`, `attach`) tail the campaign's trace log until
/// its terminal event, then return to the loop.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let result = serve_connection(&mut stream, shared);
    // A dead client is routine (its campaigns are parked, not lost);
    // nothing to do beyond dropping the socket.
    drop(result);
}

fn serve_connection(stream: &mut TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    match read_frame(stream)? {
        Some(hello) if hello == format!("hello {WIRE_VERSION}") => {
            write_frame(stream, &format!("ok {WIRE_VERSION}"))?;
        }
        Some(other) => {
            write_frame(stream, &format!("error unsupported handshake {other:?}"))?;
            return Ok(());
        }
        None => return Ok(()),
    }
    while let Some(line) = read_frame(stream)? {
        let verb = line.split_whitespace().next().unwrap_or_default();
        match verb {
            "ping" => write_frame(stream, "pong")?,
            "stats" => write_frame(stream, &stats_line(shared))?,
            "shutdown" => {
                write_frame(stream, "bye")?;
                shared.stop.store(true, Ordering::SeqCst);
                return Ok(());
            }
            "submit" => match SubmitRequest::parse(&line) {
                Ok(request) => handle_submit(stream, shared, request)?,
                Err(e) => write_frame(stream, &format!("rejected reason=malformed detail={e}"))?,
            },
            "attach" => handle_attach(stream, shared, &line)?,
            _ => write_frame(stream, &format!("error unknown request {verb:?}"))?,
        }
    }
    Ok(())
}

fn handle_submit(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    request: SubmitRequest,
) -> io::Result<()> {
    if shared.stop.load(Ordering::SeqCst) {
        return write_frame(stream, "rejected reason=shutting-down");
    }
    let (total, of_tenant) = shared.registry.active_counts(&request.tenant);
    if let Err(reason) = shared.config.admission.admit(total, of_tenant) {
        return write_frame(stream, &format!("rejected reason={reason}"));
    }
    let id = shared.next_id();
    let dir = shared.config.root.join(&request.tenant).join(&id);
    if let Err(e) = fs::create_dir_all(&dir)
        .and_then(|()| fs::write(dir.join("meta.txt"), format!("{}\n", request.encode())))
    {
        return write_frame(stream, &format!("rejected reason=io detail={e}"));
    }
    let entry = Arc::new(CampaignEntry {
        id: id.clone(),
        request,
        log: Arc::new(TraceLog::persisted_with_ring(
            dir.join("trace.txt"),
            shared.config.trace_ring,
        )),
    });
    shared.registry.insert(Arc::clone(&entry));
    spawn_campaign(shared, Arc::clone(&entry), false);
    write_frame(stream, &format!("accepted id={id}"))?;
    stream_log(stream, shared, &entry, 0)
}

fn handle_attach(stream: &mut TcpStream, shared: &Arc<Shared>, line: &str) -> io::Result<()> {
    let mut tenant = None;
    let mut id = None;
    let mut from = 0usize;
    for tok in line.split_whitespace().skip(1) {
        match tok.split_once('=') {
            Some(("tenant", v)) => tenant = Some(v),
            Some(("id", v)) => id = Some(v),
            Some(("from", v)) => from = v.parse().unwrap_or(0),
            _ => return write_frame(stream, &format!("error malformed attach token {tok:?}")),
        }
    }
    let (Some(tenant), Some(id)) = (tenant, id) else {
        return write_frame(stream, "error attach needs tenant= and id=");
    };
    let Some(entry) = shared.registry.get(tenant, id) else {
        return write_frame(stream, &format!("rejected reason=unknown-campaign id={id}"));
    };
    write_frame(
        stream,
        &format!("attached id={} lines={}", entry.id, entry.log.len()),
    )?;
    stream_log(stream, shared, &entry, from)
}

/// Tails a campaign's trace log from line `from`, forwarding each line
/// as a `trace` event the moment it lands, then the terminal event.
/// Registers itself in [`Shared::streamers`] for the whole tail so
/// shutdown can wait for the terminal event to flush.
fn stream_log(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    entry: &Arc<CampaignEntry>,
    from: usize,
) -> io::Result<()> {
    struct StreamerGuard<'a>(&'a AtomicU64);
    impl Drop for StreamerGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }
    shared.streamers.fetch_add(1, Ordering::SeqCst);
    let _guard = StreamerGuard(&shared.streamers);
    let mut next = from;
    loop {
        let (lines, outcome) = entry.log.wait_from(next, Duration::from_millis(200));
        for line in &lines {
            write_frame(stream, &format!("trace {line}"))?;
        }
        next += lines.len();
        if let Some(outcome) = outcome {
            let event = match outcome {
                CampaignOutcome::Done(summary) => summary.encode(),
                CampaignOutcome::Parked { generation } => {
                    format!(
                        "parked id={} generation={generation} lines={next}",
                        entry.id
                    )
                }
                CampaignOutcome::Failed(e) => {
                    format!("error campaign {} failed: {e}", entry.id)
                }
            };
            return write_frame(stream, &event);
        }
    }
}

fn stats_line(shared: &Arc<Shared>) -> String {
    let (active, done, parked, failed) = shared.registry.outcome_counts();
    let tenants = shared.registry.tenant_count();
    let caches = shared.caches.lock().expect("cache table poisoned");
    let counts: HashMap<String, (u64, u64, u64)> = caches
        .iter()
        .map(|(label, cache)| {
            let f = cache.fitness_counts();
            (label.clone(), (f.hits, f.misses, f.evictions))
        })
        .collect();
    let memo = shared.libraries.counts();
    format!(
        "stats active={active} done={done} parked={parked} failed={failed} tenants={tenants} \
         library.memo_hits={} library.builds={} library.waits={} library.evictions={} \
         library.resident={}{}",
        memo.hits,
        memo.builds,
        memo.waits,
        memo.evictions,
        memo.resident,
        format_cache_stats(&counts)
    )
}

// --- SIGTERM ---------------------------------------------------------

/// Set by the `SIGTERM` handler; polled by [`Server::run`]'s accept
/// loop. A process-wide static because signal handlers cannot carry
/// state.
static TERM: AtomicBool = AtomicBool::new(false);

/// Whether a `SIGTERM` has been received since
/// [`install_sigterm_handler`] was installed.
pub fn sigterm_received() -> bool {
    TERM.load(Ordering::SeqCst)
}

/// Installs a `SIGTERM` handler that requests graceful shutdown: the
/// accept loop sees it, raises the stop flag, and every in-flight
/// campaign checkpoints and parks. Unix-only (elsewhere this is a
/// no-op); std itself links libc on these targets, so the one-line
/// `signal(2)` binding introduces no new dependency.
#[cfg(unix)]
#[allow(unsafe_code)]
pub fn install_sigterm_handler() {
    extern "C" fn on_sigterm(_sig: i32) {
        // Atomic store: async-signal-safe.
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

/// Non-Unix stub: no signal to hook; `shutdown` requests and the stop
/// flag still work.
#[cfg(not(unix))]
pub fn install_sigterm_handler() {}

#[cfg(test)]
mod tests {
    use super::*;
    use clre::methodology::StageBudget;
    use clre::CampaignPlan;

    #[test]
    fn front_digest_matches_objective_bits() {
        // The digest must be a pure function of the objective bits:
        // recompute it by hand for a tiny in-process run.
        let (platform, graph) = build_app(&AppSpec::Synthetic { tasks: 8, seed: 3 }).unwrap();
        let dse = ClrEarly::new(&graph, &platform).unwrap();
        let front = dse
            .run(&CampaignPlan::fc(), &StageBudget::new(8, 2).with_seed(5))
            .unwrap();
        let mut fnv = Fnv::new();
        for objectives in front.objectives() {
            for &x in &objectives {
                fnv.write_f64(x);
            }
        }
        assert_eq!(front_digest(&front), fnv.finish());
    }

    #[test]
    fn serve_config_builders_clamp_and_set() {
        let config = ServeConfig::new("/tmp/x")
            .with_workers(0)
            .with_max_active(2)
            .with_tenant_quota(1);
        assert_eq!(config.workers, 1, "worker floor");
        assert_eq!(config.admission.max_active, 2);
        assert_eq!(config.admission.max_per_tenant, 1);
    }
}
