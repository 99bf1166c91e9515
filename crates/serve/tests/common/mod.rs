//! Shared scaffolding for the server integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use clre::methodology::StageBudget;
use clre::CampaignPlan;
use clre_serve::server::{build_app, front_digest, ServeConfig, Server};
use clre_serve::wire::{AppSpec, SubmitRequest};

/// A clean per-test state directory under the system temp dir.
pub fn fresh_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("clre-serve-it-{name}"));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A server running on its own thread, bound to an ephemeral port.
pub struct RunningServer {
    /// `host:port` to connect to.
    pub addr: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl RunningServer {
    /// Binds and serves `config` in the background.
    pub fn start(config: ServeConfig) -> RunningServer {
        let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral");
        let addr = server.local_addr().expect("local addr").to_string();
        let stop = server.stop_flag();
        let thread = std::thread::spawn(move || server.run());
        RunningServer { addr, stop, thread }
    }

    /// Raises the stop flag and waits for the accept loop (and every
    /// campaign thread) to finish.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("server thread");
    }

    /// Waits for the server to exit on its own (e.g. after a client's
    /// `shutdown` request).
    #[allow(dead_code)] // each test binary compiles its own copy of this module
    pub fn join(self) {
        self.thread.join().expect("server thread");
    }
}

/// The Tiny workload every test submits: 12-task synthetic app on the
/// paper platform, population 8.
pub fn tiny_request(tenant: &str, plan: CampaignPlan, generations: usize) -> SubmitRequest {
    SubmitRequest {
        tenant: tenant.to_owned(),
        app: AppSpec::Synthetic { tasks: 12, seed: 3 },
        budget: StageBudget::new(8, generations).with_seed(11),
        plan,
        scenario: clre::Scenario::Transient,
    }
}

/// The in-process baseline: the same plan and scenario run directly
/// (serial, no cache, no supervision). The server must reproduce this
/// digest bit-exactly.
pub fn local_digest(request: &SubmitRequest) -> u64 {
    let (platform, graph) = build_app(&request.app).expect("app builds");
    let front = clre::methodology::ClrEarly::with_scenario(&graph, &platform, &request.scenario)
        .expect("tDSE succeeds")
        .run(&request.plan, &request.budget)
        .expect("in-process campaign completes");
    front_digest(&front)
}

/// The value of the `stats` counter `key`, 0 when absent.
#[allow(dead_code)] // each test binary compiles its own copy of this module
pub fn stat(stats: &str, key: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        .unwrap_or(0)
}
