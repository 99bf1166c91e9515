//! `clre-serve` — campaign-as-a-service: a resident multi-tenant DSE
//! server with a shared warm cache and live trace streaming.
//!
//! Everything below is `std`-only. Clients speak the length-prefixed
//! text protocol [`wire`] (`clre-wire v1`) over TCP: they submit
//! serialized [`CampaignPlan`]s with a workload, budget and seed; the
//! [`server`] admits them under per-tenant quotas, runs them over one
//! shared worker budget (fair round-robin across campaigns at
//! generation granularity via `clre_exec::FairGate`), and streams each
//! generation's `trace-v1` line back the moment it is finalized.
//!
//! Cross-tenant warm-start: the server builds each (application,
//! scenario) task-level library once and shares it across campaigns
//! ([`memo`]). Every campaign on the same platform also shares one
//! content-addressed fitness `EvalCache`, keyed by problem digest and
//! genome, and the persisted sidecar keeps it warm across server
//! restarts.
//!
//! Determinism contract: a campaign run through the server yields a
//! front digest ([`server::front_digest`]) bit-identical to the same
//! plan run in-process, at any worker count. Shutdown (`SIGTERM` or a
//! `shutdown` request) checkpoints every in-flight campaign; a
//! restarted server on the same root resumes them bit-identically.
//!
//! [`CampaignPlan`]: clre::CampaignPlan
//!
//! # Examples
//!
//! ```
//! use clre::methodology::StageBudget;
//! use clre::CampaignPlan;
//! use clre_serve::client::{Event, ServeClient, Submission};
//! use clre_serve::server::{ServeConfig, Server};
//! use clre_serve::wire::{AppSpec, SubmitRequest};
//!
//! let root = std::env::temp_dir().join("clre-serve-doc");
//! let server = Server::bind("127.0.0.1:0", ServeConfig::new(&root)).unwrap();
//! let addr = server.local_addr().unwrap().to_string();
//! let stop = server.stop_flag();
//! let running = std::thread::spawn(move || server.run());
//!
//! let mut client = ServeClient::connect(&addr).unwrap();
//! let submission = client
//!     .submit(&SubmitRequest {
//!         tenant: "docs".into(),
//!         app: AppSpec::Synthetic { tasks: 8, seed: 3 },
//!         budget: StageBudget::new(8, 2).with_seed(5),
//!         plan: CampaignPlan::fc(),
//!         scenario: clre::Scenario::Transient,
//!     })
//!     .unwrap();
//! assert!(matches!(submission, Submission::Accepted { .. }));
//! let (traces, terminal) = client.drain().unwrap();
//! assert!(!traces.is_empty(), "one live trace line per generation");
//! assert!(matches!(terminal, Event::Done(_)));
//!
//! stop.store(true, std::sync::atomic::Ordering::SeqCst);
//! running.join().unwrap();
//! # let _ = std::fs::remove_dir_all(&root);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod memo;
pub mod server;
pub mod session;
pub mod wire;

pub use client::{Event, ServeClient, Submission};
pub use server::{front_digest, install_sigterm_handler, ServeConfig, Server};
pub use session::{Admission, CampaignOutcome, Registry, TraceLog};
pub use wire::{AppSpec, DoneSummary, SubmitRequest, WIRE_VERSION};
