//! CL(R)Early core: early-stage design space exploration for cross-layer
//! reliability-aware task mapping on heterogeneous MPSoCs.
//!
//! This crate implements the paper's contribution on top of the workspace
//! substrates:
//!
//! * [`tdse`] — **task-level DSE**: enumerate every
//!   `(implementation, DVFS mode, CLR configuration)` point of a task
//!   type, estimate its Table II metrics through the Markov-chain models
//!   of `clre-markov`, and Pareto-filter within each PE-type group.
//! * [`library`] — the resulting [`ImplLibrary`]: the full candidate space
//!   (fcCLR's search space) plus per-group Pareto-filtered index lists
//!   (pfCLR's pruned space).
//! * [`encoding`] — the GA genome of Fig. 5: an ordered sequence of
//!   per-task genes (task id, PE binding, candidate choice) with the
//!   schedule implicitly encoded in gene order, plus the paper's
//!   crossover/mutation operators.
//! * [`problem`] — the mapping problem as a `clre-moea` [`Problem`]:
//!   decode → schedule → Table III metrics → objective vector (+
//!   constraint violation from a [`QosSpec`]).
//! * [`methodology`] — the multi-stage DSE methodology of Fig. 4:
//!   [`ClrEarly`] runs `fcCLR`, `pfCLR`, the **proposed** two-stage
//!   pfCLR-seeded-fcCLR flow, per-layer single-degree-of-freedom runs and
//!   the merged *Agnostic* baseline.
//! * [`campaign`] — the declarative stage-graph [`CampaignPlan`] runner
//!   every method above compiles into: one execution path threading the
//!   executor, telemetry labels, and checkpoint/resume supervision
//!   through NSGA-II and SPEA2 stages alike.
//! * [`apps`] — the Sobel Edge Detection case study (Fig. 2(b)) and the
//!   evaluation platforms.
//! * [`resilience`] — the fault-tolerant DSE runtime: panic/error-isolated
//!   fitness evaluation with quarantine, periodic GA checkpoints with
//!   deterministic resume, and per-run [`RunHealth`] reports.
//! * [`cache`] — the content-addressed evaluation cache: genome-fitness
//!   memoization with a persistent sidecar for warm-started resumes;
//!   hits replay the uncached computation bit-for-bit.
//! * [`remote`] — the `clre-eval v1` context grammar and [`DseVocab`]:
//!   what lets the `clre-exec-worker` subprocess backend reconstruct a
//!   digest-verified stage problem from one line of text and evaluate
//!   genomes bit-identically to the in-process path.
//!
//! # Examples
//!
//! End-to-end: build the Sobel application, run the proposed methodology
//! and inspect the Pareto front:
//!
//! ```
//! use clre::apps;
//! use clre::campaign::CampaignPlan;
//! use clre::methodology::{ClrEarly, StageBudget};
//!
//! # fn main() -> Result<(), clre::DseError> {
//! let platform = apps::paper_platform();
//! let graph = apps::sobel(&platform, 42)?;
//! let dse = ClrEarly::new(&graph, &platform)?;
//! let result = dse.run(&CampaignPlan::proposed(), &StageBudget::smoke_test())?;
//! assert!(!result.front().is_empty());
//! for point in result.front() {
//!     assert!(point.metrics.makespan > 0.0);
//!     assert!(point.metrics.error_prob >= 0.0);
//! }
//! # Ok(())
//! # }
//! ```
//!
//! [`ImplLibrary`]: library::ImplLibrary
//! [`Problem`]: clre_moea::Problem
//! [`QosSpec`]: clre_model::qos::QosSpec
//! [`ClrEarly`]: methodology::ClrEarly
//! [`RunHealth`]: resilience::RunHealth
//! [`CampaignPlan`]: campaign::CampaignPlan

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod cache;
pub mod campaign;
pub mod encoding;
mod error;
pub mod library;
pub mod methodology;
pub mod problem;
pub mod remote;
pub mod resilience;
pub mod scenario;
pub mod tdse;

pub use apps::AppSpec;
pub use cache::{CacheCounts, CachedFitness, EvalCache};
pub use campaign::{CampaignPlan, LibrarySource, StageAlgorithm, StagePlan};
pub use error::DseError;
pub use library::{CandidateImpl, ImplLibrary};
pub use methodology::{ClrEarly, FrontPoint, FrontResult, Layer, StageBudget};
pub use remote::{BackendChoice, DseVocab, RemoteContext};
pub use resilience::{
    AlgorithmTag, Checkpoint, CompletedStage, HealthHandle, QuarantineRecord, RunHealth,
    RunOutcome, RunSupervisor, SupervisorConfig,
};
pub use scenario::Scenario;
pub use tdse::{ReliabilityModel, TdseConfig};
