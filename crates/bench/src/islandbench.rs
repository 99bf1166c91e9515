//! Island-model determinism benchmark: proves the [`EvalBackend`]
//! abstraction's core claim — fronts are bit-identical no matter where
//! evaluation batches run — on the island-expanded campaign plans.
//!
//! For fcCLR and the seeded proposed flow, each expanded to 1, 2 and 4
//! islands, the same campaign runs three times:
//!
//! 1. **inprocess** — the plain executor, the reference digest;
//! 2. **threads** — the in-process [`ThreadBackend`] over the remote
//!    evaluation grammar;
//! 3. **subprocess** — supervised `clre-exec-worker` children, when the
//!    worker binary can be located (a missing binary degrades the report,
//!    never fakes it).
//!
//! Every cell reports the three FNV-1a front digests and whether they
//! agree. The `subprocess_exercised` flag comes from the backend's own
//! [`BackendHealth`] item counter — the report refuses to claim
//! subprocess coverage unless child processes actually evaluated items.
//!
//! [`islands`] returns the report as JSON (a [`BenchReport`]) and writes
//! it to `BENCH_islands.json` for CI to archive; `experiments perfgate`
//! gates each cell's backend agreement, its in-process front digest and
//! its campaign wall-clock trend against the committed baseline.
//!
//! [`EvalBackend`]: clre_exec::EvalBackend
//! [`ThreadBackend`]: clre_exec::ThreadBackend
//! [`BackendHealth`]: clre_exec::BackendHealth

use std::time::Instant;

use clre::methodology::ClrEarly;
use clre::remote::BackendChoice;
use clre::{AppSpec, CampaignPlan, Scenario};
use clre_serve::server::front_digest;

use crate::exec_config::ExecConfig;
use crate::report::{BenchReport, JsonObject};
use crate::RunScale;

/// Task count of the island workload (small: nine campaigns run per
/// report, each three times).
const TASKS: usize = 12;
/// Application seed (distinct from the sweep experiments and cachebench
/// so ledger cells never alias this workload).
const APP_SEED: u64 = 113;
/// Island counts each plan is expanded to.
const ISLAND_COUNTS: [usize; 3] = [1, 2, 4];

/// One campaign execution: front digest, front size, wall-clock µs.
struct RunStats {
    digest: u64,
    points: usize,
    micros: u64,
}

fn run_once(
    config: &ExecConfig,
    app: &AppSpec,
    scenario: Scenario,
    plan: &CampaignPlan,
    budget: &clre::methodology::StageBudget,
) -> RunStats {
    let (platform, graph) = app.build().expect("app builds");
    let dse = config.apply_remote(
        ClrEarly::new(&graph, &platform).expect("tDSE succeeds"),
        app.clone(),
        scenario,
    );
    let t0 = Instant::now();
    let front = dse.run(plan, budget).expect("campaign runs");
    RunStats {
        digest: front_digest(&front),
        points: front.front().len(),
        micros: t0.elapsed().as_micros() as u64,
    }
}

/// Runs the benchmark at `scale` and returns the JSON report (also
/// written to `BENCH_islands.json` in the working directory; a write
/// failure is reported inside the JSON rather than aborting the bench).
/// `config` contributes the worker count; the backends under test are
/// built here.
pub fn islands(scale: RunScale, config: &ExecConfig) -> String {
    let budget = scale.budget();
    let workers = config.workers();
    let app = AppSpec::Synthetic {
        tasks: TASKS,
        seed: APP_SEED,
    };
    let scenario = Scenario::default();

    let inprocess = ExecConfig::new().with_workers(workers);
    let threads = ExecConfig::new()
        .with_workers(workers)
        .with_backend(&BackendChoice::Threads)
        .expect("thread backend always builds");
    // One subprocess pool shared across every cell: its health counters
    // accumulate over the whole report, which is what the honesty flag
    // reads. A missing worker binary is reported, not papered over.
    let subprocess = ExecConfig::new()
        .with_workers(workers)
        .with_backend(&BackendChoice::Subprocess { command: None })
        .ok();

    let grid = [
        ("fcCLR", CampaignPlan::fc()),
        ("proposed", CampaignPlan::proposed()),
    ];
    let mut cells = Vec::new();
    let mut all_match = true;
    for (label, base) in &grid {
        for &n in &ISLAND_COUNTS {
            let plan = base.islands(n);
            let reference = run_once(&inprocess, &app, scenario, &plan, &budget);
            let threaded = run_once(&threads, &app, scenario, &plan, &budget);
            let sub = subprocess
                .as_ref()
                .map(|cfg| run_once(cfg, &app, scenario, &plan, &budget));
            let digest_match = threaded.digest == reference.digest
                && sub.as_ref().is_none_or(|s| s.digest == reference.digest);
            all_match &= digest_match;
            cells.push(
                JsonObject::new()
                    .text("plan", label)
                    .field("islands", n)
                    .text(
                        "inprocess_digest",
                        format_args!("{:016x}", reference.digest),
                    )
                    .text("threads_digest", format_args!("{:016x}", threaded.digest))
                    .field(
                        "subprocess_digest",
                        sub.as_ref()
                            .map_or("null".to_owned(), |s| format!("\"{:016x}\"", s.digest)),
                    )
                    .field("digest_match", digest_match)
                    .field("points", reference.points)
                    .field("campaign_us", reference.micros),
            );
        }
    }

    // The honesty flag: subprocess coverage is only claimed when the
    // backend's own counters say child processes evaluated items.
    let exercised = subprocess
        .as_ref()
        .and_then(ExecConfig::backend_health)
        .is_some_and(|h| h.items > 0);

    BenchReport::new("islands")
        .field("application_tasks", TASKS)
        .field("population", budget.population)
        .field("generations", budget.generations)
        .field("workers", workers)
        .field("subprocess_available", subprocess.is_some())
        .field("subprocess_exercised", exercised)
        .cells("cells", cells)
        .field("all_digests_match", all_match)
        .write("BENCH_islands.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn island_digests_agree_across_backends() {
        let json = islands(RunScale::Tiny, &ExecConfig::new().with_workers(2));
        let _ = std::fs::remove_file("BENCH_islands.json");
        assert!(json.contains("\"bench\": \"islands\""));
        assert!(
            json.contains("\"all_digests_match\": true"),
            "backend placement changed a front:\n{json}"
        );
        // One cell per (plan, island count).
        assert_eq!(json.matches("\"digest_match\": true").count(), 6, "{json}");
        // Honesty: subprocess coverage is never claimed without a
        // located worker binary.
        if json.contains("\"subprocess_available\": false") {
            assert!(json.contains("\"subprocess_exercised\": false"), "{json}");
        }
    }
}
