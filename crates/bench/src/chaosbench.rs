//! Chaos benchmark: drives full campaigns through deterministic fault
//! storms and proves the recovery paths give back the fault-free answer.
//!
//! Four scenarios share one synthetic application and budget:
//!
//! 1. **baseline** — a clean supervised fcCLR run: the reference front.
//! 2. **fcCLR storm** (at 1 and 4 workers) — the same run under injected
//!    evaluation faults (panic / typed error / NaN poisoning / stalls
//!    past the evaluation deadline), deterministic worker death, an
//!    injected mid-run interrupt, byte-level corruption of the
//!    checkpoint and cache sidecars plus a mangled quarantine sidecar —
//!    then a cold resume. The recovered front must be **bit-identical**
//!    to the baseline (asserted via FNV-1a digest over the objective
//!    matrix).
//! 3. **proposed storm** — the two-stage proposed flow to completion
//!    under the same evaluation-fault storm; again digest-identical.
//! 4. **solver faults** — task-level DSE under a [`SolverFaultPlan`].
//!    The scaled-pivoting retry answers differ from the primary LU in
//!    the last bits, so this scenario is *degraded-mode*: the report
//!    records the deltas (retry/degraded counts, library divergence)
//!    instead of asserting identity.
//!
//! The storm schedule is content-addressed (see `clre-chaos`), so the
//! same seed reproduces the same faults — scenario 2 is run twice at one
//! worker to assert digest *and* telemetry-counter reproducibility.
//!
//! [`chaos`] returns the report as JSON (a [`BenchReport`]) and writes
//! it to `BENCH_chaos.json` for CI to archive.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use clre::cache::cache_sidecar_path;
use clre::methodology::{ClrEarly, StageBudget};
use clre::resilience::{
    quarantine_sidecar_path, BackoffPolicy, QuarantineRecord, QuarantineSidecar, RunHealth,
    RunOutcome, RunSupervisor, SupervisorConfig,
};
use clre::tdse::{build_library_with_health, TdseConfig};
use clre::{CampaignPlan, EvalCache};
use clre_chaos::{corrupt_file, DeathPlan, FaultPlan, SolverFaultPlan};
use clre_exec::{ExecPool, Executor};
use clre_model::{Platform, TaskGraph};
use clre_serve::server::front_digest;

use crate::report::{BenchReport, JsonObject};
use crate::RunScale;

/// Task count of the chaos workload (kept small: every scenario runs the
/// campaign at least once, and the storm adds deliberate stalls).
const TASKS: usize = 20;
/// Application seed, distinct from the other benches' workloads.
const APP_SEED: u64 = 113;
/// Master seed salting every fault plan of the storm.
const CHAOS_SEED: u64 = 0xC405;
/// Per-evaluation wall-clock deadline under the storm.
const DEADLINE_MS: u64 = 250;
/// Injected stalls sleep past the deadline, forcing a timeout + retry.
const STALL_MS: u64 = 400;

/// The evaluation-fault storm. The Tiny workload evaluates only ~19
/// distinct genomes, so the per-kind rates are set high enough that the
/// seeded draws provably fire every kind at least once on that key
/// population (8% panic, 10% typed error, 11% NaN poisoning, 15% stall
/// past the deadline). All fire on the first attempt only, so one retry
/// always recovers.
fn storm_plan() -> FaultPlan {
    FaultPlan::new(CHAOS_SEED)
        .with_panic_ppm(80_000)
        .with_error_ppm(100_000)
        .with_poison_ppm(110_000)
        .with_stall_ppm(150_000, STALL_MS)
}

/// A supervisor config with the hardened-recovery knobs on.
fn storm_config(ckpt: &Path) -> SupervisorConfig {
    SupervisorConfig::new(ckpt)
        .with_interval(1)
        .with_max_retries(2)
        .with_keep_checkpoints(3)
        .with_eval_deadline(Duration::from_millis(DEADLINE_MS))
        .with_backoff(BackoffPolicy::new(1, 8, CHAOS_SEED))
}

/// An executor whose pool loses workers deterministically mid-batch.
fn dying_executor(workers: usize) -> Executor {
    Executor::new(ExecPool::new(workers).with_death_plan(DeathPlan::new(CHAOS_SEED, 60_000)))
}

struct Scenario {
    digest: u64,
    health: RunHealth,
}

fn json_scenario(s: &Scenario) -> JsonObject {
    let h = &s.health;
    JsonObject::new()
        .text("front_digest", format_args!("{:016x}", s.digest))
        .field("timeouts", h.timeouts)
        .field("backoff_ms", h.backoff_ms)
        .field("injected", h.injected)
        .field("recovered", h.recovered)
        .field("panics_isolated", h.panics_isolated)
        .field("errors_isolated", h.errors_isolated)
        .field("retries", h.retries)
        .field("checkpoint_fallbacks", h.checkpoint_fallbacks)
        .field("sidecar_lines_skipped", h.sidecar_lines_skipped)
        .field("quarantined", h.quarantined)
}

/// Clean supervised fcCLR: the reference digest.
/// A scenario-private scratch directory: the cache and quarantine
/// sidecars live next to the checkpoint, so scenarios sharing a
/// directory would contaminate each other's warm-start state.
fn scenario_dir(dir: &Path, tag: &str) -> PathBuf {
    let d = dir.join(tag);
    fs::create_dir_all(&d).expect("scenario dir");
    d
}

fn baseline(graph: &TaskGraph, platform: &Platform, budget: &StageBudget, dir: &Path) -> Scenario {
    let ckpt = scenario_dir(dir, "baseline").join("baseline.ckpt");
    let supervisor = RunSupervisor::new(SupervisorConfig::new(&ckpt).with_interval(2));
    let dse = ClrEarly::new(graph, platform).expect("tDSE succeeds");
    let front = dse
        .run_supervised(&CampaignPlan::fc(), budget, &supervisor)
        .expect("clean run completes")
        .expect_complete();
    Scenario {
        digest: front_digest(&front),
        health: front.health,
    }
}

/// The full fcCLR chaos scenario: storm + interrupt + sidecar corruption
/// + cold resume at the given worker count.
fn fc_storm(
    graph: &TaskGraph,
    platform: &Platform,
    budget: &StageBudget,
    dir: &Path,
    workers: usize,
    tag: &str,
) -> Scenario {
    let ckpt = scenario_dir(dir, tag).join("storm.ckpt");
    let plan: Arc<FaultPlan> = Arc::new(storm_plan());

    // Phase 1: run under the storm until the injected interrupt fires.
    let cache = EvalCache::shared();
    let dse = ClrEarly::new(graph, platform)
        .expect("tDSE succeeds")
        .with_executor(dying_executor(workers))
        .with_cache(Arc::clone(&cache));
    let supervisor = RunSupervisor::new(storm_config(&ckpt))
        .with_fault_injector(plan.clone())
        .with_interrupt_at(0, 2);
    match dse
        .run_supervised(&CampaignPlan::fc(), budget, &supervisor)
        .expect("interrupted run still checkpoints")
    {
        RunOutcome::Interrupted { .. } => {}
        RunOutcome::Complete(_) => panic!("interrupt seam must fire"),
    }

    // Phase 2: damage every sidecar between save and load.
    corrupt_file(&ckpt, CHAOS_SEED, 1).expect("checkpoint corruptible");
    let cache_sidecar = cache_sidecar_path(&ckpt);
    if cache_sidecar.exists() {
        corrupt_file(&cache_sidecar, CHAOS_SEED, 2).expect("cache sidecar corruptible");
    }
    // A torn quarantine sidecar: one malformed line after a valid record.
    let quarantine = quarantine_sidecar_path(&ckpt);
    QuarantineSidecar::new(quarantine.clone())
        .append(&[QuarantineRecord {
            error: "fabricated for chaos".to_owned(),
            genome: "g:0|p:0|c:0".to_owned(),
        }])
        .expect("quarantine sidecar writable");
    let mut torn = fs::read(&quarantine).expect("quarantine sidecar readable");
    torn.extend_from_slice(b"@@torn-line\n");
    fs::write(&quarantine, torn).expect("quarantine sidecar writable");

    // Phase 3: cold resume — a fresh driver and a fresh cache bound to
    // the damaged sidecar, same storm, no further interrupts.
    let cold_cache = EvalCache::shared();
    let resumed = ClrEarly::new(graph, platform)
        .expect("tDSE succeeds")
        .with_executor(dying_executor(workers))
        .with_cache(cold_cache);
    let resume_supervisor = RunSupervisor::new(storm_config(&ckpt)).with_fault_injector(plan);
    let front = resumed
        .resume_supervised(budget, &resume_supervisor)
        .expect("resume recovers")
        .expect_complete();
    Scenario {
        digest: front_digest(&front),
        health: front.health,
    }
}

/// The proposed two-stage flow, clean vs under the storm (no interrupt):
/// returns (clean, stormed).
fn proposed_pair(
    graph: &TaskGraph,
    platform: &Platform,
    budget: &StageBudget,
    dir: &Path,
) -> (Scenario, Scenario) {
    let clean_supervisor = RunSupervisor::new(
        SupervisorConfig::new(scenario_dir(dir, "proposed-clean").join("proposed.ckpt"))
            .with_interval(2),
    );
    let clean = ClrEarly::new(graph, platform)
        .expect("tDSE succeeds")
        .run_supervised(&CampaignPlan::proposed(), budget, &clean_supervisor)
        .expect("clean proposed completes")
        .expect_complete();

    let ckpt = scenario_dir(dir, "proposed-storm").join("proposed.ckpt");
    let stormed = ClrEarly::new(graph, platform)
        .expect("tDSE succeeds")
        .with_executor(dying_executor(4))
        .run_supervised(
            &CampaignPlan::proposed(),
            budget,
            &RunSupervisor::new(storm_config(&ckpt)).with_fault_injector(Arc::new(storm_plan())),
        )
        .expect("stormed proposed completes")
        .expect_complete();
    (
        Scenario {
            digest: front_digest(&clean),
            health: clean.health,
        },
        Scenario {
            digest: front_digest(&stormed),
            health: stormed.health,
        },
    )
}

/// Runs the chaos benchmark at `scale` and returns the JSON report (also
/// written to `BENCH_chaos.json`; a write failure is reported inside the
/// JSON rather than aborting the bench).
pub fn chaos(scale: RunScale) -> String {
    let budget = scale.budget();
    let (platform, graph) = clre::apps::synthetic_app(TASKS, APP_SEED).expect("app builds");
    let dir = std::env::temp_dir().join(format!("clre-chaosbench-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");

    let base = baseline(&graph, &platform, &budget, &dir);
    let storm_w1 = fc_storm(&graph, &platform, &budget, &dir, 1, "w1");
    let storm_w4 = fc_storm(&graph, &platform, &budget, &dir, 4, "w4");
    // Same seed, same worker count: the schedule, the recovered front
    // and every telemetry counter must reproduce exactly.
    let replay = fc_storm(&graph, &platform, &budget, &dir, 1, "replay");
    let reproducible = replay.digest == storm_w1.digest && replay.health == storm_w1.health;

    let (proposed_clean, proposed_storm) = proposed_pair(&graph, &platform, &budget, &dir);

    // Degraded-mode scenario: injected LU singularities. Retries keep the
    // analysis exact-ish via scaled pivoting, but the answers differ in
    // the last bits from the primary solve — record the deltas, never
    // assert identity.
    let clean_lib = build_library_with_health(&graph, &platform, &TdseConfig::default())
        .expect("clean library");
    let solver_cfg =
        TdseConfig::default().with_solver_faults(SolverFaultPlan::new(CHAOS_SEED, 300_000, 0));
    let faulted_lib =
        build_library_with_health(&graph, &platform, &solver_cfg).expect("faulted library");

    let recoverable_identical = storm_w1.digest == base.digest
        && storm_w4.digest == base.digest
        && proposed_storm.digest == proposed_clean.digest;
    let exercised = storm_w1.health.injected > 0
        && storm_w1.health.panics_isolated > 0
        && storm_w1.health.errors_isolated > 0
        && storm_w1.health.timeouts > 0
        && storm_w1.health.backoff_ms > 0
        && storm_w1.health.recovered > 0
        && storm_w1.health.checkpoint_fallbacks > 0
        && storm_w1.health.sidecar_lines_skipped > 0;

    let _ = fs::remove_dir_all(&dir);

    let solver_faults = JsonObject::new()
        .field("candidates", faulted_lib.1.candidates_evaluated)
        .field("solver_retries", faulted_lib.1.solver_retries)
        .field("degraded_analyses", faulted_lib.1.degraded_analyses)
        .field("library_bit_identical", clean_lib.0 == faulted_lib.0);
    BenchReport::new("chaos")
        .field("application_tasks", TASKS)
        .field("population", budget.population)
        .field("generations", budget.generations)
        .field("chaos_seed", CHAOS_SEED)
        .field("baseline", json_scenario(&base))
        .field("fc_storm_w1", json_scenario(&storm_w1))
        .field("fc_storm_w1_replay", json_scenario(&replay))
        .field("fc_storm_w4", json_scenario(&storm_w4))
        .field("proposed_clean", json_scenario(&proposed_clean))
        .field("proposed_storm", json_scenario(&proposed_storm))
        .field("solver_faults", solver_faults)
        .field("storm_exercised_all_seams", exercised)
        .field("reproducible", reproducible)
        .field("fronts_identical", recoverable_identical)
        .write("BENCH_chaos.json")
}

/// Scratch path helper shared with the property tests.
pub fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("clre-chaos-{tag}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_bench_recovers_bit_identically() {
        let json = chaos(RunScale::Tiny);
        assert!(
            json.contains("\"fronts_identical\": true"),
            "storm recovery diverged from the fault-free baseline:\n{json}"
        );
        assert!(
            json.contains("\"reproducible\": true"),
            "same seed must reproduce digest and counters:\n{json}"
        );
        assert!(
            json.contains("\"storm_exercised_all_seams\": true"),
            "the storm must actually fire every fault kind:\n{json}"
        );
        let _ = std::fs::remove_file("BENCH_chaos.json");
    }
}
