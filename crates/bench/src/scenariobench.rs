//! Scenario matrix benchmark: every reliability scenario swept through
//! the same campaign plans.
//!
//! One synthetic application runs the **proposed** flow and the
//! **Agnostic** baseline under each built-in reliability scenario
//! (`transient`, `lifetime:<hours>`, `chkmodes`, `fpga`). Per scenario
//! the report records the catalog and candidate-space sizes, the
//! wall-clock cost of the task-level chain analyses (the Markov solves
//! of that scenario's chain templates — the timing the perf gate
//! watches), the objective-set arity, and both fronts' digests. The
//! header records the host's core count (`nproc`): the chain analyses
//! run on every core, so their timing scales with it.
//!
//! Cross-scenario invariants, greppable by CI:
//!
//! * `transient_matches_default` — the `transient` scenario reproduces
//!   the default pipeline's proposed front bit-identically (the
//!   refactor replaced the fault model without disturbing it).
//! * `scenario_fronts_distinct` — every non-transient scenario moves
//!   the proposed front: the new axes are real physics/catalog changes,
//!   not relabelings.
//! * `lifetime_adds_mttf_objective` — the permanent-fault scenario runs
//!   tri-objective (makespan, error, −MTTF).
//! * `agnostic_baseline_complete` — the Agnostic baseline completed
//!   under every scenario (each new axis has its layer-blind referent).
//!
//! [`scenarios`] returns the report as JSON (hand-formatted, like the
//! other bench reports) and writes it to `BENCH_scenarios.json` for CI
//! to archive and for `experiments perfgate` to diff against the
//! committed `BENCH_scenarios.baseline.json`.

use std::time::Instant;

use clre::methodology::{ClrEarly, StageBudget};
use clre::scenario::Scenario;
use clre::tdse::build_library_with_health;
use clre::{CampaignPlan, FrontResult};
use clre_model::{Platform, TaskGraph};
use clre_serve::front_digest;

use crate::RunScale;

/// Task count of the scenario workload (kept small: four scenarios each
/// run two full campaigns plus a timed library build).
const TASKS: usize = 16;
/// Application seed, distinct from the other benches' workloads.
const APP_SEED: u64 = 131;
/// Mission time of the lifetime scenario cell (hours).
const MISSION_HOURS: f64 = 5_000.0;

/// One scenario's measured sweep.
struct Cell {
    name: String,
    catalog: usize,
    candidates: usize,
    chain_analysis_us: u64,
    objectives: usize,
    proposed: FrontSummary,
    agnostic: FrontSummary,
}

struct FrontSummary {
    digest: u64,
    points: usize,
    evaluations: usize,
}

fn summarize(front: &FrontResult) -> FrontSummary {
    FrontSummary {
        digest: front_digest(front),
        points: front.front().len(),
        evaluations: front.evaluations,
    }
}

fn run_cell(
    scenario: &Scenario,
    graph: &TaskGraph,
    platform: &Platform,
    budget: &StageBudget,
) -> Cell {
    // Timed: the task-level DSE sweep — one Markov chain analysis per
    // (implementation, mode, CLR) candidate of this scenario's catalog.
    // This is the knob the perf gate watches per chain-template family.
    let config = scenario
        .tdse_config()
        .expect("built-in scenario configs are valid");
    let started = Instant::now();
    let (_library, health) =
        build_library_with_health(graph, platform, &config).expect("library builds");
    let chain_analysis_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);

    let dse = ClrEarly::with_scenario(graph, platform, scenario).expect("tDSE succeeds");
    let proposed = dse
        .run(&CampaignPlan::proposed(), budget)
        .expect("proposed completes");
    let agnostic = dse
        .run(&CampaignPlan::agnostic(), budget)
        .expect("agnostic completes");
    Cell {
        name: scenario.name(),
        catalog: scenario.clr_catalog().len(),
        candidates: health.candidates_evaluated,
        chain_analysis_us,
        objectives: scenario.system_objectives().len(),
        proposed: summarize(&proposed),
        agnostic: summarize(&agnostic),
    }
}

fn json_cell(c: &Cell) -> String {
    format!(
        "{{\"scenario\": \"{}\", \"catalog\": {}, \"candidates\": {}, \"chain_analysis_us\": {}, \"objectives\": {}, \"proposed_digest\": \"{:016x}\", \"proposed_points\": {}, \"proposed_evaluations\": {}, \"agnostic_digest\": \"{:016x}\", \"agnostic_points\": {}, \"agnostic_evaluations\": {}}}",
        c.name,
        c.catalog,
        c.candidates,
        c.chain_analysis_us,
        c.objectives,
        c.proposed.digest,
        c.proposed.points,
        c.proposed.evaluations,
        c.agnostic.digest,
        c.agnostic.points,
        c.agnostic.evaluations,
    )
}

/// Runs the scenario matrix at `scale` and returns the JSON report
/// (also written to `BENCH_scenarios.json`; a write failure is reported
/// inside the JSON rather than aborting the bench).
pub fn scenarios(scale: RunScale) -> String {
    let budget = scale.budget();
    let (platform, graph) = clre::apps::synthetic_app(TASKS, APP_SEED).expect("app builds");

    let matrix = [
        Scenario::Transient,
        Scenario::PermanentAging {
            mission_time_hours: MISSION_HOURS,
        },
        Scenario::CheckpointModes,
        Scenario::FpgaMitigation,
    ];
    let cells: Vec<Cell> = matrix
        .iter()
        .map(|s| run_cell(s, &graph, &platform, &budget))
        .collect();

    // The pinned identity: the transient scenario IS the pre-refactor
    // pipeline, checked against a plain default-config run.
    let default_front = ClrEarly::new(&graph, &platform)
        .expect("tDSE succeeds")
        .run(&CampaignPlan::proposed(), &budget)
        .expect("default proposed completes");
    let transient_matches_default = cells[0].proposed.digest == front_digest(&default_front);
    let scenario_fronts_distinct = cells[1..]
        .iter()
        .all(|c| c.proposed.digest != cells[0].proposed.digest);
    let lifetime_adds_mttf_objective = cells[1].objectives == 3;
    let agnostic_baseline_complete = cells.iter().all(|c| c.agnostic.points > 0);

    let body: Vec<String> = cells
        .iter()
        .map(|c| format!("    {}", json_cell(c)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let json = format!(
        "{{\n  \"bench\": \"scenarios\",\n  \"nproc\": {nproc},\n  \"application_tasks\": {TASKS},\n  \"population\": {},\n  \"generations\": {},\n  \"mission_hours\": {MISSION_HOURS},\n  \"cells\": [\n{}\n  ],\n  \"transient_matches_default\": {transient_matches_default},\n  \"scenario_fronts_distinct\": {scenario_fronts_distinct},\n  \"lifetime_adds_mttf_objective\": {lifetime_adds_mttf_objective},\n  \"agnostic_baseline_complete\": {agnostic_baseline_complete}\n}}\n",
        budget.population,
        budget.generations,
        body.join(",\n"),
    );
    if let Err(e) = std::fs::write("BENCH_scenarios.json", &json) {
        return format!("{json}# write failed: {e}\n");
    }
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_bench_pins_the_matrix_invariants() {
        let json = scenarios(RunScale::Tiny);
        assert!(
            json.contains("\"transient_matches_default\": true"),
            "transient scenario must reproduce the default pipeline:\n{json}"
        );
        assert!(
            json.contains("\"scenario_fronts_distinct\": true"),
            "every new axis must move the front:\n{json}"
        );
        assert!(
            json.contains("\"lifetime_adds_mttf_objective\": true"),
            "lifetime runs tri-objective:\n{json}"
        );
        assert!(
            json.contains("\"agnostic_baseline_complete\": true"),
            "the Agnostic baseline must complete under every scenario:\n{json}"
        );
        for cell in ["transient", "lifetime:5000", "chkmodes", "fpga"] {
            assert!(
                json.contains(&format!("\"scenario\": \"{cell}\"")),
                "missing matrix cell {cell}:\n{json}"
            );
        }
        let _ = std::fs::remove_file("BENCH_scenarios.json");
    }
}
