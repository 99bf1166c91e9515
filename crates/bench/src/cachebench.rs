//! Evaluation-cache benchmark: quantifies the content-addressed fitness
//! cache (`clre::cache`) on the acceptance workload — fcCLR over a
//! 100-task synthetic application.
//!
//! Three timed phases share one application and budget:
//!
//! 1. **uncached** — the plain run, the baseline throughput;
//! 2. **cached-cold** — the same run with an empty cache attached
//!    (populates it, pays the insert overhead);
//! 3. **cached-warm** — the identical run again against the now-warm
//!    cache (the warm-start scenario of a resumed campaign or a repeated
//!    sweep cell).
//!
//! All three runs must produce bit-identical fronts — the benchmark reports
//! `fronts_identical` and refuses to claim a speedup without it.
//!
//! [`eval_cache`] returns the report as JSON (hand-formatted — the
//! workspace deliberately carries no serde implementation) and writes it
//! to `BENCH_eval_cache.json` for CI to archive as a perf-trajectory
//! artifact.

use std::sync::Arc;
use std::time::Instant;

use clre::cache::CacheCounts;
use clre::methodology::{ClrEarly, StageBudget};
use clre::{CampaignPlan, EvalCache, FrontResult};

use crate::exec_config::ExecConfig;
use crate::RunScale;

/// Task count of the acceptance workload.
const TASKS: usize = 100;
/// Application seed (kept distinct from the sweep experiments so ledger
/// cells never alias this workload).
const APP_SEED: u64 = 107;

/// One timed fcCLR run; returns the front and the wall-clock seconds.
fn timed_run(dse: &ClrEarly, budget: &StageBudget) -> (FrontResult, f64) {
    let t0 = Instant::now();
    let result = dse.run(&CampaignPlan::fc(), budget).expect("fcCLR runs");
    (result, t0.elapsed().as_secs_f64())
}

fn json_counts(c: CacheCounts) -> String {
    format!(
        "{{\"hits\": {}, \"misses\": {}, \"inserts\": {}, \"hit_rate\": {:.4}}}",
        c.hits,
        c.misses,
        c.inserts,
        c.hit_rate()
    )
}

fn json_phase(secs: f64, evaluations: usize) -> String {
    format!(
        "{{\"secs\": {:.3}, \"evaluations\": {}, \"evals_per_sec\": {:.1}}}",
        secs,
        evaluations,
        evaluations as f64 / secs.max(1e-9)
    )
}

/// Runs the benchmark at `scale` and returns the JSON report (also
/// written to `BENCH_eval_cache.json` in the working directory; a write
/// failure is reported inside the JSON rather than aborting the bench).
pub fn eval_cache(scale: RunScale, config: &ExecConfig) -> String {
    let budget = scale.budget();
    let (platform, graph) = clre::apps::synthetic_app(TASKS, APP_SEED).expect("app builds");

    // Baseline: no cache anywhere (deliberately NOT config.apply, so a
    // `--cache` on the config cannot contaminate the baseline).
    let uncached_dse = ClrEarly::new(&graph, &platform)
        .expect("tDSE succeeds")
        .with_executor(config.executor());
    let (front_uncached, secs_uncached) = timed_run(&uncached_dse, &budget);

    // Cold populates the cache, warm replays it.
    let cache = EvalCache::shared();
    let cached_dse = ClrEarly::new(&graph, &platform)
        .expect("tDSE succeeds")
        .with_executor(config.executor())
        .with_cache(Arc::clone(&cache));
    let (front_cold, secs_cold) = timed_run(&cached_dse, &budget);
    let (front_warm, secs_warm) = timed_run(&cached_dse, &budget);
    let fitness = cache.fitness_counts();

    let identical = front_uncached.objectives() == front_cold.objectives()
        && front_uncached.objectives() == front_warm.objectives();
    let speedup = if identical {
        secs_uncached / secs_warm.max(1e-9)
    } else {
        // A speedup claim over a different answer is meaningless.
        0.0
    };

    let json = format!(
        "{{\n  \"bench\": \"eval_cache\",\n  \"application_tasks\": {TASKS},\n  \"method\": \"fcCLR\",\n  \"population\": {},\n  \"generations\": {},\n  \"workers\": {},\n  \"uncached\": {},\n  \"cached_cold\": {},\n  \"cached_warm\": {},\n  \"warm_speedup_vs_uncached\": {:.2},\n  \"fitness\": {},\n  \"fronts_identical\": {}\n}}\n",
        budget.population,
        budget.generations,
        config.workers(),
        json_phase(secs_uncached, front_uncached.evaluations),
        json_phase(secs_cold, front_cold.evaluations),
        json_phase(secs_warm, front_warm.evaluations),
        speedup,
        json_counts(fitness),
        identical,
    );
    if let Err(e) = std::fs::write("BENCH_eval_cache.json", &json) {
        return format!("{json}# write failed: {e}\n");
    }
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_cache_bench_meets_acceptance_floor() {
        let json = eval_cache(RunScale::Tiny, &ExecConfig::default());
        assert!(
            json.contains("\"fronts_identical\": true"),
            "cached runs diverged:\n{json}"
        );
        // ≥ 30% overall fitness hit-rate: the warm phase replays every
        // evaluation of the cold phase, so the floor holds with margin.
        let rate: f64 = json
            .lines()
            .find(|l| l.contains("\"fitness\""))
            .and_then(|l| l.rsplit("\"hit_rate\": ").next())
            .and_then(|t| t.trim_end_matches(['}', ',', ' ']).parse().ok())
            .expect("fitness hit_rate present");
        assert!(rate >= 0.30, "fitness hit rate {rate} below 30%:\n{json}");
        let _ = std::fs::remove_file("BENCH_eval_cache.json");
    }
}
