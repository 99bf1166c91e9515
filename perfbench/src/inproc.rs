//! The in-process workload `tdse-cold`, and the reference runner, traced
//! library build and trace helpers it shares with `serve-mixed`. Each job
//! ends in Pareto fronts whose digests the gate checks against a serial,
//! uncached, in-process reference.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use clre::apps::synthetic_app;
use clre::encoding::Genome;
use clre::tdse::{candidates_for_type_with_health, TdseConfig, TdseHealth};
use clre::{CampaignPlan, ClrEarly, EvalCache, FrontResult, ImplLibrary, Scenario, StageBudget};
use clre_bench::exec_config::ExecConfig;
use clre_exec::GenerationTrace;
use clre_model::{ObjectiveSet, Platform, TaskGraph, TaskTypeId};
use clre_serve::server::front_digest;

use crate::gate::Gate;
use crate::layers::{add_counts, replay_markov, LayerSums};
use crate::report::{EndToEnd, Outcome};
use crate::stats::{ms_since, nproc, peak_rss_mb, timed, Seeds};
use crate::Config;

/// The four scenario presets every tdse-cold job explores.
const PRESETS: [&str; 4] = ["transient", "lifetime:5000", "chkmodes", "fpga"];
/// tdse-cold: tasks per application and the per-preset GA budget.
const COLD_TASKS: usize = 20;
const COLD_BUDGET: (usize, usize) = (16, 8);
/// tdse-cold set-up repetitions (each is a small warm-up exploration).
const COLD_SETUP_REPS: usize = 5;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn budget((population, generations): (usize, usize), seed: u64) -> StageBudget {
    StageBudget::new(population, generations).with_seed(seed)
}

pub(crate) fn genomes(front: &FrontResult) -> Vec<Genome> {
    front.front().iter().map(|p| p.genome.clone()).collect()
}

pub(crate) fn records(config: &ExecConfig) -> Vec<GenerationTrace> {
    config
        .trace()
        .map(|sink| sink.lock().expect("telemetry sink").records().to_vec())
        .unwrap_or_default()
}

/// Runs `f` over `items` on `nproc` threads (reference runs, after
/// the timed phase); results keep the input order.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..nproc().min(items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                out.lock().expect("results")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("results")
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// One finished job: its front digests and timings.
struct Done {
    digests: Vec<u64>,
    wall_ms: f64,
    first_ms: f64,
}

/// tdse-cold's closed loop: runs jobs until
/// `seconds` have passed, recording their latencies in `e2e`; in a
/// traced run, even jobs run untraced and odd jobs traced. Returns each
/// job's outcome, indexed by job number.
fn closed_loop(
    cfg: &Config,
    gate: &mut Gate,
    e2e: &mut EndToEnd,
    sums: &mut LayerSums,
    mut job: impl FnMut(Option<&mut LayerSums>) -> Res<Done>,
) -> Vec<Option<Done>> {
    let t0 = Instant::now();
    let mut done = Vec::new();
    let mut i = 0;
    while t0.elapsed().as_secs_f64() < cfg.seconds {
        gate.attempt();
        let traced = cfg.trace && i % 2 == 1;
        match job(traced.then_some(&mut *sums)) {
            Ok(d) => {
                e2e.front_ms.push(d.wall_ms);
                e2e.first_ms.push(d.first_ms);
                if cfg.trace {
                    if traced {
                        sums.traced_jobs += 1;
                        sums.traced_wall_ms += d.wall_ms;
                    } else {
                        sums.untraced_jobs += 1;
                        sums.untraced_wall_ms += d.wall_ms;
                    }
                }
                done.push(Some(d));
            }
            Err(e) => {
                gate.fail(format!("job{i}: {e}"));
                done.push(None);
            }
        }
        i += 1;
    }
    e2e.timed_s = t0.elapsed().as_secs_f64();
    e2e.peak_rss_mb = peak_rss_mb(None);
    done
}

/// Compares every finished job with its reference digests.
fn check(gate: &mut Gate, done: &[Option<Done>], references: &[Res<Vec<u64>>]) {
    for (i, (job, reference)) in done.iter().zip(references).enumerate() {
        let Some(job) = job else { continue };
        match reference {
            Ok(reference) => {
                gate.compare(&format!("job{i}"), &job.digests, reference);
            }
            Err(e) => gate.fail(format!("job{i} reference: {e}")),
        }
    }
}

fn finish(cfg: &Config, gate: Gate, e2e: &EndToEnd, sums: &LayerSums) -> Outcome {
    let error_rate = gate.error_rate();
    let ms: Vec<String> = e2e.front_ms.iter().map(|m| format!("{m:.0}")).collect();
    let setup: Vec<String> = e2e.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    let mut notes = vec![
        format!("job ms: {}", ms.join(" ")),
        format!("set-up s: {}", setup.join(" ")),
    ];
    notes.extend(gate.notes().iter().cloned());
    Outcome {
        attempted: gate.attempted(),
        failed: gate.bad(),
        metrics: if cfg.trace {
            sums.report(error_rate)
        } else {
            e2e.report(error_rate)
        },
        notes,
    }
}

// --- tdse-cold ---------------------------------------------------------

/// tdse-cold: every job is a new application explored under all four
/// scenario presets, each with a fresh evaluation cache, each ending in
/// a `proposed` front.
pub fn tdse_cold(cfg: &Config) -> Outcome {
    let n = nproc();
    let presets: Vec<Scenario> = PRESETS
        .iter()
        .map(|p| Scenario::parse(p).expect("built-in preset parses"))
        .collect();
    // No job shares work with another, so set-up is only what any first
    // use pays: the preset configurations, the executor, and one small
    // warm-up exploration (a one-task application, transient, pop 4 × 1).
    let mut e2e = EndToEnd::default();
    // A fixed input, so every run pays the same set-up.
    let warm_seed = 1;
    for _ in 0..COLD_SETUP_REPS {
        let t0 = Instant::now();
        let configs: Vec<TdseConfig> = presets
            .iter()
            .map(|s| s.tdse_config().expect("preset configuration"))
            .collect();
        let exec = ExecConfig::new().with_workers(n).executor();
        let (platform, graph) = synthetic_app(1, warm_seed).expect("warm-up app");
        let front = ClrEarly::with_tdse_config(&graph, &platform, configs[0].clone())
            .and_then(|dse| {
                dse.with_executor(exec)
                    .run(&CampaignPlan::proposed(), &budget((4, 1), warm_seed))
            })
            .expect("warm-up exploration");
        std::hint::black_box(front);
        e2e.setup_s.push(t0.elapsed().as_secs_f64());
    }

    let mut seeds = Seeds::new(cfg.seed, 1);
    let mut jobs: Vec<(u64, u64)> = Vec::new();
    let mut gate = Gate::new(cfg.tamper);
    let mut sums = LayerSums::default();
    let mut efficiency_measured = false;
    let done = closed_loop(cfg, &mut gate, &mut e2e, &mut sums, |traced| {
        let job = (seeds.next_seed(), seeds.next_seed());
        jobs.push(job);
        let measure_efficiency = traced.is_some() && !efficiency_measured;
        efficiency_measured |= measure_efficiency;
        cold_job(job, &presets, n, traced, measure_efficiency)
    });

    let references = par_map(&jobs, |&(app_seed, ga_seed)| -> Res<Vec<u64>> {
        let (platform, graph) = synthetic_app(COLD_TASKS, app_seed).map_err(err)?;
        presets
            .iter()
            .map(|scenario| {
                let dse = ClrEarly::with_scenario(&graph, &platform, scenario).map_err(err)?;
                let front = dse
                    .run(&CampaignPlan::proposed(), &budget(COLD_BUDGET, ga_seed))
                    .map_err(err)?;
                Ok(front_digest(&front))
            })
            .collect()
    });
    check(&mut gate, &done, &references);
    finish(cfg, gate, &e2e, &sums)
}

fn cold_job(
    (app_seed, ga_seed): (u64, u64),
    presets: &[Scenario],
    workers: usize,
    mut traced: Option<&mut LayerSums>,
    measure_efficiency: bool,
) -> Res<Done> {
    let t0 = Instant::now();
    let (platform, graph) = synthetic_app(COLD_TASKS, app_seed).map_err(err)?;
    let mut first_ms = 0.0;
    let mut digests = Vec::with_capacity(presets.len());
    // Kept for the replays after the timed interval.
    let mut kept: Vec<(TdseConfig, ClrEarly<'_>, FrontResult, ObjectiveSet)> = Vec::new();
    for scenario in presets {
        let cache = EvalCache::shared();
        let tdse = scenario
            .tdse_config()
            .map_err(err)?
            .with_eval_cache(Arc::clone(&cache));
        let mut config = ExecConfig::new().with_workers(workers);
        let dse = match traced.as_deref_mut() {
            None => ClrEarly::with_tdse_config(&graph, &platform, tdse.clone()).map_err(err)?,
            Some(sums) => {
                config = config.with_trace();
                traced_build(sums, &graph, &platform, &tdse, &cache)?
            }
        };
        let dse = dse
            .with_objectives(scenario.system_objectives())
            .with_executor(config.executor())
            .with_cache(Arc::clone(&cache));
        let fitness_before = cache.fitness_counts();
        let front = dse
            .run(&CampaignPlan::proposed(), &budget(COLD_BUDGET, ga_seed))
            .map_err(err)?;
        digests.push(front_digest(&front));
        if first_ms == 0.0 {
            first_ms = ms_since(t0);
        }
        if let Some(sums) = traced.as_deref_mut() {
            sums.absorb_records(&records(&config));
            add_counts(&mut sums.fitness, &fitness_before, &cache.fitness_counts());
            sums.cache_entries += (cache.analysis_len() + cache.fitness_len()) as u64;
            kept.push((tdse, dse, front, scenario.system_objectives()));
        }
    }
    let wall_ms = ms_since(t0);
    if let Some(sums) = traced {
        for (i, (tdse, dse, front, objectives)) in kept.iter().enumerate() {
            let (analyses, ms) = replay_markov(&graph, &platform, tdse);
            sums.markov_analyses += analyses;
            sums.markov_ms += ms;
            let genomes = genomes(front);
            sums.replay_eval(&graph, &platform, dse.library(), &genomes);
            if measure_efficiency && i == 0 {
                sums.measure_parallel_efficiency(
                    &graph,
                    &platform,
                    dse.library(),
                    objectives,
                    &genomes,
                );
            }
        }
    }
    Ok(Done {
        digests,
        wall_ms,
        first_ms,
    })
}

/// A traced library build: the catalog sweep per task type and the
/// Pareto grouping are timed as separate calls, then the orchestrator is
/// constructed over the now-warm cache (its time is attributed to tDSE
/// and is part of the tracing overhead).
pub(crate) fn traced_build<'a>(
    sums: &mut LayerSums,
    graph: &'a TaskGraph,
    platform: &'a Platform,
    tdse: &TdseConfig,
    cache: &Arc<EvalCache>,
) -> Res<ClrEarly<'a>> {
    let before = cache.analysis_counts();
    let mut health = TdseHealth::default();
    let (candidates, sweep_ms) = timed(|| {
        (0..graph.task_types().len())
            .map(|ty| {
                candidates_for_type_with_health(
                    graph,
                    platform,
                    TaskTypeId::new(ty as u32),
                    tdse,
                    &mut health,
                )
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let after = cache.analysis_counts();
    let (library, pareto_ms) = timed(|| {
        ImplLibrary::from_candidates(candidates?, platform.pe_types().len(), &tdse.objectives)
            .and_then(|lib| lib.validate_for(graph).map(|()| lib))
    });
    library.map_err(err)?;
    let (dse, rebuild_ms) = timed(|| ClrEarly::with_tdse_config(graph, platform, tdse.clone()));
    sums.tdse_builds += 1;
    sums.tdse_sweep_ms += sweep_ms;
    sums.tdse_pareto_ms += pareto_ms;
    sums.tdse_build_ms += sweep_ms + pareto_ms;
    sums.tdse_candidates += health.candidates_evaluated as u64;
    sums.attributed_ms += sweep_ms + pareto_ms + rebuild_ms;
    add_counts(&mut sums.analysis, &before, &after);
    dse.map_err(err)
}
