//! Per-layer accounting for traced runs. Every number here is taken
//! from outside the program: wall time around calls into a layer's
//! public functions, trace-v1 `GenerationTrace` records, cache and
//! backend counters, and the serve `stats` line. Replays (Markov
//! analyses, genome decode/schedule/QoS, the pool efficiency batch) run
//! outside every job's timed interval.

use std::time::Instant;

use clre::encoding::{ChoiceMode, Codec, Genome};
use clre::problem::SystemProblem;
use clre::tdse::{chain_spec, DvfsPolicy, TdseConfig};
use clre::{CacheCounts, ImplLibrary};
use clre_exec::{ExecPool, GenerationTrace};
use clre_markov::clr::analyze_robust_spec;
use clre_model::platform::PeKind;
use clre_model::{ObjectiveSet, Platform, QosSpec, TaskGraph};
use clre_sched::{list_schedule, QosEvaluator};

use crate::report::Report;
use crate::stats::{median, nproc, timed};

/// Replays per genome when timing decode/schedule/QoS: one pass over a
/// front is only microseconds.
const EVAL_REPLAYS: usize = 20;
/// Items in the pool-efficiency batch, and how often it is timed.
const EFFICIENCY_BATCH: usize = 256;
const EFFICIENCY_REPS: usize = 5;

/// Sums over the traced jobs of one run (plus the untraced jobs'
/// wall time, for the tracing overhead).
#[derive(Debug, Default)]
pub struct LayerSums {
    pub traced_jobs: u64,
    pub traced_wall_ms: f64,
    /// Jobs that server-wide counters (cache, Markov misses) cover, when
    /// those are not per traced job; 0 = the traced jobs.
    pub counter_jobs: u64,
    pub untraced_jobs: u64,
    pub untraced_wall_ms: f64,
    /// Job time attributed to a layer (tDSE calls, evaluation batches,
    /// selection kernels, server admission).
    pub attributed_ms: f64,

    pub markov_analyses: u64,
    pub markov_ms: f64,
    /// Analyses and time of the Markov replay itself, when the per-job
    /// count comes from elsewhere (serve-mixed).
    pub markov_replay: (u64, f64),

    pub tdse_builds: u64,
    pub tdse_build_ms: f64,
    pub tdse_sweep_ms: f64,
    pub tdse_pareto_ms: f64,
    pub tdse_candidates: u64,

    pub analysis: CacheCounts,
    pub fitness: CacheCounts,
    pub cache_entries: u64,

    pub eval_genomes: u64,
    pub eval_batch_ms: f64,
    pub replay_genomes: u64,
    pub decode_us: f64,
    pub schedule_us: f64,
    pub qos_us: f64,

    pub sort_ms: f64,
    pub truncate_ms: f64,
    pub dist_ms: f64,

    pub batches: u64,
    pub per_worker: Vec<u64>,
    pub parallel_efficiency: Vec<f64>,

    /// Jobs the backend counters cover (replayed jobs).
    pub backend_jobs: u64,
    pub backend_items: u64,
    pub backend_batches: u64,
    pub backend_restarts: u64,
    pub backend_lost: u64,
    pub backend_overhead_us: Vec<f64>,

    pub admit_ms: Vec<f64>,
    pub trace_gaps_ms: Vec<f64>,
    pub trace_lines: u64,
    pub rejections: u64,
    pub server_failed: u64,
    pub state_bytes: u64,
}

impl LayerSums {
    /// Folds in the trace-v1 records of one traced job.
    pub fn absorb_records(&mut self, records: &[GenerationTrace]) {
        for r in records {
            self.absorb_batch(
                r.batch as u64,
                r.wall_nanos as f64 / 1e6,
                &r.per_worker.iter().map(|&n| n as u64).collect::<Vec<_>>(),
                [r.sort_us, r.truncate_us, r.dist_us],
            );
        }
    }

    /// Folds in one streamed `trace-v1` line (the server's trace events
    /// carry the same record as text).
    pub fn absorb_trace_line(&mut self, line: &str) {
        let mut batch = 0;
        let mut eval_us = 0.0;
        let mut per_worker = Vec::new();
        let mut selection = [0u64; 3];
        for token in line.split_whitespace() {
            let Some((key, value)) = token.split_once('=') else {
                continue;
            };
            match key {
                "batch" => batch = value.parse().unwrap_or(0),
                "eval_us" => eval_us = value.parse().unwrap_or(0.0),
                "per_worker" => {
                    per_worker = value.split('|').filter_map(|n| n.parse().ok()).collect();
                }
                "sort_us" => selection[0] = value.parse().unwrap_or(0),
                "truncate_us" => selection[1] = value.parse().unwrap_or(0),
                "dist_us" => selection[2] = value.parse().unwrap_or(0),
                _ => {}
            }
        }
        self.trace_lines += 1;
        self.absorb_batch(batch, eval_us / 1e3, &per_worker, selection);
    }

    fn absorb_batch(
        &mut self,
        items: u64,
        eval_ms: f64,
        per_worker: &[u64],
        selection_us: [u64; 3],
    ) {
        self.batches += 1;
        self.eval_genomes += items;
        self.eval_batch_ms += eval_ms;
        if self.per_worker.len() < per_worker.len() {
            self.per_worker.resize(per_worker.len(), 0);
        }
        for (sum, n) in self.per_worker.iter_mut().zip(per_worker) {
            *sum += n;
        }
        let [sort, truncate, dist] = selection_us.map(|us| us as f64 / 1e3);
        self.sort_ms += sort;
        self.truncate_ms += truncate;
        self.dist_ms += dist;
        self.attributed_ms += eval_ms + sort + truncate + dist;
    }

    /// Times decode, list schedule and QoS evaluation of `genomes` on
    /// their codec (replayed, outside the job).
    pub fn replay_eval(
        &mut self,
        graph: &TaskGraph,
        platform: &Platform,
        library: &ImplLibrary,
        genomes: &[Genome],
    ) {
        let Ok(codec) = Codec::new(graph, platform, library, ChoiceMode::Full) else {
            return;
        };
        let qos = QosEvaluator::new(platform);
        for genome in genomes {
            for _ in 0..EVAL_REPLAYS {
                let (mapping, decode) = timed(|| codec.try_decode(genome));
                let Ok(mapping) = mapping else { return };
                let (_, schedule) = timed(|| list_schedule(graph, platform, &mapping));
                let (_, full) = timed(|| qos.evaluate_with_schedule(graph, &mapping));
                self.decode_us += decode * 1e3;
                self.schedule_us += schedule * 1e3;
                // `evaluate_with_schedule` schedules again; its QoS share
                // is what remains.
                self.qos_us += (full - schedule).max(0.0) * 1e3;
                self.replay_genomes += 1;
            }
        }
    }

    /// Times one batch of `genomes` (cycled to a fixed size) through a
    /// one-worker pool and an `nproc`-worker pool: t₁ ÷ (nproc·tₙ).
    pub fn measure_parallel_efficiency(
        &mut self,
        graph: &TaskGraph,
        platform: &Platform,
        library: &ImplLibrary,
        objectives: &ObjectiveSet,
        genomes: &[Genome],
    ) {
        let Ok(codec) = Codec::new(graph, platform, library, ChoiceMode::Full) else {
            return;
        };
        if genomes.is_empty() {
            return;
        }
        let problem = SystemProblem::new(codec, objectives.clone(), QosSpec::new());
        let items: Vec<&Genome> = genomes.iter().cycle().take(EFFICIENCY_BATCH).collect();
        let n = nproc();
        let time_pool = |workers: usize| {
            let pool = ExecPool::new(workers);
            let times: Vec<f64> = (0..EFFICIENCY_REPS)
                .map(|_| {
                    timed(|| pool.evaluate_batch(&items, |g| problem.try_evaluate(g).is_ok())).1
                })
                .collect();
            median(&times)
        };
        let t1 = time_pool(1);
        let tn = time_pool(n);
        if tn > 0.0 {
            self.parallel_efficiency.push(t1 / (n as f64 * tn));
        }
    }

    /// The per-layer metrics. Counts and times are per traced job;
    /// ratios are ratios of sums.
    pub fn report(&self, error_rate: f64) -> Report {
        let jobs = self.traced_jobs.max(1) as f64;
        let per_job = |x: f64| x / jobs;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let mut r = Report::default();

        let counter_jobs = if self.counter_jobs > 0 {
            self.counter_jobs as f64
        } else {
            jobs
        };
        let per_counter_job = |x: f64| x / counter_jobs;
        let build_ms = per_job(self.tdse_build_ms);
        let analyses = per_counter_job(self.markov_analyses as f64);
        let (replay_n, replay_ms) = self.markov_replay;
        // Without in-process analyses to time (serve-mixed), the per-job
        // cost is the server's analysis count at the replayed rate.
        let (us_per_analysis, markov_ms) = if replay_n > 0 {
            let us = replay_ms * 1e3 / replay_n as f64;
            (us, analyses * us / 1e3)
        } else {
            (
                ratio(self.markov_ms * 1e3, self.markov_analyses as f64),
                per_job(self.markov_ms),
            )
        };
        r.put("markov.analyses", analyses, "count");
        r.put("markov.analyze_ms", markov_ms, "ms");
        r.put("markov.us_per_analysis", us_per_analysis, "us");
        r.put("markov.share", ratio(markov_ms, build_ms), "ratio");

        r.put("tdse.builds", per_job(self.tdse_builds as f64), "count");
        r.put("tdse.build_ms", build_ms, "ms");
        r.put("tdse.sweep_ms", per_job(self.tdse_sweep_ms), "ms");
        r.put("tdse.pareto_ms", per_job(self.tdse_pareto_ms), "ms");
        r.put(
            "tdse.candidates",
            per_job(self.tdse_candidates as f64),
            "count",
        );
        r.put(
            "tdse.candidates_per_s",
            ratio(self.tdse_candidates as f64, self.tdse_sweep_ms / 1e3),
            "1/s",
        );

        let lookups = |c: &CacheCounts| (c.hits + c.misses) as f64;
        r.put(
            "cache.analysis_lookups",
            per_counter_job(lookups(&self.analysis)),
            "count",
        );
        r.put(
            "cache.analysis_hit_rate",
            ratio(self.analysis.hits as f64, lookups(&self.analysis)),
            "ratio",
        );
        r.put(
            "cache.fitness_lookups",
            per_counter_job(lookups(&self.fitness)),
            "count",
        );
        r.put(
            "cache.fitness_hit_rate",
            ratio(self.fitness.hits as f64, lookups(&self.fitness)),
            "ratio",
        );
        r.put(
            "cache.entries",
            per_counter_job(self.cache_entries as f64),
            "count",
        );

        let replays = self.replay_genomes as f64;
        r.put("eval.genomes", per_job(self.eval_genomes as f64), "count");
        r.put("eval.decode_us", ratio(self.decode_us, replays), "us");
        r.put("eval.schedule_us", ratio(self.schedule_us, replays), "us");
        r.put("eval.qos_us", ratio(self.qos_us, replays), "us");
        r.put("eval.batch_ms", per_job(self.eval_batch_ms), "ms");

        let selection = self.sort_ms + self.truncate_ms + self.dist_ms;
        r.put("moea.sort_ms", per_job(self.sort_ms), "ms");
        r.put("moea.truncate_ms", per_job(self.truncate_ms), "ms");
        r.put("moea.dist_ms", per_job(self.dist_ms), "ms");
        r.put(
            "moea.selection_share",
            ratio(selection, self.traced_wall_ms),
            "ratio",
        );

        // max ÷ mean of the per-worker item sums: 1 when even, `nproc` when
        // one worker took every item (max ÷ min is unbounded then).
        let max = self.per_worker.iter().copied().max().unwrap_or(0) as f64;
        let total = self.per_worker.iter().sum::<u64>() as f64;
        let mean = total / self.per_worker.len().max(1) as f64;
        r.put("exec.batches", per_job(self.batches as f64), "count");
        r.put("exec.worker_imbalance", ratio(max, mean), "ratio");
        r.put(
            "exec.parallel_efficiency",
            median(&self.parallel_efficiency),
            "ratio",
        );

        let backend_jobs = self.backend_jobs.max(1) as f64;
        r.put(
            "backend.items",
            self.backend_items as f64 / backend_jobs,
            "count",
        );
        r.put(
            "backend.batches",
            self.backend_batches as f64 / backend_jobs,
            "count",
        );
        r.put("backend.restarts", self.backend_restarts as f64, "count");
        r.put("backend.lost", self.backend_lost as f64, "count");
        r.put(
            "backend.overhead_us_per_item",
            median(&self.backend_overhead_us),
            "us",
        );

        r.put("serve.admit_ms_p50", median(&self.admit_ms), "ms");
        r.put("serve.trace_gap_ms_p50", median(&self.trace_gaps_ms), "ms");
        r.put(
            "serve.trace_lines",
            per_job(self.trace_lines as f64),
            "count",
        );
        r.put("serve.rejections", self.rejections as f64, "count");
        r.put("serve.failed", self.server_failed as f64, "count");

        r.put(
            "resilience.state_bytes_per_job",
            if self.state_bytes > 0 {
                self.state_bytes as f64 / (self.traced_jobs + self.untraced_jobs).max(1) as f64
            } else {
                0.0
            },
            "bytes",
        );

        r.put(
            "campaign.residual_ms",
            per_job(self.traced_wall_ms - self.attributed_ms),
            "ms",
        );
        r.put(
            "trace.coverage",
            ratio(self.attributed_ms, self.traced_wall_ms),
            "ratio",
        );
        let traced_rate = ratio(self.traced_jobs as f64, self.traced_wall_ms);
        let untraced_rate = ratio(self.untraced_jobs as f64, self.untraced_wall_ms);
        r.put("trace.overhead", ratio(traced_rate, untraced_rate), "ratio");
        r.put("error_rate", error_rate, "ratio");
        r
    }
}

/// Adds the counter deltas `after - before` to `sum`.
pub fn add_counts(sum: &mut CacheCounts, before: &CacheCounts, after: &CacheCounts) {
    sum.hits += after.hits - before.hits;
    sum.misses += after.misses - before.misses;
    sum.inserts += after.inserts - before.inserts;
}

/// Re-runs every Markov analysis a library build under `tdse` performs
/// (uncached), timing only the `analyze_robust_spec` calls. Returns the
/// analysis count and milliseconds.
pub fn replay_markov(graph: &TaskGraph, platform: &Platform, tdse: &TdseConfig) -> (u64, f64) {
    let mut count = 0u64;
    let mut nanos = 0u128;
    for task_type in graph.task_types() {
        for imp in task_type.impls() {
            let Some(pe_type) = platform.pe_type(imp.pe_type()) else {
                continue;
            };
            let modes = match tdse.dvfs_policy {
                DvfsPolicy::All => pe_type.dvfs_modes(),
                DvfsPolicy::NominalOnly => &pe_type.dvfs_modes()[..1],
            };
            for mode in modes {
                for clr in &tdse.clr_catalog {
                    if clr.hw.requires_reconfigurable()
                        && pe_type.kind() != PeKind::ReconfigurableRegion
                    {
                        continue;
                    }
                    let spec = chain_spec(
                        imp,
                        pe_type,
                        mode,
                        clr,
                        &tdse.profile,
                        tdse.implicit_masking_override,
                        tdse.reliability_model,
                    );
                    let t0 = Instant::now();
                    let analysis = analyze_robust_spec(&spec);
                    nanos += t0.elapsed().as_nanos();
                    std::hint::black_box(&analysis);
                    count += 1;
                }
            }
        }
    }
    (count, nanos as f64 / 1e6)
}
