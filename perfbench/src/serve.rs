//! `serve-mixed`: a `clre-server` process with `nproc` workers, driven
//! in a closed loop by `nproc` client connections. One submission in
//! four names an application the server has not built; the other three
//! reuse the application whose first submission the same connection has
//! already seen finish.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clre::apps::synthetic_app;
use clre::encoding::Genome;
use clre::{AppSpec, BackendChoice, CampaignPlan, ClrEarly, EvalCache, Scenario, StageBudget};
use clre_bench::exec_config::ExecConfig;
use clre_exec::GenerationTrace;
use clre_model::ObjectiveSet;
use clre_serve::client::{Event, ServeClient, Submission};
use clre_serve::server::front_digest;
use clre_serve::wire::SubmitRequest;

use crate::gate::Gate;
use crate::inproc::{genomes, par_map, records, traced_build};
use crate::layers::{replay_markov, LayerSums};
use crate::report::{EndToEnd, Outcome};
use crate::stats::{median, ms_since, nproc, peak_rss_mb, sibling_binary, Seeds};
use crate::Config;

const TASKS: usize = 50;
const BUDGET: (usize, usize) = (60, 30);
const TENANTS: [&str; 4] = ["t0", "t1", "t2", "t3"];
/// One submission in this many names a new application.
const COLD_EVERY: usize = 4;
/// A run keeps submitting past `--seconds` until this many submissions
/// have finished, so p90 has at least ten samples beyond it.
const MIN_SUBMISSIONS: usize = 110;
/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Cold applications rebuilt in process (traced runs) to split the
/// server's library builds into sweep and Pareto time.
const BUILD_SAMPLES: usize = 2;

type Res<T> = Result<T, String>;

/// A running `clre-server` child; stopped (and waited for) on drop.
struct ServerProc {
    child: Child,
    addr: String,
    /// Drains the server's stdout after the `listening` line.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    /// Starts a server and returns it with the time from spawn to its
    /// `listening` line (bound and accepting), in seconds.
    fn spawn(bin: &Path, root: &Path, workers: usize) -> Res<(ServerProc, f64)> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .arg("--root")
            .arg(root)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line.trim().strip_prefix("listening ").map(str::to_owned),
            Err(_) => None,
        };
        let ready_s = t0.elapsed().as_secs_f64();
        // Drain the rest so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        });
        let mut server = ServerProc {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        server.addr = addr.ok_or_else(|| format!("server did not report its address: {line:?}"))?;
        ServeClient::connect(&server.addr)
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("server ping: {e}"))?;
        Ok((server, ready_s))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn stats(&self) -> Res<String> {
        ServeClient::connect(&self.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("stats: {e}"))
    }

    /// Graceful shutdown, then wait; kills the process if it lingers.
    fn stop(mut self) {
        if let Ok(mut client) = ServeClient::connect(&self.addr) {
            let _ = client.shutdown();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Drop kills and reaps it.
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        // The pipe closed with the process, so the drain ends.
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One submission of the schedule.
#[derive(Debug, Clone)]
struct Sub {
    tenant: &'static str,
    app_seed: u64,
    ga_seed: u64,
    cold: bool,
}

impl Sub {
    fn request(&self) -> SubmitRequest {
        SubmitRequest {
            tenant: self.tenant.to_owned(),
            app: AppSpec::Synthetic {
                tasks: TASKS,
                seed: self.app_seed,
            },
            budget: StageBudget::new(BUDGET.0, BUDGET.1).with_seed(self.ga_seed),
            plan: CampaignPlan::proposed(),
            scenario: Scenario::Transient,
        }
    }
}

/// What one submission observed on the wire.
#[derive(Debug)]
struct Observed {
    sub: Sub,
    admit_ms: f64,
    first_ms: f64,
    done_ms: f64,
    /// `Ok(digest)`, or the rejection/error.
    result: Result<u64, (bool, String)>,
    traced: bool,
    lines: Vec<String>,
    gaps_ms: Vec<f64>,
}

/// Submissions finished across all connections, and the server's peak
/// memory when the `MIN_SUBMISSIONS`-th finished: a fixed amount of work,
/// so a faster server (more submissions per run, a larger cache) does not
/// read as a memory regression.
struct Progress {
    server_pid: u32,
    finished: AtomicUsize,
    peak_rss_mb: Mutex<f64>,
}

impl Progress {
    fn finish_one(&self) {
        if self.finished.fetch_add(1, Ordering::SeqCst) + 1 == MIN_SUBMISSIONS {
            *self.peak_rss_mb.lock().expect("rss slot") = peak_rss_mb(Some(self.server_pid));
        }
    }

    fn over(&self, deadline: Instant) -> bool {
        Instant::now() >= deadline && self.finished.load(Ordering::SeqCst) >= MIN_SUBMISSIONS
    }
}

/// Runs one connection's closed loop until `deadline` has passed and
/// `MIN_SUBMISSIONS` have finished on all connections together.
fn connection(
    addr: &str,
    conn: usize,
    seed: u64,
    deadline: Instant,
    progress: &Progress,
    trace: bool,
) -> Res<Vec<Observed>> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut seeds = Seeds::new(seed, 100 + conn as u64);
    let mut out = Vec::new();
    let mut app_seed = 0;
    let mut k = 0;
    while !progress.over(deadline) {
        let cold = k % COLD_EVERY == 0;
        if cold {
            app_seed = seeds.next_seed();
        }
        let sub = Sub {
            tenant: TENANTS[(k + conn) % TENANTS.len()],
            app_seed,
            ga_seed: seeds.next_seed(),
            cold,
        };
        // Whole cold+warm cycles alternate, so traced jobs keep the mix.
        let traced = trace && (k / COLD_EVERY) % 2 == 1;
        out.push(submit(&mut client, sub, traced)?);
        progress.finish_one();
        k += 1;
    }
    Ok(out)
}

fn submit(client: &mut ServeClient, sub: Sub, traced: bool) -> Res<Observed> {
    let t0 = Instant::now();
    let mut seen = Observed {
        sub,
        admit_ms: 0.0,
        first_ms: 0.0,
        done_ms: 0.0,
        result: Err((false, String::new())),
        traced,
        lines: Vec::new(),
        gaps_ms: Vec::new(),
    };
    match client
        .submit(&seen.sub.request())
        .map_err(|e| format!("submit: {e}"))?
    {
        Submission::Accepted { .. } => seen.admit_ms = ms_since(t0),
        Submission::Rejected { reason, detail } => {
            seen.result = Err((true, format!("rejected {reason} {detail}")));
            return Ok(seen);
        }
    }
    let mut last = 0.0;
    loop {
        match client.next_event().map_err(|e| format!("event: {e}"))? {
            Event::Trace(line) => {
                let now = ms_since(t0);
                if seen.first_ms == 0.0 {
                    seen.first_ms = now;
                } else if traced {
                    seen.gaps_ms.push(now - last);
                }
                last = now;
                if traced {
                    seen.lines.push(line);
                }
            }
            Event::Done(summary) => {
                seen.done_ms = ms_since(t0);
                seen.result = Ok(summary.digest);
                return Ok(seen);
            }
            other => {
                seen.result = Err((false, format!("{other:?}")));
                return Ok(seen);
            }
        }
    }
}

/// Sum of every `key=value` token of a `stats` line whose key ends in
/// `suffix` (the per-platform cache counters).
fn stat_sum(stats: &str, suffix: &str) -> u64 {
    stats
        .split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .filter(|(k, _)| k.ends_with(suffix))
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum()
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

pub fn serve_mixed(cfg: &Config) -> Res<Outcome> {
    let n = nproc();
    let bin = sibling_binary("clre-server")?;
    let run_root = cfg.scratch.join(format!("serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_root);

    // Set-up: server spawn to `listening`, repeated; the last one serves.
    // (The first connection then waits up to one 5 ms accept-poll tick,
    // a random phase that would make the set-up time bimodal.)
    let mut e2e = EndToEnd::default();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (started, ready_s) = ServerProc::spawn(&bin, &run_root.join(format!("r{rep}")), n)?;
        e2e.setup_s.push(ready_s);
        if let Some(previous) = server.replace(started) {
            ServerProc::stop(previous);
        }
    }
    let server = server.expect("set-up ran");
    let root = run_root.join(format!("r{}", SETUP_REPS - 1));

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
    let progress = Progress {
        server_pid: server.pid(),
        finished: AtomicUsize::new(0),
        peak_rss_mb: Mutex::new(0.0),
    };
    let per_conn: Vec<Res<Vec<Observed>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|conn| {
                let addr = server.addr.clone();
                let progress = &progress;
                scope
                    .spawn(move || connection(&addr, conn, cfg.seed, deadline, progress, cfg.trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    e2e.timed_s = t0.elapsed().as_secs_f64();
    e2e.peak_rss_mb = match progress.peak_rss_mb.into_inner().expect("rss slot") {
        0.0 => peak_rss_mb(Some(server.pid())),
        mb => mb,
    };
    let stats = server.stats().unwrap_or_default();
    ServerProc::stop(server);

    let mut gate = Gate::new(cfg.tamper);
    let mut sums = LayerSums::default();
    let mut observed = Vec::new();
    for conn in per_conn {
        match conn {
            Ok(list) => observed.extend(list),
            Err(e) => {
                gate.attempt();
                gate.fail(e);
            }
        }
    }
    for o in &observed {
        gate.attempt();
        if let Err((rejected, why)) = &o.result {
            if *rejected {
                sums.rejections += 1;
                gate.reject(why.clone());
            } else {
                gate.fail(why.clone());
            }
            continue;
        }
        e2e.front_ms.push(o.done_ms);
        e2e.first_ms.push(o.first_ms);
        sums.admit_ms.push(o.admit_ms);
        if !o.traced {
            sums.untraced_jobs += 1;
            sums.untraced_wall_ms += o.done_ms;
        } else {
            sums.traced_jobs += 1;
            sums.traced_wall_ms += o.done_ms;
            for line in &o.lines {
                sums.absorb_trace_line(line);
            }
            let first_batch_ms = o.lines.first().map_or(0.0, |line| {
                let mut one = LayerSums::default();
                one.absorb_trace_line(line);
                one.eval_batch_ms
            });
            // Library build inside the server: accepted → first trace,
            // less the first batch's evaluation.
            let build = (o.first_ms - o.admit_ms - first_batch_ms).max(0.0);
            sums.tdse_builds += 1;
            sums.tdse_build_ms += build;
            sums.attributed_ms += o.admit_ms + build;
            sums.trace_gaps_ms.extend(&o.gaps_ms);
        }
    }
    // Server-wide counters cover every finished job.
    sums.counter_jobs = sums.traced_jobs + sums.untraced_jobs;
    sums.server_failed = stat_sum(&stats, "failed");
    let counts = |hits: &str, misses: &str| clre::CacheCounts {
        hits: stat_sum(&stats, hits),
        misses: stat_sum(&stats, misses),
        ..Default::default()
    };
    sums.analysis = counts("analysis_hits", "analysis_misses");
    sums.fitness = counts("fitness_hits", "fitness_misses");
    // Insert-once cache: every miss writes one entry.
    sums.cache_entries = sums.analysis.misses + sums.fitness.misses;
    sums.markov_analyses = sums.analysis.misses;
    sums.state_bytes = dir_bytes(&root);

    // References: serial, uncached, in process; one library per app.
    let mut by_app: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, o) in observed.iter().enumerate() {
        if o.result.is_ok() {
            by_app.entry(o.sub.app_seed).or_default().push(i);
        }
    }
    let groups: Vec<(u64, Vec<usize>)> = by_app.into_iter().collect();
    let replay_eval = cfg.trace;
    let results = par_map(
        &groups,
        |(app_seed, members)| -> Res<(Vec<(usize, u64)>, LayerSums)> {
            let (platform, graph) = synthetic_app(TASKS, *app_seed).map_err(|e| e.to_string())?;
            let dse = ClrEarly::new(&graph, &platform).map_err(|e| e.to_string())?;
            let mut replay = LayerSums::default();
            let mut digests = Vec::with_capacity(members.len());
            for &i in members {
                let req = observed[i].sub.request();
                let front = dse.run(&req.plan, &req.budget).map_err(|e| e.to_string())?;
                digests.push((i, front_digest(&front)));
                if replay_eval && observed[i].traced {
                    let genomes: Vec<Genome> =
                        front.front().iter().map(|p| p.genome.clone()).collect();
                    replay.replay_eval(&graph, &platform, dse.library(), &genomes);
                }
            }
            Ok((digests, replay))
        },
    );
    for (group, result) in groups.iter().zip(results) {
        match result {
            Ok((digests, replay)) => {
                for (i, digest) in digests {
                    let got = observed[i].result.as_ref().map_or(0, |d| *d);
                    gate.compare(&format!("submission{i}"), &[got], &[digest]);
                }
                sums.replay_genomes += replay.replay_genomes;
                sums.decode_us += replay.decode_us;
                sums.schedule_us += replay.schedule_us;
                sums.qos_us += replay.qos_us;
            }
            Err(e) => gate.fail(format!("reference app {}: {e}", group.0)),
        }
    }

    if cfg.trace {
        sample_builds(&mut sums, &groups)?;
        if let Some(o) = observed.iter().find(|o| o.result.is_ok()) {
            sample_backend(&mut sums, &o.sub)?;
        }
    }
    let error_rate = gate.error_rate();
    let cold: Vec<f64> = observed
        .iter()
        .filter(|o| o.sub.cold && o.result.is_ok())
        .map(|o| o.first_ms)
        .collect();
    let warm: Vec<f64> = observed
        .iter()
        .filter(|o| !o.sub.cold && o.result.is_ok())
        .map(|o| o.first_ms)
        .collect();
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let setup_ms: Vec<f64> = e2e.setup_s.iter().map(|s| s * 1e4).collect();
    let mut notes = vec![
        format!("server {stats}"),
        format!("set-up 0.1 ms: {}", fmt(&setup_ms)),
        format!(
            "first trace p50: {} cold submissions {:.1} ms, {} warm {:.1} ms",
            cold.len(),
            median(&cold),
            warm.len(),
            median(&warm)
        ),
    ];
    notes.extend(gate.notes().iter().cloned());
    let _ = std::fs::remove_dir_all(&run_root);
    // Only removed when no other run is using it.
    let _ = std::fs::remove_dir(&cfg.scratch);
    Ok(Outcome {
        attempted: gate.attempted(),
        failed: gate.bad(),
        metrics: if cfg.trace {
            sums.report(error_rate)
        } else {
            e2e.report(error_rate)
        },
        notes,
    })
}

/// Splits the server's library builds into sweep and Pareto time by
/// rebuilding a few of the run's applications in process: cold on a
/// fresh cache, then warm on the same cache, weighted like the schedule
/// (one cold build in `COLD_EVERY`). Also replays their Markov analyses.
fn sample_builds(sums: &mut LayerSums, groups: &[(u64, Vec<usize>)]) -> Res<()> {
    let mut cold = LayerSums::default();
    let mut warm = LayerSums::default();
    let mut markov = (0u64, 0.0f64);
    for (app_seed, _) in groups.iter().take(BUILD_SAMPLES) {
        let (platform, graph) = synthetic_app(TASKS, *app_seed).map_err(|e| e.to_string())?;
        let cache = EvalCache::shared();
        let tdse = clre::TdseConfig::default().with_eval_cache(Arc::clone(&cache));
        traced_build(&mut cold, &graph, &platform, &tdse, &cache)?;
        traced_build(&mut warm, &graph, &platform, &tdse, &cache)?;
        let (count, ms) = replay_markov(&graph, &platform, &tdse);
        markov.0 += count;
        markov.1 += ms;
    }
    let samples = cold.tdse_builds.max(1) as f64;
    let weight = |c: f64, w: f64| (c + (COLD_EVERY - 1) as f64 * w) / COLD_EVERY as f64 / samples;
    let jobs = sums.traced_jobs as f64;
    sums.tdse_sweep_ms = weight(cold.tdse_sweep_ms, warm.tdse_sweep_ms) * jobs;
    sums.tdse_pareto_ms = weight(cold.tdse_pareto_ms, warm.tdse_pareto_ms) * jobs;
    sums.tdse_candidates = (cold.tdse_candidates as f64 / samples * jobs) as u64;
    sums.markov_replay = markov;
    Ok(())
}

/// Replays one submission in process, outside every timed interval, to
/// measure what the server does not expose: the job through the thread
/// pool and through `nproc` `clre-exec-worker` children (after one
/// warm-up job on the same workers, so spawn and context set-up are
/// excluded) gives the wire's share of evaluation time and the backend
/// counters; its front, timed through one- and `nproc`-worker pools,
/// gives the pool's parallel efficiency.
fn sample_backend(sums: &mut LayerSums, sub: &Sub) -> Res<()> {
    let n = nproc();
    let req = sub.request();
    let (platform, graph) = synthetic_app(TASKS, sub.app_seed).map_err(|e| e.to_string())?;
    let build = || ClrEarly::new(&graph, &platform).map_err(|e| e.to_string());

    let local = ExecConfig::new().with_workers(n).with_trace();
    let dse = build()?.with_executor(local.executor());
    let front = dse.run(&req.plan, &req.budget).map_err(|e| e.to_string())?;

    let remote = ExecConfig::new()
        .with_workers(n)
        .with_backend(&BackendChoice::Subprocess {
            command: Some(sibling_binary("clre-exec-worker")?),
        })?;
    let warm_up = req.budget.clone().with_seed(req.budget.seed ^ 1);
    let remote_dse = remote.apply_remote(build()?, req.app.clone(), req.scenario);
    remote_dse
        .run(&req.plan, &warm_up)
        .map_err(|e| e.to_string())?;
    let traced = remote.clone().with_trace();
    let remote_dse = remote_dse.with_executor(traced.executor());
    let before = remote.backend_health().unwrap_or_default();
    remote_dse
        .run(&req.plan, &req.budget)
        .map_err(|e| e.to_string())?;
    let after = remote.backend_health().unwrap_or_default();

    let items = after.items - before.items;
    let busy = |records: &[GenerationTrace]| {
        records
            .iter()
            .map(|r| r.wall_nanos as f64 / 1e3)
            .sum::<f64>()
    };
    sums.backend_jobs += 1;
    sums.backend_items += items;
    sums.backend_batches += after.batches - before.batches;
    sums.backend_restarts = after.restarts as u64;
    sums.backend_lost = after.lost as u64;
    if items > 0 {
        sums.backend_overhead_us
            .push((busy(&records(&traced)) - busy(&records(&local))) / items as f64);
    }
    sums.measure_parallel_efficiency(
        &graph,
        &platform,
        dse.library(),
        &ObjectiveSet::system_bi(),
        &genomes(&front),
    );
    Ok(())
}
