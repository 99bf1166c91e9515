//! Integration tests for the content-addressed evaluation cache: cached
//! and uncached runs produce bit-identical Pareto fronts at any worker
//! count, an interrupted cached run warm-starts its resume from the
//! persisted sidecar, and a torn or foreign sidecar degrades to a cold
//! in-memory cache instead of failing the run.

use std::path::PathBuf;
use std::sync::Arc;

use clrearly::core::apps;
use clrearly::core::cache::{cache_sidecar_path, EvalCache};
use clrearly::core::methodology::{ClrEarly, FrontResult, StageBudget};
use clrearly::core::CampaignPlan;
use clrearly::core::{RunOutcome, RunSupervisor, SupervisorConfig};
use clrearly::exec::{ExecPool, Executor};
use clrearly::moea::{EvalError, Evaluation, Problem};
use rand::RngCore;

/// A unique throw-away scratch directory per test: the cache sidecar
/// lives next to the checkpoint, so each test isolates both in its own
/// directory.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clre-evalcache-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Fronts must agree to the bit: same genomes, same objective bit
/// patterns (stricter than `==`, which would let `-0.0` pass for `0.0`).
fn assert_bit_identical(a: &FrontResult, b: &FrontResult) {
    assert_eq!(a.front().len(), b.front().len(), "front sizes differ");
    for (pa, pb) in a.front().iter().zip(b.front()) {
        assert_eq!(pa.genome, pb.genome, "front genomes differ");
        assert_eq!(pa.objectives.len(), pb.objectives.len());
        for (x, y) in pa.objectives.iter().zip(&pb.objectives) {
            assert_eq!(x.to_bits(), y.to_bits(), "objective bits differ");
        }
    }
}

#[test]
fn cached_fc_front_is_bit_identical_for_any_worker_count() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let budget = StageBudget::smoke_test();

    for workers in [1usize, 4] {
        let baseline = ClrEarly::new(&graph, &platform)
            .unwrap()
            .with_executor(Executor::new(ExecPool::new(workers)))
            .run(&CampaignPlan::fc(), &budget)
            .unwrap();

        let cache = EvalCache::shared();
        let cached = ClrEarly::new(&graph, &platform)
            .unwrap()
            .with_executor(Executor::new(ExecPool::new(workers)))
            .with_cache(Arc::clone(&cache));
        let cold = cached.run(&CampaignPlan::fc(), &budget).unwrap();
        let warm = cached.run(&CampaignPlan::fc(), &budget).unwrap();

        assert_bit_identical(&baseline, &cold);
        assert_bit_identical(&baseline, &warm);
        let counts = cache.fitness_counts();
        assert!(counts.hits > 0, "warm rerun never hit: {counts:?}");
    }
}

#[test]
fn cached_seeded_proposed_front_is_bit_identical_for_any_worker_count() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let budget = StageBudget::smoke_test().with_seed(7);

    for workers in [1usize, 4] {
        let baseline = ClrEarly::new(&graph, &platform)
            .unwrap()
            .with_executor(Executor::new(ExecPool::new(workers)))
            .run(&CampaignPlan::proposed(), &budget)
            .unwrap();

        let cache = EvalCache::shared();
        let cached = ClrEarly::new(&graph, &platform)
            .unwrap()
            .with_executor(Executor::new(ExecPool::new(workers)))
            .with_cache(Arc::clone(&cache));
        let cold = cached.run(&CampaignPlan::proposed(), &budget).unwrap();
        let warm = cached.run(&CampaignPlan::proposed(), &budget).unwrap();

        assert_bit_identical(&baseline, &cold);
        assert_bit_identical(&baseline, &warm);
        // The seeded fc stage re-visits pf-stage genomes, so even the
        // cold campaign must hit (the two stages share fitness entries —
        // the problem digest excludes the choice-mode filter).
        let counts = cache.fitness_counts();
        assert!(counts.hits > 0, "seeded campaign never hit: {counts:?}");
    }
}

#[test]
fn warm_start_resume_reuses_the_persisted_sidecar() {
    let dir = scratch_dir("resume");
    let ckpt = dir.join("run.ckpt");
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let budget = StageBudget::smoke_test();

    let baseline = ClrEarly::new(&graph, &platform)
        .unwrap()
        .run(&CampaignPlan::fc(), &budget)
        .unwrap();

    // Kill a cached run mid-generation. Binding is automatic: the
    // supervised runner journals the cache next to its checkpoint.
    let dse = ClrEarly::new(&graph, &platform)
        .unwrap()
        .with_cache(EvalCache::shared());
    let sup = RunSupervisor::new(SupervisorConfig::new(ckpt.clone())).with_interrupt_at(0, 3);
    match dse
        .run_supervised(&CampaignPlan::fc(), &budget, &sup)
        .unwrap()
    {
        RunOutcome::Interrupted { stage, generation } => {
            assert_eq!((stage, generation), (0, 3));
        }
        RunOutcome::Complete(_) => panic!("expected an interrupted run"),
    }
    let sidecar = cache_sidecar_path(&ckpt);
    assert!(sidecar.exists(), "interrupted run left no cache sidecar");

    // A fresh process resumes: its empty cache warm-starts from the
    // sidecar, so the replayed generations are answered by lookups.
    let cache = EvalCache::shared();
    let resumed = ClrEarly::new(&graph, &platform)
        .unwrap()
        .with_cache(Arc::clone(&cache))
        .resume_supervised(&budget, &RunSupervisor::new(SupervisorConfig::new(ckpt)))
        .unwrap()
        .expect_complete();

    assert_bit_identical(&baseline, &resumed);
    assert_eq!(resumed.health.resumed_from_generation, Some(3));
    let counts = cache.fitness_counts();
    assert!(
        counts.hits > 0,
        "resume re-evaluated everything from scratch: {counts:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_run_journals_every_insert_before_its_checkpoint() {
    let dir = scratch_dir("checkpoint-flush");
    let ckpt = dir.join("run.ckpt");
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();

    // The cache (and so its buffered journal) stays alive past the
    // interruption: only the checkpoint-time flush can have put the
    // lines on disk.
    let cache = EvalCache::shared();
    let dse = ClrEarly::new(&graph, &platform)
        .unwrap()
        .with_cache(Arc::clone(&cache));
    let sup = RunSupervisor::new(SupervisorConfig::new(ckpt.clone())).with_interrupt_at(0, 3);
    let outcome = dse
        .run_supervised(&CampaignPlan::fc(), &StageBudget::smoke_test(), &sup)
        .unwrap();
    assert!(matches!(outcome, RunOutcome::Interrupted { .. }));
    assert!(cache.is_bound());

    // The journal was bound before the first evaluation, so every
    // fitness insert is one record line after the header (analyses are
    // held in memory only).
    let text = std::fs::read_to_string(cache_sidecar_path(&ckpt)).unwrap();
    let records = text.lines().count() - 1;
    let inserts = cache.fitness_counts().inserts;
    assert!(inserts > 0, "the interrupted run inserted nothing");
    assert_eq!(records as u64, inserts, "journal lags its last checkpoint");
    drop(dse);
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_or_foreign_sidecar_degrades_to_cold_cache() {
    let dir = scratch_dir("torn");
    let sidecar = dir.join("cache.txt");
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let budget = StageBudget::smoke_test();

    let baseline = ClrEarly::new(&graph, &platform)
        .unwrap()
        .run(&CampaignPlan::fc(), &budget)
        .unwrap();

    // Populate a genuine sidecar, then mangle it the way a kill would:
    // a malformed line wedged into the middle and a torn final line.
    {
        let cache = EvalCache::shared();
        cache.bind_sidecar(&sidecar).unwrap();
        let dse = ClrEarly::new(&graph, &platform).unwrap().with_cache(cache);
        let _ = dse.run(&CampaignPlan::fc(), &budget).unwrap();
    }
    let mut text = std::fs::read_to_string(&sidecar).unwrap();
    assert!(text.len() > 40, "sidecar unexpectedly empty");
    text.insert_str(text.len() / 2, "\nnot a journal line\n");
    text.truncate(text.len() - 7);
    std::fs::write(&sidecar, &text).unwrap();

    let cache = EvalCache::shared();
    cache
        .bind_sidecar(&sidecar)
        .expect("torn sidecar must bind, not error");
    let front = ClrEarly::new(&graph, &platform)
        .unwrap()
        .with_cache(Arc::clone(&cache))
        .run(&CampaignPlan::fc(), &budget)
        .unwrap();
    assert_bit_identical(&baseline, &front);

    // A file that is not ours at all is left untouched: the cache stays
    // unbound (cold, in-memory) and the run still succeeds.
    let foreign = dir.join("foreign.txt");
    let payload = "someone-elses-journal v9\npayload line\n";
    std::fs::write(&foreign, payload).unwrap();
    let cold = EvalCache::shared();
    cold.bind_sidecar(&foreign)
        .expect("foreign sidecar must not error");
    assert!(
        !cold.is_bound(),
        "foreign file must leave the cache unbound"
    );
    let front = ClrEarly::new(&graph, &platform)
        .unwrap()
        .with_cache(Arc::clone(&cold))
        .run(&CampaignPlan::fc(), &budget)
        .unwrap();
    assert_bit_identical(&baseline, &front);
    assert_eq!(
        std::fs::read_to_string(&foreign).unwrap(),
        payload,
        "foreign file must never be appended to"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A legacy problem that implements only the panicking `evaluate`: the
/// default `try_evaluate` must forward it unchanged, and the problem must
/// self-report that it has no native error channel.
struct LegacySphere;

impl Problem for LegacySphere {
    type Genome = Vec<f64>;

    fn objective_count(&self) -> usize {
        1
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> Vec<f64> {
        vec![rng.next_u32() as f64 / u32::MAX as f64; 2]
    }

    fn evaluate(&self, genome: &Vec<f64>) -> Evaluation {
        Evaluation::feasible(vec![genome.iter().map(|x| x * x).sum()])
    }
}

#[test]
fn default_try_evaluate_wraps_the_legacy_path() {
    let problem = LegacySphere;
    assert!(!problem.reports_errors());
    let eval = problem
        .try_evaluate(&vec![3.0, 4.0])
        .expect("legacy evaluation succeeds");
    assert_eq!(eval.objectives, vec![25.0]);
    assert!(eval.is_feasible());

    // The typed channel is what SystemProblem overrides natively; the
    // error type it reports is ordinary and cloneable.
    let err = EvalError::new("bad genome");
    assert_eq!(err.clone().message(), "bad genome");
    assert_eq!(err.to_string(), "bad genome");
}
