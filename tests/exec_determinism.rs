//! Integration tests for the deterministic parallel evaluation engine:
//! worker count must never change results — not on the ZDT benchmark
//! problems, not in a fcCLR methodology run, and not across a
//! kill/resume cycle whose halves use different pool sizes. Also covers
//! the checkpoint-rotation and quarantine-sidecar plumbing end to end.

use std::path::PathBuf;
use std::sync::Arc;

use clrearly::chaos::FaultPlan;
use clrearly::core::apps;
use clrearly::core::methodology::{ClrEarly, FrontResult, StageBudget};
use clrearly::core::resilience::{
    quarantine_sidecar_path, rotated_checkpoint_path, FallibleProblem, QuarantineSidecar,
    ResilientProblem,
};
use clrearly::core::CampaignPlan;
use clrearly::core::{DseError, RunOutcome, RunSupervisor, SupervisorConfig};
use clrearly::exec::{ExecPool, Executor, RunTelemetry};
use clrearly::moea::test_problems::{Zdt1, Zdt2, ZdtVariation};
use clrearly::moea::{Evaluation, Nsga2, Nsga2Config, Problem, Spea2, Spea2Config};

/// A throw-away directory per test, so sidecar/rotation files cannot
/// interfere across concurrently running tests.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clre-exec-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn bits(front: &[Vec<f64>]) -> Vec<Vec<u64>> {
    front
        .iter()
        .map(|p| p.iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn assert_same_front(a: &FrontResult, b: &FrontResult, what: &str) {
    assert_eq!(a.front().len(), b.front().len(), "{what}: front sizes");
    for (pa, pb) in a.front().iter().zip(b.front()) {
        assert_eq!(pa.genome, pb.genome, "{what}: genomes");
        assert_eq!(
            bits(std::slice::from_ref(&pa.objectives)),
            bits(std::slice::from_ref(&pb.objectives)),
            "{what}: objectives"
        );
    }
    assert_eq!(a.evaluations, b.evaluations, "{what}: evaluation counts");
}

#[test]
fn zdt_fronts_bitwise_identical_across_worker_counts() {
    // NSGA-II on ZDT1.
    let serial = Nsga2::new(
        Zdt1::new(8),
        ZdtVariation,
        Nsga2Config::new(24, 12).with_seed(5),
    )
    .run();
    for workers in [1usize, 2, 8] {
        let exec = Executor::new(ExecPool::new(workers));
        let ga = Nsga2::new(
            Zdt1::new(8),
            ZdtVariation,
            Nsga2Config::new(24, 12).with_seed(5),
        );
        let par = ga.run_with(&exec);
        assert_eq!(
            bits(&serial.front_objectives()),
            bits(&par.front_objectives()),
            "ZDT1/NSGA-II diverged at {workers} workers"
        );
        assert_eq!(serial.evaluations, par.evaluations);
    }

    // SPEA2 on ZDT2, through the step-wise state API's parallel variant.
    let serial = Spea2::new(
        Zdt2::new(8),
        ZdtVariation,
        Spea2Config::new(20, 10).with_seed(5),
    )
    .run();
    for workers in [1usize, 2, 8] {
        let exec = Executor::new(ExecPool::new(workers));
        let ga = Spea2::new(
            Zdt2::new(8),
            ZdtVariation,
            Spea2Config::new(20, 10).with_seed(5),
        );
        let par = ga.run_with(&exec);
        assert_eq!(
            bits(&serial.front_objectives()),
            bits(&par.front_objectives()),
            "ZDT2/SPEA2 diverged at {workers} workers"
        );
    }
}

#[test]
fn fcclr_run_bitwise_identical_across_worker_counts() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let budget = StageBudget::smoke_test();

    let serial = ClrEarly::new(&graph, &platform)
        .unwrap()
        .run(&CampaignPlan::fc(), &budget)
        .unwrap();
    for workers in [2usize, 8] {
        let parallel = ClrEarly::new(&graph, &platform)
            .unwrap()
            .with_executor(Executor::new(ExecPool::new(workers)))
            .run(&CampaignPlan::fc(), &budget)
            .unwrap();
        assert_same_front(&serial, &parallel, &format!("fcCLR at {workers} workers"));
    }
}

#[test]
fn parallel_kill_resume_with_different_worker_counts_reproduces_front() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let budget = StageBudget::smoke_test().with_seed(7);
    let dir = scratch_dir("kill-resume");
    let ckpt = dir.join("run.ckpt");

    // Uninterrupted serial baseline.
    let baseline = ClrEarly::new(&graph, &platform)
        .unwrap()
        .run(&CampaignPlan::proposed(), &budget)
        .unwrap();

    // Kill a 4-worker run mid-generation of the seeded fc stage…
    let dse4 = ClrEarly::new(&graph, &platform)
        .unwrap()
        .with_executor(Executor::new(ExecPool::new(4)));
    let sup = RunSupervisor::new(SupervisorConfig::new(&ckpt)).with_interrupt_at(1, 4);
    match dse4
        .run_supervised(&CampaignPlan::proposed(), &budget, &sup)
        .unwrap()
    {
        RunOutcome::Interrupted { stage, generation } => {
            assert_eq!((stage, generation), (1, 4));
        }
        RunOutcome::Complete(_) => panic!("expected an interrupted run"),
    }

    // …and resume under a *different* pool size. Checkpoints carry
    // nothing thread-dependent, so the front must still be identical.
    let dse2 = ClrEarly::new(&graph, &platform)
        .unwrap()
        .with_executor(Executor::new(ExecPool::new(2)));
    let resumed = dse2
        .resume_supervised(&budget, &RunSupervisor::new(SupervisorConfig::new(&ckpt)))
        .unwrap()
        .expect_complete();
    assert_same_front(&baseline, &resumed, "kill/resume across pool sizes");
    assert_eq!(resumed.health.resumed_from_generation, Some(4));
    assert!(!ckpt.exists(), "checkpoint not cleaned up");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn supervised_run_rotates_checkpoints_and_prunes_on_completion() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let budget = StageBudget::smoke_test();
    let dir = scratch_dir("rotation");
    let ckpt = dir.join("run.ckpt");
    let dse = ClrEarly::new(&graph, &platform)
        .unwrap()
        .with_executor(Executor::new(ExecPool::new(2)));

    // Interrupt at generation 3 with keep=3: generations 1..=3 were
    // saved, so the newest plus two rotation slots must be on disk.
    let config = SupervisorConfig::new(&ckpt).with_keep_checkpoints(3);
    let sup = RunSupervisor::new(config.clone()).with_interrupt_at(0, 3);
    match dse
        .run_supervised(&CampaignPlan::fc(), &budget, &sup)
        .unwrap()
    {
        RunOutcome::Interrupted { stage, generation } => {
            assert_eq!((stage, generation), (0, 3));
        }
        RunOutcome::Complete(_) => panic!("expected an interrupted run"),
    }
    assert!(ckpt.exists(), "newest checkpoint missing");
    assert!(
        rotated_checkpoint_path(&ckpt, 1).exists(),
        "slot .1 missing"
    );
    assert!(
        rotated_checkpoint_path(&ckpt, 2).exists(),
        "slot .2 missing"
    );
    assert!(
        !rotated_checkpoint_path(&ckpt, 3).exists(),
        "slot .3 must be pruned (keep=3)"
    );

    // A clean run leaves neither checkpoints nor a quarantine sidecar.
    let resumed = dse
        .resume_supervised(&budget, &RunSupervisor::new(config))
        .unwrap()
        .expect_complete();
    assert!(resumed.health.is_clean());
    for n in 1..=3 {
        assert!(
            !rotated_checkpoint_path(&ckpt, n).exists(),
            "rotation slot .{n} not pruned after completion"
        );
    }
    assert!(!ckpt.exists(), "checkpoint not cleaned up");
    assert!(
        !quarantine_sidecar_path(&ckpt).exists(),
        "clean run must not leave a quarantine sidecar"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run whose `keep` shrank since the last run on the same path: its
/// first save prunes the stale slots the larger `keep` left (found by
/// listing the directory, not by probing slot numbers), and completion
/// leaves no checkpoint file at all.
#[test]
fn shrunken_keep_prunes_stale_slots_on_first_save() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let budget = StageBudget::smoke_test();
    let dir = scratch_dir("shrunken-keep");
    let ckpt = dir.join("run.ckpt");
    let dse = ClrEarly::new(&graph, &platform).unwrap();
    let interrupted = |keep: usize, generation: usize| {
        let sup = RunSupervisor::new(SupervisorConfig::new(&ckpt).with_keep_checkpoints(keep))
            .with_interrupt_at(0, generation);
        match dse
            .run_supervised(&CampaignPlan::fc(), &budget, &sup)
            .unwrap()
        {
            RunOutcome::Interrupted { .. } => {}
            RunOutcome::Complete(_) => panic!("expected an interrupted run"),
        }
    };
    let slots = || {
        (1..=8)
            .filter(|&n| rotated_checkpoint_path(&ckpt, n).exists())
            .collect::<Vec<_>>()
    };

    interrupted(5, 6);
    assert_eq!(slots(), vec![1, 2, 3, 4], "a keep-5 run fills four slots");

    // Interrupting at generation 0 makes the parking save the first one.
    interrupted(2, 0);
    assert!(ckpt.exists(), "newest checkpoint missing");
    assert_eq!(slots(), vec![1], "slots 2..=4 pruned by the first save");

    let resumed = dse
        .resume_supervised(
            &budget,
            &RunSupervisor::new(SupervisorConfig::new(&ckpt).with_keep_checkpoints(2)),
        )
        .unwrap()
        .expect_complete();
    assert!(resumed.health.is_clean());
    assert!(!ckpt.exists(), "checkpoint not cleaned up");
    assert_eq!(slots(), Vec::<usize>::new(), "no slot survives completion");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name())
        .filter(|name| name.to_string_lossy().starts_with("run.ckpt"))
        .collect();
    assert!(leftovers.is_empty(), "left behind: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A problem that cannot evaluate one genome in eight, for exercising the
/// quarantine triage path under the parallel engine.
struct FlakyEvaluator;

impl Problem for FlakyEvaluator {
    type Genome = u32;

    fn objective_count(&self) -> usize {
        2
    }

    fn random_genome(&self, rng: &mut dyn rand::RngCore) -> u32 {
        rng.next_u32() % 64
    }

    fn evaluate(&self, genome: &u32) -> Evaluation {
        match FallibleProblem::try_evaluate(self, genome) {
            Ok(eval) => eval,
            Err(e) => panic!("genome evaluation failed: {e}"),
        }
    }
}

impl FallibleProblem for FlakyEvaluator {
    fn try_evaluate(&self, genome: &u32) -> Result<Evaluation, DseError> {
        if genome.is_multiple_of(8) {
            return Err(DseError::InvalidConfig {
                what: "injected evaluation failure",
            });
        }
        let x = f64::from(*genome);
        Ok(Evaluation::feasible(vec![x, 64.0 - x]))
    }
}

struct Step;

impl clrearly::moea::Variation<u32> for Step {
    fn crossover(&self, a: &u32, b: &u32, _rng: &mut dyn rand::RngCore) -> (u32, u32) {
        ((a + b) / 2, a.abs_diff(*b))
    }

    fn mutate(&self, genome: &mut u32, rng: &mut dyn rand::RngCore) {
        *genome = (*genome + 1 + rng.next_u32() % 5) % 64;
    }
}

/// Every stage's quarantined records reach the sidecar: a later stage's
/// saves append to it and never replace an earlier stage's records.
#[test]
fn every_stage_s_quarantined_records_reach_the_sidecar() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let dir = scratch_dir("stage-quarantine");
    let ckpt = dir.join("run.ckpt");
    let dse = ClrEarly::new(&graph, &platform).unwrap();
    let faults = Arc::new(FaultPlan::new(7).with_error_ppm(60_000));
    let sup = RunSupervisor::new(SupervisorConfig::new(&ckpt).with_max_retries(0))
        .with_fault_injector(faults);
    let front = dse
        .run_supervised(&CampaignPlan::proposed(), &StageBudget::smoke_test(), &sup)
        .unwrap()
        .expect_complete();
    let (records, skipped) = QuarantineSidecar::read(&quarantine_sidecar_path(&ckpt)).unwrap();
    assert!(
        front.health.quarantined > 0,
        "the fault plan quarantined nothing"
    );
    assert_eq!(records.len(), front.health.quarantined);
    assert_eq!(skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh run replaces an earlier run's sidecar: a second faulty run on
/// the same checkpoint path holds only its own records, and a clean run
/// after it leaves no sidecar at all.
#[test]
fn a_fresh_run_replaces_an_earlier_run_s_sidecar() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let dir = scratch_dir("fresh-sidecar");
    let ckpt = dir.join("run.ckpt");
    let sidecar = quarantine_sidecar_path(&ckpt);
    let dse = ClrEarly::new(&graph, &platform).unwrap();
    let plan = CampaignPlan::proposed();
    let budget = StageBudget::smoke_test();
    let config = SupervisorConfig::new(&ckpt).with_max_retries(0);
    let faulty = || {
        RunSupervisor::new(config.clone())
            .with_fault_injector(Arc::new(FaultPlan::new(7).with_error_ppm(60_000)))
    };
    for run in 0..2 {
        let front = dse
            .run_supervised(&plan, &budget, &faulty())
            .unwrap()
            .expect_complete();
        let (records, _) = QuarantineSidecar::read(&sidecar).unwrap();
        assert!(
            front.health.quarantined > 0,
            "run {run} quarantined nothing"
        );
        assert_eq!(records.len(), front.health.quarantined, "run {run}");
    }
    let clean = dse
        .run_supervised(&plan, &budget, &RunSupervisor::new(config))
        .unwrap()
        .expect_complete();
    assert_eq!(clean.health.quarantined, 0);
    assert!(
        !sidecar.exists(),
        "a clean run leaves no quarantine sidecar"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A resume that finds a headerless sidecar (the format of an older
/// version) moves it aside, counts it as one skipped line and starts a
/// new sidecar, instead of failing the campaign.
#[test]
fn a_resume_sets_a_headerless_sidecar_aside() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let dir = scratch_dir("legacy-sidecar");
    let ckpt = dir.join("run.ckpt");
    let sidecar = quarantine_sidecar_path(&ckpt);
    let dse = ClrEarly::new(&graph, &platform).unwrap();
    let plan = CampaignPlan::proposed();
    let budget = StageBudget::smoke_test();
    let supervisor = || {
        RunSupervisor::new(SupervisorConfig::new(&ckpt).with_max_retries(0))
            .with_fault_injector(Arc::new(FaultPlan::new(7).with_error_ppm(60_000)))
    };
    let outcome = dse
        .run_supervised(&plan, &budget, &supervisor().with_interrupt_at(0, 1))
        .unwrap();
    assert!(matches!(outcome, RunOutcome::Interrupted { .. }));
    let legacy = "quarantine-v1 error=boom genome=2 0:1:0 1:0:0\n";
    std::fs::write(&sidecar, legacy).unwrap();

    let front = dse
        .resume(&plan, &budget, &supervisor())
        .unwrap()
        .expect_complete();
    assert_eq!(front.health.sidecar_lines_skipped, 1);
    let aside = dir.join("quarantine.txt.foreign");
    assert_eq!(std::fs::read_to_string(&aside).unwrap(), legacy);
    let (records, skipped) = QuarantineSidecar::read(&sidecar).unwrap();
    assert!(!records.is_empty(), "the resumed stage quarantined nothing");
    assert_eq!(skipped, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_quarantine_feeds_sidecar_and_telemetry() {
    let dir = scratch_dir("sidecar");
    let ckpt = dir.join("run.ckpt");
    let resilient = ResilientProblem::new(FlakyEvaluator);
    let health = resilient.health();
    let quarantine = resilient.quarantine_log();

    let sink = RunTelemetry::sink();
    let exec = Executor::new(ExecPool::new(4))
        .with_label("flaky")
        .with_telemetry(sink.clone());
    let ga = Nsga2::new(resilient, Step, Nsga2Config::new(16, 6).with_seed(3));
    let result = ga.run_with(&exec);
    assert!(!result.front().is_empty());

    // The failures were recorded even though evaluation ran on a pool.
    let h = health.lock().unwrap().clone();
    assert!(h.quarantined > 0, "no quarantines under parallel engine");
    exec.annotate_health(h.quarantined, h.degraded_analyses);

    // Sidecar: one `quarantine-v1` record per quarantined candidate.
    let records = quarantine.lock().unwrap().clone();
    assert_eq!(records.len(), h.quarantined);
    let sidecar = quarantine_sidecar_path(&ckpt);
    QuarantineSidecar::new(sidecar.clone())
        .append(&records)
        .unwrap();
    let text = std::fs::read_to_string(&sidecar).unwrap();
    assert_eq!(text.lines().count(), records.len() + 1, "header + records");
    assert!(text
        .lines()
        .skip(1)
        .all(|l| l.starts_with("quarantine-v1 error=") && l.contains(" genome=")));
    let (read, skipped) = QuarantineSidecar::read(&sidecar).unwrap();
    assert_eq!((read, skipped), (records, 0));

    // Telemetry: one record per batch (init + 6 generations), totals add
    // up, and the annotated quarantine count landed on the last record.
    let t = sink.lock().unwrap();
    assert_eq!(t.records().len(), 7);
    assert_eq!(t.total_evaluations(), result.evaluations);
    assert_eq!(t.records().last().unwrap().quarantined, h.quarantined);
    assert!(t.trace().contains("phase=flaky"));
    let _ = std::fs::remove_dir_all(&dir);
}
