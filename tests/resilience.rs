//! Integration tests for the fault-tolerant DSE runtime: checkpointed
//! supervised runs resume deterministically to the identical Pareto
//! front, mismatched checkpoints are rejected, and injected numeric
//! failures are isolated instead of aborting the GA.

use std::path::PathBuf;

use clrearly::core::apps;
use clrearly::core::methodology::{ClrEarly, FrontResult, StageBudget};
use clrearly::core::resilience::{FallibleProblem, ResilientProblem};
use clrearly::core::{CampaignPlan, DseError, Layer, RunOutcome, RunSupervisor, SupervisorConfig};
use clrearly::markov::MarkovError;
use clrearly::moea::{Evaluation, Nsga2, Nsga2Config, Problem, Variation};
use clrearly::num::NumError;

/// A unique throw-away checkpoint path per test (tests may run in
/// parallel within one process).
fn checkpoint_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "clre-resilience-{}-{name}.ckpt",
        std::process::id()
    ))
}

fn supervisor(name: &str) -> RunSupervisor {
    RunSupervisor::new(SupervisorConfig::new(checkpoint_path(name)))
}

/// Fronts must agree point-for-point: same genomes, same objectives.
fn assert_same_front(a: &FrontResult, b: &FrontResult) {
    assert_eq!(a.front().len(), b.front().len(), "front sizes differ");
    for (pa, pb) in a.front().iter().zip(b.front()) {
        assert_eq!(pa.genome, pb.genome, "front genomes differ");
        assert_eq!(pa.objectives, pb.objectives, "front objectives differ");
    }
    assert_eq!(a.evaluations, b.evaluations, "evaluation counts differ");
}

#[test]
fn fc_resume_reproduces_uninterrupted_front() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let dse = ClrEarly::new(&graph, &platform).unwrap();
    let budget = StageBudget::smoke_test();

    let baseline = dse
        .run_supervised(&CampaignPlan::fc(), &budget, &supervisor("fc-baseline"))
        .unwrap()
        .expect_complete();
    // The supervised runner shares the plain runner's RNG trajectory.
    let plain = dse.run(&CampaignPlan::fc(), &budget).unwrap();
    assert_same_front(&baseline, &plain);

    // Crash mid-run at generation 3, then resume from the checkpoint.
    let sup = supervisor("fc-interrupt").with_interrupt_at(0, 3);
    match dse
        .run_supervised(&CampaignPlan::fc(), &budget, &sup)
        .unwrap()
    {
        RunOutcome::Interrupted { stage, generation } => {
            assert_eq!((stage, generation), (0, 3));
        }
        RunOutcome::Complete(_) => panic!("expected an interrupted run"),
    }
    let resumed = dse
        .resume_supervised(&budget, &supervisor("fc-interrupt"))
        .unwrap()
        .expect_complete();

    assert_same_front(&baseline, &resumed);
    assert_eq!(resumed.health.resumed_from_generation, Some(3));
    assert!(resumed.health.checkpoints_written > 0);
    assert!(
        !checkpoint_path("fc-interrupt").exists(),
        "checkpoint not cleaned up"
    );
}

#[test]
fn proposed_resume_reproduces_front_from_either_stage() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let dse = ClrEarly::new(&graph, &platform).unwrap();
    let budget = StageBudget::smoke_test().with_seed(7);

    let baseline = dse
        .run_supervised(
            &CampaignPlan::proposed(),
            &budget,
            &supervisor("prop-baseline"),
        )
        .unwrap()
        .expect_complete();
    let plain = dse.run(&CampaignPlan::proposed(), &budget).unwrap();
    assert_same_front(&baseline, &plain);

    // Interrupt during stage 0 (the pf stage): the whole flow — the rest
    // of stage 0 plus all of stage 1 — must replay identically.
    let sup = supervisor("prop-s0").with_interrupt_at(0, 2);
    match dse
        .run_supervised(&CampaignPlan::proposed(), &budget, &sup)
        .unwrap()
    {
        RunOutcome::Interrupted { stage, generation } => {
            assert_eq!((stage, generation), (0, 2));
        }
        RunOutcome::Complete(_) => panic!("expected stage-0 interruption"),
    }
    let resumed0 = dse
        .resume_supervised(&budget, &supervisor("prop-s0"))
        .unwrap()
        .expect_complete();
    assert_same_front(&baseline, &resumed0);
    assert_eq!(resumed0.health.resumed_from_generation, Some(2));

    // Interrupt during stage 1 (the seeded fc stage): the resume must
    // reconstitute the pf-stage front from the checkpoint's aux genomes
    // and still merge to the identical final front.
    let sup = supervisor("prop-s1").with_interrupt_at(1, 5);
    match dse
        .run_supervised(&CampaignPlan::proposed(), &budget, &sup)
        .unwrap()
    {
        RunOutcome::Interrupted { stage, generation } => {
            assert_eq!((stage, generation), (1, 5));
        }
        RunOutcome::Complete(_) => panic!("expected stage-1 interruption"),
    }
    let resumed1 = dse
        .resume_supervised(&budget, &supervisor("prop-s1"))
        .unwrap()
        .expect_complete();
    assert_same_front(&baseline, &resumed1);
    assert_eq!(resumed1.health.resumed_from_generation, Some(5));
}

#[test]
fn spea2_pf_resume_reproduces_uninterrupted_front() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let dse = ClrEarly::new(&graph, &platform).unwrap();
    let budget = StageBudget::smoke_test().with_seed(5);

    let baseline = dse.run(&CampaignPlan::pf_spea2(), &budget).unwrap();

    // Kill the SPEA2 run mid-generation: the archive, population and RNG
    // stream all live in the checkpoint, so the resumed trajectory must
    // be the uninterrupted one bit-for-bit.
    let sup = supervisor("spea2-interrupt").with_interrupt_at(0, 3);
    match dse
        .run_supervised(&CampaignPlan::pf_spea2(), &budget, &sup)
        .unwrap()
    {
        RunOutcome::Interrupted { stage, generation } => {
            assert_eq!((stage, generation), (0, 3));
        }
        RunOutcome::Complete(_) => panic!("expected an interrupted run"),
    }
    let resumed = dse
        .resume_supervised(&budget, &supervisor("spea2-interrupt"))
        .unwrap()
        .expect_complete();

    assert_same_front(&baseline, &resumed);
    assert_eq!(resumed.health.resumed_from_generation, Some(3));
    assert!(
        !checkpoint_path("spea2-interrupt").exists(),
        "checkpoint not cleaned up"
    );
}

#[test]
fn agnostic_resume_reproduces_merged_front_mid_campaign() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let dse = ClrEarly::new(&graph, &platform).unwrap();
    let budget = StageBudget::smoke_test().with_seed(3);

    let baseline = dse.run(&CampaignPlan::agnostic(), &budget).unwrap();

    // The Agnostic campaign runs four single-layer stages on a quarter
    // of the generation budget each (smoke budget: 2 generations per
    // stage). Kill it inside the third stage: the resume must replay
    // that stage's tail plus the fourth stage and still merge all four
    // layer fronts into the identical Pareto set.
    let sup = supervisor("agnostic-interrupt").with_interrupt_at(2, 1);
    match dse
        .run_supervised(&CampaignPlan::agnostic(), &budget, &sup)
        .unwrap()
    {
        RunOutcome::Interrupted { stage, generation } => {
            assert_eq!((stage, generation), (2, 1));
        }
        RunOutcome::Complete(_) => panic!("expected a stage-2 interruption"),
    }
    let resumed = dse
        .resume_supervised(&budget, &supervisor("agnostic-interrupt"))
        .unwrap()
        .expect_complete();

    assert_same_front(&baseline, &resumed);
    assert_eq!(resumed.health.resumed_from_generation, Some(1));
    assert!(
        !checkpoint_path("agnostic-interrupt").exists(),
        "checkpoint not cleaned up"
    );
}

#[test]
fn campaign_plans_match_run_wrappers() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let dse = ClrEarly::new(&graph, &platform).unwrap();
    let budget = StageBudget::smoke_test().with_seed(13);

    // Every `run_*` entry point is a thin wrapper over a built-in
    // campaign plan; the front a caller-assembled plan produces must be
    // the wrapper's, bit for bit.
    let plans = [
        (CampaignPlan::fc(), dse.run(&CampaignPlan::fc(), &budget)),
        (CampaignPlan::pf(), dse.run(&CampaignPlan::pf(), &budget)),
        (
            CampaignPlan::proposed(),
            dse.run(&CampaignPlan::proposed(), &budget),
        ),
        (
            CampaignPlan::agnostic(),
            dse.run(&CampaignPlan::agnostic(), &budget),
        ),
        (
            CampaignPlan::pf_spea2(),
            dse.run(&CampaignPlan::pf_spea2(), &budget),
        ),
        (
            CampaignPlan::single_layer(Layer::Hw),
            dse.run(&CampaignPlan::single_layer(Layer::Hw), &budget),
        ),
    ];
    for (plan, wrapper) in plans {
        let via_campaign = dse.run(&plan, &budget).unwrap();
        assert_same_front(&via_campaign, &wrapper.unwrap());
    }
}

#[test]
fn resume_rejects_mismatched_budget_and_missing_checkpoint() {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).unwrap();
    let dse = ClrEarly::new(&graph, &platform).unwrap();
    let budget = StageBudget::smoke_test();

    // No checkpoint file at all.
    let err = dse
        .resume_supervised(&budget, &supervisor("missing"))
        .unwrap_err();
    assert!(matches!(err, DseError::Checkpoint { .. }), "got {err}");

    // A checkpoint from seed 1 must not silently resume under seed 9 —
    // the resumed trajectory would not match either run.
    let sup = supervisor("mismatch").with_interrupt_at(0, 2);
    dse.run_supervised(&CampaignPlan::fc(), &budget, &sup)
        .unwrap();
    let err = dse
        .resume_supervised(&budget.with_seed(9), &supervisor("mismatch"))
        .unwrap_err();
    assert!(matches!(err, DseError::Checkpoint { .. }), "got {err}");
    let _ = std::fs::remove_file(checkpoint_path("mismatch"));
}

/// A toy problem whose evaluator reports the Markov solver's
/// singular-matrix failure for part of the genome space.
struct SingularInjector;

impl Problem for SingularInjector {
    type Genome = u32;

    fn objective_count(&self) -> usize {
        2
    }

    fn random_genome(&self, rng: &mut dyn rand::RngCore) -> u32 {
        rng.next_u32() % 100
    }

    fn evaluate(&self, genome: &u32) -> Evaluation {
        match FallibleProblem::try_evaluate(self, genome) {
            Ok(eval) => eval,
            Err(e) => panic!("genome evaluation failed: {e}"),
        }
    }
}

impl FallibleProblem for SingularInjector {
    fn try_evaluate(&self, genome: &u32) -> Result<Evaluation, DseError> {
        if genome.is_multiple_of(10) {
            return Err(DseError::Markov(MarkovError::Numeric(NumError::Singular {
                pivot: 0,
            })));
        }
        let x = f64::from(*genome);
        Ok(Evaluation::feasible(vec![x, 100.0 - x]))
    }
}

struct StepMutation;

impl Variation<u32> for StepMutation {
    fn crossover(&self, a: &u32, b: &u32, _rng: &mut dyn rand::RngCore) -> (u32, u32) {
        ((a + b) / 2, a.abs_diff(*b))
    }

    fn mutate(&self, genome: &mut u32, rng: &mut dyn rand::RngCore) {
        *genome = (*genome + 1 + rng.next_u32() % 7) % 100;
    }
}

#[test]
fn injected_singular_failures_do_not_abort_the_ga() {
    let resilient = ResilientProblem::new(SingularInjector);
    let health = resilient.health();
    let ga = Nsga2::new(
        resilient,
        StepMutation,
        Nsga2Config::new(20, 10).with_seed(11),
    );

    // One in ten genomes reports NumError::Singular; the run must still
    // complete, with the failures isolated and quarantined rather than
    // propagated.
    let result = ga.run();
    assert!(!result.front().is_empty());

    let report = health.lock().unwrap().clone();
    assert!(
        report.errors_isolated > 0,
        "no failures were injected: {report:?}"
    );
    assert!(
        report.quarantined > 0,
        "failing genomes were not quarantined"
    );
    assert_eq!(report.panics_isolated, 0);
    assert!(!report.is_clean());

    // Quarantined genomes never make it onto the reported front.
    for ind in result.front() {
        assert_ne!(ind.genome % 10, 0, "quarantined genome on the front");
    }
}
