//! The declarative stage-graph `Campaign` runner — one execution path
//! for every DSE method.
//!
//! The paper's methods are all *compositions* of GA stages: fcCLR and
//! pfCLR are single stages, the proposed flow chains a pf stage into a
//! seeded fc stage, and the layer-agnostic baseline merges four
//! single-layer stages. [`CampaignPlan`] expresses each composition as
//! data — a list of [`StagePlan`] nodes with explicit seeding edges —
//! and [`ClrEarly::run`] / [`ClrEarly::run_supervised`] compile any
//! plan into the one execution path, so the `clre-exec` executor, trace
//! telemetry labels, checkpoint/rotate/quarantine supervision, and
//! resume logic are threaded through every method exactly once. The stages are driven
//! through the algorithm-agnostic
//! [`EvolutionState`](clre_moea::EvolutionState) trait, so NSGA-II and
//! SPEA2 stages checkpoint and resume identically.
//!
//! Any plan scales out as an **island model**
//! ([`CampaignPlan::islands`]): the plan is replicated into per-island
//! subpopulation lineages with salted RNG streams, and each epoch's
//! first stage is seeded through ordinary seeding edges from the
//! previous epoch's island fronts — its own plus its ring neighbor's
//! (the migration topology). Because migration reuses the same seeding
//! edges the proposed flow uses, island campaigns checkpoint, resume
//! and merge deterministically, bit-identical for every evaluation
//! backend.
//!
//! # Examples
//!
//! The proposed methodology as a plan:
//!
//! ```no_run
//! use clre::{CampaignPlan, ClrEarly, StageBudget};
//! use clre_model::platform::paper_platform;
//! # fn graph() -> clre_model::TaskGraph { unimplemented!() }
//!
//! let platform = paper_platform();
//! let graph = graph();
//! let dse = ClrEarly::new(&graph, &platform)?;
//! let plan = CampaignPlan::proposed(); // pf stage → seeded fc stage
//! let front = dse.run(&plan, &StageBudget::smoke_test())?;
//! assert_eq!(front.method(), "proposed");
//! # Ok::<(), clre::DseError>(())
//! ```

use std::borrow::Cow;
use std::sync::Arc;

use clre_exec::{ExecPool, Executor};
use clre_model::reliability::ClrConfig;
use clre_moea::{
    EvoOutcome, EvoSnapshot, EvolutionState, Nsga2, Nsga2State, ObjectiveMatrix, Spea2,
    Spea2Config, Spea2State,
};

use crate::cache::{cache_sidecar_path, EvalCache};
use crate::encoding::{ChoiceMode, ClrVariation, Codec, Genome};
use crate::library::ImplLibrary;
use crate::methodology::{ClrEarly, FrontPoint, FrontResult, Layer, StageBudget};
use crate::problem::SystemProblem;
use crate::resilience::{
    quarantine_sidecar_path, remove_checkpoint_files, AlgorithmTag, Checkpoint, CheckpointWriter,
    CompletedStage, QuarantineSidecar, ResilientProblem, RunHealth, RunOutcome, RunSupervisor,
    StageIdentity,
};
use crate::tdse::{build_library_on, DvfsPolicy};
use crate::DseError;

/// The MOEA backend driving one campaign stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageAlgorithm {
    /// NSGA-II, optionally with a non-default tournament size.
    Nsga2 {
        /// Tournament size override (`None` = the paper's default of 5).
        tournament: Option<usize>,
    },
    /// SPEA2 (the `ablation_moea` backend). SPEA2 stages cannot be the
    /// target of a seeding edge.
    Spea2,
}

impl StageAlgorithm {
    /// The checkpoint tag identifying this backend.
    pub fn tag(self) -> AlgorithmTag {
        match self {
            StageAlgorithm::Nsga2 { .. } => AlgorithmTag::Nsga2,
            StageAlgorithm::Spea2 => AlgorithmTag::Spea2,
        }
    }
}

/// Which implementation library a stage searches over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibrarySource {
    /// The full-CLR library built at orchestrator construction.
    Main,
    /// A restricted library with a single reliability degree of freedom
    /// (the Agnostic baseline's per-layer searches); built on demand.
    SingleLayer(Layer),
    /// The pruning-ablation library: random per-group subsets of the
    /// full space, deterministic in the given seed.
    RandomSubset(u64),
}

/// One node of a campaign's stage graph.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePlan {
    /// Stage label: names the stage's [`FrontResult`], its executor
    /// telemetry records, and its checkpoint bookkeeping. Must be
    /// whitespace-free (trace records embed it as one token).
    pub label: String,
    /// The MOEA backend.
    pub algorithm: StageAlgorithm,
    /// Choice-list mode of the stage's codec.
    pub mode: ChoiceMode,
    /// The implementation library the stage searches.
    pub library: LibrarySource,
    /// Seed salt: the stage GA seed is
    /// `budget.seed · 0x9E3779B9 + salt`, the same scheme the historic
    /// `run_*` methods used, so campaign stages reproduce their
    /// trajectories bit-exactly.
    pub salt: u64,
    /// The stage runs `(budget.generations / divisor).max(1)`
    /// generations — the Agnostic baseline's budget-fair quartering.
    pub generations_divisor: usize,
    /// Seeding edges: indices of earlier stages whose front genomes
    /// seed this stage's initial population, concatenated in edge
    /// order — the proposed flow's pf → fc hand-off, and the island
    /// model's migration channel.
    pub seed_from: Vec<usize>,
}

impl StagePlan {
    /// A default-shaped NSGA-II stage over the main library: the
    /// building block custom plans start from (override fields with
    /// struct-update syntax, as the built-in constructors do).
    pub fn nsga2(label: &str, mode: ChoiceMode, salt: u64) -> Self {
        StagePlan {
            label: label.to_owned(),
            algorithm: StageAlgorithm::Nsga2 { tournament: None },
            mode,
            library: LibrarySource::Main,
            salt,
            generations_divisor: 1,
            seed_from: Vec::new(),
        }
    }

    /// This stage's generation budget under `budget`.
    pub fn generations(&self, budget: &StageBudget) -> usize {
        (budget.generations / self.generations_divisor).max(1)
    }
}

/// A declarative multi-stage DSE plan: the stage nodes plus their
/// seeding edges. Built-in constructors reproduce every method of the
/// paper; custom plans compose the same vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPlan {
    /// The campaign name: the final [`FrontResult`]'s method label and
    /// the checkpoint method tag. Must be whitespace-free.
    pub name: String,
    /// The stages, in execution order. Seeding edges must point
    /// backwards.
    pub stages: Vec<StagePlan>,
}

impl CampaignPlan {
    /// The problem-agnostic fcCLR baseline: one full-space stage.
    pub fn fc() -> Self {
        CampaignPlan {
            name: "fcCLR".to_owned(),
            stages: vec![StagePlan::nsga2("fcCLR", ChoiceMode::Full, 1)],
        }
    }

    /// The task-level-Pareto-filtered pfCLR method: one filtered stage.
    pub fn pf() -> Self {
        CampaignPlan {
            name: "pfCLR".to_owned(),
            stages: vec![StagePlan::nsga2("pfCLR", ChoiceMode::ParetoFiltered, 2)],
        }
    }

    /// pfCLR with a non-default tournament size (the
    /// `ablation_tournament` study).
    ///
    /// # Panics
    ///
    /// Panics if `tournament_size == 0`.
    pub fn pf_with_tournament(tournament_size: usize) -> Self {
        assert!(tournament_size > 0, "tournament size must be at least 1");
        let mut plan = CampaignPlan::pf();
        plan.stages[0].algorithm = StageAlgorithm::Nsga2 {
            tournament: Some(tournament_size),
        };
        plan
    }

    /// pfCLR under the SPEA2 backend (the `ablation_moea` study).
    pub fn pf_spea2() -> Self {
        CampaignPlan {
            name: "pfCLR/spea2".to_owned(),
            stages: vec![StagePlan {
                algorithm: StageAlgorithm::Spea2,
                ..StagePlan::nsga2("pfCLR/spea2", ChoiceMode::ParetoFiltered, 7)
            }],
        }
    }

    /// The proposed methodology (Fig. 4(b)): a full pf stage whose front
    /// seeds an additional full-space fc stage; fronts merged.
    pub fn proposed() -> Self {
        let fc_stage = StagePlan {
            seed_from: vec![0],
            ..StagePlan::nsga2("proposed/fc-stage", ChoiceMode::Full, 4)
        };
        CampaignPlan {
            name: "proposed".to_owned(),
            stages: vec![
                StagePlan::nsga2("proposed/pf-stage", ChoiceMode::ParetoFiltered, 2),
                fc_stage,
            ],
        }
    }

    /// One single-degree-of-freedom baseline stage for `layer`.
    pub fn single_layer(layer: Layer) -> Self {
        CampaignPlan {
            name: layer.name().to_owned(),
            stages: vec![StagePlan {
                library: LibrarySource::SingleLayer(layer),
                ..StagePlan::nsga2(layer.name(), ChoiceMode::Full, 10 + layer as u64)
            }],
        }
    }

    /// The other-layer-agnostic baseline (Fig. 7): all four single-layer
    /// stages, each on a quarter of the generation budget, merged and
    /// Pareto-filtered.
    pub fn agnostic() -> Self {
        CampaignPlan {
            name: "Agnostic".to_owned(),
            stages: Layer::ALL
                .iter()
                .map(|&layer| StagePlan {
                    library: LibrarySource::SingleLayer(layer),
                    generations_divisor: Layer::ALL.len(),
                    ..StagePlan::nsga2(layer.name(), ChoiceMode::Full, 10 + layer as u64)
                })
                .collect(),
        }
    }

    /// The pruning ablation: a pfCLR-shaped stage over random per-group
    /// subsets of the full space.
    pub fn random_subset(subset_seed: u64) -> Self {
        CampaignPlan {
            name: "random-subset".to_owned(),
            stages: vec![StagePlan {
                library: LibrarySource::RandomSubset(subset_seed),
                ..StagePlan::nsga2("random-subset", ChoiceMode::ParetoFiltered, 5)
            }],
        }
    }

    /// Appends a stage to the plan (builder style).
    ///
    /// # Examples
    ///
    /// A custom two-stage plan with an explicit seeding edge:
    ///
    /// ```
    /// use clre::campaign::{CampaignPlan, StagePlan};
    /// use clre::encoding::ChoiceMode;
    ///
    /// let plan = CampaignPlan::named("pf-then-fc")
    ///     .with_stage(StagePlan::nsga2("pf", ChoiceMode::ParetoFiltered, 2))
    ///     .with_stage(StagePlan {
    ///         seed_from: vec![0],
    ///         ..StagePlan::nsga2("fc", ChoiceMode::Full, 4)
    ///     });
    /// assert_eq!(plan.stages.len(), 2);
    /// assert_eq!(plan.stages[1].seed_from, vec![0]);
    /// ```
    #[must_use]
    pub fn with_stage(mut self, stage: StagePlan) -> Self {
        self.stages.push(stage);
        self
    }

    /// An empty plan with the given campaign name; add stages with
    /// [`CampaignPlan::with_stage`]. The name must be whitespace-free.
    pub fn named(name: impl Into<String>) -> Self {
        CampaignPlan {
            name: name.into(),
            stages: Vec::new(),
        }
    }

    /// The island-model expansion of this plan with the default two
    /// migration epochs: `islands` independent subpopulation lineages,
    /// each a full copy of the plan under a distinct salted RNG stream,
    /// with each epoch's entry stage seeded by the previous epoch's
    /// fronts of its own lineage *and* its ring neighbor (see
    /// [`CampaignPlan::islands_with_epochs`]).
    ///
    /// The resulting plan is named `{name}/islands{n}` and runs on the
    /// ordinary [`ClrEarly::run`] path: stages execute in deterministic
    /// order and fronts merge through the indexed-slot concluder, so
    /// the final front is bit-identical for every evaluation backend
    /// and worker count. `islands(1)` still runs two chained epochs of
    /// the plan (a seeded restart); the identity expansion is
    /// `islands_with_epochs(1, 1)`.
    ///
    /// # Panics
    ///
    /// As [`CampaignPlan::islands_with_epochs`].
    #[must_use]
    pub fn islands(&self, islands: usize) -> Self {
        self.islands_with_epochs(islands, 2)
    }

    /// The island-model expansion with an explicit epoch count.
    ///
    /// The plan's stage list is replicated `islands × epochs` times, in
    /// epoch-major order. Block `(e, i)` keeps the base plan's internal
    /// seeding edges (remapped into the block) and derives its RNG
    /// streams by adding `block « 32` to every stage salt, so island
    /// lineages never share a generation's random stream. For `e > 0`,
    /// the block's first stage gains two migration edges: the final
    /// stage of block `(e−1, i)` and of block `(e−1, (i+1) mod n)` —
    /// front points travel the ring exactly like the proposed flow's
    /// pf → fc hand-off, which keeps checkpoint/resume and determinism
    /// arguments unchanged. Per-stage generation budgets are divided by
    /// `epochs` so one lineage spends the same generation budget as the
    /// base plan.
    ///
    /// `islands_with_epochs(1, 1)` returns the plan unchanged (same
    /// name, no label suffixes).
    ///
    /// # Panics
    ///
    /// Panics if `islands == 0` or `epochs == 0`, on a structurally
    /// invalid base plan, or when `epochs > 1` and the plan's first
    /// stage is not NSGA-II (migration seeds an unseedable stage).
    #[must_use]
    pub fn islands_with_epochs(&self, islands: usize, epochs: usize) -> Self {
        assert!(islands > 0, "island count must be at least 1");
        assert!(epochs > 0, "epoch count must be at least 1");
        self.assert_well_formed();
        if islands == 1 && epochs == 1 {
            return self.clone();
        }
        if epochs > 1 {
            assert!(
                self.stages[0].algorithm.tag() == AlgorithmTag::Nsga2,
                "island migration seeds the first stage, which must be NSGA-II"
            );
        }
        let base_len = self.stages.len();
        let mut stages = Vec::with_capacity(base_len * islands * epochs);
        for epoch in 0..epochs {
            for island in 0..islands {
                let block = epoch * islands + island;
                let block_start = block * base_len;
                for (offset, base) in self.stages.iter().enumerate() {
                    let mut stage = base.clone();
                    stage.label = format!("{}#e{epoch}i{island}", base.label);
                    stage.salt = base.salt.wrapping_add((block as u64) << 32);
                    stage.generations_divisor *= epochs;
                    stage.seed_from = base.seed_from.iter().map(|&s| s + block_start).collect();
                    if offset == 0 && epoch > 0 {
                        let last_of =
                            |isl: usize| ((epoch - 1) * islands + isl) * base_len + (base_len - 1);
                        stage.seed_from.push(last_of(island));
                        if islands > 1 {
                            stage.seed_from.push(last_of((island + 1) % islands));
                        }
                    }
                    stages.push(stage);
                }
            }
        }
        CampaignPlan {
            name: format!("{}/islands{islands}", self.name),
            stages,
        }
    }

    /// Structural sanity of the stage graph.
    ///
    /// # Panics
    ///
    /// Panics on an empty plan, whitespace in labels/name, a seeding
    /// edge that does not point backwards, or a seeded SPEA2 stage.
    fn assert_well_formed(&self) {
        assert!(!self.stages.is_empty(), "campaign plan has no stages");
        assert!(
            !self.name.contains(char::is_whitespace),
            "campaign name must be whitespace-free"
        );
        for (i, stage) in self.stages.iter().enumerate() {
            assert!(
                !stage.label.contains(char::is_whitespace),
                "stage labels must be whitespace-free"
            );
            assert!(stage.generations_divisor > 0, "divisor must be at least 1");
            for &src in &stage.seed_from {
                assert!(src < i, "seeding edges must point to earlier stages");
                assert!(
                    stage.algorithm.tag() == AlgorithmTag::Nsga2,
                    "SPEA2 stages cannot be seeded"
                );
            }
        }
    }
}

/// Outcome of one supervised campaign stage.
enum StageOutcome {
    /// The stage ran to its generation budget.
    Complete {
        /// The stage's front (boxed: it dwarfs the other variant);
        /// health cumulative up to this stage.
        result: Box<FrontResult>,
        /// All approximation-set genomes (seeds for downstream stages).
        genomes: Vec<Genome>,
    },
    /// The supervisor's crash-injection seam fired; a checkpoint is on
    /// disk.
    Interrupted {
        /// Generations completed when the stage stopped.
        generation: usize,
    },
}

/// Outcome of the generic supervised drive loop (pre-metrics).
enum SupervisedDrive {
    Complete {
        members: Vec<clre_moea::Individual<Genome>>,
        evaluations: usize,
        health: RunHealth,
    },
    Interrupted {
        generation: usize,
    },
}

impl<'a> ClrEarly<'a> {
    /// Runs a campaign plan without supervision: every stage is driven
    /// through the shared [`EvolutionState`] path and the executor, and
    /// the stage fronts are merged (single-stage plans return that
    /// stage's front directly). Deterministic in `budget.seed`; the
    /// built-in plans reproduce the corresponding `run_*` results
    /// bit-exactly.
    ///
    /// # Errors
    ///
    /// Propagates codec construction and (for single-layer stages)
    /// task-level DSE failures.
    ///
    /// # Panics
    ///
    /// Panics on a structurally invalid plan (empty, whitespace labels,
    /// forward seeding edges, seeded SPEA2 stages).
    pub fn run(&self, plan: &CampaignPlan, budget: &StageBudget) -> Result<FrontResult, DseError> {
        plan.assert_well_formed();
        let mut results: Vec<FrontResult> = Vec::with_capacity(plan.stages.len());
        let mut stage_genomes: Vec<Vec<Genome>> = Vec::with_capacity(plan.stages.len());
        for stage in &plan.stages {
            let seeds = stage
                .seed_from
                .iter()
                .flat_map(|&i| stage_genomes[i].iter().cloned())
                .collect();
            let (result, genomes) = self.run_plan_stage(stage, budget, seeds)?;
            results.push(result);
            stage_genomes.push(genomes);
        }
        Ok(conclude_plain(plan, results))
    }

    /// Runs a campaign plan under a [`RunSupervisor`]: evaluation
    /// failures are isolated and quarantined, and every stage
    /// checkpoints at the supervisor's cadence — the checkpoint records
    /// the stage index and the fronts of all completed stages, so
    /// [`ClrEarly::resume`] continues at the interrupted stage with
    /// earlier stages reconstituted, never re-run.
    ///
    /// # Errors
    ///
    /// Propagates codec construction and checkpoint I/O failures.
    ///
    /// # Panics
    ///
    /// As [`ClrEarly::run`].
    pub fn run_supervised(
        &self,
        plan: &CampaignPlan,
        budget: &StageBudget,
        supervisor: &RunSupervisor,
    ) -> Result<RunOutcome, DseError> {
        plan.assert_well_formed();
        self.bind_cache_sidecar(supervisor);
        // A fresh run's sidecar holds only its own records (none if clean).
        let quarantine = quarantine_sidecar_path(supervisor.checkpoint_path());
        let _ = std::fs::remove_file(&quarantine);
        self.drive_campaign(
            plan,
            budget,
            supervisor,
            Vec::new(),
            Vec::new(),
            RunHealth::default(),
            None,
            QuarantineSidecar::new(quarantine),
        )
    }

    /// Resumes an interrupted supervised campaign from the supervisor's
    /// checkpoint file and drives it to completion (unless the
    /// supervisor's crash-injection seam interrupts it again).
    ///
    /// The checkpoint's configuration echo (campaign name, stage index
    /// and algorithm, budget, seed, objective count, genome shape) is
    /// validated against `plan` and this orchestrator first; any
    /// mismatch is a [`DseError::Checkpoint`]. Because the checkpoint
    /// restores the exact population/archive, RNG state words and stage
    /// bookkeeping, the resumed campaign reproduces the uninterrupted
    /// campaign's final front bit-for-bit — for NSGA-II and SPEA2 stages
    /// alike.
    ///
    /// A corrupt or truncated primary checkpoint is not fatal: the load
    /// falls back through the rotation chain (`.1`, `.2`, …) to the
    /// newest file whose integrity digest verifies, losing at most the
    /// generations since that rotation. Every skipped file is counted in
    /// [`RunHealth::checkpoint_fallbacks`]. The quarantine sidecar is
    /// re-read alongside (malformed lines skipped and counted in
    /// [`RunHealth::sidecar_lines_skipped`], a foreign file counted as
    /// one and moved aside by the first append), and the resumed run
    /// appends its quarantines after the records already there.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] when no file in the rotation chain loads,
    /// or for a mismatched checkpoint; otherwise as for the supervised
    /// runs.
    ///
    /// # Panics
    ///
    /// As [`ClrEarly::run`].
    pub fn resume(
        &self,
        plan: &CampaignPlan,
        budget: &StageBudget,
        supervisor: &RunSupervisor,
    ) -> Result<RunOutcome, DseError> {
        plan.assert_well_formed();
        // Warm-start: load the persisted cache before the completed
        // stages are reconstituted, so their re-annotation is answered
        // from the sidecar instead of re-scheduling every front genome.
        self.bind_cache_sidecar(supervisor);
        let (cp, fallbacks) = Checkpoint::load_with_fallback(
            supervisor.checkpoint_path(),
            supervisor.config().keep_checkpoints,
        )?;
        self.validate_campaign_checkpoint(plan, &cp, budget)?;
        let Checkpoint {
            completed,
            state,
            mut health,
            ..
        } = cp;
        if health.resumed_from_generation.is_none() {
            health.resumed_from_generation = Some(state.generation);
        }
        health.checkpoint_fallbacks += fallbacks;
        let quarantine = quarantine_sidecar_path(supervisor.checkpoint_path());
        health.sidecar_lines_skipped += QuarantineSidecar::read(&quarantine)?.1;
        // Completed stages are reconstituted from their checkpointed
        // genomes: metrics (and thus objectives) are a pure function of
        // the genome, so the fronts need no re-evaluation.
        let mut results = Vec::with_capacity(completed.len());
        for (done, stage) in completed.iter().zip(&plan.stages) {
            results.push(self.front_from_genomes(
                stage,
                &done.label,
                &done.genomes,
                done.evaluations,
            )?);
        }
        self.drive_campaign(
            plan,
            budget,
            supervisor,
            completed,
            results,
            health,
            Some(state),
            QuarantineSidecar::new(quarantine),
        )
    }

    /// The shared supervised loop over a plan's stages, starting at
    /// stage `completed.len()` (fresh runs pass empty vectors, resumes
    /// pass the reconstituted prefix plus the interrupted stage's
    /// snapshot).
    #[allow(clippy::too_many_arguments)]
    fn drive_campaign(
        &self,
        plan: &CampaignPlan,
        budget: &StageBudget,
        supervisor: &RunSupervisor,
        mut completed: Vec<CompletedStage>,
        mut results: Vec<FrontResult>,
        base_health: RunHealth,
        mut resume: Option<EvoSnapshot<Genome>>,
        mut quarantine: QuarantineSidecar,
    ) -> Result<RunOutcome, DseError> {
        let mut health = base_health;
        // One writer per drive: its buffer is reused by every stage, and
        // its first save prunes rotation slots a larger `keep` left.
        let mut writer = CheckpointWriter::new(
            supervisor.checkpoint_path(),
            supervisor.config().keep_checkpoints,
        );
        for index in completed.len()..plan.stages.len() {
            let stage = &plan.stages[index];
            writer.begin_stage(
                &StageIdentity {
                    method: &plan.name,
                    algorithm: stage.algorithm.tag(),
                    stage: u32::try_from(index).expect("stage index fits u32"),
                    population_size: budget.population,
                    generations: budget.generations,
                    seed: budget.seed,
                    objective_count: self.objectives.len(),
                },
                &completed,
            );
            let seeds = stage
                .seed_from
                .iter()
                .flat_map(|&i| completed[i].genomes.iter().cloned())
                .collect();
            let outcome = self.run_plan_stage_supervised(
                plan,
                index,
                budget,
                supervisor,
                &mut writer,
                seeds,
                health.clone(),
                resume.take(),
                &mut quarantine,
            )?;
            match outcome {
                StageOutcome::Interrupted { generation } => {
                    return Ok(RunOutcome::Interrupted {
                        stage: u32::try_from(index).expect("stage index fits u32"),
                        generation,
                    });
                }
                StageOutcome::Complete { result, genomes } => {
                    // Stage health reports are cumulative: the next
                    // stage builds on this one's totals.
                    health = result.health.clone();
                    completed.push(CompletedStage {
                        label: stage.label.clone(),
                        evaluations: result.evaluations,
                        genomes,
                    });
                    results.push(*result);
                }
            }
        }
        let mut final_result = conclude_plain(plan, results);
        health.degraded_analyses += self.tdse_health.degraded_analyses;
        final_result.health = health;
        remove_checkpoint_files(supervisor.checkpoint_path());
        Ok(RunOutcome::Complete(final_result))
    }

    /// A stage problem over `codec` with this orchestrator's objective
    /// set, QoS spec and (if attached) fitness cache. When the
    /// orchestrator carries a remote app spec ([`ClrEarly::with_remote`])
    /// and the caller passes the stage, the problem is additionally
    /// tagged with its `clre-eval v1` context so stage executors with an
    /// [`EvalBackend`](clre_exec::EvalBackend) can ship its evaluations
    /// out of process.
    fn stage_problem<'b>(&self, codec: Codec<'b>, stage: Option<&StagePlan>) -> SystemProblem<'b> {
        let problem = SystemProblem::new(codec, self.objectives.clone(), self.spec);
        let problem = match &self.cache {
            Some(cache) => problem.with_cache(Arc::clone(cache)),
            None => problem,
        };
        match (&self.remote, stage) {
            (Some((app, scenario)), Some(stage)) => {
                let context = crate::remote::RemoteContext {
                    app: app.clone(),
                    scenario: *scenario,
                    mode: stage.mode,
                    library: stage.library,
                    digest: problem.digest(),
                };
                problem.with_remote(context.encode())
            }
            _ => problem,
        }
    }

    /// Binds the attached cache's persistence sidecar next to the
    /// supervisor's checkpoint file (idempotent; a cache bound earlier —
    /// e.g. to a sweep-wide sidecar — keeps its binding). Failures are
    /// swallowed: the cache is an accelerator, and a read-only disk must
    /// degrade it to in-memory, not fail the campaign.
    fn bind_cache_sidecar(&self, supervisor: &RunSupervisor) {
        if let Some(cache) = &self.cache {
            let _ = cache.bind_sidecar(&cache_sidecar_path(supervisor.checkpoint_path()));
        }
    }

    /// Resolves a stage's implementation library, building a single-layer
    /// one on `pool` (also used by the remote-evaluation vocabulary to
    /// mirror stage construction, on one thread per worker process).
    pub(crate) fn resolve_library(
        &self,
        source: LibrarySource,
        pool: &ExecPool,
    ) -> Result<Cow<'_, ImplLibrary>, DseError> {
        match source {
            LibrarySource::Main => Ok(Cow::Borrowed(self.library.as_ref())),
            LibrarySource::SingleLayer(layer) => {
                let (catalog, policy) = match layer {
                    Layer::Dvfs => (vec![ClrConfig::unprotected()], DvfsPolicy::All),
                    Layer::Hw => (ClrConfig::hw_only_catalog(), DvfsPolicy::NominalOnly),
                    Layer::Ssw => (ClrConfig::ssw_only_catalog(), DvfsPolicy::NominalOnly),
                    Layer::Asw => (ClrConfig::asw_only_catalog(), DvfsPolicy::NominalOnly),
                };
                let tdse = self
                    .tdse
                    .clone()
                    .with_clr_catalog(catalog)?
                    .with_dvfs_policy(policy);
                let (library, _) = build_library_on(self.graph, self.platform, &tdse, pool)?;
                Ok(Cow::Owned(library))
            }
            LibrarySource::RandomSubset(seed) => {
                Ok(Cow::Owned(self.library.with_random_subsets(seed)))
            }
        }
    }

    /// One unsupervised stage: build codec/problem/variation, drive the
    /// backend through [`EvolutionState`], realize the front points.
    fn run_plan_stage(
        &self,
        stage: &StagePlan,
        budget: &StageBudget,
        seeds: Vec<Genome>,
    ) -> Result<(FrontResult, Vec<Genome>), DseError> {
        let library = self.resolve_library(stage.library, &ExecPool::auto())?;
        let codec = Codec::new(self.graph, self.platform, &library, stage.mode)?;
        let problem = self.stage_problem(codec.clone(), Some(stage));
        let exec = self.stage_exec(&stage.label);
        let outcome = {
            let variation = ClrVariation::new(&codec);
            match stage.algorithm {
                StageAlgorithm::Nsga2 { tournament } => {
                    let mut config = budget.nsga2_config(stage.generations(budget), stage.salt);
                    if let Some(k) = tournament {
                        config = config.with_tournament_size(k);
                    }
                    let ga = Nsga2::new(problem, variation, config).with_seeds(seeds);
                    run_to_completion::<_, Nsga2State<Genome>>(&ga, &exec)
                }
                StageAlgorithm::Spea2 => {
                    debug_assert!(seeds.is_empty(), "SPEA2 stages cannot be seeded");
                    let config =
                        Spea2Config::new(budget.population, stage.generations(budget).max(1))
                            .with_seed(stage_seed(budget, stage.salt));
                    let ga = Spea2::new(problem, variation, config);
                    run_to_completion::<_, Spea2State<Genome>>(&ga, &exec)
                }
            }
        };
        let metrics_problem = self.stage_problem(codec, None);
        let mut points = Vec::with_capacity(outcome.members.len());
        let mut genomes = Vec::with_capacity(outcome.members.len());
        for ind in outcome.members {
            points.push(FrontPoint {
                objectives: ind.objectives.clone(),
                metrics: metrics_problem.metrics_of(&ind.genome),
                genome: ind.genome.clone(),
            });
            genomes.push(ind.genome);
        }
        Ok((
            FrontResult {
                method: stage.label.clone(),
                points: dedup_front(points),
                evaluations: outcome.evaluations,
                health: RunHealth::default(),
            },
            genomes,
        ))
    }

    /// One supervised stage: the same construction as
    /// [`ClrEarly::run_plan_stage`], but over a panic-isolating problem
    /// wrapper and with checkpointing threaded through the generic drive
    /// loop.
    #[allow(clippy::too_many_arguments)]
    fn run_plan_stage_supervised(
        &self,
        plan: &CampaignPlan,
        index: usize,
        budget: &StageBudget,
        supervisor: &RunSupervisor,
        writer: &mut CheckpointWriter,
        seeds: Vec<Genome>,
        base_health: RunHealth,
        resume: Option<EvoSnapshot<Genome>>,
        quarantine: &mut QuarantineSidecar,
    ) -> Result<StageOutcome, DseError> {
        let stage = &plan.stages[index];
        let library = self.resolve_library(stage.library, &ExecPool::auto())?;
        let codec = Codec::new(self.graph, self.platform, &library, stage.mode)?;
        let problem = self.stage_problem(codec.clone(), Some(stage));
        let mut resilient =
            ResilientProblem::new(problem).with_max_retries(supervisor.config().max_retries);
        if let Some(deadline) = supervisor.config().eval_deadline {
            resilient = resilient.with_deadline(deadline);
        }
        if let Some(backoff) = supervisor.config().backoff {
            resilient = resilient.with_backoff(backoff);
        }
        if let Some(injector) = supervisor.fault_injector() {
            resilient = resilient.with_injector(injector);
        }
        let eval_health = resilient.health();
        let quarantine_log = resilient.quarantine_log();
        let exec = self.stage_exec(&stage.label);
        let stage_index = u32::try_from(index).expect("stage index fits u32");
        let drive = {
            let variation = ClrVariation::new(&codec);
            match stage.algorithm {
                StageAlgorithm::Nsga2 { tournament } => {
                    let mut config = budget.nsga2_config(stage.generations(budget), stage.salt);
                    if let Some(k) = tournament {
                        config = config.with_tournament_size(k);
                    }
                    // Seeds only shape init_state, so passing them on
                    // resume is a no-op.
                    let ga = Nsga2::new(resilient, variation, config).with_seeds(seeds);
                    supervise::<_, Nsga2State<Genome>>(
                        &ga,
                        &exec,
                        stage_index,
                        writer,
                        supervisor,
                        &base_health,
                        &eval_health,
                        &quarantine_log,
                        quarantine,
                        self.cache.as_deref(),
                        resume,
                    )?
                }
                StageAlgorithm::Spea2 => {
                    debug_assert!(seeds.is_empty(), "SPEA2 stages cannot be seeded");
                    let config =
                        Spea2Config::new(budget.population, stage.generations(budget).max(1))
                            .with_seed(stage_seed(budget, stage.salt));
                    let ga = Spea2::new(resilient, variation, config);
                    supervise::<_, Spea2State<Genome>>(
                        &ga,
                        &exec,
                        stage_index,
                        writer,
                        supervisor,
                        &base_health,
                        &eval_health,
                        &quarantine_log,
                        quarantine,
                        self.cache.as_deref(),
                        resume,
                    )?
                }
            }
        };
        match drive {
            SupervisedDrive::Interrupted { generation } => {
                Ok(StageOutcome::Interrupted { generation })
            }
            SupervisedDrive::Complete {
                members,
                evaluations,
                health,
            } => {
                let metrics_problem = self.stage_problem(codec, None);
                let mut points = Vec::with_capacity(members.len());
                let mut genomes = Vec::with_capacity(members.len());
                for ind in members {
                    // A fully quarantined population can push unevaluable
                    // genomes onto the approximation set; they carry no
                    // physical metrics, so they are dropped from the
                    // reported front (the quarantine events themselves
                    // are visible in `health`).
                    if let Ok(metrics) = metrics_problem.try_metrics_of(&ind.genome) {
                        points.push(FrontPoint {
                            objectives: ind.objectives.clone(),
                            metrics,
                            genome: ind.genome.clone(),
                        });
                    }
                    genomes.push(ind.genome);
                }
                Ok(StageOutcome::Complete {
                    result: Box::new(FrontResult {
                        method: stage.label.clone(),
                        points: dedup_front(points),
                        evaluations,
                        health,
                    }),
                    genomes,
                })
            }
        }
    }

    /// Reconstitutes a stage result from its checkpointed front genomes.
    fn front_from_genomes(
        &self,
        stage: &StagePlan,
        label: &str,
        genomes: &[Genome],
        evaluations: usize,
    ) -> Result<FrontResult, DseError> {
        let library = self.resolve_library(stage.library, &ExecPool::auto())?;
        let codec = Codec::new(self.graph, self.platform, &library, stage.mode)?;
        let problem = self.stage_problem(codec, None);
        let mut points = Vec::with_capacity(genomes.len());
        for g in genomes {
            if let Ok(metrics) = problem.try_metrics_of(g) {
                points.push(FrontPoint {
                    objectives: metrics.objective_vector(&self.objectives),
                    metrics,
                    genome: g.clone(),
                });
            }
        }
        Ok(FrontResult {
            method: label.to_owned(),
            points: dedup_front(points),
            evaluations,
            health: RunHealth::default(),
        })
    }

    fn validate_campaign_checkpoint(
        &self,
        plan: &CampaignPlan,
        cp: &Checkpoint,
        budget: &StageBudget,
    ) -> Result<(), DseError> {
        let mismatch =
            |what: String| -> Result<(), DseError> { Err(DseError::Checkpoint { what }) };
        if cp.method != plan.name {
            return mismatch(format!(
                "campaign mismatch: checkpoint {:?}, plan {:?}",
                cp.method, plan.name
            ));
        }
        let stage_index = cp.stage as usize;
        let Some(stage) = plan.stages.get(stage_index) else {
            return mismatch(format!(
                "stage index {} beyond plan with {} stages",
                cp.stage,
                plan.stages.len()
            ));
        };
        if cp.algorithm != stage.algorithm.tag() {
            return mismatch(format!(
                "algorithm mismatch at stage {}: checkpoint {}, plan {}",
                cp.stage,
                cp.algorithm.as_str(),
                stage.algorithm.tag().as_str()
            ));
        }
        if cp.completed.len() != stage_index {
            return mismatch(format!(
                "checkpoint at stage {} records {} completed stages",
                cp.stage,
                cp.completed.len()
            ));
        }
        for (done, planned) in cp.completed.iter().zip(&plan.stages) {
            if done.label != planned.label {
                return mismatch(format!(
                    "completed stage label mismatch: checkpoint {:?}, plan {:?}",
                    done.label, planned.label
                ));
            }
        }
        if cp.population_size != budget.population {
            return mismatch(format!(
                "population mismatch: checkpoint {}, budget {}",
                cp.population_size, budget.population
            ));
        }
        if cp.generations != budget.generations {
            return mismatch(format!(
                "generation budget mismatch: checkpoint {}, budget {}",
                cp.generations, budget.generations
            ));
        }
        if cp.seed != budget.seed {
            return mismatch(format!(
                "seed mismatch: checkpoint {}, budget {}",
                cp.seed, budget.seed
            ));
        }
        if cp.objective_count != self.objectives.len() {
            return mismatch(format!(
                "objective count mismatch: checkpoint {}, run {}",
                cp.objective_count,
                self.objectives.len()
            ));
        }
        if cp.state.generation > stage.generations(budget) {
            return mismatch(format!(
                "corrupt snapshot: generation {} beyond stage budget {}",
                cp.state.generation,
                stage.generations(budget)
            ));
        }
        let task_count = self.graph.tasks().len();
        let genome_shapes = cp
            .state
            .population
            .iter()
            .chain(&cp.state.archive)
            .map(|ind| &ind.genome)
            .chain(cp.completed.iter().flat_map(|s| s.genomes.iter()));
        for g in genome_shapes {
            if g.len() != task_count {
                return mismatch(format!(
                    "genome length {} does not match application task count {task_count}",
                    g.len()
                ));
            }
        }
        Ok(())
    }
}

/// The per-stage GA seed (the historic salt scheme).
fn stage_seed(budget: &StageBudget, salt: u64) -> u64 {
    budget.seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt)
}

/// Drives `alg` to completion through the trait (bit-identical to the
/// backend's own `run_with`).
fn run_to_completion<A, S: EvolutionState<A, Genome = Genome>>(
    alg: &A,
    exec: &Executor,
) -> EvoOutcome<Genome> {
    let mut state = S::init_with(alg, exec);
    while state.step_with(alg, exec) {}
    state.finalize(alg)
}

/// NSGA-II's rank-0 set (and merged fronts) may contain exact duplicates
/// (neither copy strictly dominates the other); report each point once.
///
/// Objectives are borrowed into one flat matrix and survivors are moved
/// out by keep-mask — no per-point clones.
fn dedup_front(points: Vec<FrontPoint>) -> Vec<FrontPoint> {
    let cols = points.first().map_or(0, |p| p.objectives.len());
    let mut objs = ObjectiveMatrix::with_capacity(cols, points.len());
    for p in &points {
        objs.push_row(&p.objectives);
    }
    let mut keep = vec![false; points.len()];
    for i in clre_moea::kernels::non_dominated_matrix(&objs) {
        keep[i] = true;
    }
    points
        .into_iter()
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect()
}

/// Final-result assembly shared by the plain and supervised paths: a
/// single-stage plan's result is reported directly under the campaign
/// name; multi-stage plans are Pareto-merged.
fn conclude_plain(plan: &CampaignPlan, mut results: Vec<FrontResult>) -> FrontResult {
    if results.len() == 1 {
        let mut r = results.pop().expect("one result");
        r.method = plan.name.clone();
        r
    } else {
        FrontResult::merge(plan.name.clone(), results.iter())
    }
}

/// The generic supervised drive loop: step-wise evolution over a
/// panic-isolating problem, checkpointing stage `stage` through `writer`
/// (whose prefix holds the stage identity and completed stages) at the
/// supervisor's cadence, with the crash-injection seam honoured before
/// every generation; each save moves the records quarantined since the
/// last one to `quarantine`. Works identically for NSGA-II and SPEA2
/// states — this is the single copy of the supervision plumbing.
#[allow(clippy::too_many_arguments)]
fn supervise<A, S: EvolutionState<A, Genome = Genome>>(
    ga: &A,
    exec: &Executor,
    stage: u32,
    writer: &mut CheckpointWriter,
    supervisor: &RunSupervisor,
    base_health: &RunHealth,
    eval_health: &crate::resilience::HealthHandle,
    quarantine_log: &std::sync::Arc<std::sync::Mutex<Vec<crate::resilience::QuarantineRecord>>>,
    quarantine: &mut QuarantineSidecar,
    cache: Option<&EvalCache>,
    resume: Option<EvoSnapshot<Genome>>,
) -> Result<SupervisedDrive, DseError> {
    let fresh = resume.is_none();
    let mut state = match resume {
        Some(snapshot) => S::restore(snapshot),
        None => S::init_with(ga, exec),
    };
    let mut checkpoints = 0usize;
    let health_now = |checkpoints: usize| {
        let mut h = base_health.clone();
        h.merge(&eval_health.lock().expect("run health poisoned"));
        h.checkpoints_written += checkpoints;
        // Cache counters are live process-wide totals of the attached
        // cache (sidecar warm-start loads are not counted as activity),
        // so they are stamped, not accumulated, to stay monotone across
        // the stages of one campaign.
        if let Some(cache) = cache {
            let counts = cache.fitness_counts();
            h.cache_hits = counts.hits;
            h.cache_misses = counts.misses;
            h.cache_inserts = counts.inserts;
        }
        h
    };
    // Moves the records quarantined since the last call to the sidecar.
    let mut persist_quarantine = || {
        let fresh = std::mem::take(&mut *quarantine_log.lock().expect("quarantine log poisoned"));
        quarantine.append(&fresh)
    };
    // Checkpoints carry nothing thread-dependent: the state's population
    // and RNG words are identical for any worker count, and the health
    // counters are totals, not per-worker data.
    let mut save = |state: &S, health: RunHealth| -> Result<(), DseError> {
        // Every journal line inserted so far reaches disk before the
        // checkpoint that a resume would start from.
        if let Some(cache) = cache {
            cache.flush_sidecar();
        }
        writer.save(&health, &state.snapshot())?;
        persist_quarantine()
    };
    // Stamp the cumulative quarantine/degraded counters onto the trace
    // record of the batch that just ran (no batch ran on resume).
    let annotate = || {
        let h = health_now(0);
        exec.annotate_health(h.quarantined, h.degraded_analyses);
        exec.annotate_faults(h.timeouts, h.backoff_ms, h.injected, h.recovered);
        if let Some(cache) = cache {
            let counts = cache.fitness_counts();
            exec.annotate_cache(counts.hits, counts.misses);
        }
    };
    if fresh {
        annotate();
        exec.flush_trace();
    }

    loop {
        if supervisor.should_interrupt(stage, state.generation()) {
            checkpoints += 1;
            let health = health_now(checkpoints);
            let generation = state.generation();
            save(&state, health)?;
            exec.flush_trace();
            return Ok(SupervisedDrive::Interrupted { generation });
        }
        if !state.step_with(ga, exec) {
            break;
        }
        annotate();
        // Push the finalized trace line to any attached live stream now,
        // not at run end — a socket consumer sees each generation as it
        // completes.
        exec.flush_trace();
        if state.generation() % supervisor.config().every_generations == 0 {
            checkpoints += 1;
            let health = health_now(checkpoints);
            save(&state, health)?;
        }
    }
    // Stage-end sidecar append, so triage data survives even when the
    // run completes and the checkpoints are cleaned up.
    persist_quarantine()?;

    let health = health_now(checkpoints);
    let outcome = state.finalize(ga);
    Ok(SupervisedDrive::Complete {
        members: outcome.members,
        evaluations: outcome.evaluations,
        health,
    })
}
