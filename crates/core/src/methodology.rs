//! The multi-stage system-level DSE methodology (Section V, Fig. 4).
//!
//! [`ClrEarly`] orchestrates every search variant evaluated in the
//! paper. Each method is a named [`CampaignPlan`] preset handed to the
//! single entry point [`ClrEarly::run`] (or its supervised/resumable
//! twins):
//!
//! * [`CampaignPlan::fc`] — **fcCLR**: a problem-agnostic GA over the
//!   full `mapping × scheduling × implementation × CLR` space (the Das
//!   et al. DATE'14 extension the paper compares against).
//! * [`CampaignPlan::pf`] — **pfCLR**: the same GA restricted to the
//!   task-level Pareto-filtered implementations.
//! * [`CampaignPlan::proposed`] — the **proposed** methodology: a full
//!   pfCLR run whose final front seeds an *additional* fcCLR run
//!   (guided/seeded search, Fig. 4(b)); the stage fronts are merged.
//! * [`CampaignPlan::single_layer`] / [`CampaignPlan::agnostic`] — the
//!   other-layer-agnostic baseline of Fig. 7: independent optimizations
//!   with a single degree of freedom each (DVFS / HWRel / SSWRel /
//!   ASWRel), merged and Pareto-filtered.

use std::sync::Arc;

use clre_exec::Executor;
use clre_model::qos::{ObjectiveSet, QosSpec, SystemMetrics};
use clre_model::{Platform, TaskGraph};
use clre_moea::Nsga2Config;
use serde::{Deserialize, Serialize};

use crate::cache::EvalCache;
use crate::campaign::CampaignPlan;
use crate::encoding::Genome;
use crate::library::ImplLibrary;
use crate::resilience::{AlgorithmTag, Checkpoint, RunHealth, RunOutcome, RunSupervisor};
use crate::tdse::{build_library_with_health, TdseConfig, TdseHealth};
use crate::DseError;

/// A single reliability layer (degree of freedom) for the Agnostic
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// DVFS modes only; no CLR methods.
    Dvfs,
    /// Hardware-layer methods only, at the nominal DVFS mode.
    Hw,
    /// System-software-layer methods only, at the nominal DVFS mode.
    Ssw,
    /// Application-software-layer methods only, at the nominal DVFS mode.
    Asw,
}

impl Layer {
    /// All four layers, in the paper's presentation order.
    pub const ALL: [Layer; 4] = [Layer::Dvfs, Layer::Hw, Layer::Ssw, Layer::Asw];

    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Dvfs => "DVFS",
            Layer::Hw => "HWRel",
            Layer::Ssw => "SSWRel",
            Layer::Asw => "ASWRel",
        }
    }
}

/// Evaluation budget of one system-level GA run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageBudget {
    /// Population size.
    pub population: usize,
    /// Generations per GA run (each stage of the proposed flow runs this
    /// many).
    pub generations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl StageBudget {
    /// A paper-scale budget: population 100, 120 generations.
    pub fn new(population: usize, generations: usize) -> Self {
        StageBudget {
            population,
            generations,
            seed: 0,
        }
    }

    /// A tiny budget for unit tests and doc examples.
    pub fn smoke_test() -> Self {
        StageBudget {
            population: 16,
            generations: 8,
            seed: 1,
        }
    }

    /// Sets the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub(crate) fn nsga2_config(&self, generations: usize, salt: u64) -> Nsga2Config {
        Nsga2Config::new(self.population, generations.max(1))
            .with_seed(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(salt))
    }
}

impl Default for StageBudget {
    fn default() -> Self {
        StageBudget::new(100, 120)
    }
}

/// One point of a final Pareto front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontPoint {
    /// The minimization objective vector under the run's objective set.
    pub objectives: Vec<f64>,
    /// The full Table III metrics of the design point.
    pub metrics: SystemMetrics,
    /// The design point itself — the genome realizing these metrics.
    pub genome: Genome,
}

/// The outcome of one methodology run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontResult {
    pub(crate) method: String,
    pub(crate) points: Vec<FrontPoint>,
    /// Total fitness evaluations spent.
    pub evaluations: usize,
    /// Resilience report: failures isolated, candidates quarantined,
    /// degraded analyses, checkpoint/resume activity. Populated by the
    /// supervised entry points ([`ClrEarly::run_supervised`] and
    /// friends); the plain runs leave it at its clean default.
    pub health: RunHealth,
}

impl FrontResult {
    /// The method label (`"fcCLR"`, `"pfCLR"`, `"proposed"`, …).
    pub fn method(&self) -> &str {
        &self.method
    }

    /// The Pareto-front points.
    pub fn front(&self) -> &[FrontPoint] {
        &self.points
    }

    /// The raw objective vectors of the front.
    pub fn objectives(&self) -> Vec<Vec<f64>> {
        self.points.iter().map(|p| p.objectives.clone()).collect()
    }

    /// Merges several results into one Pareto-filtered front (used by the
    /// Agnostic baseline and by multi-run studies).
    ///
    /// The merged `health` is reset to its clean default: per-stage health
    /// reports are cumulative under the supervised flow, so summing them
    /// here would double-count. Callers that track health across stages
    /// set it explicitly on the merged result.
    ///
    /// # Panics
    ///
    /// Panics if the results carry different objective dimensionalities.
    pub fn merge<'a>(
        label: impl Into<String>,
        results: impl IntoIterator<Item = &'a FrontResult>,
    ) -> FrontResult {
        let mut points = Vec::new();
        let mut evaluations = 0;
        for r in results {
            points.extend(r.points.iter().cloned());
            evaluations += r.evaluations;
        }
        let cols = points.first().map_or(0, |p| p.objectives.len());
        let mut objs = clre_moea::ObjectiveMatrix::with_capacity(cols, points.len());
        for p in &points {
            objs.push_row(&p.objectives);
        }
        let mut keep = vec![false; points.len()];
        for i in clre_moea::kernels::non_dominated_matrix(&objs) {
            keep[i] = true;
        }
        let points = points
            .into_iter()
            .zip(keep)
            .filter_map(|(p, k)| k.then_some(p))
            .collect();
        FrontResult {
            method: label.into(),
            points,
            evaluations,
            health: RunHealth::default(),
        }
    }
}

/// The CL(R)Early DSE orchestrator for one `(application, platform)` pair.
///
/// Construction runs the full-CLR task-level DSE once (or adopts a
/// prebuilt library, [`ClrEarly::from_library`]) and reuses the
/// resulting [`ImplLibrary`] across every method; the single-layer
/// baselines build their own restricted libraries on demand.
#[derive(Debug)]
pub struct ClrEarly<'a> {
    pub(crate) graph: &'a TaskGraph,
    pub(crate) platform: &'a Platform,
    pub(crate) tdse: TdseConfig,
    /// Shared, so orchestrators over one (application, scenario) pair
    /// can use a single resident copy.
    pub(crate) library: Arc<ImplLibrary>,
    pub(crate) tdse_health: TdseHealth,
    pub(crate) objectives: ObjectiveSet,
    pub(crate) spec: QosSpec,
    pub(crate) exec: Executor,
    pub(crate) cache: Option<Arc<EvalCache>>,
    pub(crate) remote: Option<(crate::apps::AppSpec, crate::scenario::Scenario)>,
}

impl<'a> ClrEarly<'a> {
    /// Creates an orchestrator with the default task-level DSE
    /// configuration and the bi-objective system set of Figs. 7–10.
    ///
    /// # Errors
    ///
    /// Propagates task-level DSE failures.
    pub fn new(graph: &'a TaskGraph, platform: &'a Platform) -> Result<Self, DseError> {
        Self::with_tdse_config(graph, platform, TdseConfig::default())
    }

    /// Creates an orchestrator with a custom task-level DSE configuration
    /// (e.g. a different Table IV objective set for the Fig. 9/10
    /// experiments).
    ///
    /// # Errors
    ///
    /// Propagates task-level DSE failures.
    pub fn with_tdse_config(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        tdse: TdseConfig,
    ) -> Result<Self, DseError> {
        let (library, tdse_health) = build_library_with_health(graph, platform, &tdse)?;
        Self::from_library(graph, platform, tdse, Arc::new(library), tdse_health)
    }

    /// Creates an orchestrator around a library already built from
    /// `graph`, `platform` and `tdse` — e.g. one memoized across
    /// campaigns — together with the [`TdseHealth`] its build reported,
    /// so run health counts what a fresh build would. `tdse` is kept
    /// for the single-layer baselines' restricted libraries.
    ///
    /// # Errors
    ///
    /// [`DseError::EmptyChoiceGroup`] if the library leaves some task of
    /// `graph` unmappable.
    pub fn from_library(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        tdse: TdseConfig,
        library: Arc<ImplLibrary>,
        tdse_health: TdseHealth,
    ) -> Result<Self, DseError> {
        library.validate_for(graph)?;
        Ok(ClrEarly {
            graph,
            platform,
            tdse,
            library,
            tdse_health,
            objectives: ObjectiveSet::system_bi(),
            spec: QosSpec::new(),
            exec: Executor::serial(),
            cache: None,
            remote: None,
        })
    }

    /// Creates an orchestrator configured by a reliability
    /// [`Scenario`](crate::scenario::Scenario): the scenario's CLR
    /// catalog and fault mechanism parameterize the task-level DSE, and
    /// its objective set becomes the system-level front's axes (the
    /// `lifetime` scenario optimizes MTTF alongside makespan and error
    /// probability). Every campaign plan — fc, pf, proposed, Agnostic —
    /// runs unchanged on the resulting orchestrator.
    ///
    /// [`Scenario::Transient`](crate::scenario::Scenario::Transient)
    /// reproduces [`ClrEarly::new`] bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates task-level DSE failures.
    pub fn with_scenario(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        scenario: &crate::scenario::Scenario,
    ) -> Result<Self, DseError> {
        let tdse = scenario.tdse_config()?;
        Ok(Self::with_tdse_config(graph, platform, tdse)?
            .with_objectives(scenario.system_objectives()))
    }

    /// Sets the system-level objective set (builder style).
    #[must_use]
    pub fn with_objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.objectives = objectives;
        self
    }

    /// Sets the QoS constraint specification (builder style).
    #[must_use]
    pub fn with_spec(mut self, spec: QosSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the evaluation executor (builder style): every GA run of this
    /// orchestrator fans its fitness batches through it, re-labeled per
    /// stage. Results are bit-identical for any worker count; only the
    /// wall clock and the telemetry trace differ.
    #[must_use]
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// The orchestrator's evaluation executor.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Declares that this orchestrator's `(application, platform)` pair
    /// is the named [`AppSpec`](crate::apps::AppSpec) built under
    /// `scenario` (builder style). With this set, every campaign stage
    /// problem is tagged with its `clre-eval v1` remote context (see
    /// [`crate::remote`]), so an executor carrying an
    /// [`EvalBackend`](clre_exec::EvalBackend) — thread pool or
    /// `clre-exec-worker` subprocesses — evaluates generations out of
    /// line, bit-identically to the in-process path.
    ///
    /// Pass the same scenario the orchestrator was constructed with;
    /// the worker verifies its reconstructed problem digest and falls
    /// back to in-process evaluation on any mismatch, so a stale spec
    /// can cost performance but never correctness.
    #[must_use]
    pub fn with_remote(
        mut self,
        app: crate::apps::AppSpec,
        scenario: crate::scenario::Scenario,
    ) -> Self {
        self.remote = Some((app, scenario));
        self
    }

    /// Attaches a shared evaluation cache (builder style): every GA run
    /// of this orchestrator memoizes genome fitness through it. Cached and
    /// uncached runs produce bit-identical fronts for any worker count;
    /// only the wall clock and the hit/miss telemetry differ.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The attached evaluation cache, if any.
    pub fn cache(&self) -> Option<&Arc<EvalCache>> {
        self.cache.as_ref()
    }

    /// This orchestrator's executor re-labeled for one stage.
    pub(crate) fn stage_exec(&self, label: &str) -> Executor {
        self.exec.clone().with_label(label)
    }

    /// The task-level library built at construction.
    pub fn library(&self) -> &ImplLibrary {
        &self.library
    }

    /// Health counters of the task-level DSE sweep that built the
    /// library — notably how many Markov analyses fell back to the
    /// degraded closed-form solver.
    pub fn tdse_health(&self) -> &TdseHealth {
        &self.tdse_health
    }

    /// The application graph.
    pub fn graph(&self) -> &TaskGraph {
        self.graph
    }

    /// The platform.
    pub fn platform(&self) -> &Platform {
        self.platform
    }

    /// Resumes an interrupted supervised run from the supervisor's
    /// checkpoint file and drives it to completion (unless the
    /// supervisor's crash-injection seam interrupts it again).
    ///
    /// The checkpoint's configuration echo (method, stage, budget, seed,
    /// objective count, genome shape) is validated against this
    /// orchestrator first; any mismatch is a [`DseError::Checkpoint`].
    /// Because the checkpoint restores the exact population, RNG state
    /// words and stage bookkeeping, the resumed run reproduces the
    /// uninterrupted run's final front bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`DseError::Checkpoint`] for a missing, malformed, or mismatched
    /// checkpoint; otherwise as for the supervised runs.
    pub fn resume_supervised(
        &self,
        budget: &StageBudget,
        supervisor: &RunSupervisor,
    ) -> Result<RunOutcome, DseError> {
        // Fallback-tolerant load: the method name must be recoverable even
        // when the primary checkpoint is corrupt. The skipped-file count is
        // discarded here — `ClrEarly::resume` re-loads through the same
        // chain and records it in the run's health.
        let (cp, _) = Checkpoint::load_with_fallback(
            supervisor.checkpoint_path(),
            supervisor.config().keep_checkpoints,
        )?;
        let plan = match plan_by_name(&cp.method) {
            Some(plan) => plan,
            None => {
                return Err(DseError::Checkpoint {
                    what: format!("cannot resume method {:?} at stage {}", cp.method, cp.stage),
                })
            }
        };
        self.resume(&plan, budget, supervisor)
    }
}

/// Resolves a built-in plan family by its campaign name — the inverse
/// of the preset constructors, used to reconstruct the plan a
/// checkpoint belongs to. An `/islands<n>` suffix resolves to the
/// default-epoch island expansion of the base plan
/// ([`CampaignPlan::islands`]); island plans with a non-default epoch
/// count are not name-resumable and must be resumed through
/// [`ClrEarly::resume`] with the explicit plan.
fn plan_by_name(name: &str) -> Option<CampaignPlan> {
    let base = |m: &str| {
        Some(match m {
            "fcCLR" => CampaignPlan::fc(),
            "pfCLR" => CampaignPlan::pf(),
            "proposed" => CampaignPlan::proposed(),
            "Agnostic" => CampaignPlan::agnostic(),
            "pfCLR/spea2" => CampaignPlan::pf_spea2(),
            "DVFS" => CampaignPlan::single_layer(Layer::Dvfs),
            "HWRel" => CampaignPlan::single_layer(Layer::Hw),
            "SSWRel" => CampaignPlan::single_layer(Layer::Ssw),
            "ASWRel" => CampaignPlan::single_layer(Layer::Asw),
            _ => return None,
        })
    };
    if let Some(plan) = base(name) {
        return Some(plan);
    }
    if let Some((prefix, count)) = name.rsplit_once("/islands") {
        if let Ok(islands) = count.parse::<usize>() {
            if islands > 0 {
                return base(prefix)
                    .filter(|plan| plan.stages[0].algorithm.tag() == AlgorithmTag::Nsga2)
                    .map(|plan| plan.islands(islands));
            }
        }
    }
    None
}

/// Computes a common hypervolume reference point for a family of fronts:
/// 10% beyond the worst observed value on every objective.
///
/// # Panics
///
/// Panics if `fronts` is empty or contains empty objective vectors of
/// differing dimensionality.
///
/// # Examples
///
/// ```
/// use clre::methodology::reference_point;
///
/// let fronts = vec![vec![vec![1.0, 4.0]], vec![vec![2.0, 3.0]]];
/// let r = reference_point(fronts.iter().map(|f| f.as_slice()));
/// assert!(r[0] > 2.0 && r[1] > 4.0);
/// ```
pub fn reference_point<'a>(fronts: impl IntoIterator<Item = &'a [Vec<f64>]>) -> Vec<f64> {
    let mut worst: Option<Vec<f64>> = None;
    let mut best: Option<Vec<f64>> = None;
    for front in fronts {
        for p in front {
            match (&mut worst, &mut best) {
                (Some(w), Some(b)) => {
                    assert_eq!(w.len(), p.len(), "dimensionality mismatch");
                    for i in 0..p.len() {
                        w[i] = w[i].max(p[i]);
                        b[i] = b[i].min(p[i]);
                    }
                }
                _ => {
                    worst = Some(p.clone());
                    best = Some(p.clone());
                }
            }
        }
    }
    let worst = worst.expect("at least one non-empty front is required");
    let best = best.expect("at least one non-empty front is required");
    worst
        .into_iter()
        .zip(best)
        .map(|(w, b)| {
            let span = (w - b).abs();
            if span > 0.0 {
                w + 0.1 * span
            } else {
                // Degenerate axis: nudge by 10% of magnitude (or 1).
                w + 0.1 * w.abs().max(1.0)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre_model::platform::paper_platform;
    use clre_moea::hypervolume::hypervolume;
    use clre_moea::pareto::non_dominated_indices;
    use clre_profile::SyntheticCharacterizer;
    use clre_tgff::TgffConfig;

    fn setup(tasks: usize) -> (Platform, TaskGraph) {
        let platform = paper_platform();
        let ch = SyntheticCharacterizer::new(5);
        let graph = clre_tgff::generate(&TgffConfig::new(tasks).with_type_count(5), 7, |ty| {
            ch.impls_for_type(ty, &platform)
        })
        .unwrap();
        (platform, graph)
    }

    #[test]
    fn all_methods_produce_nonempty_fronts() {
        let (p, g) = setup(8);
        let dse = ClrEarly::new(&g, &p).unwrap();
        let budget = StageBudget::smoke_test();
        for result in [
            dse.run(&CampaignPlan::fc(), &budget).unwrap(),
            dse.run(&CampaignPlan::pf(), &budget).unwrap(),
            dse.run(&CampaignPlan::proposed(), &budget).unwrap(),
            dse.run(&CampaignPlan::agnostic(), &budget).unwrap(),
        ] {
            assert!(!result.front().is_empty(), "{} empty", result.method());
            for pt in result.front() {
                assert_eq!(pt.objectives.len(), 2);
                assert!(pt.metrics.makespan > 0.0);
                assert!((0.0..=1.0).contains(&pt.metrics.error_prob));
            }
        }
    }

    #[test]
    fn front_objectives_are_mutually_nondominated() {
        let (p, g) = setup(8);
        let dse = ClrEarly::new(&g, &p).unwrap();
        let r = dse
            .run(&CampaignPlan::pf(), &StageBudget::smoke_test())
            .unwrap();
        let objs = r.objectives();
        let keep = non_dominated_indices(&objs);
        assert_eq!(keep.len(), objs.len());
    }

    #[test]
    fn proposed_is_pf_plus_additional_fc_run() {
        let (p, g) = setup(6);
        let dse = ClrEarly::new(&g, &p).unwrap();
        let budget = StageBudget::smoke_test();
        let fc = dse.run(&CampaignPlan::fc(), &budget).unwrap();
        let proposed = dse.run(&CampaignPlan::proposed(), &budget).unwrap();
        // Two full runs: twice the evaluations of one standalone run.
        assert_eq!(proposed.evaluations, 2 * fc.evaluations);
    }

    #[test]
    fn proposed_never_below_pfclr() {
        use clre_moea::hypervolume::hypervolume;
        let (p, g) = setup(10);
        let dse = ClrEarly::new(&g, &p).unwrap();
        for seed in [1u64, 2, 3] {
            let budget = StageBudget::smoke_test().with_seed(seed);
            let pf = dse.run(&CampaignPlan::pf(), &budget).unwrap().objectives();
            let prop = dse
                .run(&CampaignPlan::proposed(), &budget)
                .unwrap()
                .objectives();
            let r = reference_point([pf.as_slice(), prop.as_slice()]);
            assert!(
                hypervolume(&prop, &r) >= hypervolume(&pf, &r) - 1e-15,
                "seed {seed}: proposed fell below pfCLR"
            );
        }
    }

    #[test]
    fn clr_beats_agnostic_in_hypervolume() {
        let (p, g) = setup(12);
        let dse = ClrEarly::new(&g, &p).unwrap();
        let budget = StageBudget::new(24, 20).with_seed(3);
        let clr = dse.run(&CampaignPlan::proposed(), &budget).unwrap();
        let agn = dse.run(&CampaignPlan::agnostic(), &budget).unwrap();
        let clr_objs = clr.objectives();
        let agn_objs = agn.objectives();
        let r = reference_point([clr_objs.as_slice(), agn_objs.as_slice()]);
        let hv_clr = hypervolume(&clr_objs, &r);
        let hv_agn = hypervolume(&agn_objs, &r);
        assert!(
            hv_clr > hv_agn,
            "CLR ({hv_clr}) should dominate Agnostic ({hv_agn})"
        );
    }

    #[test]
    fn single_layer_runs_have_distinct_tradeoffs() {
        let (p, g) = setup(8);
        let dse = ClrEarly::new(&g, &p).unwrap();
        let budget = StageBudget::smoke_test();
        let fronts: Vec<FrontResult> = Layer::ALL
            .iter()
            .map(|&l| dse.run(&CampaignPlan::single_layer(l), &budget).unwrap())
            .collect();
        for (layer, f) in Layer::ALL.iter().zip(&fronts) {
            assert_eq!(f.method(), layer.name());
            assert!(!f.front().is_empty());
        }
        let merged = FrontResult::merge("Agnostic", fronts.iter());
        assert!(!merged.front().is_empty());
        assert_eq!(
            merged.evaluations,
            fronts.iter().map(|f| f.evaluations).sum::<usize>()
        );
    }

    #[test]
    fn spea2_backend_produces_comparable_fronts() {
        use clre_moea::hypervolume::hypervolume;
        let (p, g) = setup(10);
        let dse = ClrEarly::new(&g, &p).unwrap();
        let budget = StageBudget::new(20, 12).with_seed(4);
        let nsga = dse.run(&CampaignPlan::pf(), &budget).unwrap();
        let spea = dse.run(&CampaignPlan::pf_spea2(), &budget).unwrap();
        assert_eq!(spea.method(), "pfCLR/spea2");
        assert!(!spea.front().is_empty());
        let a = nsga.objectives();
        let b = spea.objectives();
        let r = reference_point([a.as_slice(), b.as_slice()]);
        let (ha, hb) = (hypervolume(&a, &r), hypervolume(&b, &r));
        // Same order of magnitude: neither backend collapses.
        assert!(hb > 0.2 * ha, "SPEA2 collapsed: {hb} vs NSGA-II {ha}");
        assert!(ha > 0.2 * hb, "NSGA-II collapsed: {ha} vs SPEA2 {hb}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (p, g) = setup(6);
        let dse = ClrEarly::new(&g, &p).unwrap();
        let b = StageBudget::smoke_test().with_seed(42);
        let a = dse.run(&CampaignPlan::proposed(), &b).unwrap();
        let c = dse.run(&CampaignPlan::proposed(), &b).unwrap();
        assert_eq!(a.objectives(), c.objectives());
    }

    #[test]
    fn reference_point_covers_all_fronts() {
        let fronts = [vec![vec![1.0, 5.0], vec![2.0, 4.0]], vec![vec![3.0, 1.0]]];
        let r = reference_point(fronts.iter().map(|f| f.as_slice()));
        for f in &fronts {
            for p in f {
                assert!(p[0] < r[0] && p[1] < r[1]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty front")]
    fn reference_point_requires_points() {
        reference_point(std::iter::empty::<&[Vec<f64>]>());
    }

    #[test]
    fn scenarios_run_every_plan_family_end_to_end() {
        use crate::scenario::Scenario;
        let (p, g) = setup(6);
        let budget = StageBudget::smoke_test();
        for name in ["lifetime:5000", "chkmodes", "fpga"] {
            let s = Scenario::parse(name).unwrap();
            let dse = ClrEarly::with_scenario(&g, &p, &s).unwrap();
            let objectives = s.system_objectives().len();
            // `proposed` exercises the pf and seeded-fc stages; the
            // Agnostic baseline rebuilds all four single-layer
            // libraries under the scenario's fault mechanism.
            for result in [
                dse.run(&CampaignPlan::proposed(), &budget).unwrap(),
                dse.run(&CampaignPlan::agnostic(), &budget).unwrap(),
            ] {
                assert!(!result.front().is_empty(), "{name}/{}", result.method());
                for pt in result.front() {
                    assert_eq!(pt.objectives.len(), objectives, "{name}");
                    assert!(pt.metrics.makespan > 0.0);
                    assert!(pt.metrics.mttf > 0.0);
                }
            }
        }
    }

    #[test]
    fn lifetime_scenario_front_trades_mttf() {
        use crate::scenario::Scenario;
        let (p, g) = setup(8);
        let s = Scenario::parse("lifetime").unwrap();
        let dse = ClrEarly::with_scenario(&g, &p, &s).unwrap();
        let r = dse
            .run(&CampaignPlan::pf(), &StageBudget::smoke_test())
            .unwrap();
        // Third objective is negated MTTF, consistent with the metrics.
        for pt in r.front() {
            assert_eq!(pt.objectives.len(), 3);
            assert!((pt.objectives[2] + pt.metrics.mttf).abs() <= 1e-9 * pt.metrics.mttf);
        }
    }

    #[test]
    fn permanent_fault_campaign_survives_a_chaos_storm() {
        use crate::scenario::Scenario;
        use clre_markov::clr::SolverFaultPlan;
        let (p, g) = setup(6);
        let budget = StageBudget::smoke_test();
        let storm_cfg = |seed| {
            Scenario::parse("lifetime:5000")
                .unwrap()
                .tdse_config()
                .unwrap()
                .with_solver_faults(SolverFaultPlan::new(seed, 1_000_000, 1_000_000))
        };
        // Every primary solve and every scaled retry fails: all task
        // analyses fall through to the degraded closed-form ladder, and
        // the campaign still completes with a coherent front.
        let dse = ClrEarly::with_tdse_config(&g, &p, storm_cfg(11)).unwrap();
        let health = dse.tdse_health();
        assert!(health.candidates_evaluated > 0);
        assert_eq!(health.degraded_analyses, health.candidates_evaluated);
        let front = dse.run(&CampaignPlan::pf(), &budget).unwrap();
        assert!(!front.front().is_empty());
        // Deterministic: the same storm seed reproduces the same front.
        let again = ClrEarly::with_tdse_config(&g, &p, storm_cfg(11))
            .unwrap()
            .run(&CampaignPlan::pf(), &budget)
            .unwrap();
        assert_eq!(front.objectives(), again.objectives());
    }

    #[test]
    fn budget_builders_validate() {
        let b = StageBudget::new(10, 20).with_seed(1);
        assert_eq!(b.seed, 1);
        assert_eq!(StageBudget::default().population, 100);
    }
}
