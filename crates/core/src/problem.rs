//! The CLR-integrated task-mapping problem (Equation 5) as a
//! [`clre_moea::Problem`].
//!
//! Fitness evaluation decodes the genome into a [`Mapping`], runs the list
//! scheduler, derives the Table III metrics and projects them onto the
//! chosen system-level [`ObjectiveSet`]; QoS constraints from a
//! [`QosSpec`] become the constraint violation driving Deb's
//! constraint-domination in NSGA-II.
//!
//! [`Mapping`]: clre_sched::Mapping

use std::sync::Arc;

use clre_model::qos::{ObjectiveSet, QosSpec, SystemMetrics};
use clre_moea::{EvalError, Evaluation, Problem, RemoteEval};
use clre_sched::QosEvaluator;
use rand::RngCore;

use crate::cache::{CachedFitness, EvalCache, Fnv};
use crate::encoding::{Codec, Genome};
use crate::remote::encode_genome_text;
use crate::DseError;

/// The system-level mapping optimization problem.
#[derive(Debug, Clone)]
pub struct SystemProblem<'a> {
    codec: Codec<'a>,
    evaluator: QosEvaluator<'a>,
    objectives: ObjectiveSet,
    spec: QosSpec,
    cache: Option<Arc<EvalCache>>,
    /// Content digest scoping this problem's fitness-cache entries;
    /// computed once at [`SystemProblem::with_cache`] time.
    problem_digest: u64,
    /// Encoded [`RemoteContext`](crate::remote::RemoteContext) enabling
    /// backend dispatch; `None` keeps evaluation strictly in-process.
    remote_context: Option<String>,
}

impl<'a> SystemProblem<'a> {
    /// Creates a problem over a prepared codec.
    pub fn new(codec: Codec<'a>, objectives: ObjectiveSet, spec: QosSpec) -> Self {
        let evaluator = QosEvaluator::new(codec.platform());
        SystemProblem {
            codec,
            evaluator,
            objectives,
            spec,
            cache: None,
            problem_digest: 0,
            remote_context: None,
        }
    }

    /// Attaches an encoded [`RemoteContext`](crate::remote::RemoteContext)
    /// (builder style): with one attached, [`Problem::remote`] offers
    /// this problem to whatever [`EvalBackend`](clre_exec::EvalBackend)
    /// the stage executor carries. Without a backend — or on any remote
    /// failure — evaluation stays in-process and bit-identical.
    #[must_use]
    pub fn with_remote(mut self, context: String) -> Self {
        self.remote_context = Some(context);
        self
    }

    /// Attaches a shared genome-fitness cache (builder style).
    ///
    /// Entries are keyed by the exact gene sequence *plus* this problem's
    /// [`SystemProblem::content_digest`], so one cache instance may be
    /// shared across stages, campaigns and sweep cells without
    /// cross-contamination.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.problem_digest = self.content_digest();
        self.cache = Some(cache);
        self
    }

    /// [`SystemProblem::content_digest`], reusing the value
    /// [`SystemProblem::with_cache`] stored when a cache is attached.
    pub(crate) fn digest(&self) -> u64 {
        match self.cache {
            Some(_) => self.problem_digest,
            None => self.content_digest(),
        }
    }

    /// FNV-1a digest of everything a fitness value depends on: the task
    /// graph (types, criticalities, edges and communication volumes), the
    /// platform (PE placement, memory, interconnect), the library's
    /// candidate content, the objective set and the QoS spec.
    ///
    /// The codec's [`ChoiceMode`](crate::encoding::ChoiceMode) is
    /// deliberately *not* folded in: a gene's `choice` indexes the
    /// candidate list directly, so equal genomes evaluate identically
    /// under fcCLR and pfCLR — sharing their cache entries is what makes
    /// the seeded two-stage flow warm-start its second stage.
    pub fn content_digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        let graph = self.codec.graph();
        fnv.write_f64(graph.period());
        fnv.write_u64(graph.tasks().len() as u64);
        for task in graph.tasks() {
            fnv.write_u64(task.task_type().index() as u64);
            fnv.write_f64(task.criticality());
            for &(pred, volume) in graph.predecessor_edges(task.id()) {
                fnv.write_u64(pred.index() as u64);
                fnv.write_f64(volume);
            }
        }
        let platform = self.codec.platform();
        fnv.write_u64(platform.pes().len() as u64);
        for pe in platform.pes() {
            fnv.write_u64(pe.pe_type().index() as u64);
        }
        for ty in platform.pe_types() {
            fnv.write_f64(ty.local_memory_bytes());
        }
        match platform.interconnect() {
            Some(ic) => {
                fnv.write_f64(ic.latency());
                fnv.write_f64(ic.bandwidth());
            }
            None => fnv.write_u64(u64::MAX),
        }
        fnv.write_u64(self.codec.library().content_digest());
        for objective in self.objectives.objectives() {
            fnv.write_bytes(objective.to_string().as_bytes());
        }
        for bound in self.spec.bounds() {
            match bound {
                Some(v) => fnv.write_f64(v),
                None => fnv.write_u64(u64::MAX),
            }
        }
        fnv.finish()
    }

    /// The codec backing this problem.
    pub fn codec(&self) -> &Codec<'a> {
        &self.codec
    }

    /// The system-level objective set.
    pub fn objectives(&self) -> &ObjectiveSet {
        &self.objectives
    }

    /// Decodes and fully evaluates a genome, returning the raw Table III
    /// metrics (used to annotate final fronts). With a cache attached
    /// (see [`SystemProblem::with_cache`]) a genome the GA already
    /// evaluated is answered as a pure lookup — no re-decode, no
    /// re-schedule.
    ///
    /// # Panics
    ///
    /// Panics if `genome` is invalid for this problem's codec; genomes
    /// produced by the GA always validate. Use the fallible twin
    /// [`SystemProblem::try_metrics_of`] for untrusted genomes.
    pub fn metrics_of(&self, genome: &Genome) -> SystemMetrics {
        match self.try_metrics_of(genome) {
            Ok(m) => m,
            Err(e) => panic!("genome evaluation failed: {e}"),
        }
    }

    /// Fallible variant of [`SystemProblem::metrics_of`]: validates the
    /// genome and propagates scheduling failures as typed errors.
    ///
    /// # Errors
    ///
    /// [`DseError::InvalidGenome`] for codec violations,
    /// [`DseError::Sched`] for scheduling/QoS failures.
    pub fn try_metrics_of(&self, genome: &Genome) -> Result<SystemMetrics, DseError> {
        self.metrics_and_violation(genome).map(|(m, _)| m)
    }

    /// Fallible fitness evaluation: the typed-error twin of the
    /// [`Problem::evaluate`] impl, used by the resilient runtime to
    /// quarantine failing candidates instead of unwinding.
    ///
    /// # Errors
    ///
    /// [`DseError::InvalidGenome`] for codec violations,
    /// [`DseError::Sched`] for scheduling/QoS failures.
    pub fn try_evaluate(&self, genome: &Genome) -> Result<Evaluation, DseError> {
        let (metrics, violation) = self.metrics_and_violation(genome)?;
        Ok(Evaluation::with_violation(
            metrics.objective_vector(&self.objectives),
            violation,
        ))
    }

    /// The single evaluation path every public entry point funnels
    /// through: fitness cache first, then decode → schedule → Table III
    /// metrics → violation, with the result inserted for the next caller.
    fn metrics_and_violation(&self, genome: &Genome) -> Result<(SystemMetrics, f64), DseError> {
        if let Some(cache) = &self.cache {
            if let Some(hit) = cache.fitness(self.problem_digest, genome) {
                return Ok((hit.metrics, hit.violation));
            }
        }
        let mapping = self.codec.try_decode(genome)?;
        let metrics = self.evaluator.evaluate(self.codec.graph(), &mapping)?;
        // QoS SPEC violations plus local-memory overflow (the storage
        // constraint of DESIGN.md §8; zero on unconstrained platforms).
        let violation = self.spec.violation(&metrics)
            + self
                .evaluator
                .memory_violation(self.codec.graph(), &mapping);
        if let Some(cache) = &self.cache {
            let stored = cache.insert_fitness(
                self.problem_digest,
                genome,
                CachedFitness { metrics, violation },
            );
            return Ok((stored.metrics, stored.violation));
        }
        Ok((metrics, violation))
    }
}

impl Problem for SystemProblem<'_> {
    type Genome = Genome;

    fn objective_count(&self) -> usize {
        self.objectives.len()
    }

    fn random_genome(&self, rng: &mut dyn RngCore) -> Genome {
        self.codec.random_genome(rng)
    }

    /// Panics (with the underlying [`DseError`] in the message) if the
    /// genome is invalid — the [`Problem`] trait's signature admits no
    /// error channel. GA-produced genomes always validate; the resilient
    /// runtime catches this unwind and quarantines the candidate.
    fn evaluate(&self, genome: &Genome) -> Evaluation {
        match self.try_evaluate(genome) {
            Ok(eval) => eval,
            Err(e) => panic!("genome evaluation failed: {e}"),
        }
    }

    /// Native fallible evaluation: converts the typed [`DseError`] into
    /// the optimizer-facing [`EvalError`] instead of unwinding, so
    /// resilient executors never need `catch_unwind` for this problem.
    fn try_evaluate(&self, genome: &Genome) -> Result<Evaluation, EvalError> {
        SystemProblem::try_evaluate(self, genome).map_err(|e| EvalError::new(e.to_string()))
    }

    fn reports_errors(&self) -> bool {
        true
    }

    fn remote(&self) -> Option<&dyn RemoteEval<Genome>> {
        self.remote_context
            .as_ref()
            .map(|_| self as &dyn RemoteEval<Genome>)
    }
}

impl RemoteEval<Genome> for SystemProblem<'_> {
    fn context(&self) -> String {
        self.remote_context
            .clone()
            .expect("remote() gated on an attached context")
    }

    fn encode_item(&self, genome: &Genome) -> String {
        encode_genome_text(genome)
    }

    fn decode_output(&self, output: &str) -> Result<Evaluation, EvalError> {
        let values = clre_exec::wire::decode_f64s(output).map_err(EvalError::new)?;
        let (violation, objectives) = match values.split_first() {
            Some((v, rest)) if rest.len() == self.objectives.len() => (*v, rest.to_vec()),
            _ => {
                return Err(EvalError::new(format!(
                    "remote output carries {} values, expected violation + {} objectives",
                    values.len(),
                    self.objectives.len()
                )))
            }
        };
        Ok(Evaluation::with_violation(objectives, violation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::ChoiceMode;
    use crate::tdse::{build_library, TdseConfig};
    use clre_model::platform::paper_platform;
    use clre_model::TaskType;
    use clre_profile::SyntheticCharacterizer;
    use clre_tgff::TgffConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (clre_model::Platform, clre_model::TaskGraph) {
        let platform = paper_platform();
        let ch = SyntheticCharacterizer::new(5);
        let graph = clre_tgff::generate(&TgffConfig::new(8).with_type_count(4), 3, |ty| {
            ch.impls_for_type(ty, &platform)
        })
        .unwrap();
        (platform, graph)
    }

    #[test]
    fn evaluation_matches_direct_computation() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let codec = Codec::new(&g, &p, &lib, ChoiceMode::ParetoFiltered).unwrap();
        let problem = SystemProblem::new(codec, ObjectiveSet::system_bi(), QosSpec::new());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let genome = problem.random_genome(&mut rng);
            let eval = problem.evaluate(&genome);
            let metrics = problem.metrics_of(&genome);
            assert_eq!(eval.objectives, vec![metrics.makespan, metrics.error_prob]);
            assert_eq!(eval.violation, 0.0);
        }
    }

    #[test]
    fn constraints_flow_into_violation() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let codec = Codec::new(&g, &p, &lib, ChoiceMode::ParetoFiltered).unwrap();
        // Impossible makespan bound: everything is infeasible.
        let spec = QosSpec::new().with_max_makespan(1.0e-12);
        let problem = SystemProblem::new(codec, ObjectiveSet::system_bi(), spec);
        let mut rng = StdRng::seed_from_u64(2);
        let genome = problem.random_genome(&mut rng);
        assert!(problem.evaluate(&genome).violation > 0.0);
    }

    #[test]
    fn objective_count_follows_set() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let codec = Codec::new(&g, &p, &lib, ChoiceMode::Full).unwrap();
        let problem = SystemProblem::new(
            codec,
            ObjectiveSet::new(vec![
                clre_model::Objective::Makespan,
                clre_model::Objective::ErrorProbability,
                clre_model::Objective::Mttf,
                clre_model::Objective::Energy,
            ]),
            QosSpec::new(),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let genome = problem.random_genome(&mut rng);
        assert_eq!(problem.objective_count(), 4);
        assert_eq!(problem.evaluate(&genome).objectives.len(), 4);
    }

    #[test]
    fn cached_evaluation_is_bit_identical() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let codec = Codec::new(&g, &p, &lib, ChoiceMode::ParetoFiltered).unwrap();
        let plain = SystemProblem::new(codec.clone(), ObjectiveSet::system_bi(), QosSpec::new());
        let cache = crate::cache::EvalCache::shared();
        let cached = SystemProblem::new(codec, ObjectiveSet::system_bi(), QosSpec::new())
            .with_cache(Arc::clone(&cache));
        let mut rng = StdRng::seed_from_u64(7);
        let genomes: Vec<_> = (0..12).map(|_| plain.random_genome(&mut rng)).collect();
        for genome in &genomes {
            let want = plain.evaluate(genome);
            let miss = cached.evaluate(genome); // populates the cache
            let hit = cached.evaluate(genome); // answered from the cache
            assert_eq!(want.objectives, miss.objectives);
            assert_eq!(want.objectives, hit.objectives);
            assert_eq!(want.violation.to_bits(), hit.violation.to_bits());
            let want_m = plain.metrics_of(genome);
            let hit_m = cached.metrics_of(genome);
            assert_eq!(want_m.makespan.to_bits(), hit_m.makespan.to_bits());
            assert_eq!(want_m.error_prob.to_bits(), hit_m.error_prob.to_bits());
            assert_eq!(want_m.mttf.to_bits(), hit_m.mttf.to_bits());
            assert_eq!(want_m.energy.to_bits(), hit_m.energy.to_bits());
            assert_eq!(want_m.peak_power.to_bits(), hit_m.peak_power.to_bits());
        }
        let counts = cache.fitness_counts();
        assert_eq!(counts.inserts, genomes.len() as u64);
        assert!(counts.hits >= 2 * genomes.len() as u64); // 2nd evaluate + metrics_of
    }

    #[test]
    fn content_digest_separates_distinct_problems() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let full = Codec::new(&g, &p, &lib, ChoiceMode::Full).unwrap();
        let pf = Codec::new(&g, &p, &lib, ChoiceMode::ParetoFiltered).unwrap();
        let base = SystemProblem::new(pf.clone(), ObjectiveSet::system_bi(), QosSpec::new());
        // The choice mode steers sampling only — digests deliberately match
        // so pfCLR and fcCLR stages share fitness entries.
        let full_mode = SystemProblem::new(full, ObjectiveSet::system_bi(), QosSpec::new());
        assert_eq!(base.content_digest(), full_mode.content_digest());
        // A different objective set or QoS spec is a different problem.
        let tri = SystemProblem::new(
            pf.clone(),
            ObjectiveSet::new(vec![
                clre_model::Objective::Makespan,
                clre_model::Objective::ErrorProbability,
                clre_model::Objective::Energy,
            ]),
            QosSpec::new(),
        );
        assert_ne!(base.content_digest(), tri.content_digest());
        let bounded = SystemProblem::new(
            pf,
            ObjectiveSet::system_bi(),
            QosSpec::new().with_max_makespan(0.5),
        );
        assert_ne!(base.content_digest(), bounded.content_digest());
    }

    #[test]
    fn typed_try_evaluate_reports_invalid_genomes() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let codec = Codec::new(&g, &p, &lib, ChoiceMode::ParetoFiltered).unwrap();
        let problem = SystemProblem::new(codec, ObjectiveSet::system_bi(), QosSpec::new());
        assert!(problem.reports_errors());
        let err = Problem::try_evaluate(&problem, &Vec::new()).unwrap_err();
        assert!(err.message().contains("genome"), "got: {}", err.message());
    }

    #[test]
    fn tgff_generated_types_may_be_unused() {
        // TGFF materializes the whole type pool; unused types must not
        // break library construction or evaluation.
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        assert_eq!(lib.type_count(), 4);
        assert!(Codec::new(&g, &p, &lib, ChoiceMode::ParetoFiltered).is_ok());
        let _ = TaskType::new("sentinel"); // silence unused-import pedantry
    }
}
