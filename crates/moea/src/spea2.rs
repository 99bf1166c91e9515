//! SPEA2 — the Strength Pareto Evolutionary Algorithm 2 (Zitzler,
//! Laumanns & Thiele, 2001).
//!
//! Provided as a second MOEA backend next to [`Nsga2`](crate::Nsga2): the
//! paper implements its GA flows on DEAP *and* PYGMO, and the
//! `ablation_moea` study uses this implementation to check that the
//! methodology's conclusions do not hinge on the particular MOEA.
//!
//! Differences from NSGA-II: fitness combines *strength*-based raw
//! fitness (how many dominators an individual has, weighted by how much
//! those dominators dominate) with a k-nearest-neighbour density estimate,
//! and elitism flows through a fixed-size external archive truncated by
//! iteratively removing the most crowded member.

use crate::kernels::{self, SelectionSplit};
use crate::matrix::{DistanceCache, ObjectiveMatrix};
use crate::{Evaluation, Individual, Problem, Variation};
use clre_exec::Executor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Instant;

/// Configuration of one SPEA2 run.
#[derive(Debug, Clone, PartialEq)]
pub struct Spea2Config {
    /// Working population size per generation.
    pub population_size: usize,
    /// External archive size (commonly equal to the population size).
    pub archive_size: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-pair crossover probability.
    pub crossover_prob: f64,
    /// Per-offspring mutation probability.
    pub mutation_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Spea2Config {
    /// Creates a configuration with the paper's operator probabilities
    /// (crossover 0.8, mutation 0.05) and `archive_size =
    /// population_size`.
    ///
    /// # Panics
    ///
    /// Panics if `population_size < 2` or `generations == 0`.
    pub fn new(population_size: usize, generations: usize) -> Self {
        assert!(population_size >= 2, "population must hold at least 2");
        assert!(generations > 0, "at least one generation is required");
        Spea2Config {
            population_size,
            archive_size: population_size,
            generations,
            crossover_prob: 0.8,
            mutation_prob: 0.05,
            seed: 0,
        }
    }

    /// Sets the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The SPEA2 optimizer; same [`Problem`]/[`Variation`] interface as
/// [`Nsga2`](crate::Nsga2).
///
/// # Examples
///
/// ```
/// use clre_moea::{Evaluation, Problem, Spea2, Spea2Config, Variation};
/// use rand::Rng;
///
/// struct Schaffer;
/// impl Problem for Schaffer {
///     type Genome = f64;
///     fn objective_count(&self) -> usize { 2 }
///     fn random_genome(&self, rng: &mut dyn rand::RngCore) -> f64 {
///         rng.gen_range(-10.0..10.0)
///     }
///     fn evaluate(&self, x: &f64) -> Evaluation {
///         Evaluation::feasible(vec![x * x, (x - 2.0) * (x - 2.0)])
///     }
/// }
/// struct Blend;
/// impl Variation<f64> for Blend {
///     fn crossover(&self, a: &f64, b: &f64, _: &mut dyn rand::RngCore) -> (f64, f64) {
///         ((a + b) / 2.0, (a + b) / 2.0)
///     }
///     fn mutate(&self, x: &mut f64, rng: &mut dyn rand::RngCore) {
///         *x += rng.gen_range(-0.5..0.5);
///     }
/// }
///
/// let result = Spea2::new(Schaffer, Blend, Spea2Config::new(40, 60).with_seed(3)).run();
/// for ind in result.archive() {
///     assert!(ind.genome > -0.7 && ind.genome < 2.7);
/// }
/// ```
#[derive(Debug)]
pub struct Spea2<P: Problem, V> {
    problem: P,
    variation: V,
    config: Spea2Config,
    seeds: Vec<P::Genome>,
}

/// Resumable mid-run SPEA2 state: the evaluated working population, the
/// external archive, and the exact raw RNG state, captured between
/// generations — the same step-wise contract as
/// [`Nsga2State`](crate::Nsga2State).
///
/// Produced by [`Spea2::init_state`], advanced by [`Spea2::step`] and
/// consumed by [`Spea2::finalize`]; `init_state` + `generations`×`step` +
/// `finalize` replays the *identical* random stream of [`Spea2::run`], so
/// a run interrupted at any generation boundary and resumed from a
/// snapshot of this state reaches the same final archive.
#[derive(Debug, Clone, PartialEq)]
pub struct Spea2State<G> {
    /// The current evaluated working population.
    pub population: Vec<Individual<G>>,
    /// The external archive (empty before the first step).
    pub archive: Vec<Individual<G>>,
    /// Generations completed so far.
    pub generation: usize,
    /// Fitness evaluations spent so far.
    pub evaluations: usize,
    /// Raw xoshiro state words of the run's RNG, as of the last completed
    /// generation boundary.
    pub rng_state: [u64; 4],
    /// Generation-to-generation distance reuse (the previous archive's
    /// rows + pairwise distances). Self-validating and excluded from
    /// state equality — a cold cache (fresh init, snapshot restore)
    /// selects bit-identically to a warm one, just slower on its first
    /// generation.
    pub dist_cache: DistanceCache,
}

/// The outcome of a SPEA2 run: the final archive (non-dominated members
/// first — the archive *is* the approximation set).
#[derive(Debug, Clone)]
pub struct Spea2Result<G> {
    archive: Vec<Individual<G>>,
    /// Total fitness evaluations performed.
    pub evaluations: usize,
}

impl<G> Spea2Result<G> {
    /// The final archive.
    pub fn archive(&self) -> &[Individual<G>] {
        &self.archive
    }

    /// Consumes the result, returning the owned archive members.
    pub fn into_archive(self) -> Vec<Individual<G>> {
        self.archive
    }

    /// The non-dominated objective vectors of the archive — collected
    /// once from a flat borrowed buffer (no intermediate row clones).
    pub fn front_objectives(&self) -> Vec<Vec<f64>> {
        let cols = self.archive.first().map_or(0, |i| i.objectives.len());
        let mut m = ObjectiveMatrix::with_capacity(cols, self.archive.len());
        for ind in &self.archive {
            m.push_row(&ind.objectives);
        }
        kernels::non_dominated_matrix(&m)
            .into_iter()
            .map(|i| m.row(i).to_vec())
            .collect()
    }
}

impl<P, V> Spea2<P, V>
where
    P: Problem,
    V: Variation<P::Genome>,
{
    /// Creates an optimizer.
    pub fn new(problem: P, variation: V, config: Spea2Config) -> Self {
        Spea2 {
            problem,
            variation,
            config,
            seeds: Vec::new(),
        }
    }

    /// Injects seed genomes into the initial population (builder style).
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<P::Genome>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Runs the optimization to completion.
    pub fn run(&self) -> Spea2Result<P::Genome> {
        self.run_from(self.init_state())
    }

    /// Continues a (possibly restored) state to completion.
    pub fn run_from(&self, mut state: Spea2State<P::Genome>) -> Spea2Result<P::Genome> {
        while self.step(&mut state) {}
        self.finalize(state)
    }

    /// [`Spea2::run`] with batch evaluation through `exec` — bit-identical
    /// results for any worker count.
    pub fn run_with(&self, exec: &Executor) -> Spea2Result<P::Genome>
    where
        P: Sync,
        P::Genome: Send + Sync,
        V: Sync,
    {
        self.run_from_with(self.init_state_with(exec), exec)
    }

    /// [`Spea2::run_from`] with batch evaluation through `exec`.
    pub fn run_from_with(
        &self,
        mut state: Spea2State<P::Genome>,
        exec: &Executor,
    ) -> Spea2Result<P::Genome>
    where
        P: Sync,
        P::Genome: Send + Sync,
        V: Sync,
    {
        while self.step_with(&mut state, exec) {}
        self.finalize(state)
    }

    /// Evaluates the initial population (seeds first, then random
    /// genomes) and captures the RNG at the first generation boundary.
    pub fn init_state(&self) -> Spea2State<P::Genome> {
        self.init_core(|genomes| genomes.into_iter().map(|g| self.eval_one(g)).collect())
    }

    /// [`Spea2::init_state`] with the initial-population evaluation fanned
    /// out through `exec` (recorded as trace step 0).
    pub fn init_state_with(&self, exec: &Executor) -> Spea2State<P::Genome>
    where
        P: Sync,
        P::Genome: Send + Sync,
        V: Sync,
    {
        self.init_core(|genomes| {
            crate::dispatch::evaluate_generation(&self.problem, exec, 0, genomes)
        })
    }

    /// Advances the state by one generation: environmental selection of
    /// the external archive from population ∪ archive, then a fresh
    /// working population bred from the archive by binary tournament on
    /// SPEA2 fitness. Returns `false` (leaving the state untouched) once
    /// the configured generation count is reached.
    pub fn step(&self, state: &mut Spea2State<P::Genome>) -> bool {
        self.step_core(
            state,
            |genomes, _| genomes.into_iter().map(|g| self.eval_one(g)).collect(),
            |_| {},
        )
    }

    /// [`Spea2::step`] with the offspring batch fanned out through `exec`
    /// (recorded as a trace step at the new generation number). Breeding
    /// (the only RNG consumer) stays on the calling thread, so `step` and
    /// `step_with` advance the state identically for any worker count.
    pub fn step_with(&self, state: &mut Spea2State<P::Genome>, exec: &Executor) -> bool
    where
        P: Sync,
        P::Genome: Send + Sync,
        V: Sync,
    {
        self.step_core(
            state,
            |genomes, generation| {
                crate::dispatch::evaluate_generation(&self.problem, exec, generation, genomes)
            },
            |split: SelectionSplit| {
                exec.annotate_selection_split(
                    split.total_us,
                    split.sort_us,
                    split.truncate_us,
                    split.dist_us,
                );
            },
        )
    }

    /// Turns a state into the run result: one last environmental
    /// selection over population ∪ archive (reusing the state's distance
    /// cache when it still matches).
    pub fn finalize(&self, state: Spea2State<P::Genome>) -> Spea2Result<P::Genome> {
        let Spea2State {
            population,
            archive,
            evaluations,
            mut dist_cache,
            ..
        } = state;
        let mut union = population;
        union.extend(archive);
        let mut split = SelectionSplit::default();
        let (archive, _) =
            select_archive_cached(union, self.config.archive_size, &mut dist_cache, &mut split);
        Spea2Result {
            archive,
            evaluations,
        }
    }

    fn init_core<E>(&self, evaluate: E) -> Spea2State<P::Genome>
    where
        E: FnOnce(Vec<P::Genome>) -> Vec<Individual<P::Genome>>,
    {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x5EA2_5EA2);
        let mut genomes: Vec<P::Genome> = self
            .seeds
            .iter()
            .take(self.config.population_size)
            .cloned()
            .collect();
        while genomes.len() < self.config.population_size {
            genomes.push(self.problem.random_genome(&mut rng));
        }
        let evaluations = genomes.len();
        Spea2State {
            population: evaluate(genomes),
            archive: Vec::new(),
            generation: 0,
            evaluations,
            rng_state: rng.state_words(),
            dist_cache: DistanceCache::default(),
        }
    }

    /// Shared skeleton of [`Spea2::step`] / [`Spea2::step_with`]: the
    /// offspring batch is fully bred first (consuming the RNG in exactly
    /// the order the classic interleaved loop did — fitness evaluation
    /// never touches the RNG) and then handed to `evaluate` along with the
    /// 1-based generation number it belongs to.
    ///
    /// `report` receives the generation's selection cost split
    /// ([`SelectionSplit`], microseconds: union fitness + archive
    /// selection + mating fitness) once the step is complete — after
    /// `evaluate`, so a telemetry-backed reporter annotates this
    /// generation's own trace record.
    fn step_core<E, R>(&self, state: &mut Spea2State<P::Genome>, evaluate: E, report: R) -> bool
    where
        E: FnOnce(Vec<P::Genome>, usize) -> Vec<Individual<P::Genome>>,
        R: FnOnce(SelectionSplit),
    {
        if state.generation >= self.config.generations {
            return false;
        }
        let mut rng = StdRng::from_state_words(state.rng_state);

        // Union, fitness, environmental selection into the archive. The
        // distance cache carries the previous archive's pairwise block;
        // the mating fitness falls out of the same selection pass (the
        // compacted survivor matrix *is* the archive's distance matrix),
        // so nothing is rebuilt from scratch.
        let selection = Instant::now();
        let mut split = SelectionSplit::default();
        let mut union = std::mem::take(&mut state.population);
        union.extend(std::mem::take(&mut state.archive));
        let (archive, arch_fitness) = select_archive_cached(
            union,
            self.config.archive_size,
            &mut state.dist_cache,
            &mut split,
        );
        state.archive = archive;
        split.total_us = selection.elapsed().as_nanos() as u64 / 1_000;
        let pop_size = self.config.population_size;
        let mut genomes: Vec<P::Genome> = Vec::with_capacity(pop_size);
        while genomes.len() < pop_size {
            let a = tournament(&arch_fitness, &mut rng);
            let b = tournament(&arch_fitness, &mut rng);
            let (mut c1, mut c2) = if rng.gen_bool(self.config.crossover_prob) {
                self.variation.crossover(
                    &state.archive[a].genome,
                    &state.archive[b].genome,
                    &mut rng,
                )
            } else {
                (
                    state.archive[a].genome.clone(),
                    state.archive[b].genome.clone(),
                )
            };
            if rng.gen_bool(self.config.mutation_prob) {
                self.variation.mutate(&mut c1, &mut rng);
            }
            if rng.gen_bool(self.config.mutation_prob) {
                self.variation.mutate(&mut c2, &mut rng);
            }
            genomes.push(c1);
            if genomes.len() < pop_size {
                genomes.push(c2);
            }
        }
        state.evaluations += genomes.len();
        state.population = evaluate(genomes, state.generation + 1);
        state.generation += 1;
        state.rng_state = rng.state_words();
        report(split);
        true
    }

    /// Evaluates one genome into an [`Individual`]. Pure with respect to
    /// the optimizer: no RNG, no shared state — safe to call from any
    /// worker thread.
    fn eval_one(&self, genome: P::Genome) -> Individual<P::Genome> {
        let Evaluation {
            objectives,
            violation,
        } = self.problem.evaluate(&genome);
        Individual {
            genome,
            objectives,
            violation,
        }
    }
}

/// Binary tournament: lower SPEA2 fitness wins.
fn tournament(fitness: &[f64], rng: &mut dyn RngCore) -> usize {
    let a = rng.gen_range(0..fitness.len());
    let b = rng.gen_range(0..fitness.len());
    if fitness[a] <= fitness[b] {
        a
    } else {
        b
    }
}

/// Fills this thread's selection scratch with the population's
/// objectives and violations (borrowed, no per-row clones) and runs `f`
/// on the scratch.
fn with_population_scratch<G, R>(
    pop: &[Individual<G>],
    f: impl FnOnce(&mut kernels::SelectionScratch) -> R,
) -> R {
    let cols = pop.first().map_or(0, |i| i.objectives.len());
    kernels::with_scratch(|s| {
        s.objectives
            .refill(cols, pop.iter().map(|i| i.objectives.as_slice()));
        s.violations.clear();
        s.violations.extend(pop.iter().map(|i| i.violation));
        f(s)
    })
}

/// SPEA2 fitness F(i) = R(i) + D(i): raw strength-based fitness plus the
/// k-nearest-neighbour density term (< 1 iff non-dominated). Computed on
/// the reusable flat buffers by [`kernels::spea2_fitness`]. Test-only:
/// the run loop gets the archive fitness from the cached selection pass.
#[cfg(test)]
fn spea2_fitness<G>(pop: &[Individual<G>]) -> Vec<f64> {
    with_population_scratch(pop, |s| {
        kernels::spea2_fitness(&s.objectives, &s.violations, &mut s.distances)
    })
}

/// Elapsed microseconds since `t`.
fn micros(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64 / 1_000
}

/// SPEA2 environmental selection of the archive from `union`: keep all
/// non-dominated (F < 1); truncate overflow by iteratively removing the
/// member with the lexicographically smallest sorted-distance vector;
/// fill underflow with the best dominated. Also returns the archive's
/// own SPEA2 fitness (the mating-tournament key).
///
/// Amortization, all bit-identical to a from-scratch rebuild:
///
/// - When `cache` still matches the union's trailing rows (the previous
///   archive, appended unchanged after the offspring), the
///   archive–archive distance block is reused via
///   [`DistanceMatrix::refill_with_tail`](crate::matrix::DistanceMatrix::refill_with_tail)
///   instead of recomputed — only offspring rows pay `sq_dist`.
/// - Fitness and truncation share one scratch session, so the pairwise
///   matrix built for the density estimate is the same cached matrix the
///   truncation rounds index ([`kernels::spea2_truncate`]).
/// - The survivor keep-mask compaction of that matrix *is* the archive's
///   own distance matrix (survivors keep their union order), so the
///   mating fitness is computed on it directly — the old second full
///   rebuild is gone — and it becomes the next generation's cache.
fn select_archive_cached<G>(
    union: Vec<Individual<G>>,
    target: usize,
    cache: &mut DistanceCache,
    split: &mut SelectionSplit,
) -> (Vec<Individual<G>>, Vec<f64>) {
    let chosen = with_population_scratch(&union, |s| {
        let t = Instant::now();
        if cache.matches_tail(&s.objectives) {
            s.distances.refill_with_tail(&s.objectives, &cache.matrix);
        } else {
            s.distances.refill(&s.objectives);
        }
        split.dist_us += micros(t);
        let t = Instant::now();
        let fitness = kernels::spea2_fitness_prefilled(&s.objectives, &s.violations, &s.distances);
        let mut order: Vec<usize> = (0..union.len()).collect();
        order.sort_by(|&a, &b| fitness[a].total_cmp(&fitness[b]));
        let nondom: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| fitness[i] < 1.0)
            .collect();
        split.sort_us += micros(t);
        let t = Instant::now();
        let chosen = if nondom.len() > target {
            kernels::spea2_truncate(&s.distances, nondom, target)
        } else {
            order.into_iter().take(target).collect()
        };
        split.truncate_us += micros(t);
        let t = Instant::now();
        let mut keep_rows = chosen.clone();
        keep_rows.sort_unstable();
        s.distances.compact(&keep_rows);
        split.dist_us += micros(t);
        chosen
    });
    let mut keep = vec![false; union.len()];
    for &i in &chosen {
        keep[i] = true;
    }
    let archive: Vec<Individual<G>> = union
        .into_iter()
        .zip(keep)
        .filter_map(|(ind, k)| k.then_some(ind))
        .collect();
    // Mating fitness on the compacted survivor matrix (== the archive's
    // own distance matrix), then hand that matrix to the cache for the
    // next generation.
    let t = Instant::now();
    let arch_fitness = with_population_scratch(&archive, |s| {
        let f = kernels::spea2_fitness_prefilled(&s.objectives, &s.violations, &s.distances);
        cache.store(&s.objectives, &mut s.distances);
        f
    });
    split.sort_us += micros(t);
    (archive, arch_fitness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    struct Schaffer;

    impl Problem for Schaffer {
        type Genome = f64;

        fn objective_count(&self) -> usize {
            2
        }

        fn random_genome(&self, rng: &mut dyn RngCore) -> f64 {
            rng.gen_range(-100.0f64..100.0)
        }

        fn evaluate(&self, x: &f64) -> Evaluation {
            Evaluation::feasible(vec![x * x, (x - 2.0) * (x - 2.0)])
        }
    }

    struct Gaussian;

    impl Variation<f64> for Gaussian {
        fn crossover(&self, a: &f64, b: &f64, rng: &mut dyn RngCore) -> (f64, f64) {
            let t: f64 = rng.gen_range(0.0..1.0);
            (t * a + (1.0 - t) * b, (1.0 - t) * a + t * b)
        }

        fn mutate(&self, x: &mut f64, rng: &mut dyn RngCore) {
            *x += rng.gen_range(-1.0f64..1.0);
        }
    }

    #[test]
    fn converges_to_schaffer_front() {
        let res = Spea2::new(Schaffer, Gaussian, Spea2Config::new(40, 60).with_seed(1)).run();
        assert!(!res.archive().is_empty());
        for ind in res.archive() {
            assert!(
                ind.genome > -1.0 && ind.genome < 3.0,
                "genome {} far off the Pareto set",
                ind.genome
            );
        }
        let front = res.front_objectives();
        assert!(
            front.len() >= 5,
            "front collapsed to {} points",
            front.len()
        );
    }

    #[test]
    fn archive_respects_size_bound() {
        let mut cfg = Spea2Config::new(30, 15).with_seed(2);
        cfg.archive_size = 12;
        let res = Spea2::new(Schaffer, Gaussian, cfg).run();
        assert!(res.archive().len() <= 12);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = Spea2Config::new(20, 10).with_seed(7);
        let a = Spea2::new(Schaffer, Gaussian, cfg.clone()).run();
        let b = Spea2::new(Schaffer, Gaussian, cfg).run();
        assert_eq!(a.front_objectives(), b.front_objectives());
    }

    #[test]
    fn seeding_preserves_optimum() {
        let res = Spea2::new(Schaffer, Gaussian, Spea2Config::new(16, 4).with_seed(3))
            .with_seeds(vec![1.0])
            .run();
        let best: f64 = res
            .archive()
            .iter()
            .map(|i| i.objectives.iter().sum::<f64>())
            .fold(f64::MAX, f64::min);
        assert!(best <= 2.0 + 1e-9);
    }

    #[test]
    fn fitness_below_one_iff_nondominated() {
        let pop = vec![
            Individual {
                genome: 0.0,
                objectives: vec![1.0, 1.0],
                violation: 0.0,
            },
            Individual {
                genome: 0.0,
                objectives: vec![2.0, 2.0],
                violation: 0.0,
            },
            Individual {
                genome: 0.0,
                objectives: vec![0.5, 3.0],
                violation: 0.0,
            },
        ];
        let f = spea2_fitness(&pop);
        assert!(f[0] < 1.0);
        assert!(f[1] >= 1.0, "dominated point must have F ≥ 1: {}", f[1]);
        assert!(f[2] < 1.0);
    }

    #[test]
    fn evaluations_counted() {
        let cfg = Spea2Config::new(10, 5).with_seed(1);
        let res = Spea2::new(Schaffer, Gaussian, cfg).run();
        assert_eq!(res.evaluations, 10 + 5 * 10);
    }

    #[test]
    fn stepwise_equals_run() {
        let cfg = Spea2Config::new(18, 7).with_seed(11);
        let opt = Spea2::new(Schaffer, Gaussian, cfg);
        let direct = opt.run();
        let mut state = opt.init_state();
        let mut steps = 0;
        while opt.step(&mut state) {
            steps += 1;
        }
        let stepped = opt.finalize(state);
        assert_eq!(steps, 7);
        assert_eq!(direct.archive(), stepped.archive());
        assert_eq!(direct.evaluations, stepped.evaluations);
    }

    #[test]
    fn resume_from_snapshot_reproduces_run() {
        let cfg = Spea2Config::new(12, 5).with_seed(13);
        let opt = Spea2::new(Schaffer, Gaussian, cfg);
        let direct = opt.run();
        for k in 0..=5 {
            let mut state = opt.init_state();
            for _ in 0..k {
                opt.step(&mut state);
            }
            let snapshot = state.clone();
            drop(state);
            let resumed = opt.run_from(snapshot);
            assert_eq!(direct.archive(), resumed.archive(), "k={k}");
            assert_eq!(direct.evaluations, resumed.evaluations, "k={k}");
        }
    }

    #[test]
    fn cold_cache_matches_warm_cache_bitwise() {
        // Clearing the distance cache at arbitrary generation boundaries
        // must not change a single bit of the outcome — reuse is an
        // amortization, never a semantic.
        let cfg = Spea2Config::new(20, 8).with_seed(23);
        let opt = Spea2::new(Schaffer, Gaussian, cfg);
        let warm = opt.run();
        let mut state = opt.init_state();
        let mut g = 0usize;
        while opt.step(&mut state) {
            g += 1;
            if g.is_multiple_of(2) {
                state.dist_cache.clear();
            }
        }
        state.dist_cache.clear();
        let cold = opt.finalize(state);
        assert_eq!(warm.archive(), cold.archive());
        for (a, b) in warm
            .front_objectives()
            .iter()
            .flatten()
            .zip(cold.front_objectives().iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn step_past_end_is_noop() {
        let cfg = Spea2Config::new(8, 2).with_seed(1);
        let opt = Spea2::new(Schaffer, Gaussian, cfg);
        let mut state = opt.init_state();
        while opt.step(&mut state) {}
        let frozen = state.clone();
        assert!(!opt.step(&mut state));
        assert_eq!(state, frozen);
    }

    #[test]
    fn parallel_run_matches_serial_bitwise() {
        use clre_exec::ExecPool;
        let cfg = Spea2Config::new(16, 6).with_seed(17);
        let opt = Spea2::new(Schaffer, Gaussian, cfg);
        let serial = opt.run();
        for workers in [1, 2, 8] {
            let exec = Executor::new(ExecPool::new(workers));
            let par = opt.run_with(&exec);
            assert_eq!(serial.archive(), par.archive(), "workers={workers}");
            for (a, b) in serial
                .front_objectives()
                .iter()
                .flatten()
                .zip(par.front_objectives().iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "workers={workers}");
            }
        }
    }
}
