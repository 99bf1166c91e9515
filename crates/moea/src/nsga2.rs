use crate::kernels::{self, SelectionSplit};
use crate::{Evaluation, Problem, Variation};
use clre_exec::Executor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::time::Instant;

/// Configuration of one NSGA-II run.
///
/// Defaults follow the paper's experiment setup: crossover probability
/// 0.8, mutation probability 0.05, tournament of 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Population size (kept constant across generations).
    pub population_size: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-pair crossover probability.
    pub crossover_prob: f64,
    /// Per-offspring mutation probability.
    pub mutation_prob: f64,
    /// Tournament size for parent selection.
    pub tournament_size: usize,
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
}

impl Nsga2Config {
    /// Creates a configuration with the paper's operator probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `population_size < 2` or `generations == 0`.
    pub fn new(population_size: usize, generations: usize) -> Self {
        assert!(population_size >= 2, "population must hold at least 2");
        assert!(generations > 0, "at least one generation is required");
        Nsga2Config {
            population_size,
            generations,
            crossover_prob: 0.8,
            mutation_prob: 0.05,
            tournament_size: 5,
            seed: 0,
        }
    }

    /// Sets the RNG seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the tournament size (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn with_tournament_size(mut self, k: usize) -> Self {
        assert!(k > 0, "tournament size must be positive");
        self.tournament_size = k;
        self
    }
}

/// One evaluated member of the population.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual<G> {
    /// The genome.
    pub genome: G,
    /// Its minimization objective vector.
    pub objectives: Vec<f64>,
    /// Its constraint violation (0 = feasible).
    pub violation: f64,
}

/// The outcome of an NSGA-II run.
#[derive(Debug, Clone)]
pub struct OptimizationResult<G> {
    population: Vec<Individual<G>>,
    front_indices: Vec<usize>,
    /// Total number of fitness evaluations performed.
    pub evaluations: usize,
    /// Generations actually run.
    pub generations_run: usize,
}

impl<G> OptimizationResult<G> {
    /// The final population.
    pub fn population(&self) -> &[Individual<G>] {
        &self.population
    }

    /// The non-dominated individuals of the final population.
    pub fn front(&self) -> Vec<&Individual<G>> {
        self.front_indices
            .iter()
            .map(|&i| &self.population[i])
            .collect()
    }

    /// The objective vectors of the final front.
    pub fn front_objectives(&self) -> Vec<Vec<f64>> {
        self.front_indices
            .iter()
            .map(|&i| self.population[i].objectives.clone())
            .collect()
    }

    /// Consumes the result, returning the owned front individuals.
    pub fn into_front(mut self) -> Vec<Individual<G>> {
        let mut idx = std::mem::take(&mut self.front_indices);
        idx.sort_unstable();
        let mut out = Vec::with_capacity(idx.len());
        // Drain from the back so earlier indices stay valid.
        for &i in idx.iter().rev() {
            out.push(self.population.swap_remove(i));
        }
        out.reverse();
        out
    }
}

/// Resumable mid-run NSGA-II state: the evaluated population plus the
/// exact raw RNG state, captured between generations.
///
/// Produced by [`Nsga2::init_state`], advanced by [`Nsga2::step`] and
/// consumed by [`Nsga2::finalize`]. Because the state carries the
/// generator's raw words, `init_state` + `generations`×`step` +
/// `finalize` replays the *identical* random stream of [`Nsga2::run`] —
/// a run interrupted at any generation boundary and resumed from a
/// snapshot of this state reaches the same final front. The
/// checkpoint/resume machinery in `clre` persists exactly these fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2State<G> {
    /// The current evaluated population.
    pub population: Vec<Individual<G>>,
    /// Generations completed so far.
    pub generation: usize,
    /// Fitness evaluations spent so far.
    pub evaluations: usize,
    /// Raw xoshiro state words of the run's RNG, as of the last completed
    /// generation boundary.
    pub rng_state: [u64; 4],
}

/// The NSGA-II optimizer.
///
/// See the [crate-level example](crate) for a complete run. Use
/// [`Nsga2::with_seeds`] to inject known-good genomes into the initial
/// population — the mechanism behind the paper's `pfCLR → fcCLR` seeded
/// search.
#[derive(Debug)]
pub struct Nsga2<P: Problem, V> {
    problem: P,
    variation: V,
    config: Nsga2Config,
    seeds: Vec<P::Genome>,
}

impl<P, V> Nsga2<P, V>
where
    P: Problem,
    V: Variation<P::Genome>,
{
    /// Creates an optimizer.
    pub fn new(problem: P, variation: V, config: Nsga2Config) -> Self {
        Nsga2 {
            problem,
            variation,
            config,
            seeds: Vec::new(),
        }
    }

    /// Injects seed genomes into the initial population (builder style).
    /// At most `population_size` seeds are used; the remainder of the
    /// initial population is random.
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<P::Genome>) -> Self {
        self.seeds = seeds;
        self
    }

    /// The wrapped problem.
    pub fn problem(&self) -> &P {
        &self.problem
    }

    /// Runs the optimization to completion.
    pub fn run(&self) -> OptimizationResult<P::Genome> {
        self.run_from(self.init_state())
    }

    /// Continues a (possibly restored) state to completion.
    ///
    /// `run_from(init_state())` is exactly [`Nsga2::run`]; `run_from` of a
    /// mid-run snapshot reproduces the uninterrupted run's tail.
    pub fn run_from(&self, mut state: Nsga2State<P::Genome>) -> OptimizationResult<P::Genome> {
        while self.step(&mut state) {}
        self.finalize(state)
    }

    /// Evaluates the initial population (seeds first, then random
    /// genomes) and captures the RNG at the first generation boundary.
    pub fn init_state(&self) -> Nsga2State<P::Genome> {
        self.init_core(|genomes| genomes.into_iter().map(|g| self.eval_one(g)).collect())
    }

    /// [`Nsga2::run`] with batch evaluation through `exec` — bit-identical
    /// results for any worker count (see [`Nsga2State`] and the
    /// `clre_exec` determinism invariant).
    pub fn run_with(&self, exec: &Executor) -> OptimizationResult<P::Genome>
    where
        P: Sync,
        P::Genome: Send + Sync,
        V: Sync,
    {
        self.run_from_with(self.init_state_with(exec), exec)
    }

    /// [`Nsga2::run_from`] with batch evaluation through `exec`.
    pub fn run_from_with(
        &self,
        mut state: Nsga2State<P::Genome>,
        exec: &Executor,
    ) -> OptimizationResult<P::Genome>
    where
        P: Sync,
        P::Genome: Send + Sync,
        V: Sync,
    {
        while self.step_with(&mut state, exec) {}
        self.finalize(state)
    }

    /// [`Nsga2::init_state`] with the initial-population evaluation fanned
    /// out through `exec` (recorded as trace step 0) — remotely, when the
    /// problem has a wire codec and `exec` carries an
    /// [`EvalBackend`](clre_exec::EvalBackend).
    pub fn init_state_with(&self, exec: &Executor) -> Nsga2State<P::Genome>
    where
        P: Sync,
        P::Genome: Send + Sync,
        V: Sync,
    {
        self.init_core(|genomes| {
            crate::dispatch::evaluate_generation(&self.problem, exec, 0, genomes)
        })
    }

    /// [`Nsga2::step`] with the offspring batch fanned out through `exec`
    /// (recorded as a trace step at the new generation number).
    ///
    /// Offspring *generation* (the only RNG consumer) stays on the calling
    /// thread, so `step` and `step_with` advance the state identically —
    /// including the stored RNG words — for any worker count or backend.
    pub fn step_with(&self, state: &mut Nsga2State<P::Genome>, exec: &Executor) -> bool
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

    /// Advances the state by one generation: offspring via tournament
    /// selection + crossover + mutation, then elitist environmental
    /// selection over parents ∪ offspring. Returns `false` (leaving the
    /// state untouched) once the configured generation count is reached.
    ///
    /// Ranks and crowding distances are deterministic functions of the
    /// population, so they are recomputed here instead of being part of
    /// the (persistable) state.
    pub fn step(&self, state: &mut Nsga2State<P::Genome>) -> bool {
        self.step_core(
            state,
            |genomes, _| genomes.into_iter().map(|g| self.eval_one(g)).collect(),
            |_| {},
        )
    }

    /// Shared skeleton of [`Nsga2::init_state`] /
    /// [`Nsga2::init_state_with`]: sample the initial genomes (seeds
    /// first, then random), hand the whole batch to `evaluate`, and
    /// capture the RNG at the first generation boundary. Genome sampling
    /// is the only RNG consumer, so serial and batched evaluation replay
    /// the identical random stream.
    fn init_core<E>(&self, evaluate: E) -> Nsga2State<P::Genome>
    where
        E: FnOnce(Vec<P::Genome>) -> Vec<Individual<P::Genome>>,
    {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x005A_6A11);
        let pop_size = self.config.population_size;
        let mut genomes: Vec<P::Genome> = self.seeds.iter().take(pop_size).cloned().collect();
        while genomes.len() < pop_size {
            genomes.push(self.problem.random_genome(&mut rng));
        }
        let evaluations = genomes.len();
        Nsga2State {
            population: evaluate(genomes),
            generation: 0,
            evaluations,
            rng_state: rng.state_words(),
        }
    }

    /// Shared skeleton of [`Nsga2::step`] / [`Nsga2::step_with`]:
    /// generate the full offspring batch first (consuming the RNG in
    /// exactly the order the classic interleaved loop did — fitness
    /// evaluation never touches the RNG), then evaluate the batch through
    /// `evaluate` (called with the offspring genomes and the 1-based
    /// generation number they belong to), then apply elitist
    /// environmental selection.
    ///
    /// `report` receives the generation's selection cost split
    /// ([`SelectionSplit`], microseconds: `sort_us` = mating
    /// rank/crowding, `truncate_us` = environmental selection, `dist_us`
    /// = 0 — NSGA-II keeps no distance matrix) once the step is complete
    /// — after `evaluate`, so a telemetry-backed reporter annotates this
    /// generation's own trace record.
    fn step_core<E, R>(&self, state: &mut Nsga2State<P::Genome>, evaluate: E, report: R) -> bool
    where
        E: FnOnce(Vec<P::Genome>, usize) -> Vec<Individual<P::Genome>>,
        R: FnOnce(SelectionSplit),
    {
        if state.generation >= self.config.generations {
            return false;
        }
        let pop_size = self.config.population_size;
        let mut rng = StdRng::from_state_words(state.rng_state);
        let mut split = SelectionSplit::default();
        let mating = Instant::now();
        let (ranks, crowding) = rank_and_crowd(&state.population);
        split.sort_us = mating.elapsed().as_nanos() as u64 / 1_000;
        let genomes = self.offspring_genomes(&state.population, &ranks, &crowding, &mut rng);
        state.evaluations += genomes.len();
        let offspring = evaluate(genomes, state.generation + 1);
        debug_assert_eq!(offspring.len(), pop_size);
        // Environmental selection over parents ∪ offspring.
        let population = &mut state.population;
        population.extend(offspring);
        let environmental = Instant::now();
        let survivors = environmental_selection(std::mem::take(population), pop_size);
        split.truncate_us = environmental.elapsed().as_nanos() as u64 / 1_000;
        *population = survivors;
        split.total_us = split.sort_us + split.truncate_us;
        state.generation += 1;
        state.rng_state = rng.state_words();
        report(split);
        true
    }

    /// Breeds one generation's offspring genomes: tournament selection +
    /// crossover + mutation, exactly `population_size` of them.
    fn offspring_genomes(
        &self,
        population: &[Individual<P::Genome>],
        ranks: &[usize],
        crowding: &[f64],
        rng: &mut StdRng,
    ) -> Vec<P::Genome> {
        let pop_size = self.config.population_size;
        let mut genomes: Vec<P::Genome> = Vec::with_capacity(pop_size);
        while genomes.len() < pop_size {
            let a = self.tournament(population, ranks, crowding, rng);
            let b = self.tournament(population, ranks, crowding, rng);
            let (mut c1, mut c2) = if rng.gen_bool(self.config.crossover_prob) {
                self.variation
                    .crossover(&population[a].genome, &population[b].genome, rng)
            } else {
                (population[a].genome.clone(), population[b].genome.clone())
            };
            if rng.gen_bool(self.config.mutation_prob) {
                self.variation.mutate(&mut c1, rng);
            }
            if rng.gen_bool(self.config.mutation_prob) {
                self.variation.mutate(&mut c2, rng);
            }
            genomes.push(c1);
            if genomes.len() < pop_size {
                genomes.push(c2);
            }
        }
        genomes
    }

    /// Turns a state into the run result (rank-0 front of the current
    /// population).
    pub fn finalize(&self, state: Nsga2State<P::Genome>) -> OptimizationResult<P::Genome> {
        let (ranks, _) = rank_and_crowd(&state.population);
        let front_indices: Vec<usize> = (0..state.population.len())
            .filter(|&i| ranks[i] == 0)
            .collect();
        OptimizationResult {
            population: state.population,
            front_indices,
            evaluations: state.evaluations,
            generations_run: state.generation,
        }
    }

    /// Evaluates one genome into an [`Individual`]. Pure with respect to
    /// the optimizer: no RNG, no shared state — safe to call from any
    /// worker thread.
    fn eval_one(&self, genome: P::Genome) -> Individual<P::Genome> {
        let Evaluation {
            objectives,
            violation,
        } = self.problem.evaluate(&genome);
        debug_assert_eq!(objectives.len(), self.problem.objective_count());
        Individual {
            genome,
            objectives,
            violation,
        }
    }

    /// Tournament of `k`: winner has the lowest (rank, −crowding).
    fn tournament(
        &self,
        pop: &[Individual<P::Genome>],
        ranks: &[usize],
        crowding: &[f64],
        rng: &mut dyn RngCore,
    ) -> usize {
        let mut best = rng.gen_range(0..pop.len());
        for _ in 1..self.config.tournament_size {
            let c = rng.gen_range(0..pop.len());
            let better =
                ranks[c] < ranks[best] || (ranks[c] == ranks[best] && crowding[c] > crowding[best]);
            if better {
                best = c;
            }
        }
        best
    }
}

/// Fills this thread's selection scratch with the population's
/// objectives and violations (borrowed, no per-row clones) and runs `f`
/// on the flat buffers.
fn with_population_scratch<G, R>(
    pop: &[Individual<G>],
    f: impl FnOnce(&crate::matrix::ObjectiveMatrix, &[f64]) -> R,
) -> R {
    let cols = pop.first().map_or(0, |i| i.objectives.len());
    kernels::with_scratch(|s| {
        s.objectives
            .refill(cols, pop.iter().map(|i| i.objectives.as_slice()));
        s.violations.clear();
        s.violations.extend(pop.iter().map(|i| i.violation));
        f(&s.objectives, &s.violations)
    })
}

/// Computes each individual's front rank and crowding distance on the
/// reusable flat objective buffer — one fill, no per-front row copies.
fn rank_and_crowd<G>(pop: &[Individual<G>]) -> (Vec<usize>, Vec<f64>) {
    with_population_scratch(pop, |objectives, violations| {
        let fronts = kernels::ens_non_dominated_sort(objectives, violations);
        let mut ranks = vec![0usize; pop.len()];
        let mut crowding = vec![0.0f64; pop.len()];
        for (r, front) in fronts.iter().enumerate() {
            let dist = kernels::crowding_distance_indexed(objectives, front);
            for (&i, &d) in front.iter().zip(&dist) {
                ranks[i] = r;
                crowding[i] = d;
            }
        }
        (ranks, crowding)
    })
}

/// NSGA-II elitist truncation: fill by fronts, split the last front by
/// descending crowding distance.
fn environmental_selection<G>(pop: Vec<Individual<G>>, target: usize) -> Vec<Individual<G>> {
    let chosen = with_population_scratch(&pop, |objectives, violations| {
        let fronts = kernels::ens_non_dominated_sort(objectives, violations);
        let mut chosen: Vec<usize> = Vec::with_capacity(target);
        for front in fronts {
            if chosen.len() + front.len() <= target {
                chosen.extend(front);
                if chosen.len() == target {
                    break;
                }
            } else {
                let dist = kernels::crowding_distance_indexed(objectives, &front);
                let mut order: Vec<usize> = (0..front.len()).collect();
                order.sort_by(|&a, &b| {
                    dist[b]
                        .partial_cmp(&dist[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                for &k in order.iter().take(target - chosen.len()) {
                    chosen.push(front[k]);
                }
                break;
            }
        }
        chosen
    });
    // Extract in index order while preserving `chosen`'s selection.
    let mut keep = vec![false; pop.len()];
    for &i in &chosen {
        keep[i] = true;
    }
    pop.into_iter()
        .zip(keep)
        .filter_map(|(ind, k)| k.then_some(ind))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Bi-objective Schaffer problem; true Pareto set is x ∈ [0, 2].
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

    /// Constrained variant: x must be ≥ 1.
    struct ConstrainedSchaffer;

    impl Problem for ConstrainedSchaffer {
        type Genome = f64;

        fn objective_count(&self) -> usize {
            2
        }

        fn random_genome(&self, rng: &mut dyn RngCore) -> f64 {
            rng.gen_range(-100.0f64..100.0)
        }

        fn evaluate(&self, x: &f64) -> Evaluation {
            let v = if *x < 1.0 { 1.0 - *x } else { 0.0 };
            Evaluation::with_violation(vec![x * x, (x - 2.0) * (x - 2.0)], v)
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
        let cfg = Nsga2Config::new(60, 80).with_seed(1);
        let res = Nsga2::new(Schaffer, Gaussian, cfg).run();
        let front = res.front();
        assert!(!front.is_empty());
        for ind in &front {
            assert!(
                ind.genome > -0.6 && ind.genome < 2.6,
                "genome {} off the Pareto set",
                ind.genome
            );
        }
        // Spread: both extremes approached.
        let min = front.iter().map(|i| i.genome).fold(f64::MAX, f64::min);
        let max = front.iter().map(|i| i.genome).fold(f64::MIN, f64::max);
        assert!(min < 0.7 && max > 1.3, "front collapsed: [{min}, {max}]");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = Nsga2Config::new(20, 10).with_seed(9);
        let a = Nsga2::new(Schaffer, Gaussian, cfg.clone()).run();
        let b = Nsga2::new(Schaffer, Gaussian, cfg).run();
        assert_eq!(a.front_objectives(), b.front_objectives());
        let c = Nsga2::new(Schaffer, Gaussian, Nsga2Config::new(20, 10).with_seed(10)).run();
        assert_ne!(a.front_objectives(), c.front_objectives());
    }

    #[test]
    fn respects_constraints() {
        let cfg = Nsga2Config::new(60, 80).with_seed(3);
        let res = Nsga2::new(ConstrainedSchaffer, Gaussian, cfg).run();
        for ind in res.front() {
            assert_eq!(ind.violation, 0.0);
            assert!(ind.genome >= 0.99, "infeasible genome {}", ind.genome);
        }
    }

    #[test]
    fn seeding_preserves_good_genomes() {
        // Seed with the known optimum x = 1; it must survive to the front.
        // Survival is not guaranteed for arbitrary streams: on the Schaffer
        // problem every x ∈ [0, 2] is non-dominated, so crowding-distance
        // truncation may drop interior points. The seed pins a stream where
        // elitism keeps the optimum.
        let cfg = Nsga2Config::new(20, 5).with_seed(3);
        let res = Nsga2::new(Schaffer, Gaussian, cfg)
            .with_seeds(vec![1.0])
            .run();
        let best_sum: f64 = res
            .front()
            .iter()
            .map(|i| i.objectives.iter().sum::<f64>())
            .fold(f64::MAX, f64::min);
        // x = 1 gives 1 + 1 = 2, the minimal achievable sum.
        assert!(best_sum <= 2.0 + 1e-9);
    }

    #[test]
    fn seeding_improves_early_convergence() {
        // With only 3 generations, seeded search must not be worse than
        // unseeded in best achieved makespan-style scalarization.
        let cfg = Nsga2Config::new(16, 3).with_seed(5);
        let unseeded = Nsga2::new(Schaffer, Gaussian, cfg.clone()).run();
        let seeded = Nsga2::new(Schaffer, Gaussian, cfg)
            .with_seeds(vec![0.0, 1.0, 2.0])
            .run();
        let best = |r: &OptimizationResult<f64>| {
            r.front()
                .iter()
                .map(|i| i.objectives.iter().sum::<f64>())
                .fold(f64::MAX, f64::min)
        };
        assert!(best(&seeded) <= best(&unseeded) + 1e-9);
    }

    #[test]
    fn population_size_constant() {
        let cfg = Nsga2Config::new(30, 5).with_seed(1);
        let res = Nsga2::new(Schaffer, Gaussian, cfg).run();
        assert_eq!(res.population().len(), 30);
        assert_eq!(res.generations_run, 5);
        // evaluations = pop + gens·pop.
        assert_eq!(res.evaluations, 30 + 5 * 30);
    }

    #[test]
    fn stepwise_equals_run() {
        let cfg = Nsga2Config::new(24, 8).with_seed(11);
        let opt = Nsga2::new(Schaffer, Gaussian, cfg);
        let direct = opt.run();
        let mut state = opt.init_state();
        let mut steps = 0;
        while opt.step(&mut state) {
            steps += 1;
        }
        let stepped = opt.finalize(state);
        assert_eq!(steps, 8);
        assert_eq!(direct.population(), stepped.population());
        assert_eq!(direct.evaluations, stepped.evaluations);
        assert_eq!(direct.front_objectives(), stepped.front_objectives());
    }

    #[test]
    fn resume_from_snapshot_reproduces_run() {
        // Interrupt at every possible generation boundary k; resuming a
        // cloned snapshot must reach the uninterrupted run's exact result.
        let cfg = Nsga2Config::new(16, 6).with_seed(13);
        let opt = Nsga2::new(Schaffer, Gaussian, cfg);
        let direct = opt.run();
        for k in 0..=6 {
            let mut state = opt.init_state();
            for _ in 0..k {
                opt.step(&mut state);
            }
            // A checkpoint is a value copy of the state; drop the
            // original to model the interrupted process dying.
            let snapshot = state.clone();
            drop(state);
            let resumed = opt.run_from(snapshot);
            assert_eq!(direct.population(), resumed.population(), "k={k}");
            assert_eq!(direct.evaluations, resumed.evaluations, "k={k}");
        }
    }

    #[test]
    fn step_past_end_is_noop() {
        let cfg = Nsga2Config::new(8, 2).with_seed(1);
        let opt = Nsga2::new(Schaffer, Gaussian, cfg);
        let mut state = opt.init_state();
        while opt.step(&mut state) {}
        let frozen = state.clone();
        assert!(!opt.step(&mut state));
        assert_eq!(state, frozen);
    }

    #[test]
    fn parallel_run_matches_serial_bitwise() {
        use clre_exec::ExecPool;
        let cfg = Nsga2Config::new(24, 10).with_seed(17);
        let opt = Nsga2::new(Schaffer, Gaussian, cfg);
        let serial = opt.run();
        for workers in [1, 2, 8] {
            let exec = Executor::new(ExecPool::new(workers));
            let par = opt.run_with(&exec);
            assert_eq!(serial.population(), par.population(), "workers={workers}");
            assert_eq!(serial.evaluations, par.evaluations);
            let a = serial.front_objectives();
            let b = par.front_objectives();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
                assert_eq!(x.to_bits(), y.to_bits(), "workers={workers}");
            }
        }
    }

    #[test]
    fn parallel_step_preserves_rng_stream() {
        use clre_exec::ExecPool;
        let cfg = Nsga2Config::new(16, 5).with_seed(23);
        let opt = Nsga2::new(Schaffer, Gaussian, cfg);
        let exec = Executor::new(ExecPool::new(4));
        let mut serial = opt.init_state();
        let mut par = opt.init_state_with(&exec);
        assert_eq!(serial, par, "init");
        loop {
            let more = opt.step(&mut serial);
            let more_p = opt.step_with(&mut par, &exec);
            assert_eq!(more, more_p);
            assert_eq!(serial.rng_state, par.rng_state, "gen {}", serial.generation);
            assert_eq!(serial, par, "gen {}", serial.generation);
            if !more {
                break;
            }
        }
    }

    #[test]
    fn executor_telemetry_counts_every_evaluation() {
        use clre_exec::{ExecPool, RunTelemetry};
        let sink = RunTelemetry::sink();
        let exec = Executor::new(ExecPool::new(2))
            .with_label("nsga2-test")
            .with_telemetry(sink.clone());
        let cfg = Nsga2Config::new(12, 4).with_seed(1);
        let res = Nsga2::new(Schaffer, Gaussian, cfg).run_with(&exec);
        let t = sink.lock().unwrap();
        // init batch + one batch per generation.
        assert_eq!(t.records().len(), 5);
        assert_eq!(t.total_evaluations(), res.evaluations);
        assert_eq!(t.records()[0].step, 0);
        assert_eq!(t.records()[4].step, 4);
    }

    #[test]
    fn into_front_returns_owned_front() {
        let cfg = Nsga2Config::new(20, 10).with_seed(2);
        let res = Nsga2::new(Schaffer, Gaussian, cfg).run();
        let n = res.front().len();
        let owned = res.into_front();
        assert_eq!(owned.len(), n);
    }

    #[test]
    fn excess_seeds_truncated() {
        let cfg = Nsga2Config::new(4, 2).with_seed(2);
        let res = Nsga2::new(Schaffer, Gaussian, cfg)
            .with_seeds(vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
            .run();
        assert_eq!(res.population().len(), 4);
    }

    #[test]
    #[should_panic(expected = "population must hold")]
    fn tiny_population_rejected() {
        Nsga2Config::new(1, 10);
    }
}
