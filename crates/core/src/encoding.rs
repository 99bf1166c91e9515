//! GA encoding for CLR-integrated task mapping (Fig. 5 of the paper).
//!
//! An individual is an ordered sequence of per-task [`Gene`]s; the
//! schedule priority is implicitly encoded in the gene order. Each gene
//! carries the task id, the PE binding and a *candidate choice* — an index
//! into the task type's candidate list in the [`ImplLibrary`]. Under
//! [`ChoiceMode::Full`] the choice ranges over the whole
//! `implementations × DVFS × CLR` product (fcCLR); under
//! [`ChoiceMode::ParetoFiltered`] it is restricted to the task-level
//! Pareto front (pfCLR). Because the pfCLR choices are a subset of the
//! fcCLR choices, a pfCLR genome is *also* a valid fcCLR genome — which is
//! exactly what makes the proposed seeded two-stage search a plain
//! population injection.
//!
//! The genetic operators follow Section V-C:
//!
//! * **crossover** — (1) a two-point crossover over the *task-id space*
//!   exchanging the configuration data of a contiguous id range, and
//!   (2) a single-point order crossover (OX) exchanging scheduling
//!   information while preserving permutation validity;
//! * **mutation** — (1) a single-point configuration mutation
//!   re-randomizing one task's `(PE, choice)`, and (2) a two-point
//!   scheduling mutation swapping two randomly selected equal-length
//!   subsequences.

use clre_model::{PeId, Platform, TaskGraph, TaskId, TaskTypeId};
use clre_moea::Variation;
use clre_sched::Mapping;
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::library::ImplLibrary;
use crate::DseError;

/// One task's mapping decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gene {
    /// The task this gene configures.
    pub task: TaskId,
    /// The PE executing the task.
    pub pe: PeId,
    /// Index into the task type's candidate list (implementation + DVFS +
    /// CLR configuration).
    pub choice: u32,
}

/// A full individual: a permutation of all tasks with their decisions.
pub type Genome = Vec<Gene>;

/// Which choice lists sampling and repair draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceMode {
    /// The full `impl × DVFS × CLR` space (fcCLR).
    Full,
    /// The task-level Pareto-filtered space (pfCLR).
    ParetoFiltered,
}

/// Encoder/decoder between genomes and scheduler-level [`Mapping`]s,
/// carrying all the context the operators need.
#[derive(Debug, Clone)]
pub struct Codec<'a> {
    graph: &'a TaskGraph,
    platform: &'a Platform,
    library: &'a ImplLibrary,
    mode: ChoiceMode,
    /// `mappable_pes[ty]` — PEs whose type has a non-empty choice group
    /// for task type `ty`.
    mappable_pes: Vec<Vec<PeId>>,
}

impl<'a> Codec<'a> {
    /// Creates a codec.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::EmptyChoiceGroup`] if some task type used by
    /// the graph has no mappable PE under `mode`.
    pub fn new(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        library: &'a ImplLibrary,
        mode: ChoiceMode,
    ) -> Result<Self, DseError> {
        let mut mappable_pes = Vec::with_capacity(graph.task_types().len());
        for ty in 0..graph.task_types().len() {
            let ty = TaskTypeId::new(ty as u32);
            let pes: Vec<PeId> = platform
                .pes()
                .iter()
                .filter(|pe| !Self::choice_list(library, mode, ty, pe.pe_type().index()).is_empty())
                .map(|pe| pe.id())
                .collect();
            mappable_pes.push(pes);
        }
        for task in graph.tasks() {
            if mappable_pes[task.task_type().index()].is_empty() {
                return Err(DseError::EmptyChoiceGroup {
                    ty: task.task_type(),
                });
            }
        }
        Ok(Codec {
            graph,
            platform,
            library,
            mode,
            mappable_pes,
        })
    }

    fn choice_list(
        library: &ImplLibrary,
        mode: ChoiceMode,
        ty: TaskTypeId,
        pe_ty: usize,
    ) -> &[usize] {
        let pe_ty = clre_model::PeTypeId::new(pe_ty as u32);
        match mode {
            ChoiceMode::Full => library.full_choices(ty, pe_ty),
            ChoiceMode::ParetoFiltered => library.pareto_choices(ty, pe_ty),
        }
    }

    /// The valid candidate choices for a task type on a given PE; an
    /// out-of-range `pe` simply has no choices (empty slice), so callers
    /// uniformly treat it as "not mappable there".
    ///
    /// # Panics
    ///
    /// Panics if `ty` is out of range.
    pub fn choices(&self, ty: TaskTypeId, pe: PeId) -> &[usize] {
        match self.platform.pe(pe) {
            Some(pe) => Self::choice_list(self.library, self.mode, ty, pe.pe_type().index()),
            None => &[],
        }
    }

    /// The application graph.
    pub fn graph(&self) -> &'a TaskGraph {
        self.graph
    }

    /// The platform.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The underlying library.
    pub fn library(&self) -> &'a ImplLibrary {
        self.library
    }

    /// The active choice mode.
    pub fn mode(&self) -> ChoiceMode {
        self.mode
    }

    /// Samples a random `(PE, choice)` pair for a task type.
    fn random_config(&self, ty: TaskTypeId, rng: &mut dyn RngCore) -> (PeId, u32) {
        let pes = &self.mappable_pes[ty.index()];
        let pe = pes[rng.gen_range(0..pes.len())];
        let list = self.choices(ty, pe);
        let choice = list[rng.gen_range(0..list.len())] as u32;
        (pe, choice)
    }

    /// Samples a uniformly random valid genome: a random task permutation
    /// with random compatible configurations.
    pub fn random_genome(&self, rng: &mut dyn RngCore) -> Genome {
        let n = self.graph.task_count();
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
            .into_iter()
            .map(|t| {
                let task = TaskId::new(t);
                let ty = self.graph.tasks()[t as usize].task_type();
                let (pe, choice) = self.random_config(ty, rng);
                Gene { task, pe, choice }
            })
            .collect()
    }

    /// Repairs a genome in place: any `(PE, choice)` pair that is invalid
    /// under the current mode is re-sampled. The permutation itself is
    /// never touched (the operators preserve it by construction).
    pub fn repair(&self, genome: &mut Genome, rng: &mut dyn RngCore) {
        for gene in genome.iter_mut() {
            let ty = self.graph.tasks()[gene.task.index()].task_type();
            if gene.pe.index() >= self.platform.pe_count() {
                let (pe, choice) = self.random_config(ty, rng);
                gene.pe = pe;
                gene.choice = choice;
                continue;
            }
            let list = self.choices(ty, gene.pe);
            if list.is_empty() {
                let (pe, choice) = self.random_config(ty, rng);
                gene.pe = pe;
                gene.choice = choice;
            } else if list.binary_search(&(gene.choice as usize)).is_err() {
                gene.choice = list[rng.gen_range(0..list.len())] as u32;
            }
        }
    }

    /// Validates a genome against this codec: correct length, a true task
    /// permutation, in-range PEs and in-range candidate indices.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidGenome`] describing the first violated
    /// invariant.
    fn validate_genome(&self, genome: &Genome) -> Result<(), DseError> {
        let n = self.graph.task_count();
        if genome.len() != n {
            return Err(DseError::InvalidGenome {
                what: "genome length differs from the graph's task count",
            });
        }
        let mut seen = vec![false; n];
        for gene in genome {
            let Some(task) = self.graph.tasks().get(gene.task.index()) else {
                return Err(DseError::InvalidGenome {
                    what: "gene references a task outside the graph",
                });
            };
            if std::mem::replace(&mut seen[gene.task.index()], true) {
                return Err(DseError::InvalidGenome {
                    what: "genome is not a task permutation (duplicate task)",
                });
            }
            if gene.pe.index() >= self.platform.pe_count() {
                return Err(DseError::InvalidGenome {
                    what: "gene references a PE outside the platform",
                });
            }
            let ty = task.task_type();
            if (gene.choice as usize) >= self.library.full_count(ty) {
                return Err(DseError::InvalidGenome {
                    what: "gene's candidate choice is outside the task type's library",
                });
            }
        }
        Ok(())
    }

    /// Validates and decodes a genome into a scheduler-level [`Mapping`].
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidGenome`] instead of panicking on any
    /// out-of-range index — the entry point for evaluating *untrusted*
    /// genomes (e.g. ones restored from a checkpoint).
    pub fn try_decode(&self, genome: &Genome) -> Result<Mapping, DseError> {
        self.validate_genome(genome)?;
        Ok(self.decode(genome))
    }

    /// Decodes a genome into a scheduler-level [`Mapping`].
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices; genomes produced by
    /// [`Codec::random_genome`] + the [`ClrVariation`] operators are
    /// always in range. Use [`Codec::try_decode`] for untrusted genomes.
    pub fn decode(&self, genome: &Genome) -> Mapping {
        let n = self.graph.task_count();
        let placeholder = self
            .library
            .candidate(self.graph.tasks()[0].task_type(), 0)
            .metrics;
        let mut pes = vec![PeId::new(0); n];
        let mut metrics = vec![placeholder; n];
        let mut footprints = vec![0.0f64; n];
        let mut priority = Vec::with_capacity(n);
        for gene in genome {
            let ty = self.graph.tasks()[gene.task.index()].task_type();
            let cand = self.library.candidate(ty, gene.choice as usize);
            pes[gene.task.index()] = gene.pe;
            metrics[gene.task.index()] = cand.metrics;
            footprints[gene.task.index()] = cand.memory_bytes;
            priority.push(gene.task);
        }
        Mapping::new(pes, metrics, priority).with_footprints(footprints)
    }
}

/// The paper's crossover and mutation operators over [`Genome`]s.
#[derive(Debug, Clone)]
pub struct ClrVariation<'a> {
    codec: &'a Codec<'a>,
}

impl<'a> ClrVariation<'a> {
    /// Creates the operator suite bound to a codec.
    pub fn new(codec: &'a Codec<'a>) -> Self {
        ClrVariation { codec }
    }

    /// Two-point crossover over the task-id space: tasks with ids inside a
    /// random `[lo, hi]` range swap their configuration data between the
    /// parents; each parent keeps its own ordering.
    fn config_crossover(&self, a: &Genome, b: &Genome, rng: &mut dyn RngCore) -> (Genome, Genome) {
        let n = a.len();
        let (mut lo, mut hi) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let mut conf_a = vec![(PeId::new(0), 0u32); n];
        let mut conf_b = vec![(PeId::new(0), 0u32); n];
        for g in a {
            conf_a[g.task.index()] = (g.pe, g.choice);
        }
        for g in b {
            conf_b[g.task.index()] = (g.pe, g.choice);
        }
        let mut c1 = a.clone();
        let mut c2 = b.clone();
        for g in c1.iter_mut() {
            let t = g.task.index();
            if t >= lo && t <= hi {
                g.pe = conf_b[t].0;
                g.choice = conf_b[t].1;
            }
        }
        for g in c2.iter_mut() {
            let t = g.task.index();
            if t >= lo && t <= hi {
                g.pe = conf_a[t].0;
                g.choice = conf_a[t].1;
            }
        }
        (c1, c2)
    }

    /// Single-point order crossover (OX): the child keeps one parent's
    /// prefix, then appends the remaining tasks in the other parent's
    /// order (with that parent's configurations).
    fn order_crossover(&self, a: &Genome, b: &Genome, rng: &mut dyn RngCore) -> (Genome, Genome) {
        let n = a.len();
        let cut = rng.gen_range(0..=n);
        let ox = |head: &Genome, tail: &Genome| -> Genome {
            let mut present = vec![false; n];
            let mut child: Genome = head[..cut].to_vec();
            for g in &child {
                present[g.task.index()] = true;
            }
            for g in tail {
                if !present[g.task.index()] {
                    child.push(*g);
                }
            }
            child
        };
        (ox(a, b), ox(b, a))
    }

    /// Single-point configuration mutation: one random task's
    /// `(PE, choice)` is re-randomized.
    fn config_mutation(&self, genome: &mut Genome, rng: &mut dyn RngCore) {
        let i = rng.gen_range(0..genome.len());
        let ty = self.codec.graph().tasks()[genome[i].task.index()].task_type();
        let (pe, choice) = self.codec.random_config(ty, rng);
        genome[i].pe = pe;
        genome[i].choice = choice;
    }

    /// Two-point scheduling mutation: two non-overlapping equal-length
    /// subsequences swap positions.
    fn order_mutation(&self, genome: &mut Genome, rng: &mut dyn RngCore) {
        let n = genome.len();
        if n < 2 {
            return;
        }
        let len = rng.gen_range(1..=(n / 2).max(1));
        let i = rng.gen_range(0..=(n - 2 * len));
        let j = rng.gen_range((i + len)..=(n - len));
        for k in 0..len {
            genome.swap(i + k, j + k);
        }
    }
}

impl Variation<Genome> for ClrVariation<'_> {
    fn crossover(&self, a: &Genome, b: &Genome, rng: &mut dyn RngCore) -> (Genome, Genome) {
        let (mut c1, mut c2) = if rng.gen_bool(0.5) {
            self.config_crossover(a, b, rng)
        } else {
            self.order_crossover(a, b, rng)
        };
        self.codec.repair(&mut c1, rng);
        self.codec.repair(&mut c2, rng);
        (c1, c2)
    }

    fn mutate(&self, genome: &mut Genome, rng: &mut dyn RngCore) {
        if rng.gen_bool(0.5) {
            self.config_mutation(genome, rng);
        } else {
            self.order_mutation(genome, rng);
        }
        self.codec.repair(genome, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tdse::{build_library, TdseConfig};
    use clre_model::platform::paper_platform;
    use clre_model::TaskType;
    use clre_profile::SyntheticCharacterizer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Platform, TaskGraph) {
        let platform = paper_platform();
        let ch = SyntheticCharacterizer::new(5);
        let mut b = TaskGraph::builder("g", 1.0e-2);
        for ty in 0..3 {
            let mut t = TaskType::new(format!("ty{ty}"));
            for imp in ch.impls_for_type(ty, &platform) {
                t = t.with_impl(imp);
            }
            b = b.task_type(t);
        }
        let g = b
            .task("a", "ty0")
            .unwrap()
            .task("b", "ty1")
            .unwrap()
            .task("c", "ty2")
            .unwrap()
            .task("d", "ty0")
            .unwrap()
            .task("e", "ty1")
            .unwrap()
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 3)
            .edge(2, 4)
            .build()
            .unwrap();
        (platform, g)
    }

    fn is_permutation(genome: &Genome, n: usize) -> bool {
        let mut seen = vec![false; n];
        for g in genome {
            if g.task.index() >= n || seen[g.task.index()] {
                return false;
            }
            seen[g.task.index()] = true;
        }
        genome.len() == n
    }

    fn is_valid(codec: &Codec<'_>, genome: &Genome) -> bool {
        is_permutation(genome, codec.graph().task_count())
            && genome.iter().all(|g| {
                let ty = codec.graph().tasks()[g.task.index()].task_type();
                codec
                    .choices(ty, g.pe)
                    .binary_search(&(g.choice as usize))
                    .is_ok()
            })
    }

    #[test]
    fn random_genomes_are_valid_in_both_modes() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for mode in [ChoiceMode::Full, ChoiceMode::ParetoFiltered] {
            let codec = Codec::new(&g, &p, &lib, mode).unwrap();
            for _ in 0..50 {
                let genome = codec.random_genome(&mut rng);
                assert!(is_valid(&codec, &genome));
            }
        }
    }

    #[test]
    fn pareto_genome_valid_under_full_mode() {
        // The seeding bridge: pfCLR genomes must be valid fcCLR genomes.
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let pf = Codec::new(&g, &p, &lib, ChoiceMode::ParetoFiltered).unwrap();
        let fc = Codec::new(&g, &p, &lib, ChoiceMode::Full).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let genome = pf.random_genome(&mut rng);
            assert!(is_valid(&fc, &genome));
        }
    }

    #[test]
    fn operators_preserve_validity() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let codec = Codec::new(&g, &p, &lib, ChoiceMode::Full).unwrap();
        let var = ClrVariation::new(&codec);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let a = codec.random_genome(&mut rng);
            let b = codec.random_genome(&mut rng);
            let (c1, c2) = var.crossover(&a, &b, &mut rng);
            assert!(is_valid(&codec, &c1), "crossover child 1 invalid");
            assert!(is_valid(&codec, &c2), "crossover child 2 invalid");
            let mut m = c1.clone();
            var.mutate(&mut m, &mut rng);
            assert!(is_valid(&codec, &m), "mutant invalid");
        }
    }

    #[test]
    fn decode_roundtrips_configuration() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let codec = Codec::new(&g, &p, &lib, ChoiceMode::ParetoFiltered).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let genome = codec.random_genome(&mut rng);
        let mapping = codec.decode(&genome);
        assert_eq!(mapping.task_count(), 5);
        for gene in &genome {
            assert_eq!(mapping.pe_of(gene.task), gene.pe);
            let ty = g.tasks()[gene.task.index()].task_type();
            let expect = lib.candidate(ty, gene.choice as usize).metrics;
            assert_eq!(
                mapping.metrics_of(gene.task).avg_exec_time,
                expect.avg_exec_time
            );
        }
        // Priority order follows gene order.
        let prio: Vec<TaskId> = genome.iter().map(|g| g.task).collect();
        assert_eq!(mapping.priority(), &prio[..]);
        // Decoded mappings schedule cleanly.
        assert!(mapping.validate(&g, &p).is_ok());
    }

    #[test]
    fn repair_fixes_foreign_choices() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let codec = Codec::new(&g, &p, &lib, ChoiceMode::ParetoFiltered).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut genome = codec.random_genome(&mut rng);
        for gene in genome.iter_mut() {
            gene.choice = u32::MAX;
        }
        codec.repair(&mut genome, &mut rng);
        assert!(is_valid(&codec, &genome));
        // Out-of-range PEs are also repaired.
        genome[0].pe = PeId::new(99);
        codec.repair(&mut genome, &mut rng);
        assert!(is_valid(&codec, &genome));
    }

    #[test]
    fn order_mutation_changes_order_only() {
        let (p, g) = setup();
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let codec = Codec::new(&g, &p, &lib, ChoiceMode::Full).unwrap();
        let var = ClrVariation::new(&codec);
        let mut rng = StdRng::seed_from_u64(6);
        let genome = codec.random_genome(&mut rng);
        let mut changed_order = false;
        for _ in 0..50 {
            let mut m = genome.clone();
            var.order_mutation(&mut m, &mut rng);
            assert!(is_permutation(&m, 5));
            let orig: Vec<TaskId> = genome.iter().map(|g| g.task).collect();
            let now: Vec<TaskId> = m.iter().map(|g| g.task).collect();
            if orig != now {
                changed_order = true;
            }
            // Configs unchanged per task.
            for g in &m {
                let src = genome.iter().find(|x| x.task == g.task).unwrap();
                assert_eq!((src.pe, src.choice), (g.pe, g.choice));
            }
        }
        assert!(changed_order, "order mutation never changed the order");
    }

    #[test]
    fn single_task_genome_operators_are_safe() {
        let platform = paper_platform();
        let ch = SyntheticCharacterizer::new(5);
        let mut t = TaskType::new("ty0");
        for imp in ch.impls_for_type(0, &platform) {
            t = t.with_impl(imp);
        }
        let g = TaskGraph::builder("one", 1.0)
            .task_type(t)
            .task("a", "ty0")
            .unwrap()
            .build()
            .unwrap();
        let lib = build_library(&g, &platform, &TdseConfig::default()).unwrap();
        let codec = Codec::new(&g, &platform, &lib, ChoiceMode::Full).unwrap();
        let var = ClrVariation::new(&codec);
        let mut rng = StdRng::seed_from_u64(7);
        let a = codec.random_genome(&mut rng);
        let b = codec.random_genome(&mut rng);
        for _ in 0..20 {
            let (c1, _) = var.crossover(&a, &b, &mut rng);
            let mut m = c1;
            var.mutate(&mut m, &mut rng);
            assert!(is_valid(&codec, &m));
        }
    }
}
