//! Candidate implementation libraries: the interface between task-level
//! and system-level DSE.
//!
//! A [`CandidateImpl`] is one fully configured task-level design point —
//! a base implementation, a DVFS mode and a CLR configuration — together
//! with its Table II metrics. An [`ImplLibrary`] holds, for every task
//! type of an application:
//!
//! * the **full** candidate list (the fcCLR search space,
//!   `I_t × FM_CL` points per type), and
//! * per `(task type, PE type)` **Pareto-filtered** index lists (the
//!   pfCLR space, `I_pft` points per type).
//!
//! Pareto filtering is performed *within* each PE-type group so the
//! library always retains mappable candidates for every PE type that can
//! host the task — this is why Table IV row I reports one point per PE
//! type rather than a single global optimum.
//!
//! A library is assembled by one pass over its task types
//! ([`ImplLibrary::finish_on`]): each type is one item that folds the
//! type's sweep results, groups and Pareto-filters its candidates, and
//! computes the type's digest. The library's
//! [`ImplLibrary::content_digest`] is therefore fixed at construction,
//! and the calling thread touches no candidate after the pass.

use clre_exec::ExecPool;
use clre_model::qos::{ObjectiveSet, TaskMetrics};
use clre_model::reliability::ClrConfig;
use clre_model::{DvfsModeId, ImplId, PeTypeId, TaskGraph, TaskTypeId};
use clre_moea::kernels::non_dominated_matrix;
use clre_moea::ObjectiveMatrix;
use serde::{Deserialize, Serialize};

use crate::cache::Fnv;
use crate::tdse::TdseHealth;
use crate::DseError;

/// One fully configured task-level design point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateImpl {
    /// The base implementation within the task type.
    pub impl_id: ImplId,
    /// The PE type this candidate can execute on.
    pub pe_type: PeTypeId,
    /// The DVFS mode of that PE type.
    pub dvfs: DvfsModeId,
    /// The cross-layer reliability configuration.
    pub clr: ClrConfig,
    /// The estimated Table II metrics.
    pub metrics: TaskMetrics,
    /// Memory footprint in bytes under this configuration (base
    /// implementation footprint times the methods' memory factors).
    pub memory_bytes: f64,
}

/// The per-application candidate library produced by task-level DSE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImplLibrary {
    /// `candidates[ty]` — all candidates of task type `ty`.
    candidates: Vec<Vec<CandidateImpl>>,
    /// `full[ty][pe_ty]` — candidate indices compatible with PE type
    /// `pe_ty` (unfiltered).
    full: Vec<Vec<Vec<usize>>>,
    /// `pareto[ty][pe_ty]` — Pareto-filtered candidate indices.
    pareto: Vec<Vec<Vec<usize>>>,
    /// [`ImplLibrary::content_digest`], computed at construction from the
    /// type digests the library pass produced.
    digest: u64,
}

/// One task type's slot in [`ImplLibrary::finish_on`]: its input and its
/// candidates, then the counters its fold added and the type's outcome.
struct TypeSlot<I> {
    input: I,
    candidates: Vec<CandidateImpl>,
    health: TdseHealth,
    /// The type's index lists and digest, or why it did not finish.
    outcome: Option<Result<(TypeGroups, u64), TypeError>>,
}

/// The `full` and `pareto` index lists of one task type, per PE type.
type TypeGroups = (Vec<Vec<usize>>, Vec<Vec<usize>>);

/// Why a task type did not finish: its fold failed, or its grouping did.
enum TypeError {
    Fold(DseError),
    Group(DseError),
}

impl ImplLibrary {
    /// Assembles a library from per-type candidate lists, grouping by PE
    /// type and Pareto-filtering each group under `objectives`.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::EmptyChoiceGroup`] if some task type has no
    /// candidate at all.
    pub fn from_candidates(
        candidates: Vec<Vec<CandidateImpl>>,
        pe_type_count: usize,
        objectives: &ObjectiveSet,
    ) -> Result<Self, DseError> {
        // Ready candidates need no fold: the serial case of the pass.
        Self::finish_on(
            candidates.into_iter().map(|ready| ((), ready)),
            pe_type_count,
            objectives,
            &ExecPool::serial(),
            &mut TdseHealth::default(),
            |(), _, _| Ok(()),
        )
    }

    /// The library pass on `pool`: one item per task type, which
    /// 1. folds the type's input with `fold` (the tDSE sweep's analysis
    ///    statuses, counted into the type's counters up to its first
    ///    error),
    /// 2. groups the type's candidates by PE type and Pareto-filters each
    ///    group,
    /// 3. computes the type's digest (see [`ImplLibrary::content_digest`]).
    ///
    /// `inputs` pairs each type's input with its candidates. The calling
    /// thread then reads the slots in type order: it adds each type's
    /// counters to `health` up to and including the first type whose
    /// fold failed, and returns that error; failing that, the first
    /// grouping error in type order. It touches no candidate. Neither the
    /// library nor the error depends on `pool`.
    pub(crate) fn finish_on<I: Send>(
        inputs: impl IntoIterator<Item = (I, Vec<CandidateImpl>)>,
        pe_type_count: usize,
        objectives: &ObjectiveSet,
        pool: &ExecPool,
        health: &mut TdseHealth,
        fold: impl Fn(&mut I, &[CandidateImpl], &mut TdseHealth) -> Result<(), DseError> + Sync,
    ) -> Result<Self, DseError> {
        let mut slots: Vec<TypeSlot<I>> = inputs
            .into_iter()
            .map(|(input, candidates)| TypeSlot {
                input,
                candidates,
                health: TdseHealth::default(),
                outcome: None,
            })
            .collect();
        pool.evaluate_in_place([slots.as_mut_slice()], |ty, slot| {
            let folded = fold(&mut slot.input, &slot.candidates, &mut slot.health);
            slot.outcome = Some(match folded {
                Err(e) => Err(TypeError::Fold(e)),
                Ok(()) => group_type(ty, &slot.candidates, pe_type_count, objectives)
                    .map(|groups| (groups, type_digest(&slot.candidates)))
                    .map_err(TypeError::Group),
            });
        });
        let types = slots.len();
        let mut library = ImplLibrary {
            candidates: Vec::with_capacity(types),
            full: Vec::with_capacity(types),
            pareto: Vec::with_capacity(types),
            digest: 0,
        };
        let mut type_digests = Vec::with_capacity(types);
        let mut group_error = None;
        for slot in slots {
            health.merge(&slot.health);
            match slot.outcome.expect("every task type finished") {
                Ok(((full, pareto), digest)) => {
                    library.candidates.push(slot.candidates);
                    library.full.push(full);
                    library.pareto.push(pareto);
                    type_digests.push(digest);
                }
                Err(TypeError::Fold(e)) => return Err(e),
                Err(TypeError::Group(e)) => {
                    group_error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = group_error {
            return Err(e);
        }
        library.digest = library_digest(&type_digests);
        Ok(library)
    }

    /// Number of task types covered.
    pub fn type_count(&self) -> usize {
        self.candidates.len()
    }

    /// All candidates of a task type.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is out of range.
    pub fn candidates(&self, ty: TaskTypeId) -> &[CandidateImpl] {
        &self.candidates[ty.index()]
    }

    /// A specific candidate.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn candidate(&self, ty: TaskTypeId, choice: usize) -> &CandidateImpl {
        &self.candidates[ty.index()][choice]
    }

    /// Unfiltered candidate indices compatible with `pe_ty`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn full_choices(&self, ty: TaskTypeId, pe_ty: PeTypeId) -> &[usize] {
        &self.full[ty.index()][pe_ty.index()]
    }

    /// Pareto-filtered candidate indices compatible with `pe_ty`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn pareto_choices(&self, ty: TaskTypeId, pe_ty: PeTypeId) -> &[usize] {
        &self.pareto[ty.index()][pe_ty.index()]
    }

    /// Total Pareto-front size of a task type across all PE-type groups —
    /// the `I_pft` counts reported in Table IV and Fig. 9.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is out of range.
    pub fn pareto_count(&self, ty: TaskTypeId) -> usize {
        self.pareto[ty.index()].iter().map(Vec::len).sum()
    }

    /// Total full-space size of a task type (`I_t × FM_CL`).
    ///
    /// # Panics
    ///
    /// Panics if `ty` is out of range.
    pub fn full_count(&self, ty: TaskTypeId) -> usize {
        self.full[ty.index()].iter().map(Vec::len).sum()
    }

    /// Returns a copy whose "Pareto" lists are *random* subsets of the
    /// full lists, each the same size as the true Pareto front of its
    /// group — the ablation baseline isolating the value of task-level
    /// Pareto pruning (DESIGN.md §5).
    ///
    /// Deterministic in `seed`.
    pub fn with_random_subsets(&self, seed: u64) -> ImplLibrary {
        let mut state = seed ^ 0x5EED_5EED;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let pareto = self
            .full
            .iter()
            .zip(&self.pareto)
            .map(|(full_groups, pareto_groups)| {
                full_groups
                    .iter()
                    .zip(pareto_groups)
                    .map(|(full, par)| {
                        let want = par.len().min(full.len());
                        // Partial Fisher–Yates over a copy, then sort so
                        // binary-search-based repair keeps working.
                        let mut pool = full.clone();
                        for i in 0..want {
                            let j = i + (next() as usize) % (pool.len() - i);
                            pool.swap(i, j);
                        }
                        let mut subset: Vec<usize> = pool[..want].to_vec();
                        subset.sort_unstable();
                        subset
                    })
                    .collect()
            })
            .collect();
        ImplLibrary {
            candidates: self.candidates.clone(),
            full: self.full.clone(),
            pareto,
            // Same candidates, same digest (see `content_digest`).
            digest: self.digest,
        }
    }

    /// FNV-1a content digest over everything evaluation reads from this
    /// library: every candidate's identity, Table II metric bit patterns
    /// and memory footprint, in candidate order. It is a tree of FNV-1a
    /// digests, each over little-endian 64-bit words:
    ///
    /// * a candidate's digest folds its 11 words: implementation, PE
    ///   type and DVFS mode indices, then the bit patterns of
    ///   `min_exec_time`, `avg_exec_time`, `error_prob`, `eta`, `power`,
    ///   `energy`, `peak_temp` and `memory_bytes`;
    /// * a task type's digest folds its candidate count, then its
    ///   candidates' digests in order;
    /// * the library's digest folds the type count, then the type
    ///   digests in order.
    ///
    /// The Pareto/full index lists are deliberately *not* folded in: they
    /// steer sampling and repair, never evaluation, so a library and its
    /// [`ImplLibrary::with_random_subsets`] twin share a digest — and may
    /// therefore share fitness-cache entries, which is exactly right
    /// because equal genomes evaluate identically under both.
    ///
    /// Computed at construction, by the library pass.
    pub fn content_digest(&self) -> u64 {
        self.digest
    }

    /// Checks that every task of `graph` has at least one mappable
    /// candidate on at least one PE type.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::EmptyChoiceGroup`] naming the first offending
    /// task type.
    pub fn validate_for(&self, graph: &TaskGraph) -> Result<(), DseError> {
        for task in graph.tasks() {
            let ty = task.task_type();
            if ty.index() >= self.candidates.len()
                || self.full[ty.index()].iter().all(Vec::is_empty)
            {
                return Err(DseError::EmptyChoiceGroup { ty });
            }
        }
        Ok(())
    }
}

/// Groups the candidates of task type `ty` by PE type and Pareto-filters
/// each group under `objectives`: the `full` and `pareto` index lists,
/// per PE type.
fn group_type(
    ty: usize,
    cands: &[CandidateImpl],
    pe_type_count: usize,
    objectives: &ObjectiveSet,
) -> Result<TypeGroups, DseError> {
    if cands.is_empty() {
        return Err(DseError::EmptyChoiceGroup {
            ty: TaskTypeId::new(ty as u32),
        });
    }
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); pe_type_count];
    for (i, c) in cands.iter().enumerate() {
        if c.pe_type.index() >= pe_type_count {
            return Err(DseError::InvalidConfig {
                what: "candidate references a PE type outside the platform",
            });
        }
        groups[c.pe_type.index()].push(i);
    }
    // One flat matrix refilled per PE-type group instead of a fresh
    // Vec<Vec<f64>> per group.
    let mut points = ObjectiveMatrix::default();
    let filtered = groups
        .iter()
        .map(|group| {
            points.reset(objectives.objectives().len());
            for &i in group {
                let metrics = &cands[i].metrics;
                points.push_row_from(
                    objectives
                        .objectives()
                        .iter()
                        .map(|&o| metrics.objective(o)),
                );
            }
            non_dominated_matrix(&points)
                .into_iter()
                .map(|k| group[k])
                .collect()
        })
        .collect();
    Ok((groups, filtered))
}

/// Words a candidate's digest folds (see [`ImplLibrary::content_digest`]).
const CANDIDATE_WORDS: usize = 11;

/// A candidate's digest words: its identity, then its Table II metric
/// and memory-footprint bit patterns.
fn candidate_words(c: &CandidateImpl) -> [u64; CANDIDATE_WORDS] {
    let m = &c.metrics;
    [
        c.impl_id.index() as u64,
        c.pe_type.index() as u64,
        c.dvfs.index() as u64,
        m.min_exec_time.to_bits(),
        m.avg_exec_time.to_bits(),
        m.error_prob.to_bits(),
        m.eta.to_bits(),
        m.power.to_bits(),
        m.energy.to_bits(),
        m.peak_temp.to_bits(),
        c.memory_bytes.to_bits(),
    ]
}

/// A task type's digest: its candidate count, then its candidates'
/// digests. The candidates are digested four at a time, word by word
/// across four independent hasher states, so the four multiply chains
/// overlap; each lane's value is the one-at-a-time digest.
fn type_digest(cands: &[CandidateImpl]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_u64(cands.len() as u64);
    let mut quads = cands.chunks_exact(4);
    for quad in &mut quads {
        let words: [[u64; CANDIDATE_WORDS]; 4] = std::array::from_fn(|l| candidate_words(&quad[l]));
        let mut lanes: [Fnv; 4] = std::array::from_fn(|_| Fnv::new());
        for w in 0..CANDIDATE_WORDS {
            for (lane, words) in lanes.iter_mut().zip(&words) {
                lane.write_u64(words[w]);
            }
        }
        for lane in &lanes {
            fnv.write_u64(lane.finish());
        }
    }
    for c in quads.remainder() {
        let mut lane = Fnv::new();
        for word in candidate_words(c) {
            lane.write_u64(word);
        }
        fnv.write_u64(lane.finish());
    }
    fnv.finish()
}

/// A library's digest: its type count, then its type digests.
fn library_digest(type_digests: &[u64]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.write_u64(type_digests.len() as u64);
    for &digest in type_digests {
        fnv.write_u64(digest);
    }
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre_model::reliability::ClrConfig;

    fn cand(pe_ty: u32, time: f64, err: f64) -> CandidateImpl {
        CandidateImpl {
            impl_id: ImplId::new(0),
            pe_type: PeTypeId::new(pe_ty),
            dvfs: DvfsModeId::new(0),
            clr: ClrConfig::unprotected(),
            metrics: TaskMetrics {
                min_exec_time: time,
                avg_exec_time: time,
                error_prob: err,
                eta: 1e8,
                power: 1.0,
                energy: time,
                peak_temp: 320.0,
            },
            memory_bytes: 0.0,
        }
    }

    #[test]
    fn groups_and_filters_per_pe_type() {
        // PE type 0: three candidates, one dominated. PE type 1: one.
        let cands = vec![vec![
            cand(0, 1.0, 0.3),
            cand(0, 2.0, 0.1),
            cand(0, 2.5, 0.35), // dominated by both
            cand(1, 9.0, 0.9),  // bad, but alone in its group → kept
        ]];
        let lib = ImplLibrary::from_candidates(cands, 2, &ObjectiveSet::set_ii()).unwrap();
        assert_eq!(
            lib.full_choices(TaskTypeId::new(0), PeTypeId::new(0)),
            &[0, 1, 2]
        );
        assert_eq!(
            lib.pareto_choices(TaskTypeId::new(0), PeTypeId::new(0)),
            &[0, 1]
        );
        assert_eq!(
            lib.pareto_choices(TaskTypeId::new(0), PeTypeId::new(1)),
            &[3]
        );
        assert_eq!(lib.pareto_count(TaskTypeId::new(0)), 3);
        assert_eq!(lib.full_count(TaskTypeId::new(0)), 4);
        assert_eq!(lib.type_count(), 1);
        assert_eq!(lib.full[0].len(), 2, "grouped against both PE types");
    }

    #[test]
    fn single_objective_keeps_one_per_group() {
        let cands = vec![vec![
            cand(0, 1.0, 0.3),
            cand(0, 2.0, 0.1),
            cand(1, 3.0, 0.2),
        ]];
        let lib = ImplLibrary::from_candidates(cands, 2, &ObjectiveSet::set_i()).unwrap();
        // Min time only: index 0 in group 0, index 2 in group 1.
        assert_eq!(lib.pareto_count(TaskTypeId::new(0)), 2);
    }

    #[test]
    fn empty_type_rejected() {
        let err =
            ImplLibrary::from_candidates(vec![vec![]], 1, &ObjectiveSet::set_i()).unwrap_err();
        assert!(matches!(err, DseError::EmptyChoiceGroup { .. }));
    }

    #[test]
    fn out_of_range_pe_type_rejected() {
        let err =
            ImplLibrary::from_candidates(vec![vec![cand(5, 1.0, 0.1)]], 2, &ObjectiveSet::set_i())
                .unwrap_err();
        assert!(matches!(err, DseError::InvalidConfig { .. }));
    }

    #[test]
    fn random_subsets_preserve_sizes_and_validity() {
        let cands = vec![vec![
            cand(0, 1.0, 0.3),
            cand(0, 2.0, 0.1),
            cand(0, 2.5, 0.35),
            cand(0, 3.0, 0.05),
            cand(1, 9.0, 0.9),
        ]];
        let lib = ImplLibrary::from_candidates(cands, 2, &ObjectiveSet::set_ii()).unwrap();
        let rnd = lib.with_random_subsets(7);
        let ty = TaskTypeId::new(0);
        assert_eq!(rnd.pareto_count(ty), lib.pareto_count(ty));
        for pe in 0..2 {
            let pe = PeTypeId::new(pe);
            let full = lib.full_choices(ty, pe);
            let sub = rnd.pareto_choices(ty, pe);
            let mut sorted = sub.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, sub, "subset must stay sorted");
            for c in sub {
                assert!(full.contains(c));
            }
        }
        // Deterministic per seed.
        assert_eq!(
            lib.with_random_subsets(7)
                .pareto_choices(ty, PeTypeId::new(0)),
            rnd.pareto_choices(ty, PeTypeId::new(0))
        );
    }

    #[test]
    fn content_digest_tracks_candidates_not_index_lists() {
        let cands = vec![vec![
            cand(0, 1.0, 0.3),
            cand(0, 2.0, 0.1),
            cand(0, 2.5, 0.35),
            cand(0, 3.0, 0.05),
            cand(1, 9.0, 0.9),
        ]];
        let lib = ImplLibrary::from_candidates(cands.clone(), 2, &ObjectiveSet::set_ii()).unwrap();
        // Random subsets reshuffle only the sampling lists: same digest.
        assert_eq!(
            lib.content_digest(),
            lib.with_random_subsets(7).content_digest()
        );
        // Any candidate metric change moves the digest.
        let mut changed = cands;
        changed[0][0].metrics.error_prob += 1.0e-12;
        let other = ImplLibrary::from_candidates(changed, 2, &ObjectiveSet::set_ii()).unwrap();
        assert_ne!(lib.content_digest(), other.content_digest());
    }

    /// Candidate `i` of a test type: every word distinct across
    /// candidates, so swapping two of them changes the stream.
    fn numbered(i: u32) -> CandidateImpl {
        let x = f64::from(i);
        let mut c = cand(i % 3, 1.0 + x, 0.01 * (x + 1.0));
        c.impl_id = ImplId::new(i);
        c.dvfs = DvfsModeId::new(i % 2);
        c.metrics.eta = 1e8 + x;
        c.metrics.power = 0.5 + x;
        c.memory_bytes = 64.0 * x;
        c
    }

    /// FNV-1a written out byte by byte over little-endian words,
    /// independent of the library's hasher.
    fn fnv1a(words: &[u64]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The documented digest tree of one task type.
    fn reference_type(cands: &[CandidateImpl]) -> u64 {
        let mut words = vec![cands.len() as u64];
        for c in cands {
            let m = &c.metrics;
            words.push(fnv1a(&[
                c.impl_id.index() as u64,
                c.pe_type.index() as u64,
                c.dvfs.index() as u64,
                m.min_exec_time.to_bits(),
                m.avg_exec_time.to_bits(),
                m.error_prob.to_bits(),
                m.eta.to_bits(),
                m.power.to_bits(),
                m.energy.to_bits(),
                m.peak_temp.to_bits(),
                c.memory_bytes.to_bits(),
            ]));
        }
        fnv1a(&words)
    }

    /// The documented digest tree of a library.
    fn reference(types: &[Vec<CandidateImpl>]) -> u64 {
        let mut words = vec![types.len() as u64];
        words.extend(types.iter().map(|t| reference_type(t)));
        fnv1a(&words)
    }

    #[test]
    fn digest_equals_a_byte_by_byte_reference_of_the_tree() {
        // 0..=9 covers every remainder of the four-lane loop.
        let all: Vec<CandidateImpl> = (0..9).map(numbered).collect();
        for n in [0, 1, 3, 4, 5, 9] {
            assert_eq!(type_digest(&all[..n]), reference_type(&all[..n]), "{n}");
        }
        // A library of types with 1, 3, 4, 5 and 9 candidates (a type
        // with none is an `EmptyChoiceGroup`).
        let types: Vec<Vec<CandidateImpl>> = [1, 3, 4, 5, 9].map(|n| all[..n].to_vec()).to_vec();
        let lib = ImplLibrary::from_candidates(types.clone(), 3, &ObjectiveSet::set_ii()).unwrap();
        let want = reference(&types);
        assert_eq!(lib.content_digest(), want);
        // Copies carry the value; equality sees equal digests.
        assert_eq!(lib.with_random_subsets(3).content_digest(), want);
        let pooled = ImplLibrary::finish_on(
            types.into_iter().map(|ready| ((), ready)),
            3,
            &ObjectiveSet::set_ii(),
            &ExecPool::new(3),
            &mut TdseHealth::default(),
            |(), _, _| Ok(()),
        )
        .unwrap();
        assert_eq!(pooled, lib, "the pooled pass builds the same library");
    }

    /// Changes word `w` of `c`'s digest stream (see `candidate_words`).
    fn perturb(c: &mut CandidateImpl, w: usize) {
        let flip = |x: &mut f64| *x = f64::from_bits(x.to_bits() ^ 1);
        let m = &mut c.metrics;
        match w {
            0 => c.impl_id = ImplId::new(c.impl_id.index() as u32 + 1),
            1 => c.pe_type = PeTypeId::new(c.pe_type.index() as u32 + 1),
            2 => c.dvfs = DvfsModeId::new(c.dvfs.index() as u32 + 1),
            3 => flip(&mut m.min_exec_time),
            4 => flip(&mut m.avg_exec_time),
            5 => flip(&mut m.error_prob),
            6 => flip(&mut m.eta),
            7 => flip(&mut m.power),
            8 => flip(&mut m.energy),
            9 => flip(&mut m.peak_temp),
            10 => flip(&mut c.memory_bytes),
            _ => unreachable!("a candidate streams {CANDIDATE_WORDS} words"),
        }
    }

    #[test]
    fn every_word_at_every_lane_moves_the_digest() {
        // Nine candidates: positions 0..8 hit each of the four lanes
        // twice and the serial remainder once.
        let base: Vec<CandidateImpl> = (0..9).map(numbered).collect();
        let digest = |types: Vec<Vec<CandidateImpl>>| {
            ImplLibrary::from_candidates(types, 4, &ObjectiveSet::set_ii())
                .unwrap()
                .content_digest()
        };
        let want = digest(vec![base.clone(), base[..2].to_vec()]);
        for i in 0..base.len() {
            for w in 0..CANDIDATE_WORDS {
                let mut changed = base.clone();
                perturb(&mut changed[i], w);
                let got = digest(vec![changed, base[..2].to_vec()]);
                assert_ne!(got, want, "candidate {i}, word {w}");
            }
        }
        for (i, j) in [(0, 1), (0, 4), (3, 8), (6, 7)] {
            let mut swapped = base.clone();
            swapped.swap(i, j);
            let got = digest(vec![swapped, base[..2].to_vec()]);
            assert_ne!(got, want, "swap {i} and {j}");
        }
        let types_swapped = digest(vec![base[..2].to_vec(), base.clone()]);
        assert_ne!(types_swapped, want, "swap the two types");
    }

    #[test]
    fn candidate_accessor() {
        let cands = vec![vec![cand(0, 1.0, 0.3)]];
        let lib = ImplLibrary::from_candidates(cands, 1, &ObjectiveSet::set_i()).unwrap();
        let c = lib.candidate(TaskTypeId::new(0), 0);
        assert_eq!(c.metrics.avg_exec_time, 1.0);
        assert_eq!(lib.candidates(TaskTypeId::new(0)).len(), 1);
    }
}
