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

use std::sync::OnceLock;

use clre_model::qos::{ObjectiveSet, TaskMetrics};
use clre_model::reliability::ClrConfig;
use clre_model::{DvfsModeId, ImplId, PeTypeId, TaskGraph, TaskTypeId};
use clre_moea::kernels::non_dominated_matrix;
use clre_moea::ObjectiveMatrix;
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImplLibrary {
    /// `candidates[ty]` — all candidates of task type `ty`.
    candidates: Vec<Vec<CandidateImpl>>,
    /// `full[ty][pe_ty]` — candidate indices compatible with PE type
    /// `pe_ty` (unfiltered).
    full: Vec<Vec<Vec<usize>>>,
    /// `pareto[ty][pe_ty]` — Pareto-filtered candidate indices.
    pareto: Vec<Vec<Vec<usize>>>,
    /// [`ImplLibrary::content_digest`], folded on first request: callers
    /// without a cache never ask for it and never pay for the fold.
    #[serde(skip)]
    digest: OnceLock<u64>,
}

/// Equality over the candidates and index lists; the memoized digest is
/// derived from them and may or may not be computed yet.
impl PartialEq for ImplLibrary {
    fn eq(&self, other: &Self) -> bool {
        self.candidates == other.candidates
            && self.full == other.full
            && self.pareto == other.pareto
    }
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
        let mut full = Vec::with_capacity(candidates.len());
        let mut pareto = Vec::with_capacity(candidates.len());
        // One flat matrix refilled per (task type, PE type) group instead
        // of a fresh Vec<Vec<f64>> per group.
        let mut points = ObjectiveMatrix::default();
        for (ty, cands) in candidates.iter().enumerate() {
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
            let mut filtered: Vec<Vec<usize>> = Vec::with_capacity(groups.len());
            for group in &groups {
                points.reset(0);
                for (pos, &i) in group.iter().enumerate() {
                    let v = cands[i].metrics.objective_vector(objectives);
                    if pos == 0 {
                        points.reset(v.len());
                    }
                    points.push_row(&v);
                }
                filtered.push(
                    non_dominated_matrix(&points)
                        .into_iter()
                        .map(|k| group[k])
                        .collect(),
                );
            }
            full.push(groups);
            pareto.push(filtered);
        }
        Ok(ImplLibrary {
            candidates,
            full,
            pareto,
            digest: OnceLock::new(),
        })
    }

    /// Number of task types covered.
    pub fn type_count(&self) -> usize {
        self.candidates.len()
    }

    /// Number of PE types the library was grouped against.
    pub fn pe_type_count(&self) -> usize {
        self.full.first().map_or(0, Vec::len)
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
            digest: self.digest.clone(),
        }
    }

    /// FNV-1a content digest over everything evaluation reads from this
    /// library: every candidate's identity, Table II metric bit patterns
    /// and memory footprint, in candidate order.
    ///
    /// The Pareto/full index lists are deliberately *not* folded in: they
    /// steer sampling and repair, never evaluation, so a library and its
    /// [`ImplLibrary::with_random_subsets`] twin share a digest — and may
    /// therefore share fitness-cache entries, which is exactly right
    /// because equal genomes evaluate identically under both.
    ///
    /// Folded once per library, on the first call.
    pub fn content_digest(&self) -> u64 {
        *self.digest.get_or_init(|| self.fold_digest())
    }

    fn fold_digest(&self) -> u64 {
        let mut fnv = crate::cache::Fnv::new();
        fnv.write_u64(self.candidates.len() as u64);
        for cands in &self.candidates {
            fnv.write_u64(cands.len() as u64);
            for c in cands {
                fnv.write_u64(c.impl_id.index() as u64);
                fnv.write_u64(c.pe_type.index() as u64);
                fnv.write_u64(c.dvfs.index() as u64);
                fnv.write_f64(c.metrics.min_exec_time);
                fnv.write_f64(c.metrics.avg_exec_time);
                fnv.write_f64(c.metrics.error_prob);
                fnv.write_f64(c.metrics.eta);
                fnv.write_f64(c.metrics.power);
                fnv.write_f64(c.metrics.energy);
                fnv.write_f64(c.metrics.peak_temp);
                fnv.write_f64(c.memory_bytes);
            }
        }
        fnv.finish()
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
        assert_eq!(lib.pe_type_count(), 2);
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

    #[test]
    fn memoized_digest_equals_an_independent_fold() {
        // FNV-1a written out byte by byte over the documented word
        // stream, independent of the library's hasher.
        fn reference(cands: &[Vec<CandidateImpl>]) -> u64 {
            let mut words = vec![cands.len() as u64];
            for group in cands {
                words.push(group.len() as u64);
                for c in group {
                    words.extend([
                        c.impl_id.index() as u64,
                        c.pe_type.index() as u64,
                        c.dvfs.index() as u64,
                    ]);
                    let m = &c.metrics;
                    words.extend(
                        [
                            m.min_exec_time,
                            m.avg_exec_time,
                            m.error_prob,
                            m.eta,
                            m.power,
                            m.energy,
                            m.peak_temp,
                            c.memory_bytes,
                        ]
                        .map(f64::to_bits),
                    );
                }
            }
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        }
        let cands = vec![
            vec![cand(0, 1.0, 0.3), cand(1, 9.0, 0.9)],
            vec![cand(0, 2.0, 0.1), cand(0, 2.5, 0.35), cand(1, 3.0, 0.05)],
        ];
        let lib = ImplLibrary::from_candidates(cands.clone(), 2, &ObjectiveSet::set_ii()).unwrap();
        assert_eq!(lib.digest.get(), None, "not folded at construction");
        let want = reference(&cands);
        assert_eq!(lib.content_digest(), want);
        assert_eq!(lib.digest.get(), Some(&want), "memoized by the first call");
        assert_eq!(lib.content_digest(), want);
        // Copies made after the fold carry the value; equality ignores it.
        let twin = lib.with_random_subsets(3);
        assert_eq!(twin.digest.get(), Some(&want));
        let fresh = ImplLibrary::from_candidates(cands, 2, &ObjectiveSet::set_ii()).unwrap();
        assert_eq!(fresh, lib);
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
