//! Seeded TGFF-style synthetic task-graph generator.
//!
//! The paper generates its synthetic applications and task execution times
//! with the *Task Graphs For Free* (TGFF) tool. This crate reproduces the
//! relevant behaviour: layered, connected, acyclic task graphs with a
//! bounded width and in-degree, drawn from a pool of reusable task types —
//! reproducibly from a seed.
//!
//! Task-type *attributes* (cycles, power) are injected by the caller
//! through a closure, normally backed by
//! [`clre_profile::SyntheticCharacterizer`]; this keeps the generator
//! independent of the characterization substrate.
//!
//! # Examples
//!
//! ```
//! use clre_model::{BaseImpl, PeTypeId};
//! use clre_tgff::{generate, TgffConfig};
//!
//! # fn main() -> Result<(), clre_model::ModelError> {
//! let cfg = TgffConfig::new(20).with_type_count(10);
//! let graph = generate(&cfg, 42, |ty| {
//!     vec![BaseImpl::new(format!("syn{ty}"), PeTypeId::new(0), 1.0e5, 1.0e-9)]
//! })?;
//! assert_eq!(graph.task_count(), 20);
//! assert!(graph.task_types().len() <= 10);
//! // Seeded: the same inputs give the same graph.
//! let again = generate(&cfg, 42, |ty| {
//!     vec![BaseImpl::new(format!("syn{ty}"), PeTypeId::new(0), 1.0e5, 1.0e-9)]
//! })?;
//! assert_eq!(graph.edges(), again.edges());
//! # Ok(())
//! # }
//! ```
//!
//! [`clre_profile::SyntheticCharacterizer`]: https://example.invalid/clrearly

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use clre_model::{BaseImpl, ModelError, TaskGraph, TaskType, TaskTypeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the synthetic graph generator.
///
/// Defaults mirror the paper's setup: a pool of 10 task types
/// (`SYN_0`…`SYN_9`), period 10 ms, moderate fan-in/out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TgffConfig {
    /// Number of task nodes `T`.
    pub task_count: usize,
    /// Size of the task-type pool; types are reused across tasks.
    pub type_count: usize,
    /// Application period `P_app` in seconds.
    pub period: f64,
    /// Maximum number of predecessors per task.
    pub max_in_degree: usize,
    /// Maximum number of tasks per layer (graph width).
    pub max_width: usize,
    /// Range of per-edge data volumes in bytes, sampled uniformly. Only
    /// affects scheduling on platforms that declare an interconnect.
    pub edge_volume_range: (f64, f64),
    /// Application name prefix.
    pub name: String,
}

impl TgffConfig {
    /// Creates a configuration for `task_count` tasks with paper-like
    /// defaults.
    ///
    /// # Panics
    ///
    /// Panics if `task_count == 0`.
    pub fn new(task_count: usize) -> Self {
        assert!(task_count > 0, "task count must be positive");
        TgffConfig {
            task_count,
            type_count: 10,
            period: 10.0e-3,
            max_in_degree: 3,
            max_width: 4,
            edge_volume_range: (1024.0, 65536.0),
            name: format!("tgff-{task_count}"),
        }
    }

    /// Sets the task-type pool size (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    #[must_use]
    pub fn with_type_count(mut self, count: usize) -> Self {
        assert!(count > 0, "type count must be positive");
        self.type_count = count;
        self
    }
}

/// Generates a connected, layered DAG application.
///
/// `impls_for_type` supplies the base implementations of each task type in
/// the pool (indices `0..cfg.type_count`). Only types actually used by the
/// generated tasks are materialized, but type indices are stable: task
/// type `SYN_k` always corresponds to pool index `k`.
///
/// # Errors
///
/// Propagates [`ModelError`] from graph validation — in particular
/// [`ModelError::NoImplementations`] if `impls_for_type` returns an empty
/// vector for a used type.
pub fn generate<F>(cfg: &TgffConfig, seed: u64, impls_for_type: F) -> Result<TaskGraph, ModelError>
where
    F: Fn(u32) -> Vec<BaseImpl>,
{
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC1_5EA_51E);
    // Layer the tasks: each layer holds 1..=max_width tasks.
    let mut layers: Vec<Vec<u32>> = Vec::new();
    let mut next = 0u32;
    while (next as usize) < cfg.task_count {
        let remaining = cfg.task_count - next as usize;
        let width = rng.gen_range(1..=cfg.max_width.min(remaining));
        layers.push((next..next + width as u32).collect());
        next += width as u32;
    }

    // Materialize the full type pool so type indices are stable, assign a
    // pool type to every task.
    let mut builder = TaskGraph::builder(cfg.name.clone(), cfg.period);
    for ty in 0..cfg.type_count {
        let mut t = TaskType::new(format!("SYN_{ty}"));
        for imp in impls_for_type(ty as u32) {
            t = t.with_impl(imp);
        }
        builder = builder.task_type(t);
    }
    for t in 0..cfg.task_count {
        let ty = rng.gen_range(0..cfg.type_count) as u32;
        builder = builder.task_by_type_id(&format!("t{t}"), TaskTypeId::new(ty), 1.0);
    }

    // Connect: every task after layer 0 draws 1..=max_in_degree
    // predecessors from the previous layer (guaranteeing a connected,
    // acyclic, layered structure like TGFF's series-parallel graphs),
    // with occasional skip edges from any earlier layer for irregularity.
    let (vol_lo, vol_hi) = cfg.edge_volume_range;
    let volume = |rng: &mut StdRng| {
        if vol_hi > vol_lo {
            rng.gen_range(vol_lo..vol_hi)
        } else {
            vol_lo
        }
    };
    for li in 1..layers.len() {
        let prev = &layers[li - 1];
        for &t in &layers[li] {
            let in_deg = rng.gen_range(1..=cfg.max_in_degree.min(prev.len()));
            let mut picked = prev.clone();
            partial_shuffle(&mut picked, &mut rng);
            for &p in picked.iter().take(in_deg) {
                let v = volume(&mut rng);
                builder = builder.edge_with_volume(p, t, v);
            }
            // 20% chance of one long-range edge from a random earlier layer.
            if li >= 2 && rng.gen_bool(0.2) {
                let far_layer = rng.gen_range(0..li - 1);
                let src = layers[far_layer][rng.gen_range(0..layers[far_layer].len())];
                let v = volume(&mut rng);
                builder = builder.edge_with_volume(src, t, v);
            }
        }
    }
    builder.build()
}

/// Fisher–Yates shuffle (full); `rand`'s `SliceRandom` is avoided to keep
/// the dependency surface to `Rng` only.
fn partial_shuffle<R: Rng>(xs: &mut [u32], rng: &mut R) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre_model::{PeTypeId, TaskId};

    fn one_impl(ty: u32) -> Vec<BaseImpl> {
        vec![BaseImpl::new(
            format!("syn{ty}"),
            PeTypeId::new(0),
            1.0e5 + ty as f64,
            1.0e-9,
        )]
    }

    #[test]
    fn generates_requested_task_count() {
        for &n in &[1usize, 5, 20, 50, 100] {
            let g = generate(&TgffConfig::new(n), 7, one_impl).unwrap();
            assert_eq!(g.task_count(), n);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = TgffConfig::new(30);
        let a = generate(&cfg, 1, one_impl).unwrap();
        let b = generate(&cfg, 1, one_impl).unwrap();
        let c = generate(&cfg, 2, one_impl).unwrap();
        assert_eq!(a.edges(), b.edges());
        assert_eq!(
            a.tasks().iter().map(|t| t.task_type()).collect::<Vec<_>>(),
            b.tasks().iter().map(|t| t.task_type()).collect::<Vec<_>>()
        );
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn connected_after_first_layer() {
        let g = generate(&TgffConfig::new(50), 3, one_impl).unwrap();
        // Count roots: must be at most max_width (the first layer).
        let roots = g
            .tasks()
            .iter()
            .filter(|t| g.predecessors(t.id()).is_empty())
            .count();
        assert!(roots <= 4, "too many roots: {roots}");
        // Everything else has at least one predecessor.
        for t in g.tasks().iter().skip(roots) {
            assert!(!g.predecessors(t.id()).is_empty());
        }
    }

    #[test]
    fn respects_width_and_degree_bounds() {
        let mut cfg = TgffConfig::new(60);
        cfg.max_width = 3;
        cfg.max_in_degree = 2;
        let g = generate(&cfg, 9, one_impl).unwrap();
        // In-degree bound: layered edges ≤ 2, plus at most 1 skip edge.
        for t in g.tasks() {
            assert!(g.predecessors(t.id()).len() <= 3);
        }
    }

    #[test]
    fn types_drawn_from_pool() {
        let cfg = TgffConfig::new(40).with_type_count(5);
        let g = generate(&cfg, 11, one_impl).unwrap();
        assert_eq!(g.task_types().len(), 5);
        for t in g.tasks() {
            assert!(t.task_type().index() < 5);
        }
        assert_eq!(g.task_types()[3].name(), "SYN_3");
    }

    #[test]
    fn empty_impls_rejected() {
        let err = generate(&TgffConfig::new(5), 1, |_| vec![]).unwrap_err();
        assert!(matches!(err, ModelError::NoImplementations { .. }));
    }

    #[test]
    fn single_task_graph() {
        let g = generate(&TgffConfig::new(1), 1, one_impl).unwrap();
        assert_eq!(g.task_count(), 1);
        assert!(g.edges().is_empty());
        assert_eq!(g.topological_order(), &[TaskId::new(0)]);
    }

    #[test]
    fn edges_carry_volumes_in_range() {
        let mut cfg = TgffConfig::new(30);
        cfg.edge_volume_range = (100.0, 200.0);
        let g = generate(&cfg, 5, one_impl).unwrap();
        assert!(!g.edges().is_empty());
        for &v in g.edge_volumes() {
            assert!((100.0..=200.0).contains(&v), "volume {v} out of range");
        }
        // Degenerate range pins every volume.
        let mut cfg = TgffConfig::new(10);
        cfg.edge_volume_range = (42.0, 42.0);
        let g = generate(&cfg, 5, one_impl).unwrap();
        for &v in g.edge_volumes() {
            assert_eq!(v, 42.0);
        }
    }

    #[test]
    fn period_and_name_propagate() {
        let mut cfg = TgffConfig::new(4);
        cfg.period = 2.5e-3;
        let g = generate(&cfg, 1, one_impl).unwrap();
        assert_eq!(g.period(), 2.5e-3);
        assert_eq!(g.name(), "tgff-4");
    }

    #[test]
    #[should_panic(expected = "task count must be positive")]
    fn zero_tasks_panics() {
        TgffConfig::new(0);
    }
}
