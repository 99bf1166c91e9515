//! Application model: periodic task graphs over typed tasks (Fig. 2(b) of
//! the paper).
//!
//! An application is a DAG `G_app = (T_app, E_app, P_app)`. Every
//! [`Task`] references a [`TaskType`] (its functionality); every task type
//! owns one or more [`BaseImpl`]s — concrete realizations characterized by
//! the PE type they run on and the algorithm/language variant, with the
//! system software represented only by the error masking it implies. The
//! *reliability* dimension is deliberately not part of [`BaseImpl`]: CLR
//! configurations are layered on top by [`clre::tdse`].
//!
//! [`clre::tdse`]: https://example.invalid/clrearly

use crate::{ImplId, ModelError, PeTypeId, TaskId, TaskTypeId};
use serde::{Deserialize, Serialize};

/// A base implementation of a task type: the `(PE type, system software,
/// application software)` tuple of Section III-B, plus its raw
/// characterization (cycle count and switching capacitance) from the
/// profiling substrate. The system software enters the models only
/// through its implicit masking probability `m_implSSW`.
///
/// # Examples
///
/// ```
/// use clre_model::{BaseImpl, PeTypeId};
///
/// let i = BaseImpl::new("gauss-c", PeTypeId::new(0), 180_000.0, 0.9e-9)
///     .with_implicit_ssw_masking(0.05);
/// assert_eq!(i.cycles(), 180_000.0);
/// assert_eq!(i.implicit_ssw_masking(), 0.05);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaseImpl {
    name: String,
    pe_type: PeTypeId,
    /// Average dynamic instruction/cycle count of one execution.
    cycles: f64,
    /// Effective switched capacitance in farads (drives `P = C·V²·f`).
    capacitance: f64,
    /// Probability that the system-software layer implicitly masks an
    /// arriving error (`m_implSSW` in the paper's Fig. 3), in `[0, 1]`.
    implicit_ssw_masking: f64,
    /// Code + state memory footprint in bytes (0 = unconstrained).
    memory_bytes: f64,
}

impl BaseImpl {
    /// Creates a bare-metal implementation with no implicit SSW masking.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` or `capacitance` is not strictly positive.
    pub fn new(name: impl Into<String>, pe_type: PeTypeId, cycles: f64, capacitance: f64) -> Self {
        assert!(cycles > 0.0, "cycles must be positive");
        assert!(capacitance > 0.0, "capacitance must be positive");
        BaseImpl {
            name: name.into(),
            pe_type,
            cycles,
            capacitance,
            implicit_ssw_masking: 0.0,
            memory_bytes: 0.0,
        }
    }

    /// Sets the implicit SSW masking probability (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `[0, 1]`.
    #[must_use]
    pub fn with_implicit_ssw_masking(mut self, m: f64) -> Self {
        assert!((0.0..=1.0).contains(&m), "masking must be within [0, 1]");
        self.implicit_ssw_masking = m;
        self
    }

    /// The implementation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The PE type this implementation is compiled/synthesized for.
    pub fn pe_type(&self) -> PeTypeId {
        self.pe_type
    }

    /// Average cycle count of one fault-free execution.
    pub fn cycles(&self) -> f64 {
        self.cycles
    }

    /// Effective switched capacitance in farads.
    pub fn capacitance(&self) -> f64 {
        self.capacitance
    }

    /// Implicit system-software masking probability `m_implSSW`.
    pub fn implicit_ssw_masking(&self) -> f64 {
        self.implicit_ssw_masking
    }

    /// Sets the memory footprint in bytes (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or not finite.
    #[must_use]
    pub fn with_memory_bytes(mut self, bytes: f64) -> Self {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "memory must be non-negative"
        );
        self.memory_bytes = bytes;
        self
    }

    /// Code + state memory footprint in bytes.
    pub fn memory_bytes(&self) -> f64 {
        self.memory_bytes
    }
}

/// A task functionality class owning its base implementations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskType {
    name: String,
    impls: Vec<BaseImpl>,
}

impl TaskType {
    /// Creates a task type with no implementations yet.
    pub fn new(name: impl Into<String>) -> Self {
        TaskType {
            name: name.into(),
            impls: Vec::new(),
        }
    }

    /// Adds a base implementation (builder style).
    #[must_use]
    pub fn with_impl(mut self, imp: BaseImpl) -> Self {
        self.impls.push(imp);
        self
    }

    /// The type's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The base implementations in registration order.
    pub fn impls(&self) -> &[BaseImpl] {
        &self.impls
    }

    /// Looks up an implementation by id.
    pub fn impl_by_id(&self, id: ImplId) -> Option<&BaseImpl> {
        self.impls.get(id.index())
    }
}

/// A task node: index, type reference and criticality weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    id: TaskId,
    name: String,
    task_type: TaskTypeId,
    /// Raw (unnormalized) criticality weight; the graph normalizes these
    /// into `ζ_t` for the functional-reliability estimate.
    criticality: f64,
}

impl Task {
    /// The task's index in the graph.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The task's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task's functionality class.
    pub fn task_type(&self) -> TaskTypeId {
        self.task_type
    }

    /// The raw criticality weight.
    pub fn criticality(&self) -> f64 {
        self.criticality
    }
}

/// A validated periodic application task graph.
///
/// Build with [`TaskGraph::builder`]. Validation guarantees: at least one
/// task, all edges in range, acyclicity, all task-type references valid and
/// every referenced type has at least one implementation.
///
/// # Examples
///
/// ```
/// use clre_model::{application::TaskGraph, BaseImpl, PeTypeId, TaskType};
///
/// # fn main() -> Result<(), clre_model::ModelError> {
/// let ty = TaskType::new("fir").with_impl(BaseImpl::new("fir-c", PeTypeId::new(0), 1e5, 1e-9));
/// let g = TaskGraph::builder("pipeline", 1.0e-3)
///     .task_type(ty)
///     .task("t0", "fir")?
///     .task("t1", "fir")?
///     .edge(0, 1)
///     .build()?;
/// assert_eq!(g.task_count(), 2);
/// assert_eq!(g.successors(clre_model::TaskId::new(0)), &[clre_model::TaskId::new(1)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    name: String,
    /// Application period `P_app` in seconds.
    period: f64,
    task_types: Vec<TaskType>,
    tasks: Vec<Task>,
    edges: Vec<(TaskId, TaskId)>,
    /// `volumes[i]` is the data volume in bytes of `edges[i]`.
    volumes: Vec<f64>,
    succs: Vec<Vec<TaskId>>,
    preds: Vec<Vec<TaskId>>,
    /// `pred_edges[t]` pairs each predecessor with its edge volume.
    pred_edges: Vec<Vec<(TaskId, f64)>>,
    topo: Vec<TaskId>,
}

impl TaskGraph {
    /// Starts building a task graph with the given name and period (s).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not strictly positive.
    pub fn builder(name: impl Into<String>, period: f64) -> TaskGraphBuilder {
        assert!(period > 0.0, "period must be positive");
        TaskGraphBuilder {
            name: name.into(),
            period,
            task_types: Vec::new(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The application period `P_app` in seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// Number of tasks (`T` in the paper).
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// All tasks in index order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All registered task types.
    pub fn task_types(&self) -> &[TaskType] {
        &self.task_types
    }

    /// Looks up a task by id.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.index())
    }

    /// Looks up a task type by id.
    pub fn task_type(&self, id: TaskTypeId) -> Option<&TaskType> {
        self.task_types.get(id.index())
    }

    /// The task type record of a given task.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (i.e. from a different graph).
    pub fn type_of(&self, id: TaskId) -> &TaskType {
        &self.task_types[self.tasks[id.index()].task_type.index()]
    }

    /// The dependency edges.
    pub fn edges(&self) -> &[(TaskId, TaskId)] {
        &self.edges
    }

    /// The data volume in bytes of each edge, parallel to
    /// [`TaskGraph::edges`].
    pub fn edge_volumes(&self) -> &[f64] {
        &self.volumes
    }

    /// Each predecessor of `id` together with the communicated volume.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn predecessor_edges(&self, id: TaskId) -> &[(TaskId, f64)] {
        &self.pred_edges[id.index()]
    }

    /// Direct successors of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        &self.succs[id.index()]
    }

    /// Direct predecessors of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        &self.preds[id.index()]
    }

    /// A topological order of the tasks (stable across runs).
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Renders the task graph in Graphviz DOT format: one node per task
    /// labelled `name : type`, one edge per dependency annotated with its
    /// data volume when non-zero.
    ///
    /// # Examples
    ///
    /// ```
    /// # use clre_model::{application::TaskGraph, BaseImpl, PeTypeId, TaskType};
    /// # fn main() -> Result<(), clre_model::ModelError> {
    /// # let ty = TaskType::new("f").with_impl(BaseImpl::new("i", PeTypeId::new(0), 1e5, 1e-9));
    /// # let g = TaskGraph::builder("a", 1.0).task_type(ty)
    /// #     .task("t0", "f")?.task("t1", "f")?.edge(0, 1).build()?;
    /// let dot = g.to_dot();
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("T0 -> T1"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_dot(&self) -> String {
        let mut out = format!("digraph \"{}\" {{\n  rankdir=TB;\n", self.name);
        for t in &self.tasks {
            out.push_str(&format!(
                "  {} [label=\"{} : {}\"];\n",
                t.id(),
                t.name(),
                self.task_types[t.task_type().index()].name()
            ));
        }
        for (&(f, t), &v) in self.edges.iter().zip(&self.volumes) {
            if v > 0.0 {
                out.push_str(&format!("  {f} -> {t} [label=\"{v:.0} B\"];\n"));
            } else {
                out.push_str(&format!("  {f} -> {t};\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    /// Normalized criticalities `ζ_t` (sum to 1).
    ///
    /// # Examples
    ///
    /// ```
    /// # use clre_model::{application::TaskGraph, BaseImpl, PeTypeId, TaskType};
    /// # fn main() -> Result<(), clre_model::ModelError> {
    /// # let ty = TaskType::new("f").with_impl(BaseImpl::new("i", PeTypeId::new(0), 1e5, 1e-9));
    /// # let g = TaskGraph::builder("a", 1.0).task_type(ty)
    /// #     .task("t0", "f")?.task("t1", "f")?.build()?;
    /// let z = g.normalized_criticalities();
    /// assert!((z.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn normalized_criticalities(&self) -> Vec<f64> {
        let total: f64 = self.tasks.iter().map(Task::criticality).sum();
        self.tasks.iter().map(|t| t.criticality / total).collect()
    }
}

/// Builder for [`TaskGraph`].
#[derive(Debug, Clone)]
pub struct TaskGraphBuilder {
    name: String,
    period: f64,
    task_types: Vec<TaskType>,
    tasks: Vec<(String, TaskTypeId, f64)>,
    edges: Vec<(u32, u32, f64)>,
}

impl TaskGraphBuilder {
    /// Registers a task type.
    #[must_use]
    pub fn task_type(mut self, ty: TaskType) -> Self {
        self.task_types.push(ty);
        self
    }

    /// Adds a task of the named type with criticality 1.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownPeType`] — reused for the type-name
    /// lookup — if no task type with that name has been registered.
    pub fn task(self, name: &str, type_name: &str) -> Result<Self, ModelError> {
        self.task_with_criticality(name, type_name, 1.0)
    }

    /// Adds a task with an explicit raw criticality weight.
    ///
    /// # Errors
    ///
    /// As for [`TaskGraphBuilder::task`]; additionally
    /// [`ModelError::InvalidParameter`] if `criticality <= 0`.
    pub fn task_with_criticality(
        mut self,
        name: &str,
        type_name: &str,
        criticality: f64,
    ) -> Result<Self, ModelError> {
        if criticality <= 0.0 {
            return Err(ModelError::InvalidParameter {
                what: "criticality must be positive",
            });
        }
        let idx = self
            .task_types
            .iter()
            .position(|t| t.name() == type_name)
            .ok_or_else(|| ModelError::UnknownPeType {
                name: type_name.to_owned(),
            })?;
        self.tasks
            .push((name.to_owned(), TaskTypeId::new(idx as u32), criticality));
        Ok(self)
    }

    /// Adds a task by raw type id (used by generators).
    #[must_use]
    pub fn task_by_type_id(mut self, name: &str, ty: TaskTypeId, criticality: f64) -> Self {
        self.tasks.push((name.to_owned(), ty, criticality));
        self
    }

    /// Adds a dependency edge `from → to` (raw indices) carrying no data.
    #[must_use]
    pub fn edge(self, from: u32, to: u32) -> Self {
        self.edge_with_volume(from, to, 0.0)
    }

    /// Adds a dependency edge with a data volume in bytes. The volume
    /// only affects scheduling when the platform declares an
    /// [`Interconnect`](crate::platform::Interconnect).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative or not finite.
    #[must_use]
    pub fn edge_with_volume(mut self, from: u32, to: u32, bytes: f64) -> Self {
        assert!(
            bytes.is_finite() && bytes >= 0.0,
            "volume must be non-negative"
        );
        self.edges.push((from, to, bytes));
        self
    }

    /// Validates and produces the task graph.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyGraph`] if no tasks were added.
    /// * [`ModelError::EdgeOutOfRange`] for dangling edges.
    /// * [`ModelError::CyclicDependencies`] if the edges are not a DAG.
    /// * [`ModelError::TaskTypeOutOfRange`] for dangling type references.
    /// * [`ModelError::NoImplementations`] if a referenced type is empty.
    pub fn build(self) -> Result<TaskGraph, ModelError> {
        let n = self.tasks.len();
        if n == 0 {
            return Err(ModelError::EmptyGraph);
        }
        for (i, (_, ty, _)) in self.tasks.iter().enumerate() {
            if ty.index() >= self.task_types.len() {
                return Err(ModelError::TaskTypeOutOfRange {
                    task: TaskId::new(i as u32),
                    ty: *ty,
                    count: self.task_types.len(),
                });
            }
            if self.task_types[ty.index()].impls.is_empty() {
                return Err(ModelError::NoImplementations { ty: *ty });
            }
        }
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        let mut pred_edges = vec![Vec::new(); n];
        let mut edges = Vec::with_capacity(self.edges.len());
        let mut volumes = Vec::with_capacity(self.edges.len());
        for &(f, t, v) in &self.edges {
            if f as usize >= n || t as usize >= n {
                return Err(ModelError::EdgeOutOfRange {
                    from: TaskId::new(f),
                    to: TaskId::new(t),
                    count: n,
                });
            }
            succs[f as usize].push(TaskId::new(t));
            preds[t as usize].push(TaskId::new(f));
            pred_edges[t as usize].push((TaskId::new(f), v));
            edges.push((TaskId::new(f), TaskId::new(t)));
            volumes.push(v);
        }
        // Kahn's algorithm both validates acyclicity and yields a stable
        // topological order (ready set processed in index order).
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(&u) = ready.first() {
            ready.remove(0);
            topo.push(TaskId::new(u as u32));
            for &v in &succs[u] {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    // Insert keeping `ready` sorted for determinism.
                    let pos = ready.partition_point(|&r| r < v.index());
                    ready.insert(pos, v.index());
                }
            }
        }
        if topo.len() != n {
            return Err(ModelError::CyclicDependencies);
        }
        let tasks = self
            .tasks
            .into_iter()
            .enumerate()
            .map(|(i, (name, ty, crit))| Task {
                id: TaskId::new(i as u32),
                name,
                task_type: ty,
                criticality: crit,
            })
            .collect();
        Ok(TaskGraph {
            name: self.name,
            period: self.period,
            task_types: self.task_types,
            tasks,
            edges,
            volumes,
            succs,
            preds,
            pred_edges,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(name: &str) -> TaskType {
        TaskType::new(name).with_impl(BaseImpl::new("i", PeTypeId::new(0), 1e5, 1e-9))
    }

    fn diamond() -> TaskGraph {
        TaskGraph::builder("diamond", 1.0)
            .task_type(ty("f"))
            .task("a", "f")
            .unwrap()
            .task("b", "f")
            .unwrap()
            .task("c", "f")
            .unwrap()
            .task("d", "f")
            .unwrap()
            .edge(0, 1)
            .edge(0, 2)
            .edge(1, 3)
            .edge(2, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.successors(TaskId::new(0)).len(), 2);
        assert_eq!(g.predecessors(TaskId::new(3)).len(), 2);
        assert_eq!(g.edges().len(), 4);
        assert_eq!(g.type_of(TaskId::new(0)).name(), "f");
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let topo = g.topological_order();
        let pos = |t: TaskId| topo.iter().position(|&x| x == t).unwrap();
        for &(f, t) in g.edges() {
            assert!(pos(f) < pos(t), "edge {f}->{t} violated");
        }
    }

    #[test]
    fn rejects_cycle() {
        let err = TaskGraph::builder("loop", 1.0)
            .task_type(ty("f"))
            .task("a", "f")
            .unwrap()
            .task("b", "f")
            .unwrap()
            .edge(0, 1)
            .edge(1, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, ModelError::CyclicDependencies);
    }

    #[test]
    fn rejects_dangling_edge() {
        let err = TaskGraph::builder("bad", 1.0)
            .task_type(ty("f"))
            .task("a", "f")
            .unwrap()
            .edge(0, 7)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::EdgeOutOfRange { .. }));
    }

    #[test]
    fn rejects_empty_graph_and_unknown_type() {
        assert_eq!(
            TaskGraph::builder("e", 1.0).build().unwrap_err(),
            ModelError::EmptyGraph
        );
        assert!(TaskGraph::builder("e", 1.0).task("a", "ghost").is_err());
    }

    #[test]
    fn rejects_type_without_impls() {
        let err = TaskGraph::builder("n", 1.0)
            .task_type(TaskType::new("empty"))
            .task("a", "empty")
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::NoImplementations { .. }));
    }

    #[test]
    fn rejects_dangling_type_id() {
        let err = TaskGraph::builder("n", 1.0)
            .task_type(ty("f"))
            .task_by_type_id("a", TaskTypeId::new(9), 1.0)
            .build()
            .unwrap_err();
        assert!(matches!(err, ModelError::TaskTypeOutOfRange { .. }));
    }

    #[test]
    fn criticalities_normalize() {
        let g = TaskGraph::builder("c", 1.0)
            .task_type(ty("f"))
            .task_with_criticality("a", "f", 3.0)
            .unwrap()
            .task_with_criticality("b", "f", 1.0)
            .unwrap()
            .build()
            .unwrap();
        let z = g.normalized_criticalities();
        assert!((z[0] - 0.75).abs() < 1e-12);
        assert!((z[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn criticality_must_be_positive() {
        let r = TaskGraph::builder("c", 1.0)
            .task_type(ty("f"))
            .task_with_criticality("a", "f", 0.0);
        assert!(r.is_err());
    }

    #[test]
    fn base_impl_builders() {
        let i = BaseImpl::new("x", PeTypeId::new(1), 2e5, 1e-9).with_implicit_ssw_masking(0.1);
        assert_eq!(i.implicit_ssw_masking(), 0.1);
        assert_eq!(i.pe_type(), PeTypeId::new(1));
        assert_eq!(i.name(), "x");
        assert_eq!(i.capacitance(), 1e-9);
    }

    #[test]
    #[should_panic(expected = "cycles must be positive")]
    fn base_impl_rejects_zero_cycles() {
        BaseImpl::new("x", PeTypeId::new(0), 0.0, 1e-9);
    }

    #[test]
    fn edge_volumes_roundtrip() {
        let g = TaskGraph::builder("v", 1.0)
            .task_type(ty("f"))
            .task("a", "f")
            .unwrap()
            .task("b", "f")
            .unwrap()
            .edge_with_volume(0, 1, 4096.0)
            .build()
            .unwrap();
        assert_eq!(g.edge_volumes(), &[4096.0]);
        assert_eq!(
            g.predecessor_edges(TaskId::new(1)),
            &[(TaskId::new(0), 4096.0)]
        );
        assert!(g.predecessor_edges(TaskId::new(0)).is_empty());
    }

    #[test]
    fn plain_edges_have_zero_volume() {
        let g = diamond();
        assert!(g.edge_volumes().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dot_export_contains_structure() {
        let g = diamond();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph \"diamond\""));
        assert!(dot.contains("T0 [label=\"a : f\"]"));
        for &(f, t) in g.edges() {
            assert!(dot.contains(&format!("{f} -> {t}")));
        }
        assert!(dot.trim_end().ends_with('}'));
        // Volumes appear when set.
        let ty2 = ty("f");
        let g2 = TaskGraph::builder("v", 1.0)
            .task_type(ty2)
            .task("a", "f")
            .unwrap()
            .task("b", "f")
            .unwrap()
            .edge_with_volume(0, 1, 2048.0)
            .build()
            .unwrap();
        assert!(g2.to_dot().contains("2048 B"));
    }

    #[test]
    fn base_impl_memory_footprint() {
        let i = BaseImpl::new("x", PeTypeId::new(0), 1e5, 1e-9).with_memory_bytes(65536.0);
        assert_eq!(i.memory_bytes(), 65536.0);
        assert_eq!(
            BaseImpl::new("y", PeTypeId::new(0), 1e5, 1e-9).memory_bytes(),
            0.0
        );
    }

    #[test]
    fn task_type_lookup() {
        let t = ty("f");
        assert!(t.impl_by_id(ImplId::new(0)).is_some());
        assert!(t.impl_by_id(ImplId::new(1)).is_none());
    }
}
