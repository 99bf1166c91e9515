use crate::TaskSimulator;
use clre_markov::ClrChainParams;
use clre_model::{Platform, TaskGraph, TaskId};
use clre_sched::Mapping;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Aggregate statistics of a Monte-Carlo application simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppSimResult {
    /// Number of simulated application iterations.
    pub iterations: usize,
    /// Empirical mean makespan in seconds.
    pub mean_makespan: f64,
    /// Fraction of iterations in which at least one task produced an
    /// erroneous result (series-system application error).
    pub error_rate: f64,
    /// Maximum observed makespan.
    pub max_makespan: f64,
}

/// Monte-Carlo replay of a mapped application.
///
/// Each iteration samples every task's execution time and error outcome
/// from its per-task simulator and replays the mapping's list schedule
/// with those *sampled* durations (same PE bindings and priority order).
/// The empirical error rate validates the series-system application error
/// probability; the empirical mean makespan is an upper validation bound
/// for the analytical average makespan (which schedules with per-task
/// *means* — Jensen's inequality on the schedule's `max`/`+` recursion
/// makes the sampled mean at least as large).
///
/// # Examples
///
/// See the workspace integration test `tests/simulation_validation.rs`.
#[derive(Debug)]
pub struct AppSimulator<'a> {
    graph: &'a TaskGraph,
    platform: &'a Platform,
    mapping: &'a Mapping,
    simulators: Vec<TaskSimulator>,
}

impl<'a> AppSimulator<'a> {
    /// Creates an application simulator from per-task chain parameters
    /// (indexed by task id).
    ///
    /// # Panics
    ///
    /// Panics if `task_params.len()` differs from the graph's task count.
    pub fn new(
        graph: &'a TaskGraph,
        platform: &'a Platform,
        mapping: &'a Mapping,
        task_params: Vec<ClrChainParams>,
    ) -> Self {
        assert_eq!(
            task_params.len(),
            graph.task_count(),
            "one parameter set per task is required"
        );
        AppSimulator {
            graph,
            platform,
            mapping,
            simulators: task_params.into_iter().map(TaskSimulator::new).collect(),
        }
    }

    /// Simulates one application iteration; returns `(makespan, any_error)`.
    fn simulate_once(&self, rng: &mut StdRng) -> (f64, bool) {
        let n = self.graph.task_count();
        // Sample every task first.
        let mut times = vec![0.0f64; n];
        let mut any_error = false;
        for (t, slot) in times.iter_mut().enumerate() {
            let (time, err) = self.simulators[t].simulate_once(rng);
            *slot = time;
            any_error |= err;
        }
        // Replay the list schedule with the sampled durations.
        let mut priority_rank = vec![0usize; n];
        for (rank, &t) in self.mapping.priority().iter().enumerate() {
            priority_rank[t.index()] = rank;
        }
        let mut pe_free = vec![0.0f64; self.platform.pe_count()];
        let mut finish = vec![f64::NAN; n];
        let mut remaining: Vec<usize> = (0..n)
            .map(|t| self.graph.predecessors(TaskId::new(t as u32)).len())
            .collect();
        let mut ready: Vec<usize> = (0..n).filter(|&t| remaining[t] == 0).collect();
        let mut makespan = 0.0f64;
        let mut scheduled = 0usize;
        while scheduled < n {
            let (pos, &t) = ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| priority_rank[t])
                .expect("DAG always has a ready task");
            ready.swap_remove(pos);
            let tid = TaskId::new(t as u32);
            let pe = self.mapping.pe_of(tid);
            let preds_done = self
                .graph
                .predecessor_edges(tid)
                .iter()
                .map(|&(p, volume)| {
                    let end = finish[p.index()];
                    match self.platform.interconnect() {
                        Some(noc) if self.mapping.pe_of(p) != pe => end + noc.transfer_time(volume),
                        _ => end,
                    }
                })
                .fold(0.0f64, f64::max);
            let start = pe_free[pe.index()].max(preds_done);
            let end = start + times[t];
            pe_free[pe.index()] = end;
            finish[t] = end;
            makespan = makespan.max(end);
            scheduled += 1;
            for &s in self.graph.successors(tid) {
                remaining[s.index()] -= 1;
                if remaining[s.index()] == 0 {
                    ready.push(s.index());
                }
            }
        }
        (makespan, any_error)
    }

    /// Simulates `iterations` application runs with a seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `iterations == 0`.
    pub fn run(&self, iterations: usize, seed: u64) -> AppSimResult {
        assert!(iterations > 0, "at least one iteration is required");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0A55_5117);
        let mut sum = 0.0f64;
        let mut errors = 0usize;
        let mut max_makespan = 0.0f64;
        for _ in 0..iterations {
            let (m, e) = self.simulate_once(&mut rng);
            sum += m;
            errors += usize::from(e);
            max_makespan = max_makespan.max(m);
        }
        AppSimResult {
            iterations,
            mean_makespan: sum / iterations as f64,
            error_rate: errors as f64 / iterations as f64,
            max_makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre_markov::clr::{analyze_spec, ClrChainSpec};
    use clre_model::platform::paper_platform;
    use clre_model::qos::TaskMetrics;
    use clre_model::{BaseImpl, PeId, PeTypeId, TaskType};
    use clre_sched::QosEvaluator;

    fn chain_graph(n: u32) -> TaskGraph {
        let ty = TaskType::new("f").with_impl(BaseImpl::new("i", PeTypeId::new(0), 1e5, 1e-9));
        let mut b = TaskGraph::builder("c", 1.0e-2).task_type(ty);
        for i in 0..n {
            b = b.task(&format!("t{i}"), "f").unwrap();
        }
        for i in 1..n {
            b = b.edge(i - 1, i);
        }
        b.build().unwrap()
    }

    fn params() -> ClrChainParams {
        ClrChainParams {
            m_hw: 0.5,
            cov_det: 0.9,
            m_tol: 0.95,
            t_det: 5.0e-6,
            t_tol: 2.0e-6,
            ..ClrChainParams::unprotected(2.0e-4, 400.0)
        }
    }

    fn mapping_for(graph: &TaskGraph) -> Mapping {
        let analytic = analyze_spec(&ClrChainSpec::transient(params())).unwrap();
        let metrics = TaskMetrics {
            min_exec_time: analytic.min_exec_time,
            avg_exec_time: analytic.avg_exec_time,
            error_prob: analytic.error_prob,
            eta: 3.0e8,
            power: 1.0,
            energy: analytic.avg_exec_time,
            peak_temp: 330.0,
        };
        Mapping::uniform(graph, PeId::new(0), metrics)
    }

    #[test]
    fn app_error_matches_series_product() {
        let g = chain_graph(8);
        let p = paper_platform();
        let m = mapping_for(&g);
        let sim = AppSimulator::new(&g, &p, &m, vec![params(); 8]);
        let empirical = sim.run(30_000, 3);
        let analytic = QosEvaluator::new(&p).evaluate(&g, &m).unwrap();
        let sigma = (analytic.error_prob * (1.0 - analytic.error_prob) / 30_000.0).sqrt();
        assert!(
            (empirical.error_rate - analytic.error_prob).abs() < 4.0 * sigma + 1e-3,
            "empirical {} vs analytic {}",
            empirical.error_rate,
            analytic.error_prob
        );
    }

    #[test]
    fn serial_chain_mean_makespan_matches_analytic() {
        // A serial chain's makespan is a plain sum, so Jensen's gap is
        // zero and the empirical mean must match the analytical value.
        let g = chain_graph(5);
        let p = paper_platform();
        let m = mapping_for(&g);
        let sim = AppSimulator::new(&g, &p, &m, vec![params(); 5]);
        let empirical = sim.run(30_000, 5);
        let analytic = QosEvaluator::new(&p).evaluate(&g, &m).unwrap();
        assert!(
            (empirical.mean_makespan / analytic.makespan - 1.0).abs() < 0.02,
            "empirical {} vs analytic {}",
            empirical.mean_makespan,
            analytic.makespan
        );
        assert!(empirical.max_makespan >= empirical.mean_makespan);
    }

    #[test]
    fn parallel_join_mean_makespan_at_least_analytic() {
        // max(·) of random completion times: Jensen ⇒ E[max] ≥ max(E).
        let ty = TaskType::new("f").with_impl(BaseImpl::new("i", PeTypeId::new(0), 1e5, 1e-9));
        let g = TaskGraph::builder("join", 1.0e-2)
            .task_type(ty)
            .task("a", "f")
            .unwrap()
            .task("b", "f")
            .unwrap()
            .task("c", "f")
            .unwrap()
            .edge(0, 2)
            .edge(1, 2)
            .build()
            .unwrap();
        let p = paper_platform();
        let analytic_task = analyze_spec(&ClrChainSpec::transient(params())).unwrap();
        let metrics = TaskMetrics {
            min_exec_time: analytic_task.min_exec_time,
            avg_exec_time: analytic_task.avg_exec_time,
            error_prob: analytic_task.error_prob,
            eta: 3.0e8,
            power: 1.0,
            energy: 1.0e-4,
            peak_temp: 330.0,
        };
        let m = Mapping::new(
            vec![PeId::new(0), PeId::new(1), PeId::new(0)],
            vec![metrics; 3],
            (0..3).map(TaskId::new).collect(),
        );
        let sim = AppSimulator::new(&g, &p, &m, vec![params(); 3]);
        let empirical = sim.run(20_000, 9);
        let analytic = QosEvaluator::new(&p).evaluate(&g, &m).unwrap();
        assert!(
            empirical.mean_makespan >= analytic.makespan * 0.999,
            "Jensen violated: {} < {}",
            empirical.mean_makespan,
            analytic.makespan
        );
    }

    #[test]
    #[should_panic(expected = "one parameter set per task")]
    fn parameter_count_must_match() {
        let g = chain_graph(3);
        let p = paper_platform();
        let m = mapping_for(&g);
        let _ = AppSimulator::new(&g, &p, &m, vec![params(); 2]);
    }
}
