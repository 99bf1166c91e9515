use clre_markov::ClrChainParams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Aggregate statistics of a Monte-Carlo task simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Number of simulated executions.
    pub runs: usize,
    /// Empirical mean execution time in seconds.
    pub mean_time: f64,
    /// Sample standard deviation of the execution time.
    pub time_std: f64,
    /// Fraction of executions that produced an erroneous result.
    pub error_rate: f64,
    /// Maximum observed execution time (tail behaviour the analytical
    /// mean hides).
    pub max_time: f64,
}

/// Monte-Carlo executor of a single task under one CLR configuration.
///
/// Walks exactly the per-interval semantics of the paper's Fig. 3 chains
/// (see the [crate docs](crate)); statistics converge to the analytical
/// predictions of [`clre_markov::clr::analyze_spec`] for the transient
/// spec of the same parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSimulator {
    params: ClrChainParams,
    /// Safety valve: a single execution aborts (counted as an error)
    /// after this many tolerance roll-backs, so degenerate
    /// perfect-retry configurations cannot hang the simulator.
    max_rollbacks: usize,
}

impl TaskSimulator {
    /// Creates a simulator for the given chain parameters.
    pub fn new(params: ClrChainParams) -> Self {
        TaskSimulator {
            params,
            max_rollbacks: 1_000_000,
        }
    }

    /// Sets the per-execution roll-back budget (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`.
    #[must_use]
    pub fn with_max_rollbacks(mut self, max: usize) -> Self {
        assert!(max > 0, "roll-back budget must be positive");
        self.max_rollbacks = max;
        self
    }

    /// The simulated parameters.
    pub fn params(&self) -> &ClrChainParams {
        &self.params
    }

    /// Simulates one execution; returns `(time, erroneous)`.
    pub fn simulate_once(&self, rng: &mut StdRng) -> (f64, bool) {
        let p = &self.params;
        let k = p.intervals.max(1) as usize;
        let t_interval = p.exec_time / k as f64;
        let p_err = 1.0 - (-p.seu_rate * t_interval).exp();

        let mut time = 0.0;
        let mut erroneous = false;
        let mut rollbacks = 0usize;
        let mut interval = 0usize;
        while interval < k {
            // Useful execution plus always-on detection.
            time += t_interval + p.t_det;
            if rng.gen_bool(p_err) {
                // An SEU struck; walk the masking ladder.
                if rng.gen_bool(p.m_hw) {
                    // Masked in hardware.
                } else if rng.gen_bool(p.m_impl_ssw) {
                    // Implicitly masked by the system software.
                } else if rng.gen_bool(p.cov_det) {
                    // Detected; attempt tolerance (roll back this ICI).
                    time += p.t_tol;
                    if rng.gen_bool(p.m_tol) {
                        rollbacks += 1;
                        if rollbacks > self.max_rollbacks {
                            return (time, true);
                        }
                        continue; // re-execute the current interval
                    }
                    erroneous = true; // tolerance failed: error escapes
                } else if rng.gen_bool(p.m_asw) {
                    // Undetected but masked by information redundancy.
                } else {
                    erroneous = true; // escaped every layer
                }
            }
            // Interval completed (cleanly or with an escaped error —
            // timing-wise execution continues either way, as in the
            // timing chain of Fig. 3(a)).
            if interval + 1 < k {
                time += p.t_chk;
                if rng.gen_bool(p.p_chk_err) {
                    erroneous = true; // corrupted checkpoint
                }
            }
            interval += 1;
        }
        (time, erroneous)
    }

    /// Simulates `runs` executions with a seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `runs == 0`.
    pub fn run(&self, runs: usize, seed: u64) -> SimResult {
        assert!(runs > 0, "at least one run is required");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_1E57);
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut errors = 0usize;
        let mut max_time = 0.0f64;
        for _ in 0..runs {
            let (t, e) = self.simulate_once(&mut rng);
            sum += t;
            sum_sq += t * t;
            errors += usize::from(e);
            max_time = max_time.max(t);
        }
        let mean = sum / runs as f64;
        let var = (sum_sq / runs as f64 - mean * mean).max(0.0);
        SimResult {
            runs,
            mean_time: mean,
            time_std: var.sqrt(),
            error_rate: errors as f64 / runs as f64,
            max_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clre_markov::clr::{analyze_spec, ClrChainSpec};

    const RUNS: usize = 60_000;

    fn assert_agrees(params: ClrChainParams, label: &str) {
        let analytic = analyze_spec(&ClrChainSpec::transient(params)).expect("analyzable");
        let sim = TaskSimulator::new(params).run(RUNS, 42);
        // Binomial 4σ band for the error rate.
        let sigma = (analytic.error_prob * (1.0 - analytic.error_prob) / RUNS as f64)
            .sqrt()
            .max(1e-4);
        assert!(
            (sim.error_rate - analytic.error_prob).abs() < 4.0 * sigma + 1e-4,
            "{label}: error {} vs analytic {}",
            sim.error_rate,
            analytic.error_prob
        );
        // Mean time within 2% (t-statistics would be tighter; 2% is
        // robust against the heavy retry tail).
        assert!(
            (sim.mean_time / analytic.avg_exec_time - 1.0).abs() < 0.02,
            "{label}: time {} vs analytic {}",
            sim.mean_time,
            analytic.avg_exec_time
        );
    }

    #[test]
    fn unprotected_agrees() {
        assert_agrees(ClrChainParams::unprotected(300.0e-6, 300.0), "unprotected");
    }

    #[test]
    fn hw_and_asw_masking_agree() {
        assert_agrees(
            ClrChainParams {
                m_hw: 0.7,
                m_impl_ssw: 0.1,
                m_asw: 0.55,
                ..ClrChainParams::unprotected(300.0e-6, 500.0)
            },
            "masking",
        );
    }

    #[test]
    fn retry_agrees() {
        assert_agrees(
            ClrChainParams {
                cov_det: 0.9,
                m_tol: 0.97,
                t_det: 15.0e-6,
                t_tol: 6.0e-6,
                ..ClrChainParams::unprotected(300.0e-6, 800.0)
            },
            "retry",
        );
    }

    #[test]
    fn checkpointing_agrees() {
        assert_agrees(
            ClrChainParams {
                m_hw: 0.5,
                cov_det: 0.95,
                m_tol: 0.98,
                m_asw: 0.78,
                intervals: 3,
                t_det: 6.0e-6,
                t_tol: 3.0e-6,
                t_chk: 4.0e-6,
                p_chk_err: 1.0e-3,
                ..ClrChainParams::unprotected(300.0e-6, 1000.0)
            },
            "checkpointing",
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let p = ClrChainParams {
            cov_det: 0.9,
            m_tol: 0.9,
            ..ClrChainParams::unprotected(1.0e-4, 400.0)
        };
        let a = TaskSimulator::new(p).run(1000, 5);
        let b = TaskSimulator::new(p).run(1000, 5);
        let c = TaskSimulator::new(p).run(1000, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn max_time_at_least_mean() {
        let p = ClrChainParams {
            cov_det: 0.95,
            m_tol: 0.95,
            ..ClrChainParams::unprotected(1.0e-4, 2000.0)
        };
        let r = TaskSimulator::new(p).run(5000, 1);
        assert!(r.max_time >= r.mean_time);
        assert!(r.time_std > 0.0);
    }

    #[test]
    fn rollback_budget_terminates_degenerate_configs() {
        // Perfect detection and tolerance at an absurd fault rate would
        // retry forever; the budget turns that into a (counted) error.
        let p = ClrChainParams {
            cov_det: 1.0,
            m_tol: 1.0,
            ..ClrChainParams::unprotected(1.0, 1.0e9)
        };
        let r = TaskSimulator::new(p).with_max_rollbacks(10).run(50, 1);
        assert_eq!(r.error_rate, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_panics() {
        TaskSimulator::new(ClrChainParams::unprotected(1e-4, 1.0)).run(0, 1);
    }
}
