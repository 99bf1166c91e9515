//! Quality-of-Service metric types: the task-level tuple of Table II, the
//! system-level tuple of Table III, objective sets for the DSE stages
//! (Table IV) and constraint specifications (Equation 5).
//!
//! All objective vectors returned by this module are **minimization**
//! vectors: quantities that should be maximized (functional reliability,
//! lifetime MTTF) are negated so that downstream Pareto filtering and
//! hypervolume computation can treat every axis uniformly.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Task-level performance metrics of one `(implementation, DVFS mode, CLR
/// configuration)` point (Table II).
///
/// Produced by the task-level analysis (`clre::tdse`); consumed by the
/// system-level QoS estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskMetrics {
    /// Fault-free (minimum) execution time in seconds (`MinExT`).
    pub min_exec_time: f64,
    /// Average execution time in seconds including mitigation overheads and
    /// expected recovery loops (`AvgExT`, from the timing Markov chain).
    pub avg_exec_time: f64,
    /// Probability that the task's result is erroneous despite the CLR
    /// configuration (`ErrProb`, from the functional Markov chain).
    pub error_prob: f64,
    /// Weibull scale parameter `η` in seconds (stress indicator from the
    /// thermal profile).
    pub eta: f64,
    /// Average power in watts during execution (`W`).
    pub power: f64,
    /// Energy per execution in joules (`AvgExT × W`).
    pub energy: f64,
    /// Steady-state peak temperature in kelvin during execution.
    pub peak_temp: f64,
}

impl TaskMetrics {
    /// Per-execution MTTF contribution `η · Γ(1 + 1/β)` for a PE with
    /// Weibull shape `beta`, given a precomputed `Γ(1 + 1/β)`.
    pub fn mttf_with_gamma(&self, gamma_term: f64) -> f64 {
        self.eta * gamma_term
    }

    /// The objective vector (all-minimization) for a task-level
    /// [`ObjectiveSet`].
    ///
    /// # Examples
    ///
    /// ```
    /// use clre_model::qos::{ObjectiveSet, TaskMetrics};
    ///
    /// let m = TaskMetrics {
    ///     min_exec_time: 1e-4, avg_exec_time: 1.2e-4, error_prob: 0.01,
    ///     eta: 3.0e8, power: 0.5, energy: 6e-5, peak_temp: 330.0,
    /// };
    /// let v = m.objective_vector(&ObjectiveSet::set_ii());
    /// assert_eq!(v, vec![1.2e-4, 0.01]);
    /// ```
    pub fn objective_vector(&self, set: &ObjectiveSet) -> Vec<f64> {
        set.objectives()
            .iter()
            .map(|&o| self.objective(o))
            .collect()
    }

    /// The value of one task-level objective (all-minimization), as in
    /// [`TaskMetrics::objective_vector`].
    pub fn objective(&self, objective: Objective) -> f64 {
        match objective {
            Objective::AvgExecTime => self.avg_exec_time,
            Objective::ErrorProbability => self.error_prob,
            Objective::Mttf => -self.eta, // maximize η ⇒ minimize −η
            Objective::Energy => self.energy,
            Objective::PeakPower => self.power,
            Objective::PeakTemperature => self.peak_temp,
            Objective::MinExecTime => self.min_exec_time,
            Objective::Makespan => self.avg_exec_time,
        }
    }
}

/// System-level QoS metrics of one full mapping configuration (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemMetrics {
    /// Average application makespan `S_app` in seconds.
    pub makespan: f64,
    /// Application error probability `1 − F_app` (criticality-weighted).
    pub error_prob: f64,
    /// System lifetime `L_app = MTTF_sys` in seconds.
    pub mttf: f64,
    /// Energy per application iteration `J_app` in joules.
    pub energy: f64,
    /// Peak power dissipation `W_app` in watts.
    pub peak_power: f64,
}

impl SystemMetrics {
    /// The objective vector (all-minimization) for a system-level
    /// [`ObjectiveSet`].
    pub fn objective_vector(&self, set: &ObjectiveSet) -> Vec<f64> {
        set.objectives()
            .iter()
            .map(|o| match o {
                Objective::Makespan | Objective::AvgExecTime => self.makespan,
                Objective::ErrorProbability => self.error_prob,
                Objective::Mttf => -self.mttf,
                Objective::Energy => self.energy,
                Objective::PeakPower => self.peak_power,
                Objective::PeakTemperature => self.peak_power, // no system temp model
                Objective::MinExecTime => self.makespan,
            })
            .collect()
    }
}

/// A single optimization objective. All objectives are minimized; see the
/// [module docs](self) for the sign convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Objective {
    /// Task-level average execution time.
    AvgExecTime,
    /// Error probability (task- or application-level).
    ErrorProbability,
    /// Lifetime (negated MTTF / Weibull scale).
    Mttf,
    /// Energy.
    Energy,
    /// Peak power dissipation.
    PeakPower,
    /// Peak steady-state temperature (task-level only).
    PeakTemperature,
    /// Fault-free (minimum) execution time `MinExT` (task-level; Table
    /// II). Independent of the average time because recovery dynamics and
    /// static overheads diverge.
    MinExecTime,
    /// Application average makespan (system-level).
    Makespan,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Objective::AvgExecTime => "avg-exec-time",
            Objective::ErrorProbability => "error-prob",
            Objective::Mttf => "mttf",
            Objective::Energy => "energy",
            Objective::PeakPower => "peak-power",
            Objective::PeakTemperature => "peak-temp",
            Objective::MinExecTime => "min-exec-time",
            Objective::Makespan => "makespan",
        };
        f.write_str(s)
    }
}

/// An ordered set of objectives.
///
/// The constructors `set_i()` … `set_vi()` reproduce the cumulative
/// objective sets of the paper's Table IV.
///
/// # Examples
///
/// ```
/// use clre_model::qos::ObjectiveSet;
///
/// assert_eq!(ObjectiveSet::set_i().len(), 1);
/// assert_eq!(ObjectiveSet::set_vi().len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectiveSet {
    objectives: Vec<Objective>,
}

impl ObjectiveSet {
    /// Creates a set from an explicit objective list.
    ///
    /// # Panics
    ///
    /// Panics if `objectives` is empty.
    pub fn new(objectives: Vec<Objective>) -> Self {
        assert!(!objectives.is_empty(), "objective set must be non-empty");
        ObjectiveSet { objectives }
    }

    /// Table IV set I: average execution time only.
    pub fn set_i() -> Self {
        Self::new(vec![Objective::AvgExecTime])
    }

    /// Table IV set II: I + error probability.
    pub fn set_ii() -> Self {
        Self::new(vec![Objective::AvgExecTime, Objective::ErrorProbability])
    }

    /// Table IV set III: II + MTTF.
    pub fn set_iii() -> Self {
        let mut s = Self::set_ii();
        s.objectives.push(Objective::Mttf);
        s
    }

    /// Table IV set IV: III + energy.
    pub fn set_iv() -> Self {
        let mut s = Self::set_iii();
        s.objectives.push(Objective::Energy);
        s
    }

    /// Table IV set V: IV + peak power dissipation.
    pub fn set_v() -> Self {
        let mut s = Self::set_iv();
        s.objectives.push(Objective::PeakPower);
        s
    }

    /// Table IV set VI: V + peak temperature.
    pub fn set_vi() -> Self {
        let mut s = Self::set_v();
        s.objectives.push(Objective::PeakTemperature);
        s
    }

    /// Appends an objective (builder style).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objectives.push(objective);
        self
    }

    /// The system-level bi-objective set used in the paper's Figs. 7–10:
    /// average makespan and application error probability.
    pub fn system_bi() -> Self {
        Self::new(vec![Objective::Makespan, Objective::ErrorProbability])
    }

    /// The lifetime-aware system-level set: [`ObjectiveSet::system_bi`]
    /// plus (negated) system MTTF, for campaigns where permanent/aging
    /// faults are a first-class design axis.
    pub fn system_lifetime() -> Self {
        Self::new(vec![
            Objective::Makespan,
            Objective::ErrorProbability,
            Objective::Mttf,
        ])
    }

    /// The objectives in order.
    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    /// Number of objectives.
    pub fn len(&self) -> usize {
        self.objectives.len()
    }

    /// Always `false`; sets are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty()
    }
}

impl fmt::Display for ObjectiveSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, o) in self.objectives.iter().enumerate() {
            if i > 0 {
                write!(f, "+")?;
            }
            write!(f, "{o}")?;
        }
        Ok(())
    }
}

/// Application-specific QoS constraints (the `SPEC` terms of Equation 5).
///
/// All bounds are optional; an unset bound never rejects a design point.
///
/// # Examples
///
/// ```
/// use clre_model::qos::{QosSpec, SystemMetrics};
///
/// let spec = QosSpec::new().with_max_makespan(1.0e-3).with_min_reliability(0.95);
/// let good = SystemMetrics {
///     makespan: 0.5e-3, error_prob: 0.01, mttf: 1e8, energy: 1.0, peak_power: 2.0,
/// };
/// assert!(spec.is_feasible(&good));
/// let slow = SystemMetrics { makespan: 2.0e-3, ..good };
/// assert!(!spec.is_feasible(&slow));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct QosSpec {
    max_makespan: Option<f64>,
    min_reliability: Option<f64>,
    min_mttf: Option<f64>,
    max_energy: Option<f64>,
    max_peak_power: Option<f64>,
}

impl QosSpec {
    /// Creates an unconstrained specification.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the maximum average makespan `S_SPEC` (seconds).
    #[must_use]
    pub fn with_max_makespan(mut self, s: f64) -> Self {
        self.max_makespan = Some(s);
        self
    }

    /// Sets the minimum functional reliability `F_SPEC` (probability).
    #[must_use]
    pub fn with_min_reliability(mut self, f: f64) -> Self {
        self.min_reliability = Some(f);
        self
    }

    /// Sets the minimum lifetime `L_SPEC` (seconds of MTTF).
    #[must_use]
    pub fn with_min_mttf(mut self, l: f64) -> Self {
        self.min_mttf = Some(l);
        self
    }

    /// Sets the maximum energy per iteration `J_SPEC` (joules).
    #[must_use]
    pub fn with_max_energy(mut self, j: f64) -> Self {
        self.max_energy = Some(j);
        self
    }

    /// Sets the maximum peak power `W_SPEC` (watts).
    #[must_use]
    pub fn with_max_peak_power(mut self, w: f64) -> Self {
        self.max_peak_power = Some(w);
        self
    }

    /// The five bounds in declaration order: max makespan, min
    /// reliability, min MTTF, max energy, max peak power (`None` = unset).
    ///
    /// Exposes the spec's content for identity purposes — e.g. the
    /// evaluation cache digests these bounds so specs with different
    /// constraints never share cached fitness values.
    pub fn bounds(&self) -> [Option<f64>; 5] {
        [
            self.max_makespan,
            self.min_reliability,
            self.min_mttf,
            self.max_energy,
            self.max_peak_power,
        ]
    }

    /// Returns `true` when `m` satisfies every set bound.
    pub fn is_feasible(&self, m: &SystemMetrics) -> bool {
        self.violation(m) == 0.0
    }

    /// Total normalized constraint violation; `0.0` means feasible. Used as
    /// a penalty by constrained optimization.
    pub fn violation(&self, m: &SystemMetrics) -> f64 {
        let mut v = 0.0;
        if let Some(s) = self.max_makespan {
            if m.makespan > s {
                v += (m.makespan - s) / s;
            }
        }
        if let Some(fr) = self.min_reliability {
            let rel = 1.0 - m.error_prob;
            if rel < fr {
                v += (fr - rel) / fr;
            }
        }
        if let Some(l) = self.min_mttf {
            if m.mttf < l {
                v += (l - m.mttf) / l;
            }
        }
        if let Some(j) = self.max_energy {
            if m.energy > j {
                v += (m.energy - j) / j;
            }
        }
        if let Some(w) = self.max_peak_power {
            if m.peak_power > w {
                v += (m.peak_power - w) / w;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> SystemMetrics {
        SystemMetrics {
            makespan: 1.0e-3,
            error_prob: 0.05,
            mttf: 3.0e7,
            energy: 0.5,
            peak_power: 2.0,
        }
    }

    #[test]
    fn table_iv_sets_are_cumulative() {
        let sets = [
            ObjectiveSet::set_i(),
            ObjectiveSet::set_ii(),
            ObjectiveSet::set_iii(),
            ObjectiveSet::set_iv(),
            ObjectiveSet::set_v(),
            ObjectiveSet::set_vi(),
        ];
        for (i, s) in sets.iter().enumerate() {
            assert_eq!(s.len(), i + 1);
            assert!(!s.is_empty());
        }
        for w in sets.windows(2) {
            assert_eq!(&w[1].objectives()[..w[0].len()], w[0].objectives());
        }
    }

    #[test]
    fn mttf_objective_is_negated() {
        let m = TaskMetrics {
            min_exec_time: 1.0,
            avg_exec_time: 2.0,
            error_prob: 0.1,
            eta: 100.0,
            power: 1.0,
            energy: 2.0,
            peak_temp: 300.0,
        };
        let v = m.objective_vector(&ObjectiveSet::set_iii());
        assert_eq!(v, vec![2.0, 0.1, -100.0]);
        assert_eq!(m.mttf_with_gamma(0.9), 90.0);
    }

    #[test]
    fn system_vector_matches_set() {
        let v = metrics().objective_vector(&ObjectiveSet::system_bi());
        assert_eq!(v, vec![1.0e-3, 0.05]);
    }

    #[test]
    fn qos_spec_each_bound() {
        let m = metrics();
        assert!(QosSpec::new().is_feasible(&m));
        assert!(!QosSpec::new().with_max_makespan(0.5e-3).is_feasible(&m));
        assert!(!QosSpec::new().with_min_reliability(0.99).is_feasible(&m));
        assert!(!QosSpec::new().with_min_mttf(1e9).is_feasible(&m));
        assert!(!QosSpec::new().with_max_energy(0.1).is_feasible(&m));
        assert!(!QosSpec::new().with_max_peak_power(1.0).is_feasible(&m));
    }

    #[test]
    fn violation_scales_with_distance() {
        let spec = QosSpec::new().with_max_makespan(1.0e-3);
        let near = SystemMetrics {
            makespan: 1.1e-3,
            ..metrics()
        };
        let far = SystemMetrics {
            makespan: 2.0e-3,
            ..metrics()
        };
        assert!(spec.violation(&near) < spec.violation(&far));
        assert_eq!(spec.violation(&metrics()), 0.0);
    }

    #[test]
    fn objective_display() {
        assert_eq!(
            ObjectiveSet::set_ii().to_string(),
            "avg-exec-time+error-prob"
        );
        assert_eq!(Objective::Makespan.to_string(), "makespan");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_set_panics() {
        ObjectiveSet::new(vec![]);
    }
}
