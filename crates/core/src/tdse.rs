//! Task-level design space exploration (Section IV + Table IV).
//!
//! For every task type, [`build_library`] enumerates the Cartesian product
//! of base implementations × DVFS modes × CLR configurations, estimates
//! each point's Table II metrics — timing and functional reliability
//! through the Markov chains of `clre-markov`, power/thermal/aging through
//! `clre-profile` — and Pareto-filters the result within each PE-type
//! group.
//!
//! The exploration axes are controlled by [`TdseConfig`]: the CLR catalog
//! (full cross-layer vs a single layer, for the Agnostic baseline), the
//! DVFS policy, the Pareto objective set (Table IV's sets I–VI) and an
//! optional implicit-masking override (Fig. 6(b)).

use std::sync::Arc;

use clre_exec::ExecPool;
use clre_markov::clr::{
    analyze_robust_chaos_spec, analyze_robust_spec, ClrChainParams, ClrChainSpec, RobustAnalysis,
    SolverFaultPlan,
};
use clre_markov::MarkovError;
use clre_model::platform::PeKind;
use clre_model::qos::{ObjectiveSet, TaskMetrics};
use clre_model::reliability::ClrConfig;
use clre_model::{BaseImpl, DvfsMode, DvfsModeId, ImplId, PeType, Platform, TaskGraph, TaskTypeId};
use clre_profile::{OperatingPoint, ProfileModel};

use crate::cache::EvalCache;
use crate::library::{CandidateImpl, ImplLibrary};
use crate::DseError;

/// Which DVFS modes task-level DSE explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DvfsPolicy {
    /// Explore every mode of each PE type.
    #[default]
    All,
    /// Only the first (nominal) mode — used by the HW/SSW/ASW-only
    /// baselines so DVFS is not a degree of freedom.
    NominalOnly,
}

/// Which fault mechanism task-level DSE folds into the Markov chains.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReliabilityModel {
    /// Transient SEUs only — the single-mechanism model of the original
    /// pipeline. Chain specs carry
    /// [`clre_markov::clr::FaultMechanism::Transient`], whose digest
    /// equals the raw parameter digest, so every chaos-plan decision and
    /// Pareto front is bit-identical to the pre-spec code.
    #[default]
    Transient,
    /// Transient SEUs compete with permanent/aging faults: each
    /// candidate folds its PE type's Weibull hazard
    /// `h(t) = (β/η)·(t/η)^(β−1)` into the chain as a competing
    /// per-second failure rate, with shape `β` from
    /// [`PeType::weibull_beta`] and scale `η` evaluated at the
    /// candidate's *protected* steady-state temperature — TMR heats the
    /// PE, so it also raises the permanent hazard it must then mask.
    ///
    /// Under the default [`ProfileModel`] (η ≈ 10 years) the hazard is
    /// a small correction to per-execution error probability and the
    /// lifetime signal mostly flows through the `Mttf` objective;
    /// accelerated-aging profiles (small `aging_a`) make the permanent
    /// arm dominate, which the tests exploit.
    PermanentAging {
        /// Mission time `t` (seconds) at which the hazard is evaluated.
        mission_time: f64,
    },
}

/// Configuration of one task-level DSE run.
#[derive(Debug, Clone, PartialEq)]
pub struct TdseConfig {
    /// The CLR configurations to explore per candidate.
    pub clr_catalog: Vec<ClrConfig>,
    /// Which DVFS modes to explore.
    pub dvfs_policy: DvfsPolicy,
    /// Objective set for the per-group Pareto filter.
    pub objectives: ObjectiveSet,
    /// If set, overrides every implementation's implicit SSW masking
    /// (the Fig. 6(b) sweep).
    pub implicit_masking_override: Option<f64>,
    /// The characterization substrate.
    pub profile: ProfileModel,
    /// Optional deterministic solver-fault plan (chaos testing): analyses
    /// whose content digest the plan selects have their primary LU solve
    /// (and optionally the scaled retry) fail with an injected singular
    /// pivot, exercising the recovery ladder of
    /// [`analyze_robust_spec`].
    pub solver_faults: Option<SolverFaultPlan>,
    /// Which fault mechanism every candidate's Markov chains model.
    pub reliability_model: ReliabilityModel,
}

impl Default for TdseConfig {
    fn default() -> Self {
        TdseConfig {
            clr_catalog: ClrConfig::catalog(),
            dvfs_policy: DvfsPolicy::All,
            objectives: ObjectiveSet::set_ii(),
            implicit_masking_override: None,
            profile: ProfileModel::default(),
            solver_faults: None,
            reliability_model: ReliabilityModel::Transient,
        }
    }
}

impl TdseConfig {
    /// Full cross-layer exploration with Table IV objective set II
    /// (average execution time + error probability).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the CLR catalog (builder style).
    ///
    /// # Errors
    ///
    /// Returns [`DseError::InvalidConfig`] if `catalog` is empty — an
    /// empty catalog would make every task type unmappable.
    ///
    /// # Examples
    ///
    /// ```
    /// use clre::tdse::TdseConfig;
    /// use clre_model::reliability::ClrConfig;
    ///
    /// let cfg = TdseConfig::new().with_clr_catalog(vec![ClrConfig::unprotected()])?;
    /// assert_eq!(cfg.clr_catalog.len(), 1);
    /// assert!(TdseConfig::new().with_clr_catalog(vec![]).is_err());
    /// # Ok::<(), clre::DseError>(())
    /// ```
    pub fn with_clr_catalog(mut self, catalog: Vec<ClrConfig>) -> Result<Self, DseError> {
        if catalog.is_empty() {
            return Err(DseError::InvalidConfig {
                what: "CLR catalog must be non-empty",
            });
        }
        self.clr_catalog = catalog;
        Ok(self)
    }

    /// Returns the config unchanged. Kept for perfbench; deleted at the next benchmark change.
    #[must_use]
    pub fn with_eval_cache(self, _cache: Arc<EvalCache>) -> Self {
        self
    }

    /// Sets the DVFS policy (builder style).
    #[must_use]
    pub fn with_dvfs_policy(mut self, policy: DvfsPolicy) -> Self {
        self.dvfs_policy = policy;
        self
    }

    /// Sets the Pareto objective set (builder style).
    #[must_use]
    pub fn with_objectives(mut self, objectives: ObjectiveSet) -> Self {
        self.objectives = objectives;
        self
    }

    /// Overrides the implicit SSW masking of every implementation
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `m ∉ [0, 1]`.
    #[must_use]
    pub fn with_implicit_masking(mut self, m: f64) -> Self {
        assert!((0.0..=1.0).contains(&m), "masking must be within [0, 1]");
        self.implicit_masking_override = Some(m);
        self
    }

    /// Sets the profiling model (builder style).
    #[must_use]
    pub fn with_profile(mut self, profile: ProfileModel) -> Self {
        self.profile = profile;
        self
    }

    /// Attaches a deterministic solver-fault plan (builder style) — see
    /// [`TdseConfig::solver_faults`].
    #[must_use]
    pub fn with_solver_faults(mut self, plan: SolverFaultPlan) -> Self {
        self.solver_faults = Some(plan);
        self
    }

    /// Sets the fault-mechanism model (builder style) — see
    /// [`ReliabilityModel`].
    #[must_use]
    pub fn with_reliability_model(mut self, model: ReliabilityModel) -> Self {
        self.reliability_model = model;
        self
    }
}

/// Health counters from one task-level DSE sweep — how many candidate
/// analyses ran and how many had to fall back to the degraded closed-form
/// solver (see [`analyze_robust_spec`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TdseHealth {
    /// Total candidate evaluations performed.
    pub candidates_evaluated: usize,
    /// Evaluations answered by the degraded closed-form fallback.
    pub degraded_analyses: usize,
    /// Evaluations where the plain solver failed and the scaled-pivoting
    /// retry was attempted; retries that succeed keep the analysis exact
    /// (they are *not* counted in [`TdseHealth::degraded_analyses`]).
    pub solver_retries: usize,
}

impl TdseHealth {
    /// Folds another sweep's counters into this one.
    pub fn merge(&mut self, other: &TdseHealth) {
        self.candidates_evaluated += other.candidates_evaluated;
        self.degraded_analyses += other.degraded_analyses;
        self.solver_retries += other.solver_retries;
    }
}

/// Estimates the Table II metrics of one fully configured candidate under
/// `config` — the per-candidate step of the library sweep, reading the
/// same config fields: the profile, the implicit-masking override, the
/// reliability model and the solver-fault plan.
///
/// Steps:
/// 1. characterize `(cycles, capacitance)` at the DVFS mode,
/// 2. apply the HW/ASW time and power overhead factors,
/// 3. recompute temperature and Weibull `η` at the *protected* power —
///    TMR triples power, so it also heats and ages the PE faster,
/// 4. derate the raw SEU rate by the PE type's architectural masking
///    factor (`1 − AVF`),
/// 5. run the timing and functional Markov chains.
///
/// # Errors
///
/// Propagates [`DseError::Markov`] for degenerate chain parameters.
///
/// # Examples
///
/// ```
/// use clre::tdse::{evaluate_candidate, TdseConfig};
/// use clre_model::{reliability::ClrConfig, BaseImpl, DvfsMode, PeType, PeTypeId};
///
/// # fn main() -> Result<(), clre::DseError> {
/// let pe = PeType::processor("p", 2.0, 0.3)
///     .with_dvfs_mode(DvfsMode::new("n", 1.2, 900.0e6));
/// let imp = BaseImpl::new("i", PeTypeId::new(0), 3.0e5, 1.0e-9);
/// let mode = &pe.dvfs_modes()[0];
/// let m = evaluate_candidate(&imp, &pe, mode, &ClrConfig::unprotected(), &TdseConfig::new())?;
/// assert!(m.error_prob > 0.0 && m.error_prob < 0.1);
/// # Ok(())
/// # }
/// ```
pub fn evaluate_candidate(
    imp: &BaseImpl,
    pe_type: &PeType,
    mode: &DvfsMode,
    clr: &ClrConfig,
    config: &TdseConfig,
) -> Result<TaskMetrics, DseError> {
    let point = ProtectedPoint::new(imp, pe_type, mode, clr, &config.profile);
    let robust = analyze(&point.spec(config), config)?;
    Ok(point.metrics(&robust))
}

/// The mechanism-aware chain specification of a fully configured
/// candidate — the exact input [`evaluate_candidate`] analyzes, exposed
/// so that the Monte-Carlo validator (`clre-sim`) can inject faults
/// against the same semantics: the flattened chain parameters plus the
/// fault mechanism derived from `model`. Under
/// [`ReliabilityModel::Transient`] the spec's digest equals the raw
/// parameter digest, so solver-fault plans behave exactly as before the
/// mechanism axis existed. Under [`ReliabilityModel::PermanentAging`] the
/// PE type's Weibull hazard at mission time — with scale `η` at the
/// candidate's protected power, the same `η` [`evaluate_candidate`]
/// reports — is folded in as a competing permanent-fault rate.
pub fn chain_spec(
    imp: &BaseImpl,
    pe_type: &PeType,
    mode: &DvfsMode,
    clr: &ClrConfig,
    profile: &ProfileModel,
    implicit_masking_override: Option<f64>,
    model: ReliabilityModel,
) -> ClrChainSpec {
    ProtectedPoint::new(imp, pe_type, mode, clr, profile)
        .spec_with(implicit_masking_override, model)
}

/// A fully configured candidate at its operating point under its CLR
/// protection: the raw characterization at the DVFS mode, plus the
/// protected power and the steady-state temperature and Weibull `η` that
/// power implies. Computed once per candidate; the chain spec and the
/// metrics both read it.
struct ProtectedPoint<'a> {
    imp: &'a BaseImpl,
    pe_type: &'a PeType,
    clr: &'a ClrConfig,
    op: OperatingPoint,
    power: f64,
    temp: f64,
    eta: f64,
}

impl<'a> ProtectedPoint<'a> {
    fn new(
        imp: &'a BaseImpl,
        pe_type: &'a PeType,
        mode: &DvfsMode,
        clr: &'a ClrConfig,
        profile: &ProfileModel,
    ) -> Self {
        let op = profile.operating_point(imp.cycles(), imp.capacitance(), mode);
        let power = op.power * clr.hw.params().power_factor * clr.asw.params().power_factor;
        let temp = profile.steady_temp(power);
        ProtectedPoint {
            imp,
            pe_type,
            clr,
            op,
            power,
            temp,
            eta: profile.eta_at(temp),
        }
    }

    fn params(&self, implicit_masking_override: Option<f64>) -> ClrChainParams {
        let hw = self.clr.hw.params();
        let ssw = self.clr.ssw.params();
        let asw = self.clr.asw.params();
        let exec_time = self.op.exec_time * hw.time_factor * asw.time_factor;
        // Architectural masking lowers the *effective* SEU rate on this PE type.
        let seu_rate = self.op.seu_rate * (1.0 - self.pe_type.masking_factor());
        let m_impl = implicit_masking_override.unwrap_or(self.imp.implicit_ssw_masking());
        let intervals = ssw.intervals.max(1);
        ClrChainParams {
            exec_time,
            seu_rate,
            m_hw: hw.masking,
            m_impl_ssw: m_impl,
            cov_det: ssw.detection_coverage,
            m_tol: ssw.tolerance_masking,
            m_asw: asw.masking,
            intervals,
            t_det: ssw.detection_overhead * exec_time / intervals as f64,
            t_tol: ssw.tolerance_overhead * exec_time,
            t_chk: ssw.checkpoint_overhead * exec_time,
            p_chk_err: ssw.checkpoint_error_prob,
        }
    }

    /// The chain spec under `config`'s masking override and model.
    fn spec(&self, config: &TdseConfig) -> ClrChainSpec {
        self.spec_with(config.implicit_masking_override, config.reliability_model)
    }

    fn spec_with(
        &self,
        implicit_masking_override: Option<f64>,
        model: ReliabilityModel,
    ) -> ClrChainSpec {
        let params = self.params(implicit_masking_override);
        match model {
            ReliabilityModel::Transient => ClrChainSpec::transient(params),
            ReliabilityModel::PermanentAging { mission_time } => {
                let (beta, eta) = (self.pe_type.weibull_beta(), self.eta);
                let t = mission_time.max(0.0);
                let perm_rate = (beta / eta) * (t / eta).powf(beta - 1.0);
                ClrChainSpec::permanent_aging(params, perm_rate)
            }
        }
    }

    /// The Table II metrics given the candidate's chain analysis — the
    /// one metrics formula behind [`evaluate_candidate`] and the library
    /// sweep.
    fn metrics(&self, robust: &RobustAnalysis) -> TaskMetrics {
        let r = robust.reliability;
        TaskMetrics {
            min_exec_time: r.min_exec_time,
            avg_exec_time: r.avg_exec_time,
            error_prob: r.error_prob,
            eta: self.eta,
            power: self.power,
            energy: r.avg_exec_time * self.power,
            peak_temp: self.temp,
        }
    }
}

/// Solves `spec`, through `config`'s solver-fault plan when the plan
/// selects the spec's primary solve.
fn analyze(spec: &ClrChainSpec, config: &TdseConfig) -> Result<RobustAnalysis, MarkovError> {
    match &config.solver_faults {
        Some(plan) if plan.primary_fails(spec.digest()) => analyze_robust_chaos_spec(spec, plan),
        _ => analyze_robust_spec(spec),
    }
}

/// Memory footprint of an implementation under a CLR configuration:
/// spatial and information redundancy multiply the base footprint, and
/// checkpointing reserves a 25% state buffer.
///
/// # Examples
///
/// ```
/// use clre::tdse::candidate_memory;
/// use clre_model::{reliability::ClrConfig, BaseImpl, HwMethod, PeTypeId, SswMethod, AswMethod};
///
/// let imp = BaseImpl::new("i", PeTypeId::new(0), 1e5, 1e-9).with_memory_bytes(1000.0);
/// let bare = candidate_memory(&imp, &ClrConfig::unprotected());
/// let tmr = candidate_memory(
///     &imp,
///     &ClrConfig::new(HwMethod::Tmr, SswMethod::Checkpoint { intervals: 2 }, AswMethod::None),
/// );
/// assert_eq!(bare, 1000.0);
/// assert!(tmr > 3.0 * bare);
/// ```
pub fn candidate_memory(imp: &BaseImpl, clr: &ClrConfig) -> f64 {
    let hw = clr.hw.params();
    let ssw = clr.ssw.params();
    let asw = clr.asw.params();
    let checkpoint_buffer = if ssw.intervals > 1 { 1.25 } else { 1.0 };
    imp.memory_bytes() * hw.mem_factor * asw.mem_factor * checkpoint_buffer
}

/// Enumerates and evaluates all candidates of one task type.
///
/// # Errors
///
/// Propagates evaluation failures.
pub fn candidates_for_type(
    graph: &TaskGraph,
    platform: &Platform,
    ty: TaskTypeId,
    config: &TdseConfig,
) -> Result<Vec<CandidateImpl>, DseError> {
    let mut health = TdseHealth::default();
    candidates_for_type_with_health(graph, platform, ty, config, &mut health)
}

/// [`candidates_for_type`] that also accumulates degraded-analysis
/// counters into `health`.
///
/// The sweep analyzes every candidate in parallel on an
/// [`ExecPool::auto`] pool. Results are folded in (implementation, mode,
/// CLR) order, so the candidates, the counters and the first error are
/// bit-identical to a serial loop for any worker count.
///
/// # Errors
///
/// As for [`candidates_for_type`]: the first failure in sweep order.
pub fn candidates_for_type_with_health(
    graph: &TaskGraph,
    platform: &Platform,
    ty: TaskTypeId,
    config: &TdseConfig,
    health: &mut TdseHealth,
) -> Result<Vec<CandidateImpl>, DseError> {
    sweep_type(graph, platform, ty, config, health, &ExecPool::auto())
}

/// The sweep behind [`candidates_for_type_with_health`] on `pool`.
pub(crate) fn sweep_type(
    graph: &TaskGraph,
    platform: &Platform,
    ty: TaskTypeId,
    config: &TdseConfig,
    health: &mut TdseHealth,
    pool: &ExecPool,
) -> Result<Vec<CandidateImpl>, DseError> {
    let task_type = graph.task_type(ty).ok_or(DseError::InvalidConfig {
        what: "task type id out of range",
    })?;
    // Enumerate the (implementation, mode, CLR) keys in sweep order.
    let mut keys = Vec::new();
    for (impl_idx, imp) in task_type.impls().iter().enumerate() {
        let Some(pe_type) = platform.pe_type(imp.pe_type()) else {
            // Implementation targets a PE type absent from this platform:
            // simply not mappable here.
            continue;
        };
        let modes: &[DvfsMode] = match config.dvfs_policy {
            DvfsPolicy::All => pe_type.dvfs_modes(),
            // A PE type without modes contributes nothing, as under `All`.
            DvfsPolicy::NominalOnly => pe_type.dvfs_modes().get(..1).unwrap_or(&[]),
        };
        for (mode_idx, mode) in modes.iter().enumerate() {
            // Configuration-memory mitigation styles (scrubbing,
            // TMR+scrubbing) only exist on reconfigurable fabric; a
            // processor has no bitstream to scrub.
            let clrs = config.clr_catalog.iter().filter(|clr| {
                !clr.hw.requires_reconfigurable() || pe_type.kind() == PeKind::ReconfigurableRegion
            });
            for clr in clrs {
                let point = ProtectedPoint::new(imp, pe_type, mode, clr, &config.profile);
                keys.push((impl_idx, mode_idx, point));
            }
        }
    }

    // The pool returns the analyses in key order.
    let (analyses, _) =
        pool.evaluate_batch(&keys, |(.., point)| analyze(&point.spec(config), config));
    // Fold in key order: the first error is the serial loop's error.
    keys.iter()
        .zip(analyses)
        .map(|((impl_idx, mode_idx, point), robust)| {
            let robust = robust?;
            health.candidates_evaluated += 1;
            health.degraded_analyses += usize::from(robust.degraded);
            health.solver_retries += usize::from(robust.retried);
            Ok(CandidateImpl {
                impl_id: ImplId::new(*impl_idx as u32),
                pe_type: point.imp.pe_type(),
                dvfs: DvfsModeId::new(*mode_idx as u32),
                clr: *point.clr,
                metrics: point.metrics(&robust),
                memory_bytes: candidate_memory(point.imp, point.clr),
            })
        })
        .collect()
}

/// Runs task-level DSE for every task type of `graph` and assembles the
/// [`ImplLibrary`].
///
/// # Errors
///
/// * [`DseError::EmptyChoiceGroup`] if some task type ends up unmappable.
/// * Evaluation failures from [`evaluate_candidate`].
pub fn build_library(
    graph: &TaskGraph,
    platform: &Platform,
    config: &TdseConfig,
) -> Result<ImplLibrary, DseError> {
    build_library_with_health(graph, platform, config).map(|(lib, _)| lib)
}

/// [`build_library`] that also reports how many candidate analyses ran
/// and how many used the degraded closed-form fallback.
///
/// # Errors
///
/// As for [`build_library`].
pub fn build_library_with_health(
    graph: &TaskGraph,
    platform: &Platform,
    config: &TdseConfig,
) -> Result<(ImplLibrary, TdseHealth), DseError> {
    let mut health = TdseHealth::default();
    let mut all = Vec::with_capacity(graph.task_types().len());
    for ty in 0..graph.task_types().len() {
        all.push(candidates_for_type_with_health(
            graph,
            platform,
            TaskTypeId::new(ty as u32),
            config,
            &mut health,
        )?);
    }
    let lib = ImplLibrary::from_candidates(all, platform.pe_types().len(), &config.objectives)?;
    lib.validate_for(graph)?;
    Ok((lib, health))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use clre_model::platform::paper_platform;
    use clre_model::reliability::{AswMethod, HwMethod, SswMethod};
    use clre_model::TaskType;
    use clre_profile::SyntheticCharacterizer;

    fn test_graph(platform: &Platform) -> TaskGraph {
        let ch = SyntheticCharacterizer::new(5);
        let mut ty = TaskType::new("t");
        for imp in ch.impls_for_type(0, platform) {
            ty = ty.with_impl(imp);
        }
        TaskGraph::builder("g", 1.0e-2)
            .task_type(ty)
            .task("a", "t")
            .unwrap()
            .build()
            .unwrap()
    }

    /// The serial sweep this module shipped before the parallel one, kept
    /// as its oracle: the pre-parallel loop with the solver-fault switch
    /// and metrics formula inlined, so it shares no code with the sweep
    /// beyond [`chain_spec`].
    fn serial_oracle(
        graph: &TaskGraph,
        platform: &Platform,
        ty: TaskTypeId,
        config: &TdseConfig,
        health: &mut TdseHealth,
    ) -> Result<Vec<CandidateImpl>, DseError> {
        let task_type = graph.task_type(ty).expect("task type in range");
        let profile = &config.profile;
        let mut out = Vec::new();
        for (impl_idx, imp) in task_type.impls().iter().enumerate() {
            let Some(pe_type) = platform.pe_type(imp.pe_type()) else {
                continue;
            };
            let modes: &[DvfsMode] = match config.dvfs_policy {
                DvfsPolicy::All => pe_type.dvfs_modes(),
                DvfsPolicy::NominalOnly => &pe_type.dvfs_modes()[..1],
            };
            for (mode_idx, mode) in modes.iter().enumerate() {
                for clr in &config.clr_catalog {
                    if clr.hw.requires_reconfigurable()
                        && pe_type.kind() != PeKind::ReconfigurableRegion
                    {
                        continue;
                    }
                    let op = profile.operating_point(imp.cycles(), imp.capacitance(), mode);
                    let power =
                        op.power * clr.hw.params().power_factor * clr.asw.params().power_factor;
                    let temp = profile.steady_temp(power);
                    let spec = chain_spec(
                        imp,
                        pe_type,
                        mode,
                        clr,
                        profile,
                        config.implicit_masking_override,
                        config.reliability_model,
                    );
                    let robust = match &config.solver_faults {
                        Some(plan) if plan.primary_fails(spec.digest()) => {
                            analyze_robust_chaos_spec(&spec, plan)?
                        }
                        _ => analyze_robust_spec(&spec)?,
                    };
                    let r = robust.reliability;
                    health.candidates_evaluated += 1;
                    health.degraded_analyses += usize::from(robust.degraded);
                    health.solver_retries += usize::from(robust.retried);
                    out.push(CandidateImpl {
                        impl_id: ImplId::new(impl_idx as u32),
                        pe_type: imp.pe_type(),
                        dvfs: DvfsModeId::new(mode_idx as u32),
                        clr: *clr,
                        metrics: TaskMetrics {
                            min_exec_time: r.min_exec_time,
                            avg_exec_time: r.avg_exec_time,
                            error_prob: r.error_prob,
                            eta: profile.eta_at(temp),
                            power,
                            energy: r.avg_exec_time * power,
                            peak_temp: temp,
                        },
                        memory_bytes: candidate_memory(imp, clr),
                    });
                }
            }
        }
        Ok(out)
    }

    /// Every task type's sweep under `config`, plus the health counters
    /// the sweeps added.
    type Sweep = (Result<Vec<Vec<CandidateImpl>>, String>, TdseHealth);

    fn sweep_all(
        graph: &TaskGraph,
        config: &TdseConfig,
        sweep: impl Fn(&TdseConfig, TaskTypeId, &mut TdseHealth) -> Result<Vec<CandidateImpl>, DseError>,
    ) -> Sweep {
        let mut health = TdseHealth::default();
        let candidates = (0..graph.task_types().len())
            .map(|ty| sweep(config, TaskTypeId::new(ty as u32), &mut health))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("{e:?}"));
        (candidates, health)
    }

    fn oracle_sweep(graph: &TaskGraph, platform: &Platform, config: &TdseConfig) -> Sweep {
        sweep_all(graph, config, |cfg, ty, health| {
            serial_oracle(graph, platform, ty, cfg, health)
        })
    }

    fn pooled_sweep(
        graph: &TaskGraph,
        platform: &Platform,
        config: &TdseConfig,
        workers: usize,
    ) -> Sweep {
        sweep_all(graph, config, |cfg, ty, health| {
            sweep_type(graph, platform, ty, cfg, health, &ExecPool::new(workers))
        })
    }

    fn assert_matches_oracle(
        graph: &TaskGraph,
        platform: &Platform,
        config: &TdseConfig,
        what: &str,
    ) {
        let oracle = oracle_sweep(graph, platform, config);
        assert!(oracle.0.is_ok(), "{what}: oracle failed");
        for workers in [1, 2, 3, 8] {
            let pooled = pooled_sweep(graph, platform, config, workers);
            let at = format!("{what}/{workers} workers");
            assert_eq!(pooled.0, oracle.0, "{at}: candidates");
            assert_eq!(pooled.1, oracle.1, "{at}: health");
        }
    }

    #[test]
    fn parallel_sweep_matches_the_serial_oracle_for_every_preset() {
        let p = paper_platform();
        let g = test_graph(&p);
        for scenario in [
            Scenario::Transient,
            Scenario::PermanentAging {
                mission_time_hours: 5_000.0,
            },
            Scenario::CheckpointModes,
            Scenario::FpgaMitigation,
        ] {
            let config = scenario.tdse_config().expect("preset config");
            assert_matches_oracle(&g, &p, &config, &scenario.name());
        }
    }

    #[test]
    fn parallel_sweep_matches_the_serial_oracle_under_a_solver_fault_storm() {
        let p = paper_platform();
        let g = test_graph(&p);
        // Every primary solve fails.
        let storm = TdseConfig::default().with_solver_faults(SolverFaultPlan::new(7, 1_000_000, 0));
        assert_matches_oracle(&g, &p, &storm, "storm");
        let s = pooled_sweep(&g, &p, &storm, 3);
        assert_eq!(s.1.solver_retries, s.1.candidates_evaluated);
        // Partial injection with failing retries: injected, degraded and
        // plain analyses interleave in one sweep.
        let mixed =
            TdseConfig::default().with_solver_faults(SolverFaultPlan::new(3, 400_000, 500_000));
        assert_matches_oracle(&g, &p, &mixed, "mixed");
        let m = pooled_sweep(&g, &p, &mixed, 3);
        assert!(m.1.degraded_analyses > 0 && m.1.solver_retries > m.1.degraded_analyses);
    }

    #[test]
    fn first_error_in_key_order_matches_the_serial_oracle() {
        // Two implementations with infinite cycles fail chain validation
        // after the characterized ones succeeded, with a valid one between
        // them. The first failure in sweep order must be returned, with
        // health counting exactly the candidates before it, however the
        // later analyses race on the pool.
        let p = paper_platform();
        let mut ty = TaskType::new("t");
        for imp in SyntheticCharacterizer::new(5).impls_for_type(0, &p) {
            ty = ty.with_impl(imp);
        }
        let bad = |name: &str, pe: u32| {
            BaseImpl::new(name, clre_model::PeTypeId::new(pe), f64::INFINITY, 1e-9)
        };
        let late = BaseImpl::new("late", clre_model::PeTypeId::new(0), 3.0e5, 1e-9);
        let ty = ty
            .with_impl(bad("bad-a", 0))
            .with_impl(late)
            .with_impl(bad("bad-b", 1));
        let g = TaskGraph::builder("g", 1.0)
            .task_type(ty)
            .task("a", "t")
            .unwrap()
            .build()
            .unwrap();
        let config = TdseConfig::default();
        let oracle = oracle_sweep(&g, &p, &config);
        let err = oracle.0.clone().expect_err("degenerate impls must fail");
        assert!(err.contains("InvalidResidence"), "{err}");
        assert!(oracle.1.candidates_evaluated > 0);
        for workers in [1, 2, 3, 8] {
            let pooled = pooled_sweep(&g, &p, &config, workers);
            assert_eq!(pooled.0, oracle.0, "{workers}: first error");
            assert_eq!(pooled.1, oracle.1, "{workers}: health at the error");
        }
    }

    #[test]
    fn candidate_counts_match_cartesian_product() {
        let p = paper_platform();
        let g = test_graph(&p);
        let cfg = TdseConfig::default();
        let cands = candidates_for_type(&g, &p, TaskTypeId::new(0), &cfg).unwrap();
        // 2 processor impls × 3 modes × 80 + 1 accel impl × 1 mode × 80.
        assert_eq!(cands.len(), (2 * 3 + 1) * 80);
    }

    #[test]
    fn solver_fault_plan_degrades_deterministically() {
        let p = paper_platform();
        let g = test_graph(&p);
        let clean = build_library_with_health(&g, &p, &TdseConfig::default()).unwrap();

        // A zero-rate plan is bit-identical to no plan at all.
        let zero = TdseConfig::default().with_solver_faults(SolverFaultPlan::new(7, 0, 0));
        let z = build_library_with_health(&g, &p, &zero).unwrap();
        assert_eq!(clean.0, z.0);
        assert_eq!(clean.1, z.1);

        // Every primary solve failing drives every analysis through the
        // scaled retry; the retry succeeds, so nothing degrades.
        let storm = TdseConfig::default().with_solver_faults(SolverFaultPlan::new(7, 1_000_000, 0));
        let s = build_library_with_health(&g, &p, &storm).unwrap();
        assert_eq!(s.1.solver_retries, s.1.candidates_evaluated);
        assert_eq!(s.1.degraded_analyses, 0);

        // Same seed reproduces the same library and counters bit-for-bit.
        let s2 = build_library_with_health(&g, &p, &storm).unwrap();
        assert_eq!(s.0, s2.0);
        assert_eq!(s.1, s2.1);
    }

    #[test]
    fn empty_catalog_is_a_typed_error() {
        let err = TdseConfig::default().with_clr_catalog(vec![]).unwrap_err();
        assert!(matches!(err, DseError::InvalidConfig { .. }));
    }

    #[test]
    fn nominal_only_prunes_modes() {
        let p = paper_platform();
        let g = test_graph(&p);
        let cfg = TdseConfig::default().with_dvfs_policy(DvfsPolicy::NominalOnly);
        let cands = candidates_for_type(&g, &p, TaskTypeId::new(0), &cfg).unwrap();
        assert_eq!(cands.len(), 3 * 80);
    }

    #[test]
    fn nominal_only_skips_a_pe_type_without_modes() {
        // The builder only requires modes on instantiated PE types, so an
        // implementation may target a type with none; both policies must
        // skip it instead of slicing past the end of its mode list.
        let p = Platform::builder()
            .pe_type(
                PeType::processor("p", 2.0, 0.3).with_dvfs_mode(DvfsMode::new("n", 1.2, 9.0e8)),
            )
            .pe_type(PeType::processor("modeless", 2.0, 0.3))
            .pes_of_type("p", 1)
            .unwrap()
            .build()
            .unwrap();
        let ty = TaskType::new("t")
            .with_impl(BaseImpl::new(
                "on-p",
                clre_model::PeTypeId::new(0),
                1e5,
                1e-9,
            ))
            .with_impl(BaseImpl::new(
                "on-modeless",
                clre_model::PeTypeId::new(1),
                1e5,
                1e-9,
            ));
        let g = TaskGraph::builder("g", 1.0)
            .task_type(ty)
            .task("a", "t")
            .unwrap()
            .build()
            .unwrap();
        for policy in [DvfsPolicy::All, DvfsPolicy::NominalOnly] {
            let cfg = TdseConfig::default().with_dvfs_policy(policy);
            let cands = candidates_for_type(&g, &p, TaskTypeId::new(0), &cfg).unwrap();
            assert_eq!(cands.len(), 80, "{policy:?}: one mode × 80 configurations");
        }
    }

    #[test]
    fn protection_trades_error_for_time() {
        let p = paper_platform();
        let pe = p.pe_type(clre_model::PeTypeId::new(0)).unwrap();
        let imp = BaseImpl::new("i", clre_model::PeTypeId::new(0), 3.0e5, 1.0e-9);
        let mode = &pe.dvfs_modes()[0];
        let config = TdseConfig::default();
        let bare = evaluate_candidate(&imp, pe, mode, &ClrConfig::unprotected(), &config).unwrap();
        let tmr = evaluate_candidate(
            &imp,
            pe,
            mode,
            &ClrConfig::new(HwMethod::Tmr, SswMethod::None, AswMethod::None),
            &config,
        )
        .unwrap();
        assert!(tmr.error_prob < 0.1 * bare.error_prob);
        assert!(tmr.power > 2.5 * bare.power);
        // TMR heats the PE: it ages faster.
        assert!(tmr.eta < bare.eta);
        assert!(tmr.peak_temp > bare.peak_temp);

        let chk = evaluate_candidate(
            &imp,
            pe,
            mode,
            &ClrConfig::new(
                HwMethod::None,
                SswMethod::Checkpoint { intervals: 3 },
                AswMethod::None,
            ),
            &config,
        )
        .unwrap();
        assert!(chk.error_prob < bare.error_prob);
        assert!(chk.avg_exec_time > bare.avg_exec_time);
        assert!(chk.min_exec_time > bare.min_exec_time);
    }

    #[test]
    fn architectural_masking_lowers_error() {
        let p = paper_platform();
        let imp = BaseImpl::new("i", clre_model::PeTypeId::new(0), 3.0e5, 1.0e-9);
        let config = TdseConfig::default();
        let lo = p.pe_type_by_name("proc-lomask").unwrap();
        let hi = p.pe_type_by_name("proc-himask").unwrap();
        let m_lo = evaluate_candidate(
            &imp,
            p.pe_type(lo).unwrap(),
            &p.pe_type(lo).unwrap().dvfs_modes()[0],
            &ClrConfig::unprotected(),
            &config,
        )
        .unwrap();
        let m_hi = evaluate_candidate(
            &imp,
            p.pe_type(hi).unwrap(),
            &p.pe_type(hi).unwrap().dvfs_modes()[0],
            &ClrConfig::unprotected(),
            &config,
        )
        .unwrap();
        assert!(m_hi.error_prob < m_lo.error_prob);
    }

    #[test]
    fn implicit_masking_override_applies() {
        let p = paper_platform();
        let g = test_graph(&p);
        let base = TdseConfig::default();
        let masked = TdseConfig::default().with_implicit_masking(0.2);
        let c0 = candidates_for_type(&g, &p, TaskTypeId::new(0), &base).unwrap();
        let c1 = candidates_for_type(&g, &p, TaskTypeId::new(0), &masked).unwrap();
        // Same shape, strictly lower (or equal at zero) error everywhere.
        assert_eq!(c0.len(), c1.len());
        let better = c0
            .iter()
            .zip(&c1)
            .filter(|(a, b)| b.metrics.error_prob < a.metrics.error_prob)
            .count();
        assert!(better > c0.len() / 2);
    }

    #[test]
    fn library_builds_and_prunes() {
        let p = paper_platform();
        let g = test_graph(&p);
        let lib = build_library(&g, &p, &TdseConfig::default()).unwrap();
        let ty = TaskTypeId::new(0);
        assert!(lib.pareto_count(ty) >= 3); // at least one per PE type
        assert!(lib.pareto_count(ty) < lib.full_count(ty));
        assert_eq!(lib.full_count(ty), (2 * 3 + 1) * 80);
    }

    #[test]
    fn single_objective_library_is_one_per_group() {
        let p = paper_platform();
        let g = test_graph(&p);
        let cfg = TdseConfig::default().with_objectives(ObjectiveSet::set_i());
        let lib = build_library(&g, &p, &cfg).unwrap();
        assert_eq!(lib.pareto_count(TaskTypeId::new(0)), 3);
    }

    #[test]
    fn richer_objectives_grow_the_front() {
        let p = paper_platform();
        let g = test_graph(&p);
        let counts: Vec<usize> = [
            ObjectiveSet::set_i(),
            ObjectiveSet::set_ii(),
            ObjectiveSet::set_iii(),
        ]
        .into_iter()
        .map(|objs| {
            build_library(&g, &p, &TdseConfig::default().with_objectives(objs))
                .unwrap()
                .pareto_count(TaskTypeId::new(0))
        })
        .collect();
        assert!(counts[0] < counts[1], "set II must beat set I: {counts:?}");
        assert!(
            counts[1] <= counts[2],
            "set III at least set II: {counts:?}"
        );
    }

    #[test]
    fn default_reliability_model_is_transient_and_bit_identical() {
        let p = paper_platform();
        let g = test_graph(&p);
        assert_eq!(
            TdseConfig::default().reliability_model,
            ReliabilityModel::Transient
        );
        let implicit = build_library_with_health(&g, &p, &TdseConfig::default()).unwrap();
        let explicit = build_library_with_health(
            &g,
            &p,
            &TdseConfig::default().with_reliability_model(ReliabilityModel::Transient),
        )
        .unwrap();
        assert_eq!(implicit.0, explicit.0);
        assert_eq!(implicit.1, explicit.1);
    }

    /// A profile with η on the scale of seconds instead of years, so the
    /// permanent hazard competes visibly with the SEU rate.
    fn accelerated_aging_profile() -> ProfileModel {
        ProfileModel {
            aging_a: 1.0e-6,
            ..ProfileModel::default()
        }
    }

    #[test]
    fn permanent_aging_raises_the_error_floor() {
        let p = paper_platform();
        let pe = p.pe_type(clre_model::PeTypeId::new(0)).unwrap();
        let imp = BaseImpl::new("i", clre_model::PeTypeId::new(0), 3.0e5, 1.0e-9);
        let mode = &pe.dvfs_modes()[0];
        let eval = |clr: &ClrConfig, model| {
            let config = TdseConfig::default()
                .with_profile(accelerated_aging_profile())
                .with_reliability_model(model);
            evaluate_candidate(&imp, pe, mode, clr, &config).unwrap()
        };
        let aging = ReliabilityModel::PermanentAging {
            mission_time: 100.0,
        };
        let bare = ClrConfig::unprotected();
        let transient = eval(&bare, ReliabilityModel::Transient);
        let permanent = eval(&bare, aging);
        assert!(
            permanent.error_prob > 1.02 * transient.error_prob,
            "permanent hazard must raise the error floor: {} vs {}",
            permanent.error_prob,
            transient.error_prob
        );
        // Checkpointing cannot repair a dead resource; spatial TMR can.
        let chk = ClrConfig::new(
            HwMethod::None,
            SswMethod::Checkpoint { intervals: 3 },
            AswMethod::None,
        );
        let tmr = ClrConfig::new(HwMethod::Tmr, SswMethod::None, AswMethod::None);
        let floor = permanent.error_prob - transient.error_prob;
        let chk_gap =
            eval(&chk, aging).error_prob - eval(&chk, ReliabilityModel::Transient).error_prob;
        assert!(chk_gap > 0.5 * floor, "checkpointing keeps the floor");
        // TMR masks 95% of permanent faults, but its tripled power heats
        // the PE, shrinking η and inflating the very hazard it masks.
        // Under transient-only analysis TMR dominates; once aging is
        // modeled, the hot redundant design loses to the cool bare one —
        // the mechanism axis reverses a DSE verdict.
        let tmr_trans = eval(&tmr, ReliabilityModel::Transient).error_prob;
        let tmr_perm = eval(&tmr, aging).error_prob;
        assert!(tmr_trans < 0.1 * transient.error_prob, "TMR wins on SEUs");
        assert!(
            tmr_perm > permanent.error_prob,
            "thermal feedback must flip the verdict: {tmr_perm} vs {}",
            permanent.error_prob
        );
        assert!(tmr_perm - tmr_trans > floor, "TMR concedes more to aging");
    }

    #[test]
    fn permanent_library_build_is_reproducible() {
        let p = paper_platform();
        let g = test_graph(&p);
        let model = ReliabilityModel::PermanentAging { mission_time: 50.0 };
        let base = TdseConfig::default()
            .with_profile(accelerated_aging_profile())
            .with_reliability_model(model);
        let cold = build_library_with_health(&g, &p, &base).unwrap();
        let again = build_library_with_health(&g, &p, &base).unwrap();
        assert_eq!(cold.0, again.0);
        assert_eq!(cold.1, again.1);

        // The permanent library is genuinely different from transient.
        let transient = build_library_with_health(
            &g,
            &p,
            &TdseConfig::default().with_profile(accelerated_aging_profile()),
        )
        .unwrap();
        assert_ne!(transient.0, cold.0);
    }

    #[test]
    fn fpga_styles_only_map_to_reconfigurable_regions() {
        let p = paper_platform();
        let g = test_graph(&p);
        let cfg = TdseConfig::default()
            .with_clr_catalog(ClrConfig::fpga_mitigation_catalog())
            .unwrap();
        let cands = candidates_for_type(&g, &p, TaskTypeId::new(0), &cfg).unwrap();
        // Processor impls keep only the 4 non-scrubbing HW methods
        // (4·5·4 = 80 of the 120-entry catalog); the accelerator impl on
        // the reconfigurable region explores all 120.
        assert_eq!(cands.len(), 2 * 3 * 80 + 120);
        for c in &cands {
            if c.clr.hw.requires_reconfigurable() {
                let kind = p.pe_type(c.pe_type).unwrap().kind();
                assert_eq!(kind, PeKind::ReconfigurableRegion);
            }
        }
    }

    #[test]
    fn incompatible_impls_skipped() {
        // An impl that targets a PE type not present in the platform.
        let p = paper_platform();
        let ty = TaskType::new("t")
            .with_impl(BaseImpl::new("ok", clre_model::PeTypeId::new(0), 1e5, 1e-9))
            .with_impl(BaseImpl::new(
                "alien",
                clre_model::PeTypeId::new(9),
                1e5,
                1e-9,
            ));
        let g = TaskGraph::builder("g", 1.0)
            .task_type(ty)
            .task("a", "t")
            .unwrap()
            .build()
            .unwrap();
        let cands =
            candidates_for_type(&g, &p, TaskTypeId::new(0), &TdseConfig::default()).unwrap();
        // Only the compatible impl contributes: 3 modes × 80.
        assert_eq!(cands.len(), 240);
    }
}
