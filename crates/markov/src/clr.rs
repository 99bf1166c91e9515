//! CL(R)Early chain builders: turn one cross-layer reliability
//! configuration into the timing and functional Markov chains of the
//! paper's Fig. 3 and extract task-level reliability metrics.
//!
//! Per inter-checkpoint interval (ICI) `i` the chains contain:
//!
//! ```text
//! Exec_i ──(p_ne)────────────────────────────▶ cont_i
//!   │ 1−p_ne
//!   ▼
//! HWRel_i ──(m_HW)───────────────────────────▶ cont_i
//!   │ 1−m_HW
//!   ▼
//! SSWImpl_i ──(m_implSSW)────────────────────▶ cont_i
//!   │ 1−m_implSSW
//!   ▼
//! SSWDet_i ──(cov_Det)──▶ SSWTol_i ──(m_Tol)─▶ Exec_i   (roll back)
//!   │ 1−cov_Det                 │ 1−m_Tol
//!   ▼                           ▼
//! ASWRel_i ──(m_ASW)──▶ cont_i  Error / cont_i
//!   │ 1−m_ASW
//!   ▼
//! Error / cont_i
//! ```
//!
//! where `cont_i` is the checkpoint state `Chk_i` for `i < k` and the final
//! absorbing state for `i = k`. In the **timing** chain there is a single
//! absorbing `End` state: error escapes consume time but still terminate.
//! In the **functional** chain escapes absorb into `Error`, clean
//! completion into `NoError`, and checkpoint creation itself may corrupt
//! state with probability `p_chk_err` (the dotted edge of Fig. 3(b)).
//!
//! The fault *mechanism* driving the event rate is pluggable
//! ([`FaultMechanism`]): the default transient-SEU template reproduces the
//! paper's Fig. 3 exactly, while the permanent/aging template (à la Aliee
//! et al.) splits each interval's fault events between the transient
//! recovery ladder above and a `PermRel_i` state modeling a permanent
//! resource failure — maskable only by spatial hardware redundancy, never
//! by roll-back, detection, or software voting. A [`ClrChainSpec`] pairs
//! the flattened parameters with their mechanism and is the one input
//! every chain builder and analysis entry point takes;
//! [`ClrChainSpec::transient`] wraps bare parameters.

mod structured;

use crate::{MarkovChain, MarkovError, StateId};
use clre_num::digest::Fnv;
use serde::{Deserialize, Serialize};

/// Flattened parameters describing a task under one CLR configuration.
///
/// Produced by the task-level DSE layer from an implementation's operating
/// point and the per-layer method parameters; wrapped in a
/// [`ClrChainSpec`] and consumed by [`timing_chain_spec`],
/// [`functional_chain_spec`] and [`analyze_spec`]. All times are in
/// seconds, all probabilities in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClrChainParams {
    /// Total useful execution time `T_exec` (already including any
    /// hardware/application-software time-overhead factors).
    pub exec_time: f64,
    /// Single-event-upset rate `λ` in errors/s; `p_ne = e^{−λ·T_i}` per
    /// interval.
    pub seu_rate: f64,
    /// Hardware-layer masking `m_HW`.
    pub m_hw: f64,
    /// Implicit system-software masking `m_implSSW`.
    pub m_impl_ssw: f64,
    /// System-software detection coverage `cov_Det`.
    pub cov_det: f64,
    /// System-software tolerance masking `m_Tol`.
    pub m_tol: f64,
    /// Application-software masking `m_ASW`.
    pub m_asw: f64,
    /// Number of inter-checkpoint intervals `k ≥ 1` (`k − 1` checkpoints).
    pub intervals: u32,
    /// Detection time `T_Det` added to each interval's execution state.
    pub t_det: f64,
    /// Tolerance (roll-back) time `T_Tol` per detected-and-tolerated error.
    pub t_tol: f64,
    /// Checkpoint-creation time `T_Chk` per checkpoint.
    pub t_chk: f64,
    /// Probability that checkpoint creation corrupts state.
    pub p_chk_err: f64,
}

impl ClrChainParams {
    /// An unprotected task: no masking, detection or checkpointing.
    pub fn unprotected(exec_time: f64, seu_rate: f64) -> Self {
        ClrChainParams {
            exec_time,
            seu_rate,
            m_hw: 0.0,
            m_impl_ssw: 0.0,
            cov_det: 0.0,
            m_tol: 0.0,
            m_asw: 0.0,
            intervals: 1,
            t_det: 0.0,
            t_tol: 0.0,
            t_chk: 0.0,
            p_chk_err: 0.0,
        }
    }

    /// Fault-free (minimum) execution time: useful time plus detection on
    /// every interval plus every checkpoint.
    pub fn min_exec_time(&self) -> f64 {
        let k = self.intervals.max(1) as f64;
        self.exec_time + k * self.t_det + (k - 1.0) * self.t_chk
    }

    /// Content digest of this parameter set: FNV-1a (64-bit) over the
    /// IEEE-754 bit patterns of every field, in declaration order.
    ///
    /// Exact bits, no quantization: two parameter sets share a digest only
    /// if every field is bit-identical (so `0.0` and `-0.0` digest
    /// differently, as do distinct NaN payloads). Used as the key of
    /// solver-fault plans, where bit-exactness is what makes a plan's
    /// choice of analyses reproducible.
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        self.fold_into(&mut fnv);
        fnv.finish()
    }

    /// Folds every field, in declaration order, into `fnv`.
    fn fold_into(&self, fnv: &mut Fnv) {
        for word in [
            self.exec_time.to_bits(),
            self.seu_rate.to_bits(),
            self.m_hw.to_bits(),
            self.m_impl_ssw.to_bits(),
            self.cov_det.to_bits(),
            self.m_tol.to_bits(),
            self.m_asw.to_bits(),
            u64::from(self.intervals),
            self.t_det.to_bits(),
            self.t_tol.to_bits(),
            self.t_chk.to_bits(),
            self.p_chk_err.to_bits(),
        ] {
            fnv.write_u64(word);
        }
    }

    fn validate(&self) -> Result<(), MarkovError> {
        let probs = [
            self.m_hw,
            self.m_impl_ssw,
            self.cov_det,
            self.m_tol,
            self.m_asw,
            self.p_chk_err,
        ];
        for (i, &p) in probs.iter().enumerate() {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(MarkovError::InvalidProbability {
                    from: i,
                    to: i,
                    value: p,
                });
            }
        }
        let times = [self.exec_time, self.t_det, self.t_tol, self.t_chk];
        for (i, &t) in times.iter().enumerate() {
            if !t.is_finite() || t < 0.0 {
                return Err(MarkovError::InvalidResidence { state: i, value: t });
            }
        }
        if self.exec_time <= 0.0 {
            return Err(MarkovError::InvalidResidence {
                state: 0,
                value: self.exec_time,
            });
        }
        if !self.seu_rate.is_finite() || self.seu_rate < 0.0 {
            return Err(MarkovError::InvalidProbability {
                from: 0,
                to: 0,
                value: self.seu_rate,
            });
        }
        Ok(())
    }
}

/// The physical fault mechanism a chain models.
///
/// The mechanism decides how fault events are *routed* through the
/// recovery ladder: transient SEUs enter the cross-layer masking chain of
/// Fig. 3, while permanent/aging failures (per-PE Weibull hazard folded
/// into the transition rates by the task-level DSE layer) bypass every
/// temporal recovery method — only spatial hardware redundancy masks
/// them. Additive variants may appear in future releases, so the enum is
/// `#[non_exhaustive]`; foreign code should use the accessor methods
/// rather than matching exhaustively.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultMechanism {
    /// Transient single-event upsets only — the paper's Fig. 3 template.
    Transient,
    /// Transient SEUs plus a constant permanent-failure rate over the
    /// task's execution (the per-PE Weibull hazard evaluated at the
    /// platform's mission time). Permanent faults defeat roll-back,
    /// detection and software voting; only `m_hw` (spatial redundancy)
    /// masks them.
    PermanentAging {
        /// Permanent-failure rate `λ_p` in failures/s, added to the SEU
        /// rate when drawing per-interval fault events.
        perm_rate: f64,
    },
}

impl FaultMechanism {
    /// The permanent-failure rate this mechanism adds (0 for transient).
    pub fn perm_rate(&self) -> f64 {
        match self {
            FaultMechanism::Transient => 0.0,
            FaultMechanism::PermanentAging { perm_rate } => *perm_rate,
        }
    }

    /// Whether this is the default transient-only mechanism.
    pub fn is_transient(&self) -> bool {
        matches!(self, FaultMechanism::Transient)
    }

    /// The `(tag, payload)` words [`ClrChainSpec::digest`] folds in:
    /// `(0, 0)` for transient, `(1, perm_rate bits)` for permanent/aging.
    fn encode_words(&self) -> (u64, u64) {
        match self {
            FaultMechanism::Transient => (0, 0),
            FaultMechanism::PermanentAging { perm_rate } => (1, perm_rate.to_bits()),
        }
    }

    fn validate(&self) -> Result<(), MarkovError> {
        let rate = self.perm_rate();
        if !rate.is_finite() || rate < 0.0 {
            return Err(MarkovError::InvalidProbability {
                from: 0,
                to: 0,
                value: rate,
            });
        }
        Ok(())
    }
}

/// One task's chain specification: flattened CLR parameters plus the
/// fault mechanism routing the events. This is the unit the chain
/// builders, the robust-analysis ladder, and solver-fault plans key
/// on; the transient-only constructors reproduce the historic
/// `ClrChainParams` behaviour bit-exactly (including the digest).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClrChainSpec {
    /// The flattened per-configuration parameters.
    pub params: ClrChainParams,
    /// The fault mechanism driving the event rate.
    pub mechanism: FaultMechanism,
}

impl ClrChainSpec {
    /// A transient-only spec — the historic default.
    pub fn transient(params: ClrChainParams) -> Self {
        ClrChainSpec {
            params,
            mechanism: FaultMechanism::Transient,
        }
    }

    /// A spec with a permanent/aging rate on top of the SEU rate.
    pub fn permanent_aging(params: ClrChainParams, perm_rate: f64) -> Self {
        ClrChainSpec {
            params,
            mechanism: FaultMechanism::PermanentAging { perm_rate },
        }
    }

    /// Content digest of this spec. For the transient mechanism this is
    /// *exactly* [`ClrChainParams::digest`] — pre-mechanism cache entries
    /// and digest pins stay valid — and for other mechanisms the
    /// mechanism words are folded in with the same FNV-1a stream, so no
    /// two mechanisms can collide on the same parameters.
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        self.params.fold_into(&mut fnv);
        if !self.mechanism.is_transient() {
            let (tag, payload) = self.mechanism.encode_words();
            fnv.write_u64(tag);
            fnv.write_u64(payload);
        }
        fnv.finish()
    }

    /// Domain validation of parameters and mechanism.
    ///
    /// # Errors
    ///
    /// As [`analyze_spec`] for parameter violations; an invalid (negative or
    /// non-finite) permanent rate is an [`MarkovError::InvalidProbability`].
    pub fn validate(&self) -> Result<(), MarkovError> {
        self.params.validate()?;
        self.mechanism.validate()
    }
}

/// Task-level reliability metrics extracted from the two chains.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskReliability {
    /// Fault-free execution time in seconds.
    pub min_exec_time: f64,
    /// Expected execution time in seconds (timing chain).
    pub avg_exec_time: f64,
    /// Probability of an erroneous result (functional chain).
    pub error_prob: f64,
}

/// Writes the normalized per-interval weights into `out`: either uniform
/// (`None`) or the caller-supplied fractions of the useful execution time.
fn interval_weights(
    params: &ClrChainParams,
    weights: Option<&[f64]>,
    out: &mut Vec<f64>,
) -> Result<(), MarkovError> {
    let k = params.intervals.max(1) as usize;
    out.clear();
    match weights {
        None => out.resize(k, 1.0 / k as f64),
        Some(w) => {
            if w.len() != k {
                return Err(MarkovError::InvalidResidence {
                    state: w.len(),
                    value: k as f64,
                });
            }
            let total: f64 = w.iter().sum();
            if !(total.is_finite()) || total <= 0.0 || w.iter().any(|&x| !x.is_finite() || x <= 0.0)
            {
                return Err(MarkovError::InvalidResidence {
                    state: 0,
                    value: total,
                });
            }
            out.extend(w.iter().map(|&x| x / total));
        }
    }
    Ok(())
}

struct IntervalStates {
    exec: StateId,
    hw: StateId,
    ssw_impl: StateId,
    ssw_det: StateId,
    ssw_tol: StateId,
    asw: StateId,
    /// Permanent-failure state; present only when the mechanism carries a
    /// non-zero permanent rate, so transient chains keep the historic
    /// state set (and solver trajectories) bit-identically.
    perm: Option<StateId>,
}

enum Escape {
    /// Timing chain: an escaped error still just continues to `cont`.
    Continue,
    /// Functional chain: an escaped error absorbs into `Error`.
    Error(StateId),
}

/// Shared chain skeleton for both variants of Fig. 3, parameterized by
/// the fault mechanism. `weights` selects the fraction of the useful
/// execution time spent in each inter-checkpoint interval (uniform when
/// `None`).
///
/// Mechanisms with a zero permanent rate create the historic state set
/// with the historic float expressions, so transient analyses stay
/// bit-identical to the pre-mechanism implementation.
fn build_chain_spec(
    spec: &ClrChainSpec,
    functional: bool,
    weights: Option<&[f64]>,
) -> Result<(MarkovChain, StateId), MarkovError> {
    spec.validate()?;
    let params = &spec.params;
    let perm_rate = spec.mechanism.perm_rate();
    let k = params.intervals.max(1) as usize;
    let (raw, mut weights) = (weights, Vec::new());
    interval_weights(params, raw, &mut weights)?;

    let mut b = MarkovChain::builder();
    // Per-interval state blocks first, then checkpoints, then absorbers.
    let blocks: Vec<IntervalStates> = (0..k)
        .map(|i| IntervalStates {
            exec: b.state(
                format!("Exec{i}"),
                params.exec_time * weights[i] + params.t_det,
            ),
            hw: b.state(format!("HWRel{i}"), 0.0),
            ssw_impl: b.state(format!("SSWImpl{i}"), 0.0),
            ssw_det: b.state(format!("SSWDet{i}"), 0.0),
            ssw_tol: b.state(format!("SSWTol{i}"), params.t_tol),
            asw: b.state(format!("ASWRel{i}"), 0.0),
            perm: (perm_rate > 0.0).then(|| b.state(format!("PermRel{i}"), 0.0)),
        })
        .collect();
    let chks: Vec<StateId> = (0..k.saturating_sub(1))
        .map(|i| b.state(format!("Chkpnt{i}"), params.t_chk))
        .collect();
    let (end, escape) = if functional {
        let no_error = b.absorbing("NoError");
        let error = b.absorbing("Error");
        (no_error, Escape::Error(error))
    } else {
        (b.absorbing("End"), Escape::Continue)
    };

    for (i, s) in blocks.iter().enumerate() {
        let cont = if i + 1 < k { chks[i] } else { end };
        match s.perm {
            None => {
                // Useful execution; the no-error probability is per
                // *interval*.
                let p_ne = (-params.seu_rate * params.exec_time * weights[i]).exp();
                b.transition(s.exec, cont, p_ne);
                b.transition(s.exec, s.hw, 1.0 - p_ne);
            }
            Some(perm) => {
                // Competing exponential risks: total event rate is the
                // SEU rate plus the permanent rate, and an event is
                // transient with probability λ_t / (λ_t + λ_p).
                let lambda = params.seu_rate + perm_rate;
                let p_none = (-lambda * params.exec_time * weights[i]).exp();
                let transient_frac = params.seu_rate / lambda;
                b.transition(s.exec, cont, p_none);
                b.transition(s.exec, s.hw, (1.0 - p_none) * transient_frac);
                b.transition(s.exec, perm, (1.0 - p_none) * (1.0 - transient_frac));
                // Permanent faults bypass the temporal recovery ladder:
                // only spatial hardware redundancy masks them.
                match escape {
                    Escape::Continue => {
                        b.transition(perm, cont, 1.0);
                    }
                    Escape::Error(err) => {
                        b.transition(perm, cont, params.m_hw);
                        b.transition(perm, err, 1.0 - params.m_hw);
                    }
                }
            }
        }
        // Hardware spatial redundancy.
        b.transition(s.hw, cont, params.m_hw);
        b.transition(s.hw, s.ssw_impl, 1.0 - params.m_hw);
        // Implicit system-software masking.
        b.transition(s.ssw_impl, cont, params.m_impl_ssw);
        b.transition(s.ssw_impl, s.ssw_det, 1.0 - params.m_impl_ssw);
        // Detection and tolerance.
        b.transition(s.ssw_det, s.ssw_tol, params.cov_det);
        b.transition(s.ssw_det, s.asw, 1.0 - params.cov_det);
        b.transition(s.ssw_tol, s.exec, params.m_tol); // roll back / retry
        match escape {
            Escape::Continue => {
                b.transition(s.ssw_tol, cont, 1.0 - params.m_tol);
                b.transition(s.asw, cont, 1.0);
            }
            Escape::Error(err) => {
                b.transition(s.ssw_tol, err, 1.0 - params.m_tol);
                b.transition(s.asw, cont, params.m_asw);
                b.transition(s.asw, err, 1.0 - params.m_asw);
            }
        }
    }
    for (i, &chk) in chks.iter().enumerate() {
        let next = blocks[i + 1].exec;
        match escape {
            Escape::Continue => {
                b.transition(chk, next, 1.0);
            }
            Escape::Error(err) => {
                b.transition(chk, next, 1.0 - params.p_chk_err);
                b.transition(chk, err, params.p_chk_err);
            }
        }
    }
    let start = blocks[0].exec;
    Ok((b.build()?, start))
}

/// Builds the timing-reliability chain (Fig. 3(a)) for a mechanism-aware
/// spec and returns it with its start state.
///
/// # Errors
///
/// Returns [`MarkovError`] for out-of-domain parameters or mechanism.
pub fn timing_chain_spec(spec: &ClrChainSpec) -> Result<(MarkovChain, StateId), MarkovError> {
    build_chain_spec(spec, false, None)
}

/// Builds the functional-reliability chain (Fig. 3(b)) for a
/// mechanism-aware spec and returns it with its start state. Absorbing
/// state 0 is `NoError`, state 1 is `Error`.
///
/// # Errors
///
/// Returns [`MarkovError`] for out-of-domain parameters or mechanism.
pub fn functional_chain_spec(spec: &ClrChainSpec) -> Result<(MarkovChain, StateId), MarkovError> {
    build_chain_spec(spec, true, None)
}

/// Like [`analyze_spec`] but with *unequal* inter-checkpoint intervals —
/// one of the modeling capabilities the paper attributes to the
/// Markov-chain approach. `weights[i]` is the relative share of the useful
/// execution time spent in interval `i`; the weights are normalized
/// internally.
///
/// # Errors
///
/// [`MarkovError::InvalidResidence`] if `weights.len() != intervals` or
/// any weight is non-positive; otherwise as for [`analyze_spec`].
///
/// # Examples
///
/// ```
/// use clre_markov::clr::{analyze_spec, analyze_with_intervals_spec, ClrChainParams, ClrChainSpec};
///
/// # fn main() -> Result<(), clre_markov::MarkovError> {
/// let spec = ClrChainSpec::transient(ClrChainParams {
///     cov_det: 0.95, m_tol: 0.98, intervals: 3,
///     t_det: 5e-6, t_tol: 5e-6, t_chk: 8e-6,
///     ..ClrChainParams::unprotected(300e-6, 2000.0)
/// });
/// // Uniform weights reproduce the equal-interval analysis exactly.
/// let uniform = analyze_with_intervals_spec(&spec, &[1.0, 1.0, 1.0])?;
/// let equal = analyze_spec(&spec)?;
/// assert!((uniform.avg_exec_time - equal.avg_exec_time).abs() < 1e-15);
/// // A skewed split changes the expected time.
/// let skewed = analyze_with_intervals_spec(&spec, &[0.6, 0.3, 0.1])?;
/// assert!(skewed.avg_exec_time != equal.avg_exec_time);
/// # Ok(())
/// # }
/// ```
pub fn analyze_with_intervals_spec(
    spec: &ClrChainSpec,
    weights: &[f64],
) -> Result<TaskReliability, MarkovError> {
    analyze_via_spec(spec, Some(weights), false)
}

/// Outcome of a robust analysis: the metrics plus flags recording
/// whether the scaled-pivoting retry ran and whether the degraded
/// closed-form fallback ultimately produced them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustAnalysis {
    /// The task-level reliability metrics (exact or degraded).
    pub reliability: TaskReliability,
    /// `true` when both exact solvers failed and the single-interval
    /// closed form supplied an approximation instead.
    pub degraded: bool,
    /// `true` when the primary solver failed and the scaled-pivoting
    /// retry was attempted (whether or not it succeeded).
    pub retried: bool,
}

/// Like [`analyze_spec`], but numeric failures of the matrix solver are
/// *retried* once with row-scaled partial-pivot LU and only then degrade
/// to the loop-free [`crate::closed_form`] approximation, solved under the
/// spec's mechanism, instead of aborting the caller.
///
/// The fallback collapses the configuration to a single inter-checkpoint
/// interval, solves it exactly, then re-adds the deterministic per-interval
/// detection and checkpoint overheads and folds checkpoint corruption back
/// in as an independent error floor. The result is exact in the fault-free
/// limit (`λ = 0`) and a close approximation (first-order in `λ·T`)
/// otherwise; it is tagged `degraded: true` so callers can surface it in
/// run health reports. A successful retry is tagged `retried: true` with
/// `degraded: false` — the answer is still exact, just from the more
/// careful factorization.
///
/// # Errors
///
/// Out-of-domain parameters still fail — degraded mode papers over
/// *numeric* trouble, not invalid inputs. [`MarkovError::NotAbsorbing`]
/// is returned only when the closed form agrees the configuration loops
/// forever.
pub fn analyze_robust_spec(spec: &ClrChainSpec) -> Result<RobustAnalysis, MarkovError> {
    analyze_robust_with_spec(spec, analyze_spec, analyze_scaled_spec)
}

/// [`analyze_robust_spec`] with injectable primary and retry solvers —
/// the seam [`analyze_robust_chaos_spec`] and the fault-injection tests use
/// to drive the retry and fallback with [`MarkovError::Numeric`] /
/// non-finite results.
fn analyze_robust_with_spec(
    spec: &ClrChainSpec,
    primary: impl Fn(&ClrChainSpec) -> Result<TaskReliability, MarkovError>,
    retry: impl Fn(&ClrChainSpec) -> Result<TaskReliability, MarkovError>,
) -> Result<RobustAnalysis, MarkovError> {
    let finite = |r: &TaskReliability| r.avg_exec_time.is_finite() && r.error_prob.is_finite();
    match primary(spec) {
        Ok(r) if finite(&r) => Ok(RobustAnalysis {
            reliability: r,
            degraded: false,
            retried: false,
        }),
        // Non-finite metrics or a numeric/absorption failure: retry the
        // exact solver once with scaled pivoting before approximating.
        Ok(_) | Err(MarkovError::Numeric(_)) | Err(MarkovError::NotAbsorbing) => {
            match retry(spec) {
                Ok(r) if finite(&r) => Ok(RobustAnalysis {
                    reliability: r,
                    degraded: false,
                    retried: true,
                }),
                Ok(_) | Err(MarkovError::Numeric(_)) | Err(MarkovError::NotAbsorbing) => {
                    Ok(RobustAnalysis {
                        reliability: closed_form_fallback(spec)?,
                        degraded: true,
                        retried: true,
                    })
                }
                Err(e) => Err(e),
            }
        }
        // Domain errors (bad probabilities, negative times, …) are the
        // caller's bug; no approximation can repair them.
        Err(e) => Err(e),
    }
}

/// How many specs [`analyze_robust_batch`] solves side by side.
pub const LANES: usize = structured::LANES;

/// [`analyze_robust_spec`] on up to [`LANES`] specs at once, or
/// [`analyze_robust_chaos_spec`] for a spec whose primary solve `faults`
/// selects. Entry `i` is spec `i`'s outcome, bit for bit what the
/// single-spec call returns; entries past `specs.len()` are `None`.
///
/// The specs that share a chain topology (interval count and whether a
/// permanent rate is present) replay one recorded elimination side by
/// side; see [`analyze_spec`]. A spec the replay cannot finish exactly
/// takes the single-spec ladder.
///
/// # Panics
///
/// Panics if `specs` holds more than [`LANES`] specs.
///
/// # Examples
///
/// ```
/// use clre_markov::clr::{analyze_robust_batch, analyze_robust_spec, ClrChainParams, ClrChainSpec};
///
/// let specs: Vec<ClrChainSpec> = [0.0, 0.5, 0.9]
///     .iter()
///     .map(|&m_hw| ClrChainSpec::transient(ClrChainParams {
///         m_hw,
///         ..ClrChainParams::unprotected(300e-6, 2000.0)
///     }))
///     .collect();
/// let batch = analyze_robust_batch(&specs, None);
/// for (spec, outcome) in specs.iter().zip(&batch) {
///     assert_eq!(outcome.as_ref().unwrap(), &analyze_robust_spec(spec));
/// }
/// assert!(batch[3].is_none());
/// ```
pub fn analyze_robust_batch(
    specs: &[ClrChainSpec],
    faults: Option<&SolverFaultPlan>,
) -> [Option<Result<RobustAnalysis, MarkovError>>; LANES] {
    assert!(specs.len() <= LANES, "at most {LANES} specs per batch");
    let chaos = |spec: &ClrChainSpec| faults.filter(|plan| plan.primary_fails(spec.digest()));
    let mut healthy = [None; LANES];
    if let Some(first) = specs.first() {
        let (mut lanes, mut replayed, mut n) = ([0; LANES], [first; LANES], 0);
        for (i, spec) in specs.iter().enumerate() {
            if chaos(spec).is_none() {
                (lanes[n], replayed[n], n) = (i, spec, n + 1);
            }
        }
        for (&i, r) in lanes[..n]
            .iter()
            .zip(structured::analyze_lanes(&replayed[..n]))
        {
            healthy[i] = r;
        }
    }
    std::array::from_fn(|i| {
        let spec = specs.get(i)?;
        Some(match (healthy[i], chaos(spec)) {
            (Some(reliability), _) => Ok(RobustAnalysis {
                reliability,
                degraded: false,
                retried: false,
            }),
            (None, Some(plan)) => analyze_robust_chaos_spec(spec, plan),
            (None, None) => analyze_robust_spec(spec),
        })
    })
}

/// Deterministic solver-singularity fault schedule for the chaos layer.
///
/// Decisions are pure functions of `(seed, params digest, stage)` —
/// content-addressed like every other fault plan — so a seeded run
/// injects the identical set of LU failures across reruns, worker counts
/// and library-build orders. `primary_ppm` fails the plain LU solve;
/// `retry_ppm` additionally fails the scaled-pivoting retry, driving the
/// analysis into the degraded closed-form fallback (which chaosbench
/// records as a degraded-mode delta, never as silent corruption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverFaultPlan {
    /// Salt for the per-analysis decisions.
    pub seed: u64,
    /// Probability (parts-per-million) the primary LU solve fails.
    pub primary_ppm: u32,
    /// Probability (parts-per-million) the scaled retry *also* fails.
    pub retry_ppm: u32,
}

impl SolverFaultPlan {
    /// A plan with the given seed and per-stage failure rates.
    pub fn new(seed: u64, primary_ppm: u32, retry_ppm: u32) -> Self {
        SolverFaultPlan {
            seed,
            primary_ppm,
            retry_ppm,
        }
    }

    /// FNV-1a over `seed ‖ digest ‖ stage`, reduced to a ppm draw.
    fn fires(&self, digest: u64, stage: u64, ppm: u32) -> bool {
        let mut fnv = Fnv::new();
        for word in [self.seed, digest, stage] {
            fnv.write_u64(word);
        }
        fnv.finish() % 1_000_000 < u64::from(ppm)
    }

    /// Whether the primary solve of the analysis keyed by `digest` fails.
    pub fn primary_fails(&self, digest: u64) -> bool {
        self.fires(digest, 0, self.primary_ppm)
    }

    /// Whether the scaled retry of the analysis keyed by `digest` fails.
    pub fn retry_fails(&self, digest: u64) -> bool {
        self.fires(digest, 1, self.retry_ppm)
    }
}

/// [`analyze_robust_spec`] under an injected [`SolverFaultPlan`]:
/// scheduled LU singularities replace the primary (and optionally the
/// retry) solver's answer with [`MarkovError::Numeric`], exercising the
/// full retry → closed-form recovery ladder on otherwise-healthy
/// parameters. Fault decisions key on [`ClrChainSpec::digest`], which
/// equals the parameter digest for transient specs (so pre-mechanism
/// chaos schedules replay identically).
///
/// # Errors
///
/// As for [`analyze_robust_spec`].
pub fn analyze_robust_chaos_spec(
    spec: &ClrChainSpec,
    plan: &SolverFaultPlan,
) -> Result<RobustAnalysis, MarkovError> {
    let digest = spec.digest();
    // `pivot: usize::MAX` marks the singularity as synthetic in logs.
    let injected = || MarkovError::Numeric(clre_num::NumError::Singular { pivot: usize::MAX });
    analyze_robust_with_spec(
        spec,
        |s| {
            if plan.primary_fails(digest) {
                Err(injected())
            } else {
                analyze_spec(s)
            }
        },
        |s| {
            if plan.retry_fails(digest) {
                Err(injected())
            } else {
                analyze_scaled_spec(s)
            }
        },
    )
}

/// Degraded-mode approximation: single-interval closed form plus the
/// deterministic multi-interval overheads and a checkpoint-corruption
/// error floor.
fn closed_form_fallback(spec: &ClrChainSpec) -> Result<TaskReliability, MarkovError> {
    let params = &spec.params;
    let collapsed = ClrChainSpec {
        params: ClrChainParams {
            intervals: 1,
            ..*params
        },
        mechanism: spec.mechanism,
    };
    let base = crate::closed_form::analyze_spec(&collapsed)?;
    // Deterministic overhead the collapse dropped: (k−1) extra detection
    // phases and (k−1) checkpoints on the fault-free path.
    let overhead = params.min_exec_time() - collapsed.params.min_exec_time();
    // Checkpoint creation corrupts state independently per checkpoint;
    // fold the (k−1) corruption chances the collapse removed back in as
    // an independent error floor (exact when λ = 0).
    let k = params.intervals.max(1) as i32;
    let p_chk_ok = (1.0 - params.p_chk_err).powi(k - 1);
    Ok(TaskReliability {
        min_exec_time: params.min_exec_time(),
        avg_exec_time: base.avg_exec_time + overhead,
        error_prob: clre_num::util::clamp_prob(1.0 - (1.0 - base.error_prob) * p_chk_ok),
    })
}

/// Runs both chains of a mechanism-aware [`ClrChainSpec`] and extracts
/// the task-level reliability metrics.
///
/// # Errors
///
/// Returns [`MarkovError`] for out-of-domain parameters or mechanism, or
/// [`MarkovError::NotAbsorbing`] for degenerate configurations that can
/// loop forever (requires `m_Tol = 1` *and* `p_ne = 0`, which the built-in
/// method catalogs cannot produce).
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn analyze_spec(spec: &ClrChainSpec) -> Result<TaskReliability, MarkovError> {
    analyze_via_spec(spec, None, false)
}

/// [`analyze_spec`] solving both chains with row-scaled partial-pivot LU —
/// the retry path [`analyze_robust_spec`] attempts when the plain solver
/// fails numerically. Slightly costlier per factorization but robust to
/// badly row-scaled `I − Q` blocks.
fn analyze_scaled_spec(spec: &ClrChainSpec) -> Result<TaskReliability, MarkovError> {
    analyze_via_spec(spec, None, true)
}

/// Solves both chains with the given interval weights (uniform when
/// `None`) with plain or scaled-pivoting LU and reads off `AvgExT` and
/// the `Error` absorption probability.
///
/// The [`structured`] solver does the work, replaying the elimination it
/// recorded for the spec's chain topology; its metrics are bit-identical
/// to [`analyze_dense`]'s, which answers whatever the structured path
/// cannot: every error, and a non-finite intermediate value.
fn analyze_via_spec(
    spec: &ClrChainSpec,
    weights: Option<&[f64]>,
    scaled: bool,
) -> Result<TaskReliability, MarkovError> {
    structured::analyze(spec, weights, scaled)
        .map_or_else(|| analyze_dense(spec, weights, scaled), Ok)
}

/// [`analyze_via_spec`] through general [`MarkovChain`]s: builds both
/// chains, solves the timing chain with one LU solve and reads `Error`
/// off the fundamental matrix.
fn analyze_dense(
    spec: &ClrChainSpec,
    weights: Option<&[f64]>,
    scaled: bool,
) -> Result<TaskReliability, MarkovError> {
    let (timing, t_start) = build_chain_spec(spec, false, weights)?;
    let avg_exec_time = timing.expected_time_via(t_start, scaled)?;
    let (func, f_start) = build_chain_spec(spec, true, weights)?;
    let probs = func.absorption_probabilities_via(f_start, scaled)?;
    let error = func
        .absorbing_states()
        .into_iter()
        .find(|&s| func.state_name(s) == "Error")
        .expect("functional chain has an Error state");
    Ok(TaskReliability {
        min_exec_time: spec.params.min_exec_time(),
        avg_exec_time,
        error_prob: clre_num::util::clamp_prob(probs[&error]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_transient(p: ClrChainParams) -> Result<TaskReliability, MarkovError> {
        analyze_spec(&ClrChainSpec::transient(p))
    }

    fn base() -> ClrChainParams {
        ClrChainParams {
            exec_time: 300.0e-6,
            seu_rate: 100.0,
            m_hw: 0.0,
            m_impl_ssw: 0.0,
            cov_det: 0.0,
            m_tol: 0.0,
            m_asw: 0.0,
            intervals: 1,
            t_det: 0.0,
            t_tol: 0.0,
            t_chk: 0.0,
            p_chk_err: 0.0,
        }
    }

    #[test]
    fn digest_is_exact_bits() {
        let p = base();
        assert_eq!(p.digest(), base().digest(), "digest is a pure function");

        // Any single-field change — even a sign flip on zero — must move
        // the digest: the cache keys on exact bit patterns.
        let mut q = base();
        q.t_det = -0.0;
        assert_ne!(p.digest(), q.digest(), "-0.0 and 0.0 are distinct keys");
        let mut q = base();
        q.intervals = 2;
        assert_ne!(p.digest(), q.digest());
        let mut q = base();
        q.exec_time = f64::from_bits(p.exec_time.to_bits() ^ 1);
        assert_ne!(p.digest(), q.digest(), "one ULP is a different key");
    }

    /// The digests key every solver-fault schedule, so their exact values
    /// are a reproducibility format: a change to the hash, the field order
    /// or the mechanism words must fail here, not silently move every
    /// recorded chaos run onto a different schedule.
    #[test]
    fn persistent_digests_are_pinned() {
        let bare = ClrChainParams::unprotected(300.0e-6, 100.0);
        let prot = ClrChainParams {
            intervals: 3,
            t_chk: 12.0e-6,
            p_chk_err: 1.0e-4,
            ..protected()
        };
        assert_eq!(bare.digest(), 0x1994_9f0e_d66c_067c);
        assert_eq!(prot.digest(), 0x63f4_faa7_b821_6c9b);
        assert_eq!(
            ClrChainSpec::transient(prot).digest(),
            0x63f4_faa7_b821_6c9b
        );
        let perm = ClrChainSpec::permanent_aging(prot, 40.0).digest();
        assert_eq!(perm, 0xa0d8_c5f6_3a11_c6be);
        assert_eq!(
            ClrChainSpec::permanent_aging(bare, 0.0).digest(),
            0x7aba_b4de_614a_5dbd,
            "a zero permanent rate still folds the mechanism words"
        );

        let plan = SolverFaultPlan::new(42, 500_000, 500_000);
        let digests = [bare.digest(), prot.digest(), perm, 0, 1, 2, 3, u64::MAX];
        let primary: Vec<bool> = digests.iter().map(|&d| plan.primary_fails(d)).collect();
        let retry: Vec<bool> = digests.iter().map(|&d| plan.retry_fails(d)).collect();
        assert_eq!(
            primary,
            [false, true, true, true, true, false, false, false]
        );
        assert_eq!(retry, [true, false, false, false, false, false, true, true]);
    }

    #[test]
    fn unprotected_matches_closed_form() {
        let p = ClrChainParams::unprotected(300.0e-6, 100.0);
        let r = analyze_transient(p).unwrap();
        let p_err = 1.0 - (-100.0 * 300.0e-6f64).exp();
        assert!((r.error_prob - p_err).abs() < 1e-12);
        assert!((r.avg_exec_time - 300.0e-6).abs() < 1e-12);
        assert_eq!(r.min_exec_time, 300.0e-6);
    }

    #[test]
    fn hw_masking_reduces_error_not_time() {
        let mut p = base();
        let r0 = analyze_transient(p).unwrap();
        p.m_hw = 0.9;
        let r1 = analyze_transient(p).unwrap();
        assert!(r1.error_prob < r0.error_prob);
        assert!((r1.error_prob / r0.error_prob - 0.1).abs() < 1e-9);
        assert!((r1.avg_exec_time - r0.avg_exec_time).abs() < 1e-15);
    }

    #[test]
    fn implicit_masking_stacks_multiplicatively() {
        let mut p = base();
        p.m_hw = 0.5;
        p.m_impl_ssw = 0.2;
        let r = analyze_transient(p).unwrap();
        let raw = 1.0 - (-100.0 * 300.0e-6f64).exp();
        assert!((r.error_prob - raw * 0.5 * 0.8).abs() < 1e-12);
    }

    #[test]
    fn asw_masks_undetected_errors() {
        let mut p = base();
        p.m_asw = 0.93;
        let r = analyze_transient(p).unwrap();
        let raw = 1.0 - (-100.0 * 300.0e-6f64).exp();
        assert!((r.error_prob - raw * (1.0 - 0.93)).abs() < 1e-12);
    }

    #[test]
    fn retry_trades_time_for_reliability() {
        let mut p = base();
        p.cov_det = 0.9;
        p.m_tol = 0.97;
        p.t_det = 15.0e-6;
        p.t_tol = 6.0e-6;
        let r = analyze_transient(p).unwrap();
        let unprotected = analyze_transient(base()).unwrap();
        assert!(r.error_prob < 0.25 * unprotected.error_prob);
        assert!(r.avg_exec_time > unprotected.avg_exec_time);
        assert_eq!(r.min_exec_time, 300.0e-6 + 15.0e-6);
    }

    #[test]
    fn checkpointing_bounds_reexecution_time() {
        // With detection on, more intervals cut the re-execution cost per
        // detected error, so average time decreases with k at high λ.
        let mut p = base();
        p.seu_rate = 3000.0; // very faulty environment
        p.cov_det = 0.95;
        p.m_tol = 0.98;
        p.t_det = 3.0e-6;
        p.t_tol = 3.0e-6;
        p.t_chk = 2.0e-6;
        p.intervals = 1;
        let r1 = analyze_transient(p).unwrap();
        p.intervals = 4;
        let r4 = analyze_transient(p).unwrap();
        assert!(
            r4.avg_exec_time < r1.avg_exec_time,
            "k=4 {} should beat k=1 {}",
            r4.avg_exec_time,
            r1.avg_exec_time
        );
        // And min time grows with checkpoint overhead.
        assert!(r4.min_exec_time > r1.min_exec_time);
    }

    #[test]
    fn checkpoint_corruption_adds_error_floor() {
        let mut p = base();
        p.intervals = 3;
        p.cov_det = 0.99;
        p.m_tol = 0.99;
        p.m_hw = 0.9;
        p.m_asw = 0.9;
        p.p_chk_err = 0.0;
        let clean = analyze_transient(p).unwrap();
        p.p_chk_err = 0.01;
        let dirty = analyze_transient(p).unwrap();
        assert!(dirty.error_prob > clean.error_prob + 0.015);
    }

    #[test]
    fn absorption_probs_sum_to_one() {
        let mut p = base();
        p.m_hw = 0.7;
        p.cov_det = 0.95;
        p.m_tol = 0.98;
        p.m_asw = 0.55;
        p.intervals = 3;
        p.p_chk_err = 1e-4;
        let (c, s) = functional_chain_spec(&ClrChainSpec::transient(p)).unwrap();
        let probs = c.absorption_probabilities(s).unwrap();
        let total: f64 = probs.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn chain_shapes() {
        let mut p = base();
        p.intervals = 3;
        let (t, _) = timing_chain_spec(&ClrChainSpec::transient(p)).unwrap();
        // 3 blocks × 6 states + 2 checkpoints + End.
        assert_eq!(t.state_count(), 3 * 6 + 2 + 1);
        assert_eq!(t.absorbing_states().len(), 1);
        let (f, _) = functional_chain_spec(&ClrChainSpec::transient(p)).unwrap();
        assert_eq!(f.state_count(), 3 * 6 + 2 + 2);
        assert_eq!(f.absorbing_states().len(), 2);
    }

    #[test]
    fn unequal_intervals_uniform_matches_equal() {
        let mut p = base();
        p.intervals = 4;
        p.cov_det = 0.95;
        p.m_tol = 0.98;
        p.t_det = 4.0e-6;
        p.t_tol = 2.0e-6;
        p.t_chk = 3.0e-6;
        p.seu_rate = 1500.0;
        let equal = analyze_transient(p).unwrap();
        let uniform =
            analyze_with_intervals_spec(&ClrChainSpec::transient(p), &[2.0, 2.0, 2.0, 2.0])
                .unwrap();
        assert!((equal.avg_exec_time - uniform.avg_exec_time).abs() < 1e-15);
        assert!((equal.error_prob - uniform.error_prob).abs() < 1e-15);
    }

    #[test]
    fn front_loading_work_beats_back_loading_under_rising_risk() {
        // With roll-back recovery, an error in a *long* interval wastes
        // more time. Since every interval is equally error-prone per unit
        // time, the expected time depends on how re-execution cost is
        // distributed — both skews must at least differ from uniform and
        // mirror each other (symmetry of the chain in interval order for
        // timing is broken only by checkpoint placement).
        let mut p = base();
        p.intervals = 2;
        p.cov_det = 0.95;
        p.m_tol = 0.98;
        p.t_tol = 2.0e-6;
        p.t_chk = 3.0e-6;
        p.seu_rate = 3000.0;
        let uniform =
            analyze_with_intervals_spec(&ClrChainSpec::transient(p), &[1.0, 1.0]).unwrap();
        let front = analyze_with_intervals_spec(&ClrChainSpec::transient(p), &[0.8, 0.2]).unwrap();
        let back = analyze_with_intervals_spec(&ClrChainSpec::transient(p), &[0.2, 0.8]).unwrap();
        assert!(front.avg_exec_time > uniform.avg_exec_time);
        assert!(back.avg_exec_time > uniform.avg_exec_time);
        // Uniform intervals minimize expected re-execution for equal
        // per-unit risk — the classic equidistant-checkpoint result.
        assert!((front.avg_exec_time - back.avg_exec_time).abs() < 1e-9);
    }

    #[test]
    fn unequal_intervals_validate_weights() {
        let mut p = base();
        p.intervals = 3;
        assert!(analyze_with_intervals_spec(&ClrChainSpec::transient(p), &[1.0, 1.0]).is_err()); // wrong len
        assert!(
            analyze_with_intervals_spec(&ClrChainSpec::transient(p), &[1.0, -1.0, 1.0]).is_err()
        );
        assert!(
            analyze_with_intervals_spec(&ClrChainSpec::transient(p), &[0.0, 0.0, 0.0]).is_err()
        );
    }

    #[test]
    fn rejects_out_of_domain_parameters() {
        let mut p = base();
        p.m_hw = 1.5;
        assert!(analyze_transient(p).is_err());
        let mut p = base();
        p.exec_time = 0.0;
        assert!(analyze_transient(p).is_err());
        let mut p = base();
        p.seu_rate = -1.0;
        assert!(analyze_transient(p).is_err());
        let mut p = base();
        p.t_tol = f64::NAN;
        assert!(analyze_transient(p).is_err());
    }

    #[test]
    fn robust_passthrough_when_solver_healthy() {
        let mut p = base();
        p.m_hw = 0.6;
        p.intervals = 2;
        let r = analyze_robust_spec(&ClrChainSpec::transient(p)).unwrap();
        assert!(!r.degraded);
        assert!(!r.retried);
        assert_eq!(r.reliability, analyze_transient(p).unwrap());
    }

    #[test]
    fn robust_degrades_on_injected_numeric_failure() {
        let mut p = base();
        p.cov_det = 0.9;
        p.m_tol = 0.97;
        p.t_det = 5.0e-6;
        let fail = |_: &ClrChainSpec| -> Result<TaskReliability, MarkovError> {
            Err(MarkovError::Numeric(clre_num::NumError::Singular {
                pivot: 0,
            }))
        };
        let r = analyze_robust_with_spec(&ClrChainSpec::transient(p), fail, fail).unwrap();
        assert!(r.degraded);
        assert!(r.retried);
        // Single interval: fallback is the exact closed form.
        let exact = analyze_transient(p).unwrap();
        assert!((r.reliability.avg_exec_time - exact.avg_exec_time).abs() < 1e-12);
        assert!((r.reliability.error_prob - exact.error_prob).abs() < 1e-12);
    }

    #[test]
    fn robust_degrades_on_nonfinite_metrics() {
        let p = base();
        let poison = |q: &ClrChainSpec| {
            let mut m = analyze_spec(q)?;
            m.avg_exec_time = f64::NAN;
            Ok(m)
        };
        let r = analyze_robust_with_spec(&ClrChainSpec::transient(p), poison, poison).unwrap();
        assert!(r.degraded);
        assert!(r.retried);
        assert!(r.reliability.avg_exec_time.is_finite());
    }

    #[test]
    fn scaled_retry_rescues_failed_primary_without_degrading() {
        let mut p = base();
        p.m_hw = 0.6;
        p.intervals = 3;
        p.cov_det = 0.9;
        p.t_chk = 2.0e-6;
        let r = analyze_robust_with_spec(
            &ClrChainSpec::transient(p),
            |_| {
                Err(MarkovError::Numeric(clre_num::NumError::Singular {
                    pivot: 1,
                }))
            },
            analyze_scaled_spec,
        )
        .unwrap();
        assert!(!r.degraded, "successful retry must not be tagged degraded");
        assert!(r.retried);
        // The rescued answer is the exact solver's, not the closed form's.
        let exact = analyze_transient(p).unwrap();
        assert!((r.reliability.avg_exec_time - exact.avg_exec_time).abs() < 1e-12);
        assert!((r.reliability.error_prob - exact.error_prob).abs() < 1e-12);
    }

    #[test]
    fn analyze_scaled_matches_plain_analysis() {
        let mut p = base();
        p.m_hw = 0.8;
        p.cov_det = 0.95;
        p.m_tol = 0.98;
        p.intervals = 4;
        p.t_det = 5.0e-6;
        p.t_chk = 3.0e-6;
        p.p_chk_err = 0.01;
        let plain = analyze_transient(p).unwrap();
        let scaled = analyze_scaled_spec(&ClrChainSpec::transient(p)).unwrap();
        assert!((plain.avg_exec_time - scaled.avg_exec_time).abs() / plain.avg_exec_time < 1e-12);
        assert!((plain.error_prob - scaled.error_prob).abs() < 1e-12);
        assert_eq!(plain.min_exec_time, scaled.min_exec_time);
    }

    #[test]
    fn robust_fallback_is_exact_in_fault_free_limit() {
        let mut p = base();
        p.seu_rate = 0.0;
        p.intervals = 4;
        p.cov_det = 0.9;
        p.t_det = 5.0e-6;
        p.t_chk = 3.0e-6;
        let exact = analyze_transient(p).unwrap();
        let fail = |_: &ClrChainSpec| -> Result<TaskReliability, MarkovError> {
            Err(MarkovError::Numeric(clre_num::NumError::RaggedRows))
        };
        let degraded = analyze_robust_with_spec(&ClrChainSpec::transient(p), fail, fail).unwrap();
        assert!(degraded.degraded);
        assert!((degraded.reliability.avg_exec_time - exact.avg_exec_time).abs() < 1e-15);
        assert_eq!(degraded.reliability.error_prob, exact.error_prob);
        assert_eq!(degraded.reliability.min_exec_time, exact.min_exec_time);
    }

    #[test]
    fn robust_fallback_tracks_exact_multi_interval_solution() {
        // Collapsing intervals is first-order exact in λ·T: the degraded
        // answer must stay within 1% (relative) of the matrix solution.
        let mut p = base();
        p.intervals = 3;
        p.m_hw = 0.8;
        p.cov_det = 0.95;
        p.m_tol = 0.98;
        p.p_chk_err = 0.01;
        p.t_chk = 2.0e-6;
        let exact = analyze_transient(p).unwrap();
        let fail = |_: &ClrChainSpec| -> Result<TaskReliability, MarkovError> {
            Err(MarkovError::NotAbsorbing)
        };
        let degraded = analyze_robust_with_spec(&ClrChainSpec::transient(p), fail, fail).unwrap();
        assert!(degraded.degraded);
        let rel = (degraded.reliability.error_prob - exact.error_prob).abs() / exact.error_prob;
        assert!(rel < 1e-2, "relative error {rel}");
        let rel_t =
            (degraded.reliability.avg_exec_time - exact.avg_exec_time).abs() / exact.avg_exec_time;
        assert!(rel_t < 1e-2, "relative time error {rel_t}");
    }

    #[test]
    fn robust_propagates_domain_errors() {
        let mut p = base();
        p.m_hw = 1.5;
        assert!(analyze_robust_spec(&ClrChainSpec::transient(p)).is_err());
    }

    #[test]
    fn solver_fault_plan_is_deterministic_and_salted() {
        let plan = SolverFaultPlan::new(42, 200_000, 100_000);
        let digests: Vec<u64> = (0..200u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let primary: Vec<bool> = digests.iter().map(|&d| plan.primary_fails(d)).collect();
        assert!(primary.iter().any(|&b| b), "20% of 200 draws should fire");
        assert!(!primary.iter().all(|&b| b));
        // Pure in (seed, digest, stage): reruns and the two stages agree
        // with themselves, a different seed disagrees somewhere.
        assert_eq!(
            primary,
            digests
                .iter()
                .map(|&d| plan.primary_fails(d))
                .collect::<Vec<_>>()
        );
        let other = SolverFaultPlan::new(43, 200_000, 100_000);
        assert_ne!(
            primary,
            digests
                .iter()
                .map(|&d| other.primary_fails(d))
                .collect::<Vec<_>>()
        );
        let never = SolverFaultPlan::new(42, 0, 0);
        assert!(digests.iter().all(|&d| !never.primary_fails(d)));
    }

    #[test]
    fn injected_solver_faults_walk_the_recovery_ladder() {
        let p = base();
        let exact = analyze_robust_spec(&ClrChainSpec::transient(p)).unwrap();
        assert!(!exact.retried && !exact.degraded);
        // Primary always fails → the scaled retry answers, exactly.
        let retry_only = analyze_robust_chaos_spec(
            &ClrChainSpec::transient(p),
            &SolverFaultPlan::new(1, 1_000_000, 0),
        )
        .unwrap();
        assert!(retry_only.retried && !retry_only.degraded);
        assert_eq!(
            retry_only.reliability.error_prob.to_bits(),
            analyze_scaled_spec(&ClrChainSpec::transient(p))
                .unwrap()
                .error_prob
                .to_bits(),
            "a successful retry is the scaled solver's exact answer"
        );
        // Both fail → degraded closed form, still close to exact.
        let degraded = analyze_robust_chaos_spec(
            &ClrChainSpec::transient(p),
            &SolverFaultPlan::new(1, 1_000_000, 1_000_000),
        )
        .unwrap();
        assert!(degraded.retried && degraded.degraded);
        let rel = (degraded.reliability.avg_exec_time - exact.reliability.avg_exec_time).abs()
            / exact.reliability.avg_exec_time;
        assert!(rel < 1e-2, "fallback stays close: {rel}");
        // No plan firing → bit-identical to the fault-free analysis.
        let calm =
            analyze_robust_chaos_spec(&ClrChainSpec::transient(p), &SolverFaultPlan::new(1, 0, 0))
                .unwrap();
        assert_eq!(calm, exact);
    }

    #[test]
    fn zero_seu_rate_is_fault_free() {
        let mut p = base();
        p.seu_rate = 0.0;
        p.cov_det = 0.9;
        p.m_tol = 0.97;
        p.t_det = 10.0e-6;
        let r = analyze_transient(p).unwrap();
        assert_eq!(r.error_prob, 0.0);
        assert!((r.avg_exec_time - r.min_exec_time).abs() < 1e-15);
    }

    fn protected() -> ClrChainParams {
        ClrChainParams {
            m_hw: 0.7,
            m_impl_ssw: 0.05,
            cov_det: 0.9,
            m_tol: 0.97,
            m_asw: 0.55,
            t_det: 10.0e-6,
            t_tol: 5.0e-6,
            ..base()
        }
    }

    #[test]
    fn zero_perm_rate_is_bit_identical_to_transient() {
        let p = protected();
        let transient = analyze_transient(p).unwrap();
        let zero_perm = analyze_spec(&ClrChainSpec::permanent_aging(p, 0.0)).unwrap();
        assert_eq!(
            transient.error_prob.to_bits(),
            zero_perm.error_prob.to_bits()
        );
        assert_eq!(
            transient.avg_exec_time.to_bits(),
            zero_perm.avg_exec_time.to_bits()
        );
        // The chain itself must also not grow a PermRel state at rate 0:
        // same state count → same solver trajectory.
        let (plain, _) = functional_chain_spec(&ClrChainSpec::transient(p)).unwrap();
        let (gated, _) = functional_chain_spec(&ClrChainSpec::permanent_aging(p, 0.0)).unwrap();
        assert_eq!(plain.state_count(), gated.state_count());
    }

    #[test]
    fn permanent_chain_adds_one_state_per_interval() {
        let p = ClrChainParams {
            intervals: 3,
            t_chk: 12.0e-6,
            p_chk_err: 1.0e-4,
            ..protected()
        };
        let spec = ClrChainSpec::permanent_aging(p, 40.0);
        let (plain, _) = functional_chain_spec(&ClrChainSpec::transient(p)).unwrap();
        let (perm, _) = functional_chain_spec(&spec).unwrap();
        assert_eq!(
            perm.state_count(),
            plain.state_count() + 3,
            "one PermRel state per inter-checkpoint interval"
        );
    }

    #[test]
    fn permanent_error_prob_is_monotone_in_perm_rate() {
        let p = protected();
        let mut last = analyze_transient(p).unwrap().error_prob;
        for rate in [1.0, 10.0, 100.0, 1000.0] {
            let r = analyze_spec(&ClrChainSpec::permanent_aging(p, rate)).unwrap();
            assert!(
                r.error_prob > last,
                "perm_rate {rate}: {} should exceed {last}",
                r.error_prob
            );
            last = r.error_prob;
        }
    }

    #[test]
    fn hardware_redundancy_masks_permanent_faults() {
        // Permanent faults bypass checkpointing and ASW coding, so raising
        // temporal-protection knobs leaves the permanent residue intact,
        // while raising m_hw (spatial redundancy / TMR) suppresses it.
        let exposed = ClrChainParams {
            m_hw: 0.0,
            ..protected()
        };
        let spatial = ClrChainParams {
            m_hw: 0.95,
            ..protected()
        };
        let rate = 200.0;
        let e = analyze_spec(&ClrChainSpec::permanent_aging(exposed, rate)).unwrap();
        let s = analyze_spec(&ClrChainSpec::permanent_aging(spatial, rate)).unwrap();
        assert!(
            s.error_prob < e.error_prob * 0.2,
            "{} vs {}",
            s.error_prob,
            e.error_prob
        );
        // Cranking software tolerance instead barely moves the floor.
        let temporal = ClrChainParams {
            cov_det: 0.999,
            m_tol: 0.999,
            m_asw: 0.999,
            ..exposed
        };
        let t = analyze_spec(&ClrChainSpec::permanent_aging(temporal, rate)).unwrap();
        let perm_only_floor = analyze_spec(&ClrChainSpec::permanent_aging(
            ClrChainParams {
                seu_rate: 0.0,
                ..exposed
            },
            rate,
        ))
        .unwrap()
        .error_prob;
        assert!(
            t.error_prob >= perm_only_floor * 0.99,
            "software knobs cannot dig below the permanent floor: {} vs {perm_only_floor}",
            t.error_prob
        );
    }

    #[test]
    fn spec_digest_separates_mechanisms() {
        let p = protected();
        let transient = ClrChainSpec::transient(p);
        assert_eq!(
            transient.digest(),
            p.digest(),
            "transient spec digests are the historic parameter digests"
        );
        let perm = ClrChainSpec::permanent_aging(p, 40.0);
        assert_ne!(perm.digest(), transient.digest());
        assert_ne!(
            perm.digest(),
            ClrChainSpec::permanent_aging(p, 41.0).digest(),
            "digest keys on the exact permanent rate"
        );
    }

    #[test]
    fn permanent_spec_rejects_invalid_rates() {
        let p = protected();
        assert!(analyze_spec(&ClrChainSpec::permanent_aging(p, -1.0)).is_err());
        assert!(analyze_spec(&ClrChainSpec::permanent_aging(p, f64::NAN)).is_err());
        assert!(analyze_spec(&ClrChainSpec::permanent_aging(p, f64::INFINITY)).is_err());
    }

    #[test]
    fn permanent_robust_ladder_degrades_cleanly() {
        let p = ClrChainParams {
            intervals: 2,
            t_chk: 12.0e-6,
            p_chk_err: 1.0e-4,
            ..protected()
        };
        let spec = ClrChainSpec::permanent_aging(p, 40.0);
        let exact = analyze_robust_spec(&spec).unwrap();
        assert!(!exact.degraded && !exact.retried);
        let degraded =
            analyze_robust_chaos_spec(&spec, &SolverFaultPlan::new(1, 1_000_000, 1_000_000))
                .unwrap();
        assert!(degraded.degraded && degraded.retried);
        let rel = (degraded.reliability.avg_exec_time - exact.reliability.avg_exec_time).abs()
            / exact.reliability.avg_exec_time;
        assert!(rel < 1e-2, "permanent fallback stays close: {rel}");
        // The fallback keeps the mechanism: it must sit above the
        // transient-only answer for the same parameters.
        let transient = analyze_robust_spec(&ClrChainSpec::transient(p)).unwrap();
        assert!(
            degraded.reliability.error_prob > transient.reliability.error_prob,
            "degraded permanent analysis must not silently drop the mechanism"
        );
    }

    fn bits(r: &TaskReliability) -> [u64; 3] {
        [
            r.min_exec_time.to_bits(),
            r.avg_exec_time.to_bits(),
            r.error_prob.to_bits(),
        ]
    }

    #[test]
    fn structured_solver_matches_dense_bitwise() {
        let weights: [&[f64]; 6] = [
            &[1.0],
            &[3.0, 1.0],
            &[0.2, 0.5, 0.3],
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 1.0, 1.0, 1.0, 0.5],
            &[0.1, 0.9, 0.4, 0.4, 0.2, 0.7],
        ];
        for k in 1..=6u32 {
            for perm_rate in [0.0, 40.0] {
                for seu_rate in [0.0, 100.0, 3000.0] {
                    let p = ClrChainParams {
                        intervals: k,
                        seu_rate,
                        t_chk: 12.0e-6,
                        p_chk_err: 1.0e-4,
                        ..protected()
                    };
                    let spec = ClrChainSpec::permanent_aging(p, perm_rate);
                    for w in [None, Some(weights[k as usize - 1])] {
                        for scaled in [false, true] {
                            let fast = structured::analyze(&spec, w, scaled)
                                .expect("no dense fallback on healthy specs");
                            let dense = analyze_dense(&spec, w, scaled).unwrap();
                            assert_eq!(bits(&fast), bits(&dense), "k={k} {spec:?} {w:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn negative_zero_residence_takes_the_dense_path() {
        let spec = ClrChainSpec::transient(ClrChainParams {
            intervals: 3,
            t_tol: -0.0,
            t_chk: -0.0,
            ..protected()
        });
        assert!(structured::analyze(&spec, None, false).is_none());
        let r = analyze_spec(&spec).unwrap();
        assert_eq!(bits(&r), bits(&analyze_dense(&spec, None, false).unwrap()));
    }

    #[test]
    fn failing_specs_take_the_dense_path() {
        // m_Tol = 1 with certain faults never terminates: singular I − Q.
        let looping = ClrChainSpec::transient(ClrChainParams {
            cov_det: 1.0,
            m_tol: 1.0,
            seu_rate: 1.0e300,
            ..base()
        });
        // An overflowing residence fails the builder's residence check.
        let overflow = ClrChainSpec::transient(ClrChainParams {
            t_det: f64::MAX,
            ..ClrChainParams::unprotected(f64::MAX, 1.0)
        });
        for spec in [looping, overflow] {
            for scaled in [false, true] {
                assert!(structured::analyze(&spec, None, scaled).is_none());
                assert_eq!(
                    analyze_via_spec(&spec, None, scaled),
                    analyze_dense(&spec, None, scaled)
                );
            }
        }
        assert_eq!(
            analyze_spec(&looping).unwrap_err(),
            MarkovError::NotAbsorbing
        );
    }
}
