//! Exact closed-form solution for single-interval configurations, used to
//! cross-validate the matrix-based Markov solver.
//!
//! For `intervals = 1` the chain of [`crate::clr`] has a single recovery
//! loop (Exec → … → SSWTol → Exec), so absorption reduces to a geometric
//! series. Per execution attempt define:
//!
//! * `q_retry` — probability the attempt ends in a detected-and-tolerated
//!   error (roll back and retry),
//! * `q_err`  — probability the attempt escapes with an error,
//! * `q_clean = 1 − q_retry − q_err`.
//!
//! Then `ErrProb = q_err / (1 − q_retry)` and
//! `AvgExT = (T_exec + T_Det + p_tol·T_Tol) / (1 − q_retry)` where `p_tol`
//! is the per-attempt probability of entering the tolerance state.
//!
//! The unit and property tests in this crate assert agreement between this
//! module and the general solver to ~1e-12, which validates the matrix
//! pipeline (builder → canonical form → LU solve) end to end.

use crate::clr::{ClrChainSpec, FaultMechanism};
use crate::{ClrChainParams, MarkovError, TaskReliability};

/// The transient single-interval solution behind [`analyze_spec`].
fn analyze(params: &ClrChainParams) -> Result<TaskReliability, MarkovError> {
    if params.intervals != 1 {
        return Err(MarkovError::InvalidResidence {
            state: 0,
            value: params.intervals as f64,
        });
    }
    let p_ne = (-params.seu_rate * params.exec_time).exp();
    // Probability an error survives hardware and implicit SSW masking.
    let p_escaped = (1.0 - p_ne) * (1.0 - params.m_hw) * (1.0 - params.m_impl_ssw);
    let p_tol = p_escaped * params.cov_det;
    let q_retry = p_tol * params.m_tol;
    let q_err =
        p_tol * (1.0 - params.m_tol) + p_escaped * (1.0 - params.cov_det) * (1.0 - params.m_asw);
    if q_retry >= 1.0 {
        return Err(MarkovError::NotAbsorbing);
    }
    let attempts = 1.0 / (1.0 - q_retry);
    let time_per_attempt = params.exec_time + params.t_det + p_tol * params.t_tol;
    Ok(TaskReliability {
        min_exec_time: params.min_exec_time(),
        avg_exec_time: time_per_attempt * attempts,
        error_prob: clre_num::util::clamp_prob(q_err * attempts),
    })
}

/// Exact single-interval solution for a mechanism-aware [`ClrChainSpec`].
///
/// For [`FaultMechanism::Transient`] this is the geometric series above.
/// For [`FaultMechanism::PermanentAging`] the competing-risk split is
/// applied: with total rate `λ = λ_t + λ_p`, a fault occurs with
/// `1 − exp(−λT)` and is transient with probability `λ_t/λ`. Transient
/// faults traverse the usual HWRel → SSW → ASW masking ladder; permanent
/// faults are either masked spatially by the hardware layer (`m_HW`, e.g.
/// TMR voting) or absorb into `Error` directly — software checkpointing
/// and ASW coding cannot repair a dead resource. A zero permanent rate
/// takes the transient path, so its result is bit-identical to the
/// transient spec's.
///
/// # Errors
///
/// Returns [`MarkovError::InvalidResidence`] (reusing the chain's
/// validation) if `spec.params.intervals != 1` — multi-interval
/// configurations have no simple closed form and must use
/// [`crate::clr::analyze_spec`]. Also rejects invalid parameters or
/// mechanism rates via [`ClrChainSpec::validate`].
///
/// # Examples
///
/// ```
/// use clre_markov::{closed_form, clr, ClrChainParams, ClrChainSpec};
///
/// # fn main() -> Result<(), clre_markov::MarkovError> {
/// let spec = ClrChainSpec::transient(ClrChainParams {
///     cov_det: 0.9, m_tol: 0.97, t_det: 10e-6, t_tol: 5e-6,
///     ..ClrChainParams::unprotected(300e-6, 200.0)
/// });
/// let exact = closed_form::analyze_spec(&spec)?;
/// let markov = clr::analyze_spec(&spec)?;
/// assert!((exact.error_prob - markov.error_prob).abs() < 1e-12);
/// assert!((exact.avg_exec_time - markov.avg_exec_time).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn analyze_spec(spec: &ClrChainSpec) -> Result<TaskReliability, MarkovError> {
    spec.validate()?;
    let params = &spec.params;
    match spec.mechanism {
        FaultMechanism::Transient => analyze(params),
        mechanism if mechanism.perm_rate() == 0.0 => analyze(params),
        mechanism => {
            if params.intervals != 1 {
                return Err(MarkovError::InvalidResidence {
                    state: 0,
                    value: params.intervals as f64,
                });
            }
            let perm_rate = mechanism.perm_rate();
            let lambda = params.seu_rate + perm_rate;
            let p_event = 1.0 - (-lambda * params.exec_time).exp();
            let transient_frac = if lambda > 0.0 {
                params.seu_rate / lambda
            } else {
                1.0
            };
            let p_transient = p_event * transient_frac;
            let p_permanent = p_event * (1.0 - transient_frac);
            // Transient arm: the same masking ladder as `analyze`.
            let p_escaped = p_transient * (1.0 - params.m_hw) * (1.0 - params.m_impl_ssw);
            let p_tol = p_escaped * params.cov_det;
            let q_retry = p_tol * params.m_tol;
            // Permanent arm: only spatial hardware redundancy masks.
            let q_err = p_tol * (1.0 - params.m_tol)
                + p_escaped * (1.0 - params.cov_det) * (1.0 - params.m_asw)
                + p_permanent * (1.0 - params.m_hw);
            if q_retry >= 1.0 {
                return Err(MarkovError::NotAbsorbing);
            }
            let attempts = 1.0 / (1.0 - q_retry);
            let time_per_attempt = params.exec_time + params.t_det + p_tol * params.t_tol;
            Ok(TaskReliability {
                min_exec_time: params.min_exec_time(),
                avg_exec_time: time_per_attempt * attempts,
                error_prob: clre_num::util::clamp_prob(q_err * attempts),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clr;

    fn cases() -> Vec<ClrChainParams> {
        let base = ClrChainParams::unprotected(250.0e-6, 300.0);
        vec![
            base,
            ClrChainParams { m_hw: 0.7, ..base },
            ClrChainParams {
                m_hw: 0.5,
                m_impl_ssw: 0.1,
                m_asw: 0.93,
                ..base
            },
            ClrChainParams {
                cov_det: 0.9,
                m_tol: 0.97,
                t_det: 12.0e-6,
                t_tol: 5.0e-6,
                ..base
            },
            ClrChainParams {
                m_hw: 0.95,
                m_impl_ssw: 0.2,
                cov_det: 0.95,
                m_tol: 0.98,
                m_asw: 0.55,
                t_det: 15.0e-6,
                t_tol: 7.0e-6,
                ..base
            },
        ]
    }

    #[test]
    fn agrees_with_markov_solver() {
        for p in cases() {
            let a = analyze(&p).unwrap();
            let b = clr::analyze_spec(&ClrChainSpec::transient(p)).unwrap();
            assert!(
                (a.error_prob - b.error_prob).abs() < 1e-12,
                "error prob mismatch for {p:?}: {} vs {}",
                a.error_prob,
                b.error_prob
            );
            assert!(
                (a.avg_exec_time - b.avg_exec_time).abs() < 1e-12,
                "avg time mismatch for {p:?}: {} vs {}",
                a.avg_exec_time,
                b.avg_exec_time
            );
            assert_eq!(a.min_exec_time, b.min_exec_time);
        }
    }

    #[test]
    fn permanent_oracle_agrees_with_markov_solver() {
        for p in cases() {
            for rate in [0.0, 5.0, 120.0, 900.0] {
                let spec = ClrChainSpec::permanent_aging(p, rate);
                let a = analyze_spec(&spec).unwrap();
                let b = clr::analyze_spec(&spec).unwrap();
                assert!(
                    (a.error_prob - b.error_prob).abs() < 1e-12,
                    "error prob mismatch for {spec:?}: {} vs {}",
                    a.error_prob,
                    b.error_prob
                );
                assert!(
                    (a.avg_exec_time - b.avg_exec_time).abs() < 1e-12,
                    "avg time mismatch for {spec:?}: {} vs {}",
                    a.avg_exec_time,
                    b.avg_exec_time
                );
            }
        }
    }

    #[test]
    fn transient_spec_is_bit_identical_to_legacy() {
        for p in cases() {
            let legacy = analyze(&p).unwrap();
            let spec = analyze_spec(&ClrChainSpec::transient(p)).unwrap();
            assert_eq!(legacy.error_prob.to_bits(), spec.error_prob.to_bits());
            assert_eq!(legacy.avg_exec_time.to_bits(), spec.avg_exec_time.to_bits());
        }
    }

    #[test]
    fn rejects_multi_interval() {
        let p = ClrChainParams {
            intervals: 2,
            ..ClrChainParams::unprotected(1e-4, 100.0)
        };
        assert!(analyze(&p).is_err());
    }

    #[test]
    fn degenerate_infinite_retry_detected() {
        // With perfect detection+tolerance and p_ne underflowing to 0,
        // every attempt retries forever: q_retry = 1 exactly, which both
        // solvers must reject as non-absorbing.
        let p = ClrChainParams {
            cov_det: 1.0,
            m_tol: 1.0,
            ..ClrChainParams::unprotected(1.0, 1e12)
        };
        assert_eq!(analyze(&p).unwrap_err(), MarkovError::NotAbsorbing);
        assert_eq!(
            clr::analyze_spec(&ClrChainSpec::transient(p)).unwrap_err(),
            MarkovError::NotAbsorbing
        );
        // At a survivable rate the series converges: perfect tolerance
        // means zero escapes and a finite (if inflated) execution time.
        let ok = ClrChainParams {
            cov_det: 1.0,
            m_tol: 1.0,
            ..ClrChainParams::unprotected(1.0e-4, 100.0)
        };
        let r = analyze(&ok).unwrap();
        assert!(r.avg_exec_time.is_finite());
        assert!(r.avg_exec_time > 1.0e-4);
        assert_eq!(r.error_prob, 0.0);
    }
}
