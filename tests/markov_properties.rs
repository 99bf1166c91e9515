//! Property-based tests of the Markov-chain reliability analysis: the
//! general matrix solver must agree with the loop-free closed form, the
//! physics must be monotone in every masking knob, and the structured
//! solver behind the `analyze*` entry points must reproduce the dense
//! `MarkovChain` path bit for bit.

use clrearly::markov::closed_form;
use clrearly::markov::clr::{
    analyze_robust_chaos_spec, analyze_spec, analyze_with_intervals_spec, ClrChainParams,
    ClrChainSpec, RobustAnalysis, SolverFaultPlan, TaskReliability,
};
use clrearly::markov::{MarkovChain, MarkovError, StateId};
use clrearly::num::util::clamp_prob;
use clrearly::num::Matrix;
use proptest::prelude::*;

/// The transient-mechanism analysis of `p`.
fn analyze_transient(p: ClrChainParams) -> Result<TaskReliability, MarkovError> {
    analyze_spec(&ClrChainSpec::transient(p))
}

fn arb_params() -> impl Strategy<Value = ClrChainParams> {
    (
        1.0e-5..2.0e-3f64, // exec_time
        0.0..2000.0f64,    // seu_rate
        0.0..0.99f64,      // m_hw
        0.0..0.5f64,       // m_impl_ssw
        0.0..0.99f64,      // cov_det
        0.0..0.99f64,      // m_tol
        0.0..0.99f64,      // m_asw
        0.0..0.2f64,       // det overhead fraction
        0.0..0.2f64,       // tol overhead fraction
    )
        .prop_map(
            |(exec_time, seu, m_hw, m_impl, cov, m_tol, m_asw, det, tol)| ClrChainParams {
                exec_time,
                seu_rate: seu,
                m_hw,
                m_impl_ssw: m_impl,
                cov_det: cov,
                m_tol,
                m_asw,
                intervals: 1,
                t_det: det * exec_time,
                t_tol: tol * exec_time,
                t_chk: 0.0,
                p_chk_err: 0.0,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matrix_solver_matches_closed_form(p in arb_params()) {
        let spec = ClrChainSpec::transient(p);
        let exact = closed_form::analyze_spec(&spec).expect("single-interval closed form");
        let markov = analyze_spec(&spec).expect("markov analysis");
        prop_assert!((exact.error_prob - markov.error_prob).abs() < 1e-9,
            "err: {} vs {}", exact.error_prob, markov.error_prob);
        let rel = ((exact.avg_exec_time - markov.avg_exec_time)
            / exact.avg_exec_time).abs();
        prop_assert!(rel < 1e-9, "time: {} vs {}", exact.avg_exec_time, markov.avg_exec_time);
    }

    #[test]
    fn error_prob_is_a_probability(p in arb_params()) {
        let r = analyze_transient(p).expect("markov analysis");
        prop_assert!((0.0..=1.0).contains(&r.error_prob));
        prop_assert!(r.avg_exec_time >= r.min_exec_time - 1e-12);
        prop_assert!(r.avg_exec_time.is_finite());
    }

    #[test]
    fn hw_masking_monotone(p in arb_params(), bump in 0.001..0.3f64) {
        let base = analyze_transient(p).expect("base analysis");
        let mut stronger = p;
        stronger.m_hw = (p.m_hw + bump).min(0.999);
        let better = analyze_transient(stronger).expect("bumped analysis");
        prop_assert!(better.error_prob <= base.error_prob + 1e-12);
    }

    #[test]
    fn asw_masking_monotone(p in arb_params(), bump in 0.001..0.3f64) {
        let base = analyze_transient(p).expect("base analysis");
        let mut stronger = p;
        stronger.m_asw = (p.m_asw + bump).min(0.999);
        let better = analyze_transient(stronger).expect("bumped analysis");
        prop_assert!(better.error_prob <= base.error_prob + 1e-12);
    }

    #[test]
    fn seu_rate_monotone_in_error(p in arb_params()) {
        let base = analyze_transient(p).expect("base analysis");
        let mut harsher = p;
        harsher.seu_rate = p.seu_rate * 2.0 + 10.0;
        let worse = analyze_transient(harsher).expect("harsher analysis");
        prop_assert!(worse.error_prob >= base.error_prob - 1e-12);
    }

    #[test]
    fn more_intervals_never_lose_time_at_high_fault_rates(
        base in arb_params(),
    ) {
        // With detection+tolerance active and non-trivial fault rates,
        // checkpointing bounds re-execution: avg time with k=4 must not
        // exceed k=1 by more than the checkpoint overhead it adds.
        let p1 = ClrChainParams {
            cov_det: 0.95,
            m_tol: 0.95,
            seu_rate: 2000.0,
            intervals: 1,
            t_chk: 0.01 * base.exec_time,
            ..base
        };
        let p4 = ClrChainParams { intervals: 4, ..p1 };
        let r1 = analyze_transient(p1).expect("k=1");
        let r4 = analyze_transient(p4).expect("k=4");
        // k=4 pays 3 extra checkpoints and 3 extra detection residences
        // fault-free (t_det is per inter-checkpoint interval), but each
        // detected error re-executes only a quarter of the work. The
        // deterministic overhead delta bounds any fault-free loss; allow
        // a small slack for recovery-path differences at low fault rates.
        let static_overhead = 3.0 * (p4.t_chk + p4.t_det);
        prop_assert!(
            r4.avg_exec_time <= r1.avg_exec_time * 1.05 + static_overhead + 1e-12,
            "k=4 {} vs k=1 {}", r4.avg_exec_time, r1.avg_exec_time);
        prop_assert!((r4.min_exec_time - (r1.min_exec_time + static_overhead)).abs() < 1e-15);
    }

    #[test]
    fn absorption_probabilities_always_sum_to_one(
        p in arb_params(), intervals in 1u32..5
    ) {
        let p = ClrChainParams { intervals, p_chk_err: 1e-4, t_chk: 0.02 * p.exec_time, ..p };
        let (chain, start) = clrearly::markov::clr::functional_chain_spec(&ClrChainSpec::transient(p))
            .expect("chain");
        let probs = chain.absorption_probabilities(start).expect("absorbing");
        let total: f64 = probs.values().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
    }

    // --- mechanism-aware chain templates -------------------------------

    #[test]
    fn permanent_template_matches_closed_form(
        p in arb_params(), perm_rate in 0.0..2000.0f64
    ) {
        let spec = ClrChainSpec::permanent_aging(p, perm_rate);
        let exact = closed_form::analyze_spec(&spec).expect("permanent closed form");
        let markov = analyze_spec(&spec).expect("permanent markov analysis");
        prop_assert!((exact.error_prob - markov.error_prob).abs() < 1e-9,
            "err: {} vs {}", exact.error_prob, markov.error_prob);
        let rel = ((exact.avg_exec_time - markov.avg_exec_time)
            / exact.avg_exec_time).abs();
        prop_assert!(rel < 1e-9, "time: {} vs {}", exact.avg_exec_time, markov.avg_exec_time);
    }

    #[test]
    fn zero_permanent_rate_is_bit_identical_to_transient(p in arb_params()) {
        // The mechanism layer must not perturb the transient pipeline: a
        // permanent-aging spec with zero hazard evaluates the exact
        // transient float expressions.
        let zero = analyze_spec(&ClrChainSpec::permanent_aging(p, 0.0)).expect("zero-rate spec");
        let transient = analyze_transient(p).expect("transient spec");
        prop_assert_eq!(transient.error_prob.to_bits(), zero.error_prob.to_bits());
        prop_assert_eq!(transient.avg_exec_time.to_bits(), zero.avg_exec_time.to_bits());
    }

    #[test]
    fn permanent_hazard_monotone_in_error(
        p in arb_params(), rate in 0.0..1000.0f64, bump in 1.0..1000.0f64
    ) {
        let base = analyze_spec(&ClrChainSpec::permanent_aging(p, rate))
            .expect("base permanent analysis");
        let worse = analyze_spec(&ClrChainSpec::permanent_aging(p, rate + bump))
            .expect("aged permanent analysis");
        prop_assert!(worse.error_prob >= base.error_prob - 1e-12,
            "aging must not improve reliability: {} vs {}",
            base.error_prob, worse.error_prob);
        // And the zero-hazard case is the transient floor.
        prop_assert!(base.error_prob >= analyze_transient(p).expect("transient").error_prob - 1e-12);
    }

    #[test]
    fn software_mitigation_cannot_mask_permanent_faults(
        p in arb_params(), perm_rate in 1.0..2000.0f64,
        cov in 0.0..0.99f64, tol in 0.0..0.99f64, asw in 0.0..0.99f64
    ) {
        // TMR/scrubbing limit: under a pure permanent hazard only the
        // spatial hardware layer (m_HW) masks — retuning every software
        // knob leaves the escape probability unchanged, because
        // checkpointing and ASW coding cannot repair a dead resource.
        let dead = ClrChainParams { seu_rate: 0.0, ..p };
        let base = analyze_spec(&ClrChainSpec::permanent_aging(dead, perm_rate))
            .expect("permanent-only analysis");
        let retuned = ClrChainParams { cov_det: cov, m_tol: tol, m_asw: asw, ..dead };
        let same = analyze_spec(&ClrChainSpec::permanent_aging(retuned, perm_rate))
            .expect("retuned analysis");
        prop_assert!((base.error_prob - same.error_prob).abs() < 1e-12,
            "software knobs moved a permanent-only escape: {} vs {}",
            base.error_prob, same.error_prob);
        // Hardware redundancy, by contrast, strictly helps.
        let voted = ClrChainParams { m_hw: (dead.m_hw + 0.3).min(0.999), ..dead };
        let better = analyze_spec(&ClrChainSpec::permanent_aging(voted, perm_rate))
            .expect("voted analysis");
        prop_assert!(better.error_prob <= base.error_prob + 1e-12);
    }

    #[test]
    fn permanent_absorption_probabilities_sum_to_one(
        p in arb_params(), perm_rate in 0.0..2000.0f64, intervals in 1u32..5
    ) {
        // The checkpointed (multi-interval) permanent template has no
        // closed form, so pin its structural invariant instead: the
        // chain stays absorbing and total absorption mass is one.
        let p = ClrChainParams { intervals, p_chk_err: 1e-4, t_chk: 0.02 * p.exec_time, ..p };
        let spec = ClrChainSpec::permanent_aging(p, perm_rate);
        let (chain, start) =
            clrearly::markov::clr::functional_chain_spec(&spec).expect("permanent chain");
        let probs = chain.absorption_probabilities(start).expect("absorbing");
        let total: f64 = probs.values().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
    }
}

// --- structured solver vs the dense oracle --------------------------------

/// One chain of Fig. 3 built on the public `MarkovChainBuilder`, with
/// explicit interval weights, plus what the dense analysis reads besides
/// the chain: the residence of every transient state and the transient
/// states with an `→ Error` edge. Transient states come first, so
/// transient index `i` is `StateId(i)`.
struct DenseChain {
    chain: MarkovChain,
    residence: Vec<f64>,
    to_error: Vec<usize>,
}

/// The same chain `timing_chain_spec`/`functional_chain_spec` build, for
/// already-normalized `weights`; `dense_oracle_builds_the_library_chains`
/// checks the two agree.
fn dense_chain(
    spec: &ClrChainSpec,
    weights: &[f64],
    functional: bool,
) -> Result<DenseChain, MarkovError> {
    let p = &spec.params;
    let perm_rate = spec.mechanism.perm_rate();
    let k = weights.len();
    let mut b = MarkovChain::builder();
    let mut residence = Vec::new();
    let mut state = |b: &mut clrearly::markov::MarkovChainBuilder, name: String, r: f64| {
        residence.push(r);
        b.state(name, r)
    };
    // [exec, hw, impl, det, tol, asw, perm?] per interval.
    let blocks: Vec<Vec<StateId>> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            let mut s = vec![state(&mut b, format!("Exec{i}"), p.exec_time * w + p.t_det)];
            for (name, r) in [
                ("HWRel", 0.0),
                ("SSWImpl", 0.0),
                ("SSWDet", 0.0),
                ("SSWTol", p.t_tol),
                ("ASWRel", 0.0),
            ] {
                s.push(state(&mut b, format!("{name}{i}"), r));
            }
            if perm_rate > 0.0 {
                s.push(state(&mut b, format!("PermRel{i}"), 0.0));
            }
            s
        })
        .collect();
    let chks: Vec<StateId> = (1..k)
        .map(|i| state(&mut b, format!("Chkpnt{}", i - 1), p.t_chk))
        .collect();
    let (end, err) = if functional {
        (b.absorbing("NoError"), Some(b.absorbing("Error")))
    } else {
        (b.absorbing("End"), None)
    };
    let mut to_error = Vec::new();
    for (i, s) in blocks.iter().enumerate() {
        let cont = if i + 1 < k { chks[i] } else { end };
        let w = weights[i];
        if perm_rate > 0.0 {
            let lambda = p.seu_rate + perm_rate;
            let p_none = (-lambda * p.exec_time * w).exp();
            let transient_frac = p.seu_rate / lambda;
            b.transition(s[0], cont, p_none);
            b.transition(s[0], s[1], (1.0 - p_none) * transient_frac);
            b.transition(s[0], s[6], (1.0 - p_none) * (1.0 - transient_frac));
        } else {
            let p_ne = (-p.seu_rate * p.exec_time * w).exp();
            b.transition(s[0], cont, p_ne);
            b.transition(s[0], s[1], 1.0 - p_ne);
        }
        b.transition(s[1], cont, p.m_hw);
        b.transition(s[1], s[2], 1.0 - p.m_hw);
        b.transition(s[2], cont, p.m_impl_ssw);
        b.transition(s[2], s[3], 1.0 - p.m_impl_ssw);
        b.transition(s[3], s[4], p.cov_det);
        b.transition(s[3], s[5], 1.0 - p.cov_det);
        b.transition(s[4], s[0], p.m_tol);
        match err {
            None => {
                b.transition(s[4], cont, 1.0 - p.m_tol);
                b.transition(s[5], cont, 1.0);
                if perm_rate > 0.0 {
                    b.transition(s[6], cont, 1.0);
                }
            }
            Some(err) => {
                b.transition(s[4], err, 1.0 - p.m_tol);
                b.transition(s[5], cont, p.m_asw);
                b.transition(s[5], err, 1.0 - p.m_asw);
                to_error.extend([s[4].index(), s[5].index()]);
                if perm_rate > 0.0 {
                    b.transition(s[6], cont, p.m_hw);
                    b.transition(s[6], err, 1.0 - p.m_hw);
                    to_error.push(s[6].index());
                }
            }
        }
    }
    for (i, &chk) in chks.iter().enumerate() {
        let next = blocks[i + 1][0];
        match err {
            None => {
                b.transition(chk, next, 1.0);
            }
            Some(err) => {
                b.transition(chk, next, 1.0 - p.p_chk_err);
                b.transition(chk, err, p.p_chk_err);
                to_error.push(chk.index());
            }
        }
    }
    Ok(DenseChain {
        chain: b.build()?,
        residence,
        to_error,
    })
}

/// `I − Q` exactly as `MarkovChain` forms it.
fn i_minus_q(c: &DenseChain) -> Matrix {
    let t = c.residence.len();
    let mut q = Matrix::zeros(t, t);
    for i in 0..t {
        for j in 0..t {
            q.set(i, j, c.chain.probability(StateId(i), StateId(j)));
        }
    }
    Matrix::identity(t).sub(&q).expect("square")
}

/// The dense analysis the structured solver must reproduce: both chains
/// as general `MarkovChain`s, solved with plain LU through the public
/// `MarkovChain` methods or with scaled-pivoting LU through `Matrix`.
fn dense_analysis(
    spec: &ClrChainSpec,
    weights: Option<&[f64]>,
    scaled: bool,
) -> Result<TaskReliability, MarkovError> {
    spec.validate()?;
    let k = spec.params.intervals.max(1) as usize;
    let normalized: Vec<f64> = match weights {
        None => vec![1.0 / k as f64; k],
        Some(w) => {
            let total: f64 = w.iter().sum();
            w.iter().map(|&x| x / total).collect()
        }
    };
    let timing = dense_chain(spec, &normalized, false)?;
    let avg_exec_time = if scaled {
        i_minus_q(&timing).solve_scaled(&timing.residence)?[0]
    } else {
        timing.chain.expected_time_to_absorption(StateId(0))?
    };
    let functional = dense_chain(spec, &normalized, true)?;
    let error = StateId(functional.chain.state_count() - 1);
    let error_prob = if scaled {
        let n = i_minus_q(&functional).inverse_scaled()?;
        let mut acc = 0.0;
        for &j in &functional.to_error {
            acc += n.get(0, j) * functional.chain.probability(StateId(j), error);
        }
        acc
    } else {
        functional.chain.absorption_probabilities(StateId(0))?[&error]
    };
    Ok(TaskReliability {
        min_exec_time: spec.params.min_exec_time(),
        avg_exec_time,
        error_prob: clamp_prob(error_prob),
    })
}

/// `analyze_robust_spec`'s ladder over the dense oracle under `plan`: the
/// flags the structured path must reproduce. `None` stands for the
/// degraded closed-form answer, which involves no chain solve.
fn dense_robust(
    spec: &ClrChainSpec,
    plan: &SolverFaultPlan,
) -> Result<Option<RobustAnalysis>, MarkovError> {
    let finite = |r: &TaskReliability| r.avg_exec_time.is_finite() && r.error_prob.is_finite();
    let injected = || MarkovError::Numeric(clrearly::num::NumError::Singular { pivot: 0 });
    let digest = spec.digest();
    let primary = if plan.primary_fails(digest) {
        Err(injected())
    } else {
        dense_analysis(spec, None, false)
    };
    let retry = || {
        if plan.retry_fails(digest) {
            Err(injected())
        } else {
            dense_analysis(spec, None, true)
        }
    };
    let recoverable =
        |e: &MarkovError| matches!(e, MarkovError::Numeric(_) | MarkovError::NotAbsorbing);
    match primary {
        Ok(r) if finite(&r) => Ok(Some(RobustAnalysis {
            reliability: r,
            degraded: false,
            retried: false,
        })),
        Err(e) if !recoverable(&e) => Err(e),
        _ => match retry() {
            Ok(r) if finite(&r) => Ok(Some(RobustAnalysis {
                reliability: r,
                degraded: false,
                retried: true,
            })),
            Err(e) if !recoverable(&e) => Err(e),
            _ => Ok(None),
        },
    }
}

fn bits(r: &TaskReliability) -> [u64; 3] {
    [
        r.min_exec_time.to_bits(),
        r.avg_exec_time.to_bits(),
        r.error_prob.to_bits(),
    ]
}

/// Asserts two analysis outcomes of `spec` are the same bits or the same
/// error.
fn assert_same(
    spec: &ClrChainSpec,
    fast: &Result<TaskReliability, MarkovError>,
    dense: &Result<TaskReliability, MarkovError>,
) {
    match (fast, dense) {
        (Ok(f), Ok(d)) => assert_eq!(bits(f), bits(d), "{spec:?}: {f:?} vs {d:?}"),
        (Err(f), Err(d)) => assert_eq!(f, d, "{spec:?}"),
        _ => panic!("{spec:?}: {fast:?} vs {dense:?}"),
    }
}

/// Probabilities with the exactness argument's edge cases, exact `0.0`,
/// `-0.0` and `1.0`, as likely as an interior value.
fn arb_prob() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(-0.0), Just(1.0), 0.0..1.0f64]
}

/// Random specs over k = 1..6, transient or permanent/aging (rate zero or
/// positive), with uneven interval weights for the weighted entry point.
fn arb_oracle_case() -> impl Strategy<Value = (ClrChainSpec, Vec<f64>)> {
    (
        (1.0e-5..2.0e-3f64, prop_oneof![Just(0.0), 0.0..5000.0f64]),
        (
            arb_prob(),
            arb_prob(),
            arb_prob(),
            arb_prob(),
            arb_prob(),
            arb_prob(),
        ),
        1u32..7,
        (0.0..2.0e-5f64, 0.0..2.0e-5f64, 0.0..2.0e-5f64),
        prop_oneof![Just(None), Just(Some(0.0)), (0.0..2000.0f64).prop_map(Some)],
    )
        .prop_flat_map(
            |(
                (exec_time, seu_rate),
                (m_hw, m_impl, cov, m_tol, m_asw, p_chk),
                k,
                (det, tol, chk),
                perm,
            )| {
                let params = ClrChainParams {
                    exec_time,
                    seu_rate,
                    m_hw,
                    m_impl_ssw: m_impl,
                    cov_det: cov,
                    m_tol,
                    m_asw,
                    intervals: k,
                    t_det: det,
                    t_tol: tol,
                    t_chk: chk,
                    p_chk_err: p_chk,
                };
                let spec = match perm {
                    None => ClrChainSpec::transient(params),
                    Some(rate) => ClrChainSpec::permanent_aging(params, rate),
                };
                prop::collection::vec(0.05..4.0f64, k as usize).prop_map(move |w| (spec, w))
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn structured_solver_is_bit_identical_to_dense(case in arb_oracle_case()) {
        let (spec, weights) = case;
        assert_same(&spec, &analyze_spec(&spec), &dense_analysis(&spec, None, false));
        assert_same(
            &spec,
            &analyze_with_intervals_spec(&spec, &weights),
            &dense_analysis(&spec, Some(&weights), false),
        );
        // A primary that always fails makes the ladder's answer the
        // scaled-pivoting solve's.
        let scaled = analyze_robust_chaos_spec(&spec, &SolverFaultPlan::new(0, 1_000_000, 0));
        match dense_analysis(&spec, None, true) {
            Ok(d) if d.avg_exec_time.is_finite() && d.error_prob.is_finite() => {
                let r = scaled.expect("scaled retry succeeds");
                prop_assert!(r.retried && !r.degraded);
                prop_assert_eq!(bits(&r.reliability), bits(&d));
            }
            Err(e) if !matches!(e, MarkovError::Numeric(_) | MarkovError::NotAbsorbing) => {
                prop_assert_eq!(scaled.unwrap_err(), e);
            }
            _ => prop_assert!(scaled.expect("closed form").degraded),
        }
    }

    #[test]
    fn robust_flags_match_dense_under_a_solver_fault_storm(
        case in arb_oracle_case(), seed in 0u64..1_000_000
    ) {
        let spec = case.0;
        let plan = SolverFaultPlan::new(seed, 400_000, 400_000);
        let fast = analyze_robust_chaos_spec(&spec, &plan);
        match dense_robust(&spec, &plan) {
            Ok(Some(d)) => {
                let f = fast.expect("robust analysis");
                prop_assert_eq!((f.degraded, f.retried), (d.degraded, d.retried));
                prop_assert_eq!(bits(&f.reliability), bits(&d.reliability));
            }
            Ok(None) => {
                let f = fast.expect("degraded analysis");
                prop_assert!(f.degraded && f.retried);
                let forced = SolverFaultPlan::new(seed, 1_000_000, 1_000_000);
                let closed = analyze_robust_chaos_spec(&spec, &forced).expect("closed form");
                prop_assert_eq!(bits(&f.reliability), bits(&closed.reliability));
            }
            Err(e) => prop_assert_eq!(fast.unwrap_err(), e),
        }
    }
}

#[test]
fn dense_oracle_builds_the_library_chains() {
    let p = ClrChainParams {
        m_hw: 0.7,
        cov_det: 0.95,
        m_tol: 0.98,
        m_asw: 0.55,
        intervals: 3,
        t_det: 5.0e-6,
        t_tol: 5.0e-6,
        t_chk: 8.0e-6,
        p_chk_err: 1.0e-4,
        ..ClrChainParams::unprotected(300.0e-6, 2000.0)
    };
    let w = [1.0 / 3.0; 3];
    for spec in [
        ClrChainSpec::transient(p),
        ClrChainSpec::permanent_aging(p, 40.0),
    ] {
        let (timing, _) = clrearly::markov::clr::timing_chain_spec(&spec).unwrap();
        let (functional, _) = clrearly::markov::clr::functional_chain_spec(&spec).unwrap();
        let oracle_t = dense_chain(&spec, &w, false).unwrap();
        let oracle_f = dense_chain(&spec, &w, true).unwrap();
        assert_eq!(timing, oracle_t.chain);
        assert_eq!(functional, oracle_f.chain);
        let per_block = if spec.mechanism.is_transient() { 3 } else { 4 };
        assert_eq!(oracle_f.to_error.len(), per_block * 3 - 1);
    }
}

#[test]
fn non_finite_intermediates_rerun_the_dense_path() {
    // Certain roll-back with a 1% escape chance per pass over a 1e308 s
    // task: the expected time overflows. The dense solve then multiplies
    // structural zeros by inf and yields NaN; skipping those products
    // would yield inf. Only the dense rerun reproduces the oracle.
    let spec = ClrChainSpec::transient(ClrChainParams {
        cov_det: 1.0,
        m_tol: 1.0,
        intervals: 2,
        ..ClrChainParams::unprotected(1.0e308, 0.01f64.ln() / -0.5e308)
    });
    let dense = dense_analysis(&spec, None, false);
    assert!(dense.as_ref().unwrap().avg_exec_time.is_nan(), "{dense:?}");
    assert_same(&spec, &analyze_spec(&spec), &dense);
}
