//! Property-based tests of the Markov-chain reliability analysis: the
//! general matrix solver must agree with the loop-free closed form, and
//! the physics must be monotone in every masking knob.

use clrearly::markov::closed_form;
use clrearly::markov::clr::{analyze_spec, ClrChainParams, ClrChainSpec, TaskReliability};
use clrearly::markov::MarkovError;
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
