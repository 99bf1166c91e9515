//! Cross-validation of the analytical task-level models against the
//! Monte-Carlo fault-injection simulator: for configurations drawn from
//! the real DSE catalogs, the empirical error rate and mean execution
//! time must match the Markov-chain predictions used by the optimizer.

use clrearly::core::apps;
use clrearly::core::tdse::{chain_spec, evaluate_candidate, ReliabilityModel, TdseConfig};
use clrearly::model::reliability::{AswMethod, ClrConfig, HwMethod, SswMethod};
use clrearly::model::PeTypeId;
use clrearly::profile::{ProfileModel, SyntheticCharacterizer};
use clrearly::sim::TaskSimulator;

const RUNS: usize = 40_000;

fn configs_under_test() -> Vec<ClrConfig> {
    vec![
        ClrConfig::unprotected(),
        ClrConfig::new(HwMethod::Tmr, SswMethod::None, AswMethod::None),
        ClrConfig::new(HwMethod::None, SswMethod::Retry, AswMethod::None),
        ClrConfig::new(
            HwMethod::None,
            SswMethod::Checkpoint { intervals: 3 },
            AswMethod::None,
        ),
        ClrConfig::new(HwMethod::None, SswMethod::None, AswMethod::CodeTripling),
        ClrConfig::new(
            HwMethod::PartialTmr,
            SswMethod::Checkpoint { intervals: 2 },
            AswMethod::Checksum,
        ),
        ClrConfig::new(
            HwMethod::Hardening,
            SswMethod::Retry,
            AswMethod::HammingCorrection,
        ),
    ]
}

#[test]
fn analytic_metrics_match_fault_injection() {
    let platform = apps::paper_platform();
    let ch = SyntheticCharacterizer::new(42);
    let imp = ch.impls_for_type(0, &platform)[0].clone();
    let pe_type = platform.pe_type(PeTypeId::new(0)).expect("type exists");
    // Undervolted mode → high fault rate → the interesting regime.
    let mode = &pe_type.dvfs_modes()[2];
    let config = TdseConfig::default();
    let profile = &config.profile;
    let transient = ReliabilityModel::Transient;

    for clr in configs_under_test() {
        let analytic = evaluate_candidate(&imp, pe_type, mode, &clr, &config).expect("analyzable");
        let params = chain_spec(&imp, pe_type, mode, &clr, profile, None, transient).params;
        let empirical = TaskSimulator::new(params).run(RUNS, 0xC0FFEE);

        let sigma = (analytic.error_prob * (1.0 - analytic.error_prob) / RUNS as f64)
            .sqrt()
            .max(1e-4);
        assert!(
            (empirical.error_rate - analytic.error_prob).abs() < 4.0 * sigma + 2e-4,
            "{clr}: empirical error {} vs analytic {}",
            empirical.error_rate,
            analytic.error_prob
        );
        assert!(
            (empirical.mean_time / analytic.avg_exec_time - 1.0).abs() < 0.02,
            "{clr}: empirical time {} vs analytic {}",
            empirical.mean_time,
            analytic.avg_exec_time
        );
        // Fault-free floor: nothing ever runs faster than MinExT.
        assert!(empirical.mean_time >= analytic.min_exec_time * 0.999);
    }
}

#[test]
fn simulator_ranks_configs_like_the_analysis() {
    // The optimizer's Pareto decisions rest on the *ordering* of error
    // probabilities; check the simulator reproduces that ordering for a
    // protection ladder.
    let platform = apps::paper_platform();
    let ch = SyntheticCharacterizer::new(42);
    let imp = ch.impls_for_type(1, &platform)[0].clone();
    let pe_type = platform.pe_type(PeTypeId::new(0)).expect("type exists");
    let mode = &pe_type.dvfs_modes()[0];
    let profile = ProfileModel::default();

    let ladder = [
        ClrConfig::unprotected(),
        ClrConfig::new(HwMethod::Hardening, SswMethod::None, AswMethod::None),
        ClrConfig::new(HwMethod::Tmr, SswMethod::None, AswMethod::None),
        ClrConfig::new(HwMethod::Tmr, SswMethod::Retry, AswMethod::Checksum),
    ];
    let mut last = f64::MAX;
    for clr in ladder {
        let params = chain_spec(
            &imp,
            pe_type,
            mode,
            &clr,
            &profile,
            None,
            ReliabilityModel::Transient,
        )
        .params;
        let empirical = TaskSimulator::new(params).run(RUNS, 7);
        assert!(
            empirical.error_rate <= last + 2e-3,
            "{clr} broke the protection ordering: {} after {}",
            empirical.error_rate,
            last
        );
        last = empirical.error_rate;
    }
    // The full cross-layer stack is near error-free at nominal voltage.
    assert!(last < 5e-3, "cross-layer floor too high: {last}");
}
