//! Building a custom platform and application from scratch with the
//! builder APIs, then running a *constrained* DSE (Equation 5's SPEC
//! bounds): only mappings meeting a makespan budget and a reliability
//! floor survive.
//!
//! ```sh
//! cargo run --release --example custom_platform
//! ```

use clrearly::core::methodology::{ClrEarly, StageBudget};
use clrearly::core::tdse::TdseConfig;
use clrearly::core::CampaignPlan;
use clrearly::model::qos::QosSpec;
use clrearly::model::{BaseImpl, DvfsMode, PeType, PeTypeId, Platform, TaskGraph, TaskType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small automotive-style ECU: two lockstep-capable cores and one
    // accelerator region.
    let core = PeType::processor("lockstep-core", 2.1, 0.35)
        .with_dvfs_mode(DvfsMode::new("1.1V/800MHz", 1.1, 800.0e6))
        .with_dvfs_mode(DvfsMode::new("0.95V/400MHz", 0.95, 400.0e6));
    let accel = PeType::reconfigurable_region("fpga-region", 1.7, 0.12)
        .with_dvfs_mode(DvfsMode::new("0.9V/200MHz", 0.9, 200.0e6));
    let platform = Platform::builder()
        .pe_type(core)
        .pe_type(accel)
        .pes_of_type("lockstep-core", 2)?
        .pes_of_type("fpga-region", 1)?
        .build()?;

    // A sensor-fusion pipeline: filter → fuse → {plan, log}.
    let core_ty = PeTypeId::new(0);
    let accel_ty = PeTypeId::new(1);
    let filter = TaskType::new("filter")
        .with_impl(BaseImpl::new("filter-c", core_ty, 2.2e5, 0.9e-9))
        .with_impl(BaseImpl::new("filter-hls", accel_ty, 0.8e5, 1.6e-9));
    let fuse = TaskType::new("fuse").with_impl(BaseImpl::new("fuse-c", core_ty, 4.0e5, 1.1e-9));
    let plan = TaskType::new("plan").with_impl(BaseImpl::new("plan-c", core_ty, 3.1e5, 1.0e-9));
    let log = TaskType::new("log").with_impl(BaseImpl::new("log-c", core_ty, 0.6e5, 0.7e-9));
    let graph = TaskGraph::builder("sensor-fusion", 5.0e-3)
        .task_type(filter)
        .task_type(fuse)
        .task_type(plan)
        .task_type(log)
        .task("filter", "filter")?
        .task_with_criticality("fuse", "fuse", 3.0)?
        .task_with_criticality("plan", "plan", 3.0)?
        .task("log", "log")?
        .edge(0, 1)
        .edge(1, 2)
        .edge(1, 3)
        .build()?;

    // QoS specification: finish within 2.5 ms on average, at least 99%
    // functional reliability per iteration.
    let spec = QosSpec::new()
        .with_max_makespan(2.5e-3)
        .with_min_reliability(0.99);
    let dse = ClrEarly::with_tdse_config(&graph, &platform, TdseConfig::new())?.with_spec(spec);
    let result = dse.run(
        &CampaignPlan::proposed(),
        &StageBudget::new(32, 40).with_seed(3),
    )?;

    println!(
        "{} feasible Pareto points under S ≤ 2.5 ms, F ≥ 0.99:",
        result.front().len()
    );
    for p in result.front() {
        let m = p.metrics;
        println!(
            "  makespan {:.3} ms, reliability {:.4}, MTTF {:.1} h, peak {:.2} W",
            m.makespan * 1.0e3,
            1.0 - m.error_prob,
            m.mttf / 3600.0,
            m.peak_power
        );
        assert!(m.makespan <= 2.5e-3 && m.error_prob <= 0.01);
    }
    Ok(())
}
