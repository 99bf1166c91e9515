//! Pick one Pareto-optimal mapping from the DSE, draw its Gantt chart,
//! then *validate* its analytical QoS prediction by Monte-Carlo fault
//! injection: tens of thousands of simulated application iterations with
//! stochastically injected single-event upsets.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use clrearly::core::apps;
use clrearly::core::encoding::{ChoiceMode, Codec};
use clrearly::core::tdse::{build_library, chain_spec, ReliabilityModel, TdseConfig};
use clrearly::model::TaskTypeId;
use clrearly::profile::ProfileModel;
use clrearly::sched::{render_gantt, utilization, QosEvaluator};
use clrearly::sim::AppSimulator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A uniform-criticality application: with uniform ζ the analytical
    // series-system error probability is exactly the probability that
    // *any* task errs, which is what fault injection measures. (With
    // skewed criticalities — e.g. the Sobel app — the analytical figure
    // is a design-priority-weighted quantity, not a physical rate.)
    let (platform, graph) = apps::synthetic_app(10, 5)?;
    let profile = ProfileModel::default();
    let library = build_library(&graph, &platform, &TdseConfig::new())?;
    let codec = Codec::new(&graph, &platform, &library, ChoiceMode::ParetoFiltered)?;

    // A reproducible candidate mapping (in a real flow this would come
    // out of the proposed campaign; a random point keeps the example
    // fast and still exercises the whole validation path).
    let mut rng = StdRng::seed_from_u64(7);
    let genome = codec.random_genome(&mut rng);
    let mapping = codec.decode(&genome);

    let evaluator = QosEvaluator::new(&platform);
    let (analytic, schedule) = evaluator.evaluate_with_schedule(&graph, &mapping)?;

    println!("== schedule ==");
    print!("{}", render_gantt(&schedule, &platform, 60));
    let util = utilization(&schedule, &platform);
    println!(
        "utilization: {}\n",
        util.iter()
            .enumerate()
            .map(|(pe, u)| format!("PE{pe}={:.0}%", u * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // Reconstruct each task's Markov-chain parameters from its chosen
    // candidate and fault-inject against the same semantics.
    let mut task_params = Vec::new();
    for gene in &genome {
        let ty: TaskTypeId = graph.tasks()[gene.task.index()].task_type();
        let cand = library.candidate(ty, gene.choice as usize);
        let imp = graph
            .task_type(ty)
            .and_then(|t| t.impl_by_id(cand.impl_id))
            .expect("candidate references a valid implementation");
        let pe_type = platform
            .pe_type(cand.pe_type)
            .expect("candidate references a valid PE type");
        let mode = pe_type
            .dvfs_mode(cand.dvfs)
            .expect("candidate references a valid DVFS mode");
        let model = ReliabilityModel::Transient;
        let spec = chain_spec(imp, pe_type, mode, &cand.clr, &profile, None, model);
        task_params.push((gene.task, spec.params));
    }
    task_params.sort_by_key(|(t, _)| t.index());
    let params: Vec<_> = task_params.into_iter().map(|(_, p)| p).collect();

    let sim = AppSimulator::new(&graph, &platform, &mapping, params);
    let empirical = sim.run(50_000, 99);

    println!("== analytical vs fault injection (50k iterations) ==");
    println!("{:<22} {:>14} {:>14}", "metric", "analytical", "empirical");
    println!(
        "{:<22} {:>14.6e} {:>14.6e}",
        "app error probability", analytic.error_prob, empirical.error_rate
    );
    println!(
        "{:<22} {:>14.6e} {:>14.6e}",
        "makespan mean [s]", analytic.makespan, empirical.mean_makespan
    );
    println!(
        "{:<22} {:>14} {:>14.6e}",
        "makespan max [s]", "-", empirical.max_makespan
    );
    let err_gap = (empirical.error_rate - analytic.error_prob).abs();
    assert!(
        err_gap < 0.01,
        "fault injection disagrees with the analysis by {err_gap}"
    );
    println!("\nanalysis validated: error gap {err_gap:.2e}");
    Ok(())
}
