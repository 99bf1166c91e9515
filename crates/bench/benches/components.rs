//! Criterion microbenchmarks of the workspace substrates: Markov
//! analysis, list scheduling + QoS estimation, NSGA-II generations,
//! hypervolume and task-level library construction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use clre::apps;
use clre::encoding::{ChoiceMode, Codec};
use clre::methodology::{ClrEarly, StageBudget};
use clre::tdse::{build_library, TdseConfig};
use clre_markov::clr::{
    analyze_spec, functional_chain_spec, timing_chain_spec, ClrChainParams, ClrChainSpec,
};
use clre_markov::StateId;
use clre_moea::hypervolume::hypervolume;
use clre_sched::QosEvaluator;
use clre_sim::TaskSimulator;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn markov_bench(c: &mut Criterion) {
    let spec = ClrChainSpec::transient(ClrChainParams {
        m_hw: 0.7,
        m_impl_ssw: 0.05,
        cov_det: 0.95,
        m_tol: 0.98,
        m_asw: 0.55,
        intervals: 4,
        t_det: 5.0e-6,
        t_tol: 5.0e-6,
        t_chk: 8.0e-6,
        p_chk_err: 1.0e-4,
        ..ClrChainParams::unprotected(300.0e-6, 300.0)
    });
    c.bench_function("markov_analyze_4_intervals", |b| {
        b.iter(|| analyze_spec(std::hint::black_box(&spec)).expect("analyzable"))
    });
    // The same two solves through general `MarkovChain`s: the dense
    // oracle the structured solver behind `analyze_spec` is checked
    // against bit for bit.
    c.bench_function("markov_analyze_4_intervals_dense", |b| {
        b.iter(|| {
            let spec = std::hint::black_box(&spec);
            let (timing, start) = timing_chain_spec(spec).expect("analyzable");
            let avg = timing
                .expected_time_to_absorption(start)
                .expect("absorbing");
            let (functional, start) = functional_chain_spec(spec).expect("analyzable");
            let probs = functional
                .absorption_probabilities(start)
                .expect("absorbing");
            (avg, probs[&StateId(functional.state_count() - 1)])
        })
    });
}

fn sched_bench(c: &mut Criterion) {
    let (platform, graph) = apps::synthetic_app(50, 7).expect("app builds");
    let lib = build_library(&graph, &platform, &TdseConfig::default()).expect("library");
    let codec = Codec::new(&graph, &platform, &lib, ChoiceMode::ParetoFiltered).expect("codec");
    let evaluator = QosEvaluator::new(&platform);
    let mut rng = StdRng::seed_from_u64(1);
    let genome = codec.random_genome(&mut rng);
    c.bench_function("schedule_and_qos_t50", |b| {
        b.iter_batched(
            || codec.decode(&genome),
            |mapping| evaluator.evaluate(&graph, &mapping).expect("valid"),
            BatchSize::SmallInput,
        )
    });
}

fn nsga2_bench(c: &mut Criterion) {
    let (platform, graph) = apps::synthetic_app(20, 7).expect("app builds");
    let dse = ClrEarly::new(&graph, &platform).expect("tDSE");
    let budget = StageBudget::new(16, 5).with_seed(3);
    c.bench_function("nsga2_pf_16pop_5gen_t20", |b| {
        b.iter(|| {
            dse.run(&clre::CampaignPlan::pf(), std::hint::black_box(&budget))
                .expect("runs")
        })
    });
}

fn hypervolume_bench(c: &mut Criterion) {
    let front: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            let t = i as f64 / 63.0;
            vec![t, (1.0 - t.sqrt()).powi(2)]
        })
        .collect();
    c.bench_function("hypervolume_2d_64pts", |b| {
        b.iter(|| hypervolume(std::hint::black_box(&front), &[1.1, 1.1]))
    });
    let front3: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            let t = i as f64 / 23.0;
            vec![t, 1.0 - t, (t - 0.5).abs()]
        })
        .collect();
    c.bench_function("hypervolume_wfg_3d_24pts", |b| {
        b.iter(|| hypervolume(std::hint::black_box(&front3), &[1.1, 1.1, 1.1]))
    });
}

fn sim_bench(c: &mut Criterion) {
    let params = ClrChainParams {
        m_hw: 0.7,
        cov_det: 0.95,
        m_tol: 0.98,
        m_asw: 0.55,
        intervals: 3,
        t_det: 5.0e-6,
        t_tol: 5.0e-6,
        t_chk: 8.0e-6,
        ..ClrChainParams::unprotected(300.0e-6, 500.0)
    };
    let sim = TaskSimulator::new(params);
    c.bench_function("fault_injection_10k_runs", |b| {
        b.iter(|| sim.run(std::hint::black_box(10_000), 7))
    });
}

fn spea2_bench(c: &mut Criterion) {
    let (platform, graph) = apps::synthetic_app(20, 7).expect("app builds");
    let dse = ClrEarly::new(&graph, &platform).expect("tDSE");
    let budget = StageBudget::new(16, 5).with_seed(3);
    c.bench_function("spea2_pf_16pop_5gen_t20", |b| {
        b.iter(|| {
            dse.run(
                &clre::CampaignPlan::pf_spea2(),
                std::hint::black_box(&budget),
            )
            .expect("runs")
        })
    });
}

fn tdse_bench(c: &mut Criterion) {
    let platform = apps::paper_platform();
    let graph = apps::sobel(&platform, 42).expect("sobel builds");
    c.bench_function("tdse_library_sobel", |b| {
        b.iter(|| build_library(&graph, &platform, &TdseConfig::default()).expect("library"))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = markov_bench, sched_bench, nsga2_bench, spea2_bench, hypervolume_bench, tdse_bench, sim_bench
}
criterion_main!(benches);
