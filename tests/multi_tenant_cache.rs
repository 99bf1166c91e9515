//! Multi-tenant cache sharing without the server: campaigns on the same
//! platform run concurrently against one shared [`EvalCache`], and
//! (a) each front stays bit-identical to the campaign run alone on a
//! private cache, while (b) two identical tenants insert every genome
//! fitness exactly once between them — the cross-tenant warm-start the
//! `clre-serve` server builds on. Tenants on distinct GA seeds share no
//! entries, which shows the insert count can tell sharing from none.

use std::sync::Arc;

use clrearly::core::apps;
use clrearly::core::cache::EvalCache;
use clrearly::core::methodology::{ClrEarly, FrontResult, StageBudget};
use clrearly::core::CampaignPlan;
use clrearly::exec::{ExecPool, Executor};
use clrearly::model::{Platform, TaskGraph};

/// Fronts must agree to the bit: same genomes, same objective bit
/// patterns (stricter than `==`, which would let `-0.0` pass for `0.0`).
fn assert_bit_identical(a: &FrontResult, b: &FrontResult) {
    assert_eq!(a.front().len(), b.front().len(), "front sizes differ");
    for (pa, pb) in a.front().iter().zip(b.front()) {
        assert_eq!(pa.genome, pb.genome, "front genomes differ");
        assert_eq!(pa.objectives.len(), pb.objectives.len());
        for (x, y) in pa.objectives.iter().zip(&pb.objectives) {
            assert_eq!(x.to_bits(), y.to_bits(), "objective bits differ");
        }
    }
}

/// Runs the proposed flow against `cache` as its fitness cache, exactly
/// as the server wires it.
fn run_with_cache(
    graph: &TaskGraph,
    platform: &Platform,
    cache: &Arc<EvalCache>,
    budget: &StageBudget,
) -> FrontResult {
    ClrEarly::new(graph, platform)
        .expect("tDSE succeeds")
        .with_executor(Executor::new(ExecPool::new(2)))
        .with_cache(Arc::clone(cache))
        .run(&CampaignPlan::proposed(), budget)
        .expect("campaign completes")
}

/// Each budget's campaign alone on a private cache: its front and the
/// fitness entries it inserted.
fn isolated_runs(
    graph: &TaskGraph,
    platform: &Platform,
    budgets: &[StageBudget; 2],
) -> Vec<(FrontResult, u64)> {
    budgets
        .iter()
        .map(|budget| {
            let cache = EvalCache::shared();
            let front = run_with_cache(graph, platform, &cache, budget);
            (front, cache.fitness_counts().inserts)
        })
        .collect()
}

/// Both budgets' campaigns concurrently against one shared cache.
fn shared_runs(
    graph: &TaskGraph,
    platform: &Platform,
    shared: &Arc<EvalCache>,
    budgets: &[StageBudget; 2],
) -> [FrontResult; 2] {
    std::thread::scope(|scope| {
        let handles = budgets
            .each_ref()
            .map(|budget| scope.spawn(|| run_with_cache(graph, platform, shared, budget)));
        handles.map(|h| h.join().expect("campaign thread"))
    })
}

#[test]
fn concurrent_campaigns_share_fitness_entries_without_front_drift() {
    let (platform, graph) = apps::synthetic_app(12, 3).expect("synthetic app");
    let budget = StageBudget::new(8, 4).with_seed(11);
    let budgets = [budget.clone(), budget];

    let isolated = isolated_runs(&graph, &platform, &budgets);
    let shared = EvalCache::shared();
    let shared_fronts = shared_runs(&graph, &platform, &shared, &budgets);

    for ((front, _), concurrent) in isolated.iter().zip(&shared_fronts) {
        assert_bit_identical(front, concurrent);
    }
    // Insert-once: whichever tenant evaluates a genome first stores it,
    // so the pair inserts exactly what one tenant inserts alone, for any
    // interleaving.
    let one = isolated[0].1;
    assert!(one > 0, "the campaign evaluates genomes");
    assert_eq!(
        shared.fitness_counts().inserts,
        one,
        "identical tenants must insert each fitness once between them"
    );
}

#[test]
fn tenants_with_distinct_seeds_share_no_fitness_entries() {
    let (platform, graph) = apps::synthetic_app(12, 3).expect("synthetic app");
    let budgets = [
        StageBudget::new(8, 4).with_seed(11),
        StageBudget::new(8, 4).with_seed(12),
    ];

    let isolated = isolated_runs(&graph, &platform, &budgets);
    let shared = EvalCache::shared();
    let shared_fronts = shared_runs(&graph, &platform, &shared, &budgets);

    for ((front, _), concurrent) in isolated.iter().zip(&shared_fronts) {
        assert_bit_identical(front, concurrent);
    }
    // These two searches visit disjoint genomes, so the shared cache
    // inserts the isolated sum: more than one tenant's inserts, which the
    // sharing check above would reject.
    let sum: u64 = isolated.iter().map(|(_, inserts)| inserts).sum();
    assert_eq!(shared.fitness_counts().inserts, sum);
    assert!(sum > isolated[0].1);
}
