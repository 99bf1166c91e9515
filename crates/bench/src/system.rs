//! System-level experiments: Fig. 7 / Table V (CLR vs Agnostic), Fig. 8 /
//! Table VI (proposed vs fcCLR), Fig. 10 / Table VII (proposed vs pfCLR
//! under growing task-level libraries).
//!
//! Every sweep is a data-driven grid of `(task count, method)` cells,
//! each executed through the declarative [`CampaignPlan`] runner and
//! memoized in the active [`crate::sweep`] ledger — a killed
//! `experiments` run restarted with the same `--ledger` file resumes at
//! the last finished cell instead of recomputing the whole table.

use clre::apps;
use clre::methodology::{reference_point, ClrEarly, Layer, StageBudget};
use clre::tdse::TdseConfig;
use clre::CampaignPlan;
use clre_moea::hypervolume::{hypervolume, percent_increase};
use clre_moea::pareto::non_dominated_indices;

use crate::exec_config::ExecConfig;
use crate::report::{pct, series, Table};
use crate::sweep::{self, CellData};
use crate::tasklevel::tdse_runs;
use crate::RunScale;

/// Runs one `(task count, method)` grid cell through the Campaign
/// runner, memoized under `experiment/T<tasks>/<label>` in the active
/// sweep ledger. `None` means the ledger's compute budget ran out — the
/// sweep should stop where a killed run would have.
fn campaign_cell(
    experiment: &str,
    tasks: usize,
    label: &str,
    dse: &ClrEarly,
    plan: &CampaignPlan,
    budget: &StageBudget,
) -> Option<CellData> {
    sweep::cell(&format!("{experiment}/T{tasks}/{label}"), || {
        let result = dse.run(plan, budget).expect("campaign runs");
        CellData {
            evaluations: result.evaluations,
            objectives: result.objectives(),
        }
    })
}

/// Terminates a sweep whose cell budget ran out, marking the report.
fn halted(mut out: String) -> String {
    out.push_str(sweep::HALT_LINE);
    out
}

/// Pareto-filters the union of several fronts' objective vectors — the
/// objective-space mirror of `FrontResult::merge`, used to rebuild the
/// merged Agnostic baseline from journalled per-layer cells.
fn merge_objectives(fronts: &[Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
    let union: Vec<Vec<f64>> = fronts.concat();
    non_dominated_indices(&union)
        .into_iter()
        .map(|i| union[i].clone())
        .collect()
}

/// Fig. 7: Pareto fronts of the cross-layer approach vs the merged
/// single-layer (Agnostic) baseline, plus each per-layer front, for a
/// 20-task synthetic application.
///
/// Expected shape: the CLR front dominates the Agnostic front across the
/// makespan range.
pub fn fig7(scale: RunScale, config: &ExecConfig) -> String {
    let (platform, graph) = apps::synthetic_app(20, 7).expect("synthetic app builds");
    let dse = config.apply(ClrEarly::new(&graph, &platform).expect("tDSE succeeds"));
    let budget = scale.budget();
    let mut grid: Vec<(&str, CampaignPlan)> = vec![("CLR", CampaignPlan::proposed())];
    grid.extend(
        Layer::ALL
            .iter()
            .map(|&layer| (layer.name(), CampaignPlan::single_layer(layer))),
    );
    let mut out = String::from("# series: method, avg-makespan[s], app-error-prob\n");
    let mut layer_fronts = Vec::new();
    for (label, plan) in &grid {
        let Some(cell) = campaign_cell("fig7", 20, label, &dse, plan, &budget) else {
            return halted(out);
        };
        out.push_str(&series(label, &cell.objectives));
        if *label != "CLR" {
            layer_fronts.push(cell.objectives);
        }
    }
    out.push_str(&series("Agnostic", &merge_objectives(&layer_fronts)));
    out
}

/// Table V: percentage increase of the CLR front's hypervolume over the
/// Agnostic front, for applications of 10…100 tasks.
///
/// Expected shape: large positive improvements at every size (the paper
/// reports 135–251% with a huge outlier at 10 tasks).
pub fn table5(scale: RunScale, config: &ExecConfig) -> String {
    let budget = scale.budget();
    let mut table = Table::new(vec![
        "#Tasks".into(),
        "% HV increase (CLR vs Agnostic)".into(),
    ]);
    for &tasks in &scale.sizes() {
        let (platform, graph) =
            apps::synthetic_app(tasks, 7 + tasks as u64).expect("synthetic app builds");
        let dse = config.apply(ClrEarly::new(&graph, &platform).expect("tDSE succeeds"));
        let grid = [
            ("proposed", CampaignPlan::proposed()),
            ("Agnostic", CampaignPlan::agnostic()),
        ];
        let mut fronts = Vec::new();
        for (label, plan) in &grid {
            let Some(cell) = campaign_cell("table5", tasks, label, &dse, plan, &budget) else {
                return halted(table.to_string());
            };
            fronts.push(cell.objectives);
        }
        let r = reference_point(fronts.iter().map(Vec::as_slice));
        let gain = percent_increase(hypervolume(&fronts[0], &r), hypervolume(&fronts[1], &r));
        table.row(vec![tasks.to_string(), pct(gain)]);
    }
    table.to_string()
}

/// Fig. 8: Pareto fronts of the proposed two-stage method vs the
/// problem-agnostic fcCLR baseline for a 50-task application.
///
/// Expected shape: the proposed front dominates fcCLR.
pub fn fig8(scale: RunScale, config: &ExecConfig) -> String {
    let tasks = match scale {
        RunScale::Tiny => 10,
        RunScale::Smoke => 20,
        RunScale::Paper => 50,
    };
    let (platform, graph) =
        apps::synthetic_app(tasks, 7 + tasks as u64).expect("synthetic app builds");
    let dse = config.apply(ClrEarly::new(&graph, &platform).expect("tDSE succeeds"));
    let budget = scale.budget();
    let mut out = String::from("# series: method, avg-makespan[s], app-error-prob\n");
    let grid = [
        ("fcCLR", CampaignPlan::fc()),
        ("proposed", CampaignPlan::proposed()),
    ];
    for (label, plan) in &grid {
        let Some(cell) = campaign_cell("fig8", tasks, label, &dse, plan, &budget) else {
            return halted(out);
        };
        out.push_str(&series(label, &cell.objectives));
    }
    out
}

/// Table VI: percentage increase of the proposed method's hypervolume
/// over fcCLR for 10…100 tasks.
///
/// Expected shape: consistently positive, tens to hundreds of percent
/// (the paper reports 73–231%, average 129%).
pub fn table6(scale: RunScale, config: &ExecConfig) -> String {
    let budget = scale.budget();
    let mut table = Table::new(vec![
        "#Tasks".into(),
        "% HV increase (proposed vs fcCLR)".into(),
    ]);
    for &tasks in &scale.sizes() {
        let (platform, graph) =
            apps::synthetic_app(tasks, 7 + tasks as u64).expect("synthetic app builds");
        let dse = config.apply(ClrEarly::new(&graph, &platform).expect("tDSE succeeds"));
        let grid = [
            ("fcCLR", CampaignPlan::fc()),
            ("proposed", CampaignPlan::proposed()),
        ];
        let mut fronts = Vec::new();
        for (label, plan) in &grid {
            let Some(cell) = campaign_cell("table6", tasks, label, &dse, plan, &budget) else {
                return halted(table.to_string());
            };
            fronts.push(cell.objectives);
        }
        let r = reference_point(fronts.iter().map(Vec::as_slice));
        let gain = percent_increase(hypervolume(&fronts[1], &r), hypervolume(&fronts[0], &r));
        table.row(vec![tasks.to_string(), pct(gain)]);
    }
    table.to_string()
}

/// Fig. 10: Pareto fronts of the proposed and pfCLR methods under the
/// three tDSE library configurations, for a 30-task application.
///
/// Expected shape: result quality degrades from tDSE_1 to tDSE_3 for both
/// methods, with the proposed method matching or beating pfCLR per run.
pub fn fig10(scale: RunScale, config: &ExecConfig) -> String {
    let tasks = match scale {
        RunScale::Tiny => 8,
        RunScale::Smoke => 10,
        RunScale::Paper => 30,
    };
    let (platform, graph) =
        apps::synthetic_app(tasks, 7 + tasks as u64).expect("synthetic app builds");
    let budget = scale.budget();
    let mut out = String::from("# series: method_run, avg-makespan[s], app-error-prob\n");
    for (label, objs) in tdse_runs() {
        let dse = config.apply(
            ClrEarly::with_tdse_config(&graph, &platform, TdseConfig::new().with_objectives(objs))
                .expect("tDSE succeeds"),
        );
        let grid = [
            (format!("proposed_{label}"), CampaignPlan::proposed()),
            (format!("pfCLR_{label}"), CampaignPlan::pf()),
        ];
        for (tag, plan) in &grid {
            let Some(cell) = campaign_cell("fig10", tasks, tag, &dse, plan, &budget) else {
                return halted(out);
            };
            out.push_str(&series(tag, &cell.objectives));
        }
    }
    out
}

/// Table VII: percentage increase in hypervolume over the `pfCLR_3`
/// baseline for `{proposed, pfCLR} × {tDSE_1, tDSE_2, tDSE_3}` across
/// application sizes.
///
/// Expected shape: gains shrink from run 1 to run 3 (bigger libraries
/// degrade both methods), with `proposed_k ≥ pfCLR_k` in (almost) every
/// cell and `pfCLR_3 = 0` by construction.
pub fn table7(scale: RunScale, config: &ExecConfig) -> String {
    let budget = scale.budget();
    let runs = tdse_runs();
    let mut table = Table::new(vec![
        "#Tasks".into(),
        "proposed_1".into(),
        "pfCLR_1".into(),
        "proposed_2".into(),
        "pfCLR_2".into(),
        "proposed_3".into(),
        "pfCLR_3".into(),
    ]);
    for &tasks in &scale.sizes() {
        let (platform, graph) =
            apps::synthetic_app(tasks, 7 + tasks as u64).expect("synthetic app builds");
        // Collect all six fronts, then score against a common reference.
        let mut fronts: Vec<Vec<Vec<f64>>> = Vec::new();
        for (label, objs) in &runs {
            let dse = config.apply(
                ClrEarly::with_tdse_config(
                    &graph,
                    &platform,
                    TdseConfig::new().with_objectives(objs.clone()),
                )
                .expect("tDSE succeeds"),
            );
            let grid = [
                (format!("proposed_{label}"), CampaignPlan::proposed()),
                (format!("pfCLR_{label}"), CampaignPlan::pf()),
            ];
            for (tag, plan) in &grid {
                let Some(cell) = campaign_cell("table7", tasks, tag, &dse, plan, &budget) else {
                    return halted(table.to_string());
                };
                fronts.push(cell.objectives);
            }
        }
        let reference = reference_point(fronts.iter().map(Vec::as_slice));
        let hv: Vec<f64> = fronts.iter().map(|f| hypervolume(f, &reference)).collect();
        let baseline = hv[5]; // pfCLR_tDSE_3
        let mut row = vec![tasks.to_string()];
        for &h in &hv {
            row.push(pct(percent_increase(h, baseline)));
        }
        table.row(row);
    }
    table.to_string()
}

/// Formats the two-method hypervolume comparison the ablations share.
fn hv_pair(tag_a: &str, a: &[Vec<f64>], tag_b: &str, b: &[Vec<f64>]) -> String {
    let r = reference_point([a, b]);
    format!(
        "{tag_a},{:.6e}\n{tag_b},{:.6e}\ngain-pct,{}\n",
        hypervolume(a, &r),
        hypervolume(b, &r),
        pct(percent_increase(hypervolume(a, &r), hypervolume(b, &r)))
    )
}

/// Runs a two-cell ablation grid on a 30-task application, returning the
/// two fronts (or `None` when the sweep ledger halts the run).
fn ablation_grid(
    experiment: &str,
    app_seed: u64,
    grid: &[(&str, CampaignPlan); 2],
    scale: RunScale,
    config: &ExecConfig,
) -> Option<[Vec<Vec<f64>>; 2]> {
    let (platform, graph) = apps::synthetic_app(30, app_seed).expect("synthetic app builds");
    let dse = config.apply(ClrEarly::new(&graph, &platform).expect("tDSE succeeds"));
    let budget = scale.budget();
    let mut fronts = Vec::new();
    for (label, plan) in grid {
        let cell = campaign_cell(experiment, 30, label, &dse, plan, &budget)?;
        fronts.push(cell.objectives);
    }
    let [a, b] = <[Vec<Vec<f64>>; 2]>::try_from(fronts).expect("two cells");
    Some([a, b])
}

/// Ablation: proposed (seeded) vs an unseeded fcCLR run with the *same*
/// total budget, isolating the value of seeding (DESIGN.md §5).
pub fn ablation_seeding(scale: RunScale, config: &ExecConfig) -> String {
    let grid = [
        ("proposed", CampaignPlan::proposed()),
        ("fcCLR", CampaignPlan::fc()),
    ];
    let Some([seeded, unseeded]) = ablation_grid("ablation_seeding", 37, &grid, scale, config)
    else {
        return halted(String::new());
    };
    hv_pair("seeded-hv", &seeded, "unseeded-hv", &unseeded)
}

/// Ablation: tournament size 5 (paper) vs 2, at equal budget.
pub fn ablation_tournament(scale: RunScale, config: &ExecConfig) -> String {
    let grid = [
        ("pfCLR", CampaignPlan::pf()),
        ("pfCLR_k2", CampaignPlan::pf_with_tournament(2)),
    ];
    let Some([k5, k2]) = ablation_grid("ablation_tournament", 41, &grid, scale, config) else {
        return halted(String::new());
    };
    hv_pair("k5-hv", &k5, "k2-hv", &k2)
}

/// Ablation: pfCLR's Pareto pruning vs a random subset of equal size.
pub fn ablation_pruning(scale: RunScale, config: &ExecConfig) -> String {
    let grid = [
        ("pfCLR", CampaignPlan::pf()),
        ("random-subset", CampaignPlan::random_subset(99)),
    ];
    let Some([pruned, random]) = ablation_grid("ablation_pruning", 43, &grid, scale, config) else {
        return halted(String::new());
    };
    hv_pair("pareto-hv", &pruned, "random-hv", &random)
}

/// Ablation: NSGA-II vs SPEA2 as the MOEA backend for pfCLR at equal
/// budget (DESIGN.md §5).
pub fn ablation_moea(scale: RunScale, config: &ExecConfig) -> String {
    let grid = [
        ("pfCLR", CampaignPlan::pf()),
        ("pfCLR_spea2", CampaignPlan::pf_spea2()),
    ];
    let Some([nsga, spea]) = ablation_grid("ablation_moea", 47, &grid, scale, config) else {
        return halted(String::new());
    };
    hv_pair("nsga2-hv", &nsga, "spea2-hv", &spea).replace("gain-pct", "nsga2-gain-pct")
}

/// Extension study (DESIGN.md §8): the same application optimized on the
/// plain paper platform vs the NoC-enabled platform. Communication-aware
/// scheduling shifts the front right (transfers cost time) and changes
/// which mappings win — the makespan inflation quantifies the modeling
/// gap the paper's future-work section warns about.
pub fn ablation_comm(scale: RunScale, config: &ExecConfig) -> String {
    let (_, graph) = apps::synthetic_app(30, 53).expect("synthetic app builds");
    let budget = scale.budget();
    let plan = CampaignPlan::proposed();
    let grid = [
        ("comm-free", apps::paper_platform()),
        ("comm-aware", apps::paper_platform_with_noc()),
    ];
    let mut out = String::from("# series: platform, avg-makespan[s], app-error-prob\n");
    let mut fronts = Vec::new();
    for (label, platform) in &grid {
        let dse = config.apply(ClrEarly::new(&graph, platform).expect("tDSE succeeds"));
        let Some(cell) = campaign_cell("ablation_comm", 30, label, &dse, &plan, &budget) else {
            return halted(out);
        };
        out.push_str(&series(label, &cell.objectives));
        fronts.push(cell.objectives);
    }
    // Objective 0 is the average makespan for the default objective set.
    let best_makespan = |front: &[Vec<f64>]| front.iter().map(|p| p[0]).fold(f64::MAX, f64::min);
    out.push_str(&format!(
        "min-makespan-inflation-pct,{:.1}\n",
        100.0 * (best_makespan(&fronts[1]) - best_makespan(&fronts[0])) / best_makespan(&fronts[0])
    ));
    out
}

/// Tri-objective system DSE (the framework's "select task and
/// system-level objectives independently" claim): optimize makespan,
/// application error probability *and* lifetime simultaneously, scored
/// with the exact 3-D WFG hypervolume.
///
/// Runs the proposed method twice — once with a task-level library
/// Pareto-filtered under time+error only (*mismatched*: blind to the
/// lifetime axis) and once filtered under time+error+MTTF (*matched*) —
/// against the fcCLR baseline. The mismatched library loses to fcCLR in
/// 3-D while the matched one recovers, which is the quantitative form of
/// the paper's Section VI-C2 conclusion that effective system-level
/// exploration depends on choosing the right task-level objectives.
pub fn multiobj(scale: RunScale, config: &ExecConfig) -> String {
    use clre::tdse::TdseConfig as Cfg;
    use clre_model::qos::{Objective, ObjectiveSet};
    let (platform, graph) = apps::synthetic_app(20, 61).expect("synthetic app builds");
    let objectives = ObjectiveSet::new(vec![
        Objective::Makespan,
        Objective::ErrorProbability,
        Objective::Mttf,
    ]);
    let budget = scale.budget();
    let grid = [
        (
            "proposed-mismatched",
            ObjectiveSet::set_ii(),
            CampaignPlan::proposed(),
        ),
        (
            "proposed-matched",
            ObjectiveSet::set_iii(),
            CampaignPlan::proposed(),
        ),
        ("fcCLR", ObjectiveSet::set_ii(), CampaignPlan::fc()),
    ];
    let mut fronts = Vec::new();
    for (label, tdse_objs, plan) in &grid {
        let dse = config
            .apply(
                ClrEarly::with_tdse_config(
                    &graph,
                    &platform,
                    Cfg::new().with_objectives(tdse_objs.clone()),
                )
                .expect("tDSE succeeds"),
            )
            .with_objectives(objectives.clone());
        let Some(cell) = campaign_cell("multiobj", 20, label, &dse, plan, &budget) else {
            return halted(String::new());
        };
        fronts.push(cell.objectives);
    }
    let r = reference_point(fronts.iter().map(Vec::as_slice));
    let (hm, hq, hf) = (
        hypervolume(&fronts[0], &r),
        hypervolume(&fronts[1], &r),
        hypervolume(&fronts[2], &r),
    );
    format!(
        "proposed-mismatched-hv3d,{hm:.6e}
proposed-matched-hv3d,{hq:.6e}
fcclr-hv3d,{hf:.6e}
matched-vs-fcclr-pct,{}
matched-vs-mismatched-pct,{}
",
        pct(percent_increase(hq, hf)),
        pct(percent_increase(hq, hm))
    )
}

/// Runtime scaling study (the abstract's "significant scaling with
/// application size"): wall-clock of the task-level DSE and of one
/// pfCLR/fcCLR generation-budget as the task count grows, plus the
/// evaluation throughput. The pruned pfCLR evaluation is not cheaper per
/// evaluation here (metrics are precomputed for both), so the scaling
/// argument rests on search-space size — which the two rightmost columns
/// make explicit.
///
/// Wall-clock measurements are never ledgered: replaying a cached cell
/// would report the cache hit's latency, not the solver's.
pub fn scaling(scale: RunScale, config: &ExecConfig) -> String {
    use std::time::Instant;
    let budget = scale.budget();
    let mut table = Table::new(vec![
        "#Tasks".into(),
        "tDSE[s]".into(),
        "pfCLR[s]".into(),
        "fcCLR[s]".into(),
        "pf-space/task".into(),
        "fc-space/task".into(),
    ]);
    for &tasks in &scale.sizes() {
        let (platform, graph) =
            apps::synthetic_app(tasks, 7 + tasks as u64).expect("synthetic app builds");
        let t0 = Instant::now();
        let dse = config.apply(ClrEarly::new(&graph, &platform).expect("tDSE succeeds"));
        let t_tdse = t0.elapsed();
        let t0 = Instant::now();
        dse.run(&CampaignPlan::pf(), &budget).expect("pfCLR runs");
        let t_pf = t0.elapsed();
        let t0 = Instant::now();
        dse.run(&CampaignPlan::fc(), &budget).expect("fcCLR runs");
        let t_fc = t0.elapsed();
        // Mean per-task choice-list sizes (averaged over types used).
        let types = graph.task_types().len();
        let pf_mean: f64 = (0..types)
            .map(|ty| {
                dse.library()
                    .pareto_count(clre_model::TaskTypeId::new(ty as u32)) as f64
            })
            .sum::<f64>()
            / types as f64;
        let fc_mean: f64 = (0..types)
            .map(|ty| {
                dse.library()
                    .full_count(clre_model::TaskTypeId::new(ty as u32)) as f64
            })
            .sum::<f64>()
            / types as f64;
        table.row(vec![
            tasks.to_string(),
            format!("{:.2}", t_tdse.as_secs_f64()),
            format!("{:.2}", t_pf.as_secs_f64()),
            format!("{:.2}", t_fc.as_secs_f64()),
            format!("{pf_mean:.0}"),
            format!("{fc_mean:.0}"),
        ]);
    }
    table.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_contains_all_series() {
        let out = fig7(RunScale::Smoke, &ExecConfig::default());
        for tag in ["CLR", "Agnostic", "DVFS", "HWRel", "SSWRel", "ASWRel"] {
            assert!(out.contains(tag), "missing {tag}");
        }
    }

    #[test]
    fn table5_clr_wins_at_smoke_scale() {
        let out = table5(RunScale::Smoke, &ExecConfig::default());
        let gains: Vec<f64> = out
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().nth(1))
            .filter_map(|v| v.parse().ok())
            .collect();
        assert_eq!(gains.len(), 2);
        // Individual sizes fluctuate at smoke budgets; the aggregate
        // direction must hold (paper-scale per-size results live in
        // EXPERIMENTS.md).
        let mean = gains.iter().sum::<f64>() / gains.len() as f64;
        assert!(mean > 0.0, "CLR should beat Agnostic on average: {gains:?}");
    }

    #[test]
    fn table6_proposed_not_worse() {
        let out = table6(RunScale::Smoke, &ExecConfig::default());
        let gains: Vec<f64> = out
            .lines()
            .skip(2)
            .filter_map(|l| l.split_whitespace().nth(1))
            .filter_map(|v| v.parse().ok())
            .collect();
        assert_eq!(gains.len(), 2);
        for g in gains {
            assert!(g > -10.0, "proposed collapsed vs fcCLR: {g}%");
        }
    }

    #[test]
    fn table7_baseline_is_zero() {
        let out = table7(RunScale::Smoke, &ExecConfig::default());
        for line in out.lines().skip(2) {
            let cells: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cells.last(), Some(&"0"), "pfCLR_3 must be the baseline");
        }
    }

    #[test]
    fn fig8_and_fig10_emit_series() {
        let f8 = fig8(RunScale::Smoke, &ExecConfig::default());
        assert!(f8.contains("fcCLR") && f8.contains("proposed"));
        let f10 = fig10(RunScale::Smoke, &ExecConfig::default());
        for tag in [
            "proposed_tDSE_1",
            "pfCLR_tDSE_1",
            "proposed_tDSE_3",
            "pfCLR_tDSE_3",
        ] {
            assert!(f10.contains(tag), "missing {tag}");
        }
    }

    #[test]
    fn multiobj_reports_3d_hypervolumes() {
        let out = multiobj(RunScale::Tiny, &ExecConfig::default());
        for tag in [
            "proposed-mismatched-hv3d",
            "proposed-matched-hv3d",
            "fcclr-hv3d",
        ] {
            let hv: f64 = out
                .lines()
                .find(|l| l.starts_with(tag))
                .and_then(|l| l.split(',').nth(1))
                .and_then(|v| v.parse().ok())
                .expect("hv row");
            assert!(hv > 0.0, "{tag} must be positive");
        }
    }

    #[test]
    fn scaling_reports_all_sizes() {
        let out = scaling(RunScale::Smoke, &ExecConfig::default());
        assert_eq!(out.lines().count(), 2 + RunScale::Smoke.sizes().len());
        // The fc space per task is the full impl×DVFS×CLR product.
        assert!(out.contains("560"));
    }

    #[test]
    fn moea_ablation_reports_both_backends() {
        let out = ablation_moea(RunScale::Smoke, &ExecConfig::default());
        assert!(out.contains("nsga2-hv") && out.contains("spea2-hv"));
    }

    #[test]
    fn comm_awareness_inflates_makespan() {
        let out = ablation_comm(RunScale::Smoke, &ExecConfig::default());
        let inflation: f64 = out
            .lines()
            .find(|l| l.starts_with("min-makespan-inflation-pct"))
            .and_then(|l| l.split(',').nth(1))
            .and_then(|v| v.parse().ok())
            .expect("inflation row present");
        assert!(
            inflation > -1.0,
            "communication can only slow things down: {inflation}%"
        );
        assert!(out.contains("comm-free") && out.contains("comm-aware"));
    }

    #[test]
    fn ablations_report_hypervolumes() {
        for out in [
            ablation_seeding(RunScale::Smoke, &ExecConfig::default()),
            ablation_tournament(RunScale::Smoke, &ExecConfig::default()),
            ablation_pruning(RunScale::Smoke, &ExecConfig::default()),
        ] {
            assert!(out.contains("gain-pct"));
            assert_eq!(out.lines().count(), 3);
        }
    }
}
