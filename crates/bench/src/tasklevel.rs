//! Task-level experiments: Fig. 6(a), Fig. 6(b), Table IV and Fig. 9.

use clre::apps;
use clre::tdse::{build_library, candidates_for_type, TdseConfig};
use clre_model::qos::ObjectiveSet;
use clre_model::{PeTypeId, TaskGraph, TaskType, TaskTypeId};
use clre_moea::pareto::non_dominated_indices;
use clre_profile::SyntheticCharacterizer;

use crate::report::{series, Table};

/// A single-task application over one synthetic task type, used by the
/// Fig. 6 experiments.
fn single_task_app(platform: &clre_model::Platform, seed: u64) -> TaskGraph {
    let ch = SyntheticCharacterizer::new(seed);
    let mut ty = TaskType::new("matmul");
    for imp in ch.impls_for_type(0, platform) {
        ty = ty.with_impl(imp);
    }
    TaskGraph::builder("single", 10.0e-3)
        .task_type(ty)
        .task("t0", "matmul")
        .expect("type registered")
        .build()
        .expect("valid single-task graph")
}

/// Fig. 6(a): task-level Pareto fronts (average execution time vs error
/// probability) for the three processor DVFS modes, with the full CLR
/// catalog explored at each mode.
///
/// Expected shape: the nominal mode's front sits left/low (fast and
/// reliable), the undervolted mode's front right/high, and each mode
/// spreads into multiple points because of the reliability methods.
pub fn fig6a() -> String {
    let platform = apps::sobel_platform();
    let graph = single_task_app(&platform, 42);
    let cands = candidates_for_type(&graph, &platform, TaskTypeId::new(0), &TdseConfig::new())
        .expect("task-level enumeration succeeds");
    let proc = platform
        .pe_type_by_name("embedded-proc")
        .expect("platform has the processor type");
    let mode_names: Vec<String> = platform
        .pe_type(proc)
        .expect("valid type")
        .dvfs_modes()
        .iter()
        .map(|m| m.name().to_owned())
        .collect();
    let mut out = String::from("# series: mode, avg-exec-time[us], error-prob[%]\n");
    for (mode_idx, name) in mode_names.iter().enumerate() {
        let points: Vec<Vec<f64>> = cands
            .iter()
            .filter(|c| c.pe_type == proc && c.dvfs.index() == mode_idx)
            .map(|c| vec![c.metrics.avg_exec_time, c.metrics.error_prob])
            .collect();
        let front: Vec<Vec<f64>> = non_dominated_indices(&points)
            .into_iter()
            .map(|i| vec![points[i][0] * 1.0e6, points[i][1] * 100.0])
            .collect();
        out.push_str(&series(name, &front));
    }
    out
}

/// Fig. 6(b): task-level Pareto fronts under increasing implicit
/// system-software masking (0 / 5 / 10 / 20 %), at the nominal mode.
///
/// Expected shape: higher implicit masking pushes the whole front down
/// (lower error probability at equal execution time).
pub fn fig6b() -> String {
    let platform = apps::sobel_platform();
    let graph = single_task_app(&platform, 42);
    let proc = platform
        .pe_type_by_name("embedded-proc")
        .expect("platform has the processor type");
    let mut out = String::from("# series: implicit-masking, avg-exec-time[us], error-prob[%]\n");
    for mask in [0.0, 0.05, 0.10, 0.20] {
        let cfg = TdseConfig::new().with_implicit_masking(mask);
        let cands = candidates_for_type(&graph, &platform, TaskTypeId::new(0), &cfg)
            .expect("task-level enumeration succeeds");
        let points: Vec<Vec<f64>> = cands
            .iter()
            .filter(|c| c.pe_type == proc && c.dvfs.index() == 0)
            .map(|c| vec![c.metrics.avg_exec_time, c.metrics.error_prob])
            .collect();
        let front: Vec<Vec<f64>> = non_dominated_indices(&points)
            .into_iter()
            .map(|i| vec![points[i][0] * 1.0e6, points[i][1] * 100.0])
            .collect();
        out.push_str(&series(&format!("ImplMask={:.0}%", mask * 100.0), &front));
    }
    out
}

/// The six cumulative objective sets of Table IV with their row labels.
pub fn table4_sets() -> Vec<(&'static str, ObjectiveSet)> {
    vec![
        ("I: AvgExT", ObjectiveSet::set_i()),
        ("II: +ErrProb", ObjectiveSet::set_ii()),
        ("III: +MTTF", ObjectiveSet::set_iii()),
        ("IV: +Energy", ObjectiveSet::set_iv()),
        ("V: +Power", ObjectiveSet::set_v()),
        ("VI: +PeakTemp", ObjectiveSet::set_vi()),
    ]
}

/// Table IV: number of Pareto-front design points per Sobel task type for
/// objective sets I–VI on the 2-PE-type platform.
///
/// Expected shape: row I has one point per PE type; counts grow until
/// set III and stay constant afterwards (MTTF/energy/power/temperature
/// are derived from the same time/power factors).
pub fn table4() -> String {
    let platform = apps::sobel_platform();
    let graph = apps::sobel(&platform, 42).expect("sobel builds");
    let mut table = Table::new(
        std::iter::once("Objectives".to_owned())
            .chain(apps::SOBEL_TYPES.iter().map(|s| (*s).to_owned()))
            .collect(),
    );
    for (label, objs) in table4_sets() {
        let lib = build_library(&graph, &platform, &TdseConfig::new().with_objectives(objs))
            .expect("library builds");
        let mut row = vec![label.to_owned()];
        for ty in 0..apps::SOBEL_TYPES.len() {
            row.push(lib.pareto_count(TaskTypeId::new(ty as u32)).to_string());
        }
        table.row(row);
    }
    table.to_string()
}

/// The three task-level DSE configurations of Fig. 9 / Fig. 10 /
/// Table VII: increasingly many task-level objectives produce increasingly
/// large Pareto libraries.
///
/// `tDSE_1` optimizes average execution time + error probability (the
/// paper's stated tDSE_1); `tDSE_2` adds MTTF (Table IV set III);
/// `tDSE_3` further adds the fault-free minimum execution time `MinExT`
/// (a Table II metric). Energy/power/temperature are *not* used here
/// because under this crate's characterization model they are fully
/// determined by the time/power factors and add no Pareto points — the
/// constancy the paper itself observes after Table IV's row III.
pub fn tdse_runs() -> Vec<(&'static str, ObjectiveSet)> {
    vec![
        ("tDSE_1", ObjectiveSet::set_ii()),
        ("tDSE_2", ObjectiveSet::set_iii()),
        (
            "tDSE_3",
            ObjectiveSet::set_iii().with_objective(clre_model::Objective::MinExecTime),
        ),
    ]
}

/// Fig. 9: number of task-level Pareto implementations per synthetic task
/// type (`SYN_0`…`SYN_9`) for the three tDSE configurations.
///
/// Expected shape: counts grow monotonically from tDSE_1 to tDSE_3 for
/// every type.
pub fn fig9() -> String {
    let (platform, graph) = apps::synthetic_app(10, 7).expect("synthetic app builds");
    let mut table = Table::new(
        std::iter::once("run".to_owned())
            .chain((0..10).map(|i| format!("SYN_{i}")))
            .collect(),
    );
    for (label, objs) in tdse_runs() {
        let lib = build_library(&graph, &platform, &TdseConfig::new().with_objectives(objs))
            .expect("library builds");
        let mut row = vec![label.to_owned()];
        for ty in 0..10 {
            row.push(lib.pareto_count(TaskTypeId::new(ty)).to_string());
        }
        table.row(row);
    }
    table.to_string()
}

/// Convenience for tests: Pareto-library sizes per type for one run.
pub fn library_sizes(objs: &ObjectiveSet) -> Vec<usize> {
    let (platform, graph) = apps::synthetic_app(10, 7).expect("synthetic app builds");
    let lib = build_library(
        &graph,
        &platform,
        &TdseConfig::new().with_objectives(objs.clone()),
    )
    .expect("library builds");
    (0..graph.task_types().len())
        .map(|ty| lib.pareto_count(TaskTypeId::new(ty as u32)))
        .collect()
}

/// Checkpoint-interval study (after Das et al. CASES'13, the paper's
/// ref \[16\]): sweeping the number of inter-checkpoint intervals for one
/// task at the undervolted operating point. More checkpoints cut the
/// error probability and bound re-execution, but the added overhead time
/// raises the PE's utilization and therefore *degrades the system MTTF* —
/// the adverse lifetime effect the paper cites as motivation for joint
/// optimization.
pub fn chkpt() -> String {
    use clre::tdse::{evaluate_candidate, TdseConfig};
    use clre_model::reliability::{AswMethod, ClrConfig, HwMethod, SswMethod};
    use clre_model::{PeId, TaskId};
    use clre_sched::{Mapping, QosEvaluator};

    let platform = apps::sobel_platform();
    let graph = single_task_app(&platform, 42);
    let proc = platform
        .pe_type_by_name("embedded-proc")
        .expect("platform has the processor type");
    let pe_type = platform.pe_type(proc).expect("valid type");
    let mode = &pe_type.dvfs_modes()[2]; // undervolted: high fault rate
    let imp = &graph.task_types()[0].impls()[0];
    let config = TdseConfig::default();
    let evaluator = QosEvaluator::new(&platform);

    let mut table = Table::new(vec![
        "intervals".into(),
        "MinExT[us]".into(),
        "AvgExT[us]".into(),
        "ErrProb[%]".into(),
        "MTTF[h]".into(),
    ]);
    for intervals in 1..=6u32 {
        let ssw = if intervals == 1 {
            SswMethod::Retry
        } else {
            SswMethod::Checkpoint { intervals }
        };
        let clr = ClrConfig::new(HwMethod::None, ssw, AswMethod::None);
        let metrics = evaluate_candidate(imp, pe_type, mode, &clr, &config).expect("analyzable");
        let mapping = Mapping::new(vec![PeId::new(0)], vec![metrics], vec![TaskId::new(0)]);
        let qos = evaluator.evaluate(&graph, &mapping).expect("valid mapping");
        table.row(vec![
            intervals.to_string(),
            format!("{:.1}", metrics.min_exec_time * 1.0e6),
            format!("{:.1}", metrics.avg_exec_time * 1.0e6),
            format!("{:.3}", metrics.error_prob * 100.0),
            format!("{:.0}", qos.mttf / 3600.0),
        ]);
    }
    table.to_string()
}

/// Exposes the sobel-platform processor PE type id (used by benches).
pub fn sobel_proc_type() -> PeTypeId {
    apps::sobel_platform()
        .pe_type_by_name("embedded-proc")
        .expect("platform has the processor type")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_has_three_ordered_series() {
        let out = fig6a();
        for mode in ["1.2V/900MHz", "1.1V/600MHz", "1.06V/300MHz"] {
            assert!(out.contains(mode), "missing series {mode}");
        }
        // The nominal mode's fastest point beats the slow mode's fastest.
        let first_time = |mode: &str| -> f64 {
            out.lines()
                .find(|l| l.starts_with(mode))
                .and_then(|l| l.split(',').nth(1))
                .and_then(|v| v.parse::<f64>().ok())
                .expect("series row present")
        };
        assert!(first_time("1.2V/900MHz") < first_time("1.06V/300MHz"));
    }

    #[test]
    fn fig6b_masking_lowers_error_floor() {
        let out = fig6b();
        // Minimum error across the front must fall as masking rises.
        let min_err = |tag: &str| -> f64 {
            out.lines()
                .filter(|l| l.starts_with(tag))
                .filter_map(|l| l.split(',').nth(2))
                .filter_map(|v| v.parse::<f64>().ok())
                .fold(f64::MAX, f64::min)
        };
        assert!(min_err("ImplMask=20%") < min_err("ImplMask=0%"));
    }

    #[test]
    fn table4_row_one_is_pe_type_count() {
        let out = table4();
        let row1 = out
            .lines()
            .find(|l| l.starts_with("I: AvgExT"))
            .expect("row I present");
        let counts: Vec<usize> = row1
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn table4_counts_stabilize_after_set_iii() {
        let platform = apps::sobel_platform();
        let graph = apps::sobel(&platform, 42).unwrap();
        let counts: Vec<Vec<usize>> = table4_sets()
            .into_iter()
            .map(|(_, objs)| {
                let lib =
                    build_library(&graph, &platform, &TdseConfig::new().with_objectives(objs))
                        .unwrap();
                (0u32..4)
                    .map(|ty| lib.pareto_count(TaskTypeId::new(ty)))
                    .collect::<Vec<usize>>()
            })
            .collect();
        assert_eq!(counts[2], counts[3], "set IV should equal set III");
        assert_eq!(counts[3], counts[4], "set V should equal set IV");
        assert_eq!(counts[4], counts[5], "set VI should equal set V");
        // And II strictly grows over I for every type.
        for (c1, c0) in counts[1].iter().zip(&counts[0]) {
            assert!(c1 > c0);
        }
    }

    #[test]
    fn chkpt_study_shows_lifetime_tradeoff() {
        let out = chkpt();
        let rows: Vec<Vec<f64>> = out
            .lines()
            .skip(2)
            .map(|l| {
                l.split_whitespace()
                    .filter_map(|v| v.parse().ok())
                    .collect()
            })
            .collect();
        assert_eq!(rows.len(), 6);
        // Static overhead (MinExT) grows with checkpoint count.
        assert!(rows[5][1] > rows[1][1]);
        // And the MTTF of the k=6 configuration is below the k=2 one:
        // more overhead time ⇒ more PE stress ⇒ shorter lifetime.
        assert!(
            rows[5][4] < rows[1][4],
            "MTTF should fall with checkpoints: {rows:?}"
        );
    }

    #[test]
    fn fig9_counts_grow_with_objectives() {
        let runs = tdse_runs();
        let s1 = library_sizes(&runs[0].1);
        let s2 = library_sizes(&runs[1].1);
        let s3 = library_sizes(&runs[2].1);
        assert_eq!(s1.len(), 10);
        for ((a, b), c) in s1.iter().zip(&s2).zip(&s3) {
            assert!(a <= b && b <= c, "library sizes must be monotone");
        }
        assert!(s2.iter().sum::<usize>() > s1.iter().sum::<usize>());
        assert!(
            s3.iter().sum::<usize>() > s2.iter().sum::<usize>(),
            "tDSE_3 must strictly grow over tDSE_2: {s2:?} vs {s3:?}"
        );
    }
}
