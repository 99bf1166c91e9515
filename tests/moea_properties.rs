//! Property-based tests of the MOEA substrate: dominance, Pareto
//! filtering, non-dominated sorting, crowding and hypervolume invariants.

use clrearly::moea::hypervolume::{hypervolume, hypervolume_2d};
use clrearly::moea::kernels;
use clrearly::moea::pareto::{
    constrained_dominates, constrained_dominates_blocked, crowding_distance, dominates,
    dominates_blocked, fast_non_dominated_sort, non_dominated_indices, pareto_filter,
};
use clrearly::moea::{DistanceMatrix, ObjectiveMatrix};
use proptest::prelude::*;

/// Objective coordinates chosen to exercise every dominance edge case:
/// NaN payloads, signed zeros, exact ties and infinities.
fn arb_nasty_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(-0.0),
        Just(0.0),
        Just(0.5),
        Just(1.0),
        Just(-1.5),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// Constraint violations including the negative and NaN values the
/// scalar kernel treats as "infeasible unless exactly 0.0".
fn arb_nasty_violation() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(-0.0), Just(0.5), Just(-1.0), Just(f64::NAN),]
}

/// One edit step applied to an evolving point set plus its incrementally
/// maintained distance matrix.
#[derive(Debug, Clone)]
enum DistOp {
    /// Overwrite the rows at these (to-be-clamped) indices with fresh
    /// coordinates, then `update_rows` those indices.
    Update(Vec<(usize, Vec<f64>)>),
    /// Keep a pseudo-random strictly-ascending subset of rows (selected
    /// by this bitmask seed) via `compact`.
    Compact(u64),
    /// Prepend fresh rows and rebuild through `refill_with_tail`, reusing
    /// the current matrix as the trailing block.
    Grow(Vec<Vec<f64>>),
}

fn arb_dist_op(dim: usize) -> impl Strategy<Value = DistOp> {
    let coord = -10.0..10.0f64;
    let row = prop::collection::vec(coord.clone(), dim);
    prop_oneof![
        prop::collection::vec((0usize..64, row.clone()), 1..6).prop_map(DistOp::Update),
        any::<u64>().prop_map(DistOp::Compact),
        prop::collection::vec(row, 1..5).prop_map(DistOp::Grow),
    ]
}

fn arb_points(dim: usize, max: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0..10.0f64, dim), 1..max)
}

/// Constrained clouds on a coarse lattice: exact duplicates and per-axis
/// ties are common, and about a third of the points are infeasible — the
/// hard case for order-sensitive kernels.
fn arb_constrained_lattice(dim: usize, max: usize) -> impl Strategy<Value = Vec<(Vec<f64>, f64)>> {
    prop::collection::vec(
        (
            prop::collection::vec((0u32..6).prop_map(|x| f64::from(x) * 0.5), dim),
            (0u32..3).prop_map(|v| if v == 2 { 1.5 } else { 0.0 }),
        ),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric(p in prop::collection::vec(0.0..10.0f64, 3)) {
        prop_assert!(!dominates(&p, &p));
        let q: Vec<f64> = p.iter().map(|x| x + 1.0).collect();
        prop_assert!(dominates(&p, &q));
        prop_assert!(!dominates(&q, &p));
    }

    #[test]
    fn pareto_filter_is_idempotent(points in arb_points(2, 40)) {
        let once = pareto_filter(&points);
        let twice = pareto_filter(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn filtered_points_are_mutually_nondominated(points in arb_points(3, 40)) {
        let front = pareto_filter(&points);
        for a in &front {
            for b in &front {
                prop_assert!(!dominates(a, b) || a == b);
            }
        }
    }

    #[test]
    fn every_dropped_point_is_dominated_or_duplicate(points in arb_points(2, 30)) {
        let keep = non_dominated_indices(&points);
        for (i, p) in points.iter().enumerate() {
            if keep.contains(&i) {
                continue;
            }
            let covered = points
                .iter()
                .enumerate()
                .any(|(j, q)| i != j && (dominates(q, p) || (q == p && j < i)));
            prop_assert!(covered, "point {i} dropped without a dominator");
        }
    }

    #[test]
    fn sort_fronts_partition_population(points in arb_points(2, 40)) {
        let violations = vec![0.0; points.len()];
        let fronts = fast_non_dominated_sort(&points, &violations);
        let mut seen = vec![false; points.len()];
        for front in &fronts {
            for &i in front {
                prop_assert!(!seen[i], "index {i} in two fronts");
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Front 0 must equal the non-dominated filter result (as sets).
        let mut f0 = fronts[0].clone();
        f0.sort_unstable();
        let mut nd = non_dominated_indices(&points);
        // non_dominated_indices drops exact duplicates; front 0 keeps them.
        // Every nd index must be in front 0.
        nd.retain(|i| !f0.contains(i));
        prop_assert!(nd.is_empty(), "nd indices missing from front 0: {nd:?}");
    }

    #[test]
    fn later_fronts_are_dominated_by_earlier(points in arb_points(2, 25)) {
        let violations = vec![0.0; points.len()];
        let fronts = fast_non_dominated_sort(&points, &violations);
        for w in fronts.windows(2) {
            for &later in &w[1] {
                let dominated = w[0]
                    .iter()
                    .any(|&earlier| dominates(&points[earlier], &points[later]));
                prop_assert!(dominated, "front member {later} not dominated by previous front");
            }
        }
    }

    #[test]
    fn crowding_is_nonnegative_and_boundaries_infinite(points in arb_points(2, 20)) {
        let front = pareto_filter(&points);
        let d = crowding_distance(&front);
        prop_assert!(d.iter().all(|&x| x >= 0.0));
        if front.len() > 2 {
            let inf = d.iter().filter(|x| x.is_infinite()).count();
            prop_assert!(inf >= 2, "at least both boundary points must be infinite");
        }
    }

    #[test]
    fn hypervolume_nonnegative_and_bounded(points in arb_points(2, 30)) {
        let r = [11.0, 11.0];
        let hv = hypervolume_2d(&points, &r);
        prop_assert!(hv >= 0.0);
        // Bounded by the box from the ideal corner to the reference.
        prop_assert!(hv <= 11.0 * 11.0 + 1e-9);
    }

    #[test]
    fn hypervolume_monotone_under_union(a in arb_points(2, 15), b in arb_points(2, 15)) {
        let r = [11.0, 11.0];
        let mut union = a.clone();
        union.extend(b);
        prop_assert!(hypervolume_2d(&union, &r) >= hypervolume_2d(&a, &r) - 1e-12);
    }

    #[test]
    fn wfg_agrees_with_sweep_in_2d(points in arb_points(2, 12)) {
        // Route the same points through the n-D WFG machinery by lifting
        // them to 3-D with a constant third axis; volumes must match the
        // 2-D sweep times the third-axis extent.
        let r2 = [11.0, 11.0];
        let sweep = hypervolume_2d(&points, &r2);
        let lifted: Vec<Vec<f64>> = points.iter().map(|p| vec![p[0], p[1], 5.0]).collect();
        let wfg = hypervolume(&lifted, &[11.0, 11.0, 6.0]);
        prop_assert!((wfg - sweep).abs() < 1e-9, "{wfg} vs {sweep}");
    }

    #[test]
    fn dominated_points_never_change_hypervolume(points in arb_points(2, 20)) {
        let r = [11.0, 11.0];
        let full = hypervolume_2d(&points, &r);
        let front = pareto_filter(&points);
        let filtered = hypervolume_2d(&front, &r);
        prop_assert!((full - filtered).abs() < 1e-12);
    }

    #[test]
    fn ens_sort_equals_deb_oracle_on_tied_clouds(cloud in arb_constrained_lattice(3, 60)) {
        let rows: Vec<Vec<f64>> = cloud.iter().map(|(p, _)| p.clone()).collect();
        let violations: Vec<f64> = cloud.iter().map(|(_, v)| *v).collect();
        let m = ObjectiveMatrix::from_rows(&rows);
        let ens = kernels::ens_non_dominated_sort(&m, &violations);
        let deb = kernels::deb_non_dominated_sort(&m, &violations);
        prop_assert_eq!(ens, deb);
    }

    #[test]
    fn ens_sort_equals_deb_oracle_on_continuous_clouds(points in arb_points(2, 50)) {
        let violations = vec![0.0; points.len()];
        let m = ObjectiveMatrix::from_rows(&points);
        let ens = kernels::ens_non_dominated_sort(&m, &violations);
        let deb = kernels::deb_non_dominated_sort(&m, &violations);
        prop_assert_eq!(ens, deb);
    }

    #[test]
    fn blocked_dominance_equals_scalar_on_nasty_vectors(
        pairs in prop::collection::vec(arb_nasty_coord(), 1..11)
            .prop_flat_map(|a| {
                let n = a.len();
                (Just(a), prop::collection::vec(arb_nasty_coord(), n))
            }),
        va in arb_nasty_violation(),
        vb in arb_nasty_violation(),
    ) {
        let (a, b) = pairs;
        prop_assert_eq!(dominates_blocked(&a, &b), dominates(&a, &b));
        prop_assert_eq!(dominates_blocked(&b, &a), dominates(&b, &a));
        prop_assert_eq!(
            constrained_dominates_blocked(&a, va, &b, vb),
            constrained_dominates(&a, va, &b, vb)
        );
        prop_assert_eq!(
            constrained_dominates_blocked(&b, vb, &a, va),
            constrained_dominates(&b, vb, &a, va)
        );
    }

    #[test]
    fn blocked_dominance_equals_scalar_on_tied_lattices(cloud in arb_constrained_lattice(5, 20)) {
        for (a, va) in &cloud {
            for (b, vb) in &cloud {
                prop_assert_eq!(dominates_blocked(a, b), dominates(a, b));
                prop_assert_eq!(
                    constrained_dominates_blocked(a, *va, b, *vb),
                    constrained_dominates(a, *va, b, *vb)
                );
            }
        }
    }

    #[test]
    fn incremental_distance_matrix_equals_full_rebuild(
        start in arb_points(3, 12),
        ops in prop::collection::vec(arb_dist_op(3), 1..8),
    ) {
        let mut rows = start;
        let mut m = ObjectiveMatrix::from_rows(&rows);
        let mut dist = DistanceMatrix::from_points(&m);
        for op in ops {
            match op {
                DistOp::Update(edits) => {
                    let mut changed: Vec<usize> = edits
                        .iter()
                        .map(|(i, _)| i % rows.len())
                        .collect();
                    for ((i, row), &slot) in edits.iter().zip(&changed) {
                        let _ = i;
                        rows[slot] = row.clone();
                    }
                    changed.sort_unstable();
                    changed.dedup();
                    m = ObjectiveMatrix::from_rows(&rows);
                    dist.update_rows(&m, &changed);
                }
                DistOp::Compact(mask) => {
                    let keep: Vec<usize> = (0..rows.len())
                        .filter(|&i| i == 0 || mask >> (i % 64) & 1 == 1)
                        .collect();
                    rows = keep.iter().map(|&i| rows[i].clone()).collect();
                    m = ObjectiveMatrix::from_rows(&rows);
                    dist.compact(&keep);
                }
                DistOp::Grow(fresh) => {
                    let tail = dist.clone();
                    let mut next = fresh;
                    next.extend(rows.iter().cloned());
                    rows = next;
                    m = ObjectiveMatrix::from_rows(&rows);
                    dist.refill_with_tail(&m, &tail);
                }
            }
            let full = DistanceMatrix::from_points(&m);
            prop_assert!(
                dist.bits_eq(&full),
                "incremental matrix diverged from full rebuild at n={}",
                rows.len()
            );
        }
    }

    #[test]
    fn cached_truncation_equals_naive_oracle(cloud in arb_constrained_lattice(2, 40)) {
        let rows: Vec<Vec<f64>> = cloud.iter().map(|(p, _)| p.clone()).collect();
        let m = ObjectiveMatrix::from_rows(&rows);
        let dist = DistanceMatrix::from_points(&m);
        let members: Vec<usize> = (0..rows.len()).collect();
        for target in [0, rows.len() / 2, rows.len().saturating_sub(1), rows.len()] {
            let cached = kernels::spea2_truncate(&dist, members.clone(), target);
            let naive = kernels::spea2_truncate_naive(&dist, members.clone(), target);
            prop_assert_eq!(cached, naive, "target {}", target);
        }
    }

    #[test]
    fn sorted_pareto_filter_equals_naive_scan(
        rows in prop::collection::vec(prop::collection::vec(arb_tie_coord(), 3), 0..40),
        nasty in prop::collection::vec(prop::collection::vec(arb_nasty_coord(), 2), 0..12),
    ) {
        // Few distinct values: ties, duplicates and signed zeros abound,
        // and the sorted filter runs (no NaN).
        let m = ObjectiveMatrix::from_rows(&rows);
        prop_assert_eq!(kernels::non_dominated_matrix(&m), kernels::non_dominated_matrix_naive(&m));
        // NaN, infinities and signed zeros: a NaN sends the matrix to the
        // naive scan, the rest to the sorted filter.
        let m = ObjectiveMatrix::from_rows(&nasty);
        prop_assert_eq!(kernels::non_dominated_matrix(&m), kernels::non_dominated_matrix_naive(&m));
    }
}

/// Coordinates from a small set with both zeros, so that rows tie,
/// repeat and differ only in the sign of a zero.
fn arb_tie_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0),
        Just(0.0),
        Just(1.0),
        Just(2.0),
        Just(f64::INFINITY)
    ]
}
