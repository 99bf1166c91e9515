//! Pareto dominance utilities: dominance tests, non-dominated filtering
//! and fast non-dominated sorting with constraint-domination.
//!
//! All comparisons assume **minimization** on every axis.
//!
//! The slice-of-`Vec` entry points here are thin wrappers over the
//! flat-buffer kernels in [`crate::kernels`]; callers on the hot path
//! (the MOEA generation loops) use the kernels directly on an
//! [`ObjectiveMatrix`](crate::matrix::ObjectiveMatrix) to skip the
//! per-row allocations.

use crate::kernels;
use crate::matrix::ObjectiveMatrix;

/// Returns `true` if `a` Pareto-dominates `b` (a ≤ b everywhere, a < b
/// somewhere).
///
/// # Panics
///
/// Panics if the vectors have different lengths.
///
/// # Examples
///
/// ```
/// use clre_moea::pareto::dominates;
///
/// assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
/// assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
/// assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0])); // incomparable
/// ```
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must share a length");
    let mut strictly = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Constraint-domination (Deb's rules): a feasible solution dominates any
/// infeasible one; among infeasible solutions the smaller violation
/// dominates; among feasible solutions regular Pareto dominance applies.
pub fn constrained_dominates(a: &[f64], va: f64, b: &[f64], vb: f64) -> bool {
    match (va == 0.0, vb == 0.0) {
        (true, false) => true,
        (false, true) => false,
        (false, false) => va < vb,
        (true, true) => dominates(a, b),
    }
}

/// Branch-reduced dominance over flat rows: 4-wide unrolled flag
/// accumulation instead of the early-exit scan of [`dominates`].
///
/// Returns the same boolean as [`dominates`] for every input, including
/// NaN axes: `NaN > y`, `NaN < y`, `x > NaN` and `x < NaN` are all false
/// in both versions, so a NaN axis contributes to neither flag here and
/// triggers neither branch there. The flag form has no data-dependent
/// branches in the loop body, which lets stable rustc autovectorize the
/// chunked comparisons without any intrinsics.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn dominates_blocked(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "objective vectors must share a length");
    let mut worse = false;
    let mut better = false;
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        worse |= (x[0] > y[0]) | (x[1] > y[1]) | (x[2] > y[2]) | (x[3] > y[3]);
        better |= (x[0] < y[0]) | (x[1] < y[1]) | (x[2] < y[2]) | (x[3] < y[3]);
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        worse |= x > y;
        better |= x < y;
    }
    better && !worse
}

/// [`constrained_dominates`] with the Pareto comparison routed through
/// the blocked kernel. The violation arms are untouched, including their
/// NaN behaviour (`va == 0.0` is false for NaN, and `NaN < vb` is false).
pub fn constrained_dominates_blocked(a: &[f64], va: f64, b: &[f64], vb: f64) -> bool {
    match (va == 0.0, vb == 0.0) {
        (true, false) => true,
        (false, true) => false,
        (false, false) => va < vb,
        (true, true) => dominates_blocked(a, b),
    }
}

/// Returns the indices of the non-dominated points of `points`, ascending.
///
/// Of exact duplicates only the first occurrence is kept: neither
/// duplicate dominates the other, so the later one is dropped as equal
/// to an earlier point.
///
/// # Examples
///
/// ```
/// use clre_moea::pareto::non_dominated_indices;
///
/// let pts = vec![vec![1.0, 4.0], vec![2.0, 2.0], vec![3.0, 3.0], vec![4.0, 1.0]];
/// assert_eq!(non_dominated_indices(&pts), vec![0, 1, 3]);
///
/// // The duplicate at index 1 is dropped, not kept beside index 0.
/// let dup = vec![vec![1.0, 2.0], vec![1.0, 2.0], vec![3.0, 0.5]];
/// assert_eq!(non_dominated_indices(&dup), vec![0, 2]);
/// ```
pub fn non_dominated_indices(points: &[Vec<f64>]) -> Vec<usize> {
    kernels::non_dominated_matrix(&ObjectiveMatrix::from_rows(points))
}

/// Filters `points` down to its Pareto front (first occurrence of
/// duplicates kept).
pub fn pareto_filter(points: &[Vec<f64>]) -> Vec<Vec<f64>> {
    non_dominated_indices(points)
        .into_iter()
        .map(|i| points[i].clone())
        .collect()
}

/// Fast non-dominated sort. Returns fronts of indices: `fronts[0]` is the
/// non-dominated set, `fronts[1]` the set dominated only by front 0, etc.
///
/// `violations[i]` feeds constraint-domination; pass all zeros for an
/// unconstrained sort.
///
/// Dispatches to the ENS-SS kernel
/// ([`kernels::ens_non_dominated_sort`]), which returns the same fronts
/// in the same order as the classic Deb peeling sort (kept as
/// [`kernels::deb_non_dominated_sort`], the test oracle and
/// degraded-input fallback).
///
/// # Panics
///
/// Panics if `points` and `violations` differ in length.
pub fn fast_non_dominated_sort(points: &[Vec<f64>], violations: &[f64]) -> Vec<Vec<usize>> {
    kernels::ens_non_dominated_sort(&ObjectiveMatrix::from_rows(points), violations)
}

/// Crowding distance of each point within one front (Deb et al.).
/// Boundary points get `f64::INFINITY`.
///
/// # Panics
///
/// Panics if the points have inconsistent dimensionality.
pub fn crowding_distance(points: &[Vec<f64>]) -> Vec<f64> {
    let matrix = ObjectiveMatrix::from_rows(points);
    let members: Vec<usize> = (0..matrix.rows()).collect();
    kernels::crowding_distance_indexed(&matrix, &members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[0.0, 0.0], &[1.0, 1.0]));
        assert!(dominates(&[0.0, 1.0], &[0.0, 2.0]));
        assert!(!dominates(&[0.0, 2.0], &[0.0, 1.0]));
        assert!(!dominates(&[1.0], &[1.0]));
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn dominance_length_mismatch_panics() {
        dominates(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn blocked_dominance_matches_scalar_on_edge_values() {
        let vals = [f64::NAN, -0.0, 0.0, 0.5, 1.0, -1.5, f64::INFINITY];
        // Exhaustive 2-axis grid plus 5-axis vectors exercising the
        // remainder lane of the 4-wide kernel.
        for &a0 in &vals {
            for &a1 in &vals {
                for &b0 in &vals {
                    for &b1 in &vals {
                        let a = [a0, a1];
                        let b = [b0, b1];
                        assert_eq!(dominates(&a, &b), dominates_blocked(&a, &b));
                        let a5 = [a0, a1, a0, a1, a0];
                        let b5 = [b0, b1, b1, b0, b1];
                        assert_eq!(dominates(&a5, &b5), dominates_blocked(&a5, &b5));
                    }
                }
            }
        }
    }

    #[test]
    fn blocked_constrained_matches_scalar_including_nan_violations() {
        let viol = [0.0, -0.0, 0.5, -1.0, f64::NAN];
        for &va in &viol {
            for &vb in &viol {
                let a = [1.0, 2.0, 3.0, 4.0];
                let b = [2.0, 2.0, 3.0, 5.0];
                assert_eq!(
                    constrained_dominates(&a, va, &b, vb),
                    constrained_dominates_blocked(&a, va, &b, vb),
                    "va={va}, vb={vb}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn blocked_dominance_length_mismatch_panics() {
        dominates_blocked(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn constrained_dominance_rules() {
        // Feasible beats infeasible regardless of objectives.
        assert!(constrained_dominates(&[9.0], 0.0, &[0.0], 1.0));
        assert!(!constrained_dominates(&[0.0], 1.0, &[9.0], 0.0));
        // Less violation wins among infeasible.
        assert!(constrained_dominates(&[9.0], 0.1, &[0.0], 0.2));
        // Both feasible: Pareto.
        assert!(constrained_dominates(&[1.0], 0.0, &[2.0], 0.0));
    }

    #[test]
    fn filter_keeps_front_and_first_duplicate() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 2.0],
            vec![2.0, 2.0], // duplicate: dropped
            vec![3.0, 3.0], // dominated
            vec![4.0, 1.0],
        ];
        assert_eq!(non_dominated_indices(&pts), vec![0, 1, 4]);
        assert_eq!(pareto_filter(&pts).len(), 3);
    }

    #[test]
    fn filter_of_single_point() {
        assert_eq!(pareto_filter(&[vec![1.0, 1.0]]).len(), 1);
        assert!(pareto_filter(&[]).is_empty());
    }

    #[test]
    fn sort_produces_layered_fronts() {
        let pts = vec![
            vec![1.0, 1.0], // front 0
            vec![2.0, 2.0], // front 1
            vec![3.0, 3.0], // front 2
            vec![1.0, 2.5], // front 1 (dominated only by [1,1])
        ];
        let fronts = fast_non_dominated_sort(&pts, &[0.0; 4]);
        assert_eq!(fronts[0], vec![0]);
        assert_eq!(fronts[1], vec![1, 3]);
        assert_eq!(fronts[2], vec![2]);
    }

    #[test]
    fn sort_respects_constraints() {
        let pts = vec![vec![0.0, 0.0], vec![5.0, 5.0]];
        // The better point is infeasible ⇒ it lands in front 1.
        let fronts = fast_non_dominated_sort(&pts, &[1.0, 0.0]);
        assert_eq!(fronts[0], vec![1]);
        assert_eq!(fronts[1], vec![0]);
    }

    #[test]
    fn sort_total_size_preserved() {
        let pts: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let fronts = fast_non_dominated_sort(&pts, &[0.0; 20]);
        let total: usize = fronts.iter().map(Vec::len).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn crowding_boundaries_infinite() {
        let pts = vec![
            vec![0.0, 3.0],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![3.0, 0.0],
        ];
        let d = crowding_distance(&pts);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[1] > 0.0);
        // Symmetric layout ⇒ equal interior distances.
        assert!((d[1] - d[2]).abs() < 1e-12);
    }

    #[test]
    fn crowding_small_fronts_all_infinite() {
        assert_eq!(crowding_distance(&[vec![1.0, 2.0]]), vec![f64::INFINITY]);
        assert_eq!(
            crowding_distance(&[vec![1.0, 2.0], vec![2.0, 1.0]]),
            vec![f64::INFINITY, f64::INFINITY]
        );
        assert!(crowding_distance(&[]).is_empty());
    }

    #[test]
    fn crowding_rewards_isolation() {
        // Middle point crowded between close neighbours vs isolated one.
        let pts = vec![
            vec![0.0, 10.0],
            vec![0.1, 9.8], // crowded
            vec![0.2, 9.6],
            vec![5.0, 1.0], // isolated
            vec![10.0, 0.0],
        ];
        let d = crowding_distance(&pts);
        assert!(d[3] > d[1]);
    }
}
