//! Flat-buffer selection kernels: ENS non-dominated sort, cached-distance
//! SPEA2 density/truncation, and index-based crowding — the hot loops of
//! every MOEA generation, rewritten over [`ObjectiveMatrix`] /
//! [`DistanceMatrix`] with the naive algorithms retained as test oracles.
//!
//! # Bit-identity contract
//!
//! Every kernel here returns *exactly* what its naive predecessor
//! returned — same fronts in the same order, same survivor sets, same
//! density values to the bit — so the repo's determinism, resume and
//! cache tests double as correctness oracles. The two nontrivial
//! arguments:
//!
//! **ENS ≡ Deb.** [`ens_non_dominated_sort`] processes points in a
//! topological order of constrained dominance — ascending
//! `(violation, objectives…, index)` with zeros normalized — and inserts
//! each point into the first front containing no dominator. Because
//! constrained dominance is a strict partial order (transitive: a
//! dominator of a dominator dominates), a point's dominators occupy a
//! contiguous rank prefix `0..r`, so "first front with no dominator" is
//! exactly Deb's `1 + max dominator rank`: *membership* matches the
//! peeling sort. *Order within a front* is then reconstructed to match
//! the peeling loop exactly: front 0 is ascending index; front k lists
//! its members in ascending `(position in front k−1 of the member's last
//! front-(k−1) dominator, index)` — which is precisely when the naive
//! loop's dominance counter reaches zero. Inputs with NaN objectives or
//! non-finite/negative violations (possible under degraded-mode
//! analyses) break the topological-key property, so the dispatcher falls
//! back to the naive sort for them — same answer, slower path.
//!
//! **Cached truncation ≡ per-round truncation.** SPEA2 truncation drops,
//! each round, the member whose ascending distance vector to the
//! survivors is lexicographically smallest (first occurrence on ties).
//! [`spea2_truncate`] builds each member's sorted `(distance, slot)`
//! vector once and thereafter only *marks* removed members dead: each
//! row keeps a cursor past its dead prefix, and the lexicographic
//! comparison skips dead entries on the fly. Equal keys under `total_cmp`
//! are bit-identical, so whether a tied occurrence is physically removed
//! (the old eager scheme), tombstoned, or compacted away, the *live*
//! value sequence every comparison sees is the same — and all live rows
//! always have equal length (every row loses exactly the removed
//! members), so the length tie-break of [`spea2_truncate_naive`]'s
//! `lex_less` (equal sequences → not-less → first occurrence wins) is
//! reproduced by returning "not less" on simultaneous exhaustion.
//! Member bookkeeping replicates the naive routine's `swap_remove`, so
//! the scan order — and therefore every tie-break — evolves identically.
//! Rows are physically compacted every `max(n/4, 32)` removals to keep
//! the dead-entry skip cost bounded.
//!
//! The dominance checks on the hot paths (ENS insertion/reconstruction,
//! SPEA2 strength, Pareto front extraction) use the blocked kernels
//! ([`crate::pareto::dominates_blocked`]) — boolean-identical to the
//! scalar forms on every input including NaN, just branch-reduced for
//! autovectorization. The naive Deb sort keeps the scalar checks as the
//! independent oracle.

use std::cell::RefCell;
use std::cmp::Ordering;

use crate::matrix::{DistanceMatrix, ObjectiveMatrix};
use crate::pareto::{constrained_dominates, constrained_dominates_blocked, dominates_blocked};

/// Reusable per-thread buffers for one selection pass: the flat objective
/// matrix, the violation vector and the SPEA2 distance matrix. Selection
/// always runs on the driving thread (workers only evaluate), so one
/// thread-local set serves a whole run without allocation churn.
#[derive(Debug, Default)]
pub struct SelectionScratch {
    /// Flat objective rows of the population under selection.
    pub objectives: ObjectiveMatrix,
    /// Parallel constraint violations.
    pub violations: Vec<f64>,
    /// Pairwise squared distances (filled by [`spea2_fitness`]).
    pub distances: DistanceMatrix,
}

/// Per-generation selection cost split, in microseconds — what the
/// generation trace reports as `sort_us=`/`truncate_us=`/`dist_us=`
/// alongside the total `selection_us=`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelectionSplit {
    /// Total selection wall time (superset of the three parts below plus
    /// bookkeeping).
    pub total_us: u64,
    /// Fitness/ranking time (SPEA2 fitness, NSGA-II rank-and-crowd).
    pub sort_us: u64,
    /// Environmental truncation time.
    pub truncate_us: u64,
    /// Distance-matrix build/update/compact time (zero for NSGA-II).
    pub dist_us: u64,
}

thread_local! {
    static SCRATCH: RefCell<SelectionScratch> = RefCell::new(SelectionScratch::default());
}

/// Runs `f` with this thread's [`SelectionScratch`]. Buffers keep their
/// capacity between calls, so per-generation selection reuses one
/// allocation set.
///
/// Not reentrant: nesting `with_scratch` inside `f` panics (the scratch
/// is a single `RefCell`).
pub fn with_scratch<R>(f: impl FnOnce(&mut SelectionScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// `-0.0` → `+0.0` so the sort key treats them as the one value they
/// compare equal to; every other non-NaN value is unchanged.
#[inline]
fn norm(x: f64) -> f64 {
    x + 0.0
}

/// The topological sort key: ascending `(violation, objectives…)` with
/// normalized zeros. If `a` constrained-dominates `b` then `key(a) <
/// key(b)` (see the module docs) — provided no NaN and no negative
/// violation, which the dispatcher guarantees.
fn key_cmp(va: f64, a: &[f64], vb: f64, b: &[f64]) -> Ordering {
    norm(va).total_cmp(&norm(vb)).then_with(|| {
        for (x, y) in a.iter().zip(b) {
            let c = norm(*x).total_cmp(&norm(*y));
            if c != Ordering::Equal {
                return c;
            }
        }
        Ordering::Equal
    })
}

/// The naive Deb fast non-dominated sort on a flat matrix — `O(MN²)`
/// dominance checks. Retained as the oracle for
/// [`ens_non_dominated_sort`] (property-tested equal) and as its fallback
/// for degraded inputs.
pub fn deb_non_dominated_sort(points: &ObjectiveMatrix, violations: &[f64]) -> Vec<Vec<usize>> {
    assert_eq!(points.rows(), violations.len(), "length mismatch");
    let n = points.rows();
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // p dominates these
    let mut counts = vec![0usize; n]; // how many dominate p
    for i in 0..n {
        for j in (i + 1)..n {
            if constrained_dominates(points.row(i), violations[i], points.row(j), violations[j]) {
                dominated_by[i].push(j);
                counts[j] += 1;
            } else if constrained_dominates(
                points.row(j),
                violations[j],
                points.row(i),
                violations[i],
            ) {
                dominated_by[j].push(i);
                counts[i] += 1;
            }
        }
    }
    let mut fronts = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| counts[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &p in &current {
            for &q in &dominated_by[p] {
                counts[q] -= 1;
                if counts[q] == 0 {
                    next.push(q);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// ENS-SS non-dominated sort: sort by the topological key, insert each
/// point into the first existing front that contains no dominator of it,
/// then reconstruct the exact front order of [`deb_non_dominated_sort`]
/// (see the module docs for the equivalence argument). Falls back to the
/// naive sort when any objective is NaN or any violation is not a
/// non-negative number.
///
/// # Panics
///
/// Panics if `points` and `violations` differ in length.
pub fn ens_non_dominated_sort(points: &ObjectiveMatrix, violations: &[f64]) -> Vec<Vec<usize>> {
    assert_eq!(points.rows(), violations.len(), "length mismatch");
    if points.any_nan() || violations.iter().any(|v| v.is_nan() || *v < 0.0) {
        return deb_non_dominated_sort(points, violations);
    }
    let n = points.rows();
    if n == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| {
        key_cmp(violations[a], points.row(a), violations[b], points.row(b)).then(a.cmp(&b))
    });

    // Sequential-search insertion. All dominators of a point precede it
    // in `order`, so fronts only ever receive already-ranked dominators.
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    for &p in &order {
        let rank = fronts.iter().position(|front| {
            // Recently inserted members have the closest keys and are the
            // likeliest dominators — scan them first.
            !front.iter().rev().any(|&q| {
                constrained_dominates_blocked(
                    points.row(q),
                    violations[q],
                    points.row(p),
                    violations[p],
                )
            })
        });
        match rank {
            Some(r) => fronts[r].push(p),
            None => fronts.push(vec![p]),
        }
    }

    // Reconstruct the naive peeling loop's intra-front order.
    let mut deb: Vec<Vec<usize>> = Vec::with_capacity(fronts.len());
    let mut first = std::mem::take(&mut fronts[0]);
    first.sort_unstable();
    deb.push(first);
    for k in 1..fronts.len() {
        let prev = &deb[k - 1];
        let mut keyed: Vec<(usize, usize)> = fronts[k]
            .iter()
            .map(|&q| {
                let last = prev
                    .iter()
                    .rposition(|&p| {
                        constrained_dominates_blocked(
                            points.row(p),
                            violations[p],
                            points.row(q),
                            violations[q],
                        )
                    })
                    .expect("a rank-k point has a rank-(k-1) dominator");
                (last, q)
            })
            .collect();
        keyed.sort_unstable();
        deb.push(keyed.into_iter().map(|(_, q)| q).collect());
    }
    deb
}

/// Indices of the non-dominated rows of `points`, ascending — the
/// flat-buffer `non_dominated_indices`, same first-duplicate-wins
/// semantics: a row is dropped when another dominates it or when an
/// earlier row equals it.
///
/// Rows are visited in ascending lexicographic order (`partial_cmp`, ties
/// by index), and a row is kept unless a kept row dominates or equals it.
/// A dominator is lexicographically smaller, and an equal row of lower
/// index comes earlier, so every row that drops a row is visited before
/// it; a dropped dominator leaves a kept one that dominates or equals it,
/// and so dominates the row too. Matrices holding a NaN have no such
/// order and take [`non_dominated_matrix_naive`].
pub fn non_dominated_matrix(points: &ObjectiveMatrix) -> Vec<usize> {
    if points.any_nan() {
        return non_dominated_matrix_naive(points);
    }
    let mut order: Vec<usize> = (0..points.rows()).collect();
    // Stable, so equal rows stay in index order.
    order.sort_by(|&a, &b| {
        points
            .row(a)
            .iter()
            .zip(points.row(b))
            .map(|(x, y)| x.partial_cmp(y).expect("no NaN"))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    let mut keep: Vec<usize> = Vec::new();
    for i in order {
        let p = points.row(i);
        if !keep
            .iter()
            .any(|&k| points.row(k) == p || dominates_blocked(points.row(k), p))
        {
            keep.push(i);
        }
    }
    keep.sort_unstable();
    keep
}

/// The O(n²) scan behind [`non_dominated_matrix`]: every pair is
/// compared. Kept as its oracle and for matrices holding a NaN.
pub fn non_dominated_matrix_naive(points: &ObjectiveMatrix) -> Vec<usize> {
    let n = points.rows();
    let mut keep = Vec::new();
    'outer: for i in 0..n {
        let p = points.row(i);
        for j in 0..n {
            if i == j {
                continue;
            }
            let q = points.row(j);
            if dominates_blocked(q, p) || (q == p && j < i) {
                continue 'outer;
            }
        }
        keep.push(i);
    }
    keep
}

/// Crowding distance of the front `members` (row indices into `points`),
/// in `members` order — equal to materializing the rows and running the
/// legacy `crowding_distance`, without the copies.
pub fn crowding_distance_indexed(points: &ObjectiveMatrix, members: &[usize]) -> Vec<f64> {
    let n = members.len();
    let mut dist = vec![0.0f64; n];
    if n == 0 {
        return dist;
    }
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    let m = points.cols();
    let at = |w: usize, obj: usize| points.row(members[w])[obj];
    // `order` persists across objectives exactly like the legacy sort
    // (each stable sort starts from the previous objective's order).
    let mut order: Vec<usize> = (0..n).collect();
    for obj in 0..m {
        order.sort_by(|&a, &b| {
            at(a, obj)
                .partial_cmp(&at(b, obj))
                .unwrap_or(Ordering::Equal)
        });
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        let span = at(order[n - 1], obj) - at(order[0], obj);
        if span <= 0.0 {
            continue;
        }
        for w in 1..(n - 1) {
            let prev = at(order[w - 1], obj);
            let next = at(order[w + 1], obj);
            dist[order[w]] += (next - prev) / span;
        }
    }
    dist
}

/// SPEA2 fitness `F(i) = R(i) + D(i)` on the flat matrix, filling `dist`
/// (reused across generations) as a side effect so environmental
/// selection can truncate on cached distances. The k-th-nearest density
/// uses `select_nth_unstable_by` on a row copy instead of a full sort —
/// the k-th order statistic under the `total_cmp` total order is the same
/// value either way.
pub fn spea2_fitness(
    points: &ObjectiveMatrix,
    violations: &[f64],
    dist: &mut DistanceMatrix,
) -> Vec<f64> {
    dist.refill(points);
    spea2_fitness_prefilled(points, violations, dist)
}

/// [`spea2_fitness`] on an already-filled distance matrix — the
/// incremental entry point: callers that refreshed `dist` via
/// [`DistanceMatrix::refill_with_tail`] (or any other bit-identical
/// route) skip the full O(N²·M) rebuild.
///
/// # Panics
///
/// Panics if `points`, `violations` and `dist` disagree on the
/// population size.
pub fn spea2_fitness_prefilled(
    points: &ObjectiveMatrix,
    violations: &[f64],
    dist: &DistanceMatrix,
) -> Vec<f64> {
    assert_eq!(points.rows(), violations.len(), "length mismatch");
    let n = points.rows();
    assert_eq!(dist.len(), n, "distance matrix size mismatch");
    // Strength: how many others each individual dominates.
    let mut strength = vec![0usize; n];
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n]; // dominators of i
    for i in 0..n {
        for j in 0..n {
            if i != j
                && constrained_dominates_blocked(
                    points.row(i),
                    violations[i],
                    points.row(j),
                    violations[j],
                )
            {
                strength[i] += 1;
                dominated_by[j].push(i);
            }
        }
    }
    // Raw fitness: sum of the strengths of one's dominators.
    let raw: Vec<f64> = (0..n)
        .map(|i| dominated_by[i].iter().map(|&d| strength[d] as f64).sum())
        .collect();
    // Density: 1 / (σ_k + 2) with k = √n. A distance-matrix row includes
    // the zero self-distance — a minimum — so the k-th nearest *other*
    // point is the row's k-th order statistic.
    let k = (n as f64).sqrt() as usize;
    let mut scratch: Vec<f64> = Vec::with_capacity(n);
    let density: Vec<f64> = (0..n)
        .map(|i| {
            let sigma_k = if n <= 1 {
                0.0
            } else {
                scratch.clear();
                scratch.extend_from_slice(dist.row(i));
                let (_, kth, _) = scratch.select_nth_unstable_by(k, f64::total_cmp);
                kth.sqrt()
            };
            1.0 / (sigma_k + 2.0)
        })
        .collect();
    raw.iter().zip(&density).map(|(r, d)| r + d).collect()
}

/// Lexicographic "strictly less" over `total_cmp` — the tie-break key of
/// SPEA2 truncation, shared by the cached and naive routines so the two
/// stay comparison-for-comparison identical (and NaN-deterministic).
fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => {}
        }
    }
    a.len() < b.len()
}

/// One member's sorted neighbour state in the lazy truncation: entries
/// are ascending `(distance, original slot)` pairs over the *initial*
/// member set; `cursor` skips the row's known-dead prefix.
struct NeighborRow {
    entries: Vec<(f64, u32)>,
    cursor: usize,
}

/// SPEA2 archive truncation on cached distances: repeatedly drop the
/// member whose ascending distance vector to the remaining members is
/// lexicographically smallest, maintaining each member's sorted
/// neighbour state across removal rounds with lazy invalidation — a
/// removal only flips an `alive` bit, and comparisons skip dead entries
/// on the fly — instead of physically deleting one entry from every
/// survivor's vector per round. Rows are compacted (dead entries
/// dropped) every `max(n/4, 32)` removals to bound the skip cost.
///
/// `members` are distinct row indices of the population `dist` was built
/// over; the returned survivors replicate [`spea2_truncate_naive`]'s
/// `swap_remove` ordering exactly (see the module docs for the
/// tie-break argument).
pub fn spea2_truncate(dist: &DistanceMatrix, mut members: Vec<usize>, target: usize) -> Vec<usize> {
    if members.len() <= target {
        return members;
    }
    let n0 = members.len();
    let mut alive = vec![true; n0];
    let mut rows: Vec<NeighborRow> = (0..n0)
        .map(|s| {
            let i = members[s];
            let mut entries: Vec<(f64, u32)> = (0..n0)
                .filter(|&q| q != s)
                .map(|q| (dist.get(i, members[q]), q as u32))
                .collect();
            entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            NeighborRow { entries, cursor: 0 }
        })
        .collect();
    // `slots[pos]` is the original slot of the member now at `pos` —
    // kept in lockstep with `members` through every `swap_remove`.
    let mut slots: Vec<u32> = (0..n0 as u32).collect();
    let compact_every = (n0 / 4).max(32);
    let mut dead = 0usize;
    while members.len() > target {
        for row in &mut rows {
            while row
                .entries
                .get(row.cursor)
                .is_some_and(|&(_, q)| !alive[q as usize])
            {
                row.cursor += 1;
            }
        }
        let mut worst_pos = 0usize;
        for pos in 1..members.len() {
            if lex_less_live(&rows[pos], &rows[worst_pos], &alive) {
                worst_pos = pos;
            }
        }
        alive[slots[worst_pos] as usize] = false;
        dead += 1;
        members.swap_remove(worst_pos);
        rows.swap_remove(worst_pos);
        slots.swap_remove(worst_pos);
        if dead >= compact_every && members.len() > target {
            for row in &mut rows {
                row.entries.retain(|&(_, q)| alive[q as usize]);
                row.cursor = 0;
            }
            dead = 0;
        }
    }
    members
}

/// Lexicographic "strictly less" over the *live* entries of two neighbour
/// rows — [`lex_less`] with dead entries skipped on the fly. Both rows
/// always hold the same number of live entries (each lost exactly the
/// removed members), so simultaneous exhaustion is the only way the walk
/// ends, and it returns `false` exactly like `lex_less` on equal-length
/// equal sequences.
fn lex_less_live(a: &NeighborRow, b: &NeighborRow, alive: &[bool]) -> bool {
    let mut ia = a.cursor;
    let mut ib = b.cursor;
    loop {
        while a.entries.get(ia).is_some_and(|&(_, q)| !alive[q as usize]) {
            ia += 1;
        }
        while b.entries.get(ib).is_some_and(|&(_, q)| !alive[q as usize]) {
            ib += 1;
        }
        match (a.entries.get(ia), b.entries.get(ib)) {
            (None, None) => return false,
            (None, Some(_)) => return true,
            (Some(_), None) => return false,
            (Some(&(da, _)), Some(&(db, _))) => match da.total_cmp(&db) {
                Ordering::Less => return true,
                Ordering::Greater => return false,
                Ordering::Equal => {
                    ia += 1;
                    ib += 1;
                }
            },
        }
    }
}

/// The per-round truncation — the oracle for [`spea2_truncate`]: each
/// round re-materializes and re-sorts every member's distance vector.
pub fn spea2_truncate_naive(
    dist: &DistanceMatrix,
    mut members: Vec<usize>,
    target: usize,
) -> Vec<usize> {
    while members.len() > target {
        let mut worst_pos = 0usize;
        let mut worst_key: Vec<f64> = Vec::new();
        for (pos, &i) in members.iter().enumerate() {
            let mut dists: Vec<f64> = members
                .iter()
                .filter(|&&j| j != i)
                .map(|&j| dist.get(i, j))
                .collect();
            dists.sort_unstable_by(f64::total_cmp);
            if pos == 0 || lex_less(&dists, &worst_key) {
                worst_key = dists;
                worst_pos = pos;
            }
        }
        members.swap_remove(worst_pos);
    }
    members
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[Vec<f64>]) -> ObjectiveMatrix {
        ObjectiveMatrix::from_rows(rows)
    }

    #[test]
    fn ens_matches_deb_on_layered_cloud() {
        let pts = m(&[
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![3.0, 3.0],
            vec![1.0, 2.5],
            vec![2.0, 2.0], // duplicate of index 1
            vec![0.5, 3.5],
        ]);
        let v = vec![0.0; 6];
        assert_eq!(
            ens_non_dominated_sort(&pts, &v),
            deb_non_dominated_sort(&pts, &v)
        );
    }

    #[test]
    fn ens_matches_deb_with_constraints() {
        let pts = m(&[
            vec![0.0, 0.0],
            vec![5.0, 5.0],
            vec![1.0, 1.0],
            vec![2.0, 0.5],
        ]);
        let v = vec![1.0, 0.0, 0.5, 0.5];
        assert_eq!(
            ens_non_dominated_sort(&pts, &v),
            deb_non_dominated_sort(&pts, &v)
        );
    }

    #[test]
    fn ens_matches_deb_with_negative_zero() {
        // −0.0 and +0.0 compare equal for dominance but differ under
        // total_cmp: the key normalization keeps the topological order.
        let pts = m(&[
            vec![0.0, 1.0],
            vec![-0.0, 2.0],
            vec![-0.0, 1.0],
            vec![0.0, 2.0],
        ]);
        let v = vec![0.0, 0.0, 0.0, 0.0];
        assert_eq!(
            ens_non_dominated_sort(&pts, &v),
            deb_non_dominated_sort(&pts, &v)
        );
    }

    #[test]
    fn ens_falls_back_on_nan_and_negative_violation() {
        let pts = m(&[vec![1.0, f64::NAN], vec![2.0, 1.0], vec![0.5, 0.5]]);
        let v = vec![0.0; 3];
        assert_eq!(
            ens_non_dominated_sort(&pts, &v),
            deb_non_dominated_sort(&pts, &v)
        );
        let pts = m(&[vec![1.0, 1.0], vec![2.0, 2.0]]);
        let v = vec![-1.0, 0.0];
        assert_eq!(
            ens_non_dominated_sort(&pts, &v),
            deb_non_dominated_sort(&pts, &v)
        );
    }

    #[test]
    fn ens_empty_and_single() {
        let empty = ObjectiveMatrix::new(2);
        assert!(ens_non_dominated_sort(&empty, &[]).is_empty());
        let one = m(&[vec![1.0, 2.0]]);
        assert_eq!(ens_non_dominated_sort(&one, &[0.0]), vec![vec![0]]);
    }

    #[test]
    fn indexed_crowding_matches_materialized() {
        let pts = m(&[
            vec![9.0, 9.0], // not in the front
            vec![0.0, 3.0],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![3.0, 0.0],
        ]);
        let members = [1usize, 2, 3, 4];
        let rows: Vec<Vec<f64>> = members.iter().map(|&i| pts.row(i).to_vec()).collect();
        let expect = crate::pareto::crowding_distance(&rows);
        let got = crowding_distance_indexed(&pts, &members);
        assert_eq!(expect.len(), got.len());
        for (a, b) in expect.iter().zip(&got) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn cached_truncation_matches_naive_with_duplicates() {
        let pts = m(&[
            vec![0.0, 4.0],
            vec![1.0, 3.0],
            vec![1.0, 3.0], // duplicate → zero-distance tie
            vec![2.0, 2.0],
            vec![3.0, 1.0],
            vec![4.0, 0.0],
        ]);
        let dist = DistanceMatrix::from_points(&pts);
        for target in 1..=5 {
            let all: Vec<usize> = (0..6).collect();
            assert_eq!(
                spea2_truncate(&dist, all.clone(), target),
                spea2_truncate_naive(&dist, all, target),
                "target={target}"
            );
        }
    }

    #[test]
    fn lazy_truncation_matches_naive_past_compaction_threshold() {
        // n = 160 with target 20 forces 140 removals → several physical
        // compaction passes (every max(n/4, 32) = 40 removals).
        let mut seed = 0x5EED_u64;
        let mut rows = Vec::new();
        for _ in 0..160 {
            let mut r = [0.0f64; 2];
            for x in r.iter_mut() {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                // Coarse grid → plenty of exactly-tied distances.
                *x = ((seed >> 11) % 8) as f64 * 0.5;
            }
            rows.push(r.to_vec());
        }
        let pts = m(&rows);
        let dist = DistanceMatrix::from_points(&pts);
        for target in [20usize, 100, 159] {
            let all: Vec<usize> = (0..160).collect();
            assert_eq!(
                spea2_truncate(&dist, all.clone(), target),
                spea2_truncate_naive(&dist, all, target),
                "target={target}"
            );
        }
    }

    #[test]
    fn prefilled_fitness_matches_refill_path() {
        let pts = m(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
        ]);
        let v = vec![0.0; 4];
        let mut dist = DistanceMatrix::default();
        let full = spea2_fitness(&pts, &v, &mut dist);
        let pre = spea2_fitness_prefilled(&pts, &v, &dist);
        for (a, b) in full.iter().zip(&pre) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fitness_kernel_matches_legacy_density_semantics() {
        // n = 4 → k = 2: σ_k is the 2nd-nearest-neighbour distance.
        let pts = m(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
        ]);
        let v = vec![0.0; 4];
        let mut dist = DistanceMatrix::default();
        let f = spea2_fitness(&pts, &v, &mut dist);
        // Point 0 dominates point 3 only; its 2nd-nearest is sq-dist 1.
        assert_eq!(f[0], 1.0 / (1.0f64.sqrt() + 2.0));
        assert!(f[3] >= 1.0, "dominated point must have F ≥ 1");
        // The distance matrix was left filled for truncation reuse.
        assert_eq!(dist.len(), 4);
        assert_eq!(dist.get(0, 1), 1.0);
    }

    #[test]
    fn scratch_reuses_buffers() {
        let r = with_scratch(|s| {
            s.objectives.refill(2, [[1.0, 2.0].as_slice()]);
            s.violations.clear();
            s.violations.push(0.0);
            s.objectives.rows()
        });
        assert_eq!(r, 1);
        with_scratch(|s| {
            // Second entry sees the same (cleared-on-refill) buffers.
            assert_eq!(s.objectives.rows(), 1);
        });
    }
}
