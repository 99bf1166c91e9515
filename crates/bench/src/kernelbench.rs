//! MOEA selection-kernel benchmark: times the flat-buffer kernels of
//! `clre-moea` against the naive algorithms they replaced, on synthetic
//! point clouds at N ∈ {100, 400, 1600} × M ∈ {2, 4}.
//!
//! Four kernels are measured per (N, M) cell:
//!
//! 1. **non-dominated sort** — ENS-SS ([`kernels::ens_non_dominated_sort`])
//!    vs the classic Deb peeling sort ([`kernels::deb_non_dominated_sort`],
//!    retained as the oracle). The two must return identical fronts —
//!    the report carries `fronts_identical` and a speedup claim without
//!    it is meaningless;
//! 2. **crowding distance** over the first front
//!    ([`kernels::crowding_distance_indexed`]);
//! 3. **SPEA2 truncation** to half the cloud — cached distance matrix
//!    ([`kernels::spea2_truncate`]) vs the per-round recomputation
//!    ([`kernels::spea2_truncate_naive`]); the naive oracle is
//!    O(rounds·n²·log n), so it is *timed* only up to a scale-dependent
//!    size cap — above it, a seeded 200-point subsample still runs both
//!    routines (untimed) so `truncation_identical` reports a real
//!    equivalence check in every cell, never a vacuous `true`;
//! 4. **hypervolume** — the 2-D sweep on the full cloud for M = 2, the
//!    WFG recursion on a capped first-front subset for M = 4 (WFG is
//!    exponential in the worst case; the cap mirrors the tens-of-points
//!    fronts the DSE actually produces);
//! 5. **incremental distance maintenance** — a survivor/offspring turnover
//!    is simulated (half the rows survive, half are fresh) and the
//!    incremental rebuild ([`DistanceMatrix::refill_with_tail`] over the
//!    compacted survivor block) is timed against the full
//!    [`DistanceMatrix::refill`] (`dist_update_us` vs `dist_refill_us`),
//!    plus the amortized truncation path (`truncate_incremental_us` =
//!    incremental rebuild + truncation to half). `dist_identical` checks
//!    both `refill_with_tail` and [`DistanceMatrix::update_rows`]
//!    bit-equal the full rebuild.
//!
//! Clouds are quantized so they contain duplicates and ties (the
//! hard case for order-sensitive kernels) plus a sprinkling of
//! constraint-violating points to exercise constrained dominance.
//! Timings are min-of-reps wall clock. [`moea_kernels`] returns the
//! report as JSON (a [`BenchReport`]) and writes it to
//! `BENCH_moea_kernels.json` for CI to archive as a perf-trajectory
//! artifact.

use std::time::Instant;

use clre_moea::hypervolume::hypervolume_matrix;
use clre_moea::kernels;
use clre_moea::matrix::DistanceMatrix;
use clre_moea::ObjectiveMatrix;

use crate::report::{BenchReport, JsonObject};
use crate::RunScale;

/// The benchmarked cloud sizes.
const SIZES: [usize; 3] = [100, 400, 1600];
/// The benchmarked objective counts.
const DIMS: [usize; 2] = [2, 4];
/// First-front cap for the M = 4 WFG hypervolume case.
const HV_WFG_CAP: usize = 24;
/// Size of the seeded truncation-oracle subsample used above the naive
/// timing cap.
const SUBSAMPLE_ORACLE_POINTS: usize = 200;

/// Timing repetitions and the naive-truncation size cap at each scale.
fn params(scale: RunScale) -> (u32, usize) {
    match scale {
        // The naive truncation oracle is the one quadratic-per-round
        // cost that gets genuinely slow; keep its cap low in test runs.
        RunScale::Tiny => (2, 100),
        RunScale::Smoke => (3, 400),
        RunScale::Paper => (5, 400),
    }
}

/// Minimum wall-clock microseconds of `reps` runs of `f`; returns the
/// last result too so callers can cross-check outputs.
fn time_min<R>(reps: u32, mut f: impl FnMut() -> R) -> (u64, R) {
    let mut best = u64::MAX;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_micros() as u64);
        out = Some(r);
    }
    (best, out.expect("reps >= 1"))
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A deterministic quantized cloud: values on a 64-step lattice (many
/// ties), every 7th row duplicating an earlier row, every 11th point
/// carrying a positive constraint violation.
fn cloud(n: usize, m: usize, seed: u64) -> (ObjectiveMatrix, Vec<f64>) {
    let mut state = seed | 1;
    let mut points = ObjectiveMatrix::with_capacity(m, n);
    let mut row = vec![0.0f64; m];
    for i in 0..n {
        if i % 7 == 3 && i >= 7 {
            let dup = (xorshift(&mut state) as usize) % i;
            row.copy_from_slice(points.row(dup));
        } else {
            for v in row.iter_mut() {
                *v = (xorshift(&mut state) % 64) as f64 * 0.25;
            }
        }
        points.push_row(&row);
    }
    let violations: Vec<f64> = (0..n)
        .map(|i| {
            if i % 11 == 5 {
                0.5 + (i % 3) as f64
            } else {
                0.0
            }
        })
        .collect();
    (points, violations)
}

/// One (N, M) cell of the report.
struct Cell {
    n: usize,
    m: usize,
    sort_naive_us: u64,
    sort_ens_us: u64,
    fronts_identical: bool,
    crowding_us: u64,
    truncate_cached_us: u64,
    truncate_naive_us: Option<u64>,
    truncation_identical: bool,
    /// Points the truncation oracle actually compared (the full cloud
    /// below the cap, the seeded subsample above it).
    truncation_oracle_points: usize,
    hv_us: u64,
    hv_points: usize,
    /// Full distance-matrix rebuild after a half-turnover.
    dist_refill_us: u64,
    /// Incremental rebuild of the same matrix (cached survivor tail).
    dist_update_us: u64,
    /// Incremental rebuild + truncation to half — the amortized
    /// per-generation selection-distance path.
    truncate_incremental_us: u64,
    /// `refill_with_tail` and `update_rows` both bit-equal the full
    /// rebuild.
    dist_identical: bool,
}

impl Cell {
    fn json(&self) -> JsonObject {
        let (naive_us, speedup) = match self.truncate_naive_us {
            Some(us) => (
                us.to_string(),
                format!("{:.2}", us as f64 / self.truncate_cached_us.max(1) as f64),
            ),
            None => ("null".to_owned(), "null".to_owned()),
        };
        let ratio = |slow: u64, fast: u64| format!("{:.2}", slow as f64 / fast.max(1) as f64);
        JsonObject::new()
            .field("n", self.n)
            .field("m", self.m)
            .field("sort_naive_us", self.sort_naive_us)
            .field("sort_ens_us", self.sort_ens_us)
            .field("sort_speedup", ratio(self.sort_naive_us, self.sort_ens_us))
            .field("fronts_identical", self.fronts_identical)
            .field("crowding_us", self.crowding_us)
            .field("truncate_cached_us", self.truncate_cached_us)
            .field("truncate_naive_us", naive_us)
            .field("truncate_speedup", speedup)
            .field("truncation_identical", self.truncation_identical)
            .field("truncation_oracle_points", self.truncation_oracle_points)
            .field("hv_us", self.hv_us)
            .field("hv_points", self.hv_points)
            .field("dist_refill_us", self.dist_refill_us)
            .field("dist_update_us", self.dist_update_us)
            .field(
                "dist_speedup",
                ratio(self.dist_refill_us, self.dist_update_us),
            )
            .field("truncate_incremental_us", self.truncate_incremental_us)
            .field("dist_identical", self.dist_identical)
    }
}

fn bench_cell(n: usize, m: usize, reps: u32, naive_truncate_cap: usize) -> Cell {
    let (points, violations) = cloud(n, m, 0x5EED_0000 + (n as u64) * 8 + m as u64);

    // 1. Non-dominated sort: naive oracle vs ENS.
    let (sort_naive_us, naive_fronts) = time_min(reps, || {
        kernels::deb_non_dominated_sort(&points, &violations)
    });
    let (sort_ens_us, ens_fronts) = time_min(reps, || {
        kernels::ens_non_dominated_sort(&points, &violations)
    });
    let fronts_identical = naive_fronts == ens_fronts;

    // 2. Crowding distance over the first front.
    let front0 = &ens_fronts[0];
    let (crowding_us, _) = time_min(reps, || kernels::crowding_distance_indexed(&points, front0));

    // 3. SPEA2 truncation of the full cloud to half, on the cached
    //    distance matrix vs the per-round recomputation.
    let dist = DistanceMatrix::from_points(&points);
    let members: Vec<usize> = (0..n).collect();
    let target = n / 2;
    let (truncate_cached_us, kept_cached) = time_min(reps, || {
        kernels::spea2_truncate(&dist, members.clone(), target)
    });
    let (truncate_naive_us, truncation_identical, truncation_oracle_points) =
        if n <= naive_truncate_cap {
            let (us, kept_naive) = time_min(reps, || {
                kernels::spea2_truncate_naive(&dist, members.clone(), target)
            });
            (Some(us), kept_naive == kept_cached, n)
        } else {
            // The naive oracle is too slow to *time* here, but a seeded
            // 200-point subsample still runs both routines (untimed) so
            // the identity flag reports a real comparison at this size.
            let mut state = 0xACED_0000 + n as u64;
            let mut picked = vec![false; n];
            let mut sub = Vec::with_capacity(SUBSAMPLE_ORACLE_POINTS);
            while sub.len() < SUBSAMPLE_ORACLE_POINTS {
                let i = (xorshift(&mut state) as usize) % n;
                if !picked[i] {
                    picked[i] = true;
                    sub.push(i);
                }
            }
            let sub_target = SUBSAMPLE_ORACLE_POINTS / 2;
            let lazy = kernels::spea2_truncate(&dist, sub.clone(), sub_target);
            let naive = kernels::spea2_truncate_naive(&dist, sub.clone(), sub_target);
            (None, lazy == naive, SUBSAMPLE_ORACLE_POINTS)
        };

    // 4. Hypervolume: full cloud for the 2-D sweep, capped first front
    //    for the WFG recursion.
    let reference = vec![20.0; m];
    let (hv_points, hv_us) = if m == 2 {
        (
            n,
            time_min(reps, || hypervolume_matrix(&points, &reference)).0,
        )
    } else {
        let mut sub = ObjectiveMatrix::with_capacity(m, HV_WFG_CAP);
        for &i in front0.iter().take(HV_WFG_CAP) {
            sub.push_row(points.row(i));
        }
        (
            sub.rows(),
            time_min(reps, || hypervolume_matrix(&sub, &reference)).0,
        )
    };

    // 5. Incremental distance maintenance: simulate one generation of
    //    turnover — the even-indexed half of the cloud survives (its
    //    distance block is compacted out of `dist`), the other half is
    //    replaced by fresh offspring rows prepended as the head.
    let keep: Vec<usize> = (0..n).step_by(2).collect();
    let mut tail = dist.clone();
    tail.compact(&keep);
    let head = n - keep.len();
    let (fresh, _) = cloud(head, m, 0xF00D_0000 + (n as u64) * 8 + m as u64);
    let mut next = ObjectiveMatrix::with_capacity(m, n);
    for r in fresh.iter_rows() {
        next.push_row(r);
    }
    for &i in &keep {
        next.push_row(points.row(i));
    }

    let mut full_next = DistanceMatrix::default();
    let (dist_refill_us, _) = time_min(reps, || full_next.refill(&next));
    let mut inc = DistanceMatrix::default();
    let (dist_update_us, _) = time_min(reps, || inc.refill_with_tail(&next, &tail));
    // Correctness: both incremental routes bit-equal the full rebuild.
    let mut via_update = full_next.clone();
    let changed: Vec<usize> = (0..head).collect();
    via_update.update_rows(&next, &changed);
    let dist_identical = inc.bits_eq(&full_next) && via_update.bits_eq(&full_next);
    // The amortized per-generation path: incremental rebuild + truncate.
    let next_members: Vec<usize> = (0..n).collect();
    let (truncate_incremental_us, _) = time_min(reps, || {
        inc.refill_with_tail(&next, &tail);
        kernels::spea2_truncate(&inc, next_members.clone(), target)
    });

    Cell {
        n,
        m,
        sort_naive_us,
        sort_ens_us,
        fronts_identical,
        crowding_us,
        truncate_cached_us,
        truncate_naive_us,
        truncation_identical,
        truncation_oracle_points,
        hv_us,
        hv_points,
        dist_refill_us,
        dist_update_us,
        truncate_incremental_us,
        dist_identical,
    }
}

/// Runs the kernel benchmark at `scale` and returns the JSON report
/// (also written to `BENCH_moea_kernels.json` in the working directory;
/// a write failure is reported inside the JSON rather than aborting the
/// bench).
pub fn moea_kernels(scale: RunScale) -> String {
    let (reps, naive_truncate_cap) = params(scale);
    let mut cells = Vec::new();
    for &n in &SIZES {
        for &m in &DIMS {
            cells.push(bench_cell(n, m, reps, naive_truncate_cap));
        }
    }
    let fronts_identical = cells.iter().all(|c| c.fronts_identical);
    let truncation_identical = cells.iter().all(|c| c.truncation_identical);
    let dist_identical = cells.iter().all(|c| c.dist_identical);
    let ens_beats_naive_at_1600 = cells
        .iter()
        .filter(|c| c.n == 1600)
        .all(|c| c.sort_ens_us <= c.sort_naive_us);
    BenchReport::new("moea_kernels")
        .field("reps", reps)
        .field("naive_truncate_cap", naive_truncate_cap)
        .cells("cases", cells.iter().map(Cell::json))
        .field("fronts_identical", fronts_identical)
        .field("truncation_identical", truncation_identical)
        .field("dist_identical", dist_identical)
        .field("ens_beats_naive_at_1600", ens_beats_naive_at_1600)
        .write("BENCH_moea_kernels.json")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_bench_meets_acceptance_floor() {
        let json = moea_kernels(RunScale::Tiny);
        assert!(
            json.contains("\"fronts_identical\": true"),
            "ENS diverged from the Deb oracle:\n{json}"
        );
        assert!(
            json.contains("\"truncation_identical\": true"),
            "cached truncation diverged from the naive oracle:\n{json}"
        );
        assert!(
            json.contains("\"ens_beats_naive_at_1600\": true"),
            "ENS did not beat the naive sort at N=1600:\n{json}"
        );
        assert!(
            json.contains("\"dist_identical\": true"),
            "incremental distance maintenance diverged from full rebuild:\n{json}"
        );
        assert!(
            !json.contains("\"truncation_oracle_points\": 0"),
            "every cell must run a real truncation oracle comparison:\n{json}"
        );
        let _ = std::fs::remove_file("BENCH_moea_kernels.json");
    }

    #[test]
    fn clouds_contain_duplicates_and_ties() {
        let (points, violations) = cloud(100, 2, 99);
        let rows: Vec<&[f64]> = points.iter_rows().collect();
        let mut dup = false;
        'outer: for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                if rows[i] == rows[j] {
                    dup = true;
                    break 'outer;
                }
            }
        }
        assert!(dup, "quantized cloud should contain duplicate rows");
        assert!(violations.iter().any(|&v| v > 0.0));
        assert!(violations.contains(&0.0));
    }
}
