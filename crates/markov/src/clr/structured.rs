//! Structured solver for the two chains of one [`ClrChainSpec`].
//!
//! The topology of both chains is fixed by the interval count and the
//! fault mechanism alone, so this module writes `I − Q`, the residence
//! vector and the `Error` column of `R` straight from the spec's values,
//! in the state order of [`super::build_chain_spec`], into buffers reused
//! across analyses on a thread, and it solves the functional chain only
//! for the unit columns that feed `Error` instead of forming the full
//! inverse.
//!
//! # Record and replay
//!
//! Every chain of one *topology* — interval count, whether a permanent
//! rate is present, timing or functional, plain or scaled pivoting — has
//! the same non-zero pattern in `I − Q`, so specs of one topology run the
//! same elimination up to values and the odd pivot change. The first time
//! a thread meets a topology, the chain is assembled as an edge list and
//! [`clre_num::Lu`]'s elimination (same pivot rule, same update
//! expressions) runs on that spec, skipping every update whose multiplier
//! or pivot-row entry is exactly `0.0`, to find its pivot rows. They
//! become a [`Program`] (the refactorization idea of KLU, Davis &
//! Palamadai Natarajan, ACM TOMS 36(3), 2010): value slots for the
//! pattern and its fill, per column the pivot candidates, the multipliers
//! and the `dst −= f·u` updates, and the `L` and `U` lists of the solves,
//! in `Lu`'s accumulation order. Every analysis of that topology, the
//! recording one included, replays the program, on one spec or on up to
//! [`LANES`] side by side (one `[f64; N]` per slot). A lane is replayed
//! only while its guards hold: the first strictly largest (scaled)
//! candidate is the recorded pivot, no pivot falls below [`PIVOT_EPS`],
//! and every slot and solution value ends finite. A lane that breaks a
//! guard gets a program recorded from its own pivots, for that analysis
//! only.
//!
//! Replay needs only numbers. Each spec is turned once, for both chains,
//! into a *value table* ([`value_table`]): its probabilities and their
//! complements, `t_tol` and `t_chk`, and per interval the `Exec`
//! residence and the `p_ne` (or `p_none` and its transient/permanent
//! split) the interval's one `exp` gives. A program carries a *fill
//! list*, recorded with it, that maps every slot of an edge to the table
//! entry it subtracts, every row of the timing chain's right-hand side to
//! its residence entry and every `→ Error` coefficient to its entry. So a
//! replayed spec runs one `validate`, computes its interval weights and
//! `exp`s once, and writes `init − (0.0 + p)` straight into its lanes; no
//! edge list is built and no builder check runs. A spec the guard turns
//! away (below), and one with a singular pivot or a non-finite value, is
//! left to the dense [`crate::MarkovChain`] path: [`analyze`] returns
//! `None`, so every error comes from that path.
//!
//! # Exactness
//!
//! Skipping `acc − 0·x` with finite `x` is exact as long as `acc` is not
//! `−0.0`: `I − Q` holds no `−0.0` (`0.0 − (0.0 + p)` is `+0.0` when `p`
//! is zero), a difference of finite doubles is `−0.0` only when the
//! minuend already is, and the right-hand sides are unit vectors or
//! residences. So whenever every intermediate value is finite and no
//! residence is `−0.0`, the elimination picks the dense path's pivots and
//! the metrics are bit-identical to that path's.
//!
//! Replay keeps every pattern entry, so it performs updates the
//! elimination skips: zero-valued edges, and fill a differently valued
//! spec never made non-zero. The same argument covers them. Their
//! multiplier may be `−0.0` (`+0.0` over a negative pivot), so the
//! subtrahend `±0.0·u` is a zero of either sign; `x − (±0.0)` is `x`
//! for every `x` that is not `−0.0`, and no minuend is. Entries outside
//! the pattern stay `+0.0` under the recorded pivot sequence, and the
//! dense updates they take part in are the same no-ops. A non-finite
//! value, finally, never turns finite again (`inf − x`, `NaN − x` and
//! their quotients by a finite pivot stay non-finite), so checking the
//! final slots and solutions sees every non-finite intermediate.
//!
//! The guard replaces the builder's checks, and it admits no spec the
//! builder rejects. It turns a spec away when `validate` or the interval
//! weights fail, when a table entry is not finite (an `Exec` residence
//! `exec_time · w + t_det` that overflows, or a `p_ne` that is NaN
//! because `seu_rate · exec_time` overflowed on an interval whose share
//! underflowed to zero), or when a residence of the timing chain is
//! `−0.0`. What passes meets every check of `MarkovChainBuilder::build`.
//! `validate` holds every probability in `[0, 1]`, the times finite and
//! non-negative and the rates finite and non-negative, so `p_ne` and
//! `p_none` are `exp` of a non-positive number and the transient share
//! `seu_rate / (seu_rate + perm_rate)` lies in `[0, 1]`. Every edge is
//! then a finite value in `[0, 1]`, and every transient row is
//! `p + (1 − p)` or the permanent split `(1 − p)·f + (1 − p)·(1 − f) + p`,
//! within a few ulps of 1 and so well within `ROW_SUM_EPS`. The recording
//! path still assembles the edges and asserts the builder's checks on
//! them in debug builds.

use super::{interval_weights, ClrChainSpec, TaskReliability};
use crate::chain::ROW_SUM_EPS;
use std::cell::RefCell;

/// `clre_num::Lu`'s singular-pivot threshold.
const PIVOT_EPS: f64 = 1e-304;

/// Specs one replay solves side by side.
pub(crate) const LANES: usize = 4;

/// Marks an edge into an absorbing state, which has no slot in `I − Q`.
const NO_SLOT: u32 = u32::MAX;

/// Slot 0 of every program holds `+0.0` in every lane: the pivot
/// candidate of a diagonal position outside the pattern.
const ZERO_SLOT: u32 = 0;

/// Per-thread buffers of the recording path; a program's recording
/// clears and refills them.
#[derive(Default)]
struct Workspace {
    /// Normalized interval weights.
    weights: Vec<f64>,
    /// The value table of the spec being filled in or recorded from.
    values: Vec<f64>,
    /// The value index of every state's residence, absorbing ones
    /// included.
    residence: Vec<u32>,
    /// Outgoing edges `(to, value index)` of every state, ascending `to`.
    edges: Vec<(usize, u32)>,
    /// `edges[row_start[s]..row_start[s + 1]]` belong to state `s`.
    row_start: Vec<usize>,
    /// Dense row-major `I − Q`, factored in place to find the pivots.
    a: Vec<f64>,
    /// The row position each column's pivot was swapped in from.
    pivots: Vec<usize>,
    /// Row scales of the scaled-pivoting factorization.
    scales: Vec<f64>,
    /// Rows below the diagonal with a non-zero in the current column.
    col_rows: Vec<usize>,
    /// Non-zero entries `(col, a[pivot, col])` right of the pivot.
    pivot_entries: Vec<(usize, f64)>,
}

// The value table of a spec ([`value_table`]): the spec-wide entries below,
// then `PER_INTERVAL` entries per interval from [`interval`] on. Every
// probability is stored as the builder stores an edge, accumulated onto
// `0.0`; residences are stored as they are.
const ZERO: u32 = 0;
const ONE: u32 = 1;
const M_HW: u32 = 2;
const NOT_M_HW: u32 = 3;
const M_IMPL: u32 = 4;
const NOT_M_IMPL: u32 = 5;
const COV_DET: u32 = 6;
const NOT_COV_DET: u32 = 7;
const M_TOL: u32 = 8;
const NOT_M_TOL: u32 = 9;
const M_ASW: u32 = 10;
const NOT_M_ASW: u32 = 11;
const P_CHK: u32 = 12;
const NOT_P_CHK: u32 = 13;
const T_TOL: u32 = 14;
const T_CHK: u32 = 15;
const SPEC_WIDE: u32 = 16;
/// Per interval: the `Exec` residence, then the probabilities of `Exec`'s
/// edges to `cont`, to `HWRel` and (permanent chains) to `PermRel`.
const PER_INTERVAL: u32 = 4;

/// The first value index of interval `i`.
fn interval(i: usize) -> u32 {
    SPEC_WIDE + PER_INTERVAL * i as u32
}

/// Writes the value table of `spec` into `out`, computing the interval
/// weights and each interval's `exp` once for both chains. `false` when
/// the dense path must answer instead: `validate` or the weights fail, a
/// value is not finite, or a residence of the timing chain is `−0.0`
/// (see the module docs' guard).
fn value_table(
    spec: &ClrChainSpec,
    weights: Option<&[f64]>,
    scratch: &mut Vec<f64>,
    out: &mut Vec<f64>,
) -> bool {
    if spec.validate().is_err() || interval_weights(&spec.params, weights, scratch).is_err() {
        return false;
    }
    let params = &spec.params;
    // The builder accumulates every edge onto 0.0.
    let edge = |p: f64| 0.0 + p;
    out.clear();
    out.extend([
        0.0,
        edge(1.0),
        edge(params.m_hw),
        edge(1.0 - params.m_hw),
        edge(params.m_impl_ssw),
        edge(1.0 - params.m_impl_ssw),
        edge(params.cov_det),
        edge(1.0 - params.cov_det),
        edge(params.m_tol),
        edge(1.0 - params.m_tol),
        edge(params.m_asw),
        edge(1.0 - params.m_asw),
        edge(params.p_chk_err),
        edge(1.0 - params.p_chk_err),
        params.t_tol,
        params.t_chk,
    ]);
    let perm_rate = spec.mechanism.perm_rate();
    for &w in scratch.iter() {
        let residence = params.exec_time * w + params.t_det;
        if perm_rate > 0.0 {
            let lambda = params.seu_rate + perm_rate;
            let p_none = (-lambda * params.exec_time * w).exp();
            let transient_frac = params.seu_rate / lambda;
            out.extend([
                residence,
                edge(p_none),
                edge((1.0 - p_none) * transient_frac),
                edge((1.0 - p_none) * (1.0 - transient_frac)),
            ]);
        } else {
            let p_ne = (-params.seu_rate * params.exec_time * w).exp();
            out.extend([residence, edge(p_ne), edge(1.0 - p_ne), 0.0]);
        }
    }
    // `validate` leaves `t_tol` and `t_chk` in `[0, ∞)` or `−0.0`, and
    // `exec_time · w + t_det` is never `−0.0`; checkpoint states exist
    // only with more than one interval.
    let negative_zero =
        params.t_tol.is_sign_negative() || (scratch.len() > 1 && params.t_chk.is_sign_negative());
    out.iter().all(|v| v.is_finite()) && !negative_zero
}

/// What fixes the pattern of one chain's `I − Q` and the elimination a
/// [`Program`] replays.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Topology {
    intervals: usize,
    permanent: bool,
    functional: bool,
    scaled: bool,
}

impl Topology {
    fn of(spec: &ClrChainSpec, functional: bool, scaled: bool) -> Self {
        Topology {
            intervals: spec.params.intervals.max(1) as usize,
            permanent: spec.mechanism.perm_rate() > 0.0,
            functional,
            scaled,
        }
    }
}

/// One elimination step of a [`Program`]; the ranges index its flat
/// lists.
struct Column {
    /// Slot of the pivot, `U[col, col]`.
    diag: u32,
    /// Pivot candidates in row-position order, the diagonal position
    /// first.
    candidates: (u32, u32),
    /// Index of the recorded pivot within the candidates.
    pivot: u32,
    /// The pivot row right of the diagonal: row `col` of `U`.
    upper: (u32, u32),
    /// The rows this step eliminates: column `col` of `L`.
    lower: (u32, u32),
    /// First update target; row `e` of `lower` updates the
    /// `upper.len()` slots from `targets + e · upper.len()` on.
    targets: u32,
}

/// The recorded elimination of one [`Topology`]; see the module docs.
struct Program {
    topology: Topology,
    /// Transient states.
    t: usize,
    /// Value of every slot before the edges are written: the identity's
    /// entry (`1.0` on the diagonal) or `0.0`.
    init: Vec<f64>,
    /// The fill list: `(slot, value index)` of every edge between
    /// transient states; the slot starts at `init − value`.
    fill: Vec<(u32, u32)>,
    /// The value index of the residence of every final row position:
    /// the timing chain's right-hand side.
    rhs: Vec<u32>,
    /// Slots of each source row of `I − Q` (scaled programs' row scales).
    row_slots: Vec<u32>,
    row_start: Vec<u32>,
    columns: Vec<Column>,
    /// `(slot, source row)` pivot candidates.
    candidates: Vec<(u32, u32)>,
    /// `(column, slot)` entries of `U` right of the diagonal.
    upper: Vec<(u32, u32)>,
    /// `(slot, final row position)` multipliers of `L`.
    lower: Vec<(u32, u32)>,
    targets: Vec<u32>,
    /// Source rows with an `→ Error` edge (functional programs), whose
    /// unit vectors are the right-hand sides, and the value index of each
    /// such edge.
    error_rows: Vec<u32>,
    error_values: Vec<u32>,
    /// The solution column of each error row: columns are ordered by the
    /// position of their unit entry, `error_start`.
    error_column: Vec<u32>,
    error_start: Vec<u32>,
    /// How many solution columns have their unit entry at or above each
    /// position; forward substitution from a row above it only subtracts
    /// `l·(+0.0)` from the others, so it skips them.
    forward_columns: Vec<u32>,
}

fn range((start, end): (u32, u32)) -> std::ops::Range<usize> {
    start as usize..end as usize
}

impl Program {
    /// Records the program of the chain `ws` holds (`t` transient
    /// states), whose `factor` just succeeded and left its pivot rows in
    /// `ws.pivots`.
    fn record(topology: Topology, ws: &Workspace, t: usize) -> Program {
        // `slot_of[r · t + c]`: the slot of source row `r`, column `c`.
        let mut init = vec![0.0];
        let mut slot_of = vec![NO_SLOT; t * t];
        let slot = |slot_of: &mut [u32], init: &mut Vec<f64>, r: usize, c: usize| -> u32 {
            if slot_of[r * t + c] == NO_SLOT {
                slot_of[r * t + c] = init.len() as u32;
                init.push(if r == c { 1.0 } else { 0.0 });
            }
            slot_of[r * t + c]
        };
        let (mut fill, mut row_slots, mut row_start) = (Vec::new(), Vec::new(), Vec::new());
        for from in 0..t {
            row_start.push(row_slots.len() as u32);
            row_slots.push(slot(&mut slot_of, &mut init, from, from));
            for &(to, value) in &ws.edges[ws.row_start[from]..ws.row_start[from + 1]] {
                if to < t {
                    let s = slot(&mut slot_of, &mut init, from, to);
                    fill.push((s, value));
                    if from != to {
                        row_slots.push(s);
                    }
                }
            }
        }
        row_start.push(row_slots.len() as u32);

        let mut columns = Vec::with_capacity(t);
        let (mut candidates, mut upper, mut lower, mut targets) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut row_at: Vec<usize> = (0..t).collect();
        for col in 0..t {
            let first = candidates.len() as u32;
            let d = row_at[col];
            let d_slot = slot_of[d * t + col];
            candidates.push((if d_slot == NO_SLOT { ZERO_SLOT } else { d_slot }, d as u32));
            for &r in &row_at[col + 1..] {
                if slot_of[r * t + col] != NO_SLOT {
                    candidates.push((slot_of[r * t + col], r as u32));
                }
            }
            let pr = row_at[ws.pivots[col]];
            let pivot = candidates[first as usize..]
                .iter()
                .position(|&(_, r)| r as usize == pr)
                .expect("the recorded pivot is a pattern entry") as u32;
            row_at.swap(col, ws.pivots[col]);
            let u_first = upper.len() as u32;
            for c in col + 1..t {
                if slot_of[pr * t + c] != NO_SLOT {
                    upper.push((c as u32, slot_of[pr * t + c]));
                }
            }
            let (l_first, t_first) = (lower.len() as u32, targets.len() as u32);
            for &(s, r) in &candidates[first as usize..] {
                if r as usize == pr || s == ZERO_SLOT {
                    continue;
                }
                // Final positions are known once every swap is done.
                lower.push((s, r));
                for &(c, _) in &upper[u_first as usize..] {
                    targets.push(slot(&mut slot_of, &mut init, r as usize, c as usize));
                }
            }
            columns.push(Column {
                diag: slot_of[pr * t + col],
                candidates: (first, candidates.len() as u32),
                pivot,
                upper: (u_first, upper.len() as u32),
                lower: (l_first, lower.len() as u32),
                targets: t_first,
            });
        }
        let mut position = vec![0u32; t];
        for (i, &r) in row_at.iter().enumerate() {
            position[r] = i as u32;
        }
        for (_, r) in &mut lower {
            *r = position[*r as usize];
        }
        // The functional chain's `Error` state is absorbing state `t + 1`.
        let (mut error_rows, mut error_values) = (Vec::new(), Vec::new());
        for s in 0..t {
            for &(to, value) in &ws.edges[ws.row_start[s]..ws.row_start[s + 1]] {
                if topology.functional && to == t + 1 {
                    error_rows.push(s as u32);
                    error_values.push(value);
                }
            }
        }
        let mut order: Vec<usize> = (0..error_rows.len()).collect();
        order.sort_by_key(|&e| position[error_rows[e] as usize]);
        let mut error_column = vec![0; order.len()];
        for (c, &e) in order.iter().enumerate() {
            error_column[e] = c as u32;
        }
        let error_start: Vec<u32> = order
            .iter()
            .map(|&e| position[error_rows[e] as usize])
            .collect();
        let forward_columns = (0..t as u32)
            .map(|col| error_start.iter().filter(|&&s| s <= col).count() as u32)
            .collect();
        Program {
            topology,
            t,
            init,
            fill,
            rhs: row_at.iter().map(|&r| ws.residence[r]).collect(),
            row_slots,
            row_start,
            columns,
            candidates,
            upper,
            lower,
            targets,
            error_rows,
            error_values,
            error_column,
            error_start,
            forward_columns,
        }
    }

    /// Factors the `N` lanes of `vals` in place, clearing `live[l]` for
    /// a lane whose pivot differs from the recorded one or falls below
    /// [`PIVOT_EPS`]. `scales` holds the row scales of scaled programs.
    fn factor<const N: usize>(
        &self,
        vals: &mut [[f64; N]],
        scales: &[[f64; N]],
        live: &mut [bool; N],
    ) {
        let scaled = self.topology.scaled;
        for col in &self.columns {
            let candidates = &self.candidates[range(col.candidates)];
            for (l, live) in live.iter_mut().enumerate() {
                let weight = |&(s, r): &(u32, u32)| {
                    let v = vals[s as usize][l].abs();
                    if scaled {
                        v / scales[r as usize][l]
                    } else {
                        v
                    }
                };
                let (mut pivot, mut pivot_val) = (0, weight(&candidates[0]));
                for (i, c) in candidates.iter().enumerate().skip(1) {
                    let v = weight(c);
                    if v > pivot_val {
                        (pivot, pivot_val) = (i, v);
                    }
                }
                *live &= pivot == col.pivot as usize && pivot_val >= PIVOT_EPS;
            }
            let diag = vals[col.diag as usize];
            let upper = &self.upper[range(col.upper)];
            let mut targets = self.targets[col.targets as usize..].iter();
            for &(s, _) in &self.lower[range(col.lower)] {
                let v = &mut vals[s as usize];
                for l in 0..N {
                    v[l] /= diag[l];
                }
                let f = *v;
                for (&(_, src), &dst) in upper.iter().zip(targets.by_ref()) {
                    let u = vals[src as usize];
                    let d = &mut vals[dst as usize];
                    for l in 0..N {
                        d[l] -= f[l] * u[l];
                    }
                }
            }
        }
    }

    /// `Lu::solve` for the `m` right-hand sides in `xy` (`t × m`,
    /// row-major, already permuted) over the factored `vals`, in place:
    /// the same operations, in the same order per column, but for the
    /// exact no-ops of the error rows' unit vectors (`unit`) above their
    /// unit entries.
    fn solve<const N: usize>(&self, vals: &[[f64; N]], xy: &mut [[f64; N]], m: usize, unit: bool) {
        for (col, c) in self.columns.iter().enumerate() {
            let live = if unit {
                self.forward_columns[col] as usize
            } else {
                m
            };
            for &(s, i) in &self.lower[range(c.lower)] {
                let f = vals[s as usize];
                for e in 0..live {
                    let y = xy[col * m + e];
                    let acc = &mut xy[i as usize * m + e];
                    for l in 0..N {
                        acc[l] -= f[l] * y[l];
                    }
                }
            }
        }
        for (i, c) in self.columns.iter().enumerate().rev() {
            for &(j, s) in &self.upper[range(c.upper)] {
                let u = vals[s as usize];
                for e in 0..m {
                    let x = xy[j as usize * m + e];
                    let acc = &mut xy[i * m + e];
                    for l in 0..N {
                        acc[l] -= u[l] * x[l];
                    }
                }
            }
            let diag = vals[c.diag as usize];
            for acc in &mut xy[i * m..(i + 1) * m] {
                for l in 0..N {
                    acc[l] /= diag[l];
                }
            }
        }
    }
}

/// Replay buffers for `N` lanes.
#[derive(Default)]
struct Lanes<const N: usize> {
    /// The value table of every lane's spec, one `[f64; N]` per index.
    values: Vec<[f64; N]>,
    vals: Vec<[f64; N]>,
    scales: Vec<[f64; N]>,
    xy: Vec<[f64; N]>,
}

/// Everything a thread keeps between analyses.
#[derive(Default)]
struct Solver {
    scalar: Workspace,
    programs: Vec<Program>,
    one: Lanes<1>,
    batch: Lanes<LANES>,
}

thread_local! {
    static SOLVER: RefCell<Solver> = RefCell::new(Solver::default());
}

/// Solves both chains of `spec` exactly, or returns `None`: the dense
/// path then answers, errors included (see the module docs).
pub(super) fn analyze(
    spec: &ClrChainSpec,
    weights: Option<&[f64]>,
    scaled: bool,
) -> Option<TaskReliability> {
    SOLVER.with(|solver| {
        let Solver {
            scalar,
            programs,
            one,
            ..
        } = &mut *solver.borrow_mut();
        let [r] = replay(scalar, programs, one, &[spec], weights, scaled);
        r.or_else(|| replay_alone(scalar, one, spec, weights, scaled))
    })
}

/// Records a program from `spec` itself, for this analysis only, and
/// replays it: the answer for a spec whose pivots differ from its
/// topology's program.
fn replay_alone(
    ws: &mut Workspace,
    one: &mut Lanes<1>,
    spec: &ClrChainSpec,
    weights: Option<&[f64]>,
    scaled: bool,
) -> Option<TaskReliability> {
    let [r] = replay(ws, &mut Vec::new(), one, &[spec], weights, scaled);
    r
}

/// [`analyze`] with plain pivoting and uniform intervals on up to
/// [`LANES`] specs, replaying each topology's program on its lanes side
/// by side; entries past `specs` are `None`.
pub(super) fn analyze_lanes(specs: &[&ClrChainSpec]) -> [Option<TaskReliability>; LANES] {
    let mut out = [None; LANES];
    SOLVER.with(|solver| {
        let Solver {
            scalar,
            programs,
            one,
            batch,
        } = &mut *solver.borrow_mut();
        let mut done = [false; LANES];
        for first in 0..specs.len() {
            if done[first] {
                continue;
            }
            let topology = Topology::of(specs[first], false, false);
            let mut group = [0; LANES];
            let mut members = 0;
            for (i, spec) in specs.iter().enumerate().skip(first) {
                if !done[i] && Topology::of(spec, false, false) == topology {
                    (group[members], done[i], members) = (i, true, members + 1);
                }
            }
            let mut refs = [specs[first]; LANES];
            for (r, &i) in refs.iter_mut().zip(&group[..members]) {
                *r = specs[i];
            }
            let refs = &refs[..members];
            if members == 1 {
                let [r] = replay(scalar, programs, one, refs, None, false);
                out[first] = r;
            } else {
                let results = replay(scalar, programs, batch, refs, None, false);
                for (&i, r) in group[..members].iter().zip(results) {
                    out[i] = r;
                }
            }
        }
        for (r, spec) in out.iter_mut().zip(specs) {
            if r.is_none() {
                *r = replay_alone(scalar, one, spec, None, false);
            }
        }
    });
    out
}

/// Replays the program of `specs`' topology (they share one) on lanes
/// `0..specs.len()`, recording it from the first lane it can if the
/// thread has none yet.
fn replay<const N: usize>(
    ws: &mut Workspace,
    programs: &mut Vec<Program>,
    lanes: &mut Lanes<N>,
    specs: &[&ClrChainSpec],
    weights: Option<&[f64]>,
    scaled: bool,
) -> [Option<TaskReliability>; N] {
    let mut out = [None; N];
    let topology = Topology::of(specs[0], false, scaled);
    lanes.values.clear();
    lanes
        .values
        .resize(interval(topology.intervals) as usize, [0.0; N]);
    let mut live = [false; N];
    for (l, spec) in specs.iter().enumerate() {
        live[l] = value_table(spec, weights, &mut ws.weights, &mut ws.values);
        if live[l] {
            for (dst, &v) in lanes.values.iter_mut().zip(&ws.values) {
                dst[l] = v;
            }
        }
    }
    // A lane without a live spec replays a copy of a live lane's values
    // and its results are never read, so no lane computes on stale or
    // non-finite values.
    let Some(first) = live.iter().position(|&l| l) else {
        return out;
    };
    for (l, _) in live.iter().enumerate().filter(|(_, &l)| !l) {
        for v in &mut lanes.values {
            v[l] = v[first];
        }
    }
    if replay_chain(ws, programs, lanes, topology, &mut live).is_none() {
        return out;
    }
    let avg_exec_time = lanes.xy[0];
    let functional = Topology {
        functional: true,
        ..topology
    };
    let Some(p) = replay_chain(ws, programs, lanes, functional, &mut live) else {
        return out;
    };
    let prog = &programs[p];
    for (l, spec) in specs.iter().enumerate() {
        if live[l] {
            let mut error = 0.0;
            for (&c, &v) in prog.error_column.iter().zip(&prog.error_values) {
                error += lanes.xy[c as usize][l] * lanes.values[v as usize][l];
            }
            out[l] = Some(TaskReliability {
                min_exec_time: spec.params.min_exec_time(),
                avg_exec_time: avg_exec_time[l],
                error_prob: clre_num::util::clamp_prob(error),
            });
        }
    }
    out
}

/// Replays the `topology` chain of the live lanes from their value
/// tables, leaving the solution in `lanes.xy`; returns the program
/// replayed, or `None` when no lane is left.
fn replay_chain<const N: usize>(
    ws: &mut Workspace,
    programs: &mut Vec<Program>,
    lanes: &mut Lanes<N>,
    topology: Topology,
    live: &mut [bool; N],
) -> Option<usize> {
    let p = match programs.iter().position(|p| p.topology == topology) {
        Some(p) => p,
        None => {
            // Record from the first lane whose elimination succeeds.
            let mut recorded = None;
            for l in 0..N {
                if !live[l] {
                    continue;
                }
                ws.values.clear();
                ws.values.extend(lanes.values.iter().map(|v| v[l]));
                if let Some(t) = ws.eliminate(topology) {
                    programs.push(Program::record(topology, ws, t));
                    recorded = Some(programs.len() - 1);
                    break;
                }
                live[l] = false;
            }
            recorded?
        }
    };
    let prog = &programs[p];
    let t = prog.t;
    lanes.vals.clear();
    lanes.vals.extend(prog.init.iter().map(|&v| [v; N]));
    for &(slot, value) in &prog.fill {
        let (init, p) = (prog.init[slot as usize], lanes.values[value as usize]);
        lanes.vals[slot as usize] = std::array::from_fn(|l| init - p[l]);
    }
    if topology.scaled {
        lanes.scales.clear();
        for r in 0..t {
            let slots = &prog.row_slots[range((prog.row_start[r], prog.row_start[r + 1]))];
            let scale: [f64; N] = std::array::from_fn(|l| {
                slots
                    .iter()
                    .fold(0.0f64, |s, &slot| s.max(lanes.vals[slot as usize][l].abs()))
            });
            for (live, s) in live.iter_mut().zip(scale) {
                *live &= s >= PIVOT_EPS;
            }
            lanes.scales.push(scale);
        }
    }
    prog.factor(&mut lanes.vals, &lanes.scales, live);

    let m = if topology.functional {
        prog.error_rows.len()
    } else {
        1
    };
    lanes.xy.clear();
    if topology.functional {
        for i in 0..t {
            lanes.xy.extend(
                prog.error_start
                    .iter()
                    .map(|&start| [if start as usize == i { 1.0 } else { 0.0 }; N]),
            );
        }
    } else {
        lanes
            .xy
            .extend(prog.rhs.iter().map(|&v| lanes.values[v as usize]));
    }
    prog.solve(&lanes.vals, &mut lanes.xy, m, topology.functional);

    for (l, live) in live.iter_mut().enumerate() {
        *live &= lanes.vals.iter().all(|v| v[l].is_finite())
            && lanes.xy.iter().all(|v| v[l].is_finite());
    }
    live.iter().any(|&l| l).then_some(p)
}

impl Workspace {
    /// Assembles the `topology` chain of the spec whose value table
    /// `values` holds and factors it to find its pivots; returns its
    /// transient-state count, or `None` when a pivot is singular or an
    /// entry ends non-finite.
    fn eliminate(&mut self, topology: Topology) -> Option<usize> {
        let t = self.assemble(topology);
        debug_assert!(
            self.valid(t),
            "the guard admitted a chain the builder rejects"
        );
        self.fill_i_minus_q(t);
        self.factor(t, topology.scaled).then_some(t)
    }

    /// Appends one state: the value index of its residence and its edges,
    /// which must come in ascending `to` order (the builder's `BTreeMap`
    /// order).
    fn state(&mut self, residence: u32, edges: &[(usize, u32)]) {
        self.residence.push(residence);
        self.row_start.push(self.edges.len());
        self.edges.extend_from_slice(edges);
    }

    /// Writes the timing or functional chain of `topology` over value
    /// indices and returns its transient-state count. States come in
    /// `build_chain_spec`'s order: per-interval blocks, checkpoints, then
    /// the absorbers (`End`, or `NoError` and `Error`).
    fn assemble(&mut self, topology: Topology) -> usize {
        let Topology {
            intervals: k,
            permanent,
            functional,
            ..
        } = topology;
        let block = if permanent { 7 } else { 6 };
        let t = block * k + (k - 1);
        let (end, err) = (t, t + 1);
        self.residence.clear();
        self.edges.clear();
        self.row_start.clear();

        for i in 0..k {
            let o = block * i;
            let (exec, hw, ssw_impl, ssw_det, ssw_tol, asw, perm) =
                (o, o + 1, o + 2, o + 3, o + 4, o + 5, o + 6);
            let cont = if i + 1 < k { block * k + i } else { end };
            let v = interval(i);
            let (residence, to_cont, to_hw, to_perm) = (v, v + 1, v + 2, v + 3);
            if permanent {
                self.state(residence, &[(hw, to_hw), (perm, to_perm), (cont, to_cont)]);
            } else {
                self.state(residence, &[(hw, to_hw), (cont, to_cont)]);
            }
            self.state(ZERO, &[(ssw_impl, NOT_M_HW), (cont, M_HW)]);
            self.state(ZERO, &[(ssw_det, NOT_M_IMPL), (cont, M_IMPL)]);
            self.state(ZERO, &[(ssw_tol, COV_DET), (asw, NOT_COV_DET)]);
            if functional {
                self.state(T_TOL, &[(exec, M_TOL), (err, NOT_M_TOL)]);
                self.state(ZERO, &[(cont, M_ASW), (err, NOT_M_ASW)]);
            } else {
                self.state(T_TOL, &[(exec, M_TOL), (cont, NOT_M_TOL)]);
                self.state(ZERO, &[(cont, ONE)]);
            }
            if permanent {
                if functional {
                    self.state(ZERO, &[(cont, M_HW), (err, NOT_M_HW)]);
                } else {
                    self.state(ZERO, &[(cont, ONE)]);
                }
            }
        }
        for i in 0..k - 1 {
            let next = block * (i + 1);
            if functional {
                self.state(T_CHK, &[(next, NOT_P_CHK), (err, P_CHK)]);
            } else {
                self.state(T_CHK, &[(next, ONE)]);
            }
        }
        for _ in 0..(if functional { 2 } else { 1 }) {
            self.state(ZERO, &[]);
        }
        self.row_start.push(self.edges.len());
        t
    }

    /// Whether the chain passes `MarkovChainBuilder::build`'s checks;
    /// states from `t` on are absorbing.
    fn valid(&self, t: usize) -> bool {
        let v = |i: u32| self.values[i as usize];
        let residences = (self.residence.iter()).all(|&r| v(r).is_finite() && v(r) >= 0.0);
        let edges = (self.edges.iter())
            .all(|&(_, p)| v(p).is_finite() && (0.0..=1.0 + ROW_SUM_EPS).contains(&v(p)));
        let sums = self.row_start[..=t].windows(2).all(|row| {
            let sum: f64 = self.edges[row[0]..row[1]].iter().map(|&(_, p)| v(p)).sum();
            (sum - 1.0).abs() <= ROW_SUM_EPS
        });
        residences && edges && sums
    }

    /// Writes the dense `I − Q` block as `Matrix::identity(t).sub(&q)`
    /// computes it.
    fn fill_i_minus_q(&mut self, t: usize) {
        self.a.clear();
        self.a.resize(t * t, 0.0);
        for i in 0..t {
            self.a[i * t + i] = 1.0;
            for &(j, p) in &self.edges[self.row_start[i]..self.row_start[i + 1]] {
                if j < t {
                    let id = if i == j { 1.0 } else { 0.0 };
                    self.a[i * t + j] = id - self.values[p as usize];
                }
            }
        }
    }

    /// `Lu::factor` (or `Lu::factor_scaled`) in place on `a`, leaving
    /// the pivot rows in `pivots`; `false` when a pivot is singular or an
    /// entry ends non-finite, which a recorded program would not pass.
    /// Skips the updates a zero multiplier or pivot-row entry makes exact
    /// no-ops: only the pivots are kept, and replay computes the values.
    fn factor(&mut self, t: usize, scaled: bool) -> bool {
        let a = &mut self.a;
        self.pivots.clear();
        self.scales.clear();
        if scaled {
            for r in 0..t {
                let s = a[r * t..(r + 1) * t]
                    .iter()
                    .fold(0.0f64, |s, v| s.max(v.abs()));
                if s < PIVOT_EPS {
                    return false;
                }
                self.scales.push(s);
            }
        }
        for col in 0..t {
            let scales = &self.scales;
            let weight = |r: usize, v: f64| if scaled { v.abs() / scales[r] } else { v.abs() };
            // Only rows with a non-zero in this column take part: a zero
            // weighs 0 and can never beat the pivot, and its update is a
            // no-op.
            self.col_rows.clear();
            let mut pivot_row = col;
            let mut pivot_val = weight(col, a[col * t + col]);
            for r in (col + 1)..t {
                let v = a[r * t + col];
                if v != 0.0 {
                    self.col_rows.push(r);
                    let v = weight(r, v);
                    if v > pivot_val {
                        pivot_val = v;
                        pivot_row = r;
                    }
                }
            }
            if pivot_val < PIVOT_EPS {
                return false;
            }
            self.pivots.push(pivot_row);
            if pivot_row != col {
                for c in 0..t {
                    a.swap(col * t + c, pivot_row * t + c);
                }
                if scaled {
                    self.scales.swap(col, pivot_row);
                }
            }
            self.pivot_entries.clear();
            for c in (col + 1)..t {
                let v = a[col * t + c];
                if v != 0.0 {
                    self.pivot_entries.push((c, v));
                }
            }
            let diag = a[col * t + col];
            for &r in &self.col_rows {
                // After a swap, row `pivot_row` holds the old diagonal
                // row, whose entry here may be zero.
                let v = a[r * t + col];
                if v == 0.0 {
                    continue;
                }
                let factor = v / diag;
                a[r * t + col] = factor;
                if factor == 0.0 {
                    continue;
                }
                for &(c, u) in &self.pivot_entries {
                    a[r * t + c] -= factor * u;
                }
            }
        }
        a.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clr::{analyze_dense, build_chain_spec, ClrChainParams};

    /// Pivot rows of one chain of `spec` under the elimination.
    fn pivots(spec: &ClrChainSpec, functional: bool) -> Vec<usize> {
        let mut ws = Workspace::default();
        assert!(value_table(spec, None, &mut ws.weights, &mut ws.values));
        ws.eliminate(Topology::of(spec, functional, false))
            .expect("valid spec");
        ws.pivots.clone()
    }

    fn bits(r: &TaskReliability) -> [u64; 3] {
        [
            r.min_exec_time.to_bits(),
            r.avg_exec_time.to_bits(),
            r.error_prob.to_bits(),
        ]
    }

    /// The guard's claim (module docs, "Exactness"): [`value_table`] admits a
    /// spec exactly when the builder accepts both of its chains and no
    /// timing residence is `−0.0`, here for every field at the edges of
    /// `f64`, overflowing residences and rates, and weights whose share
    /// underflows to zero.
    #[test]
    fn guard_admits_exactly_what_the_builder_accepts() {
        let wild = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0e-3,
            -0.0,
            0.0,
            1.0 + 1.0e-12,
            5.0e-324,
            1.0e300,
            f64::MAX,
        ];
        let base = ClrChainParams {
            m_hw: 0.7,
            m_impl_ssw: 0.05,
            cov_det: 0.9,
            m_tol: 0.97,
            m_asw: 0.55,
            t_det: 10.0e-6,
            t_tol: 5.0e-6,
            t_chk: 12.0e-6,
            p_chk_err: 1.0e-4,
            ..ClrChainParams::unprotected(300.0e-6, 100.0)
        };
        let (mut scratch, mut values) = (Vec::new(), Vec::new());
        let (mut admitted, mut rejected) = (0, 0);
        for intervals in [1, 3] {
            let p = ClrChainParams { intervals, ..base };
            let mut variants = vec![
                ClrChainParams {
                    exec_time: f64::MAX,
                    t_det: f64::MAX,
                    ..p
                },
                ClrChainParams {
                    seu_rate: 1.0e300,
                    exec_time: 1.0e10,
                    ..p
                },
            ];
            for field in 0..11 {
                for &v in &wild {
                    let mut q = p;
                    *[
                        &mut q.exec_time,
                        &mut q.seu_rate,
                        &mut q.m_hw,
                        &mut q.m_impl_ssw,
                        &mut q.cov_det,
                        &mut q.m_tol,
                        &mut q.m_asw,
                        &mut q.t_det,
                        &mut q.t_tol,
                        &mut q.t_chk,
                        &mut q.p_chk_err,
                    ][field] = v;
                    variants.push(q);
                }
            }
            let specs = variants.iter().flat_map(|&q| {
                let permanent = [40.0].iter().chain(&wild);
                std::iter::once(ClrChainSpec::transient(q))
                    .chain(permanent.map(move |&rate| ClrChainSpec::permanent_aging(q, rate)))
            });
            let k = intervals as usize;
            let mut underflow = vec![1.0; k];
            (underflow[0], underflow[k - 1]) = (5.0e-324, 4.0);
            for spec in specs {
                for weights in [None, Some(&underflow[..])] {
                    let guard = value_table(&spec, weights, &mut scratch, &mut values);
                    let builds = [false, true]
                        .iter()
                        .all(|&functional| build_chain_spec(&spec, functional, weights).is_ok());
                    // Checkpoint states exist only with more than one
                    // interval.
                    let negative_zero = spec.params.t_tol.is_sign_negative()
                        || (k > 1 && spec.params.t_chk.is_sign_negative());
                    assert_eq!(guard, builds && !negative_zero, "{spec:?} {weights:?}");
                    if guard {
                        admitted += 1;
                    } else if builds {
                        rejected += 1;
                    }
                }
            }
        }
        assert!(admitted > 0 && rejected > 0, "{admitted} {rejected}");
    }

    #[test]
    fn replay_of_a_differently_pivoted_spec_matches_dense() {
        let params = ClrChainParams {
            m_hw: 0.7,
            m_impl_ssw: 0.05,
            cov_det: 0.9,
            m_tol: 0.97,
            m_asw: 0.55,
            intervals: 2,
            t_det: 10.0e-6,
            t_tol: 5.0e-6,
            t_chk: 12.0e-6,
            p_chk_err: 1.0e-4,
            ..ClrChainParams::unprotected(300.0e-6, 100.0)
        };
        let recorded = ClrChainSpec::transient(params);
        // Near-certain faults that only roll-back can stop: the second
        // interval's `SSWTol` diagonal falls below the checkpoint row's
        // fill, so that row becomes the pivot.
        let swapped = ClrChainSpec::transient(ClrChainParams {
            seu_rate: 1.0e6,
            m_hw: 0.0,
            m_impl_ssw: 0.0,
            cov_det: 1.0,
            m_tol: 0.9,
            ..params
        });
        assert_ne!(pivots(&recorded, false), pivots(&swapped, false));

        // A fresh thread starts with no programs.
        std::thread::spawn(move || {
            let mut solver = Solver::default();
            let Solver {
                scalar,
                programs,
                one,
                batch,
            } = &mut solver;
            let [first] = replay(scalar, programs, one, &[&recorded], None, false);
            assert_eq!(
                bits(&first.expect("the recording spec replays")),
                bits(&analyze_dense(&recorded, None, false).unwrap())
            );
            assert_eq!(programs.len(), 2, "one program per chain");
            // The pivot guard leaves the swapped lane alone; its
            // neighbour of the recorded topology still replays.
            let lanes = replay(scalar, programs, batch, &[&swapped, &recorded], None, false);
            assert!(lanes[0].is_none());
            assert_eq!(bits(&lanes[1].unwrap()), bits(&first.unwrap()));
            // Through the thread's own programs, recorded from
            // `recorded`: the swapped spec replays a program of its own.
            assert!(analyze(&recorded, None, false).is_some());
            let dense = analyze_dense(&swapped, None, false).unwrap();
            assert_eq!(
                bits(&analyze(&swapped, None, false).expect("no dense fallback")),
                bits(&dense)
            );
        })
        .join()
        .unwrap();
    }
}
