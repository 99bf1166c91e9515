//! Structured solver for the two chains of one [`ClrChainSpec`].
//!
//! The topology of both chains is fixed by the interval count and the
//! fault mechanism alone, so this module writes `I − Q`, the residence
//! vector and the `Error` column of `R` straight from the spec, in the
//! state order of [`super::build_chain_spec`], into buffers reused across
//! analyses on a thread. It then repeats [`clre_num::Lu`]'s elimination
//! (same pivot rule, same update expressions, same accumulation order)
//! while skipping every update whose multiplier or pivot-row entry is
//! exactly `0.0`, and solves the functional chain only for the unit
//! columns that feed `Error` instead of forming the full inverse.
//!
//! Skipping `acc − 0·x` with finite `x` is exact as long as `acc` is not
//! `−0.0`: `I − Q` holds no `−0.0` (`0.0 − (0.0 + p)` is `+0.0` when `p`
//! is zero), a difference of finite doubles is `−0.0` only when the
//! minuend already is, and the right-hand sides are unit vectors or
//! residences. So whenever every
//! intermediate value is finite and no residence is `−0.0`, the metrics
//! are bit-identical to the dense [`crate::MarkovChain`] path; otherwise
//! [`analyze`] returns `None` and the caller reruns that path.

use super::{interval_weights, ClrChainSpec, TaskReliability};
use crate::chain::ROW_SUM_EPS;
use crate::MarkovError;
use std::cell::RefCell;

/// `clre_num::Lu`'s singular-pivot threshold.
const PIVOT_EPS: f64 = 1e-304;

/// Why the structured path stopped early.
enum Stop {
    /// The analysis fails exactly as the dense path would.
    Error(MarkovError),
    /// A non-finite intermediate (or a `−0.0` residence) breaks the
    /// exactness argument: rerun the dense path.
    Dense,
}

impl From<MarkovError> for Stop {
    fn from(e: MarkovError) -> Self {
        Stop::Error(e)
    }
}

/// Per-thread buffers; every analysis clears and refills them.
#[derive(Default)]
struct Workspace {
    /// Normalized interval weights.
    weights: Vec<f64>,
    /// Residence time of every state, absorbing ones included.
    residence: Vec<f64>,
    /// Outgoing edges `(to, 0.0 + p)` of every state, ascending `to`.
    edges: Vec<(usize, f64)>,
    /// `edges[row_start[s]..row_start[s + 1]]` belong to state `s`.
    row_start: Vec<usize>,
    /// `(j, R[j, Error])` for every transient `j` with an `→ Error` edge.
    to_error: Vec<(usize, f64)>,
    /// Dense row-major `I − Q`, factored in place.
    a: Vec<f64>,
    /// Row permutation of the factorization: row `i` of `L·U` is row
    /// `perm[i]` of `I − Q`, which `position` maps back to `i`.
    perm: Vec<usize>,
    position: Vec<usize>,
    /// Row scales of the scaled-pivoting factorization.
    scales: Vec<f64>,
    /// Rows below the diagonal with a non-zero in the current column.
    col_rows: Vec<usize>,
    /// Non-zero multipliers `(row, L[row, col])`, by column.
    lower: Vec<(usize, f64)>,
    lower_start: Vec<usize>,
    /// Non-zero entries `(col, U[row, col])` right of the diagonal, by row.
    upper: Vec<(usize, f64)>,
    upper_start: Vec<usize>,
    /// Right-hand sides, one column each, and their solutions.
    rhs: Vec<f64>,
    xy: Vec<f64>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = RefCell::new(Workspace::default());
}

/// Solves both chains of `spec`; `None` means the caller must rerun the
/// dense path (see the module docs). Errors match the dense path's.
pub(super) fn analyze(
    spec: &ClrChainSpec,
    weights: Option<&[f64]>,
    scaled: bool,
) -> Option<Result<TaskReliability, MarkovError>> {
    WORKSPACE.with(|ws| match ws.borrow_mut().analyze(spec, weights, scaled) {
        Ok(r) => Some(Ok(r)),
        Err(Stop::Error(e)) => Some(Err(e)),
        Err(Stop::Dense) => None,
    })
}

impl Workspace {
    fn analyze(
        &mut self,
        spec: &ClrChainSpec,
        weights: Option<&[f64]>,
        scaled: bool,
    ) -> Result<TaskReliability, Stop> {
        spec.validate()?;
        interval_weights(&spec.params, weights, &mut self.weights)?;

        let t = self.assemble(spec, false);
        self.validate(t)?;
        if self.residence[..t].iter().any(|r| r.is_sign_negative()) {
            return Err(Stop::Dense);
        }
        self.fill_i_minus_q(t);
        self.factor(t, scaled)?;
        self.rhs.clear();
        self.rhs.extend_from_slice(&self.residence[..t]);
        self.solve(t, 1)?;
        let avg_exec_time = self.xy[0];

        let t = self.assemble(spec, true);
        self.validate(t)?;
        self.fill_i_minus_q(t);
        self.factor(t, scaled)?;
        // B[0, Error] = Σ_j N[0, j] · R[j, Error], ascending j, where
        // column j of N solves (I − Q)·x = e_j.
        let m = self.to_error.len();
        self.rhs.clear();
        self.rhs.resize(t * m, 0.0);
        for (e, &(j, _)) in self.to_error.iter().enumerate() {
            self.rhs[j * m + e] = 1.0;
        }
        self.solve(t, m)?;
        let mut error = 0.0;
        for (&n0j, &(_, p)) in self.xy.iter().zip(&self.to_error) {
            error += n0j * p;
        }
        Ok(TaskReliability {
            min_exec_time: spec.params.min_exec_time(),
            avg_exec_time,
            error_prob: clre_num::util::clamp_prob(error),
        })
    }

    /// Appends one state: its residence and its edges, which must come in
    /// ascending `to` order (the builder's `BTreeMap` order).
    fn state(&mut self, residence: f64, edges: &[(usize, f64)]) {
        self.residence.push(residence);
        self.row_start.push(self.edges.len());
        for &(to, p) in edges {
            // The builder accumulates every edge onto 0.0.
            self.edges.push((to, 0.0 + p));
        }
    }

    /// Writes the timing (`functional == false`) or functional chain of
    /// `spec` and returns its transient-state count. States come in
    /// `build_chain_spec`'s order: per-interval blocks, checkpoints, then
    /// the absorbers (`End`, or `NoError` and `Error`).
    fn assemble(&mut self, spec: &ClrChainSpec, functional: bool) -> usize {
        let params = &spec.params;
        let perm_rate = spec.mechanism.perm_rate();
        let with_perm = perm_rate > 0.0;
        let k = self.weights.len();
        let block = if with_perm { 7 } else { 6 };
        let t = block * k + (k - 1);
        let (end, err) = (t, t + 1);
        self.residence.clear();
        self.edges.clear();
        self.row_start.clear();
        self.to_error.clear();

        for i in 0..k {
            let o = block * i;
            let (exec, hw, ssw_impl, ssw_det, ssw_tol, asw, perm) =
                (o, o + 1, o + 2, o + 3, o + 4, o + 5, o + 6);
            let cont = if i + 1 < k { block * k + i } else { end };
            let w = self.weights[i];
            let residence = params.exec_time * w + params.t_det;
            if with_perm {
                let lambda = params.seu_rate + perm_rate;
                let p_none = (-lambda * params.exec_time * w).exp();
                let transient_frac = params.seu_rate / lambda;
                self.state(
                    residence,
                    &[
                        (hw, (1.0 - p_none) * transient_frac),
                        (perm, (1.0 - p_none) * (1.0 - transient_frac)),
                        (cont, p_none),
                    ],
                );
            } else {
                let p_ne = (-params.seu_rate * params.exec_time * w).exp();
                self.state(residence, &[(hw, 1.0 - p_ne), (cont, p_ne)]);
            }
            self.state(0.0, &[(ssw_impl, 1.0 - params.m_hw), (cont, params.m_hw)]);
            self.state(
                0.0,
                &[
                    (ssw_det, 1.0 - params.m_impl_ssw),
                    (cont, params.m_impl_ssw),
                ],
            );
            self.state(
                0.0,
                &[(ssw_tol, params.cov_det), (asw, 1.0 - params.cov_det)],
            );
            if functional {
                self.state(
                    params.t_tol,
                    &[(exec, params.m_tol), (err, 1.0 - params.m_tol)],
                );
                self.state(0.0, &[(cont, params.m_asw), (err, 1.0 - params.m_asw)]);
            } else {
                self.state(
                    params.t_tol,
                    &[(exec, params.m_tol), (cont, 1.0 - params.m_tol)],
                );
                self.state(0.0, &[(cont, 1.0)]);
            }
            if with_perm {
                if functional {
                    self.state(0.0, &[(cont, params.m_hw), (err, 1.0 - params.m_hw)]);
                } else {
                    self.state(0.0, &[(cont, 1.0)]);
                }
            }
        }
        for i in 0..k - 1 {
            let next = block * (i + 1);
            if functional {
                self.state(
                    params.t_chk,
                    &[(next, 1.0 - params.p_chk_err), (err, params.p_chk_err)],
                );
            } else {
                self.state(params.t_chk, &[(next, 1.0)]);
            }
        }
        for _ in 0..(if functional { 2 } else { 1 }) {
            self.state(0.0, &[]);
        }
        self.row_start.push(self.edges.len());

        if functional {
            for s in 0..t {
                let row = &self.edges[self.row_start[s]..self.row_start[s + 1]];
                if let Some(&(_, p)) = row.iter().find(|&&(to, _)| to == err) {
                    self.to_error.push((s, p));
                }
            }
        }
        t
    }

    /// `MarkovChainBuilder::build`'s checks, in its order; states from
    /// `t` on are absorbing.
    fn validate(&self, t: usize) -> Result<(), MarkovError> {
        for (s, &res) in self.residence.iter().enumerate() {
            if !res.is_finite() || res < 0.0 {
                return Err(MarkovError::InvalidResidence {
                    state: s,
                    value: res,
                });
            }
        }
        for from in 0..self.residence.len() {
            let row = &self.edges[self.row_start[from]..self.row_start[from + 1]];
            for &(to, p) in row {
                if !p.is_finite() || !(0.0..=1.0 + ROW_SUM_EPS).contains(&p) {
                    return Err(MarkovError::InvalidProbability { from, to, value: p });
                }
            }
            if from < t {
                let sum: f64 = row.iter().map(|&(_, p)| p).sum();
                if (sum - 1.0).abs() > ROW_SUM_EPS {
                    return Err(MarkovError::RowSumNotOne { state: from, sum });
                }
            }
        }
        Ok(())
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
                    self.a[i * t + j] = id - p;
                }
            }
        }
    }

    /// `Lu::factor` (or `Lu::factor_scaled`) in place on `a`, skipping
    /// the updates a zero multiplier or pivot-row entry makes exact
    /// no-ops. Records the non-zeros of `U` by row and of `L` by column
    /// as it goes.
    ///
    /// A non-finite entry never turns finite again (`inf − x` and
    /// `NaN − x` stay non-finite, and skipped updates leave it alone), and
    /// every entry ends up in `U` or as a multiplier in `L`, so checking
    /// the factors sees every non-finite intermediate.
    fn factor(&mut self, t: usize, scaled: bool) -> Result<(), Stop> {
        if let Err(e) = self.eliminate(t, scaled) {
            if self.a.iter().any(|v| !v.is_finite()) {
                return Err(Stop::Dense);
            }
            return Err(Stop::Error(e.into()));
        }
        let finite = |entries: &[(usize, f64)]| entries.iter().all(|(_, v)| v.is_finite());
        let diagonal = (0..t).all(|i| self.a[i * t + i].is_finite());
        if !diagonal || !finite(&self.lower) || !finite(&self.upper) {
            return Err(Stop::Dense);
        }
        // `L` entries were recorded against the original row they sit
        // in; later pivots may have moved that row.
        for (i, &src) in self.perm.iter().enumerate() {
            self.position[src] = i;
        }
        for (row, _) in &mut self.lower {
            *row = self.position[*row];
        }
        Ok(())
    }

    fn eliminate(&mut self, t: usize, scaled: bool) -> Result<(), clre_num::NumError> {
        let a = &mut self.a;
        self.perm.clear();
        self.perm.extend(0..t);
        self.position.clear();
        self.position.resize(t, 0);
        self.scales.clear();
        self.lower.clear();
        self.lower_start.clear();
        self.upper.clear();
        self.upper_start.clear();
        if scaled {
            for r in 0..t {
                let s = a[r * t..(r + 1) * t]
                    .iter()
                    .fold(0.0f64, |s, v| s.max(v.abs()));
                if s < PIVOT_EPS {
                    return Err(clre_num::NumError::Singular { pivot: r });
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
                return Err(clre_num::NumError::Singular { pivot: col });
            }
            if pivot_row != col {
                for c in 0..t {
                    a.swap(col * t + c, pivot_row * t + c);
                }
                self.perm.swap(col, pivot_row);
                if scaled {
                    self.scales.swap(col, pivot_row);
                }
            }
            // The pivot row is final from here on: it is row `col` of U.
            self.upper_start.push(self.upper.len());
            for c in (col + 1)..t {
                let v = a[col * t + c];
                if v != 0.0 {
                    self.upper.push((c, v));
                }
            }
            self.lower_start.push(self.lower.len());
            let diag = a[col * t + col];
            let pivot = &self.upper[self.upper_start[col]..];
            for &r in &self.col_rows {
                // After a swap, row `pivot_row` holds the old diagonal
                // row, whose entry here may be zero.
                let v = a[r * t + col];
                if v == 0.0 {
                    continue;
                }
                let factor = v / diag;
                a[r * t + col] = factor;
                self.lower.push((self.perm[r], factor));
                if factor == 0.0 {
                    continue;
                }
                for &(c, u) in pivot {
                    a[r * t + c] -= factor * u;
                }
            }
        }
        self.upper_start.push(self.upper.len());
        self.lower_start.push(self.lower.len());
        Ok(())
    }

    /// `Lu::solve` for the `m` right-hand sides in `rhs` (`t × m`,
    /// row-major) at once, over the recorded factors; leaves `x[0, ..]` in
    /// `xy[..m]`. Each column sees exactly the single-vector solve's
    /// operations in its order — forward substitution visits `L` by
    /// column, which still subtracts from each row in ascending column
    /// order — and solving them side by side only hides the latency of
    /// the dependent subtractions and divisions.
    fn solve(&mut self, t: usize, m: usize) -> Result<(), Stop> {
        let xy = &mut self.xy;
        xy.clear();
        for &src in &self.perm {
            xy.extend_from_slice(&self.rhs[src * m..(src + 1) * m]);
        }
        // Forward substitution: y = L⁻¹·P·rhs.
        for col in 0..t {
            let (done, rest) = xy.split_at_mut((col + 1) * m);
            let y_col = &done[col * m..];
            for &(i, l) in &self.lower[self.lower_start[col]..self.lower_start[col + 1]] {
                let yi = &mut rest[(i - col - 1) * m..(i - col) * m];
                for (acc, &y) in yi.iter_mut().zip(y_col) {
                    *acc -= l * y;
                }
            }
        }
        // Back substitution in place: x = U⁻¹·y.
        for i in (0..t).rev() {
            let (head, solved) = xy.split_at_mut((i + 1) * m);
            let xi = &mut head[i * m..];
            for &(j, u) in &self.upper[self.upper_start[i]..self.upper_start[i + 1]] {
                let xj = &solved[(j - i - 1) * m..(j - i) * m];
                for (acc, &x) in xi.iter_mut().zip(xj) {
                    *acc -= u * x;
                }
            }
            let diag = self.a[i * t + i];
            for v in xi.iter_mut() {
                *v /= diag;
            }
        }
        // As in `factor`, a non-finite value never turns finite again.
        if xy.iter().any(|v| !v.is_finite()) {
            return Err(Stop::Dense);
        }
        Ok(())
    }
}
