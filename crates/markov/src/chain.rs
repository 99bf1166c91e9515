use crate::MarkovError;
use clre_num::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Index of a state within a [`MarkovChain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StateId(pub usize);

impl StateId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for StateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// A validated absorbing Markov chain with per-state residence times.
///
/// States declared with [`MarkovChainBuilder::absorbing`] are absorbing;
/// all others are transient and must have outgoing probabilities summing
/// to 1. Analysis follows Kemeny & Snell: with transition matrix in
/// canonical form `[[Q, R], [0, I]]`, the fundamental matrix is
/// `N = (I − Q)⁻¹`, expected accumulated residence before absorption is
/// `N·r`, and absorption probabilities are `B = N·R`.
///
/// # Examples
///
/// A biased coin flipped until the first head, counting one second per
/// flip:
///
/// ```
/// use clre_markov::MarkovChain;
///
/// # fn main() -> Result<(), clre_markov::MarkovError> {
/// let mut b = MarkovChain::builder();
/// let flip = b.state("flip", 1.0);
/// let head = b.absorbing("head");
/// b.transition(flip, head, 0.25);
/// b.transition(flip, flip, 0.75);
/// let chain = b.build()?;
/// // Geometric: expected 4 flips.
/// assert!((chain.expected_time_to_absorption(flip)? - 4.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MarkovChain {
    names: Vec<String>,
    residence: Vec<f64>,
    /// Sparse transitions: `trans[from]` maps `to → p`.
    trans: Vec<BTreeMap<usize, f64>>,
    absorbing: Vec<bool>,
    /// Transient state indices in declaration order.
    transient: Vec<usize>,
    /// Absorbing state indices in declaration order.
    absorbing_ids: Vec<usize>,
}

impl MarkovChain {
    /// Starts building a chain.
    pub fn builder() -> MarkovChainBuilder {
        MarkovChainBuilder::default()
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.names.len()
    }

    /// Number of transient states.
    pub fn transient_count(&self) -> usize {
        self.transient.len()
    }

    /// The state's name.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn state_name(&self, s: StateId) -> &str {
        &self.names[s.index()]
    }

    /// Whether `s` is absorbing.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn is_absorbing(&self, s: StateId) -> bool {
        self.absorbing[s.index()]
    }

    /// The absorbing states in declaration order.
    pub fn absorbing_states(&self) -> Vec<StateId> {
        self.absorbing_ids.iter().copied().map(StateId).collect()
    }

    /// The transition probability `from → to` (0 if absent).
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn probability(&self, from: StateId, to: StateId) -> f64 {
        self.trans[from.index()]
            .get(&to.index())
            .copied()
            .unwrap_or(0.0)
    }

    /// The dense `Q` block (transient → transient) of the canonical form.
    fn q_matrix(&self) -> Matrix {
        let t = self.transient.len();
        let pos: BTreeMap<usize, usize> = self
            .transient
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        let mut q = Matrix::zeros(t, t);
        for (i, &s) in self.transient.iter().enumerate() {
            for (&to, &p) in &self.trans[s] {
                if let Some(&j) = pos.get(&to) {
                    q.set(i, j, p);
                }
            }
        }
        q
    }

    /// The fundamental matrix `N = (I − Q)⁻¹`.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::NotAbsorbing`] if some transient state can
    /// never reach absorption (singular `I − Q`).
    pub fn fundamental_matrix(&self) -> Result<Matrix, MarkovError> {
        self.fundamental_matrix_via(false)
    }

    /// `N` from plain LU or, with `scaled`, from scaled partial pivoting —
    /// the more robust (and slightly costlier) factorization used as the
    /// retry path when the plain solver fails or returns non-finite values
    /// on badly row-scaled `I − Q` blocks.
    fn fundamental_matrix_via(&self, scaled: bool) -> Result<Matrix, MarkovError> {
        let q = self.q_matrix();
        let n = Matrix::identity(q.rows()).sub(&q)?;
        Ok(if scaled {
            n.inverse_scaled()?
        } else {
            n.inverse()?
        })
    }

    /// Expected total residence time accumulated before absorption when
    /// starting in `start`: `(N·r)[start]`.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::StateOutOfRange`] for an invalid `start`.
    /// * [`MarkovError::StartIsAbsorbing`] if `start` is absorbing.
    /// * [`MarkovError::NotAbsorbing`] if absorption is not certain.
    pub fn expected_time_to_absorption(&self, start: StateId) -> Result<f64, MarkovError> {
        self.expected_time_via(start, false)
    }

    /// [`MarkovChain::expected_time_to_absorption`], optionally solved with
    /// scaled partial pivoting (see [`MarkovChain::fundamental_matrix_via`]).
    pub(crate) fn expected_time_via(
        &self,
        start: StateId,
        scaled: bool,
    ) -> Result<f64, MarkovError> {
        let row = self.transient_row(start)?;
        // Solve (I − Q)ᵀ is unnecessary: solve (I − Q)·t = r directly and
        // pick the entry for `start` — one LU solve instead of an inverse.
        let q = self.q_matrix();
        let a = Matrix::identity(q.rows()).sub(&q)?;
        let r: Vec<f64> = self.transient.iter().map(|&s| self.residence[s]).collect();
        let t = if scaled {
            a.solve_scaled(&r)?
        } else {
            a.solve(&r)?
        };
        Ok(t[row])
    }

    /// Variance of the total residence time accumulated before absorption
    /// when starting in `start`.
    ///
    /// With `t = N·r` the vector of expected remaining times,
    /// conditioning on the first transition gives the second moment
    /// `m₂ = N·(r∘r + 2·r∘(Q·t))` (`∘` is the element-wise product), so
    /// `Var = m₂[start] − t[start]²`. Computed with two LU solves, no
    /// explicit inverse.
    ///
    /// # Errors
    ///
    /// As for [`MarkovChain::expected_time_to_absorption`].
    ///
    /// # Examples
    ///
    /// ```
    /// use clre_markov::MarkovChain;
    ///
    /// # fn main() -> Result<(), clre_markov::MarkovError> {
    /// // Geometric number of unit-time flips with p = 1/4:
    /// // mean 4, variance (1−p)/p² = 12.
    /// let mut b = MarkovChain::builder();
    /// let flip = b.state("flip", 1.0);
    /// let head = b.absorbing("head");
    /// b.transition(flip, head, 0.25);
    /// b.transition(flip, flip, 0.75);
    /// let c = b.build()?;
    /// assert!((c.time_to_absorption_variance(flip)? - 12.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn time_to_absorption_variance(&self, start: StateId) -> Result<f64, MarkovError> {
        let row = self.transient_row(start)?;
        let q = self.q_matrix();
        let a = Matrix::identity(q.rows()).sub(&q)?;
        let r: Vec<f64> = self.transient.iter().map(|&s| self.residence[s]).collect();
        // t = N·r via one solve.
        let t = a.solve(&r)?;
        // m2 = N·(r∘r + 2·r∘(Q·t)) via a second solve.
        let qt = q.mul_vec(&t)?;
        let rhs: Vec<f64> = r
            .iter()
            .zip(&qt)
            .map(|(&ri, &qti)| ri * ri + 2.0 * ri * qti)
            .collect();
        let m2 = a.solve(&rhs)?;
        Ok((m2[row] - t[row] * t[row]).max(0.0))
    }

    /// Expected number of visits to each transient state before absorption
    /// when starting in `start` (the `start` row of `N`).
    ///
    /// # Errors
    ///
    /// As for [`MarkovChain::expected_time_to_absorption`].
    pub fn expected_visits(&self, start: StateId) -> Result<Vec<(StateId, f64)>, MarkovError> {
        let row = self.transient_row(start)?;
        let n = self.fundamental_matrix()?;
        Ok(self
            .transient
            .iter()
            .enumerate()
            .map(|(j, &s)| (StateId(s), n.get(row, j)))
            .collect())
    }

    /// Probability of being absorbed in each absorbing state when starting
    /// in `start` (the `start` row of `B = N·R`).
    ///
    /// # Errors
    ///
    /// As for [`MarkovChain::expected_time_to_absorption`].
    ///
    /// # Examples
    ///
    /// ```
    /// use clre_markov::MarkovChain;
    ///
    /// # fn main() -> Result<(), clre_markov::MarkovError> {
    /// let mut b = MarkovChain::builder();
    /// let s = b.state("s", 0.0);
    /// let win = b.absorbing("win");
    /// let lose = b.absorbing("lose");
    /// b.transition(s, win, 0.3);
    /// b.transition(s, lose, 0.7);
    /// let c = b.build()?;
    /// let probs = c.absorption_probabilities(s)?;
    /// assert!((probs[&win] - 0.3).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn absorption_probabilities(
        &self,
        start: StateId,
    ) -> Result<BTreeMap<StateId, f64>, MarkovError> {
        self.absorption_probabilities_via(start, false)
    }

    /// [`MarkovChain::absorption_probabilities`], optionally through the
    /// scaled-pivoting fundamental matrix.
    pub(crate) fn absorption_probabilities_via(
        &self,
        start: StateId,
        scaled: bool,
    ) -> Result<BTreeMap<StateId, f64>, MarkovError> {
        let row = self.transient_row(start)?;
        let n = self.fundamental_matrix_via(scaled)?;
        let mut out = BTreeMap::new();
        for &abs in &self.absorbing_ids {
            // B[row, abs] = Σ_j N[row, j] · R[j, abs]
            let mut acc = 0.0;
            for (j, &s) in self.transient.iter().enumerate() {
                if let Some(&p) = self.trans[s].get(&abs) {
                    acc += n.get(row, j) * p;
                }
            }
            out.insert(StateId(abs), acc);
        }
        Ok(out)
    }

    /// Renders the chain in Graphviz DOT format: absorbing states are
    /// double circles, transitions are labelled with their probabilities,
    /// states with non-zero residence show it in the label.
    ///
    /// # Examples
    ///
    /// ```
    /// # use clre_markov::MarkovChain;
    /// # fn main() -> Result<(), clre_markov::MarkovError> {
    /// let mut b = MarkovChain::builder();
    /// let s = b.state("Exec", 1.0e-4);
    /// let e = b.absorbing("End");
    /// b.transition(s, e, 1.0);
    /// let dot = b.build()?.to_dot();
    /// assert!(dot.contains("doublecircle"));
    /// assert!(dot.contains("Exec"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph markov {\n  rankdir=LR;\n");
        for (i, name) in self.names.iter().enumerate() {
            let shape = if self.absorbing[i] {
                "doublecircle"
            } else {
                "circle"
            };
            let label = if self.residence[i] > 0.0 {
                format!("{name}\\nr={:.2e}", self.residence[i])
            } else {
                name.clone()
            };
            out.push_str(&format!("  S{i} [shape={shape}, label=\"{label}\"];\n"));
        }
        for (from, row) in self.trans.iter().enumerate() {
            for (&to, &p) in row {
                out.push_str(&format!("  S{from} -> S{to} [label=\"{p:.3}\"];\n"));
            }
        }
        out.push_str("}\n");
        out
    }

    fn transient_row(&self, start: StateId) -> Result<usize, MarkovError> {
        if start.index() >= self.names.len() {
            return Err(MarkovError::StateOutOfRange {
                state: start.index(),
                count: self.names.len(),
            });
        }
        if self.absorbing[start.index()] {
            return Err(MarkovError::StartIsAbsorbing {
                state: start.index(),
            });
        }
        Ok(self
            .transient
            .iter()
            .position(|&s| s == start.index())
            .expect("non-absorbing state is transient"))
    }
}

/// Builder for [`MarkovChain`].
#[derive(Debug, Default, Clone)]
pub struct MarkovChainBuilder {
    names: Vec<String>,
    residence: Vec<f64>,
    absorbing: Vec<bool>,
    trans: Vec<BTreeMap<usize, f64>>,
}

/// Tolerance for validating that transient rows sum to 1.
pub(crate) const ROW_SUM_EPS: f64 = 1e-9;

impl MarkovChainBuilder {
    /// Declares a transient state with the given residence time and
    /// returns its id.
    pub fn state(&mut self, name: impl Into<String>, residence: f64) -> StateId {
        self.names.push(name.into());
        self.residence.push(residence);
        self.absorbing.push(false);
        self.trans.push(BTreeMap::new());
        StateId(self.names.len() - 1)
    }

    /// Declares an absorbing state and returns its id.
    pub fn absorbing(&mut self, name: impl Into<String>) -> StateId {
        let id = self.state(name, 0.0);
        self.absorbing[id.index()] = true;
        id
    }

    /// Adds (or accumulates onto) the transition `from → to` with
    /// probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if either state id was not produced by this builder.
    pub fn transition(&mut self, from: StateId, to: StateId, p: f64) -> &mut Self {
        assert!(
            from.index() < self.names.len() && to.index() < self.names.len(),
            "state id out of range"
        );
        *self.trans[from.index()].entry(to.index()).or_insert(0.0) += p;
        self
    }

    /// Validates and produces the chain.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::InvalidProbability`] for entries outside `[0, 1]`.
    /// * [`MarkovError::InvalidResidence`] for negative/non-finite times.
    /// * [`MarkovError::RowSumNotOne`] if a transient row's sum differs
    ///   from 1 by more than `1e-9`.
    /// * [`MarkovError::NoAbsorbingState`] if every state is transient.
    pub fn build(self) -> Result<MarkovChain, MarkovError> {
        let n = self.names.len();
        for (s, &res) in self.residence.iter().enumerate() {
            if !res.is_finite() || res < 0.0 {
                return Err(MarkovError::InvalidResidence {
                    state: s,
                    value: res,
                });
            }
        }
        for (from, row) in self.trans.iter().enumerate() {
            for (&to, &p) in row {
                if !p.is_finite() || !(0.0..=1.0 + ROW_SUM_EPS).contains(&p) {
                    return Err(MarkovError::InvalidProbability { from, to, value: p });
                }
            }
            if !self.absorbing[from] {
                let sum: f64 = row.values().sum();
                if (sum - 1.0).abs() > ROW_SUM_EPS {
                    return Err(MarkovError::RowSumNotOne { state: from, sum });
                }
            }
        }
        let absorbing_ids: Vec<usize> = (0..n).filter(|&i| self.absorbing[i]).collect();
        if absorbing_ids.is_empty() {
            return Err(MarkovError::NoAbsorbingState);
        }
        let transient: Vec<usize> = (0..n).filter(|&i| !self.absorbing[i]).collect();
        Ok(MarkovChain {
            names: self.names,
            residence: self.residence,
            trans: self.trans,
            absorbing: self.absorbing,
            transient,
            absorbing_ids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drunkard's walk on 0..=4 with absorbing ends.
    fn drunkard() -> (MarkovChain, Vec<StateId>) {
        let mut b = MarkovChain::builder();
        let home = b.absorbing("home");
        let s1 = b.state("p1", 1.0);
        let s2 = b.state("p2", 1.0);
        let s3 = b.state("p3", 1.0);
        let bar = b.absorbing("bar");
        for (s, l, r) in [(s1, home, s2), (s2, s1, s3), (s3, s2, bar)] {
            b.transition(s, l, 0.5);
            b.transition(s, r, 0.5);
        }
        (b.build().unwrap(), vec![home, s1, s2, s3, bar])
    }

    #[test]
    fn drunkard_expected_steps() {
        // Classic result: expected steps from position k of n = k(n-k).
        let (c, ids) = drunkard();
        assert!((c.expected_time_to_absorption(ids[1]).unwrap() - 3.0).abs() < 1e-9);
        assert!((c.expected_time_to_absorption(ids[2]).unwrap() - 4.0).abs() < 1e-9);
        assert!((c.expected_time_to_absorption(ids[3]).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn drunkard_absorption_probabilities() {
        let (c, ids) = drunkard();
        let p = c.absorption_probabilities(ids[2]).unwrap();
        assert!((p[&ids[0]] - 0.5).abs() < 1e-12);
        assert!((p[&ids[4]] - 0.5).abs() < 1e-12);
        let p1 = c.absorption_probabilities(ids[1]).unwrap();
        assert!((p1[&ids[0]] - 0.75).abs() < 1e-12);
        // Absorption probabilities always sum to 1.
        assert!((p1.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_visits_match_fundamental_matrix() {
        let (c, ids) = drunkard();
        let visits = c.expected_visits(ids[2]).unwrap();
        let total: f64 = visits.iter().map(|(_, v)| v).sum();
        // Unit residence everywhere ⇒ total visits == expected time.
        assert!((total - 4.0).abs() < 1e-9);
    }

    #[test]
    fn variance_of_deterministic_path_is_zero() {
        let mut b = MarkovChain::builder();
        let s0 = b.state("s0", 2.0);
        let s1 = b.state("s1", 3.0);
        let end = b.absorbing("end");
        b.transition(s0, s1, 1.0);
        b.transition(s1, end, 1.0);
        let c = b.build().unwrap();
        assert!((c.expected_time_to_absorption(s0).unwrap() - 5.0).abs() < 1e-12);
        assert!(c.time_to_absorption_variance(s0).unwrap() < 1e-12);
    }

    #[test]
    fn variance_matches_two_outcome_branch() {
        // One step of time 0, then absorb into A (time 1 more via s1) w.p.
        // 0.5 or absorb immediately w.p. 0.5: total time ∈ {0, 1} with
        // equal probability → mean 0.5, variance 0.25.
        let mut b = MarkovChain::builder();
        let s0 = b.state("s0", 0.0);
        let s1 = b.state("s1", 1.0);
        let end = b.absorbing("end");
        b.transition(s0, s1, 0.5);
        b.transition(s0, end, 0.5);
        b.transition(s1, end, 1.0);
        let c = b.build().unwrap();
        assert!((c.expected_time_to_absorption(s0).unwrap() - 0.5).abs() < 1e-12);
        assert!((c.time_to_absorption_variance(s0).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_row_sum() {
        let mut b = MarkovChain::builder();
        let s = b.state("s", 0.0);
        let a = b.absorbing("a");
        b.transition(s, a, 0.5);
        assert!(matches!(b.build(), Err(MarkovError::RowSumNotOne { .. })));
    }

    #[test]
    fn rejects_invalid_probability() {
        let mut b = MarkovChain::builder();
        let s = b.state("s", 0.0);
        let a = b.absorbing("a");
        b.transition(s, a, -0.5);
        b.transition(s, s, 1.5);
        assert!(matches!(
            b.build(),
            Err(MarkovError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn rejects_no_absorbing() {
        let mut b = MarkovChain::builder();
        let s = b.state("s", 0.0);
        b.transition(s, s, 1.0);
        assert_eq!(b.build().unwrap_err(), MarkovError::NoAbsorbingState);
    }

    #[test]
    fn rejects_negative_residence() {
        let mut b = MarkovChain::builder();
        let s = b.state("s", -1.0);
        let a = b.absorbing("a");
        b.transition(s, a, 1.0);
        assert!(matches!(
            b.build(),
            Err(MarkovError::InvalidResidence { .. })
        ));
    }

    #[test]
    fn start_must_be_transient_and_in_range() {
        let (c, ids) = drunkard();
        assert!(matches!(
            c.expected_time_to_absorption(ids[0]),
            Err(MarkovError::StartIsAbsorbing { .. })
        ));
        assert!(matches!(
            c.expected_time_to_absorption(StateId(99)),
            Err(MarkovError::StateOutOfRange { .. })
        ));
    }

    #[test]
    fn unreachable_absorption_detected() {
        let mut b = MarkovChain::builder();
        let s = b.state("spin", 1.0);
        let _a = b.absorbing("a");
        b.transition(s, s, 1.0); // never reaches `a`
        let c = b.build().unwrap();
        assert_eq!(
            c.expected_time_to_absorption(s).unwrap_err(),
            MarkovError::NotAbsorbing
        );
    }

    #[test]
    fn transition_accumulates_parallel_edges() {
        let mut b = MarkovChain::builder();
        let s = b.state("s", 2.0);
        let a = b.absorbing("a");
        b.transition(s, a, 0.5);
        b.transition(s, a, 0.5);
        let c = b.build().unwrap();
        assert_eq!(c.probability(s, a), 1.0);
        assert!((c.expected_time_to_absorption(s).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dot_export_shows_absorbers_and_probabilities() {
        let (c, _) = drunkard();
        let dot = c.to_dot();
        assert_eq!(dot.matches("doublecircle").count(), 2);
        assert!(dot.contains("0.500"));
        assert!(dot.contains("home"));
        // Residence annotations present for timed states.
        assert!(dot.contains("r=1.00e0"));
    }

    #[test]
    fn metadata_accessors() {
        let (c, ids) = drunkard();
        assert_eq!(c.state_count(), 5);
        assert_eq!(c.transient_count(), 3);
        assert_eq!(c.state_name(ids[0]), "home");
        assert!(c.is_absorbing(ids[0]));
        assert!(!c.is_absorbing(ids[1]));
        assert_eq!(c.absorbing_states(), vec![ids[0], ids[4]]);
        assert_eq!(ids[1].to_string(), "S1");
    }
}
