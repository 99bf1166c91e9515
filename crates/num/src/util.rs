//! Small numeric utilities shared across the workspace: compensated
//! summation and clamped probabilities.

/// Kahan–Babuška compensated sum of an iterator of `f64`.
///
/// The QoS estimators accumulate many small per-task quantities; compensated
/// summation keeps the rounding error independent of the task count.
///
/// # Examples
///
/// ```
/// use clre_num::util::kahan_sum;
///
/// let xs = vec![1e16, 1.0, -1e16];
/// assert_eq!(kahan_sum(xs.iter().copied()), 1.0);
/// ```
pub fn kahan_sum<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let mut sum = 0.0;
    let mut comp = 0.0;
    for x in xs {
        let t = sum + x;
        if sum.abs() >= x.abs() {
            comp += (sum - t) + x;
        } else {
            comp += (x - t) + sum;
        }
        sum = t;
    }
    sum + comp
}

/// Clamps `p` into the closed probability interval `[0, 1]`.
///
/// Markov-chain arithmetic can produce values like `1.0 + 2e-16`; clamping
/// keeps downstream logic (e.g. `1 − p`) well-behaved. `NaN` maps to `0.0`.
///
/// # Examples
///
/// ```
/// use clre_num::util::clamp_prob;
///
/// assert_eq!(clamp_prob(1.0 + 1e-15), 1.0);
/// assert_eq!(clamp_prob(-0.25), 0.0);
/// assert_eq!(clamp_prob(f64::NAN), 0.0);
/// ```
pub fn clamp_prob(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kahan_beats_naive_on_cancellation() {
        let xs = [1e16, 3.25, -1e16, 2.0];
        let naive: f64 = xs.iter().sum();
        let kahan = kahan_sum(xs.iter().copied());
        assert!((kahan - 5.25).abs() < 1e-12);
        // The naive sum loses the small addends entirely on this input.
        assert!((naive - 5.25).abs() > (kahan - 5.25).abs());
    }

    #[test]
    fn kahan_empty_is_zero() {
        assert_eq!(kahan_sum(std::iter::empty()), 0.0);
    }

    #[test]
    fn clamp_prob_bounds() {
        assert_eq!(clamp_prob(0.5), 0.5);
        assert_eq!(clamp_prob(2.0), 1.0);
        assert_eq!(clamp_prob(-1.0), 0.0);
    }
}
