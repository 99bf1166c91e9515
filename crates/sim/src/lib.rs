//! Monte-Carlo fault-injection simulation for the CL(R)Early reproduction.
//!
//! The analytical task-level models of `clre-markov` predict a task's
//! average execution time and error probability under a cross-layer
//! reliability configuration. This crate provides an *independent*
//! validator: it injects single-event upsets stochastically and walks the
//! exact same per-interval semantics as the Markov chains of the paper's
//! Fig. 3 — execution, hardware masking, implicit system-software masking,
//! detection, tolerance with roll-back, application-software masking and
//! checkpoint corruption — and measures the empirical statistics.
//!
//! By the strong law of large numbers the empirical error rate converges
//! to the functional chain's `Error` absorption probability and the mean
//! simulated time to the timing chain's expected absorption time; the
//! test suites of this crate and of the workspace assert that agreement.
//!
//! An application-level simulator ([`AppSimulator`]) replays a scheduled
//! mapping with sampled task durations and error outcomes, validating the
//! system-level QoS estimates (series-system error probability; average
//! makespan as a lower bound on the empirical mean makespan, by Jensen's
//! inequality applied to the `max` in the schedule).
//!
//! # Examples
//!
//! ```
//! use clre_markov::clr::{analyze_spec, ClrChainParams, ClrChainSpec};
//! use clre_sim::TaskSimulator;
//!
//! # fn main() -> Result<(), clre_markov::MarkovError> {
//! let params = ClrChainParams {
//!     cov_det: 0.9, m_tol: 0.97, t_det: 10.0e-6, t_tol: 5.0e-6,
//!     ..ClrChainParams::unprotected(300.0e-6, 500.0)
//! };
//! let analytic = analyze_spec(&ClrChainSpec::transient(params))?;
//! let empirical = TaskSimulator::new(params).run(20_000, 7);
//! assert!((empirical.error_rate - analytic.error_prob).abs() < 0.01);
//! assert!((empirical.mean_time / analytic.avg_exec_time - 1.0).abs() < 0.02);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod task;

pub use app::{AppSimResult, AppSimulator};
pub use task::{SimResult, TaskSimulator};
