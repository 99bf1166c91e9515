//! Absorbing Markov chain analysis and the CL(R)Early cross-layer
//! reliability chain builders (Section IV of the paper).
//!
//! The paper models a task executing under an arbitrary CLR configuration
//! as an absorbing Markov chain (Fig. 3):
//!
//! * a **timing** chain whose expected time to absorption is the task's
//!   average execution time `AvgExT`, extending the checkpointing model of
//!   Sahoo et al. (VLSID'18) with cross-layer masking states, and
//! * a **functional** chain with two absorbing states — `Error` and
//!   `NoError` — whose absorption probabilities give the task's error
//!   probability `ErrProb`.
//!
//! The generic machinery lives in [`MarkovChain`] (fundamental matrix
//! `N = (I − Q)⁻¹`, expected absorption times `N·r`, absorption
//! probabilities `N·R` — Kemeny & Snell); the CLR-specific construction
//! lives in [`clr`], whose entry points all take a [`ClrChainSpec`]: the
//! flattened parameters plus the fault mechanism. A loop-free closed form
//! for single-interval configurations is provided in [`closed_form`] for
//! cross-validation.
//!
//! # Examples
//!
//! Analyze a task protected by two-interval checkpointing plus partial TMR
//! and checksums:
//!
//! ```
//! use clre_markov::clr::{analyze_spec, ClrChainParams, ClrChainSpec};
//!
//! # fn main() -> Result<(), clre_markov::MarkovError> {
//! let params = ClrChainParams {
//!     exec_time: 300.0e-6,
//!     seu_rate: 200.0,
//!     m_hw: 0.7,
//!     m_impl_ssw: 0.05,
//!     cov_det: 0.95,
//!     m_tol: 0.98,
//!     m_asw: 0.55,
//!     intervals: 2,
//!     t_det: 9.0e-6,
//!     t_tol: 9.0e-6,
//!     t_chk: 12.0e-6,
//!     p_chk_err: 1.0e-4,
//! };
//! let r = analyze_spec(&ClrChainSpec::transient(params))?;
//! assert!(r.avg_exec_time > r.min_exec_time);
//! assert!(r.error_prob > 0.0 && r.error_prob < 0.06);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
pub mod closed_form;
pub mod clr;
mod error;

pub use chain::{MarkovChain, MarkovChainBuilder, StateId};
pub use clr::{ClrChainParams, ClrChainSpec, FaultMechanism, RobustAnalysis, TaskReliability};
pub use error::MarkovError;
