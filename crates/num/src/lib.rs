//! Dense linear algebra and special-function numerics for the CL(R)Early
//! workspace.
//!
//! The absorbing-Markov-chain analysis in [`clre-markov`] needs three
//! operations that the Rust standard library does not provide:
//!
//! * dense matrix arithmetic ([`Matrix`]),
//! * solving `A·x = b` and inverting small matrices via LU decomposition
//!   with partial pivoting ([`Lu`]),
//! * the Gamma function `Γ(x)` used by the Weibull lifetime model
//!   ([`gamma`]).
//!
//! It also hosts the workspace's one content hash, FNV-1a ([`digest`]).
//!
//! Everything is implemented from scratch on `f64`; the matrices involved in
//! CL(R)Early are tiny (a cross-layer reliability Markov chain has on the
//! order of ten states), so a straightforward `O(n³)` LU is both adequate
//! and easy to audit.
//!
//! # Examples
//!
//! ```
//! use clre_num::{Matrix, gamma};
//!
//! # fn main() -> Result<(), clre_num::NumError> {
//! let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
//! let inv = a.inverse()?;
//! let id = a.mul(&inv)?;
//! assert!((id.get(0, 0) - 1.0).abs() < 1e-12);
//! assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```
//!
//! [`clre-markov`]: https://example.invalid/clrearly

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
mod error;
mod gamma_fn;
mod lu;
mod matrix;
pub mod util;

pub use error::NumError;
pub use gamma_fn::{gamma, ln_gamma};
pub use lu::Lu;
pub use matrix::Matrix;
