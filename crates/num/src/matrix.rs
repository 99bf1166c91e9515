use crate::{Lu, NumError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense, row-major `f64` matrix.
///
/// Sized for the small systems that arise in CL(R)Early's Markov-chain
/// analysis (typically fewer than twenty states). All fallible operations
/// return [`NumError`] rather than panicking, except for indexed accessors
/// which document their panics.
///
/// # Examples
///
/// ```
/// use clre_num::Matrix;
///
/// # fn main() -> Result<(), clre_num::NumError> {
/// let a = Matrix::identity(3);
/// let b = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 10.0]])?;
/// let c = a.mul(&b)?;
/// assert_eq!(c, b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// let z = clre_num::Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert_eq!(z.get(1, 2), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// let id = clre_num::Matrix::identity(2);
    /// assert_eq!(id.get(0, 0), 1.0);
    /// assert_eq!(id.get(0, 1), 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::RaggedRows`] if `rows` is empty, any row is
    /// empty, or the rows have differing lengths.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), clre_num::NumError> {
    /// let m = clre_num::Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
    /// assert_eq!(m.get(1, 0), 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, NumError> {
        let nrows = rows.len();
        if nrows == 0 {
            return Err(NumError::RaggedRows);
        }
        let ncols = rows[0].len();
        if ncols == 0 || rows.iter().any(|r| r.len() != ncols) {
            return Err(NumError::RaggedRows);
        }
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Returns the shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns the number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns the number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Returns the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns the underlying row-major data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the underlying row-major data.
    pub fn into_inner(self) -> Vec<f64> {
        self.data
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, NumError> {
        if self.cols != rhs.rows {
            return Err(NumError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "mul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += a * rhs.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix, NumError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix, NumError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * k).collect(),
        }
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix, NumError> {
        if self.shape() != rhs.shape() {
            return Err(NumError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op,
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Solves `self · x = b` via LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::NotSquare`] for rectangular matrices,
    /// [`NumError::DimensionMismatch`] if `b.len() != rows`, and
    /// [`NumError::Singular`] if the matrix cannot be factored.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), clre_num::NumError> {
    /// let a = clre_num::Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]])?;
    /// let x = a.solve(&[2.0, 8.0])?;
    /// assert_eq!(x, vec![1.0, 2.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        Lu::factor(self)?.solve(b)
    }

    /// Like [`Matrix::solve`] but factoring with scaled partial pivoting
    /// ([`Lu::factor_scaled`]) — the retry path for badly row-scaled
    /// systems where plain pivoting loses accuracy or misdeclares
    /// singularity.
    ///
    /// # Errors
    ///
    /// As for [`Matrix::solve`].
    pub fn solve_scaled(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        Lu::factor_scaled(self)?.solve(b)
    }

    /// Computes the inverse via LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::NotSquare`] for rectangular matrices and
    /// [`NumError::Singular`] if the matrix cannot be inverted.
    pub fn inverse(&self) -> Result<Matrix, NumError> {
        Lu::factor(self)?.inverse()
    }

    /// Like [`Matrix::inverse`] but factoring with scaled partial
    /// pivoting ([`Lu::factor_scaled`]).
    ///
    /// # Errors
    ///
    /// As for [`Matrix::inverse`].
    pub fn inverse_scaled(&self) -> Result<Matrix, NumError> {
        Lu::factor_scaled(self)?.inverse()
    }

    /// Largest absolute element difference to `rhs`, or `None` when the
    /// shapes differ. Useful for approximate comparisons in tests.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Option<f64> {
        if self.shape() != rhs.shape() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Result<Matrix, NumError>;

    fn add(self, rhs: &Matrix) -> Self::Output {
        Matrix::add(self, rhs)
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Result<Matrix, NumError>;

    fn sub(self, rhs: &Matrix) -> Self::Output {
        Matrix::sub(self, rhs)
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Result<Matrix, NumError>;

    fn mul(self, rhs: &Matrix) -> Self::Output {
        Matrix::mul(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let id = Matrix::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert_eq!(Matrix::from_rows(&[]), Err(NumError::RaggedRows));
        assert_eq!(
            Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]),
            Err(NumError::RaggedRows)
        );
        let empty: &[f64] = &[];
        assert_eq!(Matrix::from_rows(&[empty]), Err(NumError::RaggedRows));
    }

    #[test]
    fn mul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn mul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.mul(&b),
            Err(NumError::DimensionMismatch { op: "mul", .. })
        ));
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0]]).unwrap();
        assert_eq!(
            a.add(&b).unwrap(),
            Matrix::from_rows(&[&[4.0, 7.0]]).unwrap()
        );
        assert_eq!(
            b.sub(&a).unwrap(),
            Matrix::from_rows(&[&[2.0, 3.0]]).unwrap()
        );
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]).unwrap());
    }

    #[test]
    fn operator_impls_delegate() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        assert_eq!((&a + &b).unwrap(), a.scale(2.0));
        assert_eq!((&a - &b).unwrap(), Matrix::zeros(2, 2));
        assert_eq!((&a * &b).unwrap(), a);
    }

    #[test]
    fn display_is_readable() {
        let a = Matrix::identity(2);
        let s = a.to_string();
        assert!(s.contains("1.000000"));
        assert!(s.lines().count() == 2);
    }

    #[test]
    fn max_abs_diff_none_on_shape_mismatch() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert_eq!(a.max_abs_diff(&b), None);
        assert_eq!(a.max_abs_diff(&a), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(1, 1).get(0, 1);
    }
}
