use crate::{LinalgError, Matrix, Result, Vector};

/// Cholesky decomposition `A = L·Lᵀ` of a symmetric positive-definite
/// matrix.
///
/// In this reproduction the decomposition serves two purposes:
///
/// * drawing correlated Gaussian noise (`x = μ + L·z` with `z` standard
///   normal) in the simulation substrate, and
/// * cheap log-determinants and PSD checks on propagated covariances.
///
/// # Example
///
/// ```
/// use roboads_linalg::Matrix;
///
/// # fn main() -> Result<(), roboads_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = a.cholesky()?;
/// let l = chol.l();
/// let reconstructed = l * l.transpose();
/// assert!((&reconstructed - &a).max_abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

/// Tolerance for the symmetry pre-check, relative to the largest entry.
const SYMMETRY_TOL: f64 = 1e-8;

impl Cholesky {
    /// Decomposes a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::Empty`] for an empty matrix, and
    /// [`LinalgError::NotPositiveDefinite`] if the matrix is asymmetric
    /// beyond floating-point noise or has a non-positive pivot.
    pub fn new(a: &Matrix) -> Result<Self> {
        crate::health::note_cholesky_attempt();
        let out = Self::factorize(a);
        if matches!(out, Err(LinalgError::NotPositiveDefinite)) {
            crate::health::note_cholesky_failure();
        }
        out
    }

    fn factorize(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let scale = a.max_abs().max(f64::MIN_POSITIVE);
        for i in 0..n {
            for j in (i + 1)..n {
                if (a[(i, j)] - a[(j, i)]).abs() > SYMMETRY_TOL * scale {
                    return Err(LinalgError::NotPositiveDefinite);
                }
            }
        }

        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Natural log of the determinant of `A` (numerically stable:
    /// `2·Σ ln Lᵢᵢ`).
    pub fn ln_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Solves `A·x = b` via forward/backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong
    /// length.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Forward substitution: L·y = b.
        let mut y = b.clone();
        for i in 0..n {
            for j in 0..i {
                let lij = self.l[(i, j)];
                y[i] -= lij * y[j];
            }
            y[i] /= self.l[(i, i)];
        }
        // Backward substitution: Lᵀ·x = y.
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                let lji = self.l[(j, i)];
                y[i] -= lji * y[j];
            }
            y[i] /= self.l[(i, i)];
        }
        Ok(y)
    }

    /// Computes the inverse of `A`.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut out = Matrix::zeros(n, n);
        for j in 0..n {
            let mut e = Vector::zeros(n);
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }

    /// Applies the factor to a vector: `L·z`.
    ///
    /// With `z` a standard-normal draw this produces a sample with
    /// covariance `A`, the key step of multivariate-normal sampling.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `z` has the wrong
    /// length.
    pub fn apply_factor(&self, z: &Vector) -> Result<Vector> {
        let n = self.dim();
        if z.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_apply_factor",
                lhs: (n, n),
                rhs: (z.len(), 1),
            });
        }
        Ok(&self.l * z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstructs_spd_matrix() {
        let a =
            Matrix::from_rows(&[&[6.0, 3.0, 4.0], &[3.0, 6.0, 5.0], &[4.0, 5.0, 10.0]]).unwrap();
        let c = a.cholesky().unwrap();
        let r = c.l() * &c.l().transpose();
        assert!((&r - &a).max_abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(a.cholesky().unwrap_err(), LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[0.0, 1.0]]).unwrap();
        assert_eq!(a.cholesky().unwrap_err(), LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(matches!(
            Matrix::zeros(2, 3).cholesky(),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Matrix::zeros(0, 0).cholesky(),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn solve_matches_lu() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0]);
        let x_chol = a.cholesky().unwrap().solve(&b).unwrap();
        let x_lu = a.lu().unwrap().solve(&b).unwrap();
        assert!((&x_chol - &x_lu).norm() < 1e-12);
    }

    #[test]
    fn inverse_matches_lu() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let inv_chol = a.cholesky().unwrap().inverse().unwrap();
        let inv_lu = a.inverse().unwrap();
        assert!((&inv_chol - &inv_lu).max_abs() < 1e-12);
    }

    #[test]
    fn ln_determinant_matches_lu_det() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let lnd = a.cholesky().unwrap().ln_determinant();
        let det = a.determinant().unwrap();
        assert!((lnd - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn apply_factor_shapes_noise() {
        let a = Matrix::from_diagonal(&[4.0, 9.0]);
        let c = a.cholesky().unwrap();
        let z = Vector::from_slice(&[1.0, 1.0]);
        let s = c.apply_factor(&z).unwrap();
        assert_eq!(s.as_slice(), &[2.0, 3.0]);
        assert!(c.apply_factor(&Vector::zeros(3)).is_err());
    }
}
