use crate::{LinalgError, Matrix, Result, Vector};

/// Eigendecomposition `A = V·Λ·Vᵀ` of a symmetric matrix, computed by the
/// cyclic Jacobi rotation method.
///
/// The Jacobi method is slow for large matrices but extremely robust and
/// accurate for the small (≤ ~20×20) symmetric covariance matrices the
/// RoboADS estimator works with — and it yields the spectral data the
/// mode-likelihood computation needs: [`Matrix::pseudo_inverse`],
/// [`Matrix::pseudo_determinant`] and [`Matrix::rank`] are all derived
/// from this type.
///
/// # Example
///
/// ```
/// use roboads_linalg::Matrix;
///
/// # fn main() -> Result<(), roboads_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = a.symmetric_eigen()?;
/// let mut evals = eig.eigenvalues().as_slice().to_vec();
/// evals.sort_by(|a, b| a.partial_cmp(b).unwrap());
/// assert!((evals[0] - 1.0).abs() < 1e-12);
/// assert!((evals[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vector,
    /// Columns are the eigenvectors, in the same order as `eigenvalues`.
    eigenvectors: Matrix,
}

/// Maximum number of full Jacobi sweeps before reporting
/// [`LinalgError::NoConvergence`].
pub const JACOBI_MAX_SWEEPS: usize = 64;

/// Off-diagonal magnitude (relative to the Frobenius norm) considered
/// zero.
const CONVERGENCE_TOL: f64 = 1e-14;

impl SymmetricEigen {
    /// Decomposes a symmetric matrix.
    ///
    /// The strictly-lower triangle is ignored; the matrix is treated as
    /// symmetric using its upper triangle, which makes the decomposition
    /// robust to the tiny asymmetries covariance propagation produces.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::Empty`] for an empty matrix, and
    /// [`LinalgError::NoConvergence`] for a non-finite entry in the
    /// upper triangle or if the rotations fail to converge (practically
    /// unreachable for finite input).
    pub fn new(m: &Matrix) -> Result<Self> {
        if !m.is_square() {
            return Err(LinalgError::NotSquare { shape: m.shape() });
        }
        let n = m.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        // Work on the symmetrized copy.
        let mut a = Matrix::from_fn(n, n, |i, j| if i <= j { m[(i, j)] } else { m[(j, i)] });
        // A non-finite matrix has no eigendecomposition, but the sweep
        // test below cannot always tell: the Frobenius norm's `max`
        // drops a NaN, a 1 × 1 has nothing to rotate, a 2 × 2's one
        // rotation clears its pair to an exact zero, and an infinite
        // norm accepts any off-diagonal mass. Every size reports the
        // error a NaN reaches at its sweep cap from n = 3.
        if !a.is_finite() {
            return Err(LinalgError::NoConvergence {
                sweeps: JACOBI_MAX_SWEEPS,
            });
        }
        let mut v = Matrix::identity(n);
        let norm = a.frobenius_norm().max(f64::MIN_POSITIVE);

        for _sweep in 0..JACOBI_MAX_SWEEPS {
            let mut off = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    off += a[(i, j)] * a[(i, j)];
                }
            }
            if off.sqrt() <= CONVERGENCE_TOL * norm {
                return Ok(SymmetricEigen {
                    eigenvalues: a.diagonal(),
                    eigenvectors: v,
                });
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[(p, q)];
                    if apq.abs() <= f64::MIN_POSITIVE {
                        continue;
                    }
                    let app = a[(p, p)];
                    let aqq = a[(q, q)];
                    let theta = (aqq - app) / (2.0 * apq);
                    // Stable tangent of the rotation angle.
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;

                    for k in 0..n {
                        let akp = a[(k, p)];
                        let akq = a[(k, q)];
                        a[(k, p)] = c * akp - s * akq;
                        a[(k, q)] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[(p, k)];
                        let aqk = a[(q, k)];
                        a[(p, k)] = c * apk - s * aqk;
                        a[(q, k)] = s * apk + c * aqk;
                    }
                    // Clean the rotated-out entry exactly.
                    a[(p, q)] = 0.0;
                    a[(q, p)] = 0.0;
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }
        Err(LinalgError::NoConvergence {
            sweeps: JACOBI_MAX_SWEEPS,
        })
    }

    /// The eigenvalues (unsorted, matching eigenvector columns).
    pub fn eigenvalues(&self) -> &Vector {
        &self.eigenvalues
    }

    /// The eigenvector matrix; column `i` pairs with `eigenvalues()[i]`.
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Reconstructs `V·f(Λ)·Vᵀ`, applying `f` to each eigenvalue.
    ///
    /// This is the spectral-function primitive behind the pseudo-inverse
    /// (`f = λ ↦ 1/λ` on the significant spectrum) and matrix square
    /// roots.
    pub fn spectral_map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let n = self.dim();
        let v = &self.eigenvectors;
        let mut out = Matrix::zeros(n, n);
        for k in 0..n {
            let fl = f(self.eigenvalues[k]);
            if fl == 0.0 {
                continue;
            }
            for i in 0..n {
                for j in 0..n {
                    out[(i, j)] += fl * v[(i, k)] * v[(j, k)];
                }
            }
        }
        out
    }

    /// Smallest eigenvalue.
    pub fn min_eigenvalue(&self) -> f64 {
        self.eigenvalues
            .as_slice()
            .iter()
            .fold(f64::INFINITY, |a, &b| a.min(b))
    }

    /// Largest eigenvalue.
    pub fn max_eigenvalue(&self) -> f64 {
        self.eigenvalues
            .as_slice()
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstruct(e: &SymmetricEigen) -> Matrix {
        e.spectral_map(|l| l)
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_diagonal(&[3.0, 1.0, 2.0]);
        let e = a.symmetric_eigen().unwrap();
        let mut evals = e.eigenvalues().as_slice().to_vec();
        evals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((evals[0] - 1.0).abs() < 1e-12);
        assert!((evals[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_input() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 5.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert!((&reconstruct(&e) - &a).max_abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a =
            Matrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        let v = e.eigenvectors();
        let vvt = v * &v.transpose();
        assert!((&vvt - &Matrix::identity(3)).max_abs() < 1e-12);
    }

    #[test]
    fn eigen_equation_holds() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        for k in 0..2 {
            let v = e.eigenvectors().column(k);
            let av = &a * &v;
            let lv = &v * e.eigenvalues()[k];
            assert!((&av - &lv).norm() < 1e-12);
        }
    }

    #[test]
    fn handles_indefinite_matrices() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert!((e.min_eigenvalue() + 1.0).abs() < 1e-12);
        assert!((e.max_eigenvalue() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uses_upper_triangle_for_asymmetric_noise() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0 + 1e-12, 2.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert!((e.max_eigenvalue() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn one_by_one_matrix() {
        let a = Matrix::from_rows(&[&[7.0]]).unwrap();
        let e = a.symmetric_eigen().unwrap();
        assert_eq!(e.eigenvalues().as_slice(), &[7.0]);
        assert_eq!(e.eigenvectors()[(0, 0)], 1.0);
    }

    #[test]
    fn spectral_map_square_root() {
        let a = Matrix::from_diagonal(&[4.0, 9.0]);
        let e = a.symmetric_eigen().unwrap();
        let sqrt = e.spectral_map(f64::sqrt);
        assert!((&(&sqrt * &sqrt) - &a).max_abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            Matrix::zeros(2, 3).symmetric_eigen(),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            Matrix::zeros(0, 0).symmetric_eigen(),
            Err(LinalgError::Empty)
        ));
    }
}
