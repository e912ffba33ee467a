//! Pseudo-inverse, pseudo-determinant and rank for symmetric matrices.
//!
//! Algorithm 2 of the RoboADS paper computes the mode likelihood
//!
//! ```text
//! N_k = exp(−ν̃ᵀ (P̃_{k|k−1})† ν̃ / 2) / ((2π)^{n/2} |P̃_{k|k−1}|₊^{1/2})
//! ```
//!
//! where `†` is the Moore–Penrose pseudo-inverse, `|·|₊` the
//! pseudo-determinant (product of nonzero eigenvalues) and `n` the rank of
//! the innovation covariance. These operations live here as inherent
//! methods on [`Matrix`], implemented through the Jacobi
//! eigendecomposition, and are restricted to symmetric input (covariance
//! matrices), which is all the estimator needs.

use crate::{Cholesky, Matrix, Result, Vector};

/// Relative eigenvalue threshold below which the spectrum is treated as
/// zero when computing rank, pseudo-inverse and pseudo-determinant.
pub const RANK_TOL: f64 = 1e-10;

impl Matrix {
    /// Moore–Penrose pseudo-inverse of a **symmetric** matrix.
    ///
    /// Eigenvalues with magnitude below `RANK_TOL · λ_max` are treated as
    /// zero. For an invertible symmetric matrix this equals the ordinary
    /// inverse.
    ///
    /// # Errors
    ///
    /// Returns the underlying eigendecomposition error for non-square or
    /// empty input.
    ///
    /// ```
    /// use roboads_linalg::Matrix;
    ///
    /// # fn main() -> Result<(), roboads_linalg::LinalgError> {
    /// // Rank-1 projector: pinv equals the projector itself.
    /// let p = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]])?;
    /// let pinv = p.pseudo_inverse()?;
    /// assert!((&pinv - &p).max_abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn pseudo_inverse(&self) -> Result<Matrix> {
        let eig = self.symmetric_eigen()?;
        let cutoff = spectrum_cutoff(eig.eigenvalues().as_slice());
        Ok(eig.spectral_map(|l| if l.abs() > cutoff { 1.0 / l } else { 0.0 }))
    }

    /// The normalized quadratic form `dᵀA⁺d` of a **symmetric**
    /// covariance `A` — the χ² statistic of an anomaly estimate `d`.
    ///
    /// A full-rank `A` (finite, every Cholesky pivot above `RANK_TOL` ×
    /// its largest diagonal entry) is whitened instead of inverted:
    /// `‖L⁻¹d‖²` through [`Cholesky::whitened_norm_squared`], one
    /// factorization and one forward substitution. Any other `A` takes
    /// the pseudo-inverse, `d.quadratic_form(&A.pseudo_inverse())`. The
    /// two routes agree to rounding wherever both apply, except on
    /// accepted matrices with `λ_min/λ_max` below `RANK_TOL`, whose
    /// smallest eigenvalue the pseudo-inverse treats as zero and the
    /// whitening inverts.
    ///
    /// # Errors
    ///
    /// Shape errors from either route, or the eigendecomposition's
    /// error (a non-finite `A` cannot converge).
    ///
    /// ```
    /// use roboads_linalg::{Matrix, Vector};
    ///
    /// # fn main() -> Result<(), roboads_linalg::LinalgError> {
    /// let d = Vector::from_slice(&[0.2, 3.0]);
    /// let full = Matrix::from_diagonal(&[0.01, 0.04]);
    /// assert!((full.whitened_quadratic_form(&d)? - 229.0).abs() < 1e-9);
    /// // Singular: the zero direction drops out, as with the pinv.
    /// let singular = Matrix::from_diagonal(&[0.01, 0.0]);
    /// assert!((singular.whitened_quadratic_form(&d)? - 4.0).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn whitened_quadratic_form(&self, d: &Vector) -> Result<f64> {
        match Cholesky::whitened_norm_squared(self, d)? {
            Some(statistic) => Ok(statistic),
            None => d.quadratic_form(&self.pseudo_inverse()?),
        }
    }

    /// Pseudo-determinant of a **symmetric** matrix: the product of its
    /// significant (above the rank tolerance) eigenvalues.
    ///
    /// For a full-rank symmetric matrix this equals the determinant; for a
    /// singular one it is the product over the nonzero spectrum, as used in
    /// the degenerate-Gaussian likelihood of Algorithm 2.
    ///
    /// # Errors
    ///
    /// Returns the underlying eigendecomposition error for non-square or
    /// empty input.
    pub fn pseudo_determinant(&self) -> Result<f64> {
        let eig = self.symmetric_eigen()?;
        let cutoff = spectrum_cutoff(eig.eigenvalues().as_slice());
        let mut det = 1.0;
        for &l in eig.eigenvalues().as_slice() {
            if l.abs() > cutoff {
                det *= l;
            }
        }
        Ok(det)
    }

    /// Numerical rank of a **symmetric** matrix (eigenvalues above the
    /// rank tolerance).
    ///
    /// # Errors
    ///
    /// Returns the underlying eigendecomposition error for non-square or
    /// empty input.
    pub fn rank(&self) -> Result<usize> {
        let eig = self.symmetric_eigen()?;
        let cutoff = spectrum_cutoff(eig.eigenvalues().as_slice());
        Ok(eig
            .eigenvalues()
            .as_slice()
            .iter()
            .filter(|l| l.abs() > cutoff)
            .count())
    }

    /// Whether a **symmetric** matrix is positive semi-definite up to the
    /// given absolute tolerance on its smallest eigenvalue.
    ///
    /// # Errors
    ///
    /// Returns the underlying eigendecomposition error for non-square or
    /// empty input.
    pub fn is_positive_semi_definite(&self, tol: f64) -> Result<bool> {
        Ok(self.symmetric_eigen()?.min_eigenvalue() >= -tol)
    }
}

/// Rank cutoff for a spectrum: one implementation shared by the
/// pseudo-inverse, pseudo-determinant and rank, so all three treat
/// exactly the same eigenvalues as zero (the slab kernel's
/// `EigenSlabWorkspace::spectrum_cutoff` replays it per lane).
fn spectrum_cutoff(eigenvalues: &[f64]) -> f64 {
    let max_abs = eigenvalues.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    RANK_TOL * max_abs.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use crate::{Matrix, Vector};

    #[test]
    fn pinv_of_invertible_equals_inverse() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let pinv = a.pseudo_inverse().unwrap();
        let inv = a.inverse().unwrap();
        assert!((&pinv - &inv).max_abs() < 1e-10);
    }

    #[test]
    fn moore_penrose_identities_on_singular_matrix() {
        // Rank-2 symmetric 3x3.
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[0.0, 1.0]]).unwrap();
        let a = &b * &b.transpose();
        assert_eq!(a.rank().unwrap(), 2);
        let p = a.pseudo_inverse().unwrap();
        // A·A⁺·A = A and A⁺·A·A⁺ = A⁺.
        assert!((&(&(&a * &p) * &a) - &a).max_abs() < 1e-10);
        assert!((&(&(&p * &a) * &p) - &p).max_abs() < 1e-10);
        // A·A⁺ symmetric.
        let ap = &a * &p;
        assert!((&ap - &ap.transpose()).max_abs() < 1e-10);
    }

    #[test]
    fn pseudo_determinant_of_full_rank_matches_det() {
        let a = Matrix::from_rows(&[&[2.0, 0.3], &[0.3, 1.5]]).unwrap();
        let pd = a.pseudo_determinant().unwrap();
        let d = a.determinant().unwrap();
        assert!((pd - d).abs() < 1e-10);
    }

    #[test]
    fn pseudo_determinant_of_singular_is_nonzero_product() {
        let a = Matrix::from_diagonal(&[3.0, 0.0, 2.0]);
        assert!((a.pseudo_determinant().unwrap() - 6.0).abs() < 1e-12);
        assert_eq!(a.rank().unwrap(), 2);
    }

    #[test]
    fn zero_matrix_rank_and_pinv() {
        let z = Matrix::zeros(3, 3);
        assert_eq!(z.rank().unwrap(), 0);
        assert_eq!(z.pseudo_inverse().unwrap(), Matrix::zeros(3, 3));
        // Empty product convention: pdet of the zero matrix is 1.
        assert_eq!(z.pseudo_determinant().unwrap(), 1.0);
    }

    #[test]
    fn psd_check() {
        let spd = Matrix::from_diagonal(&[1.0, 2.0]);
        assert!(spd.is_positive_semi_definite(0.0).unwrap());
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(!indef.is_positive_semi_definite(1e-9).unwrap());
        let psd = Matrix::from_diagonal(&[1.0, 0.0]);
        assert!(psd.is_positive_semi_definite(1e-12).unwrap());
    }

    #[test]
    fn degenerate_gaussian_quadratic_form_is_finite() {
        // The likelihood computation evaluates νᵀ P† ν with singular P;
        // make sure the pinv path produces a finite, sensible value.
        let p = Matrix::from_diagonal(&[2.0, 0.0]);
        let nu = Vector::from_slice(&[2.0, 0.0]);
        let stat = nu.quadratic_form(&p.pseudo_inverse().unwrap()).unwrap();
        assert!((stat - 2.0).abs() < 1e-12);
    }
}
