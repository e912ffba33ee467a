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
//!
//! A covariance whose range is known in advance — the innovation
//! covariance of Algorithm 2, whose range is the null space of the
//! input-estimate gain — has a second, direct route:
//! [`Matrix::projected_pseudo_inverse`] projects it onto an orthonormal
//! basis of that range and factorizes the projected block with one
//! Cholesky. [`Matrix::floored_pseudo_inverse`] is the Jacobi route it
//! falls back to.

use crate::cholesky::factor_lower;
use crate::{Cholesky, LinalgError, Matrix, Result, Vector};

/// Relative eigenvalue threshold below which the spectrum is treated as
/// zero when computing rank, pseudo-inverse and pseudo-determinant.
pub const RANK_TOL: f64 = 1e-10;

/// A symmetric covariance `P`'s pseudo-inverse together with what a
/// degenerate-Gaussian density needs from it: the rank, the square root
/// of the pseudo-determinant, and one vector's normalized statistic
/// `νᵀ·P⁺·ν`.
#[derive(Debug, Clone, PartialEq)]
pub struct PseudoInverse {
    /// The pseudo-inverse `P⁺`.
    pub matrix: Matrix,
    /// The number of eigenvalues above the cutoff.
    pub rank: usize,
    /// `√|P|₊`, the square root of the product of those eigenvalues.
    pub sqrt_pseudo_determinant: f64,
    /// `νᵀ·P⁺·ν`.
    pub statistic: f64,
}

impl Matrix {
    /// The pseudo-inverse of a **symmetric** `m × m` covariance `P`
    /// whose range is the null space of a full-row-rank `q × m`
    /// `constraint` `M` (all of `ℝᵐ` when `constraint` is `None`), by
    /// projection instead of an eigendecomposition.
    ///
    /// A Householder QR of `Mᵀ` gives an orthonormal `Q = [Q₁ | U]`
    /// whose last `r = m − q` columns `U` span `null(M)`. One Cholesky
    /// `UᵀPU = L·Lᵀ` then gives `P⁺ = V·Vᵀ` with `V = U·L⁻ᵀ`, the rank
    /// `r`, `√|P|₊ = Π Lⱼⱼ` and `νᵀP⁺ν = ‖L⁻¹Uᵀν‖²`.
    ///
    /// Returns `None` — `P` belongs to [`Matrix::floored_pseudo_inverse`]
    /// — unless the projection is exact to the rank cutoff
    /// `c = floor.max(RANK_TOL · max diag(UᵀPU))`: every entry of the
    /// block finite, every pivot `Lⱼⱼ²` above `c`, and every discarded
    /// direction's Rayleigh quotient `|q₁ᵀPq₁|` at most `c`. A rejected
    /// `P` is tallied in
    /// [`crate::health::HealthSnapshot::projection_fallbacks`]; an
    /// accepted one touches no counter.
    ///
    /// This is the scalar reference of
    /// [`crate::ProjectedSlabWorkspace`], which matches it bit for bit
    /// per lane: the reflectors in row order, `T = P·Q` as plain dot
    /// products, the block's lower triangle as `Uᵀ·T`, the factor in
    /// [`Cholesky::new`]'s loop order, then the forward substitutions.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] or [`LinalgError::DimensionMismatch`]
    /// on shape errors (a constraint with more rows than `P`, or columns
    /// other than `m`; `ν` not of length `m`).
    ///
    /// ```
    /// use roboads_linalg::{Matrix, Vector};
    ///
    /// # fn main() -> Result<(), roboads_linalg::LinalgError> {
    /// // P = diag(0, 4): range is null([1, 0]).
    /// let p = Matrix::from_diagonal(&[0.0, 4.0]);
    /// let m = Matrix::from_rows(&[&[1.0, 0.0]])?;
    /// let nu = Vector::from_slice(&[3.0, 2.0]);
    /// let pinv = p.projected_pseudo_inverse(Some(&m), &nu, 1e-12)?.unwrap();
    /// assert_eq!(pinv.rank, 1);
    /// assert!((pinv.sqrt_pseudo_determinant - 2.0).abs() < 1e-12);
    /// assert!((pinv.statistic - 1.0).abs() < 1e-12);
    /// assert!((pinv.matrix[(1, 1)] - 0.25).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn projected_pseudo_inverse(
        &self,
        constraint: Option<&Matrix>,
        nu: &Vector,
        floor: f64,
    ) -> Result<Option<PseudoInverse>> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        let m = self.rows();
        if nu.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "projected_pseudo_inverse",
                lhs: self.shape(),
                rhs: (nu.len(), 1),
            });
        }
        if let Some(c) = constraint {
            if c.cols() != m || c.rows() > m {
                return Err(LinalgError::DimensionMismatch {
                    op: "projected_pseudo_inverse",
                    lhs: self.shape(),
                    rhs: c.shape(),
                });
            }
        }
        let q = constraint.map_or(0, Matrix::rows);
        let r = m - q;
        let basis = householder_basis(constraint, m);
        // T = P·Q.
        let mut t = Matrix::zeros(m, m);
        for i in 0..m {
            for k in 0..m {
                let mut acc = 0.0;
                for j in 0..m {
                    acc += self[(i, j)] * basis[(j, k)];
                }
                t[(i, k)] = acc;
            }
        }
        // The block UᵀPU (lower triangle) and its largest diagonal entry.
        let mut block = Matrix::zeros(r, r);
        let mut finite = true;
        for a in 0..r {
            for b in 0..=a {
                let mut acc = 0.0;
                for i in 0..m {
                    acc += basis[(i, q + a)] * t[(i, q + b)];
                }
                finite &= acc.is_finite();
                block[(a, b)] = acc;
            }
        }
        let max_diag = (0..r).fold(0.0f64, |mx, a| mx.max(block[(a, a)]));
        let cutoff = floor.max(RANK_TOL * max_diag);
        let mut exact = finite;
        for c in 0..q {
            let mut rayleigh = 0.0;
            for i in 0..m {
                rayleigh += basis[(i, c)] * t[(i, c)];
            }
            exact &= rayleigh.abs() <= cutoff;
        }
        let mut l = Matrix::zeros(r, r);
        if !(exact && factor_lower(&block, &mut l, |pivot| pivot > cutoff)) {
            crate::health::note_projection_fallbacks(1);
            return Ok(None);
        }
        // ‖L⁻¹Uᵀν‖².
        let mut y = Vector::zeros(r);
        for a in 0..r {
            let mut acc = 0.0;
            for i in 0..m {
                acc += basis[(i, q + a)] * nu[i];
            }
            for b in 0..a {
                acc -= l[(a, b)] * y[b];
            }
            y[a] = acc / l[(a, a)];
        }
        let statistic = y.as_slice().iter().fold(0.0, |s, &v| s + v * v);
        let sqrt_pseudo_determinant = (0..r).fold(1.0, |p, a| p * l[(a, a)]);
        // V = U·L⁻ᵀ, row by row, then P⁺ = V·Vᵀ (lower triangle, mirrored).
        let mut v = Matrix::zeros(m, r);
        for i in 0..m {
            for a in 0..r {
                let mut acc = basis[(i, q + a)];
                for b in 0..a {
                    acc -= l[(a, b)] * v[(i, b)];
                }
                v[(i, a)] = acc / l[(a, a)];
            }
        }
        let mut matrix = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..=i {
                let mut acc = 0.0;
                for a in 0..r {
                    acc += v[(i, a)] * v[(j, a)];
                }
                matrix[(i, j)] = acc;
                matrix[(j, i)] = acc;
            }
        }
        Ok(Some(PseudoInverse {
            matrix,
            rank: r,
            sqrt_pseudo_determinant,
            statistic,
        }))
    }

    /// The Jacobi route to a **symmetric** covariance's
    /// [`PseudoInverse`]: eigenvalues with magnitude at most
    /// `floor.max(RANK_TOL · |λ_max|)` are treated as zero, so the
    /// cutoff carries an absolute floor below which no eigenvalue counts
    /// (a purely relative cutoff would promote the rounding noise of a
    /// numerically zero matrix to signal). The statistic is
    /// `ν.quadratic_form(&P⁺)` and `√|P|₊` is `|Π λ|^{1/2}`.
    ///
    /// # Errors
    ///
    /// The eigendecomposition's error (shape errors, or
    /// [`LinalgError::NoConvergence`] for a non-finite `P`), or a length
    /// mismatch of `ν`.
    pub fn floored_pseudo_inverse(&self, nu: &Vector, floor: f64) -> Result<PseudoInverse> {
        let eig = self.symmetric_eigen()?;
        let cutoff = floor.max(RANK_TOL * eig.max_eigenvalue().abs());
        let matrix = eig.spectral_map(|l| if l.abs() > cutoff { 1.0 / l } else { 0.0 });
        let kept = || {
            eig.eigenvalues()
                .as_slice()
                .iter()
                .copied()
                .filter(|l| l.abs() > cutoff)
        };
        let statistic = nu.quadratic_form(&matrix)?;
        Ok(PseudoInverse {
            rank: kept().count(),
            sqrt_pseudo_determinant: kept().product::<f64>().abs().sqrt(),
            statistic,
            matrix,
        })
    }
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

/// The orthonormal `Q = H₀·H₁ ⋯ H_{q−1}` of a Householder QR of
/// `constraintᵀ` (the identity without a constraint): its first `q`
/// columns span the constraint's row space, the rest its null space.
///
/// Row `j` of a working copy of the constraint is column `j` of `Mᵀ`;
/// reflector `j` is stored over it as `v = x + sign(xⱼ)‖x‖·eⱼ` (entries
/// `j..m`), applied to the later rows, and accumulated into `Q` from
/// the right, `Q ← Q − τ(Q·v)vᵀ` with `τ = 2/vᵀv = 1/(‖x‖(‖x‖ + |xⱼ|))`.
/// A constraint without full row rank yields a zero `‖x‖` and a
/// non-finite `Q`, which the callers' acceptance tests reject.
fn householder_basis(constraint: Option<&Matrix>, m: usize) -> Matrix {
    let mut basis = Matrix::identity(m);
    let Some(constraint) = constraint else {
        return basis;
    };
    let mut w = constraint.clone();
    for j in 0..w.rows() {
        let xj = w[(j, j)];
        let mut norm_sq = xj * xj;
        for k in (j + 1)..m {
            norm_sq += w[(j, k)] * w[(j, k)];
        }
        let norm = norm_sq.sqrt();
        let tau = 1.0 / (norm * (norm + xj.abs()));
        w[(j, j)] = xj + norm.copysign(xj);
        for i in (j + 1)..w.rows() {
            let mut s = 0.0;
            for k in j..m {
                s += w[(j, k)] * w[(i, k)];
            }
            let s = s * tau;
            for k in j..m {
                w[(i, k)] -= s * w[(j, k)];
            }
        }
        for i in 0..m {
            let mut s = 0.0;
            for k in j..m {
                s += basis[(i, k)] * w[(j, k)];
            }
            let s = s * tau;
            for k in j..m {
                basis[(i, k)] -= s * w[(j, k)];
            }
        }
    }
    basis
}

/// Rank cutoff for a spectrum: one implementation shared by the
/// pseudo-inverse, pseudo-determinant and rank, so all three treat
/// exactly the same eigenvalues as zero.
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
