use crate::{LinalgError, Matrix, Result, Vector};

/// LU decomposition with partial (row) pivoting: `P·A = L·U`.
///
/// Used for the general matrix inverses inside the NUISE gain computation
/// (`(R*)⁻¹`, `(FᵀR⁻¹F)⁻¹`, …), which are well-conditioned by construction
/// but not necessarily symmetric after floating-point propagation.
///
/// # Example
///
/// ```
/// use roboads_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), roboads_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?;
/// let lu = a.lu()?;
/// let x = lu.solve(&Vector::from_slice(&[2.0, 2.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (strictly lower, unit diagonal implied) and U (upper).
    factors: Matrix,
    /// Row permutation: `perm[i]` is the original row now at position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 or -1.0), for the determinant.
    perm_sign: f64,
    /// Whether a pivot fell below the singularity threshold.
    singular: bool,
}

/// Relative pivot threshold below which a matrix is declared singular;
/// the slab LU classifies each lane against this same constant.
pub(crate) const PIVOT_TOL: f64 = 1e-13;

impl Lu {
    /// Decomposes a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Empty`] for an empty matrix. A singular matrix is
    /// *not* an error at decomposition time; [`Lu::solve`] and
    /// [`Lu::inverse`] report [`LinalgError::Singular`], while
    /// [`Lu::determinant`] returns 0.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let scale = a.max_abs().max(1.0);
        let mut f = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;
        let mut singular = false;

        for k in 0..n {
            // Partial pivoting: bring the largest |entry| in column k to row k.
            let mut pivot_row = k;
            let mut pivot_val = f[(k, k)].abs();
            for i in (k + 1)..n {
                let v = f[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = f[(k, j)];
                    f[(k, j)] = f[(pivot_row, j)];
                    f[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            if pivot_val <= PIVOT_TOL * scale {
                singular = true;
                continue;
            }
            let pivot = f[(k, k)];
            for i in (k + 1)..n {
                let factor = f[(i, k)] / pivot;
                f[(i, k)] = factor;
                for j in (k + 1)..n {
                    f[(i, j)] -= factor * f[(k, j)];
                }
            }
        }

        Ok(Lu {
            factors: f,
            perm,
            perm_sign,
            singular,
        })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Whether the matrix was singular to working precision.
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Determinant of the decomposed matrix (0 if singular).
    pub fn determinant(&self) -> f64 {
        if self.singular {
            return 0.0;
        }
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.factors[(i, i)];
        }
        det
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the matrix was singular and
    /// [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        if self.singular {
            return Err(LinalgError::Singular);
        }
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation, then forward and backward substitution.
        let mut x = Vector::from_fn(n, |i| b[self.perm[i]]);
        for i in 1..n {
            for j in 0..i {
                let lij = self.factors[(i, j)];
                x[i] -= lij * x[j];
            }
        }
        for i in (0..n).rev() {
            for j in (i + 1)..n {
                let uij = self.factors[(i, j)];
                x[i] -= uij * x[j];
            }
            x[i] /= self.factors[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A·X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the matrix was singular and
    /// [`LinalgError::DimensionMismatch`] if `B` has the wrong row count.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = self.solve(&b.column(j))?;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }

    /// Computes the matrix inverse.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the matrix was singular.
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        assert!(
            (a - b).max_abs() < tol,
            "matrices differ by {}\n{a:?}\n{b:?}",
            (a - b).max_abs()
        );
    }

    #[test]
    fn solve_known_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from_slice(&[3.0, 5.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        // Solution: x = (4/5, 7/5)
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn inverse_round_trip() {
        let a =
            Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[3.0, 6.0, -4.0], &[2.0, 1.0, 8.0]]).unwrap();
        let inv = a.inverse().unwrap();
        assert_close(&(&a * &inv), &Matrix::identity(3), 1e-12);
        assert_close(&(&inv * &a), &Matrix::identity(3), 1e-12);
    }

    #[test]
    fn determinant_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((a.determinant().unwrap() + 2.0).abs() < 1e-12);
        assert!((Matrix::identity(5).determinant().unwrap() - 1.0).abs() < 1e-12);
        // Permutation matrix has determinant -1.
        let p = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        assert!((p.determinant().unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a
            .lu()
            .unwrap()
            .solve(&Vector::from_slice(&[2.0, 3.0]))
            .unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let lu = a.lu().unwrap();
        assert!(lu.is_singular());
        assert_eq!(lu.determinant(), 0.0);
        assert_eq!(
            lu.solve(&Vector::zeros(2)).unwrap_err(),
            LinalgError::Singular
        );
        assert_eq!(lu.inverse().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn solve_matrix_right_hand_sides() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[2.0, 4.0], &[4.0, 8.0]]).unwrap();
        let x = a.lu().unwrap().solve_matrix(&b).unwrap();
        assert_close(
            &x,
            &Matrix::from_rows(&[&[1.0, 2.0], &[1.0, 2.0]]).unwrap(),
            1e-12,
        );
    }

    #[test]
    fn dimension_mismatch_on_rhs() {
        let a = Matrix::identity(2);
        let lu = a.lu().unwrap();
        assert!(matches!(
            lu.solve(&Vector::zeros(3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn ill_scaled_system_still_solves() {
        // Entries spanning 12 orders of magnitude; partial pivoting keeps
        // the solve stable.
        let a = Matrix::from_rows(&[&[1e-9, 1.0], &[1.0, 1.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = &(&a * &x) - &b;
        assert!(r.norm() < 1e-9);
    }
}
