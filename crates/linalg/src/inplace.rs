//! Allocation-free variants of the operations the NUISE hot path uses.
//!
//! Every method here writes into caller-owned storage instead of
//! returning a fresh `Matrix`/`Vector`, so a pre-sized workspace makes a
//! full estimator step heap-allocation-free. Each in-place operation is
//! **bitwise identical** to its allocating counterpart (same loop
//! structure, same accumulation order): the engine's determinism
//! contract — parallel output equals sequential output equals the
//! pre-workspace seed output — depends on that, and the test suite pins
//! it with exact `==` comparisons against the allocating versions.
//!
//! Shape mismatches panic, matching the operator-overload contract in
//! [`crate::Matrix`] arithmetic: all shapes come from a validated system
//! description, so a mismatch is a programming error.

use std::ops::{AddAssign, SubAssign};

use crate::{LinalgError, Matrix, Result, Vector, JACOBI_MAX_SWEEPS};

fn assert_shape(op: &str, got: (usize, usize), want: (usize, usize)) {
    assert!(
        got == want,
        "{op}: destination shape {}x{} does not match required {}x{}",
        got.0,
        got.1,
        want.0,
        want.1
    );
}

impl Matrix {
    /// Sets every entry to `value`.
    pub fn fill(&mut self, value: f64) {
        for v in self.as_mut_slice() {
            *v = value;
        }
    }

    /// Overwrites `self` with `src` (same shape required).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_shape("copy_from", self.shape(), src.shape());
        self.as_mut_slice().copy_from_slice(src.as_slice());
    }

    /// Overwrites `self` with the identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square.
    pub fn set_identity(&mut self) {
        assert!(
            self.is_square(),
            "set_identity on {:?} matrix",
            self.shape()
        );
        let n = self.rows();
        self.fill(0.0);
        for i in 0..n {
            self[(i, i)] = 1.0;
        }
    }

    /// Writes `selfᵀ` into `out`. Equivalent to [`Matrix::transpose`].
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `cols × rows`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_shape("transpose_into", out.shape(), (self.cols(), self.rows()));
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                out[(j, i)] = self[(i, j)];
            }
        }
    }

    /// Writes `self · rhs` into `out`. Bitwise identical to the `Mul`
    /// operator (same i-k-j loop and zero-skip).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or destination-shape mismatch.
    pub fn mul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert!(
            self.cols() == rhs.rows(),
            "mul_into of matrices with shapes {}x{} and {}x{}",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        assert_shape("mul_into", out.shape(), (self.rows(), rhs.cols()));
        out.fill(0.0);
        for i in 0..self.rows() {
            for k in 0..self.cols() {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols() {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
    }

    /// Writes `self · rhsᵀ` into `out` without materializing the
    /// transpose. Bitwise identical to `self * &rhs.transpose()`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension or destination-shape mismatch.
    pub fn mul_transpose_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert!(
            self.cols() == rhs.cols(),
            "mul_transpose_into of matrices with shapes {}x{} and {}x{}ᵀ",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        assert_shape("mul_transpose_into", out.shape(), (self.rows(), rhs.rows()));
        out.fill(0.0);
        for i in 0..self.rows() {
            for k in 0..self.cols() {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.rows() {
                    out[(i, j)] += aik * rhs[(j, k)];
                }
            }
        }
    }

    /// Writes `self · v` into `out`. Bitwise identical to the
    /// matrix-vector `Mul` operator.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn mul_vec_into(&self, v: &Vector, out: &mut Vector) {
        assert!(
            self.cols() == v.len(),
            "mul_vec_into of {}x{} matrix with length-{} vector",
            self.rows(),
            self.cols(),
            v.len()
        );
        assert!(
            out.len() == self.rows(),
            "mul_vec_into: destination length {} does not match {} rows",
            out.len(),
            self.rows()
        );
        for i in 0..self.rows() {
            let mut acc = 0.0;
            for j in 0..self.cols() {
                acc += self[(i, j)] * v[j];
            }
            out[i] = acc;
        }
    }

    /// Replaces `self` with its symmetric part `(self + selfᵀ)/2`.
    /// Bitwise identical to [`Matrix::symmetrized`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input.
    pub fn symmetrize_in_place(&mut self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows();
        for i in 0..n {
            // (aᵢᵢ + aᵢᵢ)/2 is exactly aᵢᵢ in IEEE arithmetic, so only
            // the off-diagonal pairs need touching; addition is
            // commutative bitwise, so one averaged value serves both.
            for j in (i + 1)..n {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
        Ok(())
    }

    /// Negates every entry in place.
    pub fn negate(&mut self) {
        for v in self.as_mut_slice() {
            *v = -*v;
        }
    }

    /// Writes `self · p · selfᵀ` into `out`, using `scratch` for the
    /// intermediate `p · selfᵀ` product. Bitwise identical to
    /// [`Matrix::congruence`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `p` is not square
    /// with side `self.cols()`.
    ///
    /// # Panics
    ///
    /// Panics if `scratch` is not `cols × rows` or `out` is not
    /// `rows × rows`.
    pub fn congruence_into(
        &self,
        p: &Matrix,
        scratch: &mut Matrix,
        out: &mut Matrix,
    ) -> Result<()> {
        if p.rows() != self.cols() || p.cols() != self.cols() {
            return Err(LinalgError::DimensionMismatch {
                op: "congruence",
                lhs: self.shape(),
                rhs: p.shape(),
            });
        }
        p.mul_transpose_into(self, scratch);
        self.mul_into(scratch, out);
        Ok(())
    }
}

impl AddAssign<&Matrix> for Matrix {
    /// Elementwise `self += rhs`; bitwise identical to the `Add`
    /// operator.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_shape("add_assign", self.shape(), rhs.shape());
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    /// Elementwise `self -= rhs`; bitwise identical to the `Sub`
    /// operator.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_shape("sub_assign", self.shape(), rhs.shape());
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a -= b;
        }
    }
}

impl Vector {
    /// Sets every entry to `value`.
    pub fn fill(&mut self, value: f64) {
        for v in self.as_mut_slice() {
            *v = value;
        }
    }

    /// Overwrites `self` with `src` (same length required).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, src: &Vector) {
        assert_eq!(
            self.len(),
            src.len(),
            "copy_from of vectors with lengths {} and {}",
            self.len(),
            src.len()
        );
        self.as_mut_slice().copy_from_slice(src.as_slice());
    }

    /// Negates every entry in place.
    pub fn negate(&mut self) {
        for v in self.as_mut_slice() {
            *v = -*v;
        }
    }
}

impl AddAssign<&Vector> for Vector {
    /// Elementwise `self += rhs`; bitwise identical to the `Add`
    /// operator.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(
            self.len(),
            rhs.len(),
            "add_assign of vectors with lengths {} and {}",
            self.len(),
            rhs.len()
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    /// Elementwise `self -= rhs`; bitwise identical to the `Sub`
    /// operator.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(
            self.len(),
            rhs.len(),
            "sub_assign of vectors with lengths {} and {}",
            self.len(),
            rhs.len()
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a -= b;
        }
    }
}

/// Reusable LU factorization buffers: one allocation at construction,
/// then [`LuWorkspace::factorize`] / [`LuWorkspace::inverse_into`] run
/// allocation-free for the lifetime of the workspace.
///
/// Produces results bitwise identical to [`crate::Lu`] (same pivoting
/// and substitution loops).
#[derive(Debug, Clone)]
pub struct LuWorkspace {
    factors: Matrix,
    perm: Vec<usize>,
    perm_sign: f64,
    singular: bool,
    col: Vector,
}

/// Relative pivot threshold, kept equal to `Lu`'s for identical
/// singularity classification.
const PIVOT_TOL: f64 = 1e-13;

impl LuWorkspace {
    /// Allocates buffers for `n × n` factorizations.
    pub fn new(n: usize) -> Self {
        LuWorkspace {
            factors: Matrix::zeros(n, n),
            perm: vec![0; n],
            perm_sign: 1.0,
            singular: false,
            col: Vector::zeros(n),
        }
    }

    /// Workspace dimension.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Whether the last factorized matrix was singular to working
    /// precision.
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Factorizes `a` into the workspace buffers.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input,
    /// [`LinalgError::Empty`] for an empty workspace, and
    /// [`LinalgError::DimensionMismatch`] if `a` does not match the
    /// workspace dimension. Singularity is (as with [`crate::Lu`])
    /// reported by the solve/inverse calls, not here.
    pub fn factorize(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = self.dim();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if a.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_workspace_factorize",
                lhs: (n, n),
                rhs: a.shape(),
            });
        }
        let scale = a.max_abs().max(1.0);
        let f = &mut self.factors;
        f.copy_from(a);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = i;
        }
        self.perm_sign = 1.0;
        self.singular = false;

        for k in 0..n {
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
                self.perm.swap(k, pivot_row);
                self.perm_sign = -self.perm_sign;
            }
            if pivot_val <= PIVOT_TOL * scale {
                self.singular = true;
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
        Ok(())
    }

    /// Solves `A·x = b` into `out` using the last factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the factorized matrix was
    /// singular and [`LinalgError::DimensionMismatch`] on length
    /// mismatch.
    pub fn solve_into(&self, b: &Vector, out: &mut Vector) -> Result<()> {
        if self.singular {
            return Err(LinalgError::Singular);
        }
        let n = self.dim();
        if b.len() != n || out.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_workspace_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        for i in 0..n {
            out[i] = b[self.perm[i]];
        }
        self.substitute(out);
        Ok(())
    }

    /// Forward/backward substitution on an already-permuted right-hand
    /// side held in `x`.
    fn substitute(&self, x: &mut Vector) {
        let n = self.dim();
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
    }

    /// Writes the inverse of the last factorized matrix into `out`.
    /// Bitwise identical to [`crate::Lu::inverse`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the factorized matrix was
    /// singular and [`LinalgError::DimensionMismatch`] if `out` has the
    /// wrong shape.
    pub fn inverse_into(&mut self, out: &mut Matrix) -> Result<()> {
        if self.singular {
            return Err(LinalgError::Singular);
        }
        let n = self.dim();
        if out.shape() != (n, n) {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_workspace_inverse",
                lhs: (n, n),
                rhs: out.shape(),
            });
        }
        for j in 0..n {
            // Column j of A⁻¹ solves A·x = e_j; the permuted RHS of the
            // unit vector is 1 where perm[i] == j.
            for i in 0..n {
                self.col[i] = if self.perm[i] == j { 1.0 } else { 0.0 };
            }
            // Split the borrow: substitution reads factors, writes col.
            let (factors, col) = (&self.factors, &mut self.col);
            for i in 1..n {
                for jj in 0..i {
                    let lij = factors[(i, jj)];
                    col[i] -= lij * col[jj];
                }
            }
            for i in (0..n).rev() {
                for jj in (i + 1)..n {
                    let uij = factors[(i, jj)];
                    col[i] -= uij * col[jj];
                }
                col[i] /= factors[(i, i)];
            }
            for i in 0..n {
                out[(i, j)] = self.col[i];
            }
        }
        Ok(())
    }
}

/// Reusable Jacobi eigendecomposition buffers for symmetric matrices.
///
/// [`EigenWorkspace::factorize`] replays the exact rotation sequence of
/// [`crate::SymmetricEigen::new`], so eigenvalues, eigenvectors and
/// every [`EigenWorkspace::spectral_map_into`] result are bitwise
/// identical to the allocating path.
#[derive(Debug, Clone)]
pub struct EigenWorkspace {
    a: Matrix,
    v: Matrix,
    eigenvalues: Vector,
}

/// Convergence tolerance, kept equal to [`crate::SymmetricEigen`]'s (the
/// sweep cap is the shared [`JACOBI_MAX_SWEEPS`]).
const CONVERGENCE_TOL: f64 = 1e-14;

impl EigenWorkspace {
    /// Allocates buffers for `n × n` decompositions.
    pub fn new(n: usize) -> Self {
        EigenWorkspace {
            a: Matrix::zeros(n, n),
            v: Matrix::zeros(n, n),
            eigenvalues: Vector::zeros(n),
        }
    }

    /// Workspace dimension.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Decomposes `m` (upper triangle, as the allocating path does).
    ///
    /// Runs on the flat row-major storage rather than through the
    /// bounds-asserting `(i, j)` index, with the allocating path's
    /// rotation order and per-entry expressions unchanged, so the
    /// results stay bitwise identical to [`crate::SymmetricEigen::new`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`], [`LinalgError::Empty`],
    /// [`LinalgError::DimensionMismatch`] on a workspace-size mismatch,
    /// or [`LinalgError::NoConvergence`].
    pub fn factorize(&mut self, m: &Matrix) -> Result<()> {
        if !m.is_square() {
            return Err(LinalgError::NotSquare { shape: m.shape() });
        }
        let n = self.dim();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if m.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "eigen_workspace_factorize",
                lhs: (n, n),
                rhs: m.shape(),
            });
        }
        let src = m.as_slice();
        for (i, row) in self.a.as_mut_slice().chunks_exact_mut(n).enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = if i <= j {
                    src[i * n + j]
                } else {
                    src[j * n + i]
                };
            }
        }
        self.v.set_identity();
        let norm = self.a.frobenius_norm().max(f64::MIN_POSITIVE);
        let a = self.a.as_mut_slice();
        let v = self.v.as_mut_slice();

        for _sweep in 0..JACOBI_MAX_SWEEPS {
            let mut off = 0.0;
            for i in 0..n {
                for &aij in &a[i * n + i + 1..(i + 1) * n] {
                    off += aij * aij;
                }
            }
            if off.sqrt() <= CONVERGENCE_TOL * norm {
                for (i, ev) in self.eigenvalues.as_mut_slice().iter_mut().enumerate() {
                    *ev = a[i * n + i];
                }
                return Ok(());
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[p * n + q];
                    if apq.abs() <= f64::MIN_POSITIVE {
                        continue;
                    }
                    let app = a[p * n + p];
                    let aqq = a[q * n + q];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                    let c = 1.0 / (t * t + 1.0).sqrt();
                    let s = t * c;

                    // Columns p and q (every entry depends only on its
                    // own row, so the row-chunk walk is the k loop).
                    for row in a.chunks_exact_mut(n) {
                        let akp = row[p];
                        let akq = row[q];
                        row[p] = c * akp - s * akq;
                        row[q] = s * akp + c * akq;
                    }
                    // Rows p and q (p < q, so they split cleanly).
                    let (head, tail) = a.split_at_mut(q * n);
                    let row_p = &mut head[p * n..(p + 1) * n];
                    let row_q = &mut tail[..n];
                    for (xp, xq) in row_p.iter_mut().zip(row_q.iter_mut()) {
                        let apk = *xp;
                        let aqk = *xq;
                        *xp = c * apk - s * aqk;
                        *xq = s * apk + c * aqk;
                    }
                    a[p * n + q] = 0.0;
                    a[q * n + p] = 0.0;
                    for row in v.chunks_exact_mut(n) {
                        let vkp = row[p];
                        let vkq = row[q];
                        row[p] = c * vkp - s * vkq;
                        row[q] = s * vkp + c * vkq;
                    }
                }
            }
        }
        Err(LinalgError::NoConvergence {
            sweeps: JACOBI_MAX_SWEEPS,
        })
    }

    /// Eigenvalues of the last decomposition (unsorted, matching
    /// eigenvector columns).
    pub fn eigenvalues(&self) -> &Vector {
        &self.eigenvalues
    }

    /// Largest eigenvalue of the last decomposition.
    pub fn max_eigenvalue(&self) -> f64 {
        self.eigenvalues
            .as_slice()
            .iter()
            .fold(f64::NEG_INFINITY, |a, &b| a.max(b))
    }

    /// Writes `V·f(Λ)·Vᵀ` into `out`; bitwise identical to
    /// [`crate::SymmetricEigen::spectral_map`].
    ///
    /// # Panics
    ///
    /// Panics if `out` does not match the workspace dimension.
    pub fn spectral_map_into(&self, f: impl Fn(f64) -> f64, out: &mut Matrix) {
        let n = self.dim();
        assert_shape("spectral_map_into", out.shape(), (n, n));
        let v = self.v.as_slice();
        out.fill(0.0);
        let out = out.as_mut_slice();
        for (k, &lambda) in self.eigenvalues.as_slice().iter().enumerate() {
            let fl = f(lambda);
            if fl == 0.0 {
                continue;
            }
            // `fl * v[i][k] * v[j][k]` associates left, so hoisting
            // `fl * v[i][k]` out of the j loop keeps every product exact.
            for (out_row, v_row) in out.chunks_exact_mut(n).zip(v.chunks_exact(n)) {
                let fl_vik = fl * v_row[k];
                for (o, v_j) in out_row.iter_mut().zip(v.chunks_exact(n)) {
                    *o += fl_vik * v_j[k];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a22() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.5], &[-3.0, 4.0]]).unwrap()
    }

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[6.0, 3.0, 4.0], &[3.0, 6.0, 5.0], &[4.0, 5.0, 10.0]]).unwrap()
    }

    #[test]
    fn mul_into_matches_operator_bitwise() {
        let a = a22();
        let b = Matrix::from_rows(&[&[0.3, -1.0], &[7.0, 0.0]]).unwrap();
        let mut out = Matrix::zeros(2, 2);
        a.mul_into(&b, &mut out);
        assert_eq!(out, &a * &b);
    }

    #[test]
    fn mul_transpose_into_matches_materialized_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[0.1, 0.2, 0.3], &[-0.4, 0.5, 0.6]]).unwrap();
        let mut out = Matrix::zeros(2, 2);
        a.mul_transpose_into(&b, &mut out);
        assert_eq!(out, &a * &b.transpose());
    }

    #[test]
    fn mul_vec_into_matches_operator_bitwise() {
        let a = a22();
        let v = Vector::from_slice(&[0.7, -0.2]);
        let mut out = Vector::zeros(2);
        a.mul_vec_into(&v, &mut out);
        assert_eq!(out, &a * &v);
    }

    #[test]
    fn transpose_copy_fill_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let mut t = Matrix::zeros(3, 2);
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());

        let mut c = Matrix::zeros(2, 3);
        c.copy_from(&a);
        assert_eq!(c, a);

        let mut i = Matrix::zeros(3, 3);
        i.set_identity();
        assert_eq!(i, Matrix::identity(3));

        c.fill(7.0);
        assert_eq!(c[(1, 2)], 7.0);
    }

    #[test]
    fn add_sub_assign_match_operators_bitwise() {
        let a = a22();
        let b = Matrix::from_rows(&[&[0.1, 0.2], &[0.3, 0.4]]).unwrap();
        let mut m = a.clone();
        m += &b;
        assert_eq!(m, &a + &b);
        m -= &b;
        m -= &b;
        assert_eq!(m, &(&(&a + &b) - &b) - &b);

        let x = Vector::from_slice(&[1.0, -2.0]);
        let y = Vector::from_slice(&[0.5, 0.25]);
        let mut v = x.clone();
        v += &y;
        assert_eq!(v, &x + &y);
        v -= &y;
        v -= &y;
        assert_eq!(v, &(&(&x + &y) - &y) - &y);
    }

    #[test]
    fn symmetrize_in_place_matches_symmetrized_bitwise() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 0.31], &[4.0, 3.0, -0.77], &[0.13, 0.99, 5.5]])
            .unwrap();
        let expected = m.symmetrized().unwrap();
        let mut s = m.clone();
        s.symmetrize_in_place().unwrap();
        assert_eq!(s, expected);
        assert!(Matrix::zeros(2, 3).symmetrize_in_place().is_err());
    }

    #[test]
    fn negate_matches_neg() {
        let a = a22();
        let mut m = a.clone();
        m.negate();
        assert_eq!(m, -&a);
        let x = Vector::from_slice(&[1.0, -0.5]);
        let mut v = x.clone();
        v.negate();
        assert_eq!(v, -&x);
    }

    #[test]
    fn congruence_into_matches_congruence_bitwise() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -0.3]]).unwrap();
        let p = spd3();
        let mut scratch = Matrix::zeros(3, 2);
        let mut out = Matrix::zeros(2, 2);
        a.congruence_into(&p, &mut scratch, &mut out).unwrap();
        assert_eq!(out, a.congruence(&p).unwrap());
        assert!(a
            .congruence_into(&Matrix::zeros(4, 4), &mut scratch, &mut out)
            .is_err());
    }

    #[test]
    fn lu_workspace_matches_lu_bitwise() {
        let a =
            Matrix::from_rows(&[&[4.0, -2.0, 1.0], &[3.0, 6.0, -4.0], &[2.0, 1.0, 8.0]]).unwrap();
        let mut ws = LuWorkspace::new(3);
        ws.factorize(&a).unwrap();
        assert!(!ws.is_singular());
        let mut inv = Matrix::zeros(3, 3);
        ws.inverse_into(&mut inv).unwrap();
        assert_eq!(inv, a.inverse().unwrap());

        let b = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let mut x = Vector::zeros(3);
        ws.solve_into(&b, &mut x).unwrap();
        assert_eq!(x, a.lu().unwrap().solve(&b).unwrap());

        // Reuse on a second matrix, including a pivoting path.
        let p = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]).unwrap();
        ws.factorize(&p).unwrap();
        ws.inverse_into(&mut inv).unwrap();
        assert_eq!(inv, p.inverse().unwrap());
    }

    #[test]
    fn lu_workspace_reports_singularity_like_lu() {
        let s = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        let mut ws = LuWorkspace::new(2);
        ws.factorize(&s).unwrap();
        assert!(ws.is_singular());
        let mut out = Matrix::zeros(2, 2);
        assert_eq!(
            ws.inverse_into(&mut out).unwrap_err(),
            LinalgError::Singular
        );
        let mut x = Vector::zeros(2);
        assert_eq!(
            ws.solve_into(&Vector::zeros(2), &mut x).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn lu_workspace_shape_checks() {
        let mut ws = LuWorkspace::new(2);
        assert!(matches!(
            ws.factorize(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            ws.factorize(&Matrix::identity(3)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn eigen_workspace_matches_symmetric_eigen_bitwise() {
        let a = spd3();
        let mut ws = EigenWorkspace::new(3);
        ws.factorize(&a).unwrap();
        let reference = a.symmetric_eigen().unwrap();
        assert_eq!(ws.eigenvalues(), reference.eigenvalues());
        assert_eq!(ws.max_eigenvalue(), reference.max_eigenvalue());

        let mut mapped = Matrix::zeros(3, 3);
        ws.spectral_map_into(|l| if l > 1.0 { 1.0 / l } else { 0.0 }, &mut mapped);
        assert_eq!(
            mapped,
            reference.spectral_map(|l| if l > 1.0 { 1.0 / l } else { 0.0 })
        );

        // Reuse for a second decomposition.
        let b = Matrix::from_diagonal(&[4.0, 9.0, 16.0]);
        ws.factorize(&b).unwrap();
        let reference = b.symmetric_eigen().unwrap();
        assert_eq!(ws.eigenvalues(), reference.eigenvalues());
    }

    #[test]
    fn eigen_workspace_shape_checks() {
        let mut ws = EigenWorkspace::new(2);
        assert!(matches!(
            ws.factorize(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            ws.factorize(&Matrix::identity(4)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
