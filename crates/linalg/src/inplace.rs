//! The scalar in-place operations that production code outside the
//! slab kernels still needs: buffer fills and copies, the matrix–vector
//! product, elementwise `+=`/`-=`, and [`EigenWorkspace`], the Jacobi
//! eigendecomposition behind [`Matrix::pseudo_inverse_into`] in the χ²
//! decision tail.
//!
//! Every method here writes into caller-owned storage instead of
//! returning a fresh `Matrix`/`Vector`, and each is **bitwise
//! identical** to its allocating counterpart (same loop structure, same
//! accumulation order); the tests below and `tests/jacobi_props.rs`
//! pin that with `to_bits` comparisons. The NUISE step itself runs on
//! the lane-batched kernels in [`crate::slab`], which are pinned
//! directly against the allocating path.
//!
//! Shape mismatches panic, matching the operator-overload contract in
//! [`crate::Matrix`] arithmetic: all shapes come from a validated system
//! description, so a mismatch is a programming error.

use std::ops::{AddAssign, SubAssign};

use crate::eigen::CONVERGENCE_TOL;
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
    fn mul_vec_into_matches_operator_bitwise() {
        fn check(a: &Matrix, v: &Vector) {
            let mut out = Vector::zeros(a.rows());
            a.mul_vec_into(v, &mut out);
            let expected = a * v;
            for (g, e) in out.as_slice().iter().zip(expected.as_slice()) {
                assert_eq!(g.to_bits(), e.to_bits(), "{a:?} · {v:?}: {g} vs {e}");
            }
        }
        check(&a22(), &Vector::from_slice(&[0.7, -0.2]));
        // An exact-zero row sum: both must fold from +0.0, so the sign
        // of the zero agrees.
        check(
            &Matrix::from_rows(&[&[-1.0, 2.0]]).unwrap(),
            &Vector::from_slice(&[0.0, -0.0]),
        );
        // No columns: every entry is the empty sum, +0.0.
        check(&Matrix::zeros(2, 0), &Vector::zeros(0));
    }

    #[test]
    fn copy_fill_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
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
