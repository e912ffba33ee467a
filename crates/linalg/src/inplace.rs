//! The scalar in-place operations that production code outside the
//! slab kernels still needs: buffer fills and copies, the matrix–vector
//! product and elementwise `+=`/`-=`.
//!
//! Every method here writes into caller-owned storage instead of
//! returning a fresh `Matrix`/`Vector`, and each is **bitwise
//! identical** to its allocating counterpart (same loop structure, same
//! accumulation order); the tests below pin that with `to_bits`
//! comparisons. The NUISE step and the χ² decision tail's
//! pseudo-inverses run on the lane-batched kernels in [`crate::slab`],
//! which are pinned directly against the allocating path.
//!
//! Shape mismatches panic, matching the operator-overload contract in
//! [`crate::Matrix`] arithmetic: all shapes come from a validated system
//! description, so a mismatch is a programming error.

use std::ops::{AddAssign, SubAssign};

use crate::{Matrix, Vector};

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

#[cfg(test)]
mod tests {
    use super::*;

    fn a22() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.5], &[-3.0, 4.0]]).unwrap()
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
}
