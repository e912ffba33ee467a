//! Operator overloads for [`Matrix`] and [`Vector`].
//!
//! All arithmetic operators are implemented for references (avoiding
//! clones in expression-heavy estimator code) and for owned values
//! (convenience). Shape mismatches panic with a descriptive message: the
//! estimator assembles all shapes from a validated system description, so
//! a mismatch indicates a programming error, matching the contract of
//! slice indexing.

use std::ops::{Add, Mul, Neg, Sub};

use crate::{Matrix, Vector};

fn assert_same_shape(op: &str, a: (usize, usize), b: (usize, usize)) {
    assert!(
        a == b,
        "{op} of matrices with shapes {}x{} and {}x{}",
        a.0,
        a.1,
        b.0,
        b.1
    );
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_same_shape("add", self.shape(), rhs.shape());
        Matrix::from_fn(self.rows(), self.cols(), |i, j| self[(i, j)] + rhs[(i, j)])
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_same_shape("sub", self.shape(), rhs.shape());
        Matrix::from_fn(self.rows(), self.cols(), |i, j| self[(i, j)] - rhs[(i, j)])
    }
}

impl Mul for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        assert!(
            self.cols() == rhs.rows(),
            "mul of matrices with shapes {}x{} and {}x{}",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        let mut out = Matrix::zeros(self.rows(), rhs.cols());
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
        out
    }
}

impl Mul<&Vector> for &Matrix {
    type Output = Vector;

    fn mul(self, rhs: &Vector) -> Vector {
        assert!(
            self.cols() == rhs.len(),
            "mul of {}x{} matrix with length-{} vector",
            self.rows(),
            self.cols(),
            rhs.len()
        );
        // Folds from +0.0 in index order, not `Iterator::sum` (which
        // starts from -0.0): the in-place kernels accumulate this way,
        // and the two must agree on the sign of an exact-zero row.
        Vector::from_fn(self.rows(), |i| {
            (0..self.cols()).fold(0.0, |acc, j| acc + self[(i, j)] * rhs[j])
        })
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.map(|v| v * rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.map(|v| -v)
    }
}

impl Add for &Vector {
    type Output = Vector;

    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(
            self.len(),
            rhs.len(),
            "add of vectors with lengths {} and {}",
            self.len(),
            rhs.len()
        );
        Vector::from_fn(self.len(), |i| self[i] + rhs[i])
    }
}

impl Sub for &Vector {
    type Output = Vector;

    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(
            self.len(),
            rhs.len(),
            "sub of vectors with lengths {} and {}",
            self.len(),
            rhs.len()
        );
        Vector::from_fn(self.len(), |i| self[i] - rhs[i])
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        self.map(|v| v * rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        self.map(|v| -v)
    }
}

// Owned-value forwarding impls. Generated by a macro to keep the set
// complete for mixed owned/borrowed expressions.
macro_rules! forward_binop {
    ($trait:ident, $method:ident, $lhs:ty, $rhs:ty, $out:ty) => {
        impl $trait<$rhs> for $lhs {
            type Output = $out;

            fn $method(self, rhs: $rhs) -> $out {
                $trait::$method(&self, &rhs)
            }
        }

        impl $trait<&$rhs> for $lhs {
            type Output = $out;

            fn $method(self, rhs: &$rhs) -> $out {
                $trait::$method(&self, rhs)
            }
        }

        impl $trait<$rhs> for &$lhs {
            type Output = $out;

            fn $method(self, rhs: $rhs) -> $out {
                $trait::$method(self, &rhs)
            }
        }
    };
}

forward_binop!(Add, add, Matrix, Matrix, Matrix);
forward_binop!(Sub, sub, Matrix, Matrix, Matrix);
forward_binop!(Mul, mul, Matrix, Matrix, Matrix);
forward_binop!(Mul, mul, Matrix, Vector, Vector);
forward_binop!(Add, add, Vector, Vector, Vector);
forward_binop!(Sub, sub, Vector, Vector, Vector);

impl Mul<f64> for Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        &self * rhs
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;

    fn mul(self, rhs: f64) -> Vector {
        &self * rhs
    }
}

impl Neg for Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        -&self
    }
}

impl Neg for Vector {
    type Output = Vector;

    fn neg(self) -> Vector {
        -&self
    }
}

#[cfg(test)]
mod tests {
    use crate::{Matrix, Vector};

    #[test]
    fn matrix_add_sub_neg() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::identity(2);
        assert_eq!((&a + &b)[(0, 0)], 2.0);
        assert_eq!((&a - &b)[(1, 1)], 3.0);
        assert_eq!((-&a)[(0, 1)], -2.0);
        // Owned forwarding.
        assert_eq!((a.clone() + b.clone())[(0, 0)], 2.0);
        assert_eq!((a - b)[(1, 1)], 3.0);
    }

    #[test]
    fn matrix_mul_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = &a * &b;
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(&a * &Matrix::identity(2), a);
        assert_eq!(&Matrix::identity(2) * &a, a);
    }

    #[test]
    fn matrix_vector_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let x = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!((&a * &x).as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn scalar_products() {
        let a = Matrix::identity(2) * 3.0;
        assert_eq!(a[(1, 1)], 3.0);
        let v = Vector::from_slice(&[1.0, -2.0]) * -2.0;
        assert_eq!(v.as_slice(), &[-2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "mul of matrices")]
    fn mul_shape_mismatch_panics() {
        let _ = &Matrix::zeros(2, 3) * &Matrix::zeros(2, 3);
    }

    #[test]
    fn vector_ops() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 6.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 2.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        assert_eq!((a + b).as_slice(), &[4.0, 6.0]);
    }
}
