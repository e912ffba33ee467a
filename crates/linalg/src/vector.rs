use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{LinalgError, Matrix, Result};

/// A dense column vector of `f64` values.
///
/// Robot states, sensor readings, control commands and anomaly vectors are
/// all `Vector` values in this reproduction.
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
///
/// let v = Vector::from_slice(&[3.0, 4.0]);
/// assert_eq!(v.norm(), 5.0);
/// assert_eq!(v.dot(&v), 25.0);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `n`.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// Creates a vector by evaluating `f(i)` for each index.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> f64) -> Self {
        Vector {
            data: (0..n).map(f).collect(),
        }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has no components.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the components as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the components as a slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Extracts the underlying `Vec<f64>`.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Dot product with another vector.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ; the anomaly-vector math in the
    /// estimator guarantees matched lengths, so a mismatch is a bug.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.len(),
            other.len(),
            "dot of vectors with lengths {} and {}",
            self.len(),
            other.len()
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Largest absolute component, or 0 for an empty vector.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Applies `f` to every component, producing a new vector.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Vector {
        Vector {
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Returns the sub-vector `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if the requested segment extends past the end.
    pub fn segment(&self, start: usize, len: usize) -> Vector {
        assert!(
            start + len <= self.len(),
            "segment {start}+{len} out of bounds for length {}",
            self.len()
        );
        Vector::from_slice(&self.data[start..start + len])
    }

    /// Writes the sub-vector starting at `start` into `out`; the
    /// segment length is `out.len()`. Bitwise identical to
    /// [`Vector::segment`] without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the requested segment extends past the end.
    pub fn segment_into(&self, start: usize, out: &mut Vector) {
        let len = out.len();
        assert!(
            start + len <= self.len(),
            "segment {start}+{len} out of bounds for length {}",
            self.len()
        );
        out.data.copy_from_slice(&self.data[start..start + len]);
    }

    /// Overwrites `self` with `src`, resizing as needed. Unlike
    /// [`Vector::copy_from`] the lengths may differ; existing capacity
    /// is reused, so repeated assignment between same-or-smaller
    /// vectors performs no heap allocation after warm-up.
    pub fn assign(&mut self, src: &Vector) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// [`Vector::assign`] from any value source: overwrites `self` with
    /// the values `src` yields, pulling each once and reusing existing
    /// capacity.
    pub fn assign_iter(&mut self, src: impl IntoIterator<Item = f64>) {
        self.data.clear();
        self.data.extend(src);
    }

    /// Concatenates `self` with `other`.
    pub fn concat(&self, other: &Vector) -> Vector {
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Vector { data }
    }

    /// Concatenates a sequence of vectors.
    pub fn concat_all<'a>(parts: impl IntoIterator<Item = &'a Vector>) -> Vector {
        let mut data = Vec::new();
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Vector { data }
    }

    /// Whether all components are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Interprets the vector as an `n × 1` column matrix.
    pub fn to_column_matrix(&self) -> Matrix {
        Matrix::from_vec(self.len(), 1, self.data.clone())
            .expect("length n data always forms an n x 1 matrix")
    }

    /// Computes the quadratic form `selfᵀ · m · self`.
    ///
    /// This is the χ² test statistic `dᵀ P⁻¹ d` shape used throughout the
    /// decision maker (with `m` an inverse covariance).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `m` is not square with
    /// side `self.len()`.
    pub fn quadratic_form(&self, m: &Matrix) -> Result<f64> {
        if m.rows() != self.len() || m.cols() != self.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "quadratic_form",
                lhs: (self.len(), 1),
                rhs: m.shape(),
            });
        }
        let mut acc = 0.0;
        for i in 0..self.len() {
            for j in 0..self.len() {
                acc += self.data[i] * m[(i, j)] * self.data[j];
            }
        }
        Ok(acc)
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Index<usize> for Vector {
    type Output = f64;

    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vector[")?;
        for (i, v) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.6}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = Vector::from_fn(3, |i| i as f64);
        assert_eq!(v.len(), 3);
        assert_eq!(v[2], 2.0);
        assert!(!v.is_empty());
        assert!(Vector::zeros(0).is_empty());
    }

    #[test]
    fn dot_and_norm() {
        let a = Vector::from_slice(&[1.0, 2.0, 2.0]);
        assert_eq!(a.norm(), 3.0);
        let b = Vector::from_slice(&[2.0, 0.0, 1.0]);
        assert_eq!(a.dot(&b), 4.0);
    }

    #[test]
    #[should_panic(expected = "dot of vectors")]
    fn dot_length_mismatch_panics() {
        Vector::zeros(2).dot(&Vector::zeros(3));
    }

    #[test]
    fn segment_into_and_assign_match_allocating() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut seg = Vector::zeros(2);
        v.segment_into(1, &mut seg);
        assert_eq!(seg, v.segment(1, 2));

        let mut dst = Vector::zeros(4);
        dst.assign(&seg);
        assert_eq!(dst, seg);
        dst.assign(&v);
        assert_eq!(dst, v);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn segment_into_out_of_bounds_panics() {
        let mut seg = Vector::zeros(2);
        Vector::zeros(2).segment_into(1, &mut seg);
    }

    #[test]
    fn segment_and_concat() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.segment(1, 2).as_slice(), &[2.0, 3.0]);
        let w = v.segment(0, 2).concat(&v.segment(2, 2));
        assert_eq!(w, v);
        let all = Vector::concat_all([&v, &w]);
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn quadratic_form_matches_manual() {
        let d = Vector::from_slice(&[1.0, 2.0]);
        let p = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        // 1*2*1 + 1*1*2 + 2*1*1 + 2*3*2 = 2 + 2 + 2 + 12 = 18
        assert_eq!(d.quadratic_form(&p).unwrap(), 18.0);
        assert!(d.quadratic_form(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn from_iterator_collects() {
        let v: Vector = (0..4).map(|i| i as f64).collect();
        assert_eq!(v.len(), 4);
        assert_eq!(v[3], 3.0);
    }

    #[test]
    fn max_abs_and_map() {
        let v = Vector::from_slice(&[-3.0, 2.0]);
        assert_eq!(v.max_abs(), 3.0);
        assert_eq!(v.map(f64::abs).as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn column_matrix_shape() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let m = v.to_column_matrix();
        assert_eq!(m.shape(), (3, 1));
        assert_eq!(m[(2, 0)], 3.0);
    }
}
