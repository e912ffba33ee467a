use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{Cholesky, LinalgError, Lu, Result, SymmetricEigen, Vector};

/// A dense, row-major, `f64` matrix.
///
/// `Matrix` is the workhorse type of the RoboADS estimator: covariance
/// matrices, Jacobians and gains are all `Matrix` values. The type favors
/// explicit, checked constructors ([`Matrix::from_rows`]) and panicking
/// element access through `m[(i, j)]`, mirroring the standard library's
/// slice-indexing contract.
///
/// # Example
///
/// ```
/// use roboads_linalg::Matrix;
///
/// # fn main() -> Result<(), roboads_linalg::LinalgError> {
/// let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// ```
    /// use roboads_linalg::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!((z.rows(), z.cols()), (2, 3));
    /// assert_eq!(z[(1, 2)], 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// ```
    /// use roboads_linalg::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty row set and
    /// [`LinalgError::DimensionMismatch`] if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_rows",
                    lhs: (1, cols),
                    rhs: (1, rows[i].len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(i, j)` for every entry.
    ///
    /// ```
    /// use roboads_linalg::Matrix;
    /// let hilbert = Matrix::from_fn(3, 3, |i, j| 1.0 / (i + j + 1) as f64);
    /// assert_eq!(hilbert[(0, 0)], 1.0);
    /// ```
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a square diagonal matrix from the given diagonal entries.
    ///
    /// ```
    /// use roboads_linalg::Matrix;
    /// let d = Matrix::from_diagonal(&[1.0, 2.0]);
    /// assert_eq!(d[(1, 1)], 2.0);
    /// assert_eq!(d[(0, 1)], 0.0);
    /// ```
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Creates a `1 × n` row matrix from a slice.
    pub fn row_from_slice(row: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: row.len(),
            data: row.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    ///
    /// Rows are contiguous, so `&mut m.as_mut_slice()[r * cols..]` is a
    /// valid in-place view of row `r` — the allocation-free hot path
    /// writes Jacobian blocks through this.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Extracts the underlying row-major data vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Returns row `i` as a [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> Vector {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        Vector::from_slice(&self.data[i * self.cols..(i + 1) * self.cols])
    }

    /// Returns column `j` as a [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn column(&self, j: usize) -> Vector {
        assert!(
            j < self.cols,
            "column index {j} out of bounds ({})",
            self.cols
        );
        Vector::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Returns the main diagonal as a [`Vector`].
    pub fn diagonal(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self[(i, i)])
    }

    /// Sum of the diagonal entries.
    ///
    /// ```
    /// use roboads_linalg::Matrix;
    /// assert_eq!(Matrix::identity(4).trace(), 4.0);
    /// ```
    pub fn trace(&self) -> f64 {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm (square root of the sum of squared entries).
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Applies `f` to every entry, producing a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Returns the sub-matrix of shape `(nrows, ncols)` starting at
    /// `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the requested block extends past the matrix bounds.
    pub fn block(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> Matrix {
        assert!(
            row + nrows <= self.rows && col + ncols <= self.cols,
            "block ({row},{col})+{nrows}x{ncols} out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        Matrix::from_fn(nrows, ncols, |i, j| self[(row + i, col + j)])
    }

    /// Writes the sub-matrix starting at `(row, col)` into `out`; the
    /// block shape is `out.shape()`. Bitwise identical to
    /// [`Matrix::block`] without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the requested block extends past the matrix bounds.
    pub fn block_into(&self, row: usize, col: usize, out: &mut Matrix) {
        let (nrows, ncols) = (out.rows, out.cols);
        assert!(
            row + nrows <= self.rows && col + ncols <= self.cols,
            "block ({row},{col})+{nrows}x{ncols} out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        for i in 0..nrows {
            for j in 0..ncols {
                out[(i, j)] = self[(row + i, col + j)];
            }
        }
    }

    /// Overwrites `self` with `src`, resizing as needed. Unlike
    /// [`Matrix::copy_from`] the shapes may differ; existing capacity
    /// is reused, so repeated assignment between same-or-smaller
    /// matrices performs no heap allocation after warm-up.
    pub fn assign(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Writes `other` into this matrix with its top-left corner at
    /// `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `other` does not fit.
    pub fn set_block(&mut self, row: usize, col: usize, other: &Matrix) {
        assert!(
            row + other.rows <= self.rows && col + other.cols <= self.cols,
            "block ({row},{col})+{}x{} out of bounds for {}x{}",
            other.rows,
            other.cols,
            self.rows,
            self.cols
        );
        for i in 0..other.rows {
            for j in 0..other.cols {
                self[(row + i, col + j)] = other[(i, j)];
            }
        }
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Stacks a sequence of matrices vertically.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `blocks` is empty and
    /// [`LinalgError::DimensionMismatch`] when column counts differ.
    pub fn vstack_all<'a>(blocks: impl IntoIterator<Item = &'a Matrix>) -> Result<Matrix> {
        let mut iter = blocks.into_iter();
        let first = iter.next().ok_or(LinalgError::Empty)?.clone();
        iter.try_fold(first, |acc, b| acc.vstack(b))
    }

    /// Places `self` to the left of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut m = Matrix::zeros(self.rows, self.cols + other.cols);
        m.set_block(0, 0, self);
        m.set_block(0, self.cols, other);
        Ok(m)
    }

    /// Builds a block-diagonal matrix from the given square or rectangular
    /// blocks.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] when `blocks` is empty.
    pub fn block_diagonal<'a>(blocks: impl IntoIterator<Item = &'a Matrix>) -> Result<Matrix> {
        let blocks: Vec<&Matrix> = blocks.into_iter().collect();
        if blocks.is_empty() {
            return Err(LinalgError::Empty);
        }
        let rows = blocks.iter().map(|b| b.rows).sum();
        let cols = blocks.iter().map(|b| b.cols).sum();
        let mut m = Matrix::zeros(rows, cols);
        let (mut r, mut c) = (0, 0);
        for b in blocks {
            m.set_block(r, c, b);
            r += b.rows;
            c += b.cols;
        }
        Ok(m)
    }

    /// Returns `(self + selfᵀ) / 2`, the symmetric part of the matrix.
    ///
    /// Covariance propagation accumulates tiny asymmetries in floating
    /// point; the NUISE implementation re-symmetrizes after every update.
    /// The diagonal is copied, not averaged: `(a + a) / 2` is `a` except
    /// where `a + a` overflows, and the slab kernel
    /// (`MatrixSlab::symmetrize_in_place`) leaves it untouched too.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input.
    pub fn symmetrized(&self) -> Result<Matrix> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        Ok(Matrix::from_fn(self.rows, self.cols, |i, j| {
            if i == j {
                self[(i, i)]
            } else {
                0.5 * (self[(i, j)] + self[(j, i)])
            }
        }))
    }

    /// Whether all entries are finite (no NaN or infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Computes the LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input.
    pub fn lu(&self) -> Result<Lu> {
        Lu::new(self)
    }

    /// Computes the Cholesky decomposition `A = L Lᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if the matrix is not
    /// numerically SPD, and [`LinalgError::NotSquare`] for non-square input.
    pub fn cholesky(&self) -> Result<Cholesky> {
        Cholesky::new(self)
    }

    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input or
    /// [`LinalgError::NoConvergence`] if Jacobi sweeps fail to converge.
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen> {
        SymmetricEigen::new(self)
    }

    /// Computes the inverse via LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if the matrix is singular and
    /// [`LinalgError::NotSquare`] for non-square input.
    pub fn inverse(&self) -> Result<Matrix> {
        self.lu()?.inverse()
    }

    /// Determinant via LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input.
    pub fn determinant(&self) -> Result<f64> {
        Ok(self.lu()?.determinant())
    }

    /// Computes `self * other * selfᵀ` — the congruence transform used in
    /// every covariance propagation step.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `other` is not square
    /// with side `self.cols()`.
    pub fn congruence(&self, other: &Matrix) -> Result<Matrix> {
        if other.rows != self.cols || other.cols != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "congruence",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self * &(other * &self.transpose()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  [")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_shape() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert_eq!(Matrix::from_rows(&[]).unwrap_err(), LinalgError::Empty);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn rows_columns_diagonal() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1).as_slice(), &[3.0, 4.0]);
        assert_eq!(m.column(0).as_slice(), &[1.0, 3.0]);
        assert_eq!(m.diagonal().as_slice(), &[1.0, 4.0]);
        assert_eq!(m.trace(), 5.0);
    }

    #[test]
    fn block_and_set_block() {
        let mut m = Matrix::zeros(3, 3);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        m.set_block(1, 1, &b);
        assert_eq!(m[(2, 2)], 4.0);
        assert_eq!(m.block(1, 1, 2, 2), b);
    }

    #[test]
    fn block_into_and_assign_match_allocating() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let mut out = Matrix::zeros(2, 3);
        m.block_into(1, 1, &mut out);
        assert_eq!(out, m.block(1, 1, 2, 3));

        let mut dst = Matrix::zeros(1, 1);
        dst.assign(&m);
        assert_eq!(dst, m);
        dst.assign(&out);
        assert_eq!(dst, out);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_into_out_of_bounds_panics() {
        let mut out = Matrix::zeros(2, 2);
        Matrix::zeros(2, 2).block_into(1, 1, &mut out);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn block_out_of_bounds_panics() {
        Matrix::zeros(2, 2).block(1, 1, 2, 2);
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let v = a.vstack(&b).unwrap();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v[(1, 0)], 3.0);
        let h = a.hstack(&b).unwrap();
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h[(0, 3)], 4.0);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
        assert!(a.hstack(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn block_diagonal_assembles() {
        let a = Matrix::identity(2);
        let b = Matrix::from_rows(&[&[5.0]]).unwrap();
        let d = Matrix::block_diagonal([&a, &b]).unwrap();
        assert_eq!(d.shape(), (3, 3));
        assert_eq!(d[(2, 2)], 5.0);
        assert_eq!(d[(2, 0)], 0.0);
    }

    #[test]
    fn symmetrized_fixes_asymmetry() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]).unwrap();
        let s = m.symmetrized().unwrap();
        assert_eq!(s[(0, 1)], 3.0);
        assert_eq!(s[(1, 0)], 3.0);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::identity(2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn congruence_matches_manual_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        let p = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        let c = a.congruence(&p).unwrap();
        let manual = &(&a * &p) * &a.transpose();
        assert_eq!(c, manual);
        assert!(a.congruence(&Matrix::zeros(3, 3)).is_err());
    }
}
