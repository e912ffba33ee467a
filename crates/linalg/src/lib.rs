//! Dense linear algebra substrate for the RoboADS reproduction.
//!
//! The NUISE estimator at the heart of RoboADS (DSN 2018) manipulates small
//! dense matrices: state covariances, measurement Jacobians, and gain
//! matrices of dimension at most ~10×10. Beyond the usual solve/inverse
//! operations it specifically needs the **Moore–Penrose pseudo-inverse**,
//! the **pseudo-determinant** and the **rank** of (possibly singular)
//! innovation covariance matrices for its mode-likelihood computation
//! (Algorithm 2, lines 19–20 of the paper).
//!
//! This crate provides exactly that tool set, with no external numeric
//! dependencies:
//!
//! * [`Matrix`] / [`Vector`] — row-major dense storage with the standard
//!   operator overloads,
//! * [`Lu`] — LU decomposition with partial pivoting (solve, inverse,
//!   determinant),
//! * [`Cholesky`] — for symmetric positive-definite matrices (sampling,
//!   log-determinants, and the whitened χ² statistic
//!   [`Matrix::whitened_quadratic_form`] of full-rank covariances),
//! * [`SymmetricEigen`] — cyclic Jacobi eigendecomposition of symmetric
//!   matrices, from which [`Matrix::pseudo_inverse`],
//!   [`Matrix::pseudo_determinant`] and [`Matrix::rank`] are derived,
//! * [`Matrix::projected_pseudo_inverse`] — the pseudo-inverse, rank and
//!   pseudo-determinant of a covariance whose range is known, by one
//!   Householder basis and one Cholesky instead of an eigendecomposition.
//!
//! These allocating operations are the reference. The estimator's hot
//! path runs on the lane-batched in-place kernels of [`slab`]
//! ([`MatrixSlab`], [`LuSlabWorkspace`], [`CholeskySlabWorkspace`],
//! [`ProjectedSlabWorkspace`]): one robot at K = 1, a fleet tile at
//! K = 8. Each slab kernel is pinned bit for bit, per lane, against its
//! allocating counterpart (`tests/slab_vs_scalar.rs`). The Jacobi exists
//! once, as [`SymmetricEigen`]: a lane the Cholesky or the projection
//! rejects is copied out and takes the allocating pseudo-inverse, so
//! only such a lane allocates. Beside them
//! sits a small scalar in-place layer for buffer reuse outside the
//! NUISE step — fills, copies, [`Matrix::mul_vec_into`], `+=`/`-=` —
//! each pinned to the allocating operation it replaces.
//!
//! # Example
//!
//! ```
//! use roboads_linalg::{Matrix, Vector};
//!
//! # fn main() -> Result<(), roboads_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.lu()?.solve(&b)?;
//! let residual = (&a * &x - b).norm();
//! assert!(residual < 1e-12);
//! # Ok(())
//! # }
//! ```

mod cholesky;
mod eigen;
mod error;
pub mod health;
mod inplace;
mod lu;
mod matrix;
mod ops;
mod pseudo;
pub mod slab;
mod vector;

pub use cholesky::Cholesky;
pub use eigen::{SymmetricEigen, JACOBI_MAX_SWEEPS};
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use pseudo::{PseudoInverse, RANK_TOL};
pub use slab::{
    CholeskySlabWorkspace, LuSlabWorkspace, MatrixSlab, ProjectedSlabWorkspace, ProjectionScratch,
    VectorSlab,
};
pub use vector::Vector;

/// Crate-wide result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
