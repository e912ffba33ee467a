//! Structure-of-arrays "slab" storage: K same-shaped matrices/vectors
//! interleaved lane-wise for cross-robot vectorization.
//!
//! A fleet of robots sharing one system model steps through identical
//! NUISE control flow per tick; the dense kernels involved operate on
//! small fixed-shape matrices, which vectorize poorly *within* a matrix
//! but perfectly *across* robots. A [`MatrixSlab<K>`] stores element
//! `(i, j)` of all K robots' matrices contiguously as a `[f64; K]` lane
//! group, so the plain inner `for l in 0..K` loops below compile to SIMD
//! lanes (LLVM autovectorizes the fixed-width arrays; no intrinsics, no
//! nightly features, no dependencies).
//!
//! # Bitwise contract
//!
//! Every kernel here is **bitwise identical per lane** to the
//! allocating [`Matrix`] operation it replaces — `&a * &b`,
//! `&a * &b.transpose()`, `&a * &v`, [`Matrix::transpose`],
//! [`Matrix::symmetrized`], [`Matrix::congruence`], negation,
//! [`crate::Lu::inverse`], and the Jacobi of [`crate::SymmetricEigen`]
//! as replayed by [`crate::EigenWorkspace`] — with the same loop
//! structure, accumulation order and pivot/convergence decisions
//! applied per lane. Data-dependent branches in the scalar code (`if
//! aik == 0.0 { continue }` zero-skips, LU pivot selection and
//! singularity skips, Jacobi rotation and convergence checks) become
//! per-lane *selects*: each lane takes exactly the value it would have
//! taken in the scalar code, and lanes that diverge simply mask their
//! stores. `tests/slab_vs_scalar.rs` pins every kernel against the
//! allocating path with `to_bits` comparisons at K = 1 and K = 8.
//!
//! Lanes that hit a numeric failure (singular LU, non-converged Jacobi)
//! are reported via per-lane flags; their buffers may hold garbage
//! (inf/NaN propagated through masked arithmetic) which callers must
//! discard — IEEE arithmetic on garbage lanes cannot trap or affect
//! neighbouring lanes.
//!
//! Shape mismatches panic, matching the operator-overload contract of
//! [`Matrix`] arithmetic: all shapes come from a validated system
//! description.
// Lane loops are written in index form (`for l in 0..K`) throughout:
// every kernel touches several slabs at the same lane, the trip count
// is the const generic K, and keeping one uniform shape is what makes
// the bitwise-pinned kernels reviewable against the scalar reference.
#![allow(clippy::needless_range_loop)]

use crate::eigen::CONVERGENCE_TOL;
use crate::lu::PIVOT_TOL;
use crate::pseudo::RANK_TOL;
use crate::{LinalgError, Matrix, Result, Vector, JACOBI_MAX_SWEEPS};
use std::ops::{AddAssign, SubAssign};

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

/// K same-shaped dense matrices stored lane-interleaved: element
/// `(i, j)` of every lane lives in one `[f64; K]` group, row-major over
/// `(i, j)` exactly like [`Matrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSlab<const K: usize> {
    rows: usize,
    cols: usize,
    data: Vec<[f64; K]>,
}

impl<const K: usize> MatrixSlab<K> {
    /// Allocates a `rows × cols` slab with every lane zeroed.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        MatrixSlab {
            rows,
            cols,
            data: vec![[0.0; K]; rows * cols],
        }
    }

    /// Number of rows (per lane).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (per lane).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` shape (per lane).
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether each lane's matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Lane group at `(i, j)`.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> &[f64; K] {
        &self.data[i * self.cols + j]
    }

    /// Mutable lane group at `(i, j)`.
    #[inline(always)]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut [f64; K] {
        &mut self.data[i * self.cols + j]
    }

    /// Row `i` as a slice of lane groups.
    #[inline(always)]
    fn row(&self, i: usize) -> &[[f64; K]] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i` as a slice of lane groups.
    #[inline(always)]
    fn row_mut(&mut self, i: usize) -> &mut [[f64; K]] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Sets every entry of every lane to `value`.
    pub fn fill(&mut self, value: f64) {
        for g in &mut self.data {
            *g = [value; K];
        }
    }

    /// Overwrites all lanes with `src` (same shape required).
    pub fn copy_from(&mut self, src: &MatrixSlab<K>) {
        assert_shape("slab copy_from", self.shape(), src.shape());
        self.data.copy_from_slice(&src.data);
    }

    /// Overwrites lane `lane` with the scalar matrix `src`.
    pub fn load_lane(&mut self, lane: usize, src: &Matrix) {
        assert_shape("slab load_lane", self.shape(), src.shape());
        for (g, &s) in self.data.iter_mut().zip(src.as_slice()) {
            g[lane] = s;
        }
    }

    /// Copies lane `lane` out into the scalar matrix `dst`.
    pub fn store_lane(&self, lane: usize, dst: &mut Matrix) {
        assert_shape("slab store_lane", dst.shape(), self.shape());
        for (d, g) in dst.as_mut_slice().iter_mut().zip(&self.data) {
            *d = g[lane];
        }
    }

    /// Overwrites every lane with the identity matrix.
    ///
    /// # Panics
    ///
    /// Panics if the slab is not square.
    pub fn set_identity(&mut self) {
        assert!(self.is_square(), "set_identity on {:?} slab", self.shape());
        let n = self.rows;
        self.fill(0.0);
        for i in 0..n {
            *self.at_mut(i, i) = [1.0; K];
        }
    }

    /// Writes each lane's transpose into `out`.
    pub fn transpose_into(&self, out: &mut MatrixSlab<K>) {
        assert_shape("slab transpose_into", out.shape(), (self.cols, self.rows));
        for i in 0..self.rows {
            for j in 0..self.cols {
                *out.at_mut(j, i) = *self.at(i, j);
            }
        }
    }

    /// Negates every entry of every lane in place.
    pub fn negate(&mut self) {
        for g in &mut self.data {
            for v in g {
                *v = -*v;
            }
        }
    }

    /// Per-lane `self · rhs` into `out`; bitwise identical per lane to
    /// `&a * &b` (same i-k-j loop; the scalar zero-skip
    /// becomes a per-lane select so each lane accumulates exactly the
    /// terms the scalar path would).
    pub fn mul_into(&self, rhs: &MatrixSlab<K>, out: &mut MatrixSlab<K>) {
        assert!(
            self.cols == rhs.rows,
            "slab mul_into of shapes {}x{} and {}x{}",
            self.rows,
            self.cols,
            rhs.rows,
            rhs.cols
        );
        assert_shape("slab mul_into", out.shape(), (self.rows, rhs.cols));
        out.fill(0.0);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = *self.at(i, k);
                if aik.iter().all(|&v| v == 0.0) {
                    // Every lane skips: identical to the scalar
                    // `continue`, and skipping leaves `out` untouched
                    // in all lanes.
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = out.row_mut(i);
                for (o, b) in out_row.iter_mut().zip(rhs_row) {
                    for l in 0..K {
                        if aik[l] != 0.0 {
                            o[l] += aik[l] * b[l];
                        }
                    }
                }
            }
        }
    }

    /// Per-lane `self · rhsᵀ` into `out`; bitwise identical per lane to
    /// `&a * &b.transpose()`.
    pub fn mul_transpose_into(&self, rhs: &MatrixSlab<K>, out: &mut MatrixSlab<K>) {
        assert!(
            self.cols == rhs.cols,
            "slab mul_transpose_into of shapes {}x{} and {}x{}ᵀ",
            self.rows,
            self.cols,
            rhs.rows,
            rhs.cols
        );
        assert_shape(
            "slab mul_transpose_into",
            out.shape(),
            (self.rows, rhs.rows),
        );
        out.fill(0.0);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = *self.at(i, k);
                if aik.iter().all(|&v| v == 0.0) {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b = rhs.at(j, k);
                    for l in 0..K {
                        if aik[l] != 0.0 {
                            o[l] += aik[l] * b[l];
                        }
                    }
                }
            }
        }
    }

    /// Per-lane `self · rhs` with a lane-uniform (broadcast) right-hand
    /// side; bitwise identical per lane to `&a * rhs` with `rhs` as the
    /// scalar operand.
    pub fn mul_broadcast_into(&self, rhs: &Matrix, out: &mut MatrixSlab<K>) {
        assert!(
            self.cols == rhs.rows(),
            "slab mul_broadcast_into of shapes {}x{} and {}x{}",
            self.rows,
            self.cols,
            rhs.rows(),
            rhs.cols()
        );
        assert_shape(
            "slab mul_broadcast_into",
            out.shape(),
            (self.rows, rhs.cols()),
        );
        out.fill(0.0);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = *self.at(i, k);
                if aik.iter().all(|&v| v == 0.0) {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(&rhs.as_slice()[k * rhs.cols()..]) {
                    for l in 0..K {
                        if aik[l] != 0.0 {
                            o[l] += aik[l] * b;
                        }
                    }
                }
            }
        }
    }

    /// `lhs · selfᵀ` with a lane-uniform (broadcast) left-hand side,
    /// written into `out`; bitwise identical per lane to
    /// `lhs * &a.transpose()` with `lhs` as the scalar operand.
    /// Because `aik` is lane-uniform, the scalar zero-skip is a uniform
    /// `continue` — exactly the branch the scalar code takes.
    pub fn premul_transpose_into(&self, lhs: &Matrix, out: &mut MatrixSlab<K>) {
        assert!(
            lhs.cols() == self.cols,
            "slab premul_transpose_into of shapes {}x{} and {}x{}ᵀ",
            lhs.rows(),
            lhs.cols(),
            self.rows,
            self.cols
        );
        assert_shape(
            "slab premul_transpose_into",
            out.shape(),
            (lhs.rows(), self.rows),
        );
        out.fill(0.0);
        for i in 0..lhs.rows() {
            for k in 0..lhs.cols() {
                let aik = lhs[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (j, o) in out_row.iter_mut().enumerate() {
                    let b = self.at(j, k);
                    for l in 0..K {
                        o[l] += aik * b[l];
                    }
                }
            }
        }
    }

    /// Per-lane `self · v` into `out`; bitwise identical per lane to
    /// `&a * &v` (per-row accumulator from +0.0, j-ascending).
    pub fn mul_vec_into(&self, v: &VectorSlab<K>, out: &mut VectorSlab<K>) {
        assert!(
            self.cols == v.len(),
            "slab mul_vec_into of {}x{} slab with length-{} vector slab",
            self.rows,
            self.cols,
            v.len()
        );
        assert!(
            out.len() == self.rows,
            "slab mul_vec_into: destination length {} does not match {} rows",
            out.len(),
            self.rows
        );
        for i in 0..self.rows {
            let mut acc = [0.0; K];
            let row = self.row(i);
            for (a, vj) in row.iter().zip(&v.data) {
                for l in 0..K {
                    acc[l] += a[l] * vj[l];
                }
            }
            out.data[i] = acc;
        }
    }

    /// Replaces every lane with its symmetric part; bitwise identical
    /// per lane to [`Matrix::symmetrized`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for a non-square slab.
    pub fn symmetrize_in_place(&mut self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows;
        for i in 0..n {
            // (aᵢᵢ + aᵢᵢ)/2 is exactly aᵢᵢ in IEEE arithmetic (below
            // the overflow bound), so only the off-diagonal pairs need
            // touching; addition is commutative bitwise, so one
            // averaged value serves both.
            for j in (i + 1)..n {
                let x = *self.at(i, j);
                let y = *self.at(j, i);
                let mut avg = [0.0; K];
                for l in 0..K {
                    avg[l] = 0.5 * (x[l] + y[l]);
                }
                *self.at_mut(i, j) = avg;
                *self.at_mut(j, i) = avg;
            }
        }
        Ok(())
    }

    /// Per-lane `self · p · selfᵀ` into `out` via `scratch`; bitwise
    /// identical per lane to [`Matrix::congruence`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `p` is not square
    /// with side `self.cols()`.
    pub fn congruence_into(
        &self,
        p: &MatrixSlab<K>,
        scratch: &mut MatrixSlab<K>,
        out: &mut MatrixSlab<K>,
    ) -> Result<()> {
        if p.rows != self.cols || p.cols != self.cols {
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

    /// Per-lane `self · p · selfᵀ` with a lane-uniform middle matrix;
    /// bitwise identical per lane to [`Matrix::congruence`] with `p` as
    /// the scalar operand.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `p` is not square
    /// with side `self.cols()`.
    pub fn congruence_broadcast_into(
        &self,
        p: &Matrix,
        scratch: &mut MatrixSlab<K>,
        out: &mut MatrixSlab<K>,
    ) -> Result<()> {
        if p.rows() != self.cols || p.cols() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "congruence",
                lhs: self.shape(),
                rhs: p.shape(),
            });
        }
        self.premul_transpose_into(p, scratch);
        self.mul_into(scratch, out);
        Ok(())
    }
}

impl<const K: usize> AddAssign<&MatrixSlab<K>> for MatrixSlab<K> {
    /// Per-lane elementwise `self += rhs`; bitwise identical per lane
    /// to the scalar `+=`.
    fn add_assign(&mut self, rhs: &MatrixSlab<K>) {
        assert_shape("slab add_assign", self.shape(), rhs.shape());
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            for l in 0..K {
                a[l] += b[l];
            }
        }
    }
}

impl<const K: usize> SubAssign<&MatrixSlab<K>> for MatrixSlab<K> {
    /// Per-lane elementwise `self -= rhs`; bitwise identical per lane
    /// to the scalar `-=`.
    fn sub_assign(&mut self, rhs: &MatrixSlab<K>) {
        assert_shape("slab sub_assign", self.shape(), rhs.shape());
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            for l in 0..K {
                a[l] -= b[l];
            }
        }
    }
}

impl<const K: usize> MatrixSlab<K> {
    /// `self += rhs` with a lane-uniform (broadcast) right-hand side.
    pub fn add_assign_broadcast(&mut self, rhs: &Matrix) {
        assert_shape("slab add_assign_broadcast", self.shape(), rhs.shape());
        for (a, &b) in self.data.iter_mut().zip(rhs.as_slice()) {
            for l in 0..K {
                a[l] += b;
            }
        }
    }

    /// Overwrites every lane with the scalar matrix `src` (the
    /// broadcast analogue of a `copy_from`).
    pub fn broadcast_from(&mut self, src: &Matrix) {
        assert_shape("slab broadcast_from", self.shape(), src.shape());
        for (g, &s) in self.data.iter_mut().zip(src.as_slice()) {
            *g = [s; K];
        }
    }
}

/// K same-length dense vectors stored lane-interleaved.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSlab<const K: usize> {
    data: Vec<[f64; K]>,
}

impl<const K: usize> VectorSlab<K> {
    /// Allocates a length-`len` slab with every lane zeroed.
    pub fn zeros(len: usize) -> Self {
        VectorSlab {
            data: vec![[0.0; K]; len],
        }
    }

    /// Length (per lane).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Lane group at index `i`.
    #[inline(always)]
    pub fn at(&self, i: usize) -> &[f64; K] {
        &self.data[i]
    }

    /// Mutable lane group at index `i`.
    #[inline(always)]
    pub fn at_mut(&mut self, i: usize) -> &mut [f64; K] {
        &mut self.data[i]
    }

    /// Sets every entry of every lane to `value`.
    pub fn fill(&mut self, value: f64) {
        for g in &mut self.data {
            *g = [value; K];
        }
    }

    /// Overwrites all lanes with `src` (same length required).
    pub fn copy_from(&mut self, src: &VectorSlab<K>) {
        assert_eq!(
            self.len(),
            src.len(),
            "slab copy_from of vector slabs with lengths {} and {}",
            self.len(),
            src.len()
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Overwrites lane `lane` with the scalar vector `src`.
    pub fn load_lane(&mut self, lane: usize, src: &Vector) {
        assert_eq!(
            self.len(),
            src.len(),
            "slab load_lane of length-{} slab from length-{} vector",
            self.len(),
            src.len()
        );
        for (g, &s) in self.data.iter_mut().zip(src.as_slice()) {
            g[lane] = s;
        }
    }

    /// Copies lane `lane` out into the scalar vector `dst`.
    pub fn store_lane(&self, lane: usize, dst: &mut Vector) {
        assert_eq!(
            dst.len(),
            self.len(),
            "slab store_lane of length-{} slab into length-{} vector",
            self.len(),
            dst.len()
        );
        for (d, g) in dst.as_mut_slice().iter_mut().zip(&self.data) {
            *d = g[lane];
        }
    }

    /// Negates every entry of every lane in place.
    pub fn negate(&mut self) {
        for g in &mut self.data {
            for v in g {
                *v = -*v;
            }
        }
    }

    /// Per-lane quadratic form `vᵀ · m · v`; bitwise identical per lane
    /// to [`Vector::quadratic_form`] (i-outer, j-inner accumulation).
    pub fn quadratic_form(&self, m: &MatrixSlab<K>) -> [f64; K] {
        assert!(
            m.rows() == self.len() && m.cols() == self.len(),
            "slab quadratic_form of length-{} vector slab with {}x{} slab",
            self.len(),
            m.rows(),
            m.cols()
        );
        let mut acc = [0.0; K];
        for i in 0..self.len() {
            let di = self.data[i];
            let row = m.row(i);
            for (mij, dj) in row.iter().zip(&self.data) {
                for l in 0..K {
                    acc[l] += di[l] * mij[l] * dj[l];
                }
            }
        }
        acc
    }
}

impl<const K: usize> AddAssign<&VectorSlab<K>> for VectorSlab<K> {
    /// Per-lane elementwise `self += rhs`.
    fn add_assign(&mut self, rhs: &VectorSlab<K>) {
        assert_eq!(
            self.len(),
            rhs.len(),
            "slab add_assign of vector slabs with lengths {} and {}",
            self.len(),
            rhs.len()
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            for l in 0..K {
                a[l] += b[l];
            }
        }
    }
}

impl<const K: usize> SubAssign<&VectorSlab<K>> for VectorSlab<K> {
    /// Per-lane elementwise `self -= rhs`.
    fn sub_assign(&mut self, rhs: &VectorSlab<K>) {
        assert_eq!(
            self.len(),
            rhs.len(),
            "slab sub_assign of vector slabs with lengths {} and {}",
            self.len(),
            rhs.len()
        );
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            for l in 0..K {
                a[l] -= b[l];
            }
        }
    }
}

/// Lane-batched LU with per-lane partial pivoting; per lane bitwise
/// identical to the allocating [`crate::Lu`].
///
/// Singularity is tracked per lane: a lane whose pivot falls below the
/// relative tolerance at step `k` skips that step's elimination (its
/// stores are masked), exactly as the scalar `continue` does, and its
/// flag in [`LuSlabWorkspace::singular`] is set. [`inverse_into`] runs
/// for all lanes unconditionally — singular lanes produce garbage the
/// caller must discard after checking the flags.
///
/// [`inverse_into`]: LuSlabWorkspace::inverse_into
#[derive(Debug, Clone)]
pub struct LuSlabWorkspace<const K: usize> {
    factors: MatrixSlab<K>,
    perm: Vec<[usize; K]>,
    singular: [bool; K],
    col: VectorSlab<K>,
}

impl<const K: usize> LuSlabWorkspace<K> {
    /// Allocates buffers for `n × n` lane-batched factorizations.
    pub fn new(n: usize) -> Self {
        LuSlabWorkspace {
            factors: MatrixSlab::zeros(n, n),
            perm: vec![[0; K]; n],
            singular: [false; K],
            col: VectorSlab::zeros(n),
        }
    }

    /// Workspace dimension.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Per-lane singularity flags for the last factorization.
    pub fn singular(&self) -> &[bool; K] {
        &self.singular
    }

    /// Factorizes all K lanes of `a`; per lane bitwise identical to
    /// [`crate::Lu::new`] (same per-lane pivot search,
    /// row swaps, singularity skips and elimination updates).
    ///
    /// # Panics
    ///
    /// Panics if `a` does not match the workspace dimension.
    pub fn factorize(&mut self, a: &MatrixSlab<K>) {
        let n = self.dim();
        assert_shape("slab lu factorize", a.shape(), (n, n));
        // Per-lane scale = max_abs().max(1.0), folded in storage order
        // like the scalar Matrix::max_abs.
        let mut scale = [0.0f64; K];
        for g in &a.data {
            for l in 0..K {
                scale[l] = scale[l].max(g[l].abs());
            }
        }
        for l in 0..K {
            scale[l] = scale[l].max(1.0);
        }
        self.factors.copy_from(a);
        for (i, p) in self.perm.iter_mut().enumerate() {
            *p = [i; K];
        }
        self.singular = [false; K];

        let f = &mut self.factors;
        for k in 0..n {
            // Per-lane pivot search (strict >, scanning i ascending).
            let mut pivot_row = [k; K];
            let mut pivot_val = [0.0f64; K];
            {
                let fkk = f.at(k, k);
                for l in 0..K {
                    pivot_val[l] = fkk[l].abs();
                }
            }
            for i in (k + 1)..n {
                let fik = f.at(i, k);
                for l in 0..K {
                    let v = fik[l].abs();
                    if v > pivot_val[l] {
                        pivot_val[l] = v;
                        pivot_row[l] = i;
                    }
                }
            }
            // Per-lane row swap (lane-scalar; lanes are independent).
            for l in 0..K {
                let pr = pivot_row[l];
                if pr != k {
                    for j in 0..n {
                        let a = f.data[k * n + j][l];
                        f.data[k * n + j][l] = f.data[pr * n + j][l];
                        f.data[pr * n + j][l] = a;
                    }
                    let p = self.perm[k][l];
                    self.perm[k][l] = self.perm[pr][l];
                    self.perm[pr][l] = p;
                }
            }
            // Per-lane singularity: a skipped lane leaves this step's
            // elimination untouched (masked stores), like the scalar
            // `continue`, and accumulates into the singular flags.
            let mut skip = [false; K];
            for l in 0..K {
                if pivot_val[l] <= PIVOT_TOL * scale[l] {
                    self.singular[l] = true;
                    skip[l] = true;
                }
            }
            let pivot = *f.at(k, k);
            let (top, bottom) = f.data.split_at_mut((k + 1) * n);
            let row_k = &top[k * n..(k + 1) * n];
            for i in (k + 1)..n {
                let row_i = &mut bottom[(i - k - 1) * n..(i - k) * n];
                let mut factor = [0.0f64; K];
                for l in 0..K {
                    // Division by a ~0 pivot in skipped lanes yields
                    // inf/NaN that the masked store discards.
                    let val = row_i[k][l] / pivot[l];
                    factor[l] = val;
                    row_i[k][l] = if skip[l] { row_i[k][l] } else { val };
                }
                for j in (k + 1)..n {
                    let fkj = row_k[j];
                    let fij = &mut row_i[j];
                    for l in 0..K {
                        let upd = fij[l] - factor[l] * fkj[l];
                        fij[l] = if skip[l] { fij[l] } else { upd };
                    }
                }
            }
        }
    }

    /// Writes all K lanes' inverses into `out`; per lane bitwise
    /// identical to [`crate::Lu::inverse`]. Runs for
    /// every lane unconditionally — lanes flagged in
    /// [`LuSlabWorkspace::singular`] produce garbage the caller must
    /// discard.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not match the workspace dimension.
    pub fn inverse_into(&mut self, out: &mut MatrixSlab<K>) {
        let n = self.dim();
        assert_shape("slab lu inverse", out.shape(), (n, n));
        let (factors, col, perm) = (&self.factors, &mut self.col, &self.perm);
        for j in 0..n {
            for i in 0..n {
                for l in 0..K {
                    col.data[i][l] = if perm[i][l] == j { 1.0 } else { 0.0 };
                }
            }
            for i in 1..n {
                for jj in 0..i {
                    let lij = factors.at(i, jj);
                    let cjj = col.data[jj];
                    let ci = &mut col.data[i];
                    for l in 0..K {
                        ci[l] -= lij[l] * cjj[l];
                    }
                }
            }
            for i in (0..n).rev() {
                for jj in (i + 1)..n {
                    let uij = factors.at(i, jj);
                    let cjj = col.data[jj];
                    let ci = &mut col.data[i];
                    for l in 0..K {
                        ci[l] -= uij[l] * cjj[l];
                    }
                }
                let fii = factors.at(i, i);
                let ci = &mut col.data[i];
                for l in 0..K {
                    ci[l] /= fii[l];
                }
            }
            for i in 0..n {
                *out.at_mut(i, j) = col.data[i];
            }
        }
    }
}

/// Lane-batched cyclic Jacobi eigendecomposition for symmetric
/// matrices; per lane bitwise identical to the scalar
/// [`crate::EigenWorkspace`].
///
/// Convergence is tracked per lane: a lane whose off-diagonal norm
/// passes the sweep-top check freezes (its eigenvalues are captured and
/// all further rotation stores are masked), exactly where the scalar
/// path would have returned. Lanes still unconverged after the sweep
/// cap are reported via the returned flags — the scalar path's
/// `NoConvergence` error.
#[derive(Debug, Clone)]
pub struct EigenSlabWorkspace<const K: usize> {
    a: MatrixSlab<K>,
    v: MatrixSlab<K>,
    eigenvalues: VectorSlab<K>,
}

impl<const K: usize> EigenSlabWorkspace<K> {
    /// Allocates buffers for `n × n` lane-batched decompositions.
    pub fn new(n: usize) -> Self {
        EigenSlabWorkspace {
            a: MatrixSlab::zeros(n, n),
            v: MatrixSlab::zeros(n, n),
            eigenvalues: VectorSlab::zeros(n),
        }
    }

    /// Workspace dimension.
    pub fn dim(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Decomposes the active lanes of `m` (upper triangle, as the
    /// scalar path does) and returns per-lane convergence flags:
    /// `true` means that lane's eigenvalues/eigenvectors are valid and
    /// bitwise identical to [`crate::EigenWorkspace::factorize`] on
    /// that lane's matrix; `false` for an active lane means the scalar
    /// path would have returned `NoConvergence`. Inactive lanes are
    /// skipped entirely (their buffers hold stale data) and report
    /// `false`.
    ///
    /// # Panics
    ///
    /// Panics if `m` does not match the workspace dimension.
    pub fn factorize(&mut self, m: &MatrixSlab<K>, active: &[bool; K]) -> [bool; K] {
        let n = self.dim();
        assert_shape("slab eigen factorize", m.shape(), (n, n));
        let a = &mut self.a;
        let v = &mut self.v;
        for i in 0..n {
            for j in 0..n {
                *a.at_mut(i, j) = if i <= j { *m.at(i, j) } else { *m.at(j, i) };
            }
        }
        v.set_identity();
        // Per-lane Frobenius norm in storage order, then the scalar
        // floor: norm = frobenius.max(MIN_POSITIVE).
        let mut norm = [0.0f64; K];
        for g in &a.data {
            for l in 0..K {
                norm[l] += g[l] * g[l];
            }
        }
        for l in 0..K {
            norm[l] = norm[l].sqrt().max(f64::MIN_POSITIVE);
        }

        let mut done = [false; K];
        let mut converged = [false; K];
        for l in 0..K {
            done[l] = !active[l];
        }

        for _sweep in 0..JACOBI_MAX_SWEEPS {
            // Sweep-top convergence check, per lane (i asc, j asc sum
            // order as in the scalar path).
            let mut off = [0.0f64; K];
            for i in 0..n {
                for j in (i + 1)..n {
                    let g = a.at(i, j);
                    for l in 0..K {
                        off[l] += g[l] * g[l];
                    }
                }
            }
            for l in 0..K {
                if !done[l] && off[l].sqrt() <= CONVERGENCE_TOL * norm[l] {
                    for i in 0..n {
                        self.eigenvalues.data[i][l] = a.at(i, i)[l];
                    }
                    done[l] = true;
                    converged[l] = true;
                }
            }
            if done.iter().all(|&d| d) {
                return converged;
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = *a.at(p, q);
                    let mut rot = [false; K];
                    let mut any = false;
                    for l in 0..K {
                        rot[l] = !done[l] && apq[l].abs() > f64::MIN_POSITIVE;
                        any |= rot[l];
                    }
                    if !any {
                        continue;
                    }
                    let app = *a.at(p, p);
                    let aqq = *a.at(q, q);
                    let mut c = [0.0f64; K];
                    let mut s = [0.0f64; K];
                    for l in 0..K {
                        // Computed for every lane; masked lanes may
                        // produce inf/NaN here which the guarded
                        // stores below discard.
                        let theta = (aqq[l] - app[l]) / (2.0 * apq[l]);
                        let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                        let cl = 1.0 / (t * t + 1.0).sqrt();
                        c[l] = cl;
                        s[l] = t * cl;
                    }
                    for k in 0..n {
                        let akp = *a.at(k, p);
                        let akq = *a.at(k, q);
                        let gp = a.at_mut(k, p);
                        for l in 0..K {
                            if rot[l] {
                                gp[l] = c[l] * akp[l] - s[l] * akq[l];
                            }
                        }
                        let gq = a.at_mut(k, q);
                        for l in 0..K {
                            if rot[l] {
                                gq[l] = s[l] * akp[l] + c[l] * akq[l];
                            }
                        }
                    }
                    for k in 0..n {
                        let apk = *a.at(p, k);
                        let aqk = *a.at(q, k);
                        let gp = a.at_mut(p, k);
                        for l in 0..K {
                            if rot[l] {
                                gp[l] = c[l] * apk[l] - s[l] * aqk[l];
                            }
                        }
                        let gq = a.at_mut(q, k);
                        for l in 0..K {
                            if rot[l] {
                                gq[l] = s[l] * apk[l] + c[l] * aqk[l];
                            }
                        }
                    }
                    {
                        let gpq = a.at_mut(p, q);
                        for l in 0..K {
                            if rot[l] {
                                gpq[l] = 0.0;
                            }
                        }
                        let gqp = a.at_mut(q, p);
                        for l in 0..K {
                            if rot[l] {
                                gqp[l] = 0.0;
                            }
                        }
                    }
                    for k in 0..n {
                        let vkp = *v.at(k, p);
                        let vkq = *v.at(k, q);
                        let gp = v.at_mut(k, p);
                        for l in 0..K {
                            if rot[l] {
                                gp[l] = c[l] * vkp[l] - s[l] * vkq[l];
                            }
                        }
                        let gq = v.at_mut(k, q);
                        for l in 0..K {
                            if rot[l] {
                                gq[l] = s[l] * vkp[l] + c[l] * vkq[l];
                            }
                        }
                    }
                }
            }
        }
        // Lanes still running after the sweep cap mirror the scalar
        // NoConvergence error; their flags stay false.
        converged
    }

    /// Eigenvalues of the last decomposition (unsorted, matching
    /// eigenvector columns). Lanes that did not converge hold garbage.
    pub fn eigenvalues(&self) -> &VectorSlab<K> {
        &self.eigenvalues
    }

    /// Largest eigenvalue of lane `lane`; bitwise identical to
    /// [`crate::EigenWorkspace::max_eigenvalue`] for converged lanes.
    pub fn max_eigenvalue(&self, lane: usize) -> f64 {
        self.eigenvalues
            .data
            .iter()
            .fold(f64::NEG_INFINITY, |a, g| a.max(g[lane]))
    }

    /// Rank cutoff for lane `lane`'s spectrum; bitwise identical to the
    /// shared `spectrum_cutoff` used by [`Matrix::pseudo_inverse_into`]
    /// (same fold order, same `RANK_TOL`).
    pub fn spectrum_cutoff(&self, lane: usize) -> f64 {
        let max_abs = self
            .eigenvalues
            .data
            .iter()
            .fold(0.0f64, |a, g| a.max(g[lane].abs()));
        RANK_TOL * max_abs.max(f64::MIN_POSITIVE)
    }

    /// Writes `V·f(Λ)·Vᵀ` into `out`, with `f` receiving `(lane,
    /// eigenvalue)`; per lane bitwise identical to
    /// [`crate::EigenWorkspace::spectral_map_into`] when `f(lane, ·)`
    /// matches the scalar map. The scalar zero-skip becomes a per-lane
    /// masked accumulate (never adding a literal zero, which could
    /// flip a `-0.0` sign). Unconverged lanes produce garbage.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not match the workspace dimension.
    pub fn spectral_map_into(&self, f: impl Fn(usize, f64) -> f64, out: &mut MatrixSlab<K>) {
        let n = self.dim();
        assert_shape("slab spectral_map_into", out.shape(), (n, n));
        let v = &self.v;
        out.fill(0.0);
        for k in 0..n {
            let mut fl = [0.0f64; K];
            let mut any = false;
            for l in 0..K {
                fl[l] = f(l, self.eigenvalues.data[k][l]);
                any |= fl[l] != 0.0;
            }
            if !any {
                continue;
            }
            for i in 0..n {
                let vik = *v.at(i, k);
                let out_row = out.row_mut(i);
                for (j, o) in out_row.iter_mut().enumerate() {
                    let vjk = v.at(j, k);
                    for l in 0..K {
                        if fl[l] != 0.0 {
                            o[l] += fl[l] * vik[l] * vjk[l];
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let mut slab = MatrixSlab::<4>::zeros(2, 2);
        slab.load_lane(2, &m);
        let mut back = Matrix::zeros(2, 2);
        slab.store_lane(2, &mut back);
        assert_eq!(back, m);
        slab.store_lane(0, &mut back);
        assert_eq!(back, Matrix::zeros(2, 2));
    }

    #[test]
    fn vector_slab_roundtrip_and_ops() {
        let v = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let mut slab = VectorSlab::<2>::zeros(3);
        slab.load_lane(0, &v);
        slab.load_lane(1, &v);
        let mut twice = slab.clone();
        twice += &slab;
        let mut back = Vector::zeros(3);
        twice.store_lane(1, &mut back);
        let mut expected = v.clone();
        expected += &v;
        assert_eq!(back, expected);
    }
}
