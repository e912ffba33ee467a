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
//! [`crate::Lu::inverse`], the whitening of
//! [`crate::Cholesky::whitened_norm_squared`] and the projection of
//! [`Matrix::projected_pseudo_inverse`] — with the same accumulation
//! order and pivot decisions applied per lane. What is pinned is each
//! output entry's term order, not the loop nest: the reference product
//! walks i-k-j and adds into a zeroed `out`, while the slab products
//! walk i-j-k, sum each entry's terms k-ascending from `+0.0` in a
//! register accumulator and write it once — the same terms added to the
//! same entry in the same order, without a read-modify-write of `out`
//! per term.
//! Data-dependent branches in the scalar code (`if aik == 0.0 { continue
//! }` zero-skips, LU pivot selection and singularity skips, Cholesky
//! and projection acceptance) become per-lane *selects*: each lane takes
//! exactly the value it would have taken in the scalar code, and a lane
//! the scalar code would skip keeps its old value. A skipped term is a
//! select, never an added `+ 0.0`: `0 · ∞` and `0 · NaN` are NaN, so
//! adding the zeroed term would poison a lane the reference leaves
//! finite.
//! `tests/slab_vs_scalar.rs` pins every kernel against the allocating
//! path with `to_bits` comparisons at K = 1 and K = 8.
//!
//! Lanes that hit a numeric failure (singular LU, rejected Cholesky
//! pivot or projection) are reported via per-lane flags; their buffers
//! may hold garbage (inf/NaN propagated through masked arithmetic) which
//! callers must discard — IEEE arithmetic on garbage lanes cannot trap
//! or affect neighbouring lanes. There is no lane-batched
//! eigendecomposition: a caller copies each lane the whitening or the
//! projection rejects out with `store_lane` and runs the allocating
//! pseudo-inverse on it (the one [`crate::SymmetricEigen`]), so a tick
//! with no rejected lane allocates nothing.
//!
//! Shape mismatches panic, matching the operator-overload contract of
//! [`Matrix`] arithmetic: all shapes come from a validated system
//! description.
// Lane loops are written in index form (`for l in 0..K`) throughout:
// every kernel touches several slabs at the same lane, the trip count
// is the const generic K, and keeping one uniform shape is what makes
// the bitwise-pinned kernels reviewable against the scalar reference.
#![allow(clippy::needless_range_loop)]

use crate::lu::PIVOT_TOL;
use crate::pseudo::RANK_TOL;
use crate::{LinalgError, Matrix, Result, Vector};
use std::ops::{AddAssign, SubAssign};

/// One term of a product entry, lane by lane: `acc + a·b`, or `acc`
/// unchanged where `a` is ±0.0 — the reference's zero-skip as a select
/// (see the module doc). The sum is formed in every lane before the
/// select so that LLVM emits a vector blend; with the sum inside the
/// `if`, it branches lane by lane in scalar code instead.
#[inline(always)]
fn add_term<const K: usize>(acc: &mut [f64; K], a: &[f64; K], b: &[f64; K]) {
    for l in 0..K {
        let sum = acc[l] + a[l] * b[l];
        acc[l] = if a[l] != 0.0 { sum } else { acc[l] };
    }
}

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
    /// `&a * &b`. Each entry sums its terms k-ascending from +0.0 in a
    /// register accumulator and is written once; the scalar zero-skip
    /// becomes a per-lane select (`add_term`), so each lane adds
    /// exactly the terms the scalar path would, in its order.
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
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.cols {
                let mut acc = [0.0; K];
                for (k, a) in a_row.iter().enumerate() {
                    add_term(&mut acc, a, rhs.at(k, j));
                }
                *out.at_mut(i, j) = acc;
            }
        }
    }

    /// Per-lane `self · rhsᵀ` into `out`; bitwise identical per lane to
    /// `&a * &b.transpose()` (entries summed as in
    /// [`mul_into`](Self::mul_into)).
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
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.rows {
                let mut acc = [0.0; K];
                for (a, b) in a_row.iter().zip(rhs.row(j)) {
                    add_term(&mut acc, a, b);
                }
                *out.at_mut(i, j) = acc;
            }
        }
    }

    /// Per-lane `self · rhs` with a lane-uniform (broadcast) right-hand
    /// side; bitwise identical per lane to `&a * rhs` with `rhs` as the
    /// scalar operand (entries summed as in [`mul_into`](Self::mul_into)).
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
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..rhs.cols() {
                let mut acc = [0.0; K];
                let rhs_col = rhs.as_slice()[j..].iter().step_by(rhs.cols());
                for (a, &b) in a_row.iter().zip(rhs_col) {
                    add_term(&mut acc, a, &[b; K]);
                }
                *out.at_mut(i, j) = acc;
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
        let n = self.cols;
        for i in 0..lhs.rows() {
            let lhs_row = &lhs.as_slice()[i * n..(i + 1) * n];
            for j in 0..self.rows {
                let mut acc = [0.0; K];
                for (&aik, b) in lhs_row.iter().zip(self.row(j)) {
                    if aik == 0.0 {
                        continue;
                    }
                    for l in 0..K {
                        acc[l] += aik * b[l];
                    }
                }
                *out.at_mut(i, j) = acc;
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

/// Lane-batched Cholesky whitening of symmetric covariances: the χ²
/// statistic `dᵀA⁻¹d = ‖L⁻¹d‖²` per lane, per lane bitwise identical to
/// [`crate::Cholesky::whitened_norm_squared`] (the factorization's row
/// order, then the forward substitution, then the squares summed in
/// index order).
///
/// Acceptance is tracked per lane, branch-free: a lane is accepted when
/// it is active, every entry of its matrix is finite, and every pivot
/// `Lⱼⱼ²` is above `RANK_TOL` (the pseudo-inverse's rank cutoff) × its
/// largest diagonal entry. Every lane factorizes and forward-solves; a
/// rejected lane computes garbage (the square root of a non-positive
/// pivot is NaN or zero) that the caller discards — like LU's singular
/// lanes — and takes the allocating pseudo-inverse instead. Rejected
/// active lanes are tallied in
/// [`crate::health::HealthSnapshot::cholesky_fallbacks`]; a call whose
/// active lanes are all accepted touches no counter.
///
/// The factor `L` is written into the lower triangle of a
/// caller-provided slab.
#[derive(Debug, Clone)]
pub struct CholeskySlabWorkspace<const K: usize> {
    /// `L⁻¹d`, solved row by row as the factor's rows complete.
    y: VectorSlab<K>,
    norm_squared: [f64; K],
}

impl<const K: usize> CholeskySlabWorkspace<K> {
    /// Allocates buffers for whitening length-`n` vectors by `n × n`
    /// covariances.
    pub fn new(n: usize) -> Self {
        CholeskySlabWorkspace {
            y: VectorSlab::zeros(n),
            norm_squared: [0.0; K],
        }
    }

    /// Workspace dimension.
    pub fn dim(&self) -> usize {
        self.y.len()
    }

    /// Factorizes every lane of `a` (lower triangle) into `factor`,
    /// whitens `d` and returns the per-lane acceptance flags: `true`
    /// means that lane's [`norm_squared`](Self::norm_squared) equals
    /// [`crate::Cholesky::whitened_norm_squared`] on that lane's inputs
    /// bit for bit; `false` for an active lane means the scalar
    /// reference returns `None` there. Inactive lanes report `false`.
    ///
    /// # Panics
    ///
    /// Panics if `a`, `d` or `factor` does not match the workspace
    /// dimension.
    pub fn whiten(
        &mut self,
        a: &MatrixSlab<K>,
        d: &VectorSlab<K>,
        factor: &mut MatrixSlab<K>,
        active: &[bool; K],
    ) -> [bool; K] {
        let n = self.dim();
        assert_shape("slab cholesky whiten", a.shape(), (n, n));
        assert_shape("slab cholesky factor", factor.shape(), (n, n));
        assert_eq!(
            d.len(),
            n,
            "slab cholesky whiten of a length-{} vector",
            d.len()
        );
        let mut accepted = *active;
        for g in &a.data {
            for l in 0..K {
                accepted[l] &= g[l].is_finite();
            }
        }
        // Pivot floor: RANK_TOL × the diagonal's maximum, folded in
        // index order like the scalar reference.
        let mut floor = [0.0f64; K];
        for i in 0..n {
            let g = a.at(i, i);
            for l in 0..K {
                floor[l] = floor[l].max(g[l]);
            }
        }
        for l in 0..K {
            floor[l] *= RANK_TOL;
        }
        self.y.copy_from(d);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = *a.at(i, j);
                for k in 0..j {
                    let fik = *factor.at(i, k);
                    let fjk = *factor.at(j, k);
                    for l in 0..K {
                        sum[l] -= fik[l] * fjk[l];
                    }
                }
                if i == j {
                    for l in 0..K {
                        // A NaN pivot fails the comparison too.
                        accepted[l] &= sum[l] > floor[l];
                        sum[l] = sum[l].sqrt();
                    }
                } else {
                    let fjj = *factor.at(j, j);
                    for l in 0..K {
                        sum[l] /= fjj[l];
                    }
                }
                *factor.at_mut(i, j) = sum;
            }
            // Row i of L is complete: solve for y_i (the forward
            // substitution's row i, which reads only L's rows ≤ i).
            let mut yi = self.y.data[i];
            for j in 0..i {
                let lij = factor.at(i, j);
                let yj = self.y.data[j];
                for l in 0..K {
                    yi[l] -= lij[l] * yj[l];
                }
            }
            let lii = factor.at(i, i);
            for l in 0..K {
                yi[l] /= lii[l];
            }
            self.y.data[i] = yi;
        }
        let mut acc = [0.0f64; K];
        for yi in &self.y.data {
            for l in 0..K {
                acc[l] += yi[l] * yi[l];
            }
        }
        self.norm_squared = acc;
        let rejected = (0..K).filter(|&l| active[l] && !accepted[l]).count();
        if rejected > 0 {
            crate::health::note_cholesky_fallbacks(rejected as u64);
        }
        accepted
    }

    /// Per-lane `‖L⁻¹d‖²` from the last [`whiten`](Self::whiten);
    /// garbage in lanes it did not accept.
    pub fn norm_squared(&self) -> &[f64; K] {
        &self.norm_squared
    }
}

/// Caller-provided scratch of [`ProjectedSlabWorkspace::factorize`],
/// overwritten by every call: the kernel borrows buffers its caller
/// already holds instead of allocating its own.
#[derive(Debug)]
pub struct ProjectionScratch<'a, const K: usize> {
    /// `m × m`: the orthonormal basis `Q = [Q₁ | U]`.
    pub basis: &'a mut MatrixSlab<K>,
    /// `m × m`: the Householder reflectors, then `T = P·Q`, then
    /// `V = U·L⁻ᵀ` (first `r` columns).
    pub product: &'a mut MatrixSlab<K>,
    /// Length `m`: `L⁻¹Uᵀν` (first `r` entries).
    pub whitened: &'a mut VectorSlab<K>,
}

/// Lane-batched projected pseudo-inverse of a symmetric covariance `P`
/// whose range is the null space of a known constraint `M`; per lane
/// bitwise identical to [`Matrix::projected_pseudo_inverse`] (same
/// reflectors, products, factorization and substitutions, in the same
/// order).
///
/// Acceptance is tracked per lane, branch-free: every lane builds its
/// basis, factorizes the projected block and solves, and a lane is
/// accepted when it is active, its block is finite, every pivot `Lⱼⱼ²`
/// is above the cutoff `floor.max(RANK_TOL · max diag)` and every
/// discarded direction's Rayleigh quotient is at most that cutoff. A
/// rejected lane holds garbage, like LU's singular lanes, and its caller
/// runs the allocating Jacobi pseudo-inverse there instead. Rejected
/// active lanes are tallied in
/// [`crate::health::HealthSnapshot::projection_fallbacks`]; a call whose
/// active lanes are all accepted touches no counter.
///
/// The block and its factor `L` live in the top-left `r × r` corner of
/// the output slab until `P⁺ = V·Vᵀ` overwrites it; the workspace itself
/// holds only the cutoff's floor and two per-lane results.
#[derive(Debug, Clone)]
pub struct ProjectedSlabWorkspace<const K: usize> {
    floor: f64,
    sqrt_pseudo_determinant: [f64; K],
    statistic: [f64; K],
}

impl<const K: usize> ProjectedSlabWorkspace<K> {
    /// A workspace whose rank cutoff never falls below `floor`.
    pub fn new(floor: f64) -> Self {
        ProjectedSlabWorkspace {
            floor,
            sqrt_pseudo_determinant: [1.0; K],
            statistic: [0.0; K],
        }
    }

    /// Projects every lane of the symmetric `m × m` slab `p` onto the
    /// null space of the lane's `q × m` `constraint` (all of `ℝᵐ` when
    /// `None`), writes `P⁺` into `pinv`, and returns the per-lane
    /// acceptance flags: `true` means that lane's `pinv`,
    /// [`sqrt_pseudo_determinant`](Self::sqrt_pseudo_determinant) and
    /// [`statistic`](Self::statistic) (of `nu`) equal
    /// [`Matrix::projected_pseudo_inverse`]'s on that lane's inputs bit
    /// for bit, at rank `m − q`; `false` for an active lane means the
    /// scalar reference returns `None` there. Inactive lanes report
    /// `false`.
    ///
    /// # Panics
    ///
    /// Panics on mismatched shapes.
    pub fn factorize(
        &mut self,
        p: &MatrixSlab<K>,
        constraint: Option<&MatrixSlab<K>>,
        nu: &VectorSlab<K>,
        scratch: ProjectionScratch<'_, K>,
        pinv: &mut MatrixSlab<K>,
        active: &[bool; K],
    ) -> [bool; K] {
        let m = p.rows();
        assert_shape("slab projection", p.shape(), (m, m));
        assert_shape("slab projection pinv", pinv.shape(), (m, m));
        assert_shape("slab projection basis", scratch.basis.shape(), (m, m));
        assert_shape("slab projection product", scratch.product.shape(), (m, m));
        assert!(
            nu.len() == m && scratch.whitened.len() == m,
            "slab projection of a length-{} vector with length-{} scratch",
            nu.len(),
            scratch.whitened.len()
        );
        let q = constraint.map_or(0, MatrixSlab::rows);
        if let Some(c) = constraint {
            assert!(
                c.cols() == m && q <= m,
                "slab projection constraint of shape {:?} for side {m}",
                c.shape()
            );
        }
        let r = m - q;
        let ProjectionScratch {
            basis,
            product,
            whitened,
        } = scratch;

        // Q = H₀·H₁ ⋯ H_{q−1}; rows 0..q of `product` hold the working
        // copy of the constraint, each overwritten by its reflector.
        basis.set_identity();
        if let Some(c) = constraint {
            let w = &mut *product;
            for j in 0..q {
                for k in 0..m {
                    *w.at_mut(j, k) = *c.at(j, k);
                }
            }
            for j in 0..q {
                let xj = *w.at(j, j);
                let mut norm_sq = [0.0f64; K];
                for l in 0..K {
                    norm_sq[l] = xj[l] * xj[l];
                }
                for k in (j + 1)..m {
                    let x = w.at(j, k);
                    for l in 0..K {
                        norm_sq[l] += x[l] * x[l];
                    }
                }
                let mut tau = [0.0f64; K];
                let mut vj = [0.0f64; K];
                for l in 0..K {
                    let norm = norm_sq[l].sqrt();
                    tau[l] = 1.0 / (norm * (norm + xj[l].abs()));
                    vj[l] = xj[l] + norm.copysign(xj[l]);
                }
                *w.at_mut(j, j) = vj;
                for i in (j + 1)..q {
                    let mut s = [0.0f64; K];
                    for k in j..m {
                        let (v, x) = (w.at(j, k), w.at(i, k));
                        for l in 0..K {
                            s[l] += v[l] * x[l];
                        }
                    }
                    for l in 0..K {
                        s[l] *= tau[l];
                    }
                    for k in j..m {
                        let v = *w.at(j, k);
                        let x = w.at_mut(i, k);
                        for l in 0..K {
                            x[l] -= s[l] * v[l];
                        }
                    }
                }
                for i in 0..m {
                    let mut s = [0.0f64; K];
                    for k in j..m {
                        let (b, v) = (basis.at(i, k), w.at(j, k));
                        for l in 0..K {
                            s[l] += b[l] * v[l];
                        }
                    }
                    for l in 0..K {
                        s[l] *= tau[l];
                    }
                    for k in j..m {
                        let v = *w.at(j, k);
                        let b = basis.at_mut(i, k);
                        for l in 0..K {
                            b[l] -= s[l] * v[l];
                        }
                    }
                }
            }
        }

        // T = P·Q.
        let t = &mut *product;
        for i in 0..m {
            for k in 0..m {
                let mut acc = [0.0f64; K];
                for j in 0..m {
                    let (a, b) = (p.at(i, j), basis.at(j, k));
                    for l in 0..K {
                        acc[l] += a[l] * b[l];
                    }
                }
                *t.at_mut(i, k) = acc;
            }
        }

        // The block UᵀPU (lower triangle) into the corner of `pinv`.
        let mut accepted = *active;
        for a in 0..r {
            for b in 0..=a {
                let mut acc = [0.0f64; K];
                for i in 0..m {
                    let (u, x) = (basis.at(i, q + a), t.at(i, q + b));
                    for l in 0..K {
                        acc[l] += u[l] * x[l];
                    }
                }
                for l in 0..K {
                    accepted[l] &= acc[l].is_finite();
                }
                *pinv.at_mut(a, b) = acc;
            }
        }
        let mut cutoff = [0.0f64; K];
        for a in 0..r {
            let d = pinv.at(a, a);
            for l in 0..K {
                cutoff[l] = cutoff[l].max(d[l]);
            }
        }
        for l in 0..K {
            cutoff[l] = self.floor.max(RANK_TOL * cutoff[l]);
        }
        for c in 0..q {
            let mut rayleigh = [0.0f64; K];
            for i in 0..m {
                let (u, x) = (basis.at(i, c), t.at(i, c));
                for l in 0..K {
                    rayleigh[l] += u[l] * x[l];
                }
            }
            for l in 0..K {
                // A NaN quotient fails the comparison too.
                accepted[l] &= rayleigh[l].abs() <= cutoff[l];
            }
        }

        // L in place of the block, in `Cholesky::new`'s order.
        for i in 0..r {
            for j in 0..=i {
                let mut sum = *pinv.at(i, j);
                for k in 0..j {
                    let (fik, fjk) = (*pinv.at(i, k), *pinv.at(j, k));
                    for l in 0..K {
                        sum[l] -= fik[l] * fjk[l];
                    }
                }
                if i == j {
                    for l in 0..K {
                        accepted[l] &= sum[l] > cutoff[l];
                        sum[l] = sum[l].sqrt();
                    }
                } else {
                    let fjj = *pinv.at(j, j);
                    for l in 0..K {
                        sum[l] /= fjj[l];
                    }
                }
                *pinv.at_mut(i, j) = sum;
            }
        }

        // y = L⁻¹Uᵀν, ‖y‖² and Π Lⱼⱼ.
        let mut statistic = [0.0f64; K];
        let mut sqrt_pdet = [1.0f64; K];
        for a in 0..r {
            let mut acc = [0.0f64; K];
            for i in 0..m {
                let (u, x) = (basis.at(i, q + a), nu.at(i));
                for l in 0..K {
                    acc[l] += u[l] * x[l];
                }
            }
            for b in 0..a {
                let (lab, yb) = (pinv.at(a, b), whitened.at(b));
                for l in 0..K {
                    acc[l] -= lab[l] * yb[l];
                }
            }
            let laa = pinv.at(a, a);
            for l in 0..K {
                acc[l] /= laa[l];
            }
            *whitened.at_mut(a) = acc;
        }
        for a in 0..r {
            let (y, laa) = (whitened.at(a), pinv.at(a, a));
            for l in 0..K {
                statistic[l] += y[l] * y[l];
                sqrt_pdet[l] *= laa[l];
            }
        }
        self.statistic = statistic;
        self.sqrt_pseudo_determinant = sqrt_pdet;

        // V = U·L⁻ᵀ row by row into `product`, then P⁺ = V·Vᵀ.
        let v = &mut *product;
        for i in 0..m {
            for a in 0..r {
                let mut acc = *basis.at(i, q + a);
                for b in 0..a {
                    let (lab, vib) = (pinv.at(a, b), v.at(i, b));
                    for l in 0..K {
                        acc[l] -= lab[l] * vib[l];
                    }
                }
                let laa = pinv.at(a, a);
                for l in 0..K {
                    acc[l] /= laa[l];
                }
                *v.at_mut(i, a) = acc;
            }
        }
        for i in 0..m {
            for j in 0..=i {
                let mut acc = [0.0f64; K];
                for a in 0..r {
                    let (x, y) = (v.at(i, a), v.at(j, a));
                    for l in 0..K {
                        acc[l] += x[l] * y[l];
                    }
                }
                *pinv.at_mut(i, j) = acc;
                *pinv.at_mut(j, i) = acc;
            }
        }
        let rejected = (0..K).filter(|&l| active[l] && !accepted[l]).count();
        if rejected > 0 {
            crate::health::note_projection_fallbacks(rejected as u64);
        }
        accepted
    }

    /// Per-lane `Π Lⱼⱼ` (the square root of the pseudo-determinant) from
    /// the last [`factorize`](Self::factorize); garbage in lanes it did
    /// not accept.
    pub fn sqrt_pseudo_determinant(&self) -> &[f64; K] {
        &self.sqrt_pseudo_determinant
    }

    /// Per-lane `‖L⁻¹Uᵀν‖² = νᵀP⁺ν` from the last
    /// [`factorize`](Self::factorize); garbage in lanes it did not
    /// accept.
    pub fn statistic(&self) -> &[f64; K] {
        &self.statistic
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
