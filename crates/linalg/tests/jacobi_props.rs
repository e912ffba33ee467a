//! Seeded property suite for the lane-batched cyclic Jacobi: every
//! [`EigenSlabWorkspace`] lane must reproduce the allocating
//! [`SymmetricEigen`] bit for bit — eigenvalues, spectral maps, the
//! pseudo-inverse and convergence failures — over random symmetric
//! matrices of size 1–10, including diagonal, rank-deficient and
//! already-converged inputs, at the production widths K = 1 and K = 8,
//! with NaN lanes beside finite ones and lanes that converge on
//! different sweeps.
//!
//! Each case derives its inputs from one seed and names it on failure,
//! so a failing case reruns alone.
// Index-form lane loops, matching the convention of the kernels under
// test.
#![allow(clippy::needless_range_loop)]

use roboads_linalg::{EigenSlabWorkspace, LinalgError, Matrix, MatrixSlab, Vector, VectorSlab};

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::Rng;

/// This suite's draws on the shared generator.
trait Draw {
    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64;
    /// A magnitude spread over twelve decades, as covariance entries of
    /// mixed-unit sensors are.
    fn scale(&mut self) -> f64;
}

impl Draw for Rng {
    fn unit(&mut self) -> f64 {
        self.uniform(-1.0, 1.0)
    }

    fn scale(&mut self) -> f64 {
        10f64.powi(self.below(13) as i32 - 8)
    }
}

/// The input families the properties range over.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Dense symmetric with mixed-sign entries.
    Symmetric,
    /// Upper triangle random, lower triangle independent noise (both
    /// paths must read the upper triangle only).
    Asymmetric,
    /// Diagonal: converged before the first rotation.
    Diagonal,
    /// Off-diagonal entries far below the convergence tolerance.
    NearlyDiagonal,
    /// `B·Bᵀ` with `B` of rank < n: a PSD matrix with an exact-zero
    /// spectrum part, the shape the pseudo-inverse cutoff exists for.
    RankDeficient,
    /// A covariance-like SPD matrix, `B·Bᵀ + εI`.
    Covariance,
}

const SHAPES: [Shape; 6] = [
    Shape::Symmetric,
    Shape::Asymmetric,
    Shape::Diagonal,
    Shape::NearlyDiagonal,
    Shape::RankDeficient,
    Shape::Covariance,
];

fn gram(rng: &mut Rng, n: usize, rank: usize, scale: f64) -> Matrix {
    let b = Matrix::from_fn(n, rank, |_, _| rng.unit() * scale);
    Matrix::from_fn(n, n, |i, j| (0..rank).map(|k| b[(i, k)] * b[(j, k)]).sum())
}

fn sample(rng: &mut Rng, shape: Shape, n: usize) -> Matrix {
    let scale = rng.scale();
    match shape {
        Shape::Symmetric => {
            let upper = Matrix::from_fn(n, n, |_, _| rng.unit() * scale);
            Matrix::from_fn(n, n, |i, j| upper[(i.min(j), i.max(j))])
        }
        Shape::Asymmetric => Matrix::from_fn(n, n, |_, _| rng.unit() * scale),
        Shape::Diagonal => {
            let d: Vec<f64> = (0..n).map(|_| rng.unit() * scale).collect();
            Matrix::from_diagonal(&d)
        }
        Shape::NearlyDiagonal => {
            let d: Vec<f64> = (0..n).map(|_| (1.0 + rng.unit().abs()) * scale).collect();
            let upper = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    d[i]
                } else {
                    rng.unit() * scale * 1e-17
                }
            });
            Matrix::from_fn(n, n, |i, j| upper[(i.min(j), i.max(j))])
        }
        Shape::RankDeficient => {
            let rank = rng.below(n);
            gram(rng, n, rank, scale)
        }
        Shape::Covariance => {
            let mut m = gram(rng, n, n, scale);
            for i in 0..n {
                m[(i, i)] += 1e-6 * scale * scale;
            }
            m
        }
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Checks one input on a one-lane slab against the allocating
/// reference; `case` names the seed and shape in every failure message.
fn check_one_lane(m: &Matrix, case: &str) {
    check_slab_against_allocating::<1>(std::slice::from_ref(m), &[true], case);
}

#[test]
fn workspace_jacobi_equals_allocating_eigen_bitwise() {
    for seed in 0..600u64 {
        let mut rng = Rng::new(seed);
        let n = 1 + rng.below(10);
        let shape = SHAPES[seed as usize % SHAPES.len()];
        let m = sample(&mut rng, shape, n);
        check_one_lane(&m, &format!("seed {seed} ({shape:?}, n = {n})"));
    }
}

#[test]
fn every_size_and_shape_is_covered() {
    // The seeded sweep above draws sizes at random; this pins each
    // size × shape combination at least once.
    for n in 1..=10 {
        for (s, &shape) in SHAPES.iter().enumerate() {
            let seed = 10_000 + (n * SHAPES.len() + s) as u64;
            let mut rng = Rng::new(seed);
            let m = sample(&mut rng, shape, n);
            check_one_lane(&m, &format!("seed {seed} ({shape:?}, n = {n})"));
        }
    }
}

#[test]
fn non_finite_input_fails_identically() {
    for seed in 0..20u64 {
        let mut rng = Rng::new(seed);
        let n = 2 + rng.below(9);
        let mut m = sample(&mut rng, Shape::Symmetric, n);
        let (i, j) = (rng.below(n), rng.below(n));
        m[(i.min(j), i.max(j))] = f64::NAN;
        check_one_lane(&m, &format!("seed {seed} (NaN at ({i},{j}), n = {n})"));
    }
}

/// Decomposes `lanes` on an `EigenSlabWorkspace<K>` and checks every
/// active lane against the allocating [`SymmetricEigen`] and
/// [`Matrix::pseudo_inverse`]: the convergence flag against the
/// reference's `NoConvergence`, and eigenvalues, the largest eigenvalue
/// and three spectral maps bit for bit. An inactive lane must report
/// unconverged.
fn check_slab_against_allocating<const K: usize>(lanes: &[Matrix], active: &[bool; K], case: &str) {
    let n = lanes[0].rows();
    let mut slab = MatrixSlab::<K>::zeros(n, n);
    for (l, m) in lanes.iter().enumerate() {
        slab.load_lane(l, m);
    }
    let mut ws = EigenSlabWorkspace::<K>::new(n);
    let converged = ws.factorize(&slab, active);
    let mut cutoffs = [0.0f64; K];
    for l in 0..K {
        if converged[l] {
            cutoffs[l] = ws.spectrum_cutoff(l);
        }
    }
    let pinv_lane = |l: usize, lam: f64| {
        if converged[l] && lam.abs() > cutoffs[l] {
            1.0 / lam
        } else {
            0.0
        }
    };
    let mut identity = MatrixSlab::<K>::zeros(n, n);
    let mut positive = MatrixSlab::<K>::zeros(n, n);
    let mut pinv = MatrixSlab::<K>::zeros(n, n);
    ws.spectral_map_into(|_, lam| lam, &mut identity);
    // Zeroes the negative part of each lane's spectrum, so lanes skip
    // different eigenvalues in the same accumulation.
    ws.spectral_map_into(|_, lam| lam.max(0.0), &mut positive);
    ws.spectral_map_into(pinv_lane, &mut pinv);

    let mut lane_values = Vector::zeros(n);
    let mut lane_out = Matrix::zeros(n, n);
    for l in 0..K {
        let case = format!("{case} lane {l} (n = {n})");
        if !active[l] {
            assert!(!converged[l], "{case}: inactive lane reported converged");
            continue;
        }
        let eig = match lanes[l].symmetric_eigen() {
            Ok(eig) => eig,
            Err(LinalgError::NoConvergence { .. }) => {
                assert!(!converged[l], "{case}: reference failed, lane converged");
                continue;
            }
            Err(e) => panic!("{case}: unexpected reference error {e:?}"),
        };
        assert!(converged[l], "{case}: reference converged, lane did not");
        VectorSlab::store_lane(ws.eigenvalues(), l, &mut lane_values);
        assert_eq!(
            bits(lane_values.as_slice()),
            bits(eig.eigenvalues().as_slice()),
            "{case}: eigenvalues"
        );
        assert_eq!(
            ws.max_eigenvalue(l).to_bits(),
            eig.max_eigenvalue().to_bits(),
            "{case}: max eigenvalue"
        );
        let maps: [(&str, &MatrixSlab<K>, Matrix); 3] = [
            ("identity", &identity, eig.spectral_map(|lam| lam)),
            (
                "positive part",
                &positive,
                eig.spectral_map(|lam| lam.max(0.0)),
            ),
            ("pseudo-inverse", &pinv, lanes[l].pseudo_inverse().unwrap()),
        ];
        for (name, got, expected) in maps {
            got.store_lane(l, &mut lane_out);
            assert_eq!(
                bits(lane_out.as_slice()),
                bits(expected.as_slice()),
                "{case}: {name}"
            );
        }
    }
}

/// Random lanes of mixed shapes with one lane's activity drawn at
/// random, at width `K`.
fn slab_lanes_at_width<const K: usize>(seed_base: u64) {
    for seed in 0..200u64 {
        let seed = seed_base + seed;
        let mut rng = Rng::new(seed);
        let n = 1 + rng.below(10);
        let lanes: Vec<Matrix> = (0..K)
            .map(|l| sample(&mut rng, SHAPES[(seed as usize + l) % SHAPES.len()], n))
            .collect();
        let mut active = [true; K];
        active[rng.below(K)] = rng.below(2) == 0;
        check_slab_against_allocating(&lanes, &active, &format!("seed {seed} (K = {K})"));
    }
}

#[test]
fn one_lane_slab_equals_the_allocating_eigen() {
    slab_lanes_at_width::<1>(30_000);
}

#[test]
fn eight_lane_slab_equals_the_allocating_eigen() {
    slab_lanes_at_width::<8>(40_000);
}

/// A NaN lane never converges and leaves its finite neighbours exact,
/// wherever the NaN sits (diagonal or off-diagonal) and at either
/// production width.
fn nan_lane_among_finite_lanes<const K: usize>(seed_base: u64) {
    for seed in 0..40u64 {
        let seed = seed_base + seed;
        let mut rng = Rng::new(seed);
        let n = 2 + rng.below(9);
        let mut lanes: Vec<Matrix> = (0..K)
            .map(|l| sample(&mut rng, SHAPES[(seed as usize + l) % SHAPES.len()], n))
            .collect();
        let bad = rng.below(K);
        let (i, j) = (rng.below(n), rng.below(n));
        lanes[bad] = sample(&mut rng, Shape::Covariance, n);
        lanes[bad][(i.min(j), i.max(j))] = f64::NAN;
        check_slab_against_allocating(
            &lanes,
            &[true; K],
            &format!("seed {seed} (K = {K}, NaN at ({i},{j}) in lane {bad})"),
        );
    }
}

#[test]
fn nan_lane_beside_finite_lanes_fails_alone() {
    nan_lane_among_finite_lanes::<1>(50_000);
    nan_lane_among_finite_lanes::<8>(51_000);
}

#[test]
fn lanes_converging_on_different_sweeps_stay_exact() {
    // A diagonal lane converges at the first sweep-top check while its
    // covariance neighbours rotate for several sweeps: the frozen lane's
    // selects must keep every value through the neighbours' rotations.
    for seed in 0..60u64 {
        let seed = 60_000 + seed;
        let mut rng = Rng::new(seed);
        let n = 2 + rng.below(9);
        let lanes: Vec<Matrix> = (0..8)
            .map(|l| {
                let shape = if (l + seed as usize).is_multiple_of(2) {
                    Shape::Diagonal
                } else {
                    Shape::Covariance
                };
                sample(&mut rng, shape, n)
            })
            .collect();
        check_slab_against_allocating::<8>(&lanes, &[true; 8], &format!("seed {seed}"));
    }
}

#[test]
fn lanes_that_skip_a_pair_keep_it_exact() {
    // Every other lane enters the first rotation, (0, 1), with an exact
    // zero there and equal diagonal entries: the scalar path skips the
    // pair (its rotation angle would be 0/0), so the lane's selects must
    // keep the block and rows 0 and 1 bit for bit while its neighbours
    // rotate them.
    for seed in 0..60u64 {
        let seed = 70_000 + seed;
        let mut rng = Rng::new(seed);
        let n = 2 + rng.below(9);
        let lanes: Vec<Matrix> = (0..8)
            .map(|l| {
                let mut m = sample(&mut rng, Shape::Covariance, n);
                if l % 2 == 1 {
                    m[(0, 1)] = 0.0;
                    m[(1, 0)] = 0.0;
                    m[(1, 1)] = m[(0, 0)];
                }
                m
            })
            .collect();
        check_slab_against_allocating::<8>(&lanes, &[true; 8], &format!("seed {seed}"));
    }
}
