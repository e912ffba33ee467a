//! Seeded property suite for the cyclic Jacobi kernels: the in-place
//! [`EigenWorkspace`] (flat row-major storage) must reproduce the
//! allocating [`SymmetricEigen`] bit for bit — eigenvalues, spectral
//! maps and errors — over random symmetric matrices of size 1–10,
//! including diagonal, rank-deficient and already-converged inputs; and
//! every [`EigenSlabWorkspace`] lane must still equal the scalar path.
//!
//! Each case derives its inputs from one seed and names it on failure,
//! so a failing case reruns alone.
// Index-form lane loops, matching the convention of the kernels under
// test.
#![allow(clippy::needless_range_loop)]

use roboads_linalg::{
    EigenSlabWorkspace, EigenWorkspace, LinalgError, Matrix, MatrixSlab, Vector, VectorSlab,
};

/// xorshift64* — deterministic, dependency-free randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // Any non-zero state works; mix the seed so neighbours diverge.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// A magnitude spread over twelve decades, as covariance entries of
    /// mixed-unit sensors are.
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

/// A relative-cutoff reciprocal, the shape of the pseudo-inverse map.
fn pinv_map(eigenvalues: &[f64]) -> impl Fn(f64) -> f64 {
    let max_abs = eigenvalues.iter().fold(0.0f64, |a, &l| a.max(l.abs()));
    let cutoff = 1e-10 * max_abs.max(f64::MIN_POSITIVE);
    move |l: f64| if l.abs() > cutoff { 1.0 / l } else { 0.0 }
}

/// Checks one input against the allocating reference; `case` names the
/// seed and shape in every failure message.
fn check_scalar(m: &Matrix, case: &str) {
    let n = m.rows();
    let mut ws = EigenWorkspace::new(n);
    let reference = m.symmetric_eigen();
    let got = ws.factorize(m);
    let eig = match (reference, got) {
        (Ok(eig), Ok(())) => eig,
        (Err(LinalgError::NoConvergence { .. }), Err(LinalgError::NoConvergence { .. })) => {
            return;
        }
        (r, g) => panic!("{case}: reference {:?} vs workspace {g:?}", r.map(|_| ())),
    };
    assert_eq!(
        bits(ws.eigenvalues().as_slice()),
        bits(eig.eigenvalues().as_slice()),
        "{case}: eigenvalues"
    );
    assert_eq!(
        ws.max_eigenvalue().to_bits(),
        eig.max_eigenvalue().to_bits(),
        "{case}: max eigenvalue"
    );
    let mut out = Matrix::zeros(n, n);
    let mut check_map = |name: &str, f: &dyn Fn(f64) -> f64| {
        ws.spectral_map_into(f, &mut out);
        let expected = eig.spectral_map(f);
        assert_eq!(
            bits(out.as_slice()),
            bits(expected.as_slice()),
            "{case}: spectral map `{name}`"
        );
    };
    check_map("identity", &|l| l);
    check_map("pinv", &pinv_map(eig.eigenvalues().as_slice()));
    // Zeroes the negative part of the spectrum: exercises the
    // zero-skip branch on dense spectra.
    check_map("positive part", &|l: f64| l.max(0.0));
    // The pseudo-inverse entry point shares the same kernels.
    let mut pinv = Matrix::zeros(n, n);
    m.pseudo_inverse_into(&mut ws, &mut pinv).unwrap();
    assert_eq!(
        bits(pinv.as_slice()),
        bits(m.pseudo_inverse().unwrap().as_slice()),
        "{case}: pseudo-inverse"
    );
}

#[test]
fn workspace_jacobi_equals_allocating_eigen_bitwise() {
    for seed in 0..600u64 {
        let mut rng = Rng::new(seed);
        let n = 1 + rng.below(10);
        let shape = SHAPES[seed as usize % SHAPES.len()];
        let m = sample(&mut rng, shape, n);
        check_scalar(&m, &format!("seed {seed} ({shape:?}, n = {n})"));
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
            check_scalar(&m, &format!("seed {seed} ({shape:?}, n = {n})"));
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
        check_scalar(&m, &format!("seed {seed} (NaN at ({i},{j}), n = {n})"));
    }
}

#[test]
fn slab_lanes_equal_the_scalar_workspace() {
    const K: usize = 4;
    for seed in 0..200u64 {
        let mut rng = Rng::new(20_000 + seed);
        let n = 1 + rng.below(10);
        let lanes: Vec<Matrix> = (0..K)
            .map(|l| {
                let shape = SHAPES[(seed as usize + l) % SHAPES.len()];
                sample(&mut rng, shape, n)
            })
            .collect();
        let mut active = [true; K];
        active[rng.below(K)] = rng.below(2) == 0;
        let mut slab = MatrixSlab::<K>::zeros(n, n);
        for (l, m) in lanes.iter().enumerate() {
            slab.load_lane(l, m);
        }
        let mut ws = EigenSlabWorkspace::<K>::new(n);
        let converged = ws.factorize(&slab, &active);
        let mut cutoffs = [0.0f64; K];
        for l in 0..K {
            if converged[l] {
                cutoffs[l] = ws.spectrum_cutoff(l);
            }
        }
        let mut pinv = MatrixSlab::<K>::zeros(n, n);
        ws.spectral_map_into(
            |l, lam| {
                if converged[l] && lam.abs() > cutoffs[l] {
                    1.0 / lam
                } else {
                    0.0
                }
            },
            &mut pinv,
        );

        let mut scalar = EigenWorkspace::new(n);
        let mut lane_values = Vector::zeros(n);
        let mut lane_pinv = Matrix::zeros(n, n);
        let mut expected = Matrix::zeros(n, n);
        for l in 0..K {
            let case = format!("seed {} lane {l} (n = {n})", 20_000 + seed);
            if !active[l] {
                assert!(!converged[l], "{case}: inactive lane reported converged");
                continue;
            }
            let scalar_ok = scalar.factorize(&lanes[l]).is_ok();
            assert_eq!(converged[l], scalar_ok, "{case}: convergence flag");
            if !scalar_ok {
                continue;
            }
            VectorSlab::store_lane(ws.eigenvalues(), l, &mut lane_values);
            assert_eq!(
                bits(lane_values.as_slice()),
                bits(scalar.eigenvalues().as_slice()),
                "{case}: eigenvalues"
            );
            assert_eq!(
                ws.max_eigenvalue(l).to_bits(),
                scalar.max_eigenvalue().to_bits(),
                "{case}: max eigenvalue"
            );
            lanes[l]
                .pseudo_inverse_into(&mut scalar, &mut expected)
                .unwrap();
            pinv.store_lane(l, &mut lane_pinv);
            assert_eq!(
                bits(lane_pinv.as_slice()),
                bits(expected.as_slice()),
                "{case}: pseudo-inverse"
            );
        }
    }
}
