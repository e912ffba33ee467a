//! Seeded property suite for the allocating linear-algebra path — the
//! reference every in-place and slab kernel is pinned against, so its
//! algebraic identities must hold on their own: product laws, LU and
//! Cholesky residuals, eigen reconstruction, Moore–Penrose, rank and
//! congruence PSD-ness.
//!
//! Each case derives its inputs from one seed and names it on failure,
//! so a failing case reruns alone.

use roboads_linalg::{Matrix, Vector};

/// Cases per property.
const CASES: u64 = 256;

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

    /// Uniform in [-5, 5).
    fn entry(&mut self) -> f64 {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) * 5.0
    }

    /// An `n × n` matrix with entries in [-5, 5).
    fn square(&mut self, n: usize) -> Matrix {
        Matrix::from_fn(n, n, |_, _| self.entry())
    }

    /// An SPD matrix built as `B·Bᵀ + 0.5·I` from a random factor `B`.
    fn spd(&mut self, n: usize) -> Matrix {
        let b = self.square(n);
        &(&b * &b.transpose()) + &(Matrix::identity(n) * 0.5)
    }

    /// The symmetric part of a random square matrix.
    fn symmetric(&mut self, n: usize) -> Matrix {
        let a = self.square(n);
        (&a + &a.transpose()) * 0.5
    }

    fn vector(&mut self, n: usize) -> Vector {
        Vector::from_fn(n, |_| self.entry())
    }
}

/// Runs `property` once per seed, naming the seed in any failure.
fn for_each_seed(property: impl Fn(&mut Rng) -> Result<(), String>) {
    for seed in 0..CASES {
        if let Err(msg) = property(&mut Rng::new(seed)) {
            panic!("seed {seed}: {msg}");
        }
    }
}

/// `Err` naming `what` and the offending value unless `ok`.
fn check(ok: bool, what: &str, value: impl std::fmt::Debug) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what} ({value:?})"))
    }
}

#[test]
fn transpose_reverses_products() {
    for_each_seed(|rng| {
        let (a, b) = (rng.square(3), rng.square(3));
        let err = (&(&a * &b).transpose() - &(&b.transpose() * &a.transpose())).max_abs();
        check(err < 1e-9, "(AB)ᵀ ≠ BᵀAᵀ", err)
    });
}

#[test]
fn matmul_is_associative() {
    for_each_seed(|rng| {
        let (a, b, c) = (rng.square(3), rng.square(3), rng.square(3));
        let err = (&(&(&a * &b) * &c) - &(&a * &(&b * &c))).max_abs();
        check(err < 1e-8, "(AB)C ≠ A(BC)", err)
    });
}

#[test]
fn matmul_distributes_over_addition() {
    for_each_seed(|rng| {
        let (a, b, c) = (rng.square(3), rng.square(3), rng.square(3));
        let err = (&(&a * &(&b + &c)) - &(&(&a * &b) + &(&a * &c))).max_abs();
        check(err < 1e-9, "A(B + C) ≠ AB + AC", err)
    });
}

#[test]
fn lu_solve_residual_is_small() {
    for_each_seed(|rng| {
        let (a, b) = (rng.spd(4), rng.vector(4));
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = (&(&a * &x) - &b).norm();
        check(r < 1e-8 * (1.0 + b.norm()), "LU residual", r)
    });
}

#[test]
fn inverse_round_trips() {
    for_each_seed(|rng| {
        let a = rng.spd(4);
        let err = (&(&a * &a.inverse().unwrap()) - &Matrix::identity(4)).max_abs();
        check(err < 1e-7, "A·A⁻¹ ≠ I", err)
    });
}

#[test]
fn cholesky_reconstructs() {
    for_each_seed(|rng| {
        let a = rng.spd(4);
        let l = a.cholesky().unwrap().l().clone();
        let err = (&(&l * &l.transpose()) - &a).max_abs();
        check(err < 1e-8 * (1.0 + a.max_abs()), "L·Lᵀ ≠ A", err)
    });
}

#[test]
fn cholesky_and_lu_determinants_agree() {
    for_each_seed(|rng| {
        let a = rng.spd(3);
        let lnd = a.cholesky().unwrap().ln_determinant();
        let det = a.determinant().unwrap();
        check(det > 0.0, "SPD determinant not positive", det)?;
        check(
            (lnd - det.ln()).abs() < 1e-7,
            "ln det mismatch",
            (lnd, det.ln()),
        )
    });
}

#[test]
fn eigen_reconstructs_symmetric() {
    for_each_seed(|rng| {
        let sym = rng.symmetric(4);
        let rec = sym.symmetric_eigen().unwrap().spectral_map(|l| l);
        let err = (&rec - &sym).max_abs();
        check(err < 1e-8 * (1.0 + sym.max_abs()), "V·Λ·Vᵀ ≠ A", err)
    });
}

#[test]
fn eigenvalue_sum_is_trace() {
    for_each_seed(|rng| {
        let sym = rng.symmetric(4);
        let eig = sym.symmetric_eigen().unwrap();
        let sum: f64 = eig.eigenvalues().as_slice().iter().sum();
        let err = (sum - sym.trace()).abs();
        check(err < 1e-8 * (1.0 + sym.trace().abs()), "Σλ ≠ tr A", err)
    });
}

#[test]
fn pseudo_inverse_satisfies_moore_penrose() {
    for_each_seed(|rng| {
        let sym = rng.symmetric(3);
        let p = sym.pseudo_inverse().unwrap();
        let apa = (&(&(&sym * &p) * &sym) - &sym).max_abs();
        check(apa < 1e-6 * (1.0 + sym.max_abs()), "A·A†·A ≠ A", apa)?;
        let pap = (&(&(&p * &sym) * &p) - &p).max_abs();
        check(pap < 1e-6 * (1.0 + p.max_abs()), "A†·A·A† ≠ A†", pap)
    });
}

#[test]
fn rank_of_outer_product_is_at_most_factor_rank() {
    for_each_seed(|rng| {
        let m = rng.vector(4).to_column_matrix();
        let r = (&m * &m.transpose()).rank().unwrap();
        check(r <= 1, "rank of v·vᵀ above 1", r)?;
        check(
            m.max_abs() <= 1e-6 || r == 1,
            "rank of nonzero v·vᵀ not 1",
            r,
        )
    });
}

#[test]
fn congruence_preserves_psd() {
    for_each_seed(|rng| {
        let (a, p) = (rng.square(3), rng.spd(3));
        let c = a.congruence(&p).unwrap();
        let psd = c
            .is_positive_semi_definite(1e-7 * (1.0 + c.max_abs()))
            .unwrap();
        check(
            psd,
            "A·P·Aᵀ not PSD",
            c.symmetric_eigen().unwrap().min_eigenvalue(),
        )
    });
}

#[test]
fn quadratic_form_nonnegative_for_psd() {
    for_each_seed(|rng| {
        let (p, v) = (rng.spd(3), rng.vector(3));
        let q = v.quadratic_form(&p).unwrap();
        check(q >= -1e-9, "vᵀ·P·v negative", q)
    });
}

#[test]
fn vstack_hstack_round_trip() {
    for_each_seed(|rng| {
        let a = rng.square(3);
        let stacked = a.block(0, 0, 1, 3).vstack(&a.block(1, 0, 2, 3)).unwrap();
        check(stacked == a, "vstack of row blocks ≠ A", &stacked)?;
        let joined = a.block(0, 0, 3, 2).hstack(&a.block(0, 2, 3, 1)).unwrap();
        check(joined == a, "hstack of column blocks ≠ A", &joined)
    });
}
