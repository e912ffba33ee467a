//! Seeded property suite for the allocating linear-algebra path — the
//! reference every in-place and slab kernel is pinned against, so its
//! algebraic identities must hold on their own: product laws, LU and
//! Cholesky residuals, eigen reconstruction, Moore–Penrose, rank,
//! congruence PSD-ness, the whitened χ² statistic against the
//! pseudo-inverse one, and the projected pseudo-inverse of an
//! obliquely projected covariance against the Jacobi one. The Jacobi
//! ([`roboads_linalg::SymmetricEigen`], the crate's one
//! eigendecomposition) is drawn over sizes 1–10 and twelve decades of
//! scale, on diagonal, nearly diagonal, rank-deficient and
//! pair-skipping spectra, with the lower triangle replaced by noise it
//! must ignore.
//!
//! Each case derives its inputs from one seed and names it on failure,
//! so a failing case reruns alone.

use roboads_linalg::{Cholesky, LinalgError, Matrix, Vector, JACOBI_MAX_SWEEPS};

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::{check, for_each_seed, Rng};

/// This suite's draws on the shared generator.
trait Draw {
    /// Uniform in [-5, 5).
    fn entry(&mut self) -> f64;
    /// An `n × n` matrix with entries in [-5, 5).
    fn square(&mut self, n: usize) -> Matrix;
    /// An SPD matrix built as `B·Bᵀ + 0.5·I` from a random factor `B`.
    fn spd(&mut self, n: usize) -> Matrix;
    /// The symmetric part of a random square matrix.
    fn symmetric(&mut self, n: usize) -> Matrix;
    fn vector(&mut self, n: usize) -> Vector;
}

impl Draw for Rng {
    fn entry(&mut self) -> f64 {
        self.uniform(-1.0, 1.0) * 5.0
    }

    fn square(&mut self, n: usize) -> Matrix {
        Matrix::from_fn(n, n, |_, _| self.entry())
    }

    fn spd(&mut self, n: usize) -> Matrix {
        let b = self.square(n);
        &(&b * &b.transpose()) + &(Matrix::identity(n) * 0.5)
    }

    fn symmetric(&mut self, n: usize) -> Matrix {
        let a = self.square(n);
        (&a + &a.transpose()) * 0.5
    }

    fn vector(&mut self, n: usize) -> Vector {
        Vector::from_fn(n, |_| self.entry())
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

/// `B·Bᵀ` for a random `n × rank` factor `B`: PSD with an exact null
/// space of dimension `n − rank`.
fn gram(rng: &mut Rng, n: usize, rank: usize) -> Matrix {
    let b = Matrix::from_fn(n, rank, |_, _| rng.entry());
    &b * &b.transpose()
}

/// An input to the Jacobi: `n` in 1–10, a scale in `10^-8..=10^4`, and
/// one of the spectra it meets (dense, diagonal, nearly diagonal, rank
/// deficient, a skipped first pair, SPD). Returns the input and the
/// symmetric matrix its upper triangle stands for; on a coin flip the
/// input's strictly lower triangle is independent noise.
fn eigen_input(rng: &mut Rng) -> (Matrix, Matrix) {
    let n = rng.index(1, 11);
    let scale = 10f64.powi(rng.below(13) as i32 - 8);
    let sym = match rng.below(6) {
        0 => rng.symmetric(n),
        // Converged before the first rotation.
        1 => Matrix::from_diagonal(&(0..n).map(|_| rng.entry()).collect::<Vec<_>>()),
        // Off-diagonal entries far below the convergence tolerance.
        2 => {
            let noise = rng.symmetric(n) * 1e-18;
            Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    5.0 + noise[(i, i)].abs() * 1e18
                } else {
                    noise[(i, j)]
                }
            })
        }
        3 => {
            let rank = rng.below(n);
            gram(rng, n, rank)
        }
        // An exact zero at (0, 1) between equal diagonal entries: the
        // first rotation's angle would be 0/0, so the pair is skipped.
        4 => {
            let mut m = rng.spd(n);
            if n > 1 {
                m[(0, 1)] = 0.0;
                m[(1, 0)] = 0.0;
                m[(1, 1)] = m[(0, 0)];
            }
            m
        }
        _ => rng.spd(n),
    } * scale;
    let input = if rng.coin() {
        Matrix::from_fn(n, n, |i, j| {
            if i > j {
                rng.entry() * scale
            } else {
                sym[(i, j)]
            }
        })
    } else {
        sym.clone()
    };
    (input, sym)
}

#[test]
fn eigen_reconstructs_symmetric() {
    for_each_seed(|rng| {
        let (input, sym) = eigen_input(rng);
        let eig = input.symmetric_eigen().unwrap();
        let rec = eig.spectral_map(|l| l);
        let err = (&rec - &sym).max_abs();
        check(err <= 1e-13 * sym.max_abs(), "V·Λ·Vᵀ ≠ A", err)?;
        let reference = sym.symmetric_eigen().unwrap();
        check(
            eig.eigenvalues() == reference.eigenvalues()
                && eig.eigenvectors() == reference.eigenvectors(),
            "the lower triangle was read",
            &input,
        )?;
        // Already converged: the diagonal and the identity, untouched.
        let n = sym.rows();
        let off: f64 = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| sym[(i, j)] * sym[(i, j)])
            .sum();
        if off.sqrt() <= 1e-14 * sym.frobenius_norm() {
            check(
                *eig.eigenvalues() == sym.diagonal() && *eig.eigenvectors() == Matrix::identity(n),
                "a converged input was rotated",
                &sym,
            )?;
        }
        Ok(())
    });
}

#[test]
fn eigenvalue_sum_is_trace() {
    for_each_seed(|rng| {
        let (input, sym) = eigen_input(rng);
        let eig = input.symmetric_eigen().unwrap();
        let sum: f64 = eig.eigenvalues().as_slice().iter().sum();
        let err = (sum - sym.trace()).abs();
        check(err <= 1e-13 * sym.frobenius_norm(), "Σλ ≠ tr A", err)
    });
}

#[test]
fn pseudo_inverse_satisfies_moore_penrose() {
    for_each_seed(|rng| {
        let sym = if rng.coin() {
            rng.symmetric(3)
        } else {
            let n = rng.index(1, 11);
            let rank = rng.below(n);
            gram(rng, n, rank)
        };
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
        )?;
        // A rank-deficient spectrum: the exact-zero eigenvalues fall
        // below the cutoff and the factor's rank survives it.
        let n = rng.index(1, 11);
        let rank = rng.below(n);
        let g = gram(rng, n, rank);
        let r = g.rank().unwrap();
        check(r == rank, "rank of B·Bᵀ (got, factor)", (r, rank))
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

/// A random SPD matrix with condition number `10^U(0, 8)` and scale
/// `10^U(-6, 2)`: `Q·Λ·Qᵀ` with `Q` the eigenvectors of a random
/// symmetric matrix, `Λ` spanning exactly the drawn condition number.
/// Returns the matrix and its condition number.
fn conditioned_spd(rng: &mut Rng, n: usize) -> (Matrix, f64) {
    let q = rng
        .symmetric(n)
        .symmetric_eigen()
        .unwrap()
        .eigenvectors()
        .clone();
    let kappa = 10f64.powf(rng.uniform(0.0, 8.0));
    let scale = 10f64.powf(rng.uniform(-6.0, 2.0));
    let lambdas: Vec<f64> = (0..n)
        .map(|i| match i {
            0 => scale,
            1 => scale / kappa,
            _ => scale / kappa.powf(rng.uniform(0.0, 1.0)),
        })
        .collect();
    let a = q
        .congruence(&Matrix::from_diagonal(&lambdas))
        .unwrap()
        .symmetrized()
        .unwrap();
    (a, if n == 1 { 1.0 } else { kappa })
}

/// `dᵀA⁺d` through the pseudo-inverse alone — the statistic's route
/// before the Cholesky whitening.
fn pinv_statistic(a: &Matrix, d: &Vector) -> roboads_linalg::Result<f64> {
    d.quadratic_form(&a.pseudo_inverse()?)
}

#[test]
fn whitened_statistic_matches_the_pseudo_inverse_one_on_spd_input() {
    // Both routes are backward stable, so on an SPD matrix of condition
    // number κ they differ by up to about κ·ε relative: on these seeds
    // at most 2.7e-10 for κ < 1e7, and 2.1e-8 (2.3·κ·ε) between 1e7 and
    // 1e8. The bound is 1e-9, widened to 4·κ·ε where that is larger.
    for_each_seed(|rng| {
        let n = rng.index(1, 8);
        let (a, kappa) = conditioned_spd(rng, n);
        let d = Vector::from_fn(n, |_| rng.uniform(-1.0, 1.0) * a[(0, 0)].abs().sqrt());
        let whitened = Cholesky::whitened_norm_squared(&a, &d).unwrap();
        check(whitened.is_some(), "SPD matrix rejected, κ", kappa)?;
        let whitened = a.whitened_quadratic_form(&d).unwrap();
        check(
            Some(whitened) == Cholesky::whitened_norm_squared(&a, &d).unwrap(),
            "an accepted matrix must take the whitening",
            whitened,
        )?;
        let pinv = pinv_statistic(&a, &d).unwrap();
        let rel = (whitened - pinv).abs() / pinv.abs().max(f64::MIN_POSITIVE);
        let tol = 1e-9f64.max(4.0 * kappa * f64::EPSILON);
        check(
            rel <= tol,
            "whitened vs pinv statistic (rel, κ)",
            (rel, kappa),
        )
    });
}

#[test]
fn rank_deficient_and_non_finite_input_falls_back_to_the_pseudo_inverse_bitwise() {
    for_each_seed(|rng| {
        let n = rng.index(1, 8);
        let d = rng.vector(n);
        let a = match rng.below(3) {
            // B·Bᵀ with B one or more columns short: exact null space.
            0 => {
                let r = rng.below(n);
                let b = Matrix::from_fn(n, r.max(1), |_, j| if j < r { rng.entry() } else { 0.0 });
                (&b * &b.transpose()).symmetrized().unwrap()
            }
            // An SPD matrix with one non-finite symmetric pair.
            kind => {
                let mut a = rng.spd(n);
                let (i, j) = (rng.below(n), rng.below(n));
                let bad = if kind == 1 { f64::NAN } else { f64::INFINITY };
                a[(i, j)] = bad;
                a[(j, i)] = bad;
                a
            }
        };
        check(
            Cholesky::whitened_norm_squared(&a, &d).unwrap().is_none(),
            "rank-deficient or non-finite matrix accepted",
            &a,
        )?;
        let got = a.whitened_quadratic_form(&d).map(f64::to_bits);
        let want = pinv_statistic(&a, &d).map(f64::to_bits);
        check(
            got == want,
            "fallback diverges from the pinv path",
            (&got, &want),
        )?;
        // A non-finite matrix has no eigendecomposition, at every size:
        // a 1 × 1 NaN has no rotation to spread through and a 2 × 2 one's
        // single rotation clears its pair to an exact zero, so neither
        // may read as a converged zero spectrum ("no anomaly").
        let no_convergence = Err(LinalgError::NoConvergence {
            sweeps: JACOBI_MAX_SWEEPS,
        });
        check(
            a.is_finite() || want == no_convergence,
            "a non-finite input's pseudo-inverse error",
            want,
        )
    });
}

/// A random oblique projector `J = I − F·M`, the shape of Algorithm 2's
/// innovation projector: `F` an `m × q` input matrix and
/// `M = (FᵀR⁻¹F)⁻¹FᵀR⁻¹` its weighted left inverse under a random SPD
/// `R`, so `M·F = I` and `range(J) = null(M)`. Returns `(J, M)`; `q = 0`
/// gives `J = I` and no constraint.
fn oblique_projector(rng: &mut Rng, m: usize, q: usize) -> (Matrix, Option<Matrix>) {
    if q == 0 {
        return (Matrix::identity(m), None);
    }
    let f = Matrix::from_fn(m, q, |_, _| rng.entry());
    let r_inv = rng.spd(m).inverse().unwrap();
    let ft_r_inv = &f.transpose() * &r_inv;
    let gain = &(&ft_r_inv * &f).inverse().unwrap() * &ft_r_inv;
    (&Matrix::identity(m) - &(&f * &gain), Some(gain))
}

/// `J·Σ·Jᵀ`, symmetrized.
fn project(j: &Matrix, sigma: &Matrix) -> Matrix {
    j.congruence(sigma).unwrap().symmetrized().unwrap()
}

#[test]
fn projected_pseudo_inverse_matches_the_jacobi_route_on_oblique_projections() {
    // Both routes are backward stable; they differ by rounding, which
    // grows with κ, the condition number of P's nonzero spectrum, and
    // with how oblique J is. Measured on these seeds (κ up to 6e7): the
    // pseudo-inverses differ by at most 1.8e-9 relative below κ = 1e7
    // and by 5.9e-8 at κ = 2.8e7; the three differences above 1e-9 are
    // 0.2, 11.3 and 9.4 times κ·ε; the √pdet differ by at most 3.9e-10.
    // The bound is 1e-9, widened to 16·κ·ε where that is larger.
    for_each_seed(|rng| {
        let m = rng.index(1, 11);
        let q = rng.below(m);
        let (j, gain) = oblique_projector(rng, m, q);
        let (sigma, _) = conditioned_spd(rng, m);
        let p = project(&j, &sigma);
        let nu = Vector::from_fn(m, |_| rng.uniform(-1.0, 1.0) * p.max_abs().sqrt());
        let floor = 1e-14 * p.max_abs();
        let jacobi = p.floored_pseudo_inverse(&nu, floor).unwrap();
        let Some(projected) = p
            .projected_pseudo_inverse(gain.as_ref(), &nu, floor)
            .unwrap()
        else {
            return check(false, "projection rejected (m, q)", (m, q));
        };
        check(
            projected.rank == m - q && jacobi.rank == m - q,
            "rank (projected, Jacobi, m − q)",
            (projected.rank, jacobi.rank, m - q),
        )?;
        let spectrum = p.symmetric_eigen().unwrap();
        let cutoff = floor.max(1e-10 * spectrum.max_eigenvalue().abs());
        let kept = spectrum
            .eigenvalues()
            .as_slice()
            .iter()
            .map(|l| l.abs())
            .filter(|&l| l > cutoff);
        let (lo, hi) = kept.fold((f64::INFINITY, 0.0f64), |(lo, hi), l| {
            (lo.min(l), hi.max(l))
        });
        let kappa = hi / lo;
        let tol = 1e-9f64.max(16.0 * kappa * f64::EPSILON);
        let pdet = (projected.sqrt_pseudo_determinant - jacobi.sqrt_pseudo_determinant).abs()
            / jacobi.sqrt_pseudo_determinant;
        check(pdet <= tol, "√pdet (rel, κ)", (pdet, kappa))?;
        let pinv = (&projected.matrix - &jacobi.matrix).max_abs() / jacobi.matrix.max_abs();
        check(pinv <= tol, "pseudo-inverse (rel, κ)", (pinv, kappa))
    });
}

#[test]
fn projection_rejects_extra_rank_loss_leaks_and_non_finite_input() {
    for_each_seed(|rng| {
        let m = rng.index(2, 11);
        let q = rng.index(1, m);
        let (j, gain) = oblique_projector(rng, m, q);
        let nu = rng.vector(m);
        let p = match rng.below(3) {
            // Σ = B·Bᵀ with B short of m − q columns: rank(P) < m − q.
            0 => {
                let b = Matrix::from_fn(m, m - q - 1, |_, _| rng.entry());
                project(&j, &(&b * &b.transpose()))
            }
            // Variance along the constraint's row space: the discarded
            // directions are not null.
            1 => project(&j, &rng.spd(m)) + Matrix::identity(m) * 1e-6,
            // A non-finite symmetric pair.
            _ => {
                let mut a = project(&j, &rng.spd(m));
                let (i, k) = (rng.below(m), rng.below(m));
                a[(i, k)] = f64::NAN;
                a[(k, i)] = f64::NAN;
                a
            }
        };
        let floor = 1e-14;
        let projected = p
            .projected_pseudo_inverse(gain.as_ref(), &nu, floor)
            .unwrap();
        check(projected.is_none(), "covariance accepted", &p)
    });
}
