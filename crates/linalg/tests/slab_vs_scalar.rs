//! Pins every slab kernel bitwise (`to_bits`) against the allocating
//! `Matrix` path — the operators, `transpose`, `symmetrized`,
//! `congruence`, `Lu`, the Cholesky whitening, the projected
//! pseudo-inverse — lane by lane, over randomized shapes and values,
//! including injected exact zeros (the zero-skip branches), singular LU
//! lanes and rejected (rank-deficient and NaN) whitening and projection
//! lanes.
//!
//! Every case runs at both widths the NUISE kernel is instantiated at:
//! K = 1 (the engine's per-mode step) and K = 8 (the fleet's tiles).
//!
//! Draws from the shared seeded generator (`tests/support/seeded.rs`),
//! so the suite runs in the offline tier-1 build with no external
//! packages.
// Index-form lane loops, matching the convention of the kernels under
// test.
#![allow(clippy::needless_range_loop)]

use roboads_linalg::{
    Cholesky, CholeskySlabWorkspace, LuSlabWorkspace, Matrix, MatrixSlab, ProjectedSlabWorkspace,
    ProjectionScratch, Vector, VectorSlab,
};

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::Rng;

/// This suite's draws on the shared generator.
trait Draw {
    /// Uniform in [-1, 1), with roughly one entry in eight forced to an
    /// exact 0.0 (of either sign) so the zero-skip branches diverge
    /// across lanes and signed zeros reach every accumulator.
    fn entry(&mut self) -> f64;
    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix;
    fn vector(&mut self, len: usize) -> Vector;
    fn symmetric(&mut self, n: usize) -> Matrix;
}

impl Draw for Rng {
    fn entry(&mut self) -> f64 {
        let bits = self.next();
        if bits & 0x7 == 0 {
            return if bits & 0x8 == 0 { 0.0 } else { -0.0 };
        }
        (bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| self.entry()).collect())
            .expect("sized data")
    }

    fn vector(&mut self, len: usize) -> Vector {
        Vector::from((0..len).map(|_| self.entry()).collect::<Vec<_>>())
    }

    fn symmetric(&mut self, n: usize) -> Matrix {
        self.matrix(n, n).symmetrized().unwrap()
    }
}

fn load<const K: usize>(lanes: &[Matrix]) -> MatrixSlab<K> {
    let mut slab = MatrixSlab::<K>::zeros(lanes[0].rows(), lanes[0].cols());
    for (l, m) in lanes.iter().enumerate() {
        slab.load_lane(l, m);
    }
    slab
}

fn load_vec<const K: usize>(lanes: &[Vector]) -> VectorSlab<K> {
    let mut slab = VectorSlab::<K>::zeros(lanes[0].len());
    for (l, v) in lanes.iter().enumerate() {
        slab.load_lane(l, v);
    }
    slab
}

/// Asserts lane `lane` of `slab` is bitwise equal to `expected`.
fn assert_lane_eq<const K: usize>(slab: &MatrixSlab<K>, lane: usize, expected: &Matrix, op: &str) {
    let mut got = Matrix::zeros(expected.rows(), expected.cols());
    slab.store_lane(lane, &mut got);
    for (g, e) in got.as_slice().iter().zip(expected.as_slice()) {
        assert_eq!(
            g.to_bits(),
            e.to_bits(),
            "{op}: lane {lane} diverges from the allocating path ({g} vs {e})"
        );
    }
}

fn assert_lane_vec_eq<const K: usize>(
    slab: &VectorSlab<K>,
    lane: usize,
    expected: &Vector,
    op: &str,
) {
    let mut got = Vector::zeros(expected.len());
    slab.store_lane(lane, &mut got);
    for (g, e) in got.as_slice().iter().zip(expected.as_slice()) {
        assert_eq!(
            g.to_bits(),
            e.to_bits(),
            "{op}: lane {lane} diverges from the allocating path ({g} vs {e})"
        );
    }
}

const SHAPES: &[(usize, usize, usize)] = &[(1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 5), (5, 5, 4)];

/// The operands of one round of product checks: `a · b`, `a · btᵀ`,
/// `a · shared_rhs` and `shared_lhs · aᵀ`.
struct Products {
    a: Vec<Matrix>,
    b: Vec<Matrix>,
    bt: Vec<Matrix>,
    shared_rhs: Matrix,
    shared_lhs: Matrix,
}

impl Products {
    /// Pins every matrix-product kernel against the allocating
    /// operators, lane by lane.
    fn check<const K: usize>(&self) {
        let (m, p) = (self.a[0].rows(), self.b[0].cols());
        let a_slab = load::<K>(&self.a);
        let b_slab = load::<K>(&self.b);
        let bt_slab = load::<K>(&self.bt);

        let mut out = MatrixSlab::<K>::zeros(m, p);
        a_slab.mul_into(&b_slab, &mut out);
        for l in 0..K {
            assert_lane_eq(&out, l, &(&self.a[l] * &self.b[l]), "mul_into");
        }

        let mut out_t = MatrixSlab::<K>::zeros(m, p);
        a_slab.mul_transpose_into(&bt_slab, &mut out_t);
        for l in 0..K {
            let expected = &self.a[l] * &self.bt[l].transpose();
            assert_lane_eq(&out_t, l, &expected, "mul_transpose_into");
        }

        // Broadcast variants: one scalar operand shared by all lanes.
        let mut out_b = MatrixSlab::<K>::zeros(m, p);
        a_slab.mul_broadcast_into(&self.shared_rhs, &mut out_b);
        for l in 0..K {
            let expected = &self.a[l] * &self.shared_rhs;
            assert_lane_eq(&out_b, l, &expected, "mul_broadcast_into");
        }

        let mut out_p = MatrixSlab::<K>::zeros(self.shared_lhs.rows(), m);
        a_slab.premul_transpose_into(&self.shared_lhs, &mut out_p);
        for l in 0..K {
            let expected = &self.shared_lhs * &self.a[l].transpose();
            assert_lane_eq(&out_p, l, &expected, "premul_transpose_into");
        }
    }
}

fn products_match_scalar_bitwise_per_lane<const K: usize>() {
    let mut rng = Rng::new(0x51ab_0001);
    for &(m, n, p) in SHAPES {
        for _round in 0..8 {
            let a: Vec<Matrix> = (0..K).map(|_| rng.matrix(m, n)).collect();
            let b: Vec<Matrix> = (0..K).map(|_| rng.matrix(n, p)).collect();
            let bt: Vec<Matrix> = (0..K).map(|_| rng.matrix(p, n)).collect();
            let v: Vec<Vector> = (0..K).map(|_| rng.vector(n)).collect();
            let a_slab = load::<K>(&a);
            let v_slab = load_vec::<K>(&v);

            let mut out_v = VectorSlab::<K>::zeros(m);
            a_slab.mul_vec_into(&v_slab, &mut out_v);
            for l in 0..K {
                assert_lane_vec_eq(&out_v, l, &(&a[l] * &v[l]), "mul_vec_into");
            }

            let shared_rhs = rng.matrix(n, p);
            let shared_lhs = rng.matrix(p, n);
            let shared = Products {
                a,
                b,
                bt,
                shared_rhs,
                shared_lhs,
            };
            shared.check::<K>();
        }
    }

    // Non-finite right operands behind exact zeros. Each round poisons
    // one inner index `k`: the right operands' entries that meet it hold
    // ±∞ or NaN, while the left operand's column `k` holds an exact ±0.0
    // in some lanes and rows and a nonzero value in the others. The
    // reference skips a zero `aik`, so a skipping lane must keep its
    // finite sum (never `0 · ∞ = NaN`) while its neighbours add ±∞/NaN.
    // One poisoned term per entry keeps each NaN's payload unambiguous.
    const POISON: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let zero_at = |l: usize, i: usize, round: usize| (l + i + round).is_multiple_of(2);
    let signed_zero = |l: usize, i: usize| if (l + i) % 4 < 2 { 0.0 } else { -0.0 };
    let (mut skipped, mut added) = (0, 0);
    for &(m, n, p) in SHAPES {
        for round in 0..8 {
            let k = round % n;
            let mut ops = Products {
                a: (0..K).map(|_| rng.matrix(m, n)).collect(),
                b: (0..K).map(|_| rng.matrix(n, p)).collect(),
                bt: (0..K).map(|_| rng.matrix(p, n)).collect(),
                shared_rhs: rng.matrix(n, p),
                shared_lhs: rng.matrix(p, n),
            };
            for (l, a) in ops.a.iter_mut().enumerate() {
                for i in 0..m {
                    if zero_at(l, i, round) {
                        a[(i, k)] = signed_zero(l, i);
                        skipped += 1;
                    } else {
                        a[(i, k)] = 0.5 + a[(i, k)].abs();
                        added += 1;
                    }
                }
            }
            for (l, (b, bt)) in ops.b.iter_mut().zip(&mut ops.bt).enumerate() {
                for j in 0..p {
                    b[(k, j)] = POISON[(l + j + round) % 3];
                    bt[(j, k)] = POISON[(l + j + round + 1) % 3];
                }
            }
            for j in 0..p {
                ops.shared_rhs[(k, j)] = POISON[(j + round) % 3];
            }
            ops.check::<K>();

            // `premul_transpose_into`'s left operand is lane-uniform, so
            // it skips by row instead of by lane: `lhs · btᵀ` with `lhs`
            // zero in column `k` on alternate rows.
            let mut lhs = ops.shared_lhs.clone();
            for i in 0..p {
                lhs[(i, k)] = if zero_at(0, i, round) {
                    signed_zero(0, i)
                } else {
                    0.5 + lhs[(i, k)].abs()
                };
            }
            let mut out = MatrixSlab::<K>::zeros(p, p);
            load::<K>(&ops.bt).premul_transpose_into(&lhs, &mut out);
            for l in 0..K {
                let expected = &lhs * &ops.bt[l].transpose();
                assert_lane_eq(&out, l, &expected, "premul_transpose_into");
            }
        }
    }
    assert!(skipped > 0 && added > 0, "both lane kinds ran");
}

fn congruence_matches_scalar_bitwise_per_lane<const K: usize>() {
    let mut rng = Rng::new(0x51ab_0002);
    for &(m, n, _) in SHAPES {
        for _round in 0..8 {
            let a: Vec<Matrix> = (0..K).map(|_| rng.matrix(m, n)).collect();
            let p: Vec<Matrix> = (0..K).map(|_| rng.symmetric(n)).collect();
            let a_slab = load::<K>(&a);
            let p_slab = load::<K>(&p);

            let mut scratch = MatrixSlab::<K>::zeros(n, m);
            let mut out = MatrixSlab::<K>::zeros(m, m);
            a_slab
                .congruence_into(&p_slab, &mut scratch, &mut out)
                .unwrap();
            for l in 0..K {
                let expected = a[l].congruence(&p[l]).unwrap();
                assert_lane_eq(&out, l, &expected, "congruence_into");
            }

            let shared_p = rng.symmetric(n);
            a_slab
                .congruence_broadcast_into(&shared_p, &mut scratch, &mut out)
                .unwrap();
            for l in 0..K {
                let expected = a[l].congruence(&shared_p).unwrap();
                assert_lane_eq(&out, l, &expected, "congruence_broadcast_into");
            }
        }
    }
}

fn elementwise_ops_match_scalar_bitwise_per_lane<const K: usize>() {
    let mut rng = Rng::new(0x51ab_0003);
    for &(m, n, _) in SHAPES {
        let a: Vec<Matrix> = (0..K).map(|_| rng.matrix(m, n)).collect();
        let b: Vec<Matrix> = (0..K).map(|_| rng.matrix(m, n)).collect();
        let shared = rng.matrix(m, n);
        let mut slab = load::<K>(&a);
        let b_slab = load::<K>(&b);

        slab += &b_slab;
        slab.add_assign_broadcast(&shared);
        slab -= &b_slab;
        slab.negate();
        let expected: Vec<Matrix> = (0..K)
            .map(|l| -&(&(&(&a[l] + &b[l]) + &shared) - &b[l]))
            .collect();
        for l in 0..K {
            assert_lane_eq(&slab, l, &expected[l], "add/sub/negate");
        }

        let mut t = MatrixSlab::<K>::zeros(n, m);
        slab.transpose_into(&mut t);
        for l in 0..K {
            assert_lane_eq(&t, l, &expected[l].transpose(), "transpose_into");
        }
    }

    // Symmetrize and quadratic form on square shapes.
    for n in 1..=5 {
        let s: Vec<Matrix> = (0..K).map(|_| rng.matrix(n, n)).collect();
        let v: Vec<Vector> = (0..K).map(|_| rng.vector(n)).collect();
        let mut slab = load::<K>(&s);
        slab.symmetrize_in_place().unwrap();
        let sym: Vec<Matrix> = s.iter().map(|m| m.symmetrized().unwrap()).collect();
        for l in 0..K {
            assert_lane_eq(&slab, l, &sym[l], "symmetrize_in_place");
        }

        let v_slab = load_vec::<K>(&v);
        let q = v_slab.quadratic_form(&slab);
        for l in 0..K {
            let expected = v[l].quadratic_form(&sym[l]).unwrap();
            assert_eq!(
                q[l].to_bits(),
                expected.to_bits(),
                "quadratic_form lane {l}"
            );
        }
    }
}

/// Diagonal entries at or beyond 1e308, where `a + a` overflows:
/// symmetrizing leaves every diagonal entry as it is, in the slab kernel
/// and in its allocating reference alike.
fn symmetrize_keeps_huge_diagonals<const K: usize>() {
    let mut rng = Rng::new(0x51ab_0007);
    let huge = [1e308, -1e308, 1.5e308, -f64::MAX, f64::MAX];
    for n in 1..=4 {
        let s: Vec<Matrix> = (0..K)
            .map(|l| {
                let mut m = rng.matrix(n, n);
                for i in 0..n {
                    m[(i, i)] = huge[(l + i) % huge.len()];
                }
                m
            })
            .collect();
        let mut slab = load::<K>(&s);
        slab.symmetrize_in_place().unwrap();
        for l in 0..K {
            let sym = s[l].symmetrized().unwrap();
            for i in 0..n {
                assert_eq!(
                    sym[(i, i)].to_bits(),
                    s[l][(i, i)].to_bits(),
                    "symmetrized diagonal ({i}, {i}) lane {l}"
                );
            }
            assert_lane_eq(&slab, l, &sym, "symmetrize_in_place (huge diagonal)");
        }
    }
}

fn lu_matches_scalar_bitwise_per_lane_including_singular<const K: usize>() {
    let mut rng = Rng::new(0x51ab_0004);
    for n in 1..=5 {
        for round in 0..8 {
            let mats: Vec<Matrix> = (0..K)
                .map(|l| {
                    if (l + round) % 3 == 0 && n > 1 {
                        // Rank-deficient lane: duplicate a row so this
                        // lane takes the singularity-skip path while
                        // its lane-mates eliminate normally.
                        let mut m = rng.matrix(n, n);
                        for j in 0..n {
                            let v = m[(0, j)];
                            m[(n - 1, j)] = v;
                        }
                        m
                    } else {
                        // Diagonally dominated lane: guaranteed
                        // non-singular.
                        let mut m = rng.matrix(n, n);
                        for i in 0..n {
                            m[(i, i)] += 3.0;
                        }
                        m
                    }
                })
                .collect();
            let slab = load::<K>(&mats);
            let mut ws = LuSlabWorkspace::<K>::new(n);
            ws.factorize(&slab);
            let mut inv = MatrixSlab::<K>::zeros(n, n);
            ws.inverse_into(&mut inv);

            for l in 0..K {
                let lu = mats[l].lu().unwrap();
                assert_eq!(
                    ws.singular()[l],
                    lu.is_singular(),
                    "lu singularity flag lane {l}"
                );
                if !lu.is_singular() {
                    assert_lane_eq(&inv, l, &lu.inverse().unwrap(), "lu inverse_into");
                }
            }
        }
    }
}

/// The lane kinds of a whitening tile, cycled across lanes and rounds
/// so every tile mixes them.
#[derive(Clone, Copy, PartialEq)]
enum WhitenLane {
    /// `B·Bᵀ + I/4` with square `B`: positive definite, accepted.
    Accepted,
    /// `B·Bᵀ` with `B` one column short: an exact null direction, so a
    /// pivot falls to rounding level and the lane falls back.
    RankDeficient,
    /// An accepted matrix with one NaN pair: rejected as non-finite.
    Nan,
}

fn whiten_lane(rng: &mut Rng, n: usize, kind: WhitenLane) -> Matrix {
    let cols = if kind == WhitenLane::RankDeficient {
        n - 1
    } else {
        n
    };
    let b = rng.matrix(n, cols.max(1));
    let mut a = &b * &b.transpose();
    match kind {
        WhitenLane::Accepted => {
            for i in 0..n {
                a[(i, i)] += 0.25;
            }
        }
        WhitenLane::RankDeficient if n == 1 => a[(0, 0)] = 0.0,
        WhitenLane::RankDeficient => {}
        WhitenLane::Nan => {
            let j = rng.below(n);
            a[(n - 1, j)] = f64::NAN;
            a[(j, n - 1)] = f64::NAN;
        }
    }
    a.symmetrized().unwrap()
}

fn cholesky_whiten_matches_scalar_bitwise_per_lane_with_fallbacks<const K: usize>() {
    let mut rng = Rng::new(0x51ab_0008);
    let kinds = [
        WhitenLane::Accepted,
        WhitenLane::RankDeficient,
        WhitenLane::Accepted,
        WhitenLane::Nan,
    ];
    let mut seen = [0usize; 3];
    for n in 1..=7 {
        for round in 0..8 {
            let lane_kinds: Vec<WhitenLane> = (0..K)
                .map(|l| kinds[(l + round + n) % kinds.len()])
                .collect();
            let mats: Vec<Matrix> = lane_kinds
                .iter()
                .map(|&kind| whiten_lane(&mut rng, n, kind))
                .collect();
            let vecs: Vec<Vector> = (0..K).map(|_| rng.vector(n)).collect();
            let mut active = [true; K];
            if K > 1 {
                active[(round + 5) % K] = false;
            }
            let a = load::<K>(&mats);
            let d = load_vec::<K>(&vecs);
            // Stale data in the factor slab must not leak into a lane.
            let mut factor = load::<K>(&(0..K).map(|_| rng.matrix(n, n)).collect::<Vec<_>>());
            let mut ws = CholeskySlabWorkspace::<K>::new(n);
            let accepted = ws.whiten(&a, &d, &mut factor, &active);

            for l in 0..K {
                if !active[l] {
                    assert!(!accepted[l], "inactive lane {l} must report false");
                    continue;
                }
                let expected = Cholesky::whitened_norm_squared(&mats[l], &vecs[l]).unwrap();
                assert_eq!(
                    accepted[l],
                    expected.is_some(),
                    "n={n} lane {l}: acceptance diverges from the scalar reference"
                );
                match lane_kinds[l] {
                    WhitenLane::Accepted => assert!(accepted[l], "n={n} lane {l} rejected"),
                    _ => assert!(!accepted[l], "n={n} lane {l} accepted"),
                }
                seen[lane_kinds[l] as usize] += 1;
                let Some(expected) = expected else { continue };
                assert_eq!(
                    ws.norm_squared()[l].to_bits(),
                    expected.to_bits(),
                    "n={n} lane {l}: whitened norm diverges ({} vs {expected})",
                    ws.norm_squared()[l]
                );
                // The factor's lower triangle is `Cholesky::new`'s `L`.
                let chol = mats[l].cholesky().unwrap();
                let mut got = Matrix::zeros(n, n);
                factor.store_lane(l, &mut got);
                for i in 0..n {
                    for j in 0..=i {
                        assert_eq!(
                            got[(i, j)].to_bits(),
                            chol.l()[(i, j)].to_bits(),
                            "n={n} lane {l}: factor ({i}, {j})"
                        );
                    }
                }
            }
        }
    }
    assert!(seen.iter().all(|&c| c > 0), "every lane kind ran: {seen:?}");
}

/// The lane kinds of a projection tile, cycled across lanes and rounds
/// so every tile mixes them.
#[derive(Clone, Copy, PartialEq)]
enum ProjectLane {
    /// `J·Σ·Jᵀ` with `Σ` positive definite: rank exactly `m − q`,
    /// accepted.
    Accepted,
    /// `Σ` one column short of the range: one more null direction, so a
    /// pivot falls to rounding level and the lane falls back.
    ExtraRankLoss,
    /// An accepted covariance with one NaN pair: rejected.
    Nan,
}

/// A `q × m` constraint `M`, an oblique projector `J = I − F·M` onto its
/// null space (`F = G·(M·G)⁻¹` for a random `G`, so `M·F = I`), and the
/// lane's covariance `J·Σ·Jᵀ` of the given kind.
fn projection_lane(rng: &mut Rng, m: usize, q: usize, kind: ProjectLane) -> (Matrix, Matrix) {
    // Redraw until `M·G` is invertible (the injected exact zeros can
    // make it singular), which also makes `M` full row rank.
    let (constraint, j) = loop {
        let constraint = rng.matrix(q, m);
        if q == 0 {
            break (constraint, Matrix::identity(m));
        }
        let g = rng.matrix(m, q);
        if let Ok(inv) = (&constraint * &g).inverse() {
            let f = &g * &inv;
            break (
                constraint.clone(),
                &Matrix::identity(m) - &(&f * &constraint),
            );
        }
    };
    let cols = match kind {
        ProjectLane::ExtraRankLoss => m - q - 1,
        _ => m,
    };
    let b = rng.matrix(m, cols);
    let mut sigma = &b * &b.transpose();
    if kind != ProjectLane::ExtraRankLoss {
        for i in 0..m {
            sigma[(i, i)] += 0.25;
        }
    }
    let mut p = j.congruence(&sigma).unwrap().symmetrized().unwrap();
    if kind == ProjectLane::Nan {
        let k = rng.below(m);
        p[(m - 1, k)] = f64::NAN;
        p[(k, m - 1)] = f64::NAN;
    }
    (p, constraint)
}

fn projected_pseudo_inverse_matches_scalar_bitwise_per_lane_with_fallbacks<const K: usize>() {
    let mut rng = Rng::new(0x51ab_0009);
    let kinds = [
        ProjectLane::Accepted,
        ProjectLane::ExtraRankLoss,
        ProjectLane::Accepted,
        ProjectLane::Nan,
    ];
    let floor = 1e-12;
    let mut seen = [0usize; 3];
    for m in 1..=7 {
        for round in 0..8 {
            let q = (round + m) % m;
            let lane_kinds: Vec<ProjectLane> = (0..K)
                .map(|l| kinds[(l + round + m) % kinds.len()])
                .collect();
            let lanes: Vec<(Matrix, Matrix)> = lane_kinds
                .iter()
                .map(|&kind| projection_lane(&mut rng, m, q, kind))
                .collect();
            let nus: Vec<Vector> = (0..K).map(|_| rng.vector(m)).collect();
            let mut active = [true; K];
            if K > 1 {
                active[(round + 3) % K] = false;
            }
            let p = load::<K>(&lanes.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>());
            let constraint = load::<K>(&lanes.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>());
            let nu = load_vec::<K>(&nus);
            // Stale data in the scratch and output slabs must not leak
            // into a lane.
            let mut stale = || load::<K>(&(0..K).map(|_| rng.matrix(m, m)).collect::<Vec<_>>());
            let (mut basis, mut product, mut pinv) = (stale(), stale(), stale());
            let mut whitened = load_vec::<K>(&(0..K).map(|_| rng.vector(m)).collect::<Vec<_>>());
            let mut ws = ProjectedSlabWorkspace::<K>::new(floor);
            let accepted = ws.factorize(
                &p,
                (q > 0).then_some(&constraint),
                &nu,
                ProjectionScratch {
                    basis: &mut basis,
                    product: &mut product,
                    whitened: &mut whitened,
                },
                &mut pinv,
                &active,
            );

            for l in 0..K {
                if !active[l] {
                    assert!(!accepted[l], "inactive lane {l} must report false");
                    continue;
                }
                let (scalar_p, scalar_c) = &lanes[l];
                let expected = scalar_p
                    .projected_pseudo_inverse((q > 0).then_some(scalar_c), &nus[l], floor)
                    .unwrap();
                assert_eq!(
                    accepted[l],
                    expected.is_some(),
                    "m={m} q={q} lane {l}: acceptance diverges from the scalar reference"
                );
                match lane_kinds[l] {
                    ProjectLane::Accepted => assert!(accepted[l], "m={m} q={q} lane {l} rejected"),
                    _ => assert!(!accepted[l], "m={m} q={q} lane {l} accepted"),
                }
                seen[lane_kinds[l] as usize] += 1;
                let Some(expected) = expected else { continue };
                assert_eq!(expected.rank, m - q);
                assert_lane_eq(&pinv, l, &expected.matrix, "projected pseudo-inverse");
                assert_eq!(
                    ws.sqrt_pseudo_determinant()[l].to_bits(),
                    expected.sqrt_pseudo_determinant.to_bits(),
                    "m={m} q={q} lane {l}: √pdet"
                );
                assert_eq!(
                    ws.statistic()[l].to_bits(),
                    expected.statistic.to_bits(),
                    "m={m} q={q} lane {l}: statistic"
                );
            }
        }
    }
    assert!(seen.iter().all(|&c| c > 0), "every lane kind ran: {seen:?}");
}

fn identity_fill_copy_roundtrip<const K: usize>() {
    let mut rng = Rng::new(0x51ab_0007);
    let mats: Vec<Matrix> = (0..K).map(|_| rng.matrix(3, 3)).collect();
    let slab = load::<K>(&mats);
    let mut copy = MatrixSlab::<K>::zeros(3, 3);
    copy.copy_from(&slab);
    for l in 0..K {
        assert_lane_eq(&copy, l, &mats[l], "copy_from");
    }
    copy.set_identity();
    for l in 0..K {
        assert_lane_eq(&copy, l, &Matrix::identity(3), "set_identity");
    }
    copy.fill(2.5);
    assert_eq!(*copy.at(1, 2), [2.5; K]);
}

/// Instantiates each generic case as `<case>::k1` and `<case>::k8`.
macro_rules! at_both_widths {
    ($($case:ident),* $(,)?) => {
        $(
            mod $case {
                #[test]
                fn k1() {
                    super::$case::<1>();
                }

                #[test]
                fn k8() {
                    super::$case::<8>();
                }
            }
        )*
    };
}

at_both_widths!(
    products_match_scalar_bitwise_per_lane,
    congruence_matches_scalar_bitwise_per_lane,
    elementwise_ops_match_scalar_bitwise_per_lane,
    symmetrize_keeps_huge_diagonals,
    lu_matches_scalar_bitwise_per_lane_including_singular,
    cholesky_whiten_matches_scalar_bitwise_per_lane_with_fallbacks,
    projected_pseudo_inverse_matches_scalar_bitwise_per_lane_with_fallbacks,
    identity_fill_copy_roundtrip,
);
