//! Pins every slab kernel bitwise (`to_bits`) against the allocating
//! `Matrix` path — the operators, `transpose`, `symmetrized`,
//! `congruence`, `Lu` and `SymmetricEigen` — lane by lane, over
//! randomized shapes and values, including injected exact zeros (the
//! zero-skip branches), singular LU lanes and masked eigen lanes.
//!
//! Every case runs at both widths the NUISE kernel is instantiated at:
//! K = 1 (the engine's per-mode step) and K = 8 (the fleet's tiles).
//!
//! Uses a self-contained splitmix64 generator so the suite runs in the
//! offline tier-1 build with no external packages.
// Index-form lane loops, matching the convention of the kernels under
// test.
#![allow(clippy::needless_range_loop)]

use roboads_linalg::{EigenSlabWorkspace, LuSlabWorkspace, Matrix, MatrixSlab, Vector, VectorSlab};

struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in [-1, 1), with roughly one entry in eight forced to an
    /// exact 0.0 (of either sign) so the zero-skip branches diverge
    /// across lanes and signed zeros reach every accumulator.
    fn entry(&mut self) -> f64 {
        let bits = self.next_u64();
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

fn products_match_scalar_bitwise_per_lane<const K: usize>() {
    let mut rng = Rng(0x51ab_0001);
    for &(m, n, p) in SHAPES {
        for _round in 0..8 {
            let a: Vec<Matrix> = (0..K).map(|_| rng.matrix(m, n)).collect();
            let b: Vec<Matrix> = (0..K).map(|_| rng.matrix(n, p)).collect();
            let bt: Vec<Matrix> = (0..K).map(|_| rng.matrix(p, n)).collect();
            let v: Vec<Vector> = (0..K).map(|_| rng.vector(n)).collect();
            let a_slab = load::<K>(&a);
            let b_slab = load::<K>(&b);
            let bt_slab = load::<K>(&bt);
            let v_slab = load_vec::<K>(&v);

            let mut out = MatrixSlab::<K>::zeros(m, p);
            a_slab.mul_into(&b_slab, &mut out);
            for l in 0..K {
                assert_lane_eq(&out, l, &(&a[l] * &b[l]), "mul_into");
            }

            let mut out_t = MatrixSlab::<K>::zeros(m, p);
            a_slab.mul_transpose_into(&bt_slab, &mut out_t);
            for l in 0..K {
                let expected = &a[l] * &bt[l].transpose();
                assert_lane_eq(&out_t, l, &expected, "mul_transpose_into");
            }

            let mut out_v = VectorSlab::<K>::zeros(m);
            a_slab.mul_vec_into(&v_slab, &mut out_v);
            for l in 0..K {
                assert_lane_vec_eq(&out_v, l, &(&a[l] * &v[l]), "mul_vec_into");
            }

            // Broadcast variants: one scalar operand shared by all lanes.
            let shared_rhs = rng.matrix(n, p);
            let mut out_b = MatrixSlab::<K>::zeros(m, p);
            a_slab.mul_broadcast_into(&shared_rhs, &mut out_b);
            for l in 0..K {
                let expected = &a[l] * &shared_rhs;
                assert_lane_eq(&out_b, l, &expected, "mul_broadcast_into");
            }

            let shared_lhs = rng.matrix(p, n);
            let mut out_p = MatrixSlab::<K>::zeros(p, m);
            a_slab.premul_transpose_into(&shared_lhs, &mut out_p);
            for l in 0..K {
                let expected = &shared_lhs * &a[l].transpose();
                assert_lane_eq(&out_p, l, &expected, "premul_transpose_into");
            }
        }
    }
}

fn congruence_matches_scalar_bitwise_per_lane<const K: usize>() {
    let mut rng = Rng(0x51ab_0002);
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
    let mut rng = Rng(0x51ab_0003);
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

fn lu_matches_scalar_bitwise_per_lane_including_singular<const K: usize>() {
    let mut rng = Rng(0x51ab_0004);
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

fn eigen_matches_scalar_bitwise_per_lane_with_mask<const K: usize>() {
    let mut rng = Rng(0x51ab_0005);
    for n in 1..=5 {
        for round in 0..6 {
            let mats: Vec<Matrix> = (0..K).map(|_| rng.symmetric(n)).collect();
            let slab = load::<K>(&mats);
            let mut active = [true; K];
            // Mask a couple of lanes so their (stale) buffers cannot
            // perturb the live lanes (at one lane, every other round).
            if K > 1 {
                active[round % K] = false;
                active[(round + 3) % K] = false;
            } else {
                active[0] = round % 2 == 0;
            }
            let mut ws = EigenSlabWorkspace::<K>::new(n);
            let converged = ws.factorize(&slab, &active);

            for l in 0..K {
                if !active[l] {
                    assert!(!converged[l], "inactive lane {l} must report false");
                    continue;
                }
                let eig = mats[l].symmetric_eigen().unwrap();
                assert!(converged[l], "lane {l} failed to converge");
                assert_lane_vec_eq(ws.eigenvalues(), l, eig.eigenvalues(), "eigenvalues");
                assert_eq!(
                    ws.max_eigenvalue(l).to_bits(),
                    eig.max_eigenvalue().to_bits(),
                    "max_eigenvalue lane {l}"
                );
            }

            // Pseudo-inverse through the slab spectral map matches
            // `Matrix::pseudo_inverse` exactly (same cutoff code).
            let mut cutoff = [0.0f64; K];
            for l in 0..K {
                cutoff[l] = ws.spectrum_cutoff(l);
            }
            let mut pinv = MatrixSlab::<K>::zeros(n, n);
            ws.spectral_map_into(
                |l, lam| {
                    if lam.abs() > cutoff[l] {
                        1.0 / lam
                    } else {
                        0.0
                    }
                },
                &mut pinv,
            );
            for l in 0..K {
                if !active[l] {
                    continue;
                }
                let expected = mats[l].pseudo_inverse().unwrap();
                assert_lane_eq(&pinv, l, &expected, "slab pseudo-inverse");
            }
        }
    }
}

fn eigen_spectral_map_zero_skip_matches_scalar<const K: usize>() {
    // A map that returns 0.0 for most eigenvalues exercises the
    // masked-accumulate path (the scalar zero-skip `continue`).
    let mut rng = Rng(0x51ab_0006);
    let n = 4;
    let mats: Vec<Matrix> = (0..K).map(|_| rng.symmetric(n)).collect();
    let slab = load::<K>(&mats);
    let mut ws = EigenSlabWorkspace::<K>::new(n);
    let converged = ws.factorize(&slab, &[true; K]);
    let mut out = MatrixSlab::<K>::zeros(n, n);
    ws.spectral_map_into(|_, lam| if lam > 0.5 { lam * lam } else { 0.0 }, &mut out);
    for l in 0..K {
        assert!(converged[l]);
        let expected = mats[l].symmetric_eigen().unwrap().spectral_map(|lam| {
            if lam > 0.5 {
                lam * lam
            } else {
                0.0
            }
        });
        assert_lane_eq(&out, l, &expected, "spectral_map zero-skip");
    }
}

fn identity_fill_copy_roundtrip<const K: usize>() {
    let mut rng = Rng(0x51ab_0007);
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
    lu_matches_scalar_bitwise_per_lane_including_singular,
    eigen_matches_scalar_bitwise_per_lane_with_mask,
    eigen_spectral_map_zero_skip_matches_scalar,
    identity_fill_copy_roundtrip,
);
