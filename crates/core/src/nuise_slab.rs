//! Lane-batched NUISE: K robots' same-mode steps in one pass over
//! structure-of-arrays slabs.
//!
//! A fleet of robots sharing one system model and mode bank runs the
//! *same* NUISE control flow per tick; only the numbers differ. This
//! module mirrors [`crate::nuise::nuise_step_into`] operation for
//! operation on [`MatrixSlab`]/[`VectorSlab`] storage, so the dense
//! kernels vectorize across robots instead of running K times over
//! matrices too small to vectorize within.
//!
//! # Bitwise contract
//!
//! For every lane that completes without numeric failure, the scattered
//! [`NuiseOutput`] is **bitwise identical** to what the scalar
//! [`nuise_step_into`] would have produced for that robot: the slab
//! kernels replicate the scalar loop structure and accumulation order
//! per lane (see `roboads_linalg::slab`), the per-lane model
//! evaluations are the same pure functions, and every data-dependent
//! scalar decision (LU singularity, Jacobi convergence, spectrum
//! cutoffs, χ² errors) is taken per lane exactly where the scalar path
//! takes it. Lanes that *do* fail are reported via the returned flags
//! and hold garbage; the fleet path re-runs those robots through the
//! scalar estimator, which reproduces the exact scalar error.
//!
//! [`nuise_step_into`]: crate::nuise::nuise_step_into
//! [`MatrixSlab`]: roboads_linalg::MatrixSlab
//! [`VectorSlab`]: roboads_linalg::VectorSlab
// Same convention as `roboads_linalg::slab`: lane loops stay in index
// form so every kernel reads uniformly against its scalar twin.
#![allow(clippy::needless_range_loop)]

use roboads_linalg::{EigenSlabWorkspace, LuSlabWorkspace, Matrix, MatrixSlab, Vector, VectorSlab};
use roboads_models::{wrap_angle, RobotSystem, SensorSlice};

use crate::mode::Mode;
use crate::nuise::{validate_readings, NuiseOutput};
use crate::Result;

/// Per-testing-slice parsimony scratch, the slab analogue of the
/// engine's `SliceScratch`.
#[derive(Debug, Clone)]
struct SlabSliceScratch<const K: usize> {
    eig: EigenSlabWorkspace<K>,
    pinv: MatrixSlab<K>,
    d: VectorSlab<K>,
    cov: MatrixSlab<K>,
    offset: usize,
    len: usize,
    /// Per-lane statistic of this slice, scattered into
    /// [`NuiseOutput::testing_statistics`].
    statistic: [f64; K],
}

/// Preallocated scratch for stepping K robots through one mode's NUISE
/// update in a single lane-batched pass.
///
/// Mirrors every buffer of [`crate::nuise::NuiseWorkspace`] as a slab,
/// plus output slabs (the scalar path writes straight into a
/// [`NuiseOutput`]; the slab path scatters per lane afterwards) and the
/// engine's parsimony scratch, so the whole
/// NUISE-plus-implied-anomaly-count pipeline runs lane-batched. After
/// construction, [`load_lane`] + [`run`] + [`scatter_lane`] perform no
/// heap allocation.
///
/// [`load_lane`]: NuiseSlabWorkspace::load_lane
/// [`run`]: NuiseSlabWorkspace::run
/// [`scatter_lane`]: NuiseSlabWorkspace::scatter_lane
#[derive(Debug, Clone)]
pub(crate) struct NuiseSlabWorkspace<const K: usize> {
    // Cached per-mode constants (identical to NuiseWorkspace's).
    ref_slices: Vec<SensorSlice>,
    test_slices: Vec<SensorSlice>,
    angular2: Vec<usize>,
    angular1: Vec<usize>,
    r2: Matrix,
    r1: Matrix,
    noise_scale: f64,
    m2_dim: usize,
    // Per-lane inputs.
    p_prev: MatrixSlab<K>,
    z2: VectorSlab<K>,
    z1: VectorSlab<K>,
    // Vector scratch.
    h2: VectorSlab<K>,
    h1: VectorSlab<K>,
    nu_tilde: VectorSlab<K>,
    tmp_n: VectorSlab<K>,
    x_bar: VectorSlab<K>,
    x_pred: VectorSlab<K>,
    // Model evaluation slabs.
    a_mat: MatrixSlab<K>, // n × n
    g_mat: MatrixSlab<K>, // n × q
    c2: MatrixSlab<K>,    // m₂ × n
    c1: MatrixSlab<K>,    // m₁ × n
    // n × n scratch.
    p_tilde: MatrixSlab<K>,
    j_comp: MatrixSlab<K>,
    a_bar: MatrixSlab<K>,
    q_bar: MatrixSlab<K>,
    p_pred: MatrixSlab<K>,
    j_upd: MatrixSlab<K>,
    cross: MatrixSlab<K>,
    tmp_nn_a: MatrixSlab<K>,
    tmp_nn_b: MatrixSlab<K>,
    // m₂ × m₂ scratch.
    r2_star: MatrixSlab<K>,
    r2_star_inv: MatrixSlab<K>,
    p_nu: MatrixSlab<K>,
    p_nu_pinv: MatrixSlab<K>,
    tmp_m2m2_a: MatrixSlab<K>,
    tmp_m2m2_b: MatrixSlab<K>,
    // Mixed-shape scratch.
    f_mat: MatrixSlab<K>,      // m₂ × q
    f_mat_t: MatrixSlab<K>,    // q × m₂
    tmp_m2q: MatrixSlab<K>,    // m₂ × q
    tmp_qm2: MatrixSlab<K>,    // q × m₂
    m2_gain: MatrixSlab<K>,    // q × m₂
    normal: MatrixSlab<K>,     // q × q
    normal_inv: MatrixSlab<K>, // q × q
    gm2: MatrixSlab<K>,        // n × m₂
    s_mat: MatrixSlab<K>,      // n × m₂
    l_gain: MatrixSlab<K>,     // n × m₂
    tmp_nm2_a: MatrixSlab<K>,  // n × m₂
    tmp_nm2_b: MatrixSlab<K>,  // n × m₂
    // Congruence scratches.
    sc_n_m2: MatrixSlab<K>, // n × m₂
    sc_n_n: MatrixSlab<K>,  // n × n
    sc_m2_n: MatrixSlab<K>, // m₂ × n
    sc_n_m1: MatrixSlab<K>, // n × m₁
    // Lane-batched factorizations.
    lu_m2: LuSlabWorkspace<K>,
    lu_q: LuSlabWorkspace<K>,
    eigen: EigenSlabWorkspace<K>,
    // Per-lane scalar model-evaluation scratch (models evaluate one
    // robot at a time; the results are loaded into the slabs).
    eval_x: Vector,
    eval_nn: Matrix,
    eval_nq: Matrix,
    eval_c2: Matrix,
    eval_h2: Vector,
    eval_c1: Matrix,
    eval_h1: Vector,
    // Output slabs, scattered per lane after `run`.
    out_state_estimate: VectorSlab<K>,
    out_state_covariance: MatrixSlab<K>,
    out_actuator_anomaly: VectorSlab<K>,
    out_actuator_covariance: MatrixSlab<K>,
    out_sensor_anomaly: VectorSlab<K>,
    out_sensor_covariance: MatrixSlab<K>,
    out_innovation: VectorSlab<K>,
    likelihood: [f64; K],
    consistency: [f64; K],
    // Lane-batched parsimony (implied anomaly count) scratch.
    pars_actuator_eig: EigenSlabWorkspace<K>,
    pars_actuator_pinv: MatrixSlab<K>,
    pars_slices: Vec<SlabSliceScratch<K>>,
    actuator_statistic: [f64; K],
    counts: [usize; K],
}

impl<const K: usize> NuiseSlabWorkspace<K> {
    /// Builds the slab scratch for running `mode` against `system`
    /// across K lanes. Sizing mirrors
    /// [`crate::nuise::NuiseWorkspace::new`].
    pub(crate) fn new(system: &RobotSystem, mode: &Mode) -> Self {
        let n = system.state_dim();
        let q_dim = system.input_dim();
        let m2_dim = system.subset_dim(mode.reference());
        let m1_dim = system.subset_dim(mode.testing());
        let r2 = system.noise_subset(mode.reference());
        let r1 = if mode.testing().is_empty() {
            Matrix::zeros(0, 0)
        } else {
            system.noise_subset(mode.testing())
        };
        let noise_scale = (r2.trace() / r2.rows().max(1) as f64).max(f64::MIN_POSITIVE);
        let test_slices = system.subset_slices(mode.testing());
        let pars_slices = test_slices
            .iter()
            .map(|s| SlabSliceScratch {
                eig: EigenSlabWorkspace::new(s.len),
                pinv: MatrixSlab::zeros(s.len, s.len),
                d: VectorSlab::zeros(s.len),
                cov: MatrixSlab::zeros(s.len, s.len),
                offset: s.offset,
                len: s.len,
                statistic: [0.0; K],
            })
            .collect();
        NuiseSlabWorkspace {
            ref_slices: system.subset_slices(mode.reference()),
            test_slices,
            angular2: system.angular_components_subset(mode.reference()),
            angular1: system.angular_components_subset(mode.testing()),
            r2,
            r1,
            noise_scale,
            m2_dim,
            p_prev: MatrixSlab::zeros(n, n),
            z2: VectorSlab::zeros(m2_dim),
            z1: VectorSlab::zeros(m1_dim),
            h2: VectorSlab::zeros(m2_dim),
            h1: VectorSlab::zeros(m1_dim),
            nu_tilde: VectorSlab::zeros(m2_dim),
            tmp_n: VectorSlab::zeros(n),
            x_bar: VectorSlab::zeros(n),
            x_pred: VectorSlab::zeros(n),
            a_mat: MatrixSlab::zeros(n, n),
            g_mat: MatrixSlab::zeros(n, q_dim),
            c2: MatrixSlab::zeros(m2_dim, n),
            c1: MatrixSlab::zeros(m1_dim, n),
            p_tilde: MatrixSlab::zeros(n, n),
            j_comp: MatrixSlab::zeros(n, n),
            a_bar: MatrixSlab::zeros(n, n),
            q_bar: MatrixSlab::zeros(n, n),
            p_pred: MatrixSlab::zeros(n, n),
            j_upd: MatrixSlab::zeros(n, n),
            cross: MatrixSlab::zeros(n, n),
            tmp_nn_a: MatrixSlab::zeros(n, n),
            tmp_nn_b: MatrixSlab::zeros(n, n),
            r2_star: MatrixSlab::zeros(m2_dim, m2_dim),
            r2_star_inv: MatrixSlab::zeros(m2_dim, m2_dim),
            p_nu: MatrixSlab::zeros(m2_dim, m2_dim),
            p_nu_pinv: MatrixSlab::zeros(m2_dim, m2_dim),
            tmp_m2m2_a: MatrixSlab::zeros(m2_dim, m2_dim),
            tmp_m2m2_b: MatrixSlab::zeros(m2_dim, m2_dim),
            f_mat: MatrixSlab::zeros(m2_dim, q_dim),
            f_mat_t: MatrixSlab::zeros(q_dim, m2_dim),
            tmp_m2q: MatrixSlab::zeros(m2_dim, q_dim),
            tmp_qm2: MatrixSlab::zeros(q_dim, m2_dim),
            m2_gain: MatrixSlab::zeros(q_dim, m2_dim),
            normal: MatrixSlab::zeros(q_dim, q_dim),
            normal_inv: MatrixSlab::zeros(q_dim, q_dim),
            gm2: MatrixSlab::zeros(n, m2_dim),
            s_mat: MatrixSlab::zeros(n, m2_dim),
            l_gain: MatrixSlab::zeros(n, m2_dim),
            tmp_nm2_a: MatrixSlab::zeros(n, m2_dim),
            tmp_nm2_b: MatrixSlab::zeros(n, m2_dim),
            sc_n_m2: MatrixSlab::zeros(n, m2_dim),
            sc_n_n: MatrixSlab::zeros(n, n),
            sc_m2_n: MatrixSlab::zeros(m2_dim, n),
            sc_n_m1: MatrixSlab::zeros(n, m1_dim),
            lu_m2: LuSlabWorkspace::new(m2_dim),
            lu_q: LuSlabWorkspace::new(q_dim),
            eigen: EigenSlabWorkspace::new(m2_dim),
            eval_x: Vector::zeros(n),
            eval_nn: Matrix::zeros(n, n),
            eval_nq: Matrix::zeros(n, q_dim),
            eval_c2: Matrix::zeros(m2_dim, n),
            eval_h2: Vector::zeros(m2_dim),
            eval_c1: Matrix::zeros(m1_dim, n),
            eval_h1: Vector::zeros(m1_dim),
            out_state_estimate: VectorSlab::zeros(n),
            out_state_covariance: MatrixSlab::zeros(n, n),
            out_actuator_anomaly: VectorSlab::zeros(q_dim),
            out_actuator_covariance: MatrixSlab::zeros(q_dim, q_dim),
            out_sensor_anomaly: VectorSlab::zeros(m1_dim),
            out_sensor_covariance: MatrixSlab::zeros(m1_dim, m1_dim),
            out_innovation: VectorSlab::zeros(m2_dim),
            likelihood: [0.0; K],
            consistency: [0.0; K],
            pars_actuator_eig: EigenSlabWorkspace::new(q_dim),
            pars_actuator_pinv: MatrixSlab::zeros(q_dim, q_dim),
            pars_slices,
            actuator_statistic: [0.0; K],
            counts: [0; K],
        }
    }

    /// Loads one robot's inputs into lane `lane`: validates and gathers
    /// the readings, evaluates the per-robot model quantities of NUISE
    /// step 1 (`A`, `G`, `x̄`, `C₂` — pure functions, evaluated exactly
    /// as the scalar path evaluates them) and stores the previous
    /// covariance.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::BadReadings`] exactly when the scalar
    /// [`crate::nuise::nuise_step_into`] would reject the readings; the
    /// lane must then be excluded from [`run`](NuiseSlabWorkspace::run).
    pub(crate) fn load_lane(
        &mut self,
        lane: usize,
        system: &RobotSystem,
        x_prev: &Vector,
        p_prev: &Matrix,
        u_prev: &Vector,
        readings: &[Vector],
    ) -> Result<()> {
        validate_readings(system, readings)?;
        for slice in &self.ref_slices {
            let src = readings[slice.sensor].as_slice();
            for (c, &v) in src.iter().enumerate() {
                self.z2.at_mut(slice.offset + c)[lane] = v;
            }
        }
        for slice in &self.test_slices {
            let src = readings[slice.sensor].as_slice();
            for (c, &v) in src.iter().enumerate() {
                self.z1.at_mut(slice.offset + c)[lane] = v;
            }
        }
        self.p_prev.load_lane(lane, p_prev);
        system
            .dynamics()
            .state_jacobian_into(x_prev, u_prev, &mut self.eval_nn);
        self.a_mat.load_lane(lane, &self.eval_nn);
        system
            .dynamics()
            .input_jacobian_into(x_prev, u_prev, &mut self.eval_nq);
        self.g_mat.load_lane(lane, &self.eval_nq);
        system
            .dynamics()
            .step_into(x_prev, u_prev, &mut self.eval_x);
        self.x_bar.load_lane(lane, &self.eval_x);
        system.jacobian_subset_into(&self.ref_slices, &self.eval_x, &mut self.eval_c2);
        self.c2.load_lane(lane, &self.eval_c2);
        system.measure_subset_into(&self.ref_slices, &self.eval_x, &mut self.eval_h2);
        self.h2.load_lane(lane, &self.eval_h2);
        Ok(())
    }

    /// Runs Algorithm 2 plus the engine's implied-anomaly count for
    /// every lane marked in `active`, lane-batched. Returns per-lane
    /// success flags (a subset of `active`): a cleared flag means the
    /// scalar path would have returned an error for that robot
    /// (singular gain, non-converged eigendecomposition, χ² failure) —
    /// its lane holds garbage and the robot must be re-run through the
    /// scalar estimator.
    pub(crate) fn run(
        &mut self,
        system: &RobotSystem,
        compensate: bool,
        actuator_threshold: f64,
        testing_thresholds: &[f64],
        active: &[bool; K],
    ) -> [bool; K] {
        let mut ok = *active;
        let q = system.process_noise();

        // --- Step 1: actuator anomaly estimation (Alg. 2 lines 2–6).
        // Jacobians, x̄, C₂ and h₂(x̄) were loaded per lane.
        // P̃ = (A·P·Aᵀ + Q).symmetrized()
        self.p_prev
            .mul_transpose_into(&self.a_mat, &mut self.tmp_nn_a);
        self.a_mat.mul_into(&self.tmp_nn_a, &mut self.p_tilde);
        self.p_tilde.add_assign_broadcast(q);
        self.p_tilde
            .symmetrize_in_place()
            .expect("square by construction");

        // R*₂ = (C₂·P̃·C₂ᵀ + R₂).symmetrized(), then its inverse.
        self.c2
            .congruence_into(&self.p_tilde, &mut self.sc_n_m2, &mut self.r2_star)
            .expect("shapes fixed at construction");
        self.r2_star.add_assign_broadcast(&self.r2);
        self.r2_star
            .symmetrize_in_place()
            .expect("square by construction");
        self.lu_m2.factorize(&self.r2_star);
        for l in 0..K {
            if self.lu_m2.singular()[l] {
                ok[l] = false;
            }
        }
        self.lu_m2.inverse_into(&mut self.r2_star_inv);

        // M₂ = (Fᵀ·R*⁻¹·F)⁻¹·Fᵀ·R*⁻¹ with F = C₂·G.
        self.c2.mul_into(&self.g_mat, &mut self.f_mat);
        self.f_mat.transpose_into(&mut self.f_mat_t);
        self.r2_star_inv.mul_into(&self.f_mat, &mut self.tmp_m2q);
        self.f_mat_t.mul_into(&self.tmp_m2q, &mut self.normal);
        self.normal
            .symmetrize_in_place()
            .expect("square by construction");
        self.lu_q.factorize(&self.normal);
        for l in 0..K {
            if self.lu_q.singular()[l] {
                ok[l] = false;
            }
        }
        self.lu_q.inverse_into(&mut self.normal_inv);
        self.f_mat_t.mul_into(&self.r2_star_inv, &mut self.tmp_qm2);
        self.normal_inv.mul_into(&self.tmp_qm2, &mut self.m2_gain);

        // ν̃ = wrap(z₂ − h(ref, x̄)), d̂ᵃ = M₂·ν̃, Pᵃ = (Fᵀ·R*⁻¹·F)⁻¹.
        self.nu_tilde.copy_from(&self.z2);
        self.nu_tilde -= &self.h2;
        for &i in &self.angular2 {
            let g = self.nu_tilde.at_mut(i);
            for v in g.iter_mut() {
                *v = wrap_angle(*v);
            }
        }
        self.m2_gain
            .mul_vec_into(&self.nu_tilde, &mut self.out_actuator_anomaly);
        self.out_actuator_covariance.copy_from(&self.normal_inv);

        // --- Step 2: compensated state prediction (lines 7–10). ---
        if compensate {
            self.g_mat
                .mul_vec_into(&self.out_actuator_anomaly, &mut self.tmp_n);
            self.x_pred.copy_from(&self.x_bar);
            self.x_pred += &self.tmp_n;
            self.g_mat.mul_into(&self.m2_gain, &mut self.gm2);
            self.gm2.mul_into(&self.c2, &mut self.tmp_nn_a);
            self.j_comp.set_identity();
            self.j_comp -= &self.tmp_nn_a;
            self.j_comp.mul_into(&self.a_mat, &mut self.a_bar);
            self.j_comp
                .congruence_broadcast_into(q, &mut self.sc_n_n, &mut self.q_bar)
                .expect("shapes fixed at construction");
            self.gm2
                .congruence_broadcast_into(&self.r2, &mut self.sc_m2_n, &mut self.tmp_nn_b)
                .expect("shapes fixed at construction");
            self.q_bar += &self.tmp_nn_b;
            self.q_bar
                .symmetrize_in_place()
                .expect("square by construction");
            self.gm2.mul_broadcast_into(&self.r2, &mut self.s_mat);
            self.s_mat.negate();
        } else {
            self.x_pred.copy_from(&self.x_bar);
            self.a_bar.copy_from(&self.a_mat);
            // The scalar path copies Q; `broadcast_from` (not
            // fill+add, which would turn −0.0 entries into +0.0).
            self.q_bar.broadcast_from(q);
            self.s_mat.fill(0.0);
        }
        self.a_bar
            .congruence_into(&self.p_prev, &mut self.sc_n_n, &mut self.p_pred)
            .expect("shapes fixed at construction");
        self.p_pred += &self.q_bar;
        self.p_pred
            .symmetrize_in_place()
            .expect("square by construction");

        // --- Step 3: correlated-noise state update (lines 11–14). ---
        // h₂ at x_pred is a per-robot model evaluation; failed lanes
        // are skipped (their x_pred holds garbage).
        for l in 0..K {
            if !ok[l] {
                continue;
            }
            self.x_pred.store_lane(l, &mut self.eval_x);
            system.measure_subset_into(&self.ref_slices, &self.eval_x, &mut self.eval_h2);
            self.h2.load_lane(l, &self.eval_h2);
        }
        self.out_innovation.copy_from(&self.z2);
        self.out_innovation -= &self.h2;
        for &i in &self.angular2 {
            let g = self.out_innovation.at_mut(i);
            for v in g.iter_mut() {
                *v = wrap_angle(*v);
            }
        }
        // Pν = ((C₂·P·C₂ᵀ + R₂) + (C₂S + (C₂S)ᵀ)).symmetrized()
        self.c2.mul_into(&self.s_mat, &mut self.tmp_m2m2_a);
        self.c2
            .congruence_into(&self.p_pred, &mut self.sc_n_m2, &mut self.p_nu)
            .expect("shapes fixed at construction");
        self.p_nu.add_assign_broadcast(&self.r2);
        self.tmp_m2m2_a.transpose_into(&mut self.tmp_m2m2_b);
        self.tmp_m2m2_a += &self.tmp_m2m2_b;
        self.p_nu += &self.tmp_m2m2_a;
        self.p_nu
            .symmetrize_in_place()
            .expect("square by construction");
        // Pseudo-inverse on the informative spectrum (see the scalar
        // path for why Pν is structurally singular and the cutoff
        // carries an absolute noise-scale floor). Failed lanes are
        // inactive so their NaN spectra cannot drag the sweep count.
        let converged = self.eigen.factorize(&self.p_nu, &ok);
        for l in 0..K {
            if ok[l] && !converged[l] {
                ok[l] = false;
            }
        }
        let mut cutoff = [0.0f64; K];
        for (l, c) in cutoff.iter_mut().enumerate() {
            if ok[l] {
                *c = (1e-9 * self.noise_scale).max(1e-10 * self.eigen.max_eigenvalue(l).abs());
            }
        }
        self.eigen.spectral_map_into(
            |l, lam| {
                if ok[l] && lam.abs() > cutoff[l] {
                    1.0 / lam
                } else {
                    0.0
                }
            },
            &mut self.p_nu_pinv,
        );
        let mut nu_rank = [0usize; K];
        let mut nu_pdet = [1.0f64; K];
        for l in 0..K {
            if !ok[l] {
                continue;
            }
            for k in 0..self.m2_dim {
                let lam = self.eigen.eigenvalues().at(k)[l];
                if lam.abs() > cutoff[l] {
                    nu_rank[l] += 1;
                    nu_pdet[l] *= lam;
                }
            }
        }
        // L = (P·C₂ᵀ + S)·Pν†
        self.p_pred
            .mul_transpose_into(&self.c2, &mut self.tmp_nm2_a);
        self.tmp_nm2_a += &self.s_mat;
        self.tmp_nm2_a.mul_into(&self.p_nu_pinv, &mut self.l_gain);
        self.l_gain
            .mul_vec_into(&self.out_innovation, &mut self.tmp_n);
        self.out_state_estimate.copy_from(&self.x_pred);
        self.out_state_estimate += &self.tmp_n;
        for &i in system.dynamics().angular_state_components() {
            let g = self.out_state_estimate.at_mut(i);
            for v in g.iter_mut() {
                *v = wrap_angle(*v);
            }
        }
        // J = I − L·C₂, Pˣ = (J·P·Jᵀ + L·R₂·Lᵀ − (JSLᵀ + (JSLᵀ)ᵀ)).symmetrized()
        self.l_gain.mul_into(&self.c2, &mut self.tmp_nn_a);
        self.j_upd.set_identity();
        self.j_upd -= &self.tmp_nn_a;
        self.j_upd.mul_into(&self.s_mat, &mut self.tmp_nm2_b);
        self.tmp_nm2_b
            .mul_transpose_into(&self.l_gain, &mut self.cross);
        self.j_upd
            .congruence_into(
                &self.p_pred,
                &mut self.sc_n_n,
                &mut self.out_state_covariance,
            )
            .expect("shapes fixed at construction");
        self.l_gain
            .congruence_broadcast_into(&self.r2, &mut self.sc_m2_n, &mut self.tmp_nn_a)
            .expect("shapes fixed at construction");
        self.out_state_covariance += &self.tmp_nn_a;
        self.cross.transpose_into(&mut self.tmp_nn_b);
        self.cross += &self.tmp_nn_b;
        self.out_state_covariance -= &self.cross;
        self.out_state_covariance
            .symmetrize_in_place()
            .expect("square by construction");

        // --- Step 4: testing-sensor anomaly estimation (lines 15–16).
        if !self.test_slices.is_empty() {
            // z₁ was gathered at load time; C₁/h₁ at the fresh state
            // estimate are per-robot model evaluations.
            for l in 0..K {
                if !ok[l] {
                    continue;
                }
                self.out_state_estimate.store_lane(l, &mut self.eval_x);
                system.jacobian_subset_into(&self.test_slices, &self.eval_x, &mut self.eval_c1);
                self.c1.load_lane(l, &self.eval_c1);
                system.measure_subset_into(&self.test_slices, &self.eval_x, &mut self.eval_h1);
                self.h1.load_lane(l, &self.eval_h1);
            }
            self.out_sensor_anomaly.copy_from(&self.z1);
            self.out_sensor_anomaly -= &self.h1;
            for &i in &self.angular1 {
                let g = self.out_sensor_anomaly.at_mut(i);
                for v in g.iter_mut() {
                    *v = wrap_angle(*v);
                }
            }
            self.c1
                .congruence_into(
                    &self.out_state_covariance,
                    &mut self.sc_n_m1,
                    &mut self.out_sensor_covariance,
                )
                .expect("shapes fixed at construction");
            self.out_sensor_covariance.add_assign_broadcast(&self.r1);
            self.out_sensor_covariance
                .symmetrize_in_place()
                .expect("square by construction");
        }

        // --- Step 5: mode likelihood (lines 17–20). ---
        let stat_all = self.out_innovation.quadratic_form(&self.p_nu_pinv);
        for l in 0..K {
            if !ok[l] {
                continue;
            }
            if nu_rank[l] == 0 {
                self.likelihood[l] = 1.0;
                self.consistency[l] = 1.0;
                continue;
            }
            let stat = stat_all[l].max(0.0);
            let norm = (2.0 * std::f64::consts::PI).powf(nu_rank[l] as f64 / 2.0)
                * nu_pdet[l].abs().sqrt();
            self.likelihood[l] = (-0.5 * stat).exp() / norm.max(f64::MIN_POSITIVE);
            match roboads_stats::ChiSquared::new(nu_rank[l]).and_then(|chi| chi.survival(stat)) {
                Ok(c) => self.consistency[l] = c,
                Err(_) => ok[l] = false,
            }
        }

        // --- Implied anomaly count (the engine's parsimony prior),
        // lane-batched to mirror `implied_anomaly_count` bit for bit.
        let conv = self
            .pars_actuator_eig
            .factorize(&self.out_actuator_covariance, &ok);
        for l in 0..K {
            if ok[l] && !conv[l] {
                ok[l] = false;
            }
        }
        let mut cut_a = [0.0f64; K];
        for (l, c) in cut_a.iter_mut().enumerate() {
            if ok[l] {
                *c = self.pars_actuator_eig.spectrum_cutoff(l);
            }
        }
        self.pars_actuator_eig.spectral_map_into(
            |l, lam| {
                if ok[l] && lam.abs() > cut_a[l] {
                    1.0 / lam
                } else {
                    0.0
                }
            },
            &mut self.pars_actuator_pinv,
        );
        self.actuator_statistic = self
            .out_actuator_anomaly
            .quadratic_form(&self.pars_actuator_pinv);
        for l in 0..K {
            self.counts[l] = usize::from(ok[l] && self.actuator_statistic[l] > actuator_threshold);
        }
        let pars_slices = &mut self.pars_slices;
        let sensor_anomaly = &self.out_sensor_anomaly;
        let sensor_covariance = &self.out_sensor_covariance;
        let counts = &mut self.counts;
        for (s, &threshold) in pars_slices.iter_mut().zip(testing_thresholds) {
            for i in 0..s.len {
                *s.d.at_mut(i) = *sensor_anomaly.at(s.offset + i);
            }
            for i in 0..s.len {
                for j in 0..s.len {
                    *s.cov.at_mut(i, j) = *sensor_covariance.at(s.offset + i, s.offset + j);
                }
            }
            let conv = s.eig.factorize(&s.cov, &ok);
            for l in 0..K {
                if ok[l] && !conv[l] {
                    ok[l] = false;
                }
            }
            let mut cut = [0.0f64; K];
            for (l, c) in cut.iter_mut().enumerate() {
                if ok[l] {
                    *c = s.eig.spectrum_cutoff(l);
                }
            }
            let eig = &s.eig;
            eig.spectral_map_into(
                |l, lam| {
                    if ok[l] && lam.abs() > cut[l] {
                        1.0 / lam
                    } else {
                        0.0
                    }
                },
                &mut s.pinv,
            );
            s.statistic = s.d.quadratic_form(&s.pinv);
            for l in 0..K {
                if ok[l] && s.statistic[l] > threshold {
                    counts[l] += 1;
                }
            }
        }
        ok
    }

    /// Copies lane `lane`'s results into `out` (which must be sized for
    /// this workspace's mode, e.g. the engine's per-mode output slot),
    /// including the parsimony statistics the scalar
    /// `implied_anomaly_count` would have stored there.
    /// Only meaningful for lanes whose [`run`](NuiseSlabWorkspace::run)
    /// flag was set.
    pub(crate) fn scatter_lane(&self, lane: usize, out: &mut NuiseOutput) {
        self.out_state_estimate
            .store_lane(lane, &mut out.state_estimate);
        self.out_state_covariance
            .store_lane(lane, &mut out.state_covariance);
        self.out_actuator_anomaly
            .store_lane(lane, &mut out.actuator_anomaly);
        self.out_actuator_covariance
            .store_lane(lane, &mut out.actuator_covariance);
        self.out_sensor_anomaly
            .store_lane(lane, &mut out.sensor_anomaly);
        self.out_sensor_covariance
            .store_lane(lane, &mut out.sensor_covariance);
        self.out_innovation.store_lane(lane, &mut out.innovation);
        out.likelihood = self.likelihood[lane];
        out.consistency = self.consistency[lane];
        out.actuator_statistic = self.actuator_statistic[lane];
        for (dst, s) in out.testing_statistics.iter_mut().zip(&self.pars_slices) {
            *dst = s.statistic[lane];
        }
    }

    /// Lane `lane`'s implied anomaly count from the last
    /// [`run`](NuiseSlabWorkspace::run).
    pub(crate) fn count(&self, lane: usize) -> usize {
        self.counts[lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Linearization;
    use crate::engine::{implied_anomaly_count, ParsimonyScratch};
    use crate::nuise::{nuise_step_into, NuiseInput, NuiseWorkspace};
    use roboads_models::presets;

    const K: usize = 4;

    fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
        (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(x))
            .collect()
    }

    /// The slab pipeline must reproduce the scalar NUISE step and the
    /// scalar implied-anomaly count bit for bit, per lane, over warm
    /// multi-step trajectories with distinct per-lane states, for every
    /// reference/testing partition shape and both compensation settings.
    #[test]
    fn slab_run_is_bitwise_identical_to_scalar_step() {
        let system = presets::khepera_system();
        let modes = [
            Mode::new(vec![0], vec![1, 2]),
            Mode::new(vec![1], vec![0, 2]),
            Mode::new(vec![2], vec![0, 1]),
            Mode::new(vec![0, 1, 2], vec![]),
        ];
        let actuator_threshold = 9.21; // any positive constant works: both paths share it
        for mode in &modes {
            for compensate in [true, false] {
                let mut ws = NuiseWorkspace::new(&system, mode);
                let testing_thresholds: Vec<f64> = ws
                    .testing_slices()
                    .iter()
                    .map(|s| 2.0 + s.len as f64)
                    .collect();
                let mut scratch = ParsimonyScratch::new(system.input_dim(), ws.testing_slices());
                let mut slab = NuiseSlabWorkspace::<K>::new(&system, mode);
                let mut reference = ws.new_output();
                let mut scattered = ws.new_output();
                let mut x_est: Vec<Vector> = (0..K)
                    .map(|l| Vector::from_slice(&[0.4 + 0.1 * l as f64, 0.5, 0.1 * l as f64]))
                    .collect();
                let mut p: Vec<Matrix> = (0..K)
                    .map(|l| Matrix::identity(3) * (1e-4 * (l + 1) as f64))
                    .collect();
                let mut x_true = x_est.clone();
                let u: Vec<Vector> = (0..K)
                    .map(|l| Vector::from_slice(&[0.05 + 0.01 * l as f64, 0.05]))
                    .collect();
                for k in 0..15 {
                    let mut all_readings = Vec::new();
                    for l in 0..K {
                        x_true[l] = system.dynamics().step(&x_true[l], &u[l]);
                        let mut readings = clean_readings(&system, &x_true[l]);
                        if k > 7 {
                            readings[1][0] += 0.05 * (l + 1) as f64;
                        }
                        all_readings.push(readings);
                    }
                    for l in 0..K {
                        slab.load_lane(l, &system, &x_est[l], &p[l], &u[l], &all_readings[l])
                            .unwrap();
                    }
                    let ok = slab.run(
                        &system,
                        compensate,
                        actuator_threshold,
                        &testing_thresholds,
                        &[true; K],
                    );
                    assert_eq!(ok, [true; K], "mode {mode:?} step {k}");
                    for l in 0..K {
                        nuise_step_into(
                            NuiseInput {
                                system: &system,
                                mode,
                                x_prev: &x_est[l],
                                p_prev: &p[l],
                                u_prev: &u[l],
                                readings: &all_readings[l],
                                linearization: &Linearization::PerIteration,
                                compensate,
                            },
                            &mut ws,
                            &mut reference,
                        )
                        .unwrap();
                        let expected_count = implied_anomaly_count(
                            &mut reference,
                            actuator_threshold,
                            ws.testing_slices(),
                            &testing_thresholds,
                            &mut scratch,
                        )
                        .unwrap();
                        slab.scatter_lane(l, &mut scattered);
                        assert_eq!(
                            scattered, reference,
                            "mode {mode:?} lane {l} diverged at step {k}"
                        );
                        assert_eq!(slab.count(l), expected_count, "mode {mode:?} lane {l}");
                        x_est[l] = reference.state_estimate.clone();
                        p[l] = reference.state_covariance.clone();
                    }
                }
            }
        }
    }

    /// A partially-active tile (the fleet's remainder tail) must leave
    /// inactive lanes out while the active lanes stay bitwise-pinned.
    #[test]
    fn masked_lanes_do_not_perturb_active_lanes() {
        let system = presets::khepera_system();
        let mode = Mode::new(vec![0], vec![1, 2]);
        let mut ws = NuiseWorkspace::new(&system, &mode);
        let testing_thresholds: Vec<f64> = ws
            .testing_slices()
            .iter()
            .map(|s| 2.0 + s.len as f64)
            .collect();
        let mut slab = NuiseSlabWorkspace::<K>::new(&system, &mode);
        let mut reference = ws.new_output();
        let mut scattered = ws.new_output();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.3]);
        let p0 = Matrix::identity(3) * 1e-4;
        let u = Vector::from_slice(&[0.06, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        let readings = clean_readings(&system, &x1);
        let mut active = [false; K];
        for l in 0..2 {
            slab.load_lane(l, &system, &x0, &p0, &u, &readings).unwrap();
            active[l] = true;
        }
        let ok = slab.run(&system, true, 9.21, &testing_thresholds, &active);
        assert_eq!(ok, active);
        nuise_step_into(
            NuiseInput {
                system: &system,
                mode: &mode,
                x_prev: &x0,
                p_prev: &p0,
                u_prev: &u,
                readings: &readings,
                linearization: &Linearization::PerIteration,
                compensate: true,
            },
            &mut ws,
            &mut reference,
        )
        .unwrap();
        // Scattered lanes carry the parsimony statistics too.
        let mut scratch = ParsimonyScratch::new(system.input_dim(), ws.testing_slices());
        implied_anomaly_count(
            &mut reference,
            9.21,
            ws.testing_slices(),
            &testing_thresholds,
            &mut scratch,
        )
        .unwrap();
        for l in 0..2 {
            slab.scatter_lane(l, &mut scattered);
            assert_eq!(scattered, reference, "lane {l}");
        }
    }

    /// Bad readings must be rejected at load time with the scalar error.
    #[test]
    fn load_lane_rejects_bad_readings() {
        let system = presets::khepera_system();
        let mode = Mode::new(vec![0], vec![1, 2]);
        let mut slab = NuiseSlabWorkspace::<K>::new(&system, &mode);
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.3]);
        let p0 = Matrix::identity(3) * 1e-4;
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut readings = clean_readings(&system, &x0);
        readings[0][0] = f64::NAN;
        let err = slab
            .load_lane(1, &system, &x0, &p0, &u, &readings)
            .unwrap_err();
        assert!(matches!(err, crate::CoreError::BadReadings { .. }));
    }
}
