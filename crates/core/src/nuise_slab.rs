//! Algorithm 2 as one lane-batched kernel: K robots' same-mode NUISE
//! steps, plus the engine's implied-anomaly count, in one pass over
//! structure-of-arrays slabs.
//!
//! This is the only in-place NUISE implementation. The engine's
//! iteration driver runs every mode of a standalone robot through it at
//! K = 1, and the fleet's signature groups at K = 8, so the dense
//! kernels vectorize across robots instead of running over matrices too
//! small to vectorize within. The
//! allocating [`crate::nuise::nuise_step`] is the reference oracle both
//! are pinned against.
//!
//! # Bitwise contract
//!
//! For every lane that completes, the scattered [`NuiseOutput`] is
//! **bitwise identical** to what `nuise_step` returns for that robot,
//! parsimony statistics included, and the implied-anomaly count is the
//! one those statistics imply. The slab
//! kernels replicate the scalar accumulation order per lane — each
//! entry's terms in the reference's order from `+0.0`, skipped terms as
//! selects (see `roboads_linalg::slab`) — the per-lane model evaluations
//! are the same pure functions, and every data-dependent scalar
//! decision (LU singularity, the projected Cholesky's acceptance, χ²
//! errors) is taken per lane exactly where `nuise_step` takes it; a lane
//! the projection or a whitening rejects is copied out and runs the
//! allocating pseudo-inverse `nuise_step` runs there. A lane
//! that fails holds garbage; its first failure is recorded, and
//! [`NuiseSlabWorkspace::lane_error`] turns it into exactly the error
//! `nuise_step` returns.
// Same convention as `roboads_linalg::slab`: lane loops stay in index
// form so every kernel reads uniformly against its scalar twin.
#![allow(clippy::needless_range_loop)]

use std::sync::Arc;

use roboads_linalg::{
    LinalgError, LuSlabWorkspace, Matrix, MatrixSlab, ProjectedSlabWorkspace, ProjectionScratch,
    Vector, VectorSlab,
};
use roboads_models::{wrap_angle, RobotSystem, SensorSlice};

use crate::config::Linearization;
use crate::decision::NormalizedStatistic;
use crate::mode::Mode;
use crate::nuise::{
    chi2_consistency, likelihood_normalizer, validate_readings, NuiseOutput, NON_FINITE_ESTIMATE,
    RANK_DEFICIENT, SINGULAR_INNOVATION,
};
use crate::{CoreError, Result};

/// A lane's first failure inside [`NuiseSlabWorkspace::run`], in the
/// order `nuise_step` checks for them.
#[derive(Debug, Clone, PartialEq)]
enum LaneFailure {
    /// `R*₂` is singular.
    SingularInnovation,
    /// `rank(C₂G)` is below the input dimension.
    RankDeficient,
    /// The pseudo-inverse of an innovation covariance the projection
    /// rejected, or of a parsimony covariance the whitening rejected,
    /// failed with this error.
    Linalg(LinalgError),
    /// The χ² survival function rejected the consistency statistic.
    ChiSquared { rank: usize, stat: f64 },
    /// The updated state estimate or covariance is not finite.
    NonFinite,
}

impl LaneFailure {
    fn into_error(self) -> CoreError {
        match self {
            LaneFailure::SingularInnovation => CoreError::Numeric(SINGULAR_INNOVATION.into()),
            LaneFailure::RankDeficient => CoreError::Numeric(RANK_DEFICIENT.into()),
            LaneFailure::Linalg(e) => e.into(),
            LaneFailure::ChiSquared { rank, stat } => chi2_consistency(rank, stat)
                .expect_err("the χ² evaluation is a pure function of (rank, stat)"),
            LaneFailure::NonFinite => CoreError::Numeric(NON_FINITE_ESTIMATE.into()),
        }
    }
}

/// Clears lane `l`'s flag, recording `reason` if it is the lane's first
/// failure.
fn fail<const K: usize>(
    ok: &mut [bool; K],
    failure: &mut [Option<LaneFailure>; K],
    l: usize,
    reason: LaneFailure,
) {
    if ok[l] {
        ok[l] = false;
        failure[l] = Some(reason);
    }
}

/// Per-testing-slice parsimony scratch.
#[derive(Debug, Clone)]
struct SlabSliceScratch<const K: usize> {
    stat: NormalizedStatistic<K>,
    offset: usize,
    /// Per-lane statistic of this slice, scattered into
    /// [`NuiseOutput::testing_statistics`].
    statistic: [f64; K],
}

/// Significance level at which an anomaly estimate counts as "implied"
/// for the engine's parsimony prior.
const PARSIMONY_ALPHA: f64 = 0.01;

/// χ² critical value for the parsimony significance checks. Evaluated
/// only when a mode's [`ModeLayout`] is built, so the quantile search
/// stays out of the per-iteration hot path.
fn parsimony_threshold(dof: usize) -> Result<f64> {
    roboads_stats::ChiSquared::new(dof)
        .and_then(|chi| chi.critical_value(PARSIMONY_ALPHA))
        .map_err(|e| CoreError::Numeric(e.to_string()))
}

/// The kernel's per-mode constants: the mode's sensor layout, noise
/// blocks, dimensions and parsimony thresholds. Built once per engine
/// mode and shared behind an [`Arc`] by the engine's [`ModeKernel`],
/// every clone of it, and every workspace built from it — the
/// engine's one-lane scratch and the fleet's eight-lane banks — so
/// cloning a detector copies none of it.
#[derive(Debug)]
struct ModeLayout {
    ref_slices: Vec<SensorSlice>,
    test_slices: Vec<SensorSlice>,
    angular2: Vec<usize>,
    angular1: Vec<usize>,
    r2: Matrix,
    r1: Matrix,
    /// Absolute floor of the innovation spectrum cutoff (1e-9 × the
    /// mean `R₂` diagonal; see `nuise_step`).
    spectrum_floor: f64,
    /// `(2π)^{r/2}` at the projected rank `r`: `m₂ − q` with
    /// compensation, `m₂` without.
    normalizer_compensated: f64,
    normalizer_uncompensated: f64,
    n: usize,
    q_dim: usize,
    m2_dim: usize,
    m1_dim: usize,
    /// χ² critical value of the actuator parsimony check, at the
    /// system's input dimension.
    actuator_threshold: f64,
    /// χ² critical values of the per-testing-slice parsimony checks,
    /// aligned with `test_slices`.
    testing_thresholds: Vec<f64>,
}

impl ModeLayout {
    fn new(system: &RobotSystem, mode: &Mode) -> Result<Self> {
        let r2 = system.noise_subset(mode.reference());
        let r1 = if mode.testing().is_empty() {
            Matrix::zeros(0, 0)
        } else {
            system.noise_subset(mode.testing())
        };
        let noise_scale = (r2.trace() / r2.rows().max(1) as f64).max(f64::MIN_POSITIVE);
        let test_slices = system.subset_slices(mode.testing());
        let testing_thresholds = test_slices
            .iter()
            .map(|slice| parsimony_threshold(slice.len))
            .collect::<Result<_>>()?;
        Ok(ModeLayout {
            ref_slices: system.subset_slices(mode.reference()),
            angular2: system.angular_components_subset(mode.reference()),
            angular1: system.angular_components_subset(mode.testing()),
            r2,
            r1,
            spectrum_floor: 1e-9 * noise_scale,
            normalizer_compensated: likelihood_normalizer(
                system
                    .subset_dim(mode.reference())
                    .saturating_sub(system.input_dim()),
            ),
            normalizer_uncompensated: likelihood_normalizer(system.subset_dim(mode.reference())),
            n: system.state_dim(),
            q_dim: system.input_dim(),
            m2_dim: system.subset_dim(mode.reference()),
            m1_dim: system.subset_dim(mode.testing()),
            actuator_threshold: parsimony_threshold(system.input_dim().max(1))?,
            testing_thresholds,
            test_slices,
        })
    }

    /// A zeroed [`NuiseOutput`] with every buffer sized for this mode,
    /// ready for [`NuiseSlabWorkspace::scatter_lane`].
    fn new_output(&self) -> NuiseOutput {
        let (n, q_dim, m1_dim) = (self.n, self.q_dim, self.m1_dim);
        NuiseOutput {
            state_estimate: Vector::zeros(n),
            state_covariance: Matrix::zeros(n, n),
            actuator_anomaly: Vector::zeros(q_dim),
            actuator_covariance: Matrix::zeros(q_dim, q_dim),
            sensor_anomaly: Vector::zeros(m1_dim),
            sensor_covariance: Matrix::zeros(m1_dim, m1_dim),
            likelihood: 0.0,
            consistency: 0.0,
            innovation: Vector::zeros(self.m2_dim),
            actuator_statistic: 0.0,
            testing_statistics: vec![0.0; self.test_slices.len()],
        }
    }
}

/// The §V-G linearize-once model ([`Linearization::FrozenAt`]): every
/// model quantity NUISE needs, evaluated once at the operating point
/// `(x₀, u₀)` (pure functions, so the values are the ones `nuise_step`
/// recomputes each call). Per-lane evaluations apply the affine
/// expansion in place with the operation order of `nuise.rs`'s `Lin`.
#[derive(Debug, Clone)]
struct FrozenModel {
    state: Vector,
    input: Vector,
    f0: Vector,
    a0: Matrix,
    g0: Matrix,
    /// `h(x₀)` and `C(x₀)` of the reference subset.
    h2_0: Vector,
    c2_0: Matrix,
    /// `h(x₀)` and `C(x₀)` of the testing subset.
    h1_0: Vector,
    c1_0: Matrix,
    // Scratch: x − x₀, u − u₀ and G₀(u − u₀).
    dx: Vector,
    du: Vector,
    g_du: Vector,
}

impl FrozenModel {
    fn new(system: &RobotSystem, layout: &ModeLayout, state: &Vector, input: &Vector) -> Self {
        let (n, q) = (layout.n, layout.q_dim);
        let mut frozen = FrozenModel {
            state: state.clone(),
            input: input.clone(),
            f0: Vector::zeros(n),
            a0: Matrix::zeros(n, n),
            g0: Matrix::zeros(n, q),
            h2_0: Vector::zeros(layout.m2_dim),
            c2_0: Matrix::zeros(layout.m2_dim, n),
            h1_0: Vector::zeros(layout.m1_dim),
            c1_0: Matrix::zeros(layout.m1_dim, n),
            dx: Vector::zeros(n),
            du: Vector::zeros(q),
            g_du: Vector::zeros(n),
        };
        let dynamics = system.dynamics();
        dynamics.step_into(state, input, &mut frozen.f0);
        dynamics.state_jacobian_into(state, input, &mut frozen.a0);
        dynamics.input_jacobian_into(state, input, &mut frozen.g0);
        system.measure_subset_into(&layout.ref_slices, state, &mut frozen.h2_0);
        system.jacobian_subset_into(&layout.ref_slices, state, &mut frozen.c2_0);
        system.measure_subset_into(&layout.test_slices, state, &mut frozen.h1_0);
        system.jacobian_subset_into(&layout.test_slices, state, &mut frozen.c1_0);
        frozen
    }

    /// `f(x, u) = (f₀ + A₀(x − x₀)) + G₀(u − u₀)`.
    fn step_into(&mut self, x: &Vector, u: &Vector, out: &mut Vector) {
        self.dx.copy_from(x);
        self.dx -= &self.state;
        self.a0.mul_vec_into(&self.dx, out);
        *out += &self.f0;
        self.du.copy_from(u);
        self.du -= &self.input;
        self.g0.mul_vec_into(&self.du, &mut self.g_du);
        *out += &self.g_du;
    }

    /// `h(x) = h₀ + C₀(x − x₀)` for the reference (`testing = false`)
    /// or testing subset.
    fn measure_into(&mut self, testing: bool, x: &Vector, out: &mut Vector) {
        let (h0, c0) = if testing {
            (&self.h1_0, &self.c1_0)
        } else {
            (&self.h2_0, &self.c2_0)
        };
        self.dx.copy_from(x);
        self.dx -= &self.state;
        c0.mul_vec_into(&self.dx, out);
        *out += h0;
    }
}

/// One mode's kernel constants: its [`ModeLayout`] and, under the §V-G
/// linearization, its [`FrozenModel`]. This is all an engine keeps per
/// mode; the scratch to run the kernel at a lane width is built from it
/// by [`ModeKernel::workspace`], so cloning a kernel copies an [`Arc`]
/// (and the small frozen model) and no scratch.
#[derive(Debug, Clone)]
pub(crate) struct ModeKernel {
    layout: Arc<ModeLayout>,
    /// `Some` for the §V-G frozen linearization.
    frozen: Option<FrozenModel>,
}

impl ModeKernel {
    /// The constants for running `mode` against `system` under
    /// `linearization`.
    ///
    /// # Errors
    ///
    /// A χ² error while resolving the parsimony thresholds.
    ///
    /// # Panics
    ///
    /// Panics if a [`Linearization::FrozenAt`] operating point does not
    /// match the system's state and input dimensions (the engine checks
    /// this at construction).
    pub(crate) fn new(
        system: &RobotSystem,
        mode: &Mode,
        linearization: &Linearization,
    ) -> Result<Self> {
        let layout = ModeLayout::new(system, mode)?;
        let frozen = match linearization {
            Linearization::PerIteration => None,
            Linearization::FrozenAt { state, input } => {
                Some(FrozenModel::new(system, &layout, state, input))
            }
        };
        Ok(ModeKernel {
            layout: Arc::new(layout),
            frozen,
        })
    }

    /// Scratch for running this mode `K` lanes wide, sharing these
    /// constants.
    pub(crate) fn workspace<const K: usize>(&self) -> NuiseSlabWorkspace<K> {
        NuiseSlabWorkspace::with_layout(Arc::clone(&self.layout), self.frozen.clone())
    }

    /// Length of the mode's stacked sensor-anomaly (testing) vector.
    pub(crate) fn testing_dim(&self) -> usize {
        self.layout.m1_dim
    }

    /// A zeroed [`NuiseOutput`] with every buffer sized for this mode.
    pub(crate) fn new_output(&self) -> NuiseOutput {
        self.layout.new_output()
    }
}

/// Preallocated scratch for stepping K robots through one mode's NUISE
/// update in a single lane-batched pass.
///
/// Holds every intermediate of Algorithm 2 as a slab, output slabs
/// scattered per lane afterwards, and the parsimony scratch, so the
/// whole NUISE-plus-implied-anomaly-count pipeline runs lane-batched.
/// After construction, [`load_lane`] + [`run`] + [`scatter_lane`]
/// perform no heap allocation, under either [`Linearization`].
///
/// [`load_lane`]: NuiseSlabWorkspace::load_lane
/// [`run`]: NuiseSlabWorkspace::run
/// [`scatter_lane`]: NuiseSlabWorkspace::scatter_lane
#[derive(Debug)]
pub(crate) struct NuiseSlabWorkspace<const K: usize> {
    layout: Arc<ModeLayout>,
    /// `Some` for the §V-G frozen linearization.
    frozen: Option<FrozenModel>,
    // Per-lane inputs.
    p_prev: MatrixSlab<K>,
    z2: VectorSlab<K>,
    z1: VectorSlab<K>,
    // Vector scratch.
    h2: VectorSlab<K>,
    h1: VectorSlab<K>,
    tmp_n: VectorSlab<K>,
    /// `x̄ = f(x̂, u)`, compensated in place into `x̂_{k|k−1}` (step 2).
    x_pred: VectorSlab<K>,
    // Model evaluation slabs.
    a_mat: MatrixSlab<K>, // n × n
    g_mat: MatrixSlab<K>, // n × q
    c2: MatrixSlab<K>,    // m₂ × n
    c1: MatrixSlab<K>,    // m₁ × n
    // n × n scratch. Buffers whose lifetimes do not overlap are shared:
    // `p_tilde` (step 1) then `p_pred` (steps 2–3), the compensation
    // projector `I − G·M₂·C₂` (step 2) then the update projector
    // `I − L·C₂` (step 3); `tmp_nn_a` doubles as the n × n congruence
    // scratch.
    p_tilde_pred: MatrixSlab<K>,
    j_proj: MatrixSlab<K>,
    a_bar: MatrixSlab<K>,
    q_bar: MatrixSlab<K>,
    tmp_nn_a: MatrixSlab<K>,
    tmp_nn_b: MatrixSlab<K>,
    // m₂ × m₂ scratch, shared the same way: `R*₂` and its inverse
    // (step 1), then `Pν` and its pseudo-inverse (steps 3 and 5); the
    // two temporaries build `Pν`, then hold the projection's basis and
    // products (step 3).
    r2_star_p_nu: MatrixSlab<K>,
    r2_star_inv_p_nu_pinv: MatrixSlab<K>,
    tmp_m2m2_a: MatrixSlab<K>,
    tmp_m2m2_b: MatrixSlab<K>,
    // Mixed-shape scratch.
    f_mat: MatrixSlab<K>,      // m₂ × q
    f_mat_t: MatrixSlab<K>,    // q × m₂
    tmp_m2q: MatrixSlab<K>,    // m₂ × q
    tmp_qm2: MatrixSlab<K>,    // q × m₂
    m2_gain: MatrixSlab<K>,    // q × m₂
    normal: MatrixSlab<K>,     // q × q, = (Pᵃ)⁻¹ (the actuator statistic)
    normal_inv: MatrixSlab<K>, // q × q, = Pᵃ (scattered as-is)
    gm2: MatrixSlab<K>,        // n × m₂
    s_mat: MatrixSlab<K>,      // n × m₂
    l_gain: MatrixSlab<K>,     // n × m₂
    tmp_nm2: MatrixSlab<K>,    // n × m₂, also a congruence scratch
    // Congruence scratches.
    sc_m2_n: MatrixSlab<K>, // m₂ × n
    sc_n_m1: MatrixSlab<K>, // n × m₁
    // Lane-batched factorizations.
    lu_m2: LuSlabWorkspace<K>,
    lu_q: LuSlabWorkspace<K>,
    /// Pν's projected Cholesky.
    projection: ProjectedSlabWorkspace<K>,
    // Per-lane scalar model-evaluation scratch (models evaluate one
    // robot at a time; the results are loaded into the slabs).
    eval_x: Vector,
    eval_nn: Matrix,
    eval_nq: Matrix,
    eval_c2: Matrix,
    eval_h2: Vector,
    /// A lane's Pν and ν, copied out where the projection rejects Pν.
    eval_p_nu: Matrix,
    eval_nu: Vector,
    eval_c1: Matrix,
    eval_h1: Vector,
    // Output slabs, scattered per lane after `run` (with `normal_inv`).
    out_state_estimate: VectorSlab<K>,
    out_state_covariance: MatrixSlab<K>,
    out_actuator_anomaly: VectorSlab<K>,
    out_sensor_anomaly: VectorSlab<K>,
    out_sensor_covariance: MatrixSlab<K>,
    /// `ν̃` (step 1), then the innovation `ν` (step 3).
    out_innovation: VectorSlab<K>,
    likelihood: [f64; K],
    consistency: [f64; K],
    // Lane-batched parsimony (implied anomaly count) scratch.
    pars_slices: Vec<SlabSliceScratch<K>>,
    actuator_statistic: [f64; K],
    counts: [usize; K],
    /// Each lane's first failure in the last `run`.
    failure: [Option<LaneFailure>; K],
}

impl<const K: usize> NuiseSlabWorkspace<K> {
    /// Scratch for running `mode` against `system` under
    /// `linearization` across K lanes, on constants of its own.
    #[cfg(test)]
    pub(crate) fn new(
        system: &RobotSystem,
        mode: &Mode,
        linearization: &Linearization,
    ) -> Result<Self> {
        ModeKernel::new(system, mode, linearization).map(|kernel| kernel.workspace())
    }

    fn with_layout(layout: Arc<ModeLayout>, frozen: Option<FrozenModel>) -> Self {
        let (n, q_dim, m2_dim, m1_dim) = (layout.n, layout.q_dim, layout.m2_dim, layout.m1_dim);
        let projection = ProjectedSlabWorkspace::new(layout.spectrum_floor);
        let pars_slices = layout
            .test_slices
            .iter()
            .map(|s| SlabSliceScratch {
                stat: NormalizedStatistic::new(s.len),
                offset: s.offset,
                statistic: [0.0; K],
            })
            .collect();
        NuiseSlabWorkspace {
            layout,
            frozen,
            p_prev: MatrixSlab::zeros(n, n),
            z2: VectorSlab::zeros(m2_dim),
            z1: VectorSlab::zeros(m1_dim),
            h2: VectorSlab::zeros(m2_dim),
            h1: VectorSlab::zeros(m1_dim),
            tmp_n: VectorSlab::zeros(n),
            x_pred: VectorSlab::zeros(n),
            a_mat: MatrixSlab::zeros(n, n),
            g_mat: MatrixSlab::zeros(n, q_dim),
            c2: MatrixSlab::zeros(m2_dim, n),
            c1: MatrixSlab::zeros(m1_dim, n),
            p_tilde_pred: MatrixSlab::zeros(n, n),
            j_proj: MatrixSlab::zeros(n, n),
            a_bar: MatrixSlab::zeros(n, n),
            q_bar: MatrixSlab::zeros(n, n),
            tmp_nn_a: MatrixSlab::zeros(n, n),
            tmp_nn_b: MatrixSlab::zeros(n, n),
            r2_star_p_nu: MatrixSlab::zeros(m2_dim, m2_dim),
            r2_star_inv_p_nu_pinv: MatrixSlab::zeros(m2_dim, m2_dim),
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
            tmp_nm2: MatrixSlab::zeros(n, m2_dim),
            sc_m2_n: MatrixSlab::zeros(m2_dim, n),
            sc_n_m1: MatrixSlab::zeros(n, m1_dim),
            lu_m2: LuSlabWorkspace::new(m2_dim),
            lu_q: LuSlabWorkspace::new(q_dim),
            projection,
            eval_x: Vector::zeros(n),
            eval_nn: Matrix::zeros(n, n),
            eval_nq: Matrix::zeros(n, q_dim),
            eval_c2: Matrix::zeros(m2_dim, n),
            eval_h2: Vector::zeros(m2_dim),
            eval_p_nu: Matrix::zeros(m2_dim, m2_dim),
            eval_nu: Vector::zeros(m2_dim),
            eval_c1: Matrix::zeros(m1_dim, n),
            eval_h1: Vector::zeros(m1_dim),
            out_state_estimate: VectorSlab::zeros(n),
            out_state_covariance: MatrixSlab::zeros(n, n),
            out_actuator_anomaly: VectorSlab::zeros(q_dim),
            out_sensor_anomaly: VectorSlab::zeros(m1_dim),
            out_sensor_covariance: MatrixSlab::zeros(m1_dim, m1_dim),
            out_innovation: VectorSlab::zeros(m2_dim),
            likelihood: [0.0; K],
            consistency: [0.0; K],
            pars_slices,
            actuator_statistic: [0.0; K],
            counts: [0; K],
            failure: [const { None }; K],
        }
    }

    /// The parsimony χ² critical values: the actuator check's, and one
    /// per testing slice.
    #[cfg(test)]
    pub(crate) fn parsimony_thresholds(&self) -> (f64, &[f64]) {
        (
            self.layout.actuator_threshold,
            &self.layout.testing_thresholds,
        )
    }

    /// A zeroed [`NuiseOutput`] sized for this workspace's mode.
    #[cfg(test)]
    pub(crate) fn new_output(&self) -> NuiseOutput {
        self.layout.new_output()
    }

    /// Evaluates `h₂` at `eval_x` into lane `lane` of `h2`.
    fn load_reference_measurement(&mut self, lane: usize, system: &RobotSystem) {
        match &mut self.frozen {
            None => {
                system.measure_subset_into(&self.layout.ref_slices, &self.eval_x, &mut self.eval_h2)
            }
            Some(frozen) => frozen.measure_into(false, &self.eval_x, &mut self.eval_h2),
        }
        self.h2.load_lane(lane, &self.eval_h2);
    }

    /// Loads one robot's inputs into lane `lane`: validates and gathers
    /// the readings, evaluates the per-robot model quantities of NUISE
    /// step 1 (`A`, `G`, `x̄`, `C₂`, `h₂(x̄)` — pure functions, evaluated
    /// exactly as `nuise_step` evaluates them) and stores the previous
    /// covariance.
    ///
    /// # Errors
    ///
    /// [`crate::CoreError::BadReadings`] exactly when `nuise_step`
    /// would reject the command or readings; the lane must then be
    /// excluded from [`run`](NuiseSlabWorkspace::run).
    pub(crate) fn load_lane(
        &mut self,
        lane: usize,
        system: &RobotSystem,
        x_prev: &Vector,
        p_prev: &Matrix,
        u_prev: &Vector,
        readings: &[Vector],
    ) -> Result<()> {
        validate_readings(system, u_prev, readings)?;
        for slice in &self.layout.ref_slices {
            let src = readings[slice.sensor].as_slice();
            for (c, &v) in src.iter().enumerate() {
                self.z2.at_mut(slice.offset + c)[lane] = v;
            }
        }
        for slice in &self.layout.test_slices {
            let src = readings[slice.sensor].as_slice();
            for (c, &v) in src.iter().enumerate() {
                self.z1.at_mut(slice.offset + c)[lane] = v;
            }
        }
        self.p_prev.load_lane(lane, p_prev);
        match &mut self.frozen {
            None => {
                let dynamics = system.dynamics();
                dynamics.state_jacobian_into(x_prev, u_prev, &mut self.eval_nn);
                self.a_mat.load_lane(lane, &self.eval_nn);
                dynamics.input_jacobian_into(x_prev, u_prev, &mut self.eval_nq);
                self.g_mat.load_lane(lane, &self.eval_nq);
                dynamics.step_into(x_prev, u_prev, &mut self.eval_x);
                system.jacobian_subset_into(
                    &self.layout.ref_slices,
                    &self.eval_x,
                    &mut self.eval_c2,
                );
                self.c2.load_lane(lane, &self.eval_c2);
            }
            Some(frozen) => {
                self.a_mat.load_lane(lane, &frozen.a0);
                self.g_mat.load_lane(lane, &frozen.g0);
                frozen.step_into(x_prev, u_prev, &mut self.eval_x);
                self.c2.load_lane(lane, &frozen.c2_0);
            }
        }
        self.x_pred.load_lane(lane, &self.eval_x);
        self.load_reference_measurement(lane, system);
        Ok(())
    }

    /// Runs Algorithm 2 plus the engine's implied-anomaly count for
    /// every lane marked in `active`, lane-batched. Returns per-lane
    /// success flags (a subset of `active`): a cleared flag means
    /// `nuise_step` returns an error for that robot (singular gain,
    /// failed pseudo-inverse, χ² failure, non-finite update) —
    /// [`lane_error`](Self::lane_error) names it, and the lane holds
    /// garbage.
    pub(crate) fn run(
        &mut self,
        system: &RobotSystem,
        compensate: bool,
        active: &[bool; K],
    ) -> [bool; K] {
        let mut ok = *active;
        let mut failure = [const { None }; K];
        let q = system.process_noise();

        // --- Step 1: actuator anomaly estimation (Alg. 2 lines 2–6).
        // Jacobians, x̄, C₂ and h₂(x̄) were loaded per lane.
        // P̃ = (A·P·Aᵀ + Q).symmetrized()
        self.p_prev
            .mul_transpose_into(&self.a_mat, &mut self.tmp_nn_a);
        self.a_mat.mul_into(&self.tmp_nn_a, &mut self.p_tilde_pred);
        self.p_tilde_pred.add_assign_broadcast(q);
        self.p_tilde_pred
            .symmetrize_in_place()
            .expect("square by construction");

        // R*₂ = (C₂·P̃·C₂ᵀ + R₂).symmetrized(), then its inverse.
        self.c2
            .congruence_into(
                &self.p_tilde_pred,
                &mut self.tmp_nm2,
                &mut self.r2_star_p_nu,
            )
            .expect("shapes fixed at construction");
        self.r2_star_p_nu.add_assign_broadcast(&self.layout.r2);
        self.r2_star_p_nu
            .symmetrize_in_place()
            .expect("square by construction");
        self.lu_m2.factorize(&self.r2_star_p_nu);
        for l in 0..K {
            if self.lu_m2.singular()[l] {
                fail(&mut ok, &mut failure, l, LaneFailure::SingularInnovation);
            }
        }
        self.lu_m2.inverse_into(&mut self.r2_star_inv_p_nu_pinv);

        // M₂ = (Fᵀ·R*⁻¹·F)⁻¹·Fᵀ·R*⁻¹ with F = C₂·G.
        self.c2.mul_into(&self.g_mat, &mut self.f_mat);
        self.f_mat.transpose_into(&mut self.f_mat_t);
        self.r2_star_inv_p_nu_pinv
            .mul_into(&self.f_mat, &mut self.tmp_m2q);
        self.f_mat_t.mul_into(&self.tmp_m2q, &mut self.normal);
        self.normal
            .symmetrize_in_place()
            .expect("square by construction");
        self.lu_q.factorize(&self.normal);
        for l in 0..K {
            if self.lu_q.singular()[l] {
                fail(&mut ok, &mut failure, l, LaneFailure::RankDeficient);
            }
        }
        self.lu_q.inverse_into(&mut self.normal_inv);
        self.f_mat_t
            .mul_into(&self.r2_star_inv_p_nu_pinv, &mut self.tmp_qm2);
        self.normal_inv.mul_into(&self.tmp_qm2, &mut self.m2_gain);

        // ν̃ = wrap(z₂ − h(ref, x̄)), d̂ᵃ = M₂·ν̃, Pᵃ = (Fᵀ·R*⁻¹·F)⁻¹
        // (already in `normal_inv`).
        self.out_innovation.copy_from(&self.z2);
        self.out_innovation -= &self.h2;
        for &i in &self.layout.angular2 {
            let g = self.out_innovation.at_mut(i);
            for v in g.iter_mut() {
                *v = wrap_angle(*v);
            }
        }
        self.m2_gain
            .mul_vec_into(&self.out_innovation, &mut self.out_actuator_anomaly);

        // --- Step 2: compensated state prediction (lines 7–10). ---
        // The first-order-equivalent compensation of `nuise_step` (see
        // the implementation note there).
        if compensate {
            self.g_mat
                .mul_vec_into(&self.out_actuator_anomaly, &mut self.tmp_n);
            self.x_pred += &self.tmp_n;
            self.g_mat.mul_into(&self.m2_gain, &mut self.gm2);
            // J = I − G·M₂·C₂
            self.gm2.mul_into(&self.c2, &mut self.tmp_nn_a);
            self.j_proj.set_identity();
            self.j_proj -= &self.tmp_nn_a;
            self.j_proj.mul_into(&self.a_mat, &mut self.a_bar);
            // Q̄ = (J·Q·Jᵀ + G·M₂·R₂·M₂ᵀ·Gᵀ).symmetrized()
            self.j_proj
                .congruence_broadcast_into(q, &mut self.tmp_nn_a, &mut self.q_bar)
                .expect("shapes fixed at construction");
            self.gm2
                .congruence_broadcast_into(&self.layout.r2, &mut self.sc_m2_n, &mut self.tmp_nn_b)
                .expect("shapes fixed at construction");
            self.q_bar += &self.tmp_nn_b;
            self.q_bar
                .symmetrize_in_place()
                .expect("square by construction");
            // S = −G·M₂·R₂ (sign-corrected, see `nuise.rs`).
            self.gm2
                .mul_broadcast_into(&self.layout.r2, &mut self.s_mat);
            self.s_mat.negate();
        } else {
            self.a_bar.copy_from(&self.a_mat);
            // `nuise_step` copies Q; `broadcast_from` (not fill+add,
            // which would turn −0.0 entries into +0.0).
            self.q_bar.broadcast_from(q);
            self.s_mat.fill(0.0);
        }
        self.a_bar
            .congruence_into(&self.p_prev, &mut self.tmp_nn_a, &mut self.p_tilde_pred)
            .expect("shapes fixed at construction");
        self.p_tilde_pred += &self.q_bar;
        self.p_tilde_pred
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
            self.load_reference_measurement(l, system);
        }
        self.out_innovation.copy_from(&self.z2);
        self.out_innovation -= &self.h2;
        for &i in &self.layout.angular2 {
            let g = self.out_innovation.at_mut(i);
            for v in g.iter_mut() {
                *v = wrap_angle(*v);
            }
        }
        // Pν = ((C₂·P·C₂ᵀ + R₂) + (C₂S + (C₂S)ᵀ)).symmetrized()
        self.c2.mul_into(&self.s_mat, &mut self.tmp_m2m2_a);
        self.c2
            .congruence_into(
                &self.p_tilde_pred,
                &mut self.tmp_nm2,
                &mut self.r2_star_p_nu,
            )
            .expect("shapes fixed at construction");
        self.r2_star_p_nu.add_assign_broadcast(&self.layout.r2);
        self.tmp_m2m2_a.transpose_into(&mut self.tmp_m2m2_b);
        self.tmp_m2m2_a += &self.tmp_m2m2_b;
        self.r2_star_p_nu += &self.tmp_m2m2_a;
        self.r2_star_p_nu
            .symmetrize_in_place()
            .expect("square by construction");
        // Pν's pseudo-inverse, rank and pseudo-determinant (see
        // `nuise_step`): the projected Cholesky on null(M₂) (the identity
        // basis without compensation), and, on each lane it rejects, the
        // allocating floored pseudo-inverse `nuise_step` takes there.
        // Failed lanes are inactive. The basis, the products and `L⁻¹Uᵀν`
        // reuse scratch that is free here: the two m₂ × m₂ temporaries
        // and `h2`, read for the last time by the innovation above.
        let projected = self.projection.factorize(
            &self.r2_star_p_nu,
            compensate.then_some(&self.m2_gain),
            &self.out_innovation,
            ProjectionScratch {
                basis: &mut self.tmp_m2m2_a,
                product: &mut self.tmp_m2m2_b,
                whitened: &mut self.h2,
            },
            &mut self.r2_star_inv_p_nu_pinv,
            &ok,
        );
        let mut nu_rank = [0usize; K];
        let mut nu_sqrt_pdet = [0.0f64; K];
        let mut fallback_stat = [0.0f64; K];
        for l in 0..K {
            if !ok[l] || projected[l] {
                continue;
            }
            self.r2_star_p_nu.store_lane(l, &mut self.eval_p_nu);
            self.out_innovation.store_lane(l, &mut self.eval_nu);
            match self
                .eval_p_nu
                .floored_pseudo_inverse(&self.eval_nu, self.layout.spectrum_floor)
            {
                Ok(pinv) => {
                    self.r2_star_inv_p_nu_pinv.load_lane(l, &pinv.matrix);
                    nu_rank[l] = pinv.rank;
                    nu_sqrt_pdet[l] = pinv.sqrt_pseudo_determinant;
                    fallback_stat[l] = pinv.statistic;
                }
                Err(e) => fail(&mut ok, &mut failure, l, LaneFailure::Linalg(e)),
            }
        }
        let (projected_rank, normalizer) = if compensate {
            (
                self.layout.m2_dim - self.layout.q_dim,
                self.layout.normalizer_compensated,
            )
        } else {
            (self.layout.m2_dim, self.layout.normalizer_uncompensated)
        };
        // L = (P·C₂ᵀ + S)·Pν†
        self.p_tilde_pred
            .mul_transpose_into(&self.c2, &mut self.tmp_nm2);
        self.tmp_nm2 += &self.s_mat;
        self.tmp_nm2
            .mul_into(&self.r2_star_inv_p_nu_pinv, &mut self.l_gain);
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
        self.j_proj.set_identity();
        self.j_proj -= &self.tmp_nn_a;
        // The cross term J·S·Lᵀ lives in `tmp_nn_b`.
        self.j_proj.mul_into(&self.s_mat, &mut self.tmp_nm2);
        self.tmp_nm2
            .mul_transpose_into(&self.l_gain, &mut self.tmp_nn_b);
        self.j_proj
            .congruence_into(
                &self.p_tilde_pred,
                &mut self.tmp_nn_a,
                &mut self.out_state_covariance,
            )
            .expect("shapes fixed at construction");
        self.l_gain
            .congruence_broadcast_into(&self.layout.r2, &mut self.sc_m2_n, &mut self.tmp_nn_a)
            .expect("shapes fixed at construction");
        self.out_state_covariance += &self.tmp_nn_a;
        self.tmp_nn_b.transpose_into(&mut self.tmp_nn_a);
        self.tmp_nn_b += &self.tmp_nn_a;
        self.out_state_covariance -= &self.tmp_nn_b;
        self.out_state_covariance
            .symmetrize_in_place()
            .expect("square by construction");

        // --- Step 4: testing-sensor anomaly estimation (lines 15–16).
        if !self.layout.test_slices.is_empty() {
            // z₁ was gathered at load time; C₁/h₁ at the fresh state
            // estimate are per-robot model evaluations.
            for l in 0..K {
                if !ok[l] {
                    continue;
                }
                self.out_state_estimate.store_lane(l, &mut self.eval_x);
                match &mut self.frozen {
                    None => {
                        system.jacobian_subset_into(
                            &self.layout.test_slices,
                            &self.eval_x,
                            &mut self.eval_c1,
                        );
                        self.c1.load_lane(l, &self.eval_c1);
                        system.measure_subset_into(
                            &self.layout.test_slices,
                            &self.eval_x,
                            &mut self.eval_h1,
                        );
                    }
                    Some(frozen) => {
                        self.c1.load_lane(l, &frozen.c1_0);
                        frozen.measure_into(true, &self.eval_x, &mut self.eval_h1);
                    }
                }
                self.h1.load_lane(l, &self.eval_h1);
            }
            self.out_sensor_anomaly.copy_from(&self.z1);
            self.out_sensor_anomaly -= &self.h1;
            for &i in &self.layout.angular1 {
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
            self.out_sensor_covariance
                .add_assign_broadcast(&self.layout.r1);
            self.out_sensor_covariance
                .symmetrize_in_place()
                .expect("square by construction");
        }

        // --- Step 5: mode likelihood (lines 17–20). ---
        for l in 0..K {
            if !ok[l] {
                continue;
            }
            let (rank, stat, norm) = if projected[l] {
                (
                    projected_rank,
                    self.projection.statistic()[l],
                    normalizer * self.projection.sqrt_pseudo_determinant()[l],
                )
            } else {
                (
                    nu_rank[l],
                    fallback_stat[l],
                    likelihood_normalizer(nu_rank[l]) * nu_sqrt_pdet[l],
                )
            };
            if rank == 0 {
                self.likelihood[l] = 1.0;
                self.consistency[l] = 1.0;
                continue;
            }
            let stat = stat.max(0.0);
            self.likelihood[l] = (-0.5 * stat).exp() / norm.max(f64::MIN_POSITIVE);
            match chi2_consistency(rank, stat) {
                Ok(c) => self.consistency[l] = c,
                Err(_) => fail(
                    &mut ok,
                    &mut failure,
                    l,
                    LaneFailure::ChiSquared { rank, stat },
                ),
            }
        }
        // Finite results only, checked where `nuise_step` checks them (see
        // there for how a finite reading can overflow the update).
        let mut finite = [true; K];
        for i in 0..self.layout.n {
            let x = self.out_state_estimate.at(i);
            for l in 0..K {
                finite[l] &= x[l].is_finite();
            }
            for j in 0..self.layout.n {
                let p = self.out_state_covariance.at(i, j);
                for l in 0..K {
                    finite[l] &= p[l].is_finite();
                }
            }
        }
        for l in 0..K {
            if !finite[l] {
                fail(&mut ok, &mut failure, l, LaneFailure::NonFinite);
            }
        }

        // --- Implied anomaly count (the engine's parsimony prior): the
        // number of active misbehaviors this mode's explanation implies —
        // one per testing sensor whose anomaly estimate is significant at
        // the `PARSIMONY_ALPHA` level, plus one when the mode's own
        // actuator anomaly estimate is: a hypothesis that needs a phantom
        // input to absorb a sensor corruption must pay for it. (The
        // visibility of a real actuator attack varies with reference
        // quality, which would bias this weight toward blind modes; the
        // decision maker compensates by sourcing the actuator test from
        // the most precise innovation-consistent mode.) The tested
        // statistics travel with the output, so the decision maker does
        // not recompute them.
        //
        // The actuator statistic d̂ᵃᵀ·(Pᵃ)⁻¹·d̂ᵃ needs no factorization:
        // Pᵃ is the LU inverse of the normal matrix Fᵀ·R*⁻¹·F, still in
        // `normal`, and a lane whose LU failed has already failed.
        self.actuator_statistic = self.out_actuator_anomaly.quadratic_form(&self.normal);
        let layout = &*self.layout;
        for l in 0..K {
            self.counts[l] =
                usize::from(ok[l] && self.actuator_statistic[l] > layout.actuator_threshold);
        }
        // Each testing slice's statistic is whitened (its covariance
        // block is full rank by construction, C₁·P·C₁ᵀ + R₁ with
        // R₁ ≻ 0), with the pseudo-inverse fallback on the lanes the
        // whitening rejects, so a non-finite lane still fails with the
        // pseudo-inverse's error.
        let pars_slices = &mut self.pars_slices;
        let counts = &mut self.counts;
        for (s, &threshold) in pars_slices.iter_mut().zip(&layout.testing_thresholds) {
            s.stat.load_block(
                &self.out_sensor_anomaly,
                &self.out_sensor_covariance,
                s.offset,
            );
            s.stat.run(&ok);
            for l in 0..K {
                if !ok[l] {
                    continue;
                }
                match s.stat.value(l) {
                    Ok(statistic) => {
                        s.statistic[l] = statistic;
                        counts[l] += usize::from(statistic > threshold);
                    }
                    Err(e) => fail(&mut ok, &mut failure, l, LaneFailure::Linalg(e)),
                }
            }
        }
        self.failure = failure;
        ok
    }

    /// The error `nuise_step` returns for lane `lane`'s robot, if the
    /// lane failed in the last [`run`](Self::run); `None` for a lane that
    /// completed or was inactive.
    pub(crate) fn lane_error(&self, lane: usize) -> Option<CoreError> {
        self.failure[lane].clone().map(LaneFailure::into_error)
    }

    /// Copies lane `lane`'s results into `out` (which must be sized for
    /// this workspace's mode, e.g. by [`ModeKernel::new_output`]),
    /// including the parsimony statistics. Only meaningful for lanes
    /// whose [`run`](NuiseSlabWorkspace::run) flag was set.
    pub(crate) fn scatter_lane(&self, lane: usize, out: &mut NuiseOutput) {
        self.out_state_estimate
            .store_lane(lane, &mut out.state_estimate);
        self.out_state_covariance
            .store_lane(lane, &mut out.state_covariance);
        self.out_actuator_anomaly
            .store_lane(lane, &mut out.actuator_anomaly);
        self.normal_inv
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
impl NuiseSlabWorkspace<1> {
    /// One robot's NUISE step plus its implied-anomaly count through
    /// lane 0 — the load → run → scatter sequence the engine's one-lane
    /// tiles run per mode. Writes `out` and returns the count; on error
    /// `out` is untouched.
    ///
    /// `input.mode` and `input.linearization` must be the ones the
    /// workspace was built for.
    ///
    /// # Errors
    ///
    /// Exactly the error [`crate::nuise::nuise_step`] returns for
    /// `input`.
    pub(crate) fn step(
        &mut self,
        input: crate::nuise::NuiseInput<'_>,
        out: &mut NuiseOutput,
    ) -> Result<usize> {
        self.load_lane(
            0,
            input.system,
            input.x_prev,
            input.p_prev,
            input.u_prev,
            input.readings,
        )?;
        self.run(input.system, input.compensate, &[true]);
        if let Some(e) = self.lane_error(0) {
            return Err(e);
        }
        self.scatter_lane(0, out);
        Ok(self.count(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nuise::{oracle_step, NuiseInput};
    use roboads_models::presets;

    fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
        (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(x))
            .collect()
    }

    fn modes() -> [Mode; 4] {
        [
            Mode::new(vec![0], vec![1, 2]),
            Mode::new(vec![1], vec![0, 2]),
            Mode::new(vec![2], vec![0, 1]),
            Mode::new(vec![0, 1, 2], vec![]),
        ]
    }

    /// The K-lane pipeline reproduces the allocating oracle (NUISE
    /// output, parsimony statistics and implied-anomaly count) bit for
    /// bit, per lane, over warm multi-step trajectories with distinct
    /// per-lane states, for every reference/testing partition shape,
    /// both compensation settings and both linearizations.
    fn slab_run_matches_oracle<const K: usize>() {
        let system = presets::khepera_system();
        let frozen = Linearization::FrozenAt {
            state: Vector::from_slice(&[0.45, 0.5, 0.05]),
            input: Vector::from_slice(&[0.1, 0.1]),
        };
        for linearization in [Linearization::PerIteration, frozen] {
            for mode in &modes() {
                for compensate in [true, false] {
                    let mut slab =
                        NuiseSlabWorkspace::<K>::new(&system, mode, &linearization).unwrap();
                    let (act, testing) = slab.parsimony_thresholds();
                    let testing = testing.to_vec();
                    let mut scattered = slab.new_output();
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
                        let ok = slab.run(&system, compensate, &[true; K]);
                        assert_eq!(ok, [true; K], "mode {mode:?} step {k}");
                        for l in 0..K {
                            let input = NuiseInput {
                                system: &system,
                                mode,
                                x_prev: &x_est[l],
                                p_prev: &p[l],
                                u_prev: &u[l],
                                readings: &all_readings[l],
                                linearization: &linearization,
                                compensate,
                            };
                            let (reference, expected_count) =
                                oracle_step(input, act, &testing).unwrap();
                            slab.scatter_lane(l, &mut scattered);
                            assert_eq!(
                                scattered, reference,
                                "{linearization:?} mode {mode:?} lane {l} diverged at step {k}"
                            );
                            assert_eq!(slab.count(l), expected_count, "mode {mode:?} lane {l}");
                            x_est[l] = reference.state_estimate;
                            p[l] = reference.state_covariance;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn slab_run_is_bitwise_identical_to_the_oracle_at_one_lane() {
        slab_run_matches_oracle::<1>();
    }

    #[test]
    fn slab_run_is_bitwise_identical_to_the_oracle_at_eight_lanes() {
        slab_run_matches_oracle::<8>();
    }

    /// A partially-active tile (the fleet's remainder tail) must leave
    /// inactive lanes out while the active lanes stay bitwise-pinned.
    fn masked_lanes_do_not_perturb_active_lanes<const K: usize>() {
        let system = presets::khepera_system();
        let mode = Mode::new(vec![0], vec![1, 2]);
        let linearization = Linearization::PerIteration;
        let mut slab = NuiseSlabWorkspace::<K>::new(&system, &mode, &linearization).unwrap();
        let (act, testing) = slab.parsimony_thresholds();
        let testing = testing.to_vec();
        let mut scattered = slab.new_output();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.3]);
        let p0 = Matrix::identity(3) * 1e-4;
        let u = Vector::from_slice(&[0.06, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        let readings = clean_readings(&system, &x1);
        let mut active = [false; K];
        for l in 0..K.div_ceil(2) {
            slab.load_lane(l, &system, &x0, &p0, &u, &readings).unwrap();
            active[l] = true;
        }
        let ok = slab.run(&system, true, &active);
        assert_eq!(ok, active);
        let (reference, _) = oracle_step(
            NuiseInput {
                system: &system,
                mode: &mode,
                x_prev: &x0,
                p_prev: &p0,
                u_prev: &u,
                readings: &readings,
                linearization: &linearization,
                compensate: true,
            },
            act,
            &testing,
        )
        .unwrap();
        for l in 0..K {
            assert!(slab.lane_error(l).is_none(), "lane {l}");
            if active[l] {
                slab.scatter_lane(l, &mut scattered);
                assert_eq!(scattered, reference, "lane {l}");
            }
        }
    }

    #[test]
    fn masked_lanes_do_not_perturb_active_lanes_at_one_and_eight_lanes() {
        masked_lanes_do_not_perturb_active_lanes::<1>();
        masked_lanes_do_not_perturb_active_lanes::<8>();
    }

    /// Bad readings and bad commands are rejected at load time with the
    /// oracle's error.
    fn load_lane_rejects_bad_inputs<const K: usize>() {
        let system = presets::khepera_system();
        let mode = Mode::new(vec![0], vec![1, 2]);
        let mut slab =
            NuiseSlabWorkspace::<K>::new(&system, &mode, &Linearization::PerIteration).unwrap();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.3]);
        let p0 = Matrix::identity(3) * 1e-4;
        let u = Vector::from_slice(&[0.06, 0.05]);
        let readings = clean_readings(&system, &x0);
        let mut nan_reading = readings.clone();
        nan_reading[0][0] = f64::NAN;
        let lane = K - 1;
        for (u, readings) in [
            (u.clone(), nan_reading),
            (Vector::from_slice(&[0.06]), readings.clone()),
            (Vector::from_slice(&[0.06, f64::INFINITY]), readings),
        ] {
            let err = slab
                .load_lane(lane, &system, &x0, &p0, &u, &readings)
                .unwrap_err();
            assert!(matches!(err, CoreError::BadReadings { .. }), "{err}");
        }
    }

    #[test]
    fn load_lane_rejects_bad_inputs_at_one_and_eight_lanes() {
        load_lane_rejects_bad_inputs::<1>();
        load_lane_rejects_bad_inputs::<8>();
    }

    /// A finite reading large enough to overflow the update fails its
    /// lane inside `run` with the oracle's error, while the other lanes
    /// stay bitwise-pinned.
    fn overflowing_reading_fails_its_lane_like_the_oracle<const K: usize>() {
        let system = presets::khepera_system();
        let mode = Mode::new(vec![0], vec![1, 2]);
        let linearization = Linearization::PerIteration;
        let mut slab = NuiseSlabWorkspace::<K>::new(&system, &mode, &linearization).unwrap();
        let (act, testing) = slab.parsimony_thresholds();
        let testing = testing.to_vec();
        let mut scattered = slab.new_output();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.3]);
        let p0 = Matrix::identity(3) * 1e-4;
        let u = Vector::from_slice(&[0.06, 0.05]);
        let readings = clean_readings(&system, &system.dynamics().step(&x0, &u));
        let mut hostile = readings.clone();
        hostile[0][0] = 1e308;
        let poisoned = K - 1;
        for l in 0..K {
            let z = if l == poisoned { &hostile } else { &readings };
            slab.load_lane(l, &system, &x0, &p0, &u, z).unwrap();
        }
        let ok = slab.run(&system, true, &[true; K]);
        for l in 0..K {
            let input = NuiseInput {
                system: &system,
                mode: &mode,
                x_prev: &x0,
                p_prev: &p0,
                u_prev: &u,
                readings: if l == poisoned { &hostile } else { &readings },
                linearization: &linearization,
                compensate: true,
            };
            let oracle = oracle_step(input, act, &testing);
            if l == poisoned {
                assert!(!ok[l]);
                let expected = CoreError::Numeric(NON_FINITE_ESTIMATE.into());
                assert_eq!(oracle.unwrap_err(), expected);
                assert_eq!(slab.lane_error(l), Some(expected));
            } else {
                assert!(ok[l], "lane {l}");
                slab.scatter_lane(l, &mut scattered);
                assert_eq!(scattered, oracle.unwrap().0, "lane {l}");
            }
        }
    }

    #[test]
    fn overflowing_reading_fails_its_lane_like_the_oracle_at_one_and_eight_lanes() {
        overflowing_reading_fails_its_lane_like_the_oracle::<1>();
        overflowing_reading_fails_its_lane_like_the_oracle::<8>();
    }

    /// A tile mixing the three ways through Pν's pseudo-inverse: lanes
    /// the projected Cholesky accepts, a lane it rejects whose Jacobi
    /// fallback converges (a prior so loose that Pν's rounding along the
    /// discarded directions exceeds the cutoff), and a NaN lane whose
    /// fallback fails. Each lane matches the oracle bit for bit or with
    /// its error, and the fallback is tallied once per rejected lane.
    fn projection_fallback_lanes_match_the_oracle<const K: usize>() {
        let system = presets::khepera_system();
        let mode = Mode::new(vec![0, 1, 2], vec![]);
        let linearization = Linearization::PerIteration;
        let mut slab = NuiseSlabWorkspace::<K>::new(&system, &mode, &linearization).unwrap();
        let (act, testing) = slab.parsimony_thresholds();
        let testing = testing.to_vec();
        let mut scattered = slab.new_output();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.3]);
        let u = Vector::from_slice(&[0.06, 0.05]);
        let readings = clean_readings(&system, &system.dynamics().step(&x0, &u));
        let loose = K / 2;
        let poisoned = K - 1;
        let prior = |l: usize| {
            if l == poisoned && K > 1 {
                Matrix::identity(3) * f64::NAN
            } else if l == loose {
                Matrix::identity(3) * 1e7
            } else {
                Matrix::identity(3) * (1e-4 * (l + 1) as f64)
            }
        };
        let before = roboads_linalg::health::snapshot();
        for l in 0..K {
            slab.load_lane(l, &system, &x0, &prior(l), &u, &readings)
                .unwrap();
        }
        let ok = slab.run(&system, true, &[true; K]);
        let fallbacks = roboads_linalg::health::snapshot()
            .since(&before)
            .projection_fallbacks;
        // Other tests may project concurrently, so a lower bound only.
        assert!(fallbacks >= if K > 1 { 2 } else { 1 }, "{fallbacks}");
        for l in 0..K {
            let p = prior(l);
            let input = NuiseInput {
                system: &system,
                mode: &mode,
                x_prev: &x0,
                p_prev: &p,
                u_prev: &u,
                readings: &readings,
                linearization: &linearization,
                compensate: true,
            };
            match oracle_step(input, act, &testing) {
                Ok((reference, count)) => {
                    assert!(ok[l], "lane {l}");
                    slab.scatter_lane(l, &mut scattered);
                    assert_eq!(scattered, reference, "lane {l}");
                    assert_eq!(slab.count(l), count, "lane {l}");
                }
                Err(e) => {
                    assert!(!ok[l], "lane {l}");
                    assert_eq!(l, poisoned, "only the NaN lane fails");
                    assert_eq!(slab.lane_error(l), Some(e), "lane {l}");
                }
            }
        }
    }

    #[test]
    fn projection_fallback_lanes_match_the_oracle_at_one_and_eight_lanes() {
        projection_fallback_lanes_match_the_oracle::<1>();
        projection_fallback_lanes_match_the_oracle::<8>();
    }

    #[test]
    fn lane_failures_convert_to_the_oracle_errors() {
        let no_convergence = LinalgError::NoConvergence {
            sweeps: roboads_linalg::JACOBI_MAX_SWEEPS,
        };
        let cases = [
            (
                LaneFailure::SingularInnovation,
                SINGULAR_INNOVATION.to_string(),
            ),
            (LaneFailure::RankDeficient, RANK_DEFICIENT.to_string()),
            (LaneFailure::NonFinite, NON_FINITE_ESTIMATE.to_string()),
            (
                LaneFailure::Linalg(no_convergence.clone()),
                no_convergence.to_string(),
            ),
        ];
        for (failure, message) in cases {
            assert_eq!(failure.into_error(), CoreError::Numeric(message));
        }
        let chi = LaneFailure::ChiSquared {
            rank: 2,
            stat: f64::INFINITY,
        };
        assert_eq!(
            chi.into_error(),
            chi2_consistency(2, f64::INFINITY).unwrap_err()
        );
    }
}
