//! NUISE — the Nonlinear Unknown Input and State Estimation algorithm
//! (paper Algorithm 2, Figure 4).
//!
//! One NUISE step runs under a single mode hypothesis and produces, from
//! the shared previous estimate and the fresh readings:
//!
//! 1. **Actuator anomaly estimation** — weighted-least-squares estimate
//!    of `d^a_{k−1}` from the reference-sensor innovation of the
//!    uncompensated prediction,
//! 2. **Compensated state prediction** — `x̂_{k|k−1} = f(x̂, u + d̂^a)`
//!    with the exact covariance of the compensated error (which is
//!    *correlated* with the measurement noise through `d̂^a`),
//! 3. **State estimation** — a correlated-noise Kalman update against
//!    the reference sensors,
//! 4. **Sensor anomaly estimation** — residual of the testing sensors
//!    against the updated state,
//! 5. **Mode likelihood** — degenerate-Gaussian density of the
//!    innovation (pseudo-inverse / pseudo-determinant / rank).
//!
//! ## Sign correction
//!
//! The conference text prints the cross-covariance
//! `S = E[x̃_{k|k−1}·ξ₂ᵀ]` with inconsistent signs between lines 11–14
//! and line 18. Deriving the filter (see `DESIGN.md` §2):
//! `d̂^a = M₂(C₂(A e + ζ) + ξ₂) + d^a`, so the compensated prediction
//! error is `x̃ = (I − G M₂ C₂)(A e + ζ) − G M₂ ξ₂` and
//! `S = −G·M₂·R₂`. This module implements all four lines consistently
//! with that `S`; the crate's tests verify unbiasedness, covariance
//! consistency and PSD-ness over long runs.

use roboads_linalg::{Matrix, PseudoInverse, Vector};
use roboads_models::{wrap_angle, RobotSystem};

use crate::config::Linearization;
use crate::mode::Mode;
use crate::{CoreError, Result};

/// Inputs of one NUISE step (Algorithm 2 signature:
/// `(u_{k−1}, x̂_{k−1|k−1}, z_{1,k}, z_{2,k})` plus the shared state
/// covariance and the system description).
#[derive(Debug, Clone, Copy)]
pub struct NuiseInput<'a> {
    /// The robot's `f`/`h`/`Q`/`R` bundle.
    pub system: &'a RobotSystem,
    /// The mode hypothesis (reference / testing partition).
    pub mode: &'a Mode,
    /// Previous state estimate `x̂_{k−1|k−1}` (shared across modes).
    pub x_prev: &'a Vector,
    /// Previous state covariance `P^x_{k−1}` (shared across modes).
    pub p_prev: &'a Matrix,
    /// Planned control commands `u_{k−1}`.
    pub u_prev: &'a Vector,
    /// Fresh readings, one vector per sensor in suite order.
    pub readings: &'a [Vector],
    /// Linearization strategy (per-iteration for RoboADS proper).
    pub linearization: &'a Linearization,
    /// Whether step 2 compensates the prediction with `G·d̂ᵃ` (always
    /// true in RoboADS proper; `false` is the challenge-2 ablation).
    pub compensate: bool,
}

/// Outputs of one NUISE step.
#[derive(Debug, Clone, PartialEq)]
pub struct NuiseOutput {
    /// Updated state estimate `x̂_{k|k}`.
    pub state_estimate: Vector,
    /// Updated state covariance `P^x_k`.
    pub state_covariance: Matrix,
    /// Actuator anomaly estimate `d̂^a_{k−1}`.
    pub actuator_anomaly: Vector,
    /// Error covariance `P^a_{k−1}` of the actuator anomaly estimate.
    pub actuator_covariance: Matrix,
    /// Testing-sensor anomaly estimate `d̂^s_k` (stacked in suite order
    /// over the mode's testing set; empty if the mode tests nothing).
    pub sensor_anomaly: Vector,
    /// Error covariance `P^s_k` of the sensor anomaly estimate.
    pub sensor_covariance: Matrix,
    /// Mode likelihood `N_k` (the paper's printed density; see
    /// `mode_likelihood` for why selection uses `consistency` instead).
    pub likelihood: f64,
    /// Dimension-free consistency of the hypothesis: the χ²(rank)
    /// survival p-value of the normalized innovation statistic,
    /// Uniform(0,1)-distributed for every consistent mode.
    pub consistency: f64,
    /// Reference-sensor innovation `ν_k` (diagnostics).
    pub innovation: Vector,
    /// Normalized actuator statistic `d̂ᵃᵀ(Pᵃ)⁻¹d̂ᵃ` of this output,
    /// computed as `d̂ᵃᵀ·N·d̂ᵃ` with `N = Fᵀ·R*⁻¹·F` the normal matrix
    /// whose inverse is `Pᵃ`. Written by the implied-anomaly pass, which
    /// the decision maker's actuator test then reuses.
    pub actuator_statistic: f64,
    /// Normalized per-testing-sensor statistics `d̂ˢ_sᵀ(Pˢ_ss)⁺d̂ˢ_s`
    /// (whitened, [`Matrix::whitened_quadratic_form`]), one per testing
    /// slice in the mode's testing order (empty for a mode that tests
    /// nothing). Written alongside [`NuiseOutput::actuator_statistic`]
    /// and read by the decision maker's per-sensor views.
    pub testing_statistics: Vec<f64>,
}

/// Error message of a singular reference innovation covariance `R*₂`.
pub(crate) const SINGULAR_INNOVATION: &str = "reference innovation covariance is singular";

/// Error message of a rank-deficient `C₂·G` (the mode cannot estimate
/// the actuator anomaly).
pub(crate) const RANK_DEFICIENT: &str =
    "rank(C2*G) < input dimension: mode cannot estimate actuator anomalies";

/// Error message of an update that left the state estimate or its
/// covariance non-finite.
pub(crate) const NON_FINITE_ESTIMATE: &str = "updated state estimate or covariance is not finite";

/// Model-evaluation helper honoring the linearization strategy: RoboADS
/// re-linearizes every iteration and evaluates the nonlinear `f`/`h`;
/// the §V-G baseline freezes the Jacobians at one operating point and
/// propagates the affine (truly linear) model built there.
struct Lin<'a> {
    system: &'a RobotSystem,
    strategy: &'a Linearization,
}

impl<'a> Lin<'a> {
    fn f(&self, x: &Vector, u: &Vector) -> Vector {
        match self.strategy {
            Linearization::PerIteration => self.system.dynamics().step(x, u),
            Linearization::FrozenAt { state, input } => {
                let f0 = self.system.dynamics().step(state, input);
                let a = self.system.dynamics().state_jacobian(state, input);
                let g = self.system.dynamics().input_jacobian(state, input);
                &(&f0 + &(&a * &(x - state))) + &(&g * &(u - input))
            }
        }
    }

    fn h(&self, subset: &[usize], x: &Vector) -> Vector {
        match self.strategy {
            Linearization::PerIteration => self.system.measure_subset(subset, x),
            Linearization::FrozenAt { state, .. } => {
                let h0 = self.system.measure_subset(subset, state);
                let c = self.system.jacobian_subset(subset, state);
                &h0 + &(&c * &(x - state))
            }
        }
    }

    fn a(&self, x: &Vector, u: &Vector) -> Matrix {
        match self.strategy {
            Linearization::PerIteration => self.system.dynamics().state_jacobian(x, u),
            Linearization::FrozenAt { state, input } => {
                self.system.dynamics().state_jacobian(state, input)
            }
        }
    }

    fn g(&self, x: &Vector, u: &Vector) -> Matrix {
        match self.strategy {
            Linearization::PerIteration => self.system.dynamics().input_jacobian(x, u),
            Linearization::FrozenAt { state, input } => {
                self.system.dynamics().input_jacobian(state, input)
            }
        }
    }

    fn c(&self, subset: &[usize], x: &Vector) -> Matrix {
        match self.strategy {
            Linearization::PerIteration => self.system.jacobian_subset(subset, x),
            Linearization::FrozenAt { state, .. } => self.system.jacobian_subset(subset, state),
        }
    }
}

/// Wraps the listed angular components of a residual to `(−π, π]`.
fn wrap_components(mut v: Vector, angular: &[usize]) -> Vector {
    for &i in angular {
        v[i] = wrap_angle(v[i]);
    }
    v
}

/// Stacks the readings of a sensor subset in suite order.
fn stack_readings(readings: &[Vector], subset: &[usize]) -> Vector {
    let parts: Vec<&Vector> = subset.iter().map(|&i| &readings[i]).collect();
    Vector::concat_all(parts)
}

/// Executes one NUISE step (Algorithm 2), allocating every
/// intermediate — the **reference oracle**. The engine and the fleet
/// run the in-place lane-batched kernel instead (`nuise_slab.rs`; the
/// engine at one lane), which the test suites pin against this function
/// with exact `==`, parsimony statistics included: the actuator
/// statistic `d̂ᵃᵀ·(Fᵀ·R*⁻¹·F)·d̂ᵃ` (the normal matrix is `(Pᵃ)⁻¹`, so no
/// factorization is needed) and each testing sensor's whitened
/// statistic ([`Matrix::whitened_quadratic_form`] of its slice).
///
/// # Errors
///
/// Returns [`CoreError::BadReadings`] when the supplied command or
/// readings do not match the system, [`CoreError::Numeric`] when a gain
/// matrix is singular (prevented up front by
/// [`crate::ModeSet::validate`]) or when the updated state estimate or
/// covariance is not finite, and propagates linear-algebra failures.
pub fn nuise_step(input: NuiseInput<'_>) -> Result<NuiseOutput> {
    let NuiseInput {
        system,
        mode,
        x_prev,
        p_prev,
        u_prev,
        readings,
        linearization,
        compensate,
    } = input;

    validate_readings(system, u_prev, readings)?;
    let lin = Lin {
        system,
        strategy: linearization,
    };

    let n = system.state_dim();
    let reference = mode.reference();
    let testing = mode.testing();
    let z2 = stack_readings(readings, reference);
    let angular2 = system.angular_components_subset(reference);
    let q = system.process_noise();
    let r2 = system.noise_subset(reference);

    // --- Step 1: actuator anomaly estimation (Alg. 2 lines 2–6). ---
    let a = lin.a(x_prev, u_prev);
    let g = lin.g(x_prev, u_prev);
    let x_bar = lin.f(x_prev, u_prev);
    let c2 = lin.c(reference, &x_bar);

    let p_tilde = (&(&a * &(p_prev * &a.transpose())) + q)
        .symmetrized()
        .expect("square by construction");
    let r2_star = (&c2.congruence(&p_tilde)? + &r2).symmetrized()?;
    let r2_star_inv = r2_star
        .inverse()
        .map_err(|_| CoreError::Numeric(SINGULAR_INNOVATION.into()))?;

    let f_mat = &c2 * &g; // m₂ × q
    let normal = (&f_mat.transpose() * &(&r2_star_inv * &f_mat)).symmetrized()?;
    let normal_inv = normal
        .inverse()
        .map_err(|_| CoreError::Numeric(RANK_DEFICIENT.into()))?;
    let m2 = &normal_inv * &(&f_mat.transpose() * &r2_star_inv); // q × m₂

    let nu_tilde = wrap_components(&z2 - &lin.h(reference, &x_bar), &angular2);
    let d_a = &m2 * &nu_tilde;
    let actuator_statistic = d_a.quadratic_form(&normal)?;
    // WLS error covariance: M₂ R*₂ M₂ᵀ = (Fᵀ R*⁻¹ F)⁻¹.
    let p_a = normal_inv;

    // --- Step 2: compensated state prediction (lines 7–10). ---
    // Algorithm 2 line 7 prints x̂_{k|k−1} = f(x̂, u + d̂^a); we apply the
    // first-order-equivalent compensation x̂_{k|k−1} = f(x̂, u) + G·d̂^a,
    // which is exactly the model the covariance recursion below assumes.
    // For wheel-speed-commanded robots (Khepera) f is linear in u and the
    // two forms coincide; for input-saturated channels (the Tamiya's
    // steering stop) the printed form would push the *noise* of a weakly
    // observable anomaly estimate through tan(·) and the mechanical
    // clamp, biasing the prediction in a way the covariances cannot
    // represent (DESIGN.md §2 records this implementation note).
    // Challenge-2 ablation: without compensation the prediction ignores
    // d̂ᵃ and the error recursion is the plain EKF one (no projector, no
    // cross-correlation) — biased under real actuator misbehavior.
    let m2_dim = z2.len();
    let (x_pred, a_bar, q_bar, s) = if compensate {
        let x_pred = &x_bar + &(&g * &d_a);
        let gm2 = &g * &m2; // n × m₂
        let j_comp = &Matrix::identity(n) - &(&gm2 * &c2); // I − G·M₂·C₂
        let a_bar = &j_comp * &a;
        let q_bar = (&j_comp.congruence(q)? + &gm2.congruence(&r2)?).symmetrized()?;
        // Cross-covariance S = E[x̃_{k|k−1}·ξ₂ᵀ] = −G·M₂·R₂
        // (sign-corrected, see module docs).
        let s = -&(&gm2 * &r2);
        (x_pred, a_bar, q_bar, s)
    } else {
        (
            x_bar.clone(),
            a.clone(),
            q.clone(),
            Matrix::zeros(n, m2_dim),
        )
    };
    let p_pred = (&a_bar.congruence(p_prev)? + &q_bar).symmetrized()?;

    // --- Step 3: correlated-noise state update (lines 11–14). ---
    let nu = wrap_components(&z2 - &lin.h(reference, &x_pred), &angular2);
    let p_nu = {
        let cs = &c2 * &s;
        (&(&c2.congruence(&p_pred)? + &r2) + &(&cs + &cs.transpose())).symmetrized()?
    };
    // Pν is *structurally singular*: the innovation of the compensated
    // prediction is ν = (I − C₂GM₂)(C₂(Ae+ζ) + ξ₂), and `I − C₂GM₂` is an
    // oblique projector of rank m₂ − q (the input estimate consumed q
    // innovation directions). This is exactly why Algorithm 2's
    // likelihood uses the pseudo-inverse, pseudo-determinant and rank;
    // the minimum-MSE update gain on the remaining subspace uses the
    // pseudo-inverse as well.
    //
    // The projector's range is null(M₂) (M₂·F = I), and it is known
    // before Pν is: Pν = (I − C₂GM₂)·R*₂·(I − C₂GM₂)ᵀ. So Pν is projected
    // onto an orthonormal basis of null(M₂) and the (m₂−q)² block
    // factorized with one Cholesky, which gives the pseudo-inverse, the
    // rank, the pseudo-determinant and the statistic at once. Without
    // compensation Pν is full rank and the basis is the identity. The
    // Jacobi route takes over wherever the projection is not exact to
    // the rank cutoff (DESIGN.md §20).
    //
    // The zero-spectrum cutoff must carry an *absolute* floor tied to
    // the measurement-noise scale: when m₂ = q the projector annihilates
    // everything and Pν is numerically zero — a purely relative cutoff
    // would then promote its rounding noise to "signal" and produce a
    // ~1/ε gain that detonates the filter.
    let noise_scale = (r2.trace() / r2.rows().max(1) as f64).max(f64::MIN_POSITIVE);
    let floor = 1e-9 * noise_scale;
    let p_nu_pinv = match p_nu.projected_pseudo_inverse(compensate.then_some(&m2), &nu, floor)? {
        Some(projected) => projected,
        None => p_nu.floored_pseudo_inverse(&nu, floor)?,
    };
    let l = &(&(&p_pred * &c2.transpose()) + &s) * &p_nu_pinv.matrix; // n × m₂
    let mut x_new = &x_pred + &(&l * &nu);
    for &i in system.dynamics().angular_state_components() {
        x_new[i] = wrap_angle(x_new[i]);
    }
    let j_upd = &Matrix::identity(n) - &(&l * &c2); // I − L·C₂
    let p_new = {
        let cross = &(&j_upd * &s) * &l.transpose();
        (&(&j_upd.congruence(&p_pred)? + &l.congruence(&r2)?) - &(&cross + &cross.transpose()))
            .symmetrized()?
    };

    // --- Step 4: testing-sensor anomaly estimation (lines 15–16). ---
    let (d_s, p_s) = if testing.is_empty() {
        (Vector::zeros(0), Matrix::zeros(0, 0))
    } else {
        let z1 = stack_readings(readings, testing);
        let angular1 = system.angular_components_subset(testing);
        let c1 = lin.c(testing, &x_new);
        let r1 = system.noise_subset(testing);
        let d_s = wrap_components(&z1 - &lin.h(testing, &x_new), &angular1);
        let p_s = (&c1.congruence(&p_new)? + &r1).symmetrized()?;
        (d_s, p_s)
    };

    // --- Step 5: mode likelihood (lines 17–20). ---
    let (likelihood, consistency) = mode_likelihood(&p_nu_pinv)?;
    // The filter is derived for finite states and covariances only. A
    // finite but extreme reading can still overflow the update (an IPS
    // fix of 1e308 drives x̂ to NaN, and the NaN innovation then reads
    // as perfectly consistent), so such a step fails instead.
    if !(x_new.is_finite() && p_new.is_finite()) {
        return Err(CoreError::Numeric(NON_FINITE_ESTIMATE.into()));
    }
    let testing_statistics = system
        .subset_slices(testing)
        .iter()
        .map(|slice| {
            let d = d_s.segment(slice.offset, slice.len);
            let cov = p_s.block(slice.offset, slice.offset, slice.len, slice.len);
            cov.whitened_quadratic_form(&d)
        })
        .collect::<std::result::Result<Vec<_>, _>>()?;

    Ok(NuiseOutput {
        state_estimate: x_new,
        state_covariance: p_new,
        actuator_anomaly: d_a,
        actuator_covariance: p_a,
        sensor_anomaly: d_s,
        sensor_covariance: p_s,
        likelihood,
        consistency,
        innovation: nu,
        actuator_statistic,
        testing_statistics,
    })
}

/// Degenerate-Gaussian likelihood of `ν` under covariance `P` (Alg. 2
/// line 20): `exp(−νᵀP†ν/2) / ((2π)^{n/2}·|P|₊^{1/2})` with
/// `n = rank(P)` — plus the **dimension-free consistency**: the χ²(n)
/// survival p-value of the same normalized statistic. `pinv` carries
/// `νᵀP†ν`, `n` and `|P|₊^{1/2}`.
///
/// The raw density is the paper's printed quantity, but densities of
/// modes with *different* innovation dimensionality are not
/// commensurable (a rank-2 LiDAR innovation's density constant dwarfs a
/// rank-1 pose innovation's), so comparing them directly permanently
/// locks the selector onto one mode. The engine therefore feeds the
/// p-value — identically distributed Uniform(0,1) for every consistent
/// mode regardless of its dimension — into the probability update, and
/// reports the printed density for fidelity/diagnostics.
fn mode_likelihood(pinv: &PseudoInverse) -> Result<(f64, f64)> {
    if pinv.rank == 0 {
        // No informative direction (m₂ = q: the input estimate consumed
        // the whole innovation): every innovation is equally likely.
        return Ok((1.0, 1.0));
    }
    let stat = pinv.statistic.max(0.0);
    let norm = likelihood_normalizer(pinv.rank) * pinv.sqrt_pseudo_determinant;
    let density = (-0.5 * stat).exp() / norm.max(f64::MIN_POSITIVE);
    Ok((density, chi2_consistency(pinv.rank, stat)?))
}

/// `(2π)^{rank/2}`, the density's constant factor.
pub(crate) fn likelihood_normalizer(rank: usize) -> f64 {
    (2.0 * std::f64::consts::PI).powf(rank as f64 / 2.0)
}

/// The χ²(`rank`) survival p-value of a normalized innovation
/// statistic — the mode consistency.
pub(crate) fn chi2_consistency(rank: usize, stat: f64) -> Result<f64> {
    roboads_stats::ChiSquared::new(rank)
        .and_then(|chi| chi.survival(stat))
        .map_err(|e| CoreError::Numeric(e.to_string()))
}

/// Rejects a command or a set of readings that does not fit the system:
/// a wrong-length or non-finite command `u_{k−1}`, a wrong reading
/// count, a wrong-length reading, or a non-finite reading. The one input
/// check of Algorithm 2, shared by [`nuise_step`] and the in-place
/// kernel, so malformed input is a [`CoreError::BadReadings`] on every
/// path and never reaches the model functions.
pub(crate) fn validate_readings(
    system: &RobotSystem,
    u_prev: &Vector,
    readings: &[Vector],
) -> Result<()> {
    if u_prev.len() != system.input_dim() {
        return Err(CoreError::BadReadings {
            reason: format!(
                "command has {} components, expected {}",
                u_prev.len(),
                system.input_dim()
            ),
        });
    }
    if !u_prev.is_finite() {
        return Err(CoreError::BadReadings {
            reason: "command is not finite".into(),
        });
    }
    if readings.len() != system.sensor_count() {
        return Err(CoreError::BadReadings {
            reason: format!(
                "expected {} sensor readings, got {}",
                system.sensor_count(),
                readings.len()
            ),
        });
    }
    for (i, z) in readings.iter().enumerate() {
        let expected = system.sensor(i).map_err(|e| CoreError::BadReadings {
            reason: e.to_string(),
        })?;
        if z.len() != expected.dim() {
            return Err(CoreError::BadReadings {
                reason: format!(
                    "sensor {i} ({}) reading has {} components, expected {}",
                    expected.name(),
                    z.len(),
                    expected.dim()
                ),
            });
        }
        if !z.is_finite() {
            return Err(CoreError::BadReadings {
                reason: format!("sensor {i} ({}) reading is not finite", expected.name()),
            });
        }
    }
    Ok(())
}

/// The allocating oracle of the kernel's whole per-mode step:
/// [`nuise_step`] plus the implied-anomaly count its parsimony
/// statistics imply.
#[cfg(test)]
pub(crate) fn oracle_step(
    input: NuiseInput<'_>,
    actuator_threshold: f64,
    testing_thresholds: &[f64],
) -> Result<(NuiseOutput, usize)> {
    let out = nuise_step(input)?;
    let count = usize::from(out.actuator_statistic > actuator_threshold)
        + out
            .testing_statistics
            .iter()
            .zip(testing_thresholds)
            .filter(|(stat, threshold)| stat > threshold)
            .count();
    Ok((out, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nuise_slab::NuiseSlabWorkspace;
    use roboads_models::presets;

    fn khepera_setup() -> (RobotSystem, Mode, Vector, Matrix, Vector) {
        let system = presets::khepera_system();
        // Trust the IPS, test encoder and LiDAR.
        let mode = Mode::new(vec![0], vec![1, 2]);
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.3]);
        let p0 = Matrix::identity(3) * 1e-4;
        let u = Vector::from_slice(&[0.06, 0.05]);
        (system, mode, x0, p0, u)
    }

    fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
        (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(x))
            .collect()
    }

    fn step(
        system: &RobotSystem,
        mode: &Mode,
        x_prev: &Vector,
        p_prev: &Matrix,
        u: &Vector,
        readings: &[Vector],
    ) -> NuiseOutput {
        nuise_step(NuiseInput {
            system,
            mode,
            x_prev,
            p_prev,
            u_prev: u,
            readings,
            linearization: &Linearization::PerIteration,
            compensate: true,
        })
        .unwrap()
    }

    #[test]
    fn clean_data_yields_near_zero_anomalies() {
        let (system, mode, x0, p0, u) = khepera_setup();
        let x1 = system.dynamics().step(&x0, &u);
        let readings = clean_readings(&system, &x1);
        let out = step(&system, &mode, &x0, &p0, &u, &readings);
        assert!(
            out.actuator_anomaly.max_abs() < 1e-9,
            "{:?}",
            out.actuator_anomaly
        );
        assert!(
            out.sensor_anomaly.max_abs() < 1e-9,
            "{:?}",
            out.sensor_anomaly
        );
        assert!((&out.state_estimate - &x1).max_abs() < 1e-9);
        assert!(out.likelihood > 0.0);
    }

    #[test]
    fn actuator_bias_is_estimated() {
        let (system, mode, x0, p0, u) = khepera_setup();
        // Executed commands differ from planned by a constant bias.
        let bias = Vector::from_slice(&[0.02, -0.01]);
        let x1 = system.dynamics().step(&x0, &(&u + &bias));
        let readings = clean_readings(&system, &x1);
        let out = step(&system, &mode, &x0, &p0, &u, &readings);
        assert!(
            (&out.actuator_anomaly - &bias).max_abs() < 1e-6,
            "estimated {:?}, injected {bias:?}",
            out.actuator_anomaly
        );
        // Compensation keeps the state estimate accurate despite the bias.
        assert!((&out.state_estimate - &x1).max_abs() < 1e-6);
    }

    #[test]
    fn testing_sensor_bias_is_estimated() {
        let (system, mode, x0, p0, u) = khepera_setup();
        let x1 = system.dynamics().step(&x0, &u);
        let mut readings = clean_readings(&system, &x1);
        // Corrupt the wheel encoder (testing sensor index 1) on x.
        readings[1][0] += 0.07;
        let out = step(&system, &mode, &x0, &p0, &u, &readings);
        // Stacked testing vector: encoder (3) then lidar (4).
        assert!((out.sensor_anomaly[0] - 0.07).abs() < 1e-6);
        assert!(out.sensor_anomaly.segment(1, 6).max_abs() < 1e-6);
        // State estimation is untouched (encoder is not a reference).
        assert!((&out.state_estimate - &x1).max_abs() < 1e-9);
    }

    #[test]
    fn reference_corruption_lowers_likelihood() {
        let (system, _, x0, p0, u) = khepera_setup();
        let x1 = system.dynamics().step(&x0, &u);
        let mut readings = clean_readings(&system, &x1);
        readings[0][0] += 0.1; // corrupt the IPS

        // Mode trusting the IPS is inconsistent; mode trusting the
        // encoder explains the data.
        let bad_mode = Mode::new(vec![0], vec![1, 2]);
        let good_mode = Mode::new(vec![1], vec![0, 2]);
        let bad = step(&system, &bad_mode, &x0, &p0, &u, &readings);
        let good = step(&system, &good_mode, &x0, &p0, &u, &readings);
        assert!(
            good.likelihood > bad.likelihood * 10.0,
            "good {} vs bad {}",
            good.likelihood,
            bad.likelihood
        );
    }

    #[test]
    fn covariances_stay_psd_and_bounded_over_long_runs() {
        let (system, mode, mut x_est, mut p, u) = khepera_setup();
        let mut x_true = x_est.clone();
        for k in 0..200 {
            x_true = system.dynamics().step(&x_true, &u);
            let readings = clean_readings(&system, &x_true);
            let out = step(&system, &mode, &x_est, &p, &u, &readings);
            x_est = out.state_estimate;
            p = out.state_covariance;
            assert!(
                p.is_positive_semi_definite(1e-12).unwrap(),
                "P^x not PSD at iteration {k}"
            );
            assert!(
                out.actuator_covariance
                    .is_positive_semi_definite(1e-12)
                    .unwrap(),
                "P^a not PSD at iteration {k}"
            );
            assert!(p.max_abs() < 1.0, "covariance diverged at iteration {k}");
        }
        assert!((&x_est - &x_true).max_abs() < 1e-6);
    }

    #[test]
    fn heading_branch_cut_does_not_create_phantom_anomalies() {
        let (system, mode, _, p0, _) = khepera_setup();
        // Robot heading just below +π, turning CCW across the cut.
        let x0 = Vector::from_slice(&[2.0, 2.0, std::f64::consts::PI - 0.01]);
        let u = Vector::from_slice(&[0.0, 0.06]);
        let x1 = system.dynamics().step(&x0, &u);
        assert!(x1[2] < 0.0, "test should cross the branch cut");
        let readings = clean_readings(&system, &x1);
        let out = step(&system, &mode, &x0, &p0, &u, &readings);
        assert!(out.actuator_anomaly.max_abs() < 1e-6);
        assert!(out.sensor_anomaly.max_abs() < 1e-6);
    }

    #[test]
    fn empty_testing_set_is_supported() {
        let (system, _, x0, p0, u) = khepera_setup();
        let mode = Mode::new(vec![0, 1, 2], vec![]);
        let x1 = system.dynamics().step(&x0, &u);
        let readings = clean_readings(&system, &x1);
        let out = step(&system, &mode, &x0, &p0, &u, &readings);
        assert_eq!(out.sensor_anomaly.len(), 0);
        assert!(out.likelihood > 0.0);
    }

    #[test]
    fn bad_readings_are_rejected() {
        let (system, mode, x0, p0, u) = khepera_setup();
        let base = clean_readings(&system, &x0);

        let mut wrong_count = base.clone();
        wrong_count.pop();
        let err = nuise_step(NuiseInput {
            system: &system,
            mode: &mode,
            x_prev: &x0,
            p_prev: &p0,
            u_prev: &u,
            readings: &wrong_count,
            linearization: &Linearization::PerIteration,
            compensate: true,
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::BadReadings { .. }));

        let mut nan = base.clone();
        nan[0][0] = f64::NAN;
        let err = nuise_step(NuiseInput {
            system: &system,
            mode: &mode,
            x_prev: &x0,
            p_prev: &p0,
            u_prev: &u,
            readings: &nan,
            linearization: &Linearization::PerIteration,
            compensate: true,
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::BadReadings { .. }));

        let mut wrong_dim = base;
        wrong_dim[2] = Vector::zeros(2);
        let err = nuise_step(NuiseInput {
            system: &system,
            mode: &mode,
            x_prev: &x0,
            p_prev: &p0,
            u_prev: &u,
            readings: &wrong_dim,
            linearization: &Linearization::PerIteration,
            compensate: true,
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::BadReadings { .. }));
    }

    /// The allocating oracle of `ws`'s step, at `ws`'s parsimony
    /// thresholds.
    fn oracle(ws: &NuiseSlabWorkspace<1>, input: NuiseInput<'_>) -> Result<(NuiseOutput, usize)> {
        let (actuator_threshold, testing_thresholds) = ws.parsimony_thresholds();
        oracle_step(input, actuator_threshold, testing_thresholds)
    }

    #[test]
    fn workspace_step_is_bitwise_identical_to_allocating_step() {
        let (system, _, x0, p0, u) = khepera_setup();
        // Every reference/testing partition shape (including the
        // empty-testing mode), both compensation settings and both
        // linearizations, over a multi-step trajectory so the workspace
        // is exercised warm (reuse) as well as cold.
        let modes = [
            Mode::new(vec![0], vec![1, 2]),
            Mode::new(vec![1], vec![0, 2]),
            Mode::new(vec![2], vec![0, 1]),
            Mode::new(vec![0, 1, 2], vec![]),
        ];
        let frozen = Linearization::FrozenAt {
            state: x0.clone(),
            input: Vector::from_slice(&[0.1, 0.1]),
        };
        for linearization in [Linearization::PerIteration, frozen] {
            for mode in &modes {
                for compensate in [true, false] {
                    let mut ws =
                        NuiseSlabWorkspace::<1>::new(&system, mode, &linearization).unwrap();
                    let mut out = ws.new_output();
                    let mut x_est = x0.clone();
                    let mut p = p0.clone();
                    let mut x_true = x0.clone();
                    for k in 0..20 {
                        x_true = system.dynamics().step(&x_true, &u);
                        let mut readings = clean_readings(&system, &x_true);
                        if k > 10 {
                            readings[1][0] += 0.05; // exercise nonzero anomalies
                        }
                        let input = NuiseInput {
                            system: &system,
                            mode,
                            x_prev: &x_est,
                            p_prev: &p,
                            u_prev: &u,
                            readings: &readings,
                            linearization: &linearization,
                            compensate,
                        };
                        let (reference, count) = oracle(&ws, input).unwrap();
                        assert_eq!(ws.step(input, &mut out).unwrap(), count);
                        assert_eq!(
                            out, reference,
                            "{linearization:?} mode {mode:?} compensate {compensate} \
                             diverged at step {k}"
                        );
                        x_est = reference.state_estimate;
                        p = reference.state_covariance;
                    }
                }
            }
        }
    }

    #[test]
    fn workspace_step_propagates_the_oracle_errors() {
        let (system, mode, x0, p0, u) = khepera_setup();
        let mut ws =
            NuiseSlabWorkspace::<1>::new(&system, &mode, &Linearization::PerIteration).unwrap();
        let mut out = ws.new_output();
        let before = out.clone();
        let readings = clean_readings(&system, &x0);
        let mut short = readings.clone();
        short.pop();
        let nan_p = Matrix::identity(3) * f64::NAN;
        let cases = [
            (&p0, Vector::from_slice(&[0.06]), &readings),
            (&p0, Vector::from_slice(&[f64::NAN, 0.05]), &readings),
            (&p0, u.clone(), &short),
            // A non-finite prior passes input validation and fails in
            // the numeric core.
            (&nan_p, u.clone(), &readings),
        ];
        for (p_prev, u_prev, readings) in cases {
            let input = NuiseInput {
                system: &system,
                mode: &mode,
                x_prev: &x0,
                p_prev,
                u_prev: &u_prev,
                readings,
                linearization: &Linearization::PerIteration,
                compensate: true,
            };
            let expected = oracle(&ws, input).unwrap_err();
            assert_eq!(ws.step(input, &mut out).unwrap_err(), expected);
            assert_eq!(out, before, "a failed step leaves the output untouched");
        }
    }

    #[test]
    fn frozen_linearization_degrades_after_turning() {
        let (system, mode, x0, p0, _) = khepera_setup();
        let frozen = Linearization::FrozenAt {
            state: x0.clone(),
            input: Vector::from_slice(&[0.05, 0.05]),
        };
        // Drive through a 90° turn; the frozen model keeps predicting
        // motion along the original heading.
        let u_turn = Vector::from_slice(&[0.02, 0.10]);
        let mut x_true = x0.clone();
        let mut x_nl = x0.clone();
        let mut p_nl = p0.clone();
        let mut x_fr = x0;
        let mut p_fr = p0;
        for _ in 0..60 {
            x_true = system.dynamics().step(&x_true, &u_turn);
            let readings = clean_readings(&system, &x_true);
            let out_nl = step(&system, &mode, &x_nl, &p_nl, &u_turn, &readings);
            x_nl = out_nl.state_estimate;
            p_nl = out_nl.state_covariance;
            let out_fr = nuise_step(NuiseInput {
                system: &system,
                mode: &mode,
                x_prev: &x_fr,
                p_prev: &p_fr,
                u_prev: &u_turn,
                readings: &readings,
                linearization: &frozen,
                compensate: true,
            })
            .unwrap();
            x_fr = out_fr.state_estimate;
            p_fr = out_fr.state_covariance;
        }
        let err_nl = (&x_nl - &x_true).norm();
        let err_fr = (&x_fr - &x_true).norm();
        assert!(err_nl < 1e-6, "nonlinear estimator should track: {err_nl}");
        assert!(
            err_fr > 10.0 * err_nl.max(1e-9),
            "frozen linearization should degrade: {err_fr} vs {err_nl}"
        );
    }
}
