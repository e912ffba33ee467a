use roboads_linalg::{Matrix, Vector};

use crate::angle::wrap_angle;
use crate::dynamics::DynamicsModel;
use crate::{ModelError, Result};

/// Differential-drive kinematics — the Khepera III model of the paper.
///
/// State `x = (x, y, θ)`; input `u = (v_L, v_R)`, the left/right wheel
/// surface speeds in m/s. Over one control period `Δt`:
///
/// ```text
/// v = (v_L + v_R) / 2              (forward speed)
/// ω = (v_R − v_L) / b              (yaw rate, b = wheel base)
/// x_k = x + v·cos(θ)·Δt
/// y_k = y + v·sin(θ)·Δt
/// θ_k = wrap(θ + ω·Δt)
/// ```
///
/// The paper commands Khepera wheels in integer "speed units"; the
/// conversion constant implied by §V-H (900 units ≈ 0.006 m/s) is
/// exposed as [`DifferentialDrive::KHEPERA_SPEED_UNIT`] so attack
/// magnitudes can be specified exactly as the paper states them.
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::dynamics::DifferentialDrive;
/// use roboads_models::DynamicsModel;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let dd = DifferentialDrive::new(0.0885, 0.1)?; // Khepera III, 10 Hz
/// // Equal wheel speeds drive straight.
/// let x1 = dd.step(
///     &Vector::from_slice(&[0.0, 0.0, 0.0]),
///     &Vector::from_slice(&[0.1, 0.1]),
/// );
/// assert!((x1[0] - 0.01).abs() < 1e-12);
/// assert_eq!(x1[2], 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DifferentialDrive {
    wheel_base: f64,
    dt: f64,
}

impl DifferentialDrive {
    /// Meters per second represented by one Khepera integer speed unit.
    ///
    /// §V-H of the paper reports that a stealthy wheel-speed alteration
    /// must stay under "900 units (0.006 m/s)".
    pub const KHEPERA_SPEED_UNIT: f64 = 0.006 / 900.0;

    /// Creates the model from the wheel base (track width, meters) and
    /// the control period `Δt` (seconds).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive or
    /// non-finite parameters.
    pub fn new(wheel_base: f64, dt: f64) -> Result<Self> {
        if !(wheel_base.is_finite() && wheel_base > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "wheel_base",
                value: format!("{wheel_base}"),
            });
        }
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "dt",
                value: format!("{dt}"),
            });
        }
        Ok(DifferentialDrive { wheel_base, dt })
    }

    /// Wheel base in meters.
    pub fn wheel_base(&self) -> f64 {
        self.wheel_base
    }

    /// Control period in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Converts a command in Khepera speed units to m/s.
    pub fn speed_units_to_mps(units: f64) -> f64 {
        units * Self::KHEPERA_SPEED_UNIT
    }
}

impl DynamicsModel for DifferentialDrive {
    fn state_dim(&self) -> usize {
        3
    }

    fn input_dim(&self) -> usize {
        2
    }

    fn angular_state_components(&self) -> &[usize] {
        &[2]
    }

    fn name(&self) -> &str {
        "differential-drive"
    }

    fn step(&self, x: &Vector, u: &Vector) -> Vector {
        assert_eq!(x.len(), 3, "differential drive expects a 3-state");
        assert_eq!(u.len(), 2, "differential drive expects 2 wheel speeds");
        let (vl, vr) = (u[0], u[1]);
        let v = 0.5 * (vl + vr);
        let omega = (vr - vl) / self.wheel_base;
        let theta = x[2];
        Vector::from_slice(&[
            x[0] + v * theta.cos() * self.dt,
            x[1] + v * theta.sin() * self.dt,
            wrap_angle(theta + omega * self.dt),
        ])
    }

    fn state_jacobian(&self, x: &Vector, u: &Vector) -> Matrix {
        let v = 0.5 * (u[0] + u[1]);
        let theta = x[2];
        Matrix::from_rows(&[
            &[1.0, 0.0, -v * theta.sin() * self.dt],
            &[0.0, 1.0, v * theta.cos() * self.dt],
            &[0.0, 0.0, 1.0],
        ])
        .expect("static shape")
    }

    fn input_jacobian(&self, x: &Vector, _u: &Vector) -> Matrix {
        let theta = x[2];
        let half_dt = 0.5 * self.dt;
        let b = self.wheel_base;
        Matrix::from_rows(&[
            &[half_dt * theta.cos(), half_dt * theta.cos()],
            &[half_dt * theta.sin(), half_dt * theta.sin()],
            &[-self.dt / b, self.dt / b],
        ])
        .expect("static shape")
    }

    fn step_into(&self, x: &Vector, u: &Vector, out: &mut Vector) {
        assert_eq!(x.len(), 3, "differential drive expects a 3-state");
        assert_eq!(u.len(), 2, "differential drive expects 2 wheel speeds");
        let (vl, vr) = (u[0], u[1]);
        let v = 0.5 * (vl + vr);
        let omega = (vr - vl) / self.wheel_base;
        let theta = x[2];
        out[0] = x[0] + v * theta.cos() * self.dt;
        out[1] = x[1] + v * theta.sin() * self.dt;
        out[2] = wrap_angle(theta + omega * self.dt);
    }

    fn state_jacobian_into(&self, x: &Vector, u: &Vector, out: &mut Matrix) {
        let v = 0.5 * (u[0] + u[1]);
        let theta = x[2];
        out.as_mut_slice().copy_from_slice(&[
            1.0,
            0.0,
            -v * theta.sin() * self.dt,
            0.0,
            1.0,
            v * theta.cos() * self.dt,
            0.0,
            0.0,
            1.0,
        ]);
    }

    fn input_jacobian_into(&self, x: &Vector, _u: &Vector, out: &mut Matrix) {
        let theta = x[2];
        let half_dt = 0.5 * self.dt;
        let b = self.wheel_base;
        out.as_mut_slice().copy_from_slice(&[
            half_dt * theta.cos(),
            half_dt * theta.cos(),
            half_dt * theta.sin(),
            half_dt * theta.sin(),
            -self.dt / b,
            self.dt / b,
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::test_support::{assert_into_variants_match, assert_jacobians_match};
    use std::f64::consts::{FRAC_PI_2, PI};

    fn model() -> DifferentialDrive {
        DifferentialDrive::new(0.0885, 0.1).unwrap()
    }

    #[test]
    fn straight_line_motion() {
        let dd = model();
        let mut x = Vector::from_slice(&[0.0, 0.0, FRAC_PI_2]);
        let u = Vector::from_slice(&[0.2, 0.2]);
        for _ in 0..10 {
            x = dd.step(&x, &u);
        }
        // 1 s at 0.2 m/s heading +y.
        assert!(x[0].abs() < 1e-12);
        assert!((x[1] - 0.2).abs() < 1e-12);
        assert!((x[2] - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn opposite_wheels_spin_in_place() {
        let dd = model();
        let x = Vector::from_slice(&[1.0, 1.0, 0.0]);
        let u = Vector::from_slice(&[-0.05, 0.05]);
        let x1 = dd.step(&x, &u);
        assert_eq!(x1[0], 1.0);
        assert_eq!(x1[1], 1.0);
        // Δθ = ω·Δt = ((v_R − v_L)/b)·Δt.
        assert!((x1[2] - 0.1 / 0.0885 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn heading_wraps_at_pi() {
        let dd = model();
        let x = Vector::from_slice(&[0.0, 0.0, PI - 0.01]);
        let u = Vector::from_slice(&[-0.05, 0.05]); // turning CCW
        let x1 = dd.step(&x, &u);
        assert!(x1[2] < 0.0, "heading should wrap past +π, got {}", x1[2]);
    }

    #[test]
    fn jacobians_match_numeric() {
        let dd = model();
        for &theta in &[0.0, 0.7, -2.2, PI - 0.05] {
            let x = Vector::from_slice(&[0.3, -0.2, theta]);
            let u = Vector::from_slice(&[0.12, 0.08]);
            assert_jacobians_match(&dd, &x, &u, 1e-6);
            assert_into_variants_match(&dd, &x, &u);
        }
    }

    #[test]
    fn speed_unit_conversion_matches_paper() {
        // §V-H: 900 units = 0.006 m/s; so 6000 units = 0.04 m/s.
        assert!((DifferentialDrive::speed_units_to_mps(900.0) - 0.006).abs() < 1e-12);
        assert!((DifferentialDrive::speed_units_to_mps(6000.0) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(DifferentialDrive::new(0.0, 0.1).is_err());
        assert!(DifferentialDrive::new(0.1, -1.0).is_err());
        assert!(DifferentialDrive::new(f64::NAN, 0.1).is_err());
    }

    #[test]
    fn dims_and_metadata() {
        let dd = model();
        assert_eq!(dd.state_dim(), 3);
        assert_eq!(dd.input_dim(), 2);
        assert_eq!(dd.angular_state_components(), &[2]);
        assert_eq!(dd.name(), "differential-drive");
        assert_eq!(dd.wheel_base(), 0.0885);
        assert_eq!(dd.dt(), 0.1);
    }
}
