use roboads_linalg::{Matrix, Vector};

use crate::angle::wrap_angle;
use crate::dynamics::DynamicsModel;
use crate::{ModelError, Result};

/// Kinematic bicycle model — the Tamiya TT-02 Ackermann RC car of §V-D.
///
/// State `x = (x, y, θ)`; input `u = (v, δ)` with `v` the rear-axle speed
/// in m/s and `δ` the front steering angle in radians. Over one control
/// period `Δt`:
///
/// ```text
/// x_k = x + v·cos(θ)·Δt
/// y_k = y + v·sin(θ)·Δt
/// θ_k = wrap(θ + (v / L)·tan(δ)·Δt)       (L = wheelbase)
/// ```
///
/// The steering angle is clamped to `±max_steer` before use, mirroring
/// the mechanical stop of the physical car; this keeps `tan(δ)` away from
/// its poles, so the model stays well-behaved under arbitrarily corrupted
/// actuator commands.
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::dynamics::Bicycle;
/// use roboads_models::DynamicsModel;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let car = Bicycle::new(0.257, 0.45, 0.1)?; // Tamiya TT-02 at 10 Hz
/// let x1 = car.step(
///     &Vector::from_slice(&[0.0, 0.0, 0.0]),
///     &Vector::from_slice(&[0.5, 0.0]),
/// );
/// assert!((x1[0] - 0.05).abs() < 1e-12); // straight ahead
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bicycle {
    wheelbase: f64,
    max_steer: f64,
    dt: f64,
}

impl Bicycle {
    /// Creates the model from the wheelbase (m), the maximum steering
    /// angle (rad) and the control period (s).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive or
    /// non-finite parameters, or `max_steer ≥ π/2`.
    pub fn new(wheelbase: f64, max_steer: f64, dt: f64) -> Result<Self> {
        if !(wheelbase.is_finite() && wheelbase > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "wheelbase",
                value: format!("{wheelbase}"),
            });
        }
        if !(max_steer.is_finite() && max_steer > 0.0 && max_steer < std::f64::consts::FRAC_PI_2) {
            return Err(ModelError::InvalidParameter {
                name: "max_steer",
                value: format!("{max_steer}"),
            });
        }
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "dt",
                value: format!("{dt}"),
            });
        }
        Ok(Bicycle {
            wheelbase,
            max_steer,
            dt,
        })
    }

    /// Wheelbase in meters.
    pub fn wheelbase(&self) -> f64 {
        self.wheelbase
    }

    /// Steering limit in radians.
    pub fn max_steer(&self) -> f64 {
        self.max_steer
    }

    /// Control period in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    fn clamp_steer(&self, delta: f64) -> f64 {
        delta.clamp(-self.max_steer, self.max_steer)
    }
}

impl DynamicsModel for Bicycle {
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
        "bicycle"
    }

    fn step(&self, x: &Vector, u: &Vector) -> Vector {
        assert_eq!(x.len(), 3, "bicycle expects a 3-state");
        assert_eq!(u.len(), 2, "bicycle expects (speed, steering)");
        let v = u[0];
        let delta = self.clamp_steer(u[1]);
        let theta = x[2];
        Vector::from_slice(&[
            x[0] + v * theta.cos() * self.dt,
            x[1] + v * theta.sin() * self.dt,
            wrap_angle(theta + v / self.wheelbase * delta.tan() * self.dt),
        ])
    }

    fn state_jacobian(&self, x: &Vector, u: &Vector) -> Matrix {
        let v = u[0];
        let theta = x[2];
        Matrix::from_rows(&[
            &[1.0, 0.0, -v * theta.sin() * self.dt],
            &[0.0, 1.0, v * theta.cos() * self.dt],
            &[0.0, 0.0, 1.0],
        ])
        .expect("static shape")
    }

    fn input_jacobian(&self, x: &Vector, u: &Vector) -> Matrix {
        let v = u[0];
        let delta = self.clamp_steer(u[1]);
        let theta = x[2];
        let l = self.wheelbase;
        // Inside the clamp the derivative w.r.t. δ is v·Δt / (L·cos²δ);
        // at the stops it is zero, but we keep the interior derivative so
        // the anomaly-compensation gain never degenerates.
        let sec2 = 1.0 / (delta.cos() * delta.cos());
        Matrix::from_rows(&[
            &[theta.cos() * self.dt, 0.0],
            &[theta.sin() * self.dt, 0.0],
            &[delta.tan() * self.dt / l, v * self.dt * sec2 / l],
        ])
        .expect("static shape")
    }

    fn step_into(&self, x: &Vector, u: &Vector, out: &mut Vector) {
        assert_eq!(x.len(), 3, "bicycle expects a 3-state");
        assert_eq!(u.len(), 2, "bicycle expects (speed, steering)");
        let v = u[0];
        let delta = self.clamp_steer(u[1]);
        let theta = x[2];
        out[0] = x[0] + v * theta.cos() * self.dt;
        out[1] = x[1] + v * theta.sin() * self.dt;
        out[2] = wrap_angle(theta + v / self.wheelbase * delta.tan() * self.dt);
    }

    fn state_jacobian_into(&self, x: &Vector, u: &Vector, out: &mut Matrix) {
        let v = u[0];
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

    fn input_jacobian_into(&self, x: &Vector, u: &Vector, out: &mut Matrix) {
        let v = u[0];
        let delta = self.clamp_steer(u[1]);
        let theta = x[2];
        let l = self.wheelbase;
        let sec2 = 1.0 / (delta.cos() * delta.cos());
        out.as_mut_slice().copy_from_slice(&[
            theta.cos() * self.dt,
            0.0,
            theta.sin() * self.dt,
            0.0,
            delta.tan() * self.dt / l,
            v * self.dt * sec2 / l,
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::test_support::{assert_into_variants_match, assert_jacobians_match};

    fn car() -> Bicycle {
        Bicycle::new(0.257, 0.45, 0.1).unwrap()
    }

    #[test]
    fn straight_motion_with_zero_steer() {
        let b = car();
        let x1 = b.step(
            &Vector::from_slice(&[1.0, 2.0, 0.0]),
            &Vector::from_slice(&[1.0, 0.0]),
        );
        assert!((x1[0] - 1.1).abs() < 1e-12);
        assert_eq!(x1[1], 2.0);
        assert_eq!(x1[2], 0.0);
    }

    #[test]
    fn steering_turns_the_car() {
        let b = car();
        let x1 = b.step(
            &Vector::from_slice(&[0.0, 0.0, 0.0]),
            &Vector::from_slice(&[0.5, 0.3]),
        );
        let expected_dtheta = 0.5 / 0.257 * 0.3f64.tan() * 0.1;
        assert!((x1[2] - expected_dtheta).abs() < 1e-12);
    }

    #[test]
    fn steering_is_clamped_at_mechanical_stop() {
        let b = car();
        let sane = b.step(
            &Vector::from_slice(&[0.0, 0.0, 0.0]),
            &Vector::from_slice(&[0.5, 10.0]), // corrupted command
        );
        let at_stop = b.step(
            &Vector::from_slice(&[0.0, 0.0, 0.0]),
            &Vector::from_slice(&[0.5, 0.45]),
        );
        assert_eq!(sane.as_slice(), at_stop.as_slice());
    }

    #[test]
    fn jacobians_match_numeric_inside_clamp() {
        let b = car();
        for &(theta, v, delta) in &[(0.0, 0.3, 0.1), (1.2, 0.6, -0.3), (-2.0, 0.1, 0.44)] {
            let x = Vector::from_slice(&[0.5, 0.5, theta]);
            let u = Vector::from_slice(&[v, delta]);
            assert_jacobians_match(&b, &x, &u, 1e-5);
            assert_into_variants_match(&b, &x, &u);
        }
    }

    #[test]
    fn reverse_driving_works() {
        let b = car();
        let x1 = b.step(
            &Vector::from_slice(&[0.0, 0.0, 0.0]),
            &Vector::from_slice(&[-0.5, 0.0]),
        );
        assert!(x1[0] < 0.0);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Bicycle::new(0.0, 0.45, 0.1).is_err());
        assert!(Bicycle::new(0.257, 0.0, 0.1).is_err());
        assert!(Bicycle::new(0.257, 1.6, 0.1).is_err()); // ≥ π/2
        assert!(Bicycle::new(0.257, 0.45, 0.0).is_err());
    }

    #[test]
    fn metadata() {
        let b = car();
        assert_eq!(b.state_dim(), 3);
        assert_eq!(b.input_dim(), 2);
        assert_eq!(b.name(), "bicycle");
        assert_eq!(b.wheelbase(), 0.257);
        assert_eq!(b.max_steer(), 0.45);
        assert_eq!(b.dt(), 0.1);
    }
}
