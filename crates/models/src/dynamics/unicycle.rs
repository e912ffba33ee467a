use roboads_linalg::{Matrix, Vector};

use crate::angle::wrap_angle;
use crate::dynamics::DynamicsModel;
use crate::{ModelError, Result};

/// Plain unicycle kinematics: state `(x, y, θ)`, input `u = (v, ω)`.
///
/// Not one of the paper's evaluation robots, but the simplest nonlinear
/// model with the same structure — used by the test suite, by the
/// `custom_robot` example, and as the reference model for the
/// NUISE-vs-EKF equivalence checks.
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::dynamics::Unicycle;
/// use roboads_models::DynamicsModel;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let uni = Unicycle::new(0.1)?;
/// let x1 = uni.step(
///     &Vector::from_slice(&[0.0, 0.0, 0.0]),
///     &Vector::from_slice(&[1.0, 0.5]),
/// );
/// assert!((x1[2] - 0.05).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unicycle {
    dt: f64,
}

impl Unicycle {
    /// Creates the model with control period `dt` seconds.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive `dt`.
    pub fn new(dt: f64) -> Result<Self> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "dt",
                value: format!("{dt}"),
            });
        }
        Ok(Unicycle { dt })
    }

    /// Control period in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }
}

impl DynamicsModel for Unicycle {
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
        "unicycle"
    }

    fn step(&self, x: &Vector, u: &Vector) -> Vector {
        assert_eq!(x.len(), 3, "unicycle expects a 3-state");
        assert_eq!(u.len(), 2, "unicycle expects (v, omega)");
        let theta = x[2];
        Vector::from_slice(&[
            x[0] + u[0] * theta.cos() * self.dt,
            x[1] + u[0] * theta.sin() * self.dt,
            wrap_angle(theta + u[1] * self.dt),
        ])
    }

    fn state_jacobian(&self, x: &Vector, u: &Vector) -> Matrix {
        let theta = x[2];
        Matrix::from_rows(&[
            &[1.0, 0.0, -u[0] * theta.sin() * self.dt],
            &[0.0, 1.0, u[0] * theta.cos() * self.dt],
            &[0.0, 0.0, 1.0],
        ])
        .expect("static shape")
    }

    fn input_jacobian(&self, x: &Vector, _u: &Vector) -> Matrix {
        let theta = x[2];
        Matrix::from_rows(&[
            &[theta.cos() * self.dt, 0.0],
            &[theta.sin() * self.dt, 0.0],
            &[0.0, self.dt],
        ])
        .expect("static shape")
    }

    fn step_into(&self, x: &Vector, u: &Vector, out: &mut Vector) {
        assert_eq!(x.len(), 3, "unicycle expects a 3-state");
        assert_eq!(u.len(), 2, "unicycle expects (v, omega)");
        let theta = x[2];
        out[0] = x[0] + u[0] * theta.cos() * self.dt;
        out[1] = x[1] + u[0] * theta.sin() * self.dt;
        out[2] = wrap_angle(theta + u[1] * self.dt);
    }

    fn state_jacobian_into(&self, x: &Vector, u: &Vector, out: &mut Matrix) {
        let theta = x[2];
        out.as_mut_slice().copy_from_slice(&[
            1.0,
            0.0,
            -u[0] * theta.sin() * self.dt,
            0.0,
            1.0,
            u[0] * theta.cos() * self.dt,
            0.0,
            0.0,
            1.0,
        ]);
    }

    fn input_jacobian_into(&self, x: &Vector, _u: &Vector, out: &mut Matrix) {
        let theta = x[2];
        out.as_mut_slice().copy_from_slice(&[
            theta.cos() * self.dt,
            0.0,
            theta.sin() * self.dt,
            0.0,
            0.0,
            self.dt,
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::test_support::{assert_into_variants_match, assert_jacobians_match};

    #[test]
    fn circular_trajectory_closes() {
        // v = r·ω around a circle; after 2π/ω seconds the pose returns.
        let dt = 0.001;
        let uni = Unicycle::new(dt).unwrap();
        let omega = 1.0;
        let steps = (2.0 * std::f64::consts::PI / omega / dt).round() as usize;
        let mut x = Vector::from_slice(&[1.0, 0.0, std::f64::consts::FRAC_PI_2]);
        let u = Vector::from_slice(&[1.0, omega]);
        for _ in 0..steps {
            x = uni.step(&x, &u);
        }
        assert!((x[0] - 1.0).abs() < 0.01, "x = {}", x[0]);
        assert!(x[1].abs() < 0.01, "y = {}", x[1]);
    }

    #[test]
    fn jacobians_match_numeric() {
        let uni = Unicycle::new(0.1).unwrap();
        let x = Vector::from_slice(&[0.2, -0.8, 1.1]);
        let u = Vector::from_slice(&[0.4, -0.6]);
        assert_jacobians_match(&uni, &x, &u, 1e-6);
        assert_into_variants_match(&uni, &x, &u);
    }

    #[test]
    fn rejects_bad_dt() {
        assert!(Unicycle::new(0.0).is_err());
        assert!(Unicycle::new(f64::INFINITY).is_err());
    }
}
