use roboads_linalg::{Matrix, Vector};

use crate::angle::wrap_angle;
use crate::dynamics::DynamicsModel;
use crate::{ModelError, Result};

/// Omnidirectional (mecanum/holonomic) kinematics: state `(x, y, θ)`,
/// input `u = (v_x, v_y, ω)` with the translational velocities in the
/// *body* frame.
///
/// Not one of the paper's robots, but it rounds out the library with a
/// three-channel actuator: with `q = 3`, a single full-pose reference
/// sensor has `C₂G` square and invertible, so NUISE can attribute an
/// anomaly to any individual actuator channel — the warehouse-robot
/// configuration the paper's introduction motivates.
///
/// ```text
/// x_k = x + (v_x·cosθ − v_y·sinθ)·Δt
/// y_k = y + (v_x·sinθ + v_y·cosθ)·Δt
/// θ_k = wrap(θ + ω·Δt)
/// ```
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::dynamics::Omnidirectional;
/// use roboads_models::DynamicsModel;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let omni = Omnidirectional::new(0.1)?;
/// // Pure sideways motion while facing +x.
/// let x1 = omni.step(
///     &Vector::from_slice(&[0.0, 0.0, 0.0]),
///     &Vector::from_slice(&[0.0, 0.5, 0.0]),
/// );
/// assert_eq!(x1[0], 0.0);
/// assert!((x1[1] - 0.05).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Omnidirectional {
    dt: f64,
}

impl Omnidirectional {
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
        Ok(Omnidirectional { dt })
    }

    /// Control period in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }
}

impl DynamicsModel for Omnidirectional {
    fn state_dim(&self) -> usize {
        3
    }

    fn input_dim(&self) -> usize {
        3
    }

    fn angular_state_components(&self) -> &[usize] {
        &[2]
    }

    fn name(&self) -> &str {
        "omnidirectional"
    }

    fn step(&self, x: &Vector, u: &Vector) -> Vector {
        assert_eq!(x.len(), 3, "omnidirectional expects a 3-state");
        assert_eq!(u.len(), 3, "omnidirectional expects (vx, vy, omega)");
        let (c, s) = (x[2].cos(), x[2].sin());
        Vector::from_slice(&[
            x[0] + (u[0] * c - u[1] * s) * self.dt,
            x[1] + (u[0] * s + u[1] * c) * self.dt,
            wrap_angle(x[2] + u[2] * self.dt),
        ])
    }

    fn state_jacobian(&self, x: &Vector, u: &Vector) -> Matrix {
        let (c, s) = (x[2].cos(), x[2].sin());
        Matrix::from_rows(&[
            &[1.0, 0.0, (-u[0] * s - u[1] * c) * self.dt],
            &[0.0, 1.0, (u[0] * c - u[1] * s) * self.dt],
            &[0.0, 0.0, 1.0],
        ])
        .expect("static shape")
    }

    fn input_jacobian(&self, x: &Vector, _u: &Vector) -> Matrix {
        let (c, s) = (x[2].cos(), x[2].sin());
        Matrix::from_rows(&[
            &[c * self.dt, -s * self.dt, 0.0],
            &[s * self.dt, c * self.dt, 0.0],
            &[0.0, 0.0, self.dt],
        ])
        .expect("static shape")
    }

    fn step_into(&self, x: &Vector, u: &Vector, out: &mut Vector) {
        assert_eq!(x.len(), 3, "omnidirectional expects a 3-state");
        assert_eq!(u.len(), 3, "omnidirectional expects (vx, vy, omega)");
        let (c, s) = (x[2].cos(), x[2].sin());
        out[0] = x[0] + (u[0] * c - u[1] * s) * self.dt;
        out[1] = x[1] + (u[0] * s + u[1] * c) * self.dt;
        out[2] = wrap_angle(x[2] + u[2] * self.dt);
    }

    fn state_jacobian_into(&self, x: &Vector, u: &Vector, out: &mut Matrix) {
        let (c, s) = (x[2].cos(), x[2].sin());
        out.as_mut_slice().copy_from_slice(&[
            1.0,
            0.0,
            (-u[0] * s - u[1] * c) * self.dt,
            0.0,
            1.0,
            (u[0] * c - u[1] * s) * self.dt,
            0.0,
            0.0,
            1.0,
        ]);
    }

    fn input_jacobian_into(&self, x: &Vector, _u: &Vector, out: &mut Matrix) {
        let (c, s) = (x[2].cos(), x[2].sin());
        out.as_mut_slice().copy_from_slice(&[
            c * self.dt,
            -s * self.dt,
            0.0,
            s * self.dt,
            c * self.dt,
            0.0,
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
    fn body_frame_motion_rotates_with_heading() {
        let omni = Omnidirectional::new(0.1).unwrap();
        // Facing +y, body-forward motion moves along world +y.
        let x1 = omni.step(
            &Vector::from_slice(&[0.0, 0.0, std::f64::consts::FRAC_PI_2]),
            &Vector::from_slice(&[0.5, 0.0, 0.0]),
        );
        assert!(x1[0].abs() < 1e-12);
        assert!((x1[1] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn holonomic_diagonal_translation_with_spin() {
        let omni = Omnidirectional::new(0.1).unwrap();
        let x1 = omni.step(
            &Vector::from_slice(&[1.0, 1.0, 0.0]),
            &Vector::from_slice(&[0.3, 0.4, 1.0]),
        );
        assert!((x1[0] - 1.03).abs() < 1e-12);
        assert!((x1[1] - 1.04).abs() < 1e-12);
        assert!((x1[2] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn jacobians_match_numeric() {
        let omni = Omnidirectional::new(0.1).unwrap();
        for &theta in &[0.0, 0.9, -2.4] {
            assert_jacobians_match(
                &omni,
                &Vector::from_slice(&[0.4, -0.2, theta]),
                &Vector::from_slice(&[0.2, -0.1, 0.6]),
                1e-6,
            );
            assert_into_variants_match(
                &omni,
                &Vector::from_slice(&[0.4, -0.2, theta]),
                &Vector::from_slice(&[0.2, -0.1, 0.6]),
            );
        }
    }

    #[test]
    fn input_jacobian_is_invertible() {
        // q = 3 with a full-pose sensor: C₂G square and invertible, so a
        // three-channel actuator anomaly is fully attributable.
        let omni = Omnidirectional::new(0.1).unwrap();
        let g = omni.input_jacobian(&Vector::from_slice(&[0.0, 0.0, 0.7]), &Vector::zeros(3));
        assert!(g.determinant().unwrap().abs() > 1e-6);
    }

    #[test]
    fn rejects_bad_dt() {
        assert!(Omnidirectional::new(0.0).is_err());
    }
}
