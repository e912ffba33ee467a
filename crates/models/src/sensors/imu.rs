use roboads_linalg::{Matrix, Vector};

use crate::sensors::SensorModel;
use crate::{ModelError, Result};

/// IMU inertial-navigation workflow: pose `(x, y, θ)` from integrated
/// inertial data — the Tamiya RC car's third sensor (§V-D).
///
/// The paper states the Tamiya's IMU "provides inertial navigation data
/// of the car during movement". For the NUISE reference-sensor role the
/// workflow output must make the pose state observable, so we model the
/// planner-visible reading as the inertial-navigation pose solution with
/// noise substantially larger than the IPS (documented substitution in
/// `DESIGN.md`; drift is bounded per-iteration by the on-planner
/// re-anchoring, as with the wheel-encoder workflow).
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::sensors::InertialNav;
/// use roboads_models::SensorModel;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let imu = InertialNav::new(0.008, 0.004)?;
/// let z = imu.measure(&Vector::from_slice(&[0.5, 0.5, 1.0]));
/// assert_eq!(z.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InertialNav {
    position_std: f64,
    heading_std: f64,
}

impl InertialNav {
    /// Creates an inertial-navigation workflow with the given position
    /// (m) and heading (rad) noise standard deviations.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive values.
    pub fn new(position_std: f64, heading_std: f64) -> Result<Self> {
        for (name, v) in [("position_std", position_std), ("heading_std", heading_std)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ModelError::InvalidParameter {
                    name,
                    value: format!("{v}"),
                });
            }
        }
        Ok(InertialNav {
            position_std,
            heading_std,
        })
    }

    /// Position noise standard deviation (m).
    pub fn position_std(&self) -> f64 {
        self.position_std
    }

    /// A copy with scaled noise (§V-E quality sweep).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive factors.
    pub fn with_quality_factor(&self, factor: f64) -> Result<Self> {
        InertialNav::new(self.position_std * factor, self.heading_std * factor)
    }
}

impl SensorModel for InertialNav {
    fn dim(&self) -> usize {
        3
    }

    fn name(&self) -> &str {
        "imu"
    }

    fn measure(&self, x: &Vector) -> Vector {
        assert!(x.len() >= 3, "imu expects a pose state");
        Vector::from_slice(&[x[0], x[1], x[2]])
    }

    fn jacobian(&self, _x: &Vector) -> Matrix {
        Matrix::identity(3)
    }

    fn noise_covariance(&self) -> Matrix {
        Matrix::from_diagonal(&[
            self.position_std * self.position_std,
            self.position_std * self.position_std,
            self.heading_std * self.heading_std,
        ])
    }

    fn angular_components(&self) -> &[usize] {
        &[2]
    }

    fn measure_into(&self, x: &Vector, out: &mut [f64]) {
        assert!(x.len() >= 3, "imu expects a pose state");
        out[0] = x[0];
        out[1] = x[1];
        out[2] = x[2];
    }

    fn jacobian_into(&self, _x: &Vector, out: &mut Matrix, row_offset: usize) {
        for i in 0..3 {
            for j in 0..3 {
                out[(row_offset + i, j)] = if i == j { 1.0 } else { 0.0 };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensors::test_support::{
        assert_noise_covariance_valid, assert_sensor_into_variants_match,
        assert_sensor_jacobian_matches,
    };

    #[test]
    fn into_variants_match() {
        let imu = InertialNav::new(0.008, 0.004).unwrap();
        assert_sensor_into_variants_match(&imu, &Vector::from_slice(&[1.0, -1.0, 0.2]));
    }

    #[test]
    fn model_is_consistent() {
        let imu = InertialNav::new(0.008, 0.004).unwrap();
        assert_eq!(imu.dim(), 3);
        assert_eq!(imu.name(), "imu");
        assert_sensor_jacobian_matches(&imu, &Vector::from_slice(&[1.0, -1.0, 0.2]), 1e-6);
        assert_noise_covariance_valid(&imu);
        assert_eq!(imu.angular_components(), &[2]);
    }

    #[test]
    fn quality_and_validation() {
        let imu = InertialNav::new(0.008, 0.004).unwrap();
        assert!(imu.with_quality_factor(2.0).unwrap().position_std() > imu.position_std());
        assert!(InertialNav::new(-0.01, 0.004).is_err());
    }
}
