use roboads_linalg::{Matrix, Vector};

use crate::sensors::SensorModel;
use crate::{ModelError, Result};

/// Indoor positioning system: measures the full pose `(x, y, θ)`.
///
/// In the paper's testbed this workflow is backed by a Vicon
/// motion-capture rig (Figure 5b) tracking markers on the robot; the
/// planner receives a calibrated pose estimate. The measurement model is
/// the identity on the pose state with small Gaussian noise:
///
/// ```text
/// h_IPS(x) = (x, y, θ),   C = I₃
/// ```
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::sensors::Ips;
/// use roboads_models::SensorModel;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let ips = Ips::new(0.004, 0.006)?;
/// let z = ips.measure(&Vector::from_slice(&[1.0, 2.0, 0.5]));
/// assert_eq!(z.as_slice(), &[1.0, 2.0, 0.5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ips {
    position_std: f64,
    heading_std: f64,
}

impl Ips {
    /// Creates an IPS with the given position (m) and heading (rad) noise
    /// standard deviations.
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
        Ok(Ips {
            position_std,
            heading_std,
        })
    }

    /// Position noise standard deviation (m).
    pub fn position_std(&self) -> f64 {
        self.position_std
    }

    /// Heading noise standard deviation (rad).
    pub fn heading_std(&self) -> f64 {
        self.heading_std
    }

    /// A copy with every noise standard deviation scaled by `factor`,
    /// used by the sensor-quality sweep of §V-E.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive factors.
    pub fn with_quality_factor(&self, factor: f64) -> Result<Self> {
        Ips::new(self.position_std * factor, self.heading_std * factor)
    }
}

impl SensorModel for Ips {
    fn dim(&self) -> usize {
        3
    }

    fn name(&self) -> &str {
        "ips"
    }

    fn measure(&self, x: &Vector) -> Vector {
        assert!(x.len() >= 3, "ips expects a pose state");
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
        assert!(x.len() >= 3, "ips expects a pose state");
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
        let ips = Ips::new(0.004, 0.006).unwrap();
        assert_sensor_into_variants_match(&ips, &Vector::from_slice(&[0.3, 0.1, -0.9]));
    }

    #[test]
    fn measures_identity_on_pose() {
        let ips = Ips::new(0.004, 0.006).unwrap();
        let x = Vector::from_slice(&[0.7, -0.2, 1.4]);
        assert_eq!(ips.measure(&x), x);
    }

    #[test]
    fn jacobian_and_noise_are_consistent() {
        let ips = Ips::new(0.004, 0.006).unwrap();
        assert_sensor_jacobian_matches(&ips, &Vector::from_slice(&[0.3, 0.1, -0.9]), 1e-6);
        assert_noise_covariance_valid(&ips);
    }

    #[test]
    fn heading_component_is_angular() {
        let ips = Ips::new(0.004, 0.006).unwrap();
        assert_eq!(ips.angular_components(), &[2]);
    }

    #[test]
    fn quality_factor_scales_covariance() {
        let ips = Ips::new(0.004, 0.006).unwrap();
        let worse = ips.with_quality_factor(2.0).unwrap();
        let r = ips.noise_covariance();
        let r2 = worse.noise_covariance();
        assert!((r2[(0, 0)] - 4.0 * r[(0, 0)]).abs() < 1e-15);
        assert!(ips.with_quality_factor(0.0).is_err());
    }

    #[test]
    fn rejects_invalid_noise() {
        assert!(Ips::new(0.0, 0.006).is_err());
        assert!(Ips::new(0.004, f64::NAN).is_err());
    }
}
