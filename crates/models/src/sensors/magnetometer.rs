use roboads_linalg::{Matrix, Vector};

use crate::sensors::SensorModel;
use crate::{ModelError, Result};

/// Magnetometer: measures the heading `θ` only.
///
/// §VI of the paper uses the magnetometer as the canonical example of a
/// sensor that cannot serve as a NUISE reference on its own ("a
/// magnetometer only measures the orientation of a robot … RoboADS fails
/// to estimate states") and must be grouped with a position sensor. The
/// mode-set builders in the core crate use [`crate::observability`] to
/// reject or group such sensors automatically.
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::sensors::Magnetometer;
/// use roboads_models::SensorModel;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let mag = Magnetometer::new(0.01)?;
/// let z = mag.measure(&Vector::from_slice(&[3.0, 4.0, 0.7]));
/// assert_eq!(z.as_slice(), &[0.7]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Magnetometer {
    heading_std: f64,
}

impl Magnetometer {
    /// Creates a magnetometer with the given heading noise standard
    /// deviation (rad).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive values.
    pub fn new(heading_std: f64) -> Result<Self> {
        if !(heading_std.is_finite() && heading_std > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "heading_std",
                value: format!("{heading_std}"),
            });
        }
        Ok(Magnetometer { heading_std })
    }

    /// Heading noise standard deviation (rad).
    pub fn heading_std(&self) -> f64 {
        self.heading_std
    }
}

impl SensorModel for Magnetometer {
    fn dim(&self) -> usize {
        1
    }

    fn name(&self) -> &str {
        "magnetometer"
    }

    fn measure(&self, x: &Vector) -> Vector {
        assert!(x.len() >= 3, "magnetometer expects a pose state");
        Vector::from_slice(&[x[2]])
    }

    fn jacobian(&self, _x: &Vector) -> Matrix {
        Matrix::from_rows(&[&[0.0, 0.0, 1.0]]).expect("static shape")
    }

    fn noise_covariance(&self) -> Matrix {
        Matrix::from_diagonal(&[self.heading_std * self.heading_std])
    }

    fn angular_components(&self) -> &[usize] {
        &[0]
    }

    fn measure_into(&self, x: &Vector, out: &mut [f64]) {
        assert!(x.len() >= 3, "magnetometer expects a pose state");
        out[0] = x[2];
    }

    fn jacobian_into(&self, _x: &Vector, out: &mut Matrix, row_offset: usize) {
        out[(row_offset, 0)] = 0.0;
        out[(row_offset, 1)] = 0.0;
        out[(row_offset, 2)] = 1.0;
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
        let mag = Magnetometer::new(0.01).unwrap();
        assert_sensor_into_variants_match(&mag, &Vector::from_slice(&[0.1, 0.2, 0.3]));
    }

    #[test]
    fn measures_heading_only() {
        let mag = Magnetometer::new(0.01).unwrap();
        assert_eq!(mag.dim(), 1);
        assert_eq!(
            mag.measure(&Vector::from_slice(&[9.0, 9.0, -1.2]))
                .as_slice(),
            &[-1.2]
        );
        assert_eq!(mag.angular_components(), &[0]);
    }

    #[test]
    fn jacobian_and_noise() {
        let mag = Magnetometer::new(0.01).unwrap();
        assert_sensor_jacobian_matches(&mag, &Vector::from_slice(&[0.1, 0.2, 0.3]), 1e-6);
        assert_noise_covariance_valid(&mag);
    }

    #[test]
    fn rejects_invalid() {
        assert!(Magnetometer::new(f64::NAN).is_err());
    }
}
