use roboads_linalg::{Matrix, Vector};

use crate::sensors::SensorModel;
use crate::{ModelError, Result};

/// GPS-style position-only sensor: measures `(x, y)` but not the heading.
///
/// Used by §VI's sensor-grouping discussion: a GPS alone leaves the
/// heading unobservable and a magnetometer alone leaves the position
/// unobservable, but grouped together they reconstruct the full state.
/// The [`crate::observability`] module verifies exactly this.
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::sensors::Gps;
/// use roboads_models::SensorModel;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let gps = Gps::new(0.5)?;
/// let z = gps.measure(&Vector::from_slice(&[10.0, 20.0, 1.0]));
/// assert_eq!(z.as_slice(), &[10.0, 20.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gps {
    position_std: f64,
}

impl Gps {
    /// Creates a GPS with the given position noise standard deviation (m).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive values.
    pub fn new(position_std: f64) -> Result<Self> {
        if !(position_std.is_finite() && position_std > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "position_std",
                value: format!("{position_std}"),
            });
        }
        Ok(Gps { position_std })
    }

    /// Position noise standard deviation (m).
    pub fn position_std(&self) -> f64 {
        self.position_std
    }
}

impl SensorModel for Gps {
    fn dim(&self) -> usize {
        2
    }

    fn name(&self) -> &str {
        "gps"
    }

    fn measure(&self, x: &Vector) -> Vector {
        assert!(x.len() >= 2, "gps expects a planar state");
        Vector::from_slice(&[x[0], x[1]])
    }

    fn jacobian(&self, _x: &Vector) -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]]).expect("static shape")
    }

    fn noise_covariance(&self) -> Matrix {
        let v = self.position_std * self.position_std;
        Matrix::from_diagonal(&[v, v])
    }

    fn measure_into(&self, x: &Vector, out: &mut [f64]) {
        assert!(x.len() >= 2, "gps expects a planar state");
        out[0] = x[0];
        out[1] = x[1];
    }

    fn jacobian_into(&self, _x: &Vector, out: &mut Matrix, row_offset: usize) {
        for i in 0..2 {
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
        let gps = Gps::new(0.5).unwrap();
        assert_sensor_into_variants_match(&gps, &Vector::from_slice(&[0.0, 0.0, 0.5]));
    }

    #[test]
    fn measures_position_only() {
        let gps = Gps::new(0.5).unwrap();
        let z = gps.measure(&Vector::from_slice(&[1.0, 2.0, 3.0]));
        assert_eq!(z.len(), 2);
        assert_eq!(gps.angular_components(), &[] as &[usize]);
    }

    #[test]
    fn jacobian_and_noise() {
        let gps = Gps::new(0.5).unwrap();
        assert_sensor_jacobian_matches(&gps, &Vector::from_slice(&[0.0, 0.0, 0.5]), 1e-6);
        assert_noise_covariance_valid(&gps);
    }

    #[test]
    fn rejects_invalid() {
        assert!(Gps::new(0.0).is_err());
    }
}
