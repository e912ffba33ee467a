use roboads_linalg::{Matrix, Vector};

use crate::sensors::SensorModel;
use crate::{ModelError, Result};

/// Range-beacon sensor: distances to fixed anchors (UWB/acoustic
/// beacon positioning).
///
/// This is the suite's genuinely *nonlinear* measurement model —
/// `h_i(x) = ‖(x, y) − b_i‖` with state-dependent Jacobian rows
/// `[(x−bᵢₓ)/dᵢ, (y−bᵢᵧ)/dᵢ, 0]` — exercising the nonlinearity RoboADS
/// claims to handle in `h(·)`, where the built-in IPS/encoder/LiDAR
/// workflows are affine in the state. Three non-collinear beacons make
/// the position observable; the heading needs motion or a companion
/// sensor (§VI grouping).
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::sensors::BeaconRange;
/// use roboads_models::SensorModel;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let beacons = BeaconRange::new(vec![(0.0, 0.0), (4.0, 0.0), (0.0, 4.0)], 0.02)?;
/// let z = beacons.measure(&Vector::from_slice(&[3.0, 4.0, 0.7]));
/// assert!((z[0] - 5.0).abs() < 1e-12); // 3-4-5 triangle to the origin
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BeaconRange {
    beacons: Vec<(f64, f64)>,
    range_std: f64,
}

/// Minimum robot–beacon distance used in the Jacobian to avoid the
/// singularity at a beacon's exact position.
const MIN_RANGE: f64 = 1e-6;

impl BeaconRange {
    /// Creates the sensor from anchor positions (m) and the per-range
    /// noise standard deviation (m).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for an empty anchor
    /// list, non-finite anchors, or non-positive noise.
    pub fn new(beacons: Vec<(f64, f64)>, range_std: f64) -> Result<Self> {
        if beacons.is_empty() {
            return Err(ModelError::InvalidParameter {
                name: "beacons",
                value: "empty anchor list".into(),
            });
        }
        if beacons
            .iter()
            .any(|(x, y)| !x.is_finite() || !y.is_finite())
        {
            return Err(ModelError::InvalidParameter {
                name: "beacons",
                value: "non-finite anchor".into(),
            });
        }
        if !(range_std.is_finite() && range_std > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "range_std",
                value: format!("{range_std}"),
            });
        }
        Ok(BeaconRange { beacons, range_std })
    }

    /// The anchor positions.
    pub fn beacons(&self) -> &[(f64, f64)] {
        &self.beacons
    }

    /// Range noise standard deviation (m).
    pub fn range_std(&self) -> f64 {
        self.range_std
    }
}

impl SensorModel for BeaconRange {
    fn dim(&self) -> usize {
        self.beacons.len()
    }

    fn name(&self) -> &str {
        "beacon-range"
    }

    fn measure(&self, x: &Vector) -> Vector {
        assert!(x.len() >= 2, "beacon range expects a planar state");
        Vector::from_fn(self.beacons.len(), |i| {
            let (bx, by) = self.beacons[i];
            ((x[0] - bx).powi(2) + (x[1] - by).powi(2)).sqrt()
        })
    }

    fn jacobian(&self, x: &Vector) -> Matrix {
        Matrix::from_fn(self.beacons.len(), x.len(), |i, j| {
            let (bx, by) = self.beacons[i];
            let d = (((x[0] - bx).powi(2) + (x[1] - by).powi(2)).sqrt()).max(MIN_RANGE);
            match j {
                0 => (x[0] - bx) / d,
                1 => (x[1] - by) / d,
                _ => 0.0,
            }
        })
    }

    fn noise_covariance(&self) -> Matrix {
        let v = self.range_std * self.range_std;
        Matrix::from_diagonal(&vec![v; self.beacons.len()])
    }

    fn measure_into(&self, x: &Vector, out: &mut [f64]) {
        assert!(x.len() >= 2, "beacon range expects a planar state");
        for (i, &(bx, by)) in self.beacons.iter().enumerate() {
            out[i] = ((x[0] - bx).powi(2) + (x[1] - by).powi(2)).sqrt();
        }
    }

    fn jacobian_into(&self, x: &Vector, out: &mut Matrix, row_offset: usize) {
        for (i, &(bx, by)) in self.beacons.iter().enumerate() {
            let d = (((x[0] - bx).powi(2) + (x[1] - by).powi(2)).sqrt()).max(MIN_RANGE);
            for j in 0..x.len() {
                out[(row_offset + i, j)] = match j {
                    0 => (x[0] - bx) / d,
                    1 => (x[1] - by) / d,
                    _ => 0.0,
                };
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
        assert_sensor_into_variants_match(&triangle(), &Vector::from_slice(&[0.4, 0.3, 0.1]));
    }

    fn triangle() -> BeaconRange {
        BeaconRange::new(vec![(0.0, 0.0), (4.0, 0.0), (2.0, 4.0)], 0.02).unwrap()
    }

    #[test]
    fn ranges_are_euclidean_distances() {
        let b = triangle();
        let z = b.measure(&Vector::from_slice(&[2.0, 0.0, 1.0]));
        assert!((z[0] - 2.0).abs() < 1e-12);
        assert!((z[1] - 2.0).abs() < 1e-12);
        assert!((z[2] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn nonlinear_jacobian_matches_numeric_everywhere() {
        let b = triangle();
        for &(x, y, theta) in &[(1.0, 1.0, 0.0), (3.5, 0.5, 1.2), (0.3, 3.9, -2.0)] {
            assert_sensor_jacobian_matches(&b, &Vector::from_slice(&[x, y, theta]), 1e-5);
        }
        assert_noise_covariance_valid(&b);
    }

    #[test]
    fn jacobian_rows_are_unit_direction_vectors() {
        let b = triangle();
        let x = Vector::from_slice(&[1.7, 2.3, 0.4]);
        let c = b.jacobian(&x);
        for i in 0..3 {
            let norm = (c[(i, 0)].powi(2) + c[(i, 1)].powi(2)).sqrt();
            assert!((norm - 1.0).abs() < 1e-12, "row {i} norm {norm}");
            assert_eq!(c[(i, 2)], 0.0, "heading column must be zero");
        }
    }

    #[test]
    fn jacobian_survives_standing_on_a_beacon() {
        let b = triangle();
        let c = b.jacobian(&Vector::from_slice(&[0.0, 0.0, 0.0]));
        assert!(c.is_finite());
    }

    #[test]
    fn validation() {
        assert!(BeaconRange::new(vec![], 0.02).is_err());
        assert!(BeaconRange::new(vec![(0.0, f64::NAN)], 0.02).is_err());
        assert!(BeaconRange::new(vec![(0.0, 0.0)], 0.0).is_err());
        let single = BeaconRange::new(vec![(1.0, 1.0)], 0.02).unwrap();
        assert_eq!(single.dim(), 1);
        assert_eq!(single.name(), "beacon-range");
        assert_eq!(single.beacons().len(), 1);
        assert_eq!(single.range_std(), 0.02);
    }
}
