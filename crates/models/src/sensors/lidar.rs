use roboads_linalg::{Matrix, Vector};

use crate::environment::Arena;
use crate::sensors::SensorModel;
use crate::{ModelError, Result};

/// LiDAR sensing workflow: a 240° scan reduced by a wall-extraction
/// utility process to `(d_west, d_south, d_east, θ)`.
///
/// The Khepera III carries a Hokuyo-class laser range finder; the paper's
/// sensing workflow processes the raw scan into "distances to three walls
/// and θ" (Figure 6, plot 3: components `d_L^{s,1..3}` and `θ`). In a
/// rectangular arena of width `W` the extracted planner-visible reading
/// is smooth in the state:
///
/// ```text
/// h_LiDAR(x) = (x, y, W − x, θ)
/// ```
///
/// (perpendicular distance to the west, south and east walls, plus the
/// scan-matching heading). The raw 240° scan itself is available through
/// [`WallLidar::simulate_scan`] so the simulation substrate can attack
/// the workflow *before* wall extraction (scenario #6's DoS zeroes the
/// raw scan; scenario #7's blocking corrupts individual beams).
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_models::sensors::WallLidar;
/// use roboads_models::{Arena, SensorModel};
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let lidar = WallLidar::new(Arena::new(4.0, 4.0)?, 0.015, 0.02)?;
/// let z = lidar.measure(&Vector::from_slice(&[1.0, 2.5, 0.3]));
/// assert_eq!(z.as_slice(), &[1.0, 2.5, 3.0, 0.3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WallLidar {
    arena: Arena,
    range_std: f64,
    heading_std: f64,
}

/// Number of beams in the simulated raw scan (240° field of view).
pub const SCAN_BEAMS: usize = 241;

/// Field of view of the simulated scan, radians (±120°).
pub const SCAN_FOV: f64 = 240.0 * std::f64::consts::PI / 180.0;

impl WallLidar {
    /// Creates a wall-extraction LiDAR for the given arena with range (m)
    /// and heading (rad) noise standard deviations.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive noise.
    pub fn new(arena: Arena, range_std: f64, heading_std: f64) -> Result<Self> {
        for (name, v) in [("range_std", range_std), ("heading_std", heading_std)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ModelError::InvalidParameter {
                    name,
                    value: format!("{v}"),
                });
            }
        }
        Ok(WallLidar {
            arena,
            range_std,
            heading_std,
        })
    }

    /// The arena the sensor operates in.
    pub fn arena(&self) -> &Arena {
        &self.arena
    }

    /// Range noise standard deviation (m).
    pub fn range_std(&self) -> f64 {
        self.range_std
    }

    /// A copy with scaled noise (§V-E quality sweep).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive factors.
    pub fn with_quality_factor(&self, factor: f64) -> Result<Self> {
        WallLidar::new(
            self.arena.clone(),
            self.range_std * factor,
            self.heading_std * factor,
        )
    }

    /// Simulates the raw 240° scan (noiseless): [`SCAN_BEAMS`] ranges,
    /// beam `i` at robot-frame angle `−120° + i·1°`. Returns `None` when
    /// the pose is outside the arena (no return signal).
    pub fn simulate_scan(&self, x: &Vector) -> Option<Vec<f64>> {
        let theta = x[2];
        let mut scan = Vec::with_capacity(SCAN_BEAMS);
        for i in 0..SCAN_BEAMS {
            let beam = -SCAN_FOV / 2.0 + SCAN_FOV * i as f64 / (SCAN_BEAMS - 1) as f64;
            let hit = self.arena.raycast(x[0], x[1], theta + beam)?;
            scan.push(hit.distance);
        }
        Some(scan)
    }
}

impl SensorModel for WallLidar {
    fn dim(&self) -> usize {
        4
    }

    fn name(&self) -> &str {
        "lidar"
    }

    fn measure(&self, x: &Vector) -> Vector {
        assert!(x.len() >= 3, "lidar expects a pose state");
        Vector::from_slice(&[x[0], x[1], self.arena.width() - x[0], x[2]])
    }

    fn jacobian(&self, _x: &Vector) -> Matrix {
        Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[-1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0],
        ])
        .expect("static shape")
    }

    fn noise_covariance(&self) -> Matrix {
        let r2 = self.range_std * self.range_std;
        Matrix::from_diagonal(&[r2, r2, r2, self.heading_std * self.heading_std])
    }

    fn angular_components(&self) -> &[usize] {
        &[3]
    }

    fn measure_into(&self, x: &Vector, out: &mut [f64]) {
        assert!(x.len() >= 3, "lidar expects a pose state");
        out[0] = x[0];
        out[1] = x[1];
        out[2] = self.arena.width() - x[0];
        out[3] = x[2];
    }

    fn jacobian_into(&self, _x: &Vector, out: &mut Matrix, row_offset: usize) {
        const ROWS: [[f64; 3]; 4] = [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ];
        for (i, row) in ROWS.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                out[(row_offset + i, j)] = *v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::environment::Aabb;
    use crate::sensors::test_support::{
        assert_noise_covariance_valid, assert_sensor_into_variants_match,
        assert_sensor_jacobian_matches,
    };

    #[test]
    fn into_variants_match() {
        let lidar = WallLidar::new(Arena::new(4.0, 4.0).unwrap(), 0.015, 0.02).unwrap();
        assert_sensor_into_variants_match(&lidar, &Vector::from_slice(&[0.5, 0.6, 0.7]));
    }

    fn lidar() -> WallLidar {
        WallLidar::new(Arena::new(4.0, 4.0).unwrap(), 0.015, 0.02).unwrap()
    }

    #[test]
    fn extracted_distances_are_wall_distances() {
        let l = lidar();
        let z = l.measure(&Vector::from_slice(&[1.5, 0.5, -0.3]));
        assert_eq!(z.as_slice(), &[1.5, 0.5, 2.5, -0.3]);
    }

    #[test]
    fn jacobian_and_noise() {
        let l = lidar();
        assert_sensor_jacobian_matches(&l, &Vector::from_slice(&[2.0, 2.0, 0.7]), 1e-6);
        assert_noise_covariance_valid(&l);
        assert_eq!(l.angular_components(), &[3]);
    }

    #[test]
    fn raw_scan_geometry() {
        let l = lidar();
        // Robot at center facing east: center beam hits east wall (2 m).
        let scan = l
            .simulate_scan(&Vector::from_slice(&[2.0, 2.0, 0.0]))
            .unwrap();
        assert_eq!(scan.len(), SCAN_BEAMS);
        let center = scan[SCAN_BEAMS / 2];
        assert!((center - 2.0).abs() < 1e-9);
        // All ranges positive and bounded by the arena diagonal.
        let diag = (32.0f64).sqrt();
        assert!(scan.iter().all(|&d| d > 0.0 && d <= diag + 1e-9));
    }

    #[test]
    fn scan_sees_obstacles() {
        let arena = Arena::new(4.0, 4.0)
            .unwrap()
            .with_obstacle(Aabb::new(2.5, 1.8, 3.0, 2.2).unwrap())
            .unwrap();
        let l = WallLidar::new(arena, 0.015, 0.02).unwrap();
        let scan = l
            .simulate_scan(&Vector::from_slice(&[1.0, 2.0, 0.0]))
            .unwrap();
        let center = scan[SCAN_BEAMS / 2];
        assert!((center - 1.5).abs() < 1e-9, "beam should stop at obstacle");
    }

    #[test]
    fn scan_outside_arena_is_none() {
        let l = lidar();
        assert!(l
            .simulate_scan(&Vector::from_slice(&[-1.0, 0.0, 0.0]))
            .is_none());
    }

    #[test]
    fn quality_factor_and_validation() {
        let l = lidar();
        let worse = l.with_quality_factor(3.0).unwrap();
        assert!(worse.range_std() > l.range_std());
        assert!(WallLidar::new(Arena::new(4.0, 4.0).unwrap(), 0.0, 0.02).is_err());
    }
}
