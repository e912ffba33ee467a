use roboads_linalg::{Matrix, Vector};

use crate::sensors::SensorModel;
use crate::{ModelError, Result};

/// Wheel-encoder odometry workflow: per-wheel tick counters integrated by
/// a utility process into a pose estimate `(x, y, θ)`.
///
/// The Khepera III's encoder workflow counts motor shaft ticks; the
/// paper's utility process dead-reckons those into pose space — its Figure
/// 6 shows wheel-encoder *sensor anomaly components on x, y and θ*, i.e.
/// the planner-visible reading is a pose. We model the workflow output as
/// a pose measurement with odometry-grade noise (larger than IPS), and
/// expose the tick geometry so the simulation can inject the paper's
/// tick-level attack ("increment 100 steps on left wheel encoder",
/// scenario #5) at the exact point in the workflow where it acts.
///
/// The substitution from drifting dead-reckoning to a bounded-noise pose
/// measurement is documented in `DESIGN.md`: the physical Khepera
/// re-anchors odometry against the planner state each control iteration,
/// which bounds the drift to per-iteration noise.
///
/// # Example
///
/// ```
/// use roboads_models::sensors::WheelEncoderOdometry;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let enc = WheelEncoderOdometry::khepera()?;
/// // Scenario #5's 100-tick increment is worth about 3.7 cm of travel.
/// let meters = enc.ticks_to_meters(100.0);
/// assert!(meters > 0.03 && meters < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WheelEncoderOdometry {
    position_std: f64,
    heading_std: f64,
    /// Encoder ticks per wheel revolution.
    ticks_per_rev: f64,
    /// Wheel radius in meters.
    wheel_radius: f64,
    /// Wheel base in meters (needed to map tick deltas to heading).
    wheel_base: f64,
}

impl WheelEncoderOdometry {
    /// Creates an encoder-odometry workflow model.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive values.
    pub fn new(
        position_std: f64,
        heading_std: f64,
        ticks_per_rev: f64,
        wheel_radius: f64,
        wheel_base: f64,
    ) -> Result<Self> {
        for (name, v) in [
            ("position_std", position_std),
            ("heading_std", heading_std),
            ("ticks_per_rev", ticks_per_rev),
            ("wheel_radius", wheel_radius),
            ("wheel_base", wheel_base),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ModelError::InvalidParameter {
                    name,
                    value: format!("{v}"),
                });
            }
        }
        Ok(WheelEncoderOdometry {
            position_std,
            heading_std,
            ticks_per_rev,
            wheel_radius,
            wheel_base,
        })
    }

    /// The Khepera encoder geometry used throughout the evaluation:
    /// 360 quadrature-decoded ticks per wheel revolution, 21 mm wheels,
    /// 88.5 mm wheel base, with odometry-grade pose noise.
    ///
    /// With this resolution the paper's scenario-#5 attack ("increment
    /// 100 steps on left wheel encoder") is worth ≈ 3.7 cm of phantom
    /// wheel travel — the same order as the paper's IPS shift attacks,
    /// matching its sub-second detection of the scenario.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; the `Result` mirrors
    /// [`WheelEncoderOdometry::new`].
    pub fn khepera() -> Result<Self> {
        WheelEncoderOdometry::new(0.005, 0.008, 360.0, 0.021, 0.0885)
    }

    /// Linear wheel travel represented by a tick count.
    pub fn ticks_to_meters(&self, ticks: f64) -> f64 {
        ticks / self.ticks_per_rev * 2.0 * std::f64::consts::PI * self.wheel_radius
    }

    /// Pose-space corruption produced by a constant per-reading tick bias
    /// on the two wheels, at heading `theta`.
    ///
    /// A tick bias `(Δn_L, Δn_R)` shifts the integrated odometry by
    /// `Δs = (Δs_L + Δs_R)/2` along the heading and by
    /// `Δθ = (Δs_R − Δs_L)/b`, which is how scenario #5's attack enters
    /// the planner-visible reading.
    pub fn tick_bias_to_pose_bias(&self, left_ticks: f64, right_ticks: f64, theta: f64) -> Vector {
        let dl = self.ticks_to_meters(left_ticks);
        let dr = self.ticks_to_meters(right_ticks);
        let ds = 0.5 * (dl + dr);
        let dtheta = (dr - dl) / self.wheel_base;
        Vector::from_slice(&[ds * theta.cos(), ds * theta.sin(), dtheta])
    }

    /// Position noise standard deviation (m).
    pub fn position_std(&self) -> f64 {
        self.position_std
    }

    /// A copy with every noise standard deviation scaled by `factor`
    /// (§V-E quality sweep).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive factors.
    pub fn with_quality_factor(&self, factor: f64) -> Result<Self> {
        WheelEncoderOdometry::new(
            self.position_std * factor,
            self.heading_std * factor,
            self.ticks_per_rev,
            self.wheel_radius,
            self.wheel_base,
        )
    }
}

impl SensorModel for WheelEncoderOdometry {
    fn dim(&self) -> usize {
        3
    }

    fn name(&self) -> &str {
        "wheel-encoder"
    }

    fn measure(&self, x: &Vector) -> Vector {
        assert!(x.len() >= 3, "wheel encoder expects a pose state");
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
        assert!(x.len() >= 3, "wheel encoder expects a pose state");
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
        let enc = WheelEncoderOdometry::khepera().unwrap();
        assert_sensor_into_variants_match(&enc, &Vector::from_slice(&[1.0, 1.0, 0.3]));
    }

    #[test]
    fn khepera_geometry_is_valid() {
        let enc = WheelEncoderOdometry::khepera().unwrap();
        assert_eq!(enc.dim(), 3);
        assert_eq!(enc.name(), "wheel-encoder");
        assert_noise_covariance_valid(&enc);
        assert_sensor_jacobian_matches(&enc, &Vector::from_slice(&[1.0, 1.0, 0.3]), 1e-6);
    }

    #[test]
    fn tick_conversion_scales_with_geometry() {
        let enc = WheelEncoderOdometry::khepera().unwrap();
        let one_rev = enc.ticks_to_meters(360.0);
        assert!((one_rev - 2.0 * std::f64::consts::PI * 0.021).abs() < 1e-12);
    }

    #[test]
    fn symmetric_tick_bias_moves_along_heading() {
        let enc = WheelEncoderOdometry::khepera().unwrap();
        let bias = enc.tick_bias_to_pose_bias(100.0, 100.0, 0.0);
        assert!(bias[0] > 0.0);
        assert_eq!(bias[1], 0.0);
        assert_eq!(bias[2], 0.0);
    }

    #[test]
    fn asymmetric_tick_bias_rotates() {
        let enc = WheelEncoderOdometry::khepera().unwrap();
        let bias = enc.tick_bias_to_pose_bias(100.0, 0.0, 0.0);
        // Left wheel over-counts → odometry thinks it turned clockwise.
        assert!(bias[2] < 0.0);
        // And reports some forward travel.
        assert!(bias[0] > 0.0);
    }

    #[test]
    fn quality_factor() {
        let enc = WheelEncoderOdometry::khepera().unwrap();
        let better = enc.with_quality_factor(0.5).unwrap();
        assert!(better.position_std() < enc.position_std());
        assert!(enc.with_quality_factor(-1.0).is_err());
    }

    #[test]
    fn rejects_invalid_geometry() {
        assert!(WheelEncoderOdometry::new(0.01, 0.01, 0.0, 0.02, 0.09).is_err());
        assert!(WheelEncoderOdometry::new(0.01, 0.01, 100.0, -0.02, 0.09).is_err());
    }
}
