use roboads_linalg::Vector;

use crate::angle::{angle_difference, wrap_angle};

/// A planar pose: position `(x, y)` in meters and heading `θ` in radians.
///
/// Both evaluation robots of the paper carry the 3-dimensional state
/// `x = (x, y, θ)`; `Pose2` is the typed view of that state vector.
///
/// # Example
///
/// ```
/// use roboads_models::Pose2;
///
/// let p = Pose2::new(1.0, 2.0, std::f64::consts::FRAC_PI_2);
/// let v = p.to_vector();
/// assert_eq!(Pose2::from_vector(&v).unwrap(), p);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose2 {
    /// X position in meters.
    pub x: f64,
    /// Y position in meters.
    pub y: f64,
    /// Heading in radians, wrapped to `(−π, π]`.
    pub theta: f64,
}

impl Pose2 {
    /// Creates a pose, wrapping the heading.
    pub fn new(x: f64, y: f64, theta: f64) -> Self {
        Pose2 {
            x,
            y,
            theta: wrap_angle(theta),
        }
    }

    /// Converts to the state vector `(x, y, θ)`.
    pub fn to_vector(self) -> Vector {
        Vector::from_slice(&[self.x, self.y, self.theta])
    }

    /// Reads a pose from the first three components of a state vector.
    ///
    /// Returns `None` when the vector has fewer than three components.
    pub fn from_vector(v: &Vector) -> Option<Self> {
        if v.len() < 3 {
            return None;
        }
        Some(Pose2::new(v[0], v[1], v[2]))
    }

    /// Euclidean distance between the positions of two poses.
    pub fn distance_to(&self, other: &Pose2) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// Bearing (world-frame angle) from this pose's position to a point.
    pub fn bearing_to(&self, x: f64, y: f64) -> f64 {
        (y - self.y).atan2(x - self.x)
    }

    /// Signed heading error toward a target point: how much the robot
    /// must turn (positive = counterclockwise) to face `(x, y)`.
    pub fn heading_error_to(&self, x: f64, y: f64) -> f64 {
        angle_difference(self.bearing_to(x, y), self.theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn constructor_wraps_heading() {
        let p = Pose2::new(0.0, 0.0, 3.0 * PI);
        assert!((p.theta - PI).abs() < 1e-12);
    }

    #[test]
    fn vector_round_trip() {
        let p = Pose2::new(1.5, -2.0, 0.3);
        assert_eq!(Pose2::from_vector(&p.to_vector()), Some(p));
        assert_eq!(Pose2::from_vector(&Vector::zeros(2)), None);
    }

    #[test]
    fn distance_is_euclidean() {
        let a = Pose2::new(0.0, 0.0, 0.0);
        let b = Pose2::new(3.0, 4.0, 1.0);
        assert_eq!(a.distance_to(&b), 5.0);
        assert_eq!(b.distance_to(&a), 5.0);
    }

    #[test]
    fn bearing_quadrants() {
        let p = Pose2::new(0.0, 0.0, 0.0);
        assert!((p.bearing_to(1.0, 0.0) - 0.0).abs() < 1e-12);
        assert!((p.bearing_to(0.0, 1.0) - FRAC_PI_2).abs() < 1e-12);
        assert!((p.bearing_to(-1.0, 0.0).abs() - PI).abs() < 1e-12);
    }

    #[test]
    fn heading_error_accounts_for_current_heading() {
        let p = Pose2::new(0.0, 0.0, FRAC_PI_2);
        // Target straight ahead → zero error.
        assert!(p.heading_error_to(0.0, 5.0).abs() < 1e-12);
        // Target to the robot's right → negative (clockwise) error.
        assert!(p.heading_error_to(5.0, 0.0) < 0.0);
    }
}
