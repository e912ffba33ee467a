use crate::{ControlError, Result};

/// A piecewise-linear waypoint path through the arena.
///
/// Produced by the [`crate::RrtStar`] planner and consumed by the path
/// trackers, which chase a *lookahead point* a fixed arc-length ahead of
/// the robot's current progress along the path.
///
/// # Example
///
/// ```
/// use roboads_control::Path;
///
/// # fn main() -> Result<(), roboads_control::ControlError> {
/// let path = Path::new(vec![(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])?;
/// assert!((path.length() - 2.0).abs() < 1e-12);
/// let (x, y) = path.point_at(1.5);
/// assert!((x - 1.0).abs() < 1e-12 && (y - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    waypoints: Vec<(f64, f64)>,
    /// Cumulative arc length at each waypoint; `cumulative[0] = 0`.
    cumulative: Vec<f64>,
}

impl Path {
    /// Creates a path from at least two waypoints.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidParameter`] for fewer than two
    /// waypoints or non-finite coordinates.
    pub fn new(waypoints: Vec<(f64, f64)>) -> Result<Self> {
        if waypoints.len() < 2 {
            return Err(ControlError::InvalidParameter {
                name: "waypoints",
                value: format!("{} points", waypoints.len()),
            });
        }
        if waypoints
            .iter()
            .any(|(x, y)| !x.is_finite() || !y.is_finite())
        {
            return Err(ControlError::InvalidParameter {
                name: "waypoints",
                value: "non-finite coordinate".into(),
            });
        }
        let mut cumulative = Vec::with_capacity(waypoints.len());
        cumulative.push(0.0);
        for pair in waypoints.windows(2) {
            let d = dist(pair[0], pair[1]);
            cumulative.push(cumulative.last().expect("nonempty") + d);
        }
        Ok(Path {
            waypoints,
            cumulative,
        })
    }

    /// The waypoints.
    pub fn waypoints(&self) -> &[(f64, f64)] {
        &self.waypoints
    }

    /// Number of waypoints.
    pub fn len(&self) -> usize {
        self.waypoints.len()
    }

    /// Paths always have ≥ 2 waypoints, so this is always `false`; kept
    /// for the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total arc length.
    pub fn length(&self) -> f64 {
        *self.cumulative.last().expect("nonempty")
    }

    /// The final waypoint (mission goal).
    pub fn goal(&self) -> (f64, f64) {
        *self.waypoints.last().expect("nonempty")
    }

    /// The point at arc length `s` from the start, clamped to the ends.
    pub fn point_at(&self, s: f64) -> (f64, f64) {
        if s <= 0.0 {
            return self.waypoints[0];
        }
        if s >= self.length() {
            return self.goal();
        }
        // Find the segment containing s.
        let seg = match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&s).expect("finite lengths"))
        {
            Ok(i) => i.min(self.waypoints.len() - 2),
            Err(i) => i - 1,
        };
        let seg_len = self.cumulative[seg + 1] - self.cumulative[seg];
        let t = if seg_len > 0.0 {
            (s - self.cumulative[seg]) / seg_len
        } else {
            0.0
        };
        let (x0, y0) = self.waypoints[seg];
        let (x1, y1) = self.waypoints[seg + 1];
        (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
    }

    /// Arc length of the point on the path closest to `(x, y)`
    /// (the robot's *progress*), found by projecting onto each segment.
    pub fn progress_of(&self, x: f64, y: f64) -> f64 {
        let mut best_s = 0.0;
        let mut best_d2 = f64::INFINITY;
        for (i, pair) in self.waypoints.windows(2).enumerate() {
            let (x0, y0) = pair[0];
            let (x1, y1) = pair[1];
            let (dx, dy) = (x1 - x0, y1 - y0);
            let len2 = dx * dx + dy * dy;
            let t = if len2 > 0.0 {
                (((x - x0) * dx + (y - y0) * dy) / len2).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let (px, py) = (x0 + t * dx, y0 + t * dy);
            let d2 = (x - px).powi(2) + (y - py).powi(2);
            if d2 < best_d2 {
                best_d2 = d2;
                best_s = self.cumulative[i] + t * len2.sqrt();
            }
        }
        best_s
    }

    /// The lookahead target: the path point `lookahead` meters beyond the
    /// projection of `(x, y)` onto the path.
    pub fn lookahead_point(&self, x: f64, y: f64, lookahead: f64) -> (f64, f64) {
        self.point_at(self.progress_of(x, y) + lookahead)
    }
}

fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_path() -> Path {
        Path::new(vec![(0.0, 0.0), (2.0, 0.0), (2.0, 2.0)]).unwrap()
    }

    #[test]
    fn length_and_endpoints() {
        let p = l_path();
        assert_eq!(p.length(), 4.0);
        assert_eq!(p.goal(), (2.0, 2.0));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn point_at_interpolates_and_clamps() {
        let p = l_path();
        assert_eq!(p.point_at(-1.0), (0.0, 0.0));
        assert_eq!(p.point_at(1.0), (1.0, 0.0));
        assert_eq!(p.point_at(3.0), (2.0, 1.0));
        assert_eq!(p.point_at(99.0), (2.0, 2.0));
    }

    #[test]
    fn point_at_exact_waypoint() {
        let p = l_path();
        let (x, y) = p.point_at(2.0);
        assert!((x - 2.0).abs() < 1e-12 && y.abs() < 1e-12);
    }

    #[test]
    fn progress_projects_onto_nearest_segment() {
        let p = l_path();
        // Slightly off the first segment.
        assert!((p.progress_of(1.0, 0.1) - 1.0).abs() < 1e-12);
        // Near the corner but closer to the second segment.
        assert!((p.progress_of(2.1, 1.0) - 3.0).abs() < 1e-12);
        // Before the start clamps to 0.
        assert_eq!(p.progress_of(-1.0, -1.0), 0.0);
    }

    #[test]
    fn lookahead_chases_along_the_path() {
        let p = l_path();
        let (x, y) = p.lookahead_point(1.0, 0.0, 0.5);
        assert!((x - 1.5).abs() < 1e-12 && y.abs() < 1e-12);
        // Lookahead past the corner bends with the path.
        let (x, y) = p.lookahead_point(1.8, 0.0, 1.0);
        assert!((x - 2.0).abs() < 1e-12);
        assert!((y - 0.8).abs() < 1e-12);
    }

    #[test]
    fn rejects_degenerate_paths() {
        assert!(Path::new(vec![(0.0, 0.0)]).is_err());
        assert!(Path::new(vec![(0.0, 0.0), (f64::NAN, 1.0)]).is_err());
    }

    #[test]
    fn zero_length_segments_are_tolerated() {
        let p = Path::new(vec![(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)]).unwrap();
        assert_eq!(p.length(), 1.0);
        assert_eq!(p.point_at(0.5), (0.5, 0.0));
    }
}
