use crate::{ModelError, Result};

/// An axis-aligned box obstacle inside the arena, in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner x.
    pub min_x: f64,
    /// Minimum corner y.
    pub min_y: f64,
    /// Maximum corner x.
    pub max_x: f64,
    /// Maximum corner y.
    pub max_y: f64,
}

impl Aabb {
    /// Creates a box from its two corners.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] when a maximum is not
    /// strictly greater than the corresponding minimum.
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Result<Self> {
        let finite = [min_x, min_y, max_x, max_y].iter().all(|v| v.is_finite());
        if !(finite && max_x > min_x && max_y > min_y) {
            return Err(ModelError::InvalidParameter {
                name: "aabb",
                value: format!("({min_x},{min_y})..({max_x},{max_y})"),
            });
        }
        Ok(Aabb {
            min_x,
            min_y,
            max_x,
            max_y,
        })
    }

    /// Whether a point lies inside (or on the boundary of) the box.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.min_x && x <= self.max_x && y >= self.min_y && y <= self.max_y
    }

    /// The box grown by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Aabb {
        Aabb {
            min_x: self.min_x - margin,
            min_y: self.min_y - margin,
            max_x: self.max_x + margin,
            max_y: self.max_y + margin,
        }
    }

    /// Slab-method ray intersection: distance along the ray
    /// `(ox, oy) + t·(dx, dy)` to the first boundary hit, if any, for
    /// `t ≥ 0`.
    fn raycast(&self, ox: f64, oy: f64, dx: f64, dy: f64) -> Option<f64> {
        let mut t_min = f64::NEG_INFINITY;
        let mut t_max = f64::INFINITY;
        for (o, d, lo, hi) in [
            (ox, dx, self.min_x, self.max_x),
            (oy, dy, self.min_y, self.max_y),
        ] {
            if d.abs() < 1e-15 {
                if o < lo || o > hi {
                    return None;
                }
            } else {
                let t1 = (lo - o) / d;
                let t2 = (hi - o) / d;
                let (t1, t2) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
                t_min = t_min.max(t1);
                t_max = t_max.min(t2);
                if t_min > t_max {
                    return None;
                }
            }
        }
        if t_max < 0.0 {
            return None;
        }
        Some(if t_min >= 0.0 { t_min } else { t_max })
    }
}

/// The result of a LiDAR raycast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaycastHit {
    /// Distance from the ray origin to the hit, meters.
    pub distance: f64,
    /// Whether the hit surface is an arena wall (vs. an obstacle).
    pub is_wall: bool,
}

/// A rectangular indoor arena `[0, width] × [0, height]` with axis-aligned
/// box obstacles — the Vicon-tracked room the paper's missions run in.
///
/// # Example
///
/// ```
/// use roboads_models::Arena;
///
/// # fn main() -> Result<(), roboads_models::ModelError> {
/// let arena = Arena::new(4.0, 4.0)?;
/// // A ray fired east from the center hits the east wall 2 m away.
/// let hit = arena.raycast(2.0, 2.0, 0.0).unwrap();
/// assert!((hit.distance - 2.0).abs() < 1e-12);
/// assert!(hit.is_wall);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Arena {
    width: f64,
    height: f64,
    obstacles: Vec<Aabb>,
}

impl Arena {
    /// Creates an empty arena of the given dimensions (meters).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] for non-positive
    /// dimensions.
    pub fn new(width: f64, height: f64) -> Result<Self> {
        if !(width.is_finite() && width > 0.0 && height.is_finite() && height > 0.0) {
            return Err(ModelError::InvalidParameter {
                name: "arena",
                value: format!("{width}x{height}"),
            });
        }
        Ok(Arena {
            width,
            height,
            obstacles: Vec::new(),
        })
    }

    /// Adds an obstacle; returns `self` for chaining.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if the obstacle extends
    /// outside the arena.
    pub fn with_obstacle(mut self, obstacle: Aabb) -> Result<Self> {
        if obstacle.min_x < 0.0
            || obstacle.min_y < 0.0
            || obstacle.max_x > self.width
            || obstacle.max_y > self.height
        {
            return Err(ModelError::InvalidParameter {
                name: "obstacle",
                value: format!("{obstacle:?} outside {}x{}", self.width, self.height),
            });
        }
        self.obstacles.push(obstacle);
        Ok(self)
    }

    /// Arena width (x extent) in meters.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Arena height (y extent) in meters.
    pub fn height(&self) -> f64 {
        self.height
    }

    /// The obstacles.
    pub fn obstacles(&self) -> &[Aabb] {
        &self.obstacles
    }

    /// Whether a disc of radius `radius` centered at `(x, y)` is fully
    /// inside the arena and clear of all obstacles.
    pub fn is_free(&self, x: f64, y: f64, radius: f64) -> bool {
        if x - radius < 0.0
            || y - radius < 0.0
            || x + radius > self.width
            || y + radius > self.height
        {
            return false;
        }
        !self
            .obstacles
            .iter()
            .any(|o| o.inflated(radius).contains(x, y))
    }

    /// Whether the straight segment between two points stays free for a
    /// disc of radius `radius` (sampled at centimeter resolution).
    pub fn segment_is_free(&self, x0: f64, y0: f64, x1: f64, y1: f64, radius: f64) -> bool {
        let len = ((x1 - x0).powi(2) + (y1 - y0).powi(2)).sqrt();
        let steps = (len / 0.01).ceil().max(1.0) as usize;
        (0..=steps).all(|i| {
            let t = i as f64 / steps as f64;
            self.is_free(x0 + t * (x1 - x0), y0 + t * (y1 - y0), radius)
        })
    }

    /// Casts a ray from `(x, y)` along world-frame `angle` and returns
    /// the nearest hit, or `None` if the origin lies outside the arena.
    pub fn raycast(&self, x: f64, y: f64, angle: f64) -> Option<RaycastHit> {
        if x < 0.0 || y < 0.0 || x > self.width || y > self.height {
            return None;
        }
        let (dx, dy) = (angle.cos(), angle.sin());
        // Distance to the four walls.
        let mut best = RaycastHit {
            distance: f64::INFINITY,
            is_wall: true,
        };
        for (wall_pos, o, d) in [
            (0.0, x, dx),
            (self.width, x, dx),
            (0.0, y, dy),
            (self.height, y, dy),
        ] {
            if d.abs() < 1e-15 {
                continue;
            }
            let t = (wall_pos - o) / d;
            if t >= 0.0 && t < best.distance {
                best = RaycastHit {
                    distance: t,
                    is_wall: true,
                };
            }
        }
        // Obstacles may be closer.
        for obstacle in &self.obstacles {
            if let Some(t) = obstacle.raycast(x, y, dx, dy) {
                if t >= 0.0 && t < best.distance {
                    best = RaycastHit {
                        distance: t,
                        is_wall: false,
                    };
                }
            }
        }
        if best.distance.is_finite() {
            Some(best)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn arena_with_block() -> Arena {
        Arena::new(4.0, 4.0)
            .unwrap()
            .with_obstacle(Aabb::new(1.5, 1.5, 2.5, 2.5).unwrap())
            .unwrap()
    }

    #[test]
    fn raycast_hits_each_wall() {
        let a = Arena::new(4.0, 3.0).unwrap();
        let east = a.raycast(1.0, 1.0, 0.0).unwrap();
        assert!((east.distance - 3.0).abs() < 1e-12);
        let north = a.raycast(1.0, 1.0, FRAC_PI_2).unwrap();
        assert!((north.distance - 2.0).abs() < 1e-12);
        let west = a.raycast(1.0, 1.0, PI).unwrap();
        assert!((west.distance - 1.0).abs() < 1e-12);
        let south = a.raycast(1.0, 1.0, -FRAC_PI_2).unwrap();
        assert!((south.distance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn raycast_diagonal() {
        let a = Arena::new(4.0, 4.0).unwrap();
        let hit = a.raycast(1.0, 1.0, std::f64::consts::FRAC_PI_4).unwrap();
        assert!((hit.distance - 3.0 * 2f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn obstacle_occludes_wall() {
        let a = arena_with_block();
        let hit = a.raycast(0.5, 2.0, 0.0).unwrap();
        assert!((hit.distance - 1.0).abs() < 1e-12);
        assert!(!hit.is_wall);
        // Firing the other way sees the wall.
        let wall = a.raycast(0.5, 2.0, PI).unwrap();
        assert!(wall.is_wall);
    }

    #[test]
    fn raycast_outside_arena_is_none() {
        let a = Arena::new(4.0, 4.0).unwrap();
        assert!(a.raycast(-1.0, 2.0, 0.0).is_none());
        assert!(a.raycast(2.0, 5.0, 0.0).is_none());
    }

    #[test]
    fn free_space_checks() {
        let a = arena_with_block();
        assert!(a.is_free(0.5, 0.5, 0.1));
        assert!(!a.is_free(2.0, 2.0, 0.1)); // inside obstacle
        assert!(!a.is_free(1.45, 2.0, 0.1)); // within inflation margin
        assert!(!a.is_free(0.05, 0.5, 0.1)); // too close to wall
    }

    #[test]
    fn segment_collision_detection() {
        let a = arena_with_block();
        // Straight through the obstacle.
        assert!(!a.segment_is_free(0.5, 2.0, 3.5, 2.0, 0.05));
        // Going around it.
        assert!(a.segment_is_free(0.5, 0.5, 3.5, 0.5, 0.05));
    }

    #[test]
    fn obstacle_must_be_inside_arena() {
        let r = Arena::new(2.0, 2.0)
            .unwrap()
            .with_obstacle(Aabb::new(1.5, 1.5, 2.5, 2.5).unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn aabb_validation() {
        assert!(Aabb::new(1.0, 1.0, 0.5, 2.0).is_err());
        assert!(Aabb::new(0.0, 0.0, f64::NAN, 1.0).is_err());
    }

    #[test]
    fn aabb_raycast_from_inside() {
        let b = Aabb::new(0.0, 0.0, 2.0, 2.0).unwrap();
        // From inside the box the exit face is returned.
        assert!((b.raycast(1.0, 1.0, 1.0, 0.0).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arena_validation() {
        assert!(Arena::new(0.0, 1.0).is_err());
        assert!(Arena::new(1.0, f64::NAN).is_err());
    }
}
