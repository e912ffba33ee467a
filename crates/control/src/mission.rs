use roboads_models::Arena;

use crate::{Path, Result, RrtStar};

/// A point-to-point motion-planning mission (§V-A of the paper):
/// start and goal positions in the arena plus the planning seed.
///
/// # Example
///
/// ```
/// use roboads_models::presets;
/// use roboads_control::Mission;
///
/// # fn main() -> Result<(), roboads_control::ControlError> {
/// let mission = Mission::evaluation_default();
/// let path = mission.plan(&presets::evaluation_arena(), 0.08)?;
/// assert_eq!(path.goal(), mission.goal);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mission {
    /// Start position (m).
    pub start: (f64, f64),
    /// Goal position (m).
    pub goal: (f64, f64),
    /// Seed for the RRT* sampling stream.
    pub planning_seed: u64,
}

impl Mission {
    /// Creates a mission.
    pub fn new(start: (f64, f64), goal: (f64, f64), planning_seed: u64) -> Self {
        Mission {
            start,
            goal,
            planning_seed,
        }
    }

    /// The evaluation mission used by every benchmark: diagonal crossing
    /// of the 4 m arena, weaving between the two obstacles.
    pub fn evaluation_default() -> Self {
        Mission::new((0.5, 0.5), (3.5, 3.5), 20180625)
    }

    /// Plans the mission path in the given arena.
    ///
    /// # Errors
    ///
    /// Propagates planner errors ([`crate::ControlError::NoPathFound`],
    /// [`crate::ControlError::PositionNotFree`]).
    pub fn plan(&self, arena: &Arena, robot_radius: f64) -> Result<Path> {
        RrtStar::new(arena, robot_radius)?.plan(self.start, self.goal, self.planning_seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboads_models::presets;

    #[test]
    fn default_mission_plans() {
        let arena = presets::evaluation_arena();
        let mission = Mission::evaluation_default();
        let path = mission.plan(&arena, 0.08).unwrap();
        assert_eq!(path.waypoints()[0], mission.start);
        assert_eq!(path.goal(), mission.goal);
    }

    #[test]
    fn mission_is_plain_data() {
        let m = Mission::new((0.1, 0.2), (1.0, 2.0), 3);
        assert_eq!(m.start, (0.1, 0.2));
        assert_eq!(m.goal, (1.0, 2.0));
        assert_eq!(m.planning_seed, 3);
    }
}
