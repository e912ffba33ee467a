use roboads_linalg::Vector;
use roboads_models::{observability, RobotSystem};

use crate::{CoreError, Result};

/// One sensor-condition hypothesis: a partition of the sensor suite into
/// *reference* sensors (assumed clean, used for estimation) and *testing*
/// sensors (potentially corrupted, cross-validated).
///
/// # Example
///
/// ```
/// use roboads_core::Mode;
///
/// let mode = Mode::new(vec![1], vec![0, 2]);
/// assert_eq!(mode.reference(), &[1]);
/// assert!(mode.is_testing(0));
/// assert!(!mode.is_testing(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mode {
    reference: Vec<usize>,
    testing: Vec<usize>,
}

impl Mode {
    /// Creates a mode from reference and testing sensor index lists.
    /// Both lists are sorted; suite-order stacking depends on it.
    pub fn new(mut reference: Vec<usize>, mut testing: Vec<usize>) -> Self {
        reference.sort_unstable();
        testing.sort_unstable();
        Mode { reference, testing }
    }

    /// The reference (assumed-clean) sensor indices, sorted.
    pub fn reference(&self) -> &[usize] {
        &self.reference
    }

    /// The testing (potentially corrupted) sensor indices, sorted.
    pub fn testing(&self) -> &[usize] {
        &self.testing
    }

    /// Whether sensor `i` is in the testing set.
    pub fn is_testing(&self, i: usize) -> bool {
        self.testing.binary_search(&i).is_ok()
    }

    /// Whether sensor `i` is in the reference set.
    pub fn is_reference(&self, i: usize) -> bool {
        self.reference.binary_search(&i).is_ok()
    }

    /// Short human-readable description, e.g. `"ref{1} test{0,2}"`.
    pub fn describe(&self) -> String {
        let fmt = |v: &[usize]| {
            v.iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "ref{{{}}} test{{{}}}",
            fmt(&self.reference),
            fmt(&self.testing)
        )
    }
}

/// An ordered set of modes for the multi-mode engine.
///
/// The paper's default (§VI "Mode set selection") keeps one mode per
/// sensor, each with exactly one reference sensor, so the mode count
/// grows linearly in `p`; the complete set of `2^p − 1` hypotheses is
/// also available for designers who accept the exponential cost, as is
/// grouping for partial-state sensors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModeSet {
    modes: Vec<Mode>,
}

impl ModeSet {
    /// Builds the paper's default mode set: mode `m` trusts exactly
    /// sensor `m` and tests all others.
    ///
    /// ```
    /// use roboads_core::ModeSet;
    /// use roboads_models::presets;
    ///
    /// let set = ModeSet::one_reference_per_sensor(&presets::khepera_system());
    /// assert_eq!(set.len(), 3);
    /// assert_eq!(set.modes()[1].reference(), &[1]);
    /// ```
    pub fn one_reference_per_sensor(system: &RobotSystem) -> Self {
        let p = system.sensor_count();
        let modes = (0..p)
            .map(|m| {
                let testing = (0..p).filter(|&i| i != m).collect();
                Mode::new(vec![m], testing)
            })
            .collect();
        ModeSet { modes }
    }

    /// Builds the complete mode set: one mode per nonempty reference
    /// subset (`2^p − 1` modes, excluding the all-corrupted condition).
    pub fn complete(system: &RobotSystem) -> Self {
        let p = system.sensor_count();
        let mut modes = Vec::with_capacity((1usize << p) - 1);
        for mask in 1u32..(1 << p) {
            let reference: Vec<usize> = (0..p).filter(|i| mask & (1 << i) != 0).collect();
            let testing: Vec<usize> = (0..p).filter(|i| mask & (1 << i) == 0).collect();
            modes.push(Mode::new(reference, testing));
        }
        ModeSet { modes }
    }

    /// Builds a mode set from explicit reference *groups*: each group is
    /// the reference set of one mode, all other sensors are testing.
    ///
    /// This is §VI's grouping mechanism: a magnetometer that cannot
    /// reconstruct the state alone is grouped with a GPS so the pair can
    /// serve as a reference.
    pub fn from_reference_groups(system: &RobotSystem, groups: &[Vec<usize>]) -> Self {
        let p = system.sensor_count();
        let modes = groups
            .iter()
            .map(|group| {
                let testing = (0..p).filter(|i| !group.contains(i)).collect();
                Mode::new(group.clone(), testing)
            })
            .collect();
        ModeSet { modes }
    }

    /// The modes in order.
    pub fn modes(&self) -> &[Mode] {
        &self.modes
    }

    /// Number of modes `M`.
    pub fn len(&self) -> usize {
        self.modes.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.modes.is_empty()
    }

    /// Validates the mode set against a system at an operating point:
    ///
    /// * every mode's reference set must make the state observable
    ///   (§VI "sensor capabilities"), and
    /// * must expose the actuator channel (`rank(C₂·G) = q`) so the
    ///   unknown-input estimate exists.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DegenerateMode`] naming the first failing
    /// mode, or [`CoreError::InvalidConfig`] for an empty set or indices
    /// out of range.
    pub fn validate(&self, system: &RobotSystem, x: &Vector, u: &Vector) -> Result<()> {
        if self.modes.is_empty() {
            return Err(CoreError::InvalidConfig {
                name: "mode_set",
                value: "empty".into(),
            });
        }
        let p = system.sensor_count();
        for (m, mode) in self.modes.iter().enumerate() {
            if mode.reference.is_empty() {
                return Err(CoreError::DegenerateMode {
                    mode: m,
                    reason: "empty reference set".into(),
                });
            }
            if mode
                .reference
                .iter()
                .chain(mode.testing.iter())
                .any(|&i| i >= p)
            {
                return Err(CoreError::InvalidConfig {
                    name: "mode_set",
                    value: format!("sensor index out of range in mode {m}"),
                });
            }
            let observable = observability::is_observable(system, &mode.reference, x, u)
                .map_err(|e| CoreError::Numeric(e.to_string()))?;
            if !observable {
                return Err(CoreError::DegenerateMode {
                    mode: m,
                    reason: format!(
                        "reference sensors {:?} cannot reconstruct the state; group them with \
                         a sensor that observes the missing components (see paper §VI)",
                        mode.reference
                    ),
                });
            }
            // Unknown-input estimability: C₂·G must have full column rank.
            let c2 = system.jacobian_subset(&mode.reference, x);
            let g = system.dynamics().input_jacobian(x, u);
            let f = &c2 * &g;
            let gram = &f.transpose() * &f;
            let rank = gram.rank().map_err(|e| CoreError::Numeric(e.to_string()))?;
            if rank < system.input_dim() {
                return Err(CoreError::DegenerateMode {
                    mode: m,
                    reason: format!(
                        "reference sensors {:?} do not expose all {} actuator channels \
                         (rank(C2*G) = {rank})",
                        mode.reference,
                        system.input_dim()
                    ),
                });
            }
            // Analytical redundancy: after the input estimate consumes q
            // innovation directions, at least one must remain or the
            // hypothesis explains *any* data (unfalsifiable) — the
            // paper's key insight (§IV-B) rests on this redundancy.
            let m2 = system.subset_dim(&mode.reference);
            if m2 <= system.input_dim() {
                return Err(CoreError::DegenerateMode {
                    mode: m,
                    reason: format!(
                        "reference sensors {:?} provide {m2} measurement dimensions for {} \
                         actuator channels: no analytical redundancy remains and the \
                         hypothesis cannot be falsified; group in another sensor (§IV-B/§VI)",
                        mode.reference,
                        system.input_dim()
                    ),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboads_models::presets;

    fn operating_point() -> (Vector, Vector) {
        (
            Vector::from_slice(&[0.5, 0.5, 0.2]),
            Vector::from_slice(&[0.05, 0.04]),
        )
    }

    #[test]
    fn default_set_matches_paper_structure() {
        let sys = presets::khepera_system();
        let set = ModeSet::one_reference_per_sensor(&sys);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
        for (m, mode) in set.modes().iter().enumerate() {
            assert_eq!(mode.reference(), &[m]);
            assert_eq!(mode.testing().len(), 2);
            assert!(!mode.is_testing(m));
        }
    }

    #[test]
    fn complete_set_size_is_exponential() {
        let sys = presets::khepera_system();
        let set = ModeSet::complete(&sys);
        assert_eq!(set.len(), 7); // 2³ − 1
                                  // One of them is the all-reference (null) hypothesis.
        assert!(set
            .modes()
            .iter()
            .any(|m| m.reference().len() == 3 && m.testing().is_empty()));
    }

    #[test]
    fn default_and_complete_sets_validate() {
        let sys = presets::khepera_system();
        let (x, u) = operating_point();
        ModeSet::one_reference_per_sensor(&sys)
            .validate(&sys, &x, &u)
            .unwrap();
        ModeSet::complete(&sys).validate(&sys, &x, &u).unwrap();
    }

    #[test]
    fn empty_reference_is_degenerate() {
        let sys = presets::khepera_system();
        let (x, u) = operating_point();
        let set = ModeSet {
            modes: vec![Mode::new(vec![], vec![0, 1, 2])],
        };
        assert!(matches!(
            set.validate(&sys, &x, &u),
            Err(CoreError::DegenerateMode { mode: 0, .. })
        ));
    }

    #[test]
    fn out_of_range_sensor_rejected() {
        let sys = presets::khepera_system();
        let (x, u) = operating_point();
        let set = ModeSet {
            modes: vec![Mode::new(vec![5], vec![])],
        };
        assert!(set.validate(&sys, &x, &u).is_err());
    }

    #[test]
    fn grouping_builder() {
        let sys = presets::khepera_system();
        let set = ModeSet::from_reference_groups(&sys, &[vec![0, 1], vec![2]]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.modes()[0].reference(), &[0, 1]);
        assert_eq!(set.modes()[0].testing(), &[2]);
    }

    #[test]
    fn mode_description() {
        let m = Mode::new(vec![2, 0], vec![1]);
        assert_eq!(m.describe(), "ref{0,2} test{1}");
        assert!(m.is_reference(0));
        assert!(!m.is_reference(1));
    }
}
