//! The linearize-once baseline detector of §V-G.
//!
//! The paper benchmarks RoboADS against "a representative work \[20\]
//! where a robot is linearized only once at the beginning. Because of
//! the inaccurate modeling, the estimation errors become larger as time
//! goes by and finally lead to false positives" — an average false
//! positive rate of 61.68 % across the Khepera scenarios, with no false
//! negatives.
//!
//! [`linearized_once`] builds that comparator: a plain [`RoboAds`] —
//! the identical multi-mode pipeline — whose kinematic and measurement
//! models are replaced by their affine expansions at the initial
//! operating point (see [`crate::Linearization::FrozenAt`]). The
//! `baseline` benchmark harness regenerates the comparison.

use roboads_linalg::Vector;
use roboads_models::RobotSystem;

use crate::config::{Linearization, RoboAdsConfig};
use crate::detector::RoboAds;
use crate::mode::ModeSet;
use crate::Result;

/// The §V-G comparison baseline: a RoboADS detector whose model is
/// linearized exactly once, at `initial_state`, with a gentle forward
/// nominal input (0.1 per channel — the same operating point mode
/// validation uses). `config.linearization` is overridden.
///
/// # Errors
///
/// Same as [`RoboAds::new`].
///
/// # Example
///
/// ```
/// use roboads_core::baseline::linearized_once;
/// use roboads_core::{ModeSet, RoboAdsConfig};
/// use roboads_linalg::Vector;
/// use roboads_models::presets;
///
/// # fn main() -> Result<(), roboads_core::CoreError> {
/// let system = presets::khepera_system();
/// let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
/// let baseline = linearized_once(
///     system.clone(),
///     RoboAdsConfig::paper_defaults(),
///     x0,
///     ModeSet::one_reference_per_sensor(&system),
/// )?;
/// assert_eq!(baseline.modes().len(), 3);
/// # Ok(())
/// # }
/// ```
pub fn linearized_once(
    system: RobotSystem,
    mut config: RoboAdsConfig,
    initial_state: Vector,
    modes: ModeSet,
) -> Result<RoboAds> {
    let nominal_input = Vector::from_fn(system.input_dim(), |_| 0.1);
    config.linearization = Linearization::FrozenAt {
        state: initial_state.clone(),
        input: nominal_input,
    };
    RoboAds::new(system, config, initial_state, modes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboads_models::presets;

    fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
        (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(x))
            .collect()
    }

    /// The §V-G claim in miniature: on a clean curved trajectory the
    /// linearize-once baseline raises false sensor alarms while RoboADS
    /// stays silent.
    #[test]
    fn baseline_false_positives_on_curved_clean_trajectory() {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[1.0, 1.0, 0.0]);
        let modes = ModeSet::one_reference_per_sensor(&system);
        let mut baseline = linearized_once(
            system.clone(),
            RoboAdsConfig::paper_defaults(),
            x0.clone(),
            modes.clone(),
        )
        .unwrap();
        let mut roboads = RoboAds::new(
            system.clone(),
            RoboAdsConfig::paper_defaults(),
            x0.clone(),
            modes,
        )
        .unwrap();

        // Constant turn: the true heading leaves the linearization point.
        let u = Vector::from_slice(&[0.03, 0.09]);
        let mut x_true = x0;
        let mut baseline_alarms = 0;
        let mut roboads_alarms = 0;
        for _ in 0..80 {
            x_true = system.dynamics().step(&x_true, &u);
            let readings = clean_readings(&system, &x_true);
            if baseline.step(&u, &readings).unwrap().sensor_alarm {
                baseline_alarms += 1;
            }
            if roboads.step(&u, &readings).unwrap().sensor_alarm {
                roboads_alarms += 1;
            }
        }
        assert_eq!(roboads_alarms, 0, "RoboADS must stay silent on clean data");
        assert!(
            baseline_alarms > 10,
            "linearize-once baseline should accumulate false positives, got {baseline_alarms}"
        );
    }
}
