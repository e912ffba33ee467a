//! The paper's attack and failure scenarios (Table II) as data.
//!
//! Timing follows Figure 6's timeline: the control rate is 10 Hz, runs
//! last 20 s (200 iterations), the first misbehavior triggers at
//! t = 4 s (k = 40) and, in combined scenarios, the second at t = 10 s
//! (k = 100). Magnitudes are the paper's own (±6000 speed units on the
//! wheels, +0.07 m / −0.1 m IPS shifts, 100 encoder ticks, all-zero
//! LiDAR ranges).

use roboads_linalg::Vector;
use roboads_models::dynamics::DifferentialDrive;

use crate::misbehavior::{Corruption, Misbehavior, Target};

/// Onset of the first misbehavior (t = 4 s).
pub const FIRST_TRIGGER: usize = 40;
/// Onset of the second misbehavior in combined scenarios (t = 10 s).
pub const SECOND_TRIGGER: usize = 100;
/// Default scenario duration in control iterations (20 s at 10 Hz).
pub const DEFAULT_DURATION: usize = 200;

/// Ground-truth misbehavior timeline derived from a scenario's
/// misbehavior windows, used by the evaluation harness.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    misbehaviors: Vec<Misbehavior>,
}

impl GroundTruth {
    /// Sensor suite indices under active misbehavior at iteration `k`,
    /// sorted and deduplicated.
    pub fn sensors_at(&self, k: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .misbehaviors
            .iter()
            .filter(|m| m.is_active(k) && !m.is_transient())
            .filter_map(|m| match m.target() {
                Target::Sensor(i) => Some(i),
                Target::Actuators => None,
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether an actuator misbehavior is active at iteration `k`.
    pub fn actuator_at(&self, k: usize) -> bool {
        self.misbehaviors
            .iter()
            .any(|m| m.is_active(k) && !m.is_transient() && m.target() == Target::Actuators)
    }

    /// Whether anything is active at iteration `k`.
    pub fn any_at(&self, k: usize) -> bool {
        self.actuator_at(k) || !self.sensors_at(k).is_empty()
    }
}

/// One evaluation scenario: a named set of misbehaviors over a run.
///
/// # Example
///
/// ```
/// use roboads_sim::Scenario;
///
/// let s = Scenario::wheel_logic_bomb();
/// assert_eq!(s.number(), 1);
/// assert!(s.ground_truth().actuator_at(50));
/// assert!(!s.ground_truth().actuator_at(10));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    number: usize,
    name: String,
    description: String,
    misbehaviors: Vec<Misbehavior>,
    duration: usize,
}

impl Scenario {
    /// Creates a custom scenario.
    pub fn new(
        number: usize,
        name: impl Into<String>,
        description: impl Into<String>,
        misbehaviors: Vec<Misbehavior>,
        duration: usize,
    ) -> Self {
        Scenario {
            number,
            name: name.into(),
            description: description.into(),
            misbehaviors,
            duration,
        }
    }

    /// A clean, attack-free run (for FPR floors and Table IV).
    pub fn clean() -> Self {
        Scenario::new(0, "clean", "no misbehavior", vec![], DEFAULT_DURATION)
    }

    /// Table II row number (0 for clean/custom).
    pub fn number(&self) -> usize {
        self.number
    }

    /// Scenario name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Scenario description (Table II "Description"/"Detail").
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The misbehaviors.
    pub fn misbehaviors(&self) -> &[Misbehavior] {
        &self.misbehaviors
    }

    /// Run length in control iterations.
    pub fn duration(&self) -> usize {
        self.duration
    }

    /// The ground-truth timeline.
    pub fn ground_truth(&self) -> GroundTruth {
        GroundTruth {
            misbehaviors: self.misbehaviors.clone(),
        }
    }

    // --- Table II, Khepera (sensor indices: 0 = IPS, 1 = wheel
    //     encoder, 2 = LiDAR). ---

    /// #1 — wheel controller logic bomb: −6000 speed units on `v_L`,
    /// +6000 on `v_R` (actuator / cyber).
    pub fn wheel_logic_bomb() -> Self {
        let units = DifferentialDrive::speed_units_to_mps(6000.0);
        Scenario::new(
            1,
            "wheel-controller-logic-bomb",
            "logic bomb in actuator utility lib alters planned control commands \
             (-6000 speed units on vL, +6000 on vR)",
            vec![Misbehavior::new(
                "wheel-logic-bomb",
                Target::Actuators,
                Corruption::Bias(Vector::from_slice(&[-units, units])),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// #2 — wheel jamming: the left wheel is physically jammed
    /// (actuator / physical).
    pub fn wheel_jamming() -> Self {
        Scenario::new(
            2,
            "wheel-jamming",
            "left wheel physically jammed (0 speed units on vL)",
            vec![Misbehavior::new(
                "wheel-jamming",
                Target::Actuators,
                Corruption::Scale(vec![0.0, 1.0]),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// #3 — IPS logic bomb: +0.07 m shift on X (sensor / cyber).
    pub fn ips_logic_bomb() -> Self {
        Scenario::new(
            3,
            "ips-logic-bomb",
            "logic bomb in IPS data processing lib shifts X by +0.07 m",
            vec![Misbehavior::new(
                "ips-logic-bomb",
                Target::Sensor(0),
                Corruption::Bias(Vector::from_slice(&[0.07, 0.0, 0.0])),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// #4 — IPS spoofing: −0.1 m shift on X (sensor / physical).
    pub fn ips_spoofing() -> Self {
        Scenario::new(
            4,
            "ips-spoofing",
            "fake IPS signal overpowers authentic source (X shifted by -0.1 m)",
            vec![Misbehavior::new(
                "ips-spoofing",
                Target::Sensor(0),
                Corruption::Bias(Vector::from_slice(&[-0.1, 0.0, 0.0])),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// #5 — wheel-encoder logic bomb: +100 ticks on the left wheel
    /// counter (sensor / cyber).
    pub fn encoder_logic_bomb() -> Self {
        Scenario::new(
            5,
            "wheel-encoder-logic-bomb",
            "logic bomb in encoder data processing lib increments left counter by 100 steps",
            vec![Misbehavior::new(
                "encoder-ticks",
                Target::Sensor(1),
                Corruption::EncoderTickBias {
                    left: 100.0,
                    right: 0.0,
                },
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// #6 — LiDAR DoS: wire cut, 0 m in every direction
    /// (sensor / physical).
    pub fn lidar_dos() -> Self {
        Scenario::new(
            6,
            "lidar-dos",
            "LiDAR wire cut: received distance is 0 m in each direction",
            vec![Misbehavior::new(
                "lidar-dos",
                Target::Sensor(2),
                Corruption::ReplaceWith(Vector::zeros(4)),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// #7 — LiDAR blocking: the extracted west-wall distance is wrong
    /// (sensor / physical).
    pub fn lidar_blocking() -> Self {
        Scenario::new(
            7,
            "lidar-blocking",
            "laser ejection/reception blocked: west-wall distance reading incorrect",
            vec![Misbehavior::new(
                "lidar-blocking",
                Target::Sensor(2),
                Corruption::Bias(Vector::from_slice(&[0.12, 0.0, 0.0, 0.0])),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// #8 — wheel controller & IPS logic bombs (sensor + actuator /
    /// cyber): IPS at t = 4 s, wheels at t = 10 s (Figure 6 timeline).
    pub fn wheel_and_ips_logic_bomb() -> Self {
        let units = DifferentialDrive::speed_units_to_mps(6000.0);
        Scenario::new(
            8,
            "wheel-and-ips-logic-bomb",
            "IPS X shifted +0.07 m from 4 s; wheel commands altered by ∓6000 units from 10 s",
            vec![
                Misbehavior::new(
                    "ips-logic-bomb",
                    Target::Sensor(0),
                    Corruption::Bias(Vector::from_slice(&[0.07, 0.0, 0.0])),
                    FIRST_TRIGGER,
                    None,
                ),
                Misbehavior::new(
                    "wheel-logic-bomb",
                    Target::Actuators,
                    Corruption::Bias(Vector::from_slice(&[-units, units])),
                    SECOND_TRIGGER,
                    None,
                ),
            ],
            DEFAULT_DURATION,
        )
    }

    /// #9 — LiDAR DoS & wheel-encoder logic bomb (S0→2→4): encoder at
    /// t = 4 s, LiDAR at t = 10 s.
    pub fn lidar_dos_and_encoder_logic_bomb() -> Self {
        Scenario::new(
            9,
            "lidar-dos-and-encoder-logic-bomb",
            "left encoder +100 steps from 4 s; LiDAR 0 m in each direction from 10 s",
            vec![
                Misbehavior::new(
                    "encoder-ticks",
                    Target::Sensor(1),
                    Corruption::EncoderTickBias {
                        left: 100.0,
                        right: 0.0,
                    },
                    FIRST_TRIGGER,
                    None,
                ),
                Misbehavior::new(
                    "lidar-dos",
                    Target::Sensor(2),
                    Corruption::ReplaceWith(Vector::zeros(4)),
                    SECOND_TRIGGER,
                    None,
                ),
            ],
            DEFAULT_DURATION,
        )
    }

    /// #10 — IPS spoofing & LiDAR DoS (S0→3→5→1): LiDAR DoS during
    /// 4–12 s, IPS shift from 8 s.
    pub fn ips_spoofing_and_lidar_dos() -> Self {
        Scenario::new(
            10,
            "ips-spoofing-and-lidar-dos",
            "LiDAR 0 m in each direction during 4–12 s; IPS X shifted +0.07 m from 8 s",
            vec![
                Misbehavior::new(
                    "lidar-dos",
                    Target::Sensor(2),
                    Corruption::ReplaceWith(Vector::zeros(4)),
                    FIRST_TRIGGER,
                    Some(120),
                ),
                Misbehavior::new(
                    "ips-spoofing",
                    Target::Sensor(0),
                    Corruption::Bias(Vector::from_slice(&[0.07, 0.0, 0.0])),
                    80,
                    None,
                ),
            ],
            DEFAULT_DURATION,
        )
    }

    /// #11 — IPS & wheel-encoder logic bombs (S0→2→6): encoder at
    /// t = 4 s, IPS at t = 10 s.
    pub fn ips_and_encoder_logic_bomb() -> Self {
        Scenario::new(
            11,
            "ips-and-encoder-logic-bomb",
            "left encoder +100 steps from 4 s; IPS X shifted +0.1 m from 10 s",
            vec![
                Misbehavior::new(
                    "encoder-ticks",
                    Target::Sensor(1),
                    Corruption::EncoderTickBias {
                        left: 100.0,
                        right: 0.0,
                    },
                    FIRST_TRIGGER,
                    None,
                ),
                Misbehavior::new(
                    "ips-logic-bomb",
                    Target::Sensor(0),
                    Corruption::Bias(Vector::from_slice(&[0.1, 0.0, 0.0])),
                    SECOND_TRIGGER,
                    None,
                ),
            ],
            DEFAULT_DURATION,
        )
    }

    /// Adds one-iteration transient pose glitches ("uneven ground or
    /// bumps", §IV-D) every `period` iterations, cycling through the
    /// sensing workflows. Transients corrupt data but are excluded from
    /// the ground truth — a detector that reports them is producing
    /// false positives, which is exactly the trade the Fig. 7 window
    /// sweep measures.
    pub fn with_transient_bumps(mut self, period: usize, magnitude: f64) -> Self {
        let mut sensor = 0usize;
        let mut k = period.max(1);
        while k < self.duration {
            // Skip bumps too close to a real misbehavior onset so delay
            // measurements stay attributable.
            let near_onset = self.misbehaviors.iter().any(|m| k.abs_diff(m.start()) < 3);
            if !near_onset {
                let dim = match sensor {
                    2 => 4, // LiDAR workflow has 4 components
                    _ => 3,
                };
                let mut bump = vec![0.0; dim];
                bump[k % dim] = magnitude;
                self.misbehaviors.push(Misbehavior::transient_glitch(
                    format!("bump-{k}"),
                    Target::Sensor(sensor),
                    Corruption::Bias(Vector::from_slice(&bump)),
                    k,
                ));
            }
            sensor = (sensor + 1) % 3;
            k += period.max(1);
        }
        self
    }

    /// All eleven Khepera Table-II scenarios in row order.
    pub fn all_khepera() -> Vec<Scenario> {
        vec![
            Scenario::wheel_logic_bomb(),
            Scenario::wheel_jamming(),
            Scenario::ips_logic_bomb(),
            Scenario::ips_spoofing(),
            Scenario::encoder_logic_bomb(),
            Scenario::lidar_dos(),
            Scenario::lidar_blocking(),
            Scenario::wheel_and_ips_logic_bomb(),
            Scenario::lidar_dos_and_encoder_logic_bomb(),
            Scenario::ips_spoofing_and_lidar_dos(),
            Scenario::ips_and_encoder_logic_bomb(),
        ]
    }

    // --- §V-D Tamiya analogues (sensor indices: 0 = IPS, 1 = IMU,
    //     2 = LiDAR; actuators = (speed, steering)). ---

    /// Tamiya: steering take-over (actuator / cyber).
    pub fn tamiya_steering_takeover() -> Self {
        Scenario::new(
            1,
            "tamiya-steering-takeover",
            "injected steering commands: +0.3 rad on the servo, -0.05 m/s on the throttle",
            vec![Misbehavior::new(
                "steering-takeover",
                Target::Actuators,
                Corruption::Bias(Vector::from_slice(&[-0.05, 0.3])),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// Tamiya: IPS spoofing (sensor / physical).
    pub fn tamiya_ips_spoofing() -> Self {
        Scenario::new(
            2,
            "tamiya-ips-spoofing",
            "fake IPS signal shifts X by -0.1 m",
            vec![Misbehavior::new(
                "ips-spoofing",
                Target::Sensor(0),
                Corruption::Bias(Vector::from_slice(&[-0.1, 0.0, 0.0])),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// Tamiya: IMU inertial-nav logic bomb (sensor / cyber).
    pub fn tamiya_imu_logic_bomb() -> Self {
        Scenario::new(
            3,
            "tamiya-imu-logic-bomb",
            "logic bomb in the inertial-nav lib shifts Y by +0.08 m",
            vec![Misbehavior::new(
                "imu-logic-bomb",
                Target::Sensor(1),
                Corruption::Bias(Vector::from_slice(&[0.0, 0.08, 0.0])),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// Tamiya: LiDAR DoS (sensor / physical).
    pub fn tamiya_lidar_dos() -> Self {
        Scenario::new(
            4,
            "tamiya-lidar-dos",
            "LiDAR 0 m in each direction",
            vec![Misbehavior::new(
                "lidar-dos",
                Target::Sensor(2),
                Corruption::ReplaceWith(Vector::zeros(4)),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// Tamiya: LiDAR blocking (sensor / physical).
    pub fn tamiya_lidar_blocking() -> Self {
        Scenario::new(
            5,
            "tamiya-lidar-blocking",
            "west-wall distance reading incorrect",
            vec![Misbehavior::new(
                "lidar-blocking",
                Target::Sensor(2),
                Corruption::Bias(Vector::from_slice(&[0.12, 0.0, 0.0, 0.0])),
                FIRST_TRIGGER,
                None,
            )],
            DEFAULT_DURATION,
        )
    }

    /// Tamiya: combined steering take-over and IMU logic bomb.
    pub fn tamiya_combined() -> Self {
        Scenario::new(
            6,
            "tamiya-combined",
            "IMU Y shifted +0.08 m from 4 s; steering altered from 10 s",
            vec![
                Misbehavior::new(
                    "imu-logic-bomb",
                    Target::Sensor(1),
                    Corruption::Bias(Vector::from_slice(&[0.0, 0.08, 0.0])),
                    FIRST_TRIGGER,
                    None,
                ),
                Misbehavior::new(
                    "steering-takeover",
                    Target::Actuators,
                    Corruption::Bias(Vector::from_slice(&[-0.05, 0.3])),
                    SECOND_TRIGGER,
                    None,
                ),
            ],
            DEFAULT_DURATION,
        )
    }

    /// §VI resilience probe: an attacker that switches targets every
    /// two seconds, cycling IPS shift → encoder ticks → LiDAR blocking,
    /// "making mode estimation challenging". Starts at the usual 4 s
    /// trigger.
    pub fn switching_attacker() -> Self {
        let mut misbehaviors = Vec::new();
        let dwell = 20; // 2 s per target
        let mut k = FIRST_TRIGGER;
        let mut phase = 0usize;
        while k < DEFAULT_DURATION {
            let end = Some((k + dwell).min(DEFAULT_DURATION));
            let m = match phase % 3 {
                0 => Misbehavior::new(
                    format!("switch-ips-{k}"),
                    Target::Sensor(0),
                    Corruption::Bias(Vector::from_slice(&[0.08, 0.0, 0.0])),
                    k,
                    end,
                ),
                1 => Misbehavior::new(
                    format!("switch-encoder-{k}"),
                    Target::Sensor(1),
                    Corruption::EncoderTickBias {
                        left: 100.0,
                        right: 0.0,
                    },
                    k,
                    end,
                ),
                _ => Misbehavior::new(
                    format!("switch-lidar-{k}"),
                    Target::Sensor(2),
                    Corruption::Bias(Vector::from_slice(&[0.12, 0.0, 0.0, 0.0])),
                    k,
                    end,
                ),
            };
            misbehaviors.push(m);
            phase += 1;
            k += dwell;
        }
        Scenario::new(
            12,
            "switching-attacker",
            "attacker rotates its target workflow every 2 s (IPS → encoder → LiDAR)",
            misbehaviors,
            DEFAULT_DURATION,
        )
    }

    /// All §V-D Tamiya scenarios.
    pub fn all_tamiya() -> Vec<Scenario> {
        vec![
            Scenario::tamiya_steering_takeover(),
            Scenario::tamiya_ips_spoofing(),
            Scenario::tamiya_imu_logic_bomb(),
            Scenario::tamiya_lidar_dos(),
            Scenario::tamiya_lidar_blocking(),
            Scenario::tamiya_combined(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_khepera_scenarios_are_numbered_in_order() {
        let all = Scenario::all_khepera();
        assert_eq!(all.len(), 11);
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s.number(), i + 1, "{}", s.name());
            assert_eq!(s.duration(), DEFAULT_DURATION);
        }
    }

    #[test]
    fn clean_scenario_has_no_ground_truth_activity() {
        let gt = Scenario::clean().ground_truth();
        for k in 0..DEFAULT_DURATION {
            assert!(!gt.any_at(k));
        }
    }

    #[test]
    fn combined_scenario_timeline_matches_figure6() {
        let gt = Scenario::wheel_and_ips_logic_bomb().ground_truth();
        // Before 4 s: clean.
        assert!(gt.sensors_at(39).is_empty());
        assert!(!gt.actuator_at(39));
        // 4–10 s: IPS only.
        assert_eq!(gt.sensors_at(60), vec![0]);
        assert!(!gt.actuator_at(60));
        // After 10 s: IPS + actuator.
        assert_eq!(gt.sensors_at(150), vec![0]);
        assert!(gt.actuator_at(150));
    }

    #[test]
    fn scenario_10_transitions_s0_s3_s5_s1() {
        let gt = Scenario::ips_spoofing_and_lidar_dos().ground_truth();
        assert!(gt.sensors_at(20).is_empty()); // S0
        assert_eq!(gt.sensors_at(50), vec![2]); // S3 (LiDAR)
        assert_eq!(gt.sensors_at(100), vec![0, 2]); // S5 (IPS + LiDAR)
        assert_eq!(gt.sensors_at(150), vec![0]); // S1 (IPS only)
    }

    #[test]
    fn tamiya_set_is_complete() {
        let all = Scenario::all_tamiya();
        assert_eq!(all.len(), 6);
        assert!(all
            .iter()
            .any(|s| s.ground_truth().actuator_at(FIRST_TRIGGER)));
    }

    #[test]
    fn custom_scenario_construction() {
        let s = Scenario::new(99, "custom", "desc", vec![], 50);
        assert_eq!(s.number(), 99);
        assert_eq!(s.name(), "custom");
        assert_eq!(s.description(), "desc");
        assert_eq!(s.duration(), 50);
        assert!(s.misbehaviors().is_empty());
    }
}
