use roboads_linalg::Vector;
use roboads_models::sensors::WheelEncoderOdometry;

use crate::{Result, SimError};

/// Where a misbehavior acts: one sensing workflow or the actuation
/// workflows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A sensing workflow, by sensor suite index.
    Sensor(usize),
    /// The actuation workflows (control command vector).
    Actuators,
}

/// The data corruption a misbehavior applies to the workflow value.
///
/// Misbehaviors are modeled exactly as in §III-B of the paper: additive
/// corruptions `d^s` / `d^a` on the planner-visible reading or the
/// executed command — but *generated* at the workflow step where each
/// Table-II scenario physically acts (tick counters, raw commands, …).
#[derive(Debug, Clone, PartialEq)]
pub enum Corruption {
    /// Adds a constant vector (logic bombs, spoofing shifts).
    Bias(Vector),
    /// Multiplies each component (physical jamming: a stuck wheel is a
    /// zero scale on its command channel).
    Scale(Vec<f64>),
    /// Replaces the value outright (DoS: an unpowered LiDAR reports 0 m
    /// in each direction).
    ReplaceWith(Vector),
    /// Repeats the last clean value (frozen/jammed sensor output).
    Freeze,
    /// Wheel-encoder tick-counter bias, applied inside the odometry
    /// utility process (scenario #5's "increment 100 steps on left
    /// wheel encoder"). Converted to pose space using the encoder
    /// geometry and the current heading.
    EncoderTickBias {
        /// Per-reading tick bias on the left wheel.
        left: f64,
        /// Per-reading tick bias on the right wheel.
        right: f64,
    },
}

/// One attack or failure: a corruption applied to a target during an
/// iteration window.
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_sim::{Corruption, Misbehavior, Target};
///
/// // Scenario #4: IPS spoofing, −0.1 m on X, from iteration 40 onward.
/// let m = Misbehavior::new(
///     "ips-spoofing",
///     Target::Sensor(0),
///     Corruption::Bias(Vector::from_slice(&[-0.1, 0.0, 0.0])),
///     40,
///     None,
/// );
/// assert!(!m.is_active(39));
/// assert!(m.is_active(40));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Misbehavior {
    name: String,
    target: Target,
    corruption: Corruption,
    /// First active iteration (inclusive).
    start: usize,
    /// First inactive iteration again (exclusive); `None` = until the end.
    end: Option<usize>,
    /// Transient faults (bumps, uneven ground) corrupt data like attacks
    /// do but are *not* misbehaviors the detector must report — the
    /// sliding window exists to tolerate them (§IV-D). Ground truth
    /// excludes them.
    transient: bool,
}

impl Misbehavior {
    /// Creates a misbehavior active on iterations `start..end` (`end =
    /// None` means until the end of the run).
    pub fn new(
        name: impl Into<String>,
        target: Target,
        corruption: Corruption,
        start: usize,
        end: Option<usize>,
    ) -> Self {
        Misbehavior {
            name: name.into(),
            target,
            corruption,
            start,
            end,
            transient: false,
        }
    }

    /// Creates a one-iteration transient fault at iteration `at` — a
    /// bump or glitch the detector should tolerate rather than report.
    pub fn transient_glitch(
        name: impl Into<String>,
        target: Target,
        corruption: Corruption,
        at: usize,
    ) -> Self {
        Misbehavior {
            name: name.into(),
            target,
            corruption,
            start: at,
            end: Some(at + 1),
            transient: true,
        }
    }

    /// Whether this is a transient fault rather than a reportable
    /// misbehavior.
    pub fn is_transient(&self) -> bool {
        self.transient
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attacked workflow.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The corruption applied while active.
    pub fn corruption(&self) -> &Corruption {
        &self.corruption
    }

    /// First active iteration.
    pub fn start(&self) -> usize {
        self.start
    }

    /// End of the active window (exclusive), if bounded.
    pub fn end(&self) -> Option<usize> {
        self.end
    }

    /// Whether the misbehavior is active at iteration `k`.
    pub fn is_active(&self, k: usize) -> bool {
        k >= self.start && self.end.is_none_or(|e| k < e)
    }

    /// Applies the corruption to a workflow value at iteration `k`.
    ///
    /// * `clean` — the uncorrupted value (noisy reading or planned
    ///   command),
    /// * `last_output` — the workflow's previous emitted value (for
    ///   [`Corruption::Freeze`]),
    /// * `heading` — the true heading (for tick-space conversions),
    /// * `encoder` — the encoder geometry when the target is an encoder
    ///   workflow.
    ///
    /// Returns the corrupted value; inactive misbehaviors return the
    /// clean value unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] when the corruption shape
    /// does not match the value, or a tick-space corruption targets a
    /// workflow without encoder geometry.
    pub fn apply(
        &self,
        k: usize,
        clean: &Vector,
        last_output: Option<&Vector>,
        heading: f64,
        encoder: Option<&WheelEncoderOdometry>,
    ) -> Result<Vector> {
        if !self.is_active(k) {
            return Ok(clean.clone());
        }
        match &self.corruption {
            Corruption::Bias(b) => {
                check_len(self.name(), b.len(), clean.len())?;
                Ok(clean + b)
            }
            Corruption::Scale(s) => {
                check_len(self.name(), s.len(), clean.len())?;
                Ok(Vector::from_fn(clean.len(), |i| clean[i] * s[i]))
            }
            Corruption::ReplaceWith(v) => {
                check_len(self.name(), v.len(), clean.len())?;
                Ok(v.clone())
            }
            Corruption::Freeze => Ok(last_output.cloned().unwrap_or_else(|| clean.clone())),
            Corruption::EncoderTickBias { left, right } => {
                let enc = encoder.ok_or(SimError::InvalidParameter {
                    name: "encoder_tick_bias",
                    value: "target workflow has no encoder geometry".into(),
                })?;
                let bias = enc.tick_bias_to_pose_bias(*left, *right, heading);
                check_len(self.name(), bias.len(), clean.len())?;
                Ok(clean + &bias)
            }
        }
    }
}

fn check_len(name: &str, got: usize, expected: usize) -> Result<()> {
    if got != expected {
        return Err(SimError::InvalidParameter {
            name: "corruption",
            value: format!("{name}: corruption dimension {got} vs value dimension {expected}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_window() {
        let m = Misbehavior::new(
            "x",
            Target::Actuators,
            Corruption::Bias(Vector::zeros(2)),
            10,
            Some(20),
        );
        assert!(!m.is_active(9));
        assert!(m.is_active(10));
        assert!(m.is_active(19));
        assert!(!m.is_active(20));
        assert_eq!(m.start(), 10);
        assert_eq!(m.end(), Some(20));
    }

    #[test]
    fn bias_applies_only_while_active() {
        let m = Misbehavior::new(
            "bias",
            Target::Sensor(0),
            Corruption::Bias(Vector::from_slice(&[0.1, 0.0])),
            5,
            None,
        );
        let clean = Vector::from_slice(&[1.0, 2.0]);
        assert_eq!(m.apply(0, &clean, None, 0.0, None).unwrap(), clean);
        let corrupted = m.apply(5, &clean, None, 0.0, None).unwrap();
        assert_eq!(corrupted.as_slice(), &[1.1, 2.0]);
    }

    #[test]
    fn scale_zeroes_a_jammed_wheel() {
        let m = Misbehavior::new(
            "jam",
            Target::Actuators,
            Corruption::Scale(vec![0.0, 1.0]),
            0,
            None,
        );
        let u = Vector::from_slice(&[0.06, 0.05]);
        let jammed = m.apply(0, &u, None, 0.0, None).unwrap();
        assert_eq!(jammed.as_slice(), &[0.0, 0.05]);
    }

    #[test]
    fn replace_models_dos() {
        let m = Misbehavior::new(
            "dos",
            Target::Sensor(2),
            Corruption::ReplaceWith(Vector::zeros(4)),
            0,
            None,
        );
        let clean = Vector::from_slice(&[1.0, 2.0, 3.0, 0.4]);
        assert_eq!(
            m.apply(0, &clean, None, 0.0, None).unwrap(),
            Vector::zeros(4)
        );
    }

    #[test]
    fn freeze_repeats_last_output() {
        let m = Misbehavior::new("freeze", Target::Sensor(0), Corruption::Freeze, 0, None);
        let clean = Vector::from_slice(&[5.0]);
        let last = Vector::from_slice(&[3.0]);
        assert_eq!(m.apply(0, &clean, Some(&last), 0.0, None).unwrap(), last);
        // Without history the first frozen output is the clean value.
        assert_eq!(m.apply(0, &clean, None, 0.0, None).unwrap(), clean);
    }

    #[test]
    fn encoder_tick_bias_converts_to_pose_space() {
        let enc = WheelEncoderOdometry::khepera().unwrap();
        let m = Misbehavior::new(
            "ticks",
            Target::Sensor(1),
            Corruption::EncoderTickBias {
                left: 100.0,
                right: 0.0,
            },
            0,
            None,
        );
        let clean = Vector::from_slice(&[1.0, 1.0, 0.0]);
        let corrupted = m.apply(0, &clean, None, 0.0, Some(&enc)).unwrap();
        assert!(corrupted[0] > 1.0); // forward shift
        assert!(corrupted[2] < 0.0); // clockwise heading shift
                                     // Without geometry it must error, not silently pass.
        assert!(m.apply(0, &clean, None, 0.0, None).is_err());
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let m = Misbehavior::new(
            "bad",
            Target::Sensor(0),
            Corruption::Bias(Vector::zeros(3)),
            0,
            None,
        );
        assert!(m.apply(0, &Vector::zeros(2), None, 0.0, None).is_err());
    }
}
