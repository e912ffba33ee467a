use crate::{ControlError, Result};

/// A discrete PID regulator with output clamping and integral anti-windup.
///
/// Both path trackers in this crate close their heading loop through a
/// `Pid`; the paper's §V-A mission uses "PID closed-loop control to track
/// the planned path".
///
/// # Example
///
/// ```
/// use roboads_control::Pid;
///
/// # fn main() -> Result<(), roboads_control::ControlError> {
/// let mut pid = Pid::new(2.0, 0.1, 0.05, 0.1)?.with_output_limit(1.0);
/// let u = pid.update(0.5); // error of 0.5 rad
/// assert!(u > 0.0 && u <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pid {
    kp: f64,
    ki: f64,
    kd: f64,
    dt: f64,
    output_limit: f64,
    integral: f64,
    previous_error: Option<f64>,
}

impl Pid {
    /// Creates a PID with proportional/integral/derivative gains and the
    /// sample period `dt` (seconds). The output is unlimited until
    /// [`Pid::with_output_limit`] is applied.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::InvalidParameter`] for negative gains,
    /// non-finite gains, or non-positive `dt`.
    pub fn new(kp: f64, ki: f64, kd: f64, dt: f64) -> Result<Self> {
        for (name, v) in [("kp", kp), ("ki", ki), ("kd", kd)] {
            if !v.is_finite() || v < 0.0 {
                return Err(ControlError::InvalidParameter {
                    name,
                    value: format!("{v}"),
                });
            }
        }
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ControlError::InvalidParameter {
                name: "dt",
                value: format!("{dt}"),
            });
        }
        Ok(Pid {
            kp,
            ki,
            kd,
            dt,
            output_limit: f64::INFINITY,
            integral: 0.0,
            previous_error: None,
        })
    }

    /// Sets a symmetric output clamp `±limit`; the integrator freezes
    /// while the output saturates (anti-windup).
    pub fn with_output_limit(mut self, limit: f64) -> Self {
        self.output_limit = limit.abs();
        self
    }

    /// Advances the controller by one period with the given error and
    /// returns the (clamped) control output.
    pub fn update(&mut self, error: f64) -> f64 {
        let derivative = match self.previous_error {
            Some(prev) => (error - prev) / self.dt,
            None => 0.0,
        };
        self.previous_error = Some(error);

        let candidate_integral = self.integral + error * self.dt;
        let unclamped = self.kp * error + self.ki * candidate_integral + self.kd * derivative;
        let output = unclamped.clamp(-self.output_limit, self.output_limit);
        // Anti-windup: only accumulate the integral when not saturated.
        if output == unclamped {
            self.integral = candidate_integral;
        }
        output
    }

    /// Clears the integrator and derivative memory.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.previous_error = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_proportional_response() {
        let mut pid = Pid::new(3.0, 0.0, 0.0, 0.1).unwrap();
        assert!((pid.update(0.5) - 1.5).abs() < 1e-12);
        assert!((pid.update(-0.2) + 0.6).abs() < 1e-12);
    }

    #[test]
    fn integral_accumulates() {
        let mut pid = Pid::new(0.0, 1.0, 0.0, 0.5).unwrap();
        assert_eq!(pid.update(1.0), 0.5);
        assert_eq!(pid.update(1.0), 1.0);
        assert_eq!(pid.update(1.0), 1.5);
    }

    #[test]
    fn derivative_reacts_to_error_change() {
        let mut pid = Pid::new(0.0, 0.0, 1.0, 0.1).unwrap();
        assert_eq!(pid.update(0.0), 0.0); // no previous error yet
        assert_eq!(pid.update(0.5), 5.0); // (0.5 - 0.0) / 0.1
        assert_eq!(pid.update(0.5), 0.0); // steady error → zero derivative
    }

    #[test]
    fn output_clamp_and_antiwindup() {
        let mut pid = Pid::new(0.0, 1.0, 0.0, 1.0).unwrap().with_output_limit(2.0);
        // Saturate for many steps.
        for _ in 0..50 {
            assert!(pid.update(10.0) <= 2.0);
        }
        // On reversal the output recovers immediately instead of paying
        // back a huge accumulated integral.
        let recovered = pid.update(-10.0);
        assert!(recovered < 2.0, "windup not prevented: {recovered}");
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = Pid::new(1.0, 1.0, 1.0, 0.1).unwrap();
        pid.update(1.0);
        pid.update(2.0);
        pid.reset();
        // After reset behaves like a fresh controller.
        let mut fresh = Pid::new(1.0, 1.0, 1.0, 0.1).unwrap();
        assert_eq!(pid.update(0.7), fresh.update(0.7));
    }

    #[test]
    fn closed_loop_converges_on_first_order_plant() {
        // Plant: x' = u; PID drives x to the setpoint 1.0.
        let dt = 0.05;
        let mut pid = Pid::new(2.0, 0.4, 0.0, dt).unwrap().with_output_limit(5.0);
        let mut x = 0.0;
        for _ in 0..400 {
            let u = pid.update(1.0 - x);
            x += u * dt;
        }
        assert!((x - 1.0).abs() < 0.01, "x = {x}");
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Pid::new(-1.0, 0.0, 0.0, 0.1).is_err());
        assert!(Pid::new(1.0, 0.0, 0.0, 0.0).is_err());
        assert!(Pid::new(1.0, f64::NAN, 0.0, 0.1).is_err());
    }
}
