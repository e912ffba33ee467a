use roboads_linalg::Vector;

use crate::{CoreError, Result};

/// Sliding-window decision parameters: `criteria` positives within the
/// last `window` iterations confirm an alarm (paper notation `c/w`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Required number of positives `c`.
    pub criteria: usize,
    /// Window length `w`.
    pub window: usize,
}

impl WindowConfig {
    /// Creates a `c/w` window configuration.
    pub fn new(criteria: usize, window: usize) -> Self {
        WindowConfig { criteria, window }
    }
}

/// How the nonlinear model is linearized by the estimator.
#[derive(Debug, Clone, PartialEq)]
pub enum Linearization {
    /// Re-linearize at the current estimate every control iteration —
    /// the RoboADS approach.
    PerIteration,
    /// Linearize once at the given operating point and keep those
    /// Jacobians forever — the representative linear-system baseline of
    /// §V-G, which the paper shows degrades badly on nonlinear robots.
    FrozenAt {
        /// State linearization point.
        state: Vector,
        /// Input linearization point.
        input: Vector,
    },
}

/// Full RoboADS detector configuration.
///
/// The defaults follow the paper's tuned operating point (§V-F): sensor
/// tests at `α = 0.005` with a `2/2` window, actuator tests at `α = 0.05`
/// with a `3/6` window, and a mode-probability floor `ε = 10⁻⁶`.
///
/// # Example
///
/// ```
/// use roboads_core::RoboAdsConfig;
///
/// let config = RoboAdsConfig::paper_defaults();
/// assert_eq!(config.sensor_alpha, 0.005);
/// assert_eq!(config.actuator_window.criteria, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RoboAdsConfig {
    /// Significance level for the sensor-misbehavior χ² tests.
    pub sensor_alpha: f64,
    /// Significance level for the actuator-misbehavior χ² test.
    pub actuator_alpha: f64,
    /// Sliding window for sensor alarms.
    pub sensor_window: WindowConfig,
    /// Sliding window for actuator alarms.
    pub actuator_window: WindowConfig,
    /// Mode-probability floor `ε` (Algorithm 1 line 6). Keeps
    /// momentarily implausible hypotheses recoverable instead of locked
    /// out forever.
    pub mode_floor: f64,
    /// Initial state covariance diagonal value.
    pub initial_covariance: f64,
    /// Linearization strategy ([`Linearization::PerIteration`] for
    /// RoboADS proper).
    pub linearization: Linearization,
    /// Whether NUISE step 2 compensates the state prediction with the
    /// actuator anomaly estimate (`x̂ = f(x̂,u) + G·d̂ᵃ`). Disabling this
    /// reproduces the paper's "challenge 2" failure: under actuator
    /// misbehavior the state prediction and every sensor anomaly
    /// estimate become biased. Ablation knob; leave `true`.
    pub compensate_actuator_anomalies: bool,
    /// Per-implied-anomaly prior odds in the hypothesis comparison
    /// (DESIGN.md §2e). `1.0` disables the parsimony prior (ablation);
    /// the default 0.05 encodes the paper's "coordinated multi-workflow
    /// attacks are hard" threat model.
    pub parsimony_rho: f64,
    /// Per-iteration mixing of the mode probabilities toward uniform
    /// (the IMM transition prior; DESIGN.md §2f). `0.0` disables mixing
    /// (ablation).
    pub mode_mixing: f64,
}

impl RoboAdsConfig {
    /// The paper's tuned configuration (§V-F).
    pub fn paper_defaults() -> Self {
        RoboAdsConfig {
            sensor_alpha: 0.005,
            actuator_alpha: 0.05,
            sensor_window: WindowConfig::new(2, 2),
            actuator_window: WindowConfig::new(3, 6),
            mode_floor: 1e-6,
            initial_covariance: 1e-4,
            linearization: Linearization::PerIteration,
            compensate_actuator_anomalies: true,
            parsimony_rho: 0.05,
            mode_mixing: 0.02,
        }
    }

    /// Validates every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the first invalid
    /// parameter.
    pub fn validate(&self) -> Result<()> {
        for (name, v) in [
            ("sensor_alpha", self.sensor_alpha),
            ("actuator_alpha", self.actuator_alpha),
        ] {
            if !(v.is_finite() && v > 0.0 && v < 1.0) {
                return Err(CoreError::InvalidConfig {
                    name,
                    value: format!("{v}"),
                });
            }
        }
        for (name, w) in [
            ("sensor_window", self.sensor_window),
            ("actuator_window", self.actuator_window),
        ] {
            if w.criteria == 0 || w.window == 0 || w.criteria > w.window {
                return Err(CoreError::InvalidConfig {
                    name,
                    value: format!("{}/{}", w.criteria, w.window),
                });
            }
        }
        if !(self.mode_floor.is_finite() && self.mode_floor > 0.0 && self.mode_floor < 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "mode_floor",
                value: format!("{}", self.mode_floor),
            });
        }
        if !(self.initial_covariance.is_finite() && self.initial_covariance > 0.0) {
            return Err(CoreError::InvalidConfig {
                name: "initial_covariance",
                value: format!("{}", self.initial_covariance),
            });
        }
        if !(self.parsimony_rho.is_finite()
            && self.parsimony_rho > 0.0
            && self.parsimony_rho <= 1.0)
        {
            return Err(CoreError::InvalidConfig {
                name: "parsimony_rho",
                value: format!("{}", self.parsimony_rho),
            });
        }
        if !(self.mode_mixing.is_finite() && (0.0..1.0).contains(&self.mode_mixing)) {
            return Err(CoreError::InvalidConfig {
                name: "mode_mixing",
                value: format!("{}", self.mode_mixing),
            });
        }
        Ok(())
    }

    /// Returns a copy with a different sensor significance level (used
    /// by the Fig. 7 ROC sweeps).
    pub fn with_sensor_alpha(mut self, alpha: f64) -> Self {
        self.sensor_alpha = alpha;
        self
    }

    /// Returns a copy with a different actuator significance level.
    pub fn with_actuator_alpha(mut self, alpha: f64) -> Self {
        self.actuator_alpha = alpha;
        self
    }

    /// Returns a copy with different sensor window parameters.
    pub fn with_sensor_window(mut self, criteria: usize, window: usize) -> Self {
        self.sensor_window = WindowConfig::new(criteria, window);
        self
    }

    /// Returns a copy with different actuator window parameters.
    pub fn with_actuator_window(mut self, criteria: usize, window: usize) -> Self {
        self.actuator_window = WindowConfig::new(criteria, window);
        self
    }

    /// Returns a copy with actuator-anomaly compensation disabled
    /// (ablation of NUISE step 2; see field docs).
    pub fn without_compensation(mut self) -> Self {
        self.compensate_actuator_anomalies = false;
        self
    }

    /// Returns a copy with a different parsimony prior (`1.0` disables).
    pub fn with_parsimony_rho(mut self, rho: f64) -> Self {
        self.parsimony_rho = rho;
        self
    }

    /// Returns a copy with a different probability mixing rate.
    pub fn with_mode_mixing(mut self, mixing: f64) -> Self {
        self.mode_mixing = mixing;
        self
    }
}

impl Default for RoboAdsConfig {
    fn default() -> Self {
        RoboAdsConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper() {
        let c = RoboAdsConfig::paper_defaults();
        c.validate().unwrap();
        assert_eq!(c.sensor_window, WindowConfig::new(2, 2));
        assert_eq!(c.actuator_window, WindowConfig::new(3, 6));
        assert_eq!(c.actuator_alpha, 0.05);
        assert_eq!(c, RoboAdsConfig::default());
    }

    #[test]
    fn builders_produce_valid_variants() {
        let c = RoboAdsConfig::paper_defaults()
            .with_sensor_alpha(0.05)
            .with_actuator_alpha(0.5)
            .with_sensor_window(1, 1)
            .with_actuator_window(6, 6);
        c.validate().unwrap();
        assert_eq!(c.sensor_alpha, 0.05);
        assert_eq!(c.actuator_window, WindowConfig::new(6, 6));
    }

    #[test]
    fn ablation_knobs_validate() {
        let c = RoboAdsConfig::paper_defaults()
            .without_compensation()
            .with_parsimony_rho(1.0)
            .with_mode_mixing(0.0);
        c.validate().unwrap();
        assert!(!c.compensate_actuator_anomalies);
        assert!(RoboAdsConfig::paper_defaults()
            .with_parsimony_rho(0.0)
            .validate()
            .is_err());
        assert!(RoboAdsConfig::paper_defaults()
            .with_mode_mixing(1.0)
            .validate()
            .is_err());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(RoboAdsConfig::paper_defaults()
            .with_sensor_alpha(0.0)
            .validate()
            .is_err());
        assert!(RoboAdsConfig::paper_defaults()
            .with_actuator_alpha(1.0)
            .validate()
            .is_err());
        assert!(RoboAdsConfig::paper_defaults()
            .with_sensor_window(3, 2)
            .validate()
            .is_err());
        let mut c = RoboAdsConfig::paper_defaults();
        c.mode_floor = 0.0;
        assert!(c.validate().is_err());
        let mut c = RoboAdsConfig::paper_defaults();
        c.initial_covariance = -1.0;
        assert!(c.validate().is_err());
    }
}
