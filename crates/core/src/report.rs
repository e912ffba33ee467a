use roboads_linalg::{Matrix, Vector};

/// A normalized anomaly estimate with its χ² test context.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyEstimate {
    /// The anomaly-vector estimate (`d̂^s` or `d̂^a`).
    pub estimate: Vector,
    /// Its error covariance.
    pub covariance: Matrix,
    /// The normalized test statistic `d̂ᵀP⁺d̂` (0 for an empty vector).
    pub statistic: f64,
    /// The χ² critical value the statistic was compared against
    /// (`+∞` when no test applies, e.g. an empty testing set).
    pub threshold: f64,
    /// Whether the statistic exceeded the threshold this iteration
    /// (the raw, pre-window test result).
    pub exceeds: bool,
}

impl AnomalyEstimate {
    /// An empty estimate (no testing sensors / no test conducted).
    pub fn empty() -> Self {
        AnomalyEstimate {
            estimate: Vector::zeros(0),
            covariance: Matrix::zeros(0, 0),
            statistic: 0.0,
            threshold: f64::INFINITY,
            exceeds: false,
        }
    }
}

/// Per-sensor anomaly view for one iteration.
///
/// For Figure-6-style traces the report carries an estimate for *every*
/// sensor: from the selected mode when the sensor is in its testing set,
/// otherwise from the most probable mode that does test it.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorAnomaly {
    /// Sensor suite index.
    pub sensor: usize,
    /// Sensing-workflow name (e.g. `"ips"`).
    pub name: String,
    /// The sensor's anomaly-vector estimate.
    pub estimate: Vector,
    /// Normalized per-sensor χ² statistic.
    pub statistic: f64,
    /// Whether the per-sensor statistic exceeded its critical value.
    pub exceeds: bool,
    /// Which mode the estimate was taken from.
    pub from_mode: usize,
}

/// The complete output of one RoboADS iteration (Algorithm 1's outputs:
/// abnormal workflow(s) and anomaly-vector estimates, plus every
/// intermediate quantity the paper's Figure 6 plots).
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Control iteration counter `k` (1-based, counted by the detector).
    pub iteration: u64,
    /// Selected mode index `M_k`.
    pub selected_mode: usize,
    /// Normalized mode probabilities `μ_k`.
    pub mode_probabilities: Vec<f64>,
    /// Updated state estimate `x̂_{k|k}` from the selected mode.
    pub state_estimate: Vector,
    /// Aggregate sensor anomaly of the selected mode (stacked testing
    /// sensors) with its test context.
    pub sensor_anomaly: AnomalyEstimate,
    /// Actuator anomaly of the selected mode with its test context.
    pub actuator_anomaly: AnomalyEstimate,
    /// Window-confirmed sensor alarm (`b^s` through the sliding window).
    pub sensor_alarm: bool,
    /// Identified misbehaving sensors (empty when none confirmed);
    /// sorted suite indices. Valid only while `sensor_alarm` is raised.
    pub misbehaving_sensors: Vec<usize>,
    /// Window-confirmed actuator alarm.
    pub actuator_alarm: bool,
    /// Per-sensor anomaly views covering the whole suite.
    pub per_sensor: Vec<SensorAnomaly>,
}

impl DetectionReport {
    /// A blank report for [`crate::RoboAds::step_into`] to fill: every
    /// field at its clean-iteration default with zero-length buffers.
    /// Reusing one blank report across steps lets the buffers warm up
    /// to their steady-state sizes, after which refills are
    /// allocation-free.
    pub fn blank() -> Self {
        DetectionReport {
            iteration: 0,
            selected_mode: 0,
            mode_probabilities: Vec::new(),
            state_estimate: Vector::zeros(0),
            sensor_anomaly: AnomalyEstimate::empty(),
            actuator_anomaly: AnomalyEstimate::empty(),
            sensor_alarm: false,
            misbehaving_sensors: Vec::new(),
            actuator_alarm: false,
            per_sensor: Vec::new(),
        }
    }

    /// Whether a sensor misbehavior is currently confirmed (alarm raised
    /// and at least one sensor identified).
    pub fn sensor_misbehavior_detected(&self) -> bool {
        self.sensor_alarm && !self.misbehaving_sensors.is_empty()
    }

    /// The paper's Table-III-style condition label for the identified
    /// sensor set: `"S0"` when clean, `"S{i+1}"` for a single sensor
    /// `i`, and `"S{i+1}+{j+1}"`-style labels for combinations.
    pub fn sensor_condition_label(&self) -> String {
        if !self.sensor_misbehavior_detected() {
            return "S0".to_string();
        }
        let parts: Vec<String> = self
            .misbehaving_sensors
            .iter()
            .map(|i| (i + 1).to_string())
            .collect();
        format!("S{}", parts.join("+"))
    }

    /// The actuator condition label: `"A1"` under an actuator alarm,
    /// `"A0"` otherwise.
    pub fn actuator_condition_label(&self) -> &'static str {
        if self.actuator_alarm {
            "A1"
        } else {
            "A0"
        }
    }

    /// The per-sensor anomaly view for suite index `sensor`, if present.
    pub fn sensor_anomaly_for(&self, sensor: usize) -> Option<&SensorAnomaly> {
        self.per_sensor.iter().find(|s| s.sensor == sensor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank_report() -> DetectionReport {
        DetectionReport {
            iteration: 1,
            selected_mode: 0,
            mode_probabilities: vec![1.0],
            state_estimate: Vector::zeros(3),
            sensor_anomaly: AnomalyEstimate::empty(),
            actuator_anomaly: AnomalyEstimate::empty(),
            sensor_alarm: false,
            misbehaving_sensors: vec![],
            actuator_alarm: false,
            per_sensor: vec![],
        }
    }

    #[test]
    fn clean_report_labels() {
        let r = blank_report();
        assert!(!r.sensor_misbehavior_detected());
        assert_eq!(r.sensor_condition_label(), "S0");
        assert_eq!(r.actuator_condition_label(), "A0");
    }

    #[test]
    fn condition_labels_match_table_iii() {
        let mut r = blank_report();
        r.sensor_alarm = true;
        r.misbehaving_sensors = vec![0];
        assert_eq!(r.sensor_condition_label(), "S1"); // IPS
        r.misbehaving_sensors = vec![1];
        assert_eq!(r.sensor_condition_label(), "S2"); // wheel encoder
        r.misbehaving_sensors = vec![1, 2];
        assert_eq!(r.sensor_condition_label(), "S2+3"); // WE + LiDAR
        r.actuator_alarm = true;
        assert_eq!(r.actuator_condition_label(), "A1");
    }

    #[test]
    fn alarm_without_identification_is_not_detection() {
        let mut r = blank_report();
        r.sensor_alarm = true;
        assert!(!r.sensor_misbehavior_detected());
        assert_eq!(r.sensor_condition_label(), "S0");
    }

    #[test]
    fn per_sensor_lookup() {
        let mut r = blank_report();
        r.per_sensor.push(SensorAnomaly {
            sensor: 2,
            name: "lidar".into(),
            estimate: Vector::zeros(4),
            statistic: 0.5,
            exceeds: false,
            from_mode: 1,
        });
        assert!(r.sensor_anomaly_for(2).is_some());
        assert!(r.sensor_anomaly_for(0).is_none());
    }

    #[test]
    fn empty_anomaly_estimate_never_exceeds() {
        let e = AnomalyEstimate::empty();
        assert!(!e.exceeds);
        assert_eq!(e.statistic, 0.0);
        assert_eq!(e.threshold, f64::INFINITY);
    }
}
