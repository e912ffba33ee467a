use roboads_core::DetectionReport;
use roboads_linalg::Vector;

/// Everything recorded about one control iteration of a simulation run.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Iteration index `k` (0-based).
    pub k: usize,
    /// Wall-clock time `k · Δt`, seconds.
    pub time: f64,
    /// Ground-truth state after this iteration's motion.
    pub true_state: Vector,
    /// Planned control commands `u_{k−1}` the planner issued.
    pub planned_command: Vector,
    /// Executed commands after actuator misbehaviors.
    pub executed_command: Vector,
    /// Ground-truth actuator anomaly `d^a` injected this iteration.
    pub true_actuator_anomaly: Vector,
    /// Planner-visible readings per sensor.
    pub readings: Vec<Vector>,
    /// Ground-truth sensor anomalies `d^s` per sensor.
    pub true_sensor_anomalies: Vec<Vector>,
    /// The detector's report for this iteration.
    pub report: DetectionReport,
}

/// A full simulation trace: per-iteration records plus run metadata.
///
/// # Example
///
/// ```
/// use roboads_sim::{Scenario, SimulationBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let outcome = SimulationBuilder::khepera()
///     .scenario(Scenario::clean())
///     .duration(30)
///     .seed(1)
///     .run()?;
/// assert_eq!(outcome.trace.len(), 30);
/// assert!(outcome.trace.records()[29].time > 2.8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Trace {
    records: Vec<TraceRecord>,
    dt: f64,
    scenario_name: String,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(dt: f64, scenario_name: impl Into<String>) -> Self {
        Trace {
            records: Vec::new(),
            dt,
            scenario_name: scenario_name.into(),
        }
    }

    /// Appends a record.
    pub fn push(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    /// The per-iteration records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of recorded iterations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Control period Δt in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The scenario this trace came from.
    pub fn scenario_name(&self) -> &str {
        &self.scenario_name
    }

    /// Renders the Figure-6 panel series as CSV: per-iteration time,
    /// per-sensor anomaly estimate components, actuator anomaly
    /// components, test statistics and thresholds, and mode selections.
    pub fn to_figure6_csv(&self) -> String {
        let mut out = String::new();
        // Header from the first record's layout.
        out.push_str("time");
        if let Some(first) = self.records.first() {
            for s in &first.report.per_sensor {
                for c in 0..s.estimate.len() {
                    out.push_str(&format!(",{}_d{}", s.name, c));
                }
            }
            for c in 0..first.report.actuator_anomaly.estimate.len() {
                out.push_str(&format!(",actuator_d{c}"));
            }
            out.push_str(
                ",sensor_stat,sensor_threshold,actuator_stat,actuator_threshold,\
                 sensor_mode,actuator_mode",
            );
        }
        out.push('\n');
        for r in &self.records {
            out.push_str(&format!("{:.2}", r.time));
            for s in &r.report.per_sensor {
                for c in 0..s.estimate.len() {
                    out.push_str(&format!(",{:.6}", s.estimate[c]));
                }
            }
            let a = &r.report.actuator_anomaly;
            for c in 0..a.estimate.len() {
                out.push_str(&format!(",{:.6}", a.estimate[c]));
            }
            let sensor_mode = sensor_mode_code(&r.report.misbehaving_sensors);
            out.push_str(&format!(
                ",{:.4},{:.4},{:.4},{:.4},{},{}\n",
                r.report.sensor_anomaly.statistic,
                r.report.sensor_anomaly.threshold,
                a.statistic,
                a.threshold,
                sensor_mode,
                if r.report.actuator_alarm { 1 } else { 0 },
            ));
        }
        out
    }

    /// Renders the complete trace as CSV for external analysis or
    /// plotting: ground truth, commands, readings, estimates and
    /// decisions per iteration. Column counts follow the first record's
    /// layout.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let Some(first) = self.records.first() else {
            return out;
        };
        out.push_str("k,time");
        for c in 0..first.true_state.len() {
            out.push_str(&format!(",true_x{c}"));
        }
        for c in 0..first.planned_command.len() {
            out.push_str(&format!(",u_planned{c}"));
        }
        for c in 0..first.executed_command.len() {
            out.push_str(&format!(",u_executed{c}"));
        }
        for (i, r) in first.readings.iter().enumerate() {
            for c in 0..r.len() {
                out.push_str(&format!(",z{i}_{c}"));
            }
        }
        for c in 0..first.report.state_estimate.len() {
            out.push_str(&format!(",est_x{c}"));
        }
        out.push_str(
            ",sensor_stat,actuator_stat,sensor_mode,actuator_alarm
",
        );
        for r in &self.records {
            out.push_str(&format!("{},{:.2}", r.k, r.time));
            for &v in r.true_state.as_slice() {
                out.push_str(&format!(",{v:.6}"));
            }
            for &v in r.planned_command.as_slice() {
                out.push_str(&format!(",{v:.6}"));
            }
            for &v in r.executed_command.as_slice() {
                out.push_str(&format!(",{v:.6}"));
            }
            for z in &r.readings {
                for &v in z.as_slice() {
                    out.push_str(&format!(",{v:.6}"));
                }
            }
            for &v in r.report.state_estimate.as_slice() {
                out.push_str(&format!(",{v:.6}"));
            }
            out.push_str(&format!(
                ",{:.4},{:.4},{},{}
",
                r.report.sensor_anomaly.statistic,
                r.report.actuator_anomaly.statistic,
                sensor_mode_code(&r.report.misbehaving_sensors),
                u8::from(r.report.actuator_alarm),
            ));
        }
        out
    }
}

/// Maps an identified sensor set to the paper's Table-III mode number
/// (3-sensor suites: S0–S6; larger sets get a synthetic code).
pub(crate) fn sensor_mode_code(misbehaving: &[usize]) -> usize {
    match misbehaving {
        [] => 0,
        [0] => 1,
        [1] => 2,
        [2] => 3,
        [1, 2] => 4,
        [0, 2] => 5,
        [0, 1] => 6,
        _ => 6 + misbehaving.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboads_core::AnomalyEstimate;

    fn dummy_record(k: usize) -> TraceRecord {
        TraceRecord {
            k,
            time: k as f64 * 0.1,
            true_state: Vector::zeros(3),
            planned_command: Vector::zeros(2),
            executed_command: Vector::zeros(2),
            true_actuator_anomaly: Vector::zeros(2),
            readings: vec![Vector::zeros(3)],
            true_sensor_anomalies: vec![Vector::zeros(3)],
            report: DetectionReport {
                iteration: k as u64 + 1,
                selected_mode: 0,
                mode_probabilities: vec![1.0],
                state_estimate: Vector::zeros(3),
                sensor_anomaly: AnomalyEstimate::empty(),
                actuator_anomaly: AnomalyEstimate::empty(),
                sensor_alarm: false,
                misbehaving_sensors: vec![],
                actuator_alarm: false,
                per_sensor: vec![],
            },
        }
    }

    #[test]
    fn push_and_metadata() {
        let mut t = Trace::new(0.1, "test");
        assert!(t.is_empty());
        t.push(dummy_record(0));
        t.push(dummy_record(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.dt(), 0.1);
        assert_eq!(t.scenario_name(), "test");
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Trace::new(0.1, "test");
        t.push(dummy_record(0));
        let csv = t.to_figure6_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("time"));
        assert!(lines[1].starts_with("0.00"));
    }

    #[test]
    fn full_csv_has_header_and_all_rows() {
        let mut t = Trace::new(0.1, "test");
        t.push(dummy_record(0));
        t.push(dummy_record(1));
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("k,time,true_x0"));
        assert!(lines[0].ends_with("actuator_alarm"));
        // Every row has the same number of columns as the header.
        let cols = lines[0].split(',').count();
        assert!(lines[1..].iter().all(|l| l.split(',').count() == cols));
        assert!(Trace::new(0.1, "empty").to_csv().is_empty());
    }

    #[test]
    fn mode_codes_match_table_iii() {
        assert_eq!(sensor_mode_code(&[]), 0);
        assert_eq!(sensor_mode_code(&[0]), 1);
        assert_eq!(sensor_mode_code(&[1]), 2);
        assert_eq!(sensor_mode_code(&[2]), 3);
        assert_eq!(sensor_mode_code(&[1, 2]), 4);
        assert_eq!(sensor_mode_code(&[0, 2]), 5);
        assert_eq!(sensor_mode_code(&[0, 1]), 6);
        assert_eq!(sensor_mode_code(&[0, 1, 2]), 9);
    }
}
