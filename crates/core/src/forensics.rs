//! Forensic summarization of detection runs.
//!
//! The paper motivates anomaly-vector *quantification* explicitly: "For
//! forensics purposes, we intend to quantify the magnitude of the
//! anomaly by estimating `d^a_{k−1}` and `d^s_k`" (§III-C), and its
//! conclusion names post-detection forensics as the next step. This
//! module turns a stream of [`DetectionReport`]s into that artifact: a
//! timeline of *incidents* (contiguous confirmed conditions) with
//! per-workflow anomaly magnitude statistics an investigator can read.
//!
//! # Example
//!
//! ```
//! use roboads_core::forensics::ForensicLog;
//! use roboads_core::{ModeSet, RoboAds, RoboAdsConfig};
//! use roboads_linalg::Vector;
//! use roboads_models::presets;
//!
//! # fn main() -> Result<(), roboads_core::CoreError> {
//! let system = presets::khepera_system();
//! let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
//! let mut ads = RoboAds::with_defaults(system.clone(), x0.clone())?;
//! let mut log = ForensicLog::new(0.1);
//!
//! let u = Vector::from_slice(&[0.05, 0.05]);
//! let mut x = x0;
//! for k in 0..30 {
//!     x = system.dynamics().step(&x, &u);
//!     let mut readings: Vec<_> = (0..3)
//!         .map(|i| system.sensor(i).unwrap().measure(&x))
//!         .collect();
//!     if k >= 10 {
//!         readings[0][0] += 0.07;
//!     }
//!     log.push(&ads.step(&u, &readings)?);
//! }
//! let incidents = log.incidents();
//! assert_eq!(incidents.len(), 1);
//! assert_eq!(incidents[0].sensors, vec![0]);
//! # Ok(())
//! # }
//! ```

use roboads_linalg::Vector;

use crate::report::DetectionReport;

/// One contiguous confirmed misbehavior: the unit of a forensic report.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// Start time (seconds from the first pushed report).
    pub start: f64,
    /// End time (exclusive); equals the last report's time while the
    /// incident is still open.
    pub end: f64,
    /// Identified misbehaving sensor workflows (empty for a pure
    /// actuator incident).
    pub sensors: Vec<usize>,
    /// Whether an actuator misbehavior was confirmed.
    pub actuator: bool,
    /// Condition label, e.g. `"S2"`, `"A1"`, `"S2+A1"`.
    pub label: String,
    /// Mean per-sensor anomaly estimates over the incident, paired with
    /// the sensor index.
    pub mean_sensor_anomalies: Vec<(usize, Vector)>,
    /// Mean actuator anomaly estimate over the incident.
    pub mean_actuator_anomaly: Vector,
    /// Number of iterations the incident spanned.
    pub iterations: usize,
}

impl Incident {
    /// Largest absolute component over all quantified anomalies — a
    /// one-number severity for triage.
    pub fn peak_magnitude(&self) -> f64 {
        let sensor_peak = self
            .mean_sensor_anomalies
            .iter()
            .map(|(_, v)| v.max_abs())
            .fold(0.0f64, f64::max);
        sensor_peak.max(self.mean_actuator_anomaly.max_abs())
    }
}

/// Accumulates [`DetectionReport`]s and segments them into
/// [`Incident`]s.
#[derive(Debug, Clone, Default)]
pub struct ForensicLog {
    dt: f64,
    count: usize,
    incidents: Vec<Incident>,
    /// In-progress accumulation for the open incident, if any.
    open: Option<OpenIncident>,
}

#[derive(Debug, Clone)]
struct OpenIncident {
    start_iteration: usize,
    sensors: Vec<usize>,
    actuator: bool,
    sensor_sums: Vec<(usize, Vector)>,
    actuator_sum: Vector,
    iterations: usize,
}

impl ForensicLog {
    /// Creates a log for reports arriving every `dt` seconds.
    pub fn new(dt: f64) -> Self {
        ForensicLog {
            dt,
            count: 0,
            incidents: Vec::new(),
            open: None,
        }
    }

    /// Folds one report into the log.
    pub fn push(&mut self, report: &DetectionReport) {
        let sensors = if report.sensor_alarm {
            report.misbehaving_sensors.clone()
        } else {
            Vec::new()
        };
        let actuator = report.actuator_alarm;
        let condition_active = !sensors.is_empty() || actuator;

        let same_condition = self
            .open
            .as_ref()
            .map(|o| o.sensors == sensors && o.actuator == actuator)
            .unwrap_or(false);

        if !same_condition {
            self.close_open();
        }
        if condition_active {
            let open = self.open.get_or_insert_with(|| OpenIncident {
                start_iteration: self.count,
                sensors: sensors.clone(),
                actuator,
                sensor_sums: sensors
                    .iter()
                    .filter_map(|&s| {
                        report
                            .sensor_anomaly_for(s)
                            .map(|v| (s, Vector::zeros(v.estimate.len())))
                    })
                    .collect(),
                actuator_sum: Vector::zeros(report.actuator_anomaly.estimate.len()),
                iterations: 0,
            });
            for (s, sum) in &mut open.sensor_sums {
                if let Some(view) = report.sensor_anomaly_for(*s) {
                    *sum = &*sum + &view.estimate;
                }
            }
            open.actuator_sum = &open.actuator_sum + &report.actuator_anomaly.estimate;
            open.iterations += 1;
        }
        self.count += 1;
    }

    fn close_open(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        if open.iterations == 0 {
            return;
        }
        let n = open.iterations as f64;
        let label = {
            let mut parts: Vec<String> = Vec::new();
            if !open.sensors.is_empty() {
                parts.push(format!(
                    "S{}",
                    open.sensors
                        .iter()
                        .map(|s| (s + 1).to_string())
                        .collect::<Vec<_>>()
                        .join("+")
                ));
            }
            if open.actuator {
                parts.push("A1".to_string());
            }
            parts.join("+")
        };
        self.incidents.push(Incident {
            start: open.start_iteration as f64 * self.dt,
            end: (open.start_iteration + open.iterations) as f64 * self.dt,
            sensors: open.sensors,
            actuator: open.actuator,
            label,
            mean_sensor_anomalies: open
                .sensor_sums
                .into_iter()
                .map(|(s, sum)| (s, &sum * (1.0 / n)))
                .collect(),
            mean_actuator_anomaly: &open.actuator_sum * (1.0 / n),
            iterations: open.iterations,
        });
    }

    /// The closed incidents plus the currently open one, if any.
    pub fn incidents(&self) -> Vec<Incident> {
        let mut out = self.incidents.clone();
        let mut probe = self.clone();
        probe.close_open();
        if probe.incidents.len() > out.len() {
            out.push(probe.incidents.last().expect("just closed").clone());
        }
        out
    }

    /// Number of reports folded so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no reports have been folded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Renders a human-readable forensic report.
    pub fn render(&self, sensor_names: &[&str]) -> String {
        let incidents = self.incidents();
        let mut out = format!(
            "forensic report: {} iterations ({:.1} s), {} incident(s)\n",
            self.count,
            self.count as f64 * self.dt,
            incidents.len()
        );
        for (i, inc) in incidents.iter().enumerate() {
            out.push_str(&format!(
                "incident {}: {} during {:.1}–{:.1} s ({} iterations)\n",
                i + 1,
                inc.label,
                inc.start,
                inc.end,
                inc.iterations
            ));
            for (s, mean) in &inc.mean_sensor_anomalies {
                let name = sensor_names.get(*s).copied().unwrap_or("?");
                out.push_str(&format!("  sensor {name}: mean anomaly {mean:?}\n"));
            }
            if inc.actuator {
                out.push_str(&format!(
                    "  actuators: mean anomaly {:?}\n",
                    inc.mean_actuator_anomaly
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::RoboAds;
    use roboads_models::presets;

    fn run_with_attack(attack: impl Fn(usize, &mut Vec<Vector>), iterations: usize) -> ForensicLog {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut ads = RoboAds::with_defaults(system.clone(), x0.clone()).unwrap();
        let mut log = ForensicLog::new(0.1);
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x = x0;
        for k in 0..iterations {
            x = system.dynamics().step(&x, &u);
            let mut readings: Vec<Vector> = (0..3)
                .map(|i| system.sensor(i).unwrap().measure(&x))
                .collect();
            attack(k, &mut readings);
            log.push(&ads.step(&u, &readings).unwrap());
        }
        log
    }

    #[test]
    fn clean_run_has_no_incidents() {
        let log = run_with_attack(|_, _| {}, 40);
        assert!(log.incidents().is_empty());
        assert_eq!(log.len(), 40);
        assert!(!log.is_empty());
    }

    #[test]
    fn single_attack_becomes_one_incident_with_magnitude() {
        let log = run_with_attack(
            |k, r| {
                if k >= 10 {
                    r[0][0] += 0.07;
                }
            },
            40,
        );
        let incidents = log.incidents();
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(inc.sensors, vec![0]);
        assert_eq!(inc.label, "S1");
        assert!(inc.start >= 1.0 && inc.start <= 1.3, "start {}", inc.start);
        let (_, mean) = &inc.mean_sensor_anomalies[0];
        assert!((mean[0] - 0.07).abs() < 0.01, "quantified {mean:?}");
        assert!(inc.peak_magnitude() > 0.05);
    }

    #[test]
    fn bounded_attack_produces_closed_incident() {
        let log = run_with_attack(
            |k, r| {
                if (10..25).contains(&k) {
                    r[2][0] += 0.15;
                }
            },
            60,
        );
        let incidents = log.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].sensors, vec![2]);
        // The incident closes shortly after the attack ends.
        assert!(incidents[0].end < 3.5, "end {}", incidents[0].end);
    }

    #[test]
    fn render_mentions_workflow_names_and_times() {
        let log = run_with_attack(
            |k, r| {
                if k >= 10 {
                    r[1][1] += 0.08;
                }
            },
            40,
        );
        let text = log.render(&["ips", "wheel-encoder", "lidar"]);
        assert!(text.contains("incident 1: S2"));
        assert!(text.contains("wheel-encoder"));
        assert!(text.contains("1 incident"));
    }

    #[test]
    fn condition_changes_split_incidents() {
        let log = run_with_attack(
            |k, r| {
                if k >= 10 {
                    r[1][0] += 0.08; // encoder from 1 s
                }
                if k >= 25 {
                    r[0][0] += 0.09; // IPS joins at 2.5 s
                }
            },
            50,
        );
        let incidents = log.incidents();
        assert!(incidents.len() >= 2, "incidents {incidents:?}");
        assert_eq!(incidents[0].sensors, vec![1]);
        // The combined phase appears as its own incident (transition
        // blips between the two phases may add short extra incidents —
        // the 2-of-3-corrupted condition is genuinely ambiguous).
        let combined = incidents
            .iter()
            .find(|i| i.label == "S1+2")
            .unwrap_or_else(|| panic!("no combined incident in {incidents:?}"));
        assert_eq!(combined.sensors, vec![0, 1]);
    }
}
