//! Evaluation of a simulation trace under the paper's §V metrics.
//!
//! * **True positive** — the detector raises an alarm *and* identifies
//!   the correct sensor/actuator condition; any other positive is a
//!   **false positive**; a silent detector during a misbehavior is a
//!   **false negative**; silence when clean is a **true negative**.
//!   Counts are accumulated per control iteration.
//! * **Detection delay** — for each ground-truth condition transition,
//!   the time from the transition until the detector's identified
//!   condition first matches the new truth (the `S0→2→4`-style rows of
//!   Table II report one delay per transition, including recoveries).

use roboads_stats::ConfusionCounts;

use crate::scenario::GroundTruth;
use crate::trace::{sensor_mode_code, Trace};

/// The delay of one ground-truth condition transition.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionDelay {
    /// Time of the ground-truth transition, seconds.
    pub at: f64,
    /// Target condition label (`"S2"`, `"A1"`, …).
    pub condition: String,
    /// Seconds until the detector matched the new condition; `None` if
    /// it never did before the next transition (a miss).
    pub delay: Option<f64>,
}

/// Aggregated evaluation of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// The scenario name.
    pub scenario: String,
    /// Per-iteration sensor-condition confusion counts
    /// (identification-sensitive).
    pub sensor_counts: ConfusionCounts,
    /// Per-iteration actuator confusion counts.
    pub actuator_counts: ConfusionCounts,
    /// Sensor-condition transitions with delays.
    pub sensor_transitions: Vec<TransitionDelay>,
    /// Actuator-condition transitions with delays.
    pub actuator_transitions: Vec<TransitionDelay>,
    /// The sequence of distinct detected sensor conditions, e.g.
    /// `["S0", "S2", "S4"]`.
    pub detected_sensor_sequence: Vec<String>,
    /// The sequence of distinct detected actuator conditions.
    pub detected_actuator_sequence: Vec<String>,
}

impl EvalResult {
    /// Sensor false positive rate over the run.
    pub fn sensor_fpr(&self) -> f64 {
        self.sensor_counts.false_positive_rate()
    }

    /// Sensor false negative rate over the run.
    pub fn sensor_fnr(&self) -> f64 {
        self.sensor_counts.false_negative_rate()
    }

    /// Actuator false positive rate over the run.
    pub fn actuator_fpr(&self) -> f64 {
        self.actuator_counts.false_positive_rate()
    }

    /// Actuator false negative rate over the run.
    pub fn actuator_fnr(&self) -> f64 {
        self.actuator_counts.false_negative_rate()
    }

    /// Mean sensor detection delay over the detected (non-missed)
    /// transitions into a misbehaving condition; `None` when the run
    /// had no such detected transition.
    pub fn sensor_delay(&self) -> Option<f64> {
        mean_delay(&self.sensor_transitions)
    }

    /// Mean actuator detection delay; `None` when not applicable.
    pub fn actuator_delay(&self) -> Option<f64> {
        mean_delay(&self.actuator_transitions)
    }

    /// Whether any ground-truth transition was never matched.
    pub fn missed_transition(&self) -> bool {
        self.sensor_transitions
            .iter()
            .chain(self.actuator_transitions.iter())
            .any(|t| t.delay.is_none())
    }
}

fn mean_delay(transitions: &[TransitionDelay]) -> Option<f64> {
    let delays: Vec<f64> = transitions
        .iter()
        .filter(|t| t.condition != "S0" && t.condition != "A0")
        .filter_map(|t| t.delay)
        .collect();
    if delays.is_empty() {
        None
    } else {
        Some(delays.iter().sum::<f64>() / delays.len() as f64)
    }
}

/// Evaluates a trace against a scenario's ground truth.
pub fn evaluate(trace: &Trace, ground_truth: &GroundTruth) -> EvalResult {
    let dt = trace.dt();
    let mut sensor_counts = ConfusionCounts::default();
    let mut actuator_counts = ConfusionCounts::default();

    // Per-iteration truth and detected condition codes.
    let mut truth_sensor = Vec::with_capacity(trace.len());
    let mut truth_actuator = Vec::with_capacity(trace.len());
    let mut detected_sensor = Vec::with_capacity(trace.len());
    let mut detected_actuator = Vec::with_capacity(trace.len());

    for r in trace.records() {
        let t_sensors = ground_truth.sensors_at(r.k);
        let t_act = ground_truth.actuator_at(r.k);
        let d_sensors = r.report.misbehaving_sensors.clone();
        let d_act = r.report.actuator_alarm;

        sensor_counts.record_identified(
            !t_sensors.is_empty(),
            !d_sensors.is_empty(),
            d_sensors == t_sensors,
        );
        actuator_counts.record(t_act, d_act);

        truth_sensor.push(t_sensors);
        truth_actuator.push(t_act);
        detected_sensor.push(d_sensors);
        detected_actuator.push(d_act);
    }

    let sensor_transitions = transitions(&truth_sensor, &detected_sensor, dt, |v| {
        format!("S{}", sensor_mode_code(v))
    });
    let actuator_transitions = transitions(&truth_actuator, &detected_actuator, dt, |&v| {
        if v {
            "A1".to_string()
        } else {
            "A0".to_string()
        }
    });

    EvalResult {
        scenario: trace.scenario_name().to_string(),
        sensor_counts,
        actuator_counts,
        sensor_transitions,
        actuator_transitions,
        detected_sensor_sequence: distinct_sequence(&detected_sensor, |v| {
            format!("S{}", sensor_mode_code(v))
        }),
        detected_actuator_sequence: distinct_sequence(&detected_actuator, |&v| {
            if v {
                "A1".to_string()
            } else {
                "A0".to_string()
            }
        }),
    }
}

/// Finds ground-truth change points and the delay until the detected
/// stream matches each new value (searching until the next change
/// point).
fn transitions<T: PartialEq>(
    truth: &[T],
    detected: &[T],
    dt: f64,
    label: impl Fn(&T) -> String,
) -> Vec<TransitionDelay> {
    let mut out = Vec::new();
    let mut change_points: Vec<usize> = Vec::new();
    for k in 1..truth.len() {
        if truth[k] != truth[k - 1] {
            change_points.push(k);
        }
    }
    for (i, &k0) in change_points.iter().enumerate() {
        let window_end = change_points.get(i + 1).copied().unwrap_or(truth.len());
        let delay = (k0..window_end)
            .find(|&k| detected[k] == truth[k0])
            .map(|k| (k - k0) as f64 * dt);
        out.push(TransitionDelay {
            at: k0 as f64 * dt,
            condition: label(&truth[k0]),
            delay,
        });
    }
    out
}

/// Minimum dwell (iterations) for a detected condition to appear in the
/// reported sequence; shorter blips are transition transients.
const SEQUENCE_PERSISTENCE: usize = 3;

/// Collapses a detected stream into its sequence of distinct *persistent*
/// values: a condition enters the sequence only after holding for
/// [`SEQUENCE_PERSISTENCE`] consecutive iterations (or at the very start
/// / end of the run), so one-iteration transition transients do not
/// clutter the Table-II-style result strings. The confusion counts are
/// computed per iteration and are unaffected by this filtering.
fn distinct_sequence<T: PartialEq>(stream: &[T], label: impl Fn(&T) -> String) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < stream.len() {
        // Length of the run starting at i.
        let mut j = i;
        while j < stream.len() && stream[j] == stream[i] {
            j += 1;
        }
        let run_len = j - i;
        if run_len >= SEQUENCE_PERSISTENCE || i == 0 || j == stream.len() {
            let l = label(&stream[i]);
            if out.last() != Some(&l) {
                out.push(l);
            }
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misbehavior::{Corruption, Misbehavior, Target};
    use crate::scenario::Scenario;
    use crate::trace::TraceRecord;
    use roboads_core::{AnomalyEstimate, DetectionReport};
    use roboads_linalg::Vector;

    /// Builds a synthetic trace where the detector reports `detected`
    /// at each iteration.
    fn synthetic_trace(detected: Vec<(Vec<usize>, bool)>) -> Trace {
        let mut t = Trace::new(0.1, "synthetic");
        for (k, (sensors, act)) in detected.into_iter().enumerate() {
            t.push(TraceRecord {
                k,
                time: k as f64 * 0.1,
                true_state: Vector::zeros(3),
                planned_command: Vector::zeros(2),
                executed_command: Vector::zeros(2),
                true_actuator_anomaly: Vector::zeros(2),
                readings: vec![],
                true_sensor_anomalies: vec![],
                report: DetectionReport {
                    iteration: k as u64 + 1,
                    selected_mode: 0,
                    mode_probabilities: vec![1.0],
                    state_estimate: Vector::zeros(3),
                    sensor_anomaly: AnomalyEstimate::empty(),
                    actuator_anomaly: AnomalyEstimate::empty(),
                    sensor_alarm: !sensors.is_empty(),
                    misbehaving_sensors: sensors,
                    actuator_alarm: act,
                    per_sensor: vec![],
                },
            });
        }
        t
    }

    fn scenario_sensor0_from(start: usize, duration: usize) -> Scenario {
        Scenario::new(
            0,
            "synthetic",
            "",
            vec![Misbehavior::new(
                "bias",
                Target::Sensor(0),
                Corruption::Bias(Vector::zeros(3)),
                start,
                None,
            )],
            duration,
        )
    }

    #[test]
    fn perfect_detection_with_two_step_delay() {
        // Truth: sensor 0 misbehaves from k=5; detector catches at k=7.
        let detected: Vec<(Vec<usize>, bool)> = (0..20)
            .map(|k| (if k >= 7 { vec![0] } else { vec![] }, false))
            .collect();
        let trace = synthetic_trace(detected);
        let gt = scenario_sensor0_from(5, 20).ground_truth();
        let eval = evaluate(&trace, &gt);

        assert_eq!(eval.sensor_counts.true_positives, 13);
        assert_eq!(eval.sensor_counts.false_negatives, 2); // k=5,6
        assert_eq!(eval.sensor_counts.true_negatives, 5);
        assert_eq!(eval.sensor_counts.false_positives, 0);
        assert_eq!(eval.sensor_transitions.len(), 1);
        let t = &eval.sensor_transitions[0];
        assert_eq!(t.condition, "S1");
        assert!((t.delay.unwrap() - 0.2).abs() < 1e-12);
        assert!((eval.sensor_delay().unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(eval.detected_sensor_sequence, vec!["S0", "S1"]);
        assert!(!eval.missed_transition());
    }

    #[test]
    fn wrong_identification_is_false_positive() {
        // Truth: sensor 0; detector blames sensor 1 throughout.
        let detected: Vec<(Vec<usize>, bool)> = (0..10).map(|_| (vec![1], false)).collect();
        let trace = synthetic_trace(detected);
        let gt = scenario_sensor0_from(0, 10).ground_truth();
        let eval = evaluate(&trace, &gt);
        assert_eq!(eval.sensor_counts.true_positives, 0);
        assert_eq!(eval.sensor_counts.false_positives, 10);
    }

    #[test]
    fn missed_attack_is_false_negative_and_missed_transition() {
        let detected: Vec<(Vec<usize>, bool)> = (0..10).map(|_| (vec![], false)).collect();
        let trace = synthetic_trace(detected);
        let gt = scenario_sensor0_from(4, 10).ground_truth();
        let eval = evaluate(&trace, &gt);
        assert_eq!(eval.sensor_counts.false_negatives, 6);
        assert!(eval.missed_transition());
        assert_eq!(eval.sensor_delay(), None);
    }

    #[test]
    fn actuator_rates() {
        let detected: Vec<(Vec<usize>, bool)> =
            (0..10).map(|k| (vec![], k == 2 || k >= 5)).collect();
        let trace = synthetic_trace(detected);
        let s = Scenario::new(
            0,
            "a",
            "",
            vec![Misbehavior::new(
                "bias",
                Target::Actuators,
                Corruption::Bias(Vector::zeros(2)),
                5,
                None,
            )],
            10,
        );
        let eval = evaluate(&trace, &s.ground_truth());
        // k=2 false alarm among 5 clean iterations.
        assert!((eval.actuator_fpr() - 0.2).abs() < 1e-12);
        assert_eq!(eval.actuator_fnr(), 0.0);
        assert_eq!(eval.actuator_transitions[0].condition, "A1");
        assert_eq!(eval.actuator_transitions[0].delay, Some(0.0));
        // The one-iteration blip at k = 2 is filtered out of the
        // reported sequence (it still counts as a false positive above).
        assert_eq!(eval.detected_actuator_sequence, vec!["A0", "A1"]);
    }

    /// A misbehavior active from the very first iteration produces no
    /// change point (change points are detected from k = 1), so no
    /// transition-delay row exists — but the per-iteration confusion
    /// counts still see every misbehaving iteration.
    #[test]
    fn misbehavior_active_at_k0_yields_no_transition_but_full_counts() {
        let detected: Vec<(Vec<usize>, bool)> = (0..10)
            .map(|k| (if k >= 2 { vec![0] } else { vec![] }, false))
            .collect();
        let trace = synthetic_trace(detected);
        let gt = scenario_sensor0_from(0, 10).ground_truth();
        let eval = evaluate(&trace, &gt);
        assert!(eval.sensor_transitions.is_empty(), "no change point at k=0");
        assert_eq!(eval.sensor_delay(), None);
        assert!(!eval.missed_transition());
        assert_eq!(eval.sensor_counts.false_negatives, 2); // k=0,1
        assert_eq!(eval.sensor_counts.true_positives, 8);
        assert_eq!(eval.sensor_counts.true_negatives, 0);
    }

    /// Back-to-back change points: each transition's search window ends
    /// at the next change point, so a one-iteration condition gives the
    /// detector exactly one iteration to match — anything slower is a
    /// miss for that transition, not a late detection.
    #[test]
    fn back_to_back_change_points_have_zero_width_windows() {
        // Truth: clean, sensor 0 only at k=4, clean again from k=5.
        let s = Scenario::new(
            0,
            "blip",
            "",
            vec![Misbehavior::new(
                "bias",
                Target::Sensor(0),
                Corruption::Bias(Vector::zeros(3)),
                4,
                Some(5),
            )],
            10,
        );
        // Detector matches the blip one step late — inside the *next*
        // window, so the S1 transition is a miss and the S0 recovery is
        // matched late.
        let detected: Vec<(Vec<usize>, bool)> = (0..10)
            .map(|k| (if k == 5 { vec![0] } else { vec![] }, false))
            .collect();
        let eval = evaluate(&synthetic_trace(detected), &s.ground_truth());
        assert_eq!(eval.sensor_transitions.len(), 2);
        assert_eq!(eval.sensor_transitions[0].condition, "S1");
        assert_eq!(
            eval.sensor_transitions[0].delay, None,
            "window was k=4 only"
        );
        assert_eq!(eval.sensor_transitions[1].condition, "S0");
        assert!((eval.sensor_transitions[1].delay.unwrap() - 0.1).abs() < 1e-12);
        assert!(eval.missed_transition());
        // An exact hit inside the one-iteration window is delay 0.
        let detected: Vec<(Vec<usize>, bool)> = (0..10)
            .map(|k| (if k == 4 { vec![0] } else { vec![] }, false))
            .collect();
        let eval = evaluate(&synthetic_trace(detected), &s.ground_truth());
        assert_eq!(eval.sensor_transitions[0].delay, Some(0.0));
        assert_eq!(eval.sensor_transitions[1].delay, Some(0.0));
    }

    /// `distinct_sequence` boundary semantics: runs shorter than
    /// `SEQUENCE_PERSISTENCE` are dropped mid-stream but kept at the
    /// very start and very end of the run, and adjacent kept runs with
    /// the same label collapse.
    #[test]
    fn distinct_sequence_keeps_short_runs_only_at_the_boundaries() {
        let label = |v: &i32| format!("V{v}");
        // Short head (1), short mid blip (1, dropped), long mid (3),
        // short tail (2, kept).
        let stream = [7, 0, 0, 0, 9, 0, 0, 0, 8, 8];
        assert_eq!(
            distinct_sequence(&stream, label),
            vec!["V7", "V0", "V8"],
            "head and tail blips kept, mid blip dropped"
        );
        // The dropped mid blip must not split the surrounding run: the
        // two V0 runs collapse into one entry.
        let stream = [0, 0, 0, 9, 0, 0, 0];
        assert_eq!(distinct_sequence(&stream, label), vec!["V0"]);
        // A stream shorter than the persistence is entirely boundary.
        let stream = [1, 2];
        assert_eq!(distinct_sequence(&stream, label), vec!["V1", "V2"]);
        let empty: [i32; 0] = [];
        assert!(distinct_sequence(&empty, label).is_empty());
    }

    #[test]
    fn recovery_transition_has_its_own_delay() {
        // Truth: sensor 2 misbehaves on k=3..6, then recovers.
        let s = Scenario::new(
            0,
            "r",
            "",
            vec![Misbehavior::new(
                "bias",
                Target::Sensor(2),
                Corruption::Bias(Vector::zeros(4)),
                3,
                Some(6),
            )],
            12,
        );
        // Detector lags each change by one step.
        let detected: Vec<(Vec<usize>, bool)> = (0..12)
            .map(|k| (if (4..7).contains(&k) { vec![2] } else { vec![] }, false))
            .collect();
        let eval = evaluate(&synthetic_trace(detected), &s.ground_truth());
        assert_eq!(eval.sensor_transitions.len(), 2);
        assert_eq!(eval.sensor_transitions[0].condition, "S3");
        assert!((eval.sensor_transitions[0].delay.unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(eval.sensor_transitions[1].condition, "S0");
        assert!((eval.sensor_transitions[1].delay.unwrap() - 0.1).abs() < 1e-12);
        // Recovery delays are excluded from the misbehavior delay mean.
        assert!((eval.sensor_delay().unwrap() - 0.1).abs() < 1e-12);
    }
}
