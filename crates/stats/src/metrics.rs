//! Detection-quality metrics: confusion counts, precision/recall/F1 and
//! ROC curves.
//!
//! The RoboADS evaluation (§V) defines a **true positive** as an alarm
//! with the *correct* sensor/actuator condition identified; any other
//! positive is a **false positive**; a silent detector during a
//! misbehavior is a **false negative**; silence during clean operation is
//! a **true negative**. Figure 7 sweeps the decision parameters and plots
//! ROC curves and F1 scores built from these counts.

/// Confusion-matrix counts accumulated over detector iterations or runs.
///
/// # Example
///
/// ```
/// use roboads_stats::ConfusionCounts;
///
/// let mut c = ConfusionCounts::default();
/// c.record(true, true);   // attack present, correctly flagged
/// c.record(false, false); // clean, silent
/// c.record(false, true);  // clean, false alarm
/// assert_eq!(c.true_positives, 1);
/// assert!((c.false_positive_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionCounts {
    /// Alarms raised with the correct condition identified.
    pub true_positives: u64,
    /// Alarms raised when clean, or with the wrong condition identified.
    pub false_positives: u64,
    /// Misbehaving iterations with no (or wrong-silent) alarm.
    pub false_negatives: u64,
    /// Clean iterations with no alarm.
    pub true_negatives: u64,
}

impl ConfusionCounts {
    /// Records one binary outcome: whether an anomaly was truly present
    /// and whether the detector flagged (correctly) at that instant.
    ///
    /// For the paper's stricter definition (a positive with a wrong
    /// identification is a false positive *and* the misbehavior remains
    /// undetected), record with [`ConfusionCounts::record_identified`].
    pub fn record(&mut self, truth: bool, detected: bool) {
        match (truth, detected) {
            (true, true) => self.true_positives += 1,
            (true, false) => self.false_negatives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Records one outcome under the paper's identification-sensitive
    /// definition: `truth` is whether a misbehavior is active, `alarm`
    /// whether any alarm was raised, and `correct` whether the identified
    /// condition matches the ground truth.
    pub fn record_identified(&mut self, truth: bool, alarm: bool, correct: bool) {
        match (truth, alarm) {
            (true, true) if correct => self.true_positives += 1,
            (true, true) => {
                // Alarm with wrong identification: counted as a false
                // positive, per §V ("Otherwise, a positive detection
                // result is considered as a false positive").
                self.false_positives += 1;
            }
            (true, false) => self.false_negatives += 1,
            (false, true) => self.false_positives += 1,
            (false, false) => self.true_negatives += 1,
        }
    }

    /// Merges another set of counts into this one.
    pub fn merge(&mut self, other: &ConfusionCounts) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
        self.true_negatives += other.true_negatives;
    }

    /// Total recorded outcomes.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }

    /// `FP / (FP + TN)`; 0 when no negatives were recorded.
    pub fn false_positive_rate(&self) -> f64 {
        ratio(
            self.false_positives,
            self.false_positives + self.true_negatives,
        )
    }

    /// `FN / (FN + TP)`; 0 when no positives were recorded.
    pub fn false_negative_rate(&self) -> f64 {
        ratio(
            self.false_negatives,
            self.false_negatives + self.true_positives,
        )
    }

    /// `TP / (TP + FN)` (recall / sensitivity); 0 when no positives.
    pub fn true_positive_rate(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_negatives,
        )
    }

    /// `TP / (TP + FP)`; 0 when nothing was flagged.
    pub fn precision(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }

    /// Recall, alias of [`ConfusionCounts::true_positive_rate`].
    pub fn recall(&self) -> f64 {
        self.true_positive_rate()
    }

    /// Harmonic mean of precision and recall; 0 when both are 0.
    pub fn f1_score(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Detection-probability aggregation over repeated seeded trials of one
/// campaign grid point: how many trials detected the injected condition
/// and how long detection took, the `eval_attack_prob`-style statistic
/// behind a detection-probability curve.
///
/// # Example
///
/// ```
/// use roboads_stats::DetectionRate;
///
/// let mut r = DetectionRate::default();
/// r.record(Some(0.2)); // detected after 0.2 s
/// r.record(Some(0.4));
/// r.record(None);      // missed
/// assert!((r.probability() - 2.0 / 3.0).abs() < 1e-12);
/// assert!((r.mean_delay().unwrap() - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DetectionRate {
    /// Trials recorded.
    pub trials: u64,
    /// Trials in which the condition was detected.
    pub detections: u64,
    /// Sum of detection delays (seconds) over the detected trials.
    pub delay_sum: f64,
}

impl DetectionRate {
    /// Records one trial: `Some(delay_seconds)` when the condition was
    /// detected, `None` for a miss.
    pub fn record(&mut self, delay: Option<f64>) {
        self.trials += 1;
        if let Some(d) = delay {
            self.detections += 1;
            self.delay_sum += d;
        }
    }

    /// Fraction of trials that detected; 0 before any trial.
    pub fn probability(&self) -> f64 {
        ratio(self.detections, self.trials)
    }

    /// Mean time-to-detection over the detected trials; `None` when
    /// nothing was detected.
    pub fn mean_delay(&self) -> Option<f64> {
        if self.detections == 0 {
            None
        } else {
            Some(self.delay_sum / self.detections as f64)
        }
    }

    /// Merges another aggregation into this one (e.g. per-thread
    /// partials of the same grid point).
    pub fn merge(&mut self, other: &DetectionRate) {
        self.trials += other.trials;
        self.detections += other.detections;
        self.delay_sum += other.delay_sum;
    }
}

/// One operating point on a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// False positive rate at this operating point.
    pub false_positive_rate: f64,
    /// True positive rate at this operating point.
    pub true_positive_rate: f64,
    /// The parameter (e.g. significance level α) that produced the point.
    pub parameter: f64,
}

/// A ROC curve assembled from parameter-sweep operating points.
///
/// # Example
///
/// ```
/// use roboads_stats::{RocCurve, RocPoint};
///
/// let mut roc = RocCurve::new();
/// roc.push(RocPoint { false_positive_rate: 0.0, true_positive_rate: 0.0, parameter: 0.0005 });
/// roc.push(RocPoint { false_positive_rate: 0.1, true_positive_rate: 0.9, parameter: 0.05 });
/// roc.push(RocPoint { false_positive_rate: 1.0, true_positive_rate: 1.0, parameter: 0.995 });
/// assert!(roc.area_under_curve() > 0.8);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RocCurve {
    points: Vec<RocPoint>,
}

impl RocCurve {
    /// Creates an empty curve.
    pub fn new() -> Self {
        RocCurve::default()
    }

    /// Adds an operating point.
    pub fn push(&mut self, point: RocPoint) {
        self.points.push(point);
    }

    /// The operating points, sorted by false positive rate.
    pub fn sorted_points(&self) -> Vec<RocPoint> {
        let mut pts = self.points.clone();
        pts.sort_by(|a, b| {
            a.false_positive_rate
                .partial_cmp(&b.false_positive_rate)
                .expect("rates are finite")
        });
        pts
    }

    /// Raw points in insertion order.
    pub fn points(&self) -> &[RocPoint] {
        &self.points
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the curve has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Trapezoidal area under the curve, with the curve extended to the
    /// (0,0) and (1,1) corners.
    pub fn area_under_curve(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let mut pts = self.sorted_points();
        if pts.first().map(|p| p.false_positive_rate > 0.0) == Some(true) {
            pts.insert(
                0,
                RocPoint {
                    false_positive_rate: 0.0,
                    true_positive_rate: 0.0,
                    parameter: f64::NAN,
                },
            );
        }
        if pts.last().map(|p| p.false_positive_rate < 1.0) == Some(true) {
            pts.push(RocPoint {
                false_positive_rate: 1.0,
                true_positive_rate: 1.0,
                parameter: f64::NAN,
            });
        }
        let mut auc = 0.0;
        for pair in pts.windows(2) {
            let dx = pair[1].false_positive_rate - pair[0].false_positive_rate;
            auc += dx * 0.5 * (pair[0].true_positive_rate + pair[1].true_positive_rate);
        }
        auc
    }
}

impl FromIterator<RocPoint> for RocCurve {
    fn from_iter<I: IntoIterator<Item = RocPoint>>(iter: I) -> Self {
        RocCurve {
            points: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_from_known_counts() {
        let c = ConfusionCounts {
            true_positives: 90,
            false_positives: 5,
            false_negatives: 10,
            true_negatives: 95,
        };
        assert!((c.false_positive_rate() - 0.05).abs() < 1e-12);
        assert!((c.false_negative_rate() - 0.10).abs() < 1e-12);
        assert!((c.true_positive_rate() - 0.90).abs() < 1e-12);
        assert!((c.precision() - 90.0 / 95.0).abs() < 1e-12);
        assert_eq!(c.total(), 200);
    }

    #[test]
    fn empty_counts_do_not_divide_by_zero() {
        let c = ConfusionCounts::default();
        assert_eq!(c.false_positive_rate(), 0.0);
        assert_eq!(c.f1_score(), 0.0);
    }

    #[test]
    fn wrong_identification_counts_as_false_positive() {
        let mut c = ConfusionCounts::default();
        c.record_identified(true, true, false);
        assert_eq!(c.false_positives, 1);
        assert_eq!(c.true_positives, 0);
    }

    #[test]
    fn detection_rate_aggregates_probability_and_delay() {
        let mut r = DetectionRate::default();
        assert_eq!(r.probability(), 0.0);
        assert_eq!(r.mean_delay(), None);
        r.record(Some(0.1));
        r.record(None);
        let mut other = DetectionRate::default();
        other.record(Some(0.3));
        other.record(Some(0.2));
        r.merge(&other);
        assert_eq!(r.trials, 4);
        assert_eq!(r.detections, 3);
        assert!((r.probability() - 0.75).abs() < 1e-12);
        assert!((r.mean_delay().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ConfusionCounts::default();
        a.record(true, true);
        let mut b = ConfusionCounts::default();
        b.record(false, false);
        a.merge(&b);
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn f1_of_perfect_detector_is_one() {
        let c = ConfusionCounts {
            true_positives: 50,
            false_positives: 0,
            false_negatives: 0,
            true_negatives: 50,
        };
        assert_eq!(c.f1_score(), 1.0);
    }

    #[test]
    fn auc_of_perfect_curve_is_one() {
        let roc: RocCurve = [
            RocPoint {
                false_positive_rate: 0.0,
                true_positive_rate: 1.0,
                parameter: 0.01,
            },
            RocPoint {
                false_positive_rate: 1.0,
                true_positive_rate: 1.0,
                parameter: 0.99,
            },
        ]
        .into_iter()
        .collect();
        assert!((roc.area_under_curve() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_of_diagonal_is_half() {
        let roc: RocCurve = (0..=10)
            .map(|i| {
                let r = i as f64 / 10.0;
                RocPoint {
                    false_positive_rate: r,
                    true_positive_rate: r,
                    parameter: r,
                }
            })
            .collect();
        assert!((roc.area_under_curve() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sorted_points_order() {
        let mut roc = RocCurve::new();
        roc.push(RocPoint {
            false_positive_rate: 0.7,
            true_positive_rate: 1.0,
            parameter: 0.5,
        });
        roc.push(RocPoint {
            false_positive_rate: 0.1,
            true_positive_rate: 0.8,
            parameter: 0.01,
        });
        let pts = roc.sorted_points();
        assert!(pts[0].false_positive_rate < pts[1].false_positive_rate);
        assert_eq!(roc.len(), 2);
        assert!(!roc.is_empty());
    }

    #[test]
    fn empty_curve_auc_zero() {
        assert_eq!(RocCurve::new().area_under_curve(), 0.0);
    }
}
