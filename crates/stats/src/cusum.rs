use crate::{Result, StatsError};

/// One-sided CUSUM change detector on a statistic stream.
///
/// The paper confirms alarms with `c`-of-`w` sliding windows (§IV-D); a
/// cumulative-sum detector is the classical alternative, accumulating
/// evidence `S_k = max(0, S_{k−1} + (x_k − reference))` and alarming when
/// `S_k > threshold`. Compared to windows it reacts faster to small
/// persistent shifts (evidence accumulates without expiring) at the cost
/// of a tunable drift parameter. The `ablations` bench harness compares
/// both on the recorded χ² statistic streams.
///
/// # Example
///
/// ```
/// use roboads_stats::Cusum;
///
/// // In control around 3 (χ²(3) mean); alarm on persistent elevation.
/// let mut cusum = Cusum::new(5.0, 20.0).unwrap();
/// for _ in 0..100 {
///     assert!(!cusum.push(3.0)); // below the reference: no accumulation
/// }
/// let mut fired = false;
/// for _ in 0..10 {
///     fired = cusum.push(9.0); // persistent +4 over the reference
/// }
/// assert!(fired);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cusum {
    reference: f64,
    threshold: f64,
    statistic: f64,
}

impl Cusum {
    /// Creates a detector with the given reference (drift) level and
    /// alarm threshold.
    ///
    /// The reference should sit between the in-control mean of the
    /// monitored statistic and the smallest shift worth detecting; the
    /// threshold trades detection delay against false-alarm rate.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for non-finite values or
    /// a non-positive threshold.
    pub fn new(reference: f64, threshold: f64) -> Result<Self> {
        if !reference.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "reference",
                value: format!("{reference}"),
            });
        }
        if !(threshold.is_finite() && threshold > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "threshold",
                value: format!("{threshold}"),
            });
        }
        Ok(Cusum {
            reference,
            threshold,
            statistic: 0.0,
        })
    }

    /// Folds one observation; returns whether the accumulated evidence
    /// exceeds the threshold. Non-finite observations saturate the
    /// statistic (a broken stream must alarm, not pass).
    pub fn push(&mut self, value: f64) -> bool {
        if !value.is_finite() {
            self.statistic = self.threshold + 1.0;
            return true;
        }
        self.statistic = (self.statistic + value - self.reference).max(0.0);
        self.statistic > self.threshold
    }

    /// Current accumulated evidence.
    pub fn statistic(&self) -> f64 {
        self.statistic
    }

    /// The alarm threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Clears the accumulated evidence (after handling an alarm).
    pub fn reset(&mut self) {
        self.statistic = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{SeedableRng, StdRng};
    use crate::ChiSquared;
    use crate::GaussianSampler;

    #[test]
    fn in_control_stream_never_accumulates() {
        let mut c = Cusum::new(5.0, 10.0).unwrap();
        for i in 0..1000 {
            assert!(!c.push(3.0 + (i % 3) as f64 * 0.5));
        }
        assert_eq!(c.statistic(), 0.0);
    }

    #[test]
    fn persistent_shift_fires_with_accumulating_evidence() {
        let mut c = Cusum::new(5.0, 20.0).unwrap();
        let mut fired_at = None;
        for k in 0..50 {
            if c.push(9.0) && fired_at.is_none() {
                fired_at = Some(k);
            }
        }
        // 4 per step over the reference → fires after ~5 observations.
        assert_eq!(fired_at, Some(5));
    }

    #[test]
    fn single_spike_is_absorbed() {
        let mut c = Cusum::new(5.0, 20.0).unwrap();
        assert!(!c.push(15.0)); // +10 of evidence, below threshold
        for _ in 0..20 {
            assert!(!c.push(3.0)); // decays back to zero
        }
        assert_eq!(c.statistic(), 0.0);
    }

    #[test]
    fn smaller_shift_takes_longer_than_larger_shift() {
        let delay = |shift: f64| {
            let mut c = Cusum::new(5.0, 20.0).unwrap();
            (0..1000).find(|_| c.push(5.0 + shift)).unwrap()
        };
        assert!(delay(1.0) > delay(4.0));
    }

    #[test]
    fn calibrated_on_chi_square_noise_stays_quiet() {
        // Feed genuine χ²(3) noise (mean 3): reference 6 ≈ mean + 3σ/2.
        let chi = ChiSquared::new(3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = GaussianSampler::new();
        let mut c = Cusum::new(6.0, 25.0).unwrap();
        let mut alarms = 0;
        for _ in 0..5000 {
            // χ²(3) = sum of three squared standard normals.
            let x = (0..3).map(|_| g.sample(&mut rng).powi(2)).sum::<f64>();
            let _ = chi.cdf(x).unwrap();
            if c.push(x) {
                alarms += 1;
                c.reset();
            }
        }
        assert!(alarms <= 2, "false alarms: {alarms}");
    }

    #[test]
    fn non_finite_observation_alarms() {
        let mut c = Cusum::new(5.0, 20.0).unwrap();
        assert!(c.push(f64::NAN));
        c.reset();
        assert_eq!(c.statistic(), 0.0);
    }

    /// Reset-after-alarm semantics: once the alarm is handled and the
    /// detector reset, prior evidence is gone — the same shift must
    /// re-accumulate from zero and fire with the same delay as a fresh
    /// detector, not instantly.
    #[test]
    fn reset_after_alarm_restarts_evidence_from_zero() {
        let first_fire = |c: &mut Cusum| (0..1000).find(|_| c.push(9.0)).unwrap();
        let mut c = Cusum::new(5.0, 20.0).unwrap();
        let cold = first_fire(&mut c);
        assert!(c.statistic() > c.threshold());
        c.reset();
        assert_eq!(c.statistic(), 0.0);
        let warm = first_fire(&mut c);
        assert_eq!(cold, warm, "reset must erase all accumulated evidence");
    }

    /// Saturation-then-reset: a non-finite observation pins the
    /// statistic just above the threshold, every further observation
    /// keeps alarming from that saturated state, and a reset fully
    /// recovers the detector — in-control data stays quiet afterwards.
    #[test]
    fn saturation_then_reset_recovers_cleanly() {
        let mut c = Cusum::new(5.0, 20.0).unwrap();
        assert!(c.push(f64::INFINITY));
        assert_eq!(c.statistic(), c.threshold() + 1.0);
        // The saturated state keeps the alarm latched even for
        // in-control observations (evidence 21 − 2 = 19 < threshold
        // would clear it only after decay; a fresh non-finite re-pins).
        assert!(c.push(f64::NEG_INFINITY));
        assert!(c.push(f64::NAN));
        assert_eq!(c.statistic(), c.threshold() + 1.0);
        c.reset();
        assert_eq!(c.statistic(), 0.0);
        for _ in 0..100 {
            assert!(!c.push(3.0), "reset detector must be quiet in-control");
        }
    }

    #[test]
    fn validation_and_accessors() {
        assert!(Cusum::new(f64::NAN, 10.0).is_err());
        assert!(Cusum::new(5.0, 0.0).is_err());
        let c = Cusum::new(5.0, 10.0).unwrap();
        assert_eq!(c.threshold(), 10.0);
    }
}
