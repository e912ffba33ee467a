use roboads_obs::wire;

use crate::{CoreError, Result};

/// The mode selector of Algorithm 1 (lines 6–9): maintains normalized
/// mode probabilities `μ_m ← max(N_m·μ_m, ε)` and selects the most
/// likely sensor-condition hypothesis.
///
/// The floor `ε` keeps a momentarily implausible mode recoverable: after
/// an attack ends, the previously "wrong" hypothesis can win again
/// within a few iterations instead of being locked out by a vanishing
/// probability. The floor is applied both before and after
/// normalization (the paper applies it before; re-applying after
/// normalization guards against underflow when one likelihood dwarfs
/// the others by hundreds of orders of magnitude).
///
/// In addition, each update mixes the probabilities toward uniform with
/// rate [`MODE_MIXING`] — the standard interacting-multiple-model
/// transition prior. §VI observes that "experienced attackers could
/// frequently switch attack targets, making mode estimation
/// challenging"; the mixing term is exactly a nonzero prior on such
/// switches, and it bounds how far a temporarily out-of-favor clean
/// hypothesis can be starved by the multiplicative update.
///
/// # Example
///
/// ```
/// use roboads_core::ModeSelector;
///
/// let mut sel = ModeSelector::uniform(3, 1e-6).unwrap();
/// // Mode 1 explains the data far better for a few iterations.
/// for _ in 0..3 {
///     sel.update(&[0.1, 100.0, 0.1]).unwrap();
/// }
/// assert_eq!(sel.selected(), 1);
/// assert!(sel.probabilities()[1] > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModeSelector {
    probabilities: Vec<f64>,
    floor: f64,
    mixing: f64,
    selected: usize,
    /// Whether the last [`ModeSelector::update`] floored *every* mode:
    /// each `μ·N` (with non-finite or negative likelihoods sanitized to
    /// zero) fell to the floor `ε`. The floor then renormalizes the bank
    /// to near-uniform — indistinguishable, from the probabilities alone,
    /// from healthy uncertainty — so the condition must stay queryable:
    /// a fleet-wide filter blow-up is an alarm, not a shrug.
    all_floored: bool,
}

/// Per-iteration mixing rate toward the uniform distribution (the
/// mode-switch prior).
pub const MODE_MIXING: f64 = 0.02;

/// Selection hysteresis: the incumbent mode stays selected unless a
/// challenger's probability exceeds the incumbent's by this factor.
/// Near-ties between competing self-consistent hypotheses otherwise
/// flap on noise.
pub const SELECTION_HYSTERESIS: f64 = 3.0;

impl ModeSelector {
    /// Creates a selector with uniform initial probabilities over
    /// `mode_count` modes and the given floor `ε`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero modes or a floor
    /// outside `(0, 1)`.
    pub fn uniform(mode_count: usize, floor: f64) -> Result<Self> {
        if mode_count == 0 {
            return Err(CoreError::InvalidConfig {
                name: "mode_count",
                value: "0".into(),
            });
        }
        if !(floor.is_finite() && floor > 0.0 && floor < 1.0) {
            return Err(CoreError::InvalidConfig {
                name: "mode_floor",
                value: format!("{floor}"),
            });
        }
        Ok(ModeSelector {
            probabilities: vec![1.0 / mode_count as f64; mode_count],
            floor,
            mixing: MODE_MIXING,
            selected: 0,
            all_floored: false,
        })
    }

    /// Returns a copy with a different mixing rate (0 disables the
    /// transition prior — ablation only; recovery after attacks then
    /// relies on the floor alone).
    pub fn with_mixing(mut self, mixing: f64) -> Self {
        self.mixing = mixing.clamp(0.0, 0.999);
        self
    }

    /// Folds one iteration's likelihoods into the probabilities and
    /// returns the selected (most likely) mode index; ties resolve to
    /// the lowest index.
    ///
    /// Non-finite or negative likelihoods are treated as zero — a mode
    /// whose filter blew up must not win the selection.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the likelihood count does
    /// not match the mode count.
    pub fn update(&mut self, likelihoods: &[f64]) -> Result<usize> {
        if likelihoods.len() != self.probabilities.len() {
            return Err(CoreError::InvalidConfig {
                name: "likelihoods",
                value: format!(
                    "{} values for {} modes",
                    likelihoods.len(),
                    self.probabilities.len()
                ),
            });
        }
        let mut floored = true;
        for (mu, &n) in self.probabilities.iter_mut().zip(likelihoods) {
            let n = if n.is_finite() && n > 0.0 { n } else { 0.0 };
            let weighted = *mu * n;
            floored &= weighted <= self.floor;
            *mu = weighted.max(self.floor);
        }
        self.all_floored = floored;
        let sum: f64 = self.probabilities.iter().sum();
        if sum > 0.0 && sum.is_finite() {
            for mu in &mut self.probabilities {
                *mu = (*mu / sum).max(self.floor);
            }
            // Flooring after normalization can push the sum above 1;
            // renormalize so the output is a proper distribution, then
            // mix toward uniform (the mode-switch prior).
            let sum2: f64 = self.probabilities.iter().sum();
            let uniform = 1.0 / self.probabilities.len() as f64;
            for mu in &mut self.probabilities {
                *mu = (1.0 - self.mixing) * (*mu / sum2) + self.mixing * uniform;
            }
        } else {
            // All hypotheses died (e.g. every reading NaN-adjacent):
            // restart from uniform rather than divide by zero.
            let uniform = 1.0 / self.probabilities.len() as f64;
            self.probabilities.fill(uniform);
        }
        let argmax = self
            .probabilities
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("probabilities are finite"))
            .map(|(i, _)| i)
            .expect("nonempty probabilities");
        // Hysteresis: keep the incumbent through near-ties.
        if argmax != self.selected
            && self.probabilities[argmax] < self.probabilities[self.selected] * SELECTION_HYSTERESIS
        {
            return Ok(self.selected);
        }
        self.selected = argmax;
        Ok(self.selected)
    }

    /// The currently selected mode.
    pub fn selected(&self) -> usize {
        self.selected
    }

    /// Whether the last [`ModeSelector::update`] floored *every* mode:
    /// each mode's `μ·N` fell to the floor (a likelihood that is zero,
    /// negative or non-finite always does), so no hypothesis explains the
    /// data and the near-uniform probabilities carry no information. Callers should surface this (the engine
    /// emits `engine.all_modes_floored`) rather than read the uniform
    /// output as healthy uncertainty.
    pub fn all_floored(&self) -> bool {
        self.all_floored
    }

    /// The normalized mode probabilities.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Resets to uniform probabilities.
    pub fn reset(&mut self) {
        let uniform = 1.0 / self.probabilities.len() as f64;
        self.probabilities.fill(uniform);
        self.selected = 0;
    }

    /// Appends the selector's mutable state to a snapshot buffer
    /// (DESIGN.md §18). `floor`/`mixing` are construction-time
    /// configuration and belong to the restore twin, not the snapshot.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        wire::put_f64_slice(out, &self.probabilities);
        wire::put_u64(out, self.selected as u64);
        wire::put_bool(out, self.all_floored);
    }

    /// Restores the selector's mutable state from a snapshot buffer.
    pub(crate) fn snap_read(&mut self, rd: &mut wire::ByteReader<'_>) -> Result<()> {
        rd.f64_into(&mut self.probabilities)?;
        let selected = rd.u64()? as usize;
        if selected >= self.probabilities.len() {
            return Err(CoreError::Snapshot {
                reason: format!(
                    "selected mode {selected} out of range for {} modes",
                    self.probabilities.len()
                ),
            });
        }
        self.selected = selected;
        self.all_floored = rd.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_dominant_mode() {
        let mut sel = ModeSelector::uniform(3, 1e-6).unwrap();
        for _ in 0..5 {
            sel.update(&[1.0, 1.0, 50.0]).unwrap();
        }
        assert_eq!(sel.selected(), 2);
        let p = sel.probabilities();
        assert!(p[2] > 0.9);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn floor_enables_recovery_after_switch() {
        let mut sel = ModeSelector::uniform(2, 1e-6).unwrap();
        // Mode 0 dominates for a long time.
        for _ in 0..500 {
            sel.update(&[100.0, 0.001]).unwrap();
        }
        assert_eq!(sel.selected(), 0);
        // Now the world switches; mode 1 must win within a few steps.
        let mut switched_at = None;
        for k in 0..20 {
            if sel.update(&[0.001, 100.0]).unwrap() == 1 {
                switched_at = Some(k);
                break;
            }
        }
        assert!(
            switched_at.is_some() && switched_at.unwrap() < 5,
            "recovery took {switched_at:?} iterations"
        );
    }

    #[test]
    fn nan_likelihood_cannot_win() {
        let mut sel = ModeSelector::uniform(2, 1e-6).unwrap();
        sel.update(&[f64::NAN, 1.0]).unwrap();
        assert_eq!(sel.selected(), 1);
        assert!(sel.probabilities().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn all_zero_likelihoods_reset_to_uniform() {
        let mut sel = ModeSelector::uniform(4, 1e-6).unwrap();
        sel.update(&[10.0, 1.0, 1.0, 1.0]).unwrap();
        sel.update(&[0.0, 0.0, 0.0, 0.0]).unwrap();
        // max(μ·0, ε) = ε for all → normalized uniform.
        for &p in sel.probabilities() {
            assert!((p - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn all_floored_is_flagged_and_clears_on_recovery() {
        let mut sel = ModeSelector::uniform(3, 1e-6).unwrap();
        assert!(!sel.all_floored(), "fresh selector has seen no update");
        sel.update(&[1.0, 2.0, 3.0]).unwrap();
        assert!(!sel.all_floored());
        // Every hypothesis dies at once: zeros, NaN and a negative all
        // sanitize to zero, so the floor is the only thing holding the
        // distribution up — that must be flagged, because the resulting
        // near-uniform probabilities look exactly like healthy
        // uncertainty.
        sel.update(&[0.0, f64::NAN, -1.0]).unwrap();
        assert!(sel.all_floored(), "fleet-wide blow-up must be visible");
        let sum: f64 = sel.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "output is still a distribution");
        // One live likelihood clears the flag again.
        sel.update(&[0.0, 5.0, 0.0]).unwrap();
        assert!(!sel.all_floored());
    }

    #[test]
    fn tiny_positive_likelihoods_flag_by_the_floor() {
        // A tail-accurate consistency no longer rounds to exactly zero,
        // so the flag must follow the floor, not exact zeros.
        let mut sel = ModeSelector::uniform(3, 1e-6).unwrap();
        sel.update(&[1e-300; 3]).unwrap();
        assert!(sel.all_floored(), "every μ·N fell below the floor");
        let sum: f64 = sel.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "output is still a distribution");
        // One mode above the floor clears it.
        sel.update(&[1e-300, 1e-3, 1e-300]).unwrap();
        assert!(!sel.all_floored());
    }

    #[test]
    fn single_floored_mode_does_not_flag() {
        let mut sel = ModeSelector::uniform(2, 1e-6).unwrap();
        sel.update(&[0.0, 4.0]).unwrap();
        assert!(!sel.all_floored(), "one dead mode is normal operation");
    }

    #[test]
    fn mismatched_likelihood_count_errors() {
        let mut sel = ModeSelector::uniform(2, 1e-6).unwrap();
        assert!(sel.update(&[1.0]).is_err());
    }

    #[test]
    fn invalid_construction() {
        assert!(ModeSelector::uniform(0, 1e-6).is_err());
        assert!(ModeSelector::uniform(2, 0.0).is_err());
        assert!(ModeSelector::uniform(2, 1.5).is_err());
    }

    #[test]
    fn hysteresis_keeps_the_incumbent_through_near_ties() {
        let mut sel = ModeSelector::uniform(2, 1e-6).unwrap();
        // Mode 0 becomes the incumbent.
        for _ in 0..5 {
            sel.update(&[10.0, 1.0]).unwrap();
        }
        assert_eq!(sel.selected(), 0);
        // A mild advantage for mode 1 (under the 3x hysteresis band
        // after one step) must not flip the selection immediately...
        sel.update(&[1.0, 1.3]).unwrap();
        assert_eq!(sel.selected(), 0, "near-tie must keep the incumbent");
        // ...but a decisive advantage must.
        for _ in 0..10 {
            sel.update(&[0.001, 10.0]).unwrap();
        }
        assert_eq!(sel.selected(), 1);
    }

    #[test]
    fn mixing_rate_is_configurable() {
        let mut plain = ModeSelector::uniform(2, 1e-6).unwrap().with_mixing(0.0);
        let mut mixed = ModeSelector::uniform(2, 1e-6).unwrap().with_mixing(0.2);
        for _ in 0..20 {
            plain.update(&[10.0, 0.1]).unwrap();
            mixed.update(&[10.0, 0.1]).unwrap();
        }
        // Heavier mixing keeps the loser's probability higher.
        assert!(mixed.probabilities()[1] > plain.probabilities()[1]);
    }

    #[test]
    fn reset_restores_uniform() {
        let mut sel = ModeSelector::uniform(2, 1e-6).unwrap();
        sel.update(&[100.0, 0.1]).unwrap();
        sel.reset();
        assert_eq!(sel.probabilities(), &[0.5, 0.5]);
    }
}
