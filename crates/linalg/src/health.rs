//! Process-global numerical-health counters.
//!
//! The linear-algebra substrate sits below the telemetry layer (the
//! `roboads-obs` crate depends on nothing, and this crate must not
//! depend on it either), so breakdowns are tallied here in plain
//! process-global atomics and surfaced to the observability layer by
//! whoever owns a registry: the detection engine snapshots these
//! counters around each step and re-publishes the delta as a proper
//! metric.
//!
//! The counters are monotonic for the lifetime of the process and are
//! shared across threads; consumers that want per-run numbers must diff
//! a [`snapshot`] taken before the run against one taken after, rather
//! than read absolute values.

use std::sync::atomic::{AtomicU64, Ordering};

static CHOLESKY_FACTORIZATIONS: AtomicU64 = AtomicU64::new(0);
static CHOLESKY_FAILURES: AtomicU64 = AtomicU64::new(0);
static CHOLESKY_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static PROJECTION_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time copy of the health counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSnapshot {
    /// Cholesky factorizations attempted since process start.
    pub cholesky_factorizations: u64,
    /// Cholesky factorizations that failed (asymmetric input or a
    /// non-positive pivot — the classic covariance-breakdown signal).
    pub cholesky_failures: u64,
    /// Whitened χ² statistics whose covariance failed the Cholesky
    /// acceptance rule (non-finite, or a pivot at the rank cutoff) and
    /// fell back to the Jacobi pseudo-inverse: one per rejected lane of
    /// [`crate::CholeskySlabWorkspace::whiten`] and per rejected
    /// [`crate::Cholesky::whitened_norm_squared`]. The covariances
    /// tested are full rank by construction, so this stays at zero on
    /// healthy traffic.
    pub cholesky_fallbacks: u64,
    /// Innovation covariances whose projected Cholesky failed its
    /// acceptance rule (a pivot at the cutoff, a discarded direction
    /// above it, or a non-finite block) and fell back to the Jacobi
    /// pseudo-inverse: one per rejected lane of
    /// [`crate::ProjectedSlabWorkspace::factorize`] and per rejected
    /// [`crate::Matrix::projected_pseudo_inverse`]. The covariance's
    /// rank is structural, so this stays at zero on healthy traffic.
    pub projection_fallbacks: u64,
}

impl HealthSnapshot {
    /// Counter increments between `earlier` and `self`.
    ///
    /// Saturates at zero, so a stale "earlier" snapshot from a
    /// different process cannot produce bogus huge deltas.
    pub fn since(&self, earlier: &HealthSnapshot) -> HealthSnapshot {
        HealthSnapshot {
            cholesky_factorizations: self
                .cholesky_factorizations
                .saturating_sub(earlier.cholesky_factorizations),
            cholesky_failures: self
                .cholesky_failures
                .saturating_sub(earlier.cholesky_failures),
            cholesky_fallbacks: self
                .cholesky_fallbacks
                .saturating_sub(earlier.cholesky_fallbacks),
            projection_fallbacks: self
                .projection_fallbacks
                .saturating_sub(earlier.projection_fallbacks),
        }
    }
}

/// Reads the current counter values.
pub fn snapshot() -> HealthSnapshot {
    HealthSnapshot {
        cholesky_factorizations: CHOLESKY_FACTORIZATIONS.load(Ordering::Relaxed),
        cholesky_failures: CHOLESKY_FAILURES.load(Ordering::Relaxed),
        cholesky_fallbacks: CHOLESKY_FALLBACKS.load(Ordering::Relaxed),
        projection_fallbacks: PROJECTION_FALLBACKS.load(Ordering::Relaxed),
    }
}

pub(crate) fn note_cholesky_attempt() {
    CHOLESKY_FACTORIZATIONS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_cholesky_failure() {
    CHOLESKY_FAILURES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_cholesky_fallbacks(lanes: u64) {
    CHOLESKY_FALLBACKS.fetch_add(lanes, Ordering::Relaxed);
}

pub(crate) fn note_projection_fallbacks(lanes: u64) {
    PROJECTION_FALLBACKS.fetch_add(lanes, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cholesky, Matrix, Vector};

    #[test]
    fn cholesky_outcomes_are_tallied() {
        let before = snapshot();
        Matrix::from_diagonal(&[1.0, 2.0]).cholesky().unwrap();
        Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]])
            .unwrap()
            .cholesky()
            .unwrap_err();
        let delta = snapshot().since(&before);
        // Other tests may factorize concurrently, so lower bounds only.
        assert!(delta.cholesky_factorizations >= 2);
        assert!(delta.cholesky_failures >= 1);
    }

    #[test]
    fn whitening_fallbacks_are_tallied_only_when_rejected() {
        let d = Vector::from_slice(&[1.0, 2.0]);
        let before = snapshot();
        let singular = Matrix::from_diagonal(&[1.0, 0.0]);
        assert_eq!(Cholesky::whitened_norm_squared(&singular, &d), Ok(None));
        // Other tests may whiten concurrently, so a lower bound only.
        assert!(snapshot().since(&before).cholesky_fallbacks >= 1);
    }

    #[test]
    fn projection_fallbacks_are_tallied_only_when_rejected() {
        let nu = Vector::from_slice(&[1.0, 2.0]);
        let constraint = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
        let before = snapshot();
        // The discarded direction e₀ carries variance: rejected.
        let leaky = Matrix::from_diagonal(&[1.0, 1.0]);
        let rejected = leaky.projected_pseudo_inverse(Some(&constraint), &nu, 1e-12);
        assert_eq!(rejected, Ok(None));
        // Other tests may project concurrently, so a lower bound only.
        assert!(snapshot().since(&before).projection_fallbacks >= 1);
    }

    #[test]
    fn since_saturates() {
        let big = HealthSnapshot {
            cholesky_factorizations: 10,
            cholesky_failures: 3,
            cholesky_fallbacks: 2,
            projection_fallbacks: 4,
        };
        let small = HealthSnapshot::default();
        assert_eq!(big.since(&small).cholesky_failures, 3);
        assert_eq!(small.since(&big).cholesky_failures, 0);
        assert_eq!(big.since(&small).cholesky_fallbacks, 2);
        assert_eq!(small.since(&big).cholesky_fallbacks, 0);
        assert_eq!(big.since(&small).projection_fallbacks, 4);
        assert_eq!(small.since(&big).projection_fallbacks, 0);
    }
}
