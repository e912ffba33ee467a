use roboads_linalg::{Matrix, Vector};

use crate::{ChiSquared, Result, StatsError};

/// Computes the normalized anomaly statistic `dᵀ P⁺ d`.
///
/// The decision maker of RoboADS normalizes an anomaly-vector estimate by
/// its error covariance before testing it; under the no-anomaly hypothesis
/// the statistic is χ²-distributed with `rank(P)` degrees of freedom.
/// The covariances tested are full rank by construction, so the
/// statistic is computed by whitening, `‖L⁻¹d‖²` with `P = L·Lᵀ`
/// ([`Matrix::whitened_quadratic_form`]); a covariance that fails the
/// Cholesky acceptance rule (numerically singular, or not finite) takes
/// the pseudo-inverse instead, so a sensor direction that carries no
/// fresh information degrades gracefully instead of failing.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] if `covariance` is not square
/// with side `d.len()`, or wraps the underlying decomposition error.
///
/// ```
/// use roboads_linalg::{Matrix, Vector};
/// use roboads_stats::normalized_statistic;
///
/// # fn main() -> Result<(), roboads_stats::StatsError> {
/// let d = Vector::from_slice(&[0.2, 0.0]);
/// let p = Matrix::from_diagonal(&[0.01, 0.04]);
/// let stat = normalized_statistic(&d, &p)?;
/// assert!((stat - 4.0).abs() < 1e-9); // (0.2)² / 0.01
/// # Ok(())
/// # }
/// ```
pub fn normalized_statistic(d: &Vector, covariance: &Matrix) -> Result<f64> {
    if covariance.rows() != d.len() || covariance.cols() != d.len() {
        return Err(StatsError::InvalidParameter {
            name: "covariance",
            value: format!(
                "{}x{} for vector of length {}",
                covariance.rows(),
                covariance.cols(),
                d.len()
            ),
        });
    }
    Ok(covariance.whitened_quadratic_form(d)?)
}

/// A χ² hypothesis test at a fixed significance level.
///
/// Precomputes the critical value so the per-iteration detector work is a
/// single comparison. The paper tunes `α = 0.005` for sensor tests and
/// `α = 0.05` for actuator tests (§V-F).
///
/// # Example
///
/// ```
/// use roboads_stats::ChiSquareTest;
///
/// let test = ChiSquareTest::new(3, 0.005).unwrap();
/// assert!(!test.exceeds(4.0));   // typical statistic under no anomaly
/// assert!(test.exceeds(40.0));   // far above the 12.84 threshold
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquareTest {
    dof: usize,
    alpha: f64,
    threshold: f64,
}

impl ChiSquareTest {
    /// Creates a test with `dof` degrees of freedom at significance
    /// level `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for `dof == 0` or `alpha`
    /// outside `(0, 1)`.
    pub fn new(dof: usize, alpha: f64) -> Result<Self> {
        let chi = ChiSquared::new(dof)?;
        let threshold = chi.critical_value(alpha)?;
        Ok(ChiSquareTest {
            dof,
            alpha,
            threshold,
        })
    }

    /// Degrees of freedom of the test.
    pub fn dof(&self) -> usize {
        self.dof
    }

    /// Significance level.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The precomputed critical value.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Whether a statistic exceeds the critical value (i.e. the
    /// no-anomaly hypothesis is rejected). Non-finite statistics are
    /// treated as exceedances: an estimator that produced NaN is in a
    /// state that must raise attention rather than silently pass.
    pub fn exceeds(&self, statistic: f64) -> bool {
        !statistic.is_finite() || statistic > self.threshold
    }

    /// Runs the full normalized test on an anomaly estimate and its
    /// covariance.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`normalized_statistic`].
    pub fn test(&self, d: &Vector, covariance: &Matrix) -> Result<bool> {
        Ok(self.exceeds(normalized_statistic(d, covariance)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{SeedableRng, StdRng};

    use crate::MultivariateNormal;

    #[test]
    fn statistic_matches_manual_computation() {
        let d = Vector::from_slice(&[1.0, 2.0]);
        let p = Matrix::from_diagonal(&[1.0, 4.0]);
        let stat = normalized_statistic(&d, &p).unwrap();
        assert!((stat - 2.0).abs() < 1e-10); // 1 + 4/4
    }

    #[test]
    fn statistic_rejects_shape_mismatch() {
        let d = Vector::zeros(2);
        assert!(normalized_statistic(&d, &Matrix::identity(3)).is_err());
    }

    #[test]
    fn singular_covariance_handled_via_pinv() {
        let d = Vector::from_slice(&[3.0, 0.0]);
        let p = Matrix::from_diagonal(&[9.0, 0.0]);
        let stat = normalized_statistic(&d, &p).unwrap();
        assert!((stat - 1.0).abs() < 1e-10);
    }

    #[test]
    fn false_positive_rate_matches_alpha() {
        // Under H0, the rejection rate should be ~alpha.
        let alpha = 0.05;
        let test = ChiSquareTest::new(2, alpha).unwrap();
        let cov = Matrix::from_diagonal(&[0.01, 0.02]);
        let mvn = MultivariateNormal::zero_mean(cov.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let n = 50_000;
        let mut rejections = 0;
        for _ in 0..n {
            let d = mvn.sample(&mut rng);
            if test.test(&d, &cov).unwrap() {
                rejections += 1;
            }
        }
        let rate = rejections as f64 / n as f64;
        assert!(
            (rate - alpha).abs() < 0.005,
            "empirical rejection rate {rate}, expected {alpha}"
        );
    }

    #[test]
    fn large_anomaly_is_detected() {
        let test = ChiSquareTest::new(3, 0.005).unwrap();
        let cov = Matrix::from_diagonal(&[1e-4, 1e-4, 1e-4]);
        // 0.07 m bias against ~0.01 m noise: the paper's scenario-#3 scale.
        let d = Vector::from_slice(&[0.07, 0.0, 0.0]);
        assert!(test.test(&d, &cov).unwrap());
    }

    #[test]
    fn nan_statistic_raises() {
        let test = ChiSquareTest::new(1, 0.05).unwrap();
        assert!(test.exceeds(f64::NAN));
        assert!(test.exceeds(f64::INFINITY));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ChiSquareTest::new(0, 0.05).is_err());
        assert!(ChiSquareTest::new(2, 0.0).is_err());
        assert!(ChiSquareTest::new(2, 1.0).is_err());
    }

    #[test]
    fn accessors() {
        let test = ChiSquareTest::new(4, 0.01).unwrap();
        assert_eq!(test.dof(), 4);
        assert_eq!(test.alpha(), 0.01);
        assert!(test.threshold() > 13.0 && test.threshold() < 14.0);
    }
}
