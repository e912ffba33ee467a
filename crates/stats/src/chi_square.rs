use crate::gamma::{erfc, regularized_lower_gamma, regularized_upper_gamma};
use crate::{Result, StatsError};

/// Largest `x/2` at which [`ChiSquared::survival`] takes the closed form:
/// `e^{−700}` is still a normal float with 8 orders of magnitude to
/// spare.
const CLOSED_FORM_MAX_HALF_X: f64 = 700.0;

/// Largest degrees of freedom at which [`ChiSquared::survival`] sums the
/// closed form (at most 32 terms).
const CLOSED_FORM_MAX_DOF: usize = 64;

/// The χ² distribution with `k` degrees of freedom.
///
/// RoboADS confirms sensor/actuator anomalies with χ² tests: the
/// normalized anomaly statistic `dᵀP⁻¹d` follows a χ² distribution with
/// as many degrees of freedom as the anomaly vector has components, and an
/// alarm requires the statistic to exceed the `(1 − α)` quantile.
///
/// # Example
///
/// ```
/// use roboads_stats::ChiSquared;
///
/// let chi = ChiSquared::new(2).unwrap();
/// // Median of chi-square(2) is 2·ln 2 ≈ 1.386.
/// assert!((chi.inverse_cdf(0.5).unwrap() - 1.386).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiSquared {
    dof: usize,
}

impl ChiSquared {
    /// Creates the distribution with `dof` degrees of freedom.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for `dof == 0`.
    pub fn new(dof: usize) -> Result<Self> {
        if dof == 0 {
            return Err(StatsError::InvalidParameter {
                name: "dof",
                value: "0".into(),
            });
        }
        Ok(ChiSquared { dof })
    }

    /// Degrees of freedom.
    pub fn dof(&self) -> usize {
        self.dof
    }

    /// Cumulative distribution function `P(X ≤ x)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for negative or
    /// non-finite `x`.
    pub fn cdf(&self, x: f64) -> Result<f64> {
        regularized_lower_gamma(self.dof as f64 / 2.0, x / 2.0)
    }

    /// Survival function `P(X > x)`, in closed form: with `h = x/2`,
    ///
    /// * even `k`: `e^{−h}·Σ_{j<k/2} hʲ/j!`;
    /// * odd `k`: `erfc(√h) + e^{−h}·Σ_{j=1}^{(k−1)/2} h^{j−1/2}/Γ(j+1/2)`.
    ///
    /// Both are finite sums of positive terms, so the tail is accurate to
    /// a few units in the last place where `1 − cdf` rounds to zero (from
    /// `x ≈ 70` on), and at `k = 2` the value is exactly `e^{−x/2}`. No
    /// `ln Γ` is evaluated. Beyond `x = 1400`, where `e^{−h}` nears
    /// underflow, and above 64 degrees of freedom the regularized upper
    /// incomplete gamma takes over.
    ///
    /// # Errors
    ///
    /// Same domain as [`ChiSquared::cdf`].
    pub fn survival(&self, x: f64) -> Result<f64> {
        if !x.is_finite() || x < 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "x",
                value: format!("{x}"),
            });
        }
        let h = x / 2.0;
        if h > CLOSED_FORM_MAX_HALF_X || self.dof > CLOSED_FORM_MAX_DOF {
            return regularized_upper_gamma(self.dof as f64 / 2.0, h);
        }
        let gaussian = (-h).exp();
        if self.dof.is_multiple_of(2) {
            let mut term = 1.0;
            let mut sum = 1.0;
            for j in 1..self.dof / 2 {
                term *= h / j as f64;
                sum += term;
            }
            Ok(gaussian * sum)
        } else {
            let root = h.sqrt();
            // h^{1/2}·e^{−h}/Γ(3/2), then ·h/(j + 1/2) per term.
            let mut term = gaussian * root * std::f64::consts::FRAC_2_SQRT_PI;
            let mut sum = 0.0;
            for j in 1..=self.dof / 2 {
                sum += term;
                term *= h / (j as f64 + 0.5);
            }
            Ok(erfc(root) + sum)
        }
    }

    /// Mean of the distribution (`k`).
    pub fn mean(&self) -> f64 {
        self.dof as f64
    }

    /// Variance of the distribution (`2k`).
    pub fn variance(&self) -> f64 {
        2.0 * self.dof as f64
    }

    /// Inverse cdf (quantile function): the `x` with `cdf(x) = p`.
    ///
    /// Uses a Wilson–Hilferty starting guess refined by bisection, which
    /// is robust over the full `p ∈ (0, 1)` range.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for `p` outside `(0, 1)`.
    pub fn inverse_cdf(&self, p: f64) -> Result<f64> {
        if !(0.0..1.0).contains(&p) || !p.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "p",
                value: format!("{p}"),
            });
        }
        if p == 0.0 {
            return Ok(0.0);
        }
        let k = self.dof as f64;
        // Wilson–Hilferty: χ²_p ≈ k (1 − 2/(9k) + z_p √(2/(9k)))³.
        let z = standard_normal_quantile(p);
        let guess = {
            let c = 2.0 / (9.0 * k);
            (k * (1.0 - c + z * c.sqrt()).powi(3)).max(1e-12)
        };
        // Bracket the root around the guess.
        let mut lo = 0.0;
        let mut hi = guess.max(1.0);
        while self.cdf(hi)? < p {
            hi *= 2.0;
            if hi > 1e12 {
                return Err(StatsError::NoConvergence {
                    routine: "chi_square_inverse_cdf",
                });
            }
        }
        // Bisection to 1e-12 relative width.
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid)? < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo) <= 1e-12 * hi.max(1.0) {
                break;
            }
        }
        Ok(0.5 * (lo + hi))
    }

    /// Critical value for a test at significance level `alpha`: the
    /// `(1 − α)` quantile. A statistic above this value rejects the
    /// no-anomaly hypothesis with confidence `1 − α`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for `alpha` outside
    /// `(0, 1)`.
    pub fn critical_value(&self, alpha: f64) -> Result<f64> {
        if !(0.0..1.0).contains(&alpha) || alpha == 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "alpha",
                value: format!("{alpha}"),
            });
        }
        self.inverse_cdf(1.0 - alpha)
    }
}

/// Approximate standard-normal quantile (Acklam-style rational
/// approximation), used only to seed the bisection with a good guess.
fn standard_normal_quantile(p: f64) -> f64 {
    // Beasley–Springer–Moro.
    const A: [f64; 4] = [
        2.50662823884,
        -18.61500062529,
        41.39119773534,
        -25.44106049637,
    ];
    const B: [f64; 4] = [
        -8.47351093090,
        23.08336743743,
        -21.06224101826,
        3.13082909833,
    ];
    const C: [f64; 9] = [
        0.3374754822726147,
        0.9761690190917186,
        0.1607979714918209,
        0.0276438810333863,
        0.0038405729373609,
        0.0003951896511919,
        0.0000321767881768,
        0.0000002888167364,
        0.0000003960315187,
    ];
    let y = p - 0.5;
    if y.abs() < 0.42 {
        let r = y * y;
        y * (((A[3] * r + A[2]) * r + A[1]) * r + A[0])
            / ((((B[3] * r + B[2]) * r + B[1]) * r + B[0]) * r + 1.0)
    } else {
        let mut r = if y > 0.0 { 1.0 - p } else { p };
        r = (-r.ln()).ln();
        let mut x = C[0];
        let mut rk = 1.0;
        for &c in &C[1..] {
            rk *= r;
            x += c * rk;
        }
        if y < 0.0 {
            -x
        } else {
            x
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published critical values (dof, alpha, value), e.g. from standard
    /// chi-square tables.
    const TABLE: &[(usize, f64, f64)] = &[
        (1, 0.05, 3.841),
        (2, 0.05, 5.991),
        (3, 0.05, 7.815),
        (4, 0.05, 9.488),
        (1, 0.005, 7.879),
        (2, 0.005, 10.597),
        (3, 0.005, 12.838),
        (6, 0.005, 18.548),
        (2, 0.5, 1.386),
        (5, 0.95, 1.145),
    ];

    #[test]
    fn critical_values_match_published_tables() {
        for &(dof, alpha, expected) in TABLE {
            let chi = ChiSquared::new(dof).unwrap();
            let v = chi.critical_value(alpha).unwrap();
            assert!(
                (v - expected).abs() < 0.002,
                "chi2({dof}, alpha={alpha}) = {v}, expected {expected}"
            );
        }
    }

    #[test]
    fn cdf_at_zero_and_large() {
        let chi = ChiSquared::new(3).unwrap();
        assert_eq!(chi.cdf(0.0).unwrap(), 0.0);
        assert!((chi.cdf(1e4).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_survival_complement() {
        let chi = ChiSquared::new(4).unwrap();
        for &x in &[0.5, 2.0, 7.0, 15.0] {
            assert!((chi.cdf(x).unwrap() + chi.survival(x).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_cdf_round_trips() {
        for dof in [1, 2, 3, 6, 10] {
            let chi = ChiSquared::new(dof).unwrap();
            for &p in &[0.005, 0.05, 0.5, 0.95, 0.995] {
                let x = chi.inverse_cdf(p).unwrap();
                assert!(
                    (chi.cdf(x).unwrap() - p).abs() < 1e-9,
                    "round trip failed at dof={dof}, p={p}"
                );
            }
        }
    }

    #[test]
    fn moments() {
        let chi = ChiSquared::new(7).unwrap();
        assert_eq!(chi.mean(), 7.0);
        assert_eq!(chi.variance(), 14.0);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(ChiSquared::new(0).is_err());
        let chi = ChiSquared::new(2).unwrap();
        assert!(chi.cdf(-1.0).is_err());
        assert!(chi.inverse_cdf(1.0).is_err());
        assert!(chi.inverse_cdf(-0.1).is_err());
        assert!(chi.critical_value(0.0).is_err());
        assert!(chi.critical_value(1.5).is_err());
    }

    #[test]
    fn smaller_alpha_means_larger_threshold() {
        let chi = ChiSquared::new(3).unwrap();
        let t1 = chi.critical_value(0.05).unwrap();
        let t2 = chi.critical_value(0.005).unwrap();
        assert!(t2 > t1);
    }
}
