//! Log-gamma, regularized incomplete gamma and complementary error
//! functions.
//!
//! These are the numerical backbone of the χ² distribution used by the
//! RoboADS decision maker. The incomplete gamma follows the classical
//! series / continued-fraction split (Numerical Recipes §6.2) with a
//! Lanczos approximation for `ln Γ`; [`erfc`] — `Q(1/2, x²)`, the seed
//! of the χ² survival function at odd degrees of freedom — uses
//! W. J. Cody's rational Chebyshev approximations.

use crate::{Result, StatsError};

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, 9 coefficients), accurate to
/// ~15 significant digits over the positive reals.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `x ≤ 0` or non-finite `x`.
///
/// ```
/// use roboads_stats::gamma::ln_gamma;
///
/// // Γ(5) = 24.
/// assert!((ln_gamma(5.0).unwrap() - 24.0f64.ln()).abs() < 1e-12);
/// ```
pub fn ln_gamma(x: f64) -> Result<f64> {
    if !x.is_finite() || x <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: format!("{x}"),
        });
    }
    // Lanczos coefficients for g = 7.
    const COEFFS: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    const G: f64 = 7.0;
    const SQRT_TWO_PI: f64 = 2.506_628_274_631_000_5;

    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return Ok((pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)?);
    }
    let x = x - 1.0;
    let mut acc = 0.999_999_999_999_809_9;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i + 1) as f64);
    }
    let t = x + G + 0.5;
    Ok(SQRT_TWO_PI.ln() + (x + 0.5) * t.ln() - t + acc.ln())
}

/// Maximum iterations for the series and continued-fraction expansions.
const MAX_ITER: usize = 400;

/// Convergence tolerance for the expansions.
const EPS: f64 = 1e-14;

/// Regularized lower incomplete gamma function `P(s, x) = γ(s, x) / Γ(s)`.
///
/// `P(k/2, x/2)` is exactly the cdf of the χ² distribution with `k`
/// degrees of freedom.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] for `s ≤ 0` or `x < 0`, and
/// [`StatsError::NoConvergence`] if the expansion stalls (not reachable
/// for finite arguments in practice).
///
/// ```
/// use roboads_stats::gamma::regularized_lower_gamma;
///
/// // P(1, x) = 1 − e^{−x}.
/// let p = regularized_lower_gamma(1.0, 2.0).unwrap();
/// assert!((p - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
/// ```
pub fn regularized_lower_gamma(s: f64, x: f64) -> Result<f64> {
    check_domain(s, x)?;
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < s + 1.0 {
        lower_gamma_series(s, x)
    } else {
        Ok(1.0 - upper_gamma_continued_fraction(s, x)?)
    }
}

/// Regularized upper incomplete gamma function `Q(s, x) = 1 − P(s, x)`.
///
/// Computed directly where `Q` is the small side — the continued
/// fraction for `x ≥ s + 1` — so the tail keeps its relative accuracy
/// far past where `1 − P` rounds to zero; `1 − P` by the series below.
///
/// # Errors
///
/// Same domain as [`regularized_lower_gamma`].
///
/// ```
/// use roboads_stats::gamma::regularized_upper_gamma;
///
/// // Q(1, x) = e^{−x}, deep in the tail too.
/// let q = regularized_upper_gamma(1.0, 500.0).unwrap();
/// assert!((q / (-500.0f64).exp() - 1.0).abs() < 1e-13);
/// ```
pub fn regularized_upper_gamma(s: f64, x: f64) -> Result<f64> {
    check_domain(s, x)?;
    if x == 0.0 {
        return Ok(1.0);
    }
    if x < s + 1.0 {
        Ok(1.0 - lower_gamma_series(s, x)?)
    } else {
        upper_gamma_continued_fraction(s, x)
    }
}

/// The incomplete gamma's domain: finite `s > 0` and finite `x ≥ 0`.
fn check_domain(s: f64, x: f64) -> Result<()> {
    if !s.is_finite() || s <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "s",
            value: format!("{s}"),
        });
    }
    if !x.is_finite() || x < 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: format!("{x}"),
        });
    }
    Ok(())
}

/// Series expansion of `P(s, x)`, effective for `x < s + 1`.
fn lower_gamma_series(s: f64, x: f64) -> Result<f64> {
    let ln_g = ln_gamma(s)?;
    let mut ap = s;
    let mut sum = 1.0 / s;
    let mut term = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            return Ok(sum * (s * x.ln() - x - ln_g).exp());
        }
    }
    Err(StatsError::NoConvergence {
        routine: "lower_gamma_series",
    })
}

/// Continued-fraction expansion of `Q(s, x)` via modified Lentz, effective
/// for `x ≥ s + 1`.
fn upper_gamma_continued_fraction(s: f64, x: f64) -> Result<f64> {
    let ln_g = ln_gamma(s)?;
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - s;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - s);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            return Ok((s * x.ln() - x - ln_g).exp() * h);
        }
    }
    Err(StatsError::NoConvergence {
        routine: "upper_gamma_continued_fraction",
    })
}

/// The complementary error function `erfc(x) = 1 − erf(x)`, accurate to
/// a few units in the last place over the whole real line, tail
/// included (it is relative-accurate down to its underflow near
/// `x = 26.5`).
///
/// W. J. Cody's rational Chebyshev approximations (Math. Comp. 23, 1969;
/// the `CALERF` routine of SPECFUN): a rational function of `x²` on
/// `|x| ≤ 0.46875`, and `exp(−x²)·R(x)` beyond, with `exp(−x²)` split
/// as `exp(−z²)·exp(−(x−z)(x+z))`, `z = x` truncated to 1/16, so the
/// exponent's rounding error is not amplified in the tail.
///
/// ```
/// use roboads_stats::gamma::erfc;
///
/// assert_eq!(erfc(0.0), 1.0);
/// assert!((erfc(1.0) - 0.157_299_207_050_285_13).abs() < 1e-16);
/// assert!((erfc(-1.0) - 1.842_700_792_949_714_9).abs() < 1e-15);
/// ```
// The coefficients are quoted to the digits Cody published.
#[allow(clippy::excessive_precision)]
pub fn erfc(x: f64) -> f64 {
    const A: [f64; 5] = [
        3.161_123_743_870_565_6,
        113.864_154_151_050_16,
        377.485_237_685_302_02,
        3_209.377_589_138_469_5,
        0.185_777_706_184_603_15,
    ];
    const B: [f64; 4] = [
        23.601_290_952_344_122,
        244.024_637_934_444_17,
        1_282.616_526_077_372_3,
        2_844.236_833_439_170_6,
    ];
    const C: [f64; 9] = [
        0.564_188_496_988_670_09,
        8.883_149_794_388_376,
        66.119_190_637_141_63,
        298.635_138_197_400_13,
        881.952_221_241_769_1,
        1_712.047_612_634_070_6,
        2_051.078_377_826_071_5,
        1_230.339_354_797_997_2,
        2.153_115_354_744_038_5e-8,
    ];
    const D: [f64; 8] = [
        15.744_926_110_709_835,
        117.693_950_891_312_5,
        537.181_101_862_009_86,
        1_621.389_574_566_690_2,
        3_290.799_235_733_459_6,
        4_362.619_090_143_247,
        3_439.367_674_143_721_6,
        1_230.339_354_803_749_4,
    ];
    const P: [f64; 6] = [
        0.305_326_634_961_232_34,
        0.360_344_899_949_804_44,
        0.125_781_726_111_229_25,
        0.016_083_785_148_742_277,
        6.587_491_615_298_378e-4,
        0.016_315_387_137_302_098,
    ];
    const Q: [f64; 5] = [
        2.568_520_192_289_822_4,
        1.872_952_849_923_467_3,
        0.527_905_102_951_428_4,
        0.060_518_341_312_441_32,
        0.002_335_204_976_268_691_8,
    ];
    /// 1/√π.
    const FRAC_1_SQRT_PI: f64 = 0.564_189_583_547_756_3;
    /// Beyond this, `erfc(x)` underflows.
    const X_MAX: f64 = 26.543;
    if x.is_nan() {
        return x;
    }
    let y = x.abs();
    if y <= 0.468_75 {
        let ysq = if y > f64::EPSILON / 2.0 { y * y } else { 0.0 };
        let mut num = A[4] * ysq;
        let mut den = ysq;
        for i in 0..3 {
            num = (num + A[i]) * ysq;
            den = (den + B[i]) * ysq;
        }
        return 1.0 - x * (num + A[3]) / (den + B[3]);
    }
    let tail = if y <= 4.0 {
        let mut num = C[8] * y;
        let mut den = y;
        for i in 0..7 {
            num = (num + C[i]) * y;
            den = (den + D[i]) * y;
        }
        scaled_gaussian(y, (num + C[7]) / (den + D[7]))
    } else if y >= X_MAX {
        0.0
    } else {
        let ysq = 1.0 / (y * y);
        let mut num = P[5] * ysq;
        let mut den = ysq;
        for i in 0..4 {
            num = (num + P[i]) * ysq;
            den = (den + Q[i]) * ysq;
        }
        let r = ysq * (num + P[4]) / (den + Q[4]);
        scaled_gaussian(y, (FRAC_1_SQRT_PI - r) / y)
    };
    if x < 0.0 {
        2.0 - tail
    } else {
        tail
    }
}

/// `exp(−y²)·r`, with `exp(−y²)` split as `exp(−z²)·exp(−(y−z)(y+z))`
/// for `z = y` truncated to a multiple of 1/16 (`z²` is then exact).
fn scaled_gaussian(y: f64, r: f64) -> f64 {
    let z = (y * 16.0).trunc() / 16.0;
    let del = (y - z) * (y + z);
    (-z * z).exp() * (-del).exp() * r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let factorials = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in factorials.iter().enumerate() {
            let lg = ln_gamma((n + 1) as f64).unwrap();
            assert!(
                (lg - f64::ln(f)).abs() < 1e-11,
                "ln_gamma({}) = {lg}, expected ln({f})",
                n + 1
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π.
        let lg = ln_gamma(0.5).unwrap();
        assert!((lg - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-12);
        // Γ(3/2) = √π / 2.
        let lg = ln_gamma(1.5).unwrap();
        assert!((lg - (std::f64::consts::PI.sqrt() / 2.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x·Γ(x).
        for &x in &[0.3, 1.7, 4.2, 9.9] {
            let lhs = ln_gamma(x + 1.0).unwrap();
            let rhs = x.ln() + ln_gamma(x).unwrap();
            assert!((lhs - rhs).abs() < 1e-11, "recurrence failed at {x}");
        }
    }

    #[test]
    fn ln_gamma_rejects_non_positive() {
        assert!(ln_gamma(0.0).is_err());
        assert!(ln_gamma(-1.0).is_err());
        assert!(ln_gamma(f64::NAN).is_err());
    }

    #[test]
    fn incomplete_gamma_boundaries() {
        assert_eq!(regularized_lower_gamma(2.0, 0.0).unwrap(), 0.0);
        // P(s, ∞) → 1: very large x.
        assert!((regularized_lower_gamma(2.0, 1e3).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        // P(1, x) = 1 − exp(−x), both in series and continued-fraction range.
        for &x in &[0.1, 0.5, 1.0, 3.0, 10.0] {
            let p = regularized_lower_gamma(1.0, x).unwrap();
            assert!((p - (1.0 - (-x).exp())).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn lower_and_upper_sum_to_one() {
        for &s in &[0.5, 1.5, 3.0, 7.5] {
            for &x in &[0.2, 1.0, 4.0, 12.0] {
                let p = regularized_lower_gamma(s, x).unwrap();
                let q = regularized_upper_gamma(s, x).unwrap();
                assert!((p + q - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn upper_gamma_keeps_the_exponential_tail() {
        // Q(1, x) = e^{−x}: relative accuracy over the whole normal
        // range of e^{−x}, series and continued-fraction sides alike.
        let mut worst = 0.0f64;
        for i in 0..=70_000 {
            let x = i as f64 * 0.01;
            let q = regularized_upper_gamma(1.0, x).unwrap();
            let rel = (q / (-x).exp() - 1.0).abs();
            worst = worst.max(rel);
            assert!(rel <= 1e-13, "x = {x}: Q = {q}, e^-x = {}", (-x).exp());
        }
        assert!(worst > 0.0, "Q is computed, not e^-x itself");
    }

    #[test]
    fn upper_gamma_is_positive_and_decreasing() {
        for &s in &[0.5, 1.0, 2.5, 16.0, 40.0] {
            let mut previous = regularized_upper_gamma(s, 0.0).unwrap();
            assert_eq!(previous, 1.0, "s = {s}");
            for i in 1..=1_300 {
                let x = i as f64 * 0.5;
                let q = regularized_upper_gamma(s, x).unwrap();
                assert!(q > 0.0, "s = {s}, x = {x}: tail underflowed to {q}");
                // Strictly where Q no longer rounds to 1.
                let decreasing = q < previous || (q == previous && q > 0.5);
                assert!(decreasing, "s = {s}, x = {x}: {q} not below {previous}");
                previous = q;
            }
        }
    }

    #[test]
    fn incomplete_gamma_monotone_in_x() {
        let s = 2.5;
        let mut prev = 0.0;
        for i in 1..50 {
            let x = i as f64 * 0.3;
            let p = regularized_lower_gamma(s, x).unwrap();
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn incomplete_gamma_rejects_bad_domain() {
        assert!(regularized_lower_gamma(-1.0, 1.0).is_err());
        assert!(regularized_lower_gamma(1.0, -0.5).is_err());
    }
}
