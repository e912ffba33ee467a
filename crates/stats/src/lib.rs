//! Statistics substrate for the RoboADS reproduction.
//!
//! The decision maker of RoboADS (DSN 2018, Algorithm 1 lines 10–25)
//! confirms anomalies through **χ² hypothesis tests** on normalized anomaly
//! vector estimates, filtered through **sliding windows** (`c` positives in
//! the last `w` iterations) to tolerate transient faults, and its
//! evaluation section reports **ROC curves, F1 scores, false positive /
//! negative rates and detection delays** over parameter sweeps.
//!
//! This crate provides all of those pieces plus the seeded Gaussian
//! sampling the simulation substrate needs:
//!
//! * [`gamma`] — log-gamma and regularized incomplete gamma functions,
//! * [`ChiSquared`] — cdf / survival / inverse-cdf / critical values,
//! * [`ChiSquareTest`] — the `dᵀ P⁻¹ d`-style normalized test of the paper,
//! * [`GaussianSampler`] / [`MultivariateNormal`] — seeded noise generation,
//! * [`SlidingWindow`] — the `c`-of-`w` decision rule,
//! * [`metrics`] — confusion counts, precision/recall/F1, ROC curves.
//!
//! # Example
//!
//! ```
//! use roboads_stats::{ChiSquared, SlidingWindow};
//!
//! let chi = ChiSquared::new(3).unwrap();
//! // 95th percentile of chi-square with 3 dof is ~7.815.
//! let threshold = chi.critical_value(0.05).unwrap();
//! assert!((threshold - 7.815).abs() < 0.01);
//!
//! let mut window = SlidingWindow::new(2, 2).unwrap();
//! assert!(!window.push(true));
//! assert!(window.push(true)); // 2 positives within a window of 2 → alarm
//! ```

pub mod gamma;
pub mod metrics;

mod chi_square;
mod cusum;
mod descriptive;
mod hypothesis;
mod sampling;
mod window;

pub use chi_square::ChiSquared;
pub use cusum::Cusum;
pub use descriptive::{mean, sample_std_dev, sample_variance};
pub use hypothesis::{normalized_statistic, ChiSquareTest};
pub use metrics::{ConfusionCounts, DetectionRate, RocCurve, RocPoint};
pub use sampling::{GaussianSampler, MultivariateNormal, Rng, SeedableRng, StdRng};
pub use window::SlidingWindow;

use std::error::Error;
use std::fmt;

/// Errors produced by statistical operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution parameter was out of its valid domain.
    InvalidParameter {
        /// Parameter name, e.g. `"dof"`.
        name: &'static str,
        /// Offending value, formatted by the caller.
        value: String,
    },
    /// A numerical routine failed to converge.
    NoConvergence {
        /// The routine that failed, e.g. `"incomplete_gamma"`.
        routine: &'static str,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(roboads_linalg::LinalgError),
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            StatsError::NoConvergence { routine } => {
                write!(f, "{routine} failed to converge")
            }
            StatsError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl Error for StatsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StatsError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<roboads_linalg::LinalgError> for StatsError {
    fn from(e: roboads_linalg::LinalgError) -> Self {
        StatsError::Linalg(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = StatsError::InvalidParameter {
            name: "dof",
            value: "0".into(),
        };
        assert!(e.to_string().contains("dof"));
        let wrapped = StatsError::from(roboads_linalg::LinalgError::Singular);
        assert!(Error::source(&wrapped).is_some());
    }
}
