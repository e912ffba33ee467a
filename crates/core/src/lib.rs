//! # RoboADS core — the paper's contribution
//!
//! This crate implements the anomaly detection system of *"RoboADS:
//! Anomaly Detection against Sensor and Actuator Misbehaviors in Mobile
//! Robots"* (Guo et al., DSN 2018): a model-based detector that runs
//! inside the planner and, each control iteration, decides whether the
//! robot's sensing workflows or actuation workflows are misbehaving —
//! and which ones.
//!
//! ## Architecture (paper Figure 3 / Algorithm 1)
//!
//! * **Monitor** — the caller: each iteration it hands
//!   [`RoboAds::step`] the planned commands `u_{k−1}` and the received
//!   per-sensor readings `z_k`.
//! * **Multi-mode estimation engine** ([`MultiModeEngine`]) — one
//!   NUISE step (Algorithm 2) per *mode*, where a [`Mode`] is a
//!   hypothesis partitioning the sensor suite into clean *reference*
//!   sensors (used for estimation) and potentially-corrupted *testing*
//!   sensors (cross-validated against the estimate). Each NUISE run
//!   produces state estimates, actuator and sensor anomaly-vector
//!   estimates with covariances, and a mode likelihood. Every mode of
//!   every engine runs one in-place, allocation-free kernel (the fleet
//!   runs the same kernel eight robots wide); [`nuise_step`] is the
//!   allocating reference oracle it is pinned against bit for bit.
//! * **Mode selector** ([`ModeSelector`]) — maintains the normalized
//!   mode probabilities `μ_m ← max(N_m·μ_m, ε)` and picks the most
//!   likely hypothesis.
//! * **Decision maker** ([`DecisionMaker`]) — χ² tests on the selected
//!   mode's normalized anomaly estimates, sliding-window confirmation
//!   (`c` positives in `w` iterations), and per-sensor splitting to
//!   identify the misbehaving workflow(s).
//!
//! The crate also builds the linearize-once baseline of §V-G
//! ([`baseline::linearized_once`]): a plain [`RoboAds`] whose model is
//! frozen at the initial state, used for the benchmark comparison.
//!
//! ## Example
//!
//! ```
//! use roboads_core::{ModeSet, RoboAds, RoboAdsConfig};
//! use roboads_linalg::Vector;
//! use roboads_models::presets;
//!
//! # fn main() -> Result<(), roboads_core::CoreError> {
//! let system = presets::khepera_system();
//! let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
//! let mut ads = RoboAds::new(
//!     system.clone(),
//!     RoboAdsConfig::paper_defaults(),
//!     x0.clone(),
//!     ModeSet::one_reference_per_sensor(&system),
//! )?;
//!
//! // One clean control iteration: command straight ahead, readings
//! // exactly consistent with the resulting state.
//! let u = Vector::from_slice(&[0.05, 0.05]);
//! let x1 = system.dynamics().step(&x0, &u);
//! let readings: Vec<_> = (0..system.sensor_count())
//!     .map(|i| system.sensor(i).unwrap().measure(&x1))
//!     .collect();
//! let report = ads.step(&u, &readings)?;
//! assert!(!report.sensor_misbehavior_detected());
//! assert!(!report.actuator_alarm);
//! # Ok(())
//! # }
//! ```

pub mod baseline;
pub mod ekf;
pub mod forensics;
pub mod recorder;

mod config;
mod decision;
mod detector;
mod engine;
mod fleet;
mod health;
mod ingest;
mod mode;
mod nuise;
mod nuise_slab;
mod report;
mod selector;
mod shard;
mod snapshot;

pub use config::{Linearization, RoboAdsConfig, WindowConfig};
pub use decision::DecisionMaker;
pub use detector::RoboAds;
pub use engine::{EngineOutput, MultiModeEngine};
pub use fleet::{FleetEngine, RobotInput};
pub use health::{FleetHealth, RobotHealth};
pub use ingest::{DeadlinePolicy, FleetIngest, SlotState, SwapSummary};
pub use mode::{Mode, ModeSet};
pub use nuise::{nuise_step, NuiseInput, NuiseOutput};
pub use recorder::{
    replay_capsule, CapsuleIncident, DecisionDigest, FlightRecorder, IncidentCapsule, IncidentKind,
    RecorderConfig, ReplayOutcome, TickRecord, CAPSULE_VERSION,
};
pub use report::{AnomalyEstimate, DetectionReport, SensorAnomaly};
pub use selector::{ModeSelector, MODE_MIXING, SELECTION_HYSTERESIS};
pub use shard::{RobotFactory, ShardConfig, ShardStatus, ShardedFleet, StampedFrame};
pub use snapshot::{
    restore_detector, restore_fleet, snapshot_detector, snapshot_fleet, SNAPSHOT_VERSION,
};

/// Re-export of the observability layer the pipeline reports into, so
/// detector users can build a [`roboads_obs::Telemetry`] for
/// [`RoboAds::set_telemetry`] without naming the crate separately.
pub use roboads_obs as obs;

use std::error::Error;
use std::fmt;

/// Errors produced by detector construction and stepping.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration value was out of its valid domain.
    InvalidConfig {
        /// Parameter name.
        name: &'static str,
        /// Offending value, formatted by the caller.
        value: String,
    },
    /// A mode's reference sensors cannot estimate the state or the
    /// actuator anomaly (observability / input-rank failure).
    DegenerateMode {
        /// Index of the offending mode.
        mode: usize,
        /// What failed.
        reason: String,
    },
    /// The caller supplied readings inconsistent with the sensor suite.
    BadReadings {
        /// What was wrong.
        reason: String,
    },
    /// A frame named a robot id the sharded fleet does not route (see
    /// [`ShardedFleet::offer_slice`]). Carries only the id, so a flood
    /// of forged ids is rejected without allocating.
    UnknownRobot {
        /// The unrouted global robot id.
        robot: u64,
    },
    /// A frame named a sensor index its robot does not have (see
    /// [`FleetIngest::offer`] and [`ShardedFleet::offer_slice`]).
    /// Carries only the indices, so a flood of bad sensor indices is
    /// rejected without allocating.
    UnknownSensor {
        /// The robot: its fleet index at a [`FleetIngest`], its global
        /// id at a [`ShardedFleet`].
        robot: u64,
        /// The out-of-range sensor index.
        sensor: usize,
    },
    /// A fleet robot had no complete input set at the tick boundary:
    /// its frames were late or dropped and the ingest policy was
    /// [`DeadlinePolicy::MarkMissing`] (or nothing was ever delivered).
    /// The robot's detector state is untouched — exactly as if the
    /// iteration had been skipped — and the paper's precursor
    /// (arXiv:1708.01834) treats the missing reading itself as the
    /// detectable misbehavior, so this error is a per-robot verdict,
    /// not a batch failure.
    MissedDeadline {
        /// Index of the robot whose inputs never completed.
        robot: usize,
    },
    /// An incident capsule could not be parsed or replayed (schema
    /// mismatch, corruption, or a replay-contract violation).
    Capsule {
        /// What was wrong.
        reason: String,
    },
    /// A state snapshot could not be decoded or did not match the twin
    /// detector it was restored onto (version, dimension, truncation or
    /// corruption).
    Snapshot {
        /// What was wrong.
        reason: String,
    },
    /// An underlying numeric operation failed.
    Numeric(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { name, value } => {
                write!(f, "invalid configuration {name} = {value}")
            }
            CoreError::DegenerateMode { mode, reason } => {
                write!(f, "mode {mode} is degenerate: {reason}")
            }
            CoreError::BadReadings { reason } => write!(f, "bad readings: {reason}"),
            CoreError::UnknownRobot { robot } => {
                write!(f, "unknown robot id {robot} offered to sharded fleet")
            }
            CoreError::UnknownSensor { robot, sensor } => {
                write!(
                    f,
                    "sensor {sensor} offered for robot {robot}, which has no such sensor"
                )
            }
            CoreError::MissedDeadline { robot } => {
                write!(
                    f,
                    "robot {robot} missed the tick deadline: incomplete input set"
                )
            }
            CoreError::Capsule { reason } => write!(f, "incident capsule error: {reason}"),
            CoreError::Snapshot { reason } => write!(f, "snapshot error: {reason}"),
            CoreError::Numeric(msg) => write!(f, "numeric failure: {msg}"),
        }
    }
}

impl Error for CoreError {}

impl From<roboads_linalg::LinalgError> for CoreError {
    fn from(e: roboads_linalg::LinalgError) -> Self {
        CoreError::Numeric(e.to_string())
    }
}

impl From<roboads_stats::StatsError> for CoreError {
    fn from(e: roboads_stats::StatsError) -> Self {
        CoreError::Numeric(e.to_string())
    }
}

impl From<roboads_obs::wire::ByteError> for CoreError {
    fn from(e: roboads_obs::wire::ByteError) -> Self {
        CoreError::Snapshot {
            reason: e.to_string(),
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Per-iteration scratch, built on first use and never copied: a clone
/// starts from `T::default()` and builds its own. A detector clone
/// carries the filter state and the constants, not the scratch
/// (`DESIGN.md` §18).
#[derive(Debug, Default)]
pub(crate) struct Scratch<T: Default>(pub(crate) T);

impl<T: Default> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        let e: CoreError = roboads_linalg::LinalgError::Singular.into();
        assert!(e.to_string().contains("singular"));
        let e: CoreError = roboads_stats::StatsError::NoConvergence { routine: "x" }.into();
        assert!(e.to_string().contains("converge"));
    }
}
