//! Closed-loop simulation substrate for the RoboADS reproduction.
//!
//! The paper evaluates RoboADS on two physical robots running an
//! RRT*+PID mission while attacks and failures are injected into
//! individual sensing/actuation workflows (Table II). This crate
//! replaces the physical testbed (documented substitution, `DESIGN.md`
//! §3) with a faithful discrete-time simulation:
//!
//! * [`SensingWorkflow`] / [`ActuationWorkflow`] — the workflow boxes of
//!   the paper's Figure 1, each with a seeded noise stream and a
//!   [`Misbehavior`] injection point *inside* the workflow (tick
//!   counters for the encoder, raw commands for the actuators, …),
//! * [`RobotPlatform`] — ground-truth state propagation with process
//!   noise,
//! * [`Scenario`] — the paper's 11 attack/failure scenarios (`Table II`)
//!   plus Tamiya variants, as data,
//! * [`SimulationBuilder`] — wires arena, mission, tracker, workflows
//!   and the [`RoboAds`] detector into a reproducible run,
//! * [`Trace`] / [`evaluate`] — per-iteration records and the paper's
//!   evaluation semantics (identification-sensitive TP/FP/FN/TN,
//!   per-transition detection delays).
//!
//! [`RoboAds`]: roboads_core::RoboAds
//!
//! # Example
//!
//! ```
//! use roboads_sim::{Scenario, SimulationBuilder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let outcome = SimulationBuilder::khepera()
//!     .scenario(Scenario::ips_logic_bomb())
//!     .seed(3)
//!     .run()?;
//! // Scenario #3 corrupts the IPS (sensor 0) from t = 4 s on.
//! assert_eq!(outcome.report.misbehaving_sensors, vec![0]);
//! assert!(outcome.eval.sensor_delay().unwrap() < 1.0);
//! # Ok(())
//! # }
//! ```

pub mod attacks;
pub mod bus;

mod campaign;
mod eval;
mod fleet;
mod loadgen;
mod misbehavior;
mod platform;
mod runner;
mod scenario;
mod telemetry;
mod trace;
mod workflow;
mod world;

pub use attacks::{AttackKind, AttackSpec, AttackWindow, BusAttack, FrameTarget};
pub use campaign::{Campaign, CampaignCell, CampaignOutcome, CampaignPoint};
pub use eval::{evaluate, EvalResult, TransitionDelay};
pub use fleet::{FleetOutcome, FleetSimulationBuilder, FrameFault};
pub use loadgen::{serve_traces_uds, stream_traces};
pub use misbehavior::{Corruption, Misbehavior, Target};
pub use platform::RobotPlatform;
pub use runner::{evaluation_detector, FramePolicy, SimOutcome, SimulationBuilder};
pub use scenario::{GroundTruth, Scenario};
pub use telemetry::{ModeTelemetry, TelemetrySummary};
pub use trace::{Trace, TraceRecord};
pub use workflow::{ActuationWorkflow, SensingWorkflow};
pub use world::{evaluation_start, RobotKind};

/// Re-export of the observability layer, so harnesses can build sinks
/// and [`roboads_obs::Telemetry`] contexts for
/// [`SimulationBuilder::telemetry`] without naming the crate.
pub use roboads_obs as obs;

use std::error::Error;
use std::fmt;

/// Errors produced by simulation construction and execution.
#[derive(Debug)]
pub enum SimError {
    /// Planning or control failed.
    Control(roboads_control::ControlError),
    /// Detector construction or stepping failed.
    Core(roboads_core::CoreError),
    /// Model construction failed.
    Model(roboads_models::ModelError),
    /// Statistical machinery failed.
    Stats(roboads_stats::StatsError),
    /// A simulation parameter was invalid.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value, formatted by the caller.
        value: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Control(e) => write!(f, "control failure: {e}"),
            SimError::Core(e) => write!(f, "detector failure: {e}"),
            SimError::Model(e) => write!(f, "model failure: {e}"),
            SimError::Stats(e) => write!(f, "statistics failure: {e}"),
            SimError::InvalidParameter { name, value } => {
                write!(f, "invalid simulation parameter {name} = {value}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Control(e) => Some(e),
            SimError::Core(e) => Some(e),
            SimError::Model(e) => Some(e),
            SimError::Stats(e) => Some(e),
            SimError::InvalidParameter { .. } => None,
        }
    }
}

impl From<roboads_control::ControlError> for SimError {
    fn from(e: roboads_control::ControlError) -> Self {
        SimError::Control(e)
    }
}

impl From<roboads_core::CoreError> for SimError {
    fn from(e: roboads_core::CoreError) -> Self {
        SimError::Core(e)
    }
}

impl From<roboads_models::ModelError> for SimError {
    fn from(e: roboads_models::ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<roboads_stats::StatsError> for SimError {
    fn from(e: roboads_stats::StatsError) -> Self {
        SimError::Stats(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e: SimError = roboads_core::CoreError::Numeric("x".into()).into();
        assert!(e.to_string().contains("detector"));
        assert!(Error::source(&e).is_some());
        let e = SimError::InvalidParameter {
            name: "seed",
            value: "-1".into(),
        };
        assert!(Error::source(&e).is_none());
    }
}
