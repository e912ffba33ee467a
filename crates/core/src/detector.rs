use roboads_linalg::{Matrix, Vector};
use roboads_models::RobotSystem;

use crate::config::RoboAdsConfig;
use crate::decision::DecisionMaker;
use crate::engine::{EngineOutput, MultiModeEngine};
use crate::mode::ModeSet;
use crate::recorder::{FlightRecorder, RecorderConfig};
use crate::report::DetectionReport;
use crate::Result;

/// The RoboADS detector (Algorithm 1): monitor → multi-mode estimation
/// engine → mode selector → decision maker, packaged behind a single
/// [`RoboAds::step`] call the planner invokes every control iteration.
///
/// # Example
///
/// ```
/// use roboads_core::{ModeSet, RoboAds, RoboAdsConfig};
/// use roboads_linalg::Vector;
/// use roboads_models::presets;
///
/// # fn main() -> Result<(), roboads_core::CoreError> {
/// let system = presets::khepera_system();
/// let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
/// let mut ads = RoboAds::new(
///     system.clone(),
///     RoboAdsConfig::paper_defaults(),
///     x0.clone(),
///     ModeSet::one_reference_per_sensor(&system),
/// )?;
///
/// let u = Vector::from_slice(&[0.05, 0.05]);
/// let x1 = system.dynamics().step(&x0, &u);
/// let mut readings: Vec<_> = (0..3)
///     .map(|i| system.sensor(i).unwrap().measure(&x1))
///     .collect();
/// readings[0][0] += 0.07; // spoof the IPS
/// let first = ads.step(&u, &readings)?;
/// assert!(!first.sensor_misbehavior_detected()); // 2/2 window pending
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RoboAds {
    engine: MultiModeEngine,
    decision: DecisionMaker,
    iteration: u64,
    /// Optional flight recorder (boxed: it carries a full ring of tick
    /// records and must not bloat recorder-less detectors).
    recorder: Option<Box<FlightRecorder>>,
}

impl RoboAds {
    /// Builds a detector for the given system, configuration, initial
    /// state estimate and mode set.
    ///
    /// The mode set is validated up front (observability and actuator
    /// rank of every reference group; see [`ModeSet::validate`]).
    ///
    /// # Errors
    ///
    /// Returns configuration and degenerate-mode errors.
    pub fn new(
        system: RobotSystem,
        config: RoboAdsConfig,
        initial_state: Vector,
        modes: ModeSet,
    ) -> Result<Self> {
        config.validate()?;
        let decision = DecisionMaker::new(&config, &system, &modes)?;
        let engine = MultiModeEngine::new(system, modes, initial_state, &config)?;
        Ok(RoboAds {
            engine,
            decision,
            iteration: 0,
            recorder: None,
        })
    }

    /// Convenience constructor using the paper's default mode set (one
    /// reference sensor per mode) and configuration.
    ///
    /// # Errors
    ///
    /// Same as [`RoboAds::new`].
    pub fn with_defaults(system: RobotSystem, initial_state: Vector) -> Result<Self> {
        let modes = ModeSet::one_reference_per_sensor(&system);
        RoboAds::new(
            system,
            RoboAdsConfig::paper_defaults(),
            initial_state,
            modes,
        )
    }

    /// Threads one telemetry context through the whole pipeline (engine
    /// spans/metrics and decision events share the sink and registry).
    /// The default is a disabled context; call this before the first
    /// [`RoboAds::step`] so every sample lands in the shared registry.
    pub fn set_telemetry(&mut self, telemetry: roboads_obs::Telemetry) {
        if let Some(recorder) = &mut self.recorder {
            recorder.set_telemetry(telemetry.clone());
        }
        self.engine.set_telemetry(telemetry.clone());
        self.decision.set_telemetry(telemetry);
    }

    /// Builder-style variant of [`RoboAds::set_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: roboads_obs::Telemetry) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// The telemetry context the pipeline reports into.
    pub fn telemetry(&self) -> &roboads_obs::Telemetry {
        self.engine.telemetry()
    }

    /// Attaches a [`FlightRecorder`] sized for this detector's system
    /// and mode set. The recorder shares the detector's telemetry
    /// context (capsules are enriched with its histograms). Replaces any
    /// previously attached recorder.
    pub fn attach_recorder(&mut self, config: RecorderConfig) {
        let mut recorder =
            FlightRecorder::for_system(config, self.engine.system(), self.engine.modes().len());
        recorder.set_telemetry(self.engine.telemetry().clone());
        self.recorder = Some(Box::new(recorder));
    }

    /// Builder-style variant of [`RoboAds::attach_recorder`].
    #[must_use]
    pub fn with_recorder(mut self, config: RecorderConfig) -> Self {
        self.attach_recorder(config);
        self
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_deref()
    }

    /// Mutable access to the attached flight recorder, if any.
    pub fn recorder_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.recorder.as_deref_mut()
    }

    /// Feeds one completed iteration to the attached recorder (no-op
    /// without one). `stamp` is the bus/ingest tick the inputs arrived
    /// under; `report` must be the report the inputs just produced.
    ///
    /// This is a separate hook rather than part of [`RoboAds::step_into`]
    /// because only the caller knows the stamp: the fleet (on its slab
    /// tiles and per-robot groups alike) and the sim runner call this
    /// after a successful step so every recorded robot sees every tick.
    pub fn record_tick(
        &mut self,
        stamp: u64,
        u_prev: &Vector,
        readings: &[Vector],
        report: &DetectionReport,
    ) {
        if let Some(recorder) = &mut self.recorder {
            recorder.record(stamp, u_prev, readings, report);
        }
    }

    /// One control iteration (the monitor's hand-off): the planned
    /// commands of the previous iteration and the fresh readings of
    /// every sensing workflow, in suite order.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::BadReadings`] for malformed readings
    /// and numeric errors from the estimator bank. On error the internal
    /// state is unchanged and the iteration may simply be retried or
    /// skipped.
    pub fn step(&mut self, u_prev: &Vector, readings: &[Vector]) -> Result<DetectionReport> {
        let mut report = DetectionReport::blank();
        self.step_into(u_prev, readings, &mut report)?;
        Ok(report)
    }

    /// Like [`RoboAds::step`] but fills a caller-owned report in place,
    /// reusing its buffers. Feeding the same report every iteration
    /// makes the whole warm detector step — engine, decision maker and
    /// report refill — free of heap allocation (on the sequential
    /// engine path), with values bitwise identical to `step`'s. This is
    /// the per-robot hot path of the fleet engine.
    ///
    /// # Errors
    ///
    /// As [`RoboAds::step`]; the internal filter state is unchanged, but
    /// `report` may hold a partial verdict and should be discarded.
    pub fn step_into(
        &mut self,
        u_prev: &Vector,
        readings: &[Vector],
        report: &mut DetectionReport,
    ) -> Result<()> {
        self.engine.step_in_place(u_prev, readings)?;
        self.complete_iteration(report, None)
    }

    /// The decision-and-report tail of an iteration whose engine step
    /// committed: the χ² decision on the engine's output and the report
    /// refill. [`RoboAds::step_into`] and the fleet's slab jobs both
    /// end an iteration here; a slab job passes the aggregate sensor
    /// statistic it batched across its robots as `aggregate`.
    ///
    /// # Errors
    ///
    /// A decision-maker error; `report` may then hold a partial verdict.
    pub(crate) fn complete_iteration(
        &mut self,
        report: &mut DetectionReport,
        aggregate: Option<Result<f64>>,
    ) -> Result<()> {
        self.decision.assess_report_with(
            self.engine.system(),
            self.engine.modes(),
            self.engine.last_output(),
            aggregate,
            report,
        )?;
        self.iteration += 1;
        let out = self.engine.last_output();
        report.iteration = self.iteration;
        report.selected_mode = out.selected;
        report.mode_probabilities.clear();
        report
            .mode_probabilities
            .extend_from_slice(&out.probabilities);
        report
            .state_estimate
            .assign(&out.selected_output().state_estimate);
        Ok(())
    }

    /// The underlying engine (fleet grouping and slab tiles).
    pub(crate) fn engine(&self) -> &MultiModeEngine {
        &self.engine
    }

    /// Mutable access to the underlying engine (fleet slab tiles).
    pub(crate) fn engine_mut(&mut self) -> &mut MultiModeEngine {
        &mut self.engine
    }

    /// The engine output the last completed iteration was assessed on:
    /// per-mode NUISE outputs (with their parsimony statistics),
    /// probabilities and selection. Unspecified before
    /// the first successful step or after a failed one.
    pub fn last_engine_output(&self) -> &EngineOutput {
        self.engine.last_output()
    }

    /// Number of completed iterations.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Current state estimate.
    pub fn state_estimate(&self) -> &Vector {
        self.engine.state_estimate()
    }

    /// Current state covariance.
    pub fn state_covariance(&self) -> &Matrix {
        self.engine.state_covariance()
    }

    /// The system description the detector was built with.
    pub fn system(&self) -> &RobotSystem {
        self.engine.system()
    }

    /// The mode set in use.
    pub fn modes(&self) -> &ModeSet {
        self.engine.modes()
    }

    /// Appends the detector's mutable state (iteration, engine,
    /// decision maker) to a snapshot buffer. The flight recorder is not
    /// snapshotted — reattach one after restore if needed; its contents
    /// never influence future step outputs.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        roboads_obs::wire::put_u64(out, self.iteration);
        self.engine.snap_write(out);
        self.decision.snap_write(out);
    }

    /// Restores the detector's mutable state from a snapshot buffer onto
    /// an identically-constructed twin.
    pub(crate) fn snap_read(&mut self, rd: &mut roboads_obs::wire::ByteReader<'_>) -> Result<()> {
        self.iteration = rd.u64()?;
        self.engine.snap_read(rd)?;
        self.decision.snap_read(rd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboads_models::presets;

    fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
        (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(x))
            .collect()
    }

    #[test]
    fn full_pipeline_detects_and_identifies_ips_spoofing() {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut ads = RoboAds::with_defaults(system.clone(), x0.clone()).unwrap();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        let mut labels = Vec::new();
        for k in 0..12 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            if k >= 4 {
                readings[0][0] -= 0.1; // scenario #4: −0.1 m shift on X
            }
            let report = ads.step(&u, &readings).unwrap();
            labels.push(report.sensor_condition_label());
        }
        // Clean prefix, then S1 (IPS) after the window fills.
        assert_eq!(&labels[..4], &["S0", "S0", "S0", "S0"]);
        assert!(labels[6..].iter().all(|l| l == "S1"), "labels {labels:?}");
    }

    #[test]
    fn full_pipeline_detects_wheel_logic_bomb() {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[1.0, 1.0, 0.0]);
        let mut ads = RoboAds::with_defaults(system.clone(), x0.clone()).unwrap();
        let u = Vector::from_slice(&[0.06, 0.05]);
        // Scenario #1: −6000/+6000 speed units on the wheels.
        let bias = Vector::from_slice(&[-0.04, 0.04]);
        let mut x_true = x0;
        let mut actuator_labels = Vec::new();
        for k in 0..14 {
            let executed = if k >= 4 { &u + &bias } else { u.clone() };
            x_true = system.dynamics().step(&x_true, &executed);
            let report = ads.step(&u, &clean_readings(&system, &x_true)).unwrap();
            actuator_labels.push(report.actuator_condition_label());
        }
        assert!(actuator_labels[..4].iter().all(|&l| l == "A0"));
        assert!(
            actuator_labels[8..].iter().all(|&l| l == "A1"),
            "labels {actuator_labels:?}"
        );
    }

    #[test]
    fn recovery_after_attack_ends() {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut ads = RoboAds::with_defaults(system.clone(), x0.clone()).unwrap();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        let mut final_label = String::new();
        for k in 0..30 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            if (5..15).contains(&k) {
                readings[2][0] += 0.12; // transient LiDAR blocking
            }
            let report = ads.step(&u, &readings).unwrap();
            final_label = report.sensor_condition_label();
        }
        assert_eq!(
            final_label, "S0",
            "detector should recover after the attack"
        );
    }

    #[test]
    fn iteration_counter_and_accessors() {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
        let mut ads = RoboAds::with_defaults(system.clone(), x0.clone()).unwrap();
        assert_eq!(ads.iteration(), 0);
        let u = Vector::from_slice(&[0.05, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        ads.step(&u, &clean_readings(&system, &x1)).unwrap();
        assert_eq!(ads.iteration(), 1);
        assert_eq!(ads.modes().len(), 3);
        assert_eq!(ads.system().sensor_count(), 3);
        assert!(ads.state_covariance().is_finite());
    }

    #[test]
    fn report_mode_probabilities_are_normalized() {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
        let mut ads = RoboAds::with_defaults(system.clone(), x0.clone()).unwrap();
        let u = Vector::from_slice(&[0.05, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        let report = ads.step(&u, &clean_readings(&system, &x1)).unwrap();
        let sum: f64 = report.mode_probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }
}
