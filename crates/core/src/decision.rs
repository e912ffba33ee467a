use std::collections::HashMap;

use roboads_linalg::{Matrix, Vector};
use roboads_models::{RobotSystem, SensorSlice};
use roboads_obs::wire;
use roboads_obs::{Counter, Gauge, Telemetry, Value};
use roboads_stats::{ChiSquareTest, SlidingWindow, StatWorkspace};

use crate::config::RoboAdsConfig;
use crate::engine::EngineOutput;
use crate::mode::ModeSet;
use crate::report::{AnomalyEstimate, DetectionReport, SensorAnomaly};
use crate::Result;

/// The decision maker (Algorithm 1 lines 10–25): χ² tests on the
/// selected mode's normalized anomaly estimates, sliding-window
/// confirmation, and per-sensor splitting to identify the misbehaving
/// workflow(s).
///
/// Stateful: it owns the two sliding windows, so one `DecisionMaker`
/// must be fed every iteration in order.
#[derive(Debug, Clone)]
pub struct DecisionMaker {
    sensor_alpha: f64,
    actuator_alpha: f64,
    sensor_window: SlidingWindow,
    actuator_window: SlidingWindow,
    /// χ² tests keyed by degrees of freedom (testing-set dimensions vary
    /// by mode), built lazily and cached.
    sensor_tests: HashMap<usize, ChiSquareTest>,
    actuator_test: ChiSquareTest,
    /// Conservative test for cross-mode actuator-estimate conflicts
    /// (α = 0.001: only a decisive contradiction suppresses an alarm).
    actuator_conflict_test: ChiSquareTest,
    telemetry: Telemetry,
    instruments: DecisionInstruments,
    /// Previous iteration's window-confirmed alarms, for edge-triggered
    /// confirmed/cleared events.
    prev_sensor_alarm: bool,
    prev_actuator_alarm: bool,
    /// Reusable statistic workspaces keyed by dimension — the aggregate
    /// sensor test's testing-set dimension and the conflict test's
    /// input dimension (the same lazily-built-and-cached discipline as
    /// `sensor_tests`) — so warm assessments run without heap
    /// allocation.
    stat_workspaces: HashMap<usize, StatWorkspace>,
    /// Innovation-consistent mode indices, rebuilt each iteration.
    qualifying: Vec<usize>,
    /// Actuator-estimate difference scratch (input dimension).
    diff: Vector,
    /// Joint-covariance scratch (input dimension).
    joint: Matrix,
    /// Testing-slice scratch for the per-sensor views.
    slices: Vec<SensorSlice>,
}

/// Pre-registered metric handles for the decision maker (same
/// registration-once discipline as the engine's instruments).
#[derive(Debug, Clone)]
struct DecisionInstruments {
    /// `decision.sensor_positives` — iterations whose aggregate sensor
    /// statistic exceeded its threshold (pre-window).
    sensor_positives: Counter,
    /// `decision.actuator_positives` — pre-window actuator positives.
    actuator_positives: Counter,
    /// `decision.sensor_alarms` — rising edges of the window-confirmed
    /// sensor alarm.
    sensor_alarms: Counter,
    /// `decision.actuator_alarms` — rising edges of the confirmed
    /// actuator alarm.
    actuator_alarms: Counter,
    /// `decision.sensor_statistic` — latest aggregate sensor χ² value.
    sensor_statistic: Gauge,
    /// `decision.actuator_statistic` — latest actuator χ² value.
    actuator_statistic: Gauge,
}

impl DecisionInstruments {
    fn new(telemetry: &Telemetry) -> Self {
        let m = telemetry.metrics();
        DecisionInstruments {
            sensor_positives: m.counter("decision.sensor_positives"),
            actuator_positives: m.counter("decision.actuator_positives"),
            sensor_alarms: m.counter("decision.sensor_alarms"),
            actuator_alarms: m.counter("decision.actuator_alarms"),
            sensor_statistic: m.gauge("decision.sensor_statistic"),
            actuator_statistic: m.gauge("decision.actuator_statistic"),
        }
    }
}

impl DecisionMaker {
    /// Creates a decision maker from the detector configuration and the
    /// actuator dimension.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] for invalid α or window
    /// parameters.
    pub fn new(config: &RoboAdsConfig, input_dim: usize) -> Result<Self> {
        config.validate()?;
        let sensor_window =
            SlidingWindow::new(config.sensor_window.criteria, config.sensor_window.window)?;
        let actuator_window = SlidingWindow::new(
            config.actuator_window.criteria,
            config.actuator_window.window,
        )?;
        let actuator_test = ChiSquareTest::new(input_dim.max(1), config.actuator_alpha)?;
        let actuator_conflict_test = ChiSquareTest::new(input_dim.max(1), 0.001)?;
        let telemetry = Telemetry::disabled();
        let instruments = DecisionInstruments::new(&telemetry);
        Ok(DecisionMaker {
            sensor_alpha: config.sensor_alpha,
            actuator_alpha: config.actuator_alpha,
            sensor_window,
            actuator_window,
            sensor_tests: HashMap::new(),
            actuator_test,
            actuator_conflict_test,
            telemetry,
            instruments,
            prev_sensor_alarm: false,
            prev_actuator_alarm: false,
            stat_workspaces: HashMap::new(),
            qualifying: Vec::new(),
            diff: Vector::zeros(input_dim),
            joint: Matrix::zeros(input_dim, input_dim),
            slices: Vec::new(),
        })
    }

    /// Replaces the telemetry context (default: disabled) and
    /// re-registers the decision instruments in the new registry.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.instruments = DecisionInstruments::new(&telemetry);
        self.telemetry = telemetry;
    }

    fn sensor_test(&mut self, dof: usize) -> Result<ChiSquareTest> {
        if let Some(t) = self.sensor_tests.get(&dof) {
            return Ok(*t);
        }
        let t = ChiSquareTest::new(dof, self.sensor_alpha)?;
        self.sensor_tests.insert(dof, t);
        Ok(t)
    }

    /// Returns the statistic workspace for dimension `dim`, building and
    /// caching it on first use (warm calls are lookup-only).
    fn stat_workspace(
        workspaces: &mut HashMap<usize, StatWorkspace>,
        dim: usize,
    ) -> &mut StatWorkspace {
        workspaces
            .entry(dim)
            .or_insert_with(|| StatWorkspace::new(dim))
    }

    /// Assesses one engine iteration directly into `report`'s decision
    /// fields (`sensor_anomaly`, `actuator_anomaly`, the alarms,
    /// `misbehaving_sensors`, `per_sensor`), reusing the report's
    /// existing buffers: a warmed-up decision maker fed same-shaped
    /// engine output performs zero heap allocations. The engine-context
    /// fields (`iteration`, `selected_mode`, `mode_probabilities`,
    /// `state_estimate`) are left untouched — the caller owns them.
    ///
    /// `engine_out` must come from a [`crate::MultiModeEngine`] step:
    /// the actuator test and the per-sensor views read the per-mode
    /// statistics the engine's parsimony pass stored in each output
    /// ([`crate::NuiseOutput::actuator_statistic`],
    /// [`crate::NuiseOutput::testing_statistics`]) instead of
    /// recomputing them. The in-place statistic paths replicate the
    /// allocating formulations bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates numeric failures from the statistic computations; the
    /// report may then hold a partially updated verdict and should be
    /// discarded. The sliding windows advance only if every statistic
    /// they consume was computed.
    pub fn assess_report(
        &mut self,
        system: &RobotSystem,
        modes: &ModeSet,
        engine_out: &EngineOutput,
        report: &mut DetectionReport,
    ) -> Result<()> {
        let telemetry = self.telemetry.clone();
        let _assess_span = telemetry.span("decision.assess");
        let selected = engine_out.selected;
        let selected_out = engine_out.selected_output();

        // --- Aggregate sensor anomaly test (line 10). ---
        if selected_out.sensor_anomaly.is_empty() {
            report.sensor_anomaly = AnomalyEstimate::empty();
        } else {
            let dof = selected_out.sensor_anomaly.len();
            let stat = Self::stat_workspace(&mut self.stat_workspaces, dof)
                .normalized_statistic_into(
                    &selected_out.sensor_anomaly,
                    &selected_out.sensor_covariance,
                )?;
            let test = self.sensor_test(dof)?;
            report
                .sensor_anomaly
                .estimate
                .assign(&selected_out.sensor_anomaly);
            report
                .sensor_anomaly
                .covariance
                .assign(&selected_out.sensor_covariance);
            report.sensor_anomaly.statistic = stat;
            report.sensor_anomaly.threshold = test.threshold();
            report.sensor_anomaly.exceeds = test.exceeds(stat);
        }

        // --- Actuator anomaly test (line 11). ---
        // Quantified from the *most precise innovation-consistent* mode
        // rather than blindly from the selected one: Table IV shows the
        // actuator anomaly estimate's variance is set by the
        // reference-sensor quality (LiDAR an order of magnitude worse
        // than the pose sensors), and a weak actuator attack must not be
        // hidden by the accident of a noisy-reference mode being
        // selected. Qualification is by the mode's own innovation
        // consistency (its reference explains the data) — not by its
        // parsimony-weighted probability, which deliberately biases
        // *against* modes that can see a real input anomaly.
        //
        // Modes the activation schedule parked this iteration carry
        // stale outputs: dormant ≠ inconsistent, but a stale estimate
        // must neither source the actuator statistic nor veto a live
        // one, so only active modes qualify. The engine guarantees the
        // most actuator-precise mode stays active while the bank
        // sleeps, so the source choice matches the full bank's.
        const CONSISTENT_FLOOR: f64 = 1e-4;
        self.qualifying.clear();
        for m in 0..modes.len() {
            if engine_out.is_active(m) && engine_out.modes[m].consistency >= CONSISTENT_FLOOR {
                self.qualifying.push(m);
            }
        }
        let actuator_source = self
            .qualifying
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let ta = engine_out.modes[a].actuator_covariance.trace();
                let tb = engine_out.modes[b].actuator_covariance.trace();
                ta.partial_cmp(&tb).expect("finite covariance traces")
            })
            .unwrap_or(selected);
        let actuator_out = &engine_out.modes[actuator_source];
        // Cross-mode corroboration: a *real* actuator anomaly is
        // estimated consistently by every innovation-consistent mode,
        // while a phantom (an absorbed sensor corruption) lives in one
        // hypothesis only. If another qualifying mode's estimate
        // contradicts the source's beyond their joint covariance, the
        // estimate is reported but does not feed a positive into the
        // alarm window. A merely *blind* (high-variance) mode cannot
        // contradict anything — its joint covariance is loose.
        let mut contradicted = false;
        for &j in &self.qualifying {
            if j == actuator_source {
                continue;
            }
            self.diff.copy_from(&actuator_out.actuator_anomaly);
            self.diff -= &engine_out.modes[j].actuator_anomaly;
            self.joint.copy_from(&actuator_out.actuator_covariance);
            self.joint += &engine_out.modes[j].actuator_covariance;
            let dim = self.diff.len();
            let stat = Self::stat_workspace(&mut self.stat_workspaces, dim)
                .normalized_statistic_into(&self.diff, &self.joint)?;
            if self.actuator_conflict_test.exceeds(stat) {
                contradicted = true;
                break;
            }
        }
        {
            // The engine's parsimony pass already normalized this
            // estimate by its covariance (the same pseudo-inverse and
            // quadratic form, bit for bit).
            let stat = actuator_out.actuator_statistic;
            report
                .actuator_anomaly
                .estimate
                .assign(&actuator_out.actuator_anomaly);
            report
                .actuator_anomaly
                .covariance
                .assign(&actuator_out.actuator_covariance);
            report.actuator_anomaly.statistic = stat;
            report.actuator_anomaly.threshold = self.actuator_test.threshold();
            report.actuator_anomaly.exceeds = self.actuator_test.exceeds(stat) && !contradicted;
        }

        // --- Sliding windows (lines 12, 20). ---
        report.sensor_alarm = self.sensor_window.push(report.sensor_anomaly.exceeds);
        report.actuator_alarm = self.actuator_window.push(report.actuator_anomaly.exceeds);

        // --- Per-sensor views for the whole suite (Fig. 6), and
        //     identification (lines 13–18). ---
        // Slots are overwritten in place; the slot layout is stable
        // across iterations (sensor dimensions are fixed), so the warm
        // path never reallocates.
        let mut write = 0;
        for sensor in 0..system.sensor_count() {
            if self.per_sensor_view_into(
                system,
                modes,
                engine_out,
                sensor,
                &mut report.per_sensor,
                write,
            )? {
                write += 1;
            }
        }
        report.per_sensor.truncate(write);

        // Identification: confirmed misbehaving sensors are the testing
        // sensors of the *selected* mode whose individual statistic
        // exceeds its threshold, gated on the window-confirmed alarm.
        report.misbehaving_sensors.clear();
        if report.sensor_alarm {
            let selected_mode = &modes.modes()[selected];
            for v in &report.per_sensor {
                if v.from_mode == selected && selected_mode.is_testing(v.sensor) && v.exceeds {
                    report.misbehaving_sensors.push(v.sensor);
                }
            }
        }

        self.record_verdict(
            &telemetry,
            &report.sensor_anomaly,
            &report.actuator_anomaly,
            report.sensor_alarm,
            report.actuator_alarm,
            &report.misbehaving_sensors,
        );

        Ok(())
    }

    /// Publishes the iteration's verdict: statistic gauges, pre-window
    /// positive counters, and edge-triggered confirmed/cleared events so
    /// a JSONL trace reads as an incident log rather than a per-tick
    /// firehose.
    fn record_verdict(
        &mut self,
        telemetry: &Telemetry,
        sensor_anomaly: &AnomalyEstimate,
        actuator_anomaly: &AnomalyEstimate,
        sensor_alarm: bool,
        actuator_alarm: bool,
        misbehaving_sensors: &[usize],
    ) {
        self.instruments
            .sensor_statistic
            .set(sensor_anomaly.statistic);
        self.instruments
            .actuator_statistic
            .set(actuator_anomaly.statistic);
        if sensor_anomaly.exceeds {
            self.instruments.sensor_positives.incr();
        }
        if actuator_anomaly.exceeds {
            self.instruments.actuator_positives.incr();
        }
        if sensor_alarm && !self.prev_sensor_alarm {
            self.instruments.sensor_alarms.incr();
            telemetry.event("decision.sensor_alarm_confirmed", || {
                let sensors = misbehaving_sensors
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                vec![
                    ("statistic", Value::F64(sensor_anomaly.statistic)),
                    ("threshold", Value::F64(sensor_anomaly.threshold)),
                    ("sensors", Value::Text(sensors)),
                ]
            });
        } else if !sensor_alarm && self.prev_sensor_alarm {
            telemetry.event("decision.sensor_alarm_cleared", || {
                vec![("statistic", Value::F64(sensor_anomaly.statistic))]
            });
        }
        if actuator_alarm && !self.prev_actuator_alarm {
            self.instruments.actuator_alarms.incr();
            telemetry.event("decision.actuator_alarm_confirmed", || {
                vec![
                    ("statistic", Value::F64(actuator_anomaly.statistic)),
                    ("threshold", Value::F64(actuator_anomaly.threshold)),
                ]
            });
        } else if !actuator_alarm && self.prev_actuator_alarm {
            telemetry.event("decision.actuator_alarm_cleared", || {
                vec![("statistic", Value::F64(actuator_anomaly.statistic))]
            });
        }
        self.prev_sensor_alarm = sensor_alarm;
        self.prev_actuator_alarm = actuator_alarm;
    }

    /// Writes the per-sensor anomaly view for one sensor into
    /// `per_sensor[write]` (pushing a slot when the vector is still
    /// growing): taken from the selected mode when the sensor is in its
    /// testing set, otherwise from the most probable mode that tests it,
    /// preferring modes that actually ran this iteration (a dormant
    /// mode's view is stale; it is used only when no active mode tests
    /// the sensor, so the report keeps covering the whole suite).
    /// Returns `false` without writing for a sensor no mode ever tests
    /// (it can never be identified — the mode set designer opted it out).
    fn per_sensor_view_into(
        &mut self,
        system: &RobotSystem,
        modes: &ModeSet,
        engine_out: &EngineOutput,
        sensor: usize,
        per_sensor: &mut Vec<SensorAnomaly>,
        write: usize,
    ) -> Result<bool> {
        let selected = engine_out.selected;
        let most_probable_tester = |active_only: bool| {
            (0..modes.len())
                .filter(|&m| {
                    modes.modes()[m].is_testing(sensor) && (!active_only || engine_out.is_active(m))
                })
                .max_by(|&a, &b| {
                    engine_out.probabilities[a]
                        .partial_cmp(&engine_out.probabilities[b])
                        .expect("probabilities are finite")
                })
        };
        let source_mode = if modes.modes()[selected].is_testing(sensor) {
            Some(selected)
        } else {
            most_probable_tester(true).or_else(|| most_probable_tester(false))
        };
        let Some(m) = source_mode else {
            return Ok(false);
        };
        let mode = &modes.modes()[m];
        let out = &engine_out.modes[m];
        // Locate this sensor's block inside the mode's stacked testing
        // vector; the engine stored its statistic at the same slice
        // index.
        system.subset_slices_into(mode.testing(), &mut self.slices);
        let (index, slice) = self
            .slices
            .iter()
            .copied()
            .enumerate()
            .find(|(_, s)| s.sensor == sensor)
            .expect("sensor is in this mode's testing set");
        if write == per_sensor.len() {
            per_sensor.push(SensorAnomaly {
                sensor,
                name: String::new(),
                estimate: Vector::zeros(slice.len),
                statistic: 0.0,
                exceeds: false,
                from_mode: m,
            });
        }
        let slot = &mut per_sensor[write];
        slot.sensor = sensor;
        slot.from_mode = m;
        let name = system.sensor_name(sensor);
        if slot.name != name {
            slot.name.clear();
            slot.name.push_str(name);
        }
        if slot.estimate.len() != slice.len {
            slot.estimate = Vector::zeros(slice.len);
        }
        out.sensor_anomaly
            .segment_into(slice.offset, &mut slot.estimate);
        let stat = out.testing_statistics[index];
        let test = self.sensor_test(slice.len)?;
        slot.statistic = stat;
        slot.exceeds = test.exceeds(stat);
        Ok(true)
    }

    /// Whether either sliding window currently holds a positive — i.e.
    /// a χ² decision window is open and counting toward (or holding) a
    /// confirmed alarm. The engine's activation scheduler treats this
    /// as external activity: the mode bank must stay fully awake while
    /// any hypothesis is in contention (see `DESIGN.md` §17).
    pub(crate) fn windows_active(&self) -> bool {
        self.sensor_window.positives() > 0 || self.actuator_window.positives() > 0
    }

    /// Appends the decision maker's mutable state to a snapshot buffer
    /// (DESIGN.md §18): both sliding-window histories and the previous
    /// edge-trigger alarms. The χ²-test and workspace caches are
    /// deterministic lazy builds and are left to the restore twin.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        let sensor: Vec<bool> = self.sensor_window.history().collect();
        let actuator: Vec<bool> = self.actuator_window.history().collect();
        wire::put_bool_slice(out, &sensor);
        wire::put_bool_slice(out, &actuator);
        wire::put_bool(out, self.prev_sensor_alarm);
        wire::put_bool(out, self.prev_actuator_alarm);
    }

    /// Restores the decision maker's mutable state from a snapshot
    /// buffer.
    pub(crate) fn snap_read(&mut self, rd: &mut wire::ByteReader<'_>) -> Result<()> {
        let sensor = rd.bool_vec()?;
        let actuator = rd.bool_vec()?;
        self.sensor_window.restore_history(&sensor)?;
        self.actuator_window.restore_history(&actuator)?;
        self.prev_sensor_alarm = rd.bool()?;
        self.prev_actuator_alarm = rd.bool()?;
        Ok(())
    }

    /// The configured sensor significance level.
    pub fn sensor_alpha(&self) -> f64 {
        self.sensor_alpha
    }

    /// The configured actuator significance level.
    pub fn actuator_alpha(&self) -> f64 {
        self.actuator_alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MultiModeEngine;
    use roboads_linalg::Vector;
    use roboads_models::presets;

    fn setup() -> (RobotSystem, MultiModeEngine, DecisionMaker, Vector) {
        let system = presets::khepera_system();
        let modes = ModeSet::one_reference_per_sensor(&system);
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let engine = MultiModeEngine::new(
            system.clone(),
            modes,
            x0.clone(),
            &RoboAdsConfig::paper_defaults(),
        )
        .unwrap();
        let dm = DecisionMaker::new(&RoboAdsConfig::paper_defaults(), system.input_dim()).unwrap();
        (system, engine, dm, x0)
    }

    /// One decision-maker iteration into a fresh report.
    fn assess(
        dm: &mut DecisionMaker,
        system: &RobotSystem,
        modes: &ModeSet,
        out: &EngineOutput,
    ) -> DetectionReport {
        let mut report = DetectionReport::blank();
        dm.assess_report(system, modes, out, &mut report).unwrap();
        report
    }

    fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
        (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(x))
            .collect()
    }

    #[test]
    fn clean_iterations_raise_no_alarms() {
        let (system, mut engine, mut dm, x0) = setup();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        for _ in 0..20 {
            x_true = system.dynamics().step(&x_true, &u);
            let out = engine.step(&u, &clean_readings(&system, &x_true)).unwrap();
            let d = assess(&mut dm, &system, engine.modes(), &out);
            assert!(!d.sensor_alarm);
            assert!(!d.actuator_alarm);
            assert!(d.misbehaving_sensors.is_empty());
            // Per-sensor views cover the whole suite.
            assert_eq!(d.per_sensor.len(), 3);
        }
    }

    #[test]
    fn persistent_sensor_bias_is_identified_within_window() {
        let (system, mut engine, mut dm, x0) = setup();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        let mut identified_at = None;
        for k in 0..10 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            readings[0][0] += 0.07; // IPS logic bomb (scenario #3 scale)
            let out = engine.step(&u, &readings).unwrap();
            let d = assess(&mut dm, &system, engine.modes(), &out);
            if d.misbehaving_sensors == vec![0] && identified_at.is_none() {
                identified_at = Some(k);
            }
        }
        // 2/2 window → identified by the second corrupted iteration.
        assert_eq!(identified_at, Some(1));
    }

    #[test]
    fn actuator_bias_is_confirmed_through_longer_window() {
        let (system, mut engine, mut dm, x0) = setup();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let bias = Vector::from_slice(&[-0.04, 0.04]); // ∓6000 speed units
        let mut x_true = x0;
        let mut alarm_at = None;
        for k in 0..12 {
            x_true = system.dynamics().step(&x_true, &(&u + &bias));
            let out = engine.step(&u, &clean_readings(&system, &x_true)).unwrap();
            let d = assess(&mut dm, &system, engine.modes(), &out);
            if d.actuator_alarm && alarm_at.is_none() {
                alarm_at = Some(k);
            }
            assert!(d.misbehaving_sensors.is_empty());
        }
        // 3/6 window → confirmed at the third positive.
        assert_eq!(alarm_at, Some(2));
        // The anomaly estimate quantifies the bias.
    }

    #[test]
    fn single_glitch_is_suppressed_by_window() {
        let (system, mut engine, mut dm, x0) = setup();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        for k in 0..10 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            if k == 5 {
                readings[1][1] += 0.2; // one-iteration encoder glitch
            }
            let out = engine.step(&u, &readings).unwrap();
            let d = assess(&mut dm, &system, engine.modes(), &out);
            assert!(!d.sensor_alarm, "glitch should not confirm at k={k}");
        }
    }

    #[test]
    fn two_simultaneously_corrupted_sensors_are_both_identified() {
        let (system, mut engine, mut dm, x0) = setup();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        let mut last = Vec::new();
        for _ in 0..10 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            readings[1][0] += 0.06; // encoder
            readings[2][1] += 0.08; // lidar
            let out = engine.step(&u, &readings).unwrap();
            let d = assess(&mut dm, &system, engine.modes(), &out);
            last = d.misbehaving_sensors;
        }
        assert_eq!(last, vec![1, 2], "should identify WE + LiDAR (S4)");
    }

    /// Builds a synthetic engine output for conflict-logic tests: three
    /// modes, all innovation-consistent, with chosen actuator estimates.
    fn synthetic_engine_output(
        system: &RobotSystem,
        modes: &ModeSet,
        actuators: Vec<(Vector, f64, f64)>, // (estimate, cov scale, consistency)
    ) -> EngineOutput {
        use crate::nuise::NuiseOutput;
        use roboads_linalg::Matrix;
        let outputs: Vec<NuiseOutput> = modes
            .modes()
            .iter()
            .zip(actuators)
            .map(|(mode, (d_a, cov, consistency))| {
                let s_dim = system.subset_dim(mode.testing());
                let actuator_covariance = Matrix::identity(2) * cov;
                // The engine's parsimony pass fills the statistics; the
                // zero sensor anomaly normalizes to zero per slice.
                let actuator_statistic =
                    roboads_stats::normalized_statistic(&d_a, &actuator_covariance).unwrap();
                NuiseOutput {
                    state_estimate: Vector::zeros(3),
                    state_covariance: Matrix::identity(3) * 1e-4,
                    actuator_anomaly: d_a,
                    actuator_covariance,
                    sensor_anomaly: Vector::zeros(s_dim),
                    sensor_covariance: Matrix::identity(s_dim) * 1e-4,
                    likelihood: 1.0,
                    consistency,
                    innovation: Vector::zeros(0),
                    actuator_statistic,
                    testing_statistics: vec![0.0; mode.testing().len()],
                }
            })
            .collect();
        EngineOutput {
            modes: outputs,
            probabilities: vec![1.0 / 3.0; 3],
            active: vec![true; 3],
            selected: 0,
        }
    }

    #[test]
    fn contradicted_actuator_estimate_is_suppressed() {
        let system = presets::khepera_system();
        let modes = ModeSet::one_reference_per_sensor(&system);
        let mut dm =
            DecisionMaker::new(&RoboAdsConfig::paper_defaults(), system.input_dim()).unwrap();
        // The most precise mode claims a big anomaly; another equally
        // consistent, equally precise mode says zero → decisive
        // contradiction → no positive.
        let out = synthetic_engine_output(
            &system,
            &modes,
            vec![
                (Vector::from_slice(&[0.05, -0.05]), 1e-6, 1.0),
                (Vector::zeros(2), 2e-6, 1.0),
                (Vector::zeros(2), 1e-2, 1.0),
            ],
        );
        let d = assess(&mut dm, &system, &modes, &out);
        assert!(d.actuator_anomaly.statistic > d.actuator_anomaly.threshold);
        assert!(
            !d.actuator_anomaly.exceeds,
            "contradicted claim must not alarm"
        );
    }

    #[test]
    fn corroborated_or_unopposed_estimates_do_alarm() {
        let system = presets::khepera_system();
        let modes = ModeSet::one_reference_per_sensor(&system);
        let mut dm =
            DecisionMaker::new(&RoboAdsConfig::paper_defaults(), system.input_dim()).unwrap();
        // All consistent modes agree on the anomaly → alarm.
        let agreeing = synthetic_engine_output(
            &system,
            &modes,
            vec![
                (Vector::from_slice(&[0.05, -0.05]), 1e-6, 1.0),
                (Vector::from_slice(&[0.049, -0.051]), 2e-6, 1.0),
                (Vector::from_slice(&[0.03, -0.08]), 1e-2, 1.0),
            ],
        );
        let d = assess(&mut dm, &system, &modes, &agreeing);
        assert!(d.actuator_anomaly.exceeds);

        // A blind (loose-covariance) disagreement cannot veto.
        let mut dm =
            DecisionMaker::new(&RoboAdsConfig::paper_defaults(), system.input_dim()).unwrap();
        let blind_opposition = synthetic_engine_output(
            &system,
            &modes,
            vec![
                (Vector::from_slice(&[0.05, -0.05]), 1e-6, 1.0),
                (Vector::zeros(2), 1e-2, 1.0), // loose: no contradiction
                (Vector::zeros(2), 1e-2, 1e-9), // inconsistent: not qualifying
            ],
        );
        let d = assess(&mut dm, &system, &modes, &blind_opposition);
        assert!(d.actuator_anomaly.exceeds);
    }

    #[test]
    fn alpha_accessors() {
        let (_, _, dm, _) = setup();
        assert_eq!(dm.sensor_alpha(), 0.005);
        assert_eq!(dm.actuator_alpha(), 0.05);
    }
}
