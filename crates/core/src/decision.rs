use roboads_linalg::{CholeskySlabWorkspace, LinalgError, Matrix, MatrixSlab, Vector, VectorSlab};
use roboads_models::{RobotSystem, SensorSlice};
use roboads_obs::wire;
use roboads_obs::{Counter, Gauge, Telemetry, Value};
use roboads_stats::{ChiSquareTest, SlidingWindow, StatsError};

use crate::config::RoboAdsConfig;
use crate::engine::EngineOutput;
use crate::mode::ModeSet;
use crate::report::{AnomalyEstimate, DetectionReport, SensorAnomaly};
use crate::{CoreError, Result, Scratch};

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
    /// The sensor χ² tests, one per degrees of freedom the mode set can
    /// ask for — each testing sensor's dimension and each mode's whole
    /// testing dimension — resolved at construction.
    sensor_tests: Vec<ChiSquareTest>,
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
    /// One-lane `dᵀP⁺d` scratch indexed by dimension, for the
    /// cross-mode conflict tests and for the aggregate sensor test when
    /// no fleet slab job batched it. Built on first use, so warm
    /// assessments run without heap allocation, and never copied by
    /// `Clone`.
    statistics: Scratch<Vec<Option<NormalizedStatistic<1>>>>,
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
    /// Creates a decision maker from the detector configuration, the
    /// system and its mode set, resolving every χ² threshold the mode
    /// set can ask for.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::InvalidConfig`] for invalid α or window
    /// parameters, and [`crate::CoreError::Numeric`] if a χ² threshold
    /// cannot be resolved.
    pub fn new(config: &RoboAdsConfig, system: &RobotSystem, modes: &ModeSet) -> Result<Self> {
        config.validate()?;
        let input_dim = system.input_dim();
        let mut sensor_tests: Vec<ChiSquareTest> = Vec::new();
        for mode in modes.modes() {
            let slices = system.subset_slices(mode.testing());
            let total = slices.iter().map(|s| s.len).sum();
            for dof in slices.iter().map(|s| s.len).chain([total]) {
                if dof > 0 && !sensor_tests.iter().any(|t| t.dof() == dof) {
                    sensor_tests.push(ChiSquareTest::new(dof, config.sensor_alpha)?);
                }
            }
        }
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
            sensor_tests,
            actuator_test,
            actuator_conflict_test,
            telemetry,
            instruments,
            prev_sensor_alarm: false,
            prev_actuator_alarm: false,
            statistics: Scratch::default(),
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

    /// The sensor test at `dof` degrees of freedom; a dof the mode set
    /// never asks for is an [`CoreError::InvalidConfig`].
    fn sensor_test(&self, dof: usize) -> Result<ChiSquareTest> {
        self.sensor_tests
            .iter()
            .find(|t| t.dof() == dof)
            .copied()
            .ok_or_else(|| CoreError::InvalidConfig {
                name: "sensor_test_dof",
                value: format!("{dof}, which no mode of this decision maker tests"),
            })
    }

    /// `dᵀP⁺d` on the one-lane scratch for `d`'s dimension (built and
    /// cached on first use; warm calls are lookup-only).
    fn statistic(
        statistics: &mut Scratch<Vec<Option<NormalizedStatistic<1>>>>,
        d: &Vector,
        covariance: &Matrix,
    ) -> Result<f64> {
        let dim = d.len();
        let scratch =
            cache_slot(&mut statistics.0, dim).get_or_insert_with(|| NormalizedStatistic::new(dim));
        scratch.load_lane(0, d, covariance);
        scratch.run(&[true]);
        scratch.lane(0)
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
        self.assess_report_with(system, modes, engine_out, None, report)
    }

    /// [`DecisionMaker::assess_report`], with the selected mode's
    /// aggregate sensor statistic (Algorithm 1 line 10) already computed
    /// when `aggregate` is `Some` — a fleet slab job batches it across
    /// the robots that selected the same mode — and computed here at one
    /// lane otherwise. A precomputed error ends the assessment exactly
    /// where a computed one would.
    pub(crate) fn assess_report_with(
        &mut self,
        system: &RobotSystem,
        modes: &ModeSet,
        engine_out: &EngineOutput,
        aggregate: Option<Result<f64>>,
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
            let stat = match aggregate {
                Some(stat) => stat?,
                None => Self::statistic(
                    &mut self.statistics,
                    &selected_out.sensor_anomaly,
                    &selected_out.sensor_covariance,
                )?,
            };
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
        // *against* modes that can see a real input anomaly. A NaN trace
        // sorts last, so it is the source only when no trace is finite.
        const CONSISTENT_FLOOR: f64 = 1e-4;
        self.qualifying.clear();
        for m in 0..modes.len() {
            if engine_out.modes[m].consistency >= CONSISTENT_FLOOR {
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
                ta.partial_cmp(&tb)
                    .unwrap_or_else(|| ta.is_nan().cmp(&tb.is_nan()))
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
            let stat = Self::statistic(&mut self.statistics, &self.diff, &self.joint)?;
            if self.actuator_conflict_test.exceeds(stat) {
                contradicted = true;
                break;
            }
        }
        {
            // The engine's parsimony pass already normalized this
            // estimate by its covariance, as d̂ᵀ·N·d̂ on the normal
            // matrix N = (Pᵃ)⁻¹ it holds.
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
    /// testing set, otherwise from the most probable mode that tests it.
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
        let source_mode = if modes.modes()[selected].is_testing(sensor) {
            Some(selected)
        } else {
            (0..modes.len())
                .filter(|&m| modes.modes()[m].is_testing(sensor))
                .max_by(|&a, &b| {
                    engine_out.probabilities[a]
                        .partial_cmp(&engine_out.probabilities[b])
                        .expect("probabilities are finite")
                })
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

    /// Appends the decision maker's mutable state to a snapshot buffer
    /// (DESIGN.md §18): both sliding-window histories and the previous
    /// edge-trigger alarms. The χ² tests are construction constants and
    /// the statistic scratch is rebuilt on use; both belong to the
    /// restore twin.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        // `put_bool_slice`'s layout, written straight from the windows
        // so a periodic snapshot allocates nothing.
        for window in [&self.sensor_window, &self.actuator_window] {
            let history = window.history();
            wire::put_u32(out, history.len() as u32);
            for positive in history {
                wire::put_bool(out, positive);
            }
        }
        wire::put_bool(out, self.prev_sensor_alarm);
        wire::put_bool(out, self.prev_actuator_alarm);
    }

    /// Restores the decision maker's mutable state from a snapshot
    /// buffer. A history longer than the twin's window is refused
    /// before it is read.
    pub(crate) fn snap_read(&mut self, rd: &mut wire::ByteReader<'_>) -> Result<()> {
        for window in [&mut self.sensor_window, &mut self.actuator_window] {
            let len = rd.u32()? as usize;
            if len > window.window() {
                return Err(crate::snapshot::snapshot_err(format!(
                    "window history of {len} entries, twin window {}",
                    window.window()
                )));
            }
            let history = (0..len)
                .map(|_| rd.bool())
                .collect::<std::result::Result<Vec<_>, _>>()?;
            window.restore_history(&history)?;
        }
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

/// The cache slot for `key`, growing the cache with empty slots the
/// first time a larger key is seen (warm lookups are plain indexing).
fn cache_slot<T>(cache: &mut Vec<Option<T>>, key: usize) -> &mut Option<T> {
    if cache.len() <= key {
        cache.resize_with(key + 1, || None);
    }
    &mut cache[key]
}

/// The normalized statistic `dᵀ P⁺ d` for up to `K` estimates at once:
/// per lane bitwise identical to [`roboads_stats::normalized_statistic`]
/// on that lane's estimate and covariance. Every lane is whitened by the
/// lane-batched Cholesky, replaying [`Matrix::whitened_quadratic_form`]'s
/// acceptance rule; each lane it rejects (a numerically singular or
/// non-finite covariance) is copied out and takes the allocating
/// pseudo-inverse, `d.quadratic_form(&cov.pseudo_inverse()?)`, exactly
/// the reference's fallback — so a healthy call allocates nothing and a
/// rejected lane gets the reference's value or error. A decision maker
/// runs it at one lane, for the cross-mode conflict tests and the
/// aggregate sensor test (Algorithm 1 line 10); a fleet slab job runs
/// the aggregate test eight lanes wide, one scratch per mode, over the
/// robots that selected that mode; and the NUISE kernel's parsimony pass
/// runs one per testing sensor, over its mode's lanes.
#[derive(Debug, Clone)]
pub(crate) struct NormalizedStatistic<const K: usize> {
    d: VectorSlab<K>,
    cov: MatrixSlab<K>,
    /// The Cholesky factor.
    factor: MatrixSlab<K>,
    chol: CholeskySlabWorkspace<K>,
    /// A rejected lane's estimate and covariance, copied out for the
    /// pseudo-inverse.
    lane_d: Vector,
    lane_cov: Matrix,
    /// Each active lane's statistic, or the error the pseudo-inverse
    /// returned on it.
    statistic: [std::result::Result<f64, LinalgError>; K],
}

impl<const K: usize> NormalizedStatistic<K> {
    /// Scratch for length-`dim` estimates.
    pub(crate) fn new(dim: usize) -> Self {
        NormalizedStatistic {
            d: VectorSlab::zeros(dim),
            cov: MatrixSlab::zeros(dim, dim),
            factor: MatrixSlab::zeros(dim, dim),
            chol: CholeskySlabWorkspace::new(dim),
            lane_d: Vector::zeros(dim),
            lane_cov: Matrix::zeros(dim, dim),
            statistic: std::array::from_fn(|_| Ok(0.0)),
        }
    }

    /// Loads lane `l` with an estimate `d` and its covariance.
    ///
    /// # Panics
    ///
    /// Panics if `d` or `covariance` does not match the scratch's
    /// dimension.
    pub(crate) fn load_lane(&mut self, l: usize, d: &Vector, covariance: &Matrix) {
        self.d.load_lane(l, d);
        self.cov.load_lane(l, covariance);
    }

    /// Loads every lane with the `len`-long segment at `offset` of `d`
    /// and the matching diagonal block of `covariance` — the slab twin
    /// of `Vector::segment` and `Matrix::block`.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not fit `d` or `covariance`.
    pub(crate) fn load_block(
        &mut self,
        d: &VectorSlab<K>,
        covariance: &MatrixSlab<K>,
        offset: usize,
    ) {
        let n = self.d.len();
        for i in 0..n {
            *self.d.at_mut(i) = *d.at(offset + i);
            for j in 0..n {
                *self.cov.at_mut(i, j) = *covariance.at(offset + i, offset + j);
            }
        }
    }

    /// Computes the statistic of every `active` lane.
    pub(crate) fn run(&mut self, active: &[bool; K]) {
        let accepted = self
            .chol
            .whiten(&self.cov, &self.d, &mut self.factor, active);
        for (l, &accepted) in accepted.iter().enumerate() {
            if accepted {
                self.statistic[l] = Ok(self.chol.norm_squared()[l]);
            } else if active[l] {
                self.d.store_lane(l, &mut self.lane_d);
                self.cov.store_lane(l, &mut self.lane_cov);
                self.statistic[l] = self
                    .lane_cov
                    .pseudo_inverse()
                    .and_then(|pinv| self.lane_d.quadratic_form(&pinv));
            }
        }
    }

    /// Lane `l`'s statistic from the last [`run`](Self::run), or the
    /// error `normalized_statistic` returns on its inputs.
    pub(crate) fn lane(&self, l: usize) -> Result<f64> {
        self.value(l).map_err(|e| StatsError::from(e).into())
    }

    /// Lane `l`'s statistic from the last [`run`](Self::run), or the
    /// error [`Matrix::whitened_quadratic_form`] returns on its inputs.
    /// Only meaningful for lanes active in that run.
    pub(crate) fn value(&self, l: usize) -> std::result::Result<f64, LinalgError> {
        self.statistic[l].clone()
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
        let dm =
            DecisionMaker::new(&RoboAdsConfig::paper_defaults(), &system, engine.modes()).unwrap();
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
            selected: 0,
        }
    }

    #[test]
    fn window_history_longer_than_the_window_is_a_snapshot_error() {
        // The sensor window is 2/2: a snapshot claiming seven history
        // entries cannot belong to this twin.
        let system = presets::khepera_system();
        let modes = ModeSet::one_reference_per_sensor(&system);
        let mut dm = DecisionMaker::new(&RoboAdsConfig::paper_defaults(), &system, &modes).unwrap();
        let mut bytes = Vec::new();
        wire::put_bool_slice(&mut bytes, &[false; 7]);
        wire::put_bool_slice(&mut bytes, &[false; 6]);
        wire::put_bool(&mut bytes, false);
        wire::put_bool(&mut bytes, false);
        let result = dm.snap_read(&mut wire::ByteReader::new(&bytes));
        assert!(
            matches!(result, Err(crate::CoreError::Snapshot { .. })),
            "{result:?}"
        );
    }

    #[test]
    fn contradicted_actuator_estimate_is_suppressed() {
        let system = presets::khepera_system();
        let modes = ModeSet::one_reference_per_sensor(&system);
        let mut dm = DecisionMaker::new(&RoboAdsConfig::paper_defaults(), &system, &modes).unwrap();
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
        let mut dm = DecisionMaker::new(&RoboAdsConfig::paper_defaults(), &system, &modes).unwrap();
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
        let mut dm = DecisionMaker::new(&RoboAdsConfig::paper_defaults(), &system, &modes).unwrap();
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
    fn nan_joint_covariance_makes_the_conflict_test_an_error() {
        let system = presets::khepera_system();
        let modes = ModeSet::one_reference_per_sensor(&system);
        let mut dm = DecisionMaker::new(&RoboAdsConfig::paper_defaults(), &system, &modes).unwrap();
        // The same decisive contradiction as above, but the opposing
        // mode's actuator covariance carries a NaN off-diagonal pair, so
        // the 2 × 2 joint covariance of the conflict test is NaN. Its
        // statistic has no value: it must be an error, never the
        // `Ok(0.0)` ("no conflict") of a NaN spectrum zeroed out.
        let mut out = synthetic_engine_output(
            &system,
            &modes,
            vec![
                (Vector::from_slice(&[0.05, -0.05]), 1e-6, 1.0),
                (Vector::zeros(2), 2e-6, 1.0),
                (Vector::zeros(2), 1e-2, 1.0),
            ],
        );
        out.modes[1].actuator_covariance[(0, 1)] = f64::NAN;
        out.modes[1].actuator_covariance[(1, 0)] = f64::NAN;
        let mut report = DetectionReport::blank();
        let result = dm.assess_report(&system, &modes, &out, &mut report);
        let no_convergence = LinalgError::NoConvergence {
            sweeps: roboads_linalg::JACOBI_MAX_SWEEPS,
        };
        assert_eq!(
            result,
            Err(StatsError::Linalg(no_convergence).into()),
            "a NaN joint covariance must not read as no conflict"
        );
    }

    #[test]
    fn nan_actuator_covariance_trace_sorts_last() {
        let system = presets::khepera_system();
        let modes = ModeSet::one_reference_per_sensor(&system);
        let mut dm = DecisionMaker::new(&RoboAdsConfig::paper_defaults(), &system, &modes).unwrap();
        // Every mode is innovation-consistent. Mode 1's actuator
        // covariance trace is NaN, so it can never be the most precise
        // source: mode 2 (trace 2e-6) beats mode 0 (4e-6). Mode 0 then
        // decisively contradicts mode 2's claim, so the conflict loop
        // stops before it reaches mode 1's NaN joint covariance.
        let mut out = synthetic_engine_output(
            &system,
            &modes,
            vec![
                (Vector::zeros(2), 2e-6, 1.0),
                (Vector::zeros(2), 1e-6, 1.0),
                (Vector::from_slice(&[0.05, -0.05]), 1e-6, 1.0),
            ],
        );
        out.modes[1].actuator_covariance[(0, 0)] = f64::NAN;
        let mut report = DetectionReport::blank();
        dm.assess_report(&system, &modes, &out, &mut report)
            .unwrap();
        assert_eq!(
            report.actuator_anomaly.estimate, out.modes[2].actuator_anomaly,
            "the source must be the most precise finite mode"
        );
        assert_eq!(
            report.actuator_anomaly.statistic.to_bits(),
            out.modes[2].actuator_statistic.to_bits()
        );
        assert!(!report.actuator_anomaly.exceeds, "mode 0 contradicts it");
    }

    #[test]
    fn sensor_tests_are_resolved_for_the_mode_set_only() {
        let (system, engine, dm, _) = setup();
        // Each testing sensor's dimension and each mode's whole testing
        // dimension, and nothing else.
        let mut dofs: Vec<usize> = dm.sensor_tests.iter().map(ChiSquareTest::dof).collect();
        dofs.sort_unstable();
        let mut expected = Vec::new();
        for mode in engine.modes().modes() {
            let slices = system.subset_slices(mode.testing());
            expected.extend(slices.iter().map(|s| s.len));
            expected.push(slices.iter().map(|s| s.len).sum());
        }
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(dofs, expected);
        let missing = (1..).find(|d| !expected.contains(d)).unwrap();
        assert!(matches!(
            dm.sensor_test(missing),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn alpha_accessors() {
        let (_, _, dm, _) = setup();
        assert_eq!(dm.sensor_alpha(), 0.005);
        assert_eq!(dm.actuator_alpha(), 0.05);
    }

    #[test]
    fn normalized_statistic_lanes_equal_the_allocating_function() {
        let cases = [
            (
                Vector::from_slice(&[1.0, 2.0]),
                Matrix::from_diagonal(&[1.0, 4.0]),
            ),
            (
                Vector::from_slice(&[3.0, 0.0]),
                Matrix::from_diagonal(&[9.0, 0.0]), // singular
            ),
            (
                Vector::from_slice(&[0.2, -0.1]),
                Matrix::from_rows(&[&[0.01, 0.002], &[0.002, 0.04]]).unwrap(),
            ),
        ];
        let expected: Vec<u64> = cases
            .iter()
            .map(|(d, p)| roboads_stats::normalized_statistic(d, p).unwrap().to_bits())
            .collect();
        // One lane, reused case after case, as a decision maker does.
        let mut one = NormalizedStatistic::<1>::new(2);
        for ((d, p), want) in cases.iter().zip(&expected) {
            one.load_lane(0, d, p);
            one.run(&[true]);
            assert_eq!(one.lane(0).unwrap().to_bits(), *want);
        }
        // Eight 3×3 lanes. One is rank deficient: the whitening rejects
        // it and its pseudo-inverse converges. One cannot converge (a
        // NaN pair spreads through every rotation): it fails alone, with
        // the allocating function's error, and its neighbours stay exact.
        let mut eight = NormalizedStatistic::<8>::new(3);
        let mut expected = Vec::new();
        for l in 0..8 {
            let x = l as f64;
            let d = Vector::from_slice(&[x + 1.0, -0.5, 0.25 * x]);
            let mut p = Matrix::from_rows(&[
                &[2.0 + x, 0.3, -0.1 * x],
                &[0.3, 1.0, 0.2],
                &[-0.1 * x, 0.2, 0.5 + x],
            ])
            .unwrap();
            if l == 2 {
                p = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0], &[0.0, 0.0, 2.0]])
                    .unwrap();
                let whitened = roboads_linalg::Cholesky::whitened_norm_squared(&p, &d).unwrap();
                assert!(
                    whitened.is_none(),
                    "the whitening must reject the singular lane"
                );
            }
            if l == 5 {
                p[(0, 1)] = f64::NAN;
                p[(1, 0)] = f64::NAN;
            }
            eight.load_lane(l, &d, &p);
            expected
                .push(roboads_stats::normalized_statistic(&d, &p).map_err(crate::CoreError::from));
        }
        eight.run(&[true; 8]);
        assert!(expected[2].is_ok(), "the singular lane must converge");
        assert!(expected[5].is_err(), "the poisoned lane must not converge");
        for (l, want) in expected.iter().enumerate() {
            match (eight.lane(l), want) {
                (Ok(got), Ok(want)) => assert_eq!(got.to_bits(), want.to_bits(), "lane {l}"),
                (got, want) => assert_eq!(&got, want, "lane {l}"),
            }
        }
    }
}
