use roboads_control::Path;
use roboads_core::{
    baseline, DetectionReport, IncidentCapsule, ModeSet, RecorderConfig, RoboAds, RoboAdsConfig,
};
use roboads_models::RobotSystem;

use roboads_obs::Telemetry;

use crate::attacks::AttackSpec;
use crate::eval::EvalResult;
use crate::scenario::Scenario;
use crate::telemetry::TelemetrySummary;
use crate::trace::Trace;
use crate::world::{evaluation_start, RobotKind, RobotWorld};
use crate::{Result, SimError};

/// How the monitor fills its inputs when no fresh frame for an
/// arbitration id survived the tick — trashed, dropped, or only a
/// stale-stamped replay present. The standalone mirror of
/// [`FleetIngest`]'s `DeadlinePolicy`: the monitor consumes through the
/// staleness-aware [`Bus::latest_fresh`] view, holding the last decoded
/// value of a missing id, and this policy decides whether the detector
/// steps on it.
///
/// [`FleetIngest`]: roboads_core::FleetIngest
/// [`Bus::latest_fresh`]: crate::bus::Bus::latest_fresh
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FramePolicy {
    /// Re-use the last consumed value for the missing id and keep
    /// stepping the detector (default; a frozen input is exactly what
    /// the detector should flag).
    #[default]
    HoldLast,
    /// Freeze the detector: the step is skipped and the previous
    /// tick's report re-used until fresh frames return. Degrades to
    /// [`FramePolicy::HoldLast`] on the very first tick, when there is
    /// no previous report to freeze.
    MarkMissing,
}

/// The result of a full simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-iteration records.
    pub trace: Trace,
    /// Evaluation against the scenario's ground truth.
    pub eval: EvalResult,
    /// The final iteration's detection report.
    pub report: DetectionReport,
    /// Detector-health summary condensed from the run's telemetry
    /// registry (step latency, per-mode distributions, failure counts).
    pub telemetry: TelemetrySummary,
    /// Incident capsules sealed by the flight recorder (empty unless
    /// [`SimulationBuilder::recorder`] was configured).
    pub capsules: Vec<IncidentCapsule>,
}

/// Builder wiring an arena, mission, tracker, workflows and the RoboADS
/// detector into one reproducible closed-loop run.
///
/// # Example
///
/// ```
/// use roboads_sim::{Scenario, SimulationBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let outcome = SimulationBuilder::khepera()
///     .scenario(Scenario::wheel_logic_bomb())
///     .seed(11)
///     .run()?;
/// assert!(outcome.eval.actuator_delay().unwrap() < 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    kind: RobotKind,
    scenario: Scenario,
    seed: u64,
    config: RoboAdsConfig,
    duration: Option<usize>,
    system: Option<RobotSystem>,
    mode_set: Option<ModeSet>,
    path_override: Option<Path>,
    use_linearized_baseline: bool,
    telemetry: Option<Telemetry>,
    recorder: Option<RecorderConfig>,
    attacks: Vec<AttackSpec>,
    frame_policy: FramePolicy,
}

impl SimulationBuilder {
    /// Starts a Khepera run with paper-default configuration and a
    /// clean scenario.
    pub fn khepera() -> Self {
        SimulationBuilder {
            kind: RobotKind::Khepera,
            scenario: Scenario::clean(),
            seed: 0,
            config: RoboAdsConfig::paper_defaults(),
            duration: None,
            system: None,
            mode_set: None,
            path_override: None,
            use_linearized_baseline: false,
            telemetry: None,
            recorder: None,
            attacks: Vec::new(),
            frame_policy: FramePolicy::HoldLast,
        }
    }

    /// Starts a Tamiya run.
    pub fn tamiya() -> Self {
        let mut b = SimulationBuilder::khepera();
        b.kind = RobotKind::Tamiya;
        b
    }

    /// Sets the scenario (attack/failure script).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sets the random seed for all noise and attack streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the detector configuration (used by the Fig. 7 sweeps).
    pub fn config(mut self, config: RoboAdsConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the run length in iterations (default: the scenario's).
    pub fn duration(mut self, iterations: usize) -> Self {
        self.duration = Some(iterations);
        self
    }

    /// Overrides the robot system (e.g. a quality-scaled sensor suite
    /// for the §V-E sweep).
    pub fn system(mut self, system: RobotSystem) -> Self {
        self.system = Some(system);
        self
    }

    /// Overrides the mode set (e.g. single-reference sets for Table IV).
    pub fn mode_set(mut self, mode_set: ModeSet) -> Self {
        self.mode_set = Some(mode_set);
        self
    }

    /// Overrides the mission path (e.g. the high-curvature perimeter
    /// loop the §V-G baseline comparison drives to exercise the
    /// nonlinearity).
    pub fn path(mut self, path: Path) -> Self {
        self.path_override = Some(path);
        self
    }

    /// Runs the §V-G linearize-once baseline
    /// ([`roboads_core::baseline::linearized_once`]) instead of RoboADS
    /// proper. Telemetry and the recorder apply to it alike.
    pub fn linearized_baseline(mut self, yes: bool) -> Self {
        self.use_linearized_baseline = yes;
        self
    }

    /// Supplies the telemetry context threaded through the detector
    /// pipeline and the run loop. The default context has a disabled
    /// sink (spans/events vanish without reading the clock) but a live
    /// registry, so [`SimOutcome::telemetry`] is populated either way;
    /// pass one backed by a `RingBufferSink`/`WriterSink` to also
    /// capture spans and alarm events.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Attaches a flight recorder to the RoboADS detector: every tick's
    /// stamped inputs and decision digest are captured in a ring, and a
    /// confirmed alarm freezes a pre/post window into an
    /// [`IncidentCapsule`] (see [`SimOutcome::capsules`]).
    pub fn recorder(mut self, config: RecorderConfig) -> Self {
        self.recorder = Some(config);
        self
    }

    /// Registers a bus-level attack ([`crate::attacks`]), applied at
    /// the monitor seam — after every workflow published its frames,
    /// before the monitor decodes them. Attacks compose in
    /// registration order on the same bus, and draw from their own
    /// seeded RNG stream so adding one never perturbs the plant or
    /// sensor noise.
    pub fn bus_attack(mut self, spec: AttackSpec) -> Self {
        self.attacks.push(spec);
        self
    }

    /// Sets the monitor's missing-frame policy (default
    /// [`FramePolicy::HoldLast`]).
    pub fn frame_policy(mut self, policy: FramePolicy) -> Self {
        self.frame_policy = policy;
        self
    }

    /// Executes the run.
    ///
    /// # Errors
    ///
    /// Propagates planning, detector-construction and stepping failures.
    pub fn run(self) -> Result<SimOutcome> {
        let system = self
            .system
            .clone()
            .unwrap_or_else(|| self.kind.preset_system());
        let (path, x0) = evaluation_start(self.path_override.clone())?;
        let mut world = RobotWorld::new(
            &system,
            self.kind,
            path,
            &x0,
            self.scenario.clone(),
            self.seed,
            &self.attacks,
        )?;

        let mode_set = self
            .mode_set
            .clone()
            .unwrap_or_else(|| ModeSet::one_reference_per_sensor(&system));
        let telemetry = self.telemetry.clone().unwrap_or_default();
        let detector = if self.use_linearized_baseline {
            baseline::linearized_once(system, self.config.clone(), x0, mode_set)?
        } else {
            RoboAds::new(system, self.config.clone(), x0, mode_set)?
        };
        let mut detector = detector.with_telemetry(telemetry.clone());
        if let Some(config) = self.recorder {
            detector.attach_recorder(config);
        }

        // Step latency is a metric, not a span: collected even with the
        // default disabled sink so the outcome summary always has it.
        let step_latency = telemetry.metrics().histogram("sim.step_latency_s");
        let duration = self.duration.unwrap_or_else(|| self.scenario.duration());
        for k in 0..duration {
            let _iter_span = telemetry.span("sim.iteration");
            let missing = world.advance(k)?;
            let report = match world.trace().records().last() {
                // Frozen tick: the detector neither steps nor records —
                // the previous report stands until fresh frames return.
                Some(last) if missing && self.frame_policy == FramePolicy::MarkMissing => {
                    last.report.clone()
                }
                _ => {
                    let input = world.input();
                    let step_started = std::time::Instant::now();
                    let report = detector.step(input.u_prev, input.readings)?;
                    step_latency.record(step_started.elapsed().as_secs_f64());
                    // Stamped with the bus tick so a capsule's timeline
                    // matches the frames it was decoded from.
                    detector.record_tick(k as u64, input.u_prev, input.readings, &report);
                    report
                }
            };
            world.record(k, report);
        }

        let capsules = match detector.recorder_mut() {
            Some(recorder) => {
                recorder.finish();
                recorder.take_capsules()
            }
            None => Vec::new(),
        };
        let (trace, eval) = world.finish();
        let report =
            trace
                .records()
                .last()
                .map(|r| r.report.clone())
                .ok_or(SimError::InvalidParameter {
                    name: "duration",
                    value: "0".into(),
                })?;
        Ok(SimOutcome {
            trace,
            eval,
            report,
            telemetry: TelemetrySummary::from_registry(telemetry.metrics()),
            capsules,
        })
    }
}

/// A fresh, never-stepped RoboADS detector constructed exactly as
/// [`SimulationBuilder::run`] builds its own (same evaluation start and
/// default mode set) — the detector a capsule replay needs:
/// [`roboads_core::replay_capsule`] requires an anchor-state twin of the
/// recorded detector at birth.
///
/// # Errors
///
/// Propagates planning and detector-construction failures.
pub fn evaluation_detector(kind: RobotKind, config: &RoboAdsConfig) -> Result<RoboAds> {
    let system = kind.preset_system();
    let (_, x0) = evaluation_start(None)?;
    let mode_set = ModeSet::one_reference_per_sensor(&system);
    Ok(RoboAds::new(system, config.clone(), x0, mode_set)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_khepera_run_is_mostly_quiet() {
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .seed(42)
            .run()
            .unwrap();
        assert_eq!(outcome.trace.len(), 200);
        assert!(
            outcome.eval.sensor_fpr() < 0.05,
            "fpr {}",
            outcome.eval.sensor_fpr()
        );
        assert!(outcome.eval.actuator_fpr() < 0.05);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let run = |seed| {
            SimulationBuilder::khepera()
                .scenario(Scenario::ips_logic_bomb())
                .seed(seed)
                .duration(80)
                .run()
                .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(
            a.trace.records()[79].true_state,
            b.trace.records()[79].true_state
        );
        assert_eq!(a.report.misbehaving_sensors, b.report.misbehaving_sensors);
        let c = run(10);
        assert_ne!(
            a.trace.records()[79].true_state,
            c.trace.records()[79].true_state
        );
    }

    #[test]
    fn ips_spoofing_is_detected_and_identified() {
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::ips_spoofing())
            .seed(7)
            .run()
            .unwrap();
        assert_eq!(outcome.report.misbehaving_sensors, vec![0]);
        let delay = outcome.eval.sensor_delay().expect("should detect");
        assert!(delay < 1.0, "delay {delay}");
        assert!(outcome.eval.sensor_fnr() < 0.1);
    }

    #[test]
    fn wheel_logic_bomb_raises_actuator_alarm() {
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::wheel_logic_bomb())
            .seed(13)
            .run()
            .unwrap();
        assert!(outcome.report.actuator_alarm);
        assert!(outcome.eval.actuator_delay().unwrap() < 1.5);
        assert!(outcome.eval.actuator_fnr() < 0.15);
    }

    #[test]
    fn tamiya_runs_with_distinct_dynamics() {
        let outcome = SimulationBuilder::tamiya()
            .scenario(Scenario::tamiya_ips_spoofing())
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(outcome.report.misbehaving_sensors, vec![0]);
    }

    /// The bugfix pin: routing consumption through `latest_fresh` plus
    /// a hold-last/missing policy is *bitwise* invisible when every
    /// frame arrives on time — both policies reproduce the same trace,
    /// because neither ever fires.
    #[test]
    fn frame_policies_are_bitwise_invisible_when_all_frames_arrive() {
        let run = |policy| {
            SimulationBuilder::khepera()
                .scenario(Scenario::ips_spoofing())
                .seed(11)
                .duration(60)
                .frame_policy(policy)
                .run()
                .unwrap()
        };
        let hold = run(FramePolicy::HoldLast);
        let mark = run(FramePolicy::MarkMissing);
        for (a, b) in hold.trace.records().iter().zip(mark.trace.records()) {
            assert_eq!(a.readings, b.readings, "step {}", a.k);
            assert_eq!(a.report, b.report, "step {}", a.k);
        }
    }

    /// The old consumption path panicked on the first trashed frame
    /// ("every workflow published"); now a frame-trashing run completes,
    /// holds the last reading, and the detector indicts the frozen
    /// sensor.
    #[test]
    fn frame_trashing_holds_last_and_still_detects() {
        use crate::attacks::{AttackKind, AttackSpec};
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .seed(5)
            .bus_attack(AttackSpec::new(
                AttackKind::FrameTrash,
                0,
                0.0,
                60,
                Some(60),
            ))
            .run()
            .unwrap();
        let records = outcome.trace.records();
        // Held: the IPS reading freezes at its last authentic value.
        assert_eq!(records[60].readings[0], records[59].readings[0]);
        assert_eq!(records[90].readings[0], records[59].readings[0]);
        // A frozen pose on a moving robot is an indictable anomaly.
        assert!(
            records[60..120]
                .iter()
                .any(|r| r.report.misbehaving_sensors.contains(&0)),
            "frozen IPS should be identified"
        );
        // After the window the authentic stream resumes.
        assert_ne!(records[121].readings[0], records[59].readings[0]);
    }

    /// Under `MarkMissing` the detector freezes instead: no new reports
    /// are produced while frames are missing.
    #[test]
    fn mark_missing_freezes_the_report_stream() {
        use crate::attacks::{AttackKind, AttackSpec};
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .seed(5)
            .duration(100)
            .frame_policy(FramePolicy::MarkMissing)
            .bus_attack(AttackSpec::new(
                AttackKind::FrameTrash,
                0,
                0.0,
                40,
                Some(20),
            ))
            .run()
            .unwrap();
        let records = outcome.trace.records();
        for k in 40..60 {
            assert_eq!(
                records[k].report, records[39].report,
                "report not frozen at {k}"
            );
        }
        assert_ne!(records[60].report.iteration, records[39].report.iteration);
    }

    /// The §V-G baseline is a plain `RoboAds`, so telemetry and the
    /// flight recorder apply to it like to any other run.
    #[test]
    fn linearized_baseline_runs_get_telemetry_and_the_recorder() {
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::ips_spoofing())
            .seed(7)
            .linearized_baseline(true)
            .recorder(RecorderConfig::default())
            .run()
            .unwrap();
        assert!(outcome.report.sensor_alarm);
        assert_eq!(outcome.telemetry.steps, 200);
        assert_eq!(outcome.telemetry.modes.len(), 3);
        assert!(
            !outcome.capsules.is_empty(),
            "confirmed alarms seal capsules"
        );
    }

    #[test]
    fn zero_duration_is_an_error() {
        let r = SimulationBuilder::khepera().duration(0).run();
        assert!(r.is_err());
    }

    #[test]
    fn outcome_telemetry_summarizes_the_run() {
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .seed(1)
            .duration(40)
            .run()
            .unwrap();
        let t = &outcome.telemetry;
        assert_eq!(t.steps, 40);
        assert_eq!(t.step_latency.count, 40);
        assert!(t.step_latency.p50 > 0.0);
        assert!(t.step_latency.p99 >= t.step_latency.p50);
        assert_eq!(t.modes.len(), 3, "one hypothesis per sensor");
        assert_eq!(t.numeric_failures, 0);
        // Per-mode histograms sample 1-in-16 commits (first commit
        // included): 40 iterations sample commits 1, 17 and 33.
        assert_eq!(t.modes[0].probability.count, 3);
        let json = t.to_json();
        assert!(json.contains("\"steps\":40"), "json {json}");
    }

    #[test]
    fn ring_buffer_telemetry_captures_spans_and_alarm_events() {
        use roboads_obs::{RingBufferSink, Telemetry};
        use std::sync::Arc;
        let ring = Arc::new(RingBufferSink::new(100_000));
        let outcome = SimulationBuilder::khepera()
            .scenario(Scenario::ips_spoofing())
            .seed(7)
            .telemetry(Telemetry::new(ring.clone()))
            .run()
            .unwrap();
        assert!(outcome.report.sensor_misbehavior_detected());
        let spans = ring.spans();
        assert!(spans.iter().any(|s| s.name == "engine.step"));
        assert!(spans.iter().any(|s| s.name == "sim.iteration"));
        let events = ring.events();
        assert!(
            events
                .iter()
                .any(|e| e.name == "decision.sensor_alarm_confirmed"),
            "spoofing run must log a confirmed sensor alarm"
        );
        assert!(outcome.telemetry.sensor_alarms >= 1);
    }
}
