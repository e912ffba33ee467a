//! Fleet-scale scenario replay: M independent closed-loop robot worlds
//! whose detectors advance through **one [`FleetEngine`] batch per
//! control tick**.
//!
//! Every robot steps the same closed-loop world as
//! [`crate::SimulationBuilder`] — tracker, actuation and sensing
//! workflows, communication bus, physics platform, noise stream — but
//! replays a *phase-shifted* copy of the scenario (robot `i`'s
//! misbehaviors trigger `i × phase` iterations later) with its own
//! seed, so a fleet mid-run holds robots in every stage of the attack
//! timeline at once. That is the workload
//! the fleet engine is for: N detector steps amortized over one
//! dispatch, while each robot's arithmetic stays bitwise identical to a
//! standalone run (see `DESIGN.md` §12).

use roboads_core::{
    CoreError, DeadlinePolicy, FleetEngine, FleetHealth, FleetIngest, IncidentCapsule, ModeSet,
    RecorderConfig, RoboAds, RoboAdsConfig, RobotInput,
};
use roboads_obs::Telemetry;

use crate::attacks::AttackSpec;
use crate::eval::EvalResult;
use crate::misbehavior::Misbehavior;
use crate::scenario::Scenario;
use crate::trace::Trace;
use crate::world::{evaluation_start, RobotKind, RobotWorld};
use crate::Result;

/// A monitor-side transport fault: what happens to one robot's frames
/// on their way from its bus to the fleet monitor's ingest front-end.
/// The robot's *local* closed loop (controller, physics, noise stream)
/// is untouched — only the monitor's copy of the data misbehaves, so a
/// faulted robot's world evolves exactly as in a fault-free run and
/// every other robot's detection is provably unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Frames are lost on the wire: nothing reaches the ingest window.
    Drop,
    /// Frames arrive one tick late: delivered with last tick's stamp,
    /// so the stamp-checking ingest rejects them
    /// (`ingest.frames_rejected`) and the window stays incomplete.
    Delay,
}

/// The result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Number of robots stepped each tick.
    pub robots: usize,
    /// Control iterations executed.
    pub steps: usize,
    /// Robot-grain worker threads used by the fleet engine.
    pub threads: usize,
    /// Per-robot traces, in robot order.
    pub traces: Vec<Trace>,
    /// Per-robot evaluations against each robot's *own* (phase-shifted)
    /// ground truth.
    pub evals: Vec<EvalResult>,
    /// Incident capsules sealed across the fleet, in robot order (empty
    /// unless [`FleetSimulationBuilder::recorder`] was configured).
    pub capsules: Vec<IncidentCapsule>,
    /// The live health board after the final tick (present when
    /// [`FleetSimulationBuilder::health`] was enabled).
    pub health: Option<FleetHealth>,
}

/// Builder for a fleet run: M phase-offset copies of one scenario,
/// batched through a [`FleetEngine`].
///
/// # Example
///
/// ```
/// use roboads_sim::{FleetSimulationBuilder, Scenario};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let outcome = FleetSimulationBuilder::khepera()
///     .scenario(Scenario::ips_spoofing())
///     .robots(3)
///     .phase(5)
///     .duration(80)
///     .run()?;
/// assert_eq!(outcome.robots, 3);
/// // Every robot detects its own (shifted) attack.
/// assert!(outcome.evals.iter().all(|e| e.sensor_delay().is_some()));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FleetSimulationBuilder {
    kind: RobotKind,
    scenario: Scenario,
    robots: usize,
    phase: usize,
    seed: u64,
    threads: usize,
    signature_groups: usize,
    duration: Option<usize>,
    config: RoboAdsConfig,
    telemetry: Option<Telemetry>,
    ingest: Option<DeadlinePolicy>,
    faults: Vec<(usize, std::ops::Range<usize>, FrameFault)>,
    attacks: Vec<AttackSpec>,
    recorder: Option<RecorderConfig>,
    health: bool,
}

/// `scenario` with every misbehavior window shifted `offset` iterations
/// later (duration unchanged; windows sliding past the end simply never
/// fire — a large fleet's tail robots stay clean, which is fine: they
/// exercise the false-positive floor).
fn phase_shifted(scenario: &Scenario, offset: usize) -> Scenario {
    let misbehaviors: Vec<Misbehavior> = scenario
        .misbehaviors()
        .iter()
        .map(|m| {
            if m.is_transient() {
                Misbehavior::transient_glitch(
                    m.name().to_string(),
                    m.target(),
                    m.corruption().clone(),
                    m.start() + offset,
                )
            } else {
                Misbehavior::new(
                    m.name().to_string(),
                    m.target(),
                    m.corruption().clone(),
                    m.start() + offset,
                    m.end().map(|e| e + offset),
                )
            }
        })
        .collect();
    Scenario::new(
        scenario.number(),
        format!("{}+{}", scenario.name(), offset),
        scenario.description().to_string(),
        misbehaviors,
        scenario.duration(),
    )
}

impl FleetSimulationBuilder {
    /// Starts a Khepera fleet with paper-default configuration, one
    /// robot, no phase offset and the sequential (single-thread)
    /// scheduler.
    pub fn khepera() -> Self {
        FleetSimulationBuilder {
            kind: RobotKind::Khepera,
            scenario: Scenario::clean(),
            robots: 1,
            phase: 0,
            seed: 0,
            threads: 1,
            signature_groups: 1,
            duration: None,
            config: RoboAdsConfig::paper_defaults(),
            telemetry: None,
            ingest: None,
            faults: Vec::new(),
            attacks: Vec::new(),
            recorder: None,
            health: false,
        }
    }

    /// Starts a Tamiya fleet.
    pub fn tamiya() -> Self {
        let mut b = FleetSimulationBuilder::khepera();
        b.kind = RobotKind::Tamiya;
        b
    }

    /// Sets the base scenario every robot replays (phase-shifted).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Sets the fleet size.
    pub fn robots(mut self, robots: usize) -> Self {
        self.robots = robots.max(1);
        self
    }

    /// Sets the per-robot phase offset: robot `i`'s misbehaviors start
    /// `i × phase` iterations after the base scenario's.
    pub fn phase(mut self, phase: usize) -> Self {
        self.phase = phase;
        self
    }

    /// Sets the base random seed; robot `i` draws from seed `base + i`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fleet engine's robot-grain thread count (default 1).
    /// Results are bitwise independent of this choice.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Splits the fleet across `groups` **model-signature groups**
    /// (default 1, fully homogeneous): robot `i`'s detector is built
    /// from signature group `i % groups`'s own, separately instantiated
    /// copy of the platform's preset system. The copies are numerically
    /// identical — every robot's physics, readings and reports are
    /// bitwise unchanged — but pointer-distinct, so the fleet engine
    /// partitions them into separate slab groups: this is the
    /// mixed-fleet shape (per-robot firmware builds, per-unit model
    /// provisioning) the heterogeneous slab grouping exists for.
    /// Results are bitwise independent of this choice.
    pub fn signature_groups(mut self, groups: usize) -> Self {
        self.signature_groups = groups.max(1);
        self
    }

    /// Overrides the run length in iterations (default: the scenario's).
    pub fn duration(mut self, iterations: usize) -> Self {
        self.duration = Some(iterations);
        self
    }

    /// Overrides the detector configuration.
    pub fn config(mut self, config: RoboAdsConfig) -> Self {
        self.config = config;
        self
    }

    /// Supplies the telemetry context fanned out to every robot's
    /// detector; fleet spans carry the 1-based robot id (see
    /// `roboads_obs::current_robot`).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Switches the monitor to **async ingestion**: instead of handing
    /// the fleet engine an aligned dense batch, each robot's decoded
    /// bus frames are offered to a [`FleetIngest`] front-end
    /// (tick-stamped, in arrival order) and the tick boundary swaps the
    /// published batch into [`FleetEngine::step_batch_masked`]. With
    /// every frame on time this is bitwise identical to the sync path;
    /// a robot whose frames miss the deadline (see
    /// [`FleetSimulationBuilder::frame_fault`]) resolves per `policy`
    /// while the rest of the fleet is untouched.
    pub fn ingest(mut self, policy: DeadlinePolicy) -> Self {
        self.ingest = Some(policy);
        self
    }

    /// Injects a monitor-side transport fault: robot `robot`'s frames
    /// suffer `fault` during the iterations in `window`. Only
    /// meaningful in [`FleetSimulationBuilder::ingest`] mode — the sync
    /// path has no transport to misbehave. The robot's own closed loop
    /// is unaffected (see [`FrameFault`]).
    pub fn frame_fault(
        mut self,
        robot: usize,
        window: std::ops::Range<usize>,
        fault: FrameFault,
    ) -> Self {
        self.faults.push((robot, window, fault));
        self
    }

    /// Registers a bus-level attack ([`crate::attacks`]) applied to
    /// **every** robot's bus at the monitor seam — after its workflows
    /// publish, before the monitor decodes. Robot `i`'s attacker draws
    /// from a stream derived from seed `base + i`, so a fleet mid-run
    /// holds robots at every stage of the attacked timeline without the
    /// attacks coupling robots together. Frames an attack destroys fall
    /// back to the last consumed value (hold-last), so a trashed robot
    /// keeps stepping rather than panicking the run.
    pub fn bus_attack(mut self, spec: AttackSpec) -> Self {
        self.attacks.push(spec);
        self
    }

    /// Attaches a flight recorder to every robot's detector: confirmed
    /// alarms seal [`IncidentCapsule`]s collected (in robot order) into
    /// [`FleetOutcome::capsules`].
    pub fn recorder(mut self, config: RecorderConfig) -> Self {
        self.recorder = Some(config);
        self
    }

    /// Maintains a live [`FleetHealth`] board across the run — one
    /// `observe` per completed tick, folding in per-robot detector
    /// verdicts, ingest slot freshness and capsule counts — returned in
    /// [`FleetOutcome::health`].
    pub fn health(mut self, yes: bool) -> Self {
        self.health = yes;
        self
    }

    /// Executes the fleet run: one `step_batch` per control iteration.
    ///
    /// # Errors
    ///
    /// Propagates planning, detector-construction and stepping failures
    /// (a failing robot aborts the run; per-robot fault isolation is the
    /// engine-level [`FleetEngine::result`] API).
    pub fn run(self) -> Result<FleetOutcome> {
        let system = self.kind.preset_system();
        let (path, x0) = evaluation_start(None)?;
        let duration = self.duration.unwrap_or_else(|| self.scenario.duration());
        // One system instance per signature group. Group 0 reuses the
        // worlds' system; further groups get fresh (pointer-distinct,
        // numerically identical) preset instantiations, which is exactly
        // what makes the fleet engine partition them apart.
        let detector_systems: Vec<_> = (0..self.signature_groups)
            .map(|g| {
                if g == 0 {
                    system.clone()
                } else {
                    self.kind.preset_system()
                }
            })
            .collect();
        let mut worlds = Vec::with_capacity(self.robots);
        let mut detectors = Vec::with_capacity(self.robots);
        for robot in 0..self.robots {
            let group_system = &detector_systems[robot % detector_systems.len()];
            detectors.push(RoboAds::new(
                group_system.clone(),
                self.config.clone(),
                x0.clone(),
                ModeSet::one_reference_per_sensor(group_system),
            )?);
            worlds.push(RobotWorld::new(
                &system,
                self.kind,
                path.clone(),
                &x0,
                phase_shifted(&self.scenario, robot * self.phase),
                self.seed + robot as u64,
                &self.attacks,
            )?);
        }

        let mut fleet = FleetEngine::new(detectors, self.threads);
        if let Some(t) = &self.telemetry {
            fleet.set_telemetry(t.clone());
        }
        if let Some(config) = self.recorder {
            fleet.attach_recorder(config);
        }
        let mut health = self.health.then(|| {
            let mut board = FleetHealth::new(self.robots);
            if let Some(t) = &self.telemetry {
                board.set_telemetry(t.clone());
            }
            board
        });
        let mut ingest = self.ingest.map(|policy| {
            let mut ingest = FleetIngest::for_fleet(&fleet).with_policy(policy);
            if let Some(t) = &self.telemetry {
                ingest.set_telemetry(t.clone());
            }
            ingest
        });

        for k in 0..duration {
            // Advance every world; a frame an attack destroyed holds its
            // last decoded value (the sync monitor has no missing-frame
            // policy of its own; the ingest path's is its deadline).
            for w in &mut worlds {
                w.advance(k)?;
            }

            match &mut ingest {
                // Sync monitor: one aligned dense batch for the fleet,
                // stamped with the worlds' shared bus tick.
                None => {
                    let inputs: Vec<RobotInput> = worlds.iter().map(RobotWorld::input).collect();
                    fleet.set_tick_stamp(k as u64);
                    fleet.step_batch(&inputs)?;
                }
                // Async monitor: the same decoded frames are offered to
                // the ingest front-end as tick-stamped arrivals, and the
                // tick boundary publishes whatever completed. Transport
                // faults perturb only the monitor's copy — each world's
                // closed loop above is already done for this tick.
                Some(ingest) => {
                    for (robot, w) in worlds.iter().enumerate() {
                        let fault = self
                            .faults
                            .iter()
                            .find(|(r, window, _)| *r == robot && window.contains(&k))
                            .map(|(_, _, fault)| *fault);
                        let stamp = match fault {
                            // Lost on the wire: nothing to offer.
                            Some(FrameFault::Drop) => continue,
                            // Delivered a tick late: stamped for the
                            // window that already swapped, so the ingest
                            // rejects it. Tick 0 has no previous window —
                            // the frame is still in flight.
                            Some(FrameFault::Delay) => match (k as u64).checked_sub(1) {
                                Some(previous) => previous,
                                None => continue,
                            },
                            None => k as u64,
                        };
                        let input = w.input();
                        ingest.offer_input_stamped(robot, input.u_prev, stamp)?;
                        for (s, reading) in input.readings.iter().enumerate() {
                            ingest.offer_stamped(robot, s, reading, stamp)?;
                        }
                    }
                    let summary = ingest.swap();
                    fleet.set_tick_stamp(summary.tick);
                    let inputs: Vec<Option<RobotInput>> =
                        (0..worlds.len()).map(|r| ingest.input(r)).collect();
                    if fleet.step_batch_masked(&inputs).is_err() {
                        // A missed deadline is the faulted robot's
                        // per-tick verdict, carried in its `result`;
                        // anything else is a real failure.
                        for robot in 0..worlds.len() {
                            if let Err(e) = fleet.result(robot) {
                                if !matches!(e, CoreError::MissedDeadline { .. }) {
                                    return Err(e.clone().into());
                                }
                            }
                        }
                    }
                }
            }

            if let Some(board) = &mut health {
                board.observe(&fleet, ingest.as_ref());
            }

            for (robot, w) in worlds.iter_mut().enumerate() {
                w.record(k, fleet.report(robot).clone());
            }
        }

        fleet.finish_recorders();
        let capsules = fleet.take_capsules();

        let (traces, evals) = worlds.into_iter().map(RobotWorld::finish).unzip();
        Ok(FleetOutcome {
            robots: self.robots,
            steps: duration,
            threads: self.threads,
            traces,
            evals,
            capsules,
            health,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SimulationBuilder;

    #[test]
    fn robot_zero_matches_a_standalone_run_bitwise() {
        // Phase offsets only shift robots 1.. — robot 0 replays the base
        // scenario from the base seed, so every record of its trace must
        // be *identical* to the single-robot runner's (same world, same
        // rng stream, and the fleet engine's per-robot path is bitwise
        // the standalone detector's).
        let fleet = FleetSimulationBuilder::khepera()
            .scenario(Scenario::ips_spoofing())
            .robots(3)
            .phase(7)
            .seed(11)
            .duration(70)
            .run()
            .unwrap();
        let solo = SimulationBuilder::khepera()
            .scenario(Scenario::ips_spoofing())
            .seed(11)
            .duration(70)
            .run()
            .unwrap();
        assert_eq!(fleet.traces[0].len(), 70);
        for (a, b) in fleet.traces[0].records().iter().zip(solo.trace.records()) {
            assert_eq!(a.k, b.k);
            assert_eq!(a.time.to_bits(), b.time.to_bits(), "step {}", a.k);
            assert_eq!(a.true_state, b.true_state, "step {}", a.k);
            // The tracker's plan, not the bus-decoded command the
            // monitor consumed, in both builders.
            assert_eq!(a.planned_command, b.planned_command, "step {}", a.k);
            assert_eq!(a.executed_command, b.executed_command, "step {}", a.k);
            assert_eq!(a.true_actuator_anomaly, b.true_actuator_anomaly);
            assert_eq!(a.readings, b.readings, "step {}", a.k);
            assert_eq!(a.true_sensor_anomalies, b.true_sensor_anomalies);
            assert_eq!(a.report, b.report, "step {}", a.k);
        }
    }

    #[test]
    fn phase_offsets_shift_each_robots_detection() {
        let outcome = FleetSimulationBuilder::khepera()
            .scenario(Scenario::ips_spoofing())
            .robots(3)
            .phase(10)
            .seed(5)
            .duration(100)
            .run()
            .unwrap();
        // Every robot detects its own shifted attack with a small,
        // comparable delay relative to its own onset.
        for (robot, eval) in outcome.evals.iter().enumerate() {
            let delay = eval
                .sensor_delay()
                .unwrap_or_else(|| panic!("robot {robot} should detect"));
            assert!(delay < 1.0, "robot {robot} delay {delay}");
        }
    }

    #[test]
    fn thread_count_does_not_change_fleet_results() {
        let run = |threads| {
            FleetSimulationBuilder::khepera()
                .scenario(Scenario::wheel_logic_bomb())
                .robots(4)
                .phase(3)
                .seed(2)
                .threads(threads)
                .duration(60)
                .run()
                .unwrap()
        };
        let seq = run(1);
        let par = run(3);
        for robot in 0..4 {
            for (a, b) in seq.traces[robot]
                .records()
                .iter()
                .zip(par.traces[robot].records())
            {
                assert_eq!(a.report, b.report, "robot {robot} step {}", a.k);
            }
        }
    }

    /// The tentpole equality proof: with every frame on time, the async
    /// ingest monitor is *bitwise* invisible — every robot's full report
    /// stream equals the sync path's.
    #[test]
    fn async_ingest_with_on_time_frames_matches_sync_mode_bitwise() {
        let build = || {
            FleetSimulationBuilder::khepera()
                .scenario(Scenario::ips_spoofing())
                .robots(3)
                .phase(7)
                .seed(11)
                .duration(60)
        };
        let sync = build().run().unwrap();
        let async_run = build().ingest(DeadlinePolicy::MarkMissing).run().unwrap();
        for robot in 0..3 {
            for (a, b) in sync.traces[robot]
                .records()
                .iter()
                .zip(async_run.traces[robot].records())
            {
                assert_eq!(a.report, b.report, "robot {robot} step {}", a.k);
                assert_eq!(a.readings, b.readings);
            }
        }
    }

    /// A robot whose frames are dropped (or delayed past the deadline)
    /// on the monitor side stalls only its own detector: its reports
    /// freeze through the window, every other robot's stream stays
    /// bitwise identical to the fault-free run, and a delayed frame is
    /// rejected and counted rather than consumed a tick late.
    #[test]
    fn monitor_side_faults_isolate_the_faulted_robot() {
        use roboads_obs::RingBufferSink;
        use std::sync::Arc;
        const FAULTED: usize = 1;
        let build = || {
            FleetSimulationBuilder::khepera()
                .scenario(Scenario::ips_spoofing())
                .robots(3)
                .phase(7)
                .seed(11)
                .duration(40)
                .ingest(DeadlinePolicy::MarkMissing)
        };
        let clean = build().run().unwrap();
        for (fault, rejected) in [(FrameFault::Drop, 0), (FrameFault::Delay, 4 * 2)] {
            let ring = Arc::new(RingBufferSink::new(4096));
            let telemetry = Telemetry::new(ring.clone());
            let faulted = build()
                .frame_fault(FAULTED, 20..24, fault)
                .telemetry(telemetry.clone())
                .run()
                .unwrap();
            for robot in [0, 2] {
                for (a, b) in clean.traces[robot]
                    .records()
                    .iter()
                    .zip(faulted.traces[robot].records())
                {
                    assert_eq!(a.report, b.report, "robot {robot} perturbed at {}", a.k);
                }
            }
            let records = faulted.traces[FAULTED].records();
            for k in 20..24 {
                assert_eq!(
                    records[k].report, records[19].report,
                    "{fault:?}: faulted robot's report not frozen at {k}"
                );
            }
            // Before the window the faulted robot matches the clean run;
            // its world (ground truth, readings) is never perturbed.
            assert_eq!(
                records[19].report,
                clean.traces[FAULTED].records()[19].report
            );
            for (a, b) in clean.traces[FAULTED].records().iter().zip(records) {
                assert_eq!(a.readings, b.readings);
                assert_eq!(a.true_state, b.true_state);
            }
            // 4 ticks × (1 command + sensor frames) late offers — only
            // in Delay mode, where frames arrive stamped a tick old.
            let m = telemetry.metrics();
            let expected = if fault == FrameFault::Delay {
                // command + 3 sensors per tick, 4 ticks
                4 * 4
            } else {
                rejected
            };
            assert_eq!(m.counter_value("ingest.frames_rejected"), Some(expected));
            assert_eq!(
                m.counter_value("ingest.robots_missing"),
                Some(4),
                "{fault:?}: the faulted robot misses exactly its window"
            );
        }
    }

    #[test]
    fn hold_last_keeps_the_faulted_robot_stepping() {
        const FAULTED: usize = 2;
        let outcome = FleetSimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .robots(3)
            .seed(4)
            .duration(30)
            .ingest(DeadlinePolicy::HoldLast)
            .frame_fault(FAULTED, 15..17, FrameFault::Drop)
            .run()
            .unwrap();
        let records = outcome.traces[FAULTED].records();
        // Held ticks still produce *new* reports (the detector stepped,
        // on last tick's readings) — unlike MarkMissing's frozen ones.
        assert_ne!(records[15].report, records[14].report);
        assert_eq!(
            records[15].report.iteration,
            records[14].report.iteration + 1
        );
    }

    /// A mixed-signature fleet (per-robot system instances dealt across
    /// groups) must produce bitwise the same traces as the homogeneous
    /// fleet — the per-group slab partition is invisible — while the
    /// health board shows the fleet actually split into slab groups.
    #[test]
    fn signature_groups_are_bitwise_invisible_and_visible_on_the_board() {
        let run = |groups| {
            FleetSimulationBuilder::khepera()
                .scenario(Scenario::ips_spoofing())
                .robots(16)
                .phase(3)
                .seed(9)
                .duration(40)
                .signature_groups(groups)
                .health(true)
                .run()
                .unwrap()
        };
        let homogeneous = run(1);
        let mixed = run(2);
        for robot in 0..16 {
            for (a, b) in homogeneous.traces[robot]
                .records()
                .iter()
                .zip(mixed.traces[robot].records())
            {
                assert_eq!(a.report, b.report, "robot {robot} step {}", a.k);
            }
        }
        // 16 robots in two 8-robot groups: both fill an 8-lane tile.
        let board = mixed.health.as_ref().unwrap();
        assert_eq!(board.slab_groups(), 2);
        assert_eq!(board.slab_robots(), 16);
        assert_eq!(board.scalar_robots(), 0);
        let solo = homogeneous.health.as_ref().unwrap();
        assert_eq!(solo.slab_groups(), 1);
        assert_eq!(solo.slab_robots(), 16);
    }

    /// Bus-level attacks work on the fleet builder too: every robot's
    /// bus is attacked (with per-robot attacker streams), a trashed
    /// fleet completes without panics, and every robot indicts the
    /// frozen sensor.
    #[test]
    fn fleet_wide_frame_trash_holds_and_detects_per_robot() {
        use crate::attacks::{AttackKind, AttackSpec};
        let outcome = FleetSimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .robots(3)
            .seed(5)
            .duration(120)
            .bus_attack(AttackSpec::new(
                AttackKind::FrameTrash,
                0,
                0.0,
                60,
                Some(40),
            ))
            .run()
            .unwrap();
        for (robot, trace) in outcome.traces.iter().enumerate() {
            let records = trace.records();
            assert_eq!(
                records[80].readings[0], records[59].readings[0],
                "robot {robot}: IPS not held"
            );
            assert!(
                records[60..100]
                    .iter()
                    .any(|r| r.report.misbehaving_sensors.contains(&0)),
                "robot {robot}: frozen IPS not identified"
            );
        }
    }

    /// Registering no attack leaves the fleet bitwise identical to the
    /// pre-seam code path — and a MITM attack on the fleet perturbs
    /// detection the same way the standalone seam does (robot 0 shares
    /// the standalone run's seed and trajectory).
    #[test]
    fn fleet_mitm_matches_the_standalone_seam_bitwise() {
        use crate::attacks::{AttackKind, AttackSpec};
        let spec = AttackSpec::new(AttackKind::MitmRewrite, 0, 0.1, 50, Some(30));
        let fleet = FleetSimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .robots(2)
            .seed(11)
            .duration(90)
            .bus_attack(spec.clone())
            .run()
            .unwrap();
        let solo = SimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .seed(11)
            .duration(90)
            .bus_attack(spec)
            .run()
            .unwrap();
        for (a, b) in fleet.traces[0].records().iter().zip(solo.trace.records()) {
            assert_eq!(a.readings, b.readings, "step {}", a.k);
            assert_eq!(a.report, b.report, "step {}", a.k);
        }
    }

    #[test]
    fn fleet_spans_carry_robot_attribution() {
        use roboads_obs::RingBufferSink;
        use std::sync::Arc;
        let ring = Arc::new(RingBufferSink::new(100_000));
        FleetSimulationBuilder::khepera()
            .scenario(Scenario::clean())
            .robots(3)
            .duration(5)
            .telemetry(Telemetry::new(ring.clone()))
            .run()
            .unwrap();
        let spans = ring.spans();
        let mut seen: Vec<u32> = spans
            .iter()
            .filter(|s| s.name == "engine.step")
            .map(|s| s.robot)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![1, 2, 3], "each robot's steps are attributed");
    }
}
