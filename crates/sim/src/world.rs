//! One robot's closed loop (the paper's Figure 1): a path tracker plans,
//! the actuation workflow executes, the platform moves, the sensing
//! workflows measure, every workflow publishes on the robot's
//! communication bus, bus-level attacks strike at the monitor seam, and
//! the monitor decodes the freshest frame per arbitration id.
//!
//! [`crate::SimulationBuilder`] runs one [`RobotWorld`] beside one
//! detector; [`crate::FleetSimulationBuilder`] runs one per robot beside
//! a fleet engine. Both therefore step the same world, bit for bit.

use roboads_control::{
    BicycleTracker, DifferentialDriveTracker, Mission, Path, TrackingController,
};
use roboads_core::{DetectionReport, RobotInput};
use roboads_linalg::Vector;
use roboads_models::sensors::WheelEncoderOdometry;
use roboads_models::{presets, Pose2, RobotSystem};
use roboads_stats::{SeedableRng, StdRng};

use crate::attacks::{build_attacks, AttackSpec, BusAttack};
use crate::bus::{Bus, Frame, COMMAND_ID, SENSOR_ID_BASE};
use crate::eval::{evaluate, EvalResult};
use crate::platform::RobotPlatform;
use crate::scenario::Scenario;
use crate::trace::{Trace, TraceRecord};
use crate::workflow::{ActuationWorkflow, SensingWorkflow};
use crate::{Result, SimError};

/// Which evaluation robot to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RobotKind {
    /// Khepera III differential drive (IPS + wheel encoder + LiDAR).
    Khepera,
    /// Tamiya TT-02 bicycle model (IPS + IMU + LiDAR).
    Tamiya,
}

impl RobotKind {
    /// A fresh instantiation of the platform's preset system.
    pub(crate) fn preset_system(self) -> RobotSystem {
        match self {
            RobotKind::Khepera => presets::khepera_system(),
            RobotKind::Tamiya => presets::tamiya_system(),
        }
    }
}

/// The start of an evaluation mission: `path` (the RRT*-planned
/// evaluation mission when `None`) and the initial pose at its first
/// waypoint, facing the path's first lookahead point. Every runner, and
/// any detector that must be a birth twin of a runner's, starts here.
///
/// # Errors
///
/// Propagates planning failures.
pub fn evaluation_start(path: Option<Path>) -> Result<(Path, Vector)> {
    let path = match path {
        Some(path) => path,
        None => Mission::evaluation_default().plan(&presets::evaluation_arena(), 0.08)?,
    };
    let (sx, sy) = path.waypoints()[0];
    let (lx, ly) = path.lookahead_point(sx, sy, 0.25);
    let theta0 = (ly - sy).atan2(lx - sx);
    let x0 = Vector::from_slice(&[sx, sy, theta0]);
    Ok((path, x0))
}

/// One robot's closed-loop world: everything a run owns except the
/// detector, plus the trace it records.
pub(crate) struct RobotWorld {
    system: RobotSystem,
    scenario: Scenario,
    tracker: Box<dyn TrackingController>,
    sensing: Vec<SensingWorkflow>,
    actuation: ActuationWorkflow,
    platform: RobotPlatform,
    rng: StdRng,
    bus: Bus,
    // Bus-level attacks on this robot's bus, with the attacker's own
    // RNG stream, so adding one never perturbs plant or sensor noise.
    attacks: Vec<Box<dyn BusAttack>>,
    attack_rng: StdRng,
    // The planner tracks the path using real-time IPS data (§V-A);
    // before the first reading it knows the initial pose.
    controller_pose: Pose2,
    // This tick's loop side: the tracker's plan, the executed command
    // and the injected ground-truth anomalies.
    planned: Vector,
    executed: Vector,
    d_a_true: Vector,
    d_s_true: Vec<Vector>,
    // The monitor side: the last decoded value per arbitration id. A
    // frame an attack trashed or replayed stale leaves its value held;
    // before any frame has been decoded it is a zero of the right
    // dimension (the detector flags it; the run does not panic).
    command: Vector,
    readings: Vec<Vector>,
    trace: Trace,
}

impl RobotWorld {
    /// Builds the world for `kind` on `path`, starting at `x0`, with
    /// `scenario`'s misbehaviors injected into the workflows, noise drawn
    /// from `seed` and `attacks` applied to the bus.
    ///
    /// # Errors
    ///
    /// Propagates tracker, workflow and noise-model construction
    /// failures.
    pub(crate) fn new(
        system: &RobotSystem,
        kind: RobotKind,
        path: Path,
        x0: &Vector,
        scenario: Scenario,
        seed: u64,
        attacks: &[AttackSpec],
    ) -> Result<Self> {
        let tracker: Box<dyn TrackingController> = match kind {
            RobotKind::Khepera => Box::new(DifferentialDriveTracker::new(
                path,
                presets::khepera_dynamics().wheel_base(),
                presets::CONTROL_PERIOD,
            )?),
            RobotKind::Tamiya => Box::new(BicycleTracker::new(
                path,
                presets::tamiya_dynamics().max_steer(),
                presets::CONTROL_PERIOD,
            )?),
        };
        let misbehaviors = scenario.misbehaviors();
        let sensing = (0..system.sensor_count())
            .map(|i| {
                let geometry = (system.sensor_name(i) == "wheel-encoder")
                    .then(WheelEncoderOdometry::khepera)
                    .transpose()
                    .map_err(SimError::from)?;
                SensingWorkflow::new(system, i, misbehaviors, geometry)
            })
            .collect::<Result<_>>()?;
        let readings = (0..system.sensor_count())
            .map(|i| Ok(Vector::zeros(system.sensor(i)?.dim())))
            .collect::<Result<_>>()?;
        let (attacks, attack_rng) = build_attacks(attacks, seed);
        let input_zeros = Vector::zeros(system.input_dim());
        Ok(RobotWorld {
            system: system.clone(),
            tracker,
            sensing,
            actuation: ActuationWorkflow::new(misbehaviors),
            platform: RobotPlatform::new(system, x0.clone())?,
            rng: StdRng::seed_from_u64(seed),
            bus: Bus::new(),
            attacks,
            attack_rng,
            controller_pose: Pose2::from_vector(x0).expect("pose state"),
            planned: input_zeros.clone(),
            executed: input_zeros.clone(),
            d_a_true: input_zeros.clone(),
            d_s_true: Vec::with_capacity(system.sensor_count()),
            command: input_zeros,
            readings,
            trace: Trace::new(presets::CONTROL_PERIOD, scenario.name()),
            scenario,
        })
    }

    /// Advances iteration `k`: plan, actuate, move, sense, publish,
    /// attack, decode. Returns whether some arbitration id had no fresh
    /// frame this tick (its value is held from the last decode; see
    /// [`RobotWorld::input`]).
    ///
    /// # Errors
    ///
    /// Propagates workflow failures.
    pub(crate) fn advance(&mut self, k: usize) -> Result<bool> {
        let system = &self.system;
        self.planned = self.tracker.command(&self.controller_pose);
        (self.executed, self.d_a_true) = self.actuation.execute(k, &self.planned)?;
        self.platform.step(system, &self.executed, &mut self.rng);

        // Workflows publish on the communication bus (Figure 1); data
        // really round-trips through the fixed-point frames.
        self.bus.clear();
        self.bus.begin_tick(k as u64);
        self.bus
            .publish(Frame::encode(COMMAND_ID, "planner", &self.planned));
        self.d_s_true.clear();
        for wf in &mut self.sensing {
            let (reading, anomaly) = wf.sense(system, k, self.platform.state(), &mut self.rng)?;
            self.bus.publish(Frame::encode(
                SENSOR_ID_BASE + wf.sensor_index() as u16,
                system.sensor_name(wf.sensor_index()),
                &reading,
            ));
            self.d_s_true.push(anomaly);
        }
        // Bus-level attacks sit between publish and decode: the monitor
        // seam of `crate::attacks`.
        for attack in &mut self.attacks {
            attack.apply(k, &mut self.bus, &mut self.attack_rng);
        }

        // The monitor consumes the staleness-aware fresh view; with
        // every frame on time this is the frame set `latest` would serve.
        let mut missing = false;
        for (i, held) in self.readings.iter_mut().enumerate() {
            match self.bus.latest_fresh(SENSOR_ID_BASE + i as u16) {
                Some(frame) => *held = frame.decode(),
                None => missing = true,
            }
        }
        match self.bus.latest_fresh(COMMAND_ID) {
            Some(frame) => self.command = frame.decode(),
            None => missing = true,
        }
        self.controller_pose =
            Pose2::from_vector(&self.readings[0]).expect("IPS readings carry a pose");
        Ok(missing)
    }

    /// What the monitor consumes this tick: the bus-decoded command and
    /// readings.
    pub(crate) fn input(&self) -> RobotInput<'_> {
        RobotInput {
            u_prev: &self.command,
            readings: &self.readings,
        }
    }

    /// The records so far.
    pub(crate) fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Records iteration `k` with the monitor's `report`.
    pub(crate) fn record(&mut self, k: usize, report: DetectionReport) {
        self.trace.push(TraceRecord {
            k,
            time: (k + 1) as f64 * presets::CONTROL_PERIOD,
            true_state: self.platform.state().clone(),
            planned_command: self.planned.clone(),
            executed_command: self.executed.clone(),
            true_actuator_anomaly: self.d_a_true.clone(),
            readings: self.readings.clone(),
            true_sensor_anomalies: self.d_s_true.clone(),
            report,
        });
    }

    /// The trace and its evaluation against the scenario's ground truth.
    pub(crate) fn finish(self) -> (Trace, EvalResult) {
        let eval = evaluate(&self.trace, &self.scenario.ground_truth());
        (self.trace, eval)
    }
}
