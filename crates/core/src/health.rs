//! Fleet-wide live health aggregation and exposition.
//!
//! [`FleetHealth`] folds each tick's fleet state — per-robot detector
//! verdicts from the [`FleetEngine`](crate::FleetEngine), slot freshness
//! from the [`FleetIngest`](crate::FleetIngest), capsule counts from the
//! attached flight recorders — into a board renderable two ways:
//!
//! * [`FleetHealth::to_json`] — a machine-readable snapshot for
//!   dashboards and tests,
//! * [`FleetHealth::to_prometheus`] — Prometheus-style text exposition
//!   (`roboads_robot_*` series labelled `robot="<index>"`,
//!   `roboads_fleet_*` aggregates, plus the telemetry registry's
//!   metrics rendered through [`roboads_obs::expose`]).

use roboads_obs::expose::{render_snapshot, PrometheusText};
use roboads_obs::json::JsonObject;
use roboads_obs::Telemetry;

use crate::fleet::FleetEngine;
use crate::ingest::{FleetIngest, SlotState};
use crate::shard::{ShardStatus, ShardedFleet};
use crate::CoreError;

/// Rolling per-robot health state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RobotHealth {
    /// Last completed detector iteration.
    pub iteration: u64,
    /// Last selected mode.
    pub selected_mode: usize,
    /// Whether the sensor alarm is currently raised.
    pub sensor_alarm: bool,
    /// Whether the actuator alarm is currently raised.
    pub actuator_alarm: bool,
    /// Currently identified misbehaving sensors.
    pub misbehaving_sensors: Vec<usize>,
    /// Consecutive ticks since the robot last completed a step.
    pub staleness: u64,
    /// Total missed tick deadlines ([`CoreError::MissedDeadline`]).
    pub missed_deadlines: u64,
    /// Total non-deadline step errors.
    pub errors: u64,
    /// Ticks the ingest published this robot fresh.
    pub fresh: u64,
    /// Ticks published from held values.
    pub held: u64,
    /// Ticks with no publishable input set.
    pub missing: u64,
    /// Incident capsules sealed by the robot's flight recorder.
    pub capsules: u64,
}

/// Fleet-wide health aggregator; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct FleetHealth {
    robots: Vec<RobotHealth>,
    ticks: u64,
    /// Signature groups on the slab path (see
    /// [`FleetEngine::slab_groups`]); refreshed from the fleet at every
    /// [`FleetHealth::observe`].
    slab_groups: u64,
    /// Robots stepped through slab tiles.
    slab_robots: u64,
    /// Robots stepped per-robot.
    scalar_robots: u64,
    /// Per-shard rows when the fleet runs as a sharded service
    /// (`DESIGN.md` §18); empty for single-process fleets.
    shards: Vec<ShardStatus>,
    /// Whole-group migrations completed by the shard balancer.
    steals: u64,
    telemetry: Option<Telemetry>,
}

impl FleetHealth {
    /// An aggregator for `robots` robots.
    pub fn new(robots: usize) -> Self {
        FleetHealth {
            robots: vec![RobotHealth::default(); robots],
            ticks: 0,
            slab_groups: 0,
            slab_robots: 0,
            scalar_robots: 0,
            shards: Vec::new(),
            steals: 0,
            telemetry: None,
        }
    }

    /// Attaches the telemetry context whose metrics (e.g. step-latency
    /// histograms) are appended to the exposition.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Ticks observed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The per-robot health rows.
    pub fn robots(&self) -> &[RobotHealth] {
        &self.robots
    }

    /// Folds one completed fleet tick into the board. Call after each
    /// `step_batch`/`FleetIngest::step`; `ingest` adds slot-freshness
    /// accounting when the fleet runs behind an ingest boundary.
    ///
    /// # Panics
    ///
    /// Panics if `fleet.len()` differs from the aggregator's size.
    pub fn observe(&mut self, fleet: &FleetEngine, ingest: Option<&FleetIngest>) {
        assert_eq!(
            fleet.len(),
            self.robots.len(),
            "FleetHealth sized for {} robots, fleet has {}",
            self.robots.len(),
            fleet.len()
        );
        self.ticks += 1;
        self.slab_groups = fleet.slab_groups() as u64;
        self.slab_robots = fleet.slab_robots() as u64;
        self.scalar_robots = fleet.scalar_robots() as u64;
        for (i, robot) in self.robots.iter_mut().enumerate() {
            match fleet.result(i) {
                Ok(()) => {
                    let report = fleet.report(i);
                    robot.iteration = report.iteration;
                    robot.selected_mode = report.selected_mode;
                    robot.sensor_alarm = report.sensor_alarm;
                    robot.actuator_alarm = report.actuator_alarm;
                    robot.misbehaving_sensors.clear();
                    robot
                        .misbehaving_sensors
                        .extend_from_slice(&report.misbehaving_sensors);
                    robot.staleness = 0;
                }
                Err(CoreError::MissedDeadline { .. }) => {
                    robot.missed_deadlines += 1;
                    robot.staleness += 1;
                }
                Err(_) => {
                    robot.errors += 1;
                    robot.staleness += 1;
                }
            }
            if let Some(ingest) = ingest {
                match ingest.state(i) {
                    SlotState::Fresh => robot.fresh += 1,
                    SlotState::Held => robot.held += 1,
                    SlotState::Missing => robot.missing += 1,
                }
            }
            robot.capsules = fleet
                .detector(i)
                .recorder()
                .map(|r| r.capsules().len() as u64)
                .unwrap_or(0);
        }
    }

    /// Folds a sharded service's topology into the board: one row per
    /// shard (robot count, tick, journal backlog, last snapshot) plus
    /// the balancer's migration count. Call alongside
    /// [`FleetHealth::observe`]-style per-tick observation, or at
    /// whatever cadence the dashboard scrapes.
    pub fn observe_shards(&mut self, fleet: &ShardedFleet) {
        self.shards = fleet.status();
        self.steals = fleet.steals();
    }

    /// Per-shard rows from the last [`FleetHealth::observe_shards`]
    /// (empty for single-process fleets).
    pub fn shards(&self) -> &[ShardStatus] {
        &self.shards
    }

    /// Whole-group migrations completed by the shard balancer.
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Robots with any alarm currently raised.
    pub fn alarmed(&self) -> usize {
        self.robots
            .iter()
            .filter(|r| r.sensor_alarm || r.actuator_alarm)
            .count()
    }

    /// Total missed deadlines across the fleet.
    pub fn missed_deadlines(&self) -> u64 {
        self.robots.iter().map(|r| r.missed_deadlines).sum()
    }

    /// Total sealed capsules across the fleet.
    pub fn capsules(&self) -> u64 {
        self.robots.iter().map(|r| r.capsules).sum()
    }

    /// Signature groups on the slab path at the last observed tick.
    pub fn slab_groups(&self) -> u64 {
        self.slab_groups
    }

    /// Robots stepped through slab tiles at the last observed tick.
    pub fn slab_robots(&self) -> u64 {
        self.slab_robots
    }

    /// Robots stepped per-robot at the last observed tick.
    pub fn scalar_robots(&self) -> u64 {
        self.scalar_robots
    }

    /// JSON snapshot: fleet aggregates plus one object per robot.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.field_u64("ticks", self.ticks);
        o.field_u64("robots", self.robots.len() as u64);
        o.field_u64("alarmed", self.alarmed() as u64);
        o.field_u64("missed_deadlines", self.missed_deadlines());
        o.field_u64("capsules", self.capsules());
        o.field_u64("slab_groups", self.slab_groups);
        o.field_u64("slab_robots", self.slab_robots);
        o.field_u64("scalar_robots", self.scalar_robots);
        let rows: Vec<String> = self
            .robots
            .iter()
            .map(|r| {
                let mut row = JsonObject::new();
                row.field_u64("iteration", r.iteration);
                row.field_u64("selected_mode", r.selected_mode as u64);
                row.field_bool("sensor_alarm", r.sensor_alarm);
                row.field_bool("actuator_alarm", r.actuator_alarm);
                let sensors: Vec<String> = r
                    .misbehaving_sensors
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                row.field_raw("misbehaving_sensors", &format!("[{}]", sensors.join(",")));
                row.field_u64("staleness", r.staleness);
                row.field_u64("missed_deadlines", r.missed_deadlines);
                row.field_u64("errors", r.errors);
                row.field_u64("fresh", r.fresh);
                row.field_u64("held", r.held);
                row.field_u64("missing", r.missing);
                row.field_u64("capsules", r.capsules);
                row.finish()
            })
            .collect();
        o.field_raw("per_robot", &format!("[{}]", rows.join(",")));
        if !self.shards.is_empty() {
            o.field_u64("steals", self.steals);
            let rows: Vec<String> = self
                .shards
                .iter()
                .map(|s| {
                    let mut row = JsonObject::new();
                    row.field_u64("shard", s.shard as u64);
                    row.field_u64("robots", s.robots as u64);
                    row.field_u64("tick", s.tick);
                    row.field_u64("journal_frames", s.journal_frames as u64);
                    match s.snapshot_tick {
                        Some(t) => row.field_u64("snapshot_tick", t),
                        None => row.field_raw("snapshot_tick", "null"),
                    }
                    row.finish()
                })
                .collect();
            o.field_raw("shards", &format!("[{}]", rows.join(",")));
        }
        if let Some(t) = &self.telemetry {
            o.field_raw("metrics", &t.metrics().snapshot().to_json());
        }
        o.finish()
    }

    /// Prometheus-style text exposition of the board. Per-robot series
    /// carry a `robot="<index>"` label; the attached telemetry registry
    /// (step-latency summaries etc.) is appended when present.
    pub fn to_prometheus(&self) -> String {
        let mut p = PrometheusText::new();
        p.help("roboads_fleet_ticks", "Fleet ticks observed");
        p.type_("roboads_fleet_ticks", "counter");
        p.sample("roboads_fleet_ticks", &[], self.ticks as f64);
        p.help("roboads_fleet_robots", "Robots in the fleet");
        p.type_("roboads_fleet_robots", "gauge");
        p.sample("roboads_fleet_robots", &[], self.robots.len() as f64);
        p.help("roboads_fleet_alarmed", "Robots with an alarm raised");
        p.type_("roboads_fleet_alarmed", "gauge");
        p.sample("roboads_fleet_alarmed", &[], self.alarmed() as f64);
        p.help("roboads_fleet_capsules", "Incident capsules sealed");
        p.type_("roboads_fleet_capsules", "gauge");
        p.sample("roboads_fleet_capsules", &[], self.capsules() as f64);
        p.help(
            "roboads_fleet_slab_groups",
            "Signature groups on the SIMD slab path",
        );
        p.type_("roboads_fleet_slab_groups", "gauge");
        p.sample("roboads_fleet_slab_groups", &[], self.slab_groups as f64);
        p.help(
            "roboads_fleet_slab_robots",
            "Robots stepped through slab tiles",
        );
        p.type_("roboads_fleet_slab_robots", "gauge");
        p.sample("roboads_fleet_slab_robots", &[], self.slab_robots as f64);
        p.help("roboads_fleet_scalar_robots", "Robots stepped per-robot");
        p.type_("roboads_fleet_scalar_robots", "gauge");
        p.sample(
            "roboads_fleet_scalar_robots",
            &[],
            self.scalar_robots as f64,
        );

        type RobotGauge = (&'static str, &'static str, fn(&RobotHealth) -> f64);
        let gauges: [RobotGauge; 9] = [
            ("roboads_robot_iteration", "Last completed iteration", |r| {
                r.iteration as f64
            }),
            ("roboads_robot_selected_mode", "Last selected mode", |r| {
                r.selected_mode as f64
            }),
            ("roboads_robot_sensor_alarm", "Sensor alarm raised", |r| {
                u64::from(r.sensor_alarm) as f64
            }),
            (
                "roboads_robot_actuator_alarm",
                "Actuator alarm raised",
                |r| u64::from(r.actuator_alarm) as f64,
            ),
            (
                "roboads_robot_staleness",
                "Ticks since the last completed step",
                |r| r.staleness as f64,
            ),
            (
                "roboads_robot_missed_deadlines",
                "Missed tick deadlines",
                |r| r.missed_deadlines as f64,
            ),
            ("roboads_robot_fresh", "Ticks published fresh", |r| {
                r.fresh as f64
            }),
            ("roboads_robot_held", "Ticks published held", |r| {
                r.held as f64
            }),
            (
                "roboads_robot_missing",
                "Ticks with no publishable inputs",
                |r| r.missing as f64,
            ),
        ];
        for (name, help, get) in gauges {
            p.help(name, help);
            p.type_(name, "gauge");
            for (i, robot) in self.robots.iter().enumerate() {
                p.sample(name, &[("robot", &i.to_string())], get(robot));
            }
        }
        if !self.shards.is_empty() {
            p.help(
                "roboads_fleet_steals",
                "Whole-group migrations completed by the shard balancer",
            );
            p.type_("roboads_fleet_steals", "counter");
            p.sample("roboads_fleet_steals", &[], self.steals as f64);
            type ShardGauge = (&'static str, &'static str, fn(&ShardStatus) -> f64);
            let gauges: [ShardGauge; 4] = [
                ("roboads_shard_robots", "Robots homed on the shard", |s| {
                    s.robots as f64
                }),
                ("roboads_shard_tick", "Shard staging tick", |s| {
                    s.tick as f64
                }),
                (
                    "roboads_shard_journal_frames",
                    "Journaled frames since the last snapshot (replay backlog)",
                    |s| s.journal_frames as f64,
                ),
                (
                    "roboads_shard_snapshot_age",
                    "Ticks since the shard's last snapshot (-1 before the first)",
                    |s| match s.snapshot_tick {
                        Some(t) => s.tick.saturating_sub(t) as f64,
                        None => -1.0,
                    },
                ),
            ];
            for (name, help, get) in gauges {
                p.help(name, help);
                p.type_(name, "gauge");
                for shard in &self.shards {
                    p.sample(name, &[("shard", &shard.shard.to_string())], get(shard));
                }
            }
        }
        let mut out = p.finish();
        if let Some(t) = &self.telemetry {
            out.push_str(&render_snapshot(&t.metrics().snapshot()));
        }
        out
    }
}
