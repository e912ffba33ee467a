//! The two workloads: fleet size, which Table II template each robot
//! replays, and the forged-frame flood.
//! See `README.md` for why each workload exists.

use std::sync::Arc;

use roboads::control::{Mission, Path};
use roboads::core::{ModeSet, RoboAds, RoboAdsConfig, RobotFactory, ShardConfig};
use roboads::linalg::Vector;
use roboads::models::presets;
use roboads::sim::{Scenario, SimulationBuilder, Trace};

/// Forged frames mixed into every tick of `flood-recover-64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flood {
    /// Per robot and tick (from tick 1 on): a genuine frame of an
    /// already-closed tick, replayed with its original stamp. Rejected.
    pub stale_per_robot: usize,
    /// Per tick: frames addressed to robot ids outside the fleet.
    /// Rejected with an error.
    pub unknown_per_tick: usize,
    /// Per robot and tick: an identical in-window re-send of one of the
    /// robot's genuine frames. Accepted and journaled.
    pub resend_per_robot: usize,
}

/// One benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub robots: usize,
    /// Templates per set; robot `i` replays template `template_of(i)`
    /// of the set its pass runs.
    pub templates: usize,
    /// Template sets: pass `p` replays set `p mod sets`. The detection
    /// scores pool over every template of every set, and false alarms
    /// are rare, so a fleet of 64 needs several sets for scores that
    /// hold steady from seed to seed.
    pub sets: usize,
    /// `ShardConfig::snapshot_period` of the service.
    pub snapshot_period: u64,
    /// The shard is killed and recovered whenever the staging tick sits
    /// this many ticks past a multiple of `snapshot_period` (`None`:
    /// once, after the last tick of each pass).
    pub crash_offset: Option<u64>,
    pub flood: Option<Flood>,
}

pub const WORKLOADS: [&str; 2] = ["table2-256", "flood-recover-64"];

/// Salt separating the workloads' template seeds, so `--seed 1` on two
/// workloads does not replay the same trajectories.
fn salt(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// SplitMix64 finalizer: derives well-separated seeds from one.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            "table2-256" => Some(Workload {
                name: "table2-256",
                robots: 256,
                templates: 256,
                sets: 4,
                snapshot_period: 64,
                crash_offset: None,
                flood: None,
            }),
            "flood-recover-64" => Some(Workload {
                name: "flood-recover-64",
                robots: 64,
                templates: 64,
                sets: 16,
                snapshot_period: 32,
                crash_offset: Some(24),
                flood: Some(Flood {
                    stale_per_robot: 64,
                    unknown_per_tick: 1920,
                    resend_per_robot: 1,
                }),
            }),
            _ => None,
        }
    }

    /// One busy thread: one shard stepped inline, no robot-grain pool,
    /// and the periodic snapshot of the workload.
    pub fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            shards: 1,
            threads_per_shard: 1,
            snapshot_period: self.snapshot_period,
            steal_margin: 0,
        }
    }

    /// The scenario of every template: clean, then the eleven Table II
    /// attacks, over and over.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let attacks = Scenario::all_khepera();
        (0..self.templates)
            .map(|t| match t % (attacks.len() + 1) {
                0 => Scenario::clean(),
                a => attacks[a - 1].clone(),
            })
            .collect()
    }

    /// The template robot `i` replays.
    pub fn template_of(&self, i: usize) -> usize {
        i % self.templates
    }

    /// The seed of template `t` of set `set` for workload seed `seed`.
    pub fn template_seed(&self, seed: u64, set: usize, t: usize) -> u64 {
        mix(seed ^ salt(self.name) ^ mix((set * self.templates + t) as u64))
    }

    /// Robots replaying each template of a set.
    pub fn template_weights(&self) -> Vec<u64> {
        let mut weights = vec![0; self.templates];
        for i in 0..self.robots {
            weights[self.template_of(i)] += 1;
        }
        weights
    }

    pub fn robot_ids(&self) -> Vec<u64> {
        (0..self.robots as u64).collect()
    }
}

/// The evaluation mission's planned path, planned once and shared by
/// every template run and the detector template.
pub fn evaluation_path() -> Result<Path, String> {
    Mission::evaluation_default()
        .plan(&presets::evaluation_arena(), 0.08)
        .map_err(|e| format!("planning the evaluation path: {e}"))
}

/// Simulates one template: the scenario's closed-loop Khepera run
/// through the bus round-trip, with the given seed. The simulator's own
/// detector never feeds back into the run (the planner tracks the IPS
/// readings), so it gets a one-mode bank: the trajectory is the same as
/// under the full bank, at a fraction of the cost.
pub fn simulate(scenario: &Scenario, seed: u64, path: &Path) -> Result<Trace, String> {
    let system = presets::khepera_system();
    let one_mode = ModeSet::from_reference_groups(&system, &[vec![0]]);
    SimulationBuilder::khepera()
        .scenario(scenario.clone())
        .seed(seed)
        .path(path.clone())
        .mode_set(one_mode)
        .run()
        .map(|outcome| outcome.trace)
        .map_err(|e| format!("simulating {}: {e}", scenario.name()))
}

/// The never-stepped detector every robot and every oracle clones:
/// built once, because construction is the expensive part (the
/// evaluation runner plans a path per detector).
pub fn template_detector(path: &Path) -> Result<RoboAds, String> {
    let system = presets::khepera_system();
    let (sx, sy) = path.waypoints()[0];
    let (lx, ly) = path.lookahead_point(sx, sy, 0.25);
    let x0 = Vector::from_slice(&[sx, sy, (ly - sy).atan2(lx - sx)]);
    let modes = ModeSet::one_reference_per_sensor(&system);
    RoboAds::new(system, RoboAdsConfig::paper_defaults(), x0, modes)
        .map_err(|e| format!("building the template detector: {e}"))
}

/// The service's robot factory: a clone of the template detector. The
/// clones share the template's model `Arc`s, so the fleet is one slab
/// signature group, and a recovery rebuild is bitwise the original.
pub fn cloning_factory(template: &RoboAds) -> RobotFactory {
    let template = template.clone();
    Arc::new(move |_id| Ok(template.clone()))
}
