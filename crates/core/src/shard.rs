//! Sharded fleet service: hash-partitioned [`FleetEngine`] +
//! [`FleetIngest`] pairs with whole-signature-group work stealing,
//! periodic snapshots and journal-replay crash recovery
//! (`DESIGN.md` §18).
//!
//! One [`FleetEngine`] scales across cores but is still a single
//! synchronization domain: every robot crosses the same tick barrier,
//! and one process owns all state. The [`ShardedFleet`] splits a fleet
//! into `S` fully independent shards — each its own engine + ingest
//! pair, stepped on its own worker thread — so the only cross-shard
//! coupling is the tick cadence the caller drives.
//!
//! Three invariants make the shards a *service* rather than just a
//! partition:
//!
//! * **Determinism per robot.** A robot's arithmetic depends only on
//!   its own frames (pinned transitively by
//!   `tests/fleet_determinism.rs`), so shard assignment, shard count
//!   and stealing cannot perturb any robot's verdicts.
//! * **Recoverability.** Every accepted frame is journaled; each shard
//!   periodically captures a [`crate::snapshot_fleet`] snapshot and
//!   truncates its journal. Losing a shard's live state loses nothing:
//!   [`ShardedFleet::recover_shard`] rebuilds twins from the robot
//!   factory, restores the snapshot and re-feeds the journal through
//!   the ordinary ingest path — bitwise identical to never crashing.
//! * **Whole-group stealing.** Load balancing migrates robots at
//!   signature-group granularity ([`FleetEngine::signature_groups`],
//!   §16), so a stolen group's slab tiles arrive intact on the
//!   recipient and neither shard's SIMD batching degrades. Both
//!   parties snapshot immediately after a migration, keeping the
//!   snapshot + journal recovery story sound across moves.

use std::collections::HashMap;
use std::sync::Arc;

use roboads_linalg::Vector;

use crate::detector::RoboAds;
use crate::fleet::FleetEngine;
use crate::ingest::FleetIngest;
use crate::report::DetectionReport;
use crate::snapshot;
use crate::{CoreError, Result};

/// Builds one robot's detector from its global id. Recovery calls this
/// to reconstruct a crashed shard's twins, so it must be deterministic:
/// the same id always yields an identically-configured detector (the
/// twin-reconstruction discipline of [`crate::replay_capsule`]).
pub type RobotFactory = Arc<dyn Fn(u64) -> Result<RoboAds> + Send + Sync>;

/// Configuration of a [`ShardedFleet`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards (clamped to at least 1).
    pub shards: usize,
    /// Robot-grain worker threads inside each shard's [`FleetEngine`]
    /// (`1` = each shard steps its robots sequentially on its own
    /// worker — the usual choice, since sharding already spreads the
    /// fleet across cores).
    pub threads_per_shard: usize,
    /// Ticks between automatic per-shard snapshots (`0` = snapshot
    /// only on demand / after migrations). Each snapshot truncates the
    /// shard's journal, bounding both recovery replay time and journal
    /// memory.
    pub snapshot_period: u64,
    /// Minimum robot-count imbalance between the fullest and emptiest
    /// shard before [`ShardedFleet::rebalance`] migrates a group
    /// (`0` disables stealing).
    pub steal_margin: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 2,
            threads_per_shard: 1,
            snapshot_period: 64,
            steal_margin: 0,
        }
    }
}

/// One owned ingest frame: exactly the arguments of
/// [`ShardedFleet::offer_slice`], addressed by **global** robot id.
/// The owned unit of the binary wire front-end (`roboads-wire`); the
/// service's own path offers borrowed values instead.
#[derive(Debug, Clone, PartialEq)]
pub struct StampedFrame {
    /// Global robot id.
    pub robot: u64,
    /// Sensing workflow index, or `None` for the planned actuator
    /// command `u_{k-1}`.
    pub sensor: Option<u32>,
    /// The tick the frame belongs to (must match the shard's staging
    /// window to be accepted — late frames are rejected, not queued).
    pub tick: u64,
    /// The reading / command values.
    pub values: Vec<f64>,
}

/// Point-in-time health of one shard (see [`ShardedFleet::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Robots currently homed on this shard.
    pub robots: usize,
    /// The shard's current staging tick.
    pub tick: u64,
    /// Journaled frames since the last snapshot (replay backlog).
    pub journal_frames: usize,
    /// Tick of the last snapshot, if one was taken.
    pub snapshot_tick: Option<u64>,
}

/// Header of one journaled frame: the arguments of
/// [`ShardedFleet::offer_slice`] with its values as a range of the
/// journal's value arena. Addressed by **global** robot id so the
/// journal survives local renumbering.
#[derive(Debug, Clone, Copy)]
struct JournalEntry {
    robot: u64,
    sensor: Option<u32>,
    tick: u64,
    start: usize,
    len: usize,
}

/// A shard's accepted frames since its last snapshot, in acceptance
/// order, held in one flat arena: every frame's values back to back in
/// `values`, one compact header per frame in `entries`. Clearing keeps
/// both capacities, so once a snapshot period's worth of frames has
/// been journaled, appends allocate nothing.
#[derive(Debug, Default)]
struct Journal {
    values: Vec<f64>,
    entries: Vec<JournalEntry>,
}

impl Journal {
    fn push(&mut self, robot: u64, sensor: Option<u32>, tick: u64, values: &[f64]) {
        self.entries.push(JournalEntry {
            robot,
            sensor,
            tick,
            start: self.values.len(),
            len: values.len(),
        });
        self.values.extend_from_slice(values);
    }

    fn clear(&mut self) {
        self.values.clear();
        self.entries.clear();
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Frames in acceptance order, each with its values.
    fn frames(&self) -> impl Iterator<Item = (&JournalEntry, &[f64])> {
        self.entries
            .iter()
            .map(|e| (e, &self.values[e.start..e.start + e.len]))
    }
}

struct Shard {
    engine: FleetEngine,
    ingest: FleetIngest,
    /// Local fleet index -> global robot id.
    robots: Vec<u64>,
    /// Accepted frames since the last snapshot.
    journal: Journal,
    /// Last captured snapshot: `(staging tick at capture, bytes)`.
    snapshot: Option<(u64, Vec<u8>)>,
    /// Batch-level outcome of the shard's last step.
    last_result: Result<()>,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("robots", &self.robots)
            .field("journal_frames", &self.journal.len())
            .field("snapshot_tick", &self.snapshot.as_ref().map(|(t, _)| *t))
            .finish_non_exhaustive()
    }
}

/// SplitMix64 finalizer: the stateless hash that partitions robot ids
/// across shards. Deterministic and well-mixed for sequential ids, so
/// `0..N` spreads evenly without coordination.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A fleet split into independent engine + ingest shards. See the
/// module docs for the design; `DESIGN.md` §18 for the protocol.
pub struct ShardedFleet {
    shards: Vec<Shard>,
    /// Global robot id -> `(shard, local fleet index)`. Maintained
    /// across migrations; the single source of routing truth.
    routing: HashMap<u64, (usize, usize)>,
    factory: RobotFactory,
    snapshot_period: u64,
    steal_margin: usize,
    /// Completed group migrations.
    steals: u64,
}

impl std::fmt::Debug for ShardedFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFleet")
            .field("shards", &self.shards)
            .field("steals", &self.steals)
            .finish_non_exhaustive()
    }
}

impl ShardedFleet {
    /// Builds a sharded fleet: each robot id is hashed onto its home
    /// shard (`splitmix64(id) % shards`), its detector built via
    /// `factory`, and each shard gets its own [`FleetEngine`] and
    /// [`FleetIngest`] pair.
    ///
    /// # Errors
    ///
    /// Any factory error, or [`CoreError::BadReadings`] on duplicate
    /// robot ids.
    pub fn new(robot_ids: &[u64], factory: RobotFactory, config: ShardConfig) -> Result<Self> {
        let shard_count = config.shards.max(1);
        let mut members: Vec<Vec<u64>> = vec![Vec::new(); shard_count];
        let mut seen = HashMap::new();
        for &id in robot_ids {
            if seen.insert(id, ()).is_some() {
                return Err(CoreError::BadReadings {
                    reason: format!("duplicate robot id {id} in sharded fleet"),
                });
            }
            members[(splitmix64(id) % shard_count as u64) as usize].push(id);
        }
        let mut shards = Vec::with_capacity(shard_count);
        let mut routing = HashMap::with_capacity(robot_ids.len());
        for (s, ids) in members.into_iter().enumerate() {
            let detectors: Vec<RoboAds> =
                ids.iter().map(|&id| factory(id)).collect::<Result<_>>()?;
            let engine = FleetEngine::new(detectors, config.threads_per_shard);
            let ingest = FleetIngest::for_fleet(&engine);
            for (local, &id) in ids.iter().enumerate() {
                routing.insert(id, (s, local));
            }
            shards.push(Shard {
                engine,
                ingest,
                robots: ids,
                journal: Journal::default(),
                snapshot: None,
                last_result: Ok(()),
            });
        }
        Ok(ShardedFleet {
            shards,
            routing,
            factory,
            snapshot_period: config.snapshot_period,
            steal_margin: config.steal_margin,
            steals: 0,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total robots across all shards.
    pub fn robot_count(&self) -> usize {
        self.routing.len()
    }

    /// The shard currently homing `robot`, if it exists.
    pub fn shard_of(&self, robot: u64) -> Option<usize> {
        self.routing.get(&robot).map(|&(s, _)| s)
    }

    /// The fleet-wide tick cadence (every shard steps in lockstep, so
    /// any shard's staging tick is *the* tick).
    pub fn tick(&self) -> u64 {
        self.shards.first().map_or(0, |s| s.ingest.tick())
    }

    /// Completed whole-group migrations (see
    /// [`ShardedFleet::rebalance`]).
    pub fn steals(&self) -> u64 {
        self.steals
    }

    /// Per-shard health, in shard order.
    pub fn status(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, shard)| ShardStatus {
                shard: s,
                robots: shard.robots.len(),
                tick: shard.ingest.tick(),
                journal_frames: shard.journal.len(),
                snapshot_tick: shard.snapshot.as_ref().map(|(t, _)| *t),
            })
            .collect()
    }

    /// The fleet's single offer path: routes `robot`, checks `tick`
    /// against its shard's staging window, then the sensor index, and
    /// only then pulls `values` into the robot's [`FleetIngest`]
    /// staging buffer, which the shard's journal copies (see
    /// [`FleetIngest::offer_slice`]). `values` is a lazy source — a
    /// slice's `iter().copied()`, or a wire frame's undecoded values —
    /// so a rejected frame's values are never read. `sensor` is the
    /// sensing workflow index, or `None` for the planned actuator
    /// command `u_{k-1}`. Returns whether the frame was staged. A warm
    /// shard (journal capacity grown over one snapshot period) neither
    /// accepts nor rejects with a heap allocation.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownRobot`] when `robot` is not routed, else
    /// [`CoreError::UnknownSensor`] for an in-window frame whose sensor
    /// index is out of range. A stale or future stamp is `Ok(false)`.
    pub fn offer_slice(
        &mut self,
        robot: u64,
        sensor: Option<u32>,
        tick: u64,
        values: impl IntoIterator<Item = f64>,
    ) -> Result<bool> {
        self.stage(robot, sensor.map(|i| i as usize), tick, values)
    }

    /// [`ShardedFleet::offer_slice`] for a sensor reading.
    ///
    /// # Errors
    ///
    /// As [`ShardedFleet::offer_slice`].
    pub fn offer(
        &mut self,
        robot: u64,
        sensor: usize,
        reading: &Vector,
        tick: u64,
    ) -> Result<bool> {
        self.stage(
            robot,
            Some(sensor),
            tick,
            reading.as_slice().iter().copied(),
        )
    }

    /// [`ShardedFleet::offer_slice`] for a planned command.
    ///
    /// # Errors
    ///
    /// As [`ShardedFleet::offer_slice`].
    pub fn offer_input(&mut self, robot: u64, u_prev: &Vector, tick: u64) -> Result<bool> {
        self.stage(robot, None, tick, u_prev.as_slice().iter().copied())
    }

    fn stage(
        &mut self,
        robot: u64,
        sensor: Option<usize>,
        tick: u64,
        values: impl IntoIterator<Item = f64>,
    ) -> Result<bool> {
        let &(s, local) = self
            .routing
            .get(&robot)
            .ok_or(CoreError::UnknownRobot { robot })?;
        let shard = &mut self.shards[s];
        let staged = shard
            .ingest
            .stage_stamped(local, sensor, values, tick)
            .map_err(|e| match e {
                // Name the robot by its global id, not its shard index.
                CoreError::UnknownSensor { sensor, .. } => {
                    CoreError::UnknownSensor { robot, sensor }
                }
                e => e,
            })?;
        let Some(values) = staged else {
            return Ok(false);
        };
        // Staged, so `sensor` is below the robot's sensor count.
        let sensor = sensor.map(|i| i as u32);
        shard.journal.push(robot, sensor, tick, values);
        Ok(true)
    }

    /// [`ShardedFleet::offer_slice`] for an owned frame.
    ///
    /// # Errors
    ///
    /// As [`ShardedFleet::offer_slice`].
    pub fn offer_frame(&mut self, frame: &StampedFrame) -> Result<bool> {
        self.offer_slice(
            frame.robot,
            frame.sensor,
            frame.tick,
            frame.values.iter().copied(),
        )
    }

    /// Crosses the tick boundary on every shard concurrently: each
    /// shard swaps its staging window and steps its fleet on its own
    /// worker thread ([`FleetIngest::step`]). Afterwards, takes the
    /// periodic snapshots that fall due.
    ///
    /// # Errors
    ///
    /// The first failing shard's batch error, in shard order — but
    /// *every* shard completes its tick regardless (exactly the
    /// fleet-level contract: a failing robot never stalls neighbours).
    /// Per-robot outcomes stay queryable via [`ShardedFleet::result`].
    pub fn step(&mut self) -> Result<()> {
        if self.shards.len() == 1 {
            let shard = &mut self.shards[0];
            shard.last_result = shard.ingest.step(&mut shard.engine);
        } else {
            std::thread::scope(|scope| {
                for shard in self.shards.iter_mut() {
                    scope.spawn(move || {
                        shard.last_result = shard.ingest.step(&mut shard.engine);
                    });
                }
            });
        }
        if self.snapshot_period > 0 {
            for s in 0..self.shards.len() {
                if self.shards[s]
                    .ingest
                    .tick()
                    .is_multiple_of(self.snapshot_period)
                {
                    self.snapshot_shard(s);
                }
            }
        }
        for shard in &self.shards {
            if let Err(e) = &shard.last_result {
                return Err(e.clone());
            }
        }
        Ok(())
    }

    /// Captures shard `s`'s snapshot now and truncates its journal.
    /// Returns the snapshot size in bytes.
    pub fn snapshot_shard(&mut self, s: usize) -> usize {
        let shard = &mut self.shards[s];
        // The previous snapshot's buffer is rewritten in place, so a
        // warm periodic snapshot allocates nothing.
        let mut bytes = shard.snapshot.take().map(|(_, b)| b).unwrap_or_default();
        snapshot::snapshot_fleet_into(&shard.engine, &shard.ingest, &mut bytes);
        let len = bytes.len();
        shard.snapshot = Some((shard.ingest.tick(), bytes));
        shard.journal.clear();
        len
    }

    /// Shard `s`'s last captured snapshot ([`crate::snapshot_fleet`]
    /// bytes), if one was taken.
    pub fn last_snapshot(&self, s: usize) -> Option<&[u8]> {
        self.shards[s]
            .snapshot
            .as_ref()
            .map(|(_, bytes)| &bytes[..])
    }

    /// Snapshots every shard (e.g. before a planned shutdown).
    pub fn snapshot_all(&mut self) {
        for s in 0..self.shards.len() {
            self.snapshot_shard(s);
        }
    }

    /// Rebuilds shard `s` from durable state only — the robot factory,
    /// the last snapshot and the journal — discarding its live engine
    /// and ingest entirely. This *is* the crash-recovery path: nothing
    /// of the lost in-memory state is consulted beyond construction
    /// configuration (robot roster, deadline policies, thread count).
    ///
    /// The journal replays through the ordinary ingest path — stamped
    /// offers, one [`FleetIngest::step`] per tick boundary — so the
    /// recovered shard is bitwise identical to one that never crashed:
    /// same filter states, same open decision windows, same staging
    /// buffers.
    ///
    /// # Errors
    ///
    /// Factory or snapshot-restore errors; the shard is left untouched
    /// on failure.
    pub fn recover_shard(&mut self, s: usize) -> Result<()> {
        let factory = Arc::clone(&self.factory);
        let shard = &mut self.shards[s];
        let detectors: Vec<RoboAds> = shard
            .robots
            .iter()
            .map(|&id| factory(id))
            .collect::<Result<_>>()?;
        let mut engine = FleetEngine::new(detectors, shard.engine.threads());
        let mut ingest = FleetIngest::for_fleet(&engine);
        for robot in 0..ingest.len() {
            ingest.set_policy(robot, shard.ingest.policy(robot));
        }
        if let Some((_, bytes)) = &shard.snapshot {
            snapshot::restore_fleet(&mut engine, &mut ingest, bytes)?;
        }
        let target = shard.ingest.tick();
        for (frame, values) in shard.journal.frames() {
            // Reach the frame's staging window first: step errors
            // (missed deadlines among them) were already reported live
            // and do not abort the replay, mirroring the live run.
            while ingest.tick() < frame.tick {
                let _ = ingest.step(&mut engine);
            }
            let local = self
                .routing
                .get(&frame.robot)
                .map(|&(_, local)| local)
                .ok_or_else(|| {
                    snapshot::snapshot_err(format!(
                        "journaled robot {} no longer routed",
                        frame.robot
                    ))
                })?;
            ingest.offer_slice(
                local,
                frame.sensor.map(|i| i as usize),
                values.iter().copied(),
                frame.tick,
            )?;
        }
        while ingest.tick() < target {
            let _ = ingest.step(&mut engine);
        }
        shard.engine = engine;
        shard.ingest = ingest;
        shard.last_result = Ok(());
        Ok(())
    }

    /// One balancing pass: while the fullest and emptiest shards differ
    /// by more than `steal_margin` robots, migrate one whole signature
    /// group from the fullest to the emptiest. Groups never split —
    /// the stolen robots arrive as one contiguous signature run, so
    /// both shards keep their slab tiling (§16) — and both shards
    /// snapshot immediately after each move, keeping snapshot + journal
    /// recovery sound. Returns the number of robots migrated.
    pub fn rebalance(&mut self) -> usize {
        if self.steal_margin == 0 || self.shards.len() < 2 {
            return 0;
        }
        let mut moved_total = 0;
        loop {
            let (donor, recipient) = {
                let mut max = 0;
                let mut min = 0;
                for (s, shard) in self.shards.iter().enumerate() {
                    if shard.robots.len() > self.shards[max].robots.len() {
                        max = s;
                    }
                    if shard.robots.len() < self.shards[min].robots.len() {
                        min = s;
                    }
                }
                (max, min)
            };
            let imbalance = self.shards[donor].robots.len() - self.shards[recipient].robots.len();
            if imbalance <= self.steal_margin {
                break;
            }
            // Largest group that still improves balance (moving g
            // robots changes the gap by 2g, so any g < imbalance
            // helps); none fitting means the donor is one indivisible
            // group — stop rather than split it.
            let groups = self.shards[donor].engine.signature_groups();
            let Some(group) = groups
                .into_iter()
                .filter(|g| g.len() < imbalance)
                .max_by_key(|g| g.len())
            else {
                break;
            };
            let moved = group.len();
            self.move_group(donor, recipient, &group);
            moved_total += moved;
        }
        moved_total
    }

    /// Migrates the robots at the donor's (ascending) fleet indices to
    /// the recipient, preserving detector state, staged ingest buffers
    /// and hold-last history byte for byte.
    fn move_group(&mut self, donor: usize, recipient: usize, fleet_indices: &[usize]) {
        debug_assert!(fleet_indices.windows(2).all(|w| w[0] < w[1]));
        let moved_ids: Vec<u64> = fleet_indices
            .iter()
            .map(|&i| self.shards[donor].robots[i])
            .collect();
        let detectors = self.shards[donor].engine.remove_robots(fleet_indices);
        let slots = self.shards[donor].ingest.remove_slots(fleet_indices);
        let mut keep = vec![true; self.shards[donor].robots.len()];
        for &i in fleet_indices {
            keep[i] = false;
        }
        let mut kept = Vec::with_capacity(keep.len() - fleet_indices.len());
        for (i, id) in self.shards[donor].robots.iter().enumerate() {
            if keep[i] {
                kept.push(*id);
            }
        }
        self.shards[donor].robots = kept;
        for detector in detectors {
            self.shards[recipient].engine.push(detector);
        }
        self.shards[recipient].ingest.append_slots(slots);
        self.shards[recipient].robots.extend(moved_ids);
        for (s, shard) in self.shards.iter().enumerate() {
            for (local, &id) in shard.robots.iter().enumerate() {
                self.routing.insert(id, (s, local));
            }
        }
        // A migration invalidates both parties' journals (the movers'
        // history is split across them); fresh snapshots restore the
        // recovery invariant.
        self.snapshot_shard(donor);
        self.snapshot_shard(recipient);
        self.steals += 1;
    }

    /// Robot `robot`'s report from the last completed tick.
    pub fn report(&self, robot: u64) -> Option<&DetectionReport> {
        let &(s, local) = self.routing.get(&robot)?;
        Some(self.shards[s].engine.report(local))
    }

    /// Robot `robot`'s outcome from the last completed tick.
    pub fn result(&self, robot: u64) -> Option<&Result<()>> {
        let &(s, local) = self.routing.get(&robot)?;
        Some(self.shards[s].engine.result(local))
    }

    /// Robot `robot`'s detector.
    pub fn detector(&self, robot: u64) -> Option<&RoboAds> {
        let &(s, local) = self.routing.get(&robot)?;
        Some(self.shards[s].engine.detector(local))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::tests::{assert_bits, counted, ODD_BITS};
    use roboads_models::presets;
    use std::cell::Cell;

    fn factory() -> RobotFactory {
        Arc::new(|_id| {
            let system = presets::khepera_system();
            let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
            RoboAds::with_defaults(system, x0)
        })
    }

    #[test]
    fn partition_covers_every_robot_exactly_once() {
        let ids: Vec<u64> = (0..64).collect();
        let fleet = ShardedFleet::new(
            &ids,
            factory(),
            ShardConfig {
                shards: 4,
                ..ShardConfig::default()
            },
        )
        .unwrap();
        assert_eq!(fleet.shard_count(), 4);
        assert_eq!(fleet.robot_count(), 64);
        let status = fleet.status();
        assert_eq!(status.iter().map(|s| s.robots).sum::<usize>(), 64);
        // The hash spreads 64 sequential ids over 4 shards reasonably.
        for s in &status {
            assert!(
                s.robots >= 8,
                "shard {} got only {} robots",
                s.shard,
                s.robots
            );
        }
        for id in ids {
            assert!(fleet.shard_of(id).is_some());
        }
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        assert!(ShardedFleet::new(&[1, 2, 1], factory(), ShardConfig::default()).is_err());
    }

    #[test]
    fn unknown_robot_offers_are_rejected() {
        let mut fleet = ShardedFleet::new(&[1, 2], factory(), ShardConfig::default()).unwrap();
        let v = Vector::from_slice(&[0.0, 0.0]);
        assert_eq!(
            fleet.offer_input(99, &v, 0),
            Err(CoreError::UnknownRobot { robot: 99 })
        );
    }

    #[test]
    fn frames_are_routed_then_stamped_then_journaled() {
        let mut fleet = ShardedFleet::new(&[1, 2], factory(), ShardConfig::default()).unwrap();
        let v = [0.25, -0.5];
        assert_eq!(fleet.offer_slice(1, None, 0, v), Ok(true));
        // A stale stamp on an unknown sensor is stale, not malformed:
        // the stamp is checked before the sensor index.
        assert_eq!(fleet.offer_slice(2, Some(9), 5, v), Ok(false));
        assert_eq!(
            fleet.offer_slice(2, Some(9), 0, v),
            Err(CoreError::UnknownSensor {
                robot: 2,
                sensor: 9
            })
        );
        assert_eq!(fleet.offer_slice(2, Some(0), 0, v), Ok(true));
        let journaled: usize = fleet.status().iter().map(|s| s.journal_frames).sum();
        assert_eq!(journaled, 2, "only staged frames are journaled");
    }

    #[test]
    fn only_an_admitted_frame_pulls_its_values_into_staging_and_journal() {
        let config = ShardConfig {
            shards: 1,
            ..ShardConfig::default()
        };
        let mut fleet = ShardedFleet::new(&[1, 2], factory(), config).unwrap();
        let _ = fleet.step(); // staging window 1: stamp 0 is stale, 2 is future
        let pulled = Cell::new(0);
        let values = ODD_BITS;
        assert_eq!(
            fleet.offer_slice(99, Some(9), 0, counted(&values, &pulled)),
            Err(CoreError::UnknownRobot { robot: 99 })
        );
        assert_eq!(
            fleet.offer_slice(2, Some(9), 0, counted(&values, &pulled)),
            Ok(false)
        );
        assert_eq!(
            fleet.offer_slice(2, None, 2, counted(&values, &pulled)),
            Ok(false)
        );
        assert_eq!(
            fleet.offer_slice(2, Some(9), 1, counted(&values, &pulled)),
            Err(CoreError::UnknownSensor {
                robot: 2,
                sensor: 9
            })
        );
        assert_eq!(pulled.get(), 0, "a rejected frame pulls no value");
        let sensors = fleet.detector(2).unwrap().system().sensor_count() as u32;
        for piece in std::iter::once(None).chain((0..sensors).map(Some)) {
            pulled.set(0);
            assert_eq!(
                fleet.offer_slice(2, piece, 1, counted(&values, &pulled)),
                Ok(true)
            );
            assert_eq!(pulled.get(), values.len(), "{piece:?}: each value once");
        }
        let local = fleet.routing[&2].1;
        let shard = &mut fleet.shards[0];
        assert_eq!(shard.journal.len(), 1 + sensors as usize);
        for (entry, journaled) in shard.journal.frames() {
            assert_eq!((entry.robot, entry.tick), (2, 1));
            assert_bits(journaled, &values);
        }
        // The slot is complete, so the swap publishes the staged buffers.
        shard.ingest.swap();
        let input = shard.ingest.input(local).unwrap();
        assert_bits(input.u_prev.as_slice(), &values);
        for reading in input.readings {
            assert_bits(reading.as_slice(), &values);
        }
    }
}
