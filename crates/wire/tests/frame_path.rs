//! Pins the borrowed frame path to the owned one. Seeded random
//! interleavings of in-window, stale, unknown-robot, bad-sensor and
//! re-sent frames are cut at random fragment boundaries and fed through
//! [`pump`] (in-place views, slice offers); the same frames go as owned
//! [`StampedFrame`]s through [`ShardedFleet::offer_frame`]. Both must
//! count every rejection under the same reason and end bitwise equal —
//! reports, detector snapshots and whole-shard `snapshot_fleet` bytes —
//! also across a `recover_shard` of every shard in the middle of a tick,
//! which replays the journal arena in acceptance order (so the newest
//! re-send still wins), and equal to a fleet that never crashed.
//!
//! Hostile payloads — truncated, bit-flipped, or with a float count
//! that lies — must surface as typed [`WireError`]s through both
//! [`FrameDecoder::next_frame`] and [`pump`], never a panic.

use std::io::Read;
use std::sync::Arc;

use roboads_core::{
    snapshot_detector, CoreError, DecisionDigest, RoboAds, ShardConfig, ShardedFleet,
};
use roboads_linalg::Vector;
use roboads_models::presets;
use roboads_wire::{
    decode_frame, encode_frame, pump, FrameDecoder, ServeSummary, WireError, WireFrame,
    WIRE_VERSION,
};

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::Rng;

const ROBOTS: [u64; 4] = [3, 42, 1 << 33, 9000];
const TICKS: u64 = 8;
const SEEDS: u64 = 24;

fn config() -> ShardConfig {
    ShardConfig {
        shards: 2,
        threads_per_shard: 1,
        snapshot_period: 3,
        steal_margin: 0,
    }
}

fn fleet() -> ShardedFleet {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let factory = Arc::new(move |_id| RoboAds::with_defaults(system.clone(), x0.clone()));
    ShardedFleet::new(&ROBOTS, factory, config()).unwrap()
}

/// Per-reason frame counts, as [`ServeSummary`] keeps them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    accepted: u64,
    stale_stamp: u64,
    unknown_robot: u64,
    bad_frame: u64,
}

impl Counts {
    fn of(summary: &ServeSummary) -> Counts {
        assert_eq!(
            summary.rejected,
            summary.stale_stamp + summary.unknown_robot + summary.bad_frame
        );
        assert_eq!(summary.frames, summary.accepted + summary.rejected);
        Counts {
            accepted: summary.accepted,
            stale_stamp: summary.stale_stamp,
            unknown_robot: summary.unknown_robot,
            bad_frame: summary.bad_frame,
        }
    }

    fn add(self, other: Counts) -> Counts {
        Counts {
            accepted: self.accepted + other.accepted,
            stale_stamp: self.stale_stamp + other.stale_stamp,
            unknown_robot: self.unknown_robot + other.unknown_robot,
            bad_frame: self.bad_frame + other.bad_frame,
        }
    }

    fn count(&mut self, offered: roboads_core::Result<bool>) {
        match offered {
            Ok(true) => self.accepted += 1,
            Ok(false) => self.stale_stamp += 1,
            Err(CoreError::UnknownRobot { .. }) => self.unknown_robot += 1,
            Err(_) => self.bad_frame += 1,
        }
    }
}

/// A seeded run: every tick's data frames in arrival order, what they
/// should count as, and where the shards crash.
struct Plan {
    ticks: Vec<Vec<WireFrame>>,
    expected: Counts,
    /// The crash lands after this many data frames of this tick.
    crash: (usize, usize),
}

fn values(base: &[f64], rng: &mut Rng, spread: f64) -> Vec<f64> {
    base.iter()
        .map(|v| v + rng.uniform(-spread, spread))
        .collect()
}

fn plan(rng: &mut Rng) -> Plan {
    let system = presets::khepera_system();
    let sensors = system.sensor_count();
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut x = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut expected = Counts::default();
    let mut ticks = Vec::new();
    for k in 0..TICKS {
        x = system.dynamics().step(&x, &u);
        let readings: Vec<Vec<f64>> = (0..sensors)
            .map(|s| system.sensor(s).unwrap().measure(&x).as_slice().to_vec())
            .collect();
        let piece = |robot: u64, sensor: Option<usize>, tick: u64, rng: &mut Rng| match sensor {
            None => WireFrame::Input {
                robot,
                tick,
                values: values(u.as_slice(), rng, 1e-3),
            },
            Some(s) => WireFrame::Reading {
                robot,
                sensor: s as u32,
                tick,
                values: values(&readings[s.min(sensors - 1)], rng, 1e-3),
            },
        };
        let random_piece = |rng: &mut Rng| match rng.below(sensors + 1) {
            0 => None,
            s => Some(s - 1),
        };
        let mut frames = Vec::new();
        for &robot in &ROBOTS {
            for sensor in std::iter::once(None).chain((0..sensors).map(Some)) {
                // One piece in sixteen never arrives: the robot misses
                // its deadline.
                if rng.below(16) > 0 {
                    frames.push(piece(robot, sensor, k, rng));
                    expected.accepted += 1;
                }
            }
        }
        for _ in 0..rng.below(4) {
            let robot = ROBOTS[rng.below(ROBOTS.len())];
            let sensor = random_piece(rng);
            frames.push(piece(robot, sensor, k, rng));
            expected.accepted += 1;
        }
        for _ in 0..rng.below(4) {
            let robot = ROBOTS[rng.below(ROBOTS.len())];
            let tick = if rng.coin() {
                k.wrapping_sub(1 + rng.below(3) as u64)
            } else {
                k + 1 + rng.below(2) as u64
            };
            let sensor = random_piece(rng);
            frames.push(piece(robot, sensor, tick, rng));
            expected.stale_stamp += 1;
        }
        for _ in 0..rng.below(4) {
            let robot = 5_000 + rng.below(100) as u64;
            let sensor = random_piece(rng);
            frames.push(piece(robot, sensor, k, rng));
            expected.unknown_robot += 1;
        }
        for _ in 0..rng.below(3) {
            let robot = ROBOTS[rng.below(ROBOTS.len())];
            let sensor = sensors + rng.below(5);
            frames.push(piece(robot, Some(sensor), k, rng));
            expected.bad_frame += 1;
        }
        // Fisher–Yates: frames of one tick arrive in any order.
        for i in (1..frames.len()).rev() {
            frames.swap(i, rng.below(i + 1));
        }
        ticks.push(frames);
    }
    let crash_tick = 1 + rng.below(TICKS as usize - 1);
    let crash = (crash_tick, rng.below(ticks[crash_tick].len() + 1));
    Plan {
        ticks,
        expected,
        crash,
    }
}

/// A connection delivering `bytes` in random-sized fragments.
struct Fragments {
    bytes: Vec<u8>,
    at: usize,
    cuts: Rng,
}

impl Read for Fragments {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (1 + self.cuts.below(200))
            .min(buf.len())
            .min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

fn encode(frames: &[WireFrame]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        encode_frame(frame, &mut bytes);
    }
    bytes
}

/// The plan as the two connections around the crash: each opens with
/// `Hello`; only the second closes with `Bye`.
fn streams(plan: &Plan) -> [Vec<WireFrame>; 2] {
    let hello = WireFrame::Hello {
        version: WIRE_VERSION,
    };
    let mut before = vec![hello.clone()];
    let mut after = vec![hello];
    let (crash_tick, crash_at) = plan.crash;
    for (k, frames) in plan.ticks.iter().enumerate() {
        for (i, frame) in frames.iter().enumerate() {
            let side = if (k, i) < (crash_tick, crash_at) {
                &mut before
            } else {
                &mut after
            };
            side.push(frame.clone());
        }
        let side = if k < crash_tick {
            &mut before
        } else {
            &mut after
        };
        side.push(WireFrame::TickEnd { tick: k as u64 });
    }
    after.push(WireFrame::Bye);
    [before, after]
}

fn recover_all(fleet: &mut ShardedFleet) {
    for s in 0..fleet.shard_count() {
        fleet.recover_shard(s).unwrap();
    }
}

/// The borrowed path: both connections through `pump`, every shard
/// recovered between them.
fn pumped(plan: &Plan, rng: &mut Rng) -> (ShardedFleet, Counts) {
    let mut fleet = fleet();
    let mut counts = Counts::default();
    let [before, after] = streams(plan);
    for (i, frames) in [before, after].iter().enumerate() {
        if i == 1 {
            recover_all(&mut fleet);
        }
        let connection = Fragments {
            bytes: encode(frames),
            at: 0,
            cuts: Rng::new(rng.next()),
        };
        let summary = pump(connection, &mut fleet).unwrap();
        assert_eq!(summary.clean_shutdown, i == 1);
        counts = counts.add(Counts::of(&summary));
    }
    (fleet, counts)
}

/// The owned path: the same frames as `StampedFrame`s through
/// `offer_frame`, crashing at the same point unless `crash` is false.
fn owned(plan: &Plan, crash: bool) -> (ShardedFleet, Counts) {
    let mut fleet = fleet();
    let mut counts = Counts::default();
    for (k, frames) in plan.ticks.iter().enumerate() {
        for (i, frame) in frames.iter().enumerate() {
            if crash && (k, i) == plan.crash {
                recover_all(&mut fleet);
            }
            counts.count(fleet.offer_frame(&frame.to_stamped().unwrap()));
        }
        if crash && (k, frames.len()) == plan.crash {
            recover_all(&mut fleet);
        }
        let _ = fleet.step();
    }
    (fleet, counts)
}

fn assert_bitwise(a: &mut ShardedFleet, b: &mut ShardedFleet, what: &str) {
    assert_eq!(a.tick(), b.tick(), "{what}: tick");
    for &id in &ROBOTS {
        assert_eq!(a.result(id), b.result(id), "{what}: robot {id} result");
        let (ra, rb) = (a.report(id).unwrap(), b.report(id).unwrap());
        assert_eq!(ra, rb, "{what}: robot {id} report");
        assert!(
            DecisionDigest::of(ra).bitwise_eq(&DecisionDigest::of(rb)),
            "{what}: robot {id} report bits"
        );
        assert_eq!(
            snapshot_detector(a.detector(id).unwrap()),
            snapshot_detector(b.detector(id).unwrap()),
            "{what}: robot {id} detector"
        );
    }
    a.snapshot_all();
    b.snapshot_all();
    for s in 0..a.shard_count() {
        assert_eq!(
            a.last_snapshot(s),
            b.last_snapshot(s),
            "{what}: shard {s} snapshot_fleet bytes"
        );
    }
}

#[test]
fn pumped_views_equal_owned_offers_across_a_mid_tick_recovery() {
    for seed in 0..SEEDS {
        let mut rng = Rng::new(seed);
        let plan = plan(&mut rng);
        let (mut borrowed, borrowed_counts) = pumped(&plan, &mut rng);
        let (mut owned_fleet, owned_counts) = owned(&plan, true);
        let (mut never_crashed, _) = owned(&plan, false);
        assert_eq!(borrowed_counts, plan.expected, "seed {seed}: pump counts");
        assert_eq!(owned_counts, plan.expected, "seed {seed}: owned counts");
        assert_bitwise(
            &mut borrowed,
            &mut owned_fleet,
            &format!("seed {seed} (crash at {:?}), pump vs owned", plan.crash),
        );
        assert_bitwise(
            &mut borrowed,
            &mut never_crashed,
            &format!(
                "seed {seed} (crash at {:?}), recovered vs never crashed",
                plan.crash
            ),
        );
    }
}

/// A frame that fails several admission checks at once counts under
/// the first it fails, in the order route → stamp → sensor index,
/// through `pump` and `offer_frame` alike.
#[test]
fn a_frame_failing_several_checks_counts_under_the_first() {
    let bad = presets::khepera_system().sensor_count() as u32 + 3;
    let reading = |robot, tick| WireFrame::Reading {
        robot,
        sensor: bad,
        tick,
        values: vec![0.5, -0.25],
    };
    // The staging window is tick 2: stamp 0 is stale and 5 is future.
    let frames = [
        (
            reading(5_000, 0),
            Err(CoreError::UnknownRobot { robot: 5_000 }),
        ),
        (
            reading(5_001, 5),
            Err(CoreError::UnknownRobot { robot: 5_001 }),
        ),
        (
            reading(5_002, 2),
            Err(CoreError::UnknownRobot { robot: 5_002 }),
        ),
        (reading(42, 0), Ok(false)),
        (reading(9000, 5), Ok(false)),
        (
            reading(3, 2),
            Err(CoreError::UnknownSensor {
                robot: 3,
                sensor: bad as usize,
            }),
        ),
    ];
    let expected = Counts {
        accepted: 0,
        unknown_robot: 3,
        stale_stamp: 2,
        bad_frame: 1,
    };

    let mut owned_fleet = fleet();
    let _ = owned_fleet.step();
    let _ = owned_fleet.step();
    let mut owned_counts = Counts::default();
    for (frame, outcome) in &frames {
        let offered = owned_fleet.offer_frame(&frame.to_stamped().unwrap());
        assert_eq!(&offered, outcome, "{frame:?}");
        owned_counts.count(offered);
    }
    assert_eq!(owned_counts, expected, "offer_frame counts");

    let mut stream = vec![WireFrame::Hello {
        version: WIRE_VERSION,
    }];
    stream.extend((0..2).map(|tick| WireFrame::TickEnd { tick }));
    stream.extend(frames.iter().map(|(frame, _)| frame.clone()));
    stream.push(WireFrame::Bye);
    let mut pumped_fleet = fleet();
    let summary = pump(&encode(&stream)[..], &mut pumped_fleet).unwrap();
    assert!(summary.clean_shutdown);
    assert_eq!(Counts::of(&summary), expected, "pump counts");
    for fleet in [&owned_fleet, &pumped_fleet] {
        assert!(fleet.status().iter().all(|s| s.journal_frames == 0));
    }
}

/// A reading frame's payload offsets: kind (1), robot (8), sensor (4),
/// tick (8), then the `u32` value count at 21 and the values at 25.
const COUNT_AT: usize = 21;
const VALUES_AT: usize = 25;

fn reading(values: Vec<f64>) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_frame(
        &WireFrame::Reading {
            robot: 3,
            sensor: 1,
            tick: 0,
            values,
        },
        &mut bytes,
    );
    bytes
}

fn hello_then(bytes: &[u8]) -> Vec<u8> {
    let mut stream = Vec::new();
    encode_frame(
        &WireFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut stream,
    );
    stream.extend_from_slice(bytes);
    stream
}

fn corrupt_at(result: Result<impl std::fmt::Debug, WireError>) -> (usize, &'static str) {
    match result {
        Err(WireError::Corrupt { at, reason }) => (at, reason),
        other => panic!("expected a corrupt-frame error, got {other:?}"),
    }
}

#[test]
fn lying_float_counts_are_typed_errors_at_the_count() {
    for (claimed, actual) in [(3u32, 2usize), (u32::MAX, 2), (1 << 29, 0), (1, 2)] {
        let mut bytes = reading(vec![0.5; actual]);
        bytes[4 + COUNT_AT..4 + VALUES_AT].copy_from_slice(&claimed.to_le_bytes());
        let expected = if (claimed as usize) < actual {
            (
                VALUES_AT + 8 * claimed as usize,
                "trailing bytes after frame body",
            )
        } else {
            (VALUES_AT, "float array length exceeds input")
        };
        assert_eq!(corrupt_at(decode_frame(&bytes[4..])), expected);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bytes).unwrap();
        assert_eq!(corrupt_at(decoder.next_frame()), expected);
        let mut fleet = fleet();
        assert_eq!(
            corrupt_at(pump(&hello_then(&bytes)[..], &mut fleet)),
            expected
        );
        assert_eq!(fleet.status()[0].journal_frames, 0);
    }
}

#[test]
fn hostile_payloads_are_typed_errors_through_next_frame_and_pump() {
    let mut fleet = fleet();
    for seed in 0..400 {
        let mut rng = Rng::new(seed);
        let n = rng.below(6);
        let mut bytes = reading((0..n).map(|_| f64::from_bits(rng.next())).collect());
        match rng.below(3) {
            // Truncate the payload and fix up the prefix to match.
            0 => {
                let keep = 1 + rng.below(bytes.len() - 4 - 1);
                bytes.truncate(4 + keep);
                bytes[..4].copy_from_slice(&(keep as u32).to_le_bytes());
            }
            // Flip one bit anywhere, the length prefix included.
            1 => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            // Replace the value count with a random lie.
            _ => {
                let lie = rng.next() as u32 % 64;
                bytes[4 + COUNT_AT..4 + VALUES_AT].copy_from_slice(&lie.to_le_bytes());
            }
        }
        let typed = |e: &WireError| {
            matches!(
                e,
                WireError::Oversized { .. }
                    | WireError::UnknownKind { .. }
                    | WireError::Corrupt { .. }
            )
        };
        let mut decoder = FrameDecoder::new();
        match decoder.feed(&bytes) {
            Err(e) => assert!(typed(&e), "seed {seed}: {e}"),
            Ok(()) => match decoder.next_frame() {
                Ok(_) => {}
                Err(e) => assert!(typed(&e), "seed {seed}: {e}"),
            },
        }
        let connection = Fragments {
            bytes: hello_then(&bytes),
            at: 0,
            cuts: Rng::new(seed),
        };
        match pump(connection, &mut fleet) {
            Ok(summary) => assert!(!summary.clean_shutdown, "seed {seed}"),
            Err(e) => assert!(typed(&e), "seed {seed}: {e}"),
        }
    }
}
