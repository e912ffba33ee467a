//! Proves the service frame path allocation-free once warm: [`pump`]
//! decodes each frame in place, routes it and checks its stamp before
//! copying its values, stages accepted values into persistent buffers,
//! journals them into the shard's reused arena, and rewrites each
//! periodic snapshot into the previous one's buffer — so after one
//! snapshot period has grown every buffer, every tick performs **zero**
//! heap allocations, snapshot ticks and floods of stale replays, forged
//! robot ids and bad sensor indices included.
//!
//! A counting `#[global_allocator]` (as in `roboads-core`'s
//! `tests/alloc.rs`) keeps a thread-local allocation counter, and the
//! connection's [`Read`] impl samples it on every read, so the
//! allocations made while `pump` processes one read's bytes are the
//! difference between two consecutive samples.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;
use std::sync::Arc;

use roboads_core::{RoboAds, ShardConfig, ShardedFleet};
use roboads_linalg::Vector;
use roboads_models::presets;
use roboads_wire::{encode_frame, pump, WireFrame, WIRE_VERSION};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers all memory management to the system allocator; the
// added bookkeeping is a plain thread-local counter (`Cell<u64>` has a
// const initializer and no destructor, so bumping it cannot recurse
// into the allocator).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const ROBOTS: [u64; 6] = [3, 11, 42, 77, 9000, 1 << 33];
const PERIOD: u64 = 4;
const TICKS: u64 = 4 * PERIOD;

/// A connection that hands out prepared pieces, one per `read`, and
/// records the allocation counter each time `pump` asks for more.
struct SamplingReader {
    pieces: Vec<Vec<u8>>,
    next: usize,
    /// Counter value at each `read`; pre-sized so sampling never
    /// allocates.
    samples: Vec<u64>,
}

impl Read for SamplingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.samples.push(ALLOCATIONS.with(Cell::get));
        let Some(piece) = self.pieces.get(self.next) else {
            return Ok(0);
        };
        assert!(piece.len() <= buf.len(), "a piece must fit one read");
        buf[..piece.len()].copy_from_slice(piece);
        self.next += 1;
        Ok(piece.len())
    }
}

/// One tick's frames: every robot's command and readings in the window,
/// plus a stale replay, a forged robot id, a sensor index the robot
/// does not have and an in-window re-send per robot — the same counts
/// every tick, so the journal's growth per snapshot period is the same
/// too.
fn tick_frames(k: u64, u: &Vector, readings: &[Vector]) -> Vec<WireFrame> {
    let mut frames = Vec::new();
    for (i, &robot) in ROBOTS.iter().enumerate() {
        frames.push(WireFrame::Input {
            robot,
            tick: k,
            values: u.as_slice().to_vec(),
        });
        for (s, reading) in readings.iter().enumerate() {
            frames.push(WireFrame::Reading {
                robot,
                sensor: s as u32,
                tick: k,
                values: reading.as_slice().to_vec(),
            });
        }
        // Stale replay of the previous tick's first reading.
        frames.push(WireFrame::Reading {
            robot,
            sensor: 0,
            tick: k.wrapping_sub(1),
            values: readings[0].as_slice().to_vec(),
        });
        // A robot id no shard routes.
        frames.push(WireFrame::Input {
            robot: 1_000_000 + (k * 31 + i as u64) % 97,
            tick: k,
            values: u.as_slice().to_vec(),
        });
        // An in-window reading for a sensor the robot does not have.
        frames.push(WireFrame::Reading {
            robot,
            sensor: (readings.len() + i) as u32,
            tick: k,
            values: readings[0].as_slice().to_vec(),
        });
        // Re-send of the last reading (newest wins; journaled again).
        let last = readings.len() - 1;
        frames.push(WireFrame::Reading {
            robot,
            sensor: last as u32,
            tick: k,
            values: readings[last].as_slice().to_vec(),
        });
    }
    frames
}

#[test]
fn warmed_up_pump_is_allocation_free_on_every_tick() {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let factory = {
        let (system, x0) = (system.clone(), x0.clone());
        Arc::new(move |_id| RoboAds::with_defaults(system.clone(), x0.clone()))
    };
    let config = ShardConfig {
        shards: 1,
        threads_per_shard: 1,
        snapshot_period: PERIOD,
        steal_margin: 0,
    };
    let mut fleet = ShardedFleet::new(&ROBOTS, factory, config).unwrap();

    // Pieces: the Hello, then each tick cut mid-frame into two reads,
    // then the Bye.
    let mut pieces = Vec::new();
    let mut bytes = Vec::new();
    encode_frame(
        &WireFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut bytes,
    );
    pieces.push(bytes);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut x = x0;
    let mut frames_per_tick = 0;
    for k in 0..TICKS {
        x = system.dynamics().step(&x, &u);
        let readings: Vec<Vector> = (0..system.sensor_count())
            .map(|s| system.sensor(s).unwrap().measure(&x))
            .collect();
        let frames = tick_frames(k, &u, &readings);
        frames_per_tick = frames.len();
        let mut bytes = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut bytes);
        }
        encode_frame(&WireFrame::TickEnd { tick: k }, &mut bytes);
        let cut = bytes.len() / 2 + 3;
        pieces.push(bytes[..cut].to_vec());
        pieces.push(bytes[cut..].to_vec());
    }
    let mut bytes = Vec::new();
    encode_frame(&WireFrame::Bye, &mut bytes);
    pieces.push(bytes);

    let reads = pieces.len() + 1;
    let mut reader = SamplingReader {
        pieces,
        next: 0,
        samples: Vec::with_capacity(reads),
    };
    let summary = pump(&mut reader, &mut fleet).unwrap();

    let sensors = system.sensor_count() as u64;
    let robots = ROBOTS.len() as u64;
    assert!(summary.clean_shutdown);
    assert_eq!(summary.ticks, TICKS);
    assert_eq!(summary.step_errors, 0, "every robot is complete every tick");
    assert_eq!(summary.frames, TICKS * frames_per_tick as u64);
    assert_eq!(summary.accepted, TICKS * robots * (sensors + 2));
    assert_eq!(summary.stale_stamp, TICKS * robots);
    assert_eq!(summary.unknown_robot, TICKS * robots);
    assert_eq!(summary.bad_frame, TICKS * robots);
    assert_eq!(summary.rejected, 3 * TICKS * robots);

    // Piece p was processed between samples p and p + 1. Piece
    // 1 + 2k holds the first half of tick k, piece 2 + 2k the rest and
    // the TickEnd, whose step snapshots when tick k + 1 is a multiple of
    // the period.
    let during = |piece: usize| reader.samples[piece + 1] - reader.samples[piece];
    assert!(
        during(1) > 0,
        "counting allocator failed to observe the cold path"
    );
    let mut snapshot_ticks = 0;
    for k in PERIOD..TICKS {
        let first = 1 + 2 * k as usize;
        assert_eq!(during(first), 0, "tick {k}: frame path allocated");
        assert_eq!(
            during(first + 1),
            0,
            "tick {k}: frame path, step or snapshot allocated"
        );
        snapshot_ticks += usize::from((k + 1).is_multiple_of(PERIOD));
    }
    assert_eq!(snapshot_ticks, 3, "the warm ticks include snapshot ticks");
}
