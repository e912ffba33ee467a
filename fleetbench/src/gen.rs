//! Load generator: the seeded per-tick wire blocks, and the in-memory
//! reader that hands them to `pump` one tick at a time.
//!
//! The generator runs before timing starts: every tick's frames are
//! encoded into one byte block ending on `TickEnd`, so the timed loop
//! only copies bytes. The values on the wire are exactly the oracle's
//! inputs: each robot's planned command and bus-decoded readings from
//! its template trace.

use std::io::{self, Read};
use std::time::Instant;

use roboads::sim::{Trace, TraceRecord};
use roboads::stats::{Rng, SeedableRng, StdRng};
use roboads::wire::{encode_frame, WireFrame, WIRE_VERSION};

use crate::clock::{cpu_ms_since, thread_cpu_ns};
use crate::reference::Reference;
use crate::workload::{mix, Workload};

/// Robot ids of forged unknown-robot frames start here, far above any
/// fleet id.
pub const UNKNOWN_ID_BASE: u64 = 1 << 40;
/// Stale replays reach back at most this many closed ticks.
const STALE_REACH: usize = 8;
/// Keeps the flood's choices off the templates' seed stream.
const FLOOD_STREAM: u64 = 0xF100_D5EE_D000_0001;

/// A whole run's wire traffic, pre-encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// The `Hello` every connection opens with.
    pub hello: Vec<u8>,
    /// One block per tick; each ends on that tick's `TickEnd`.
    pub ticks: Vec<Vec<u8>>,
    /// Genuine data frames (one command plus one reading per sensor,
    /// per robot and tick).
    pub genuine: u64,
    /// Forged replays of already-closed ticks.
    pub stale: u64,
    /// Forged frames for robot ids outside the fleet.
    pub unknown: u64,
    /// Identical in-window re-sends of genuine frames.
    pub resent: u64,
    /// Wall time of `encode_frame` per encoded frame (load generator
    /// cost; outside the system under test).
    pub encode_ns_per_frame: f64,
}

impl Stream {
    /// Frames the service must reject: exactly the forged replays and
    /// unknown-robot frames.
    pub fn forged(&self) -> u64 {
        self.stale + self.unknown
    }
}

/// The genuine data frames of one robot for one tick: its planned
/// command, then one reading per sensor.
fn robot_frames(robot: u64, tick: u64, record: &TraceRecord) -> Vec<WireFrame> {
    let mut out = Vec::with_capacity(1 + record.readings.len());
    out.push(WireFrame::Input {
        robot,
        tick,
        values: record.planned_command.as_slice().to_vec(),
    });
    for (sensor, reading) in record.readings.iter().enumerate() {
        out.push(WireFrame::Reading {
            robot,
            sensor: sensor as u32,
            tick,
            values: reading.as_slice().to_vec(),
        });
    }
    out
}

fn pick(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Generates the run's stream. Robot `i` (id `ids[i]`) replays
/// `traces[workload.template_of(i)]`; the flood's choices come from
/// `seed`.
pub fn generate(workload: &Workload, traces: &[Trace], ids: &[u64], seed: u64) -> Stream {
    let ticks = traces[0].len();
    assert!(
        traces.iter().all(|t| t.len() == ticks),
        "templates must share one length"
    );
    let mut rng = StdRng::seed_from_u64(mix(seed ^ FLOOD_STREAM));
    let mut hello = Vec::new();
    encode_frame(
        &WireFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut hello,
    );
    let mut stream = Stream {
        hello,
        ticks: Vec::with_capacity(ticks),
        genuine: 0,
        stale: 0,
        unknown: 0,
        resent: 0,
        encode_ns_per_frame: 0.0,
    };
    let record = |i: usize, k: usize| &traces[workload.template_of(i)].records()[k];
    let mut encode_ns = 0u128;
    let mut encoded = 0u64;
    for k in 0..ticks {
        let tick = k as u64;
        let mut frames: Vec<WireFrame> = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            frames.extend(robot_frames(id, tick, record(i, k)));
        }
        stream.genuine += frames.len() as u64;
        if let Some(flood) = workload.flood {
            let genuine = frames.len();
            for (i, &id) in ids.iter().enumerate() {
                let own = robot_frames(id, tick, record(i, k));
                for _ in 0..flood.resend_per_robot {
                    frames.push(own[pick(&mut rng, own.len())].clone());
                    stream.resent += 1;
                }
                if k > 0 {
                    for _ in 0..flood.stale_per_robot {
                        let j = k - 1 - pick(&mut rng, k.min(STALE_REACH));
                        let old = robot_frames(id, j as u64, record(i, j));
                        frames.push(old[pick(&mut rng, old.len())].clone());
                        stream.stale += 1;
                    }
                }
            }
            for _ in 0..flood.unknown_per_tick {
                let mut frame = frames[pick(&mut rng, genuine)].clone();
                let stranger = UNKNOWN_ID_BASE + rng.next_u64() % (1 << 20);
                match &mut frame {
                    WireFrame::Input { robot, .. } | WireFrame::Reading { robot, .. } => {
                        *robot = stranger;
                    }
                    _ => unreachable!("genuine frames are data frames"),
                }
                frames.push(frame);
                stream.unknown += 1;
            }
            // Fisher-Yates: forged and genuine frames arrive interleaved.
            for a in (1..frames.len()).rev() {
                frames.swap(a, pick(&mut rng, a + 1));
            }
        }
        frames.push(WireFrame::TickEnd { tick });
        let mut block = Vec::new();
        let started = Instant::now();
        for frame in &frames {
            encode_frame(frame, &mut block);
        }
        encode_ns += started.elapsed().as_nanos();
        encoded += frames.len() as u64;
        stream.ticks.push(block);
    }
    stream.encode_ns_per_frame = encode_ns as f64 / encoded as f64;
    stream
}

/// An in-memory connection for `pump`: the `Hello`, then the blocks of
/// `ticks`, released one tick at a time — a `read` never crosses a tick
/// boundary. The first `read` of a tick runs the host-speed reference
/// kernel and then starts the tick's clocks (wall and on-CPU); the first
/// `read` after its `TickEnd` was handed over stops them, because `pump`
/// asks for more bytes only after stepping the fleet on that `TickEnd`.
/// After the last tick the reader reports end of stream.
#[derive(Debug)]
pub struct TickReader<'a> {
    reference: &'a mut Reference,
    hello: &'a [u8],
    blocks: &'a [Vec<u8>],
    /// Index into `blocks` of the tick being handed over.
    next: usize,
    /// Bytes of `blocks[next]` (or of `hello`, before the first tick)
    /// already handed over.
    pos: usize,
    greeted: bool,
    /// Wall clock, on-CPU nanoseconds and reference scale at the tick's
    /// first `read`.
    started: Option<(Instant, u64, f64)>,
    /// Per tick, in tick order: wall time and on-CPU time of the thread
    /// in milliseconds, and the reference kernel's scale factor.
    pub tick_ms: Vec<f64>,
    pub tick_cpu_ms: Vec<f64>,
    pub tick_scale: Vec<f64>,
}

impl<'a> TickReader<'a> {
    pub fn new(
        stream: &'a Stream,
        ticks: std::ops::Range<usize>,
        reference: &'a mut Reference,
    ) -> Self {
        TickReader {
            reference,
            hello: &stream.hello,
            blocks: &stream.ticks[ticks],
            next: 0,
            pos: 0,
            greeted: false,
            started: None,
            tick_ms: Vec::new(),
            tick_cpu_ms: Vec::new(),
            tick_scale: Vec::new(),
        }
    }

    /// Ticks whose reports `pump` has published.
    pub fn published(&self) -> usize {
        self.tick_ms.len()
    }
}

impl Read for TickReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.greeted {
            let n = buf.len().min(self.hello.len() - self.pos);
            buf[..n].copy_from_slice(&self.hello[self.pos..self.pos + n]);
            self.pos += n;
            if self.pos == self.hello.len() {
                self.greeted = true;
                self.pos = 0;
            }
            return Ok(n);
        }
        if let Some((started, cpu_start, scale)) = self.started {
            if self.pos == self.blocks[self.next].len() {
                self.tick_cpu_ms.push(cpu_ms_since(cpu_start));
                self.tick_ms.push(started.elapsed().as_secs_f64() * 1e3);
                self.tick_scale.push(scale);
                self.started = None;
                self.next += 1;
                self.pos = 0;
            }
        }
        let Some(block) = self.blocks.get(self.next) else {
            return Ok(0);
        };
        if self.started.is_none() {
            let scale = self.reference.scale();
            self.started = Some((Instant::now(), thread_cpu_ns(), scale));
        }
        let n = buf.len().min(block.len() - self.pos);
        buf[..n].copy_from_slice(&block[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboads::core::ShardedFleet;
    use roboads::wire::{pump, FrameDecoder};

    use crate::service::Bench;
    use crate::workload::Flood;

    const FLOOD: Flood = Flood {
        stale_per_robot: 3,
        unknown_per_tick: 5,
        resend_per_robot: 2,
    };

    /// A four-robot fleet replaying two templates; flooded on request.
    fn small(flood: bool, seed: u64) -> (Bench, Stream) {
        let mut workload = Workload::by_name("flood-recover-64").unwrap();
        workload.robots = 4;
        workload.templates = 2;
        workload.sets = 1;
        workload.flood = flood.then_some(FLOOD);
        let bench = Bench::prepare(workload, seed).unwrap();
        let stream = bench.stream(&bench.sets[0]);
        (bench, stream)
    }

    fn decode(block: &[u8]) -> Vec<WireFrame> {
        let mut decoder = FrameDecoder::new();
        decoder.feed(block).unwrap();
        let mut frames = Vec::new();
        while let Some(frame) = decoder.next_frame().unwrap() {
            frames.push(frame);
        }
        assert_eq!(decoder.pending(), 0, "a block holds whole frames only");
        frames
    }

    #[test]
    fn the_same_seed_gives_the_same_bytes_and_another_seed_other_bytes() {
        for flood in [false, true] {
            let (_, a) = small(flood, 7);
            let (_, b) = small(flood, 7);
            let (_, c) = small(flood, 8);
            assert_eq!(a.hello, b.hello);
            assert_eq!(a.ticks, b.ticks);
            assert_ne!(a.ticks, c.ticks);
        }
    }

    #[test]
    fn every_block_ends_on_its_tick_end() {
        let (bench, stream) = small(true, 3);
        assert_eq!(stream.ticks.len(), bench.ticks());
        for (k, block) in stream.ticks.iter().enumerate() {
            let frames = decode(block);
            assert_eq!(frames.last(), Some(&WireFrame::TickEnd { tick: k as u64 }));
            let boundaries = frames
                .iter()
                .filter(|f| matches!(f, WireFrame::TickEnd { .. }))
                .count();
            assert_eq!(boundaries, 1);
            assert!(!frames
                .iter()
                .any(|f| matches!(f, WireFrame::Hello { .. } | WireFrame::Bye)));
        }
    }

    #[test]
    fn flood_composition_counts_are_exact() {
        let (bench, stream) = small(true, 5);
        let robots = 4u64;
        let ticks = bench.ticks() as u64;
        let per_tick_genuine = robots * 4; // command + IPS, encoder, LiDAR
        assert_eq!(stream.genuine, per_tick_genuine * ticks);
        assert_eq!(
            stream.resent,
            FLOOD.resend_per_robot as u64 * robots * ticks
        );
        assert_eq!(
            stream.stale,
            FLOOD.stale_per_robot as u64 * robots * (ticks - 1)
        );
        assert_eq!(stream.unknown, FLOOD.unknown_per_tick as u64 * ticks);

        // Recount from the bytes: the stamp and id give away each forged
        // kind; in-window re-sends are exact duplicates.
        let (mut stale, mut unknown, mut current) = (0, 0, 0);
        for (k, block) in stream.ticks.iter().enumerate() {
            for frame in decode(block) {
                let Some(stamped) = frame.to_stamped() else {
                    continue;
                };
                if stamped.robot >= UNKNOWN_ID_BASE {
                    unknown += 1;
                    assert_eq!(stamped.tick, k as u64);
                } else if stamped.tick < k as u64 {
                    stale += 1;
                    assert!(stamped.tick + STALE_REACH as u64 >= k as u64);
                } else {
                    assert_eq!(stamped.tick, k as u64);
                    current += 1;
                }
            }
        }
        assert_eq!((stale, unknown), (stream.stale, stream.unknown));
        assert_eq!(current, stream.genuine + stream.resent);

        // The service rejects exactly the forged frames.
        let mut config = bench.workload.shard_config();
        config.snapshot_period = 0;
        let mut fleet = ShardedFleet::new(&bench.ids, bench.factory.clone(), config).unwrap();
        let summary = pump(
            TickReader::new(&stream, 0..stream.ticks.len(), &mut Reference::default()),
            &mut fleet,
        )
        .unwrap();
        assert_eq!(summary.rejected, stream.forged());
        assert_eq!(summary.accepted, stream.genuine + stream.resent);
        assert_eq!(summary.step_errors, 0);
    }

    #[test]
    fn the_reader_releases_exactly_one_tick_per_boundary() {
        let (_, stream) = small(false, 2);
        for buf_len in [7, 100, 1 << 20] {
            let mut reference = Reference::default();
            let mut reader = TickReader::new(&stream, 3..9, &mut reference);
            let mut buf = vec![0u8; buf_len];
            let mut hello = 0;
            let mut per_tick = vec![0usize; 6];
            loop {
                let before = reader.published();
                let n = reader.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                let after = reader.published();
                // A read publishes at most the tick before it, and only
                // once that tick's bytes were all handed over.
                assert!(after == before || after == before + 1);
                if hello < stream.hello.len() {
                    hello += n;
                    continue;
                }
                per_tick[after] += n;
                // Never more than one tick's bytes per read.
                assert!(per_tick[after] <= stream.ticks[3 + after].len());
            }
            assert_eq!(hello, stream.hello.len());
            let lens: Vec<usize> = stream.ticks[3..9].iter().map(Vec::len).collect();
            assert_eq!(per_tick, lens);
            assert_eq!(reader.published(), 6);
            assert_eq!(reader.read(&mut buf).unwrap(), 0);
        }
    }
}
