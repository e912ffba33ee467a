//! External load generation for the sharded fleet service
//! (`DESIGN.md` §18): trace-driven wire producers.
//!
//! The sharded deployment splits roles across processes — simulation
//! (or a real bus bridge) *produces* stamped frames, the detection
//! service *consumes* them over a socket. This module is the producer
//! half: it replays recorded [`Trace`]s as the binary wire protocol,
//! one [`WireFrame::Input`] plus one [`WireFrame::Reading`] per sensor
//! per robot per tick, closing each tick with [`WireFrame::TickEnd`].
//! The frames carry each record's `planned_command` and `readings` bit
//! for bit. That command is the tracker's plan, not the bus-decoded
//! command the runner's own detector consumed, so a wire-fed service
//! does not reproduce the trace's reports. What is bitwise is the
//! service side: a service fed from this producer equals an in-process
//! fleet fed the same trace records whenever every frame lands on time
//! (pinned by `tests/shard_service.rs`).
//!
//! [`serve_traces_uds`] is the one-machine harness: producer thread on
//! one end of a Unix-domain socket, the caller's [`ShardedFleet`]
//! pumped on the other — the same byte stream a genuinely separate
//! process would send, without needing one in tests and benches.

use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;

use roboads_core::ShardedFleet;
use roboads_wire::{serve_uds, FrameWriter, ServeSummary, WireError, WireFrame};

use crate::trace::Trace;

/// Streams recorded traces over `sink` as wire frames: per tick, every
/// robot's `planned_command` and `readings`, bit for bit and stamped
/// with the tick, then the tick boundary; finally an orderly `Bye`. Robots are
/// `(global id, trace)` pairs; a robot whose trace is shorter than the
/// longest simply stops producing (its slots resolve by deadline
/// policy, exactly like a silent robot on a real bus).
///
/// # Errors
///
/// The sink's I/O failure.
pub fn stream_traces<W: Write>(robots: &[(u64, &Trace)], sink: W) -> Result<(), WireError> {
    let mut writer = FrameWriter::new(sink);
    let ticks = robots.iter().map(|(_, t)| t.len()).max().unwrap_or(0);
    for k in 0..ticks {
        let tick = k as u64;
        for (robot, trace) in robots {
            let Some(record) = trace.records().get(k) else {
                continue;
            };
            writer.send(&WireFrame::Input {
                robot: *robot,
                tick,
                values: record.planned_command.as_slice().to_vec(),
            });
            for (sensor, reading) in record.readings.iter().enumerate() {
                writer.send(&WireFrame::Reading {
                    robot: *robot,
                    sensor: sensor as u32,
                    tick,
                    values: reading.as_slice().to_vec(),
                });
            }
        }
        writer.send(&WireFrame::TickEnd { tick });
        // One flush per tick: the frame batch crosses the socket as a
        // handful of writes, mimicking a per-tick bus flush.
        writer.flush()?;
    }
    writer.finish()
}

/// One-machine wire session over a Unix-domain socket: binds `socket`,
/// spawns a producer thread streaming `robots`' traces, and pumps the
/// connection into `fleet` until `Bye`. Returns the service-side
/// summary (frames accepted/rejected, ticks stepped).
///
/// # Errors
///
/// Socket setup failures, producer I/O failures, or any protocol error
/// from the service-side pump.
pub fn serve_traces_uds(
    socket: &Path,
    robots: &[(u64, Trace)],
    fleet: &mut ShardedFleet,
) -> Result<ServeSummary, WireError> {
    // A stale socket file from a previous run would fail the bind.
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket)?;
    let producer_robots: Vec<(u64, Trace)> = robots.to_vec();
    let path = socket.to_path_buf();
    let producer = std::thread::spawn(move || -> Result<(), WireError> {
        let stream = UnixStream::connect(&path)?;
        let borrowed: Vec<(u64, &Trace)> = producer_robots.iter().map(|(id, t)| (*id, t)).collect();
        stream_traces(&borrowed, stream)
    });
    let summary = serve_uds(&listener, fleet);
    let produced = producer.join().expect("producer thread panicked");
    let _ = std::fs::remove_file(socket);
    produced?;
    summary
}
