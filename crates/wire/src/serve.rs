//! Socket plumbing: a buffered frame writer for producers and the
//! service-side pump that feeds a [`ShardedFleet`] from a byte stream.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;

use roboads_core::{CoreError, ShardedFleet};

use crate::codec::{encode_frame, FrameDecoder, FrameView, WireError, WireFrame, WIRE_VERSION};

/// Buffered frame writer: the producer half of the protocol. Frames
/// accumulate in one buffer and hit the socket on [`FrameWriter::flush`]
/// (or drop), so a tick's worth of frames usually travels as one write.
#[derive(Debug)]
pub struct FrameWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps a sink and queues the opening [`WireFrame::Hello`].
    pub fn new(inner: W) -> Self {
        let mut writer = FrameWriter {
            inner,
            buf: Vec::with_capacity(4096),
        };
        writer.send(&WireFrame::Hello {
            version: WIRE_VERSION,
        });
        writer
    }

    /// Queues one frame (buffered; nothing touches the socket yet).
    pub fn send(&mut self, frame: &WireFrame) {
        encode_frame(frame, &mut self.buf);
    }

    /// Writes every queued frame to the underlying sink.
    ///
    /// # Errors
    ///
    /// The sink's I/O error; queued bytes are retained for retry.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.inner.write_all(&self.buf)?;
        self.buf.clear();
        self.inner.flush()?;
        Ok(())
    }

    /// Queues [`WireFrame::Bye`] and flushes.
    ///
    /// # Errors
    ///
    /// The sink's I/O error.
    pub fn finish(mut self) -> Result<(), WireError> {
        self.send(&WireFrame::Bye);
        self.flush()
    }
}

/// Outcome of one pumped connection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Data frames decoded (readings + inputs).
    pub frames: u64,
    /// Data frames accepted into a staging window.
    pub accepted: u64,
    /// Data frames rejected: the sum of `unknown_robot`, `stale_stamp`
    /// and `bad_frame`.
    pub rejected: u64,
    /// Rejected because no shard routes the frame's robot id.
    pub unknown_robot: u64,
    /// Rejected because the stamp did not match the staging window (a
    /// late replay, or a stamp from the future).
    pub stale_stamp: u64,
    /// Rejected in-window frames naming a sensor index the robot does
    /// not have.
    pub bad_frame: u64,
    /// Tick boundaries crossed.
    pub ticks: u64,
    /// Ticks whose batch step reported a detection-level error (the
    /// verdicts stay queryable per robot; the stream keeps flowing).
    pub step_errors: u64,
    /// Whether the producer closed with an orderly [`WireFrame::Bye`].
    pub clean_shutdown: bool,
}

impl ServeSummary {
    /// Counts one data frame's offer outcome under its reason.
    fn count(&mut self, offered: roboads_core::Result<bool>) {
        self.frames += 1;
        let reason = match offered {
            Ok(true) => {
                self.accepted += 1;
                return;
            }
            Ok(false) => &mut self.stale_stamp,
            Err(CoreError::UnknownRobot { .. }) => &mut self.unknown_robot,
            Err(_) => &mut self.bad_frame,
        };
        *reason += 1;
        self.rejected += 1;
    }
}

/// Pumps one byte stream into the fleet until `Bye` or EOF: data
/// frames stage via [`ShardedFleet::offer_slice`], every
/// [`WireFrame::TickEnd`] steps all shards. The stream must open with
/// a matching [`WireFrame::Hello`].
///
/// Frames are viewed in place ([`FrameDecoder::next_view`]), and the
/// fleet admits each data frame from its header alone: it routes the
/// robot, checks the stamp, then the sensor index. Only an admitted
/// frame's values are decoded, straight into its robot's staging
/// buffer, from which the shard's journal copies them; a rejected
/// frame's value bytes are never read. Once the decoder, the staging
/// buffers and the shard journals are warm, no tick allocates.
///
/// Detection-level step errors (a missed deadline, a robot's numeric
/// failure) are *not* protocol errors: they are counted in the summary
/// and the pump continues, exactly as an in-process driver would keep
/// ticking. Rejected data frames drop the frame, not the connection,
/// and are counted by reason.
///
/// # Errors
///
/// [`WireError`] on protocol violations: bad version, malformed or
/// oversized frames, data before `Hello`, or socket failures.
pub fn pump<R: Read>(mut stream: R, fleet: &mut ShardedFleet) -> Result<ServeSummary, WireError> {
    const BEFORE_HELLO: WireError = WireError::Corrupt {
        at: 0,
        reason: "data frame before Hello",
    };
    let mut decoder = FrameDecoder::new();
    let mut summary = ServeSummary::default();
    let mut greeted = false;
    let mut chunk = [0u8; 8192];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Ok(summary); // EOF without Bye: summary says so
        }
        decoder.feed(&chunk[..n])?;
        while let Some(view) = decoder.next_view()? {
            let (robot, sensor, tick, frame_values) = match view {
                FrameView::Hello { version } => {
                    if version != WIRE_VERSION {
                        return Err(WireError::Version { found: version });
                    }
                    greeted = true;
                    continue;
                }
                FrameView::Bye => {
                    summary.clean_shutdown = true;
                    return Ok(summary);
                }
                FrameView::TickEnd { .. } => {
                    if !greeted {
                        return Err(BEFORE_HELLO);
                    }
                    summary.ticks += 1;
                    if fleet.step().is_err() {
                        summary.step_errors += 1;
                    }
                    continue;
                }
                FrameView::Reading {
                    robot,
                    sensor,
                    tick,
                    values,
                } => (robot, Some(sensor), tick, values),
                FrameView::Input {
                    robot,
                    tick,
                    values,
                } => (robot, None, tick, values),
            };
            if !greeted {
                return Err(BEFORE_HELLO);
            }
            summary.count(fleet.offer_slice(robot, sensor, tick, frame_values.iter()));
        }
    }
}

/// Accepts **one** connection on an already-bound TCP listener and
/// pumps it to completion. The single-connection shape matches the
/// deployment: one load generator (or bus bridge) per service process.
///
/// # Errors
///
/// Accept/socket failures or any [`pump`] protocol error.
pub fn serve_tcp(
    listener: &TcpListener,
    fleet: &mut ShardedFleet,
) -> Result<ServeSummary, WireError> {
    let (stream, _addr) = listener.accept()?;
    pump(stream, fleet)
}

/// Accepts **one** connection on an already-bound Unix-domain listener
/// and pumps it to completion (see [`serve_tcp`]).
///
/// # Errors
///
/// Accept/socket failures or any [`pump`] protocol error.
pub fn serve_uds(
    listener: &UnixListener,
    fleet: &mut ShardedFleet,
) -> Result<ServeSummary, WireError> {
    let (stream, _addr) = listener.accept()?;
    pump(stream, fleet)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_buffers_until_flush() {
        let mut sink = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut sink);
            writer.send(&WireFrame::TickEnd { tick: 0 });
            writer.flush().unwrap();
        }
        let mut decoder = FrameDecoder::new();
        decoder.feed(&sink).unwrap();
        assert!(matches!(
            decoder.next_frame().unwrap(),
            Some(WireFrame::Hello {
                version: WIRE_VERSION
            })
        ));
        assert!(matches!(
            decoder.next_frame().unwrap(),
            Some(WireFrame::TickEnd { tick: 0 })
        ));
        assert!(decoder.next_frame().unwrap().is_none());
    }
}
