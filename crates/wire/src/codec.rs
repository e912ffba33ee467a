//! Frame codec: typed frames ⇄ length-prefixed bytes, plus the
//! incremental [`FrameDecoder`] that tolerates arbitrary read
//! fragmentation.

use roboads_core::StampedFrame;
use roboads_obs::wire::{self, ByteError, ByteReader};

/// Protocol version carried by [`WireFrame::Hello`]; the service side
/// rejects mismatches before accepting any data frame.
pub const WIRE_VERSION: u32 = 1;

/// Maximum payload (kind byte + body) of one frame. Generous for any
/// real sensor suite (a reading is tens of floats) while bounding what
/// a corrupt or hostile length prefix can demand.
pub const MAX_FRAME: usize = 1 << 20;

/// Frame kind tags (the first payload byte).
const KIND_HELLO: u8 = 0;
const KIND_READING: u8 = 1;
const KIND_INPUT: u8 = 2;
const KIND_TICK_END: u8 = 3;
const KIND_BYE: u8 = 4;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WireFrame {
    /// Stream opener: the producer's protocol version.
    Hello {
        /// Must equal [`WIRE_VERSION`].
        version: u32,
    },
    /// One robot's sensor reading for one tick (maps to
    /// [`roboads_core::ShardedFleet::offer`]).
    Reading {
        /// Global robot id.
        robot: u64,
        /// Sensing workflow index.
        sensor: u32,
        /// Tick stamp.
        tick: u64,
        /// Reading values (bit-exact).
        values: Vec<f64>,
    },
    /// One robot's planned actuator command for one tick (maps to
    /// [`roboads_core::ShardedFleet::offer_input`]).
    Input {
        /// Global robot id.
        robot: u64,
        /// Tick stamp.
        tick: u64,
        /// Command values (bit-exact).
        values: Vec<f64>,
    },
    /// Tick boundary: the service steps every shard.
    TickEnd {
        /// The tick that just closed.
        tick: u64,
    },
    /// Orderly end of stream.
    Bye,
}

impl WireFrame {
    /// Converts a data frame into the shard journal's unit; `None` for
    /// control frames (`Hello`/`TickEnd`/`Bye`).
    pub fn to_stamped(&self) -> Option<StampedFrame> {
        match self {
            WireFrame::Reading {
                robot,
                sensor,
                tick,
                values,
            } => Some(StampedFrame {
                robot: *robot,
                sensor: Some(*sensor),
                tick: *tick,
                values: values.clone(),
            }),
            WireFrame::Input {
                robot,
                tick,
                values,
            } => Some(StampedFrame {
                robot: *robot,
                sensor: None,
                tick: *tick,
                values: values.clone(),
            }),
            _ => None,
        }
    }

    /// Builds the data frame carrying `frame` over the wire.
    pub fn from_stamped(frame: &StampedFrame) -> WireFrame {
        match frame.sensor {
            Some(sensor) => WireFrame::Reading {
                robot: frame.robot,
                sensor,
                tick: frame.tick,
                values: frame.values.clone(),
            },
            None => WireFrame::Input {
                robot: frame.robot,
                tick: frame.tick,
                values: frame.values.clone(),
            },
        }
    }
}

/// A data frame's values as they sit in the payload: little-endian
/// `f64` bit patterns, 8 bytes each, borrowed from the decoder's
/// buffer. The bytes are unaligned, so this is a byte slice, not a
/// `&[f64]`; nothing is decoded until a caller asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameValues<'a> {
    /// A multiple of 8 bytes (validated by the parser).
    bytes: &'a [u8],
}

impl<'a> FrameValues<'a> {
    /// The values, decoded one at a time (bit-exact).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.bytes.chunks_exact(8).map(wire::f64_from_le)
    }
}

/// One protocol frame decoded in place: [`WireFrame`] with the values
/// left as borrowed bytes ([`FrameValues`]). The one parser behind
/// [`decode_frame`] and [`FrameDecoder::next_frame`]; the service's
/// [`crate::pump`] consumes views directly, so routing and the stamp
/// check see a frame before anything is copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameView<'a> {
    /// See [`WireFrame::Hello`].
    Hello {
        /// Must equal [`WIRE_VERSION`].
        version: u32,
    },
    /// See [`WireFrame::Reading`].
    Reading {
        /// Global robot id.
        robot: u64,
        /// Sensing workflow index.
        sensor: u32,
        /// Tick stamp.
        tick: u64,
        /// Reading values.
        values: FrameValues<'a>,
    },
    /// See [`WireFrame::Input`].
    Input {
        /// Global robot id.
        robot: u64,
        /// Tick stamp.
        tick: u64,
        /// Command values.
        values: FrameValues<'a>,
    },
    /// See [`WireFrame::TickEnd`].
    TickEnd {
        /// The tick that just closed.
        tick: u64,
    },
    /// See [`WireFrame::Bye`].
    Bye,
}

impl FrameView<'_> {
    /// The owned frame, values decoded.
    pub fn to_owned(self) -> WireFrame {
        match self {
            FrameView::Hello { version } => WireFrame::Hello { version },
            FrameView::Reading {
                robot,
                sensor,
                tick,
                values,
            } => WireFrame::Reading {
                robot,
                sensor,
                tick,
                values: values.iter().collect(),
            },
            FrameView::Input {
                robot,
                tick,
                values,
            } => WireFrame::Input {
                robot,
                tick,
                values: values.iter().collect(),
            },
            FrameView::TickEnd { tick } => WireFrame::TickEnd { tick },
            FrameView::Bye => WireFrame::Bye,
        }
    }
}

/// Typed decode failure. Every malformed input maps here — the codec
/// never panics and never allocates more than the bytes actually
/// received.
#[derive(Debug)]
pub enum WireError {
    /// A length prefix demanded more than [`MAX_FRAME`] payload bytes.
    Oversized {
        /// The demanded payload length.
        len: usize,
    },
    /// An unknown frame-kind byte.
    UnknownKind {
        /// The offending kind tag.
        kind: u8,
    },
    /// A payload that does not parse as its kind's body (truncated
    /// body, trailing bytes, malformed field).
    Corrupt {
        /// Byte offset within the payload.
        at: usize,
        /// What failed.
        reason: &'static str,
    },
    /// The peer opened with an unsupported protocol version.
    Version {
        /// The version the peer sent.
        found: u32,
    },
    /// Underlying socket failure.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME}")
            }
            WireError::UnknownKind { kind } => write!(f, "unknown frame kind {kind}"),
            WireError::Corrupt { at, reason } => {
                write!(f, "corrupt frame payload at byte {at}: {reason}")
            }
            WireError::Version { found } => {
                write!(
                    f,
                    "unsupported wire version {found} (expected {WIRE_VERSION})"
                )
            }
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ByteError> for WireError {
    fn from(e: ByteError) -> Self {
        WireError::Corrupt {
            at: e.at,
            reason: e.reason,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Appends `frame` as one length-prefixed wire frame.
pub fn encode_frame(frame: &WireFrame, out: &mut Vec<u8>) {
    let prefix_at = out.len();
    wire::put_u32(out, 0); // length back-patched below
    match frame {
        WireFrame::Hello { version } => {
            wire::put_u8(out, KIND_HELLO);
            wire::put_u32(out, *version);
        }
        WireFrame::Reading {
            robot,
            sensor,
            tick,
            values,
        } => {
            wire::put_u8(out, KIND_READING);
            wire::put_u64(out, *robot);
            wire::put_u32(out, *sensor);
            wire::put_u64(out, *tick);
            wire::put_f64_slice(out, values);
        }
        WireFrame::Input {
            robot,
            tick,
            values,
        } => {
            wire::put_u8(out, KIND_INPUT);
            wire::put_u64(out, *robot);
            wire::put_u64(out, *tick);
            wire::put_f64_slice(out, values);
        }
        WireFrame::TickEnd { tick } => {
            wire::put_u8(out, KIND_TICK_END);
            wire::put_u64(out, *tick);
        }
        WireFrame::Bye => {
            wire::put_u8(out, KIND_BYE);
        }
    }
    let payload = (out.len() - prefix_at - 4) as u32;
    out[prefix_at..prefix_at + 4].copy_from_slice(&payload.to_le_bytes());
}

/// Decodes one complete payload (the bytes *after* the length prefix).
///
/// # Errors
///
/// As [`decode_view`].
pub fn decode_frame(payload: &[u8]) -> Result<WireFrame, WireError> {
    decode_view(payload).map(FrameView::to_owned)
}

/// Decodes one complete payload in place, borrowing the value bytes.
/// Every field is validated here — a value count the payload cannot
/// back is an error before any value is read.
///
/// # Errors
///
/// [`WireError::UnknownKind`] or [`WireError::Corrupt`] (truncated
/// body, trailing bytes, malformed field).
pub fn decode_view(payload: &[u8]) -> Result<FrameView<'_>, WireError> {
    let mut rd = ByteReader::new(payload);
    let kind = rd.u8()?;
    let view = match kind {
        KIND_HELLO => FrameView::Hello { version: rd.u32()? },
        KIND_READING => FrameView::Reading {
            robot: rd.u64()?,
            sensor: rd.u32()?,
            tick: rd.u64()?,
            values: FrameValues {
                bytes: rd.f64_bytes()?,
            },
        },
        KIND_INPUT => FrameView::Input {
            robot: rd.u64()?,
            tick: rd.u64()?,
            values: FrameValues {
                bytes: rd.f64_bytes()?,
            },
        },
        KIND_TICK_END => FrameView::TickEnd { tick: rd.u64()? },
        KIND_BYE => FrameView::Bye,
        kind => return Err(WireError::UnknownKind { kind }),
    };
    if !rd.is_empty() {
        return Err(WireError::Corrupt {
            at: rd.position(),
            reason: "trailing bytes after frame body",
        });
    }
    Ok(view)
}

/// Incremental decoder over an arbitrarily-fragmented byte stream.
///
/// Feed whatever the socket yields — single bytes, half frames, many
/// frames at once — and drain complete frames with
/// [`FrameDecoder::next_view`] (borrowed, allocation-free) or
/// [`FrameDecoder::next_frame`] (owned). Partial input is simply *pending*
/// (`Ok(None)`), never an error; errors are reserved for genuinely
/// malformed streams and are fatal to the decoder.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically so the
    /// buffer never grows past one frame plus one read's worth of
    /// bytes.
    pos: usize,
}

impl FrameDecoder {
    /// A fresh decoder with no buffered bytes.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Buffers more stream bytes. Rejects input early when a pending
    /// length prefix already demands more than [`MAX_FRAME`] — the
    /// buffer holds only received bytes, so a hostile prefix can never
    /// reserve memory it hasn't paid for.
    pub fn feed(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
        if let Some(len) = self.pending_len() {
            if len > MAX_FRAME {
                return Err(WireError::Oversized { len });
            }
        }
        Ok(())
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn pending_len(&self) -> Option<usize> {
        let rest = &self.buf[self.pos..];
        if rest.len() < 4 {
            return None;
        }
        let mut prefix = [0u8; 4];
        prefix.copy_from_slice(&rest[..4]);
        Some(u32::from_le_bytes(prefix) as usize)
    }

    /// The next complete frame, or `Ok(None)` while one is still
    /// partial.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next_view`].
    pub fn next_frame(&mut self) -> Result<Option<WireFrame>, WireError> {
        Ok(self.next_view()?.map(FrameView::to_owned))
    }

    /// The next complete frame decoded in place ([`decode_view`]),
    /// borrowing the decoder's buffer until the next call, or `Ok(None)`
    /// while one is still partial. Consumed bytes are compacted away by
    /// the next [`FrameDecoder::feed`].
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] on a hostile length prefix, else the
    /// payload's [`decode_view`] error. Decode errors are fatal — a
    /// byte stream has no frame boundaries to resynchronize on.
    pub fn next_view(&mut self) -> Result<Option<FrameView<'_>>, WireError> {
        let Some(len) = self.pending_len() else {
            return Ok(None);
        };
        if len > MAX_FRAME {
            return Err(WireError::Oversized { len });
        }
        let start = self.pos + 4;
        if self.buf.len() < start + len {
            return Ok(None);
        }
        let view = decode_view(&self.buf[start..start + len])?;
        self.pos = start + len;
        Ok(Some(view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<WireFrame> {
        vec![
            WireFrame::Hello {
                version: WIRE_VERSION,
            },
            WireFrame::Input {
                robot: 7,
                tick: 3,
                values: vec![0.05, -0.125],
            },
            WireFrame::Reading {
                robot: 7,
                sensor: 2,
                tick: 3,
                values: vec![1.5, f64::NAN, -0.0, f64::MIN_POSITIVE],
            },
            WireFrame::TickEnd { tick: 3 },
            WireFrame::Bye,
        ]
    }

    /// Bit-level frame equality: `PartialEq` on `f64` treats NaN as
    /// unequal, but the wire contract is bitwise.
    fn frames_bitwise_eq(a: &WireFrame, b: &WireFrame) -> bool {
        fn bits(values: &[f64]) -> Vec<u64> {
            values.iter().map(|v| v.to_bits()).collect()
        }
        match (a, b) {
            (
                WireFrame::Reading {
                    robot: r1,
                    sensor: s1,
                    tick: t1,
                    values: v1,
                },
                WireFrame::Reading {
                    robot: r2,
                    sensor: s2,
                    tick: t2,
                    values: v2,
                },
            ) => r1 == r2 && s1 == s2 && t1 == t2 && bits(v1) == bits(v2),
            (
                WireFrame::Input {
                    robot: r1,
                    tick: t1,
                    values: v1,
                },
                WireFrame::Input {
                    robot: r2,
                    tick: t2,
                    values: v2,
                },
            ) => r1 == r2 && t1 == t2 && bits(v1) == bits(v2),
            _ => a == b,
        }
    }

    #[test]
    fn frames_roundtrip_bitwise() {
        for frame in sample_frames() {
            let mut bytes = Vec::new();
            encode_frame(&frame, &mut bytes);
            let decoded = decode_frame(&bytes[4..]).unwrap();
            assert!(
                frames_bitwise_eq(&frame, &decoded),
                "{frame:?} != {decoded:?}"
            );
        }
    }

    #[test]
    fn decoder_reassembles_byte_by_byte() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut stream);
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for byte in stream {
            decoder.feed(&[byte]).unwrap();
            while let Some(frame) = decoder.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded.len(), frames.len());
        for (a, b) in frames.iter().zip(&decoded) {
            assert!(frames_bitwise_eq(a, b));
        }
        assert_eq!(decoder.pending(), 0);
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let mut decoder = FrameDecoder::new();
        let prefix = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(matches!(
            decoder.feed(&prefix),
            Err(WireError::Oversized { .. })
        ));
        // Only the four received bytes are buffered.
        assert_eq!(decoder.pending(), 4);
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_corrupt() {
        assert!(matches!(
            decode_frame(&[200]),
            Err(WireError::UnknownKind { kind: 200 })
        ));
        let mut bytes = Vec::new();
        encode_frame(&WireFrame::Bye, &mut bytes);
        let mut payload = bytes[4..].to_vec();
        payload.push(0);
        assert!(matches!(
            decode_frame(&payload),
            Err(WireError::Corrupt { .. })
        ));
        assert!(matches!(decode_frame(&[]), Err(WireError::Corrupt { .. })));
    }

    #[test]
    fn stamped_conversion_roundtrips() {
        let frames = sample_frames();
        for frame in &frames {
            match frame.to_stamped() {
                Some(stamped) => {
                    let back = WireFrame::from_stamped(&stamped);
                    assert!(frames_bitwise_eq(frame, &back));
                }
                None => assert!(matches!(
                    frame,
                    WireFrame::Hello { .. } | WireFrame::TickEnd { .. } | WireFrame::Bye
                )),
            }
        }
    }
}
