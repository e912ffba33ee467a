//! Binary wire front-end for the sharded fleet service (`DESIGN.md`
//! §18).
//!
//! Moves load generation out of the detection process: a producer
//! (e.g. `roboads-sim`'s external runner) serializes each robot's
//! stamped sensor/command frames into a length-prefixed binary stream,
//! and the service side decodes them in place ([`FrameView`]) straight
//! into [`roboads_core::ShardedFleet::offer_slice`], crossing the tick
//! boundary on every `TickEnd` marker. Floats travel as
//! `f64::to_bits`, so a wire-fed run is bitwise identical to the
//! in-process sync path whenever every frame arrives on time.
//!
//! # Framing
//!
//! ```text
//! [u32 LE payload_len][u8 kind][body…]      payload_len = 1 + body len
//! ```
//!
//! The prefix counts the *payload* (kind byte included). Payloads are
//! capped at [`MAX_FRAME`]; the decoder never allocates from the
//! prefix — only bytes actually received are buffered — so a hostile
//! length cannot balloon memory, and every malformed input surfaces as
//! a typed [`WireError`], never a panic.
//!
//! The codec is hand-rolled over [`roboads_obs::wire`] (the same
//! lossless primitives the flight recorder and snapshots use).

mod codec;
mod serve;

pub use codec::{
    decode_frame, decode_view, encode_frame, FrameDecoder, FrameValues, FrameView, WireError,
    WireFrame, MAX_FRAME, WIRE_VERSION,
};
pub use serve::{pump, serve_tcp, serve_uds, FrameWriter, ServeSummary};
