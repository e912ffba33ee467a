//! Property suite for the wire codec: randomized (deterministically
//! seeded) adversarial inputs — truncations, corruptions, oversized
//! length prefixes, interleaved partial reads — must all surface as
//! typed [`WireError`]s or pending states, never a panic and never an
//! allocation driven by an unreceived length prefix.
//!
//! Draws from the shared seeded generator (`tests/support/seeded.rs`),
//! each test from a fixed raw generator state.

use roboads_wire::{
    decode_frame, encode_frame, FrameDecoder, WireError, WireFrame, MAX_FRAME, WIRE_VERSION,
};

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::Rng;

/// This suite's draws on the shared generator.
trait Draw {
    /// A value from 64 raw bits: exercises NaNs, infinities,
    /// subnormals.
    fn f64(&mut self) -> f64;
}

impl Draw for Rng {
    fn f64(&mut self) -> f64 {
        f64::from_bits(self.next())
    }
}

fn random_frame(rng: &mut Rng) -> WireFrame {
    let values: Vec<f64> = (0..rng.below(9)).map(|_| rng.f64()).collect();
    match rng.below(5) {
        0 => WireFrame::Hello {
            version: rng.next() as u32,
        },
        1 => WireFrame::Reading {
            robot: rng.next(),
            sensor: rng.next() as u32,
            tick: rng.next(),
            values,
        },
        2 => WireFrame::Input {
            robot: rng.next(),
            tick: rng.next(),
            values,
        },
        3 => WireFrame::TickEnd { tick: rng.next() },
        _ => WireFrame::Bye,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn frames_bitwise_eq(a: &WireFrame, b: &WireFrame) -> bool {
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
fn random_frames_survive_random_fragmentation() {
    let mut rng = Rng::from_state(0x1234_5678_9abc_def1);
    for _case in 0..200 {
        let frames: Vec<WireFrame> = (0..1 + rng.below(12))
            .map(|_| random_frame(&mut rng))
            .collect();
        let mut stream = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut stream);
        }
        // Interleaved partial reads: deliver the stream in random-sized
        // chunks (including empty ones), draining after every feed.
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut at = 0;
        while at < stream.len() {
            let n = rng.below(17).min(stream.len() - at);
            decoder.feed(&stream[at..at + n]).unwrap();
            at += n;
            while let Some(frame) = decoder.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded.len(), frames.len());
        for (a, b) in frames.iter().zip(&decoded) {
            assert!(frames_bitwise_eq(a, b), "{a:?} != {b:?}");
        }
        assert_eq!(decoder.pending(), 0);
    }
}

#[test]
fn every_truncation_is_pending_and_completable() {
    let mut rng = Rng::from_state(0xfeed_beef_0000_0001);
    let mut stream = Vec::new();
    let frame = random_frame(&mut rng);
    encode_frame(&frame, &mut stream);
    for cut in 0..stream.len() {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&stream[..cut]).unwrap();
        assert!(
            decoder.next_frame().unwrap().is_none(),
            "truncation at {cut} yielded a frame"
        );
        // The missing tail completes the frame — no state was lost.
        decoder.feed(&stream[cut..]).unwrap();
        let completed = decoder.next_frame().unwrap().expect("completed frame");
        assert!(frames_bitwise_eq(&frame, &completed));
    }
}

#[test]
fn corrupt_bytes_are_typed_errors_or_valid_frames_never_panics() {
    let mut rng = Rng::from_state(0xc0ff_ee00_dead_0005);
    for _case in 0..500 {
        let mut stream = Vec::new();
        encode_frame(&random_frame(&mut rng), &mut stream);
        // Flip one random byte. Depending on where it lands this may
        // still be a valid frame (a value bit), a short/long prefix, a
        // bad kind, or a malformed body — all must decode or error
        // cleanly.
        let at = rng.below(stream.len());
        stream[at] ^= (1 << rng.below(8)) as u8;
        let mut decoder = FrameDecoder::new();
        let fed = decoder.feed(&stream);
        if fed.is_err() {
            continue; // oversized prefix caught at feed time
        }
        match decoder.next_frame() {
            Ok(_) => {}
            Err(
                WireError::Oversized { .. }
                | WireError::UnknownKind { .. }
                | WireError::Corrupt { .. },
            ) => {}
            Err(other) => panic!("unexpected error class: {other}"),
        }
    }
}

#[test]
fn garbage_streams_never_panic_or_overallocate() {
    let mut rng = Rng::from_state(0x0bad_cafe_1111_2222);
    for _case in 0..300 {
        let garbage: Vec<u8> = (0..rng.below(256)).map(|_| rng.next() as u8).collect();
        let mut decoder = FrameDecoder::new();
        if decoder.feed(&garbage).is_err() {
            continue;
        }
        loop {
            match decoder.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => break,
            }
        }
        // The decoder holds at most what it was fed — a length prefix
        // never reserves memory.
        assert!(decoder.pending() <= garbage.len());
    }
}

#[test]
fn oversized_prefix_never_reserves_payload_memory() {
    for len in [MAX_FRAME + 1, u32::MAX as usize, (1 << 31) + 7] {
        let mut decoder = FrameDecoder::new();
        let err = decoder.feed(&(len as u32).to_le_bytes()).unwrap_err();
        assert!(matches!(err, WireError::Oversized { len: l } if l == len));
        assert_eq!(decoder.pending(), 4, "only received bytes are buffered");
    }
}

#[test]
fn decode_frame_handles_all_short_payloads() {
    // Every prefix of every valid frame's payload must be a typed
    // error (kinds with bodies) or a valid frame (Bye's empty body).
    let mut rng = Rng::from_state(42);
    for _case in 0..50 {
        let mut bytes = Vec::new();
        encode_frame(&random_frame(&mut rng), &mut bytes);
        let payload = &bytes[4..];
        for cut in 0..payload.len() {
            let _ = decode_frame(&payload[..cut]); // must not panic
        }
    }
    assert!(decode_frame(&[])
        .unwrap_err()
        .to_string()
        .contains("corrupt"));
}

#[test]
fn hello_version_constant_is_stable() {
    // The wire format is a cross-process contract: a version bump must
    // be deliberate, so pin it.
    assert_eq!(WIRE_VERSION, 1);
    let mut bytes = Vec::new();
    encode_frame(
        &WireFrame::Hello {
            version: WIRE_VERSION,
        },
        &mut bytes,
    );
    assert_eq!(bytes, vec![5, 0, 0, 0, 0, 1, 0, 0, 0]);
}
