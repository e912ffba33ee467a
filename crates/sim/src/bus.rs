//! CAN-like communication bus: the "communication module" of the
//! paper's Figure 1.
//!
//! Every sensing workflow publishes its planner-visible reading as a
//! fixed-point [`Frame`] each control iteration, and the planner's
//! monitor decodes the frames back into reading vectors — so the data
//! the detector consumes really does round-trip through the bus, as it
//! does on a vehicle. Frame payloads are nano-unit integers (CAN buses
//! carry integers, not floats); the quantization error of 0.5 nm is far
//! below every sensor noise floor.
//!
//! The bus also gives Table I's *packet injection* attacks a concrete
//! surface: an injected frame with a sensing workflow's arbitration id
//! displaces the authentic reading for that iteration, exactly like the
//! speedometer-packet injection of the Jeep/Ford attacks the paper
//! cites.

use roboads_linalg::Vector;

use crate::SimError;

/// Fixed-point scale: payload integers are nano-units (1e-9).
pub const PAYLOAD_SCALE: f64 = 1e-9;

/// Converts one reading component to a payload word, saturating what
/// the fixed-point range cannot express (see [`Frame::encode`]).
fn saturating_word(v: f64) -> i64 {
    let scaled = v / PAYLOAD_SCALE;
    if scaled.is_nan() {
        0
    } else if scaled >= i64::MAX as f64 {
        i64::MAX
    } else if scaled <= i64::MIN as f64 {
        i64::MIN
    } else {
        scaled.round() as i64
    }
}

/// Arbitration-id base for sensing workflows: sensor `i` publishes with
/// id `SENSOR_ID_BASE + i`.
pub const SENSOR_ID_BASE: u16 = 0x100;

/// Arbitration id for the planned-command frame.
pub const COMMAND_ID: u16 = 0x200;

/// One bus frame: an arbitration id, the publishing workflow's name and
/// a fixed-point payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Arbitration id (lower wins on a real CAN bus; here it only keys
    /// the consumer's lookup).
    pub id: u16,
    /// Publishing workflow, e.g. `"ips"`.
    pub source: String,
    /// Nano-unit payload words.
    pub payload: Vec<i64>,
    /// Control tick the frame belongs to, stamped by [`Bus::publish`]
    /// from the bus clock ([`Bus::begin_tick`]). Consumers use it to
    /// tell a fresh reading from a cached one — a frame can only claim
    /// an older tick, never a fresher one, so a delayed or replayed
    /// frame is detectable by its stamp.
    pub tick: u64,
    /// Bus-wide publish sequence number, stamped by [`Bus::publish`].
    /// Strictly increasing across the bus lifetime (it survives
    /// [`Bus::clear`]), so reordered frames within a tick are sortable
    /// and a forensic log line is globally identifiable.
    pub seq: u64,
}

impl Frame {
    /// Encodes a reading vector into a frame, **saturating** values the
    /// fixed-point range cannot express: ±∞ and out-of-range magnitudes
    /// clamp to `i64::MAX`/`i64::MIN` words, NaN encodes as `0` (a CAN
    /// transceiver has no NaN wire symbol — the corrupted producer puts
    /// *some* word on the wire, and a deterministic one keeps campaign
    /// trials reproducible).
    ///
    /// A corruption upstream of the encoder therefore yields an extreme
    /// — and very detectable — reading instead of aborting the whole
    /// simulation. Use [`Frame::try_encode`] to reject non-finite
    /// values with a typed error instead.
    pub fn encode(id: u16, source: impl Into<String>, reading: &Vector) -> Frame {
        let payload = reading
            .as_slice()
            .iter()
            .map(|&v| saturating_word(v))
            .collect();
        Frame {
            id,
            source: source.into(),
            payload,
            tick: 0,
            seq: 0,
        }
    }

    /// Encodes a reading vector, returning a typed error for any
    /// component the fixed-point payload cannot faithfully represent
    /// (NaN, ±∞, or magnitude at/beyond ±`i64::MAX` nano-units).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] naming the offending
    /// component; no frame is constructed.
    pub fn try_encode(
        id: u16,
        source: impl Into<String>,
        reading: &Vector,
    ) -> crate::Result<Frame> {
        for (i, &v) in reading.as_slice().iter().enumerate() {
            let scaled = v / PAYLOAD_SCALE;
            if !scaled.is_finite() || scaled.abs() >= i64::MAX as f64 {
                return Err(SimError::InvalidParameter {
                    name: "frame_payload",
                    value: format!("component {i} = {v} exceeds the bus fixed-point range"),
                });
            }
        }
        Ok(Frame::encode(id, source, reading))
    }

    /// Re-encodes `reading` into this frame's payload in place, with
    /// the same saturation as [`Frame::encode`], leaving id, source and
    /// stamps untouched — the man-in-the-middle rewrite primitive: to
    /// the consumer the frame still looks exactly like the authentic
    /// publisher's.
    pub fn set_payload_from(&mut self, reading: &Vector) {
        self.payload.clear();
        self.payload
            .extend(reading.as_slice().iter().map(|&v| saturating_word(v)));
    }

    /// Decodes the payload back to a reading vector.
    pub fn decode(&self) -> Vector {
        Vector::from_fn(self.payload.len(), |i| {
            self.payload[i] as f64 * PAYLOAD_SCALE
        })
    }
}

/// A single-iteration bus: workflows publish, the monitor drains.
///
/// Later frames with the same arbitration id displace earlier ones
/// (the consumer keeps the freshest value), which is what makes packet
/// injection effective.
///
/// # Example
///
/// ```
/// use roboads_linalg::Vector;
/// use roboads_sim::bus::{Bus, Frame, SENSOR_ID_BASE};
///
/// let mut bus = Bus::new();
/// bus.publish(Frame::encode(SENSOR_ID_BASE, "ips", &Vector::from_slice(&[1.0, 2.0, 0.3])));
/// let reading = bus.latest(SENSOR_ID_BASE).unwrap().decode();
/// assert!((reading[0] - 1.0).abs() < 1e-8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Bus {
    frames: Vec<Frame>,
    /// Current control tick of the bus clock (see [`Bus::begin_tick`]).
    tick: u64,
    /// Next publish sequence number; never reset, so frame identities
    /// stay unique across [`Bus::clear`] calls.
    next_seq: u64,
    /// Frames whose requested stamp claimed a tick *fresher* than the
    /// bus clock and were clamped to it (see [`Bus::publish_stamped`]).
    /// Survives [`Bus::clear`], like the clock itself.
    future_stamp_rejected: u64,
}

impl Bus {
    /// Creates an empty bus at tick 0.
    pub fn new() -> Self {
        Bus::default()
    }

    /// Advances the bus clock to `tick`. Frames published afterwards
    /// are stamped with it; frames already on the bus keep their older
    /// stamps, which is exactly what makes a dropped reading visible —
    /// the consumer's "latest" frame stops matching the current tick
    /// (see [`Bus::staleness`]).
    pub fn begin_tick(&mut self, tick: u64) {
        self.tick = tick;
    }

    /// The current bus-clock tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Publishes a frame (workflows and attackers alike), stamping it
    /// with the current tick and the next bus-wide sequence number.
    pub fn publish(&mut self, frame: Frame) {
        self.publish_stamped(frame, self.tick);
    }

    /// Publishes a frame carrying an *explicit* tick stamp — the fault
    /// injector's surface for delayed frames: a frame generated at tick
    /// `t` but delivered at tick `t+1` arrives stamped `t`, so a
    /// stamp-checking consumer rejects it as late instead of silently
    /// consuming last tick's data.
    ///
    /// A stamp claiming a tick *fresher* than the bus clock violates
    /// [`Frame::tick`]'s invariant ("a frame can only claim an older
    /// tick, never a fresher one") and is **clamped** to the current
    /// tick: the frame is delivered as what it physically is — a frame
    /// arriving now — and the forgery attempt is counted in
    /// [`Bus::future_stamps_rejected`]. Before this clamp a
    /// desynchronization attacker could pre-stamp tick `t + k` and have
    /// the forged frame become `latest_fresh` at tick `t + k` — a
    /// replay primitive — while [`Bus::staleness`]'s saturating
    /// subtraction silently reported it fresh.
    pub fn publish_stamped(&mut self, mut frame: Frame, tick: u64) {
        if tick > self.tick {
            self.future_stamp_rejected += 1;
            frame.tick = self.tick;
        } else {
            frame.tick = tick;
        }
        frame.seq = self.next_seq;
        self.next_seq += 1;
        self.frames.push(frame);
    }

    /// Number of publish attempts whose stamp claimed a future tick and
    /// was clamped to the bus clock (`bus.future_stamp_rejected` in
    /// forensic terms). Monotonic across [`Bus::clear`].
    pub fn future_stamps_rejected(&self) -> u64 {
        self.future_stamp_rejected
    }

    /// The newest frame carrying the given arbitration id, **regardless
    /// of age** — consumer-cache semantics. On a bus that retains
    /// frames across ticks this can silently return last tick's value
    /// for a dropped reading; staleness-aware consumers must check
    /// [`Bus::staleness`] or use [`Bus::latest_fresh`].
    pub fn latest(&self, id: u16) -> Option<&Frame> {
        self.frames.iter().rev().find(|f| f.id == id)
    }

    /// The newest frame with the given arbitration id stamped with the
    /// *current* tick — `None` when the reading was dropped or delayed
    /// this tick, even if an older frame is still cached.
    pub fn latest_fresh(&self, id: u16) -> Option<&Frame> {
        self.frames
            .iter()
            .rev()
            .find(|f| f.id == id && f.tick == self.tick)
    }

    /// Age of the newest frame with the given arbitration id, in ticks
    /// (`Some(0)` = fresh this tick); `None` when no frame with that id
    /// was ever seen.
    pub fn staleness(&self, id: u16) -> Option<u64> {
        self.latest(id).map(|f| self.tick.saturating_sub(f.tick))
    }

    /// All frames transmitted this iteration, in publish order (the
    /// forensic bus log).
    pub fn log(&self) -> &[Frame] {
        &self.frames
    }

    /// Mutable access to the transmitted frames — the man-in-the-middle
    /// surface: an attacker sitting on the wire rewrites payloads in
    /// place, leaving ids, stamps and publish order untouched (see
    /// [`crate::attacks`]).
    pub fn frames_mut(&mut self) -> &mut [Frame] {
        &mut self.frames
    }

    /// Drops every frame failing the predicate — the frame-trashing
    /// surface: a jamming attacker destroys selected frames in flight,
    /// so the consumer's fresh view for those ids goes empty this tick.
    pub fn retain(&mut self, f: impl FnMut(&Frame) -> bool) {
        self.frames.retain(f);
    }

    /// Number of frames transmitted.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing was transmitted.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Clears the frame log for the next control iteration. The bus
    /// clock and the sequence counter survive — identity and freshness
    /// bookkeeping outlive any single iteration's frames.
    pub fn clear(&mut self) {
        self.frames.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip_is_below_noise_floor() {
        let reading = Vector::from_slice(&[1.234_567_89, -0.000_123_456, 2.618_033_988]);
        let frame = Frame::encode(SENSOR_ID_BASE, "ips", &reading);
        let decoded = frame.decode();
        for i in 0..reading.len() {
            assert!(
                (decoded[i] - reading[i]).abs() <= PAYLOAD_SCALE / 2.0 + 1e-15,
                "component {i}: {} vs {}",
                decoded[i],
                reading[i]
            );
        }
    }

    #[test]
    fn latest_frame_wins_like_a_consumer_cache() {
        let mut bus = Bus::new();
        let authentic = Frame::encode(SENSOR_ID_BASE, "ips", &Vector::from_slice(&[1.0]));
        bus.publish(authentic);
        // Sensor packet injection (Table I): a forged frame with the
        // same id displaces the authentic reading.
        let forged = Frame::encode(SENSOR_ID_BASE, "attacker", &Vector::from_slice(&[9.0]));
        bus.publish(forged.clone());
        let latest = bus.latest(SENSOR_ID_BASE).unwrap();
        assert_eq!(latest.source, "attacker");
        assert_eq!(latest.payload, forged.payload);
        assert_eq!(bus.len(), 2); // the log keeps both for forensics
    }

    #[test]
    fn publish_stamps_tick_and_a_monotonic_sequence() {
        let mut bus = Bus::new();
        bus.begin_tick(4);
        bus.publish(Frame::encode(
            SENSOR_ID_BASE,
            "ips",
            &Vector::from_slice(&[1.0]),
        ));
        bus.publish(Frame::encode(
            COMMAND_ID,
            "planner",
            &Vector::from_slice(&[0.1]),
        ));
        let log = bus.log();
        assert_eq!(log[0].tick, 4);
        assert_eq!(log[1].tick, 4);
        assert_eq!(log[0].seq + 1, log[1].seq);
        // The sequence counter survives a per-iteration clear: frame
        // identities never repeat across ticks.
        bus.clear();
        bus.begin_tick(5);
        bus.publish(Frame::encode(
            SENSOR_ID_BASE,
            "ips",
            &Vector::from_slice(&[2.0]),
        ));
        assert_eq!(bus.log()[0].seq, 2);
        assert_eq!(bus.log()[0].tick, 5);
    }

    /// Regression for the consumer-cache staleness bug: [`Bus::latest`]
    /// happily returns last tick's frame after a drop, but the stamps
    /// now make the staleness queryable instead of silent.
    #[test]
    fn dropped_frame_is_reported_stale_not_silently_reused() {
        let mut bus = Bus::new();
        bus.begin_tick(0);
        bus.publish(Frame::encode(
            SENSOR_ID_BASE,
            "ips",
            &Vector::from_slice(&[1.0]),
        ));
        assert_eq!(bus.staleness(SENSOR_ID_BASE), Some(0));
        assert!(bus.latest_fresh(SENSOR_ID_BASE).is_some());

        // Next tick: the IPS frame is dropped (nothing published).
        bus.begin_tick(1);
        // The cache still serves the old frame — the original bug...
        assert!(bus.latest(SENSOR_ID_BASE).is_some());
        // ...but the staleness is now queryable, and the fresh view is
        // empty.
        assert_eq!(bus.staleness(SENSOR_ID_BASE), Some(1));
        assert!(bus.latest_fresh(SENSOR_ID_BASE).is_none());
        assert_eq!(bus.staleness(0x300), None, "never-seen id has no age");

        // A delayed frame delivered now but stamped for tick 0 is still
        // not fresh.
        bus.publish_stamped(
            Frame::encode(SENSOR_ID_BASE, "ips", &Vector::from_slice(&[2.0])),
            0,
        );
        assert!(bus.latest_fresh(SENSOR_ID_BASE).is_none());
        assert_eq!(bus.staleness(SENSOR_ID_BASE), Some(1));
    }

    #[test]
    fn ids_are_independent() {
        let mut bus = Bus::new();
        bus.publish(Frame::encode(
            SENSOR_ID_BASE,
            "ips",
            &Vector::from_slice(&[1.0]),
        ));
        bus.publish(Frame::encode(
            COMMAND_ID,
            "planner",
            &Vector::from_slice(&[0.05, 0.05]),
        ));
        assert_eq!(bus.latest(SENSOR_ID_BASE).unwrap().source, "ips");
        assert_eq!(bus.latest(COMMAND_ID).unwrap().payload.len(), 2);
        assert!(bus.latest(0x300).is_none());
    }

    #[test]
    fn clear_resets_for_the_next_iteration() {
        let mut bus = Bus::new();
        bus.publish(Frame::encode(
            SENSOR_ID_BASE,
            "ips",
            &Vector::from_slice(&[1.0]),
        ));
        assert!(!bus.is_empty());
        bus.clear();
        assert!(bus.is_empty());
        assert!(bus.latest(SENSOR_ID_BASE).is_none());
    }

    /// Regression for the non-finite-payload panic: `Frame::encode`
    /// used to `assert!(scaled.abs() < i64::MAX as f64)`, which is
    /// *false* for NaN and ±∞ — a corruption producing a non-finite
    /// reading aborted the whole simulation instead of putting a frame
    /// on the wire. Saturation keeps the trial running (and very
    /// detectable); `try_encode` offers the strict typed-error path.
    #[test]
    fn non_finite_and_overflow_values_saturate_instead_of_panicking() {
        let cases = [
            (f64::NAN, 0i64),
            (f64::INFINITY, i64::MAX),
            (f64::NEG_INFINITY, i64::MIN),
            (1e300, i64::MAX),  // finite overflow: +1e309 nano-units
            (-1e300, i64::MIN), // finite overflow, negative
        ];
        for (v, word) in cases {
            let frame = Frame::encode(SENSOR_ID_BASE, "ips", &Vector::from_slice(&[v, 1.0]));
            assert_eq!(frame.payload[0], word, "value {v}");
            assert_eq!(frame.payload[1], 1_000_000_000);
            // The decoded reading is finite (extreme, but steppable).
            assert!(frame.decode()[0].is_finite(), "value {v}");
            assert!(Frame::try_encode(SENSOR_ID_BASE, "ips", &Vector::from_slice(&[v])).is_err());
        }
        let ok = Frame::try_encode(SENSOR_ID_BASE, "ips", &Vector::from_slice(&[1.0, -2.0]));
        assert_eq!(ok.unwrap().payload, vec![1_000_000_000, -2_000_000_000]);
    }

    /// Regression for the future-stamp hole: `publish_stamped` accepted
    /// stamps fresher than the bus clock, so a desync attacker could
    /// pre-stamp tick `t + k` and the forged frame became `latest_fresh`
    /// at tick `t + k` while `staleness` reported it fresh all along.
    #[test]
    fn future_stamps_are_clamped_to_the_bus_clock_and_counted() {
        let mut bus = Bus::new();
        bus.begin_tick(10);
        bus.publish_stamped(
            Frame::encode(SENSOR_ID_BASE, "attacker", &Vector::from_slice(&[9.0])),
            15,
        );
        // The frame is delivered as what it is: a frame arriving *now*.
        let f = bus.latest(SENSOR_ID_BASE).unwrap();
        assert_eq!(f.tick, 10, "stamp clamped to the bus clock");
        assert_eq!(bus.staleness(SENSOR_ID_BASE), Some(0));
        assert_eq!(bus.future_stamps_rejected(), 1);

        // Advancing to the forged tick must NOT resurrect it as fresh —
        // the replay primitive this clamp kills.
        bus.begin_tick(15);
        assert!(bus.latest_fresh(SENSOR_ID_BASE).is_none());
        assert_eq!(bus.staleness(SENSOR_ID_BASE), Some(5));

        // Honest old stamps still pass through unclamped.
        bus.publish_stamped(
            Frame::encode(SENSOR_ID_BASE, "ips", &Vector::from_slice(&[1.0])),
            12,
        );
        assert_eq!(bus.latest(SENSOR_ID_BASE).unwrap().tick, 12);
        assert_eq!(bus.future_stamps_rejected(), 1, "no new clamp");
        // The counter survives clear, like the clock and sequence.
        bus.clear();
        assert_eq!(bus.future_stamps_rejected(), 1);
    }

    /// When every id published this tick, the staleness-aware fresh view
    /// and the legacy cache view agree frame-for-frame — the equality the
    /// runner's `latest` → `latest_fresh` migration relies on.
    #[test]
    fn fresh_view_equals_cache_view_when_all_frames_arrive() {
        let mut bus = Bus::new();
        bus.begin_tick(3);
        for i in 0..3u16 {
            bus.publish(Frame::encode(
                SENSOR_ID_BASE + i,
                "wf",
                &Vector::from_slice(&[i as f64]),
            ));
        }
        bus.publish(Frame::encode(
            COMMAND_ID,
            "planner",
            &Vector::from_slice(&[0.1, 0.2]),
        ));
        for id in [
            SENSOR_ID_BASE,
            SENSOR_ID_BASE + 1,
            SENSOR_ID_BASE + 2,
            COMMAND_ID,
        ] {
            assert_eq!(bus.latest(id), bus.latest_fresh(id));
        }
    }

    #[test]
    fn negative_and_angular_values_survive() {
        let reading = Vector::from_slice(&[-3.0, std::f64::consts::PI, -1e-6]);
        let decoded = Frame::encode(0x101, "enc", &reading).decode();
        assert!((decoded[0] + 3.0).abs() < 1e-8);
        assert!((decoded[1] - std::f64::consts::PI).abs() < 1e-8);
        assert!((decoded[2] + 1e-6).abs() < 1e-9);
    }
}
