//! Bus-level attack library: Table I's packet-injection surface as
//! composable monitor-seam attacks.
//!
//! The misbehavior injector ([`crate::Misbehavior`]) corrupts data
//! *inside* a sensing or actuation workflow; this module attacks the
//! [`Bus`] itself — the seam between workflow publish and monitor
//! decode, where the Jeep/Ford-style packet injections the paper cites
//! actually live. The taxonomy ports SV1DUR's MIL-STD-1553 attack
//! vectors onto the CAN-like frame bus:
//!
//! * [`MitmRewrite`] — in-place payload rewriting (AV1): ids, sources
//!   and stamps untouched, the forensic log looks authentic.
//! * [`FakeFrameInject`] — forged frames published under a sensing
//!   workflow's arbitration id (AV3): the consumer-cache "latest wins"
//!   rule makes the forgery displace the authentic reading.
//! * [`DataCorruption`] — payload trashing (AV4): words replaced with
//!   garbage of a parameterized scale, sprinkled with non-finite and
//!   extreme fixed-point values (the encode-saturation regression
//!   surface).
//! * [`CommandInvalidation`] — the planner's [`COMMAND_ID`] frame is
//!   rewritten (AV5), so the monitor's view of the planned command
//!   diverges from what the actuation workflow executed.
//! * [`FrameTrash`] — frames destroyed in flight (AV6): the fresh view
//!   for the target id goes empty and the consumer must fall back to
//!   its hold-last / missing policy.
//! * [`ReplayDesync`] — desynchronization by replay (AV2/AV8): the
//!   fresh frame is trashed and a recorded stale frame is re-delivered
//!   carrying its *original* tick stamp. (Pre-stamping a future tick —
//!   the other desync primitive — is dead: [`Bus::publish_stamped`]
//!   clamps future stamps and counts the attempt.)
//!
//! Every attack implements [`BusAttack`], is parameterized by
//! magnitude, onset and duration, and declares the workflow it
//! effectively corrupts ([`BusAttack::target`]) so campaign harnesses
//! ([`crate::Campaign`]) can derive ground truth without knowing the
//! attack internals. Attacks compose: the builders apply them in
//! registration order on the same bus each tick.

use roboads_stats::{Rng, StdRng};

use crate::bus::{Bus, Frame, COMMAND_ID, SENSOR_ID_BASE};
use crate::misbehavior::Target;

/// Seed-stream separator for attacker randomness: the attack RNG must
/// not share a stream with the plant/sensor noise, or adding an attack
/// would perturb the clean trajectory it is compared against.
pub(crate) const ATTACK_STREAM: u64 = 0x4154_5441_434b_5eed;

/// When an attack is live: `[onset, onset + duration)` in control
/// iterations, unbounded when `duration` is `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackWindow {
    /// First attacked iteration (inclusive).
    pub onset: usize,
    /// Attacked iterations; `None` = until the end of the run.
    pub duration: Option<usize>,
}

impl AttackWindow {
    /// Creates a window starting at `onset` for `duration` iterations.
    pub fn new(onset: usize, duration: Option<usize>) -> Self {
        AttackWindow { onset, duration }
    }

    /// Whether the window covers iteration `k`.
    pub fn active(&self, k: usize) -> bool {
        k >= self.onset && self.duration.is_none_or(|d| k < self.onset + d)
    }

    /// End of the window (exclusive), if bounded.
    pub fn end(&self) -> Option<usize> {
        self.duration.map(|d| self.onset + d)
    }
}

/// A bus-level attack applied at the monitor seam: once per control
/// tick, after every workflow published its frames and before the
/// monitor decodes them.
///
/// `apply` is called on **every** tick, active or not, so stateful
/// attacks (replay recorders) can observe the bus while dormant; each
/// attack gates its own effect on its window.
pub trait BusAttack: Send {
    /// Short attack-type label, e.g. `"mitm-rewrite"`.
    fn name(&self) -> &'static str;

    /// The workflow this attack effectively corrupts, from the
    /// monitor's point of view — the campaign harness labels ground
    /// truth with it.
    fn target(&self) -> Target;

    /// The activation window.
    fn window(&self) -> AttackWindow;

    /// Perturbs the bus at iteration `k`. `rng` is the attacker's own
    /// seeded stream, distinct from every plant/sensor noise stream.
    fn apply(&mut self, k: usize, bus: &mut Bus, rng: &mut StdRng);
}

fn sensor_id(sensor: usize) -> u16 {
    SENSOR_ID_BASE + sensor as u16
}

/// Man-in-the-middle payload rewrite: every frame carrying the target
/// sensor's id has `magnitude` added to one reading component, in
/// place. The forensic log still shows the authentic source and stamps.
#[derive(Debug, Clone)]
pub struct MitmRewrite {
    sensor: usize,
    component: usize,
    magnitude: f64,
    window: AttackWindow,
}

impl MitmRewrite {
    /// Rewrites `sensor`'s frames, shifting `component` by `magnitude`.
    pub fn new(sensor: usize, component: usize, magnitude: f64, window: AttackWindow) -> Self {
        MitmRewrite {
            sensor,
            component,
            magnitude,
            window,
        }
    }
}

impl BusAttack for MitmRewrite {
    fn name(&self) -> &'static str {
        "mitm-rewrite"
    }

    fn target(&self) -> Target {
        Target::Sensor(self.sensor)
    }

    fn window(&self) -> AttackWindow {
        self.window
    }

    fn apply(&mut self, k: usize, bus: &mut Bus, _rng: &mut StdRng) {
        if !self.window.active(k) {
            return;
        }
        let id = sensor_id(self.sensor);
        for frame in bus.frames_mut() {
            if frame.id != id {
                continue;
            }
            let mut v = frame.decode();
            if self.component < v.len() {
                v[self.component] += self.magnitude;
            }
            frame.set_payload_from(&v);
        }
    }
}

/// Forged-frame injection: after the authentic reading is published, a
/// frame under the same arbitration id arrives from `"attacker"`
/// carrying the authentic value shifted by `magnitude` — and the
/// consumer-cache "latest wins" rule serves the forgery.
#[derive(Debug, Clone)]
pub struct FakeFrameInject {
    sensor: usize,
    component: usize,
    magnitude: f64,
    window: AttackWindow,
}

impl FakeFrameInject {
    /// Forges frames for `sensor`, shifting `component` by `magnitude`.
    pub fn new(sensor: usize, component: usize, magnitude: f64, window: AttackWindow) -> Self {
        FakeFrameInject {
            sensor,
            component,
            magnitude,
            window,
        }
    }
}

impl BusAttack for FakeFrameInject {
    fn name(&self) -> &'static str {
        "fake-frame-inject"
    }

    fn target(&self) -> Target {
        Target::Sensor(self.sensor)
    }

    fn window(&self) -> AttackWindow {
        self.window
    }

    fn apply(&mut self, k: usize, bus: &mut Bus, _rng: &mut StdRng) {
        if !self.window.active(k) {
            return;
        }
        let id = sensor_id(self.sensor);
        let Some(authentic) = bus.latest_fresh(id) else {
            return; // nothing published to base the forgery on
        };
        let mut v = authentic.decode();
        if self.component < v.len() {
            v[self.component] += self.magnitude;
        }
        bus.publish(Frame::encode(id, "attacker", &v));
    }
}

/// Data corruption: the target sensor's payload words are trashed with
/// uniform garbage of scale `magnitude` (units), one component per
/// frame occasionally replaced by a non-finite value that the encoder
/// saturates to an extreme fixed-point word — the regression surface of
/// the old `Frame::encode` panic.
#[derive(Debug, Clone)]
pub struct DataCorruption {
    sensor: usize,
    magnitude: f64,
    window: AttackWindow,
}

impl DataCorruption {
    /// Trashes `sensor`'s payloads with `magnitude`-scale garbage.
    pub fn new(sensor: usize, magnitude: f64, window: AttackWindow) -> Self {
        DataCorruption {
            sensor,
            magnitude,
            window,
        }
    }
}

impl BusAttack for DataCorruption {
    fn name(&self) -> &'static str {
        "data-corruption"
    }

    fn target(&self) -> Target {
        Target::Sensor(self.sensor)
    }

    fn window(&self) -> AttackWindow {
        self.window
    }

    fn apply(&mut self, k: usize, bus: &mut Bus, rng: &mut StdRng) {
        if !self.window.active(k) {
            return;
        }
        let id = sensor_id(self.sensor);
        for frame in bus.frames_mut() {
            if frame.id != id {
                continue;
            }
            let mut v = frame.decode();
            for i in 0..v.len() {
                let r = rng.random();
                v[i] = if r < 0.125 {
                    // A corrupted producer can emit anything, including
                    // the values JSON and fixed-point cannot express;
                    // the encoder must saturate, never panic.
                    f64::NAN
                } else if r < 0.25 {
                    f64::INFINITY * if rng.random() < 0.5 { 1.0 } else { -1.0 }
                } else {
                    v[i] + (2.0 * rng.random() - 1.0) * self.magnitude
                };
            }
            frame.set_payload_from(&v);
        }
    }
}

/// Command invalidation: the planner's [`COMMAND_ID`] frame is
/// rewritten with an alternating ±`magnitude` bias, so the command the
/// monitor conditions on is no longer the command the actuation
/// workflow executed — the Jeep-style spoof of the *control* traffic
/// rather than the sensor traffic.
#[derive(Debug, Clone)]
pub struct CommandInvalidation {
    magnitude: f64,
    window: AttackWindow,
}

impl CommandInvalidation {
    /// Rewrites command frames with an alternating ±`magnitude` bias.
    pub fn new(magnitude: f64, window: AttackWindow) -> Self {
        CommandInvalidation { magnitude, window }
    }
}

impl BusAttack for CommandInvalidation {
    fn name(&self) -> &'static str {
        "command-invalidation"
    }

    fn target(&self) -> Target {
        Target::Actuators
    }

    fn window(&self) -> AttackWindow {
        self.window
    }

    fn apply(&mut self, k: usize, bus: &mut Bus, _rng: &mut StdRng) {
        if !self.window.active(k) {
            return;
        }
        for frame in bus.frames_mut() {
            if frame.id != COMMAND_ID {
                continue;
            }
            let mut v = frame.decode();
            for i in 0..v.len() {
                v[i] += if i % 2 == 0 {
                    -self.magnitude
                } else {
                    self.magnitude
                };
            }
            frame.set_payload_from(&v);
        }
    }
}

/// What a [`FrameTrash`] / [`ReplayDesync`] attack destroys or replays:
/// one sensing workflow's frames, or the planner's command frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameTarget {
    /// A sensing workflow, by sensor suite index.
    Sensor(usize),
    /// The planned-command frame.
    Command,
}

impl FrameTarget {
    fn id(&self) -> u16 {
        match self {
            FrameTarget::Sensor(s) => sensor_id(*s),
            FrameTarget::Command => COMMAND_ID,
        }
    }

    fn target(&self) -> Target {
        match self {
            FrameTarget::Sensor(s) => Target::Sensor(*s),
            FrameTarget::Command => Target::Actuators,
        }
    }
}

/// Frame trashing: every frame carrying the target id is destroyed in
/// flight, so the monitor's fresh view goes empty and its hold-last /
/// missing policy decides what the detector sees.
#[derive(Debug, Clone)]
pub struct FrameTrash {
    what: FrameTarget,
    window: AttackWindow,
}

impl FrameTrash {
    /// Destroys `what`'s frames while active.
    pub fn new(what: FrameTarget, window: AttackWindow) -> Self {
        FrameTrash { what, window }
    }
}

impl BusAttack for FrameTrash {
    fn name(&self) -> &'static str {
        "frame-trash"
    }

    fn target(&self) -> Target {
        self.what.target()
    }

    fn window(&self) -> AttackWindow {
        self.window
    }

    fn apply(&mut self, k: usize, bus: &mut Bus, _rng: &mut StdRng) {
        if !self.window.active(k) {
            return;
        }
        let id = self.what.id();
        bus.retain(|f| f.id != id);
    }
}

/// Desynchronization by replay: the attack records the target id's
/// authentic frame every tick; while active it trashes the fresh frame
/// and re-delivers the recording from `lag` ticks ago **with its
/// original tick stamp** — a stamp-checking consumer sees a stale
/// frame (and holds or misses), a stamp-blind consumer silently
/// consumes `lag`-tick-old data.
#[derive(Debug, Clone)]
pub struct ReplayDesync {
    what: FrameTarget,
    lag: usize,
    window: AttackWindow,
    /// Ring of the last `lag + 1` authentic frames for the target id.
    history: std::collections::VecDeque<Frame>,
}

impl ReplayDesync {
    /// Replays `what`'s frames from `lag` ticks ago (minimum 1).
    pub fn new(what: FrameTarget, lag: usize, window: AttackWindow) -> Self {
        ReplayDesync {
            what,
            lag: lag.max(1),
            window,
            history: std::collections::VecDeque::new(),
        }
    }
}

impl BusAttack for ReplayDesync {
    fn name(&self) -> &'static str {
        "replay-desync"
    }

    fn target(&self) -> Target {
        self.what.target()
    }

    fn window(&self) -> AttackWindow {
        self.window
    }

    fn apply(&mut self, k: usize, bus: &mut Bus, _rng: &mut StdRng) {
        let id = self.what.id();
        // Record the authentic frame first — even while dormant, and
        // from *before* this tick's trashing, so the recording is real.
        if let Some(fresh) = bus.latest_fresh(id) {
            self.history.push_back(fresh.clone());
            while self.history.len() > self.lag + 1 {
                self.history.pop_front();
            }
        }
        if !self.window.active(k) {
            return;
        }
        bus.retain(|f| f.id != id);
        // Re-deliver the oldest recording ≤ `lag` ticks old, original
        // stamp preserved (a future stamp would be clamped and counted
        // by the bus — that desync primitive is dead).
        if let Some(stale) = self.history.front() {
            let stamp = stale.tick;
            bus.publish_stamped(stale.clone(), stamp);
        }
    }
}

/// Which attack a campaign grid point instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// [`MitmRewrite`].
    MitmRewrite,
    /// [`FakeFrameInject`].
    FakeFrameInject,
    /// [`DataCorruption`].
    DataCorruption,
    /// [`CommandInvalidation`].
    CommandInvalidation,
    /// [`FrameTrash`].
    FrameTrash,
    /// [`ReplayDesync`].
    ReplayDesync,
}

impl AttackKind {
    /// All six attack types, in taxonomy order.
    pub const ALL: [AttackKind; 6] = [
        AttackKind::MitmRewrite,
        AttackKind::FakeFrameInject,
        AttackKind::DataCorruption,
        AttackKind::CommandInvalidation,
        AttackKind::FrameTrash,
        AttackKind::ReplayDesync,
    ];

    /// The attack-type label used in reports and `BENCH_detect.json`.
    pub fn label(&self) -> &'static str {
        match self {
            AttackKind::MitmRewrite => "mitm-rewrite",
            AttackKind::FakeFrameInject => "fake-frame-inject",
            AttackKind::DataCorruption => "data-corruption",
            AttackKind::CommandInvalidation => "command-invalidation",
            AttackKind::FrameTrash => "frame-trash",
            AttackKind::ReplayDesync => "replay-desync",
        }
    }
}

/// A buildable attack description: the campaign grid's cell, and the
/// clonable form the simulation builders store (the [`BusAttack`]
/// instances themselves are stateful and built per run).
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSpec {
    /// Which attack to instantiate.
    pub kind: AttackKind,
    /// Target sensing workflow (ignored by
    /// [`AttackKind::CommandInvalidation`]).
    pub sensor: usize,
    /// Reading component the shift-style attacks perturb.
    pub component: usize,
    /// Attack magnitude, in the target signal's units.
    /// [`AttackKind::ReplayDesync`] reads `magnitude.round().max(1)` as
    /// its replay lag in ticks; [`AttackKind::FrameTrash`] ignores it.
    pub magnitude: f64,
    /// First attacked iteration.
    pub onset: usize,
    /// Attacked iterations; `None` = until the end of the run.
    pub duration: Option<usize>,
}

impl AttackSpec {
    /// A spec with component 0 and the given shape.
    pub fn new(
        kind: AttackKind,
        sensor: usize,
        magnitude: f64,
        onset: usize,
        duration: Option<usize>,
    ) -> Self {
        AttackSpec {
            kind,
            sensor,
            component: 0,
            magnitude,
            onset,
            duration,
        }
    }

    /// The activation window.
    pub fn window(&self) -> AttackWindow {
        AttackWindow::new(self.onset, self.duration)
    }

    /// The workflow the built attack will corrupt (campaign ground
    /// truth).
    pub fn target(&self) -> Target {
        match self.kind {
            AttackKind::CommandInvalidation => Target::Actuators,
            _ => Target::Sensor(self.sensor),
        }
    }

    /// Instantiates the attack.
    pub fn build(&self) -> Box<dyn BusAttack> {
        let w = self.window();
        match self.kind {
            AttackKind::MitmRewrite => Box::new(MitmRewrite::new(
                self.sensor,
                self.component,
                self.magnitude,
                w,
            )),
            AttackKind::FakeFrameInject => Box::new(FakeFrameInject::new(
                self.sensor,
                self.component,
                self.magnitude,
                w,
            )),
            AttackKind::DataCorruption => {
                Box::new(DataCorruption::new(self.sensor, self.magnitude, w))
            }
            AttackKind::CommandInvalidation => {
                Box::new(CommandInvalidation::new(self.magnitude, w))
            }
            AttackKind::FrameTrash => {
                Box::new(FrameTrash::new(FrameTarget::Sensor(self.sensor), w))
            }
            AttackKind::ReplayDesync => Box::new(ReplayDesync::new(
                FrameTarget::Sensor(self.sensor),
                self.magnitude.round().max(1.0) as usize,
                w,
            )),
        }
    }
}

/// Builds the attack instances for one run plus the attacker's own
/// seeded RNG stream (separated from the plant/sensor streams so an
/// attack never perturbs the clean trajectory it is compared against).
pub(crate) fn build_attacks(specs: &[AttackSpec], seed: u64) -> (Vec<Box<dyn BusAttack>>, StdRng) {
    use roboads_stats::SeedableRng;
    (
        specs.iter().map(|s| s.build()).collect(),
        StdRng::seed_from_u64(seed ^ ATTACK_STREAM),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboads_linalg::Vector;
    use roboads_stats::SeedableRng;

    fn bus_with_frames() -> Bus {
        let mut bus = Bus::new();
        bus.begin_tick(5);
        bus.publish(Frame::encode(
            COMMAND_ID,
            "planner",
            &Vector::from_slice(&[0.06, 0.05]),
        ));
        bus.publish(Frame::encode(
            SENSOR_ID_BASE,
            "ips",
            &Vector::from_slice(&[1.0, 2.0, 0.3]),
        ));
        bus
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn window_semantics() {
        let w = AttackWindow::new(10, Some(5));
        assert!(!w.active(9));
        assert!(w.active(10));
        assert!(w.active(14));
        assert!(!w.active(15));
        assert_eq!(w.end(), Some(15));
        let open = AttackWindow::new(3, None);
        assert!(open.active(1_000_000));
        assert_eq!(open.end(), None);
    }

    #[test]
    fn mitm_rewrites_in_place_without_forensic_traces() {
        let mut bus = bus_with_frames();
        let mut a = MitmRewrite::new(0, 0, -0.1, AttackWindow::new(0, None));
        let before = bus.len();
        a.apply(5, &mut bus, &mut rng());
        assert_eq!(bus.len(), before, "no extra frames");
        let f = bus.latest_fresh(SENSOR_ID_BASE).unwrap();
        assert_eq!(f.source, "ips", "source untouched — that's the MITM");
        assert!((f.decode()[0] - 0.9).abs() < 1e-8);
        // Dormant: no effect.
        let mut bus2 = bus_with_frames();
        MitmRewrite::new(0, 0, -0.1, AttackWindow::new(9, None)).apply(5, &mut bus2, &mut rng());
        assert!((bus2.latest(SENSOR_ID_BASE).unwrap().decode()[0] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn fake_frame_inject_displaces_the_authentic_reading() {
        let mut bus = bus_with_frames();
        let mut a = FakeFrameInject::new(0, 0, 0.07, AttackWindow::new(0, None));
        a.apply(5, &mut bus, &mut rng());
        let f = bus.latest_fresh(SENSOR_ID_BASE).unwrap();
        assert_eq!(f.source, "attacker");
        assert!((f.decode()[0] - 1.07).abs() < 1e-8);
        // The authentic frame is still in the forensic log.
        assert!(bus.log().iter().any(|f| f.source == "ips"));
    }

    #[test]
    fn data_corruption_survives_the_encoder() {
        let mut bus = bus_with_frames();
        let mut a = DataCorruption::new(0, 10.0, AttackWindow::new(0, None));
        // Many applications: the non-finite branches must all saturate,
        // never panic, and always decode finite.
        for k in 0..200 {
            a.apply(k, &mut bus, &mut rng());
            let v = bus.latest_fresh(SENSOR_ID_BASE).unwrap().decode();
            assert!(
                v.as_slice().iter().all(|x| x.is_finite()),
                "tick {k}: {v:?}"
            );
        }
    }

    #[test]
    fn command_invalidation_skews_only_the_command_frame() {
        let mut bus = bus_with_frames();
        let mut a = CommandInvalidation::new(0.02, AttackWindow::new(0, None));
        a.apply(5, &mut bus, &mut rng());
        let u = bus.latest_fresh(COMMAND_ID).unwrap().decode();
        assert!((u[0] - 0.04).abs() < 1e-8);
        assert!((u[1] - 0.07).abs() < 1e-8);
        let s = bus.latest_fresh(SENSOR_ID_BASE).unwrap().decode();
        assert!((s[0] - 1.0).abs() < 1e-8, "sensor traffic untouched");
        assert_eq!(a.target(), Target::Actuators);
    }

    #[test]
    fn frame_trash_empties_the_fresh_view() {
        let mut bus = bus_with_frames();
        let mut a = FrameTrash::new(FrameTarget::Sensor(0), AttackWindow::new(0, None));
        a.apply(5, &mut bus, &mut rng());
        assert!(bus.latest_fresh(SENSOR_ID_BASE).is_none());
        assert!(bus.latest(SENSOR_ID_BASE).is_none(), "destroyed, not aged");
        assert!(bus.latest_fresh(COMMAND_ID).is_some(), "other ids survive");
    }

    #[test]
    fn replay_desync_redelivers_stale_stamps() {
        let mut bus = Bus::new();
        let mut a = ReplayDesync::new(FrameTarget::Sensor(0), 2, AttackWindow::new(3, None));
        let mut r = rng();
        for k in 0..6u64 {
            bus.clear();
            bus.begin_tick(k);
            bus.publish(Frame::encode(
                SENSOR_ID_BASE,
                "ips",
                &Vector::from_slice(&[k as f64]),
            ));
            a.apply(k as usize, &mut bus, &mut r);
            if k < 3 {
                assert_eq!(
                    bus.latest_fresh(SENSOR_ID_BASE).unwrap().decode()[0],
                    k as f64
                );
            } else {
                // Fresh frame trashed; the replayed frame is 2 ticks
                // old and carries its original stamp.
                assert!(bus.latest_fresh(SENSOR_ID_BASE).is_none());
                let f = bus.latest(SENSOR_ID_BASE).unwrap();
                assert_eq!(f.tick, k - 2);
                assert_eq!(f.decode()[0], (k - 2) as f64);
                assert_eq!(bus.staleness(SENSOR_ID_BASE), Some(2));
            }
        }
        assert_eq!(
            bus.future_stamps_rejected(),
            0,
            "pure replay, no forged stamps"
        );
    }

    #[test]
    fn specs_build_every_kind_with_matching_labels_and_targets() {
        for kind in AttackKind::ALL {
            let spec = AttackSpec::new(kind, 1, 3.0, 10, Some(20));
            let attack = spec.build();
            assert_eq!(attack.name(), kind.label());
            assert_eq!(attack.target(), spec.target());
            assert_eq!(attack.window(), AttackWindow::new(10, Some(20)));
        }
        assert_eq!(
            AttackSpec::new(AttackKind::CommandInvalidation, 1, 3.0, 10, None).target(),
            Target::Actuators
        );
    }
}
