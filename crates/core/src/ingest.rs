//! Async tick-boundary ingestion for [`FleetEngine`]: the serving-shaped
//! front-end between a jittery per-robot transport and the engine's
//! aligned `step_batch`.
//!
//! The paper's per-iteration loop (Algorithm 1) — and the companion
//! technical report's NUISE derivation (arXiv:1804.02814) — assume the
//! monitor receives a *complete, fresh* reading set every control tick.
//! Real deployments deliver frames per robot over a bus with jitter,
//! drops and reordering, and the precursor paper (arXiv:1708.01834)
//! argues a *missing* reading should itself be a detectable misbehavior
//! rather than a silent replay of stale data. [`FleetIngest`] encodes
//! both halves of that contract:
//!
//! * **Double buffering** — frames accumulate into per-robot *staging*
//!   slots ([`FleetIngest::offer`] / [`FleetIngest::offer_input`]) as
//!   they arrive, in any order; [`FleetIngest::swap`] publishes the
//!   complete slots into the aligned *front* buffer at the tick
//!   boundary. Offers copy into persistent buffers and the swap is a
//!   pointer exchange, so the warm path allocates nothing.
//! * **Per-robot deadlines** — a slot that is incomplete at the swap
//!   resolves by its robot's [`DeadlinePolicy`]: `MarkMissing` skips the
//!   robot's iteration and surfaces [`CoreError::MissedDeadline`]
//!   through [`FleetEngine::result`] (the absence *is* the verdict);
//!   `HoldLast` explicitly reuses the last published values for the
//!   pieces that did not arrive. Either way a slow robot delays only
//!   itself — the rest of the batch steps on time, bitwise identically
//!   to an all-on-time run.
//! * **Tick stamping** — [`FleetIngest::offer_stamped`] rejects frames
//!   whose stamp does not match the current staging tick (a late frame
//!   belongs to a window that has already swapped), with counters and
//!   events so late/held/missing robots are observable per tick.

use roboads_linalg::Vector;
use roboads_obs::wire;
use roboads_obs::{Counter, Telemetry, Value};

use crate::fleet::{FleetEngine, RobotInput};
use crate::{CoreError, Result};

/// What to do with a robot whose staging slot is incomplete when the
/// tick boundary arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlinePolicy {
    /// Skip the robot's iteration: its detector and report stay
    /// untouched and [`FleetEngine::result`] carries
    /// [`CoreError::MissedDeadline`]. The conservative default — a
    /// missing reading is treated as a detectable misbehavior, never
    /// silently papered over with stale data.
    MarkMissing,
    /// Fill the missing pieces from the last published values (fresh
    /// arrivals still win) and step the detector normally. The robot's
    /// slot is reported [`SlotState::Held`] and counted, so the reuse is
    /// explicit and observable — the opposite of a bus cache silently
    /// replaying the previous tick.
    HoldLast,
}

/// How a robot's slot resolved at the last [`FleetIngest::swap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Every input arrived in the window; the published batch is fresh.
    Fresh,
    /// Incomplete under [`DeadlinePolicy::HoldLast`]: the published
    /// batch mixes this window's arrivals with held last-tick values.
    Held,
    /// No publishable input set: incomplete under
    /// [`DeadlinePolicy::MarkMissing`], or no complete set has *ever*
    /// arrived (hold-last has nothing to hold before the first complete
    /// window). Also the state before the first swap.
    Missing,
}

/// Per-tick accounting returned by [`FleetIngest::swap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapSummary {
    /// The tick index that was just published (0-based).
    pub tick: u64,
    /// Robots whose slots were complete.
    pub fresh: usize,
    /// Robots published from held values ([`DeadlinePolicy::HoldLast`]).
    pub held: usize,
    /// Robots with nothing publishable this tick.
    pub missing: usize,
}

/// One robot's double-buffered staging state. `staged_*` is the back
/// buffer frames copy into as they arrive; `published_*` is the front
/// buffer the batch borrows from. [`FleetIngest::swap`] exchanges the
/// two per arrived piece, so buffers are recycled tick after tick and
/// the warm path performs no heap allocation.
#[derive(Debug)]
pub(crate) struct Slot {
    policy: DeadlinePolicy,
    staged_u: Vector,
    staged_u_arrived: bool,
    staged: Vec<Vector>,
    arrived: Vec<bool>,
    published_u: Vector,
    published: Vec<Vector>,
    state: SlotState,
    /// Whether a complete set has ever been published — until then
    /// `HoldLast` has nothing valid to hold and resolves to `Missing`.
    complete_history: bool,
}

impl Slot {
    fn new(sensors: usize, policy: DeadlinePolicy) -> Self {
        Slot {
            policy,
            staged_u: Vector::zeros(0),
            staged_u_arrived: false,
            staged: (0..sensors).map(|_| Vector::zeros(0)).collect(),
            arrived: vec![false; sensors],
            published_u: Vector::zeros(0),
            published: (0..sensors).map(|_| Vector::zeros(0)).collect(),
            state: SlotState::Missing,
            complete_history: false,
        }
    }

    fn complete(&self) -> bool {
        self.staged_u_arrived && self.arrived.iter().all(|&a| a)
    }

    fn snap_write(&self, out: &mut Vec<u8>) {
        crate::snapshot::put_vector(out, &self.staged_u);
        wire::put_bool(out, self.staged_u_arrived);
        for v in &self.staged {
            crate::snapshot::put_vector(out, v);
        }
        wire::put_bool_slice(out, &self.arrived);
        crate::snapshot::put_vector(out, &self.published_u);
        for v in &self.published {
            crate::snapshot::put_vector(out, v);
        }
        wire::put_u8(
            out,
            match self.state {
                SlotState::Fresh => 0,
                SlotState::Held => 1,
                SlotState::Missing => 2,
            },
        );
        wire::put_bool(out, self.complete_history);
    }

    fn snap_read(&mut self, rd: &mut wire::ByteReader<'_>) -> Result<()> {
        crate::snapshot::read_vector_flex(rd, &mut self.staged_u)?;
        self.staged_u_arrived = rd.bool()?;
        for v in &mut self.staged {
            crate::snapshot::read_vector_flex(rd, v)?;
        }
        crate::snapshot::read_bools(rd, &mut self.arrived, self.staged.len())?;
        crate::snapshot::read_vector_flex(rd, &mut self.published_u)?;
        for v in &mut self.published {
            crate::snapshot::read_vector_flex(rd, v)?;
        }
        self.state = match rd.u8()? {
            0 => SlotState::Fresh,
            1 => SlotState::Held,
            2 => SlotState::Missing,
            t => {
                return Err(CoreError::Snapshot {
                    reason: format!("unknown slot state tag {t}"),
                })
            }
        };
        self.complete_history = rd.bool()?;
        Ok(())
    }
}

/// Pre-registered counters for the ingest hot path (same invariant as
/// the engine's instruments: registration may lock and allocate, the
/// per-offer/per-swap path records through atomics only).
#[derive(Debug, Clone)]
struct IngestInstruments {
    /// `ingest.swaps` — tick boundaries crossed.
    swaps: Counter,
    /// `ingest.robots_fresh` — robot-slots published complete.
    fresh: Counter,
    /// `ingest.robots_held` — robot-slots published from held values.
    held: Counter,
    /// `ingest.robots_missing` — robot-slots with nothing publishable.
    missing: Counter,
    /// `ingest.frames_rejected` — stamped offers whose tick did not
    /// match the staging window (late arrivals after the swap, or
    /// stamps from the future).
    rejected: Counter,
}

impl IngestInstruments {
    fn new(telemetry: &Telemetry) -> Self {
        let m = telemetry.metrics();
        IngestInstruments {
            swaps: m.counter("ingest.swaps"),
            fresh: m.counter("ingest.robots_fresh"),
            held: m.counter("ingest.robots_held"),
            missing: m.counter("ingest.robots_missing"),
            rejected: m.counter("ingest.frames_rejected"),
        }
    }
}

/// Double-buffered async ingestion front-end for [`FleetEngine`].
///
/// # Example
///
/// ```
/// use roboads_core::{DeadlinePolicy, FleetEngine, FleetIngest, RoboAds, SlotState};
/// use roboads_linalg::Vector;
/// use roboads_models::presets;
///
/// # fn main() -> Result<(), roboads_core::CoreError> {
/// let system = presets::khepera_system();
/// let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
/// let detectors: Result<Vec<_>, _> =
///     (0..2).map(|_| RoboAds::with_defaults(system.clone(), x0.clone())).collect();
/// let mut fleet = FleetEngine::new(detectors?, 1);
/// let mut ingest = FleetIngest::for_fleet(&fleet).with_policy(DeadlinePolicy::MarkMissing);
///
/// // Frames arrive per robot, per sensor, in any order.
/// let u = Vector::from_slice(&[0.05, 0.05]);
/// let x1 = system.dynamics().step(&x0, &u);
/// for robot in 0..2 {
///     ingest.offer_input(robot, &u)?;
///     for s in (0..3).rev() {
///         ingest.offer(robot, s, &system.sensor(s).unwrap().measure(&x1))?;
///     }
/// }
/// // Tick boundary: publish complete slots, step the fleet.
/// ingest.step(&mut fleet)?;
/// assert_eq!(ingest.state(0), SlotState::Fresh);
/// assert!(fleet.result(0).is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FleetIngest {
    slots: Vec<Slot>,
    tick: u64,
    telemetry: Telemetry,
    instruments: IngestInstruments,
}

impl FleetIngest {
    /// Builds a front-end with one staging slot per robot;
    /// `sensor_counts[i]` is robot `i`'s sensing-workflow count. All
    /// robots start with [`DeadlinePolicy::MarkMissing`].
    pub fn new(sensor_counts: &[usize]) -> Self {
        let telemetry = Telemetry::disabled();
        let instruments = IngestInstruments::new(&telemetry);
        FleetIngest {
            slots: sensor_counts
                .iter()
                .map(|&n| Slot::new(n, DeadlinePolicy::MarkMissing))
                .collect(),
            tick: 0,
            telemetry,
            instruments,
        }
    }

    /// Builds a front-end shaped for `fleet` (one slot per robot, sized
    /// to each robot's own sensor suite).
    pub fn for_fleet(fleet: &FleetEngine) -> Self {
        let counts: Vec<usize> = (0..fleet.len())
            .map(|i| fleet.detector(i).system().sensor_count())
            .collect();
        FleetIngest::new(&counts)
    }

    /// Sets every robot's deadline policy (builder style).
    #[must_use]
    pub fn with_policy(mut self, policy: DeadlinePolicy) -> Self {
        for slot in &mut self.slots {
            slot.policy = policy;
        }
        self
    }

    /// Sets one robot's deadline policy.
    ///
    /// # Panics
    ///
    /// Panics if `robot` is out of range.
    pub fn set_policy(&mut self, robot: usize, policy: DeadlinePolicy) {
        self.slots[robot].policy = policy;
    }

    /// Robot `robot`'s deadline policy.
    pub fn policy(&self, robot: usize) -> DeadlinePolicy {
        self.slots[robot].policy
    }

    /// Threads a telemetry context through the ingest counters and
    /// events (default: disabled sink with a private registry).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.instruments = IngestInstruments::new(&telemetry);
        self.telemetry = telemetry;
    }

    /// Number of robot slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the front-end has no robot slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The current staging tick: offers accumulate into window `tick()`
    /// until the next [`FleetIngest::swap`] publishes it.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// How robot `robot`'s slot resolved at the last swap
    /// ([`SlotState::Missing`] before the first).
    pub fn state(&self, robot: usize) -> SlotState {
        self.slots[robot].state
    }

    fn slot_mut(&mut self, robot: usize) -> Result<&mut Slot> {
        let robots = self.slots.len();
        self.slots
            .get_mut(robot)
            .ok_or_else(|| CoreError::BadReadings {
                reason: format!("ingest offer for robot {robot} in a {robots}-robot fleet"),
            })
    }

    /// Stages robot `robot`'s reading for sensor `sensor` in the current
    /// tick window, copying into the slot's persistent buffer (a repeat
    /// offer for the same sensor overwrites — newest wins, like a bus
    /// consumer cache). Order is irrelevant: slots are keyed, not
    /// queued, so reordered frames within a window are harmless.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadReadings`] when `robot` is out of range,
    /// [`CoreError::UnknownSensor`] when `sensor` is. Reading
    /// *dimensions* are not validated here — a malformed
    /// vector surfaces as that one robot's per-robot step error.
    pub fn offer(&mut self, robot: usize, sensor: usize, reading: &Vector) -> Result<()> {
        self.stage(robot, Some(sensor), reading.as_slice().iter().copied())
            .map(|_| ())
    }

    /// Stages robot `robot`'s planned command `u_{k-1}` for the current
    /// tick window.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadReadings`] when `robot` is out of range.
    pub fn offer_input(&mut self, robot: usize, u_prev: &Vector) -> Result<()> {
        self.stage(robot, None, u_prev.as_slice().iter().copied())
            .map(|_| ())
    }

    /// The one staging body: checks `robot`, then `sensor` (`None`: the
    /// planned command), and only then pulls `values` into the robot's
    /// staging buffer and marks the piece arrived. Returns the staged
    /// values.
    fn stage(
        &mut self,
        robot: usize,
        sensor: Option<usize>,
        values: impl IntoIterator<Item = f64>,
    ) -> Result<&[f64]> {
        let slot = self.slot_mut(robot)?;
        let buf = match sensor {
            None => {
                slot.staged_u_arrived = true;
                &mut slot.staged_u
            }
            Some(sensor) => {
                let Some(buf) = slot.staged.get_mut(sensor) else {
                    return Err(CoreError::UnknownSensor {
                        robot: robot as u64,
                        sensor,
                    });
                };
                slot.arrived[sensor] = true;
                buf
            }
        };
        buf.assign_iter(values);
        Ok(buf.as_slice())
    }

    /// [`FleetIngest::offer_slice`] returning the staged values (`None`
    /// for a rejected stamp), so the shard journals the frame from its
    /// staging buffer.
    pub(crate) fn stage_stamped(
        &mut self,
        robot: usize,
        sensor: Option<usize>,
        values: impl IntoIterator<Item = f64>,
        tick: u64,
    ) -> Result<Option<&[f64]>> {
        if tick != self.tick {
            self.reject_frame(robot, sensor, tick);
            return Ok(None);
        }
        self.stage(robot, sensor, values).map(Some)
    }

    /// The stamped offer every other stamped offer wraps: stages
    /// `values` for robot `robot`'s sensor `sensor` (`None`: the planned
    /// command `u_{k-1}`) only when `tick` matches the current staging
    /// window, returning whether it was staged. The stamp is checked
    /// first and the indices next, so `values` is a lazy source (a
    /// slice's `iter().copied()`, or a wire frame's undecoded values)
    /// that only an admitted frame pulls from, each value once. A
    /// mismatched stamp — a late frame whose window has already
    /// swapped, or a stamp from the future — is dropped, counted
    /// (`ingest.frames_rejected`) and reported as an
    /// `ingest.frame_rejected` event, never silently staged into the
    /// wrong tick.
    ///
    /// # Errors
    ///
    /// As [`FleetIngest::offer`], for an in-window frame.
    pub fn offer_slice(
        &mut self,
        robot: usize,
        sensor: Option<usize>,
        values: impl IntoIterator<Item = f64>,
        tick: u64,
    ) -> Result<bool> {
        self.stage_stamped(robot, sensor, values, tick)
            .map(|staged| staged.is_some())
    }

    /// Tick-stamped [`FleetIngest::offer`] (see
    /// [`FleetIngest::offer_slice`] for the acceptance rule).
    ///
    /// # Errors
    ///
    /// As [`FleetIngest::offer`].
    pub fn offer_stamped(
        &mut self,
        robot: usize,
        sensor: usize,
        reading: &Vector,
        tick: u64,
    ) -> Result<bool> {
        self.offer_slice(
            robot,
            Some(sensor),
            reading.as_slice().iter().copied(),
            tick,
        )
    }

    /// Tick-stamped [`FleetIngest::offer_input`] (see
    /// [`FleetIngest::offer_slice`] for the acceptance rule).
    ///
    /// # Errors
    ///
    /// As [`FleetIngest::offer_input`].
    pub fn offer_input_stamped(
        &mut self,
        robot: usize,
        u_prev: &Vector,
        tick: u64,
    ) -> Result<bool> {
        self.offer_slice(robot, None, u_prev.as_slice().iter().copied(), tick)
    }

    fn reject_frame(&self, robot: usize, sensor: Option<usize>, stamp: u64) {
        self.instruments.rejected.incr();
        let current = self.tick;
        self.telemetry.event("ingest.frame_rejected", || {
            vec![
                ("robot", Value::U64(robot as u64)),
                ("sensor", Value::U64(sensor.map_or(u64::MAX, |s| s as u64))),
                ("stamp", Value::U64(stamp)),
                ("tick", Value::U64(current)),
            ]
        });
    }

    /// Crosses the tick boundary: publishes every complete staging slot
    /// into the front buffer, resolves incomplete slots by their robot's
    /// [`DeadlinePolicy`], clears the staging window and advances the
    /// tick. The published batch is then readable through
    /// [`FleetIngest::input`] until the next swap.
    ///
    /// A complete slot swaps buffer pointers (no copy, no allocation);
    /// a `HoldLast` slot swaps only the pieces that arrived, keeping the
    /// previously published values for the rest.
    pub fn swap(&mut self) -> SwapSummary {
        let mut summary = SwapSummary {
            tick: self.tick,
            fresh: 0,
            held: 0,
            missing: 0,
        };
        for (robot, slot) in self.slots.iter_mut().enumerate() {
            if slot.complete() {
                std::mem::swap(&mut slot.published_u, &mut slot.staged_u);
                for (published, staged) in slot.published.iter_mut().zip(&mut slot.staged) {
                    std::mem::swap(published, staged);
                }
                slot.state = SlotState::Fresh;
                slot.complete_history = true;
                summary.fresh += 1;
            } else {
                let missing_pieces = usize::from(!slot.staged_u_arrived)
                    + slot.arrived.iter().filter(|&&a| !a).count();
                slot.state = if slot.policy == DeadlinePolicy::HoldLast && slot.complete_history {
                    if slot.staged_u_arrived {
                        std::mem::swap(&mut slot.published_u, &mut slot.staged_u);
                    }
                    for ((published, staged), &arrived) in slot
                        .published
                        .iter_mut()
                        .zip(&mut slot.staged)
                        .zip(&slot.arrived)
                    {
                        if arrived {
                            std::mem::swap(published, staged);
                        }
                    }
                    summary.held += 1;
                    SlotState::Held
                } else {
                    summary.missing += 1;
                    SlotState::Missing
                };
                let state = slot.state;
                let tick = self.tick;
                self.telemetry.event("ingest.deadline_missed", || {
                    vec![
                        ("robot", Value::U64(robot as u64)),
                        ("tick", Value::U64(tick)),
                        (
                            "resolution",
                            Value::Str(match state {
                                SlotState::Held => "held_last",
                                _ => "missing",
                            }),
                        ),
                        ("missing_pieces", Value::U64(missing_pieces as u64)),
                    ]
                });
            }
            slot.staged_u_arrived = false;
            slot.arrived.fill(false);
        }
        self.instruments.swaps.incr();
        self.instruments.fresh.add(summary.fresh as u64);
        self.instruments.held.add(summary.held as u64);
        self.instruments.missing.add(summary.missing as u64);
        self.tick += 1;
        summary
    }

    /// Robot `robot`'s published input for the last swapped tick:
    /// `Some` for [`SlotState::Fresh`] and [`SlotState::Held`] slots,
    /// `None` for [`SlotState::Missing`] ones. The borrow is valid until
    /// the next [`FleetIngest::swap`].
    pub fn input(&self, robot: usize) -> Option<RobotInput<'_>> {
        let slot = &self.slots[robot];
        match slot.state {
            SlotState::Fresh | SlotState::Held => Some(RobotInput {
                u_prev: &slot.published_u,
                readings: &slot.published,
            }),
            SlotState::Missing => None,
        }
    }

    /// Appends the ingest front-end's mutable state to a snapshot buffer:
    /// the staging tick plus every slot's double-buffered staging and
    /// published contents. Deadline policies are construction
    /// configuration and belong to the restore twin.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.tick);
        wire::put_u32(out, self.slots.len() as u32);
        for slot in &self.slots {
            slot.snap_write(out);
        }
    }

    /// Restores the ingest front-end's mutable state from a snapshot
    /// buffer onto an identically-shaped twin.
    pub(crate) fn snap_read(&mut self, rd: &mut wire::ByteReader<'_>) -> Result<()> {
        self.tick = rd.u64()?;
        let n = rd.u32()? as usize;
        if n != self.slots.len() {
            return Err(CoreError::Snapshot {
                reason: format!(
                    "snapshot has {n} ingest slots, twin has {}",
                    self.slots.len()
                ),
            });
        }
        for slot in &mut self.slots {
            slot.snap_read(rd)?;
        }
        Ok(())
    }

    /// Removes the slots at `indices` (strictly ascending) and returns
    /// them in that order, preserving their staged/published contents —
    /// the ingest half of moving robots between shards. Remaining slots
    /// keep their relative order.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or the list is not strictly
    /// ascending.
    pub(crate) fn remove_slots(&mut self, indices: &[usize]) -> Vec<Slot> {
        assert!(indices.windows(2).all(|w| w[0] < w[1]));
        let mut taken = Vec::with_capacity(indices.len());
        for &i in indices.iter().rev() {
            taken.push(self.slots.remove(i));
        }
        taken.reverse();
        taken
    }

    /// Appends slots previously taken with [`FleetIngest::remove_slots`]
    /// (the receiving shard's robots gain the movers' staged state).
    pub(crate) fn append_slots(&mut self, slots: Vec<Slot>) {
        self.slots.extend(slots);
    }

    /// Convenience tick: [`FleetIngest::swap`] followed by
    /// [`FleetEngine::step_batch_masked`] on the published batch, read
    /// slot by slot through [`FleetIngest::input`] rather than gathered
    /// into a vector, so a warm tick allocates nothing. A
    /// fleet driven through this with every frame on time produces
    /// reports bitwise identical to direct [`FleetEngine::step_batch`]
    /// calls; a robot that missed its deadline resolves per its policy
    /// while every other robot's step is unaffected.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadReadings`] when the fleet size does not match the
    /// slot count, else the first per-robot failure in slab order —
    /// including [`CoreError::MissedDeadline`] for robots this swap
    /// marked missing. Per-robot outcomes stay queryable through
    /// [`FleetEngine::result`] regardless of the batch-level error.
    pub fn step(&mut self, fleet: &mut FleetEngine) -> Result<()> {
        if fleet.len() != self.slots.len() {
            return Err(CoreError::BadReadings {
                reason: format!(
                    "ingest with {} slots driving a fleet of {} robots",
                    self.slots.len(),
                    fleet.len()
                ),
            });
        }
        let summary = self.swap();
        // Recorded batches carry the published tick, not the fleet's
        // internal counter, so capsules line up with the stamped bus.
        fleet.set_tick_stamp(summary.tick);
        fleet.step_batch_published(self)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn out_of_range_offers_are_rejected() {
        let mut ingest = FleetIngest::new(&[2, 2]);
        let v = Vector::from_slice(&[1.0]);
        assert!(matches!(
            ingest.offer(5, 0, &v),
            Err(CoreError::BadReadings { .. })
        ));
        assert!(matches!(
            ingest.offer(0, 7, &v),
            Err(CoreError::UnknownSensor { .. })
        ));
        assert!(matches!(
            ingest.offer_input(9, &v),
            Err(CoreError::BadReadings { .. })
        ));
    }

    #[test]
    fn incomplete_slot_marks_missing_and_complete_slot_publishes() {
        let mut ingest = FleetIngest::new(&[2]);
        let u = Vector::from_slice(&[0.1, 0.2]);
        let r0 = Vector::from_slice(&[1.0]);
        ingest.offer_input(0, &u).unwrap();
        ingest.offer(0, 0, &r0).unwrap();
        // Sensor 1 never arrives.
        let summary = ingest.swap();
        assert_eq!(summary.tick, 0);
        assert_eq!(summary.missing, 1);
        assert_eq!(ingest.state(0), SlotState::Missing);
        assert!(ingest.input(0).is_none());

        // Next window: everything arrives, out of order.
        let r1 = Vector::from_slice(&[2.0, 3.0]);
        ingest.offer(0, 1, &r1).unwrap();
        ingest.offer(0, 0, &r0).unwrap();
        ingest.offer_input(0, &u).unwrap();
        let summary = ingest.swap();
        assert_eq!(summary.fresh, 1);
        let input = ingest.input(0).expect("published");
        assert_eq!(input.u_prev, &u);
        assert_eq!(input.readings[0], r0);
        assert_eq!(input.readings[1], r1);
    }

    #[test]
    fn hold_last_fills_missing_pieces_from_the_previous_tick() {
        let mut ingest = FleetIngest::new(&[2]).with_policy(DeadlinePolicy::HoldLast);
        let u = Vector::from_slice(&[0.1]);
        let r0 = Vector::from_slice(&[1.0]);
        let r1 = Vector::from_slice(&[2.0]);
        // Before any complete window, hold-last has nothing to hold.
        ingest.offer(0, 0, &r0).unwrap();
        ingest.swap();
        assert_eq!(ingest.state(0), SlotState::Missing);

        // A complete window establishes history...
        ingest.offer_input(0, &u).unwrap();
        ingest.offer(0, 0, &r0).unwrap();
        ingest.offer(0, 1, &r1).unwrap();
        assert_eq!(ingest.swap().fresh, 1);

        // ...then a window where only sensor 0 arrives, with a new value.
        let r0_new = Vector::from_slice(&[9.0]);
        ingest.offer(0, 0, &r0_new).unwrap();
        let summary = ingest.swap();
        assert_eq!(summary.held, 1);
        assert_eq!(ingest.state(0), SlotState::Held);
        let input = ingest.input(0).expect("held slots still publish");
        assert_eq!(input.readings[0], r0_new, "fresh arrival wins");
        assert_eq!(input.readings[1], r1, "missing piece held from last tick");
        assert_eq!(input.u_prev, &u, "command held from last tick");
    }

    /// A value source that counts the values pulled from it.
    pub(crate) fn counted<'a>(
        values: &'a [f64],
        pulled: &'a Cell<usize>,
    ) -> impl Iterator<Item = f64> + 'a {
        values
            .iter()
            .inspect(move |_| pulled.set(pulled.get() + 1))
            .copied()
    }

    /// Values whose bits an arithmetic copy could change: a negative
    /// zero, a NaN with a payload and a subnormal.
    pub(crate) const ODD_BITS: [f64; 3] = [-0.0, f64::from_bits(0x7ff8_dead_beef_0001), 1e-310];

    pub(crate) fn assert_bits(got: &[f64], want: &[f64]) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want));
    }

    #[test]
    fn only_an_admitted_offer_pulls_its_values_once_each() {
        let mut ingest = FleetIngest::new(&[2]);
        ingest.swap(); // staging window 1: stamp 0 is stale, 2 is future
        let pulled = Cell::new(0);
        let values = ODD_BITS;
        assert!(matches!(
            ingest.offer_slice(3, Some(0), counted(&values, &pulled), 1),
            Err(CoreError::BadReadings { .. })
        ));
        assert_eq!(
            ingest.offer_slice(0, Some(0), counted(&values, &pulled), 0),
            Ok(false)
        );
        assert_eq!(
            ingest.offer_slice(0, None, counted(&values, &pulled), 2),
            Ok(false)
        );
        assert_eq!(
            ingest.offer_slice(0, Some(2), counted(&values, &pulled), 1),
            Err(CoreError::UnknownSensor {
                robot: 0,
                sensor: 2
            })
        );
        assert_eq!(pulled.get(), 0, "a rejected offer pulls no value");
        for piece in [None, Some(0), Some(1)] {
            pulled.set(0);
            assert_eq!(
                ingest.offer_slice(0, piece, counted(&values, &pulled), 1),
                Ok(true)
            );
            assert_eq!(pulled.get(), values.len(), "{piece:?}: each value once");
        }
        let slot = &ingest.slots[0];
        assert_bits(slot.staged_u.as_slice(), &values);
        for staged in &slot.staged {
            assert_bits(staged.as_slice(), &values);
        }
    }

    #[test]
    fn stamped_offers_reject_other_windows() {
        let mut ingest = FleetIngest::new(&[1]);
        let v = Vector::from_slice(&[1.0]);
        assert!(ingest.offer_stamped(0, 0, &v, 0).unwrap());
        ingest.swap();
        // The window has moved on; the same stamp is now late.
        assert!(!ingest.offer_stamped(0, 0, &v, 0).unwrap());
        assert!(
            !ingest.offer_input_stamped(0, &v, 7).unwrap(),
            "future stamp"
        );
        assert!(ingest.offer_stamped(0, 0, &v, 1).unwrap());
    }

    #[test]
    fn swap_counters_and_events_reach_telemetry() {
        use roboads_obs::RingBufferSink;
        use std::sync::Arc;
        let ring = Arc::new(RingBufferSink::new(1024));
        let telemetry = Telemetry::new(ring.clone());
        let mut ingest = FleetIngest::new(&[1, 1]);
        ingest.set_telemetry(telemetry.clone());
        let v = Vector::from_slice(&[1.0]);
        ingest.offer_input(0, &v).unwrap();
        ingest.offer(0, 0, &v).unwrap();
        // Robot 1 delivers nothing; robot 0 is complete.
        ingest.swap();
        // A late frame for the already-swapped window.
        assert!(!ingest.offer_stamped(1, 0, &v, 0).unwrap());
        let m = telemetry.metrics();
        assert_eq!(m.counter_value("ingest.swaps"), Some(1));
        assert_eq!(m.counter_value("ingest.robots_fresh"), Some(1));
        assert_eq!(m.counter_value("ingest.robots_missing"), Some(1));
        assert_eq!(m.counter_value("ingest.frames_rejected"), Some(1));
        let events = ring.events();
        assert!(events.iter().any(|e| e.name == "ingest.deadline_missed"));
        assert!(events.iter().any(|e| e.name == "ingest.frame_rejected"));
    }
}
