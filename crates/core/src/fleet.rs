//! Fleet-scale batched detection: N independent [`RoboAds`] detectors
//! stepped per control tick with dispatch amortized at *robot* grain.
//!
//! Per-mode parallelism inside one detector step loses on the
//! evaluation banks: a pool dispatch costs tens of microseconds while a
//! warm NUISE mode step costs ~2 µs, so fanning 3–7 modes out buys
//! nothing. A fleet monitor has a much better unit of work — one whole
//! robot's detector step (mode bank, decision maker, report refill,
//! ~30 µs warm) — and hundreds of them per tick. The [`FleetEngine`]
//! therefore:
//!
//! * keeps a slab of per-robot cells (detector, caller-readable report
//!   and result slot), pre-warmed so the steady state allocates nothing
//!   on the sequential path;
//! * partitions the fleet into **model-signature groups**
//!   ([`roboads_models::ModelSignature`] plus the engine-level config
//!   discriminants) and runs one SIMD slab per group, so a
//!   heterogeneous fleet keeps the lane-batched win for every group
//!   that fills a tile while odd robots run scalar individually (see
//!   `DESIGN.md` §16); a tile and a standalone detector run the same
//!   iteration driver (`engine::step_tile`), at 8 lanes and at 1;
//! * submits pool jobs per *group* over contiguous lane-aligned robot
//!   ranges ([`roboads_pool::Pool::chunk_size_aligned`] with a minimum
//!   chunk floor), so per-tick dispatch overhead is O(workers), not
//!   O(robots), and no tile ever straddles two groups or two jobs;
//! * keeps each robot's arithmetic bitwise identical to a standalone
//!   [`RoboAds`] fed the same inputs — robots never share mutable
//!   state, so thread count, batch size and grouping cannot perturb
//!   results (pinned by `tests/fleet_determinism.rs`).

use std::collections::HashMap;
use std::sync::Arc;

use roboads_linalg::Vector;
use roboads_models::ModelSignature;
use roboads_obs::{Counter, Gauge, Telemetry, Value};
use roboads_pool::Pool;

use crate::config::Linearization;
use crate::decision::NormalizedStatistic;
use crate::detector::RoboAds;
use crate::engine::{step_tile, MultiModeEngine, Tile};
use crate::ingest::FleetIngest;
use crate::mode::ModeSet;
use crate::nuise_slab::{ModeKernel, NuiseSlabWorkspace};
use crate::recorder::RecorderConfig;
use crate::report::DetectionReport;
use crate::{CoreError, Result};

/// Minimum robots per pool job. A warm robot step is ~30 µs and a
/// dispatch ~20 µs, so a job must carry at least a handful of robots
/// before the wake-up pays for itself.
const MIN_ROBOTS_PER_JOB: usize = 4;

/// Lanes of a slab tile, the one width the fleet runs the NUISE kernels
/// at: wide enough for full AVX-512 `f64` lanes and two AVX2 vectors per
/// slab element.
const SLAB_LANES: usize = 8;

/// One robot's inputs for a fleet tick: the planned command of the
/// previous iteration and the fresh readings of every sensing workflow,
/// in suite order (exactly [`RoboAds::step`]'s arguments).
#[derive(Debug, Clone, Copy)]
pub struct RobotInput<'a> {
    /// Planned actuator command `u_{k-1}`.
    pub u_prev: &'a Vector,
    /// Sensor readings in suite order.
    pub readings: &'a [Vector],
}

/// Internal view unifying the dense ([`FleetEngine::step_batch`]),
/// masked ([`FleetEngine::step_batch_masked`]) and ingest-published
/// ([`FleetIngest::step`]) input shapes, so all three share one
/// scheduling/slab implementation without any of them allocating a
/// `Vec<Option<_>>` per tick (which would break the warm-path
/// zero-allocation invariant pinned by `tests/alloc.rs`).
#[derive(Clone, Copy)]
enum Inputs<'i, 'a> {
    Dense(&'i [RobotInput<'a>]),
    Masked(&'i [Option<RobotInput<'a>>]),
    Published(&'a FleetIngest),
}

impl<'a> Inputs<'_, 'a> {
    fn len(&self) -> usize {
        match self {
            Inputs::Dense(inputs) => inputs.len(),
            Inputs::Masked(inputs) => inputs.len(),
            Inputs::Published(ingest) => ingest.len(),
        }
    }

    /// Robot `i`'s input, or `None` when it missed the tick boundary.
    /// Indexed by **fleet index** (the caller's robot order), not by
    /// internal cell position.
    fn get(&self, i: usize) -> Option<RobotInput<'a>> {
        match self {
            Inputs::Dense(inputs) => Some(inputs[i]),
            Inputs::Masked(inputs) => inputs[i],
            Inputs::Published(ingest) => ingest.input(i),
        }
    }

    /// Robot `i`'s input, or the [`CoreError::MissedDeadline`] its
    /// iteration ends with.
    fn of(&self, i: usize) -> Result<RobotInput<'a>> {
        self.get(i).ok_or(CoreError::MissedDeadline { robot: i })
    }
}

/// Per-robot cell of the fleet slab: everything one robot's step
/// touches lives here, so a pool job owns its robots' cells exclusively
/// and the scheduler never synchronizes on shared detector state.
#[derive(Debug)]
struct RobotCell {
    detector: RoboAds,
    report: DetectionReport,
    /// Outcome of the robot's last step (`Ok` until its first failure).
    result: Result<()>,
    /// The robot's caller-facing fleet index. Cells are stored
    /// group-major once the partition resolves, so every input lookup,
    /// telemetry span, recorder stamp and error report maps back
    /// through this id.
    fleet: usize,
}

impl RobotCell {
    /// Stores the robot's outcome for the batch, recording the tick when
    /// the iteration completed.
    fn finish(&mut self, result: Result<()>, inputs: Inputs<'_, '_>, stamp: u64) {
        if let (Ok(()), Some(input)) = (&result, inputs.get(self.fleet)) {
            self.detector
                .record_tick(stamp, input.u_prev, input.readings, &self.report);
        }
        self.result = result;
    }
}

/// One pool job's slab scratch for the lane-batched fleet path: one
/// [`NuiseSlabWorkspace`] and one [`NormalizedStatistic`] per mode, plus
/// the per-tick buckets of the aggregate pass, reused tick after tick so
/// the warm path allocates nothing. Jobs never share scratch, so the
/// pool path stays synchronization-free.
#[derive(Debug)]
struct SlabJob<const K: usize> {
    bank: Vec<NuiseSlabWorkspace<K>>,
    /// Per mode: the aggregate sensor statistic of the job's robots that
    /// selected it, `K` lanes at a time.
    aggregates: Vec<NormalizedStatistic<K>>,
    /// Per mode: the job's committed robots (cell offsets in the job's
    /// range) that selected it this tick.
    buckets: Vec<Vec<usize>>,
    /// Per cell of the job's range: its batched aggregate statistic, or
    /// `None` when no pass computed one (uncommitted, or an empty
    /// testing set).
    statistics: Vec<Option<Result<f64>>>,
}

/// The grouping key of the heterogeneous-fleet partition: robots whose
/// keys are equal run bitwise-identical per-mode arithmetic and may
/// share a slab. The model half is [`ModelSignature`]; the rest are the
/// engine-level config discriminants the slab kernels specialize on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    signature: ModelSignature,
    modes: ModeSet,
    compensate: bool,
    /// Whether the engine relinearizes per iteration — the only
    /// linearization policy the fleet slabs (a frozen operating point
    /// is per-robot model state this key does not carry). Non-eligible
    /// robots still group (scalar groups step contiguously) but never
    /// slab.
    per_iteration: bool,
}

/// How one signature group executes its robots each tick.
#[derive(Debug)]
enum GroupKind {
    /// Per-robot stepping through [`RoboAds::step_into`]: the group is
    /// smaller than one tile or not on per-iteration linearization.
    Scalar,
    /// 8-lane slab scratch, one bank per pool job.
    K8(Vec<SlabJob<SLAB_LANES>>),
}

/// One signature group of the resolved partition: a contiguous run of
/// `len` cells (cells are reordered group-major at resolution) plus the
/// execution kind decided by the **per-group** small-fleet rule — a
/// group slabs iff its *own* robot count fills at least one `K`-lane
/// tile, independent of the fleet total or any other group's size.
#[derive(Debug)]
struct SlabGroup {
    /// Robots in this group (cells `[start, start + len)` of the
    /// group-major order; `start` is the running prefix sum).
    len: usize,
    kind: GroupKind,
}

/// Resolved state of the fleet's SIMD-batched slab path. Resolution is
/// lazy (first [`FleetEngine::step_batch`] after construction or
/// [`FleetEngine::push`]): any membership change resets the state to
/// [`SlabState::Unknown`], and the next batch re-partitions the fleet
/// into model-signature groups, reorders the cells group-major and
/// rebuilds each slab group's per-job scratch.
#[derive(Debug)]
enum SlabState {
    /// Not yet partitioned against the current fleet composition.
    Unknown,
    /// Partitioned: one [`SlabGroup`] per distinct [`GroupKey`], in
    /// first-appearance (fleet) order, covering every robot exactly
    /// once.
    Grouped(Vec<SlabGroup>),
}

/// Pre-registered fleet-level metric handles, so refreshing them on
/// re-partition does not touch the registry's lock-protected name map.
#[derive(Debug)]
struct FleetInstruments {
    /// Signature groups currently on the lane-batched slab path.
    slab_groups: Gauge,
    /// Robots stepped through slab tiles.
    slab_robots: Gauge,
    /// Robots stepped per-robot (sub-tile groups or non-per-iteration
    /// linearization).
    scalar_robots: Gauge,
    /// Re-partitions forced by membership changes (the first, lazy
    /// partition is construction, not a regroup).
    regroups: Counter,
}

impl FleetInstruments {
    fn new(telemetry: &Telemetry) -> Self {
        let m = telemetry.metrics();
        FleetInstruments {
            slab_groups: m.gauge("fleet.slab_groups"),
            slab_robots: m.gauge("fleet.slab_robots"),
            scalar_robots: m.gauge("fleet.scalar_robots"),
            regroups: m.counter("fleet.regroups"),
        }
    }
}

/// Steps a fleet of independent detectors, batched per control tick.
///
/// Robots may be fully heterogeneous — each cell owns a complete
/// [`RoboAds`], so mixed platforms, mode banks and configs coexist in
/// one fleet. Parallelism is at robot grain: a `threads > 1` fleet
/// splits each group into contiguous chunks, one pool job per worker
/// per tick.
///
/// # SIMD-batched slab path (per-group)
///
/// At the first batch after construction or [`FleetEngine::push`], the
/// fleet is partitioned into **model-signature groups**: robots sharing
/// one [`roboads_models::ModelSignature`] (same dynamics/sensor `Arc`s
/// and bitwise-equal process noise), mode bank, compensation setting
/// and per-iteration linearization. Each group whose
/// robot count fills at least one 8-lane tile is stepped through
/// structure-of-arrays NUISE kernels that vectorize *across robots*;
/// the rest run the per-robot path. The small-fleet rule is
/// **per group**: a 40-robot fleet of five signatures with one 8-robot
/// group slabs that group — a group below one tile would run every
/// batch on a single mostly-masked tile, so it (and only it) stays
/// scalar, regardless of the fleet total.
///
/// Results are bitwise identical to standalone detectors in every case:
/// tiles and standalone robots run the same iteration driver, the slab
/// kernels replicate the scalar arithmetic per lane, and a lane that
/// fails carries exactly the standalone error while the tile's other
/// lanes, and other groups, are untouched (see `DESIGN.md` §13, §16).
///
/// # Example
///
/// ```
/// use roboads_core::{FleetEngine, ModeSet, RoboAds, RoboAdsConfig, RobotInput};
/// use roboads_linalg::Vector;
/// use roboads_models::presets;
///
/// # fn main() -> Result<(), roboads_core::CoreError> {
/// let system = presets::khepera_system();
/// let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
/// let make = || RoboAds::with_defaults(system.clone(), x0.clone());
/// let mut fleet = FleetEngine::new((0..8).map(|_| make()).collect::<Result<_, _>>()?, 1);
///
/// let u = Vector::from_slice(&[0.05, 0.05]);
/// let x1 = system.dynamics().step(&x0, &u);
/// let readings: Vec<_> = (0..3)
///     .map(|i| system.sensor(i).unwrap().measure(&x1))
///     .collect();
/// let inputs = vec![RobotInput { u_prev: &u, readings: &readings }; 8];
/// fleet.step_batch(&inputs)?;
/// assert!(!fleet.report(0).sensor_misbehavior_detected());
/// // One homogeneous signature group, all 8 robots on the slab path.
/// assert_eq!(fleet.slab_groups(), 1);
/// assert_eq!(fleet.slab_robots(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FleetEngine {
    /// Robot cells in *cell* order: fleet order until the first
    /// partition, group-major afterwards. [`FleetEngine::slots`] maps a
    /// fleet index to its cell.
    cells: Vec<RobotCell>,
    /// `slots[fleet_index]` = position of that robot's cell in
    /// [`FleetEngine::cells`]. Identity until the first partition.
    slots: Vec<usize>,
    /// Robot-grain worker pool; `None` runs the slab sequentially.
    pool: Option<Arc<Pool>>,
    threads: usize,
    /// Lazily-resolved per-group slab partition (see [`SlabState`]).
    slab: SlabState,
    /// Tick counter used to stamp recorded batches when the caller does
    /// not provide one.
    tick: u64,
    /// One-shot stamp override for the next batch (set by the ingest
    /// boundary from its [`crate::SwapSummary`]).
    pending_stamp: Option<u64>,
    /// Completed partitions, so a membership-forced re-partition can be
    /// told apart from the first (construction) one.
    partitions: u64,
    telemetry: Telemetry,
    instruments: FleetInstruments,
}

impl FleetEngine {
    /// Builds a fleet from per-robot detectors and a worker count
    /// (clamped to at least 1; `1` means fully sequential ticks). The
    /// fleet's pool is the only threading grain: each detector steps its
    /// mode bank sequentially inside whichever job owns its robot.
    pub fn new(detectors: Vec<RoboAds>, threads: usize) -> Self {
        let threads = threads.max(1);
        let pool = (threads > 1).then(|| {
            Arc::new(Pool::with_thread_setup(threads, |i| {
                roboads_obs::set_worker(i as u32 + 1)
            }))
        });
        let telemetry = Telemetry::disabled();
        let instruments = FleetInstruments::new(&telemetry);
        let mut fleet = FleetEngine {
            cells: Vec::with_capacity(detectors.len()),
            slots: Vec::with_capacity(detectors.len()),
            pool,
            threads,
            slab: SlabState::Unknown,
            tick: 0,
            pending_stamp: None,
            partitions: 0,
            telemetry,
            instruments,
        };
        for d in detectors {
            fleet.push(d);
        }
        fleet
    }

    /// Robot `fleet_index`'s grouping key. Allocates (signature + mode
    /// bank clone); called only at partition time.
    fn group_key(cell: &RobotCell) -> GroupKey {
        let e = cell.detector.engine();
        GroupKey {
            signature: e.system().signature(),
            modes: e.modes().clone(),
            compensate: e.compensate(),
            per_iteration: matches!(e.linearization(), Linearization::PerIteration),
        }
    }

    /// Builds the per-job slab banks for the group at cells
    /// `[start, start + len)` and lane width `K`: one job on the
    /// sequential path, one per lane-aligned pool chunk otherwise.
    fn build_group_jobs<const K: usize>(&self, start: usize, len: usize) -> Vec<SlabJob<K>> {
        let rep = self.cells[start].detector.engine();
        let job_count = match &self.pool {
            None => 1,
            Some(pool) => {
                let chunk = pool.chunk_size_aligned(len, MIN_ROBOTS_PER_JOB, K);
                len.div_ceil(chunk).max(1)
            }
        };
        let kernels = rep.kernels();
        (0..job_count)
            .map(|_| SlabJob {
                bank: kernels.iter().map(ModeKernel::workspace).collect(),
                aggregates: kernels
                    .iter()
                    .map(|k| NormalizedStatistic::new(k.testing_dim()))
                    .collect(),
                buckets: vec![Vec::new(); kernels.len()],
                statistics: Vec::new(),
            })
            .collect()
    }

    /// Resolves [`SlabState::Unknown`] against the current fleet:
    /// partitions robots into signature groups (first-appearance order,
    /// fleet order within each group), physically reorders the cells
    /// group-major so every group is one contiguous lane-tileable
    /// slice, rebuilds each eligible group's slab scratch, and
    /// refreshes the grouping gauges. Emits a `fleet.regroup` event
    /// when a membership change forced this re-partition.
    fn resolve_slab(&mut self) {
        if !matches!(self.slab, SlabState::Unknown) {
            return;
        }
        let members = self.signature_groups();

        // Reorder cells group-major (stable: fleet order within each
        // group) and rebuild the fleet-index -> cell map.
        let mut old: Vec<Option<RobotCell>> = std::mem::take(&mut self.cells)
            .into_iter()
            .map(Some)
            .collect();
        let mut cells = Vec::with_capacity(old.len());
        let mut ranges = Vec::with_capacity(members.len());
        for group in &members {
            let start = cells.len();
            for &fleet in group {
                let cell = old[self.slots[fleet]]
                    .take()
                    .expect("every robot belongs to exactly one group");
                cells.push(cell);
            }
            ranges.push((start, group.len()));
        }
        self.cells = cells;
        for (slot, cell) in self.cells.iter().enumerate() {
            self.slots[cell.fleet] = slot;
        }

        // Decide each group's execution kind by the per-group
        // small-fleet rule and build slab scratch.
        let mut slab_groups = 0usize;
        let mut slab_robots = 0usize;
        let mut grouped = Vec::with_capacity(ranges.len());
        for &(start, len) in &ranges {
            let rep = self.cells[start].detector.engine();
            let eligible =
                matches!(rep.linearization(), Linearization::PerIteration) && len >= SLAB_LANES;
            let kind = if !eligible {
                GroupKind::Scalar
            } else {
                slab_groups += 1;
                slab_robots += len;
                GroupKind::K8(self.build_group_jobs(start, len))
            };
            grouped.push(SlabGroup { len, kind });
        }

        let scalar_robots = self.cells.len() - slab_robots;
        self.instruments.slab_groups.set(slab_groups as f64);
        self.instruments.slab_robots.set(slab_robots as f64);
        self.instruments.scalar_robots.set(scalar_robots as f64);
        if self.partitions > 0 {
            self.instruments.regroups.incr();
            let robots = self.cells.len() as u64;
            let groups = grouped.len() as u64;
            self.telemetry.event("fleet.regroup", || {
                vec![
                    ("robots", Value::U64(robots)),
                    ("groups", Value::U64(groups)),
                    ("slab_groups", Value::U64(slab_groups as u64)),
                    ("slab_robots", Value::U64(slab_robots as u64)),
                    ("scalar_robots", Value::U64(scalar_robots as u64)),
                ]
            });
        }
        self.partitions += 1;
        self.slab = SlabState::Grouped(grouped);
    }

    /// `(slab groups, slab robots, scalar robots)` of the resolved
    /// partition; all zero while the partition is unresolved.
    fn group_stats(&self) -> (usize, usize, usize) {
        match &self.slab {
            SlabState::Unknown => (0, 0, 0),
            SlabState::Grouped(groups) => {
                let mut stats = (0, 0, 0);
                for group in groups {
                    match group.kind {
                        GroupKind::Scalar => stats.2 += group.len,
                        GroupKind::K8(_) => {
                            stats.0 += 1;
                            stats.1 += group.len;
                        }
                    }
                }
                stats
            }
        }
    }

    /// Signature groups currently on the lane-batched slab path.
    ///
    /// The partition resolves lazily: `0` until the first
    /// [`FleetEngine::step_batch`] after construction or
    /// [`FleetEngine::push`].
    pub fn slab_groups(&self) -> usize {
        self.group_stats().0
    }

    /// Robots currently stepped through slab tiles (see
    /// [`FleetEngine::slab_groups`] for the lazy-resolution caveat).
    pub fn slab_robots(&self) -> usize {
        self.group_stats().1
    }

    /// Robots currently stepped per-robot: members of sub-tile groups or
    /// of non-per-iteration linearizations (see
    /// [`FleetEngine::slab_groups`] for the lazy-resolution caveat).
    pub fn scalar_robots(&self) -> usize {
        self.group_stats().2
    }

    /// Appends another robot to the fleet. The signature partition is
    /// re-resolved on the next batch (`fleet.regroup` event, refreshed
    /// grouping gauges).
    pub fn push(&mut self, detector: RoboAds) {
        let fleet = self.slots.len();
        self.slots.push(self.cells.len());
        self.cells.push(RobotCell {
            detector,
            report: DetectionReport::blank(),
            result: Ok(()),
            fleet,
        });
        // Fleet composition changed; re-partition the signature groups
        // (and job sizing) on the next batch.
        self.slab = SlabState::Unknown;
    }

    /// Number of robots in the fleet.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the fleet has no robots.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Robot-grain worker count (`1` = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Threads one telemetry context through every robot's pipeline and
    /// re-registers the fleet-level instruments (grouping gauges,
    /// regroup counter) on its registry. Spans recorded during
    /// [`FleetEngine::step_batch`] carry the robot's id
    /// (`robot_index + 1`) so one shared sink can attribute them; see
    /// [`roboads_obs::set_robot`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for cell in &mut self.cells {
            cell.detector.set_telemetry(telemetry.clone());
        }
        self.instruments = FleetInstruments::new(&telemetry);
        self.telemetry = telemetry;
        if !matches!(self.slab, SlabState::Unknown) {
            let (slab_groups, slab_robots, scalar_robots) = self.group_stats();
            self.instruments.slab_groups.set(slab_groups as f64);
            self.instruments.slab_robots.set(slab_robots as f64);
            self.instruments.scalar_robots.set(scalar_robots as f64);
        }
    }

    /// Attaches a [`crate::FlightRecorder`] to every robot, each stamped
    /// with its fleet index (see [`RoboAds::attach_recorder`]). Batches
    /// stepped afterwards are recorded on both the scalar and slab
    /// paths.
    pub fn attach_recorder(&mut self, config: RecorderConfig) {
        for cell in &mut self.cells {
            cell.detector.attach_recorder(config);
            let fleet = cell.fleet;
            if let Some(recorder) = cell.detector.recorder_mut() {
                recorder.set_robot(fleet as u32);
            }
        }
    }

    /// Robot `i`'s flight recorder, if attached.
    pub fn recorder(&self, i: usize) -> Option<&crate::FlightRecorder> {
        self.cells[self.slots[i]].detector.recorder()
    }

    /// Mutable access to robot `i`'s flight recorder, if attached.
    pub fn recorder_mut(&mut self, i: usize) -> Option<&mut crate::FlightRecorder> {
        self.cells[self.slots[i]].detector.recorder_mut()
    }

    /// Sets the tick stamp recorded for the *next* batch (one-shot).
    /// The ingest boundary calls this with the swap's published tick so
    /// records carry the stamped-bus timeline; without it, batches are
    /// stamped from an internal 0-based tick counter.
    pub fn set_tick_stamp(&mut self, stamp: u64) {
        self.pending_stamp = Some(stamp);
    }

    /// Seals any in-flight capsules (end of run); see
    /// [`crate::FlightRecorder::finish`].
    pub fn finish_recorders(&mut self) {
        for cell in &mut self.cells {
            if let Some(recorder) = cell.detector.recorder_mut() {
                recorder.finish();
            }
        }
    }

    /// Drains every robot's sealed capsules into one list (robots in
    /// fleet order; each capsule carries its robot index).
    pub fn take_capsules(&mut self) -> Vec<crate::IncidentCapsule> {
        let mut out = Vec::new();
        for i in 0..self.slots.len() {
            let slot = self.slots[i];
            if let Some(recorder) = self.cells[slot].detector.recorder_mut() {
                out.append(&mut recorder.take_capsules());
            }
        }
        out
    }

    /// Steps every robot once with its own inputs.
    ///
    /// All robots run every tick — a failing robot never stalls its
    /// neighbours — and the error reported is the *first failing
    /// robot's*, in fleet (robot-index) order, regardless of thread
    /// interleaving or grouping. Detection state is strictly per robot:
    /// a failing robot's report holds a partial verdict and its filter
    /// state is unchanged (exactly as a standalone
    /// [`RoboAds::step_into`] failure), while every robot whose
    /// [`FleetEngine::result`] is `Ok` has a fully valid, committed
    /// report — a neighbour's failure never taints it.
    ///
    /// A warmed-up sequential fleet (`threads == 1`) performs zero heap
    /// allocations per batch — grouped or not; a parallel fleet
    /// allocates only the pool's per-job boxes — O(workers), independent
    /// of fleet size.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadReadings`] when `inputs.len() != self.len()`,
    /// else the first robot failure in fleet order.
    pub fn step_batch(&mut self, inputs: &[RobotInput<'_>]) -> Result<()> {
        self.step_batch_inner(Inputs::Dense(inputs))
    }

    /// Like [`FleetEngine::step_batch`], but tolerates holes: a `None`
    /// input means the robot had no complete reading set at the tick
    /// boundary (the [`crate::FleetIngest`] front-end produces exactly
    /// this shape under its `MarkMissing` deadline policy). A missing
    /// robot's detector and report are left **untouched** — the
    /// iteration is skipped, exactly as if a standalone caller had
    /// elected not to call [`RoboAds::step`] — and its per-robot
    /// [`FleetEngine::result`] is [`CoreError::MissedDeadline`], so the
    /// absence itself is a queryable verdict. Present robots step
    /// normally and bitwise-identically to a fully dense batch.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadReadings`] when `inputs.len() != self.len()`,
    /// else the first robot failure in fleet order (a missed deadline
    /// counts as a failure).
    pub fn step_batch_masked(&mut self, inputs: &[Option<RobotInput<'_>>]) -> Result<()> {
        self.step_batch_inner(Inputs::Masked(inputs))
    }

    /// [`FleetEngine::step_batch_masked`] on `ingest`'s published batch
    /// ([`FleetIngest::input`] per robot).
    pub(crate) fn step_batch_published(&mut self, ingest: &FleetIngest) -> Result<()> {
        self.step_batch_inner(Inputs::Published(ingest))
    }

    fn step_batch_inner(&mut self, inputs: Inputs<'_, '_>) -> Result<()> {
        if inputs.len() != self.cells.len() {
            return Err(CoreError::BadReadings {
                reason: format!(
                    "fleet of {} robots stepped with {} inputs",
                    self.cells.len(),
                    inputs.len()
                ),
            });
        }
        self.resolve_slab();
        // One stamp per batch: the ingest's published tick when set,
        // else the engine's own counter. Taken by value so a robot that
        // misses this tick can never be recorded under a stale stamp.
        let stamp = self.pending_stamp.take().unwrap_or(self.tick);
        self.tick = stamp + 1;
        let cells = &mut self.cells[..];
        let pool = &self.pool;
        let SlabState::Grouped(groups) = &mut self.slab else {
            unreachable!("resolve_slab always leaves the fleet partitioned");
        };
        match pool {
            // Sequential: walk the group-major slab group by group.
            None => {
                let mut rest = cells;
                for group in groups.iter_mut() {
                    let (slice, tail) = rest.split_at_mut(group.len);
                    rest = tail;
                    match &mut group.kind {
                        GroupKind::Scalar => {
                            for cell in slice {
                                step_robot(cell, inputs, stamp);
                            }
                        }
                        GroupKind::K8(jobs) => step_range_slab(&mut jobs[0], slice, inputs, stamp),
                    }
                }
            }
            // Parallel: one scope for the whole tick; every group
            // contributes its own jobs, sliced within the group so no
            // lane tile (and no slab scratch) ever straddles groups.
            Some(pool) => {
                pool.scoped(|scope| {
                    let mut rest = cells;
                    for group in groups.iter_mut() {
                        let (slice, tail) = rest.split_at_mut(group.len);
                        rest = tail;
                        match &mut group.kind {
                            GroupKind::Scalar => {
                                let chunk = pool.chunk_size(slice.len(), MIN_ROBOTS_PER_JOB);
                                for cell_chunk in slice.chunks_mut(chunk) {
                                    scope.execute(move || {
                                        for cell in cell_chunk {
                                            step_robot(cell, inputs, stamp);
                                        }
                                    });
                                }
                            }
                            GroupKind::K8(jobs) => {
                                let chunk = pool.chunk_size_aligned(
                                    slice.len(),
                                    MIN_ROBOTS_PER_JOB,
                                    SLAB_LANES,
                                );
                                for (cell_chunk, job) in
                                    slice.chunks_mut(chunk).zip(jobs.iter_mut())
                                {
                                    scope.execute(move || {
                                        step_range_slab(job, cell_chunk, inputs, stamp)
                                    });
                                }
                            }
                        }
                    }
                });
            }
        }
        // First failure in fleet (robot-index) order, independent of
        // the internal group-major cell order.
        for &slot in &self.slots {
            if let Err(e) = &self.cells[slot].result {
                return Err(e.clone());
            }
        }
        Ok(())
    }

    /// Serializes the fleet's mutable state (tick counters plus every
    /// robot's detector, in fleet order). Part of
    /// [`crate::snapshot_fleet`]'s body; the partition and reports are
    /// derived state and are not captured.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        use roboads_obs::wire;
        wire::put_u64(out, self.tick);
        wire::put_bool(out, self.pending_stamp.is_some());
        wire::put_u64(out, self.pending_stamp.unwrap_or(0));
        wire::put_u32(out, self.slots.len() as u32);
        for &slot in &self.slots {
            self.cells[slot].detector.snap_write(out);
        }
    }

    /// Restores [`FleetEngine::snap_write`] state onto this fleet,
    /// which must hold identically-constructed twins of the
    /// snapshotted robots (same count, systems, mode banks, configs).
    /// Invalidates the signature partition, which re-resolves on the
    /// next batch.
    pub(crate) fn snap_read(&mut self, rd: &mut roboads_obs::wire::ByteReader<'_>) -> Result<()> {
        self.tick = rd.u64()?;
        let has_stamp = rd.bool()?;
        let stamp = rd.u64()?;
        self.pending_stamp = has_stamp.then_some(stamp);
        let count = rd.u32()? as usize;
        if count != self.slots.len() {
            return Err(crate::snapshot::snapshot_err(format!(
                "fleet size mismatch: snapshot {count} robots, twin {}",
                self.slots.len()
            )));
        }
        for i in 0..self.slots.len() {
            let slot = self.slots[i];
            self.cells[slot].detector.snap_read(rd)?;
        }
        self.slab = SlabState::Unknown;
        Ok(())
    }

    /// Fleet indices partitioned by signature [`GroupKey`]
    /// (first-appearance order, fleet order within each group) — the
    /// same partition [`FleetEngine::resolve_slab`] materializes, but
    /// computed on demand without touching the resolved state. The
    /// shard balancer steals at exactly this granularity so a migrated
    /// group's slab tiles never split across shards (`DESIGN.md` §16,
    /// §18).
    pub(crate) fn signature_groups(&self) -> Vec<Vec<usize>> {
        // A HashMap only deduplicates; group order is first appearance
        // in fleet order, so the partition (and therefore job shapes
        // and error ordering) is deterministic.
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut by_key: HashMap<GroupKey, usize> = HashMap::new();
        for fleet in 0..self.slots.len() {
            let key = Self::group_key(&self.cells[self.slots[fleet]]);
            let g = *by_key.entry(key).or_insert_with(|| {
                members.push(Vec::new());
                members.len() - 1
            });
            members[g].push(fleet);
        }
        members
    }

    /// Removes the robots at the given **sorted ascending** fleet
    /// indices and returns their detectors in that order. Remaining
    /// robots are renumbered to close the gaps (fleet order preserved);
    /// attached recorders are re-stamped with the new indices, and the
    /// signature partition is invalidated. Used by the shard balancer
    /// to migrate whole signature groups.
    pub(crate) fn remove_robots(&mut self, indices: &[usize]) -> Vec<RoboAds> {
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "remove_robots requires sorted, deduplicated indices"
        );
        let n = self.cells.len();
        let mut by_fleet: Vec<Option<RobotCell>> = (0..n).map(|_| None).collect();
        for cell in std::mem::take(&mut self.cells) {
            let fleet = cell.fleet;
            by_fleet[fleet] = Some(cell);
        }
        let mut next = indices.iter().peekable();
        let mut taken = Vec::with_capacity(indices.len());
        let mut kept = Vec::with_capacity(n - indices.len());
        for (fleet, cell) in by_fleet.into_iter().enumerate() {
            let cell = cell.expect("every fleet index has exactly one cell");
            if next.peek() == Some(&&fleet) {
                next.next();
                taken.push(cell.detector);
            } else {
                kept.push(cell);
            }
        }
        assert!(next.peek().is_none(), "remove_robots index out of range");
        self.slots.clear();
        self.cells = Vec::with_capacity(kept.len());
        for (fleet, mut cell) in kept.into_iter().enumerate() {
            cell.fleet = fleet;
            if let Some(recorder) = cell.detector.recorder_mut() {
                recorder.set_robot(fleet as u32);
            }
            self.slots.push(self.cells.len());
            self.cells.push(cell);
        }
        self.slab = SlabState::Unknown;
        taken
    }

    /// Robot `i`'s detector (its filter state, iteration counter, …).
    pub fn detector(&self, i: usize) -> &RoboAds {
        &self.cells[self.slots[i]].detector
    }

    /// Robot `i`'s report from the last [`FleetEngine::step_batch`].
    ///
    /// Report validity is **per robot**, keyed by robot `i`'s own
    /// [`FleetEngine::result`]: when `result(i)` is `Ok`, the report is
    /// fully committed and valid *regardless of what happened to any
    /// other robot in the batch* — a failing neighbour never taints it.
    /// When `result(i)` is an `Err`, robot `i`'s report holds a partial
    /// verdict from the failed step and should be discarded (for
    /// [`CoreError::MissedDeadline`] it is the previous tick's report,
    /// untouched).
    pub fn report(&self, i: usize) -> &DetectionReport {
        &self.cells[self.slots[i]].report
    }

    /// Robot `i`'s outcome from the last batch.
    pub fn result(&self, i: usize) -> &Result<()> {
        &self.cells[self.slots[i]].result
    }

    /// Iterates over the fleet's `(detector, report)` pairs in fleet
    /// (robot-index) order.
    pub fn iter(&self) -> impl Iterator<Item = (&RoboAds, &DetectionReport)> {
        self.slots.iter().map(|&slot| {
            let cell = &self.cells[slot];
            (&cell.detector, &cell.report)
        })
    }
}

/// Steps one robot through the per-robot scalar path (scalar groups and
/// the masked-hole case), recording the tick on success.
fn step_robot(cell: &mut RobotCell, inputs: Inputs<'_, '_>, stamp: u64) {
    // RAII reset: `step_into` runs inside a pool job whose panics are
    // caught by the worker, so a manual `set_robot(0)` after it would be
    // skipped on unwind and leak this robot's id into every later span
    // the worker closes.
    let _robot = roboads_obs::robot_scope(cell.fleet as u32 + 1);
    // A robot that missed the tick boundary skips the iteration, leaving
    // detector state and report untouched.
    let result = inputs.of(cell.fleet).and_then(|input| {
        cell.detector
            .step_into(input.u_prev, input.readings, &mut cell.report)
    });
    cell.finish(result, inputs, stamp);
}

/// Steps one job's contiguous robot range (all cells of one signature
/// group, or one lane-aligned chunk of it) in three phases:
///
/// 1. tile by tile, every robot plans, runs its NUISE lanes and commits
///    ([`step_tile`]); the final tile of the group's final job may be
///    partial and runs with the surplus lanes masked off;
/// 2. the committed robots are bucketed by selected mode, and each
///    bucket's aggregate sensor statistic runs `K` lanes wide
///    ([`aggregate_pass`]) — buckets span tiles, so nearly every pass is
///    full;
/// 3. in range order, each robot's decision tail reads its batched
///    statistic, and its outcome is recorded.
///
/// Phases 2 and 3 are [`decide_range`].
fn step_range_slab<const K: usize>(
    job: &mut SlabJob<K>,
    cells: &mut [RobotCell],
    inputs: Inputs<'_, '_>,
    stamp: u64,
) {
    for cells in cells.chunks_mut(K) {
        step_tile(&mut job.bank, &mut FleetTile { cells, inputs });
    }
    decide_range(job, cells, inputs, stamp);
}

/// Ends the iteration of every robot in `cells`, whose `result` holds
/// its commit outcome: batches the committed robots' aggregate
/// statistics ([`aggregate_pass`]), then runs each robot's decision
/// tail in range order and records its outcome.
fn decide_range<const K: usize>(
    job: &mut SlabJob<K>,
    cells: &mut [RobotCell],
    inputs: Inputs<'_, '_>,
    stamp: u64,
) {
    aggregate_pass(job, cells);
    for (cell, aggregate) in cells.iter_mut().zip(&mut job.statistics) {
        let _robot = roboads_obs::robot_scope(cell.fleet as u32 + 1);
        let committed = std::mem::replace(&mut cell.result, Ok(()));
        let result = committed.and_then(|()| {
            cell.detector
                .complete_iteration(&mut cell.report, aggregate.take())
        });
        cell.finish(result, inputs, stamp);
    }
}

/// Phase 2 of [`step_range_slab`]: fills `job.statistics` with the
/// aggregate sensor statistic (or its error) of every committed robot
/// in `cells` whose selected mode tests a sensor. Robots are bucketed by
/// selected mode, so each pass runs one mode's shape; a lane that does
/// not converge takes the error the one-lane path returns, and its
/// bucket neighbours are unaffected.
fn aggregate_pass<const K: usize>(job: &mut SlabJob<K>, cells: &[RobotCell]) {
    // Room for the whole range in every bucket, so a tick on which more
    // robots than ever select one mode does not allocate.
    for bucket in &mut job.buckets {
        bucket.clear();
        bucket.reserve(cells.len());
    }
    job.statistics.clear();
    job.statistics.resize_with(cells.len(), || None);
    for (i, cell) in cells.iter().enumerate() {
        let out = cell.detector.last_engine_output();
        if cell.result.is_ok() && !out.selected_output().sensor_anomaly.is_empty() {
            job.buckets[out.selected].push(i);
        }
    }
    for (bucket, agg) in job.buckets.iter().zip(&mut job.aggregates) {
        for chunk in bucket.chunks(K) {
            let mut active = [false; K];
            for (l, &i) in chunk.iter().enumerate() {
                let out = cells[i].detector.last_engine_output().selected_output();
                agg.load_lane(l, &out.sensor_anomaly, &out.sensor_covariance);
                active[l] = true;
            }
            agg.run(&active);
            for (l, &i) in chunk.iter().enumerate() {
                job.statistics[i] = Some(agg.lane(l));
            }
        }
    }
}

/// A ≤K-robot slab tile of one signature group. Every lane shares the
/// first cell's models, mode bank and thresholds; each lane's input
/// lookup, span id and error index map back through its cell's fleet
/// index.
struct FleetTile<'c, 'i, 'a> {
    cells: &'c mut [RobotCell],
    inputs: Inputs<'i, 'a>,
}

impl<'a> Tile<'a> for FleetTile<'_, '_, 'a> {
    fn lanes(&self) -> usize {
        self.cells.len()
    }

    fn input(&self, l: usize) -> Result<RobotInput<'a>> {
        self.inputs.of(self.cells[l].fleet)
    }

    fn engine(&mut self, l: usize) -> &mut MultiModeEngine {
        self.cells[l].detector.engine_mut()
    }

    fn scope(&self, l: usize) -> Option<roboads_obs::RobotScope> {
        Some(roboads_obs::robot_scope(self.cells[l].fleet as u32 + 1))
    }

    /// Holds the commit outcome until the range's decision phase.
    fn finish(&mut self, l: usize, result: Result<()>) {
        self.cells[l].result = result;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RoboAdsConfig;
    use crate::mode::ModeSet;
    use roboads_models::{presets, RobotSystem};

    fn detector() -> RoboAds {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        RoboAds::with_defaults(system, x0).unwrap()
    }

    fn detector_for(system: &RobotSystem) -> RoboAds {
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let modes = ModeSet::one_reference_per_sensor(system);
        RoboAds::new(system.clone(), RoboAdsConfig::paper_defaults(), x0, modes).unwrap()
    }

    fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
        (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(x))
            .collect()
    }

    #[test]
    fn batch_of_identical_robots_agrees_with_standalone() {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut standalone = detector();
        let mut fleet = FleetEngine::new((0..4).map(|_| detector()).collect(), 1);
        assert_eq!(fleet.len(), 4);
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        for k in 0..10 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            if k >= 4 {
                readings[0][0] += 0.07;
            }
            let expected = standalone.step(&u, &readings).unwrap();
            let inputs = vec![
                RobotInput {
                    u_prev: &u,
                    readings: &readings,
                };
                4
            ];
            fleet.step_batch(&inputs).unwrap();
            for (_, report) in fleet.iter() {
                assert_eq!(report, &expected, "robot diverged at step {k}");
            }
        }
    }

    #[test]
    fn input_count_mismatch_is_rejected() {
        let mut fleet = FleetEngine::new(vec![detector()], 1);
        let u = Vector::from_slice(&[0.0, 0.0]);
        let readings: Vec<Vector> = Vec::new();
        let err = fleet
            .step_batch(
                &[RobotInput {
                    u_prev: &u,
                    readings: &readings,
                }; 2],
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::BadReadings { .. }));
    }

    #[test]
    fn failing_robot_reports_error_but_others_advance() {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut fleet = FleetEngine::new((0..3).map(|_| detector()).collect(), 1);
        let u = Vector::from_slice(&[0.06, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        let good = clean_readings(&system, &x1);
        let bad: Vec<Vector> = Vec::new(); // malformed: robot 1 fails
        let inputs = [
            RobotInput {
                u_prev: &u,
                readings: &good,
            },
            RobotInput {
                u_prev: &u,
                readings: &bad,
            },
            RobotInput {
                u_prev: &u,
                readings: &good,
            },
        ];
        assert!(fleet.step_batch(&inputs).is_err());
        assert!(fleet.result(0).is_ok());
        assert!(fleet.result(1).is_err());
        assert!(fleet.result(2).is_ok());
        // The healthy robots completed their iteration.
        assert_eq!(fleet.detector(0).iteration(), 1);
        assert_eq!(fleet.detector(1).iteration(), 0);
        assert_eq!(fleet.detector(2).iteration(), 1);
    }

    #[test]
    fn masked_batch_skips_missing_robot_and_advances_the_rest() {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut fleet = FleetEngine::new((0..3).map(|_| detector()).collect(), 1);
        let mut twin = FleetEngine::new((0..3).map(|_| detector()).collect(), 1);
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        for k in 0..6 {
            x_true = system.dynamics().step(&x_true, &u);
            let readings = clean_readings(&system, &x_true);
            let input = RobotInput {
                u_prev: &u,
                readings: &readings,
            };
            twin.step_batch(&[input; 3]).unwrap();
            // Robot 1 misses ticks 2 and 3 in the masked fleet.
            let hole = k == 2 || k == 3;
            let masked = [Some(input), (!hole).then_some(input), Some(input)];
            let batch = fleet.step_batch_masked(&masked);
            if hole {
                assert!(matches!(batch, Err(CoreError::MissedDeadline { robot: 1 })));
                assert!(matches!(
                    fleet.result(1),
                    Err(CoreError::MissedDeadline { robot: 1 })
                ));
            } else {
                batch.unwrap();
            }
            // Neighbours are bitwise identical to the dense twin run.
            assert_eq!(fleet.report(0), twin.report(0), "robot 0 diverged at {k}");
            assert_eq!(fleet.report(2), twin.report(2), "robot 2 diverged at {k}");
        }
        // The skipped robot lost exactly its two missed iterations.
        assert_eq!(fleet.detector(0).iteration(), 6);
        assert_eq!(fleet.detector(1).iteration(), 4);
        assert_eq!(fleet.detector(2).iteration(), 6);
    }

    #[test]
    fn neighbour_failure_leaves_a_succeeding_robots_report_fully_valid() {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut fleet = FleetEngine::new((0..2).map(|_| detector()).collect(), 1);
        let mut twin = detector();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        let bad: Vec<Vector> = Vec::new(); // malformed: robot 1 fails mid-batch
        for k in 0..5 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            if k >= 2 {
                readings[0][0] += 0.07; // give robot 0 a real verdict to carry
            }
            let expected = twin.step(&u, &readings).unwrap();
            let inputs = [
                RobotInput {
                    u_prev: &u,
                    readings: &readings,
                },
                RobotInput {
                    u_prev: &u,
                    readings: &bad,
                },
            ];
            assert!(fleet.step_batch(&inputs).is_err());
            assert!(fleet.result(0).is_ok());
            assert!(fleet.result(1).is_err());
            // Robot 0's report is complete and committed — bitwise equal
            // to a standalone run — despite its neighbour failing every
            // tick of the batch sequence.
            assert_eq!(fleet.report(0), &expected, "report tainted at step {k}");
        }
    }

    /// Corrupts the committed selected-mode sensor covariance of
    /// `detector`'s last output with a NaN off-diagonal pair, so its
    /// aggregate statistic cannot converge.
    fn poison_aggregate(detector: &mut RoboAds) {
        let out = detector.engine_mut().output_mut();
        let cov = &mut out.modes[out.selected].sensor_covariance;
        cov[(0, 1)] = f64::NAN;
        cov[(1, 0)] = f64::NAN;
    }

    #[test]
    fn non_converging_aggregate_lane_fails_alone_with_the_standalone_error() {
        // Eleven robots in one slab job; every third one is spoofed on
        // the IPS, so the per-mode buckets differ. On the test tick robot
        // 5's committed output is poisoned between the NUISE phase and
        // the decision phase: its aggregate lane must end its iteration
        // with exactly the one-lane path's error, and its bucket
        // neighbours must stay bitwise equal to standalone detectors.
        const ROBOTS: usize = 11;
        const BAD: usize = 5;
        const POISONED_TICK: usize = 4;
        let system = presets::khepera_system();
        let template = detector_for(&system);
        let mut fleet = FleetEngine::new(vec![template.clone(); ROBOTS], 1);
        let mut twins = vec![template; ROBOTS];
        let mut twin_reports = vec![DetectionReport::blank(); ROBOTS];
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
        for k in 0..POISONED_TICK + 3 {
            x_true = system.dynamics().step(&x_true, &u);
            let readings: Vec<Vec<Vector>> = (0..ROBOTS)
                .map(|i| {
                    let mut r = clean_readings(&system, &x_true);
                    if i % 3 == 1 && k >= 1 {
                        r[0][0] += 0.1;
                    }
                    r
                })
                .collect();
            let batch: Vec<RobotInput<'_>> = readings
                .iter()
                .map(|r| RobotInput {
                    u_prev: &u,
                    readings: r,
                })
                .collect();
            let mut twin_results = Vec::new();
            for (i, twin) in twins.iter_mut().enumerate() {
                twin.engine_mut().step_in_place(&u, &readings[i]).unwrap();
                if k == POISONED_TICK && i == BAD {
                    poison_aggregate(twin);
                }
                twin_results.push(twin.complete_iteration(&mut twin_reports[i], None));
            }
            if k == POISONED_TICK {
                // The fleet tick by its phases, with the poison between.
                let inputs = Inputs::Dense(&batch);
                let SlabState::Grouped(groups) = &mut fleet.slab else {
                    panic!("the fleet is partitioned after its first tick");
                };
                let GroupKind::K8(jobs) = &mut groups[0].kind else {
                    panic!("eleven robots fill a tile, so the group slabs");
                };
                let job = &mut jobs[0];
                let cells = &mut fleet.cells[..];
                for tile in cells.chunks_mut(SLAB_LANES) {
                    step_tile(
                        &mut job.bank,
                        &mut FleetTile {
                            cells: tile,
                            inputs,
                        },
                    );
                }
                let bad = cells.iter_mut().find(|c| c.fleet == BAD).unwrap();
                poison_aggregate(&mut bad.detector);
                let selected = bad.detector.last_engine_output().selected;
                let neighbours = cells
                    .iter()
                    .filter(|c| c.fleet != BAD)
                    .filter(|c| c.detector.last_engine_output().selected == selected)
                    .count();
                assert!(neighbours > 0, "the poisoned lane shares its bucket");
                decide_range(job, cells, inputs, k as u64);
                // The Jacobi sweep cap, through the statistic's error.
                let no_convergence = roboads_linalg::LinalgError::NoConvergence {
                    sweeps: roboads_linalg::JACOBI_MAX_SWEEPS,
                };
                assert_eq!(
                    twin_results[BAD],
                    Err(roboads_stats::StatsError::from(no_convergence).into())
                );
            } else {
                let _ = fleet.step_batch(&batch);
            }
            for i in 0..ROBOTS {
                assert_eq!(fleet.result(i), &twin_results[i], "robot {i} tick {k}");
                assert_eq!(
                    crate::snapshot::snapshot_detector(fleet.detector(i)),
                    crate::snapshot::snapshot_detector(&twins[i]),
                    "robot {i} detector at tick {k}"
                );
                if twin_results[i].is_ok() {
                    assert_eq!(fleet.report(i), &twin_reports[i], "robot {i} tick {k}");
                }
            }
        }
        // The poisoned robot lost exactly that iteration's decision.
        assert_eq!(fleet.detector(BAD).iteration(), POISONED_TICK as u64 + 2);
        assert_eq!(fleet.detector(0).iteration(), POISONED_TICK as u64 + 3);
    }

    /// Steps `fleet` once with clean inputs so the partition resolves.
    fn step_once(fleet: &mut FleetEngine, system: &RobotSystem) {
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let u = Vector::from_slice(&[0.06, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        let readings = clean_readings(system, &x1);
        let inputs = vec![
            RobotInput {
                u_prev: &u,
                readings: &readings,
            };
            fleet.len()
        ];
        fleet.step_batch(&inputs).unwrap();
    }

    #[test]
    fn one_odd_robot_no_longer_collapses_the_fleet_to_scalar() {
        // 8 robots share one system; the 9th is a separately
        // instantiated (pointer-distinct) Khepera. Pre-grouping, that
        // single odd robot dropped all 8 neighbours to the scalar path;
        // now the homogeneous group keeps its 8-lane slab and only the
        // odd robot runs scalar.
        let shared = presets::khepera_system();
        let odd = presets::khepera_system();
        let mut detectors: Vec<RoboAds> = (0..8).map(|_| detector_for(&shared)).collect();
        detectors.push(detector_for(&odd));
        let mut fleet = FleetEngine::new(detectors, 1);
        assert_eq!(fleet.slab_groups(), 0, "partition is lazy");
        step_once(&mut fleet, &shared);
        assert_eq!(fleet.slab_groups(), 1);
        assert_eq!(fleet.slab_robots(), 8);
        assert_eq!(fleet.scalar_robots(), 1);
    }

    #[test]
    fn small_fleet_rule_is_per_group() {
        // A 40-robot fleet of five signatures, interleaved so the
        // groups are scattered across fleet order. Group sizes {8, 7,
        // 7, 9, 9} at 8 lanes: the three groups that fill a tile slab;
        // the two 7-robot groups stay scalar — the threshold is each
        // group's own size, never the fleet total.
        let sizes = [8usize, 7, 7, 9, 9];
        let systems: Vec<RobotSystem> = sizes.iter().map(|_| presets::khepera_system()).collect();
        let mut remaining = sizes;
        let mut detectors = Vec::new();
        loop {
            let mut dealt = false;
            for (g, left) in remaining.iter_mut().enumerate() {
                if *left > 0 {
                    *left -= 1;
                    dealt = true;
                    detectors.push(detector_for(&systems[g]));
                }
            }
            if !dealt {
                break;
            }
        }
        assert_eq!(detectors.len(), 40);
        let mut fleet = FleetEngine::new(detectors, 1);
        step_once(&mut fleet, &systems[0]);
        assert_eq!(fleet.slab_groups(), 3);
        assert_eq!(fleet.slab_robots(), 8 + 9 + 9);
        assert_eq!(fleet.scalar_robots(), 7 + 7);
    }

    #[test]
    fn differing_config_discriminants_split_groups() {
        // Same system `Arc`s but different mode banks / compensation
        // must not share a slab: the kernels specialize on those.
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut detectors: Vec<RoboAds> = (0..8).map(|_| detector_for(&system)).collect();
        for _ in 0..8 {
            detectors.push(
                RoboAds::new(
                    system.clone(),
                    RoboAdsConfig::paper_defaults(),
                    x0.clone(),
                    ModeSet::complete(&system),
                )
                .unwrap(),
            );
        }
        let mut fleet = FleetEngine::new(detectors, 1);
        step_once(&mut fleet, &system);
        assert_eq!(fleet.slab_groups(), 2);
        assert_eq!(fleet.slab_robots(), 16);
        assert_eq!(fleet.scalar_robots(), 0);
    }

    #[test]
    fn membership_change_emits_regroup_and_refreshes_gauges() {
        use roboads_obs::RingBufferSink;
        let ring = Arc::new(RingBufferSink::new(1024));
        let telemetry = Telemetry::new(ring.clone());
        let system = presets::khepera_system();
        let mut fleet = FleetEngine::new((0..8).map(|_| detector_for(&system)).collect(), 1);
        fleet.set_telemetry(telemetry.clone());
        step_once(&mut fleet, &system);
        let m = telemetry.metrics();
        assert_eq!(m.counter_value("fleet.regroups"), Some(0));
        assert_eq!(m.gauge("fleet.slab_robots").get(), 8.0);

        // Pushing a robot invalidates the partition; the next batch
        // re-partitions, bumps the regroup counter, emits the event and
        // refreshes the gauges.
        fleet.push(detector_for(&system));
        assert_eq!(fleet.slab_groups(), 0, "invalidated until the next batch");
        step_once(&mut fleet, &system);
        assert_eq!(m.counter_value("fleet.regroups"), Some(1));
        assert_eq!(m.gauge("fleet.slab_robots").get(), 9.0);
        assert_eq!(m.gauge("fleet.slab_groups").get(), 1.0);
        assert_eq!(m.gauge("fleet.scalar_robots").get(), 0.0);
        assert!(
            ring.events().iter().any(|e| e.name == "fleet.regroup"),
            "regroup event not emitted"
        );
    }

    #[test]
    fn grouped_fleet_accessors_stay_in_fleet_order() {
        // Interleave two signatures so the group-major reorder permutes
        // the cells, then check every fleet-index accessor still
        // addresses the robot the caller pushed at that index.
        let a = presets::khepera_system();
        let b = presets::khepera_system();
        let systems = [&a, &b, &a, &a, &b, &a, &a, &a, &a, &b, &a, &a];
        let mut fleet = FleetEngine::new(systems.iter().map(|s| detector_for(s)).collect(), 1);
        fleet.attach_recorder(RecorderConfig::default());
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        let mut twins: Vec<RoboAds> = systems.iter().map(|s| detector_for(s)).collect();
        for k in 0..6 {
            x_true = a.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&a, &x_true);
            if k >= 3 {
                readings[0][0] += 0.07;
            }
            // Give robot 5 its own distinct readings so a permuted
            // accessor (or input lookup) cannot go unnoticed.
            let mut special = readings.clone();
            special[1][0] += 0.002;
            let inputs: Vec<RobotInput> = (0..systems.len())
                .map(|i| RobotInput {
                    u_prev: &u,
                    readings: if i == 5 { &special } else { &readings },
                })
                .collect();
            fleet.step_batch(&inputs).unwrap();
            for (i, twin) in twins.iter_mut().enumerate() {
                let expected = twin
                    .step(&u, if i == 5 { &special } else { &readings })
                    .unwrap();
                assert_eq!(fleet.report(i), &expected, "robot {i} report at step {k}");
                assert_eq!(fleet.detector(i).iteration(), expected.iteration);
            }
        }
        // Group a (9 robots ≥ 8 lanes) slabs; group b (3 < 8) is scalar.
        assert_eq!(fleet.slab_groups(), 1);
        assert_eq!(fleet.slab_robots(), 9);
        assert_eq!(fleet.scalar_robots(), 3);
        // iter() yields fleet order.
        for (i, (d, _)) in fleet.iter().enumerate() {
            assert_eq!(d.iteration(), twins[i].iteration());
        }
        // Recorders carry the fleet index, not the cell position.
        for i in 0..systems.len() {
            assert_eq!(fleet.recorder(i).unwrap().robot(), i as u32);
        }
    }
}
