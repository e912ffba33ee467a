//! The multi-mode estimation engine (Algorithm 1 lines 4–9) and the one
//! iteration driver every robot steps through: [`step_tile`] runs each
//! mode's NUISE kernel over the tile's lanes and commits each robot. A
//! standalone engine is a one-lane tile on its own kernels; a fleet slab
//! group runs tiles of eight robots on kernels widened from a
//! representative's (see `DESIGN.md` §13).

use roboads_linalg::health::HealthSnapshot;
use roboads_linalg::{Matrix, Vector};
use roboads_models::RobotSystem;
use roboads_obs::wire;
use roboads_obs::{Counter, Gauge, Histogram, OwnedSpan, RobotScope, Telemetry, Value};

use crate::config::{Linearization, RoboAdsConfig};
use crate::fleet::RobotInput;
use crate::mode::ModeSet;
use crate::nuise::NuiseOutput;
use crate::nuise_slab::{ModeKernel, NuiseSlabWorkspace};
use crate::selector::ModeSelector;
use crate::{CoreError, Result, Scratch};

/// One iteration's output from the multi-mode estimation engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutput {
    /// Per-mode NUISE outputs, in mode-set order.
    pub modes: Vec<NuiseOutput>,
    /// Normalized mode probabilities after this iteration.
    pub probabilities: Vec<f64>,
    /// Index of the selected (most likely) mode `M_k`.
    pub selected: usize,
}

impl EngineOutput {
    /// The selected mode's NUISE output.
    pub fn selected_output(&self) -> &NuiseOutput {
        &self.modes[self.selected]
    }
}

/// The multi-mode estimation engine (Algorithm 1 lines 4–9): a bank of
/// NUISE estimators, one per sensor-condition hypothesis, sharing a
/// single state estimate that is refreshed from the selected mode each
/// iteration.
///
/// The bank steps sequentially on the calling thread: each mode is a
/// few microseconds of small-matrix work, far below a pool dispatch, so
/// parallelism lives at robot grain in [`crate::FleetEngine`] instead
/// (see `DESIGN.md`, threading model).
///
/// # Example
///
/// ```
/// use roboads_core::{Linearization, ModeSet, MultiModeEngine};
/// use roboads_linalg::Vector;
/// use roboads_models::presets;
///
/// # fn main() -> Result<(), roboads_core::CoreError> {
/// let system = presets::khepera_system();
/// let modes = ModeSet::one_reference_per_sensor(&system);
/// let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
/// let mut engine = MultiModeEngine::new(
///     system.clone(), modes, x0.clone(),
///     &roboads_core::RoboAdsConfig::paper_defaults(),
/// )?;
///
/// let u = Vector::from_slice(&[0.05, 0.05]);
/// let x1 = system.dynamics().step(&x0, &u);
/// let readings: Vec<_> = (0..3)
///     .map(|i| system.sensor(i).unwrap().measure(&x1))
///     .collect();
/// let out = engine.step(&u, &readings)?;
/// assert_eq!(out.modes.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiModeEngine {
    system: RobotSystem,
    modes: ModeSet,
    selector: ModeSelector,
    linearization: Linearization,
    parsimony_rho: f64,
    compensate: bool,
    state_estimate: Vector,
    state_covariance: Matrix,
    /// Per-mode filter states `(x̂_m, P_m)`. Algorithm 1 line 9 shares a
    /// single estimate across the bank; strict sharing has a *hijack*
    /// failure mode (a mode whose reference is being spoofed can capture
    /// the shared prior, after which every rival hypothesis looks
    /// inconsistent against the poisoned prior — self-reinforcing). Each
    /// mode therefore evolves its own state; hypotheses whose
    /// probability collapses to the floor are re-anchored to the
    /// selected mode's estimate so they recover quickly once their
    /// reference is clean again (see `REANCHOR_FRACTION`).
    mode_states: Vec<(Vector, Matrix)>,
    /// Per-mode NUISE kernel constants (layout, parsimony thresholds
    /// resolved at construction, frozen model), shared by every clone
    /// and widened by the fleet to its slab tiles.
    kernels: Vec<ModeKernel>,
    /// Per-mode one-lane scratch for a standalone step (the one-lane
    /// tile of [`step_tile`]): built from `kernels` on the first
    /// standalone step and reused every iteration after, so the
    /// warmed-up hot path performs no heap allocation. `Clone` does not
    /// copy it, and a fleet robot, which steps through its job's
    /// eight-lane bank, never builds it.
    workspaces: Scratch<Vec<NuiseSlabWorkspace<1>>>,
    telemetry: Telemetry,
    instruments: EngineInstruments,
    /// The last step's output, written in place every iteration:
    /// per-mode NUISE slots, probabilities and selection all reuse this
    /// storage, so a warmed-up engine steps with zero heap allocations.
    /// [`MultiModeEngine::step`] clones it;
    /// [`MultiModeEngine::step_in_place`] hands out a reference.
    output: EngineOutput,
    /// Persistent per-step intermediates: each mode's implied-anomaly
    /// count and the parsimony weights, refilled in place each
    /// iteration.
    counts: Vec<usize>,
    weights: Vec<f64>,
    /// Committed iterations, used to sample the per-mode histogram
    /// instruments at 1-in-[`HIST_SAMPLE_PERIOD`].
    commits: u64,
}

/// Pre-registered metric handles for the engine hot path.
///
/// Looked up once (registration locks the registry and may allocate);
/// every `step` then records through these handles with nothing but
/// atomic operations, preserving the crate-wide no-alloc record-path
/// invariant documented in `roboads_obs::metrics`.
#[derive(Debug, Clone)]
struct EngineInstruments {
    /// `engine.steps` — successful iterations.
    steps: Counter,
    /// `engine.reanchor.count` — collapsed hypotheses re-anchored.
    reanchors: Counter,
    /// `engine.numeric_failures` — iterations lost to
    /// [`CoreError::Numeric`].
    numeric_failures: Counter,
    /// `engine.all_modes_floored` — iterations in which *every* mode's
    /// parsimony-weighted likelihood, times its prior probability, fell
    /// to the selector's floor, so the selector floored the whole bank. Without this counter a fleet-wide filter
    /// blow-up renormalizes to near-uniform probabilities and reads as
    /// healthy uncertainty.
    all_modes_floored: Counter,
    /// `engine.cholesky_failures` — factorization breakdowns observed in
    /// the linalg substrate while this engine was stepping (process-wide
    /// attribution; see `roboads_linalg::health`).
    cholesky_failures: Counter,
    /// `engine.cholesky_fallbacks` — χ² statistics whose covariance the
    /// Cholesky whitening rejected, so the Jacobi pseudo-inverse ran
    /// (process-wide attribution, as above; zero on healthy traffic).
    cholesky_fallbacks: Counter,
    /// `engine.projection_fallbacks` — innovation covariances whose
    /// projected Cholesky was rejected, so the Jacobi pseudo-inverse ran
    /// (process-wide attribution, as above; zero on healthy traffic).
    projection_fallbacks: Counter,
    /// `engine.selected_mode` — index of the winning hypothesis.
    selected_mode: Gauge,
    /// `engine.mode{m}.probability` — posterior per mode.
    mode_probability: Vec<Histogram>,
    /// `engine.mode{m}.consistency` — innovation-consistency p-value per
    /// mode (the numerical-health signal: a healthy clean run keeps
    /// these well above the re-anchor floor).
    mode_consistency: Vec<Histogram>,
}

impl EngineInstruments {
    fn new(telemetry: &Telemetry, mode_count: usize) -> Self {
        let m = telemetry.metrics();
        EngineInstruments {
            steps: m.counter("engine.steps"),
            reanchors: m.counter("engine.reanchor.count"),
            numeric_failures: m.counter("engine.numeric_failures"),
            all_modes_floored: m.counter("engine.all_modes_floored"),
            cholesky_failures: m.counter("engine.cholesky_failures"),
            cholesky_fallbacks: m.counter("engine.cholesky_fallbacks"),
            projection_fallbacks: m.counter("engine.projection_fallbacks"),
            selected_mode: m.gauge("engine.selected_mode"),
            mode_probability: (0..mode_count)
                .map(|i| m.histogram(&format!("engine.mode{i}.probability")))
                .collect(),
            mode_consistency: (0..mode_count)
                .map(|i| m.histogram(&format!("engine.mode{i}.consistency")))
                .collect(),
        }
    }
}

/// A mode whose probability falls below this fraction of the uniform
/// share has its filter state re-anchored to the selected mode's.
const REANCHOR_FRACTION: f64 = 0.25;

/// Innovation-consistency p-value below which an improbable mode is
/// considered lost (its own reference no longer explains its filter
/// state) and re-anchored.
const REANCHOR_CONSISTENCY: f64 = 1e-4;

/// Per-mode probability/consistency histograms are recorded once every
/// this many commits. Recording them every step (2 CAS-loop f64
/// histogram ops × modes) dominated the live-sink telemetry overhead
/// (~10.6 % of a detector step in PR 7's `BENCH_perf.json` against the
/// ~4 % measured when the instruments were introduced); sampling keeps
/// the distributions while restoring the advertised budget.
const HIST_SAMPLE_PERIOD: u64 = 16;

impl MultiModeEngine {
    /// Creates an engine from a validated mode set.
    ///
    /// The mode set is validated at `(x0, u ≈ 0.1·𝟙)` — a gentle forward
    /// operating point at which all built-in robots have full input
    /// rank — so degenerate hypotheses fail fast at construction rather
    /// than mid-mission.
    ///
    /// # Errors
    ///
    /// Returns configuration and degenerate-mode errors; see
    /// [`ModeSet::validate`].
    pub fn new(
        system: RobotSystem,
        modes: ModeSet,
        initial_state: Vector,
        config: &RoboAdsConfig,
    ) -> Result<Self> {
        config.validate()?;
        let initial_covariance = config.initial_covariance;
        let mode_floor = config.mode_floor;
        let linearization = config.linearization.clone();
        if initial_state.len() != system.state_dim() {
            return Err(CoreError::InvalidConfig {
                name: "initial_state",
                value: format!(
                    "length {} for state dimension {}",
                    initial_state.len(),
                    system.state_dim()
                ),
            });
        }
        if !(initial_covariance.is_finite() && initial_covariance > 0.0) {
            return Err(CoreError::InvalidConfig {
                name: "initial_covariance",
                value: format!("{initial_covariance}"),
            });
        }
        if let Linearization::FrozenAt { state, input } = &linearization {
            if state.len() != system.state_dim() || input.len() != system.input_dim() {
                return Err(CoreError::InvalidConfig {
                    name: "linearization",
                    value: format!(
                        "operating point of dimensions ({}, {}) for system ({}, {})",
                        state.len(),
                        input.len(),
                        system.state_dim(),
                        system.input_dim()
                    ),
                });
            }
        }
        let nominal_u = Vector::from_fn(system.input_dim(), |_| 0.1);
        modes.validate(&system, &initial_state, &nominal_u)?;
        let selector =
            ModeSelector::uniform(modes.len(), mode_floor)?.with_mixing(config.mode_mixing);
        let n = system.state_dim();
        let p0 = Matrix::identity(n) * initial_covariance;
        let mode_states = vec![(initial_state.clone(), p0.clone()); modes.len()];
        let kernels = modes
            .modes()
            .iter()
            .map(|mode| ModeKernel::new(&system, mode, &linearization))
            .collect::<Result<Vec<_>>>()?;
        let telemetry = Telemetry::disabled();
        let instruments = EngineInstruments::new(&telemetry, modes.len());
        let output = EngineOutput {
            modes: kernels.iter().map(ModeKernel::new_output).collect(),
            probabilities: vec![0.0; modes.len()],
            selected: 0,
        };
        let mode_count = modes.len();
        Ok(MultiModeEngine {
            system,
            modes,
            selector,
            linearization,
            parsimony_rho: config.parsimony_rho,
            compensate: config.compensate_actuator_anomalies,
            state_estimate: initial_state,
            state_covariance: p0,
            mode_states,
            kernels,
            workspaces: Scratch::default(),
            telemetry,
            instruments,
            output,
            counts: vec![0; mode_count],
            weights: Vec::with_capacity(mode_count),
            commits: 0,
        })
    }

    /// Replaces the telemetry context (default: disabled sink with a
    /// private registry) and re-registers the engine's instruments in
    /// the new registry. Call before the first [`MultiModeEngine::step`]
    /// so no samples land in the discarded registry.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.instruments = EngineInstruments::new(&telemetry, self.modes.len());
        self.telemetry = telemetry;
    }

    /// The telemetry context in use.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The system description.
    pub fn system(&self) -> &RobotSystem {
        &self.system
    }

    /// The mode set.
    pub fn modes(&self) -> &ModeSet {
        &self.modes
    }

    /// Current shared state estimate `x̂_{k|k}`.
    pub fn state_estimate(&self) -> &Vector {
        &self.state_estimate
    }

    /// Current shared state covariance `P^x_k`.
    pub fn state_covariance(&self) -> &Matrix {
        &self.state_covariance
    }

    /// Current normalized mode probabilities.
    pub fn probabilities(&self) -> &[f64] {
        self.selector.probabilities()
    }

    /// Mode `m`'s own filter state `(x̂_m, P_m)` (diagnostics; see the
    /// `mode_states` field docs for why each hypothesis keeps one).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn mode_state(&self, m: usize) -> (&Vector, &Matrix) {
        let (x, p) = &self.mode_states[m];
        (x, p)
    }

    /// Parsimony weighting of every mode's fresh output.
    fn compute_weights(&mut self) {
        self.weights.clear();
        let _parsimony_span = self.telemetry.span("engine.parsimony");
        for (out, count) in self.output.modes.iter().zip(&self.counts) {
            self.weights
                .push(out.consistency * self.parsimony_rho.powi(*count as i32));
        }
    }

    /// Runs one control iteration: NUISE under every mode from its own
    /// filter state, parsimony-weighted mode selection, reporting-state
    /// refresh from the winner, and floor-triggered re-anchoring of
    /// collapsed hypotheses (Algorithm 1 lines 4–9 with the per-mode
    /// state refinement documented on `mode_states`).
    ///
    /// # Errors
    ///
    /// Propagates NUISE errors ([`CoreError::BadReadings`],
    /// [`CoreError::Numeric`]). On error the shared state is left
    /// unchanged, so a transiently bad iteration (e.g. NaN readings) can
    /// simply be skipped by the caller.
    pub fn step(&mut self, u_prev: &Vector, readings: &[Vector]) -> Result<EngineOutput> {
        self.step_in_place(u_prev, readings)?;
        Ok(self.output.clone())
    }

    /// Like [`MultiModeEngine::step`] but hands back a reference to the
    /// engine-owned output instead of cloning it. A warmed-up engine
    /// performs zero heap allocations per call. The reference is valid
    /// until the next step.
    ///
    /// # Errors
    ///
    /// As [`MultiModeEngine::step`]: the shared filter state is left
    /// unchanged, but the engine-owned output buffer may hold partial
    /// results from the failed iteration.
    pub fn step_in_place(&mut self, u_prev: &Vector, readings: &[Vector]) -> Result<&EngineOutput> {
        // The scratch moves out for the call so the driver can borrow it
        // alongside the rest of the engine (a move, no allocation).
        let mut workspaces = std::mem::take(&mut self.workspaces.0);
        if workspaces.is_empty() {
            workspaces = self.kernels.iter().map(ModeKernel::workspace).collect();
        }
        let mut tile = EngineTile {
            engine: self,
            input: RobotInput { u_prev, readings },
            result: Ok(()),
        };
        step_tile(&mut workspaces, &mut tile);
        let result = tile.result;
        self.workspaces.0 = workspaces;
        result.map(|()| &self.output)
    }

    /// The output of the last successful step — the same storage
    /// [`MultiModeEngine::step_in_place`] returns. Unspecified before
    /// the first successful step or after a failed one.
    pub fn last_output(&self) -> &EngineOutput {
        &self.output
    }

    /// Mutable access to the last output, for tests that corrupt a
    /// committed output before its decision tail runs.
    #[cfg(test)]
    pub(crate) fn output_mut(&mut self) -> &mut EngineOutput {
        &mut self.output
    }

    /// Ends this engine's part of an iteration: commits it when every
    /// mode it ran succeeded (`failure` is `None`), and accounts for the
    /// step in the instruments either way. `health` is the linalg health
    /// snapshot at the end of the previous lane's commit (or the tile's
    /// start), so each breakdown is counted once.
    fn commit(&mut self, failure: Option<CoreError>, health: &mut HealthSnapshot) -> Result<()> {
        let result = match failure {
            Some(e) => Err(e),
            None => self.select_and_commit(),
        };
        let now = roboads_linalg::health::snapshot();
        let delta = now.since(health);
        *health = now;
        if delta.cholesky_failures > 0 {
            self.instruments
                .cholesky_failures
                .add(delta.cholesky_failures);
        }
        if delta.cholesky_fallbacks > 0 {
            self.instruments
                .cholesky_fallbacks
                .add(delta.cholesky_fallbacks);
        }
        if delta.projection_fallbacks > 0 {
            self.instruments
                .projection_fallbacks
                .add(delta.projection_fallbacks);
        }
        match &result {
            Ok(()) => self.instruments.steps.incr(),
            Err(CoreError::Numeric(msg)) => {
                self.instruments.numeric_failures.incr();
                let msg = msg.clone();
                self.telemetry.event("engine.numeric_failure", || {
                    vec![("error", Value::Text(msg))]
                });
            }
            Err(_) => {}
        }
        result
    }

    /// The tail of a control iteration: mode selection from the
    /// parsimony weights ([`MultiModeEngine::compute_weights`] must have
    /// run) over the per-mode outputs [`step_tile`] scattered into
    /// `self.output.modes`, reporting-state refresh, and re-anchoring.
    ///
    /// Mode probabilities are updated with the dimension-free
    /// consistency p-values, not the raw densities: densities of
    /// innovations with different dimensionality are not comparable
    /// and would permanently lock the selector onto whichever mode
    /// has the largest density constant (see `nuise::mode_likelihood`).
    ///
    /// Each consistency is further weighted by a *parsimony prior*
    /// ρ^(implied anomaly count). A sensor corruption lying in
    /// range(C₂·G) of its own reference mode is absorbed by NUISE
    /// step 1 as a phantom actuator anomaly, leaving that mode's
    /// innovation clean — the classic sensor/actuator ambiguity. But
    /// such a mode *implies more active misbehaviors* (the dragged
    /// state estimate makes every clean testing sensor look corrupted
    /// too, plus the phantom input), and the paper's threat model
    /// (§II-B) holds coordinated multi-workflow attacks to be hard.
    /// Weighting each hypothesis by ρ per implied anomaly encodes that
    /// prior; a genuine actuator attack costs every mode the same ρ¹,
    /// leaving their ranking untouched.
    fn select_and_commit(&mut self) -> Result<()> {
        let selected = {
            let _select_span = self.telemetry.span("engine.select");
            self.selector.update(&self.weights)?
        };
        if self.selector.all_floored() {
            // No hypothesis explains this iteration at all (every
            // parsimony-weighted consistency fell to the floor). The
            // selector's floor keeps the bank recoverable, but the
            // near-uniform output must not pass as healthy uncertainty.
            self.instruments.all_modes_floored.incr();
            let selected_consistency = self.output.modes[selected].consistency;
            self.telemetry.event("engine.all_modes_floored", || {
                vec![
                    ("selected", Value::U64(selected as u64)),
                    ("consistency", Value::F64(selected_consistency)),
                ]
            });
        }

        self.state_estimate
            .copy_from(&self.output.modes[selected].state_estimate);
        self.state_covariance
            .copy_from(&self.output.modes[selected].state_covariance);
        // Advance each mode's own filter; re-anchor collapsed hypotheses
        // to the winner so they can re-converge once clean.
        let reanchor_below = REANCHOR_FRACTION / self.modes.len() as f64;
        self.output.probabilities.clear();
        self.output
            .probabilities
            .extend_from_slice(self.selector.probabilities());
        self.output.selected = selected;
        let _reanchor_span = self.telemetry.span("engine.reanchor");
        for (m, state) in self.mode_states.iter_mut().enumerate() {
            // Re-anchor hypotheses that are both improbable *and*
            // innovation-inconsistent: their own filter no longer
            // explains their reference readings (e.g. the reference was
            // being spoofed), so they restart from the winner. A
            // consistent-but-disfavored mode keeps its own (typically
            // tighter) filter state.
            let probability = self.output.probabilities[m];
            let consistency = self.output.modes[m].consistency;
            if m != selected && probability < reanchor_below && consistency < REANCHOR_CONSISTENCY {
                state.0.copy_from(&self.state_estimate);
                state.1.copy_from(&self.state_covariance);
                self.instruments.reanchors.incr();
                self.telemetry.event("engine.mode_reanchored", || {
                    vec![
                        ("mode", Value::U64(m as u64)),
                        ("probability", Value::F64(probability)),
                        ("consistency", Value::F64(consistency)),
                    ]
                });
            } else {
                state.0.copy_from(&self.output.modes[m].state_estimate);
                state.1.copy_from(&self.output.modes[m].state_covariance);
            }
        }
        drop(_reanchor_span);

        self.instruments.selected_mode.set(selected as f64);
        // Per-mode distribution instruments are *sampled*: recording 2
        // histogram values per mode per step was the dominant term in
        // the live-sink telemetry overhead (see `HIST_SAMPLE_PERIOD`).
        // Gauges and counters (plain atomic stores) stay per-step. The
        // phase puts a sample on the *first* commit, so any stepped
        // engine's histograms are non-empty (an all-NaN empty summary
        // would poison incident-capsule equality).
        self.commits = self.commits.wrapping_add(1);
        if self.commits % HIST_SAMPLE_PERIOD == 1 {
            for (m, out) in self.output.modes.iter().enumerate() {
                self.instruments.mode_probability[m].record(self.output.probabilities[m]);
                self.instruments.mode_consistency[m].record(out.consistency);
            }
        }
        Ok(())
    }

    /// Whether NUISE step 2 compensates the predicted state with the
    /// estimated actuator anomaly (part of the fleet's group key).
    pub(crate) fn compensate(&self) -> bool {
        self.compensate
    }

    /// The configured linearization strategy (the fleet slab path only
    /// engages for [`Linearization::PerIteration`]).
    pub(crate) fn linearization(&self) -> &Linearization {
        &self.linearization
    }

    /// The per-mode NUISE kernel constants, in mode order (the fleet
    /// widens them to its slab tiles).
    pub(crate) fn kernels(&self) -> &[ModeKernel] {
        &self.kernels
    }

    /// Appends the engine's complete mutable state to a snapshot buffer
    /// (DESIGN.md §18): selector, shared and per-mode filter states, the
    /// last committed output and the commit count.
    /// The per-mode kernel constants and scratch are construction-
    /// derived or rebuilt on use, and belong to the restore twin.
    pub(crate) fn snap_write(&self, out: &mut Vec<u8>) {
        self.selector.snap_write(out);
        crate::snapshot::put_vector(out, &self.state_estimate);
        crate::snapshot::put_matrix(out, &self.state_covariance);
        wire::put_u32(out, self.mode_states.len() as u32);
        for (x, p) in &self.mode_states {
            crate::snapshot::put_vector(out, x);
            crate::snapshot::put_matrix(out, p);
        }
        for m in &self.output.modes {
            crate::snapshot::put_nuise_output(out, m);
        }
        wire::put_f64_slice(out, &self.output.probabilities);
        wire::put_u64(out, self.output.selected as u64);
        wire::put_u64(out, self.commits);
    }

    /// Restores the engine's mutable state from a snapshot buffer onto
    /// an identically-constructed twin. Dimensions are validated against
    /// the twin's; a mismatched snapshot returns
    /// [`CoreError::Snapshot`] with the engine partially overwritten
    /// (discard it).
    pub(crate) fn snap_read(&mut self, rd: &mut wire::ByteReader<'_>) -> Result<()> {
        self.selector.snap_read(rd)?;
        crate::snapshot::read_vector(rd, &mut self.state_estimate)?;
        crate::snapshot::read_matrix(rd, &mut self.state_covariance)?;
        let mode_count = rd.u32()? as usize;
        if mode_count != self.mode_states.len() {
            return Err(CoreError::Snapshot {
                reason: format!(
                    "snapshot has {mode_count} modes, twin has {}",
                    self.mode_states.len()
                ),
            });
        }
        for (x, p) in &mut self.mode_states {
            crate::snapshot::read_vector(rd, x)?;
            crate::snapshot::read_matrix(rd, p)?;
        }
        for m in &mut self.output.modes {
            crate::snapshot::read_nuise_output(rd, m)?;
        }
        rd.f64_into(&mut self.output.probabilities)?;
        let selected = rd.u64()? as usize;
        if selected >= mode_count {
            return Err(CoreError::Snapshot {
                reason: format!("selected mode {selected} out of range"),
            });
        }
        self.output.selected = selected;
        self.commits = rd.u64()?;
        Ok(())
    }
}

/// The robots one [`step_tile`] call advances: up to `K` lanes, each a
/// [`MultiModeEngine`] with this iteration's input and a place for its
/// verdict. A standalone engine is a one-lane tile; a fleet slab group
/// steps in tiles of eight robots.
pub(crate) trait Tile<'i> {
    /// Number of lanes (at most the kernels' width `K`).
    fn lanes(&self) -> usize;
    /// Lane `l`'s command and readings, or the error its iteration ends
    /// with when it has none (a robot that missed the tick).
    fn input(&self, l: usize) -> Result<RobotInput<'i>>;
    /// Lane `l`'s engine.
    fn engine(&mut self, l: usize) -> &mut MultiModeEngine;
    /// The robot context lane `l`'s own work is recorded under; `None`
    /// keeps the caller's.
    fn scope(&self, _l: usize) -> Option<RobotScope> {
        None
    }
    /// Ends lane `l`'s iteration with `result`; on `Ok` its engine has
    /// committed.
    fn finish(&mut self, l: usize, result: Result<()>);
}

/// One control iteration (Algorithm 1 lines 4–9) for every lane of
/// `tile`, through `bank` (one kernel per mode, in mode order):
///
/// 1. each mode loads every lane with an input, runs once, and
///    scatters each lane's output and implied-anomaly count into its
///    engine;
/// 2. every lane that has not failed weighs its modes;
/// 3. every lane commits (selection, re-anchoring, instruments) and
///    `tile` finishes it.
///
/// A lane that fails at load or inside a kernel takes the kernel's
/// typed error — by the kernel's bitwise contract, the error a
/// standalone step returns — and sits out the later modes. Engine state
/// only changes at commit, so a failed lane's filter is left as it was.
pub(crate) fn step_tile<'i, const K: usize>(
    bank: &mut [NuiseSlabWorkspace<K>],
    tile: &mut impl Tile<'i>,
) {
    let lanes = tile.lanes();
    let mut inputs = [None; K];
    let mut failures: [Option<CoreError>; K] = [const { None }; K];
    let mut step_spans: [Option<OwnedSpan>; K] = [const { None }; K];
    for l in 0..lanes {
        let _scope = tile.scope(l);
        match tile.input(l) {
            Ok(input) => {
                inputs[l] = Some(input);
                let engine = tile.engine(l);
                assert_eq!(bank.len(), engine.modes.len(), "one kernel per mode");
                step_spans[l] = Some(engine.telemetry.owned_span("engine.step"));
            }
            Err(e) => tile.finish(l, Err(e)),
        }
    }
    let mut health = roboads_linalg::health::snapshot();
    for (m, ws) in bank.iter_mut().enumerate() {
        run_mode(ws, m, tile, &inputs, &mut failures);
    }
    for l in 0..lanes {
        if inputs[l].is_some() && failures[l].is_none() {
            let _scope = tile.scope(l);
            tile.engine(l).compute_weights();
        }
    }
    for l in 0..lanes {
        if inputs[l].is_none() {
            continue;
        }
        let _scope = tile.scope(l);
        let engine = tile.engine(l);
        let result = engine.commit(failures[l].take(), &mut health);
        step_spans[l] = None;
        tile.finish(l, result);
    }
}

/// Runs mode `m`'s kernel over the live lanes: loads them, runs once,
/// and scatters each lane's output and implied-anomaly count into its
/// engine. A lane that fails takes the kernel's error and leaves the
/// live set.
fn run_mode<'i, const K: usize>(
    ws: &mut NuiseSlabWorkspace<K>,
    m: usize,
    tile: &mut impl Tile<'i>,
    inputs: &[Option<RobotInput<'i>>; K],
    failures: &mut [Option<CoreError>; K],
) {
    let mut active: [bool; K] =
        std::array::from_fn(|l| inputs[l].is_some() && failures[l].is_none());
    if !active.contains(&true) {
        return;
    }
    // A one-lane kernel steps one robot, so its pass is that robot's
    // per-mode span; wider tiles cross robots and record none.
    let _mode_span = (K == 1).then(|| tile.engine(0).telemetry.owned_span("engine.nuise_mode"));
    for (l, input) in inputs.iter().enumerate() {
        let Some(input) = input.filter(|_| active[l]) else {
            continue;
        };
        let engine = tile.engine(l);
        let (x_m, p_m) = &engine.mode_states[m];
        if let Err(e) = ws.load_lane(l, &engine.system, x_m, p_m, input.u_prev, input.readings) {
            failures[l] = Some(e);
            active[l] = false;
        }
    }
    let rep = tile.engine(0);
    ws.run(&rep.system, rep.compensate, &active);
    for l in 0..tile.lanes() {
        if !active[l] {
            continue;
        }
        match ws.lane_error(l) {
            Some(e) => failures[l] = Some(e),
            None => {
                let engine = tile.engine(l);
                ws.scatter_lane(l, &mut engine.output.modes[m]);
                engine.counts[m] = ws.count(l);
            }
        }
    }
}

/// A standalone engine as a one-lane tile.
struct EngineTile<'e, 'i> {
    engine: &'e mut MultiModeEngine,
    input: RobotInput<'i>,
    result: Result<()>,
}

impl<'i> Tile<'i> for EngineTile<'_, 'i> {
    fn lanes(&self) -> usize {
        1
    }

    fn input(&self, _: usize) -> Result<RobotInput<'i>> {
        Ok(self.input)
    }

    fn engine(&mut self, _: usize) -> &mut MultiModeEngine {
        self.engine
    }

    fn finish(&mut self, _: usize, result: Result<()>) {
        self.result = result;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::Mode;
    use roboads_models::presets;

    fn engine() -> (RobotSystem, MultiModeEngine, Vector) {
        let system = presets::khepera_system();
        let modes = ModeSet::one_reference_per_sensor(&system);
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let engine = MultiModeEngine::new(
            system.clone(),
            modes,
            x0.clone(),
            &RoboAdsConfig::paper_defaults(),
        )
        .unwrap();
        (system, engine, x0)
    }

    fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
        (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(x))
            .collect()
    }

    #[test]
    fn clean_run_tracks_state_with_near_uniform_probabilities() {
        let (system, mut engine, x0) = engine();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        for _ in 0..30 {
            x_true = system.dynamics().step(&x_true, &u);
            let out = engine.step(&u, &clean_readings(&system, &x_true)).unwrap();
            assert_eq!(out.modes.len(), 3);
        }
        assert!((engine.state_estimate() - &x_true).max_abs() < 1e-6);
        // Mode probabilities stay a proper distribution. (Note: on clean
        // data the *selection* is arbitrary — densities of modes with
        // different innovation dimensionality are not commensurable, as
        // in the paper — but no decision test fires, so it is harmless.)
        let p = engine.probabilities();
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn corrupted_sensor_drives_mode_selection_without_majority_voting() {
        let (system, mut engine, x0) = engine();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        // Corrupt BOTH the IPS (0) and the LiDAR (2): only the encoder
        // remains clean — a 2-of-3 majority is corrupted, which defeats
        // voting schemes but not the likelihood selection (§IV-B).
        for _ in 0..10 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            readings[0][0] += 0.08;
            readings[2][1] += 0.09;
            engine.step(&u, &readings).unwrap();
        }
        // The encoder-reference mode (index 1) must win.
        let p = engine.probabilities();
        assert_eq!(
            p.iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap())
                .unwrap()
                .0,
            1,
            "probabilities {p:?}"
        );
    }

    #[test]
    fn selected_mode_estimates_flow_into_shared_state() {
        let (system, mut engine, x0) = engine();
        let u = Vector::from_slice(&[0.05, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        let out = engine.step(&u, &clean_readings(&system, &x1)).unwrap();
        assert_eq!(
            engine.state_estimate(),
            &out.selected_output().state_estimate
        );
    }

    #[test]
    fn error_leaves_state_unchanged() {
        let (_, mut engine, _) = engine();
        let before = engine.state_estimate().clone();
        let u = Vector::from_slice(&[0.05, 0.05]);
        let bad = vec![Vector::zeros(3); 2]; // wrong reading count
        assert!(engine.step(&u, &bad).is_err());
        assert_eq!(engine.state_estimate(), &before);
    }

    #[test]
    fn degenerate_mode_set_rejected_at_construction() {
        let system = presets::khepera_system();
        let modes = ModeSet::from_reference_groups(&system, &[vec![0]]);
        // Tamper: build a mode set whose only mode has an empty reference.
        let broken = ModeSet::from_reference_groups(&system, &[vec![]]);
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
        assert!(MultiModeEngine::new(
            system.clone(),
            broken,
            x0.clone(),
            &RoboAdsConfig::paper_defaults()
        )
        .is_err());
        assert!(MultiModeEngine::new(system, modes, x0, &RoboAdsConfig::paper_defaults()).is_ok());
    }

    #[test]
    fn consistent_but_spoofed_mode_keeps_its_own_filter() {
        // A constant-bias spoof is *self-consistent* with its reference:
        // the spoofed mode's own filter tracks truth + bias and, by
        // design, is NOT re-anchored — only its probability collapses
        // (the parsimony prior sees its phantom claims).
        let (system, mut engine, x0) = engine();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        for _ in 0..30 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            readings[0][0] += 0.25; // large constant IPS spoof
            engine.step(&u, &readings).unwrap();
        }
        let (x_ips_mode, _) = engine.mode_state(0);
        assert!(
            (x_ips_mode[0] - (x_true[0] + 0.25)).abs() < 0.05,
            "spoofed mode should track truth + bias, got {:?}",
            x_ips_mode
        );
        assert!(engine.probabilities()[0] < 0.1);
        // The winner's state (and the reported estimate) track the truth.
        assert!((engine.state_estimate() - &x_true).max_abs() < 0.05);
    }

    #[test]
    fn inconsistent_lost_modes_are_reanchored_to_the_winner() {
        // A DoS'd LiDAR freezes at zeros while the robot moves: the
        // LiDAR-reference mode's own filter cannot explain its reference
        // (improbable AND inconsistent) and must be re-anchored to the
        // winner instead of diverging toward the zeros.
        let (system, mut engine, x0) = engine();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut x_true = x0;
        for _ in 0..30 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            readings[2] = Vector::zeros(4); // LiDAR DoS
            engine.step(&u, &readings).unwrap();
        }
        let (x_lidar_mode, _) = engine.mode_state(2);
        assert!(
            (x_lidar_mode - &x_true).max_abs() < 0.1,
            "DoS'd mode should be re-anchored near the truth, got {:?} vs {:?}",
            x_lidar_mode,
            x_true
        );
        assert!(engine.probabilities()[2] < 0.1);
    }

    #[test]
    fn initial_state_dimension_checked() {
        let system = presets::khepera_system();
        let modes = ModeSet::one_reference_per_sensor(&system);
        let r = MultiModeEngine::new(
            system,
            modes,
            Vector::zeros(2),
            &RoboAdsConfig::paper_defaults(),
        );
        assert!(matches!(r, Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn single_custom_mode_engine_works() {
        let system = presets::khepera_system();
        let modes = ModeSet::from_reference_groups(&system, &[vec![0, 1, 2]]);
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.0]);
        let mut e = MultiModeEngine::new(
            system.clone(),
            modes,
            x0.clone(),
            &RoboAdsConfig::paper_defaults(),
        )
        .unwrap();
        let u = Vector::from_slice(&[0.05, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        let out = e.step(&u, &clean_readings(&system, &x1)).unwrap();
        assert_eq!(out.selected, 0);
        assert!(out.selected_output().sensor_anomaly.is_empty());
        let _ = Mode::new(vec![0], vec![1]); // silence unused-import lint in some cfgs
    }
}
