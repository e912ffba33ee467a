//! `eval_attack_prob`-style detection-probability campaigns.
//!
//! Table II evaluates RoboADS on a handful of hand-picked cases; this
//! module generates the matrix instead. A [`Campaign`] sweeps
//! **attack kind × base scenario × magnitude × onset × duration**, runs N independently seeded trials per grid
//! cell through the standalone runner with the attack applied at the
//! bus seam ([`crate::attacks`]), and aggregates each cell into a
//! detection probability and mean time-to-detection
//! ([`roboads_stats::DetectionRate`]). Alongside the attacked cells it
//! runs **baseline** cells — the same scenario with no attack —
//! whose false-positive rates bound what the attacked cells' detections
//! are worth.
//!
//! Determinism: a trial's seed is a pure hash of the cell's coordinates
//! and the trial index folded into the campaign's base seed, so results
//! are bit-for-bit reproducible and independent of execution order —
//! cells can be farmed out to a thread pool and reassembled in any
//! order.
//!
//! Detection semantics: the attack window is appended to the base
//! scenario's ground truth as a pseudo-misbehavior on the attack's
//! declared target ([`crate::attacks::AttackSpec::target`]); a trial
//! *detects* when, at some iteration inside the window, the detector's
//! report covers the attacked workflow — the attacked sensor appears in
//! `misbehaving_sensors`, or the actuator alarm is up for a
//! command-level attack. Time-to-detection is the lag from onset to
//! that first covering iteration. The window-level criterion (rather
//! than a single transition delay) stays well-defined when the base
//! scenario's own misbehavior is concurrently active.

use roboads_core::RoboAdsConfig;
use roboads_linalg::Vector;
use roboads_stats::DetectionRate;

use crate::attacks::{AttackKind, AttackSpec};
use crate::eval::evaluate;
use crate::misbehavior::{Corruption, Misbehavior, Target};
use crate::runner::{FramePolicy, SimulationBuilder};
use crate::scenario::{Scenario, DEFAULT_DURATION, FIRST_TRIGGER};
use crate::trace::Trace;
use crate::world::RobotKind;
use crate::Result;

/// One grid cell: everything needed to run its trials, self-contained
/// so cells can be dispatched to worker threads.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Robot platform under test.
    pub kind: RobotKind,
    /// Base scenario (its own misbehaviors still fire).
    pub scenario: Scenario,
    /// Attack to overlay; `None` marks a clean baseline cell.
    pub attack: Option<AttackKind>,
    /// Target sensing workflow for sensor-level attacks.
    pub sensor: usize,
    /// Reading component the shift-style attacks perturb.
    pub component: usize,
    /// Attack magnitude (units of the target signal; replay reads it
    /// as lag ticks).
    pub magnitude: f64,
    /// First attacked iteration.
    pub onset: usize,
    /// Attacked iterations; `None` = until the end of the run.
    pub duration: Option<usize>,
    /// Seeded trials to run.
    pub trials: usize,
    /// Campaign base seed folded into every trial seed.
    pub base_seed: u64,
    /// Monitor missing-frame policy for the runs.
    pub frame_policy: FramePolicy,
}

/// The aggregated result of one grid cell.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    /// Attack-type label; `"baseline"` for the clean legs.
    pub attack: String,
    /// Base scenario name.
    pub scenario: String,
    /// Attack magnitude (0 for baseline legs).
    pub magnitude: f64,
    /// Attack onset iteration (0 for baseline legs).
    pub onset: usize,
    /// Attack duration; `None` = open-ended (and for baseline legs).
    pub duration: Option<usize>,
    /// Detection probability and time-to-detection aggregation.
    pub detection: DetectionRate,
    /// Mean per-run sensor false-positive rate across trials, under the
    /// attack-augmented ground truth.
    pub sensor_fpr: f64,
    /// Mean per-run actuator false-positive rate across trials.
    pub actuator_fpr: f64,
}

/// The full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// One point per grid cell, in grid order (attacked cells first,
    /// then the baseline legs).
    pub points: Vec<CampaignPoint>,
}

impl CampaignOutcome {
    /// Attacked points only.
    pub fn attacked(&self) -> impl Iterator<Item = &CampaignPoint> {
        self.points.iter().filter(|p| p.attack != "baseline")
    }

    /// Baseline (no-attack) points only.
    pub fn baselines(&self) -> impl Iterator<Item = &CampaignPoint> {
        self.points.iter().filter(|p| p.attack == "baseline")
    }

    /// The lowest detection probability over attacked points with
    /// `magnitude ≥ min_magnitude` — the quantity a regression gate
    /// floors. `None` when no point qualifies.
    pub fn detection_floor(&self, min_magnitude: f64) -> Option<f64> {
        self.attacked()
            .filter(|p| p.magnitude >= min_magnitude)
            .map(|p| p.detection.probability())
            .min_by(|a, b| a.partial_cmp(b).expect("probabilities are finite"))
    }

    /// The highest per-run false-positive rate (sensor or actuator)
    /// over the baseline points — the quantity a regression gate caps.
    /// `None` when the campaign ran no baseline legs.
    pub fn false_positive_ceiling(&self) -> Option<f64> {
        self.baselines()
            .map(|p| p.sensor_fpr.max(p.actuator_fpr))
            .max_by(|a, b| a.partial_cmp(b).expect("rates are finite"))
    }

    /// [`Self::false_positive_ceiling`] restricted to baselines of one
    /// scenario. Gates use the `"clean"` scenario: burst scenarios pay
    /// an inherent recovery lag after their scripted misbehavior window
    /// closes, and those trailing iterations count as false positives
    /// against the ground truth even for a perfectly healthy detector.
    pub fn scenario_false_positive_ceiling(&self, scenario: &str) -> Option<f64> {
        self.baselines()
            .filter(|p| p.scenario == scenario)
            .map(|p| p.sensor_fpr.max(p.actuator_fpr))
            .max_by(|a, b| a.partial_cmp(b).expect("rates are finite"))
    }
}

/// The campaign grid builder. Defaults reproduce a Table-II-adjacent
/// matrix: all six attack kinds over three base scenarios (clean, a
/// bounded IPS-spoofing burst, a bounded wheel-logic-bomb burst), Table
/// II magnitudes, one onset after the base scenario's own misbehavior
/// has cleared.
#[derive(Debug, Clone)]
pub struct Campaign {
    kind: RobotKind,
    scenarios: Vec<Scenario>,
    attacks: Vec<AttackKind>,
    magnitudes: Vec<f64>,
    onsets: Vec<usize>,
    durations: Vec<Option<usize>>,
    sensor: usize,
    component: usize,
    trials: usize,
    base_seed: u64,
    frame_policy: FramePolicy,
}

/// Bounded variant of Table II #4 (IPS spoofing, −0.1 m on X) that
/// recovers before the campaign's default attack onset, so the attack
/// window's ground truth stays unambiguous.
fn ips_spoofing_burst() -> Scenario {
    Scenario::new(
        4,
        "ips-spoofing-burst",
        "IPS X shifted -0.1 m on iterations 40..80, then authentic again",
        vec![Misbehavior::new(
            "ips-spoofing",
            Target::Sensor(0),
            Corruption::Bias(Vector::from_slice(&[-0.1, 0.0, 0.0])),
            FIRST_TRIGGER,
            Some(FIRST_TRIGGER + 40),
        )],
        DEFAULT_DURATION,
    )
}

/// Bounded variant of Table II #1 (wheel-controller logic bomb).
fn wheel_logic_bomb_burst() -> Scenario {
    let units = roboads_models::dynamics::DifferentialDrive::speed_units_to_mps(6000.0);
    Scenario::new(
        1,
        "wheel-logic-bomb-burst",
        "wheel commands altered by -/+6000 speed units on iterations 40..80",
        vec![Misbehavior::new(
            "wheel-logic-bomb",
            Target::Actuators,
            Corruption::Bias(Vector::from_slice(&[-units, units])),
            FIRST_TRIGGER,
            Some(FIRST_TRIGGER + 40),
        )],
        DEFAULT_DURATION,
    )
}

impl Campaign {
    /// Default Khepera campaign grid (see type docs).
    pub fn khepera() -> Self {
        Campaign {
            kind: RobotKind::Khepera,
            scenarios: vec![
                Scenario::clean(),
                ips_spoofing_burst(),
                wheel_logic_bomb_burst(),
            ],
            attacks: AttackKind::ALL.to_vec(),
            // Table II magnitudes: 6000 speed units = 0.04 m/s on the
            // command channels, 0.07 m / 0.1 m on the IPS — one axis
            // spans both signal spaces.
            magnitudes: vec![0.04, 0.1],
            onsets: vec![100],
            durations: vec![Some(60)],
            sensor: 0,
            component: 0,
            trials: 5,
            base_seed: 0x20_18_05_17,
            frame_policy: FramePolicy::HoldLast,
        }
    }

    /// Overrides the base scenarios.
    pub fn scenarios(mut self, scenarios: Vec<Scenario>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Overrides the attack kinds.
    pub fn attacks(mut self, attacks: Vec<AttackKind>) -> Self {
        self.attacks = attacks;
        self
    }

    /// Overrides the magnitude axis.
    pub fn magnitudes(mut self, magnitudes: Vec<f64>) -> Self {
        self.magnitudes = magnitudes;
        self
    }

    /// Overrides the onset axis.
    pub fn onsets(mut self, onsets: Vec<usize>) -> Self {
        self.onsets = onsets;
        self
    }

    /// Overrides the duration axis.
    pub fn durations(mut self, durations: Vec<Option<usize>>) -> Self {
        self.durations = durations;
        self
    }

    /// Overrides the trials per cell.
    pub fn trials(mut self, trials: usize) -> Self {
        self.trials = trials.max(1);
        self
    }

    /// Overrides the campaign base seed.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Overrides the monitor missing-frame policy. The default
    /// [`FramePolicy::HoldLast`] is the interesting one: a frozen input
    /// is data the detector can indict, while `MarkMissing` freezes the
    /// report stream itself and trivially blinds detection.
    pub fn frame_policy(mut self, policy: FramePolicy) -> Self {
        self.frame_policy = policy;
        self
    }

    /// Materializes the grid: attacked cells in axis order, then one
    /// baseline cell per scenario.
    pub fn cells(&self) -> Vec<CampaignCell> {
        let mut cells = Vec::new();
        for attack in &self.attacks {
            for scenario in &self.scenarios {
                for &magnitude in &self.magnitudes {
                    for &onset in &self.onsets {
                        for &duration in &self.durations {
                            cells.push(CampaignCell {
                                kind: self.kind,
                                scenario: scenario.clone(),
                                attack: Some(*attack),
                                sensor: self.sensor,
                                component: self.component,
                                magnitude,
                                onset,
                                duration,
                                trials: self.trials,
                                base_seed: self.base_seed,
                                frame_policy: self.frame_policy,
                            });
                        }
                    }
                }
            }
        }
        for scenario in &self.scenarios {
            cells.push(CampaignCell {
                kind: self.kind,
                scenario: scenario.clone(),
                attack: None,
                sensor: self.sensor,
                component: self.component,
                magnitude: 0.0,
                onset: 0,
                duration: None,
                trials: self.trials,
                base_seed: self.base_seed,
                frame_policy: self.frame_policy,
            });
        }
        cells
    }

    /// Runs every cell sequentially. Harnesses wanting parallelism can
    /// fan [`Campaign::cells`] out to a pool and call
    /// [`CampaignCell::run`] per cell — results are order-independent.
    ///
    /// # Errors
    ///
    /// Propagates the first failing trial.
    pub fn run(&self) -> Result<CampaignOutcome> {
        let points = self
            .cells()
            .iter()
            .map(CampaignCell::run)
            .collect::<Result<_>>()?;
        Ok(CampaignOutcome { points })
    }
}

/// FNV-1a over a byte stream; the campaign's order-independent seed
/// derivation.
fn fnv1a(bytes: impl IntoIterator<Item = u8>, seed: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ seed;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl CampaignCell {
    /// The attack spec this cell instantiates per trial; `None` for
    /// baseline cells.
    pub fn spec(&self) -> Option<AttackSpec> {
        self.attack.map(|kind| AttackSpec {
            kind,
            sensor: self.sensor,
            component: self.component,
            magnitude: self.magnitude,
            onset: self.onset,
            duration: self.duration,
        })
    }

    /// Attack-type label for reports.
    pub fn label(&self) -> &'static str {
        self.attack.map_or("baseline", |k| k.label())
    }

    /// Deterministic, order-independent seed for trial `trial`: a hash
    /// of the cell's coordinates and the trial index folded into the
    /// campaign base seed. The hash still folds in `"always-full"`,
    /// the label of the full mode bank from when the grid had a
    /// mode-bank axis, so every trial keeps the seed it had then.
    pub fn trial_seed(&self, trial: usize) -> u64 {
        let mut bytes: Vec<u8> = Vec::new();
        bytes.extend(self.label().bytes());
        bytes.extend(self.scenario.name().bytes());
        bytes.extend(b"always-full".iter().copied());
        bytes.extend(self.magnitude.to_bits().to_le_bytes());
        bytes.extend((self.onset as u64).to_le_bytes());
        bytes.extend(self.duration.map_or(u64::MAX, |d| d as u64).to_le_bytes());
        bytes.extend((trial as u64).to_le_bytes());
        fnv1a(bytes, self.base_seed)
    }

    /// The attack window's ground truth overlay: the base scenario's
    /// misbehaviors plus a pseudo-misbehavior marking the attack's
    /// target and window (the corruption payload is never executed —
    /// the attack acts on the bus, not in a workflow).
    fn augmented_truth(&self) -> crate::scenario::GroundTruth {
        let mut misbehaviors = self.scenario.misbehaviors().to_vec();
        if let Some(spec) = self.spec() {
            misbehaviors.push(Misbehavior::new(
                format!("bus-{}", self.label()),
                spec.target(),
                Corruption::Freeze,
                spec.onset,
                spec.duration.map(|d| spec.onset + d),
            ));
        }
        Scenario::new(
            self.scenario.number(),
            self.scenario.name().to_string(),
            self.scenario.description().to_string(),
            misbehaviors,
            self.scenario.duration(),
        )
        .ground_truth()
    }

    /// Whether and when the detector's reports covered the attacked
    /// workflow inside the window: `Some(delay_seconds)` from onset to
    /// the first covering iteration, `None` for a miss.
    fn detection_delay(&self, trace: &Trace, target: Target) -> Option<f64> {
        let dt = trace.dt();
        let end = self
            .duration
            .map_or(trace.len(), |d| (self.onset + d).min(trace.len()));
        for record in &trace.records()[self.onset.min(trace.len())..end] {
            let covered = match target {
                Target::Sensor(s) => record.report.misbehaving_sensors.contains(&s),
                Target::Actuators => record.report.actuator_alarm,
            };
            if covered {
                return Some((record.k - self.onset) as f64 * dt);
            }
        }
        None
    }

    /// Runs the cell's trials and aggregates them.
    ///
    /// # Errors
    ///
    /// Propagates the first failing trial.
    pub fn run(&self) -> Result<CampaignPoint> {
        let mut detection = DetectionRate::default();
        let mut sensor_fpr = 0.0;
        let mut actuator_fpr = 0.0;
        let truth = self.augmented_truth();
        for trial in 0..self.trials {
            let mut builder = match self.kind {
                RobotKind::Khepera => SimulationBuilder::khepera(),
                RobotKind::Tamiya => SimulationBuilder::tamiya(),
            }
            .scenario(self.scenario.clone())
            .seed(self.trial_seed(trial))
            .config(RoboAdsConfig::paper_defaults())
            .frame_policy(self.frame_policy);
            if let Some(spec) = self.spec() {
                builder = builder.bus_attack(spec);
            }
            let outcome = builder.run()?;
            // Re-evaluate under the attack-augmented truth: the run's
            // own eval knows nothing about the bus-level overlay.
            let eval = evaluate(&outcome.trace, &truth);
            sensor_fpr += eval.sensor_fpr();
            actuator_fpr += eval.actuator_fpr();
            if let Some(spec) = self.spec() {
                detection.record(self.detection_delay(&outcome.trace, spec.target()));
            }
        }
        let n = self.trials.max(1) as f64;
        Ok(CampaignPoint {
            attack: self.label().to_string(),
            scenario: self.scenario.name().to_string(),
            magnitude: self.magnitude,
            onset: self.onset,
            duration: self.duration,
            detection,
            sensor_fpr: sensor_fpr / n,
            actuator_fpr: actuator_fpr / n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_campaign(attacks: Vec<AttackKind>) -> Campaign {
        Campaign::khepera()
            .attacks(attacks)
            .scenarios(vec![Scenario::clean()])
            .magnitudes(vec![0.1])
            .onsets(vec![60])
            .durations(vec![Some(50)])
            .trials(2)
    }

    #[test]
    fn grid_enumerates_every_axis_plus_baselines() {
        let c = Campaign::khepera().trials(1);
        let cells = c.cells();
        // 6 attacks × 3 scenarios × 2 magnitudes × 1 × 1 + 3 baselines.
        assert_eq!(cells.len(), 6 * 3 * 2 + 3);
        assert_eq!(cells.iter().filter(|c| c.attack.is_none()).count(), 3);
    }

    #[test]
    fn trial_seeds_are_deterministic_and_cell_distinct() {
        let cells = tiny_campaign(vec![AttackKind::MitmRewrite, AttackKind::FrameTrash]).cells();
        assert_eq!(cells[0].trial_seed(0), cells[0].trial_seed(0));
        assert_ne!(cells[0].trial_seed(0), cells[0].trial_seed(1));
        assert_ne!(cells[0].trial_seed(0), cells[1].trial_seed(0));
    }

    #[test]
    fn mitm_campaign_detects_and_baseline_stays_quiet() {
        let outcome = tiny_campaign(vec![AttackKind::MitmRewrite]).run().unwrap();
        assert_eq!(outcome.points.len(), 2);
        let attacked = &outcome.points[0];
        assert_eq!(attacked.attack, "mitm-rewrite");
        assert!(
            attacked.detection.probability() > 0.99,
            "0.1 m MITM rewrite must be caught: {attacked:?}"
        );
        assert!(attacked.detection.mean_delay().unwrap() < 1.0);
        let baseline = &outcome.points[1];
        assert_eq!(baseline.attack, "baseline");
        assert!(baseline.sensor_fpr < 0.05, "{baseline:?}");
        assert_eq!(outcome.false_positive_ceiling().unwrap(), {
            baseline.sensor_fpr.max(baseline.actuator_fpr)
        });
        assert_eq!(
            outcome.detection_floor(0.0).unwrap(),
            attacked.detection.probability()
        );
    }

    /// The full frame-trashing acceptance criterion: a trash campaign
    /// on the standalone runner completes without panics (the old
    /// `bus.latest(..).expect(..)` path aborted on the first trashed
    /// frame).
    #[test]
    fn frame_trash_campaign_completes_without_panics() {
        let outcome = tiny_campaign(vec![AttackKind::FrameTrash]).run().unwrap();
        let attacked = &outcome.points[0];
        assert_eq!(attacked.detection.trials, 2);
        assert!(
            attacked.detection.probability() > 0.99,
            "a frozen IPS while the robot moves must be indicted: {attacked:?}"
        );
    }
}
