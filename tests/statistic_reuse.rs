//! The decision maker reuses the statistics the engine's parsimony pass
//! stored with each mode output instead of recomputing them. This pins
//! that reuse: on every Table II scenario, through both the scalar
//! [`RoboAds::step`] path and the 8-lane fleet slab path, every tick's
//! per-sensor statistics must equal [`normalized_statistic`] recomputed
//! from the source mode's outputs, bit for bit, and the actuator
//! statistic must be the one stored with its source mode, bit for bit
//! (and [`normalized_statistic`] of that mode's output to rounding).
//!
//! The aggregate sensor statistic is not stored by the engine: a
//! standalone detector computes it on one lane, and a fleet slab job
//! batches it across the robots that selected the same mode. It too
//! must equal [`normalized_statistic`] on the selected mode's output,
//! on both paths and with fleets whose per-mode buckets leave partial
//! 8-lane passes.

use roboads::core::{DetectionReport, FleetEngine, RoboAds, RoboAdsConfig, RobotInput};
use roboads::linalg::Vector;
use roboads::sim::{evaluation_detector, RobotKind, Scenario, SimulationBuilder};
use roboads::stats::normalized_statistic;

/// One robot's recorded inputs: `(u_prev, readings)` per tick.
type Inputs = Vec<(Vector, Vec<Vector>)>;

/// The monitor-side inputs of every Table II scenario (the clean
/// mission included), recorded once from the simulator.
fn table2_inputs() -> Vec<(String, Inputs)> {
    let mut scenarios = vec![Scenario::clean()];
    scenarios.extend(Scenario::all_khepera());
    scenarios
        .into_iter()
        .map(|scenario| {
            let name = scenario.name().to_string();
            let outcome = SimulationBuilder::khepera()
                .scenario(scenario)
                .seed(11)
                .run()
                .unwrap();
            let inputs = outcome
                .trace
                .records()
                .iter()
                .map(|r| (r.planned_command.clone(), r.readings.clone()))
                .collect();
            (name, inputs)
        })
        .collect()
}

/// Asserts that `report`'s statistics are the ones recomputed from the
/// engine output it was assessed on.
fn assert_statistics_reused(tag: &str, detector: &RoboAds, report: &DetectionReport) {
    let system = detector.system();
    let modes = detector.modes().modes();
    let out = detector.last_engine_output();
    for view in &report.per_sensor {
        let m = view.from_mode;
        let src = &out.modes[m];
        let slice = system
            .subset_slices(modes[m].testing())
            .into_iter()
            .find(|s| s.sensor == view.sensor)
            .expect("a view's sensor is tested by its source mode");
        let d = src.sensor_anomaly.segment(slice.offset, slice.len);
        let p = src
            .sensor_covariance
            .block(slice.offset, slice.offset, slice.len, slice.len);
        let expected = normalized_statistic(&d, &p).unwrap();
        assert_eq!(
            view.statistic.to_bits(),
            expected.to_bits(),
            "{tag}: sensor {} statistic from mode {m}",
            view.sensor
        );
    }
    // The actuator source is the mode whose estimate the report carries.
    let source = out
        .modes
        .iter()
        .find(|o| {
            o.actuator_anomaly == report.actuator_anomaly.estimate
                && o.actuator_covariance == report.actuator_anomaly.covariance
        })
        .expect("the actuator estimate comes from one of the modes");
    // The engine computes this one as d̂ᵀ·N·d̂, with N the normal matrix
    // whose LU inverse is the output's covariance; N is not part of the
    // output, so the reuse is pinned bit for bit against the statistic
    // stored with the source mode (itself pinned to the `nuise_step`
    // oracle by the kernel's tests), and its value against the
    // recomputed dᵀ(Pᵃ)⁺d to a relative 1e-9 (the two differ by
    // rounding, 1.2e-13 at most on these runs).
    assert_eq!(
        report.actuator_anomaly.statistic.to_bits(),
        source.actuator_statistic.to_bits(),
        "{tag}: actuator statistic"
    );
    let recomputed =
        normalized_statistic(&source.actuator_anomaly, &source.actuator_covariance).unwrap();
    assert!(
        (source.actuator_statistic - recomputed).abs() <= 1e-9 * recomputed.abs(),
        "{tag}: actuator statistic {} vs recomputed {recomputed}",
        source.actuator_statistic
    );
}

/// Asserts that `report`'s aggregate sensor statistic is the one
/// recomputed from the selected mode's output it was assessed on.
fn assert_aggregate_recomputed(tag: &str, detector: &RoboAds, report: &DetectionReport) {
    let selected = detector.last_engine_output().selected_output();
    assert!(
        !selected.sensor_anomaly.is_empty(),
        "{tag}: every default mode tests a sensor"
    );
    let expected =
        normalized_statistic(&selected.sensor_anomaly, &selected.sensor_covariance).unwrap();
    assert_eq!(
        report.sensor_anomaly.statistic.to_bits(),
        expected.to_bits(),
        "{tag}: aggregate sensor statistic"
    );
}

/// Runs every scenario through the scalar path, one detector each.
fn scalar_path(template: &RoboAds, runs: &[(String, Inputs)]) {
    for (name, inputs) in runs {
        let mut detector = template.clone();
        for (k, (u, readings)) in inputs.iter().enumerate() {
            let report = detector.step(u, readings).unwrap();
            let tag = format!("scalar/{name} tick {k}");
            assert_statistics_reused(&tag, &detector, &report);
            assert_aggregate_recomputed(&tag, &detector, &report);
        }
    }
}

/// Runs a fleet of `robots` robots in one signature group, robot `i`
/// replaying scenario `i mod runs.len()`.
fn fleet_of(template: &RoboAds, runs: &[(String, Inputs)], robots: usize) {
    let mut fleet = FleetEngine::new(vec![template.clone(); robots], 1);
    let ticks = runs.iter().map(|(_, inputs)| inputs.len()).max().unwrap();
    for k in 0..ticks {
        let batch: Vec<Option<RobotInput<'_>>> = (0..robots)
            .map(|i| {
                runs[i % runs.len()]
                    .1
                    .get(k)
                    .map(|(u, readings)| RobotInput {
                        u_prev: u,
                        readings,
                    })
            })
            .collect();
        fleet.step_batch_masked(&batch).unwrap();
        assert!(fleet.slab_robots() > 0, "tick {k}: the slab path must run");
        for (i, input) in batch.iter().enumerate() {
            if input.is_none() {
                continue;
            }
            fleet.result(i).as_ref().unwrap();
            let name = &runs[i % runs.len()].0;
            let tag = format!("fleet{robots}/{name} robot {i} tick {k}");
            assert_statistics_reused(&tag, fleet.detector(i), fleet.report(i));
            assert_aggregate_recomputed(&tag, fleet.detector(i), fleet.report(i));
        }
    }
}

#[test]
fn decision_statistics_equal_recomputed_ones_on_both_paths() {
    let runs = table2_inputs();
    let full = evaluation_detector(RobotKind::Khepera, &RoboAdsConfig::paper_defaults()).unwrap();
    scalar_path(&full, &runs);
    // One robot per scenario: a full 8-lane tile plus a remainder tile.
    fleet_of(&full, &runs, runs.len());
}

#[test]
fn batched_aggregate_statistic_equals_recomputed_one_with_partial_buckets() {
    // 19 robots in one slab job: the per-mode buckets cannot all be
    // multiples of 8, so some aggregate pass runs with lanes masked off;
    // robots 12–18 replay the first seven scenarios again, so their
    // buckets also mix tiles.
    let runs = table2_inputs();
    let full = evaluation_detector(RobotKind::Khepera, &RoboAdsConfig::paper_defaults()).unwrap();
    fleet_of(&full, &runs, 19);
}
