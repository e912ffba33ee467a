//! The decision maker reuses the statistics the engine's parsimony pass
//! stored with each mode output instead of recomputing them. This pins
//! that reuse: on every Table II scenario, through both the scalar
//! [`RoboAds::step`] path and the 8-lane fleet slab path, every tick's
//! per-sensor statistics must equal [`normalized_statistic`] recomputed
//! from the source mode's outputs, bit for bit, and the actuator
//! statistic must be the one stored with its source mode, bit for bit
//! (and [`normalized_statistic`] of that mode's output to rounding) —
//! under the full bank and under a lazy bank, where a dormant mode's
//! stale output can source a per-sensor view.
//!
//! The aggregate sensor statistic is not stored by the engine: a
//! standalone detector computes it on one lane, and a fleet slab job
//! batches it across the robots that selected the same mode. It too
//! must equal [`normalized_statistic`] on the selected mode's output,
//! on both paths and with fleets whose per-mode buckets leave partial
//! 8-lane passes.

use roboads::core::{
    ActivationPolicy, DetectionReport, FleetEngine, RoboAds, RoboAdsConfig, RobotInput,
};
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
/// engine output it was assessed on; counts the per-sensor views taken
/// from a dormant (stale) mode.
fn assert_statistics_reused(tag: &str, detector: &RoboAds, report: &DetectionReport) -> usize {
    let system = detector.system();
    let modes = detector.modes().modes();
    let out = detector.last_engine_output();
    let mut dormant_views = 0;
    for view in &report.per_sensor {
        let m = view.from_mode;
        if !out.is_active(m) {
            dormant_views += 1;
        }
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
    dormant_views
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

/// Runs every scenario through the scalar path, one detector each;
/// returns the number of dormant-sourced views seen.
fn scalar_path(template: &RoboAds, runs: &[(String, Inputs)], policy: &str) -> usize {
    let mut dormant_views = 0;
    for (name, inputs) in runs {
        let mut detector = template.clone();
        for (k, (u, readings)) in inputs.iter().enumerate() {
            let report = detector.step(u, readings).unwrap();
            let tag = format!("scalar/{policy}/{name} tick {k}");
            dormant_views += assert_statistics_reused(&tag, &detector, &report);
            assert_aggregate_recomputed(&tag, &detector, &report);
        }
    }
    dormant_views
}

/// Runs all scenarios at once as one fleet (one robot per scenario, one
/// signature group, a full 8-lane tile plus a remainder tile).
fn fleet_path(template: &RoboAds, runs: &[(String, Inputs)], policy: &str) -> usize {
    fleet_of(template, runs, runs.len(), policy)
}

/// Runs a fleet of `robots` robots in one signature group, robot `i`
/// replaying scenario `i mod runs.len()`; returns the number of
/// dormant-sourced views seen.
fn fleet_of(template: &RoboAds, runs: &[(String, Inputs)], robots: usize, policy: &str) -> usize {
    let mut fleet = FleetEngine::new(vec![template.clone(); robots], 1);
    let ticks = runs.iter().map(|(_, inputs)| inputs.len()).max().unwrap();
    let mut dormant_views = 0;
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
            let tag = format!("fleet{robots}/{policy}/{name} robot {i} tick {k}");
            dormant_views += assert_statistics_reused(&tag, fleet.detector(i), fleet.report(i));
            assert_aggregate_recomputed(&tag, fleet.detector(i), fleet.report(i));
        }
    }
    dormant_views
}

/// The default bank and a `TopK` bank, the two activation policies the
/// fleet groups on.
fn templates() -> [(&'static str, RoboAds); 2] {
    let full = evaluation_detector(RobotKind::Khepera, &RoboAdsConfig::paper_defaults()).unwrap();
    let lazy = evaluation_detector(
        RobotKind::Khepera,
        &RoboAdsConfig::paper_defaults().with_activation(ActivationPolicy::TopK {
            k: 1,
            audit_period: 4,
            wake_margin: 3.0,
        }),
    )
    .unwrap();
    [("full", full), ("lazy", lazy)]
}

#[test]
fn decision_statistics_equal_recomputed_ones_on_both_paths() {
    let runs = table2_inputs();
    let full = evaluation_detector(RobotKind::Khepera, &RoboAdsConfig::paper_defaults()).unwrap();
    assert_eq!(scalar_path(&full, &runs, "full"), 0);
    assert_eq!(fleet_path(&full, &runs, "full"), 0);

    // k = 1 parks every mode but the selected one (and the most
    // actuator-precise one), so the selected mode's reference sensor is
    // tested by dormant modes only and its view comes from a stale
    // output.
    let lazy = evaluation_detector(
        RobotKind::Khepera,
        &RoboAdsConfig::paper_defaults().with_activation(ActivationPolicy::TopK {
            k: 1,
            audit_period: 4,
            wake_margin: 3.0,
        }),
    )
    .unwrap();
    assert!(
        scalar_path(&lazy, &runs, "lazy") > 0,
        "a dormant mode must source some view"
    );
    assert!(
        fleet_path(&lazy, &runs, "lazy") > 0,
        "a dormant mode must source some view"
    );
}

#[test]
fn batched_aggregate_statistic_equals_recomputed_one_with_partial_buckets() {
    // 19 robots in one slab job: the per-mode buckets cannot all be
    // multiples of 8, so some aggregate pass runs with lanes masked off;
    // robots 12–18 replay the first seven scenarios again, so their
    // buckets also mix tiles.
    let runs = table2_inputs();
    for (policy, template) in templates() {
        fleet_of(&template, &runs, 19, policy);
    }
}
