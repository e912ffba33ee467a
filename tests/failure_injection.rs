//! Failure injection on the detector itself: malformed readings, NaN
//! payloads and degenerate configurations must produce typed errors and
//! leave the detector usable — a dependable-systems detector must not be
//! the least dependable component in the loop.

use std::sync::Arc;

use roboads::core::{
    snapshot_detector, CoreError, FleetEngine, ModeSet, RoboAds, RoboAdsConfig, RobotFactory,
    RobotInput, ShardConfig, ShardedFleet, StampedFrame,
};
use roboads::linalg::Vector;
use roboads::models::presets;

fn detector() -> (roboads::models::RobotSystem, RoboAds, Vector, Vector) {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[1.0, 1.0, 0.2]);
    let ads = RoboAds::with_defaults(system.clone(), x0.clone()).unwrap();
    let u = Vector::from_slice(&[0.06, 0.05]);
    (system, ads, x0, u)
}

fn clean_readings(system: &roboads::models::RobotSystem, x: &Vector) -> Vec<Vector> {
    (0..system.sensor_count())
        .map(|i| system.sensor(i).unwrap().measure(x))
        .collect()
}

#[test]
fn nan_reading_is_rejected_and_detector_recovers() {
    let (system, mut ads, x0, u) = detector();
    let mut x_true = x0;

    // Warm up.
    for _ in 0..5 {
        x_true = system.dynamics().step(&x_true, &u);
        ads.step(&u, &clean_readings(&system, &x_true)).unwrap();
    }
    let iterations_before = ads.iteration();
    let estimate_before = ads.state_estimate().clone();

    // Inject a NaN payload: typed error, no state change, no iteration.
    let mut poisoned = clean_readings(&system, &x_true);
    poisoned[1][2] = f64::NAN;
    let err = ads.step(&u, &poisoned).unwrap_err();
    assert!(matches!(err, CoreError::BadReadings { .. }));
    assert_eq!(ads.iteration(), iterations_before);
    assert_eq!(ads.state_estimate(), &estimate_before);

    // The skipped iteration does not break subsequent operation.
    for _ in 0..5 {
        x_true = system.dynamics().step(&x_true, &u);
        let report = ads.step(&u, &clean_readings(&system, &x_true)).unwrap();
        assert!(!report.sensor_alarm);
    }
}

#[test]
fn wrong_reading_count_and_dimension_are_rejected() {
    let (system, mut ads, x0, u) = detector();
    let readings = clean_readings(&system, &x0);

    let mut short = readings.clone();
    short.pop();
    assert!(matches!(
        ads.step(&u, &short),
        Err(CoreError::BadReadings { .. })
    ));

    let mut misshapen = readings;
    misshapen[0] = Vector::zeros(5);
    assert!(matches!(
        ads.step(&u, &misshapen),
        Err(CoreError::BadReadings { .. })
    ));
}

#[test]
fn infinite_command_is_reported_not_propagated() {
    let (system, mut ads, x0, _) = detector();
    let readings = clean_readings(&system, &x0);
    // A non-finite command is an input fault: rejected up front as a
    // typed error, never run through the filter (where it would burn
    // the Jacobi sweep cap and surface as a numeric failure).
    for bad_u in [
        Vector::from_slice(&[f64::INFINITY, 0.05]),
        Vector::from_slice(&[0.06, f64::NAN]),
    ] {
        let err = ads.step(&bad_u, &readings).unwrap_err();
        assert!(matches!(err, CoreError::BadReadings { .. }), "{err}");
        assert_eq!(ads.iteration(), 0);
        assert_eq!(ads.state_estimate(), &x0);
    }
}

#[test]
fn wrong_length_command_is_rejected_and_detector_recovers() {
    let (system, mut ads, x0, u) = detector();
    let mut x_true = x0;
    for _ in 0..3 {
        x_true = system.dynamics().step(&x_true, &u);
        ads.step(&u, &clean_readings(&system, &x_true)).unwrap();
    }
    let estimate_before = ads.state_estimate().clone();
    let readings = clean_readings(&system, &x_true);
    for bad_u in [
        Vector::zeros(0),
        Vector::from_slice(&[0.06]),
        Vector::from_slice(&[0.06, 0.05, 0.01]),
    ] {
        let err = ads.step(&bad_u, &readings).unwrap_err();
        assert!(matches!(err, CoreError::BadReadings { .. }), "{err}");
    }
    assert_eq!(ads.iteration(), 3);
    assert_eq!(ads.state_estimate(), &estimate_before);
    for _ in 0..3 {
        x_true = system.dynamics().step(&x_true, &u);
        let report = ads.step(&u, &clean_readings(&system, &x_true)).unwrap();
        assert!(!report.sensor_alarm);
    }
}

/// IPS `x` readings that are finite but overflow the filter update. They
/// pass input validation (the wire codec carries raw `f64`s), so
/// Algorithm 2 itself must fail them: 1e308 drives the state estimate
/// to NaN, 1e160 overflows the χ² statistic.
const OVERFLOWING_READINGS: [f64; 2] = [1e308, 1e160];

#[test]
fn overflowing_finite_reading_is_a_typed_error_and_detector_recovers() {
    for value in OVERFLOWING_READINGS {
        let (system, mut ads, x0, u) = detector();
        let mut x_true = x0;
        for k in 0..40 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings = clean_readings(&system, &x_true);
            if k == 2 {
                readings[0][0] = value;
                let iteration = ads.iteration();
                let estimate = ads.state_estimate().clone();
                let err = ads.step(&u, &readings).unwrap_err();
                assert!(matches!(err, CoreError::Numeric(_)), "{value}: {err}");
                assert_eq!(ads.iteration(), iteration);
                assert_eq!(ads.state_estimate(), &estimate);
                continue;
            }
            let report = ads.step(&u, &readings).unwrap();
            assert!(report.state_estimate.is_finite(), "{value}: tick {k}");
            assert!(ads.state_covariance().is_finite(), "{value}: tick {k}");
        }
        assert_eq!(ads.iteration(), 39);
    }
}

/// A fleet whose robots all drive the same command, each from its own
/// start, so every lane carries distinct numbers: the starts, and the
/// clean readings of every robot at every tick (`[tick][robot]`).
fn fleet_trajectory(
    system: &roboads::models::RobotSystem,
    robots: usize,
    ticks: usize,
    u: &Vector,
) -> (Vec<Vector>, Vec<Vec<Vec<Vector>>>) {
    let starts: Vec<Vector> = (0..robots)
        .map(|r| Vector::from_slice(&[0.5 + 0.05 * r as f64, 0.5, 0.1]))
        .collect();
    let mut states = starts.clone();
    let readings = (0..ticks)
        .map(|_| {
            states
                .iter_mut()
                .map(|x| {
                    *x = system.dynamics().step(x, u);
                    clean_readings(system, x)
                })
                .collect()
        })
        .collect();
    (starts, readings)
}

#[test]
fn wrong_length_command_fails_only_its_fleet_lane() {
    hostile_input_fails_only_its_fleet_lane(
        |u, _| *u = Vector::from_slice(&[u[0]]),
        |e| matches!(e, CoreError::BadReadings { .. }),
    );
}

#[test]
fn overflowing_finite_reading_fails_only_its_fleet_lane() {
    for value in OVERFLOWING_READINGS {
        hostile_input_fails_only_its_fleet_lane(
            |_, readings| readings[0][0] = value,
            |e| matches!(e, CoreError::Numeric(_)),
        );
    }
}

/// One robot of a 16-robot slab fleet gets a hostile input at one tick
/// (`corrupt` rewrites its command and readings): that robot's result is
/// the `expected` typed error and it does not advance, it recovers on
/// the next tick with a finite estimate, and every other robot stays
/// snapshot-identical to a clean run.
fn hostile_input_fails_only_its_fleet_lane(
    corrupt: impl Fn(&mut Vector, &mut [Vector]),
    expected: fn(&CoreError) -> bool,
) {
    const ROBOTS: usize = 16;
    const TICKS: usize = 6;
    const BAD_ROBOT: usize = 5;
    const BAD_TICK: usize = 3;
    let system = presets::khepera_system();
    let u = Vector::from_slice(&[0.06, 0.05]);
    let (starts, readings) = fleet_trajectory(&system, ROBOTS, TICKS, &u);
    let run = |inject: bool| {
        let mut fleet = FleetEngine::new(
            starts
                .iter()
                .map(|x0| RoboAds::with_defaults(system.clone(), x0.clone()).unwrap())
                .collect(),
            1,
        );
        let mut outcomes = Vec::new();
        for (k, tick) in readings.iter().enumerate() {
            let mut bad_u = u.clone();
            let mut bad_readings = tick[BAD_ROBOT].clone();
            corrupt(&mut bad_u, &mut bad_readings);
            let inputs: Vec<RobotInput> = (0..ROBOTS)
                .map(|r| {
                    if inject && r == BAD_ROBOT && k == BAD_TICK {
                        RobotInput {
                            u_prev: &bad_u,
                            readings: &bad_readings,
                        }
                    } else {
                        RobotInput {
                            u_prev: &u,
                            readings: &tick[r],
                        }
                    }
                })
                .collect();
            let batch = fleet.step_batch(&inputs);
            assert_eq!(batch.is_err(), inject && k == BAD_TICK, "tick {k}");
            assert_eq!(fleet.slab_robots(), ROBOTS, "every robot rides a slab tile");
            outcomes.push(
                (0..ROBOTS)
                    .map(|r| {
                        let detector = fleet.detector(r);
                        (
                            fleet.result(r).clone(),
                            detector.iteration(),
                            detector.state_estimate().clone(),
                            snapshot_detector(detector),
                        )
                    })
                    .collect::<Vec<_>>(),
            );
        }
        outcomes
    };
    let clean = run(false);
    let injected = run(true);
    for k in 0..TICKS {
        for r in 0..ROBOTS {
            let (result, iteration, estimate, state) = &injected[k][r];
            assert!(estimate.is_finite(), "robot {r} tick {k}");
            if r == BAD_ROBOT && k >= BAD_TICK {
                if k == BAD_TICK {
                    assert!(
                        result.as_ref().is_err_and(expected),
                        "unexpected outcome {result:?}"
                    );
                    // The rejected iteration did not advance the robot.
                    assert_eq!(*iteration, injected[k - 1][r].1);
                    assert_eq!(estimate, &injected[k - 1][r].2);
                } else {
                    assert!(result.is_ok());
                }
                continue;
            }
            assert!(result.is_ok(), "robot {r} tick {k}: {result:?}");
            assert!(state == &clean[k][r].3, "robot {r} perturbed at tick {k}");
        }
    }
}

#[test]
fn wrong_length_command_frame_is_a_per_robot_error_through_shard_recovery() {
    hostile_frame_is_a_per_robot_error_through_shard_recovery(
        |sensor, values| {
            if sensor.is_none() {
                values.truncate(1);
            }
        },
        |e| matches!(e, CoreError::BadReadings { .. }),
    );
}

#[test]
fn overflowing_reading_frame_is_a_per_robot_error_through_shard_recovery() {
    for value in OVERFLOWING_READINGS {
        hostile_frame_is_a_per_robot_error_through_shard_recovery(
            move |sensor, values| {
                if sensor == Some(0) {
                    values[0] = value;
                }
            },
            |e| matches!(e, CoreError::Numeric(_)),
        );
    }
}

/// One robot's frames at one tick are rewritten by `corrupt` (given the
/// frame's sensor, `None` for the command): the hostile frame is
/// accepted and journaled like any other, the robot's result is the
/// `expected` typed error, a shard crash right after replays it through
/// the same error bitwise, and every tick after it succeeds.
fn hostile_frame_is_a_per_robot_error_through_shard_recovery(
    corrupt: impl Fn(Option<u32>, &mut Vec<f64>),
    expected: fn(&CoreError) -> bool,
) {
    const ROBOTS: usize = 16;
    const TICKS: usize = 6;
    const BAD_ROBOT: u64 = 5;
    const BAD_TICK: usize = 3;
    let system = presets::khepera_system();
    let u = Vector::from_slice(&[0.06, 0.05]);
    let (starts, readings) = fleet_trajectory(&system, ROBOTS, TICKS, &u);
    let factory: RobotFactory = {
        let system = system.clone();
        Arc::new(move |id| RoboAds::with_defaults(system.clone(), starts[id as usize].clone()))
    };
    let ids: Vec<u64> = (0..ROBOTS as u64).collect();
    let mut fleet = ShardedFleet::new(
        &ids,
        factory,
        ShardConfig {
            shards: 1,
            snapshot_period: 3,
            ..ShardConfig::default()
        },
    )
    .unwrap();
    let frame = |id: u64, k: usize, sensor: Option<u32>, values: &[f64]| {
        let mut values = values.to_vec();
        if id == BAD_ROBOT && k == BAD_TICK {
            corrupt(sensor, &mut values);
        }
        StampedFrame {
            robot: id,
            sensor,
            tick: k as u64,
            values,
        }
    };
    for (k, tick) in readings.iter().enumerate() {
        for &id in &ids {
            assert!(fleet
                .offer_frame(&frame(id, k, None, u.as_slice()))
                .unwrap());
            for (s, reading) in tick[id as usize].iter().enumerate() {
                assert!(fleet
                    .offer_frame(&frame(id, k, Some(s as u32), reading.as_slice()))
                    .unwrap());
            }
        }
        let step = fleet.step();
        assert_eq!(step.is_err(), k == BAD_TICK, "tick {k}");
        if k == BAD_TICK {
            let result = fleet.result(BAD_ROBOT).unwrap();
            assert!(
                result.as_ref().is_err_and(expected),
                "unexpected outcome {result:?}"
            );
            // Crash the shard right after the hostile tick: recovery
            // restores the tick-3 snapshot and replays the journaled
            // hostile frame through the same error.
            let live: Vec<Vec<u8>> = ids
                .iter()
                .map(|&id| snapshot_detector(fleet.detector(id).unwrap()))
                .collect();
            fleet.recover_shard(0).unwrap();
            for (&id, before) in ids.iter().zip(&live) {
                assert!(
                    &snapshot_detector(fleet.detector(id).unwrap()) == before,
                    "robot {id} diverged through recovery"
                );
            }
            let result = fleet.result(BAD_ROBOT).unwrap();
            assert!(
                result.as_ref().is_err_and(expected),
                "unexpected outcome after recovery {result:?}"
            );
        }
        for &id in &ids {
            if !(id == BAD_ROBOT && k == BAD_TICK) {
                assert!(fleet.result(id).unwrap().is_ok(), "robot {id} tick {k}");
                assert!(fleet.detector(id).unwrap().state_estimate().is_finite());
            }
        }
    }
}

#[test]
fn degenerate_configurations_fail_fast() {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[1.0, 1.0, 0.2]);

    // Invalid alpha.
    assert!(matches!(
        RoboAds::new(
            system.clone(),
            RoboAdsConfig::paper_defaults().with_sensor_alpha(0.0),
            x0.clone(),
            ModeSet::one_reference_per_sensor(&system),
        ),
        Err(CoreError::InvalidConfig { .. })
    ));

    // Wrong state dimension.
    assert!(RoboAds::with_defaults(system.clone(), Vector::zeros(2)).is_err());

    // Empty reference group.
    let broken = ModeSet::from_reference_groups(&system, &[vec![]]);
    assert!(matches!(
        RoboAds::new(system.clone(), RoboAdsConfig::paper_defaults(), x0, broken),
        Err(CoreError::DegenerateMode { .. })
    ));
}

#[test]
fn frozen_sensor_attack_is_detected_as_that_sensors_misbehavior() {
    // A frozen (jammed-output) IPS drifts away from the moving truth.
    use roboads::sim::{Corruption, Misbehavior, Scenario, SimulationBuilder, Target};
    let scenario = Scenario::new(
        0,
        "ips-freeze",
        "IPS output frozen at its last value",
        vec![Misbehavior::new(
            "freeze",
            Target::Sensor(0),
            Corruption::Freeze,
            40,
            None,
        )],
        200,
    );
    let outcome = SimulationBuilder::khepera()
        .scenario(scenario)
        .seed(11)
        .run()
        .unwrap();
    assert_eq!(outcome.report.misbehaving_sensors, vec![0]);
    assert!(outcome.eval.sensor_delay().unwrap() < 3.0);
}
