//! The async ingestion front-end must be *bitwise* invisible when
//! frames arrive on time, and surgically isolating when they don't.
//!
//! [`FleetIngest`] sits between a jittery transport and
//! [`FleetEngine::step_batch`]: frames are offered per robot / per
//! sensor in any order, and a tick-boundary `swap` publishes complete
//! slots into the aligned batch. The contract pinned here (DESIGN.md
//! §14):
//!
//! * all frames on time ⇒ the report stream is identical, bit for bit,
//!   to direct `step_batch` calls — the front-end adds buffering, never
//!   arithmetic;
//! * one robot late past the deadline ⇒ only that robot's
//!   [`FleetEngine::result`] changes (`MarkMissing` errs, `HoldLast`
//!   steps on held values); every other robot's reports stay bitwise
//!   identical to the all-on-time run;
//! * the isolation holds on the SIMD slab path too — a missing robot is
//!   masked out of the batched kernels, not fed garbage lanes.

use roboads_core::{
    CoreError, DeadlinePolicy, DetectionReport, FleetEngine, FleetIngest, ModeSet, RoboAds,
    RoboAdsConfig, RobotInput, SlotState,
};
use roboads_linalg::Vector;
use roboads_models::{presets, RobotSystem};

const STEPS: usize = 16;

fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
    (0..system.sensor_count())
        .map(|i| system.sensor(i).unwrap().measure(x))
        .collect()
}

/// Robot `robot`'s readings at step `k`: shared trajectory, per-robot
/// phase-shifted misbehavior (an IPS spoof) so robots are distinct.
fn robot_readings(system: &RobotSystem, x: &Vector, robot: usize, k: usize) -> Vec<Vector> {
    let mut readings = clean_readings(system, x);
    if k >= 6 + robot % 4 {
        readings[0][0] += 0.07;
    }
    readings
}

fn detector_for(system: &RobotSystem) -> RoboAds {
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let modes = ModeSet::one_reference_per_sensor(system);
    RoboAds::new(system.clone(), RoboAdsConfig::paper_defaults(), x0, modes).unwrap()
}

fn detector() -> RoboAds {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    RoboAds::with_defaults(system, x0).unwrap()
}

/// Per-robot report sequences from a fleet stepped directly (dense).
fn direct_run(robots: usize) -> Vec<Vec<DetectionReport>> {
    let system = presets::khepera_system();
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut fleet = FleetEngine::new((0..robots).map(|_| detector()).collect(), 1);
    let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut sequences: Vec<Vec<DetectionReport>> = vec![Vec::with_capacity(STEPS); robots];
    for k in 0..STEPS {
        x_true = system.dynamics().step(&x_true, &u);
        let all_readings: Vec<Vec<Vector>> = (0..robots)
            .map(|robot| robot_readings(&system, &x_true, robot, k))
            .collect();
        let inputs: Vec<RobotInput> = all_readings
            .iter()
            .map(|readings| RobotInput {
                u_prev: &u,
                readings,
            })
            .collect();
        fleet.step_batch(&inputs).unwrap();
        for (robot, seq) in sequences.iter_mut().enumerate() {
            seq.push(fleet.report(robot).clone());
        }
    }
    sequences
}

/// With every frame on time, a fleet driven through [`FleetIngest`]
/// produces reports bitwise identical to direct [`FleetEngine::
/// step_batch`] calls — even with frames offered out of order and
/// duplicates where the newest wins.
#[test]
fn on_time_ingest_is_bitwise_identical_to_direct_stepping() {
    const ROBOTS: usize = 5;
    let expected = direct_run(ROBOTS);
    let system = presets::khepera_system();
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut fleet = FleetEngine::new((0..ROBOTS).map(|_| detector()).collect(), 1);
    let mut ingest = FleetIngest::for_fleet(&fleet);
    let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let stale = Vector::from_slice(&[9.9, 9.9]);
    for k in 0..STEPS {
        x_true = system.dynamics().step(&x_true, &u);
        for robot in (0..ROBOTS).rev() {
            let readings = robot_readings(&system, &x_true, robot, k);
            // A garbage frame first — overwritten below (newest wins).
            ingest.offer(robot, 0, &stale).unwrap();
            // Sensors in reverse order, command last: order-free.
            for (s, reading) in readings.iter().enumerate().rev() {
                ingest.offer(robot, s, reading).unwrap();
            }
            ingest.offer_input(robot, &u).unwrap();
        }
        let summary = ingest.swap();
        assert_eq!(summary.fresh, ROBOTS);
        assert_eq!(summary.tick, k as u64);
        let inputs: Vec<Option<RobotInput>> = (0..ROBOTS).map(|r| ingest.input(r)).collect();
        fleet.step_batch_masked(&inputs).unwrap();
        for (robot, robot_expected) in expected.iter().enumerate() {
            assert_eq!(
                fleet.report(robot),
                &robot_expected[k],
                "robot {robot} diverged at step {k}"
            );
        }
    }
}

/// Shared harness: run `ROBOTS` robots through ingest with robot 1's
/// frames withheld during `delay_window`, under `policy`. Returns the
/// per-robot report sequences.
fn delayed_run(
    robots: usize,
    policy: DeadlinePolicy,
    delay_window: std::ops::Range<usize>,
) -> (Vec<Vec<DetectionReport>>, Vec<Vec<Option<CoreError>>>) {
    const DELAYED: usize = 1;
    let system = presets::khepera_system();
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut fleet = FleetEngine::new((0..robots).map(|_| detector()).collect(), 1);
    let mut ingest = FleetIngest::for_fleet(&fleet);
    ingest.set_policy(DELAYED, policy);
    let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut sequences: Vec<Vec<DetectionReport>> = vec![Vec::with_capacity(STEPS); robots];
    let mut errors: Vec<Vec<Option<CoreError>>> = vec![Vec::with_capacity(STEPS); robots];
    for k in 0..STEPS {
        x_true = system.dynamics().step(&x_true, &u);
        for robot in 0..robots {
            if robot == DELAYED && delay_window.contains(&k) {
                continue; // this robot's frames never make the window
            }
            let readings = robot_readings(&system, &x_true, robot, k);
            ingest.offer_input(robot, &u).unwrap();
            for (s, reading) in readings.iter().enumerate() {
                ingest.offer(robot, s, reading).unwrap();
            }
        }
        let _ = ingest.step(&mut fleet);
        for robot in 0..robots {
            sequences[robot].push(fleet.report(robot).clone());
            errors[robot].push(fleet.result(robot).as_ref().err().cloned());
        }
    }
    (sequences, errors)
}

/// `MarkMissing`: the delayed robot's iterations are skipped and err
/// with [`CoreError::MissedDeadline`]; every other robot's full report
/// sequence stays bitwise identical to the all-on-time run.
#[test]
fn mark_missing_isolates_the_delayed_robot() {
    const ROBOTS: usize = 4;
    let expected = direct_run(ROBOTS);
    let (got, errors) = delayed_run(ROBOTS, DeadlinePolicy::MarkMissing, 5..8);
    for robot in [0, 2, 3] {
        assert_eq!(got[robot], expected[robot], "robot {robot} was perturbed");
        assert!(errors[robot].iter().all(Option::is_none));
    }
    for k in 0..STEPS {
        if (5..8).contains(&k) {
            assert!(
                matches!(errors[1][k], Some(CoreError::MissedDeadline { robot: 1 })),
                "delayed robot not flagged at step {k}"
            );
            // Its report is frozen at the last completed iteration.
            assert_eq!(got[1][k], got[1][4]);
        } else {
            assert!(errors[1][k].is_none(), "spurious error at step {k}");
        }
    }
    // Before and inside the window the delayed robot tracked the fleet;
    // after it, its skipped iterations make it genuinely different.
    assert_eq!(got[1][..5], expected[1][..5]);
    assert_ne!(got[1][STEPS - 1], expected[1][STEPS - 1]);
}

/// `HoldLast`: the delayed robot steps on the previous window's values
/// (explicitly, observable via [`SlotState::Held`]) and stays `Ok`;
/// neighbours are untouched.
#[test]
fn hold_last_steps_the_delayed_robot_on_held_values() {
    const ROBOTS: usize = 3;
    let expected = direct_run(ROBOTS);
    let (got, errors) = delayed_run(ROBOTS, DeadlinePolicy::HoldLast, 6..7);
    for robot in [0, 2] {
        assert_eq!(got[robot], expected[robot], "robot {robot} was perturbed");
    }
    // The held robot still completed every iteration without error...
    assert!(errors[1].iter().all(Option::is_none));
    // ...tracking the fleet before the hold, diverging after it (it
    // stepped on tick-5 readings at tick 6).
    assert_eq!(got[1][..6], expected[1][..6]);
    assert_ne!(got[1][6], expected[1][6]);

    // And a hold with no history yet resolves to Missing, not a step
    // on uninitialized buffers.
    let mut ingest = FleetIngest::new(&[1]).with_policy(DeadlinePolicy::HoldLast);
    ingest.swap();
    assert_eq!(ingest.state(0), SlotState::Missing);
    assert!(ingest.input(0).is_none());
}

/// The masked slab path: an 8-robot homogeneous fleet on the SIMD lanes
/// with one robot missing mid-run must produce, for every robot, the
/// exact reports of a scalar fleet — every robot its own one-robot
/// signature group, stepped per robot — fed the same masked batches:
/// missing lanes are masked out of the batched kernels, never run on
/// stale lane data.
#[test]
fn masked_slab_path_matches_masked_scalar_path_bitwise() {
    const ROBOTS: usize = 8;
    const MISSING: usize = 3;
    let system = presets::khepera_system();
    let u = Vector::from_slice(&[0.06, 0.05]);
    let run = |shared: bool| -> (Vec<Vec<DetectionReport>>, Vec<Vec<bool>>) {
        let detectors = if shared {
            (0..ROBOTS).map(|_| detector_for(&system)).collect()
        } else {
            (0..ROBOTS)
                .map(|_| detector_for(&presets::khepera_system()))
                .collect()
        };
        let mut fleet = FleetEngine::new(detectors, 1);
        let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut sequences: Vec<Vec<DetectionReport>> =
            (0..ROBOTS).map(|_| Vec::with_capacity(STEPS)).collect();
        let mut missed: Vec<Vec<bool>> = (0..ROBOTS).map(|_| Vec::with_capacity(STEPS)).collect();
        for k in 0..STEPS {
            x_true = system.dynamics().step(&x_true, &u);
            let all_readings: Vec<Vec<Vector>> = (0..ROBOTS)
                .map(|robot| robot_readings(&system, &x_true, robot, k))
                .collect();
            let inputs: Vec<Option<RobotInput>> = all_readings
                .iter()
                .enumerate()
                .map(|(robot, readings)| {
                    (robot != MISSING || !(4..7).contains(&k)).then_some(RobotInput {
                        u_prev: &u,
                        readings,
                    })
                })
                .collect();
            let _ = fleet.step_batch_masked(&inputs);
            for robot in 0..ROBOTS {
                sequences[robot].push(fleet.report(robot).clone());
                missed[robot].push(matches!(
                    fleet.result(robot),
                    Err(CoreError::MissedDeadline { .. })
                ));
            }
        }
        let stepped = if shared {
            fleet.slab_robots()
        } else {
            fleet.scalar_robots()
        };
        assert_eq!(stepped, ROBOTS, "shared={shared}: wrong stepping path");
        (sequences, missed)
    };
    let (scalar, scalar_missed) = run(false);
    let (slab, slab_missed) = run(true);
    assert_eq!(slab, scalar, "slab lanes diverged under masking");
    assert_eq!(slab_missed, scalar_missed);
    // Sanity: the mask actually fired, and only for the missing robot.
    assert!(scalar_missed[MISSING][4..7].iter().all(|&m| m));
    assert!(scalar_missed[MISSING][..4].iter().all(|&m| !m));
    for robot in (0..ROBOTS).filter(|&r| r != MISSING) {
        assert!(scalar_missed[robot].iter().all(|&m| !m));
    }
}

/// Late frames — stamped with an already-swapped tick — are rejected
/// and counted, never staged into the wrong window.
#[test]
fn late_stamped_frames_are_rejected_and_counted() {
    use roboads_core::obs::{RingBufferSink, Telemetry};
    use std::sync::Arc;
    let ring = Arc::new(RingBufferSink::new(256));
    let telemetry = Telemetry::new(ring.clone());
    let mut ingest = FleetIngest::new(&[2]);
    ingest.set_telemetry(telemetry.clone());
    let v = Vector::from_slice(&[1.0]);
    assert!(ingest.offer_stamped(0, 0, &v, 0).unwrap());
    ingest.swap();
    // Tick 0's window is gone; these frames are late.
    assert!(!ingest.offer_stamped(0, 1, &v, 0).unwrap());
    assert!(!ingest.offer_input_stamped(0, &v, 0).unwrap());
    assert_eq!(
        telemetry.metrics().counter_value("ingest.frames_rejected"),
        Some(2)
    );
    let rejections: Vec<_> = ring
        .events()
        .into_iter()
        .filter(|e| e.name == "ingest.frame_rejected")
        .collect();
    assert_eq!(rejections.len(), 2);
    // The late frame did not sneak into the new window's staging.
    ingest.offer_input_stamped(0, &v, 1).unwrap();
    ingest.offer_stamped(0, 0, &v, 1).unwrap();
    let summary = ingest.swap();
    assert_eq!(summary.missing, 1, "sensor 1 must still be missing");
}
