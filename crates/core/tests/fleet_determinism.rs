//! Fleet batching must be *bitwise* invisible to every robot.
//!
//! A [`FleetEngine`] stepping N robots — at any batch size and any
//! robot-grain thread count — must produce, for each robot, exactly the
//! [`DetectionReport`] sequence a standalone [`RoboAds`] produces when
//! fed the same inputs. Robots share no mutable state and each cell's
//! arithmetic is the standalone `step_into` path, so chunk boundaries
//! and thread interleavings cannot perturb a single bit (see
//! `DESIGN.md` §12).
//!
//! Each robot gets a *phase-offset* copy of the same scripted scenario
//! (IPS spoof, then a LiDAR DoS on top, shifted by the robot index), so
//! robots are genuinely distinct mid-run: a cross-robot state leak or
//! an off-by-one in the chunked scheduler shows up as a mismatch.

use std::sync::Arc;

use roboads_core::obs::{RingBufferSink, Telemetry};
use roboads_core::{
    CoreError, DetectionReport, FleetEngine, ModeSet, RoboAds, RoboAdsConfig, RobotInput,
};
use roboads_linalg::Vector;
use roboads_models::{presets, RobotSystem};

const STEPS: usize = 20;

fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
    (0..system.sensor_count())
        .map(|i| system.sensor(i).unwrap().measure(x))
        .collect()
}

/// Robot `robot`'s readings at step `k`: the shared trajectory with the
/// misbehavior schedule phase-shifted by the robot index.
fn robot_readings(system: &RobotSystem, x: &Vector, robot: usize, k: usize) -> Vec<Vector> {
    let mut readings = clean_readings(system, x);
    let phase = robot % 5;
    if k >= 8 + phase {
        readings[0][0] += 0.07; // IPS spoof
    }
    if k >= 14 + phase {
        readings[2] = Vector::zeros(4); // LiDAR DoS on top
    }
    readings
}

fn detector() -> RoboAds {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    RoboAds::with_defaults(system, x0).unwrap()
}

/// `robots` default detectors sharing one system, so a fleet of them is
/// one signature group and slabs once it fills a tile. (Each
/// `presets::khepera_system()` call builds pointer-distinct models, so
/// detectors built from separate calls never share a slab.)
fn shared_detectors(robots: usize) -> Vec<RoboAds> {
    let system = presets::khepera_system();
    (0..robots).map(|_| detector_for(&system)).collect()
}

/// Per-robot report sequences from N standalone detectors.
fn standalone_runs(robots: usize) -> Vec<Vec<DetectionReport>> {
    let system = presets::khepera_system();
    let u = Vector::from_slice(&[0.06, 0.05]);
    (0..robots)
        .map(|robot| {
            let mut ads = detector();
            let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
            let mut reports = Vec::with_capacity(STEPS);
            for k in 0..STEPS {
                x_true = system.dynamics().step(&x_true, &u);
                let readings = robot_readings(&system, &x_true, robot, k);
                reports.push(ads.step(&u, &readings).unwrap());
            }
            reports
        })
        .collect()
}

/// Per-robot report sequences from one fleet stepped batch-wise.
fn fleet_run(robots: usize, threads: usize) -> Vec<Vec<DetectionReport>> {
    let system = presets::khepera_system();
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut fleet = FleetEngine::new(shared_detectors(robots), threads);
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

#[test]
fn fleet_batches_are_bitwise_identical_to_standalone_detectors() {
    for robots in [1, 8] {
        let expected = standalone_runs(robots);
        for threads in [1, 2, 4] {
            let got = fleet_run(robots, threads);
            for (robot, (a, b)) in expected.iter().zip(&got).enumerate() {
                for (k, (ra, rb)) in a.iter().zip(b).enumerate() {
                    assert_eq!(
                        ra, rb,
                        "robots={robots} threads={threads} robot={robot} diverged at step {k}"
                    );
                }
            }
        }
    }
}

#[test]
fn large_fleet_spanning_many_chunks_stays_exact() {
    // 64 robots across 4 workers exercises multi-chunk scheduling with
    // uneven phase offsets; compare against the sequential fleet, which
    // the test above pins to the standalone detectors.
    let seq = fleet_run(64, 1);
    let par = fleet_run(64, 4);
    assert_eq!(seq, par);
}

#[test]
fn fleet_runs_are_reproducible_across_invocations() {
    assert_eq!(fleet_run(8, 2), fleet_run(8, 2));
}

/// The SIMD-batched slab path must be bitwise invisible: for every
/// robot, the full report sequence of a one-signature fleet equals a
/// standalone detector's, at every batch size shape — a lone robot and
/// one-short-of-a-tile (sub-tile groups step per robot by design),
/// exactly one tile, one tile plus a masked tail (8 + 3), and many
/// tiles plus a remainder tail — and every robot-grain thread count.
#[test]
fn slab_path_reports_match_scalar_path_exactly() {
    for robots in [1, 7, 8, 11, 67] {
        let scalar = standalone_runs(robots);
        for threads in [1, 2, 4] {
            let slab = fleet_run(robots, threads);
            assert_eq!(
                scalar, slab,
                "slab divergence: robots={robots} threads={threads}"
            );
        }
    }
}

/// Steps standalone detectors through one fleet-shaped tick: each robot
/// its own `step_into`, returning the per-robot results.
fn standalone_batch(
    detectors: &mut [RoboAds],
    reports: &mut [DetectionReport],
    inputs: &[RobotInput],
) -> Vec<Result<(), CoreError>> {
    detectors
        .iter_mut()
        .zip(reports.iter_mut())
        .zip(inputs)
        .map(|((ads, report), input)| ads.step_into(input.u_prev, input.readings, report))
        .collect()
}

/// Per-tick, per-robot `(result, iteration, report)` of a run.
type Outcomes = Vec<Vec<(Result<(), CoreError>, u64, DetectionReport)>>;

/// A robot whose iteration fails mid-tile — at lane load (a NaN reading)
/// or inside a batched kernel (a finite IPS reading of 1e160, whose χ²
/// statistic overflows) — must end with exactly the standalone error,
/// count the same numeric failures, and recover on the next tick, while
/// every other lane of its tile (including a masked tail tile) advances
/// bitwise like a standalone detector.
#[test]
fn slab_lane_failure_is_the_standalone_error_and_spares_its_neighbours() {
    const ROBOTS: usize = 9; // one full tile plus a one-lane tail tile
    const FAULTED: [usize; 2] = [3, 8];
    const FAULT_TICK: usize = 5;
    for fault in [f64::NAN, 1e160] {
        let run = |fleet: bool| -> (Outcomes, u64, usize) {
            let system = presets::khepera_system();
            let u = Vector::from_slice(&[0.06, 0.05]);
            let ring = Arc::new(RingBufferSink::new(100_000));
            let telemetry = Telemetry::new(ring.clone());
            let mut detectors: Vec<RoboAds> = (0..ROBOTS)
                .map(|_| detector_for(&system).with_telemetry(telemetry.clone()))
                .collect();
            let mut reports = vec![DetectionReport::blank(); ROBOTS];
            let mut engine = fleet.then(|| {
                let mut engine = FleetEngine::new(std::mem::take(&mut detectors), 1);
                engine.set_telemetry(telemetry.clone());
                engine
            });
            let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
            let mut outcomes = Vec::new();
            for k in 0..8 {
                x_true = system.dynamics().step(&x_true, &u);
                let all_readings: Vec<Vec<Vector>> = (0..ROBOTS)
                    .map(|robot| {
                        let mut readings = robot_readings(&system, &x_true, robot, k);
                        if FAULTED.contains(&robot) && k == FAULT_TICK {
                            readings[0][0] = fault;
                        }
                        readings
                    })
                    .collect();
                let inputs: Vec<RobotInput> = all_readings
                    .iter()
                    .map(|readings| RobotInput {
                        u_prev: &u,
                        readings,
                    })
                    .collect();
                outcomes.push(match &mut engine {
                    Some(engine) => {
                        let batch = engine.step_batch(&inputs);
                        assert_eq!(batch.is_err(), k == FAULT_TICK, "fault {fault} step {k}");
                        (0..ROBOTS)
                            .map(|r| {
                                (
                                    engine.result(r).clone(),
                                    engine.detector(r).iteration(),
                                    engine.report(r).clone(),
                                )
                            })
                            .collect()
                    }
                    None => standalone_batch(&mut detectors, &mut reports, &inputs)
                        .into_iter()
                        .zip(&detectors)
                        .zip(&reports)
                        .map(|((result, ads), report)| (result, ads.iteration(), report.clone()))
                        .collect(),
                });
            }
            if let Some(engine) = &engine {
                assert_eq!(engine.slab_groups(), 1, "the fleet must run its slab path");
            }
            let failures = telemetry
                .metrics()
                .counter_value("engine.numeric_failures")
                .unwrap();
            let events = ring
                .events()
                .iter()
                .filter(|e| e.name == "engine.numeric_failure")
                .count();
            (outcomes, failures, events)
        };
        let (standalone, standalone_failures, standalone_events) = run(false);
        let (slab, slab_failures, slab_events) = run(true);
        // A failed robot's report holds a partial verdict on both sides
        // (contents unspecified); everything else must be identical.
        for (k, (sa, sl)) in standalone.iter().zip(&slab).enumerate() {
            for (r, (a, b)) in sa.iter().zip(sl).enumerate() {
                assert_eq!(a.0, b.0, "fault {fault}: result of robot {r} at step {k}");
                assert_eq!(
                    a.1, b.1,
                    "fault {fault}: iteration of robot {r} at step {k}"
                );
                if a.0.is_ok() {
                    assert_eq!(a.2, b.2, "fault {fault}: report of robot {r} at step {k}");
                }
            }
        }
        assert_eq!(slab_failures, standalone_failures, "fault {fault}");
        assert_eq!(slab_events, standalone_events, "fault {fault}");
        // The faulted robots failed once with a typed error, then
        // recovered; a NaN fails validation, 1e160 the χ² evaluation.
        for &r in &FAULTED {
            match &standalone[FAULT_TICK][r].0 {
                Err(CoreError::BadReadings { .. }) => assert!(fault.is_nan()),
                Err(CoreError::Numeric(_)) => assert!(fault.is_finite()),
                other => panic!("fault {fault}: robot {r} ended with {other:?}"),
            }
            assert_eq!(
                standalone[7][r].1, 7,
                "fault {fault}: robot {r} did not recover"
            );
        }
        let expected_failures = if fault.is_nan() { 0 } else { FAULTED.len() };
        assert_eq!(
            standalone_failures, expected_failures as u64,
            "fault {fault}"
        );
    }
}

// ---------------------------------------------------------------------
// Heterogeneous (multi-signature) fleets: the per-group slab partition
// must be just as bitwise-invisible as the homogeneous slab. Each group
// uses a separately instantiated preset system — numerically identical
// but pointer-distinct, so the fleet partitions it into its own group —
// and groups are *dealt round-robin* across fleet order so the
// group-major cell reorder genuinely permutes robots.
// ---------------------------------------------------------------------

/// Deals `sizes[g]` robots of signature group `g` round-robin across
/// fleet order; returns each fleet index's group id.
fn deal_groups(sizes: &[usize]) -> Vec<usize> {
    let mut remaining = sizes.to_vec();
    let mut layout = Vec::new();
    loop {
        let mut dealt = false;
        for (g, left) in remaining.iter_mut().enumerate() {
            if *left > 0 {
                *left -= 1;
                layout.push(g);
                dealt = true;
            }
        }
        if !dealt {
            break;
        }
    }
    layout
}

fn detector_for(system: &RobotSystem) -> RoboAds {
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let modes = ModeSet::one_reference_per_sensor(system);
    RoboAds::new(system.clone(), RoboAdsConfig::paper_defaults(), x0, modes).unwrap()
}

/// Per-robot report sequences from a mixed fleet: robot `i` belongs to
/// signature group `layout[i]` (its own `RobotSystem` instance).
fn mixed_fleet_run(
    layout: &[usize],
    systems: &[RobotSystem],
    threads: usize,
) -> Vec<Vec<DetectionReport>> {
    let physics = &systems[0]; // presets are bitwise-identical constants
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut fleet = FleetEngine::new(
        layout.iter().map(|&g| detector_for(&systems[g])).collect(),
        threads,
    );
    let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut sequences: Vec<Vec<DetectionReport>> = vec![Vec::with_capacity(STEPS); layout.len()];
    for k in 0..STEPS {
        x_true = physics.dynamics().step(&x_true, &u);
        let all_readings: Vec<Vec<Vector>> = (0..layout.len())
            .map(|robot| robot_readings(physics, &x_true, robot, k))
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

/// Every robot of a mixed fleet — group sizes spanning a lone robot, a
/// sub-tile group, exactly one tile, and many tiles — must be bitwise
/// identical to its standalone twin at every thread count. Sub-tile
/// groups run scalar (per-group small-fleet rule), the
/// rest slab; neither may perturb a bit.
#[test]
fn mixed_fleet_robots_match_their_standalone_twins() {
    for sizes in [&[8usize, 1, 7][..], &[67, 8][..]] {
        let layout = deal_groups(sizes);
        let systems: Vec<RobotSystem> = sizes.iter().map(|_| presets::khepera_system()).collect();
        // A standalone twin per robot, built from its group's system.
        let expected: Vec<Vec<DetectionReport>> = {
            let physics = &systems[0];
            let u = Vector::from_slice(&[0.06, 0.05]);
            layout
                .iter()
                .enumerate()
                .map(|(robot, &g)| {
                    let mut ads = detector_for(&systems[g]);
                    let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
                    let mut reports = Vec::with_capacity(STEPS);
                    for k in 0..STEPS {
                        x_true = physics.dynamics().step(&x_true, &u);
                        let readings = robot_readings(physics, &x_true, robot, k);
                        reports.push(ads.step(&u, &readings).unwrap());
                    }
                    reports
                })
                .collect()
        };
        for threads in [1, 2, 4] {
            let got = mixed_fleet_run(&layout, &systems, threads);
            for (robot, (a, b)) in expected.iter().zip(&got).enumerate() {
                for (k, (ra, rb)) in a.iter().zip(b).enumerate() {
                    assert_eq!(
                        ra, rb,
                        "sizes={sizes:?} threads={threads} robot={robot} diverged at step {k}"
                    );
                }
            }
        }
    }
}

/// A NaN reading inside one signature group's tile must fail only that
/// robot, exactly as a standalone detector fails; lanes of *other
/// groups* — stepped through entirely separate slab scratch — stay
/// bitwise untouched.
#[test]
fn nan_in_one_group_leaves_other_groups_lanes_untouched() {
    let sizes = [8usize, 8];
    let layout = deal_groups(&sizes);
    let poisoned = layout.iter().position(|&g| g == 0).unwrap(); // a group-0 robot
                                                                 // `fleet == false` steps the same robots as standalone detectors.
    let run = |fleet: bool| {
        let systems: Vec<RobotSystem> = sizes.iter().map(|_| presets::khepera_system()).collect();
        let physics = systems[0].clone();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut detectors: Vec<RoboAds> =
            layout.iter().map(|&g| detector_for(&systems[g])).collect();
        let mut reports = vec![DetectionReport::blank(); layout.len()];
        let mut engine = fleet.then(|| FleetEngine::new(std::mem::take(&mut detectors), 1));
        let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut outcomes = Vec::new();
        for k in 0..8 {
            x_true = physics.dynamics().step(&x_true, &u);
            let all_readings: Vec<Vec<Vector>> = (0..layout.len())
                .map(|robot| {
                    let mut readings = robot_readings(&physics, &x_true, robot, k);
                    if robot == poisoned && k == 5 {
                        readings[0][0] = f64::NAN;
                    }
                    readings
                })
                .collect();
            let inputs: Vec<RobotInput> = all_readings
                .iter()
                .map(|readings| RobotInput {
                    u_prev: &u,
                    readings,
                })
                .collect();
            outcomes.push(match &mut engine {
                Some(engine) => {
                    let batch = engine.step_batch(&inputs);
                    assert_eq!(batch.is_err(), k == 5, "step {k}");
                    (0..layout.len())
                        .map(|r| {
                            (
                                engine.result(r).is_ok(),
                                engine.detector(r).iteration(),
                                engine.report(r).clone(),
                            )
                        })
                        .collect::<Vec<_>>()
                }
                None => standalone_batch(&mut detectors, &mut reports, &inputs)
                    .into_iter()
                    .zip(&detectors)
                    .zip(&reports)
                    .map(|((result, ads), report)| {
                        (result.is_ok(), ads.iteration(), report.clone())
                    })
                    .collect(),
            });
        }
        outcomes
    };
    let scalar = run(false);
    let slab = run(true);
    for (k, (sc, sl)) in scalar.iter().zip(&slab).enumerate() {
        for (r, (a, b)) in sc.iter().zip(sl).enumerate() {
            assert_eq!(a.0, b.0, "result mismatch robot {r} step {k}");
            assert_eq!(a.1, b.1, "iteration mismatch robot {r} step {k}");
            if a.0 {
                assert_eq!(a.2, b.2, "report mismatch robot {r} step {k}");
            }
        }
    }
    // The poisoned robot failed exactly once; every group-1 robot (the
    // *other* slab group) completed all 8 iterations.
    assert!(!scalar[5][poisoned].0 && !slab[5][poisoned].0);
    for (r, &g) in layout.iter().enumerate() {
        if g == 1 {
            assert_eq!(slab[7][r].1, 8, "group-1 robot {r} lost an iteration");
        }
    }
}
