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

use roboads_core::{
    ActivationPolicy, DetectionReport, FleetEngine, ModeSet, RoboAds, RoboAdsConfig, RobotInput,
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
    let mut fleet = FleetEngine::new((0..robots).map(|_| detector()).collect(), threads);
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

/// A detector with a pinned fleet slab lane width (`1` disables the
/// SIMD-batched path entirely).
fn detector_with_lanes(lanes: usize) -> RoboAds {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let modes = ModeSet::one_reference_per_sensor(&system);
    RoboAds::new(
        system,
        RoboAdsConfig::paper_defaults().with_slab_lanes(lanes),
        x0,
        modes,
    )
    .unwrap()
}

/// As [`fleet_run`] but with an explicit slab lane width.
fn fleet_run_lanes(robots: usize, threads: usize, lanes: usize) -> Vec<Vec<DetectionReport>> {
    let system = presets::khepera_system();
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut fleet = FleetEngine::new(
        (0..robots).map(|_| detector_with_lanes(lanes)).collect(),
        threads,
    );
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

/// The SIMD-batched slab path must be bitwise invisible: for every
/// robot, the full report sequence with `slab_lanes = 8` equals the
/// scalar path's (`slab_lanes = 1`), at every batch size shape — a
/// lone robot and one-short-of-a-tile (sub-tile fleets stay on the
/// scalar path by design), exactly one tile, one tile plus a masked
/// tail (8 + 3), and many tiles plus a remainder tail — and every
/// robot-grain thread count.
#[test]
fn slab_path_reports_match_scalar_path_exactly() {
    for robots in [1, 7, 8, 11, 67] {
        let scalar = fleet_run_lanes(robots, 1, 1);
        for threads in [1, 2, 4] {
            let slab = fleet_run_lanes(robots, threads, 8);
            assert_eq!(
                scalar, slab,
                "slab divergence: robots={robots} threads={threads}"
            );
        }
    }
}

/// A robot whose readings fail validation mid-fleet must fall out of
/// its slab tile and reproduce the exact scalar error and side effects,
/// while every other lane of the tile advances normally.
#[test]
fn slab_lane_failure_falls_back_to_scalar_per_robot() {
    let run = |lanes: usize| {
        let system = presets::khepera_system();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let robots = 9;
        let mut fleet =
            FleetEngine::new((0..robots).map(|_| detector_with_lanes(lanes)).collect(), 1);
        let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let mut outcomes = Vec::new();
        for k in 0..8 {
            x_true = system.dynamics().step(&x_true, &u);
            let all_readings: Vec<Vec<Vector>> = (0..robots)
                .map(|robot| {
                    let mut readings = robot_readings(&system, &x_true, robot, k);
                    if robot == 3 && k == 5 {
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
            let batch = fleet.step_batch(&inputs);
            assert_eq!(batch.is_err(), k == 5, "lanes={lanes} step {k}");
            outcomes.push(
                (0..robots)
                    .map(|r| {
                        (
                            fleet.result(r).is_ok(),
                            fleet.detector(r).iteration(),
                            fleet.report(r).clone(),
                        )
                    })
                    .collect::<Vec<_>>(),
            );
        }
        outcomes
    };
    let scalar = run(1);
    let slab = run(8);
    // The failed robot's error step leaves a partial report on both
    // paths (contents unspecified); everything else must be identical.
    for (k, (sc, sl)) in scalar.iter().zip(&slab).enumerate() {
        for (r, (a, b)) in sc.iter().zip(sl).enumerate() {
            assert_eq!(a.0, b.0, "result mismatch robot {r} step {k}");
            assert_eq!(a.1, b.1, "iteration mismatch robot {r} step {k}");
            if a.0 {
                assert_eq!(a.2, b.2, "report mismatch robot {r} step {k}");
            }
        }
    }
    // Sanity: robot 3 failed exactly once and skipped that iteration.
    assert!(!scalar[5][3].0);
    assert_eq!(scalar[7][3].1, 7);
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

fn detector_for(system: &RobotSystem, lanes: usize) -> RoboAds {
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let modes = ModeSet::one_reference_per_sensor(system);
    RoboAds::new(
        system.clone(),
        RoboAdsConfig::paper_defaults().with_slab_lanes(lanes),
        x0,
        modes,
    )
    .unwrap()
}

/// Per-robot report sequences from a mixed fleet: robot `i` belongs to
/// signature group `layout[i]` (its own `RobotSystem` instance).
fn mixed_fleet_run(
    layout: &[usize],
    systems: &[RobotSystem],
    threads: usize,
    lanes: usize,
) -> Vec<Vec<DetectionReport>> {
    let physics = &systems[0]; // presets are bitwise-identical constants
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut fleet = FleetEngine::new(
        layout
            .iter()
            .map(|&g| detector_for(&systems[g], lanes))
            .collect(),
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
/// identical to its standalone twin at every thread count and lane
/// width. Sub-tile groups run scalar (per-group small-fleet rule), the
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
                    let mut ads = detector_for(&systems[g], 1);
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
            let got = mixed_fleet_run(&layout, &systems, threads, 8);
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

/// A NaN divergence inside one signature group's tile must fall only
/// that robot back to scalar; lanes of *other groups* — stepped through
/// entirely separate slab scratch — stay bitwise untouched.
#[test]
fn nan_in_one_group_leaves_other_groups_lanes_untouched() {
    let sizes = [8usize, 8];
    let layout = deal_groups(&sizes);
    let poisoned = layout.iter().position(|&g| g == 0).unwrap(); // a group-0 robot
    let run = |lanes: usize| {
        let systems: Vec<RobotSystem> = sizes.iter().map(|_| presets::khepera_system()).collect();
        let physics = systems[0].clone();
        let u = Vector::from_slice(&[0.06, 0.05]);
        let mut fleet = FleetEngine::new(
            layout
                .iter()
                .map(|&g| detector_for(&systems[g], lanes))
                .collect(),
            1,
        );
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
            let batch = fleet.step_batch(&inputs);
            assert_eq!(batch.is_err(), k == 5, "lanes={lanes} step {k}");
            outcomes.push(
                (0..layout.len())
                    .map(|r| {
                        (
                            fleet.result(r).is_ok(),
                            fleet.detector(r).iteration(),
                            fleet.report(r).clone(),
                        )
                    })
                    .collect::<Vec<_>>(),
            );
        }
        outcomes
    };
    let scalar = run(1);
    let slab = run(8);
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

// ---------------------------------------------------------------------
// Lazy activation (DESIGN.md §17): fleets of TopK robots sleep, wake and
// re-sleep at *different* ticks (phase-offset attacks), which exercises
// the activation-keyed slab repartition, per-mode lane masks and the
// wake-tick scalar fallback. All of it must stay bitwise invisible.
// ---------------------------------------------------------------------

const LAZY_STEPS: usize = 45;

fn lazy_detector(lanes: usize) -> RoboAds {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let modes = ModeSet::one_reference_per_sensor(&system);
    RoboAds::new(
        system,
        RoboAdsConfig::paper_defaults()
            .with_slab_lanes(lanes)
            .with_activation(ActivationPolicy::lazy_defaults()),
        x0,
        modes,
    )
    .unwrap()
}

/// Clean long enough for every bank to sleep (~tick 12), then a
/// phase-offset IPS spoof burst that wakes robots at different ticks,
/// then clean recovery so they re-sleep at different ticks too.
fn lazy_robot_readings(system: &RobotSystem, x: &Vector, robot: usize, k: usize) -> Vec<Vector> {
    let mut readings = clean_readings(system, x);
    let phase = robot % 5;
    if (20 + phase..28 + phase).contains(&k) {
        readings[0][0] += 0.07;
    }
    readings
}

/// Per-robot lazy report sequences, standalone (`None`) or fleet-stepped
/// with the given thread count and lane width. Also returns the minimum
/// `active_modes` observed across the run, to prove dormancy happened.
fn lazy_run(
    robots: usize,
    fleet_shape: Option<(usize, usize)>,
) -> (Vec<Vec<DetectionReport>>, usize) {
    let system = presets::khepera_system();
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut min_active = usize::MAX;
    let mut sequences: Vec<Vec<DetectionReport>> = vec![Vec::with_capacity(LAZY_STEPS); robots];
    match fleet_shape {
        None => {
            for (robot, seq) in sequences.iter_mut().enumerate() {
                let mut ads = lazy_detector(1);
                let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
                for k in 0..LAZY_STEPS {
                    x_true = system.dynamics().step(&x_true, &u);
                    let readings = lazy_robot_readings(&system, &x_true, robot, k);
                    seq.push(ads.step(&u, &readings).unwrap());
                    min_active = min_active.min(ads.active_modes());
                }
            }
        }
        Some((threads, lanes)) => {
            let mut fleet =
                FleetEngine::new((0..robots).map(|_| lazy_detector(lanes)).collect(), threads);
            let mut x_true = Vector::from_slice(&[0.5, 0.5, 0.2]);
            for k in 0..LAZY_STEPS {
                x_true = system.dynamics().step(&x_true, &u);
                let all_readings: Vec<Vec<Vector>> = (0..robots)
                    .map(|robot| lazy_robot_readings(&system, &x_true, robot, k))
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
                    min_active = min_active.min(fleet.detector(robot).active_modes());
                }
            }
        }
    }
    (sequences, min_active)
}

/// A lazy fleet — slab or scalar, any thread count — must be bitwise
/// identical to standalone lazy detectors through the whole
/// sleep → wake → re-sleep cycle, and the run must genuinely visit the
/// dormant state (k = 2 of 3 modes) on both sides of the comparison.
#[test]
fn lazy_fleet_matches_standalone_lazy_detectors_bitwise() {
    for robots in [1, 8, 19] {
        let (expected, standalone_min) = lazy_run(robots, None);
        assert_eq!(standalone_min, 2, "standalone banks never slept");
        for threads in [1, 2] {
            for lanes in [1, 8] {
                let (got, fleet_min) = lazy_run(robots, Some((threads, lanes)));
                assert_eq!(fleet_min, 2, "fleet banks never slept");
                for (robot, (a, b)) in expected.iter().zip(&got).enumerate() {
                    for (k, (ra, rb)) in a.iter().zip(b).enumerate() {
                        assert_eq!(
                            ra, rb,
                            "robots={robots} threads={threads} lanes={lanes} \
                             robot={robot} diverged at step {k}"
                        );
                    }
                }
            }
        }
    }
}
