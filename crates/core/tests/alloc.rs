//! Proves the NUISE hot path is allocation-free in steady state.
//!
//! A counting `#[global_allocator]` wraps the system allocator with a
//! thread-local allocation counter; after warm-up calls populate the
//! engine's per-mode kernel scratch, a further step must perform
//! **zero** heap allocations — the property the per-mode kernels exist
//! to guarantee (and the reason fleet workers can step robots at
//! control-loop rates without allocator contention).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use roboads_core::baseline::linearized_once;
use roboads_core::{nuise_step, DetectionReport, MultiModeEngine, NuiseInput, RoboAdsConfig};
use roboads_core::{FleetEngine, Linearization, ModeSet, RecorderConfig, RoboAds, RobotInput};
use roboads_linalg::{Matrix, Vector};
use roboads_models::presets;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers all memory management to the system allocator; the
// added bookkeeping is a plain thread-local counter (`Cell<u64>` has a
// const initializer and no destructor, so bumping it cannot recurse
// into the allocator).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations performed on this thread while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn warmed_up_engine_mode_step_is_allocation_free() {
    // Every mode of the complete bank, each as a single-mode engine, so
    // the measured step is one mode's kernel pass (load, run, scatter,
    // parsimony) plus the engine's selection tail.
    let system = presets::khepera_system();
    let config = RoboAdsConfig::paper_defaults();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let p0 = Matrix::identity(3) * config.initial_covariance;
    let u = Vector::from_slice(&[0.06, 0.05]);
    let x1 = system.dynamics().step(&x0, &u);
    let readings: Vec<Vector> = (0..system.sensor_count())
        .map(|i| system.sensor(i).unwrap().measure(&x1))
        .collect();

    for (m, mode) in ModeSet::complete(&system).modes().iter().enumerate() {
        // Sanity: the counter actually sees the allocating reference
        // implementation at work.
        let reference_allocs = allocations_during(|| {
            nuise_step(NuiseInput {
                system: &system,
                mode,
                x_prev: &x0,
                p_prev: &p0,
                u_prev: &u,
                readings: &readings,
                linearization: &Linearization::PerIteration,
                compensate: config.compensate_actuator_anomalies,
            })
            .unwrap();
        });
        assert!(
            reference_allocs > 0,
            "counting allocator failed to observe the allocating path"
        );

        let modes = ModeSet::from_reference_groups(&system, &[mode.reference().to_vec()]);
        let mut engine = MultiModeEngine::new(system.clone(), modes, x0.clone(), &config).unwrap();
        // Warm-up: the first call may still size lazily-grown storage.
        engine.step_in_place(&u, &readings).unwrap();

        // Steady state: zero heap traffic.
        let steady_allocs = allocations_during(|| {
            for _ in 0..3 {
                engine.step_in_place(&u, &readings).unwrap();
            }
        });
        assert_eq!(
            steady_allocs, 0,
            "mode {m}: warmed-up engine mode step allocated {steady_allocs} times"
        );
    }
}

#[test]
fn warmed_up_linearized_once_step_is_allocation_free() {
    // The §V-G baseline (`Linearization::FrozenAt`) runs through the same
    // kernel as RoboADS proper, with the affine model evaluated in
    // place, so it is just as allocation-free once warm.
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.03, 0.09]);
    let mut ads = linearized_once(
        system.clone(),
        RoboAdsConfig::paper_defaults(),
        x0.clone(),
        ModeSet::one_reference_per_sensor(&system),
    )
    .unwrap();
    let mut report = DetectionReport::blank();
    let mut x_true = x0;
    let next_readings = |x: &mut Vector| -> Vec<Vector> {
        *x = system.dynamics().step(x, &u);
        (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(x))
            .collect()
    };

    // Warm-up: a turning mission drifts away from the frozen operating
    // point, so the report reaches its alarm-bearing steady shape.
    for _ in 0..40 {
        let readings = next_readings(&mut x_true);
        ads.step_into(&u, &readings, &mut report).unwrap();
    }
    for k in 0..3 {
        let readings = next_readings(&mut x_true);
        let steady_allocs = allocations_during(|| {
            ads.step_into(&u, &readings, &mut report).unwrap();
        });
        assert_eq!(
            steady_allocs, 0,
            "tick {k}: warmed-up linearize-once step allocated {steady_allocs} times"
        );
    }
}

#[test]
fn warmed_up_sequential_fleet_batch_is_allocation_free() {
    // The fleet hot path — engine step, decision maker, report refill,
    // for every robot — must be zero-alloc once warm: this is what lets
    // a batch scale to hundreds of robots per tick without allocator
    // traffic. The property is asserted on the sequential fleet
    // (threads = 1, the per-robot code path all configurations share);
    // a parallel fleet adds only the pool's per-job boxes, O(workers).
    //
    // Asserted on both stepping paths: robots that each have their own
    // system form one-robot signature groups, stepped per robot (the
    // scalar path); robots sharing one system form one group on the
    // SIMD-batched slab path (load → batched run → scatter → commit,
    // whose scratch is the per-job `SlabJob` bank sized at first
    // resolution). The robot count is deliberately not a multiple of
    // the lane width, so the warm path includes a masked remainder
    // tile.
    for shared in [false, true] {
        let system = presets::khepera_system();
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let u = Vector::from_slice(&[0.06, 0.05]);
        const ROBOTS: usize = 11;
        let modes = ModeSet::one_reference_per_sensor(&system);
        let config = RoboAdsConfig::paper_defaults();
        let mut fleet = FleetEngine::new(
            (0..ROBOTS)
                .map(|_| {
                    let robot = if shared {
                        system.clone()
                    } else {
                        presets::khepera_system()
                    };
                    RoboAds::new(robot, config.clone(), x0.clone(), modes.clone()).unwrap()
                })
                .collect(),
            1,
        );
        let mut x_true = x0;

        // Warm-up: several steps so every lazily-sized buffer — decision
        // scratch maps, report vectors, per-sensor slots, slab job banks
        // — reaches its steady-state shape, including post-spoof shapes
        // (mode selection shifts which per-sensor views come from which
        // mode).
        for k in 0..6 {
            x_true = system.dynamics().step(&x_true, &u);
            let mut readings: Vec<Vector> = (0..system.sensor_count())
                .map(|i| system.sensor(i).unwrap().measure(&x_true))
                .collect();
            if k >= 3 {
                readings[0][0] += 0.07;
            }
            let inputs = vec![
                RobotInput {
                    u_prev: &u,
                    readings: &readings,
                };
                ROBOTS
            ];
            fleet.step_batch(&inputs).unwrap();
        }

        // Steady state: zero heap traffic across whole batches.
        x_true = system.dynamics().step(&x_true, &u);
        let mut readings: Vec<Vector> = (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(&x_true))
            .collect();
        readings[0][0] += 0.07;
        let inputs = vec![
            RobotInput {
                u_prev: &u,
                readings: &readings,
            };
            ROBOTS
        ];
        let steady_allocs = allocations_during(|| {
            for _ in 0..3 {
                fleet.step_batch(&inputs).unwrap();
            }
        });
        let stepped = if shared {
            fleet.slab_robots()
        } else {
            fleet.scalar_robots()
        };
        assert_eq!(stepped, ROBOTS, "shared = {shared}: wrong stepping path");
        assert_eq!(
            steady_allocs, 0,
            "warmed-up fleet step_batch (shared = {shared}) \
             allocated {steady_allocs} times"
        );
    }
}

#[test]
fn warmed_up_grouped_fleet_batch_is_allocation_free() {
    // The heterogeneous partition must not smuggle allocation back into
    // the warm path: once `resolve_slab` has reordered the cells
    // group-major and sized each group's slab bank, a mixed-signature
    // batch walks the groups with `split_at_mut` and reuses the per-job
    // scratch — zero heap traffic, exactly like the homogeneous fleet.
    // Pointer-distinct Khepera instances, interleaved so the reorder
    // genuinely permutes cells: two groups of 11 + 9 both slab (with
    // masked remainder tiles); four groups of 5, each below one tile,
    // all run scalar.
    for slab in [false, true] {
        let systems: Vec<_> = (0..4).map(|_| presets::khepera_system()).collect();
        let system_a = &systems[0];
        let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
        let u = Vector::from_slice(&[0.06, 0.05]);
        const ROBOTS: usize = 20;
        let detector_for = |system: &roboads_models::RobotSystem| {
            RoboAds::new(
                system.clone(),
                RoboAdsConfig::paper_defaults(),
                x0.clone(),
                ModeSet::one_reference_per_sensor(system),
            )
            .unwrap()
        };
        // Slab: robots 0,2,4,… group a (11 robots), 1,3,5,…,17 group b
        // (9 robots). Scalar: robot i in group i % 4.
        let mut fleet = FleetEngine::new(
            (0..ROBOTS)
                .map(|i| {
                    let group = match (slab, i % 2 == 0 || i >= 18) {
                        (true, true) => 0,
                        (true, false) => 1,
                        (false, _) => i % 4,
                    };
                    detector_for(&systems[group])
                })
                .collect(),
            1,
        );
        let mut x_true = x0.clone();

        for k in 0..6 {
            x_true = system_a.dynamics().step(&x_true, &u);
            let mut readings: Vec<Vector> = (0..system_a.sensor_count())
                .map(|i| system_a.sensor(i).unwrap().measure(&x_true))
                .collect();
            if k >= 3 {
                readings[0][0] += 0.07;
            }
            let inputs = vec![
                RobotInput {
                    u_prev: &u,
                    readings: &readings,
                };
                ROBOTS
            ];
            fleet.step_batch(&inputs).unwrap();
        }
        if slab {
            assert_eq!(fleet.slab_groups(), 2);
            assert_eq!(fleet.slab_robots(), ROBOTS);
        } else {
            assert_eq!(fleet.scalar_robots(), ROBOTS);
        }

        x_true = system_a.dynamics().step(&x_true, &u);
        let mut readings: Vec<Vector> = (0..system_a.sensor_count())
            .map(|i| system_a.sensor(i).unwrap().measure(&x_true))
            .collect();
        readings[0][0] += 0.07;
        let inputs = vec![
            RobotInput {
                u_prev: &u,
                readings: &readings,
            };
            ROBOTS
        ];
        let steady_allocs = allocations_during(|| {
            for _ in 0..3 {
                fleet.step_batch(&inputs).unwrap();
            }
        });
        assert_eq!(
            steady_allocs, 0,
            "warmed-up grouped fleet step_batch (slab = {slab}) \
             allocated {steady_allocs} times"
        );
    }
}

#[test]
fn warmed_up_flight_recorder_tick_is_allocation_free() {
    // The flight recorder rides the control loop's hot path: on a clean
    // tick, `record_tick` must refill a pre-sized ring slot in place and
    // touch the allocator zero times. The ring capacity is deliberately
    // tiny so the measured window includes wraparound (slot reuse), the
    // recorder's steady state. Allocation is reserved for the alarm
    // edge, where a capsule is frozen — the same boundary the forensic
    // log draws.
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut ads = RoboAds::new(
        system.clone(),
        RoboAdsConfig::paper_defaults(),
        x0.clone(),
        ModeSet::one_reference_per_sensor(&system),
    )
    .unwrap()
    .with_recorder(RecorderConfig {
        capacity: 3,
        ..RecorderConfig::default()
    });

    let mut x = x0;
    let step = |ads: &mut RoboAds, x: &mut Vector| {
        *x = system.dynamics().step(x, &u);
        let readings: Vec<Vector> = (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(x))
            .collect();
        let report = ads.step(&u, &readings).unwrap();
        (report, readings)
    };

    // Warm-up: fill every ring slot (and wrap once) so each slot's
    // vectors have reached steady-state capacity.
    for k in 0..5 {
        let (report, readings) = step(&mut ads, &mut x);
        ads.record_tick(k, &u, &readings, &report);
    }

    for k in 5..8 {
        let (report, readings) = step(&mut ads, &mut x);
        let recording_allocs = allocations_during(|| ads.record_tick(k, &u, &readings, &report));
        assert_eq!(
            recording_allocs, 0,
            "tick {k}: warmed-up record_tick allocated {recording_allocs} times"
        );
    }
    assert_eq!(ads.recorder().unwrap().recorded(), 8);
}

#[test]
fn detector_clone_copies_no_scratch() {
    // A clone carries the filter state and the constants, not the
    // scratch: the one-lane NUISE workspaces and the decision maker's
    // statistic scratch are built on a standalone detector's first step
    // and never copied, so a shard recovery's factory clones (and a
    // fleet robot, which steps through its job's eight-lane bank) never
    // pay for them. Measured on a default-bank Khepera detector, before
    // and after the original has stepped: 255 and 274 allocations per
    // clone while the scratch was copied, 52 and 57 without it.
    const MAX_CLONE_ALLOCATIONS: u64 = 80;
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut ads = RoboAds::with_defaults(system.clone(), x0.clone()).unwrap();
    let fresh = allocations_during(|| drop(ads.clone()));
    let mut x = x0;
    let mut report = DetectionReport::blank();
    for _ in 0..3 {
        x = system.dynamics().step(&x, &u);
        let readings: Vec<Vector> = (0..system.sensor_count())
            .map(|i| system.sensor(i).unwrap().measure(&x))
            .collect();
        ads.step_into(&u, &readings, &mut report).unwrap();
    }
    let warm = allocations_during(|| drop(ads.clone()));
    println!("clone allocations: fresh {fresh}, warm {warm}");
    for (name, count) in [("fresh", fresh), ("warm", warm)] {
        assert!(
            count <= MAX_CLONE_ALLOCATIONS,
            "cloning a {name} detector allocated {count} times \
             (bound {MAX_CLONE_ALLOCATIONS}): scratch is being copied"
        );
    }
}
