//! Fleet-as-a-service integration (`DESIGN.md` §18): the 64-robot
//! fleet snapshot/restore contract, killed-shard recovery from the last
//! snapshot plus stamped-frame replay, bitwise equality of the
//! wire-fed multi-process path with the in-process sync path, and the
//! shard dimension of the health exposition.
//!
//! As in `tests/snapshot_restore.rs`, the end-state oracle is
//! [`snapshot_detector`] byte equality — every mutable `f64` of every
//! robot, compared bit-for-bit.

use std::sync::{Arc, OnceLock};

use roboads::core::{
    restore_fleet, snapshot_detector, snapshot_fleet, FleetEngine, FleetHealth, FleetIngest,
    RoboAds, RobotFactory, ShardConfig, ShardedFleet,
};
use roboads::models::presets;
use roboads::sim::{evaluation_start, serve_traces_uds, Scenario, SimulationBuilder, Trace};

const TICKS: usize = 48;

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::clean(),
        Scenario::wheel_logic_bomb(),
        Scenario::wheel_jamming(),
        Scenario::ips_logic_bomb(),
        Scenario::ips_spoofing(),
        Scenario::encoder_logic_bomb(),
        Scenario::lidar_dos(),
        Scenario::lidar_blocking(),
        Scenario::wheel_and_ips_logic_bomb(),
        Scenario::lidar_dos_and_encoder_logic_bomb(),
        Scenario::ips_spoofing_and_lidar_dos(),
        Scenario::ips_and_encoder_logic_bomb(),
    ]
}

/// One recorded trace per Table II scenario, shared by every test in
/// this binary (the simulations dominate the setup cost).
fn traces() -> &'static [Trace] {
    static TRACES: OnceLock<Vec<Trace>> = OnceLock::new();
    TRACES.get_or_init(|| {
        scenarios()
            .into_iter()
            .map(|sc| {
                SimulationBuilder::khepera()
                    .scenario(sc)
                    .seed(11)
                    .duration(TICKS)
                    .run()
                    .unwrap()
                    .trace
            })
            .collect()
    })
}

/// The trace feeding robot `index` — scenarios round-robin over the
/// fleet so every Table II scenario is live in the 64-robot runs.
fn trace_of(index: usize) -> &'static Trace {
    let tr = traces();
    &tr[index % tr.len()]
}

/// A deterministic factory capturing ONE shared system: every detector
/// it builds — including recovery twins — carries the same
/// `ModelSignature`, so the whole fleet stays a single slab group.
fn shared_factory() -> RobotFactory {
    let system = presets::khepera_system();
    // The evaluation runner's initial state.
    let (_, x0) = evaluation_start(None).unwrap();
    Arc::new(move |_id| RoboAds::with_defaults(system.clone(), x0.clone()))
}

/// Offers tick `k`'s recorded frames for every robot and steps the
/// sharded fleet. `ids[i]` replays `trace_of(i)`.
fn sharded_tick(fleet: &mut ShardedFleet, ids: &[u64], k: usize) {
    for (i, &id) in ids.iter().enumerate() {
        let r = &trace_of(i).records()[k];
        assert!(fleet.offer_input(id, &r.planned_command, k as u64).unwrap());
        for (s, reading) in r.readings.iter().enumerate() {
            assert!(fleet.offer(id, s, reading, k as u64).unwrap());
        }
    }
    fleet.step().unwrap();
}

/// Asserts every robot of both fleets carries bitwise-identical state.
fn assert_fleets_bitwise(a: &ShardedFleet, b: &ShardedFleet, ids: &[u64], context: &str) {
    for &id in ids {
        assert_eq!(
            snapshot_detector(a.detector(id).unwrap()),
            snapshot_detector(b.detector(id).unwrap()),
            "{context}: robot {id} diverged"
        );
    }
}

#[test]
fn sixty_four_robot_fleet_snapshot_restore_continue_is_bitwise() {
    // All 12 Table II scenarios live simultaneously, round-robin over
    // 64 robots; the cut lands mid-run with attacks in flight.
    let factory = shared_factory();
    let build = || {
        let detectors: Vec<RoboAds> = (0..64).map(|i| factory(i).unwrap()).collect();
        let engine = FleetEngine::new(detectors, 1);
        let ingest = FleetIngest::for_fleet(&engine);
        (engine, ingest)
    };
    let tick = |engine: &mut FleetEngine, ingest: &mut FleetIngest, k: usize| {
        for robot in 0..engine.len() {
            let r = &trace_of(robot).records()[k];
            ingest
                .offer_input_stamped(robot, &r.planned_command, k as u64)
                .unwrap();
            for (s, reading) in r.readings.iter().enumerate() {
                ingest.offer_stamped(robot, s, reading, k as u64).unwrap();
            }
        }
        ingest.step(engine).unwrap();
    };

    let (mut ref_engine, mut ref_ingest) = build();
    for k in 0..TICKS {
        tick(&mut ref_engine, &mut ref_ingest, k);
    }
    let end = snapshot_fleet(&ref_engine, &ref_ingest);

    let cut = TICKS / 2;
    let (mut live_engine, mut live_ingest) = build();
    for k in 0..cut {
        tick(&mut live_engine, &mut live_ingest, k);
    }
    let snap = snapshot_fleet(&live_engine, &live_ingest);

    let (mut engine, mut ingest) = build();
    restore_fleet(&mut engine, &mut ingest, &snap).unwrap();
    assert_eq!(snapshot_fleet(&engine, &ingest), snap, "roundtrip identity");
    for k in cut..TICKS {
        tick(&mut engine, &mut ingest, k);
    }
    assert_eq!(
        snapshot_fleet(&engine, &ingest),
        end,
        "64-robot end state diverged after restore"
    );
    for robot in 0..64 {
        assert_eq!(
            engine.report(robot),
            ref_engine.report(robot),
            "robot {robot} report"
        );
    }
}

#[test]
fn killed_shards_recover_bitwise_from_snapshot_and_journal_replay() {
    let ids: Vec<u64> = (0..64).collect();
    let config = ShardConfig {
        shards: 4,
        threads_per_shard: 1,
        snapshot_period: 16,
        steal_margin: 0,
    };
    let mut reference = ShardedFleet::new(&ids, shared_factory(), config.clone()).unwrap();
    let mut victim = ShardedFleet::new(&ids, shared_factory(), config).unwrap();

    // Crash before the first periodic snapshot: recovery is a pure
    // journal replay from detector birth.
    for k in 0..8 {
        sharded_tick(&mut reference, &ids, k);
        sharded_tick(&mut victim, &ids, k);
    }
    victim.recover_shard(2).unwrap();
    assert_fleets_bitwise(&reference, &victim, &ids, "early crash (journal only)");

    // Crash mid-run: recovery is the tick-32 snapshot plus the 8-tick
    // journal backlog.
    for k in 8..40 {
        sharded_tick(&mut reference, &ids, k);
        sharded_tick(&mut victim, &ids, k);
    }
    let before = victim.status();
    assert_eq!(before[1].snapshot_tick, Some(32));
    assert!(before[1].journal_frames > 0, "a backlog must exist");
    victim.recover_shard(1).unwrap();
    assert_fleets_bitwise(
        &reference,
        &victim,
        &ids,
        "mid-run crash (snapshot + journal)",
    );

    // Both fleets keep marching in lockstep after the recovery.
    for k in 40..TICKS {
        sharded_tick(&mut reference, &ids, k);
        sharded_tick(&mut victim, &ids, k);
    }
    assert_fleets_bitwise(&reference, &victim, &ids, "post-recovery continuation");
    assert_eq!(victim.tick(), TICKS as u64);
    assert_eq!(reference.tick(), TICKS as u64);
}

#[test]
fn wire_fed_service_is_bitwise_equal_to_the_in_process_sync_path() {
    // Scattered 64-bit ids exercise the hash partition; the producer
    // thread feeds the service over a real Unix socket through the
    // binary codec, while the twin fleet takes the same frames through
    // direct in-process offers.
    let ids: [u64; 8] = [3, 11, 42, 77, 255, 9000, 1 << 33, u64::MAX - 5];
    let config = ShardConfig {
        shards: 3,
        threads_per_shard: 1,
        snapshot_period: 32,
        steal_margin: 0,
    };
    let mut served = ShardedFleet::new(&ids, shared_factory(), config.clone()).unwrap();
    let mut synced = ShardedFleet::new(&ids, shared_factory(), config).unwrap();

    let robots: Vec<(u64, Trace)> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, trace_of(i).clone()))
        .collect();
    let socket =
        std::env::temp_dir().join(format!("roboads-shard-svc-{}.sock", std::process::id()));
    let summary = serve_traces_uds(&socket, &robots, &mut served).unwrap();

    let sensors = trace_of(0).records()[0].readings.len();
    assert!(summary.clean_shutdown, "producer must close with Bye");
    assert_eq!(summary.ticks, TICKS as u64);
    assert_eq!(summary.rejected, 0);
    assert_eq!(summary.accepted, (TICKS * ids.len() * (1 + sensors)) as u64);

    for k in 0..TICKS {
        sharded_tick(&mut synced, &ids, k);
    }
    assert_eq!(served.tick(), synced.tick());
    assert_fleets_bitwise(&served, &synced, &ids, "wire vs in-process");
}

#[test]
fn health_exposition_carries_the_shard_dimension() {
    let ids: Vec<u64> = (0..4).collect();
    let config = ShardConfig {
        shards: 2,
        threads_per_shard: 1,
        snapshot_period: 4,
        steal_margin: 0,
    };
    let mut fleet = ShardedFleet::new(&ids, shared_factory(), config).unwrap();

    // Before any tick: no snapshots yet — ages must render as -1.
    let mut health = FleetHealth::new(ids.len());
    health.observe_shards(&fleet);
    let prom = health.to_prometheus();
    assert!(
        prom.contains("roboads_shard_snapshot_age{shard=\"0\"} -1"),
        "{prom}"
    );
    assert!(
        prom.contains("roboads_shard_snapshot_age{shard=\"1\"} -1"),
        "{prom}"
    );
    let json = health.to_json();
    assert!(json.contains("\"snapshot_tick\":null"), "{json}");

    // Past the snapshot period: ages, ticks and backlogs are live.
    for k in 0..6 {
        sharded_tick(&mut fleet, &ids, k);
    }
    health.observe_shards(&fleet);
    let json = health.to_json();
    assert!(json.contains("\"steals\":0"), "{json}");
    assert!(json.contains("\"shards\":[{\"shard\":0,"), "{json}");
    assert!(json.contains("\"snapshot_tick\":4"), "{json}");
    let prom = health.to_prometheus();
    assert!(prom.contains("roboads_fleet_steals 0"), "{prom}");
    assert!(prom.contains("roboads_shard_tick{shard=\"0\"} 6"), "{prom}");
    assert!(prom.contains("roboads_shard_tick{shard=\"1\"} 6"), "{prom}");
    assert!(
        prom.contains("roboads_shard_snapshot_age{shard=\"0\"} 2"),
        "{prom}"
    );
    for shard in 0..2 {
        assert!(
            prom.contains(&format!("roboads_shard_robots{{shard=\"{shard}\"}}")),
            "{prom}"
        );
        assert!(
            prom.contains(&format!(
                "roboads_shard_journal_frames{{shard=\"{shard}\"}}"
            )),
            "{prom}"
        );
    }

    // A whole-group steal shows up in both expositions. With one
    // signature the balancer only moves a group when it would not just
    // swap the imbalance; a 3-vs-1 split steals nothing, so force the
    // asymmetric case by checking the counter plumbing directly.
    let moved = fleet.rebalance();
    health.observe_shards(&fleet);
    assert_eq!(fleet.steals() as usize, usize::from(moved > 0));
    assert!(
        health
            .to_json()
            .contains(&format!("\"steals\":{}", fleet.steals())),
        "steal counter must flow into the exposition"
    );
}
