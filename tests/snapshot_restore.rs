//! Snapshot/restore bitwise contract (`DESIGN.md` §18): a detector
//! snapshotted mid-run, restored onto a freshly constructed twin, and
//! continued on the same inputs must end **bitwise identical** to the
//! uninterrupted run — on every Table II scenario and in the awkward
//! states the format is most likely to get wrong: an open χ² decision
//! window, a `HoldLast` ingest slot with incomplete history, and a
//! freshly regrouped heterogeneous fleet. Clones carry state and
//! constants but no scratch, so a clone of a warm detector continues
//! bitwise with it, and a never-stepped clone restores and continues
//! bitwise. Damaged bytes — any
//! truncation, any single flipped bit — end in a typed error or a
//! restore, never a panic.
//!
//! The end-state check is [`snapshot_detector`] byte equality: the
//! snapshot serializes every mutable `f64` of detector state via
//! `to_bits`, so equal bytes means equal bits everywhere.

use roboads::core::{
    restore_detector, restore_fleet, snapshot_detector, snapshot_fleet, CoreError, DeadlinePolicy,
    DetectionReport, FleetEngine, FleetIngest, RoboAds, RoboAdsConfig,
};
use roboads::sim::{
    evaluation_detector, RobotKind, Scenario, SimulationBuilder, Trace, TraceRecord,
};

#[path = "support/seeded.rs"]
mod seeded;
use seeded::{check, for_each_seed};

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

/// The recorded inputs (planned commands + readings) of one scenario
/// run — the tracker's plan, not the bus-decoded command the runner fed
/// its own detector.
fn trace_for(scenario: Scenario) -> Trace {
    SimulationBuilder::khepera()
        .scenario(scenario)
        .seed(11)
        .run()
        .unwrap()
        .trace
}

/// A twin built exactly as the evaluation runner builds detectors.
fn twin(config: &RoboAdsConfig) -> RoboAds {
    evaluation_detector(RobotKind::Khepera, config).unwrap()
}

/// Drives a detector through recorded inputs, collecting its reports.
fn drive(det: &mut RoboAds, records: &[TraceRecord]) -> Vec<DetectionReport> {
    records
        .iter()
        .map(|r| det.step(&r.planned_command, &r.readings).unwrap())
        .collect()
}

#[test]
fn table2_midpoint_snapshot_restore_continue_is_bitwise() {
    let config = RoboAdsConfig::paper_defaults();
    for scenario in scenarios() {
        let name = scenario.name().to_string();
        let trace = trace_for(scenario);
        let records = trace.records();
        let mid = records.len() / 2;

        let mut reference = twin(&config);
        let reference_reports = drive(&mut reference, records);

        let mut first_half = twin(&config);
        drive(&mut first_half, &records[..mid]);
        let snap = snapshot_detector(&first_half);

        // Roundtrip identity: restore onto a fresh twin reproduces the
        // snapshot byte-for-byte.
        let mut restored = twin(&config);
        restore_detector(&mut restored, &snap).unwrap();
        assert_eq!(
            snapshot_detector(&restored),
            snap,
            "{name}: snapshot → restore → snapshot is not the identity"
        );

        // Continuation: the restored twin finishes the run with the same
        // reports and the same end-state bits as the uninterrupted one.
        let tail_reports = drive(&mut restored, &records[mid..]);
        assert_eq!(
            tail_reports,
            reference_reports[mid..],
            "{name}: reports diverged after restore"
        );
        assert_eq!(
            snapshot_detector(&restored),
            snapshot_detector(&reference),
            "{name}: end state diverged after restore"
        );
    }
}

/// The scratch rule: a clone carries filter state and constants but
/// builds its own scratch on its first step. Cut mid-run on every
/// Table II scenario, two clones must finish the run bitwise equal to
/// the uninterrupted detector: a clone of the warm first half, and a
/// clone of a never-stepped template restored from the first half's
/// snapshot (the twin a shard recovery's factory builds).
#[test]
fn table2_midpoint_clones_continue_bitwise() {
    let config = RoboAdsConfig::paper_defaults();
    let template = twin(&config);
    for scenario in scenarios() {
        let name = scenario.name().to_string();
        let trace = trace_for(scenario);
        let records = trace.records();
        let mid = records.len() / 2;

        let mut reference = twin(&config);
        let reference_reports = drive(&mut reference, records);
        let mut first_half = twin(&config);
        drive(&mut first_half, &records[..mid]);
        let mut restored = template.clone();
        restore_detector(&mut restored, &snapshot_detector(&first_half)).unwrap();

        for (clone_kind, mut clone) in [("warm", first_half.clone()), ("restored", restored)] {
            let tail_reports = drive(&mut clone, &records[mid..]);
            assert_eq!(
                tail_reports,
                reference_reports[mid..],
                "{name}: reports of the {clone_kind} clone diverged"
            );
            assert_eq!(
                snapshot_detector(&clone),
                snapshot_detector(&reference),
                "{name}: end state of the {clone_kind} clone diverged"
            );
        }
    }
}

#[test]
fn open_chi2_window_survives_snapshot_at_every_onset_tick() {
    // Scenario S1 turns the IPS hostile at t = 4 s; the χ² decision
    // window opens and fills across the following ticks. Cutting at
    // every tick of that span guarantees some snapshots land with the
    // window partially filled and the alarm not yet confirmed.
    let config = RoboAdsConfig::paper_defaults();
    let trace = trace_for(Scenario::ips_spoofing());
    let records = trace.records();
    let mut reference = twin(&config);
    drive(&mut reference, records);
    let end = snapshot_detector(&reference);

    let onset = 36..48.min(records.len());
    let mut live = twin(&config);
    drive(&mut live, &records[..onset.start]);
    for cut in onset {
        live.step(&records[cut].planned_command, &records[cut].readings)
            .unwrap();
        let snap = snapshot_detector(&live);
        let mut resumed = twin(&config);
        restore_detector(&mut resumed, &snap).unwrap();
        drive(&mut resumed, &records[cut + 1..]);
        assert_eq!(
            snapshot_detector(&resumed),
            end,
            "open-window snapshot at tick {cut} diverged"
        );
    }
}

/// Fleet twin construction shared by the ingest tests: `n` runner-exact
/// detectors, wrapped in an engine and a stamped-frame ingest.
fn fleet_twins(n: usize, policy: DeadlinePolicy) -> (FleetEngine, FleetIngest) {
    let config = RoboAdsConfig::paper_defaults();
    let detectors: Vec<RoboAds> = (0..n).map(|_| twin(&config)).collect();
    let engine = FleetEngine::new(detectors, 1);
    let ingest = FleetIngest::for_fleet(&engine).with_policy(policy);
    (engine, ingest)
}

/// Feeds one tick of recorded inputs into the ingest — all sensors of
/// every robot except those in `drop` — and steps the fleet. Missed
/// deadlines are tolerated, exactly as a live monitor tolerates them.
fn fleet_tick(
    engine: &mut FleetEngine,
    ingest: &mut FleetIngest,
    record: &TraceRecord,
    k: u64,
    drop: &[(usize, usize)],
) {
    for robot in 0..engine.len() {
        ingest
            .offer_input_stamped(robot, &record.planned_command, k)
            .unwrap();
        for (sensor, reading) in record.readings.iter().enumerate() {
            if drop.contains(&(robot, sensor)) {
                continue;
            }
            ingest.offer_stamped(robot, sensor, reading, k).unwrap();
        }
    }
    let _ = ingest.step(engine);
}

#[test]
fn hold_last_ingest_with_incomplete_history_snapshots_bitwise() {
    // Robot 1 loses its IPS frames for the first three ticks, so its
    // `HoldLast` slot has no complete history to hold — the hardest
    // ingest state to serialize. The cut lands at tick 2, inside that
    // incomplete span; frames keep dropping after the restore too.
    let trace = trace_for(Scenario::clean());
    let records = trace.records();
    let drops: Vec<(u64, Vec<(usize, usize)>)> = vec![
        (0, vec![(1, 0)]),
        (1, vec![(1, 0)]),
        (2, vec![(1, 0)]),
        (6, vec![(1, 0), (0, 2)]),
    ];
    let drop_at = |k: u64| -> Vec<(usize, usize)> {
        drops
            .iter()
            .find(|(tick, _)| *tick == k)
            .map(|(_, d)| d.clone())
            .unwrap_or_default()
    };

    let (mut ref_engine, mut ref_ingest) = fleet_twins(2, DeadlinePolicy::HoldLast);
    for (k, r) in records.iter().enumerate() {
        fleet_tick(
            &mut ref_engine,
            &mut ref_ingest,
            r,
            k as u64,
            &drop_at(k as u64),
        );
    }
    let end = snapshot_fleet(&ref_engine, &ref_ingest);

    let cut = 3usize;
    let (mut live_engine, mut live_ingest) = fleet_twins(2, DeadlinePolicy::HoldLast);
    for (k, r) in records[..cut].iter().enumerate() {
        fleet_tick(
            &mut live_engine,
            &mut live_ingest,
            r,
            k as u64,
            &drop_at(k as u64),
        );
    }
    let snap = snapshot_fleet(&live_engine, &live_ingest);

    let (mut engine, mut ingest) = fleet_twins(2, DeadlinePolicy::HoldLast);
    restore_fleet(&mut engine, &mut ingest, &snap).unwrap();
    assert_eq!(
        snapshot_fleet(&engine, &ingest),
        snap,
        "fleet roundtrip identity"
    );
    for (k, r) in records.iter().enumerate().skip(cut) {
        fleet_tick(&mut engine, &mut ingest, r, k as u64, &drop_at(k as u64));
    }
    assert_eq!(
        snapshot_fleet(&engine, &ingest),
        end,
        "HoldLast fleet end state diverged after restore"
    );
    for robot in 0..2 {
        assert_eq!(
            engine.report(robot),
            ref_engine.report(robot),
            "robot {robot} report"
        );
    }
}

#[test]
fn freshly_regrouped_heterogeneous_fleet_snapshots_bitwise() {
    // Actuator compensation on and off → distinct §16 group keys. The
    // restore path deliberately drops the slab partition (it re-resolves
    // on the next step), so the continued run exercises a freshly
    // regrouped fleet on both sides of the cut.
    let trace = trace_for(Scenario::clean());
    let records = &trace.records()[..24];
    let build = || {
        let full = RoboAdsConfig::paper_defaults();
        let uncompensated = full.clone().without_compensation();
        let detectors = vec![
            twin(&full),
            twin(&uncompensated),
            twin(&full),
            twin(&uncompensated),
        ];
        let engine = FleetEngine::new(detectors, 1);
        let ingest = FleetIngest::for_fleet(&engine);
        (engine, ingest)
    };

    let (mut ref_engine, mut ref_ingest) = build();
    for (k, r) in records.iter().enumerate() {
        fleet_tick(&mut ref_engine, &mut ref_ingest, r, k as u64, &[]);
    }
    let end = snapshot_fleet(&ref_engine, &ref_ingest);

    let cut = 9usize;
    let (mut live_engine, mut live_ingest) = build();
    for (k, r) in records[..cut].iter().enumerate() {
        fleet_tick(&mut live_engine, &mut live_ingest, r, k as u64, &[]);
    }
    let snap = snapshot_fleet(&live_engine, &live_ingest);

    let (mut engine, mut ingest) = build();
    restore_fleet(&mut engine, &mut ingest, &snap).unwrap();
    for (k, r) in records.iter().enumerate().skip(cut) {
        fleet_tick(&mut engine, &mut ingest, r, k as u64, &[]);
    }
    assert_eq!(
        snapshot_fleet(&engine, &ingest),
        end,
        "heterogeneous fleet end state diverged after restore"
    );
}

#[test]
fn snapshots_reject_foreign_and_damaged_bytes() {
    let config = RoboAdsConfig::paper_defaults();
    let trace = trace_for(Scenario::clean());
    let mut det = twin(&config);
    drive(&mut det, &trace.records()[..5]);
    let snap = snapshot_detector(&det);

    // A fleet envelope is not a detector envelope.
    let (engine, ingest) = fleet_twins(1, DeadlinePolicy::MarkMissing);
    let fleet_snap = snapshot_fleet(&engine, &ingest);
    let mut victim = twin(&config);
    assert!(restore_detector(&mut victim, &fleet_snap).is_err());

    // A clean restore still succeeds after the rejected attempts.
    let mut victim = twin(&config);
    restore_detector(&mut victim, &snap).unwrap();
    assert_eq!(snapshot_detector(&victim), snap);
}

/// A detector snapshot with an open χ² window (IPS spoof onset) and a
/// fleet snapshot whose `HoldLast` slot has incomplete history — the
/// damage targets — plus twins to restore them onto.
fn damage_targets() -> (Vec<u8>, Vec<u8>) {
    let config = RoboAdsConfig::paper_defaults();
    let trace = trace_for(Scenario::ips_spoofing());
    let mut det = twin(&config);
    drive(&mut det, &trace.records()[..40]);
    let (mut engine, mut ingest) = fleet_twins(2, DeadlinePolicy::HoldLast);
    for (k, r) in trace.records()[..3].iter().enumerate() {
        fleet_tick(&mut engine, &mut ingest, r, k as u64, &[(1, 0)]);
    }
    (snapshot_detector(&det), snapshot_fleet(&engine, &ingest))
}

#[test]
fn every_truncation_is_a_snapshot_error() {
    let config = RoboAdsConfig::paper_defaults();
    let (detector_snap, fleet_snap) = damage_targets();
    // Restore reads strictly against the twin's construction shapes, so
    // a rejected attempt leaves the twin a valid target for the next.
    let mut det = twin(&config);
    for cut in 0..detector_snap.len() {
        match restore_detector(&mut det, &detector_snap[..cut]) {
            Err(CoreError::Snapshot { .. }) => {}
            other => panic!("detector truncation at {cut}: {other:?}"),
        }
    }
    let (mut engine, mut ingest) = fleet_twins(2, DeadlinePolicy::HoldLast);
    for cut in 0..fleet_snap.len() {
        match restore_fleet(&mut engine, &mut ingest, &fleet_snap[..cut]) {
            Err(CoreError::Snapshot { .. }) => {}
            other => panic!("fleet truncation at {cut}: {other:?}"),
        }
    }
    // The twins still restore the undamaged bytes exactly.
    restore_detector(&mut det, &detector_snap).unwrap();
    assert_eq!(snapshot_detector(&det), detector_snap);
    restore_fleet(&mut engine, &mut ingest, &fleet_snap).unwrap();
    assert_eq!(snapshot_fleet(&engine, &ingest), fleet_snap);
}

#[test]
fn a_flipped_bit_restores_or_is_a_snapshot_error() {
    let (detector_snap, fleet_snap) = damage_targets();
    // Each case restores onto fresh clones of one twin: building a twin
    // plans the evaluation path, which is too slow to repeat per seed.
    let template = twin(&RoboAdsConfig::paper_defaults());
    for_each_seed(|rng| {
        let fleet = rng.coin();
        let mut bytes = if fleet {
            fleet_snap.clone()
        } else {
            detector_snap.clone()
        };
        let bit = rng.below(bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let result = if fleet {
            let mut engine = FleetEngine::new(vec![template.clone(), template.clone()], 1);
            let mut ingest = FleetIngest::for_fleet(&engine).with_policy(DeadlinePolicy::HoldLast);
            restore_fleet(&mut engine, &mut ingest, &bytes)
        } else {
            restore_detector(&mut template.clone(), &bytes)
        };
        check(
            matches!(result, Ok(()) | Err(CoreError::Snapshot { .. })),
            &format!("fleet={fleet} bit {bit}"),
            result,
        )
    });
}
