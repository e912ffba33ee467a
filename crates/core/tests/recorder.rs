//! Flight-recorder integration tests: ring semantics, edge-triggered
//! capsule freezing, JSONL round-trips, and the bitwise replay contract
//! (`DESIGN.md` §15).

use roboads_core::{
    replay_capsule, CoreError, DecisionDigest, FleetEngine, IncidentCapsule, IncidentKind, ModeSet,
    RecorderConfig, RoboAds, RoboAdsConfig, RobotInput, CAPSULE_VERSION,
};
use roboads_linalg::Vector;
use roboads_models::{presets, RobotSystem};
use roboads_obs::Telemetry;

fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
    (0..system.sensor_count())
        .map(|i| system.sensor(i).unwrap().measure(x))
        .collect()
}

fn fresh_detector(system: &RobotSystem, x0: &Vector) -> RoboAds {
    RoboAds::new(
        system.clone(),
        RoboAdsConfig::paper_defaults(),
        x0.clone(),
        ModeSet::one_reference_per_sensor(system),
    )
    .unwrap()
}

/// Steps `detector` for `ticks` iterations, spoofing the IPS (sensor 0)
/// from `spoof_from` on, recording every tick with stamp = k.
fn drive(
    detector: &mut RoboAds,
    system: &RobotSystem,
    x0: &Vector,
    ticks: usize,
    spoof_from: usize,
) {
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut x = x0.clone();
    for k in 0..ticks {
        x = system.dynamics().step(&x, &u);
        let mut readings = clean_readings(system, &x);
        if k >= spoof_from {
            readings[0][0] += 0.07;
        }
        let report = detector.step(&u, &readings).unwrap();
        detector.record_tick(k as u64, &u, &readings, &report);
    }
}

#[test]
fn ring_holds_the_newest_window_across_wraparound() {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut ads = fresh_detector(&system, &x0).with_recorder(RecorderConfig {
        capacity: 4,
        ..RecorderConfig::default()
    });
    drive(&mut ads, &system, &x0, 7, usize::MAX);
    let rec = ads.recorder().unwrap();
    assert_eq!(rec.recorded(), 7);
    assert_eq!(rec.ring_len(), 4);
    // Oldest-first: iterations 4..=7 survive, stamped 3..=6.
    for (i, seq) in (4u64..=7).enumerate() {
        let r = rec.ring_record(i).unwrap();
        assert_eq!(r.seq, seq);
        assert_eq!(r.stamp, seq - 1);
        assert_eq!(r.digest.iteration, seq);
        assert_eq!(r.u_prev.len(), system.input_dim());
        assert_eq!(r.readings.len(), system.sensor_count());
    }
    assert!(rec.capsules().is_empty(), "clean run seals nothing");
}

#[test]
fn rising_alarm_edge_freezes_a_pre_post_capsule() {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut ads = fresh_detector(&system, &x0).with_recorder(RecorderConfig {
        capacity: 64,
        pre: 3,
        post: 2,
        dt: 0.1,
    });
    drive(&mut ads, &system, &x0, 20, 4);
    let rec = ads.recorder_mut().unwrap();
    rec.finish();
    let capsules = rec.take_capsules();
    assert_eq!(capsules.len(), 1, "one confirmed incident, one capsule");
    let c = &capsules[0];
    assert_eq!(c.version, CAPSULE_VERSION);
    assert_eq!(c.robot, 0);
    assert_eq!(c.kind, IncidentKind::Sensor);
    // pre+1 window ending at the trigger, then `post` more ticks.
    assert_eq!(c.records.len(), 3 + 1 + 2);
    let trigger_pos = c
        .records
        .iter()
        .position(|r| r.seq == c.trigger_seq)
        .expect("trigger tick is inside the window");
    assert_eq!(trigger_pos, 3, "exactly `pre` records precede the trigger");
    assert!(c.records[trigger_pos].digest.sensor_alarm);
    assert!(!c.records[trigger_pos - 1].digest.sensor_alarm);
    assert_eq!(
        c.trigger_stamp,
        c.trigger_seq - 1,
        "stamps ran one behind seqs"
    );
    // Consecutive seqs, oldest first.
    for w in c.records.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1);
    }
}

#[test]
fn capsules_are_enriched_with_forensics_and_telemetry() {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let telemetry = Telemetry::default();
    telemetry.metrics().histogram("test.latency_s").record(0.25);
    let mut ads = fresh_detector(&system, &x0)
        .with_telemetry(telemetry)
        .with_recorder(RecorderConfig {
            capacity: 64,
            pre: 4,
            post: 2,
            dt: 0.1,
        });
    drive(&mut ads, &system, &x0, 20, 4);
    ads.recorder_mut().unwrap().finish();
    let capsules = ads.recorder_mut().unwrap().take_capsules();
    let c = &capsules[0];
    let incident = c.incident.as_ref().expect("forensics resolved an incident");
    assert_eq!(
        incident.label, "S1",
        "IPS spoofing is the paper's S1 condition"
    );
    assert_eq!(incident.sensors, vec![0]);
    assert!(!incident.actuator);
    assert!(incident.peak_magnitude > 0.0);
    assert!(
        c.histograms
            .iter()
            .any(|(name, s)| name == "test.latency_s" && s.count == 1),
        "telemetry histograms ride along"
    );
}

#[test]
fn capsule_jsonl_round_trips_exactly() {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let telemetry = Telemetry::default();
    telemetry.metrics().histogram("test.h").record(1.5);
    let mut ads = fresh_detector(&system, &x0)
        .with_telemetry(telemetry)
        .with_recorder(RecorderConfig {
            capacity: 64,
            pre: 5,
            post: 3,
            dt: 0.1,
        });
    drive(&mut ads, &system, &x0, 20, 4);
    ads.recorder_mut().unwrap().finish();
    let capsules = ads.recorder_mut().unwrap().take_capsules();
    let text = capsules[0].to_jsonl();
    let parsed = IncidentCapsule::from_jsonl(&text).unwrap();
    assert_eq!(
        parsed, capsules[0],
        "lossless floats make the round-trip exact"
    );
}

#[test]
fn unknown_capsule_version_is_rejected() {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut ads = fresh_detector(&system, &x0).with_recorder(RecorderConfig::default());
    drive(&mut ads, &system, &x0, 12, 4);
    ads.recorder_mut().unwrap().finish();
    let text = ads.recorder_mut().unwrap().take_capsules()[0].to_jsonl();
    let tampered = text.replacen("\"version\":1", "\"version\":9", 1);
    match IncidentCapsule::from_jsonl(&tampered) {
        Err(CoreError::Capsule { reason }) => assert!(reason.contains("version 9"), "{reason}"),
        other => panic!("expected a version error, got {other:?}"),
    }
    // A truncated body (count mismatch) is also rejected.
    let truncated: Vec<&str> = text.lines().collect();
    let truncated = truncated[..truncated.len() - 1].join("\n");
    assert!(matches!(
        IncidentCapsule::from_jsonl(&truncated),
        Err(CoreError::Capsule { .. })
    ));
}

#[test]
fn replay_reproduces_every_recorded_digest_bitwise() {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut ads = fresh_detector(&system, &x0).with_recorder(RecorderConfig {
        capacity: 128,
        pre: 128,
        post: 4,
        dt: 0.1,
    });
    drive(&mut ads, &system, &x0, 20, 4);
    ads.recorder_mut().unwrap().finish();
    let capsules = ads.recorder_mut().unwrap().take_capsules();
    let c = &capsules[0];
    assert!(c.anchored_at_birth(), "pre window covers the whole run");

    // Replay on a twin — and through the serialized form, proving the
    // JSONL representation itself carries bitwise fidelity.
    let reparsed = IncidentCapsule::from_jsonl(&c.to_jsonl()).unwrap();
    let mut twin = fresh_detector(&system, &x0);
    let outcome = replay_capsule(&reparsed, &mut twin).unwrap();
    assert_eq!(outcome.ticks, c.records.len());
    assert!(
        outcome.is_bitwise(),
        "diverged at seqs {:?}",
        outcome.mismatched_seqs
    );
}

#[test]
fn replay_flags_a_tampered_digest() {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut ads = fresh_detector(&system, &x0).with_recorder(RecorderConfig {
        capacity: 128,
        pre: 128,
        post: 2,
        dt: 0.1,
    });
    drive(&mut ads, &system, &x0, 16, 4);
    ads.recorder_mut().unwrap().finish();
    let mut capsule = ads.recorder_mut().unwrap().take_capsules().remove(0);
    let victim = capsule.records.len() / 2;
    let seq = capsule.records[victim].seq;
    capsule.records[victim].digest.state_estimate[0] += 1e-12;

    let mut twin = fresh_detector(&system, &x0);
    let outcome = replay_capsule(&capsule, &mut twin).unwrap();
    assert_eq!(
        outcome.mismatched_seqs,
        vec![seq],
        "1 ulp-scale edit is caught"
    );
}

#[test]
fn replay_requires_a_birth_anchored_pairing() {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut ads = fresh_detector(&system, &x0).with_recorder(RecorderConfig {
        capacity: 128,
        pre: 128,
        post: 2,
        dt: 0.1,
    });
    drive(&mut ads, &system, &x0, 16, 4);
    ads.recorder_mut().unwrap().finish();
    let capsule = ads.recorder_mut().unwrap().take_capsules().remove(0);

    // A detector that has already stepped is out of alignment.
    let mut stale = fresh_detector(&system, &x0);
    drive(&mut stale, &system, &x0, 2, usize::MAX);
    assert!(matches!(
        replay_capsule(&capsule, &mut stale),
        Err(CoreError::Capsule { .. })
    ));

    // A ring too small to reach back to birth fails the anchor check.
    let mut short = fresh_detector(&system, &x0).with_recorder(RecorderConfig {
        capacity: 4,
        pre: 4,
        post: 1,
        dt: 0.1,
    });
    drive(&mut short, &system, &x0, 16, 4);
    short.recorder_mut().unwrap().finish();
    let clipped = short.recorder_mut().unwrap().take_capsules().remove(0);
    assert!(!clipped.anchored_at_birth());
    let mut twin = fresh_detector(&system, &x0);
    assert!(matches!(
        replay_capsule(&clipped, &mut twin),
        Err(CoreError::Capsule { .. })
    ));
}

#[test]
fn fleet_recording_is_identical_across_scalar_and_slab_paths() {
    // The recorder hooks live on both the scalar per-robot path and the
    // SIMD slab tiles; a fleet recorded through either must seal
    // bitwise-identical capsules, each stamped with its robot index and
    // the engine's internal tick (no ingest in this test). The scalar
    // fleet gives every robot its own system, so every signature group
    // is a single robot, stepped per robot.
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.06, 0.05]);
    // One 8-lane tile plus a masked 3-robot tail.
    const ROBOTS: usize = 11;
    let run = |shared: bool| {
        let config = RoboAdsConfig::paper_defaults();
        let modes = ModeSet::one_reference_per_sensor(&system);
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
        fleet.attach_recorder(RecorderConfig {
            capacity: 64,
            pre: 64,
            post: 2,
            dt: 0.1,
        });
        let mut x = x0.clone();
        for k in 0..16 {
            x = system.dynamics().step(&x, &u);
            let mut readings = clean_readings(&system, &x);
            if k >= 4 {
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
        fleet.finish_recorders();
        fleet.take_capsules()
    };
    let scalar = run(false);
    let slab = run(true);
    assert_eq!(scalar.len(), ROBOTS, "every robot sealed its capsule");
    assert_eq!(
        scalar, slab,
        "slab-path recording is bitwise the scalar path's"
    );
    for (i, c) in scalar.iter().enumerate() {
        assert_eq!(c.robot, i as u32);
        // Engine-internal stamps are the 0-based batch ticks.
        let first = &c.records[0];
        assert_eq!(first.stamp, first.seq - 1);
        // Each robot's capsule replays bitwise on a twin.
        let mut twin = RoboAds::new(
            system.clone(),
            RoboAdsConfig::paper_defaults(),
            x0.clone(),
            ModeSet::one_reference_per_sensor(&system),
        )
        .unwrap();
        let outcome = replay_capsule(c, &mut twin).unwrap();
        assert!(
            outcome.is_bitwise(),
            "robot {i}: {:?}",
            outcome.mismatched_seqs
        );
    }
}

#[test]
fn digest_bitwise_eq_distinguishes_nan_from_value_changes() {
    let mut a = DecisionDigest {
        sensor_statistic: f64::NAN,
        ..DecisionDigest::default()
    };
    let b = a.clone();
    assert!(a.bitwise_eq(&b), "NaN matches NaN");
    a.sensor_statistic = 0.0;
    assert!(!a.bitwise_eq(&b));
    a = b.clone();
    a.actuator_estimate.push(-0.0);
    assert!(!a.bitwise_eq(&b), "length change detected");
}
