//! End-to-end flight-recorder integration: Table II missions with a
//! recorder attached must seal incident capsules that replay **bitwise**
//! through a freshly constructed detector — including after a JSONL
//! round-trip — and a fleet run with monitor-side frame faults must do
//! the same while the live health board accounts for every robot.

use roboads::core::{
    replay_capsule, DeadlinePolicy, IncidentCapsule, IncidentKind, RecorderConfig, RoboAdsConfig,
};
use roboads::sim::{
    evaluation_detector, FleetSimulationBuilder, FrameFault, RobotKind, Scenario, SimulationBuilder,
};

/// A recorder whose ring reaches back to detector birth for any
/// evaluation-length mission — the replay contract's anchor requirement.
fn full_run_recorder() -> RecorderConfig {
    RecorderConfig {
        capacity: 512,
        pre: 512,
        post: 8,
        dt: 0.1,
    }
}

#[test]
fn table2_sensor_and_actuator_capsules_replay_bitwise() {
    // One sensor scenario (S1: IPS spoofing) and one actuator scenario
    // (A1: wheel logic bomb) — both alarm kinds exercise the full
    // record → seal → serialize → parse → replay loop.
    for (scenario, kind) in [
        (Scenario::ips_spoofing(), IncidentKind::Sensor),
        (Scenario::wheel_logic_bomb(), IncidentKind::Actuator),
    ] {
        let name = scenario.name().to_string();
        let outcome = SimulationBuilder::khepera()
            .scenario(scenario)
            .seed(7)
            .recorder(full_run_recorder())
            .run()
            .unwrap();
        assert!(
            !outcome.capsules.is_empty(),
            "{name}: a confirmed alarm must seal a capsule"
        );
        let capsule = &outcome.capsules[0];
        assert_eq!(capsule.kind, kind, "{name}");
        assert!(capsule.anchored_at_birth(), "{name}");
        // Stamps are the bus ticks (0-based k), one behind the 1-based
        // detector iterations.
        for r in &capsule.records {
            assert_eq!(r.stamp, r.seq - 1, "{name}: stamp/seq alignment");
        }
        let incident = capsule.incident.as_ref().expect("forensics enrichment");
        assert!(!incident.label.is_empty());

        // The round-tripped capsule replays bitwise on a twin detector
        // built exactly as the runner built the recorded one.
        let parsed = IncidentCapsule::from_jsonl(&capsule.to_jsonl()).unwrap();
        let mut twin =
            evaluation_detector(RobotKind::Khepera, &RoboAdsConfig::paper_defaults()).unwrap();
        let replay = replay_capsule(&parsed, &mut twin).unwrap();
        assert_eq!(replay.ticks, capsule.records.len());
        assert!(
            replay.is_bitwise(),
            "{name}: replay diverged at seqs {:?}",
            replay.mismatched_seqs
        );
    }
}

#[test]
fn frame_faulted_fleet_seals_replayable_capsules_and_health_accounts_for_it() {
    const ROBOTS: usize = 3;
    const FAULTED: usize = 1;
    let outcome = FleetSimulationBuilder::khepera()
        .scenario(Scenario::ips_spoofing())
        .robots(ROBOTS)
        .phase(5)
        .seed(11)
        .duration(80)
        .ingest(DeadlinePolicy::MarkMissing)
        .frame_fault(FAULTED, 30..34, FrameFault::Drop)
        .recorder(full_run_recorder())
        .health(true)
        .run()
        .unwrap();

    // Every robot's shifted attack confirms and seals a capsule carrying
    // its robot index.
    assert_eq!(outcome.capsules.len(), ROBOTS);
    for (i, capsule) in outcome.capsules.iter().enumerate() {
        assert_eq!(capsule.robot, i as u32);
        assert_eq!(capsule.kind, IncidentKind::Sensor);
        assert!(capsule.anchored_at_birth(), "robot {i}");
        let config = RoboAdsConfig::paper_defaults();
        let mut twin = evaluation_detector(RobotKind::Khepera, &config).unwrap();
        let parsed = IncidentCapsule::from_jsonl(&capsule.to_jsonl()).unwrap();
        let replay = replay_capsule(&parsed, &mut twin).unwrap();
        assert!(
            replay.is_bitwise(),
            "robot {i}: replay diverged at seqs {:?}",
            replay.mismatched_seqs
        );
    }

    // The faulted robot's capsule simply has no records for its dropped
    // window: the detector froze, iterations stayed consecutive, and the
    // stamp timeline jumps over the monitor-side outage.
    let faulted = &outcome.capsules[FAULTED];
    let stamps: Vec<u64> = faulted.records.iter().map(|r| r.stamp).collect();
    for k in 30..34 {
        assert!(
            !stamps.contains(&k),
            "dropped tick {k} must not be recorded"
        );
    }
    for w in faulted.records.windows(2) {
        assert_eq!(w[1].seq, w[0].seq + 1, "iterations stay consecutive");
    }

    // The health board saw every tick and the fault.
    let health = outcome
        .health
        .as_ref()
        .expect("health(true) builds the board");
    assert_eq!(health.ticks(), 80);
    assert_eq!(health.robots().len(), ROBOTS);
    assert_eq!(health.robots()[FAULTED].missed_deadlines, 4);
    assert_eq!(health.robots()[FAULTED].missing, 4);
    assert_eq!(health.missed_deadlines(), 4);
    assert!(health.alarmed() >= 1, "spoofed robots end the run alarmed");
    assert_eq!(health.capsules(), ROBOTS as u64);
    for (i, r) in health.robots().iter().enumerate() {
        let expected_fresh = if i == FAULTED { 80 - 4 } else { 80 };
        assert_eq!(r.fresh, expected_fresh, "robot {i}");
        assert_eq!(r.staleness, 0, "all robots end the run live");
    }

    // Both expositions render the same story.
    let json = health.to_json();
    assert!(json.contains("\"ticks\":80"), "{json}");
    assert!(json.contains("\"missed_deadlines\":4"), "{json}");
    let prom = health.to_prometheus();
    assert!(prom.contains("roboads_fleet_ticks 80"), "{prom}");
    assert!(
        prom.contains(&format!(
            "roboads_robot_missed_deadlines{{robot=\"{FAULTED}\"}} 4"
        )),
        "{prom}"
    );
    assert!(
        prom.contains(&format!("roboads_fleet_capsules {ROBOTS}")),
        "{prom}"
    );
}

#[test]
fn fleet_and_standalone_runs_record_identical_capsules() {
    // Robot 0 of a fleet replays the base scenario from the base seed —
    // its capsule must be byte-for-byte the standalone runner's, recorder
    // included (same stamps, same digests, same serialized form).
    let fleet = FleetSimulationBuilder::khepera()
        .scenario(Scenario::ips_spoofing())
        .robots(2)
        .phase(7)
        .seed(11)
        .duration(70)
        .recorder(full_run_recorder())
        .run()
        .unwrap();
    let solo = SimulationBuilder::khepera()
        .scenario(Scenario::ips_spoofing())
        .seed(11)
        .duration(70)
        .recorder(full_run_recorder())
        .run()
        .unwrap();
    let fleet_capsule = fleet
        .capsules
        .iter()
        .find(|c| c.robot == 0)
        .expect("robot 0 sealed a capsule");
    assert_eq!(solo.capsules.len(), 1);
    let solo_capsule = &solo.capsules[0];
    // Everything deterministic matches bitwise; only the telemetry
    // histogram enrichment differs (the standalone runner times its own
    // steps, the bare fleet run has no telemetry attached).
    assert_eq!(fleet_capsule.kind, solo_capsule.kind);
    assert_eq!(fleet_capsule.trigger_seq, solo_capsule.trigger_seq);
    assert_eq!(fleet_capsule.trigger_stamp, solo_capsule.trigger_stamp);
    assert_eq!(fleet_capsule.incident, solo_capsule.incident);
    assert_eq!(fleet_capsule.records, solo_capsule.records);
}
