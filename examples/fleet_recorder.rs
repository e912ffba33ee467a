//! Fleet flight-data recorder walkthrough: run a 64-robot fleet through
//! the IPS-spoofing mission behind the async ingest monitor, inject a
//! monitor-side frame fault on one robot, then
//!
//! 1. dump every sealed incident capsule as self-contained JSONL,
//! 2. replay each capsule through a freshly constructed detector and
//!    verify the reproduction is **bitwise**,
//! 3. print the live fleet health board — once as JSON, once as
//!    Prometheus-style text.
//!
//! ```text
//! cargo run --release --example fleet_recorder
//! ```

use roboads::core::{
    replay_capsule, DeadlinePolicy, IncidentCapsule, RecorderConfig, RoboAdsConfig,
};
use roboads::sim::{evaluation_detector, FleetSimulationBuilder, FrameFault, RobotKind, Scenario};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const ROBOTS: usize = 64;
    const FAULTED: usize = 3;
    const DURATION: usize = 80;

    // A ring reaching back to detector birth keeps every capsule
    // replayable; pre covers the whole run, post captures the aftermath.
    let recorder = RecorderConfig {
        capacity: 512,
        pre: 512,
        post: 8,
        dt: 0.1,
    };

    println!("running {ROBOTS} robots for {DURATION} ticks (IPS spoofing, frame fault on robot {FAULTED})...");
    let outcome = FleetSimulationBuilder::khepera()
        .scenario(Scenario::ips_spoofing())
        .robots(ROBOTS)
        .seed(7)
        .threads(4)
        .duration(DURATION)
        .ingest(DeadlinePolicy::MarkMissing)
        .frame_fault(FAULTED, 20..24, FrameFault::Drop)
        .recorder(recorder)
        .health(true)
        .run()?;

    // --- 1. Dump the capsules. ---
    let dir = std::env::temp_dir().join("roboads_capsules");
    std::fs::create_dir_all(&dir)?;
    println!(
        "\nsealed {} incident capsules -> {}",
        outcome.capsules.len(),
        dir.display()
    );
    for capsule in &outcome.capsules {
        let path = dir.join(format!(
            "robot{:02}_seq{:04}.jsonl",
            capsule.robot, capsule.trigger_seq
        ));
        std::fs::write(&path, capsule.to_jsonl())?;
    }
    for capsule in outcome.capsules.iter().take(4) {
        let label = capsule
            .incident
            .as_ref()
            .map(|i| i.label.clone())
            .unwrap_or_else(|| "?".into());
        println!(
            "  robot {:2}  {:?}  trigger seq {:3} (stamp {:3})  {} ticks  condition {}",
            capsule.robot,
            capsule.kind,
            capsule.trigger_seq,
            capsule.trigger_stamp,
            capsule.records.len(),
            label,
        );
    }
    if outcome.capsules.len() > 4 {
        println!("  ... and {} more", outcome.capsules.len() - 4);
    }

    // --- 2. Replay every capsule bitwise from its serialized form. ---
    let config = RoboAdsConfig::paper_defaults();
    let mut replayed = 0usize;
    for capsule in &outcome.capsules {
        let path = dir.join(format!(
            "robot{:02}_seq{:04}.jsonl",
            capsule.robot, capsule.trigger_seq
        ));
        let parsed = IncidentCapsule::from_jsonl(&std::fs::read_to_string(&path)?)?;
        let mut twin = evaluation_detector(RobotKind::Khepera, &config)?;
        let replay = replay_capsule(&parsed, &mut twin)?;
        assert!(
            replay.is_bitwise(),
            "robot {}: replay diverged at seqs {:?}",
            capsule.robot,
            replay.mismatched_seqs
        );
        replayed += replay.ticks;
    }
    println!(
        "\nreplayed {} capsules ({replayed} ticks) through fresh detectors: all bitwise-identical",
        outcome.capsules.len()
    );

    // --- 3. The live health board. ---
    let health = outcome.health.as_ref().expect("health(true)");
    println!(
        "\nfleet health after tick {}: {} robots, {} alarmed, {} missed deadlines, {} capsules",
        health.ticks(),
        health.robots().len(),
        health.alarmed(),
        health.missed_deadlines(),
        health.capsules(),
    );
    let faulted = &health.robots()[FAULTED];
    println!(
        "robot {FAULTED}: {} missed deadlines, {} fresh / {} held / {} missing ticks",
        faulted.missed_deadlines, faulted.fresh, faulted.held, faulted.missing
    );

    let json = health.to_json();
    println!("\nhealth board JSON ({} bytes), first 200:", json.len());
    println!("  {}...", &json[..200.min(json.len())]);

    let prom = health.to_prometheus();
    println!(
        "\nPrometheus exposition ({} lines), fleet series:",
        prom.lines().count()
    );
    for line in prom.lines().filter(|l| l.starts_with("roboads_fleet_")) {
        println!("  {line}");
    }
    Ok(())
}
