//! Detection-probability campaign bench: the `eval_attack_prob`-style
//! sweep over the bus-attack taxonomy (`roboads_sim::attacks`).
//!
//! The grid is attack kind × base scenario × magnitude, N seeded
//! trials per cell (trial seeds are pure hashes of
//! the cell coordinates — results are bit-for-bit reproducible and
//! independent of the worker-thread schedule). Each attacked cell
//! reports detection probability and mean time-to-detection; each
//! scenario additionally runs a clean baseline cell whose
//! false-positive rates bound the detections' worth.
//!
//! Results go to `BENCH_detect.json` at the workspace root. Set
//! `ROBOADS_BENCH_FAST=1` for the reduced CI grid, and
//! `ROBOADS_DETECT_GATE=1` to enforce the regression gates: a detection
//! floor at Table II magnitudes and a false-positive ceiling on the
//! clean baselines.
//!
//! Run with: `cargo bench -p roboads-bench --bench detect`

use roboads_bench::{parallel_map, sweep_threads};
use roboads_core::obs::json::{array_of, JsonObject};
use roboads_sim::{Campaign, CampaignPoint};

/// Detection-probability floor enforced over every attacked cell with
/// `magnitude ≥ GATE_MAGNITUDE` (Table II scale: 6000 speed units =
/// 0.04 m/s on the command channels, 0.07–0.1 m on the IPS).
const DETECTION_FLOOR: f64 = 0.9;
const GATE_MAGNITUDE: f64 = 0.04;
/// Ceiling on the per-run false-positive rate (sensor or actuator) of
/// the clean-scenario baseline cells. Burst-scenario baselines are
/// reported but not gated: their trailing recovery lag after the
/// scripted misbehavior window counts as false positives against the
/// ground truth even for a healthy detector.
const FP_CEILING: f64 = 0.05;

fn fast_mode() -> bool {
    std::env::var_os("ROBOADS_BENCH_FAST").is_some_and(|v| v != "0")
}

fn gate_mode() -> bool {
    std::env::var_os("ROBOADS_DETECT_GATE").is_some_and(|v| v != "0")
}

fn point_json(p: &CampaignPoint) -> String {
    let mut row = JsonObject::new();
    row.field_str("attack", &p.attack);
    row.field_str("scenario", &p.scenario);
    row.field_f64("magnitude", p.magnitude);
    row.field_u64("onset", p.onset as u64);
    match p.duration {
        Some(d) => row.field_u64("duration", d as u64),
        None => row.field_raw("duration", "null"),
    }
    row.field_u64("trials", p.detection.trials);
    row.field_u64("detections", p.detection.detections);
    row.field_f64("detection_probability", p.detection.probability());
    match p.detection.mean_delay() {
        Some(d) => row.field_f64("mean_delay_s", d),
        None => row.field_raw("mean_delay_s", "null"),
    }
    row.field_f64("sensor_fpr", p.sensor_fpr);
    row.field_f64("actuator_fpr", p.actuator_fpr);
    row.finish()
}

fn main() {
    let fast = fast_mode();
    let campaign = if fast {
        Campaign::khepera().magnitudes(vec![0.04, 0.1]).trials(2)
    } else {
        Campaign::khepera().trials(5)
    };
    let cells = campaign.cells();
    println!(
        "attack campaign: {} cells ({} baselines){}",
        cells.len(),
        cells.iter().filter(|c| c.attack.is_none()).count(),
        if fast { "  [fast mode]" } else { "" }
    );

    // Cells are self-contained and seed-deterministic: farm them out.
    let points: Vec<CampaignPoint> = parallel_map(cells, sweep_threads(), |cell| {
        cell.run().expect("campaign trial failed")
    });
    let outcome = roboads_sim::CampaignOutcome {
        points: points.clone(),
    };

    println!(
        "\n{:<22} {:<24} {:>6} {:>8} {:>10}",
        "attack", "scenario", "mag", "P(det)", "delay"
    );
    for p in &points {
        println!(
            "{:<22} {:<24} {:>6.2} {:>8.2} {:>10}",
            p.attack,
            p.scenario,
            p.magnitude,
            p.detection.probability(),
            p.detection
                .mean_delay()
                .map_or("-".to_string(), |d| format!("{:.2} s", d)),
        );
    }

    let floor = outcome.detection_floor(GATE_MAGNITUDE);
    let ceiling = outcome.false_positive_ceiling();
    let clean_ceiling = outcome.scenario_false_positive_ceiling("clean");
    println!(
        "\ndetection floor (mag >= {GATE_MAGNITUDE}): {}",
        floor.map_or("-".into(), |f| format!("{f:.3}"))
    );
    println!(
        "false-positive ceiling: {} (clean scenario: {})",
        ceiling.map_or("-".into(), |c| format!("{c:.4}")),
        clean_ceiling.map_or("-".into(), |c| format!("{c:.4}"))
    );

    let mut o = JsonObject::new();
    o.field_str("bench", "detect");
    o.field_bool("fast_mode", fast);
    o.field_f64("gate_detection_floor", DETECTION_FLOOR);
    o.field_f64("gate_magnitude", GATE_MAGNITUDE);
    o.field_f64("gate_fp_ceiling", FP_CEILING);
    match floor {
        Some(f) => o.field_f64("detection_floor", f),
        None => o.field_raw("detection_floor", "null"),
    }
    match ceiling {
        Some(c) => o.field_f64("false_positive_ceiling", c),
        None => o.field_raw("false_positive_ceiling", "null"),
    }
    match clean_ceiling {
        Some(c) => o.field_f64("clean_false_positive_ceiling", c),
        None => o.field_raw("clean_false_positive_ceiling", "null"),
    }
    o.field_raw("points", &array_of(points.iter().map(point_json)));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detect.json");
    match std::fs::write(path, o.finish() + "\n") {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }

    if gate_mode() {
        let floor = floor.expect("gate mode needs attacked cells");
        let ceiling = clean_ceiling.expect("gate mode needs a clean baseline cell");
        assert!(
            floor >= DETECTION_FLOOR,
            "detection floor regression: {floor:.3} < {DETECTION_FLOOR} \
             at magnitude >= {GATE_MAGNITUDE}"
        );
        assert!(
            ceiling <= FP_CEILING,
            "clean false-positive ceiling regression: {ceiling:.4} > {FP_CEILING}"
        );
        println!("detect gates passed: floor {floor:.3} >= {DETECTION_FLOOR}, clean ceiling {ceiling:.4} <= {FP_CEILING}");
    }
}
