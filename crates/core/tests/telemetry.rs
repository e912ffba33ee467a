//! Smoke test for the instrumented hot path: a clean 30-iteration
//! Khepera run must emit the expected span and counter set, and a
//! spoofed run must add the alarm events — so a refactor cannot
//! silently drop instrumentation from the pipeline.

use std::collections::BTreeSet;
use std::sync::Arc;

use roboads_core::obs::{RingBufferSink, Telemetry, WriterSink};
use roboads_core::{FleetEngine, ModeSet, RoboAds, RoboAdsConfig, RobotInput};
use roboads_linalg::Vector;
use roboads_models::{presets, RobotSystem};

fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
    (0..system.sensor_count())
        .map(|i| system.sensor(i).unwrap().measure(x))
        .collect()
}

const ITERATIONS: usize = 30;

fn run_clean(telemetry: Telemetry) -> RoboAds {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut ads = RoboAds::new(
        system.clone(),
        RoboAdsConfig::paper_defaults(),
        x0.clone(),
        ModeSet::one_reference_per_sensor(&system),
    )
    .unwrap()
    .with_telemetry(telemetry);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut x_true = x0;
    for _ in 0..ITERATIONS {
        x_true = system.dynamics().step(&x_true, &u);
        ads.step(&u, &clean_readings(&system, &x_true)).unwrap();
    }
    ads
}

#[test]
fn clean_run_emits_the_expected_span_and_counter_set() {
    let ring = Arc::new(RingBufferSink::new(100_000));
    let telemetry = Telemetry::new(ring.clone());
    let ads = run_clean(telemetry.clone());

    // Every pipeline stage shows up as a span, with per-step counts.
    let spans = ring.spans();
    let names: BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for expected in [
        "engine.step",
        "engine.nuise_mode",
        "engine.parsimony",
        "engine.select",
        "engine.reanchor",
        "decision.assess",
    ] {
        assert!(
            names.contains(expected),
            "missing span {expected}: {names:?}"
        );
    }
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("engine.step"), ITERATIONS);
    assert_eq!(count("decision.assess"), ITERATIONS);
    assert_eq!(count("engine.nuise_mode"), ITERATIONS * 3, "one per mode");
    // Stage spans nest inside their engine.step wall-clock-wise.
    let step_total: u64 = spans
        .iter()
        .filter(|s| s.name == "engine.step")
        .map(|s| s.duration_ns)
        .sum();
    let nuise_total: u64 = spans
        .iter()
        .filter(|s| s.name == "engine.nuise_mode")
        .map(|s| s.duration_ns)
        .sum();
    assert!(nuise_total <= step_total, "stage spans exceed their parent");

    // Counters and per-mode histograms land in the shared registry.
    let metrics = telemetry.metrics();
    assert_eq!(
        metrics.counter_value("engine.steps"),
        Some(ITERATIONS as u64)
    );
    assert_eq!(metrics.counter_value("engine.numeric_failures"), Some(0));
    assert_eq!(metrics.counter_value("decision.sensor_alarms"), Some(0));
    assert_eq!(metrics.counter_value("decision.actuator_alarms"), Some(0));
    // Per-mode distribution histograms are sampled 1-in-16 commits
    // (first sample on the first commit) — recording them per step was
    // the dominant term of the live-sink telemetry overhead. 30
    // iterations sample commits 1 and 17.
    let hist_samples = 1 + (ITERATIONS as u64 - 1) / 16;
    for m in 0..3 {
        let p = metrics
            .histogram_summary(&format!("engine.mode{m}.probability"))
            .unwrap();
        assert_eq!(p.count, hist_samples);
        assert!(p.nonfinite == 0, "mode probabilities must stay finite");
        let c = metrics
            .histogram_summary(&format!("engine.mode{m}.consistency"))
            .unwrap();
        assert_eq!(c.count, hist_samples);
        assert!(c.p50 > 1e-4, "clean run must stay innovation-consistent");
    }
    assert_eq!(ads.iteration(), ITERATIONS as u64);
    assert!(!ads.telemetry().metrics().snapshot().to_json().is_empty());
}

#[test]
fn spoofed_run_logs_confirmed_alarm_events() {
    let ring = Arc::new(RingBufferSink::new(100_000));
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let mut ads = RoboAds::with_defaults(system.clone(), x0.clone())
        .unwrap()
        .with_telemetry(Telemetry::new(ring.clone()));
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut x_true = x0;
    for _ in 0..12 {
        x_true = system.dynamics().step(&x_true, &u);
        let mut readings = clean_readings(&system, &x_true);
        readings[0][0] += 0.07;
        ads.step(&u, &readings).unwrap();
    }
    let confirmed: Vec<_> = ring
        .events()
        .into_iter()
        .filter(|e| e.name == "decision.sensor_alarm_confirmed")
        .collect();
    assert_eq!(confirmed.len(), 1, "edge-triggered: one confirmation");
    assert!(
        confirmed[0]
            .fields
            .iter()
            .any(|(k, v)| *k == "sensors"
                && matches!(v, roboads_core::obs::Value::Text(s) if s == "0")),
        "event must name the identified sensor: {:?}",
        confirmed[0].fields
    );
    assert_eq!(
        ads.telemetry()
            .metrics()
            .counter_value("decision.sensor_alarms"),
        Some(1)
    );
}

#[test]
fn fleet_pool_spans_carry_worker_attribution() {
    let ring = Arc::new(RingBufferSink::new(100_000));
    let telemetry = Telemetry::new(ring.clone());
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let detector = || {
        RoboAds::new(
            system.clone(),
            RoboAdsConfig::paper_defaults(),
            x0.clone(),
            ModeSet::one_reference_per_sensor(&system),
        )
        .unwrap()
    };
    let mut fleet = FleetEngine::new((0..12).map(|_| detector()).collect(), 3);
    fleet.set_telemetry(telemetry.clone());
    // A standalone detector stepped on the calling thread alongside.
    let mut local = detector().with_telemetry(telemetry);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let mut x_true = x0.clone();
    for _ in 0..5 {
        x_true = system.dynamics().step(&x_true, &u);
        let readings = clean_readings(&system, &x_true);
        let inputs = vec![
            RobotInput {
                u_prev: &u,
                readings: &readings,
            };
            12
        ];
        fleet.step_batch(&inputs).unwrap();
        local.step(&u, &readings).unwrap();
    }
    let spans = ring.spans();
    let (pooled, caller): (Vec<_>, Vec<_>) = spans.iter().partition(|s| s.robot > 0);
    assert!(!pooled.is_empty(), "no spans recorded for fleet robots");
    for s in &pooled {
        assert!(
            (1..=3).contains(&s.worker),
            "fleet span {} attributed to worker {}",
            s.name,
            s.worker
        );
    }
    // The calling thread keeps the default worker 0.
    assert!(caller.iter().any(|s| s.name == "engine.step"));
    for s in &caller {
        assert_eq!(s.worker, 0, "caller span {}", s.name);
    }
}

#[test]
fn disabled_telemetry_still_collects_metrics_but_no_records() {
    let telemetry = Telemetry::disabled();
    run_clean(telemetry.clone());
    assert_eq!(
        telemetry.metrics().counter_value("engine.steps"),
        Some(ITERATIONS as u64)
    );
}

#[test]
fn writer_sink_produces_parseable_jsonl() {
    // Shared-buffer writer so we can inspect after the run.
    #[derive(Clone, Default)]
    struct Shared(Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let buf = Shared::default();
    run_clean(Telemetry::new(Arc::new(WriterSink::new(buf.clone()))));
    let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(!out.is_empty());
    for line in out.lines() {
        assert!(
            line.starts_with("{\"type\":\"") && line.ends_with('}'),
            "not a JSONL record: {line}"
        );
    }
}
