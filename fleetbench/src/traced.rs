//! The traced run behind `--trace 1`: the per-layer split of a tick.
//!
//! Spans are recorded by the benchmark around each public call into a
//! layer, never inside the program. Two drivers make the calls one at a
//! time:
//!
//! * the **service pass** makes `pump`'s calls — `FrameDecoder::feed` +
//!   `next_frame`, `to_stamped` + `ShardedFleet::offer_frame` + freeing
//!   the frame, `ShardedFleet::step`, and `snapshot_shard` at the ticks
//!   where the periodic snapshot fires — and `recover_shard` at each
//!   crash;
//! * the **engine pass** splits `ShardedFleet::step` by making
//!   `FleetIngest::step`'s calls: `offer_stamped`/`offer_input_stamped`,
//!   `swap` + `set_tick_stamp` + gathering the inputs, and
//!   `FleetEngine::step_batch_masked`.
//!
//! Every layer span of a tick shares the tick's id and has the tick span
//! as parent. Each span reads the clock right before and right after its
//! call (a decoded frame and the call that consumes it share the read
//! between them), and the tick span reads it on its own after the last
//! child, so the driver's bookkeeping and clock reads between the calls
//! are tick time no layer covers; the reconciliation check bounds that
//! share.
//! Both passes are checked against the oracle tick by tick, outside the
//! tick spans.

use std::time::Instant;

use roboads::core::{FleetEngine, FleetIngest, RoboAds, RobotInput};
use roboads::wire::{FrameDecoder, WireError, WireFrame, WIRE_VERSION};

use crate::clock::{stamp, StampScale};
use crate::gen::Stream;
use crate::oracle::{self, Mismatch};
use crate::service::{segments, Bench, TemplateSet};
use crate::stats::{median, percentile, Metric};

/// Bytes per `read` in `pump`.
const PUMP_CHUNK: usize = 8192;
/// Layer self times must cover the tick spans to within this share.
const RECONCILE_LIMIT_PCT: f64 = 10.0;
/// Robots whose templates time the scalar `RoboAds::step`.
const SCALAR_ROBOTS: usize = 16;
/// Shares of `--seconds` given to the untraced, service and engine
/// phases.
const PHASES: [f64; 3] = [0.4, 0.35, 0.25];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// Parent of a service-pass tick.
    Tick,
    WireDecode,
    ShardOffer,
    ShardReject,
    ShardStep,
    SnapshotWrite,
    Recover,
    /// Parent of an engine-pass tick.
    EngineTick,
    IngestOffer,
    IngestSwap,
    FleetStepBatch,
}

const LAYERS: usize = 11;

/// Start and end are [`stamp`]s.
#[derive(Debug, Clone, Copy)]
struct Span {
    tick: u32,
    layer: Layer,
    start: u64,
    end: u64,
}

/// Spans of the current tick, in memory; folded into per-layer totals
/// when the tick ends.
struct SpanLog {
    scale: StampScale,
    spans: Vec<Span>,
    /// Per layer: total stamps and span count over folded ticks.
    totals: [(u64, u64); LAYERS],
    /// Sum over parent tick spans of their duration minus their
    /// children's durations, in stamps.
    uncovered: u64,
    /// Child spans whose tick id differs from their parent's.
    orphans: u64,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            scale: StampScale::start(),
            spans: Vec::with_capacity(1 << 16),
            totals: [(0, 0); LAYERS],
            uncovered: 0,
            orphans: 0,
        }
    }

    fn now(&self) -> u64 {
        stamp()
    }

    fn record(&mut self, tick: usize, layer: Layer, start: u64, end: u64) {
        self.spans.push(Span {
            tick: tick as u32,
            layer,
            start,
            end,
        });
    }

    /// Folds the recorded spans into the totals. A tick's children are
    /// recorded before the tick span that parents them.
    fn fold(&mut self) {
        let mut open: Option<u32> = None;
        let mut children = 0u64;
        for span in self.spans.drain(..) {
            let duration = span.end - span.start;
            let total = &mut self.totals[span.layer as usize];
            total.0 += duration;
            total.1 += 1;
            match span.layer {
                Layer::Recover => {}
                Layer::Tick | Layer::EngineTick => {
                    if open.is_some_and(|tick| tick != span.tick) {
                        self.orphans += 1;
                    }
                    self.uncovered += duration.abs_diff(children);
                    open = None;
                    children = 0;
                }
                _ => {
                    if open.is_some_and(|tick| tick != span.tick) {
                        self.orphans += 1;
                    }
                    open = Some(span.tick);
                    children += duration;
                }
            }
        }
        self.orphans += u64::from(open.is_some());
    }

    /// Share of the tick spans' time that no child span covers, percent.
    fn reconcile_pct(&self) -> f64 {
        let ticks = self.totals[Layer::Tick as usize].0 + self.totals[Layer::EngineTick as usize].0;
        100.0 * self.uncovered as f64 / ticks as f64
    }

    /// Layer self times cover the tick spans to within
    /// [`RECONCILE_LIMIT_PCT`], and every child has its tick as parent.
    fn reconciled(&self) -> bool {
        self.reconcile_pct() <= RECONCILE_LIMIT_PCT && self.orphans == 0
    }

    /// Total nanoseconds of `layer`'s spans, at `ns_per_stamp`.
    fn ns(&self, layer: Layer, ns_per_stamp: f64) -> f64 {
        self.totals[layer as usize].0 as f64 * ns_per_stamp
    }

    fn count(&self, layer: Layer) -> f64 {
        self.totals[layer as usize].1 as f64
    }
}

/// Counts at the layer boundaries of the service passes.
#[derive(Debug, Default)]
struct ServiceCounts {
    ticks: u64,
    frames: u64,
    accepted: u64,
    rejected: u64,
    expected_rejected: u64,
    step_errors: u64,
    snapshots: u64,
    snapshot_bytes: u64,
    journal_frames: u64,
    robot_ticks: u64,
    mismatch: Mismatch,
    /// Per-tick duration in stamps.
    tick_stamps: Vec<f64>,
}

/// Counts at the layer boundaries of the engine passes.
#[derive(Debug, Default)]
struct EngineCounts {
    ticks: u64,
    robot_steps: u64,
    offers_rejected: u64,
    step_errors: u64,
    slab_groups: u64,
    scalar_robots: u64,
    mismatch: Mismatch,
}

fn wire_err(e: WireError) -> String {
    format!("wire: {e}")
}

/// Mirrors `pump` over one pass, one call per span.
fn service_pass(
    bench: &Bench,
    set: &TemplateSet,
    stream: &Stream,
    log: &mut SpanLog,
    n: &mut ServiceCounts,
) -> Result<(), String> {
    let period = bench.workload.snapshot_period;
    // Snapshots are taken explicitly below, at the ticks where the
    // periodic snapshot of `ShardedFleet::step` would fire, so that
    // they get spans of their own.
    let (mut fleet, _) = bench.build_fleet(0)?;
    let ids = &bench.ids;
    for segment in segments(&bench.workload, bench.ticks()) {
        let mut decoder = FrameDecoder::new();
        decoder.feed(&stream.hello).map_err(wire_err)?;
        match decoder.next_frame().map_err(wire_err)? {
            Some(WireFrame::Hello { version }) if version == WIRE_VERSION => {}
            other => return Err(format!("stream opened with {other:?}")),
        }
        for k in segment.ticks.clone() {
            let tick_start = log.now();
            for chunk in stream.ticks[k].chunks(PUMP_CHUNK) {
                let t = log.now();
                decoder.feed(chunk).map_err(wire_err)?;
                let t1 = log.now();
                log.record(k, Layer::WireDecode, t, t1);
                loop {
                    // The decode span's end read is the start read of the
                    // call that consumes the frame; both spans are pushed
                    // after that call, so the bookkeeping falls between
                    // frames, outside every child span.
                    let t = log.now();
                    let frame = decoder.next_frame().map_err(wire_err)?;
                    let t1 = log.now();
                    match frame {
                        None => {
                            log.record(k, Layer::WireDecode, t, t1);
                            break;
                        }
                        Some(WireFrame::TickEnd { .. }) => {
                            let stepped = fleet.step();
                            let t2 = log.now();
                            log.record(k, Layer::WireDecode, t, t1);
                            log.record(k, Layer::ShardStep, t1, t2);
                            if stepped.is_err() {
                                n.step_errors += 1;
                            }
                            if period > 0 && fleet.tick().is_multiple_of(period) {
                                let t = log.now();
                                let bytes = fleet.snapshot_shard(0);
                                let t1 = log.now();
                                log.record(k, Layer::SnapshotWrite, t, t1);
                                n.snapshot_bytes += bytes as u64;
                                n.snapshots += 1;
                            }
                        }
                        Some(WireFrame::Hello { .. } | WireFrame::Bye) => {
                            return Err(format!("control frame inside tick {k}"));
                        }
                        Some(data) => {
                            let stamped = data.to_stamped().expect("reading/input is a data frame");
                            let accepted = matches!(fleet.offer_frame(&stamped), Ok(true));
                            // Freeing both copies of the values ends
                            // the frame's trip through `pump` too.
                            drop(stamped);
                            drop(data);
                            let t2 = log.now();
                            let layer = if accepted {
                                Layer::ShardOffer
                            } else {
                                Layer::ShardReject
                            };
                            log.record(k, Layer::WireDecode, t, t1);
                            log.record(k, layer, t1, t2);
                            n.frames += 1;
                            if accepted {
                                n.accepted += 1;
                            } else {
                                n.rejected += 1;
                            }
                        }
                    }
                }
            }
            let tick_end = log.now();
            log.record(k, Layer::Tick, tick_start, tick_end);
            log.fold();
            n.tick_stamps.push((tick_end - tick_start) as f64);
            n.ticks += 1;
            n.robot_ticks += ids.len() as u64;
            n.mismatch.add(oracle::check_reports(
                |i| {
                    (
                        fleet.report(ids[i]),
                        matches!(fleet.result(ids[i]), Some(Ok(()))),
                    )
                },
                &bench.workload,
                &set.oracle,
                k,
            ));
        }
        if segment.crashes > 0 && segment.ticks.end == bench.ticks() {
            n.mismatch.add(oracle::check_end_state(
                oracle::fleet_detector(&fleet, ids),
                &bench.workload,
                &set.oracle,
            ));
        }
        for _ in 0..segment.crashes {
            n.journal_frames += fleet.status()[0].journal_frames as u64;
            let t = log.now();
            fleet
                .recover_shard(0)
                .map_err(|e| format!("recovering the shard: {e}"))?;
            let t1 = log.now();
            log.record(segment.ticks.end, Layer::Recover, t, t1);
            log.fold();
        }
    }
    n.expected_rejected += stream.forged();
    n.mismatch.add(oracle::check_end_state(
        oracle::fleet_detector(&fleet, ids),
        &bench.workload,
        &set.oracle,
    ));
    Ok(())
}

/// Splits `ShardedFleet::step` into `FleetIngest::step`'s calls, fed the
/// genuine frames of every tick.
fn engine_pass(
    bench: &Bench,
    set: &TemplateSet,
    log: &mut SpanLog,
    n: &mut EngineCounts,
) -> Result<(), String> {
    let robots = bench.workload.robots;
    let detectors: Vec<RoboAds> = bench
        .ids
        .iter()
        .map(|&id| (bench.factory)(id))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("building the engine: {e}"))?;
    let mut engine = FleetEngine::new(detectors, 1);
    let mut ingest = FleetIngest::for_fleet(&engine);
    for k in 0..bench.ticks() {
        let stamp = k as u64;
        let tick_start = log.now();
        for i in 0..robots {
            let record = &set.traces[bench.workload.template_of(i)].records()[k];
            let t = log.now();
            let accepted = ingest.offer_input_stamped(i, &record.planned_command, stamp);
            let t1 = log.now();
            log.record(k, Layer::IngestOffer, t, t1);
            n.offers_rejected += u64::from(!matches!(accepted, Ok(true)));
            for (sensor, reading) in record.readings.iter().enumerate() {
                let t = log.now();
                let accepted = ingest.offer_stamped(i, sensor, reading, stamp);
                let t1 = log.now();
                log.record(k, Layer::IngestOffer, t, t1);
                n.offers_rejected += u64::from(!matches!(accepted, Ok(true)));
            }
        }
        let t = log.now();
        let summary = ingest.swap();
        engine.set_tick_stamp(summary.tick);
        let inputs: Vec<Option<RobotInput<'_>>> = (0..robots).map(|r| ingest.input(r)).collect();
        let t1 = log.now();
        log.record(k, Layer::IngestSwap, t, t1);
        let t = log.now();
        let stepped = engine.step_batch_masked(&inputs);
        let t1 = log.now();
        log.record(k, Layer::FleetStepBatch, t, t1);
        let tick_end = log.now();
        log.record(k, Layer::EngineTick, tick_start, tick_end);
        log.fold();
        drop(inputs);
        n.step_errors += u64::from(stepped.is_err());
        n.ticks += 1;
        n.robot_steps += robots as u64;
        n.slab_groups += engine.slab_groups() as u64;
        n.scalar_robots += engine.scalar_robots() as u64;
        n.mismatch.add(oracle::check_reports(
            |i| (Some(engine.report(i)), engine.result(i).is_ok()),
            &bench.workload,
            &set.oracle,
            k,
        ));
    }
    n.mismatch.add(oracle::check_end_state(
        |i| Some((engine.detector(i), engine.result(i).is_ok())),
        &bench.workload,
        &set.oracle,
    ));
    Ok(())
}

/// Wall time of one scalar `RoboAds::step`, microseconds: the oracle's
/// replay of the first robots' templates.
fn scalar_step_us(bench: &Bench) -> Result<f64, String> {
    let set = &bench.sets[0];
    let started = Instant::now();
    let mut steps = 0;
    for i in 0..SCALAR_ROBOTS.min(bench.workload.robots) {
        let trace = &set.traces[bench.workload.template_of(i)];
        std::hint::black_box(oracle::replay(&bench.template, trace)?);
        steps += trace.len();
    }
    Ok(started.elapsed().as_secs_f64() * 1e6 / steps as f64)
}

/// The traced run's result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn per(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

pub fn run(bench: &Bench, seconds: f64) -> Result<Report, String> {
    let untraced = bench.timed(seconds * PHASES[0], 1)?;
    // The traced passes replay set 0, whose per-tick reports the oracle
    // keeps.
    let set = &bench.sets[0];
    let stream = bench.stream(set);

    let mut log = SpanLog::new();
    let mut service = ServiceCounts::default();
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds * PHASES[1] {
        service_pass(bench, set, &stream, &mut log, &mut service)?;
        passes += 1;
    }
    let mut engine = EngineCounts::default();
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < seconds * PHASES[2] {
        engine_pass(bench, set, &mut log, &mut engine)?;
        passes += 1;
    }
    let scalar_us = scalar_step_us(bench)?;

    let ns_per_stamp = log.scale.ns_per_stamp();
    let ns = |layer| log.ns(layer, ns_per_stamp);
    let reconcile_pct = log.reconcile_pct();
    let tick_ns = ns(Layer::Tick);
    let frame_path_pct =
        100.0 * (ns(Layer::WireDecode) + ns(Layer::ShardOffer) + ns(Layer::ShardReject)) / tick_ns;
    let engine_pct = 100.0 * ns(Layer::ShardStep) / tick_ns;
    let robot_step_us = per(ns(Layer::FleetStepBatch), engine.robot_steps as f64) / 1e3;

    let mut untraced_ms = untraced.tick_ms.clone();
    let untraced_p50 = median(&mut untraced_ms);
    let traced_p50 = median(&mut service.tick_stamps.clone()) * ns_per_stamp / 1e6;

    let service_ticks = service.ticks as f64;
    let engine_ticks = engine.ticks as f64;
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric(
            "wire.decode_ns_per_frame",
            per(
                ns(Layer::WireDecode),
                (service.frames + service.ticks) as f64,
            ),
            "ns",
        ),
        metric(
            "wire.frames_per_tick",
            per(service.frames as f64, service_ticks),
            "count",
        ),
        metric(
            "shard.offer_ns_per_frame",
            per(ns(Layer::ShardOffer), log.count(Layer::ShardOffer)),
            "ns",
        ),
        metric(
            "shard.reject_ns_per_frame",
            per(ns(Layer::ShardReject), log.count(Layer::ShardReject)),
            "ns",
        ),
        metric(
            "shard.accept_ratio",
            per(service.accepted as f64, service.frames as f64),
            "ratio",
        ),
        metric(
            "shard.step_ms",
            per(ns(Layer::ShardStep), service_ticks) / 1e6,
            "ms",
        ),
        metric(
            "ingest.swap_us",
            per(ns(Layer::IngestSwap), engine_ticks) / 1e3,
            "us",
        ),
        metric(
            "fleet.step_batch_ms",
            per(ns(Layer::FleetStepBatch), engine_ticks) / 1e6,
            "ms",
        ),
        metric("fleet.robot_step_us", robot_step_us, "us"),
        metric(
            "fleet.slab_groups",
            per(engine.slab_groups as f64, engine_ticks),
            "count",
        ),
        metric(
            "fleet.scalar_robots",
            per(engine.scalar_robots as f64, engine_ticks),
            "count",
        ),
        metric("fleet.slab_speedup", per(scalar_us, robot_step_us), "x"),
        metric("engine.scalar_step_us", scalar_us, "us"),
        metric(
            "snapshot.write_ms",
            per(ns(Layer::SnapshotWrite), service.snapshots as f64) / 1e6,
            "ms",
        ),
        metric(
            "snapshot.bytes",
            per(service.snapshot_bytes as f64, service.snapshots as f64),
            "bytes",
        ),
        metric(
            "recover.journal_frames",
            per(service.journal_frames as f64, log.count(Layer::Recover)),
            "count",
        ),
        metric(
            "recover.ns_per_journal_frame",
            per(ns(Layer::Recover), service.journal_frames as f64),
            "ns",
        ),
        metric(
            "loadgen.encode_ns_per_frame",
            stream.encode_ns_per_frame,
            "ns",
        ),
        metric("host.reference_us", untraced.reference_us(), "us"),
        metric("tick.p90_ms", percentile(&mut untraced_ms, 90.0), "ms"),
        metric("tick.p99_ms", percentile(&mut untraced_ms, 99.0), "ms"),
        metric("tick.samples", untraced_ms.len() as f64, "count"),
        metric(
            "trace.overhead_pct",
            100.0 * (traced_p50 / untraced_p50 - 1.0),
            "%",
        ),
        metric("trace.reconcile_pct", reconcile_pct, "%"),
        metric("share.engine_pct", engine_pct, "%"),
        metric("share.frame_path_pct", frame_path_pct, "%"),
    ];

    eprintln!(
        "fleetbench: traced {} service ticks, {} engine ticks; untraced tick p50 {:.4} ms, traced {:.4} ms",
        service.ticks, engine.ticks, untraced_p50, traced_p50
    );
    let layers = [
        ("wire.decode", Layer::WireDecode),
        ("shard.offer", Layer::ShardOffer),
        ("shard.reject", Layer::ShardReject),
        ("shard.step", Layer::ShardStep),
        ("snapshot.write", Layer::SnapshotWrite),
    ];
    let (dominant, dominant_ns) = layers
        .iter()
        .map(|&(name, l)| (name, ns(l)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("layers is not empty");
    for (name, layer) in layers {
        eprintln!(
            "  {:<16} {:>6.2}% of the tick, {:>10} spans",
            name,
            100.0 * ns(layer) / tick_ns,
            log.count(layer)
        );
    }
    eprintln!(
        "  dominant layer: {dominant} ({:.1}% of the tick); frame path {frame_path_pct:.1}%; reconcile {reconcile_pct:.2}%",
        100.0 * dominant_ns / tick_ns
    );
    for m in &metrics {
        eprintln!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }

    let reconciled = log.reconciled();
    if !reconciled {
        eprintln!(
            "fleetbench: layer self times miss {reconcile_pct:.2}% of the tick spans (limit {RECONCILE_LIMIT_PCT}%), {} orphan spans",
            log.orphans
        );
    }
    let robots = bench.workload.robots as u64;
    let failed_robots = |m: &Mismatch| m.robots + m.errors + m.disagreeing;
    let failed = untraced.failed_robot_ticks
        + failed_robots(&service.mismatch)
        + service.step_errors
        + failed_robots(&engine.mismatch)
        + engine.step_errors
        + engine.offers_rejected;
    let correct = untraced.correct()
        && reconciled
        && failed == 0
        && service.rejected == service.expected_rejected;
    Ok(Report {
        correct,
        attempted: untraced.attempted + service.robot_ticks + engine.ticks * robots,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Folds `(tick, layer, start_ns, end_ns)` spans, recorded in order.
    fn folded(spans: &[(usize, Layer, u64, u64)]) -> SpanLog {
        let mut log = SpanLog::new();
        for &(tick, layer, start, end) in spans {
            log.record(tick, layer, start, end);
        }
        log.fold();
        log
    }

    #[test]
    fn children_that_cover_the_tick_reconcile() {
        let log = folded(&[
            (0, Layer::WireDecode, 0, 30),
            (0, Layer::ShardOffer, 30, 60),
            (0, Layer::ShardStep, 60, 100),
            (0, Layer::Tick, 0, 100),
        ]);
        assert_eq!(log.uncovered, 0);
        assert!(log.reconciled());
    }

    #[test]
    fn a_gap_between_children_is_uncovered_tick_time() {
        // 20 of the tick's 100 ns fall between its children, where the
        // driver does its bookkeeping: above the 10% limit.
        let log = folded(&[
            (0, Layer::WireDecode, 0, 30),
            (0, Layer::ShardOffer, 40, 60),
            (0, Layer::ShardStep, 70, 100),
            (0, Layer::Tick, 0, 100),
        ]);
        assert_eq!(log.uncovered, 20);
        assert_eq!(log.reconcile_pct(), 20.0);
        assert!(!log.reconciled());
    }

    #[test]
    fn a_child_under_another_tick_is_an_orphan() {
        let log = folded(&[
            (0, Layer::IngestOffer, 0, 50),
            (1, Layer::FleetStepBatch, 50, 100),
            (1, Layer::EngineTick, 0, 100),
        ]);
        assert_eq!(log.uncovered, 0);
        assert_eq!(log.orphans, 1);
        assert!(!log.reconciled());
    }
}
