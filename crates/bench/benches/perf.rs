//! Performance benches: RoboADS must run inside the planner in real
//! time, i.e. one full detection iteration well under the 100 ms
//! control period — and the paper notes the mode count grows linearly
//! with the sensor count for the default mode set versus exponentially
//! for the complete set (§VI).
//!
//! Timing is a plain `std::time::Instant` harness (median of repeated
//! batches; no external crates so the tier-1 build resolves offline).
//! Besides the hot-path numbers this bench measures:
//!
//! * the *allocation-free* NUISE path (a warm single-mode
//!   [`MultiModeEngine::step_in_place`]: one pass of the engine's
//!   one-lane NUISE kernel plus parsimony and selection) against the
//!   allocating reference `nuise_step`,
//! * robot-grain fleet *throughput* at 1/2/4 pool workers (widths
//!   above the host's available parallelism are skipped; see
//!   `DESIGN.md`, threading model),
//! * the *telemetry overhead*: a detector step with the default
//!   disabled sink versus one streaming spans into a
//!   `RingBufferSink`, with an acceptance budget of 5 % on the
//!   disabled path relative to the seed's uninstrumented engine
//!   (approximated here by the disabled-vs-enabled split).
//!
//! Results are also written to `BENCH_perf.json` at the workspace root
//! so CI can archive them. Set `ROBOADS_BENCH_FAST=1` for a smoke run
//! with reduced batch counts (used by the CI perf smoke job).
//!
//! Run with: `cargo bench -p roboads-bench --bench perf`

use std::sync::Arc;
use std::time::Instant;

use roboads_core::obs::{json::JsonObject, RingBufferSink, Telemetry};
use roboads_core::{
    nuise_step, DetectionReport, FleetEngine, FleetIngest, Linearization, Mode, ModeSet,
    MultiModeEngine, NuiseInput, RecorderConfig, RoboAds, RoboAdsConfig, RobotFactory, RobotInput,
    ShardConfig, ShardedFleet,
};
use roboads_linalg::{Matrix, Vector};
use roboads_models::presets;
use roboads_sim::{Scenario, SimulationBuilder};

/// Median per-call time in seconds: `batches` batches of `per_batch`
/// calls each, timed per batch (amortizes the clock reads).
fn time_median<F: FnMut()>(batches: usize, per_batch: usize, mut f: F) -> f64 {
    // Warm-up batch.
    for _ in 0..per_batch {
        f();
    }
    let mut samples: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn report(name: &str, seconds: f64) {
    println!("{name:<44} {:>10.1} µs", seconds * 1e6);
}

fn fast_mode() -> bool {
    std::env::var_os("ROBOADS_BENCH_FAST").is_some_and(|v| v != "0")
}

fn clean_readings(system: &roboads_models::RobotSystem, x: &Vector) -> Vec<Vector> {
    (0..system.sensor_count())
        .map(|i| system.sensor(i).unwrap().measure(x))
        .collect()
}

/// Worker widths for the robot-grain sections: 1/2/4, minus any width
/// beyond the host's available parallelism. Timing a 4-worker pool on a
/// 1-core container measures pure oversubscription, which says nothing
/// about the code and doubles the bench's wall time, so such widths are
/// not run (and not reported) at all.
fn thread_grid() -> Vec<usize> {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    [1usize, 2, 4].into_iter().filter(|&t| t <= avail).collect()
}

/// Returns `(allocating µs, engine µs)` for a single NUISE step: the
/// allocating reference, and a warm single-mode engine step.
fn bench_nuise(fast: bool) -> (f64, f64) {
    let system = presets::khepera_system();
    let mode = Mode::new(vec![0], vec![1, 2]);
    let x = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let p = Matrix::identity(3) * 1e-4;
    let u = Vector::from_slice(&[0.06, 0.05]);
    let x1 = system.dynamics().step(&x, &u);
    let readings = clean_readings(&system, &x1);
    let lin = Linearization::PerIteration;
    let input = NuiseInput {
        system: &system,
        mode: &mode,
        x_prev: &x,
        p_prev: &p,
        u_prev: &u,
        readings: &readings,
        linearization: &lin,
        compensate: true,
    };
    let (batches, per_batch) = if fast { (5, 10) } else { (30, 50) };

    let alloc = time_median(batches, per_batch, || {
        nuise_step(input).unwrap();
    });
    report("nuise_step/khepera_single_mode", alloc);

    let mut engine = MultiModeEngine::new(
        system.clone(),
        ModeSet::from_reference_groups(&system, &[mode.reference().to_vec()]),
        x,
        &RoboAdsConfig::paper_defaults(),
    )
    .unwrap();
    let engine_step = time_median(batches, per_batch, || {
        engine.step_in_place(&u, &readings).unwrap();
    });
    report("engine_step_in_place/khepera_single_mode", engine_step);
    (alloc, engine_step)
}

/// Returns `(disabled µs, ring-sink µs, overhead %)`.
///
/// Each timing window covers 256 steps (32 in fast mode) — the same
/// robot-steps-per-window as the `fleet_throughput` samples. Short
/// windows can land between scheduler ticks while multi-millisecond
/// ones cannot, so unequal window lengths would bias any comparison
/// between this number and the fleet's per-robot cost.
///
/// The two legs run as *pairs* of adjacent windows, one of each, and the
/// overhead is the median of the per-pair ratios ring ÷ noop: the
/// overhead is a few percent, far below the minute-scale speed drift of
/// a shared host, so the drift must cancel within each pair rather than
/// across two whole-leg medians. The leg that runs first alternates
/// from pair to pair, so neither leg always inherits the other's cache
/// state, and the pair count (101, fast mode included) keeps the median
/// off single noisy windows. The µs figures are each leg's median
/// window.
fn bench_detector_and_overhead(fast: bool) -> (f64, f64, f64) {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let x1 = system.dynamics().step(&x0, &u);
    let readings = clean_readings(&system, &x1);
    let mut noop = RoboAds::with_defaults(system.clone(), x0.clone()).unwrap();
    let ring = Arc::new(RingBufferSink::new(4096));
    let mut live = RoboAds::with_defaults(system.clone(), x0).unwrap();
    live.set_telemetry(Telemetry::new(ring));
    let (pairs, per_batch) = if fast { (101, 32) } else { (101, 256) };
    // Warm-up batch for both detectors.
    for _ in 0..per_batch {
        noop.step(&u, &readings).unwrap();
        live.step(&u, &readings).unwrap();
    }
    let window = |detector: &mut RoboAds| {
        let start = Instant::now();
        for _ in 0..per_batch {
            detector.step(&u, &readings).unwrap();
        }
        start.elapsed().as_secs_f64() / per_batch as f64
    };
    let mut noop_samples = Vec::with_capacity(pairs);
    let mut live_samples = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let (off, on) = if pair % 2 == 0 {
            let off = window(&mut noop);
            (off, window(&mut live))
        } else {
            let on = window(&mut live);
            (window(&mut noop), on)
        };
        noop_samples.push(off);
        live_samples.push(on);
        ratios.push(on / off);
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        samples[samples.len() / 2]
    };
    let disabled = median(&mut noop_samples);
    let enabled = median(&mut live_samples);
    report("detector_step/default_modes_3 (noop sink)", disabled);
    report("detector_step/default_modes_3 (ring sink)", enabled);
    let overhead = (median(&mut ratios) - 1.0) * 100.0;
    println!(
        "{:<44} {:>9.2} %  (median of {pairs} paired windows; the default\n{:>60}",
        "telemetry overhead (ring vs noop)",
        overhead,
        "noop path itself must stay within 5 % of uninstrumented)"
    );
    (disabled, enabled, overhead)
}

/// One fleet-throughput sample.
struct FleetRow {
    robots: usize,
    threads: usize,
    seconds: f64,
}

/// One slab-vs-scalar sample at a fixed robot count, 1 thread.
struct SlabRow {
    robots: usize,
    /// `standalone` (the robots swept one by one through
    /// `RoboAds::step_into`, the scalar baseline) or `slab` (one
    /// 8-lane fleet group).
    leg: &'static str,
    seconds: f64,
    /// Per-robot-step speedup over the `standalone` row of the same
    /// run — the batching win of the SoA kernels alone.
    speedup_vs_scalar: f64,
}

/// One heterogeneous-fleet sample: a fleet *shape* (how robots are
/// spread across model-signature groups) at a fixed robot count,
/// 8 lanes, 1 thread.
struct SlabGroupRow {
    /// Fleet shape: `standalone`, `homogeneous`, `two_group` or
    /// `odd_one_out`.
    label: &'static str,
    robots: usize,
    /// Distinct model signatures in the fleet.
    groups: usize,
    seconds: f64,
    /// Per-robot-step speedup over the `standalone` leg of the same
    /// run.
    speedup_vs_scalar: f64,
}

/// One timed leg of the slab sections: a fleet, or the same robots as
/// standalone detectors swept one by one through
/// [`RoboAds::step_into`] — the scalar baseline a slab tile must beat.
enum Leg {
    Fleet(FleetEngine),
    Standalone(Vec<(RoboAds, DetectionReport)>),
}

impl Leg {
    fn standalone(robots: Vec<RoboAds>) -> Self {
        Leg::Standalone(
            robots
                .into_iter()
                .map(|ads| (ads, DetectionReport::blank()))
                .collect(),
        )
    }

    fn step(&mut self, inputs: &[RobotInput]) {
        match self {
            Leg::Fleet(fleet) => fleet.step_batch(inputs).unwrap(),
            Leg::Standalone(robots) => {
                for ((ads, report), input) in robots.iter_mut().zip(inputs) {
                    ads.step_into(input.u_prev, input.readings, report).unwrap();
                }
            }
        }
    }
}

/// Fleet throughput: N warm detectors stepped through one
/// `FleetEngine::step_batch` per tick, at robot grain. Returns
/// `(robots, threads, per-robot-step seconds)` rows. The unit of
/// parallel work is a whole detector step × `robots/threads`, so
/// dispatch amortizes to noise and the per-robot-step cost stays at the
/// standalone `detector_step` cost even at 1 thread.
fn bench_fleet_throughput(fast: bool) -> Vec<FleetRow> {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let x1 = system.dynamics().step(&x0, &u);
    let readings = clean_readings(&system, &x1);
    let robot_counts: &[usize] = if fast { &[1, 8, 64] } else { &[1, 8, 64, 256] };
    let mut rows: Vec<FleetRow> = Vec::new();
    for &robots in robot_counts {
        for threads in thread_grid() {
            let mut fleet = FleetEngine::new(
                (0..robots)
                    .map(|_| RoboAds::with_defaults(system.clone(), x0.clone()).unwrap())
                    .collect(),
                threads,
            );
            let inputs: Vec<RobotInput> = (0..robots)
                .map(|_| RobotInput {
                    u_prev: &u,
                    readings: &readings,
                })
                .collect();
            // Keep total robot-steps per sample roughly constant across
            // fleet sizes so large fleets don't blow up wall time.
            let per_batch = (if fast { 32 } else { 256 } / robots).max(1);
            let batches = if fast { 3 } else { 10 };
            let seconds = time_median(batches, per_batch, || {
                fleet.step_batch(&inputs).unwrap();
            }) / robots as f64;
            report(
                &format!("fleet_step/robots={robots} threads={threads}"),
                seconds,
            );
            rows.push(FleetRow {
                robots,
                threads,
                seconds,
            });
        }
    }
    for row in &rows {
        if row.threads == 1 && row.robots > 1 {
            println!(
                "{:<44} {:>9.0} robot-steps/s",
                format!("fleet throughput robots={} threads=1", row.robots),
                1.0 / row.seconds
            );
        }
    }
    rows
}

/// One async-ingestion overhead sample: the same fleet tick driven
/// directly (`step_batch`) and through the [`FleetIngest`] front-end
/// (per-frame offers + tick-boundary swap + masked step), back to back.
struct IngestRow {
    robots: usize,
    direct_seconds: f64,
    ingest_seconds: f64,
    /// Per-robot-step cost added by the front-end, percent.
    overhead_pct: f64,
}

/// Ingest throughput: what the double-buffered front-end costs on top
/// of a direct dense batch. Each tick pays `robots × (sensors + 1)`
/// buffer copies plus one pointer-swap pass; both legs run in the same
/// function back to back so host drift cancels out of the overhead
/// ratio.
fn bench_ingest_throughput(fast: bool) -> Vec<IngestRow> {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let x1 = system.dynamics().step(&x0, &u);
    let readings = clean_readings(&system, &x1);
    let robot_counts: &[usize] = if fast { &[64] } else { &[8, 64] };
    let mut rows = Vec::new();
    for &robots in robot_counts {
        let new_fleet = || {
            FleetEngine::new(
                (0..robots)
                    .map(|_| RoboAds::with_defaults(system.clone(), x0.clone()).unwrap())
                    .collect(),
                1,
            )
        };
        let per_batch = (if fast { 32 } else { 256 } / robots).max(1);
        let batches = if fast { 3 } else { 10 };

        let mut direct = new_fleet();
        let inputs: Vec<RobotInput> = (0..robots)
            .map(|_| RobotInput {
                u_prev: &u,
                readings: &readings,
            })
            .collect();
        let direct_seconds = time_median(batches, per_batch, || {
            direct.step_batch(&inputs).unwrap();
        }) / robots as f64;

        let mut fleet = new_fleet();
        let mut ingest = FleetIngest::for_fleet(&fleet);
        let ingest_seconds = time_median(batches, per_batch, || {
            for robot in 0..robots {
                ingest.offer_input(robot, &u).unwrap();
                for (s, reading) in readings.iter().enumerate() {
                    ingest.offer(robot, s, reading).unwrap();
                }
            }
            ingest.step(&mut fleet).unwrap();
        }) / robots as f64;

        let overhead_pct = (ingest_seconds / direct_seconds - 1.0) * 100.0;
        report(
            &format!("ingest_step/robots={robots} threads=1"),
            ingest_seconds,
        );
        println!(
            "{:<44} {:>9.2} %",
            format!("ingest overhead robots={robots} vs direct"),
            overhead_pct
        );
        rows.push(IngestRow {
            robots,
            direct_seconds,
            ingest_seconds,
            overhead_pct,
        });
    }
    rows
}

/// One sharded-fleet throughput sample: 64 robots hash-partitioned over
/// `shards` shards (each shard stepped on its own worker), driven
/// through the stamped-offer front door with journaling and periodic
/// snapshots on — the full service-path cost.
struct ShardRow {
    robots: usize,
    shards: usize,
    /// Per-robot-step seconds through the sharded service path.
    seconds: f64,
    /// Cost added over the plain `FleetIngest`-driven engine, percent
    /// (the shard layer's routing + journal + snapshot amortization).
    overhead_vs_engine_pct: f64,
}

/// One crash-recovery sample: rebuilding a killed 64-robot shard from
/// its last snapshot plus a stamped-frame journal replay.
struct ShardRecoveryRow {
    robots: usize,
    backlog_ticks: usize,
    /// Wall-clock cost of the live stepping that produced the backlog.
    live_seconds: f64,
    /// Wall-clock cost of `recover_shard` (twin rebuild + snapshot
    /// restore + journal replay + catch-up).
    recovery_seconds: f64,
    /// `recovery_seconds / live_seconds` — recovery replays the same
    /// detector work the live run did, so this ratio is host-speed
    /// independent.
    ratio: f64,
}

/// Recovery may cost at most this multiple of the live stepping it
/// replays (the slack covers the 64 factory constructions and the
/// snapshot decode on top of the replayed detector work).
const SHARD_RECOVERY_BUDGET_RATIO: f64 = 3.0;

/// Shard-layer overhead budget at 1 shard, percent: the service path
/// (routing + journal + periodic snapshots) on top of the plain
/// ingest-driven engine it wraps.
const SHARD_OVERHEAD_BUDGET_PCT: f64 = 10.0;

/// Sharded-fleet service throughput and crash recovery. The baseline
/// (a plain `FleetIngest`-driven engine doing the identical per-frame
/// offers) runs back to back with the shard legs so host drift cancels
/// out of the overhead ratio; the recovery ratio is self-normalizing
/// by construction.
fn bench_shard_scaling(fast: bool) -> (Vec<ShardRow>, ShardRecoveryRow) {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let x1 = system.dynamics().step(&x0, &u);
    let readings = clean_readings(&system, &x1);
    let robots = 64usize;
    let factory: RobotFactory = {
        let system = system.clone();
        let x0 = x0.clone();
        Arc::new(move |_id| RoboAds::with_defaults(system.clone(), x0.clone()))
    };
    let ids: Vec<u64> = (0..robots as u64).collect();
    // One call = one fleet tick; windows span several ticks.
    let (batches, per_batch) = if fast { (3, 4) } else { (10, 16) };

    // Baseline: the same stamped frame-by-frame offers through a plain
    // engine + ingest pair, no shard layer.
    let mut engine = FleetEngine::new((0..robots).map(|i| factory(i as u64).unwrap()).collect(), 1);
    let mut ingest = FleetIngest::for_fleet(&engine);
    let baseline = time_median(batches, per_batch, || {
        let k = ingest.tick();
        for robot in 0..robots {
            ingest.offer_input_stamped(robot, &u, k).unwrap();
            for (s, reading) in readings.iter().enumerate() {
                ingest.offer_stamped(robot, s, reading, k).unwrap();
            }
        }
        ingest.step(&mut engine).unwrap();
    }) / robots as f64;
    report(
        &format!("shard_service/robots={robots} engine baseline"),
        baseline,
    );

    let mut rows: Vec<ShardRow> = Vec::new();
    for shards in thread_grid() {
        let mut fleet = ShardedFleet::new(
            &ids,
            factory.clone(),
            ShardConfig {
                shards,
                threads_per_shard: 1,
                snapshot_period: 64,
                steal_margin: 0,
            },
        )
        .unwrap();
        let seconds = time_median(batches, per_batch, || {
            let k = fleet.tick();
            for &id in &ids {
                fleet.offer_input(id, &u, k).unwrap();
                for (s, reading) in readings.iter().enumerate() {
                    fleet.offer(id, s, reading, k).unwrap();
                }
            }
            fleet.step().unwrap();
        }) / robots as f64;
        let overhead_vs_engine_pct = (seconds / baseline - 1.0) * 100.0;
        report(
            &format!("shard_service/robots={robots} shards={shards}"),
            seconds,
        );
        println!(
            "{:<44} {:>9.2} %",
            format!("shard overhead shards={shards} vs engine"),
            overhead_vs_engine_pct
        );
        rows.push(ShardRow {
            robots,
            shards,
            seconds,
            overhead_vs_engine_pct,
        });
    }

    // Crash recovery: snapshot a 64-robot single-shard fleet, march 100
    // ticks of journal backlog, kill and recover, and compare the
    // recovery wall time with the live stepping it replays.
    let backlog_ticks = 100usize;
    let mut fleet = ShardedFleet::new(
        &ids,
        factory.clone(),
        ShardConfig {
            shards: 1,
            threads_per_shard: 1,
            snapshot_period: 0, // manual snapshots: fix the backlog exactly
            steal_margin: 0,
        },
    )
    .unwrap();
    let tick = |fleet: &mut ShardedFleet| {
        let k = fleet.tick();
        for &id in &ids {
            fleet.offer_input(id, &u, k).unwrap();
            for (s, reading) in readings.iter().enumerate() {
                fleet.offer(id, s, reading, k).unwrap();
            }
        }
        fleet.step().unwrap();
    };
    for _ in 0..8 {
        tick(&mut fleet); // warm the detectors off their cold start
    }
    fleet.snapshot_all();
    let start = Instant::now();
    for _ in 0..backlog_ticks {
        tick(&mut fleet);
    }
    let live_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    fleet.recover_shard(0).unwrap();
    let recovery_seconds = start.elapsed().as_secs_f64();
    let ratio = recovery_seconds / live_seconds;
    println!(
        "{:<44} {:>10.1} ms  ({:.2}x the live stepping, budget {:.1}x)",
        format!("shard_recovery/robots={robots} backlog={backlog_ticks}"),
        recovery_seconds * 1e3,
        ratio,
        SHARD_RECOVERY_BUDGET_RATIO
    );
    let recovery = ShardRecoveryRow {
        robots,
        backlog_ticks,
        live_seconds,
        recovery_seconds,
        ratio,
    };
    (rows, recovery)
}

/// `ROBOADS_FLEET_GATE=1` leg for the fleet service: the shard layer at
/// 1 shard may cost at most [`SHARD_OVERHEAD_BUDGET_PCT`] over the
/// plain ingest-driven engine (per-shard throughput within 10 % of a
/// standalone `FleetEngine`), and recovering a killed 64-robot shard
/// with a 100-tick backlog must land under
/// [`SHARD_RECOVERY_BUDGET_RATIO`]× the live stepping it replays.
fn check_shard_gate(rows: &[ShardRow], recovery: &ShardRecoveryRow) {
    if std::env::var_os("ROBOADS_FLEET_GATE").is_none_or(|v| v == "0") {
        return;
    }
    let single = rows
        .iter()
        .find(|r| r.shards == 1)
        .expect("shard gate requires the 1-shard row");
    println!(
        "shard gate: {:.2} % service overhead at 1 shard (budget {:.1} %)",
        single.overhead_vs_engine_pct, SHARD_OVERHEAD_BUDGET_PCT
    );
    assert!(
        single.overhead_vs_engine_pct <= SHARD_OVERHEAD_BUDGET_PCT,
        "shard service regression: routing + journaling + snapshots cost {:.2} % over the \
         plain ingest-driven engine at 1 shard (budget {:.1} %) — per-shard throughput is \
         no longer within 10 % of a standalone FleetEngine",
        single.overhead_vs_engine_pct,
        SHARD_OVERHEAD_BUDGET_PCT
    );
    println!(
        "recovery gate: {:.2}x the live stepping for a {}-robot shard, {}-tick backlog \
         (budget {:.1}x)",
        recovery.ratio, recovery.robots, recovery.backlog_ticks, SHARD_RECOVERY_BUDGET_RATIO
    );
    assert!(
        recovery.ratio <= SHARD_RECOVERY_BUDGET_RATIO,
        "shard recovery regression: rebuilding a {}-robot shard from snapshot + {}-tick \
         journal replay costs {:.2}x the live stepping it replays (budget {:.1}x) — twin \
         construction or snapshot decode is no longer amortized by the replay",
        recovery.robots,
        recovery.backlog_ticks,
        recovery.ratio,
        SHARD_RECOVERY_BUDGET_RATIO
    );
}

/// One flight-recorder overhead sample: identical warm detectors
/// stepped via `step_into`, one bare and one with `record_tick` after
/// every step (clean inputs, so the recorder stays on its zero-alloc
/// warm path with the ring wrapping continuously).
struct RecorderRow {
    base_seconds: f64,
    live_seconds: f64,
    overhead_pct: f64,
}

/// Acceptance budget for warm-path recording, percent of the step cost.
const RECORDER_BUDGET_PCT: f64 = 5.0;

/// What the flight recorder costs per tick on top of a detector step.
/// Both legs run back to back in the same function (like the ingest
/// section) so host drift cancels out of the overhead ratio; the
/// recorded leg's ring is small enough that the measured window is all
/// wraparound — the steady state a long mission lives in.
fn bench_recorder_overhead(fast: bool) -> RecorderRow {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let x1 = system.dynamics().step(&x0, &u);
    let readings = clean_readings(&system, &x1);
    let (batches, per_batch) = if fast { (5, 32) } else { (30, 256) };

    let mut base = RoboAds::with_defaults(system.clone(), x0.clone()).unwrap();
    let mut base_report = DetectionReport::blank();
    let base_seconds = time_median(batches, per_batch, || {
        base.step_into(&u, &readings, &mut base_report).unwrap();
    });
    report("recorder_overhead/base_step", base_seconds);

    let mut live = RoboAds::with_defaults(system, x0)
        .unwrap()
        .with_recorder(RecorderConfig {
            capacity: 64,
            ..RecorderConfig::default()
        });
    let mut live_report = DetectionReport::blank();
    let mut tick = 0u64;
    let live_seconds = time_median(batches, per_batch, || {
        live.step_into(&u, &readings, &mut live_report).unwrap();
        live.record_tick(tick, &u, &readings, &live_report);
        tick += 1;
    });
    report("recorder_overhead/recorded_step", live_seconds);

    let overhead_pct = (live_seconds / base_seconds - 1.0) * 100.0;
    println!(
        "{:<44} {:>9.2} %  (budget {RECORDER_BUDGET_PCT:.1} %)",
        "recorder overhead (recorded vs base)", overhead_pct
    );
    RecorderRow {
        base_seconds,
        live_seconds,
        overhead_pct,
    }
}

/// `ROBOADS_FLEET_GATE=1` leg for the recorder: warm-path recording may
/// cost at most [`RECORDER_BUDGET_PCT`] of the step it rides on.
fn check_recorder_gate(row: &RecorderRow) {
    if std::env::var_os("ROBOADS_FLEET_GATE").is_none_or(|v| v == "0") {
        return;
    }
    println!(
        "recorder gate: {:.2} % overhead (budget {RECORDER_BUDGET_PCT:.1} %)",
        row.overhead_pct
    );
    assert!(
        row.overhead_pct <= RECORDER_BUDGET_PCT,
        "flight-recorder overhead regression: recording costs {:.2} % of a detector step \
         (budget {RECORDER_BUDGET_PCT:.1} %) — the warm record path is doing more than \
         refilling pre-sized ring slots",
        row.overhead_pct
    );
}

/// Slab-vs-scalar throughput, measured **back to back in the same run**
/// at 1 thread so host drift cannot masquerade as a kernel win: for
/// each robot count, the robots as standalone detectors swept one by
/// one through `step_into` (the per-robot path) and then as one 8-lane
/// slab fleet group. This is the headline number of the slab work:
/// identical arithmetic, batched across robots so the dense kernels
/// vectorize.
fn bench_slab_throughput(fast: bool) -> Vec<SlabRow> {
    let system = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let x1 = system.dynamics().step(&x0, &u);
    let readings = clean_readings(&system, &x1);
    let modes = ModeSet::one_reference_per_sensor(&system);
    let robot_counts: &[usize] = if fast { &[64] } else { &[64, 256] };
    const LEGS: [&str; 2] = ["standalone", "slab"];
    let mut rows: Vec<SlabRow> = Vec::new();
    for &robots in robot_counts {
        // Timing windows interleaved round-robin across the legs: slow
        // host-speed drift (shared cores, frequency scaling) then hits
        // both equally and cancels out of the speedup ratio, which is
        // what the slab gate checks.
        let detectors = || -> Vec<RoboAds> {
            (0..robots)
                .map(|_| {
                    RoboAds::new(
                        system.clone(),
                        RoboAdsConfig::paper_defaults(),
                        x0.clone(),
                        modes.clone(),
                    )
                    .unwrap()
                })
                .collect()
        };
        let mut legs = [
            Leg::standalone(detectors()),
            Leg::Fleet(FleetEngine::new(detectors(), 1)),
        ];
        let inputs: Vec<RobotInput> = (0..robots)
            .map(|_| RobotInput {
                u_prev: &u,
                readings: &readings,
            })
            .collect();
        let per_batch = (if fast { 32 } else { 512 } / robots).max(1);
        let rounds = if fast { 3 } else { 16 };
        for leg in &mut legs {
            for _ in 0..per_batch {
                leg.step(&inputs);
            }
        }
        let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); LEGS.len()];
        for _ in 0..rounds {
            for (leg_samples, leg) in samples.iter_mut().zip(legs.iter_mut()) {
                let start = Instant::now();
                for _ in 0..per_batch {
                    leg.step(&inputs);
                }
                leg_samples.push(start.elapsed().as_secs_f64() / per_batch as f64);
            }
        }
        let mut scalar_seconds = f64::NAN;
        for (leg_samples, &leg) in samples.iter_mut().zip(LEGS.iter()) {
            leg_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            let seconds = leg_samples[leg_samples.len() / 2] / robots as f64;
            if leg == "standalone" {
                scalar_seconds = seconds;
            }
            let speedup = scalar_seconds / seconds;
            report(&format!("slab_fleet/robots={robots} {leg}"), seconds);
            if leg == "slab" {
                println!(
                    "{:<44} {:>9.2} x",
                    format!("slab speedup robots={robots}"),
                    speedup
                );
            }
            rows.push(SlabRow {
                robots,
                leg,
                seconds,
                speedup_vs_scalar: speedup,
            });
        }
    }
    rows
}

/// Heterogeneous-fleet throughput: the same robot count spread across
/// different model-signature shapes, all legs back to back (interleaved
/// timing windows, same drift-cancelling scheme as the slab section):
///
/// * `standalone` — the robots swept one by one through `step_into`,
///   the per-robot baseline;
/// * `homogeneous` — one signature, the whole fleet in one 8-lane slab
///   (the pre-grouping best case);
/// * `two_group` — two signatures dealt alternately, two slabs (the
///   mixed Khepera-firmware fleet shape);
/// * `odd_one_out` — one robot with its own signature amid N−1 shared
///   ones. Pre-grouping this was the pathological case: the odd robot
///   collapsed the whole fleet to per-robot throughput (~1.0×);
///   per-group slabs keep the N−1 group batched, so it must retain
///   nearly the homogeneous speedup.
fn bench_slab_groups(fast: bool) -> Vec<SlabGroupRow> {
    let base = presets::khepera_system();
    let x0 = Vector::from_slice(&[0.5, 0.5, 0.2]);
    let u = Vector::from_slice(&[0.06, 0.05]);
    let x1 = base.dynamics().step(&x0, &u);
    let readings = clean_readings(&base, &x1);
    let robots = if fast { 64 } else { 256 };
    // (label, signature count, robot -> signature group).
    type Shape = (&'static str, usize, fn(usize, usize) -> usize);
    const SHAPES: [Shape; 4] = [
        ("standalone", 1, |_, _| 0),
        ("homogeneous", 1, |_, _| 0),
        ("two_group", 2, |i, _| i % 2),
        ("odd_one_out", 2, |i, n| usize::from(i == n / 2)),
    ];
    let mut legs: Vec<Leg> = SHAPES
        .iter()
        .map(|&(label, signatures, group_of)| {
            // Fresh, pointer-distinct (numerically identical) preset
            // instances per signature group — the realistic per-unit
            // model-provisioning shape.
            let systems: Vec<_> = (0..signatures).map(|_| presets::khepera_system()).collect();
            let detectors = (0..robots)
                .map(|i| {
                    let system = &systems[group_of(i, robots)];
                    RoboAds::new(
                        system.clone(),
                        RoboAdsConfig::paper_defaults(),
                        x0.clone(),
                        ModeSet::one_reference_per_sensor(system),
                    )
                    .unwrap()
                })
                .collect();
            if label == "standalone" {
                Leg::standalone(detectors)
            } else {
                Leg::Fleet(FleetEngine::new(detectors, 1))
            }
        })
        .collect();
    let inputs: Vec<RobotInput> = (0..robots)
        .map(|_| RobotInput {
            u_prev: &u,
            readings: &readings,
        })
        .collect();
    let per_batch = (if fast { 32 } else { 512 } / robots).max(1);
    let rounds = if fast { 3 } else { 16 };
    for leg in &mut legs {
        for _ in 0..per_batch {
            leg.step(&inputs);
        }
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); SHAPES.len()];
    for _ in 0..rounds {
        for (shape_samples, leg) in samples.iter_mut().zip(legs.iter_mut()) {
            let start = Instant::now();
            for _ in 0..per_batch {
                leg.step(&inputs);
            }
            shape_samples.push(start.elapsed().as_secs_f64() / per_batch as f64);
        }
    }
    let mut scalar_seconds = f64::NAN;
    let mut rows = Vec::with_capacity(SHAPES.len());
    for (shape_samples, &(label, signatures, _)) in samples.iter_mut().zip(SHAPES.iter()) {
        shape_samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let seconds = shape_samples[shape_samples.len() / 2] / robots as f64;
        if label == "standalone" {
            scalar_seconds = seconds;
        }
        let speedup = scalar_seconds / seconds;
        report(&format!("slab_groups/robots={robots} {label}"), seconds);
        if label != "standalone" {
            println!(
                "{:<44} {:>9.2} x",
                format!("slab_groups speedup robots={robots} {label}"),
                speedup
            );
        }
        rows.push(SlabGroupRow {
            label,
            robots,
            groups: signatures,
            seconds,
            speedup_vs_scalar: speedup,
        });
    }
    rows
}

/// `ROBOADS_FLEET_GATE=1` leg for the instrumentation budget: the
/// live-sink telemetry overhead must stay within 6 % of the noop-sink
/// step now that per-mode histograms are sampled instead of recorded
/// every commit.
fn check_telemetry_gate(telemetry_overhead_pct: f64) {
    if std::env::var_os("ROBOADS_FLEET_GATE").is_none_or(|v| v == "0") {
        return;
    }
    println!("telemetry gate: {telemetry_overhead_pct:.2} % ring-sink overhead (budget 6.00 %)");
    assert!(
        telemetry_overhead_pct <= 6.0,
        "telemetry overhead regression: ring-sink instrumentation costs \
         {telemetry_overhead_pct:.2} % of a detector step (budget 6 %) — check for \
         per-step histogram records or other hot-path instruments"
    );
}

/// `ROBOADS_FLEET_GATE=1` sanity floor for the CI fleet-smoke job: the
/// 64-robot / 1-thread batch must sustain at least 32× the per-robot
/// tick rate of a sequentially swept 64-robot fleet — i.e. batching may
/// cost at most 2× the standalone per-step path. A 2× slack floor (not
/// a tight perf gate) so a noisy shared runner cannot flake it, while a
/// real regression — per-batch allocation, dispatch per robot, slab
/// false sharing — still trips it.
fn check_fleet_gate(
    fleet: &[FleetRow],
    slab: &[SlabRow],
    slab_groups: &[SlabGroupRow],
    detector_step_s: f64,
) {
    if std::env::var_os("ROBOADS_FLEET_GATE").is_none_or(|v| v == "0") {
        return;
    }
    let row = fleet
        .iter()
        .filter(|r| r.threads == 1 && r.robots >= 64)
        .min_by_key(|r| r.robots)
        .expect("fleet gate requires a >=64-robot / 1-thread row");
    let rate = 1.0 / row.seconds;
    let floor = 32.0 / (row.robots as f64 * detector_step_s);
    println!(
        "fleet gate: {rate:.0} robot-steps/s at {} robots / 1 thread \
         (floor {floor:.0})",
        row.robots
    );
    assert!(
        rate >= floor,
        "fleet throughput regression: {rate:.0} robot-steps/s at {} robots / 1 thread \
         is below 32x the swept per-robot tick rate ({floor:.0}); batching is costing more \
         than 2x the standalone detector step ({:.1} us)",
        row.robots,
        detector_step_s * 1e6
    );
    // Slab leg of the gate: the SoA path must never be slower than the
    // per-robot path it replaces (the full bench's acceptance bar is
    // 1.3x; the smoke gate only guards against the slab path silently
    // degenerating, so it sits at parity to stay noise-proof).
    let slab_row = slab
        .iter()
        .filter(|r| r.leg == "slab" && r.robots >= 64)
        .min_by_key(|r| r.robots)
        .expect("fleet gate requires a >=64-robot slab row");
    println!(
        "slab gate: {:.2}x vs standalone at {} robots / 8 lanes (floor 1.00)",
        slab_row.speedup_vs_scalar, slab_row.robots
    );
    assert!(
        slab_row.speedup_vs_scalar >= 1.0,
        "slab throughput regression: {:.2}x vs standalone detectors at {} robots — \
         the lane-batched kernels are slower than the per-robot path they replace",
        slab_row.speedup_vs_scalar,
        slab_row.robots
    );
    // Mixed-fleet leg: one odd robot amid N−1 shared-signature ones
    // must retain ≥ 1.3x over the standalone sweep. Pre-grouping this shape ran
    // at ~1.0x (the odd robot collapsed the fleet to the scalar path);
    // post-grouping the N−1 group keeps its slab, whose homogeneous
    // speedup is ~1.5x, so 1.3 is a real floor with noise headroom.
    let odd = slab_groups
        .iter()
        .find(|r| r.label == "odd_one_out")
        .expect("fleet gate requires the odd_one_out slab-groups row");
    println!(
        "slab-groups gate: {:.2}x vs standalone at {} robots, one odd robot (floor 1.30)",
        odd.speedup_vs_scalar, odd.robots
    );
    assert!(
        odd.speedup_vs_scalar >= 1.3,
        "heterogeneous slab regression: one odd robot in a {}-robot fleet retains only \
         {:.2}x over standalone detectors (floor 1.30) — the signature partition is no longer \
         keeping the majority group on the slab path",
        odd.robots,
        odd.speedup_vs_scalar
    );
}

fn bench_simulation(fast: bool) {
    let (batches, per_batch) = if fast { (1, 1) } else { (5, 1) };
    let t = time_median(batches, per_batch, || {
        SimulationBuilder::khepera()
            .scenario(Scenario::ips_logic_bomb())
            .seed(11)
            .run()
            .unwrap();
    });
    report("simulation/khepera_200_iterations", t);

    // Dump one run's telemetry summary so the bench doubles as a
    // health-report demo (step latency p50/p95/p99 live here).
    let outcome = SimulationBuilder::khepera()
        .scenario(Scenario::ips_logic_bomb())
        .seed(11)
        .run()
        .unwrap();
    println!("\ntelemetry summary (ips_logic_bomb, seed 11):");
    println!("{}", outcome.telemetry.to_json());
}

fn bench_substrates(fast: bool) {
    let arena = presets::evaluation_arena();
    let (b1, n1) = if fast { (2, 1) } else { (5, 2) };
    let t = time_median(b1, n1, || {
        roboads_control::RrtStar::new(&arena, 0.08)
            .unwrap()
            .plan((0.5, 0.5), (3.5, 3.5), 7)
            .unwrap();
    });
    report("rrt_star/evaluation_arena", t);

    let lidar = roboads_models::sensors::WallLidar::new(arena, 0.015, 0.02).unwrap();
    let pose = Vector::from_slice(&[2.0, 2.0, 0.5]);
    let (b2, n2) = if fast { (5, 5) } else { (30, 20) };
    let t = time_median(b2, n2, || {
        lidar.simulate_scan(&pose).unwrap();
    });
    report("lidar/241_beam_scan", t);

    let m = Matrix::from_fn(7, 7, |i, j| if i == j { 2.0 } else { 0.3 });
    let t = time_median(b2, 50, || {
        m.pseudo_inverse().unwrap();
    });
    report("linalg/pseudo_inverse_7x7", t);
}

/// The per-section result rows `write_results` renders, bundled so the
/// signature doesn't grow an argument per bench section.
struct SectionRows<'a> {
    fleet: &'a [FleetRow],
    slab: &'a [SlabRow],
    slab_groups: &'a [SlabGroupRow],
    ingest: &'a [IngestRow],
    recorder: &'a RecorderRow,
    shard: &'a [ShardRow],
    shard_recovery: &'a ShardRecoveryRow,
}

fn write_results(nuise: (f64, f64), detector: (f64, f64, f64), rows: &SectionRows, fast: bool) {
    let SectionRows {
        fleet,
        slab,
        slab_groups,
        ingest,
        recorder,
        shard,
        shard_recovery,
    } = rows;
    let mut o = JsonObject::new();
    o.field_str("bench", "perf");
    o.field_bool("fast_mode", fast);
    o.field_u64(
        "available_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    );
    o.field_f64("nuise_step_us", nuise.0 * 1e6);
    o.field_f64("engine_single_mode_step_us", nuise.1 * 1e6);
    o.field_f64("detector_step_noop_us", detector.0 * 1e6);
    o.field_f64("detector_step_ring_us", detector.1 * 1e6);
    o.field_f64("telemetry_overhead_pct", detector.2);
    let fleet_rows = roboads_core::obs::json::array_of(fleet.iter().map(|r| {
        let mut row = JsonObject::new();
        row.field_u64("robots", r.robots as u64);
        row.field_u64("threads", r.threads as u64);
        row.field_f64("robot_step_us", r.seconds * 1e6);
        row.field_f64("robot_steps_per_sec", 1.0 / r.seconds);
        row.finish()
    }));
    o.field_raw("fleet_throughput", &fleet_rows);
    let slab_rows = roboads_core::obs::json::array_of(slab.iter().map(|r| {
        let mut row = JsonObject::new();
        row.field_u64("robots", r.robots as u64);
        row.field_u64("threads", 1);
        row.field_str("leg", r.leg);
        row.field_f64("robot_step_us", r.seconds * 1e6);
        row.field_f64("robot_steps_per_sec", 1.0 / r.seconds);
        row.field_f64("speedup_vs_scalar", r.speedup_vs_scalar);
        row.finish()
    }));
    o.field_raw("slab_throughput", &slab_rows);
    let group_rows = roboads_core::obs::json::array_of(slab_groups.iter().map(|r| {
        let mut row = JsonObject::new();
        row.field_str("shape", r.label);
        row.field_u64("robots", r.robots as u64);
        row.field_u64("signature_groups", r.groups as u64);
        row.field_u64("threads", 1);
        row.field_f64("robot_step_us", r.seconds * 1e6);
        row.field_f64("robot_steps_per_sec", 1.0 / r.seconds);
        row.field_f64("speedup_vs_scalar", r.speedup_vs_scalar);
        row.finish()
    }));
    o.field_raw("slab_groups", &group_rows);
    let ingest_rows = roboads_core::obs::json::array_of(ingest.iter().map(|r| {
        let mut row = JsonObject::new();
        row.field_u64("robots", r.robots as u64);
        row.field_u64("threads", 1);
        row.field_f64("direct_robot_step_us", r.direct_seconds * 1e6);
        row.field_f64("ingest_robot_step_us", r.ingest_seconds * 1e6);
        row.field_f64("overhead_pct", r.overhead_pct);
        row.finish()
    }));
    o.field_raw("ingest_throughput", &ingest_rows);
    let mut rec = JsonObject::new();
    rec.field_f64("base_us", recorder.base_seconds * 1e6);
    rec.field_f64("live_us", recorder.live_seconds * 1e6);
    rec.field_f64("overhead_pct", recorder.overhead_pct);
    rec.field_f64("budget_pct", RECORDER_BUDGET_PCT);
    o.field_raw("recorder_overhead", &rec.finish());
    let shard_rows = roboads_core::obs::json::array_of(shard.iter().map(|r| {
        let mut row = JsonObject::new();
        row.field_u64("robots", r.robots as u64);
        row.field_u64("shards", r.shards as u64);
        row.field_f64("robot_step_us", r.seconds * 1e6);
        row.field_f64("robot_steps_per_sec", 1.0 / r.seconds);
        row.field_f64("overhead_vs_engine_pct", r.overhead_vs_engine_pct);
        row.finish()
    }));
    o.field_raw("shard_scaling", &shard_rows);
    let mut recov = JsonObject::new();
    recov.field_u64("robots", shard_recovery.robots as u64);
    recov.field_u64("backlog_ticks", shard_recovery.backlog_ticks as u64);
    recov.field_f64("live_ms", shard_recovery.live_seconds * 1e3);
    recov.field_f64("recovery_ms", shard_recovery.recovery_seconds * 1e3);
    recov.field_f64("ratio_vs_live", shard_recovery.ratio);
    recov.field_f64("budget_ratio", SHARD_RECOVERY_BUDGET_RATIO);
    o.field_raw("shard_recovery", &recov.finish());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    match std::fs::write(path, o.finish() + "\n") {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}

fn main() {
    let fast = fast_mode();
    println!(
        "control period budget: 100000.0 µs per detection iteration{}\n",
        if fast { "  [fast mode]" } else { "" }
    );
    let nuise = bench_nuise(fast);
    // The fleet section runs immediately after the standalone detector
    // baseline it is compared against: on shared/bursty hosts the
    // machine's speed drifts over a multi-minute bench run, and putting
    // other sections between the two numbers would fold that drift into
    // the batching-overhead comparison. The slab section carries its
    // scalar baseline inside itself (back-to-back legs) for the same
    // reason.
    let detector = bench_detector_and_overhead(fast);
    let fleet = bench_fleet_throughput(fast);
    let slab = bench_slab_throughput(fast);
    let slab_groups = bench_slab_groups(fast);
    check_fleet_gate(&fleet, &slab, &slab_groups, detector.0);
    check_telemetry_gate(detector.2);
    // The recorder and ingest overhead legs carry their baselines inside
    // themselves (back to back), so their placement is drift-safe.
    let recorder = bench_recorder_overhead(fast);
    check_recorder_gate(&recorder);
    let ingest = bench_ingest_throughput(fast);
    // The shard section carries its engine baseline inside itself (back
    // to back), and the recovery ratio normalizes against the live
    // stepping measured in the same run — both drift-safe.
    let (shard, shard_recovery) = bench_shard_scaling(fast);
    check_shard_gate(&shard, &shard_recovery);
    bench_substrates(fast);
    bench_simulation(fast);
    write_results(
        nuise,
        detector,
        &SectionRows {
            fleet: &fleet,
            slab: &slab,
            slab_groups: &slab_groups,
            ingest: &ingest,
            recorder: &recorder,
            shard: &shard,
            shard_recovery: &shard_recovery,
        },
        fast,
    );
}
