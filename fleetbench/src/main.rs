//! End-to-end benchmark of the RoboADS fleet service.
//!
//! ```text
//! cargo run --release --manifest-path fleetbench/Cargo.toml -- \
//!     --workload table2-256 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Drives wire bytes through the unmodified `roboads_wire::pump` into a
//! one-shard `ShardedFleet`, checks every robot against an oracle, and
//! prints one JSON result line: the end-to-end metrics with `--trace 0`,
//! the per-layer split of a separate traced run with `--trace 1`.
//! `README.md` documents the workloads, metrics and measurement design.

mod clock;
mod gen;
mod oracle;
mod reference;
mod service;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use crate::stats::{median, result_json, Metric};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: fleetbench --workload <table2-256|flood-recover-64> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let workload = workload::Workload::by_name(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {} (one of {})",
            args.workload,
            workload::WORKLOADS.join(", ")
        )
    })?;
    let started = Instant::now();
    let bench = service::Bench::prepare(workload, args.seed)?;
    eprintln!(
        "fleetbench: {} seed {}: {} robots, {} templates x {} ticks in {} sets, prepared in {:.2} s",
        bench.workload.name,
        args.seed,
        bench.workload.robots,
        bench.workload.sets * bench.workload.templates,
        bench.ticks(),
        bench.workload.sets,
        started.elapsed().as_secs_f64()
    );
    let mut setup_s = bench.measure_setup()?;
    if args.trace {
        let report = traced::run(&bench, args.seconds)?;
        return Ok(result_json(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics,
        ));
    }
    // Every set runs once, so every scored report was also checked.
    let timed = bench.timed(args.seconds, bench.sets.len())?;
    setup_s.extend(&timed.setup_s);
    let detection = bench.detection;
    let metrics = [
        Metric {
            name: "tick_p50_ms",
            value: timed.tick_p50_ms(),
            unit: "ms",
        },
        Metric {
            name: "robot_steps_per_s",
            value: timed.robot_steps_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "recover_ms",
            value: timed.recover_ms(),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: median(&mut setup_s),
            unit: "s",
        },
        Metric {
            name: "detect_delay_s",
            value: detection.delay_s,
            unit: "sim_s",
        },
        Metric {
            name: "fpr",
            value: detection.fpr,
            unit: "ratio",
        },
        Metric {
            name: "fnr",
            value: detection.fnr,
            unit: "ratio",
        },
    ];
    eprintln!(
        "fleetbench: {} passes, {} timed ticks, rejected {} of {} forged, mismatches {:?}",
        timed.passes,
        timed.tick_ms.len(),
        timed.rejected,
        timed.expected_rejected,
        timed.mismatch
    );
    eprintln!(
        "fleetbench: unscaled tick p50 {:.4} ms on-CPU, {:.4} ms wall; {:.0} robot-steps per wall second; \
         on-CPU share of wall {:.4}; reference kernel {:.2} us (nominal {:.2})",
        median(&mut timed.tick_cpu_ms.clone()),
        median(&mut timed.tick_ms.clone()),
        timed.robot_ticks as f64 / timed.pump_s,
        timed.on_cpu_ratio(),
        timed.reference_us(),
        reference::NOMINAL_NS / 1e3
    );
    for m in &metrics {
        eprintln!("  {:<22} {:>14.6} {}", m.name, m.value, m.unit);
    }
    Ok(result_json(
        timed.correct(),
        timed.attempted,
        timed.failed_robot_ticks,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fleetbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::FAILURE
        }
    }
}
