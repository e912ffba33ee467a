//! The timed service run: one busy thread, closed loop. The generator
//! is the in-memory [`TickReader`] handed to the unmodified `pump`, so
//! the next tick's bytes are released only after the fleet stepped the
//! previous one.

use std::ops::Range;
use std::time::Instant;

use roboads::core::{DetectionReport, RoboAds, RobotFactory, ShardedFleet};
use roboads::sim::{EvalResult, Trace, TraceRecord};
use roboads::wire::pump;

use crate::clock::{cpu_ms_since, thread_cpu_ns};
use crate::gen::{generate, Stream, TickReader};
use crate::oracle::{self, Detection, Mismatch, Oracle, Tally};
use crate::reference::Reference;
use crate::stats::median;
use crate::workload::{
    cloning_factory, evaluation_path, mix, simulate, template_detector, Workload,
};

/// Ticks at the start of the first pass left out of the timing, while
/// caches fill and the slab partition forms.
const WARMUP_TICKS: usize = 10;
/// Fleet constructions timed before the passes: at least this many,
/// and until [`SETUP_BUDGET_S`] of wall time is spent; each pass adds
/// one. A single construction takes 1-5 ms and wobbles by a fifth.
const SETUP_REPEATS: usize = 9;
const SETUP_BUDGET_S: f64 = 0.3;
const SETUP_REPEATS_MAX: usize = 400;

/// One set of templates: their traces (reports stripped), their
/// oracle, and the seed of the stream that replays them.
pub struct TemplateSet {
    pub traces: Vec<Trace>,
    pub oracle: Oracle,
    pub stream_seed: u64,
}

/// Everything a run needs, generated from the workload seed before any
/// timing starts.
pub struct Bench {
    pub workload: Workload,
    pub ids: Vec<u64>,
    pub template: RoboAds,
    pub factory: RobotFactory,
    pub sets: Vec<TemplateSet>,
    /// Detection scores of every template of every set.
    pub detection: Detection,
}

/// One simulated and replayed template.
struct Episode {
    trace: Trace,
    reports: Vec<DetectionReport>,
    end_state: Vec<u8>,
    eval: EvalResult,
}

/// The trace with its simulator reports dropped: the stream needs only
/// the commands and readings, and a set's traces would otherwise hold
/// hundreds of megabytes of reports.
fn strip_reports(trace: &Trace) -> Trace {
    let mut out = Trace::new(trace.dt(), trace.scenario_name());
    for record in trace.records() {
        out.push(TraceRecord {
            report: DetectionReport::blank(),
            ..record.clone()
        });
    }
    out
}

/// Maps `f` over `0..n` on two scoped threads (the host has two cores),
/// keeping index order.
fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    const WORKERS: usize = 2;
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    (w..n)
                        .step_by(WORKERS)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, value) in worker.join().expect("preparation worker panicked") {
                out[i] = Some(value);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index is mapped once"))
        .collect()
}

/// A stretch of ticks pumped over one connection, and how many times
/// the shard is killed and recovered after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    pub ticks: Range<usize>,
    pub crashes: usize,
}

/// Crashes after the last tick of a pass on workloads without a crash
/// offset: each recovery replays the same snapshot and journal, and
/// several per pass steady `recover_ms`.
const END_CRASHES: usize = 4;

/// The connections of one pass. With a crash offset `c` and snapshot
/// period `p`, the shard crashes whenever its staging tick is `c` past
/// a multiple of `p`, so every crash replays the same journal backlog;
/// without one, it crashes [`END_CRASHES`] times after the last tick.
pub fn segments(workload: &Workload, ticks: usize) -> Vec<Segment> {
    let Some(offset) = workload.crash_offset else {
        return vec![Segment {
            ticks: 0..ticks,
            crashes: END_CRASHES,
        }];
    };
    let period = workload.snapshot_period as usize;
    let mut out = Vec::new();
    let mut start = 0;
    let mut crash = offset as usize;
    while crash <= ticks {
        out.push(Segment {
            ticks: start..crash,
            crashes: 1,
        });
        start = crash;
        crash += period;
    }
    if start < ticks {
        out.push(Segment {
            ticks: start..ticks,
            crashes: 0,
        });
    }
    out
}

/// Results of the timed phase; warm-up ticks are excluded. The timing
/// metrics read the service thread's on-CPU time (see [`crate::clock`])
/// scaled to the nominal host speed (see [`crate::reference`]); the raw
/// on-CPU and wall times are kept for the summary.
#[derive(Debug, Default)]
pub struct Timed {
    pub passes: u64,
    /// Per tick: on-CPU time at the nominal host speed, raw on-CPU time
    /// and wall time, milliseconds.
    pub tick_ref_ms: Vec<f64>,
    pub tick_cpu_ms: Vec<f64>,
    pub tick_ms: Vec<f64>,
    /// On-CPU and wall time inside `pump`, seconds.
    pub pump_cpu_s: f64,
    pub pump_s: f64,
    pub robot_ticks: u64,
    /// `recover_shard` on-CPU time at the nominal host speed, ms.
    pub recover_ms: Vec<f64>,
    /// `ShardedFleet::new` on-CPU time at the nominal host speed, s.
    pub setup_s: Vec<f64>,
    /// The reference kernel's scale factor of every timed tick.
    pub scales: Vec<f64>,
    pub rejected: u64,
    pub expected_rejected: u64,
    pub step_errors: u64,
    pub attempted: u64,
    /// Robot-ticks lost to oracle mismatches or step errors.
    pub failed_robot_ticks: u64,
    pub mismatch: Mismatch,
}

impl Timed {
    /// Median tick time, pooled over every timed tick of the run.
    pub fn tick_p50_ms(&self) -> f64 {
        median(&mut self.tick_ref_ms.clone())
    }

    /// Robot-steps per second of tick time.
    pub fn robot_steps_per_s(&self) -> f64 {
        self.robot_ticks as f64 / (self.tick_ref_ms.iter().sum::<f64>() / 1e3)
    }

    /// Median time of `recover_shard`.
    pub fn recover_ms(&self) -> f64 {
        median(&mut self.recover_ms.clone())
    }

    /// Median of the reference kernel's time, microseconds: how fast the
    /// host ran during the run.
    pub fn reference_us(&self) -> f64 {
        crate::reference::NOMINAL_NS / median(&mut self.scales.clone()) / 1e3
    }

    /// Share of the wall time inside `pump` that the thread spent on a
    /// CPU: near 1 when the host left the thread alone.
    pub fn on_cpu_ratio(&self) -> f64 {
        self.pump_cpu_s / self.pump_s
    }

    pub fn correct(&self) -> bool {
        self.failed_robot_ticks == 0
            && self.mismatch.is_clean()
            && self.step_errors == 0
            && self.rejected == self.expected_rejected
    }
}

impl Bench {
    /// Simulates the templates, replays them through the oracle, and
    /// scores the oracle's reports.
    pub fn prepare(workload: Workload, seed: u64) -> Result<Bench, String> {
        let path = evaluation_path()?;
        let scenarios = workload.scenarios();
        let weights = workload.template_weights();
        let template = template_detector(&path)?;
        let mut tally = Tally::default();
        let mut sets = Vec::with_capacity(workload.sets);
        for set in 0..workload.sets {
            let episodes = parallel_map(workload.templates, |t| {
                let trace = simulate(&scenarios[t], workload.template_seed(seed, set, t), &path)?;
                let (reports, end_state) = oracle::replay(&template, &trace)?;
                let eval = oracle::score(&trace, &reports, &scenarios[t]);
                Ok::<_, String>(Episode {
                    trace: strip_reports(&trace),
                    reports,
                    end_state,
                    eval,
                })
            });
            let mut traces = Vec::with_capacity(workload.templates);
            let mut oracle = Oracle {
                reports: Vec::new(),
                end_state: Vec::with_capacity(workload.templates),
            };
            for (t, episode) in episodes.into_iter().enumerate() {
                let episode = episode?;
                tally.add(
                    &episode.eval,
                    weights[t],
                    episode.trace.len() as f64 * episode.trace.dt(),
                );
                if set == 0 {
                    oracle.reports.push(episode.reports);
                }
                oracle.end_state.push(episode.end_state);
                traces.push(episode.trace);
            }
            sets.push(TemplateSet {
                traces,
                oracle,
                stream_seed: mix(seed ^ set as u64),
            });
        }
        Ok(Bench {
            factory: cloning_factory(&template),
            ids: workload.robot_ids(),
            workload,
            template,
            sets,
            detection: tally.detection(),
        })
    }

    /// The stream replaying `set`, generated afresh: a set's stream can
    /// take tens of megabytes, so only one is held at a time.
    pub fn stream(&self, set: &TemplateSet) -> Stream {
        generate(&self.workload, &set.traces, &self.ids, set.stream_seed)
    }

    pub fn ticks(&self) -> usize {
        self.sets[0].traces[0].len()
    }

    /// Builds the service fleet, returning it with its on-CPU
    /// construction time in seconds.
    pub fn build_fleet(&self, snapshot_period: u64) -> Result<(ShardedFleet, f64), String> {
        let mut config = self.workload.shard_config();
        config.snapshot_period = snapshot_period;
        let started = thread_cpu_ns();
        let fleet = ShardedFleet::new(&self.ids, self.factory.clone(), config)
            .map_err(|e| format!("building the fleet: {e}"))?;
        Ok((fleet, cpu_ms_since(started) / 1e3))
    }

    /// `ShardedFleet::new` with the cloning factory, timed repeatedly;
    /// seconds at the nominal host speed.
    pub fn measure_setup(&self) -> Result<Vec<f64>, String> {
        let mut reference = Reference::default();
        let started = Instant::now();
        let mut out = Vec::new();
        while out.len() < SETUP_REPEATS
            || (started.elapsed().as_secs_f64() < SETUP_BUDGET_S && out.len() < SETUP_REPEATS_MAX)
        {
            let scale = reference.scale();
            out.push(self.build_fleet(self.workload.snapshot_period)?.1 * scale);
        }
        Ok(out)
    }

    /// Runs whole passes until `seconds` have elapsed and at least
    /// `min_passes` ran, each pass on a freshly built fleet, checking
    /// each pass's end state against the oracle. Pass `p` replays set
    /// `p mod sets`.
    pub fn timed(&self, seconds: f64, min_passes: usize) -> Result<Timed, String> {
        let mut out = Timed::default();
        let mut reference = Reference::default();
        let started = Instant::now();
        while (out.passes as usize) < min_passes || started.elapsed().as_secs_f64() < seconds {
            let set = &self.sets[out.passes as usize % self.sets.len()];
            self.timed_pass(set, &mut reference, &mut out)?;
            out.passes += 1;
        }
        Ok(out)
    }

    fn timed_pass(
        &self,
        set: &TemplateSet,
        reference: &mut Reference,
        out: &mut Timed,
    ) -> Result<(), String> {
        let stream = self.stream(set);
        let robots = self.ids.len() as u64;
        let ticks = self.ticks() as u64;
        let scale = reference.scale();
        let (mut fleet, setup) = self.build_fleet(self.workload.snapshot_period)?;
        out.setup_s.push(setup * scale);
        let mut mismatch = Mismatch::default();
        for segment in segments(&self.workload, self.ticks()) {
            let mut reader = TickReader::new(&stream, segment.ticks.clone(), reference);
            let pumped = Instant::now();
            let pumped_cpu = thread_cpu_ns();
            let summary = pump(&mut reader, &mut fleet).map_err(|e| format!("pump: {e}"))?;
            let mut pump_cpu_s = cpu_ms_since(pumped_cpu) / 1e3;
            let mut pump_s = pumped.elapsed().as_secs_f64();
            if reader.published() != segment.ticks.len()
                || summary.ticks != segment.ticks.len() as u64
            {
                return Err(format!(
                    "pump published {} of ticks {:?}",
                    reader.published(),
                    segment.ticks
                ));
            }
            let (mut tick_ms, mut tick_cpu_ms, mut tick_scale) =
                (reader.tick_ms, reader.tick_cpu_ms, reader.tick_scale);
            if out.passes == 0 && segment.ticks.start < WARMUP_TICKS {
                let skip = (WARMUP_TICKS - segment.ticks.start).min(tick_ms.len());
                pump_s -= tick_ms.drain(..skip).sum::<f64>() / 1e3;
                pump_cpu_s -= tick_cpu_ms.drain(..skip).sum::<f64>() / 1e3;
                tick_scale.drain(..skip);
            }
            out.robot_ticks += robots * tick_ms.len() as u64;
            out.tick_ref_ms.extend(
                tick_cpu_ms
                    .iter()
                    .zip(&tick_scale)
                    .map(|(ms, scale)| ms * scale),
            );
            out.tick_ms.extend(tick_ms);
            out.tick_cpu_ms.extend(tick_cpu_ms);
            out.scales.extend(tick_scale);
            out.pump_s += pump_s;
            out.pump_cpu_s += pump_cpu_s;
            out.rejected += summary.rejected;
            out.step_errors += summary.step_errors;
            out.failed_robot_ticks += summary.step_errors;
            if segment.crashes > 0 && segment.ticks.end == self.ticks() {
                mismatch.add(oracle::check_end_state(
                    oracle::fleet_detector(&fleet, &self.ids),
                    &self.workload,
                    &set.oracle,
                ));
            }
            for _ in 0..segment.crashes {
                let scale = reference.scale();
                let recovering = thread_cpu_ns();
                fleet
                    .recover_shard(0)
                    .map_err(|e| format!("recovering the shard: {e}"))?;
                out.recover_ms.push(cpu_ms_since(recovering) * scale);
            }
        }
        out.expected_rejected += stream.forged();
        mismatch.add(oracle::check_end_state(
            oracle::fleet_detector(&fleet, &self.ids),
            &self.workload,
            &set.oracle,
        ));
        let failed_robots = (mismatch.robots + mismatch.errors + mismatch.disagreeing).min(robots);
        out.failed_robot_ticks += failed_robots * ticks;
        out.attempted += robots * ticks;
        out.mismatch.add(mismatch);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crashes_fall_at_one_backlog_and_cover_every_tick() {
        let flood = Workload::by_name("flood-recover-64").unwrap();
        let segs = segments(&flood, 200);
        let starts: Vec<usize> = segs.iter().map(|s| s.ticks.start).collect();
        assert_eq!(starts, [0, 24, 56, 88, 120, 152, 184]);
        assert!(segs[..6].iter().all(|s| s.crashes == 1));
        assert_eq!(
            segs[6],
            Segment {
                ticks: 184..200,
                crashes: 0
            }
        );
        let table2 = Workload::by_name("table2-256").unwrap();
        assert_eq!(
            segments(&table2, 200),
            [Segment {
                ticks: 0..200,
                crashes: END_CRASHES
            }]
        );
    }
}
