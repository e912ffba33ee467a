//! The oracle every output is checked against, and the detection
//! scores computed from checked reports.
//!
//! Per template, one clone of the template detector is stepped with
//! `RoboAds::step` on exactly the values the generator wrote to the
//! wire. A trace's own `TraceRecord::report` is no oracle: the
//! simulator's detector consumed the bus-decoded command, while the
//! wire carries the planned command (see the tests below).

use roboads::core::{snapshot_detector, DetectionReport, RoboAds, ShardedFleet};
use roboads::sim::{evaluate, EvalResult, Scenario, Trace, TraceRecord};
use roboads::stats::ConfusionCounts;

use crate::workload::Workload;

/// Expected outputs per template.
#[derive(Debug, PartialEq)]
pub struct Oracle {
    /// Per template, the report of every tick; kept only for the set
    /// the traced run replays (empty otherwise).
    pub reports: Vec<Vec<DetectionReport>>,
    /// Per template, `snapshot_detector` bytes after the last tick.
    pub end_state: Vec<Vec<u8>>,
}

/// One template's oracle: a clone of `template` stepped through the
/// trace on the wire's values. Returns every tick's report and the end
/// state's `snapshot_detector` bytes.
///
/// # Errors
///
/// A step error: the workloads are chosen so that none occurs.
pub fn replay(
    template: &RoboAds,
    trace: &Trace,
) -> Result<(Vec<DetectionReport>, Vec<u8>), String> {
    let mut detector = template.clone();
    let reports = trace
        .records()
        .iter()
        .map(|record| {
            detector
                .step(&record.planned_command, &record.readings)
                .map_err(|e| format!("oracle step {} of {}: {e}", record.k, trace.scenario_name()))
        })
        .collect::<Result<_, _>>()?;
    Ok((reports, snapshot_detector(&detector)))
}

/// Outcome of comparing a fleet with the oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// Robots whose state or report differs from their oracle.
    pub robots: u64,
    /// Robots whose last step returned an error.
    pub errors: u64,
    /// Robots that differ from the first robot replaying their
    /// template.
    pub disagreeing: u64,
}

impl Mismatch {
    pub fn is_clean(&self) -> bool {
        *self == Mismatch::default()
    }

    pub fn add(&mut self, other: Mismatch) {
        self.robots += other.robots;
        self.errors += other.errors;
        self.disagreeing += other.disagreeing;
    }
}

/// Compares every robot's end state with its template's oracle, bit for
/// bit, and robots sharing a template with each other. `robot(i)` gives
/// robot `i`'s detector and whether its last step succeeded.
pub fn check_end_state<'a>(
    robot: impl Fn(usize) -> Option<(&'a RoboAds, bool)>,
    workload: &Workload,
    oracle: &Oracle,
) -> Mismatch {
    let mut out = Mismatch::default();
    let mut first: Vec<Option<Vec<u8>>> = vec![None; oracle.end_state.len()];
    for i in 0..workload.robots {
        let t = workload.template_of(i);
        let Some((detector, ok)) = robot(i) else {
            out.robots += 1;
            continue;
        };
        let bytes = snapshot_detector(detector);
        if bytes != oracle.end_state[t] {
            out.robots += 1;
        }
        if !ok {
            out.errors += 1;
        }
        match &first[t] {
            Some(peer) if *peer != bytes => out.disagreeing += 1,
            Some(_) => {}
            None => first[t] = Some(bytes),
        }
    }
    out
}

/// Compares every robot's report of tick `k` with its oracle. `robot(i)`
/// gives robot `i`'s last report and whether its last step succeeded.
pub fn check_reports<'a>(
    robot: impl Fn(usize) -> (Option<&'a DetectionReport>, bool),
    workload: &Workload,
    oracle: &Oracle,
    k: usize,
) -> Mismatch {
    let mut out = Mismatch::default();
    for i in 0..workload.robots {
        let (report, ok) = robot(i);
        if report != Some(&oracle.reports[workload.template_of(i)][k]) {
            out.robots += 1;
        }
        if !ok {
            out.errors += 1;
        }
    }
    out
}

/// `robot(i)` for [`check_end_state`] over a sharded fleet.
pub fn fleet_detector<'a>(
    fleet: &'a ShardedFleet,
    ids: &'a [u64],
) -> impl Fn(usize) -> Option<(&'a RoboAds, bool)> {
    move |i| {
        let detector = fleet.detector(ids[i])?;
        Some((detector, matches!(fleet.result(ids[i]), Some(Ok(())))))
    }
}

/// Detection quality of the checked reports, scored by
/// `roboads_sim::evaluate` against each scenario's ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Mean over attacked robots of the delay from the first onset to
    /// the identification of the new condition, simulated seconds. A
    /// missed onset counts as the rest of the run. A mean, not a
    /// median: delays sit on the 0.1 s tick grid, so the median reads
    /// the same grid point on every seed and hides drift.
    pub delay_s: f64,
    /// Pooled sensor + actuator false-positive rate (Table III).
    pub fpr: f64,
    /// Pooled sensor + actuator false-negative rate (Table III).
    pub fnr: f64,
}

/// The trace of `trace`'s run with the detector's reports replaced by
/// `reports`.
pub fn with_reports(trace: &Trace, reports: &[DetectionReport]) -> Trace {
    let mut out = Trace::new(trace.dt(), trace.scenario_name());
    for (record, report) in trace.records().iter().zip(reports) {
        out.push(TraceRecord {
            report: report.clone(),
            ..record.clone()
        });
    }
    out
}

/// Scores one template's checked reports against its scenario.
pub fn score(trace: &Trace, reports: &[DetectionReport], scenario: &Scenario) -> EvalResult {
    evaluate(&with_reports(trace, reports), &scenario.ground_truth())
}

/// Pools template scores, each weighted by the robots replaying it.
#[derive(Debug, Default)]
pub struct Tally {
    pooled: ConfusionCounts,
    delay_sum: f64,
    attacked: u64,
}

impl Tally {
    /// Adds one template's score; `run_s` is the length of its run.
    pub fn add(&mut self, eval: &EvalResult, weight: u64, run_s: f64) {
        for counts in [eval.sensor_counts, eval.actuator_counts] {
            self.pooled.true_positives += weight * counts.true_positives;
            self.pooled.false_positives += weight * counts.false_positives;
            self.pooled.false_negatives += weight * counts.false_negatives;
            self.pooled.true_negatives += weight * counts.true_negatives;
        }
        let onset = eval
            .sensor_transitions
            .iter()
            .chain(&eval.actuator_transitions)
            .filter(|tr| tr.condition != "S0" && tr.condition != "A0")
            .min_by(|a, b| a.at.total_cmp(&b.at));
        if let Some(onset) = onset {
            let delay = onset.delay.unwrap_or(run_s - onset.at);
            self.delay_sum += weight as f64 * delay;
            self.attacked += weight;
        }
    }

    pub fn detection(&self) -> Detection {
        Detection {
            delay_s: self.delay_sum / self.attacked as f64,
            fpr: self.pooled.false_positive_rate(),
            fnr: self.pooled.false_negative_rate(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roboads::core::RoboAdsConfig;
    use roboads::sim::bus::{Frame, COMMAND_ID};
    use roboads::sim::{evaluation_detector, RobotKind, SimulationBuilder};

    /// Replays `trace` through a fresh evaluation detector on `command`
    /// and counts the ticks whose report differs from the trace's own.
    fn differing_ticks(
        trace: &Trace,
        command: impl Fn(&TraceRecord) -> roboads::linalg::Vector,
    ) -> (usize, usize) {
        let mut detector =
            evaluation_detector(RobotKind::Khepera, &RoboAdsConfig::paper_defaults()).unwrap();
        let mut differ = 0;
        let mut flags_differ = 0;
        for record in trace.records() {
            let report = detector.step(&command(record), &record.readings).unwrap();
            if report != record.report {
                differ += 1;
            }
            if (
                report.sensor_alarm,
                report.actuator_alarm,
                &report.misbehaving_sensors,
            ) != (
                record.report.sensor_alarm,
                record.report.actuator_alarm,
                &record.report.misbehaving_sensors,
            ) {
                flags_differ += 1;
            }
        }
        (differ, flags_differ)
    }

    /// `TraceRecord::report` is not an oracle for a wire replay: the
    /// simulator's detector consumed the bus-decoded command (fixed
    /// point, 1e-9 quantum), but the wire carries the raw planned
    /// command, as `stream_traces` does. Replaying the planned command
    /// changes the reports on almost every tick, while the alarm flags
    /// stay identical, so a flag-level comparison would hide the
    /// difference and a report-level one would fail every run. Replaying
    /// the bus-decoded command reproduces the trace's reports exactly.
    #[test]
    fn trace_reports_follow_the_bus_decoded_command_not_the_wire() {
        let trace = SimulationBuilder::khepera()
            .scenario(Scenario::ips_spoofing())
            .seed(5)
            .duration(120)
            .run()
            .unwrap()
            .trace;
        let (differ, flags_differ) = differing_ticks(&trace, |r| r.planned_command.clone());
        assert!(
            differ > trace.len() * 9 / 10,
            "only {differ} of {} ticks differ",
            trace.len()
        );
        assert_eq!(flags_differ, 0);
        let (differ, _) = differing_ticks(&trace, |r| {
            Frame::encode(COMMAND_ID, "planner", &r.planned_command).decode()
        });
        assert_eq!(differ, 0);
    }

    #[test]
    fn the_oracle_is_deterministic_and_fleet_robots_agree_with_it() {
        use crate::workload::{cloning_factory, evaluation_path, simulate, template_detector};
        let workload = Workload::by_name("table2-256").unwrap();
        let path = evaluation_path().unwrap();
        let template = template_detector(&path).unwrap();
        let scenarios = [Scenario::clean(), Scenario::wheel_logic_bomb()];
        let traces: Vec<Trace> = scenarios
            .iter()
            .zip([3, 4])
            .map(|(s, seed)| {
                let mut t = simulate(s, seed, &path).unwrap();
                let records: Vec<TraceRecord> = t.records()[..30].to_vec();
                t = Trace::new(t.dt(), t.scenario_name());
                records.into_iter().for_each(|r| t.push(r));
                t
            })
            .collect();
        let build = || {
            let (reports, end_state) = traces.iter().map(|t| replay(&template, t).unwrap()).unzip();
            Oracle { reports, end_state }
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert!(a.end_state[0] != a.end_state[1], "templates must differ");

        // A robot fed the same values through the service lands on the
        // oracle's bytes; one fed another template's values does not.
        let mut fleet =
            ShardedFleet::new(&[0, 1], cloning_factory(&template), workload.shard_config())
                .unwrap();
        for k in 0..30 {
            for id in 0..2u64 {
                let r = &traces[0].records()[k];
                fleet.offer_input(id, &r.planned_command, k as u64).unwrap();
                for (s, reading) in r.readings.iter().enumerate() {
                    fleet.offer(id, s, reading, k as u64).unwrap();
                }
            }
            fleet.step().unwrap();
        }
        let two = Workload {
            robots: 2,
            ..workload
        };
        let mismatch = check_end_state(fleet_detector(&fleet, &[0, 1]), &two, &a);
        // Robot 1 replays template 1 in the workload's mapping but was
        // fed template 0: exactly it mismatches.
        assert_eq!(mismatch.robots, 1);
        assert_eq!(mismatch.errors, 0);
        assert_eq!(mismatch.disagreeing, 0);
    }
}
