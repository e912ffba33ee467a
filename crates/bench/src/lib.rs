//! Shared machinery for the experiment harnesses.
//!
//! Each `benches/*.rs` target (run via `cargo bench -p roboads-bench`)
//! regenerates one table or figure of the paper (see `DESIGN.md` §5 for
//! the experiment index and `EXPERIMENTS.md` for recorded results).
//! This library holds what they share: batched scenario execution,
//! aggregation across seeds, order-preserving parallel mapping on the
//! workspace's `roboads-pool` workers (no external crates: the tier-1
//! build must resolve offline), and table formatting.

use roboads_core::RoboAdsConfig;
use roboads_pool::Pool;
use roboads_sim::{EvalResult, Scenario, SimOutcome, SimulationBuilder};
use roboads_stats::ConfusionCounts;

/// Seeds used when aggregating a scenario over repeated runs.
pub const DEFAULT_SEEDS: [u64; 5] = [11, 23, 37, 53, 71];

/// Runs one Khepera scenario with the given configuration and seed.
///
/// # Panics
///
/// Panics on simulation failure — harnesses treat any failure as fatal
/// so a broken configuration cannot silently produce an empty table.
pub fn run_khepera(scenario: &Scenario, config: &RoboAdsConfig, seed: u64) -> SimOutcome {
    SimulationBuilder::khepera()
        .scenario(scenario.clone())
        .config(config.clone())
        .seed(seed)
        .run()
        .expect("khepera scenario run")
}

/// Runs one Tamiya scenario.
///
/// # Panics
///
/// Panics on simulation failure, as [`run_khepera`] does.
pub fn run_tamiya(scenario: &Scenario, config: &RoboAdsConfig, seed: u64) -> SimOutcome {
    SimulationBuilder::tamiya()
        .scenario(scenario.clone())
        .config(config.clone())
        .seed(seed)
        .run()
        .expect("tamiya scenario run")
}

/// Aggregate of several runs of the same scenario.
#[derive(Debug, Clone)]
pub struct ScenarioAggregate {
    /// Scenario name.
    pub name: String,
    /// Table II row number.
    pub number: usize,
    /// Merged sensor confusion counts.
    pub sensor: ConfusionCounts,
    /// Merged actuator confusion counts.
    pub actuator: ConfusionCounts,
    /// Mean sensor detection delay (s) over runs that had one.
    pub sensor_delay: Option<f64>,
    /// Mean actuator detection delay (s) over runs that had one.
    pub actuator_delay: Option<f64>,
    /// Detected sensor-condition sequence from the first run, e.g.
    /// `S0→S2→S4`.
    pub sensor_sequence: String,
    /// Detected actuator-condition sequence from the first run.
    pub actuator_sequence: String,
}

/// Merges per-seed evaluation results into one scenario row.
pub fn aggregate(name: &str, number: usize, evals: &[EvalResult]) -> ScenarioAggregate {
    let mut sensor = ConfusionCounts::default();
    let mut actuator = ConfusionCounts::default();
    let mut sensor_delays = Vec::new();
    let mut actuator_delays = Vec::new();
    for e in evals {
        sensor.merge(&e.sensor_counts);
        actuator.merge(&e.actuator_counts);
        if let Some(d) = e.sensor_delay() {
            sensor_delays.push(d);
        }
        if let Some(d) = e.actuator_delay() {
            actuator_delays.push(d);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    };
    ScenarioAggregate {
        name: name.to_string(),
        number,
        sensor,
        actuator,
        sensor_delay: mean(&sensor_delays),
        actuator_delay: mean(&actuator_delays),
        sensor_sequence: evals
            .first()
            .map(|e| e.detected_sensor_sequence.join("→"))
            .unwrap_or_default(),
        actuator_sequence: evals
            .first()
            .map(|e| e.detected_actuator_sequence.join("→"))
            .unwrap_or_default(),
    }
}

/// Maps `jobs` through `f` on a `threads`-worker [`Pool`], preserving
/// input order in the output (each job writes its pre-assigned slot —
/// no sorting pass, and the same pool type the fleet engine steps
/// robots on).
///
/// # Panics
///
/// Propagates a worker panic (a failing scenario run must not silently
/// produce an empty table).
pub fn parallel_map<T, R, F>(jobs: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    Pool::new(threads).map(jobs, f)
}

/// Formats a rate as a percentage with two decimals, `"-"` when the
/// denominator never occurred (paper convention).
pub fn pct(rate: f64, applicable: bool) -> String {
    if applicable {
        format!("{:.2}%", rate * 100.0)
    } else {
        "-".to_string()
    }
}

/// Formats an optional delay in seconds.
pub fn delay(d: Option<f64>) -> String {
    match d {
        Some(d) => format!("{d:.2}"),
        None => "-".to_string(),
    }
}

/// Number of worker threads for sweeps: available parallelism minus one.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), 8, |i: usize| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_thread_and_empty() {
        let out = parallel_map(vec![1, 2, 3], 1, |i: i32| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let empty: Vec<i32> = parallel_map(Vec::<i32>::new(), 4, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.0123, true), "1.23%");
        assert_eq!(pct(0.5, false), "-");
        assert_eq!(delay(Some(0.4)), "0.40");
        assert_eq!(delay(None), "-");
        assert!(sweep_threads() >= 1);
    }

    #[test]
    fn aggregate_merges_counts_and_delays() {
        use roboads_sim::Scenario;
        let config = RoboAdsConfig::paper_defaults();
        let scenario = Scenario::ips_logic_bomb();
        let evals: Vec<EvalResult> = [5u64, 6]
            .iter()
            .map(|&s| {
                let mut sc = scenario.clone();
                // Shorten for test speed.
                sc = Scenario::new(
                    sc.number(),
                    sc.name().to_string(),
                    sc.description().to_string(),
                    sc.misbehaviors().to_vec(),
                    80,
                );
                run_khepera(&sc, &config, s).eval
            })
            .collect();
        let agg = aggregate("ips-logic-bomb", 3, &evals);
        assert_eq!(agg.number, 3);
        assert!(agg.sensor.total() > 0);
        assert!(agg.sensor_delay.is_some());
        assert!(agg.sensor_sequence.contains("S1"));
    }
}
