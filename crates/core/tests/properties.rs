//! Seeded property suite for the NUISE estimator (Algorithm 2) over
//! random poses, commands, attacks and mode hypotheses: clean data gives
//! null anomalies, injected actuator and testing-sensor biases are
//! recovered, covariances stay PSD under arbitrary readings, and a
//! corrupted reference is less consistent than a clean one.
//!
//! Each case derives its inputs from one seed and names it on failure,
//! so a failing case reruns alone.

use roboads_core::{nuise_step, Linearization, Mode, NuiseInput, NuiseOutput};
use roboads_linalg::{Matrix, Vector};
use roboads_models::{presets, RobotSystem};

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::{check, for_each_seed, Rng};

/// This suite's draws on the shared generator.
trait Draw {
    /// A pose inside the Khepera arena.
    fn pose(&mut self) -> Vector;
}

impl Draw for Rng {
    fn pose(&mut self) -> Vector {
        Vector::from_slice(&[
            self.uniform(0.5, 3.5),
            self.uniform(0.5, 3.5),
            self.uniform(-3.0, 3.0),
        ])
    }
}

fn clean_readings(system: &RobotSystem, x: &Vector) -> Vec<Vector> {
    (0..system.sensor_count())
        .map(|i| system.sensor(i).unwrap().measure(x))
        .collect()
}

/// The mode that references `reference` and tests the other two
/// Khepera sensors.
fn one_reference(reference: usize) -> Mode {
    let testing: Vec<usize> = (0..3).filter(|&i| i != reference).collect();
    Mode::new(vec![reference], testing)
}

/// One NUISE step from `x0` with the suite's prior covariance.
fn step(
    system: &RobotSystem,
    mode: &Mode,
    x0: &Vector,
    u: &Vector,
    readings: &[Vector],
) -> Result<NuiseOutput, String> {
    nuise_step(NuiseInput {
        system,
        mode,
        x_prev: x0,
        p_prev: &(Matrix::identity(3) * 1e-4),
        u_prev: u,
        readings,
        linearization: &Linearization::PerIteration,
        compensate: true,
    })
    .map_err(|e| format!("nuise_step failed: {e}"))
}

#[test]
fn clean_data_yields_null_anomalies_everywhere() {
    let system = presets::khepera_system();
    for_each_seed(|rng| {
        let x0 = rng.pose();
        let u = Vector::from_slice(&[rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15)]);
        let mode = one_reference(rng.below(3));
        let x1 = system.dynamics().step(&x0, &u);
        let out = step(&system, &mode, &x0, &u, &clean_readings(&system, &x1))?;
        check(
            out.actuator_anomaly.max_abs() < 1e-8,
            "actuator anomaly on clean data",
            &out.actuator_anomaly,
        )?;
        check(
            out.sensor_anomaly.max_abs() < 1e-8,
            "sensor anomaly on clean data",
            &out.sensor_anomaly,
        )?;
        check(out.likelihood > 0.0, "likelihood", out.likelihood)?;
        check(out.consistency > 0.999, "consistency", out.consistency)
    });
}

#[test]
fn injected_actuator_bias_is_recovered_exactly_for_linear_input_channels() {
    let system = presets::khepera_system();
    for_each_seed(|rng| {
        let x0 = rng.pose();
        let bias = Vector::from_slice(&[rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)]);
        let mode = one_reference(rng.below(3));
        let u = Vector::from_slice(&[0.08, 0.06]);
        let x1 = system.dynamics().step(&x0, &(&u + &bias));
        let out = step(&system, &mode, &x0, &u, &clean_readings(&system, &x1))?;
        // Differential drive is linear in u: the WLS estimate is exact.
        check(
            (&out.actuator_anomaly - &bias).max_abs() < 1e-6,
            "estimated vs injected actuator bias",
            (&out.actuator_anomaly, &bias),
        )?;
        // Compensation keeps the state exact too.
        check(
            (&out.state_estimate - &x1).max_abs() < 1e-6,
            "compensated state vs truth",
            (&out.state_estimate, &x1),
        )
    });
}

#[test]
fn injected_testing_sensor_bias_is_recovered() {
    let system = presets::khepera_system();
    // Reference IPS, corrupt the encoder (testing offset 0..3).
    let mode = Mode::new(vec![0], vec![1, 2]);
    for_each_seed(|rng| {
        let x0 = rng.pose();
        let bias = rng.uniform(-0.2, 0.2);
        let component = rng.below(3);
        let u = Vector::from_slice(&[0.06, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        let mut readings = clean_readings(&system, &x1);
        readings[1][component] += bias;
        let out = step(&system, &mode, &x0, &u, &readings)?;
        check(
            (out.sensor_anomaly[component] - bias).abs() < 1e-6,
            "estimated vs injected sensor bias",
            (component, out.sensor_anomaly[component], bias),
        )
    });
}

#[test]
fn covariances_are_psd_for_arbitrary_readings() {
    // Even wildly inconsistent readings must not break PSD-ness.
    let system = presets::khepera_system();
    let mode = Mode::new(vec![1], vec![0, 2]);
    for_each_seed(|rng| {
        let x0 = rng.pose();
        let z_noise: Vec<f64> = (0..10).map(|_| rng.uniform(-0.3, 0.3)).collect();
        let u = Vector::from_slice(&[0.05, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        let mut readings = clean_readings(&system, &x1);
        let mut idx = 0;
        for r in &mut readings {
            for c in 0..r.len() {
                r[c] += z_noise[idx % z_noise.len()];
                idx += 1;
            }
        }
        let out = step(&system, &mode, &x0, &u, &readings)?;
        for (name, cov) in [
            ("state", &out.state_covariance),
            ("actuator", &out.actuator_covariance),
            ("sensor", &out.sensor_covariance),
        ] {
            check(
                cov.is_positive_semi_definite(1e-9).unwrap(),
                &format!("{name} covariance not PSD"),
                cov,
            )?;
        }
        check(
            out.likelihood.is_finite() && out.likelihood >= 0.0,
            "likelihood",
            out.likelihood,
        )?;
        check(
            (0.0..=1.0).contains(&out.consistency),
            "consistency",
            out.consistency,
        )
    });
}

#[test]
fn corrupted_reference_is_less_consistent_than_clean_reference() {
    let system = presets::khepera_system();
    for_each_seed(|rng| {
        let x0 = rng.pose();
        let bias = rng.uniform(0.1, 0.3);
        let u = Vector::from_slice(&[0.06, 0.05]);
        let x1 = system.dynamics().step(&x0, &u);
        let mut readings = clean_readings(&system, &x1);
        readings[2][1] += bias; // corrupt the LiDAR south-wall channel
        let clean_ref = step(&system, &Mode::new(vec![0], vec![1, 2]), &x0, &u, &readings)?;
        let corrupt_ref = step(&system, &Mode::new(vec![2], vec![0, 1]), &x0, &u, &readings)?;
        check(
            clean_ref.consistency > corrupt_ref.consistency,
            "clean vs corrupt reference consistency",
            (clean_ref.consistency, corrupt_ref.consistency),
        )
    });
}
