//! The χ² statistics the detector tests — the aggregate sensor test,
//! the cross-mode conflict tests and the per-testing-sensor parsimony
//! statistics — whiten full-rank covariances with a Cholesky factor and
//! keep the Jacobi pseudo-inverse only as a per-lane fallback for a
//! covariance the factorization rejects. The covariances are full rank
//! by construction (`C₁·P·C₁ᵀ + R₁` with `R₁ ≻ 0`), so on real traffic
//! the fallback must stay idle: every Table II scenario, stepped one
//! robot at a time (K = 1) and as one fleet on the 8-lane slab path
//! (K = 8), takes zero fallbacks.
//!
//! The innovation covariance Pν is structurally rank-deficient, with a
//! range known in advance (the null space of the input-estimate gain),
//! and takes a projected Cholesky with the same kind of Jacobi
//! fallback; its rank is structural, so that fallback must stay idle on
//! the same runs too.
//!
//! The fallback tallies are process-global
//! (`roboads_linalg::health::HealthSnapshot::{cholesky_fallbacks,
//! projection_fallbacks}`), so this suite is its own test binary with a
//! single test: nothing else whitens or projects concurrently.

use roboads::core::{FleetEngine, RoboAds, RoboAdsConfig, RobotInput};
use roboads::linalg::{health, Matrix, Vector};
use roboads::sim::{evaluation_detector, RobotKind, Scenario, SimulationBuilder};
use roboads::stats::normalized_statistic;

/// One robot's recorded inputs: `(u_prev, readings)` per tick.
type Inputs = Vec<(Vector, Vec<Vector>)>;

/// The monitor-side inputs of every Table II scenario (the clean
/// mission included).
fn table2_inputs() -> Vec<Inputs> {
    let mut scenarios = vec![Scenario::clean()];
    scenarios.extend(Scenario::all_khepera());
    scenarios
        .into_iter()
        .map(|scenario| {
            SimulationBuilder::khepera()
                .scenario(scenario)
                .seed(11)
                .run()
                .unwrap()
                .trace
                .records()
                .iter()
                .map(|r| (r.planned_command.clone(), r.readings.clone()))
                .collect()
        })
        .collect()
}

/// Steps every scenario on its own detector (the one-lane paths).
fn scalar_path(template: &RoboAds, runs: &[Inputs]) {
    for inputs in runs {
        let mut detector = template.clone();
        for (u, readings) in inputs {
            detector.step(u, readings).unwrap();
        }
    }
}

/// Steps every scenario at once as one fleet: one signature group, a
/// full 8-lane tile plus a remainder.
fn fleet_path(template: &RoboAds, runs: &[Inputs]) {
    let mut fleet = FleetEngine::new(vec![template.clone(); runs.len()], 1);
    let ticks = runs.iter().map(Vec::len).max().unwrap();
    for k in 0..ticks {
        let batch: Vec<Option<RobotInput<'_>>> = runs
            .iter()
            .map(|inputs| {
                inputs.get(k).map(|(u, readings)| RobotInput {
                    u_prev: u,
                    readings,
                })
            })
            .collect();
        fleet.step_batch_masked(&batch).unwrap();
        assert!(fleet.slab_robots() > 0, "tick {k}: the slab path must run");
    }
}

#[test]
fn table2_scenarios_take_no_pseudo_inverse_fallback_at_one_and_eight_lanes() {
    let runs = table2_inputs();
    let template =
        evaluation_detector(RobotKind::Khepera, &RoboAdsConfig::paper_defaults()).unwrap();

    let before = health::snapshot();
    scalar_path(&template, &runs);
    let scalar = health::snapshot().since(&before);
    assert_eq!(
        scalar.cholesky_fallbacks, 0,
        "one-lane path fell back to the pseudo-inverse"
    );
    assert_eq!(
        scalar.projection_fallbacks, 0,
        "one-lane path fell back to the Jacobi for Pν"
    );

    let before = health::snapshot();
    fleet_path(&template, &runs);
    let fleet = health::snapshot().since(&before);
    assert_eq!(
        fleet.cholesky_fallbacks, 0,
        "8-lane slab path fell back to the pseudo-inverse"
    );
    assert_eq!(
        fleet.projection_fallbacks, 0,
        "8-lane slab path fell back to the Jacobi for Pν"
    );

    // The tally is live: one singular covariance takes one fallback.
    let before = health::snapshot();
    let singular = Matrix::from_diagonal(&[1.0, 0.0]);
    normalized_statistic(&Vector::from_slice(&[1.0, 1.0]), &singular).unwrap();
    assert_eq!(health::snapshot().since(&before).cholesky_fallbacks, 1);
    // So is the projection's: variance along the constraint's row space
    // takes one fallback.
    let before = health::snapshot();
    let constraint = Matrix::from_rows(&[&[1.0, 0.0]]).unwrap();
    let leaky = Matrix::from_diagonal(&[1.0, 1.0]);
    let projected = leaky
        .projected_pseudo_inverse(Some(&constraint), &Vector::from_slice(&[1.0, 1.0]), 1e-12)
        .unwrap();
    assert!(projected.is_none());
    assert_eq!(health::snapshot().since(&before).projection_fallbacks, 1);
}
