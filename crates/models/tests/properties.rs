//! Seeded property suite for the dynamics/sensor/environment substrate:
//! angle wrapping, analytic Jacobians against numeric differentiation,
//! bounded unicycle motion, and arena raycast/segment geometry.
//!
//! Each case derives its inputs from one seed and names it on failure,
//! so a failing case reruns alone.

use roboads_linalg::Vector;
use roboads_models::dynamics::{Bicycle, DifferentialDrive, Unicycle};
use roboads_models::{
    numeric_jacobian, numeric_jacobian_wrt, presets, wrap_angle, Arena, DynamicsModel,
};

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::{check, for_each_seed, Rng};

/// This suite's draws on the shared generator.
trait Draw {
    /// A pose inside the 4 m evaluation arena, clear of the walls.
    fn pose(&mut self) -> (f64, f64, f64);
}

impl Draw for Rng {
    fn pose(&mut self) -> (f64, f64, f64) {
        (
            self.uniform(0.3, 3.7),
            self.uniform(0.3, 3.7),
            self.uniform(-3.1, 3.1),
        )
    }
}

#[test]
fn wrap_angle_stays_in_range_and_preserves_direction() {
    use std::f64::consts::PI;
    for_each_seed(|rng| {
        let (_, _, theta) = rng.pose();
        let turns = rng.uniform(-5.0, 5.0).floor();
        let unwrapped = theta + turns * 2.0 * PI;
        let w = wrap_angle(unwrapped);
        check(w > -PI - 1e-12 && w <= PI + 1e-12, "outside (−π, π]", w)?;
        // Same point on the circle.
        check(
            (w.sin() - unwrapped.sin()).abs() < 1e-9 && (w.cos() - unwrapped.cos()).abs() < 1e-9,
            "direction changed",
            (unwrapped, w),
        )
    });
}

#[test]
fn differential_drive_jacobians_match_numeric() {
    let dd = DifferentialDrive::new(0.0885, 0.1).unwrap();
    for_each_seed(|rng| {
        let (x, y, theta) = rng.pose();
        let state = Vector::from_slice(&[x, y, theta]);
        let u = Vector::from_slice(&[rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)]);
        let a = dd.state_jacobian(&state, &u);
        let a_num = numeric_jacobian(&|xx: &Vector| dd.step(xx, &u), &state, 3);
        let err = (&a - &a_num).max_abs();
        check(err < 1e-5, "state Jacobian", err)?;
        let g = dd.input_jacobian(&state, &u);
        let g_num =
            numeric_jacobian_wrt(&|xx: &Vector, uu: &Vector| dd.step(xx, uu), &state, &u, 3);
        let err = (&g - &g_num).max_abs();
        check(err < 1e-5, "input Jacobian", err)
    });
}

#[test]
fn bicycle_jacobians_match_numeric_inside_the_steering_range() {
    let car = Bicycle::new(0.257, 0.45, 0.1).unwrap();
    for_each_seed(|rng| {
        let (x, y, theta) = rng.pose();
        let state = Vector::from_slice(&[x, y, theta]);
        let u = Vector::from_slice(&[rng.uniform(-0.3, 0.3), rng.uniform(-0.4, 0.4)]);
        let a = car.state_jacobian(&state, &u);
        let a_num = numeric_jacobian(&|xx: &Vector| car.step(xx, &u), &state, 3);
        let err = (&a - &a_num).max_abs();
        check(err < 1e-4, "state Jacobian", err)?;
        let g = car.input_jacobian(&state, &u);
        let g_num =
            numeric_jacobian_wrt(&|xx: &Vector, uu: &Vector| car.step(xx, uu), &state, &u, 3);
        let err = (&g - &g_num).max_abs();
        check(err < 1e-4, "input Jacobian", err)
    });
}

#[test]
fn unicycle_motion_distance_is_bounded_by_speed() {
    let uni = Unicycle::new(0.1).unwrap();
    for_each_seed(|rng| {
        let (x, y, theta) = rng.pose();
        let (v, omega) = (rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0));
        let x0 = Vector::from_slice(&[x, y, theta]);
        let x1 = uni.step(&x0, &Vector::from_slice(&[v, omega]));
        let moved = ((x1[0] - x0[0]).powi(2) + (x1[1] - x0[1]).powi(2)).sqrt();
        check(
            moved <= v.abs() * 0.1 + 1e-12,
            "moved beyond v·Δt",
            (moved, v),
        )
    });
}

#[test]
fn raycast_hits_are_within_the_arena_diagonal() {
    let arena = presets::evaluation_arena();
    let diagonal = (arena.width().powi(2) + arena.height().powi(2)).sqrt();
    for_each_seed(|rng| {
        let (x, y, theta) = rng.pose();
        let hit = arena.raycast(x, y, theta).expect("inside the arena");
        check(
            (0.0..=diagonal + 1e-9).contains(&hit.distance),
            "hit distance outside [0, diagonal]",
            hit.distance,
        )?;
        // The hit point lies inside (or on the boundary of) the arena.
        let hx = x + hit.distance * theta.cos();
        let hy = y + hit.distance * theta.sin();
        check(
            hx >= -1e-9 && hx <= arena.width() + 1e-9 && hy >= -1e-9 && hy <= arena.height() + 1e-9,
            "hit point outside the arena",
            (hx, hy),
        )
    });
}

#[test]
fn free_points_have_clear_raycasts_up_to_the_hit() {
    let arena = presets::evaluation_arena();
    for_each_seed(|rng| {
        let (x, y, theta) = rng.pose();
        if !arena.is_free(x, y, 0.05) {
            return Ok(());
        }
        let hit = arena.raycast(x, y, theta).expect("inside the arena");
        // Half-way to the hit must be free space for a point robot.
        let t = hit.distance * 0.5;
        let (mx, my) = (x + t * theta.cos(), y + t * theta.sin());
        check(
            hit.distance <= 0.2 || arena.is_free(mx, my, 0.0),
            "midpoint blocked before the hit",
            (mx, my, hit.distance),
        )
    });
}

#[test]
fn every_sensor_measurement_matches_its_jacobian_numerically() {
    let system = presets::khepera_system();
    for_each_seed(|rng| {
        let (x, y, theta) = rng.pose();
        let state = Vector::from_slice(&[x, y, theta]);
        for i in 0..system.sensor_count() {
            let sensor = system.sensor(i).unwrap();
            let c = sensor.jacobian(&state);
            let c_num = numeric_jacobian(&|xx: &Vector| sensor.measure(xx), &state, sensor.dim());
            let err = (&c - &c_num).max_abs();
            check(err < 1e-5, &format!("sensor {i} Jacobian"), err)?;
        }
        Ok(())
    });
}

#[test]
fn arena_segments_between_free_points_agree_with_sampling() {
    // Empty arena: every segment between interior points is free.
    let arena = Arena::new(4.0, 4.0).unwrap();
    for_each_seed(|rng| {
        let ((x0, y0, _), (x1, y1, _)) = (rng.pose(), rng.pose());
        check(
            arena.segment_is_free(x0, y0, x1, y1, 0.05),
            "segment blocked in an empty arena",
            (x0, y0, x1, y1),
        )
    });
}
