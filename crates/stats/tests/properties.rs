//! Seeded property suite for the statistics substrate: χ² CDF
//! monotonicity and quantile round-trips, the closed-form χ² survival
//! function against the incomplete-gamma route and in its tail, the
//! incomplete-gamma survival's tail above 64 degrees of freedom, the
//! regularized-gamma complement identity, the sliding window against a
//! naive count, and the confusion-count rate identities.
//!
//! Each case derives its inputs from one seed and names it on failure,
//! so a failing case reruns alone.

use roboads_stats::gamma::{regularized_lower_gamma, regularized_upper_gamma};
use roboads_stats::{ChiSquared, ConfusionCounts, SlidingWindow};

#[path = "../../../tests/support/seeded.rs"]
mod seeded;

use seeded::{check, for_each_seed};

#[test]
fn chi_square_cdf_is_monotone_and_bounded() {
    for_each_seed(|rng| {
        let chi = ChiSquared::new(rng.index(1, 12)).unwrap();
        let (a, b) = (rng.uniform(0.01, 40.0), rng.uniform(0.01, 40.0));
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (cl, ch) = (chi.cdf(lo).unwrap(), chi.cdf(hi).unwrap());
        check((0.0..=1.0).contains(&cl), "CDF outside [0, 1]", cl)?;
        check((0.0..=1.0).contains(&ch), "CDF outside [0, 1]", ch)?;
        check(cl <= ch + 1e-12, "CDF decreasing", (lo, cl, hi, ch))
    });
}

#[test]
fn chi_square_quantile_round_trips() {
    for_each_seed(|rng| {
        let chi = ChiSquared::new(rng.index(1, 12)).unwrap();
        let p = rng.uniform(0.001, 0.999);
        let x = chi.inverse_cdf(p).unwrap();
        let err = (chi.cdf(x).unwrap() - p).abs();
        check(err < 1e-8, "CDF(quantile(p)) ≠ p", (p, err))
    });
}

#[test]
fn closed_form_survival_matches_the_incomplete_gamma_route() {
    // A grid over [0, 100] at every degree of freedom the detector's
    // innovation ranks reach, plus seeded points off the grid.
    let mut worst = 0.0f64;
    for dof in 1..=8usize {
        let chi = ChiSquared::new(dof).unwrap();
        for i in 0..=10_000 {
            let x = i as f64 * 0.01;
            let closed = chi.survival(x).unwrap();
            let gamma = regularized_upper_gamma(dof as f64 / 2.0, x / 2.0).unwrap();
            worst = worst.max((closed - gamma).abs());
            assert!(
                (closed - gamma).abs() <= 1e-13,
                "dof {dof}, x {x}: closed form {closed} vs incomplete gamma {gamma}"
            );
        }
    }
    assert!(worst > 0.0, "the routes are distinct computations");
    for_each_seed(|rng| {
        let dof = rng.index(1, 9);
        let x = rng.uniform(0.0, 100.0);
        let closed = ChiSquared::new(dof).unwrap().survival(x).unwrap();
        let gamma = regularized_upper_gamma(dof as f64 / 2.0, x / 2.0).unwrap();
        check(
            (closed - gamma).abs() <= 1e-13,
            "closed-form survival vs incomplete gamma",
            (dof, x, closed, gamma),
        )
    });
}

#[test]
fn survival_at_two_degrees_of_freedom_is_exactly_the_exponential() {
    let chi = ChiSquared::new(2).unwrap();
    for i in 0..=14_000 {
        let x = i as f64 * 0.1;
        let got = chi.survival(x).unwrap();
        assert_eq!(got.to_bits(), (-x / 2.0).exp().to_bits(), "x {x}");
    }
}

#[test]
fn survival_tail_is_positive_and_monotone_to_1400() {
    for dof in 1..=8usize {
        let chi = ChiSquared::new(dof).unwrap();
        let mut previous = chi.survival(0.0).unwrap();
        assert_eq!(previous, 1.0, "dof {dof}: survival(0)");
        for i in 1..=2_800 {
            let x = i as f64 * 0.5;
            let q = chi.survival(x).unwrap();
            assert!(q > 0.0, "dof {dof}, x {x}: tail underflowed to {q}");
            assert!(q < previous, "dof {dof}, x {x}: {q} not below {previous}");
            previous = q;
        }
    }
}

#[test]
fn survival_above_64_degrees_of_freedom_keeps_its_tail() {
    // Above 64 degrees of freedom the survival is the upper incomplete
    // gamma, which must not round its tail to zero where 1 − cdf does.
    for dof in [65usize, 100, 256] {
        let chi = ChiSquared::new(dof).unwrap();
        let mut previous = chi.survival(0.0).unwrap();
        let mut rounded_cdf_seen = false;
        for i in 1..=2_800 {
            let x = i as f64 * 0.5;
            let q = chi.survival(x).unwrap();
            assert!(q > 0.0, "dof {dof}, x {x}: tail underflowed to {q}");
            assert!(q <= previous, "dof {dof}, x {x}: {q} above {previous}");
            rounded_cdf_seen |= chi.cdf(x).unwrap() == 1.0;
            previous = q;
        }
        assert!(rounded_cdf_seen, "dof {dof}: the cdf never rounds to 1");
    }
}

#[test]
fn survival_rejects_the_cdf_domain() {
    let chi = ChiSquared::new(3).unwrap();
    for x in [-1.0, f64::NAN, f64::INFINITY] {
        assert!(chi.survival(x).is_err(), "x {x}");
        assert!(chi.cdf(x).is_err(), "x {x}");
    }
}

#[test]
fn gamma_complement_identity() {
    for_each_seed(|rng| {
        let (s, x) = (rng.uniform(0.5, 10.0), rng.uniform(0.0, 30.0));
        let p = regularized_lower_gamma(s, x).unwrap();
        let q = regularized_upper_gamma(s, x).unwrap();
        check((p + q - 1.0).abs() < 1e-10, "P + Q ≠ 1", (s, x, p, q))?;
        check((0.0..=1.0 + 1e-12).contains(&p), "P outside [0, 1]", p)
    });
}

#[test]
fn sliding_window_matches_naive_count() {
    for_each_seed(|rng| {
        let c = rng.index(1, 5);
        let w = c + rng.index(0, 4);
        let inputs: Vec<bool> = (0..rng.index(1, 60)).map(|_| rng.coin()).collect();
        let mut window = SlidingWindow::new(c, w).unwrap();
        for (k, &v) in inputs.iter().enumerate() {
            let fired = window.push(v);
            let start = k.saturating_sub(w - 1);
            let naive = inputs[start..=k].iter().filter(|&&b| b).count() >= c;
            check(fired == naive, "window ≠ naive count", (c, w, k))?;
        }
        Ok(())
    });
}

#[test]
fn confusion_rates_are_consistent() {
    for_each_seed(|rng| {
        let (tp, fp, fn_, tn) = (
            rng.index(0, 500) as u64,
            rng.index(0, 500) as u64,
            rng.index(0, 500) as u64,
            rng.index(0, 500) as u64,
        );
        let c = ConfusionCounts {
            true_positives: tp,
            false_positives: fp,
            false_negatives: fn_,
            true_negatives: tn,
        };
        check(c.total() == tp + fp + fn_ + tn, "total", c.total())?;
        if tp + fn_ > 0 {
            let sum = c.true_positive_rate() + c.false_negative_rate();
            check((sum - 1.0).abs() < 1e-12, "TPR + FNR ≠ 1", sum)?;
        }
        let f1 = c.f1_score();
        check((0.0..=1.0).contains(&f1), "F1 outside [0, 1]", f1)?;
        if tp > 0 {
            // F1 is the harmonic mean: between min and max of P and R.
            let (p, r) = (c.precision(), c.recall());
            check(f1 <= p.max(r) + 1e-12, "F1 above max(P, R)", (f1, p, r))?;
            check(f1 >= p.min(r) - 1e-12, "F1 below min(P, R)", (f1, p, r))?;
        }
        Ok(())
    });
}

#[test]
fn record_identified_never_counts_wrong_ids_as_true_positives() {
    for_each_seed(|rng| {
        let (truth, alarm, correct) = (rng.coin(), rng.coin(), rng.coin());
        let mut c = ConfusionCounts::default();
        c.record_identified(truth, alarm, correct);
        check(c.total() == 1, "one record, total", c.total())?;
        check(
            c.true_positives == 0 || (truth && alarm && correct),
            "true positive without a correct identification",
            (truth, alarm, correct),
        )
    });
}
