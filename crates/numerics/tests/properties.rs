//! Property-based tests for the numerical foundations: identities that
//! must hold over the whole parameter space, not just at hand-picked
//! points.

use mzd_numerics::integrate::{adaptive_simpson, GaussLegendre};
use mzd_numerics::minimize::brent_minimize;
use mzd_numerics::rng::{Gamma, LogNormal, Pareto, Sample};
use mzd_numerics::roots::brent;
use mzd_numerics::special::{gamma_p, gamma_q, inverse_gamma_p, ln_gamma, standard_normal_cdf};
use mzd_numerics::stats::{wilson_interval, OnlineStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gamma_p_is_a_cdf(a in 0.05f64..500.0, x in 0.0f64..2000.0) {
        let p = gamma_p(a, x).unwrap();
        prop_assert!((0.0..=1.0).contains(&p));
        // Monotone in x.
        let p2 = gamma_p(a, x + 0.5).unwrap();
        prop_assert!(p2 >= p - 1e-12);
        // Complement identity.
        let q = gamma_q(a, x).unwrap();
        prop_assert!((p + q - 1.0).abs() < 1e-10);
    }

    #[test]
    fn gamma_recurrence_holds(a in 0.2f64..300.0) {
        // ln Γ(a+1) = ln a + ln Γ(a)
        let lhs = ln_gamma(a + 1.0);
        let rhs = a.ln() + ln_gamma(a);
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn inverse_gamma_round_trip(a in 0.2f64..300.0, p in 0.0001f64..0.9999) {
        let x = inverse_gamma_p(a, p).unwrap();
        let p2 = gamma_p(a, x).unwrap();
        prop_assert!((p2 - p).abs() < 1e-7, "a={a}, p={p}: got {p2}");
    }

    #[test]
    fn normal_cdf_is_monotone_and_symmetric(x in -8.0f64..8.0) {
        let c = standard_normal_cdf(x);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(standard_normal_cdf(x + 0.25) >= c);
        prop_assert!((c + standard_normal_cdf(-x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quadratures_agree_on_smooth_integrands(
        a in -3.0f64..0.0,
        b in 0.5f64..4.0,
        k in 0.2f64..3.0,
        c in -2.0f64..2.0,
    ) {
        let f = move |x: f64| (c * x).sin() + (-k * x * x).exp();
        let gl = GaussLegendre::new(48).unwrap().integrate_panels(f, a, b, 4);
        let si = adaptive_simpson(f, a, b, 1e-11).unwrap();
        prop_assert!((gl - si).abs() < 1e-7 * si.abs().max(1.0), "gl {gl} vs simpson {si}");
    }

    #[test]
    fn brent_root_on_random_increasing_cubic(
        r in -5.0f64..5.0,
        s in 0.01f64..3.0,
    ) {
        // f(x) = s(x − r)³ + (x − r): strictly increasing, root at r.
        let f = move |x: f64| {
            let d = x - r;
            s * d * d * d + d
        };
        let root = brent(f, -10.0, 10.0, 1e-13).unwrap();
        prop_assert!((root - r).abs() < 1e-7, "root {root} vs {r}");
    }

    #[test]
    fn brent_minimum_of_random_quartic(
        m in -4.0f64..4.0,
        a4 in 0.05f64..2.0,
        a2 in 0.05f64..2.0,
    ) {
        // f(x) = a4(x−m)⁴ + a2(x−m)²: unique minimum at m.
        let f = move |x: f64| {
            let d = x - m;
            a4 * d * d * d * d + a2 * d * d
        };
        let found = brent_minimize(f, -10.0, 10.0, 1e-12).unwrap();
        prop_assert!((found.x - m).abs() < 1e-4, "min at {} vs {m}", found.x);
    }

    #[test]
    fn online_stats_matches_batch_on_random_data(data in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = OnlineStats::new();
        for &x in &data {
            s.push(x);
        }
        let mean = mzd_numerics::stats::mean(&data);
        let var = mzd_numerics::stats::variance(&data);
        prop_assert!((s.mean() - mean).abs() <= 1e-9 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-6 * var.abs().max(1.0));
    }

    #[test]
    fn wilson_interval_contains_point_estimate(successes in 0u64..1000, extra in 0u64..1000) {
        let trials = successes + extra;
        if trials > 0 {
            let ci = wilson_interval(successes, trials, 0.95);
            let p_hat = successes as f64 / trials as f64;
            prop_assert!(ci.contains(p_hat));
            prop_assert!(ci.lo >= 0.0 && ci.hi <= 1.0);
        }
    }

    #[test]
    fn samplers_respect_their_moments(
        mean in 1.0f64..1e6,
        cv in 0.05f64..1.2,
        seed in 0u64..100,
    ) {
        let var = (mean * cv) * (mean * cv);
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Gamma::from_mean_variance(mean, var).unwrap();
        let ln = LogNormal::from_mean_variance(mean, var).unwrap();
        let pa = Pareto::from_mean_variance(mean, var).unwrap();
        for d in [&g as &dyn SampleDyn, &ln, &pa] {
            prop_assert!((d.mean_dyn() - mean).abs() < 1e-6 * mean);
            // One draw is positive and finite.
            let x = d.sample_dyn(&mut rng);
            prop_assert!(x > 0.0 && x.is_finite());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Gamma draws (ziggurat normal, Marsaglia–Tsang squeeze, and the
    /// boost below shape 1) pass a one-sample Kolmogorov–Smirnov test
    /// against `gamma_p`. `D·√n < 2.1` is the Kolmogorov distribution's
    /// 1 − 0.01/32 point: a 1% family-wise level over the 32 cases.
    #[test]
    fn gamma_draws_pass_ks_across_shapes(shape in 0.2f64..50.0, seed in 0u64..1_000) {
        const N: usize = 10_000;
        let g = Gamma::new(shape, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x: Vec<f64> = (0..N).map(|_| g.sample(&mut rng)).collect();
        x.sort_by(f64::total_cmp);
        let n = N as f64;
        let d = x.iter().enumerate().fold(0.0f64, |d, (i, &x)| {
            let f = gamma_p(shape, x).unwrap();
            d.max(f - i as f64 / n).max((i + 1) as f64 / n - f)
        });
        prop_assert!(d * n.sqrt() < 2.1, "shape {shape}: D = {d}");
    }
}

/// Object-safe shim over [`Sample`] so the proptest above can loop over
/// heterogeneous distributions.
trait SampleDyn {
    fn sample_dyn(&self, rng: &mut StdRng) -> f64;
    fn mean_dyn(&self) -> f64;
}

impl<T: Sample> SampleDyn for T {
    fn sample_dyn(&self, rng: &mut StdRng) -> f64 {
        self.sample(rng)
    }
    fn mean_dyn(&self) -> f64 {
        self.mean()
    }
}
