//! Property-based tests for the workload models.

use mzd_workload::gop::GopModel;
use mzd_workload::{SizeDistribution, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn parametric_sizes_sample_positive_finite(
        mean in 1_000.0f64..5e6,
        cv in 0.05f64..1.5,
        seed in 0u64..50,
    ) {
        let var = (mean * cv).powi(2);
        let mut rng = StdRng::seed_from_u64(seed);
        for d in [
            SizeDistribution::gamma(mean, var).unwrap(),
            SizeDistribution::log_normal(mean, var).unwrap(),
            SizeDistribution::pareto(mean, var).unwrap(),
        ] {
            for _ in 0..50 {
                let s = d.sample(&mut rng);
                prop_assert!(s > 0.0 && s.is_finite(), "{}: {s}", d.name());
            }
            prop_assert!((d.mean() - mean).abs() < 1e-6 * mean);
            prop_assert!((d.second_moment() - (var + mean * mean)).abs() < 1e-3 * (var + mean * mean));
        }
    }

    #[test]
    fn gamma_quantiles_are_monotone(
        mean in 1_000.0f64..5e6,
        cv in 0.05f64..1.5,
    ) {
        let d = SizeDistribution::gamma(mean, (mean * cv).powi(2)).unwrap();
        let mut prev = 0.0;
        for i in 1..20 {
            let q = d.quantile(f64::from(i) / 20.0).unwrap().unwrap();
            prop_assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn trace_statistics_are_consistent(sizes in prop::collection::vec(1.0f64..1e6, 2..120)) {
        let t = Trace::new(sizes.clone(), 2.0).unwrap();
        prop_assert!(t.peak() >= t.mean());
        prop_assert!(t.quantile(1.0) == t.peak());
        prop_assert!(t.quantile(0.0) <= t.mean());
        prop_assert!((t.mean_bandwidth_bits() - t.mean() * 4.0).abs() < 1e-9 * t.mean());
        let rho = t.lag1_autocorrelation();
        prop_assert!((-1.0..=1.0).contains(&rho), "lag-1 {rho}");
    }

    #[test]
    fn gop_traces_hit_requested_bandwidth(
        mbit in 0.5f64..20.0,
        seed in 0u64..30,
    ) {
        let model = GopModel::mpeg2_default()
            .without_scene_correlation()
            .with_bandwidth(mbit * 1e6)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = model.generate_trace(600.0, 1.0, &mut rng).unwrap();
        let measured = trace.mean_bandwidth_bits();
        prop_assert!(
            (measured / (mbit * 1e6) - 1.0).abs() < 0.1,
            "requested {mbit} Mbit/s, measured {measured}"
        );
    }
}
