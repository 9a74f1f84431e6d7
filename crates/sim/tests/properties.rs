//! Property-based tests for the simulator: structural invariants of every
//! round outcome under randomized configurations.

use mzd_disk::PlacementPolicy;
use mzd_sim::{MixedConfig, MixedSimulator, RoundSimulator, SeekPolicy, SimConfig};
use mzd_workload::SizeDistribution;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        0.25f64..3.0,
        prop_oneof![Just(SeekPolicy::Scan), Just(SeekPolicy::Fcfs)],
        prop_oneof![
            Just(PlacementPolicy::UniformByCapacity),
            Just(PlacementPolicy::UniformByCylinder),
            Just(PlacementPolicy::OuterZones { zones: 5 }),
            Just(PlacementPolicy::InnerZones { zones: 5 }),
        ],
        50_000.0f64..600_000.0,
        0.1f64..1.2,
    )
        .prop_map(|(round_length, seek_policy, placement, mean, cv)| {
            let mut cfg = SimConfig::paper_reference().expect("valid");
            cfg.round_length = round_length;
            cfg.seek_policy = seek_policy;
            cfg.placement = placement;
            cfg.sizes = SizeDistribution::gamma(mean, (mean * cv).powi(2)).expect("valid");
            cfg
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_round_outcome_is_structurally_sound(
        cfg in arb_config(),
        n in 0u32..60,
        seed in 0u64..100,
    ) {
        let mut sim = RoundSimulator::new(cfg.clone(), seed).expect("valid");
        for _ in 0..5 {
            let out = sim.run_round(n);
            prop_assert!(out.service_time >= 0.0);
            prop_assert!(out.seek_time >= 0.0);
            prop_assert!(out.rotational_time >= 0.0);
            prop_assert!(out.transfer_time >= 0.0);
            prop_assert!(out.fault_time >= 0.0);
            prop_assert_eq!(out.late, out.service_time > cfg.round_length);
            prop_assert!(out.glitched_streams.len() <= n as usize);
            for &g in &out.glitched_streams {
                prop_assert!(g < n);
            }
            let sum = out.seek_time
                + out.rotational_time
                + out.transfer_time
                + out.fault_time;
            prop_assert!((out.service_time - sum).abs() < 1e-9);
            // Rotational latency per request is bounded by one revolution.
            prop_assert!(
                out.rotational_time
                    <= f64::from(n) * cfg.disk.rotation_time() + 1e-12
            );
        }
    }

    #[test]
    fn sized_rounds_respect_rate_bounds(
        cfg in arb_config(),
        sizes in prop::collection::vec(1_000.0f64..5e6, 1..40),
        seed in 0u64..100,
    ) {
        // Transfer time must lie between all-outer and all-inner service.
        let mut sim = RoundSimulator::new(cfg.clone(), seed).expect("valid");
        let out = sim.run_round_sized(&sizes);
        let total: f64 = sizes.iter().sum();
        prop_assert!(out.transfer_time >= total / cfg.disk.max_rate() - 1e-9);
        prop_assert!(out.transfer_time <= total / cfg.disk.min_rate() + 1e-9);
    }

    #[test]
    fn mixed_runs_conserve_discrete_requests(
        arrivals in 0.5f64..40.0,
        n in 1u32..30,
        seed in 0u64..50,
    ) {
        let cfg = MixedConfig::paper_reference(arrivals).expect("valid");
        let mut sim = MixedSimulator::new(cfg, seed).expect("valid");
        let stats = sim.run(n, 50);
        prop_assert_eq!(
            stats.discrete_arrived,
            stats.discrete_served + sim.queue_len() as u64 + stats.discrete_dropped
        );
        prop_assert!(stats.discrete_utilization.mean() >= 0.0);
        prop_assert!(stats.discrete_utilization.max() <= 1.0 + 1e-9);
        prop_assert!(stats.p_late() <= 1.0);
        prop_assert_eq!(stats.glitches_per_stream.len(), n as usize);
    }

    #[test]
    fn identical_seeds_identical_histories(cfg in arb_config(), n in 1u32..40, seed in 0u64..50) {
        let mut a = RoundSimulator::new(cfg.clone(), seed).expect("valid");
        let mut b = RoundSimulator::new(cfg, seed).expect("valid");
        for _ in 0..4 {
            prop_assert_eq!(a.run_round(n), b.run_round(n));
        }
    }
}
