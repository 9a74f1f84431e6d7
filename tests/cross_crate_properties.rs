//! Property-based tests over the cross-crate invariants of the model:
//! conservativeness, monotonicity and probability-law sanity under
//! randomized disks, workloads and parameters.

use mzd_core::{glitch, GuaranteeModel, ZoneHandling};
use mzd_disk::{Disk, SeekCurve, ZoneModel};
use proptest::prelude::*;

/// A strategy over plausible disks: 1000–20000 cylinders, 1–40 zones,
/// 4–15 ms revolutions, 20–200 KB track capacities with ≤ 3x zoning.
fn arb_disk() -> impl Strategy<Value = Disk> {
    (
        1_000u32..20_000,
        1usize..40,
        4e-3..15e-3,
        20_000.0f64..100_000.0,
        1.0f64..3.0,
    )
        .prop_map(|(cyl, z, rot, c_min, spread)| {
            let c_max = if z == 1 { c_min } else { c_min * spread };
            let zones = ZoneModel::linear(z, c_min, c_max).expect("valid zones");
            let threshold = f64::from(cyl) / 5.0;
            let seek = SeekCurve::paper_form(1.5e-3, 1.2e-4, 3.5e-3, 2.0e-6, threshold)
                .expect("valid curve");
            Disk::new(cyl.max(z as u32), rot, seek, zones).expect("valid disk")
        })
}

/// Plausible fragment workloads: 20 KB–1 MB mean, cv in [0.1, 1.5].
fn arb_workload() -> impl Strategy<Value = (f64, f64)> {
    (20_000.0f64..1_000_000.0, 0.1f64..1.5).prop_map(|(mean, cv)| {
        let sd = mean * cv;
        (mean, sd * sd)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn p_late_is_a_probability_and_monotone_in_n(
        disk in arb_disk(),
        (mean, var) in arb_workload(),
        t in 0.25f64..4.0,
    ) {
        let model = GuaranteeModel::new(disk, mean, var, ZoneHandling::Discrete)
            .expect("valid model");
        let mut prev = 0.0;
        for n in (1..=40u32).step_by(4) {
            let p = model.p_late_bound(n, t).expect("valid t");
            prop_assert!((0.0..=1.0).contains(&p), "p_late({n}) = {p}");
            prop_assert!(p >= prev - 1e-9, "p_late not monotone at n = {n}: {p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn p_late_is_monotone_decreasing_in_t(
        disk in arb_disk(),
        (mean, var) in arb_workload(),
    ) {
        let model = GuaranteeModel::new(disk, mean, var, ZoneHandling::Discrete)
            .expect("valid model");
        let mut prev = 1.0f64;
        for i in 0..8 {
            let t = 0.25 * f64::from(1 << i).sqrt();
            let p = model.p_late_bound(16, t).expect("valid t");
            prop_assert!(p <= prev + 1e-9, "t = {t}: {p} > {prev}");
            prev = p;
        }
    }

    #[test]
    fn glitch_bound_is_between_zero_and_late_bound(
        disk in arb_disk(),
        (mean, var) in arb_workload(),
        n in 1u32..40,
        t in 0.25f64..4.0,
    ) {
        let model = GuaranteeModel::new(disk, mean, var, ZoneHandling::Discrete)
            .expect("valid model");
        let g = model.p_glitch_bound(n, t).expect("valid t");
        let l = model.p_late_bound(n, t).expect("valid t");
        prop_assert!((0.0..=1.0).contains(&g));
        prop_assert!(g <= l + 1e-12, "glitch {g} > late {l}");
    }

    #[test]
    fn n_max_respects_its_threshold(
        disk in arb_disk(),
        (mean, var) in arb_workload(),
        delta in 1e-4f64..0.5,
    ) {
        let model = GuaranteeModel::new(disk, mean, var, ZoneHandling::Discrete)
            .expect("valid model");
        let n_max = model.n_max_late(1.0, delta).expect("valid");
        if n_max > 0 {
            let p = model.p_late_bound(n_max, 1.0).expect("valid");
            prop_assert!(p <= delta, "p_late(N_max={n_max}) = {p} > {delta}");
        }
        let p_next = model.p_late_bound(n_max + 1, 1.0).expect("valid");
        prop_assert!(p_next > delta, "p_late(N_max+1) = {p_next} <= {delta}");
    }

    #[test]
    fn hagerup_rub_dominates_exact_binomial_tail(
        p in 0.0f64..0.2,
        m in 1u64..2000,
        frac in 0.0f64..1.0,
    ) {
        let g = ((m as f64 * frac).round() as u64).min(m);
        let exact = glitch::binomial_tail_exact(p, m, g);
        let bound = glitch::binomial_tail_chernoff(p, m, g);
        prop_assert!(bound >= exact - 1e-9, "bound {bound} < exact {exact} (p={p}, m={m}, g={g})");
        prop_assert!((0.0..=1.0).contains(&bound));
        prop_assert!((0.0..=1.0).contains(&exact));
    }

    #[test]
    fn zone_flattening_is_optimistic_everywhere(
        disk in arb_disk(),
        (mean, var) in arb_workload(),
        n in 4u32..40,
    ) {
        // E[1/R] >= 1/E[R] (Jensen): ignoring zones understates transfer
        // times, so the flattened bound must never exceed the exact one.
        let exact = GuaranteeModel::new(disk.clone(), mean, var, ZoneHandling::Discrete)
            .expect("valid");
        let flat = GuaranteeModel::new(disk, mean, var, ZoneHandling::MeanRate)
            .expect("valid");
        let pe = exact.p_late_bound(n, 1.0).expect("valid");
        let pf = flat.p_late_bound(n, 1.0).expect("valid");
        prop_assert!(pf <= pe + 1e-9, "flattened {pf} above exact {pe}");
    }

    #[test]
    fn simulated_seek_decomposition_is_internally_consistent(
        seed in 0u64..1000,
        n in 1u32..50,
    ) {
        use mzd_sim::{RoundSimulator, SimConfig};
        let mut sim = RoundSimulator::new(
            SimConfig::paper_reference().expect("valid"),
            seed,
        ).expect("valid");
        let out = sim.run_round(n);
        prop_assert!(out.service_time >= 0.0);
        let sum = out.seek_time + out.rotational_time + out.transfer_time + out.fault_time;
        prop_assert!((out.service_time - sum).abs() < 1e-9);
        prop_assert!(out.glitched_streams.len() <= n as usize);
        prop_assert_eq!(out.late, out.service_time > 1.0);
        for &s in &out.glitched_streams {
            prop_assert!(s < n);
        }
    }

    #[test]
    fn retry_latency_never_exceeds_the_slack_budget(
        seed in 0u64..10_000,
        p_media in 0.0f64..1.0,
        slack in -0.01f64..0.25,
        max_attempts in 1u32..8,
        backoff_base in 0.0f64..0.01,
        backoff_factor in 1.0f64..4.0,
        jitter in 0.0f64..1.0,
    ) {
        use mzd_fault::{FaultConfig, FaultInjector, FaultProfile, RetryPolicy};
        let cfg = FaultConfig {
            profile: FaultProfile { p_media, ..FaultProfile::default() },
            retry: RetryPolicy {
                max_attempts,
                backoff_base,
                backoff_factor,
                jitter,
                ..RetryPolicy::default()
            },
            ..FaultConfig::default()
        };
        cfg.validate().expect("strategy only emits valid configs");
        let mut inj = FaultInjector::new(&cfg, seed);
        inj.begin_round();
        // Paper-ish read kinematics; only the budget invariant matters.
        for _ in 0..64 {
            let p = inj.perturb_read(0, 0.007, 0.0116, 0.018, slack);
            prop_assert!(
                p.retry_time <= slack.max(0.0) + 1e-12,
                "retry latency {} exceeds the slack budget {slack}", p.retry_time
            );
            prop_assert!(p.extra_time >= p.retry_time);
            prop_assert!(p.extra_time.is_finite() && p.extra_time >= 0.0);
        }
    }

    #[test]
    fn jittered_backoff_sequence_is_monotone_non_decreasing(
        backoff_base in 0.0f64..0.02,
        backoff_factor in 1.0f64..4.0,
        backoff_cap in 0.0f64..0.1,
        jitter in 0.0f64..1.0,
        us in proptest::collection::vec(0.0f64..1.0, 1..12),
    ) {
        use mzd_fault::RetryPolicy;
        let policy = RetryPolicy {
            backoff_base,
            backoff_factor,
            backoff_cap,
            jitter,
            ..RetryPolicy::default()
        };
        policy.validate().expect("strategy only emits valid policies");
        let mut prev = 0.0;
        for (i, &u) in us.iter().enumerate() {
            let b = policy.backoff(u32::try_from(i).unwrap(), prev, u);
            prop_assert!(b >= prev, "backoff decreased at retry {i}: {b} < {prev}");
            prop_assert!(b.is_finite());
            prev = b;
        }
    }
}

// Zero-fault byte-identity needs the process-global worker pool pinned,
// so it runs in its own block with few cases and a shared lock.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn clean_fault_config_is_byte_identical_to_no_injector_across_jobs(
        seed in 0u64..1_000,
        n in 1u32..30,
    ) {
        use mzd_fault::FaultConfig;
        use mzd_sim::{estimate_p_late_par, SimConfig};
        static JOBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = JOBS_LOCK.lock().unwrap();
        let base = SimConfig::paper_reference().expect("valid");
        let clean = SimConfig {
            faults: Some(FaultConfig::default()),
            ..SimConfig::paper_reference().expect("valid")
        };
        let mut outcomes = Vec::new();
        for jobs in [1usize, 8] {
            mzd_par::set_jobs(jobs);
            let a = estimate_p_late_par(&base, n, 60, 2, seed).expect("valid");
            let b = estimate_p_late_par(&clean, n, 60, 2, seed).expect("valid");
            outcomes.push((jobs, a, b));
        }
        mzd_par::set_jobs(0);
        let reference = outcomes[0].1.p_late.to_bits();
        for (jobs, a, b) in outcomes {
            prop_assert_eq!(a.p_late.to_bits(), b.p_late.to_bits(), "jobs = {}", jobs);
            prop_assert_eq!(
                a.mean_service_time.to_bits(),
                b.mean_service_time.to_bits(),
                "jobs = {}", jobs
            );
            prop_assert_eq!(a.late_rounds, b.late_rounds, "jobs = {}", jobs);
            // And the worker count itself never changes the answer.
            prop_assert_eq!(a.p_late.to_bits(), reference, "jobs = {}", jobs);
        }
    }
}
