//! End-to-end SLO monitoring scenarios (the acceptance criteria of the
//! mzd-slo subsystem):
//!
//! 1. **Drift detection** — a zone-skewed placement injected mid-run
//!    must raise `slo.drift` within 512 rounds of the skew onset, while
//!    an unskewed 4096-round control run raises nothing.
//! 2. **Burn-rate-gated admission** — a fast-burn `slo.alert` freezes
//!    cache-aware over-admission (the effective limit returns to the
//!    analytic `N_max`) until the alert clears.

use mzd_cache::CachePolicy;
use mzd_server::{CacheSettings, ServerConfig, SloSettings, StreamHandle, VideoServer};
use mzd_sim::{run_drift_scenario, DriftScenarioConfig};
use mzd_slo::BurnConfig;
use mzd_workload::{ObjectSpec, SizeDistribution};

const SKEW_AT: u64 = 256;

#[test]
fn drift_checker_fires_within_512_rounds_of_zone_skew() {
    let report = run_drift_scenario(
        &DriftScenarioConfig::paper_default(SKEW_AT + 512, Some(SKEW_AT)),
        42,
    )
    .expect("valid scenario");
    let fired = report
        .drift_round
        .expect("inner-zone skew must raise slo.drift");
    assert!(
        fired >= SKEW_AT,
        "drift raised at round {fired}, before the skew at {SKEW_AT}"
    );
    assert!(
        fired < SKEW_AT + 512,
        "drift raised at round {fired} — more than 512 rounds after the skew"
    );
    assert!(report.drift_active, "skew persists, so must the alert");
    // Skewed placement pushes roughly half the rounds past the model's
    // 95% quantile — an order of magnitude over the nominal 5%.
    assert!(
        report.final_tail_exceedance > 0.3,
        "a fully skewed window should sit in the model's tail, got {}",
        report.final_tail_exceedance
    );
}

#[test]
fn unskewed_control_run_never_drifts_over_4096_rounds() {
    let report = run_drift_scenario(&DriftScenarioConfig::paper_default(4096, None), 42)
        .expect("valid scenario");
    assert_eq!(
        report.drifts_raised, 0,
        "control run raised drift (ks {}, tail exceedance {})",
        report.final_ks, report.final_tail_exceedance
    );
    assert!(report.drift_round.is_none());
    assert!(!report.drift_active);
    // The analytic model is conservative (worst-case seeks), so the
    // observed tail mass stays below the nominal 5%.
    assert!(
        report.final_tail_exceedance < 0.1,
        "got {}",
        report.final_tail_exceedance
    );
}

/// One stored hot title: lockstep readers coalesce on its fragments, so
/// the measured disk-avoidance ratio climbs quickly and cache-aware
/// admission inflates far past the analytic limit.
fn hot_object() -> ObjectSpec {
    ObjectSpec::new("hot", SizeDistribution::paper_default(), 5_000)
        .expect("valid object")
        .with_content_id(1)
}

/// A heavyweight live stream: 4x the paper's mean fragment size and no
/// content id, so the cache cannot absorb any of its load.
fn heavy_object(i: usize) -> ObjectSpec {
    let sizes = SizeDistribution::gamma(800_000.0, 200_000.0 * 200_000.0).expect("valid sizes");
    ObjectSpec::new(format!("heavy-{i}"), sizes, 2_000).expect("valid object")
}

#[test]
fn fast_burn_alert_freezes_cache_aware_over_admission_until_it_clears() {
    let mut cfg = ServerConfig::paper_reference(1).expect("valid config");
    cfg.cache = Some(CacheSettings {
        capacity_bytes: 2.4e8,
        policy: CachePolicy::Lru,
        admission_safety: Some(0.2),
    });
    let target = cfg.target;
    let mut server = VideoServer::new(cfg, 13).expect("valid server");
    let base = server.admission().per_disk_limit();
    assert_eq!(base, 28, "paper's cacheless per-disk limit");

    // Short windows so raise and clear both happen in test time; same
    // budget and factors as the production defaults.
    let mut settings = SloSettings::for_target(target);
    settings.burn = BurnConfig {
        fast_window: 32,
        slow_window: 128,
        long_window: 256,
        hysteresis: 32,
        ..settings.burn
    };
    server.enable_slo(settings).expect("slo enables");

    // Phase 1 — warm up: 28 lockstep readers of one hot title. All but
    // one lookup per round coalesces, so the measured disk-avoidance
    // ratio climbs and the effective limit inflates past N_max.
    let mut hot: Vec<StreamHandle> = (0..base)
        .map(|_| server.open_stream(hot_object()).expect("base load admits"))
        .collect();
    let mut inflated = 0;
    for _ in 0..400 {
        server.run_round();
        inflated = server.admission().effective_per_disk_limit();
        if inflated > base + 10 {
            break;
        }
    }
    assert!(
        inflated > base + 10,
        "cache-aware admission never inflated (effective {inflated})"
    );
    let status = server.slo_status().expect("slo enabled");
    assert!(!status.alert_active, "warmup must not burn the budget");
    assert!(!status.over_admission_frozen);

    // Phase 2 — glitch storm: swap half the hot readers for heavyweight
    // uncachable streams. The inflated limit admits them all, and the
    // disk drowns: a fast burn must raise, and raising must freeze the
    // effective limit back to the analytic N_max.
    for handle in hot.drain(..14) {
        server.close_stream(handle).expect("hot stream closes");
    }
    let heavies: Vec<StreamHandle> = (0..24)
        .map(|i| {
            server
                .open_stream(heavy_object(i))
                .expect("inflated limit admits the heavy cohort")
        })
        .collect();
    let pre_storm = server.admission().effective_per_disk_limit();
    assert!(pre_storm > base, "storm must start over-admitted");

    let mut raised_after = None;
    for round in 0..160 {
        server.run_round();
        let status = server.slo_status().expect("slo enabled");
        if status.alert_active {
            raised_after = Some(round);
            break;
        }
    }
    let raised_after = raised_after.expect("a sustained glitch storm must raise slo.alert");
    let status = server.slo_status().expect("slo enabled");
    assert!(status.over_admission_frozen, "alert must freeze admission");
    assert_eq!(
        server.admission().effective_per_disk_limit(),
        base,
        "frozen over-admission must fall back to the analytic N_max"
    );
    assert_eq!(status.alerts_raised, 1);
    assert!(
        status.burn_fast >= 6.0,
        "raise implies fast burn >= raise factor, got {}",
        status.burn_fast
    );

    // While frozen, new streams are gated by the analytic limit: the
    // server is already over it, so nothing further is admitted.
    assert!(
        server.open_stream(hot_object()).is_err(),
        "frozen server is over the analytic limit and must reject"
    );

    // Phase 3 — recovery: drop the heavy cohort. Glitches stop, the
    // fast window drains, and after the hysteresis period the alert
    // clears and over-admission thaws.
    for handle in heavies {
        server.close_stream(handle).expect("heavy stream closes");
    }
    let mut cleared_after = None;
    for round in 0..260 {
        server.run_round();
        let status = server.slo_status().expect("slo enabled");
        if !status.alert_active {
            cleared_after = Some(round);
            break;
        }
    }
    let cleared_after = cleared_after.expect("a quiet server must clear the alert");
    let status = server.slo_status().expect("slo enabled");
    assert!(!status.over_admission_frozen, "clearing must thaw");
    assert!(
        server.admission().effective_per_disk_limit() >= base,
        "thawed limit can never sit below the analytic N_max"
    );
    assert_eq!(status.alerts_raised, 1, "no flapping on the way down");
    assert!(
        cleared_after >= 32,
        "clear before the hysteresis period is impossible, got {cleared_after}"
    );
    // Sanity on the storm phase: detection was prompt (well within the
    // slow window once the fast window filled with storm rounds).
    assert!(raised_after <= 128, "raise took {raised_after} rounds");
}
