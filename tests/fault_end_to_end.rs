//! End-to-end robustness scenarios for the fault-injection stack: the
//! analytic fault pricing must shrink admission and hold the glitch
//! budget under real injected faults, faulty runs must stay bit-identical
//! across worker counts and reruns, and the graceful-degradation ladder
//! must keep a degrading disk inside its budget where a ladder-less
//! control breaches it.

use mzd_core::GuaranteeModel;
use mzd_fault::{FaultConfig, FaultModel};
use mzd_server::{DegradeSettings, ServerConfig, SloSettings, VideoServer};
use mzd_sim::{estimate_p_late_par, RoundSimulator, SimConfig};
use mzd_workload::{ObjectSpec, SizeDistribution};
use std::sync::Mutex;

/// Serializes tests that pin the process-global worker count.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn with_jobs<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
    mzd_par::set_jobs(jobs);
    let out = f();
    mzd_par::set_jobs(0);
    out
}

/// The §3.3 glitch guarantee the paper's reference configuration runs:
/// at most `g = 12` glitches in `m = 1200` rounds, i.e. a 1% per-round
/// glitch budget.
const GLITCH_BUDGET: f64 = 12.0 / 1200.0;

/// A paper-workload object long enough that streams never complete
/// during a test run (constant offered load).
fn endless_object(id: u64) -> ObjectSpec {
    let sizes = SizeDistribution::gamma(200_000.0, 100_000.0f64.powi(2)).expect("valid sizes");
    ObjectSpec::new(format!("obj-{id}"), sizes, 1 << 14)
        .expect("valid object")
        .with_content_id(id)
}

#[test]
fn fault_pricing_shrinks_admission_and_the_shrunken_load_holds_the_budget() {
    let model = GuaranteeModel::paper_reference().expect("reference model");
    let (t, m, g, eps) = (1.0, 1_200, 12, 0.01);
    let n_clean = model.n_max_error(t, m, g, eps).expect("clean n_max");

    let fc = FaultConfig::parse("media=0.01").expect("valid spec");
    let n_faulted = model
        .with_faults(&FaultModel::from_config(&fc))
        .expect("valid fault model")
        .n_max_error(t, m, g, eps)
        .expect("faulted n_max");
    // A 1% media-error rate must cost at least one admitted stream.
    assert!(
        n_faulted < n_clean,
        "fault pricing did not shrink admission: {n_faulted} vs {n_clean}"
    );

    // And the fault-priced load, simulated with the faults actually
    // injected, stays within the glitch budget the guarantee promises.
    let cfg = SimConfig {
        faults: Some(fc),
        ..SimConfig::paper_reference().expect("reference sim")
    };
    let mut sim = RoundSimulator::new(cfg, 71).expect("valid sim");
    let rounds = 2_048u64;
    let mut glitches = 0u64;
    for _ in 0..rounds {
        glitches += sim.run_round(n_faulted).glitched_streams.len() as u64;
    }
    let rate = glitches as f64 / (rounds * u64::from(n_faulted)) as f64;
    assert!(
        rate <= GLITCH_BUDGET,
        "glitch rate {rate:.5} breaches the {GLITCH_BUDGET} budget at the fault-priced N = {n_faulted}"
    );
}

#[test]
fn faulty_runs_are_bit_identical_across_job_counts_and_reruns() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let cfg = SimConfig {
        faults: Some(FaultConfig::preset("flaky").expect("known preset")),
        ..SimConfig::paper_reference().expect("reference sim")
    };
    let run = || estimate_p_late_par(&cfg, 26, 400, 3, 99).expect("valid run");
    let reference = with_jobs(1, run);
    // Media retries, stalls and remaps only add service time. (Whether
    // any round runs late is a coin flip at this size: 38% of seeds
    // have none.)
    let clean = SimConfig::paper_reference().expect("reference sim");
    let unperturbed = with_jobs(1, || {
        estimate_p_late_par(&clean, 26, 400, 3, 99).expect("valid run")
    });
    assert!(
        reference.mean_service_time > unperturbed.mean_service_time,
        "the flaky preset must actually perturb the run"
    );
    for jobs in [1usize, 2, 8] {
        let est = with_jobs(jobs, run);
        assert_eq!(
            est.p_late.to_bits(),
            reference.p_late.to_bits(),
            "p_late differs at jobs = {jobs}"
        );
        assert_eq!(
            est.mean_service_time.to_bits(),
            reference.mean_service_time.to_bits(),
            "mean service time differs at jobs = {jobs}"
        );
        assert_eq!(
            est.max_service_time.to_bits(),
            reference.max_service_time.to_bits(),
            "max service time differs at jobs = {jobs}"
        );
        assert_eq!(est.late_rounds, reference.late_rounds, "jobs = {jobs}");
    }
}

/// Run a server against a degrading-disk ramp and return the per-served-
/// stream-round glitch rate over the degraded tail of the run.
fn ramp_glitch_rate(ladder: bool, seed: u64) -> f64 {
    let mut cfg = ServerConfig::paper_reference(1).expect("valid config");
    // A drive wearing out: from round 64 the media-error rate climbs
    // linearly to 15x its base 2% over 64 rounds, then stays there.
    cfg.faults = Some(FaultConfig::parse("media=0.02,scenario=ramp:64:64:15").expect("valid spec"));
    if ladder {
        cfg.degrade = Some(DegradeSettings {
            escalate_rounds: 4,
            recover_rounds: 512,
            shed_fraction: 0.5,
            ..DegradeSettings::default()
        });
    }
    let target = cfg.target;
    let mut server = VideoServer::new(cfg, seed).expect("valid server");
    server
        .enable_slo(SloSettings::for_target(target))
        .expect("slo enables");
    let mut handles = Vec::new();
    while let Ok(h) = server.open_stream(endless_object(handles.len() as u64 + 1)) {
        handles.push(h);
    }
    for h in &handles {
        server.mark_degradable(*h).expect("known stream");
    }
    let (mut glitches, mut served_rounds) = (0u64, 0u64);
    for round in 0..512u64 {
        let report = server.run_round();
        // Measure the degraded steady state, after the ramp has peaked
        // and the ladder (when present) has had time to climb.
        if round >= 192 {
            glitches += report.glitched_streams.len() as u64;
            let shed = server
                .degrade_status()
                .map_or(0, |status| status.shed_streams);
            served_rounds += server.active_streams() as u64 - shed;
        }
    }
    assert!(served_rounds > 0);
    glitches as f64 / served_rounds as f64
}

#[test]
fn degradation_ladder_holds_the_budget_where_the_control_breaches_it() {
    let with_ladder = ramp_glitch_rate(true, 73);
    let control = ramp_glitch_rate(false, 73);
    assert!(
        control > GLITCH_BUDGET,
        "control must breach the budget for the scenario to mean anything, got {control:.5}"
    );
    assert!(
        with_ladder <= GLITCH_BUDGET,
        "ladder failed to hold the {GLITCH_BUDGET} budget: {with_ladder:.5} (control {control:.5})"
    );
}

#[test]
fn clean_run_never_sheds_over_two_thousand_rounds() {
    let mut cfg = ServerConfig::paper_reference(1).expect("valid config");
    // A configured-but-clean injector and an armed ladder: nothing may
    // fire over a long horizon.
    cfg.faults = Some(FaultConfig::default());
    cfg.degrade = Some(DegradeSettings::default());
    let target = cfg.target;
    let mut server = VideoServer::new(cfg, 74).expect("valid server");
    server
        .enable_slo(SloSettings::for_target(target))
        .expect("slo enables");
    let mut id = 0u64;
    while server
        .open_stream(endless_object({
            id += 1;
            id
        }))
        .is_ok()
    {}
    for _ in 0..2_048 {
        server.run_round();
    }
    let status = server.degrade_status().expect("ladder configured");
    assert_eq!(status.rung, 0, "clean run climbed the ladder");
    assert_eq!(status.escalations, 0);
    assert_eq!(status.shed_streams, 0);
}
