//! Gray-failure self-healing, end to end: a 16-node fleet with one
//! node creeping toward 2.5× service-time inflation, run for 2400
//! rounds at a constant offered load.
//!
//! With the health subsystem on, the detector probates the creeper
//! while its inflation is still mild, hedged dispatch covers the
//! probation window, ejection migrates its streams over the requeue
//! path, and the fleet guarantee is re-composed with the spare promoted
//! — so the composed per-stream glitch budget holds observationally
//! across every completed play-out. A health-disabled control with
//! byte-identical seeds lets the creeper keep its streams and breaches
//! the same budget. Both runs are byte-identical across reruns and
//! worker-pool widths.

use mzd_cluster::{Cluster, ClusterConfig, ClusterStatus, HealthStatus};
use mzd_workload::{ObjectSpec, SizeDistribution};
use std::sync::Mutex;

/// Serializes jobs-pinning tests (set_jobs is process-global).
static JOBS_LOCK: Mutex<()> = Mutex::new(());

const NODES: u32 = 16;
const ROUNDS: u64 = 2400;
const GRAY_NODE: u32 = 5;
/// Creep onset and ramp: inactive for 100 rounds, at the 2.5× peak
/// from round 500 on — most of the run is spent fully degraded.
const GRAY_SPEC: &str = "gray=creep:100:400:2.5";
/// Short play-outs so the run completes several generations of
/// streams; every completion is re-submitted to hold the load constant.
const OBJECT_ROUNDS: u32 = 400;

/// One full scenario run; everything returned is comparable bytes.
struct RunOutcome {
    status: ClusterStatus,
    health: Option<HealthStatus>,
    /// Per-round (glitched_streams, migrations, failed_nodes) fingerprint.
    fingerprint: Vec<(u64, usize, usize)>,
    /// (over-budget completions, total completions).
    over_budget: (usize, usize),
    /// Smallest re-composed capacity seen during the run (health only).
    min_effective: u64,
    /// The composed fleet capacity before any debit.
    full_capacity: u64,
}

fn run_scenario(health: bool) -> RunOutcome {
    let mut cfg = ClusterConfig::paper_reference(NODES, 1).expect("valid fleet config");
    cfg.node.faults = Some(mzd_fault::FaultConfig::parse(GRAY_SPEC).expect("valid gray spec"));
    cfg.gray_node = GRAY_NODE;
    let mut fleet = Cluster::new(cfg, 20_26).expect("valid fleet");
    if health {
        fleet
            .enable_health(mzd_health::HealthConfig::default())
            .expect("valid health config");
    }
    let guarantee = fleet.guarantee().clone();
    let object =
        ObjectSpec::new("e2e", SizeDistribution::paper_default(), OBJECT_ROUNDS).expect("valid");
    for _ in 0..guarantee.fleet_capacity {
        fleet.submit(object.clone()).expect("submit");
    }
    let mut fingerprint = Vec::with_capacity(ROUNDS as usize);
    let mut min_effective = guarantee.fleet_capacity;
    let mut completed = Vec::new();
    for _ in 0..ROUNDS {
        let report = fleet.run_round();
        fingerprint.push((
            report.glitched_streams,
            report.migrations.len(),
            report.failed_nodes.len(),
        ));
        // Constant offered load: every completed play-out re-draws one.
        for _ in 0..report.completed.len() {
            let _ = fleet.submit(object.clone());
        }
        if let Some(h) = fleet.health_status() {
            min_effective = min_effective.min(h.recomposed.effective_capacity);
        }
        completed.extend(report.completed);
    }
    let over = completed
        .iter()
        .filter(|c| c.glitches >= guarantee.g)
        .count();
    RunOutcome {
        over_budget: (over, completed.len()),
        status: fleet.status(),
        health: fleet.health_status(),
        fingerprint,
        min_effective,
        full_capacity: guarantee.fleet_capacity,
    }
}

#[test]
fn health_holds_the_composed_budget_where_the_control_breaches_it() {
    let _guard = JOBS_LOCK.lock().unwrap();
    mzd_par::set_jobs(1);
    let healed = run_scenario(true);
    let control = run_scenario(false);
    mzd_par::set_jobs(0);

    let epsilon = 0.01; // the composed guarantee's any-stream budget
    let (h_over, h_total) = healed.over_budget;
    let (c_over, c_total) = control.over_budget;
    assert!(h_total > 1_000, "enough completions to judge: {h_total}");
    assert!(c_total > 1_000, "enough completions to judge: {c_total}");

    // The healed fleet holds the budget observationally…
    let h_frac = h_over as f64 / h_total as f64;
    assert!(
        h_frac <= epsilon,
        "healed fleet breached: {h_over}/{h_total} over budget"
    );
    // …while the identically-seeded control breaches it wide.
    let c_frac = c_over as f64 / c_total as f64;
    assert!(
        c_frac > epsilon,
        "control unexpectedly held: {c_over}/{c_total} over budget"
    );

    // The mechanism must actually have engaged: ejection, hedging, and
    // a re-composed (debited) capacity — not a quiet lucky run. The
    // creeper never misses a lease (gray ≠ crash), so the control sees
    // no node failures at all: detection is the only defense.
    let h = healed.health.expect("health enabled");
    assert!(h.ejections >= 1, "no ejection fired: {h:?}");
    assert!(h.hedges_issued >= 1, "probation never hedged: {h:?}");
    assert!(
        healed.min_effective < healed.full_capacity,
        "re-composition never debited capacity: min {} of {}",
        healed.min_effective,
        healed.full_capacity
    );
    assert_eq!(
        healed
            .fingerprint
            .iter()
            .map(|(_, _, failed)| failed)
            .sum::<usize>(),
        0,
        "gray degradation must not trip the lease path"
    );
    assert!(control.health.is_none());
    assert_eq!(control.status.migrations, 0, "control must not migrate");
    assert!(
        healed.status.migrations > 0,
        "ejection must migrate the creeper's streams"
    );
}

#[test]
fn both_scenarios_are_byte_identical_across_reruns_and_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    for health in [true, false] {
        let reference = {
            mzd_par::set_jobs(1);
            let out = run_scenario(health);
            mzd_par::set_jobs(0);
            out
        };
        for jobs in [1usize, 2, 8] {
            mzd_par::set_jobs(jobs);
            let other = run_scenario(health);
            mzd_par::set_jobs(0);
            assert_eq!(
                reference.fingerprint, other.fingerprint,
                "health={health} jobs={jobs}"
            );
            assert_eq!(
                reference.status, other.status,
                "health={health} jobs={jobs}"
            );
            assert_eq!(
                reference.health, other.health,
                "health={health} jobs={jobs}"
            );
            assert_eq!(
                reference.over_budget, other.over_budget,
                "health={health} jobs={jobs}"
            );
            assert_eq!(
                reference.min_effective, other.min_effective,
                "health={health} jobs={jobs}"
            );
        }
    }
}
