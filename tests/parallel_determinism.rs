//! The mzd-par determinism contract, checked end to end: every
//! parallelized scientific pipeline must produce bit-identical output
//! for any worker count. The tests drive the real pipelines — the cache
//! sweep grid, the drift-injection scenario, the Gil–Pelaez CDF
//! tabulation, and the cluster fleet round loop — at jobs ∈ {1, 2, 8}
//! and compare outputs exactly (`f64::to_bits`, not approximate
//! equality).
//!
//! `set_jobs` is process-global, so every test that pins it holds a
//! shared lock and restores the hardware default before releasing it.

use mzd_core::{GuaranteeModel, ServiceTimeCdf};
use mzd_sim::cache_sweep::{self, CacheSweepConfig};
use mzd_sim::{run_replicated_windows, DriftScenarioConfig, SimConfig};
use std::sync::Mutex;

/// Serializes tests that pin the process-global worker count.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the global pool pinned to `jobs` workers.
fn with_jobs<T>(jobs: usize, f: impl FnOnce() -> T) -> T {
    mzd_par::set_jobs(jobs);
    let out = f();
    mzd_par::set_jobs(0);
    out
}

const JOB_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn cache_sweep_grid_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let mut cfg = CacheSweepConfig::reference().unwrap();
    cfg.streams = 16;
    cfg.objects = 8;
    cfg.object_rounds = 40;
    cfg.rounds = 120;
    let run = || cache_sweep::sweep(&cfg, &[0.0, 80e6], &[0.3, 1.0], 23).unwrap();
    let reference = with_jobs(1, run);
    assert_eq!(reference.len(), 4);
    for jobs in JOB_COUNTS {
        let other = with_jobs(jobs, run);
        assert_eq!(reference, other, "jobs = {jobs}");
    }
}

#[test]
fn drift_scenario_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let cfg = DriftScenarioConfig::paper_default(300, Some(120));
    let run = || mzd_sim::run_drift_scenario(&cfg, 42).unwrap();
    let reference = with_jobs(1, run);
    for jobs in JOB_COUNTS {
        let r = with_jobs(jobs, run);
        assert_eq!(r.rounds, reference.rounds, "jobs = {jobs}");
        assert_eq!(r.drift_round, reference.drift_round, "jobs = {jobs}");
        assert_eq!(r.drifts_raised, reference.drifts_raised, "jobs = {jobs}");
        assert_eq!(r.late_rounds, reference.late_rounds, "jobs = {jobs}");
        assert_eq!(
            r.final_ks.to_bits(),
            reference.final_ks.to_bits(),
            "jobs = {jobs}"
        );
        assert_eq!(
            r.final_tail_exceedance.to_bits(),
            reference.final_tail_exceedance.to_bits(),
            "jobs = {jobs}"
        );
    }
}

#[test]
fn cdf_grid_is_bit_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let model = GuaranteeModel::paper_reference().unwrap();
    let grid = |jobs: usize| {
        with_jobs(jobs, || {
            ServiceTimeCdf::with_resolution(&model, 27, 257)
                .unwrap()
                .grid_values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>()
        })
    };
    let reference = grid(1);
    assert_eq!(reference.len(), 257);
    for jobs in JOB_COUNTS {
        assert_eq!(reference, grid(jobs), "jobs = {jobs}");
    }
}

#[test]
fn replicated_windows_are_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let cfg = SimConfig::paper_reference().unwrap();
    let run = || run_replicated_windows(&cfg, 27, 1000, 8, 7).unwrap();
    let reference = with_jobs(1, run);
    assert_eq!(reference.rounds, 1000);
    assert_eq!(reference.glitches_per_stream.len(), 8 * 27);
    for jobs in JOB_COUNTS {
        let other = with_jobs(jobs, run);
        assert_eq!(reference, other, "jobs = {jobs}");
    }
}

#[test]
fn cluster_fleet_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    // A 16-node fleet with a scripted mid-run node outage: the round
    // loop steps nodes in parallel (`par_map_owned`), so this pins the
    // whole dispatch/step/migrate cycle to the determinism contract.
    let run = || {
        let mut cfg = mzd_cluster::ClusterConfig::paper_reference(16, 2).unwrap();
        cfg.lease_rounds = 2;
        cfg.outages.push(mzd_cluster::NodeOutage {
            node: 5,
            start: 20,
            rounds: 30,
        });
        let mut fleet = mzd_cluster::Cluster::new(cfg, 4242).unwrap();
        let object = mzd_workload::ObjectSpec::new(
            "det",
            mzd_workload::SizeDistribution::paper_default(),
            40,
        )
        .unwrap();
        for _ in 0..400 {
            fleet.submit(object.clone()).unwrap();
        }
        let mut reports = Vec::new();
        for _ in 0..80 {
            reports.push(fleet.run_round());
        }
        (reports, fleet.status())
    };
    let reference = with_jobs(1, run);
    let (ref_reports, ref_status) = &reference;
    assert!(
        ref_reports.iter().any(|r| !r.migrations.is_empty()),
        "the outage must actually migrate streams"
    );
    assert!(ref_status.completed > 0);
    for jobs in JOB_COUNTS {
        let other = with_jobs(jobs, run);
        assert_eq!(reference, other, "jobs = {jobs}");
    }
}

#[test]
fn fleet_observability_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    // The observability plane rides the same round loop: stitched
    // trace JSON, node-labeled sketch exposition and the fleet-merged
    // bucket counts must come out byte-identical at any job count.
    let run = || {
        let mut cfg = mzd_cluster::ClusterConfig::paper_reference(3, 1).unwrap();
        cfg.lease_rounds = 2;
        cfg.outages.push(mzd_cluster::NodeOutage {
            node: 1,
            start: 4,
            rounds: 40,
        });
        let mut fleet = mzd_cluster::Cluster::new(cfg, 77).unwrap();
        fleet.enable_tracing().unwrap();
        let object = mzd_workload::ObjectSpec::new(
            "obs",
            mzd_workload::SizeDistribution::paper_default(),
            200,
        )
        .unwrap();
        for _ in 0..24 {
            fleet.submit(object.clone()).unwrap();
        }
        for _ in 0..12 {
            fleet.run_round();
        }
        // Every node's conformance state: the nodes share one set of
        // predicted-CDF tables and, stepping in parallel, race to build
        // the same cell in round 0.
        let slo: Vec<_> = (0..3)
            .map(|i| {
                let s = fleet
                    .node(i)
                    .server()
                    .slo_status()
                    .expect("tracing enables SLO");
                (
                    s.ks_statistic.to_bits(),
                    s.tail_exceedance.to_bits(),
                    s.drifts_raised,
                    s.drift_active,
                )
            })
            .collect();
        (
            fleet.trace_chrome_json().expect("tracing enabled"),
            fleet.sketches().render_prom(),
            fleet
                .sketches()
                .merged(mzd_cluster::SKETCH_SERVICE_TIME)
                .bucket_counts()
                .to_vec(),
            slo,
        )
    };
    let reference = with_jobs(1, run);
    assert!(reference.0.contains("fleet.requeue"), "outage must migrate");
    for jobs in JOB_COUNTS {
        let other = with_jobs(jobs, run);
        assert_eq!(reference.0, other.0, "trace JSON, jobs = {jobs}");
        assert_eq!(reference.1, other.1, "prom text, jobs = {jobs}");
        assert_eq!(reference.2, other.2, "bucket counts, jobs = {jobs}");
        assert_eq!(reference.3, other.3, "node SLO status, jobs = {jobs}");
    }
}

#[test]
fn event_engine_rounds_are_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    // Event-engine anchors: fan a batch of independent event-core
    // simulators — clean and faulted — across the pool and fingerprint
    // every outcome. The fingerprints must be bit-identical at any job
    // count.
    let run = || {
        let seeds: Vec<u64> = (0..12).map(|i| mzd_par::derive_seed(9000, i)).collect();
        mzd_par::par_map(&seeds, |&seed| {
            let mut cfg = SimConfig::paper_reference().unwrap();
            if seed % 3 == 0 {
                cfg.faults = Some(mzd_fault::FaultConfig::preset("zonefail").unwrap());
            }
            let mut sim = mzd_sim::RoundSimulator::new(cfg, seed).unwrap();
            let mut fingerprint: Vec<u64> = Vec::new();
            for _ in 0..60 {
                let out = sim.run_round(27);
                fingerprint.push(out.service_time.to_bits());
                fingerprint.push(out.seek_time.to_bits());
                fingerprint.push(out.rotational_time.to_bits());
                fingerprint.push(out.transfer_time.to_bits());
                fingerprint.push(out.fault_time.to_bits());
                fingerprint.extend(out.glitched_streams.iter().map(|&g| u64::from(g)));
            }
            fingerprint
        })
    };
    let reference = with_jobs(1, run);
    assert_eq!(reference.len(), 12);
    for jobs in JOB_COUNTS {
        let other = with_jobs(jobs, run);
        assert_eq!(reference, other, "jobs = {jobs}");
    }
}

#[test]
fn retry_budget_exhaustion_boundary_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    // A read whose first-retry cost lands *exactly* on the round-slack
    // budget: the injector's strict `>` comparison admits it — the
    // retry is charged in full and the read still fails at p_media = 1
    // — while any less slack denies the retry entirely. Both outcomes
    // are pure functions of the injector's private RNG stream, so they
    // must be bit-identical at any worker count.
    let cfg = mzd_fault::FaultConfig::parse("media=1.0, retries=4, backoff=0.01:2:1:0").unwrap();
    let (transfer, rotation, full_seek) = (0.01f64, 0.011f64, 0.02f64);
    // Mirror the injector's own arithmetic: reread = rotations·rotation
    // + transfer, first-retry cost = backoff(0) + reread.
    let exact = 0.01 + (1.0 * rotation + transfer);
    let run = || {
        let slacks = [exact, exact - 1e-12, 1.0, 0.0];
        mzd_par::par_map(&slacks, |&slack| {
            let mut inj = mzd_fault::FaultInjector::new(&cfg, 11);
            inj.begin_round();
            let p = inj.perturb_read(0, transfer, rotation, full_seek, slack);
            (
                p.failed,
                p.retry_time.to_bits(),
                p.extra_time.to_bits(),
                inj.counters().retries,
            )
        })
    };
    let reference = with_jobs(1, run);
    let on_budget = &reference[0];
    assert!(on_budget.0, "p_media = 1: the read must fail");
    assert_eq!(
        f64::from_bits(on_budget.1),
        exact,
        "the exactly-on-budget retry is taken and charged in full"
    );
    assert_eq!(on_budget.3, 1, "exactly one retry fits the exact budget");
    let under_budget = &reference[1];
    assert!(under_budget.0, "p_media = 1: the read must fail");
    assert_eq!(
        under_budget.1,
        0.0f64.to_bits(),
        "a hair less slack denies the retry outright"
    );
    assert_eq!(under_budget.3, 0, "no retry fits under the exact cost");
    for jobs in JOB_COUNTS {
        assert_eq!(reference, with_jobs(jobs, run), "jobs = {jobs}");
    }
}

#[test]
fn gray_fleet_health_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    // The graynode fleet anchor: creeping degradation plus the health
    // subsystem end to end — per-node suspicion, hedged dispatch during
    // probation, ejection migration, and the re-composed guarantee —
    // must come out byte-identical at any worker count.
    let run = || {
        let mut cfg = mzd_cluster::ClusterConfig::paper_reference(8, 1).unwrap();
        cfg.node.faults = Some(mzd_fault::FaultConfig::parse("gray=creep:10:60:2.5").unwrap());
        cfg.gray_node = 3;
        let mut fleet = mzd_cluster::Cluster::new(cfg, 4242).unwrap();
        fleet
            .enable_health(mzd_health::HealthConfig {
                warmup_rounds: 8,
                ..mzd_health::HealthConfig::default()
            })
            .unwrap();
        let object = mzd_workload::ObjectSpec::new(
            "gray",
            mzd_workload::SizeDistribution::paper_default(),
            400,
        )
        .unwrap();
        for _ in 0..fleet.guarantee().fleet_capacity {
            fleet.submit(object.clone()).unwrap();
        }
        let mut reports = Vec::new();
        for _ in 0..120 {
            reports.push(fleet.run_round());
        }
        let health = fleet.health_status().unwrap();
        (reports, fleet.status(), health)
    };
    let reference = with_jobs(1, run);
    assert!(
        reference.2.ejections >= 1,
        "the creeping gray node must be ejected"
    );
    assert!(
        reference.2.hedges_issued >= 1,
        "probation must hedge before ejection"
    );
    for jobs in JOB_COUNTS {
        assert_eq!(reference, with_jobs(jobs, run), "jobs = {jobs}");
    }
}

#[test]
fn admission_limits_are_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let model = GuaranteeModel::paper_reference().unwrap();
    let limits = || {
        (
            model.n_max_late(1.0, 0.01).unwrap(),
            model.n_max_error(1.0, 1200, 12, 0.01).unwrap(),
            model.n_max_error(8.0, 1200, 12, 0.01).unwrap(),
        )
    };
    let reference = with_jobs(1, limits);
    // The paper's anchors, plus the 8-s shape fleetbench's `steady`
    // serves: the parallel scan must preserve them exactly.
    assert_eq!(reference, (26, 28, 270));
    for jobs in JOB_COUNTS {
        let other = with_jobs(jobs, limits);
        assert_eq!(reference, other, "jobs = {jobs}");
    }
}
