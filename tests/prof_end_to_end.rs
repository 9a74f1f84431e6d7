//! End-to-end scenarios for the observability stack: flight-recorder
//! bundles must be byte-identical across reruns and worker counts, the
//! recorded phase decomposition must reproduce the per-disk phases of
//! the simulator's [`mzd_server::RoundReport`] exactly, a chaos run
//! must fire a *triggered* (non-manual) dump, and the Prometheus
//! exposition of the global registry must be well-formed.

use mzd_fault::FaultConfig;
use mzd_server::{ServerConfig, SloSettings, VideoServer};
use mzd_slo::BurnConfig;
use mzd_workload::{ObjectSpec, SizeDistribution};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes tests that pin the process-global worker count.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn endless_object(id: u64) -> ObjectSpec {
    let sizes = SizeDistribution::gamma(200_000.0, 100_000.0f64.powi(2)).expect("valid sizes");
    ObjectSpec::new(format!("obj-{id}"), sizes, 1 << 14)
        .expect("valid object")
        .with_content_id(id)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mzd_prof_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run a 2-disk server with an attached recorder for `rounds` rounds and
/// dump manually at the end. Returns the report of the final round plus
/// the dump path.
fn run_recorded(dir: &Path, rounds: u64) -> (mzd_server::RoundReport, PathBuf) {
    let cfg = ServerConfig::paper_reference(2).expect("valid config");
    let mut server = VideoServer::new(cfg, 29).expect("valid server");
    let mut settings = mzd_prof::RecorderSettings::new(dir);
    settings.capacity = 16;
    settings.config_echo = vec![("seed".into(), "29".into()), ("disks".into(), "2".into())];
    server.attach_recorder(mzd_prof::Recorder::new(settings));
    for i in 0..40 {
        let _ = server.open_stream(endless_object(i));
    }
    let mut last = None;
    for _ in 0..rounds {
        last = Some(server.run_round());
    }
    let path = server
        .recorder()
        .expect("recorder attached")
        .trigger_dump(mzd_prof::DumpTrigger::Manual)
        .expect("dump writes")
        .expect("ring is non-empty");
    (last.expect("ran at least one round"), path)
}

fn bundle_bytes(path: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(path.join("rounds.jsonl")).expect("rounds.jsonl exists"),
        std::fs::read(path.join("MANIFEST.json")).expect("MANIFEST.json exists"),
    )
}

#[test]
fn bundles_are_byte_identical_across_reruns_and_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let base = temp_dir("identity");
    let mut dumps = Vec::new();
    for (tag, jobs) in [("a", 1usize), ("b", 1), ("c", 8)] {
        mzd_par::set_jobs(jobs);
        let dir = base.join(tag);
        std::fs::create_dir_all(&dir).unwrap();
        let (_, dump) = run_recorded(&dir, 24);
        dumps.push(bundle_bytes(&dump));
    }
    mzd_par::set_jobs(0);
    assert_eq!(
        dumps[0], dumps[1],
        "rerun with identical config produced a different bundle"
    );
    assert_eq!(
        dumps[0], dumps[2],
        "bundle differs between --jobs 1 and --jobs 8"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn recorded_phases_reproduce_the_simulator_decomposition() {
    let dir = temp_dir("decomp");
    let (final_report, dump) = run_recorded(&dir, 12);
    let bundle = mzd_prof::read_bundle(&dump).expect("bundle reads back");
    assert_eq!(bundle.schema, mzd_prof::BUNDLE_SCHEMA);
    assert_eq!(bundle.config_value("seed"), Some("29"));

    let last = bundle.rounds.last().expect("rounds retained");
    assert_eq!(last.round, final_report.round);
    assert_eq!(last.disks.len(), final_report.disks.len());
    for (rec, obs) in last.disks.iter().zip(&final_report.disks) {
        // The snapshot must carry the summary's numbers bit-for-bit —
        // it went through JSON, so exact equality is the contract the
        // shortest-roundtrip float formatting guarantees.
        assert_eq!(rec.requests, obs.requests);
        assert_eq!(rec.service_time, obs.service_time);
        assert_eq!(rec.seek_time, obs.seek_time);
        assert_eq!(rec.rotational_time, obs.rotational_time);
        assert_eq!(rec.transfer_time, obs.transfer_time);
        // And the phases must close the decomposition identity.
        let sum = rec.seek_time + rec.rotational_time + rec.transfer_time + rec.fault_time;
        let tol = 1e-9 * rec.service_time.max(1.0);
        assert!(
            (sum - rec.service_time).abs() <= tol,
            "phase sum {sum} != service {} on disk {}",
            rec.service_time,
            rec.disk
        );
    }
    // RNG stream positions: one run_round per disk per round, 0-based
    // round index in the report.
    assert!(last.rng_positions.iter().all(|&p| p == last.round + 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_run_fires_a_triggered_dump() {
    // A media-error burst at 25x makes sweeps overrun the round, so the
    // recorder must fire on its own (round overrun and, with the short
    // burn windows, possibly the SLO fast-burn alert first) — no manual
    // dump involved.
    let dir = temp_dir("chaos");
    let mut cfg = ServerConfig::paper_reference(1).expect("valid config");
    cfg.faults = Some(FaultConfig::parse("media=0.02,scenario=burst:8:64:25").expect("valid spec"));
    let target = cfg.target;
    let mut server = VideoServer::new(cfg, 97).expect("valid server");
    let mut settings = SloSettings::for_target(target);
    settings.burn = BurnConfig {
        fast_window: 16,
        slow_window: 64,
        long_window: 128,
        hysteresis: 16,
        ..settings.burn
    };
    server.enable_slo(settings).expect("slo enables");
    server.attach_recorder(mzd_prof::Recorder::new(mzd_prof::RecorderSettings::new(
        &dir,
    )));
    for i in 0..28 {
        let _ = server.open_stream(endless_object(i));
    }
    for _ in 0..96 {
        server.run_round();
    }
    let dumps = server.recorder().expect("recorder attached").dumps();
    assert!(
        !dumps.is_empty(),
        "chaos burst produced no automatic postmortem dump"
    );
    for (trigger, dump) in &dumps {
        assert_ne!(
            *trigger,
            mzd_prof::DumpTrigger::Manual,
            "dump should be event-triggered"
        );
        let bundle = mzd_prof::read_bundle(dump).expect("bundle reads back");
        assert_ne!(bundle.trigger, "manual", "dump should be event-triggered");
        assert!(bundle.captured > 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn prometheus_exposition_of_a_served_registry_is_well_formed() {
    // Server metrics live in the process-global registry; run enough
    // rounds that counters, gauges and histograms all carry samples.
    let cfg = ServerConfig::paper_reference(1).expect("valid config");
    let mut server = VideoServer::new(cfg, 5).expect("valid server");
    for i in 0..20 {
        let _ = server.open_stream(endless_object(i));
    }
    for _ in 0..8 {
        server.run_round();
    }
    let text = mzd_telemetry::prom::render(mzd_telemetry::global());

    // Structural checks an actual Prometheus scraper enforces.
    let mut seen_metric = false;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        seen_metric = true;
        let (name_part, value) = line.rsplit_once(' ').expect("`name value` sample line");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample value in {line:?}"
        );
        let name = name_part.split('{').next().unwrap();
        assert!(
            name.starts_with("mzd_") && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name in {line:?}"
        );
    }
    assert!(seen_metric, "exposition carried no samples");

    // Histograms: cumulative buckets ending in +Inf that equals _count.
    assert!(text.contains("# TYPE mzd_sim_round_service_time histogram"));
    let inf_buckets = text
        .lines()
        .filter(|l| l.contains("_bucket{le=\"+Inf\"}"))
        .count();
    let counts = text
        .lines()
        .filter(|l| l.split(' ').next().is_some_and(|n| n.ends_with("_count")))
        .count();
    assert!(inf_buckets > 0, "histograms must expose a +Inf bucket");
    assert_eq!(
        inf_buckets, counts,
        "every histogram needs both a +Inf bucket and a _count"
    );
}
