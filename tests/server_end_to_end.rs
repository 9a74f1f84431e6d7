//! End-to-end server scenarios: admission, striping, play-out, glitch
//! accounting and buffer tracking across `mzd-server`, `mzd-sim`,
//! `mzd-core` and `mzd-workload` together.

use mzd_server::{AdmissionDecision, QualityTarget, ServerConfig, VideoServer};
use mzd_workload::{ObjectCatalog, ObjectSpec, SizeDistribution};

fn short_object(name: &str, rounds: u32) -> ObjectSpec {
    ObjectSpec::new(name, SizeDistribution::paper_default(), rounds).expect("valid object")
}

#[test]
fn full_house_plays_out_within_the_guarantee() {
    // Fill a 2-disk server to its admission limit, play 600 rounds, and
    // verify the realized per-stream glitch rate respects the target
    // (<= 1% of rounds with overwhelming probability).
    let cfg = ServerConfig::paper_reference(2).expect("valid config");
    let mut server = VideoServer::new(cfg, 1).expect("valid server");
    while server.open_stream(short_object("movie", 600)).is_ok() {}
    let n = server.active_streams();
    assert_eq!(n, 2 * 28, "expected the paper's per-disk limit of 28");

    let mut completed = Vec::new();
    for _ in 0..600 {
        completed.extend(server.run_round().completed_streams);
    }
    assert_eq!(server.active_streams(), 0, "all streams should finish");
    assert_eq!(completed.len(), n);

    // Quality audit: streams over the 1% glitch budget should be rare
    // (the guarantee says < 1% of streams at the admitted load).
    let over_budget = completed
        .iter()
        .filter(|c| c.glitches > 6) // 1% of 600 rounds
        .count();
    assert!(
        over_budget <= 2,
        "{over_budget} of {n} streams exceeded the glitch budget"
    );
}

#[test]
fn rejected_clients_wait_and_get_in_after_completions() {
    let cfg = ServerConfig::paper_reference(1).expect("valid config");
    let mut server = VideoServer::new(cfg, 2).expect("valid server");
    // Fill up with short objects.
    while server.open_stream(short_object("a", 10)).is_ok() {}
    assert!(matches!(
        server.open_stream(short_object("b", 10)),
        Err(AdmissionDecision::Reject { .. })
    ));
    assert_eq!(server.rejected_streams(), 2); // the fill loop's last + b
                                              // After the short objects finish, admission opens again.
    for _ in 0..10 {
        server.run_round();
    }
    assert_eq!(server.active_streams(), 0);
    assert!(server.open_stream(short_object("c", 10)).is_ok());
}

#[test]
fn heterogeneous_catalog_round_trip() {
    let catalog = ObjectCatalog::demo().expect("valid catalog");
    let (mean, var) = catalog.pooled_moments().expect("non-empty");
    let mut cfg = ServerConfig::paper_reference(2).expect("valid config");
    cfg.admission_size_mean = mean;
    cfg.admission_size_variance = var;
    // Three glitches per 1 200 rounds: 26 per disk on the paper's 200 KB
    // reference workload.
    cfg.target = QualityTarget {
        m: 1200,
        g: 3,
        epsilon: 0.01,
    };
    let mut server = VideoServer::new(cfg, 3).expect("valid server");
    // The heavier pooled workload must admit fewer streams per disk than
    // the paper's 200 KB reference.
    let limit = server.admission().per_disk_limit();
    assert!(limit < 26, "pooled demo workload admitted {limit} per disk");
    assert!(limit > 2, "limit {limit} collapsed");

    // Open one of each object (shortened) and play 50 rounds.
    for o in catalog.objects() {
        let short =
            ObjectSpec::new(o.name.clone(), o.sizes.clone(), o.rounds.min(50)).expect("valid");
        server.open_stream(short).expect("admits 3 streams");
    }
    let mut completed = Vec::new();
    for _ in 0..50 {
        completed.extend(server.run_round().completed_streams);
    }
    assert_eq!(completed.len(), 3);
    for c in &completed {
        assert!(c.buffer_high_water > 0.0);
        assert!(c.rounds_played == 50);
    }
}

#[test]
fn per_disk_load_stays_balanced_under_churn() {
    let cfg = ServerConfig::paper_reference(4).expect("valid config");
    let mut server = VideoServer::new(cfg, 4).expect("valid server");
    let mut opened = 0u32;
    for round in 0..200u32 {
        if round % 2 == 0 && server.open_stream(short_object("x", 37)).is_ok() {
            opened += 1;
        }
        server.run_round();
        let load = server.per_disk_load();
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        assert!(
            max - min <= 2,
            "round {round}: unbalanced load {load:?} after {opened} opens"
        );
    }
}

#[test]
fn glitch_rate_scales_with_admission_threshold() {
    // A server run past the paper's limit (loose target) must glitch more
    // than one at the limit — the stochastic guarantee is doing real work.
    // Three glitches per 1 200 rounds admits 26 per disk; 120 admits 32.
    let target = |g| QualityTarget {
        m: 1200,
        g,
        epsilon: 0.01,
    };
    let mut strict_cfg = ServerConfig::paper_reference(1).expect("valid");
    strict_cfg.target = target(3);
    let mut loose_cfg = ServerConfig::paper_reference(1).expect("valid");
    loose_cfg.target = target(120);

    let mut strict = VideoServer::new(strict_cfg, 5).expect("valid");
    let mut loose = VideoServer::new(loose_cfg, 5).expect("valid");
    while strict.open_stream(short_object("s", 400)).is_ok() {}
    while loose.open_stream(short_object("l", 400)).is_ok() {}
    let (strict_n, loose_n) = (strict.active_streams(), loose.active_streams());
    assert!(loose_n > strict_n);

    let strict_glitches = strict.run_rounds(400);
    let loose_glitches = loose.run_rounds(400);
    // Every stream plays its 400 rounds out.
    assert_eq!(strict.active_streams() + loose.active_streams(), 0);
    let strict_rate = strict_glitches as f64 / (strict_n as f64 * 400.0);
    let loose_rate = loose_glitches as f64 / (loose_n as f64 * 400.0);
    assert!(
        loose_rate > 10.0 * strict_rate.max(1e-6),
        "loose {loose_rate} vs strict {strict_rate}"
    );
    assert!(strict_rate < 0.01, "strict rate {strict_rate} over budget");
}
