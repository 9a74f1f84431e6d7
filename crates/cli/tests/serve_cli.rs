//! Subprocess tests for `serve`'s two paths: a flag only one path reads
//! fails loudly on the other, the flags both paths share work on the
//! fleet too, and a flag neither reads fails before anything runs.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn mzd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mzd"))
        .args(args)
        .output()
        .expect("failed to spawn mzd")
}

/// `serve` with `args` must exit with a usage error that names `flag`,
/// and leave none of the files its output flags name: a usage error
/// found inside the command writes no more than one the parser finds.
fn assert_usage_error(args: &[&str], flag: &str) {
    static CALL: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mzd-serve-usage-{}-{}",
        std::process::id(),
        CALL.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let outputs = [
        ("--metrics-out", dir.join("m.json")),
        ("--events-out", dir.join("e.jsonl")),
        ("--prom-out", dir.join("p.prom")),
    ];
    let mut full: Vec<&str> = args.to_vec();
    for (name, path) in &outputs {
        full.extend([*name, path.to_str().unwrap()]);
    }
    let output = mzd(&full);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed a report");
    for (name, path) in &outputs {
        assert!(
            !path.exists(),
            "{args:?}: the usage error left {name}'s file"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fleet_profile_out_writes_the_server_round_stacks() {
    let dir = std::env::temp_dir().join(format!("mzd-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let folded = dir.join("fleet.folded");
    let output = mzd(&[
        "serve",
        "--nodes",
        "4",
        "--disks",
        "1",
        "--rounds",
        "20",
        "--seed",
        "7",
        "--object-rounds",
        "30",
        "--profile-out",
        folded.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("profile: 7 stack(s)"), "{stdout}");
    let stacks = std::fs::read_to_string(&folded).expect("profile written");
    for stage in ["partition", "sweep", "slo", "degrade", "advance", "cache"] {
        let stack = format!("server.round;{stage} ");
        assert!(stacks.contains(&stack), "no {stack:?} in {stacks}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn slo_with_a_fleet_is_a_usage_error() {
    assert_usage_error(
        &["serve", "--nodes", "4", "--rounds", "1", "--slo"],
        "--slo",
    );
}

#[test]
fn cache_safety_with_a_fleet_is_a_usage_error() {
    // The fleet admits through its composed cap, never cache-aware.
    assert_usage_error(
        &[
            "serve",
            "--nodes",
            "2",
            "--rounds",
            "1",
            "--cache-bytes",
            "40000000",
            "--cache-safety",
            "0.0",
        ],
        "--cache-safety",
    );
}

#[test]
fn a_malformed_number_is_a_usage_error() {
    assert_usage_error(&["serve", "--rounds", "abc"], "--rounds");
}

#[test]
fn health_without_a_fleet_is_a_usage_error() {
    assert_usage_error(&["serve", "--rounds", "1", "--health"], "--health");
    assert_usage_error(
        &["serve", "--nodes", "1", "--rounds", "1", "--health"],
        "--health",
    );
}

#[test]
fn gray_node_without_a_fleet_is_a_usage_error() {
    assert_usage_error(
        &["serve", "--rounds", "1", "--gray-node", "3"],
        "--gray-node",
    );
}

#[test]
fn lease_rounds_without_a_fleet_is_a_usage_error() {
    assert_usage_error(
        &["serve", "--rounds", "1", "--lease-rounds", "9"],
        "--lease-rounds",
    );
}

#[test]
fn a_misspelled_flag_is_a_usage_error_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("mzd-serve-typo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let metrics = dir.join("m.json");
    let args = [
        "serve",
        "--rounds",
        "20",
        "--seed",
        "7",
        "--metrics-outt",
        metrics.to_str().unwrap(),
    ];
    assert_usage_error(&args, "did you mean --metrics-out?");
    assert!(!metrics.exists(), "a misspelled --metrics-out wrote a file");
    std::fs::remove_dir_all(&dir).ok();
}
