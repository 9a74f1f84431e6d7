//! Subprocess tests for `serve`, which runs every configuration as a
//! fleet: one node serves what `--nodes 1` serves, a flag that acts
//! only across nodes fails loudly on one, the flags every fleet shares
//! work at any size, and a flag `serve` does not read fails before
//! anything runs.

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

/// The words of a command line.
fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

/// Every file under `dir`, as (path relative to `dir`, bytes), sorted.
fn files(dir: &std::path::Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let mut found = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for path in std::fs::read_dir(&d).unwrap().map(|e| e.unwrap().path()) {
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                found.push((path.strip_prefix(dir).unwrap().to_path_buf(), bytes));
            }
        }
    }
    found.sort();
    found
}

#[test]
fn serve_is_a_one_node_fleet() {
    // The same report and the same files, byte for byte: every path the
    // report prints is relative to the run's own directory. (The metrics
    // and Prometheus files also carry wall-clock timings, so no two
    // runs write those alike.)
    let root = std::env::temp_dir().join(format!("mzd-serve-one-{}", std::process::id()));
    let line = "serve --rounds 40 --streams 30 --disks 2 --seed 3 --object-rounds 25 --zipf 1.0 \
                --cache-bytes 2e7 --fault-profile media=0.05 --degrade --trace-out t.json \
                --events-out e.jsonl --postmortem-dir pm --dump-on-exit";
    let run = |name: &str, extra: &str| {
        let dir = root.join(name);
        std::fs::create_dir_all(&dir).expect("create run dir");
        let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
            .args(words(line))
            .args(words(extra))
            .current_dir(&dir)
            .output()
            .expect("failed to spawn mzd");
        assert!(output.status.success(), "{name}: {output:?}");
        (String::from_utf8(output.stdout).unwrap(), files(&dir))
    };
    let (plain, written) = run("plain", "");
    let (one, one_written) = run("one", "--nodes 1");
    assert!(plain.contains("on a 1-node fleet"), "{plain}");
    assert_eq!(plain, one);
    let names: Vec<_> = written.iter().map(|f| f.0.to_str().unwrap()).collect();
    for name in ["e.jsonl", "t.json", "pm/MANIFEST.json"] {
        assert!(names.contains(&name), "{names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("pm/node-0/")),
        "{names:?}"
    );
    assert!(written == one_written, "the two runs wrote different files");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn zero_nodes_is_a_usage_error() {
    assert_usage_error(&words("serve --nodes 0 --rounds 1"), "--nodes");
}

#[test]
fn slo_turns_on_every_node_of_a_fleet() {
    let output = mzd(&words("serve --nodes 2 --rounds 30 --seed 7 --slo"));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("slo: burn fast"), "{stdout}");
    assert!(stdout.contains("conformance: ks"), "{stdout}");
}

#[test]
fn cache_safety_raises_a_cached_fleet_above_its_composed_capacity() {
    // The roadmap's cached fleet: its composed capacity is 27 streams,
    // so without cache-aware admission most of the offered 70 wait.
    let line = "serve --nodes 2 --disks 1 --rounds 200 --seed 7 --objects 8 \
                --object-rounds 100 --zipf 1.0 --cache-bytes 40000000 --streams 70";
    let run = |extra: &str| {
        let output = mzd(&[words(line), words(extra)].concat());
        assert!(output.status.success(), "{output:?}");
        let report = String::from_utf8(output.stdout).unwrap();
        let glitches = report
            .lines()
            .find(|l| l.contains("stream-rounds"))
            .unwrap();
        let served: u64 = glitches
            .split(" in ")
            .nth(1)
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        (report, served)
    };
    let (plain, plain_served) = run("");
    let (aware, aware_served) = run("--cache-safety 0.0");
    assert!(!plain.contains("cache-aware"), "{plain}");
    assert!(aware.contains("(base 27, cache-aware)"), "{aware}");
    assert!(aware_served > plain_served, "{plain}\n{aware}");
    // The capacity line reports what the dispatcher admits against,
    // which covers every stream active at exit, and names the composed
    // capacity only when the two differ.
    let number_after = |report: &str, key: &str| -> u64 {
        let rest = &report[report.find(key).unwrap() + key.len()..];
        rest.split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    for report in [&plain, &aware] {
        let capacity = number_after(report, "fleet: capacity ");
        let active = number_after(report, "streams: ");
        assert!(capacity >= active, "{report}");
    }
    assert!(plain.contains("capacity 27 streams (1 spare"), "{plain}");
    assert!(aware.contains("streams, composed 27 ("), "{aware}");
}

#[test]
fn dump_on_exit_writes_manual_bundles_after_a_fleet_incident() {
    // CI's full-layer serve: its SLO fast burn dumps the fleet (and
    // takes the fleet manifest) at round 63, and `--dump-on-exit` still
    // adds the node's `manual` bundle at exit.
    let dir = std::env::temp_dir().join(format!("mzd-serve-full-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create run dir");
    let line = "serve --rounds 300 --streams 70 --disks 2 --seed 13 --objects 64 \
                --object-rounds 120 --cache-bytes 4000000 --cache-safety 0.2 --zipf 1.0 \
                --work-ahead 2 --fault-profile media=0.25,retries=2,timeout=0.005 --degrade \
                --trace-out t.json --prom-out p.prom --events-out e.jsonl --postmortem-dir pm \
                --dump-on-exit";
    let output = Command::new(env!("CARGO_BIN_EXE_mzd"))
        .args(words(line))
        .current_dir(&dir)
        .output()
        .expect("failed to spawn mzd");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(
        stdout.contains("postmortem: slo.fast_burn -> pm/MANIFEST.json"),
        "{stdout}"
    );
    assert!(
        stdout.contains("postmortem: manual -> pm/node-0/postmortem-r000299-manual"),
        "{stdout}"
    );
    let manifest = std::fs::read_to_string(dir.join("pm/MANIFEST.json")).unwrap();
    assert!(manifest.contains("slo.fast_burn"), "{manifest}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_nan_cache_budget_is_a_usage_error() {
    assert_usage_error(
        &words("serve --rounds 1 --cache-bytes nan"),
        "--cache-bytes",
    );
}

#[test]
fn a_negative_cache_budget_is_a_usage_error() {
    assert_usage_error(&words("serve --rounds 1 --cache-bytes -5"), "--cache-bytes");
}

#[test]
fn a_safety_outside_the_unit_interval_is_a_usage_error() {
    assert_usage_error(
        &words("serve --rounds 1 --cache-safety 1.5"),
        "--cache-safety",
    );
}

#[test]
fn a_safety_without_a_cache_is_a_usage_error() {
    assert_usage_error(
        &words("serve --rounds 1 --cache-safety 0.2"),
        "--cache-safety",
    );
}

#[test]
fn work_ahead_without_a_cache_is_a_usage_error() {
    assert_usage_error(&words("serve --rounds 1 --work-ahead 3"), "--work-ahead");
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
