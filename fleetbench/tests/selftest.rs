//! Self-test: every workload in quick mode (the same code path at tiny
//! lengths), untraced and traced, on two seeds. Every metric that
//! `BENCHMARK.json` names must print with its unit, every output check
//! must pass, and the per-pass digests must repeat across reruns and
//! between the untraced and traced runs.

use std::collections::BTreeMap;
use std::process::Command;

use mzd_telemetry::json::{self, Value};

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Value,
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_fleetbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--quick",
        ])
        .arg("--out")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    Run { stdout, result }
}

/// Per-pass digests printed as `pass i: ... digest <hex>`.
fn digests(stdout: &str) -> BTreeMap<String, String> {
    stdout
        .lines()
        .filter_map(|l| {
            let l = l.trim_start();
            let (pass, rest) = l.strip_prefix("pass ")?.split_once(':')?;
            Some((pass.to_owned(), rest.rsplit_once("digest ")?.1.to_owned()))
        })
        .collect()
}

fn assert_result(r: &Run, names: &[(String, String)]) {
    assert_eq!(
        r.result.get("correct"),
        Some(&Value::Bool(true)),
        "{}",
        r.stdout
    );
    let attempted = r
        .result
        .get("attempted")
        .and_then(Value::as_f64)
        .expect("attempted");
    assert!(attempted >= 1.0);
    assert_eq!(r.result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(!r.stdout.contains("check FAILED"), "{}", r.stdout);
    let metrics = r
        .result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    assert_eq!(metrics.len(), names.len(), "{}", r.stdout);
    for (name, unit) in names {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing:\n{}", r.stdout));
        assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{name}"
        );
    }
}

#[test]
fn every_workload_prints_its_metrics_and_passes_its_checks() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for workload in ["steady", "churn", "observed"] {
        for seed in [1, 2] {
            let timed = run(workload, seed, false);
            assert_result(&timed, &end_to_end);
            for (name, unit) in &end_to_end {
                let prefix = format!("  {name} = ");
                let lines: Vec<&str> = timed
                    .stdout
                    .lines()
                    .filter(|l| l.starts_with(&prefix))
                    .collect();
                assert_eq!(lines.len(), 1, "{name} once:\n{}", timed.stdout);
                let value_and_unit = &lines[0][prefix.len()..];
                assert_eq!(
                    value_and_unit.split_whitespace().nth(1),
                    Some(unit.as_str()),
                    "{name} unit"
                );
            }
            assert!(timed.stdout.contains(" submitted, "), "{}", timed.stdout);
            assert!(timed.stdout.contains(" refused "), "{}", timed.stdout);

            let traced = run(workload, seed, true);
            assert_result(&traced, &per_layer);
            for (name, _) in &per_layer {
                assert!(
                    traced.stdout.contains(name.as_str()),
                    "{name} in the ledger table"
                );
            }

            // The simulation is a pure function of the seed: a rerun and
            // the traced run reproduce every per-pass digest.
            let first = digests(&timed.stdout);
            assert_eq!(first.len(), 2, "{}", timed.stdout);
            assert_eq!(digests(&run(workload, seed, false).stdout), first);
            assert_eq!(digests(&traced.stdout).get("0"), first.get("0"));
        }
    }
}

#[test]
fn traced_run_writes_a_renderable_profile() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    run("churn", 3, true);
    let folded = std::fs::read_to_string(dir.join("churn-seed3.folded")).expect("folded stacks");
    assert!(folded
        .lines()
        .any(|l| l.starts_with("cluster.run_round;server.round;sweep ")));
    let svg = std::fs::read_to_string(dir.join("churn-seed3.svg")).expect("flame chart");
    assert!(svg.starts_with("<svg"), "{}", &svg[..svg.len().min(80)]);
    let ledger = std::fs::read_to_string(dir.join("churn-seed3.ledger.json")).expect("ledger");
    let doc = json::parse(&ledger).expect("ledger JSON");
    assert!(doc
        .get("metrics")
        .and_then(|m| m.get("sim.sweep_ns"))
        .is_some());
}
