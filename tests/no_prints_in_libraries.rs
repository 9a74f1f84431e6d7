//! Library crates must not write to stdout/stderr directly: reporting
//! belongs to binaries, and diagnostics belong to `mzd-telemetry` sinks.
//! This test walks every workspace library source file and rejects
//! `println!` / `eprintln!` / `print!` / `eprint!` invocations.
//!
//! Binary targets (`src/bin/**`, `src/main.rs`) are exempt — printing a
//! finished report is exactly their job. The vendored dependency shims
//! under `vendor/` are exempt too: the proptest harness reports to the
//! terminal by design.

use std::path::{Path, PathBuf};

/// Macros banned from library targets. `dbg!` is stderr output too —
/// and the one most likely to slip in from a debugging session.
const BANNED: [&str; 5] = ["println!", "eprintln!", "print!", "eprint!", "dbg!"];

/// Every crate expected under `crates/`. The scan itself discovers
/// crates automatically; this list only guards the discovery — if a
/// crate is added without updating it, the test fails loudly instead of
/// silently skipping the newcomer (and vice versa for removals).
const EXPECTED_CRATES: [&str; 18] = [
    "bench",
    "cache",
    "cli",
    "cluster",
    "core",
    "disk",
    "fault",
    "health",
    "integration",
    "numerics",
    "obs",
    "par",
    "prof",
    "server",
    "sim",
    "slo",
    "telemetry",
    "workload",
];

fn workspace_root() -> PathBuf {
    // This test is registered by crates/integration/Cargo.toml.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/integration sits two levels below the root")
        .to_path_buf()
}

fn is_library_source(path: &Path) -> bool {
    if path.extension().and_then(|e| e.to_str()) != Some("rs") {
        return false;
    }
    if path.file_name().and_then(|n| n.to_str()) == Some("main.rs") {
        return false;
    }
    !path
        .components()
        .any(|c| c.as_os_str() == "bin" || c.as_os_str() == "tests" || c.as_os_str() == "benches")
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if is_library_source(&path) {
            out.push(path);
        }
    }
}

/// Lines where a banned macro may legitimately appear: inside comments
/// and doc text (where it is prose, not an invocation).
fn is_exempt_line(line: &str) -> bool {
    let trimmed = line.trim_start();
    trimmed.starts_with("//") || trimmed.starts_with("*")
}

#[test]
fn scan_covers_every_workspace_crate() {
    let crates_dir = workspace_root().join("crates");
    assert!(crates_dir.is_dir(), "missing {}", crates_dir.display());
    let mut found: Vec<String> = std::fs::read_dir(&crates_dir)
        .expect("readable crates dir")
        .map(|e| {
            e.expect("readable dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    found.sort();
    assert_eq!(
        found, EXPECTED_CRATES,
        "crates/ changed — update EXPECTED_CRATES so the print scan \
         provably covers every crate"
    );
    // Every expected crate actually contributes sources to the scan
    // (the integration crate's stub lib.rs counts).
    for name in EXPECTED_CRATES {
        let src = crates_dir.join(name).join("src");
        assert!(src.is_dir(), "crate `{name}` has no src/ to scan");
        let mut sources = Vec::new();
        collect_sources(&src, &mut sources);
        assert!(
            !sources.is_empty(),
            "crate `{name}` yields no library sources — scan misconfigured?"
        );
    }
}

#[test]
fn library_crates_do_not_print() {
    let crates_dir = workspace_root().join("crates");
    assert!(crates_dir.is_dir(), "missing {}", crates_dir.display());
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(&crates_dir).expect("readable crates dir") {
        let src = entry.expect("readable dir entry").path().join("src");
        if src.is_dir() {
            collect_sources(&src, &mut sources);
        }
    }
    assert!(
        sources.len() >= 20,
        "suspiciously few library sources found ({}) — scan misconfigured?",
        sources.len()
    );

    let mut violations = Vec::new();
    for path in &sources {
        let text = std::fs::read_to_string(path).expect("readable source file");
        for (i, line) in text.lines().enumerate() {
            if is_exempt_line(line) {
                continue;
            }
            if BANNED.iter().any(|banned| line.contains(banned)) {
                violations.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "library code must route output through mzd-telemetry, not print:\n{}",
        violations.join("\n")
    );
}
