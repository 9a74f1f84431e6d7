//! Correlated fleet postmortems: one manifest tying together the
//! per-node flight-recorder bundles dumped for a single fleet-level
//! trigger.
//!
//! A multi-node outage is only auditable if every node's retained
//! window around the *same logical round* is captured together: the
//! failed node's last recorded rounds, the surviving nodes absorbing
//! the migrated load, and the dispatcher's view of when the lease
//! lapsed. [`write_fleet_manifest`] records which node dumped what
//! (keyed by logical round, never wall-clock), and [`read_fleet_bundle`]
//! reads it all back with the same tamper detection [`read_bundle`]
//! applies per node: the fleet manifest carries an FNV-1a-64 checksum
//! of each node manifest, and each node manifest checksums its own
//! snapshot file — a chain from the fleet root to every disk-round.

use crate::recorder::{fnv1a64, read_bundle, Bundle, DumpTrigger};
use mzd_telemetry::json::{self, Value};
use std::path::{Path, PathBuf};

/// Fleet manifest schema identifier.
pub const FLEET_SCHEMA: &str = "mzd-fleet-postmortem/v1";

/// One node's entry in a fleet bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetNodeEntry {
    /// The node's fleet-wide id.
    pub node: u32,
    /// The node's bundle directory, relative to the fleet directory;
    /// `None` when that node's recorder had nothing to dump (e.g. a
    /// node that never ran a round before the trigger).
    pub bundle: Option<String>,
}

/// A fleet bundle read back from disk, fully checksum-verified.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBundle {
    /// Manifest schema id.
    pub schema: String,
    /// The fleet-level trigger (manifest spelling of [`DumpTrigger`]).
    pub trigger: String,
    /// The logical fleet round the trigger fired on.
    pub round: u64,
    /// Per-node entries in node-id order.
    pub entries: Vec<FleetNodeEntry>,
    /// The verified per-node bundles, parallel to `entries` (`None`
    /// where a node had no dump).
    pub nodes: Vec<Option<Bundle>>,
}

/// Write `dir/MANIFEST.json` correlating the per-node bundle
/// directories dumped for one fleet trigger at logical `round`.
///
/// `nodes` is `(node id, bundle directory)` in node-id order; bundle
/// paths are stored relative to `dir` (each node recorder's `out_dir`
/// is a subdirectory of the fleet directory by construction). Output is
/// deterministic: no timestamps, fixed key order, node order preserved.
///
/// # Errors
/// I/O errors creating the directory, reading a node manifest for its
/// checksum, or writing the fleet manifest.
pub fn write_fleet_manifest(
    dir: &Path,
    trigger: DumpTrigger,
    round: u64,
    nodes: &[(u32, Option<PathBuf>)],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = String::with_capacity(512);
    manifest.push_str("{\n  \"schema\": ");
    json::write_escaped(&mut manifest, FLEET_SCHEMA);
    manifest.push_str(",\n  \"trigger\": ");
    json::write_escaped(&mut manifest, trigger.as_str());
    manifest.push_str(&format!(",\n  \"round\": {round},\n  \"nodes\": ["));
    for (i, (node, bundle)) in nodes.iter().enumerate() {
        manifest.push_str(if i == 0 { "\n    " } else { ",\n    " });
        manifest.push_str(&format!("{{\"node\": {node}, \"bundle\": "));
        match bundle {
            None => manifest.push_str("null}"),
            Some(path) => {
                let rel = path.strip_prefix(dir).unwrap_or(path);
                let rel = rel.to_string_lossy().replace('\\', "/");
                json::write_escaped(&mut manifest, &rel);
                let node_manifest = std::fs::read(path.join("MANIFEST.json"))?;
                manifest.push_str(&format!(
                    ", \"manifest_fnv1a64\": \"{:016x}\"}}",
                    fnv1a64(&node_manifest)
                ));
            }
        }
    }
    manifest.push_str("\n  ]\n}\n");
    let path = dir.join("MANIFEST.json");
    std::fs::write(&path, manifest)?;
    Ok(path)
}

/// Read and verify a fleet bundle directory: the fleet manifest's
/// schema, each node manifest's checksum against the fleet record, and
/// (via [`read_bundle`]) each node bundle's own file checksums and
/// snapshot lines.
///
/// # Errors
/// A human-readable message naming the first failing layer — the fleet
/// manifest, a node manifest checksum, or a node bundle's contents.
pub fn read_fleet_bundle(dir: &Path) -> Result<FleetBundle, String> {
    let manifest_path = dir.join("MANIFEST.json");
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("fleet manifest is not JSON: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    if schema != FLEET_SCHEMA {
        return Err(format!(
            "unsupported fleet schema `{schema}` (expected `{FLEET_SCHEMA}`)"
        ));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let round = doc
        .get("round")
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
        .max(0.0) as u64;
    let listed = doc
        .get("nodes")
        .and_then(Value::as_array)
        .ok_or("fleet manifest has no nodes list")?;
    let mut entries = Vec::with_capacity(listed.len());
    let mut nodes = Vec::with_capacity(listed.len());
    for item in listed {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let node = item
            .get("node")
            .and_then(Value::as_f64)
            .ok_or("node entry without an id")?
            .max(0.0) as u32;
        let bundle = item
            .get("bundle")
            .and_then(Value::as_str)
            .map(ToString::to_string);
        match &bundle {
            None => nodes.push(None),
            Some(rel) => {
                let bundle_dir = dir.join(rel);
                let want = item
                    .get("manifest_fnv1a64")
                    .and_then(Value::as_str)
                    .unwrap_or("");
                let bytes = std::fs::read(bundle_dir.join("MANIFEST.json"))
                    .map_err(|e| format!("node {node}: cannot read {rel}/MANIFEST.json: {e}"))?;
                let got = format!("{:016x}", fnv1a64(&bytes));
                if !want.is_empty() && got != want {
                    return Err(format!(
                        "node {node}: manifest checksum mismatch (fleet says {want}, file {got})"
                    ));
                }
                let parsed = read_bundle(&bundle_dir).map_err(|e| format!("node {node}: {e}"))?;
                nodes.push(Some(parsed));
            }
        }
        entries.push(FleetNodeEntry { node, bundle });
    }
    Ok(FleetBundle {
        schema,
        trigger: doc
            .get("trigger")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string(),
        round,
        entries,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, RecorderSettings, RoundSnapshot};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mzd_fleet_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn node_dump(base: &Path, node: u32, rounds: u64) -> PathBuf {
        let settings = RecorderSettings {
            capacity: 8,
            out_dir: base.join(format!("node-{node}")),
            config_echo: vec![("node".into(), node.to_string())],
        };
        let rec = Recorder::new(settings);
        for r in 0..rounds {
            rec.push(RoundSnapshot {
                round: r,
                ..RoundSnapshot::default()
            });
        }
        rec.trigger_dump(DumpTrigger::LeaseExpiryStorm)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn fleet_manifest_round_trips() {
        let dir = temp_dir("roundtrip");
        let b0 = node_dump(&dir, 0, 5);
        let b2 = node_dump(&dir, 2, 5);
        write_fleet_manifest(
            &dir,
            DumpTrigger::LeaseExpiryStorm,
            4,
            &[(0, Some(b0)), (1, None), (2, Some(b2))],
        )
        .unwrap();
        let fleet = read_fleet_bundle(&dir).unwrap();
        assert_eq!(fleet.schema, FLEET_SCHEMA);
        assert_eq!(fleet.trigger, "lease.expiry_storm");
        assert_eq!(fleet.round, 4);
        assert_eq!(fleet.entries.len(), 3);
        assert!(fleet.nodes[0].is_some());
        assert!(fleet.nodes[1].is_none());
        let b = fleet.nodes[2].as_ref().unwrap();
        assert_eq!(b.config_value("node"), Some("2"));
        assert_eq!(b.rounds.len(), 5);
        // Relative paths: the fleet directory is relocatable as a unit.
        assert!(fleet.entries[0]
            .bundle
            .as_deref()
            .unwrap()
            .starts_with("node-0/"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_node_manifest_is_rejected() {
        let dir = temp_dir("tamper");
        let b0 = node_dump(&dir, 0, 3);
        write_fleet_manifest(&dir, DumpTrigger::BudgetBreach, 2, &[(0, Some(b0.clone()))]).unwrap();
        let mut text = std::fs::read_to_string(b0.join("MANIFEST.json")).unwrap();
        text.push('\n');
        std::fs::write(b0.join("MANIFEST.json"), text).unwrap();
        let err = read_fleet_bundle(&dir).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let dir = temp_dir("schema");
        std::fs::write(
            dir.join("MANIFEST.json"),
            "{\"schema\": \"something-else\", \"nodes\": []}",
        )
        .unwrap();
        let err = read_fleet_bundle(&dir).unwrap_err();
        assert!(err.contains("unsupported fleet schema"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
