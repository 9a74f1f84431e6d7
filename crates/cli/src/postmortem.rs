//! `mzd postmortem` — render a flight-recorder bundle as a
//! human-readable timeline and audit the observed phase decomposition.
//!
//! Two audits run over every retained round:
//!
//! * **Identity**: per disk, `seek + rotational + transfer + fault`
//!   must reproduce `service_time` (to f64 accumulation noise) —
//!   the invariant the simulator's [`mzd_sim::RoundOutcome`] maintains.
//!   A violation means the bundle is corrupt or the recorder and
//!   simulator disagree about the decomposition.
//! * **Analytic diff**: when the manifest's config echo carries enough
//!   provenance (disk profile, fragment moments), the observed phase
//!   totals of the final — triggering — round are compared against the
//!   §3 analytic expectation (`SEEK` constant, `N·ROT/2`,
//!   `N·E[T_transfer]`), so an operator can see *which* phase diverged
//!   from the model the admission decision was priced on.

use crate::args::Parsed;
use crate::CliError;
use mzd_core::{GuaranteeModel, ZoneHandling};
use std::fmt::Write as _;

/// Execute `mzd postmortem --bundle DIR` or `--fleet DIR`.
///
/// # Errors
/// [`CliError::Usage`] without `--bundle`/`--fleet`;
/// [`CliError::Execution`] when a bundle is unreadable, tampered with,
/// or schema-incompatible, or when an identity audit fails.
pub fn run(parsed: &Parsed) -> Result<String, CliError> {
    if let Some(dir) = parsed.str_opt("fleet") {
        return run_fleet(dir);
    }
    let dir = parsed
        .str_opt("bundle")
        .ok_or_else(|| CliError::Usage("postmortem needs --bundle DIR or --fleet DIR".into()))?;
    let bundle = mzd_prof::read_bundle(std::path::Path::new(dir))
        .map_err(|e| CliError::Execution(format!("bundle {dir}: {e}")))?;
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "postmortem bundle {dir}");
    let _ = writeln!(
        out,
        "  trigger: {} at round {} ({} of {} ring slots captured)",
        bundle.trigger.as_str(),
        bundle.round,
        bundle.captured,
        bundle.capacity
    );
    if !bundle.config.is_empty() {
        let echo: Vec<String> = bundle
            .config
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let _ = writeln!(out, "  config: {}", echo.join(" "));
    }

    let _ = writeln!(out, "\n  round timeline (oldest retained first):");
    let _ = writeln!(
        out,
        "  round   act glitch rung  burn-fast  svc(max)  seek     rot      xfer     fault"
    );
    let mut identity_violations = 0u64;
    for s in &bundle.rounds {
        let (mut seek, mut rot, mut xfer, mut fault) = (0.0, 0.0, 0.0, 0.0);
        let mut svc_max: f64 = 0.0;
        for d in &s.disks {
            seek += d.seek_time;
            rot += d.rotational_time;
            xfer += d.transfer_time;
            fault += d.fault_time;
            svc_max = svc_max.max(d.service_time);
            if !decomposition_holds(d) {
                identity_violations += 1;
            }
        }
        let late = s.disks.iter().any(|d| d.late);
        let _ = writeln!(
            out,
            "  {:>6}{} {:>4} {:>6} {:>4} {:>9.3}  {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}",
            s.round,
            if late { "!" } else { " " },
            s.active_streams,
            s.glitches,
            s.rung,
            s.burn_fast,
            svc_max,
            seek,
            rot,
            xfer,
            fault
        );
    }
    let _ = writeln!(
        out,
        "\n  decomposition identity (seek+rot+xfer+fault = service): {}",
        if identity_violations == 0 {
            "holds on every disk-round".to_string()
        } else {
            format!("VIOLATED on {identity_violations} disk-round(s)")
        }
    );
    if identity_violations > 0 {
        return Err(CliError::Execution(format!(
            "bundle {dir}: phase decomposition violated on {identity_violations} disk-round(s)\n\n{out}"
        )));
    }

    if let Some(last) = bundle.rounds.last() {
        analytic_diff(&mut out, &bundle, last);
    }
    Ok(out)
}

/// Execute `mzd postmortem --fleet DIR`: read the correlated fleet
/// bundle ([`mzd_prof::read_fleet_bundle`] verifies the full checksum
/// chain), render a cross-node timeline keyed by logical round, and
/// audit the per-disk phase-decomposition identity on every node.
///
/// # Errors
/// [`CliError::Execution`] when the fleet manifest or any node bundle
/// is unreadable or tampered with, or when the identity is violated on
/// any node.
fn run_fleet(dir: &str) -> Result<String, CliError> {
    let fleet = mzd_prof::read_fleet_bundle(std::path::Path::new(dir))
        .map_err(|e| CliError::Execution(format!("fleet bundle {dir}: {e}")))?;
    let with_bundles = fleet.nodes.iter().flatten().count();
    let mut out = String::with_capacity(4096);
    let _ = writeln!(out, "fleet postmortem {dir}");
    let _ = writeln!(
        out,
        "  trigger: {} at fleet round {}; {} node(s), {} with bundles",
        fleet.trigger,
        fleet.round,
        fleet.entries.len(),
        with_bundles
    );

    // Cross-node timeline: the union of retained rounds, one column
    // per node, so the failure wave (a node going silent, survivors
    // absorbing its load) reads left to right on one line per round.
    let rounds: std::collections::BTreeSet<u64> = fleet
        .nodes
        .iter()
        .flatten()
        .flat_map(|b| b.rounds.iter().map(|s| s.round))
        .collect();
    let _ = writeln!(
        out,
        "\n  cross-node timeline (retained rounds; ! = late disk):"
    );
    let mut header = format!("  {:>6}", "round");
    for entry in &fleet.entries {
        let _ = write!(header, "  {:<26}", format!("node {}", entry.node));
    }
    let _ = writeln!(out, "{header}");
    for round in rounds {
        let _ = write!(out, "  {round:>6}");
        for bundle in &fleet.nodes {
            let cell = match bundle
                .as_ref()
                .and_then(|b| b.rounds.iter().find(|s| s.round == round))
            {
                Some(s) => {
                    let svc_max = s
                        .disks
                        .iter()
                        .map(|d| d.service_time)
                        .fold(0.0_f64, f64::max);
                    let late = s.disks.iter().any(|d| d.late);
                    format!(
                        "act {:>3} g {:>2} svc {:>6.3}{}",
                        s.active_streams,
                        s.glitches,
                        svc_max,
                        if late { "!" } else { " " }
                    )
                }
                None => "-".to_string(),
            };
            let _ = write!(out, "  {cell:<26}");
        }
        let _ = writeln!(out);
    }

    // Per-node audit: the same seek+rot+xfer+fault = service
    // identity `--bundle` checks, run over every node's window.
    let _ = writeln!(out, "\n  per-node decomposition identity:");
    let mut total_violations = 0u64;
    for (entry, bundle) in fleet.entries.iter().zip(&fleet.nodes) {
        match bundle {
            None => {
                let _ = writeln!(
                    out,
                    "  node {}: no bundle (nothing recorded before the trigger)",
                    entry.node
                );
            }
            Some(b) => {
                let violations = b
                    .rounds
                    .iter()
                    .flat_map(|s| &s.disks)
                    .filter(|d| !decomposition_holds(d))
                    .count() as u64;
                total_violations += violations;
                let _ = writeln!(
                    out,
                    "  node {}: {} at round {}, {} round(s) retained, identity {}",
                    entry.node,
                    b.trigger.as_str(),
                    b.round,
                    b.rounds.len(),
                    if violations == 0 {
                        "holds".to_string()
                    } else {
                        format!("VIOLATED on {violations} disk-round(s)")
                    }
                );
            }
        }
    }
    if total_violations > 0 {
        return Err(CliError::Execution(format!(
            "fleet bundle {dir}: phase decomposition violated on \
             {total_violations} disk-round(s)\n\n{out}"
        )));
    }
    Ok(out)
}

/// Per-disk identity check. The simulator accumulates the clock and the
/// per-phase totals in different summation orders, so equality is up to
/// f64 accumulation noise — a relative 1e-9 covers thousands of
/// requests while still catching any real bookkeeping error.
fn decomposition_holds(d: &mzd_prof::DiskPhases) -> bool {
    let sum = d.seek_time + d.rotational_time + d.transfer_time + d.fault_time;
    let tol = 1e-9 * d.service_time.abs().max(1.0);
    (sum - d.service_time).abs() <= tol
}

/// Compare the triggering round's observed per-disk phases against the
/// analytic §3 expectation rebuilt from the manifest's config echo.
/// Silently skipped when the echo lacks provenance or names an unknown
/// profile — the timeline above is still rendered.
fn analytic_diff(out: &mut String, bundle: &mzd_prof::Bundle, last: &mzd_prof::RoundSnapshot) {
    let Some(model) = model_from_echo(bundle) else {
        return;
    };
    let _ = writeln!(
        out,
        "\n  analytic decomposition of the final round (observed / expected, per disk):"
    );
    let _ = writeln!(
        out,
        "  disk   n      seek             rot              xfer             service"
    );
    for d in &last.disks {
        let Ok(svc) = model.round_service(d.requests.max(1)) else {
            continue;
        };
        let n = f64::from(d.requests);
        let e_seek = svc.seek_constant();
        let e_rot = n * svc.rotation_time() / 2.0;
        let e_xfer = n * svc.transfer().mean();
        let e_svc = svc.mean();
        let cell = |obs: f64, exp: f64| format!("{obs:.4} / {exp:.4}",);
        let _ = writeln!(
            out,
            "  {:>4} {:>3}   {:>15}  {:>15}  {:>15}  {:>15}",
            d.disk,
            d.requests,
            cell(d.seek_time, e_seek),
            cell(d.rotational_time, e_rot),
            cell(d.transfer_time, e_xfer),
            cell(d.service_time, e_svc),
        );
    }
    let _ = writeln!(
        out,
        "  (expected: SEEK sweep constant, N*ROT/2, N*E[T_transfer]; a wide gap\n   in one column names the phase that broke the guarantee)"
    );
}

/// Rebuild the guarantee model from the manifest config echo, if it
/// carries `disk`, `mean` and `sd` and the profile is a known built-in.
fn model_from_echo(bundle: &mzd_prof::Bundle) -> Option<GuaranteeModel> {
    let profile = bundle.config_value("disk")?;
    let mean: f64 = bundle.config_value("mean")?.parse().ok()?;
    let sd: f64 = bundle.config_value("sd")?.parse().ok()?;
    let disk = crate::commands::profile_by_name(profile)
        .ok()?
        .build()
        .ok()?;
    GuaranteeModel::new(disk, mean, sd * sd, ZoneHandling::Discrete).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_line(line: &[&str]) -> Result<String, CliError> {
        let args: Vec<String> = line.iter().map(ToString::to_string).collect();
        crate::commands::run(&parse(&args)?)
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mzd_pm_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn postmortem_requires_bundle_flag() {
        assert!(matches!(run_line(&["postmortem"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_line(&["postmortem", "--bundle", "/nonexistent/bundle"]),
            Err(CliError::Execution(_))
        ));
    }

    #[test]
    fn serve_dump_round_trips_through_postmortem() {
        let dir = temp_dir("roundtrip");
        let out = run_line(&[
            "serve",
            "--rounds",
            "12",
            "--streams",
            "8",
            "--seed",
            "11",
            "--postmortem-dir",
            dir.to_str().unwrap(),
            "--recorder-capacity",
            "8",
            "--dump-on-exit",
        ])
        .unwrap();
        assert!(out.contains("postmortem: manual ->"), "{out}");
        let bundle = dir.join("node-0/postmortem-r000011-manual");
        assert!(bundle.join("MANIFEST.json").is_file());
        let rendered = run_line(&["postmortem", "--bundle", bundle.to_str().unwrap()]).unwrap();
        assert!(
            rendered.contains("trigger: manual at round 11"),
            "{rendered}"
        );
        assert!(rendered.contains("holds on every disk-round"), "{rendered}");
        // Provenance echoed into the manifest supports the analytic diff.
        assert!(rendered.contains("disk=viking"), "{rendered}");
        assert!(rendered.contains("analytic decomposition"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bundle_written_with_the_stall_key_still_audits() {
        // `rounds.jsonl` and `MANIFEST.json` byte for byte as `serve`
        // wrote them while each disk-round still carried a
        // recalibration-stall phase (always 0): the same schema, a
        // manifest checksum over the old lines, and one more key per disk.
        let bundle = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/data/postmortem-stall-key"
        );
        let rounds = std::fs::read_to_string(format!("{bundle}/rounds.jsonl")).unwrap();
        assert_eq!(rounds.matches(r#""stall_time":0,"#).count(), 4);
        let rendered = run_line(&["postmortem", "--bundle", bundle]).unwrap();
        assert!(
            rendered.contains("trigger: manual at round 3"),
            "{rendered}"
        );
        assert!(rendered.contains("holds on every disk-round"), "{rendered}");
        assert!(rendered.contains("analytic decomposition"), "{rendered}");
    }

    #[test]
    fn fleet_serve_dump_round_trips_through_postmortem_fleet() {
        let dir = temp_dir("fleet_roundtrip");
        let out = run_line(&[
            "serve",
            "--nodes",
            "4",
            "--disks",
            "1",
            "--lease-rounds",
            "3",
            "--rounds",
            "30",
            "--seed",
            "7",
            "--object-rounds",
            "60",
            "--fault-profile",
            "scenario=zonefail:1:10:15:20",
            "--postmortem-dir",
            dir.to_str().unwrap(),
            "--recorder-capacity",
            "16",
        ])
        .unwrap();
        assert!(out.contains("postmortem: lease.expiry_storm ->"), "{out}");
        assert!(dir.join("MANIFEST.json").is_file());
        let rendered = run_line(&["postmortem", "--fleet", dir.to_str().unwrap()]).unwrap();
        assert!(
            rendered.contains("trigger: lease.expiry_storm at fleet round"),
            "{rendered}"
        );
        assert!(rendered.contains("4 node(s), 4 with bundles"), "{rendered}");
        assert!(rendered.contains("cross-node timeline"), "{rendered}");
        // Every node's bundle passes the phase-decomposition audit.
        for node in 0..4 {
            assert!(
                rendered.contains(&format!("node {node}: lease.expiry_storm at round")),
                "{rendered}"
            );
        }
        assert!(rendered.contains("identity holds"), "{rendered}");
        assert!(!rendered.contains("VIOLATED"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_bundle_is_rejected() {
        let dir = temp_dir("tamper");
        run_line(&[
            "serve",
            "--rounds",
            "6",
            "--streams",
            "4",
            "--seed",
            "2",
            "--postmortem-dir",
            dir.to_str().unwrap(),
            "--dump-on-exit",
        ])
        .unwrap();
        let bundle = dir.join("node-0/postmortem-r000005-manual");
        let rounds = bundle.join("rounds.jsonl");
        let mut text = std::fs::read_to_string(&rounds).unwrap();
        text.push('\n');
        std::fs::write(&rounds, text).unwrap();
        let err = run_line(&["postmortem", "--bundle", bundle.to_str().unwrap()]).unwrap_err();
        assert!(matches!(err, CliError::Execution(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
