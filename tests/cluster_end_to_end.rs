//! End-to-end checks for the sharded fleet: failure handling meets the
//! lease protocol, and the composed guarantee holds against observed
//! glitch counts over long horizons.

use mzd_cluster::{Cluster, ClusterConfig, NodeOutage, SubmitOutcome};
use mzd_workload::{ObjectSpec, SizeDistribution};

fn object(rounds: u32) -> ObjectSpec {
    ObjectSpec::new("e2e", SizeDistribution::paper_default(), rounds).unwrap()
}

/// Fill the fleet to its composed capacity with `rounds`-round objects.
fn fill(fleet: &mut Cluster, rounds: u32) -> u64 {
    let cap = fleet.guarantee().fleet_capacity;
    for _ in 0..cap {
        assert!(matches!(
            fleet.submit(object(rounds)).unwrap(),
            SubmitOutcome::Queued { .. }
        ));
    }
    cap
}

/// A killed node's streams are requeued and re-hosted within the lease
/// timeout plus the budgeted requeue slack — the `ℓ` the guarantee
/// debits is a real bound on the outage a viewer sees, not a wish.
#[test]
fn node_failure_requeues_streams_within_the_lease_budget() {
    let mut cfg = ClusterConfig::paper_reference(6, 2).unwrap();
    cfg.lease_rounds = 3;
    let start = 10;
    cfg.outages.push(NodeOutage {
        node: 2,
        start,
        rounds: 500, // dead for the whole test
    });
    let mut fleet = Cluster::new(cfg, 31).unwrap();
    fill(&mut fleet, 300);
    for _ in 0..start {
        fleet.run_round();
    }
    let victims = fleet.node(2).server().active_streams();
    assert!(victims > 0, "node 2 must host streams before the kill");

    // Silent from round `start`; the lease was last renewed at round
    // start − 1, so expiry (and the migration wave) lands exactly at
    // round start − 1 + lease_rounds.
    let mut migrated = 0usize;
    let mut readmitted = 0u64;
    let mut expiry_round = None;
    for _ in 0..10 {
        let r = fleet.run_round();
        if !r.failed_nodes.is_empty() {
            assert_eq!(r.failed_nodes, vec![2]);
            assert_eq!(r.round, start - 1 + 3, "expiry must land at lease end");
            expiry_round = Some(r.round);
            migrated = r.migrations.len();
        }
        if let Some(at) = expiry_round {
            // Adopting nodes pull in later rounds; all victims must be
            // re-hosted within the REQUEUE_SLACK_ROUNDS budget.
            if r.round > at {
                readmitted += r.admitted;
                assert!(
                    r.round <= at + u64::from(mzd_cluster::guarantee::REQUEUE_SLACK_ROUNDS)
                        || readmitted >= migrated as u64,
                    "round {}: only {readmitted}/{migrated} victims re-hosted",
                    r.round
                );
            }
        }
    }
    let at = expiry_round.expect("the lease must expire");
    assert_eq!(migrated, victims, "every hosted stream must migrate");
    assert_eq!(fleet.node(2).server().active_streams(), 0);
    assert!(readmitted >= migrated as u64);
    let _ = at;
}

/// Migrated streams keep their arrival rank: after a failure, the
/// re-queued streams (older sequence numbers) are admitted before
/// fresh arrivals that queued later — fleet-level FIFO fairness.
#[test]
fn migrated_streams_outrank_newer_arrivals_in_the_queue() {
    let mut cfg = ClusterConfig::paper_reference(3, 1).unwrap();
    cfg.lease_rounds = 2;
    cfg.outages.push(NodeOutage {
        node: 0,
        start: 5,
        rounds: 300,
    });
    let mut fleet = Cluster::new(cfg, 13).unwrap();
    // Leave headroom for the fresh arrivals below — committed capacity
    // only frees on completion, and the point here is ordering, not
    // admission rejection.
    let cap = fleet.guarantee().fleet_capacity;
    for _ in 0..cap.saturating_sub(8) {
        fleet.submit(object(60)).unwrap();
    }
    for _ in 0..5 {
        fleet.run_round();
    }
    let victims: Vec<u64> = (0..20)
        .filter_map(|_| {
            let r = fleet.run_round();
            (!r.migrations.is_empty()).then(|| r.migrations.iter().map(|m| m.seq).collect())
        })
        .next()
        .unwrap_or_default();
    assert!(!victims.is_empty(), "the outage must migrate streams");
    // Submit fresh arrivals now — newer seq than every victim.
    let fresh: Vec<u64> = (0..4)
        .map(|_| match fleet.submit(object(60)).unwrap() {
            SubmitOutcome::Queued { seq, .. } => seq,
            SubmitOutcome::Rejected { .. } => u64::MAX,
        })
        .collect();
    assert!(fresh.iter().all(|&s| s != u64::MAX));
    // As capacity frees up, victims must complete their (shorter,
    // remaining) play-out before any fresh arrival completes: strict
    // FIFO would admit them first.
    let mut completions: Vec<u64> = Vec::new();
    for _ in 0..200 {
        let r = fleet.run_round();
        completions.extend(r.completed.iter().map(|c| c.seq));
    }
    let victim_last = victims
        .iter()
        .map(|v| {
            completions
                .iter()
                .position(|c| c == v)
                .expect("victim completes")
        })
        .max()
        .unwrap();
    for f in &fresh {
        if let Some(pos) = completions.iter().position(|c| c == f) {
            assert!(
                pos > victim_last,
                "fresh arrival {f} completed before a migrated victim"
            );
        }
    }
}

/// The composed guarantee, checked observationally: run a fleet at its
/// admitted capacity through a real node failure for ≥ 2048 rounds and
/// compare per-stream glitch counts against the budget. The composed
/// bound says a stream busts `g` with probability ≤ ε = 1%; with
/// hundreds of completed streams, the observed violation rate must sit
/// inside the budget.
#[test]
fn composed_p_error_holds_over_long_horizon() {
    let m: u32 = 1200;
    let mut cfg = ClusterConfig::paper_reference(4, 1).unwrap();
    cfg.lease_rounds = 3;
    // One real failure mid-horizon, spanning many stream lifetimes.
    cfg.outages.push(NodeOutage {
        node: 1,
        start: 400,
        rounds: 300,
    });
    let mut fleet = Cluster::new(cfg, 97).unwrap();
    let guarantee = fleet.guarantee().clone();
    assert!(guarantee.p_error_stream <= 0.01);
    fill(&mut fleet, m);
    let rounds = 2400u64;
    let mut completed = Vec::new();
    for _ in 0..rounds {
        let r = fleet.run_round();
        // Constant offered load: replace completed play-outs.
        for _ in &r.completed {
            fleet.submit(object(m)).unwrap();
        }
        completed.extend(r.completed);
    }
    assert!(fleet.round() >= 2048);
    assert_eq!(fleet.status().completed, completed.len());
    assert!(
        completed.len() >= 100,
        "need a population to judge the bound, got {}",
        completed.len()
    );
    let violations = completed
        .iter()
        .filter(|c| c.glitches >= guarantee.g)
        .count();
    let observed = violations as f64 / completed.len() as f64;
    assert!(
        observed <= guarantee.epsilon,
        "observed error rate {observed:.4} busts the ε = {} budget \
         ({violations}/{} streams exceeded g = {})",
        guarantee.epsilon,
        completed.len(),
        guarantee.g
    );
    // The failure really happened and streams really migrated.
    let status = fleet.status();
    assert!(
        status.migrations > 0,
        "the scripted outage must migrate streams"
    );
    assert!(status.outage_glitches > 0);
    // Sanity on the bound itself: capacity and spare accounting.
    assert_eq!(status.nodes, 4);
    assert_eq!(guarantee.spares, 1);
}

/// Eager registration: constructing a cluster exposes the full
/// `cluster.*` metric family before any round runs, so scrapers see an
/// identical catalog for calm and chaotic fleets.
#[test]
fn cluster_metrics_register_eagerly_at_construction() {
    let _fleet = Cluster::new(ClusterConfig::paper_reference(2, 1).unwrap(), 5).unwrap();
    let text = mzd_telemetry::prom::render(mzd_telemetry::global());
    for name in [
        "cluster.nodes",
        "cluster.nodes.available",
        "cluster.nodes.failed",
        "cluster.streams.active",
        "cluster.streams.waiting",
        "cluster.dispatch.submitted",
        "cluster.dispatch.rejected",
        "cluster.dispatch.admitted",
        "cluster.dispatch.requeued",
        "cluster.lease.renewals",
        "cluster.lease.expirations",
        "cluster.migrations",
        "cluster.migrated_streams",
        "cluster.glitches",
        "cluster.glitches.outage",
        "cluster.round.queue_depth",
        "cluster.p_error_bound",
    ] {
        let prom_name = name.replace('.', "_");
        assert!(
            text.contains(&prom_name),
            "metric {name} ({prom_name}) missing from exposition:\n{text}"
        );
    }
}
