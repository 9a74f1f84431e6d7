//! Fleet-wide composition of the paper's per-node stochastic guarantee.
//!
//! One node with `n` streams per disk carries the paper's per-stream
//! error bound `P[glitches ≥ g in m rounds] ≤ HR(p_glitch(n,t), m, g)`
//! (eq. 3.3.5, the Hagerup–Rüb Chernoff form of the binomial tail at
//! the per-round glitch probability of eq. 3.3.3). A fleet breaks two
//! of that bound's assumptions, and the composition here repairs both
//! in the transform domain, in the style of Jiang's stochastic network
//! calculus:
//!
//! 1. **Heterogeneous rounds.** A migrated stream sees different hosts
//!    (different loads) across its `m` rounds, so its glitch
//!    indicators are independent Bernoulli variables with *varying*
//!    probabilities `p_1..p_m`. The Chernoff bound only needs the MGF
//!    product `∏(1 + p_i(e^s - 1))`, and by AM–GM that product is
//!    maximised — for a fixed total `Σ p_i` — when all `p_i` equal the
//!    mean. Since the cluster admission cap guarantees every host runs
//!    at most `n*` streams per disk, each `p_i ≤ p_glitch(n*, t)` and
//!    the homogeneous bound at `n*` dominates every itinerary.
//! 2. **Outage rounds.** While a stream's node is silent (lease not
//!    yet expired) and while the stream waits in a queue after
//!    migration, it receives no data: those rounds are glitches with
//!    probability 1, which no Chernoff argument absorbs. They are
//!    charged *deterministically*: a failure costs at most
//!    `ℓ = lease_rounds + REQUEUE_SLACK_ROUNDS` glitch-rounds, and
//!    since total glitches are `X + ℓ` with `X` the binomial host
//!    part, the *exact* identity `P[X + ℓ ≥ g] = P[X ≥ g − ℓ]`
//!    debits `ℓ` straight from the glitch budget. (Folding `ℓ` into
//!    the rate as `ℓ/m` instead — the `e^{sℓ}` factor left inside the
//!    MGF — gives a strictly looser bound; the debit form is lossless,
//!    so the fleet pays for failover only what the outage actually
//!    costs.)
//!
//! The composed per-stream bound is therefore
//!
//! ```text
//! p_error_stream = HR(p_glitch(n*, t),  m,  g − ℓ)
//! ```
//!
//! and `n*` is the largest per-disk stream count for which it still
//! meets ε. The debit covers **one node failure per stream lifetime**
//! — the failure model the fleet's single spare is provisioned for;
//! back-to-back failures inside one `m`-round window exceed both.
//! Because the debit shrinks the budget, `n*` is never larger than
//! the single-node `n_max_error` — the fleet pays for failover
//! headroom in admitted streams, and [`ClusterGuarantee::compose`]
//! reports exactly how many.
//!
//! Fleet-wide, the union bound gives
//! `p_error_any = min(1, capacity · p_error_stream)`: the probability
//! *any* admitted stream busts its glitch budget. Capacity counts only
//! `nodes − spares` members (one spare when the fleet has more than
//! one node) so a single failure never leaves admitted streams without
//! a host.
//!
//! A one-node fleet has no spare and so no failover target: a failure
//! has nowhere to move its streams, and no debit buys anything. It
//! charges `ℓ = 0`, so `n*` is the single-node cap.

use mzd_server::{ModelTables, QualityTarget};

use crate::ClusterError;

/// Extra glitch-rounds charged per failure on top of the lease
/// timeout: one round for the evacuation/re-route wave plus one round
/// of queue wait before the adopting node pulls the stream.
pub const REQUEUE_SLACK_ROUNDS: u32 = 2;

/// The composed fleet-wide guarantee: how many streams the fleet may
/// admit, and what per-stream / any-stream error bounds that admission
/// level carries through one node failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterGuarantee {
    /// Per-disk stream cap the cluster admission enforces on every
    /// node — the `n*` of the composed bound. Never exceeds the
    /// single-node `n_max_error`.
    pub n_star: u32,
    /// The single-node cap for reference: what one isolated node could
    /// admit per disk. `n_max - n_star` disks-streams is the failover
    /// price per disk.
    pub n_max_single: u32,
    /// Streams one node may host (`n_star × disks_per_node`).
    pub node_capacity: u32,
    /// Streams the fleet admits (`(nodes − spares) × node_capacity`).
    pub fleet_capacity: u64,
    /// Nodes held back as failover headroom (1 when `nodes > 1`).
    pub spares: u32,
    /// Per-round glitch bound at `n*` (eq. 3.3.3).
    pub p_glitch_round: f64,
    /// Deterministic glitch-rounds `ℓ = lease_rounds +
    /// REQUEUE_SLACK_ROUNDS` one failure costs a stream, debited from
    /// the budget; 0 on one node, which has no failover target.
    pub outage_rounds: u64,
    /// The budget left for host glitches: `g − ℓ`.
    pub g_effective: u64,
    /// Composed per-stream bound `HR(p_glitch, m, g − ℓ)`.
    pub p_error_stream: f64,
    /// Union bound over the whole fleet:
    /// `min(1, fleet_capacity · p_error_stream)`.
    pub p_error_any: f64,
    /// Glitch-budget window (rounds) from the target.
    pub m: u64,
    /// Allowed glitches in the window.
    pub g: u64,
    /// The per-stream error budget the composition meets.
    pub epsilon: f64,
}

impl ClusterGuarantee {
    /// Compose the fleet guarantee for `nodes` members of
    /// `disks_per_node` disks each, all running the model `tables` were
    /// solved from, with lease timeout `lease_rounds` (unused on one
    /// node). The single-node cap is the tables' per-disk limit, so the
    /// fleet solves eq. 3.3.6 once for the composition and every node's
    /// admission controller.
    ///
    /// # Errors
    /// [`ClusterError::Invalid`] when the fleet shape is degenerate, or
    /// when no positive `n*` satisfies the composed bound — i.e. the
    /// lease timeout alone consumes the glitch budget (`ℓ/m` too close
    /// to `g/m`), which is fixed by shortening the lease or loosening
    /// the target.
    pub fn compose(
        tables: &ModelTables,
        nodes: u32,
        disks_per_node: u32,
        lease_rounds: u32,
    ) -> Result<Self, ClusterError> {
        let QualityTarget { m, g, epsilon } = tables.target();
        if nodes == 0 || disks_per_node == 0 {
            return Err(ClusterError::Invalid(
                "fleet needs at least one node and one disk per node".into(),
            ));
        }
        let n_max_single = tables.per_disk_limit();
        let ell = if nodes > 1 {
            u64::from(lease_rounds) + u64::from(REQUEUE_SLACK_ROUNDS)
        } else {
            0
        };
        if ell >= g {
            return Err(ClusterError::Invalid(format!(
                "the lease timeout consumes the glitch budget: one failure \
                 costs {ell} glitch-rounds but only {g} are budgeted per \
                 {m}-round window (lease_rounds = {lease_rounds}); shorten \
                 the lease or loosen the target"
            )));
        }
        let g_effective = g - ell;

        // Largest n whose host-glitch tail still fits the debited
        // budget. The debit only tightens the bound, so start from the
        // single-node cap and walk down, over the b_glitch(1..=cap) the
        // cap's own scan folded.
        let b_glitch = tables.glitch_bounds();
        let found = (1..=n_max_single).rev().find_map(|n| {
            let p_glitch = b_glitch[n as usize - 1];
            let p_error = mzd_core::glitch::stream_error_bound(p_glitch, m, g_effective);
            (p_error <= epsilon).then_some((n, p_glitch, p_error))
        });
        let Some((n_star, p_glitch_round, p_error_stream)) = found else {
            return Err(ClusterError::Invalid(format!(
                "no admission level satisfies the composed bound even at one \
                 stream per disk: after the lease timeout debits {ell} of \
                 the {g} budgeted glitches per {m}-round window \
                 (lease_rounds = {lease_rounds}), the remaining budget \
                 {g_effective} is below the host glitch tail; shorten the \
                 lease or loosen the target"
            )));
        };

        // The spare rule, as a fleet with nothing ejected.
        let node_capacity = n_star * disks_per_node;
        let fleet = mzd_health::recompose(nodes, u64::from(node_capacity), p_error_stream, 0, 0);
        Ok(Self {
            n_star,
            n_max_single,
            node_capacity,
            fleet_capacity: fleet.effective_capacity,
            spares: fleet.spares,
            p_glitch_round,
            outage_rounds: ell,
            g_effective,
            p_error_stream,
            p_error_any: fleet.p_error_any,
            m,
            g,
            epsilon,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mzd_server::ServerConfig;

    /// The paper's reference node solved at round length `t`.
    fn tables_at(t: f64) -> ModelTables {
        let mut cfg = ServerConfig::paper_reference(1).unwrap();
        cfg.round_length = t;
        ModelTables::for_config(&cfg).unwrap()
    }

    fn tables() -> ModelTables {
        tables_at(1.0)
    }

    #[test]
    fn composed_cap_pays_for_failover_but_stays_near_the_anchor() {
        let g = ClusterGuarantee::compose(&tables(), 4, 2, 3).unwrap();
        // Paper anchor: one isolated node admits 28 streams/disk.
        assert_eq!(g.n_max_single, 28);
        assert_eq!(g.outage_rounds, 5); // lease 3 + 2 slack
        assert_eq!(g.g_effective, 7); // 12 - 5
        assert!(g.n_star <= 28, "the debit can only tighten the cap");
        assert!(g.n_star >= 20, "a 5-round debit must not collapse it");
        assert!(g.p_error_stream <= 0.01);
        assert_eq!(g.node_capacity, g.n_star * 2);
        assert_eq!(g.spares, 1);
        assert_eq!(g.fleet_capacity, 3 * u64::from(g.node_capacity));
        let expect_any = (g.fleet_capacity as f64 * g.p_error_stream).min(1.0);
        assert_eq!(g.p_error_any.to_bits(), expect_any.to_bits());
    }

    #[test]
    fn longer_leases_never_admit_more() {
        let tables = tables();
        let mut prev = u32::MAX;
        // ℓ = lease + 2 runs from 3 to 11 against the budget g = 12.
        for lease in [1u32, 2, 3, 5, 9] {
            let g = ClusterGuarantee::compose(&tables, 4, 2, lease).unwrap();
            assert!(g.n_star <= prev, "lease {lease} admitted more");
            assert!(g.p_error_stream <= 0.01);
            prev = g.n_star;
        }
    }

    #[test]
    fn single_node_fleet_keeps_no_spare() {
        let g = ClusterGuarantee::compose(&tables(), 1, 8, 3).unwrap();
        assert_eq!(g.spares, 0);
        assert_eq!(g.fleet_capacity, u64::from(g.n_star) * 8);
        // No failover target, so no failover price: the single-node cap.
        assert_eq!(g.outage_rounds, 0);
        assert_eq!(g.n_star, g.n_max_single);
    }

    #[test]
    fn lease_consuming_the_budget_is_infeasible() {
        // ℓ = 10 + 2 = 12 ⇒ one failure alone spends the whole g = 12
        // budget; no admission level can help.
        let err = ClusterGuarantee::compose(&tables(), 4, 2, 10).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("lease"), "unhelpful error: {msg}");
        // The boundary case ℓ = g − 1 still composes.
        assert!(ClusterGuarantee::compose(&tables(), 4, 2, 9).is_ok());
    }

    #[test]
    fn composition_matches_the_per_n_walk_down() {
        // The running-sum walk-down against the per-n form: every field,
        // f64s by bits, on the 4×2 and 16×1 shapes at 1-s rounds and
        // 16×4 at 8-s rounds (fleetbench's `steady`).
        for (t, nodes, disks, lease) in [(1.0, 4, 2, 3), (1.0, 16, 1, 3), (8.0, 16, 4, 3)] {
            let tables = tables_at(t);
            let got = ClusterGuarantee::compose(&tables, nodes, disks, lease).unwrap();
            let model = tables.model();
            let n_max_single = model.n_max_error(t, 1200, 12, 0.01).unwrap();
            let ell = u64::from(lease + REQUEUE_SLACK_ROUNDS);
            let g_effective = 12 - ell;
            let mut n = n_max_single;
            let (n_star, p_glitch, p_error) = loop {
                let p_glitch = model.p_glitch_bound(n, t).unwrap();
                let p_error = mzd_core::glitch::stream_error_bound(p_glitch, 1200, g_effective);
                if p_error <= 0.01 {
                    break (n, p_glitch, p_error);
                }
                n -= 1;
            };
            let spares = u32::from(nodes > 1);
            let fleet_capacity = u64::from(nodes - spares) * u64::from(n_star * disks);
            let want = ClusterGuarantee {
                n_star,
                n_max_single,
                node_capacity: n_star * disks,
                fleet_capacity,
                spares,
                p_glitch_round: p_glitch,
                outage_rounds: ell,
                g_effective,
                p_error_stream: p_error,
                p_error_any: (fleet_capacity as f64 * p_error).min(1.0),
                m: 1200,
                g: 12,
                epsilon: 0.01,
            };
            assert_eq!(got, want, "{nodes}x{disks} @ {t} s");
            for (a, b) in [
                (got.p_glitch_round, want.p_glitch_round),
                (got.p_error_stream, want.p_error_stream),
                (got.p_error_any, want.p_error_any),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{nodes}x{disks} @ {t} s");
            }
        }
    }
}
