//! Deterministic stream placement: consistent hashing with a
//! striping-aware rendezvous fallback.
//!
//! Two placement functions cooperate:
//!
//! * a **consistent-hash ring** ([`Placement::primary`]) assigns each
//!   stream key a primary node. Each node owns [`VIRTUAL_NODES`] points
//!   on a 64-bit ring; a key maps to the first available node clockwise
//!   from its hash. Adding or losing one node moves only the streams
//!   whose arc it owned — the property that keeps failure migration
//!   minimal.
//! * a **rendezvous (highest-random-weight) ordering**
//!   ([`Placement::rendezvous`]) ranks *all* nodes per key. When the
//!   primary is full or gone, the dispatcher walks this order — but
//!   re-ranks the top few candidates by their least-loaded disk
//!   (*striping-aware*): the node whose striping rotation has the most
//!   headroom on its emptiest disk absorbs the stream with the least
//!   sweep-position skew. Rendezvous ordering is per-key pseudorandom,
//!   so spill from a hot node spreads over the fleet instead of
//!   cascading onto one neighbour.
//!
//! Both functions are pure: `(key, available set) → node`. Re-running a
//! placement after a failure is deterministic, which is what makes the
//! requeue of a dead node's streams byte-identical across runs and
//! worker counts.

use crate::ClusterError;

/// Ring points per node. 64 keeps the per-node arc share within a few
/// percent of uniform for fleets up to a few hundred nodes while the
/// whole ring still fits in cache (64 × nodes × 12 bytes).
pub const VIRTUAL_NODES: u32 = 64;

/// Salt for ring-point hashing.
const RING_SALT: u64 = 0x5EED_4B1D_0000_0001;
/// Salt for stream-key derivation.
const KEY_SALT: u64 = 0x5EED_4B1D_0000_0002;
/// Salt for rendezvous scores.
const HRW_SALT: u64 = 0x5EED_4B1D_0000_0003;

/// Deterministic placement over a fixed-size fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    nodes: u32,
    /// `(point, node)` sorted by point.
    ring: Vec<(u64, u32)>,
}

impl Placement {
    /// Build the ring for a fleet of `nodes` members.
    ///
    /// # Errors
    /// [`ClusterError::Invalid`] for an empty fleet.
    pub fn new(nodes: u32) -> Result<Self, ClusterError> {
        if nodes == 0 {
            return Err(ClusterError::Invalid(
                "a cluster needs at least one node".into(),
            ));
        }
        let mut ring = Vec::with_capacity(nodes as usize * VIRTUAL_NODES as usize);
        for node in 0..nodes {
            for vnode in 0..VIRTUAL_NODES {
                let point = mzd_par::derive_seed(RING_SALT ^ u64::from(node), u64::from(vnode));
                ring.push((point, node));
            }
        }
        // Sort by point; disambiguate (astronomically unlikely) point
        // collisions by node id so the ring order is total.
        ring.sort_unstable();
        Ok(Self { nodes, ring })
    }

    /// The placement key for cluster stream `seq` — fixed for the
    /// stream's whole life, so re-placement after a node failure starts
    /// from the same key with a smaller available set.
    #[must_use]
    pub fn key_for(seq: u64) -> u64 {
        mzd_par::derive_seed(KEY_SALT, seq)
    }

    /// The primary node for `key`: the first node clockwise from the
    /// key's ring position for which `available(node)` holds. `None` if
    /// no node is available.
    #[must_use]
    pub fn primary(&self, key: u64, available: impl Fn(u32) -> bool) -> Option<u32> {
        let start = self.ring.partition_point(|&(p, _)| p < key);
        let (wrapped, clockwise) = self.ring.split_at(start);
        clockwise
            .iter()
            .chain(wrapped)
            .map(|&(_, node)| node)
            .find(|&node| available(node))
    }

    /// All nodes ranked by rendezvous (highest-random-weight) score for
    /// `key`, best first. Unlike the ring, every node gets an
    /// independent per-key score, so consecutive fallback choices
    /// scatter rather than pile onto the ring successor.
    #[must_use]
    pub fn rendezvous(&self, key: u64) -> Vec<u32> {
        let mut scored: Vec<(u64, u32)> = (0..self.nodes)
            .map(|node| (mzd_par::derive_seed(key ^ HRW_SALT, u64::from(node)), node))
            .collect();
        scored.sort_unstable_by(|a, b| b.cmp(a));
        scored.into_iter().map(|(_, node)| node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_nodes_rejected() {
        assert!(Placement::new(0).is_err());
    }

    #[test]
    fn primary_is_deterministic_and_respects_availability() {
        let p = Placement::new(8).unwrap();
        for seq in 0..200 {
            let key = Placement::key_for(seq);
            let a = p.primary(key, |_| true).unwrap();
            let b = p.primary(key, |_| true).unwrap();
            assert_eq!(a, b);
            let c = p.primary(key, |n| n != a).unwrap();
            assert_ne!(c, a);
        }
        assert_eq!(p.primary(Placement::key_for(1), |_| false), None);
    }

    #[test]
    fn ring_spreads_keys_roughly_uniformly() {
        let p = Placement::new(16).unwrap();
        let mut counts = [0u32; 16];
        for seq in 0..16_000 {
            let n = p.primary(Placement::key_for(seq), |_| true).unwrap();
            counts[n as usize] += 1;
        }
        // Perfect balance would be 1000 per node; virtual nodes keep the
        // skew within a generous 2.5x band.
        for (i, &c) in counts.iter().enumerate() {
            assert!((400..=2500).contains(&c), "node {i} got {c} of 16000 keys");
        }
    }

    #[test]
    fn losing_one_node_only_moves_its_streams() {
        let p = Placement::new(10).unwrap();
        let dead = 4u32;
        let mut moved = 0u32;
        for seq in 0..5000 {
            let key = Placement::key_for(seq);
            let before = p.primary(key, |_| true).unwrap();
            let after = p.primary(key, |n| n != dead).unwrap();
            if before != dead {
                // Consistent hashing: survivors' assignments never move.
                assert_eq!(before, after, "seq {seq}");
            } else {
                assert_ne!(after, dead);
                moved += 1;
            }
        }
        assert!(moved > 0, "the dead node owned some arc");
    }

    #[test]
    fn rendezvous_ranks_every_node_once_and_scatters() {
        let p = Placement::new(12).unwrap();
        let order = p.rendezvous(Placement::key_for(7));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<u32>>());
        // Different keys produce different leaders often enough to
        // scatter spill (not a fixed successor).
        let mut leaders = std::collections::BTreeSet::new();
        for seq in 0..200 {
            leaders.insert(p.rendezvous(Placement::key_for(seq))[0]);
        }
        assert!(
            leaders.len() >= 8,
            "only {} distinct leaders",
            leaders.len()
        );
    }
}
