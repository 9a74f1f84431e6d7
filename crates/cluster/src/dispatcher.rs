//! Pull-based dispatch: explicit per-node FIFO request queues, a router
//! that honours placement, and per-node lease timeouts.
//!
//! The dispatcher never pushes work into a node. It *parks* each
//! request in the queue of the node placement chose; every round, nodes
//! with admission headroom pull from the front of their own queue. This
//! keeps admission decisions local (each node's controller decides)
//! while the queues make waiting work observable and the drain order
//! auditable.
//!
//! # Fairness invariant
//!
//! Every queue is kept sorted ascending by cluster sequence number
//! (`seq`, assigned at submission). Fresh arrivals carry monotonically
//! increasing `seq`, so appending preserves the order; a stream
//! *migrated* off a failed node keeps its original `seq` and is
//! re-inserted at its sorted position — **ahead of every newer
//! arrival**. A stream therefore never loses its place in line by
//! being unlucky enough to sit on the node that died.
//!
//! # Leases
//!
//! Liveness is tracked by [`LeaseTable`]: a node renews its lease each
//! round it reports. A node that misses renewals for `lease_rounds`
//! consecutive rounds is declared failed exactly once, at the round its
//! lease expires — a deterministic function of the round counter, so
//! failure handling does not depend on wall-clock time or worker
//! scheduling.

use std::collections::VecDeque;

use mzd_workload::ObjectSpec;

/// How many rendezvous candidates the striping-aware fallback considers
/// before giving up and parking on the primary.
pub const FALLBACK_CANDIDATES: usize = 4;

/// One queued request: a stream waiting to be opened on its node.
#[derive(Debug, Clone, PartialEq)]
pub struct Pending {
    /// Cluster-wide sequence number — the arrival order, and the FIFO
    /// rank. Migrated streams keep their original `seq`.
    pub seq: u64,
    /// The object to play out. For a migrated stream this is the
    /// *remainder* (rounds not yet consumed on the failed node).
    pub object: ObjectSpec,
    /// Glitches already charged to this stream on previous hosts.
    pub carried_glitches: u64,
    /// Whether this entry re-entered the queue via failure migration.
    pub migrated: bool,
}

/// A routing snapshot of one node, taken at the start of a round.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// The node's fleet slot.
    pub node: u32,
    /// Whether the node is live (lease not expired, no active outage).
    pub available: bool,
    /// Open slots under the node's effective stream limit, minus work
    /// already parked in the node's queue.
    pub headroom: u32,
    /// The node's least-loaded disk — the striping-aware tiebreak:
    /// lower means the node's striping rotation absorbs a new stream
    /// with less sweep-position skew.
    pub min_disk_load: u32,
}

/// Per-node FIFO queues plus the routing policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Dispatcher {
    queues: Vec<VecDeque<Pending>>,
}

impl Dispatcher {
    /// A dispatcher for `nodes` fleet members, all queues empty.
    #[must_use]
    pub fn new(nodes: u32) -> Self {
        Self {
            queues: (0..nodes).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Choose a node for `pending` and park it in that node's queue.
    ///
    /// Routing: the consistent-hash primary wins if it has headroom;
    /// otherwise the best of the top [`FALLBACK_CANDIDATES`] rendezvous
    /// candidates *with* headroom, ranked by least-loaded disk (ties
    /// broken by rendezvous order). If nobody has headroom the request
    /// parks on the primary and waits its turn. Returns the chosen
    /// node, or the request back if no node is available at all.
    ///
    /// # Errors
    /// The pending request is handed back when every node is
    /// unavailable; the caller retries after the next lease revival.
    pub fn route(
        &mut self,
        pending: Pending,
        views: &[NodeView],
        placement: &crate::Placement,
    ) -> Result<u32, Pending> {
        debug_assert_eq!(views.len(), self.queues.len());
        let key = crate::Placement::key_for(pending.seq);
        let Some(primary) = placement.primary(key, |n| views[n as usize].available) else {
            return Err(pending);
        };
        let target = if views[primary as usize].headroom > 0 {
            primary
        } else {
            let mut best: Option<&NodeView> = None;
            for cand in placement
                .rendezvous(key)
                .into_iter()
                .filter(|&n| views[n as usize].available)
                .take(FALLBACK_CANDIDATES)
            {
                let v = &views[cand as usize];
                if v.headroom == 0 {
                    continue;
                }
                // Strictly-less keeps rendezvous order as the tiebreak.
                if best.map_or(true, |b| v.min_disk_load < b.min_disk_load) {
                    best = Some(v);
                }
            }
            best.map_or(primary, |v| v.node)
        };
        self.enqueue(target, pending);
        Ok(target)
    }

    /// Park `pending` in `node`'s queue at its sorted position (by
    /// `seq`). Appends for fresh arrivals; for migrated streams this is
    /// the re-insertion that puts them ahead of newer arrivals.
    pub fn enqueue(&mut self, node: u32, pending: Pending) {
        let q = &mut self.queues[node as usize];
        let pos = q.partition_point(|p| p.seq <= pending.seq);
        q.insert(pos, pending);
        debug_assert!(
            q.iter().zip(q.iter().skip(1)).all(|(a, b)| a.seq < b.seq),
            "queue must stay strictly sorted by seq"
        );
    }

    /// Pull the oldest waiting request off `node`'s queue, if any.
    pub fn pull(&mut self, node: u32) -> Option<Pending> {
        self.queues[node as usize].pop_front()
    }

    /// The oldest waiting request on `node`'s queue, without removing it.
    #[must_use]
    pub fn peek(&self, node: u32) -> Option<&Pending> {
        self.queues[node as usize].front()
    }

    /// Requests parked for `node`.
    #[must_use]
    pub fn queue_len(&self, node: u32) -> usize {
        self.queues[node as usize].len()
    }

    /// Requests parked fleet-wide.
    #[must_use]
    pub fn queued_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Empty `node`'s queue (the node failed before admitting them);
    /// returned in FIFO order for re-routing.
    pub fn drain_node(&mut self, node: u32) -> Vec<Pending> {
        self.queues[node as usize].drain(..).collect()
    }

    /// Charge one waiting round to every *migrated* pending. A migrated
    /// stream is mid play-out: a round spent in a queue is a round its
    /// viewer receives nothing, i.e. a glitch round — the latency the
    /// guarantee's `REQUEUE_SLACK_ROUNDS` charge budgets for. Fresh
    /// arrivals are merely postponed, not glitched, and are not
    /// charged. Returns how many streams were charged.
    pub fn charge_migrated_wait(&mut self) -> u64 {
        let mut charged = 0;
        for q in &mut self.queues {
            for p in q.iter_mut().filter(|p| p.migrated) {
                p.carried_glitches += 1;
                charged += 1;
            }
        }
        charged
    }
}

/// Per-node lease bookkeeping. A node's lease is renewed every round it
/// reports; missing renewals for `lease_rounds` consecutive rounds
/// expires the lease and declares the node failed.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseTable {
    lease_rounds: u32,
    /// Round at which each node's lease lapses unless renewed.
    expires: Vec<u64>,
    live: Vec<bool>,
}

impl LeaseTable {
    /// A table for `nodes` members, all live, leases running from
    /// round 0.
    #[must_use]
    pub fn new(nodes: u32, lease_rounds: u32) -> Self {
        Self {
            lease_rounds,
            expires: vec![u64::from(lease_rounds); nodes as usize],
            live: vec![true; nodes as usize],
        }
    }

    /// Whether `node` currently holds a live lease.
    #[must_use]
    pub fn is_live(&self, node: u32) -> bool {
        self.live[node as usize]
    }

    /// Count of live nodes.
    #[must_use]
    pub fn live_count(&self) -> u32 {
        self.live.iter().filter(|&&l| l).count() as u32
    }

    /// Record that `node` reported during `round`: its lease now runs
    /// to `round + lease_rounds`. No-op for a node already declared
    /// failed (it must be revived first).
    pub fn renew(&mut self, node: u32, round: u64) {
        if self.live[node as usize] {
            self.expires[node as usize] = round + u64::from(self.lease_rounds);
        }
    }

    /// Declare failed every live node whose lease lapsed at or before
    /// `round`; returns them in node order. Each failure is reported
    /// exactly once.
    pub fn expire(&mut self, round: u64) -> Vec<u32> {
        let mut failed = Vec::new();
        for node in 0..self.live.len() {
            if self.live[node] && self.expires[node] <= round {
                self.live[node] = false;
                failed.push(node as u32);
            }
        }
        failed
    }

    /// Bring a failed node back: live again with a fresh lease from
    /// `round`.
    pub fn revive(&mut self, node: u32, round: u64) {
        self.live[node as usize] = true;
        self.expires[node as usize] = round + u64::from(self.lease_rounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;

    fn obj(rounds: u32) -> ObjectSpec {
        ObjectSpec::new("d", mzd_workload::SizeDistribution::paper_default(), rounds).unwrap()
    }

    fn pending(seq: u64) -> Pending {
        Pending {
            seq,
            object: obj(10),
            carried_glitches: 0,
            migrated: false,
        }
    }

    fn views(headroom: &[u32]) -> Vec<NodeView> {
        headroom
            .iter()
            .enumerate()
            .map(|(i, &h)| NodeView {
                node: i as u32,
                available: true,
                headroom: h,
                min_disk_load: 0,
            })
            .collect()
    }

    #[test]
    fn route_prefers_primary_with_headroom() {
        let placement = Placement::new(4).unwrap();
        let mut d = Dispatcher::new(4);
        let v = views(&[10, 10, 10, 10]);
        let p = pending(42);
        let expect = placement.primary(Placement::key_for(42), |_| true).unwrap();
        let got = d.route(p, &v, &placement).unwrap();
        assert_eq!(got, expect);
        assert_eq!(d.queue_len(got), 1);
    }

    #[test]
    fn route_falls_back_to_least_loaded_disk_candidate() {
        let placement = Placement::new(4).unwrap();
        let mut d = Dispatcher::new(4);
        let key = Placement::key_for(7);
        let primary = placement.primary(key, |_| true).unwrap();
        let mut v = views(&[5, 5, 5, 5]);
        v[primary as usize].headroom = 0; // primary full
                                          // Give distinct disk loads; the fallback should pick the
                                          // available candidate with the smallest min_disk_load.
        for view in &mut v {
            view.min_disk_load = 10 + view.node;
        }
        let cands: Vec<u32> = placement
            .rendezvous(key)
            .into_iter()
            .take(FALLBACK_CANDIDATES)
            .filter(|&n| n != primary)
            .collect();
        let expect = *cands.iter().min().unwrap(); // min_disk_load = 10 + node
        let got = d.route(pending(7), &v, &placement).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn route_parks_on_primary_when_fleet_is_full() {
        let placement = Placement::new(3).unwrap();
        let mut d = Dispatcher::new(3);
        let v = views(&[0, 0, 0]);
        let primary = placement.primary(Placement::key_for(9), |_| true).unwrap();
        let got = d.route(pending(9), &v, &placement).unwrap();
        assert_eq!(got, primary);
    }

    #[test]
    fn route_hands_request_back_when_no_node_available() {
        let placement = Placement::new(2).unwrap();
        let mut d = Dispatcher::new(2);
        let mut v = views(&[5, 5]);
        for view in &mut v {
            view.available = false;
        }
        let p = pending(1);
        let back = d.route(p.clone(), &v, &placement).unwrap_err();
        assert_eq!(back, p);
        assert_eq!(d.queued_total(), 0);
    }

    #[test]
    fn migrated_stream_reenters_ahead_of_newer_arrivals() {
        let mut d = Dispatcher::new(1);
        d.enqueue(0, pending(10));
        d.enqueue(0, pending(11));
        d.enqueue(0, pending(12));
        let migrated = Pending {
            migrated: true,
            carried_glitches: 3,
            ..pending(5)
        };
        d.enqueue(0, migrated);
        let order: Vec<u64> = std::iter::from_fn(|| d.pull(0)).map(|p| p.seq).collect();
        assert_eq!(order, vec![5, 10, 11, 12]);
    }

    #[test]
    fn drain_node_preserves_fifo_order() {
        let mut d = Dispatcher::new(2);
        d.enqueue(1, pending(3));
        d.enqueue(1, pending(8));
        d.enqueue(1, pending(5));
        let drained: Vec<u64> = d.drain_node(1).into_iter().map(|p| p.seq).collect();
        assert_eq!(drained, vec![3, 5, 8]);
        assert_eq!(d.queue_len(1), 0);
    }

    #[test]
    fn lease_expires_exactly_once_and_revives() {
        let mut t = LeaseTable::new(3, 4);
        assert_eq!(t.live_count(), 3);
        // Nodes 0 and 2 keep renewing; node 1 goes silent.
        for round in 1..=4 {
            t.renew(0, round);
            t.renew(2, round);
            assert_eq!(t.expire(round), if round < 4 { vec![] } else { vec![1] });
        }
        assert!(!t.is_live(1));
        assert_eq!(t.expire(5), Vec::<u32>::new()); // reported once only
                                                    // Renewing a dead node is a no-op until it is revived.
        t.renew(1, 6);
        assert!(!t.is_live(1));
        t.revive(1, 6);
        assert!(t.is_live(1));
        for node in 0..3 {
            t.renew(node, 7);
        }
        assert_eq!(t.expire(10), Vec::<u32>::new());
        assert_eq!(t.expire(11), vec![0, 1, 2]);
    }
}
