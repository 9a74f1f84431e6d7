//! One fleet member: [`ServerNode`].
//!
//! A node hosts streams, advances one round at a time, and hands its
//! streams back when the cluster declares it failed. [`ServerNode`]
//! pairs a full [`mzd_server::VideoServer`] (config + admission at the
//! fleet's composed cap + round loop) with its fleet slot and the
//! fleet's open and migration rules.

use std::sync::Arc;

use mzd_server::{
    ActiveStreamInfo, AdmissionDecision, ModelTables, ServerConfig, SloSettings, VideoServer,
};
use mzd_workload::ObjectSpec;

use crate::ClusterError;

/// One fleet member: a full [`VideoServer`] and its fleet slot. The
/// cluster reads load and steps rounds on the server itself
/// ([`Self::server`]); the node adds what the fleet's admission and
/// migration rules need: the slot id, stream open with an adopted
/// root span and the migrated-stream rendition rule, span-id rebasing
/// for stitched traces, and evacuation on failure. Streams are named
/// by their local id, the [`mzd_server::StreamHandle::id`] the server
/// issued.
#[derive(Debug)]
pub struct ServerNode {
    id: u32,
    server: VideoServer,
}

impl ServerNode {
    /// Bring up one node from a per-node server configuration on the
    /// fleet's shared [`ModelTables`], its own controller admitting at
    /// most `per_disk_limit` streams per disk (the fleet's `n*`).
    ///
    /// # Errors
    /// Propagates server configuration errors, including tables solved
    /// for a different configuration.
    pub fn new(
        id: u32,
        cfg: ServerConfig,
        seed: u64,
        tables: Arc<ModelTables>,
        per_disk_limit: u32,
    ) -> Result<Self, ClusterError> {
        Ok(Self {
            id,
            server: VideoServer::with_tables(cfg, seed, tables, per_disk_limit)?,
        })
    }

    /// The wrapped server, for read-only inspection (reports, tests).
    #[must_use]
    pub fn server(&self) -> &VideoServer {
        &self.server
    }

    /// The wrapped server, for the cluster's round step and recorder
    /// attachment.
    pub(crate) fn server_mut(&mut self) -> &mut VideoServer {
        &mut self.server
    }

    /// Enable causal span tracing on the wrapped server, rebasing its
    /// span-id allocator at `span_base` so a fleet-merged trace keeps
    /// every node's ids disjoint (node `i` at `(i + 1) << 40` by
    /// cluster convention). Re-enables the SLO layer with tracing on;
    /// call before the first round.
    ///
    /// # Errors
    /// Propagates server configuration errors from the SLO layer.
    pub fn enable_tracing(&mut self, span_base: u64) -> Result<(), ClusterError> {
        let target = self.server.config().target;
        self.server
            .enable_slo(SloSettings::for_target(target).with_tracing())?;
        self.server.set_trace_span_base(span_base);
        Ok(())
    }

    /// Whether the node's own controller admits one more stream now.
    #[must_use]
    pub(crate) fn admits(&self) -> bool {
        let decision = self.server.admission().decide(self.server.per_disk_load());
        decision == AdmissionDecision::Admit
    }

    /// Try to open a stream; `Some(local id)` on admission, `None` if
    /// the node's own controller rejects.
    ///
    /// `root`, when given, is the dispatcher's submission-time
    /// [`mzd_telemetry::SpanContext`], adopted so a migrated stream
    /// stays one causal chain across hosts. A `migrated` stream is
    /// marked degradable: it accepts a reduced-bitrate rendition at
    /// degradation rung 3+, so absorbing a failed node's load rides the
    /// existing ladder instead of glitching everyone.
    pub fn try_open_traced(
        &mut self,
        object: ObjectSpec,
        root: Option<mzd_telemetry::SpanContext>,
        migrated: bool,
    ) -> Option<u64> {
        let handle = match root {
            Some(root) => self.server.open_stream_with_root(object, root).ok()?,
            None => self.server.open_stream(object).ok()?,
        };
        if migrated {
            // The handle was issued just above, so the stream is active.
            let _ = self.server.mark_degradable(handle);
        }
        Some(handle.id())
    }

    /// This node's fleet-wide id (its slot index).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Close every hosted stream and return the manifest — each entry
    /// carries the object and resume point — sorted by local id
    /// (admission order) so migration is deterministic.
    pub fn evacuate(&mut self) -> Vec<ActiveStreamInfo> {
        let manifest = self.server.active_session_info();
        for info in &manifest {
            // `active_session_info` only lists live sessions; closing
            // them cannot fail.
            self.server
                .close_stream(info.handle)
                .expect("evacuating a live session");
        }
        manifest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(disks: u32, seed: u64) -> ServerNode {
        let cfg = ServerConfig::paper_reference(disks).unwrap();
        let tables = Arc::new(ModelTables::for_config(&cfg).unwrap());
        let limit = tables.per_disk_limit();
        ServerNode::new(3, cfg, seed, tables, limit).unwrap()
    }

    fn obj(rounds: u32) -> ObjectSpec {
        ObjectSpec::new("n", mzd_workload::SizeDistribution::paper_default(), rounds).unwrap()
    }

    #[test]
    fn server_node_round_trip() {
        let mut n = node(2, 5);
        assert_eq!(n.id(), 3);
        assert_eq!(n.server().config().disks, 2);
        assert_eq!(n.server().per_disk_load(), vec![0, 0]);
        let a = n.try_open_traced(obj(3), None, false).unwrap();
        let b = n.try_open_traced(obj(10), None, true).unwrap();
        assert_ne!(a, b);
        assert_eq!(n.server().active_streams(), 2);
        let mut completed = Vec::new();
        for _ in 0..3 {
            let report = n.server_mut().run_round();
            completed.extend(report.completed_streams.iter().map(|c| c.id));
        }
        // The 3-round object completed; the migrated one plays on.
        assert_eq!(completed, vec![a]);
        assert_eq!(n.server().active_streams(), 1);
    }

    #[test]
    fn evacuation_returns_ordered_manifest_and_empties_node() {
        let mut n = node(2, 6);
        let ids: Vec<u64> = (0..5)
            .map(|_| n.try_open_traced(obj(20), None, false).unwrap())
            .collect();
        n.server_mut().run_round();
        n.server_mut().run_round();
        let manifest = n.evacuate();
        assert_eq!(n.server().active_streams(), 0);
        assert_eq!(manifest.len(), 5);
        let got: Vec<u64> = manifest.iter().map(|e| e.handle.id()).collect();
        assert_eq!(got, ids);
        for e in &manifest {
            assert_eq!(e.fragments_consumed, 2);
            assert_eq!(e.object.rounds, 20);
        }
        // A fresh open works after evacuation.
        assert!(n.try_open_traced(obj(4), None, false).is_some());
    }

    #[test]
    fn try_open_respects_node_admission() {
        let mut n = node(1, 7);
        let limit = n.server().admission().per_disk_limit();
        for _ in 0..limit {
            assert!(n.admits());
            assert!(n.try_open_traced(obj(50), None, false).is_some());
        }
        assert!(!n.admits());
        assert!(n.try_open_traced(obj(50), None, false).is_none());
    }
}
