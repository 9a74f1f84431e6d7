//! One fleet member: [`ServerNode`].
//!
//! A node hosts streams, advances one round at a time, and hands its
//! streams back when the cluster declares it failed. [`ServerNode`]
//! wraps the full [`mzd_server::VideoServer`] (config + admission +
//! round loop) behind the narrow surface the cluster needs.

use mzd_server::{ServerConfig, SloSettings, StreamHandle, VideoServer};
use mzd_workload::ObjectSpec;

use crate::ClusterError;

/// What one node reports after stepping one round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeRoundReport {
    /// Node-local ids of streams that glitched this round.
    pub glitched: Vec<u64>,
    /// Node-local ids of streams that finished play-out this round.
    pub completed: Vec<u64>,
    /// Disks that overran the round.
    pub late_disks: u32,
    /// Per-disk sweep service times this round (seconds), in disk
    /// order — the samples the fleet observability plane feeds into
    /// its per-node quantile sketches.
    pub disk_service_times: Vec<f64>,
}

/// One stream pulled off a failed node, with enough state to resume it
/// elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct EvacuatedStream {
    /// The stream's id on the failed node.
    pub local_id: u64,
    /// The object being played out (full original spec).
    pub object: ObjectSpec,
    /// Fragments already consumed — the resume point.
    pub fragments_consumed: u32,
    /// Glitches charged on the failed node.
    pub glitches: u64,
}

/// One fleet member: a full [`VideoServer`] plus the handle
/// bookkeeping the cluster needs. The cluster sees identity and
/// capacity, admission-gated stream open, one round of the serving
/// loop, and evacuation on failure; everything else the full server
/// offers (caching, SLO, tracing, recorder) stays behind it.
#[derive(Debug)]
pub struct ServerNode {
    id: u32,
    server: VideoServer,
    /// Handles by local id — `StreamHandle` is opaque, so the node keeps
    /// the map from the ids it reports to the handles it got.
    handles: std::collections::BTreeMap<u64, StreamHandle>,
}

impl ServerNode {
    /// Bring up one node from a per-node server configuration. When the
    /// config carries a degradation ladder, the SLO layer that drives it
    /// is enabled automatically (as `mzd serve --degrade` does).
    ///
    /// # Errors
    /// Propagates server configuration errors.
    pub fn new(id: u32, cfg: ServerConfig, seed: u64) -> Result<Self, ClusterError> {
        let degrade = cfg.degrade.is_some();
        let target = cfg.target;
        let mut server = VideoServer::new(cfg, seed)?;
        if degrade {
            server.enable_slo(SloSettings::for_target(target))?;
        }
        Ok(Self {
            id,
            server,
            handles: std::collections::BTreeMap::new(),
        })
    }

    /// The wrapped server, for read-only inspection (reports, tests).
    #[must_use]
    pub fn server(&self) -> &VideoServer {
        &self.server
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
            .enable_slo(SloSettings::for_target(target).with_tracing(true))?;
        self.server.set_trace_span_base(span_base);
        Ok(())
    }

    /// Attach a flight recorder to the wrapped server (the server
    /// pushes one [`mzd_prof::RoundSnapshot`] per round into it).
    pub fn attach_recorder(&mut self, recorder: mzd_prof::Recorder) {
        self.server.attach_recorder(recorder);
    }

    /// [`ServerNode::try_open`] with an externally minted root span adopted
    /// for the stream — how the dispatcher's submission-time
    /// [`mzd_telemetry::SpanContext`] stitches into this node's trace
    /// so a migrated stream stays one causal chain across hosts.
    pub fn try_open_traced(
        &mut self,
        object: ObjectSpec,
        root: Option<mzd_telemetry::SpanContext>,
    ) -> Option<u64> {
        let handle = match root {
            Some(root) => self.server.open_stream_with_root(object, root).ok()?,
            None => self.server.open_stream(object).ok()?,
        };
        self.handles.insert(handle.id(), handle);
        Some(handle.id())
    }

    /// This node's fleet-wide id (its slot index).
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of disks behind this node.
    #[must_use]
    pub fn disks(&self) -> u32 {
        self.server.config().disks
    }

    /// Active streams hosted right now.
    #[must_use]
    pub fn active_streams(&self) -> usize {
        self.server.active_streams()
    }

    /// Per-disk active-stream counts for the next round — the vector the
    /// cluster-level admission controller decides on, and whose minimum
    /// the striping-aware placement fallback ranks by.
    #[must_use]
    pub fn per_disk_load(&self) -> Vec<u32> {
        self.server.per_disk_load()
    }

    /// Try to open a stream; `Some(local id)` on admission, `None` if
    /// the node's own controller rejects (the cluster's composed limit
    /// is checked by the caller first — this is the node's backstop).
    pub fn try_open(&mut self, object: ObjectSpec) -> Option<u64> {
        self.try_open_traced(object, None)
    }

    /// Mark a hosted stream as degradable (a migrated stream accepts a
    /// reduced-bitrate rendition at degradation rung 3+, so absorbing a
    /// failed node's load rides the existing ladder instead of glitching
    /// everyone). Returns whether the stream was found.
    pub fn mark_degradable(&mut self, local_id: u64) -> bool {
        match self.handles.get(&local_id) {
            Some(&h) => self.server.set_degradable(h, true).is_ok(),
            None => false,
        }
    }

    /// Advance one round.
    pub fn step_round(&mut self) -> NodeRoundReport {
        let report = self.server.run_round();
        for id in &report.completed_streams {
            self.handles.remove(id);
        }
        NodeRoundReport {
            late_disks: report.disks.iter().filter(|d| d.late).count() as u32,
            disk_service_times: report.disks.iter().map(|d| d.service_time).collect(),
            glitched: report.glitched_streams,
            completed: report.completed_streams,
        }
    }

    /// Close every hosted stream and return the manifest, sorted by
    /// local id (admission order) so migration is deterministic.
    pub fn evacuate(&mut self) -> Vec<EvacuatedStream> {
        let manifest = self.server.active_session_info();
        let mut out = Vec::with_capacity(manifest.len());
        for info in manifest {
            // `active_session_info` only lists live sessions; closing
            // them cannot fail.
            self.server
                .close_stream(info.handle)
                .expect("evacuating a live session");
            self.handles.remove(&info.handle.id());
            out.push(EvacuatedStream {
                local_id: info.handle.id(),
                object: info.object,
                fragments_consumed: info.fragments_consumed,
                glitches: info.glitches,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(disks: u32, seed: u64) -> ServerNode {
        ServerNode::new(3, ServerConfig::paper_reference(disks).unwrap(), seed).unwrap()
    }

    fn obj(rounds: u32) -> ObjectSpec {
        ObjectSpec::new("n", mzd_workload::SizeDistribution::paper_default(), rounds).unwrap()
    }

    #[test]
    fn server_node_round_trip() {
        let mut n = node(2, 5);
        assert_eq!(n.id(), 3);
        assert_eq!(n.disks(), 2);
        assert_eq!(n.per_disk_load(), vec![0, 0]);
        let a = n.try_open(obj(3)).unwrap();
        let b = n.try_open(obj(10)).unwrap();
        assert_ne!(a, b);
        assert_eq!(n.active_streams(), 2);
        assert!(n.mark_degradable(b));
        assert!(!n.mark_degradable(999));
        for _ in 0..3 {
            n.step_round();
        }
        // The 3-round object completed and its handle is forgotten.
        assert_eq!(n.active_streams(), 1);
        assert!(!n.mark_degradable(a));
    }

    #[test]
    fn evacuation_returns_ordered_manifest_and_empties_node() {
        let mut n = node(2, 6);
        let ids: Vec<u64> = (0..5).map(|_| n.try_open(obj(20)).unwrap()).collect();
        n.step_round();
        n.step_round();
        let manifest = n.evacuate();
        assert_eq!(n.active_streams(), 0);
        assert_eq!(manifest.len(), 5);
        let got: Vec<u64> = manifest.iter().map(|e| e.local_id).collect();
        assert_eq!(got, ids);
        for e in &manifest {
            assert_eq!(e.fragments_consumed, 2);
            assert_eq!(e.object.rounds, 20);
        }
        // A fresh open works after evacuation.
        assert!(n.try_open(obj(4)).is_some());
    }

    #[test]
    fn try_open_respects_node_admission() {
        let mut n = node(1, 7);
        let limit = n.server().admission().per_disk_limit();
        for _ in 0..limit {
            assert!(n.try_open(obj(50)).is_some());
        }
        assert!(n.try_open(obj(50)).is_none());
    }
}
