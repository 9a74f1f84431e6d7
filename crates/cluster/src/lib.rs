//! A sharded multi-node fleet over the single-node continuous-media
//! server, with the paper's stochastic service guarantee composed
//! fleet-wide.
//!
//! One [`mzd_server::VideoServer`] is one *node*: `D` disks behind one
//! admission controller, good for a few dozen streams per disk. Serving
//! millions of streams needs many nodes — and a fleet answer to the
//! question the paper answers for one disk array: *what per-stream
//! glitch guarantee can the operator promise?*
//!
//! The crate is organized as four layers:
//!
//! * **[`node`]** — [`ServerNode`]: one fleet member over
//!   `VideoServer`, behind the narrow surface the cluster needs
//!   (identity, capacity, stream open, one round step, evacuation).
//! * **[`placement`]** — deterministic stream placement: a consistent-
//!   hash ring (virtual nodes) picks the primary; a striping-aware
//!   rendezvous ordering ranks the fallbacks, so node failure moves only
//!   the failed node's streams and placement is a pure function of the
//!   stream's key and the set of available nodes.
//! * **[`dispatcher`]** — a pull-based dispatcher with one explicit FIFO
//!   request queue per node and per-node lease timeouts. Nodes pull work
//!   when they have admission headroom; a node that misses lease renewal
//!   for [`ClusterConfig::lease_rounds`] consecutive rounds is declared
//!   failed and its streams are deterministically requeued onto the
//!   survivors — re-entering *ahead of* newer arrivals.
//! * **[`guarantee`]** — the analytic composition: per-node Chernoff
//!   bounds (eq. 3.3.3/3.3.5) compose into a cluster-wide `p_error`
//!   with a deterministic glitch charge for lease outage and migration
//!   latency, in the transform-domain style of Jiang's stochastic
//!   network calculus (heterogeneous per-round Bernoulli glitches bound
//!   by the binomial tail at the mean rate). Each node's own
//!   [`mzd_server::AdmissionController`] enforces the composed `n*`.
//!   One node is a fleet with no spare and no failover price, which is
//!   how `mzd serve` runs a single server.
//!
//! [`Cluster`] ties the layers together and runs the fleet round loop,
//! stepping nodes in parallel via `mzd_par::par_map_owned` — results
//! are byte-identical for any `--jobs` because each node owns its RNG
//! and results join in node order.
//!
//! ```
//! use mzd_cluster::{Cluster, ClusterConfig};
//! use mzd_workload::ObjectSpec;
//!
//! let cfg = ClusterConfig::paper_reference(4, 2).unwrap(); // 4 nodes x 2 disks
//! let mut fleet = Cluster::new(cfg, 7).unwrap();
//! let seq = fleet.submit(ObjectSpec::paper_default()).unwrap();
//! fleet.run_round();
//! assert_eq!(fleet.active_streams(), 1);
//! assert!(fleet.guarantee().p_error_stream <= 0.01);
//! # let _ = seq;
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod dispatcher;
pub mod guarantee;
mod metrics;
pub mod node;
pub mod placement;

pub use cluster::{
    Cluster, ClusterCompletedStream, ClusterConfig, ClusterRoundReport, ClusterStatus,
    HealthStatus, MigrationRecord, NodeOutage, SubmitOutcome, NODE_SPAN_BASE_SHIFT,
    SKETCH_QUEUE_DEPTH, SKETCH_SERVICE_TIME,
};
pub use dispatcher::{Dispatcher, LeaseTable, NodeView, Pending};
pub use guarantee::ClusterGuarantee;
pub use node::ServerNode;
pub use placement::Placement;

/// Errors from cluster configuration and operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A configuration parameter was invalid, or the composed guarantee
    /// is infeasible for the requested fleet shape.
    Invalid(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Invalid(msg) => write!(f, "invalid cluster parameters: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<mzd_server::ServerError> for ClusterError {
    fn from(e: mzd_server::ServerError) -> Self {
        ClusterError::Invalid(e.to_string())
    }
}

impl From<mzd_core::CoreError> for ClusterError {
    fn from(e: mzd_core::CoreError) -> Self {
        ClusterError::Invalid(e.to_string())
    }
}

impl From<mzd_workload::WorkloadError> for ClusterError {
    fn from(e: mzd_workload::WorkloadError) -> Self {
        ClusterError::Invalid(e.to_string())
    }
}

impl From<mzd_health::HealthError> for ClusterError {
    fn from(e: mzd_health::HealthError) -> Self {
        ClusterError::Invalid(e.to_string())
    }
}
