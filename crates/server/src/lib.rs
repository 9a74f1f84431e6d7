//! A continuous-media server built on the PODS'97 stochastic service
//! guarantees: the layer a downstream user actually deploys.
//!
//! The architecture follows §2 and §5 of the paper:
//!
//! * **Data layout** ([`striping`]) — coarse-grained round-robin striping
//!   of each object's fragments across all `D` disks, so consecutive
//!   rounds of one stream hit consecutive disks and load stays balanced.
//! * **Admission control** ([`admission`]) — a table-driven controller
//!   (§5: precomputed `N_max` per tolerance) that admits a new stream only
//!   if every disk stays at or below the per-disk limit derived from the
//!   analytic model in [`mzd_core`].
//! * **Round scheduling** ([`server`]) — one SCAN round per disk per
//!   round tick, simulated with the exact kinematics of [`mzd_sim`];
//!   per-stream glitch accounting matches the model's definitions.
//! * **Client buffering** ([`buffer`]) — double-buffer accounting per
//!   client, reporting the high-water buffer requirement (§2: "the buffer
//!   size must not be below a certain minimum").
//! * **Fragment caching** ([`server::CacheSettings`]) — an optional
//!   [`mzd_cache`] layer in front of the disks: hot fragments of stored
//!   objects are served from memory, concurrent readers coalesce onto one
//!   in-flight fetch (delayed hits), and admission can inflate the
//!   per-disk limit by the conservatively measured disk-avoidance ratio.
//! * **SLO monitoring** ([`slo`]) — an optional layer that watches the
//!   promised guarantee at run time: glitch-budget burn-rate alerting
//!   (freezing cache-aware over-admission during fast burns), online
//!   model-conformance checking against the §3 predicted service-time
//!   CDF, and per-stream causal tracing exportable as Chrome trace JSON.
//!
//! ```
//! use mzd_server::{QualityTarget, ServerConfig, VideoServer};
//! use mzd_workload::ObjectSpec;
//!
//! let cfg = ServerConfig::paper_reference(4).unwrap(); // 4 disks
//! // The paper's §4 target: at most 12 glitches in 1 200 rounds, w.p. 0.99.
//! assert_eq!(cfg.target, QualityTarget { m: 1200, g: 12, epsilon: 0.01 });
//! let mut server = VideoServer::new(cfg, 7).unwrap();
//! let stream = server
//!     .open_stream(ObjectSpec::paper_default())
//!     .expect("an empty server admits the first stream");
//! server.run_round();
//! assert!(server.active_streams() == 1);
//! # let _ = stream;
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod buffer;
pub mod degrade;
pub mod server;
pub mod slo;
pub mod striping;
pub mod tables;

pub use admission::{AdmissionController, AdmissionDecision, QualityTarget};
pub use buffer::BufferTracker;
pub use degrade::{DegradeSettings, DegradeStatus};
pub use server::{
    ActiveStreamInfo, CacheMisconfig, CacheSettings, RoundReport, ServerConfig, StreamHandle,
    VideoServer,
};
pub use slo::{SloSettings, SloStatus};
pub use striping::StripingLayout;
pub use tables::ModelTables;

/// Errors from server configuration and operation.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// A configuration parameter was invalid.
    Invalid(String),
    /// A stream id was not found among active sessions.
    UnknownStream(u64),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Invalid(msg) => write!(f, "invalid server parameters: {msg}"),
            ServerError::UnknownStream(id) => write!(f, "unknown stream id {id}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<mzd_core::CoreError> for ServerError {
    fn from(e: mzd_core::CoreError) -> Self {
        ServerError::Invalid(e.to_string())
    }
}

impl From<mzd_sim::SimError> for ServerError {
    fn from(e: mzd_sim::SimError) -> Self {
        ServerError::Invalid(e.to_string())
    }
}

impl From<mzd_slo::SloError> for ServerError {
    fn from(e: mzd_slo::SloError) -> Self {
        ServerError::Invalid(e.to_string())
    }
}
