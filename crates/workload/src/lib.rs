//! Continuous-media workload models.
//!
//! The paper's server stores variable-bit-rate (VBR) objects as fragments
//! of equal *display time* (§2.1), so fragment sizes vary with the encoded
//! bandwidth. Based on the MPEG traffic studies it cites (\[Ros95\],
//! \[KH95\]) the paper models fragment sizes as Gamma-distributed; this
//! crate provides that model plus the alternatives the paper notes the
//! derivation also supports ("other heavy-tailed distributions such as
//! Pareto or Lognormal"):
//!
//! * [`size::SizeDistribution`] — Gamma / lognormal / Pareto / constant
//!   fragment-size laws with a common interface;
//! * [`gop`] — a synthetic MPEG-like GOP (group-of-pictures) frame-size
//!   generator producing VBR traces with I/P/B structure and scene-level
//!   correlation, standing in for the proprietary traces behind \[Ros95\];
//! * [`trace`] — fragment traces: aggregation of frames into fixed-
//!   display-time fragments and empirical statistics;
//! * [`stream`] — stream/object specifications and catalogs used by the
//!   simulator and the server layer;
//! * [`popularity`] — Zipf object-popularity law governing which objects
//!   streams open (the skew that makes a fragment cache worthwhile).
//!
//! Sizes are in bytes, times in seconds, everywhere.

#![warn(missing_docs)]

pub mod gop;
pub mod popularity;
pub mod size;
pub mod stream;
pub mod trace;

pub use popularity::Zipf;
pub use size::SizeDistribution;
pub use stream::{ObjectCatalog, ObjectSpec};
pub use trace::Trace;

/// Errors from workload construction.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A model parameter was invalid.
    Invalid(String),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Invalid(msg) => write!(f, "invalid workload parameters: {msg}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<mzd_numerics::NumericsError> for WorkloadError {
    fn from(e: mzd_numerics::NumericsError) -> Self {
        WorkloadError::Invalid(e.to_string())
    }
}
