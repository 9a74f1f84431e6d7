//! Round-based discrete-event simulation of SCAN-scheduled continuous-media
//! service on multi-zone disks — the validation apparatus of §4 of the
//! paper.
//!
//! Each scheduling round, every active stream needs one fragment from the
//! disk (§2.3). The simulator draws, per stream per round, an independent
//! fragment size and an independent capacity-uniform placement (matching
//! the layout assumption of §3.3), serves all requests in one SCAN sweep
//! with exact seek kinematics, uniform rotational latencies and per-zone
//! transfer rates, and records which streams completed within the round
//! length.
//!
//! * [`round`] — the mechanics of a single round (request generation,
//!   sweep ordering, completion times);
//! * [`event`] — the discrete-event core underneath every round: one
//!   fused serve loop with its per-round identities debug-asserted,
//!   struct-of-arrays request state in preallocated arenas, a counting
//!   sort into SCAN order, a guide-table zone pick, and direct draws in
//!   the legacy per-request order;
//! * [`engine`] — multi-round simulation with per-stream glitch accounting;
//! * [`experiment`] — estimators for the paper's measured quantities:
//!   `p_late` (Figure 1) and `p_error` (Table 2), with Wilson confidence
//!   intervals;
//! * [`cache_sweep`] — a shared-catalog variant where Zipf-popular
//!   streams read through a fragment cache, mapping glitch rate against
//!   cache size and popularity skew;
//! * [`drift`] — a drift-injection scenario that skews placement toward
//!   the inner zones mid-run and measures how quickly the online
//!   conformance checker ([`mzd_slo`]) notices the model no longer holds.
//!
//! Determinism: every entry point takes a seed; identical seeds give
//! identical results on all platforms (the RNG is `StdRng` and all float
//! arithmetic is order-stable).

#![warn(missing_docs)]

pub mod cache_sweep;
pub mod drift;
pub mod engine;
pub mod event;
pub mod experiment;
pub mod mixed;
pub mod round;
pub mod workahead;

pub use cache_sweep::{run_point as run_cache_sweep_point, CacheSweepConfig, CacheSweepPoint};
pub use drift::{run_drift_scenario, DriftScenarioConfig, DriftScenarioReport};
pub use engine::{run_replicated_windows, GlitchAccounting};
pub use experiment::{
    estimate_p_error, estimate_p_late, estimate_p_late_par, PErrorEstimate, PLateEstimate,
};
pub use mixed::{MixedConfig, MixedRunStats, MixedSimulator};
pub use round::{RoundOutcome, RoundSimulator, SeekPolicy, SimConfig};
pub use workahead::{WorkAheadConfig, WorkAheadSimulator, WorkAheadStats};

/// Errors from simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A configuration parameter was invalid.
    Invalid(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Invalid(msg) => write!(f, "invalid simulation parameters: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}
