//! Flight recorder and phase profiler for the mzd workspace.
//!
//! The paper's guarantees are probabilistic, so a violated guarantee is
//! only auditable if the system can reconstruct *exactly* which rounds,
//! disks and phases spent the time. This crate provides the two
//! attribution surfaces the rest of the workspace records into:
//!
//! * **Flight recorder** ([`Recorder`], [`RoundSnapshot`]) — a
//!   fixed-capacity ring of full-fidelity per-round snapshots (phase
//!   decomposition per disk, load vector, cache/fault/degrade state,
//!   RNG stream positions). On an SLO fast-burn alert, a
//!   degradation-ladder escalation, a round overrun, a panic, or an
//!   explicit request, the retained window is dumped as a deterministic
//!   post-mortem bundle ([`read_bundle`]) that `mzd postmortem` renders
//!   and diffs against the analytic seek/rotation/transfer
//!   decomposition.
//! * **Phase profiler** ([`phase`], [`collapsed`]) — scoped guards that
//!   aggregate self/child wall time per phase into collapsed-stack
//!   lines, exportable via `serve --profile-out` and rendered as an
//!   inline-SVG flame chart ([`render_flame_svg`]) in `mzd report`.
//!
//! Like its siblings, the crate is dependency-free beyond the
//! workspace's own `mzd-telemetry` (for its JSON reader/writer).
//! Snapshots carry only logical time — round ids and RNG stream
//! positions, never wall-clock — so bundles from a seeded run are
//! byte-identical across reruns and `--jobs` widths. Profiler output is
//! wall-clock by nature and is *not* part of that determinism contract.

#![warn(missing_docs)]

mod flame;
mod fleet;
mod profile;
mod recorder;

pub use flame::{escape_html, render_flame_svg};
pub use fleet::{
    read_fleet_bundle, write_fleet_manifest, FleetBundle, FleetNodeEntry, FLEET_SCHEMA,
};
pub use profile::{collapsed, phase, profiling_enabled, reset_profile, set_profiling, PhaseGuard};
pub use recorder::{
    fnv1a64, install_panic_hook, read_bundle, Bundle, DiskPhases, DumpTrigger, FaultTotals,
    Recorder, RecorderSettings, RoundSnapshot, BUNDLE_SCHEMA,
};
