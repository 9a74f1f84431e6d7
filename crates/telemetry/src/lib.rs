//! Observability substrate for the mzd workspace.
//!
//! The paper's subject is *quantified* service quality — glitch rates,
//! round-overrun probabilities, admission headroom — so the reproduction
//! must be able to measure itself: how long a Chernoff minimization takes,
//! how the simulated round service time is actually distributed, what the
//! admission controller accepted and rejected. This crate provides the
//! primitives the rest of the workspace records into:
//!
//! * [`Registry`] — a thread-safe metrics registry of named
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s with
//!   quantile estimation (p50/p95/p99/p999) suitable for service-time and
//!   seek-time tails. [`Registry::snapshot`] renders the whole registry
//!   as JSON (see [`Snapshot`]).
//! * [`Span`] — a timer guard: created against a histogram name, it
//!   records the elapsed wall-clock seconds into that histogram on drop.
//!   The [`span!`] macro is the one-line form against the global
//!   registry.
//! * [`event::Event`] + [`event::EventSink`] — a structured event log
//!   with pluggable sinks ([`event::NullSink`], [`event::StderrSink`],
//!   [`event::JsonlSink`], [`event::MemorySink`]) for per-round records
//!   and admission decisions.
//! * [`QuantileSketch`] — a plain-value, mergeable quantile sketch on
//!   the fixed log-bucket [`geometry`] histograms record into, and the
//!   one read side of that layout: histograms answer every quantile and
//!   bucket query through a copy into a sketch, and per-node fleet
//!   scopes record straight into sketches and merge them exactly.
//! * [`prom::render`] — Prometheus text exposition of a whole
//!   [`Registry`], including histogram buckets as cumulative
//!   `_bucket{le="..."}` series (the `--prom-out` surface), written by
//!   [`prom::render_sketch_series`] under a [`prom::LabelSet`] — the
//!   same writer the fleet's node-labeled series use.
//!
//! # Global vs. scoped
//!
//! Library code records into the process-wide [`global()`] registry and
//! [`event::emit`]s to the process-wide sink so instrumentation needs no
//! plumbing through every constructor. Everything is also available as
//! plain values ([`Registry::new`], any `EventSink` instance) for tests
//! that need isolation.
//!
//! Metric handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap
//! `Arc`s: look them up once (`global().counter("x")`), store the clone,
//! and increment lock-free on the hot path. A counter increment is one
//! relaxed atomic add; a histogram record is an atomic add plus a handful
//! of atomic updates. Both are timed, with an event emit against no sink,
//! by the `telemetry_*` rows of `experiments -- bench-summary`.
//!
//! # Naming convention
//!
//! Dotted paths, `crate.subsystem.quantity`:
//! `core.chernoff.iterations`, `sim.round.service_time`,
//! `server.admission.rejected`. Durations recorded by [`Span`]s are in
//! seconds.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod prom;
mod registry;
mod sketch;
mod span;

pub use event::{emit, events_enabled, set_sink, Event, EventSink};
pub use registry::{
    geometry, global, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot,
    QUANTILE_LABELS,
};
pub use sketch::QuantileSketch;
pub use span::{Span, SpanContext};

/// Time a scope into a histogram of the [`global()`] registry.
///
/// ```
/// # fn chernoff_minimize() {}
/// let _span = mzd_telemetry::span!("core.chernoff.minimize");
/// chernoff_minimize();
/// // elapsed seconds recorded into histogram "core.chernoff.minimize"
/// // when `_span` drops
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($crate::global().execution_histogram($name))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prom::LabelSet;

    #[test]
    fn label_sets_sort_and_escape() {
        let l = LabelSet::new().with("node", "3").with("disk", "0");
        assert_eq!(l.render(), "{disk=\"0\",node=\"3\"}");
        // Bucket lines append `le` after the sorted scope labels.
        let mut out = String::new();
        crate::prom::render_sketch_series(&mut out, "x", &l, &QuantileSketch::new());
        assert!(
            out.starts_with("x_bucket{disk=\"0\",node=\"3\",le=\"+Inf\"} 0\n"),
            "{out}"
        );
        let l = LabelSet::new().with("zone", "a\"b\\c\nd");
        assert_eq!(l.render(), "{zone=\"a\\\"b\\\\c\\nd\"}");
        // Replacement keeps a single entry per key.
        let l = LabelSet::new().with("node", "1").with("node", "2");
        assert_eq!(l.render(), "{node=\"2\"}");
        assert_eq!(LabelSet::new().render(), "");
    }

    #[test]
    fn sketch_agrees_with_histogram_buckets() {
        let mut sketch = QuantileSketch::new();
        let hist = Registry::new().histogram("t");
        for i in 1..=500 {
            let v = f64::from(i) * 1e-3;
            sketch.record(v);
            hist.record(v);
        }
        assert_eq!(sketch.cumulative_buckets(), hist.cumulative_buckets());
        for (_, q) in QUANTILE_LABELS {
            assert_eq!(sketch.quantile(q), hist.quantile(q));
        }
    }

    #[test]
    fn empty_sketch_quantile_is_nan() {
        let s = QuantileSketch::new();
        assert!(s.quantile(0.5).is_nan());
        assert_eq!(s.count(), 0);
        // NaN observations are dropped, not binned.
        let mut s = QuantileSketch::new();
        s.record(f64::NAN);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merged_quantile_matches_concatenated_within_one_bucket() {
        // Two disjoint populations; the merged p99 must equal the p99
        // of the concatenation up to bucket resolution (~29% width).
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut all = QuantileSketch::new();
        for i in 1..=300 {
            let low = f64::from(i) * 1e-4;
            let high = f64::from(i) * 2e-3;
            a.record(low);
            b.record(high);
            all.record(low);
            all.record(high);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.bucket_counts(), all.bucket_counts());
        for (_, q) in QUANTILE_LABELS {
            assert_eq!(merged.quantile(q), all.quantile(q));
        }
    }
}
