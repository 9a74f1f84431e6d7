//! Server-side SLO monitoring: glitch-budget burn alerting, online
//! model conformance, and per-stream causal tracing.
//!
//! [`crate::VideoServer::enable_slo`] attaches an `SloState` built
//! from [`SloSettings`]; [`crate::VideoServer::run_round`] then feeds it
//! every round:
//!
//! * the **burn engine** ([`mzd_slo::BurnRateEngine`]) consumes
//!   `(stream-rounds served, glitches)` against the budget the admission
//!   target promises ([`QualityTarget::glitch_budget`]). A fast-burn
//!   alert freezes cache-aware over-admission — the measured-hit-ratio
//!   inflation is exactly the part of the limit *not* covered by the
//!   analytic proof, so it is the part that must yield when the glitch
//!   budget burns too fast;
//! * the **conformance checker** ([`mzd_slo::ConformanceChecker`])
//!   consumes each busy disk's observed sweep time pushed through the
//!   model's predicted CDF (a probability integral transform; uniform
//!   iff the §3 model still describes the disks) and raises `slo.drift`
//!   when the observed tail provably exceeds the predicted one;
//! * the **tracer** ([`mzd_slo::Tracer`]), when enabled, records one
//!   causal span chain per stream per round (admission → round → cache
//!   or disk disposition → glitch) plus per-disk sweep spans, exportable
//!   as Chrome trace-event JSON.

use crate::admission::QualityTarget;
use crate::tables::ModelTables;
use mzd_slo::{
    BurnConfig, BurnRateEngine, ConformanceChecker, ConformanceConfig, Tracer, Transition,
};
use mzd_telemetry::SpanContext;
use std::collections::HashMap;

/// Disk-sweep spans get trace ids in a reserved high range so they never
/// collide with stream trace ids (raw stream ids).
const DISK_TRACE_BASE: u64 = 1 << 48;

/// How the server's SLO layer is configured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSettings {
    /// Burn-rate engine configuration. [`SloSettings::for_target`]
    /// derives the budget from the admission target.
    pub burn: BurnConfig,
    /// Whether to record causal spans for Chrome trace export.
    pub tracing: bool,
}

impl SloSettings {
    /// Default settings for an admission target: burn windows/factors
    /// from [`BurnConfig::for_budget`] on the target's glitch budget,
    /// tracing off. Conformance always runs, with
    /// [`ConformanceConfig::default`].
    #[must_use]
    pub fn for_target(target: QualityTarget) -> Self {
        let budget = target.glitch_budget();
        Self {
            burn: BurnConfig::for_budget(if budget > 0.0 { budget } else { 1e-9 }),
            tracing: false,
        }
    }

    /// The same settings with tracing switched on.
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }
}

/// A point-in-time summary of the SLO layer, for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloStatus {
    /// Whether a fast-burn alert is active right now.
    pub alert_active: bool,
    /// Fast-burn alerts raised so far.
    pub alerts_raised: u64,
    /// Burn rate over the fast window.
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// Burn rate over the long reporting window.
    pub burn_long: f64,
    /// Whether model drift is flagged right now.
    pub drift_active: bool,
    /// Drift alarms raised so far.
    pub drifts_raised: u64,
    /// KS-style PIT uniformity deviation.
    pub ks_statistic: f64,
    /// Observed fraction of sweeps beyond the monitored model quantile.
    pub tail_exceedance: f64,
    /// Whether cache-aware over-admission is currently frozen.
    pub over_admission_frozen: bool,
    /// Causal spans recorded so far (0 when tracing is off).
    pub trace_spans: usize,
}

/// Global-registry handles for the SLO gauges and counters, cached like
/// the server's other metric handles.
#[derive(Debug)]
pub(crate) struct SloMetrics {
    pub burn_fast: mzd_telemetry::Gauge,
    pub burn_slow: mzd_telemetry::Gauge,
    pub burn_long: mzd_telemetry::Gauge,
    pub alerts: mzd_telemetry::Counter,
    pub ks: mzd_telemetry::Gauge,
    pub tail: mzd_telemetry::Gauge,
    pub drifts: mzd_telemetry::Counter,
}

impl SloMetrics {
    fn new() -> Self {
        let g = mzd_telemetry::global();
        Self {
            burn_fast: g.gauge("slo.burn_rate.fast"),
            burn_slow: g.gauge("slo.burn_rate.slow"),
            burn_long: g.gauge("slo.burn_rate.long"),
            alerts: g.counter("slo.alerts_raised"),
            ks: g.gauge("slo.conformance.ks"),
            tail: g.gauge("slo.conformance.tail_exceedance"),
            drifts: g.counter("slo.drifts_raised"),
        }
    }
}

/// The server's attached SLO machinery (crate-internal; summarized for
/// callers by [`SloStatus`]). The predicted-CDF tables conformance reads
/// are not here: they belong to the server's [`ModelTables`], shared
/// with its fleet peers.
#[derive(Debug)]
pub(crate) struct SloState {
    pub burn: BurnRateEngine,
    /// The PIT window over each busy disk's sweep.
    conformance: ConformanceChecker,
    pub tracer: Option<Tracer>,
    /// Root span per live stream (tracing only).
    stream_roots: HashMap<u64, SpanContext>,
    pub metrics: SloMetrics,
}

impl SloState {
    pub(crate) fn new(settings: SloSettings) -> Result<Self, mzd_slo::SloError> {
        let burn = BurnRateEngine::new(settings.burn)?;
        Ok(Self {
            burn,
            conformance: ConformanceChecker::new(ConformanceConfig::default())?,
            tracer: settings.tracing.then(Tracer::new),
            stream_roots: HashMap::new(),
            metrics: SloMetrics::new(),
        })
    }

    /// Feed one busy disk's sweep to the conformance checker: its
    /// observed service time pushed through `tables`' predicted CDF for
    /// its batch size (the PIT). An unbuildable table maps to NaN, which
    /// the checker counts as an exceedance rather than silently dropping.
    /// `None` when its state did not change.
    pub(crate) fn observe_sweep(
        &mut self,
        tables: &ModelTables,
        requests: u32,
        service_time: f64,
    ) -> Option<Transition> {
        let u = tables
            .cdf_for(requests)
            .map_or(f64::NAN, |c| c.evaluate(service_time));
        self.conformance.observe(u)
    }

    /// KS statistic and tail exceedance of the conformance window.
    pub(crate) fn conformance_stats(&self) -> (f64, f64) {
        (
            self.conformance.ks_statistic(),
            self.conformance.tail_exceedance(),
        )
    }

    /// The root span context of a stream, minted on first sight unless
    /// one was adopted ([`Self::adopt_root`]). `None` when tracing is
    /// off.
    pub(crate) fn stream_root(&mut self, stream: u64) -> Option<SpanContext> {
        let tracer = self.tracer.as_mut()?;
        let root = self.stream_roots.entry(stream);
        Some(*root.or_insert_with(|| tracer.root(stream)))
    }

    /// Adopt an externally minted root for `stream` — how a cluster
    /// dispatcher threads its submission-time span through admission on
    /// whichever node the stream lands on, so cross-node chains stitch.
    /// A no-op when tracing is off.
    pub(crate) fn adopt_root(&mut self, stream: u64, root: SpanContext) {
        if self.tracer.is_some() {
            self.stream_roots.insert(stream, root);
        }
    }

    /// Drop the root context of a finished stream (the recorded spans
    /// stay in the tracer).
    pub(crate) fn forget_stream(&mut self, stream: u64) {
        self.stream_roots.remove(&stream);
    }

    /// Record a span as a child of `parent`, returning the new context
    /// so further children can hang off it. `None` when tracing is off.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_under(
        &mut self,
        parent: SpanContext,
        name: &'static str,
        cat: &'static str,
        pid: u32,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        args: &[(&'static str, u64)],
    ) -> Option<SpanContext> {
        let tracer = self.tracer.as_mut()?;
        let ctx = tracer.child(&parent);
        tracer.record(name, cat, pid, tid, ts_us, dur_us, ctx, args);
        Some(ctx)
    }

    /// Record a span on a stream's causal chain (pid 1, tid = stream
    /// id), directly under the stream's root. `None` when tracing is
    /// off.
    pub(crate) fn record_stream_span(
        &mut self,
        stream: u64,
        name: &'static str,
        cat: &'static str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&'static str, u64)],
    ) -> Option<SpanContext> {
        let root = self.stream_root(stream)?;
        self.record_under(root, name, cat, 1, stream, ts_us, dur_us, args)
    }

    /// Record a per-disk span (pid 2, tid = disk index). Disk sweeps are
    /// their own roots in a reserved trace-id range so stream trace ids
    /// (raw stream ids) never collide with them.
    pub(crate) fn record_disk_span(
        &mut self,
        disk: u64,
        name: &'static str,
        ts_us: u64,
        dur_us: u64,
        args: &[(&'static str, u64)],
    ) {
        if let Some(tracer) = self.tracer.as_mut() {
            let ctx = tracer.root(DISK_TRACE_BASE + disk);
            tracer.record(name, "disk", 2, disk, ts_us, dur_us, ctx, args);
        }
    }

    pub(crate) fn status(&self, over_admission_frozen: bool) -> SloStatus {
        let (ks_statistic, tail_exceedance) = self.conformance_stats();
        SloStatus {
            alert_active: self.burn.alert_active(),
            alerts_raised: self.burn.alerts_raised(),
            burn_fast: self.burn.burn_fast(),
            burn_slow: self.burn.burn_slow(),
            burn_long: self.burn.burn_long(),
            drift_active: self.conformance.drift_active(),
            drifts_raised: self.conformance.drifts_raised(),
            ks_statistic,
            tail_exceedance,
            over_admission_frozen,
            trace_spans: self.tracer.as_ref().map_or(0, Tracer::len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_derive_budget_from_target() {
        let paper = QualityTarget {
            m: 1200,
            g: 12,
            epsilon: 0.01,
        };
        let s = SloSettings::for_target(paper);
        assert!((s.burn.budget - 0.01).abs() < 1e-15);
        assert!(!s.tracing);
        assert!(
            SloSettings::for_target(QualityTarget { g: 24, ..paper })
                .burn
                .budget
                > 0.019
        );
        // Degenerate budget clamps instead of failing validation.
        let s = SloSettings::for_target(QualityTarget {
            m: 0,
            g: 1,
            ..paper
        });
        assert!(s.burn.budget > 0.0);
        assert!(s.with_tracing().tracing);
    }

    #[test]
    fn state_builds_and_reports_idle_status() {
        let target = QualityTarget {
            m: 1200,
            g: 12,
            epsilon: 0.01,
        };
        let settings = SloSettings::for_target(target).with_tracing();
        let mut st = SloState::new(settings).unwrap();
        let status = st.status(false);
        assert!(!status.alert_active);
        assert!(!status.drift_active);
        assert_eq!(status.trace_spans, 0);
        // Stream roots are stable per stream and distinct across streams.
        let a = st.stream_root(1).unwrap();
        let b = st.stream_root(1).unwrap();
        let c = st.stream_root(2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a.span, c.span);
        st.forget_stream(1);
        let d = st.stream_root(1).unwrap();
        assert_ne!(a.span, d.span);
    }
}
