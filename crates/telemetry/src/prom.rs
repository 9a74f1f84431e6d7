//! Prometheus text exposition (version 0.0.4) for a [`Registry`].
//!
//! [`render`] emits the whole registry — counters, gauges, and
//! histograms with cumulative `_bucket{le="..."}` series — in the
//! plain-text format every Prometheus-compatible scraper and textfile
//! collector understands. Metric names keep the workspace's dotted
//! convention internally and are sanitized to `mzd_`-prefixed
//! underscore form on the way out (`sim.round.service_time` →
//! `mzd_sim_round_service_time`).
//!
//! The output is a pure function of the registry's *logical-time*
//! state: names are sorted, no timestamps are emitted, float
//! formatting uses Rust's shortest round-trip representation, and
//! series marked execution-scoped ([`Registry::execution_histogram`] /
//! [`Registry::execution_counter`] — span timers, scheduler effort,
//! solver iteration tallies) are excluded — so seeded equal runs
//! expose byte-identical text at any `--jobs` width (the property the
//! CLI's `--prom-out` snapshots rely on). Execution-scoped series
//! remain visible in the JSON snapshot.
//!
//! Every histogram-shaped series in the workspace — registry
//! histograms here, node-labeled fleet sketches elsewhere — is written
//! by one function, [`render_sketch_series`], under a [`LabelSet`].

use crate::json::write_u64;
use crate::registry::geometry::{bucket_le, BUCKET_COUNT};
use crate::registry::{Metric, Registry};
use crate::sketch::QuantileSketch;
use std::fmt::Write as _;

/// Sanitize a dotted metric name into the Prometheus exposition
/// alphabet (`[a-zA-Z0-9_]`), with the workspace's `mzd_` prefix.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    write_sanitized(&mut out, name);
    out
}

/// Append [`sanitize_name`]`(name)`.
fn write_sanitized(out: &mut String, name: &str) {
    out.push_str("mzd_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
}

/// Escape a label *value* for the exposition format: backslash, double
/// quote and newline are the three characters the format reserves
/// (`\\`, `\"`, `\n`); everything else passes through verbatim.
fn write_escaped_label_value(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
}

/// A sorted, immutable-after-build label scope.
///
/// Keys are held sorted so rendering — and therefore every exposition
/// byte — is independent of insertion order. Values may contain any
/// characters; rendering escapes the three the exposition format
/// reserves (backslash, double quote, newline).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LabelSet {
    pairs: Vec<(String, String)>,
}

impl LabelSet {
    /// The empty label set (renders as no label block at all).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add or replace one label, keeping keys sorted.
    #[must_use]
    pub fn with(mut self, key: &str, value: &str) -> Self {
        match self.pairs.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.pairs[i].1 = value.to_string(),
            Err(i) => self.pairs.insert(i, (key.to_string(), value.to_string())),
        }
        self
    }

    /// Render as `{k="v",...}` (empty string when no labels), with
    /// values escaped for the exposition format.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_block(&mut out);
        out
    }

    /// Append the labels as `{k="v",...}` (nothing for no pairs). Label
    /// *names* are sanitized to the exposition alphabet; values are
    /// escaped.
    fn write_block(&self, out: &mut String) {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            for c in k.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            out.push_str("=\"");
            write_escaped_label_value(out, v);
            out.push('"');
        }
        if !self.pairs.is_empty() {
            out.push('}');
        }
    }
}

/// Format a sample value: finite floats use the shortest round-trip
/// form, non-finite values use the exposition spellings.
fn write_value(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// A sample value as the exposition spells it: shortest round-trip for
/// finite floats, `NaN`/`+Inf`/`-Inf` otherwise. The one formatter
/// every exposition writer in the workspace shares, so labeled series
/// rendered outside this module stay byte-compatible with [`render`].
#[must_use]
pub fn format_value(v: f64) -> String {
    let mut s = String::new();
    write_value(&mut s, v);
    s
}

/// Render one sketch as cumulative `_bucket` / `_sum` / `_count`
/// exposition lines under `labels` (no label block for an empty set).
/// Bounds whose bucket is empty are elided — the cumulative value at
/// any retained bound is exact — and the mandatory `le="+Inf"` bucket
/// always closes the series at the total count.
///
/// The labels are escaped once per call, and each bound's `le` text
/// comes from the geometry's table ([`crate::geometry::bucket_le`]).
pub fn render_sketch_series(
    out: &mut String,
    sanitized_name: &str,
    labels: &LabelSet,
    sketch: &QuantileSketch,
) {
    let n = sanitized_name;
    let mut block = String::new();
    labels.write_block(&mut block);
    // Every `_bucket` line up to its bound: `{n}_bucket{k="v",...,le="`.
    let mut bucket = String::with_capacity(n.len() + block.len() + 16);
    bucket.push_str(n);
    bucket.push_str("_bucket");
    match block.strip_suffix('}') {
        Some(open) => {
            bucket.push_str(open);
            bucket.push(',');
        }
        None => bucket.push('{'),
    }
    bucket.push_str("le=\"");
    let line = |out: &mut String, le: &str, cumulative: u64| {
        out.push_str(&bucket);
        out.push_str(le);
        out.push_str("\"} ");
        write_u64(out, cumulative);
        out.push('\n');
    };
    let mut previous = 0u64;
    for (slot, cumulative) in sketch.cumulative() {
        // The overflow slot is the `+Inf` bucket, written last.
        if slot > BUCKET_COUNT || cumulative == previous {
            continue;
        }
        previous = cumulative;
        line(out, bucket_le(slot), cumulative);
    }
    let count = sketch.count();
    line(out, "+Inf", count);
    out.push_str(n);
    out.push_str("_sum");
    out.push_str(&block);
    out.push(' ');
    write_value(out, sketch.sum());
    out.push('\n');
    out.push_str(n);
    out.push_str("_count");
    out.push_str(&block);
    out.push(' ');
    write_u64(out, count);
    out.push('\n');
}

/// Render `registry` in Prometheus text exposition format, reading its
/// counters, gauges and histograms in place; histograms go through
/// [`render_sketch_series`] with no labels.
#[must_use]
pub fn render(registry: &Registry) -> String {
    let mut out = String::with_capacity(4096);
    let mut name = String::new();
    let no_labels = LabelSet::new();
    registry.visit_exposed(|metric_name, metric| {
        name.clear();
        write_sanitized(&mut name, metric_name);
        let kind = match metric {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        };
        out.push_str("# TYPE ");
        out.push_str(&name);
        out.push(' ');
        out.push_str(kind);
        out.push('\n');
        match metric {
            Metric::Counter(value) => {
                out.push_str(&name);
                out.push(' ');
                write_u64(&mut out, value);
                out.push('\n');
            }
            Metric::Gauge(value) => {
                out.push_str(&name);
                out.push(' ');
                write_value(&mut out, value);
                out.push('\n');
            }
            Metric::Histogram(histogram) => {
                render_sketch_series(&mut out, &name, &no_labels, &histogram.sketch());
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal exposition-format validator: every non-comment line is
    /// `name[{labels}] value`, names match the exposition alphabet.
    fn validate(text: &str) {
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "bad comment: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad name: {name}"
            );
            assert!(
                value.parse::<f64>().is_ok() || ["NaN", "+Inf", "-Inf"].contains(&value),
                "bad value: {value}"
            );
        }
    }

    #[test]
    fn renders_all_metric_kinds() {
        let r = Registry::new();
        r.counter("sim.rounds").add(7);
        r.gauge("server.buffer.occupancy_bytes").set(1.5e6);
        let h = r.histogram("sim.round.service_time");
        for i in 1..=100 {
            h.record(f64::from(i) * 0.01);
        }
        let text = render(&r);
        validate(&text);
        assert!(text.contains("# TYPE mzd_sim_rounds counter"));
        assert!(text.contains("mzd_sim_rounds 7"));
        assert!(text.contains("# TYPE mzd_server_buffer_occupancy_bytes gauge"));
        assert!(text.contains("mzd_server_buffer_occupancy_bytes 1500000"));
        assert!(text.contains("# TYPE mzd_sim_round_service_time histogram"));
        assert!(text.contains("mzd_sim_round_service_time_bucket{le=\"+Inf\"} 100"));
        assert!(text.contains("mzd_sim_round_service_time_count 100"));
        assert!(text.contains("mzd_sim_round_service_time_sum 50.5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_at_count() {
        let r = Registry::new();
        let h = r.histogram("t");
        for v in [1e-4, 1e-4, 1e-2, 1.0, 1e9] {
            h.record(v);
        }
        let text = render(&r);
        validate(&text);
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("mzd_t_bucket{le=\"") {
                bucket_lines += 1;
                let count: u64 = rest.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(count >= last, "buckets must be cumulative: {text}");
                last = count;
            }
        }
        // 4 distinct finite buckets (the 1e9 observation only appears in
        // +Inf) — elision keeps empty buckets out.
        assert_eq!(bucket_lines, 4, "{text}");
        assert_eq!(last, 5);
        assert!(text.contains("mzd_t_count 5"));
    }

    #[test]
    fn empty_histogram_still_exposes_inf_bucket() {
        let r = Registry::new();
        let _ = r.histogram("empty.series");
        let text = render(&r);
        validate(&text);
        assert!(text.contains("mzd_empty_series_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("mzd_empty_series_sum 0"));
        assert!(text.contains("mzd_empty_series_count 0"));
    }

    #[test]
    fn sanitizes_names_deterministically() {
        assert_eq!(sanitize_name("a.b-c d"), "mzd_a_b_c_d");
        let r = Registry::new();
        r.counter("x.y").inc();
        assert_eq!(render(&r), render(&r));
    }

    #[test]
    fn execution_scoped_series_are_excluded() {
        let r = Registry::new();
        r.histogram("sim.round.service_time").record(0.5);
        r.counter("sim.rounds").inc();
        r.execution_histogram("core.chernoff.minimize")
            .record(0.000_8);
        r.execution_counter("par.steals").add(17);
        assert!(r.is_execution_scoped("core.chernoff.minimize"));
        assert!(r.is_execution_scoped("par.steals"));
        assert!(!r.is_execution_scoped("sim.round.service_time"));
        let text = render(&r);
        validate(&text);
        assert!(text.contains("mzd_sim_round_service_time_bucket"));
        assert!(text.contains("mzd_sim_rounds 1"));
        // Wall-clock time and jobs-dependent effort counts have no
        // place in byte-identical output; both series stay in the JSON
        // snapshot only.
        assert!(!text.contains("chernoff_minimize"), "{text}");
        assert!(!text.contains("par_steals"), "{text}");
        let snapshot = r.snapshot();
        assert!(snapshot.histograms.contains_key("core.chernoff.minimize"));
        assert_eq!(snapshot.counters.get("par.steals"), Some(&17));
    }

    #[test]
    fn escapes_label_values() {
        let render = |v: &str| LabelSet::new().with("k", v).render();
        assert_eq!(render("plain"), "{k=\"plain\"}");
        assert_eq!(render("a\"b"), "{k=\"a\\\"b\"}");
        assert_eq!(render("a\\b"), "{k=\"a\\\\b\"}");
        assert_eq!(render("a\nb"), "{k=\"a\\nb\"}");
        // All three at once, in the order backslash-first escaping must
        // preserve: `\` then `"` then newline.
        assert_eq!(render("\\\"\n"), "{k=\"\\\\\\\"\\n\"}");
        // Idempotence does NOT hold (escaping escapes the escapes) —
        // exactly one pass is applied on the way out.
        assert_eq!(render("a\\nb"), "{k=\"a\\\\nb\"}");
    }

    #[test]
    fn renders_label_sets() {
        assert_eq!(LabelSet::new().render(), "");
        assert_eq!(LabelSet::new().with("node", "3").render(), "{node=\"3\"}");
        assert_eq!(
            LabelSet::new().with("node", "0").with("disk", "2").render(),
            "{disk=\"2\",node=\"0\"}"
        );
        // Values with reserved characters survive a round through the
        // exposition grammar; names are forced into the alphabet.
        assert_eq!(
            LabelSet::new().with("zone.id", "a\"b\\c\nd").render(),
            "{zone_id=\"a\\\"b\\\\c\\nd\"}"
        );
    }

    #[test]
    fn format_value_spells_specials() {
        assert_eq!(format_value(1.5), "1.5");
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
    }

    /// Pins the exact exposition bytes of a small registry: a counter,
    /// a gauge, a histogram with underflow (`0`, `1e-12`), mid-range
    /// and overflow (`1e9`, counted only by `+Inf`) observations, and
    /// an execution-scoped histogram that must not appear — plus the
    /// JSON snapshot of the same registry, quantiles included.
    #[test]
    fn exposition_bytes_are_pinned() {
        let r = Registry::new();
        r.counter("sim.rounds").add(3);
        r.gauge("server.buffer.occupancy_bytes").set(2.5e5);
        let h = r.histogram("sim.round.service_time");
        for v in [0.0, 1e-12, 0.25, 0.3, 0.75, 1e9] {
            h.record(v);
        }
        r.execution_histogram("core.chernoff.minimize").record(1e-3);
        let expected = r#"# TYPE mzd_sim_rounds counter
mzd_sim_rounds 3
# TYPE mzd_server_buffer_occupancy_bytes gauge
mzd_server_buffer_occupancy_bytes 250000
# TYPE mzd_sim_round_service_time histogram
mzd_sim_round_service_time_bucket{le="0.0000000012915496650148839"} 2
mzd_sim_round_service_time_bucket{le="0.2782559402207126"} 3
mzd_sim_round_service_time_bucket{le="0.3593813663804626"} 4
mzd_sim_round_service_time_bucket{le="0.7742636826811279"} 5
mzd_sim_round_service_time_bucket{le="+Inf"} 6
mzd_sim_round_service_time_sum 1000000001.3
mzd_sim_round_service_time_count 6
"#;
        assert_eq!(render(&r), expected);
        let expected_json = r#"{
  "counters": {
    "sim.rounds": 3
  },
  "gauges": {
    "server.buffer.occupancy_bytes": 250000
  },
  "histograms": {
    "core.chernoff.minimize": {"count": 1, "sum": 0.001, "mean": 0.001, "min": 0.001, "max": 0.001, "p50": 0.001, "p95": 0.001, "p99": 0.001, "p999": 0.001},
    "sim.round.service_time": {"count": 6, "sum": 1000000001.3, "mean": 166666666.88333333, "min": 0, "max": 1000000000, "p50": 0.24484367468222296, "p95": 11364.636663857244, "p99": 11364.636663857244, "p999": 11364.636663857244}
  }
}
"#;
        assert_eq!(r.snapshot().to_json(), expected_json);
    }
}
