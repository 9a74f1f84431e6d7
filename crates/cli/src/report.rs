//! `mzd report` — render a run's telemetry artifacts as one
//! self-contained HTML page.
//!
//! Input is the JSONL event stream written by `--events-out` and
//! (optionally) the metrics snapshot written by `--metrics-out`. Output
//! is a single HTML file with no external references: styles are inline
//! and every chart is an inline SVG sparkline, so the page renders
//! offline and can be attached to a ticket as-is.
//!
//! The renderer is deliberately tolerant: unknown event kinds are still
//! counted, malformed lines are skipped (and reported), and a missing
//! metrics file just omits that section. It never fails on content —
//! only on I/O.

use mzd_prof::escape_html;
use mzd_telemetry::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Numeric per-round series worth charting, as `(event, field, label)`.
/// Data-driven rather than exhaustive: kinds absent from the stream are
/// simply not rendered.
const SERIES: [(&str, &str, &str); 12] = [
    ("sim.round", "service_time", "round service time (s)"),
    ("sim.round", "seek", "seek time per round (s)"),
    ("sim.round", "transfer", "transfer time per round (s)"),
    ("sim.round", "fault", "fault-injection time per round (s)"),
    ("server.degrade", "rung", "degradation ladder rung"),
    ("server.round", "active", "active streams"),
    (
        "server.round",
        "buffer_occupancy",
        "client buffer occupancy (B)",
    ),
    ("slo.round", "burn_fast", "burn rate (fast window)"),
    ("slo.round", "burn_slow", "burn rate (slow window)"),
    ("slo.round", "ks", "conformance KS deviation"),
    ("slo.round", "tail_exceedance", "model tail exceedance"),
    ("slo.round", "glitches", "glitches per round"),
];

/// Everything extracted from the event stream.
struct Digest {
    /// Lines that parsed as JSON objects with an `event` member.
    events: u64,
    /// Lines skipped as malformed.
    skipped: u64,
    /// Count per event kind.
    kinds: BTreeMap<String, u64>,
    /// Values per charted series, keyed by `(event, field)`.
    series: BTreeMap<(&'static str, &'static str), Vec<f64>>,
    /// `slo.alert` / `slo.drift` transitions in stream order, as
    /// `(kind, transition, round, detail)`.
    transitions: Vec<(String, String, u64, String)>,
    /// `server.degrade` ladder moves in stream order, as
    /// `(action, rung, round, shed)`.
    degrades: Vec<(String, u64, u64, u64)>,
}

fn digest_events(text: &str) -> Digest {
    let mut d = Digest {
        events: 0,
        skipped: 0,
        kinds: BTreeMap::new(),
        series: BTreeMap::new(),
        transitions: Vec::new(),
        degrades: Vec::new(),
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(doc) = json::parse(line) else {
            d.skipped += 1;
            continue;
        };
        let Some(kind) = doc.get("event").and_then(Value::as_str) else {
            d.skipped += 1;
            continue;
        };
        d.events += 1;
        *d.kinds.entry(kind.to_string()).or_insert(0) += 1;
        for &(event, field, _) in &SERIES {
            if kind == event {
                if let Some(x) = doc.get(field).and_then(Value::as_f64) {
                    d.series.entry((event, field)).or_default().push(x);
                }
            }
        }
        if kind == "slo.alert" || kind == "slo.drift" {
            let transition = doc
                .get("transition")
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let round = doc.get("round").and_then(Value::as_f64).unwrap_or(-1.0);
            let detail = if kind == "slo.alert" {
                format!(
                    "burn fast {:.2} / slow {:.2}",
                    doc.get("burn_fast").and_then(Value::as_f64).unwrap_or(0.0),
                    doc.get("burn_slow").and_then(Value::as_f64).unwrap_or(0.0),
                )
            } else {
                format!(
                    "ks {:.3}, tail exceedance {:.3}",
                    doc.get("ks").and_then(Value::as_f64).unwrap_or(0.0),
                    doc.get("tail_exceedance")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0),
                )
            };
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            d.transitions
                .push((kind.to_string(), transition, round.max(0.0) as u64, detail));
        }
        if kind == "server.degrade" {
            let field = |name: &str| {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let v = doc
                    .get(name)
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
                    .max(0.0) as u64;
                v
            };
            d.degrades.push((
                doc.get("action")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                field("rung"),
                field("round"),
                field("shed"),
            ));
        }
    }
    d
}

/// An inline SVG sparkline: fixed 240x48 viewport, polyline normalized
/// to the series range. A constant series draws as a mid-height line.
fn sparkline(values: &[f64]) -> String {
    const W: f64 = 240.0;
    const H: f64 = 48.0;
    const PAD: f64 = 3.0;
    let finite: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.len() < 2 {
        return String::from("<span class=\"dim\">(too few points)</span>");
    }
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let mut points = String::new();
    let last = (finite.len() - 1) as f64;
    for (i, x) in finite.iter().enumerate() {
        let px = PAD + (W - 2.0 * PAD) * i as f64 / last;
        let py = H - PAD - (H - 2.0 * PAD) * (x - lo) / span;
        let _ = write!(points, "{px:.1},{py:.1} ");
    }
    format!(
        "<svg viewBox=\"0 0 {W} {H}\" width=\"{W}\" height=\"{H}\" role=\"img\">\
         <polyline fill=\"none\" stroke=\"#2166ac\" stroke-width=\"1.2\" \
         points=\"{}\"/></svg>",
        points.trim_end()
    )
}

fn stats_row(values: &[f64]) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return String::from("&mdash;");
    }
    let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = finite.iter().sum::<f64>() / finite.len() as f64;
    format!(
        "min {} &middot; mean {} &middot; max {}",
        fmt_num(lo),
        fmt_num(mean),
        fmt_num(hi)
    )
}

/// Compact human formatting: integers stay integral, small magnitudes
/// keep significant digits.
fn fmt_num(x: f64) -> String {
    if !x.is_finite() {
        return String::from("&mdash;");
    }
    if x == x.trunc() && x.abs() < 1e15 {
        return format!("{x:.0}");
    }
    if x.abs() >= 100.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.01 {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

/// Dotted-name prefixes the report attributes to a core subsystem.
/// Anything else rolls up under "other families" — by design, so a
/// freshly added subsystem (or a misspelled name) is conspicuous
/// rather than camouflaged among the familiar rows.
const KNOWN_FAMILIES: [&str; 9] = [
    "cache", "core", "degrade", "fault", "par", "server", "sim", "slo", "solver",
];

fn metrics_section(out: &mut String, metrics_text: &str) {
    let Ok(doc) = json::parse(metrics_text) else {
        let _ = writeln!(
            out,
            "<h2>Metrics snapshot</h2><p class=\"dim\">metrics file did not parse as JSON</p>"
        );
        return;
    };
    let _ = writeln!(out, "<h2>Metrics snapshot</h2>");
    // Family roll-up first: one row per dotted prefix (`sim.*`, `par.*`,
    // `fault.*`, `degrade.*`, ...), so a reader can tell at a glance
    // which subsystems were live in this run. Prefixes outside the
    // known set (a new subsystem like `cluster.*`, or a typo) are not
    // silently blended in — they land in an explicit "other" section
    // so their novelty is visible.
    let mut known: BTreeMap<String, u64> = BTreeMap::new();
    let mut other: BTreeMap<String, u64> = BTreeMap::new();
    for section in ["counters", "gauges", "histograms"] {
        if let Some(map) = doc.get(section).and_then(Value::as_object) {
            for name in map.keys() {
                let family = name.split('.').next().unwrap_or(name);
                let bucket = if KNOWN_FAMILIES.contains(&family) {
                    &mut known
                } else {
                    &mut other
                };
                *bucket.entry(format!("{family}.*")).or_insert(0) += 1;
            }
        }
    }
    if !known.is_empty() {
        let _ = writeln!(
            out,
            "<h3>families</h3><table><tr><th>family</th><th>metrics</th></tr>"
        );
        for (family, count) in &known {
            let _ = writeln!(
                out,
                "<tr><td><code>{}</code></td><td>{count}</td></tr>",
                escape_html(family)
            );
        }
        let _ = writeln!(out, "</table>");
    }
    if !other.is_empty() {
        let _ = writeln!(
            out,
            "<h3>other families</h3><p class=\"dim\">prefixes outside the \
             known subsystem set</p><table><tr><th>family</th><th>metrics</th></tr>"
        );
        for (family, count) in &other {
            let _ = writeln!(
                out,
                "<tr><td><code>{}</code></td><td>{count}</td></tr>",
                escape_html(family)
            );
        }
        let _ = writeln!(out, "</table>");
    }
    for (section, kind) in [("counters", "count"), ("gauges", "value")] {
        if let Some(map) = doc.get(section).and_then(Value::as_object) {
            if map.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "<h3>{section}</h3><table><tr><th>name</th><th>{kind}</th></tr>"
            );
            for (name, value) in map {
                let _ = writeln!(
                    out,
                    "<tr><td><code>{}</code></td><td>{}</td></tr>",
                    escape_html(name),
                    fmt_num(value.as_f64().unwrap_or(f64::NAN))
                );
            }
            let _ = writeln!(out, "</table>");
        }
    }
    if let Some(map) = doc.get("histograms").and_then(Value::as_object) {
        if !map.is_empty() {
            let _ = writeln!(
                out,
                "<h3>histograms</h3><table><tr><th>name</th><th>count</th>\
                 <th>mean</th><th>p50</th><th>p95</th><th>p99</th></tr>"
            );
            for (name, h) in map {
                let cell =
                    |key: &str| fmt_num(h.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN));
                let _ = writeln!(
                    out,
                    "<tr><td><code>{}</code></td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
                    escape_html(name),
                    cell("count"),
                    cell("mean"),
                    cell("p50"),
                    cell("p95"),
                    cell("p99"),
                );
            }
            let _ = writeln!(out, "</table>");
        }
    }
}

/// Render the report page.
///
/// `events_text` is the JSONL stream; `metrics_text` the optional
/// snapshot; `profile_text` the optional collapsed-stack phase profile
/// (rendered as an inline flame chart). Pure function of its inputs (no
/// clocks), so report output is reproducible byte-for-byte from the
/// same artifacts.
#[must_use]
pub fn render(
    events_text: &str,
    metrics_text: Option<&str>,
    profile_text: Option<&str>,
    source_label: &str,
) -> String {
    let d = digest_events(events_text);
    let mut out = String::with_capacity(16 * 1024);
    out.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>mzd run report</title>\n<style>\n\
         body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:52em;\
         padding:0 1em;color:#1a1a1a}\n\
         h1{font-size:1.4em}h2{font-size:1.15em;margin-top:1.6em}\n\
         table{border-collapse:collapse;margin:.5em 0}\n\
         td,th{border:1px solid #ccc;padding:.2em .6em;text-align:left}\n\
         th{background:#f2f2f2}\n\
         .dim{color:#777}\n\
         .spark{display:flex;align-items:center;gap:1em;margin:.3em 0}\n\
         .spark .label{min-width:16em}\n\
         .raised{color:#b2182b;font-weight:600}.cleared{color:#1b7837}\n\
         </style>\n</head>\n<body>\n<h1>mzd run report</h1>\n",
    );
    let _ = writeln!(
        out,
        "<p>source: <code>{}</code> &mdash; {} events, {} kinds{}</p>",
        escape_html(source_label),
        d.events,
        d.kinds.len(),
        if d.skipped > 0 {
            format!(
                ", <span class=\"dim\">{} malformed lines skipped</span>",
                d.skipped
            )
        } else {
            String::new()
        }
    );

    let _ = writeln!(out, "<h2>Event counts</h2>");
    if d.kinds.is_empty() {
        let _ = writeln!(out, "<p class=\"dim\">no events</p>");
    } else {
        let _ = writeln!(out, "<table><tr><th>event</th><th>count</th></tr>");
        for (kind, count) in &d.kinds {
            let _ = writeln!(
                out,
                "<tr><td><code>{}</code></td><td>{count}</td></tr>",
                escape_html(kind)
            );
        }
        let _ = writeln!(out, "</table>");
    }

    let charted: Vec<_> = SERIES
        .iter()
        .filter_map(|&(event, field, label)| {
            d.series
                .get(&(event, field))
                .map(|vs| (event, field, label, vs))
        })
        .collect();
    if !charted.is_empty() {
        let _ = writeln!(out, "<h2>Round series</h2>");
        for (event, field, label, values) in charted {
            let _ = writeln!(
                out,
                "<div class=\"spark\"><span class=\"label\">{} <br>\
                 <code class=\"dim\">{}.{}</code></span>{}<span class=\"dim\">{}</span></div>",
                escape_html(label),
                escape_html(event),
                escape_html(field),
                sparkline(values),
                stats_row(values)
            );
        }
    }

    let _ = writeln!(out, "<h2>SLO transitions</h2>");
    if d.transitions.is_empty() {
        let _ = writeln!(
            out,
            "<p class=\"dim\">none &mdash; no burn-rate alerts, no model drift</p>"
        );
    } else {
        let _ = writeln!(
            out,
            "<table><tr><th>round</th><th>event</th><th>transition</th><th>detail</th></tr>"
        );
        for (kind, transition, round, detail) in &d.transitions {
            let _ = writeln!(
                out,
                "<tr><td>{round}</td><td><code>{}</code></td>\
                 <td class=\"{}\">{}</td><td>{}</td></tr>",
                escape_html(kind),
                escape_html(transition),
                escape_html(transition),
                escape_html(detail)
            );
        }
        let _ = writeln!(out, "</table>");
    }

    let overruns = d.kinds.get("server.round.overrun").copied().unwrap_or(0);
    let fault_rounds = d
        .series
        .get(&("sim.round", "fault"))
        .map_or(0, |vs| vs.iter().filter(|&&x| x > 0.0).count());
    if !d.degrades.is_empty() || overruns > 0 || fault_rounds > 0 {
        let _ = writeln!(out, "<h2>Faults &amp; degradation</h2>");
        let _ = writeln!(
            out,
            "<p>{fault_rounds} round(s) lost time to injected faults; \
             {overruns} round deadline overrun(s).</p>"
        );
        if !d.degrades.is_empty() {
            let _ = writeln!(
                out,
                "<table><tr><th>round</th><th>action</th><th>rung</th><th>streams shed</th></tr>"
            );
            for (action, rung, round, shed) in &d.degrades {
                let _ = writeln!(
                    out,
                    "<tr><td>{round}</td><td class=\"{}\">{}</td><td>{rung}</td><td>{shed}</td></tr>",
                    if action.starts_with("escalate") { "raised" } else { "cleared" },
                    escape_html(action),
                );
            }
            let _ = writeln!(out, "</table>");
        }
    }

    if let Some(text) = metrics_text {
        metrics_section(&mut out, text);
    }
    if let Some(folded) = profile_text {
        let _ = writeln!(out, "<h2>Phase profile</h2>");
        let _ = writeln!(
            out,
            "<p class=\"dim\">self time per phase, widths proportional to \
             wall-clock share (collapsed-stack input)</p>"
        );
        out.push_str(&mzd_prof::render_flame_svg(folded));
        out.push('\n');
    }
    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> String {
        let mut s = String::new();
        for i in 0..16 {
            let _ = writeln!(
                s,
                "{{\"event\":\"sim.round\",\"round\":{i},\"service_time\":{}}}",
                0.8 + 0.01 * f64::from(i)
            );
        }
        s.push_str("{\"event\":\"slo.alert\",\"transition\":\"raised\",\"round\":9,\"burn_fast\":7.5,\"burn_slow\":6.1}\n");
        s.push_str("{\"event\":\"slo.drift\",\"transition\":\"cleared\",\"round\":12,\"ks\":0.04,\"tail_exceedance\":0.02}\n");
        s.push_str("not json at all\n");
        s
    }

    #[test]
    fn renders_well_formed_self_contained_html() {
        let html = render(&sample_events(), None, None, "events.jsonl");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
        assert!(html.matches("<svg").count() >= 1, "{html}");
        assert!(html.contains("sim.round"));
        assert!(html.contains("1 malformed lines skipped"));
        assert!(html.contains("class=\"raised\""));
        assert!(html.contains("class=\"cleared\""));
        // Self-contained: no external fetches of any kind.
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert!(!html.contains("<script") && !html.contains("<link"));
    }

    #[test]
    fn metrics_section_renders_tables() {
        let metrics = "{\"counters\":{\"sim.rounds\":16},\"gauges\":{},\
                       \"histograms\":{\"sim.round.service_time\":{\"count\":16,\
                       \"mean\":0.87,\"p50\":0.87,\"p95\":0.94,\"p99\":0.95}}}";
        let html = render(&sample_events(), Some(metrics), None, "x");
        assert!(html.contains("Metrics snapshot"));
        assert!(html.contains("sim.rounds"));
        assert!(html.contains("p95"));
        // A broken metrics file degrades gracefully instead of failing.
        let html = render("", Some("{nope"), None, "x");
        assert!(html.contains("did not parse"));
    }

    #[test]
    fn renders_fault_and_degradation_sections() {
        let mut events = String::new();
        for i in 0..8 {
            let _ = writeln!(
                events,
                "{{\"event\":\"sim.round\",\"round\":{i},\"service_time\":0.9,\"fault\":{}}}",
                0.02 * f64::from(i)
            );
        }
        events.push_str(
            "{\"event\":\"server.degrade\",\"action\":\"escalate\",\"rung\":1,\"round\":5,\"shed\":0}\n\
             {\"event\":\"server.degrade\",\"action\":\"recover\",\"rung\":0,\"round\":7,\"shed\":0}\n\
             {\"event\":\"server.round.overrun\",\"round\":6,\"disk\":0,\"overrun\":0.05,\"requests\":12}\n",
        );
        let metrics = "{\"counters\":{\"fault.media_errors\":3,\"degrade.escalations\":1,\
                       \"par.tasks\":64,\"sim.rounds\":8},\"gauges\":{\"degrade.rung\":0},\
                       \"histograms\":{}}";
        let html = render(&events, Some(metrics), None, "events.jsonl");
        assert!(html.contains("Faults &amp; degradation"), "{html}");
        assert!(
            html.contains("7 round(s) lost time to injected faults"),
            "{html}"
        );
        assert!(html.contains("1 round deadline overrun(s)"), "{html}");
        assert!(html.contains("escalate"), "{html}");
        assert!(html.contains("fault-injection time per round"), "{html}");
        // The family roll-up names every live subsystem.
        for family in ["fault.*", "degrade.*", "par.*", "sim.*"] {
            assert!(html.contains(family), "missing {family}: {html}");
        }
    }

    #[test]
    fn fault_free_run_omits_robustness_section() {
        let html = render(&sample_events(), None, None, "events.jsonl");
        assert!(!html.contains("Faults &amp; degradation"), "{html}");
    }

    #[test]
    fn profile_renders_inline_flame_chart() {
        let html = render(
            &sample_events(),
            None,
            Some("server.round 100\nserver.round;sweep 700\nserver.round;slo 200\n"),
            "events.jsonl",
        );
        assert!(html.contains("Phase profile"), "{html}");
        assert!(html.contains("sweep"), "{html}");
        assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
        assert!(!html.contains("<script") && !html.contains("http"));
        // An empty profile degrades to a placeholder, not a failure.
        let html = render("", None, Some(""), "x");
        assert!(html.contains("empty profile"), "{html}");
        assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
    }

    #[test]
    fn empty_and_missing_metric_families_render_cleanly() {
        // A clean run: no cache.*, no degrade.*, empty sections — the
        // renderer must not panic or emit unbalanced SVG.
        let metrics = "{\"counters\":{\"sim.rounds\":4,\"fault.media_errors\":0},\
                       \"gauges\":{},\"histograms\":{}}";
        let html = render(&sample_events(), Some(metrics), None, "events.jsonl");
        assert!(html.contains("Metrics snapshot"), "{html}");
        assert!(!html.contains("cache.*"), "{html}");
        assert!(!html.contains("degrade.*"), "{html}");
        assert!(html.contains("fault.*"), "{html}");
        assert_eq!(html.matches("<svg").count(), html.matches("</svg>").count());
        assert!(html.ends_with("</html>\n"));
        // Entirely empty snapshot: family table is omitted, page intact.
        let html = render(
            "",
            Some("{\"counters\":{},\"gauges\":{},\"histograms\":{}}"),
            None,
            "x",
        );
        assert!(html.contains("Metrics snapshot"), "{html}");
        assert!(!html.contains("<h3>families</h3>"), "{html}");
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn unknown_families_roll_up_under_other() {
        // cluster.* is not in the known-subsystem set: it must surface
        // in an explicit "other families" section, not blend into (or
        // vanish from) the main roll-up.
        let metrics = "{\"counters\":{\"sim.rounds\":4,\"cluster.migrations\":2,\
                       \"cluster.node_failures\":1,\"mystery.widget\":9},\
                       \"gauges\":{},\"histograms\":{}}";
        let html = render(&sample_events(), Some(metrics), None, "events.jsonl");
        assert!(html.contains("<h3>families</h3>"), "{html}");
        assert!(html.contains("sim.*"), "{html}");
        assert!(html.contains("other families"), "{html}");
        assert!(html.contains("cluster.*"), "{html}");
        assert!(html.contains("mystery.*"), "{html}");
        // Known table precedes the other-family table.
        let known_at = html.find("<h3>families</h3>").unwrap();
        let other_at = html.find("other families").unwrap();
        assert!(known_at < other_at, "{html}");
        // A snapshot with only known families omits the other section.
        let metrics = "{\"counters\":{\"sim.rounds\":4},\"gauges\":{},\"histograms\":{}}";
        let html = render(&sample_events(), Some(metrics), None, "events.jsonl");
        assert!(!html.contains("other families"), "{html}");
    }

    #[test]
    fn escapes_untrusted_text() {
        let events = "{\"event\":\"<script>alert(1)</script>\",\"round\":1}\n";
        let html = render(events, None, None, "<evil label>");
        assert!(!html.contains("<script>"));
        assert!(html.contains("&lt;script&gt;"));
        assert!(html.contains("&lt;evil label&gt;"));
    }

    #[test]
    fn sparkline_handles_degenerate_series() {
        assert!(sparkline(&[]).contains("too few points"));
        assert!(sparkline(&[1.0]).contains("too few points"));
        let flat = sparkline(&[2.0, 2.0, 2.0]);
        assert!(flat.contains("<svg"), "{flat}");
        assert!(!flat.contains("NaN"), "{flat}");
        let with_nan = sparkline(&[0.1, f64::NAN, 0.3, 0.2]);
        assert!(!with_nan.contains("NaN"), "{with_nan}");
    }
}
