//! Structured event log: typed per-round / per-decision records with a
//! pluggable process-wide sink.
//!
//! An [`Event`] is a named record with typed fields, serialized as one
//! line of JSON (JSONL when written to a file). Sinks are deliberately
//! simple: [`NullSink`] (the default — emission short-circuits on an
//! atomic flag before any formatting happens), [`StderrSink`] for
//! interactive runs, [`JsonlSink`] for machine-readable capture, and
//! [`MemorySink`] for tests.
//!
//! Events carry no wall-clock timestamps: records are keyed by logical
//! time (round ids, stream ids) so replays of a seeded simulation emit
//! byte-identical streams.

use crate::json;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// One field value of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
enum Field {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
    U64List(Vec<u64>),
}

/// A structured event: a name plus typed key/value fields, emitted as a
/// single JSON object per line.
///
/// ```
/// let e = mzd_telemetry::Event::new("sim.round")
///     .u64("round", 17)
///     .f64("service_time", 0.812)
///     .bool("late", false)
///     .u64_list("glitched", &[3, 9]);
/// assert!(e.to_json().starts_with(r#"{"event":"sim.round""#));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    name: &'static str,
    fields: Vec<(&'static str, Field)>,
}

impl Event {
    /// Start an event named `name` (dotted-path convention, e.g.
    /// `"sim.round"` or `"server.admission"`).
    #[must_use]
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            fields: Vec::new(),
        }
    }

    /// Attach an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, Field::U64(value)));
        self
    }

    /// Attach a floating-point field (non-finite serializes as `null`).
    #[must_use]
    pub fn f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, Field::F64(value)));
        self
    }

    /// Attach a boolean field.
    #[must_use]
    pub fn bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.push((key, Field::Bool(value)));
        self
    }

    /// Attach a string field.
    #[must_use]
    pub fn str(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.fields.push((key, Field::Str(value.into())));
        self
    }

    /// Attach a list of unsigned integers (e.g. glitched stream ids).
    #[must_use]
    pub fn u64_list(mut self, key: &'static str, values: &[u64]) -> Self {
        self.fields.push((key, Field::U64List(values.to_vec())));
        self
    }

    /// Serialize as a single-line JSON object. The event name is the
    /// `"event"` member; fields follow in insertion order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 16);
        out.push_str("{\"event\":");
        json::write_escaped(&mut out, self.name);
        for (key, value) in &self.fields {
            out.push(',');
            json::write_escaped(&mut out, key);
            out.push(':');
            match value {
                Field::U64(v) => out.push_str(&v.to_string()),
                Field::F64(v) => json::write_f64(&mut out, *v),
                Field::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                Field::Str(v) => json::write_escaped(&mut out, v),
                Field::U64List(vs) => {
                    out.push('[');
                    for (i, v) in vs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&v.to_string());
                    }
                    out.push(']');
                }
            }
        }
        out.push('}');
        out
    }
}

/// Destination for emitted [`Event`]s.
///
/// Implementations must be cheap to call concurrently; [`emit`] is
/// invoked from simulation and server hot loops.
pub trait EventSink: Send + Sync {
    /// Record one event.
    fn emit(&self, event: &Event);

    /// Push buffered output to its destination. Default: no-op.
    fn flush(&self) {}

    /// Whether this sink actually consumes events. [`emit`] (the free
    /// function) short-circuits — without formatting the event — when
    /// this is `false`. Default: `true`.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards everything; the default process-wide sink.
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Writes one JSON line per event to standard error.
#[derive(Debug, Default)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn emit(&self, event: &Event) {
        // Ignore write errors (closed stderr): telemetry must never
        // take the workload down.
        let _ = writeln!(std::io::stderr().lock(), "{}", event.to_json());
    }
}

/// Appends one JSON line per event to a file (JSONL).
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl JsonlSink {
    /// Create (truncating) `path` and write events to it.
    ///
    /// # Errors
    /// Propagates the underlying file-creation error.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self {
            writer: Mutex::new(std::io::BufWriter::new(file)),
        })
    }
}

impl EventSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut writer = self.writer.lock().expect("jsonl sink lock");
        let _ = writeln!(writer, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink lock").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        EventSink::flush(self);
    }
}

/// Collects serialized events in memory; for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All JSON lines emitted so far.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("memory sink lock").clone()
    }
}

impl EventSink for MemorySink {
    fn emit(&self, event: &Event) {
        self.lines
            .lock()
            .expect("memory sink lock")
            .push(event.to_json());
    }
}

/// Fast-path cache of the current sink's `enabled()`; checked before
/// taking the sink lock or formatting anything.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static RwLock<Arc<dyn EventSink>> {
    static SINK: OnceLock<RwLock<Arc<dyn EventSink>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(Arc::new(NullSink)))
}

/// Install `sink` as the process-wide event destination, returning the
/// previous sink (so callers can flush or restore it).
pub fn set_sink(sink: Arc<dyn EventSink>) -> Arc<dyn EventSink> {
    let enabled = sink.enabled();
    let previous = std::mem::replace(&mut *sink_slot().write().expect("event sink lock"), sink);
    ENABLED.store(enabled, Ordering::Release);
    previous
}

/// Whether the process-wide sink consumes events.
///
/// Instrumented code uses this to skip building events whose field
/// values are themselves costly to compute:
///
/// ```
/// # let glitched_streams: Vec<u64> = vec![];
/// if mzd_telemetry::events_enabled() {
///     mzd_telemetry::emit(
///         mzd_telemetry::Event::new("sim.round").u64_list("glitched", &glitched_streams),
///     );
/// }
/// ```
#[must_use]
pub fn events_enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

/// Send `event` to the process-wide sink. Costs one atomic load when no
/// sink is installed.
pub fn emit(event: Event) {
    if !events_enabled() {
        return;
    }
    sink_slot().read().expect("event sink lock").emit(&event);
}

/// Flush the process-wide sink (e.g. before process exit).
pub fn flush() {
    sink_slot().read().expect("event sink lock").flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serializes_all_field_types() {
        let e = Event::new("test.kinds")
            .u64("u", 42)
            .f64("f", 0.5)
            .f64("nan", f64::NAN)
            .bool("b", true)
            .str("s", "he said \"hi\"")
            .u64_list("ids", &[1, 2, 3])
            .u64_list("empty", &[]);
        let line = e.to_json();
        let doc = json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("event").unwrap().as_str(), Some("test.kinds"));
        assert_eq!(doc.get("u").unwrap().as_f64(), Some(42.0));
        assert_eq!(doc.get("f").unwrap().as_f64(), Some(0.5));
        assert_eq!(doc.get("nan").unwrap(), &json::Value::Null);
        assert_eq!(doc.get("b").unwrap(), &json::Value::Bool(true));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("he said \"hi\""));
        let ids: Vec<f64> = doc
            .get("ids")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        assert_eq!(ids, vec![1.0, 2.0, 3.0]);
        assert_eq!(doc.get("empty").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        sink.emit(&Event::new("a").u64("n", 1));
        sink.emit(&Event::new("b").u64("n", 2));
        let lines = sink.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"a\""));
        assert!(lines[1].contains("\"b\""));
    }

    #[test]
    fn jsonl_sink_round_trips_through_a_file() {
        let path =
            std::env::temp_dir().join(format!("mzd-telemetry-test-{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).expect("create jsonl");
            for round in 0..5u64 {
                sink.emit(
                    &Event::new("sim.round")
                        .u64("round", round)
                        .f64("service_time", 0.1 * round as f64),
                );
            }
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            let doc = json::parse(line).expect("each line is JSON");
            assert_eq!(doc.get("event").unwrap().as_str(), Some("sim.round"));
            assert_eq!(doc.get("round").unwrap().as_f64(), Some(i as f64));
        }
    }

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
        assert!(MemorySink::new().enabled());
    }
}
