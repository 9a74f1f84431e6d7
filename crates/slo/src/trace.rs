//! Causal trace collection and Chrome trace-event export.
//!
//! A [`Tracer`] accumulates complete spans (`ph: "X"` duration events)
//! and renders them as Chrome trace-event JSON — the format Perfetto
//! and `chrome://tracing` load directly. Span identity and causality
//! use [`mzd_telemetry::SpanContext`]: every span carries its trace id,
//! its own span id and its parent span id in `args`, so per-stream
//! causal chains (admission → queue wait → cache lookup → disk fetch →
//! delivery) survive the export.
//!
//! Timestamps are **logical**: the workspace deliberately records no
//! wall-clock time (seeded replays must be byte-identical), so callers
//! supply microseconds derived from `round index × round length`.

use mzd_telemetry::json::{write_escaped, write_f64, write_u64};
use mzd_telemetry::SpanContext;
use std::ptr;

/// Spans per record chunk: one 224 KiB allocation of 56-byte records.
pub const SPANS_PER_CHUNK: usize = 4096;
/// Arguments per argument chunk: one 128 KiB allocation of 16-byte
/// pairs.
pub const ARGS_PER_CHUNK: usize = 8192;

/// One stored span: 56 bytes. Name, category and process lane are
/// interned per tracer as a kind; the arguments are the next `args`
/// pairs of the tracer's argument arena.
#[derive(Debug, Clone, Copy)]
struct Record {
    tid: u64,
    ts_us: u64,
    dur_us: u64,
    trace: u64,
    span: u64,
    /// The parent span id, 0 for a root: span ids start at 1.
    parent: u64,
    kind: u32,
    args: u32,
}

/// One numeric argument: an interned key and its value, 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Arg {
    key: u32,
    value: u64,
}

/// What a tracer interns per distinct `(name, cat, pid)`.
#[derive(Debug, Clone, Copy)]
struct Kind {
    name: &'static str,
    cat: &'static str,
    pid: u32,
}

/// Append-only storage in fixed-size chunks: an append never moves
/// what is already stored, and each chunk is one allocation.
#[derive(Debug)]
struct Chunks<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Chunks<T> {
    fn new() -> Self {
        Self { chunks: Vec::new() }
    }

    /// The chunk with room for `n` more items: the last one, or a new
    /// one of `max(size, n)` when the last lacks room, so `n` items
    /// appended together stay contiguous.
    fn room_for(&mut self, n: usize, size: usize) -> &mut Vec<T> {
        let full = self
            .chunks
            .last()
            .map_or(true, |c| c.capacity() - c.len() < n);
        if full {
            self.chunks.push(Vec::with_capacity(size.max(n)));
        }
        let last = self.chunks.len() - 1;
        &mut self.chunks[last]
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }
}

/// Reads a span's arguments back: the position in the argument arena
/// just past the previous span's.
#[derive(Default)]
struct ArgCursor {
    chunk: usize,
    offset: usize,
}

impl ArgCursor {
    /// The next `n` arguments. They share one chunk: [`Chunks::room_for`]
    /// opened a new one exactly when the rest of the current chunk could
    /// not hold them.
    fn take<'a>(&mut self, arena: &'a Chunks<Arg>, n: usize) -> &'a [Arg] {
        if n == 0 {
            return &[];
        }
        if self.offset + n > arena.chunks[self.chunk].len() {
            self.chunk += 1;
            self.offset = 0;
        }
        let args = &arena.chunks[self.chunk][self.offset..self.offset + n];
        self.offset += n;
        args
    }
}

/// One recorded span (a Chrome `ph: "X"` duration event), read back
/// from a [`Tracer`].
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent<'a> {
    /// Span name (e.g. `stream.round`, `disk.sweep`).
    pub name: &'static str,
    /// Category, used by trace viewers for filtering.
    pub cat: &'static str,
    /// Process lane (1 = streams, 2 = disks by convention).
    pub pid: u32,
    /// Thread lane (stream id or disk index).
    pub tid: u64,
    /// Start, microseconds of logical time.
    pub ts_us: u64,
    /// Duration, microseconds (at least 1 so viewers render it).
    pub dur_us: u64,
    /// Causal identity: trace, span and parent ids.
    pub ctx: SpanContext,
    kind: u32,
    args: &'a [Arg],
}

/// Collects spans and renders Chrome trace-event JSON.
///
/// Spans go to a compact append-only store: a 56-byte record per span
/// and a 16-byte pair per numeric argument, each appended in
/// fixed-size chunks ([`SPANS_PER_CHUNK`], [`ARGS_PER_CHUNK`]), so a
/// span allocates nothing of its own and nothing is copied as the
/// store grows. Names, categories, process lanes and argument keys are
/// `&'static str`s interned per tracer by address: the same text at two
/// addresses gets two entries, which render alike.
///
/// Bounded: beyond `capacity` spans new records are counted as dropped
/// instead of stored, so a long run cannot exhaust memory.
#[derive(Debug)]
pub struct Tracer {
    records: Chunks<Record>,
    args: Chunks<Arg>,
    kinds: Vec<Kind>,
    keys: Vec<&'static str>,
    len: usize,
    next_span: u64,
    capacity: usize,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer holding up to one million spans.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(1 << 20)
    }

    /// A tracer with an explicit span capacity.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            records: Chunks::new(),
            args: Chunks::new(),
            kinds: Vec::new(),
            keys: Vec::new(),
            len: 0,
            next_span: 1,
            capacity,
            dropped: 0,
        }
    }

    /// Rebase span-id allocation to start at `base + 1`.
    ///
    /// A fleet runs one tracer per node plus one at the dispatcher; when
    /// their spans are stitched into a single trace, ids allocated from
    /// the default counter would collide across tracers. Each node's
    /// tracer is rebased into a disjoint range (node `i` at
    /// `(i + 1) << 40` by cluster convention, the fleet tracer at 0), so
    /// a merged trace keeps every parent/span edge unambiguous.
    ///
    /// Call before any span is allocated; ids already handed out are not
    /// rewritten.
    pub fn set_span_base(&mut self, base: u64) {
        self.next_span = self.next_span.max(base + 1);
    }

    fn alloc_span_id(&mut self) -> u64 {
        let id = self.next_span;
        self.next_span += 1;
        id
    }

    /// Open a new root context for `trace` (e.g. a stream id).
    pub fn root(&mut self, trace: u64) -> SpanContext {
        let span = self.alloc_span_id();
        SpanContext::root(trace, span)
    }

    /// Derive a child context under `parent`.
    pub fn child(&mut self, parent: &SpanContext) -> SpanContext {
        let span = self.alloc_span_id();
        parent.child(span)
    }

    /// Record one complete span. `dur_us` is clamped up to 1 so zero-
    /// length spans stay visible in viewers. A `ctx` whose parent is
    /// span 0 records as a root (the tracer never mints span 0).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        cat: &'static str,
        pid: u32,
        tid: u64,
        ts_us: u64,
        dur_us: u64,
        ctx: SpanContext,
        args: &[(&'static str, u64)],
    ) {
        if self.len >= self.capacity {
            self.dropped += 1;
            return;
        }
        let kind = intern(&mut self.kinds, Kind { name, cat, pid }, |k| {
            ptr::eq(k.name, name) && ptr::eq(k.cat, cat) && k.pid == pid
        });
        if !args.is_empty() {
            let stored = self.args.room_for(args.len(), ARGS_PER_CHUNK);
            for &(key, value) in args {
                let key = intern(&mut self.keys, key, |&k| ptr::eq(k, key));
                stored.push(Arg { key, value });
            }
        }
        self.records.room_for(1, SPANS_PER_CHUNK).push(Record {
            tid,
            ts_us,
            dur_us: dur_us.max(1),
            trace: ctx.trace,
            span: ctx.span,
            parent: ctx.parent.unwrap_or(0),
            kind,
            args: args.len() as u32,
        });
        self.len += 1;
    }

    /// Spans recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no span has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Spans discarded after the capacity was reached.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> impl Iterator<Item = TraceEvent<'_>> {
        let mut cursor = ArgCursor::default();
        self.records.iter().map(move |r| {
            let kind = self.kinds[r.kind as usize];
            TraceEvent {
                name: kind.name,
                cat: kind.cat,
                pid: kind.pid,
                tid: r.tid,
                ts_us: r.ts_us,
                dur_us: r.dur_us,
                ctx: SpanContext {
                    trace: r.trace,
                    span: r.span,
                    parent: (r.parent != 0).then_some(r.parent),
                },
                kind: r.kind,
                args: cursor.take(&self.args, r.args as usize),
            }
        })
    }

    /// Render the Chrome trace-event JSON object
    /// (`{"traceEvents": [...], ...}`).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        render_chrome_json(&[self])
    }

    /// Append this tracer's spans as trace-event objects, each preceded
    /// by a comma unless `first`. Each kind's and key's fixed text is
    /// escaped once per call.
    fn write_events(&self, out: &mut String, first: &mut bool) {
        let heads: Vec<(String, String)> = self
            .kinds
            .iter()
            .map(|k| {
                let mut head = String::from("{\"name\":");
                write_escaped(&mut head, k.name);
                head.push_str(",\"cat\":");
                write_escaped(&mut head, k.cat);
                head.push_str(",\"ph\":\"X\",\"ts\":");
                (head, format!(",\"pid\":{},\"tid\":", k.pid))
            })
            .collect();
        let keys: Vec<String> = self
            .keys
            .iter()
            .map(|k| {
                let mut text = String::from(",");
                write_escaped(&mut text, k);
                text.push(':');
                text
            })
            .collect();
        for e in self.spans() {
            if !std::mem::take(first) {
                out.push(',');
            }
            let (head, lane) = &heads[e.kind as usize];
            out.push_str(head);
            write_u64(out, e.ts_us);
            out.push_str(",\"dur\":");
            write_u64(out, e.dur_us);
            out.push_str(lane);
            write_u64(out, e.tid);
            out.push_str(",\"args\":{\"trace\":");
            write_u64(out, e.ctx.trace);
            out.push_str(",\"span\":");
            write_u64(out, e.ctx.span);
            if let Some(parent) = e.ctx.parent {
                out.push_str(",\"parent\":");
                write_u64(out, parent);
            }
            for a in e.args {
                out.push_str(&keys[a.key as usize]);
                // u64 args are written through the f64 path only when
                // needed; integers render exactly.
                if a.value <= (1u64 << 53) {
                    write_u64(out, a.value);
                } else {
                    write_f64(out, a.value as f64);
                }
            }
            out.push_str("}}");
        }
    }
}

/// The index of the entry of `table` that `is` picks, appending `entry`
/// when none does. Tracers intern by address (`ptr::eq`): comparing a
/// pointer and a length is cheaper than comparing text.
fn intern<T>(table: &mut Vec<T>, entry: T, is: impl FnMut(&T) -> bool) -> u32 {
    let index = table.iter().position(is).unwrap_or_else(|| {
        table.push(entry);
        table.len() - 1
    });
    index as u32
}

/// Render the spans of `tracers` as one Chrome trace-event JSON object:
/// each tracer's spans in recording order, tracers in slice order, and
/// the spans they dropped summed. This is the exporter behind
/// [`Tracer::to_chrome_json`], and how a fleet stitches its tracers
/// (dispatcher, then every node) into a single trace file without
/// copying their spans; callers fix the order for byte-stable output.
#[must_use]
pub fn render_chrome_json(tracers: &[&Tracer]) -> String {
    let spans: usize = tracers.iter().map(|t| t.len()).sum();
    let mut out = String::with_capacity(spans * 160 + 64);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for tracer in tracers {
        tracer.write_events(&mut out, &mut first);
    }
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":");
    write_u64(&mut out, dropped);
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mzd_telemetry::json;

    #[test]
    fn span_ids_are_unique_and_causal() {
        let mut t = Tracer::new();
        let root = t.root(7);
        let child = t.child(&root);
        let grandchild = t.child(&child);
        assert_eq!(root.trace, 7);
        assert_eq!(child.trace, 7);
        assert_eq!(child.parent, Some(root.span));
        assert_eq!(grandchild.parent, Some(child.span));
        assert_ne!(root.span, child.span);
        assert_ne!(child.span, grandchild.span);
    }

    #[test]
    fn chrome_json_parses_and_carries_causality() {
        let mut t = Tracer::new();
        let root = t.root(42);
        t.record(
            "stream.round",
            "stream",
            1,
            42,
            1_000_000,
            800_000,
            root,
            &[("round", 1)],
        );
        let child = t.child(&root);
        t.record("disk.fetch", "disk", 1, 42, 1_000_000, 750_000, child, &[]);
        let parsed = json::parse(&t.to_chrome_json()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_f64().is_some());
            assert!(e.get("dur").unwrap().as_f64().is_some());
            assert!(e.get("pid").unwrap().as_f64().is_some());
            assert!(e.get("tid").unwrap().as_f64().is_some());
            assert_eq!(
                e.get("args").unwrap().get("trace").unwrap().as_f64(),
                Some(42.0)
            );
        }
        let fetch = &events[1];
        assert_eq!(
            fetch.get("args").unwrap().get("parent").unwrap().as_f64(),
            Some(root.span as f64)
        );
    }

    #[test]
    fn capacity_bounds_memory() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5 {
            let ctx = t.root(i);
            t.record("s", "c", 1, i, 0, 1, ctx, &[]);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let parsed = json::parse(&t.to_chrome_json()).unwrap();
        assert_eq!(
            parsed
                .get("otherData")
                .unwrap()
                .get("dropped")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
    }

    #[test]
    fn span_base_partitions_id_ranges() {
        let mut fleet = Tracer::new();
        let mut node0 = Tracer::new();
        let mut node2 = Tracer::new();
        node0.set_span_base(1u64 << 40);
        node2.set_span_base(3u64 << 40);
        let root = fleet.root(9);
        let a = node0.child(&root);
        let b = node2.child(&root);
        assert_eq!(root.span, 1);
        assert_eq!(a.span, (1u64 << 40) + 1);
        assert_eq!(b.span, (3u64 << 40) + 1);
        assert_eq!(a.parent, Some(root.span));
        assert_eq!(b.parent, Some(root.span));
        // Rebasing never moves the counter backwards.
        node2.set_span_base(0);
        assert_eq!(node2.child(&root).span, (3u64 << 40) + 2);
    }

    #[test]
    fn merged_events_render_as_one_trace() {
        let mut fleet = Tracer::new();
        let mut node = Tracer::new();
        node.set_span_base(1u64 << 40);
        let root = fleet.root(5);
        fleet.record("fleet.submit", "cluster", 0, 5, 0, 1, root, &[]);
        let admit = node.child(&root);
        node.record("admit", "admission", 1, 5, 10, 1, admit, &[]);
        let text = render_chrome_json(&[&fleet, &node]);
        let parsed = json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        // Both spans carry the same trace id and a connected parent edge.
        for e in events {
            assert_eq!(
                e.get("args").unwrap().get("trace").unwrap().as_f64(),
                Some(5.0)
            );
        }
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn spans_read_back_across_chunk_boundaries() {
        // 0–3 arguments per span: three record chunks, and argument
        // chunks that close with a tail too short for the next span.
        let mut t = Tracer::new();
        let n = 3 * SPANS_PER_CHUNK as u64;
        for i in 0..n {
            let ctx = t.root(i);
            let args = [("a", i), ("b", i), ("c", i)];
            t.record("s", "c", 1, i, i, 1, ctx, &args[..(i % 4) as usize]);
        }
        assert_eq!(t.records.chunks.len(), 3);
        assert!(t.args.chunks.len() > 2);
        let mut read = 0;
        for (i, e) in (0..).zip(t.spans()) {
            assert_eq!((e.tid, e.ctx.trace, e.ctx.parent), (i, i, None));
            let keys: Vec<&str> = e.args.iter().map(|a| t.keys[a.key as usize]).collect();
            assert_eq!(keys, ["a", "b", "c"][..(i % 4) as usize]);
            assert!(e.args.iter().all(|a| a.value == i));
            read += 1;
        }
        assert_eq!(read, n);
    }

    #[test]
    fn zero_duration_clamped_to_one_microsecond() {
        let mut t = Tracer::new();
        let ctx = t.root(1);
        t.record("hit", "cache", 1, 1, 5, 0, ctx, &[]);
        assert_eq!(t.spans().next().unwrap().dur_us, 1);
    }
}
