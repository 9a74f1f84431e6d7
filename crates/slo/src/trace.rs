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
use std::iter::Chain;
use std::{array, ptr, slice};

/// Bytes per chunk of a tracer's span log: one 16 KiB allocation.
pub const CHUNK_BYTES: usize = 16 * 1024;

/// Tag bit: the span starts with the previous span, lasts as long as
/// the last span of its kind, takes the span id after the previous
/// span's, and its trace id is its tid. A serving stream-round's spans
/// almost all do, and then those four fields are not written.
const USUAL: u64 = 1;
/// Tag bit: the tid is the previous span's, and is not written.
const SAME_TID: u64 = 2;
/// Tag bit: the parent is the previous span, and is not written.
const PARENT_PREV: u64 = 4;
/// Tag bit: the span has another parent, written as a zigzag delta
/// from the last such parent (a serving round's stream roots lie close
/// together, even in another tracer's id range).
const PARENT_FAR: u64 = 8;
/// The tag holds the kind index above its four flag bits.
const KIND_SHIFT: u32 = 4;

/// The most bytes a span takes before its arguments: the tag and six
/// field varints, each at most ten bytes.
const SPAN_MAX: usize = 7 * 10;
/// The most bytes one argument value takes.
const ARG_MAX: usize = 10;

/// What a tracer interns per distinct `(name, cat, pid, argument keys)`.
#[derive(Debug)]
struct Kind {
    name: &'static str,
    cat: &'static str,
    pid: u32,
    /// The argument keys in order; a span's log entry holds only the
    /// values.
    keys: Box<[&'static str]>,
    /// The duration of this kind's last recorded span ([`USUAL`]).
    dur: u64,
}

/// The fields a span is encoded against: the previous span's in the
/// same tracer, all 0 before the first.
#[derive(Debug, Clone, Copy, Default)]
struct Prev {
    tid: u64,
    ts: u64,
    span: u64,
    /// The parent of the last span with a [`PARENT_FAR`] parent.
    far: u64,
}

/// `value - base`, wrapping, zigzag-mapped so that small differences
/// either way encode in few varint bytes.
fn zigzag(value: u64, base: u64) -> u64 {
    let d = value.wrapping_sub(base) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// The value [`zigzag`] encoded against `base`.
fn unzigzag(z: u64, base: u64) -> u64 {
    base.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg())
}

/// Appends one span to a chunk through a raw pointer: one bounds check
/// per span instead of one per byte.
struct SpanWriter<'a> {
    chunk: &'a mut Vec<u8>,
    at: *mut u8,
}

impl<'a> SpanWriter<'a> {
    /// A writer for one span of `args` arguments at the end of `head`.
    /// When `head` lacks room for the span's longest encoding it moves
    /// to `full` and a new chunk replaces it, so a span never straddles
    /// two chunks.
    fn new(full: &mut Vec<Vec<u8>>, head: &'a mut Vec<u8>, args: usize) -> Self {
        let need = SPAN_MAX + ARG_MAX * args;
        if head.capacity() - head.len() < need {
            let chunk = std::mem::replace(head, Vec::with_capacity(CHUNK_BYTES.max(need)));
            if chunk.capacity() > 0 {
                full.push(chunk);
            }
        }
        let at = head.spare_capacity_mut().as_mut_ptr().cast::<u8>();
        Self { chunk: head, at }
    }

    /// LEB128: seven bits a byte, low first, the high bit set on all
    /// but the last.
    fn varint(&mut self, mut v: u64) {
        // SAFETY: `new` left room for `SPAN_MAX + ARG_MAX * args`
        // bytes, and `record` writes no more: a tag, at most six field
        // varints and one value per argument.
        unsafe {
            while v >= 0x80 {
                self.at.write(v as u8 | 0x80);
                self.at = self.at.add(1);
                v >>= 7;
            }
            self.at.write(v as u8);
            self.at = self.at.add(1);
        }
    }

    fn finish(self) {
        // SAFETY: every byte from the old length to `at` was written.
        unsafe {
            let len = self.at.offset_from(self.chunk.as_ptr()) as usize;
            self.chunk.set_len(len);
        }
    }
}

/// Reads varints from a chunk's bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn varint(&mut self) -> u64 {
        let (mut v, mut shift) = (0, 0);
        loop {
            let b = self.bytes[self.at];
            self.at += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
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
    kind: usize,
    keys: &'a [&'static str],
    /// The argument values as the log holds them: one varint per key.
    values: &'a [u8],
}

impl<'a> TraceEvent<'a> {
    /// The numeric arguments, in recording order.
    fn args(&self) -> impl Iterator<Item = (&'static str, u64)> + 'a {
        let mut r = Reader {
            bytes: self.values,
            at: 0,
        };
        self.keys.iter().map(move |&key| (key, r.varint()))
    }
}

/// Reads a tracer's log back span by span, carrying the delta state
/// across chunk boundaries.
struct Spans<'a> {
    kinds: &'a [Kind],
    chunks: Chain<slice::Iter<'a, Vec<u8>>, array::IntoIter<&'a Vec<u8>, 1>>,
    r: Reader<'a>,
    prev: Prev,
    /// Each kind's last duration, as [`Kind::dur`] stood while recording.
    durs: Vec<u64>,
}

impl<'a> Iterator for Spans<'a> {
    type Item = TraceEvent<'a>;

    fn next(&mut self) -> Option<TraceEvent<'a>> {
        while self.r.at == self.r.bytes.len() {
            self.r = Reader {
                bytes: self.chunks.next()?,
                at: 0,
            };
        }
        let (r, prev) = (&mut self.r, self.prev);
        let tag = r.varint();
        let kind = (tag >> KIND_SHIFT) as usize;
        let tid = if tag & SAME_TID == 0 {
            unzigzag(r.varint(), prev.tid)
        } else {
            prev.tid
        };
        let next = prev.span.wrapping_add(1);
        let dur_us = &mut self.durs[kind];
        let (ts_us, trace, span) = if tag & USUAL == 0 {
            let ts_us = unzigzag(r.varint(), prev.ts);
            *dur_us = r.varint();
            let trace = unzigzag(r.varint(), tid);
            (ts_us, trace, unzigzag(r.varint(), next))
        } else {
            (prev.ts, tid, next)
        };
        let far = (tag & PARENT_FAR != 0).then(|| unzigzag(r.varint(), prev.far));
        let parent = far.or((tag & PARENT_PREV != 0).then_some(prev.span));
        let k = &self.kinds[kind];
        let start = r.at;
        for _ in 0..k.keys.len() {
            r.varint();
        }
        self.prev = Prev {
            tid,
            ts: ts_us,
            span,
            far: far.unwrap_or(prev.far),
        };
        Some(TraceEvent {
            name: k.name,
            cat: k.cat,
            pid: k.pid,
            tid,
            ts_us,
            dur_us: *dur_us,
            ctx: SpanContext {
                trace,
                span,
                parent,
            },
            kind,
            keys: &k.keys,
            values: &r.bytes[start..r.at],
        })
    }
}

/// Collects spans and renders Chrome trace-event JSON.
///
/// Spans go to an append-only log of [`CHUNK_BYTES`]-byte chunks, each
/// encoded as LEB128 varints against the span before it. A kind interns
/// a span's name, category, process lane and argument keys per tracer,
/// by address: the same text at two addresses gets two kinds, which
/// render alike. A span is its tag (the kind index above four flag
/// bits), then only what the flags do not imply:
///
/// - the tid, as a zigzag delta from the previous span's;
/// - unless the span is "usual" (same start as the previous span, same
///   duration as the last span of its kind, the next span id, and trace
///   id = tid): the start as a zigzag delta, the duration, the trace id
///   as a zigzag delta from the tid, and the span id as one from the
///   previous id plus one;
/// - a parent other than the previous span, as a zigzag delta from the
///   last such parent;
/// - one value per argument key.
///
/// A traced server's stream-round, a `stream.round` span with three
/// arguments and its disposition, takes ~9 bytes, where fixed records
/// took 160. A span never straddles two chunks, so it allocates nothing
/// of its own and nothing is copied as the log grows; reading back
/// carries the delta state across chunks.
///
/// Bounded: beyond `capacity` spans new records are counted as dropped
/// instead of stored, so a long run cannot exhaust memory.
#[derive(Debug)]
pub struct Tracer {
    /// The full chunks of the log, oldest first.
    full: Vec<Vec<u8>>,
    /// The chunk being written.
    head: Vec<u8>,
    /// The last recorded span, which the next is encoded against.
    prev: Prev,
    kinds: Vec<Kind>,
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
            full: Vec::new(),
            head: Vec::new(),
            prev: Prev::default(),
            kinds: Vec::new(),
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

    /// The index of the kind of a span, interned on first sight. By
    /// address (`ptr::eq`): comparing a pointer and a length is cheaper
    /// than comparing text.
    fn kind(
        &mut self,
        name: &'static str,
        cat: &'static str,
        pid: u32,
        args: &[(&'static str, u64)],
    ) -> usize {
        let same_keys = |k: &Kind| {
            k.keys.len() == args.len() && k.keys.iter().zip(args).all(|(&a, &(b, _))| ptr::eq(a, b))
        };
        self.kinds
            .iter()
            .position(|k| {
                ptr::eq(k.name, name) && ptr::eq(k.cat, cat) && k.pid == pid && same_keys(k)
            })
            .unwrap_or_else(|| {
                self.kinds.push(Kind {
                    name,
                    cat,
                    pid,
                    keys: args.iter().map(|&(key, _)| key).collect(),
                    dur: 0,
                });
                self.kinds.len() - 1
            })
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
        let kind = self.kind(name, cat, pid, args);
        let dur_us = dur_us.max(1);
        let last_dur = std::mem::replace(&mut self.kinds[kind].dur, dur_us);
        let parent = ctx.parent.filter(|&p| p != 0);
        let prev = self.prev;
        let next = prev.span.wrapping_add(1);
        let usual = ts_us == prev.ts && dur_us == last_dur && ctx.span == next && ctx.trace == tid;
        let same_tid = tid == prev.tid;
        let far = parent.filter(|&p| p != prev.span);
        let tag = [
            (USUAL, usual),
            (SAME_TID, same_tid),
            (PARENT_PREV, parent.is_some() && far.is_none()),
            (PARENT_FAR, far.is_some()),
        ]
        .iter()
        .filter(|&&(_, set)| set)
        .fold((kind as u64) << KIND_SHIFT, |tag, &(bit, _)| tag | bit);
        let mut w = SpanWriter::new(&mut self.full, &mut self.head, args.len());
        w.varint(tag);
        if !same_tid {
            w.varint(zigzag(tid, prev.tid));
        }
        if !usual {
            w.varint(zigzag(ts_us, prev.ts));
            w.varint(dur_us);
            w.varint(zigzag(ctx.trace, tid));
            w.varint(zigzag(ctx.span, next));
        }
        if let Some(far) = far {
            w.varint(zigzag(far, prev.far));
        }
        for &(_, value) in args {
            w.varint(value);
        }
        w.finish();
        self.prev = Prev {
            tid,
            ts: ts_us,
            span: ctx.span,
            far: far.unwrap_or(prev.far),
        };
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
        Spans {
            kinds: &self.kinds,
            chunks: self.full.iter().chain([&self.head]),
            r: Reader { bytes: &[], at: 0 },
            prev: Prev::default(),
            durs: vec![0; self.kinds.len()],
        }
    }

    /// Append this tracer's spans as trace-event objects, each preceded
    /// by a comma unless `first`. Each kind's fixed text is escaped once
    /// per call.
    fn write_events(&self, out: &mut String, first: &mut bool) {
        let texts: Vec<(String, String, Vec<String>)> = self
            .kinds
            .iter()
            .map(|k| {
                let mut head = String::from("{\"name\":");
                write_escaped(&mut head, k.name);
                head.push_str(",\"cat\":");
                write_escaped(&mut head, k.cat);
                head.push_str(",\"ph\":\"X\",\"ts\":");
                let keys = k
                    .keys
                    .iter()
                    .map(|key| {
                        let mut text = String::from(",");
                        write_escaped(&mut text, key);
                        text.push(':');
                        text
                    })
                    .collect();
                (head, format!(",\"pid\":{},\"tid\":", k.pid), keys)
            })
            .collect();
        for e in self.spans() {
            if !std::mem::take(first) {
                out.push(',');
            }
            let (head, lane, keys) = &texts[e.kind];
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
            for (key, (_, value)) in keys.iter().zip(e.args()) {
                out.push_str(key);
                // u64 args are written through the f64 path only when
                // needed; integers render exactly.
                if value <= (1u64 << 53) {
                    write_u64(out, value);
                } else {
                    write_f64(out, value as f64);
                }
            }
            out.push_str("}}");
        }
    }
}

/// Render the spans of `tracers` as one Chrome trace-event JSON object:
/// each tracer's spans in recording order, tracers in slice order, and
/// the spans they dropped summed (`{"traceEvents": [...], ...}`). This
/// is how a fleet stitches its tracers (dispatcher, then every node)
/// into a single trace file without copying their spans; callers fix
/// the order for byte-stable output.
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
    use proptest::prelude::*;

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
        let parsed = json::parse(&render_chrome_json(&[&t])).unwrap();
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
        let parsed = json::parse(&render_chrome_json(&[&t])).unwrap();
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
        // 0–3 arguments per span over several chunks, each closed with a
        // tail too short for the next span.
        let mut t = Tracer::new();
        let n = CHUNK_BYTES as u64;
        for i in 0..n {
            let ctx = t.root(i);
            let args = [("a", i), ("b", i), ("c", i)];
            t.record("s", "c", 1, i, i, 1, ctx, &args[..(i % 4) as usize]);
        }
        assert!(t.full.len() > 2);
        assert!(t.full.iter().all(|c| c.len() <= CHUNK_BYTES));
        let mut read = 0;
        for (i, e) in (0..).zip(t.spans()) {
            assert_eq!((e.tid, e.ts_us, e.ctx.trace, e.ctx.parent), (i, i, i, None));
            let keys: Vec<&str> = e.args().map(|(k, _)| k).collect();
            assert_eq!(keys, ["a", "b", "c"][..(i % 4) as usize]);
            assert!(e.args().all(|(_, v)| v == i));
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

    /// Names, categories and keys for generated spans: more than a
    /// one-byte tag's kind field holds, some needing JSON escapes.
    fn text(i: usize) -> &'static str {
        static TEXTS: std::sync::OnceLock<Vec<&'static str>> = std::sync::OnceLock::new();
        TEXTS.get_or_init(|| {
            (0..160)
                .map(|i| &*Box::leak(format!("t{i}{}", ["", "\"", "\\n"][i % 3]).into_boxed_str()))
                .collect()
        })[i]
    }

    /// A span as given to `record`.
    #[derive(Debug)]
    struct Input {
        name: &'static str,
        cat: &'static str,
        pid: u32,
        tid: u64,
        ts: u64,
        dur: u64,
        ctx: SpanContext,
        args: Vec<(&'static str, u64)>,
    }

    fn value() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(1),
            Just(u64::MAX),
            Just(u64::MAX - 1),
            Just(1 << 53),
            Just((1 << 53) + 1),
            Just(1 << 63),
            0u64..300,
            0u64..u64::MAX,
        ]
    }

    fn index() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..3, 0usize..160]
    }

    fn likely() -> impl Strategy<Value = bool> {
        prop_oneof![Just(true), Just(true), Just(true), Just(false)]
    }

    /// One span's choices: each field either follows the previous span
    /// (what the tag's flags imply) or is drawn afresh.
    #[allow(clippy::type_complexity)]
    fn step() -> impl Strategy<
        Value = (
            (usize, usize, u32),
            (bool, u64),
            (bool, u64),
            u64,
            (bool, u64),
            (bool, u64),
            (u8, u64),
            Vec<(usize, u64)>,
        ),
    > {
        (
            (
                index(),
                index(),
                prop_oneof![Just(1u32), 0u32..4, Just(u32::MAX)],
            ),
            (likely(), value()),
            (likely(), value()),
            prop_oneof![Just(0u64), Just(1), Just(1_000_000), value()],
            (likely(), value()),
            (likely(), value()),
            (0u8..6, value()),
            prop::collection::vec((index(), value()), 0..=8),
        )
    }

    /// The Chrome JSON of `inputs`, rendered straight from them.
    fn render(inputs: &[Input]) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in inputs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, s.name);
            out.push_str(",\"cat\":");
            write_escaped(&mut out, s.cat);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{},\"args\":{{\"trace\":{},\"span\":{}",
                s.ts,
                s.dur.max(1),
                s.pid,
                s.tid,
                s.ctx.trace,
                s.ctx.span
            );
            if let Some(parent) = s.ctx.parent.filter(|&p| p != 0) {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            for &(key, value) in &s.args {
                out.push(',');
                write_escaped(&mut out, key);
                out.push(':');
                if value <= 1 << 53 {
                    let _ = write!(out, "{value}");
                } else {
                    write_f64(&mut out, value as f64);
                }
            }
            out.push_str("}}");
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":0}}");
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever is recorded reads back exactly, in order, across
        /// several chunks, and renders as the inputs render directly.
        #[test]
        fn log_reads_back_what_was_recorded(steps in prop::collection::vec(step(), 1200..2000)) {
            let (mut tid, mut ts, mut span) = (0u64, 0u64, 0u64);
            let mut inputs = Vec::new();
            for ((name, cat, pid), t, s, dur, trace, id, (mode, p), args) in steps {
                tid = if t.0 { tid } else { t.1 };
                ts = if s.0 { ts } else { s.1 };
                let trace = if trace.0 { tid } else { trace.1 };
                let prev = span;
                span = if id.0 { span.wrapping_add(1) } else { id.1 };
                let parent = match mode {
                    0 => None,
                    1 => Some(0),
                    2 => Some(prev),
                    3 => Some(span.wrapping_add(1 + p % 1000)),
                    4 => Some(span.wrapping_sub(p % 50)),
                    _ => Some(p),
                };
                inputs.push(Input {
                    name: text(name),
                    cat: text(cat),
                    pid,
                    tid,
                    ts,
                    dur,
                    ctx: SpanContext { trace, span, parent },
                    args: args.into_iter().map(|(k, v)| (text(k), v)).collect(),
                });
            }
            let mut t = Tracer::new();
            for s in &inputs {
                t.record(s.name, s.cat, s.pid, s.tid, s.ts, s.dur, s.ctx, &s.args);
            }
            prop_assert!(t.full.len() >= 2, "{} full chunks", t.full.len());
            prop_assert_eq!(t.len(), inputs.len());
            let mut read = 0;
            for (e, s) in t.spans().zip(&inputs) {
                prop_assert_eq!((e.name, e.cat, e.pid), (s.name, s.cat, s.pid));
                prop_assert_eq!((e.tid, e.ts_us, e.dur_us), (s.tid, s.ts, s.dur.max(1)));
                let parent = s.ctx.parent.filter(|&p| p != 0);
                prop_assert_eq!(e.ctx, SpanContext { parent, ..s.ctx });
                prop_assert!(e.args().eq(s.args.iter().copied()));
                read += 1;
            }
            prop_assert_eq!(read, inputs.len());
            prop_assert_eq!(render_chrome_json(&[&t]), render(&inputs));
        }
    }
}
