//! Recording a span allocates nothing of its own: the tracer encodes
//! spans into a log of fixed-size byte chunks, so a long traced run
//! allocates once per chunk (plus the chunk directory and the kind
//! table), never per span, and the serving pattern's spans take a few
//! bytes each. Verified with a counting global allocator installed for
//! this test binary only, counting the allocations of the thread the
//! spans are recorded on.

use mzd_slo::trace::CHUNK_BYTES;
use mzd_slo::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (and reallocations) made on a counted thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Those of them that are one log chunk: `CHUNK_BYTES` bytes at
/// alignment 1.
static CHUNKS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count: only the test's own
    /// thread. The harness's main thread allocates while registering
    /// the running test, whenever the scheduler lets it.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize, align: usize) {
    // `try_with`: a thread's locals are gone while it exits.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if size == CHUNK_BYTES && align == 1 {
            CHUNKS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counters are
// relaxed atomics and the flag a const-initialized thread-local `Cell`
// (no lazy initialization, so reading it never allocates), with no
// other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.align());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.align());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.align());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// The serving path's per-stream-round spans: `stream.round` with its
/// three arguments under the stream's root, then the round's
/// disposition under that.
#[test]
fn span_recording_allocates_only_whole_chunks() {
    const STREAM_ROUNDS: usize = 100_000;
    const STREAMS: u64 = 64;
    COUNTED.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let chunks_before = CHUNKS.load(Ordering::SeqCst);
    let mut tracer = Tracer::new();
    let roots: Vec<_> = (0..STREAMS).map(|s| tracer.root(s)).collect();
    for i in 0..STREAM_ROUNDS as u64 {
        let stream = i % STREAMS;
        let round = i / STREAMS;
        let ts = round * 1_000_000;
        let ctx = tracer.child(&roots[stream as usize]);
        tracer.record(
            "stream.round",
            "stream",
            1,
            stream,
            ts,
            1_000_000,
            ctx,
            &[("round", round), ("disk", stream % 4), ("fragment", round)],
        );
        let disposition = tracer.child(&ctx);
        tracer.record(
            "disk.fetch",
            "disk",
            1,
            stream,
            ts,
            1_000_000,
            disposition,
            &[],
        );
    }
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
    let chunks = (CHUNKS.load(Ordering::SeqCst) - chunks_before) as usize;
    COUNTED.with(|c| c.set(false));
    assert_eq!(tracer.len(), 2 * STREAM_ROUNDS);
    assert_eq!(tracer.dropped(), 0);
    assert!(chunks > 0, "no log chunk allocated");
    // The roots vector, the chunk directory's doublings, the kind table
    // and a kind's key list.
    let fixed = 32;
    assert!(
        allocated <= (chunks + fixed) as u64,
        "{allocated} allocations for {} spans in {chunks} chunks",
        2 * STREAM_ROUNDS
    );
    // The log, chunk slack included, holds at most 32 bytes per
    // stream-round: its two spans encode as deltas in ~9, where fixed
    // records and argument pairs took 160.
    let bytes = chunks * CHUNK_BYTES;
    assert!(
        bytes <= 32 * STREAM_ROUNDS,
        "{bytes} log bytes for {STREAM_ROUNDS} stream-rounds"
    );
    std::hint::black_box(&tracer);
}
