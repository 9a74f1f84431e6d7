//! Recording a span allocates nothing of its own: the tracer appends
//! fixed-size records and argument pairs into chunks, so a long traced
//! run allocates once per chunk (plus the chunk directories and the
//! interning tables), never per span. Verified with a counting global
//! allocator installed for this test binary only.

use mzd_slo::trace::{ARGS_PER_CHUNK, SPANS_PER_CHUNK};
use mzd_slo::Tracer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (and reallocations) observed process-wide.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
    let before = ALLOCATIONS.load(Ordering::SeqCst);
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
    assert_eq!(tracer.len(), 2 * STREAM_ROUNDS);
    assert_eq!(tracer.dropped(), 0);
    let chunks = (2 * STREAM_ROUNDS).div_ceil(SPANS_PER_CHUNK)
        + (3 * STREAM_ROUNDS).div_ceil(ARGS_PER_CHUNK);
    // The roots vector, the two chunk directories' doublings and the
    // two interning tables.
    let fixed = 32;
    assert!(
        allocated <= (chunks + fixed) as u64,
        "{allocated} allocations for {} spans in {chunks} chunks",
        2 * STREAM_ROUNDS
    );
    std::hint::black_box(&tracer);
}
