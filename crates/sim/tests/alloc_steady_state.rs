//! Steady-state rounds must not allocate: the event core preallocates
//! its arenas and the counting sort's scratch at construction
//! ([`RoundSimulator::with_capacity`]) and reuses them across rounds,
//! so the per-round hot path is allocation-free once warmed up.
//! Verified with a counting global allocator installed for this test
//! binary only, counting the allocations of the thread the rounds run
//! on.

use mzd_sim::{RoundSimulator, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (and reallocations) made on a counted thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations count: only the test's own
    /// thread, where every round runs. The harness's main thread makes
    /// four allocations registering the running test, whenever the
    /// scheduler lets it, and counting them made the result depend on
    /// that timing.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // `try_with`: a thread's locals are gone while it exits.
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic and the flag a const-initialized thread-local `Cell`
// (no lazy initialization, so reading it never allocates), with no
// other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_rounds_do_zero_allocations() {
    COUNTED.with(|c| c.set(true));
    let cfg = SimConfig::paper_reference().unwrap();
    // Capacity sized to the round we run — the admission-cap contract.
    let n = 20u32;
    let mut sim = RoundSimulator::with_capacity(cfg, 42, n as usize).unwrap();
    let sizes = vec![150_000.0f64; 18];
    // The fleet benchmark's disk batch: 267 stored sizes on an 8-s
    // round, with the admission cap plus headroom as the capacity.
    let mut steady_cfg = SimConfig::paper_reference().unwrap();
    steady_cfg.round_length = 8.0;
    let mut steady = RoundSimulator::with_capacity(steady_cfg, 43, 275).unwrap();
    let steady_sizes = vec![150_000.0f64; 267];
    // Warm up: metric handles exist since construction; this settles
    // any lazily-initialized telemetry state. The steady-shape simulator
    // gets no warm-up round, so its first round already runs on the
    // preallocated scratch. The batches stay far from their deadlines,
    // so the glitched-streams vector stays empty (and unallocated)
    // throughout.
    for _ in 0..100 {
        std::hint::black_box(sim.run_round(n));
        std::hint::black_box(sim.run_round_sized(&sizes));
    }
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..2000 {
        let out = sim.run_round(n);
        assert!(out.glitched_streams.is_empty(), "round unexpectedly late");
        std::hint::black_box(&out);
        let out = sim.run_round_sized(&sizes);
        assert!(
            out.glitched_streams.is_empty(),
            "sized round unexpectedly late"
        );
        std::hint::black_box(&out);
        let out = steady.run_round_sized(&steady_sizes);
        assert!(
            out.glitched_streams.is_empty(),
            "steady-shape round unexpectedly late"
        );
        std::hint::black_box(&out);
    }
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocated, 0,
        "steady-state rounds performed {allocated} allocations"
    );
}
