//! A submission allocates nothing per node: routing reads each node's
//! per-disk load in place, refreshes one reused routing snapshot and
//! lets placement read availability from it, so what a submission
//! allocates is its own bookkeeping (a queue slot, a stream record),
//! amortized. Verified with a counting global allocator installed for
//! this test binary only.

use mzd_cluster::{Cluster, ClusterConfig, SubmitOutcome};
use mzd_workload::{ObjectSpec, SizeDistribution};
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

/// 10 000 submissions into a 32-node fleet of 8-s rounds, which has
/// room for all of them, so every request lands on its primary.
#[test]
fn submissions_allocate_nothing_per_node() {
    const SUBMISSIONS: usize = 10_000;
    let mut cfg = ClusterConfig::paper_reference(32, 2).unwrap();
    cfg.node.round_length = 8.0;
    let mut cluster = Cluster::new(cfg, 7).unwrap();
    assert!(cluster.guarantee().fleet_capacity >= SUBMISSIONS as u64);
    let sizes = SizeDistribution::paper_default();
    let objects: Vec<ObjectSpec> = (0..SUBMISSIONS)
        .map(|i| {
            ObjectSpec::new("obj", sizes.clone(), 600)
                .unwrap()
                .with_content_id(i as u64)
        })
        .collect();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for object in objects {
        let outcome = cluster.submit(object).unwrap();
        assert!(matches!(
            outcome,
            SubmitOutcome::Queued { node: Some(_), .. }
        ));
    }
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - before;

    assert_eq!(cluster.waiting(), SUBMISSIONS);
    let per_submission = allocated as f64 / SUBMISSIONS as f64;
    assert!(
        per_submission <= 2.0,
        "{allocated} allocations for {SUBMISSIONS} submissions ({per_submission:.2} each)"
    );
}
