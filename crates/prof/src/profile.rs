//! Phase profiler: scoped RAII guards that attribute wall-clock time to
//! a stack of named phases, aggregated process-wide into collapsed-stack
//! lines (`a;b;c <self-nanoseconds>`) — the format `flamegraph.pl` and
//! inferno consume directly.
//!
//! Complements the [`mzd_telemetry::span!`] histograms: a span records
//! one phase's latency distribution; the profiler records *where inside
//! the round the time went*, with parent/child attribution (a parent's
//! self time excludes its children). Disabled by default; a disabled
//! [`phase`] call costs one relaxed atomic load and returns an inert
//! guard, so instrumentation can stay in the hot loop permanently (the
//! `prof_phase_disabled` row of `experiments -- bench-summary`).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Accumulated `(self nanoseconds, enters)` per `;`-joined stack.
static TOTALS: Mutex<Option<BTreeMap<String, (u64, u64)>>> = Mutex::new(None);

struct Frame {
    name: &'static str,
    start: Instant,
    /// Nanoseconds attributed to already-finished children.
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Whether the profiler is collecting.
#[must_use]
pub fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off. Turning it off leaves accumulated totals
/// readable via [`collapsed`]; guards opened while enabled still finish
/// correctly after a disable.
pub fn set_profiling(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Drop all accumulated totals (the per-thread stacks of live guards are
/// untouched).
pub fn reset_profile() {
    *TOTALS.lock().expect("profile totals lock") = None;
}

/// Enter a named phase. The returned guard attributes the scope's
/// elapsed time to the current thread's phase stack when dropped.
/// Inert (one atomic load) while profiling is disabled.
#[must_use]
pub fn phase(name: &'static str) -> PhaseGuard {
    if !profiling_enabled() {
        return PhaseGuard { active: false };
    }
    STACK.with(|stack| {
        stack.borrow_mut().push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    PhaseGuard { active: true }
}

/// RAII guard returned by [`phase`].
#[derive(Debug)]
pub struct PhaseGuard {
    active: bool,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(frame) = stack.pop() else {
                return;
            };
            let elapsed = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let self_ns = elapsed.saturating_sub(frame.child_ns);
            let mut key = String::with_capacity(32);
            for f in stack.iter() {
                key.push_str(f.name);
                key.push(';');
            }
            key.push_str(frame.name);
            if let Some(parent) = stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(elapsed);
            }
            let mut totals = TOTALS.lock().expect("profile totals lock");
            let entry = totals
                .get_or_insert_with(BTreeMap::new)
                .entry(key)
                .or_insert((0, 0));
            entry.0 = entry.0.saturating_add(self_ns);
            entry.1 += 1;
        });
    }
}

/// The accumulated profile in collapsed-stack form: one
/// `stack;path;here <self-ns>` line per distinct stack, sorted by stack
/// so equal profiles render identically. Empty string when nothing was
/// collected.
#[must_use]
pub fn collapsed() -> String {
    let totals = TOTALS.lock().expect("profile totals lock");
    let Some(totals) = totals.as_ref() else {
        return String::new();
    };
    let mut out = String::with_capacity(totals.len() * 48);
    for (stack, (self_ns, _)) in totals {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&self_ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler state is process-global, so all profiler tests run
    /// inside this one test body.
    #[test]
    fn phases_nest_and_collapse() {
        reset_profile();
        assert!(!profiling_enabled());
        {
            // Disabled: inert guard, nothing collected.
            let _g = phase("ignored");
        }
        assert_eq!(collapsed(), "");

        set_profiling(true);
        {
            let _round = phase("round");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _sweep = phase("sweep");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
            {
                let _slo = phase("slo");
            }
        }
        set_profiling(false);
        let text = collapsed();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        // Sorted stacks: round, round;slo, round;sweep.
        assert!(lines[0].starts_with("round "), "{text}");
        assert!(lines[1].starts_with("round;slo "), "{text}");
        assert!(lines[2].starts_with("round;sweep "), "{text}");
        let ns = |line: &str| line.rsplit(' ').next().unwrap().parse::<u64>().unwrap();
        // Self time excludes children: the sweep slept longer than the
        // round body's own 2 ms.
        assert!(ns(lines[2]) >= 3_000_000, "{text}");
        assert!(ns(lines[0]) >= 1_000_000, "{text}");
        assert!(ns(lines[0]) < ns(lines[2]) + ns(lines[1]) + 60_000_000);

        reset_profile();
        assert_eq!(collapsed(), "");
    }
}
