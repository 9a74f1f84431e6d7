//! The host's clock speed, read from a fixed calibration loop, so host
//! seconds convert to reference seconds.
//!
//! The reference host (2 vCPUs of a shared server) changes clock speed
//! for tens of seconds to minutes at a time. A duration measured at
//! clock reading `c` is reported as `duration * REFERENCE / c`: what it
//! would have taken at the reference clock. In two ten-run sets per
//! workload this narrowed five of the six run-to-run spreads of
//! `stream_rounds_per_s` (see README.md). The loop is the benchmark's
//! own code, so a change to the program under test cannot move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time of one calibration chunk at the reference clock: a fixed
/// round figure below every reading seen on the reference host (258 us
/// and up). It only scales the results, so it must never change.
pub const REFERENCE: Duration = Duration::from_micros(200);

/// Chunks per reading; the fastest is the reading, so a moment of
/// contention from the other hardware thread does not count.
const CHUNKS: u32 = 16;

/// One chunk: a dependent xorshift chain and a dependent `ln`/`exp`/
/// `sqrt` chain, the integer and floating-point work the simulation
/// is made of.
fn chunk() -> Duration {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..60_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    let mut y = black_box(1.0001f64);
    for i in 0..4_000 {
        y = (y.ln() + 1.0 + f64::from(i) * 1e-9).exp().sqrt();
    }
    black_box((x, y));
    t0.elapsed()
}

/// The host's clock now: the fastest of a burst of chunks.
pub fn read() -> Duration {
    (0..CHUNKS).map(|_| chunk()).min().unwrap_or(REFERENCE)
}

/// `host` seconds measured at clock reading `clock`, in reference
/// seconds.
pub fn to_reference(host: f64, clock: Duration) -> f64 {
    host * REFERENCE.as_secs_f64() / clock.as_secs_f64()
}
