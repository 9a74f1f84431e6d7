//! SLO machinery for the mzd server: is the analytic guarantee still
//! holding *right now*?
//!
//! The server admits by one criterion, the per-stream glitch-rate bound
//! of eq. 3.3.6 (at most `g` glitches in `M` rounds, except with
//! probability `ε`), which promises a glitch budget of `g/M` per
//! stream-round; `mzd-telemetry` records what actually happened. This
//! crate closes the loop with three always-on interpreters of those raw
//! observations:
//!
//! * [`BurnRateEngine`] — SRE-style multi-window burn-rate alerting on
//!   the admitted glitch budget: the observed per-stream-round glitch
//!   rate divided by the budget, over fast (64-round) and slow
//!   (512-round) sliding windows, with hysteresis so alerts cannot
//!   flap. The server freezes cache-aware over-admission while a
//!   fast-burn alert is active.
//! * [`ConformanceChecker`] — online model-conformance monitoring via
//!   the probability integral transform: each observed round service
//!   time is pushed through the analytic predicted CDF (`mzd-core`'s
//!   exact Gil–Pelaez inversion); if the model is right the transformed
//!   values are uniform on `[0, 1]`. The checker keeps a binned PIT
//!   histogram, a KS-style max deviation, and raises a *drift* signal
//!   on one-sided upper-tail exceedance — the direction that actually
//!   voids the guarantee (the model is deliberately conservative below
//!   the mean, so two-sided uniformity testing would false-alarm).
//! * [`Tracer`] — per-stream causal spans (admission → queueing →
//!   cache lookup / delayed-hit coalescing → batch / SCAN sweep →
//!   transfer → delivery) exportable as Chrome trace-event JSON,
//!   loadable in Perfetto. Timestamps are *logical* (round index ×
//!   round length): the rest of the workspace deliberately records no
//!   wall-clock time so seeded replays stay byte-identical.
//!
//! Like `mzd-telemetry` and `mzd-cache`, this crate depends on nothing
//! outside the workspace (only the telemetry crate, for the JSON
//! writer and the span-context type).

#![warn(missing_docs)]

pub mod burn;
pub mod conformance;
pub mod trace;

pub use burn::{BurnConfig, BurnRateEngine};
pub use conformance::{ConformanceChecker, ConformanceConfig};
pub use trace::{render_chrome_json, TraceEvent, Tracer};

/// A state change of an SLO alarm: the fast-burn alert
/// ([`BurnRateEngine::observe_round`]) or the drift alarm
/// ([`ConformanceChecker::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// The alarm went active.
    Raised,
    /// The alarm cleared after a full hysteresis period of calm.
    Cleared,
}

impl Transition {
    /// The name `slo.alert` and `slo.drift` events carry in their
    /// `transition` field.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Transition::Raised => "raised",
            Transition::Cleared => "cleared",
        }
    }
}

/// The raise/clear machine both alarms run: raise when the raise
/// condition holds, clear after `hysteresis` consecutive calm
/// observations, and count raises. Raise→clear therefore always spans
/// at least `hysteresis` observations, so an alarm cannot flap.
#[derive(Debug, Default)]
struct Latch {
    active: bool,
    calm_streak: u64,
    /// Raises so far.
    raised: u64,
}

impl Latch {
    /// Feed one observation. `raise` is consulted only while the alarm
    /// is inactive, `calm` only while it is active.
    fn observe(&mut self, raise: bool, calm: bool, hysteresis: u64) -> Option<Transition> {
        if !self.active {
            // The calm streak is already 0: it resets on every clear.
            self.active = raise;
            self.raised += u64::from(raise);
            return raise.then_some(Transition::Raised);
        }
        if !calm {
            self.calm_streak = 0;
            return None;
        }
        self.calm_streak += 1;
        if self.calm_streak < hysteresis {
            return None;
        }
        self.active = false;
        self.calm_streak = 0;
        Some(Transition::Cleared)
    }
}

/// Errors from SLO configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum SloError {
    /// A configuration parameter was invalid.
    Invalid(String),
}

impl std::fmt::Display for SloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloError::Invalid(msg) => write!(f, "invalid SLO parameters: {msg}"),
        }
    }
}

impl std::error::Error for SloError {}

/// Conservative lower confidence bound on a rate measured as
/// `successes` out of `trials`: the Wilson score interval's lower
/// endpoint at ~95% (z = 2). Returns 0 for empty samples.
///
/// Shared by the drift detector (tail-exceedance rate must *provably*
/// exceed its tolerance before an alarm) and the server's cache-aware
/// admission (inflating `N_max` by `1 / (1 − h·(1 − safety))` is only
/// sound for a hit ratio `h` the measured traffic actually sustains) —
/// one evidence-before-action posture.
#[must_use]
pub fn wilson_lower_bound(successes: u64, trials: u64) -> f64 {
    if trials == 0 || successes == 0 {
        return 0.0;
    }
    let n = trials as f64;
    let p = (successes.min(trials)) as f64 / n;
    let z2 = 4.0; // z = 2 ≈ 95.45% two-sided
    let denom = 1.0 + z2 / n;
    let center = p + z2 / (2.0 * n);
    let margin = (z2 * (p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt();
    ((center - margin) / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_raises_once_and_clears_after_hysteresis() {
        let mut latch = Latch::default();
        assert_eq!(latch.observe(false, true, 3), None);
        assert_eq!(latch.observe(true, false, 3), Some(Transition::Raised));
        // Already active: a second raise condition is not a transition.
        assert_eq!(latch.observe(true, false, 3), None);
        assert_eq!(latch.observe(false, true, 3), None);
        assert_eq!(latch.observe(false, true, 3), None);
        // A non-calm observation restarts the streak.
        assert_eq!(latch.observe(false, false, 3), None);
        for _ in 0..2 {
            assert_eq!(latch.observe(false, true, 3), None);
        }
        assert_eq!(latch.observe(false, true, 3), Some(Transition::Cleared));
        assert!(!latch.active);
        assert_eq!(latch.raised, 1);
        assert_eq!(Transition::Raised.as_str(), "raised");
        assert_eq!(Transition::Cleared.as_str(), "cleared");
    }

    #[test]
    fn wilson_bound_edges() {
        assert_eq!(wilson_lower_bound(0, 0), 0.0);
        assert_eq!(wilson_lower_bound(0, 50), 0.0);
        let all = wilson_lower_bound(50, 50);
        assert!(all > 0.8 && all < 1.0, "all-hits bound {all}");
        // Monotone in evidence.
        assert!(wilson_lower_bound(500, 500) > all);
        // Below the point estimate.
        assert!(wilson_lower_bound(10, 100) < 0.1);
    }

    #[test]
    fn wilson_bound_is_conservative_and_consistent() {
        assert_eq!(wilson_lower_bound(0, 0), 0.0);
        assert_eq!(wilson_lower_bound(0, 100), 0.0);
        // Always below the point estimate, approaching it as n grows.
        let small = wilson_lower_bound(8, 10);
        let large = wilson_lower_bound(8_000, 10_000);
        assert!(small < 0.8);
        assert!(large < 0.8);
        assert!(large > small);
        assert!(large > 0.79, "large-sample bound {large} too loose");
        // Monotone in successes.
        assert!(wilson_lower_bound(50, 100) < wilson_lower_bound(90, 100));
        // Never negative, never above 1.
        for s in [0u64, 1, 50, 99, 100] {
            let b = wilson_lower_bound(s, 100);
            assert!((0.0..=1.0).contains(&b), "bound {b} for {s}/100");
        }
    }
}
